//! The kernel path a solve runs.  The inline scalar kernels of
//! `parcolor_local::simd` are the only one; this module is kept for one
//! reader, the benchmark (`perfbench/`), whose environment line records
//! `active_path().name()`.

/// A kernel path.
#[derive(Clone, Copy, Debug)]
pub enum SimdPath {
    /// The inline scalar kernels of `parcolor_local::simd`.
    Scalar,
}

impl SimdPath {
    /// The path's name, `"scalar"`.
    pub fn name(self) -> &'static str {
        "scalar"
    }
}

/// The path every solve runs: [`SimdPath::Scalar`].
pub fn active_path() -> SimdPath {
    SimdPath::Scalar
}
