//! The four-lane mixer and eight-lane compare of the hot randomness and
//! clash-scan loops.
//!
//! Both are plain scalar code, inlined at their call sites.  The fixed
//! lane shape (whole `[u64; 4]` / `[u32; 8]` arrays, no tail) is what the
//! callers keep: it hands the optimizer straight-line lanes it can
//! vectorize for the build target, and it measured faster end to end than
//! per-element loops in the same callers.  Integer lane arithmetic is
//! exact, so every build target produces the same bytes as
//! [`crate::tape::splitmix64`] and the per-lane `==`.
//!
//! The seed-block lane draw (`parcolor_prg::PrgBlock`'s
//! `TapeBlock::below_lanes`) is kept scalar on purpose: a plain loop over
//! its eight lanes, two splitmix rounds and one Lemire multiply each,
//! that compiles to scalar `imul` on the default x86-64 target.  The
//! baseline target has no 64-bit lane multiply, so when LLVM
//! SLP-vectorized the same chain it emulated every product with
//! `pmuludq` and shifts: a standalone micro on a 2-vCPU Xeon ran it at
//! 6.0–6.5 ns per (seed, node), against 2.8–2.9 ns scalar and 3.8–4.1 ns
//! under AVX2.  If the kernel's shape changes, check its codegen
//! (`objdump -d … | grep pmuludq`) and time it again.

/// Number of 64-bit lanes [`splitmix4`] mixes at once.
pub const SPLITMIX_LANES: usize = 4;

/// Four independent [`crate::tape::splitmix64`] lanes.
#[inline]
pub fn splitmix4(z: [u64; SPLITMIX_LANES]) -> [u64; SPLITMIX_LANES] {
    [
        crate::tape::splitmix64(z[0]),
        crate::tape::splitmix64(z[1]),
        crate::tape::splitmix64(z[2]),
        crate::tape::splitmix64(z[3]),
    ]
}

/// Bit `s` of the result ⇔ `a[s] == b[s]`: the seed-lane clash compare
/// of two 8-lane pick rows.
///
/// The compares land in a `[bool; 8]` before they are packed, and the
/// body is inlined early (`inline(always)`): in that shape x86-64 builds
/// compile it to two `pcmpeqd` and one `pmovmskb` wherever it is called.
/// The fused form `eq |= u8::from(a[s] == b[s]) << s` compiled so only
/// where the surrounding code happened to allow it; TryRandomColor's
/// clash scan got lanes 0 and 5–7 as scalar `sete`s and ran about 1.4×
/// slower (2-vCPU Xeon, one worker, gnm 5·10^4 nodes).
#[inline(always)]
pub fn lane_eq_mask8(a: &[u32; 8], b: &[u32; 8]) -> u8 {
    let eq: [bool; 8] = std::array::from_fn(|s| a[s] == b[s]);
    let mut mask = 0u8;
    for (s, &e) in eq.iter().enumerate() {
        mask |= u8::from(e) << s;
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::splitmix64;

    /// Structured and avalanche-y probe inputs, including extremes.
    fn probes() -> Vec<u64> {
        (0..64u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (i << 59))
            .chain([0, 1, u64::MAX, u64::MAX - 1, 1u64 << 63])
            .collect()
    }

    #[test]
    fn splitmix4_matches_scalar() {
        for w in probes().chunks(4) {
            let mut z = [0u64; 4];
            z[..w.len()].copy_from_slice(w);
            let got = splitmix4(z);
            for l in 0..4 {
                assert_eq!(got[l], splitmix64(z[l]), "lane {l} of {z:?}");
            }
        }
    }

    #[test]
    fn lane_eq_mask_matches_scalar() {
        let a = [1u32, 2, 3, u32::MAX, 5, 0, 7, 8];
        let mut b = a;
        assert_eq!(lane_eq_mask8(&a, &b), 0xFF);
        b[0] = 9;
        b[3] = 0;
        b[7] = 0;
        assert_eq!(lane_eq_mask8(&a, &b), 0b0111_0110);
        assert_eq!(lane_eq_mask8(&a, &[0; 8]), 0b0010_0000);
        // Every single-lane flip clears exactly that lane's bit.
        for flip in 0..8 {
            let mut c = a;
            c[flip] ^= 0x8000_0001;
            assert_eq!(lane_eq_mask8(&a, &c), !(1u8 << flip), "flip {flip}");
        }
    }
}
