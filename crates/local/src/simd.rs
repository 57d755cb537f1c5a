//! The eight-lane compare of the seed-lane clash scan, and the codegen
//! notes of the three seed-lane kernels.
//!
//! [`lane_eq_mask8`] is plain scalar code, inlined at its call sites.
//! Its fixed lane shape (whole `[u32; 8]` rows, no tail) hands the
//! optimizer straight-line lanes it can vectorize for the build target.
//! Integer compares are exact, so every build target produces the same
//! mask as the per-lane `==`.
//!
//! Tape words have one scalar draw path (`crate::tape`) and no stripe
//! mixer: on the default target a multi-lane `splitmix64` compiles to the
//! emulated `pmuludq` products described next.
//!
//! The seed-block lane draw (`parcolor_prg::PrgBlock`'s
//! `TapeBlock::below_lanes`) is kept scalar on purpose: a plain loop over
//! its eight lanes, two splitmix rounds and one Lemire multiply each,
//! that compiles to scalar `imul` on the default x86-64 target.  The
//! baseline target has no 64-bit lane multiply, so when LLVM
//! SLP-vectorized the same chain it emulated every product with
//! `pmuludq` and shifts: a standalone micro on a 2-vCPU Xeon ran it at
//! 6.0–6.5 ns per (seed, node), against 2.8–2.9 ns scalar and 3.8–4.1 ns
//! under AVX2.
//!
//! The partition's count kernel (`parcolor_core::reduce::lane_matches`)
//! counts, for a run of at most 255 plane entries, how many hold a node's
//! bin in each of 32 `u8` seed lanes.  Its shape is what vectorizes: its
//! own `#[inline(never)]` function, with the flush of the `u8` counters
//! into `u32`s outside it and the counts leaving through an out-parameter,
//! compiles each entry to two 16-byte `pcmpeqb` and two `psubb`.  With the
//! flush fused into the entry loop it compiled to eight 4-byte `movd`
//! groups, and the hash search's walks ran 2.1–3.2× slower (E4's
//! dense_lists row, 2 workers, 2-vCPU Xeon).
//!
//! CI's codegen step fails if the lane draw,
//! `<StepStream<B> as TapeBlock>::below_lanes` in the `parcolor` binary,
//! holds a `pmuludq`, if TryRandomColor's `seed_cost_block` compares rows
//! other than with [`lane_eq_mask8`]'s `pcmpeqd` and `pmovmskb`, or if
//! the count kernel holds other than two `pcmpeqb` and two `psubb`, or
//! any `movd`.

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
