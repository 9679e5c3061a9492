//! Lookup-table construction — Algorithm 1 of the paper, and the
//! brute-force `M_µ · x` product of Fig. 4(a) it is tested against.
//!
//! For a sub-vector `x = (x_0 … x_{L−1})` the table holds
//! `q[k] = ⟨pattern(k), x⟩` for every key `k ∈ [0, 2^L)`: row `k` of the
//! paper's `M_µ` (Definition 5), whose sign of element `t` is bit
//! `L−1−t` of `k` (`1 ↦ +1`), MSB-first like the packed keys.
//!
//! **Dynamic programming** (Fig. 4(b)): start from
//! `q[0] = −(x_0 + … + x_{L−1})` (the all-minus pattern), then flipping the
//! sign of one element turns `−x_i` into `+x_i`, i.e. adds `2·x_i`:
//!
//! ```text
//! q[0]          = −Σ x
//! q[2^t + j]    = q[j] + 2·x_{L−1−t}     (t = 0..L−2, j = 0..2^t)   [lower half]
//! q[2^L − i]    = −q[i − 1]              (i = 1..=2^{L−1})          [mirror]
//! ```
//!
//! Total: `(L−1) + (2^{L−1} − 1)` additions plus `2^{L−1}` negations —
//! the paper's `2^µ + µ − 1` operation count (Eq. 6), a factor `µ` cheaper
//! than the `2^µ · µ` brute-force construction.

use crate::simd::{self, ResolvedKernel};

/// Builds the lookup table for `x` into `out` using Algorithm 1 (dynamic
/// programming), scalar loops. `out.len()` must be `2^x.len()`.
///
/// This is the one-chunk case (`µ = x.len()`) of the width-1 tile builder
/// [`simd::dp_build_tile`], which runs the same recurrence at every kernel
/// level with identical values (elementwise adds, no reassociation;
/// negation and lane permutes move bits untouched).
///
/// # Panics
/// Panics if `x` is empty, longer than 16, or `out` has the wrong length.
pub fn build_lut_dp(x: &[f32], out: &mut [f32]) {
    let l = x.len();
    assert!((1..=16).contains(&l), "sub-vector length must be in 1..=16");
    assert_eq!(out.len(), 1usize << l, "output must have 2^L entries");
    simd::dp_build_tile(out, x, l, ResolvedKernel::scalar());
}

/// Brute-force table construction (`q[k] = ⟨row k of M_µ, x⟩`, one dot
/// product per entry, `2^µ · µ` operations) — the reference the DP builder
/// is tested against, and the `T_c,mm` cost model's operational
/// realisation.
///
/// # Panics
/// Panics if `x` is empty, longer than 16, or `out` has the wrong length.
pub fn build_lut_bruteforce(x: &[f32], out: &mut [f32]) {
    let l = x.len();
    assert!((1..=16).contains(&l), "sub-vector length must be in 1..=16");
    assert_eq!(out.len(), 1usize << l, "output must have 2^L entries");
    for (k, o) in out.iter_mut().enumerate() {
        *o = key_dot(k, x);
    }
}

/// `⟨row key of M_µ, x⟩` with `µ = x.len()`, summed in element order.
fn key_dot(key: usize, x: &[f32]) -> f32 {
    let l = x.len();
    let mut acc = 0.0f32;
    for (t, &v) in x.iter().enumerate() {
        acc += if (key >> (l - 1 - t)) & 1 == 1 { v } else { -v };
    }
    acc
}

/// Exact number of floating-point *additions/negations* Algorithm 1 spends
/// on one table of `2^L` entries — used by tests pinning Eq. 6 and by the
/// complexity model.
pub fn dp_op_count(l: usize) -> usize {
    // (L−1 adds for −Σx beyond the first term… counted as L−1) is folded in:
    // q[0] costs L−1 additions; lower half costs 2^{L−1}−1; mirror costs
    // 2^{L−1} negations.
    (l - 1) + ((1usize << (l - 1)) - 1) + (1usize << (l - 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use biq_matrix::MatrixRng;

    #[test]
    fn dp_matches_bruteforce_for_all_lengths() {
        let mut g = MatrixRng::seed_from(200);
        for l in 1..=10 {
            let x = g.gaussian_vec(l);
            let mut dp = vec![0.0f32; 1 << l];
            let mut bf = vec![0.0f32; 1 << l];
            build_lut_dp(&x, &mut dp);
            build_lut_bruteforce(&x, &mut bf);
            for (k, (a, b)) in dp.iter().zip(&bf).enumerate() {
                assert!((a - b).abs() < 1e-4, "L={l}, key={k}: dp {a} vs brute force {b}");
            }
        }
    }

    #[test]
    fn dp_is_exact_on_integers() {
        // Integer inputs: DP and brute force must agree bit-exactly.
        let mut g = MatrixRng::seed_from(201);
        for l in [1usize, 4, 8] {
            let x = g.small_int_col(l, 1, 8).into_vec();
            let mut dp = vec![0.0f32; 1 << l];
            let mut bf = vec![0.0f32; 1 << l];
            build_lut_dp(&x, &mut dp);
            build_lut_bruteforce(&x, &mut bf);
            assert_eq!(dp, bf);
        }
    }

    #[test]
    fn paper_figure_4b_worked_example() {
        // Verify a handful of entries symbolically for µ = 4.
        let x = [1.0f32, 10.0, 100.0, 1000.0];
        let mut q = vec![0.0f32; 16];
        build_lut_dp(&x, &mut q);
        assert_eq!(q[0], -1111.0); // −x0 −x1 −x2 −x3
        assert_eq!(q[1], -1.0 - 10.0 - 100.0 + 1000.0); // r1 = r0 + 2x3
        assert_eq!(q[2], -1.0 - 10.0 + 100.0 - 1000.0); // r2 = r0 + 2x2
        assert_eq!(q[6], -1.0 + 10.0 + 100.0 - 1000.0); // 0110
        assert_eq!(q[15], 1111.0); // all plus
        assert_eq!(q[8], -q[7]); // mirror row of Fig. 4(b)
    }

    #[test]
    fn mirror_symmetry_holds() {
        let mut g = MatrixRng::seed_from(202);
        for l in [2usize, 5, 8] {
            let x = g.gaussian_vec(l);
            let mut q = vec![0.0f32; 1 << l];
            build_lut_dp(&x, &mut q);
            for k in 0..(1usize << l) {
                let comp = ((1usize << l) - 1) - k;
                assert_eq!(q[k], -q[comp], "L={l}, key={k}");
            }
        }
    }

    #[test]
    fn length_one_table() {
        let mut q = vec![0.0f32; 2];
        build_lut_dp(&[3.5], &mut q);
        assert_eq!(q, vec![-3.5, 3.5]);
    }

    #[test]
    fn complement_key_negates_dot() {
        // Brute force, so the DP build's mirror half (`mirror_symmetry_holds`)
        // stands on a property of `M_µ` itself.
        let x = [1.0f32, -2.0, 3.0];
        let mut q = vec![0.0f32; 8];
        build_lut_bruteforce(&x, &mut q);
        assert_eq!(q[6], 1.0 - 2.0 - 3.0, "key 110 is (+1, +1, −1), MSB-first");
        for k in 0..8 {
            assert_eq!(q[k], -q[7 - k], "key {k}");
        }
    }

    #[test]
    fn dp_op_count_matches_eq6_asymptotics() {
        // Eq. 6 counts ≈ 2^µ + µ − 1 ops per table.
        for l in 1..=12 {
            assert_eq!(dp_op_count(l), (1 << l) + l - 2);
        }
    }

    #[test]
    fn dp_levels_bit_exact_against_scalar() {
        let mut g = MatrixRng::seed_from(205);
        for l in [1usize, 2, 5, 8, 11] {
            let x = g.gaussian_vec(l);
            let mut scalar = vec![0.0f32; 1 << l];
            build_lut_dp(&x, &mut scalar);
            for level in crate::simd::supported_levels() {
                let k = crate::simd::KernelRequest::Exact(level).resolve().unwrap();
                let mut got = vec![0.0f32; 1 << l];
                crate::simd::dp_build_tile(&mut got, &x, l, k);
                assert_eq!(scalar, got, "L={l} level={level}");
            }
        }
        // The width-1 tile builder, table by table at every level: bit for
        // bit the one-chunk build on Gaussian inputs, exactly the
        // brute-force products on small integers (where both are exact),
        // and nothing written past a ragged last chunk's `2^L` entries.
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        for mu in [1usize, 3, 8, 12] {
            // Four full chunks and a ragged fifth (µ = 1 has no ragged one).
            let n = 4 * mu + mu.div_ceil(2);
            let ints = g.small_int_col(n, 1, 8).into_vec();
            for (x, exact_products) in [(g.gaussian_vec(n), false), (ints, true)] {
                for level in crate::simd::supported_levels() {
                    let k = crate::simd::KernelRequest::Exact(level).resolve().unwrap();
                    let mut tile = vec![f32::NAN; 5 << mu];
                    crate::simd::dp_build_tile(&mut tile, &x, mu, k);
                    for (c, sub) in x.chunks(mu).enumerate() {
                        let (got, unused) = tile[c << mu..][..1 << mu].split_at(1 << sub.len());
                        let what = format!("µ={mu} chunk={c} level={level}");
                        let mut want = vec![0.0f32; got.len()];
                        build_lut_dp(sub, &mut want);
                        assert_eq!(bits(got), bits(&want), "vs one-chunk build, {what}");
                        if exact_products {
                            build_lut_bruteforce(sub, &mut want);
                            assert_eq!(got, &want[..], "vs brute force, {what}");
                        }
                        assert!(unused.iter().all(|v| v.is_nan()), "wrote past the table, {what}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "2^L entries")]
    fn wrong_output_length_rejected() {
        let mut q = vec![0.0f32; 7];
        build_lut_dp(&[1.0, 2.0, 3.0], &mut q);
    }
}
