//! Property tests for the quantizers and packers.

use biq_matrix::{Matrix, MatrixRng};
use biq_quant::alternating::alternating_quantize_matrix_rowwise;
use biq_quant::binary_coding::quantization_sse;
use biq_quant::greedy_quantize_matrix_rowwise;
use biq_quant::packing::{PackedRowsU32, PackedRowsU64};
use biq_quant::uniform::{AsymmetricQuantizer, SymmetricQuantizer};
use biq_quant::unpack::unpack_row_u32;
use proptest::prelude::*;

fn arb_weights(max_r: usize, max_c: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_r, 2..=max_c).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-10.0f32..10.0, r * c)
            .prop_map(move |v| Matrix::from_vec(r, c, v))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Greedy error is non-increasing in bits; alternating never loses to
    /// greedy at the same bit count.
    #[test]
    fn quantizer_quality_ordering(w in arb_weights(6, 48), bits in 1usize..=4) {
        let g = greedy_quantize_matrix_rowwise(&w, bits);
        let a = alternating_quantize_matrix_rowwise(&w, bits, 6);
        let eg = quantization_sse(&w, &g);
        let ea = quantization_sse(&w, &a);
        prop_assert!(ea <= eg + 1e-4 * (1.0 + eg), "alt {} vs greedy {}", ea, eg);
        if bits > 1 {
            let g_fewer = greedy_quantize_matrix_rowwise(&w, bits - 1);
            prop_assert!(eg <= quantization_sse(&w, &g_fewer) + 1e-6);
        }
    }

    /// Dequantize(quantize(w)) has per-element error ≤ Σ remaining scales
    /// is hard to state tightly, but the 1-bit case has a closed form:
    /// error per row element ≤ max|w_row| + mean|w_row|.
    #[test]
    fn one_bit_error_bound(w in arb_weights(4, 32)) {
        let q = greedy_quantize_matrix_rowwise(&w, 1);
        let deq = q.dequantize();
        for i in 0..w.rows() {
            let alpha = q.planes()[0].scales[i];
            for (a, b) in w.row(i).iter().zip(deq.row(i)) {
                // |w − α·sign(w)| ≤ max(|w| − α, α) ≤ |w| + α
                prop_assert!((a - b).abs() <= a.abs() + alpha + 1e-5);
            }
        }
    }

    /// Symmetric uniform fake-quantization error ≤ half a step for
    /// in-range values.
    #[test]
    fn uniform_half_step_bound(
        data in proptest::collection::vec(-100.0f32..100.0, 1..64),
        bits in 2u32..=10,
    ) {
        let q = SymmetricQuantizer::fit(&data, bits);
        for &v in &data {
            prop_assert!((q.fake_quantize(v) - v).abs() <= q.scale / 2.0 + 1e-4);
        }
    }

    /// Asymmetric quantizer maps all fitted data within one step.
    #[test]
    fn asymmetric_bound(
        data in proptest::collection::vec(-50.0f32..150.0, 2..64),
        bits in 2u32..=10,
    ) {
        let q = AsymmetricQuantizer::fit(&data, bits);
        for &v in &data {
            prop_assert!((q.fake_quantize(v) - v).abs() <= q.scale + 1e-4);
        }
    }

    /// u32 packing + Algorithm 3 unpack is the identity for every width.
    #[test]
    fn pack_unpack_identity(
        (rows, cols) in (1usize..=6, 1usize..=100),
        seed in any::<u64>(),
    ) {
        let s = MatrixRng::seed_from(seed).signs(rows, cols);
        let p32 = PackedRowsU32::pack(&s);
        let mut buf = vec![0.0f32; cols];
        for i in 0..rows {
            unpack_row_u32(p32.row(i), &mut buf);
            for (j, &v) in buf.iter().enumerate() {
                prop_assert_eq!(v, s.get(i, j) as f32);
            }
        }
        prop_assert_eq!(PackedRowsU64::pack(&s).unpack(), s);
    }
}
