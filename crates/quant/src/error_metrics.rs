//! Fidelity metrics for quantized tensors, used by the Table I proxy
//! experiment and by tests asserting quantizer quality.

use biq_matrix::Matrix;

/// Mean squared error between two equal-length slices.
///
/// # Panics
/// Panics on length mismatch or empty input.
pub fn mse(a: &[f32], b: &[f32]) -> f64 {
    assert_eq!(a.len(), b.len(), "length mismatch");
    assert!(!a.is_empty(), "empty input");
    a.iter().zip(b).map(|(&x, &y)| ((x - y) as f64).powi(2)).sum::<f64>() / a.len() as f64
}

/// Signal-to-quantization-noise ratio in dB:
/// `10·log10(‖signal‖² / ‖signal − approx‖²)`. Returns `f64::INFINITY` for an
/// exact match.
pub fn sqnr_db(signal: &[f32], approx: &[f32]) -> f64 {
    assert_eq!(signal.len(), approx.len(), "length mismatch");
    let sig: f64 = signal.iter().map(|&v| (v as f64).powi(2)).sum();
    let noise: f64 = signal.iter().zip(approx).map(|(&x, &y)| ((x - y) as f64).powi(2)).sum();
    if noise == 0.0 {
        f64::INFINITY
    } else {
        10.0 * (sig / noise).log10()
    }
}

/// Cosine similarity of two vectors (1.0 = identical direction).
pub fn cosine_similarity(a: &[f32], b: &[f32]) -> f64 {
    assert_eq!(a.len(), b.len(), "length mismatch");
    let dot: f64 = a.iter().zip(b).map(|(&x, &y)| x as f64 * y as f64).sum();
    let na: f64 = a.iter().map(|&v| (v as f64).powi(2)).sum::<f64>().sqrt();
    let nb: f64 = b.iter().map(|&v| (v as f64).powi(2)).sum::<f64>().sqrt();
    if na == 0.0 || nb == 0.0 {
        if na == nb {
            1.0
        } else {
            0.0
        }
    } else {
        dot / (na * nb)
    }
}

/// Relative L2 error `‖a − b‖ / ‖b‖` (with `b` the reference).
pub fn relative_l2(a: &[f32], b: &[f32]) -> f64 {
    assert_eq!(a.len(), b.len(), "length mismatch");
    let diff: f64 = a.iter().zip(b).map(|(&x, &y)| ((x - y) as f64).powi(2)).sum::<f64>().sqrt();
    let norm: f64 = b.iter().map(|&v| (v as f64).powi(2)).sum::<f64>().sqrt();
    if norm == 0.0 {
        if diff == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        diff / norm
    }
}

/// SQNR (dB) between a reference matrix and its approximation.
pub fn matrix_sqnr_db(signal: &Matrix, approx: &Matrix) -> f64 {
    assert_eq!(signal.shape(), approx.shape(), "shape mismatch");
    sqnr_db(signal.as_slice(), approx.as_slice())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mse_of_identical_is_zero() {
        assert_eq!(mse(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
    }

    #[test]
    fn mse_known_value() {
        // diffs = [1, -1] -> mse = 1
        assert_eq!(mse(&[1.0, 1.0], &[0.0, 2.0]), 1.0);
    }

    #[test]
    fn sqnr_infinite_for_exact_match() {
        assert_eq!(sqnr_db(&[1.0, -1.0], &[1.0, -1.0]), f64::INFINITY);
    }

    #[test]
    fn sqnr_known_value() {
        // signal power 4, noise power 1 -> 10log10(4) ≈ 6.02 dB
        let db = sqnr_db(&[2.0], &[1.0]);
        assert!((db - 10.0 * 4.0f64.log10()).abs() < 1e-9);
    }

    #[test]
    fn cosine_similarity_cases() {
        assert!((cosine_similarity(&[1.0, 0.0], &[2.0, 0.0]) - 1.0).abs() < 1e-12);
        assert!(cosine_similarity(&[1.0, 0.0], &[0.0, 1.0]).abs() < 1e-12);
        assert!((cosine_similarity(&[1.0], &[-1.0]) + 1.0).abs() < 1e-12);
        assert_eq!(cosine_similarity(&[0.0], &[0.0]), 1.0);
        assert_eq!(cosine_similarity(&[0.0], &[1.0]), 0.0);
    }

    #[test]
    fn relative_l2_cases() {
        assert_eq!(relative_l2(&[1.0], &[1.0]), 0.0);
        assert!((relative_l2(&[1.1], &[1.0]) - 0.1).abs() < 1e-6);
        assert_eq!(relative_l2(&[0.0], &[0.0]), 0.0);
        assert_eq!(relative_l2(&[1.0], &[0.0]), f64::INFINITY);
    }

    #[test]
    fn matrix_metrics_match_slice_metrics() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Matrix::from_vec(2, 2, vec![1.0, 2.5, 3.0, 3.5]);
        assert_eq!(matrix_sqnr_db(&a, &b), sqnr_db(a.as_slice(), b.as_slice()));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mse_length_mismatch_panics() {
        let _ = mse(&[1.0], &[1.0, 2.0]);
    }
}
