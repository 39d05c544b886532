//! Softmax cross-entropy loss and classification accuracy.

use crate::matrix::Matrix;

/// Computes mean softmax cross-entropy loss and the gradient w.r.t. the
/// logits.
///
/// `logits` is `n x classes`; `labels[i] < classes`.
///
/// # Panics
///
/// Panics on shape mismatch or out-of-range labels.
pub fn softmax_cross_entropy(logits: &Matrix, labels: &[u32]) -> (f32, Matrix) {
    assert_eq!(logits.rows(), labels.len(), "label count mismatch");
    let n = logits.rows();
    let c = logits.cols();
    assert!(n > 0, "empty batch");
    let mut grad = Matrix::zeros(n, c);
    let mut loss = 0.0f64;
    for (i, &label_u32) in labels.iter().enumerate() {
        let row = logits.row(i);
        let label = label_u32 as usize;
        assert!(label < c, "label {label} out of range for {c} classes");
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut denom = 0.0f32;
        for &v in row {
            denom += (v - max).exp();
        }
        let log_denom = denom.ln();
        loss += f64::from(log_denom - (row[label] - max));
        let g = grad.row_mut(i);
        for (j, &v) in row.iter().enumerate() {
            let p = (v - max).exp() / denom;
            g[j] = (p - if j == label { 1.0 } else { 0.0 }) / n as f32;
        }
    }
    ((loss / n as f64) as f32, grad)
}

/// Number of rows whose argmax equals the label — an integer, so counts
/// from separately evaluated chunks sum exactly in any order.
pub fn correct_predictions(logits: &Matrix, labels: &[u32]) -> usize {
    assert_eq!(logits.rows(), labels.len(), "label count mismatch");
    let mut correct = 0usize;
    for (i, &label) in labels.iter().enumerate() {
        let row = logits.row(i);
        let argmax = row
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite logits"))
            .map(|(j, _)| j as u32)
            .expect("non-empty row");
        if argmax == label {
            correct += 1;
        }
    }
    correct
}

/// Fraction of rows whose argmax equals the label.
pub fn accuracy(logits: &Matrix, labels: &[u32]) -> f64 {
    let correct = correct_predictions(logits, labels);
    if labels.is_empty() {
        return 0.0;
    }
    correct as f64 / labels.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_logits_have_low_loss() {
        let logits = Matrix::from_vec(2, 3, vec![10., 0., 0., 0., 10., 0.]);
        let (loss, _) = softmax_cross_entropy(&logits, &[0, 1]);
        assert!(loss < 0.01, "loss {loss}");
    }

    #[test]
    fn uniform_logits_loss_is_log_c() {
        let logits = Matrix::zeros(4, 8);
        let (loss, _) = softmax_cross_entropy(&logits, &[0, 1, 2, 3]);
        assert!((loss - (8.0f32).ln()).abs() < 1e-4);
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let logits = Matrix::from_vec(2, 3, vec![0.5, -0.3, 0.1, 0.2, 0.9, -0.7]);
        let labels = [2u32, 0];
        let (_, grad) = softmax_cross_entropy(&logits, &labels);
        let eps = 1e-3f32;
        for r in 0..2 {
            for c in 0..3 {
                let mut lp = logits.clone();
                lp.set(r, c, logits.get(r, c) + eps);
                let mut lm = logits.clone();
                lm.set(r, c, logits.get(r, c) - eps);
                let (loss_p, _) = softmax_cross_entropy(&lp, &labels);
                let (loss_m, _) = softmax_cross_entropy(&lm, &labels);
                let numeric = (loss_p - loss_m) / (2.0 * eps);
                assert!(
                    (grad.get(r, c) - numeric).abs() < 1e-3,
                    "({r},{c}): {} vs {numeric}",
                    grad.get(r, c)
                );
            }
        }
    }

    #[test]
    fn gradient_is_stable_for_large_logits() {
        let logits = Matrix::from_vec(1, 2, vec![1000.0, -1000.0]);
        let (loss, grad) = softmax_cross_entropy(&logits, &[0]);
        assert!(loss.is_finite());
        assert!(grad.data().iter().all(|g| g.is_finite()));
    }

    #[test]
    fn accuracy_counts_argmax() {
        let logits = Matrix::from_vec(3, 2, vec![1., 0., 0., 1., 1., 0.]);
        assert!((accuracy(&logits, &[0, 1, 1]) - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(correct_predictions(&logits, &[0, 1, 1]), 2);
        assert_eq!(accuracy(&Matrix::zeros(0, 2), &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_label() {
        let _ = softmax_cross_entropy(&Matrix::zeros(1, 2), &[5]);
    }
}
