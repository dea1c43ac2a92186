//! Closed-form ridge / ordinary-least-squares regression.
//!
//! §3.2 of the paper: every sub-module of the DC time-series model is a
//! linear regression solved analytically; the ACU, DCS, and cooling-energy
//! sub-modules use L2 regularization (`α = 1`) because they consume
//! *predicted* inputs at inference time, while the ASP sub-module and the
//! Lazic et al. baseline use OLS (`α = 0`).
//!
//! Features are standardized internally (zero mean, unit variance) before
//! solving so a single α is meaningful across heterogeneous inputs
//! (temperatures in °C, powers in kW); the paper obtains the same effect
//! through its global min-max preprocessing.

// analysis:allow-file(panic-free-control-path): dense numeric kernel;
// every index is loop-bounded by lengths validated at the call
// boundary, and debug_asserts guard the shape contracts.
use crate::{cholesky::Cholesky, matrix::Matrix, LinalgError, Result};

/// A fitted ridge regression model `y ≈ w·x + b`.
#[derive(Debug, Clone)]
pub struct Ridge {
    alpha: f64,
    /// Weights folded back into the original feature space
    /// (`weights[i] / feat_std[i]`), cached at construction so `predict`
    /// is a single dot product over the raw features.
    folded_weights: Vec<f64>,
    /// Intercept in the original feature space, cached alongside
    /// `folded_weights`.
    folded_bias: f64,
}

impl Ridge {
    /// Assembles a fitted model from its parts. Used by callers that solve
    /// the normal equations themselves (e.g. the forecaster's shared-gram
    /// multi-target path) but want the standard predict/accessor API.
    ///
    /// `weights` are in the *standardized* feature space described by
    /// `feat_mean`/`feat_std`; `bias` is the target mean. The parts are
    /// borrowed: only the folded weights are stored, so models that share
    /// one standardization need not copy it.
    pub fn from_parts(
        weights: &[f64],
        bias: f64,
        alpha: f64,
        feat_mean: &[f64],
        feat_std: &[f64],
    ) -> Self {
        assert_eq!(weights.len(), feat_mean.len());
        assert_eq!(weights.len(), feat_std.len());
        let folded_weights: Vec<f64> = weights.iter().zip(feat_std).map(|(w, s)| w / s).collect();
        let mut folded_bias = bias;
        for ((w, m), s) in weights.iter().zip(feat_mean).zip(feat_std) {
            folded_bias -= w * m / s;
        }
        Ridge {
            alpha,
            folded_weights,
            folded_bias,
        }
    }

    /// Regularization strength the model was fitted with.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The learned weights, mapped back to the *original* (unstandardized)
    /// feature space.
    pub fn weights(&self) -> Vec<f64> {
        self.folded_weights.clone()
    }

    /// Borrow of the original-space weights — the coefficients `predict`
    /// actually multiplies with. Callers that hoist window-invariant
    /// partial dot products (the forecaster's prepared hot path) read
    /// these directly instead of cloning.
    pub fn folded_weights(&self) -> &[f64] {
        &self.folded_weights
    }

    /// The learned intercept in the original feature space.
    pub fn bias(&self) -> f64 {
        self.folded_bias
    }

    /// Number of input features.
    pub fn n_features(&self) -> usize {
        self.folded_weights.len()
    }

    /// Predicts a single example: one dot product over the raw features
    /// with the cached original-space weights (the standardization is
    /// folded in at construction, halving the per-feature arithmetic).
    pub fn predict(&self, x: &[f64]) -> f64 {
        debug_assert_eq!(x.len(), self.folded_weights.len());
        let mut acc = self.folded_bias;
        for (w, xi) in self.folded_weights.iter().zip(x) {
            acc += w * xi;
        }
        acc
    }

    /// Predicts a batch of examples (rows of `x`).
    pub fn predict_batch(&self, x: &Matrix) -> Result<Vec<f64>> {
        if x.cols() != self.folded_weights.len() {
            return Err(LinalgError::DimensionMismatch {
                op: "ridge predict",
                lhs: (1, self.folded_weights.len()),
                rhs: x.shape(),
            });
        }
        Ok((0..x.rows()).map(|i| self.predict(x.row(i))).collect())
    }
}

/// Fits ridge regression by solving the normal equations
/// `(XᵀX + αI) w = Xᵀy` with a (jittered) Cholesky factorization.
///
/// `alpha = 0` yields ordinary least squares. The intercept is never
/// regularized (handled by centering the targets).
pub fn fit_ridge(x: &Matrix, y: &[f64], alpha: f64) -> Result<Ridge> {
    let n = x.rows();
    let d = x.cols();
    if n == 0 || d == 0 {
        return Err(LinalgError::Empty("ridge design matrix"));
    }
    if y.len() != n {
        return Err(LinalgError::DimensionMismatch {
            op: "ridge fit",
            lhs: x.shape(),
            rhs: (y.len(), 1),
        });
    }
    if !alpha.is_finite() || alpha < 0.0 {
        return Err(LinalgError::Empty("ridge alpha must be finite and >= 0"));
    }

    // Standardize features; center targets.
    let mut feat_mean = vec![0.0; d];
    let mut feat_std = vec![0.0; d];
    for j in 0..d {
        let mut m = 0.0;
        for i in 0..n {
            m += x[(i, j)];
        }
        m /= n as f64;
        let mut v = 0.0;
        for i in 0..n {
            let c = x[(i, j)] - m;
            v += c * c;
        }
        v /= n as f64;
        feat_mean[j] = m;
        feat_std[j] = if v.sqrt() > 1e-12 { v.sqrt() } else { 1.0 };
    }
    let y_mean = y.iter().sum::<f64>() / n as f64;

    let mut xs = Matrix::zeros(n, d);
    for i in 0..n {
        for j in 0..d {
            xs[(i, j)] = (x[(i, j)] - feat_mean[j]) / feat_std[j];
        }
    }

    let mut gram = xs.gram();
    gram.add_diagonal(alpha);
    // Xᵀ (y - ȳ)
    let mut xty = vec![0.0; d];
    for (i, &yv) in y.iter().enumerate().take(n) {
        let yi = yv - y_mean;
        let row = xs.row(i);
        for j in 0..d {
            xty[j] += row[j] * yi;
        }
    }

    let chol = Cholesky::decompose_jittered(&gram, 1e-10, 14)?;
    let weights = chol.solve(&xty)?;

    Ok(Ridge::from_parts(
        &weights, y_mean, alpha, &feat_mean, &feat_std,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn design(rows: &[&[f64]]) -> Matrix {
        Matrix::from_rows(&rows.iter().map(|r| r.to_vec()).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn ols_recovers_exact_linear_function() {
        // y = 2 x0 - 3 x1 + 5 on a full-rank design.
        let x = design(&[
            &[0.0, 0.0],
            &[1.0, 0.0],
            &[0.0, 1.0],
            &[1.0, 1.0],
            &[2.0, 1.0],
        ]);
        let y: Vec<f64> = (0..x.rows())
            .map(|i| 2.0 * x[(i, 0)] - 3.0 * x[(i, 1)] + 5.0)
            .collect();
        let model = fit_ridge(&x, &y, 0.0).unwrap();
        let w = model.weights();
        assert!((w[0] - 2.0).abs() < 1e-8, "w0={}", w[0]);
        assert!((w[1] + 3.0).abs() < 1e-8, "w1={}", w[1]);
        assert!((model.bias() - 5.0).abs() < 1e-8);
        for (i, &yi) in y.iter().enumerate() {
            assert!((model.predict(x.row(i)) - yi).abs() < 1e-8);
        }
    }

    #[test]
    fn ridge_shrinks_weights_towards_zero() {
        let x = design(&[&[1.0], &[2.0], &[3.0], &[4.0]]);
        let y = vec![2.0, 4.0, 6.0, 8.0];
        let ols = fit_ridge(&x, &y, 0.0).unwrap();
        let strong = fit_ridge(&x, &y, 100.0).unwrap();
        assert!(strong.weights()[0].abs() < ols.weights()[0].abs());
        // Both models still pass through the mean point.
        let mean_pred = strong.predict(&[2.5]);
        assert!((mean_pred - 5.0).abs() < 1e-9);
    }

    #[test]
    fn collinear_features_handled_by_ridge() {
        // x1 = 2 * x0 exactly: OLS normal equations are singular, but the
        // jittered Cholesky + ridge must both survive.
        let x = design(&[&[1.0, 2.0], &[2.0, 4.0], &[3.0, 6.0], &[4.0, 8.0]]);
        let y = vec![1.0, 2.0, 3.0, 4.0];
        let model = fit_ridge(&x, &y, 1.0).unwrap();
        let preds = model.predict_batch(&x).unwrap();
        for (p, t) in preds.iter().zip(&y) {
            assert!((p - t).abs() < 0.2, "p={p} t={t}");
        }
    }

    #[test]
    fn constant_feature_does_not_blow_up() {
        let x = design(&[&[1.0, 7.0], &[2.0, 7.0], &[3.0, 7.0]]);
        let y = vec![1.0, 2.0, 3.0];
        let model = fit_ridge(&x, &y, 0.5).unwrap();
        assert!(model.predict(&[2.0, 7.0]).is_finite());
    }

    #[test]
    fn mismatched_target_length_errors() {
        let x = design(&[&[1.0], &[2.0]]);
        assert!(fit_ridge(&x, &[1.0], 0.0).is_err());
    }

    #[test]
    fn negative_alpha_rejected() {
        let x = design(&[&[1.0], &[2.0]]);
        assert!(fit_ridge(&x, &[1.0, 2.0], -1.0).is_err());
    }

    #[test]
    fn predict_batch_wrong_width_errors() {
        let x = design(&[&[1.0], &[2.0]]);
        let model = fit_ridge(&x, &[1.0, 2.0], 0.0).unwrap();
        let bad = design(&[&[1.0, 2.0]]);
        assert!(model.predict_batch(&bad).is_err());
    }

    #[test]
    fn weights_accessor_matches_predictions() {
        let x = design(&[&[0.0, 1.0], &[1.0, 3.0], &[2.0, -1.0], &[3.0, 0.5]]);
        let y = vec![1.0, 0.0, 2.5, -1.0];
        let model = fit_ridge(&x, &y, 0.3).unwrap();
        let w = model.weights();
        let b = model.bias();
        for i in 0..x.rows() {
            let manual = b + w[0] * x[(i, 0)] + w[1] * x[(i, 1)];
            assert!((manual - model.predict(x.row(i))).abs() < 1e-9);
        }
    }
}
