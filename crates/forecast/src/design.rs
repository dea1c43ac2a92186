//! Shared-gram multi-target ridge solver.
//!
//! The direct strategy trains `(1 + N_a + N_d) · L` independent ridge
//! regressions (§3.2). Naively that means re-computing a Gram matrix per
//! regression, but the designs share almost all of their columns: for a
//! given horizon step, every sensor's model sees the *same* lag block and
//! the same few exogenous columns; and across horizon steps only the
//! exogenous columns change. [`SharedDesign`] exploits this by computing
//! the expensive lag-block Gram once and assembling each step's full
//! (standardized, centered) normal equations from cached pieces — turning
//! an `O(L · n · d²)` training pass into `O(n · d²)` plus cheap per-step
//! cross terms.

// analysis:allow-file(panic-free-control-path): dense numeric kernel;
// every index is loop-bounded by lengths validated at the call
// boundary, and debug_asserts guard the shape contracts.
use crate::ForecastError;
use tesla_linalg::{Cholesky, Matrix, Ridge};

/// Computes `Xᵀ · Y` without materializing `Xᵀ` (cache-friendly row-wise
/// accumulation).
pub fn xt_y(x: &Matrix, y: &Matrix) -> Matrix {
    debug_assert_eq!(x.rows(), y.rows());
    let d = x.cols();
    let m = y.cols();
    let mut out = Matrix::zeros(d, m);
    for r in 0..x.rows() {
        let xr = x.row(r);
        let yr = y.row(r);
        for (u, &xu) in xr.iter().enumerate() {
            if xu == 0.0 {
                continue;
            }
            let orow = out.row_mut(u);
            for (o, &yv) in orow.iter_mut().zip(yr) {
                *o += xu * yv;
            }
        }
    }
    out
}

/// Writes into `out` each model's bias plus the dot product of its
/// leading weights with `lag`, accumulated in [`Ridge::predict`]'s order:
/// the bias, then each lag term in turn. The models' sums are
/// independent, so four run side by side; each keeps its own order, so
/// the results are bit-identical to computing the models one at a time.
/// This is the window-dependent part of the ACU and DCS prepares.
pub(crate) fn lag_bases(models: &[Ridge], lag: &[f64], out: &mut [f64]) {
    debug_assert_eq!(models.len(), out.len());
    let mut quads = models.chunks_exact(4);
    let mut outs = out.chunks_exact_mut(4);
    for (q, o) in (&mut quads).zip(&mut outs) {
        o.copy_from_slice(&lag_base4([&q[0], &q[1], &q[2], &q[3]], lag));
    }
    for (m, o) in quads.remainder().iter().zip(outs.into_remainder()) {
        *o = lag_base(m, lag);
    }
}

/// Four models' sums side by side, each in [`Ridge::predict`]'s order.
#[inline]
fn lag_base4(q: [&Ridge; 4], lag: &[f64]) -> [f64; 4] {
    let k = lag.len();
    let w = |i: usize| &q[i].folded_weights()[..k];
    let (mut a0, mut a1, mut a2, mut a3) = (q[0].bias(), q[1].bias(), q[2].bias(), q[3].bias());
    for ((((&x, &w0), &w1), &w2), &w3) in lag.iter().zip(w(0)).zip(w(1)).zip(w(2)).zip(w(3)) {
        a0 += w0 * x;
        a1 += w1 * x;
        a2 += w2 * x;
        a3 += w3 * x;
    }
    [a0, a1, a2, a3]
}

/// One model's sum in [`Ridge::predict`]'s order.
#[inline]
fn lag_base(m: &Ridge, lag: &[f64]) -> f64 {
    let mut acc = m.bias();
    for (&wi, &xi) in m.folded_weights()[..lag.len()].iter().zip(lag) {
        acc += wi * xi;
    }
    acc
}

/// A design matrix whose lag block is shared across many regressions.
#[derive(Debug, Clone)]
pub struct SharedDesign {
    lag: Matrix,
    /// Raw (uncentered) Gram of the lag block, computed once.
    g_lag_raw: Matrix,
    /// Per-column sums of the lag block.
    lag_sums: Vec<f64>,
}

impl SharedDesign {
    /// Builds the shared design from the lag-feature matrix (`n` rows ×
    /// `d_lag` columns). This is where the dominant Gram cost is paid.
    pub fn new(lag: Matrix) -> Self {
        let g_lag_raw = lag.gram();
        let lag_sums = (0..lag.cols())
            .map(|j| (0..lag.rows()).map(|i| lag[(i, j)]).sum())
            .collect();
        SharedDesign {
            lag,
            g_lag_raw,
            lag_sums,
        }
    }

    /// Number of training rows.
    pub fn n(&self) -> usize {
        self.lag.rows()
    }

    /// Width of the shared lag block.
    pub fn d_lag(&self) -> usize {
        self.lag.cols()
    }

    /// Fits ridge models for every target, optionally appending per-call
    /// exogenous columns (`exo`: `n × d_exo`) after the lag block.
    ///
    /// Feature layout of the returned models: `[lag block..., exo...]`.
    /// Features are standardized internally and targets centered, exactly
    /// like [`tesla_linalg::fit_ridge`]; the intercept is unregularized.
    pub fn fit_multi(
        &self,
        exo: Option<&Matrix>,
        targets: &[Vec<f64>],
        alpha: f64,
    ) -> Result<Vec<Ridge>, ForecastError> {
        let n = self.n();
        if n == 0 {
            return Err(ForecastError::Solve("empty design".into()));
        }
        if targets.is_empty() {
            return Ok(Vec::new());
        }
        for (i, t) in targets.iter().enumerate() {
            if t.len() != n {
                return Err(ForecastError::Solve(format!(
                    "target {i} has {} rows, design has {n}",
                    t.len()
                )));
            }
        }
        let d_lag = self.d_lag();
        let d_exo = exo.map_or(0, |e| e.cols());
        if let Some(e) = exo {
            if e.rows() != n {
                return Err(ForecastError::Solve(format!(
                    "exo has {} rows, design has {n}",
                    e.rows()
                )));
            }
        }
        let d = d_lag + d_exo;
        let nf = n as f64;

        // Column means over the combined design.
        let mut means = Vec::with_capacity(d);
        for s in &self.lag_sums {
            means.push(s / nf);
        }
        if let Some(e) = exo {
            for j in 0..d_exo {
                means.push((0..n).map(|i| e[(i, j)]).sum::<f64>() / nf);
            }
        }

        // Raw Gram of the combined design, assembled from blocks.
        let mut g_raw = Matrix::zeros(d, d);
        for u in 0..d_lag {
            for v in 0..d_lag {
                g_raw[(u, v)] = self.g_lag_raw[(u, v)];
            }
        }
        if let Some(e) = exo {
            let cross = xt_y(&self.lag, e); // d_lag × d_exo
            for u in 0..d_lag {
                for v in 0..d_exo {
                    g_raw[(u, d_lag + v)] = cross[(u, v)];
                    g_raw[(d_lag + v, u)] = cross[(u, v)];
                }
            }
            let g_ee = e.gram();
            for u in 0..d_exo {
                for v in 0..d_exo {
                    g_raw[(d_lag + u, d_lag + v)] = g_ee[(u, v)];
                }
            }
        }

        // Standard deviations from the raw Gram diagonal.
        let mut stds = Vec::with_capacity(d);
        for u in 0..d {
            let var = (g_raw[(u, u)] / nf - means[u] * means[u]).max(0.0);
            let s = var.sqrt();
            stds.push(if s > 1e-12 { s } else { 1.0 });
        }

        // Centered, standardized Gram + ridge diagonal.
        let mut g = Matrix::zeros(d, d);
        for u in 0..d {
            for v in 0..d {
                g[(u, v)] = (g_raw[(u, v)] - nf * means[u] * means[v]) / (stds[u] * stds[v]);
            }
        }
        g.add_diagonal(alpha.max(0.0));
        let chol = Cholesky::decompose_jittered(&g, 1e-8, 14)
            .map_err(|e| ForecastError::Solve(e.to_string()))?;

        // Xᵀ·Y for all targets at once.
        let m = targets.len();
        let mut y_mat = Matrix::zeros(n, m);
        let mut y_means = vec![0.0; m];
        for (t, col) in targets.iter().enumerate() {
            let mut s = 0.0;
            for (i, &v) in col.iter().enumerate() {
                y_mat[(i, t)] = v;
                s += v;
            }
            y_means[t] = s / nf;
        }
        let xty_lag = xt_y(&self.lag, &y_mat); // d_lag × m
        let xty_exo = exo.map(|e| xt_y(e, &y_mat)); // d_exo × m

        let mut models = Vec::with_capacity(m);
        for t in 0..m {
            let mut rhs = vec![0.0; d];
            for u in 0..d_lag {
                rhs[u] = (xty_lag[(u, t)] - nf * means[u] * y_means[t]) / stds[u];
            }
            if let Some(xe) = &xty_exo {
                for v in 0..d_exo {
                    let u = d_lag + v;
                    rhs[u] = (xe[(v, t)] - nf * means[u] * y_means[t]) / stds[u];
                }
            }
            let w = chol
                .solve(&rhs)
                .map_err(|e| ForecastError::Solve(e.to_string()))?;
            models.push(Ridge::from_parts(
                w,
                y_means[t],
                alpha,
                means.clone(),
                stds.clone(),
            ));
        }
        Ok(models)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tesla_linalg::fit_ridge;

    fn toy_design() -> (Matrix, Matrix, Vec<Vec<f64>>) {
        // 12 rows, 3 lag cols, 2 exo cols, 2 targets with known structure.
        let n = 12;
        let mut lag = Matrix::zeros(n, 3);
        let mut exo = Matrix::zeros(n, 2);
        let mut y0 = Vec::new();
        let mut y1 = Vec::new();
        for i in 0..n {
            let f = i as f64;
            lag[(i, 0)] = f;
            lag[(i, 1)] = (f * 0.7).sin() * 3.0;
            lag[(i, 2)] = (f * 1.3).cos() * 2.0;
            exo[(i, 0)] = f * 0.5 - 2.0;
            exo[(i, 1)] = ((i * 7) % 5) as f64;
            y0.push(2.0 * lag[(i, 0)] - lag[(i, 1)] + 0.5 * exo[(i, 0)] + 1.0);
            y1.push(-lag[(i, 2)] + 3.0 * exo[(i, 1)] - 2.0);
        }
        (lag, exo, vec![y0, y1])
    }

    #[test]
    fn matches_direct_fit_ridge() {
        let (lag, exo, targets) = toy_design();
        let design = SharedDesign::new(lag.clone());
        let models = design.fit_multi(Some(&exo), &targets, 0.5).unwrap();

        // Reference: assemble the full matrix and use fit_ridge directly.
        let n = lag.rows();
        let mut full = Matrix::zeros(n, 5);
        for i in 0..n {
            for j in 0..3 {
                full[(i, j)] = lag[(i, j)];
            }
            for j in 0..2 {
                full[(i, 3 + j)] = exo[(i, j)];
            }
        }
        for (t, target) in targets.iter().enumerate() {
            let reference = fit_ridge(&full, target, 0.5).unwrap();
            for i in 0..n {
                let a = models[t].predict(full.row(i));
                let b = reference.predict(full.row(i));
                assert!((a - b).abs() < 1e-8, "target {t} row {i}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn exact_recovery_with_no_regularization() {
        let (lag, exo, targets) = toy_design();
        let design = SharedDesign::new(lag.clone());
        let models = design.fit_multi(Some(&exo), &targets, 0.0).unwrap();
        let n = lag.rows();
        for (t, target) in targets.iter().enumerate() {
            for (i, &truth) in target.iter().enumerate().take(n) {
                let mut x = lag.row(i).to_vec();
                x.extend_from_slice(exo.row(i));
                assert!(
                    (models[t].predict(&x) - truth).abs() < 1e-6,
                    "target {t} row {i}"
                );
            }
        }
    }

    #[test]
    fn works_without_exo_block() {
        let (lag, _, _) = toy_design();
        let y: Vec<f64> = (0..lag.rows()).map(|i| lag[(i, 0)] * 3.0 + 1.0).collect();
        let design = SharedDesign::new(lag.clone());
        let models = design
            .fit_multi(None, std::slice::from_ref(&y), 0.0)
            .unwrap();
        for (i, &yi) in y.iter().enumerate() {
            assert!((models[0].predict(lag.row(i)) - yi).abs() < 1e-7);
        }
    }

    #[test]
    fn rejects_mismatched_target_length() {
        let (lag, exo, _) = toy_design();
        let design = SharedDesign::new(lag);
        let bad = vec![vec![1.0, 2.0]];
        assert!(design.fit_multi(Some(&exo), &bad, 1.0).is_err());
    }

    #[test]
    fn empty_targets_return_no_models() {
        let (lag, _, _) = toy_design();
        let design = SharedDesign::new(lag);
        let models = design.fit_multi(None, &[], 1.0).unwrap();
        assert!(models.is_empty());
    }

    #[test]
    fn xt_y_matches_matmul() {
        let (lag, exo, _) = toy_design();
        let direct = xt_y(&lag, &exo);
        let reference = lag.transpose().matmul(&exo).unwrap();
        assert_eq!(direct.shape(), reference.shape());
        for u in 0..direct.rows() {
            for v in 0..direct.cols() {
                assert!((direct[(u, v)] - reference[(u, v)]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn lag_bases_are_bit_identical_to_predict_one_model_at_a_time() {
        let lag: Vec<f64> = (0..7)
            .map(|i| (i as f64 * 0.9).sin() * 3.0 + 20.0)
            .collect();
        // Counts below, at and past one quad, so both the four-wide path
        // and the remainder run, alone and together.
        for count in 1..=9 {
            let models: Vec<Ridge> = (0..count)
                .map(|m| {
                    let w = (0..7).map(|i| ((m * 7 + i) as f64 * 0.37).cos()).collect();
                    Ridge::from_parts(w, 1.0 + m as f64, 0.1, vec![0.0; 7], vec![1.0; 7])
                })
                .collect();
            let mut out = vec![0.0; count];
            lag_bases(&models, &lag, &mut out);
            for (m, o) in models.iter().zip(&out) {
                assert_eq!(m.predict(&lag).to_bits(), o.to_bits(), "{count} models");
            }
        }
    }
}
