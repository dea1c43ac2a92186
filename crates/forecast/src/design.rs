//! Shared-gram multi-target ridge solver.
//!
//! The direct strategy trains `(1 + N_a + N_d) · L` independent ridge
//! regressions (§3.2). Naively that means re-computing a Gram matrix per
//! regression, but the designs share almost all of their columns: for a
//! given horizon step, every sensor's model sees the *same* lag block and
//! the same few exogenous columns; and across horizon steps only the
//! exogenous columns change. [`SharedDesign`] pays once per design for
//! what every step shares:
//!
//! * the lag block's Gram, column means and standard deviations, when
//!   it is built;
//! * the Cholesky factor of the standardized lag block plus `αI`, on
//!   the first fit. Cholesky works column by column, and each entry of
//!   the leading block depends on that block alone, so that factor is
//!   the leading block of every step's factor.
//!
//! Each step then computes only its exogenous parts: `XᵀE` (with an
//! inner loop that runs across the lag columns), `EᵀE`, and the `d_exo`
//! trailing rows of the factor, refactored in place by
//! [`Cholesky::refactor_tail`]. It solves all of the step's targets in
//! one [`Cholesky::solve_cols`] pass. For DCS that is 3 rows under a
//! 700-column lag block, instead of a 703×703 factorization per step.
//!
//! The fitted models are bit-identical to assembling and factoring each
//! step's whole normal matrix with [`Cholesky::decompose_jittered`] and
//! solving target by target. That path still runs whenever the shared
//! factor cannot give its bits: when the lag block needs jitter, or when
//! an exogenous pivot is not positive.

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

/// `Xᵀ E` for a narrow `E`, stored transposed: row `v` holds the dot
/// product of `E`'s column `v` with every column of `X`.
///
/// The inner loop runs along a row of `X`, across its columns, so it is
/// long and independent. It matches [`xt_y`]`(x, e)` bit for bit: where
/// `xt_y` skips a zero `x`, this adds `0·e`, which is a signed zero when
/// `e` is finite, and a sum that starts at +0.0 never becomes −0.0, so
/// adding a zero leaves it unchanged. A row whose `e` is not finite
/// (where `0·e` would be NaN) skips the zeros as `xt_y` does.
pub(crate) fn xt_e(x: &Matrix, e: &Matrix) -> Matrix {
    debug_assert_eq!(x.rows(), e.rows());
    let mut out = Matrix::zeros(e.cols(), x.cols());
    for r in 0..x.rows() {
        let xr = x.row(r);
        for (v, &ev) in e.row(r).iter().enumerate() {
            let acc = out.row_mut(v);
            if ev.is_finite() {
                for (o, &xu) in acc.iter_mut().zip(xr) {
                    *o += xu * ev;
                }
            } else {
                for (o, &xu) in acc.iter_mut().zip(xr) {
                    if xu != 0.0 {
                        *o += xu * ev;
                    }
                }
            }
        }
    }
    out
}

/// Standard deviation of a column from its raw sum of squares and its
/// mean; a (numerically) constant column gets 1 so it stays unscaled.
fn column_std(sum_sq: f64, mean: f64, nf: f64) -> f64 {
    let var = (sum_sq / nf - mean * mean).max(0.0);
    let s = var.sqrt();
    if s > 1e-12 {
        s
    } else {
        1.0
    }
}

/// A design matrix whose lag block is shared across many regressions.
#[derive(Debug, Clone)]
pub struct SharedDesign {
    lag: Matrix,
    /// Raw (uncentered) Gram of the lag block, computed once.
    g_lag_raw: Matrix,
    /// Column means of the combined design: the lag block's, computed
    /// once, then the current call's exogenous columns'.
    means: Vec<f64>,
    /// Column standard deviations, laid out like `means`.
    stds: Vec<f64>,
    /// Factor of the standardized normal matrix. Its leading
    /// `d_lag x d_lag` block is the lag block's factor for `lead`'s ridge
    /// strength; each call refactors the exogenous rows below it in
    /// place.
    chol: Cholesky,
    /// What `chol`'s leading block was built for.
    lead: Option<Lead>,
    /// Times the lag block has been factored.
    #[cfg(test)]
    lead_factorizations: usize,
    /// Calls that factored the whole matrix instead of the exogenous rows.
    #[cfg(test)]
    fallbacks: usize,
}

/// The ridge strength and width a [`SharedDesign`]'s factor was built
/// for, and whether its leading block factored without jitter.
#[derive(Debug, Clone, Copy)]
struct Lead {
    ridge_bits: u64,
    d: usize,
    clean: bool,
}

impl SharedDesign {
    /// Builds the shared design from the lag-feature matrix (`n` rows ×
    /// `d_lag` columns). This is where the dominant Gram cost is paid,
    /// along with the lag columns' means and standard deviations.
    pub fn new(lag: Matrix) -> Self {
        let g_lag_raw = lag.gram();
        let nf = lag.rows() as f64;
        let means: Vec<f64> = (0..lag.cols())
            .map(|j| (0..lag.rows()).map(|i| lag[(i, j)]).sum::<f64>() / nf)
            .collect();
        let stds = means
            .iter()
            .enumerate()
            .map(|(u, &m)| column_std(g_lag_raw[(u, u)], m, nf))
            .collect();
        SharedDesign {
            lag,
            g_lag_raw,
            means,
            stds,
            chol: Cholesky::default(),
            lead: None,
            #[cfg(test)]
            lead_factorizations: 0,
            #[cfg(test)]
            fallbacks: 0,
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
    ///
    /// The lag block's factor is kept from the first call and reused by
    /// every later call with the same `alpha` and exogenous width; only
    /// the exogenous rows are refactored. The models are bit-identical to
    /// factoring each call's whole normal matrix with
    /// [`Cholesky::decompose_jittered`], which is what runs whenever the
    /// shared factor would not give its bits.
    pub fn fit_multi(
        &mut self,
        exo: Option<&Matrix>,
        targets: &[Vec<f64>],
        alpha: f64,
    ) -> Result<Vec<Ridge>, ForecastError> {
        self.check(exo, targets)?;
        if targets.is_empty() {
            return Ok(Vec::new());
        }
        let d_lag = self.d_lag();
        let d = d_lag + exo.map_or(0, Matrix::cols);
        let ridge = alpha.max(0.0);
        let cross = exo.map(|e| xt_e(&self.lag, e));
        let g_ee = exo.map(Matrix::gram);
        self.set_exo_stats(exo, g_ee.as_ref());

        self.factor_lead(ridge, d);
        let shared = match (&cross, &g_ee) {
            (Some(cross), Some(g_ee)) => self.factor_tail(cross, g_ee, ridge),
            _ => self.lead.is_some_and(|l| l.clean),
        };
        let fallback = if shared {
            None
        } else {
            #[cfg(test)]
            {
                self.fallbacks += 1;
            }
            let g = self.assemble_full(exo, ridge);
            Some(Cholesky::decompose_jittered(&g, 1e-8, 14)?)
        };
        let chol = fallback.as_ref().unwrap_or(&self.chol);

        let m = targets.len();
        let (mut w, y_means) = self.rhs_block(exo, targets);
        chol.solve_cols(&mut w, m)?;
        let mut weights = vec![0.0; d];
        Ok((0..m)
            .map(|t| {
                for (wu, row) in weights.iter_mut().zip(w.chunks_exact(m)) {
                    *wu = row[t];
                }
                Ridge::from_parts(&weights, y_means[t], alpha, &self.means, &self.stds)
            })
            .collect())
    }

    /// Validates the shapes of a [`SharedDesign::fit_multi`] call.
    fn check(&self, exo: Option<&Matrix>, targets: &[Vec<f64>]) -> Result<(), ForecastError> {
        let n = self.n();
        if n == 0 {
            return Err(ForecastError::Solve("empty design".into()));
        }
        if targets.is_empty() {
            return Ok(());
        }
        for (i, t) in targets.iter().enumerate() {
            if t.len() != n {
                return Err(ForecastError::Solve(format!(
                    "target {i} has {} rows, design has {n}",
                    t.len()
                )));
            }
        }
        if let Some(e) = exo {
            if e.rows() != n {
                return Err(ForecastError::Solve(format!(
                    "exo has {} rows, design has {n}",
                    e.rows()
                )));
            }
        }
        Ok(())
    }

    /// Sets the exogenous columns' means and standard deviations after
    /// the lag block's, from `exo` and its raw Gram.
    fn set_exo_stats(&mut self, exo: Option<&Matrix>, g_ee: Option<&Matrix>) {
        let d_lag = self.d_lag();
        let n = self.n();
        let nf = n as f64;
        self.means.truncate(d_lag);
        self.stds.truncate(d_lag);
        if let (Some(e), Some(g_ee)) = (exo, g_ee) {
            for j in 0..e.cols() {
                self.means.push((0..n).map(|i| e[(i, j)]).sum::<f64>() / nf);
            }
            for j in 0..e.cols() {
                let std = column_std(g_ee[(j, j)], self.means[d_lag + j], nf);
                self.stds.push(std);
            }
        }
    }

    /// Entry `(u, v)` of the centered, standardized normal matrix, from
    /// the raw Gram entry `raw`.
    fn standardized(&self, raw: f64, u: usize, v: usize) -> f64 {
        let nf = self.n() as f64;
        (raw - nf * self.means[u] * self.means[v]) / (self.stds[u] * self.stds[v])
    }

    /// Factors the standardized lag block plus `ridge` on its diagonal
    /// into the leading block of a `d x d` factor, unless that is the
    /// factor already held. The rows below it are set to the identity's
    /// until [`SharedDesign::factor_tail`] fills them.
    fn factor_lead(&mut self, ridge: f64, d: usize) {
        let ridge_bits = ridge.to_bits();
        if self
            .lead
            .is_some_and(|l| l.ridge_bits == ridge_bits && l.d == d)
        {
            return;
        }
        let mut a = Matrix::identity(d);
        for u in 0..self.d_lag() {
            for v in 0..=u {
                a[(u, v)] = self.standardized(self.g_lag_raw[(u, v)], u, v);
            }
            a[(u, u)] += ridge;
        }
        let factored = Cholesky::decompose(&a);
        let clean = factored.is_ok();
        if let Ok(chol) = factored {
            self.chol = chol;
        }
        self.lead = Some(Lead {
            ridge_bits,
            d,
            clean,
        });
        #[cfg(test)]
        {
            self.lead_factorizations += 1;
        }
    }

    /// Refactors the exogenous rows of the held factor from this call's
    /// `cross = XᵀE` (as [`xt_e`] lays it out) and `g_ee = EᵀE`. Returns
    /// false when the whole matrix must be factored instead: the lag
    /// block needed jitter, or an exogenous pivot is not positive.
    fn factor_tail(&mut self, cross: &Matrix, g_ee: &Matrix, ridge: f64) -> bool {
        if !self.lead.is_some_and(|l| l.clean) {
            return false;
        }
        let d_lag = self.d_lag();
        let d_exo = g_ee.rows();
        let d = d_lag + d_exo;
        let mut rows = vec![0.0; d_exo * d];
        for (v, row) in rows.chunks_exact_mut(d).enumerate() {
            let i = d_lag + v;
            for (u, (r, &raw)) in row.iter_mut().zip(cross.row(v)).enumerate() {
                *r = self.standardized(raw, i, u);
            }
            for w in 0..=v {
                row[d_lag + w] = self.standardized(g_ee[(v, w)], i, d_lag + w);
            }
            row[i] += ridge;
        }
        self.chol.refactor_tail(d_lag, &rows).is_ok()
    }

    /// The whole standardized normal matrix of the combined design plus
    /// `ridge` on its diagonal. Only the fallback and the tests build it.
    fn assemble_full(&self, exo: Option<&Matrix>, ridge: f64) -> Matrix {
        let d_lag = self.d_lag();
        let d = self.means.len();
        let mut g = Matrix::zeros(d, d);
        for u in 0..d_lag {
            for v in 0..d_lag {
                g[(u, v)] = self.standardized(self.g_lag_raw[(u, v)], u, v);
            }
        }
        if let Some(e) = exo {
            let cross = xt_y(&self.lag, e);
            let g_ee = e.gram();
            for u in 0..d_lag {
                for v in d_lag..d {
                    let raw = cross[(u, v - d_lag)];
                    g[(u, v)] = self.standardized(raw, u, v);
                    g[(v, u)] = self.standardized(raw, v, u);
                }
            }
            for u in d_lag..d {
                for v in d_lag..d {
                    g[(u, v)] = self.standardized(g_ee[(u - d_lag, v - d_lag)], u, v);
                }
            }
        }
        g.add_diagonal(ridge);
        g
    }

    /// The standardized `Xᵀ(y − ȳ)` of every target, row-major with one
    /// column per target, and the targets' means.
    fn rhs_block(&self, exo: Option<&Matrix>, targets: &[Vec<f64>]) -> (Vec<f64>, Vec<f64>) {
        let n = self.n();
        let nf = n as f64;
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
        let xty_rows = xty_lag
            .as_slice()
            .chunks_exact(m)
            .chain(xty_exo.iter().flat_map(|x| x.as_slice().chunks_exact(m)));
        let mut b = vec![0.0; self.means.len() * m];
        for (u, (row, xty)) in b.chunks_exact_mut(m).zip(xty_rows).enumerate() {
            for ((r, &x), &ym) in row.iter_mut().zip(xty).zip(&y_means) {
                *r = (x - nf * self.means[u] * ym) / self.stds[u];
            }
        }
        (b, y_means)
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
        let mut design = SharedDesign::new(lag.clone());
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
        let mut design = SharedDesign::new(lag.clone());
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
        let mut design = SharedDesign::new(lag.clone());
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
        let mut design = SharedDesign::new(lag);
        let bad = vec![vec![1.0, 2.0]];
        assert!(design.fit_multi(Some(&exo), &bad, 1.0).is_err());
    }

    #[test]
    fn empty_targets_return_no_models() {
        let (lag, _, _) = toy_design();
        let mut design = SharedDesign::new(lag);
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
                    let w: Vec<f64> = (0..7).map(|i| ((m * 7 + i) as f64 * 0.37).cos()).collect();
                    Ridge::from_parts(&w, 1.0 + m as f64, 0.1, &[0.0; 7], &[1.0; 7])
                })
                .collect();
            let mut out = vec![0.0; count];
            lag_bases(&models, &lag, &mut out);
            for (m, o) in models.iter().zip(&out) {
                assert_eq!(m.predict(&lag).to_bits(), o.to_bits(), "{count} models");
            }
        }
    }

    /// [`SharedDesign::fit_multi`] as it ran before the lag block's factor
    /// was shared: the whole normal matrix assembled (with [`xt_y`]'s
    /// cross block) and factored on every call, and each target solved
    /// on its own.
    fn fit_multi_full(
        design: &mut SharedDesign,
        exo: Option<&Matrix>,
        targets: &[Vec<f64>],
        alpha: f64,
    ) -> Vec<Ridge> {
        let g_ee = exo.map(Matrix::gram);
        design.set_exo_stats(exo, g_ee.as_ref());
        let g = design.assemble_full(exo, alpha.max(0.0));
        let chol = Cholesky::decompose_jittered(&g, 1e-8, 14).unwrap();
        let m = targets.len();
        let (b, y_means) = design.rhs_block(exo, targets);
        (0..m)
            .map(|t| {
                let rhs: Vec<f64> = b.chunks_exact(m).map(|row| row[t]).collect();
                let w = chol.solve(&rhs).unwrap();
                Ridge::from_parts(&w, y_means[t], alpha, &design.means, &design.stds)
            })
            .collect()
    }

    fn assert_same_models(got: &[Ridge], want: &[Ridge], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}");
        for (t, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.bias().to_bits(), w.bias().to_bits(), "{what}, target {t}");
            let bits = |r: &Ridge| -> Vec<u64> {
                r.folded_weights().iter().map(|x| x.to_bits()).collect()
            };
            assert_eq!(bits(g), bits(w), "{what}, target {t}");
        }
    }

    /// One horizon step's exogenous columns and targets.
    type Step = (Matrix, Vec<Vec<f64>>);

    /// The DCS sub-module's designs on a coupled synthetic trace (4 rack
    /// sensors, 2 inlets) at horizon 20: an `N_d·L = 80`-column lag
    /// block, and per step the power and inlet columns at `t + step` as
    /// exogenous columns and the rack sensors at `t + step` as targets.
    fn dcs_designs() -> (Matrix, Vec<Step>) {
        let trace = crate::model::tests::coupled_trace(600, 5);
        let l = 20;
        let rows: Vec<usize> = (l - 1..trace.len() - l).collect();
        let n = rows.len();
        let n_d = trace.n_dc_sensors();
        let mut lag = Matrix::zeros(n, n_d * l);
        for (r, &t) in rows.iter().enumerate() {
            for (k, col) in trace.dc_temps.iter().enumerate() {
                lag.row_mut(r)[k * l..(k + 1) * l].copy_from_slice(&col[t + 1 - l..=t]);
            }
        }
        let steps = (1..=l)
            .map(|step| {
                let mut exo = Matrix::zeros(n, 3);
                for (r, &t) in rows.iter().enumerate() {
                    exo[(r, 0)] = trace.avg_power[t + step];
                    exo[(r, 1)] = trace.acu_inlet[0][t + step];
                    exo[(r, 2)] = trace.acu_inlet[1][t + step];
                }
                let targets = (0..n_d)
                    .map(|k| rows.iter().map(|&t| trace.dc_temps[k][t + step]).collect())
                    .collect();
                (exo, targets)
            })
            .collect();
        (lag, steps)
    }

    #[test]
    fn fit_multi_is_bit_identical_to_the_full_assembly_over_dcs_steps() {
        let (lag, steps) = dcs_designs();
        let mut design = SharedDesign::new(lag.clone());
        let mut reference = SharedDesign::new(lag);
        for (fits, alpha) in [(1, 0.0), (2, 1.0)] {
            for (step, (exo, targets)) in steps.iter().enumerate() {
                let got = design.fit_multi(Some(exo), targets, alpha).unwrap();
                let want = fit_multi_full(&mut reference, Some(exo), targets, alpha);
                assert_same_models(&got, &want, &format!("alpha {alpha}, step {step}"));
            }
            // The lag block was factored once for all 20 steps, and again
            // when α changed.
            assert_eq!(design.lead_factorizations, fits, "alpha {alpha}");
            assert_eq!(design.fallbacks, 0, "alpha {alpha}");
        }
    }

    #[test]
    fn a_singular_exogenous_column_falls_back_with_the_same_bits() {
        let (lag, steps) = dcs_designs();
        let mut design = SharedDesign::new(lag.clone());
        let mut reference = SharedDesign::new(lag);
        for (step, (exo, targets)) in steps.iter().take(4).enumerate() {
            // A constant column centres to exact zeros: at α = 0 its
            // pivot is not positive, so only a jittered factor exists.
            let mut exo = exo.clone();
            for r in 0..exo.rows() {
                exo[(r, 1)] = 3.0;
            }
            let got = design.fit_multi(Some(&exo), targets, 0.0).unwrap();
            let want = fit_multi_full(&mut reference, Some(&exo), targets, 0.0);
            assert_same_models(&got, &want, &format!("step {step}"));
        }
        assert_eq!(design.lead_factorizations, 1);
        assert_eq!(design.fallbacks, 4);
    }

    #[test]
    fn a_lag_block_that_needs_jitter_falls_back_on_every_step() {
        let (mut lag, steps) = dcs_designs();
        for r in 0..lag.rows() {
            lag[(r, 7)] = 3.0;
        }
        let mut design = SharedDesign::new(lag.clone());
        let mut reference = SharedDesign::new(lag);
        for (step, (exo, targets)) in steps.iter().take(3).enumerate() {
            let got = design.fit_multi(Some(exo), targets, 0.0).unwrap();
            let want = fit_multi_full(&mut reference, Some(exo), targets, 0.0);
            assert_same_models(&got, &want, &format!("step {step}"));
        }
        // Without exogenous columns the lag block is the whole matrix.
        let (_, targets) = &steps[0];
        let got = design.fit_multi(None, targets, 0.0).unwrap();
        let want = fit_multi_full(&mut reference, None, targets, 0.0);
        assert_same_models(&got, &want, "no exo");
        assert_eq!(design.lead_factorizations, 2);
        assert_eq!(design.fallbacks, 4);
    }

    #[test]
    fn xt_e_matches_xt_y_bit_for_bit() {
        let mut state = 0x9E37_79B9_7F4A_7C15_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 2001) as f64 / 100.0 - 10.0
        };
        let (n, d, w) = (40, 9, 3);
        let mut x = Matrix::zeros(n, d);
        let mut e = Matrix::zeros(n, w);
        for v in x.as_mut_slice().iter_mut().chain(e.as_mut_slice()) {
            *v = next();
        }
        // Signed zeros in X and E, and a column of −0.0 alone, whose
        // sums must stay +0.0.
        for r in (0..n).step_by(3) {
            x[(r, 5)] = 0.0;
            x[(r, 6)] = -0.0;
            e[(r, 1)] = 0.0;
        }
        for r in 0..n {
            x[(r, 8)] = -0.0;
        }
        // Rows where E is infinite or NaN. Columns 0–3 of X are zero
        // there, so their sums stay finite only if those zeros are
        // skipped; columns 4–7 are not, so their sums are not finite.
        let specials = [
            (3, 0, f64::INFINITY),
            (11, 1, f64::NAN),
            (25, 0, f64::NEG_INFINITY),
        ];
        for (r, v, val) in specials {
            e[(r, v)] = val;
            for u in 0..4 {
                x[(r, u)] = if u % 2 == 0 { 0.0 } else { -0.0 };
            }
        }
        let narrow = xt_e(&x, &e);
        let wide = xt_y(&x, &e);
        for u in 0..d {
            for v in 0..w {
                let (a, b) = (narrow[(v, u)], wide[(u, v)]);
                // NaN payloads are not compared: any NaN fails the factor.
                assert!(
                    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()),
                    "u {u} v {v}: {a} vs {b}"
                );
                let special = v < 2 && (4..8).contains(&u);
                assert_eq!(!a.is_finite(), special, "u {u} v {v}: {a}");
            }
        }
        for v in 0..w {
            assert_eq!(narrow[(v, 8)].to_bits(), 0.0_f64.to_bits());
        }
    }
}
