//! Average server power (ASP) sub-module — Eq. 1 of the paper.
//!
//! `p̂_{t+l} = β_0 + Σ_{j=0}^{L-1} β_{l,j} · p_{t-j}` for each horizon
//! step `l ∈ {1..L}`: a direct-strategy autoregression on the
//! cluster-average server power. Per §3.2 it predicts the *average* over
//! servers because individual machines change power abruptly while the
//! aggregate is smooth; per Table 2 it uses OLS (`α_β = 0`) since its
//! inputs are always true observations.

// analysis:allow-file(panic-free-control-path): dense numeric kernel;
// every index is loop-bounded by lengths validated at the call
// boundary, and debug_asserts guard the shape contracts.
// analysis:allow-file(no-alloc-in-decide-steady-state): work buffers
// are sized by model dimensions fixed at fit time; a fresh surrogate
// per decision is the paper's design, and zero-alloc steady-state
// scoring is tracked as ROADMAP work.
use crate::design::SharedDesign;
use crate::trace::Trace;
use crate::ForecastError;
use tesla_linalg::{Matrix, Ridge};

/// Fitted ASP sub-module: one regression per horizon step.
#[derive(Debug, Clone)]
pub struct AspModel {
    models: Vec<Ridge>,
    horizon: usize,
}

impl AspModel {
    /// Fits on a trace with horizon/lag length `l` and regularization
    /// `alpha` (0 in the paper).
    pub fn fit(trace: &Trace, l: usize, alpha: f64) -> Result<Self, ForecastError> {
        trace.validate(2 * l + 1)?;
        let t_len = trace.len();
        let rows: Vec<usize> = (l - 1..t_len - l).collect();
        let n = rows.len();

        let mut lag = Matrix::zeros(n, l);
        for (r, &t) in rows.iter().enumerate() {
            let row = lag.row_mut(r);
            row.copy_from_slice(&trace.avg_power[t + 1 - l..=t]);
        }
        let mut design = SharedDesign::new(lag);

        let targets: Vec<Vec<f64>> = (1..=l)
            .map(|step| rows.iter().map(|&t| trace.avg_power[t + step]).collect())
            .collect();
        let models = design.fit_multi(None, &targets, alpha)?;
        Ok(AspModel { models, horizon: l })
    }

    /// Horizon length `L`.
    pub fn horizon(&self) -> usize {
        self.horizon
    }

    /// Predicts the next `L` average-power values from the last `L`
    /// observations (oldest first).
    pub fn predict(&self, power_lags: &[f64]) -> Result<Vec<f64>, ForecastError> // lint:allow(no-raw-f64-in-public-api): bulk prediction series
    {
        if power_lags.len() != self.horizon {
            return Err(ForecastError::BadWindow(format!(
                "ASP expects {} power lags, got {}",
                self.horizon,
                power_lags.len()
            )));
        }
        Ok(self.models.iter().map(|m| m.predict(power_lags)).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trace whose power follows a deterministic AR(1):
    /// `p_{t+1} = 0.9 p_t + 0.5`.
    fn ar1_trace(t: usize) -> Trace {
        let mut tr = Trace::with_sensors(1, 1);
        let mut p = 4.0;
        for _ in 0..t {
            tr.push(p, &[22.0], &[20.0], 23.0, 0.03, 2.0);
            p = 0.9 * p + 0.5;
        }
        tr
    }

    #[test]
    fn learns_deterministic_ar1_exactly() {
        let tr = ar1_trace(200);
        let model = AspModel::fit(&tr, 5, 0.0).unwrap();
        let t = 100;
        let lags: Vec<f64> = tr.avg_power[t - 4..=t].to_vec();
        let preds = model.predict(&lags).unwrap();
        for (step, p) in preds.iter().enumerate() {
            let truth = tr.avg_power[t + 1 + step];
            assert!((p - truth).abs() < 1e-6, "step {step}: {p} vs {truth}");
        }
    }

    #[test]
    fn horizon_steps_use_distinct_models() {
        // §3.2: "the temperature at different steps within the L-step
        // horizon uses different regression weights and biases" — same for
        // power. A decaying AR(1) forces different per-step weights.
        let tr = ar1_trace(200);
        let model = AspModel::fit(&tr, 4, 0.0).unwrap();
        let lags = [3.0, 3.1, 3.2, 3.3];
        let preds = model.predict(&lags).unwrap();
        // Successive predictions follow the AR recursion, so they differ.
        assert!((preds[0] - preds[1]).abs() > 1e-9);
        assert!((preds[1] - preds[2]).abs() > 1e-9);
    }

    #[test]
    fn rejects_short_trace() {
        let tr = ar1_trace(8);
        assert!(matches!(
            AspModel::fit(&tr, 5, 0.0),
            Err(ForecastError::TraceTooShort { .. })
        ));
    }

    #[test]
    fn rejects_wrong_lag_count() {
        let tr = ar1_trace(100);
        let model = AspModel::fit(&tr, 5, 0.0).unwrap();
        assert!(model.predict(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn constant_power_predicts_constant() {
        let mut tr = Trace::with_sensors(1, 1);
        for _ in 0..100 {
            tr.push(3.3, &[22.0], &[20.0], 23.0, 0.03, 2.0);
        }
        let model = AspModel::fit(&tr, 6, 1.0).unwrap();
        let preds = model.predict(&[3.3; 6]).unwrap();
        for p in preds {
            assert!((p - 3.3).abs() < 1e-6);
        }
    }
}
