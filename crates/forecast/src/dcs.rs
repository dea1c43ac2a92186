//! Data-center sensor (DCS) sub-module — Eq. 3.
//!
//! For each rack sensor `n_d` and horizon step `l`:
//!
//! ```text
//! d̂^{n_d}_{t+l} = θ_0 + θ_1 p̂_{t+l} + Σ_{i<N_a} θ_i â^i_{t+l}
//!               + Σ_{k<N_d} Σ_{j<L} θ_{k,j} d^k_{t-j}
//! ```
//!
//! The exogenous inputs (predicted average power = heat generation rate,
//! predicted ACU inlet temps = heat removal rate) carry the load and
//! cooling influence; the `N_d · L` lag block captures the sensors'
//! interdependence. `α_θ = 1` ridge (Table 2): at inference the exogenous
//! values are predictions, so the weights must not amplify their errors.

// analysis:allow-file(panic-free-control-path): dense numeric kernel;
// every index is loop-bounded by lengths validated at the call
// boundary, and debug_asserts guard the shape contracts.
// analysis:allow-file(no-alloc-in-decide-steady-state): work buffers
// are sized by model dimensions fixed at fit time; a fresh surrogate
// per decision is the paper's design, and zero-alloc steady-state
// scoring is tracked as ROADMAP work.
use crate::design::{lag_bases, SharedDesign};
use crate::trace::{ModelWindow, Trace};
use crate::ForecastError;
use tesla_linalg::{Matrix, Ridge};

/// Fitted DCS sub-module: `models[step][sensor]`.
#[derive(Debug, Clone)]
pub struct DcsModel {
    models: Vec<Vec<Ridge>>,
    horizon: usize,
    n_dc: usize,
    n_acu: usize,
}

/// Decision-invariant part of the DCS regressions (the `[step][sensor]`
/// bias plus the `N_d·L` lag dot product and the power term), built once
/// per decision by [`DcsModel::prepare`]. This is the single biggest
/// hoist in the whole predict chain: with defaults it removes
/// ~`N_d·L·(N_d·L+1)` multiplies per candidate, leaving only the `N_a`
/// inlet terms.
#[derive(Debug, Clone)]
pub struct PreparedDcs {
    base: Vec<Vec<f64>>,
}

impl DcsModel {
    /// Fits on a trace with horizon `l` and ridge strength `alpha`.
    pub fn fit(trace: &Trace, l: usize, alpha: f64) -> Result<Self, ForecastError> {
        trace.validate(2 * l + 1)?;
        let n_d = trace.n_dc_sensors();
        let n_a = trace.n_acu_sensors();
        if n_d == 0 {
            return Err(ForecastError::InconsistentTrace("no DC sensors".into()));
        }
        let t_len = trace.len();
        let rows: Vec<usize> = (l - 1..t_len - l).collect();
        let n = rows.len();

        // Shared lag block: every rack sensor's window, sensor-major.
        let mut lag = Matrix::zeros(n, n_d * l);
        for (r, &t) in rows.iter().enumerate() {
            let row = lag.row_mut(r);
            for (k, col) in trace.dc_temps.iter().enumerate() {
                row[k * l..(k + 1) * l].copy_from_slice(&col[t + 1 - l..=t]);
            }
        }
        let mut design = SharedDesign::new(lag);

        let mut models = Vec::with_capacity(l);
        for step in 1..=l {
            // Exogenous: power and each inlet sensor at t+step (true
            // values during training).
            let mut exo = Matrix::zeros(n, 1 + n_a);
            for (r, &t) in rows.iter().enumerate() {
                exo[(r, 0)] = trace.avg_power[t + step];
                for i in 0..n_a {
                    exo[(r, 1 + i)] = trace.acu_inlet[i][t + step];
                }
            }
            let targets: Vec<Vec<f64>> = (0..n_d)
                .map(|k| rows.iter().map(|&t| trace.dc_temps[k][t + step]).collect())
                .collect();
            models.push(design.fit_multi(Some(&exo), &targets, alpha)?);
        }
        Ok(DcsModel {
            models,
            horizon: l,
            n_dc: n_d,
            n_acu: n_a,
        })
    }

    /// Horizon length `L`.
    pub fn horizon(&self) -> usize {
        self.horizon
    }

    /// Number of rack sensors `N_d`.
    pub fn n_sensors(&self) -> usize {
        self.n_dc
    }

    /// Hoists everything that does not depend on the candidate set-point:
    /// the folded bias, the `N_d·L` lag-block dot product, and the power
    /// term (ASP output is fixed within a decision). Accumulation order
    /// matches [`DcsModel::predict`] exactly — lags first, then power —
    /// so prepared predictions are bit-identical to direct ones. The
    /// `N_d·L` models of a step share the lag window, so their dot
    /// products run four at a time.
    pub fn prepare(
        &self,
        window: &ModelWindow,
        power_pred: &[f64], // lint:allow(no-raw-f64-in-public-api): bulk prediction series
    ) -> Result<PreparedDcs, ForecastError> {
        let l = self.horizon;
        if power_pred.len() != l {
            return Err(ForecastError::BadWindow(format!(
                "DCS expects {l} power predictions, got {}",
                power_pred.len()
            )));
        }
        if window.dc.len() != self.n_dc || window.dc.iter().any(|c| c.len() != l) {
            return Err(ForecastError::BadWindow("dc lag shape mismatch".into()));
        }
        let mut lag = Vec::with_capacity(self.n_dc * l);
        for col in &window.dc {
            lag.extend_from_slice(col);
        }
        let exo_base = self.n_dc * l;
        let base = self
            .models
            .iter()
            .zip(power_pred)
            .map(|(step_models, &power)| {
                let mut base = vec![0.0; step_models.len()];
                lag_bases(step_models, &lag, &mut base);
                for (acc, m) in base.iter_mut().zip(step_models) {
                    *acc += m.folded_weights()[exo_base] * power;
                }
                base
            })
            .collect();
        Ok(PreparedDcs { base })
    }

    /// Predicts every rack sensor from a prepared base and candidate
    /// inlet predictions — bit-identical to [`DcsModel::predict`] with
    /// the window and power `prep` was built from. Returns
    /// `[sensor][step]`.
    pub fn predict_prepared(
        &self,
        prep: &PreparedDcs,
        inlet_pred: &[Vec<f64>], // lint:allow(no-raw-f64-in-public-api): bulk prediction series
    ) -> Result<Vec<Vec<f64>>, ForecastError> {
        let l = self.horizon;
        if inlet_pred.len() != self.n_acu || inlet_pred.iter().any(|c| c.len() != l) {
            return Err(ForecastError::BadWindow(
                "inlet prediction shape mismatch".into(),
            ));
        }
        if prep.base.len() != l || prep.base.iter().any(|row| row.len() != self.n_dc) {
            return Err(ForecastError::BadWindow(
                "prepared DCS base shape mismatch".into(),
            ));
        }
        let exo_base = self.n_dc * l;
        let mut out = vec![vec![0.0; l]; self.n_dc];
        for (step, step_models) in self.models.iter().enumerate() {
            for (k, m) in step_models.iter().enumerate() {
                let w = m.folded_weights();
                let mut acc = prep.base[step][k];
                for (i, col) in inlet_pred.iter().enumerate() {
                    acc += w[exo_base + 1 + i] * col[step];
                }
                out[k][step] = acc;
            }
        }
        Ok(out)
    }

    /// Predicts every rack sensor over the next `L` steps.
    ///
    /// * `window` — past `L` samples (only the rack-sensor lags are used).
    /// * `power_pred` — ASP predictions (`L` values).
    /// * `inlet_pred` — ACU sub-module predictions, `[N_a][L]`.
    ///
    /// Returns `[sensor][step]`.
    pub fn predict(
        &self,
        window: &ModelWindow,
        power_pred: &[f64], // lint:allow(no-raw-f64-in-public-api): bulk prediction series
        inlet_pred: &[Vec<f64>], // lint:allow(no-raw-f64-in-public-api): bulk prediction series
    ) -> Result<Vec<Vec<f64>>, ForecastError> {
        let l = self.horizon;
        if power_pred.len() != l {
            return Err(ForecastError::BadWindow(format!(
                "DCS expects {l} power predictions, got {}",
                power_pred.len()
            )));
        }
        if inlet_pred.len() != self.n_acu || inlet_pred.iter().any(|c| c.len() != l) {
            return Err(ForecastError::BadWindow(
                "inlet prediction shape mismatch".into(),
            ));
        }
        if window.dc.len() != self.n_dc || window.dc.iter().any(|c| c.len() != l) {
            return Err(ForecastError::BadWindow("dc lag shape mismatch".into()));
        }

        let mut features = Vec::with_capacity(self.n_dc * l + 1 + self.n_acu);
        for col in &window.dc {
            features.extend_from_slice(col);
        }
        let exo_base = self.n_dc * l;
        features.resize(exo_base + 1 + self.n_acu, 0.0);

        let mut out = vec![vec![0.0; l]; self.n_dc];
        for (step, step_models) in self.models.iter().enumerate() {
            features[exo_base] = power_pred[step];
            for i in 0..self.n_acu {
                features[exo_base + 1 + i] = inlet_pred[i][step];
            }
            for (k, m) in step_models.iter().enumerate() {
                out[k][step] = m.predict(&features);
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Trace where each of 3 rack sensors relaxes toward
    /// `inlet − 4 + k·0.5 + 0.3·power`.
    fn synthetic_trace(t: usize) -> Trace {
        let mut tr = Trace::with_sensors(1, 3);
        let mut d = [18.0, 18.5, 19.0];
        let mut a = 24.0;
        for i in 0..t {
            let sp = 22.0 + ((i / 11) % 8) as f64 * 0.5;
            let p = 3.0 + ((i / 17) % 4) as f64 * 0.5;
            a += 0.3 * (0.6 * sp + 1.8 * p - a);
            for (k, dk) in d.iter_mut().enumerate() {
                let target = a - 4.0 + k as f64 * 0.5 + 0.3 * p;
                *dk += 0.35 * (target - *dk);
            }
            tr.push(p, &[a], &d, sp, 0.03, 2.0);
        }
        tr
    }

    #[test]
    fn predicts_sensor_relaxation_with_true_exogenous_inputs() {
        let tr = synthetic_trace(600);
        const L: usize = 6;
        let model = DcsModel::fit(&tr, L, 1.0).unwrap();
        let t = 300;
        let window = tr.window_at(t, L).unwrap();
        let power: Vec<f64> = (1..=L).map(|s| tr.avg_power[t + s]).collect();
        let inlet: Vec<Vec<f64>> = vec![(1..=L).map(|s| tr.acu_inlet[0][t + s]).collect()];
        let preds = model.predict(&window, &power, &inlet).unwrap();
        for (k, row) in preds.iter().enumerate().take(3) {
            for (step, &p) in row.iter().enumerate().take(L) {
                let truth = tr.dc_temps[k][t + 1 + step];
                assert!(
                    (p - truth).abs() < 0.3,
                    "sensor {k} step {step}: {p} vs {truth}"
                );
            }
        }
    }

    #[test]
    fn warmer_inlet_prediction_raises_dc_prediction() {
        let tr = synthetic_trace(600);
        const L: usize = 5;
        let model = DcsModel::fit(&tr, L, 1.0).unwrap();
        let window = tr.window_at(300, L).unwrap();
        let power = vec![4.0; L];
        let cool = model.predict(&window, &power, &[vec![22.0; L]]).unwrap();
        let warm = model.predict(&window, &power, &[vec![28.0; L]]).unwrap();
        assert!(warm[0][L - 1] > cool[0][L - 1] + 0.5);
    }

    #[test]
    fn shape_validation() {
        let tr = synthetic_trace(300);
        const L: usize = 4;
        let model = DcsModel::fit(&tr, L, 1.0).unwrap();
        let window = tr.window_at(100, L).unwrap();
        assert!(model.predict(&window, &[3.0; 3], &[vec![23.0; L]]).is_err());
        assert!(model.predict(&window, &[3.0; L], &[vec![23.0; 2]]).is_err());
        assert!(model
            .predict(&window, &[3.0; L], &[vec![23.0; L], vec![23.0; L]])
            .is_err());
    }

    #[test]
    fn per_sensor_offsets_are_learned() {
        let tr = synthetic_trace(600);
        const L: usize = 4;
        let model = DcsModel::fit(&tr, L, 1.0).unwrap();
        let window = tr.window_at(300, L).unwrap();
        let power = vec![3.5; L];
        let inlet = vec![vec![24.0; L]];
        let preds = model.predict(&window, &power, &inlet).unwrap();
        // Sensor 2 reads ~1.0 °C above sensor 0 by construction.
        let gap = preds[2][L - 1] - preds[0][L - 1];
        assert!((gap - 1.0).abs() < 0.4, "offset gap {gap}");
    }
}
