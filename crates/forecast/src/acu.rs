//! Air-cooling-unit (ACU) inlet-temperature sub-module — Eq. 2.
//!
//! For each internal sensor `n_a` and horizon step `l`:
//!
//! ```text
//! â^{n_a}_{t+l} = γ_0 + γ_1 s_{t+l} + γ_2 p̂_{t+l}
//!               + Σ_{i<N_a} Σ_{j<L} γ_{i,j} a^i_{t-j}
//! ```
//!
//! — the set-point at the target step, the (predicted) average server
//! power at the target step, and the lag window of *all* inlet sensors
//! (their interdependence matters, §3.2). Trained with true exogenous
//! values; consumes ASP predictions at inference; `α_γ = 1` ridge
//! because of that train/inference input mismatch.

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

/// Fitted ACU sub-module: `models[step][sensor]`.
#[derive(Debug, Clone)]
pub struct AcuModel {
    models: Vec<Vec<Ridge>>,
    horizon: usize,
    n_sensors: usize,
}

/// Window-invariant part of the ACU regressions (`[step][sensor]` bias +
/// lag-block dot products), built once per decision by
/// [`AcuModel::prepare`].
#[derive(Debug, Clone)]
pub struct PreparedAcu {
    base: Vec<Vec<f64>>,
}

impl AcuModel {
    /// Fits on a trace with horizon `l` and ridge strength `alpha`.
    pub fn fit(trace: &Trace, l: usize, alpha: f64) -> Result<Self, ForecastError> {
        trace.validate(2 * l + 1)?;
        let n_a = trace.n_acu_sensors();
        if n_a == 0 {
            return Err(ForecastError::InconsistentTrace("no ACU sensors".into()));
        }
        let t_len = trace.len();
        let rows: Vec<usize> = (l - 1..t_len - l).collect();
        let n = rows.len();

        // Shared lag block: all sensors' windows, sensor-major.
        let mut lag = Matrix::zeros(n, n_a * l);
        for (r, &t) in rows.iter().enumerate() {
            let row = lag.row_mut(r);
            for (i, col) in trace.acu_inlet.iter().enumerate() {
                row[i * l..(i + 1) * l].copy_from_slice(&col[t + 1 - l..=t]);
            }
        }
        let mut design = SharedDesign::new(lag);

        let mut models = Vec::with_capacity(l);
        for step in 1..=l {
            // Exogenous columns for this step: set-point and average
            // power at t+step (true values during training).
            let mut exo = Matrix::zeros(n, 2);
            for (r, &t) in rows.iter().enumerate() {
                exo[(r, 0)] = trace.setpoint[t + step];
                exo[(r, 1)] = trace.avg_power[t + step];
            }
            let targets: Vec<Vec<f64>> = (0..n_a)
                .map(|i| rows.iter().map(|&t| trace.acu_inlet[i][t + step]).collect())
                .collect();
            models.push(design.fit_multi(Some(&exo), &targets, alpha)?);
        }
        Ok(AcuModel {
            models,
            horizon: l,
            n_sensors: n_a,
        })
    }

    /// Horizon length `L`.
    pub fn horizon(&self) -> usize {
        self.horizon
    }

    /// Number of inlet sensors `N_a`.
    pub fn n_sensors(&self) -> usize {
        self.n_sensors
    }

    /// Hoists the window-dependent part of every per-(step, sensor)
    /// regression: the folded bias plus the `N_a·L` lag-block dot product,
    /// accumulated in exactly the order [`AcuModel::predict`] uses so
    /// prepared predictions are bit-identical to direct ones. Within one
    /// optimizer decision the lag window is fixed, so this runs once and
    /// [`AcuModel::predict_prepared`] only pays for the two exogenous
    /// terms per model.
    pub fn prepare(&self, window: &ModelWindow) -> Result<PreparedAcu, ForecastError> {
        let l = self.horizon;
        if window.inlet.len() != self.n_sensors || window.inlet.iter().any(|c| c.len() != l) {
            return Err(ForecastError::BadWindow("inlet lag shape mismatch".into()));
        }
        let mut lag = Vec::with_capacity(self.n_sensors * l);
        for col in &window.inlet {
            lag.extend_from_slice(col);
        }
        let base = self
            .models
            .iter()
            .map(|step_models| {
                let mut base = vec![0.0; step_models.len()];
                lag_bases(step_models, &lag, &mut base);
                base
            })
            .collect();
        Ok(PreparedAcu { base })
    }

    /// Predicts inlet temperatures under a *constant* set-point from a
    /// prepared lag base — bit-identical to [`AcuModel::predict`] with
    /// `setpoints = [setpoint; L]` on the window `prep` was built from.
    /// Returns `[sensor][step]`.
    pub fn predict_prepared(
        &self,
        prep: &PreparedAcu,
        setpoint: f64, // lint:allow(no-raw-f64-in-public-api): hot-path candidate value
        power_pred: &[f64], // lint:allow(no-raw-f64-in-public-api): bulk prediction series
    ) -> Result<Vec<Vec<f64>>, ForecastError> {
        let l = self.horizon;
        if power_pred.len() != l {
            return Err(ForecastError::BadWindow(format!(
                "ACU expects {l} power predictions, got {}",
                power_pred.len()
            )));
        }
        if prep.base.len() != l || prep.base.iter().any(|row| row.len() != self.n_sensors) {
            return Err(ForecastError::BadWindow(
                "prepared ACU base shape mismatch".into(),
            ));
        }
        let sp_idx = self.n_sensors * l;
        let mut out = vec![vec![0.0; l]; self.n_sensors];
        for (step, step_models) in self.models.iter().enumerate() {
            for (i, m) in step_models.iter().enumerate() {
                let w = m.folded_weights();
                // Same accumulation order as `predict`: lags (already in
                // the base), then set-point, then power.
                let mut acc = prep.base[step][i];
                acc += w[sp_idx] * setpoint;
                acc += w[sp_idx + 1] * power_pred[step];
                out[i][step] = acc;
            }
        }
        Ok(out)
    }

    /// Predicts inlet temperatures for the next `L` steps.
    ///
    /// * `window` — past `L` samples (only the inlet lags are used).
    /// * `setpoints` — the set-point at each future step (`L` values; the
    ///   TESLA optimizer passes a constant sequence).
    /// * `power_pred` — ASP's power predictions (`L` values).
    ///
    /// Returns `[sensor][step]`.
    pub fn predict(
        &self,
        window: &ModelWindow,
        setpoints: &[f64], // lint:allow(no-raw-f64-in-public-api): bulk prediction series
        power_pred: &[f64], // lint:allow(no-raw-f64-in-public-api): bulk prediction series
    ) -> Result<Vec<Vec<f64>>, ForecastError> {
        let l = self.horizon;
        if setpoints.len() != l || power_pred.len() != l {
            return Err(ForecastError::BadWindow(format!(
                "ACU expects {l} setpoints and power predictions, got {} and {}",
                setpoints.len(),
                power_pred.len()
            )));
        }
        if window.inlet.len() != self.n_sensors || window.inlet.iter().any(|c| c.len() != l) {
            return Err(ForecastError::BadWindow("inlet lag shape mismatch".into()));
        }
        let mut features = Vec::with_capacity(self.n_sensors * l + 2);
        for col in &window.inlet {
            features.extend_from_slice(col);
        }
        features.push(0.0); // set-point slot
        features.push(0.0); // power slot
        let sp_idx = self.n_sensors * l;

        let mut out = vec![vec![0.0; l]; self.n_sensors];
        for (step, step_models) in self.models.iter().enumerate() {
            features[sp_idx] = setpoints[step];
            features[sp_idx + 1] = power_pred[step];
            for (i, m) in step_models.iter().enumerate() {
                out[i][step] = m.predict(&features);
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthetic trace with a known linear relation: both inlet sensors
    /// relax toward `0.5·setpoint + 2·power`.
    fn synthetic_trace(t: usize) -> Trace {
        let mut tr = Trace::with_sensors(2, 1);
        let mut a0 = 24.0;
        let mut a1 = 24.2;
        for i in 0..t {
            let sp = 22.0 + ((i / 7) % 10) as f64 * 0.5;
            let p = 3.0 + ((i / 13) % 5) as f64 * 0.4;
            let target = 0.5 * sp + 2.0 * p;
            a0 += 0.3 * (target - a0);
            a1 += 0.25 * (target + 0.2 - a1);
            tr.push(p, &[a0, a1], &[20.0], sp, 0.03, 2.0);
        }
        tr
    }

    #[test]
    fn predicts_relaxation_dynamics_well() {
        let tr = synthetic_trace(600);
        let l = 6;
        let model = AcuModel::fit(&tr, l, 1.0).unwrap();
        // Evaluate one window against ground truth with TRUE exogenous
        // inputs (isolating the sub-module).
        let t = 300;
        let window = tr.window_at(t, l).unwrap();
        let setpoints: Vec<f64> = (1..=l).map(|s| tr.setpoint[t + s]).collect();
        let power: Vec<f64> = (1..=l).map(|s| tr.avg_power[t + s]).collect();
        let preds = model.predict(&window, &setpoints, &power).unwrap();
        for (i, row) in preds.iter().enumerate().take(2) {
            for (step, &p) in row.iter().enumerate().take(l) {
                let truth = tr.acu_inlet[i][t + 1 + step];
                assert!(
                    (p - truth).abs() < 0.3,
                    "sensor {i} step {step}: {p} vs {truth}"
                );
            }
        }
    }

    #[test]
    fn setpoint_influences_prediction() {
        let tr = synthetic_trace(600);
        let l = 6;
        let model = AcuModel::fit(&tr, l, 1.0).unwrap();
        let window = tr.window_at(300, l).unwrap();
        let power = vec![4.0; l];
        let low = model.predict(&window, &vec![21.0; l], &power).unwrap();
        let high = model.predict(&window, &vec![27.0; l], &power).unwrap();
        // Higher set-point → warmer predicted inlet (later steps at least).
        assert!(
            high[0][l - 1] > low[0][l - 1] + 0.5,
            "high {} vs low {}",
            high[0][l - 1],
            low[0][l - 1]
        );
    }

    #[test]
    fn shape_errors_are_reported() {
        let tr = synthetic_trace(300);
        let model = AcuModel::fit(&tr, 5, 1.0).unwrap();
        let window = tr.window_at(100, 5).unwrap();
        assert!(model.predict(&window, &[23.0; 4], &[3.0; 5]).is_err());
        assert!(model.predict(&window, &[23.0; 5], &[3.0; 4]).is_err());
        let bad_window = tr.window_at(100, 4).unwrap();
        assert!(model.predict(&bad_window, &[23.0; 5], &[3.0; 5]).is_err());
    }

    #[test]
    fn output_shape_is_sensor_by_step() {
        let tr = synthetic_trace(300);
        let l = 4;
        let model = AcuModel::fit(&tr, l, 1.0).unwrap();
        let window = tr.window_at(100, l).unwrap();
        let preds = model.predict(&window, &[23.0; 4], &[3.0; 4]).unwrap();
        assert_eq!(preds.len(), 2);
        assert_eq!(preds[0].len(), 4);
    }
}
