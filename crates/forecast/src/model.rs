//! The composed DC time-series model (Fig. 6).

// analysis:allow-file(no-alloc-in-decide-steady-state): work buffers
// are sized by model dimensions fixed at fit time; a fresh surrogate
// per decision is the paper's design, and zero-alloc steady-state
// scoring is tracked as ROADMAP work.
use crate::acu::{AcuModel, PreparedAcu};
use crate::asp::AspModel;
use crate::dcs::{DcsModel, PreparedDcs};
use crate::energy::EnergyModel;
use crate::trace::{ModelWindow, Trace};
use crate::ForecastError;
use tesla_units::{Celsius, KilowattHours};

/// Model hyper-parameters (Table 2 defaults).
#[derive(Debug, Clone)]
pub struct ModelConfig {
    /// Prediction horizon `L` (20 in Table 2).
    pub horizon: usize,
    /// ASP regularization `α_β` (0: OLS, its inputs are always true).
    pub alpha_asp: f64,
    /// ACU regularization `α_γ` (1).
    pub alpha_acu: f64,
    /// DCS regularization `α_θ` (1).
    pub alpha_dcs: f64,
    /// Energy regularization `α_φ` (1).
    pub alpha_energy: f64, // lint:allow(no-raw-f64-in-public-api): dimensionless ridge weight
}

impl Default for ModelConfig {
    fn default() -> Self {
        ModelConfig {
            horizon: 20,
            alpha_asp: 0.0,
            alpha_acu: 1.0,
            alpha_dcs: 1.0,
            alpha_energy: 1.0,
        }
    }
}

/// Full prediction over the `L`-step horizon for one candidate set-point
/// sequence.
#[derive(Debug, Clone)]
pub struct Prediction {
    /// Predicted average server power per step, kW.
    pub power: Vec<f64>, // lint:allow(no-raw-f64-in-public-api): bulk prediction series
    /// Predicted ACU inlet temperature, `[N_a][L]`, °C.
    pub inlet: Vec<Vec<f64>>,
    /// Predicted rack sensor temperatures, `[N_d][L]`, °C.
    pub dc: Vec<Vec<f64>>,
    /// Predicted cooling energy over the horizon.
    pub energy: KilowattHours,
}

impl Prediction {
    /// Max predicted temperature over the given sensor subset and all
    /// steps — the left side of the thermal constraint (Eq. 9).
    pub fn max_over_sensors(&self, sensors: impl IntoIterator<Item = usize>) -> f64 {
        let mut best = f64::NEG_INFINITY;
        for k in sensors {
            if let Some(series) = self.dc.get(k) {
                for &v in series {
                    best = best.max(v);
                }
            }
        }
        best
    }
}

/// TESLA's four-sub-module DC time-series model.
#[derive(Debug, Clone)]
pub struct DcTimeSeriesModel {
    asp: AspModel,
    acu: AcuModel,
    dcs: DcsModel,
    energy: EnergyModel,
    config: ModelConfig,
    n_acu: usize,
    n_dc: usize,
}

impl DcTimeSeriesModel {
    /// Trains all four sub-modules on a trace.
    ///
    /// The sub-modules are independent given the trace (§3.2 trains them
    /// "separately" on true values), so each is fitted on its own.
    // analysis:setup: model (re)training is the periodic fit phase, sized
    // by history length; the steady-state decide loop only *reads* the
    // fitted model through prepare()/predict().
    pub fn fit(trace: &Trace, config: ModelConfig) -> Result<Self, ForecastError> {
        let _fit_timer = tesla_obs::Timer::start(tesla_obs::histogram!("forecast_fit_seconds"));
        let l = config.horizon;
        trace.validate(2 * l + 1)?;
        let asp = AspModel::fit(trace, l, config.alpha_asp);
        let energy = EnergyModel::fit(trace, l, config.alpha_energy);
        let acu = AcuModel::fit(trace, l, config.alpha_acu);
        let dcs = DcsModel::fit(trace, l, config.alpha_dcs);
        Ok(DcTimeSeriesModel {
            asp: asp?,
            acu: acu?,
            dcs: dcs?,
            energy: energy?,
            n_acu: trace.n_acu_sensors(),
            n_dc: trace.n_dc_sensors(),
            config,
        })
    }

    /// The configuration used at fit time.
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// Number of ACU inlet sensors the model was trained with.
    pub fn n_acu_sensors(&self) -> usize {
        self.n_acu
    }

    /// Number of rack sensors the model was trained with.
    pub fn n_dc_sensors(&self) -> usize {
        self.n_dc
    }

    /// Predicts the horizon under a *constant* candidate set-point — the
    /// form the optimizer uses (Eq. 5 constrains `s_{t+1} = … = s_{t+L}`).
    pub fn predict(
        &self,
        window: &ModelWindow,
        setpoint: Celsius,
    ) -> Result<Prediction, ForecastError> {
        self.predict_with_setpoints(window, &vec![setpoint; self.config.horizon])
    }

    /// Builds a per-decision prepared predictor for this window.
    ///
    /// Everything that depends only on the lag window — the full ASP
    /// rollout plus the `sensors × steps × lags` dot products inside the
    /// ACU and DCS sub-modules — is computed once here; each subsequent
    /// [`PreparedDecision::predict`] call pays only for the candidate-
    /// dependent exogenous terms. This is the forecast side of the ≥5×
    /// decide-latency win (see `docs/PERFORMANCE.md`): the optimizer
    /// probes ~20 candidate set-points per decision against the *same*
    /// window.
    pub fn prepare(&self, window: &ModelWindow) -> Result<PreparedDecision<'_>, ForecastError> {
        let _prepare_timer =
            tesla_obs::Timer::start(tesla_obs::histogram!("forecast_prepare_seconds"));
        let l = self.config.horizon;
        window.check_shape(l, self.n_acu, self.n_dc)?;
        let power = self.asp.predict(&window.power)?;
        let acu = self.acu.prepare(window)?;
        let dcs = self.dcs.prepare(window, &power)?;
        Ok(PreparedDecision {
            model: self,
            power,
            acu,
            dcs,
        })
    }

    /// Predicts the horizon under an arbitrary future set-point sequence.
    ///
    /// Chain per Fig. 6: ASP → ACU (uses ASP output) → DCS (uses both) and
    /// energy (uses set-points + ACU output).
    pub fn predict_with_setpoints(
        &self,
        window: &ModelWindow,
        setpoints: &[Celsius],
    ) -> Result<Prediction, ForecastError> {
        let _predict_timer =
            tesla_obs::Timer::start(tesla_obs::histogram!("forecast_predict_seconds"));
        let l = self.config.horizon;
        window.check_shape(l, self.n_acu, self.n_dc)?;
        if setpoints.len() != l {
            return Err(ForecastError::BadWindow(format!(
                "expected {l} future setpoints, got {}",
                setpoints.len()
            )));
        }
        let raw_setpoints = Celsius::to_raw_vec(setpoints);
        let power = self.asp.predict(&window.power)?;
        let inlet = self.acu.predict(window, &raw_setpoints, &power)?;
        let dc = self.dcs.predict(window, &power, &inlet)?;
        let energy = self.energy.predict(setpoints, &inlet)?;
        Ok(Prediction {
            power,
            inlet,
            dc,
            energy,
        })
    }
}

/// A predictor specialized to one lag window (one control decision).
///
/// Produced by [`DcTimeSeriesModel::prepare`]; each [`Self::predict`]
/// call is bit-identical to [`DcTimeSeriesModel::predict`] on the same
/// window — the hoisted dot products accumulate in the exact order the
/// direct path uses, so batched/parallel callers make the same decisions
/// as serial ones.
#[derive(Debug)]
pub struct PreparedDecision<'m> {
    model: &'m DcTimeSeriesModel,
    /// ASP rollout for the window (window-only, candidate-independent).
    power: Vec<f64>,
    acu: PreparedAcu,
    dcs: PreparedDcs,
}

impl PreparedDecision<'_> {
    /// The ASP power rollout shared by every candidate.
    // lint:allow(no-raw-f64-in-public-api): bulk prediction series
    pub fn power(&self) -> &[f64] {
        &self.power
    }

    /// Predicts the horizon under a *constant* candidate set-point.
    pub fn predict(&self, setpoint: Celsius) -> Result<Prediction, ForecastError> {
        let _predict_timer =
            tesla_obs::Timer::start(tesla_obs::histogram!("forecast_predict_seconds"));
        let l = self.model.config.horizon;
        let inlet = self
            .model
            .acu
            .predict_prepared(&self.acu, setpoint.value(), &self.power)?;
        let dc = self.model.dcs.predict_prepared(&self.dcs, &inlet)?;
        let energy = self.model.energy.predict(&vec![setpoint; l], &inlet)?;
        Ok(Prediction {
            power: self.power.clone(),
            inlet,
            dc,
            energy,
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A coupled synthetic plant: power random-walks, inlet follows
    /// set-point + power, sensors follow inlet.
    pub(crate) fn coupled_trace(t: usize, seed: u64) -> Trace {
        let mut tr = Trace::with_sensors(2, 4);
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut rand = move || {
            // xorshift64*
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545F4914F6CDD1D) >> 33) as f64 / (1u64 << 31) as f64 - 0.5
        };
        let mut p = 4.0;
        let mut a = [24.0, 24.2];
        let mut d = [19.0, 19.5, 20.0, 23.0];
        for i in 0..t {
            let sp = 21.0 + ((i / 10) % 12) as f64 * 0.4;
            p = (p + 0.2 * rand()).clamp(2.5, 8.0);
            for (j, aj) in a.iter_mut().enumerate() {
                *aj += 0.3 * (0.55 * sp + 1.6 * p + j as f64 * 0.2 - *aj) + 0.02 * rand();
            }
            let abar = (a[0] + a[1]) / 2.0;
            for (k, dk) in d.iter_mut().enumerate() {
                *dk += 0.3 * (abar - 5.0 + k as f64 * 0.8 + 0.2 * p - *dk) + 0.02 * rand();
            }
            let e = (0.02 + 0.012 * (abar - sp)).max(0.002);
            tr.push(p, &a, &d, sp, e, e * 60.0);
        }
        tr
    }

    #[test]
    fn fit_and_predict_end_to_end() {
        let tr = coupled_trace(800, 3);
        let cfg = ModelConfig {
            horizon: 8,
            ..ModelConfig::default()
        };
        let model = DcTimeSeriesModel::fit(&tr, cfg).unwrap();
        let t = 400;
        let window = tr.window_at(t, 8).unwrap();
        let truth_sp = tr.setpoint[t + 1]; // roughly constant over 10 steps
        let pred = model.predict(&window, Celsius::new(truth_sp)).unwrap();
        assert_eq!(pred.power.len(), 8);
        assert_eq!(pred.inlet.len(), 2);
        assert_eq!(pred.dc.len(), 4);
        assert!(pred.energy.value() > 0.0);
        // Predictions land in a plausible neighborhood of the truth.
        for step in 0..8 {
            let truth = tr.dc_temps[0][t + 1 + step];
            assert!(
                (pred.dc[0][step] - truth).abs() < 1.5,
                "step {step}: {} vs {truth}",
                pred.dc[0][step]
            );
        }
    }

    #[test]
    fn higher_setpoint_predicts_less_energy_and_warmer_sensors() {
        let tr = coupled_trace(800, 7);
        let cfg = ModelConfig {
            horizon: 8,
            ..ModelConfig::default()
        };
        let model = DcTimeSeriesModel::fit(&tr, cfg).unwrap();
        let window = tr.window_at(400, 8).unwrap();
        let lo = model.predict(&window, Celsius::new(21.0)).unwrap();
        let hi = model.predict(&window, Celsius::new(26.0)).unwrap();
        assert!(
            hi.energy < lo.energy,
            "hi {} vs lo {}",
            hi.energy,
            lo.energy
        );
        assert!(hi.max_over_sensors(0..4) > lo.max_over_sensors(0..4));
    }

    #[test]
    fn max_over_sensors_subsets() {
        let pred = Prediction {
            power: vec![],
            inlet: vec![],
            dc: vec![vec![1.0, 5.0], vec![9.0, 2.0], vec![3.0, 3.0]],
            energy: KilowattHours::new(0.0),
        };
        assert_eq!(pred.max_over_sensors(0..2), 9.0);
        assert_eq!(pred.max_over_sensors([0usize, 2]), 5.0);
        assert_eq!(pred.max_over_sensors([2usize]), 3.0);
    }

    #[test]
    fn window_shape_is_validated() {
        let tr = coupled_trace(400, 1);
        let cfg = ModelConfig {
            horizon: 6,
            ..ModelConfig::default()
        };
        let model = DcTimeSeriesModel::fit(&tr, cfg).unwrap();
        let bad = tr.window_at(200, 5).unwrap();
        assert!(model.predict(&bad, Celsius::new(23.0)).is_err());
        let good = tr.window_at(200, 6).unwrap();
        assert!(model
            .predict_with_setpoints(&good, &[Celsius::new(23.0); 4])
            .is_err());
    }

    #[test]
    fn prepared_predictions_bit_identical_to_direct() {
        let tr = coupled_trace(800, 11);
        let cfg = ModelConfig {
            horizon: 8,
            ..ModelConfig::default()
        };
        let model = DcTimeSeriesModel::fit(&tr, cfg).unwrap();
        let window = tr.window_at(400, 8).unwrap();
        let prep = model.prepare(&window).unwrap();
        assert_eq!(prep.power().len(), 8);
        for sp in [20.5, 22.0, 23.75, 26.0, 29.1] {
            let direct = model.predict(&window, Celsius::new(sp)).unwrap();
            let fast = prep.predict(Celsius::new(sp)).unwrap();
            assert_eq!(direct.power, fast.power, "sp {sp}");
            assert_eq!(direct.inlet, fast.inlet, "sp {sp}");
            assert_eq!(direct.dc, fast.dc, "sp {sp}");
            assert_eq!(direct.energy.value(), fast.energy.value(), "sp {sp}");
        }
    }

    #[test]
    fn prepare_validates_window_shape() {
        let tr = coupled_trace(400, 1);
        let cfg = ModelConfig {
            horizon: 6,
            ..ModelConfig::default()
        };
        let model = DcTimeSeriesModel::fit(&tr, cfg).unwrap();
        assert!(model.prepare(&tr.window_at(200, 5).unwrap()).is_err());
        assert!(model.prepare(&tr.window_at(200, 6).unwrap()).is_ok());
    }

    #[test]
    fn default_config_matches_table2() {
        let c = ModelConfig::default();
        assert_eq!(c.horizon, 20);
        assert_eq!(c.alpha_asp, 0.0);
        assert_eq!(c.alpha_acu, 1.0);
        assert_eq!(c.alpha_dcs, 1.0);
        assert_eq!(c.alpha_energy, 1.0);
    }
}
