//! The TESLA controller: Fig. 5's loop body, Fig. 7's decision pipeline.

// analysis:allow-file(panic-free-control-path): history columns are
// validated rectangular before decide() runs; window indices derive
// from those checked lengths.
// analysis:allow-file(no-alloc-in-decide-steady-state): the per-
// minute decision assembles bounded history/hint/outcome vectors;
// the paper's controller re-plans from scratch each minute.
use crate::checkpoint::{ByteReader, ByteWriter};
use crate::controller::Controller;
use crate::objective::{constraint, interruption_penalty, objective};
use crate::smoothing::SmoothingBuffer;
use crate::CoreError;
use std::collections::VecDeque;
use tesla_bo::{BayesianOptimizer, BoConfig, BoOutcome, PredictionErrorMonitor};
use tesla_forecast::{DcTimeSeriesModel, ModelConfig, Trace};
use tesla_units::{Celsius, DegC, NOMINAL_SETPOINT};

/// TESLA configuration (Table 2 defaults).
#[derive(Debug, Clone)]
pub struct TeslaConfig {
    /// Time-series model hyper-parameters (horizon `L = 20`, α's).
    pub model: ModelConfig,
    /// Bayesian-optimizer settings (bounds = ACU spec range).
    pub bo: BoConfig,
    /// Cold-aisle temperature limit `d_allowed` (22 °C).
    pub d_allowed: Celsius,
    /// Safety head-room subtracted from `d_allowed` inside the
    /// optimizer's constraint (°C). The TSV metric is still scored at
    /// `d_allowed`; the margin absorbs model error and sensor noise so
    /// marginal decisions don't realize just past the limit.
    pub safety_margin: DegC,
    /// Interruption-penalty threshold `κ` (0.5 °C).
    pub kappa: DegC,
    /// Weight of the interruption penalty in the objective, kWh per
    /// °C·step (the paper's normalized units make E and D commensurate;
    /// in physical units the trade-off is explicit).
    pub interruption_weight: f64,
    /// Smoothing-buffer length `N` (5).
    pub smoothing: usize,
    /// Bootstrap sample count `N_b` (500).
    pub n_bootstrap: usize,
    /// Indices of the cold-aisle sensors (`I_cold` of Eq. 9).
    pub cold_sensors: Vec<usize>,
    /// Prediction-error monitor window, samples (one day).
    pub monitor_window: usize,
    /// Prior (pre-warm-up) noise variances for (objective, constraint).
    pub prior_noise: (f64, f64),
    /// Set-point returned before enough history exists.
    pub cold_start_setpoint: Celsius,
    /// Online recalibration: refit the DC time-series model from the
    /// trailing history every this-many decisions (§3.3: after an
    /// S_min fallback TESLA "will re-calibrate itself later"; §8 notes
    /// the decision stage is decoupled from modeling, so the model can be
    /// refreshed in place). `None` disables (the paper's deployment
    /// trains offline once).
    pub retrain_every: Option<u64>,
    /// Minimum trailing-history length (samples) required to retrain.
    pub retrain_min_history: usize,
    /// Worker threads for batched candidate evaluation (`std::thread::
    /// scope` fan-out inside one decision). `0` or `1` evaluates serially
    /// with no threads spawned. Results are written by batch position, so
    /// every worker count picks bit-identical set-points for the same
    /// seed — this only trades wall-clock for cores.
    pub parallel_workers: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TeslaConfig {
    fn default() -> Self {
        TeslaConfig {
            model: ModelConfig::default(),
            bo: BoConfig::default(),
            d_allowed: Celsius::new(22.0),
            safety_margin: DegC::new(0.5),
            kappa: DegC::new(0.5),
            interruption_weight: 0.1,
            smoothing: 5,
            n_bootstrap: 500,
            cold_sensors: (0..11).collect(),
            monitor_window: PredictionErrorMonitor::ONE_DAY_MINUTES,
            prior_noise: (0.01, 0.25),
            cold_start_setpoint: NOMINAL_SETPOINT,
            retrain_every: None,
            retrain_min_history: 6 * 60,
            parallel_workers: 1,
            seed: 0,
        }
    }
}

/// A prediction filed for later scoring by the error monitor.
#[derive(Debug, Clone, Copy)]
struct PendingPrediction {
    /// Trace index the prediction was made at.
    made_at: usize,
    /// Predicted objective components under the executed decision.
    predicted_energy: f64,
    /// Predicted interruption penalty (needed to reconstruct O).
    predicted_penalty: f64,
    /// Predicted constraint value.
    predicted_constraint: f64,
    /// The set-point the prediction assumed.
    setpoint: f64,
}

/// The TESLA cooling controller.
pub struct TeslaController {
    model: DcTimeSeriesModel,
    optimizer: BayesianOptimizer,
    monitor: PredictionErrorMonitor,
    buffer: SmoothingBuffer,
    config: TeslaConfig,
    pending: VecDeque<PendingPrediction>,
    step: u64,
    last_outcome: Option<BoOutcome>,
    fallback_count: u64,
    retrain_count: u64,
}

impl TeslaController {
    /// Builds the controller around a model trained offline on the sweep
    /// dataset (§5.1).
    pub fn new(trace: &Trace, config: TeslaConfig) -> Result<Self, CoreError> {
        let model = DcTimeSeriesModel::fit(trace, config.model.clone())?;
        Self::with_model(model, config)
    }

    /// Builds the controller from an already-trained model.
    pub fn with_model(model: DcTimeSeriesModel, config: TeslaConfig) -> Result<Self, CoreError> {
        for &k in &config.cold_sensors {
            if k >= model.n_dc_sensors() {
                return Err(CoreError::Config(format!(
                    "cold sensor index {k} out of range ({} sensors)",
                    model.n_dc_sensors()
                )));
            }
        }
        let optimizer = BayesianOptimizer::new(config.bo.clone())?;
        let monitor = PredictionErrorMonitor::new(config.monitor_window, config.prior_noise);
        let buffer = SmoothingBuffer::new(config.smoothing);
        Ok(TeslaController {
            model,
            optimizer,
            monitor,
            buffer,
            config,
            pending: VecDeque::new(),
            step: 0,
            last_outcome: None,
            fallback_count: 0,
            retrain_count: 0,
        })
    }

    /// The configuration.
    pub fn config(&self) -> &TeslaConfig {
        &self.config
    }

    /// The limit the optimizer actually constrains against:
    /// `d_allowed − safety_margin`.
    fn d_effective(&self) -> Celsius {
        self.config.d_allowed - self.config.safety_margin
    }

    /// The most recent optimizer outcome (Fig. 8b diagnostics: grid,
    /// posterior objective/constraint means, fallback flag).
    pub fn last_outcome(&self) -> Option<&BoOutcome> {
        self.last_outcome.as_ref()
    }

    /// Number of prediction errors currently in the monitor.
    pub fn monitor_len(&self) -> usize {
        self.monitor.len()
    }

    /// Number of decisions that fell back to `S_min` because no candidate
    /// met the feasibility threshold (§3.3's backup strategy).
    pub fn fallback_count(&self) -> u64 {
        self.fallback_count
    }

    /// Number of online model recalibrations performed so far.
    pub fn retrain_count(&self) -> u64 {
        self.retrain_count
    }

    /// Adjusts the thermal-safety limit `d_allowed` during deployment.
    ///
    /// §8: "since the set-point optimization takes place at every control
    /// step, TESLA can adjust the thermal safety constraints during
    /// deployment without retraining, while existing DRL methods have to
    /// retrain their agents." Only the constraint function changes; the
    /// DC time-series model is untouched. Pending predictions are
    /// re-based so the error monitor is not polluted by the limit change.
    pub fn set_thermal_limit(&mut self, d_allowed: Celsius) {
        let delta = (d_allowed - self.config.d_allowed).value();
        if delta == 0.0 {
            return;
        }
        self.config.d_allowed = d_allowed;
        // Pending constraint predictions were expressed relative to the
        // old limit: C = max(d̂) − d_allowed. Shift them to the new one.
        for p in &mut self.pending {
            p.predicted_constraint -= delta;
        }
    }

    /// Adjusts the interruption-penalty threshold κ during deployment.
    pub fn set_kappa(&mut self, kappa: DegC) {
        self.config.kappa = kappa.max(DegC::new(0.0));
    }

    /// Scores matured predictions against realized telemetry and feeds
    /// the error monitor (Fig. 7's "online monitor" loop).
    fn settle_pending(&mut self, history: &Trace) {
        let l = self.config.model.horizon;
        let now = history.len().saturating_sub(1);
        while let Some(front) = self.pending.front().copied() {
            let due = front.made_at + l;
            if due > now {
                break;
            }
            self.pending.pop_front();
            // Realized objective over (made_at+1 ..= made_at+L).
            let actual_energy: f64 = history.acu_energy[front.made_at + 1..=due].iter().sum();
            // Realized interruption proxy from the true inlet temps.
            let inlet_actual: Vec<Vec<f64>> = history
                .acu_inlet
                .iter()
                .map(|col| col[front.made_at + 1..=due].to_vec())
                .collect();
            let actual_penalty = interruption_penalty(
                Celsius::new(front.setpoint),
                &inlet_actual,
                self.config.kappa,
            );
            let w = self.config.interruption_weight;
            let predicted_obj = -(front.predicted_energy + w * front.predicted_penalty);
            let actual_obj = -(actual_energy + w * actual_penalty);

            // Realized constraint: worst cold-aisle reading over the span.
            let mut actual_max = f64::NEG_INFINITY;
            for &k in &self.config.cold_sensors {
                for t in front.made_at + 1..=due {
                    actual_max = actual_max.max(history.dc_temps[k][t]);
                }
            }
            let actual_con =
                actual_max - (self.config.d_allowed - self.config.safety_margin).value();

            self.monitor.record(
                predicted_obj - actual_obj,
                front.predicted_constraint - actual_con,
            );
        }
    }
}

impl Controller for TeslaController {
    fn name(&self) -> &str {
        "tesla"
    }

    fn decide(&mut self, history: &Trace) -> f64 {
        let l = self.config.model.horizon;
        let now = history.len().saturating_sub(1);
        if history.len() < l {
            // Not enough history for a window yet.
            return self.buffer.push(self.config.cold_start_setpoint.value());
        }
        let Ok(window) = history.window_at(now, l) else {
            return self.buffer.push(self.config.cold_start_setpoint.value());
        };

        self.settle_pending(history);
        self.step += 1;
        let mut step_span = tesla_obs::span!("control_step", step = self.step);
        let _step_timer = tesla_obs::Timer::start(tesla_obs::histogram!("tesla_decide_seconds"));
        tesla_obs::counter!("tesla_control_steps_total").inc();

        // Online recalibration: refresh the model from the trailing
        // history on the configured cadence.
        if let Some(every) = self.config.retrain_every {
            if every > 0
                && self.step.is_multiple_of(every)
                && history.len() >= self.config.retrain_min_history
            {
                if let Ok(new_model) = DcTimeSeriesModel::fit(history, self.config.model.clone()) {
                    self.model = new_model;
                    self.retrain_count += 1;
                    tesla_obs::counter!("tesla_retrains_total").inc();
                }
            }
        }
        let noise = self
            .monitor
            .bootstrap_variances(self.config.n_bootstrap, self.config.seed ^ self.step);

        // The optimizer probes the DC time-series model (Fig. 7): each
        // candidate set-point yields a predicted objective/constraint.
        // The window is fixed for the whole decision, so the model is
        // prepared once (all lag-block dot products hoisted) and each
        // candidate pays only for its exogenous terms; predictions are
        // memoized so the chosen set-point's rollout is never recomputed.
        let cfg = &self.config;
        let d_eff = self.config.d_allowed - self.config.safety_margin;
        let Ok(prepared) = self.model.prepare(&window) else {
            return self.buffer.push(self.config.bo.bounds.0);
        };
        let prepared = &prepared;
        let workers = self.config.parallel_workers.max(1);
        let mut cache: std::collections::HashMap<u64, tesla_forecast::Prediction> =
            std::collections::HashMap::new();
        let eval_batch = |batch: &[f64]| -> Vec<(f64, f64)> {
            let preds: Vec<Option<tesla_forecast::Prediction>> = if workers > 1 && batch.len() > 1 {
                let mut out: Vec<Option<tesla_forecast::Prediction>> =
                    (0..batch.len()).map(|_| None).collect();
                let chunk = batch.len().div_ceil(workers.min(batch.len()));
                std::thread::scope(|scope| {
                    for (bs, os) in batch.chunks(chunk).zip(out.chunks_mut(chunk)) {
                        scope.spawn(move || {
                            for (slot, &s) in os.iter_mut().zip(bs) {
                                *slot = prepared.predict(Celsius::new(s)).ok();
                            }
                        });
                    }
                });
                out
            } else {
                batch
                    .iter()
                    .map(|&s| prepared.predict(Celsius::new(s)).ok())
                    .collect()
            };
            batch
                .iter()
                .zip(preds)
                .map(|(&s, pred)| match pred {
                    Some(pred) => {
                        let s = Celsius::new(s);
                        let pair = (
                            objective(&pred, s, cfg.kappa, cfg.interruption_weight),
                            constraint(&pred, &cfg.cold_sensors, d_eff),
                        );
                        cache.insert(s.value().to_bits(), pred);
                        pair
                    }
                    // A failed prediction is treated as badly infeasible
                    // so the optimizer avoids it.
                    None => (f64::MIN / 2.0, f64::MAX / 2.0),
                })
                .collect()
        };
        // Warm-start candidates: the energy-optimal set-point sits near
        // the interruption kink at `inlet + κ` (§6.2: "TESLA saves
        // cooling energy by selecting the highest set-point such that
        // cooling interruption is minimized"), so evaluate that
        // neighbourhood plus the currently executed set-point directly.
        let inlet_now = history
            .acu_inlet
            .iter()
            .filter_map(|col| col.last())
            .sum::<f64>()
            / history.acu_inlet.len().max(1) as f64;
        let kappa = self.config.kappa.value();
        let hints = [
            inlet_now - 2.0 * kappa,
            inlet_now,
            inlet_now + kappa,
            inlet_now + 2.0 * kappa,
            inlet_now + 4.0 * kappa,
            history.setpoint[now],
        ];
        let outcome = match self.optimizer.optimize_batched(
            eval_batch,
            noise,
            self.config.seed ^ (self.step << 17),
            &hints,
        ) {
            Ok(o) => o,
            Err(_) => {
                // Optimizer failure: behave like the infeasible fallback.
                return self.buffer.push(self.config.bo.bounds.0);
            }
        };

        // File the prediction under the *computed* set-point for later
        // error-monitor scoring. The optimizer only ever recommends an
        // evaluated point, so this is a memo-cache hit, not a re-rollout.
        let chosen = cache
            .remove(&outcome.setpoint.to_bits())
            .or_else(|| prepared.predict(Celsius::new(outcome.setpoint)).ok());
        if let Some(pred) = chosen {
            self.pending.push_back(PendingPrediction {
                made_at: now,
                predicted_energy: pred.energy.value(),
                predicted_penalty: interruption_penalty(
                    Celsius::new(outcome.setpoint),
                    &pred.inlet,
                    self.config.kappa,
                ),
                predicted_constraint: constraint(
                    &pred,
                    &self.config.cold_sensors,
                    self.d_effective(),
                ),
                setpoint: outcome.setpoint,
            });
        }

        let computed = outcome.setpoint;
        if outcome.fallback {
            self.fallback_count += 1;
            tesla_obs::counter!("tesla_fallbacks_total").inc();
        }
        self.last_outcome = Some(outcome);
        // §3.4: the executed set-point is the smoothing buffer's running
        // average of the computed ones.
        let executed = self.buffer.push(computed);
        step_span.record_field("computed_setpoint_celsius", computed);
        step_span.record_field("executed_setpoint_celsius", executed);
        executed
    }

    fn reset(&mut self) {
        self.buffer.clear();
        self.pending.clear();
        self.step = 0;
        self.last_outcome = None;
        self.fallback_count = 0;
        self.retrain_count = 0;
    }

    fn save_state(&self) -> Option<Vec<u8>> {
        let mut w = ByteWriter::new();
        w.u8(TESLA_STATE_VERSION);
        w.u64(self.step);
        w.u64(self.fallback_count);
        w.u64(self.retrain_count);
        let buffer = self.buffer.snapshot();
        w.u32(buffer.len() as u32);
        for v in buffer {
            w.f64(v);
        }
        w.u32(self.pending.len() as u32);
        for p in &self.pending {
            w.u64(p.made_at as u64);
            w.f64(p.predicted_energy);
            w.f64(p.predicted_penalty);
            w.f64(p.predicted_constraint);
            w.f64(p.setpoint);
        }
        let pairs = self.monitor.error_pairs();
        w.u32(pairs.len() as u32);
        for (obj, con) in pairs {
            w.f64(obj);
            w.f64(con);
        }
        Some(w.into_vec())
    }

    fn load_state(&mut self, state: &[u8]) -> bool {
        // Parse everything into temporaries first so a truncated or
        // mis-versioned blob leaves the controller untouched.
        let Some(parsed) = parse_tesla_state(state) else {
            return false;
        };
        self.step = parsed.step;
        self.fallback_count = parsed.fallback_count;
        self.retrain_count = parsed.retrain_count;
        self.buffer.restore(&parsed.buffer);
        self.pending = parsed.pending;
        self.monitor.restore_error_pairs(&parsed.monitor_pairs);
        // The last optimizer outcome is a per-decision diagnostic; the
        // next live decision repopulates it.
        self.last_outcome = None;
        true
    }

    fn replay_minute(&mut self, _minute: usize, history: &Trace) {
        // Mirror decide()'s per-step gating exactly — same cold-start
        // early-outs, same step counter, same retrain cadence — without
        // the decision itself. The model refit is deterministic in the
        // history, so replaying it reproduces the model an uninterrupted
        // run would hold at the resume cursor. Buffer, pending, and
        // monitor state are NOT evolved here: they are installed verbatim
        // from the checkpoint via `load_state` at the cursor.
        let l = self.config.model.horizon;
        let now = history.len().saturating_sub(1);
        if history.len() < l || history.window_at(now, l).is_err() {
            return;
        }
        self.step += 1;
        if let Some(every) = self.config.retrain_every {
            if every > 0
                && self.step.is_multiple_of(every)
                && history.len() >= self.config.retrain_min_history
            {
                if let Ok(new_model) = DcTimeSeriesModel::fit(history, self.config.model.clone()) {
                    self.model = new_model;
                    self.retrain_count += 1;
                }
            }
        }
    }
}

/// Version tag for [`TeslaController::save_state`] blobs.
const TESLA_STATE_VERSION: u8 = 1;

/// Decoded `save_state` blob, staged before committing to the controller.
struct ParsedTeslaState {
    step: u64,
    fallback_count: u64,
    retrain_count: u64,
    buffer: Vec<f64>,
    pending: VecDeque<PendingPrediction>,
    monitor_pairs: Vec<(f64, f64)>,
}

fn parse_tesla_state(state: &[u8]) -> Option<ParsedTeslaState> {
    let mut r = ByteReader::new(state);
    if r.u8()? != TESLA_STATE_VERSION {
        return None;
    }
    let step = r.u64()?;
    let fallback_count = r.u64()?;
    let retrain_count = r.u64()?;
    let n_buffer = r.u32()? as usize;
    if n_buffer * 8 > r.remaining() {
        return None;
    }
    let mut buffer = Vec::with_capacity(n_buffer);
    for _ in 0..n_buffer {
        buffer.push(r.f64()?);
    }
    let n_pending = r.u32()? as usize;
    if n_pending * 40 > r.remaining() {
        return None;
    }
    let mut pending = VecDeque::with_capacity(n_pending);
    for _ in 0..n_pending {
        pending.push_back(PendingPrediction {
            made_at: r.u64()? as usize,
            predicted_energy: r.f64()?,
            predicted_penalty: r.f64()?,
            predicted_constraint: r.f64()?,
            setpoint: r.f64()?,
        });
    }
    let n_pairs = r.u32()? as usize;
    if n_pairs * 16 > r.remaining() {
        return None;
    }
    let mut monitor_pairs = Vec::with_capacity(n_pairs);
    for _ in 0..n_pairs {
        monitor_pairs.push((r.f64()?, r.f64()?));
    }
    if r.remaining() != 0 {
        return None;
    }
    Some(ParsedTeslaState {
        step,
        fallback_count,
        retrain_count,
        buffer,
        pending,
        monitor_pairs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{generate_sweep_trace, DatasetConfig};
    use tesla_sim::SimConfig;

    /// Small but real: trains on a short sweep trace from the actual
    /// simulator.
    fn quick_controller() -> (TeslaController, Trace) {
        let dcfg = DatasetConfig {
            days: 0.6,
            seed: 11,
            ..DatasetConfig::default()
        };
        let trace = generate_sweep_trace(&dcfg).unwrap();
        let config = TeslaConfig {
            model: ModelConfig {
                horizon: 8,
                ..ModelConfig::default()
            },
            bo: BoConfig {
                n_init: 5,
                n_iter: 2,
                n_mc: 24,
                n_grid: 16,
                ..BoConfig::default()
            },
            n_bootstrap: 64,
            ..TeslaConfig::default()
        };
        let ctrl = TeslaController::new(&trace, config).unwrap();
        (ctrl, trace)
    }

    #[test]
    fn cold_start_returns_default() {
        let (mut ctrl, _) = quick_controller();
        let short = Trace::with_sensors(2, 35);
        let sp = ctrl.decide(&short);
        assert_eq!(sp, 23.0);
    }

    #[test]
    fn decision_is_within_acu_bounds() {
        let (mut ctrl, trace) = quick_controller();
        let sp = ctrl.decide(&trace);
        assert!((20.0..=35.0).contains(&sp), "setpoint {sp}");
        assert!(ctrl.last_outcome().is_some());
    }

    #[test]
    fn monitor_fills_as_predictions_mature() {
        let (mut ctrl, trace) = quick_controller();
        // Decide at several successive prefixes of the trace so earlier
        // predictions mature.
        let full = trace.len();
        for end in (full - 30)..full {
            let mut prefix = Trace::with_sensors(2, 35);
            for t in 0..=end {
                prefix.push(
                    trace.avg_power[t],
                    &trace.acu_inlet.iter().map(|c| c[t]).collect::<Vec<_>>(),
                    &trace.dc_temps.iter().map(|c| c[t]).collect::<Vec<_>>(),
                    trace.setpoint[t],
                    trace.acu_energy[t],
                    trace.acu_power[t],
                );
            }
            ctrl.decide(&prefix);
        }
        assert!(
            ctrl.monitor_len() > 10,
            "monitor should have settled predictions, has {}",
            ctrl.monitor_len()
        );
    }

    #[test]
    fn reset_clears_state() {
        let (mut ctrl, trace) = quick_controller();
        ctrl.decide(&trace);
        ctrl.reset();
        assert!(ctrl.last_outcome().is_none());
    }

    #[test]
    fn invalid_cold_sensor_index_rejected() {
        let dcfg = DatasetConfig {
            days: 0.4,
            seed: 3,
            ..DatasetConfig::default()
        };
        let trace = generate_sweep_trace(&dcfg).unwrap();
        let config = TeslaConfig {
            model: ModelConfig {
                horizon: 6,
                ..ModelConfig::default()
            },
            cold_sensors: vec![99],
            ..TeslaConfig::default()
        };
        assert!(TeslaController::new(&trace, config).is_err());
    }

    #[test]
    fn default_config_matches_table2() {
        let c = TeslaConfig::default();
        assert_eq!(c.model.horizon, 20);
        assert_eq!(c.d_allowed, Celsius::new(22.0));
        assert_eq!(c.safety_margin, DegC::new(0.5));
        assert_eq!(c.kappa, DegC::new(0.5));
        assert_eq!(c.smoothing, 5);
        assert_eq!(c.n_bootstrap, 500);
        assert_eq!(c.cold_sensors.len(), 11);
        assert_eq!(c.monitor_window, 1440);
    }

    #[test]
    fn online_recalibration_refits_on_cadence() {
        let dcfg = DatasetConfig {
            days: 0.5,
            seed: 13,
            ..DatasetConfig::default()
        };
        let trace = generate_sweep_trace(&dcfg).unwrap();
        let config = TeslaConfig {
            model: ModelConfig {
                horizon: 6,
                ..ModelConfig::default()
            },
            bo: BoConfig {
                n_init: 4,
                n_iter: 1,
                n_mc: 16,
                n_grid: 11,
                ..BoConfig::default()
            },
            n_bootstrap: 32,
            retrain_every: Some(3),
            retrain_min_history: 50,
            ..TeslaConfig::default()
        };
        let mut ctrl = TeslaController::new(&trace, config).unwrap();
        for _ in 0..7 {
            let sp = ctrl.decide(&trace);
            assert!((20.0..=35.0).contains(&sp));
        }
        // Steps 3 and 6 should have retrained.
        assert_eq!(ctrl.retrain_count(), 2);
        ctrl.reset();
        assert_eq!(ctrl.retrain_count(), 0);
    }

    #[test]
    fn retraining_disabled_by_default() {
        let (mut ctrl, trace) = quick_controller();
        for _ in 0..4 {
            ctrl.decide(&trace);
        }
        assert_eq!(ctrl.retrain_count(), 0);
    }

    #[test]
    fn thermal_limit_adjusts_without_retraining() {
        // §8's deployment-flexibility claim: tightening the limit makes
        // the controller pick a colder set-point with the SAME model. A
        // limit no data-center air can satisfy forces the S_min backup.
        let (mut ctrl, trace) = quick_controller();
        let sp_loose = ctrl.decide(&trace);
        ctrl.reset();
        ctrl.set_thermal_limit(Celsius::new(10.0)); // unattainable: every candidate infeasible
        let sp_tight = ctrl.decide(&trace);
        assert!(
            sp_tight < sp_loose,
            "tighter limit ({sp_tight}) must give a colder set-point than loose ({sp_loose})"
        );
        assert_eq!(ctrl.config().d_allowed, Celsius::new(10.0));
    }

    #[test]
    fn safety_margin_gives_colder_setpoints() {
        let dcfg = DatasetConfig {
            days: 0.6,
            seed: 11,
            ..DatasetConfig::default()
        };
        let trace = generate_sweep_trace(&dcfg).unwrap();
        let base = TeslaConfig {
            model: ModelConfig {
                horizon: 8,
                ..ModelConfig::default()
            },
            bo: BoConfig {
                n_init: 5,
                n_iter: 2,
                n_mc: 24,
                n_grid: 16,
                ..BoConfig::default()
            },
            n_bootstrap: 64,
            ..TeslaConfig::default()
        };
        let mut loose = TeslaController::new(
            &trace,
            TeslaConfig {
                safety_margin: DegC::new(0.0),
                ..base.clone()
            },
        )
        .unwrap();
        let mut tight = TeslaController::new(
            &trace,
            TeslaConfig {
                safety_margin: DegC::new(1.5),
                ..base
            },
        )
        .unwrap();
        let sp_loose = loose.decide(&trace);
        let sp_tight = tight.decide(&trace);
        assert!(
            sp_tight <= sp_loose,
            "margin must not raise the set-point: {sp_tight} vs {sp_loose}"
        );
    }

    #[test]
    fn kappa_is_clamped_nonnegative() {
        let (mut ctrl, _) = quick_controller();
        ctrl.set_kappa(DegC::new(-1.0));
        assert_eq!(ctrl.config().kappa, DegC::new(0.0));
        ctrl.set_kappa(DegC::new(0.75));
        assert_eq!(ctrl.config().kappa, DegC::new(0.75));
    }

    #[test]
    fn parallel_workers_pick_identical_setpoint_sequence() {
        // The tentpole determinism guarantee: the batched/parallel decide
        // path must produce the same set-point sequence as the serial
        // path for the same seed — worker count only changes wall-clock.
        let dcfg = DatasetConfig {
            days: 0.6,
            seed: 11,
            ..DatasetConfig::default()
        };
        let trace = generate_sweep_trace(&dcfg).unwrap();
        let base = TeslaConfig {
            model: ModelConfig {
                horizon: 8,
                ..ModelConfig::default()
            },
            bo: BoConfig {
                n_init: 5,
                n_iter: 2,
                n_mc: 24,
                n_grid: 16,
                ..BoConfig::default()
            },
            n_bootstrap: 64,
            ..TeslaConfig::default()
        };
        let run = |workers: usize| -> Vec<f64> {
            let mut ctrl = TeslaController::new(
                &trace,
                TeslaConfig {
                    parallel_workers: workers,
                    ..base.clone()
                },
            )
            .unwrap();
            let full = trace.len();
            ((full - 10)..full)
                .map(|end| {
                    let mut prefix = Trace::with_sensors(2, 35);
                    for t in 0..=end {
                        prefix.push(
                            trace.avg_power[t],
                            &trace.acu_inlet.iter().map(|c| c[t]).collect::<Vec<_>>(),
                            &trace.dc_temps.iter().map(|c| c[t]).collect::<Vec<_>>(),
                            trace.setpoint[t],
                            trace.acu_energy[t],
                            trace.acu_power[t],
                        );
                    }
                    ctrl.decide(&prefix)
                })
                .collect()
        };
        let serial = run(1);
        let parallel = run(4);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn state_roundtrips_through_save_load() {
        let (mut ctrl, trace) = quick_controller();
        ctrl.decide(&trace);
        ctrl.decide(&trace);
        let bytes = ctrl.save_state().unwrap();
        let (mut other, _) = quick_controller();
        assert!(other.load_state(&bytes));
        // Loading must reconstruct the state bit-identically: re-saving
        // yields the same blob.
        assert_eq!(other.save_state().unwrap(), bytes);
    }

    #[test]
    fn truncated_or_misversioned_state_is_rejected() {
        let (mut ctrl, trace) = quick_controller();
        ctrl.decide(&trace);
        let bytes = ctrl.save_state().unwrap();
        let (mut other, _) = quick_controller();
        for cut in 0..bytes.len() {
            assert!(!other.load_state(&bytes[..cut]), "cut at {cut} accepted");
        }
        let mut future = bytes.clone();
        future[0] = 99; // unknown version tag
        assert!(!other.load_state(&future));
        // A failed load leaves the controller pristine: version tag,
        // three u64 counters, three empty-collection length prefixes.
        assert_eq!(other.save_state().unwrap().len(), 1 + 24 + 12);
    }

    #[test]
    fn uses_sim_config_defaults() {
        // Smoke check that the default simulator config aligns with the
        // default TESLA cold-sensor indexing.
        let sim = SimConfig::default();
        let cfg = TeslaConfig::default();
        assert!(cfg
            .cold_sensors
            .iter()
            .all(|&k| k < sim.n_cold_aisle_sensors));
    }
}
