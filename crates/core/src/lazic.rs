//! The Lazic et al. \[20\] MPC baseline (§5.3, §6.3).
//!
//! "Lazic et al. relies on an autoregressive linear modeling for DC
//! temperature prediction, based on which a gradient-descent optimizer
//! chooses the highest set-point such that the predicted maximum cold
//! aisle temperature stays below the specified 22 °C limit" — and, when
//! no feasible set-point exists, "a backup strategy of selecting
//! S_min = 20 °C" kicks in (Fig. 11a).
//!
//! The decision variable is scalar, so the gradient-descent search is
//! implemented as an equivalent top-down scan over the set-point grid
//! (same argmax, no local-minimum risk). Crucially — and this is the
//! paper's point — the objective contains *only* cooling energy (higher
//! set-point = cheaper), with no interruption term, which drives the ACU
//! to the constraint boundary and into repeated cooling interruptions.

use crate::checkpoint::{ByteReader, ByteWriter};
use crate::controller::Controller;
use crate::CoreError;
use tesla_forecast::{RecursiveAr, RolloutScan, Trace};
use tesla_units::{Celsius, NOMINAL_SETPOINT};

/// Lazic baseline configuration.
#[derive(Debug, Clone)]
pub struct LazicConfig {
    /// Prediction horizon in steps.
    pub horizon: usize,
    /// AR order (past frames consumed by the collective model).
    pub order: usize,
    /// Cold-aisle limit.
    pub d_allowed: Celsius,
    /// Cold-aisle sensor indices.
    pub cold_sensors: Vec<usize>,
    /// Set-point search bounds `[S_min, S_max]`.
    pub bounds: (f64, f64),
    /// Search grid step, °C.
    pub grid_step: f64,
    /// Maximum set-point change per decision, °C. The paper's optimizer
    /// is gradient descent warm-started from the previous decision, so it
    /// moves a few steps per control period rather than jumping globally.
    pub max_step_c: f64,
    /// Set-point before enough history exists.
    pub cold_start_setpoint: Celsius,
}

impl Default for LazicConfig {
    fn default() -> Self {
        LazicConfig {
            // A short re-planning lookahead: the MPC re-decides every
            // minute and only vets candidates over the next few minutes.
            // Interruption-driven temperature ramps play out over tens of
            // minutes (Fig. 3), which is precisely the dynamics this
            // controller fails to anticipate (§6.3).
            horizon: 5,
            order: 2,
            d_allowed: Celsius::new(22.0),
            cold_sensors: (0..11).collect(),
            bounds: (20.0, 35.0),
            grid_step: 0.25,
            max_step_c: 1.0,
            cold_start_setpoint: NOMINAL_SETPOINT,
        }
    }
}

/// The fitted Lazic controller.
pub struct LazicController {
    model: RecursiveAr,
    config: LazicConfig,
    last_setpoint: Option<f64>,
    /// Rollout buffers reused by every decision. They hold no decision
    /// state, so `save_state` leaves them out.
    scan: RolloutScan,
}

/// Version tag for [`LazicController::save_state`] blobs.
const LAZIC_STATE_VERSION: u8 = 1;

impl LazicController {
    /// Trains the recursive AR model (OLS, per \[20\]) on a sweep trace.
    pub fn new(trace: &Trace, config: LazicConfig) -> Result<Self, CoreError> {
        if config.bounds.0 >= config.bounds.1 || config.grid_step <= 0.0 {
            return Err(CoreError::Config("invalid Lazic bounds/grid".into()));
        }
        let model = RecursiveAr::fit(trace, config.order, 0.0)?;
        let scan = model.rollout_scan(config.horizon, &config.cold_sensors);
        Ok(LazicController {
            model,
            config,
            last_setpoint: None,
            scan,
        })
    }

    /// The configuration.
    pub fn config(&self) -> &LazicConfig {
        &self.config
    }

    /// Predicted max cold-aisle temperature over the horizon for a
    /// candidate set-point, through a fresh window and
    /// [`RecursiveAr::predict_rollout`]: the reference the prepared scan
    /// is tested against.
    #[cfg(test)]
    fn predicted_max(&self, history: &Trace, setpoint: f64) -> Option<f64> {
        let now = history.len().checked_sub(1)?;
        let lag = self.config.order.max(2);
        let window = history.window_at(now, lag).ok()?;
        let sps = vec![setpoint; self.config.horizon];
        let rollout = self.model.predict_rollout(&window, &sps).ok()?;
        let mut max = f64::NEG_INFINITY;
        for &k in &self.config.cold_sensors {
            if let Some(series) = rollout.get(k) {
                for &v in series {
                    max = max.max(v);
                }
            }
        }
        Some(max)
    }
}

impl Controller for LazicController {
    fn name(&self) -> &str {
        "lazic"
    }

    fn decide(&mut self, history: &Trace) -> f64 {
        let lag = self.config.order.max(2);
        if history.len() < lag {
            return self.config.cold_start_setpoint.value();
        }
        // Gradient-descent equivalent: search within max_step_c of the
        // previous decision, from the top down, for the highest set-point
        // whose predicted max cold-aisle temperature stays below the
        // limit.
        let (lo, hi) = self.config.bounds;
        let prev = self
            .last_setpoint
            .unwrap_or_else(|| self.config.cold_start_setpoint.value());
        let hi = hi.min(prev + self.config.max_step_c);
        let lo_local = lo.max(prev - self.config.max_step_c);
        let mut s = hi;
        // The newest frames are read once per decision, and only when the
        // window holds a candidate, so an empty window still takes the
        // S_min backup below.
        if s >= lo_local - 1e-9 && self.model.prepare_scan(history, &mut self.scan).is_err() {
            return self.config.cold_start_setpoint.value();
        }
        let limit = self.config.d_allowed;
        while s >= lo_local - 1e-9 {
            if self.model.scan_max(&mut self.scan, Celsius::new(s), limit) < limit {
                self.last_setpoint = Some(s);
                return s;
            }
            s -= self.config.grid_step;
        }
        // No feasible set-point within reach: S_min backup (§6.3).
        self.last_setpoint = Some(lo);
        lo
    }

    fn reset(&mut self) {
        self.last_setpoint = None;
    }

    /// The centre of the next search window: a version byte, a presence
    /// byte, and the bits of the previous decision when there is one.
    fn save_state(&self) -> Option<Vec<u8>> {
        let mut w = ByteWriter::new();
        w.u8(LAZIC_STATE_VERSION);
        match self.last_setpoint {
            None => w.u8(0),
            Some(s) => {
                w.u8(1);
                w.f64(s);
            }
        }
        Some(w.into_vec())
    }

    fn load_state(&mut self, state: &[u8]) -> bool {
        let mut r = ByteReader::new(state);
        if r.u8() != Some(LAZIC_STATE_VERSION) {
            return false;
        }
        let last = match r.u8() {
            Some(0) => None,
            Some(1) => match r.f64() {
                Some(s) => Some(s),
                None => return false,
            },
            _ => return false,
        };
        if r.remaining() != 0 {
            return false;
        }
        self.last_setpoint = last;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{generate_sweep_trace, DatasetConfig};

    fn controller() -> (LazicController, Trace) {
        let dcfg = DatasetConfig {
            days: 0.5,
            seed: 21,
            ..DatasetConfig::default()
        };
        let trace = generate_sweep_trace(&dcfg).unwrap();
        let ctrl = LazicController::new(&trace, LazicConfig::default()).unwrap();
        (ctrl, trace)
    }

    #[test]
    fn decision_in_bounds() {
        let (mut ctrl, trace) = controller();
        let sp = ctrl.decide(&trace);
        assert!((20.0..=35.0).contains(&sp), "setpoint {sp}");
    }

    #[test]
    fn rides_the_boundary_by_construction() {
        // Whatever it picks, the next-lower grid point must also be
        // feasible (it picked the HIGHEST feasible one) — verify the scan
        // semantics by checking its own model's predictions.
        let (mut ctrl, trace) = controller();
        let sp = ctrl.decide(&trace);
        if sp > 20.0 && sp < 35.0 {
            let m_here = ctrl.predicted_max(&trace, sp).unwrap();
            let m_above = ctrl.predicted_max(&trace, sp + 0.25).unwrap();
            assert!(m_here < 22.0);
            assert!(
                m_above >= 22.0,
                "a higher set-point should have been infeasible"
            );
        }
    }

    /// The first `len` samples of `trace`.
    fn prefix(trace: &Trace, len: usize) -> Trace {
        let cut = |c: &Vec<f64>| c[..len].to_vec();
        Trace {
            avg_power: cut(&trace.avg_power),
            acu_inlet: trace.acu_inlet.iter().map(cut).collect(),
            dc_temps: trace.dc_temps.iter().map(cut).collect(),
            setpoint: cut(&trace.setpoint),
            acu_energy: cut(&trace.acu_energy),
            acu_power: cut(&trace.acu_power),
        }
    }

    /// `trace` with only its first `n_dc` rack sensors.
    fn first_rack_sensors(trace: &Trace, n_dc: usize) -> Trace {
        Trace {
            dc_temps: trace.dc_temps[..n_dc].to_vec(),
            ..trace.clone()
        }
    }

    #[test]
    fn prepared_scan_matches_the_rollout_reference_bit_for_bit() {
        let (_, trace) = controller();
        // The sweep's 35 rack sensors make 38 models: four full panel
        // blocks of eight and a last block of six. Thirteen make 16
        // models, two full blocks.
        let thirteen = first_rack_sensors(&trace, 13);
        // The default watches a prefix of the rack sensors; the others
        // take the gathered last step, a longer lag, one step, no step
        // at all, a watched sensor in the partly filled last block, and
        // blocks filled exactly.
        let cases = [
            (&trace, LazicConfig::default()),
            (
                &trace,
                LazicConfig {
                    order: 3,
                    horizon: 4,
                    cold_sensors: vec![3, 7, 40, 7],
                    ..LazicConfig::default()
                },
            ),
            (
                &trace,
                LazicConfig {
                    order: 1,
                    horizon: 1,
                    cold_sensors: vec![10, 2],
                    ..LazicConfig::default()
                },
            ),
            (
                &trace,
                LazicConfig {
                    horizon: 0,
                    ..LazicConfig::default()
                },
            ),
            (
                &trace,
                LazicConfig {
                    cold_sensors: vec![34, 0],
                    ..LazicConfig::default()
                },
            ),
            (&thirteen, LazicConfig::default()),
        ];
        for (trace, config) in cases {
            let label = format!(
                "{} rack sensors, order {}, horizon {}, sensors {:?}",
                trace.n_dc_sensors(),
                config.order,
                config.horizon,
                config.cold_sensors
            );
            let mut ctrl = LazicController::new(trace, config).unwrap();
            for len in trace.len() - 60..trace.len() {
                let history = prefix(trace, len);
                ctrl.model.prepare_scan(&history, &mut ctrl.scan).unwrap();
                for i in 0..=60 {
                    let s = 20.0 + 0.25 * f64::from(i);
                    let reference = ctrl.predicted_max(&history, s).unwrap();
                    let full = ctrl
                        .model
                        .scan_max(&mut ctrl.scan, Celsius::new(s), Celsius::new(f64::INFINITY))
                        .value();
                    assert_eq!(
                        full.to_bits(),
                        reference.to_bits(),
                        "{label}: max at {s} °C, prefix {len}"
                    );
                    // The configured limit, and limits on either side of
                    // this max, where the early stop decides the verdict.
                    for limit in [22.0, reference, reference + 1e-9] {
                        let stopped = ctrl
                            .model
                            .scan_max(&mut ctrl.scan, Celsius::new(s), Celsius::new(limit))
                            .value();
                        assert_eq!(
                            stopped < limit,
                            reference < limit,
                            "{label}: verdict at {s} °C under {limit}, prefix {len}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn sensor_mismatch_returns_cold_start_and_an_empty_window_smin() {
        let (mut ctrl, trace) = controller();
        let mut wrong = Trace::with_sensors(trace.n_acu_sensors(), trace.n_dc_sensors() + 1);
        for t in 0..4 {
            let inlet: Vec<f64> = trace.acu_inlet.iter().map(|c| c[t]).collect();
            let mut dc: Vec<f64> = trace.dc_temps.iter().map(|c| c[t]).collect();
            dc.push(dc[0]);
            wrong.push(trace.avg_power[t], &inlet, &dc, 23.0, 0.0, 0.0);
        }
        assert_eq!(ctrl.decide(&wrong), 23.0, "mismatch: cold start");
        assert_eq!(ctrl.last_setpoint, None);

        // A warm start outside the bounds leaves no candidate to scan, so
        // the mismatched trace is never read and the backup is S_min.
        ctrl.config.cold_start_setpoint = Celsius::new(40.0);
        assert_eq!(ctrl.decide(&wrong), 20.0, "empty window: S_min");
    }

    #[test]
    fn state_blob_round_trips_and_rejects_other_blobs() {
        let (mut ctrl, trace) = controller();
        let cold = ctrl.save_state().unwrap();
        let sp = ctrl.decide(&trace);
        let warm = ctrl.save_state().unwrap();
        assert_eq!(warm.len(), 10);

        let (mut other, _) = controller();
        assert!(other.load_state(&warm));
        assert_eq!(other.last_setpoint.map(f64::to_bits), Some(sp.to_bits()));
        assert!(other.load_state(&cold));
        assert_eq!(other.last_setpoint, None);

        let mut wrong_version = warm.clone();
        wrong_version[0] = LAZIC_STATE_VERSION + 1;
        let mut bad_flag = warm.clone();
        bad_flag[1] = 2;
        let mut trailing = cold.clone();
        trailing.push(0);
        for blob in [
            &[][..],
            &warm[..9],
            &wrong_version[..],
            &bad_flag[..],
            &trailing[..],
        ] {
            assert!(!other.load_state(blob), "accepted {blob:?}");
        }
        assert_eq!(other.last_setpoint, None, "a refused blob changes nothing");
    }

    #[test]
    fn cold_start_default() {
        let (mut ctrl, _) = controller();
        let sp = ctrl.decide(&Trace::with_sensors(2, 35));
        assert_eq!(sp, 23.0);
    }

    #[test]
    fn smin_backup_when_everything_infeasible() {
        let (mut ctrl, trace) = controller();
        // Force infeasibility by dropping the limit absurdly low.
        ctrl.config.d_allowed = Celsius::new(-100.0);
        let sp = ctrl.decide(&trace);
        assert_eq!(sp, 20.0);
    }

    #[test]
    fn invalid_config_rejected() {
        let dcfg = DatasetConfig {
            days: 0.3,
            seed: 2,
            ..DatasetConfig::default()
        };
        let trace = generate_sweep_trace(&dcfg).unwrap();
        let cfg = LazicConfig {
            bounds: (35.0, 20.0),
            ..LazicConfig::default()
        };
        assert!(LazicController::new(&trace, cfg).is_err());
        let cfg = LazicConfig {
            grid_step: 0.0,
            ..LazicConfig::default()
        };
        assert!(LazicController::new(&trace, cfg).is_err());
    }
}
