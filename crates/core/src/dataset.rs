//! Training-data collection (§5.1, "Datasets, preprocessing and metrics").
//!
//! "For every 12 hours, we randomly pick a server load setting. During
//! this period, the set-point is swept from 20 °C to 35 °C, which changes
//! 0.5 °C every 5 minutes. We repeat this operation for 1 month" — the
//! training trace; another two weeks form the test trace.
//!
//! A 20→35 sweep at that rate takes 150 minutes, so within each 12-hour
//! segment the sweep bounces (triangle wave) to keep visiting the whole
//! range, which is the natural reading of "repeat this operation".

use crate::CoreError;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use tesla_forecast::Trace;
use tesla_sim::{Observation, SimConfig, Testbed};
use tesla_units::{Celsius, NOMINAL_SETPOINT};
use tesla_workload::{DiurnalProfile, LoadSetting, Orchestrator};

/// Sweep-dataset generation parameters.
#[derive(Debug, Clone)]
pub struct DatasetConfig {
    /// Simulator configuration (Table 1 defaults).
    pub sim: SimConfig,
    /// Trace length in days (the paper uses 30 train + 14 test; smaller
    /// values keep debug runs fast).
    pub days: f64,
    /// Sweep increment, °C (0.5 in §5.1).
    pub sweep_step_c: f64,
    /// Dwell per sweep level, minutes (5 in §5.1).
    pub sweep_dwell_min: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for DatasetConfig {
    fn default() -> Self {
        DatasetConfig {
            sim: SimConfig::default(),
            days: 2.0,
            sweep_step_c: 0.5,
            sweep_dwell_min: 5,
            seed: 0,
        }
    }
}

/// Appends one simulator observation to a forecasting trace.
pub fn push_observation(trace: &mut Trace, obs: &Observation) {
    trace.push(
        obs.avg_server_power_kw,
        &obs.acu_inlet_temps,
        &obs.dc_temps,
        obs.setpoint,
        obs.acu_energy_kwh,
        obs.acu_power_kw,
    );
}

/// Generates a sweep trace per §5.1: 12-hour segments with a random load
/// setting each, set-point bouncing across `[S_min, S_max]`.
pub fn generate_sweep_trace(cfg: &DatasetConfig) -> Result<Trace, CoreError> {
    if cfg.days <= 0.0 || cfg.sweep_step_c <= 0.0 || cfg.sweep_dwell_min == 0 {
        return Err(CoreError::Config(
            "days, sweep step and dwell must be positive".into(),
        ));
    }
    let minutes = (cfg.days * 24.0 * 60.0).round() as usize;
    let mut testbed = Testbed::new(cfg.sim.clone(), cfg.seed)?;
    let mut orch = Orchestrator::new(cfg.sim.n_servers);
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xD5);
    let mut trace = Trace::with_sensors(cfg.sim.n_acu_sensors, cfg.sim.n_dc_sensors);

    let segment_min = 12 * 60;
    let (smin, smax) = (cfg.sim.setpoint_min.value(), cfg.sim.setpoint_max.value());
    let mut profile = DiurnalProfile::new(random_setting(&mut rng), segment_min as f64 * 60.0);

    // Brief warm-up so the trace starts from realistic thermal state.
    testbed.write_setpoint(NOMINAL_SETPOINT);
    let idle = vec![0.0; cfg.sim.n_servers];
    testbed.warm_up(&idle, 30)?;

    let mut setpoint = smin;
    let mut direction = 1.0;
    let mut obs = Observation::for_config(&cfg.sim);
    for m in 0..minutes {
        let seg_pos = m % segment_min;
        if m > 0 && seg_pos == 0 {
            profile = DiurnalProfile::new(random_setting(&mut rng), segment_min as f64 * 60.0);
        }
        // Triangle sweep: step every `sweep_dwell_min` minutes.
        if m % cfg.sweep_dwell_min == 0 && m > 0 {
            setpoint += direction * cfg.sweep_step_c;
            if setpoint >= smax {
                setpoint = smax;
                direction = -1.0;
            } else if setpoint <= smin {
                setpoint = smin;
                direction = 1.0;
            }
        }
        testbed.write_setpoint(Celsius::new(setpoint));
        let target = profile.sample(seg_pos as f64 * 60.0, &mut rng);
        let utils = orch.tick(cfg.sim.sample_period_s, target, &mut rng);
        testbed.step_sample_into(utils, &mut obs)?;
        push_observation(&mut trace, &obs);
    }
    Ok(trace)
}

fn random_setting(rng: &mut StdRng) -> LoadSetting {
    match rng.random_range(0..3) {
        0 => LoadSetting::Idle,
        1 => LoadSetting::Medium,
        _ => LoadSetting::High,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg(days: f64, seed: u64) -> DatasetConfig {
        DatasetConfig {
            days,
            seed,
            ..DatasetConfig::default()
        }
    }

    #[test]
    fn trace_has_requested_length_and_shape() {
        let cfg = small_cfg(0.05, 1); // 72 minutes
        let trace = generate_sweep_trace(&cfg).unwrap();
        assert_eq!(trace.len(), 72);
        assert_eq!(trace.n_acu_sensors(), 2);
        assert_eq!(trace.n_dc_sensors(), 35);
        trace.validate(72).unwrap();
    }

    #[test]
    fn sweep_covers_a_range_of_setpoints() {
        let cfg = small_cfg(0.3, 2); // 432 minutes: sweep reaches ~41 levels
        let trace = generate_sweep_trace(&cfg).unwrap();
        let min = trace.setpoint.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = trace
            .setpoint
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(min <= 21.0, "sweep floor {min}");
        assert!(max >= 28.0, "sweep reached {max}");
        // Steps are 0.5 °C (allow for the register quantization).
        for w in trace.setpoint.windows(2) {
            assert!((w[1] - w[0]).abs() < 0.5 + 1e-9);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = generate_sweep_trace(&small_cfg(0.03, 7)).unwrap();
        let b = generate_sweep_trace(&small_cfg(0.03, 7)).unwrap();
        assert_eq!(a.setpoint, b.setpoint);
        assert_eq!(a.avg_power, b.avg_power);
        let c = generate_sweep_trace(&small_cfg(0.03, 8)).unwrap();
        assert_ne!(a.avg_power, c.avg_power);
    }

    #[test]
    fn rejects_bad_config() {
        assert!(generate_sweep_trace(&small_cfg(0.0, 1)).is_err());
        let mut cfg = small_cfg(0.1, 1);
        cfg.sweep_dwell_min = 0;
        assert!(generate_sweep_trace(&cfg).is_err());
    }

    #[test]
    fn energy_column_is_positive() {
        let trace = generate_sweep_trace(&small_cfg(0.05, 3)).unwrap();
        assert!(trace.acu_energy.iter().all(|&e| e >= 0.0));
        assert!(trace.acu_energy.iter().any(|&e| e > 0.0));
    }
}
