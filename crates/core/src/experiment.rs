//! Closed-loop episode runner and the Table 5 metrics.
//!
//! §5.3 evaluates each controller over a 12-hour period under one of the
//! three load settings, reporting cooling energy (CE), thermal-safety
//! violation time (TSV, % of the period a cold-aisle sensor exceeded
//! 22 °C: [`EvalResult::observed_tsv_percent`]), and cooling interruption
//! (CI, % of the period with ACU power at the fan floor).
//! [`EvalResult::tsv_percent`] scores the same limit on the true
//! cold-aisle maximum.

use crate::controller::Controller;
use crate::supervisor::{run_supervised_episode, Supervisor, SupervisorConfig};
use crate::CoreError;
use tesla_forecast::Trace;
use tesla_sim::{FaultPlan, SimConfig, SimError, Testbed};
use tesla_units::Celsius;
use tesla_workload::{LoadSetting, Placement};

/// Episode parameters.
#[derive(Debug, Clone)]
pub struct EpisodeConfig {
    /// Simulator configuration.
    pub sim: SimConfig,
    /// Load setting (§5.1).
    pub setting: LoadSetting,
    /// Evaluated duration in minutes (720 = the paper's 12 hours).
    pub minutes: usize,
    /// Warm-up minutes before metering starts (fills the controller's
    /// history window; runs at the profile's starting load, 23 °C).
    pub warmup_minutes: usize,
    /// Cold-aisle limit used for the TSV metric.
    pub d_allowed: Celsius,
    /// Job-placement policy (§8 future work: energy-aware consolidation).
    pub placement: Placement,
    /// RNG seed (shared by testbed and workload).
    pub seed: u64,
    /// Fault-injection plan installed on the testbed (default: none).
    /// Windows are in testbed simulation minutes, i.e. warm-up included.
    pub faults: FaultPlan,
    /// Telemetry retention for long episodes (default: keep everything).
    /// When set, the supervised runner bounds the in-process [`Trace`] to
    /// the policy's raw horizon (`raw_horizon_s` of 1-minute samples), so
    /// a week-long episode holds days — not weeks — of history in memory.
    /// The same policy type drives the historian's on-disk ageing.
    pub retention: Option<tesla_historian::RetentionPolicy>,
}

impl Default for EpisodeConfig {
    fn default() -> Self {
        EpisodeConfig {
            sim: SimConfig::default(),
            setting: LoadSetting::Medium,
            minutes: 720,
            warmup_minutes: 60,
            d_allowed: Celsius::new(22.0),
            placement: Placement::Spread,
            seed: 0,
            faults: FaultPlan::none(),
            retention: None,
        }
    }
}

impl EpisodeConfig {
    /// Builds this episode's plant: a [`Testbed`] seeded with `seed` that
    /// carries the fault plan. Every episode runner and every fleet pod
    /// builds its plant here, so none of them can drop a field.
    pub fn testbed(&self) -> Result<Testbed, SimError> {
        let mut testbed = Testbed::new(self.sim.clone(), self.seed)?;
        testbed.set_fault_plan(self.faults.clone());
        Ok(testbed)
    }
}

/// Metrics and traces from one closed-loop episode.
#[derive(Debug, Clone)]
pub struct EvalResult {
    /// Controller name.
    pub controller: String,
    /// Load setting evaluated.
    pub setting: LoadSetting,
    /// Total cooling energy over the metered period, kWh (Table 5's CE).
    pub cooling_energy_kwh: f64, // lint:allow(no-raw-f64-in-public-api): aggregate metric record
    /// % of metered minutes in which the true cold-aisle maximum was
    /// above the limit. Sensor faults cannot create or hide it.
    pub tsv_percent: f64,
    /// % of metered minutes in which the cold-aisle sensors the
    /// controller reads (after sanitization) showed a maximum above the
    /// limit: Table 5's TSV. On a fault-free episode the sanitized
    /// readings equal the raw ones.
    pub observed_tsv_percent: f64,
    /// % of metered time in cooling interruption (ACU at the fan floor).
    pub ci_percent: f64,
    /// Executed set-point per minute.
    pub setpoints: Vec<f64>, // lint:allow(no-raw-f64-in-public-api): bulk telemetry record
    /// Mean ACU inlet temperature per minute.
    pub inlet_avg: Vec<f64>,
    /// True cold-aisle maximum per minute. The sensor readings are the
    /// trace's first `n_cold_aisle_sensors` rack columns.
    pub cold_aisle_max: Vec<f64>, // lint:allow(no-raw-f64-in-public-api): bulk telemetry record
    /// ACU instantaneous power per minute, kW.
    pub acu_power: Vec<f64>, // lint:allow(no-raw-f64-in-public-api): bulk telemetry record
    /// Average per-server power per minute, kW.
    pub avg_server_power: Vec<f64>, // lint:allow(no-raw-f64-in-public-api): bulk telemetry record
    /// Total server (IT) energy over the metered period, kWh.
    pub server_energy_kwh: f64, // lint:allow(no-raw-f64-in-public-api): aggregate metric record
    /// The full telemetry trace (warm-up + metered period).
    pub trace: Trace,
    /// Index in `trace` where metering started.
    pub metered_from: usize,
    /// Minutes the supervisor spent in safe mode (0 under
    /// [`run_episode`]'s pass-through supervisor).
    pub safe_mode_minutes: u64,
}

impl EvalResult {
    /// Relative CE saving versus a baseline result, in percent
    /// (Table 5's "CE Saving" column).
    pub fn saving_vs(&self, baseline: &EvalResult) -> f64 {
        if baseline.cooling_energy_kwh <= 0.0 {
            return 0.0;
        }
        100.0 * (1.0 - self.cooling_energy_kwh / baseline.cooling_energy_kwh)
    }

    /// Cooling overhead: cooling energy divided by IT (server) energy —
    /// the cooling contribution to PUE−1. §8: "TESLA improves DC's energy
    /// efficiency by reducing the energy of the cooling system relative
    /// to that of servers."
    pub fn cooling_overhead(&self) -> f64 {
        if self.server_energy_kwh <= 0.0 {
            return 0.0;
        }
        self.cooling_energy_kwh / self.server_energy_kwh
    }
}

/// Runs one controller through one 12-hour (by default) episode, as
/// Table 5 does: a [`crate::ZoneEpisode`] under
/// [`SupervisorConfig::pass_through`], which never overrides the
/// controller. A proposed set-point outside the actuator's range is
/// refused and the previous one stays in force.
pub fn run_episode(
    controller: &mut dyn Controller,
    config: &EpisodeConfig,
) -> Result<EvalResult, CoreError> {
    let mut supervisor = Supervisor::new(SupervisorConfig::pass_through());
    run_supervised_episode(controller, &mut supervisor, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixed::FixedController;

    fn quick_episode(setting: LoadSetting, minutes: usize, seed: u64) -> EvalResult {
        let mut ctrl = FixedController::new(Celsius::new(23.0));
        let cfg = EpisodeConfig {
            setting,
            minutes,
            warmup_minutes: 30,
            seed,
            ..EpisodeConfig::default()
        };
        run_episode(&mut ctrl, &cfg).unwrap()
    }

    #[test]
    fn fixed_23_is_thermally_safe() {
        let r = quick_episode(LoadSetting::Medium, 120, 1);
        assert_eq!(r.tsv_percent, 0.0, "fixed 23 °C must not violate");
        assert!(r.ci_percent < 10.0);
        assert!(r.cooling_energy_kwh > 0.0);
    }

    #[test]
    fn result_vectors_have_episode_length() {
        let r = quick_episode(LoadSetting::Idle, 60, 2);
        assert_eq!(r.setpoints.len(), 60);
        assert_eq!(r.cold_aisle_max.len(), 60);
        assert_eq!(r.acu_power.len(), 60);
        assert_eq!(r.trace.len(), 90); // warm-up + metered
        assert_eq!(r.metered_from, 30);
    }

    #[test]
    fn higher_load_burns_more_cooling_energy() {
        let idle = quick_episode(LoadSetting::Idle, 180, 3);
        let high = quick_episode(LoadSetting::High, 180, 3);
        assert!(
            high.cooling_energy_kwh > idle.cooling_energy_kwh,
            "high {} vs idle {}",
            high.cooling_energy_kwh,
            idle.cooling_energy_kwh
        );
    }

    #[test]
    fn cooling_overhead_is_ce_over_it() {
        let r = quick_episode(LoadSetting::Medium, 60, 8);
        assert!(r.server_energy_kwh > 0.0);
        let expect = r.cooling_energy_kwh / r.server_energy_kwh;
        assert!((r.cooling_overhead() - expect).abs() < 1e-12);
        assert!(r.cooling_overhead() > 0.1 && r.cooling_overhead() < 2.0);
    }

    #[test]
    fn saving_vs_baseline() {
        let a = quick_episode(LoadSetting::Medium, 60, 4);
        let mut b = a.clone();
        b.cooling_energy_kwh = a.cooling_energy_kwh * 0.9;
        assert!((b.saving_vs(&a) - 10.0).abs() < 1e-9);
        assert_eq!(a.saving_vs(&a), 0.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = quick_episode(LoadSetting::Medium, 45, 9);
        let b = quick_episode(LoadSetting::Medium, 45, 9);
        assert_eq!(a.cooling_energy_kwh, b.cooling_energy_kwh);
        assert_eq!(a.cold_aisle_max, b.cold_aisle_max);
    }
}
