//! Closed-loop episode runner and the Table 5 metrics.
//!
//! §5.3 evaluates each controller over a 12-hour period under one of the
//! three load settings, reporting cooling energy (CE), thermal-safety
//! violation time (TSV, % of the period a cold-aisle sensor exceeded
//! 22 °C), and cooling interruption (CI, % of the period with ACU power
//! at the fan floor).

use crate::controller::Controller;
use crate::dataset::push_observation;
use crate::CoreError;
use rand::rngs::StdRng;
use rand::SeedableRng;
use tesla_forecast::Trace;
use tesla_sim::{FaultPlan, SimConfig, SimError, Testbed};
use tesla_units::{Celsius, NOMINAL_SETPOINT};
use tesla_workload::{DiurnalProfile, LoadSetting, Orchestrator, Placement};

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
    /// % of metered samples with a cold-aisle sensor above the limit.
    pub tsv_percent: f64,
    /// % of metered time in cooling interruption (ACU at the fan floor).
    pub ci_percent: f64,
    /// Executed set-point per minute.
    pub setpoints: Vec<f64>, // lint:allow(no-raw-f64-in-public-api): bulk telemetry record
    /// Mean ACU inlet temperature per minute.
    pub inlet_avg: Vec<f64>,
    /// Max cold-aisle sensor reading per minute.
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
    /// Minutes the supervised runtime spent in safe mode (0 for
    /// unsupervised runs).
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

/// Runs one controller through one 12-hour (by default) episode.
pub fn run_episode(
    controller: &mut dyn Controller,
    config: &EpisodeConfig,
) -> Result<EvalResult, CoreError> {
    let mut testbed = config.testbed()?;
    let mut orch = Orchestrator::with_placement(config.sim.n_servers, config.placement);
    let mut profile = DiurnalProfile::new(config.setting, config.minutes as f64 * 60.0);
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0xEE);
    let mut trace = Trace::with_sensors(config.sim.n_acu_sensors, config.sim.n_dc_sensors);

    controller.reset();
    testbed.write_setpoint(NOMINAL_SETPOINT);

    // Warm-up: starting load, history accumulates, controller idle.
    for m in 0..config.warmup_minutes {
        let target = profile.sample(0.0, &mut rng);
        let utils = orch.tick(config.sim.sample_period_s, target, &mut rng);
        let obs = testbed.step_sample(utils)?;
        push_observation(&mut trace, &obs);
        let _ = m;
    }
    let metered_from = trace.len();

    let mut cooling_energy_kwh = 0.0;
    let mut violations = 0usize;
    let mut interrupted = 0.0;
    let mut setpoints = Vec::with_capacity(config.minutes);
    let mut inlet_avg = Vec::with_capacity(config.minutes);
    let mut cold_aisle_max = Vec::with_capacity(config.minutes);
    let mut acu_power = Vec::with_capacity(config.minutes);
    let mut avg_server_power = Vec::with_capacity(config.minutes);
    let mut server_energy_kwh = 0.0;

    for m in 0..config.minutes {
        // Decide from the history so far, execute, then advance a minute.
        let sp = controller.decide(&trace);
        testbed.write_setpoint(Celsius::new(sp));

        let target = profile.sample(m as f64 * 60.0, &mut rng);
        let utils = orch.tick(config.sim.sample_period_s, target, &mut rng);
        let obs = testbed.step_sample(utils)?;

        cooling_energy_kwh += obs.acu_energy_kwh;
        if obs.cold_aisle_max > config.d_allowed.value() {
            violations += 1;
        }
        interrupted += obs.interrupted_frac;
        setpoints.push(testbed.setpoint().value());
        inlet_avg.push(
            obs.acu_inlet_temps.iter().sum::<f64>() / obs.acu_inlet_temps.len().max(1) as f64,
        );
        cold_aisle_max.push(obs.cold_aisle_max);
        acu_power.push(obs.acu_power_kw);
        avg_server_power.push(obs.avg_server_power_kw);
        server_energy_kwh +=
            obs.server_powers_kw.iter().sum::<f64>() * config.sim.sample_period_s / 3600.0;
        push_observation(&mut trace, &obs);
    }

    Ok(EvalResult {
        controller: controller.name().to_string(),
        setting: config.setting,
        cooling_energy_kwh,
        tsv_percent: 100.0 * violations as f64 / config.minutes.max(1) as f64,
        ci_percent: 100.0 * interrupted / config.minutes.max(1) as f64,
        setpoints,
        inlet_avg,
        cold_aisle_max,
        acu_power,
        avg_server_power,
        server_energy_kwh,
        trace,
        metered_from,
        safe_mode_minutes: 0,
    })
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
