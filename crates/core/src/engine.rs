//! The per-zone minute-loop engine.
//!
//! [`ZoneEpisode`] is one zone's plant, workload, sanitized trace and
//! metric accumulators, advanced one control minute at a time. Every
//! controller episode runs on it: [`crate::run_episode`] (the paper's
//! evaluation, under a pass-through supervisor),
//! [`crate::run_supervised_episode`], replay and resume, the threaded
//! runtime, and the fleet's zones.
//!
//! The decide/advance split is deliberate: the fleet coordinator
//! interposes *between* a zone's supervised decision and its execution
//! (site-budget arbitration may relax the set-point before the write),
//! while the single-zone driver simply calls them back to back. Both
//! paths execute the exact same per-minute sequence, which is what keeps
//! a one-zone fleet bit-identical to the single-zone episode.

use crate::controller::Controller;
use crate::dataset::push_observation;
use crate::experiment::{EpisodeConfig, EvalResult};
use crate::health::{HealthConfig, HealthMonitor};
use crate::supervisor::Supervisor;
use crate::CoreError;
use rand::rngs::StdRng;
use rand::SeedableRng;
use tesla_forecast::Trace;
use tesla_sim::{CoolingPlant, Observation};
use tesla_units::{Celsius, Kilowatts, NOMINAL_SETPOINT};
use tesla_workload::{DiurnalProfile, Orchestrator};

/// What one advanced control minute produced, for the layers above the
/// zone (coordinator arbitration, historian collection, checkpointing).
#[derive(Debug, Clone)]
pub struct MinuteOutcome {
    /// The set-point actually latched in the plant after the write (the
    /// previous one if the write failed).
    pub executed: Celsius,
    /// Sensor-reported (sanitized) cold-aisle max this minute.
    pub observed_cold_aisle_max: Celsius,
    /// Ground-truth cold-aisle max this minute (safety scoring).
    pub true_cold_aisle_max: Celsius,
    /// ACU electrical power at the sample instant.
    pub acu_power_kw: Kilowatts,
    /// Average per-server electrical power.
    pub avg_server_power_kw: Kilowatts,
}

/// The number of distinct indices in `a` and `b` together. The lists
/// are a dozen entries at most, so a scan beats building a set.
fn distinct_count(a: &[usize], b: &[usize]) -> usize {
    let all = || a.iter().chain(b);
    all()
        .enumerate()
        .filter(|&(i, k)| !all().take(i).any(|x| x == k))
        .count()
}

/// One zone's supervised episode state: plant + workload + sanitized
/// trace + accumulators, stepped one control minute at a time.
///
/// The controller and supervisor stay *outside* (passed per call) so an
/// owner — the single-zone driver or a fleet zone actor — can hold them
/// alongside and interleave its own logic between decide and advance.
pub struct ZoneEpisode<P: CoolingPlant> {
    plant: P,
    config: EpisodeConfig,
    orch: Orchestrator,
    profile: DiurnalProfile,
    rng: StdRng,
    trace: Trace,
    /// The minute's telemetry, sampled in place every minute.
    obs: Observation,
    n_cold: usize,
    cold_health: HealthMonitor,
    rest_health: HealthMonitor,
    inlet_health: HealthMonitor,
    trace_keep: Option<usize>,
    dropped_total: usize,
    metered_from: usize,
    dropped_at_metering: usize,
    cooling_energy_kwh: f64,
    violations: usize,
    observed_violations: usize,
    interrupted: f64,
    setpoints: Vec<f64>,
    inlet_avg: Vec<f64>,
    cold_aisle_max: Vec<f64>,
    acu_power: Vec<f64>,
    avg_server_power: Vec<f64>,
    server_energy_kwh: f64,
}

impl<P: CoolingPlant> ZoneEpisode<P> {
    /// Wraps a freshly built plant in episode state. The caller resets
    /// its controller/supervisor itself (they are not owned here); the
    /// plant is initialized to the nominal set-point.
    pub fn new(plant: P, config: &EpisodeConfig) -> Self {
        let mut plant = plant;
        plant.write_setpoint_clamped(NOMINAL_SETPOINT);
        let n_cold = config.sim.n_cold_aisle_sensors;
        // Separate monitors per signal family so imputation draws on
        // same-class peers: a quarantined cold-aisle sensor imputed from
        // a median that includes hot-aisle sensors would read several °C
        // high and fake a thermal violation. Cold-aisle sensors
        // physically cluster, so they also get the peer-deviation check,
        // which catches in-band lies (slow drift, stuck at a plausible
        // value) the range check is blind to.
        let cold_health = HealthMonitor::new(
            n_cold,
            HealthConfig {
                peer_deviation: 4.0,
                ..HealthConfig::default()
            },
        );
        let rest_health = HealthMonitor::new(
            config.sim.n_dc_sensors - n_cold,
            HealthConfig {
                max_value: 60.0,
                ..HealthConfig::default()
            },
        );
        let inlet_health = HealthMonitor::new(
            config.sim.n_acu_sensors,
            HealthConfig {
                max_value: 50.0,
                ..HealthConfig::default()
            },
        );
        // Bounded-memory trace retention, mirroring the historian's raw
        // horizon at the runner's 1-minute cadence. Drops are chunked
        // (only once the trace overshoots the horizon by 25%) so the
        // O(len) front drain amortizes instead of running every minute.
        let trace_keep = config
            .retention
            .map(|p| ((p.raw_horizon_s / 60.0).ceil() as usize).max(1));
        ZoneEpisode {
            orch: Orchestrator::with_placement(config.sim.n_servers, config.placement),
            profile: DiurnalProfile::new(config.setting, config.minutes as f64 * 60.0),
            rng: StdRng::seed_from_u64(config.seed ^ 0xEE),
            trace: Trace::with_sensors(config.sim.n_acu_sensors, config.sim.n_dc_sensors),
            obs: Observation::for_config(&config.sim),
            n_cold,
            cold_health,
            rest_health,
            inlet_health,
            trace_keep,
            dropped_total: 0,
            metered_from: 0,
            dropped_at_metering: 0,
            cooling_energy_kwh: 0.0,
            violations: 0,
            observed_violations: 0,
            interrupted: 0.0,
            setpoints: Vec::with_capacity(config.minutes),
            inlet_avg: Vec::with_capacity(config.minutes),
            cold_aisle_max: Vec::with_capacity(config.minutes),
            acu_power: Vec::with_capacity(config.minutes),
            avg_server_power: Vec::with_capacity(config.minutes),
            server_energy_kwh: 0.0,
            config: config.clone(),
            plant,
        }
    }

    /// The plant (fleet-level thermal bleed reads boundary state here).
    pub fn plant(&self) -> &P {
        &self.plant
    }

    /// Mutable plant access (fleet-level thermal bleed deposits here).
    pub fn plant_mut(&mut self) -> &mut P {
        &mut self.plant
    }

    /// The sanitized telemetry trace the controller sees.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Executed set-points so far, °C (one per metered minute).
    // lint:allow(no-raw-f64-in-public-api): bulk series mirroring EvalResult's raw trace
    pub fn setpoints(&self) -> &[f64] {
        &self.setpoints
    }

    fn prune(&mut self) {
        if let Some(keep) = self.trace_keep {
            if self.trace.len() > keep + keep / 4 {
                let drop = self.trace.len() - keep;
                self.trace.drop_front(drop);
                self.dropped_total += drop;
            }
        }
    }

    /// Runs the warm-up minutes: physics settle toward equilibrium while
    /// the trace fills with sanitized pre-metering history.
    pub fn warmup(&mut self) -> Result<(), CoreError> {
        for _ in 0..self.config.warmup_minutes {
            let target = self.profile.sample(0.0, &mut self.rng);
            let utils = self
                .orch
                .tick(self.config.sim.sample_period_s, target, &mut self.rng);
            self.plant.step_sample_into(utils, &mut self.obs)?;
            let obs = &mut self.obs;
            let (cold, rest) = obs.dc_temps.split_at_mut(self.n_cold);
            self.cold_health.sanitize(cold);
            self.rest_health.sanitize(rest);
            self.inlet_health.sanitize(&mut obs.acu_inlet_temps);
            push_observation(&mut self.trace, obs);
            self.prune();
        }
        self.metered_from = self.trace.len();
        self.dropped_at_metering = self.dropped_total;
        Ok(())
    }

    /// One supervised decision over this zone's trace: the controller
    /// proposes, the watchdog times it, the ladder resolves it.
    pub fn decide(
        &mut self,
        supervisor: &mut Supervisor,
        controller: &mut dyn Controller,
    ) -> Celsius {
        supervisor.decide(controller, &self.trace)
    }

    /// The replay variant of [`ZoneEpisode::decide`]: the recorded
    /// executed set-point is forced and the controller only runs its
    /// deterministic replay hook (its full state is installed at the
    /// resume cursor).
    // lint:allow(no-raw-f64-in-public-api): replays EvalResult's raw recorded set-point
    pub fn replay_decision(
        &mut self,
        minute: usize,
        controller: &mut dyn Controller,
        recorded: f64,
    ) -> Celsius {
        controller.replay_minute(minute, &self.trace);
        Celsius::new(recorded)
    }

    /// Executes one control minute: write the set-point (with retries),
    /// sample the workload, step the physics, sanitize the telemetry,
    /// accumulate the episode metrics, and (unless replaying a resume
    /// prefix) close the supervisor's minute.
    pub fn advance(
        &mut self,
        minute: usize,
        sp: Celsius,
        supervisor: &mut Supervisor,
        replaying: bool,
    ) -> Result<MinuteOutcome, CoreError> {
        // A failed write leaves the previous set-point in force; the
        // ladder sees the failure through the stress signal.
        let _ = supervisor.write_with_retry(&mut self.plant, sp);

        let target = self.profile.sample(minute as f64 * 60.0, &mut self.rng);
        let utils = self
            .orch
            .tick(self.config.sim.sample_period_s, target, &mut self.rng);
        self.plant.step_sample_into(utils, &mut self.obs)?;
        let obs = &mut self.obs;

        // Sanitize what the controller (and the trace) will see, then
        // recompute the sensor-reported cold-aisle max from the sanitized
        // readings so Eq. 9's signal is finite.
        let (cold, rest) = obs.dc_temps.split_at_mut(self.n_cold);
        let cold_report = self.cold_health.sanitize(cold);
        self.rest_health.sanitize(rest);
        self.inlet_health.sanitize(&mut obs.acu_inlet_temps);
        obs.cold_aisle_max = obs.dc_temps[..self.n_cold]
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max);

        self.cooling_energy_kwh += obs.acu_energy_kwh;
        // Score safety on ground truth: a stuck-at-45 °C sensor must not
        // masquerade as a violation, and a stuck-at-15 °C one must not
        // hide a real one.
        if obs.cold_aisle_max_true > self.config.d_allowed.value() {
            self.violations += 1;
        }
        // What the controller saw: Table 5's TSV.
        if obs.cold_aisle_max > self.config.d_allowed.value() {
            self.observed_violations += 1;
        }
        self.interrupted += obs.interrupted_frac;
        let executed = self.plant.setpoint();
        self.setpoints.push(executed.value());
        self.inlet_avg.push(
            obs.acu_inlet_temps.iter().sum::<f64>() / obs.acu_inlet_temps.len().max(1) as f64,
        );
        self.cold_aisle_max.push(obs.cold_aisle_max_true);
        self.acu_power.push(obs.acu_power_kw);
        self.avg_server_power.push(obs.avg_server_power_kw);
        self.server_energy_kwh +=
            obs.server_powers_kw.iter().sum::<f64>() * self.config.sim.sample_period_s / 3600.0;
        push_observation(&mut self.trace, obs);
        let outcome = MinuteOutcome {
            executed,
            observed_cold_aisle_max: Celsius::new(obs.cold_aisle_max),
            true_cold_aisle_max: Celsius::new(obs.cold_aisle_max_true),
            acu_power_kw: Kilowatts::new(obs.acu_power_kw),
            avg_server_power_kw: Kilowatts::new(obs.avg_server_power_kw),
        };
        self.prune();

        // The cold monitor only sees indices 0..n_cold, so its report
        // needs no index filtering.
        let quarantined_cold = distinct_count(&cold_report.imputed, &cold_report.newly_quarantined);
        if !replaying {
            supervisor.end_of_minute(
                minute,
                quarantined_cold as f64 / self.n_cold.max(1) as f64,
                outcome.observed_cold_aisle_max,
                executed,
            );
        }
        Ok(outcome)
    }

    /// Seals the episode into its [`EvalResult`].
    pub fn finish(self, controller_name: &str, supervisor: &Supervisor) -> EvalResult {
        EvalResult {
            controller: controller_name.to_string(),
            setting: self.config.setting,
            cooling_energy_kwh: self.cooling_energy_kwh,
            tsv_percent: 100.0 * self.violations as f64 / self.config.minutes.max(1) as f64,
            observed_tsv_percent: 100.0 * self.observed_violations as f64
                / self.config.minutes.max(1) as f64,
            ci_percent: 100.0 * self.interrupted / self.config.minutes.max(1) as f64,
            setpoints: self.setpoints,
            inlet_avg: self.inlet_avg,
            cold_aisle_max: self.cold_aisle_max,
            acu_power: self.acu_power,
            avg_server_power: self.avg_server_power,
            server_energy_kwh: self.server_energy_kwh,
            trace: self.trace,
            // Retention may have dropped samples from before (and after)
            // the metering mark; shift the index by the post-mark drops
            // so it still points at the first metered sample remaining.
            metered_from: self
                .metered_from
                .saturating_sub(self.dropped_total - self.dropped_at_metering),
            safe_mode_minutes: supervisor.safe_mode_minutes(),
        }
    }
}
