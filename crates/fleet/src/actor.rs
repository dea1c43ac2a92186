//! The per-zone actor: one pod's plant, controller, supervisor, and
//! episode state, owned together so a scheduler worker can lock the zone
//! and run a whole decide or advance step without touching shared state.

use std::sync::Arc;
use tesla_core::{
    Controller, EpisodeConfig, EvalResult, MinuteOutcome, StatusBoard, Supervisor,
    SupervisorConfig, ZoneEpisode,
};
use tesla_historian::MetricStore;
use tesla_sim::Testbed;
use tesla_units::{Celsius, ZoneId};

use crate::coordinator::ZoneDecision;
use crate::FleetError;

/// Derives zone `z`'s episode seed from the fleet's base seed. Zone 0
/// keeps the base seed, which is what makes a one-zone fleet
/// bit-identical to the single-zone supervised episode.
pub fn zone_seed(base: u64, zone: ZoneId) -> u64 {
    base ^ (zone.index() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// The per-minute series each zone writes, without the zone prefix.
const ZONE_SERIES: [&str; 4] = ["setpoint_c", "cold_aisle_max_c", "acu.power_kw", "rung"];

/// One zone of the fleet: a pod (one [`Testbed`] cell) plus its control
/// stack.
pub struct ZoneActor {
    zone: ZoneId,
    episode: ZoneEpisode<Testbed>,
    controller: Box<dyn Controller + Send>,
    supervisor: Supervisor,
    status: Arc<StatusBoard>,
    historian: Option<Arc<dyn MetricStore>>,
    /// [`ZONE_SERIES`] with this zone's prefix, formatted once.
    series: [String; 4],
    last_observed_cold_max: Celsius,
    config: EpisodeConfig,
}

impl ZoneActor {
    /// Builds the zone's pod with [`EpisodeConfig::testbed`], the
    /// constructor every single-zone runner uses (seed and fault plan),
    /// wraps it in episode state, and resets the control stack.
    /// `config.seed` must already be the zone-derived seed (see
    /// [`zone_seed`]); zone 0 keeps the base seed, so a one-zone fleet
    /// replays the single-zone episode.
    pub fn new(
        zone: ZoneId,
        config: EpisodeConfig,
        mut controller: Box<dyn Controller + Send>,
        supervisor_config: SupervisorConfig,
        historian: Option<Arc<dyn MetricStore>>,
    ) -> Result<Self, FleetError> {
        let pod = config.testbed()?;
        controller.reset();
        let mut supervisor = Supervisor::new(supervisor_config);
        supervisor.reset();
        let status = Arc::new(StatusBoard::new());
        supervisor.attach_status_board(Arc::clone(&status));
        Ok(ZoneActor {
            zone,
            episode: ZoneEpisode::new(pod, &config),
            controller,
            supervisor,
            status,
            historian,
            series: ZONE_SERIES.map(|name| zone.series(name)),
            last_observed_cold_max: Celsius::new(f64::NEG_INFINITY),
            config,
        })
    }

    /// The zone's identity.
    pub fn zone(&self) -> ZoneId {
        self.zone
    }

    /// The zone's status board (zone-scoped `STATUS` readback).
    pub fn status_board(&self) -> Arc<StatusBoard> {
        Arc::clone(&self.status)
    }

    /// The zone's supervisor (rung inspection, tests).
    pub fn supervisor(&self) -> &Supervisor {
        &self.supervisor
    }

    /// Executed set-points so far, °C (one per metered minute).
    // lint:allow(no-raw-f64-in-public-api): bulk series mirroring EvalResult's raw trace
    pub fn setpoints(&self) -> &[f64] {
        self.episode.setpoints()
    }

    /// This zone's episode configuration (zone-derived seed included).
    pub fn config(&self) -> &EpisodeConfig {
        &self.config
    }

    /// Serialized controller decision state (fleet checkpoints).
    pub fn controller_state(&self) -> Option<Vec<u8>> {
        self.controller.save_state()
    }

    /// The controller's display name (checkpoint fingerprints).
    pub fn controller_name(&self) -> String {
        self.controller.name().to_string()
    }

    /// Supervisor ladder state (fleet checkpoints).
    pub fn supervisor_state(&self) -> tesla_core::SupervisorState {
        self.supervisor.state()
    }

    /// Installs resume state at the replay cursor: ladder state always,
    /// controller decision state when the checkpoint carried one.
    pub fn install_resume_state(
        &mut self,
        supervisor: tesla_core::SupervisorState,
        controller: Option<&[u8]>,
    ) {
        self.supervisor.restore_state(supervisor);
        if let Some(bytes) = controller {
            self.controller.load_state(bytes);
        }
    }

    /// Runs the warm-up minutes (physics settle, trace fills).
    pub fn warmup(&mut self) -> Result<(), FleetError> {
        self.episode.warmup()?;
        Ok(())
    }

    /// Phase 1 of the fleet minute: one supervised decision over this
    /// zone's own trace, packaged with the rung and thermal head-room
    /// the coordinator needs for arbitration.
    pub fn decide(&mut self) -> ZoneDecision {
        let timer =
            tesla_obs::Timer::start(tesla_obs::histogram!("tesla_fleet_zone_decide_seconds"));
        let proposed = self
            .episode
            .decide(&mut self.supervisor, self.controller.as_mut());
        drop(timer);
        ZoneDecision {
            zone: self.zone,
            proposed,
            rung: self.supervisor.rung(),
            cold_aisle_max: self.last_observed_cold_max,
        }
    }

    /// Phase 3 of the fleet minute: execute the arbitrated set-point and
    /// step the pod's physics. Returns the minute's outcome for site
    /// aggregation (power sums, bleed boundary state).
    pub fn advance(
        &mut self,
        minute: usize,
        setpoint: Celsius,
        replaying: bool,
    ) -> Result<MinuteOutcome, FleetError> {
        let timer =
            tesla_obs::Timer::start(tesla_obs::histogram!("tesla_fleet_zone_advance_seconds"));
        let outcome = self
            .episode
            .advance(minute, setpoint, &mut self.supervisor, replaying)?;
        drop(timer);
        self.last_observed_cold_max = outcome.observed_cold_aisle_max;
        if let Some(store) = &self.historian {
            let t = (minute as f64) * 60.0;
            let values = [
                outcome.executed.value(),
                outcome.true_cold_aisle_max.value(),
                outcome.acu_power_kw.value(),
                f64::from(self.supervisor.rung().index()),
            ];
            for (name, value) in self.series.iter().zip(values) {
                store.insert(name, t, value);
            }
        }
        Ok(outcome)
    }

    /// The replay variant of decide+advance for fleet resume: forces the
    /// recorded executed set-point and runs only the controller's
    /// deterministic replay hook.
    pub fn replay_minute(
        &mut self,
        minute: usize,
        recorded: Celsius,
    ) -> Result<MinuteOutcome, FleetError> {
        let sp = self
            .episode
            .replay_decision(minute, self.controller.as_mut(), recorded.value());
        self.advance(minute, sp, true)
    }

    /// Hot-aisle boundary state for the bleed exchange (°C), with the
    /// pod's hot-aisle heat capacity (kJ/K).
    // lint:allow(no-raw-f64-in-public-api): kJ/K capacity has no newtype
    pub fn hot_aisle(&self) -> (Celsius, f64) {
        let plant = self.episode.plant();
        (plant.hot_aisle_temp(), plant.hot_aisle_capacity_kj_per_k())
    }

    /// Deposits (or withdraws, negative) bleed energy into the pod's hot
    /// aisle.
    // lint:allow(no-raw-f64-in-public-api): kJ energy packet mirrors the sim accessor
    pub fn add_hot_aisle_energy_kj(&mut self, energy_kj: f64) -> Result<(), FleetError> {
        self.episode
            .plant_mut()
            .add_hot_aisle_energy_kj(energy_kj)?;
        Ok(())
    }

    /// Seals the zone's episode into its [`EvalResult`].
    pub fn finish(self) -> EvalResult {
        self.episode
            .finish(self.controller.name(), &self.supervisor)
    }
}
