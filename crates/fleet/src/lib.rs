#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Fleet-scale multi-zone control: N single-pod control planes stepped
//! in lock-step under a site power-budget coordinator.
//!
//! The single-zone stack (testbed → supervised controller → degradation
//! ladder) scales one room. A site runs many rooms — pods — that are
//! *almost* independent: each has its own ACU, sensors, and workload,
//! but hot-aisle air bleeds between neighbours and the whole hall shares
//! one electrical feed. This crate adds exactly those two couplings and
//! nothing else:
//!
//! * [`FleetTopology`] — the pods and the inter-pod bleed graph (the
//!   8-pod / 1 MW [`FleetTopology::reference_site`] is the default);
//! * [`ZoneActor`] — one pod's plant + controller + supervisor +
//!   episode state, owned together so a scheduler worker can step a
//!   zone without touching shared state;
//! * [`scheduler::run_sharded`] — a fixed-size scheduler (std threads
//!   claiming zone indices from one shared atomic cursor, no unsafe, no
//!   external crates) fanning the per-zone phases across cores;
//! * [`FleetCoordinator`] — the site power-budget arbiter: proportional
//!   set-point relaxation when the site exceeds its budget, with the
//!   thermal-safety envelope always winning over the budget;
//! * [`Fleet`] — the lock-step minute loop (decide ∥ → arbitrate →
//!   advance ∥ → bleed), fleet snapshots (per-zone checkpoints + the
//!   coordinator state), and bit-identical resume.
//!
//! Determinism is load-bearing: zone trajectories are bit-identical for
//! any worker count (results land in per-zone slots; the only cross-zone
//! phases are serial), a one-zone fleet is bit-identical to the
//! single-zone supervised episode, and a resumed fleet is bit-identical
//! to an uninterrupted one.
//!
//! Shared services: every zone's controller is built from one fitted DC
//! time-series model (cloned, per-zone RNG seeds — the offline fit
//! happens once per fleet, not once per zone), the GP pairwise-distance
//! and hyper-grid caches inside each optimizer do the same work per zone
//! they did per episode, and the historian is one `Arc<dyn MetricStore>`
//! with zone-prefixed series (`z7.setpoint_c`).
//!
//! # Example: a two-pod site under a tight power budget
//!
//! ```
//! use tesla_core::EpisodeConfig;
//! use tesla_fleet::{Fleet, FleetConfig, FleetTopology};
//! use tesla_units::{Celsius, Kilowatts};
//!
//! let config = FleetConfig {
//!     topology: FleetTopology::row(2, Kilowatts::new(125.0), 0.2)?,
//!     zone: EpisodeConfig { minutes: 3, warmup_minutes: 2, ..Default::default() },
//!     site_budget_kw: Kilowatts::new(5.0), // force arbitration
//!     ..Default::default()
//! };
//! let controllers = (0..2)
//!     .map(|_| {
//!         Box::new(tesla_core::FixedController::new(Celsius::new(23.0)))
//!             as Box<dyn tesla_core::Controller + Send>
//!     })
//!     .collect();
//! let report = Fleet::new(config, controllers, None)?.run(3, None)?;
//! assert_eq!(report.zones.len(), 2);
//! assert_eq!(report.minutes, 3);
//! # Ok::<(), tesla_fleet::FleetError>(())
//! ```

pub mod actor;
pub mod coordinator;
pub mod fleet;
pub mod scheduler;
pub mod topology;

pub use actor::{zone_seed, ZoneActor};
pub use coordinator::{CoordinatorConfig, FleetCoordinator, ZoneDecision};
pub use fleet::{Fleet, FleetCheckpointPolicy, FleetConfig, FleetReport};
pub use topology::{BleedEdge, FleetTopology, PodSpec};

use tesla_core::{Controller, CoreError, TeslaConfig, TeslaController};
use tesla_forecast::{DcTimeSeriesModel, Trace};
use tesla_units::ZoneId;

/// Errors from the fleet layer.
#[derive(Debug)]
pub enum FleetError {
    /// Control-layer failure in one zone.
    Core(CoreError),
    /// Simulator failure in one pod.
    Sim(tesla_sim::SimError),
    /// Snapshot store failure.
    Checkpoint(tesla_core::CheckpointError),
    /// Fleet configuration failure.
    Config(String),
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::Core(e) => write!(f, "zone control: {e}"),
            FleetError::Sim(e) => write!(f, "pod simulator: {e}"),
            FleetError::Checkpoint(e) => write!(f, "fleet snapshot: {e}"),
            FleetError::Config(m) => write!(f, "fleet config: {m}"),
        }
    }
}

impl std::error::Error for FleetError {}

impl From<CoreError> for FleetError {
    fn from(e: CoreError) -> Self {
        FleetError::Core(e)
    }
}
impl From<tesla_sim::SimError> for FleetError {
    fn from(e: tesla_sim::SimError) -> Self {
        FleetError::Sim(e)
    }
}
impl From<tesla_core::CheckpointError> for FleetError {
    fn from(e: tesla_core::CheckpointError) -> Self {
        FleetError::Checkpoint(e)
    }
}

/// Builds one TESLA controller per zone from a *single* offline model
/// fit — the fleet's shared modeling service. The fit (the expensive
/// part) runs once; each zone gets a clone of the fitted model and its
/// own decision RNG stream derived from `config.seed` (zone 0 keeps the
/// base seed, matching [`zone_seed`]).
pub fn shared_tesla_controllers(
    train: &Trace,
    config: &TeslaConfig,
    n_zones: usize,
) -> Result<Vec<Box<dyn Controller + Send>>, FleetError> {
    let model = DcTimeSeriesModel::fit(train, config.model.clone())
        .map_err(|e| FleetError::Core(CoreError::Forecast(e)))?;
    let mut out: Vec<Box<dyn Controller + Send>> = Vec::with_capacity(n_zones);
    for i in 0..n_zones {
        let mut zone_cfg = config.clone();
        zone_cfg.seed = zone_seed(config.seed, ZoneId::new(i));
        out.push(Box::new(TeslaController::with_model(
            model.clone(),
            zone_cfg,
        )?));
    }
    Ok(out)
}
