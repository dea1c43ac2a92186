#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! TESLA's control layer: the paper's primary contribution, plus the
//! three comparison controllers of Table 5 and the machinery to train and
//! evaluate all of them end-to-end on the simulated testbed.
//!
//! * [`tesla::TeslaController`] — the full pipeline of Figs. 5 and 7:
//!   DC time-series model → objective/constraint (Eqs. 5–9, including the
//!   cooling-interruption penalty `D`) → bootstrap-noise-aware constrained
//!   Bayesian optimizer → smoothing buffer → set-point execution.
//! * [`fixed::FixedController`] — the industry-practice fixed set-point
//!   (23 °C in the paper's evaluation).
//! * [`lazic::LazicController`] — Lazic et al. \[20\]: recursive
//!   autoregressive model + "highest set-point whose predicted max
//!   cold-aisle temperature stays below the limit", with the `S_min`
//!   backup.
//! * [`tsrl::TsrlController`] — TSRL \[8\]: offline RL (fitted Q iteration
//!   over discretized set-points) trained on logged traces with an
//!   energy reward and a thermal-violation cost, and *no* interruption
//!   term — which is exactly why it overshoots (§6.3).
//! * [`dataset`] — §5.1's data collection: random 12-hour load settings
//!   with a 20→35 °C set-point sweep at 0.5 °C per 5 minutes.
//! * [`engine`] — [`ZoneEpisode`], the one minute loop every controller
//!   episode runs on: one zone's plant, workload, sanitized trace and
//!   metric accumulators, stepped a control minute at a time.
//! * [`experiment`] — the Table 5 metrics (cooling energy, thermal-safety
//!   violation on the sensors and on ground truth, cooling interruption)
//!   and [`run_episode`], the paper's evaluation episode: a
//!   [`ZoneEpisode`] under a supervisor that never overrides the
//!   controller ([`SupervisorConfig::pass_through`]).
//! * [`replay`] — episode snapshot/replay: records the executed
//!   set-point sequence into a [`tesla_historian::MetricStore`] and
//!   re-executes it later (across restarts, through WAL recovery) for a
//!   bit-identical reproduction of the original episode.
//! * [`checkpoint`] — versioned, CRC-framed control-plane checkpoints
//!   with atomic writes, keep-N retention, and torn-write detection.
//! * [`resume`] — crash-resilient supervised episodes: periodic
//!   checkpointing, and resume that is bit-identical from the restored
//!   cursor (falling back to the `HoldLastSafe` posture when no valid
//!   checkpoint survives).
//! * [`runtime`] — the §4-faithful threaded producer/consumer deployment:
//!   the supervised engine on the producer side, the controller on a
//!   consumer thread behind a channel, with safe-mode fallback when the
//!   consumer dies.
//! * [`supervisor`] — the robustness layer: decision watchdog, retrying
//!   Modbus writes, and a three-rung degradation ladder
//!   (normal → hold-last-safe → `S_min` safe mode) with hysteresis, plus
//!   [`run_supervised_episode`], which runs a [`ZoneEpisode`] under it.
//! * [`health`] — per-signal sensor health: dropout, range, flatline and
//!   peer-deviation detection with quarantine and imputation, so the
//!   controller's windows stay full and finite when sensors fail.
//! * [`collector`] — the Telegraf stand-in: writes every signal of an
//!   observation into a [`tesla_historian::MetricStore`] under the
//!   stable [`metric`] names.
//!
//! # Example: a short fixed-set-point episode
//!
//! ```
//! use tesla_core::{run_episode, EpisodeConfig, FixedController};
//! use tesla_units::Celsius;
//!
//! let mut fixed = FixedController::new(Celsius::new(23.0));
//! let cfg = EpisodeConfig { minutes: 5, warmup_minutes: 2, ..Default::default() };
//! let result = run_episode(&mut fixed, &cfg)?;
//! assert_eq!(result.setpoints.len(), 5);
//! assert!(result.cooling_energy_kwh > 0.0);
//! # Ok::<(), tesla_core::CoreError>(())
//! ```

pub mod checkpoint;
pub mod collector;
pub mod controller;
pub mod dataset;
pub mod engine;
pub mod experiment;
pub mod fixed;
pub mod health;
pub mod lazic;
pub mod objective;
pub mod replay;
pub mod resume;
pub mod runtime;
pub mod smoothing;
pub mod status;
pub mod supervisor;
pub mod tesla;
pub mod tsrl;

pub use checkpoint::{Checkpoint, CheckpointError, CheckpointStore, CHECKPOINT_VERSION};
pub use collector::{metric, Collector};
pub use controller::Controller;
pub use engine::{MinuteOutcome, ZoneEpisode};
pub use experiment::{run_episode, EpisodeConfig, EvalResult};
pub use fixed::FixedController;
pub use health::{HealthConfig, HealthFault, HealthMonitor, SanitizeReport};
pub use lazic::LazicController;
pub use replay::{record_episode, replay_supervised_episode, ReplayController};
pub use resume::{
    resume_supervised_episode, run_checkpointed_episode, CheckpointPolicy, ResumeReport,
};
pub use runtime::run_episode_threaded;
pub use smoothing::SmoothingBuffer;
pub use status::{StatusBoard, StatusSnapshot, ZoneStatusRegistry};
pub use supervisor::{
    run_supervised_episode, ResumeState, Rung, StressReason, Supervisor, SupervisorConfig,
    SupervisorEvent, SupervisorState,
};
pub use tesla::{TeslaConfig, TeslaController};
pub use tsrl::{TsrlConfig, TsrlController};

/// The unified jittered-exponential-backoff policy (re-exported so
/// control-plane callers don't need a separate dependency line).
pub use tesla_backoff as backoff;

/// Errors from the control layer.
#[derive(Debug)]
pub enum CoreError {
    /// Simulator failure.
    Sim(tesla_sim::SimError),
    /// Forecasting failure.
    Forecast(tesla_forecast::ForecastError),
    /// Optimizer failure.
    Bo(tesla_bo::BoError),
    /// ML baseline failure.
    Ml(tesla_ml::MlError),
    /// Configuration / orchestration failure.
    Config(String),
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::Sim(e) => write!(f, "simulator: {e}"),
            CoreError::Forecast(e) => write!(f, "forecast: {e}"),
            CoreError::Bo(e) => write!(f, "optimizer: {e}"),
            CoreError::Ml(e) => write!(f, "ml: {e}"),
            CoreError::Config(m) => write!(f, "config: {m}"),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<tesla_sim::SimError> for CoreError {
    fn from(e: tesla_sim::SimError) -> Self {
        CoreError::Sim(e)
    }
}
impl From<tesla_forecast::ForecastError> for CoreError {
    fn from(e: tesla_forecast::ForecastError) -> Self {
        CoreError::Forecast(e)
    }
}
impl From<tesla_bo::BoError> for CoreError {
    fn from(e: tesla_bo::BoError) -> Self {
        CoreError::Bo(e)
    }
}
impl From<tesla_ml::MlError> for CoreError {
    fn from(e: tesla_ml::MlError) -> Self {
        CoreError::Ml(e)
    }
}
