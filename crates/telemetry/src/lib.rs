#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Observability substrate: the reproduction's InfluxDB + Telegraf.
//!
//! The paper's deployment (§4) runs a Telegraf agent per server collecting
//! power and CPU/memory utilization, plus Modbus pollers for ACU and rack
//! sensor temperatures, all written into InfluxDB; TESLA's main loop is a
//! producer process that pulls windows from InfluxDB and pushes them onto
//! a message queue, and a consumer process that runs the control pipeline.
//!
//! This crate supplies the collection and sensor-health half of that
//! stack; storage is the `tesla-historian` engine behind its
//! [`MetricStore`] trait (re-exported here):
//!
//! * [`collector::Collector`] — fans one simulator [`tesla_sim::Observation`]
//!   out into any [`MetricStore`] under stable metric names.
//! * [`health::HealthMonitor`] — per-signal staleness/range/flatline
//!   detection with quarantine and imputation, so forecaster windows
//!   stay full when sensors fail.
//!
//! The paper min-max normalizes every signal before modeling (§5.1).
//! Nothing in this workspace models on min-max-normalized data; the
//! ridge regressions standardize their own features.
//!
//! # Example: collecting one observation
//!
//! ```
//! use tesla_historian::{Historian, HistorianConfig};
//! use tesla_sim::{SimConfig, Testbed};
//! use tesla_telemetry::{metric, Collector, MetricStore};
//!
//! let store = Historian::in_memory(HistorianConfig::default());
//! let mut testbed = Testbed::new(SimConfig::default(), 1)?;
//! let obs = testbed.step_sample(&vec![0.3; testbed.config().n_servers])?;
//! Collector::collect(&store, &obs);
//! assert_eq!(store.last(metric::ACU_POWER), Some(obs.acu_power_kw));
//! assert_eq!(store.len(&metric::dc_temp(0)), 1);
//! # Ok::<(), tesla_sim::SimError>(())
//! ```

pub mod collector;
pub mod health;

pub use collector::{metric, Collector};
pub use health::{HealthConfig, HealthFault, HealthMonitor, SanitizeReport};
pub use tesla_historian::MetricStore;
