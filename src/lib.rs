#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Umbrella crate for the TESLA reproduction.
//!
//! Re-exports the workspace's sub-crates under one roof so examples and
//! downstream users can depend on a single crate:
//!
//! * [`sim`] — the simulated data-center testbed (servers, thermal
//!   network, PID-controlled ACU, sensors, Modbus facade).
//! * [`workload`] — load generation (diurnal profiles, Kubernetes-like
//!   jobs).
//! * [`historian`] — embedded durable time-series engine behind the
//!   `MetricStore` trait: sharded ingest, Gorilla compression,
//!   CRC-framed WAL with crash recovery, retention/downsampling, and
//!   deterministic episode replay (see docs/HISTORIAN.md).
//! * [`linalg`] — dense linear algebra, ridge regression, statistics.
//! * [`forecast`] — TESLA's DC time-series model (ASP/ACU/DCS/energy
//!   sub-modules) and the recursive AR baseline.
//! * [`ml`] — MLP / CART / gradient-boosting / random-forest baselines.
//! * [`gp`] — Matérn 5/2 fixed-noise Gaussian processes, Sobol QMC.
//! * [`bo`] — bootstrap error monitor, constrained NEI, the Bayesian
//!   optimizer.
//! * [`core`] — the controllers (TESLA, fixed, Lazic MPC, TSRL) and the
//!   end-to-end evaluation machinery.
//! * [`units`] — zero-cost units-of-measure newtypes ([`units::Celsius`],
//!   [`units::Kilowatts`], …) used across every public API.
//! * [`obs`] — metrics registry, span tracing, Prometheus/JSONL
//!   exporters (see docs/OBSERVABILITY.md; off until
//!   [`obs::set_enabled`] is called).
//! * [`reactor`] — dependency-free non-blocking TCP event loop
//!   (sharded sweep threads, idle-connection poll backoff) that hosts
//!   the network servers.
//! * [`net`] — the TLP/1 network service: batched telemetry ingest
//!   into the historian behind a bounded drop-oldest queue, plus the
//!   query/status/set-point API (wire protocol spec: docs/SERVICE.md).
//!
//! Start with `examples/quickstart.rs`, DESIGN.md (system inventory) and
//! EXPERIMENTS.md (paper-vs-measured for every table and figure).
//!
//! # Example
//!
//! ```
//! use tesla::units::{Celsius, DegC};
//!
//! // Typed quantities: Celsius − Celsius = DegC; cross-unit arithmetic
//! // is a compile error rather than a runtime surprise.
//! let headroom: DegC = Celsius::new(22.0) - Celsius::new(21.2);
//! assert!(headroom.value() > 0.0);
//!
//! // Observability is off by default; opt in and counters go live.
//! tesla::obs::set_enabled(true);
//! let steps = tesla::obs::global().counter("quickstart_steps_total", &[]);
//! steps.inc();
//! assert_eq!(steps.get(), 1);
//! ```

pub use tesla_bo as bo;
pub use tesla_core as core;
pub use tesla_fleet as fleet;
pub use tesla_forecast as forecast;
pub use tesla_gp as gp;
pub use tesla_historian as historian;
pub use tesla_linalg as linalg;
pub use tesla_ml as ml;
pub use tesla_net as net;
pub use tesla_obs as obs;
pub use tesla_reactor as reactor;
pub use tesla_sim as sim;
pub use tesla_units as units;
pub use tesla_workload as workload;
