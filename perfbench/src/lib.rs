#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! End-to-end and per-layer benchmark of the TESLA reproduction.
//!
//! Three workloads, each built from a seed and measured from outside
//! the program through its public API:
//!
//! * [`zone`] — `zone-tesla`: the paper's controller, one zone, one
//!   thread, Table 5's idle/medium/high protocol;
//! * [`fleet`] — `fleet-lazic`: a budget-bound row site of Lazic zones
//!   on the fleet scheduler, with an in-memory historian attached;
//! * [`tlp`] — `tlp-mixed`: the TLP/1 service over a WAL historian,
//!   one closed-loop `PUSHC` writer and one open-loop `QUERY RANGE`
//!   reader in a generator process.
//!
//! [`report`] holds the exact statistics and the result line,
//! [`layers`] the outside-in timing wrappers of the traced runs.

pub mod fleet;
pub mod layers;
pub mod report;
pub mod tlp;
pub mod zone;
