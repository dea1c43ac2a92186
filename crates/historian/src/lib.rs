//! # tesla-historian — embedded time-series storage for the TESLA stack
//!
//! The paper's testbed keeps all sensor and power telemetry in InfluxDB
//! and fits the forecaster from those historical series (§3, §4.1). This
//! crate is the production-shaped stand-in: an embedded storage engine
//! with a sharded ingest path, Gorilla-style compressed blocks, a
//! CRC-framed write-ahead log with crash recovery, retention +
//! downsampling, and a query layer that serves the forecast lag windows.
//! Recorded supervised episodes replay bit-identically from disk.
//!
//! Layers, bottom up:
//! 1. [`gorilla`] — delta-of-delta timestamps and XOR-encoded values,
//!    bit-packed with an exact round-trip.
//! 2. [`wal`] — length+CRC framed records in rotating segments; recovery
//!    truncates torn tails so a crash loses at most one unflushed record.
//! 3. [`engine`] — the [`Historian`]: series hash to shards, appends land
//!    in an active block, sealed blocks compress, retention downsamples
//!    and expires.
//! 4. [`MetricStore`] — the object-safe trait the rest of the workspace
//!    writes and queries through, so callers hold an
//!    `Arc<dyn MetricStore>` whether the [`Historian`] behind it is
//!    in-memory or WAL-backed.
//!
//! ```
//! use tesla_historian::{Historian, HistorianConfig, MetricStore};
//!
//! let h = Historian::in_memory(HistorianConfig::default());
//! h.insert("acu.power_kw", 0.0, 2.5);
//! h.insert("acu.power_kw", 60.0, 2.75);
//! assert_eq!(h.last("acu.power_kw"), Some(2.75));
//! assert_eq!(h.last_n("acu.power_kw", 2), vec![2.5, 2.75]);
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod gorilla;
pub mod wal;

pub use engine::{Historian, HistorianConfig, RetentionPolicy, StorageStats};
pub use wal::{FsyncPolicy, RecoveryStats, WalConfig};

/// Errors from the storage engine.
#[derive(Debug)]
pub enum HistorianError {
    /// An operating-system I/O failure (WAL or segment files).
    Io(std::io::Error),
    /// On-disk or in-flight data failed validation (CRC mismatch is
    /// handled by truncation; this is for CRC-valid but malformed
    /// payloads and truncated compressed blocks).
    Corrupt(String),
}

impl std::fmt::Display for HistorianError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HistorianError::Io(e) => write!(f, "historian I/O error: {e}"),
            HistorianError::Corrupt(what) => write!(f, "historian corruption: {what}"),
        }
    }
}

impl std::error::Error for HistorianError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HistorianError::Io(e) => Some(e),
            HistorianError::Corrupt(_) => None,
        }
    }
}

impl From<std::io::Error> for HistorianError {
    fn from(e: std::io::Error) -> Self {
        HistorianError::Io(e)
    }
}

/// The storage interface the TESLA stack writes and queries through.
///
/// [`Historian`] implements it in both its in-memory and WAL-backed
/// modes, and the collector, runtime, and forecast window builders take
/// `Arc<dyn MetricStore>`, so test doubles and timing wrappers can stand
/// in for it. Semantics every implementation must honor:
///
/// - Queries on an unknown metric return empty/`None`/0 — never an error.
/// - `range` is the half-open window `t0 <= time < t1`; a NaN bound or
///   an empty/reversed interval yields an empty result, never a panic.
/// - `last_n` returns samples oldest-first.
pub trait MetricStore: Send + Sync {
    /// Appends a sample to `metric` (creating the series on first use).
    fn insert(&self, metric: &str, time_s: f64, value: f64);

    /// Appends many time-ordered samples to `metric` in one call.
    /// Implementations override this when batching amortizes locking.
    fn insert_batch(&self, metric: &str, samples: &[(f64, f64)]) {
        for &(t, v) in samples {
            self.insert(metric, t, v);
        }
    }

    /// Appends several per-metric sample runs in one call — the entry
    /// point the network ingest path drains batches through (see
    /// `docs/SERVICE.md`). Each run is `(metric, time-ordered samples)`.
    /// Implementations override this when they can amortize locking or
    /// WAL framing across runs; the default just replays `insert_batch`
    /// per run.
    fn insert_runs(&self, runs: &[(String, Vec<(f64, f64)>)]) {
        for (metric, samples) in runs {
            self.insert_batch(metric, samples);
        }
    }

    /// The most recent `n` values of `metric`, oldest first. Empty when
    /// the metric does not exist.
    fn last_n(&self, metric: &str, n: usize) -> Vec<f64>;

    /// The most recent value of `metric`.
    fn last(&self, metric: &str) -> Option<f64> {
        self.last_n(metric, 1).pop()
    }

    /// Values of `metric` with `t0 <= time < t1`. Empty for NaN bounds
    /// or an empty/reversed interval.
    fn range(&self, metric: &str, t0: f64, t1: f64) -> Vec<f64>;

    /// Full copy of a metric's series (values only).
    fn values(&self, metric: &str) -> Vec<f64>;

    /// Number of samples stored for `metric` (0 when absent).
    fn len(&self, metric: &str) -> usize;

    /// Sorted list of all metric names.
    fn metric_names(&self) -> Vec<String>;

    /// True when the store holds no metrics at all.
    fn is_empty(&self) -> bool {
        self.metric_names().is_empty()
    }

    /// Mean of the most recent `n` values of `metric` (`None` when the
    /// metric is absent or empty).
    fn mean_last_n(&self, metric: &str, n: usize) -> Option<f64> {
        let vals = self.last_n(metric, n);
        if vals.is_empty() {
            return None;
        }
        Some(vals.iter().sum::<f64>() / vals.len() as f64)
    }

    /// Time-window aggregate: `(mean, min, max)` of `metric` over
    /// `t0 <= time < t1`. `None` when no samples fall in the window.
    fn aggregate_range(&self, metric: &str, t0: f64, t1: f64) -> Option<(f64, f64, f64)> {
        let vals = self.range(metric, t0, t1);
        if vals.is_empty() {
            return None;
        }
        let mean = vals.iter().sum::<f64>() / vals.len() as f64;
        let min = vals.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        Some((mean, min, max))
    }

    /// Aligned multi-series fetch: the most recent `n` values of every
    /// metric in `metrics`, oldest first, one `Vec` per metric in input
    /// order — the shape the forecast lag-window builder consumes.
    fn last_n_many(&self, metrics: &[&str], n: usize) -> Vec<Vec<f64>> {
        metrics.iter().map(|m| self.last_n(m, n)).collect()
    }
}
