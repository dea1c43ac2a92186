//! # tesla-obs — dependency-free observability for the TESLA stack
//!
//! Architecture, in five lines:
//! 1. A global sharded [`MetricsRegistry`] resolves `(&'static str name,
//!    labels)` to counters, gauges, and log-linear-bucket histograms whose
//!    update paths are plain atomics — no locks after first resolution.
//! 2. [`span!`]/[`event`] record named intervals with monotonic µs
//!    timestamps into a bounded drop-oldest [`TraceBuffer`].
//! 3. [`export`] renders Prometheus text or JSON from a registry snapshot;
//!    traces export as JSONL. An optional `http` feature serves both from
//!    a tiny blocking endpoint. Everything is `std`-only.
//!
//! Collection is off by default; flip it on with [`set_enabled`]. All
//! update paths check the flag first. With collection off, a hit on a
//! [`counter!`]/[`gauge!`]/[`histogram!`] call site whose handle is
//! already cached costs one acquire load of its `OnceLock` and one
//! relaxed load of the flag: no allocation, no lock, and no write to a
//! shared cache line. A labelled lookup through
//! [`MetricsRegistry::counter`] and its siblings is dearer whether or
//! not collection is on: it builds a key (a `Vec` and a `String` per
//! label), hashes it and takes a shard's read lock, so hot paths cache
//! the handle instead.
//!
//! ```
//! tesla_obs::set_enabled(true);
//! let steps = tesla_obs::global().counter("control_steps_total", &[]);
//! {
//!     let mut span = tesla_obs::span!("control_step", step = 1);
//!     span.record_field("setpoint_celsius", 23.5);
//!     steps.inc();
//! } // span records itself on drop
//! assert_eq!(steps.get(), 1);
//! let text = tesla_obs::export::render_prometheus(tesla_obs::global());
//! assert!(text.contains("control_steps_total 1"));
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
#[cfg(feature = "http")]
pub mod http;
pub mod registry;
pub mod trace;

pub use registry::{
    bucket_bounds, Counter, Gauge, Histogram, MetricSample, MetricsRegistry, SampleValue,
};
pub use trace::{event, global_trace, now_micros, Span, SpanRecord, TraceBuffer};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// True when metric/trace collection is on. Every update path checks this
/// first, so on a handle already in hand the disabled cost is one
/// relaxed load.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns collection on or off process-wide.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// The process-wide registry used by the [`counter!`]/[`gauge!`]/
/// [`histogram!`] macros and the instrumented TESLA crates.
pub fn global() -> &'static MetricsRegistry {
    static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::new)
}

/// A guard that observes elapsed seconds into a [`Histogram`] on drop.
/// Started while collection is disabled, it reads no clock, holds no
/// handle and observes nothing.
#[derive(Debug)]
pub struct Timer {
    running: Option<(Histogram, Instant)>,
}

impl Timer {
    /// Starts timing against `histogram`. The handle is cloned, and the
    /// clock read, only while collection is on.
    pub fn start(histogram: &Histogram) -> Timer {
        Timer {
            running: enabled().then(|| (histogram.clone(), Instant::now())),
        }
    }

    /// Seconds elapsed so far (0 when started disabled).
    pub fn elapsed_seconds(&self) -> f64 {
        self.running
            .as_ref()
            .map_or(0.0, |(_, start)| start.elapsed().as_secs_f64())
    }
}

impl Drop for Timer {
    fn drop(&mut self) {
        if let Some((histogram, start)) = &self.running {
            histogram.observe(start.elapsed().as_secs_f64());
        }
    }
}

/// Resolves (once) and returns a label-free [`Counter`] on the global
/// registry. The handle is cached in a `static OnceLock` at the call
/// site and returned as `&'static Counter`, so a repeat hit is one
/// acquire load and touches no shared counter state until it updates.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<$crate::Counter> = ::std::sync::OnceLock::new();
        HANDLE.get_or_init(|| $crate::global().counter($name, &[]))
    }};
}

/// Resolves (once) and returns a label-free `&'static` [`Gauge`] on the
/// global registry, cached at the call site like [`counter!`].
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<$crate::Gauge> = ::std::sync::OnceLock::new();
        HANDLE.get_or_init(|| $crate::global().gauge($name, &[]))
    }};
}

/// Resolves (once) and returns a label-free `&'static` [`Histogram`] on
/// the global registry, cached at the call site like [`counter!`].
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<$crate::Histogram> = ::std::sync::OnceLock::new();
        HANDLE.get_or_init(|| $crate::global().histogram($name, &[]))
    }};
}

/// Opens a [`Span`] recording into the global trace buffer on drop.
///
/// ```
/// tesla_obs::set_enabled(true);
/// let _span = tesla_obs::span!("bo_iteration", iteration = 3, best = 0.25);
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::Span::enter($name, &[])
    };
    ($name:expr, $($key:ident = $value:expr),+ $(,)?) => {
        $crate::Span::enter($name, &[$((stringify!($key), ($value) as f64)),+])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn macros_cache_and_update() {
        set_enabled(true);
        counter!("lib_macro_total").inc();
        counter!("lib_macro_total").inc();
        assert_eq!(global().counter("lib_macro_total", &[]).get(), 2);
        gauge!("lib_macro_ratio").set(0.5);
        assert_eq!(global().gauge("lib_macro_ratio", &[]).get(), 0.5);
        histogram!("lib_macro_seconds").observe(0.01);
        assert_eq!(global().histogram("lib_macro_seconds", &[]).count(), 1);
    }

    #[test]
    fn timer_observes_on_drop() {
        set_enabled(true);
        let h = global().histogram("lib_timer_seconds", &[]);
        {
            let _t = Timer::start(&h);
        }
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn span_macro_records_fields() {
        set_enabled(true);
        {
            let _s = span!("lib_span_test", step = 7);
        }
        let recs = global_trace().snapshot();
        assert!(recs
            .iter()
            .any(|r| r.name == "lib_span_test" && r.fields.contains(&("step".to_string(), 7.0))));
    }
}
