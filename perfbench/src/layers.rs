//! Outside-in layer timers: wrappers that time calls into a layer's
//! public interface from the benchmark's side of it. The program under
//! test carries no benchmark instrumentation; each wrapper forwards the
//! calls the benchmark's loops make unchanged and adds their wall time
//! to a [`Busy`] counter.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tesla_core::Controller;
use tesla_forecast::Trace;
use tesla_historian::MetricStore;
use tesla_sim::{CoolingPlant, Observation, SimError};
use tesla_units::Celsius;

/// Busy time and call count of one layer, shareable across threads.
#[derive(Debug, Default)]
pub struct Busy {
    nanos: AtomicU64,
    calls: AtomicU64,
    items: AtomicU64,
}

impl Busy {
    /// Records one call that took `d` and handled `items` units of work.
    pub fn add(&self, d: Duration, items: u64) {
        self.nanos.fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.items.fetch_add(items, Ordering::Relaxed);
    }

    /// Runs `f`, recording its wall time as one call.
    pub fn time<R>(&self, items: u64, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.add(t.elapsed(), items);
        r
    }

    /// Forgets everything recorded so far.
    pub fn reset(&self) {
        self.nanos.store(0, Ordering::Relaxed);
        self.calls.store(0, Ordering::Relaxed);
        self.items.store(0, Ordering::Relaxed);
    }

    /// Total busy seconds.
    pub fn seconds(&self) -> f64 {
        self.nanos.load(Ordering::Relaxed) as f64 * 1e-9
    }

    /// Calls recorded.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Work units recorded (samples, for store writes).
    pub fn items(&self) -> u64 {
        self.items.load(Ordering::Relaxed)
    }
}

/// A [`Controller`] that times `decide` into `busy`.
pub struct TimedController<C> {
    inner: C,
    busy: Arc<Busy>,
}

impl<C: Controller> TimedController<C> {
    /// Wraps `inner`.
    pub fn new(inner: C, busy: Arc<Busy>) -> Self {
        TimedController { inner, busy }
    }

    /// The wrapped controller.
    pub fn inner(&self) -> &C {
        &self.inner
    }
}

impl<C: Controller> Controller for TimedController<C> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn decide(&mut self, history: &Trace) -> f64 {
        self.busy.time(1, || self.inner.decide(history))
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}

/// A [`CoolingPlant`] that times `step_sample` (the physics step).
pub struct TimedPlant<P> {
    inner: P,
    step: Arc<Busy>,
}

impl<P: CoolingPlant> TimedPlant<P> {
    /// Wraps `inner`, timing physics steps into `step`.
    pub fn new(inner: P, step: Arc<Busy>) -> Self {
        TimedPlant { inner, step }
    }
}

impl<P: CoolingPlant> CoolingPlant for TimedPlant<P> {
    fn n_servers(&self) -> usize {
        self.inner.n_servers()
    }

    fn setpoint(&self) -> Celsius {
        self.inner.setpoint()
    }

    fn write_setpoint_clamped(&mut self, sp: Celsius) {
        self.inner.write_setpoint_clamped(sp);
    }

    fn try_write_setpoint(&mut self, sp: Celsius) -> Result<Celsius, SimError> {
        self.inner.try_write_setpoint(sp)
    }

    fn step_sample(&mut self, utils: &[f64]) -> Result<Observation, SimError> {
        self.step.time(1, || self.inner.step_sample(utils))
    }
}

/// A [`MetricStore`] that times writes and range reads.
pub struct TimedStore {
    inner: Arc<dyn MetricStore>,
    /// Single-sample and per-series batch inserts.
    pub insert: Busy,
    /// Multi-run inserts (the network ingest writer's entry point).
    pub insert_runs: Busy,
    /// Range reads.
    pub range: Busy,
}

impl TimedStore {
    /// Wraps `inner`.
    pub fn new(inner: Arc<dyn MetricStore>) -> Self {
        TimedStore {
            inner,
            insert: Busy::default(),
            insert_runs: Busy::default(),
            range: Busy::default(),
        }
    }

    /// Forgets every call recorded so far (start of a measured window).
    pub fn reset(&self) {
        self.insert.reset();
        self.insert_runs.reset();
        self.range.reset();
    }
}

impl MetricStore for TimedStore {
    fn insert(&self, metric: &str, time_s: f64, value: f64) {
        self.insert
            .time(1, || self.inner.insert(metric, time_s, value));
    }

    fn insert_batch(&self, metric: &str, samples: &[(f64, f64)]) {
        self.insert.time(samples.len() as u64, || {
            self.inner.insert_batch(metric, samples)
        });
    }

    fn insert_runs(&self, runs: &[(String, Vec<(f64, f64)>)]) {
        let samples: usize = runs.iter().map(|(_, s)| s.len()).sum();
        self.insert_runs
            .time(samples as u64, || self.inner.insert_runs(runs));
    }

    fn last_n(&self, metric: &str, n: usize) -> Vec<f64> {
        self.inner.last_n(metric, n)
    }

    fn range(&self, metric: &str, t0: f64, t1: f64) -> Vec<f64> {
        self.range.time(1, || self.inner.range(metric, t0, t1))
    }

    fn values(&self, metric: &str) -> Vec<f64> {
        self.inner.values(metric)
    }

    fn len(&self, metric: &str) -> usize {
        self.inner.len(metric)
    }

    fn metric_names(&self) -> Vec<String> {
        self.inner.metric_names()
    }
}
