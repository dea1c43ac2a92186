//! Attribution self-test: a known delay injected at one layer must show
//! up in that layer's busy time, and not in its neighbours'; a known
//! fault injected into the store must fail the run's output checks.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use tesla_core::{Controller, EpisodeConfig, FixedController};
use tesla_forecast::Trace;
use tesla_historian::MetricStore;
use tesla_perfbench::tlp::{measure, Dataset, StoreLayer, TlpParams, Window};
use tesla_perfbench::zone::{self, traced_layer_seconds, ZoneParams};
use tesla_units::Celsius;

const DELAY: Duration = Duration::from_millis(2);

/// Sleeps a fixed time before each decision of the controller it wraps.
struct DelayedController<C> {
    inner: C,
    delay: Duration,
}

impl<C: Controller> Controller for DelayedController<C> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn decide(&mut self, history: &Trace) -> f64 {
        std::thread::sleep(self.delay);
        self.inner.decide(history)
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}

#[test]
fn decide_delay_lands_in_core_decide_not_in_advance() {
    let cfg = EpisodeConfig {
        minutes: 40,
        warmup_minutes: 5,
        seed: 3,
        ..EpisodeConfig::default()
    };
    let fixed = || FixedController::new(Celsius::new(24.0));
    let (decide, advance, step) = traced_layer_seconds(fixed(), &cfg).unwrap();
    let (decide_slow, advance_slow, step_slow) = traced_layer_seconds(
        DelayedController {
            inner: fixed(),
            delay: DELAY,
        },
        &cfg,
    )
    .unwrap();
    let injected = cfg.minutes as f64 * DELAY.as_secs_f64();
    assert!(
        decide_slow - decide >= injected,
        "decide grew {:.4} s, injected {injected:.4} s",
        decide_slow - decide
    );
    assert!(
        (advance_slow - advance).abs() + (step_slow - step).abs() < 0.25 * injected,
        "advance moved {:.4} s and step {:.4} s for a decide-only delay",
        advance_slow - advance,
        step_slow - step
    );
}

/// A store that forwards every call to `inner`, sleeping `delay` inside
/// each `insert_runs` and leaving the last `drop_last` samples out of
/// each `range` reply.
struct FaultyStore {
    inner: Arc<dyn MetricStore>,
    delay: Duration,
    drop_last: usize,
}

impl MetricStore for FaultyStore {
    fn insert(&self, metric: &str, time_s: f64, value: f64) {
        self.inner.insert(metric, time_s, value);
    }

    fn insert_batch(&self, metric: &str, samples: &[(f64, f64)]) {
        self.inner.insert_batch(metric, samples);
    }

    fn insert_runs(&self, runs: &[(String, Vec<(f64, f64)>)]) {
        std::thread::sleep(self.delay);
        self.inner.insert_runs(runs);
    }

    fn last_n(&self, metric: &str, n: usize) -> Vec<f64> {
        self.inner.last_n(metric, n)
    }

    fn range(&self, metric: &str, t0: f64, t1: f64) -> Vec<f64> {
        let mut values = self.inner.range(metric, t0, t1);
        values.truncate(values.len().saturating_sub(self.drop_last));
        values
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

fn plain(store: Arc<dyn MetricStore>) -> Arc<dyn MetricStore> {
    store
}

fn delayed(store: Arc<dyn MetricStore>) -> Arc<dyn MetricStore> {
    Arc::new(FaultyStore {
        inner: store,
        delay: DELAY,
        drop_last: 0,
    })
}

fn truncating(store: Arc<dyn MetricStore>) -> Arc<dyn MetricStore> {
    Arc::new(FaultyStore {
        inner: store,
        delay: Duration::ZERO,
        drop_last: 1,
    })
}

fn tiny_tlp() -> TlpParams {
    TlpParams {
        seed: 5,
        series: 8,
        batch: 256,
        prime: 100,
        batches: 400,
        query_hz: 200.0,
        window: 200,
        throttle: 1 << 20,
        setups: 1,
    }
}

/// One traced tlp-mixed window with `layer` under the timing store, the
/// generator being the benchmark's own executable.
fn tlp_window(layer: StoreLayer, tag: &str) -> Window {
    let data = Dataset::new(&tiny_tlp());
    let dir = PathBuf::from(".work").join(format!("attribution-{}-{tag}", std::process::id()));
    let exe = Path::new(env!("CARGO_BIN_EXE_tesla-perfbench"));
    let window = measure(&data, exe, layer, dir).unwrap();
    // The window removed its own directory; drop the parent if empty.
    let _ = std::fs::remove_dir(".work");
    window
}

#[test]
fn store_delay_lands_in_insert_runs() {
    let plain = tlp_window(plain, "plain");
    let slow = tlp_window(delayed, "slow");
    for w in [&plain, &slow] {
        assert!(w.failures().is_empty(), "{:?}", w.failures());
        assert!(w.stats.queries > 0);
    }
    let (p, s) = (plain.timed.unwrap(), slow.timed.unwrap());
    let injected = s.insert_runs.calls() as f64 * DELAY.as_secs_f64();
    assert!(s.insert_runs.calls() > 0);
    assert!(
        s.insert_runs.seconds() - p.insert_runs.seconds() >= 0.9 * injected,
        "insert_runs grew {:.4} s, injected {injected:.4} s",
        s.insert_runs.seconds() - p.insert_runs.seconds()
    );
    assert_eq!(s.insert_runs.items(), p.insert_runs.items());
}

#[test]
fn range_reply_missing_its_newest_sample_fails_the_run() {
    let w = tlp_window(truncating, "truncating");
    assert!(w.stats.queries > 0);
    assert_eq!(w.stats.wrong, w.stats.queries - w.stats.query_errors);
    assert!(
        w.failures()
            .iter()
            .any(|f| f.contains("RANGE replies differ")),
        "{:?}",
        w.failures()
    );
}

#[test]
fn traced_zone_run_reproduces_the_untraced_set_points() {
    let report = zone::run(
        &ZoneParams {
            seed: 2,
            minutes: 4,
            warmup: 25,
            train_days: 0.25,
            setups: 1,
        },
        true,
    )
    .unwrap();
    assert!(
        report.check_failures.is_empty(),
        "{:?}",
        report.check_failures
    );
    assert_eq!(report.per_layer["core.decide.count"], 12.0);
    assert_eq!(report.per_layer["forecast.prepare.count"], 12.0);
    assert!(report.per_layer["bo.evals_per_decision"] > 0.0);
}
