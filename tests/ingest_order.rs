//! Ordering test for the TLP/1 ingest pipeline.
//!
//! Every `PUSH` the server acks is in the ingest queue, and the
//! historian drops a sample older than its series' newest one. If a
//! second writer thread could take a batch of a series while the first
//! still held an earlier one, the later batch could land first and the
//! acked earlier one would then be dropped. This test gives that
//! interleaving every chance: the store holds its first `insert_runs`
//! until another writer has inserted (bounded, so a correct pipeline,
//! where no other writer ever takes a batch meanwhile, only waits out
//! the bound).

use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use tesla::historian::{Historian, HistorianConfig, MetricStore};
use tesla::net::{Batch, IngestPipeline, IngestQueue};

/// How long the first insert waits for another writer's insert.
const HOLD: Duration = Duration::from_millis(300);

/// `(first insert taken, another insert done)`.
#[derive(Default)]
struct Gate {
    state: Mutex<(bool, bool)>,
    done: Condvar,
}

/// A historian whose first `insert_runs` waits for another writer's.
struct FirstInsertWaits {
    inner: Historian,
    gate: Gate,
}

impl MetricStore for FirstInsertWaits {
    fn insert(&self, metric: &str, time_s: f64, value: f64) {
        self.inner.insert(metric, time_s, value);
    }

    fn insert_runs(&self, runs: &[(String, Vec<(f64, f64)>)]) {
        let mut state = self.gate.state.lock().expect("gate");
        let first = !state.0;
        state.0 = true;
        if first {
            state = self
                .gate
                .done
                .wait_timeout_while(state, HOLD, |s| !s.1)
                .expect("gate")
                .0;
        }
        drop(state);
        self.inner.insert_runs(runs);
        if !first {
            self.gate.state.lock().expect("gate").1 = true;
            self.gate.done.notify_all();
        }
    }

    fn last_n(&self, metric: &str, n: usize) -> Vec<f64> {
        self.inner.last_n(metric, n)
    }

    fn range(&self, metric: &str, t0: f64, t1: f64) -> Vec<f64> {
        self.inner.range(metric, t0, t1)
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

/// A two-series `PUSH` batch: samples `k·n .. (k+1)·n` of each.
fn batch(k: usize, n: usize) -> Batch {
    let run = |offset: f64| -> Vec<(f64, f64)> {
        (k * n..(k + 1) * n)
            .map(|i| (i as f64, offset + i as f64))
            .collect()
    };
    Batch {
        runs: vec![
            ("rack.inlet".into(), run(0.0)),
            ("rack.outlet".into(), run(100.0)),
        ],
        samples: 2 * n,
    }
}

#[test]
fn acked_batches_of_one_series_land_in_push_order() {
    let store = Arc::new(FirstInsertWaits {
        inner: Historian::in_memory(HistorianConfig::default()),
        gate: Gate::default(),
    });
    let queue = Arc::new(IngestQueue::new(1 << 20));
    let pipeline = IngestPipeline::spawn_writer(
        Arc::clone(&queue),
        Arc::clone(&store) as Arc<dyn MetricStore>,
    );
    let (batches, n) = (4, 8);
    for k in 0..batches {
        queue.push(batch(k, n));
    }
    pipeline.shutdown();
    assert_eq!(queue.dropped_samples(), 0);
    for (series, offset) in [("rack.inlet", 0.0), ("rack.outlet", 100.0)] {
        let want: Vec<f64> = (0..batches * n).map(|i| offset + i as f64).collect();
        assert_eq!(store.values(series), want, "{series}");
    }
}
