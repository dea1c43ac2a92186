//! Bounded ingest queue between reactor threads and historian writers.
//!
//! The reactor must never block, and the historian must never be
//! written from a reactor thread (a WAL fsync stall would freeze every
//! connection on that shard). The [`IngestQueue`] decouples them:
//! handlers [`push`](IngestQueue::push) parsed batches without ever
//! waiting — when the queue is full the *oldest* queued batches are
//! dropped to make room — and a dedicated writer thread drains batches
//! into `MetricStore::insert_runs`, which is where WAL latency is
//! allowed to live.
//!
//! There is exactly one writer, and it drains the queue in push order,
//! so the batches of a series are stored in the order they were acked.
//! A second writer could store a later batch of a series before an
//! earlier one, and the historian would then drop the earlier, acked
//! samples as out of order.
//!
//! Drop-oldest (rather than reject-newest) is deliberate and matches
//! the telemetry queue in `tesla-core`'s runtime: under sustained
//! overload the freshest thermal readings are the ones a safety
//! controller can still act on; the stale backlog is the part that has
//! lost its value. The drop is observable three ways: the
//! `tesla_net_samples_dropped_total` counter, the `q=<depth>` token on
//! every `PUSH` acknowledgement, and `tesla_net_ingest_queue_depth_samples`.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;

use tesla_historian::MetricStore;

use crate::protocol::Batch;

/// Outcome of enqueueing one batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PushOutcome {
    /// Samples accepted into the queue (always the whole batch).
    pub accepted: usize,
    /// Samples evicted from older queued batches to make room.
    pub dropped: usize,
    /// Queue depth in samples after the push.
    pub depth: usize,
}

#[derive(Debug, Default)]
struct QueueInner {
    batches: VecDeque<Batch>,
    samples: usize,
    closed: bool,
}

/// Bounded, never-blocking, drop-oldest batch queue.
#[derive(Debug)]
pub struct IngestQueue {
    inner: Mutex<QueueInner>,
    ready: Condvar,
    capacity_samples: usize,
    /// Mirror of `inner.samples` readable without the lock (for the
    /// `q=` ack token and the depth gauge).
    depth_samples: AtomicUsize,
    dropped_total: AtomicU64,
}

impl IngestQueue {
    /// A queue holding at most `capacity_samples` samples (counted
    /// across queued batches). Capacity is clamped to at least one
    /// batch's worth so a single batch always fits.
    pub fn new(capacity_samples: usize) -> Self {
        IngestQueue {
            inner: Mutex::new(QueueInner::default()),
            ready: Condvar::new(),
            capacity_samples: capacity_samples.max(1),
            depth_samples: AtomicUsize::new(0),
            dropped_total: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, QueueInner> {
        match self.inner.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    /// Enqueues `batch`, evicting oldest batches as needed. Never
    /// blocks, never refuses the incoming batch (freshest data wins).
    pub fn push(&self, batch: Batch) -> PushOutcome {
        let accepted = batch.samples;
        let mut dropped = 0usize;
        let depth;
        {
            let mut q = self.lock();
            while q.samples + accepted > self.capacity_samples {
                match q.batches.pop_front() {
                    Some(old) => {
                        q.samples -= old.samples;
                        dropped += old.samples;
                    }
                    None => break, // incoming batch alone exceeds capacity; take it anyway
                }
            }
            q.samples += accepted;
            q.batches.push_back(batch);
            depth = q.samples;
        }
        self.depth_samples.store(depth, Ordering::Relaxed);
        if dropped > 0 {
            self.dropped_total
                .fetch_add(dropped as u64, Ordering::Relaxed);
        }
        self.ready.notify_one();
        PushOutcome {
            accepted,
            dropped,
            depth,
        }
    }

    /// Blocks until a batch is available (the writer thread only — never
    /// call from a reactor thread). Returns `None` once the queue is
    /// closed *and* drained.
    pub fn pop(&self) -> Option<Batch> {
        let mut q = self.lock();
        loop {
            if let Some(batch) = q.batches.pop_front() {
                q.samples -= batch.samples;
                self.depth_samples.store(q.samples, Ordering::Relaxed);
                return Some(batch);
            }
            if q.closed {
                return None;
            }
            // Pop runs only on the dedicated `net-ingest-writer` thread,
            // never on a reactor shard.
            // lint:allow(no-blocking-io-in-reactor): writer-thread condvar wait
            q = match self.ready.wait(q) {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
        }
    }

    /// Non-blocking pop (tests and shutdown drains).
    pub fn try_pop(&self) -> Option<Batch> {
        let mut q = self.lock();
        let batch = q.batches.pop_front()?;
        q.samples -= batch.samples;
        self.depth_samples.store(q.samples, Ordering::Relaxed);
        Some(batch)
    }

    /// Marks the queue closed; a blocked `pop` returns `None` once
    /// drained, and the writer exits.
    pub fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }

    /// Current depth in samples (lock-free).
    pub fn depth_samples(&self) -> usize {
        self.depth_samples.load(Ordering::Relaxed)
    }

    /// Total samples evicted by the drop-oldest policy so far.
    pub fn dropped_samples(&self) -> u64 {
        self.dropped_total.load(Ordering::Relaxed)
    }

    /// The configured capacity, samples.
    pub fn capacity_samples(&self) -> usize {
        self.capacity_samples
    }
}

/// The writer thread draining an [`IngestQueue`] into a [`MetricStore`].
#[derive(Debug)]
pub struct IngestPipeline {
    queue: Arc<IngestQueue>,
    writer: thread::JoinHandle<()>,
    written_total: Arc<AtomicU64>,
}

impl IngestPipeline {
    /// Spawns the one writer draining `queue` into `store` via
    /// `insert_runs`, in push order (see the [module docs](self)).
    ///
    /// Named `spawn_writer` rather than `spawn` so the name-based call
    /// graph in tesla-analysis does not alias it with
    /// `std::thread`/scope `spawn` call sites.
    pub fn spawn_writer(queue: Arc<IngestQueue>, store: Arc<dyn MetricStore>) -> Self {
        let written_total = Arc::new(AtomicU64::new(0));
        let writer = {
            let queue = Arc::clone(&queue);
            let written = Arc::clone(&written_total);
            thread::Builder::new()
                .name("net-ingest-writer".into())
                .spawn(move || {
                    while let Some(batch) = queue.pop() {
                        store.insert_runs(&batch.runs);
                        written.fetch_add(batch.samples as u64, Ordering::Relaxed);
                        tesla_obs::gauge!("tesla_net_ingest_queue_depth_samples")
                            .set(queue.depth_samples() as f64);
                    }
                })
                .expect("spawn ingest writer")
        };
        IngestPipeline {
            queue,
            writer,
            written_total,
        }
    }

    /// Samples written through to the store so far.
    pub fn written_samples(&self) -> u64 {
        self.written_total.load(Ordering::Relaxed)
    }

    /// Closes the queue and joins the writer (drains what is queued).
    pub fn shutdown(self) {
        self.queue.close();
        // Shutdown runs on the caller's thread and joins `net-ingest-writer`.
        // lint:allow(no-blocking-io-in-reactor): caller-thread shutdown join
        let _ = self.writer.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(metric: &str, n: usize, t0: f64) -> Batch {
        let samples: Vec<(f64, f64)> = (0..n).map(|i| (t0 + i as f64, i as f64)).collect();
        Batch {
            runs: vec![(metric.to_string(), samples)],
            samples: n,
        }
    }

    #[test]
    fn saturated_queue_drops_oldest_batches_deterministically() {
        // Capacity 10 samples, no writers attached: pushes saturate it.
        let q = IngestQueue::new(10);
        assert_eq!(
            q.push(batch("a", 4, 0.0)),
            PushOutcome {
                accepted: 4,
                dropped: 0,
                depth: 4
            }
        );
        assert_eq!(
            q.push(batch("b", 4, 0.0)),
            PushOutcome {
                accepted: 4,
                dropped: 0,
                depth: 8
            }
        );
        // 8 + 4 > 10: exactly one oldest batch (a, 4 samples) must go.
        assert_eq!(
            q.push(batch("c", 4, 0.0)),
            PushOutcome {
                accepted: 4,
                dropped: 4,
                depth: 8
            }
        );
        assert_eq!(q.dropped_samples(), 4);
        // Survivors are b then c — oldest-first order preserved.
        assert_eq!(q.try_pop().unwrap().runs[0].0, "b");
        assert_eq!(q.try_pop().unwrap().runs[0].0, "c");
        assert!(q.try_pop().is_none());
        assert_eq!(q.depth_samples(), 0);
    }

    #[test]
    fn oversized_batch_evicts_everything_but_is_still_taken() {
        let q = IngestQueue::new(4);
        q.push(batch("old", 3, 0.0));
        let out = q.push(batch("huge", 9, 0.0));
        assert_eq!(out.dropped, 3);
        assert_eq!(out.depth, 9); // over capacity, by design: freshest wins
        assert_eq!(q.try_pop().unwrap().runs[0].0, "huge");
    }

    #[test]
    fn push_never_blocks_under_sustained_overload() {
        let q = IngestQueue::new(8);
        let mut dropped = 0;
        for i in 0..1000 {
            dropped += q.push(batch("m", 4, i as f64 * 10.0)).dropped;
        }
        // Exactly two batches fit; everything older was evicted.
        assert_eq!(dropped, 998 * 4);
        assert_eq!(q.depth_samples(), 8);
        // The two survivors are the two freshest.
        assert_eq!(q.try_pop().unwrap().runs[0].1[0].0, 9980.0);
        assert_eq!(q.try_pop().unwrap().runs[0].1[0].0, 9990.0);
    }

    #[test]
    fn pipeline_drains_into_store_and_shutdown_flushes() {
        let store = Arc::new(tesla_historian::Historian::in_memory(
            tesla_historian::HistorianConfig::default(),
        ));
        let q = Arc::new(IngestQueue::new(1 << 20));
        let pipeline = IngestPipeline::spawn_writer(
            Arc::clone(&q),
            Arc::clone(&store) as Arc<dyn MetricStore>,
        );
        for i in 0..100 {
            q.push(batch("m", 10, i as f64 * 10.0));
        }
        pipeline.shutdown();
        assert_eq!(store.len("m"), 1000);
    }
}
