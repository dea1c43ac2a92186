//! The sharded metrics registry and its three instrument kinds.
//!
//! Layout: a fixed array of shards, each holding a `RwLock<HashMap>`
//! from `(name, labels)` to a registered instrument. A metric *handle*
//! (`Counter`, `Gauge`, `Histogram`) is an `Arc` around the instrument's
//! atomic state. Every lookup builds its key — a `Vec` of label pairs
//! and a `String` per label value — hashes it and takes a shard lock, so
//! a call site on a hot path looks its handle up once (the `counter!`
//! family caches it in a `static OnceLock`, and labelled series with a
//! few known label values keep one `OnceLock` per value). Updates
//! through a handle are a handful of relaxed atomic operations with no
//! lock. The shard count bounds contention for the call sites that do
//! look up by name each time (rare events such as ladder transitions).

// analysis:allow-file(panic-free-control-path): registry falls back
// to detached instruments instead of panicking; the remaining sites
// are shard-index arithmetic masked to the shard count.
// analysis:allow-file(no-alloc-in-decide-steady-state): a lookup
// builds its key and a first registration interns it; steady-state
// call sites resolve their handle once, so on those paths this
// allocates at first registration only.
use std::collections::HashMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// Number of independent lock domains. A small power of two: lookups
/// hash to a shard, so 16 uncorrelated hot names can register or resolve
/// concurrently without queueing on one lock.
const N_SHARDS: usize = 16;

/// Histogram bucket upper bounds, shared by every histogram: log-linear,
/// nine linear steps per decade across `1e-6 ..= 1e3` (91 buckets with
/// the overflow). Fixed buckets keep `observe` allocation-free and make
/// every exported histogram directly comparable.
pub fn bucket_bounds() -> &'static [f64] {
    static BOUNDS: OnceLock<Vec<f64>> = OnceLock::new();
    BOUNDS.get_or_init(|| {
        let mut v = Vec::with_capacity(90);
        for exp in -6i32..=3 {
            for mantissa in 1..=9 {
                v.push(mantissa as f64 * 10f64.powi(exp));
            }
        }
        v
    })
}

/// Quantile (`0.0 ..= 1.0`) over non-cumulative bucket counts laid out
/// like [`bucket_bounds`] plus the overflow bucket: the upper bound of
/// the bucket that holds the target rank (the last bound for overflow),
/// so it is good to one bucket width. 0 when every count is zero.
pub(crate) fn quantile_from_buckets(counts: &[u64], q: f64) -> f64 {
    let bounds = bucket_bounds();
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let rank = (q.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
    let mut seen = 0u64;
    for (i, &c) in counts.iter().enumerate() {
        seen += c;
        if seen >= rank {
            return bounds.get(i).copied().unwrap_or(bounds[bounds.len() - 1]);
        }
    }
    bounds[bounds.len() - 1]
}

/// Index of the bucket a value falls into (`value <= bound`); values
/// beyond the last bound land in the overflow bucket.
fn bucket_index(value: f64) -> usize {
    let bounds = bucket_bounds();
    if value.is_nan() || value <= 0.0 {
        return 0; // zero, negative, or NaN: first bucket
    }
    bounds.partition_point(|&b| b < value)
}

/// A monotonically increasing counter.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    fn new() -> Self {
        Counter(Arc::new(AtomicU64::new(0)))
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        if crate::enabled() {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge holding the latest observation of a float quantity.
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    fn new() -> Self {
        Gauge(Arc::new(AtomicU64::new(0f64.to_bits())))
    }

    /// Stores `v` (last writer wins).
    pub fn set(&self, v: f64) {
        if crate::enabled() {
            self.0.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

#[derive(Debug)]
struct HistogramState {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// Sum of observations, stored as f64 bits and updated by CAS — the
    /// only non-single-instruction path, and still lock-free.
    sum_bits: AtomicU64,
}

/// A histogram over the shared log-linear buckets.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramState>);

impl Histogram {
    fn new() -> Self {
        let n = bucket_bounds().len() + 1;
        Histogram(Arc::new(HistogramState {
            buckets: (0..n).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
        }))
    }

    /// Records one observation.
    pub fn observe(&self, value: f64) {
        if !crate::enabled() || value.is_nan() {
            return;
        }
        let s = &self.0;
        s.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        s.count.fetch_add(1, Ordering::Relaxed);
        let _ = s
            .sum_bits
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                Some((f64::from_bits(bits) + value).to_bits())
            });
    }

    /// Records a `std::time::Duration` in seconds.
    pub fn observe_duration(&self, d: std::time::Duration) {
        self.observe(d.as_secs_f64());
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.0.sum_bits.load(Ordering::Relaxed))
    }

    /// Per-bucket counts (non-cumulative), one per bound plus overflow.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.0
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }
}

/// Which instrument a registry entry holds.
#[derive(Debug, Clone)]
enum Instrument {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// A fully resolved series identity: static name + sorted label pairs.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct SeriesKey {
    name: &'static str,
    labels: Vec<(&'static str, String)>,
}

/// One exported sample, as returned by [`MetricsRegistry::snapshot`].
#[derive(Debug, Clone)]
pub struct MetricSample {
    /// Metric name.
    pub name: &'static str,
    /// Sorted label pairs.
    pub labels: Vec<(&'static str, String)>,
    /// The value, by instrument kind.
    pub value: SampleValue,
}

/// Snapshot value of one series.
#[derive(Debug, Clone)]
pub enum SampleValue {
    /// Counter reading.
    Counter(u64),
    /// Gauge reading.
    Gauge(f64),
    /// Histogram reading: non-cumulative bucket counts (aligned with
    /// [`bucket_bounds`] plus one overflow slot), total count, and sum.
    Histogram {
        /// Per-bucket counts.
        buckets: Vec<u64>,
        /// Total observation count.
        count: u64,
        /// Sum of observations.
        sum: f64,
    },
}

#[derive(Default)]
struct Shard {
    metrics: RwLock<HashMap<SeriesKey, Instrument>>,
}

/// The sharded registry. Most users go through [`crate::global`]; tests
/// and embedders can hold private instances.
pub struct MetricsRegistry {
    shards: Vec<Shard>,
    /// Same-name-different-kind registrations observed (a bug signal;
    /// the conflicting call site gets a detached instrument).
    kind_conflicts: AtomicU64,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry {
            shards: (0..N_SHARDS).map(|_| Shard::default()).collect(),
            kind_conflicts: AtomicU64::new(0),
        }
    }

    fn shard_for(&self, key: &SeriesKey) -> &Shard {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        // analysis:resolve(Hasher::finish)
        &self.shards[(h.finish() as usize) % N_SHARDS]
    }

    fn key(name: &'static str, labels: &[(&'static str, &str)]) -> SeriesKey {
        let mut labels: Vec<(&'static str, String)> =
            labels.iter().map(|&(k, v)| (k, v.to_string())).collect();
        labels.sort();
        SeriesKey { name, labels }
    }

    fn resolve<T, FNew, FGet>(&self, key: SeriesKey, new: FNew, get: FGet) -> T
    where
        FNew: Fn() -> (T, Instrument),
        FGet: Fn(&Instrument) -> Option<T>,
    {
        let shard = self.shard_for(&key);
        if let Ok(map) = shard.metrics.read() {
            if let Some(existing) = map.get(&key) {
                if let Some(t) = get(existing) {
                    return t;
                }
                // Same series registered as a different kind: hand the
                // caller a detached instrument instead of panicking in a
                // control path, and count the conflict.
                self.kind_conflicts.fetch_add(1, Ordering::Relaxed);
                return new().0;
            }
        }
        let mut map = match shard.metrics.write() {
            Ok(m) => m,
            // A poisoned registry lock must never take down the control
            // loop; fall back to a detached instrument.
            Err(_) => return new().0,
        };
        if let Some(existing) = map.get(&key) {
            if let Some(t) = get(existing) {
                return t;
            }
            self.kind_conflicts.fetch_add(1, Ordering::Relaxed);
            return new().0;
        }
        let (t, instrument) = new();
        map.insert(key, instrument);
        t
    }

    /// Registers (or resolves) a counter for `name` + `labels`.
    pub fn counter(&self, name: &'static str, labels: &[(&'static str, &str)]) -> Counter {
        self.resolve(
            Self::key(name, labels),
            || {
                let c = Counter::new();
                (c.clone(), Instrument::Counter(c))
            },
            |i| match i {
                Instrument::Counter(c) => Some(c.clone()),
                Instrument::Gauge(_) | Instrument::Histogram(_) => None,
            },
        )
    }

    /// Registers (or resolves) a gauge for `name` + `labels`.
    pub fn gauge(&self, name: &'static str, labels: &[(&'static str, &str)]) -> Gauge {
        self.resolve(
            Self::key(name, labels),
            || {
                let g = Gauge::new();
                (g.clone(), Instrument::Gauge(g))
            },
            |i| match i {
                Instrument::Gauge(g) => Some(g.clone()),
                Instrument::Counter(_) | Instrument::Histogram(_) => None,
            },
        )
    }

    /// Registers (or resolves) a histogram for `name` + `labels`.
    pub fn histogram(&self, name: &'static str, labels: &[(&'static str, &str)]) -> Histogram {
        self.resolve(
            Self::key(name, labels),
            || {
                let h = Histogram::new();
                (h.clone(), Instrument::Histogram(h))
            },
            |i| match i {
                Instrument::Histogram(h) => Some(h.clone()),
                Instrument::Counter(_) | Instrument::Gauge(_) => None,
            },
        )
    }

    /// Number of distinct registered series.
    pub fn series_count(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.metrics.read().map(|m| m.len()).unwrap_or(0))
            .sum()
    }

    /// Kind-conflict registrations observed so far.
    pub fn kind_conflicts(&self) -> u64 {
        self.kind_conflicts.load(Ordering::Relaxed)
    }

    /// A stable-ordered snapshot of every series (sorted by name, then
    /// labels) — the input to both exporters.
    pub fn snapshot(&self) -> Vec<MetricSample> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let Ok(map) = shard.metrics.read() else {
                continue;
            };
            for (key, instrument) in map.iter() {
                let value = match instrument {
                    Instrument::Counter(c) => SampleValue::Counter(c.get()),
                    Instrument::Gauge(g) => SampleValue::Gauge(g.get()),
                    Instrument::Histogram(h) => SampleValue::Histogram {
                        buckets: h.bucket_counts(),
                        count: h.count(),
                        sum: h.sum(),
                    },
                };
                out.push(MetricSample {
                    name: key.name,
                    labels: key.labels.clone(),
                    value,
                });
            }
        }
        out.sort_by(|a, b| (a.name, &a.labels).cmp(&(b.name, &b.labels)));
        out
    }
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field("series", &self.series_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Instrument updates are gated on the process-wide enabled flag;
    // every test turns it on (the disabled path has its own
    // integration-test binary so the flag never races).
    fn registry() -> MetricsRegistry {
        crate::set_enabled(true);
        MetricsRegistry::new()
    }

    #[test]
    fn counter_accumulates() {
        let r = registry();
        let c = r.counter("test_events_total", &[]);
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Second resolution reaches the same series.
        assert_eq!(r.counter("test_events_total", &[]).get(), 5);
        assert_eq!(r.series_count(), 1);
    }

    #[test]
    fn labels_distinguish_series_and_order_does_not() {
        let r = registry();
        r.counter("x_total", &[("a", "1"), ("b", "2")]).inc();
        r.counter("x_total", &[("b", "2"), ("a", "1")]).inc();
        r.counter("x_total", &[("a", "2"), ("b", "2")]).inc();
        assert_eq!(r.series_count(), 2);
        assert_eq!(r.counter("x_total", &[("a", "1"), ("b", "2")]).get(), 2);
    }

    #[test]
    fn gauge_last_write_wins() {
        let r = registry();
        let g = r.gauge("temp_celsius", &[]);
        g.set(21.5);
        g.set(-3.25);
        assert_eq!(g.get(), -3.25);
    }

    #[test]
    fn histogram_count_sum_and_buckets() {
        let r = registry();
        let h = r.histogram("latency_seconds", &[]);
        h.observe(0.0015);
        h.observe(0.0015);
        h.observe(2.0);
        assert_eq!(h.count(), 3);
        assert!((h.sum() - 2.003).abs() < 1e-12);
        let buckets = h.bucket_counts();
        assert_eq!(buckets.iter().sum::<u64>(), 3);
        // 0.0015 lands at the 0.002 bound; 2.0 at the 2.0 bound.
        let bounds = bucket_bounds();
        let i_0002 = bounds.iter().position(|&b| b >= 0.0015).unwrap();
        assert_eq!(buckets[i_0002], 2);
    }

    #[test]
    fn bucket_edges_are_inclusive_upper() {
        let bounds = bucket_bounds();
        assert_eq!(bounds.len(), 90);
        // An exact bound value falls into its own bucket.
        let i = bucket_index(1.0);
        assert_eq!(bounds[i], 1.0);
        // Overflow beyond the last bound.
        assert_eq!(bucket_index(1e9), bounds.len());
        // Non-positive and NaN land in the first bucket.
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(-1.0), 0);
        assert_eq!(bucket_index(f64::NAN), 0);
    }

    #[test]
    fn quantile_is_bucket_accurate() {
        let r = registry();
        let h = r.histogram("q_seconds", &[]);
        for _ in 0..90 {
            h.observe(0.01);
        }
        for _ in 0..10 {
            h.observe(1.0);
        }
        assert_eq!(quantile_from_buckets(&h.bucket_counts(), 0.5), 0.01);
        assert_eq!(quantile_from_buckets(&h.bucket_counts(), 0.99), 1.0);
    }

    #[test]
    fn kind_conflict_returns_detached_instrument() {
        let r = registry();
        r.counter("same_total", &[]).inc();
        let g = r.gauge("same_total", &[]);
        g.set(7.0); // must not crash; detached
        assert_eq!(r.kind_conflicts(), 1);
        assert_eq!(r.counter("same_total", &[]).get(), 1);
        assert_eq!(r.series_count(), 1);
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let r = registry();
        r.counter("b_total", &[]).inc();
        r.gauge("a_celsius", &[]).set(1.0);
        r.histogram("c_seconds", &[]).observe(0.5);
        let snap = r.snapshot();
        let names: Vec<&str> = snap.iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["a_celsius", "b_total", "c_seconds"]);
    }
}
