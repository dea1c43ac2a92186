//! The [`Historian`] storage engine: sharded ingest, Gorilla-compressed
//! sealed blocks, WAL durability, retention + downsampling, and the
//! query layer behind [`MetricStore`].
//!
//! Write path: a series name hashes (FNV-1a) to one of N shards; the
//! shard mutex guards a name → series map. Appends land in the series'
//! active (uncompressed) block; once it reaches `block_len` samples it
//! is sealed — compressed with [`crate::gorilla`] — and retention runs.
//! With a WAL attached, every append batch is framed and logged before
//! it is applied, so [`Historian::open`] can rebuild the full in-memory
//! state from disk after a crash.
//!
//! Retention: sealed blocks whose newest sample is older than
//! `raw_horizon_s` (relative to the series' newest sample) are folded
//! into `bucket_s`-wide averages; downsampled points older than
//! `downsample_horizon_s` are dropped entirely.

// analysis:allow-file(panic-free-control-path): poisoned-shard
// expects are deliberate fail-fast (a poisoned shard means a writer
// died mid-update); sealed-block indices are guarded by the
// non-empty checks above them.
use crate::gorilla;
use crate::wal::{self, FsyncPolicy, RecoveryStats, WalConfig, WalRecord, WalWriter};
use crate::{HistorianError, MetricStore};
use std::collections::{HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Raw-to-downsampled-to-dropped ageing policy, applied per series with
/// "now" taken as the series' newest sample time (so simulated clocks
/// work without wall-clock coupling).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetentionPolicy {
    /// Sealed raw blocks older than this are downsampled.
    pub raw_horizon_s: f64,
    /// Downsampled points older than this are dropped.
    pub downsample_horizon_s: f64,
    /// Downsample bucket width (the paper's stack stores 1-min rollups).
    pub bucket_s: f64,
}

impl RetentionPolicy {
    /// Keep raw samples for `raw_horizon_s`, 1-minute averages for
    /// `downsample_horizon_s`.
    pub fn new(raw_horizon_s: f64, downsample_horizon_s: f64) -> Self {
        RetentionPolicy {
            raw_horizon_s,
            downsample_horizon_s,
            bucket_s: 60.0,
        }
    }
}

/// Engine tuning knobs.
#[derive(Debug, Clone)]
pub struct HistorianConfig {
    /// Number of ingest shards (series hash here; power of two not
    /// required).
    pub shards: usize,
    /// Samples per block before it seals and compresses.
    pub block_len: usize,
    /// Optional ageing policy; `None` keeps raw samples forever.
    pub retention: Option<RetentionPolicy>,
    /// WAL segment rotation threshold (bytes), when a WAL is attached.
    pub segment_bytes: u64,
    /// WAL fsync cadence, when a WAL is attached.
    pub fsync: FsyncPolicy,
}

impl Default for HistorianConfig {
    fn default() -> Self {
        HistorianConfig {
            shards: 16,
            block_len: 4096,
            retention: None,
            segment_bytes: 4 * 1024 * 1024,
            fsync: FsyncPolicy::EveryN(256),
        }
    }
}

/// A compressed, immutable run of samples.
/// Aggregate storage accounting across every shard and series, from
/// [`Historian::storage_stats`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StorageStats {
    /// Number of series across all shards.
    pub series: usize,
    /// Samples held in sealed (Gorilla-compressed) blocks.
    pub sealed_samples: u64,
    /// Total compressed bytes across all sealed blocks.
    pub sealed_bytes: u64,
    /// Samples still in uncompressed active blocks.
    pub active_samples: u64,
    /// Downsampled points, including pending buckets.
    pub downsampled: u64,
}

impl StorageStats {
    /// Compressed bytes per sealed sample; `None` before the first seal.
    pub fn bytes_per_sample(&self) -> Option<f64> {
        if self.sealed_samples == 0 {
            return None;
        }
        Some(self.sealed_bytes as f64 / self.sealed_samples as f64)
    }
}

#[derive(Debug)]
struct SealedBlock {
    first_t: f64,
    last_t: f64,
    count: u32,
    bytes: Vec<u8>,
}

/// One metric's storage: downsampled history, sealed blocks, and the
/// active append block, oldest to newest.
#[derive(Debug, Default)]
struct Series {
    down_times: Vec<f64>,
    down_values: Vec<f64>,
    /// Pending downsample bucket carried across retention rounds:
    /// `(bucket_start_t, sum, count)`. Flushed when a newer bucket
    /// starts, so a bucket split across two seals still averages once.
    agg: Option<(f64, f64, u32)>,
    sealed: VecDeque<SealedBlock>,
    active_times: Vec<f64>,
    active_values: Vec<f64>,
}

impl Series {
    fn total_len(&self) -> usize {
        self.down_times.len()
            + usize::from(self.agg.is_some())
            + self.sealed.iter().map(|b| b.count as usize).sum::<usize>()
            + self.active_times.len()
    }

    /// Decompressed copy of every sample, oldest first: downsampled
    /// points (incl. the pending bucket), sealed blocks, active block.
    fn all_samples(&self) -> (Vec<f64>, Vec<f64>) {
        let mut times = self.down_times.clone();
        let mut values = self.down_values.clone();
        if let Some((t, sum, n)) = self.agg {
            times.push(t);
            values.push(sum / n as f64);
        }
        for block in &self.sealed {
            match gorilla::decompress(&block.bytes) {
                Ok((ts, vs)) => {
                    times.extend_from_slice(&ts);
                    values.extend_from_slice(&vs);
                }
                Err(_) => debug_assert!(false, "self-compressed block failed to decompress"),
            }
        }
        times.extend_from_slice(&self.active_times);
        values.extend_from_slice(&self.active_values);
        (times, values)
    }

    /// The most recent `n` values, oldest first, decompressing only the
    /// newest blocks needed to satisfy `n`.
    fn last_n(&self, n: usize) -> Vec<f64> {
        if n == 0 {
            return Vec::new();
        }
        let tail = self.active_values.len().min(n);
        let mut newest_first: Vec<f64> = self.active_values[self.active_values.len() - tail..]
            .iter()
            .rev()
            .copied()
            .collect();
        for block in self.sealed.iter().rev() {
            if newest_first.len() >= n {
                break;
            }
            if let Ok((_, vs)) = gorilla::decompress(&block.bytes) {
                newest_first.extend(vs.iter().rev());
            }
        }
        if newest_first.len() < n {
            if let Some((_, sum, cnt)) = self.agg {
                newest_first.push(sum / cnt as f64);
            }
            newest_first.extend(self.down_values.iter().rev());
        }
        newest_first.truncate(n);
        newest_first.reverse();
        newest_first
    }

    /// Values with `t0 <= time < t1` (`t0 < t1`, neither NaN), oldest
    /// first. The time column is nondecreasing across the parts, so each
    /// part contributes the slice its own binary search finds, and only
    /// the sealed blocks that meet the window are decompressed.
    fn range(&self, t0: f64, t1: f64) -> Vec<f64> {
        let window =
            |times: &[f64]| times.partition_point(|&t| t < t0)..times.partition_point(|&t| t < t1);
        let mut out = self.down_values[window(&self.down_times)].to_vec();
        if let Some((t, sum, n)) = self.agg {
            if t0 <= t && t < t1 {
                out.push(sum / n as f64);
            }
        }
        for block in &self.sealed {
            if block.last_t < t0 || block.first_t >= t1 {
                continue;
            }
            match gorilla::decompress(&block.bytes) {
                Ok((ts, vs)) => out.extend_from_slice(&vs[window(&ts)]),
                Err(_) => debug_assert!(false, "self-compressed block failed to decompress"),
            }
        }
        out.extend_from_slice(&self.active_values[window(&self.active_times)]);
        out
    }

    fn last(&self) -> Option<f64> {
        if let Some(v) = self.active_values.last() {
            return Some(*v);
        }
        if let Some(block) = self.sealed.back() {
            if let Ok((_, vs)) = gorilla::decompress(&block.bytes) {
                return vs.last().copied();
            }
        }
        if let Some((_, sum, n)) = self.agg {
            return Some(sum / n as f64);
        }
        self.down_values.last().copied()
    }

    fn newest_time(&self) -> Option<f64> {
        self.active_times
            .last()
            .copied()
            .or_else(|| self.sealed.back().map(|b| b.last_t))
            .or(self.agg.map(|(t, _, _)| t))
            .or_else(|| self.down_times.last().copied())
    }
}

#[derive(Debug, Default)]
struct Shard {
    series: HashMap<String, Series>,
    wal: Option<WalWriter>,
}

/// FNV-1a, the workspace's stock dependency-free string hash.
fn shard_index(name: &str, shards: usize) -> usize {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    (h % shards as u64) as usize
}

/// The embedded time-series engine. See the [crate docs](crate) for the
/// layer map and `docs/HISTORIAN.md` for formats and knobs.
#[derive(Debug)]
pub struct Historian {
    cfg: HistorianConfig,
    shards: Vec<Mutex<Shard>>,
    /// WAL root (None when running purely in memory).
    dir: Option<PathBuf>,
}

impl Historian {
    /// A volatile engine: no WAL, state dies with the process. Ingest,
    /// compression, retention, and queries all behave identically to the
    /// durable form.
    pub fn in_memory(cfg: HistorianConfig) -> Self {
        let shards = (0..cfg.shards.max(1)).map(|_| Mutex::default()).collect();
        Historian {
            cfg,
            shards,
            dir: None,
        }
    }

    /// Opens (or creates) a durable engine rooted at `dir`, replaying
    /// each shard's WAL to rebuild in-memory state. Torn tails are
    /// truncated by [`wal::recover`]; the stats aggregate every shard.
    pub fn open(
        dir: impl Into<PathBuf>,
        cfg: HistorianConfig,
    ) -> Result<(Self, RecoveryStats), HistorianError> {
        let dir = dir.into();
        let shard_count = cfg.shards.max(1);
        let mut shards = Vec::with_capacity(shard_count);
        let mut total = RecoveryStats::default();
        for i in 0..shard_count {
            let shard_dir = dir.join(format!("shard-{i:03}"));
            let mut shard = Shard::default();
            let stats = wal::recover(&shard_dir, |record| {
                let WalRecord::Samples { series, samples } = record;
                // Replay through the normal apply path (no WAL attached
                // yet) so seals and retention match the original run.
                Self::apply_batch(&mut shard, &cfg, &series, &samples);
            })?;
            total.records += stats.records;
            total.samples += stats.samples;
            total.segments += stats.segments;
            total.truncated_bytes += stats.truncated_bytes;
            let wal_cfg = WalConfig {
                dir: shard_dir,
                segment_bytes: cfg.segment_bytes,
                fsync: cfg.fsync,
            };
            shard.wal = Some(WalWriter::open(wal_cfg, stats.next_seq)?);
            shards.push(Mutex::new(shard));
        }
        Ok((
            Historian {
                cfg,
                shards,
                dir: Some(dir),
            },
            total,
        ))
    }

    /// The WAL root directory (`None` for an in-memory engine).
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// Appends a time-ordered batch of samples to one series: one WAL
    /// record, one shard-lock acquisition. This is the fast path the
    /// ≥1M samples/s ingest target is met through.
    ///
    /// Non-finite times/values are dropped (the Gorilla writer excludes
    /// NaN/±inf by contract) and out-of-order times are dropped to keep
    /// the time column sorted for binary search. A series name longer
    /// than [`wal::MAX_SERIES_NAME_BYTES`] is refused whole, WAL or not,
    /// so memory and replay agree.
    // lint:allow(lock-order): the WAL write happens under the shard
    // lock on purpose — it is what serializes WAL order with in-memory
    // apply order, the invariant replay correctness depends on.
    pub fn append_batch(&self, metric: &str, samples: &[(f64, f64)]) {
        if !Self::name_fits(metric, samples) {
            return;
        }
        let mut shard = self.lock_shard(metric);
        if let Some(wal) = shard.wal.as_mut() {
            if let Err(e) = wal.append(metric, samples) {
                tesla_obs::counter!("historian_wal_write_errors_total").inc();
                debug_assert!(false, "WAL append failed: {e}");
            }
        }
        Self::apply_batch(&mut shard, &self.cfg, metric, samples);
    }

    /// Appends several `(metric, samples)` runs in one call — the
    /// batch entry point the network ingest writers drain through.
    /// Runs are grouped by shard so each touched shard is locked once
    /// per call (instead of once per run), which is what keeps WAL
    /// framing and lock traffic amortized when one network batch
    /// carries many small per-metric runs. A run whose series name is
    /// too long to frame is refused as in [`Historian::append_batch`].
    // lint:allow(lock-order): same single-shard-lock discipline as
    // `append_batch`; the WAL write stays under the shard lock so WAL
    // order equals apply order.
    pub fn append_runs(&self, runs: &[(String, Vec<(f64, f64)>)]) {
        if runs.is_empty() {
            return;
        }
        // (shard, run-index) sorted by shard: consecutive entries share
        // a lock acquisition.
        let mut order: Vec<(usize, usize)> = runs
            .iter()
            .enumerate()
            .filter(|(_, (metric, samples))| Self::name_fits(metric, samples))
            .map(|(i, (metric, _))| (shard_index(metric, self.shards.len()), i))
            .collect();
        order.sort_unstable();
        let mut i = 0;
        while i < order.len() {
            let s = order[i].0;
            let mut shard = self.shards[s].lock().expect("historian shard poisoned");
            while i < order.len() && order[i].0 == s {
                let (metric, samples) = &runs[order[i].1];
                if let Some(wal) = shard.wal.as_mut() {
                    if let Err(e) = wal.append(metric, samples) {
                        tesla_obs::counter!("historian_wal_write_errors_total").inc();
                        debug_assert!(false, "WAL append failed: {e}");
                    }
                }
                Self::apply_batch(&mut shard, &self.cfg, metric, samples);
                i += 1;
            }
        }
    }

    /// Whether `metric` is short enough for a WAL frame (its length is
    /// a `u16`). A longer name's samples are counted as dropped.
    fn name_fits(metric: &str, samples: &[(f64, f64)]) -> bool {
        if metric.len() <= wal::MAX_SERIES_NAME_BYTES {
            return true;
        }
        tesla_obs::counter!("historian_long_name_dropped_total").add(samples.len() as u64);
        false
    }

    /// Applies a batch to in-memory state (shared by ingest and WAL
    /// replay; the caller holds the shard lock). A known series is
    /// looked up once; a new one is inserted first.
    fn apply_batch(shard: &mut Shard, cfg: &HistorianConfig, metric: &str, samples: &[(f64, f64)]) {
        if let Some(series) = shard.series.get_mut(metric) {
            Self::apply_to_series(series, cfg, samples);
            return;
        }
        let series = shard.series.entry(metric.to_string()).or_default();
        Self::apply_to_series(series, cfg, samples);
    }

    /// [`Historian::apply_batch`] once the series is found.
    ///
    /// A sample is kept when its time and value are finite and its time
    /// is not older than the series' newest; the rest are counted and
    /// dropped. Kept samples append in bulk: each step extends the
    /// active block by the longest clean prefix that fits its room,
    /// seals (and applies retention) when the block is full, and skips
    /// the one sample that ended the prefix early, so blocks, seals and
    /// counters come out as one sample at a time would make them.
    fn apply_to_series(series: &mut Series, cfg: &HistorianConfig, samples: &[(f64, f64)]) {
        // A `block_len` of 0 seals after every sample, as 1 does.
        let block_len = cfg.block_len.max(1);
        let mut accepted = 0u64;
        let mut rest = samples;
        while !rest.is_empty() {
            let room = block_len.saturating_sub(series.active_times.len()).max(1);
            let mut newest = series.newest_time();
            let clean = rest
                .iter()
                .take(room)
                .take_while(|&&(t, v)| {
                    let keep =
                        t.is_finite() && v.is_finite() && !newest.is_some_and(|last| t < last);
                    if keep {
                        newest = Some(t);
                    }
                    keep
                })
                .count();
            let (run, tail) = rest.split_at(clean);
            rest = tail;
            if !run.is_empty() {
                series.active_times.extend(run.iter().map(|&(t, _)| t));
                series.active_values.extend(run.iter().map(|&(_, v)| v));
                accepted += run.len() as u64;
                if series.active_times.len() >= cfg.block_len {
                    Self::seal_active(series);
                    if let Some(policy) = cfg.retention {
                        Self::enforce_retention(series, policy);
                    }
                }
            }
            if clean < room {
                if let Some((&(t, v), tail)) = rest.split_first() {
                    if !t.is_finite() || !v.is_finite() {
                        tesla_obs::counter!("historian_nonfinite_dropped_total").inc();
                    } else {
                        tesla_obs::counter!("historian_out_of_order_dropped_total").inc();
                    }
                    rest = tail;
                }
            }
        }
        if accepted > 0 {
            tesla_obs::counter!("historian_samples_ingested_total").add(accepted);
        }
    }

    /// Compresses the active block into a sealed one.
    fn seal_active(series: &mut Series) {
        let timer = tesla_obs::Timer::start(tesla_obs::histogram!("historian_seal_seconds"));
        let bytes = gorilla::compress(&series.active_times, &series.active_values);
        tesla_obs::counter!("historian_blocks_sealed_total").inc();
        tesla_obs::counter!("historian_compressed_bytes_total").add(bytes.len() as u64);
        series.sealed.push_back(SealedBlock {
            first_t: series.active_times[0],
            last_t: *series
                .active_times
                .last()
                .expect("active block is non-empty"),
            count: series.active_times.len() as u32,
            bytes,
        });
        series.active_times.clear();
        series.active_values.clear();
        drop(timer);
    }

    /// Ages the series: expired sealed blocks fold into bucket averages;
    /// expired bucket averages drop. "Now" is the series' newest time.
    fn enforce_retention(series: &mut Series, policy: RetentionPolicy) {
        let Some(now) = series.newest_time() else {
            return;
        };
        let raw_cutoff = now - policy.raw_horizon_s;
        while series.sealed.front().is_some_and(|b| b.last_t < raw_cutoff) {
            let block = series.sealed.pop_front().expect("front checked above");
            let (times, values) = match gorilla::decompress(&block.bytes) {
                Ok(tv) => tv,
                Err(_) => {
                    debug_assert!(false, "self-compressed block failed to decompress");
                    continue;
                }
            };
            debug_assert!(block.first_t <= block.last_t);
            tesla_obs::counter!("historian_retention_dropped_samples_total")
                .add(times.len() as u64);
            for (t, v) in times.iter().zip(&values) {
                let key = (t / policy.bucket_s).floor() * policy.bucket_s;
                match &mut series.agg {
                    Some((cur, sum, n)) if *cur == key => {
                        *sum += v;
                        *n += 1;
                    }
                    Some((cur, sum, n)) => {
                        let (done_t, done_mean) = (*cur, *sum / *n as f64);
                        series.down_times.push(done_t);
                        series.down_values.push(done_mean);
                        (*cur, *sum, *n) = (key, *v, 1);
                    }
                    None => series.agg = Some((key, *v, 1)),
                }
            }
        }
        let down_cutoff = now - policy.downsample_horizon_s;
        let drop_n = series.down_times.partition_point(|&t| t < down_cutoff);
        if drop_n > 0 {
            series.down_times.drain(..drop_n);
            series.down_values.drain(..drop_n);
        }
    }

    /// Flushes and fsyncs every shard's WAL (no-op in memory).
    // lint:allow(lock-order): fsync under the shard lock is deliberate;
    // releasing it mid-flush would let appends interleave and break the
    // durability point the caller is promised. Only the explicit flush
    // path (checkpoint/shutdown) pays this, never the ingest fast path.
    pub fn flush(&self) -> Result<(), HistorianError> {
        let timer = tesla_obs::Timer::start(tesla_obs::histogram!("historian_flush_seconds"));
        for shard in &self.shards {
            let mut shard = shard.lock().expect("historian shard poisoned");
            if let Some(wal) = shard.wal.as_mut() {
                wal.sync()?;
            }
        }
        drop(timer);
        Ok(())
    }

    /// Full `(times, values)` copy of one series, oldest first —
    /// downsampled points, then sealed blocks, then the active block.
    /// `None` when the metric does not exist.
    pub fn series_samples(&self, metric: &str) -> Option<(Vec<f64>, Vec<f64>)> {
        let shard = self.lock_shard(metric);
        shard.series.get(metric).map(|s| s.all_samples())
    }

    /// Seals every non-empty active block so the whole store is
    /// compressed; used by benchmarks to measure bytes/sample over the
    /// complete dataset and before long idle periods to cap the
    /// uncompressed footprint.
    pub fn seal_all(&self) {
        for shard in &self.shards {
            let mut shard = shard.lock().expect("historian shard poisoned");
            for series in shard.series.values_mut() {
                if !series.active_times.is_empty() {
                    Self::seal_active(series);
                }
            }
        }
    }

    /// Aggregate storage accounting across every shard and series.
    pub fn storage_stats(&self) -> StorageStats {
        let mut stats = StorageStats::default();
        for shard in &self.shards {
            let shard = shard.lock().expect("historian shard poisoned");
            for series in shard.series.values() {
                stats.series += 1;
                for block in &series.sealed {
                    stats.sealed_samples += u64::from(block.count);
                    stats.sealed_bytes += block.bytes.len() as u64;
                }
                stats.active_samples += series.active_times.len() as u64;
                stats.downsampled +=
                    series.down_times.len() as u64 + u64::from(series.agg.is_some());
            }
        }
        stats
    }

    fn lock_shard(&self, metric: &str) -> std::sync::MutexGuard<'_, Shard> {
        self.shards[shard_index(metric, self.shards.len())]
            .lock()
            .expect("historian shard poisoned")
    }
}

impl MetricStore for Historian {
    fn insert(&self, metric: &str, time_s: f64, value: f64) {
        self.append_batch(metric, &[(time_s, value)]);
    }

    fn insert_batch(&self, metric: &str, samples: &[(f64, f64)]) {
        self.append_batch(metric, samples);
    }

    fn insert_runs(&self, runs: &[(String, Vec<(f64, f64)>)]) {
        self.append_runs(runs);
    }

    fn last_n(&self, metric: &str, n: usize) -> Vec<f64> {
        let shard = self.lock_shard(metric);
        shard
            .series
            .get(metric)
            // analysis:resolve(Series::last_n)
            .map(|s| s.last_n(n))
            .unwrap_or_default()
    }

    fn last(&self, metric: &str) -> Option<f64> {
        let shard = self.lock_shard(metric);
        shard.series.get(metric).and_then(|s| s.last())
    }

    fn range(&self, metric: &str, t0: f64, t1: f64) -> Vec<f64> {
        // Half-open [t0, t1); NaN bounds and empty/reversed intervals
        // yield empty (the MetricStore contract).
        if t0.is_nan() || t1.is_nan() || t0 >= t1 {
            return Vec::new();
        }
        let shard = self.lock_shard(metric);
        shard
            .series
            .get(metric)
            // analysis:resolve(Series::range)
            .map(|s| s.range(t0, t1))
            .unwrap_or_default()
    }

    fn values(&self, metric: &str) -> Vec<f64> {
        self.series_samples(metric)
            .map(|(_, v)| v)
            .unwrap_or_default()
    }

    fn len(&self, metric: &str) -> usize {
        let shard = self.lock_shard(metric);
        shard.series.get(metric).map(|s| s.total_len()).unwrap_or(0)
    }

    fn metric_names(&self) -> Vec<String> {
        let mut names = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock().expect("historian shard poisoned");
            names.extend(shard.series.keys().cloned());
        }
        names.sort();
        names
    }

    fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| {
            s.lock()
                .expect("historian shard poisoned")
                .series
                .is_empty()
        })
    }

    fn last_n_many(&self, metrics: &[&str], n: usize) -> Vec<Vec<f64>> {
        metrics.iter().map(|m| self.last_n(m, n)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> HistorianConfig {
        HistorianConfig {
            shards: 4,
            block_len: 8,
            ..HistorianConfig::default()
        }
    }

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "tesla_hist_{name}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn insert_and_query_matches_tsdb_semantics() {
        let h = Historian::in_memory(small_cfg());
        h.insert("acu.power", 0.0, 2.0);
        h.insert("acu.power", 60.0, 2.5);
        assert_eq!(h.last("acu.power"), Some(2.5));
        assert_eq!(h.last_n("acu.power", 2), vec![2.0, 2.5]);
        assert_eq!(h.len("acu.power"), 2);
        assert_eq!(h.last("nope"), None);
        assert!(h.range("nope", 0.0, 100.0).is_empty());
        assert_eq!(h.len("nope"), 0);
    }

    #[test]
    fn queries_span_sealed_and_active_blocks() {
        let h = Historian::in_memory(small_cfg());
        for i in 0..30 {
            h.insert("m", i as f64 * 60.0, i as f64);
        }
        // block_len=8 → 3 sealed blocks (24 samples) + 6 active.
        assert_eq!(h.len("m"), 30);
        assert_eq!(h.values("m"), (0..30).map(|i| i as f64).collect::<Vec<_>>());
        assert_eq!(
            h.last_n("m", 10),
            (20..30).map(|i| i as f64).collect::<Vec<_>>()
        );
        assert_eq!(h.range("m", 120.0, 300.0), vec![2.0, 3.0, 4.0]);
        assert_eq!(h.last("m"), Some(29.0));
    }

    #[test]
    fn range_edge_cases_are_empty_not_panic() {
        let h = Historian::in_memory(small_cfg());
        for i in 0..10 {
            h.insert("m", i as f64, i as f64);
        }
        assert!(h.range("m", f64::NAN, 5.0).is_empty());
        assert!(h.range("m", 0.0, f64::NAN).is_empty());
        assert!(h.range("m", 5.0, 5.0).is_empty());
        assert!(h.range("m", 7.0, 3.0).is_empty());
        // Exact boundaries: half-open [t0, t1).
        assert_eq!(h.range("m", 3.0, 7.0), vec![3.0, 4.0, 5.0, 6.0]);
        assert_eq!(h.range("m", 0.0, 1.0), vec![0.0]); // first sample only
        assert_eq!(h.range("m", 9.0, 10.0), vec![9.0]); // last sample only
        let all: Vec<f64> = (0..10).map(|i| i as f64).collect();
        assert_eq!(h.range("m", -1e9, 1e9), all); // the whole range
    }

    /// `range` by full decode: the whole series, then a binary search of
    /// the full time column. The reference the per-part `range` must
    /// equal.
    fn range_full_decode(h: &Historian, metric: &str, t0: f64, t1: f64) -> Vec<f64> {
        if t0.is_nan() || t1.is_nan() || t0 >= t1 {
            return Vec::new();
        }
        let Some((times, values)) = h.series_samples(metric) else {
            return Vec::new();
        };
        let lo = times.partition_point(|&t| t < t0);
        let hi = times.partition_point(|&t| t < t1);
        values[lo..hi].to_vec()
    }

    /// Every time at which one part of `metric` ends and the next starts:
    /// downsampled points, the pending bucket, each sealed block's first
    /// and last sample, and the active block's.
    fn part_boundaries(h: &Historian, metric: &str) -> Vec<f64> {
        let shard = h.lock_shard(metric);
        let s = &shard.series[metric];
        let mut out: Vec<f64> = [s.down_times.first(), s.down_times.last()]
            .into_iter()
            .flatten()
            .copied()
            .collect();
        out.extend(s.agg.map(|(t, _, _)| t));
        for b in &s.sealed {
            out.extend([b.first_t, b.last_t]);
        }
        out.extend(
            [s.active_times.first(), s.active_times.last()]
                .into_iter()
                .flatten(),
        );
        out
    }

    #[test]
    fn range_matches_full_decode_reference() {
        // Two series: one under retention with every part present and
        // irregular steps, and one whose every sealed block ends on the
        // time the next one starts with (t = i − ⌊i/8⌋).
        let h = Historian::in_memory(HistorianConfig {
            shards: 2,
            block_len: 8,
            retention: Some(RetentionPolicy {
                raw_horizon_s: 120.0,
                downsample_horizon_s: 600.0,
                bucket_s: 60.0,
            }),
            ..HistorianConfig::default()
        });
        let mut t = 0.0;
        for i in 0..300u64 {
            t += [7.0, 7.0, 3.5, 0.0, 11.0][(i * 7 % 5) as usize];
            h.insert("retained", t, (i % 13) as f64);
        }
        let plain = Historian::in_memory(small_cfg());
        for i in 0..61u64 {
            plain.insert("dup", (i - i / 8) as f64, i as f64);
        }
        let stats = h.storage_stats();
        assert!(stats.downsampled > 1 && stats.sealed_samples > 0 && stats.active_samples > 0);
        for (store, metric) in [(&h, "retained"), (&plain, "dup")] {
            let mut edges = vec![f64::NAN, f64::NEG_INFINITY, f64::INFINITY, -1e9, 1e9];
            for b in part_boundaries(store, metric) {
                // On, just before and just after each boundary.
                edges.extend([b, b - 0.25, b + 0.25, b - 1e-9, b + 1e-9]);
            }
            for &a in &edges {
                for &b in &edges {
                    assert_eq!(
                        store.range(metric, a, b),
                        range_full_decode(store, metric, a, b),
                        "{metric}: window [{a}, {b})"
                    );
                }
            }
        }
        // Random windows over the retained series.
        let mut x = 0x00DD_BA11_DEAD_BEEF_u64;
        for _ in 0..2000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let a = (x % 2600) as f64 - 100.0 + (x >> 40) as f64 / (1u64 << 24) as f64;
            let b = a + ((x >> 12) % 400) as f64 - 40.0;
            assert_eq!(
                h.range("retained", a, b),
                range_full_decode(&h, "retained", a, b),
                "window [{a}, {b})"
            );
        }
        assert!(h.range("absent", 0.0, 1.0).is_empty());
    }

    #[test]
    fn nonfinite_and_out_of_order_samples_are_dropped() {
        let h = Historian::in_memory(small_cfg());
        h.append_batch(
            "m",
            &[
                (0.0, 1.0),
                (60.0, f64::NAN),
                (f64::INFINITY, 2.0),
                (120.0, 4.0),
                (30.0, 3.0), // out of order: older than the last accepted time
            ],
        );
        assert_eq!(h.values("m"), vec![1.0, 4.0]);
    }

    #[test]
    fn overlong_series_name_is_refused_and_the_store_reopens() {
        let dir = tmp_dir("long_name");
        let cfg = small_cfg();
        let long = "x".repeat(70_000);
        let normal: Vec<(f64, f64)> = (0..100).map(|i| (i as f64, i as f64 * 0.5)).collect();
        tesla_obs::set_enabled(true);
        let refused = || tesla_obs::counter!("historian_long_name_dropped_total").get();
        let refused_before = refused();
        let in_memory = {
            let (h, _) = Historian::open(&dir, cfg.clone()).unwrap();
            h.insert(&long, 0.0, 1.0);
            h.append_runs(&[(long.clone(), vec![(1.0, 2.0), (2.0, 3.0)])]);
            h.append_batch("rack.inlet", &normal);
            h.flush().unwrap();
            h.len(&long)
        };
        // Reopening replays every shard's WAL, the long name's included.
        let (h, stats) = Historian::open(&dir, cfg).unwrap();
        assert_eq!(in_memory, 0, "refused before memory sees it");
        assert_eq!(refused() - refused_before, 3);
        assert_eq!(stats.samples, 100);
        assert_eq!(h.metric_names(), vec!["rack.inlet".to_string()]);
        let (times, values) = h.series_samples("rack.inlet").unwrap();
        assert_eq!(times, normal.iter().map(|s| s.0).collect::<Vec<_>>());
        assert_eq!(values, normal.iter().map(|s| s.1).collect::<Vec<_>>());
        assert_eq!(h.len(&long), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The per-sample ingest `apply_to_series` must equal: one sample at
    /// a time, each filtered, appended and sealed on its own.
    fn apply_one_at_a_time(series: &mut Series, cfg: &HistorianConfig, samples: &[(f64, f64)]) {
        for &(t, v) in samples {
            if !t.is_finite() || !v.is_finite() {
                continue;
            }
            if series.newest_time().is_some_and(|last| t < last) {
                continue;
            }
            series.active_times.push(t);
            series.active_values.push(v);
            if series.active_times.len() >= cfg.block_len {
                Historian::seal_active(series);
                if let Some(policy) = cfg.retention {
                    Historian::enforce_retention(series, policy);
                }
            }
        }
    }

    fn series_parts(s: &Series) -> String {
        let sealed: Vec<_> = s
            .sealed
            .iter()
            .map(|b| (b.first_t, b.last_t, b.count, b.bytes.clone()))
            .collect();
        format!(
            "{:?} {:?} {:?} {sealed:?} {:?} {:?}",
            s.down_times, s.down_values, s.agg, s.active_times, s.active_values
        )
    }

    #[test]
    fn bulk_apply_matches_one_sample_at_a_time() {
        let mut x = 0x0BAD_5EED_1234_5678_u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for block_len in [0, 1, 2, 3, 8, 64] {
            for retention in [
                None,
                Some(RetentionPolicy {
                    raw_horizon_s: 20.0,
                    downsample_horizon_s: 200.0,
                    bucket_s: 6.0,
                }),
                // A negative raw horizon ages out even the newest
                // sealed block, so the newest time falls after a seal.
                Some(RetentionPolicy {
                    raw_horizon_s: -5.0,
                    downsample_horizon_s: 50.0,
                    bucket_s: 4.0,
                }),
            ] {
                let cfg = HistorianConfig {
                    shards: 1,
                    block_len,
                    retention,
                    ..HistorianConfig::default()
                };
                let (mut bulk, mut single) = (Series::default(), Series::default());
                let mut t = 0.0;
                for _ in 0..60 {
                    let batch: Vec<(f64, f64)> = (0..next() % 40)
                        .map(|_| {
                            let r = next();
                            t += [1.0, 1.0, 0.5, 0.0, -3.0, 2.5][(r % 6) as usize];
                            let time = if r % 29 == 0 { f64::NAN } else { t };
                            let value = match (r >> 8) % 23 {
                                0 => f64::INFINITY,
                                1 => f64::NAN,
                                k => k as f64 * 0.25,
                            };
                            (time, value)
                        })
                        .collect();
                    Historian::apply_to_series(&mut bulk, &cfg, &batch);
                    apply_one_at_a_time(&mut single, &cfg, &batch);
                    assert_eq!(
                        series_parts(&bulk),
                        series_parts(&single),
                        "block_len {block_len}, retention {retention:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn retention_downsamples_then_drops() {
        let cfg = HistorianConfig {
            shards: 1,
            block_len: 10,
            retention: Some(RetentionPolicy {
                raw_horizon_s: 100.0,
                downsample_horizon_s: 1000.0,
                bucket_s: 60.0,
            }),
            ..HistorianConfig::default()
        };
        let h = Historian::in_memory(cfg);
        // 10s cadence for 2000s: raw kept ≈100s, minute averages ≈1000s.
        let total = 200usize;
        for i in 0..total {
            h.insert("m", i as f64 * 10.0, i as f64);
        }
        let len = h.len("m");
        // Far fewer points than ingested, far more than zero.
        assert!(len < total / 2, "retention failed to shrink: {len}");
        assert!(len > 10, "retention dropped too much: {len}");
        // Newest raw samples are untouched.
        assert_eq!(h.last("m"), Some((total - 1) as f64));
        // Downsampled points are 60s-bucket means of a linear ramp, so
        // the whole series must stay strictly increasing.
        let vals = h.values("m");
        assert!(
            vals.windows(2).all(|w| w[0] < w[1]),
            "not increasing: {vals:?}"
        );
    }

    #[test]
    fn open_recovers_state_from_wal() {
        let dir = tmp_dir("recover");
        let cfg = small_cfg();
        {
            let (h, stats) = Historian::open(&dir, cfg.clone()).unwrap();
            assert_eq!(stats.records, 0);
            for i in 0..50 {
                h.insert("a.temp_c", i as f64 * 60.0, 20.0 + (i % 5) as f64 * 0.1);
            }
            h.append_batch("b.power_kw", &[(0.0, 2.0), (60.0, 2.5), (120.0, 2.25)]);
            h.flush().unwrap();
        }
        let (h2, stats) = Historian::open(&dir, cfg).unwrap();
        assert_eq!(stats.samples, 53);
        assert_eq!(h2.len("a.temp_c"), 50);
        assert_eq!(h2.len("b.power_kw"), 3);
        assert_eq!(h2.last("b.power_kw"), Some(2.25));
        let (times, values) = h2.series_samples("a.temp_c").unwrap();
        assert_eq!(times.len(), 50);
        assert_eq!(times[49], 49.0 * 60.0);
        assert_eq!(values[1], 20.1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopened_historian_appends_to_fresh_segments() {
        let dir = tmp_dir("reopen");
        let cfg = small_cfg();
        {
            let (h, _) = Historian::open(&dir, cfg.clone()).unwrap();
            h.insert("m", 0.0, 1.0);
            h.flush().unwrap();
        }
        {
            let (h, _) = Historian::open(&dir, cfg.clone()).unwrap();
            h.insert("m", 60.0, 2.0);
            h.flush().unwrap();
        }
        let (h, stats) = Historian::open(&dir, cfg).unwrap();
        assert_eq!(stats.records, 2);
        assert_eq!(h.values("m"), vec![1.0, 2.0]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_shard_ingest() {
        let h = std::sync::Arc::new(Historian::in_memory(HistorianConfig::default()));
        let mut handles = Vec::new();
        for w in 0..4 {
            let h = std::sync::Arc::clone(&h);
            handles.push(std::thread::spawn(move || {
                for i in 0..2000 {
                    h.insert(&format!("m{w}"), i as f64, i as f64);
                }
            }));
        }
        for handle in handles {
            handle.join().unwrap();
        }
        for w in 0..4 {
            assert_eq!(h.len(&format!("m{w}")), 2000);
            assert_eq!(h.last(&format!("m{w}")), Some(1999.0));
        }
        assert_eq!(h.metric_names().len(), 4);
    }

    #[test]
    fn metric_names_sorted_and_is_empty() {
        let h = Historian::in_memory(small_cfg());
        assert!(MetricStore::is_empty(&h));
        h.insert("b", 0.0, 1.0);
        h.insert("a", 0.0, 1.0);
        assert_eq!(h.metric_names(), vec!["a".to_string(), "b".to_string()]);
        assert!(!MetricStore::is_empty(&h));
    }

    #[test]
    fn append_runs_matches_per_run_appends_and_survives_replay() {
        let dir = std::env::temp_dir().join(format!("tesla-hist-runs-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let (h, _) = Historian::open(&dir, small_cfg()).unwrap();
            let runs: Vec<(String, Vec<(f64, f64)>)> = vec![
                ("rack.inlet".into(), vec![(0.0, 21.0), (60.0, 21.5)]),
                ("rack.outlet".into(), vec![(0.0, 30.0)]),
                // Same metric appearing in two runs of one call must
                // stay time-ordered.
                ("rack.inlet".into(), vec![(120.0, 22.0)]),
            ];
            h.append_runs(&runs);
            assert_eq!(h.last_n("rack.inlet", 3), vec![21.0, 21.5, 22.0]);
            assert_eq!(h.last("rack.outlet"), Some(30.0));
            h.flush().unwrap();
        }
        // WAL replay sees exactly what append_runs framed.
        let (h, stats) = Historian::open(&dir, small_cfg()).unwrap();
        assert!(stats.samples >= 4, "{stats:?}");
        assert_eq!(h.last_n("rack.inlet", 3), vec![21.0, 21.5, 22.0]);
        assert_eq!(h.last("rack.outlet"), Some(30.0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn insert_runs_default_impl_loops_insert_batch() {
        let h = Historian::in_memory(small_cfg());
        let store: &dyn MetricStore = &h;
        store.insert_runs(&[
            ("a".into(), vec![(0.0, 1.0), (1.0, 2.0)]),
            ("b".into(), vec![(0.0, 9.0)]),
        ]);
        assert_eq!(store.last_n("a", 2), vec![1.0, 2.0]);
        assert_eq!(store.last("b"), Some(9.0));
    }

    #[test]
    fn trait_object_usability() {
        let h: std::sync::Arc<dyn MetricStore> =
            std::sync::Arc::new(Historian::in_memory(small_cfg()));
        h.insert("m", 0.0, 1.0);
        h.insert("m", 60.0, 3.0);
        assert_eq!(h.mean_last_n("m", 2), Some(2.0));
        let (mean, min, max) = h.aggregate_range("m", 0.0, 100.0).unwrap();
        assert_eq!((mean, min, max), (2.0, 1.0, 3.0));
        let windows = h.last_n_many(&["m", "absent"], 2);
        assert_eq!(windows, vec![vec![1.0, 3.0], vec![]]);
    }
}
