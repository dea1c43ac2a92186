//! Golden test for the historian's storage formats and query results.
//!
//! The historian's own tests round-trip what they write, so a change
//! that moves the encoder and the decoder together passes them all,
//! while every block sealed and every WAL segment written before the
//! change would then read back wrong. This test pins the bytes
//! themselves to recorded FNV-1a hashes:
//!
//! - `gorilla::compress` output for the 64 value blocks of the
//!   benchmark's tlp-mixed workload (0.1-quantized readings on a 1 s
//!   cadence), for seeded random bit patterns mixed with ±0,
//!   subnormals and ±1e300, for irregular times that reach every
//!   delta-of-delta bucket, and for 0-, 1- and 2-sample blocks;
//! - every WAL segment file a WAL-backed historian writes for fixed
//!   runs through `append_batch` and `append_runs`, with segments small
//!   enough to rotate, and the state a reopened historian recovers;
//! - `range`, `last_n` and `series_samples` on a series under a
//!   retention policy, so downsampled points, the pending bucket,
//!   sealed blocks and the active block all take part.

use std::path::{Path, PathBuf};

use tesla::historian::gorilla::compress;
use tesla::historian::{FsyncPolicy, Historian, HistorianConfig, MetricStore, RetentionPolicy};

/// Hash over the 64 tlp-mixed value blocks, each compressed alone.
const GOLDEN_TLP_BLOCKS: u64 = 0xf6de_6ae4_3c6b_9979;
/// Hash over seeded random value bit patterns with special values.
const GOLDEN_RANDOM_BITS: u64 = 0x09c9_4dfb_e909_e88e;
/// Hash over irregular time columns.
const GOLDEN_IRREGULAR_TIMES: u64 = 0x191a_40f5_8ffd_6581;
/// Hash over the 0-, 1- and 2-sample blocks.
const GOLDEN_TINY_BLOCKS: u64 = 0x67d4_4bb7_c813_a23e;
/// Hash over every WAL segment file's name and bytes.
const GOLDEN_WAL_SEGMENTS: u64 = 0x43a7_d2cd_1444_b79a;
/// Hash over the state a reopened WAL historian recovers.
const GOLDEN_WAL_RECOVERED: u64 = 0x1de9_a9f3_ce83_dc4f;
/// Hash over the query results on the retained series.
const GOLDEN_QUERIES: u64 = 0x1062_55e6_ca3f_6ed6;

/// FNV-1a over little-endian words and byte strings.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    /// A length-prefixed byte string, so concatenations cannot collide.
    fn block(&mut self, bytes: &[u8]) {
        self.word(bytes.len() as u64);
        self.bytes(bytes);
    }

    fn floats(&mut self, xs: &[f64]) {
        self.word(xs.len() as u64);
        for x in xs {
            self.word(x.to_bits());
        }
    }
}

/// SplitMix64 finalizer: the seeded stream every input here draws from.
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The tlp-mixed value blocks: 0.1-quantized readings drifting through
/// 18.0–33.9 at one step per 8 samples, with an occasional one-sample
/// blip, parsed back from their one-decimal text as the server does.
fn tlp_blocks() -> Vec<Vec<f64>> {
    const BLOCKS: usize = 64;
    const BATCH: usize = 4096;
    (0..BLOCKS)
        .map(|b| {
            (0..BATCH)
                .map(|i| {
                    let blip = usize::from(mix((b * BATCH + i) as u64).is_multiple_of(16));
                    let tenths = (b * 37 + i / 8 + blip) % 160;
                    let text = format!("{:.1}", 18.0 + tenths as f64 / 10.0);
                    text.parse().expect("formatted float parses")
                })
                .collect()
        })
        .collect()
}

fn hash_tlp_blocks() -> u64 {
    let mut h = Fnv::new();
    for (b, values) in tlp_blocks().iter().enumerate() {
        // Each block continues a 1 s series after a 1000-sample prime.
        let t0 = 1000 + b * values.len();
        let times: Vec<f64> = (0..values.len()).map(|i| (t0 + i) as f64).collect();
        h.block(&compress(&times, values));
    }
    h.0
}

/// Values that stress the XOR windows: ±0, subnormals, ±1e300, the
/// extremes of the finite range, and raw random bit patterns.
fn special(i: u64) -> f64 {
    const SPECIALS: [f64; 10] = [
        0.0,
        -0.0,
        f64::MIN_POSITIVE / 4.0,
        -f64::MIN_POSITIVE / 1024.0,
        1e300,
        -1e300,
        f64::MAX,
        f64::MIN_POSITIVE,
        5e-324,
        21.5,
    ];
    SPECIALS[(i % SPECIALS.len() as u64) as usize]
}

fn hash_random_bits() -> u64 {
    let mut h = Fnv::new();
    for seed in 0..8u64 {
        let n = 50 + (mix(seed) % 400) as usize;
        let values: Vec<f64> = (0..n as u64)
            .map(|i| {
                let r = mix(seed << 32 | i);
                match r % 4 {
                    0 => special(r >> 8),
                    1 => f64::from_bits(mix(r)),
                    // A repeat of a special keeps some XORs at zero.
                    2 => special(i / 3),
                    _ => (r >> 11) as f64 * 1e-3,
                }
            })
            .collect();
        let times: Vec<f64> = (0..n).map(|i| i as f64 * 60.0).collect();
        h.block(&compress(&times, &values));
    }
    h.0
}

fn hash_irregular_times() -> u64 {
    let mut h = Fnv::new();
    let fixed: [&[f64]; 4] = [
        &[0.0, 0.125, 59.99, 60.0, 1e6, 1e6 + 1e-9],
        &[-1e9, -1.0, -1e-300, -0.0, 0.0, 1e-300, 1.0, 60.0, 1e18],
        &[5.0, 5.0, 5.0, 6.0, 6.0, 1e300],
        &[0.0, 1.0, 3.0, 7.0, 15.0, 31.0, 63.0, 2047.0, 2048.0, 2049.5],
    ];
    for times in fixed {
        let values: Vec<f64> = (0..times.len()).map(|i| i as f64 * 1.5).collect();
        h.block(&compress(times, &values));
    }
    // Times a few ulps apart, so the delta-of-delta lands in each of
    // the 1-, 7-, 9-, 12- and 64-bit buckets.
    let mut bits = 1000.0f64.to_bits();
    let mut times = Vec::with_capacity(200);
    for i in 0..200u64 {
        times.push(f64::from_bits(bits));
        bits += 5000 + [0, 0, 1, 60, 200, 1500, 3000][(mix(i ^ 0xD0D) % 7) as usize];
    }
    let values: Vec<f64> = (0..times.len()).map(|i| 40.0 - i as f64 / 8.0).collect();
    h.block(&compress(&times, &values));
    // Jittered cadences: nondecreasing, with repeated times, sub-ms
    // jitter and gaps of up to an hour.
    for seed in 0..6u64 {
        let n = 40 + (mix(seed ^ 0xA5) % 200) as usize;
        let mut t = (mix(seed) % 1000) as f64 - 500.0;
        let mut times = Vec::with_capacity(n);
        let mut values = Vec::with_capacity(n);
        for i in 0..n as u64 {
            times.push(t);
            values.push(20.0 + (mix(seed << 20 | i) % 100) as f64 / 10.0);
            let r = mix(seed << 40 | i);
            t += match r % 5 {
                0 => 1.0,
                1 => 1.0 + (r >> 8) as f64 % 7.0 * 1e-3,
                2 => (r >> 8) as f64 % 3600.0,
                3 => 0.0,
                _ => 1e-7 * ((r >> 8) % 1000) as f64,
            };
        }
        h.block(&compress(&times, &values));
    }
    h.0
}

fn hash_tiny_blocks() -> u64 {
    let mut h = Fnv::new();
    h.block(&compress(&[], &[]));
    h.block(&compress(&[60.0], &[23.1]));
    h.block(&compress(&[-0.0], &[-0.0]));
    h.block(&compress(&[0.0, 60.0], &[23.1, 23.1]));
    h.block(&compress(
        &[1e-300, 1e300],
        &[f64::MIN_POSITIVE / 4.0, -1e300],
    ));
    h.0
}

/// A fresh directory under the system temp dir for `name`.
fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "tesla_historian_golden_{name}_{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn wal_config() -> HistorianConfig {
    HistorianConfig {
        shards: 4,
        block_len: 64,
        segment_bytes: 2048,
        fsync: FsyncPolicy::OnRotateOnly,
        ..HistorianConfig::default()
    }
}

/// Fixed runs through both ingest entry points: several series across
/// shards, an empty run, a non-finite sample the WAL logs as written,
/// and a series that appears twice in one `append_runs` call.
fn write_fixed_runs(h: &Historian) {
    let run = |series: u64, t0: usize, n: usize| -> Vec<(f64, f64)> {
        (0..n)
            .map(|i| {
                let t = (t0 + i) as f64 * 15.0;
                (
                    t,
                    20.0 + (mix(series << 32 | (t0 + i) as u64) % 120) as f64 / 10.0,
                )
            })
            .collect()
    };
    let names = [
        "z0.setpoint_c",
        "z0.cold_aisle_max_c",
        "z1.acu.power_kw",
        "z1.rung",
        "site.power_kw",
    ];
    for (k, name) in names.iter().enumerate() {
        h.append_batch(name, &run(k as u64, 0, 10 + 7 * k));
    }
    h.append_batch("z1.rung", &[]);
    h.append_batch("site.power_kw", &[(1000.0, f64::NAN), (1001.0, 5.5)]);
    for round in 0..6 {
        let runs: Vec<(String, Vec<(f64, f64)>)> = names
            .iter()
            .enumerate()
            .map(|(k, name)| {
                (
                    name.to_string(),
                    run(k as u64, 100 + round * 40, 20 + round),
                )
            })
            .chain(std::iter::once((
                names[round % names.len()].to_string(),
                run((round % names.len()) as u64, 100 + round * 40 + 30, 3),
            )))
            .collect();
        h.append_runs(&runs);
    }
    for (k, name) in names.iter().take(3).enumerate() {
        h.insert(name, 10_000.0 + k as f64, k as f64);
    }
}

/// Every segment file under `dir`, as `(path relative to dir, bytes)`
/// in path order.
fn segment_files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut out = Vec::new();
    let mut shards: Vec<_> = std::fs::read_dir(dir)
        .expect("historian dir")
        .map(|e| e.expect("dir entry").path())
        .collect();
    shards.sort();
    for shard in shards {
        let mut segs: Vec<_> = std::fs::read_dir(&shard)
            .expect("shard dir")
            .map(|e| e.expect("dir entry").path())
            .collect();
        segs.sort();
        for seg in segs {
            let rel = seg
                .strip_prefix(dir)
                .expect("under dir")
                .to_string_lossy()
                .replace('\\', "/");
            out.push((rel, std::fs::read(&seg).expect("segment bytes")));
        }
    }
    out
}

fn hash_store(h: &Historian) -> u64 {
    let mut f = Fnv::new();
    for name in h.metric_names() {
        f.block(name.as_bytes());
        let (times, values) = h.series_samples(&name).expect("listed series");
        f.floats(&times);
        f.floats(&values);
    }
    f.0
}

fn hash_wal() -> (u64, u64) {
    let dir = tmp_dir("wal");
    {
        let (h, stats) = Historian::open(&dir, wal_config()).expect("open");
        assert_eq!(stats.records, 0);
        write_fixed_runs(&h);
        h.flush().expect("flush");
    }
    let files = segment_files(&dir);
    assert!(
        files.len() > 4,
        "segments must rotate: {} files",
        files.len()
    );
    let mut f = Fnv::new();
    for (name, bytes) in &files {
        f.block(name.as_bytes());
        f.block(bytes);
    }
    let (h, stats) = Historian::open(&dir, wal_config()).expect("reopen");
    assert_eq!(stats.truncated_bytes, 0);
    let recovered = hash_store(&h);
    drop(h);
    let _ = std::fs::remove_dir_all(&dir);
    (f.0, recovered)
}

/// A series under retention holding every part: downsampled points,
/// the pending bucket, sealed blocks and a partly filled active block.
fn retained_series() -> Historian {
    let h = Historian::in_memory(HistorianConfig {
        shards: 2,
        block_len: 32,
        retention: Some(RetentionPolicy {
            raw_horizon_s: 900.0,
            downsample_horizon_s: 3600.0,
            bucket_s: 60.0,
        }),
        ..HistorianConfig::default()
    });
    let mut t = 0.0;
    let mut batch = Vec::new();
    for i in 0..1000u64 {
        let r = mix(i ^ 0x5EED);
        t += [7.0, 7.0, 7.0, 3.5, 11.0, 0.0][(r % 6) as usize];
        batch.push((t, 18.0 + (r >> 8) as f64 % 160.0 / 10.0));
        if r.is_multiple_of(5) || batch.len() >= 40 {
            h.append_batch("m", &batch);
            batch.clear();
        }
    }
    h.append_batch("m", &batch);
    let stats = h.storage_stats();
    assert!(stats.downsampled > 1, "{stats:?}");
    assert!(stats.sealed_samples > 32, "{stats:?}");
    assert!(stats.active_samples > 0, "{stats:?}");
    h
}

fn hash_queries() -> u64 {
    let h = retained_series();
    let mut f = Fnv::new();
    let (times, values) = h.series_samples("m").expect("series");
    f.floats(&times);
    f.floats(&values);
    let len = h.len("m");
    f.word(len as u64);
    for n in [
        0,
        1,
        2,
        5,
        17,
        31,
        32,
        33,
        64,
        100,
        200,
        len - 1,
        len,
        len + 10,
    ] {
        f.floats(&h.last_n("m", n));
    }
    // Windows whose ends sit on, just before and just after every
    // stored time, plus NaN, empty, reversed and unbounded ones.
    let mut edges = vec![f64::NEG_INFINITY, f64::INFINITY, -1e9, 1e9];
    for &t in &times {
        edges.extend([t, t - 0.5, t + 0.5]);
    }
    for (i, &a) in edges.iter().enumerate() {
        for &b in edges.iter().skip(i % 23).step_by(23) {
            f.floats(&h.range("m", a, b));
        }
    }
    for (a, b) in [
        (f64::NAN, 1e9),
        (0.0, f64::NAN),
        (f64::NAN, f64::NAN),
        (500.0, 500.0),
        (900.0, 100.0),
    ] {
        f.floats(&h.range("m", a, b));
    }
    f.floats(&h.range("absent", -1e9, 1e9));
    f.floats(&h.last_n("absent", 4));
    f.0
}

fn check(what: &str, got: u64, want: u64) {
    assert_eq!(got, want, "{what}: got {got:#018x}, recorded {want:#018x}");
}

#[test]
fn gorilla_blocks_match_recorded_bytes() {
    check("tlp-mixed blocks", hash_tlp_blocks(), GOLDEN_TLP_BLOCKS);
    check(
        "random bit patterns",
        hash_random_bits(),
        GOLDEN_RANDOM_BITS,
    );
    check(
        "irregular times",
        hash_irregular_times(),
        GOLDEN_IRREGULAR_TIMES,
    );
    check("tiny blocks", hash_tiny_blocks(), GOLDEN_TINY_BLOCKS);
}

#[test]
fn wal_segments_match_recorded_bytes() {
    let (segments, recovered) = hash_wal();
    check("WAL segment files", segments, GOLDEN_WAL_SEGMENTS);
    check("recovered store", recovered, GOLDEN_WAL_RECOVERED);
}

#[test]
fn queries_match_recorded_results() {
    check("queries", hash_queries(), GOLDEN_QUERIES);
}
