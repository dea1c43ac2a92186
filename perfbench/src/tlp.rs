//! `tlp-mixed`: the TLP/1 service (`NetServer`) over a WAL-backed
//! `Historian`, driven over loopback by one generator process with two
//! connections:
//!
//! * a closed-loop writer pushing max-size (4096-sample) `PUSHC`
//!   batches round-robin over a fleet-sized set of zone-prefixed
//!   series, backing off (1–8 ms) while acks report a deep ingest queue;
//! * an open-loop dashboard reader sending `QUERY RANGE` at a fixed
//!   rate, each over a recent window that spans the newest sealed
//!   Gorilla block and the active block, timed from its scheduled send.
//!
//! Every series is primed with an odd-sized batch during set-up, so
//! after each full batch the active block holds the newest samples.
//! The reader only asks for samples the store must hold already (acks
//! mean enqueued, so it reads as of the ack that pushed the oldest
//! queued batch out of the queue's reach) and checks every reply
//! against the values the writer pushed, sample for sample. After the
//! drain the server process checks that every acked sample is in the
//! store. The traced run puts a timing `MetricStore` between the server
//! and the historian, samples the ingest queue from outside, and times
//! `tesla_net::Parser` on the recorded frames.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tesla_core::status::StatusBoard;
use tesla_historian::{Historian, HistorianConfig, MetricStore, StorageStats};
use tesla_net::{NetConfig, NetServer, Parser};

use crate::layers::TimedStore;
use crate::report::{median, p50_p90, RunReport, Stat};

/// Size of one tlp-mixed run.
#[derive(Debug, Clone)]
pub struct TlpParams {
    /// Workload seed: which value block each batch carries.
    pub seed: u64,
    /// Series pushed round-robin (256 zones × 4 metrics).
    pub series: usize,
    /// Samples per `PUSHC` batch (the server's cap).
    pub batch: usize,
    /// Samples per series pushed during set-up.
    pub prime: usize,
    /// `PUSHC` batches pushed in the measured window.
    pub batches: usize,
    /// `QUERY RANGE` sends per second.
    pub query_hz: f64,
    /// Samples per `QUERY RANGE` window.
    pub window: usize,
    /// Queue depth (samples) in an ack above which the writer pauses.
    pub throttle: usize,
    /// Timed set-ups per run (the median is reported).
    pub setups: usize,
}

impl TlpParams {
    /// Volume of `seconds` × 3M samples: under half of `seconds` at the
    /// writer's rate of about 7M samples per second, which bounds the
    /// WAL written per window to about 50 MB per second asked for.
    pub fn for_seconds(seed: u64, seconds: f64) -> Self {
        let batch = 4096;
        TlpParams {
            seed,
            series: 1024,
            batch,
            prime: 1000,
            batches: ((seconds * 3.0e6 / batch as f64).round() as usize).max(16),
            query_hz: 200.0,
            window: 2048,
            throttle: 1 << 18,
            setups: 5,
        }
    }

    fn args(&self, addr: &str) -> Vec<String> {
        [
            ("--addr", addr.to_string()),
            ("--seed", self.seed.to_string()),
            ("--series", self.series.to_string()),
            ("--batch", self.batch.to_string()),
            ("--prime", self.prime.to_string()),
            ("--batches", self.batches.to_string()),
            ("--query-hz", self.query_hz.to_string()),
            ("--window", self.window.to_string()),
            ("--throttle", self.throttle.to_string()),
        ]
        .into_iter()
        .flat_map(|(k, v)| [k.to_string(), v])
        .collect()
    }

    fn from_args(args: &[String]) -> Option<Self> {
        let get = |name: &str| -> Option<f64> {
            let i = args.iter().position(|a| a == name)?;
            args.get(i + 1)?.parse().ok()
        };
        Some(TlpParams {
            seed: get("--seed")? as u64,
            series: get("--series")? as usize,
            batch: get("--batch")? as usize,
            prime: get("--prime")? as usize,
            batches: get("--batches")? as usize,
            query_hz: get("--query-hz")?,
            window: get("--window")? as usize,
            throttle: get("--throttle")? as usize,
            setups: 1,
        })
    }
}

/// Distinct value blocks the batches draw from.
const BLOCKS: usize = 64;
/// Values per body line.
const PER_LINE: usize = 16;

/// The generated inputs: series names and pre-encoded value blocks,
/// plus the rule that maps a series sample index to its value.
pub struct Dataset {
    p: TlpParams,
    names: Vec<String>,
    /// `(body text of a full batch, the values it encodes)` per block.
    blocks: Vec<(Vec<u8>, Vec<f64>)>,
}

fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn encode_body(values: &[String]) -> Vec<u8> {
    let mut body = Vec::new();
    for line in values.chunks(PER_LINE) {
        body.extend_from_slice(line.join(" ").as_bytes());
        body.push(b'\n');
    }
    body
}

impl Dataset {
    /// Builds the series names and value blocks for `p`.
    pub fn new(p: &TlpParams) -> Self {
        const METRICS: [&str; 4] = ["setpoint_c", "cold_aisle_max_c", "acu.power_kw", "rung"];
        let names = (0..p.series)
            .map(|s| format!("z{}.{}", s / METRICS.len(), METRICS[s % METRICS.len()]))
            .collect();
        let blocks = (0..BLOCKS)
            .map(|b| {
                // 0.1-quantized readings drifting through 18.0–33.9 at
                // one step per 8 samples, with an occasional one-sample
                // blip: the shape of a 1 s rack-sensor series.
                let text: Vec<String> = (0..p.batch)
                    .map(|i| {
                        let blip = usize::from(mix((b * p.batch + i) as u64).is_multiple_of(16));
                        let tenths = (b * 37 + i / 8 + blip) % 160;
                        format!("{:.1}", 18.0 + tenths as f64 / 10.0)
                    })
                    .collect();
                let values = text
                    .iter()
                    .map(|t| t.parse().expect("formatted float parses"))
                    .collect();
                (encode_body(&text), values)
            })
            .collect();
        Dataset {
            p: p.clone(),
            names,
            blocks,
        }
    }

    fn block_of_batch(&self, j: usize) -> usize {
        (mix(self.p.seed ^ (j as u64).wrapping_mul(0x9E37_79B9)) % BLOCKS as u64) as usize
    }

    fn block_of_prime(&self, s: usize) -> usize {
        (mix(!self.p.seed ^ s as u64) % BLOCKS as u64) as usize
    }

    /// Set-up frame priming series `s` with `prime` samples at t = 0, 1, ….
    fn prime_frame(&self, s: usize) -> Vec<u8> {
        let values = &self.blocks[self.block_of_prime(s)].1[..self.p.prime];
        let text: Vec<String> = values.iter().map(|v| format!("{v:.1}")).collect();
        let mut frame = format!("PUSHC {} {} 0 1\n", self.p.prime, self.names[s]).into_bytes();
        frame.extend_from_slice(&encode_body(&text));
        frame
    }

    /// Measured-window batch `j`: series `j % series`, its
    /// `(j / series)`-th full batch after the prime.
    fn frame(&self, j: usize) -> Vec<u8> {
        let s = j % self.p.series;
        let t0 = self.p.prime + (j / self.p.series) * self.p.batch;
        let mut frame = format!("PUSHC {} {} {t0} 1\n", self.p.batch, self.names[s]).into_bytes();
        frame.extend_from_slice(&self.blocks[self.block_of_batch(j)].0);
        frame
    }

    /// Value of series `s` at sample index (and time) `i`.
    fn value(&self, s: usize, i: usize) -> f64 {
        if i < self.p.prime {
            return self.blocks[self.block_of_prime(s)].1[i];
        }
        let k = (i - self.p.prime) / self.p.batch;
        let j = k * self.p.series + s;
        self.blocks[self.block_of_batch(j)].1[(i - self.p.prime) % self.p.batch]
    }

    /// Samples series `s` holds once `acked` batches are acked.
    fn count(&self, s: usize, acked: usize) -> usize {
        let n = self.p.series;
        let full = acked / n + usize::from(s < acked % n);
        self.p.prime + full * self.p.batch
    }
}

/// What the generator measured.
#[derive(Debug, Default, Clone)]
pub struct GenStats {
    /// `PUSHC` batches acked `OK`.
    pub batches: u64,
    /// Samples in those batches.
    pub samples: u64,
    /// `PUSHC` requests sent.
    pub pushes: u64,
    /// `ERR` replies to `PUSHC`.
    pub push_errors: u64,
    /// `QUERY RANGE` requests sent.
    pub queries: u64,
    /// `ERR` replies to queries.
    pub query_errors: u64,
    /// Query replies that are not exactly the values pushed into the
    /// window (missing, extra or different samples).
    pub wrong: u64,
    /// Connections that died.
    pub dead: u64,
    /// `PUSHC` round trips, s (raw).
    pub ack_s: Vec<f64>,
    /// Query latency from the scheduled send, s (raw).
    pub query_s: Vec<f64>,
    /// How late each query was sent, s (raw).
    pub late_s: Vec<f64>,
    /// First wrong reply, for the failure message.
    pub first_wrong: String,
}

impl GenStats {
    fn encode(&self) -> String {
        let list = |v: &[f64]| {
            v.iter()
                .map(|x| format!("{x:e}"))
                .collect::<Vec<_>>()
                .join(",")
        };
        format!(
            "STATS {} {} {} {} {} {} {} {} {} {} {} {}",
            self.batches,
            self.samples,
            self.pushes,
            self.push_errors,
            self.queries,
            self.query_errors,
            self.wrong,
            self.dead,
            list(&self.ack_s),
            list(&self.query_s),
            list(&self.late_s),
            self.first_wrong.replace(' ', "_"),
        )
    }

    fn decode(line: &str) -> Option<Self> {
        let mut f = line.trim_end().strip_prefix("STATS ")?.split(' ');
        let mut n = || f.next()?.parse::<u64>().ok();
        let (batches, samples, pushes, push_errors, queries, query_errors, wrong, dead) =
            (n()?, n()?, n()?, n()?, n()?, n()?, n()?, n()?);
        let mut list = || -> Option<Vec<f64>> {
            let s = f.next()?;
            if s.is_empty() {
                return Some(Vec::new());
            }
            s.split(',').map(|x| x.parse().ok()).collect()
        };
        let (ack_s, query_s, late_s) = (list()?, list()?, list()?);
        Some(GenStats {
            batches,
            samples,
            pushes,
            push_errors,
            queries,
            query_errors,
            wrong,
            dead,
            ack_s,
            query_s,
            late_s,
            first_wrong: f.next().unwrap_or("").to_string(),
        })
    }
}

fn connect(addr: &str) -> std::io::Result<(TcpStream, BufReader<TcpStream>)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let reader = BufReader::new(stream.try_clone()?);
    Ok((stream, reader))
}

/// Parses the queue depth out of an `OK <n> q=<depth>` ack.
fn ack_depth(line: &str) -> Option<usize> {
    line.strip_prefix("OK ")?
        .split_whitespace()
        .find_map(|t| t.strip_prefix("q="))?
        .parse()
        .ok()
}

/// The generator: connects both clients, calls `ready` (which returns
/// once the measured window may start), then runs the writer and the
/// reader until the writer has pushed every batch.
fn generate(addr: &str, data: &Dataset, ready: impl FnOnce() -> bool) -> std::io::Result<GenStats> {
    let p = &data.p;
    let (mut push, mut push_rd) = connect(addr)?;
    let (mut query, mut query_rd) = connect(addr)?;
    if !ready() {
        return Err(std::io::Error::other("no start signal"));
    }

    // Acks mean enqueued. Once a batch is acked, every batch more than a
    // full queue plus one per writer thread older than it has left the
    // queue and been written (or dropped, which fails the run).
    let net = NetConfig::default();
    let settled = net.ingest_capacity_samples / p.batch + net.writer_threads;
    let acked = AtomicUsize::new(0);
    let done = AtomicBool::new(false);
    let mut stats = GenStats::default();
    let started = Instant::now();
    let reader = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let mut r = GenStats::default();
            let mut line = String::new();
            let period = Duration::from_secs_f64(1.0 / p.query_hz);
            for n in 0u32.. {
                let due = started + period * n;
                while Instant::now() < due {
                    if done.load(Ordering::Relaxed) {
                        return r;
                    }
                    std::thread::sleep((due - Instant::now()).min(Duration::from_millis(2)));
                }
                if done.load(Ordering::Relaxed) {
                    return r;
                }
                // The series whose newest batch was acked about half a
                // round ago, read as of `settled` batches before the
                // newest ack: every sample in the window is stored, and
                // the window ends in the active block.
                let a = acked.load(Ordering::Relaxed);
                let s = (a + p.series / 2) % p.series;
                let t1 = data.count(s, a.saturating_sub(settled));
                let t0 = t1.saturating_sub(p.window);
                let sent = Instant::now();
                r.late_s.push((sent - due).as_secs_f64());
                r.queries += 1;
                let request = format!("QUERY RANGE {} {t0} {t1}\n", data.names[s]);
                let reply = query.write_all(request.as_bytes()).and_then(|()| {
                    line.clear();
                    query_rd.read_line(&mut line)?;
                    let Some(k) = line.trim_end().strip_prefix("OK ") else {
                        return Ok(None);
                    };
                    let k: usize = k.parse().map_err(std::io::Error::other)?;
                    let mut values = Vec::with_capacity(k);
                    for _ in 0..k {
                        line.clear();
                        query_rd.read_line(&mut line)?;
                        values.push(line.trim_end().parse::<f64>().unwrap_or(f64::NAN));
                    }
                    Ok(Some(values))
                });
                match reply {
                    Err(_) => {
                        r.dead += 1;
                        return r;
                    }
                    Ok(None) => r.query_errors += 1,
                    Ok(Some(values)) => {
                        r.query_s.push((Instant::now() - due).as_secs_f64());
                        let ok = values.len() == t1 - t0
                            && values
                                .iter()
                                .zip(t0..)
                                .all(|(v, i)| v.to_bits() == data.value(s, i).to_bits());
                        if !ok {
                            r.wrong += 1;
                            if r.first_wrong.is_empty() {
                                r.first_wrong = format!(
                                    "{}[{t0},{t1}) got {} values",
                                    data.names[s],
                                    values.len()
                                );
                            }
                        }
                    }
                }
            }
            r
        });

        let mut line = String::new();
        // Backpressure: after an ack reporting a deep queue, pause before
        // the next batch, doubling the pause (up to 8 ms) while the queue
        // stays deep, so a stalled writer is not flooded into drops.
        let mut pause_ms = 0;
        for j in 0..p.batches {
            if pause_ms > 0 {
                std::thread::sleep(Duration::from_millis(pause_ms));
            }
            let frame = data.frame(j);
            let t = Instant::now();
            stats.pushes += 1;
            let sent = push.write_all(&frame).and_then(|()| {
                line.clear();
                push_rd.read_line(&mut line)
            });
            if sent.is_err() {
                stats.dead += 1;
                break;
            }
            stats.ack_s.push(t.elapsed().as_secs_f64());
            match ack_depth(&line) {
                Some(depth) => {
                    stats.batches += 1;
                    stats.samples += p.batch as u64;
                    pause_ms = if depth > p.throttle {
                        (pause_ms * 2).clamp(1, 8)
                    } else {
                        0
                    };
                    acked.store(j + 1, Ordering::Relaxed);
                }
                None => stats.push_errors += 1,
            }
        }
        done.store(true, Ordering::Relaxed);
        reader.join().expect("query thread")
    });
    stats.queries = reader.queries;
    stats.query_errors = reader.query_errors;
    stats.wrong = reader.wrong;
    stats.dead += reader.dead;
    stats.query_s = reader.query_s;
    stats.late_s = reader.late_s;
    stats.first_wrong = reader.first_wrong;
    Ok(stats)
}

/// Entry point of the generator process (`--generator`): prints
/// `READY` once connected, starts on `GO` from stdin, and prints one
/// `STATS` line.
pub fn generator_main(args: &[String]) -> ExitCode {
    tesla_obs::set_enabled(false);
    let (Some(p), Some(addr)) = (
        TlpParams::from_args(args),
        args.iter()
            .position(|a| a == "--addr")
            .and_then(|i| args.get(i + 1)),
    ) else {
        eprintln!("generator: missing arguments");
        return ExitCode::from(2);
    };
    let data = Dataset::new(&p);
    let ready = || {
        println!("READY");
        let _ = std::io::stdout().flush();
        let mut go = String::new();
        std::io::stdin().read_line(&mut go).is_ok() && go.trim() == "GO"
    };
    match generate(addr, &data, ready) {
        Ok(stats) => {
            println!("{}", stats.encode());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("generator: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs the generator as a child process (`exe --generator …`, the
/// benchmark's own executable) against `addr`; `on_ready` runs between
/// priming and the start of the measured window.
fn drive(
    exe: &Path,
    addr: &str,
    data: &Dataset,
    on_ready: impl FnOnce(),
) -> Result<GenStats, String> {
    let mut child = Command::new(exe)
        .arg("--generator")
        .args(data.p.args(addr))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn generator: {e}"))?;
    let mut out = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut line = String::new();
    let result = (|| {
        out.read_line(&mut line).map_err(|e| e.to_string())?;
        if line.trim() != "READY" {
            return Err(format!("generator did not start: {line:?}"));
        }
        on_ready();
        let stdin = child.stdin.as_mut().expect("piped stdin");
        stdin.write_all(b"GO\n").map_err(|e| e.to_string())?;
        line.clear();
        out.read_line(&mut line).map_err(|e| e.to_string())?;
        GenStats::decode(&line).ok_or_else(|| "generator sent no stats".to_string())
    })();
    drop(child.stdin.take());
    if result.is_err() {
        let _ = child.kill();
    }
    let status = child.wait().map_err(|e| e.to_string())?;
    match result {
        Ok(stats) if status.success() => Ok(stats),
        Ok(_) => Err(format!("generator exited with {status}")),
        Err(e) => Err(e),
    }
}

/// A store the caller puts between the historian and the traced run's
/// timing store (the attribution self-test's injected delay or fault).
pub type StoreLayer = fn(Arc<dyn MetricStore>) -> Arc<dyn MetricStore>;

/// A running service: WAL historian (optionally behind a timing store)
/// and the TLP/1 server on an ephemeral loopback port.
struct Service {
    dir: PathBuf,
    historian: Arc<Historian>,
    timed: Option<Arc<TimedStore>>,
    server: NetServer,
}

impl Service {
    /// Opens the historian in `dir` and binds the server on it; with
    /// `traced`, behind `layer` and a timing store.
    fn start(dir: PathBuf, traced: Option<StoreLayer>) -> Result<Self, String> {
        let _ = std::fs::remove_dir_all(&dir);
        let (historian, _) =
            Historian::open(&dir, HistorianConfig::default()).map_err(|e| e.to_string())?;
        let historian = Arc::new(historian);
        let timed = traced.map(|layer| {
            Arc::new(TimedStore::new(layer(
                Arc::clone(&historian) as Arc<dyn MetricStore>
            )))
        });
        let store: Arc<dyn MetricStore> = match &timed {
            Some(t) => Arc::clone(t) as Arc<dyn MetricStore>,
            None => Arc::clone(&historian) as Arc<dyn MetricStore>,
        };
        let server = NetServer::bind(
            "127.0.0.1:0",
            NetConfig::default(),
            store,
            Arc::new(StatusBoard::new()),
        )
        .map_err(|e| format!("bind: {e}"))?;
        Ok(Service {
            dir,
            historian,
            timed,
            server,
        })
    }

    /// One client connection to the server.
    fn connect(&self) -> Result<(TcpStream, BufReader<TcpStream>), String> {
        connect(&self.server.local_addr().to_string()).map_err(|e| e.to_string())
    }

    fn shutdown(self) {
        self.server.stop();
        drop(self.timed);
        drop(self.historian);
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// One measured window and its checks.
pub struct Window {
    /// Generator results.
    pub stats: GenStats,
    /// Start of pushing to the last acked sample committed, s.
    pub wall: f64,
    /// Samples the drop-oldest queue evicted.
    pub dropped: u64,
    /// Deepest ingest queue seen by the outside sampler (traced only).
    pub depth_max: usize,
    /// Store accounting after the drain.
    pub storage: StorageStats,
    /// Acked samples missing or wrong in the store.
    pub missing: Vec<String>,
    /// ACU energy the stored `z*.acu.power_kw` series record (1 s
    /// samples), kWh.
    pub energy_kwh: f64,
    /// Timing store of the traced run.
    pub timed: Option<Arc<TimedStore>>,
}

impl Window {
    /// The output checks that did not hold: wrong `RANGE` replies, queue
    /// drops, and acked samples missing or different after the drain.
    pub fn failures(&self) -> Vec<String> {
        let mut out = Vec::new();
        if self.stats.wrong > 0 {
            out.push(format!(
                "{} RANGE replies differ from the pushed values (first: {})",
                self.stats.wrong, self.stats.first_wrong
            ));
        }
        if self.dropped > 0 {
            out.push(format!(
                "{} acked samples dropped by the queue",
                self.dropped
            ));
        }
        if !self.missing.is_empty() {
            out.push(format!(
                "acked samples missing after drain: {}",
                self.missing.join(", ")
            ));
        }
        out
    }
}

fn window(
    service: Service,
    data: &Dataset,
    exe: &Path,
    sample_queue: bool,
) -> Result<Window, String> {
    let p = &data.p;
    let addr = service.server.local_addr().to_string();
    let primed = (p.series * p.prime) as u64;
    let server = &service.server;
    let wait_written = |target: u64| {
        let deadline = Instant::now() + Duration::from_secs(60);
        while server.written_samples() < target && Instant::now() < deadline {
            std::thread::sleep(Duration::from_micros(500));
        }
    };
    let stop = AtomicBool::new(false);
    let depth_max = AtomicUsize::new(0);
    let start_ns = AtomicU64::new(0);
    let t_ref = Instant::now();
    let stats = std::thread::scope(|scope| {
        if sample_queue {
            scope.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    depth_max.fetch_max(server.queue().depth_samples(), Ordering::Relaxed);
                    std::thread::sleep(Duration::from_millis(1));
                }
            });
        }
        let stats = drive(exe, &addr, data, || {
            if let Some(t) = &service.timed {
                t.reset();
            }
            start_ns.store(t_ref.elapsed().as_nanos() as u64, Ordering::Relaxed);
        });
        if let Ok(s) = &stats {
            wait_written(primed + s.samples);
        }
        stop.store(true, Ordering::Relaxed);
        stats
    });
    let wall = t_ref.elapsed().as_secs_f64() - start_ns.load(Ordering::Relaxed) as f64 * 1e-9;
    let dropped = service.server.queue().dropped_samples();
    let Service {
        dir,
        historian,
        timed,
        server,
    } = service;
    server.stop();
    let stats = match stats {
        Ok(stats) => stats,
        Err(e) => {
            drop(historian);
            let _ = std::fs::remove_dir_all(&dir);
            return Err(e);
        }
    };
    let acked = stats.batches as usize;
    let mut missing = Vec::new();
    let mut energy_kwh = 0.0;
    for (s, name) in data.names.iter().enumerate() {
        let want = data.count(s, acked);
        let (times, values) = historian.series_samples(name).unwrap_or_default();
        if name.ends_with(".acu.power_kw") {
            energy_kwh += values.iter().sum::<f64>() / 3600.0;
        }
        let ok = times.len() == want
            && times.iter().enumerate().all(|(i, &t)| t == i as f64)
            && values
                .iter()
                .enumerate()
                .all(|(i, v)| v.to_bits() == data.value(s, i).to_bits());
        if !ok && missing.len() < 3 {
            missing.push(format!(
                "{name}: {} of {want} samples as pushed",
                times.len()
            ));
        }
    }
    let storage = historian.storage_stats();
    drop(historian);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(Window {
        stats,
        wall,
        dropped,
        depth_max: depth_max.into_inner(),
        storage,
        missing,
        energy_kwh,
        timed,
    })
}

/// A fresh WAL directory under the benchmark's own (git-ignored) work
/// directory, relative to the checkout root the benchmark runs from.
fn work_dir(tag: &str) -> PathBuf {
    Path::new("perfbench")
        .join(".work")
        .join(format!("tlp-{}-{tag}", std::process::id()))
}

/// Starts a service on a WAL in `dir` with `layer` and a timing store
/// between the server and the historian, measures one traced window on
/// it with the generator `exe`, checks the store, and removes `dir`.
pub fn measure(
    data: &Dataset,
    exe: &Path,
    layer: StoreLayer,
    dir: PathBuf,
) -> Result<Window, String> {
    let service = set_up(dir, Some(layer), data)?;
    window(service, data, exe, true)
}

/// The set-up the benchmark times: start the service, connect a client,
/// and prime every series through it until the primed samples are
/// stored, so the measured window starts on a populated store.
fn set_up(dir: PathBuf, traced: Option<StoreLayer>, data: &Dataset) -> Result<Service, String> {
    let service = Service::start(dir, traced)?;
    match prime(&service, data) {
        Ok(()) => Ok(service),
        Err(e) => {
            service.shutdown();
            Err(e)
        }
    }
}

fn prime(service: &Service, data: &Dataset) -> Result<(), String> {
    let (mut stream, mut reader) = service.connect()?;
    let mut line = String::new();
    for s in 0..data.p.series {
        stream
            .write_all(&data.prime_frame(s))
            .map_err(|e| e.to_string())?;
        line.clear();
        reader.read_line(&mut line).map_err(|e| e.to_string())?;
        if ack_depth(&line).is_none() {
            return Err(format!("prime of {} answered {line:?}", data.names[s]));
        }
    }
    let primed = (data.p.series * data.p.prime) as u64;
    let deadline = Instant::now() + Duration::from_secs(60);
    while service.server.written_samples() < primed {
        if Instant::now() > deadline {
            return Err("primed samples were not stored within 60 s".into());
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    Ok(())
}

/// Parser throughput on the recorded frames, MB/s.
fn parse_mb_per_s(data: &Dataset) -> f64 {
    let frames: Vec<u8> = (0..data.p.batches.min(256))
        .flat_map(|j| data.frame(j))
        .collect();
    let mut parser = Parser::new(data.p.batch);
    let mut events = Vec::new();
    let mut busy = Duration::ZERO;
    let mut bytes = 0usize;
    while busy < Duration::from_millis(300) {
        let mut input = frames.clone();
        let t = Instant::now();
        let fed = parser.feed(&mut input, &mut events);
        busy += t.elapsed();
        bytes += frames.len();
        if fed.is_err() || events.len() != data.p.batches.min(256) {
            return f64::NAN;
        }
        events.clear();
    }
    bytes as f64 / busy.as_secs_f64() / 1e6
}

/// Times one set-up, which is then shut down.
fn timed_set_up(data: &Dataset, tag: &str) -> Result<f64, String> {
    let t = Instant::now();
    let service = set_up(work_dir(tag), None, data)?;
    let took = t.elapsed().as_secs_f64();
    service.shutdown();
    Ok(took)
}

/// Runs tlp-mixed; with `trace`, also the traced window.
pub fn run(p: &TlpParams, trace: bool) -> Result<RunReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate generator: {e}"))?;
    let data = Dataset::new(p);
    let mut report = RunReport {
        workers: NetConfig::default().writer_threads,
        ..RunReport::default()
    };
    // Half the timed set-ups run before the measured window and half
    // after it, so their median spans more of the run than one moment.
    let setups = p.setups.max(1);
    let mut setup_s = Vec::with_capacity(setups);
    for i in 1..setups.div_ceil(2) {
        setup_s.push(timed_set_up(&data, &format!("setup{i}"))?);
    }
    let t = Instant::now();
    let service = set_up(work_dir("measured"), None, &data)?;
    setup_s.push(t.elapsed().as_secs_f64());
    let w = window(service, &data, &exe, false)?;
    for i in setup_s.len()..setups {
        setup_s.push(timed_set_up(&data, &format!("setup{i}"))?);
    }
    for why in w.failures() {
        report.fail(format!("untraced: {why}"));
    }

    let s = &w.stats;
    let (ack50, ack90) = p50_p90(&mut w.stats.ack_s.clone());
    let (q50, q90) = p50_p90(&mut w.stats.query_s.clone());
    let (late50, _) = p50_p90(&mut w.stats.late_s.clone());
    let late_max = s.late_s.iter().copied().fold(0.0, f64::max);
    let n_ack = s.ack_s.len() as u64;
    let n_query = s.query_s.len() as u64;
    report.attempted = s.pushes + s.queries;
    report.failed =
        s.push_errors + s.query_errors + s.wrong + s.dead + w.dropped.div_ceil(p.batch as u64);
    report.end_to_end = vec![
        Stat::new(
            "setup_s",
            median(&setup_s),
            "s",
            setup_s.len() as u64,
            "historian open + bind + connect + prime until stored (median)",
        ),
        Stat::new(
            "cooling_energy_kwh",
            w.energy_kwh,
            "kWh",
            (p.series * p.prime) as u64 / 4 + s.samples / 4,
            "ACU energy the stored z*.acu.power_kw series record",
        ),
        Stat::new(
            "peak_rss_mb",
            f64::NAN,
            "MB",
            1,
            "peak resident set of the server process",
        ),
        Stat::new(
            "throughput_per_s",
            s.samples as f64 / w.wall,
            "1/s",
            s.samples,
            "ingest_samples_per_s: acked samples committed after drain",
        ),
        Stat::new(
            "latency_p90_ms",
            q90 * 1e3,
            "ms",
            n_query,
            "query_p90_ms: QUERY RANGE, from its scheduled send",
        ),
    ];
    report.detail = vec![
        Stat::new(
            "query_p50_ms",
            q50 * 1e3,
            "ms",
            n_query,
            "QUERY RANGE, from its scheduled send",
        ),
        Stat::new("ack_p50_ms", ack50 * 1e3, "ms", n_ack, "PUSHC round trip"),
        Stat::new("ack_p90_ms", ack90 * 1e3, "ms", n_ack, "PUSHC round trip"),
        Stat::new(
            "generator_late_p50_ms",
            late50 * 1e3,
            "ms",
            s.late_s.len() as u64,
            "query send after its scheduled time",
        ),
        Stat::new(
            "generator_late_max_ms",
            late_max * 1e3,
            "ms",
            s.late_s.len() as u64,
            "query send after its scheduled time",
        ),
    ];

    if trace {
        let t = measure(&data, &exe, |store| store, work_dir("traced"))?;
        for why in t.failures() {
            report.fail(format!("traced: {why}"));
        }
        if t.storage != w.storage {
            report.fail("traced store contents differ from the untraced run");
        }
        let timed = t.timed.as_ref().expect("traced window has a timing store");
        let pct = |s: f64| 100.0 * s / t.wall;
        let writers = NetConfig::default().writer_threads as f64;
        report.layer("trace.wall_s", t.wall);
        report.layer("trace.overhead_pct", 100.0 * (t.wall - w.wall) / w.wall);
        report.layer(
            "trace.residual_pct",
            100.0 - pct(timed.insert_runs.seconds()) / writers,
        );
        report.layer(
            "historian.insert_runs.count",
            timed.insert_runs.calls() as f64,
        );
        report.layer(
            "historian.insert_runs.samples",
            timed.insert_runs.items() as f64,
        );
        report.layer(
            "historian.insert_runs.busy_pct",
            pct(timed.insert_runs.seconds()),
        );
        report.layer(
            "net.writer.busy_frac",
            timed.insert_runs.seconds() / (t.wall * writers),
        );
        report.layer("historian.range.count", timed.range.calls() as f64);
        report.layer("historian.range.busy_pct", pct(timed.range.seconds()));
        report.layer("net.queue.depth_max", t.depth_max as f64);
        report.layer("net.queue.dropped", t.dropped as f64);
        report.layer("net.parse.mb_per_s", parse_mb_per_s(&data));
        report.layer(
            "historian.bytes_per_sample",
            t.storage.bytes_per_sample().unwrap_or(f64::NAN),
        );
    }
    // The per-run WAL directories are gone; drop their parent if empty.
    let _ = std::fs::remove_dir(Path::new("perfbench").join(".work"));
    Ok(report)
}
