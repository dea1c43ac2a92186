//! Load bench for the `tesla-net` TLP/1 service: tens of thousands of
//! concurrent clients flooding columnar `PUSHC` batches over loopback
//! into a WAL-backed historian, then a query-latency pass and a
//! connection-churn pass, printed as one table.
//!
//! Process layout (the box caps each process at ~20k file
//! descriptors): the parent hosts the [`tesla_net::NetServer`] plus all
//! 10k server-side connections, and re-executes itself as `--client`
//! subprocesses that split the client-side connections between them.
//! Children connect everything first, report `READY`, and flood only
//! after the parent's `GO` — so the measured window is all-connections
//! concurrent load, not ramp-up. Each connection keeps exactly one
//! batch in flight (send, await the `OK` ack, send the next), which is
//! how a well-behaved telemetry agent treats an explicit-backpressure
//! ingest plane.
//!
//! Default mode enforces the acceptance floor — ≥ 1M samples/s written
//! through the queue and WAL with 10k concurrent clients — and exits
//! non-zero below it. `--smoke` runs the identical pipeline at CI scale
//! (hundreds of connections, a few seconds) without the full-scale
//! floor.
//!
//! Flags: `--connections N` (default 10000), `--client-procs N`
//! (default 4), `--batch N` samples per `PUSHC` (default 256),
//! `--per-line N` values per body line (default 16), `--seconds S`
//! flood window (default 12), `--queries N` (default 2000),
//! `--query-threads N` (default 8), `--churn N` (default 3000),
//! `--dir PATH` (default fresh temp dir, removed afterwards).

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tesla_bench::{arg_f64, arg_flag};
use tesla_core::status::{StatusBoard, StatusSnapshot};
use tesla_core::supervisor::Rung;
use tesla_historian::{FsyncPolicy, Historian, HistorianConfig, MetricStore};
use tesla_net::{NetConfig, NetServer};
use tesla_units::Celsius;

/// String-valued flag lookup (`--flag value`).
fn arg_str(name: &str, default: &str) -> String {
    let args: Vec<String> = std::env::args().collect();
    for i in 0..args.len().saturating_sub(1) {
        if args[i] == format!("--{name}") {
            return args[i + 1].clone();
        }
    }
    default.to_string()
}

fn main() {
    if arg_flag("client") {
        client_main();
        return;
    }
    let smoke = arg_flag("smoke");
    let (d_conns, d_procs, d_secs, d_queries, d_churn) = if smoke {
        (256.0, 1.0, 3.0, 400.0, 500.0)
    } else {
        (10_000.0, 4.0, 12.0, 2_000.0, 3_000.0)
    };
    let connections = arg_f64("connections", d_conns) as usize;
    let client_procs = (arg_f64("client-procs", d_procs) as usize).max(1);
    let batch = (arg_f64("batch", 256.0) as usize).max(1);
    let per_line = (arg_f64("per-line", 16.0) as usize).max(1);
    let seconds = arg_f64("seconds", d_secs);
    let queries = arg_f64("queries", d_queries) as usize;
    let query_threads = (arg_f64("query-threads", 8.0) as usize).max(1);
    let churn = arg_f64("churn", d_churn) as usize;
    let (dir, cleanup) = bench_dir();

    // WAL-backed store: this is the end-to-end path the floor is about.
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = HistorianConfig {
        fsync: FsyncPolicy::EveryN(4096),
        ..HistorianConfig::default()
    };
    let (store, _) = Historian::open(&dir, cfg).expect("open historian");
    let store = Arc::new(store);

    tesla_obs::set_enabled(true);
    let board = Arc::new(StatusBoard::new());
    board.publish(StatusSnapshot {
        minute: 0,
        rung: Rung::Normal,
        setpoint: Celsius::new(24.0),
        cold_aisle_max: Celsius::new(25.0),
        safe_mode_minutes: 0,
        hold_minutes: 0,
        watchdog_trips: 0,
        write_failures: 0,
        decision_timeouts: 0,
        events_dropped: 0,
    });
    let net_cfg = NetConfig {
        ingest_capacity_samples: 1 << 22,
        reactor: tesla_reactor::ReactorConfig {
            // One core serves reactor, historian writer, and the
            // client processes: poll cold telemetry agents rarely
            // (1/64 sweeps) and idle in larger steps so the writer
            // keeps the core.
            poll_backoff_cap: 6,
            idle_sleep: Duration::from_millis(2),
            ..tesla_reactor::ReactorConfig::default()
        },
        ..NetConfig::default()
    };
    let ingest_cap = net_cfg.ingest_capacity_samples;
    let server = NetServer::bind(
        "127.0.0.1:0",
        net_cfg,
        Arc::clone(&store) as Arc<dyn MetricStore>,
        board,
    )
    .expect("bind net server");
    let addr = server.local_addr().to_string();
    eprintln!(
        "net server on {addr}: {connections} connections across {client_procs} client processes"
    );

    // ---- Phase 1: concurrent ingest flood -------------------------
    let conns_per_proc = connections.div_ceil(client_procs);
    let exe = std::env::current_exe().expect("current exe");
    let mut children: Vec<(Child, BufReader<std::process::ChildStdout>)> = Vec::new();
    for p in 0..client_procs {
        let conns = conns_per_proc.min(connections - p * conns_per_proc);
        let mut child = Command::new(&exe)
            .args([
                "--client",
                "x", // arg_flag matches the flag itself; value slot unused
                "--addr",
                &addr,
                "--conns",
                &conns.to_string(),
                "--batch",
                &batch.to_string(),
                "--per-line",
                &per_line.to_string(),
                "--seconds",
                &format!("{seconds}"),
                "--proc",
                &p.to_string(),
                "--throttle-lo",
                &(ingest_cap / 4).to_string(),
                "--throttle-hi",
                &(ingest_cap / 2).to_string(),
            ])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn client process");
        let stdout = BufReader::new(child.stdout.take().expect("child stdout"));
        children.push((child, stdout));
    }
    // Wait for every child to finish connecting before starting the
    // clock: the measured window is full-concurrency flood.
    for (i, (_, stdout)) in children.iter_mut().enumerate() {
        let mut line = String::new();
        stdout.read_line(&mut line).expect("child READY");
        assert_eq!(line.trim(), "READY", "client {i} failed to connect");
    }
    eprintln!(
        "all {} client connections up (server sees {}); flooding for {seconds}s …",
        connections,
        server.connections()
    );
    let t0 = Instant::now();
    for (child, _) in children.iter_mut() {
        child
            .stdin
            .as_mut()
            .expect("child stdin")
            .write_all(b"GO\n")
            .expect("send GO");
    }
    // Low-rate progress sampling while the flood runs (stderr only).
    let sampler_stop = std::sync::atomic::AtomicBool::new(false);
    let (mut acked, mut sent, mut dead) = (0u64, 0u64, 0u64);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            while !sampler_stop.load(std::sync::atomic::Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(1000));
                eprintln!(
                    "  t={:>5.1}s queue={:>8} written={:>9} dropped={:>8}",
                    t0.elapsed().as_secs_f64(),
                    server.queue().depth_samples(),
                    server.written_samples(),
                    server.queue().dropped_samples()
                );
            }
        });
        for (mut child, mut stdout) in children {
            let mut line = String::new();
            stdout.read_line(&mut line).expect("child STATS");
            let mut fields = line.split_whitespace();
            assert_eq!(fields.next(), Some("STATS"), "bad client report: {line}");
            for f in fields {
                let (k, v) = f.split_once('=').expect("k=v");
                let v: u64 = v.parse().expect("stat value");
                match k {
                    "acked" => acked += v,
                    "sent" => sent += v,
                    "dead" => dead += v,
                    _ => {}
                }
            }
            child.wait().expect("client exit");
        }
        // Children are done; wait for the writers to drain what is queued
        // so the rate is samples *committed to the store*, end to end.
        let drain_deadline = Instant::now() + Duration::from_secs(120);
        while server.queue().depth_samples() > 0 && Instant::now() < drain_deadline {
            std::thread::sleep(Duration::from_millis(20));
        }
        sampler_stop.store(true, std::sync::atomic::Ordering::Relaxed);
    });
    let elapsed = t0.elapsed().as_secs_f64();
    let written = server.written_samples();
    let dropped = server.queue().dropped_samples();
    let ingest_rate = written as f64 / elapsed;
    let acked_rate = acked as f64 / elapsed;
    eprintln!(
        "ingest: {written} samples written ({dropped} dropped, {dead} dead conns) \
         in {elapsed:.2}s = {:.2}M samples/s",
        ingest_rate / 1e6
    );

    // ---- Phase 2: query latency -----------------------------------
    let mut rtts = query_phase(&addr, queries, query_threads, client_procs, conns_per_proc);
    rtts.sort_by(|a, b| a.total_cmp(b));
    let pct = |p: f64| -> f64 {
        if rtts.is_empty() {
            return f64::NAN;
        }
        rtts[((rtts.len() as f64 * p) as usize).min(rtts.len() - 1)]
    };
    let (q_p50, q_p99) = (pct(0.50), pct(0.99));
    eprintln!(
        "query: {} LASTN round-trips, p50 {:.1}µs p99 {:.1}µs",
        rtts.len(),
        q_p50 * 1e6,
        q_p99 * 1e6
    );

    // ---- Phase 3: connection churn --------------------------------
    let t0 = Instant::now();
    let churn_threads = 2usize;
    std::thread::scope(|scope| {
        for _ in 0..churn_threads {
            scope.spawn(|| {
                for _ in 0..churn / churn_threads {
                    let mut s = TcpStream::connect(&addr).expect("churn connect");
                    s.write_all(b"PING\n").expect("churn ping");
                    let mut buf = [0u8; 8];
                    let n = s.read(&mut buf).expect("churn pong");
                    assert_eq!(&buf[..n], b"PONG\n");
                }
            });
        }
    });
    let churn_rate = churn as f64 / t0.elapsed().as_secs_f64();
    eprintln!("churn: {churn} connect+ping+close cycles = {churn_rate:.0}/s");

    server.stop();
    drop(store);
    if cleanup {
        let _ = std::fs::remove_dir_all(&dir);
    }

    tesla_bench::print_table(
        &format!("tesla-net: {connections} clients x {batch}-sample PUSHC over loopback"),
        &["metric", "value"],
        &[
            vec![
                "ingest written (M samples/s)".into(),
                format!("{:.2}", ingest_rate / 1e6),
            ],
            vec![
                "ingest acked (M samples/s)".into(),
                format!("{:.2}", acked_rate / 1e6),
            ],
            vec!["samples written".into(), format!("{written}")],
            vec!["samples dropped (drop-oldest)".into(), format!("{dropped}")],
            vec!["query p50 (µs)".into(), format!("{:.1}", q_p50 * 1e6)],
            vec!["query p99 (µs)".into(), format!("{:.1}", q_p99 * 1e6)],
            vec![
                "connection churn (conns/s)".into(),
                format!("{churn_rate:.0}"),
            ],
        ],
    );

    let mut failures = Vec::new();
    if !smoke {
        if ingest_rate < 1e6 {
            failures.push(format!(
                "end-to-end ingest {:.2}M samples/s is below the 1M floor",
                ingest_rate / 1e6
            ));
        }
        if dead > 0 {
            failures.push(format!("{dead} client connections died mid-flood"));
        }
    }
    if sent < acked {
        failures.push(format!("acked {acked} exceeds sent {sent}"));
    }

    for f in &failures {
        eprintln!("FAIL: {f}");
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
}

fn bench_dir() -> (std::path::PathBuf, bool) {
    let dir = arg_str("dir", "");
    if !dir.is_empty() {
        return (std::path::PathBuf::from(dir), false);
    }
    let dir = std::env::temp_dir().join(format!("tesla-net-bench-{}", std::process::id()));
    (dir, true)
}

/// Blocking query clients (threaded, sequential round-trips each)
/// measuring client-observed `QUERY LASTN` latency.
fn query_phase(
    addr: &str,
    queries: usize,
    threads: usize,
    procs: usize,
    conns_per_proc: usize,
) -> Vec<f64> {
    let per_thread = queries.div_ceil(threads);
    let rtts = std::sync::Mutex::new(Vec::with_capacity(queries));
    std::thread::scope(|scope| {
        for t in 0..threads {
            let rtts = &rtts;
            scope.spawn(move || {
                let stream = TcpStream::connect(addr).expect("query connect");
                let mut writer = stream.try_clone().expect("clone");
                let mut reader = BufReader::new(stream);
                let mut local = Vec::with_capacity(per_thread);
                let mut line = String::new();
                for i in 0..per_thread {
                    let k = t * per_thread + i;
                    let metric = format!(
                        "net.bench.p{}.c{}",
                        k % procs.max(1),
                        k % conns_per_proc.max(1)
                    );
                    let started = Instant::now();
                    writer
                        .write_all(format!("QUERY LASTN {metric} 64\n").as_bytes())
                        .expect("query write");
                    line.clear();
                    reader.read_line(&mut line).expect("query header");
                    let n: usize = line
                        .trim_end()
                        .strip_prefix("OK ")
                        .expect("OK header")
                        .parse()
                        .expect("sample count");
                    for _ in 0..n {
                        line.clear();
                        reader.read_line(&mut line).expect("query value");
                    }
                    local.push(started.elapsed().as_secs_f64());
                }
                rtts.lock().unwrap().extend(local);
            });
        }
    });
    rtts.into_inner().unwrap()
}

// ---------------------------------------------------------------------
// Client subprocess: nonblocking poll loop over its share of the
// connections, one PUSHC batch in flight per connection.
// ---------------------------------------------------------------------

struct ClientConn {
    stream: TcpStream,
    frame: Vec<u8>,
    cursor: usize,
    awaiting_ack: bool,
    ack_buf: Vec<u8>,
    metric: String,
    t_next: f64,
    acked: u64,
    sent: u64,
    dead: bool,
    /// Backpressure: earliest instant this connection may send again.
    resume_at: Instant,
}

impl ClientConn {
    /// Stages the next batch frame: header + shared pre-encoded body.
    fn arm(&mut self, batch: usize, body: &[u8]) {
        self.frame.clear();
        self.frame.extend_from_slice(
            format!("PUSHC {batch} {} {} 1\n", self.metric, self.t_next).as_bytes(),
        );
        self.frame.extend_from_slice(body);
        self.cursor = 0;
        self.t_next += batch as f64;
    }
}

/// Parses the queued-sample depth out of an `OK <n> q=<depth>` ack.
fn ack_queue_depth(line: &[u8]) -> u64 {
    let Some(pos) = line.windows(2).position(|w| w == b"q=") else {
        return 0;
    };
    line[pos + 2..]
        .iter()
        .take_while(|b| b.is_ascii_digit())
        .fold(0u64, |acc, &b| acc * 10 + (b - b'0') as u64)
}

fn client_main() {
    tesla_obs::set_enabled(false);
    let addr = arg_str("addr", "127.0.0.1:0");
    let conns = arg_f64("conns", 100.0) as usize;
    let batch = arg_f64("batch", 256.0) as usize;
    let per_line = arg_f64("per-line", 16.0) as usize;
    let seconds = arg_f64("seconds", 5.0);
    let proc_id = arg_f64("proc", 0.0) as usize;
    // Backpressure thresholds in queued samples, from the `q=` token
    // on every ack: beyond `lo` a connection pauses briefly before its
    // next batch, beyond `hi` it backs off harder. Pushing faster than
    // the writers drain would only feed the drop-oldest policy —
    // parsed work the server then throws away.
    let throttle_lo = arg_f64("throttle-lo", f64::MAX) as u64;
    let throttle_hi = arg_f64("throttle-hi", f64::MAX) as u64;

    // Shared batch body: `batch` plausible 0.1 °C-quantized readings,
    // `per_line` values per line. Encoded once; every frame reuses it.
    let mut body = Vec::new();
    for (i, chunk_start) in (0..batch).step_by(per_line).enumerate() {
        let vals: Vec<String> = (chunk_start..(chunk_start + per_line).min(batch))
            .map(|j| format!("{:.1}", 20.0 + ((i * 7 + j) % 80) as f64 * 0.1))
            .collect();
        body.extend_from_slice(vals.join(" ").as_bytes());
        body.push(b'\n');
    }

    let mut pool: Vec<ClientConn> = (0..conns)
        .map(|i| {
            // Stagger connects so the listener backlog never overflows.
            if i > 0 && i % 200 == 0 {
                std::thread::sleep(Duration::from_millis(5));
            }
            let stream = TcpStream::connect(&addr).expect("client connect");
            stream.set_nodelay(true).expect("nodelay");
            stream.set_nonblocking(true).expect("nonblocking");
            ClientConn {
                stream,
                frame: Vec::with_capacity(body.len() + 64),
                cursor: 0,
                awaiting_ack: false,
                ack_buf: Vec::with_capacity(64),
                metric: format!("net.bench.p{proc_id}.c{i}"),
                t_next: 0.0,
                acked: 0,
                sent: 0,
                dead: false,
                resume_at: Instant::now(),
            }
        })
        .collect();

    // Handshake: all connections up, wait for the coordinated start.
    println!("READY");
    use std::io::Write as _;
    std::io::stdout().flush().expect("flush READY");
    let mut go = String::new();
    std::io::stdin().read_line(&mut go).expect("await GO");

    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut read_buf = [0u8; 4096];
    loop {
        let now = Instant::now();
        let flooding = now < deadline;
        let mut progress = false;
        let mut in_flight = 0usize;
        for c in pool.iter_mut() {
            if c.dead {
                continue;
            }
            if c.awaiting_ack {
                in_flight += 1;
                match c.stream.read(&mut read_buf) {
                    Ok(0) => c.dead = true,
                    Ok(n) => {
                        progress = true;
                        c.ack_buf.extend_from_slice(&read_buf[..n]);
                        if let Some(pos) = c.ack_buf.iter().position(|&b| b == b'\n') {
                            if c.ack_buf.starts_with(b"OK") {
                                c.acked += batch as u64;
                                // Honor the explicit backpressure signal:
                                // "OK <n> q=<depth>".
                                let depth = ack_queue_depth(&c.ack_buf[..pos]);
                                // Pause lengths size the offered rate:
                                // conns × batch / pause. 10k conns of
                                // 256-sample batches at one batch per
                                // second offer ~2.6M samples/s.
                                if depth > throttle_hi {
                                    c.resume_at = now + Duration::from_millis(2000);
                                } else if depth > throttle_lo {
                                    c.resume_at = now + Duration::from_millis(700);
                                }
                            } else {
                                c.dead = true; // ERR: protocol fault, stop this conn
                            }
                            c.ack_buf.drain(..=pos);
                            c.awaiting_ack = false;
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                    Err(_) => c.dead = true,
                }
            }
            if !c.awaiting_ack && !c.dead {
                // Never start a frame we won't finish; always finish a
                // frame we started (a torn batch would poison framing).
                if c.cursor == c.frame.len() {
                    if !flooding || now < c.resume_at {
                        continue;
                    }
                    c.arm(batch, &body);
                }
                match c.stream.write(&c.frame[c.cursor..]) {
                    Ok(n) => {
                        progress = true;
                        c.cursor += n;
                        if c.cursor == c.frame.len() {
                            c.sent += batch as u64;
                            c.awaiting_ack = true;
                            in_flight += 1;
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                    Err(_) => c.dead = true,
                }
            }
        }
        if !flooding && in_flight == 0 {
            break;
        }
        if !flooding && now > deadline + Duration::from_secs(10) {
            break; // grace expired; report what was acked
        }
        if !progress {
            // Single-core box: parking hands the core to the server
            // instead of burning it on empty sweeps. Generous because
            // throttled connections spend whole seconds paused.
            std::thread::sleep(Duration::from_millis(3));
        }
    }

    let acked: u64 = pool.iter().map(|c| c.acked).sum();
    let sent: u64 = pool.iter().map(|c| c.sent).sum();
    let dead: u64 = pool.iter().filter(|c| c.dead).count() as u64;
    println!("STATS acked={acked} sent={sent} dead={dead}");
}
