#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Dependency-free non-blocking TCP reactor.
//!
//! The workspace forbids `unsafe` and vendors no I/O crates, so the
//! classic `epoll`/`mio` readiness route is off the table. What works
//! instead — and is honest about its costs — is a *sharded poll-scan*
//! reactor: every accepted connection is set non-blocking and parked in
//! one of `shards` event loops; each loop sweeps its connections with
//! non-blocking `read`/`write` calls and hands complete bytes to a
//! per-connection [`Handler`]. A sweep that moves no bytes anywhere
//! sleeps before the next one, so an idle reactor costs ~zero CPU
//! while a saturated one never sleeps at all. The sleeps back off: the
//! empty sweeps after one that moved bytes (or took a connection)
//! sleep `idle_sleep / 16`, `/ 8`, `/ 4` and `/ 2`, and every later one
//! `idle_sleep`. A closed-loop client whose next request follows each
//! reply at once therefore waits about one short sleep per round trip,
//! and a shard quiet for about `idle_sleep` paces as a full sleep per
//! sweep.
//!
//! The trade against readiness APIs is an O(connections) sweep instead
//! of an O(ready) wake-up. For the workloads this repo serves —
//! telemetry floods where *most* sockets are hot, and scrape endpoints
//! with a handful of sockets — the sweep is either amortised by payload
//! or trivially cheap. See `docs/SERVICE.md` ("Capacity planning") and
//! `docs/PERFORMANCE.md` for the measured numbers.
//!
//! Contracts the event loop upholds (and the `no-blocking-io-in-reactor`
//! xtask lint plus the `ReactorShard::poll_once` analysis root enforce):
//!
//! * [`ReactorShard::poll_once`] and everything it calls — including
//!   every [`Handler::on_bytes`] implementation — performs **no
//!   blocking call**: no `read_exact`/`read_line`/`write_all`, no
//!   `flush`, no channel `recv`, no sleeps, no filesystem traffic.
//! * Writes are cursor-resumed: a partial write parks the remainder and
//!   the sweep retries next pass, never spinning on one socket.
//! * A connection whose input or output buffer exceeds
//!   [`ReactorConfig::max_buffer_bytes`] is closed: an input overrun
//!   means the handler refused to consume (protocol desync), an output
//!   overrun means the peer stopped draining (slow consumer).
//!
//! Accept-side transient errors (EMFILE & friends) retry on the shared
//! [`tesla_backoff::BackoffPolicy`] schedule, mirroring the historian
//! WAL and supervisor write paths.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

use tesla_backoff::BackoffPolicy;

/// What the handler wants done with the connection after a byte batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Keep the connection open.
    Continue,
    /// Flush any pending output, then close.
    Close,
}

/// Per-connection protocol state machine driven by the event loop.
///
/// Implementations must be *incremental*: `on_bytes` is called with
/// whatever bytes have arrived so far (possibly a torn frame) and must
/// drain what it can parse from `input` (removing consumed bytes),
/// append any response bytes to `output`, and return. It must never
/// block — the `no-blocking-io-in-reactor` lint patrols the source of
/// every handler living under `crates/reactor` or `crates/net`.
pub trait Handler: Send {
    /// Consumes parseable bytes from `input`, appends responses to
    /// `output`. Bytes left in `input` are presented again (with more
    /// appended) on the next call.
    fn on_bytes(&mut self, input: &mut Vec<u8>, output: &mut Vec<u8>) -> Action;

    /// Called exactly once when the connection is dropped (peer close,
    /// error, buffer overrun, or [`Action::Close`]).
    fn on_close(&mut self) {}
}

/// Observability taps for the reactor. All methods default to no-ops so
/// the reactor itself stays dependency-free; `tesla-net` and `tesla-obs`
/// wire these into their metric registries.
pub trait Hooks: Send + Sync {
    /// A connection was accepted and parked on a shard.
    fn on_accept(&self) {}
    /// A connection was dropped (any reason).
    fn on_conn_close(&self) {}
    /// A connection was refused because `max_connections` was reached.
    fn on_rejected(&self) {}
    /// The accept loop hit a transient error and scheduled a retry.
    fn on_accept_retry(&self) {}
    /// `n` bytes were read off a socket.
    fn on_bytes_read(&self, n: usize) {
        let _ = n;
    }
    /// `n` bytes were written to a socket.
    fn on_bytes_written(&self, n: usize) {
        let _ = n;
    }
}

/// The do-nothing [`Hooks`] implementation.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoHooks;

impl Hooks for NoHooks {}

/// Reactor sizing and policy knobs.
#[derive(Debug, Clone)]
pub struct ReactorConfig {
    /// Event-loop threads; connections are round-robined across them.
    pub shards: usize,
    /// Cap on concurrently open connections across all shards; accepts
    /// beyond it are closed immediately ([`Hooks::on_rejected`]).
    pub max_connections: usize,
    /// Per-direction, per-connection buffer cap; exceeding it closes
    /// the connection (input: protocol desync; output: slow consumer).
    pub max_buffer_bytes: usize,
    /// Bytes attempted per non-blocking `read` call.
    pub read_chunk_bytes: usize,
    /// Reads allowed per connection per sweep before yielding to the
    /// next connection (bounds how long one hot socket can hog a
    /// sweep).
    pub reads_per_sweep: usize,
    /// Sleep between sweeps that moved no bytes, once the shard has
    /// been quiet for about this long; the first empty sweeps after a
    /// busy one sleep `idle_sleep / 16` doubling up to it.
    pub idle_sleep: Duration,
    /// Idle-connection poll backoff, as a power-of-two exponent cap: a
    /// connection that moved no bytes for k consecutive sweeps is only
    /// re-polled every `2^min(k, cap)` sweeps. Without readiness
    /// notification a sweep costs one `read` syscall per connection, so
    /// on shards with tens of thousands of mostly-quiet connections
    /// cold peers would otherwise dominate the sweep and starve the
    /// threads doing real work (on small hosts, the historian writers).
    /// `0` disables the backoff.
    pub poll_backoff_cap: u32,
    /// Poll backoff only engages on shards holding at least this many
    /// connections; below it a full sweep is cheap and the extra
    /// latency would buy nothing.
    pub poll_backoff_min_conns: usize,
    /// Retry schedule for transient accept errors.
    pub accept_backoff: BackoffPolicy,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        ReactorConfig {
            shards: 1,
            max_connections: 16_384,
            max_buffer_bytes: 4 << 20,
            read_chunk_bytes: 64 << 10,
            reads_per_sweep: 4,
            idle_sleep: Duration::from_micros(500),
            poll_backoff_cap: 4,
            poll_backoff_min_conns: 64,
            accept_backoff: BackoffPolicy {
                base_ms: 50,
                factor: 2,
                max_delay_ms: 2_000,
                max_attempts: 5,
                jitter: 0.25,
                seed: 0x0EAC,
            },
        }
    }
}

/// One parked connection and its protocol state.
struct Conn {
    stream: TcpStream,
    handler: Box<dyn Handler>,
    input: Vec<u8>,
    output: Vec<u8>,
    /// Bytes of `output` already written to the socket.
    out_cursor: usize,
    /// Drop the connection once `output` drains.
    close_after_flush: bool,
    /// Consecutive sweeps in which this connection moved no bytes;
    /// drives the exponential poll backoff.
    idle_streak: u32,
}

/// One event-loop: a set of connections swept by [`poll_once`].
///
/// [`poll_once`]: ReactorShard::poll_once
pub struct ReactorShard {
    conns: Vec<Conn>,
    /// Handed fresh connections by the accept loop.
    inbox: Arc<Mutex<Vec<TcpStream>>>,
    factory: Arc<dyn Fn() -> Box<dyn Handler> + Send + Sync>,
    hooks: Arc<dyn Hooks>,
    conn_count: Arc<AtomicUsize>,
    scratch: Vec<u8>,
    max_buffer_bytes: usize,
    reads_per_sweep: usize,
    poll_backoff_cap: u32,
    poll_backoff_min_conns: usize,
    /// Sweep counter; phase reference for the poll backoff.
    tick: u64,
}

impl ReactorShard {
    /// Moves connections parked by the accept loop into the sweep set.
    /// Returns how many arrived.
    fn drain_inbox(&mut self) -> usize {
        let mut fresh = match self.inbox.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        let n = fresh.len();
        for stream in fresh.drain(..) {
            self.conns.push(Conn {
                stream,
                handler: (self.factory)(),
                input: Vec::new(),
                output: Vec::new(),
                out_cursor: 0,
                close_after_flush: false,
                idle_streak: 0,
            });
        }
        n
    }

    /// One non-blocking sweep over the parked connections: resume
    /// pending writes, then read and hand bytes to the handler. Returns
    /// `true` if any byte moved or any connection closed (callers use
    /// `false` to decide an idle sleep — *outside* this method, which
    /// must never block).
    ///
    /// On shards holding at least `poll_backoff_min_conns` connections,
    /// connections that moved nothing for k consecutive polls are only
    /// re-polled every `2^min(k, poll_backoff_cap)` sweeps (staggered
    /// by slot so cold cohorts spread across sweeps). A sweep costs one
    /// `read` syscall per polled connection, so without this a
    /// ten-thousand-connection shard of mostly-quiet telemetry agents
    /// spends its whole core discovering that nothing happened.
    pub fn poll_once(&mut self) -> bool {
        self.tick = self.tick.wrapping_add(1);
        let backoff_on =
            self.poll_backoff_cap > 0 && self.conns.len() >= self.poll_backoff_min_conns;
        let mut progress = false;
        let mut i = 0;
        while i < self.conns.len() {
            if backoff_on {
                let conn = &self.conns[i];
                let streak = conn.idle_streak.min(self.poll_backoff_cap);
                // Connections owing bytes (pending write / deferred
                // close) are always due: their progress depends on the
                // peer draining, not on new input arriving.
                let owes = conn.out_cursor < conn.output.len() || conn.close_after_flush;
                let due = streak == 0
                    || owes
                    || self.tick.wrapping_add(i as u64) & ((1u64 << streak) - 1) == 0;
                if !due {
                    i += 1;
                    continue;
                }
            }
            match self.sweep_conn(i) {
                SweepOutcome::Keep { moved } => {
                    let conn = &mut self.conns[i];
                    conn.idle_streak = if moved {
                        0
                    } else {
                        conn.idle_streak.saturating_add(1)
                    };
                    progress |= moved;
                    i += 1;
                }
                SweepOutcome::Drop => {
                    let mut conn = self.conns.swap_remove(i);
                    conn.handler.on_close();
                    self.hooks.on_conn_close();
                    self.conn_count.fetch_sub(1, Ordering::Relaxed);
                    progress = true;
                }
            }
        }
        progress
    }

    /// Services connection `i` for one sweep.
    fn sweep_conn(&mut self, i: usize) -> SweepOutcome {
        let mut moved = false;

        // Resume a pending write first: until the peer drains what we
        // already owe it, reading more requests would only grow the
        // debt.
        if self.conns[i].out_cursor < self.conns[i].output.len() {
            let conn = &mut self.conns[i];
            match conn.stream.write(&conn.output[conn.out_cursor..]) {
                Ok(0) => return SweepOutcome::Drop,
                Ok(n) => {
                    conn.out_cursor += n;
                    moved = true;
                    self.hooks.on_bytes_written(n);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return SweepOutcome::Drop,
            }
            let conn = &mut self.conns[i];
            if conn.out_cursor >= conn.output.len() {
                conn.output.clear();
                conn.out_cursor = 0;
            } else {
                // Still back-pressured: don't read more work for a
                // connection that can't take answers, and close it if
                // the debt has grown past the cap.
                if conn.output.len() - conn.out_cursor > self.max_buffer_bytes {
                    return SweepOutcome::Drop;
                }
                return SweepOutcome::Keep { moved };
            }
        }
        if self.conns[i].close_after_flush {
            return SweepOutcome::Drop;
        }

        // Read whatever is ready, up to `reads_per_sweep` chunks.
        let mut got_bytes = false;
        for _ in 0..self.reads_per_sweep.max(1) {
            let conn = &mut self.conns[i];
            match conn.stream.read(&mut self.scratch) {
                Ok(0) => return SweepOutcome::Drop,
                Ok(n) => {
                    conn.input.extend_from_slice(&self.scratch[..n]);
                    got_bytes = true;
                    moved = true;
                    self.hooks.on_bytes_read(n);
                    if n < self.scratch.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => break,
                Err(_) => return SweepOutcome::Drop,
            }
        }

        if got_bytes {
            let conn = &mut self.conns[i];
            let action = conn.handler.on_bytes(&mut conn.input, &mut conn.output);
            if conn.input.len() > self.max_buffer_bytes {
                // The handler left more than a full buffer unconsumed:
                // the stream can no longer be framed.
                return SweepOutcome::Drop;
            }
            match action {
                Action::Continue => {}
                Action::Close => {
                    if conn.out_cursor >= conn.output.len() {
                        return SweepOutcome::Drop;
                    }
                    conn.close_after_flush = true;
                }
            }
            // Push the fresh response bytes without waiting for the
            // next sweep; most responses fit the socket buffer whole.
            let conn = &mut self.conns[i];
            if conn.out_cursor < conn.output.len() {
                match conn.stream.write(&conn.output[conn.out_cursor..]) {
                    Ok(0) => return SweepOutcome::Drop,
                    Ok(n) => {
                        conn.out_cursor += n;
                        self.hooks.on_bytes_written(n);
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => return SweepOutcome::Drop,
                }
                let conn = &mut self.conns[i];
                if conn.out_cursor >= conn.output.len() {
                    conn.output.clear();
                    conn.out_cursor = 0;
                    if conn.close_after_flush {
                        return SweepOutcome::Drop;
                    }
                }
            }
        }
        SweepOutcome::Keep { moved }
    }

    /// Number of connections currently parked on this shard.
    pub fn len(&self) -> usize {
        self.conns.len()
    }

    /// Whether the shard has no connections.
    pub fn is_empty(&self) -> bool {
        self.conns.is_empty()
    }

    /// The shard's event loop: drain the inbox, sweep, sleep when idle,
    /// backing the sleep off after a busy sweep (see [`idle_backoff`]).
    ///
    /// Named `event_loop` rather than `run` so the name-based call graph
    /// in tesla-analysis does not alias it with `BackoffPolicy::run`.
    fn event_loop(&mut self, stop: &AtomicBool, idle_sleep: Duration) {
        // Empty sweeps since the last busy one; a fresh shard starts
        // quiet, at the full sleep.
        let mut quiet_sweeps = IDLE_BACKOFF_STEPS;
        while !stop.load(Ordering::Acquire) {
            let fresh = self.drain_inbox();
            let progress = self.poll_once();
            if fresh > 0 || progress {
                quiet_sweeps = 0;
            } else {
                let pause = idle_backoff(idle_sleep, quiet_sweeps);
                quiet_sweeps = quiet_sweeps.saturating_add(1);
                // The idle sleep only runs when every connection on this
                // `reactor-shard-*` thread is quiet; it is the shard's pacing.
                // lint:allow(no-blocking-io-in-reactor): idle shard pacing
                thread::sleep(pause);
            }
        }
        // Drop remaining connections cleanly so close hooks fire.
        for mut conn in self.conns.drain(..) {
            conn.handler.on_close();
            self.hooks.on_conn_close();
            self.conn_count.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

/// Empty sweeps after a busy one that sleep less than `idle_sleep`.
const IDLE_BACKOFF_STEPS: u32 = 4;

/// The sleep after the `quiet_sweeps`-th consecutive empty sweep
/// (counting from 0) since the last sweep that moved bytes or accepted
/// a connection: `idle_sleep / 16`, `/ 8`, `/ 4`, `/ 2`, then
/// `idle_sleep` from there on. The four short sleeps sum to 15/16 of
/// `idle_sleep`, so a shard that has been quiet for about `idle_sleep`
/// sweeps and sleeps as one without the backoff does.
fn idle_backoff(idle_sleep: Duration, quiet_sweeps: u32) -> Duration {
    idle_sleep / (1 << IDLE_BACKOFF_STEPS.saturating_sub(quiet_sweeps))
}

/// Outcome of sweeping a single connection.
enum SweepOutcome {
    /// Keep the connection; `moved` reports whether bytes flowed.
    Keep {
        /// Whether this sweep moved any bytes for the connection.
        moved: bool,
    },
    /// Close and forget the connection.
    Drop,
}

/// A running reactor: one accept thread plus `shards` event-loop
/// threads. Dropping without [`Reactor::stop`] also shuts it down.
#[derive(Debug)]
pub struct Reactor {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    threads: Vec<thread::JoinHandle<()>>,
    conn_count: Arc<AtomicUsize>,
}

impl Reactor {
    /// Binds `addr`, spawns the accept loop and shard event loops, and
    /// serves each connection with a fresh handler from `factory`.
    pub fn bind(
        addr: &str,
        cfg: ReactorConfig,
        factory: Arc<dyn Fn() -> Box<dyn Handler> + Send + Sync>,
        hooks: Arc<dyn Hooks>,
    ) -> std::io::Result<Reactor> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let conn_count = Arc::new(AtomicUsize::new(0));
        let shards = cfg.shards.max(1);

        let mut inboxes = Vec::with_capacity(shards);
        let mut threads = Vec::with_capacity(shards + 1);
        for s in 0..shards {
            let inbox: Arc<Mutex<Vec<TcpStream>>> = Arc::new(Mutex::new(Vec::new()));
            inboxes.push(Arc::clone(&inbox));
            let mut shard = ReactorShard {
                conns: Vec::new(),
                inbox,
                factory: Arc::clone(&factory),
                hooks: Arc::clone(&hooks),
                conn_count: Arc::clone(&conn_count),
                scratch: vec![0u8; cfg.read_chunk_bytes.max(1)],
                max_buffer_bytes: cfg.max_buffer_bytes.max(1),
                reads_per_sweep: cfg.reads_per_sweep,
                poll_backoff_cap: cfg.poll_backoff_cap,
                poll_backoff_min_conns: cfg.poll_backoff_min_conns,
                tick: 0,
            };
            let stop_flag = Arc::clone(&stop);
            let idle = cfg.idle_sleep;
            threads.push(
                thread::Builder::new()
                    .name(format!("reactor-shard-{s}"))
                    .spawn(move || shard.event_loop(&stop_flag, idle))
                    .expect("spawn reactor shard"),
            );
        }

        let stop_flag = Arc::clone(&stop);
        let count = Arc::clone(&conn_count);
        let accept_hooks = Arc::clone(&hooks);
        threads.push(
            thread::Builder::new()
                .name("reactor-accept".into())
                .spawn(move || accept_loop(listener, cfg, inboxes, count, accept_hooks, stop_flag))
                .expect("spawn reactor accept loop"),
        );

        Ok(Reactor {
            local_addr,
            stop,
            threads,
            conn_count,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Connections currently open across all shards.
    pub fn connections(&self) -> usize {
        self.conn_count.load(Ordering::Relaxed)
    }

    /// Stops the accept loop and shard threads and joins them.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        for t in self.threads.drain(..) {
            // Shutdown runs on the caller's thread and joins the
            // `reactor-accept` and `reactor-shard-*` threads.
            // lint:allow(no-blocking-io-in-reactor): caller-thread shutdown join
            let _ = t.join();
        }
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Accepts connections, sets them non-blocking, and round-robins them
/// across shard inboxes; transient accept errors retry on `backoff`.
fn accept_loop(
    listener: TcpListener,
    cfg: ReactorConfig,
    inboxes: Vec<Arc<Mutex<Vec<TcpStream>>>>,
    conn_count: Arc<AtomicUsize>,
    hooks: Arc<dyn Hooks>,
    stop: Arc<AtomicBool>,
) {
    let mut next_shard = 0usize;
    let mut attempt: u32 = 0;
    while !stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                attempt = 0;
                if conn_count.load(Ordering::Relaxed) >= cfg.max_connections {
                    hooks.on_rejected();
                    drop(stream);
                    continue;
                }
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let _ = stream.set_nodelay(true);
                conn_count.fetch_add(1, Ordering::Relaxed);
                {
                    let mut inbox = match inboxes[next_shard].lock() {
                        Ok(g) => g,
                        Err(p) => p.into_inner(),
                    };
                    inbox.push(stream);
                }
                hooks.on_accept();
                next_shard = (next_shard + 1) % inboxes.len();
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                // The dedicated `reactor-accept` thread owns no connections;
                // sleeping here paces accept polling without stalling a shard.
                // lint:allow(no-blocking-io-in-reactor): accept-thread pacing
                thread::sleep(cfg.idle_sleep.max(Duration::from_micros(200)));
            }
            Err(_) => {
                // Transient accept failure (e.g. EMFILE): back off on
                // the shared schedule rather than spinning.
                attempt = (attempt + 1).min(cfg.accept_backoff.max_attempts.max(1));
                hooks.on_accept_retry();
                // lint:allow(no-blocking-io-in-reactor): backoff on the dedicated `reactor-accept` thread
                thread::sleep(Duration::from_millis(
                    cfg.accept_backoff.delay_ms(attempt).max(1),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use std::net::TcpStream;
    use std::sync::atomic::AtomicU64;

    /// Echoes complete lines back, uppercased.
    struct UpperEcho;

    impl Handler for UpperEcho {
        fn on_bytes(&mut self, input: &mut Vec<u8>, output: &mut Vec<u8>) -> Action {
            while let Some(pos) = input.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = input.drain(..=pos).collect();
                output.extend(line.iter().map(|b| b.to_ascii_uppercase()));
            }
            Action::Continue
        }
    }

    fn bind_echo(cfg: ReactorConfig) -> Reactor {
        Reactor::bind(
            "127.0.0.1:0",
            cfg,
            Arc::new(|| Box::new(UpperEcho) as Box<dyn Handler>),
            Arc::new(NoHooks),
        )
        .expect("bind reactor")
    }

    #[test]
    fn echoes_lines() {
        let r = bind_echo(ReactorConfig::default());
        let mut c = TcpStream::connect(r.local_addr()).unwrap();
        c.write_all(b"hello\n").unwrap();
        let mut reader = BufReader::new(c.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line, "HELLO\n");
        r.stop();
    }

    #[test]
    fn interleaves_many_clients_without_head_of_line_blocking() {
        let r = bind_echo(ReactorConfig {
            shards: 2,
            ..ReactorConfig::default()
        });
        // Open a batch of clients; the *first* one never sends anything
        // (a stalled client must not stall the rest).
        let stalled = TcpStream::connect(r.local_addr()).unwrap();
        let mut clients: Vec<TcpStream> = (0..32)
            .map(|_| TcpStream::connect(r.local_addr()).unwrap())
            .collect();
        for (i, c) in clients.iter_mut().enumerate() {
            c.write_all(format!("msg-{i}\n").as_bytes()).unwrap();
        }
        for (i, c) in clients.iter_mut().enumerate() {
            let mut reader = BufReader::new(c.try_clone().unwrap());
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert_eq!(line, format!("MSG-{i}\n"));
        }
        drop(stalled);
        r.stop();
    }

    #[test]
    fn cold_connections_still_serviced_under_poll_backoff() {
        // Force the idle-poll backoff on even at this tiny scale, with
        // the deepest allowed cold interval.
        let r = bind_echo(ReactorConfig {
            poll_backoff_min_conns: 1,
            poll_backoff_cap: 6,
            ..ReactorConfig::default()
        });
        let mut clients: Vec<TcpStream> = (0..16)
            .map(|_| TcpStream::connect(r.local_addr()).unwrap())
            .collect();
        for round in 0..3 {
            // Let every connection go cold (idle streaks build up far
            // past the cap), then demand service from all of them.
            std::thread::sleep(Duration::from_millis(60));
            for (i, c) in clients.iter_mut().enumerate() {
                c.write_all(format!("cold-{round}-{i}\n").as_bytes())
                    .unwrap();
            }
            for (i, c) in clients.iter_mut().enumerate() {
                c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
                let mut reader = BufReader::new(c.try_clone().unwrap());
                let mut line = String::new();
                reader.read_line(&mut line).unwrap();
                assert_eq!(line, format!("COLD-{round}-{i}\n"));
            }
        }
        r.stop();
    }

    #[test]
    fn idle_sleep_backs_off_from_a_sixteenth() {
        let full = Duration::from_micros(800);
        let sleeps: Vec<u128> = (0..7).map(|k| idle_backoff(full, k).as_micros()).collect();
        assert_eq!(sleeps, vec![50, 100, 200, 400, 800, 800, 800]);
        assert_eq!(idle_backoff(full, u32::MAX), full);
    }

    #[test]
    fn closed_loop_round_trips_wait_a_short_sleep_not_a_full_one() {
        // With a 100 ms idle sleep, a shard that slept the full sleep
        // after every reply would take about 1 s for ten round trips.
        let r = bind_echo(ReactorConfig {
            idle_sleep: Duration::from_millis(100),
            ..ReactorConfig::default()
        });
        let mut c = TcpStream::connect(r.local_addr()).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut reader = BufReader::new(c.try_clone().unwrap());
        let mut line = String::new();
        // One round trip first, so the connection is parked on a shard.
        c.write_all(b"warm\n").unwrap();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line, "WARM\n");
        let started = std::time::Instant::now();
        for i in 0..10 {
            c.write_all(format!("rt-{i}\n").as_bytes()).unwrap();
            line.clear();
            reader.read_line(&mut line).unwrap();
            assert_eq!(line, format!("RT-{i}\n"));
        }
        let took = started.elapsed();
        assert!(
            took < Duration::from_millis(500),
            "ten round trips took {took:?}"
        );
        r.stop();
    }

    #[test]
    fn torn_frames_reassemble_across_sweeps() {
        let r = bind_echo(ReactorConfig::default());
        let mut c = TcpStream::connect(r.local_addr()).unwrap();
        c.write_all(b"par").unwrap();
        std::thread::sleep(Duration::from_millis(20));
        c.write_all(b"tial\n").unwrap();
        let mut reader = BufReader::new(c.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line, "PARTIAL\n");
        r.stop();
    }

    #[test]
    fn connection_cap_rejects_excess_clients() {
        struct CountingHooks {
            rejected: AtomicU64,
        }
        impl Hooks for CountingHooks {
            fn on_rejected(&self) {
                self.rejected.fetch_add(1, Ordering::Relaxed);
            }
        }
        let hooks = Arc::new(CountingHooks {
            rejected: AtomicU64::new(0),
        });
        let r = Reactor::bind(
            "127.0.0.1:0",
            ReactorConfig {
                max_connections: 2,
                ..ReactorConfig::default()
            },
            Arc::new(|| Box::new(UpperEcho) as Box<dyn Handler>),
            Arc::clone(&hooks) as Arc<dyn Hooks>,
        )
        .unwrap();
        let keep: Vec<TcpStream> = (0..2)
            .map(|_| {
                let mut c = TcpStream::connect(r.local_addr()).unwrap();
                // Prove each is parked before opening the next.
                c.write_all(b"x\n").unwrap();
                let mut reader = BufReader::new(c.try_clone().unwrap());
                let mut line = String::new();
                reader.read_line(&mut line).unwrap();
                c
            })
            .collect();
        // The third connection must be dropped by the server: either the
        // connect fails outright or the socket reads EOF immediately.
        let mut extra = TcpStream::connect(r.local_addr()).unwrap();
        extra
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut buf = [0u8; 1];
        let eof = matches!(extra.read(&mut buf), Ok(0));
        assert!(eof, "connection over the cap should be closed");
        assert!(hooks.rejected.load(Ordering::Relaxed) >= 1);
        drop(keep);
        r.stop();
    }

    #[test]
    fn close_action_flushes_then_closes() {
        struct OneShot;
        impl Handler for OneShot {
            fn on_bytes(&mut self, input: &mut Vec<u8>, output: &mut Vec<u8>) -> Action {
                input.clear();
                output.extend_from_slice(b"BYE\n");
                Action::Close
            }
        }
        let r = Reactor::bind(
            "127.0.0.1:0",
            ReactorConfig::default(),
            Arc::new(|| Box::new(OneShot) as Box<dyn Handler>),
            Arc::new(NoHooks),
        )
        .unwrap();
        let mut c = TcpStream::connect(r.local_addr()).unwrap();
        c.write_all(b"anything\n").unwrap();
        let mut reader = BufReader::new(c.try_clone().unwrap());
        let mut all = String::new();
        reader.read_to_string(&mut all).unwrap(); // EOF == closed
        assert_eq!(all, "BYE\n");
        r.stop();
    }
}
