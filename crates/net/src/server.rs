//! The TLP/1 server: reactor wiring, request dispatch, observability.
//!
//! [`NetServer::bind`] assembles the full serving path:
//!
//! ```text
//! clients ──► tesla-reactor shards ──► TlpHandler (parse + dispatch)
//!                                         │            │
//!                              PUSH/PUSHC ▼            ▼ QUERY/STATUS/…
//!                                   IngestQueue     MetricStore reads /
//!                                 (drop-oldest)     StatusBoard snapshot
//!                                         │
//!                                 writer thread ──► MetricStore::insert_runs
//!                                                   (WAL-backed historian)
//! ```
//!
//! Reactor threads never touch the WAL: `PUSH` handling ends at the
//! never-blocking [`IngestQueue`], and everything a handler reads
//! (historian shards, the status board) is lock-held only for copies.

use std::io::{self, Write as _};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use tesla_core::status::{StatusBoard, ZoneStatusRegistry};
use tesla_historian::MetricStore;
use tesla_obs::{counter, gauge, histogram};
use tesla_reactor::{Action, Handler, Hooks, Reactor, ReactorConfig};

use crate::ingest::{IngestPipeline, IngestQueue};
use crate::protocol::{
    encode_bytes_block, encode_err, encode_err_parts, encode_push_ok, encode_samples,
    encode_single_line, Event, Parser, Query, DEFAULT_MAX_BATCH_SAMPLES, DEFAULT_MAX_QUERY_SAMPLES,
    PROTOCOL_VERSION,
};

/// Sizing and policy knobs for a [`NetServer`].
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Event-loop configuration (shards, connection caps, buffers).
    pub reactor: ReactorConfig,
    /// Samples accepted per `PUSH`/`PUSHC` batch.
    pub max_batch_samples: usize,
    /// Samples a single `QUERY LASTN`/`QUERY RANGE` may return.
    pub max_query_samples: usize,
    /// Ingest queue bound, samples (drop-oldest beyond it).
    pub ingest_capacity_samples: usize,
    /// Threads draining the ingest queue into the store. Always 1: one
    /// writer stores each series' batches in push order (see
    /// [`crate::ingest`]), and binding with any other value fails with
    /// [`io::ErrorKind::InvalidInput`].
    pub writer_threads: usize,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            reactor: ReactorConfig::default(),
            max_batch_samples: DEFAULT_MAX_BATCH_SAMPLES,
            max_query_samples: DEFAULT_MAX_QUERY_SAMPLES,
            ingest_capacity_samples: 1 << 20,
            writer_threads: 1,
        }
    }
}

/// Reactor hooks that surface connection/byte traffic as
/// `tesla_net_*` metrics.
struct NetHooks {
    active: AtomicUsize,
}

impl Hooks for NetHooks {
    fn on_accept(&self) {
        counter!("tesla_net_connections_total").inc();
        let now = self.active.fetch_add(1, Ordering::Relaxed) + 1;
        gauge!("tesla_net_active_connections").set(now as f64);
    }

    fn on_conn_close(&self) {
        counter!("tesla_net_disconnects_total").inc();
        let now = self
            .active
            .fetch_sub(1, Ordering::Relaxed)
            .saturating_sub(1);
        gauge!("tesla_net_active_connections").set(now as f64);
    }

    fn on_rejected(&self) {
        counter!("tesla_net_rejected_connections_total").inc();
    }

    fn on_accept_retry(&self) {
        counter!("tesla_net_accept_retries_total").inc();
    }

    fn on_bytes_read(&self, n: usize) {
        counter!("tesla_net_bytes_read_total").add(n as u64);
    }

    fn on_bytes_written(&self, n: usize) {
        counter!("tesla_net_bytes_written_total").add(n as u64);
    }
}

/// Per-connection protocol driver: incremental parse, dispatch,
/// response encode. One lives inside each reactor connection.
struct TlpHandler {
    parser: Parser,
    queue: Arc<IngestQueue>,
    store: Arc<dyn MetricStore>,
    registry: Arc<ZoneStatusRegistry>,
    max_query_samples: usize,
    events: Vec<Event>,
}

impl TlpHandler {
    /// Answers one decoded request into `output`.
    fn respond(&mut self, event: Event, output: &mut Vec<u8>) {
        let started = Instant::now();
        counter!("tesla_net_requests_total").inc();
        match event {
            Event::Hello => {
                // Writing into a `Vec` cannot fail.
                let _ = writeln!(output, "OK tlp/{PROTOCOL_VERSION}");
            }
            Event::Ping => output.extend_from_slice(b"PONG\n"),
            Event::Push(batch) => {
                counter!("tesla_net_samples_ingested_total").add(batch.samples as u64);
                let outcome = self.queue.push(batch);
                if outcome.dropped > 0 {
                    counter!("tesla_net_samples_dropped_total").add(outcome.dropped as u64);
                }
                gauge!("tesla_net_ingest_queue_depth_samples").set(outcome.depth as f64);
                encode_push_ok(output, outcome.accepted, outcome.depth);
            }
            Event::Query(query) => match query {
                Query::Last(metric) => encode_samples(output, &self.store.last_n(&metric, 1)),
                Query::LastN(metric, n) => {
                    if n > self.max_query_samples {
                        encode_err_parts(output, 413, "query-too-large");
                    } else {
                        encode_samples(output, &self.store.last_n(&metric, n));
                    }
                }
                Query::Range(metric, t0, t1) => {
                    let values = self.store.range(&metric, t0, t1);
                    if values.len() > self.max_query_samples {
                        encode_err_parts(output, 413, "query-too-large");
                    } else {
                        encode_samples(output, &values);
                    }
                }
            },
            Event::Status(zone) => match self.registry.resolve(zone) {
                None => encode_err_parts(output, 404, "unknown-zone"),
                Some(board) => match board.snapshot() {
                    Some(snap) => encode_single_line(output, snap.to_json()),
                    None => encode_err_parts(output, 404, "status-unavailable"),
                },
            },
            Event::Setpoint(zone) => match self.registry.resolve(zone) {
                None => encode_err_parts(output, 404, "unknown-zone"),
                Some(board) => match board.snapshot() {
                    Some(snap) => encode_single_line(output, snap.setpoint.value()),
                    None => encode_err_parts(output, 404, "status-unavailable"),
                },
            },
            Event::Metrics => {
                let body = tesla_obs::export::render_prometheus(tesla_obs::global());
                encode_bytes_block(output, body.as_bytes());
            }
        }
        histogram!("tesla_net_request_seconds").observe_duration(started.elapsed());
    }
}

impl Handler for TlpHandler {
    fn on_bytes(&mut self, input: &mut Vec<u8>, output: &mut Vec<u8>) -> Action {
        loop {
            let fed = self.parser.feed(input, &mut self.events);
            // Requests decoded before any error must be answered first —
            // responses stay aligned with pipelined request order.
            let events = std::mem::take(&mut self.events);
            for event in events {
                self.respond(event, output);
            }
            match fed {
                Ok(()) => return Action::Continue,
                Err(err) => {
                    counter!("tesla_net_protocol_errors_total").inc();
                    encode_err(output, err);
                    if err.fatal() {
                        return Action::Close;
                    }
                    // Recoverable: the offending line is consumed;
                    // keep decoding what follows it.
                }
            }
        }
    }
}

/// A running TLP/1 service: reactor + ingest pipeline.
pub struct NetServer {
    reactor: Reactor,
    pipeline: Option<IngestPipeline>,
    queue: Arc<IngestQueue>,
}

impl NetServer {
    /// Binds `addr` and serves TLP/1 with `store` behind the ingest
    /// queue and `status` behind `STATUS`/`SETPOINT` (the single-zone
    /// deployment: zone-scoped requests all answer `unknown-zone`).
    pub fn bind(
        addr: &str,
        cfg: NetConfig,
        store: Arc<dyn MetricStore>,
        status: Arc<StatusBoard>,
    ) -> io::Result<NetServer> {
        NetServer::bind_with_zones(
            addr,
            cfg,
            store,
            Arc::new(ZoneStatusRegistry::with_site(status)),
        )
    }

    /// Binds `addr` and serves TLP/1 with a zone-addressable status
    /// surface: `STATUS`/`SETPOINT` hit the registry's site board,
    /// `STATUS z<i>`/`SETPOINT z<i>` the registered zone boards (a
    /// fleet registers one per [`tesla_units::ZoneId`]).
    pub fn bind_with_zones(
        addr: &str,
        cfg: NetConfig,
        store: Arc<dyn MetricStore>,
        registry: Arc<ZoneStatusRegistry>,
    ) -> io::Result<NetServer> {
        if cfg.writer_threads != 1 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "NetConfig::writer_threads must be 1: one writer keeps each series in push order",
            ));
        }
        let queue = Arc::new(IngestQueue::new(cfg.ingest_capacity_samples));
        let pipeline = IngestPipeline::spawn_writer(Arc::clone(&queue), Arc::clone(&store));
        let max_batch = cfg.max_batch_samples;
        let max_query = cfg.max_query_samples;
        let factory_queue = Arc::clone(&queue);
        let reactor = Reactor::bind(
            addr,
            cfg.reactor,
            Arc::new(move || {
                Box::new(TlpHandler {
                    parser: Parser::new(max_batch),
                    queue: Arc::clone(&factory_queue),
                    store: Arc::clone(&store),
                    registry: Arc::clone(&registry),
                    max_query_samples: max_query,
                    events: Vec::new(),
                }) as Box<dyn Handler>
            }),
            Arc::new(NetHooks {
                active: AtomicUsize::new(0),
            }),
        )?;
        Ok(NetServer {
            reactor,
            pipeline: Some(pipeline),
            queue,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.reactor.local_addr()
    }

    /// Connections currently open.
    pub fn connections(&self) -> usize {
        self.reactor.connections()
    }

    /// The ingest queue (depth/drop introspection for benches/tests).
    pub fn queue(&self) -> &Arc<IngestQueue> {
        &self.queue
    }

    /// Samples the writer thread has committed to the store so far.
    pub fn written_samples(&self) -> u64 {
        self.pipeline.as_ref().map_or(0, |p| p.written_samples())
    }

    /// Stops accepting, drops connections, drains the ingest queue
    /// into the store, and joins all threads.
    pub fn stop(mut self) {
        self.reactor.stop();
        if let Some(pipeline) = self.pipeline.take() {
            pipeline.shutdown();
        }
    }
}
