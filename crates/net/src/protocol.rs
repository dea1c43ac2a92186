//! TLP/1 — the TESLA line protocol.
//!
//! Newline-delimited, pipelined, text protocol; the normative
//! specification (grammar, framing, error codes, versioning) lives in
//! `docs/SERVICE.md` and its examples are replayed against a live
//! server by `tests/service_doc.rs`. This module is the wire codec:
//! an incremental, allocation-conscious [`Parser`] that turns raw bytes
//! into [`Event`]s, and the response encoders the server writes with.
//!
//! The parser is *incremental*: [`Parser::feed`] consumes whatever
//! complete lines `input` holds (leaving a torn trailing line in
//! place), so the reactor can hand it bytes exactly as they arrive off
//! a socket. Errors split into recoverable command errors (the
//! connection stays usable) and framing errors (`fatal()`), after
//! which the stream can no longer be trusted and must close — the
//! distinction every framing decision in `docs/SERVICE.md` hangs off.

use std::io::Write as _;

use tesla_units::ZoneId;

/// Protocol version this build speaks (the `HELLO tlp/<n>` token).
pub const PROTOCOL_VERSION: u32 = 1;

/// Hard cap on a single protocol line, bytes, excluding the newline.
/// A longer line is a framing error: the sender has lost the plot (or
/// was never speaking TLP) and resynchronisation is impossible.
pub const MAX_LINE_BYTES: usize = 4096;

/// Longest accepted metric name, bytes.
pub const MAX_METRIC_BYTES: usize = 128;

/// Default cap on samples per `PUSH`/`PUSHC` batch.
pub const DEFAULT_MAX_BATCH_SAMPLES: usize = 4096;

/// Default cap on `QUERY LASTN` / `QUERY RANGE` response samples.
pub const DEFAULT_MAX_QUERY_SAMPLES: usize = 65_536;

/// A parsed telemetry batch: consecutive same-metric samples are
/// grouped into runs, which is exactly the shape
/// `tesla_historian::MetricStore::insert_runs` drains.
#[derive(Debug, Clone, PartialEq)]
pub struct Batch {
    /// `(metric, time-ordered samples)` runs, in arrival order.
    pub runs: Vec<(String, Vec<(f64, f64)>)>,
    /// Total samples across all runs.
    pub samples: usize,
}

/// A historian read request.
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// Latest sample of a metric.
    Last(String),
    /// Latest `n` samples, oldest first.
    LastN(String, usize),
    /// Samples with `t0 <= time < t1`, oldest first.
    Range(String, f64, f64),
}

/// One complete request decoded off the wire.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// `HELLO tlp/<v>` with a version we speak.
    Hello,
    /// `PING` liveness probe.
    Ping,
    /// A completed `PUSH`/`PUSHC` batch.
    Push(Batch),
    /// A `QUERY …` read.
    Query(Query),
    /// `STATUS [zone]` — supervisor snapshot as JSON; `None` is the
    /// site-level board, `Some(z)` a fleet zone's board.
    Status(Option<ZoneId>),
    /// `SETPOINT [zone]` — executed set-point readback, zone-scoped
    /// like [`Event::Status`].
    Setpoint(Option<ZoneId>),
    /// `METRICS` — Prometheus exposition of the server's own metrics.
    Metrics,
}

/// Everything that can go wrong decoding a request.
///
/// `code()`/`slug()` are the wire form (`ERR <code> <slug>`); `fatal()`
/// says whether framing is lost and the connection must close.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolError {
    /// First token of a request line is not a known command.
    UnknownCommand,
    /// Known command, unusable arguments (wrong count, bad number,
    /// zero-length batch, over-cap query size…).
    BadArgument,
    /// `HELLO` named a protocol version this build does not speak.
    UnsupportedVersion,
    /// A sample or value line inside a batch failed to parse — the
    /// batch byte stream can no longer be framed. Fatal.
    MalformedSample,
    /// A line exceeded [`MAX_LINE_BYTES`]. Fatal.
    LineTooLong,
    /// A `PUSH`/`PUSHC` header announced more samples than the server
    /// accepts per batch. Fatal (the oversized body is already in
    /// flight behind the header).
    BatchTooLarge,
}

impl ProtocolError {
    /// Numeric wire code (HTTP-flavoured for operator familiarity).
    pub fn code(&self) -> u16 {
        match self {
            ProtocolError::UnknownCommand => 400,
            ProtocolError::BadArgument => 400,
            ProtocolError::UnsupportedVersion => 505,
            ProtocolError::MalformedSample => 422,
            ProtocolError::LineTooLong => 431,
            ProtocolError::BatchTooLarge => 413,
        }
    }

    /// Stable machine-readable slug (the second `ERR` token).
    pub fn slug(&self) -> &'static str {
        match self {
            ProtocolError::UnknownCommand => "unknown-command",
            ProtocolError::BadArgument => "bad-argument",
            ProtocolError::UnsupportedVersion => "unsupported-version",
            ProtocolError::MalformedSample => "malformed-sample",
            ProtocolError::LineTooLong => "line-too-long",
            ProtocolError::BatchTooLarge => "batch-too-large",
        }
    }

    /// Whether the error desynchronises framing (connection must
    /// close after the `ERR` line is flushed).
    pub fn fatal(&self) -> bool {
        matches!(
            self,
            ProtocolError::MalformedSample
                | ProtocolError::LineTooLong
                | ProtocolError::BatchTooLarge
        )
    }
}

/// Is `name` a legal metric name? (`[A-Za-z0-9_.:-]`, 1..=128 bytes —
/// the same alphabet the historian and Prometheus exposition accept.)
pub fn valid_metric(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= MAX_METRIC_BYTES
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b':' | b'-'))
}

/// Parser state across `feed` calls.
#[derive(Debug)]
enum State {
    /// Expecting a request line.
    Idle,
    /// Inside a `PUSH <n>` body: `remaining` sample lines to go.
    Push {
        remaining: usize,
        runs: Vec<(String, Vec<(f64, f64)>)>,
        samples: usize,
    },
    /// Inside a `PUSHC <n> <metric> <t0> <dt>` body: `remaining`
    /// values to go, next value stamped `t_next`.
    PushC {
        metric: String,
        remaining: usize,
        t_next: f64,
        dt: f64,
        samples: Vec<(f64, f64)>,
    },
}

/// Incremental TLP/1 request decoder.
#[derive(Debug)]
pub struct Parser {
    state: State,
    max_batch_samples: usize,
}

impl Default for Parser {
    fn default() -> Self {
        Parser::new(DEFAULT_MAX_BATCH_SAMPLES)
    }
}

impl Parser {
    /// A parser enforcing `max_batch_samples` per `PUSH`/`PUSHC`.
    pub fn new(max_batch_samples: usize) -> Self {
        Parser {
            state: State::Idle,
            max_batch_samples: max_batch_samples.max(1),
        }
    }

    /// Consumes every complete line in `input`, appending decoded
    /// requests to `events`. A trailing torn line stays in `input` for
    /// the next call. On error the consumed prefix stays consumed;
    /// when `fatal()` the caller must close after flushing the `ERR`.
    pub fn feed(
        &mut self,
        input: &mut Vec<u8>,
        events: &mut Vec<Event>,
    ) -> Result<(), ProtocolError> {
        let mut consumed = 0;
        let result = self.feed_inner(input, &mut consumed, events);
        if consumed > 0 {
            input.drain(..consumed);
        }
        result
    }

    fn feed_inner(
        &mut self,
        input: &[u8],
        consumed: &mut usize,
        events: &mut Vec<Event>,
    ) -> Result<(), ProtocolError> {
        loop {
            let rest = &input[*consumed..];
            let Some(nl) = rest.iter().position(|&b| b == b'\n') else {
                // Torn line: wait for more bytes — unless it is already
                // too long to ever be a legal line.
                if rest.len() > MAX_LINE_BYTES {
                    return Err(ProtocolError::LineTooLong);
                }
                return Ok(());
            };
            if nl > MAX_LINE_BYTES {
                return Err(ProtocolError::LineTooLong);
            }
            let mut line = &rest[..nl];
            if line.last() == Some(&b'\r') {
                line = &line[..line.len() - 1];
            }
            *consumed += nl + 1;
            self.take_line(line, events)?;
        }
    }

    /// Decodes one complete line in the current state.
    fn take_line(&mut self, line: &[u8], events: &mut Vec<Event>) -> Result<(), ProtocolError> {
        match &mut self.state {
            State::Idle => {
                if line.is_empty() {
                    return Ok(()); // bare keep-alive newline
                }
                let line = std::str::from_utf8(line).map_err(|_| ProtocolError::UnknownCommand)?;
                self.take_request_line(line, events)
            }
            State::Push {
                remaining,
                runs,
                samples,
            } => {
                let line = std::str::from_utf8(line).map_err(|_| ProtocolError::MalformedSample)?;
                let mut it = line.split_ascii_whitespace();
                let (Some(metric), Some(t), Some(v), None) =
                    (it.next(), it.next(), it.next(), it.next())
                else {
                    return Err(ProtocolError::MalformedSample);
                };
                if !valid_metric(metric) {
                    return Err(ProtocolError::MalformedSample);
                }
                let t = parse_finite(t.as_bytes()).ok_or(ProtocolError::MalformedSample)?;
                let v = parse_finite(v.as_bytes()).ok_or(ProtocolError::MalformedSample)?;
                match runs.last_mut() {
                    Some((m, run)) if m == metric => run.push((t, v)),
                    _ => runs.push((metric.to_string(), vec![(t, v)])),
                }
                *samples += 1;
                *remaining -= 1;
                if *remaining == 0 {
                    let batch = Batch {
                        runs: std::mem::take(runs),
                        samples: *samples,
                    };
                    self.state = State::Idle;
                    events.push(Event::Push(batch));
                }
                Ok(())
            }
            State::PushC {
                metric,
                remaining,
                t_next,
                dt,
                samples,
            } => {
                for value in Numbers::new(line) {
                    if *remaining == 0 {
                        return Err(ProtocolError::MalformedSample); // extra values
                    }
                    let v = value.ok_or(ProtocolError::MalformedSample)?;
                    samples.push((*t_next, v));
                    *t_next += *dt;
                    *remaining -= 1;
                }
                if *remaining == 0 {
                    let n = samples.len();
                    let batch = Batch {
                        runs: vec![(std::mem::take(metric), std::mem::take(samples))],
                        samples: n,
                    };
                    self.state = State::Idle;
                    events.push(Event::Push(batch));
                }
                Ok(())
            }
        }
    }

    /// Decodes a request line (parser in `Idle`).
    fn take_request_line(
        &mut self,
        line: &str,
        events: &mut Vec<Event>,
    ) -> Result<(), ProtocolError> {
        let mut it = line.split_ascii_whitespace();
        let cmd = it.next().ok_or(ProtocolError::UnknownCommand)?;
        match cmd {
            "HELLO" => {
                let (Some(ver), None) = (it.next(), it.next()) else {
                    return Err(ProtocolError::BadArgument);
                };
                let Some(num) = ver.strip_prefix("tlp/") else {
                    return Err(ProtocolError::BadArgument);
                };
                match num.parse::<u32>() {
                    Ok(v) if v == PROTOCOL_VERSION => {
                        events.push(Event::Hello);
                        Ok(())
                    }
                    Ok(_) => Err(ProtocolError::UnsupportedVersion),
                    Err(_) => Err(ProtocolError::BadArgument),
                }
            }
            "PING" => match it.next() {
                None => {
                    events.push(Event::Ping);
                    Ok(())
                }
                Some(_) => Err(ProtocolError::BadArgument),
            },
            "PUSH" => {
                let (Some(n), None) = (it.next(), it.next()) else {
                    return Err(ProtocolError::BadArgument);
                };
                let n: usize = n.parse().map_err(|_| ProtocolError::BadArgument)?;
                if n == 0 {
                    return Err(ProtocolError::BadArgument);
                }
                if n > self.max_batch_samples {
                    return Err(ProtocolError::BatchTooLarge);
                }
                self.state = State::Push {
                    remaining: n,
                    runs: Vec::new(),
                    samples: 0,
                };
                Ok(())
            }
            "PUSHC" => {
                let (Some(n), Some(metric), Some(t0), Some(dt), None) =
                    (it.next(), it.next(), it.next(), it.next(), it.next())
                else {
                    return Err(ProtocolError::BadArgument);
                };
                let n: usize = n.parse().map_err(|_| ProtocolError::BadArgument)?;
                if n == 0 || !valid_metric(metric) {
                    return Err(ProtocolError::BadArgument);
                }
                if n > self.max_batch_samples {
                    return Err(ProtocolError::BatchTooLarge);
                }
                let t0 = parse_finite(t0.as_bytes()).ok_or(ProtocolError::BadArgument)?;
                let dt = parse_finite(dt.as_bytes()).ok_or(ProtocolError::BadArgument)?;
                if dt < 0.0 {
                    return Err(ProtocolError::BadArgument);
                }
                self.state = State::PushC {
                    metric: metric.to_string(),
                    remaining: n,
                    t_next: t0,
                    dt,
                    samples: Vec::with_capacity(n),
                };
                Ok(())
            }
            "QUERY" => {
                let kind = it.next().ok_or(ProtocolError::BadArgument)?;
                let metric = it.next().ok_or(ProtocolError::BadArgument)?;
                if !valid_metric(metric) {
                    return Err(ProtocolError::BadArgument);
                }
                let query = match kind {
                    "LAST" => {
                        if it.next().is_some() {
                            return Err(ProtocolError::BadArgument);
                        }
                        Query::Last(metric.to_string())
                    }
                    "LASTN" => {
                        let (Some(n), None) = (it.next(), it.next()) else {
                            return Err(ProtocolError::BadArgument);
                        };
                        let n: usize = n.parse().map_err(|_| ProtocolError::BadArgument)?;
                        if n == 0 {
                            return Err(ProtocolError::BadArgument);
                        }
                        Query::LastN(metric.to_string(), n)
                    }
                    "RANGE" => {
                        let (Some(t0), Some(t1), None) = (it.next(), it.next(), it.next()) else {
                            return Err(ProtocolError::BadArgument);
                        };
                        let t0 = parse_finite(t0.as_bytes()).ok_or(ProtocolError::BadArgument)?;
                        let t1 = parse_finite(t1.as_bytes()).ok_or(ProtocolError::BadArgument)?;
                        Query::Range(metric.to_string(), t0, t1)
                    }
                    _ => return Err(ProtocolError::BadArgument),
                };
                events.push(Event::Query(query));
                Ok(())
            }
            "STATUS" => {
                events.push(Event::Status(parse_zone_arg(&mut it)?));
                Ok(())
            }
            "SETPOINT" => {
                events.push(Event::Setpoint(parse_zone_arg(&mut it)?));
                Ok(())
            }
            "METRICS" => {
                events.push(Event::Metrics);
                Ok(())
            }
            _ => Err(ProtocolError::UnknownCommand),
        }
    }
}

/// Parses the optional zone argument of `STATUS`/`SETPOINT`: absent
/// means the site board; present it must be a `z<index>` zone id and
/// the last token on the line.
fn parse_zone_arg(
    it: &mut std::str::SplitAsciiWhitespace<'_>,
) -> Result<Option<ZoneId>, ProtocolError> {
    match (it.next(), it.next()) {
        (None, _) => Ok(None),
        (Some(tok), None) => tok
            .parse::<ZoneId>()
            .map(Some)
            .map_err(|_| ProtocolError::BadArgument),
        (Some(_), Some(_)) => Err(ProtocolError::BadArgument),
    }
}

/// `10^k` for every `k` whose power of ten is an exact `f64`.
const EXACT_POW10: [f64; 23] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
    1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
];

/// Largest mantissa of the exact fast path: every integer up to `2^53`
/// is an exact `f64`.
const EXACT_MANTISSA_MAX: u64 = 1 << 53;

/// Most significant digits the fast path accumulates (`10^19 < 2^64`).
const FAST_DIGITS_MAX: usize = 19;

/// Converts the token that starts at `line[start]` (everything up to
/// the next ASCII whitespace byte) and returns its value and the index
/// just past it. The value is `Some` exactly when `str::parse::<f64>`
/// accepts the token and returns a finite number (NaN/±inf have no
/// place on this wire), and then it has the same bits.
///
/// A token of the form `[+-]?digits[.digits]` with at least one digit,
/// at most 19 significant digits, mantissa `m <= 2^53` and `k <= 22`
/// fraction digits is converted as it is scanned, as `m / 10^k`: both
/// operands are exact, so the one correctly rounded division is the
/// correctly rounded decimal (Clinger's fast path). Every other token
/// goes through `str::parse`.
fn scan_number(line: &[u8], start: usize) -> (Option<f64>, usize) {
    let mut i = start;
    let negative = match line.get(i) {
        Some(b'-') => {
            i += 1;
            true
        }
        Some(b'+') => {
            i += 1;
            false
        }
        _ => false,
    };
    let mut m = 0u64;
    let whole_start = i;
    i = fold_digits(line, i, &mut m);
    let mut digits = i - whole_start;
    let mut fraction = 0;
    if line.get(i) == Some(&b'.') {
        let fraction_start = i + 1;
        i = fold_digits(line, fraction_start, &mut m);
        fraction = i - fraction_start;
        digits += fraction;
    }
    if !line.get(i).is_none_or(u8::is_ascii_whitespace) {
        // Not the fast grammar: the token runs on to the next
        // whitespace.
        let rest = line.get(i..).unwrap_or_default();
        let end = i + rest
            .iter()
            .position(u8::is_ascii_whitespace)
            .unwrap_or(rest.len());
        return (parse_general(line.get(start..end).unwrap_or_default()), end);
    }
    let token = line.get(start..i).unwrap_or_default();
    if let Some(&scale) = EXACT_POW10.get(fraction) {
        if digits > 0
            && m <= EXACT_MANTISSA_MAX
            && (digits <= FAST_DIGITS_MAX || significant_digits(token) <= FAST_DIGITS_MAX)
        {
            let v = m as f64 / scale;
            return (Some(if negative { -v } else { v }), i);
        }
    }
    (parse_general(token), i)
}

/// Folds the decimal digits of `line` from `i` on into `m` and returns
/// the index of the first byte that is not one. `m` wraps only past 19
/// significant digits, which the fast path refuses.
fn fold_digits(line: &[u8], mut i: usize, m: &mut u64) -> usize {
    while let Some(d) = line
        .get(i)
        .map(|b| b.wrapping_sub(b'0'))
        .filter(|&d| d <= 9)
    {
        *m = m.wrapping_mul(10).wrapping_add(u64::from(d));
        i += 1;
    }
    i
}

/// Digits of a `[+-]?digits[.digits]` token from its first nonzero one.
fn significant_digits(token: &[u8]) -> usize {
    token
        .iter()
        .filter(|b| b.is_ascii_digit())
        .skip_while(|&&b| b == b'0')
        .count()
}

/// `str::parse::<f64>` of `token`, finite values only.
fn parse_general(token: &[u8]) -> Option<f64> {
    let v: f64 = std::str::from_utf8(token).ok()?.parse().ok()?;
    v.is_finite().then_some(v)
}

/// Parses a whole token (no whitespace inside) as a finite `f64`: the
/// one number grammar of the wire, for header and body numbers alike.
fn parse_finite(token: &[u8]) -> Option<f64> {
    match scan_number(token, 0) {
        (value, end) if end == token.len() => value,
        _ => None,
    }
}

/// The numbers on one body line, split on ASCII whitespace exactly as
/// `split_ascii_whitespace` splits it and converted as they are
/// scanned: `Some(v)` for a finite number, `None` for any other token
/// (including one holding non-ASCII bytes).
struct Numbers<'a> {
    line: &'a [u8],
    /// Index of the next byte to scan.
    at: usize,
}

impl<'a> Numbers<'a> {
    fn new(line: &'a [u8]) -> Self {
        Numbers { line, at: 0 }
    }
}

impl Iterator for Numbers<'_> {
    type Item = Option<f64>;

    fn next(&mut self) -> Option<Option<f64>> {
        while self.line.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
        if self.at >= self.line.len() {
            return None;
        }
        let (value, end) = scan_number(self.line, self.at);
        self.at = end;
        Some(value)
    }
}

// ---------------------------------------------------------------------
// Response encoders — the only code that writes server->client bytes,
// so the wire format lives in exactly one place per frame kind. They
// format straight into `out`; writing into a `Vec` cannot fail.
// ---------------------------------------------------------------------

/// `OK <accepted> q=<queue_depth>` — `PUSH`/`PUSHC` acknowledgement.
pub fn encode_push_ok(out: &mut Vec<u8>, accepted: usize, queue_depth: usize) {
    let _ = writeln!(out, "OK {accepted} q={queue_depth}");
}

/// `OK <count>` + one `<value>` line per sample, oldest first (the
/// `MetricStore` read API the server fronts is value-oriented).
pub fn encode_samples(out: &mut Vec<u8>, values: &[f64]) {
    let _ = writeln!(out, "OK {}", values.len());
    for v in values {
        let _ = writeln!(out, "{v}");
    }
}

/// `OK 1` + a single data line (STATUS/SETPOINT single-line bodies).
pub fn encode_single_line(out: &mut Vec<u8>, body: impl std::fmt::Display) {
    let _ = writeln!(out, "OK 1\n{body}");
}

/// `OK <nbytes>` + exactly that many raw bytes (METRICS byte-counted
/// framing; the body is not line-structured).
pub fn encode_bytes_block(out: &mut Vec<u8>, body: &[u8]) {
    let _ = writeln!(out, "OK {}", body.len());
    out.extend_from_slice(body);
}

/// `ERR <code> <slug>` line.
pub fn encode_err(out: &mut Vec<u8>, err: ProtocolError) {
    encode_err_parts(out, err.code(), err.slug());
}

/// `ERR <code> <slug>` from explicit parts (for server-level errors
/// that are not parse errors, e.g. `404 status-unavailable`).
pub fn encode_err_parts(out: &mut Vec<u8>, code: u16, slug: &str) {
    let _ = writeln!(out, "ERR {code} {slug}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed_str(p: &mut Parser, s: &str) -> Result<Vec<Event>, ProtocolError> {
        let mut input = s.as_bytes().to_vec();
        let mut events = Vec::new();
        p.feed(&mut input, &mut events)?;
        Ok(events)
    }

    #[test]
    fn hello_ping_and_simple_queries() {
        let mut p = Parser::default();
        let events =
            feed_str(&mut p, "HELLO tlp/1\nPING\nQUERY LAST rack.inlet\nSTATUS\n").unwrap();
        assert_eq!(
            events,
            vec![
                Event::Hello,
                Event::Ping,
                Event::Query(Query::Last("rack.inlet".into())),
                Event::Status(None),
            ]
        );
    }

    #[test]
    fn zone_scoped_status_and_setpoint() {
        let mut p = Parser::default();
        let events = feed_str(&mut p, "STATUS z7\nSETPOINT z0\nSTATUS\n").unwrap();
        assert_eq!(
            events,
            vec![
                Event::Status(Some(ZoneId::new(7))),
                Event::Setpoint(Some(ZoneId::new(0))),
                Event::Status(None),
            ]
        );
        for bad in [
            "STATUS 7\n",
            "STATUS zx\n",
            "STATUS z1 z2\n",
            "SETPOINT -1\n",
        ] {
            assert_eq!(
                feed_str(&mut Parser::default(), bad).unwrap_err(),
                ProtocolError::BadArgument,
                "wire {bad:?}"
            );
        }
    }

    #[test]
    fn push_groups_consecutive_metrics_into_runs() {
        let mut p = Parser::default();
        let events = feed_str(&mut p, "PUSH 3\nm1 0 1.5\nm1 60 1.75\nm2 0 9\n").unwrap();
        let Event::Push(batch) = &events[0] else {
            panic!("expected push, got {events:?}");
        };
        assert_eq!(batch.samples, 3);
        assert_eq!(batch.runs.len(), 2);
        assert_eq!(batch.runs[0], ("m1".into(), vec![(0.0, 1.5), (60.0, 1.75)]));
        assert_eq!(batch.runs[1], ("m2".into(), vec![(0.0, 9.0)]));
    }

    #[test]
    fn pushc_stamps_times_from_t0_and_dt() {
        let mut p = Parser::default();
        let events = feed_str(&mut p, "PUSHC 4 m 100 0.5\n1 2\n3\n4\n").unwrap();
        let Event::Push(batch) = &events[0] else {
            panic!("expected push");
        };
        assert_eq!(
            batch.runs[0].1,
            vec![(100.0, 1.0), (100.5, 2.0), (101.0, 3.0), (101.5, 4.0)]
        );
    }

    #[test]
    fn torn_frames_resume_cleanly() {
        let mut p = Parser::default();
        let mut events = Vec::new();
        let mut input = b"PUSH 2\nm 0 ".to_vec();
        p.feed(&mut input, &mut events).unwrap();
        assert!(events.is_empty());
        assert_eq!(input, b"m 0 "); // torn tail retained
        input.extend_from_slice(b"1\nm 1 2\nPING\n");
        p.feed(&mut input, &mut events).unwrap();
        assert!(input.is_empty());
        assert_eq!(events.len(), 2);
        assert!(matches!(events[0], Event::Push(_)));
        assert_eq!(events[1], Event::Ping);
    }

    #[test]
    fn error_taxonomy() {
        for (wire, want) in [
            ("NONSENSE\n", ProtocolError::UnknownCommand),
            ("HELLO tlp/2\n", ProtocolError::UnsupportedVersion),
            ("HELLO http/1\n", ProtocolError::BadArgument),
            ("PUSH 0\n", ProtocolError::BadArgument),
            ("PUSH 999999\n", ProtocolError::BatchTooLarge),
            ("PUSH 1\nm 0\n", ProtocolError::MalformedSample),
            ("PUSH 1\nm zero 1\n", ProtocolError::MalformedSample),
            ("PUSH 1\nm 0 nan\n", ProtocolError::MalformedSample),
            ("PUSHC 2 m 0 -1\n", ProtocolError::BadArgument),
            ("QUERY LASTN m 0\n", ProtocolError::BadArgument),
            ("QUERY RANGE m 0\n", ProtocolError::BadArgument),
        ] {
            let got = feed_str(&mut Parser::default(), wire).unwrap_err();
            assert_eq!(got, want, "wire {wire:?}");
        }
    }

    #[test]
    fn fatality_split_matches_spec() {
        assert!(!ProtocolError::UnknownCommand.fatal());
        assert!(!ProtocolError::BadArgument.fatal());
        assert!(!ProtocolError::UnsupportedVersion.fatal());
        assert!(ProtocolError::MalformedSample.fatal());
        assert!(ProtocolError::LineTooLong.fatal());
        assert!(ProtocolError::BatchTooLarge.fatal());
    }

    #[test]
    fn oversized_line_rejected_even_without_newline() {
        let mut p = Parser::default();
        let mut input = vec![b'A'; MAX_LINE_BYTES + 2];
        let mut events = Vec::new();
        assert_eq!(
            p.feed(&mut input, &mut events),
            Err(ProtocolError::LineTooLong)
        );
    }

    #[test]
    fn encoders_write_the_format_bytes() {
        // The tlp-mixed values: 0.1-quantized readings 18.0–33.9.
        let mut values: Vec<f64> = (0..160)
            .map(|i| format!("{:.1}", 18.0 + i as f64 / 10.0).parse().unwrap())
            .collect();
        values.extend([
            0.0,
            -0.0,
            f64::from_bits(1), // the smallest subnormal
            1e-7,
            1e16,
            1e21,
            f64::MAX,
            -f64::MAX,
        ]);
        let mut out = Vec::new();
        encode_samples(&mut out, &values);
        let mut want = format!("OK {}\n", values.len());
        for v in &values {
            want.push_str(&format!("{v}\n"));
        }
        assert_eq!(String::from_utf8(out).unwrap(), want);

        let mut out = Vec::new();
        encode_push_ok(&mut out, 4096, 123_456);
        encode_err(&mut out, ProtocolError::LineTooLong);
        encode_err_parts(&mut out, 404, "unknown-zone");
        encode_single_line(&mut out, "{\"rung\":\"Normal\"}");
        encode_single_line(&mut out, 22.5);
        encode_bytes_block(&mut out, b"a 1\nb 2\n");
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "OK 4096 q=123456\nERR 431 line-too-long\nERR 404 unknown-zone\n\
             OK 1\n{\"rung\":\"Normal\"}\nOK 1\n22.5\nOK 8\na 1\nb 2\n"
        );
    }

    #[test]
    fn metric_name_validation() {
        assert!(valid_metric("rack01.inlet_c"));
        assert!(valid_metric("a:b-c"));
        assert!(!valid_metric(""));
        assert!(!valid_metric("has space"));
        assert!(!valid_metric("émetric"));
        assert!(!valid_metric(&"x".repeat(MAX_METRIC_BYTES + 1)));
    }
}
