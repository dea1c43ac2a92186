//! Property tests for the TLP/1 parser: arbitrary bytes never panic or
//! over-buffer, well-formed batches round-trip regardless of how the
//! byte stream is torn into fragments, oversized batches are rejected
//! at the header with the right (fatal) error, and every number on the
//! wire converts to the bits `str::parse::<f64>` gives, or is refused
//! exactly when it refuses or gives a non-finite value.

use proptest::prelude::*;
use tesla_net::protocol::{
    valid_metric, Batch, Event, Parser, ProtocolError, Query, MAX_LINE_BYTES, MAX_METRIC_BYTES,
};

/// `str::parse::<f64>` plus the finiteness check: the number grammar
/// the wire promises.
fn reference(token: &[u8]) -> Option<f64> {
    let v: f64 = std::str::from_utf8(token).ok()?.parse().ok()?;
    v.is_finite().then_some(v)
}

/// A splitmix64 stream: one generator word expands into a token.
struct Draw(u64);

impl Draw {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// `n` decimal digits, a third of them zeros.
    fn digits(&mut self, n: usize, out: &mut Vec<u8>) {
        for _ in 0..n {
            let d = if self.below(3) == 0 {
                0
            } else {
                self.below(10)
            };
            out.push(b'0' + d as u8);
        }
    }

    fn sign(&mut self, out: &mut Vec<u8>) {
        match self.below(3) {
            1 => out.push(b'+'),
            2 => out.push(b'-'),
            _ => {}
        }
    }
}

/// A non-empty token without ASCII whitespace: mostly
/// `[+-]?\d{0,25}(\.\d{0,25})?([eE][+-]?\d{0,3})?`, some near the fast
/// path's edges (mantissas about 2^53, 19–25 fraction digits), named
/// words, and a quarter with a junk byte (non-ASCII, a lone sign or
/// point, a letter) mixed in.
fn token_from(word: u64) -> Vec<u8> {
    let mut r = Draw(word);
    let mut t = Vec::new();
    match r.below(8) {
        0 => {
            // Mantissas on either side of 2^53, with a point anywhere.
            let m = (1u64 << 53) - 64 + r.below(128) as u64;
            let digits = m.to_string().into_bytes();
            let at = r.below(digits.len() + 1);
            r.sign(&mut t);
            t.extend_from_slice(&digits[..at]);
            t.push(b'.');
            t.extend_from_slice(&digits[at..]);
        }
        1 => {
            // 19–25 fraction digits behind leading zeros.
            r.sign(&mut t);
            if r.below(2) == 0 {
                t.push(b'0');
            }
            t.push(b'.');
            let zeros = r.below(20);
            let significant = 1 + r.below(19);
            t.extend(std::iter::repeat_n(b'0', zeros));
            r.digits(significant, &mut t);
        }
        2 => {
            let words = ["inf", "-inf", "+infinity", "nan", "NaN", "-nan", "Infinity"];
            t.extend_from_slice(words[r.below(words.len())].as_bytes());
        }
        _ => {
            r.sign(&mut t);
            let n = r.below(26);
            r.digits(n, &mut t);
            if r.below(2) == 0 {
                t.push(b'.');
                let n = r.below(26);
                r.digits(n, &mut t);
            }
            if r.below(4) == 0 {
                t.push(if r.below(2) == 0 { b'e' } else { b'E' });
                r.sign(&mut t);
                let n = r.below(4);
                r.digits(n, &mut t);
            }
        }
    }
    if r.below(4) == 0 {
        let junk = [
            0x80, 0xC3, 0xA9, 0xFF, b'+', b'-', b'.', b'e', b'x', b'_', b'i', b'n',
        ];
        let at = r.below(t.len() + 1);
        t.insert(at, junk[r.below(junk.len())]);
    }
    if t.is_empty() {
        t.push(b'0');
    }
    t
}

/// Feeds `wire` whole to a fresh parser.
fn feed_all(wire: &[u8]) -> (Vec<Event>, Result<(), ProtocolError>) {
    let mut parser = Parser::default();
    let mut input = wire.to_vec();
    let mut events = Vec::new();
    let result = parser.feed(&mut input, &mut events);
    (events, result)
}

/// The one sample a single-sample `PUSH`/`PUSHC` produced.
fn only_sample(events: &[Event]) -> Option<(f64, f64)> {
    match events {
        [Event::Push(Batch { runs, .. })] => match runs.as_slice() {
            [(_, samples)] => match samples.as_slice() {
                [s] => Some(*s),
                _ => None,
            },
            _ => None,
        },
        _ => None,
    }
}

/// Checks one token through `PUSH` (as time and as value), a `PUSHC`
/// header's `t0` and a `QUERY RANGE` bound.
fn check_token(token: &[u8]) -> Result<(), TestCaseError> {
    let want = reference(token).map(f64::to_bits);
    let show = String::from_utf8_lossy(token).into_owned();
    let wire = |head: &str, tail: &str| [head.as_bytes(), token, tail.as_bytes()].concat();

    // Inside a batch body every refusal is the fatal MalformedSample.
    for (wire, is_time) in [
        (wire("PUSH 1\nm 0 ", "\n"), false),
        (wire("PUSH 1\nm ", " 7\n"), true),
    ] {
        let (events, result) = feed_all(&wire);
        match want {
            Some(bits) => {
                prop_assert_eq!(result, Ok(()), "PUSH {}", show);
                let (t, v) = only_sample(&events).expect("one sample");
                let got = if is_time { t } else { v };
                prop_assert_eq!(got.to_bits(), bits, "PUSH {}", show);
            }
            None => prop_assert_eq!(result, Err(ProtocolError::MalformedSample), "PUSH {}", show),
        }
    }

    // In a request line a refusal is BadArgument, or UnknownCommand
    // when the line is not UTF-8 at all.
    let refused = if std::str::from_utf8(token).is_ok() {
        ProtocolError::BadArgument
    } else {
        ProtocolError::UnknownCommand
    };
    let (events, result) = feed_all(&wire("PUSHC 1 m ", " 0\n5\n"));
    match want {
        Some(bits) => {
            prop_assert_eq!(result, Ok(()), "PUSHC t0 {}", show);
            let (t, _) = only_sample(&events).expect("one sample");
            prop_assert_eq!(t.to_bits(), bits, "PUSHC t0 {}", show);
        }
        None => prop_assert_eq!(result, Err(refused), "PUSHC t0 {}", show),
    }
    let (events, result) = feed_all(&wire("QUERY RANGE m ", " 1\n"));
    match want {
        Some(bits) => {
            prop_assert_eq!(result, Ok(()), "RANGE {}", show);
            let [Event::Query(Query::Range(_, t0, _))] = events.as_slice() else {
                panic!("expected a range query, got {events:?}");
            };
            prop_assert_eq!(t0.to_bits(), bits, "RANGE {}", show);
        }
        None => prop_assert_eq!(result, Err(refused), "RANGE {}", show),
    }
    Ok(())
}

/// Tokens that sit on the edges of the scanner's fast path or of the
/// grammar: signs and points alone or doubled, signed zeros, leading
/// zeros, 2^53 and one past it, a mantissa above 2^53 whose one
/// division would round wrongly, a 20-digit mantissa that wraps a `u64`
/// to zero, 19 and 20 significant digits, 22 and 23 fraction digits,
/// exponents, non-ASCII digits and letters, and the named non-finite
/// words.
const NAMED_TOKENS: [&str; 44] = [
    "1.",
    ".5",
    "+.5",
    "-0",
    "-.0",
    "-0.000",
    "+0",
    "007",
    "0.05",
    "-273.15",
    "9007199254740992",
    "9007199254740993",
    "-9007199254740993",
    "9733552185.802969",
    "18446744073709551616",
    "12345678901234567890",
    "1234567890123456789",
    "0.0000000000000000000001",
    "0.0000000000000000000017",
    "0.00000000000000000000001",
    "0.00000000000000000035638",
    "1e5",
    "-2.5E-3",
    "1e400",
    "1e-400",
    "inf",
    "-infinity",
    "nan",
    "NaN",
    ".",
    "-",
    "+.",
    "-.",
    "..5",
    "1..",
    "1.2.3",
    "1-",
    "--1",
    "+-1",
    "0x10",
    "1_000",
    "\u{661}",
    "1\u{e9}",
    "\u{a0}1",
];

#[test]
fn named_tokens_parse_as_str_parse() {
    for token in NAMED_TOKENS {
        if let Err(e) = check_token(token.as_bytes()) {
            panic!("{e}");
        }
    }
    // A batch of them, several to a line.
    let finite: Vec<&str> = NAMED_TOKENS
        .into_iter()
        .filter(|t| reference(t.as_bytes()).is_some())
        .collect();
    let mut wire = format!("PUSHC {} m 0 1\n", finite.len());
    for line in finite.chunks(4) {
        wire.push_str(&line.join(" \t"));
        wire.push('\n');
    }
    let (events, result) = feed_all(wire.as_bytes());
    assert_eq!(result, Ok(()));
    let Event::Push(batch) = &events[0] else {
        panic!("expected a push, got {events:?}");
    };
    let got: Vec<u64> = batch.runs[0].1.iter().map(|s| s.1.to_bits()).collect();
    let want: Vec<u64> = finite
        .iter()
        .map(|t| t.parse::<f64>().unwrap().to_bits())
        .collect();
    assert_eq!(got, want);
}

#[test]
fn overlong_body_line_with_a_bad_token_is_line_too_long() {
    let mut line = b"1.5 zz ".repeat(MAX_LINE_BYTES / 7 + 1);
    line.push(b'\n');
    let wire = [b"PUSHC 4096 m 0 1\n".as_slice(), &line].concat();
    let (events, result) = feed_all(&wire);
    assert!(events.is_empty());
    assert_eq!(result, Err(ProtocolError::LineTooLong));
    assert_eq!(ProtocolError::LineTooLong.code(), 431);
    // Torn: the same line before its newline arrives.
    let (_, result) = feed_all(&wire[..wire.len() - 1]);
    assert_eq!(result, Err(ProtocolError::LineTooLong));
}

/// Derives a finite sample value from one generator word: a mix of
/// magnitudes (including zero and negatives) a telemetry wire carries.
fn finite_from(bits: u64) -> f64 {
    match bits % 4 {
        0 => 0.0,
        1 => ((bits >> 8) % 2_000_000) as f64 / 1_000.0 - 1_000.0,
        2 => -1.5 * ((bits >> 16) % 97) as f64,
        _ => ((bits >> 24) % 1_000) as f64 * 1e-3 + 21.0,
    }
}

/// Feeds `wire` to a fresh parser in fragments at the given cut points,
/// collecting events until an error or end of input. Returns the
/// events, the first error (if any), and whatever stayed buffered.
fn feed_fragmented(wire: &[u8], cuts: &[usize]) -> (Vec<Event>, Option<ProtocolError>, Vec<u8>) {
    let mut parser = Parser::default();
    let mut events = Vec::new();
    let mut buffered = Vec::new();
    let mut bounds: Vec<usize> = cuts.iter().map(|&c| c % (wire.len() + 1)).collect();
    bounds.push(wire.len());
    bounds.sort_unstable();
    let mut start = 0;
    for b in bounds {
        buffered.extend_from_slice(&wire[start..b]);
        start = b;
        if let Err(e) = parser.feed(&mut buffered, &mut events) {
            return (events, Some(e), buffered);
        }
    }
    (events, None, buffered)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A well-formed PUSH batch parses to exactly its runs no matter
    /// how the bytes are torn into fragments.
    #[test]
    fn push_round_trips_across_arbitrary_tears(
        words in proptest::collection::vec(0u64..=u64::MAX, 1..60),
        cuts in proptest::collection::vec(0usize..4096, 0..8),
    ) {
        let mut wire = format!("PUSH {}\n", words.len());
        let mut want_runs: Vec<(String, Vec<(f64, f64)>)> = Vec::new();
        for (i, &w) in words.iter().enumerate() {
            let metric = format!("m{}", w % 5);
            let (t, v) = (i as f64 * 0.5, finite_from(w >> 3));
            wire.push_str(&format!("{metric} {t} {v}\n"));
            match want_runs.last_mut() {
                Some((name, run)) if *name == metric => run.push((t, v)),
                _ => want_runs.push((metric, vec![(t, v)])),
            }
        }
        let (events, err, leftover) = feed_fragmented(wire.as_bytes(), &cuts);
        prop_assert_eq!(err, None);
        prop_assert!(leftover.is_empty());
        prop_assert_eq!(events.len(), 1);
        let Event::Push(Batch { runs, samples: n }) = &events[0] else {
            panic!("expected a push event, got {events:?}");
        };
        prop_assert_eq!(*n, words.len());
        prop_assert_eq!(runs, &want_runs);
    }

    /// PUSHC round-trips with times reconstructed from (t0, dt),
    /// independent of how many values share a line and of tearing.
    #[test]
    fn pushc_round_trips_across_arbitrary_tears(
        words in proptest::collection::vec(0u64..=u64::MAX, 1..80),
        t0 in -1e6f64..1e6,
        dt_tenths in 0u32..1000,
        per_line in 1usize..9,
        cuts in proptest::collection::vec(0usize..4096, 0..8),
    ) {
        let values: Vec<f64> = words.iter().map(|&w| finite_from(w)).collect();
        let dt = dt_tenths as f64 / 10.0;
        let mut wire = format!("PUSHC {} m.x {t0} {dt}\n", values.len());
        for chunk in values.chunks(per_line) {
            let line: Vec<String> = chunk.iter().map(|v| format!("{v}")).collect();
            wire.push_str(&line.join(" "));
            wire.push('\n');
        }
        let (events, err, leftover) = feed_fragmented(wire.as_bytes(), &cuts);
        prop_assert_eq!(err, None);
        prop_assert!(leftover.is_empty());
        prop_assert_eq!(events.len(), 1);
        let Event::Push(batch) = &events[0] else { panic!("expected push") };
        prop_assert_eq!(batch.runs.len(), 1);
        let got = &batch.runs[0].1;
        prop_assert_eq!(got.len(), values.len());
        for (i, (t, v)) in got.iter().enumerate() {
            prop_assert_eq!(*v, values[i]);
            let want_t = t0 + i as f64 * dt;
            prop_assert!((t - want_t).abs() <= 1e-9 * want_t.abs().max(1.0));
        }
    }

    /// Arbitrary byte soup never panics and never buffers more than
    /// one maximum-length line beyond what it consumed.
    #[test]
    fn malformed_input_never_panics_or_overbuffers(
        bytes in proptest::collection::vec(0u8..=255, 0..2000),
        cuts in proptest::collection::vec(0usize..2048, 0..6),
    ) {
        let (_events, err, leftover) = feed_fragmented(&bytes, &cuts);
        if err.is_none() {
            prop_assert!(leftover.len() <= MAX_LINE_BYTES + 1);
        }
    }

    /// Oversized batches are rejected at the header with the fatal
    /// batch-too-large error — the body is never buffered.
    #[test]
    fn oversized_batch_headers_reject(
        n in 4097usize..1_000_000,
        columnar in proptest::bool::ANY,
    ) {
        let wire = if columnar {
            format!("PUSHC {n} m 0 1\n")
        } else {
            format!("PUSH {n}\n")
        };
        let mut parser = Parser::default();
        let mut input = wire.into_bytes();
        let mut events = Vec::new();
        let err = parser.feed(&mut input, &mut events).unwrap_err();
        prop_assert_eq!(err, ProtocolError::BatchTooLarge);
        prop_assert!(err.fatal());
        prop_assert!(events.is_empty());
    }

    /// Metric-name validation matches its documented alphabet exactly.
    #[test]
    fn metric_alphabet_is_exact(
        chars in proptest::collection::vec(32u8..127, 0..140),
    ) {
        let name = String::from_utf8(chars).unwrap();
        let want = !name.is_empty()
            && name.len() <= MAX_METRIC_BYTES
            && name.bytes().all(|b| b.is_ascii_alphanumeric()
                || matches!(b, b'_' | b'.' | b':' | b'-'));
        prop_assert_eq!(valid_metric(&name), want);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Every token converts to `str::parse`'s bits, or is refused
    /// exactly when `str::parse` fails or gives NaN/±inf: in a `PUSHC`
    /// body (several tokens to a line, any ASCII whitespace between),
    /// in a `PUSH` line, in a `PUSHC` header and in `QUERY RANGE`.
    #[test]
    fn numbers_convert_exactly_as_str_parse(
        words in proptest::collection::vec(0u64..=u64::MAX, 1..24),
        gaps in proptest::collection::vec(0usize..5, 24),
        per_line in 1usize..6,
    ) {
        let tokens: Vec<Vec<u8>> = words.iter().map(|&w| token_from(w)).collect();
        let mut wire = format!("PUSHC {} m 0 0.5\n", tokens.len()).into_bytes();
        for (line, gaps) in tokens.chunks(per_line).zip(gaps.chunks(per_line)) {
            for (token, &gap) in line.iter().zip(gaps) {
                wire.extend_from_slice(&b" \t\x0c\r "[..=gap]);
                wire.extend_from_slice(token);
            }
            wire.push(b'\n');
        }
        let want: Option<Vec<u64>> =
            tokens.iter().map(|t| reference(t).map(f64::to_bits)).collect();
        let (events, result) = feed_all(&wire);
        match want {
            Some(bits) => {
                prop_assert_eq!(result, Ok(()));
                let Event::Push(batch) = &events[0] else { panic!("expected push") };
                let got: Vec<u64> = batch.runs[0].1.iter().map(|s| s.1.to_bits()).collect();
                prop_assert_eq!(got, bits);
            }
            None => {
                prop_assert_eq!(result, Err(ProtocolError::MalformedSample));
                prop_assert!(events.is_empty());
            }
        }
        for token in &tokens {
            check_token(token)?;
        }
    }
}
