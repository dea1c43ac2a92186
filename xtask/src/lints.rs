//! The nine `cargo xtask lint` rules for the TESLA control stack.
//!
//! Every rule reads one file of a [`Workspace`] through a [`Source`]:
//! its code tokens, with comments and the parser's test items left out,
//! and for the two public-API rules the parser's fn signatures. So the
//! lexer alone decides what is code, a comment or a string literal, and
//! the parser alone what is test code. The rules are heuristics tuned to
//! this workspace's idiom; the escape hatch for a deliberate exception is
//! an allowlist comment on the finding line or the `//` line directly
//! above it (see [`Workspace::allowed`]):
//!
//! ```text
//! // lint:allow(<rule-name>): optional reason
//! ```

use std::collections::{BTreeMap, BTreeSet};
use tesla_analysis::lexer::{lex, Token, TokenKind};
use tesla_analysis::{Finding, Workspace};

pub const RULE_RAW_F64: &str = "no-raw-f64-in-public-api";
pub const RULE_UNWRAP: &str = "no-unwrap-in-control-path";
pub const RULE_RUNG: &str = "supervisor-transition-exhaustive";
pub const RULE_SETPOINT: &str = "bounded-setpoint-literal";
pub const RULE_METRIC: &str = "metric-name-format";
pub const RULE_WAL: &str = "no-unchecked-wal-read";
pub const RULE_CHECKPOINT: &str = "no-unframed-checkpoint-read";
pub const RULE_REACTOR: &str = "no-blocking-io-in-reactor";
pub const RULE_ZONE_INDEX: &str = "no-raw-zone-index-in-public-api";

pub const ALL_RULES: [&str; 9] = [
    RULE_RAW_F64,
    RULE_UNWRAP,
    RULE_RUNG,
    RULE_SETPOINT,
    RULE_METRIC,
    RULE_WAL,
    RULE_CHECKPOINT,
    RULE_REACTOR,
    RULE_ZONE_INDEX,
];

/// Runs the rule named `rule` over one file. `variants` are `Rung`'s,
/// for `supervisor-transition-exhaustive`.
pub fn check(rule: &str, src: &Source, variants: &[String]) -> Vec<Finding> {
    match rule {
        RULE_RAW_F64 => check_api_types(src, &RAW_F64_SPEC),
        RULE_UNWRAP => check_calls(src, RULE_UNWRAP, &[".unwrap()"], |_| {
            "unwrap() in control path; propagate the error or use expect with context".to_string()
        }),
        RULE_RUNG => check_rung_matches(src, variants),
        RULE_SETPOINT => check_setpoint_literal(src),
        RULE_METRIC => check_metric_names(src),
        RULE_WAL => check_framed_reads(src, &WAL_READ_SPEC),
        RULE_CHECKPOINT => check_framed_reads(src, &CHECKPOINT_READ_SPEC),
        RULE_REACTOR => check_calls(src, RULE_REACTOR, &BLOCKING_CALL_PATTERNS, |spelled| {
            format!(
                "`{spelled}` can block a reactor thread; use non-blocking I/O, or move the \
                 work to a dedicated thread and allowlist it with the thread named"
            )
        }),
        RULE_ZONE_INDEX => check_api_types(src, &ZONE_INDEX_SPEC),
        other => panic!("unknown lint rule `{other}`"),
    }
}

/// One workspace file as the rules read it.
pub struct Source<'a> {
    ws: &'a Workspace,
    file: usize,
    /// The file's tokens outside comments and test items, in order.
    code: Vec<&'a Token>,
}

impl<'a> Source<'a> {
    pub fn new(ws: &'a Workspace, file: usize) -> Self {
        let tests = &ws.tests[file];
        let code = ws.tokens[file]
            .iter()
            .enumerate()
            .filter(|&(i, t)| {
                t.kind != TokenKind::Comment && !tests.iter().any(|&(s, e)| (s..e).contains(&i))
            })
            .map(|(_, t)| t)
            .collect();
        Source { ws, file, code }
    }

    /// A finding of `rule` at `line`, allowlisted by [`Workspace::allowed`].
    fn finding(&self, rule: &'static str, line: u32, message: String) -> Finding {
        Finding {
            rule,
            file: self.ws.paths[self.file].clone(),
            line,
            message,
            witness: String::new(),
            allowed: self.ws.allowed(self.file, line, rule),
        }
    }

    /// Whether the code tokens from position `k` on spell `pattern`.
    fn spells(&self, k: usize, pattern: &[Token]) -> bool {
        pattern
            .iter()
            .enumerate()
            .all(|(j, p)| self.code.get(k + j).is_some_and(|t| t.text == p.text))
    }
}

/// One finding per line where a call in `patterns` (Rust spellings,
/// lexed) begins, naming the first such pattern in list order;
/// `message` gets the call's name.
fn check_calls(
    src: &Source,
    rule: &'static str,
    patterns: &[&str],
    message: impl Fn(&str) -> String,
) -> Vec<Finding> {
    let lexed: Vec<Vec<Token>> = patterns.iter().map(|p| lex(p)).collect();
    let mut first: BTreeMap<u32, usize> = BTreeMap::new();
    for k in 0..src.code.len() {
        if let Some(ix) = lexed.iter().position(|p| src.spells(k, p)) {
            let on_line = first.entry(src.code[k].line).or_insert(ix);
            *on_line = ix.min(*on_line);
        }
    }
    first
        .into_iter()
        .map(|(line, ix)| {
            let spelled: String = patterns[ix]
                .chars()
                .filter(|c| !".()&".contains(*c))
                .collect();
            src.finding(rule, line, message(&spelled))
        })
        .collect()
}

/// Identifier words that mark an item as temperature/power-bearing for
/// `no-raw-f64-in-public-api`. Matched as prefixes of the
/// underscore-separated words of each identifier, case-insensitively
/// (`supply_temp_c` -> ["supply", "temp", "c"] -> matches "temp").
const QUANTITY_FRAGMENTS: [&str; 10] = [
    "temp", "celsius", "setpoint", "power", "kw", "watt", "energy", "degc", "joule", "aisle",
];

/// The underscore-separated words of an identifier, lowercased.
fn identifier_words(ident: &str) -> impl Iterator<Item = String> + '_ {
    ident
        .split('_')
        .filter(|w| !w.is_empty())
        .map(str::to_ascii_lowercase)
}

fn has_quantity_word(ident: &str) -> bool {
    identifier_words(ident).any(|w| QUANTITY_FRAGMENTS.iter().any(|f| w.starts_with(f)))
}

/// True when an identifier word is exactly `zone` — the singular form
/// used when addressing one zone. Plural counts (`zones`, `n_zones`)
/// and the newtype's own name (`ZoneId` lowercases to "zoneid") stay
/// out of scope: a fleet size is a quantity, not an address.
fn names_zone(ident: &str) -> bool {
    identifier_words(ident).any(|w| w == "zone")
}

/// One public-API type rule: `pub fn` signatures and `pub` fields whose
/// identifiers `names` picks out must not spell the raw type.
pub struct ApiTypeSpec {
    /// Rule identifier reported in findings and matched by allowlists.
    pub rule: &'static str,
    /// The raw type the rule bans.
    pub raw_type: &'static str,
    /// Whether an identifier names what the rule protects.
    pub names: fn(&str) -> bool,
    /// Message for a signature line, before the fix.
    pub signature: &'static str,
    /// What a flagged field does, after "public field `<name>`".
    pub field: &'static str,
    /// The fix every message ends with.
    pub fix: &'static str,
}

/// `no-raw-f64-in-public-api`: public signatures and fields in the
/// control crates whose names talk about temperature or power must not
/// expose raw `f64` — use `tesla-units` newtypes.
pub const RAW_F64_SPEC: ApiTypeSpec = ApiTypeSpec {
    rule: RULE_RAW_F64,
    raw_type: "f64",
    names: has_quantity_word,
    signature: "raw f64 in public temperature/power signature",
    field: "holds a temperature/power quantity as raw f64",
    fix: "use a tesla-units newtype",
};

/// `no-raw-zone-index-in-public-api`: public signatures and fields in
/// the fleet crate that address a zone must carry `tesla_units::ZoneId`,
/// never a raw `usize` index — a raw index silently re-keys across
/// topologies, while the newtype keeps zone addressing type-checked end
/// to end (historian prefixes, TLP `STATUS z<i>`, coordinator decisions).
pub const ZONE_INDEX_SPEC: ApiTypeSpec = ApiTypeSpec {
    rule: RULE_ZONE_INDEX,
    raw_type: "usize",
    names: names_zone,
    signature: "raw usize zone index in public signature",
    field: "addresses a zone by raw usize index",
    fix: "use tesla_units::ZoneId",
};

/// Table-driven public-API type rule over `spec`. A signature line is
/// flagged when it spells the raw type and the fn's name or an
/// identifier on that line is one `spec.names` picks out; a `pub` field
/// when its name is picked out and its line spells the raw type. An
/// allow on the `pub fn` line covers the whole signature.
fn check_api_types(src: &Source, spec: &ApiTypeSpec) -> Vec<Finding> {
    let tokens = &src.ws.tokens[src.file];
    let mut findings = Vec::new();
    let pub_fns = src.ws.graph.fns.iter().map(|f| &f.def).filter(|d| {
        d.file == src.file
            && tokens[..d.start]
                .iter()
                .rfind(|t| t.kind != TokenKind::Comment)
                .is_some_and(|t| t.is_ident("pub"))
    });
    for def in pub_fns {
        let idents: Vec<&Token> = tokens[def.start..def.body.0]
            .iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .collect();
        let sig_allowed = src.ws.allowed(src.file, def.line, spec.rule);
        let raw_lines: BTreeSet<u32> = idents
            .iter()
            .filter(|t| t.text == spec.raw_type)
            .map(|t| t.line)
            .collect();
        for line in raw_lines {
            if (spec.names)(&def.name)
                || idents
                    .iter()
                    .any(|t| t.line == line && (spec.names)(&t.text))
            {
                let mut f =
                    src.finding(spec.rule, line, format!("{}; {}", spec.signature, spec.fix));
                f.allowed |= sig_allowed;
                findings.push(f);
            }
        }
    }
    let code = &src.code;
    for k in 0..code.len() {
        let field = match code.get(k..k + 4) {
            Some([vis, name, colon, next])
                if vis.is_ident("pub")
                    && name.kind == TokenKind::Ident
                    && colon.is_punct(':')
                    && !next.is_punct(':') =>
            {
                name
            }
            _ => continue,
        };
        let raw = code[k + 3..]
            .iter()
            .take_while(|t| t.line == field.line)
            .any(|t| t.is_ident(spec.raw_type));
        if raw && (spec.names)(&field.text) {
            let message = format!("public field `{}` {}; {}", field.text, spec.field, spec.fix);
            findings.push(src.finding(spec.rule, field.line, message));
        }
    }
    findings
}

/// Rule `supervisor-transition-exhaustive`: every `match` whose arms
/// pattern-match `Rung::` variants must name every rung and must not
/// use a `_` wildcard arm — adding a ladder rung must break the build
/// until every transition site decides what to do with it.
fn check_rung_matches(src: &Source, variants: &[String]) -> Vec<Finding> {
    let code = &src.code;
    let is_rung_path = |k: usize| {
        code[k].is_ident("Rung")
            && code.get(k + 1).is_some_and(|t| t.is_punct(':'))
            && code.get(k + 2).is_some_and(|t| t.is_punct(':'))
    };
    let is_arrow = |k: usize| {
        code.get(k).is_some_and(|t| t.is_punct('='))
            && code.get(k + 1).is_some_and(|t| t.is_punct('>'))
    };
    let mut findings = Vec::new();
    for (m, t) in code.iter().enumerate() {
        if !t.is_ident("match") {
            continue;
        }
        // The arms: from the first `{` after `match` to its `}`.
        let Some(open) = (m + 1..code.len()).find(|&k| code[k].is_punct('{')) else {
            continue;
        };
        let mut depth = 0i32;
        let mut in_pattern = true;
        let mut pattern_names_rung = false;
        let mut rung_match = false;
        let mut wildcards = Vec::new();
        let mut close = code.len();
        for k in open..code.len() {
            let tk = code[k];
            match tk.text.as_str() {
                "{" | "(" | "[" => depth += 1,
                "}" | ")" | "]" => {
                    depth -= 1;
                    // A block arm body ends its arm.
                    if depth == 1 && tk.is_punct('}') && !in_pattern {
                        in_pattern = true;
                        pattern_names_rung = false;
                    }
                }
                "," if depth == 1 => {
                    in_pattern = true;
                    pattern_names_rung = false;
                }
                _ if in_pattern && is_rung_path(k) => pattern_names_rung = true,
                _ if depth == 1 && in_pattern && is_arrow(k) => {
                    rung_match |= pattern_names_rung;
                    in_pattern = false;
                }
                "_" if depth == 1
                    && in_pattern
                    && (code[k - 1].is_punct('|')
                        || code.get(k + 1).is_some_and(|n| n.is_punct('|'))
                        || is_arrow(k + 1)) =>
                {
                    wildcards.push(tk.line);
                }
                _ => {}
            }
            if depth == 0 {
                close = k;
                break;
            }
        }
        if !rung_match {
            continue;
        }
        for line in wildcards {
            let message = "wildcard arm in Rung match; name every rung so new rungs force a \
                           decision here";
            findings.push(src.finding(RULE_RUNG, line, message.to_string()));
        }
        for v in variants {
            let named = (m..close)
                .any(|k| is_rung_path(k) && code.get(k + 3).is_some_and(|n| n.text == *v));
            if !named {
                let message = format!("Rung match does not cover `Rung::{v}`");
                findings.push(src.finding(RULE_RUNG, t.line, message));
            }
        }
    }
    findings
}

/// Extracts the variant names of `pub enum Rung` from the tokens of the
/// supervisor source.
pub fn rung_variants(tokens: &[Token]) -> Vec<String> {
    let code: Vec<&Token> = tokens
        .iter()
        .filter(|t| t.kind != TokenKind::Comment)
        .collect();
    let Some(open) = code.windows(4).position(|w| {
        w[0].is_ident("pub") && w[1].is_ident("enum") && w[2].is_ident("Rung") && w[3].is_punct('{')
    }) else {
        return Vec::new();
    };
    let mut variants = Vec::new();
    let mut depth = 0;
    let mut expect_variant = true;
    for t in &code[open + 3..] {
        match t.text.as_str() {
            "{" | "(" | "[" => depth += 1,
            "}" | ")" | "]" => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            "," if depth == 1 => expect_variant = true,
            _ if depth == 1 && expect_variant && t.kind == TokenKind::Ident => {
                variants.push(t.text.clone());
                expect_variant = false;
            }
            _ => {}
        }
    }
    variants
}

/// Rule `bounded-setpoint-literal`: a numeric set-point literal wrapped
/// straight into `Celsius::new(...)` bypasses the paper's operating
/// envelope; go through `tesla_units::SETPOINT_RANGE` (`.clamp`,
/// `.check`, or its `min()`/`max()` endpoints) instead. A line is
/// flagged when it names a set-point, wraps a number literal in
/// `Celsius::new(`, and does not name `SETPOINT_RANGE`.
fn check_setpoint_literal(src: &Source) -> Vec<Finding> {
    let wrap = lex("Celsius::new(");
    let (mut setpoint, mut range, mut literal) =
        (BTreeSet::new(), BTreeSet::new(), BTreeSet::new());
    for (k, t) in src.code.iter().enumerate() {
        if t.kind == TokenKind::Ident {
            if t.text == "SETPOINT_RANGE" {
                range.insert(t.line);
            }
            if identifier_words(&t.text).any(|w| w.starts_with("setpoint")) {
                setpoint.insert(t.line);
            }
        }
        if src.spells(k, &wrap) {
            let mut arg = k + wrap.len();
            if src.code.get(arg).is_some_and(|a| a.is_punct('-')) {
                arg += 1;
            }
            if src
                .code
                .get(arg)
                .is_some_and(|a| a.kind == TokenKind::Number)
            {
                literal.insert(t.line);
            }
        }
    }
    literal
        .into_iter()
        .filter(|l| setpoint.contains(l) && !range.contains(l))
        .map(|line| {
            let message = "numeric set-point literal; validate through tesla_units::SETPOINT_RANGE";
            src.finding(RULE_SETPOINT, line, message.to_string())
        })
        .collect()
}

/// Unit suffixes accepted as the final word of gauge/histogram names.
/// Mirrors the `tesla-units` quantities plus the dimensionless ones the
/// exporters document (see docs/OBSERVABILITY.md "Naming convention").
const UNIT_SUFFIXES: [&str; 10] = [
    "seconds",
    "celsius",
    "kwh",
    "kw",
    "iterations",
    "index",
    "ratio",
    "bytes",
    "connections",
    "samples",
];

/// The tesla-obs constructor spellings that take a metric-name string
/// literal as their first argument, and the instrument kind each one
/// creates.
const METRIC_CONSTRUCTORS: [(&str, &str); 6] = [
    ("counter!(", "counter"),
    ("gauge!(", "gauge"),
    ("histogram!(", "histogram"),
    (".counter(", "counter"),
    (".gauge(", "gauge"),
    (".histogram(", "histogram"),
];

/// Rule `metric-name-format`: metric names passed to the tesla-obs
/// constructors must be snake_case; counters must end in `_total`;
/// gauges and histograms must end in a known unit suffix so dashboards
/// never have to guess units. Names that are not a plain string literal
/// (variables) are out of scope.
fn check_metric_names(src: &Source) -> Vec<Finding> {
    let constructors: Vec<(Vec<Token>, &str)> = METRIC_CONSTRUCTORS
        .iter()
        .map(|(p, kind)| (lex(p), *kind))
        .collect();
    let mut findings = Vec::new();
    for k in 0..src.code.len() {
        for (pattern, kind) in &constructors {
            if !src.spells(k, pattern) {
                continue;
            }
            let literal = src.code.get(k + pattern.len());
            let Some(name) = literal.and_then(|t| t.text.strip_prefix('"')?.strip_suffix('"'))
            else {
                continue;
            };
            if let Some(problem) = metric_name_problem(name, kind) {
                let message = format!("{kind} `{name}`: {problem}");
                findings.push(src.finding(RULE_METRIC, src.code[k].line, message));
            }
        }
    }
    findings
}

/// Why `name` violates the naming convention for `kind`, if it does.
fn metric_name_problem(name: &str, kind: &str) -> Option<String> {
    let snake = !name.is_empty()
        && name.chars().next().is_some_and(|c| c.is_ascii_lowercase())
        && name
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        && !name.contains("__")
        && !name.ends_with('_');
    if !snake {
        return Some("not snake_case (lowercase words joined by single underscores)".to_string());
    }
    let last = name.rsplit('_').next().unwrap_or("");
    match kind {
        "counter" => (last != "total").then(|| "counter names must end in `_total`".to_string()),
        _ => (!UNIT_SUFFIXES.contains(&last)).then(|| {
            format!(
                "{kind} names must end in a unit suffix ({})",
                UNIT_SUFFIXES.map(|s| format!("_{s}")).join(", ")
            )
        }),
    }
}

/// Byte-level deserialization spellings that must not appear outside a
/// CRC-checked framed reader. `.read(&` (a buffer read) deliberately
/// excludes `OpenOptions::read(true)`. Shared by both framed-read
/// rules: WAL records and checkpoints use the same magic + version +
/// length + CRC framing.
const FRAMED_READ_PATTERNS: [&str; 5] = [
    "from_le_bytes(",
    "from_be_bytes(",
    ".read_exact(",
    ".read_to_end(",
    ".read(&",
];

/// One framed-read rule instance: which rule name it reports under,
/// what artifact it protects, and the blessed reader to route through.
pub struct FramedReadSpec {
    /// Rule identifier reported in findings and matched by allowlists.
    pub rule: &'static str,
    /// Artifact description used in the message ("WAL frame" etc.).
    pub subject: &'static str,
    /// The CRC-checked reader every byte must flow through.
    pub reader: &'static str,
}

/// `no-unchecked-wal-read`: every WAL byte deserialized in the
/// historian must flow through the CRC-checked frame reader, so a torn
/// or bit-flipped record can never be half-applied.
pub const WAL_READ_SPEC: FramedReadSpec = FramedReadSpec {
    rule: RULE_WAL,
    subject: "WAL frame",
    reader: "wal::read_frame",
};

/// `no-unframed-checkpoint-read`: every checkpoint byte deserialized in
/// the control-plane crate must flow through the CRC-checked reader, so
/// a torn checkpoint can never be half-restored into a live supervisor.
pub const CHECKPOINT_READ_SPEC: FramedReadSpec = FramedReadSpec {
    rule: RULE_CHECKPOINT,
    subject: "checkpoint",
    reader: "Checkpoint::decode",
};

/// Table-driven framed-read rule: flags raw byte deserialization
/// outside the blessed CRC-checked reader named by `spec`. The reader
/// itself (and the decoder it calls) carries allowlist comments; any
/// other raw byte parse in scope is a finding.
fn check_framed_reads(src: &Source, spec: &FramedReadSpec) -> Vec<Finding> {
    check_calls(src, spec.rule, &FRAMED_READ_PATTERNS, |spelled| {
        format!(
            "`{spelled}` deserializes bytes outside the CRC-checked {} reader; route through `{}`",
            spec.subject, spec.reader
        )
    })
}

/// Call spellings that block the calling thread: buffered/exact reads
/// and writes that loop until completion, fsync, synchronization
/// primitives, filesystem access, and switching a socket back to
/// blocking mode. `.join()` is matched with its empty argument list so
/// slice/iterator `join(sep)` stays out of scope.
///
/// Rule `no-blocking-io-in-reactor` flags them: the event-loop crates
/// (`crates/reactor`, `crates/net`) must never block a reactor thread —
/// one stalled syscall freezes every connection parked on that shard.
/// Socket I/O must stay non-blocking (`.read(`/`.write(` with
/// `WouldBlock` handling). Deliberate blocking off the reactor threads
/// (ingest writer threads, shutdown joins, idle pacing between sweeps)
/// carries an allowlist comment stating which thread it runs on.
const BLOCKING_CALL_PATTERNS: [&str; 16] = [
    ".read_exact(",
    ".read_to_end(",
    ".read_to_string(",
    ".read_line(",
    ".write_all(",
    ".flush(",
    ".sync_all(",
    ".sync_data(",
    ".wait(",
    ".wait_timeout(",
    ".recv(",
    ".recv_timeout(",
    ".join()",
    "thread::sleep(",
    "set_nonblocking(false",
    "std::fs::",
];

#[cfg(test)]
mod tests {
    use super::*;

    const VARIANTS: [&str; 3] = ["Normal", "HoldLastSafe", "SafeMode"];

    fn fixture_ws(src: &str) -> Workspace {
        Workspace::from_sources(vec![("fixture.rs".to_string(), src.to_string())])
    }

    fn run(src: &str, rule: &str) -> Vec<Finding> {
        let ws = fixture_ws(src);
        check(rule, &Source::new(&ws, 0), &VARIANTS.map(String::from))
    }

    /// One flag per source line: true inside the parser's test items.
    fn test_line_flags(src: &str) -> Vec<bool> {
        let ws = fixture_ws(src);
        let tokens = &ws.tokens[0];
        (1..=src.lines().count() as u32)
            .map(|line| {
                ws.tests[0]
                    .iter()
                    .any(|&(s, e)| (tokens[s].line..=tokens[e - 1].line).contains(&line))
            })
            .collect()
    }

    const RAW_F64_TP: &str = include_str!("../fixtures/raw_f64_tp.rs");
    const RAW_F64_TN: &str = include_str!("../fixtures/raw_f64_tn.rs");
    const UNWRAP_TP: &str = include_str!("../fixtures/unwrap_tp.rs");
    const UNWRAP_TN: &str = include_str!("../fixtures/unwrap_tn.rs");
    const RUNG_TP: &str = include_str!("../fixtures/rung_tp.rs");
    const RUNG_TN: &str = include_str!("../fixtures/rung_tn.rs");
    const SETPOINT_TP: &str = include_str!("../fixtures/setpoint_literal_tp.rs");
    const SETPOINT_TN: &str = include_str!("../fixtures/setpoint_literal_tn.rs");
    const METRIC_TP: &str = include_str!("../fixtures/metric_name_tp.rs");
    const METRIC_TN: &str = include_str!("../fixtures/metric_name_tn.rs");
    const WAL_TP: &str = include_str!("../fixtures/wal_read_tp.rs");
    const WAL_TN: &str = include_str!("../fixtures/wal_read_tn.rs");
    const CHECKPOINT_TP: &str = include_str!("../fixtures/checkpoint_read_tp.rs");
    const CHECKPOINT_TN: &str = include_str!("../fixtures/checkpoint_read_tn.rs");
    const REACTOR_TP: &str = include_str!("../fixtures/reactor_io_tp.rs");
    const REACTOR_TN: &str = include_str!("../fixtures/reactor_io_tn.rs");
    const ZONE_INDEX_TP: &str = include_str!("../fixtures/zone_index_tp.rs");
    const ZONE_INDEX_TN: &str = include_str!("../fixtures/zone_index_tn.rs");

    #[test]
    fn raw_f64_true_positive() {
        let findings = run(RAW_F64_TP, RULE_RAW_F64);
        let active: Vec<_> = findings.iter().filter(|f| !f.allowed).collect();
        assert!(
            active.len() >= 2,
            "expected signature + field findings, got {findings:?}"
        );
        assert!(active.iter().any(|f| f.message.contains("signature")));
        assert!(active.iter().any(|f| f.message.contains("field")));
    }

    #[test]
    fn raw_f64_true_negative() {
        let findings = run(RAW_F64_TN, RULE_RAW_F64);
        let active: Vec<_> = findings.iter().filter(|f| !f.allowed).collect();
        assert!(active.is_empty(), "unexpected findings: {active:?}");
        // The allowlisted bulk-telemetry line is still reported, as allowed.
        assert!(findings.iter().any(|f| f.allowed));
    }

    #[test]
    fn unwrap_true_positive() {
        let findings = run(UNWRAP_TP, RULE_UNWRAP);
        assert_eq!(findings.iter().filter(|f| !f.allowed).count(), 1);
    }

    #[test]
    fn unwrap_true_negative() {
        let findings = run(UNWRAP_TN, RULE_UNWRAP);
        let active: Vec<_> = findings.iter().filter(|f| !f.allowed).collect();
        assert!(active.is_empty(), "unexpected findings: {active:?}");
    }

    #[test]
    fn rung_true_positive() {
        let findings = run(RUNG_TP, RULE_RUNG);
        let active: Vec<_> = findings.iter().filter(|f| !f.allowed).collect();
        assert!(
            active.iter().any(|f| f.message.contains("wildcard")),
            "wildcard arm must be flagged: {active:?}"
        );
        assert!(
            active.iter().any(|f| f.message.contains("SafeMode")),
            "missing variant must be flagged: {active:?}"
        );
    }

    #[test]
    fn rung_true_negative() {
        let findings = run(RUNG_TN, RULE_RUNG);
        let active: Vec<_> = findings.iter().filter(|f| !f.allowed).collect();
        assert!(active.is_empty(), "unexpected findings: {active:?}");
    }

    #[test]
    fn setpoint_true_positive() {
        let findings = run(SETPOINT_TP, RULE_SETPOINT);
        assert_eq!(findings.iter().filter(|f| !f.allowed).count(), 1);
    }

    #[test]
    fn setpoint_true_negative() {
        let findings = run(SETPOINT_TN, RULE_SETPOINT);
        let active: Vec<_> = findings.iter().filter(|f| !f.allowed).collect();
        assert!(active.is_empty(), "unexpected findings: {active:?}");
    }

    #[test]
    fn metric_name_true_positive() {
        let findings = run(METRIC_TP, RULE_METRIC);
        let active: Vec<_> = findings.iter().filter(|f| !f.allowed).collect();
        assert_eq!(active.len(), 6, "expected 6 violations, got {active:?}");
        assert!(active.iter().any(|f| f.message.contains("snake_case")));
        assert!(active.iter().any(|f| f.message.contains("_total")));
        assert!(active.iter().any(|f| f.message.contains("unit suffix")));
    }

    #[test]
    fn metric_name_true_negative() {
        let findings = run(METRIC_TN, RULE_METRIC);
        let active: Vec<_> = findings.iter().filter(|f| !f.allowed).collect();
        assert!(active.is_empty(), "unexpected findings: {active:?}");
        // The allowlisted legacy series is still reported, as allowed.
        assert!(findings.iter().any(|f| f.allowed));
    }

    #[test]
    fn wal_read_true_positive() {
        let findings = run(WAL_TP, RULE_WAL);
        let active: Vec<_> = findings.iter().filter(|f| !f.allowed).collect();
        assert_eq!(active.len(), 3, "expected 3 violations, got {active:?}");
        assert!(active.iter().any(|f| f.message.contains("from_le_bytes")));
        assert!(active.iter().any(|f| f.message.contains("read_exact")));
        assert!(active.iter().any(|f| f.message.contains("`read`")));
    }

    #[test]
    fn wal_read_true_negative() {
        let findings = run(WAL_TN, RULE_WAL);
        let active: Vec<_> = findings.iter().filter(|f| !f.allowed).collect();
        assert!(active.is_empty(), "unexpected findings: {active:?}");
        // The frame-decoder line is still reported, as allowed.
        assert!(findings.iter().any(|f| f.allowed));
    }

    #[test]
    fn checkpoint_read_true_positive() {
        let findings = run(CHECKPOINT_TP, RULE_CHECKPOINT);
        let active: Vec<_> = findings.iter().filter(|f| !f.allowed).collect();
        assert_eq!(active.len(), 3, "expected 3 violations, got {active:?}");
        assert!(active.iter().any(|f| f.message.contains("from_le_bytes")));
        assert!(active.iter().any(|f| f.message.contains("read_to_end")));
        assert!(active.iter().any(|f| f.message.contains("`read`")));
    }

    #[test]
    fn checkpoint_read_true_negative() {
        let findings = run(CHECKPOINT_TN, RULE_CHECKPOINT);
        let active: Vec<_> = findings.iter().filter(|f| !f.allowed).collect();
        assert!(active.is_empty(), "unexpected findings: {active:?}");
        // The checked-reader line is still reported, as allowed.
        assert!(findings.iter().any(|f| f.allowed));
    }

    #[test]
    fn reactor_blocking_true_positive() {
        let findings = run(REACTOR_TP, RULE_REACTOR);
        let active: Vec<_> = findings.iter().filter(|f| !f.allowed).collect();
        assert_eq!(active.len(), 10, "expected 10 violations, got {active:?}");
        for spelled in [
            "read_exact",
            "read_line",
            "write_all",
            "flush",
            "thread::sleep",
            "recv",
            "wait",
            "join",
            "set_nonblocking",
            "fs::",
        ] {
            assert!(
                active.iter().any(|f| f.message.contains(spelled)),
                "`{spelled}` must be flagged: {active:?}"
            );
        }
    }

    #[test]
    fn reactor_blocking_true_negative() {
        let findings = run(REACTOR_TN, RULE_REACTOR);
        let active: Vec<_> = findings.iter().filter(|f| !f.allowed).collect();
        assert!(active.is_empty(), "unexpected findings: {active:?}");
        // The writer-thread condvar wait is still reported, as allowed.
        assert!(findings.iter().any(|f| f.allowed));
    }

    #[test]
    fn zone_index_true_positive() {
        let findings = run(ZONE_INDEX_TP, RULE_ZONE_INDEX);
        let active: Vec<_> = findings.iter().filter(|f| !f.allowed).collect();
        assert!(
            active.len() >= 2,
            "expected signature + field findings, got {findings:?}"
        );
        assert!(active.iter().any(|f| f.message.contains("signature")));
        assert!(active.iter().any(|f| f.message.contains("field")));
    }

    #[test]
    fn zone_index_true_negative() {
        let findings = run(ZONE_INDEX_TN, RULE_ZONE_INDEX);
        let active: Vec<_> = findings.iter().filter(|f| !f.allowed).collect();
        assert!(active.is_empty(), "unexpected findings: {active:?}");
        // The allowlisted wire-cursor line is still reported, as allowed.
        assert!(findings.iter().any(|f| f.allowed));
    }

    #[test]
    fn metric_name_problem_rules() {
        assert!(metric_name_problem("tesla_control_steps_total", "counter").is_none());
        assert!(metric_name_problem("tesla_decide_seconds", "histogram").is_none());
        assert!(metric_name_problem("supervisor_rung_index", "gauge").is_none());
        assert!(metric_name_problem("steps", "counter").is_some());
        assert!(metric_name_problem("Steps_total", "counter").is_some());
        assert!(metric_name_problem("decide_micros", "histogram").is_some());
        assert!(metric_name_problem("", "gauge").is_some());
    }

    #[test]
    fn allow_comment_on_preceding_line_suppresses() {
        let src = "// lint:allow(no-unwrap-in-control-path): invariant held\nlet x = y.unwrap();\n";
        let findings = run(src, RULE_UNWRAP);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].allowed);
    }

    const TEST_MASK_REGRESSION: &str = include_str!("../fixtures/test_mask_regression.rs");

    /// Regression: a comment containing `{` between the attribute and
    /// the module header must not derail the test scopes, and
    /// `#[cfg(test)]` on a `;`-terminated item must not swallow the
    /// live code that follows it.
    #[test]
    fn test_mask_regression_fixture() {
        let mask = test_line_flags(TEST_MASK_REGRESSION);
        for (i, l) in TEST_MASK_REGRESSION.lines().enumerate() {
            if l.contains("MASKED") {
                assert!(mask[i], "line {} should be masked: {l}", i + 1);
            }
            if l.contains("LIVE") {
                assert!(!mask[i], "line {} should be live: {l}", i + 1);
            }
        }
        // The unwrap in live code must be caught once the mask is right.
        let findings = run(TEST_MASK_REGRESSION, RULE_UNWRAP);
        assert_eq!(
            findings.iter().filter(|f| !f.allowed).count(),
            1,
            "exactly the live-path unwrap must be flagged: {findings:?}"
        );
    }

    #[test]
    fn test_mask_attr_sharing_brace_line() {
        let src = "fn a() {}\n#[cfg(test)] mod tests {\n    fn b() { x.unwrap(); }\n}\nfn c() {}\n";
        assert_eq!(test_line_flags(src), vec![false, true, true, true, false]);
    }

    #[test]
    fn test_mask_covers_cfg_test_modules() {
        let src =
            "fn a() {}\n#[cfg(test)]\nmod tests {\n    fn b() { x.unwrap(); }\n}\nfn c() {}\n";
        assert_eq!(
            test_line_flags(src),
            vec![false, true, true, true, true, false]
        );
    }

    /// What the line reader missed: a `pub fn` that does not begin its
    /// line, a `match` whose `{` is on the next line, and an unwrap after
    /// a `//` inside a string literal.
    #[test]
    fn tokens_catch_what_a_line_reader_missed() {
        let one_line_impl = "impl S { pub fn supply_temp(&self) -> f64 { 1.0 } }\n";
        assert_eq!(run(one_line_impl, RULE_RAW_F64).len(), 1);
        let brace_below =
            "fn f(r: Rung) -> u8 {\n    match r\n    {\n        Rung::Normal => 0,\n        _ => 1,\n    }\n}\n";
        let findings = run(brace_below, RULE_RUNG);
        assert!(findings.iter().any(|f| f.message.contains("wildcard")));
        let url = "fn f(m: &M) -> u8 { m.get(\"http://host\").unwrap() }\n";
        assert_eq!(run(url, RULE_UNWRAP).len(), 1);
    }

    #[test]
    fn rung_variant_extraction() {
        let src = "/// doc\npub enum Rung {\n    /// a\n    Normal,\n    HoldLastSafe,\n    SafeMode,\n}\n";
        assert_eq!(
            rung_variants(&lex(src)),
            vec!["Normal", "HoldLastSafe", "SafeMode"]
        );
    }
}
