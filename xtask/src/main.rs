//! Workspace automation for the TESLA repro.
//!
//! - `cargo xtask lint [--deny] [--report <path>]` runs the nine local
//!   rules of `lints.rs`, each over the crates [`LINT_SCOPES`] gives it.
//! - `cargo xtask analyze` runs the four call-graph rules of
//!   `tesla-analysis` (see `analyze.rs`).
//! - `check-fixtures` and `check-links` check the rules' fixtures and the
//!   docs' relative links; `bench-ab <base-rev>` is the benchmark gate
//!   (see `bench.rs`).
//!
//! `lint` and `analyze` read one [`Workspace`] built from the same source
//! list, allow a finding by the same `lint:allow(<rule>)` check, and
//! write the same JSON report. See DESIGN.md ("Static analysis & unit
//! safety") for the rationale.
//!
//! Exit status: 0 when no active (non-allowlisted) findings, or when
//! run without `--deny`; 1 with `--deny` and active findings; 2 on
//! usage or I/O errors.

#![forbid(unsafe_code)]

mod analyze;
mod bench;
mod json;
mod links;
mod lints;

use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use tesla_analysis::{count_by_rule, Finding, RuleCounts, Workspace};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint(&args[1..]),
        Some("analyze") => analyze::run(&args[1..]),
        Some("check-fixtures") => check_fixtures(),
        Some("check-links") => check_links(),
        Some("bench-ab") => bench::run(&args[1..]),
        Some("help") | Some("--help") | Some("-h") | None => {
            print_usage();
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("xtask: unknown command `{other}`");
            print_usage();
            ExitCode::from(2)
        }
    }
}

fn print_usage() {
    eprintln!(
        "usage: cargo xtask <command>\n\n\
         commands:\n  \
         lint [--deny] [--report <path>]   run the static-analysis pass\n    \
           --deny            exit nonzero on any non-allowlisted finding\n    \
           --report <path>   JSON report path (default target/lint-report.json)\n  \
         analyze [--deny] [--report <path>] [--baseline <path>] [--write-baseline]\n    \
                                           call-graph analysis: panic-freedom, hot-path\n    \
                                           allocation, lock-order, deadline-blocking\n    \
           --deny            exit nonzero when a rule exceeds its baseline count\n    \
           --write-baseline  record current active counts as the new ratchet\n  \
         check-fixtures                    every rule must have TP and TN fixtures\n  \
         check-links                       verify relative links in markdown docs\n  \
         bench-ab <base-rev>               run perfbench at <base-rev> and HEAD in {} alternating\n    \
                                           pairs; fail when a median moves past its BENCHMARK.json bound",
        bench::PAIRS
    );
}

/// Crates scanned per rule (paths relative to the workspace root).
const CONTROL_CRATES: [&str; 3] = ["crates/core/src", "crates/sim/src", "crates/forecast/src"];
const UNWRAP_CRATES: [&str; 3] = ["crates/core/src", "crates/sim/src", "crates/fleet/src"];
const RUNG_CRATES: [&str; 1] = ["crates/core/src"];
/// The fleet crate's public surface addresses zones; its sources are
/// the scope of `no-raw-zone-index-in-public-api`.
const FLEET_CRATES: [&str; 1] = ["crates/fleet/src"];
/// The historian owns the WAL; its sources are the scope of
/// `no-unchecked-wal-read`.
const WAL_CRATES: [&str; 1] = ["crates/historian/src"];
/// The control-plane crate owns the checkpoint codec; its sources are
/// the scope of `no-unframed-checkpoint-read`.
const CHECKPOINT_CRATES: [&str; 1] = ["crates/core/src"];
/// Every crate that emits metrics through tesla-obs.
const METRIC_CRATES: [&str; 8] = [
    "crates/core/src",
    "crates/sim/src",
    "crates/forecast/src",
    "crates/bo/src",
    "crates/obs/src",
    "crates/historian/src",
    "crates/net/src",
    "crates/fleet/src",
];
/// Crates whose code runs on (or is called from) reactor sweep
/// threads; the scope of `no-blocking-io-in-reactor`.
const REACTOR_CRATES: [&str; 2] = ["crates/reactor/src", "crates/net/src"];
const SUPERVISOR_PATH: &str = "crates/core/src/supervisor.rs";

/// Each lint rule with the crates it scans.
const LINT_SCOPES: [(&str, &[&str]); 9] = [
    (lints::RULE_RAW_F64, &CONTROL_CRATES),
    (lints::RULE_UNWRAP, &UNWRAP_CRATES),
    (lints::RULE_RUNG, &RUNG_CRATES),
    (lints::RULE_SETPOINT, &CONTROL_CRATES),
    (lints::RULE_METRIC, &METRIC_CRATES),
    (lints::RULE_WAL, &WAL_CRATES),
    (lints::RULE_CHECKPOINT, &CHECKPOINT_CRATES),
    (lints::RULE_REACTOR, &REACTOR_CRATES),
    (lints::RULE_ZONE_INDEX, &FLEET_CRATES),
];

/// Every lint finding in the workspace at `root`, sorted by file, line
/// and rule, and the `Rung` variants the rung rule checked against.
fn lint_workspace(root: &Path) -> Result<(Vec<Finding>, Vec<String>), String> {
    let ws = Workspace::from_sources(analyze::workspace_sources(root)?);
    let variants = ws
        .paths
        .iter()
        .position(|p| p == SUPERVISOR_PATH)
        .map(|f| lints::rung_variants(&ws.tokens[f]))
        .unwrap_or_default();
    if variants.is_empty() {
        return Err(format!(
            "failed to extract Rung variants from {SUPERVISOR_PATH}"
        ));
    }
    let mut findings = Vec::new();
    for (file, path) in ws.paths.iter().enumerate() {
        let src = lints::Source::new(&ws, file);
        for (rule, scope) in LINT_SCOPES {
            if scope.iter().any(|dir| path.starts_with(&format!("{dir}/"))) {
                findings.extend(lints::check(rule, &src, &variants));
            }
        }
    }
    findings
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    Ok((findings, variants))
}

fn lint(args: &[String]) -> ExitCode {
    let mut deny = false;
    let mut report_path = PathBuf::from("target/lint-report.json");
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--deny" => deny = true,
            "--report" => match it.next() {
                Some(p) => report_path = PathBuf::from(p),
                None => {
                    eprintln!("xtask lint: --report needs a path");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("xtask lint: unknown flag `{other}`");
                return ExitCode::from(2);
            }
        }
    }

    let started = Instant::now();
    let root = workspace_root();
    let findings = match lint_workspace(&root) {
        Ok((findings, _)) => findings,
        Err(e) => {
            eprintln!("xtask lint: {e}");
            return ExitCode::from(2);
        }
    };
    let counts = count_by_rule(&lints::ALL_RULES, &findings);
    let active: usize = counts.active.values().sum();
    for f in findings.iter().filter(|f| !f.allowed) {
        println!("{}:{}: [{}] {}", f.file, f.line, f.rule, f.message);
    }
    println!(
        "xtask lint: {active} finding(s), {} allowlisted, rules: {}",
        findings.len() - active,
        lints::ALL_RULES.join(", ")
    );

    let report = render_report(&findings, &counts, started.elapsed().as_secs_f64());
    match write_file(&root, &report_path, &report) {
        Ok(path) => println!("xtask lint: report written to {}", path.display()),
        Err(e) => {
            eprintln!("xtask lint: {e}");
            return ExitCode::from(2);
        }
    }

    if deny && active > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Every rule must keep one true-positive and one true-negative
/// fixture, and each fixture must be exercised by a test
/// (`include_str!` in xtask sources). Loses a fixture, fails CI.
fn required_fixtures() -> Vec<(&'static str, String, String)> {
    let lint_stems = [
        (lints::RULE_RAW_F64, "raw_f64"),
        (lints::RULE_UNWRAP, "unwrap"),
        (lints::RULE_RUNG, "rung"),
        (lints::RULE_SETPOINT, "setpoint_literal"),
        (lints::RULE_METRIC, "metric_name"),
        (lints::RULE_WAL, "wal_read"),
        (lints::RULE_CHECKPOINT, "checkpoint_read"),
        (lints::RULE_REACTOR, "reactor_io"),
        (lints::RULE_ZONE_INDEX, "zone_index"),
    ];
    let analysis_stems = [
        (tesla_analysis::RULE_PANIC, "analysis/panic"),
        (tesla_analysis::RULE_ALLOC, "analysis/alloc"),
        (tesla_analysis::RULE_LOCK, "analysis/lock_order"),
        (tesla_analysis::RULE_BLOCKING, "analysis/blocking"),
    ];
    lint_stems
        .iter()
        .chain(analysis_stems.iter())
        .map(|(rule, stem)| {
            (
                *rule,
                format!("xtask/fixtures/{stem}_tp.rs"),
                format!("xtask/fixtures/{stem}_tn.rs"),
            )
        })
        .collect()
}

fn check_fixtures() -> ExitCode {
    let root = workspace_root();
    // All xtask sources, concatenated, to verify each fixture is
    // actually referenced by a test.
    let mut test_src = String::new();
    for file in rust_files(&root.join("xtask/src")) {
        if let Ok(s) = fs::read_to_string(&file) {
            test_src.push_str(&s);
        }
    }
    let mut problems = Vec::new();
    for (rule, tp, tn) in required_fixtures() {
        for path in [&tp, &tn] {
            if !root.join(path).is_file() {
                problems.push(format!("rule `{rule}`: missing fixture {path}"));
                continue;
            }
            let name = path.rsplit('/').next().unwrap_or(path);
            // include_str! paths in xtask are relative to src/, so the
            // file name is the stable thing to look for.
            if !test_src.contains(name) {
                problems.push(format!(
                    "rule `{rule}`: fixture {path} is not referenced by any xtask test"
                ));
            }
        }
    }
    for p in &problems {
        eprintln!("xtask check-fixtures: {p}");
    }
    println!(
        "xtask check-fixtures: {} rule(s) checked, {} problem(s)",
        required_fixtures().len(),
        problems.len()
    );
    if problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn check_links() -> ExitCode {
    let root = workspace_root();
    let files = links::markdown_files(&root);
    let broken = links::check_links(&root);
    for b in &broken {
        println!("{}:{}: broken link `{}`", b.file, b.line, b.target);
    }
    println!(
        "xtask check-links: {} markdown file(s), {} broken link(s)",
        files.len(),
        broken.len()
    );
    if broken.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn workspace_root() -> PathBuf {
    root_from(std::env::var_os("CARGO_MANIFEST_DIR"))
}

/// The workspace to check. `cargo run` (and so `cargo xtask`) sets
/// `CARGO_MANIFEST_DIR` at run time to the xtask package of the
/// checkout it runs in, which is the one to read even when the binary
/// was built in another checkout (a copied `target/`). Without it, the
/// checkout the binary was compiled in. xtask lives at `<root>/xtask`.
fn root_from(runtime_manifest_dir: Option<std::ffi::OsString>) -> PathBuf {
    let manifest = runtime_manifest_dir
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")));
    manifest
        .parent()
        .expect("xtask sits inside the workspace")
        .to_path_buf()
}

/// Recursively collects `.rs` files under `dir`, sorted for stable output.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let Ok(entries) = fs::read_dir(dir) else {
        return out;
    };
    let mut entries: Vec<_> = entries.flatten().collect();
    entries.sort_by_key(|e| e.path());
    for entry in entries {
        let path = entry.path();
        if path.is_dir() {
            out.extend(rust_files(&path));
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    out
}

/// Writes `body` to `path` (relative to `root` unless absolute),
/// creating its directory; returns the path written.
fn write_file(root: &Path, path: &Path, body: &str) -> Result<PathBuf, String> {
    let path = root.join(path);
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent)
            .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
    }
    fs::write(&path, body).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
}

/// The JSON report `lint` and `analyze` both write, hand-rolled (the
/// workspace has no serde) in a stable key order: every finding, the
/// active and allowlisted counts in total and per rule, and wall time.
fn render_report(findings: &[Finding], counts: &RuleCounts, wall_time_seconds: f64) -> String {
    let mut s = String::from("{\n  \"findings\": [\n");
    for (i, f) in findings.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"allowed\": {}, \
             \"message\": \"{}\", \"witness\": \"{}\"}}{}\n",
            json_escape(f.rule),
            json_escape(&f.file),
            f.line,
            f.allowed,
            json_escape(&f.message),
            json_escape(&f.witness),
            if i + 1 < findings.len() { "," } else { "" }
        ));
    }
    let active: usize = counts.active.values().sum();
    let allowed: usize = counts.allowed.values().sum();
    let rules: std::collections::BTreeSet<&str> = counts
        .active
        .keys()
        .chain(counts.allowed.keys())
        .copied()
        .collect();
    let per_rule: Vec<String> = rules
        .iter()
        .map(|rule| {
            format!(
                "    \"{}\": {{\"active\": {}, \"allowed\": {}}}",
                json_escape(rule),
                counts.active.get(rule).unwrap_or(&0),
                counts.allowed.get(rule).unwrap_or(&0)
            )
        })
        .collect();
    s.push_str(&format!(
        "  ],\n  \"counts\": {{\"active\": {active}, \"allowed\": {allowed}, \"total\": {}}},\n  \
         \"rules\": {{\n{}\n  }},\n  \"wall_time_seconds\": {wall_time_seconds:.3}\n}}\n",
        active + allowed,
        per_rule.join(",\n")
    ));
    s
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_report_shape() {
        let findings = vec![Finding {
            rule: "no-unwrap-in-control-path",
            file: "crates/core/src/x.rs".to_string(),
            line: 3,
            message: "unwrap() in control path".to_string(),
            witness: String::new(),
            allowed: false,
        }];
        let counts = count_by_rule(&lints::ALL_RULES, &findings);
        let json = render_report(&findings, &counts, 1.5);
        assert!(json.contains("\"rule\": \"no-unwrap-in-control-path\""));
        assert!(json.contains("\"line\": 3"));
        assert!(json.contains("\"counts\": {\"active\": 1, \"allowed\": 0, \"total\": 1}"));
        assert!(json.contains("\"wall_time_seconds\": 1.500"));
    }

    /// Every required fixture exists and is referenced from a test —
    /// the same invariant `cargo xtask check-fixtures` enforces in CI.
    #[test]
    fn required_fixtures_present_and_referenced() {
        let root = workspace_root();
        let mut test_src = String::new();
        for file in rust_files(&root.join("xtask/src")) {
            test_src.push_str(&fs::read_to_string(&file).unwrap_or_default());
        }
        for (rule, tp, tn) in required_fixtures() {
            for path in [&tp, &tn] {
                assert!(root.join(path).is_file(), "rule `{rule}`: missing {path}");
                let name = path.rsplit('/').next().unwrap_or(path);
                assert!(
                    test_src.contains(name),
                    "rule `{rule}`: fixture {path} not referenced by any test"
                );
            }
        }
    }

    /// The lint gate over the real workspace: no active finding, and the
    /// rung rule saw the ladder. A new `.unwrap()` in `crates/core` fails
    /// here.
    #[test]
    fn real_workspace_lints_clean() {
        let (findings, variants) = lint_workspace(&workspace_root()).expect("workspace lints");
        assert!(!variants.is_empty(), "no Rung variants found");
        let active: Vec<_> = findings.iter().filter(|f| !f.allowed).collect();
        assert!(active.is_empty(), "active lint findings: {active:?}");
    }

    #[test]
    fn the_run_time_manifest_dir_names_the_checkout() {
        let copy = Path::new("/elsewhere/copy-of-the-repo");
        assert_eq!(root_from(Some(copy.join("xtask").into_os_string())), copy);
    }

    #[test]
    fn without_a_run_time_manifest_dir_the_build_checkout_is_used() {
        let built = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap();
        assert_eq!(root_from(None), built);
        assert!(built.join("Cargo.toml").is_file());
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
