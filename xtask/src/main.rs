//! Workspace automation for the TESLA repro.
//!
//! `cargo xtask lint [--deny] [--report <path>]` runs the custom
//! static-analysis pass over the control crates (`crates/core`,
//! `crates/sim`, `crates/forecast`). See `lints.rs` for the rules and
//! DESIGN.md ("Static analysis & unit safety") for the rationale.
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

use lints::Finding;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

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
    let supervisor_src = match fs::read_to_string(root.join(SUPERVISOR_PATH)) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("xtask lint: cannot read {SUPERVISOR_PATH}: {e}");
            return ExitCode::from(2);
        }
    };
    let variants = lints::rung_variants(&supervisor_src);
    if variants.is_empty() {
        eprintln!("xtask lint: failed to extract Rung variants from {SUPERVISOR_PATH}");
        return ExitCode::from(2);
    }

    // One job per (rule, file); the file pass fans out across threads
    // and each worker reads, masks, and checks independently.
    let mut jobs: Vec<(&'static str, PathBuf, String)> = Vec::new();
    for (scope, rule) in [
        (&CONTROL_CRATES[..], lints::RULE_RAW_F64),
        (&UNWRAP_CRATES[..], lints::RULE_UNWRAP),
        (&RUNG_CRATES[..], lints::RULE_RUNG),
        (&CONTROL_CRATES[..], lints::RULE_SETPOINT),
        (&METRIC_CRATES[..], lints::RULE_METRIC),
        (&WAL_CRATES[..], lints::RULE_WAL),
        (&CHECKPOINT_CRATES[..], lints::RULE_CHECKPOINT),
        (&REACTOR_CRATES[..], lints::RULE_REACTOR),
        (&FLEET_CRATES[..], lints::RULE_ZONE_INDEX),
    ] {
        for dir in scope {
            for file in rust_files(&root.join(dir)) {
                let rel = file
                    .strip_prefix(&root)
                    .unwrap_or(&file)
                    .to_string_lossy()
                    .replace('\\', "/");
                jobs.push((rule, file, rel));
            }
        }
    }
    let nthreads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
        .min(jobs.len().max(1));
    let chunk = jobs.len().div_ceil(nthreads.max(1)).max(1);
    let mut findings: Vec<Finding> = Vec::new();
    let mut errors: Vec<String> = Vec::new();
    std::thread::scope(|scope| {
        let variants = &variants;
        let mut handles = Vec::new();
        for slice in jobs.chunks(chunk) {
            handles.push(scope.spawn(move || {
                let mut out: Vec<Finding> = Vec::new();
                let mut errs: Vec<String> = Vec::new();
                for (rule, file, rel) in slice {
                    let src = match fs::read_to_string(file) {
                        Ok(s) => s,
                        Err(e) => {
                            errs.push(format!("cannot read {rel}: {e}"));
                            continue;
                        }
                    };
                    let lines: Vec<&str> = src.lines().collect();
                    let mask = lints::test_line_mask(&lines);
                    let batch = match *rule {
                        lints::RULE_RAW_F64 => lints::check_raw_f64(rel, &lines, &mask),
                        lints::RULE_UNWRAP => lints::check_unwrap(rel, &lines, &mask),
                        lints::RULE_RUNG => lints::check_rung_matches(rel, &lines, &mask, variants),
                        lints::RULE_METRIC => lints::check_metric_names(rel, &lines, &mask),
                        lints::RULE_WAL => lints::check_wal_reads(rel, &lines, &mask),
                        lints::RULE_CHECKPOINT => lints::check_checkpoint_reads(rel, &lines, &mask),
                        lints::RULE_REACTOR => lints::check_reactor_blocking(rel, &lines, &mask),
                        lints::RULE_ZONE_INDEX => lints::check_zone_index(rel, &lines, &mask),
                        _ => lints::check_setpoint_literal(rel, &lines, &mask),
                    };
                    out.extend(batch);
                }
                (out, errs)
            }));
        }
        for h in handles {
            let (out, errs) = h.join().expect("lint worker thread panicked");
            findings.extend(out);
            errors.extend(errs);
        }
    });
    if !errors.is_empty() {
        for e in &errors {
            eprintln!("xtask lint: {e}");
        }
        return ExitCode::from(2);
    }
    findings
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));

    let active: Vec<&Finding> = findings.iter().filter(|f| !f.allowed).collect();
    let allowed_count = findings.len() - active.len();

    for f in &active {
        println!("{}:{}: [{}] {}", f.file, f.line, f.rule, f.message);
    }
    println!(
        "xtask lint: {} finding(s), {} allowlisted, rules: {}",
        active.len(),
        allowed_count,
        lints::ALL_RULES.join(", ")
    );

    let report = render_report(&findings, started.elapsed().as_secs_f64());
    let report_abs = if report_path.is_absolute() {
        report_path.clone()
    } else {
        root.join(&report_path)
    };
    if let Some(parent) = report_abs.parent() {
        if let Err(e) = fs::create_dir_all(parent) {
            eprintln!("xtask lint: cannot create {}: {e}", parent.display());
            return ExitCode::from(2);
        }
    }
    if let Err(e) = fs::write(&report_abs, report) {
        eprintln!("xtask lint: cannot write {}: {e}", report_abs.display());
        return ExitCode::from(2);
    }
    println!("xtask lint: report written to {}", report_abs.display());

    if deny && !active.is_empty() {
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
    // xtask lives at <root>/xtask.
    Path::new(env!("CARGO_MANIFEST_DIR"))
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

/// Hand-rolled JSON (the workspace has no serde): findings plus summary
/// counts and wall time, stable key order.
fn render_report(findings: &[Finding], wall_time_seconds: f64) -> String {
    let active = findings.iter().filter(|f| !f.allowed).count();
    let mut s = String::from("{\n  \"findings\": [\n");
    for (i, f) in findings.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"allowed\": {}, \"message\": \"{}\"}}{}\n",
            json_escape(f.rule),
            json_escape(&f.file),
            f.line,
            f.allowed,
            json_escape(&f.message),
            if i + 1 < findings.len() { "," } else { "" }
        ));
    }
    s.push_str(&format!(
        "  ],\n  \"counts\": {{\"active\": {}, \"allowed\": {}, \"total\": {}}},\n  \
         \"wall_time_seconds\": {wall_time_seconds:.3}\n}}\n",
        active,
        findings.len() - active,
        findings.len()
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
            allowed: false,
        }];
        let json = render_report(&findings, 1.5);
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

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
