//! `tesla-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload, prints a table of every metric (name, value,
//! unit, sample count) and the run metadata, and ends with one JSON
//! result line: end-to-end metrics with `--trace 0`, per-layer metrics
//! of the traced run with `--trace 1`. Exits non-zero when an output
//! check fails. `--workload all` runs the three in turn, each in its own
//! process (so each peak RSS is its own), and fails if any fails.

use std::process::{Command, ExitCode};

use tesla_perfbench::report::{self, RunReport};
use tesla_perfbench::{fleet, tlp, zone};

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: &[&str] = &["zone-tesla", "fleet-lazic", "tlp-mixed"];

fn arg(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn usage(why: &str) -> ExitCode {
    eprintln!("error: {why}");
    eprintln!(
        "usage: tesla-perfbench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--generator") {
        return tlp::generator_main(&args);
    }
    let Some(workload) = arg(&args, "--workload") else {
        return usage("--workload is required");
    };
    let Some(seed) = arg(&args, "--seed").and_then(|s| s.parse::<u64>().ok()) else {
        return usage("--seed <non-negative integer> is required");
    };
    let Some(seconds) = arg(&args, "--seconds")
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|s| *s > 0.0 && s.is_finite())
    else {
        return usage("--seconds <positive number> is required");
    };
    let trace = match arg(&args, "--trace").as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return usage(&format!("--trace takes 0 or 1, not {other}")),
    };
    if workload == "all" {
        return run_all(&args);
    }
    tesla_obs::set_enabled(false);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let steal_before = report::steal_seconds();

    let result: Result<RunReport, String> = match workload.as_str() {
        "zone-tesla" => zone::run(&zone::ZoneParams::for_seconds(seed, seconds), trace)
            .map_err(|e| e.to_string()),
        "fleet-lazic" => fleet::run(
            &fleet::FleetParams::for_seconds(seed, seconds, nproc),
            trace,
        )
        .map_err(|e| e.to_string()),
        "tlp-mixed" => tlp::run(&tlp::TlpParams::for_seconds(seed, seconds), trace),
        other => return usage(&format!("unknown workload {other}")),
    };
    let mut run = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {workload} failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(rss) = run.end_to_end.iter_mut().find(|s| s.name == "peak_rss_mb") {
        rss.value = report::peak_rss_mb();
    }
    let steal = match (steal_before, report::steal_seconds()) {
        (Some(a), Some(b)) => format!("{:.2}", b - a),
        _ => "unavailable".into(),
    };
    println!(
        "workload {workload}  seed {seed}  seconds {seconds}  trace {}  commit {}  nproc {nproc}  workers {}  steal_s {steal}",
        u8::from(trace),
        report::commit(),
        run.workers,
    );
    report::print_table(&run, trace);
    println!("{}", report::result_json(&run, trace));
    if run.check_failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload in a child process of its own with the same
/// arguments; fails when any child fails.
fn run_all(args: &[String]) -> ExitCode {
    let Ok(exe) = std::env::current_exe() else {
        return usage("cannot locate this executable");
    };
    let mut ok = true;
    for w in WORKLOADS {
        let child_args: Vec<&str> = args[1..]
            .iter()
            .map(|a| if a == "all" { *w } else { a.as_str() })
            .collect();
        let status = Command::new(&exe).args(child_args).status();
        ok &= status.is_ok_and(|s| s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
