//! `cargo xtask bench-ab <base-rev>` — the benchmark gate.
//!
//! Builds perfbench at `<base-rev>` and at `HEAD`, each from a
//! `git archive` of its commit under `target/bench-ab/<commit>/` with
//! HEAD's `perfbench/` and `BENCHMARK.json` laid over it, so both sides
//! run the same benchmark code and settings. It measures commits, not
//! the working tree, and never builds in the checkout's `perfbench/`.
//!
//! Every workload of HEAD's `BENCHMARK.json` runs in [`PAIRS`] pairs,
//! seeds 1 to [`PAIRS`], for the file's `run_seconds`; odd pairs run the
//! base first and even pairs HEAD first. For each workload and
//! end-to-end metric the gate compares the medians in the metric's
//! worse direction, relative to the base, against the metric's `bound`.
//!
//! Exit status: 0 when every median stays within its bound; 1 on a
//! regression, a run that exits non-zero or reports `"correct": false`,
//! or a larger failed share on HEAD; 2 when a side cannot be extracted,
//! built or parsed.

use crate::json::Json;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use tesla_linalg::stats::quantile;

/// Pairs of runs per workload: the fewest the benchmark guide accepts
/// for a median comparison.
pub const PAIRS: u64 = 10;

/// One `end_to_end` metric of `BENCHMARK.json`.
struct Metric {
    name: String,
    lower_is_better: bool,
    /// Largest tolerated worsening of the median, as a fraction.
    bound: f64,
}

/// What the gate reads from `BENCHMARK.json`.
struct Spec {
    workloads: Vec<String>,
    run_seconds: f64,
    metrics: Vec<Metric>,
}

fn parse_spec(text: &str) -> Result<Spec, String> {
    spec_of(&Json::parse(text)?).ok_or_else(|| {
        "BENCHMARK.json needs a positive `run_seconds`, named `workloads` and `end_to_end` \
         metrics with `name`, `better` (lower or higher) and `bound`"
            .into()
    })
}

/// `None` unless every field the gate reads is there and well formed.
fn spec_of(doc: &Json) -> Option<Spec> {
    let list = |key| doc.get(key)?.as_array();
    let name = |v: &Json| v.get("name")?.as_str().map(str::to_string);
    let metric = |m: &Json| {
        Some(Metric {
            name: name(m)?,
            lower_is_better: match m.get("better")?.as_str()? {
                "lower" => true,
                "higher" => false,
                _ => return None,
            },
            bound: m.get("bound")?.as_f64()?,
        })
    };
    let spec = Spec {
        workloads: list("workloads")?.iter().map(name).collect::<Option<_>>()?,
        run_seconds: doc.get("run_seconds")?.as_f64().filter(|s| *s > 0.0)?,
        metrics: list("end_to_end")?
            .iter()
            .map(metric)
            .collect::<Option<_>>()?,
    };
    (!spec.workloads.is_empty() && !spec.metrics.is_empty()).then_some(spec)
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Side {
    Base,
    Head,
}

/// One perfbench run: its parsed result line, `{"correct", "attempted",
/// "failed", "metrics": {<name>: {"value", "unit"}}}`, is `None` when a
/// failed run printed none.
struct Run {
    side: Side,
    workload: String,
    seed: u64,
    exit_ok: bool,
    result: Option<Json>,
}

impl Run {
    fn correct(&self) -> Option<bool> {
        self.result.as_ref()?.get("correct")?.as_bool()
    }
}

/// Judges recorded runs against the spec's bounds. Returns the table,
/// one row per workload × metric, and every reason the gate fails.
fn judge(spec: &Spec, runs: &[Run]) -> (String, Vec<String>) {
    let mut failures = Vec::new();
    for r in runs {
        let what = format!("{} {:?} seed {}", r.workload, r.side, r.seed);
        if !r.exit_ok {
            failures.push(format!("{what}: perfbench exited non-zero"));
        }
        if r.correct() == Some(false) {
            failures.push(format!("{what}: result line reports \"correct\": false"));
        }
    }
    let mut table = format!(
        "{:<12} {:<19} {:<30} {:<30} {:>8} {:>6}  verdict\n",
        "workload", "metric", "base median [q1, q3]", "HEAD median [q1, q3]", "change", "bound"
    );
    for workload in &spec.workloads {
        let results = |side| -> Vec<&Json> {
            runs.iter()
                .filter(|r| r.side == side && &r.workload == workload)
                .filter_map(|r| r.result.as_ref())
                .collect()
        };
        let (base, head) = (results(Side::Base), results(Side::Head));
        let failed_share = |rs: &[&Json]| {
            let sum = |key| rs.iter().filter_map(|r| r.get(key)?.as_f64()).sum::<f64>();
            sum("failed") / sum("attempted").max(1.0)
        };
        let (base_share, head_share) = (failed_share(&base), failed_share(&head));
        if head_share > base_share {
            failures.push(format!(
                "{workload}: HEAD failed share {head_share:.3e} exceeds the base's {base_share:.3e}"
            ));
        }
        for m in &spec.metrics {
            let quartiles = |rs: &[&Json]| {
                let values: Vec<f64> = rs
                    .iter()
                    .filter_map(|r| r.get("metrics")?.get(&m.name)?.get("value")?.as_f64())
                    .collect();
                [0.25, 0.5, 0.75].map(|q| quantile(&values, q))
            };
            let (b, h) = (quartiles(&base), quartiles(&head));
            let change = (h[1] - b[1]) / b[1].abs().max(f64::MIN_POSITIVE);
            let worse = if m.lower_is_better { change } else { -change };
            let regressed = worse.is_nan() || worse > m.bound;
            if regressed {
                let (name, pct, bound) = (&m.name, worse * 100.0, m.bound * 100.0);
                failures.push(format!(
                    "{workload} {name}: HEAD's median is {pct:.1}% worse, bound {bound:.0}%"
                ));
            }
            // The base runs alone spread wider than the bound, so a move
            // of that size cannot be told from noise.
            let unresolved = (b[2] - b[0]) / b[1].abs() > m.bound;
            let side = |q: [f64; 3]| format!("{} [{}, {}]", num(q[1]), num(q[0]), num(q[2]));
            table.push_str(&format!(
                "{workload:<12} {:<19} {:<30} {:<30} {:>+7.1}% {:>+5.0}%  {}{}\n",
                m.name,
                side(b),
                side(h),
                change * 100.0,
                if m.lower_is_better { 1.0 } else { -1.0 } * m.bound * 100.0,
                if regressed { "REGRESSED" } else { "ok" },
                if unresolved { " unresolved" } else { "" },
            ));
        }
    }
    (table, failures)
}

/// A value in at most a dozen columns with about four significant digits.
fn num(v: f64) -> String {
    match v.abs() {
        a if a >= 1e5 => format!("{v:.3e}"),
        a if a >= 100.0 => format!("{v:.1}"),
        a if a >= 1.0 => format!("{v:.3}"),
        _ => format!("{v:.4}"),
    }
}

/// Entry point for `cargo xtask bench-ab`.
pub fn run(args: &[String]) -> ExitCode {
    let [base_rev] = args else {
        eprintln!("usage: cargo xtask bench-ab <base-rev>");
        return ExitCode::from(2);
    };
    let (spec, runs) = match measure(&crate::workspace_root(), base_rev) {
        Ok(measured) => measured,
        Err(e) => {
            eprintln!("xtask bench-ab: {e}");
            return ExitCode::from(2);
        }
    };
    let (table, failures) = judge(&spec, &runs);
    print!("{table}");
    for f in &failures {
        eprintln!("xtask bench-ab: FAIL — {f}");
    }
    if failures.is_empty() {
        println!("xtask bench-ab: every median within its bound over {PAIRS} pairs");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Builds both sides and runs the pairs. Stops at the first run that
/// fails outright, since the gate has failed by then.
fn measure(root: &Path, base_rev: &str) -> Result<(Spec, Vec<Run>), String> {
    let head = rev_parse(root, "HEAD")?;
    let base = rev_parse(root, base_rev)?;
    let head_tree = prepare(root, &head, &head)?;
    let spec = fs::read_to_string(head_tree.join("BENCHMARK.json"));
    let spec = parse_spec(&spec.map_err(|e| format!("cannot read BENCHMARK.json: {e}"))?)?;
    build(&head_tree).map_err(|e| format!("HEAD {head} does not build its benchmark: {e}"))?;
    let base_tree = if base == head {
        head_tree.clone()
    } else {
        let tree = prepare(root, &base, &head)?;
        build(&tree).map_err(|e| format!("base {base} cannot build HEAD's benchmark: {e}"))?;
        tree
    };
    let (trees, secs) = ([base_tree, head_tree], spec.run_seconds);

    let mut runs = Vec::new();
    for seed in 1..=PAIRS {
        let mut order = [Side::Base, Side::Head];
        if seed % 2 == 0 {
            order.reverse();
        }
        for workload in &spec.workloads {
            for side in order {
                let run = run_once(&trees[side as usize], side, workload, seed, secs)?;
                let broken = !run.exit_ok || run.correct() == Some(false);
                runs.push(run);
                if broken {
                    return Ok((spec, runs));
                }
            }
        }
    }
    Ok((spec, runs))
}

fn rev_parse(root: &Path, rev: &str) -> Result<String, String> {
    let out = Command::new("git")
        .arg("-C")
        .arg(root)
        .args(["rev-parse", "--verify", "--quiet"])
        .arg(format!("{rev}^{{commit}}"))
        .output()
        .map_err(|e| format!("cannot run git: {e}"))?;
    let commit = String::from_utf8_lossy(&out.stdout).trim().to_string();
    if out.status.success() && !commit.is_empty() {
        Ok(commit)
    } else {
        Err(format!("`{rev}` does not name a commit"))
    }
}

/// Extracts the files of `commit` that `pathspecs` select into `dest`.
fn extract(root: &Path, commit: &str, pathspecs: &[String], dest: &Path) -> Result<(), String> {
    let mut git = Command::new("git")
        .arg("-C")
        .arg(root)
        .args(["archive", "--format=tar", commit, "--"])
        .args(pathspecs)
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot run git archive: {e}"))?;
    let tar = Command::new("tar")
        .args(["-x", "-f", "-", "-C"])
        .arg(dest)
        .stdin(git.stdout.take().expect("git archive's stdout is piped"))
        .status()
        .map_err(|e| format!("cannot run tar: {e}"))?;
    let archived = git.wait().map_err(|e| format!("git archive failed: {e}"))?;
    if archived.success() && tar.success() {
        Ok(())
    } else {
        Err(format!("cannot extract {commit} into {}", dest.display()))
    }
}

/// A fresh `target/bench-ab/<commit>/` tree: `commit` without its
/// benchmark, and HEAD's `perfbench/` and `BENCHMARK.json`. Each run
/// rebuilds from scratch: the extracted files carry their commit's time,
/// which cargo would not see as newer than an earlier build of a
/// different overlay.
fn prepare(root: &Path, commit: &str, head: &str) -> Result<PathBuf, String> {
    let tree = root.join("target/bench-ab").join(commit);
    let io = |e: std::io::Error| format!("cannot prepare {}: {e}", tree.display());
    if tree.exists() {
        fs::remove_dir_all(&tree).map_err(io)?;
    }
    fs::create_dir_all(&tree).map_err(io)?;
    let benchmark = ["perfbench", "BENCHMARK.json"].map(str::to_string);
    let rest = benchmark.clone().map(|p| format!(":(exclude){p}"));
    extract(root, commit, &rest, &tree)?;
    extract(root, head, &benchmark, &tree)?;
    Ok(tree)
}

fn build(tree: &Path) -> Result<(), String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--offline", "--manifest-path"])
        .arg(tree.join("perfbench/Cargo.toml"))
        .current_dir(tree)
        .env_remove("CARGO_TARGET_DIR")
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("cargo build exited with {status}"))
    }
}

/// Runs one workload from `tree` (tlp-mixed keeps its WAL under
/// `perfbench/.work` relative to the working directory).
fn run_once(tree: &Path, side: Side, workload: &str, seed: u64, secs: f64) -> Result<Run, String> {
    let started = Instant::now();
    let out = Command::new(tree.join("perfbench/target/release/tesla-perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &secs.to_string(), "--trace", "0"])
        .current_dir(tree)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run {side:?}'s perfbench: {e}"))?;
    let what = format!("pair {seed:>2} {workload:<12} {side:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().rev().find(|l| !l.trim().is_empty());
    let result = Json::parse(last.unwrap_or(""))
        .ok()
        .filter(|j| j.get("correct").and_then(Json::as_bool).is_some());
    if out.status.success() && result.is_none() {
        return Err(format!("{what}: the last line is no result line"));
    }
    eprintln!(
        "xtask bench-ab: {what} {} in {:.1} s",
        if out.status.success() { "ok" } else { "FAILED" },
        started.elapsed().as_secs_f64()
    );
    Ok(Run {
        side,
        workload: workload.to_string(),
        seed,
        exit_ok: out.status.success(),
        result,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = r#"{"run_seconds": 15, "workloads": [{"name": "zone-tesla"}],
        "end_to_end": [
            {"name": "throughput_per_s", "better": "higher", "bound": 0.25},
            {"name": "latency_p90_ms", "better": "lower", "bound": 0.25}]}"#;

    /// A run with a recorded result line.
    fn run(side: Side, seed: u64, correct: bool, failed: u32, throughput: f64, p90: f64) -> Run {
        let line = format!(
            "{{\"correct\": {correct}, \"attempted\": 1000, \"failed\": {failed}, \"metrics\": \
             {{\"throughput_per_s\": {{\"value\": {throughput}, \"unit\": \"1/s\"}}, \
             \"latency_p90_ms\": {{\"value\": {p90}, \"unit\": \"ms\"}}}}}}"
        );
        Run {
            side,
            workload: "zone-tesla".into(),
            seed,
            exit_ok: true,
            result: Some(Json::parse(&line).unwrap()),
        }
    }

    /// Ten pairs around 244/s and 5.16 ms, spread by up to twice
    /// `spread`, with HEAD's throughput and p90 scaled by the factors.
    fn pairs(spread: f64, throughput_factor: f64, p90_factor: f64) -> Vec<Run> {
        (1..=PAIRS)
            .flat_map(|seed| {
                let jitter = 1.0 + (seed % 3) as f64 * spread;
                let (t, p) = (244.0 * jitter, 5.16 * jitter);
                let head = (t * throughput_factor, p * p90_factor);
                [
                    run(Side::Base, seed, true, 0, t, p),
                    run(Side::Head, seed, true, 0, head.0, head.1),
                ]
            })
            .collect()
    }

    fn judge_spec(runs: &[Run]) -> (String, Vec<String>) {
        judge(&parse_spec(SPEC).unwrap(), runs)
    }

    #[test]
    fn benchmark_json_parses_and_malformed_specs_do_not() {
        let text = fs::read_to_string(crate::workspace_root().join("BENCHMARK.json")).unwrap();
        let spec = parse_spec(&text).unwrap();
        assert!(spec.workloads.contains(&"zone-tesla".to_string()) && spec.run_seconds > 0.0);
        let p90 = spec.metrics.iter().find(|m| m.name == "latency_p90_ms");
        assert!(p90.is_some_and(|m| m.lower_is_better && m.bound > 0.0));
        assert!(parse_spec(&SPEC.replace("\"higher\"", "\"up\"")).is_err());
        assert!(parse_spec("{\"run_seconds\": 15}").is_err());
    }

    /// No move, a move the better way however far, and a move inside the
    /// bound all pass.
    #[test]
    fn moves_within_the_bound_or_the_better_way_pass() {
        for (t, p) in [(1.0, 1.0), (1.5, 0.5), (0.8, 1.2)] {
            let (table, failures) = judge_spec(&pairs(0.01, t, p));
            assert!(failures.is_empty(), "{failures:?}");
            assert_eq!(table.lines().filter(|l| l.ends_with("  ok")).count(), 2);
        }
    }

    /// A 1.5x slower decide: throughput falls a third and p90 rises by
    /// half, and both `better` directions catch it.
    #[test]
    fn slowdown_fails_in_both_directions() {
        let (table, failures) = judge_spec(&pairs(0.01, 1.0 / 1.5, 1.5));
        assert_eq!(table.matches("REGRESSED").count(), 2);
        assert_eq!(failures.len(), 2);
        assert!(failures[0].contains("throughput_per_s"));
        assert!(failures[1].contains("latency_p90_ms"));
    }

    #[test]
    fn correct_false_and_a_nonzero_exit_fail() {
        let mut runs = pairs(0.01, 1.0, 1.0);
        runs[3] = run(Side::Head, 2, false, 0, 244.0, 5.16);
        runs[5].exit_ok = false;
        runs[5].result = None;
        let (_, failures) = judge_spec(&runs);
        assert_eq!(failures.len(), 2, "{failures:?}");
        assert!(failures[0].contains("\"correct\": false"));
        assert!(failures[1].contains("exited non-zero"));
    }

    #[test]
    fn higher_failed_share_fails_and_an_equal_one_passes() {
        let mut runs = pairs(0.01, 1.0, 1.0);
        runs[1] = run(Side::Head, 1, true, 3, 244.0, 5.16);
        let (_, failures) = judge_spec(&runs);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("failed share"));
        runs[0] = run(Side::Base, 1, true, 3, 244.0, 5.16);
        assert!(judge_spec(&runs).1.is_empty());
    }

    /// A base whose quartiles spread wider than the bound cannot tell a
    /// move of that size: the rows say so and still pass.
    #[test]
    fn wide_base_spread_is_unresolved() {
        let (table, failures) = judge_spec(&pairs(0.3, 1.0, 1.0));
        assert!(failures.is_empty());
        assert_eq!(table.matches("ok unresolved").count(), 2);
    }
}
