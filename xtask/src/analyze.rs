//! `cargo xtask analyze` — drives the tesla-analysis call-graph engine
//! over the workspace and gates findings against a committed baseline.
//!
//! The engine proves reachability properties from declared roots (see
//! [`workspace_rule_config`]): panic-freedom on the control path, no
//! steady-state heap allocation under `TeslaController::decide`,
//! `LazicController::decide` and `Testbed::step_sample_into`, a global
//! lock acquisition order, and no
//! blocking calls inside the deadline-bounded `Supervisor::decide`
//! path. Findings are gated by a ratchet: `analysis-baseline.json`
//! records the allowed active count per rule and, under
//! `file-waivers:<rule>`, how many files waive the rule with
//! `analysis:allow-file`; `--deny` fails when a count grows, and the
//! baseline only ever goes down (`--write-baseline` after a burn-down).

use std::collections::BTreeMap;
use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use crate::json::Json;
use tesla_analysis::{
    count_by_rule, LockClass, LockOrderConfig, RuleConfig, Workspace, RULE_ALLOC, RULE_BLOCKING,
    RULE_LOCK, RULE_PANIC,
};

/// The four interprocedural rules, in report order.
pub const ANALYSIS_RULES: [&str; 4] = [RULE_LOCK, RULE_ALLOC, RULE_BLOCKING, RULE_PANIC];

/// Default committed baseline path, relative to the workspace root.
pub const BASELINE_PATH: &str = "analysis-baseline.json";

/// Roots, lock classes, and the declared lock order for this workspace.
///
/// Root specs are `Type::method` (resolved against parsed impl blocks)
/// or bare fn names. Every root must resolve; a rename that orphans a
/// root fails the run rather than silently proving nothing.
pub fn workspace_rule_config() -> RuleConfig {
    RuleConfig {
        panic_roots: [
            // The per-minute decision path.
            "TeslaController::decide",
            "Supervisor::decide",
            "Supervisor::end_of_minute",
            // Checkpoint write/read.
            "Checkpoint::encode",
            "Checkpoint::decode",
            "CheckpointStore::write",
            "CheckpointStore::latest_valid",
            // WAL append/apply/recovery.
            "WalWriter::append",
            "recover",
            "Historian::apply_batch",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect(),
        alloc_roots: vec![
            "TeslaController::decide".to_string(),
            "LazicController::decide".to_string(),
            // The plant's one-minute step, which every zone of a fleet
            // runs each minute.
            "Testbed::step_sample_into".to_string(),
        ],
        blocking_roots: vec![
            "Supervisor::decide".to_string(),
            // One reactor sweep: everything a shard thread runs per
            // connection per tick. Anything blocking reachable from here
            // stalls every other connection on the shard.
            "ReactorShard::poll_once".to_string(),
        ],
        lock: LockOrderConfig {
            classes: vec![
                LockClass {
                    name: "historian.shard".into(),
                    file_substr: "crates/historian/".into(),
                    recv_substr: "shard".into(),
                },
                LockClass {
                    name: "obs.registry.shard".into(),
                    file_substr: "crates/obs/".into(),
                    recv_substr: "metrics".into(),
                },
                LockClass {
                    name: "obs.trace.ring".into(),
                    file_substr: "crates/obs/".into(),
                    recv_substr: "ring".into(),
                },
            ],
            // Outermost first.
            order: vec![
                "historian.shard".into(),
                "obs.registry.shard".into(),
                "obs.trace.ring".into(),
            ],
        },
    }
}

/// Reads every `.rs` file under `crates/` into `(repo-relative path,
/// content)` pairs: the one source list of both `analyze` and `lint`.
pub fn workspace_sources(root: &std::path::Path) -> Result<Vec<(String, String)>, String> {
    let mut sources = Vec::new();
    for file in crate::rust_files(&root.join("crates")) {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        // Developer tooling and the measurement harness are not
        // control-plane code: the analysis engine's fns are named after
        // the patterns they match, and the bench harness replays
        // recorded frames offline. Scanning either only adds
        // name-collision edges into the graph.
        if rel.starts_with("crates/analysis/") || rel.starts_with("crates/bench/") {
            continue;
        }
        let content = fs::read_to_string(&file).map_err(|e| format!("cannot read {rel}: {e}"))?;
        sources.push((rel, content));
    }
    Ok(sources)
}

/// Entry point for `cargo xtask analyze`.
pub fn run(args: &[String]) -> ExitCode {
    let mut deny = false;
    let mut write_baseline = false;
    let mut report_path = PathBuf::from("target/analysis-report.json");
    let mut baseline_path = PathBuf::from(BASELINE_PATH);
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--deny" => deny = true,
            "--write-baseline" => write_baseline = true,
            "--report" => match it.next() {
                Some(p) => report_path = PathBuf::from(p),
                None => {
                    eprintln!("xtask analyze: --report needs a path");
                    return ExitCode::from(2);
                }
            },
            "--baseline" => match it.next() {
                Some(p) => baseline_path = PathBuf::from(p),
                None => {
                    eprintln!("xtask analyze: --baseline needs a path");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("xtask analyze: unknown flag `{other}`");
                return ExitCode::from(2);
            }
        }
    }

    let started = Instant::now();
    let root = crate::workspace_root();
    let sources = match workspace_sources(&root) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("xtask analyze: {e}");
            return ExitCode::from(2);
        }
    };
    let n_files = sources.len();
    let ws = Workspace::from_sources(sources);
    let cfg = workspace_rule_config();

    // A root that no longer resolves proves nothing — fail loudly.
    let mut unresolved = Vec::new();
    for spec in cfg
        .panic_roots
        .iter()
        .chain(&cfg.alloc_roots)
        .chain(&cfg.blocking_roots)
    {
        if ws.resolve_root(spec).is_empty() {
            unresolved.push(spec.clone());
        }
    }
    if !unresolved.is_empty() {
        eprintln!(
            "xtask analyze: root(s) failed to resolve (renamed?): {}",
            unresolved.join(", ")
        );
        return ExitCode::from(2);
    }

    let findings = ws.analyze(&cfg);
    let wall = started.elapsed().as_secs_f64();
    let counts = count_by_rule(&ANALYSIS_RULES, &findings);

    for f in findings.iter().filter(|f| !f.allowed) {
        println!("{}:{}: [{}] {}", f.file, f.line, f.rule, f.message);
        println!("    witness: {}", f.witness);
    }
    let total_active: usize = counts.active.values().sum();
    let total_allowed: usize = counts.allowed.values().sum();
    println!(
        "xtask analyze: {n_files} file(s), {} fn(s), {total_active} active finding(s), \
         {total_allowed} allowlisted, {wall:.2}s",
        ws.graph.fns.len()
    );

    let report = crate::render_report(&findings, &counts, wall);
    match crate::write_file(&root, &report_path, &report) {
        Ok(path) => println!("xtask analyze: report written to {}", path.display()),
        Err(e) => {
            eprintln!("xtask analyze: {e}");
            return ExitCode::from(2);
        }
    }

    // Baseline ratchet.
    let ratchet_now = ratchet_counts(&counts.active, &ws);
    if write_baseline {
        return match crate::write_file(&root, &baseline_path, &render_baseline(&ratchet_now)) {
            Ok(path) => {
                println!("xtask analyze: baseline written to {}", path.display());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("xtask analyze: {e}");
                ExitCode::from(2)
            }
        };
    }
    let baseline_abs = root.join(&baseline_path);
    let baseline = match fs::read_to_string(&baseline_abs).map(|s| parse_baseline(&s)) {
        Ok(Ok(b)) => b,
        Ok(Err(e)) => {
            eprintln!("xtask analyze: {}: {e}", baseline_abs.display());
            return ExitCode::from(2);
        }
        Err(_) => {
            eprintln!(
                "xtask analyze: no baseline at {} (run with --write-baseline to create one); \
                 treating all rules as baseline 0",
                baseline_abs.display()
            );
            BTreeMap::new()
        }
    };
    let mut regressed = false;
    for (key, now, base) in ratchet(&ratchet_now, &baseline) {
        if now > base {
            eprintln!("xtask analyze: RATCHET — `{key}` is {now}, baseline allows {base}");
            regressed = true;
        } else {
            println!(
                "xtask analyze: `{key}` improved to {now} (baseline {base}); \
                 ratchet down with --write-baseline"
            );
        }
    }
    if deny && regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// The ratcheted counts, each of which may only fall: active findings
/// under the rule's name, and under `file-waivers:<rule>` the files that
/// waive the rule with `analysis:allow-file`.
pub type Counts = BTreeMap<String, usize>;

/// The [`Counts`] of a run.
pub fn ratchet_counts(active: &BTreeMap<&str, usize>, ws: &Workspace) -> Counts {
    let waivers =
        ANALYSIS_RULES.map(|rule| (format!("file-waivers:{rule}"), ws.file_waivers(rule)));
    active
        .iter()
        .map(|(rule, n)| (rule.to_string(), *n))
        .chain(waivers)
        .collect()
}

/// Every count that differs from its baseline, as `(key, now, baseline)`;
/// a key the baseline lacks counts as 0 there. A rise fails `--deny`.
pub fn ratchet(counts: &Counts, baseline: &Counts) -> Vec<(String, usize, usize)> {
    counts
        .iter()
        .map(|(key, &n)| (key.clone(), n, baseline.get(key).copied().unwrap_or(0)))
        .filter(|(_, n, b)| n != b)
        .collect()
}

/// Renders the committed baseline: a flat key -> count map.
pub fn render_baseline(counts: &Counts) -> String {
    let rows: Vec<String> = counts
        .iter()
        .map(|(key, n)| format!("  \"{key}\": {n}"))
        .collect();
    format!("{{\n{}\n}}\n", rows.join(",\n"))
}

/// Parses the flat `"key": count` baseline [`render_baseline`] writes.
pub fn parse_baseline(s: &str) -> Result<Counts, String> {
    let Json::Object(members) = Json::parse(s)? else {
        return Err("the baseline is not a JSON object".into());
    };
    members
        .into_iter()
        .map(|(key, n)| match n.as_f64() {
            Some(n) if n >= 0.0 && n.fract() == 0.0 => Ok((key, n as usize)),
            _ => Err(format!("`{key}` is not a count")),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tesla_analysis::{Finding, Workspace};

    fn fixture_ws(files: &[(&str, &str)]) -> Workspace {
        Workspace::from_sources(
            files
                .iter()
                .map(|(p, c)| (p.to_string(), c.to_string()))
                .collect(),
        )
    }

    /// Roots used by the fixture pairs: the fixtures name their entry
    /// point `decide` (panic/alloc) or `step` (blocking) and use the
    /// same lock receivers the workspace config declares.
    fn fixture_cfg() -> RuleConfig {
        RuleConfig {
            panic_roots: vec!["decide".into()],
            alloc_roots: vec!["decide".into()],
            blocking_roots: vec!["step".into()],
            lock: LockOrderConfig {
                classes: vec![
                    LockClass {
                        name: "historian.shard".into(),
                        file_substr: "".into(),
                        recv_substr: "shard".into(),
                    },
                    LockClass {
                        name: "obs.registry.shard".into(),
                        file_substr: "".into(),
                        recv_substr: "metrics".into(),
                    },
                ],
                order: vec!["historian.shard".into(), "obs.registry.shard".into()],
            },
        }
    }

    const PANIC_TP: &str = include_str!("../fixtures/analysis/panic_tp.rs");
    const PANIC_TN: &str = include_str!("../fixtures/analysis/panic_tn.rs");
    const ALLOC_TP: &str = include_str!("../fixtures/analysis/alloc_tp.rs");
    const ALLOC_TN: &str = include_str!("../fixtures/analysis/alloc_tn.rs");
    const LOCK_TP: &str = include_str!("../fixtures/analysis/lock_order_tp.rs");
    const LOCK_TN: &str = include_str!("../fixtures/analysis/lock_order_tn.rs");
    const BLOCKING_TP: &str = include_str!("../fixtures/analysis/blocking_tp.rs");
    const BLOCKING_TN: &str = include_str!("../fixtures/analysis/blocking_tn.rs");

    fn active_for(src: &str, rule: &str) -> Vec<Finding> {
        let ws = fixture_ws(&[("fixture.rs", src)]);
        ws.analyze(&fixture_cfg())
            .into_iter()
            .filter(|f| f.rule == rule && !f.allowed)
            .collect()
    }

    #[test]
    fn panic_fixture_pair() {
        let tp = active_for(PANIC_TP, RULE_PANIC);
        assert!(!tp.is_empty(), "TP fixture must produce findings");
        assert!(
            tp.iter().any(|f| f.witness.contains("decide ->")),
            "witness must start at the root: {tp:?}"
        );
        let tn = active_for(PANIC_TN, RULE_PANIC);
        assert!(tn.is_empty(), "TN fixture must be clean, got: {tn:?}");
    }

    #[test]
    fn alloc_fixture_pair() {
        let tp = active_for(ALLOC_TP, RULE_ALLOC);
        assert!(!tp.is_empty(), "TP fixture must produce findings");
        let tn = active_for(ALLOC_TN, RULE_ALLOC);
        assert!(tn.is_empty(), "TN fixture must be clean, got: {tn:?}");
    }

    #[test]
    fn lock_order_fixture_pair() {
        let tp = active_for(LOCK_TP, RULE_LOCK);
        assert!(!tp.is_empty(), "TP fixture must produce findings");
        let tn = active_for(LOCK_TN, RULE_LOCK);
        assert!(tn.is_empty(), "TN fixture must be clean, got: {tn:?}");
    }

    #[test]
    fn blocking_fixture_pair() {
        let tp = active_for(BLOCKING_TP, RULE_BLOCKING);
        assert!(!tp.is_empty(), "TP fixture must produce findings");
        let tn = active_for(BLOCKING_TN, RULE_BLOCKING);
        assert!(tn.is_empty(), "TN fixture must be clean, got: {tn:?}");
    }

    /// The acceptance scenario: a transitive `unwrap()` three calls
    /// under `decide()` is caught with a full per-hop witness chain.
    #[test]
    fn transitive_unwrap_under_decide_has_full_witness() {
        let ws = fixture_ws(&[
            (
                "crates/core/src/tesla.rs",
                "pub struct TeslaController;\n\
                 impl TeslaController {\n\
                     pub fn decide(&mut self) { plan_step(); }\n\
                 }\n",
            ),
            (
                "crates/core/src/plan.rs",
                "pub fn plan_step() { pick_candidate(); }\n",
            ),
            (
                "crates/bo/src/pick.rs",
                "pub fn pick_candidate() {\n\
                     let best: Option<f64> = None;\n\
                     best.unwrap();\n\
                 }\n",
            ),
        ]);
        let cfg = RuleConfig {
            panic_roots: vec!["TeslaController::decide".into()],
            ..RuleConfig::default()
        };
        let findings = ws.analyze(&cfg);
        let f = findings
            .iter()
            .find(|f| f.rule == RULE_PANIC && f.message.contains("unwrap"))
            .expect("transitive unwrap must be caught");
        assert_eq!(f.file, "crates/bo/src/pick.rs");
        assert_eq!(f.line, 3);
        assert!(
            f.witness.contains(
                "TeslaController::decide -> plan_step [crates/core/src/tesla.rs:3] \
                 -> pick_candidate [crates/core/src/plan.rs:1] -> .unwrap() \
                 [crates/bo/src/pick.rs:3]"
            ),
            "unexpected witness: {}",
            f.witness
        );
    }

    /// The call graph over the real workspace resolves the decision
    /// chain the paper's pipeline depends on:
    /// decide -> optimize_batched -> posterior.
    #[test]
    fn real_workspace_resolves_decide_chain() {
        let root = crate::workspace_root();
        let sources = workspace_sources(&root).expect("workspace sources readable");
        let ws = Workspace::from_sources(sources);
        let g = &ws.graph;
        let decide = *g
            .by_qualified
            .get("TeslaController::decide")
            .and_then(|v| v.first())
            .expect("TeslaController::decide parsed");
        let opt = *g
            .by_qualified
            .get("BayesianOptimizer::optimize_batched")
            .and_then(|v| v.first())
            .expect("BayesianOptimizer::optimize_batched parsed");
        let post = *g
            .by_qualified
            .get("FixedNoiseGp::posterior")
            .and_then(|v| v.first())
            .expect("FixedNoiseGp::posterior parsed");
        let callees_of = |f: usize| -> Vec<usize> {
            g.fns[f]
                .edges
                .iter()
                .flat_map(|(_, ids)| ids.iter().copied())
                .collect()
        };
        assert!(
            callees_of(decide).contains(&opt),
            "decide must call optimize_batched"
        );
        assert!(
            callees_of(opt).contains(&post),
            "optimize_batched must call posterior"
        );
    }

    /// Every configured root resolves in the real workspace; a rename
    /// that orphans a root must fail the analyze run.
    #[test]
    fn real_workspace_roots_all_resolve() {
        let root = crate::workspace_root();
        let sources = workspace_sources(&root).expect("workspace sources readable");
        let ws = Workspace::from_sources(sources);
        let cfg = workspace_rule_config();
        for spec in cfg
            .panic_roots
            .iter()
            .chain(&cfg.alloc_roots)
            .chain(&cfg.blocking_roots)
        {
            assert!(
                !ws.resolve_root(spec).is_empty(),
                "root `{spec}` does not resolve"
            );
        }
    }

    #[test]
    fn baseline_round_trip() {
        let mut counts = Counts::new();
        for rule in ANALYSIS_RULES {
            counts.insert(rule.to_string(), 0);
        }
        counts.insert(RULE_PANIC.to_string(), 3);
        counts.insert(format!("file-waivers:{RULE_ALLOC}"), 19);
        assert_eq!(parse_baseline(&render_baseline(&counts)), Ok(counts));
        assert!(parse_baseline("{\"lock-order\": -1}").is_err());
    }

    /// The committed baseline holds the tree's waiver counts, and one
    /// more file-level waiver fails `--deny`.
    #[test]
    fn one_more_file_waiver_fails_the_ratchet() {
        let root = crate::workspace_root();
        let baseline =
            parse_baseline(&fs::read_to_string(root.join(BASELINE_PATH)).unwrap()).unwrap();
        let no_findings: BTreeMap<&str, usize> = ANALYSIS_RULES.map(|r| (r, 0)).into();
        let mut sources = workspace_sources(&root).expect("workspace sources readable");
        let counts = |sources| ratchet_counts(&no_findings, &Workspace::from_sources(sources));
        assert_eq!(ratchet(&counts(sources.clone()), &baseline), vec![]);

        sources.push((
            "crates/core/src/waived.rs".into(),
            "// analysis:allow-file(panic-free-control-path): one more\n".into(),
        ));
        let key = format!("file-waivers:{RULE_PANIC}");
        let n = baseline[&key];
        assert_eq!(ratchet(&counts(sources), &baseline), vec![(key, n + 1, n)]);
    }

    #[test]
    fn report_shape_includes_witness_and_wall_time() {
        let findings = vec![Finding {
            rule: RULE_PANIC,
            file: "crates/core/src/x.rs".into(),
            line: 7,
            message: ".unwrap()".into(),
            witness: "decide -> x [crates/core/src/x.rs:7]".into(),
            allowed: false,
        }];
        let counts = count_by_rule(&ANALYSIS_RULES, &findings);
        let json = crate::render_report(&findings, &counts, 0.25);
        assert!(json.contains("\"witness\": \"decide -> x [crates/core/src/x.rs:7]\""));
        assert!(json.contains("\"wall_time_seconds\": 0.250"));
        assert!(json.contains(&format!(
            "\"{RULE_PANIC}\": {{\"active\": 1, \"allowed\": 0}}"
        )));
    }
}
