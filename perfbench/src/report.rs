//! Exact statistics, run metadata, and the result format.
//!
//! Every quantile here is computed from raw per-operation samples
//! (linear interpolation between order statistics, the numpy default),
//! and every printed metric carries its sample count.

use std::collections::BTreeMap;

/// End-to-end metrics gated by `BENCHMARK.json`, printed with `--trace 0`.
/// Every workload reports every one of them; what each means per
/// workload is listed in `README.md`. `cooling_energy_kwh` repeats
/// exactly for a seed, so a change to what the controllers decide (or
/// to what the historian stores) moves it. Medians are printed next to
/// them under workload-specific names but not gated: on a host whose
/// speed switches between two levels the median of a bimodal latency
/// distribution jumps between them from run to run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
    ("latency_p90_ms", "ms"),
    ("cooling_energy_kwh", "kWh"),
];

/// Per-layer metrics, printed with `--trace 1`. Every workload reports
/// every one of them; a layer the workload does not run reads 0. Layer
/// time is a share of the traced run's wall time (`trace.wall_s`), so an
/// absent layer is a zero share, not a zero duration.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace.wall_s", "s"),
    ("trace.overhead_pct", "%"),
    ("trace.residual_pct", "%"),
    ("core.decide.count", "count"),
    ("core.decide.busy_pct", "%"),
    ("core.supervise.busy_pct", "%"),
    ("core.advance.busy_pct", "%"),
    ("sim.step.busy_pct", "%"),
    ("bo.bootstrap.busy_pct", "%"),
    ("forecast.prepare.count", "count"),
    ("forecast.prepare.busy_pct", "%"),
    ("forecast.predict.count", "count"),
    ("forecast.predict.busy_pct", "%"),
    ("bo.optimize.count", "count"),
    ("bo.optimize.self_pct", "%"),
    ("bo.evals_per_decision", "count"),
    ("core.decide.residual_pct", "%"),
    ("fleet.decide.wall_pct", "%"),
    ("fleet.decide.busy_pct", "%"),
    ("fleet.decide.efficiency", "frac"),
    ("fleet.advance.wall_pct", "%"),
    ("fleet.advance.busy_pct", "%"),
    ("fleet.advance.efficiency", "frac"),
    ("fleet.arbitrate.busy_pct", "%"),
    ("fleet.bleed.busy_pct", "%"),
    ("fleet.relaxations", "count"),
    ("fleet.budget_exceeded_minutes", "count"),
    ("historian.insert.count", "count"),
    ("historian.insert.busy_pct", "%"),
    ("historian.insert_runs.count", "count"),
    ("historian.insert_runs.samples", "count"),
    ("historian.insert_runs.busy_pct", "%"),
    ("net.writer.busy_frac", "frac"),
    ("historian.range.count", "count"),
    ("historian.range.busy_pct", "%"),
    ("net.queue.depth_max", "count"),
    ("net.queue.dropped", "count"),
    ("net.parse.mb_per_s", "MB/s"),
    ("historian.bytes_per_sample", "B"),
];

/// The `q`-quantile (0 ≤ q ≤ 1) of `sorted`, interpolating linearly
/// between the two nearest order statistics. NaN for an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let h = (n - 1) as f64 * q.clamp(0.0, 1.0);
            let lo = h.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo])
        }
    }
}

/// Sorts raw samples in place and returns `(p50, p90)`.
pub fn p50_p90(samples: &mut [f64]) -> (f64, f64) {
    samples.sort_by(f64::total_cmp);
    (quantile(samples, 0.5), quantile(samples, 0.9))
}

/// Median of `values` (NaN when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// One reported number: value, unit, how many raw samples it was
/// computed from, and what it measures on this workload.
#[derive(Debug, Clone)]
pub struct Stat {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: String,
    /// Raw samples behind the value.
    pub samples: u64,
    /// What the value measures on this workload.
    pub note: String,
}

impl Stat {
    /// A stat with its unit, sample count and meaning.
    pub fn new(name: &str, value: f64, unit: &str, samples: u64, note: &str) -> Self {
        Stat {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
            samples,
            note: note.to_string(),
        }
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct RunReport {
    /// Gated end-to-end metrics (names from [`END_TO_END`]).
    pub end_to_end: Vec<Stat>,
    /// Workload-specific end-to-end metrics under their own names
    /// (medians, control quality, ack latency, lateness); printed, not
    /// gated.
    pub detail: Vec<Stat>,
    /// Per-layer metrics of the traced run (names from [`PER_LAYER`]).
    pub per_layer: BTreeMap<String, f64>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (watchdog trips, timeouts, error replies…).
    pub failed: u64,
    /// Output checks that did not hold; any entry fails the run.
    pub check_failures: Vec<String>,
    /// Worker threads the workload ran on.
    pub workers: usize,
}

impl RunReport {
    /// Records a failed output check.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.check_failures.push(why.into());
    }

    /// Sets one per-layer metric.
    pub fn layer(&mut self, name: &str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown per-layer metric {name}"
        );
        self.per_layer.insert(name.to_string(), value);
    }
}

/// Peak resident set size of this process, MB (10^6 bytes), from
/// `VmHWM` in `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib * 1024.0 / 1e6)
}

/// Hypervisor steal time summed over all CPUs so far, seconds (the
/// eighth field of the `cpu` line of `/proc/stat`, at 100 ticks/s).
pub fn steal_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let ticks: f64 = line.split_whitespace().nth(8)?.parse().ok()?;
    Some(ticks / 100.0)
}

/// The checked-out commit, read from `.git` in the working directory
/// (`unknown` in an export without git metadata).
pub fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "unknown".into()
        } else {
            head.to_string()
        };
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .unwrap_or_default()
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map_or_else(|| "unknown".into(), str::to_string)
}

/// Renders a finite number with every digit Rust's shortest round-trip
/// formatting gives it.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// The result line: `correct`, `attempted`, `failed`, and the metrics
/// of the requested kind (`--trace 0`: end-to-end, `--trace 1`:
/// per-layer). Missing per-layer metrics read 0.
pub fn result_json(report: &RunReport, trace: bool) -> String {
    let metrics: Vec<(String, f64, String)> = if trace {
        PER_LAYER
            .iter()
            .map(|(name, unit)| {
                let v = report.per_layer.get(*name).copied().unwrap_or(0.0);
                (name.to_string(), v, unit.to_string())
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|(name, unit)| {
                let v = report
                    .end_to_end
                    .iter()
                    .find(|s| s.name == *name)
                    .map_or(f64::NAN, |s| s.value);
                (name.to_string(), v, unit.to_string())
            })
            .collect()
    };
    let correct = report.check_failures.is_empty() && metrics.iter().all(|(_, v, _)| v.is_finite());
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*v)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        body.join(", ")
    )
}

/// Human-readable table of everything a run measured.
pub fn print_table(report: &RunReport, trace: bool) {
    println!(
        "{:<32} {:>16} {:<12} {:>9}  meaning",
        "metric", "value", "unit", "samples"
    );
    let row = |s: &Stat| {
        println!(
            "{:<32} {:>16} {:<12} {:>9}  {}",
            s.name,
            format!("{:.6}", s.value),
            s.unit,
            s.samples,
            s.note
        );
    };
    report.end_to_end.iter().for_each(row);
    report.detail.iter().for_each(row);
    if trace {
        println!("-- per-layer (traced run)");
        for (name, unit) in PER_LAYER {
            if let Some(v) = report.per_layer.get(*name) {
                println!("{name:<32} {:>16} {unit:<12}", format!("{v:.6}"));
            }
        }
    }
    println!(
        "attempted {}  failed {}  checks {}",
        report.attempted,
        report.failed,
        if report.check_failures.is_empty() {
            "ok".to_string()
        } else {
            format!("FAILED: {}", report.check_failures.join("; "))
        }
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 0.9), 4.6);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn metric_tables_match_benchmark_json_in_order() {
        let spec = include_str!("../../BENCHMARK.json");
        for table in [END_TO_END, PER_LAYER] {
            let mut from = 0;
            for (name, unit) in table {
                let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
                let at = spec[from..]
                    .find(&entry)
                    .unwrap_or_else(|| panic!("{entry} missing or out of order"));
                from += at + entry.len();
            }
        }
    }

    #[test]
    fn result_line_carries_every_metric_of_its_kind() {
        let mut r = RunReport::default();
        for (name, unit) in END_TO_END {
            r.end_to_end.push(Stat::new(name, 1.5, unit, 3, ""));
        }
        let line = result_json(&r, false);
        for (name, _) in END_TO_END {
            assert!(line.contains(&format!("\"{name}\"")));
        }
        assert!(line.starts_with("{\"correct\": true"));
        let traced = result_json(&r, true);
        for (name, _) in PER_LAYER {
            assert!(traced.contains(&format!("\"{name}\": {{\"value\": 0,")));
        }
    }
}
