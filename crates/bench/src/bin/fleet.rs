//! Fleet-scale benchmark: 8 → 256 → 1024 concurrent zones under the
//! site power-budget coordinator, written to
//! `bench_results/BENCH_fleet.json`.
//!
//! Each tier steps a row-topology fleet (neighbour bleed 0.4 kW/K, one
//! Lazic-controlled pod per zone) through a full lock-step episode on
//! the fleet scheduler and reports:
//!
//! * `fleet_zone_minutes_per_second` — zone-minutes simulated per
//!   wall-second at the 8-zone tier (the `cargo xtask bench-diff`
//!   gate, comparable between the full run and the CI `--smoke` run);
//! * `tesla_fleet_zone_decide_seconds` p50 in the latency breakdown —
//!   the per-zone decision-path gate;
//! * per-tier coordinator overhead (arbitration seconds vs. episode
//!   wall), site peak power, budget pressure, and violation minutes.
//!
//! The 8-zone tier runs twice: once unconstrained (the calibration for
//! every tier's power budget, and the no-new-violations reference) and
//! once under a budget at 75% of the calibrated per-zone peak — which
//! binds, so the committed artifact always shows arbitration active.
//! The run exits non-zero if arbitration fails to engage on any capped
//! tier or if the capped 8-zone tier shows violations the free run did
//! not — the safety-envelope-over-budget invariant.
//!
//! Flags: `--smoke` (8-zone tier only, CI scale), `--workers N`
//! (default: available parallelism), `--minutes N` (override the
//! largest tier's episode length).

use std::time::Instant;
use tesla_bench::{arg_f64, arg_flag, print_table, profile};
use tesla_core::{Controller, EpisodeConfig, LazicController};
use tesla_fleet::{Fleet, FleetConfig, FleetReport, FleetTopology};
use tesla_forecast::Trace;
use tesla_units::Kilowatts;

/// One Lazic controller per zone: cheap decisions, so the bench
/// measures the fleet machinery rather than BO iteration counts.
fn lazic_fleet(trace: &Trace, n: usize) -> Vec<Box<dyn Controller + Send>> {
    (0..n)
        .map(|_| {
            Box::new(LazicController::new(trace, Default::default()).expect("lazic fit"))
                as Box<dyn Controller + Send>
        })
        .collect()
}

fn fleet_config(zones: usize, minutes: usize, workers: usize) -> FleetConfig {
    FleetConfig {
        topology: FleetTopology::row(zones, Kilowatts::new(125.0), 0.4).expect("topology"),
        zone: EpisodeConfig {
            minutes,
            warmup_minutes: 3,
            seed: 9,
            ..Default::default()
        },
        workers,
        ..Default::default()
    }
}

/// Total seconds recorded by a tesla-obs histogram so far (for
/// before/after deltas around one tier).
fn hist_sum(name: &'static str) -> f64 {
    tesla_obs::global().histogram(name, &[]).sum()
}

struct Tier {
    zones: usize,
    minutes: usize,
    budget_kw: f64,
    report: FleetReport,
    wall_seconds: f64,
    coordinator_seconds: f64,
}

impl Tier {
    fn zone_minutes_per_second(&self) -> f64 {
        (self.zones * self.minutes) as f64 / self.wall_seconds
    }
}

fn run_tier(trace: &Trace, zones: usize, minutes: usize, workers: usize, budget_kw: f64) -> Tier {
    let mut config = fleet_config(zones, minutes, workers);
    config.site_budget_kw = Kilowatts::new(budget_kw);
    let fleet = Fleet::new(config, lazic_fleet(trace, zones), None).expect("fleet");
    let coord_before = hist_sum("tesla_fleet_coordinator_seconds");
    let started = Instant::now();
    let report = profile::time_episode(|| fleet.run(minutes, None)).expect("fleet run");
    let wall_seconds = started.elapsed().as_secs_f64();
    Tier {
        zones,
        minutes,
        budget_kw,
        report,
        wall_seconds,
        coordinator_seconds: hist_sum("tesla_fleet_coordinator_seconds") - coord_before,
    }
}

fn main() {
    tesla_obs::set_enabled(true);
    let smoke = arg_flag("smoke");
    let workers = arg_f64(
        "workers",
        std::thread::available_parallelism().map_or(4, |p| p.get()) as f64,
    ) as usize;

    // (zones, episode minutes) per tier; bigger fleets run shorter
    // episodes so the full sweep stays in laptop territory.
    let tiers: Vec<(usize, usize)> = if smoke {
        vec![(8, 10)]
    } else {
        let top_minutes = arg_f64("minutes", 6.0) as usize;
        vec![(8, 60), (256, 8), (1024, top_minutes)]
    };

    eprintln!("training on a 0.3-day sweep …");
    let (trace, _) = tesla_bench::train_test_traces(0.3, 0.1, 63);

    // Calibration + no-new-violations reference: the first tier,
    // unconstrained.
    let (cal_zones, cal_minutes) = tiers[0];
    eprintln!("calibrating: {cal_zones} zones x {cal_minutes} min, unconstrained budget …");
    let free = run_tier(&trace, cal_zones, cal_minutes, workers, f64::INFINITY);
    assert_eq!(
        free.report.budget_exceeded_minutes, 0,
        "an infinite budget must never bind"
    );
    let per_zone_peak_kw = free.report.site_peak_kw.value() / cal_zones as f64;
    eprintln!("calibrated per-zone peak: {per_zone_peak_kw:.2} kW");

    let mut failures = Vec::new();
    let mut capped: Vec<Tier> = Vec::new();
    for &(zones, minutes) in &tiers {
        let budget_kw = zones as f64 * per_zone_peak_kw * 0.75;
        eprintln!(
            "tier: {zones} zones x {minutes} min, budget {budget_kw:.0} kW, {workers} workers …"
        );
        let tier = run_tier(&trace, zones, minutes, workers, budget_kw);
        if tier.report.budget_exceeded_minutes == 0 || tier.report.relaxations == 0 {
            failures.push(format!(
                "tier {zones}: arbitration never engaged (exceeded={}, relaxations={})",
                tier.report.budget_exceeded_minutes, tier.report.relaxations
            ));
        }
        capped.push(tier);
    }

    // Safety envelope over budget: clamping the first tier must not
    // introduce violations its free twin didn't have.
    if capped[0].report.violation_minutes() > free.report.violation_minutes() {
        failures.push(format!(
            "capped 8-zone tier added violations: {} free vs {} capped",
            free.report.violation_minutes(),
            capped[0].report.violation_minutes()
        ));
    }

    let mut rows = Vec::new();
    for t in std::iter::once(&free).chain(&capped) {
        rows.push(vec![
            format!("{}", t.zones),
            format!("{}", t.minutes),
            if t.budget_kw.is_finite() {
                format!("{:.0}", t.budget_kw)
            } else {
                "inf".into()
            },
            format!("{:.1}", t.zone_minutes_per_second()),
            format!("{:.1}", t.report.site_peak_kw.value()),
            format!("{}", t.report.budget_exceeded_minutes),
            format!("{}", t.report.relaxations),
            format!("{}", t.report.violation_minutes()),
            format!("{:.1}", 100.0 * t.coordinator_seconds / t.wall_seconds),
        ]);
    }
    print_table(
        &format!("fleet bench ({workers} workers)"),
        &[
            "zones",
            "minutes",
            "budget kW",
            "zone-min/s",
            "peak kW",
            "over-budget min",
            "relaxations",
            "violation min",
            "coord %",
        ],
        &rows,
    );

    let mut fields: Vec<(String, String)> = vec![
        ("workers".into(), format!("{workers}")),
        ("smoke".into(), format!("{}", smoke as u8)),
        (
            "zones_max".into(),
            format!("{}", capped.last().map_or(0, |t| t.zones)),
        ),
        ("per_zone_peak_kw".into(), format!("{per_zone_peak_kw:.3}")),
        // The bench-diff gate: zone-minute throughput at the tier every
        // run (full or smoke) shares.
        (
            "fleet_zone_minutes_per_second".into(),
            format!("{:.3}", capped[0].zone_minutes_per_second()),
        ),
    ];
    for t in &capped {
        let z = t.zones;
        fields.push((format!("fleet_zones_{z}_minutes"), format!("{}", t.minutes)));
        fields.push((
            format!("fleet_zones_{z}_wall_seconds"),
            format!("{:.3}", t.wall_seconds),
        ));
        fields.push((
            format!("fleet_zones_{z}_zone_minutes_per_second"),
            format!("{:.3}", t.zone_minutes_per_second()),
        ));
        fields.push((
            format!("fleet_zones_{z}_budget_kw"),
            format!("{:.3}", t.budget_kw),
        ));
        fields.push((
            format!("fleet_zones_{z}_site_peak_kw"),
            format!("{:.3}", t.report.site_peak_kw.value()),
        ));
        fields.push((
            format!("fleet_zones_{z}_budget_exceeded_minutes"),
            format!("{}", t.report.budget_exceeded_minutes),
        ));
        fields.push((
            format!("fleet_zones_{z}_relaxations"),
            format!("{}", t.report.relaxations),
        ));
        fields.push((
            format!("fleet_zones_{z}_violation_minutes"),
            format!("{}", t.report.violation_minutes()),
        ));
        fields.push((
            format!("fleet_zones_{z}_coordinator_overhead_pct"),
            format!("{:.3}", 100.0 * t.coordinator_seconds / t.wall_seconds),
        ));
    }
    let borrowed: Vec<(&str, String)> = fields
        .iter()
        .map(|(k, v)| (k.as_str(), v.clone()))
        .collect();
    let path = profile::write_bench_json("fleet", &borrowed);
    println!("\nreport written to {}", path.display());

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
}
