//! `fleet-lazic`: a row-topology site stepped by `Fleet::step_minute`
//! on `nproc` scheduler workers. Neighbour bleed is on, every pod has
//! one `LazicController` (no BO at all), the site budget binds so the
//! coordinator arbitrates, and an in-memory historian receives every
//! zone's per-minute series.
//!
//! The traced run rebuilds the fleet minute from the public calls —
//! `ZoneActor::{decide, advance, hot_aisle, add_hot_aisle_energy_kj}`,
//! `FleetCoordinator::arbitrate` and `scheduler::run_sharded` — with a
//! timer on each, and writes through a timing `MetricStore`.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use tesla_core::dataset::{generate_sweep_trace, DatasetConfig};
use tesla_core::{Controller, EpisodeConfig, LazicController, SupervisorConfig};
use tesla_fleet::scheduler::run_sharded;
use tesla_fleet::{
    zone_seed, CoordinatorConfig, Fleet, FleetConfig, FleetCoordinator, FleetError, FleetTopology,
    ZoneActor,
};
use tesla_forecast::Trace;
use tesla_historian::{Historian, HistorianConfig, MetricStore};
use tesla_units::{Celsius, Kilowatts, ZoneId, SETPOINT_RANGE};

use crate::layers::{Busy, TimedStore};
use crate::report::{median, p50_p90, RunReport, Stat};
use crate::zone::{same_bits, SWEEP_SEED};

/// Pods on the row.
const ZONES: usize = 256;
/// Lazic training sweep length, days.
const TRAIN_DAYS: f64 = 0.3;
/// Timed set-ups per run (the median is reported): half before the
/// measured episode and half after it, so the median spans more of the
/// run than one moment.
const SETUPS: usize = 8;
/// Per-pod site budget: three quarters of a medium-load pod's peak
/// draw (about 10 kW IT plus cooling), below its mean draw, so the
/// coordinator relaxes set-points for much of the episode.
const BUDGET_KW_PER_ZONE: f64 = 7.5;

/// Size of one fleet-lazic run.
#[derive(Debug, Clone)]
pub struct FleetParams {
    /// Workload seed: the fleet's base episode seed (load, noise).
    pub seed: u64,
    /// Metered minutes.
    pub minutes: usize,
    /// Scheduler workers.
    pub workers: usize,
}

impl FleetParams {
    /// The episode sized so the untraced run takes about `seconds` at
    /// about 30k zone-minutes per second.
    pub fn for_seconds(seed: u64, seconds: f64, workers: usize) -> Self {
        FleetParams {
            seed,
            minutes: ((seconds * 30_000.0 / ZONES as f64).round() as usize).max(10),
            workers: workers.max(1),
        }
    }

    fn config(&self) -> Result<FleetConfig, FleetError> {
        Ok(FleetConfig {
            topology: FleetTopology::row(ZONES, Kilowatts::new(125.0), 0.4)?,
            zone: EpisodeConfig {
                minutes: self.minutes,
                warmup_minutes: 3,
                seed: self.seed,
                ..EpisodeConfig::default()
            },
            site_budget_kw: Kilowatts::new(BUDGET_KW_PER_ZONE * ZONES as f64),
            workers: self.workers,
            ..FleetConfig::default()
        })
    }
}

/// One Lazic controller per pod, each fitted on the shared sweep.
fn controllers(train: &Trace, n: usize) -> Result<Vec<Box<dyn Controller + Send>>, FleetError> {
    (0..n)
        .map(|_| {
            LazicController::new(train, Default::default())
                .map(|c| Box::new(c) as Box<dyn Controller + Send>)
                .map_err(FleetError::Core)
        })
        .collect()
}

/// The Lazic training sweep, on the fixed [`SWEEP_SEED`].
fn sweep() -> Result<Trace, FleetError> {
    generate_sweep_trace(&DatasetConfig {
        days: TRAIN_DAYS,
        seed: SWEEP_SEED,
        ..DatasetConfig::default()
    })
    .map_err(FleetError::Core)
}

fn in_memory_store() -> Arc<Historian> {
    Arc::new(Historian::in_memory(HistorianConfig::default()))
}

/// Control outcome of a fleet episode.
struct Outcome {
    setpoints: Vec<Vec<f64>>,
    energy_kwh: f64,
    violation_minutes: u64,
    failed: u64,
    relaxations: u64,
    budget_exceeded_minutes: u64,
}

fn check(report: &mut RunReport, out: &Outcome) {
    for (z, sps) in out.setpoints.iter().enumerate() {
        if let Some(bad) = sps
            .iter()
            .find(|&&s| !s.is_finite() || !SETPOINT_RANGE.contains(Celsius::new(s)))
        {
            report.fail(format!(
                "zone {z}: set-point {bad} outside {SETPOINT_RANGE:?}"
            ));
            break;
        }
    }
    if out.relaxations == 0 || out.budget_exceeded_minutes == 0 {
        report.fail(format!(
            "arbitration never engaged (over-budget minutes {}, relaxations {})",
            out.budget_exceeded_minutes, out.relaxations
        ));
    }
}

/// Runs fleet-lazic; with `trace`, also the traced rebuild.
pub fn run(p: &FleetParams, trace: bool) -> Result<RunReport, FleetError> {
    let mut report = RunReport {
        workers: p.workers,
        ..RunReport::default()
    };
    let config = p.config()?;
    let set_up = || -> Result<(Fleet, Trace, f64), FleetError> {
        let t = Instant::now();
        let train = sweep()?;
        let fleet = Fleet::new(
            config.clone(),
            controllers(&train, ZONES)?,
            Some(in_memory_store() as Arc<dyn MetricStore>),
        )?;
        Ok((fleet, train, t.elapsed().as_secs_f64()))
    };
    let mut setup_s = Vec::with_capacity(SETUPS);
    for _ in 1..SETUPS / 2 {
        setup_s.push(set_up()?.2);
    }
    let (mut fleet, train, took) = set_up()?;
    setup_s.push(took);

    let mut minute_s = Vec::with_capacity(p.minutes);
    let started = Instant::now();
    for _ in 0..p.minutes {
        let t = Instant::now();
        fleet.step_minute()?;
        minute_s.push(t.elapsed().as_secs_f64());
    }
    let wall = started.elapsed().as_secs_f64();
    let failed: u64 = fleet
        .status_boards()
        .iter()
        .filter_map(|(_, b)| b.snapshot())
        .map(|s| s.watchdog_trips + s.decision_timeouts)
        .sum();
    let setpoints: Vec<Vec<f64>> = (0..ZONES)
        .map(|z| fleet.zone_setpoints(ZoneId::new(z)))
        .collect();
    let fr = fleet.into_report()?;
    while setup_s.len() < SETUPS {
        setup_s.push(set_up()?.2);
    }
    let limit = config.zone.d_allowed.value();
    let out = Outcome {
        setpoints,
        energy_kwh: fr.zones.iter().map(|z| z.cooling_energy_kwh).sum(),
        violation_minutes: fr
            .zones
            .iter()
            .map(|z| z.cold_aisle_max.iter().filter(|&&c| c > limit).count() as u64)
            .sum(),
        failed,
        relaxations: fr.relaxations,
        budget_exceeded_minutes: fr.budget_exceeded_minutes,
    };
    check(&mut report, &out);

    let zone_minutes = (ZONES * p.minutes) as u64;
    let (p50, p90) = p50_p90(&mut minute_s);
    report.attempted = zone_minutes;
    report.failed = out.failed;
    report.end_to_end = vec![
        Stat::new(
            "setup_s",
            median(&setup_s),
            "s",
            setup_s.len() as u64,
            "sweep + per-pod Lazic fits + fleet build and warm-up (median)",
        ),
        Stat::new("peak_rss_mb", f64::NAN, "MB", 1, "peak resident set"),
        Stat::new(
            "throughput_per_s",
            zone_minutes as f64 / wall,
            "1/s",
            zone_minutes,
            "zone_minutes_per_s: metered zone-minutes per wall second",
        ),
        Stat::new(
            "latency_p90_ms",
            p90 * 1e3,
            "ms",
            p.minutes as u64,
            "minute_p90_ms: one Fleet::step_minute",
        ),
        Stat::new(
            "cooling_energy_kwh",
            out.energy_kwh,
            "kWh",
            zone_minutes,
            "ACU energy summed over pods",
        ),
    ];
    report.detail = vec![
        Stat::new(
            "minute_p50_ms",
            p50 * 1e3,
            "ms",
            p.minutes as u64,
            "one Fleet::step_minute",
        ),
        Stat::new(
            "violation_minutes",
            out.violation_minutes as f64,
            "zone-min",
            zone_minutes,
            "ground-truth cold aisle above 22 °C",
        ),
        Stat::new(
            "relaxations",
            out.relaxations as f64,
            "zone-min",
            zone_minutes,
            "coordinator set-point relaxations",
        ),
    ];

    if trace {
        let traced = traced_run(p, &config, &train)?;
        if !traced
            .outcome
            .setpoints
            .iter()
            .zip(&out.setpoints)
            .all(|(a, b)| same_bits(a, b))
        {
            report.fail("traced set-points differ from the untraced run");
        }
        traced.fill(&mut report, wall, p.workers);
    }
    Ok(report)
}

/// Layer timers of one traced fleet episode.
struct FleetTrace {
    outcome: Outcome,
    /// Wall time of the metered minutes.
    wall: f64,
    /// Decide-phase wall time.
    decide_wall: Busy,
    /// Per-zone `ZoneActor::decide` time, summed over workers.
    decide_busy: Busy,
    /// Advance-phase wall time.
    advance_wall: Busy,
    /// Per-zone `ZoneActor::advance` time, summed over workers.
    advance_busy: Busy,
    /// `FleetCoordinator::arbitrate`.
    arbitrate: Busy,
    /// The bleed exchange (`hot_aisle` + `add_hot_aisle_energy_kj`).
    bleed: Busy,
    /// The timing store every zone wrote through.
    store: Arc<TimedStore>,
}

impl FleetTrace {
    fn fill(&self, report: &mut RunReport, untraced_wall: f64, workers: usize) {
        let pct = |s: f64| 100.0 * s / self.wall;
        let eff = |busy: &Busy, wall: &Busy| busy.seconds() / (wall.seconds() * workers as f64);
        let phases = self.decide_wall.seconds()
            + self.arbitrate.seconds()
            + self.advance_wall.seconds()
            + self.bleed.seconds();
        report.layer("trace.wall_s", self.wall);
        report.layer(
            "trace.overhead_pct",
            100.0 * (self.wall - untraced_wall) / untraced_wall,
        );
        report.layer("trace.residual_pct", pct(self.wall - phases));
        report.layer("fleet.decide.wall_pct", pct(self.decide_wall.seconds()));
        report.layer("fleet.decide.busy_pct", pct(self.decide_busy.seconds()));
        report.layer(
            "fleet.decide.efficiency",
            eff(&self.decide_busy, &self.decide_wall),
        );
        report.layer("fleet.advance.wall_pct", pct(self.advance_wall.seconds()));
        report.layer("fleet.advance.busy_pct", pct(self.advance_busy.seconds()));
        report.layer(
            "fleet.advance.efficiency",
            eff(&self.advance_busy, &self.advance_wall),
        );
        report.layer("fleet.arbitrate.busy_pct", pct(self.arbitrate.seconds()));
        report.layer("fleet.bleed.busy_pct", pct(self.bleed.seconds()));
        report.layer("fleet.relaxations", self.outcome.relaxations as f64);
        report.layer(
            "fleet.budget_exceeded_minutes",
            self.outcome.budget_exceeded_minutes as f64,
        );
        report.layer("historian.insert.count", self.store.insert.calls() as f64);
        report.layer(
            "historian.insert.busy_pct",
            pct(self.store.insert.seconds()),
        );
    }
}

/// The fleet minute rebuilt from public calls, each timed: decide ∥,
/// arbitrate, advance ∥, bleed, site-power roll-up.
fn traced_run(
    p: &FleetParams,
    config: &FleetConfig,
    train: &Trace,
) -> Result<FleetTrace, FleetError> {
    let n = config.topology.n_zones();
    let store = Arc::new(TimedStore::new(in_memory_store()));
    let shared: Arc<dyn MetricStore> = Arc::clone(&store) as Arc<dyn MetricStore>;
    let mut actors = Vec::with_capacity(n);
    for (i, controller) in controllers(train, n)?.into_iter().enumerate() {
        let zone = ZoneId::new(i);
        let mut zone_cfg = config.zone.clone();
        zone_cfg.seed = zone_seed(config.zone.seed, zone);
        actors.push(Mutex::new(ZoneActor::new(
            zone,
            zone_cfg,
            controller,
            SupervisorConfig::default(),
            Some(Arc::clone(&shared)),
        )?));
    }
    let workers = config.workers;
    run_sharded(workers, n, |i| {
        actors[i].lock().expect("zone lock").warmup()
    })
    .into_iter()
    .collect::<Result<(), _>>()?;
    let mut coordinator = FleetCoordinator::new(
        CoordinatorConfig::default(),
        n,
        config.site_budget_kw,
        config.zone.d_allowed,
    );
    let mut t = FleetTrace {
        outcome: Outcome {
            setpoints: Vec::new(),
            energy_kwh: 0.0,
            violation_minutes: 0,
            failed: 0,
            relaxations: 0,
            budget_exceeded_minutes: 0,
        },
        wall: 0.0,
        decide_wall: Busy::default(),
        decide_busy: Busy::default(),
        advance_wall: Busy::default(),
        advance_busy: Busy::default(),
        arbitrate: Busy::default(),
        bleed: Busy::default(),
        store,
    };
    let n_servers = config.zone.sim.n_servers as f64;
    let dt_s = config.zone.sim.sample_period_s;
    let mut last_site_power = Kilowatts::new(0.0);
    let started = Instant::now();
    for minute in 0..p.minutes {
        let decisions = t.decide_wall.time(n as u64, || {
            run_sharded(workers, n, |i| {
                let mut actor = actors[i].lock().expect("zone lock");
                t.decide_busy.time(1, || actor.decide())
            })
        });
        let finals = t
            .arbitrate
            .time(1, || coordinator.arbitrate(last_site_power, &decisions));
        let outcomes = t.advance_wall.time(n as u64, || {
            run_sharded(workers, n, |i| {
                let mut actor = actors[i].lock().expect("zone lock");
                t.advance_busy
                    .time(1, || actor.advance(minute, finals[i], false))
            })
        });
        let outcomes = outcomes.into_iter().collect::<Result<Vec<_>, _>>()?;
        t.bleed.time(config.topology.edges().len() as u64, || {
            let temps: Vec<Celsius> = actors
                .iter()
                .map(|a| a.lock().expect("zone lock").hot_aisle().0)
                .collect();
            for e in config.topology.edges() {
                let (a, b) = (e.a.index(), e.b.index());
                let energy_kj = e.kw_per_k * (temps[a].value() - temps[b].value()) * dt_s;
                if energy_kj == 0.0 {
                    continue;
                }
                actors[a]
                    .lock()
                    .expect("zone lock")
                    .add_hot_aisle_energy_kj(-energy_kj)?;
                actors[b]
                    .lock()
                    .expect("zone lock")
                    .add_hot_aisle_energy_kj(energy_kj)?;
            }
            Ok::<(), FleetError>(())
        })?;
        let site_kw: f64 = outcomes
            .iter()
            .map(|o| o.acu_power_kw.value() + o.avg_server_power_kw.value() * n_servers)
            .sum();
        last_site_power = Kilowatts::new(site_kw);
        shared.insert("site.power_kw", minute as f64 * 60.0, site_kw);
    }
    t.wall = started.elapsed().as_secs_f64();
    let limit = config.zone.d_allowed.value();
    for cell in actors {
        let actor = cell.into_inner().expect("zone lock");
        t.outcome.failed +=
            actor.supervisor().watchdog_trips() + actor.supervisor().decision_timeouts();
        let result = actor.finish();
        t.outcome.energy_kwh += result.cooling_energy_kwh;
        t.outcome.violation_minutes +=
            result.cold_aisle_max.iter().filter(|&&c| c > limit).count() as u64;
        t.outcome.setpoints.push(result.setpoints);
    }
    t.outcome.relaxations = coordinator.relaxations();
    t.outcome.budget_exceeded_minutes = coordinator.budget_exceeded_minutes();
    Ok(t)
}
