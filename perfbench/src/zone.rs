//! `zone-tesla`: one TESLA controller (Table 2 defaults, one thread),
//! trained once on an in-memory sweep, then run through supervised
//! idle, medium and high-load episodes back to back (Table 5's
//! protocol), one [`ZoneEpisode`] control minute at a time.
//!
//! The traced run drives the same episodes with a timing controller
//! around TESLA and a timing plant around the testbed. After each of
//! TESLA's decisions it replays that decision through the public calls
//! TESLA's decide is built from (bootstrap, forecast prepare and
//! predict, the batched optimizer), on the same fitted model and
//! configuration and with TESLA's own error-monitor contents and step,
//! read from its `save_state` blob. The replay must pick the set-point
//! TESLA picked after evaluating the same number of candidates, so the
//! sub-layer times are those of TESLA's decision. The replay's own time
//! is taken out of the traced loop's wall time.

use std::sync::Arc;
use std::time::Instant;

use tesla_bo::{BayesianOptimizer, BoOutcome, PredictionErrorMonitor};
use tesla_core::dataset::{generate_sweep_trace, DatasetConfig};
use tesla_core::objective::{constraint, objective};
use tesla_core::{
    Controller, CoreError, EpisodeConfig, Supervisor, SupervisorConfig, TeslaConfig,
    TeslaController, ZoneEpisode,
};
use tesla_forecast::{DcTimeSeriesModel, ModelWindow, Trace};
use tesla_sim::{CoolingPlant, Testbed};
use tesla_units::{Celsius, SETPOINT_RANGE};
use tesla_workload::LoadSetting;

use crate::layers::{Busy, TimedController, TimedPlant};
use crate::report::{median, p50_p90, RunReport, Stat};

/// Size of one zone-tesla run.
#[derive(Debug, Clone)]
pub struct ZoneParams {
    /// Workload seed: episode load and noise, BO seeds.
    pub seed: u64,
    /// Metered minutes per load-setting episode.
    pub minutes: usize,
    /// Warm-up minutes per episode.
    pub warmup: usize,
    /// Training sweep length, days.
    pub train_days: f64,
    /// Timed set-ups per run (the median is reported): half before the
    /// episodes and half after them, so the median spans more of the
    /// run than one moment.
    pub setups: usize,
}

impl ZoneParams {
    /// Episode lengths sized so the untraced pass takes about
    /// `seconds` at about 130 zone-minutes per second.
    pub fn for_seconds(seed: u64, seconds: f64) -> Self {
        ZoneParams {
            seed,
            minutes: ((seconds * 130.0 / 3.0).round() as usize).max(30),
            warmup: 60,
            train_days: 1.5,
            setups: 4,
        }
    }
}

/// Seed of the training sweep. The model is trained once on a fixed
/// sweep, as a deployment trains offline; the workload seed varies the
/// episodes (load, sensor noise) and the BO seeds. A per-seed model would
/// change how hard every decision is and blur the run-to-run comparison.
pub(crate) const SWEEP_SEED: u64 = 1;

/// The trained controller's ingredients: one model fit, one config.
struct Trained {
    /// The fitted DC time-series model.
    model: DcTimeSeriesModel,
    /// Table 2 defaults, one worker, the workload seed.
    config: TeslaConfig,
}

/// Generates the training sweep in memory and fits the model; `seed`
/// seeds the controller's decisions.
fn train(seed: u64, train_days: f64) -> Result<Trained, CoreError> {
    let sweep = generate_sweep_trace(&DatasetConfig {
        days: train_days,
        seed: SWEEP_SEED,
        ..DatasetConfig::default()
    })?;
    let config = TeslaConfig {
        parallel_workers: 1,
        seed,
        ..TeslaConfig::default()
    };
    let model = DcTimeSeriesModel::fit(&sweep, config.model.clone())?;
    Ok(Trained { model, config })
}

/// The idle, medium and high-load episodes, each with its own seed.
fn episodes(p: &ZoneParams) -> Vec<EpisodeConfig> {
    [LoadSetting::Idle, LoadSetting::Medium, LoadSetting::High]
        .into_iter()
        .enumerate()
        .map(|(i, setting)| EpisodeConfig {
            setting,
            minutes: p.minutes,
            warmup_minutes: p.warmup,
            seed: p.seed.wrapping_mul(31).wrapping_add(i as u64 + 1),
            ..EpisodeConfig::default()
        })
        .collect()
}

/// Control outcome of one episode.
#[derive(Debug, Clone, Default)]
struct EpisodeRecord {
    /// Executed set-point per metered minute, °C.
    setpoints: Vec<f64>,
    /// ACU energy over the metered minutes, kWh.
    energy_kwh: f64,
    /// Metered minutes with the ground-truth cold aisle above the limit.
    violation_minutes: u64,
    /// Soft-watchdog trips.
    watchdog_trips: u64,
    /// Hard-deadline timeouts.
    timeouts: u64,
}

/// Wall time of the loop phases, recorded by the traced run.
#[derive(Debug, Default)]
struct LoopTimers {
    /// `ZoneEpisode::decide` (supervisor plus controller).
    supervised: Busy,
    /// `ZoneEpisode::advance` (write, workload, physics, accounting).
    advance: Busy,
}

/// Runs one supervised episode on `plant`: warm-up, then `minutes`
/// control minutes. Appends each supervised decision's wall time to
/// `decide_s` and returns the episode's control record and the wall
/// time of its metered loop.
fn run_episode<P: CoolingPlant>(
    plant: P,
    cfg: &EpisodeConfig,
    controller: &mut dyn Controller,
    decide_s: &mut Vec<f64>,
    timers: Option<&LoopTimers>,
) -> Result<(EpisodeRecord, f64), CoreError> {
    controller.reset();
    let mut sup = Supervisor::new(SupervisorConfig::default());
    sup.reset();
    let mut episode = ZoneEpisode::new(plant, cfg);
    episode.warmup()?;
    let started = Instant::now();
    for m in 0..cfg.minutes {
        let t = Instant::now();
        let sp = episode.decide(&mut sup, controller);
        let took = t.elapsed();
        decide_s.push(took.as_secs_f64());
        match timers {
            Some(tm) => {
                tm.supervised.add(took, 1);
                tm.advance
                    .time(1, || episode.advance(m, sp, &mut sup, false))?;
            }
            None => {
                episode.advance(m, sp, &mut sup, false)?;
            }
        }
    }
    let loop_s = started.elapsed().as_secs_f64();
    let result = episode.finish(controller.name(), &sup);
    let limit = cfg.d_allowed.value();
    let record = EpisodeRecord {
        violation_minutes: result.cold_aisle_max.iter().filter(|&&c| c > limit).count() as u64,
        energy_kwh: result.cooling_energy_kwh,
        setpoints: result.setpoints,
        watchdog_trips: sup.watchdog_trips(),
        timeouts: sup.decision_timeouts(),
    };
    Ok((record, loop_s))
}

/// Decide sub-layer times from replaying TESLA's decisions.
#[derive(Debug, Default)]
struct SubLayers {
    /// `PredictionErrorMonitor::bootstrap_variances`.
    bootstrap: Busy,
    /// `DcTimeSeriesModel::prepare`.
    prepare: Busy,
    /// `PreparedDecision::predict`.
    predict: Busy,
    /// The optimizer's `eval_batch` callbacks (predict plus scoring).
    eval: Busy,
    /// `BayesianOptimizer::optimize_batched`, callbacks included.
    optimize: Busy,
}

/// The step counter and error-monitor pairs of a `TeslaController`
/// `save_state` blob (version 1, little-endian: version byte, step,
/// fallback and retrain counts, smoothing buffer, pending predictions,
/// monitor pairs).
fn tesla_state(blob: &[u8]) -> Option<(u64, Vec<(f64, f64)>)> {
    let mut rest = blob;
    let mut take = |n: usize| -> Option<&[u8]> {
        let (head, tail) = rest.split_at_checked(n)?;
        rest = tail;
        Some(head)
    };
    let word = |b: &[u8]| u64::from_le_bytes(b.try_into().expect("8 bytes"));
    let len = |b: &[u8]| u32::from_le_bytes(b.try_into().expect("4 bytes")) as usize;
    if take(1)? != [1] {
        return None;
    }
    let step = word(take(8)?);
    take(16)?; // fallback and retrain counts
    let buffer = len(take(4)?);
    take(buffer * 8)?;
    let pending = len(take(4)?);
    take(pending * 40)?;
    let n = len(take(4)?);
    let pairs = take(n * 16)?
        .chunks_exact(16)
        .map(|c| (f64::from_bits(word(&c[..8])), f64::from_bits(word(&c[8..]))))
        .collect();
    rest.is_empty().then_some((step, pairs))
}

/// What a decision saw: the model window, the mean ACU inlet and the
/// set-point in force at the decision instant.
struct DecisionInput {
    window: ModelWindow,
    inlet_now: f64,
    setpoint_now: f64,
}

/// Replays one TESLA decision through the public forecast and BO calls
/// its decide is built from: bootstrap on TESLA's error monitor, prepare,
/// predict per candidate, and the batched optimizer with TESLA's seeds
/// and warm-start hints.
fn replay_decision(
    trained: &Trained,
    optimizer: &BayesianOptimizer,
    monitor: &PredictionErrorMonitor,
    step: u64,
    input: &DecisionInput,
    sub: &SubLayers,
) -> Option<BoOutcome> {
    let cfg = &trained.config;
    let d_eff = cfg.d_allowed - cfg.safety_margin;
    let kappa = cfg.kappa.value();
    let noise = sub.bootstrap.time(1, || {
        monitor.bootstrap_variances(cfg.n_bootstrap, cfg.seed ^ step)
    });
    let prepared = sub
        .prepare
        .time(1, || trained.model.prepare(&input.window))
        .ok()?;
    let eval_batch = |batch: &[f64]| -> Vec<(f64, f64)> {
        sub.eval.time(batch.len() as u64, || {
            batch
                .iter()
                .map(|&s| {
                    let s = Celsius::new(s);
                    match sub.predict.time(1, || prepared.predict(s)) {
                        Ok(pred) => (
                            objective(&pred, s, cfg.kappa, cfg.interruption_weight),
                            constraint(&pred, &cfg.cold_sensors, d_eff),
                        ),
                        Err(_) => (f64::MIN / 2.0, f64::MAX / 2.0),
                    }
                })
                .collect()
        })
    };
    let inlet = input.inlet_now;
    let hints = [
        inlet - 2.0 * kappa,
        inlet,
        inlet + kappa,
        inlet + 2.0 * kappa,
        inlet + 4.0 * kappa,
        input.setpoint_now,
    ];
    sub.optimize
        .time(1, || {
            optimizer.optimize_batched(eval_batch, noise, cfg.seed ^ (step << 17), &hints)
        })
        .ok()
}

/// The traced pass's controller: TESLA behind a decide timer. After each
/// decision that ran the optimizer it replays the decision into the
/// sub-layer timers and checks the replay against TESLA's outcome; the
/// replay's wall time goes to `replay` so the loop can take it out.
struct Recorder<'a> {
    timed: TimedController<TeslaController>,
    trained: &'a Trained,
    optimizer: BayesianOptimizer,
    monitor: PredictionErrorMonitor,
    sub: SubLayers,
    replay: Busy,
    /// Set-points TESLA's optimizer evaluated, over all decisions.
    evals: u64,
    /// Decisions whose replay chose another set-point or evaluated
    /// another number of candidates than TESLA.
    diverged: u64,
    /// Decisions whose controller state was not in the layout
    /// [`tesla_state`] reads.
    unreadable: u64,
}

impl Recorder<'_> {
    fn replay(&mut self, history: &Trace) {
        let horizon = self.trained.config.model.horizon;
        let now = history.len().saturating_sub(1);
        let Ok(window) = history.window_at(now, horizon) else {
            return;
        };
        let tesla = self.timed.inner();
        let Some(outcome) = tesla.last_outcome() else {
            return;
        };
        self.evals += outcome.evaluated.len() as u64;
        // Read after the decision: the monitor then holds the errors the
        // decision settled before it bootstrapped, and the step is its own.
        let Some((step, pairs)) = tesla.save_state().as_deref().and_then(tesla_state) else {
            self.unreadable += 1;
            return;
        };
        self.monitor.restore_error_pairs(&pairs);
        let input = DecisionInput {
            window,
            inlet_now: history
                .acu_inlet
                .iter()
                .filter_map(|col| col.last())
                .sum::<f64>()
                / history.acu_inlet.len().max(1) as f64,
            setpoint_now: history.setpoint[now],
        };
        let replayed = replay_decision(
            self.trained,
            &self.optimizer,
            &self.monitor,
            step,
            &input,
            &self.sub,
        );
        let same = replayed.is_some_and(|r| {
            r.setpoint.to_bits() == outcome.setpoint.to_bits()
                && r.evaluated.len() == outcome.evaluated.len()
        });
        self.diverged += u64::from(!same);
    }
}

impl Controller for Recorder<'_> {
    fn name(&self) -> &str {
        self.timed.name()
    }

    fn decide(&mut self, history: &Trace) -> f64 {
        let sp = self.timed.decide(history);
        if history.len() >= self.trained.config.model.horizon {
            let t = Instant::now();
            self.replay(history);
            self.replay.add(t.elapsed(), 1);
        }
        sp
    }

    fn reset(&mut self) {
        self.timed.reset();
    }
}

/// Checks that every executed set-point is finite and inside the ACU
/// specification range.
fn check_setpoints(report: &mut RunReport, what: &str, setpoints: &[f64]) {
    if let Some(bad) = setpoints
        .iter()
        .find(|&&s| !s.is_finite() || !SETPOINT_RANGE.contains(Celsius::new(s)))
    {
        report.fail(format!(
            "{what}: set-point {bad} outside {SETPOINT_RANGE:?}"
        ));
    }
}

/// One untimed-layer pass over all three episodes: decision latencies,
/// metered-loop wall time, and each episode's control record.
struct Pass {
    decide_s: Vec<f64>,
    loop_s: f64,
    records: Vec<EpisodeRecord>,
}

fn untraced_pass(trained: &Trained, eps: &[EpisodeConfig]) -> Result<Pass, CoreError> {
    let mut controller =
        TeslaController::with_model(trained.model.clone(), trained.config.clone())?;
    let mut pass = Pass {
        decide_s: Vec::with_capacity(eps.len() * eps[0].minutes),
        loop_s: 0.0,
        records: Vec::new(),
    };
    for ep in eps {
        let plant = Testbed::new(ep.sim.clone(), ep.seed)?;
        let (record, loop_s) = run_episode(plant, ep, &mut controller, &mut pass.decide_s, None)?;
        pass.loop_s += loop_s;
        pass.records.push(record);
    }
    Ok(pass)
}

/// Runs zone-tesla; with `trace`, also the traced pass.
pub fn run(p: &ZoneParams, trace: bool) -> Result<RunReport, CoreError> {
    let mut report = RunReport {
        workers: 1,
        ..RunReport::default()
    };
    let timed_train = || -> Result<(Trained, f64), CoreError> {
        let t = Instant::now();
        let fitted = train(p.seed, p.train_days)?;
        Ok((fitted, t.elapsed().as_secs_f64()))
    };
    let setups = p.setups.max(1);
    let mut setup_s = Vec::with_capacity(setups);
    for _ in 1..setups.div_ceil(2) {
        setup_s.push(timed_train()?.1);
    }
    let (trained, took) = timed_train()?;
    setup_s.push(took);
    let eps = episodes(p);

    let mut pass = untraced_pass(&trained, &eps)?;
    while setup_s.len() < setups {
        setup_s.push(timed_train()?.1);
    }
    let decisions = pass.decide_s.len() as u64;
    let (p50, p90) = p50_p90(&mut pass.decide_s);
    let energy: f64 = pass.records.iter().map(|r| r.energy_kwh).sum();
    let violations: u64 = pass.records.iter().map(|r| r.violation_minutes).sum();
    let minutes = (eps.len() * p.minutes) as u64;
    report.attempted = decisions;
    report.failed = pass
        .records
        .iter()
        .map(|r| r.watchdog_trips + r.timeouts)
        .sum();
    for (ep, r) in eps.iter().zip(&pass.records) {
        check_setpoints(
            &mut report,
            &format!("{:?} episode", ep.setting),
            &r.setpoints,
        );
    }
    if violations > 0 {
        report.fail(format!(
            "TESLA let the ground-truth cold aisle exceed 22 °C for {violations} minutes"
        ));
    }
    report.end_to_end = vec![
        Stat::new(
            "setup_s",
            median(&setup_s),
            "s",
            setup_s.len() as u64,
            "sweep generation + model fit (median of set-ups)",
        ),
        Stat::new("peak_rss_mb", f64::NAN, "MB", 1, "peak resident set"),
        Stat::new(
            "throughput_per_s",
            minutes as f64 / pass.loop_s,
            "1/s",
            minutes,
            "zone_minutes_per_s: metered zone-minutes per wall second",
        ),
        Stat::new(
            "latency_p90_ms",
            p90 * 1e3,
            "ms",
            decisions,
            "decide_p90_ms: supervised decision",
        ),
        Stat::new(
            "cooling_energy_kwh",
            energy,
            "kWh",
            minutes,
            "ACU energy over the metered minutes of all episodes",
        ),
    ];
    report.detail = vec![
        Stat::new(
            "decide_p50_ms",
            p50 * 1e3,
            "ms",
            decisions,
            "supervised decision",
        ),
        Stat::new(
            "violation_minutes",
            violations as f64,
            "zone-min",
            minutes,
            "ground-truth cold aisle above 22 °C (must be 0)",
        ),
    ];

    if trace {
        trace_pass(&trained, &eps, &pass, &mut report)?;
    }
    Ok(report)
}

/// The traced pass: timing wrappers around controller and plant, loop
/// phase timers, and the replay of every decision.
fn trace_pass(
    trained: &Trained,
    eps: &[EpisodeConfig],
    untraced: &Pass,
    report: &mut RunReport,
) -> Result<(), CoreError> {
    let decide = Arc::new(Busy::default());
    let step = Arc::new(Busy::default());
    let timers = LoopTimers::default();
    let tesla = TeslaController::with_model(trained.model.clone(), trained.config.clone())?;
    let mut recorder = Recorder {
        timed: TimedController::new(tesla, Arc::clone(&decide)),
        trained,
        optimizer: BayesianOptimizer::new(trained.config.bo.clone())?,
        monitor: PredictionErrorMonitor::new(
            trained.config.monitor_window,
            trained.config.prior_noise,
        ),
        sub: SubLayers::default(),
        replay: Busy::default(),
        evals: 0,
        diverged: 0,
        unreadable: 0,
    };
    let mut loops = 0.0;
    let mut sink = Vec::new();
    for (ep, reference) in eps.iter().zip(&untraced.records) {
        let plant = TimedPlant::new(Testbed::new(ep.sim.clone(), ep.seed)?, Arc::clone(&step));
        let (record, loop_s) = run_episode(plant, ep, &mut recorder, &mut sink, Some(&timers))?;
        loops += loop_s;
        if !same_bits(&record.setpoints, &reference.setpoints) {
            report.fail(format!(
                "{:?} episode: traced set-points differ from the untraced run",
                ep.setting
            ));
        }
    }
    let (sub, replay) = (&recorder.sub, recorder.replay.seconds());
    if recorder.unreadable > 0 {
        report.fail(format!(
            "TESLA's save_state blob was not in the layout the replay reads for {} decisions",
            recorder.unreadable
        ));
    }
    if recorder.diverged > 0 {
        report.fail(format!(
            "{} of {} replayed decisions differ from TESLA's",
            recorder.diverged,
            recorder.replay.calls()
        ));
    }

    // The replay runs inside the supervised decide, after TESLA's own
    // decision; its time comes out of the loop and of the supervisor.
    let wall = loops - replay;
    let supervised = timers.supervised.seconds() - replay;
    let pct = |s: f64| 100.0 * s / wall;
    let decide_rest = decide.seconds()
        - sub.bootstrap.seconds()
        - sub.prepare.seconds()
        - sub.predict.seconds()
        - (sub.optimize.seconds() - sub.eval.seconds());
    report.layer("trace.wall_s", wall);
    report.layer(
        "trace.overhead_pct",
        100.0 * (wall - untraced.loop_s) / untraced.loop_s,
    );
    report.layer(
        "trace.residual_pct",
        pct(wall - supervised - timers.advance.seconds()),
    );
    report.layer("core.decide.count", decide.calls() as f64);
    report.layer("core.decide.busy_pct", pct(decide.seconds()));
    report.layer(
        "core.supervise.busy_pct",
        pct(supervised - decide.seconds()),
    );
    report.layer(
        "core.advance.busy_pct",
        pct(timers.advance.seconds() - step.seconds()),
    );
    report.layer("sim.step.busy_pct", pct(step.seconds()));
    report.layer("bo.bootstrap.busy_pct", pct(sub.bootstrap.seconds()));
    report.layer("forecast.prepare.count", sub.prepare.calls() as f64);
    report.layer("forecast.prepare.busy_pct", pct(sub.prepare.seconds()));
    report.layer("forecast.predict.count", sub.predict.calls() as f64);
    report.layer("forecast.predict.busy_pct", pct(sub.predict.seconds()));
    report.layer("bo.optimize.count", sub.optimize.calls() as f64);
    report.layer(
        "bo.optimize.self_pct",
        pct(sub.optimize.seconds() - sub.eval.seconds()),
    );
    report.layer(
        "bo.evals_per_decision",
        recorder.evals as f64 / recorder.replay.calls().max(1) as f64,
    );
    report.layer("core.decide.residual_pct", pct(decide_rest));
    Ok(())
}

/// Bit-for-bit equality of two set-point sequences.
pub(crate) fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Zone-loop layer times `(decide, advance minus physics, physics)` of
/// one traced episode with an arbitrary controller — the attribution
/// self-test's entry point.
pub fn traced_layer_seconds<C: Controller>(
    controller: C,
    cfg: &EpisodeConfig,
) -> Result<(f64, f64, f64), CoreError> {
    let decide = Arc::new(Busy::default());
    let step = Arc::new(Busy::default());
    let timers = LoopTimers::default();
    let mut timed = TimedController::new(controller, Arc::clone(&decide));
    let plant = TimedPlant::new(Testbed::new(cfg.sim.clone(), cfg.seed)?, Arc::clone(&step));
    run_episode(plant, cfg, &mut timed, &mut Vec::new(), Some(&timers))?;
    Ok((
        decide.seconds(),
        timers.advance.seconds() - step.seconds(),
        step.seconds(),
    ))
}
