//! Supervised execution: watchdog, retrying writes, degradation ladder.
//!
//! §3.3 gives TESLA a single backup strategy (fall back to `S_min` when
//! no candidate is feasible). A deployment needs more: the decision
//! process can hang, the Modbus write can time out, the telemetry can
//! rot. [`Supervisor`] wraps any [`Controller`] with:
//!
//! * a **decision watchdog** — a wall-clock budget per decision; an
//!   over-budget decision is discarded in favour of the last safe
//!   set-point;
//! * **retrying set-point writes** — transient Modbus failures are
//!   retried with exponential backoff before being declared failed;
//! * a three-rung **degradation ladder** with hysteresis:
//!
//!   | rung | behaviour |
//!   |------|-----------|
//!   | `Normal` | execute the controller's decisions |
//!   | `HoldLastSafe` | ignore the controller; hold the last set-point executed while healthy |
//!   | `SafeMode` | command `S_min` (maximum cooling) |
//!
//!   Stress (watchdog trips, failed writes, quarantined telemetry,
//!   observed thermal violations) must persist for `escalate_after`
//!   consecutive minutes to climb a rung; recovery requires
//!   `recover_after` consecutive clean minutes to descend one. The
//!   asymmetry (`recover_after > escalate_after`) is the hysteresis that
//!   prevents rung oscillation at a stress threshold.
//!
//! Two refinements keep recovery itself from destabilizing the loop.
//! Descending from `SafeMode`, the hold rung *ramps* the set-point back
//! up at `recovery_slew_c_per_min` instead of snapping to `last_safe`
//! (the room sits far below it after a safe-mode excursion; a step
//! overshoots the thermal limit and re-escalates — a limit cycle).
//! Downward moves — and safe mode itself — are never slewed: cooling
//! harder is always safe. And an *observed* thermal violation pulls
//! `last_safe` below the set-point that just proved unsafe
//! (`violation_backoff_c`), so the ladder never re-holds a stale value
//! the current load has outgrown.
//!
//! Every transition is logged with its minute and dominant reason, and
//! the log is queryable after the episode.

use crate::controller::Controller;
use crate::engine::ZoneEpisode;
use crate::experiment::{EpisodeConfig, EvalResult};
use crate::CoreError;
use std::sync::OnceLock;
use std::time::{Duration, Instant};
use tesla_forecast::Trace;
use tesla_sim::{CoolingPlant, SimError};
use tesla_units::{Celsius, DegC, NOMINAL_SETPOINT, SETPOINT_RANGE};

/// The degradation ladder's rungs, mildest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rung {
    /// Execute the wrapped controller's decisions.
    Normal,
    /// Hold the last set-point that was executed while healthy.
    HoldLastSafe,
    /// Command the safe-mode set-point (`S_min`, maximum cooling).
    SafeMode,
}

impl Rung {
    /// Metric-label spelling of the rung, matching the event log's
    /// `Debug` names (`supervisor_rung_transitions_total{to="SafeMode"}`).
    pub fn label(self) -> &'static str {
        match self {
            Rung::Normal => "Normal",
            Rung::HoldLastSafe => "HoldLastSafe",
            Rung::SafeMode => "SafeMode",
        }
    }

    /// Ladder position as a number (0 = Normal, 2 = SafeMode) for the
    /// `supervisor_rung_index` gauge.
    pub fn index(self) -> u8 {
        match self {
            Rung::Normal => 0,
            Rung::HoldLastSafe => 1,
            Rung::SafeMode => 2,
        }
    }

    fn escalated(self) -> Rung {
        match self {
            Rung::Normal => Rung::HoldLastSafe,
            Rung::HoldLastSafe | Rung::SafeMode => Rung::SafeMode,
        }
    }

    fn recovered(self) -> Rung {
        match self {
            Rung::SafeMode => Rung::HoldLastSafe,
            Rung::HoldLastSafe | Rung::Normal => Rung::Normal,
        }
    }

    /// Inverse of [`Rung::index`] (for the checkpoint codec).
    pub fn from_index(index: u8) -> Option<Rung> {
        match index {
            0 => Some(Rung::Normal),
            1 => Some(Rung::HoldLastSafe),
            2 => Some(Rung::SafeMode),
            _ => None,
        }
    }
}

/// Why the supervisor considered a minute stressed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StressReason {
    /// The controller blew its decision budget.
    Watchdog,
    /// The set-point write failed after all retries.
    WriteFailed,
    /// Too much telemetry is quarantined.
    Telemetry,
    /// A cold-aisle sensor (sanitized) read above the limit.
    ThermalViolation,
    /// The decision process died entirely (threaded runtime).
    ConsumerLost,
    /// The decision overran the hard step deadline and was discarded.
    DecisionTimeout,
}

impl StressReason {
    /// Metric-label spelling of the reason.
    pub fn label(self) -> &'static str {
        match self {
            StressReason::Watchdog => "Watchdog",
            StressReason::WriteFailed => "WriteFailed",
            StressReason::Telemetry => "Telemetry",
            StressReason::ThermalViolation => "ThermalViolation",
            StressReason::ConsumerLost => "ConsumerLost",
            StressReason::DecisionTimeout => "DecisionTimeout",
        }
    }

    /// Stable wire code for the checkpoint codec.
    pub fn code(self) -> u8 {
        match self {
            StressReason::Watchdog => 0,
            StressReason::WriteFailed => 1,
            StressReason::Telemetry => 2,
            StressReason::ThermalViolation => 3,
            StressReason::ConsumerLost => 4,
            StressReason::DecisionTimeout => 5,
        }
    }

    /// Inverse of [`StressReason::code`].
    pub fn from_code(code: u8) -> Option<StressReason> {
        match code {
            0 => Some(StressReason::Watchdog),
            1 => Some(StressReason::WriteFailed),
            2 => Some(StressReason::Telemetry),
            3 => Some(StressReason::ThermalViolation),
            4 => Some(StressReason::ConsumerLost),
            5 => Some(StressReason::DecisionTimeout),
            _ => None,
        }
    }
}

/// `supervisor_rung_minutes_total{rung}`, resolved on the global
/// registry once per rung, so the per-minute count builds no key and
/// takes no registry lock.
fn rung_minutes_counter(rung: Rung) -> &'static tesla_obs::Counter {
    static NORMAL: OnceLock<tesla_obs::Counter> = OnceLock::new();
    static HOLD_LAST_SAFE: OnceLock<tesla_obs::Counter> = OnceLock::new();
    static SAFE_MODE: OnceLock<tesla_obs::Counter> = OnceLock::new();
    let handle = match rung {
        Rung::Normal => &NORMAL,
        Rung::HoldLastSafe => &HOLD_LAST_SAFE,
        Rung::SafeMode => &SAFE_MODE,
    };
    handle.get_or_init(|| {
        tesla_obs::global().counter("supervisor_rung_minutes_total", &[("rung", rung.label())])
    })
}

/// Records one ladder transition into the global registry and trace.
fn record_transition(event: &SupervisorEvent) {
    tesla_obs::global()
        .counter(
            "supervisor_rung_transitions_total",
            &[
                ("from", event.from.label()),
                ("to", event.to.label()),
                ("reason", event.reason.label()),
            ],
        )
        .inc();
    tesla_obs::gauge!("supervisor_rung_index").set(event.to.index() as f64);
    tesla_obs::event(
        "supervisor_transition",
        &[
            ("minute", event.minute as f64),
            ("from", event.from.index() as f64),
            ("to", event.to.index() as f64),
        ],
    );
}

/// One ladder transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisorEvent {
    /// Metered minute index the transition happened at.
    pub minute: usize,
    /// Rung before.
    pub from: Rung,
    /// Rung after.
    pub to: Rung,
    /// Dominant stress reason (recovery transitions carry the reason
    /// that originally caused the climb).
    pub reason: StressReason,
}

/// Supervisor thresholds and budgets.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Wall-clock budget per decision, milliseconds. A decision over the
    /// budget is *used* but counts as stress (the soft watchdog).
    pub decision_budget_ms: u64,
    /// Hard per-step deadline, milliseconds. A decision over the deadline
    /// is *discarded*: the supervisor logs a `DecisionTimeout`, falls back
    /// to the previous safe set-point (one rung of the ladder), and lets
    /// the stress streak escalate from there. `None` disables.
    pub step_deadline_ms: Option<u64>,
    /// Set-point write attempts per minute before declaring failure.
    pub max_write_attempts: u32,
    /// Base backoff between write retries, milliseconds (doubles per
    /// attempt).
    pub retry_backoff_ms: u64,
    /// Fraction of each retry delay shaved off by the deterministic
    /// jitter (see [`tesla_backoff::BackoffPolicy::jitter`]).
    pub retry_jitter: f64,
    /// Transition-log capacity: beyond this many events the oldest are
    /// dropped (and `supervisor_events_dropped_total` counts them), so a
    /// week-long episode with flapping faults cannot grow memory
    /// unboundedly.
    pub max_events: usize,
    /// Consecutive stressed minutes before climbing one rung.
    pub escalate_after: u32,
    /// Consecutive clean minutes before descending one rung.
    pub recover_after: u32,
    /// Quarantined fraction of cold-aisle telemetry counting as stress.
    pub quarantine_stress_frac: f64,
    /// Safe-mode set-point (`S_min`).
    pub safe_setpoint: Celsius,
    /// Cold-aisle limit whose violation counts as stress.
    pub d_allowed: Celsius,
    /// Maximum *upward* set-point movement per minute while at
    /// `HoldLastSafe`, °C. After a safe-mode excursion the room can sit
    /// far below the hold target; snapping back in one step overshoots
    /// the thermal limit and re-escalates (a limit cycle). Downward moves
    /// are never limited — cooling harder is always safe.
    pub recovery_slew_c_per_min: DegC,
    /// How far below the executed set-point `last_safe` is pulled when a
    /// thermal violation is observed, °C. A violation proves the executed
    /// value unsafe at the current load, so holding it again would just
    /// repeat the violation.
    pub violation_backoff_c: DegC,
    /// Early-warning band below `d_allowed`, °C. An observed cold-aisle
    /// max inside the band already triggers the `last_safe` backoff —
    /// but not the stress signal — so a recovery ramp turns around
    /// *before* the thermal lag carries the room across the limit.
    pub thermal_warn_margin_c: DegC,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            decision_budget_ms: 5_000,
            step_deadline_ms: Some(30_000),
            max_write_attempts: 4,
            retry_backoff_ms: 1,
            retry_jitter: 0.25,
            max_events: 1_024,
            escalate_after: 3,
            recover_after: 10,
            quarantine_stress_frac: 0.25,
            safe_setpoint: SETPOINT_RANGE.min(),
            d_allowed: Celsius::new(22.0),
            recovery_slew_c_per_min: DegC::new(0.25),
            violation_backoff_c: DegC::new(1.0),
            thermal_warn_margin_c: DegC::new(1.0),
        }
    }
}

impl SupervisorConfig {
    /// A supervisor that never overrides the controller: no wall-clock
    /// budget or deadline discards a decision, so results do not depend
    /// on host speed, and stress never persists long enough to leave
    /// `Normal`. Writes still retry and out-of-spec set-points are still
    /// refused. [`crate::run_episode`] runs under it.
    pub fn pass_through() -> Self {
        SupervisorConfig {
            decision_budget_ms: u64::MAX,
            step_deadline_ms: None,
            escalate_after: u32::MAX,
            ..SupervisorConfig::default()
        }
    }
}

/// Wraps a [`Controller`] with the watchdog, retrying writes, and the
/// degradation ladder.
#[derive(Debug)]
pub struct Supervisor {
    cfg: SupervisorConfig,
    rung: Rung,
    stress_streak: u32,
    clean_streak: u32,
    /// Stress reason pending attribution for the next escalation.
    pending_reason: Option<StressReason>,
    /// Reason behind the current elevated rung (for recovery events).
    elevated_reason: Option<StressReason>,
    last_safe_setpoint: Celsius,
    /// Set-point actually executed last minute (ramp base for recovery).
    last_executed: Option<Celsius>,
    events: Vec<SupervisorEvent>,
    events_dropped: u64,
    safe_mode_minutes: u64,
    hold_minutes: u64,
    watchdog_trips: u64,
    write_failures: u64,
    write_retries: u64,
    decision_timeouts: u64,
    /// Where minute-boundary status is published for network readers
    /// (none by default; see [`crate::status::StatusBoard`]). Not part
    /// of checkpointed state — a resumed process re-attaches its own.
    status_board: Option<std::sync::Arc<crate::status::StatusBoard>>,
}

/// A full snapshot of a [`Supervisor`]'s mutable state, as captured into
/// (and restored from) a [`crate::checkpoint::Checkpoint`]. The ladder's
/// wall-clock-dependent history (watchdog trips, retry counts) cannot be
/// reproduced by replaying an episode prefix, so a resume *installs* this
/// snapshot at the cursor instead of re-deriving it.
#[derive(Debug, Clone, PartialEq)]
pub struct SupervisorState {
    /// Current rung.
    pub rung: Rung,
    /// Consecutive stressed minutes so far.
    pub stress_streak: u32,
    /// Consecutive clean minutes so far.
    pub clean_streak: u32,
    /// Stress reason pending attribution for the next escalation.
    pub pending_reason: Option<StressReason>,
    /// Reason behind the current elevated rung.
    pub elevated_reason: Option<StressReason>,
    /// The hold rung's target.
    pub last_safe_setpoint: Celsius,
    /// Set-point executed last minute.
    pub last_executed: Option<Celsius>,
    /// The transition log (bounded by `max_events`).
    pub events: Vec<SupervisorEvent>,
    /// Events dropped from the log by the ring cap.
    pub events_dropped: u64,
    /// Minutes spent at `SafeMode`.
    pub safe_mode_minutes: u64,
    /// Minutes spent at `HoldLastSafe`.
    pub hold_minutes: u64,
    /// Soft-watchdog trips.
    pub watchdog_trips: u64,
    /// Writes failed after all retries.
    pub write_failures: u64,
    /// Individual write retries.
    pub write_retries: u64,
    /// Hard-deadline overruns.
    pub decision_timeouts: u64,
}

impl Supervisor {
    /// A supervisor at rung `Normal` with `cfg`'s thresholds.
    pub fn new(cfg: SupervisorConfig) -> Self {
        let last_safe_setpoint = NOMINAL_SETPOINT.max(cfg.safe_setpoint);
        Supervisor {
            cfg,
            rung: Rung::Normal,
            stress_streak: 0,
            clean_streak: 0,
            pending_reason: None,
            elevated_reason: None,
            last_safe_setpoint,
            last_executed: None,
            events: Vec::new(),
            events_dropped: 0,
            safe_mode_minutes: 0,
            hold_minutes: 0,
            watchdog_trips: 0,
            write_failures: 0,
            write_retries: 0,
            decision_timeouts: 0,
            status_board: None,
        }
    }

    /// Publishes a [`crate::status::StatusSnapshot`] to `board` at every
    /// minute boundary from now on, making this supervisor's rung,
    /// executed set-point, and health counters visible to the network
    /// service's `STATUS`/`SETPOINT` endpoints.
    pub fn attach_status_board(&mut self, board: std::sync::Arc<crate::status::StatusBoard>) {
        self.status_board = Some(board);
    }

    /// The configuration.
    pub fn config(&self) -> &SupervisorConfig {
        &self.cfg
    }

    /// Current rung.
    pub fn rung(&self) -> Rung {
        self.rung
    }

    /// The ladder's transition log.
    pub fn events(&self) -> &[SupervisorEvent] {
        &self.events
    }

    /// Minutes spent at `SafeMode`.
    pub fn safe_mode_minutes(&self) -> u64 {
        self.safe_mode_minutes
    }

    /// Minutes spent at `HoldLastSafe`.
    pub fn hold_minutes(&self) -> u64 {
        self.hold_minutes
    }

    /// Decisions discarded for blowing the budget.
    pub fn watchdog_trips(&self) -> u64 {
        self.watchdog_trips
    }

    /// Write attempts that failed after all retries.
    pub fn write_failures(&self) -> u64 {
        self.write_failures
    }

    /// Individual write retries performed.
    pub fn write_retries(&self) -> u64 {
        self.write_retries
    }

    /// Decisions discarded for overrunning the hard step deadline.
    pub fn decision_timeouts(&self) -> u64 {
        self.decision_timeouts
    }

    /// Transition-log entries dropped by the ring cap.
    pub fn events_dropped(&self) -> u64 {
        self.events_dropped
    }

    /// Appends to the transition log, dropping the oldest entry once the
    /// configured cap is reached (drop-oldest, like the obs trace ring).
    fn push_event(&mut self, event: SupervisorEvent) {
        if self.cfg.max_events == 0 {
            self.events_dropped += 1;
            tesla_obs::counter!("supervisor_events_dropped_total").inc();
            return;
        }
        if self.events.len() >= self.cfg.max_events {
            self.events.remove(0);
            self.events_dropped += 1;
            tesla_obs::counter!("supervisor_events_dropped_total").inc();
        }
        self.events.push(event);
    }

    /// Snapshots the full mutable state (for checkpointing).
    pub fn state(&self) -> SupervisorState {
        SupervisorState {
            rung: self.rung,
            stress_streak: self.stress_streak,
            clean_streak: self.clean_streak,
            pending_reason: self.pending_reason,
            elevated_reason: self.elevated_reason,
            last_safe_setpoint: self.last_safe_setpoint,
            last_executed: self.last_executed,
            events: self.events.clone(),
            events_dropped: self.events_dropped,
            safe_mode_minutes: self.safe_mode_minutes,
            hold_minutes: self.hold_minutes,
            watchdog_trips: self.watchdog_trips,
            write_failures: self.write_failures,
            write_retries: self.write_retries,
            decision_timeouts: self.decision_timeouts,
        }
    }

    /// Installs a snapshot taken by [`Supervisor::state`], overriding the
    /// current ladder state. Used by the resume path at the checkpoint
    /// cursor; no transition metrics are emitted (the original process
    /// already accounted for them).
    pub fn restore_state(&mut self, state: SupervisorState) {
        self.rung = state.rung;
        self.stress_streak = state.stress_streak;
        self.clean_streak = state.clean_streak;
        self.pending_reason = state.pending_reason;
        self.elevated_reason = state.elevated_reason;
        self.last_safe_setpoint = state.last_safe_setpoint;
        self.last_executed = state.last_executed;
        self.events = state.events;
        self.events_dropped = state.events_dropped;
        self.safe_mode_minutes = state.safe_mode_minutes;
        self.hold_minutes = state.hold_minutes;
        self.watchdog_trips = state.watchdog_trips;
        self.write_failures = state.write_failures;
        self.write_retries = state.write_retries;
        self.decision_timeouts = state.decision_timeouts;
    }

    /// Starts the ladder at `HoldLastSafe` with `reason` — the posture a
    /// restarted control plane takes when no valid checkpoint survived:
    /// hold the (nominal) safe set-point until `recover_after` clean
    /// minutes prove the plant healthy, instead of trusting a fresh
    /// controller immediately.
    pub fn start_elevated(&mut self, reason: StressReason) {
        if self.rung == Rung::Normal {
            self.rung = Rung::HoldLastSafe;
            self.elevated_reason = Some(reason);
            self.clean_streak = 0;
            self.stress_streak = 0;
            let event = SupervisorEvent {
                minute: 0,
                from: Rung::Normal,
                to: Rung::HoldLastSafe,
                reason,
            };
            record_transition(&event);
            self.push_event(event);
        }
    }

    /// The hold-rung target: `last_safe`, approached from the last
    /// executed set-point at no more than the recovery slew rate when
    /// moving *up* (reducing cooling). Downward moves are immediate.
    fn hold_target(&self) -> Celsius {
        let target = self.last_safe_setpoint;
        match self.last_executed {
            Some(prev) if target > prev => {
                (prev + self.cfg.recovery_slew_c_per_min.max(DegC::new(0.0))).min(target)
            }
            _ => target,
        }
    }

    /// The set-point the ladder would execute if the controller proposed
    /// `proposed` right now.
    pub fn resolve_setpoint(&self, proposed: Celsius) -> Celsius {
        match self.rung {
            Rung::Normal => proposed,
            Rung::HoldLastSafe => self.hold_target(),
            // Safe mode jumps straight to S_min: the safety response must
            // be fast; only the recovery back up is slewed.
            Rung::SafeMode => self.cfg.safe_setpoint,
        }
    }

    /// Runs one decision under the watchdog and resolves it through the
    /// ladder. Returns the set-point to execute.
    pub fn decide(&mut self, controller: &mut dyn Controller, history: &Trace) -> Celsius {
        let t0 = Instant::now();
        let proposed = Celsius::new(controller.decide(history));
        let elapsed = t0.elapsed();
        // Hard deadline first: an overrun past it means the decision is
        // too stale to trust at all — discard it, log the timeout, and
        // fall back one rung (hold the previous safe set-point).
        if self
            .cfg
            .step_deadline_ms
            .is_some_and(|d| elapsed > Duration::from_millis(d))
        {
            self.decision_timeouts += 1;
            tesla_obs::counter!("supervisor_decision_timeouts_total").inc();
            tesla_obs::event(
                "decision_timeout",
                &[("elapsed_ms", elapsed.as_millis() as f64)],
            );
            self.note_stress(StressReason::DecisionTimeout);
            return match self.rung {
                Rung::SafeMode => self.cfg.safe_setpoint,
                Rung::Normal | Rung::HoldLastSafe => self.hold_target(),
            };
        }
        let over_budget = elapsed > Duration::from_millis(self.cfg.decision_budget_ms);
        if over_budget {
            self.watchdog_trips += 1;
            tesla_obs::counter!("supervisor_watchdog_trips_total").inc();
            self.note_stress(StressReason::Watchdog);
            // The decision is stale; hold the last safe value instead
            // (unless the ladder already demands something stronger).
            return match self.rung {
                Rung::SafeMode => self.cfg.safe_setpoint,
                Rung::Normal | Rung::HoldLastSafe => self.hold_target(),
            };
        }
        self.resolve_setpoint(proposed)
    }

    /// The retry policy for register writes, derived from the config:
    /// the classic doubling schedule the supervisor always used, now
    /// expressed through the shared [`tesla_backoff::BackoffPolicy`]
    /// (with its deterministic jitter).
    fn write_backoff(&self) -> tesla_backoff::BackoffPolicy {
        tesla_backoff::BackoffPolicy {
            base_ms: self.cfg.retry_backoff_ms,
            factor: 2,
            max_delay_ms: self.cfg.retry_backoff_ms.saturating_mul(1 << 10),
            max_attempts: self.cfg.max_write_attempts.max(1),
            jitter: self.cfg.retry_jitter,
            // Salted by the retry history so consecutive failure bursts
            // draw different (but still reproducible) jitter.
            seed: 0xB0FF ^ self.write_retries,
        }
    }

    /// Writes `sp` to the plant (a [`tesla_sim::Testbed`] or any other
    /// [`CoolingPlant`]), retrying transient Modbus failures (timeouts,
    /// device rejections) with the shared jittered-exponential backoff
    /// policy. Validation errors (out-of-spec set-points) are not
    /// retried — retrying cannot fix them. Returns the quantized
    /// set-point latched, or the error from the final attempt.
    pub fn write_with_retry(
        &mut self,
        plant: &mut dyn CoolingPlant,
        sp: Celsius,
    ) -> Result<Celsius, SimError> {
        let policy = self.write_backoff();
        let retries = &mut self.write_retries;
        let result = policy.run(
            |_| plant.try_write_setpoint(sp),
            |e| matches!(e, SimError::WriteTimeout | SimError::RegisterRejected(_)),
            |_| {
                *retries += 1;
                tesla_obs::counter!("supervisor_write_retries_total").inc();
            },
        );
        if result.is_err() {
            self.write_failures += 1;
            tesla_obs::counter!("supervisor_write_failures_total").inc();
            self.note_stress(StressReason::WriteFailed);
        }
        result
    }

    /// Marks the current minute as stressed for `reason`. The first
    /// reason noted in a minute wins attribution. Called internally by
    /// the watchdog/write paths; external runtimes use it for stress the
    /// supervisor cannot observe itself (e.g. a lost consumer thread).
    pub fn note_stress(&mut self, reason: StressReason) {
        if self.pending_reason.is_none() {
            self.pending_reason = Some(reason);
        }
    }

    /// Closes one supervised minute: folds the minute's telemetry health
    /// and observed thermals into the stress signal, advances the
    /// hysteresis streaks, and moves the ladder. `minute` indexes the
    /// metered episode (for the event log).
    pub fn end_of_minute(
        &mut self,
        minute: usize,
        quarantined_frac: f64,
        observed_cold_aisle_max: Celsius,
        executed_setpoint: Celsius,
    ) {
        if quarantined_frac >= self.cfg.quarantine_stress_frac {
            self.note_stress(StressReason::Telemetry);
        }
        if observed_cold_aisle_max > self.cfg.d_allowed {
            self.note_stress(StressReason::ThermalViolation);
        }
        let warned = observed_cold_aisle_max
            > self.cfg.d_allowed - self.cfg.thermal_warn_margin_c.max(DegC::new(0.0));
        if warned {
            // The executed set-point just proved (or is about to prove)
            // unsafe at the current load: a stale `last_safe` must not be
            // re-held as-is, or the ladder limit-cycles between safe mode
            // and the same violating value. Pull it below what was
            // executed (never above, never under `S_min`). Acting already
            // in the warning band matters because of thermal lag — by the
            // time the limit itself is crossed, the room has minutes of
            // overshoot banked.
            let fallback = (executed_setpoint - self.cfg.violation_backoff_c.max(DegC::new(0.0)))
                .max(self.cfg.safe_setpoint);
            if fallback < self.last_safe_setpoint {
                tesla_obs::counter!("supervisor_violation_backoffs_total").inc();
            }
            self.last_safe_setpoint = self.last_safe_setpoint.min(fallback);
        }

        match self.rung {
            Rung::SafeMode => self.safe_mode_minutes += 1,
            Rung::HoldLastSafe => self.hold_minutes += 1,
            Rung::Normal => {}
        }
        rung_minutes_counter(self.rung).inc();
        tesla_obs::gauge!("supervisor_rung_index").set(self.rung.index() as f64);

        let stressed = self.pending_reason.is_some();
        if stressed {
            self.stress_streak += 1;
            self.clean_streak = 0;
            if self.stress_streak >= self.cfg.escalate_after.max(1) && self.rung != Rung::SafeMode {
                let from = self.rung;
                self.rung = self.rung.escalated();
                let reason = self.pending_reason.unwrap_or(StressReason::Telemetry);
                self.elevated_reason = Some(reason);
                let event = SupervisorEvent {
                    minute,
                    from,
                    to: self.rung,
                    reason,
                };
                record_transition(&event);
                self.push_event(event);
                self.stress_streak = 0;
            }
        } else {
            self.clean_streak += 1;
            self.stress_streak = 0;
            if self.rung == Rung::Normal {
                // Only a clean, normally-executed minute defines "safe" —
                // and not one inside the warning band, or the update
                // would re-bless a set-point the backoff just rejected.
                if !warned {
                    self.last_safe_setpoint = executed_setpoint;
                }
            } else if self.clean_streak >= self.cfg.recover_after.max(1) {
                let from = self.rung;
                self.rung = self.rung.recovered();
                let reason = self.elevated_reason.unwrap_or(StressReason::Telemetry);
                let event = SupervisorEvent {
                    minute,
                    from,
                    to: self.rung,
                    reason,
                };
                record_transition(&event);
                self.push_event(event);
                if self.rung == Rung::Normal {
                    self.elevated_reason = None;
                }
                self.clean_streak = 0;
            }
        }
        self.pending_reason = None;
        self.last_executed = Some(executed_setpoint);
        if let Some(board) = &self.status_board {
            board.publish(crate::status::StatusSnapshot::capture(
                self,
                minute as u64,
                executed_setpoint,
                observed_cold_aisle_max,
            ));
        }
    }

    /// Forces the ladder straight to `SafeMode` (the decision process is
    /// gone; nothing milder is meaningful).
    pub fn force_safe_mode(&mut self, minute: usize, reason: StressReason) {
        if self.rung != Rung::SafeMode {
            let from = self.rung;
            self.rung = Rung::SafeMode;
            self.elevated_reason = Some(reason);
            // A clean streak from before the forced escalation must not
            // count toward recovery.
            self.clean_streak = 0;
            self.stress_streak = 0;
            let event = SupervisorEvent {
                minute,
                from,
                to: Rung::SafeMode,
                reason,
            };
            record_transition(&event);
            self.push_event(event);
        }
    }

    /// Resets ladder state between episodes (the event log is cleared).
    pub fn reset(&mut self) {
        self.rung = Rung::Normal;
        self.stress_streak = 0;
        self.clean_streak = 0;
        self.pending_reason = None;
        self.elevated_reason = None;
        self.last_safe_setpoint = NOMINAL_SETPOINT.max(self.cfg.safe_setpoint);
        self.last_executed = None;
        self.events.clear();
        self.events_dropped = 0;
        self.safe_mode_minutes = 0;
        self.hold_minutes = 0;
        self.watchdog_trips = 0;
        self.write_failures = 0;
        self.write_retries = 0;
        self.decision_timeouts = 0;
    }
}

/// State installed into the control plane at the resume cursor (see
/// [`crate::resume`]).
#[derive(Debug, Clone)]
pub struct ResumeState {
    /// The supervisor snapshot from the checkpoint.
    pub supervisor: SupervisorState,
    /// Opaque controller state bytes ([`Controller::save_state`]).
    pub controller: Option<Vec<u8>>,
}

/// One live (post-cursor) minute as seen by an engine observer.
pub(crate) struct EngineMinute<'a> {
    /// Metered minute just completed.
    pub minute: usize,
    /// Executed set-points so far (length `minute + 1`).
    // lint:allow(no-raw-f64-in-public-api): crate-internal engine view mirroring EvalResult's raw trace
    pub setpoints: &'a [f64],
    /// The supervisor, after `end_of_minute`.
    pub supervisor: &'a Supervisor,
    /// The controller, after its decision.
    pub controller: &'a dyn Controller,
    /// Whether the ladder moved this minute.
    pub rung_changed: bool,
}

/// Hooks that turn the supervised episode runner into a resumable,
/// checkpointable engine. The default (`EngineHooks::default()`) is a
/// plain uninterrupted episode.
#[derive(Default)]
pub(crate) struct EngineHooks<'a> {
    /// Executed set-points forced for minutes `0..prefix.len()` (the
    /// bit-identical replay of the pre-crash prefix). While replaying,
    /// the controller's decision path is skipped ([`Controller::
    /// replay_minute`] runs instead) and the supervisor's ladder is not
    /// advanced — its state is installed wholesale at the cursor.
    pub prefix: &'a [f64],
    /// State installed when the metered loop reaches `prefix.len()`.
    pub resume: Option<&'a ResumeState>,
    /// Ladder posture applied right after reset: the no-valid-checkpoint
    /// fallback starts at `HoldLastSafe` instead of trusting a cold
    /// controller immediately.
    pub start_elevated: Option<StressReason>,
    /// Simulated crash: stop after this many metered minutes.
    pub abort_after: Option<usize>,
    /// Called after each live (non-replayed) minute — the checkpoint
    /// writer hangs off this.
    pub observer: Option<&'a mut dyn FnMut(EngineMinute<'_>)>,
}

/// Runs one supervised closed-loop episode: telemetry is sanitized by
/// per-signal [`crate::health::HealthMonitor`]s before the controller
/// sees it, decisions run under the watchdog, writes retry, and the
/// degradation ladder governs what is actually executed. Thermal-safety
/// metrics are scored on the *ground-truth* cold-aisle temperature, not
/// the possibly-lying sensors.
pub fn run_supervised_episode(
    controller: &mut dyn Controller,
    supervisor: &mut Supervisor,
    config: &EpisodeConfig,
) -> Result<EvalResult, CoreError> {
    run_supervised_episode_with(controller, supervisor, config, EngineHooks::default())
}

/// The engine behind [`run_supervised_episode`]: the same loop, plus the
/// replay/resume/checkpoint hooks used by [`crate::resume`]. Everything
/// that feeds the physics (set-point writes, workload sampling, sensor
/// sanitization, trace pruning) is identical in replayed and live
/// minutes, which is what makes a resumed episode bit-identical to an
/// uninterrupted one from the cursor on.
pub(crate) fn run_supervised_episode_with(
    controller: &mut dyn Controller,
    supervisor: &mut Supervisor,
    config: &EpisodeConfig,
    mut hooks: EngineHooks<'_>,
) -> Result<EvalResult, CoreError> {
    let testbed = config.testbed()?;
    controller.reset();
    supervisor.reset();
    if let Some(reason) = hooks.start_elevated {
        supervisor.start_elevated(reason);
    }
    let mut episode = ZoneEpisode::new(testbed, config);
    episode.warmup()?;

    for m in 0..config.minutes {
        if hooks.abort_after == Some(m) {
            // Simulated crash: the process dies before minute m runs.
            // Return what was metered so far; the caller resumes from the
            // last checkpoint.
            break;
        }
        let replaying = m < hooks.prefix.len();
        if m == hooks.prefix.len() {
            if let Some(state) = hooks.resume {
                // The cursor: the prefix replay rebuilt the plant
                // (testbed, workload, RNG, health monitors, trace) —
                // install the control-plane state the checkpoint carried,
                // overriding anything the replay derived, because
                // wall-clock stress (watchdog trips, retry counts) is not
                // reproducible offline.
                supervisor.restore_state(state.supervisor.clone());
                if let Some(bytes) = &state.controller {
                    controller.load_state(bytes);
                }
            }
        }
        let _minute_span = tesla_obs::span!("supervised_minute", minute = m);
        let rung_before = supervisor.rung();
        let sp = if replaying {
            // Replay: force the recorded executed set-point. The
            // controller only re-runs its deterministic replay hook (e.g.
            // online retrains); its full decision state is installed at
            // the cursor.
            episode.replay_decision(m, controller, hooks.prefix[m])
        } else {
            episode.decide(supervisor, controller)
        };
        episode.advance(m, sp, supervisor, replaying)?;
        if !replaying {
            if let Some(observer) = hooks.observer.as_mut() {
                observer(EngineMinute {
                    minute: m,
                    setpoints: episode.setpoints(),
                    supervisor,
                    controller: &*controller,
                    rung_changed: supervisor.rung() != rung_before,
                });
            }
        }
    }

    Ok(episode.finish(controller.name(), supervisor))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixed::FixedController;
    use tesla_sim::{
        ActuatorFault, ActuatorFaultKind, FaultPlan, FaultWindow, PlantFault, PlantFaultKind,
        SensorFault, SensorFaultKind, SensorTarget, SimConfig, Testbed,
    };
    use tesla_workload::LoadSetting;

    fn c(v: f64) -> Celsius {
        Celsius::new(v)
    }

    fn quick_supervisor() -> Supervisor {
        Supervisor::new(SupervisorConfig {
            escalate_after: 2,
            recover_after: 4,
            ..SupervisorConfig::default()
        })
    }

    #[test]
    fn ladder_starts_normal_and_passes_decisions_through() {
        let mut sup = quick_supervisor();
        let mut ctrl = FixedController::new(c(24.0));
        let sp = sup.decide(&mut ctrl, &Trace::with_sensors(2, 35));
        assert_eq!(sp, c(24.0));
        assert_eq!(sup.rung(), Rung::Normal);
        assert!(sup.events().is_empty());
    }

    #[test]
    fn sustained_stress_climbs_one_rung_then_the_next() {
        let mut sup = quick_supervisor();
        // Two stressed minutes -> HoldLastSafe.
        sup.end_of_minute(0, 1.0, c(21.0), c(23.0));
        assert_eq!(sup.rung(), Rung::Normal);
        sup.end_of_minute(1, 1.0, c(21.0), c(23.0));
        assert_eq!(sup.rung(), Rung::HoldLastSafe);
        // Two more -> SafeMode.
        sup.end_of_minute(2, 1.0, c(21.0), c(23.0));
        sup.end_of_minute(3, 1.0, c(21.0), c(23.0));
        assert_eq!(sup.rung(), Rung::SafeMode);
        assert_eq!(sup.events().len(), 2);
        assert_eq!(sup.events()[0].reason, StressReason::Telemetry);
        // Further stress does not re-log SafeMode.
        sup.end_of_minute(4, 1.0, c(21.0), c(23.0));
        sup.end_of_minute(5, 1.0, c(21.0), c(23.0));
        assert_eq!(sup.events().len(), 2);
    }

    #[test]
    fn recovery_needs_the_longer_clean_streak() {
        let mut sup = quick_supervisor();
        sup.end_of_minute(0, 1.0, c(21.0), c(23.0));
        sup.end_of_minute(1, 1.0, c(21.0), c(23.0));
        assert_eq!(sup.rung(), Rung::HoldLastSafe);
        // Three clean minutes: not yet (recover_after = 4).
        for m in 2..5 {
            sup.end_of_minute(m, 0.0, c(21.0), c(23.0));
        }
        assert_eq!(sup.rung(), Rung::HoldLastSafe);
        sup.end_of_minute(5, 0.0, c(21.0), c(23.0));
        assert_eq!(sup.rung(), Rung::Normal);
    }

    #[test]
    fn alternating_stress_never_escalates() {
        // Hysteresis: stress that never persists `escalate_after` minutes
        // in a row cannot climb the ladder.
        let mut sup = quick_supervisor();
        for m in 0..40 {
            let stressed = m % 2 == 0;
            sup.end_of_minute(m, if stressed { 1.0 } else { 0.0 }, c(21.0), c(23.0));
        }
        assert_eq!(sup.rung(), Rung::Normal);
        assert!(sup.events().is_empty());
    }

    #[test]
    fn thermal_violation_counts_as_stress() {
        let mut sup = quick_supervisor();
        sup.end_of_minute(0, 0.0, c(25.0), c(23.0));
        sup.end_of_minute(1, 0.0, c(25.0), c(23.0));
        assert_eq!(sup.rung(), Rung::HoldLastSafe);
        assert_eq!(sup.events()[0].reason, StressReason::ThermalViolation);
    }

    #[test]
    fn hold_rung_returns_last_safe_setpoint() {
        let mut sup = quick_supervisor();
        // A clean normal minute records 26.0 as safe.
        sup.end_of_minute(0, 0.0, c(21.0), c(26.0));
        sup.end_of_minute(1, 1.0, c(21.0), c(27.0));
        sup.end_of_minute(2, 1.0, c(21.0), c(27.0));
        assert_eq!(sup.rung(), Rung::HoldLastSafe);
        assert_eq!(sup.resolve_setpoint(c(30.0)), c(26.0));
    }

    #[test]
    fn hold_recovery_ramps_upward_from_safe_mode() {
        let mut sup = quick_supervisor();
        // Clean normal minute at 26 °C defines last_safe.
        sup.end_of_minute(0, 0.0, c(21.0), c(26.0));
        sup.force_safe_mode(1, StressReason::ConsumerLost);
        // Four clean safe-mode minutes executing S_min -> recover to Hold.
        for m in 1..5 {
            sup.end_of_minute(m, 0.0, c(21.0), c(20.0));
        }
        assert_eq!(sup.rung(), Rung::HoldLastSafe);
        // The hold target climbs at the slew rate, not in one jump.
        assert_eq!(sup.resolve_setpoint(c(30.0)), c(20.25));
        sup.end_of_minute(5, 0.0, c(21.0), c(20.25));
        assert_eq!(sup.resolve_setpoint(c(30.0)), c(20.5));
    }

    #[test]
    fn violation_pulls_last_safe_below_executed() {
        let mut sup = quick_supervisor();
        sup.end_of_minute(0, 0.0, c(21.0), c(26.0));
        // Observed violation while executing 26 °C: last_safe must drop
        // below it rather than be re-held verbatim.
        sup.end_of_minute(1, 0.0, c(23.0), c(26.0));
        sup.end_of_minute(2, 0.0, c(23.0), c(26.0));
        assert_eq!(sup.rung(), Rung::HoldLastSafe);
        assert_eq!(sup.resolve_setpoint(c(30.0)), c(25.0));
        // The backoff never undercuts S_min.
        sup.end_of_minute(3, 0.0, c(23.0), c(20.3));
        assert_eq!(sup.resolve_setpoint(c(30.0)), c(20.0));
    }

    #[test]
    fn warning_band_backs_off_without_stress() {
        let mut sup = quick_supervisor();
        sup.end_of_minute(0, 0.0, c(21.0), c(26.0));
        // 21.8 °C is inside the 0.5 °C warning band but not a violation:
        // no stress, no event — but the hold fallback must drop.
        sup.end_of_minute(1, 0.0, c(21.8), c(26.0));
        assert_eq!(sup.rung(), Rung::Normal);
        assert!(sup.events().is_empty());
        // Escalate via telemetry stress and observe the lowered target.
        sup.end_of_minute(2, 1.0, c(21.0), c(27.0));
        sup.end_of_minute(3, 1.0, c(21.0), c(27.0));
        assert_eq!(sup.rung(), Rung::HoldLastSafe);
        assert_eq!(sup.resolve_setpoint(c(30.0)), c(25.0));
    }

    #[test]
    fn safe_mode_resolves_to_smin() {
        let mut sup = quick_supervisor();
        sup.force_safe_mode(7, StressReason::ConsumerLost);
        assert_eq!(sup.rung(), Rung::SafeMode);
        assert_eq!(sup.resolve_setpoint(c(30.0)), c(20.0));
        assert_eq!(sup.events().len(), 1);
        assert_eq!(sup.events()[0].minute, 7);
    }

    #[test]
    fn write_with_retry_survives_nothing_but_reports_failure() {
        let mut sup = quick_supervisor();
        let mut tb = Testbed::new(SimConfig::default(), 1).unwrap();
        tb.set_fault_plan(FaultPlan {
            actuators: vec![ActuatorFault {
                kind: ActuatorFaultKind::WriteTimeout,
                window: FaultWindow::new(0.0, 1e9),
            }],
            ..FaultPlan::default()
        });
        assert!(sup.write_with_retry(&mut tb, c(24.0)).is_err());
        assert_eq!(sup.write_failures(), 1);
        assert_eq!(sup.write_retries(), 3, "4 attempts = 3 retries");
    }

    #[test]
    fn write_with_retry_does_not_retry_validation_errors() {
        let mut sup = quick_supervisor();
        let mut tb = Testbed::new(SimConfig::default(), 1).unwrap();
        assert!(sup.write_with_retry(&mut tb, c(99.0)).is_err());
        assert_eq!(sup.write_retries(), 0);
        assert_eq!(sup.write_failures(), 1);
    }

    #[test]
    fn pass_through_keeps_normal_and_every_proposal_under_sustained_stress() {
        let mut sup = Supervisor::new(SupervisorConfig::pass_through());
        let history = Trace::with_sensors(2, 35);
        for m in 0..600 {
            // Proposals sweep past both ends of the actuator range.
            let proposal = c(15.0 + (m % 50) as f64 * 0.5);
            let mut ctrl = FixedController::new(proposal);
            assert_eq!(sup.decide(&mut ctrl, &history), proposal, "minute {m}");
            // Every minute is stressed twice over: all cold-aisle
            // telemetry quarantined and the cold aisle past the limit.
            sup.end_of_minute(m, 1.0, c(30.0), proposal);
            assert_eq!(sup.rung(), Rung::Normal, "minute {m}");
        }
        assert!(sup.events().is_empty());
        assert_eq!(sup.hold_minutes() + sup.safe_mode_minutes(), 0);
        assert_eq!(sup.watchdog_trips() + sup.decision_timeouts(), 0);
    }

    #[test]
    fn reset_restores_normal() {
        let mut sup = quick_supervisor();
        sup.force_safe_mode(1, StressReason::Watchdog);
        sup.reset();
        assert_eq!(sup.rung(), Rung::Normal);
        assert!(sup.events().is_empty());
        assert_eq!(sup.safe_mode_minutes(), 0);
    }

    fn episode_with(faults: FaultPlan, minutes: usize) -> (EvalResult, Supervisor) {
        let mut ctrl = FixedController::new(c(23.0));
        let mut sup = Supervisor::new(SupervisorConfig::default());
        let cfg = EpisodeConfig {
            setting: LoadSetting::Medium,
            minutes,
            warmup_minutes: 20,
            seed: 11,
            faults,
            ..EpisodeConfig::default()
        };
        let r = run_supervised_episode(&mut ctrl, &mut sup, &cfg).unwrap();
        (r, sup)
    }

    #[test]
    fn long_episode_with_retention_holds_bounded_memory() {
        // A 7-day supervised episode keeping a 1-day raw horizon: the
        // in-process trace must stay bounded at keep + 25% slack instead
        // of growing to 10k+ rows.
        let mut ctrl = FixedController::new(c(23.0));
        let mut sup = Supervisor::new(SupervisorConfig::default());
        let minutes = 7 * 24 * 60;
        let cfg = EpisodeConfig {
            setting: LoadSetting::Medium,
            minutes,
            warmup_minutes: 60,
            seed: 5,
            retention: Some(tesla_historian::RetentionPolicy::new(
                86_400.0,
                7.0 * 86_400.0,
            )),
            ..EpisodeConfig::default()
        };
        let r = run_supervised_episode(&mut ctrl, &mut sup, &cfg).unwrap();
        let keep = 1440; // 86 400 s of 1-minute samples
        assert!(
            r.trace.len() <= keep + keep / 4,
            "trace holds {} rows, bound is {}",
            r.trace.len(),
            keep + keep / 4
        );
        assert!(r.trace.len() >= keep, "must still retain the full horizon");
        // The metered series themselves are untouched by retention.
        assert_eq!(r.setpoints.len(), minutes);
        assert_eq!(r.cold_aisle_max.len(), minutes);
        // The metering mark slid off the retained window entirely.
        assert_eq!(r.metered_from, 0);
        assert_eq!(r.safe_mode_minutes, 0, "retention must not fake stress");
    }

    #[test]
    fn supervised_episode_without_faults_is_clean() {
        let (r, sup) = episode_with(FaultPlan::none(), 60);
        assert_eq!(r.setpoints.len(), 60);
        assert!(r.cooling_energy_kwh > 0.0);
        assert_eq!(r.safe_mode_minutes, 0);
        assert_eq!(sup.rung(), Rung::Normal);
        assert!(sup.events().is_empty());
        assert_eq!(r.tsv_percent, 0.0);
    }

    #[test]
    fn stuck_hot_sensor_does_not_fake_violations() {
        // Warm-up is 20 min; the fault opens after it.
        // 48 °C is outside the health monitor's plausible band, so the
        // stuck sensor is quarantined on its first corrupted sample.
        let (r, _sup) = episode_with(
            FaultPlan {
                sensors: vec![SensorFault {
                    target: SensorTarget::DcSensor(2),
                    kind: SensorFaultKind::StuckAt(48.0),
                    window: FaultWindow::new(30.0, 70.0),
                }],
                ..FaultPlan::default()
            },
            60,
        );
        // Ground-truth scoring: the lying sensor cannot create TSV.
        assert_eq!(r.tsv_percent, 0.0);
        // And the trace the controller sees stays finite and plausible.
        for col in &r.trace.dc_temps {
            for &v in col {
                assert!(v.is_finite());
                assert!(v < 45.0, "stuck value must have been imputed away, saw {v}");
            }
        }
    }

    #[test]
    fn fan_failure_drives_ladder_to_safe_mode() {
        let (r, sup) = episode_with(
            FaultPlan {
                plant: vec![PlantFault {
                    kind: PlantFaultKind::FanFailure,
                    window: FaultWindow::new(25.0, 45.0),
                }],
                ..FaultPlan::default()
            },
            80,
        );
        // No airflow for 20 min must heat the room past the limit, which
        // is sustained stress -> the ladder must have moved.
        assert!(
            !sup.events().is_empty(),
            "sustained thermal violation must log a degradation event"
        );
        assert!(r.safe_mode_minutes > 0 || sup.hold_minutes() > 0);
        // Metrics stay finite under the fault.
        assert!(r.cooling_energy_kwh.is_finite());
        assert!(r.tsv_percent.is_finite());
    }

    /// Sleeps past the hard deadline, then proposes a warm set-point the
    /// supervisor must never execute.
    struct GlacialController;
    impl Controller for GlacialController {
        fn name(&self) -> &str {
            "glacial"
        }
        fn decide(&mut self, _history: &Trace) -> f64 {
            std::thread::sleep(Duration::from_millis(20));
            25.0
        }
    }

    #[test]
    fn hard_deadline_discards_the_decision_and_holds() {
        let mut sup = Supervisor::new(SupervisorConfig {
            step_deadline_ms: Some(5),
            // Soft watchdog far above the deadline: the hard path, not
            // the stress-only path, must be the one that fires.
            decision_budget_ms: 60_000,
            escalate_after: 2,
            ..SupervisorConfig::default()
        });
        let mut ctrl = GlacialController;
        let history = Trace::with_sensors(2, 35);
        let sp = sup.decide(&mut ctrl, &history);
        assert_ne!(sp, c(25.0), "an overrun decision must be discarded");
        assert_eq!(sup.decision_timeouts(), 1);
        // The overrun counts as sustained stress: two timed-out minutes
        // climb the ladder with DecisionTimeout as the reason.
        sup.end_of_minute(0, 0.0, c(21.0), c(23.0));
        let _ = sup.decide(&mut ctrl, &history);
        sup.end_of_minute(1, 0.0, c(21.0), c(23.0));
        assert_eq!(sup.rung(), Rung::HoldLastSafe);
        assert_eq!(sup.events()[0].reason, StressReason::DecisionTimeout);
    }

    #[test]
    fn deadline_disabled_uses_slow_decisions() {
        let mut sup = Supervisor::new(SupervisorConfig {
            step_deadline_ms: None,
            decision_budget_ms: 60_000,
            ..SupervisorConfig::default()
        });
        let mut ctrl = GlacialController;
        let sp = sup.decide(&mut ctrl, &Trace::with_sensors(2, 35));
        assert_eq!(sp, c(25.0));
        assert_eq!(sup.decision_timeouts(), 0);
    }

    #[test]
    fn event_ring_drops_oldest_beyond_the_cap() {
        let mut sup = Supervisor::new(SupervisorConfig {
            escalate_after: 1,
            recover_after: 1,
            max_events: 3,
            ..SupervisorConfig::default()
        });
        // Flap stress on and off: every flip logs a transition.
        for m in 0..10u64 {
            let stressed = if m % 2 == 0 { 1.0 } else { 0.0 };
            sup.end_of_minute(m as usize, stressed, c(21.0), c(23.0));
        }
        assert_eq!(sup.events().len(), 3, "ring must cap at max_events");
        assert!(sup.events_dropped() > 0);
        // The survivors are the newest transitions, in order.
        let minutes: Vec<usize> = sup.events().iter().map(|e| e.minute).collect();
        let mut sorted = minutes.clone();
        sorted.sort_unstable();
        assert_eq!(minutes, sorted);
        assert!(minutes[0] >= 4, "oldest entries must have been evicted");
    }
}
