//! The §4-faithful threaded deployment: a telemetry *producer* and a
//! controller *consumer* communicating over a message queue.
//!
//! "Our main function is implemented using two Python processes, a
//! producer and a consumer that communicate over a message queue. One
//! process periodically pulls testbed information … and pushes it onto
//! the message queue. The consumer process pulls the data from the queue
//! and runs it through TESLA … TESLA writes the value in the register of
//! ACU's PID controller."
//!
//! Here the producer is the supervised episode engine ([`ZoneEpisode`])
//! on the calling thread: it owns the testbed, collects every raw
//! observation into the shared [`MetricStore`], and sanitizes, scores
//! and supervises each minute exactly like
//! [`crate::run_supervised_episode`]. The consumer thread owns the
//! controller: each minute the producer sends it the sanitized trace over
//! a bounded channel and waits for the decided set-point.
//!
//! If the consumer dies (panic or hang-up) or stops answering, the
//! producer *continues the episode at the safe-mode set-point* instead of
//! aborting — a dead optimizer must not mean dead cooling control.

use crate::collector::Collector;
use crate::controller::Controller;
use crate::engine::ZoneEpisode;
use crate::experiment::{EpisodeConfig, EvalResult};
use crate::supervisor::{StressReason, Supervisor, SupervisorConfig};
use crate::CoreError;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::time::Duration;
use tesla_forecast::Trace;
use tesla_historian::MetricStore;
use tesla_sim::{CoolingPlant, Observation, SimError, Testbed};
use tesla_units::Celsius;

/// How long the producer waits for a decision before treating the
/// consumer as lost. Generous: a blown budget here means the thread is
/// gone or wedged, not merely slow.
const DECISION_WAIT: Duration = Duration::from_secs(60);

/// Runs an episode with the producer/consumer split of §4. Telemetry is
/// additionally collected into `store` (the InfluxDB stand-in), which the
/// caller can inspect afterwards.
///
/// Each minute runs as in [`crate::run_supervised_episode`] with
/// `SupervisorConfig { d_allowed, ..Default::default() }`, so a controller
/// whose decisions ignore wall-clock time gives the same [`EvalResult`].
///
/// A consumer that panics, hangs up, or stays silent for 60 s is
/// survived: the producer escalates straight to safe mode at that minute
/// and finishes the episode at the safe set-point, reporting the time
/// spent there in [`EvalResult::safe_mode_minutes`].
pub fn run_episode_threaded(
    mut controller: Box<dyn Controller>,
    config: &EpisodeConfig,
    store: Arc<dyn MetricStore>,
) -> Result<EvalResult, CoreError> {
    let testbed = config.testbed()?;
    let mut supervisor = Supervisor::new(SupervisorConfig {
        d_allowed: config.d_allowed,
        ..SupervisorConfig::default()
    });
    controller.reset();
    let (trace_tx, trace_rx) = sync_channel::<Trace>(1);
    let (sp_tx, sp_rx) = sync_channel::<f64>(1);
    let mut remote = RemoteController {
        name: controller.name().to_string(),
        link: Some((trace_tx, sp_rx)),
    };
    let consumer = std::thread::spawn(move || {
        // One decision per snapshot, until the producer hangs up. A
        // panic drops `sp_tx`, which the producer sees at once.
        while let Ok(history) = trace_rx.recv() {
            if sp_tx.send(controller.decide(&history)).is_err() {
                break;
            }
        }
    });

    let mut episode = ZoneEpisode::new(Collecting { testbed, store }, config);
    episode.warmup()?;
    for m in 0..config.minutes {
        let mut sp = episode.decide(&mut supervisor, &mut remote);
        if remote.link.is_none() {
            // The decision thread is gone for good: escalate at the
            // minute it was lost, keep the stress signal asserted so
            // clean minutes cannot "recover" a controller that no longer
            // exists, and hold S_min.
            supervisor.force_safe_mode(m, StressReason::ConsumerLost);
            supervisor.note_stress(StressReason::ConsumerLost);
            sp = supervisor.config().safe_setpoint;
        }
        episode.advance(m, sp, &mut supervisor, false)?;
    }

    let result = episode.finish(&remote.name, &supervisor);
    // Hang up so a live consumer exits, then reap it. A lost one is left
    // alone: it panicked already, or it is wedged and may never return.
    if let Some(link) = remote.link {
        drop(link);
        let _ = consumer.join();
    }
    Ok(result)
}

/// The controller as the producer sees it: each decision is shipped to
/// the consumer thread and awaited for up to [`DECISION_WAIT`].
struct RemoteController {
    name: String,
    /// Channel ends to the consumer; `None` once it is lost.
    link: Option<(SyncSender<Trace>, Receiver<f64>)>,
}

impl Controller for RemoteController {
    fn name(&self) -> &str {
        &self.name
    }

    fn decide(&mut self, history: &Trace) -> f64 {
        let reply = self.link.as_ref().and_then(|(tx, rx)| {
            tx.send(history.clone()).ok()?;
            rx.recv_timeout(DECISION_WAIT).ok()
        });
        if reply.is_none() {
            // Disconnected or timed out: either way the consumer is lost.
            self.link = None;
        }
        reply.unwrap_or(f64::NAN)
    }
}

/// The testbed as the producer drives it: every raw observation, warm-up
/// and metered alike, is collected into the store before the engine
/// sanitizes it — the store records what the sensors reported.
struct Collecting {
    testbed: Testbed,
    store: Arc<dyn MetricStore>,
}

impl CoolingPlant for Collecting {
    fn n_servers(&self) -> usize {
        self.testbed.n_servers()
    }

    fn setpoint(&self) -> Celsius {
        self.testbed.setpoint()
    }

    fn write_setpoint_clamped(&mut self, sp: Celsius) {
        self.testbed.write_setpoint_clamped(sp);
    }

    fn try_write_setpoint(&mut self, sp: Celsius) -> Result<Celsius, SimError> {
        self.testbed.try_write_setpoint(sp)
    }

    fn step_sample(&mut self, utils: &[f64]) -> Result<Observation, SimError> {
        let obs = self.testbed.step_sample(utils)?;
        Collector::collect(self.store.as_ref(), &obs);
        Ok(obs)
    }
}
