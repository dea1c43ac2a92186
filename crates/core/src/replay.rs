//! Episode snapshot and deterministic replay through the historian.
//!
//! A supervised episode's *executed* set-point sequence fully determines
//! its trajectory: the testbed, workload, and health monitors are all
//! seeded, so re-running the same [`EpisodeConfig`] while forcing each
//! minute's set-point reproduces the original episode bit for bit. This
//! module records that sequence into any [`MetricStore`] (typically a
//! durable [`tesla_historian::Historian`]) and replays it later — across
//! a process restart and a WAL recovery — for post-incident analysis.
//!
//! Executed set-points are already 0.1 °C-quantized by the Modbus write
//! path, and that quantization is idempotent, so the replayed sequence
//! survives the record → store → recover → re-execute round trip exactly.

use crate::controller::Controller;
use crate::experiment::{EpisodeConfig, EvalResult};
use crate::supervisor::{run_supervised_episode, Supervisor};
use crate::CoreError;
use tesla_forecast::Trace;
use tesla_historian::MetricStore;
use tesla_units::NOMINAL_SETPOINT;

/// Metric name under which an episode's executed set-points are stored.
pub fn episode_setpoint_metric(episode_id: &str) -> String {
    format!("episode.{episode_id}.setpoint_c")
}

/// Records an episode's executed set-point sequence into `store`.
///
/// Sample times are the metered minute index in seconds (minute 0 at
/// t = 0 s), so the series aligns with the historian's retention and
/// downsampling clocks. Recording twice under the same id appends —
/// use distinct ids per episode.
pub fn record_episode(store: &dyn MetricStore, episode_id: &str, result: &EvalResult) {
    let metric = episode_setpoint_metric(episode_id);
    let samples: Vec<(f64, f64)> = result
        .setpoints
        .iter()
        .enumerate()
        .map(|(m, &sp)| (m as f64 * 60.0, sp))
        .collect();
    store.insert_batch(&metric, &samples);
}

/// Reads back an episode's recorded set-point sequence.
// lint:allow(no-raw-f64-in-public-api): bulk telemetry record
pub fn recorded_setpoints(store: &dyn MetricStore, episode_id: &str) -> Vec<f64> {
    store.values(&episode_setpoint_metric(episode_id))
}

/// A controller that re-executes a recorded set-point sequence verbatim.
///
/// Once the recording is exhausted it keeps proposing the last recorded
/// value (or the nominal set-point if the recording was empty), so a
/// replay that runs longer than the recording degrades gracefully.
#[derive(Debug, Clone)]
pub struct ReplayController {
    setpoints: Vec<f64>,
    next: usize,
}

impl ReplayController {
    /// Builds a replay controller from an explicit sequence.
    // lint:allow(no-raw-f64-in-public-api): bulk telemetry record
    pub fn new(setpoints: Vec<f64>) -> Self {
        ReplayController { setpoints, next: 0 }
    }

    /// Loads the recording for `episode_id` from `store`.
    ///
    /// Fails with [`CoreError::Config`] when nothing was recorded under
    /// that id (a silent empty replay would look like a clean episode).
    pub fn from_store(store: &dyn MetricStore, episode_id: &str) -> Result<Self, CoreError> {
        let setpoints = recorded_setpoints(store, episode_id);
        if setpoints.is_empty() {
            return Err(CoreError::Config(format!(
                "no recorded set-points for episode id {episode_id:?}"
            )));
        }
        Ok(ReplayController::new(setpoints))
    }

    /// Number of recorded minutes still to be replayed.
    pub fn remaining(&self) -> usize {
        self.setpoints.len().saturating_sub(self.next)
    }
}

impl Controller for ReplayController {
    fn name(&self) -> &str {
        "replay"
    }

    fn decide(&mut self, _history: &Trace) -> f64 {
        let sp = self
            .setpoints
            .get(self.next)
            .or(self.setpoints.last())
            .copied()
            .unwrap_or(NOMINAL_SETPOINT.value());
        self.next = (self.next + 1).min(self.setpoints.len());
        sp
    }

    fn reset(&mut self) {
        self.next = 0;
    }
}

/// Replays a recorded episode through the supervised runner.
///
/// `config` must match the recorded episode (same seed, sim, setting,
/// warm-up) for the replay to be bit-identical; the supervisor runs live,
/// so a recording made under faults replays through the same ladder.
pub fn replay_supervised_episode(
    store: &dyn MetricStore,
    episode_id: &str,
    supervisor: &mut Supervisor,
    config: &EpisodeConfig,
) -> Result<EvalResult, CoreError> {
    let mut controller = ReplayController::from_store(store, episode_id)?;
    run_supervised_episode(&mut controller, supervisor, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixed::FixedController;
    use crate::supervisor::SupervisorConfig;
    use std::sync::Arc;
    use tesla_historian::{Historian, HistorianConfig};
    use tesla_units::Celsius;
    use tesla_workload::LoadSetting;

    fn episode_config(minutes: usize) -> EpisodeConfig {
        EpisodeConfig {
            setting: LoadSetting::Medium,
            minutes,
            warmup_minutes: 20,
            seed: 42,
            ..EpisodeConfig::default()
        }
    }

    #[test]
    fn replay_controller_walks_then_holds_tail() {
        let mut ctrl = ReplayController::new(vec![23.0, 24.0]);
        let trace = Trace::with_sensors(1, 1);
        assert_eq!(ctrl.decide(&trace), 23.0);
        assert_eq!(ctrl.remaining(), 1);
        assert_eq!(ctrl.decide(&trace), 24.0);
        assert_eq!(ctrl.decide(&trace), 24.0, "tail holds the last value");
        ctrl.reset();
        assert_eq!(ctrl.decide(&trace), 23.0);
    }

    #[test]
    fn empty_recording_is_an_error_not_a_silent_episode() {
        let store = Historian::in_memory(HistorianConfig::default());
        assert!(ReplayController::from_store(&store, "missing").is_err());
        let mut ctrl = ReplayController::new(Vec::new());
        assert_eq!(
            ctrl.decide(&Trace::with_sensors(1, 1)),
            NOMINAL_SETPOINT.value()
        );
    }

    #[test]
    fn record_then_replay_in_memory_is_bit_identical() {
        let cfg = episode_config(45);
        let mut ctrl = FixedController::new(Celsius::new(23.4));
        let mut sup = Supervisor::new(SupervisorConfig::default());
        let original = run_supervised_episode(&mut ctrl, &mut sup, &cfg).unwrap();

        let store = Historian::in_memory(HistorianConfig::default());
        record_episode(&store, "ep-mem", &original);

        let mut sup2 = Supervisor::new(SupervisorConfig::default());
        let replayed = replay_supervised_episode(&store, "ep-mem", &mut sup2, &cfg).unwrap();

        assert_eq!(original.setpoints, replayed.setpoints);
        assert_eq!(original.cold_aisle_max, replayed.cold_aisle_max);
        assert_eq!(original.cooling_energy_kwh, replayed.cooling_energy_kwh);
    }

    #[test]
    fn replay_survives_disk_round_trip_and_wal_recovery() {
        let dir = std::env::temp_dir().join(format!(
            "tesla-replay-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);

        let cfg = episode_config(40);
        let mut ctrl = FixedController::new(Celsius::new(24.1));
        let mut sup = Supervisor::new(SupervisorConfig::default());
        let original = run_supervised_episode(&mut ctrl, &mut sup, &cfg).unwrap();

        // Record into a durable historian, flush, append one more record,
        // and drop it — the data now lives only in the WAL on disk.
        {
            let (store, _) = Historian::open(&dir, HistorianConfig::default()).unwrap();
            record_episode(&store, "ep-disk", &original);
            store.flush().unwrap();
            store.append_batch("ep-disk.sacrificial", &[(0.0, 1.0), (60.0, 2.0)]);
        }
        // The crash: a torn write through the last record.
        tear_segment_containing(&dir, b"ep-disk.sacrificial");

        // Reopen: WAL recovery drops the torn tail, rebuilds the
        // episode's series, then replay.
        let (recovered, stats) = Historian::open(&dir, HistorianConfig::default()).unwrap();
        assert!(stats.records > 0, "recovery must have replayed the WAL");
        assert!(stats.truncated_bytes > 0, "the torn tail must be truncated");
        let store: Arc<dyn MetricStore> = Arc::new(recovered);
        let mut sup2 = Supervisor::new(SupervisorConfig::default());
        let replayed = replay_supervised_episode(&*store, "ep-disk", &mut sup2, &cfg).unwrap();

        assert_eq!(
            original.setpoints, replayed.setpoints,
            "recovered replay must be bit-identical"
        );
        assert_eq!(original.cold_aisle_max, replayed.cold_aisle_max);
        assert_eq!(original.inlet_avg, replayed.inlet_avg);
        assert_eq!(original.safe_mode_minutes, replayed.safe_mode_minutes);

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Chops the last 5 bytes off the WAL segment whose bytes contain
    /// `needle`, as a crash mid-write would leave it. WAL frames carry
    /// the series name in the clear, so a byte scan finds the segment.
    fn tear_segment_containing(dir: &std::path::Path, needle: &[u8]) {
        let shards = std::fs::read_dir(dir)
            .unwrap()
            .map(|entry| entry.unwrap().path());
        for seg in shards
            .filter(|p| p.is_dir())
            .flat_map(|p| std::fs::read_dir(p).unwrap())
        {
            let seg = seg.unwrap().path();
            let bytes = std::fs::read(&seg).unwrap();
            if bytes.windows(needle.len()).any(|w| w == needle) {
                let file = std::fs::OpenOptions::new().write(true).open(&seg).unwrap();
                file.set_len(bytes.len() as u64 - 5).unwrap();
                return;
            }
        }
        panic!("no WAL segment holds {}", String::from_utf8_lossy(needle));
    }
}
