//! The §4 threaded deployment: producer/consumer threads over the
//! supervised episode engine, collecting into an in-memory historian.

use std::sync::Arc;
use std::time::{Duration, Instant};
use tesla::core::dataset::{generate_sweep_trace, DatasetConfig};
use tesla::core::{
    metric, run_episode_threaded, run_supervised_episode, Controller, EpisodeConfig, EvalResult,
    FixedController, LazicController, Supervisor, SupervisorConfig,
};
use tesla::forecast::Trace;
use tesla::historian::{Historian, HistorianConfig, MetricStore};
use tesla::sim::faults::{ActuatorFault, ActuatorFaultKind, FaultPlan, FaultWindow};
use tesla::workload::LoadSetting;
use tesla_units::{Celsius, SETPOINT_RANGE};

fn in_memory_store() -> Arc<dyn MetricStore> {
    Arc::new(Historian::in_memory(HistorianConfig::default()))
}

#[test]
fn threaded_loop_matches_metrics_shape() {
    let store = in_memory_store();
    let cfg = EpisodeConfig {
        setting: LoadSetting::Medium,
        minutes: 40,
        warmup_minutes: 10,
        seed: 5,
        ..EpisodeConfig::default()
    };
    let result = run_episode_threaded(
        Box::new(FixedController::new(Celsius::new(23.0))),
        &cfg,
        Arc::clone(&store),
    )
    .unwrap();
    assert_eq!(result.setpoints.len(), 40);
    assert!(result.cooling_energy_kwh > 0.0);
    assert_eq!(result.safe_mode_minutes, 0);
    // The store saw every sample (warm-up + metered).
    assert_eq!(store.len(metric::ACU_POWER), 50);
    assert_eq!(store.len(&metric::dc_temp(0)), 50);
}

/// Runs one episode both ways, each with a Lazic controller fitted on `train`.
fn threaded_and_supervised(cfg: &EpisodeConfig, train: &Trace) -> (EvalResult, EvalResult) {
    let lazic = || LazicController::new(train, Default::default()).expect("lazic fit");
    let threaded = run_episode_threaded(Box::new(lazic()), cfg, in_memory_store()).unwrap();
    let mut supervisor = Supervisor::new(SupervisorConfig {
        d_allowed: cfg.d_allowed,
        ..SupervisorConfig::default()
    });
    let supervised = run_supervised_episode(&mut lazic(), &mut supervisor, cfg).unwrap();
    (threaded, supervised)
}

#[test]
fn threaded_run_matches_the_supervised_engine_bit_for_bit() {
    // Lazic's decisions depend on the trace but not on wall-clock time,
    // so both runtimes must execute identical minutes — including the
    // ladder's response to rejected register writes.
    let train = generate_sweep_trace(&DatasetConfig {
        days: 0.25,
        seed: 42,
        ..DatasetConfig::default()
    })
    .expect("sweep");
    let fault_free = EpisodeConfig {
        setting: LoadSetting::Medium,
        minutes: 40,
        warmup_minutes: 10,
        seed: 5,
        ..EpisodeConfig::default()
    };
    let rejected = EpisodeConfig {
        setting: LoadSetting::High,
        minutes: 40,
        warmup_minutes: 10,
        seed: 77,
        // Sim minutes, warm-up included: metered minutes 10..25.
        faults: FaultPlan {
            actuators: vec![ActuatorFault {
                kind: ActuatorFaultKind::RejectedRegister,
                window: FaultWindow::new(20.0, 35.0),
            }],
            ..FaultPlan::none()
        },
        ..EpisodeConfig::default()
    };
    for (cfg, rejections) in [(&fault_free, false), (&rejected, true)] {
        let (threaded, supervised) = threaded_and_supervised(cfg, &train);
        // The rejected writes drive the ladder into safe mode.
        assert_eq!(supervised.safe_mode_minutes > 0, rejections);
        assert_eq!(threaded.setpoints, supervised.setpoints);
        assert_eq!(threaded.cold_aisle_max, supervised.cold_aisle_max);
        assert_eq!(threaded.cooling_energy_kwh, supervised.cooling_energy_kwh);
        assert_eq!(threaded.tsv_percent, supervised.tsv_percent);
        assert_eq!(threaded.ci_percent, supervised.ci_percent);
        assert_eq!(threaded.safe_mode_minutes, supervised.safe_mode_minutes);
    }
}

/// A controller that panics mid-episode, killing the consumer thread.
struct PanickyController {
    decisions_left: u32,
}

impl Controller for PanickyController {
    fn name(&self) -> &str {
        "panicky"
    }
    fn decide(&mut self, _history: &Trace) -> f64 {
        if self.decisions_left == 0 {
            panic!("controller crashed");
        }
        self.decisions_left -= 1;
        24.0
    }
}

#[test]
fn dead_consumer_degrades_to_safe_mode_instead_of_aborting() {
    let cfg = EpisodeConfig {
        setting: LoadSetting::Medium,
        minutes: 30,
        warmup_minutes: 10,
        seed: 5,
        ..EpisodeConfig::default()
    };
    let started = Instant::now();
    let result = run_episode_threaded(
        Box::new(PanickyController { decisions_left: 5 }),
        &cfg,
        in_memory_store(),
    )
    .unwrap();
    // The crash is seen at once, not after the decision timeout.
    assert!(started.elapsed() < Duration::from_secs(5));
    // The episode ran to completion with finite metrics...
    assert_eq!(result.setpoints.len(), 30);
    assert!(result.cooling_energy_kwh.is_finite() && result.cooling_energy_kwh > 0.0);
    // ...and safe mode held S_min from the minute the consumer died.
    assert_eq!(result.safe_mode_minutes, 25);
    let s_min = SETPOINT_RANGE.min().value();
    assert!(result.setpoints[5..].iter().all(|&sp| sp == s_min));
}
