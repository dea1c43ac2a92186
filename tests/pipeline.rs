//! Cross-crate integration tests: dataset → models → optimizer →
//! closed-loop control, exercised through the public APIs.

use tesla::core::dataset::{generate_sweep_trace, DatasetConfig};
use tesla::core::{
    run_episode, Controller, EpisodeConfig, FixedController, TeslaConfig, TeslaController,
};
use tesla::forecast::{DcTimeSeriesModel, ModelConfig};
use tesla::workload::LoadSetting;
use tesla_units::Celsius;

fn small_dataset(days: f64, seed: u64) -> tesla::forecast::Trace {
    generate_sweep_trace(&DatasetConfig {
        days,
        seed,
        ..DatasetConfig::default()
    })
    .expect("sweep generation")
}

#[test]
fn dataset_to_model_to_prediction() {
    let trace = small_dataset(0.6, 1);
    let cfg = ModelConfig {
        horizon: 10,
        ..ModelConfig::default()
    };
    let model = DcTimeSeriesModel::fit(&trace, cfg).expect("model fit");

    // Predictions at a mid-trace window respond to the set-point in the
    // physically correct directions.
    let t = trace.len() - 12;
    let window = trace.window_at(t, 10).expect("window");
    let cool = model.predict(&window, Celsius::new(21.0)).expect("predict");
    let warm = model.predict(&window, Celsius::new(28.0)).expect("predict");
    assert!(
        warm.energy < cool.energy,
        "higher set-point must predict less energy"
    );
    assert!(
        warm.max_over_sensors(0..11) > cool.max_over_sensors(0..11),
        "higher set-point must predict warmer cold aisle"
    );
}

#[test]
fn tesla_controller_end_to_end_is_safe() {
    let trace = small_dataset(1.0, 2);
    let tesla = TeslaController::new(&trace, TeslaConfig::default()).expect("TESLA");
    let mut controller: Box<dyn Controller> = Box::new(tesla);
    let episode = EpisodeConfig {
        setting: LoadSetting::Medium,
        minutes: 120,
        warmup_minutes: 40,
        seed: 9,
        ..EpisodeConfig::default()
    };
    let result = run_episode(controller.as_mut(), &episode).expect("episode");
    assert_eq!(result.setpoints.len(), 120);
    assert!(result.cooling_energy_kwh > 0.0);
    // Thermal safety: the headline claim. Allow a tiny sliver of sensor
    // noise-induced crossings in the short run.
    assert!(
        result.observed_tsv_percent <= 2.0,
        "TESLA must be thermally safe, saw {:.1}% TSV",
        result.observed_tsv_percent
    );
    // Load awareness: the set-point must actually move.
    let min = result
        .setpoints
        .iter()
        .cloned()
        .fold(f64::INFINITY, f64::min);
    let max = result
        .setpoints
        .iter()
        .cloned()
        .fold(f64::NEG_INFINITY, f64::max);
    assert!(max - min > 0.2, "set-point never moved ({min}..{max})");
}

#[test]
fn tesla_saves_energy_vs_fixed_under_load() {
    let trace = small_dataset(1.0, 3);
    let tesla = TeslaController::new(&trace, TeslaConfig::default()).expect("TESLA");
    let mut tesla: Box<dyn Controller> = Box::new(tesla);
    let mut fixed = FixedController::new(Celsius::new(23.0));
    let episode = EpisodeConfig {
        setting: LoadSetting::High,
        minutes: 180,
        warmup_minutes: 40,
        seed: 31,
        ..EpisodeConfig::default()
    };
    let r_fixed = run_episode(&mut fixed, &episode).expect("fixed episode");
    let r_tesla = run_episode(tesla.as_mut(), &episode).expect("tesla episode");
    assert!(
        r_tesla.cooling_energy_kwh < r_fixed.cooling_energy_kwh,
        "TESLA ({:.2} kWh) must beat fixed 23 C ({:.2} kWh) at high load",
        r_tesla.cooling_energy_kwh,
        r_fixed.cooling_energy_kwh
    );
}

#[test]
fn episodes_are_reproducible() {
    let trace = small_dataset(0.5, 4);
    let make = || {
        let tesla = TeslaController::new(
            &trace,
            TeslaConfig {
                seed: 77,
                ..TeslaConfig::default()
            },
        )
        .expect("TESLA");
        let mut c: Box<dyn Controller> = Box::new(tesla);
        let episode = EpisodeConfig {
            setting: LoadSetting::Medium,
            minutes: 45,
            warmup_minutes: 25,
            seed: 5,
            ..EpisodeConfig::default()
        };
        run_episode(c.as_mut(), &episode).expect("episode")
    };
    let a = make();
    let b = make();
    assert_eq!(a.setpoints, b.setpoints);
    assert_eq!(a.cooling_energy_kwh, b.cooling_energy_kwh);
}
