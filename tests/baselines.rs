//! Integration tests for the comparison controllers and the paper's
//! qualitative claims about them (§5.3, §6.3).

use tesla::core::dataset::{generate_sweep_trace, DatasetConfig};
use tesla::core::lazic::LazicConfig;
use tesla::core::{
    run_episode, Controller, EpisodeConfig, FixedController, LazicController, TsrlConfig,
    TsrlController,
};
use tesla::workload::LoadSetting;
use tesla_units::Celsius;

fn train_trace() -> tesla::forecast::Trace {
    generate_sweep_trace(&DatasetConfig {
        days: 1.0,
        seed: 77,
        ..DatasetConfig::default()
    })
    .expect("sweep")
}

fn episode(setting: LoadSetting, minutes: usize, seed: u64) -> EpisodeConfig {
    EpisodeConfig {
        setting,
        minutes,
        warmup_minutes: 40,
        seed,
        ..EpisodeConfig::default()
    }
}

#[test]
fn lazic_saves_energy_but_violates() {
    let train = train_trace();
    let mut lazic = LazicController::new(&train, LazicConfig::default()).expect("lazic");
    let mut fixed = FixedController::new(Celsius::new(23.0));
    let cfg = episode(LoadSetting::Medium, 240, 13);
    let r_fixed = run_episode(&mut fixed, &cfg).expect("fixed");
    let r_lazic = run_episode(&mut lazic, &cfg).expect("lazic");
    assert!(
        r_lazic.cooling_energy_kwh < r_fixed.cooling_energy_kwh,
        "Lazic must save energy ({:.2} vs {:.2} kWh)",
        r_lazic.cooling_energy_kwh,
        r_fixed.cooling_energy_kwh
    );
    assert!(
        r_lazic.observed_tsv_percent > 1.0,
        "Lazic's boundary riding must cost thermal safety, saw {:.1}% TSV",
        r_lazic.observed_tsv_percent
    );
}

#[test]
fn tsrl_saves_energy_but_violates() {
    let train = train_trace();
    let mut tsrl = TsrlController::new(&train, TsrlConfig::default()).expect("tsrl");
    let mut fixed = FixedController::new(Celsius::new(23.0));
    let cfg = episode(LoadSetting::High, 240, 17);
    let r_fixed = run_episode(&mut fixed, &cfg).expect("fixed");
    let r_tsrl = run_episode(&mut tsrl, &cfg).expect("tsrl");
    assert!(r_tsrl.cooling_energy_kwh < r_fixed.cooling_energy_kwh);
    assert!(
        r_tsrl.observed_tsv_percent > 1.0,
        "TSRL must overshoot the limit, saw {:.1}% TSV",
        r_tsrl.observed_tsv_percent
    );
}

#[test]
fn observed_tsv_counts_the_sensors_the_controller_read() {
    // Lazic rides the limit at idle, so the noisy cold-aisle sensors
    // cross it in minutes where the true maximum stays below.
    let train = train_trace();
    let mut lazic = LazicController::new(&train, LazicConfig::default()).expect("lazic");
    let cfg = episode(LoadSetting::Idle, 120, 1001);
    let r = run_episode(&mut lazic, &cfg).expect("lazic");
    let n_cold = cfg.sim.n_cold_aisle_sensors;
    let limit = cfg.d_allowed.value();
    let crossed = (r.metered_from..r.trace.len())
        .filter(|&t| r.trace.dc_temps[..n_cold].iter().any(|col| col[t] > limit))
        .count();
    assert!(crossed > 0, "the sensors never crossed the limit");
    assert_eq!(
        r.observed_tsv_percent,
        100.0 * crossed as f64 / cfg.minutes as f64
    );
    assert_ne!(
        r.observed_tsv_percent, r.tsv_percent,
        "sensor noise must separate the observed TSV from the true one"
    );
}

#[test]
fn lazic_uses_smin_backup_under_stress() {
    // Impossible thermal limit: the predicted max can never clear it, so
    // every decision is the S_min backup.
    let train = train_trace();
    let cfg = LazicConfig {
        d_allowed: Celsius::new(10.0),
        ..LazicConfig::default()
    };
    let mut lazic = LazicController::new(&train, cfg).expect("lazic");
    let sp = lazic.decide(&train);
    assert_eq!(sp, 20.0);
}

#[test]
fn fixed_controller_is_the_safety_reference() {
    // The industry-practice policy holds in every load setting (that is
    // exactly why operators like it — and why it wastes energy).
    let mut fixed = FixedController::new(Celsius::new(23.0));
    for (i, setting) in LoadSetting::all().into_iter().enumerate() {
        let r = run_episode(&mut fixed, &episode(setting, 150, 100 + i as u64)).expect("episode");
        assert_eq!(r.observed_tsv_percent, 0.0, "{} violated", setting.name());
        assert!(r.ci_percent < 5.0);
    }
}

#[test]
fn controllers_report_stable_names() {
    let train = train_trace();
    let lazic = LazicController::new(&train, LazicConfig::default()).expect("lazic");
    let tsrl = TsrlController::new(&train, TsrlConfig::default()).expect("tsrl");
    assert_eq!(lazic.name(), "lazic");
    assert_eq!(tsrl.name(), "tsrl");
    assert_eq!(FixedController::new(Celsius::new(23.0)).name(), "fixed-23C");
}
