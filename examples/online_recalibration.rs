//! Online recalibration under plant drift.
//!
//! §3.3 says that after an `S_min` fallback TESLA "will re-calibrate
//! itself later", and §8 notes the modeling stage is decoupled from the
//! optimizer, so the model can be refreshed in place. This example drifts
//! the plant mid-episode — a blanking panel is removed (containment
//! leakage doubles) and the ACU coils foul (COP −20 %) — and compares a
//! statically trained TESLA against one that refits its DC time-series
//! model from the trailing history every 30 minutes.
//!
//! ```bash
//! cargo run --release --example online_recalibration
//! ```

use tesla_core::dataset::{generate_sweep_trace, DatasetConfig};
use tesla_core::{
    Controller, EpisodeConfig, Supervisor, SupervisorConfig, TeslaConfig, TeslaController,
    ZoneEpisode,
};
use tesla_workload::LoadSetting;

struct DriftOutcome {
    energy_after_drift: f64,
    tsv_after_drift: f64,
    retrains: u64,
}

fn run(retrain_every: Option<u64>) -> DriftOutcome {
    let dataset = DatasetConfig {
        days: 1.0,
        seed: 31,
        ..DatasetConfig::default()
    };
    let train = generate_sweep_trace(&dataset).expect("sweep");
    let config = TeslaConfig {
        retrain_every,
        seed: 5,
        ..TeslaConfig::default()
    };
    let mut tesla = TeslaController::new(&train, config).expect("TESLA");

    let minutes = 360;
    let drift_at = 150;
    let cfg = EpisodeConfig {
        setting: LoadSetting::Medium,
        minutes,
        warmup_minutes: 60,
        seed: 9,
        ..EpisodeConfig::default()
    };
    let mut supervisor = Supervisor::new(SupervisorConfig::pass_through());
    let mut episode = ZoneEpisode::new(cfg.testbed().expect("testbed"), &cfg);
    episode.warmup().expect("warm-up");

    let mut violations_after = 0usize;
    for m in 0..minutes {
        if m == drift_at {
            // Plant drift: panel removed + coils fouled.
            let plant = episode.plant_mut();
            plant.set_containment_leakage(0.13);
            plant.degrade_acu_cop(0.8);
        }
        let sp = episode.decide(&mut supervisor, &mut tesla);
        let outcome = episode
            .advance(m, sp, &mut supervisor, false)
            .expect("step");
        if m >= drift_at && outcome.observed_cold_aisle_max > cfg.d_allowed {
            violations_after += 1;
        }
    }
    let result = episode.finish(tesla.name(), &supervisor);
    DriftOutcome {
        energy_after_drift: result.trace.acu_energy[result.metered_from + drift_at..]
            .iter()
            .sum(),
        tsv_after_drift: 100.0 * violations_after as f64 / (minutes - drift_at) as f64,
        retrains: tesla.retrain_count(),
    }
}

fn main() {
    println!("running static TESLA through the drift episode …");
    let static_run = run(None);
    println!("running recalibrating TESLA (refit every 30 min) …");
    let adaptive = run(Some(30));

    println!("\npost-drift metrics (panel removed + coils fouled at t = 150 min):");
    println!(
        "{:<22} {:>14} {:>10} {:>10}",
        "variant", "CE after (kWh)", "TSV (%)", "retrains"
    );
    println!(
        "{:<22} {:>14.2} {:>10.1} {:>10}",
        "static", static_run.energy_after_drift, static_run.tsv_after_drift, static_run.retrains
    );
    println!(
        "{:<22} {:>14.2} {:>10.1} {:>10}",
        "recalibrating", adaptive.energy_after_drift, adaptive.tsv_after_drift, adaptive.retrains
    );
    // The closing line reads the two rows above, so it says what was
    // measured on this run.
    let (tsv_s, tsv_a) = (static_run.tsv_after_drift, adaptive.tsv_after_drift);
    let tsv = if tsv_a < tsv_s {
        format!("cuts TSV from {tsv_s:.1}% to {tsv_a:.1}%")
    } else if tsv_a > tsv_s {
        format!("raises TSV from {tsv_s:.1}% to {tsv_a:.1}%")
    } else {
        format!("matches the static variant's TSV ({tsv_a:.1}%)")
    };
    let (ce_s, ce_a) = (static_run.energy_after_drift, adaptive.energy_after_drift);
    let extra = 100.0 * (ce_a / ce_s - 1.0);
    println!(
        "\nafter the drift, recalibrating {tsv}\n\
         and spends {:.1}% {} cooling energy ({ce_a:.2} against {ce_s:.2} kWh).",
        extra.abs(),
        if extra > 0.0 { "more" } else { "less" }
    );
}
