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

use rand::rngs::StdRng;
use rand::SeedableRng;
use tesla_core::dataset::{generate_sweep_trace, push_observation, DatasetConfig};
use tesla_core::{Controller, TeslaConfig, TeslaController};
use tesla_forecast::Trace;
use tesla_sim::{SimConfig, Testbed};
use tesla_units::Celsius;
use tesla_workload::{DiurnalProfile, LoadSetting, Orchestrator};

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

    let sim = SimConfig::default();
    let minutes = 360;
    let drift_at = 150;
    let mut tb = Testbed::new(sim.clone(), 9).expect("testbed");
    let mut orch = Orchestrator::new(sim.n_servers);
    let mut profile = DiurnalProfile::new(LoadSetting::Medium, minutes as f64 * 60.0);
    let mut rng = StdRng::seed_from_u64(9 ^ 0xEE);
    let mut trace = Trace::with_sensors(sim.n_acu_sensors, sim.n_dc_sensors);
    tb.write_setpoint(Celsius::new(23.0));
    for _ in 0..60 {
        let t = profile.sample(0.0, &mut rng);
        let utils = orch.tick(60.0, t, &mut rng);
        let obs = tb.step_sample(utils).expect("step");
        push_observation(&mut trace, &obs);
    }

    let mut energy_after_drift = 0.0;
    let mut violations_after = 0usize;
    for m in 0..minutes {
        if m == drift_at {
            // Plant drift: panel removed + coils fouled.
            tb.set_containment_leakage(0.13);
            tb.degrade_acu_cop(0.8);
        }
        let sp = tesla.decide(&trace);
        tb.write_setpoint(Celsius::new(sp));
        let t = profile.sample(m as f64 * 60.0, &mut rng);
        let utils = orch.tick(60.0, t, &mut rng);
        let obs = tb.step_sample(utils).expect("step");
        if m >= drift_at {
            energy_after_drift += obs.acu_energy_kwh;
            if obs.cold_aisle_max > 22.0 {
                violations_after += 1;
            }
        }
        push_observation(&mut trace, &obs);
    }
    DriftOutcome {
        energy_after_drift,
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
    println!(
        "\nthe recalibrating variant folds the drifted plant back into its model and\n\
         restores a clean safety record; the static one keeps optimizing against a\n\
         stale model and leans on its error monitor's widened uncertainty, drifting\n\
         closer to the limit."
    );
}
