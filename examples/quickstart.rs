//! Quickstart: train TESLA on sweep data and control the simulated
//! testbed for two hours.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

use tesla_core::dataset::{generate_sweep_trace, DatasetConfig};
use tesla_core::{run_episode, Controller, EpisodeConfig, TeslaConfig, TeslaController};
use tesla_workload::LoadSetting;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Collect training data: the paper's §5.1 protocol — random load
    //    settings per 12-hour segment, set-point swept 20→35 °C at
    //    0.5 °C per 5 minutes. (One day here; more days = better models.)
    println!("generating one day of sweep telemetry …");
    let dataset = DatasetConfig {
        days: 1.0,
        seed: 7,
        ..DatasetConfig::default()
    };
    let trace = generate_sweep_trace(&dataset)?;
    println!(
        "  {} samples, {} rack sensors",
        trace.len(),
        trace.n_dc_sensors()
    );

    // 2. Train the TESLA controller: the four-sub-module DC time-series
    //    model plus the modeling-error-aware Bayesian optimizer.
    println!("training the DC time-series model (L = 20) …");
    let tesla = TeslaController::new(&trace, TeslaConfig::default())?;
    println!(
        "  trained; thermal limit {}, kappa {}, smoothing N = {}",
        tesla.config().d_allowed,
        tesla.config().kappa,
        tesla.config().smoothing
    );

    // 3. Close the loop on the simulated testbed under a medium diurnal
    //    load for two hours.
    println!("running a 2-hour medium-load episode …");
    let mut controller: Box<dyn Controller> = Box::new(tesla);
    let episode = EpisodeConfig {
        setting: LoadSetting::Medium,
        minutes: 120,
        warmup_minutes: 60,
        seed: 42,
        ..EpisodeConfig::default()
    };
    let result = run_episode(controller.as_mut(), &episode)?;

    println!("\nresults over {} minutes:", result.setpoints.len());
    println!("  cooling energy: {:.2} kWh", result.cooling_energy_kwh);
    println!(
        "  thermal-safety violations: {:.1}% of samples",
        result.observed_tsv_percent
    );
    println!("  cooling interruption: {:.1}% of time", result.ci_percent);
    println!(
        "  set-point range: {:.1} – {:.1} C",
        result
            .setpoints
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min),
        result
            .setpoints
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max),
    );
    println!(
        "  max cold-aisle temperature: {:.2} C (limit 22.0 C)",
        result
            .cold_aisle_max
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max),
    );
    Ok(())
}
