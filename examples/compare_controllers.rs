//! Compare all four controllers (fixed 23 °C, TESLA, Lazic MPC, TSRL)
//! on the same high-load afternoon — a miniature Table 5.
//!
//! ```bash
//! cargo run --release --example compare_controllers
//! ```

use tesla_core::dataset::{generate_sweep_trace, DatasetConfig};
use tesla_core::lazic::LazicConfig;
use tesla_core::{
    run_episode, Controller, EpisodeConfig, FixedController, LazicController, TeslaConfig,
    TeslaController, TsrlConfig, TsrlController,
};
use tesla_units::Celsius;
use tesla_workload::LoadSetting;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("generating 1.5 days of training telemetry …");
    let dataset = DatasetConfig {
        days: 1.5,
        seed: 99,
        ..DatasetConfig::default()
    };
    let train = generate_sweep_trace(&dataset)?;

    println!("training the three data-driven controllers …");
    let mut controllers: Vec<Box<dyn Controller>> = vec![
        Box::new(FixedController::new(Celsius::new(23.0))),
        Box::new(TeslaController::new(&train, TeslaConfig::default())?),
        Box::new(LazicController::new(&train, LazicConfig::default())?),
        Box::new(TsrlController::new(&train, TsrlConfig::default())?),
    ];

    let episode = EpisodeConfig {
        setting: LoadSetting::High,
        minutes: 240,
        warmup_minutes: 60,
        seed: 11,
        ..EpisodeConfig::default()
    };

    println!(
        "\n{:<10} {:>9} {:>9} {:>7} {:>7}",
        "controller", "CE (kWh)", "save (%)", "TSV (%)", "CI (%)"
    );
    let mut baseline = None;
    for c in controllers.iter_mut() {
        let r = run_episode(c.as_mut(), &episode)?;
        let save = baseline.as_ref().map(|b| r.saving_vs(b)).unwrap_or(0.0);
        println!(
            "{:<10} {:>9.2} {:>9.2} {:>7.1} {:>7.1}",
            r.controller, r.cooling_energy_kwh, save, r.observed_tsv_percent, r.ci_percent
        );
        if baseline.is_none() {
            baseline = Some(r);
        }
    }
    println!(
        "\nexpected shape (paper Table 5): TESLA saves energy with zero TSV;\n\
         Lazic and TSRL save more but violate the 22 C cold-aisle limit."
    );
    Ok(())
}
