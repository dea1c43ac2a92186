//! The §4-faithful deployment: telemetry producer and TESLA consumer as
//! separate threads over a message queue, with every sample collected
//! into an in-memory historian (the InfluxDB stand-in).
//!
//! ```bash
//! cargo run --release --example threaded_deployment
//! ```

use std::sync::Arc;
use tesla_core::dataset::{generate_sweep_trace, DatasetConfig};
use tesla_core::runtime::run_episode_threaded;
use tesla_core::{metric, EpisodeConfig, TeslaConfig, TeslaController};
use tesla_historian::{Historian, HistorianConfig, MetricStore};
use tesla_workload::LoadSetting;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("training TESLA on one day of sweep telemetry …");
    let dataset = DatasetConfig {
        days: 1.0,
        seed: 3,
        ..DatasetConfig::default()
    };
    let train = generate_sweep_trace(&dataset)?;
    let tesla = TeslaController::new(&train, TeslaConfig::default())?;

    let store = Arc::new(Historian::in_memory(HistorianConfig::default()));
    let episode = EpisodeConfig {
        setting: LoadSetting::Medium,
        minutes: 90,
        warmup_minutes: 30,
        seed: 21,
        ..EpisodeConfig::default()
    };
    println!("running 90 minutes with producer/consumer threads …");
    let dyn_store: Arc<dyn MetricStore> = Arc::clone(&store) as _;
    let result = run_episode_threaded(Box::new(tesla), &episode, dyn_store)?;

    println!("\nepisode metrics:");
    println!("  cooling energy: {:.2} kWh", result.cooling_energy_kwh);
    println!(
        "  TSV: {:.1}%   CI: {:.1}%",
        result.tsv_percent, result.ci_percent
    );

    println!(
        "\nthe store collected {} metrics; examples:",
        store.metric_names().len()
    );
    for m in [metric::ACU_POWER, metric::SETPOINT, metric::COLD_AISLE_MAX] {
        let last = store.last_n(m, 3);
        println!("  {m}: last 3 samples {last:?}");
    }
    Ok(())
}
