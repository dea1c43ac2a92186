//! The paper's future-work direction (§8): "optimize DC's total energy
//! consumption by integrating TESLA with server-side optimizations such
//! as energy-aware workload scheduling."
//!
//! This example runs TESLA twice under the same medium-load demand —
//! once with spread (Kubernetes-default) placement, once with
//! energy-aware consolidation — and compares total (IT + cooling) energy.
//!
//! ```bash
//! cargo run --release --example energy_aware_scheduling
//! ```

use tesla_core::dataset::{generate_sweep_trace, DatasetConfig};
use tesla_core::{run_episode, Controller, EpisodeConfig, TeslaConfig, TeslaController};
use tesla_workload::{LoadSetting, Placement};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("training TESLA on one day of sweep telemetry …");
    let dataset = DatasetConfig {
        days: 1.0,
        seed: 17,
        ..DatasetConfig::default()
    };
    let train = generate_sweep_trace(&dataset)?;

    println!(
        "\n{:<14} {:>12} {:>12} {:>12} {:>8}",
        "placement", "IT (kWh)", "cooling (kWh)", "total (kWh)", "TSV (%)"
    );
    let mut totals = Vec::new();
    for placement in [Placement::Spread, Placement::Consolidate] {
        let tesla = TeslaController::new(&train, TeslaConfig::default())?;
        let mut ctrl: Box<dyn Controller> = Box::new(tesla);
        // Sleep-capable servers: the provisioning lever that makes
        // consolidation pay (Chen et al. [6], cited as complementary).
        let mut episode = EpisodeConfig {
            setting: LoadSetting::Medium,
            minutes: 240,
            warmup_minutes: 60,
            placement,
            seed: 4,
            ..EpisodeConfig::default()
        };
        episode.sim.server.sleep_enabled = true;
        let r = run_episode(ctrl.as_mut(), &episode)?;
        let total = r.server_energy_kwh + r.cooling_energy_kwh;
        println!(
            "{:<14} {:>12.2} {:>12.2} {:>12.2} {:>8.1}",
            format!("{placement:?}"),
            r.server_energy_kwh,
            r.cooling_energy_kwh,
            total,
            r.observed_tsv_percent
        );
        totals.push(total);
    }
    println!(
        "\nconsolidation changed total energy by {:+.1}% — server-side scheduling and\n\
         cooling control compose, as §8 anticipates: parking idle machines removes\n\
         their idle heat, and TESLA converts the lower heat into a higher set-point\n\
         and cheaper cooling on top of the IT saving.",
        100.0 * (totals[1] / totals[0] - 1.0)
    );
    Ok(())
}
