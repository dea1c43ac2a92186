//! Multi-zone control: a two-pod fleet, one TESLA controller per pod,
//! under a binding site power budget.
//!
//! The paper's testbed has a single ACU (§4); its §2 figure shows rooms
//! served by several. Here two pods — each one testbed cell with its own
//! ACU, sensors and TESLA instance — sit side by side in a row, bleed
//! hot-aisle heat into each other across a 0.25 kW/K edge, and share one
//! electrical feed whose budget is below their combined draw. The site
//! coordinator relaxes set-points while the site is over budget, but
//! never past a pod's observed thermal headroom.
//!
//! ```bash
//! cargo run --release --example multizone_control
//! ```

use tesla_core::dataset::{generate_sweep_trace, DatasetConfig};
use tesla_core::{EpisodeConfig, TeslaConfig};
use tesla_fleet::{shared_tesla_controllers, Fleet, FleetConfig, FleetTopology};
use tesla_units::Kilowatts;

/// Pods on the row.
const PODS: usize = 2;

/// Site budget per pod: below a medium-load pod's draw (IT plus
/// cooling), so the coordinator has to arbitrate.
const BUDGET_KW_PER_POD: f64 = 7.5;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("fitting one TESLA model for both pods (shared sweep protocol) …");
    let train = generate_sweep_trace(&DatasetConfig {
        days: 1.0,
        seed: 23,
        ..DatasetConfig::default()
    })?;
    let tesla = TeslaConfig {
        seed: 1,
        ..TeslaConfig::default()
    };
    let minutes = 240;
    let config = FleetConfig {
        topology: FleetTopology::row(PODS, Kilowatts::new(125.0), 0.25)?,
        zone: EpisodeConfig {
            minutes,
            warmup_minutes: 60,
            seed: 11,
            ..EpisodeConfig::default()
        },
        site_budget_kw: Kilowatts::new(BUDGET_KW_PER_POD * PODS as f64),
        workers: PODS,
        ..FleetConfig::default()
    };
    let budget = config.site_budget_kw;
    let controllers = shared_tesla_controllers(&train, &tesla, PODS)?;
    let report = Fleet::new(config, controllers, None)?.run(minutes, None)?;

    println!("\nper-pod results over {minutes} minutes (bleed 0.25 kW/K, site budget {budget}):");
    println!(
        "{:<6} {:>10} {:>12} {:>10}",
        "pod", "CE (kWh)", "mean sp (C)", "TSV (%)"
    );
    for (z, pod) in report.zones.iter().enumerate() {
        let mean_sp = pod.setpoints.iter().sum::<f64>() / pod.setpoints.len().max(1) as f64;
        println!(
            "{:<6} {:>10.2} {:>12.2} {:>10.1}",
            format!("z{z}"),
            pod.cooling_energy_kwh,
            mean_sp,
            pod.tsv_percent
        );
    }
    println!(
        "\nsite peak {:.1} kW against the {budget} budget; over budget in {} of {} minutes;\n\
         {} zone-minutes of set-point relaxation, {} violation minutes.",
        report.site_peak_kw.value(),
        report.budget_exceeded_minutes,
        report.minutes,
        report.relaxations,
        report.violation_minutes()
    );
    Ok(())
}
