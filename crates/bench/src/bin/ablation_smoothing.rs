//! Ablation: the smoothing-buffer length N (§3.4, Table 2's N = 5).
//!
//! The buffer low-pass-filters the computed set-points; §2.2/Fig. 4 show
//! that raw set-point variation costs transient energy.

use tesla_bench::{arg_f64, print_table, run_standard_episode, train_test_traces};
use tesla_core::{FixedController, TeslaConfig, TeslaController};
use tesla_units::Celsius;
use tesla_workload::LoadSetting;

fn main() {
    let train_days = arg_f64("train-days", 3.0);
    let minutes = arg_f64("minutes", 360.0) as usize;
    eprintln!("training base model on a {train_days}-day sweep …");
    let (train, _) = train_test_traces(train_days, 0.1, 99);

    let mut fixed = FixedController::new(Celsius::new(23.0));
    let baseline = run_standard_episode(&mut fixed, LoadSetting::Medium, minutes, 654);

    let mut rows = Vec::new();
    for n in [1usize, 3, 5, 9] {
        eprintln!("N = {n} …");
        let cfg = TeslaConfig {
            smoothing: n,
            seed: 7,
            ..TeslaConfig::default()
        };
        let mut tesla = TeslaController::new(&train, cfg).expect("TESLA");
        let r = run_standard_episode(&mut tesla, LoadSetting::Medium, minutes, 654);
        // Set-point roughness: mean |Δs| per minute.
        let roughness: f64 = r
            .setpoints
            .windows(2)
            .map(|w| (w[1] - w[0]).abs())
            .sum::<f64>()
            / (r.setpoints.len() - 1).max(1) as f64;
        rows.push(vec![
            format!("{n}"),
            format!("{:.2}", r.cooling_energy_kwh),
            format!("{:.2}", r.saving_vs(&baseline)),
            format!("{:.1}", r.observed_tsv_percent),
            format!("{roughness:.3}"),
        ]);
    }
    print_table(
        "Ablation: smoothing-buffer length N (medium load)",
        &[
            "N",
            "CE (kWh)",
            "saving (%)",
            "TSV (%)",
            "mean |dS/dt| (C/min)",
        ],
        &rows,
    );
    println!(
        "\nexpectation: larger N removes high-frequency set-point variation\n\
         (smaller |dS/dt|), at some cost in responsiveness."
    );
}
