//! Ablation: the interruption-penalty threshold κ (Eq. 7).
//!
//! §3.3: "κ is a positive number that controls how much cooling
//! interruption is penalized. Setting κ = 0 does not allow any
//! interruption." This sweep shows the CE / CI / TSV trade-off around the
//! paper's κ = 0.5 °C.

use tesla_bench::{arg_f64, print_table, run_standard_episode, train_test_traces};
use tesla_core::{FixedController, TeslaConfig, TeslaController};
use tesla_units::Celsius;
use tesla_units::DegC;
use tesla_workload::LoadSetting;

fn main() {
    let train_days = arg_f64("train-days", 3.0);
    let minutes = arg_f64("minutes", 360.0) as usize;
    eprintln!("training base model on a {train_days}-day sweep …");
    let (train, _) = train_test_traces(train_days, 0.1, 99);

    let mut fixed = FixedController::new(Celsius::new(23.0));
    let baseline = run_standard_episode(&mut fixed, LoadSetting::Medium, minutes, 321);

    let mut rows = Vec::new();
    for kappa in [0.0, 0.25, 0.5, 1.0, 2.0] {
        eprintln!("κ = {kappa} …");
        let cfg = TeslaConfig {
            kappa: DegC::new(kappa),
            seed: 7,
            ..TeslaConfig::default()
        };
        let mut tesla = TeslaController::new(&train, cfg).expect("TESLA");
        let r = run_standard_episode(&mut tesla, LoadSetting::Medium, minutes, 321);
        rows.push(vec![
            format!("{kappa:.2}"),
            format!("{:.2}", r.cooling_energy_kwh),
            format!("{:.2}", r.saving_vs(&baseline)),
            format!("{:.1}", r.observed_tsv_percent),
            format!("{:.1}", r.ci_percent),
        ]);
    }
    print_table(
        "Ablation: interruption-penalty threshold κ (medium load)",
        &["kappa (C)", "CE (kWh)", "saving (%)", "TSV (%)", "CI (%)"],
        &rows,
    );
    println!(
        "\nexpectation: κ = 0 forbids any positive residual (most conservative);\n\
         larger κ tolerates brief interruptions, trading CI for energy."
    );
}
