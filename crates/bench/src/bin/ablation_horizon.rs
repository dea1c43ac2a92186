//! Ablation: the prediction horizon L (Table 2's L = 20).
//!
//! §2.2 discusses control time granularity: too coarse misses overheating
//! events; too fine creates set-point churn. The horizon bounds what the
//! constraint (Eq. 9) can see of an interruption ramp.

use tesla_bench::{arg_f64, print_table, run_standard_episode, train_test_traces};
use tesla_core::{FixedController, TeslaConfig, TeslaController};
use tesla_forecast::ModelConfig;
use tesla_units::Celsius;
use tesla_workload::LoadSetting;

fn main() {
    let train_days = arg_f64("train-days", 3.0);
    let minutes = arg_f64("minutes", 360.0) as usize;
    eprintln!("generating a {train_days}-day sweep …");
    let (train, _) = train_test_traces(train_days, 0.1, 99);

    let mut fixed = FixedController::new(Celsius::new(23.0));
    let baseline = run_standard_episode(&mut fixed, LoadSetting::Medium, minutes, 987);

    let mut rows = Vec::new();
    for l in [5usize, 10, 20, 40] {
        eprintln!("L = {l}: retraining the full model stack …");
        let cfg = TeslaConfig {
            model: ModelConfig {
                horizon: l,
                ..ModelConfig::default()
            },
            seed: 7,
            ..TeslaConfig::default()
        };
        let mut tesla = TeslaController::new(&train, cfg).expect("TESLA");
        let r = run_standard_episode(&mut tesla, LoadSetting::Medium, minutes, 987);
        rows.push(vec![
            format!("{l}"),
            format!("{:.2}", r.cooling_energy_kwh),
            format!("{:.2}", r.saving_vs(&baseline)),
            format!("{:.1}", r.observed_tsv_percent),
            format!("{:.1}", r.ci_percent),
        ]);
    }
    print_table(
        "Ablation: prediction horizon L (medium load)",
        &["L (min)", "CE (kWh)", "saving (%)", "TSV (%)", "CI (%)"],
        &rows,
    );
    println!(
        "\nexpectation: short horizons cannot see interruption ramps building\n\
         (safety erodes); very long horizons dilute the constraint and slow the\n\
         optimizer without improving safety."
    );
}
