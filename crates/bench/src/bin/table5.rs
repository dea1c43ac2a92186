//! Table 5: end-to-end benchmark — cooling energy (CE), CE saving vs the
//! fixed 23 °C policy, thermal-safety violation time (TSV), and cooling
//! interruption (CI), for {Fix-23 °C, TESLA, Lazic, TSRL} × {idle,
//! medium, high} load settings.
//!
//! Paper shape: TESLA saves 5.24–15.3% CE (growing with load) with zero
//! TSV and ~2% CI; Lazic and TSRL save substantially more CE but incur
//! double-digit TSV and CI.
//!
//! `--repeats N` (default 1) averages over N seeds and reports mean ± std
//! of each metric — the seed-robust version of the table.

use tesla_bench::{arg_f64, print_table, run_standard_episode, train_test_traces};
use tesla_core::{Controller, EvalResult, FixedController};
use tesla_linalg::stats::{mean, std_dev};
use tesla_units::Celsius;
use tesla_workload::LoadSetting;

fn main() {
    let train_days = arg_f64("train-days", 3.0);
    let minutes = arg_f64("minutes", 720.0) as usize;
    let repeats = arg_f64("repeats", 1.0).max(1.0) as usize;
    eprintln!("generating {train_days}-day training sweep …");
    let (train, _) = train_test_traces(train_days, 0.1, 99);

    eprintln!("training TESLA …");
    let mut tesla = tesla_bench::trained_tesla(&train, 1);
    eprintln!("training Lazic …");
    let mut lazic = tesla_bench::trained_lazic(&train);
    eprintln!("training TSRL …");
    let mut tsrl = tesla_bench::trained_tsrl(&train);
    let mut fixed = FixedController::new(Celsius::new(23.0));

    let mut rows: Vec<Vec<String>> = Vec::new();
    for (si, setting) in LoadSetting::all().into_iter().enumerate() {
        // One result list per controller, across repeats.
        let mut results: [Vec<EvalResult>; 4] = Default::default();
        for rep in 0..repeats {
            let seed = 1000 + si as u64 + 37 * rep as u64;
            eprintln!(
                "== {} load, seed {seed}: running 4 controllers x {minutes} min …",
                setting.name()
            );
            let ctrls: [&mut dyn Controller; 4] = [&mut fixed, &mut tesla, &mut lazic, &mut tsrl];
            for (slot, ctrl) in ctrls.into_iter().enumerate() {
                let r = run_standard_episode(ctrl, setting, minutes, seed);
                eprintln!("   {:<10} CE {:.1} kWh", r.controller, r.cooling_energy_kwh);
                results[slot].push(r);
            }
        }
        push_rows(&mut rows, setting, &results, repeats);
    }

    print_table(
        &format!("Table 5: end-to-end performance ({minutes}-min episodes, {repeats} seed(s))"),
        &[
            "load",
            "metric",
            "Fix 23C",
            "TESLA",
            "Lazic [20]",
            "TSRL [8]",
        ],
        &rows,
    );
    println!(
        "\npaper shape: TESLA saves ~5-15% CE (growing with load) with 0% TSV and ~2% CI;\n\
         Lazic/TSRL save more CE but with >=16.9% TSV and large CI."
    );
}

fn push_rows(
    rows: &mut Vec<Vec<String>>,
    setting: LoadSetting,
    results: &[Vec<EvalResult>; 4],
    repeats: usize,
) {
    let fmt_stat = |vals: &[f64]| -> String {
        if repeats > 1 {
            format!("{:.1}±{:.1}", mean(vals), std_dev(vals))
        } else {
            format!("{:.1}", vals[0])
        }
    };
    let metric_row = |name: &str, f: &dyn Fn(&EvalResult, &EvalResult) -> f64| -> Vec<String> {
        let mut row = vec![setting.name().to_string(), name.to_string()];
        for slot in 0..4 {
            let vals: Vec<f64> = results[slot]
                .iter()
                .zip(&results[0])
                .map(|(r, baseline)| f(r, baseline))
                .collect();
            row.push(fmt_stat(&vals));
        }
        row
    };
    rows.push(metric_row("CE (kWh)", &|r, _| r.cooling_energy_kwh));
    rows.push(metric_row("CE saving (%)", &|r, b| r.saving_vs(b)));
    rows.push(metric_row("TSV (%)", &|r, _| r.observed_tsv_percent));
    rows.push(metric_row("CI (%)", &|r, _| r.ci_percent));
    rows.push(metric_row("cooling/IT", &|r, _| r.cooling_overhead()));
}
