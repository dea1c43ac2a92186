#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Experiment harness shared by the table/figure binaries.
//!
//! Every table and figure of the paper's evaluation (§5–6) has a binary
//! in `src/bin/` that regenerates it:
//!
//! | target | reproduces |
//! |--------|------------|
//! | `fig2` | ACU power variance at a fixed 27 °C set-point |
//! | `fig3` | cooling-interruption rise / recovery rates |
//! | `fig4` | transient power cost of a set-point dip |
//! | `table3` | DC-temperature MAPE: TESLA vs Lazic (recursive OLS) vs MLP |
//! | `table4` | cooling-energy MAPE: TESLA vs MLP vs XGBoost-like GBT vs RF |
//! | `table5` | end-to-end CE / CE-saving / TSV / CI for all controllers × loads |
//! | `fig8` | server-power trace + BO objective/constraint snapshots |
//! | `fig9`–`fig12` | per-controller set-point / inlet / power / cold-aisle traces |
//! | `ablation_*` | κ, smoothing-buffer, and horizon sensitivity studies |
//!
//! The absolute numbers come from the simulator substrate, not the
//! authors' testbed; the *shape* (who wins, by roughly what factor, where
//! the crossovers sit) is the reproduction target — see EXPERIMENTS.md.
//!
//! This library holds the pieces the binaries share: dataset generation,
//! the MAPE evaluation protocols, the Wang-et-al-style recursive MLP
//! baseline, table rendering, and CSV export.
//!
//! # Example: naming a result file
//!
//! ```
//! // Every bin writes `bench_results/<slug>.csv` under a shell-safe name.
//! assert_eq!(tesla_bench::csv_slug("Fig10_fixed-23C"), "fig10_fixed_23c");
//! ```

pub mod plot;

use std::io::Write as _;
use std::path::PathBuf;
use tesla_core::dataset::{generate_sweep_trace, DatasetConfig};
use tesla_forecast::{DcTimeSeriesModel, ModelWindow, RecursiveAr, Trace};
use tesla_ml::{Mlp, MlpConfig};
use tesla_sim::SimConfig;
use tesla_units::Celsius;

/// Generates the §5.1 train/test traces (sweep data under random load
/// settings). `train_days`/`test_days` shrink the paper's 30 + 14 days to
/// whatever the caller's budget allows; the protocol is identical.
pub fn train_test_traces(train_days: f64, test_days: f64, seed: u64) -> (Trace, Trace) {
    let train = sweep(train_days, seed);
    let test = sweep(test_days, seed ^ 0x5EED_7E57);
    (train, test)
}

fn sweep(days: f64, seed: u64) -> Trace {
    generate_sweep_trace(&DatasetConfig {
        days,
        seed,
        ..DatasetConfig::default()
    })
    .expect("sweep generation")
}

/// True when the bare flag `--name` appears on the command line.
pub fn arg_flag(name: &str) -> bool {
    let flag = format!("--{name}");
    std::env::args().any(|a| a == flag)
}

/// Reads an `ENV`-style override from the command line (`--days 3`), with
/// a default. Keeps the binaries dependency-free.
pub fn arg_f64(name: &str, default: f64) -> f64 {
    let args: Vec<String> = std::env::args().collect();
    for i in 0..args.len().saturating_sub(1) {
        if args[i] == format!("--{name}") {
            if let Ok(v) = args[i + 1].parse() {
                return v;
            }
        }
    }
    default
}

/// Evaluation points on a test trace: window indices with full lag + full
/// horizon coverage, at `stride`.
fn eval_points(trace: &Trace, l: usize, stride: usize) -> Vec<usize> {
    (l - 1..trace.len().saturating_sub(l))
        .step_by(stride.max(1))
        .collect()
}

/// Temperature-MAPE protocol (Table 3): predict every rack sensor over
/// the `L`-step horizon using the *executed* future set-points, then
/// MAPE against the realized temperatures.
pub fn temperature_mape_tesla(model: &DcTimeSeriesModel, test: &Trace, stride: usize) -> f64 {
    let l = model.config().horizon;
    let mut truth = Vec::new();
    let mut pred = Vec::new();
    for t in eval_points(test, l, stride) {
        let window = test.window_at(t, l).expect("window");
        let sps =
            Celsius::from_raw_slice(&(1..=l).map(|s| test.setpoint[t + s]).collect::<Vec<_>>());
        let Ok(p) = model.predict_with_setpoints(&window, &sps) else {
            continue;
        };
        for k in 0..test.n_dc_sensors() {
            for step in 0..l {
                truth.push(test.dc_temps[k][t + 1 + step]);
                pred.push(p.dc[k][step]);
            }
        }
    }
    tesla_linalg::stats::mape(&truth, &pred)
}

/// Table 3's Lazic baseline: recursive AR rollout MAPE.
pub fn temperature_mape_recursive(
    model: &RecursiveAr,
    test: &Trace,
    l: usize,
    stride: usize,
) -> f64 {
    let mut truth = Vec::new();
    let mut pred = Vec::new();
    for t in eval_points(test, l, stride) {
        let window = test.window_at(t, l).expect("window");
        let sps: Vec<f64> = (1..=l).map(|s| test.setpoint[t + s]).collect();
        let Ok(roll) = model.predict_rollout(&window, &sps) else {
            continue;
        };
        for (k, row) in roll.iter().enumerate().take(test.n_dc_sensors()) {
            for (step, &p) in row.iter().enumerate().take(l) {
                truth.push(test.dc_temps[k][t + 1 + step]);
                pred.push(p);
            }
        }
    }
    tesla_linalg::stats::mape(&truth, &pred)
}

/// The Wang et al. \[42\]-style MLP baseline for Table 3: a one-step
/// multi-output MLP over the collective signal frame, rolled out
/// recursively like the original model-based DRL world models.
pub struct RecursiveMlp {
    mlp: Mlp,
    n_dc: usize,
    n_acu: usize,
}

impl RecursiveMlp {
    /// Trains the one-step model: `[frame_t, frame_{t-1}, s_{t+1}] →
    /// frame_{t+1}` where a frame is all rack temps + inlet temps + power.
    pub fn fit(trace: &Trace, config: MlpConfig) -> Self {
        let n_dc = trace.n_dc_sensors();
        let n_acu = trace.n_acu_sensors();
        let m = n_dc + n_acu + 1;
        let mut x = Vec::new();
        let mut y = Vec::new();
        for t in 1..trace.len() - 1 {
            let mut row = Vec::with_capacity(2 * m + 1);
            for back in 0..2 {
                Self::write_frame(&mut row, trace, t - back);
            }
            row.push(trace.setpoint[t + 1]);
            x.push(row);
            let mut target = Vec::with_capacity(m);
            Self::write_frame(&mut target, trace, t + 1);
            y.push(target);
        }
        let mlp = Mlp::fit_multi(&x, &y, config).expect("MLP training");
        RecursiveMlp { mlp, n_dc, n_acu }
    }

    fn write_frame(dst: &mut Vec<f64>, trace: &Trace, t: usize) {
        for k in 0..trace.n_dc_sensors() {
            dst.push(trace.dc_temps[k][t]);
        }
        for i in 0..trace.n_acu_sensors() {
            dst.push(trace.acu_inlet[i][t]);
        }
        dst.push(trace.avg_power[t]);
    }

    /// Rolls the model out and returns predicted rack temps `[N_d][steps]`.
    pub fn predict_rollout(&self, window: &ModelWindow, setpoints: &[f64]) -> Vec<Vec<f64>> {
        let m = self.n_dc + self.n_acu + 1;
        let hist = window.power.len();
        let mut frames: Vec<Vec<f64>> = (0..2)
            .map(|back| {
                let idx = hist - 1 - back;
                let mut f = Vec::with_capacity(m);
                for k in 0..self.n_dc {
                    f.push(window.dc[k][idx]);
                }
                for i in 0..self.n_acu {
                    f.push(window.inlet[i][idx]);
                }
                f.push(window.power[idx]);
                f
            })
            .collect();
        let mut out = vec![Vec::with_capacity(setpoints.len()); self.n_dc];
        for &sp in setpoints {
            let mut input = Vec::with_capacity(2 * m + 1);
            input.extend_from_slice(&frames[0]);
            input.extend_from_slice(&frames[1]);
            input.push(sp);
            let next = self.mlp.predict_multi(&input);
            for (k, series) in out.iter_mut().enumerate() {
                series.push(next[k]);
            }
            frames.rotate_right(1);
            frames[0] = next;
        }
        out
    }
}

/// Table 3's MLP column.
pub fn temperature_mape_mlp(model: &RecursiveMlp, test: &Trace, l: usize, stride: usize) -> f64 {
    let mut truth = Vec::new();
    let mut pred = Vec::new();
    for t in eval_points(test, l, stride) {
        let window = test.window_at(t, l).expect("window");
        let sps: Vec<f64> = (1..=l).map(|s| test.setpoint[t + s]).collect();
        let roll = model.predict_rollout(&window, &sps);
        for (k, row) in roll.iter().enumerate().take(test.n_dc_sensors()) {
            for (step, &p) in row.iter().enumerate().take(l) {
                truth.push(test.dc_temps[k][t + 1 + step]);
                pred.push(p);
            }
        }
    }
    tesla_linalg::stats::mape(&truth, &pred)
}

/// Builds the Table 4 dataset: features = future set-points + future
/// inlet temps over the horizon (Eq. 4's inputs, true values — the
/// protocol isolates the energy model itself); target = energy over the
/// horizon, kWh.
pub fn energy_dataset(trace: &Trace, l: usize, stride: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
    let n_a = trace.n_acu_sensors();
    let mut x = Vec::new();
    let mut y = Vec::new();
    for t in eval_points(trace, l, stride) {
        let mut row = Vec::with_capacity(l + n_a * l);
        for i in 1..=l {
            row.push(trace.setpoint[t + i]);
        }
        for na in 0..n_a {
            for i in 1..=l {
                row.push(trace.acu_inlet[na][t + i]);
            }
        }
        x.push(row);
        y.push(trace.acu_energy[t + 1..=t + l].iter().sum());
    }
    (x, y)
}

/// Renders an aligned text table to stdout.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    println!("\n== {title} ==");
    let line: String = headers
        .iter()
        .enumerate()
        .map(|(i, h)| format!("{:>w$}", h, w = widths[i] + 2))
        .collect();
    println!("{line}");
    for row in rows {
        let line: String = row
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths[i] + 2))
            .collect();
        println!("{line}");
    }
}

/// Flattens a display name into a shell-safe CSV stem: ASCII
/// alphanumerics are lowercased, everything else (spaces, dashes, °)
/// becomes `_`. `"Fig10_fixed-23C"` → `"fig10_fixed_23c"`, so the
/// artifacts under `bench_results/` never need quoting in the runbooks.
pub fn csv_slug(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '_'
            }
        })
        .collect()
}

/// Writes aligned series as CSV under `bench_results/` for plotting.
pub fn export_csv(name: &str, headers: &[&str], columns: &[&[f64]]) -> PathBuf {
    let dir = PathBuf::from("bench_results");
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join(format!("{name}.csv"));
    let mut f = std::fs::File::create(&path).expect("create csv");
    writeln!(f, "{}", headers.join(",")).expect("csv header");
    let rows = columns.iter().map(|c| c.len()).max().unwrap_or(0);
    for r in 0..rows {
        let line: Vec<String> = columns
            .iter()
            .map(|c| c.get(r).map(|v| format!("{v}")).unwrap_or_default())
            .collect();
        writeln!(f, "{}", line.join(",")).expect("csv row");
    }
    path
}

/// Default simulator config helper for the binaries.
pub fn sim_config() -> SimConfig {
    SimConfig::default()
}

/// Trains a TESLA controller with Table 2 defaults on a sweep trace.
pub fn trained_tesla(train: &Trace, seed: u64) -> tesla_core::TeslaController {
    let cfg = tesla_core::TeslaConfig {
        seed,
        ..tesla_core::TeslaConfig::default()
    };
    tesla_core::TeslaController::new(train, cfg).expect("TESLA training")
}

/// Trains the Lazic et al. baseline controller.
pub fn trained_lazic(train: &Trace) -> tesla_core::LazicController {
    tesla_core::LazicController::new(train, tesla_core::lazic::LazicConfig::default())
        .expect("Lazic training")
}

/// Trains the TSRL baseline controller.
pub fn trained_tsrl(train: &Trace) -> tesla_core::TsrlController {
    tesla_core::TsrlController::new(train, tesla_core::TsrlConfig::default())
        .expect("TSRL training")
}

/// Shared implementation of Figs. 9–12: run one controller through a
/// medium-load episode and report/export its set-point, inlet, ACU power
/// and max-cold-aisle traces.
pub fn run_trace_figure(
    figure: &str,
    controller: &mut dyn tesla_core::Controller,
    paper_note: &str,
) {
    let train_days = arg_f64("train-days", 3.0);
    let _ = train_days; // callers train before calling; flag listed for symmetry
    let minutes = arg_f64("minutes", 720.0) as usize;
    let result = run_standard_episode(controller, tesla_workload::LoadSetting::Medium, minutes, 88);
    let hours: Vec<f64> = (0..minutes).map(|m| m as f64 / 60.0).collect();
    let limit = vec![22.0; minutes];

    let above: usize = result.cold_aisle_max.iter().filter(|&&c| c > 22.0).count();
    print_table(
        &format!(
            "{figure}: {} under medium load ({minutes} min)",
            result.controller
        ),
        &["metric", "value"],
        &[
            vec![
                "cooling energy (kWh)".into(),
                format!("{:.2}", result.cooling_energy_kwh),
            ],
            vec![
                "mean set-point (C)".into(),
                format!("{:.2}", tesla_linalg::stats::mean(&result.setpoints)),
            ],
            vec![
                "mean inlet (C)".into(),
                format!("{:.2}", tesla_linalg::stats::mean(&result.inlet_avg)),
            ],
            vec!["mean |set-point - inlet| (C)".into(), {
                let residual: f64 = result
                    .setpoints
                    .iter()
                    .zip(&result.inlet_avg)
                    .map(|(s, i)| (s - i).abs())
                    .sum::<f64>()
                    / minutes as f64;
                format!("{residual:.2}")
            }],
            vec![
                "mean ACU power (kW)".into(),
                format!("{:.2}", tesla_linalg::stats::mean(&result.acu_power)),
            ],
            vec!["max cold-aisle (C)".into(), {
                let m = result
                    .cold_aisle_max
                    .iter()
                    .cloned()
                    .fold(f64::MIN, f64::max);
                format!("{m:.2}")
            }],
            vec!["minutes above 22 C limit".into(), format!("{above}")],
            vec!["TSV (%)".into(), format!("{:.1}", result.tsv_percent)],
            vec!["CI (%)".into(), format!("{:.1}", result.ci_percent)],
        ],
    );
    println!("\npaper: {paper_note}");
    println!(
        "\n{}",
        plot::ascii_chart_titled("executed set-point (C)", &result.setpoints, 100, 7)
    );
    println!(
        "{}",
        plot::ascii_chart_titled(
            "max cold-aisle temperature (C)",
            &result.cold_aisle_max,
            100,
            7
        )
    );
    println!(
        "{}",
        plot::ascii_chart_titled("ACU power (kW)", &result.acu_power, 100, 7)
    );
    let path = export_csv(
        &csv_slug(&format!("{}_{}", figure, result.controller)),
        &[
            "hour",
            "setpoint_c",
            "inlet_c",
            "acu_power_kw",
            "cold_aisle_max_c",
            "limit_c",
        ],
        &[
            &hours,
            &result.setpoints,
            &result.inlet_avg,
            &result.acu_power,
            &result.cold_aisle_max,
            &limit,
        ],
    );
    println!("series written to {}", path.display());
}

/// Runs one controller through a standard evaluation episode.
pub fn run_standard_episode(
    controller: &mut dyn tesla_core::Controller,
    setting: tesla_workload::LoadSetting,
    minutes: usize,
    seed: u64,
) -> tesla_core::EvalResult {
    let cfg = tesla_core::EpisodeConfig {
        setting,
        minutes,
        warmup_minutes: 60,
        seed,
        ..tesla_core::EpisodeConfig::default()
    };
    tesla_core::run_episode(controller, &cfg).expect("episode")
}

#[cfg(test)]
mod tests {
    use super::*;
    use tesla_forecast::ModelConfig;

    #[test]
    fn traces_and_mape_protocol_smoke() {
        let (train, test) = train_test_traces(0.4, 0.2, 5);
        let cfg = ModelConfig {
            horizon: 6,
            ..ModelConfig::default()
        };
        let model = DcTimeSeriesModel::fit(&train, cfg).unwrap();
        let mape = temperature_mape_tesla(&model, &test, 23);
        assert!(mape.is_finite() && mape > 0.0 && mape < 50.0, "MAPE {mape}");
    }

    #[test]
    fn energy_dataset_shapes() {
        let (train, _) = train_test_traces(0.2, 0.1, 6);
        let (x, y) = energy_dataset(&train, 5, 7);
        assert_eq!(x.len(), y.len());
        assert!(!x.is_empty());
        assert_eq!(x[0].len(), 5 + 2 * 5);
        assert!(y.iter().all(|&e| e >= 0.0));
    }

    #[test]
    fn recursive_mape_protocols_agree_on_scale() {
        let (train, test) = train_test_traces(0.4, 0.2, 5);
        let ar = RecursiveAr::fit(&train, 2, 0.0).unwrap();
        let m_ar = temperature_mape_recursive(&ar, &test, 6, 29);
        assert!(
            m_ar.is_finite() && m_ar > 0.0 && m_ar < 50.0,
            "AR MAPE {m_ar}"
        );
        let mlp = RecursiveMlp::fit(
            &train,
            MlpConfig {
                hidden: vec![16],
                epochs: 3,
                seed: 2,
                ..MlpConfig::default()
            },
        );
        let m_mlp = temperature_mape_mlp(&mlp, &test, 6, 29);
        assert!(
            m_mlp.is_finite() && m_mlp > 0.0 && m_mlp < 80.0,
            "MLP MAPE {m_mlp}"
        );
    }

    #[test]
    fn recursive_mlp_rollout_shapes_and_sanity() {
        let (train, _) = train_test_traces(0.3, 0.1, 8);
        let mlp = RecursiveMlp::fit(
            &train,
            MlpConfig {
                hidden: vec![16],
                epochs: 4,
                seed: 1,
                ..MlpConfig::default()
            },
        );
        let window = train.window_at(train.len() - 10, 6).unwrap();
        let roll = mlp.predict_rollout(&window, &[23.0; 6]);
        assert_eq!(roll.len(), train.n_dc_sensors());
        assert_eq!(roll[0].len(), 6);
        for series in &roll {
            for v in series {
                assert!(v.is_finite());
                assert!(*v > -20.0 && *v < 80.0, "implausible temp {v}");
            }
        }
    }

    #[test]
    fn arg_parsing_default() {
        assert_eq!(arg_f64("nonexistent-flag", 2.5), 2.5);
    }

    #[test]
    fn csv_slug_is_shell_safe() {
        assert_eq!(csv_slug("Fig10_fixed-23C"), "fig10_fixed_23c");
        assert_eq!(csv_slug("Fig9_tesla"), "fig9_tesla");
        assert_eq!(csv_slug("Figure 11"), "figure_11");
        assert!(csv_slug("Fig12_tsrl")
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'));
    }

    #[test]
    fn csv_export_writes_file() {
        let p = export_csv("unit_test", &["a", "b"], &[&[1.0, 2.0], &[3.0, 4.0]]);
        let s = std::fs::read_to_string(&p).unwrap();
        assert!(s.starts_with("a,b\n1,3\n2,4"));
        let _ = std::fs::remove_file(p);
    }
}
