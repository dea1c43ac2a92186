//! Figure 2: ACU power time series with the set-point fixed at 27 °C.
//!
//! The paper's point: even under a constant set-point, server-power
//! fluctuation makes the PID modulate the compressor, so instantaneous
//! ACU power varies by hundreds of watts — which is why TESLA models
//! horizon *energy* rather than instantaneous power (§2.2).

use rand::rngs::StdRng;
use rand::SeedableRng;
use tesla_bench::{export_csv, print_table};
use tesla_sim::{SimConfig, Testbed};
use tesla_units::Celsius;
use tesla_workload::{DiurnalProfile, LoadSetting, Orchestrator};

fn main() {
    let minutes = tesla_bench::arg_f64("minutes", 200.0) as usize;
    let sim = SimConfig::default();
    let mut tb = Testbed::new(sim.clone(), 42).expect("testbed");
    let mut orch = Orchestrator::new(sim.n_servers);
    let mut profile = DiurnalProfile::new(LoadSetting::Medium, minutes as f64 * 60.0);
    let mut rng = StdRng::seed_from_u64(7);

    tb.write_setpoint(Celsius::new(27.0));
    // Settle at mid-profile load so the compressor is actively modulating.
    let mid = minutes as f64 * 30.0;
    let warm_target = profile.sample(mid, &mut rng);
    let utils = orch.tick(60.0, warm_target, &mut rng);
    tb.warm_up(utils, 180).expect("warm-up");

    let mut t_min = Vec::with_capacity(minutes);
    let mut power = Vec::with_capacity(minutes);
    for m in 0..minutes {
        let target = profile.sample(mid + m as f64 * 60.0, &mut rng);
        let utils = orch.tick(60.0, target, &mut rng);
        let obs = tb.step_sample(utils).expect("step");
        t_min.push(m as f64);
        power.push(obs.acu_power_kw);
    }

    let mean = tesla_linalg::stats::mean(&power);
    let min = power.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = power.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let std = tesla_linalg::stats::std_dev(&power);

    print_table(
        "Figure 2: ACU power with set-point fixed at 27 C (medium load)",
        &["metric", "value"],
        &[
            vec!["samples (min)".into(), format!("{minutes}")],
            vec!["mean power (kW)".into(), format!("{mean:.3}")],
            vec!["min power (kW)".into(), format!("{min:.3}")],
            vec!["max power (kW)".into(), format!("{max:.3}")],
            vec!["std (kW)".into(), format!("{std:.3}")],
            vec!["band (max-min, kW)".into(), format!("{:.3}", max - min)],
        ],
    );
    println!(
        "\npaper: power varies between ~2 and ~3 kW at a constant 27 C set-point;\n\
         reproduction target: a clearly nonzero band under constant set-point."
    );
    let path = export_csv(
        "fig2_acu_power",
        &["minute", "acu_power_kw"],
        &[&t_min, &power],
    );
    println!("series written to {}", path.display());
}
