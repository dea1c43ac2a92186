//! Figure 8: how TESLA computes its optimal set-point.
//!
//! (a) the average server power over a medium-load episode, with two
//! marked time instants; (b) the Gaussian-process posterior mean of the
//! objective and constraint functions at those instants, from which the
//! optimizer picks the feasible maximizer.

use tesla_bench::{arg_f64, export_csv, print_table, train_test_traces, trained_tesla};
use tesla_core::{Controller, EpisodeConfig, Supervisor, SupervisorConfig, ZoneEpisode};
use tesla_workload::LoadSetting;

fn main() {
    let train_days = arg_f64("train-days", 3.0);
    let minutes = arg_f64("minutes", 720.0) as usize;
    eprintln!("training TESLA on a {train_days}-day sweep …");
    let (train, _) = train_test_traces(train_days, 0.1, 99);
    let mut tesla = trained_tesla(&train, 1);

    // Step the medium-load episode minute by minute so the BO posterior
    // can be captured at the two paper-marked instants (3.9 h and 7.2 h
    // scaled to the episode length).
    let cfg = EpisodeConfig {
        setting: LoadSetting::Medium,
        minutes,
        warmup_minutes: 60,
        seed: 88,
        ..EpisodeConfig::default()
    };
    let mark_a = (minutes as f64 * 3.9 / 12.0) as usize;
    let mark_b = (minutes as f64 * 7.2 / 12.0) as usize;

    let mut supervisor = Supervisor::new(SupervisorConfig::pass_through());
    let mut episode = ZoneEpisode::new(cfg.testbed().expect("testbed"), &cfg);
    episode.warmup().expect("warm-up");
    // (label, grid, objective mean, constraint mean, set-point) per marked minute.
    type Snapshot = (String, Vec<f64>, Vec<f64>, Vec<f64>, f64);
    let mut snapshots: Vec<Snapshot> = Vec::new();
    for m in 0..minutes {
        let sp = episode.decide(&mut supervisor, &mut tesla);
        if m == mark_a || m == mark_b {
            if let Some(out) = tesla.last_outcome() {
                snapshots.push((
                    format!("{:.1}h", m as f64 / 60.0),
                    out.grid.clone(),
                    out.objective_mean.clone(),
                    out.constraint_mean.clone(),
                    out.setpoint,
                ));
            }
        }
        episode
            .advance(m, sp, &mut supervisor, false)
            .expect("step");
    }
    let avg_power = episode.finish(tesla.name(), &supervisor).avg_server_power;
    let t_hours: Vec<f64> = (0..minutes).map(|m| m as f64 / 60.0).collect();

    let p_a = avg_power.get(mark_a).copied().unwrap_or(0.0);
    let p_b = avg_power.get(mark_b).copied().unwrap_or(0.0);
    print_table(
        "Figure 8a: average server power (medium load)",
        &["instant", "per-machine power (kW)", "paper marks (kW)"],
        &[
            vec![
                format!("{:.1} h", mark_a as f64 / 60.0),
                format!("{p_a:.3}"),
                "0.365".into(),
            ],
            vec![
                format!("{:.1} h", mark_b as f64 / 60.0),
                format!("{p_b:.3}"),
                "0.233".into(),
            ],
        ],
    );
    let path = export_csv(
        "fig8a_server_power",
        &["hour", "avg_server_power_kw"],
        &[&t_hours, &avg_power],
    );
    println!("series written to {}", path.display());

    for (label, grid, obj, con, chosen) in &snapshots {
        println!("\n== Figure 8b: GP posterior at {label} (chosen set-point {chosen:.1} C) ==");
        println!("{:>6}  {:>10}  {:>10}", "s (C)", "objective", "constraint");
        for i in (0..grid.len()).step_by(6) {
            println!("{:>6.1}  {:>10.3}  {:>10.3}", grid[i], obj[i], con[i]);
        }
        let name = format!("fig8b_posterior_{}", label.replace('.', "_"));
        let path = export_csv(
            &name,
            &["setpoint_c", "objective_mean", "constraint_mean"],
            &[grid, obj, con],
        );
        println!("series written to {}", path.display());
    }
    println!(
        "\npaper: negative-constraint region defines feasible set-points; the optimizer\n\
         picks the objective peak inside it, and the peak moves with server load."
    );
}
