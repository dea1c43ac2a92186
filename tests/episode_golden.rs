//! Golden test for the closed-loop episode runner behind Table 5,
//! Figs. 9–12 and the ablations.
//!
//! The other episode tests assert properties (fixed 23 °C is safe, Lazic
//! saves energy) or compare two runs of the same code, so a change that
//! moves every run the same way passes them. This test pins the episodes
//! themselves: it trains each of Table 5's four controllers on a fixed
//! sweep, runs one 120-minute episode per controller across the idle,
//! medium and high settings, and compares an FNV-1a hash of the result
//! with recorded bits.
//!
//! The hash covers the executed set-points, cooling energy, interruption,
//! server energy and metering mark, the per-minute inlet, ACU power and
//! server power, every column of the trace, and the sensor-reported
//! thermal-safety violation (TSV): the share of metered minutes in which
//! the cold-aisle sensors in the trace read above 22 °C. The test counts
//! that TSV from the trace itself, so it does not depend on which
//! cold-aisle signal `EvalResult` reports.

use tesla::core::dataset::{generate_sweep_trace, DatasetConfig};
use tesla::core::lazic::LazicConfig;
use tesla::core::{
    run_episode, Controller, EpisodeConfig, EvalResult, FixedController, LazicController,
    TeslaConfig, TeslaController, TsrlConfig, TsrlController,
};
use tesla::forecast::Trace;
use tesla::workload::LoadSetting;
use tesla_units::Celsius;

/// Metered minutes per episode.
const MINUTES: usize = 120;

/// Per episode: `(controller, result hash, sensor violation minutes)`.
const GOLDEN: [(&str, u64, usize); 4] = [
    ("fixed-23C", 0x5eb169e509af6c7f, 0),
    ("lazic", 0xa7d7398212fb4475, 30),
    ("tsrl", 0xa41a4c06a68ee488, 119),
    ("tesla", 0xb9739da1bfa6a558, 0),
];

/// FNV-1a over the little-endian bytes of a sequence of words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn floats(&mut self, xs: &[f64]) {
        self.word(xs.len() as u64);
        for x in xs {
            self.word(x.to_bits());
        }
    }
}

/// Metered minutes in which a cold-aisle sensor of the trace (the first
/// `n_cold` rack columns) reads above `limit`.
fn sensor_violation_minutes(trace: &Trace, from: usize, n_cold: usize, limit: f64) -> usize {
    (from..trace.len())
        .filter(|&t| trace.dc_temps[..n_cold].iter().any(|col| col[t] > limit))
        .count()
}

fn result_hash(r: &EvalResult, violations: usize) -> u64 {
    let mut h = Fnv::new();
    h.floats(&r.setpoints);
    h.word(r.cooling_energy_kwh.to_bits());
    h.word(r.ci_percent.to_bits());
    h.word(r.server_energy_kwh.to_bits());
    h.word(r.metered_from as u64);
    h.floats(&r.inlet_avg);
    h.floats(&r.acu_power);
    h.floats(&r.avg_server_power);
    let t = &r.trace;
    h.floats(&t.avg_power);
    for col in t.acu_inlet.iter().chain(&t.dc_temps) {
        h.floats(col);
    }
    h.floats(&t.setpoint);
    h.floats(&t.acu_energy);
    h.floats(&t.acu_power);
    let tsv = 100.0 * violations as f64 / r.setpoints.len().max(1) as f64;
    h.word(tsv.to_bits());
    h.0
}

#[test]
fn episodes_match_recorded_bits() {
    let train = generate_sweep_trace(&DatasetConfig {
        days: 0.6,
        seed: 11,
        ..DatasetConfig::default()
    })
    .expect("sweep generation");
    let tesla = TeslaConfig {
        seed: 1,
        ..TeslaConfig::default()
    };
    // A fresh controller per episode: a reused one carries state across.
    let runs: [(Box<dyn Controller>, LoadSetting); 4] = [
        (
            Box::new(FixedController::new(Celsius::new(23.0))),
            LoadSetting::High,
        ),
        (
            Box::new(LazicController::new(&train, LazicConfig::default()).expect("Lazic")),
            LoadSetting::Idle,
        ),
        (
            Box::new(TsrlController::new(&train, TsrlConfig::default()).expect("TSRL")),
            LoadSetting::Medium,
        ),
        (
            Box::new(TeslaController::new(&train, tesla).expect("TESLA")),
            LoadSetting::Medium,
        ),
    ];

    let mut got = Vec::new();
    for (i, (mut ctrl, setting)) in runs.into_iter().enumerate() {
        let cfg = EpisodeConfig {
            setting,
            minutes: MINUTES,
            warmup_minutes: 60,
            seed: 1000 + i as u64,
            ..EpisodeConfig::default()
        };
        let r = run_episode(ctrl.as_mut(), &cfg).expect("episode");
        let n_cold = cfg.sim.n_cold_aisle_sensors;
        let violations =
            sensor_violation_minutes(&r.trace, r.metered_from, n_cold, cfg.d_allowed.value());
        let hash = result_hash(&r, violations);
        got.push((r.controller, hash, violations));
    }
    assert_eq!(got.len(), GOLDEN.len(), "episode count");
    for (g, w) in got.iter().zip(GOLDEN.iter()) {
        assert_eq!(g.0, w.0, "controller order");
        assert_eq!(
            (g.1, g.2),
            (w.1, w.2),
            "{}: got ({:#018x}, {}), recorded ({:#018x}, {})",
            g.0,
            g.1,
            g.2,
            w.1,
            w.2
        );
    }
    assert!(
        got.iter().any(|g| g.2 > 0),
        "no episode's sensors crossed the limit, so the sensor TSV goes unpinned"
    );
}
