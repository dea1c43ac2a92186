//! Golden test for TESLA's decision arithmetic.
//!
//! The other determinism tests compare two paths through the same code
//! (serial vs batched, one worker vs four) or two runs of it, so a change
//! that moves every path the same way passes them all. This test pins the
//! decisions themselves: it trains on a fixed sweep, decides on the last
//! 12 prefixes of the trace, and compares each decision with recorded
//! bits.
//!
//! Two optimizers run. One uses Table 2's `BoConfig` (a 61-point grid
//! whose spacing of 0.25 °C is exact in binary, 64 QMC draws, 5
//! iterations). The other uses a 14-point grid, whose spacing of 15/13 is
//! not exact, so the candidate distances take the general path.
//!
//! Per decision the test records the bits of the executed set-point and
//! an FNV-1a hash over the bits of the optimizer's outcome: the set-point,
//! the fallback flag, every evaluated triple, the grid and both posterior
//! means. Any change to a floating-point result anywhere in the decide
//! path changes a hash.

use tesla::bo::{BoConfig, BoOutcome};
use tesla::core::dataset::{generate_sweep_trace, DatasetConfig};
use tesla::core::{Controller, TeslaConfig, TeslaController};
use tesla::forecast::{DcTimeSeriesModel, ModelConfig, Trace};

/// Decisions per optimizer: one per trailing prefix of the trace.
const DECISIONS: usize = 12;

/// Table 2 grid: `(executed set-point bits, outcome hash)` per decision.
const GOLDEN_TABLE2: [(u64, u64); DECISIONS] = [
    (0x4039a00000000000, 0x162761cb47b6b3bc),
    (0x4039857b69dfdb80, 0x19324fabc24466da),
    (0x4039737dbbb0387f, 0xf77c20c79cfb0ca5),
    (0x403963d8e242c9bd, 0x0fa1ad9bb9cac3d4),
    (0x40394d125aa03f3c, 0x9290b0c3a9132d1c),
    (0x403926ec3962bcdb, 0x2b139292d133550f),
    (0x4039065b63c81bea, 0x6860a556a56450ce),
    (0x4038e7bc0585998e, 0xb6f88e855b2a0e59),
    (0x4038c5ac2eb020a9, 0xaed6eac697530bf9),
    (0x4038aa8ff5234f26, 0xa808ea9c8dd0a4d7),
    (0x403897d3cb145b52, 0x2aded5005954ac14),
    (0x40388575a4213f5e, 0x91bd55ff7a54d048),
];

/// 14-point grid: `(executed set-point bits, outcome hash)` per decision.
const GOLDEN_GRID14: [(u64, u64); DECISIONS] = [
    (0x4039a00000000000, 0x134af71a08f9a73f),
    (0x4039857b69dfdb80, 0x00f304905f60fd3b),
    (0x4039737dbbb0387f, 0xf23300426b5c9871),
    (0x403963d8e242c9bd, 0x27a3f3bb32b73c8b),
    (0x40394d125aa03f3c, 0xf4b28af63414ed71),
    (0x403926ec3962bcdb, 0x47502e2cf64e3c5a),
    (0x4039065b63c81bea, 0x5aa6ead545aaaadf),
    (0x4038e7bc0585998e, 0x7c019d82e7df3936),
    (0x4038c5ac2eb020a9, 0xde5b0ff73877dc57),
    (0x4038aa8ff5234f26, 0xa4e7efd73b712698),
    (0x403897d3cb145b52, 0xf331cc89b728e0b3),
    (0x40388575a4213f5e, 0xd5880ccd881d7245),
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

fn outcome_hash(o: &BoOutcome) -> u64 {
    let mut h = Fnv::new();
    h.word(o.setpoint.to_bits());
    h.word(u64::from(o.fallback));
    h.word(o.evaluated.len() as u64);
    for &(s, obj, con) in &o.evaluated {
        h.word(s.to_bits());
        h.word(obj.to_bits());
        h.word(con.to_bits());
    }
    h.floats(&o.grid);
    h.floats(&o.objective_mean);
    h.floats(&o.constraint_mean);
    h.0
}

/// Appends sample `t` of `src` to `dst`.
fn push_sample(dst: &mut Trace, src: &Trace, t: usize) {
    let inlet: Vec<f64> = src.acu_inlet.iter().map(|c| c[t]).collect();
    let dc: Vec<f64> = src.dc_temps.iter().map(|c| c[t]).collect();
    dst.push(
        src.avg_power[t],
        &inlet,
        &dc,
        src.setpoint[t],
        src.acu_energy[t],
        src.acu_power[t],
    );
}

/// Runs one controller over the last [`DECISIONS`] prefixes of `trace`.
fn decisions(model: &DcTimeSeriesModel, trace: &Trace, bo: BoConfig) -> Vec<(u64, u64)> {
    let config = TeslaConfig {
        model: ModelConfig {
            horizon: 8,
            ..ModelConfig::default()
        },
        bo,
        n_bootstrap: 64,
        ..TeslaConfig::default()
    };
    let mut ctrl = TeslaController::with_model(model.clone(), config).expect("controller");
    let full = trace.len();
    let mut prefix = Trace::with_sensors(trace.n_acu_sensors(), trace.n_dc_sensors());
    for t in 0..full - DECISIONS {
        push_sample(&mut prefix, trace, t);
    }
    (full - DECISIONS..full)
        .map(|t| {
            push_sample(&mut prefix, trace, t);
            let executed = ctrl.decide(&prefix);
            let outcome = ctrl.last_outcome().expect("the optimizer ran");
            (executed.to_bits(), outcome_hash(outcome))
        })
        .collect()
}

#[test]
fn decisions_match_recorded_bits() {
    let trace = generate_sweep_trace(&DatasetConfig {
        days: 0.6,
        seed: 11,
        ..DatasetConfig::default()
    })
    .expect("sweep generation");
    let model = DcTimeSeriesModel::fit(
        &trace,
        ModelConfig {
            horizon: 8,
            ..ModelConfig::default()
        },
    )
    .expect("model fit");

    let table2 = decisions(&model, &trace, BoConfig::default());
    let grid14 = decisions(
        &model,
        &trace,
        BoConfig {
            n_grid: 14,
            ..BoConfig::default()
        },
    );
    for (name, got, want) in [
        ("Table 2 grid", &table2, &GOLDEN_TABLE2),
        ("14-point grid", &grid14, &GOLDEN_GRID14),
    ] {
        assert_eq!(got.len(), want.len(), "{name}: decision count");
        for (i, (g, w)) in got.iter().zip(want.iter()).enumerate() {
            assert_eq!(
                g, w,
                "{name}, decision {i}: got ({:#018x}, {:#018x}), recorded ({:#018x}, {:#018x})",
                g.0, g.1, w.0, w.1
            );
        }
    }
}
