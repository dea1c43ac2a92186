//! Golden test for the fitted forecast models.
//!
//! `decide_golden.rs` pins TESLA's decisions, but at horizon 8 and only
//! through what the optimizer reads. This test pins the models
//! themselves at Table 2's horizon (`L = 20`, so the DCS design has 700
//! lag columns and 3 exogenous ones) and Lazic's default recursive AR
//! model: any change to a fitted weight or bias changes a hash.
//!
//! Both models are fitted on the same sweep as `decide_golden.rs`. At
//! each of the last four windows of the trace and three constant
//! set-points, the test hashes with FNV-1a the bits of TESLA's direct
//! prediction (power, inlet, rack sensors, energy), of its prepared
//! prediction, and of the AR model's rollout.

use tesla::core::dataset::{generate_sweep_trace, DatasetConfig};
use tesla::forecast::{DcTimeSeriesModel, ModelConfig, Prediction, RecursiveAr, Trace};
use tesla_units::Celsius;

/// FNV-1a of TESLA's direct and prepared predictions.
const GOLDEN_TESLA: u64 = 0xeaaa_fd6a_42be_8351;

/// FNV-1a of the recursive AR model's rollouts.
const GOLDEN_LAZIC: u64 = 0x728a_a0bd_df6c_2a17;

/// Windows per model: one per trailing index of the trace.
const WINDOWS: usize = 4;

/// Constant set-points, °C.
const SETPOINTS: [f64; 3] = [20.0, 24.5, 29.0];

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

    fn series(&mut self, rows: &[Vec<f64>]) {
        self.word(rows.len() as u64);
        for r in rows {
            self.floats(r);
        }
    }

    fn prediction(&mut self, p: &Prediction) {
        self.floats(&p.power);
        self.series(&p.inlet);
        self.series(&p.dc);
        self.word(p.energy.value().to_bits());
    }
}

fn sweep() -> Trace {
    generate_sweep_trace(&DatasetConfig {
        days: 0.6,
        seed: 11,
        ..DatasetConfig::default()
    })
    .expect("sweep generation")
}

#[test]
fn fitted_models_match_recorded_bits() {
    let trace = sweep();
    let config = ModelConfig::default();
    let l = config.horizon;
    let tesla = DcTimeSeriesModel::fit(&trace, config).expect("TESLA fit");
    let lazic = RecursiveAr::fit(&trace, 2, 0.0).expect("Lazic fit");

    let mut tesla_hash = Fnv::new();
    let mut lazic_hash = Fnv::new();
    for t in trace.len() - WINDOWS..trace.len() {
        let window = trace.window_at(t, l).expect("window");
        let prepared = tesla.prepare(&window).expect("prepare");
        for sp in SETPOINTS {
            let setpoint = Celsius::new(sp);
            tesla_hash.prediction(&tesla.predict(&window, setpoint).expect("predict"));
            tesla_hash.prediction(&prepared.predict(setpoint).expect("prepared predict"));
            let rollout = lazic
                .predict_rollout(&window, &vec![sp; l])
                .expect("rollout");
            lazic_hash.series(&rollout);
        }
    }
    for (name, got, want) in [
        ("TESLA", tesla_hash.0, GOLDEN_TESLA),
        ("Lazic", lazic_hash.0, GOLDEN_LAZIC),
    ] {
        assert_eq!(got, want, "{name}: got {got:#018x}, recorded {want:#018x}");
    }
}
