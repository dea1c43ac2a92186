//! Golden test for the Lazic fleet's decision arithmetic.
//!
//! The fleet's determinism tests compare two runs of the same code (one
//! worker vs several, an uninterrupted run vs a resumed one), so a change
//! that moves every run the same way passes them all. This test pins the
//! outputs themselves to recorded bits.
//!
//! Two parts run:
//!
//! - A six-pod row with bleed, a binding site budget and two workers, so
//!   the coordinator's arbitration engages. Per zone the test records an
//!   FNV-1a hash over the executed set-points, one over the per-minute
//!   cold-aisle maxima, and the bits of the cooling energy.
//! - One controller with a non-default configuration (order 3, horizon
//!   4, and watched sensors `[3, 7, 40]`: not a prefix, and index 40 lies
//!   past the rack sensors) deciding on the last 12 prefixes of the
//!   training sweep. The sweep ends hot, so its limit is raised to
//!   26.5 °C: the decisions then mix the top of the search window, an
//!   interior set-point and the `S_min` backup. The test records the
//!   bits of each set-point.
//!
//! Any change to a floating-point result on either path changes a hash.

use tesla::core::dataset::{generate_sweep_trace, DatasetConfig};
use tesla::core::lazic::LazicConfig;
use tesla::core::{Controller, EpisodeConfig, LazicController};
use tesla::fleet::{Fleet, FleetConfig, FleetTopology};
use tesla::forecast::Trace;
use tesla::units::{Celsius, Kilowatts};

/// Pods in the fleet row.
const ZONES: usize = 6;

/// Decisions of the single controller: one per trailing prefix.
const DECISIONS: usize = 12;

/// Per zone: `(set-point hash, cold-aisle max hash, cooling energy bits)`.
const GOLDEN_FLEET: [(u64, u64, u64); ZONES] = [
    (0xac033dbf414f0794, 0xecd729297e92f865, 0x40042a559523b3cd),
    (0x8611d826da01ec97, 0x023abb43b005eeef, 0x40021e2d2888b174),
    (0x3b1bc1e287db986d, 0x662ec32b584d85ae, 0x40040fa07cb16b2c),
    (0xfc57c16f2b4140b7, 0x34cc938bbe8e1936, 0x4002a5917e07df0d),
    (0xfb8091a870cec0ac, 0x8fc568296f90f6cd, 0x400346efdb0e2e08),
    (0x028b0cd3e3c527fc, 0xc56bcb7876e068cd, 0x4002e77142e61247),
];

/// Executed set-point bits of the order-3 controller, per decision.
const GOLDEN_ORDER3: [u64; DECISIONS] = [
    0x4038000000000000,
    0x4039000000000000,
    0x403a000000000000,
    0x403b000000000000,
    0x403c000000000000,
    0x403d000000000000,
    0x403e000000000000,
    0x403f000000000000,
    0x4040000000000000,
    0x4040400000000000,
    0x4034000000000000,
    0x4034000000000000,
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

    fn floats(xs: &[f64]) -> u64 {
        let mut h = Fnv::new();
        h.word(xs.len() as u64);
        for x in xs {
            h.word(x.to_bits());
        }
        h.0
    }
}

fn sweep() -> Trace {
    generate_sweep_trace(&DatasetConfig {
        days: 0.3,
        seed: 1,
        ..DatasetConfig::default()
    })
    .expect("sweep generation")
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

fn fleet_outputs(trace: &Trace) -> (Vec<(u64, u64, u64)>, u64) {
    let config = FleetConfig {
        topology: FleetTopology::row(ZONES, Kilowatts::new(125.0), 0.4).expect("topology"),
        zone: EpisodeConfig {
            minutes: 60,
            warmup_minutes: 3,
            seed: 5,
            ..EpisodeConfig::default()
        },
        site_budget_kw: Kilowatts::new(7.5 * ZONES as f64),
        workers: 2,
        ..FleetConfig::default()
    };
    let controllers = (0..ZONES)
        .map(|_| {
            Box::new(LazicController::new(trace, LazicConfig::default()).expect("lazic fit"))
                as Box<dyn Controller + Send>
        })
        .collect();
    let report = Fleet::new(config, controllers, None)
        .expect("fleet")
        .run(60, None)
        .expect("run");
    let zones = report
        .zones
        .iter()
        .map(|z| {
            (
                Fnv::floats(&z.setpoints),
                Fnv::floats(&z.cold_aisle_max),
                z.cooling_energy_kwh.to_bits(),
            )
        })
        .collect();
    (zones, report.relaxations)
}

fn order3_decisions(trace: &Trace) -> Vec<u64> {
    let config = LazicConfig {
        order: 3,
        horizon: 4,
        cold_sensors: vec![3, 7, 40],
        d_allowed: Celsius::new(26.5),
        ..LazicConfig::default()
    };
    let mut ctrl = LazicController::new(trace, config).expect("lazic fit");
    let full = trace.len();
    let mut prefix = Trace::with_sensors(trace.n_acu_sensors(), trace.n_dc_sensors());
    for t in 0..full - DECISIONS {
        push_sample(&mut prefix, trace, t);
    }
    (full - DECISIONS..full)
        .map(|t| {
            push_sample(&mut prefix, trace, t);
            ctrl.decide(&prefix).to_bits()
        })
        .collect()
}

#[test]
fn lazic_fleet_matches_recorded_bits() {
    let trace = sweep();
    let (zones, relaxations) = fleet_outputs(&trace);
    assert!(relaxations > 0, "the site budget must bind");
    for (i, (got, want)) in zones.iter().zip(GOLDEN_FLEET.iter()).enumerate() {
        assert_eq!(
            got, want,
            "zone {i}: got ({:#018x}, {:#018x}, {:#018x}), recorded ({:#018x}, {:#018x}, {:#018x})",
            got.0, got.1, got.2, want.0, want.1, want.2
        );
    }

    let order3 = order3_decisions(&trace);
    for (i, (got, want)) in order3.iter().zip(GOLDEN_ORDER3.iter()).enumerate() {
        assert_eq!(
            got, want,
            "order-3 decision {i}: got {got:#018x}, recorded {want:#018x}"
        );
    }
}
