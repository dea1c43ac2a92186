//! Workspace-level property-based tests on cross-crate invariants.

use proptest::prelude::*;
use tesla::core::SmoothingBuffer;
use tesla::sim::{SimConfig, Testbed};
use tesla_units::Celsius;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The smoothing buffer's output always lies inside the convex hull
    /// of its inputs (it is an average), for any input stream.
    #[test]
    fn smoothing_output_in_input_hull(
        n in 1usize..8,
        inputs in proptest::collection::vec(20.0f64..35.0, 1..40),
    ) {
        let mut buf = SmoothingBuffer::new(n);
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for v in inputs {
            lo = lo.min(v);
            hi = hi.max(v);
            let out = buf.push(v);
            prop_assert!(out >= lo - 1e-12 && out <= hi + 1e-12);
        }
    }

    /// The testbed never produces non-finite telemetry, for any valid
    /// utilization vector and set-point.
    #[test]
    fn testbed_outputs_are_finite(
        seed in 0u64..50,
        sp in 20.0f64..35.0,
        util in 0.0f64..1.0,
    ) {
        let sim = SimConfig::default();
        let mut tb = Testbed::new(sim.clone(), seed).unwrap();
        tb.write_setpoint(Celsius::new(sp));
        let utils = vec![util; sim.n_servers];
        for _ in 0..5 {
            let obs = tb.step_sample(&utils).unwrap();
            prop_assert!(obs.acu_power_kw.is_finite() && obs.acu_power_kw >= 0.0);
            prop_assert!(obs.cold_aisle_max.is_finite());
            prop_assert!(obs.acu_energy_kwh >= 0.0);
            for v in obs.dc_temps.iter().chain(&obs.acu_inlet_temps) {
                prop_assert!(v.is_finite());
            }
        }
    }

    /// Energy conservation-ish sanity: over a sampling period, energy in
    /// kWh is bounded by the max instantaneous power times the period.
    #[test]
    fn energy_bounded_by_power_envelope(seed in 0u64..30, util in 0.0f64..1.0) {
        let sim = SimConfig::default();
        let mut tb = Testbed::new(sim.clone(), seed).unwrap();
        tb.write_setpoint(Celsius::new(22.0));
        let utils = vec![util; sim.n_servers];
        for _ in 0..5 {
            let obs = tb.step_sample(&utils).unwrap();
            // Max ACU power is bounded by fan + base + Qmax/COPfloor ≈ 6 kW.
            prop_assert!(obs.acu_energy_kwh <= 6.0 / 60.0 + 1e-9);
        }
    }
}
