//! Property-based tests for the robustness layer: the telemetry health
//! monitor and the supervisor's degradation-ladder hysteresis.

use proptest::prelude::*;
use tesla::core::supervisor::{Rung, Supervisor, SupervisorConfig};
use tesla::core::{HealthConfig, HealthFault, HealthMonitor};
use tesla_units::Celsius;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A quarantined signal never reaches the forecaster: whatever the
    /// corruption (out-of-range, NaN), the sanitized stream stays finite,
    /// and while at least one peer is healthy the imputed value stays
    /// inside the plausible band.
    #[test]
    fn quarantined_signal_never_leaks_corruption(
        bad_idx in 0usize..4,
        base in 18.0f64..24.0,
        n_steps in 5usize..40,
        spike in 46.0f64..200.0,
        use_nan in proptest::bool::ANY,
    ) {
        let cfg = HealthConfig::default();
        let (lo, hi) = (cfg.min_value, cfg.max_value);
        let mut mon = HealthMonitor::new(4, cfg);
        let corrupt = if use_nan { f64::NAN } else { spike };
        for step in 0..n_steps {
            // Healthy peers wiggle deterministically; one signal lies.
            let mut row: Vec<f64> = (0..4)
                .map(|k| base + 0.3 * ((step + k) % 5) as f64)
                .collect();
            row[bad_idx] = corrupt;
            mon.sanitize(&mut row);
            for (k, &v) in row.iter().enumerate() {
                prop_assert!(v.is_finite(), "signal {k} not finite at step {step}");
                prop_assert!(
                    (lo..=hi).contains(&v),
                    "signal {k} = {v} outside [{lo}, {hi}] at step {step}"
                );
            }
            // The corrupted raw value itself must never survive.
            prop_assert!(row[bad_idx] != corrupt || corrupt.is_nan());
            prop_assert!(mon.is_quarantined(bad_idx));
        }
    }

    /// Nominal traces produce no false positives: in-band, non-flat
    /// signals are never quarantined and pass through unmodified.
    #[test]
    fn nominal_traces_are_never_quarantined(
        base in 16.0f64..28.0,
        amp in 0.05f64..3.0,
        n_signals in 1usize..8,
        n_steps in 2usize..60,
    ) {
        let mut mon = HealthMonitor::new(n_signals, HealthConfig::default());
        for step in 0..n_steps {
            let row: Vec<f64> = (0..n_signals)
                .map(|k| base + amp * (0.7 * step as f64 + k as f64).sin())
                .collect();
            let mut out = row.clone();
            let rep = mon.sanitize(&mut out);
            prop_assert!(rep.clean(), "false positive at step {step}: {rep:?}");
            prop_assert_eq!(&out, &row);
        }
        for k in 0..n_signals {
            prop_assert!(mon.fault(k).is_none());
        }
    }

    /// A flatlined sensor is caught even though every reading is in-band.
    #[test]
    fn flatline_is_caught_in_band(
        value in 18.0f64..22.0,
        window in 3usize..12,
    ) {
        let cfg = HealthConfig { flatline_window: window, ..HealthConfig::default() };
        let mut mon = HealthMonitor::new(2, cfg);
        for step in 0..window + 2 {
            let mut row = vec![value, 20.0 + 0.5 * (step % 3) as f64];
            mon.sanitize(&mut row);
        }
        prop_assert_eq!(mon.fault(0), Some(HealthFault::Flatline));
        prop_assert!(mon.fault(1).is_none());
    }

    /// Hysteresis: for ANY stress pattern, the ladder cannot oscillate
    /// faster than the escalate/recover streak lengths allow — each
    /// transition needs a fresh streak, so transitions are bounded by
    /// `steps / min(escalate_after, recover_after) + 1`.
    #[test]
    fn ladder_transition_rate_is_bounded(
        escalate_after in 2u32..5,
        recover_after in 4u32..12,
        pattern in proptest::collection::vec(proptest::bool::ANY, 10..120),
    ) {
        let mut sup = Supervisor::new(SupervisorConfig {
            escalate_after,
            recover_after,
            ..SupervisorConfig::default()
        });
        for (m, &stressed) in pattern.iter().enumerate() {
            let q = if stressed { 1.0 } else { 0.0 };
            sup.end_of_minute(m, q, Celsius::new(21.0), Celsius::new(23.0));
        }
        let min_streak = escalate_after.min(recover_after) as usize;
        let bound = pattern.len() / min_streak + 1;
        prop_assert!(
            sup.events().len() <= bound,
            "{} transitions over {} minutes exceeds bound {}",
            sup.events().len(), pattern.len(), bound
        );
        // Consecutive events must also alternate coherently: each event
        // starts where the previous one ended.
        for pair in sup.events().windows(2) {
            prop_assert_eq!(pair[0].to, pair[1].from);
        }
    }

    /// Stress that never persists `escalate_after` consecutive minutes
    /// can never move the ladder off Normal.
    #[test]
    fn sub_threshold_stress_never_escalates(
        escalate_after in 2u32..6,
        n_bursts in 1usize..20,
    ) {
        let mut sup = Supervisor::new(SupervisorConfig {
            escalate_after,
            recover_after: 8,
            ..SupervisorConfig::default()
        });
        let mut minute = 0;
        for _ in 0..n_bursts {
            // A burst one short of the threshold, then a clean minute.
            for _ in 0..escalate_after - 1 {
                sup.end_of_minute(minute, 1.0, Celsius::new(21.0), Celsius::new(23.0));
                minute += 1;
            }
            sup.end_of_minute(minute, 0.0, Celsius::new(21.0), Celsius::new(23.0));
            minute += 1;
        }
        prop_assert_eq!(sup.rung(), Rung::Normal);
        prop_assert!(sup.events().is_empty());
    }
}
