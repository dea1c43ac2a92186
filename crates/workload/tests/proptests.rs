//! Property-based tests for workload generation.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use tesla_workload::{DiurnalProfile, LoadController, LoadSetting, Orchestrator, Placement};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Per-server utilizations stay in [0, 1] and the cluster average
    /// approaches any reachable target, for both placement policies.
    #[test]
    fn orchestrator_tracks_targets(
        target in 0.05f64..0.8,
        n_servers in 2usize..30,
        consolidate in proptest::bool::ANY,
        seed in 0u64..500,
    ) {
        let placement = if consolidate { Placement::Consolidate } else { Placement::Spread };
        let mut orch = Orchestrator::with_placement(n_servers, placement);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..80 {
            let utils = orch.tick(60.0, target, &mut rng);
            prop_assert_eq!(utils.len(), n_servers);
            for u in utils {
                prop_assert!((0.0..=1.0).contains(u));
            }
        }
        let avg = orch.cluster_util();
        prop_assert!(
            (avg - target).abs() < 0.2,
            "avg {avg} should approach target {target}"
        );
    }

    /// Diurnal samples stay in [0, 1] for any period and setting.
    #[test]
    fn diurnal_samples_bounded(
        period_h in 0.5f64..48.0,
        which in 0usize..3,
        seed in 0u64..500,
    ) {
        let setting = LoadSetting::all()[which];
        let mut p = DiurnalProfile::new(setting, period_h * 3600.0);
        let mut rng = StdRng::seed_from_u64(seed);
        for m in 0..200 {
            let u = p.sample(m as f64 * 60.0, &mut rng);
            prop_assert!((0.0..=1.0).contains(&u));
        }
    }

    /// The base diurnal shape integrates to the setting's mean.
    #[test]
    fn diurnal_base_average_is_the_mean(which in 1usize..3, period_h in 2.0f64..24.0) {
        let setting = LoadSetting::all()[which];
        let p = DiurnalProfile::new(setting, period_h * 3600.0);
        let n = 2000;
        let avg: f64 = (0..n)
            .map(|i| p.base(i as f64 / n as f64 * period_h * 3600.0))
            .sum::<f64>()
            / n as f64;
        prop_assert!((avg - setting.mean_utilization()).abs() < 0.01);
    }

    /// Load controllers always finish on schedule and never report
    /// utilization outside [0, cores_fraction].
    #[test]
    fn load_controller_contract(
        cores in 0.05f64..1.0,
        level in 0.0f64..1.0,
        duration in 1.0f64..600.0,
        seed in 0u64..100,
    ) {
        let mut c = LoadController::new(cores, level, duration);
        let mut rng = StdRng::seed_from_u64(seed);
        let steps = duration.ceil() as usize + 2;
        for _ in 0..steps {
            let u = c.utilization();
            // The duty-cycle dither may overshoot the level by up to 5%.
            prop_assert!(u >= 0.0 && u <= cores * 1.05 + 1e-9, "util {u} cores {cores}");
            c.tick(1.0, &mut rng);
        }
        prop_assert!(c.finished());
        prop_assert_eq!(c.utilization(), 0.0);
    }
}
