//! Fleet-level invariants: worker-count determinism, single-zone
//! equivalence, budget-arbitration safety, and snapshot/resume
//! bit-identity.

use std::sync::Arc;
use tesla_core::dataset::{generate_sweep_trace, DatasetConfig};
use tesla_core::{
    run_supervised_episode, Controller, EpisodeConfig, LazicController, Supervisor,
    SupervisorConfig,
};
use tesla_fleet::{Fleet, FleetCheckpointPolicy, FleetConfig, FleetReport, FleetTopology};
use tesla_historian::{Historian, HistorianConfig, MetricStore};
use tesla_sim::{
    ActuatorFault, ActuatorFaultKind, FaultPlan, FaultWindow, SensorFault, SensorFaultKind,
    SensorTarget,
};
use tesla_units::{Kilowatts, ZoneId};

fn sweep_trace() -> tesla_forecast::Trace {
    generate_sweep_trace(&DatasetConfig {
        days: 0.25,
        seed: 42,
        ..Default::default()
    })
    .expect("sweep trace")
}

fn lazic_controllers(trace: &tesla_forecast::Trace, n: usize) -> Vec<Box<dyn Controller + Send>> {
    (0..n)
        .map(|_| {
            Box::new(LazicController::new(trace, Default::default()).expect("lazic fit"))
                as Box<dyn Controller + Send>
        })
        .collect()
}

/// A small-but-stateful TESLA config: resume crosses pending
/// predictions, the error monitor, the smoothing buffer, and online
/// retrains, so the snapshot test exercises the full state surface.
fn small_tesla_config() -> tesla_core::TeslaConfig {
    tesla_core::TeslaConfig {
        model: tesla_forecast::ModelConfig {
            horizon: 6,
            ..Default::default()
        },
        bo: tesla_bo::BoConfig {
            n_init: 4,
            n_iter: 1,
            n_mc: 16,
            n_grid: 11,
            ..Default::default()
        },
        n_bootstrap: 32,
        retrain_every: Some(5),
        retrain_min_history: 15,
        seed: 7,
        ..Default::default()
    }
}

fn small_config(n_zones: usize, minutes: usize, workers: usize) -> FleetConfig {
    FleetConfig {
        topology: FleetTopology::row(n_zones, Kilowatts::new(125.0), 0.4).unwrap(),
        zone: EpisodeConfig {
            minutes,
            warmup_minutes: 5,
            seed: 9,
            ..Default::default()
        },
        workers,
        ..Default::default()
    }
}

fn run_small(n_zones: usize, minutes: usize, workers: usize) -> FleetReport {
    let trace = sweep_trace();
    let fleet = Fleet::new(
        small_config(n_zones, minutes, workers),
        lazic_controllers(&trace, n_zones),
        None,
    )
    .expect("fleet");
    fleet.run(minutes, None).expect("run")
}

/// Satellite: a fleet episode with 1 worker and with N workers produces
/// bit-identical per-zone set-point sequences (same seeds).
#[test]
fn worker_count_does_not_change_zone_trajectories() {
    let serial = run_small(4, 6, 1);
    for workers in [2, 8] {
        let parallel = run_small(4, 6, workers);
        for (a, b) in serial.zones.iter().zip(&parallel.zones) {
            assert_eq!(a.setpoints, b.setpoints);
            assert_eq!(a.cold_aisle_max, b.cold_aisle_max);
            assert_eq!(a.acu_power, b.acu_power);
        }
        assert_eq!(
            serial.site_peak_kw.value().to_bits(),
            parallel.site_peak_kw.value().to_bits()
        );
    }
}

/// A one-zone fleet (no bleed edges, infinite budget) is bit-identical
/// to the plain single-zone supervised episode, with and without a fault
/// plan: the pod is built by the same constructor, so it honours
/// `EpisodeConfig::faults`. Warm-up is 5 minutes, so both fault windows
/// fall in metered minutes.
#[test]
fn one_zone_fleet_matches_the_single_zone_episode() {
    let trace = sweep_trace();
    let faulted = FaultPlan {
        actuators: vec![ActuatorFault {
            kind: ActuatorFaultKind::RejectedRegister,
            window: FaultWindow::new(6.0, 9.0),
        }],
        sensors: vec![SensorFault {
            target: SensorTarget::DcSensor(0),
            kind: SensorFaultKind::StuckAt(30.0),
            window: FaultWindow::new(7.0, 10.0),
        }],
        ..FaultPlan::default()
    };
    for faults in [FaultPlan::none(), faulted] {
        let zone_cfg = EpisodeConfig {
            minutes: 6,
            warmup_minutes: 5,
            seed: 9,
            faults,
            ..Default::default()
        };

        let mut solo = LazicController::new(&trace, Default::default()).expect("lazic fit");
        let mut supervisor = Supervisor::new(SupervisorConfig::default());
        let single =
            run_supervised_episode(&mut solo, &mut supervisor, &zone_cfg).expect("episode");

        let config = FleetConfig {
            topology: FleetTopology::row(1, Kilowatts::new(125.0), 0.0).unwrap(),
            zone: zone_cfg,
            ..Default::default()
        };
        let report = Fleet::new(config, lazic_controllers(&trace, 1), None)
            .expect("fleet")
            .run(6, None)
            .expect("run");

        assert_eq!(single.setpoints, report.zones[0].setpoints);
        assert_eq!(single.cold_aisle_max, report.zones[0].cold_aisle_max);
        assert_eq!(single.acu_power, report.zones[0].acu_power);
        assert_eq!(
            single.cooling_energy_kwh.to_bits(),
            report.zones[0].cooling_energy_kwh.to_bits()
        );
    }
}

/// A tight site budget activates arbitration, raises set-points only
/// upward, and introduces no thermal-safety violations the unarbitrated
/// fleet didn't have.
#[test]
fn budget_arbitration_relaxes_without_new_violations() {
    let trace = sweep_trace();
    let minutes = 8;

    let free = Fleet::new(
        small_config(2, minutes, 1),
        lazic_controllers(&trace, 2),
        None,
    )
    .expect("fleet")
    .run(minutes, None)
    .expect("run");
    assert_eq!(free.budget_exceeded_minutes, 0);

    let mut capped_cfg = small_config(2, minutes, 1);
    capped_cfg.site_budget_kw = Kilowatts::new(free.site_peak_kw.value() * 0.5);
    let capped = Fleet::new(capped_cfg, lazic_controllers(&trace, 2), None)
        .expect("fleet")
        .run(minutes, None)
        .expect("run");

    assert!(capped.budget_exceeded_minutes > 0, "budget must bind");
    assert!(capped.relaxations > 0, "arbitration must engage");
    // Relaxation only ever raises the executed set-point (minute 0 has
    // no site reading yet, so compare from minute 1 on).
    for (a, b) in free.zones.iter().zip(&capped.zones) {
        for (sa, sb) in a.setpoints.iter().zip(&b.setpoints).skip(1) {
            assert!(sb >= sa, "arbitrated {sb} below unarbitrated {sa}");
        }
    }
    assert!(capped.violation_minutes() <= free.violation_minutes());
}

/// Satellite: fleet snapshots restore to a bit-identical continuation,
/// and the historian carries zone-prefixed series.
#[test]
fn snapshot_resume_is_bit_identical() {
    let trace = sweep_trace();
    let minutes = 8;
    let dir = snapshot_dir("tesla_fleet_resume");
    let policy = FleetCheckpointPolicy {
        dir: dir.clone(),
        every_minutes: 4,
        keep: 2,
    };

    let controllers =
        || tesla_fleet::shared_tesla_controllers(&trace, &small_tesla_config(), 2).expect("fit");

    // Uninterrupted reference run.
    let full = Fleet::new(small_config(2, minutes, 1), controllers(), None)
        .expect("fleet")
        .run(minutes, None)
        .expect("run");

    // Crash after 5 minutes (snapshot landed at minute 4).
    let mut crashed = Fleet::new(small_config(2, minutes, 1), controllers(), None).expect("fleet");
    for _ in 0..5 {
        crashed.step_minute().expect("step");
        if crashed.minute().is_multiple_of(policy.every_minutes) {
            crashed.write_snapshot(&policy).expect("snapshot");
        }
    }
    drop(crashed);

    let store: Arc<dyn MetricStore> = Arc::new(Historian::in_memory(HistorianConfig::default()));
    let resumed = Fleet::resume(
        small_config(2, minutes, 1),
        controllers(),
        Some(Arc::clone(&store)),
        &policy,
    )
    .expect("resume");
    assert_eq!(resumed.minute(), 4, "restored at the snapshot cursor");
    let report = resumed.run(minutes, None).expect("run");

    for (a, b) in full.zones.iter().zip(&report.zones) {
        assert_eq!(a.setpoints, b.setpoints);
        assert_eq!(a.cold_aisle_max, b.cold_aisle_max);
    }
    // Zone-prefixed historian series from the replay + continuation.
    let z1 = ZoneId::new(1);
    assert_eq!(store.len(&z1.series("setpoint_c")), minutes);
    assert!(store.last(&z1.series("acu.power_kw")).unwrap() > 0.0);
    assert_eq!(store.len("site.power_kw"), minutes);

    let _ = std::fs::remove_dir_all(&dir);
}

/// Lazic's search window is centred on its previous decision, so a
/// resumed zone must restart from the saved centre, not from the cold
/// start set-point.
#[test]
fn lazic_snapshot_resume_is_bit_identical() {
    let trace = sweep_trace();
    let minutes = 26;
    let config = || {
        let mut c = small_config(3, minutes, 1);
        c.zone.seed = 5;
        c
    };
    let policy = FleetCheckpointPolicy {
        dir: snapshot_dir("tesla_fleet_lazic_resume"),
        every_minutes: 20,
        keep: 2,
    };

    let full = Fleet::new(config(), lazic_controllers(&trace, 3), None)
        .expect("fleet")
        .run(minutes, None)
        .expect("run");

    // Crash at minute 21 (snapshot landed at minute 20).
    let mut crashed = Fleet::new(config(), lazic_controllers(&trace, 3), None).expect("fleet");
    for _ in 0..21 {
        crashed.step_minute().expect("step");
        if crashed.minute().is_multiple_of(policy.every_minutes) {
            crashed.write_snapshot(&policy).expect("snapshot");
        }
    }
    drop(crashed);

    let resumed =
        Fleet::resume(config(), lazic_controllers(&trace, 3), None, &policy).expect("resume");
    assert_eq!(resumed.minute(), 20, "restored at the snapshot cursor");
    let report = resumed.run(minutes, None).expect("run");

    for (i, (a, b)) in full.zones.iter().zip(&report.zones).enumerate() {
        assert_eq!(a.setpoints, b.setpoints, "zone {i} set-points");
        assert_eq!(a.cold_aisle_max, b.cold_aisle_max, "zone {i} cold aisle");
    }
    let _ = std::fs::remove_dir_all(&policy.dir);
}

/// A fresh snapshot directory under the system temp dir.
fn snapshot_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "{tag}_{}_{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ))
}

/// With no snapshot on disk, resume is a cold start at cursor 0.
#[test]
fn resume_without_snapshots_cold_starts() {
    let trace = sweep_trace();
    let dir = std::env::temp_dir().join(format!("tesla_fleet_cold_{}", std::process::id()));
    let policy = FleetCheckpointPolicy {
        dir: dir.clone(),
        every_minutes: 4,
        keep: 2,
    };
    let fleet = Fleet::resume(
        small_config(1, 4, 1),
        lazic_controllers(&trace, 1),
        None,
        &policy,
    )
    .expect("resume");
    assert_eq!(fleet.minute(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Neighbour bleed couples zone trajectories: an asymmetric-load pair
/// with a bleed edge diverges from the same pair with the edge removed,
/// while an uncoupled fleet's zones match independent episodes.
#[test]
fn bleed_edges_couple_zone_trajectories() {
    let trace = sweep_trace();
    let minutes = 6;

    let mut coupled_cfg = small_config(2, minutes, 1);
    coupled_cfg.topology = FleetTopology::row(2, Kilowatts::new(125.0), 5.0).unwrap();
    let coupled = Fleet::new(coupled_cfg, lazic_controllers(&trace, 2), None)
        .expect("fleet")
        .run(minutes, None)
        .expect("run");

    let mut uncoupled_cfg = small_config(2, minutes, 1);
    uncoupled_cfg.topology = FleetTopology::row(2, Kilowatts::new(125.0), 0.0).unwrap();
    let uncoupled = Fleet::new(uncoupled_cfg, lazic_controllers(&trace, 2), None)
        .expect("fleet")
        .run(minutes, None)
        .expect("run");

    // Zones 0 and 1 run different seeds, so their hot aisles differ and
    // a strong bleed edge must perturb the thermal trajectory.
    assert_ne!(
        coupled.zones[0].cold_aisle_max,
        uncoupled.zones[0].cold_aisle_max
    );

    // With the edge removed, each zone must exactly reproduce a solo
    // single-zone episode run at the zone-derived seed.
    let z1_cfg = EpisodeConfig {
        seed: tesla_fleet::zone_seed(9, ZoneId::new(1)),
        minutes,
        warmup_minutes: 5,
        ..Default::default()
    };
    let mut solo = LazicController::new(&trace, Default::default()).expect("lazic fit");
    let mut supervisor = Supervisor::new(SupervisorConfig::default());
    let single = run_supervised_episode(&mut solo, &mut supervisor, &z1_cfg).expect("episode");
    assert_eq!(single.setpoints, uncoupled.zones[1].setpoints);
    assert_eq!(single.cold_aisle_max, uncoupled.zones[1].cold_aisle_max);
}
