//! The fleet runner: N zone actors stepped in lock-step control minutes
//! under the site coordinator.
//!
//! One fleet control minute has four phases:
//!
//! 1. **decide** (parallel) — every zone runs its supervised decision
//!    over its own sanitized trace;
//! 2. **arbitrate** (serial) — the [`FleetCoordinator`] turns proposals
//!    into executable set-points under the site power budget;
//! 3. **advance** (parallel) — every zone executes its arbitrated
//!    set-point and steps its pod's physics one sampling period;
//! 4. **bleed** (serial) — hot-aisle heat is exchanged pairwise along
//!    the topology's edges from a single temperature snapshot, so the
//!    exchange is symmetric, energy-conserving, and independent of edge
//!    order.
//!
//! The parallel phases run zone-local state only and write results into
//! per-zone slots, so the fleet trajectory is bit-identical for any
//! worker count; the serial phases are the only cross-zone couplings and
//! they are deterministic by construction.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use tesla_core::{
    Checkpoint, CheckpointStore, Controller, EpisodeConfig, EvalResult, StatusBoard,
    SupervisorConfig,
};
use tesla_historian::MetricStore;
use tesla_units::{Celsius, KilowattHours, Kilowatts, ZoneId};

use crate::actor::{zone_seed, ZoneActor};
use crate::coordinator::{CoordinatorConfig, FleetCoordinator};
use crate::scheduler::run_sharded;
use crate::topology::FleetTopology;
use crate::FleetError;

/// Everything needed to stand up a fleet.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// The site's pods and bleed graph.
    pub topology: FleetTopology,
    /// Per-zone episode template. `zone.seed` is the fleet's base seed;
    /// each zone runs with the [`zone_seed`]-derived variant (zone 0
    /// keeps the base).
    pub zone: EpisodeConfig,
    /// Per-zone supervisor (degradation-ladder) settings.
    pub supervisor: SupervisorConfig,
    /// Site electrical budget (IT + cooling). Infinite disables
    /// arbitration entirely.
    pub site_budget_kw: Kilowatts,
    /// Coordinator arbitration-policy knobs.
    pub coordinator: CoordinatorConfig,
    /// Scheduler worker threads for the parallel phases (`<= 1` steps
    /// zones serially on the caller's thread).
    pub workers: usize,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            topology: FleetTopology::reference_site(),
            zone: EpisodeConfig::default(),
            supervisor: SupervisorConfig::default(),
            site_budget_kw: Kilowatts::new(f64::INFINITY),
            coordinator: CoordinatorConfig::default(),
            workers: 1,
        }
    }
}

/// Periodic fleet snapshots: per-zone control-plane checkpoints plus the
/// coordinator's arbitration state, written under one root directory.
#[derive(Debug, Clone)]
pub struct FleetCheckpointPolicy {
    /// Snapshot root; zone `z` checkpoints live in `<dir>/z<z>/`.
    pub dir: PathBuf,
    /// Snapshot every this-many metered minutes.
    pub every_minutes: usize,
    /// Checkpoints retained per zone.
    pub keep: usize,
}

/// What a finished (or aborted-and-sealed) fleet episode produced.
#[derive(Debug)]
pub struct FleetReport {
    /// Per-zone episode results, in zone order.
    pub zones: Vec<EvalResult>,
    /// Highest one-minute site draw observed.
    pub site_peak_kw: Kilowatts,
    /// Total site electrical energy over the metered episode.
    pub site_energy_kwh: KilowattHours,
    /// Minutes the site spent over budget.
    pub budget_exceeded_minutes: u64,
    /// Zone-minutes of coordinator relaxation applied.
    pub relaxations: u64,
    /// Metered minutes completed.
    pub minutes: usize,
}

impl FleetReport {
    /// Total thermal-safety violation minutes across all zones (scored
    /// on ground truth, like the single-zone TSV metric).
    pub fn violation_minutes(&self) -> u64 {
        self.zones
            .iter()
            .map(|z| (z.tsv_percent / 100.0 * self.minutes as f64).round() as u64)
            .sum()
    }
}

/// The fleet: zone actors, the coordinator, and the shared services
/// (historian, scheduler) stepping them in lock-step control minutes.
pub struct Fleet {
    config: FleetConfig,
    actors: Vec<Mutex<ZoneActor>>,
    coordinator: FleetCoordinator,
    historian: Option<Arc<dyn MetricStore>>,
    minute: usize,
    last_site_power: Kilowatts,
    site_peak_kw: f64,
    site_energy_kwh: f64,
}

impl Fleet {
    /// Builds and warms up the fleet: one actor per pod (zone-derived
    /// seeds), one controller per zone (build them against a shared
    /// fitted model — see [`crate::shared_tesla_controllers`] — so the
    /// expensive offline fit happens once), and the coordinator sized to
    /// the topology. Warm-up runs across the scheduler.
    pub fn new(
        config: FleetConfig,
        controllers: Vec<Box<dyn Controller + Send>>,
        historian: Option<Arc<dyn MetricStore>>,
    ) -> Result<Self, FleetError> {
        let n = config.topology.n_zones();
        if controllers.len() != n {
            return Err(FleetError::Config(format!(
                "{} controllers supplied for a {n}-zone site",
                controllers.len()
            )));
        }
        let coordinator = FleetCoordinator::new(
            config.coordinator.clone(),
            n,
            config.site_budget_kw,
            config.zone.d_allowed,
        );
        let mut actors = Vec::with_capacity(n);
        for (i, controller) in controllers.into_iter().enumerate() {
            let zone = ZoneId::new(i);
            let mut zone_cfg = config.zone.clone();
            zone_cfg.seed = zone_seed(config.zone.seed, zone);
            actors.push(Mutex::new(ZoneActor::new(
                zone,
                zone_cfg,
                controller,
                config.supervisor.clone(),
                historian.clone(),
            )?));
        }
        let mut fleet = Fleet {
            config,
            actors,
            coordinator,
            historian,
            minute: 0,
            last_site_power: Kilowatts::new(0.0),
            site_peak_kw: 0.0,
            site_energy_kwh: 0.0,
        };
        fleet.for_each_zone(|actor| actor.warmup())?;
        Ok(fleet)
    }

    /// Number of zones on the site.
    pub fn n_zones(&self) -> usize {
        self.actors.len()
    }

    /// Metered minutes completed so far.
    pub fn minute(&self) -> usize {
        self.minute
    }

    /// The coordinator (budget/relaxation inspection).
    pub fn coordinator(&self) -> &FleetCoordinator {
        &self.coordinator
    }

    /// Each zone's status board, for zone-scoped `STATUS` readback
    /// through the network service.
    pub fn status_boards(&self) -> Vec<(ZoneId, Arc<StatusBoard>)> {
        self.actors
            .iter()
            .map(|a| {
                let actor = a.lock().expect("zone lock");
                (actor.zone(), actor.status_board())
            })
            .collect()
    }

    /// Executed set-points of `zone` so far, °C.
    // lint:allow(no-raw-f64-in-public-api): bulk series mirroring EvalResult's raw trace
    pub fn zone_setpoints(&self, zone: ZoneId) -> Vec<f64> {
        self.actors[zone.index()]
            .lock()
            .expect("zone lock")
            .setpoints()
            .to_vec()
    }

    fn for_each_zone(
        &mut self,
        f: impl Fn(&mut ZoneActor) -> Result<(), FleetError> + Sync,
    ) -> Result<(), FleetError> {
        let workers = self.config.workers;
        let actors = &self.actors;
        run_sharded(workers, actors.len(), |i| {
            f(&mut actors[i].lock().expect("zone lock"))
        })
        .into_iter()
        .collect()
    }

    /// Advances the whole site one control minute (phases 1–4).
    pub fn step_minute(&mut self) -> Result<(), FleetError> {
        let minute = self.minute;
        let whole = Instant::now();
        let workers = self.config.workers;
        let actors = &self.actors;

        let decisions = run_sharded(workers, actors.len(), |i| {
            actors[i].lock().expect("zone lock").decide()
        });

        let arb = Instant::now();
        let finals = self.coordinator.arbitrate(self.last_site_power, &decisions);
        tesla_obs::histogram!("tesla_fleet_coordinator_seconds").observe_duration(arb.elapsed());

        self.execute_minute(minute, &finals, false)?;
        tesla_obs::histogram!("tesla_fleet_minute_seconds").observe_duration(whole.elapsed());
        Ok(())
    }

    /// Phases 3–4 plus the site-power rollup, shared by the live and
    /// replay paths (replay forces recorded set-points and skips the
    /// supervisor's minute close, exactly like single-zone resume).
    fn execute_minute(
        &mut self,
        minute: usize,
        setpoints: &[Celsius],
        replaying: bool,
    ) -> Result<(), FleetError> {
        let workers = self.config.workers;
        let actors = &self.actors;
        let outcomes: Vec<_> = run_sharded(workers, actors.len(), |i| {
            let mut actor = actors[i].lock().expect("zone lock");
            if replaying {
                actor.replay_minute(minute, setpoints[i])
            } else {
                actor.advance(minute, setpoints[i], false)
            }
        })
        .into_iter()
        .collect::<Result<_, _>>()?;

        self.exchange_bleed()?;

        let n_servers = self.config.zone.sim.n_servers as f64;
        let site_kw: f64 = outcomes
            .iter()
            .map(|o| o.acu_power_kw.value() + o.avg_server_power_kw.value() * n_servers)
            .sum();
        self.last_site_power = Kilowatts::new(site_kw);
        self.site_peak_kw = self.site_peak_kw.max(site_kw);
        self.site_energy_kwh += site_kw / 60.0;
        tesla_obs::gauge!("tesla_fleet_site_power_kw").set(site_kw);
        if let Some(store) = &self.historian {
            store.insert("site.power_kw", minute as f64 * 60.0, site_kw);
        }
        self.minute = minute + 1;
        Ok(())
    }

    /// Phase 4: pairwise hot-aisle heat exchange along the topology's
    /// edges. All temperatures are snapshotted first, so each edge moves
    /// `g · (T_a − T_b) · 60 s` kilojoules from the warmer to the cooler
    /// pod regardless of edge order, and the exchange conserves `Σ C·T`
    /// up to float rounding. A pod with two edges adds their transfers
    /// in list order, so edge order moves its result only by rounding.
    fn exchange_bleed(&mut self) -> Result<(), FleetError> {
        if self.config.topology.edges().is_empty() {
            return Ok(());
        }
        let temps: Vec<Celsius> = self
            .actors
            .iter()
            .map(|a| a.lock().expect("zone lock").hot_aisle().0)
            .collect();
        let dt_s = self.config.zone.sim.sample_period_s;
        for e in self.config.topology.edges() {
            let (a, b) = (e.a.index(), e.b.index());
            let energy_kj = e.kw_per_k * (temps[a].value() - temps[b].value()) * dt_s;
            if energy_kj == 0.0 {
                continue;
            }
            self.actors[a]
                .lock()
                .expect("zone lock")
                .add_hot_aisle_energy_kj(-energy_kj)?;
            self.actors[b]
                .lock()
                .expect("zone lock")
                .add_hot_aisle_energy_kj(energy_kj)?;
        }
        Ok(())
    }

    /// Runs metered minutes until `minutes`, starting from the current
    /// cursor (0 for a fresh fleet, the restored cursor after
    /// [`Fleet::resume`]), snapshotting per `policy`.
    pub fn run(
        mut self,
        minutes: usize,
        policy: Option<&FleetCheckpointPolicy>,
    ) -> Result<FleetReport, FleetError> {
        while self.minute < minutes {
            self.step_minute()?;
            if let Some(p) = policy {
                if p.every_minutes > 0 && self.minute.is_multiple_of(p.every_minutes) {
                    self.write_snapshot(p)?;
                }
            }
        }
        self.into_report()
    }

    /// Seals every zone's episode and the site rollup into the report.
    pub fn into_report(self) -> Result<FleetReport, FleetError> {
        let minutes = self.minute;
        let zones = self
            .actors
            .into_iter()
            .map(|a| a.into_inner().expect("zone lock").finish())
            .collect();
        Ok(FleetReport {
            zones,
            site_peak_kw: Kilowatts::new(self.site_peak_kw),
            site_energy_kwh: KilowattHours::new(self.site_energy_kwh),
            budget_exceeded_minutes: self.coordinator.budget_exceeded_minutes(),
            relaxations: self.coordinator.relaxations(),
            minutes,
        })
    }

    fn zone_dir(root: &Path, zone: ZoneId) -> PathBuf {
        root.join(format!("{zone}"))
    }

    fn site_state_path(root: &Path, cursor: usize) -> PathBuf {
        root.join(format!("site_{cursor:08}.state"))
    }

    /// Writes one consistent fleet snapshot at the current cursor:
    /// per-zone control-plane checkpoints (reusing the single-zone
    /// versioned CRC-framed format) plus the coordinator's state. The
    /// site file is written *after* every zone checkpoint lands, so a
    /// snapshot is only considered restorable once it is complete.
    pub fn write_snapshot(&self, policy: &FleetCheckpointPolicy) -> Result<(), FleetError> {
        let timer = Instant::now();
        let cursor = self.minute;
        for cell in &self.actors {
            let actor = cell.lock().expect("zone lock");
            let cfg = actor.config();
            let store = CheckpointStore::open(
                Self::zone_dir(&policy.dir, actor.zone()),
                policy.keep.max(1),
            )?;
            store.write(&Checkpoint {
                seed: cfg.seed,
                minutes: cfg.minutes as u64,
                warmup_minutes: cfg.warmup_minutes as u64,
                controller: actor.controller_name(),
                cursor: cursor as u64,
                setpoints: actor.setpoints().to_vec(),
                supervisor: actor.supervisor_state(),
                controller_state: actor.controller_state(),
            })?;
        }
        let path = Self::site_state_path(&policy.dir, cursor);
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, self.coordinator.encode_state())
            .and_then(|()| std::fs::rename(&tmp, &path))
            .map_err(|e| FleetError::Config(format!("site snapshot {}: {e}", path.display())))?;
        // Retention for site files mirrors the per-zone keep-N.
        let mut site_files: Vec<PathBuf> = std::fs::read_dir(&policy.dir)
            .map_err(|e| FleetError::Config(format!("snapshot dir: {e}")))?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| {
                p.extension().is_some_and(|x| x == "state")
                    && p.file_name()
                        .and_then(|n| n.to_str())
                        .is_some_and(|n| n.starts_with("site_"))
            })
            .collect();
        site_files.sort();
        while site_files.len() > policy.keep.max(1) {
            let _ = std::fs::remove_file(site_files.remove(0));
        }
        tesla_obs::histogram!("tesla_fleet_snapshot_seconds").observe_duration(timer.elapsed());
        Ok(())
    }

    /// Restores the newest complete snapshot under `policy.dir`: the
    /// highest cursor for which *every* zone holds a valid,
    /// fingerprint-matching checkpoint and the coordinator state file
    /// survived. The fleet is rebuilt, every zone replays its recorded
    /// set-points through the full four-phase minute (so inter-pod bleed
    /// is reproduced exactly), and the control-plane states are installed
    /// at the cursor — continuation is bit-identical to an uninterrupted
    /// run. Returns the fleet at cursor 0 when no complete snapshot
    /// exists.
    pub fn resume(
        config: FleetConfig,
        controllers: Vec<Box<dyn Controller + Send>>,
        historian: Option<Arc<dyn MetricStore>>,
        policy: &FleetCheckpointPolicy,
    ) -> Result<Self, FleetError> {
        let mut fleet = Fleet::new(config, controllers, historian)?;
        let n = fleet.n_zones();

        // Gather each zone's valid checkpoints by cursor.
        let mut by_zone: Vec<std::collections::BTreeMap<usize, Checkpoint>> = Vec::new();
        for i in 0..n {
            let zone = ZoneId::new(i);
            let dir = Self::zone_dir(&policy.dir, zone);
            let mut found = std::collections::BTreeMap::new();
            if dir.is_dir() {
                let (cfg, name) = {
                    let actor = fleet.actors[i].lock().expect("zone lock");
                    (actor.config().clone(), actor.controller_name())
                };
                let store = CheckpointStore::open(&dir, policy.keep.max(1))?;
                for path in store.list()? {
                    let Ok(bytes) = std::fs::read(&path) else {
                        continue;
                    };
                    let Ok(ckpt) = Checkpoint::decode(&bytes) else {
                        continue;
                    };
                    if ckpt.matches(
                        cfg.seed,
                        cfg.minutes as u64,
                        cfg.warmup_minutes as u64,
                        &name,
                    ) {
                        found.insert(ckpt.cursor as usize, ckpt);
                    }
                }
            }
            by_zone.push(found);
        }

        // The restore cursor: highest cursor present in all zones with a
        // readable coordinator state alongside.
        let candidates: Vec<usize> = by_zone
            .first()
            .map(|m| m.keys().rev().copied().collect())
            .unwrap_or_default();
        let cursor = candidates.into_iter().find(|c| {
            by_zone.iter().all(|m| m.contains_key(c))
                && Self::site_state_path(&policy.dir, *c).is_file()
        });
        let Some(cursor) = cursor else {
            return Ok(fleet); // cold start
        };

        let recorded: Vec<Vec<f64>> = by_zone
            .iter()
            .map(|m| m[&cursor].setpoints.clone())
            .collect();
        for m in 0..cursor {
            let sps: Vec<Celsius> = recorded.iter().map(|z| Celsius::new(z[m])).collect();
            fleet.execute_minute(m, &sps, true)?;
        }
        for (i, found) in by_zone.into_iter().enumerate() {
            let ckpt = &found[&cursor];
            fleet.actors[i]
                .lock()
                .expect("zone lock")
                .install_resume_state(ckpt.supervisor.clone(), ckpt.controller_state.as_deref());
        }
        let site_bytes = std::fs::read(Self::site_state_path(&policy.dir, cursor))
            .map_err(|e| FleetError::Config(format!("site state: {e}")))?;
        if !fleet.coordinator.restore_state(&site_bytes) {
            return Err(FleetError::Config(
                "coordinator state does not match the fleet".into(),
            ));
        }
        tesla_obs::counter!("tesla_fleet_resumes_total").inc();
        Ok(fleet)
    }
}
