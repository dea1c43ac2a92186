//! Kubernetes-`Job`-like orchestration (§4: the load controller is
//! deployed "using the Job resource of Kubernetes").
//!
//! The [`Orchestrator`] turns a cluster-level utilization target into
//! per-server utilizations by submitting [`Job`]s (each wrapping a
//! [`LoadController`]) to the least-loaded server, and letting them run
//! out. Per-server load is therefore heterogeneous and bursty even when
//! the cluster aggregate tracks the smooth diurnal target — matching the
//! paper's observation that aggregate power is predictable while a single
//! server's is not (§3.2, "Average server power sub-module").

use crate::loadgen::LoadController;
use rand::Rng;

/// One scheduled unit of load on one server.
#[derive(Debug, Clone)]
pub struct Job {
    /// Monotonic job identifier.
    pub id: u64,
    /// Index of the server the job was scheduled on.
    pub server: usize,
    /// The load controller executing the job.
    pub controller: LoadController,
}

/// Job-placement policy.
///
/// The paper's testbed spreads load (Kubernetes default scheduling); its
/// future-work section (§8) proposes integrating TESLA with "server-side
/// optimizations such as energy-aware workload scheduling" —
/// [`Placement::Consolidate`] implements the classic version: pack jobs
/// onto as few machines as possible so the rest can idle near zero,
/// reducing the heat TESLA must remove.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Placement {
    /// Least-loaded first (spreads load; the default).
    #[default]
    Spread,
    /// Most-loaded-with-headroom first (energy-aware consolidation).
    Consolidate,
}

/// Schedules jobs so the cluster-average utilization tracks a target.
#[derive(Debug)]
pub struct Orchestrator {
    n_servers: usize,
    jobs: Vec<Job>,
    next_id: u64,
    placement: Placement,
    /// Per-server utilization from the last `tick`, which returns it.
    /// While `tick` submits jobs it holds the committed load.
    last_utils: Vec<f64>,
}

impl Orchestrator {
    /// Creates an orchestrator for `n_servers` machines with spread
    /// placement.
    pub fn new(n_servers: usize) -> Self {
        Self::with_placement(n_servers, Placement::Spread)
    }

    /// Creates an orchestrator with an explicit placement policy.
    pub fn with_placement(n_servers: usize, placement: Placement) -> Self {
        Orchestrator {
            n_servers,
            jobs: Vec::new(),
            next_id: 0,
            placement,
            last_utils: vec![0.0; n_servers],
        }
    }

    /// The active placement policy.
    pub fn placement(&self) -> Placement {
        self.placement
    }

    /// Number of servers managed.
    pub fn n_servers(&self) -> usize {
        self.n_servers
    }

    /// Jobs currently running.
    pub fn running_jobs(&self) -> usize {
        self.jobs.len()
    }

    /// Current per-server utilization (sum of resident jobs, clamped).
    pub fn server_utils(&self) -> Vec<f64> {
        let mut utils = vec![0.0; self.n_servers];
        Self::sum_utils(&self.jobs, &mut utils);
        utils
    }

    /// Writes each server's utilization into `utils`: zero, plus each
    /// resident job's share in job order, clamped to `[0, 1]`.
    fn sum_utils(jobs: &[Job], utils: &mut [f64]) {
        utils.fill(0.0);
        for j in jobs {
            utils[j.server] += j.controller.utilization();
        }
        for u in utils {
            *u = u.clamp(0.0, 1.0);
        }
    }

    /// Cluster-average utilization.
    pub fn cluster_util(&self) -> f64 {
        if self.n_servers == 0 {
            return 0.0;
        }
        self.server_utils().iter().sum::<f64>() / self.n_servers as f64
    }

    /// Advances all jobs by `dt` seconds, reaps the finished ones, then
    /// submits new jobs as needed so the cluster average approaches
    /// `target_util`. Returns per-server utilizations, from a buffer the
    /// orchestrator keeps, so a tick allocates only to grow its job
    /// list.
    pub fn tick<R: Rng>(&mut self, dt: f64, target_util: f64, rng: &mut R) -> &[f64] {
        for j in &mut self.jobs {
            j.controller.tick(dt, rng);
        }
        self.jobs.retain(|j| !j.controller.finished());

        let target = target_util.clamp(0.0, 1.0);
        // Submit jobs until the committed load covers the target; each job
        // commits a modest slice on the least-loaded server.
        let mut utils = std::mem::take(&mut self.last_utils);
        Self::sum_utils(&self.jobs, &mut utils);
        let mut guard = 0;
        while self.cluster_util_of(&utils) + 1e-9 < target && guard < 4 * self.n_servers {
            guard += 1;
            let deficit = (target - self.cluster_util_of(&utils)) * self.n_servers as f64;
            let slice = deficit.min(rng.random_range(0.15..0.45));
            let server = match self.placement {
                // Least-loaded server gets the job (spread).
                Placement::Spread => {
                    utils
                        .iter()
                        .enumerate()
                        .min_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                        .expect("n_servers > 0")
                        .0
                }
                // Most-loaded server that still has headroom for the
                // whole slice (first-fit-decreasing consolidation); if no
                // machine fits, fall back to the least-loaded one.
                Placement::Consolidate => utils
                    .iter()
                    .enumerate()
                    .filter(|(_, &u)| u + slice <= 0.95)
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                    .map(|(i, _)| i)
                    .unwrap_or_else(|| {
                        utils
                            .iter()
                            .enumerate()
                            .min_by(|a, b| {
                                a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal)
                            })
                            .expect("n_servers > 0")
                            .0
                    }),
            };
            let duration = rng.random_range(240.0..1500.0);
            let job = Job {
                id: self.next_id,
                server,
                controller: LoadController::new(slice.min(1.0), 1.0, duration),
            };
            self.next_id += 1;
            utils[server] = (utils[server] + job.controller.utilization()).clamp(0.0, 1.0);
            self.jobs.push(job);
        }
        // If above target, nothing to do: jobs simply expire (Kubernetes
        // Jobs are not preempted either).
        Self::sum_utils(&self.jobs, &mut utils);
        self.last_utils = utils;
        &self.last_utils
    }

    fn cluster_util_of(&self, utils: &[f64]) -> f64 {
        if self.n_servers == 0 {
            return 0.0;
        }
        utils.iter().sum::<f64>() / self.n_servers as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn tracks_constant_target() {
        let mut orch = Orchestrator::new(21);
        let mut rng = StdRng::seed_from_u64(3);
        let mut last = 0.0;
        for _ in 0..60 {
            orch.tick(60.0, 0.3, &mut rng);
            last = orch.cluster_util();
        }
        assert!((last - 0.3).abs() < 0.08, "cluster util {last}");
    }

    #[test]
    fn idle_target_runs_no_jobs() {
        let mut orch = Orchestrator::new(10);
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..30 {
            let utils = orch.tick(60.0, 0.0, &mut rng);
            assert!(utils.iter().all(|&u| u == 0.0));
        }
        assert_eq!(orch.running_jobs(), 0);
    }

    #[test]
    fn per_server_loads_are_heterogeneous() {
        let mut orch = Orchestrator::new(21);
        let mut rng = StdRng::seed_from_u64(5);
        let mut utils = Vec::new();
        for _ in 0..120 {
            utils = orch.tick(60.0, 0.35, &mut rng).to_vec();
        }
        let min = utils.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = utils.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(
            max - min > 0.01,
            "servers should differ: min {min}, max {max}"
        );
    }

    #[test]
    fn utils_always_valid() {
        let mut orch = Orchestrator::new(5);
        let mut rng = StdRng::seed_from_u64(6);
        for step in 0..300 {
            let target = 0.5 + 0.5 * ((step as f64) / 20.0).sin();
            let utils = orch.tick(60.0, target, &mut rng);
            assert_eq!(utils.len(), 5);
            for u in utils {
                assert!((0.0..=1.0).contains(u));
            }
        }
    }

    #[test]
    fn load_decays_when_target_drops() {
        let mut orch = Orchestrator::new(21);
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..60 {
            orch.tick(60.0, 0.6, &mut rng);
        }
        let high = orch.cluster_util();
        for _ in 0..60 {
            orch.tick(60.0, 0.05, &mut rng);
        }
        let low = orch.cluster_util();
        assert!(high > 0.4);
        assert!(low < high - 0.2, "load must decay: high {high}, low {low}");
    }

    #[test]
    fn consolidation_packs_fewer_servers() {
        let mut spread = Orchestrator::new(21);
        let mut packed = Orchestrator::with_placement(21, Placement::Consolidate);
        assert_eq!(packed.placement(), Placement::Consolidate);
        let mut r1 = StdRng::seed_from_u64(12);
        let mut r2 = StdRng::seed_from_u64(12);
        for _ in 0..90 {
            spread.tick(60.0, 0.25, &mut r1);
            packed.tick(60.0, 0.25, &mut r2);
        }
        let busy = |o: &Orchestrator| o.server_utils().iter().filter(|&&u| u > 0.02).count();
        let b_spread = busy(&spread);
        let b_packed = busy(&packed);
        assert!(
            b_packed < b_spread,
            "consolidation must use fewer machines: packed {b_packed} vs spread {b_spread}"
        );
        // Both still track the cluster target.
        assert!((spread.cluster_util() - 0.25).abs() < 0.1);
        assert!((packed.cluster_util() - 0.25).abs() < 0.1);
    }

    #[test]
    fn consolidation_respects_per_server_cap() {
        let mut packed = Orchestrator::with_placement(4, Placement::Consolidate);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..120 {
            let utils = packed.tick(60.0, 0.6, &mut rng);
            for &u in utils {
                assert!(u <= 1.0 + 1e-9);
            }
        }
    }

    #[test]
    fn job_ids_are_unique_and_monotonic() {
        let mut orch = Orchestrator::new(4);
        let mut rng = StdRng::seed_from_u64(8);
        orch.tick(60.0, 0.8, &mut rng);
        let mut ids: Vec<u64> = orch.jobs.iter().map(|j| j.id).collect();
        let n = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), n);
        assert!(n >= 2);
    }
}
