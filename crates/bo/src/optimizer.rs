//! The modeling-error-aware Bayesian optimizer (Fig. 7's center box).
//!
//! # Hot-path structure (see `docs/PERFORMANCE.md`)
//!
//! [`BayesianOptimizer::optimize_batched`] is the single implementation;
//! the serial [`BayesianOptimizer::optimize`] /
//! [`BayesianOptimizer::optimize_with_hints`] entry points are thin
//! wrappers that evaluate the batch one point at a time in order, so both
//! paths run literally the same arithmetic and pick bit-identical
//! set-points for the same seed. Per decision the optimizer:
//!
//! * evaluates the whole initial design through **one** `eval_batch`
//!   call (callers may fan the batch out across threads — see
//!   [`parallel_eval`]);
//! * freezes the per-point noise vectors and the output-scale grid once
//!   (computed from the initial design) instead of reallocating them on
//!   every refit;
//! * tracks both GP hyper grids incrementally with
//!   [`tesla_gp::MaternHyperSearch`] — each new observation is a rank-1
//!   Cholesky row append per grid candidate, not a refactorization;
//! * scores NEI on a candidate grid built once, in
//!   [`BayesianOptimizer::new`], together with its table of distinct
//!   pairwise distances and the tabulated Sobol prefix of its QMC draws;
//!   the scorer's buffers are sized once per decision and reused by
//!   every iteration;
//! * runs the final selection as batched posterior solves over the grid
//!   and the evaluated points.

// analysis:allow-file(panic-free-control-path): BO loop indices are
// bounded by the grid/design sizes it just built; eval results are
// length-checked before use.
// analysis:allow-file(no-alloc-in-decide-steady-state): one BO run
// per decision builds its design, observation vectors and scorer
// buffers fresh — bounded by n_init/n_grid/n_iter config; per-decision
// allocation is the paper's design.
use crate::acquisition::{constrained_nei_with, NeiScratch};
use crate::BoError;
use tesla_gp::{normal_cdf, CandidateSet, MaternHyperSearch, QmcNormals, SobolSequence};

/// Optimizer configuration.
#[derive(Debug, Clone)]
pub struct BoConfig {
    /// Search bounds `[S_min, S_max]` (the ACU specification range).
    pub bounds: (f64, f64),
    /// Initial Sobol design size.
    pub n_init: usize,
    /// BO iterations after the initial design.
    pub n_iter: usize,
    /// QMC samples for the NEI integral.
    pub n_mc: usize,
    /// Grid resolution for candidate scoring and final selection.
    pub n_grid: usize,
    /// Required posterior probability that the constraint holds.
    pub feasibility_threshold: f64,
    /// Lengthscale grid for the GP hyper-fit (°C units of set-point).
    pub lengthscales: Vec<f64>,
    /// RNG seed.
    pub seed: u64,
}

impl Default for BoConfig {
    fn default() -> Self {
        BoConfig {
            bounds: (20.0, 35.0),
            n_init: 8,
            n_iter: 5,
            n_mc: 64,
            n_grid: 61,
            feasibility_threshold: 0.85,
            lengthscales: vec![0.3, 1.0, 3.0, 8.0],
            seed: 0,
        }
    }
}

/// Result of one optimizer decision.
#[derive(Debug, Clone)]
pub struct BoOutcome {
    /// Chosen set-point, °C.
    pub setpoint: f64,
    /// True when no candidate met the feasibility threshold and the
    /// optimizer fell back to `S_min` (§3.3's backup strategy).
    pub fallback: bool,
    /// Every evaluated `(setpoint, objective, constraint)` triple.
    pub evaluated: Vec<(f64, f64, f64)>,
    /// Posterior-mean objective over the final grid (for Fig. 8b).
    pub grid: Vec<f64>,
    /// Posterior mean of the objective at each grid point.
    pub objective_mean: Vec<f64>,
    /// Posterior mean of the constraint at each grid point.
    pub constraint_mean: Vec<f64>,
}

/// The modeling-error-aware constrained Bayesian optimizer.
#[derive(Debug, Clone)]
pub struct BayesianOptimizer {
    config: BoConfig,
    /// The candidate grid over the bounds, `n_grid` points.
    grid: Vec<f64>,
    /// The grid lifted to points, with its distinct pairwise distances.
    candidates: CandidateSet,
    /// QMC normals for `n_mc` (at least 8) draws per NEI call.
    qmc: QmcNormals,
}

impl BayesianOptimizer {
    /// Creates an optimizer after validating the configuration.
    pub fn new(config: BoConfig) -> Result<Self, BoError> {
        if config.bounds.0 >= config.bounds.1 {
            return Err(BoError::BadConfig("bounds must satisfy min < max".into()));
        }
        if config.n_init < 2 || config.n_grid < 4 {
            return Err(BoError::BadConfig(
                "need n_init >= 2 and n_grid >= 4".into(),
            ));
        }
        if !(0.0..=1.0).contains(&config.feasibility_threshold) {
            return Err(BoError::BadConfig(
                "feasibility_threshold must be in [0,1]".into(),
            ));
        }
        if config.lengthscales.is_empty() {
            return Err(BoError::BadConfig(
                "lengthscale grid must be non-empty".into(),
            ));
        }
        let (lo, hi) = config.bounds;
        let grid: Vec<f64> = (0..config.n_grid)
            .map(|i| lo + (hi - lo) * i as f64 / (config.n_grid - 1) as f64)
            .collect();
        let candidates = CandidateSet::new(grid.iter().map(|&s| vec![s]).collect());
        let qmc = QmcNormals::new(config.n_mc.max(8));
        Ok(BayesianOptimizer {
            config,
            grid,
            candidates,
            qmc,
        })
    }

    /// The configuration.
    pub fn config(&self) -> &BoConfig {
        &self.config
    }

    /// Runs one decision. `eval(s)` returns the *predicted* `(objective,
    /// constraint)` at set-point `s` — objective maximized, constraint
    /// feasible iff ≤ 0 (Eq. 5). `noise_var` is the bootstrap variance
    /// pair from the prediction-error monitor.
    pub fn optimize(
        &self,
        eval: impl FnMut(f64) -> (f64, f64),
        noise_var: (f64, f64),
        seed: u64,
    ) -> Result<BoOutcome, BoError> {
        self.optimize_with_hints(eval, noise_var, seed, &[])
    }

    /// Like [`Self::optimize`], with extra warm-start candidates included
    /// in the initial design. TESLA seeds these with points around the
    /// current inlet temperature: the energy-optimal set-point always sits
    /// near the interruption kink at `inlet + κ`, and evaluating there
    /// directly saves acquisition rounds.
    pub fn optimize_with_hints(
        &self,
        mut eval: impl FnMut(f64) -> (f64, f64),
        noise_var: (f64, f64),
        seed: u64,
        hints: &[f64],
    ) -> Result<BoOutcome, BoError> {
        // In-order serial evaluation: same arithmetic, same decisions as
        // any batched/parallel caller.
        self.optimize_batched(
            |batch: &[f64]| batch.iter().map(|&s| eval(s)).collect(),
            noise_var,
            seed,
            hints,
        )
    }

    /// Batch-evaluation entry point: `eval_batch` receives every set-point
    /// the optimizer wants evaluated in one call (the whole initial design
    /// up front, then one point per BO iteration) and returns the
    /// `(objective, constraint)` pairs **in the same order**. Callers may
    /// evaluate batch elements concurrently (e.g. via [`parallel_eval`]);
    /// because the optimizer consumes results by position, any
    /// order-preserving execution yields bit-identical decisions to the
    /// serial path.
    pub fn optimize_batched(
        &self,
        mut eval_batch: impl FnMut(&[f64]) -> Vec<(f64, f64)>,
        noise_var: (f64, f64),
        seed: u64,
        hints: &[f64],
    ) -> Result<BoOutcome, BoError> {
        let _decision_timer = tesla_obs::Timer::start(tesla_obs::histogram!("bo_decision_seconds"));
        let acq_evals = tesla_obs::counter!("bo_acquisition_evaluations_total");
        let (lo, hi) = self.config.bounds;
        let span = hi - lo;

        // Initial design: bounds + warm-start hints + Sobol interior.
        let mut seq = SobolSequence::new(1);
        let mut xs: Vec<f64> = Vec::with_capacity(self.config.n_init + hints.len());
        let push_unique = |xs: &mut Vec<f64>, s: f64| {
            let s = s.clamp(lo, hi);
            if xs.iter().all(|&e| (e - s).abs() > span * 1e-6) {
                xs.push(s);
            }
        };
        push_unique(&mut xs, lo);
        push_unique(&mut xs, hi);
        for &h in hints {
            if h.is_finite() {
                push_unique(&mut xs, h);
            }
        }
        while xs.len() < self.config.n_init + hints.len() {
            let p = seq.next_point()[0];
            push_unique(&mut xs, lo + p * span);
            if seq.dims() == 1 && xs.len() >= 64 {
                break; // safety against duplicate-saturated ranges
            }
        }
        // One batched evaluation for the entire initial design.
        let init = eval_batch(&xs);
        if init.len() != xs.len() {
            return Err(BoError::BadConfig(format!(
                "eval_batch returned {} results for {} points",
                init.len(),
                xs.len()
            )));
        }
        acq_evals.add(xs.len() as u64);
        let mut ys_obj: Vec<f64> = init.iter().map(|&(o, _)| o).collect();
        let mut ys_con: Vec<f64> = init.iter().map(|&(_, c)| c).collect();
        let grid = &self.grid;
        let observed: Vec<Vec<f64>> = xs.iter().map(|&s| vec![s]).collect();

        // Per-point noise and the output-scale grids are frozen once per
        // decision (from the initial design); the incremental hyper
        // searches then extend their cached Cholesky factors by one rank-1
        // row per observation instead of refactorizing the whole grid.
        let (nv_o, nv_c) = (noise_var.0.max(1e-9), noise_var.1.max(1e-9));
        let os_grid = |ys: &[f64]| -> Vec<f64> {
            let var = tesla_linalg::stats::variance(ys).max(1e-6);
            vec![var * 0.3, var, var * 3.0]
        };
        let mut search_o = MaternHyperSearch::new(
            observed.clone(),
            ys_obj.clone(),
            vec![nv_o; xs.len()],
            &self.config.lengthscales,
            &os_grid(&ys_obj),
        )?;
        let mut search_c = MaternHyperSearch::new(
            observed,
            ys_con.clone(),
            vec![nv_c; xs.len()],
            &self.config.lengthscales,
            &os_grid(&ys_con),
        )?;

        // BO loop: fit both GPs, score NEI on the grid, evaluate argmax.
        // The GPs' training points are the evaluated set-points, the
        // observations NEI integrates over.
        let mut gp_pair = (search_o.select()?, search_c.select()?);
        let mut scratch = NeiScratch::default();
        let mut scores = Vec::with_capacity(grid.len());
        let mut iterations_run = 0u64;
        for it in 0..self.config.n_iter {
            iterations_run = it as u64 + 1;
            constrained_nei_with(
                &gp_pair.0,
                &gp_pair.1,
                &self.candidates,
                &self.qmc,
                seed ^ (it as u64).wrapping_mul(0x9E3779B97F4A7C15),
                &mut scratch,
                &mut scores,
            )?;
            // Argmax not yet evaluated.
            let mut best: Option<(usize, f64)> = None;
            for (i, &sc) in scores.iter().enumerate() {
                if xs.iter().any(|&e| (e - grid[i]).abs() < span * 1e-6) {
                    continue;
                }
                if best.is_none_or(|(_, b)| sc > b) {
                    best = Some((i, sc));
                }
            }
            let Some((idx, score)) = best else { break };
            if score <= 0.0 {
                break; // no expected improvement anywhere
            }
            let s = grid[idx];
            let result = eval_batch(std::slice::from_ref(&s));
            let Some(&(o, c)) = result.first() else {
                return Err(BoError::BadConfig(
                    "eval_batch returned no result for 1 point".into(),
                ));
            };
            acq_evals.inc();
            xs.push(s);
            ys_obj.push(o);
            ys_con.push(c);
            // analysis:resolve(MaternHyperSearch::append)
            search_o.append(vec![s], o, nv_o)?;
            // analysis:resolve(MaternHyperSearch::append)
            search_c.append(vec![s], c, nv_c)?;
            gp_pair = (search_o.select()?, search_c.select()?);
        }

        // Final selection: the best *evaluated* objective among points
        // whose GP probability of feasibility clears the threshold (the
        // incumbent-recommendation rule of noisy BO). Judging feasibility
        // through the constraint GP — whose noise is the bootstrap
        // modeling-error variance — is what makes the decision
        // error-aware; judging the objective at evaluated points avoids
        // the posterior-mean smoothing washing out the sharp interruption
        // kink at `inlet + κ`. The GPs come straight from the loop's last
        // refit; each posterior below is one batched whitened solve.
        let post_o = gp_pair.0.posterior(self.candidates.points());
        let post_c_grid = gp_pair.1.posterior(self.candidates.points());
        let post_c_eval = gp_pair.1.posterior(gp_pair.1.inputs());
        let (c_eval_mean, c_eval_var) = (&post_c_eval.mean, &post_c_eval.var);
        let mut best: Option<(f64, f64)> = None; // (setpoint, observed objective)
        for i in 0..xs.len() {
            let sigma = c_eval_var[i].sqrt().max(1e-9);
            let p_feasible = normal_cdf(-c_eval_mean[i] / sigma);
            if p_feasible >= self.config.feasibility_threshold
                && best.is_none_or(|(_, b)| ys_obj[i] > b)
            {
                best = Some((xs[i], ys_obj[i]));
            }
        }

        let evaluated: Vec<(f64, f64, f64)> = xs
            .iter()
            .zip(ys_obj.iter().zip(&ys_con))
            .map(|(&s, (&o, &c))| (s, o, c))
            .collect();
        let (setpoint, fallback) = match best {
            Some((s, _)) => (s, false),
            // §3.3: "TESLA selects S_min and it will re-calibrate itself
            // later."
            None => (lo, true),
        };
        tesla_obs::histogram!("bo_iterations_to_converge_iterations")
            .observe(iterations_run as f64);
        if fallback {
            tesla_obs::counter!("bo_fallback_decisions_total").inc();
        }
        Ok(BoOutcome {
            setpoint,
            fallback,
            evaluated,
            grid: grid.clone(),
            objective_mean: post_o.mean,
            constraint_mean: post_c_grid.mean,
        })
    }
}

/// Evaluates `f` over `xs` with up to `n_workers` scoped threads, writing
/// each result into its input's slot so the output order — and therefore
/// every downstream optimizer decision — is identical to evaluating the
/// batch serially. With `n_workers <= 1` (or a single-point batch) no
/// threads are spawned at all.
pub fn parallel_eval<F>(xs: &[f64], n_workers: usize, f: F) -> Vec<(f64, f64)>
where
    F: Fn(f64) -> (f64, f64) + Sync,
{
    let n = xs.len();
    let workers = n_workers.clamp(1, n.max(1));
    if workers <= 1 || n <= 1 {
        return xs.iter().map(|&s| f(s)).collect();
    }
    let mut out = vec![(0.0, 0.0); n];
    let chunk = n.div_ceil(workers);
    let f = &f;
    std::thread::scope(|scope| {
        for (xs_chunk, out_chunk) in xs.chunks(chunk).zip(out.chunks_mut(chunk)) {
            scope.spawn(move || {
                for (slot, &s) in out_chunk.iter_mut().zip(xs_chunk) {
                    *slot = f(s);
                }
            });
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn optimizer() -> BayesianOptimizer {
        BayesianOptimizer::new(BoConfig {
            bounds: (20.0, 35.0),
            n_init: 6,
            n_iter: 4,
            n_mc: 48,
            n_grid: 31,
            ..BoConfig::default()
        })
        .unwrap()
    }

    #[test]
    fn finds_the_constrained_optimum() {
        // Objective peaks at 30, constraint allows only s ≤ 27:
        // the answer must sit near 27.
        let opt = optimizer();
        let out = opt
            .optimize(|s| (-(s - 30.0) * (s - 30.0), s - 27.0), (1e-6, 1e-6), 1)
            .unwrap();
        assert!(!out.fallback);
        assert!(
            (out.setpoint - 27.0).abs() <= 1.0,
            "chose {} (expected ≈ 27)",
            out.setpoint
        );
    }

    #[test]
    fn unconstrained_peak_found_when_feasible() {
        let opt = optimizer();
        let out = opt
            .optimize(|s| (-(s - 26.0) * (s - 26.0), -1.0), (1e-6, 1e-6), 2)
            .unwrap();
        assert!(!out.fallback);
        assert!((out.setpoint - 26.0).abs() <= 1.0, "chose {}", out.setpoint);
    }

    #[test]
    fn falls_back_to_smin_when_everything_infeasible() {
        let opt = optimizer();
        let out = opt.optimize(|_| (0.0, 5.0), (1e-6, 1e-6), 3).unwrap();
        assert!(out.fallback);
        assert_eq!(out.setpoint, 20.0);
    }

    #[test]
    fn noise_awareness_high_noise_keeps_exploring() {
        // With huge observation noise, the optimizer must still return a
        // bounded, in-range answer (and not crash).
        let opt = optimizer();
        let out = opt
            .optimize(|s| (-(s - 25.0) * (s - 25.0), s - 30.0), (25.0, 4.0), 4)
            .unwrap();
        assert!((20.0..=35.0).contains(&out.setpoint));
    }

    #[test]
    fn outcome_carries_posterior_curves_for_fig8() {
        let opt = optimizer();
        let out = opt
            .optimize(|s| (-(s - 26.0) * (s - 26.0), s - 28.0), (1e-4, 1e-4), 5)
            .unwrap();
        assert_eq!(out.grid.len(), 31);
        assert_eq!(out.objective_mean.len(), 31);
        assert_eq!(out.constraint_mean.len(), 31);
        // Constraint mean should be increasing in s (it is s − 28).
        assert!(out.constraint_mean[30] > out.constraint_mean[0]);
        assert!(out.evaluated.len() >= 6);
    }

    #[test]
    fn config_validation() {
        assert!(BayesianOptimizer::new(BoConfig {
            bounds: (30.0, 20.0),
            ..BoConfig::default()
        })
        .is_err());
        assert!(BayesianOptimizer::new(BoConfig {
            n_init: 1,
            ..BoConfig::default()
        })
        .is_err());
        assert!(BayesianOptimizer::new(BoConfig {
            feasibility_threshold: 1.5,
            ..BoConfig::default()
        })
        .is_err());
        assert!(BayesianOptimizer::new(BoConfig {
            lengthscales: vec![],
            ..BoConfig::default()
        })
        .is_err());
    }

    #[test]
    fn deterministic_given_seed() {
        let opt = optimizer();
        let run = |seed| {
            opt.optimize(|s| (-(s - 24.0) * (s - 24.0), s - 29.0), (0.01, 0.01), seed)
                .unwrap()
                .setpoint
        };
        assert_eq!(run(7), run(7));
    }

    fn objective(s: f64) -> (f64, f64) {
        ((s - 23.0).sin() - 0.02 * (s - 26.0) * (s - 26.0), s - 29.5)
    }

    #[test]
    fn batched_path_is_bit_identical_to_serial() {
        let opt = optimizer();
        for seed in [0u64, 7, 41, 1234] {
            let serial = opt
                .optimize_with_hints(objective, (0.02, 0.01), seed, &[24.5, 26.0])
                .unwrap();
            let batched = opt
                .optimize_batched(
                    |batch: &[f64]| batch.iter().map(|&s| objective(s)).collect(),
                    (0.02, 0.01),
                    seed,
                    &[24.5, 26.0],
                )
                .unwrap();
            assert_eq!(serial.setpoint, batched.setpoint, "seed {seed}");
            assert_eq!(serial.fallback, batched.fallback);
            assert_eq!(serial.evaluated, batched.evaluated);
            assert_eq!(serial.objective_mean, batched.objective_mean);
            assert_eq!(serial.constraint_mean, batched.constraint_mean);
        }
    }

    #[test]
    fn parallel_eval_is_bit_identical_to_serial() {
        let opt = optimizer();
        let serial = opt
            .optimize_with_hints(objective, (0.02, 0.01), 99, &[25.0])
            .unwrap();
        let parallel = opt
            .optimize_batched(
                |batch: &[f64]| parallel_eval(batch, 4, objective),
                (0.02, 0.01),
                99,
                &[25.0],
            )
            .unwrap();
        assert_eq!(serial.setpoint, parallel.setpoint);
        assert_eq!(serial.evaluated, parallel.evaluated);
    }

    #[test]
    fn parallel_eval_preserves_order_and_values() {
        let xs: Vec<f64> = (0..17).map(|i| i as f64 * 0.7 - 3.0).collect();
        let f = |s: f64| (s * 2.0, s - 1.0);
        for workers in [0usize, 1, 2, 3, 8, 64] {
            assert_eq!(
                parallel_eval(&xs, workers, f),
                xs.iter().map(|&s| f(s)).collect::<Vec<_>>(),
                "workers={workers}"
            );
        }
        assert!(parallel_eval(&[], 4, f).is_empty());
    }

    #[test]
    fn eval_batch_length_mismatch_is_an_error() {
        let opt = optimizer();
        let out = opt.optimize_batched(|_batch: &[f64]| vec![(0.0, 0.0)], (0.01, 0.01), 1, &[]);
        assert!(out.is_err());
    }
}
