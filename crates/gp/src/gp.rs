//! Exact Gaussian-process regression with per-observation (fixed) noise.
//!
//! Mirrors BoTorch's `FixedNoiseGP` (§3.3): the observation noise is not a
//! learned hyper-parameter but *supplied per point* — TESLA feeds it the
//! bootstrap variance from its prediction-error monitor, which is how the
//! optimizer becomes "modeling-error-aware".
//!
//! Because the optimizer refits the same training set across an entire
//! lengthscale x outputscale hyper grid at every BO iteration, this module
//! is built around three reuse mechanisms:
//!
//! * a **pairwise-distance cache** ([`pairwise_distances`]): stationary
//!   kernels only need `r / lengthscale`, so the Euclidean distances are
//!   computed once per training set and shared by every hyper candidate;
//!   the refinement also keeps the lengthscale-only kernel factors
//!   ([`Matern52::shape`]), so output-scale steps cost no `exp`;
//! * an **incremental rank-1 update** ([`MaternHyperSearch::append`]):
//!   appending one BO observation extends each candidate's Cholesky
//!   factorization in `O(n^2)` instead of refactorizing in `O(n^3)`; the
//!   extended factor is bit-identical to refactorizing;
//! * a **joint sampler** ([`FixedNoiseGp::sample_joint`]) over a
//!   [`CandidateSet`] fixed for the optimizer's lifetime: the candidates'
//!   distinct pairwise distances are tabulated once, and every draw of a
//!   call is coloured by one matrix product.
//!
//! The batched kernels keep, for every entry, the order of operations of
//! computing that entry on its own, so their results do not depend on
//! how many queries, draws or tries a call batches.

// analysis:allow-file(panic-free-control-path): dense numeric kernel;
// every index is loop-bounded by lengths validated at the call
// boundary, and debug_asserts guard the shape contracts.
// analysis:allow-file(no-alloc-in-decide-steady-state): the sampler
// and refinement buffers live in `JointScratch` and
// `MaternHyperSearch`, are sized once per decision and reused across
// its BO iterations; each `select` still clones the winner's training
// set into the returned GP.
use crate::kernel::{euclidean_distance, Kernel, Matern52};
use crate::GpError;
use std::collections::HashMap;
use tesla_linalg::{Cholesky, Matrix};

/// Posterior at a batch of query points.
#[derive(Debug, Clone)]
pub struct Posterior {
    /// Posterior means.
    pub mean: Vec<f64>,
    /// Posterior (latent) variances, floored at zero.
    pub var: Vec<f64>,
}

/// Euclidean distances between all pairs of points (symmetric, zero
/// diagonal). Computed once per training set and reused across every
/// hyper-parameter candidate of a stationary-kernel fit.
pub fn pairwise_distances(x: &[Vec<f64>]) -> Matrix {
    let n = x.len();
    let mut d = Matrix::zeros(n, n);
    for i in 0..n {
        for j in i + 1..n {
            let r = euclidean_distance(&x[i], &x[j]);
            d[(i, j)] = r;
            d[(j, i)] = r;
        }
    }
    d
}

/// For each of the first `out.len()` columns `q` of the row-major matrix
/// `a` (`cols` columns, `v.len()` rows), the dot product of column `q`
/// with `v`, summed in [`tesla_linalg::vector::dot`]'s order: four
/// partial sums over the rows, then the tail. The columns are independent
/// lanes, so the inner loops run across them. `acc` is scratch space.
fn column_dots(a: &[f64], cols: usize, v: &[f64], acc: &mut Vec<f64>, out: &mut [f64]) {
    let width = out.len();
    let rows = v.len();
    debug_assert!(width <= cols && a.len() >= rows * cols);
    let row = |p: usize| &a[p * cols..p * cols + width];
    acc.clear();
    acc.resize(5 * width, 0.0);
    let (acc0, rest) = acc.split_at_mut(width);
    let (acc1, rest) = rest.split_at_mut(width);
    let (acc2, rest) = rest.split_at_mut(width);
    let (acc3, tail) = rest.split_at_mut(width);
    let chunks = rows / 4;
    for c in 0..chunks {
        let p = c * 4;
        let (v0, v1, v2, v3) = (v[p], v[p + 1], v[p + 2], v[p + 3]);
        let (r0, r1, r2, r3) = (row(p), row(p + 1), row(p + 2), row(p + 3));
        for q in 0..width {
            acc0[q] += r0[q] * v0;
            acc1[q] += r1[q] * v1;
            acc2[q] += r2[q] * v2;
            acc3[q] += r3[q] * v3;
        }
    }
    for (p, &vp) in v.iter().enumerate().skip(chunks * 4) {
        for (t, &x) in tail.iter_mut().zip(row(p)) {
            *t += x * vp;
        }
    }
    for (q, o) in out.iter_mut().enumerate() {
        *o = acc0[q] + acc1[q] + acc2[q] + acc3[q] + tail[q];
    }
}

/// [`column_dots`] of every column of `a` with itself: its squared norm.
fn column_norms2(a: &[f64], cols: usize, rows: usize, acc: &mut Vec<f64>, out: &mut [f64]) {
    debug_assert!(out.len() == cols && a.len() == rows * cols);
    let row = |p: usize| &a[p * cols..(p + 1) * cols];
    acc.clear();
    acc.resize(5 * cols, 0.0);
    let (acc0, rest) = acc.split_at_mut(cols);
    let (acc1, rest) = rest.split_at_mut(cols);
    let (acc2, rest) = rest.split_at_mut(cols);
    let (acc3, tail) = rest.split_at_mut(cols);
    let chunks = rows / 4;
    for c in 0..chunks {
        let p = c * 4;
        let (r0, r1, r2, r3) = (row(p), row(p + 1), row(p + 2), row(p + 3));
        for q in 0..cols {
            acc0[q] += r0[q] * r0[q];
            acc1[q] += r1[q] * r1[q];
            acc2[q] += r2[q] * r2[q];
            acc3[q] += r3[q] * r3[q];
        }
    }
    for p in chunks * 4..rows {
        for (t, &x) in tail.iter_mut().zip(row(p)) {
            *t += x * x;
        }
    }
    for (q, o) in out.iter_mut().enumerate() {
        *o = acc0[q] + acc1[q] + acc2[q] + acc3[q] + tail[q];
    }
}

/// `log p(y) = −½ rᵀα − ½ log|K+Σ| − n/2 log 2π` from the factor of
/// `K+Σ` and the centred targets `resid`; writes `α = (K+Σ)⁻¹ r` into
/// `alpha`. Every fit, grid score and refinement try computes its
/// likelihood here, so the winner's GP reproduces its score exactly.
fn log_marginal(chol: &Cholesky, resid: &[f64], alpha: &mut Vec<f64>) -> Result<f64, GpError> {
    alpha.clear();
    alpha.extend_from_slice(resid);
    chol.solve_in_place(alpha)
        .map_err(|e| GpError::Numerical(e.to_string()))?;
    let n = resid.len();
    let quad: f64 = resid.iter().zip(alpha.iter()).map(|(r, a)| r * a).sum();
    Ok(-0.5 * quad - 0.5 * chol.log_det() - 0.5 * n as f64 * (2.0 * std::f64::consts::PI).ln())
}

/// The constant prior mean (the target mean) and the centred targets.
fn centre(y: &[f64]) -> (f64, Vec<f64>) {
    let mean = y.iter().sum::<f64>() / y.len() as f64;
    (mean, y.iter().map(|v| v - mean).collect())
}

/// The query points a [`FixedNoiseGp::sample_joint`] call scores, with
/// the table of their distinct pairwise distances.
///
/// The optimizer builds its candidate grid once. The grid's prior block
/// is a function of the pairwise distances only, and a regular grid has
/// few distinct ones: Table 2's grid `20 + i/4` has 1,891 pairs but 61
/// distinct distances, all exact. Deduplicating by bits makes the prior
/// block cost one kernel evaluation per distinct distance, and keeps any
/// other grid bit-identical too.
#[derive(Debug, Clone)]
pub struct CandidateSet {
    points: Vec<Vec<f64>>,
    /// Distinct pairwise distances, deduplicated by their bits.
    distances: Vec<f64>,
    /// Index into `distances` for each pair `(i, j)` with `j <= i`,
    /// row-major over the lower triangle.
    pair: Vec<usize>,
}

impl CandidateSet {
    /// Tabulates the distinct pairwise distances of `points`.
    pub fn new(points: Vec<Vec<f64>>) -> Self {
        let m = points.len();
        let mut seen: HashMap<u64, usize> = HashMap::new();
        let mut distances = Vec::new();
        let mut pair = Vec::with_capacity(m * (m + 1) / 2);
        for i in 0..m {
            for j in 0..=i {
                let d = euclidean_distance(&points[j], &points[i]);
                let idx = *seen.entry(d.to_bits()).or_insert_with(|| {
                    distances.push(d);
                    distances.len() - 1
                });
                pair.push(idx);
            }
        }
        CandidateSet {
            points,
            distances,
            pair,
        }
    }

    /// The candidate points.
    pub fn points(&self) -> &[Vec<f64>] {
        &self.points
    }

    /// Number of candidates.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when there are no candidates.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

/// Work buffers of [`FixedNoiseGp::sample_joint`]. They grow to the
/// largest call and are reused, so a decision sizes them once.
#[derive(Debug, Default)]
pub struct JointScratch {
    /// Kernel value at each distinct candidate distance.
    kernel_at: Vec<f64>,
    /// Prior covariance of each training point with every query,
    /// `n x m` row-major (queries are candidates then training points).
    cross: Vec<f64>,
    /// `cross` whitened by the training factor.
    white: Vec<f64>,
    /// Posterior mean at every query.
    mean: Vec<f64>,
    /// One column of `white`, contiguous.
    column: Vec<f64>,
    /// Partial sums of [`column_dots`].
    acc: Vec<f64>,
    /// One row of `WᵀW`.
    dots: Vec<f64>,
    /// Joint posterior covariance (lower triangle) and its factor.
    cov: Matrix,
    chol: Cholesky,
    /// Draws, point-major: `draws[i * n_draws + s]`.
    draws: Vec<f64>,
}

impl JointScratch {
    /// The draws of the last [`FixedNoiseGp::sample_joint`] call,
    /// point-major: `draws()[i * n_draws + s]` is draw `s` at query `i`
    /// (candidates first, then training points).
    pub fn draws(&self) -> &[f64] {
        &self.draws
    }
}

/// A fitted fixed-noise GP.
#[derive(Debug)]
pub struct FixedNoiseGp<K: Kernel> {
    kernel: K,
    x: Vec<Vec<f64>>,
    /// `K + diag(noise)` factorization.
    chol: Cholesky,
    /// `(K + Σ)⁻¹ (y − μ)`.
    alpha: Vec<f64>,
    /// Constant prior mean (the training-target mean).
    mean: f64,
    /// Residuals for the marginal-likelihood computation.
    log_marginal: f64,
}

impl<K: Kernel> FixedNoiseGp<K> {
    /// Fits on training points `x`, targets `y`, and per-point noise
    /// *variances*.
    pub fn fit(kernel: K, x: Vec<Vec<f64>>, y: &[f64], noise_var: &[f64]) -> Result<Self, GpError> {
        let dists = pairwise_distances(&x);
        Self::fit_from_distances(kernel, x, y, noise_var, &dists)
    }

    /// Like [`FixedNoiseGp::fit`], but reuses a precomputed
    /// pairwise-distance matrix (see [`pairwise_distances`]) so a hyper
    /// grid over the same training set pays for the distances once.
    pub fn fit_from_distances(
        kernel: K,
        x: Vec<Vec<f64>>,
        y: &[f64],
        noise_var: &[f64],
        dists: &Matrix,
    ) -> Result<Self, GpError> {
        let n = x.len();
        if n == 0 {
            return Err(GpError::Empty);
        }
        if y.len() != n || noise_var.len() != n {
            return Err(GpError::Shape(format!(
                "{} points, {} targets, {} noise entries",
                n,
                y.len(),
                noise_var.len()
            )));
        }
        let d = x[0].len();
        if x.iter().any(|p| p.len() != d) {
            return Err(GpError::Shape("ragged input points".into()));
        }
        if dists.shape() != (n, n) {
            return Err(GpError::Shape(format!(
                "distance matrix is {:?}, need ({n}, {n})",
                dists.shape()
            )));
        }

        let chol = Cholesky::decompose_jittered(&gram_matrix(&kernel, dists, noise_var), 1e-8, 12)
            .map_err(|e| GpError::Numerical(e.to_string()))?;
        Self::from_factor(kernel, x, y, chol)
    }

    /// Assembles the GP around an existing factor of `K + diag(noise)`
    /// over `x`, with targets `y`.
    fn from_factor(
        kernel: K,
        x: Vec<Vec<f64>>,
        y: &[f64],
        chol: Cholesky,
    ) -> Result<Self, GpError> {
        let (mean, resid) = centre(y);
        let mut alpha = Vec::new();
        let log_marginal = log_marginal(&chol, &resid, &mut alpha)?;
        Ok(FixedNoiseGp {
            kernel,
            x,
            chol,
            alpha,
            mean,
            log_marginal,
        })
    }

    /// Number of training points.
    pub fn n_train(&self) -> usize {
        self.x.len()
    }

    /// The training inputs.
    pub fn inputs(&self) -> &[Vec<f64>] {
        &self.x
    }

    /// The log marginal likelihood of the training data.
    pub fn log_marginal_likelihood(&self) -> f64 {
        self.log_marginal
    }

    /// The constant prior mean.
    pub fn prior_mean(&self) -> f64 {
        self.mean
    }

    /// Prior covariance of each training point with each query,
    /// `n_train x queries.len()` row-major.
    fn cross_covariance(&self, queries: &[Vec<f64>]) -> Vec<f64> {
        let mut cross = Vec::with_capacity(self.x.len() * queries.len());
        for p in &self.x {
            cross.extend(queries.iter().map(|q| self.kernel.eval(p, q)));
        }
        cross
    }

    /// Posterior mean and variance at each query point (marginals).
    ///
    /// All queries are whitened by **one** multi-column forward
    /// substitution ([`Cholesky::forward_substitute_cols`]), and the means
    /// and variances are summed across queries as independent lanes.
    pub fn posterior(&self, queries: &[Vec<f64>]) -> Posterior {
        let (n, m) = (self.x.len(), queries.len());
        let cross = self.cross_covariance(queries);
        let mut white = cross.clone();
        if self.chol.forward_substitute_cols(&mut white, m).is_err() {
            white.clone_from(&cross);
        }
        let mut acc = Vec::new();
        let mut mean = vec![0.0; m];
        column_dots(&cross, m, &self.alpha, &mut acc, &mut mean);
        for v in &mut mean {
            *v += self.mean;
        }
        let mut var = vec![0.0; m];
        column_norms2(&white, m, n, &mut acc, &mut var);
        for v in &mut var {
            *v = (self.kernel.diag() - *v).max(0.0);
        }
        Posterior { mean, var }
    }

    /// Draws `n_draws` joint posterior samples at `candidates ++` the
    /// training points into `scratch` (read them with
    /// [`JointScratch::draws`]).
    ///
    /// `normals` holds `n_draws` standard-normal vectors of dimension
    /// `candidates.len() + n_train()`, dimension-major:
    /// `normals[k * n_draws + s]` is coordinate `k` of draw `s` (the
    /// layout [`crate::QmcNormals::fill`] writes).
    ///
    /// NEI scores candidates against the joint posterior at the observed
    /// points, which are this GP's own training points. So the cross
    /// covariance is a set of columns of the prior over all queries, and
    /// the prior costs `m(m+1)/2` kernel evaluations at most, the
    /// candidate block one per distinct distance. The whitening, the
    /// `prior − WᵀW` products and the colouring `L·Z` each run across all
    /// queries or draws at once, and each entry keeps the order of
    /// operations of computing it on its own.
    pub fn sample_joint(
        &self,
        candidates: &CandidateSet,
        normals: &[f64],
        n_draws: usize,
        scratch: &mut JointScratch,
    ) -> Result<(), GpError> {
        let (mc, n) = (candidates.len(), self.x.len());
        let m = mc + n;
        if normals.len() != m * n_draws {
            return Err(GpError::Shape(format!(
                "{} normals, need {m} points x {n_draws} draws",
                normals.len()
            )));
        }
        let d = self.x[0].len();
        if candidates.points.iter().any(|c| c.len() != d) {
            return Err(GpError::Shape(format!(
                "candidates must have {d} dimensions"
            )));
        }
        let s = scratch;

        // Prior: the candidate block by distinct distance, then each
        // training point against every query (symmetric in the training
        // block, so each pair is evaluated once).
        s.kernel_at.clear();
        s.kernel_at.extend(
            candidates
                .distances
                .iter()
                .map(|&r| self.kernel.eval_dist(r)),
        );
        s.cross.clear();
        s.cross.resize(n * m, 0.0);
        for (p, xp) in self.x.iter().enumerate() {
            let row = &mut s.cross[p * m..(p + 1) * m];
            for (slot, c) in row.iter_mut().zip(&candidates.points) {
                *slot = self.kernel.eval(xp, c);
            }
            for r in 0..=p {
                let v = self.kernel.eval(xp, &self.x[r]);
                s.cross[p * m + mc + r] = v;
                s.cross[r * m + mc + p] = v;
            }
        }

        // Whitening and the posterior mean, for all queries at once.
        s.white.clone_from(&s.cross);
        self.chol
            .forward_substitute_cols(&mut s.white, m)
            .map_err(|e| GpError::Numerical(e.to_string()))?;
        s.mean.clear();
        s.mean.resize(m, 0.0);
        column_dots(&s.cross, m, &self.alpha, &mut s.acc, &mut s.mean);
        for v in &mut s.mean {
            *v += self.mean;
        }

        // Posterior covariance, lower triangle: prior − WᵀW, plus the
        // sampling jitter on the diagonal.
        s.cov.reset_zeros(m, m);
        s.dots.clear();
        s.dots.resize(m, 0.0);
        for i in 0..m {
            s.column.clear();
            s.column.extend((0..n).map(|p| s.white[p * m + i]));
            column_dots(&s.white, m, &s.column, &mut s.acc, &mut s.dots[..=i]);
            let row = s.cov.row_mut(i);
            for (j, (c, &dot)) in row[..=i].iter_mut().zip(&s.dots).enumerate() {
                let prior = if i < mc {
                    s.kernel_at[candidates.pair[i * (i + 1) / 2 + j]]
                } else {
                    s.cross[(i - mc) * m + j]
                };
                *c = prior - dot;
            }
            row[i] += 1e-9;
        }
        s.chol
            .refactor_jittered(&s.cov, 1e-9, 12)
            .map_err(|e| GpError::Numerical(e.to_string()))?;

        // Colour every draw with one product, then add the mean.
        s.chol
            .lower_matmul(normals, n_draws, &mut s.draws)
            .map_err(|e| GpError::Numerical(e.to_string()))?;
        for (row, &mu) in s.draws.chunks_exact_mut(n_draws.max(1)).zip(&s.mean) {
            for e in row {
                *e += mu;
            }
        }
        Ok(())
    }
}

/// Builds `K + diag(noise) + 1e-10 I` from a cached distance matrix.
fn gram_matrix<K: Kernel>(kernel: &K, dists: &Matrix, noise_var: &[f64]) -> Matrix {
    let n = noise_var.len();
    let mut k = Matrix::zeros(n, n);
    for i in 0..n {
        for j in i..n {
            let v = kernel.eval_dist(dists[(i, j)]);
            k[(i, j)] = v;
            k[(j, i)] = v;
        }
        k[(i, i)] += noise_var[i].max(0.0) + 1e-10;
    }
    k
}

/// Fits Matérn 5/2 hyper-parameters by maximizing the log marginal
/// likelihood: a small log-spaced grid locates the basin, then a few
/// rounds of multiplicative coordinate descent refine within it — the
/// pragmatic counterpart of GPyTorch's gradient-based fit for 1-D search
/// spaces. The pairwise-distance matrix is computed once and shared by
/// every candidate. This is [`MaternHyperSearch::select`] on a fresh
/// search.
pub fn fit_matern_hypers(
    x: &[Vec<f64>],
    y: &[f64],
    noise_var: &[f64],
    lengthscales: &[f64],
    outputscales: &[f64],
) -> Result<FixedNoiseGp<Matern52>, GpError> {
    MaternHyperSearch::new(
        x.to_vec(),
        y.to_vec(),
        noise_var.to_vec(),
        lengthscales,
        outputscales,
    )?
    .select()
}

/// One hyper-grid candidate tracked incrementally.
#[derive(Debug)]
struct GridCandidate {
    lengthscale: f64,
    outputscale: f64,
    /// Cached factorization of `K(ls, os) + diag(noise)` over the current
    /// training set (`None` when the candidate never factored).
    chol: Option<Cholesky>,
}

/// The lengthscale-only kernel factors ([`Matern52::shape`]) over the
/// upper triangle of the training distances, for one lengthscale.
#[derive(Debug, Default)]
struct ShapeTable {
    /// Bits of the lengthscale the table holds, if any.
    lengthscale: Option<u64>,
    poly: Vec<f64>,
    exp: Vec<f64>,
}

impl ShapeTable {
    fn fill(&mut self, kernel: &Matern52, dists: &Matrix) {
        let n = dists.rows();
        self.poly.clear();
        self.exp.clear();
        for i in 0..n {
            for j in i..n {
                let (poly, exp) = kernel.shape(dists[(i, j)]);
                self.poly.push(poly);
                self.exp.push(exp);
            }
        }
        self.lengthscale = Some(kernel.lengthscale.to_bits());
    }
}

/// Reused buffers of the stage-2 refinement in
/// [`MaternHyperSearch::select`].
#[derive(Debug, Default)]
struct RefineScratch {
    gram: Matrix,
    /// The factor of the try being scored, and of the best try so far.
    trial: Cholesky,
    best: Cholesky,
    alpha: Vec<f64>,
    /// Kernel factors at the best lengthscale and at the latest other one.
    best_shape: ShapeTable,
    trial_shape: ShapeTable,
}

impl RefineScratch {
    /// Log marginal likelihood of `kernel` on the training set, factored
    /// into `trial`, or `None` when the Gram matrix does not factor.
    /// `use_best` reads the kernel factors from `best_shape`.
    fn score(
        &mut self,
        kernel: &Matern52,
        use_best: bool,
        dists: &Matrix,
        noise_var: &[f64],
        resid: &[f64],
    ) -> Option<f64> {
        let n = noise_var.len();
        let shape = if use_best {
            &mut self.best_shape
        } else {
            &mut self.trial_shape
        };
        if shape.lengthscale != Some(kernel.lengthscale.to_bits()) {
            shape.fill(kernel, dists);
        }
        // `gram_matrix`'s entries, with `eval_dist = (os · poly) · exp`.
        self.gram.reset_zeros(n, n);
        let mut t = 0;
        for (i, &nv) in noise_var.iter().enumerate() {
            for j in i..n {
                let v = kernel.outputscale * shape.poly[t] * shape.exp[t];
                self.gram[(i, j)] = v;
                self.gram[(j, i)] = v;
                t += 1;
            }
            self.gram[(i, i)] += nv.max(0.0) + 1e-10;
        }
        self.trial.refactor_jittered(&self.gram, 1e-8, 12).ok()?;
        log_marginal(&self.trial, resid, &mut self.alpha).ok()
    }

    /// Stage-2 hyper refinement: multiplicative coordinate descent with a
    /// shrinking step, starting from `(ls, os)` with likelihood `lml`.
    /// Returns the refined `(ls, os)` and whether a try beat the start;
    /// if one did, its factor is in `best`.
    fn refine(
        &mut self,
        mut ls: f64,
        mut os: f64,
        mut lml: f64,
        dists: &Matrix,
        noise_var: &[f64],
        resid: &[f64],
    ) -> (f64, f64, bool) {
        // The training set may have grown since the last call, so no
        // cached kernel factor is valid.
        self.best_shape.lengthscale = None;
        self.trial_shape.lengthscale = None;
        let mut moved = false;
        let mut step = 1.6;
        for _round in 0..6 {
            let mut improved = false;
            for (dl, do_) in [
                (step, 1.0),
                (1.0 / step, 1.0),
                (1.0, step),
                (1.0, 1.0 / step),
            ] {
                let (cl, co) = (ls * dl, os * do_);
                let kernel = Matern52::new(cl, co);
                let use_best = kernel.lengthscale == Matern52::new(ls, os).lengthscale;
                let Some(cand) = self.score(&kernel, use_best, dists, noise_var, resid) else {
                    continue;
                };
                if cand > lml {
                    ls = cl;
                    os = co;
                    lml = cand;
                    std::mem::swap(&mut self.best, &mut self.trial);
                    if !use_best {
                        std::mem::swap(&mut self.best_shape, &mut self.trial_shape);
                    }
                    improved = true;
                    moved = true;
                }
            }
            if !improved {
                step = step.sqrt();
                if step < 1.05 {
                    break;
                }
            }
        }
        (ls, os, moved)
    }
}

/// Incremental Matérn 5/2 hyper-grid search over a growing training set.
///
/// The Bayesian optimizer refits its two GPs after every observation; a
/// naive refit refactorizes `lengthscales x outputscales` kernel matrices
/// from scratch each time. This structure keeps one Cholesky factor *per
/// grid candidate* and extends each with a rank-1
/// [`Cholesky::append_row`] when an observation arrives, so the per-
/// iteration cost of the whole grid drops from `O(g·n^3)` to `O(g·n^2)`.
/// [`MaternHyperSearch::select`] then scores candidates by log marginal
/// likelihood (an `O(n^2)` solve per candidate) and refines the best one
/// by coordinate descent over the cached distance matrix, scoring each
/// try in reused buffers.
#[derive(Debug)]
pub struct MaternHyperSearch {
    x: Vec<Vec<f64>>,
    y: Vec<f64>,
    noise_var: Vec<f64>,
    dists: Matrix,
    candidates: Vec<GridCandidate>,
    refine: RefineScratch,
}

impl MaternHyperSearch {
    /// Builds the search over the initial training set, factoring every
    /// grid candidate once. Errors if no candidate factors.
    pub fn new(
        x: Vec<Vec<f64>>,
        y: Vec<f64>,
        noise_var: Vec<f64>,
        lengthscales: &[f64],
        outputscales: &[f64],
    ) -> Result<Self, GpError> {
        if x.is_empty() {
            return Err(GpError::Empty);
        }
        if y.len() != x.len() || noise_var.len() != x.len() {
            return Err(GpError::Shape(format!(
                "{} points, {} targets, {} noise entries",
                x.len(),
                y.len(),
                noise_var.len()
            )));
        }
        if x.iter().any(|p| p.len() != x[0].len()) {
            return Err(GpError::Shape("ragged input points".into()));
        }
        let dists = pairwise_distances(&x);
        let mut candidates = Vec::with_capacity(lengthscales.len() * outputscales.len());
        for &ls in lengthscales {
            for &os in outputscales {
                let kernel = Matern52::new(ls, os);
                let chol = Cholesky::decompose_jittered(
                    &gram_matrix(&kernel, &dists, &noise_var),
                    1e-8,
                    12,
                )
                .ok();
                candidates.push(GridCandidate {
                    lengthscale: ls,
                    outputscale: os,
                    chol,
                });
            }
        }
        if candidates.iter().all(|c| c.chol.is_none()) {
            return Err(GpError::Numerical(
                "no hyper-parameter candidate factored".into(),
            ));
        }
        Ok(MaternHyperSearch {
            x,
            y,
            noise_var,
            dists,
            candidates,
            refine: RefineScratch::default(),
        })
    }

    /// Number of training points currently tracked.
    pub fn n_train(&self) -> usize {
        self.x.len()
    }

    /// Appends one observation: the distance matrix grows by one
    /// row/column and every factored candidate takes a rank-1 row update.
    /// Candidates whose incremental update goes indefinite are refit from
    /// scratch (and dropped if even that fails).
    pub fn append(&mut self, x_new: Vec<f64>, y_new: f64, noise_var: f64) -> Result<(), GpError> {
        if x_new.len() != self.x[0].len() {
            return Err(GpError::Shape(format!(
                "new point has {} dims, training set has {}",
                x_new.len(),
                self.x[0].len()
            )));
        }
        let n = self.x.len();
        let new_dists: Vec<f64> = self
            .x
            .iter()
            .map(|p| euclidean_distance(p, &x_new))
            .collect();
        let mut grown = Matrix::zeros(n + 1, n + 1);
        for i in 0..n {
            grown.row_mut(i)[..n].copy_from_slice(self.dists.row(i));
            grown[(i, n)] = new_dists[i];
            grown[(n, i)] = new_dists[i];
        }
        self.dists = grown;
        self.x.push(x_new);
        self.y.push(y_new);
        self.noise_var.push(noise_var);

        let diag_noise = noise_var.max(0.0) + 1e-10;
        // One kernel-column buffer shared by every candidate: refilled in
        // place per candidate instead of collected fresh each time.
        let mut col = vec![0.0; new_dists.len()];
        for cand in &mut self.candidates {
            let kernel = Matern52::new(cand.lengthscale, cand.outputscale);
            let appended = match cand.chol.as_mut() {
                Some(chol) => {
                    for (c, &r) in col.iter_mut().zip(&new_dists) {
                        *c = kernel.eval_dist(r);
                    }
                    chol.append_row(&col, kernel.diag() + diag_noise).is_ok()
                }
                None => false,
            };
            if !appended {
                cand.chol = Cholesky::decompose_jittered(
                    &gram_matrix(&kernel, &self.dists, &self.noise_var),
                    1e-8,
                    12,
                )
                .ok();
            }
        }
        Ok(())
    }

    /// Selects the best grid candidate by log marginal likelihood and
    /// refines it with coordinate descent over the cached distance
    /// matrix.
    ///
    /// Every grid candidate and every refinement try is scored against
    /// borrowed state in reused buffers; the training-set clones and the
    /// factor clone are paid once, for the winner only. All scores come
    /// from the same likelihood code as [`FixedNoiseGp::fit`], so the
    /// returned GP is bit-identical to fitting each try eagerly.
    pub fn select(&mut self) -> Result<FixedNoiseGp<Matern52>, GpError> {
        let (_, resid) = centre(&self.y);
        let mut best: Option<(usize, f64)> = None;
        for (ci, cand) in self.candidates.iter().enumerate() {
            let Some(chol) = cand.chol.as_ref() else {
                continue;
            };
            let Ok(lm) = log_marginal(chol, &resid, &mut self.refine.alpha) else {
                continue;
            };
            if best.is_none_or(|(_, b)| lm > b) {
                best = Some((ci, lm));
            }
        }
        let (ci, lml) = best.ok_or(GpError::Numerical(
            "no hyper-parameter candidate factored".into(),
        ))?;
        let cand = &self.candidates[ci];
        let (ls, os, moved) = self.refine.refine(
            cand.lengthscale,
            cand.outputscale,
            lml,
            &self.dists,
            &self.noise_var,
            &resid,
        );
        let chol = if moved {
            self.refine.best.clone()
        } else {
            cand.chol.clone().expect("winner was scored via its factor")
        };
        FixedNoiseGp::from_factor(Matern52::new(ls, os), self.x.clone(), &self.y, chol)
            .map_err(|_| GpError::Numerical("winning candidate failed to solve".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::Matern52;

    fn train_1d(f: impl Fn(f64) -> f64, xs: &[f64]) -> (Vec<Vec<f64>>, Vec<f64>) {
        (
            xs.iter().map(|&v| vec![v]).collect(),
            xs.iter().map(|&v| f(v)).collect(),
        )
    }

    #[test]
    fn interpolates_noise_free_observations() {
        let (x, y) = train_1d(|v| v.sin(), &[0.0, 1.0, 2.0, 3.0, 4.0]);
        let gp = FixedNoiseGp::fit(Matern52::new(1.0, 1.0), x.clone(), &y, &[1e-8; 5]).unwrap();
        let post = gp.posterior(&x);
        for (m, t) in post.mean.iter().zip(&y) {
            assert!((m - t).abs() < 1e-3, "{m} vs {t}");
        }
        for v in post.var {
            assert!(
                v < 1e-3,
                "variance at observed point should collapse, got {v}"
            );
        }
    }

    #[test]
    fn variance_grows_away_from_data() {
        let (x, y) = train_1d(|v| v, &[0.0, 1.0]);
        let gp = FixedNoiseGp::fit(Matern52::new(1.0, 1.0), x, &y, &[1e-6; 2]).unwrap();
        let post = gp.posterior(&[vec![0.5], vec![5.0]]);
        assert!(post.var[1] > post.var[0] * 2.0, "{:?}", post.var);
        // Far away, the posterior reverts to the prior.
        assert!((post.var[1] - 1.0).abs() < 0.05);
        assert!((post.mean[1] - gp.prior_mean()).abs() < 0.05);
    }

    #[test]
    fn high_noise_points_are_partially_ignored() {
        // Two contradictory observations at the same x: the posterior mean
        // should sit near the low-noise one.
        let x = vec![vec![1.0], vec![1.0]];
        let y = [0.0, 10.0];
        let noise = [1e-6, 25.0];
        let gp = FixedNoiseGp::fit(Matern52::new(1.0, 4.0), x, &y, &noise).unwrap();
        let post = gp.posterior(&[vec![1.0]]);
        assert!(
            post.mean[0] < 1.0,
            "mean {} should hug the precise observation",
            post.mean[0]
        );
    }

    #[test]
    fn log_marginal_prefers_correct_lengthscale() {
        // Data from a slow function: a comparable-scale lengthscale must
        // beat an absurdly short one.
        let xs: Vec<f64> = (0..12).map(|i| i as f64 * 0.5).collect();
        let (x, y) = train_1d(|v| (v / 3.0).sin(), &xs);
        let good = FixedNoiseGp::fit(Matern52::new(2.0, 1.0), x.clone(), &y, &[1e-4; 12]).unwrap();
        let bad = FixedNoiseGp::fit(Matern52::new(0.01, 1.0), x, &y, &[1e-4; 12]).unwrap();
        assert!(good.log_marginal_likelihood() > bad.log_marginal_likelihood());
    }

    #[test]
    fn grid_hyper_fit_picks_reasonable_lengthscale() {
        let xs: Vec<f64> = (0..15).map(|i| i as f64 * 0.4).collect();
        let (x, y) = train_1d(|v| (v / 2.0).sin() * 2.0, &xs);
        let gp = fit_matern_hypers(
            &x,
            &y,
            &[1e-4; 15],
            &[0.01, 0.1, 1.0, 3.0, 10.0],
            &[0.1, 1.0, 5.0],
        )
        .unwrap();
        // Prediction should be sane between training points.
        let post = gp.posterior(&[vec![1.0]]);
        assert!((post.mean[0] - (0.5f64).sin() * 2.0).abs() < 0.3);
    }

    #[test]
    fn refinement_never_loses_to_the_grid() {
        let xs: Vec<f64> = (0..14).map(|i| i as f64 * 0.5).collect();
        let (x, y) = train_1d(|v| (v / 2.5).sin() * 1.7, &xs);
        let noise = vec![1e-4; xs.len()];
        let grid_ls = [0.1, 1.0, 10.0];
        let grid_os = [0.5, 2.0];
        // Best pure-grid marginal likelihood.
        let mut grid_best = f64::NEG_INFINITY;
        for &ls in &grid_ls {
            for &os in &grid_os {
                if let Ok(gp) = FixedNoiseGp::fit(Matern52::new(ls, os), x.clone(), &y, &noise) {
                    grid_best = grid_best.max(gp.log_marginal_likelihood());
                }
            }
        }
        let refined = fit_matern_hypers(&x, &y, &noise, &grid_ls, &grid_os).unwrap();
        assert!(
            refined.log_marginal_likelihood() >= grid_best - 1e-9,
            "refined {} vs grid {}",
            refined.log_marginal_likelihood(),
            grid_best
        );
    }

    /// Draws `n` joint samples at `queries ++ x` and returns them as one
    /// row per query point.
    fn joint_rows(
        gp: &FixedNoiseGp<Matern52>,
        queries: &[Vec<f64>],
        n: usize,
        seed: u64,
    ) -> Vec<Vec<f64>> {
        let cands = CandidateSet::new(queries.to_vec());
        let m = cands.len() + gp.n_train();
        let qmc = crate::QmcNormals::new(n);
        let (mut uniforms, mut normals) = (Vec::new(), Vec::new());
        qmc.fill(m, seed, &mut uniforms, &mut normals);
        let mut scratch = JointScratch::default();
        gp.sample_joint(&cands, &normals, n, &mut scratch).unwrap();
        scratch.draws().chunks(n).map(|r| r.to_vec()).collect()
    }

    #[test]
    fn joint_samples_match_posterior_moments() {
        let (x, y) = train_1d(|v| v.cos(), &[0.0, 1.5, 3.0]);
        let gp = FixedNoiseGp::fit(Matern52::new(1.0, 1.0), x, &y, &[1e-4; 3]).unwrap();
        let queries = vec![vec![0.75], vec![2.25]];
        // Five dimensions: all of them Sobol.
        let rows = joint_rows(&gp, &queries, 512, 0);
        let post = gp.posterior(&queries);
        // The first rows are the queries; the training points follow.
        for (q, draws) in rows.iter().take(queries.len()).enumerate() {
            let mean: f64 = draws.iter().sum::<f64>() / draws.len() as f64;
            let var: f64 =
                draws.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / draws.len() as f64;
            assert!(
                (mean - post.mean[q]).abs() < 0.02,
                "q{q} mean {mean} vs {}",
                post.mean[q]
            );
            assert!(
                (var - post.var[q]).abs() < 0.05,
                "q{q} var {var} vs {}",
                post.var[q]
            );
        }
    }

    #[test]
    fn shape_errors_are_reported() {
        let x = vec![vec![0.0], vec![1.0]];
        assert!(FixedNoiseGp::fit(Matern52::new(1.0, 1.0), x.clone(), &[1.0], &[0.1; 2]).is_err());
        assert!(FixedNoiseGp::fit(Matern52::new(1.0, 1.0), x.clone(), &[1.0; 2], &[0.1]).is_err());
        assert!(FixedNoiseGp::fit(Matern52::new(1.0, 1.0), vec![], &[], &[]).is_err());
        let gp = FixedNoiseGp::fit(Matern52::new(1.0, 1.0), x, &[1.0; 2], &[0.1; 2]).unwrap();
        let mut scratch = JointScratch::default();
        // Three points (one candidate, two training) need 3·n normals.
        let one = CandidateSet::new(vec![vec![0.5]]);
        assert!(gp.sample_joint(&one, &[0.0; 4], 2, &mut scratch).is_err());
        assert!(gp.sample_joint(&one, &[0.0; 6], 2, &mut scratch).is_ok());
        // Candidates of the wrong dimension.
        let flat = CandidateSet::new(vec![vec![0.5, 1.0]]);
        assert!(gp.sample_joint(&flat, &[0.0; 6], 2, &mut scratch).is_err());
        assert!(MaternHyperSearch::new(
            vec![vec![0.0], vec![1.0, 2.0]],
            vec![0.0; 2],
            vec![0.1; 2],
            &[1.0],
            &[1.0]
        )
        .is_err());
    }

    /// One-query-at-a-time references for the batched posterior and
    /// joint sampler: the query-major cross covariance, each query
    /// whitened on its own, every pair's prior evaluated, each draw
    /// coloured by its own triangular product.
    mod reference {
        use super::*;
        use tesla_linalg::vector::dot;

        fn kstar(gp: &FixedNoiseGp<Matern52>, queries: &[Vec<f64>]) -> (Vec<f64>, Vec<f64>) {
            let n = gp.x.len();
            let mut flat = Vec::new();
            for q in queries {
                for p in &gp.x {
                    flat.push(gp.kernel.eval(p, q));
                }
            }
            let mut white = flat.clone();
            for chunk in white.chunks_mut(n) {
                let w = gp.chol.forward_substitute(chunk);
                chunk.copy_from_slice(&w);
            }
            (flat, white)
        }

        pub fn posterior(gp: &FixedNoiseGp<Matern52>, queries: &[Vec<f64>]) -> Posterior {
            let n = gp.x.len();
            let (ks, white) = kstar(gp, queries);
            let mut mean = Vec::new();
            let mut var = Vec::new();
            for (k, w) in ks.chunks(n).zip(white.chunks(n)) {
                mean.push(gp.mean + dot(k, &gp.alpha));
                var.push((gp.kernel.diag() - dot(w, w)).max(0.0));
            }
            Posterior { mean, var }
        }

        pub fn posterior_cov(
            gp: &FixedNoiseGp<Matern52>,
            queries: &[Vec<f64>],
        ) -> (Vec<f64>, Matrix) {
            let n = gp.x.len();
            let m = queries.len();
            let (ks, white) = kstar(gp, queries);
            let mean = ks.chunks(n).map(|k| gp.mean + dot(k, &gp.alpha)).collect();
            let mut cov = Matrix::zeros(m, m);
            for i in 0..m {
                let wi = &white[i * n..(i + 1) * n];
                for j in i..m {
                    let wj = &white[j * n..(j + 1) * n];
                    let v = gp.kernel.eval(&queries[i], &queries[j]) - dot(wi, wj);
                    cov[(i, j)] = v;
                    cov[(j, i)] = v;
                }
            }
            (mean, cov)
        }

        pub fn sample_posterior(
            gp: &FixedNoiseGp<Matern52>,
            queries: &[Vec<f64>],
            normals: &[Vec<f64>],
        ) -> Vec<Vec<f64>> {
            let (mean, mut cov) = posterior_cov(gp, queries);
            cov.add_diagonal(1e-9);
            let chol = Cholesky::decompose_jittered(&cov, 1e-9, 12).unwrap();
            let l = chol.factor();
            normals
                .iter()
                .map(|z| {
                    (0..queries.len())
                        .map(|i| {
                            let mut sum = 0.0;
                            for (k, &zk) in z.iter().enumerate().take(i + 1) {
                                sum += l[(i, k)] * zk;
                            }
                            mean[i] + sum
                        })
                        .collect()
                })
                .collect()
        }

        /// `refresh_alpha`'s likelihood, as each try computed it.
        fn with_factor(
            kernel: Matern52,
            x: &[Vec<f64>],
            y: &[f64],
            chol: Cholesky,
        ) -> FixedNoiseGp<Matern52> {
            let n = y.len();
            let mean = y.iter().sum::<f64>() / n as f64;
            let resid: Vec<f64> = y.iter().map(|v| v - mean).collect();
            let alpha = chol.solve(&resid).unwrap();
            let quad: f64 = resid.iter().zip(&alpha).map(|(r, a)| r * a).sum();
            let log_marginal = -0.5 * quad
                - 0.5 * chol.log_det()
                - 0.5 * n as f64 * (2.0 * std::f64::consts::PI).ln();
            FixedNoiseGp {
                kernel,
                x: x.to_vec(),
                chol,
                alpha,
                mean,
                log_marginal,
            }
        }

        /// `select` with the refinement that builds a GP for every try.
        pub fn select_clone_per_try(search: &MaternHyperSearch) -> FixedNoiseGp<Matern52> {
            let (x, y, noise_var, dists) = (&search.x, &search.y, &search.noise_var, &search.dists);
            let try_fit = |ls: f64, os: f64| {
                let kernel = Matern52::new(ls, os);
                let gram = gram_matrix(&kernel, dists, noise_var);
                Cholesky::decompose_jittered(&gram, 1e-8, 12)
                    .ok()
                    .map(|chol| with_factor(kernel, x, y, chol))
            };
            let mut best: Option<(usize, FixedNoiseGp<Matern52>)> = None;
            for (ci, cand) in search.candidates.iter().enumerate() {
                let Some(chol) = cand.chol.clone() else {
                    continue;
                };
                let kernel = Matern52::new(cand.lengthscale, cand.outputscale);
                let gp = with_factor(kernel, x, y, chol);
                if best
                    .as_ref()
                    .is_none_or(|(_, b)| gp.log_marginal_likelihood() > b.log_marginal_likelihood())
                {
                    best = Some((ci, gp));
                }
            }
            let (ci, mut gp) = best.unwrap();
            let (mut ls, mut os) = (
                search.candidates[ci].lengthscale,
                search.candidates[ci].outputscale,
            );
            let mut step = 1.6;
            for _round in 0..6 {
                let mut improved = false;
                for (dl, do_) in [
                    (step, 1.0),
                    (1.0 / step, 1.0),
                    (1.0, step),
                    (1.0, 1.0 / step),
                ] {
                    let (cl, co) = (ls * dl, os * do_);
                    if let Some(cand) = try_fit(cl, co) {
                        if cand.log_marginal_likelihood() > gp.log_marginal_likelihood() {
                            ls = cl;
                            os = co;
                            gp = cand;
                            improved = true;
                        }
                    }
                }
                if !improved {
                    step = step.sqrt();
                    if step < 1.05 {
                        break;
                    }
                }
            }
            gp
        }
    }

    fn same_bits(a: &[f64], b: &[f64]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    }

    /// A GP over 1-D points like the optimizer's: Sobol-ish interior
    /// points plus two bounds, noisy targets.
    fn optimizer_like_gp(n: usize, lengthscale: f64) -> FixedNoiseGp<Matern52> {
        let xs: Vec<f64> = (0..n).map(|i| 20.0 + (i as f64 * 7.3) % 15.0).collect();
        let (x, y) = train_1d(|v| (v / 2.3).sin() * 3.0 - 0.02 * v * v, &xs);
        FixedNoiseGp::fit(Matern52::new(lengthscale, 4.0), x, &y, &vec![1e-3; n]).unwrap()
    }

    fn grid(n: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| vec![20.0 + 15.0 * i as f64 / (n - 1) as f64])
            .collect()
    }

    #[test]
    fn candidate_set_tabulates_distinct_distances_by_bits() {
        // Table 2's grid: 61 exact points, 61 distinct distances.
        let table2 = CandidateSet::new(grid(61));
        assert_eq!(table2.len(), 61);
        assert_eq!(table2.distances.len(), 61);
        let irregular = CandidateSet::new(grid(14));
        assert!(irregular.distances.len() >= 14);
        assert!(CandidateSet::new(Vec::new()).is_empty());
    }

    #[test]
    fn joint_sampler_is_bit_identical_to_posterior_cov_and_sample_posterior() {
        for (n_grid, n_train, ls, n_draws) in [(61, 14, 3.0, 64), (14, 19, 1.0, 8), (4, 1, 8.0, 1)]
        {
            let gp = optimizer_like_gp(n_train, ls);
            let cands = grid(n_grid);
            let got = joint_rows(&gp, &cands, n_draws, 17);
            // The reference takes the same normals as one row per draw.
            let queries: Vec<Vec<f64>> = cands.iter().chain(gp.inputs()).cloned().collect();
            let m = queries.len();
            let qmc = crate::QmcNormals::new(n_draws);
            let (mut uniforms, mut normals) = (Vec::new(), Vec::new());
            qmc.fill(m, 17, &mut uniforms, &mut normals);
            let rows: Vec<Vec<f64>> = (0..n_draws)
                .map(|s| (0..m).map(|k| normals[k * n_draws + s]).collect())
                .collect();
            let want = reference::sample_posterior(&gp, &queries, &rows);
            for (i, point) in got.iter().enumerate() {
                let column: Vec<f64> = want.iter().map(|draw| draw[i]).collect();
                assert!(same_bits(point, &column), "grid {n_grid} point {i}");
            }
        }
    }

    #[test]
    fn batched_posterior_is_bit_identical_to_per_query() {
        let gp = optimizer_like_gp(17, 3.0);
        let mut queries = grid(61);
        queries.extend(gp.inputs().iter().cloned());
        let got = gp.posterior(&queries);
        let want = reference::posterior(&gp, &queries);
        assert!(same_bits(&got.mean, &want.mean));
        assert!(same_bits(&got.var, &want.var));
        assert!(gp.posterior(&[]).mean.is_empty());
    }

    #[test]
    fn buffered_refinement_is_bit_identical_to_clone_per_try() {
        for (n, ls_grid, os_grid) in [
            (14, vec![0.3, 1.0, 3.0, 8.0], vec![0.5, 2.0, 6.0]),
            (19, vec![0.3, 1.0, 3.0, 8.0], vec![0.1, 0.3, 0.9]),
            (9, vec![0.05, 20.0], vec![30.0]),
        ] {
            let xs: Vec<f64> = (0..n).map(|i| 20.0 + (i as f64 * 4.1) % 15.0).collect();
            let (x, y) = train_1d(|v| (v / 1.7).cos() * 2.0 + 0.1 * v, &xs);
            let mut search =
                MaternHyperSearch::new(x, y, vec![2e-3; n], &ls_grid, &os_grid).unwrap();
            // Twice on the same search (the buffers are reused), then once
            // after an append.
            for round in 0..3 {
                if round == 2 {
                    search.append(vec![27.3], 0.4, 2e-3).unwrap();
                }
                let got = search.select().unwrap();
                let want = reference::select_clone_per_try(&search);
                let tag = format!("n {n} round {round}");
                assert_eq!(
                    got.kernel.lengthscale.to_bits(),
                    want.kernel.lengthscale.to_bits(),
                    "{tag}"
                );
                assert_eq!(
                    got.kernel.outputscale.to_bits(),
                    want.kernel.outputscale.to_bits(),
                    "{tag}"
                );
                assert_eq!(
                    got.log_marginal_likelihood().to_bits(),
                    want.log_marginal_likelihood().to_bits(),
                    "{tag}"
                );
                assert!(same_bits(&got.alpha, &want.alpha), "{tag}");
                assert!(
                    same_bits(got.chol.factor().as_slice(), want.chol.factor().as_slice()),
                    "{tag}"
                );
            }
        }
    }

    #[test]
    fn hyper_search_select_matches_batch_fit() {
        let xs: Vec<f64> = (0..12).map(|i| i as f64 * 0.6).collect();
        let (x, y) = train_1d(|v| (v / 2.0).sin() * 1.5, &xs);
        let noise = vec![1e-3; xs.len()];
        let ls_grid = [0.3, 1.0, 3.0, 8.0];
        let os_grid = [0.5, 1.5, 4.5];
        let mut search =
            MaternHyperSearch::new(x.clone(), y.clone(), noise.clone(), &ls_grid, &os_grid)
                .unwrap();
        let inc = search.select().unwrap();
        let full = fit_matern_hypers(&x, &y, &noise, &ls_grid, &os_grid).unwrap();
        let queries: Vec<Vec<f64>> = (0..8).map(|i| vec![i as f64 * 0.9]).collect();
        let pi = inc.posterior(&queries);
        let pf = full.posterior(&queries);
        for q in 0..queries.len() {
            assert!((pi.mean[q] - pf.mean[q]).abs() < 1e-9);
            assert!((pi.var[q] - pf.var[q]).abs() < 1e-9);
        }
    }

    #[test]
    fn hyper_search_append_matches_fresh_search() {
        let xs: Vec<f64> = (0..10).map(|i| i as f64 * 0.7).collect();
        let (x, y) = train_1d(|v| (v / 3.0).cos(), &xs);
        let noise = vec![1e-3; xs.len()];
        let ls_grid = [0.3, 1.0, 3.0];
        let os_grid = [0.4, 1.2];
        let mut search =
            MaternHyperSearch::new(x.clone(), y.clone(), noise.clone(), &ls_grid, &os_grid)
                .unwrap();
        search
            .append(vec![7.3], (7.3f64 / 3.0).cos(), 1e-3)
            .unwrap();
        search
            .append(vec![8.1], (8.1f64 / 3.0).cos(), 1e-3)
            .unwrap();
        assert_eq!(search.n_train(), 12);

        let mut x_full = x;
        x_full.push(vec![7.3]);
        x_full.push(vec![8.1]);
        let mut y_full = y;
        y_full.push((7.3f64 / 3.0).cos());
        y_full.push((8.1f64 / 3.0).cos());
        let mut noise_full = noise;
        noise_full.push(1e-3);
        noise_full.push(1e-3);
        let mut fresh =
            MaternHyperSearch::new(x_full, y_full, noise_full, &ls_grid, &os_grid).unwrap();

        // The appended factors are bit-identical to refactoring, so the
        // two searches select the same GP to the last bit.
        let inc = search.select().unwrap();
        let batch = fresh.select().unwrap();
        assert_eq!(
            inc.log_marginal_likelihood().to_bits(),
            batch.log_marginal_likelihood().to_bits()
        );
        assert!(same_bits(
            inc.chol.factor().as_slice(),
            batch.chol.factor().as_slice()
        ));
        let queries: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64 * 0.8]).collect();
        let pi = inc.posterior(&queries);
        let pb = batch.posterior(&queries);
        assert!(same_bits(&pi.mean, &pb.mean));
        assert!(same_bits(&pi.var, &pb.var));
    }

    #[test]
    fn hyper_search_validates_shapes() {
        assert!(MaternHyperSearch::new(vec![], vec![], vec![], &[1.0], &[1.0]).is_err());
        assert!(
            MaternHyperSearch::new(vec![vec![0.0]], vec![1.0, 2.0], vec![0.1], &[1.0], &[1.0])
                .is_err()
        );
        let mut ok = MaternHyperSearch::new(
            vec![vec![0.0], vec![1.0]],
            vec![0.0, 1.0],
            vec![0.1; 2],
            &[1.0],
            &[1.0],
        )
        .unwrap();
        assert!(ok.append(vec![1.0, 2.0], 0.0, 0.1).is_err());
    }
}
