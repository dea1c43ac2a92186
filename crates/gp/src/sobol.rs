//! Sobol low-discrepancy sequences and quasi-Monte-Carlo normal draws.
//!
//! The paper's acquisition function (constrained NEI \[21\]) integrates
//! expected improvement over posterior samples using quasi-Monte Carlo.
//! QMC standard normals are obtained the usual way: a Sobol point in
//! `[0,1)^d` pushed through the inverse normal CDF.
//!
//! Direction numbers are the first eight dimensions of the Joe–Kuo
//! "new-joe-kuo-6" table. The optimizer's search space is
//! one-dimensional, but NEI's joint posterior has one dimension per
//! point (candidates plus observations, about 80): [`QmcNormals`] takes
//! the first 8 coordinates from Sobol and the rest from a seeded
//! xorshift stream.

// analysis:allow-file(panic-free-control-path): direction-number
// tables are indexed by construction (dimension and bit counts are
// compile-time constants).
// analysis:allow-file(no-alloc-in-decide-steady-state): the Sobol
// prefix is tabulated once per optimizer; each draw refills the
// caller's buffers, which grow only with the point count.
const MAX_DIMS: usize = 8;
const BITS: usize = 31;

/// (s, a, m...) rows of the Joe–Kuo table for dimensions 2..=8; dimension
/// 1 is the van der Corput sequence.
const JOE_KUO: [(u32, u32, &[u32]); 7] = [
    (1, 0, &[1]),
    (2, 1, &[1, 3]),
    (3, 1, &[1, 3, 1]),
    (3, 2, &[1, 1, 1]),
    (4, 1, &[1, 1, 3, 3]),
    (4, 4, &[1, 3, 5, 13]),
    (5, 2, &[1, 1, 5, 5, 17]),
];

/// A Sobol sequence generator over `[0,1)^d`, Gray-code ordering.
#[derive(Debug, Clone)]
pub struct SobolSequence {
    dims: usize,
    /// Direction numbers: `v[d][k]`, already shifted to 31-bit fixed point.
    v: Vec<[u32; BITS]>,
    /// Current integer state per dimension.
    x: Vec<u32>,
    /// Index of the next point (0-based).
    index: u64,
}

impl SobolSequence {
    /// Creates a generator for `dims` dimensions (1..=8).
    ///
    /// # Panics
    /// Panics if `dims` is 0 or exceeds the supported table.
    pub fn new(dims: usize) -> Self {
        assert!(
            (1..=MAX_DIMS).contains(&dims),
            "supported dims: 1..={MAX_DIMS}"
        );
        let mut v = Vec::with_capacity(dims);
        // Dimension 1: van der Corput, v_k = 1 << (31 - k).
        let mut v0 = [0u32; BITS];
        for (k, slot) in v0.iter_mut().enumerate() {
            *slot = 1 << (BITS - 1 - k);
        }
        v.push(v0);
        for d in 1..dims {
            let (s, a, m) = JOE_KUO[d - 1];
            let s = s as usize;
            let mut mi = [0u32; BITS];
            mi[..s].copy_from_slice(&m[..s.min(m.len())]);
            // Recurrence for k >= s:
            // m_k = 2a_1 m_{k-1} ^ 4a_2 m_{k-2} ^ ... ^ 2^s m_{k-s} ^ m_{k-s}
            for k in s..BITS {
                let mut val = mi[k - s] ^ (mi[k - s] << s);
                for j in 1..s {
                    let bit = (a >> (s - 1 - j)) & 1;
                    if bit == 1 {
                        val ^= mi[k - j] << j;
                    }
                }
                mi[k] = val;
            }
            let mut vd = [0u32; BITS];
            for k in 0..BITS {
                vd[k] = mi[k] << (BITS - 1 - k);
            }
            v.push(vd);
        }
        SobolSequence {
            dims,
            v,
            x: vec![0; dims],
            index: 0,
        }
    }

    /// Number of dimensions.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Produces the next point in `[0,1)^d`.
    pub fn next_point(&mut self) -> Vec<f64> {
        // Gray-code: flip the direction number of the lowest zero bit of
        // the running index.
        let c = (!self.index).trailing_zeros() as usize;
        let c = c.min(BITS - 1);
        let mut out = Vec::with_capacity(self.dims);
        for d in 0..self.dims {
            // The first emitted point is the origin; flip afterwards.
            out.push(self.x[d] as f64 / (1u64 << BITS) as f64);
            self.x[d] ^= self.v[d][c];
        }
        self.index += 1;
        out
    }

    /// Generates `n` points as rows.
    pub fn take(&mut self, n: usize) -> Vec<Vec<f64>> {
        (0..n).map(|_| self.next_point()).collect()
    }
}

/// Acklam's central-region coefficients (numerator `A`, denominator `B`).
const ACKLAM_A: [f64; 6] = [
    -3.969683028665376e+01,
    2.209460984245205e+02,
    -2.759285104469687e+02,
    1.383_577_518_672_69e2,
    -3.066479806614716e+01,
    2.506628277459239e+00,
];
const ACKLAM_B: [f64; 5] = [
    -5.447609879822406e+01,
    1.615858368580409e+02,
    -1.556989798598866e+02,
    6.680131188771972e+01,
    -1.328068155288572e+01,
];
/// Below `P_LOW` (and above `1 − P_LOW`) Acklam's tail branch applies.
const P_LOW: f64 = 0.02425;

/// The central branch of [`inverse_normal_cdf`], exact for
/// `P_LOW <= p <= 1 − P_LOW`. Branch-free, so a loop over many `p`
/// vectorizes.
#[inline(always)]
fn acklam_central(p: f64) -> f64 {
    const A: [f64; 6] = ACKLAM_A;
    const B: [f64; 5] = ACKLAM_B;
    let q = p - 0.5;
    let r = q * q;
    (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
        / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
}

/// True when `p` falls in a tail of [`inverse_normal_cdf`].
#[inline(always)]
fn in_tail(p: f64) -> bool {
    !(P_LOW..=1.0 - P_LOW).contains(&p)
}

/// Acklam's rational approximation to the inverse standard-normal CDF
/// (relative error below 1.15e-9 — far beyond what QMC integration needs).
pub fn inverse_normal_cdf(p: f64) -> f64 {
    // Clamp away from the poles.
    let p = p.clamp(1e-300, 1.0 - 1e-16);

    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];

    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        acklam_central(p)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

/// Standard-normal CDF via the Abramowitz–Stegun erf approximation
/// (7.1.26, |error| < 1.5e-7) — used for probability-of-feasibility.
pub fn normal_cdf(z: f64) -> f64 {
    let x = z / std::f64::consts::SQRT_2;
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let poly = t
        * (0.254829592
            + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429))));
    let erf = sign * (1.0 - poly * (-x * x).exp());
    0.5 * (1.0 + erf)
}

/// QMC-where-possible standard-normal draws of any dimension, for a fixed
/// number of draws.
///
/// The first `min(dims, 8)` coordinates of every draw come from the Sobol
/// sequence (origin skipped), the rest from a seeded xorshift stream, all
/// pushed through [`inverse_normal_cdf`]. The paper's BoTorch setup uses
/// scrambled Sobol at any dimension; this hybrid keeps the QMC benefit on
/// the leading coordinates while supporting the joint posteriors NEI
/// integrates over (observed points plus candidates).
///
/// The Sobol prefix does not depend on the seed, so it is tabulated once
/// here. Draws are written dimension-major (`out[k * n + s]` is
/// coordinate `k` of draw `s`), the layout the GP's joint sampler
/// colours with one matrix product.
#[derive(Debug, Clone)]
pub struct QmcNormals {
    /// Draws per block.
    n: usize,
    /// Normals of the Sobol prefix, dimension-major: `sobol[k * n + s]`.
    sobol: Vec<f64>,
}

impl QmcNormals {
    /// Tabulates the Sobol prefix for blocks of `n` draws.
    pub fn new(n: usize) -> Self {
        let mut seq = SobolSequence::new(MAX_DIMS);
        let _ = seq.next_point(); // drop the origin
        let mut sobol = vec![0.0; MAX_DIMS * n];
        for s in 0..n {
            for (k, u) in seq.next_point().into_iter().enumerate() {
                sobol[k * n + s] = inverse_normal_cdf(u);
            }
        }
        QmcNormals { n, sobol }
    }

    /// Draws per block.
    pub fn n_draws(&self) -> usize {
        self.n
    }

    /// Fills `out` with one block of `dims`-dimensional draws for `seed`,
    /// dimension-major. `uniforms` is scratch space.
    ///
    /// The xorshift uniforms are drawn in draw-major order, so the same
    /// seed gives the same numbers at every dimension count. The central
    /// branch of the inverse CDF then runs over all of them in one
    /// branch-free loop, and the few values in the tails (about 5%) are
    /// redone with [`inverse_normal_cdf`]; every value is bit-identical
    /// to calling [`inverse_normal_cdf`] on it.
    pub fn fill(&self, dims: usize, seed: u64, uniforms: &mut Vec<f64>, out: &mut Vec<f64>) {
        let n = self.n;
        let qmc_dims = dims.min(MAX_DIMS);
        out.clear();
        out.extend_from_slice(&self.sobol[..qmc_dims * n]);
        let rest = dims - qmc_dims;
        uniforms.clear();
        uniforms.resize(rest * n, 0.0);
        if rest > 0 {
            let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
            for s in 0..n {
                for k in 0..rest {
                    state ^= state >> 12;
                    state ^= state << 25;
                    state ^= state >> 27;
                    uniforms[k * n + s] = ((state.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64
                        / (1u64 << 53) as f64)
                        .clamp(1e-12, 1.0 - 1e-12);
                }
            }
        }
        out.extend(uniforms.iter().map(|&u| acklam_central(u)));
        for (z, &u) in out[qmc_dims * n..].iter_mut().zip(uniforms.iter()) {
            if in_tail(u) {
                *z = inverse_normal_cdf(u);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The row-per-draw generator [`QmcNormals`] replaced: Sobol for the
    /// first `min(dims, 8)` coordinates, xorshift for the rest, each value
    /// through the scalar inverse CDF.
    fn qmc_normal_hybrid(n: usize, dims: usize, seed: u64) -> Vec<Vec<f64>> {
        let qmc_dims = dims.min(MAX_DIMS);
        let mut seq = SobolSequence::new(qmc_dims.max(1));
        let _ = seq.next_point();
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut uniform = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            ((state.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64)
                .clamp(1e-12, 1.0 - 1e-12)
        };
        (0..n)
            .map(|_| {
                let mut row: Vec<f64> = if dims == 0 {
                    Vec::new()
                } else {
                    seq.next_point()
                        .into_iter()
                        .map(inverse_normal_cdf)
                        .collect()
                };
                while row.len() < dims {
                    row.push(inverse_normal_cdf(uniform()));
                }
                row
            })
            .collect()
    }

    /// One dimension-major block as rows, one per draw.
    fn block_rows(n: usize, dims: usize, seed: u64) -> Vec<Vec<f64>> {
        let qmc = QmcNormals::new(n);
        let (mut uniforms, mut out) = (Vec::new(), Vec::new());
        qmc.fill(dims, seed, &mut uniforms, &mut out);
        assert_eq!(out.len(), dims * n);
        (0..n)
            .map(|s| (0..dims).map(|k| out[k * n + s]).collect())
            .collect()
    }

    #[test]
    fn dimension_major_block_is_bit_identical_to_row_per_draw() {
        for dims in [0, 1, 8, 9, 80] {
            for n in [1, 8, 64] {
                for seed in [0, 7, u64::MAX] {
                    let want = qmc_normal_hybrid(n, dims, seed);
                    let got = block_rows(n, dims, seed);
                    for (g, w) in got.iter().zip(&want) {
                        let same = g.len() == w.len()
                            && g.iter().zip(w).all(|(a, b)| a.to_bits() == b.to_bits());
                        assert!(same, "dims {dims} draws {n} seed {seed}");
                    }
                }
            }
        }
    }

    #[test]
    fn reused_buffers_shrink_to_the_requested_block() {
        let qmc = QmcNormals::new(8);
        let (mut uniforms, mut out) = (Vec::new(), Vec::new());
        qmc.fill(80, 3, &mut uniforms, &mut out);
        qmc.fill(9, 3, &mut uniforms, &mut out);
        assert_eq!(out.len(), 9 * 8);
        assert_eq!(qmc.n_draws(), 8);
    }

    #[test]
    fn normal_cdf_known_values() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-7);
        assert!((normal_cdf(1.959964) - 0.975).abs() < 1e-5);
        assert!((normal_cdf(-1.0) - 0.158655).abs() < 1e-5);
        assert!(normal_cdf(8.0) > 0.999999);
        assert!(normal_cdf(-8.0) < 1e-6);
    }

    #[test]
    fn normal_cdf_inverts_inverse() {
        for i in 1..40 {
            let p = i as f64 / 40.0;
            let z = inverse_normal_cdf(p);
            assert!((normal_cdf(z) - p).abs() < 1e-5, "p={p}");
        }
    }

    #[test]
    fn hybrid_draws_have_unit_moments_in_high_dims() {
        let draws = block_rows(2048, 20, 7);
        for d in [0, 7, 8, 19] {
            let mean: f64 = draws.iter().map(|r| r[d]).sum::<f64>() / draws.len() as f64;
            let var: f64 =
                draws.iter().map(|r| (r[d] - mean).powi(2)).sum::<f64>() / draws.len() as f64;
            assert!(mean.abs() < 0.06, "dim {d} mean {mean}");
            assert!((var - 1.0).abs() < 0.12, "dim {d} var {var}");
        }
    }

    #[test]
    fn hybrid_is_deterministic_per_seed() {
        let a = block_rows(10, 12, 3);
        let b = block_rows(10, 12, 3);
        let c = block_rows(10, 12, 4);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn first_points_match_reference() {
        // Known first points of the 2-D Sobol sequence:
        // (0,0), (0.5,0.5), (0.75,0.25), (0.25,0.75), ...
        let mut seq = SobolSequence::new(2);
        assert_eq!(seq.next_point(), vec![0.0, 0.0]);
        assert_eq!(seq.next_point(), vec![0.5, 0.5]);
        assert_eq!(seq.next_point(), vec![0.75, 0.25]);
        assert_eq!(seq.next_point(), vec![0.25, 0.75]);
        assert_eq!(seq.next_point(), vec![0.375, 0.375]);
    }

    #[test]
    fn points_stay_in_unit_cube() {
        let mut seq = SobolSequence::new(8);
        for _ in 0..2000 {
            for v in seq.next_point() {
                assert!((0.0..1.0).contains(&v));
            }
        }
    }

    #[test]
    fn low_discrepancy_beats_grid_expectation() {
        // Integrating f(x) = x over [0,1): error of first n Sobol points
        // should shrink ~1/n. Check absolute error at n = 512.
        let mut seq = SobolSequence::new(1);
        let n = 512;
        let mean: f64 = (0..n).map(|_| seq.next_point()[0]).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 2e-3, "Sobol mean {mean}");
    }

    #[test]
    fn distinct_dimensions_are_not_identical() {
        let mut seq = SobolSequence::new(4);
        let _ = seq.next_point();
        let p = seq.take(50);
        for d in 1..4 {
            let same = p.iter().all(|row| row[0] == row[d]);
            assert!(!same, "dimension {d} duplicates dimension 0");
        }
    }

    #[test]
    #[should_panic(expected = "supported dims")]
    fn too_many_dims_panics() {
        let _ = SobolSequence::new(9);
    }

    #[test]
    fn inverse_normal_cdf_known_values() {
        assert!(inverse_normal_cdf(0.5).abs() < 1e-9);
        assert!((inverse_normal_cdf(0.975) - 1.959964).abs() < 1e-4);
        assert!((inverse_normal_cdf(0.025) + 1.959964).abs() < 1e-4);
        assert!((inverse_normal_cdf(0.8413447) - 1.0).abs() < 1e-4);
    }

    #[test]
    fn inverse_normal_cdf_is_monotone_and_symmetric() {
        let mut prev = f64::NEG_INFINITY;
        for i in 1..100 {
            let p = i as f64 / 100.0;
            let z = inverse_normal_cdf(p);
            assert!(z > prev);
            prev = z;
            let z2 = inverse_normal_cdf(1.0 - p);
            assert!((z + z2).abs() < 1e-7, "symmetry at p={p}");
        }
    }
}
