//! Covariance kernels.

/// A stationary covariance kernel on `R^d`.
///
/// Stationary kernels depend on the inputs only through their Euclidean
/// distance, so the required method is [`Kernel::eval_dist`]; `eval`
/// derives from it. This split is what lets the GP hyper-parameter
/// search compute the pairwise-distance matrix *once* and re-evaluate
/// the kernel over it for every lengthscale/outputscale candidate.
pub trait Kernel: Send + Sync {
    /// Covariance at unscaled Euclidean distance `r` (lengthscale applied
    /// internally).
    fn eval_dist(&self, r: f64) -> f64;

    /// Covariance between two points.
    fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        self.eval_dist(euclidean_distance(a, b))
    }

    /// Prior variance at a point (`eval(x, x)` for stationary kernels).
    fn diag(&self) -> f64;
}

/// Unscaled Euclidean distance between two points — the quantity the
/// distance cache stores per pair.
pub fn euclidean_distance(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut s = 0.0;
    for (x, y) in a.iter().zip(b) {
        let d = x - y;
        s += d * d;
    }
    s.sqrt()
}

/// Matérn 5/2 kernel — the covariance the paper uses (\[37\], §3.3):
///
/// `k(r) = σ² (1 + √5 r + 5r²/3) exp(−√5 r)` with `r = ‖a−b‖ / ℓ`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Matern52 {
    /// Lengthscale ℓ.
    pub lengthscale: f64,
    /// Output scale σ² (prior variance).
    pub outputscale: f64,
}

impl Matern52 {
    /// Creates the kernel; parameters are clamped to be positive.
    pub fn new(lengthscale: f64, outputscale: f64) -> Self {
        Matern52 {
            lengthscale: lengthscale.max(1e-9),
            outputscale: outputscale.max(1e-12),
        }
    }

    /// The lengthscale-only factors `(1 + √5 r + 5r²/3, exp(−√5 r))` of
    /// the covariance at distance `dist`. [`Kernel::eval_dist`] is
    /// `(outputscale · poly) · exp`, so a hyper search that varies only
    /// the outputscale reuses these and pays no `exp`.
    #[inline]
    pub fn shape(&self, dist: f64) -> (f64, f64) {
        let r = dist / self.lengthscale;
        let sqrt5_r = 5.0_f64.sqrt() * r;
        (1.0 + sqrt5_r + 5.0 * r * r / 3.0, (-sqrt5_r).exp())
    }
}

impl Kernel for Matern52 {
    fn eval_dist(&self, dist: f64) -> f64 {
        let (poly, exp) = self.shape(dist);
        self.outputscale * poly * exp
    }

    fn diag(&self) -> f64 {
        self.outputscale
    }
}

/// Squared-exponential (RBF) kernel, kept for comparison and tests:
/// `k(r) = σ² exp(−r²/2)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rbf {
    /// Lengthscale ℓ.
    pub lengthscale: f64,
    /// Output scale σ².
    pub outputscale: f64,
}

impl Rbf {
    /// Creates the kernel; parameters are clamped to be positive.
    pub fn new(lengthscale: f64, outputscale: f64) -> Self {
        Rbf {
            lengthscale: lengthscale.max(1e-9),
            outputscale: outputscale.max(1e-12),
        }
    }
}

impl Kernel for Rbf {
    fn eval_dist(&self, dist: f64) -> f64 {
        let r = dist / self.lengthscale;
        self.outputscale * (-0.5 * r * r).exp()
    }

    fn diag(&self) -> f64 {
        self.outputscale
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matern_at_zero_distance_equals_outputscale() {
        let k = Matern52::new(1.0, 2.5);
        assert!((k.eval(&[3.0], &[3.0]) - 2.5).abs() < 1e-12);
        assert_eq!(k.diag(), 2.5);
    }

    #[test]
    fn matern_decays_with_distance() {
        let k = Matern52::new(1.0, 1.0);
        let near = k.eval(&[0.0], &[0.1]);
        let mid = k.eval(&[0.0], &[1.0]);
        let far = k.eval(&[0.0], &[5.0]);
        assert!(near > mid && mid > far);
        assert!(far > 0.0, "Matérn never reaches exactly zero");
    }

    #[test]
    fn matern_is_symmetric() {
        let k = Matern52::new(0.7, 1.3);
        assert_eq!(
            k.eval(&[1.0, 2.0], &[3.0, -1.0]),
            k.eval(&[3.0, -1.0], &[1.0, 2.0])
        );
    }

    #[test]
    fn longer_lengthscale_means_slower_decay() {
        let short = Matern52::new(0.5, 1.0);
        let long = Matern52::new(5.0, 1.0);
        assert!(long.eval(&[0.0], &[1.0]) > short.eval(&[0.0], &[1.0]));
    }

    #[test]
    fn rbf_matches_known_value() {
        let k = Rbf::new(1.0, 1.0);
        // exp(-0.5) at distance 1.
        assert!((k.eval(&[0.0], &[1.0]) - (-0.5f64).exp()).abs() < 1e-12);
    }

    #[test]
    fn matern_heavier_tail_than_rbf() {
        let m = Matern52::new(1.0, 1.0);
        let r = Rbf::new(1.0, 1.0);
        assert!(m.eval(&[0.0], &[3.0]) > r.eval(&[0.0], &[3.0]));
    }

    #[test]
    fn eval_dist_consistent_with_eval() {
        let k = Matern52::new(0.8, 1.7);
        let a = [1.0, -2.0];
        let b = [0.5, 3.0];
        let r = euclidean_distance(&a, &b);
        assert_eq!(k.eval(&a, &b), k.eval_dist(r));
        let rbf = Rbf::new(2.0, 0.5);
        assert_eq!(rbf.eval(&a, &b), rbf.eval_dist(r));
    }

    #[test]
    fn shape_factors_reproduce_eval_dist() {
        let k = Matern52::new(0.8, 1.7);
        for d in [0.0, 0.25, 1.0, 3.7, 40.0] {
            let (poly, exp) = k.shape(d);
            assert_eq!(
                k.eval_dist(d).to_bits(),
                (k.outputscale * poly * exp).to_bits()
            );
        }
    }

    #[test]
    fn degenerate_params_are_clamped() {
        let k = Matern52::new(0.0, -1.0);
        assert!(k.lengthscale > 0.0);
        assert!(k.outputscale > 0.0);
    }
}
