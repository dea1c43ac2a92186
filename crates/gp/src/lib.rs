#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Gaussian-process machinery for TESLA's Bayesian optimizer (§3.3).
//!
//! The paper's optimizer fits two *separate fixed-noise* Gaussian
//! processes — one for the objective, one for the constraint — with the
//! Matérn 5/2 covariance kernel \[37\], using BoTorch's `FixedNoiseGP`.
//! Its acquisition function (constrained Noisy Expected Improvement)
//! integrates over posterior samples with quasi-Monte Carlo.
//!
//! This crate supplies those pieces:
//!
//! * [`kernel`] — Matérn 5/2 and RBF kernels with lengthscale/outputscale.
//! * [`gp::FixedNoiseGp`] — exact GP regression with per-observation
//!   noise variances, constant mean, posterior mean/variance, joint
//!   posterior sampling at a [`CandidateSet`] plus the training points,
//!   log marginal likelihood, and a small grid-search hyper-parameter fit.
//! * [`sobol`] — a Sobol low-discrepancy sequence (direction numbers for
//!   the first 8 dimensions) plus the inverse normal CDF, which together
//!   give the QMC standard-normal draws NEI integrates with
//!   ([`QmcNormals`]).
//!
//! # Example: fixed-noise GP posterior
//!
//! ```
//! use tesla_gp::{FixedNoiseGp, Matern52};
//!
//! let x = vec![vec![0.0], vec![1.0], vec![2.0]];
//! let gp = FixedNoiseGp::fit(Matern52::new(1.0, 1.0), x, &[0.0, 1.0, 0.0], &[1e-6; 3])?;
//! let post = gp.posterior(&[vec![1.0]]);
//! // At an observed input with tiny noise, the posterior pins the data.
//! assert!((post.mean[0] - 1.0).abs() < 1e-2);
//! assert!(post.var[0] < 1e-3);
//! # Ok::<(), tesla_gp::GpError>(())
//! ```

pub mod gp;
pub mod kernel;
pub mod sobol;

pub use gp::{
    fit_matern_hypers, pairwise_distances, CandidateSet, FixedNoiseGp, JointScratch,
    MaternHyperSearch, Posterior,
};
pub use kernel::{euclidean_distance, Kernel, Matern52, Rbf};
pub use sobol::{inverse_normal_cdf, normal_cdf, QmcNormals, SobolSequence};

/// Errors from GP fitting and prediction.
#[derive(Debug, Clone, PartialEq)]
pub enum GpError {
    /// Input shapes disagree.
    Shape(String),
    /// The kernel matrix could not be factored.
    Numerical(String),
    /// No training data.
    Empty,
}

impl std::fmt::Display for GpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GpError::Shape(m) => write!(f, "shape error: {m}"),
            GpError::Numerical(m) => write!(f, "numerical failure: {m}"),
            GpError::Empty => write!(f, "no training data"),
        }
    }
}

impl std::error::Error for GpError {}
