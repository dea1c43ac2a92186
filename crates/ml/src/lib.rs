#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Baseline learners used in the paper's modeling comparisons.
//!
//! Table 3 benchmarks TESLA's temperature model against an MLP (Wang et
//! al. \[42\]); Table 4 benchmarks the cooling-energy sub-module against an
//! MLP, XGBoost \[7\], and a Random Forest \[26\]. The original implementations
//! are Python libraries unavailable to a pure-Rust reproduction, so this
//! crate implements the same model classes from scratch:
//!
//! * [`mlp::Mlp`] — multi-layer perceptron with ReLU hidden layers,
//!   multi-output linear head, Adam optimizer, mini-batch MSE training.
//! * [`tree::RegressionTree`] — CART regression tree (variance-reduction
//!   splits), the shared base learner.
//! * [`gbt::GradientBoosting`] — gradient-boosted trees with shrinkage
//!   and row subsampling (the XGBoost stand-in for squared loss).
//! * [`forest::RandomForest`] — bagged trees with feature subsampling.
//!
//! All models share the [`Dataset`] container and operate on `f64`
//! features/targets.
//!
//! # Example: CART tree on a separable dataset
//!
//! ```
//! use tesla_ml::{Dataset, RegressionTree, TreeConfig};
//!
//! let data = Dataset::new(
//!     vec![vec![0.0], vec![1.0], vec![10.0], vec![11.0]],
//!     vec![0.0, 0.0, 5.0, 5.0],
//! )?;
//! let tree = RegressionTree::fit(&data, &TreeConfig::default())?;
//! assert_eq!(tree.predict(&[10.5]), 5.0);
//! # Ok::<(), tesla_ml::MlError>(())
//! ```

pub mod forest;
pub mod gbt;
pub mod mlp;
pub mod tree;

pub use forest::{ForestConfig, RandomForest};
pub use gbt::{GbtConfig, GradientBoosting};
pub use mlp::{Mlp, MlpConfig};
pub use tree::{RegressionTree, TreeConfig};

/// A supervised dataset: rows of features plus one target per row.
#[derive(Debug, Clone, Default)]
pub struct Dataset {
    /// Feature rows.
    pub x: Vec<Vec<f64>>,
    /// Targets, one per row.
    pub y: Vec<f64>,
}

impl Dataset {
    /// Builds a dataset, checking row/target alignment and rectangularity.
    pub fn new(x: Vec<Vec<f64>>, y: Vec<f64>) -> Result<Self, MlError> {
        if x.len() != y.len() {
            return Err(MlError::Shape(format!(
                "{} feature rows vs {} targets",
                x.len(),
                y.len()
            )));
        }
        if let Some(first) = x.first() {
            let d = first.len();
            if x.iter().any(|r| r.len() != d) {
                return Err(MlError::Shape("ragged feature rows".into()));
            }
        }
        Ok(Dataset { x, y })
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.y.len()
    }

    /// True when the dataset has no rows.
    pub fn is_empty(&self) -> bool {
        self.y.is_empty()
    }

    /// Number of features (0 for an empty dataset).
    pub fn n_features(&self) -> usize {
        self.x.first().map_or(0, |r| r.len())
    }
}

/// Errors from the learners.
#[derive(Debug, Clone, PartialEq)]
pub enum MlError {
    /// Shape/validation failure.
    Shape(String),
    /// Training cannot proceed (e.g. empty dataset).
    Empty(&'static str),
    /// Invalid hyper-parameter.
    BadConfig(String),
}

impl std::fmt::Display for MlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MlError::Shape(msg) => write!(f, "shape error: {msg}"),
            MlError::Empty(what) => write!(f, "empty input: {what}"),
            MlError::BadConfig(msg) => write!(f, "bad config: {msg}"),
        }
    }
}

impl std::error::Error for MlError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_validation() {
        assert!(Dataset::new(vec![vec![1.0], vec![2.0]], vec![1.0]).is_err());
        assert!(Dataset::new(vec![vec![1.0], vec![2.0, 3.0]], vec![1.0, 2.0]).is_err());
        let d = Dataset::new(vec![vec![1.0, 2.0]], vec![3.0]).unwrap();
        assert_eq!(d.len(), 1);
        assert_eq!(d.n_features(), 2);
    }
}
