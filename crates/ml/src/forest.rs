//! Random forest regressor \[26\]: bootstrap-bagged CART trees with
//! per-split feature subsampling.

use crate::tree::{RegressionTree, TreeConfig};
use crate::{Dataset, MlError};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Forest hyper-parameters.
#[derive(Debug, Clone)]
pub struct ForestConfig {
    /// Number of trees.
    pub n_trees: usize,
    /// Per-tree configuration. If `max_features` is `None`, it defaults
    /// to `ceil(sqrt(d))` as usual for regression forests in practice.
    pub tree: TreeConfig,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ForestConfig {
    fn default() -> Self {
        ForestConfig {
            n_trees: 100,
            tree: TreeConfig {
                max_depth: 10,
                ..TreeConfig::default()
            },
            seed: 0,
        }
    }
}

/// A fitted random forest.
#[derive(Debug, Clone)]
pub struct RandomForest {
    trees: Vec<RegressionTree>,
}

impl RandomForest {
    /// Trains `config.n_trees` trees on bootstrap resamples.
    pub fn fit(data: &Dataset, config: ForestConfig) -> Result<Self, MlError> {
        if data.is_empty() {
            return Err(MlError::Empty("forest training data"));
        }
        if config.n_trees == 0 {
            return Err(MlError::BadConfig("n_trees must be > 0".into()));
        }
        let d = data.n_features();
        let mut tree_cfg = config.tree.clone();
        if tree_cfg.max_features.is_none() {
            tree_cfg.max_features = Some(((d as f64).sqrt().ceil() as usize).clamp(1, d.max(1)));
        }
        let n = data.len();

        let trees: Result<Vec<RegressionTree>, MlError> = (0..config.n_trees)
            .map(|t| {
                // Independent, deterministic stream per tree.
                let mut rng = StdRng::seed_from_u64(
                    config.seed ^ (t as u64).wrapping_mul(0x9E3779B97F4A7C15),
                );
                // Bootstrap resample.
                let mut x = Vec::with_capacity(n);
                let mut y = Vec::with_capacity(n);
                for _ in 0..n {
                    let i = rng.random_range(0..n);
                    x.push(data.x[i].clone());
                    y.push(data.y[i]);
                }
                let sample = Dataset { x, y };
                RegressionTree::fit_with_rng(&sample, &tree_cfg, &mut rng)
            })
            .collect();
        Ok(RandomForest { trees: trees? })
    }

    /// Number of trees.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// Predicts one row (ensemble mean).
    pub fn predict(&self, x: &[f64]) -> f64 {
        self.trees.iter().map(|t| t.predict(x)).sum::<f64>() / self.trees.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn friedmanish_data() -> Dataset {
        // y = 2 x0 + x1² with two noise features.
        let mut x = Vec::new();
        let mut y = Vec::new();
        let mut s = 12345u64;
        let mut rand = move || {
            s ^= s >> 12;
            s ^= s << 25;
            s ^= s >> 27;
            (s.wrapping_mul(0x2545F4914F6CDD1D) >> 33) as f64 / (1u64 << 31) as f64
        };
        for _ in 0..300 {
            let r = vec![rand(), rand(), rand(), rand()];
            y.push(2.0 * r[0] + r[1] * r[1]);
            x.push(r);
        }
        Dataset::new(x, y).unwrap()
    }

    #[test]
    fn fits_nonlinear_signal() {
        let data = friedmanish_data();
        let model = RandomForest::fit(
            &data,
            ForestConfig {
                n_trees: 60,
                ..ForestConfig::default()
            },
        )
        .unwrap();
        let mut err = 0.0;
        for (xi, yi) in data.x.iter().zip(&data.y) {
            err += (model.predict(xi) - yi).abs();
        }
        err /= data.len() as f64;
        assert!(err < 0.25, "mean abs error {err}");
    }

    #[test]
    fn ensemble_beats_single_tree_off_sample() {
        // Train on even rows, evaluate on odd: bagging should not lose
        // badly, and usually wins on noisy data.
        let data = friedmanish_data();
        let train = Dataset {
            x: data.x.iter().step_by(2).cloned().collect(),
            y: data.y.iter().step_by(2).copied().collect(),
        };
        let forest = RandomForest::fit(
            &train,
            ForestConfig {
                n_trees: 80,
                ..ForestConfig::default()
            },
        )
        .unwrap();
        assert_eq!(forest.n_trees(), 80);
        let mut err = 0.0;
        let mut cnt = 0;
        for (xi, yi) in data.x.iter().zip(&data.y).skip(1).step_by(2) {
            err += (forest.predict(xi) - yi).abs();
            cnt += 1;
        }
        err /= cnt as f64;
        assert!(err < 0.35, "held-out mean abs error {err}");
    }

    #[test]
    fn deterministic_given_seed() {
        let data = friedmanish_data();
        let cfg = ForestConfig {
            n_trees: 10,
            seed: 3,
            ..ForestConfig::default()
        };
        let a = RandomForest::fit(&data, cfg.clone()).unwrap();
        let b = RandomForest::fit(&data, cfg).unwrap();
        assert_eq!(
            a.predict(&[0.5, 0.5, 0.5, 0.5]),
            b.predict(&[0.5, 0.5, 0.5, 0.5])
        );
    }

    #[test]
    fn bad_config_rejected() {
        let data = friedmanish_data();
        assert!(RandomForest::fit(
            &data,
            ForestConfig {
                n_trees: 0,
                ..ForestConfig::default()
            }
        )
        .is_err());
        assert!(RandomForest::fit(&Dataset::default(), ForestConfig::default()).is_err());
    }

    #[test]
    fn prediction_is_within_target_range() {
        let data = friedmanish_data();
        let model = RandomForest::fit(
            &data,
            ForestConfig {
                n_trees: 30,
                ..ForestConfig::default()
            },
        )
        .unwrap();
        let lo = data.y.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = data.y.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let p = model.predict(&[0.5, 0.5, 0.5, 0.5]);
        assert!(
            p >= lo && p <= hi,
            "forest mean must stay in the convex hull"
        );
    }
}
