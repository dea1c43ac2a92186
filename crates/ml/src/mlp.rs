//! Multi-layer perceptron with ReLU activations and Adam.
//!
//! The Table 3/4 MLP baseline [38, 42]. Multi-output: one forward pass
//! predicts a whole vector (used by the recursive temperature baseline,
//! which predicts all sensors at once).

// analysis:allow-file(panic-free-control-path): dense numeric kernel;
// every index is loop-bounded by lengths validated at the call
// boundary, and debug_asserts guard the shape contracts.
// analysis:allow-file(no-alloc-in-decide-steady-state): work buffers
// are sized by model dimensions fixed at fit time; a fresh surrogate
// per decision is the paper's design, and zero-alloc steady-state
// scoring is tracked as ROADMAP work.
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::MlError;

/// MLP hyper-parameters.
#[derive(Debug, Clone)]
pub struct MlpConfig {
    /// Hidden layer widths (e.g. `[64, 64]`).
    pub hidden: Vec<usize>,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// L2 weight decay.
    pub weight_decay: f64,
    /// RNG seed for init and shuffling.
    pub seed: u64,
}

impl Default for MlpConfig {
    fn default() -> Self {
        MlpConfig {
            hidden: vec![64, 64],
            learning_rate: 1e-3,
            epochs: 60,
            batch_size: 32,
            weight_decay: 1e-5,
            seed: 0,
        }
    }
}

/// One dense layer with Adam state.
#[derive(Debug, Clone)]
struct Layer {
    w: Vec<f64>, // out × in, row-major
    b: Vec<f64>,
    n_in: usize,
    n_out: usize,
    // Adam moments.
    mw: Vec<f64>,
    vw: Vec<f64>,
    mb: Vec<f64>,
    vb: Vec<f64>,
}

impl Layer {
    fn new(n_in: usize, n_out: usize, rng: &mut StdRng) -> Self {
        // He initialization for ReLU nets.
        let scale = (2.0 / n_in.max(1) as f64).sqrt();
        let w = (0..n_in * n_out)
            .map(|_| (rng.random::<f64>() * 2.0 - 1.0) * scale)
            .collect();
        Layer {
            w,
            b: vec![0.0; n_out],
            n_in,
            n_out,
            mw: vec![0.0; n_in * n_out],
            vw: vec![0.0; n_in * n_out],
            mb: vec![0.0; n_out],
            vb: vec![0.0; n_out],
        }
    }

    fn forward(&self, x: &[f64], out: &mut Vec<f64>) {
        out.clear();
        for o in 0..self.n_out {
            let row = &self.w[o * self.n_in..(o + 1) * self.n_in];
            out.push(self.b[o] + tesla_linalg::vector::dot(row, x));
        }
    }
}

/// A trained multi-layer perceptron.
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Layer>,
    config: MlpConfig,
    n_in: usize,
    n_out: usize,
    /// Per-feature standardization (fitted on training data).
    x_mean: Vec<f64>,
    x_std: Vec<f64>,
    y_mean: Vec<f64>,
    y_std: Vec<f64>,
}

impl Mlp {
    /// Trains on multi-output data: `x` rows ↔ `y` rows.
    pub fn fit_multi(x: &[Vec<f64>], y: &[Vec<f64>], config: MlpConfig) -> Result<Self, MlError> {
        if x.is_empty() || y.is_empty() {
            return Err(MlError::Empty("MLP training data"));
        }
        if x.len() != y.len() {
            return Err(MlError::Shape(format!(
                "{} inputs vs {} outputs",
                x.len(),
                y.len()
            )));
        }
        let n_in = x[0].len();
        let n_out = y[0].len();
        if x.iter().any(|r| r.len() != n_in) || y.iter().any(|r| r.len() != n_out) {
            return Err(MlError::Shape("ragged rows".into()));
        }
        if config.batch_size == 0 || config.learning_rate <= 0.0 {
            return Err(MlError::BadConfig(
                "batch_size and learning_rate must be positive".into(),
            ));
        }
        let n = x.len();

        // Standardize inputs and outputs.
        let stats = |cols: usize, data: &[Vec<f64>]| {
            let mut mean = vec![0.0; cols];
            let mut std = vec![0.0; cols];
            for row in data {
                for (m, v) in mean.iter_mut().zip(row) {
                    *m += v;
                }
            }
            for m in &mut mean {
                *m /= n as f64;
            }
            for row in data {
                for j in 0..cols {
                    let c = row[j] - mean[j];
                    std[j] += c * c;
                }
            }
            for s in &mut std {
                *s = (*s / n as f64).sqrt();
                if *s < 1e-9 {
                    *s = 1.0;
                }
            }
            (mean, std)
        };
        let (x_mean, x_std) = stats(n_in, x);
        let (y_mean, y_std) = stats(n_out, y);

        let xs: Vec<Vec<f64>> = x
            .iter()
            .map(|r| {
                r.iter()
                    .enumerate()
                    .map(|(j, v)| (v - x_mean[j]) / x_std[j])
                    .collect()
            })
            .collect();
        let ys: Vec<Vec<f64>> = y
            .iter()
            .map(|r| {
                r.iter()
                    .enumerate()
                    .map(|(j, v)| (v - y_mean[j]) / y_std[j])
                    .collect()
            })
            .collect();

        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut sizes = vec![n_in];
        sizes.extend_from_slice(&config.hidden);
        sizes.push(n_out);
        let mut layers: Vec<Layer> = sizes
            .windows(2)
            .map(|w| Layer::new(w[0], w[1], &mut rng))
            .collect();

        let mut order: Vec<usize> = (0..n).collect();
        let mut adam_t = 0usize;
        let (b1, b2, eps): (f64, f64, f64) = (0.9, 0.999, 1e-8);

        for _epoch in 0..config.epochs {
            // Fisher-Yates shuffle.
            for i in (1..n).rev() {
                let j = rng.random_range(0..=i);
                order.swap(i, j);
            }
            for batch in order.chunks(config.batch_size) {
                // Zeroed gradient accumulators per layer.
                let mut gw: Vec<Vec<f64>> = layers.iter().map(|l| vec![0.0; l.w.len()]).collect();
                let mut gb: Vec<Vec<f64>> = layers.iter().map(|l| vec![0.0; l.b.len()]).collect();

                for &idx in batch {
                    // Forward pass, caching activations.
                    let mut acts: Vec<Vec<f64>> = vec![xs[idx].clone()];
                    let mut buf = Vec::new();
                    for (li, layer) in layers.iter().enumerate() {
                        layer.forward(acts.last().unwrap(), &mut buf);
                        if li + 1 < layers.len() {
                            for v in &mut buf {
                                *v = v.max(0.0); // ReLU
                            }
                        }
                        acts.push(buf.clone());
                    }
                    // Backward pass: dL/dout = 2(pred − target)/n_out.
                    let pred = acts.last().unwrap();
                    let mut delta: Vec<f64> = pred
                        .iter()
                        .zip(&ys[idx])
                        .map(|(p, t)| 2.0 * (p - t) / n_out as f64)
                        .collect();
                    for li in (0..layers.len()).rev() {
                        let input = &acts[li];
                        let layer = &layers[li];
                        // Gradients for this layer.
                        for o in 0..layer.n_out {
                            gb[li][o] += delta[o];
                            let grow = &mut gw[li][o * layer.n_in..(o + 1) * layer.n_in];
                            for (g, v) in grow.iter_mut().zip(input) {
                                *g += delta[o] * v;
                            }
                        }
                        if li > 0 {
                            // Propagate delta, applying ReLU mask of the
                            // previous layer's output.
                            let mut prev = vec![0.0; layer.n_in];
                            for (d, row) in delta.iter().zip(layer.w.chunks_exact(layer.n_in)) {
                                for (p, w) in prev.iter_mut().zip(row) {
                                    *p += d * w;
                                }
                            }
                            for (p, a) in prev.iter_mut().zip(input) {
                                if *a <= 0.0 {
                                    *p = 0.0;
                                }
                            }
                            delta = prev;
                        }
                    }
                }

                // Adam update.
                adam_t += 1;
                let bs = batch.len() as f64;
                let bias1 = 1.0 - b1.powi(adam_t as i32);
                let bias2 = 1.0 - b2.powi(adam_t as i32);
                for (li, layer) in layers.iter_mut().enumerate() {
                    for (k, &gwk) in gw[li].iter().enumerate() {
                        let g = gwk / bs + config.weight_decay * layer.w[k];
                        layer.mw[k] = b1 * layer.mw[k] + (1.0 - b1) * g;
                        layer.vw[k] = b2 * layer.vw[k] + (1.0 - b2) * g * g;
                        let mhat = layer.mw[k] / bias1;
                        let vhat = layer.vw[k] / bias2;
                        layer.w[k] -= config.learning_rate * mhat / (vhat.sqrt() + eps);
                    }
                    for (k, &gbk) in gb[li].iter().enumerate() {
                        let g = gbk / bs;
                        layer.mb[k] = b1 * layer.mb[k] + (1.0 - b1) * g;
                        layer.vb[k] = b2 * layer.vb[k] + (1.0 - b2) * g * g;
                        let mhat = layer.mb[k] / bias1;
                        let vhat = layer.vb[k] / bias2;
                        layer.b[k] -= config.learning_rate * mhat / (vhat.sqrt() + eps);
                    }
                }
            }
        }

        Ok(Mlp {
            layers,
            config,
            n_in,
            n_out,
            x_mean,
            x_std,
            y_mean,
            y_std,
        })
    }

    /// Trains a single-output regressor.
    pub fn fit(x: &[Vec<f64>], y: &[f64], config: MlpConfig) -> Result<Self, MlError> {
        let y2: Vec<Vec<f64>> = y.iter().map(|&v| vec![v]).collect();
        Self::fit_multi(x, &y2, config)
    }

    /// The training configuration.
    pub fn config(&self) -> &MlpConfig {
        &self.config
    }

    /// Output dimension.
    pub fn n_outputs(&self) -> usize {
        self.n_out
    }

    /// Predicts the full output vector.
    pub fn predict_multi(&self, x: &[f64]) -> Vec<f64> {
        debug_assert_eq!(x.len(), self.n_in);
        let mut cur: Vec<f64> = x
            .iter()
            .enumerate()
            .map(|(j, v)| (v - self.x_mean[j]) / self.x_std[j])
            .collect();
        let mut buf = Vec::new();
        for (li, layer) in self.layers.iter().enumerate() {
            layer.forward(&cur, &mut buf);
            if li + 1 < self.layers.len() {
                for v in &mut buf {
                    *v = v.max(0.0);
                }
            }
            std::mem::swap(&mut cur, &mut buf);
        }
        cur.iter()
            .enumerate()
            .map(|(j, v)| v * self.y_std[j] + self.y_mean[j])
            .collect()
    }

    /// Predicts a scalar (first output).
    pub fn predict(&self, x: &[f64]) -> f64 {
        self.predict_multi(x)[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_xy(f: impl Fn(f64, f64) -> f64) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..20 {
            for j in 0..20 {
                let a = i as f64 / 19.0 * 2.0 - 1.0;
                let b = j as f64 / 19.0 * 2.0 - 1.0;
                x.push(vec![a, b]);
                y.push(f(a, b));
            }
        }
        (x, y)
    }

    #[test]
    fn learns_linear_function() {
        let (x, y) = grid_xy(|a, b| 3.0 * a - 2.0 * b + 1.0);
        let cfg = MlpConfig {
            epochs: 80,
            ..MlpConfig::default()
        };
        let m = Mlp::fit(&x, &y, cfg).unwrap();
        let mut err = 0.0;
        for (xi, yi) in x.iter().zip(&y) {
            err += (m.predict(xi) - yi).abs();
        }
        err /= x.len() as f64;
        assert!(err < 0.1, "mean abs error {err}");
    }

    #[test]
    fn learns_nonlinear_function() {
        // |a| is not representable by a linear model; ReLU nets nail it.
        let (x, y) = grid_xy(|a, b| a.abs() + 0.5 * b);
        let cfg = MlpConfig {
            epochs: 150,
            seed: 1,
            ..MlpConfig::default()
        };
        let m = Mlp::fit(&x, &y, cfg).unwrap();
        let mut err = 0.0;
        for (xi, yi) in x.iter().zip(&y) {
            err += (m.predict(xi) - yi).abs();
        }
        err /= x.len() as f64;
        assert!(err < 0.12, "mean abs error {err}");
    }

    #[test]
    fn multi_output_heads_learn_independent_targets() {
        let (x, _) = grid_xy(|_, _| 0.0);
        let y: Vec<Vec<f64>> = x.iter().map(|r| vec![r[0] * 2.0, -r[1] + 0.5]).collect();
        let cfg = MlpConfig {
            epochs: 80,
            seed: 2,
            ..MlpConfig::default()
        };
        let m = Mlp::fit_multi(&x, &y, cfg).unwrap();
        assert_eq!(m.n_outputs(), 2);
        let p = m.predict_multi(&[0.5, -0.5]);
        assert!((p[0] - 1.0).abs() < 0.15, "p0 {}", p[0]);
        assert!((p[1] - 1.0).abs() < 0.15, "p1 {}", p[1]);
    }

    #[test]
    fn deterministic_given_seed() {
        let (x, y) = grid_xy(|a, b| a + b);
        let cfg = MlpConfig {
            epochs: 5,
            seed: 7,
            ..MlpConfig::default()
        };
        let m1 = Mlp::fit(&x, &y, cfg.clone()).unwrap();
        let m2 = Mlp::fit(&x, &y, cfg).unwrap();
        assert_eq!(m1.predict(&[0.3, 0.3]), m2.predict(&[0.3, 0.3]));
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(Mlp::fit(&[], &[], MlpConfig::default()).is_err());
        let x = vec![vec![1.0]];
        assert!(Mlp::fit(&x, &[1.0, 2.0], MlpConfig::default()).is_err());
        let cfg = MlpConfig {
            batch_size: 0,
            ..MlpConfig::default()
        };
        assert!(Mlp::fit(&x, &[1.0], cfg).is_err());
    }
}
