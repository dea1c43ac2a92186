//! Recursive autoregressive baseline — the modeling approach of Lazic et
//! al. \[20\] compared against in Table 3.
//!
//! One collective linear model predicts *all* signals (every rack sensor,
//! every ACU inlet sensor, and the average server power) one step ahead
//! from the last two frames plus the next set-point, fitted with OLS.
//! Multi-step prediction rolls the model out recursively, feeding its own
//! outputs back — which is exactly why it loses to TESLA's direct
//! strategy: one-step errors compound over the horizon (§5.2).

// analysis:allow-file(panic-free-control-path): dense numeric kernel;
// every index is loop-bounded by lengths validated at the call
// boundary, and debug_asserts guard the shape contracts.
use crate::design::SharedDesign;
use crate::trace::{ModelWindow, Trace};
use crate::ForecastError;
use tesla_linalg::{Matrix, Ridge};
use tesla_units::Celsius;

/// Fitted recursive AR model.
#[derive(Debug, Clone)]
pub struct RecursiveAr {
    /// One model per signal, predicting its next value.
    models: Vec<Ridge>,
    n_dc: usize,
    n_acu: usize,
    /// Number of past frames used as input.
    order: usize,
}

impl RecursiveAr {
    /// Number of signals in the collective state vector.
    fn state_dim(n_dc: usize, n_acu: usize) -> usize {
        n_dc + n_acu + 1
    }

    /// Fits the collective one-step model with `order` past frames
    /// (Lazic-style: 2) and OLS (`alpha = 0`) or ridge.
    pub fn fit(trace: &Trace, order: usize, alpha: f64) -> Result<Self, ForecastError> {
        let order = order.max(1);
        trace.validate(order + 2)?;
        let n_dc = trace.n_dc_sensors();
        let n_acu = trace.n_acu_sensors();
        let m = Self::state_dim(n_dc, n_acu);
        let t_len = trace.len();
        let rows: Vec<usize> = (order - 1..t_len - 1).collect();
        let n = rows.len();
        let d = m * order + 1;

        let mut x = Matrix::zeros(n, d);
        for (r, &t) in rows.iter().enumerate() {
            let row = x.row_mut(r);
            for back in 0..order {
                let idx = t - back;
                Self::write_frame(&mut row[back * m..(back + 1) * m], trace, idx);
            }
            row[d - 1] = trace.setpoint[t + 1];
        }
        let mut design = SharedDesign::new(x);

        let targets: Vec<Vec<f64>> = (0..m)
            .map(|sig| {
                rows.iter()
                    .map(|&t| Self::signal_at(trace, sig, t + 1))
                    .collect()
            })
            .collect();
        let models = design.fit_multi(None, &targets, alpha)?;
        Ok(RecursiveAr {
            models,
            n_dc,
            n_acu,
            order,
        })
    }

    fn write_frame(dst: &mut [f64], trace: &Trace, t: usize) {
        let n_dc = trace.n_dc_sensors();
        let n_acu = trace.n_acu_sensors();
        for (d, col) in dst.iter_mut().zip(&trace.dc_temps) {
            *d = col[t];
        }
        for i in 0..n_acu {
            dst[n_dc + i] = trace.acu_inlet[i][t];
        }
        dst[n_dc + n_acu] = trace.avg_power[t];
    }

    fn signal_at(trace: &Trace, sig: usize, t: usize) -> f64 {
        let n_dc = trace.n_dc_sensors();
        let n_acu = trace.n_acu_sensors();
        if sig < n_dc {
            trace.dc_temps[sig][t]
        } else if sig < n_dc + n_acu {
            trace.acu_inlet[sig - n_dc][t]
        } else {
            trace.avg_power[t]
        }
    }

    /// AR order (past frames consumed).
    pub fn order(&self) -> usize {
        self.order
    }

    /// Rolls the model out for `setpoints.len()` steps from the window's
    /// most recent frames. Returns the predicted rack-sensor temperatures
    /// `[N_d][steps]` (what Table 3 evaluates).
    pub fn predict_rollout(
        &self,
        window: &ModelWindow,
        setpoints: &[f64], // lint:allow(no-raw-f64-in-public-api): bulk rollout series (baseline model)
    ) -> Result<Vec<Vec<f64>>, ForecastError> {
        let m = Self::state_dim(self.n_dc, self.n_acu);
        if window.dc.len() != self.n_dc || window.inlet.len() != self.n_acu {
            return Err(ForecastError::BadWindow(
                "window sensor count mismatch".into(),
            ));
        }
        let hist = window.power.len();
        if hist < self.order {
            return Err(ForecastError::BadWindow(format!(
                "recursive model needs {} past frames, window has {hist}",
                self.order
            )));
        }
        // frames[0] = newest.
        let mut frames: Vec<Vec<f64>> = (0..self.order)
            .map(|back| {
                let idx = hist - 1 - back;
                let mut f = Vec::with_capacity(m);
                for k in 0..self.n_dc {
                    f.push(window.dc[k][idx]);
                }
                for i in 0..self.n_acu {
                    f.push(window.inlet[i][idx]);
                }
                f.push(window.power[idx]);
                f
            })
            .collect();

        let mut out = vec![Vec::with_capacity(setpoints.len()); self.n_dc];
        let d = m * self.order + 1;
        let mut features = vec![0.0; d];
        for &sp in setpoints {
            for (back, frame) in frames.iter().enumerate() {
                features[back * m..(back + 1) * m].copy_from_slice(frame);
            }
            features[d - 1] = sp;
            let next: Vec<f64> = self.models.iter().map(|mo| mo.predict(&features)).collect();
            for (k, series) in out.iter_mut().enumerate() {
                series.push(next[k]);
            }
            frames.rotate_right(1);
            frames[0] = next;
        }
        Ok(out)
    }

    /// Buffers for a scan over constant set-points held for `horizon`
    /// steps, reading the rack sensors `watched`. Entries at or past the
    /// rack-sensor count are ignored, as [`RecursiveAr::predict_rollout`]
    /// returns no series for them. Every model's lag weights are copied
    /// here into one contiguous weight panel, so a scan reads them front
    /// to back from one buffer.
    pub fn rollout_scan(&self, horizon: usize, watched: &[usize]) -> RolloutScan {
        let m = Self::state_dim(self.n_dc, self.n_acu);
        let span = m * self.order;
        let mut rack: Vec<usize> = Vec::with_capacity(watched.len());
        for &k in watched {
            if k < self.n_dc && !rack.contains(&k) {
                rack.push(k);
            }
        }
        let mut watched_blocks: Vec<usize> = rack.iter().map(|&k| k / LANES).collect();
        watched_blocks.sort_unstable();
        watched_blocks.dedup();
        let panel = WeightPanel::new(&self.models, span);
        RolloutScan {
            horizon,
            last: vec![[0.0; LANES]; panel.blocks()],
            watched: rack,
            watched_blocks,
            frames: vec![0.0; horizon.saturating_sub(1) * m + span],
            base: vec![0.0; m],
            setpoint_weights: self
                .models
                .iter()
                .map(|mo| mo.folded_weights()[span])
                .collect(),
            panel,
        }
    }

    /// Loads `trace`'s newest frames into `scan` and computes each
    /// model's first-step sum over them: the bias plus every lag term,
    /// the set-point term left out. Fails like
    /// [`RecursiveAr::predict_rollout`] when the sensor counts differ or
    /// the trace holds fewer than `order` frames.
    pub fn prepare_scan(&self, trace: &Trace, scan: &mut RolloutScan) -> Result<(), ForecastError> {
        if trace.n_dc_sensors() != self.n_dc || trace.n_acu_sensors() != self.n_acu {
            return Err(ForecastError::BadWindow(
                "trace sensor count mismatch".into(),
            ));
        }
        let len = trace.len();
        if len < self.order {
            return Err(ForecastError::BadWindow(
                "recursive model needs more past frames".into(),
            ));
        }
        let m = Self::state_dim(self.n_dc, self.n_acu);
        let newest = scan.frames.len() - m * self.order;
        for (back, frame) in scan.frames[newest..].chunks_exact_mut(m).enumerate() {
            Self::write_frame(frame, trace, len - 1 - back);
        }
        scan.panel.sums(&scan.frames[newest..], &mut scan.base);
        Ok(())
    }

    /// The max over the watched rack sensors of the rollout from the
    /// prepared frames with `setpoint` held for the scan's horizon: the
    /// bits of the max over the same series of
    /// [`RecursiveAr::predict_rollout`], NaN outputs skipped. Each
    /// output is that call's sum in its order of operations; the models'
    /// sums run eight at a time from the scan's weight panel, and the
    /// last step computes only the blocks that hold watched outputs. The
    /// running max only grows, so the rollout stops once it reaches
    /// `limit`: a result at or above `limit` is then a lower bound, not
    /// the max.
    pub fn scan_max(&self, scan: &mut RolloutScan, setpoint: Celsius, limit: Celsius) -> Celsius {
        let (setpoint, limit) = (setpoint.value(), limit.value());
        let m = Self::state_dim(self.n_dc, self.n_acu);
        let span = m * self.order;
        let h = scan.horizon;
        let mut max = f64::NEG_INFINITY;
        // Step `i` reads the window at `(h - 1 - i) · m` and writes its
        // outputs into the frame just below it, which is where step
        // `i + 1`'s window starts: no frame is ever copied.
        for step in 0..h.saturating_sub(1) {
            let at = (h - 1 - step) * m;
            let (below, window) = scan.frames.split_at_mut(at);
            let next = &mut below[at - m..];
            if step == 0 {
                next.copy_from_slice(&scan.base);
            } else {
                scan.panel.sums(&window[..span], next);
            }
            for (y, &w) in next.iter_mut().zip(&scan.setpoint_weights) {
                *y += w * setpoint;
            }
            for &k in &scan.watched {
                max = max.max(next[k]);
            }
            if max >= limit {
                return Celsius::new(max);
            }
        }
        if h == 0 {
            return Celsius::new(max);
        }
        let base = if h == 1 {
            &scan.base[..]
        } else {
            let window = &scan.frames[..span];
            for &b in &scan.watched_blocks {
                scan.last[b] = scan.panel.block(b, window);
            }
            scan.last.as_flattened()
        };
        for &k in &scan.watched {
            max = max.max(base[k] + scan.setpoint_weights[k] * setpoint);
        }
        Celsius::new(max)
    }
}

/// Models per block of a [`WeightPanel`]: the sums of one block run side
/// by side. Sixteen measured no faster than eight.
const LANES: usize = 8;

/// Every model's lag weights in one contiguous buffer, in blocks of
/// [`LANES`] models. Inside a block the weights are feature-major: entry
/// `f` holds the block's eight weights of lag feature `f`, so one pass
/// over the lag features reads the block front to back. The last block
/// is padded with zero-weight lanes, whose sums nothing reads.
#[derive(Debug, Clone)]
struct WeightPanel {
    /// Lag features per model.
    span: usize,
    /// Block `b`'s weights are `weights[b · span..(b + 1) · span]`.
    weights: Vec<[f64; LANES]>,
    /// Each block's eight biases.
    biases: Vec<[f64; LANES]>,
}

impl WeightPanel {
    /// Copies the first `span` weights and the bias of every model.
    fn new(models: &[Ridge], span: usize) -> Self {
        let blocks = models.len().div_ceil(LANES);
        let mut weights = vec![[0.0; LANES]; blocks * span];
        let mut biases = vec![[0.0; LANES]; blocks];
        for (i, model) in models.iter().enumerate() {
            let (b, lane) = (i / LANES, i % LANES);
            biases[b][lane] = model.bias();
            let block = &mut weights[b * span..(b + 1) * span];
            for (row, &w) in block.iter_mut().zip(&model.folded_weights()[..span]) {
                row[lane] = w;
            }
        }
        WeightPanel {
            span,
            weights,
            biases,
        }
    }

    /// Number of blocks.
    fn blocks(&self) -> usize {
        self.biases.len()
    }

    /// Block `b`'s eight sums over `lag`, each in [`Ridge::predict`]'s
    /// order: the bias, then each lag term in turn. The lanes are
    /// independent, so they run side by side with the bits of computing
    /// the models one at a time.
    #[inline]
    fn block(&self, b: usize, lag: &[f64]) -> [f64; LANES] {
        let mut acc = self.biases[b];
        let weights = &self.weights[b * self.span..(b + 1) * self.span];
        for (row, &x) in weights.iter().zip(lag) {
            for (a, &w) in acc.iter_mut().zip(row) {
                *a += w * x;
            }
        }
        acc
    }

    /// Every model's sum over `lag`, into `out` (one entry per model).
    fn sums(&self, lag: &[f64], out: &mut [f64]) {
        for (b, o) in out.chunks_mut(LANES).enumerate() {
            let acc = self.block(b, lag);
            o.copy_from_slice(&acc[..o.len()]);
        }
    }
}

/// The buffers of [`RecursiveAr::scan_max`]: the models' weight panel,
/// one decision's newest frames, each model's first-step sum over them,
/// and room for a candidate's rollout. [`RecursiveAr::rollout_scan`]
/// builds them once; [`RecursiveAr::prepare_scan`] refills them per
/// decision, so a scan allocates nothing.
#[derive(Debug, Clone)]
pub struct RolloutScan {
    horizon: usize,
    /// The watched rack sensors, each once.
    watched: Vec<usize>,
    /// The panel blocks that hold a watched sensor, ascending.
    watched_blocks: Vec<usize>,
    /// The models' lag weights and biases.
    panel: WeightPanel,
    /// Frames newest first: the decision's `order` frames at the end,
    /// and below them one frame per rollout step but the last.
    frames: Vec<f64>,
    /// Each model's bias plus its lag terms over the decision's frames.
    base: Vec<f64>,
    /// Each model's set-point weight, its last feature.
    setpoint_weights: Vec<f64>,
    /// The last step's sums, by block; only the watched blocks are
    /// written.
    last: Vec<[f64; LANES]>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::tests::coupled_trace;

    #[test]
    fn one_step_prediction_is_accurate() {
        let tr = coupled_trace(800, 5);
        let model = RecursiveAr::fit(&tr, 2, 0.0).unwrap();
        let t = 400;
        let window = tr.window_at(t, 8).unwrap();
        let preds = model
            .predict_rollout(&window, &[tr.setpoint[t + 1]])
            .unwrap();
        for (k, row) in preds.iter().enumerate().take(tr.n_dc_sensors()) {
            let truth = tr.dc_temps[k][t + 1];
            assert!(
                (row[0] - truth).abs() < 0.5,
                "sensor {k}: {} vs {truth}",
                row[0]
            );
        }
    }

    #[test]
    fn rollout_error_grows_with_horizon() {
        // The defining weakness: recursive error accumulation.
        let tr = coupled_trace(800, 9);
        let model = RecursiveAr::fit(&tr, 2, 0.0).unwrap();
        let l = 10;
        let mut err_first = 0.0;
        let mut err_last = 0.0;
        let mut count = 0;
        for t in (300..700).step_by(17) {
            let window = tr.window_at(t, l).unwrap();
            let sps: Vec<f64> = (1..=l).map(|s| tr.setpoint[t + s]).collect();
            let preds = model.predict_rollout(&window, &sps).unwrap();
            for (k, row) in preds.iter().enumerate().take(tr.n_dc_sensors()) {
                err_first += (row[0] - tr.dc_temps[k][t + 1]).abs();
                err_last += (row[l - 1] - tr.dc_temps[k][t + l]).abs();
                count += 1;
            }
        }
        let err_first = err_first / count as f64;
        let err_last = err_last / count as f64;
        assert!(
            err_last > err_first,
            "horizon-end error {err_last:.4} should exceed one-step error {err_first:.4}"
        );
    }

    #[test]
    fn rollout_shape() {
        let tr = coupled_trace(300, 2);
        let model = RecursiveAr::fit(&tr, 2, 0.0).unwrap();
        let window = tr.window_at(150, 6).unwrap();
        let preds = model.predict_rollout(&window, &[23.0; 7]).unwrap();
        assert_eq!(preds.len(), tr.n_dc_sensors());
        assert_eq!(preds[0].len(), 7);
    }

    #[test]
    fn window_too_short_is_rejected() {
        let tr = coupled_trace(300, 2);
        let model = RecursiveAr::fit(&tr, 3, 0.0).unwrap();
        let window = tr.window_at(150, 2).unwrap();
        assert!(model.predict_rollout(&window, &[23.0; 3]).is_err());
    }

    #[test]
    fn order_is_clamped_to_at_least_one() {
        let tr = coupled_trace(300, 2);
        let model = RecursiveAr::fit(&tr, 0, 0.0).unwrap();
        assert_eq!(model.order(), 1);
    }
}
