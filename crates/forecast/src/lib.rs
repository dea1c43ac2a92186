//! TESLA's DC time-series model (§3.2) and its modeling baselines.
//!
//! The model predicts, over a finite `L`-step horizon and for a candidate
//! set-point, (a) how every DC temperature sensor evolves and (b) how much
//! cooling energy the ACU spends. It is composed of four linear
//! sub-modules wired per Fig. 6 of the paper:
//!
//! 1. [`asp::AspModel`] — average server power (Eq. 1): pure
//!    autoregression on the cluster-average power.
//! 2. [`acu::AcuModel`] — ACU inlet temperature per internal sensor
//!    (Eq. 2): set-point + predicted power + inlet lags.
//! 3. [`dcs::DcsModel`] — rack sensor temperatures (Eq. 3): predicted
//!    power + predicted inlet temps + rack-sensor lags.
//! 4. [`energy::EnergyModel`] — cooling energy over the horizon (Eq. 4):
//!    future set-points + future inlet temperatures.
//!
//! Every sub-module uses the *direct strategy*: an independent ridge
//! regression per (output, horizon-step) pair, solved analytically —
//! `(1 + N_a + N_d) · L` regressions in total. Sub-modules that consume
//! predicted inputs at inference time (ACU, DCS, energy) use `α = 1`
//! ridge; ASP uses OLS (Table 2).
//!
//! [`recursive::RecursiveAr`] implements the Lazic et al. \[20\] baseline:
//! a single autoregressive OLS model over all signals, rolled out
//! recursively — the Table 3 comparison point.
//!
//! # Example: fit and predict on a synthetic trace
//!
//! ```
//! use tesla_forecast::{DcTimeSeriesModel, ModelConfig, Trace};
//! use tesla_units::Celsius;
//!
//! // Toy plant: temperatures track the set-point, energy falls as it rises.
//! let mut trace = Trace::with_sensors(1, 2);
//! for t in 0..60 {
//!     let sp = 22.0 + (t % 8) as f64 * 0.5;
//!     trace.push(1.5, &[sp + 1.0], &[sp + 0.5, sp - 0.5], sp, 30.0 - sp * 0.5, 2.0);
//! }
//! let cfg = ModelConfig { horizon: 4, ..Default::default() };
//! let model = DcTimeSeriesModel::fit(&trace, cfg)?;
//! let window = trace.window_at(trace.len() - 5, 4)?;
//! let prediction = model.predict(&window, Celsius::new(24.0))?;
//! assert!(prediction.energy.value().is_finite());
//! # Ok::<(), tesla_forecast::ForecastError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod acu;
pub mod asp;
pub mod dcs;
pub mod design;
pub mod energy;
pub mod model;
pub mod recursive;
pub mod trace;

pub use model::{DcTimeSeriesModel, ModelConfig, Prediction, PreparedDecision};
pub use recursive::{RecursiveAr, RolloutScan};
pub use trace::{window_from_store, ModelWindow, Trace};

/// Errors produced while building datasets or fitting models.
#[derive(Debug, Clone, PartialEq)]
pub enum ForecastError {
    /// The trace is too short for the requested horizon.
    TraceTooShort {
        /// Minimum number of samples the fit or window requires.
        needed: usize,
        /// Samples actually available in the trace.
        got: usize,
    },
    /// Trace columns disagree on length or sensor count.
    InconsistentTrace(String),
    /// The underlying linear solve failed.
    Solve(String),
    /// A prediction window has the wrong shape.
    BadWindow(String),
}

impl std::fmt::Display for ForecastError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ForecastError::TraceTooShort { needed, got } => {
                write!(
                    f,
                    "trace too short: need at least {needed} samples, got {got}"
                )
            }
            ForecastError::InconsistentTrace(msg) => write!(f, "inconsistent trace: {msg}"),
            ForecastError::Solve(msg) => write!(f, "linear solve failed: {msg}"),
            ForecastError::BadWindow(msg) => write!(f, "bad prediction window: {msg}"),
        }
    }
}

impl std::error::Error for ForecastError {}

impl From<tesla_linalg::LinalgError> for ForecastError {
    fn from(e: tesla_linalg::LinalgError) -> Self {
        ForecastError::Solve(e.to_string())
    }
}
