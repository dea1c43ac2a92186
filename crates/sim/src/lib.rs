//! Synthetic replacement for the paper's physical testbed (§4, Table 1).
//!
//! The original TESLA system was deployed on a 21-server / 4-rack data
//! center with one Envicool XR023A air-cooling unit (ACU), 35 rack
//! temperature sensors (11 in the cold aisle), 2 ACU inlet sensors, and a
//! Modbus register interface for set-point execution. None of that hardware
//! is available to a reproduction, so this crate implements the closest
//! synthetic equivalent that exercises the same code paths:
//!
//! * [`pid`] — the ACU's proportional-integral-derivative controller
//!   (§2.1), including the *cooling interruption* regime: when the
//!   set-point sits above the actual inlet temperature the residual error
//!   is positive, the compressor duty collapses, and ACU power drops to
//!   the ~0.1 kW fan floor.
//! * [`acu`] — compressor/evaporator model: cooling capacity, COP that
//!   improves with supply temperature (the physical reason raising the
//!   set-point saves energy), part-load efficiency, and the two biased
//!   inlet sensors.
//! * [`thermal`] — a lumped three-node thermal network (cold aisle, hot
//!   aisle, equipment mass) calibrated to the paper's measured dynamics:
//!   roughly 1 °C/min cold-aisle rise during cooling interruption and
//!   roughly half that recovery rate (Fig. 3).
//! * [`server`] — per-server power as a function of CPU utilization with
//!   first-order lag and measurement noise (Fig. 2's power variance under
//!   a constant set-point comes from here).
//! * [`sensors`] — the 35-sensor rack array with per-sensor spatial
//!   offsets, hot-air mixing fractions and noise; the cold-aisle subset
//!   drives the thermal-safety constraint (§3.3, Eq. 9).
//! * [`modbus`] — a register-map facade standing in for the Modbus
//!   protocol used to command the real ACU, with a validated
//!   controller-facing write path (writable-register ranges, set-point
//!   bounds) returning typed errors.
//! * [`faults`] — schedulable fault injection: stuck/drifting/dropped/
//!   noisy sensors, set-point writes that time out or are rejected, and
//!   plant derates (fouled coils, fan failure), all windowed over
//!   simulated minutes.
//! * [`testbed`] — the facade tying everything together; one call per
//!   sampling period (Δt = 1 min) integrates the physics at a fine inner
//!   step and returns an [`Observation`] with every signal the paper's
//!   Telegraf deployment collects.
//!
//! Everything is deterministic given a seed.
//!
//! # Example: one metered minute on the testbed
//!
//! ```
//! use tesla_sim::{SimConfig, Testbed};
//! use tesla_units::{Celsius, SETPOINT_RANGE};
//!
//! let cfg = SimConfig::default();
//! let mut tb = Testbed::new(cfg.clone(), 7)?;
//! tb.try_write_setpoint(SETPOINT_RANGE.check(Celsius::new(24.0))?)?;
//! let obs = tb.step_sample(&vec![0.3; cfg.n_servers])?;
//! assert!(obs.cold_aisle_max.is_finite() && obs.acu_power_kw > 0.0);
//! # Ok::<(), tesla_sim::SimError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod acu;
pub mod config;
pub mod faults;
pub mod modbus;
pub mod pid;
pub mod plant;
pub mod sensors;
pub mod server;
pub mod testbed;
pub mod thermal;

pub use config::{AcuParams, PidParams, SensorParams, ServerParams, SimConfig, ThermalParams};
pub use faults::{
    ActuatorFault, ActuatorFaultKind, FaultPlan, FaultWindow, PlantFault, PlantFaultKind,
    SensorFault, SensorFaultKind, SensorTarget,
};
pub use plant::CoolingPlant;
pub use testbed::{Observation, Testbed};

use tesla_units::{Celsius, UnitError};

/// Errors surfaced by the simulator facade.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// A utilization vector of the wrong length was supplied.
    BadUtilization {
        /// Number of servers the simulator was configured with.
        expected: usize,
        /// Length of the vector actually supplied.
        got: usize,
    },
    /// A utilization value outside `[0, 1]` was supplied.
    UtilizationOutOfRange(f64),
    /// An unknown Modbus register was addressed.
    UnknownRegister(u16),
    /// A write targeted a register the controller may not write
    /// (input/telemetry registers are device-owned).
    ReadOnlyRegister(u16),
    /// A set-point write outside the ACU's specification range.
    SetpointOutOfRange {
        /// The rejected set-point.
        value: Celsius,
        /// Lower end of the writable range.
        min: Celsius,
        /// Upper end of the writable range.
        max: Celsius,
    },
    /// A non-finite value was offered to a register write.
    NonFiniteWrite(Celsius),
    /// A Modbus write timed out (injected actuator fault); the device
    /// keeps its previous value.
    WriteTimeout,
    /// The device rejected the write with an illegal-data-address
    /// response (injected actuator fault).
    RegisterRejected(u16),
    /// Configuration failed validation.
    InvalidConfig(String),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::BadUtilization { expected, got } => {
                write!(f, "expected {expected} per-server utilizations, got {got}")
            }
            SimError::UtilizationOutOfRange(u) => {
                write!(f, "utilization {u} outside [0, 1]")
            }
            SimError::UnknownRegister(r) => write!(f, "unknown Modbus register {r:#06x}"),
            SimError::ReadOnlyRegister(r) => {
                write!(f, "Modbus register {r:#06x} is not controller-writable")
            }
            SimError::SetpointOutOfRange { value, min, max } => {
                write!(f, "set-point {value} outside spec range [{min}, {max}]")
            }
            SimError::NonFiniteWrite(v) => {
                write!(f, "non-finite register write value {}", v.value())
            }
            SimError::WriteTimeout => write!(f, "Modbus write timed out"),
            SimError::RegisterRejected(r) => {
                write!(f, "device rejected write to register {r:#06x}")
            }
            SimError::InvalidConfig(msg) => write!(f, "invalid simulator config: {msg}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<UnitError> for SimError {
    /// Maps the units layer's validation failures onto the simulator's
    /// register-write error vocabulary, so [`tesla_units::CelsiusRange::check`]
    /// can be the single place set-point bounds are enforced.
    fn from(e: UnitError) -> Self {
        match e {
            UnitError::NonFinite(v) => SimError::NonFiniteWrite(Celsius::new(v)),
            UnitError::OutOfRange { value, min, max } => {
                SimError::SetpointOutOfRange { value, min, max }
            }
            UnitError::BadUtilization(u) => SimError::UtilizationOutOfRange(u),
            UnitError::Parse => SimError::InvalidConfig("malformed quantity string".into()),
        }
    }
}
