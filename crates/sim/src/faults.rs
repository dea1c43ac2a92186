//! Schedulable fault injection for the testbed.
//!
//! Real deployments of TESLA-style controllers face sensor faults (stuck
//! thermistors, drifting calibration, dropped Modbus reads, EMI noise
//! bursts), actuator faults (set-point writes that time out or are
//! rejected by the device), and plant degradation (fouled coils, failed
//! fans). A [`FaultPlan`] schedules any mix of these over simulation
//! time so the control stack's degradation behaviour can be tested
//! deterministically.
//!
//! Faults are *windows* over simulated minutes: a fault is active while
//! `start_min <= t < end_min`. Sensor faults corrupt the readings the
//! controller sees; the physics and the ground-truth signals in the
//! [`crate::Observation`] are untouched, so experiments can score true
//! thermal safety separately from what the (possibly lying) sensors
//! report.

use rand::Rng;

/// A half-open activity window over simulated minutes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultWindow {
    /// First minute (inclusive) the fault is active.
    pub start_min: f64,
    /// End minute (exclusive).
    pub end_min: f64,
}

impl FaultWindow {
    /// A window covering `[start, end)` minutes.
    pub fn new(start_min: f64, end_min: f64) -> Self {
        FaultWindow { start_min, end_min }
    }

    /// True while `t_min` falls inside the window.
    pub fn contains(&self, t_min: f64) -> bool {
        t_min >= self.start_min && t_min < self.end_min
    }

    /// Minutes elapsed since the window opened (0 before it opens).
    pub fn elapsed(&self, t_min: f64) -> f64 {
        (t_min - self.start_min).max(0.0)
    }
}

/// Which sensor a sensor fault corrupts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SensorTarget {
    /// A rack sensor (index into the `dc_temps` vector; cold-aisle
    /// sensors are `0..n_cold_aisle_sensors`).
    DcSensor(usize),
    /// An ACU inlet sensor (index into `acu_inlet_temps`).
    AcuInlet(usize),
}

/// How a faulty sensor misbehaves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SensorFaultKind {
    /// The reading freezes at a constant value (failed thermistor pulled
    /// to a rail, or a gateway repeating its last frame).
    StuckAt(f64),
    /// The reading accumulates a calibration drift of `rate` °C per
    /// minute from the window's start.
    Drift {
        /// Drift rate, °C per minute of fault activity.
        rate_c_per_min: f64,
    },
    /// The reading is lost entirely and surfaces as NaN (a dropped
    /// Modbus read).
    Dropout,
    /// Extra zero-mean Gaussian noise (EMI burst, loose connector).
    NoiseBurst {
        /// Standard deviation of the added noise, °C.
        std_c: f64,
    },
}

impl SensorFaultKind {
    /// Metric-label spelling of the failure mode.
    pub fn label(self) -> &'static str {
        match self {
            SensorFaultKind::StuckAt(_) => "sensor_stuck",
            SensorFaultKind::Drift { .. } => "sensor_drift",
            SensorFaultKind::Dropout => "sensor_dropout",
            SensorFaultKind::NoiseBurst { .. } => "sensor_noise",
        }
    }
}

/// One scheduled sensor fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SensorFault {
    /// The corrupted sensor.
    pub target: SensorTarget,
    /// The failure mode.
    pub kind: SensorFaultKind,
    /// When the fault is active.
    pub window: FaultWindow,
}

/// How the set-point actuation path fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActuatorFaultKind {
    /// The Modbus write times out; the device keeps its old set-point.
    WriteTimeout,
    /// The device NAKs the write (illegal-data-address response).
    RejectedRegister,
}

impl ActuatorFaultKind {
    /// Metric-label spelling of the failure mode.
    pub fn label(self) -> &'static str {
        match self {
            ActuatorFaultKind::WriteTimeout => "actuator_write_timeout",
            ActuatorFaultKind::RejectedRegister => "actuator_rejected_register",
        }
    }
}

/// One scheduled actuator fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ActuatorFault {
    /// The failure mode.
    pub kind: ActuatorFaultKind,
    /// When the fault is active.
    pub window: FaultWindow,
}

/// Plant-side degradation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PlantFaultKind {
    /// Fouled evaporator coil: cooling capacity `q_max` is scaled by
    /// `capacity_factor` (< 1) while active.
    FouledCoil {
        /// Multiplier on the ACU's maximum extraction capacity.
        capacity_factor: f64,
    },
    /// The ACU supply fan fails: no air moves, no heat is extracted, and
    /// the unit draws no power until the fan recovers.
    FanFailure,
}

impl PlantFaultKind {
    /// Metric-label spelling of the failure mode.
    pub fn label(self) -> &'static str {
        match self {
            PlantFaultKind::FouledCoil { .. } => "plant_fouled_coil",
            PlantFaultKind::FanFailure => "plant_fan_failure",
        }
    }
}

/// One scheduled plant fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlantFault {
    /// The failure mode.
    pub kind: PlantFaultKind,
    /// When the fault is active.
    pub window: FaultWindow,
}

/// A full fault schedule for one episode.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Scheduled sensor faults.
    pub sensors: Vec<SensorFault>,
    /// Scheduled actuator faults.
    pub actuators: Vec<ActuatorFault>,
    /// Scheduled plant faults.
    pub plant: Vec<PlantFault>,
}

impl FaultPlan {
    /// A plan with no faults.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// True when the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.sensors.is_empty() && self.actuators.is_empty() && self.plant.is_empty()
    }

    /// True when any fault (of any class) is active at `t_min`.
    pub fn any_active(&self, t_min: f64) -> bool {
        self.sensors.iter().any(|f| f.window.contains(t_min))
            || self.actuators.iter().any(|f| f.window.contains(t_min))
            || self.plant.iter().any(|f| f.window.contains(t_min))
    }

    /// The actuator fault active at `t_min`, if any (first match wins).
    pub fn active_actuator(&self, t_min: f64) -> Option<ActuatorFaultKind> {
        self.actuators
            .iter()
            .find(|f| f.window.contains(t_min))
            .map(|f| f.kind)
    }

    /// Effective capacity multiplier at `t_min` (1.0 when healthy).
    /// Overlapping fouled-coil windows compound.
    pub fn capacity_factor(&self, t_min: f64) -> f64 {
        self.plant
            .iter()
            .filter(|f| f.window.contains(t_min))
            .map(|f| match f.kind {
                PlantFaultKind::FouledCoil { capacity_factor } => capacity_factor.clamp(0.0, 1.0),
                PlantFaultKind::FanFailure => 1.0,
            })
            .product()
    }

    /// True when a fan failure is active at `t_min`.
    pub fn fan_failed(&self, t_min: f64) -> bool {
        self.plant
            .iter()
            .any(|f| f.window.contains(t_min) && f.kind == PlantFaultKind::FanFailure)
    }

    /// Metric labels of every fault active at `t_min`, in plan order
    /// (sensor, actuator, then plant faults), one per active fault, so
    /// a kind can repeat. The testbed edge-detects on these to count
    /// fault activations.
    pub fn active_kind_labels(&self, t_min: f64) -> impl Iterator<Item = &'static str> + '_ {
        self.sensors
            .iter()
            .filter(move |f| f.window.contains(t_min))
            .map(|f| f.kind.label())
            .chain(
                self.actuators
                    .iter()
                    .filter(move |f| f.window.contains(t_min))
                    .map(|f| f.kind.label()),
            )
            .chain(
                self.plant
                    .iter()
                    .filter(move |f| f.window.contains(t_min))
                    .map(|f| f.kind.label()),
            )
    }

    /// Applies every active sensor fault to the sampled readings in
    /// place. `dc_temps` and `acu_inlet` are the raw sensor vectors for
    /// this sample; out-of-range targets are ignored (a plan written for
    /// a bigger testbed degrades gracefully on a smaller one).
    pub fn corrupt_readings<R: Rng>(
        &self,
        t_min: f64,
        dc_temps: &mut [f64], // lint:allow(no-raw-f64-in-public-api): corrupts raw sensor vectors in place
        acu_inlet: &mut [f64],
        rng: &mut R,
    ) {
        for fault in &self.sensors {
            if !fault.window.contains(t_min) {
                continue;
            }
            let slot = match fault.target {
                SensorTarget::DcSensor(k) => dc_temps.get_mut(k),
                SensorTarget::AcuInlet(k) => acu_inlet.get_mut(k),
            };
            let Some(v) = slot else { continue };
            match fault.kind {
                SensorFaultKind::StuckAt(value) => *v = value,
                SensorFaultKind::Drift { rate_c_per_min } => {
                    *v += rate_c_per_min * fault.window.elapsed(t_min);
                }
                SensorFaultKind::Dropout => *v = f64::NAN,
                SensorFaultKind::NoiseBurst { std_c } => {
                    // Box-Muller from two uniforms; keeps the fault layer
                    // independent of the sensor models' distributions.
                    let u1: f64 = rng.random::<f64>().max(1e-12);
                    let u2: f64 = rng.random::<f64>();
                    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                    *v += std_c.max(0.0) * z;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn window(a: f64, b: f64) -> FaultWindow {
        FaultWindow::new(a, b)
    }

    #[test]
    fn window_is_half_open() {
        let w = window(10.0, 20.0);
        assert!(!w.contains(9.99));
        assert!(w.contains(10.0));
        assert!(w.contains(19.99));
        assert!(!w.contains(20.0));
    }

    #[test]
    fn empty_plan_is_inert() {
        let plan = FaultPlan::none();
        assert!(plan.is_empty());
        assert!(!plan.any_active(0.0));
        assert_eq!(plan.capacity_factor(5.0), 1.0);
        assert!(!plan.fan_failed(5.0));
        assert!(plan.active_actuator(5.0).is_none());

        let mut dc = vec![20.0, 21.0];
        let mut inlet = vec![25.0];
        let mut rng = StdRng::seed_from_u64(1);
        plan.corrupt_readings(5.0, &mut dc, &mut inlet, &mut rng);
        assert_eq!(dc, vec![20.0, 21.0]);
        assert_eq!(inlet, vec![25.0]);
    }

    #[test]
    fn stuck_at_overrides_reading_only_inside_window() {
        let plan = FaultPlan {
            sensors: vec![SensorFault {
                target: SensorTarget::DcSensor(1),
                kind: SensorFaultKind::StuckAt(40.0),
                window: window(10.0, 20.0),
            }],
            ..FaultPlan::default()
        };
        let mut rng = StdRng::seed_from_u64(2);
        let mut dc = vec![20.0, 21.0, 22.0];
        plan.corrupt_readings(5.0, &mut dc, &mut [], &mut rng);
        assert_eq!(dc[1], 21.0);
        plan.corrupt_readings(15.0, &mut dc, &mut [], &mut rng);
        assert_eq!(dc[1], 40.0);
        assert_eq!(dc[0], 20.0);
        assert_eq!(dc[2], 22.0);
    }

    #[test]
    fn drift_accumulates_from_window_start() {
        let plan = FaultPlan {
            sensors: vec![SensorFault {
                target: SensorTarget::AcuInlet(0),
                kind: SensorFaultKind::Drift {
                    rate_c_per_min: 0.5,
                },
                window: window(100.0, 200.0),
            }],
            ..FaultPlan::default()
        };
        let mut rng = StdRng::seed_from_u64(3);
        let mut inlet = vec![25.0];
        plan.corrupt_readings(110.0, &mut [], &mut inlet, &mut rng);
        assert!((inlet[0] - 30.0).abs() < 1e-9, "10 min at 0.5 °C/min");
    }

    #[test]
    fn dropout_yields_nan() {
        let plan = FaultPlan {
            sensors: vec![SensorFault {
                target: SensorTarget::DcSensor(0),
                kind: SensorFaultKind::Dropout,
                window: window(0.0, 10.0),
            }],
            ..FaultPlan::default()
        };
        let mut rng = StdRng::seed_from_u64(4);
        let mut dc = vec![20.0];
        plan.corrupt_readings(1.0, &mut dc, &mut [], &mut rng);
        assert!(dc[0].is_nan());
    }

    #[test]
    fn noise_burst_perturbs_with_roughly_right_spread() {
        let plan = FaultPlan {
            sensors: vec![SensorFault {
                target: SensorTarget::DcSensor(0),
                kind: SensorFaultKind::NoiseBurst { std_c: 2.0 },
                window: window(0.0, 1e9),
            }],
            ..FaultPlan::default()
        };
        let mut rng = StdRng::seed_from_u64(5);
        let n = 4000;
        let mut sum = 0.0;
        let mut sumsq = 0.0;
        for _ in 0..n {
            let mut dc = vec![0.0];
            plan.corrupt_readings(1.0, &mut dc, &mut [], &mut rng);
            sum += dc[0];
            sumsq += dc[0] * dc[0];
        }
        let mean = sum / n as f64;
        let var = sumsq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.2, "mean {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.3, "std {}", var.sqrt());
    }

    #[test]
    fn out_of_range_targets_are_ignored() {
        let plan = FaultPlan {
            sensors: vec![SensorFault {
                target: SensorTarget::DcSensor(99),
                kind: SensorFaultKind::StuckAt(0.0),
                window: window(0.0, 10.0),
            }],
            ..FaultPlan::default()
        };
        let mut rng = StdRng::seed_from_u64(6);
        let mut dc = vec![20.0];
        plan.corrupt_readings(1.0, &mut dc, &mut [], &mut rng);
        assert_eq!(dc, vec![20.0]);
    }

    #[test]
    fn fouled_coils_compound_and_fan_failure_reports() {
        let plan = FaultPlan {
            plant: vec![
                PlantFault {
                    kind: PlantFaultKind::FouledCoil {
                        capacity_factor: 0.5,
                    },
                    window: window(0.0, 100.0),
                },
                PlantFault {
                    kind: PlantFaultKind::FouledCoil {
                        capacity_factor: 0.5,
                    },
                    window: window(50.0, 100.0),
                },
                PlantFault {
                    kind: PlantFaultKind::FanFailure,
                    window: window(80.0, 90.0),
                },
            ],
            ..FaultPlan::default()
        };
        assert_eq!(plan.capacity_factor(10.0), 0.5);
        assert_eq!(plan.capacity_factor(60.0), 0.25);
        assert_eq!(plan.capacity_factor(150.0), 1.0);
        assert!(plan.fan_failed(85.0));
        assert!(!plan.fan_failed(95.0));
    }

    #[test]
    fn actuator_fault_reports_kind_in_window() {
        let plan = FaultPlan {
            actuators: vec![ActuatorFault {
                kind: ActuatorFaultKind::WriteTimeout,
                window: window(30.0, 40.0),
            }],
            ..FaultPlan::default()
        };
        assert_eq!(
            plan.active_actuator(35.0),
            Some(ActuatorFaultKind::WriteTimeout)
        );
        assert!(plan.active_actuator(45.0).is_none());
        assert!(plan.any_active(35.0));
        assert!(!plan.any_active(45.0));
    }
}
