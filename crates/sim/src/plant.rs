//! The plant abstraction the control plane steps against.
//!
//! [`CoolingPlant`] is the minimal write/step surface a supervisor
//! needs. [`Testbed`] is the one plant; the trait lets callers wrap it
//! without touching the episode engine — the threaded runtime collects
//! every observation into a store on the way through, and a benchmark
//! can time each step.

use crate::testbed::{Observation, Testbed};
use crate::SimError;
use tesla_units::Celsius;

/// One controllable cooling cell: a set-point actuator plus a sampled
/// physics step. Everything the supervised per-zone engine touches.
pub trait CoolingPlant {
    /// Number of servers whose utilization the plant expects per step.
    fn n_servers(&self) -> usize;

    /// The set-point currently latched in the ACU.
    fn setpoint(&self) -> Celsius;

    /// Infallible clamped set-point write (initialization path).
    fn write_setpoint_clamped(&mut self, sp: Celsius);

    /// Fallible validated set-point write: typed error on out-of-spec or
    /// faulted writes, quantized latched value on success.
    fn try_write_setpoint(&mut self, sp: Celsius) -> Result<Celsius, SimError>;

    /// Advances one sampling period with per-server utilization targets.
    fn step_sample(&mut self, utils: &[f64]) -> Result<Observation, SimError>;

    /// [`CoolingPlant::step_sample`] into `obs`. The default replaces
    /// `obs` with the fresh sample; [`Testbed`] overrides it to write
    /// into `obs`'s buffers in place.
    fn step_sample_into(&mut self, utils: &[f64], obs: &mut Observation) -> Result<(), SimError> {
        *obs = self.step_sample(utils)?;
        Ok(())
    }
}

impl CoolingPlant for Testbed {
    fn n_servers(&self) -> usize {
        self.config().n_servers
    }

    fn setpoint(&self) -> Celsius {
        Testbed::setpoint(self)
    }

    fn write_setpoint_clamped(&mut self, sp: Celsius) {
        Testbed::write_setpoint(self, sp);
    }

    fn try_write_setpoint(&mut self, sp: Celsius) -> Result<Celsius, SimError> {
        Testbed::try_write_setpoint(self, sp)
    }

    fn step_sample(&mut self, utils: &[f64]) -> Result<Observation, SimError> {
        Testbed::step_sample(self, utils)
    }

    fn step_sample_into(&mut self, utils: &[f64], obs: &mut Observation) -> Result<(), SimError> {
        Testbed::step_sample_into(self, utils, obs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;

    #[test]
    fn testbed_steps_through_the_trait() {
        let cfg = SimConfig::default();
        let mut direct = Testbed::new(cfg.clone(), 5).unwrap();
        let mut boxed: Box<dyn CoolingPlant> = Box::new(Testbed::new(cfg.clone(), 5).unwrap());
        assert_eq!(boxed.n_servers(), cfg.n_servers);

        direct.write_setpoint(Celsius::new(23.04));
        boxed.write_setpoint_clamped(Celsius::new(23.04));
        assert_eq!(boxed.setpoint(), direct.setpoint());
        let latched = boxed.try_write_setpoint(Celsius::new(24.16)).unwrap();
        assert_eq!(
            latched,
            direct.try_write_setpoint(Celsius::new(24.16)).unwrap()
        );

        let u = vec![0.3; cfg.n_servers];
        let (a, b) = (
            direct.step_sample(&u).unwrap(),
            boxed.step_sample(&u).unwrap(),
        );
        assert_eq!(a.dc_temps, b.dc_temps);
        assert_eq!(a.acu_energy_kwh, b.acu_energy_kwh);
    }
}
