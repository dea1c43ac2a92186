//! Air-cooling unit: PID-driven compressor, COP curve, inlet sensors.
//!
//! Power model (calibrated to §2.1's reported range of ~0.1 kW to ~5 kW):
//!
//! ```text
//! P_acu = P_fan + P_base + Q_eff / (COP(T_supply) · PLF(duty))    duty > ε
//! P_acu = P_fan                                                    duty ≤ ε
//! ```
//!
//! * COP rises with the supply (evaporator) temperature — serving the room
//!   with 20 °C air is cheaper per joule than with 14 °C air. This is the
//!   physical mechanism behind the paper's energy savings: TESLA raises
//!   the set-point, the supply temperature rises, the COP improves.
//! * PLF (part-load factor) penalizes low-duty compressor cycling.
//! * When the set-point exceeds the inlet temperature, the PID collapses
//!   duty to ~0 and the unit consumes only fan power: *cooling
//!   interruption* (the paper detects it as ACU power below 0.1 kW).

use crate::config::AcuParams;
use crate::pid::Pid;
use rand::Rng;
use rand_distr::{Distribution, Normal};
use tesla_units::{Celsius, DegC, Kilowatts, Seconds};

/// Per-step output of the ACU model.
#[derive(Debug, Clone, Copy)]
pub struct AcuStep {
    /// Compressor duty in `[0, 1]`.
    pub duty: f64,
    /// Heat actually extracted.
    pub q_kw: Kilowatts,
    /// Supply-air temperature.
    pub supply_temp: Celsius,
    /// Electrical power.
    pub power_kw: Kilowatts,
    /// True when cold-air delivery is interrupted.
    pub interrupted: bool,
}

/// Stateful ACU model.
#[derive(Debug, Clone)]
pub struct Acu {
    params: AcuParams,
    pid: Pid,
    setpoint: Celsius,
    noise: Normal<f64>,
    last_supply: Celsius,
    /// Previous applied duty, for the upward slew-rate limit.
    prev_duty: f64,
    /// Transient capacity multiplier on `q_max` (fouled coil; 1 = healthy).
    capacity_derate: f64,
    /// True while the supply fan has failed: no airflow, no extraction,
    /// no power draw.
    fan_failed: bool,
}

impl Acu {
    /// Creates an ACU with the given parameters and an initial set-point.
    pub fn new(params: AcuParams, initial_setpoint: Celsius) -> Self {
        let pid = Pid::new(params.pid.clone());
        let noise = Normal::new(0.0, params.inlet_noise_std.max(1e-12)).expect("finite std");
        Acu {
            pid,
            noise,
            setpoint: initial_setpoint,
            last_supply: initial_setpoint - DegC::new(4.0),
            prev_duty: 0.0,
            capacity_derate: 1.0,
            fan_failed: false,
            params,
        }
    }

    /// Parameters in use.
    pub fn params(&self) -> &AcuParams {
        &self.params
    }

    /// Currently executed set-point.
    pub fn setpoint(&self) -> Celsius {
        self.setpoint
    }

    /// Commands a new set-point (clamping is the testbed's job; the ACU
    /// trusts its register).
    pub fn set_setpoint(&mut self, sp: Celsius) {
        self.setpoint = sp;
    }

    /// Number of inlet sensors.
    pub fn n_sensors(&self) -> usize {
        self.params.inlet_sensor_bias.len()
    }

    /// One reading of each inlet sensor given the true return-air
    /// temperature, in sensor order, each with one noise draw.
    fn inlet_readings<'a, R: Rng>(
        &'a self,
        return_temp: Celsius,
        rng: &'a mut R,
    ) -> impl Iterator<Item = Celsius> + 'a {
        self.params
            .inlet_sensor_bias
            .iter()
            .map(move |b| return_temp + DegC::new(b + self.noise.sample(rng)))
    }

    /// Samples the inlet sensors given the true return-air temperature,
    /// into `out` (one entry per sensor, °C).
    // lint:allow(no-raw-f64-in-public-api): fills the observation's raw telemetry vector
    pub fn sample_inlet_sensors<R: Rng>(&self, return_temp: Celsius, rng: &mut R, out: &mut [f64]) {
        debug_assert_eq!(out.len(), self.n_sensors());
        for (o, t) in out.iter_mut().zip(self.inlet_readings(return_temp, rng)) {
            *o = t.value();
        }
    }

    /// The mean of one fresh reading of each inlet sensor: the PID's
    /// process variable on the real unit.
    pub fn mean_inlet_reading<R: Rng>(&self, return_temp: Celsius, rng: &mut R) -> Celsius {
        Celsius::new(
            self.inlet_readings(return_temp, rng)
                .map(|t| t.value())
                .sum::<f64>()
                / self.n_sensors().max(1) as f64,
        )
    }

    /// Advances the compressor control loop by `dt`.
    ///
    /// * `measured_inlet` — the PID's process variable (mean of the inlet
    ///   sensors on the real unit).
    /// * `true_return` — physical return-air temperature used to compute
    ///   the achievable supply temperature.
    /// * `mdot_cp` — air-loop heat capacity rate, kW/K.
    pub fn step(
        &mut self,
        measured_inlet: Celsius,
        true_return: Celsius,
        mdot_cp: f64,
        dt: Seconds,
    ) -> AcuStep {
        if self.fan_failed {
            // No airflow: nothing is extracted and the unit is dark. The
            // compressor restarts from zero duty (through the slew limit)
            // once the fan recovers.
            self.prev_duty = 0.0;
            self.last_supply = true_return;
            return AcuStep {
                duty: 0.0,
                q_kw: Kilowatts::new(0.0),
                supply_temp: true_return,
                power_kw: Kilowatts::new(0.0),
                interrupted: true,
            };
        }
        // Residual error: inlet − set-point. Positive → must cool harder.
        let error = (measured_inlet - self.setpoint).value();
        let commanded = self.pid.step(error, dt.value());
        // Compressors ramp load slowly but shed it fast: limit only the
        // upward slew.
        let duty = commanded.min(self.prev_duty + self.params.duty_slew_per_s * dt.value());
        self.prev_duty = duty;

        let q_requested = duty * self.params.q_max_kw * self.capacity_derate;
        // Supply cannot go below the evaporator floor.
        let supply_unclamped = true_return.value() - q_requested / mdot_cp;
        let supply = supply_unclamped.max(self.params.supply_temp_min);
        let q_eff = (true_return.value() - supply) * mdot_cp;

        let interrupted = duty <= self.params.interruption_duty;
        let power = if interrupted {
            self.params.fan_power_kw
        } else {
            let cop = (self.params.cop_intercept + self.params.cop_slope * supply)
                .max(self.params.cop_floor);
            let plf = self.params.plf_floor + (1.0 - self.params.plf_floor) * duty;
            self.params.fan_power_kw + self.params.base_power_kw + q_eff / (cop * plf)
        };

        self.last_supply = Celsius::new(supply);
        AcuStep {
            duty,
            q_kw: Kilowatts::new(q_eff),
            supply_temp: Celsius::new(supply),
            power_kw: Kilowatts::new(power),
            interrupted,
        }
    }

    /// Supply temperature from the most recent step.
    pub fn last_supply(&self) -> Celsius {
        self.last_supply
    }

    /// Resets controller dynamic state.
    pub fn reset(&mut self) {
        self.pid.reset();
        self.prev_duty = 0.0;
    }

    /// Degrades (or restores) the refrigeration efficiency by scaling the
    /// COP curve — fouled coils, refrigerant loss, worn compressors.
    /// `factor` multiplies both COP coefficients; values below 1 degrade.
    pub fn scale_cop(&mut self, factor: f64) {
        let f = factor.max(0.05);
        self.params.cop_intercept *= f;
        self.params.cop_slope *= f;
    }

    /// Sets the transient capacity derate (fouled coil): `q_max` is
    /// multiplied by `factor` until the next call. 1.0 restores health.
    pub fn set_capacity_derate(&mut self, factor: f64) {
        self.capacity_derate = factor.clamp(0.0, 1.0);
    }

    /// Current transient capacity derate.
    pub fn capacity_derate(&self) -> f64 {
        self.capacity_derate
    }

    /// Fails or restores the supply fan.
    pub fn set_fan_failed(&mut self, failed: bool) {
        self.fan_failed = failed;
    }

    /// True while the supply fan is failed.
    pub fn fan_failed(&self) -> bool {
        self.fan_failed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn acu(sp: f64) -> Acu {
        Acu::new(AcuParams::default(), Celsius::new(sp))
    }

    /// One 1 s step with the measured inlet equal to the true return.
    fn step1(a: &mut Acu, temp: f64) -> AcuStep {
        a.step(
            Celsius::new(temp),
            Celsius::new(temp),
            1.0,
            Seconds::new(1.0),
        )
    }

    #[test]
    fn setpoint_above_inlet_interrupts_cooling() {
        let mut a = acu(30.0);
        // Inlet at 24 °C, set-point 30 °C: residual error negative.
        let mut last = None;
        for _ in 0..120 {
            last = Some(step1(&mut a, 24.0));
        }
        let s = last.unwrap();
        assert!(s.interrupted);
        assert!((s.power_kw.value() - AcuParams::default().fan_power_kw).abs() < 1e-12);
        assert_eq!(s.q_kw.value(), 0.0);
    }

    #[test]
    fn setpoint_below_inlet_drives_duty_up() {
        let mut a = acu(20.0);
        let mut duties = Vec::new();
        for _ in 0..700 {
            duties.push(step1(&mut a, 27.0).duty);
        }
        assert!(duties[0] > 0.0);
        // The slew limiter paces the ramp, but a persistent error must
        // still saturate the compressor eventually.
        assert!(
            *duties.last().unwrap() > 0.9,
            "persistent error saturates duty"
        );
        // And the ramp respects the slew limit.
        for w in duties.windows(2) {
            assert!(w[1] - w[0] <= 0.002 + 1e-12);
        }
    }

    #[test]
    fn max_power_is_about_five_kilowatts() {
        // §2.1: "as high as ~5 kW on our testbed". Worst case: the unit
        // saturates (duty 1) while the supply floor pins the evaporator
        // at its coldest, least-efficient point.
        let mut a = acu(15.0);
        let mut p = 0.0;
        for _ in 0..600 {
            p = step1(&mut a, 24.0).power_kw.value();
        }
        assert!(p > 4.0 && p < 6.0, "saturated power {p} kW");
    }

    #[test]
    fn higher_supply_temperature_is_more_efficient() {
        // Same extraction duty at two return temperatures: the warmer
        // evaporator must draw less power per kW of heat moved.
        let params = AcuParams::default();
        let mut cold = Acu::new(params.clone(), Celsius::new(18.0));
        let mut warm = Acu::new(params, Celsius::new(26.0));
        let mut p_cold = 0.0;
        let mut p_warm = 0.0;
        let mut q_cold = 0.0;
        let mut q_warm = 0.0;
        for _ in 0..1200 {
            // Hold each at ~2 K residual error so duty settles similarly.
            let sc = step1(&mut cold, 20.0);
            let sw = step1(&mut warm, 28.0);
            p_cold = sc.power_kw.value();
            p_warm = sw.power_kw.value();
            q_cold = sc.q_kw.value();
            q_warm = sw.q_kw.value();
        }
        let eff_cold = q_cold / p_cold;
        let eff_warm = q_warm / p_warm;
        assert!(
            eff_warm > eff_cold,
            "kW-per-kW: warm {eff_warm:.2} must beat cold {eff_cold:.2}"
        );
    }

    #[test]
    fn supply_temperature_respects_floor() {
        let mut a = acu(5.0); // absurdly low set-point
        let mut s = step1(&mut a, 14.0);
        for _ in 0..600 {
            s = step1(&mut a, 14.0);
        }
        assert!(s.supply_temp.value() >= AcuParams::default().supply_temp_min - 1e-9);
        // Effective Q is limited accordingly.
        assert!(s.q_kw.value() <= (14.0 - AcuParams::default().supply_temp_min) + 1e-9);
    }

    #[test]
    fn inlet_sensors_carry_bias_and_noise() {
        let a = acu(25.0);
        let mut rng = StdRng::seed_from_u64(3);
        let n = 4000;
        let mut sums = vec![0.0; a.n_sensors()];
        let mut readings = vec![0.0; a.n_sensors()];
        for _ in 0..n {
            a.sample_inlet_sensors(Celsius::new(25.0), &mut rng, &mut readings);
            for (s, v) in sums.iter_mut().zip(&readings) {
                *s += v;
            }
        }
        let means: Vec<f64> = sums.iter().map(|s| s / n as f64).collect();
        let bias = &AcuParams::default().inlet_sensor_bias;
        for (m, b) in means.iter().zip(bias) {
            assert!((m - (25.0 + b)).abs() < 0.01, "sensor mean {m} vs bias {b}");
        }
    }

    #[test]
    fn setpoint_dip_costs_transient_power() {
        // Fig. 4: a transient set-point dip of ~1 °C raises power by tens
        // of percent even though the lower set-point is never reached.
        // This is a closed-loop effect, so couple the ACU to the thermal
        // network.
        use crate::config::ThermalParams;
        use crate::thermal::ThermalNetwork;
        let mut a = acu(28.5);
        let mut net = ThermalNetwork::new(ThermalParams::default());
        let heat = Kilowatts::new(5.0);
        let dt = Seconds::new(1.0);
        let mut settled = 0.0;
        for _ in 0..40_000 {
            let ret = net.return_temp();
            let s = a.step(ret, ret, 1.0, dt);
            net.step(s.supply_temp, heat, dt);
            settled = s.power_kw.value();
        }
        // Dip the set-point by 1 °C for two minutes.
        a.set_setpoint(Celsius::new(27.5));
        let mut peak: f64 = 0.0;
        for _ in 0..120 {
            let ret = net.return_temp();
            let s = a.step(ret, ret, 1.0, dt);
            net.step(s.supply_temp, heat, dt);
            peak = peak.max(s.power_kw.value());
        }
        assert!(
            peak > settled * 1.10,
            "dip should raise power: settled {settled:.2} kW, peak {peak:.2} kW"
        );
    }

    #[test]
    fn cop_degradation_raises_power() {
        let mut healthy = acu(20.0);
        let mut degraded = acu(20.0);
        degraded.scale_cop(0.7);
        let mut p_healthy = 0.0;
        let mut p_degraded = 0.0;
        for _ in 0..900 {
            p_healthy = step1(&mut healthy, 24.0).power_kw.value();
            p_degraded = step1(&mut degraded, 24.0).power_kw.value();
        }
        assert!(
            p_degraded > p_healthy * 1.2,
            "degraded {p_degraded:.2} kW vs healthy {p_healthy:.2} kW"
        );
    }

    #[test]
    fn capacity_derate_limits_extraction() {
        let mut healthy = acu(20.0);
        let mut fouled = acu(20.0);
        fouled.set_capacity_derate(0.4);
        let mut q_healthy = 0.0;
        let mut q_fouled = 0.0;
        for _ in 0..900 {
            q_healthy = step1(&mut healthy, 27.0).q_kw.value();
            q_fouled = step1(&mut fouled, 27.0).q_kw.value();
        }
        assert!(
            q_fouled < q_healthy * 0.6,
            "fouled {q_fouled:.2} kW vs healthy {q_healthy:.2} kW"
        );
        // Restoring health restores capacity.
        fouled.set_capacity_derate(1.0);
        for _ in 0..900 {
            q_fouled = step1(&mut fouled, 27.0).q_kw.value();
        }
        assert!((q_fouled - q_healthy).abs() < 0.5);
    }

    #[test]
    fn fan_failure_kills_extraction_and_power() {
        let mut a = acu(20.0);
        for _ in 0..300 {
            step1(&mut a, 27.0);
        }
        a.set_fan_failed(true);
        let s = step1(&mut a, 27.0);
        assert!(s.interrupted);
        assert_eq!(s.q_kw.value(), 0.0);
        assert_eq!(s.power_kw.value(), 0.0);
        assert_eq!(s.supply_temp, Celsius::new(27.0));
        // Recovery ramps the compressor back through the slew limit.
        a.set_fan_failed(false);
        let s1 = step1(&mut a, 27.0);
        assert!(s1.duty <= AcuParams::default().duty_slew_per_s + 1e-12);
    }

    #[test]
    fn reset_clears_pid_state() {
        // Accumulate integral at a moderate, non-saturating error.
        let mut a = acu(26.0);
        for _ in 0..100 {
            step1(&mut a, 27.0);
        }
        let before = step1(&mut a, 27.0).duty;
        a.reset();
        let after = step1(&mut a, 27.0).duty;
        assert!(
            after < before,
            "reset must drop the accumulated integral: before {before}, after {after}"
        );
    }
}
