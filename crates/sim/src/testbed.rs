//! The testbed facade: servers + thermal network + ACU + sensors, driven
//! one sampling period (Δt = 1 min) at a time.
//!
//! Physics integrate at a fine inner step (default 1 s); the observation
//! returned after each sampling period carries every signal the paper's
//! Telegraf deployment collects (§4): per-server power and CPU/memory
//! utilization, ACU instantaneous power and inlet-sensor temperatures,
//! and the 35 rack sensor readings. Set-points are commanded through the
//! Modbus register facade, quantized to 0.1 °C like the real device.

use crate::acu::Acu;
use crate::config::SimConfig;
use crate::faults::{ActuatorFaultKind, FaultPlan};
use crate::modbus::{RegisterMap, REG_INLET_BASE, REG_POWER_W, REG_SETPOINT};
use crate::sensors::SensorArray;
use crate::server::ServerBank;
use crate::thermal::ThermalNetwork;
use crate::SimError;
use rand::rngs::StdRng;
use rand::SeedableRng;
use tesla_units::{Celsius, Kilowatts, Seconds, NOMINAL_SETPOINT};

/// One sampling period's worth of telemetry.
#[derive(Debug, Clone)]
pub struct Observation {
    /// Simulation time at the end of the period, seconds.
    pub time_s: f64,
    /// Set-point the ACU executed during this period, °C.
    pub setpoint: f64, // lint:allow(no-raw-f64-in-public-api): bulk telemetry record
    /// ACU inlet sensor readings at the sample instant (`N_a` values), °C.
    pub acu_inlet_temps: Vec<f64>, // lint:allow(no-raw-f64-in-public-api): bulk telemetry record
    /// Rack sensor readings (`N_d` values), °C. Cold-aisle sensors come
    /// first (indices `0..n_cold_aisle_sensors`).
    pub dc_temps: Vec<f64>, // lint:allow(no-raw-f64-in-public-api): bulk telemetry record
    /// Per-server electrical power, kW.
    pub server_powers_kw: Vec<f64>, // lint:allow(no-raw-f64-in-public-api): bulk telemetry record
    /// Average per-server power, kW (the ASP sub-module's signal).
    pub avg_server_power_kw: f64, // lint:allow(no-raw-f64-in-public-api): bulk telemetry record
    /// Per-server CPU utilization in `[0, 1]`.
    pub cpu_utils: Vec<f64>,
    /// Per-server memory utilization in `[0, 1]`.
    pub mem_utils: Vec<f64>,
    /// ACU instantaneous electrical power at the sample instant, kW.
    pub acu_power_kw: f64, // lint:allow(no-raw-f64-in-public-api): bulk telemetry record
    /// ACU energy consumed over this sampling period, kWh.
    pub acu_energy_kwh: f64, // lint:allow(no-raw-f64-in-public-api): bulk telemetry record
    /// Compressor duty at the sample instant.
    pub duty: f64,
    /// Supply-air temperature at the sample instant, °C.
    pub supply_temp: f64, // lint:allow(no-raw-f64-in-public-api): bulk telemetry record
    /// Fraction of this period spent in cooling interruption.
    pub interrupted_frac: f64,
    /// Max over the cold-aisle sensor readings, °C (Eq. 9's quantity).
    /// Computed from the *reported* (possibly fault-corrupted) readings;
    /// NaN dropouts are skipped.
    pub cold_aisle_max: f64, // lint:allow(no-raw-f64-in-public-api): untrusted telemetry record
    /// Noise- and fault-free max cold-aisle temperature, °C — the ground
    /// truth used to score thermal safety when sensors may be lying.
    pub cold_aisle_max_true: f64, // lint:allow(no-raw-f64-in-public-api): scoring ground truth, telemetry record
}

impl Observation {
    /// An all-zero observation whose vectors have `cfg`'s sensor and
    /// server counts: the buffers [`Testbed::step_sample_into`] fills.
    pub fn for_config(cfg: &SimConfig) -> Self {
        Observation {
            time_s: 0.0,
            setpoint: 0.0,
            acu_inlet_temps: vec![0.0; cfg.n_acu_sensors],
            dc_temps: vec![0.0; cfg.n_dc_sensors],
            server_powers_kw: vec![0.0; cfg.n_servers],
            avg_server_power_kw: 0.0,
            cpu_utils: vec![0.0; cfg.n_servers],
            mem_utils: vec![0.0; cfg.n_servers],
            acu_power_kw: 0.0,
            acu_energy_kwh: 0.0,
            duty: 0.0,
            supply_temp: 0.0,
            interrupted_frac: 0.0,
            cold_aisle_max: 0.0,
            cold_aisle_max_true: 0.0,
        }
    }

    /// Gives each vector `cfg`'s length; a vector that has it already
    /// is left alone, so this allocates only for an observation sized
    /// for another configuration.
    fn size_for(&mut self, cfg: &SimConfig) {
        self.acu_inlet_temps.resize(cfg.n_acu_sensors, 0.0);
        self.dc_temps.resize(cfg.n_dc_sensors, 0.0);
        self.server_powers_kw.resize(cfg.n_servers, 0.0);
        self.cpu_utils.resize(cfg.n_servers, 0.0);
        self.mem_utils.resize(cfg.n_servers, 0.0);
    }

    /// True if any cold-aisle sensor exceeded `limit` at the sample instant.
    pub fn violates(&self, limit: f64) -> bool {
        self.cold_aisle_max > limit
    }
}

/// The simulated data-center testbed.
#[derive(Debug)]
pub struct Testbed {
    cfg: SimConfig,
    servers: ServerBank,
    thermal: ThermalNetwork,
    acu: Acu,
    sensors: SensorArray,
    registers: RegisterMap,
    faults: FaultPlan,
    rng: StdRng,
    time_s: f64,
    /// Fault kinds active at the previous sample (for rising-edge
    /// activation counters).
    active_faults: Vec<&'static str>,
}

impl Testbed {
    /// Builds a testbed from a validated configuration and RNG seed.
    pub fn new(cfg: SimConfig, seed: u64) -> Result<Self, SimError> {
        cfg.validate()?;
        let servers = ServerBank::new(cfg.n_servers, cfg.server.clone());
        let thermal = ThermalNetwork::new(cfg.thermal.clone());
        let initial_sp = cfg.setpoint_range().clamp(NOMINAL_SETPOINT);
        let acu = Acu::new(cfg.acu.clone(), initial_sp);
        let sensors = SensorArray::new(&cfg);
        let mut registers = RegisterMap::new();
        registers.write_temp(REG_SETPOINT, initial_sp);
        Ok(Testbed {
            cfg,
            servers,
            thermal,
            acu,
            sensors,
            registers,
            faults: FaultPlan::none(),
            rng: StdRng::seed_from_u64(seed),
            time_s: 0.0,
            active_faults: Vec::new(),
        })
    }

    /// The configuration in use.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Current simulation time, seconds.
    pub fn time_s(&self) -> f64 {
        self.time_s
    }

    /// Installs a fault schedule. Windows are interpreted in *testbed*
    /// simulation time (minutes since construction, including any
    /// warm-up the caller runs).
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = plan;
    }

    /// Current simulation time in minutes (the unit fault windows use).
    pub fn time_min(&self) -> f64 {
        self.time_s / 60.0
    }

    /// Commands a new set-point through the Modbus register (clamped to
    /// the ACU's `[S_min, S_max]` specification, quantized to 0.1 °C).
    /// This legacy path ignores actuator faults; fault-aware callers use
    /// [`Testbed::try_write_setpoint`].
    pub fn write_setpoint(&mut self, sp: Celsius) {
        let clamped = self.cfg.setpoint_range().clamp(sp);
        self.registers.write_temp(REG_SETPOINT, clamped);
        let quantized = self
            .registers
            .read_temp(REG_SETPOINT)
            .expect("set-point register always populated");
        self.acu.set_setpoint(quantized);
    }

    /// Fallible set-point write: validates bounds through the register
    /// facade (typed error instead of silent clamping) and honours any
    /// actuator fault active right now. On success returns the quantized
    /// value the ACU latched; on failure the previous set-point stays in
    /// force.
    pub fn try_write_setpoint(&mut self, sp: Celsius) -> Result<Celsius, SimError> {
        match self.faults.active_actuator(self.time_min()) {
            Some(
                kind @ (ActuatorFaultKind::WriteTimeout | ActuatorFaultKind::RejectedRegister),
            ) => {
                tesla_obs::global()
                    .counter("sim_setpoint_write_faults_total", &[("kind", kind.label())])
                    .inc();
                return Err(match kind {
                    ActuatorFaultKind::WriteTimeout => SimError::WriteTimeout,
                    ActuatorFaultKind::RejectedRegister => SimError::RegisterRejected(REG_SETPOINT),
                });
            }
            None => {}
        }
        let quantized = self
            .registers
            .try_write_setpoint(sp, self.cfg.setpoint_range())?;
        self.acu.set_setpoint(quantized);
        tesla_obs::counter!("sim_setpoint_writes_total").inc();
        Ok(quantized)
    }

    /// The set-point currently latched in the ACU.
    pub fn setpoint(&self) -> Celsius {
        self.acu.setpoint()
    }

    /// Read-only access to the Modbus register map.
    pub fn registers(&self) -> &RegisterMap {
        &self.registers
    }

    /// The hot-aisle bulk temperature — the boundary state that
    /// inter-pod thermal bleed acts on.
    pub fn hot_aisle_temp(&self) -> Celsius {
        Celsius::new(self.thermal.state().hot_aisle)
    }

    /// The hot-aisle thermal capacity, kJ/K (the denominator that
    /// converts a bleed energy transfer into a temperature change).
    // lint:allow(no-raw-f64-in-public-api): thermal capacity kJ/K, no newtype
    pub fn hot_aisle_capacity_kj_per_k(&self) -> f64 {
        self.cfg.thermal.c_hot_kj_per_k
    }

    /// Deposits (positive) or extracts (negative) `energy_kj` into the
    /// hot aisle. The fleet layer uses equal-and-opposite calls on
    /// neighbouring pods to realize site-level thermal bleed, which makes
    /// the exchange energy-conserving by construction.
    // lint:allow(no-raw-f64-in-public-api): bulk energy transfer kJ, no newtype
    pub fn add_hot_aisle_energy_kj(&mut self, energy_kj: f64) -> Result<(), SimError> {
        if !energy_kj.is_finite() {
            return Err(SimError::NonFiniteWrite(Celsius::new(energy_kj)));
        }
        let mut state = self.thermal.state();
        state.hot_aisle += energy_kj / self.cfg.thermal.c_hot_kj_per_k;
        self.thermal.set_state(state);
        Ok(())
    }

    /// Injects ACU refrigeration degradation mid-run (fouled coils,
    /// refrigerant loss): scales the COP curve by `factor` (< 1 degrades).
    /// Used to study plant drift and online recalibration.
    pub fn degrade_acu_cop(&mut self, factor: f64) {
        self.acu.scale_cop(factor);
    }

    /// Changes the containment leakage mid-run (a removed blanking panel):
    /// the cold aisle runs warmer at the same set-point afterwards.
    pub fn set_containment_leakage(&mut self, leakage: f64) {
        self.thermal.set_leakage(leakage);
    }

    /// Runs the physics to a near-steady state under a constant
    /// utilization, without producing observations. Useful to start
    /// experiments from equilibrium instead of the arbitrary initial state.
    pub fn warm_up(&mut self, utils: &[f64], minutes: usize) -> Result<(), SimError> {
        let mut obs = Observation::for_config(&self.cfg);
        for _ in 0..minutes {
            self.step_sample_into(utils, &mut obs)?;
        }
        Ok(())
    }

    /// Advances one sampling period (`cfg.sample_period_s`) with the given
    /// per-server utilization targets and returns the telemetry sample.
    pub fn step_sample(&mut self, utils: &[f64]) -> Result<Observation, SimError> {
        let mut obs = Observation::for_config(&self.cfg);
        self.step_sample_into(utils, &mut obs)?;
        Ok(obs)
    }

    /// [`Testbed::step_sample`] into `obs`, overwriting every field in
    /// place. An observation from [`Observation::for_config`] (or from
    /// an earlier step) already has the right lengths, so the step
    /// allocates nothing; a vector of another length is resized first.
    /// On an error `obs` is left untouched.
    pub fn step_sample_into(
        &mut self,
        utils: &[f64],
        obs: &mut Observation,
    ) -> Result<(), SimError> {
        if utils.len() != self.cfg.n_servers {
            return Err(SimError::BadUtilization {
                expected: self.cfg.n_servers,
                got: utils.len(),
            });
        }
        for &u in utils {
            if !(0.0..=1.0).contains(&u) || !u.is_finite() {
                return Err(SimError::UtilizationOutOfRange(u));
            }
        }
        self.servers.set_targets(utils);

        // Plant faults resolve at sample granularity (windows are in
        // minutes, one sample is one minute).
        let t_min = self.time_min();
        if tesla_obs::enabled() {
            self.record_fault_activations(t_min);
        }
        self.acu
            .set_capacity_derate(self.faults.capacity_factor(t_min));
        self.acu.set_fan_failed(self.faults.fan_failed(t_min));

        let dt = self.cfg.inner_dt_s;
        let steps = self.cfg.inner_steps_per_sample();
        let mdot_cp = self.cfg.thermal.mdot_cp_kw_per_k;

        let mut energy_kwh = 0.0;
        let mut interrupted_steps = 0usize;
        let mut last_power = 0.0;
        let mut last_duty = 0.0;
        let mut last_supply = self.acu.last_supply().value();
        let mut last_measured = self.acu.setpoint().value();

        for _ in 0..steps {
            self.servers.step(dt);
            let heat = self.servers.total_heat_kw();
            let true_return = self.thermal.return_temp();
            // The PID acts on its (noisy, biased) inlet sensors.
            let measured = self.acu.mean_inlet_reading(true_return, &mut self.rng);
            let step = self
                .acu
                .step(measured, true_return, mdot_cp, Seconds::new(dt));
            self.thermal.step(step.supply_temp, heat, Seconds::new(dt));

            energy_kwh += step.power_kw.value() * dt / 3600.0;
            if step.interrupted {
                interrupted_steps += 1;
            }
            last_power = step.power_kw.value();
            last_duty = step.duty;
            last_supply = step.supply_temp.value();
            last_measured = measured.value();
            self.time_s += dt;
        }
        // The PID's tracking residual: measured inlet minus set-point at
        // the last inner step. Persistent nonzero values mean the loop
        // cannot reach its command (capacity derate, fan failure).
        tesla_obs::gauge!("sim_pid_error_celsius").set(last_measured - self.acu.setpoint().value());

        let state = self.thermal.state();
        let (cold_bulk, hot_bulk) = (
            Celsius::new(state.cold_aisle),
            Celsius::new(state.hot_aisle),
        );
        obs.size_for(&self.cfg);
        self.acu
            .sample_inlet_sensors(hot_bulk, &mut self.rng, &mut obs.acu_inlet_temps);
        self.sensors
            .sample(cold_bulk, hot_bulk, &mut self.rng, &mut obs.dc_temps);
        let cold_aisle_max_true = self
            .sensors
            .cold_aisle_max_true(cold_bulk, hot_bulk)
            .value();
        // Sensor faults corrupt only what is *reported*; the physics and
        // the ground-truth max above are untouched. Faults resolve
        // against the minute this sample started, matching plant faults.
        self.faults.corrupt_readings(
            t_min,
            &mut obs.dc_temps,
            &mut obs.acu_inlet_temps,
            &mut self.rng,
        );
        self.servers
            .powers_kw(&mut self.rng, &mut obs.server_powers_kw);
        let avg_server_power_kw =
            obs.server_powers_kw.iter().sum::<f64>() / obs.server_powers_kw.len().max(1) as f64;
        // NaN dropouts are skipped by f64::max.
        let cold_aisle_max = obs.dc_temps[..self.cfg.n_cold_aisle_sensors]
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max);

        self.registers
            .write_power_kw(REG_POWER_W, Kilowatts::new(last_power));
        for (i, v) in obs.acu_inlet_temps.iter().enumerate() {
            self.registers
                .write_temp(REG_INLET_BASE + i as u16, Celsius::new(*v));
        }

        obs.time_s = self.time_s;
        obs.setpoint = self.acu.setpoint().value();
        obs.cpu_utils
            .copy_from_slice(self.servers.effective_utils());
        obs.mem_utils.copy_from_slice(self.servers.mem_utils());
        obs.avg_server_power_kw = avg_server_power_kw;
        obs.acu_power_kw = last_power;
        obs.acu_energy_kwh = energy_kwh;
        obs.duty = last_duty;
        obs.supply_temp = last_supply;
        obs.interrupted_frac = interrupted_steps as f64 / steps as f64;
        obs.cold_aisle_max = cold_aisle_max;
        obs.cold_aisle_max_true = cold_aisle_max_true;
        Ok(())
    }

    /// Counts each fault kind that is active at `t_min` and was not at
    /// the previous sample, and remembers the active kinds. The caller
    /// runs it only while metrics collection is on.
    // lint:allow(no-alloc-in-decide-steady-state): metrics-only bookkeeping; the sample path calls it only while collection is on, and the label list is as long as the active faults
    fn record_fault_activations(&mut self, t_min: f64) {
        let mut now_active: Vec<&'static str> = self.faults.active_kind_labels(t_min).collect();
        now_active.sort_unstable();
        now_active.dedup();
        for kind in &now_active {
            if !self.active_faults.contains(kind) {
                tesla_obs::global()
                    .counter("sim_fault_activations_total", &[("kind", kind)])
                    .inc();
                tesla_obs::event("fault_activated", &[("t_min", t_min)]);
            }
        }
        self.active_faults = now_active;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn testbed() -> Testbed {
        Testbed::new(SimConfig::default(), 42).unwrap()
    }

    fn uniform(u: f64) -> Vec<f64> {
        vec![u; SimConfig::default().n_servers]
    }

    #[test]
    fn observation_has_table1_shapes() {
        let mut tb = testbed();
        let obs = tb.step_sample(&uniform(0.2)).unwrap();
        assert_eq!(obs.acu_inlet_temps.len(), 2);
        assert_eq!(obs.dc_temps.len(), 35);
        assert_eq!(obs.server_powers_kw.len(), 21);
        assert_eq!(obs.cpu_utils.len(), 21);
        assert!((obs.time_s - 60.0).abs() < 1e-9);
    }

    #[test]
    fn bad_utilization_inputs_rejected() {
        let mut tb = testbed();
        assert!(matches!(
            tb.step_sample(&[0.5; 3]),
            Err(SimError::BadUtilization {
                expected: 21,
                got: 3
            })
        ));
        assert!(matches!(
            tb.step_sample(&uniform(1.5)),
            Err(SimError::UtilizationOutOfRange(_))
        ));
        let mut bad = uniform(0.2);
        bad[0] = f64::NAN;
        assert!(tb.step_sample(&bad).is_err());
    }

    #[test]
    fn modbus_registers_mirror_telemetry() {
        use crate::modbus::{REG_INLET_BASE, REG_POWER_W};
        let mut tb = testbed();
        tb.write_setpoint(Celsius::new(24.0));
        let obs = tb.step_sample(&uniform(0.3)).unwrap();
        let regs = tb.registers();
        // Power register mirrors the last instantaneous power (W-quantized).
        let reg_p = regs.read_power_kw(REG_POWER_W).unwrap();
        assert!((reg_p.value() - obs.acu_power_kw).abs() < 0.001);
        // Inlet registers mirror the sampled sensor temps (0.1 C quantized).
        for (i, v) in obs.acu_inlet_temps.iter().enumerate() {
            let reg_t = regs.read_temp(REG_INLET_BASE + i as u16).unwrap();
            assert!((reg_t.value() - v).abs() <= 0.05 + 1e-9);
        }
    }

    #[test]
    fn setpoint_clamps_to_spec_range() {
        let mut tb = testbed();
        tb.write_setpoint(Celsius::new(50.0));
        assert_eq!(tb.setpoint(), Celsius::new(35.0));
        tb.write_setpoint(Celsius::new(1.0));
        assert_eq!(tb.setpoint(), Celsius::new(20.0));
        tb.write_setpoint(Celsius::new(23.456));
        // Quantized to 0.1 °C by the register facade.
        assert!((tb.setpoint().value() - 23.5).abs() < 1e-9);
    }

    #[test]
    fn fixed_setpoint_reaches_thermal_safety() {
        // The paper's fixed 23 °C policy never violates the 22 °C
        // cold-aisle limit; neither should ours at medium load.
        let mut tb = testbed();
        tb.write_setpoint(Celsius::new(23.0));
        tb.warm_up(&uniform(0.25), 240).unwrap();
        let obs = tb.step_sample(&uniform(0.25)).unwrap();
        assert!(
            obs.cold_aisle_max < 22.0,
            "cold aisle max {} should be safe at 23 °C set-point",
            obs.cold_aisle_max
        );
        assert!(obs.interrupted_frac < 0.05, "no interruption expected");
    }

    #[test]
    fn high_setpoint_causes_interruption_and_fan_floor_power() {
        let mut tb = testbed();
        tb.write_setpoint(Celsius::new(23.0));
        tb.warm_up(&uniform(0.2), 180).unwrap();
        // Jump the set-point far above the return temperature.
        tb.write_setpoint(Celsius::new(35.0));
        let obs = tb.step_sample(&uniform(0.2)).unwrap();
        assert!(
            obs.interrupted_frac > 0.5,
            "interrupted {}",
            obs.interrupted_frac
        );
        assert!(
            obs.acu_power_kw <= 0.11,
            "fan floor, got {} kW",
            obs.acu_power_kw
        );
    }

    #[test]
    fn interruption_heats_the_cold_aisle_about_a_degree_per_minute() {
        let mut tb = testbed();
        tb.write_setpoint(Celsius::new(23.0));
        tb.warm_up(&uniform(0.35), 240).unwrap();
        let before = tb.step_sample(&uniform(0.35)).unwrap().cold_aisle_max;
        tb.write_setpoint(Celsius::new(35.0)); // force interruption
        for _ in 0..4 {
            tb.step_sample(&uniform(0.35)).unwrap();
        }
        let after = tb.step_sample(&uniform(0.35)).unwrap().cold_aisle_max;
        let rate = (after - before) / 5.0;
        assert!(rate > 0.4 && rate < 2.5, "rise rate {rate} °C/min");
    }

    #[test]
    fn energy_accumulates_with_power() {
        let mut tb = testbed();
        tb.write_setpoint(Celsius::new(21.0));
        tb.warm_up(&uniform(0.4), 120).unwrap();
        let obs = tb.step_sample(&uniform(0.4)).unwrap();
        // One minute at P kW is P/60 kWh.
        assert!(obs.acu_energy_kwh > 0.0);
        assert!((obs.acu_energy_kwh - obs.acu_power_kw / 60.0).abs() < 0.02);
    }

    #[test]
    fn higher_load_means_higher_acu_power_at_fixed_setpoint() {
        let mut idle = testbed();
        let mut busy = testbed();
        idle.write_setpoint(Celsius::new(23.0));
        busy.write_setpoint(Celsius::new(23.0));
        idle.warm_up(&uniform(0.0), 240).unwrap();
        busy.warm_up(&uniform(0.5), 240).unwrap();
        let p_idle = idle.step_sample(&uniform(0.0)).unwrap().acu_power_kw;
        let p_busy = busy.step_sample(&uniform(0.5)).unwrap().acu_power_kw;
        assert!(
            p_busy > p_idle + 0.5,
            "busy {p_busy:.2} kW must exceed idle {p_idle:.2} kW"
        );
    }

    #[test]
    fn raising_setpoint_saves_energy_without_interruption() {
        // §6.2's mechanism: a modestly higher set-point improves COP.
        let mut low = testbed();
        let mut high = testbed();
        low.write_setpoint(Celsius::new(23.0));
        high.write_setpoint(Celsius::new(26.0));
        low.warm_up(&uniform(0.4), 360).unwrap();
        high.warm_up(&uniform(0.4), 360).unwrap();
        let mut e_low = 0.0;
        let mut e_high = 0.0;
        let mut int_high = 0.0;
        for _ in 0..60 {
            e_low += low.step_sample(&uniform(0.4)).unwrap().acu_energy_kwh;
            let o = high.step_sample(&uniform(0.4)).unwrap();
            e_high += o.acu_energy_kwh;
            int_high += o.interrupted_frac;
        }
        assert!(
            e_high < e_low * 0.97,
            "26 °C ({e_high:.2} kWh) must save vs 23 °C ({e_low:.2} kWh)"
        );
        assert!(
            int_high / 60.0 < 0.2,
            "saving must not come from interruption"
        );
    }

    #[test]
    fn acu_degradation_increases_energy_mid_run() {
        let mut tb = testbed();
        tb.write_setpoint(Celsius::new(23.0));
        tb.warm_up(&uniform(0.35), 240).unwrap();
        let mut before = 0.0;
        for _ in 0..20 {
            before += tb.step_sample(&uniform(0.35)).unwrap().acu_energy_kwh;
        }
        tb.degrade_acu_cop(0.7);
        tb.warm_up(&uniform(0.35), 60).unwrap();
        let mut after = 0.0;
        for _ in 0..20 {
            after += tb.step_sample(&uniform(0.35)).unwrap().acu_energy_kwh;
        }
        assert!(
            after > before * 1.15,
            "after {after:.3} vs before {before:.3}"
        );
    }

    #[test]
    fn try_write_setpoint_rejects_out_of_spec() {
        let mut tb = testbed();
        assert!(matches!(
            tb.try_write_setpoint(Celsius::new(50.0)),
            Err(SimError::SetpointOutOfRange { .. })
        ));
        assert!(matches!(
            tb.try_write_setpoint(Celsius::new(f64::NAN)),
            Err(SimError::NonFiniteWrite(_))
        ));
        // In-spec writes latch quantized.
        let latched = tb.try_write_setpoint(Celsius::new(24.16)).unwrap();
        assert!((latched.value() - 24.2).abs() < 1e-9);
        assert!((tb.setpoint().value() - 24.2).abs() < 1e-9);
    }

    #[test]
    fn actuator_fault_blocks_write_and_keeps_old_setpoint() {
        use crate::faults::{ActuatorFault, ActuatorFaultKind, FaultPlan, FaultWindow};
        let mut tb = testbed();
        tb.write_setpoint(Celsius::new(23.0));
        tb.set_fault_plan(FaultPlan {
            actuators: vec![ActuatorFault {
                kind: ActuatorFaultKind::WriteTimeout,
                window: FaultWindow::new(0.0, 2.0),
            }],
            ..FaultPlan::default()
        });
        assert!(matches!(
            tb.try_write_setpoint(Celsius::new(25.0)),
            Err(SimError::WriteTimeout)
        ));
        assert_eq!(tb.setpoint(), Celsius::new(23.0));
        // Step past the window; the write goes through.
        tb.step_sample(&uniform(0.2)).unwrap();
        tb.step_sample(&uniform(0.2)).unwrap();
        assert_eq!(
            tb.try_write_setpoint(Celsius::new(25.0)).unwrap(),
            Celsius::new(25.0)
        );
        assert_eq!(tb.setpoint(), Celsius::new(25.0));
    }

    #[test]
    fn stuck_sensor_corrupts_report_but_not_truth() {
        use crate::faults::{FaultPlan, SensorFault, SensorFaultKind, SensorTarget};
        let mut tb = testbed();
        tb.write_setpoint(Celsius::new(23.0));
        tb.set_fault_plan(FaultPlan {
            sensors: vec![SensorFault {
                target: SensorTarget::DcSensor(0),
                kind: SensorFaultKind::StuckAt(45.0),
                window: crate::faults::FaultWindow::new(0.0, 1e9),
            }],
            ..FaultPlan::default()
        });
        let obs = tb.step_sample(&uniform(0.25)).unwrap();
        assert_eq!(obs.dc_temps[0], 45.0);
        assert_eq!(obs.cold_aisle_max, 45.0, "reported max follows the liar");
        assert!(obs.cold_aisle_max_true < 30.0, "ground truth is unaffected");
    }

    #[test]
    fn dropout_nan_is_skipped_by_reported_max() {
        use crate::faults::{FaultPlan, SensorFault, SensorFaultKind, SensorTarget};
        let mut tb = testbed();
        tb.set_fault_plan(FaultPlan {
            sensors: vec![SensorFault {
                target: SensorTarget::DcSensor(3),
                kind: SensorFaultKind::Dropout,
                window: crate::faults::FaultWindow::new(0.0, 1e9),
            }],
            ..FaultPlan::default()
        });
        let obs = tb.step_sample(&uniform(0.25)).unwrap();
        assert!(obs.dc_temps[3].is_nan());
        assert!(obs.cold_aisle_max.is_finite());
    }

    #[test]
    fn fan_failure_window_heats_cold_aisle_then_recovers() {
        use crate::faults::{FaultPlan, PlantFault, PlantFaultKind};
        let mut tb = testbed();
        tb.write_setpoint(Celsius::new(23.0));
        tb.warm_up(&uniform(0.3), 240).unwrap();
        let start_min = tb.time_min();
        tb.set_fault_plan(FaultPlan {
            plant: vec![PlantFault {
                kind: PlantFaultKind::FanFailure,
                window: crate::faults::FaultWindow::new(start_min, start_min + 5.0),
            }],
            ..FaultPlan::default()
        });
        let before = tb.step_sample(&uniform(0.3)).unwrap();
        assert_eq!(before.acu_power_kw, 0.0, "dark unit during fan failure");
        let mut during = before.cold_aisle_max_true;
        for _ in 0..4 {
            during = tb.step_sample(&uniform(0.3)).unwrap().cold_aisle_max_true;
        }
        assert!(
            during > before.cold_aisle_max_true + 1.0,
            "no airflow must heat the room: {} -> {}",
            before.cold_aisle_max_true,
            during
        );
        // Past the window the unit recovers and pulls the room back down.
        let mut after = during;
        for _ in 0..30 {
            after = tb.step_sample(&uniform(0.3)).unwrap().cold_aisle_max_true;
        }
        assert!(after < during, "recovery must cool: {during} -> {after}");
    }

    #[test]
    fn fouled_coil_window_reduces_extraction_capacity() {
        use crate::faults::{FaultPlan, PlantFault, PlantFaultKind};
        let mut healthy = testbed();
        let mut fouled = testbed();
        for tb in [&mut healthy, &mut fouled] {
            tb.write_setpoint(Celsius::new(21.0));
            tb.warm_up(&uniform(0.5), 240).unwrap();
        }
        let start_min = fouled.time_min();
        fouled.set_fault_plan(FaultPlan {
            plant: vec![PlantFault {
                kind: PlantFaultKind::FouledCoil {
                    capacity_factor: 0.3,
                },
                window: crate::faults::FaultWindow::new(start_min, start_min + 120.0),
            }],
            ..FaultPlan::default()
        });
        let mut t_healthy = 0.0;
        let mut t_fouled = 0.0;
        for _ in 0..60 {
            t_healthy = healthy
                .step_sample(&uniform(0.5))
                .unwrap()
                .cold_aisle_max_true;
            t_fouled = fouled
                .step_sample(&uniform(0.5))
                .unwrap()
                .cold_aisle_max_true;
        }
        assert!(
            t_fouled > t_healthy + 0.5,
            "derated capacity must run warmer: fouled {t_fouled:.2} vs healthy {t_healthy:.2}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = Testbed::new(SimConfig::default(), 7).unwrap();
        let mut b = Testbed::new(SimConfig::default(), 7).unwrap();
        for _ in 0..5 {
            let oa = a.step_sample(&uniform(0.3)).unwrap();
            let ob = b.step_sample(&uniform(0.3)).unwrap();
            assert_eq!(oa.dc_temps, ob.dc_temps);
            assert_eq!(oa.acu_power_kw, ob.acu_power_kw);
        }
    }

    #[test]
    fn hot_aisle_energy_injection_conserves_pairwise() {
        // The fleet bleed operator: +E on one pod, −E on its neighbour.
        // Temperatures move by E/C each way and total hot-aisle energy
        // (Σ c_i·T_i) is unchanged to round-off.
        let mut a = Testbed::new(SimConfig::default(), 7).unwrap();
        let mut b = Testbed::new(SimConfig::default(), 8).unwrap();
        a.step_sample(&uniform(0.6)).unwrap();
        b.step_sample(&uniform(0.1)).unwrap();
        let (t0, t1) = (a.hot_aisle_temp().value(), b.hot_aisle_temp().value());
        let (c0, c1) = (
            a.hot_aisle_capacity_kj_per_k(),
            b.hot_aisle_capacity_kj_per_k(),
        );
        let e_kj = 50.0;
        a.add_hot_aisle_energy_kj(e_kj).unwrap();
        b.add_hot_aisle_energy_kj(-e_kj).unwrap();
        let (t0b, t1b) = (a.hot_aisle_temp().value(), b.hot_aisle_temp().value());
        assert!((t0b - (t0 + e_kj / c0)).abs() < 1e-12);
        assert!((t1b - (t1 - e_kj / c1)).abs() < 1e-12);
        let before = c0 * t0 + c1 * t1;
        let after = c0 * t0b + c1 * t1b;
        assert!((after - before).abs() < 1e-9, "{before} -> {after}");
        assert!(matches!(
            a.add_hot_aisle_energy_kj(f64::NAN),
            Err(SimError::NonFiniteWrite(_))
        ));
        assert_eq!(
            a.hot_aisle_temp().value(),
            t0b,
            "a rejected transfer moves nothing"
        );
    }

    /// Every field of `o` as bits, by name.
    fn field_bits(o: &Observation) -> Vec<(&'static str, Vec<u64>)> {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        vec![
            ("time_s", bits(&[o.time_s])),
            ("setpoint", bits(&[o.setpoint])),
            ("acu_inlet_temps", bits(&o.acu_inlet_temps)),
            ("dc_temps", bits(&o.dc_temps)),
            ("server_powers_kw", bits(&o.server_powers_kw)),
            ("avg_server_power_kw", bits(&[o.avg_server_power_kw])),
            ("cpu_utils", bits(&o.cpu_utils)),
            ("mem_utils", bits(&o.mem_utils)),
            ("acu_power_kw", bits(&[o.acu_power_kw])),
            ("acu_energy_kwh", bits(&[o.acu_energy_kwh])),
            ("duty", bits(&[o.duty])),
            ("supply_temp", bits(&[o.supply_temp])),
            ("interrupted_frac", bits(&[o.interrupted_frac])),
            ("cold_aisle_max", bits(&[o.cold_aisle_max])),
            ("cold_aisle_max_true", bits(&[o.cold_aisle_max_true])),
        ]
    }

    /// Each vector buffer of `o`: where it lives and how long it is.
    fn buffers(o: &Observation) -> [(*const f64, usize); 5] {
        [
            &o.acu_inlet_temps,
            &o.dc_temps,
            &o.server_powers_kw,
            &o.cpu_utils,
            &o.mem_utils,
        ]
        .map(|v| (v.as_ptr(), v.len()))
    }

    #[test]
    fn a_reused_observation_matches_a_fresh_one_bit_for_bit() {
        use crate::faults::{
            FaultPlan, FaultWindow, PlantFault, PlantFaultKind, SensorFault, SensorFaultKind,
            SensorTarget,
        };
        // Every sensor-fault kind, including a noise burst that draws
        // from the plant's RNG mid-sample, and a fouled coil.
        let sensor = |target, kind, from, to| SensorFault {
            target,
            kind,
            window: FaultWindow::new(from, to),
        };
        let plan = FaultPlan {
            sensors: vec![
                sensor(
                    SensorTarget::DcSensor(2),
                    SensorFaultKind::StuckAt(45.0),
                    20.0,
                    60.0,
                ),
                sensor(
                    SensorTarget::AcuInlet(1),
                    SensorFaultKind::Drift {
                        rate_c_per_min: 0.1,
                    },
                    30.0,
                    120.0,
                ),
                sensor(
                    SensorTarget::DcSensor(5),
                    SensorFaultKind::Dropout,
                    50.0,
                    80.0,
                ),
                sensor(
                    SensorTarget::DcSensor(0),
                    SensorFaultKind::NoiseBurst { std_c: 1.5 },
                    10.0,
                    150.0,
                ),
            ],
            plant: vec![PlantFault {
                kind: PlantFaultKind::FouledCoil {
                    capacity_factor: 0.4,
                },
                window: FaultWindow::new(40.0, 100.0),
            }],
            ..FaultPlan::default()
        };
        let cfg = SimConfig::default();
        let mut fresh = Testbed::new(cfg.clone(), 11).unwrap();
        let mut reused = Testbed::new(cfg.clone(), 11).unwrap();
        for tb in [&mut fresh, &mut reused] {
            tb.set_fault_plan(plan.clone());
            tb.write_setpoint(Celsius::new(23.0));
        }
        // The reused observation starts out poisoned, so a field the
        // step fails to overwrite shows up at the first comparison.
        let mut obs = Observation::for_config(&cfg);
        for v in [
            &mut obs.acu_inlet_temps,
            &mut obs.dc_temps,
            &mut obs.server_powers_kw,
            &mut obs.cpu_utils,
            &mut obs.mem_utils,
        ] {
            v.fill(-1.0);
        }
        for x in [
            &mut obs.time_s,
            &mut obs.setpoint,
            &mut obs.avg_server_power_kw,
            &mut obs.acu_power_kw,
            &mut obs.acu_energy_kwh,
            &mut obs.duty,
            &mut obs.supply_temp,
            &mut obs.interrupted_frac,
            &mut obs.cold_aisle_max,
            &mut obs.cold_aisle_max_true,
        ] {
            *x = -1.0;
        }
        let mut first = None;
        let (mut dropouts, mut stuck) = (0, 0);
        for minute in 0..200 {
            let u = 0.3 + 0.2 * (minute as f64 * 0.05).sin();
            let utils: Vec<f64> = (0..cfg.n_servers)
                .map(|i| (u + 0.01 * i as f64).min(1.0))
                .collect();
            if minute % 7 == 0 {
                let sp = Celsius::new(22.0 + (minute % 5) as f64);
                fresh.write_setpoint(sp);
                reused.write_setpoint(sp);
            }
            let expected = fresh.step_sample(&utils).unwrap();
            reused.step_sample_into(&utils, &mut obs).unwrap();
            for ((name, want), (_, got)) in field_bits(&expected).into_iter().zip(field_bits(&obs))
            {
                assert_eq!(want, got, "{name} at minute {minute}");
            }
            dropouts += usize::from(obs.dc_temps[5].is_nan());
            stuck += usize::from(obs.dc_temps[2] == 45.0);
            let now = buffers(&obs);
            match first {
                None => first = Some(now),
                Some(before) => assert_eq!(before, now, "a buffer moved at minute {minute}"),
            }
        }
        assert_eq!((dropouts, stuck), (30, 40), "the sensor faults were live");
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Testbed::new(SimConfig::default(), 1).unwrap();
        let mut b = Testbed::new(SimConfig::default(), 2).unwrap();
        let oa = a.step_sample(&uniform(0.3)).unwrap();
        let ob = b.step_sample(&uniform(0.3)).unwrap();
        assert_ne!(oa.dc_temps, ob.dc_temps);
    }
}
