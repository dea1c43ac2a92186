//! The Telegraf stand-in: fans a simulator observation out into the store
//! under stable metric names.
//!
//! The paper's deployment (§4) runs a Telegraf agent per server
//! collecting power and CPU/memory utilization, plus Modbus pollers for
//! ACU and rack sensor temperatures, all written into InfluxDB. Here
//! [`Collector`] writes every signal of one [`tesla_sim::Observation`]
//! into any [`MetricStore`], such as a `tesla_historian::Historian`, and
//! [`crate::runtime`]'s producer calls it once per minute.
//!
//! # Example: collecting one observation
//!
//! ```
//! use tesla_core::{metric, Collector};
//! use tesla_historian::{Historian, HistorianConfig, MetricStore};
//! use tesla_sim::{SimConfig, Testbed};
//!
//! let store = Historian::in_memory(HistorianConfig::default());
//! let mut testbed = Testbed::new(SimConfig::default(), 1)?;
//! let obs = testbed.step_sample(&vec![0.3; testbed.config().n_servers])?;
//! Collector::collect(&store, &obs);
//! assert_eq!(store.last(metric::ACU_POWER), Some(obs.acu_power_kw));
//! assert_eq!(store.len(&metric::dc_temp(0)), 1);
//! # Ok::<(), tesla_sim::SimError>(())
//! ```

// analysis:allow-file(no-alloc-in-decide-steady-state): snapshot
// assembly builds the per-minute observation batch (one Vec per
// sensor column, bounded by zone/ACU counts).
use tesla_historian::MetricStore;
use tesla_sim::Observation;

/// Metric-name helpers. Names are stable across the workspace: the
/// forecaster and controllers query the store with these.
pub mod metric {
    /// ACU instantaneous electrical power, kW.
    pub const ACU_POWER: &str = "acu.power_kw";
    /// ACU energy over the last sampling period, kWh.
    pub const ACU_ENERGY: &str = "acu.energy_kwh";
    /// Executed set-point, °C.
    pub const SETPOINT: &str = "acu.setpoint_c";
    /// Compressor duty.
    pub const DUTY: &str = "acu.duty";
    /// Supply-air temperature, °C.
    pub const SUPPLY: &str = "acu.supply_c";
    /// Fraction of the period spent in cooling interruption.
    pub const INTERRUPTED: &str = "acu.interrupted_frac";
    /// Average per-server power, kW.
    pub const AVG_SERVER_POWER: &str = "server.avg_power_kw";
    /// Max cold-aisle sensor reading, °C.
    pub const COLD_AISLE_MAX: &str = "dc.cold_aisle_max_c";

    /// ACU inlet sensor `n`, °C.
    pub fn acu_inlet(n: usize) -> String {
        format!("acu.inlet_c.{n}")
    }

    /// Rack sensor `n`, °C.
    pub fn dc_temp(n: usize) -> String {
        format!("dc.temp_c.{n}")
    }

    /// Server `n` electrical power, kW.
    pub fn server_power(n: usize) -> String {
        format!("server.power_kw.{n}")
    }

    /// Server `n` CPU utilization.
    pub fn server_cpu(n: usize) -> String {
        format!("server.cpu.{n}")
    }

    /// Server `n` memory utilization.
    pub fn server_mem(n: usize) -> String {
        format!("server.mem.{n}")
    }
}

/// Collects observations into any [`MetricStore`] backend, such as an
/// in-memory or WAL-backed `tesla_historian::Historian`.
#[derive(Debug, Default)]
pub struct Collector;

impl Collector {
    /// Writes every signal of `obs` into `store`, timestamped with the
    /// observation's simulation time.
    pub fn collect(store: &dyn MetricStore, obs: &Observation) {
        let t = obs.time_s;
        store.insert(metric::ACU_POWER, t, obs.acu_power_kw);
        store.insert(metric::ACU_ENERGY, t, obs.acu_energy_kwh);
        store.insert(metric::SETPOINT, t, obs.setpoint);
        store.insert(metric::DUTY, t, obs.duty);
        store.insert(metric::SUPPLY, t, obs.supply_temp);
        store.insert(metric::INTERRUPTED, t, obs.interrupted_frac);
        store.insert(metric::AVG_SERVER_POWER, t, obs.avg_server_power_kw);
        store.insert(metric::COLD_AISLE_MAX, t, obs.cold_aisle_max);
        for (n, v) in obs.acu_inlet_temps.iter().enumerate() {
            store.insert(&metric::acu_inlet(n), t, *v);
        }
        for (n, v) in obs.dc_temps.iter().enumerate() {
            store.insert(&metric::dc_temp(n), t, *v);
        }
        for (n, v) in obs.server_powers_kw.iter().enumerate() {
            store.insert(&metric::server_power(n), t, *v);
        }
        for (n, v) in obs.cpu_utils.iter().enumerate() {
            store.insert(&metric::server_cpu(n), t, *v);
        }
        for (n, v) in obs.mem_utils.iter().enumerate() {
            store.insert(&metric::server_mem(n), t, *v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tesla_historian::{Historian, HistorianConfig};
    use tesla_sim::{SimConfig, Testbed};

    #[test]
    fn collect_populates_all_metric_families() {
        let store = Historian::in_memory(HistorianConfig::default());
        let mut tb = Testbed::new(SimConfig::default(), 1).unwrap();
        let utils = vec![0.2; 21];
        for _ in 0..3 {
            let obs = tb.step_sample(&utils).unwrap();
            Collector::collect(&store, &obs);
        }
        assert_eq!(store.len(metric::ACU_POWER), 3);
        assert_eq!(store.len(metric::SETPOINT), 3);
        assert_eq!(store.len(&metric::acu_inlet(0)), 3);
        assert_eq!(store.len(&metric::acu_inlet(1)), 3);
        assert_eq!(store.len(&metric::dc_temp(34)), 3);
        assert_eq!(store.len(&metric::server_power(20)), 3);
        assert_eq!(store.len(&metric::server_cpu(0)), 3);
        assert_eq!(store.len(&metric::server_mem(0)), 3);
        // 8 scalars + 2 inlet + 35 dc + 3*21 server families.
        assert_eq!(store.metric_names().len(), 8 + 2 + 35 + 63);
    }

    #[test]
    fn timestamps_come_from_the_observation() {
        let store = Historian::in_memory(HistorianConfig::default());
        let mut tb = Testbed::new(SimConfig::default(), 2).unwrap();
        let obs = tb.step_sample(&[0.0; 21]).unwrap();
        Collector::collect(&store, &obs);
        let vals = store.range(metric::ACU_POWER, obs.time_s - 0.5, obs.time_s + 0.5);
        assert_eq!(vals.len(), 1);
    }
}
