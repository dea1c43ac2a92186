//! Per-server power model.
//!
//! Each server draws `idle + (max − idle) · util` kW at steady state, with
//! a first-order lag on utilization changes (DVFS/fan ramping) and small
//! per-sample measurement noise. The noise is what makes ACU power vary
//! by hundreds of watts even under a constant set-point (Fig. 2): server
//! heat fluctuates, the PID compensates, compressor duty moves.

use crate::config::ServerParams;
use rand::Rng;
use rand_distr::{Distribution, Normal};
use tesla_units::Kilowatts;

/// A bank of `n` simulated servers.
#[derive(Debug, Clone)]
pub struct ServerBank {
    params: ServerParams,
    /// Lagged (effective) utilization per server.
    effective_util: Vec<f64>,
    /// Commanded utilization per server.
    target_util: Vec<f64>,
    /// Memory utilization per server (collected, not control-relevant).
    mem_util: Vec<f64>,
    noise: Normal<f64>,
    /// The last step size and the fractions of the gap to target that
    /// CPU and memory utilization close in one step of it, so a run of
    /// steps at one size computes them once.
    lag: Option<(f64, f64, f64)>,
}

impl ServerBank {
    /// Creates a bank of `n` idle servers.
    pub fn new(n: usize, params: ServerParams) -> Self {
        let noise = Normal::new(0.0, params.power_noise_kw.max(1e-12)).expect("finite std");
        ServerBank {
            effective_util: vec![0.0; n],
            target_util: vec![0.0; n],
            mem_util: vec![params.mem_base; n],
            params,
            noise,
            lag: None,
        }
    }

    /// Number of servers.
    pub fn len(&self) -> usize {
        self.effective_util.len()
    }

    /// True when the bank has no servers.
    pub fn is_empty(&self) -> bool {
        self.effective_util.is_empty()
    }

    /// Sets the commanded CPU utilization for every server (`[0, 1]` each).
    pub fn set_targets(&mut self, utils: &[f64]) {
        debug_assert_eq!(utils.len(), self.len());
        self.target_util.copy_from_slice(utils);
    }

    /// Advances the lag dynamics by `dt` seconds.
    pub fn step(&mut self, dt: f64) {
        let (alpha, mem_rate) = match self.lag {
            Some((at, alpha, mem_rate)) if at.to_bits() == dt.to_bits() => (alpha, mem_rate),
            _ => {
                let alpha = 1.0 - (-dt / self.params.response_tau_s.max(1e-9)).exp();
                let mem_rate = (dt / 120.0).min(1.0);
                self.lag = Some((dt, alpha, mem_rate));
                (alpha, mem_rate)
            }
        };
        for (eff, tgt) in self.effective_util.iter_mut().zip(&self.target_util) {
            *eff += alpha * (tgt - *eff);
        }
        // Memory follows CPU loosely (paper collects it; nothing uses it).
        for (mem, eff) in self.mem_util.iter_mut().zip(&self.effective_util) {
            let target = self.params.mem_base + 0.4 * eff;
            *mem += mem_rate * (target - *mem);
        }
    }

    /// Steady-state power for one server given its effective and
    /// commanded utilization.
    fn server_power(&self, effective: f64, target: f64) -> f64 {
        if self.params.sleep_enabled && target <= 1e-9 && effective < 0.01 {
            // Energy-aware provisioning (§8 future work): park unused
            // machines in a low-power sleep state.
            self.params.sleep_power_kw
        } else {
            self.params.idle_power_kw
                + (self.params.max_power_kw - self.params.idle_power_kw) * effective
        }
    }

    /// Instantaneous electrical power per server, kW (with sampling
    /// noise), into `out` (one entry per server). Raw `f64` per-server
    /// telemetry, not `Kilowatts`: this is the bulk sensor boundary the
    /// forecaster trains on.
    // lint:allow(no-raw-f64-in-public-api): bulk telemetry
    pub fn powers_kw<R: Rng>(&self, rng: &mut R, out: &mut [f64]) {
        debug_assert_eq!(out.len(), self.len());
        for ((o, &u), &t) in out
            .iter_mut()
            .zip(&self.effective_util)
            .zip(&self.target_util)
        {
            *o = (self.server_power(u, t) + self.noise.sample(rng)).max(0.0);
        }
    }

    /// Total *heat* injected into the room (noise-free: physics sees
    /// the true dissipation, sensors see the noisy one).
    pub fn total_heat_kw(&self) -> Kilowatts {
        Kilowatts::new(
            self.effective_util
                .iter()
                .zip(&self.target_util)
                .map(|(&u, &t)| self.server_power(u, t))
                .sum(),
        )
    }

    /// Effective (lagged) utilizations.
    pub fn effective_utils(&self) -> &[f64] {
        &self.effective_util
    }

    /// Memory utilizations.
    pub fn mem_utils(&self) -> &[f64] {
        &self.mem_util
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn bank(n: usize) -> ServerBank {
        ServerBank::new(n, ServerParams::default())
    }

    #[test]
    fn idle_bank_draws_idle_power() {
        let b = bank(21);
        let p = b.total_heat_kw().value();
        assert!((p - 21.0 * 0.18).abs() < 1e-9, "idle heat {p}");
    }

    #[test]
    fn utilization_lag_converges_to_target() {
        let mut b = bank(3);
        b.set_targets(&[1.0, 0.5, 0.0]);
        for _ in 0..600 {
            b.step(1.0);
        }
        let eff = b.effective_utils();
        assert!((eff[0] - 1.0).abs() < 1e-3);
        assert!((eff[1] - 0.5).abs() < 1e-3);
        assert!(eff[2].abs() < 1e-3);
    }

    #[test]
    fn lag_is_gradual() {
        let mut b = bank(1);
        b.set_targets(&[1.0]);
        b.step(1.0);
        let eff = b.effective_utils()[0];
        assert!(
            eff > 0.0 && eff < 0.2,
            "one second should move util only slightly, got {eff}"
        );
    }

    #[test]
    fn power_is_monotone_in_utilization() {
        let mut lo = bank(1);
        let mut hi = bank(1);
        lo.set_targets(&[0.2]);
        hi.set_targets(&[0.8]);
        for _ in 0..300 {
            lo.step(1.0);
            hi.step(1.0);
        }
        assert!(hi.total_heat_kw() > lo.total_heat_kw());
    }

    #[test]
    fn sampled_power_has_noise_but_stays_nonnegative() {
        let mut b = bank(5);
        b.set_targets(&[0.0; 5]);
        let mut rng = StdRng::seed_from_u64(7);
        let (mut p1, mut p2) = (vec![0.0; 5], vec![0.0; 5]);
        b.powers_kw(&mut rng, &mut p1);
        b.powers_kw(&mut rng, &mut p2);
        assert_ne!(p1, p2, "noise should differ across samples");
        for p in p1.iter().chain(&p2) {
            assert!(*p >= 0.0);
        }
    }

    #[test]
    fn per_machine_power_range_matches_paper() {
        // Fig. 8a: per-machine average power 0.233–0.365 kW under medium
        // load; our model must cover that band within util in [0, 1].
        let mut b = bank(1);
        b.set_targets(&[0.45]);
        for _ in 0..600 {
            b.step(1.0);
        }
        let p = b.total_heat_kw().value();
        assert!(p > 0.25 && p < 0.45, "mid-util per-machine power {p}");
    }

    #[test]
    fn sleep_mode_parks_unused_servers() {
        let params = ServerParams {
            sleep_enabled: true,
            ..ServerParams::default()
        };
        let mut b = ServerBank::new(2, params.clone());
        b.set_targets(&[0.0, 0.4]);
        for _ in 0..600 {
            b.step(1.0);
        }
        let heat = b.total_heat_kw().value();
        // Server 0 sleeps (0.03 kW), server 1 runs at 0.4 util.
        let expected = params.sleep_power_kw
            + params.idle_power_kw
            + (params.max_power_kw - params.idle_power_kw) * 0.4;
        assert!(
            (heat - expected).abs() < 1e-3,
            "heat {heat} vs expected {expected}"
        );
        // Default config never sleeps.
        let mut b2 = ServerBank::new(1, ServerParams::default());
        b2.set_targets(&[0.0]);
        b2.step(1.0);
        assert!((b2.total_heat_kw().value() - ServerParams::default().idle_power_kw).abs() < 1e-9);
    }

    #[test]
    fn mem_util_tracks_cpu_slowly() {
        let mut b = bank(1);
        b.set_targets(&[1.0]);
        for _ in 0..3600 {
            b.step(1.0);
        }
        let mem = b.mem_utils()[0];
        assert!(mem > ServerParams::default().mem_base);
        assert!(mem <= 1.0);
    }
}
