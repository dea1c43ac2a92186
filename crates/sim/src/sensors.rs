//! The rack-installed sensor array (`N_d = 35`, 11 monitoring the cold
//! aisle — Table 1).
//!
//! Each sensor reads a mix of the cold- and hot-aisle bulk temperatures:
//! cold-aisle sensors sit mostly in supply air but see some hot-air
//! recirculation near the rack tops (their *mix fraction* is small);
//! hot-aisle/rack-exhaust sensors are dominated by hot-aisle air. Each
//! sensor also carries a deterministic spatial offset (vertical
//! stratification) and white measurement noise.

use crate::config::SimConfig;
use rand::Rng;
use rand_distr::{Distribution, Normal};
use tesla_units::Celsius;

/// One physical temperature sensor's placement model.
#[derive(Debug, Clone, Copy)]
struct Placement {
    /// Fraction of hot-aisle air in what the sensor samples (0 = pure
    /// cold-aisle, 1 = pure hot-aisle).
    mix: f64,
    /// Static spatial offset, °C.
    offset: f64,
}

/// The full rack sensor array.
#[derive(Debug, Clone)]
pub struct SensorArray {
    placements: Vec<Placement>,
    n_cold: usize,
    noise: Normal<f64>,
}

impl SensorArray {
    /// Builds the array from the testbed configuration. Placements are
    /// deterministic (derived from the sensor index), so two arrays built
    /// from the same config are identical.
    pub fn new(cfg: &SimConfig) -> Self {
        let p = &cfg.sensors;
        let n = cfg.n_dc_sensors;
        let n_cold = cfg.n_cold_aisle_sensors;
        let mut placements = Vec::with_capacity(n);
        for k in 0..n {
            if k < n_cold {
                // Cold-aisle: bottom-of-rack sensors are nearly pure
                // supply air; top-of-rack ones see a little recirculation.
                let frac = if n_cold > 1 {
                    k as f64 / (n_cold - 1) as f64
                } else {
                    0.0
                };
                placements.push(Placement {
                    mix: p.cold_mix_max * frac,
                    offset: p.cold_offset_span * frac - 0.2,
                });
            } else {
                // Hot-aisle / rack exhaust sensors.
                let j = k - n_cold;
                let n_hot = (n - n_cold).max(1);
                let frac = j as f64 / n_hot as f64;
                placements.push(Placement {
                    mix: 0.75 + 0.25 * frac,
                    offset: 1.5 * frac - 0.5,
                });
            }
        }
        SensorArray {
            placements,
            n_cold,
            noise: Normal::new(0.0, p.noise_std.max(1e-12)).expect("finite std"),
        }
    }

    /// Number of sensors.
    pub fn len(&self) -> usize {
        self.placements.len()
    }

    /// True when the array is empty.
    pub fn is_empty(&self) -> bool {
        self.placements.is_empty()
    }

    /// Number of cold-aisle sensors (their indices are `0..n_cold()`).
    pub fn n_cold(&self) -> usize {
        self.n_cold
    }

    /// Samples every sensor given the aisle temperatures, into `out`
    /// (one entry per sensor). Raw `f64` readings are written (not
    /// `Celsius`): downstream fault injection corrupts them with NaN
    /// dropouts and stuck values, so they are untrusted telemetry rather
    /// than validated quantities.
    // lint:allow(no-raw-f64-in-public-api): untrusted bulk telemetry
    pub fn sample<R: Rng>(
        &self,
        cold_aisle: Celsius,
        hot_aisle: Celsius,
        rng: &mut R,
        out: &mut [f64],
    ) {
        debug_assert_eq!(out.len(), self.len());
        for (o, pl) in out.iter_mut().zip(&self.placements) {
            let base = (1.0 - pl.mix) * cold_aisle.value() + pl.mix * hot_aisle.value();
            *o = base + pl.offset + self.noise.sample(rng);
        }
    }

    /// Noise-free reading of the *hottest cold-aisle* location — the
    /// quantity the thermal-safety constraint (Eq. 9) watches.
    pub fn cold_aisle_max_true(&self, cold_aisle: Celsius, hot_aisle: Celsius) -> Celsius {
        Celsius::new(
            self.placements[..self.n_cold]
                .iter()
                .map(|pl| {
                    (1.0 - pl.mix) * cold_aisle.value() + pl.mix * hot_aisle.value() + pl.offset
                })
                .fold(f64::NEG_INFINITY, f64::max),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn array() -> SensorArray {
        SensorArray::new(&SimConfig::default())
    }

    fn c(v: f64) -> Celsius {
        Celsius::new(v)
    }

    /// One reading of every sensor of `a`.
    fn sample(a: &SensorArray, cold: Celsius, hot: Celsius, rng: &mut StdRng) -> Vec<f64> {
        let mut out = vec![0.0; a.len()];
        a.sample(cold, hot, rng, &mut out);
        out
    }

    #[test]
    fn sensor_counts_match_table1() {
        let a = array();
        assert_eq!(a.len(), 35);
        assert_eq!(a.n_cold(), 11);
    }

    #[test]
    fn cold_sensors_read_cooler_than_hot_sensors() {
        let a = array();
        let mut rng = StdRng::seed_from_u64(1);
        let readings = sample(&a, c(18.0), c(26.0), &mut rng);
        let cold_mean: f64 = readings[..11].iter().sum::<f64>() / 11.0;
        let hot_mean: f64 = readings[11..].iter().sum::<f64>() / 24.0;
        assert!(
            hot_mean - cold_mean > 4.0,
            "cold {cold_mean:.1} vs hot {hot_mean:.1}"
        );
    }

    #[test]
    fn cold_sensor_readings_track_cold_aisle() {
        let a = array();
        let mut rng = StdRng::seed_from_u64(2);
        let cool = sample(&a, c(16.0), c(24.0), &mut rng);
        let warm = sample(&a, c(20.0), c(24.0), &mut rng);
        for k in 0..a.n_cold() {
            assert!(
                warm[k] > cool[k] + 2.0,
                "sensor {k} must follow the cold aisle"
            );
        }
    }

    #[test]
    fn cold_aisle_max_true_exceeds_bulk_cold_temp() {
        // Top-of-rack stratification: the binding sensor reads warmer
        // than the bulk cold-aisle temperature.
        let a = array();
        let max = a.cold_aisle_max_true(c(18.0), c(26.0));
        assert!(max > c(18.0));
        assert!(max < c(26.0));
    }

    #[test]
    fn determinism_given_same_seed() {
        let a = array();
        let mut r1 = StdRng::seed_from_u64(9);
        let mut r2 = StdRng::seed_from_u64(9);
        assert_eq!(
            sample(&a, c(18.0), c(25.0), &mut r1),
            sample(&a, c(18.0), c(25.0), &mut r2)
        );
    }

    #[test]
    fn noise_is_bounded_in_practice() {
        let a = array();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..200 {
            let r = sample(&a, c(18.0), c(26.0), &mut rng);
            for v in r {
                assert!(v > 10.0 && v < 35.0, "reading {v} out of plausible range");
            }
        }
    }
}
