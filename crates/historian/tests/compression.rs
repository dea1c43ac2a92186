//! The compression budget: sensor-like telemetry seals into Gorilla
//! blocks at no more than 3 bytes per sample.

use tesla_historian::{Historian, HistorianConfig};

/// The workload's own deterministic xorshift, so its figures reproduce.
struct XorShift(u64);

impl XorShift {
    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    /// Uniform in [-1, 1).
    fn next_signed(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 52) as f64 * 2.0 - 1.0
    }
}

/// One series sampled every 60 s in one of the three shapes real DC
/// telemetry takes: slow 0.1 °C-resolution temperatures that hold their
/// reading most minutes with occasional regime jumps (`kind` 0),
/// integer-watt server power that moves most minutes (1), and bursty
/// integer utilization percentages that re-level now and then (2).
fn chaos_series(kind: u64, seed: u64, n: usize) -> Vec<(f64, f64)> {
    let mut rng = XorShift(seed | 1);
    let mut level = match kind {
        0 => 20.0 + (seed % 13) as f64 * 0.5,
        1 => 180.0 + (seed % 40) as f64,
        _ => 40.0,
    };
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let r = rng.next_u64();
        match kind {
            0 => {
                if r.is_multiple_of(1024) {
                    level += rng.next_signed() * 3.0; // cooling regime change
                } else if r.is_multiple_of(4) {
                    level += if r & 4 == 0 { 0.1 } else { -0.1 };
                }
                level = (level * 10.0).round() / 10.0;
            }
            1 => {
                if !r.is_multiple_of(3) {
                    level = (level + (rng.next_signed() * 25.0).round()).max(0.0);
                }
            }
            _ => {
                if r.is_multiple_of(8) {
                    level = (rng.next_signed().abs() * 100.0).round();
                }
            }
        }
        out.push((i as f64 * 60.0, level));
    }
    out
}

/// Each shape on its own, so the costliest (temperatures, about
/// 1.9 B/sample at this scale and 1.8 at 64 × 100,000) cannot hide
/// behind the cheaper two.
#[test]
fn every_telemetry_shape_compresses_within_three_bytes_per_sample() {
    const SERIES: u64 = 8;
    const SAMPLES: usize = 20_000;
    for kind in 0..3 {
        let store = Historian::in_memory(HistorianConfig::default());
        for i in 0..SERIES {
            let samples = chaos_series(kind, 7 + i, SAMPLES);
            for batch in samples.chunks(1024) {
                store.append_batch(&format!("chaos.sensor.{i:03}"), batch);
            }
        }
        store.seal_all();
        let stats = store.storage_stats();
        assert_eq!(stats.sealed_samples, SERIES * SAMPLES as u64);
        let bytes_per_sample = stats.bytes_per_sample().expect("sealed samples");
        assert!(
            bytes_per_sample <= 3.0,
            "shape {kind}: {bytes_per_sample:.3} B/sample exceeds the 3-byte budget"
        );
    }
}
