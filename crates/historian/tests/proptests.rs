//! Property tests for the historian: Gorilla round-trips must be
//! bit-identical on adversarial finite streams, WAL recovery after an
//! arbitrary truncation must keep exactly the complete-frame prefix,
//! and a WAL-backed engine must rebuild bit-identical series on reopen.

use proptest::prelude::*;
use tesla_historian::wal::{self, WalConfig, WalRecord, WalWriter};
use tesla_historian::{gorilla, Historian, HistorianConfig, MetricStore};

/// Derives an adversarial but finite `(times, values)` stream from raw
/// generator words. `mode` selects the stream shape the ISSUE calls out:
/// constant runs, alternating signs, raw bit patterns, quantized walks.
fn stream_from(bits: &[u64], mode: u8) -> (Vec<f64>, Vec<f64>) {
    let mut times = Vec::with_capacity(bits.len());
    let mut values = Vec::with_capacity(bits.len());
    let mut t = 0.0f64;
    let mut prev = 21.5f64;
    for (i, &b) in bits.iter().enumerate() {
        t += match mode % 3 {
            0 => 60.0,                              // the collector's cadence
            1 => ((b >> 32) % 1_000) as f64 / 10.0, // jittered 0–99.9 s
            _ => (b >> 40) as f64 * 1e-3,           // wild but finite
        };
        times.push(t);
        let v = match (mode / 3) % 4 {
            0 => prev, // constant run
            1 => {
                // Alternating signs around a tiny magnitude.
                let mag = 1.5 + (b % 8) as f64 * 0.125;
                if i % 2 == 0 {
                    mag
                } else {
                    -mag
                }
            }
            2 => {
                // Raw bit patterns; non-finite folded back to finite.
                let raw = f64::from_bits(b);
                if raw.is_finite() {
                    raw
                } else {
                    f64::from_bits(b & 0x000F_FFFF_FFFF_FFFF)
                }
            }
            _ => ((b % 500) as f64) / 10.0 - 25.0, // 0.1-quantized sensor walk
        };
        prev = v;
        values.push(v);
    }
    (times, values)
}

fn assert_bit_identical(label: &str, got: &[f64], want: &[f64]) {
    assert_eq!(got.len(), want.len(), "{label}: length mismatch");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{label}: sample {i} differs ({g} vs {w})"
        );
    }
}

fn unique_dir(tag: &str, case: u64) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "tesla_hist_prop_{tag}_{case}_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Gorilla compress→decompress is bit-identical for every stream
    /// shape, including empty and single-sample blocks.
    #[test]
    fn gorilla_round_trip_is_bit_identical(
        bits in proptest::collection::vec(0u64..=u64::MAX, 0..300),
        mode in 0u8..12,
    ) {
        let (times, values) = stream_from(&bits, mode);
        let block = gorilla::compress(&times, &values);
        let (t2, v2) = gorilla::decompress(&block).expect("self-compressed block");
        assert_bit_identical("times", &t2, &times);
        assert_bit_identical("values", &v2, &values);
    }

    /// Truncating a WAL segment at ANY byte offset recovers exactly the
    /// records whose frames are fully contained before the cut — never
    /// fewer, never a panic, and a second recovery sees a clean log.
    #[test]
    fn wal_recovery_keeps_complete_frame_prefix(
        sizes in proptest::collection::vec(1usize..20, 1..12),
        cut_frac in 0.0f64..=1.0,
        case in 0u64..u64::MAX,
    ) {
        let dir = unique_dir("cut", case);
        let records: Vec<WalRecord> = sizes
            .iter()
            .enumerate()
            .map(|(i, &n)| WalRecord::Samples {
                series: format!("m{i}"),
                samples: (0..n).map(|k| (k as f64 * 60.0, k as f64 + i as f64)).collect(),
            })
            .collect();
        // One big segment so the cut point is easy to reason about.
        let cfg = WalConfig { segment_bytes: u64::MAX, ..WalConfig::new(&dir) };
        let mut w = WalWriter::open(cfg, 0).unwrap();
        for WalRecord::Samples { series, samples } in &records {
            w.append(series, samples).unwrap();
        }
        w.sync().unwrap();
        drop(w);

        let (_, path) = wal::list_segments(&dir).unwrap().pop().unwrap();
        let full = std::fs::metadata(&path).unwrap().len();
        let cut = (full as f64 * cut_frac) as u64;
        std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(cut)
            .unwrap();

        // Frame length = 8-byte header + payload; payload = 1 kind +
        // 2 name-len + name + 4 count + 16 per sample.
        let mut expected = 0usize;
        let mut offset = 0u64;
        for (i, &n) in sizes.iter().enumerate() {
            offset += 8 + 7 + format!("m{i}").len() as u64 + 16 * n as u64;
            if offset <= cut {
                expected += 1;
            } else {
                break;
            }
        }

        let mut seen = Vec::new();
        let stats = wal::recover(&dir, |r| seen.push(r)).unwrap();
        prop_assert_eq!(seen.len(), expected);
        prop_assert_eq!(&seen[..], &records[..expected]);
        // Recovery truncated the torn tail: a second pass is clean.
        let stats2 = wal::recover(&dir, |_| {}).unwrap();
        prop_assert_eq!(stats2.records, stats.records);
        prop_assert_eq!(stats2.truncated_bytes, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A WAL-backed engine reopened from disk serves bit-identical
    /// series, across sealed-block boundaries.
    #[test]
    fn reopened_engine_is_bit_identical(
        bits in proptest::collection::vec(0u64..=u64::MAX, 1..200),
        mode in 0u8..12,
        case in 0u64..u64::MAX,
    ) {
        let (times, values) = stream_from(&bits, mode);
        let dir = unique_dir("reopen", case);
        let cfg = HistorianConfig { shards: 2, block_len: 16, ..HistorianConfig::default() };
        {
            let (h, _) = Historian::open(&dir, cfg.clone()).unwrap();
            let samples: Vec<(f64, f64)> =
                times.iter().copied().zip(values.iter().copied()).collect();
            h.append_batch("prop.series", &samples);
            h.flush().unwrap();
        }
        let (h2, _) = Historian::open(&dir, cfg).unwrap();
        let (t2, v2) = h2.series_samples("prop.series").expect("series survives reopen");
        // The engine drops out-of-order times (mode-dependent), so
        // compare against what the first engine accepted: a filtered,
        // monotone subsequence.
        let mut want_t = Vec::new();
        let mut want_v = Vec::new();
        for (t, v) in times.iter().zip(&values) {
            if want_t.last().is_none_or(|&last| *t >= last) {
                want_t.push(*t);
                want_v.push(*v);
            }
        }
        assert_bit_identical("times", &t2, &want_t);
        assert_bit_identical("values", &v2, &want_v);
        prop_assert_eq!(h2.last_n("prop.series", 5), want_v[want_v.len().saturating_sub(5)..].to_vec());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
