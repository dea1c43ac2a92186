//! Per-signal telemetry health: detection, quarantine, imputation.
//!
//! A forecaster fed by real sensors must survive the sensors lying.
//! [`HealthMonitor`] watches each scalar signal of a vector sample for
//! three failure signatures:
//!
//! * **dropout** — the reading is NaN/infinite (a lost Modbus frame);
//! * **range** — the reading leaves the physically plausible band;
//! * **flatline** — the reading is bit-identical for many consecutive
//!   samples (a stuck thermistor; real thermal signals always carry
//!   noise);
//! * **peer deviation** (opt-in) — the reading strays too far from the
//!   median of its healthy peers. This is the only detector that catches
//!   *in-band* lies — a sensor drifting or stuck at a plausible value —
//!   and it only makes sense for signals that form a physical cluster
//!   (e.g. the cold-aisle sensors of one room), so it is disabled unless
//!   [`HealthConfig::peer_deviation`] is set finite and at least three
//!   healthy peers are available for consensus.
//!
//! A signal that trips any detector is *quarantined* for a hold-off
//! period; while quarantined its readings are replaced by an imputed
//! value (the cross-sensor median of currently healthy peers when
//! available, else the signal's last known-good reading) so downstream
//! model windows stay full and finite. Quarantine ends only after the
//! hold-off elapses *and* the raw reading looks sane again.

/// Why a signal was quarantined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthFault {
    /// NaN or infinite reading.
    Dropout,
    /// Reading outside `[min_value, max_value]`.
    OutOfRange,
    /// Reading unchanged for `flatline_window` consecutive samples.
    Flatline,
    /// Reading too far from the healthy-peer median (in-band lie).
    PeerDeviation,
}

/// Detector thresholds.
#[derive(Debug, Clone)]
pub struct HealthConfig {
    /// Lowest plausible reading.
    pub min_value: f64,
    /// Highest plausible reading.
    pub max_value: f64,
    /// Consecutive identical samples (within `flatline_epsilon`) before a
    /// signal counts as flatlined.
    pub flatline_window: usize,
    /// Two readings closer than this count as "identical" for flatline
    /// detection.
    pub flatline_epsilon: f64,
    /// Samples a tripped signal stays quarantined before re-admission is
    /// considered.
    pub quarantine_samples: usize,
    /// Maximum tolerated distance from the healthy-peer median before a
    /// signal counts as lying (°C for temperatures). `INFINITY` disables
    /// the detector; it also stays inert unless at least three healthy
    /// peers exist to form a consensus. Enable only for signals that
    /// physically cluster (one aisle's sensors), not for heterogeneous
    /// families.
    pub peer_deviation: f64,
}

impl Default for HealthConfig {
    fn default() -> Self {
        // Defaults sized for data-center air temperatures in °C.
        HealthConfig {
            min_value: 5.0,
            max_value: 45.0,
            flatline_window: 15,
            flatline_epsilon: 1e-9,
            quarantine_samples: 10,
            peer_deviation: f64::INFINITY,
        }
    }
}

/// Rolling state for one scalar signal.
#[derive(Debug, Clone)]
struct SignalState {
    /// Last reading accepted as healthy.
    last_good: Option<f64>,
    /// Previous raw reading (for flatline detection).
    prev_raw: Option<f64>,
    /// Consecutive samples the raw reading has been unchanged.
    flat_run: usize,
    /// Remaining quarantine samples (0 = not quarantined).
    quarantine_left: usize,
    /// The fault that caused the current/most recent quarantine.
    fault: Option<HealthFault>,
}

impl SignalState {
    fn new() -> Self {
        SignalState {
            last_good: None,
            prev_raw: None,
            flat_run: 0,
            quarantine_left: 0,
            fault: None,
        }
    }
}

/// What [`HealthMonitor::sanitize`] did to one sample.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SanitizeReport {
    /// Indices whose reading was replaced this sample.
    pub imputed: Vec<usize>,
    /// Indices that *entered* quarantine this sample.
    pub newly_quarantined: Vec<usize>,
    /// Total signals currently quarantined (after this sample).
    pub quarantined_now: usize,
}

impl SanitizeReport {
    /// True when every signal passed untouched.
    pub fn clean(&self) -> bool {
        self.imputed.is_empty() && self.quarantined_now == 0
    }
}

/// Health monitor over a fixed-width vector signal.
#[derive(Debug, Clone)]
pub struct HealthMonitor {
    cfg: HealthConfig,
    signals: Vec<SignalState>,
    samples_seen: u64,
    /// [`HealthMonitor::sanitize`]'s clean candidates, kept between
    /// samples so a sample allocates only what its report holds.
    candidates: Vec<usize>,
    /// [`HealthMonitor::sanitize`]'s sort buffer, kept likewise.
    sorted: Vec<f64>,
}

impl HealthMonitor {
    /// A monitor for `n_signals` parallel scalar signals.
    pub fn new(n_signals: usize, cfg: HealthConfig) -> Self {
        HealthMonitor {
            cfg,
            signals: (0..n_signals).map(|_| SignalState::new()).collect(),
            samples_seen: 0,
            candidates: Vec::with_capacity(n_signals),
            sorted: Vec::with_capacity(n_signals),
        }
    }

    /// Number of monitored signals.
    pub fn width(&self) -> usize {
        self.signals.len()
    }

    /// Samples processed so far.
    pub fn samples_seen(&self) -> u64 {
        self.samples_seen
    }

    /// True when signal `k` is currently quarantined.
    pub fn is_quarantined(&self, k: usize) -> bool {
        self.signals.get(k).is_some_and(|s| s.quarantine_left > 0)
    }

    /// The fault behind signal `k`'s current quarantine, if any.
    pub fn fault(&self, k: usize) -> Option<HealthFault> {
        self.signals
            .get(k)
            .filter(|s| s.quarantine_left > 0)
            .and_then(|s| s.fault)
    }

    /// Indices currently quarantined.
    pub fn quarantined(&self) -> Vec<usize> {
        (0..self.signals.len())
            .filter(|&k| self.is_quarantined(k))
            .collect()
    }

    /// Checks one vector sample in place: detects faults, quarantines
    /// tripped signals, and replaces unhealthy readings with imputed
    /// values. `readings.len()` must equal [`HealthMonitor::width`].
    pub fn sanitize(&mut self, readings: &mut [f64]) -> SanitizeReport {
        assert_eq!(
            readings.len(),
            self.signals.len(),
            "sample width {} != monitor width {}",
            readings.len(),
            self.signals.len()
        );
        self.samples_seen += 1;
        let mut report = SanitizeReport::default();

        // Pass 1: per-signal detection and quarantine bookkeeping on raw
        // values. Signals that look clean in isolation are only promoted
        // to `last_good` after the cross-sensor peer check below —
        // otherwise an in-band liar would poison its own fallback value.
        let mut clean_candidates = std::mem::take(&mut self.candidates);
        clean_candidates.clear();
        let mut sorted = std::mem::take(&mut self.sorted);
        for (k, &raw) in readings.iter().enumerate() {
            let s = &mut self.signals[k];
            // Track the repeat run on the raw stream: after this update,
            // flat_run + 1 is the length of the current identical run.
            match s.prev_raw {
                Some(prev)
                    if raw.is_finite() && (raw - prev).abs() <= self.cfg.flatline_epsilon =>
                {
                    s.flat_run += 1
                }
                _ => s.flat_run = 0,
            }
            s.prev_raw = raw.is_finite().then_some(raw);

            let fault = if !raw.is_finite() {
                Some(HealthFault::Dropout)
            } else if raw < self.cfg.min_value || raw > self.cfg.max_value {
                Some(HealthFault::OutOfRange)
            } else if self.cfg.flatline_window >= 2 && s.flat_run + 1 >= self.cfg.flatline_window {
                Some(HealthFault::Flatline)
            } else {
                None
            };

            match fault {
                Some(f) => {
                    if s.quarantine_left == 0 {
                        report.newly_quarantined.push(k);
                    }
                    s.fault = Some(f);
                    s.quarantine_left = self.cfg.quarantine_samples.max(1);
                }
                None => {
                    if s.quarantine_left > 0 {
                        s.quarantine_left -= 1;
                    }
                    // Re-admission (and first admission) goes through the
                    // peer check below, so a persistent in-band liar is
                    // re-caught the moment its holdoff expires.
                    if s.quarantine_left == 0 {
                        clean_candidates.push(k);
                    }
                }
            }
        }

        // Cross-sensor consistency: a clean-looking signal that strays too
        // far from the median of the *other* clean signals is an in-band
        // lie (slow drift, stuck at a plausible value). Requires at least
        // three peers so a single outlier cannot hijack the consensus.
        if self.cfg.peer_deviation.is_finite() && clean_candidates.len() >= 4 {
            // One sort serves every candidate. The others' median is slot
            // `mid` of the sorted values with the candidate's own value
            // taken out: slot `mid` itself when the candidate sorts after
            // it, else the next slot. Values tied under `total_cmp` are
            // bit-equal, so which tied slot is the candidate's own does
            // not matter.
            sorted.clear();
            sorted.extend(clean_candidates.iter().map(|&k| readings[k]));
            sorted.sort_unstable_by(f64::total_cmp);
            let mid = (sorted.len() - 1) / 2;
            let (below, above) = (sorted[mid], sorted[mid + 1]);
            for &k in &clean_candidates {
                let value = readings[k];
                let peer_median = if below.total_cmp(&value).is_lt() {
                    below
                } else {
                    above
                };
                if (value - peer_median).abs() > self.cfg.peer_deviation {
                    let s = &mut self.signals[k];
                    if s.quarantine_left == 0 {
                        report.newly_quarantined.push(k);
                    }
                    s.fault = Some(HealthFault::PeerDeviation);
                    s.quarantine_left = self.cfg.quarantine_samples.max(1);
                }
            }
        }

        // Survivors of both checks become the new last-good references.
        for &k in &clean_candidates {
            let s = &mut self.signals[k];
            if s.quarantine_left == 0 {
                s.last_good = Some(readings[k]);
            }
        }

        // Cross-sensor median of healthy raw readings, for imputation.
        // Only a quarantined signal reads it.
        let quarantined_now = self
            .signals
            .iter()
            .filter(|s| s.quarantine_left > 0)
            .count();
        let median = if quarantined_now == 0 {
            None
        } else {
            sorted.clear();
            sorted.extend(
                readings
                    .iter()
                    .enumerate()
                    .filter(|&(k, v)| !self.is_quarantined(k) && v.is_finite())
                    .map(|(_, &v)| v),
            );
            sorted.sort_unstable_by(f64::total_cmp);
            sorted.get(sorted.len() / 2).copied()
        };
        self.candidates = clean_candidates;
        self.sorted = sorted;

        // Pass 2: impute quarantined signals.
        for (k, v) in readings.iter_mut().enumerate() {
            if !self.is_quarantined(k) {
                continue;
            }
            let imputed = median.or(self.signals[k].last_good);
            if let Some(value) = imputed {
                *v = value;
                report.imputed.push(k);
            } else if !v.is_finite() {
                // No reference at all (first samples of a dead sensor):
                // fall back to mid-range so windows stay finite.
                *v = 0.5 * (self.cfg.min_value + self.cfg.max_value);
                report.imputed.push(k);
            }
        }

        report.quarantined_now = quarantined_now;
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn monitor(n: usize) -> HealthMonitor {
        HealthMonitor::new(n, HealthConfig::default())
    }

    #[test]
    fn nominal_readings_pass_untouched() {
        let mut m = monitor(3);
        for i in 0..50 {
            // Small varying jitter: healthy thermals are never constant.
            let base = 20.0 + 0.01 * (i as f64).sin();
            let mut r = vec![base, base + 1.0 + 0.02 * (i as f64).cos(), base + 2.1];
            let snapshot = r.clone();
            let rep = m.sanitize(&mut r);
            assert!(rep.clean(), "nominal trace must not trip detectors");
            assert_eq!(r, snapshot);
        }
        assert!(!m.is_quarantined(0));
        assert!(!m.is_quarantined(1));
        assert!(!m.is_quarantined(2));
    }

    #[test]
    fn nan_dropout_is_quarantined_and_imputed() {
        let mut m = monitor(3);
        let mut r = vec![20.0, 21.0, 22.0];
        m.sanitize(&mut r);
        let mut r = vec![f64::NAN, 21.1, 22.1];
        let rep = m.sanitize(&mut r);
        assert_eq!(rep.newly_quarantined, vec![0]);
        assert_eq!(m.fault(0), Some(HealthFault::Dropout));
        assert!(r[0].is_finite(), "imputed in place");
        // Imputed from the healthy median (21.1 or 22.1).
        assert!(r[0] >= 21.0 && r[0] <= 22.2);
    }

    #[test]
    fn out_of_range_is_quarantined() {
        let mut m = monitor(2);
        let mut r = vec![20.0, 21.0];
        m.sanitize(&mut r);
        let mut r = vec![80.0, 21.2];
        let rep = m.sanitize(&mut r);
        assert_eq!(rep.newly_quarantined, vec![0]);
        assert_eq!(m.fault(0), Some(HealthFault::OutOfRange));
        assert!((r[0] - 21.2).abs() < 1e-9, "imputed from healthy peer");
    }

    #[test]
    fn flatline_detected_after_window() {
        let cfg = HealthConfig {
            flatline_window: 5,
            ..HealthConfig::default()
        };
        let mut m = HealthMonitor::new(2, cfg);
        let mut tripped_at = None;
        for i in 0..12 {
            let mut r = vec![23.0, 20.0 + 0.01 * i as f64];
            let rep = m.sanitize(&mut r);
            if rep.newly_quarantined.contains(&0) && tripped_at.is_none() {
                tripped_at = Some(i);
            }
        }
        assert_eq!(m.fault(0), Some(HealthFault::Flatline));
        // 5 identical samples = 4 repeats; trip on the 5th sample (i=4).
        assert_eq!(tripped_at, Some(4));
    }

    #[test]
    fn quarantine_expires_after_holdoff_and_good_data() {
        let cfg = HealthConfig {
            quarantine_samples: 3,
            ..HealthConfig::default()
        };
        let mut m = HealthMonitor::new(2, cfg);
        let mut r = vec![20.0, 21.0];
        m.sanitize(&mut r);
        let mut r = vec![f64::NAN, 21.1];
        m.sanitize(&mut r);
        assert!(m.is_quarantined(0));
        // Three healthy samples retire the quarantine.
        for i in 0..3 {
            let mut r = vec![20.0 + 0.1 * i as f64, 21.0 + 0.1 * i as f64];
            m.sanitize(&mut r);
        }
        assert!(!m.is_quarantined(0));
        // And fresh readings now pass through.
        let mut r = vec![19.5, 21.4];
        let rep = m.sanitize(&mut r);
        assert!((r[0] - 19.5).abs() < 1e-9);
        assert!(rep.clean());
    }

    #[test]
    fn persistent_fault_keeps_quarantine_alive() {
        let cfg = HealthConfig {
            quarantine_samples: 3,
            ..HealthConfig::default()
        };
        let mut m = HealthMonitor::new(2, cfg);
        for _ in 0..20 {
            let mut r = vec![f64::NAN, 21.0];
            m.sanitize(&mut r);
            assert!(m.is_quarantined(0));
            assert!(r[0].is_finite());
        }
    }

    #[test]
    fn all_signals_dead_still_yields_finite_values() {
        let mut m = monitor(2);
        let mut r = vec![f64::NAN, f64::NAN];
        let rep = m.sanitize(&mut r);
        assert!(r.iter().all(|v| v.is_finite()));
        assert_eq!(rep.quarantined_now, 2);
    }

    #[test]
    fn last_good_used_when_no_healthy_peer() {
        let mut m = monitor(1);
        let mut r = vec![22.5];
        m.sanitize(&mut r);
        let mut r = vec![f64::NAN];
        m.sanitize(&mut r);
        assert!(
            (r[0] - 22.5).abs() < 1e-9,
            "single signal imputes last good"
        );
    }

    fn peer_cfg(threshold: f64) -> HealthConfig {
        HealthConfig {
            peer_deviation: threshold,
            ..HealthConfig::default()
        }
    }

    #[test]
    fn peer_deviation_disabled_by_default() {
        // A wide but in-band spread must pass when the check is off.
        let mut m = monitor(5);
        for i in 0..20 {
            let j = 0.01 * (i as f64).sin();
            let mut r = vec![10.0 + j, 20.0 + j, 30.0 + j, 40.0 + j, 15.0 + j];
            let rep = m.sanitize(&mut r);
            assert!(rep.clean(), "disabled peer check must not quarantine");
        }
    }

    #[test]
    fn in_band_stuck_value_caught_by_peer_check() {
        let mut m = HealthMonitor::new(5, peer_cfg(3.0));
        let mut r = vec![20.0, 20.2, 19.9, 20.1, 20.3];
        assert!(m.sanitize(&mut r).clean());
        // Sensor 0 jumps to a plausible-but-wrong 28 °C (in band, so the
        // range check is blind to it).
        let mut r = vec![28.0, 20.25, 19.95, 20.15, 20.35];
        let rep = m.sanitize(&mut r);
        assert_eq!(rep.newly_quarantined, vec![0]);
        assert_eq!(m.fault(0), Some(HealthFault::PeerDeviation));
        assert!(
            (r[0] - 20.25).abs() < 1.0,
            "imputed from the peer cluster, saw {}",
            r[0]
        );
    }

    #[test]
    fn drift_caught_once_it_leaves_the_cluster() {
        let mut m = HealthMonitor::new(5, peer_cfg(3.0));
        let mut caught_at = None;
        for i in 0..30 {
            let j = 0.02 * (i as f64).sin();
            let drifting = 20.0 + 0.5 * i as f64;
            let mut r = vec![drifting, 20.1 + j, 19.9 + j, 20.2 + j, 20.0 + j];
            let rep = m.sanitize(&mut r);
            if rep.newly_quarantined.contains(&0) && caught_at.is_none() {
                caught_at = Some(i);
            }
            assert!(
                r[0] < 24.0,
                "sanitized drift must stay near the cluster, saw {} at minute {i}",
                r[0]
            );
        }
        // Caught as soon as the drift exceeds the 3 °C threshold (~i=7).
        assert_eq!(caught_at, Some(7));
        assert_eq!(m.fault(0), Some(HealthFault::PeerDeviation));
    }

    #[test]
    fn too_few_peers_disable_peer_check() {
        // With only three clean signals there is no 3-peer consensus, so
        // even a tight threshold must not quarantine anyone.
        let mut m = HealthMonitor::new(3, peer_cfg(1.0));
        for i in 0..10 {
            let j = 0.01 * (i as f64).cos();
            let mut r = vec![15.0 + j, 25.0 + j, 35.0 + j];
            let rep = m.sanitize(&mut r);
            assert!(rep.clean());
        }
    }

    #[test]
    fn deviant_value_never_becomes_last_good() {
        let mut m = HealthMonitor::new(4, peer_cfg(2.0));
        let mut r = vec![20.0, 20.1, 19.9, 20.2];
        m.sanitize(&mut r);
        // Liar reports 30 °C; peers then drop out, forcing last-good
        // imputation — which must replay 20.0, not 30.0.
        let mut r = vec![30.0, 20.15, 19.95, 20.25];
        m.sanitize(&mut r);
        let mut r = vec![30.0, f64::NAN, f64::NAN, f64::NAN];
        m.sanitize(&mut r);
        assert!(
            (r[0] - 20.0).abs() < 1e-9,
            "last_good must predate the lie, saw {}",
            r[0]
        );
    }

    #[test]
    #[should_panic(expected = "sample width")]
    fn width_mismatch_panics() {
        let mut m = monitor(3);
        let mut r = vec![1.0];
        m.sanitize(&mut r);
    }

    /// The sanitize of the per-candidate peer sort, kept verbatim as the
    /// reference the one-sort version must match bit for bit.
    fn reference_sanitize(m: &mut HealthMonitor, readings: &mut [f64]) -> SanitizeReport {
        assert_eq!(
            readings.len(),
            m.signals.len(),
            "sample width {} != monitor width {}",
            readings.len(),
            m.signals.len()
        );
        m.samples_seen += 1;
        let mut report = SanitizeReport::default();

        // Pass 1: per-signal detection and quarantine bookkeeping on raw
        // values. Signals that look clean in isolation are only promoted
        // to `last_good` after the cross-sensor peer check below —
        // otherwise an in-band liar would poison its own fallback value.
        let mut clean_candidates: Vec<usize> = Vec::new();
        for (k, &raw) in readings.iter().enumerate() {
            let s = &mut m.signals[k];
            // Track the repeat run on the raw stream: after this update,
            // flat_run + 1 is the length of the current identical run.
            match s.prev_raw {
                Some(prev) if raw.is_finite() && (raw - prev).abs() <= m.cfg.flatline_epsilon => {
                    s.flat_run += 1
                }
                _ => s.flat_run = 0,
            }
            s.prev_raw = raw.is_finite().then_some(raw);

            let fault = if !raw.is_finite() {
                Some(HealthFault::Dropout)
            } else if raw < m.cfg.min_value || raw > m.cfg.max_value {
                Some(HealthFault::OutOfRange)
            } else if m.cfg.flatline_window >= 2 && s.flat_run + 1 >= m.cfg.flatline_window {
                Some(HealthFault::Flatline)
            } else {
                None
            };

            match fault {
                Some(f) => {
                    if s.quarantine_left == 0 {
                        report.newly_quarantined.push(k);
                    }
                    s.fault = Some(f);
                    s.quarantine_left = m.cfg.quarantine_samples.max(1);
                }
                None => {
                    if s.quarantine_left > 0 {
                        s.quarantine_left -= 1;
                    }
                    // Re-admission (and first admission) goes through the
                    // peer check below, so a persistent in-band liar is
                    // re-caught the moment its holdoff expires.
                    if s.quarantine_left == 0 {
                        clean_candidates.push(k);
                    }
                }
            }
        }

        // Cross-sensor consistency: a clean-looking signal that strays too
        // far from the median of the *other* clean signals is an in-band
        // lie (slow drift, stuck at a plausible value). Requires at least
        // three peers so a single outlier cannot hijack the consensus.
        if m.cfg.peer_deviation.is_finite() && clean_candidates.len() >= 4 {
            let values: Vec<f64> = clean_candidates.iter().map(|&k| readings[k]).collect();
            for (i, &k) in clean_candidates.iter().enumerate() {
                let mut peers: Vec<f64> = values
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != i)
                    .map(|(_, &v)| v)
                    .collect();
                peers.sort_by(|a, b| a.total_cmp(b));
                let peer_median = peers[peers.len() / 2];
                if (values[i] - peer_median).abs() > m.cfg.peer_deviation {
                    let s = &mut m.signals[k];
                    if s.quarantine_left == 0 {
                        report.newly_quarantined.push(k);
                    }
                    s.fault = Some(HealthFault::PeerDeviation);
                    s.quarantine_left = m.cfg.quarantine_samples.max(1);
                }
            }
        }

        // Survivors of both checks become the new last-good references.
        for &k in &clean_candidates {
            let s = &mut m.signals[k];
            if s.quarantine_left == 0 {
                s.last_good = Some(readings[k]);
            }
        }

        // Cross-sensor median of healthy raw readings, for imputation.
        let mut healthy: Vec<f64> = readings
            .iter()
            .enumerate()
            .filter(|&(k, v)| !m.is_quarantined(k) && v.is_finite())
            .map(|(_, &v)| v)
            .collect();
        let median = if healthy.is_empty() {
            None
        } else {
            healthy.sort_by(|a, b| a.total_cmp(b));
            Some(healthy[healthy.len() / 2])
        };

        // Pass 2: impute quarantined signals.
        for (k, v) in readings.iter_mut().enumerate() {
            if !m.is_quarantined(k) {
                continue;
            }
            let imputed = median.or(m.signals[k].last_good);
            if let Some(value) = imputed {
                *v = value;
                report.imputed.push(k);
            } else if !v.is_finite() {
                // No reference at all (first samples of a dead sensor):
                // fall back to mid-range so windows stay finite.
                *v = 0.5 * (m.cfg.min_value + m.cfg.max_value);
                report.imputed.push(k);
            }
        }

        report.quarantined_now = m.quarantined().len();
        report
    }

    /// One sample of a `width`-sensor aisle at minute `t`: values on a
    /// 0.25 °C grid, so ties are common, spread about as wide as the
    /// peer threshold below, so the median's slot decides verdicts, plus
    /// peer outliers, NaN dropouts, out-of-range readings and two
    /// flatlined sensors.
    fn stressed_sample(width: usize, t: usize, rng: &mut u64) -> Vec<f64> {
        let mut next = || {
            *rng = rng
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (*rng >> 33) as usize
        };
        (0..width)
            .map(|k| {
                let roll = next() % 100;
                let grid = 21.0 + 0.25 * (next() % 12) as f64;
                if k == 1 && (40..80).contains(&t) {
                    23.0 // flatline inside the band
                } else if k == width - 1 && t >= 150 {
                    18.5 // flatline, later an outlier too
                } else if roll < 5 {
                    f64::NAN
                } else if roll < 8 {
                    if roll % 2 == 0 {
                        60.0
                    } else {
                        -3.0
                    }
                } else if roll < 14 {
                    grid + 4.0
                } else {
                    grid
                }
            })
            .collect()
    }

    #[test]
    fn one_sort_sanitize_matches_the_per_candidate_sort_bit_for_bit() {
        let cfg = HealthConfig {
            flatline_window: 6,
            quarantine_samples: 4,
            peer_deviation: 1.0,
            ..HealthConfig::default()
        };
        for width in [4, 5, 11, 24, 40] {
            let mut fast = HealthMonitor::new(width, cfg.clone());
            let mut reference = HealthMonitor::new(width, cfg.clone());
            let mut rng = width as u64;
            let mut peer_trips = 0;
            for t in 0..200 {
                let raw = stressed_sample(width, t, &mut rng);
                let (mut a, mut b) = (raw.clone(), raw);
                let got = fast.sanitize(&mut a);
                let want = reference_sanitize(&mut reference, &mut b);
                let bits = |r: &[f64]| r.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&a), bits(&b), "width {width}, sample {t}: values");
                assert_eq!(got, want, "width {width}, sample {t}: report");
                assert_eq!(fast.quarantined(), reference.quarantined());
                peer_trips += got
                    .newly_quarantined
                    .iter()
                    .filter(|&&k| fast.fault(k) == Some(HealthFault::PeerDeviation))
                    .count();
            }
            assert!(peer_trips > 0, "width {width}: the peer check never fired");
        }
    }
}
