//! Binary write-ahead log: CRC-framed records, segment rotation, an
//! fsync-policy knob, and crash recovery that truncates torn tails.
//!
//! ## On-disk layout
//!
//! A WAL directory holds numbered segments, `wal-<seq:08>.log`. Every
//! record is framed as
//!
//! ```text
//! ┌────────────┬────────────┬──────────────────┐
//! │ len  (u32) │ crc32(u32) │ payload (len B)  │   little-endian
//! └────────────┴────────────┴──────────────────┘
//! ```
//!
//! where the CRC (IEEE 802.3 polynomial) covers the payload only. A
//! `Samples` payload is
//!
//! ```text
//! kind=1 (u8) · name_len (u16) · name (UTF-8) · count (u32) ·
//! count × (time f64 · value f64)
//! ```
//!
//! Recovery walks segments in sequence order and replays every frame
//! whose length and CRC check out. The first bad frame is treated as a
//! torn tail from a crash mid-write: the segment is truncated at the
//! last good offset and recovery stops there, so at most the one
//! unflushed record is lost. All decoding goes through the CRC-checked
//! `read_frame` path — the `no-unchecked-wal-read` xtask lint keeps it
//! that way.

// analysis:allow-file(panic-free-control-path): poisoned-lock and
// framing-invariant expects are deliberate fail-fast; crashing beats
// appending corrupt frames the next recovery would replay.
use crate::HistorianError;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// CRC-32 (IEEE) slice-by-16 tables, built at compile time.
/// `CRC_TABLES[k][b]` folds byte `b` at offset `k` of a 16-byte chunk,
/// that is, followed by `15 - k` more bytes; `CRC_TABLES[15]` is the
/// bytewise table.
const CRC_TABLES: [[u32; 256]; 16] = {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 == 1 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[15][i] = c;
        i += 1;
    }
    // One more zero byte after `b`: shift the CRC one byte through the
    // bytewise table.
    let mut k = 15;
    while k > 0 {
        let mut i = 0;
        while i < 256 {
            let c = tables[k][i];
            tables[k - 1][i] = (c >> 8) ^ tables[15][(c & 0xFF) as usize];
            i += 1;
        }
        k -= 1;
    }
    tables
};

/// CRC32 (IEEE 802.3) of `bytes`: sixteen bytes per step through the
/// slice-by-16 tables, then the tail bytewise. The value is the plain
/// bytewise CRC's, so frames written by either verify under the other.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    let (chunks, tail) = bytes.as_chunks::<16>();
    for chunk in chunks {
        let mut ch = *chunk;
        for (b, cb) in ch.iter_mut().zip(c.to_le_bytes()) {
            *b ^= cb;
        }
        c = ch
            .iter()
            .zip(&CRC_TABLES)
            .fold(0, |acc, (&b, table)| acc ^ table[b as usize]);
    }
    for &b in tail {
        c = CRC_TABLES[15][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// When the WAL calls `fsync`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// After every record — maximum durability, slowest ingest.
    Always,
    /// After every `n` records (and on rotation/flush).
    EveryN(u32),
    /// Only on rotation and explicit [`WalWriter::sync`] — the OS page
    /// cache decides; a power loss can cost the unsynced suffix.
    OnRotateOnly,
}

/// WAL tuning knobs.
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// Directory holding the segments (created on open).
    pub dir: PathBuf,
    /// Rotate to a fresh segment once the current one exceeds this size.
    pub segment_bytes: u64,
    /// Fsync cadence.
    pub fsync: FsyncPolicy,
}

impl WalConfig {
    /// Defaults: 4 MiB segments, fsync every 256 records.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        WalConfig {
            dir: dir.into(),
            segment_bytes: 4 * 1024 * 1024,
            fsync: FsyncPolicy::EveryN(256),
        }
    }
}

/// One decoded WAL record.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A batch of samples for one series.
    Samples {
        /// Metric name.
        series: String,
        /// `(time_s, value)` pairs, time-ordered.
        samples: Vec<(f64, f64)>,
    },
}

impl WalRecord {
    /// Decodes a payload that has already passed the frame CRC check.
    /// Only [`read_frame`] may call this — corrupt-but-CRC-valid input
    /// still gets typed errors, never a panic.
    fn decode(payload: &[u8]) -> Result<WalRecord, HistorianError> {
        let corrupt = |w: &str| HistorianError::Corrupt(format!("WAL payload: {w}"));
        let kind = *payload.first().ok_or_else(|| corrupt("empty"))?;
        if kind != 1 {
            return Err(corrupt(&format!("unknown record kind {kind}")));
        }
        let mut at = 1usize;
        let take = |at: &mut usize, n: usize| -> Result<&[u8], HistorianError> {
            let s = payload
                .get(*at..*at + n)
                .ok_or_else(|| corrupt("truncated"))?;
            *at += n;
            Ok(s)
        };
        // lint:allow(no-unchecked-wal-read): inside the CRC-checked frame decoder
        let name_len = u16::from_le_bytes(take(&mut at, 2)?.try_into().expect("2 bytes")) as usize;
        let name = std::str::from_utf8(take(&mut at, name_len)?)
            .map_err(|_| corrupt("non-UTF-8 series name"))?
            .to_string();
        // lint:allow(no-unchecked-wal-read): inside the CRC-checked frame decoder
        let count = u32::from_le_bytes(take(&mut at, 4)?.try_into().expect("4 bytes")) as usize;
        // Sanity: the payload must be exactly as long as `count` demands.
        if payload.len() != at + count * 16 {
            return Err(corrupt("sample count disagrees with payload length"));
        }
        let mut samples = Vec::with_capacity(count);
        for _ in 0..count {
            // lint:allow(no-unchecked-wal-read): inside the CRC-checked frame decoder
            let t = f64::from_le_bytes(take(&mut at, 8)?.try_into().expect("8 bytes"));
            // lint:allow(no-unchecked-wal-read): inside the CRC-checked frame decoder
            let v = f64::from_le_bytes(take(&mut at, 8)?.try_into().expect("8 bytes"));
            samples.push((t, v));
        }
        Ok(WalRecord::Samples {
            series: name,
            samples,
        })
    }
}

/// Longest series name a `Samples` frame can hold: the name's length
/// is framed as a `u16`.
pub const MAX_SERIES_NAME_BYTES: usize = u16::MAX as usize;

fn segment_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("wal-{seq:08}.log"))
}

/// Sorted `(seq, path)` list of the segments present in `dir`.
pub fn list_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>, HistorianError> {
    let mut out = Vec::new();
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(out),
        Err(e) => return Err(HistorianError::Io(e)),
    };
    for entry in entries {
        let entry = entry.map_err(HistorianError::Io)?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if let Some(seq) = name
            .strip_prefix("wal-")
            .and_then(|s| s.strip_suffix(".log"))
            .and_then(|s| s.parse::<u64>().ok())
        {
            out.push((seq, entry.path()));
        }
    }
    out.sort();
    Ok(out)
}

/// Reads the next frame from `file`, verifying length and CRC. Returns
/// `Ok(None)` at a clean end of file; `Err(Torn)` on a short or
/// corrupt frame (the recovery path turns that into a truncation).
fn read_frame(file: &mut File) -> Result<Option<WalRecord>, FrameError> {
    let mut head = [0u8; 8];
    match read_exact_or_eof(file, &mut head)? {
        ReadOutcome::CleanEof => return Ok(None),
        ReadOutcome::Short => return Err(FrameError::Torn),
        ReadOutcome::Full => {}
    }
    // lint:allow(no-unchecked-wal-read): this IS the CRC-checked frame reader
    let len = u32::from_le_bytes(head[0..4].try_into().expect("4 bytes")) as usize;
    // lint:allow(no-unchecked-wal-read): this IS the CRC-checked frame reader
    let crc = u32::from_le_bytes(head[4..8].try_into().expect("4 bytes"));
    // An absurd length means the length field itself is torn garbage.
    if len > 64 * 1024 * 1024 {
        return Err(FrameError::Torn);
    }
    let mut payload = vec![0u8; len];
    match read_exact_or_eof(file, &mut payload)? {
        ReadOutcome::Full => {}
        ReadOutcome::CleanEof | ReadOutcome::Short => return Err(FrameError::Torn),
    }
    if crc32(&payload) != crc {
        return Err(FrameError::Torn);
    }
    WalRecord::decode(&payload)
        .map(Some)
        .map_err(FrameError::Decode)
}

enum ReadOutcome {
    Full,
    CleanEof,
    Short,
}

fn read_exact_or_eof(file: &mut File, buf: &mut [u8]) -> Result<ReadOutcome, FrameError> {
    let mut got = 0usize;
    while got < buf.len() {
        // lint:allow(no-unchecked-wal-read): byte transport for the CRC-checked frame reader
        let n = file.read(&mut buf[got..]).map_err(FrameError::Io)?;
        if n == 0 {
            return Ok(if got == 0 {
                ReadOutcome::CleanEof
            } else {
                ReadOutcome::Short
            });
        }
        got += n;
    }
    Ok(ReadOutcome::Full)
}

enum FrameError {
    /// Short read or CRC mismatch: a torn tail, recoverable by truncation.
    Torn,
    /// CRC-valid but semantically invalid payload: real corruption.
    Decode(HistorianError),
    /// I/O failure reading the segment.
    Io(std::io::Error),
}

/// Result of [`recover`].
#[derive(Debug, Default)]
pub struct RecoveryStats {
    /// Records replayed successfully.
    pub records: u64,
    /// Samples contained in those records.
    pub samples: u64,
    /// Segments visited.
    pub segments: u64,
    /// Bytes chopped off a torn tail (0 for a clean log).
    pub truncated_bytes: u64,
    /// The next segment sequence number a writer should use.
    pub next_seq: u64,
}

/// Replays every intact record under `dir` into `apply`, truncating a
/// torn tail in place. Returns the stats a caller needs to resume
/// writing (next segment sequence, loss accounting).
pub fn recover(
    dir: &Path,
    mut apply: impl FnMut(WalRecord),
) -> Result<RecoveryStats, HistorianError> {
    let timer = tesla_obs::Timer::start(tesla_obs::histogram!("historian_recovery_seconds"));
    let mut stats = RecoveryStats::default();
    let segments = list_segments(dir)?;
    for (seq, path) in &segments {
        stats.segments += 1;
        stats.next_seq = seq + 1;
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(HistorianError::Io)?;
        loop {
            let good_offset = file.stream_position().map_err(HistorianError::Io)?;
            match read_frame(&mut file) {
                Ok(Some(record)) => {
                    stats.records += 1;
                    let WalRecord::Samples { samples, .. } = &record;
                    stats.samples += samples.len() as u64;
                    apply(record);
                }
                Ok(None) => break,
                Err(FrameError::Torn) => {
                    // Crash mid-write: drop the tail and stop replaying —
                    // nothing after a torn frame can be trusted.
                    let end = file.seek(SeekFrom::End(0)).map_err(HistorianError::Io)?;
                    stats.truncated_bytes += end - good_offset;
                    file.set_len(good_offset).map_err(HistorianError::Io)?;
                    tesla_obs::counter!("historian_wal_truncations_total").inc();
                    drop(timer);
                    tesla_obs::counter!("historian_wal_recovered_records_total").add(stats.records);
                    return Ok(stats);
                }
                Err(FrameError::Decode(e)) => return Err(e),
                Err(FrameError::Io(e)) => return Err(HistorianError::Io(e)),
            }
        }
    }
    drop(timer);
    tesla_obs::counter!("historian_wal_recovered_records_total").add(stats.records);
    Ok(stats)
}

/// Appends CRC-framed records to the current segment, rotating and
/// fsyncing per the configured policy.
#[derive(Debug)]
pub struct WalWriter {
    cfg: WalConfig,
    out: BufWriter<File>,
    seq: u64,
    segment_len: u64,
    records_since_sync: u32,
    /// The frame being encoded, reused across appends.
    frame: Vec<u8>,
}

impl WalWriter {
    /// Opens a writer on a fresh segment numbered `next_seq` (use
    /// [`recover`]'s `next_seq`, or 0 for an empty directory).
    pub fn open(cfg: WalConfig, next_seq: u64) -> Result<Self, HistorianError> {
        std::fs::create_dir_all(&cfg.dir).map_err(HistorianError::Io)?;
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(segment_path(&cfg.dir, next_seq))
            .map_err(HistorianError::Io)?;
        Ok(WalWriter {
            cfg,
            out: BufWriter::new(file),
            seq: next_seq,
            segment_len: 0,
            records_since_sync: 0,
            frame: Vec::new(),
        })
    }

    /// Appends one [`WalRecord::Samples`] frame (length, CRC, payload)
    /// for `series`, encoded straight from the borrowed run into the
    /// writer's frame buffer and written in one piece. A name longer
    /// than [`MAX_SERIES_NAME_BYTES`] is refused with `InvalidInput`
    /// and writes nothing.
    pub fn append(&mut self, series: &str, samples: &[(f64, f64)]) -> Result<(), HistorianError> {
        let name = series.as_bytes();
        let name_len = u16::try_from(name.len()).map_err(|_| {
            HistorianError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "series name too long for a WAL frame",
            ))
        })?;
        let frame = &mut self.frame;
        frame.clear();
        // Length and CRC go in once the payload is known.
        frame.extend_from_slice(&[0; 8]);
        frame.push(1u8);
        frame.extend_from_slice(&name_len.to_le_bytes());
        frame.extend_from_slice(name);
        frame.extend_from_slice(&(samples.len() as u32).to_le_bytes());
        // The samples fill a payload sized once, 16 bytes each.
        let header_len = frame.len();
        frame.resize(header_len + samples.len() * 16, 0);
        let (_, body) = frame.split_at_mut(header_len);
        let (chunks, _) = body.as_chunks_mut::<16>();
        for (chunk, (t, v)) in chunks.iter_mut().zip(samples) {
            let (tb, vb) = chunk.split_at_mut(8);
            tb.copy_from_slice(&t.to_le_bytes());
            vb.copy_from_slice(&v.to_le_bytes());
        }
        let (head, payload) = frame.split_at_mut(8);
        head[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        head[4..].copy_from_slice(&crc32(payload).to_le_bytes());
        let frame_len = frame.len() as u64;
        if self.segment_len > 0 && self.segment_len + frame_len > self.cfg.segment_bytes {
            self.rotate()?;
        }
        self.out
            .write_all(&self.frame)
            .map_err(HistorianError::Io)?;
        self.segment_len += frame_len;
        self.records_since_sync += 1;
        tesla_obs::counter!("historian_wal_records_total").inc();
        match self.cfg.fsync {
            FsyncPolicy::Always => self.sync()?,
            FsyncPolicy::EveryN(n) => {
                if self.records_since_sync >= n.max(1) {
                    self.sync()?;
                }
            }
            FsyncPolicy::OnRotateOnly => {}
        }
        Ok(())
    }

    /// Flushes buffers and fsyncs the current segment.
    ///
    /// Transient I/O errors (interrupted syscalls, momentary resource
    /// exhaustion) are retried on the unified jittered-backoff policy;
    /// persistent failures still surface after the attempts run out.
    pub fn sync(&mut self) -> Result<(), HistorianError> {
        let policy = tesla_backoff::BackoffPolicy {
            base_ms: 1,
            factor: 2,
            max_delay_ms: 64,
            max_attempts: 3,
            jitter: 0.25,
            seed: 0x5A7C ^ self.seq,
        };
        let out = &mut self.out;
        policy
            .run(
                |_| {
                    out.flush()?;
                    out.get_ref().sync_data()
                },
                |e| {
                    matches!(
                        e.kind(),
                        std::io::ErrorKind::Interrupted
                            | std::io::ErrorKind::WouldBlock
                            | std::io::ErrorKind::TimedOut
                    )
                },
                |_| tesla_obs::counter!("historian_wal_sync_retries_total").inc(),
            )
            .map_err(HistorianError::Io)?;
        self.records_since_sync = 0;
        Ok(())
    }

    /// Closes the current segment (synced) and starts the next one.
    fn rotate(&mut self) -> Result<(), HistorianError> {
        self.sync()?;
        self.seq += 1;
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(segment_path(&self.cfg.dir, self.seq))
            .map_err(HistorianError::Io)?;
        self.out = BufWriter::new(file);
        self.segment_len = 0;
        tesla_obs::counter!("historian_wal_rotations_total").inc();
        Ok(())
    }

    /// Current segment sequence number.
    pub fn seq(&self) -> u64 {
        self.seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "tesla_wal_{name}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn samples(n: usize) -> Vec<(f64, f64)> {
        (0..n).map(|i| (i as f64 * 60.0, 20.0 + i as f64)).collect()
    }

    #[test]
    fn crc32_known_vector() {
        // CRC-32/IEEE of "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// A bytewise table CRC: the reference `crc32` must agree with on
    /// every input.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let table: Vec<u32> = (0..256u32)
            .map(|i| {
                (0..8).fold(i, |c, _| {
                    if c & 1 == 1 {
                        0xEDB8_8320 ^ (c >> 1)
                    } else {
                        c >> 1
                    }
                })
            })
            .collect();
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = table[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        !c
    }

    #[test]
    fn crc32_matches_bytewise_reference() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        let buf: Vec<u8> = (0..301).map(|_| next() as u8).collect();
        for len in 0..=300 {
            let s = &buf[..len];
            assert_eq!(crc32(s), crc32_bytewise(s), "length {len}");
        }
        // Random buffers at random offsets, so chunks start unaligned.
        for _ in 0..100 {
            let len = (next() % 5000) as usize;
            let skip = (next() % 16) as usize;
            let buf: Vec<u8> = (0..skip + len).map(|_| next() as u8).collect();
            let s = &buf[skip..];
            assert_eq!(crc32(s), crc32_bytewise(s), "length {len} at offset {skip}");
        }
        let zeros = [0u8; 64];
        let ones = [0xFFu8; 64];
        for s in [&zeros[..], &ones[..]] {
            assert_eq!(crc32(s), crc32_bytewise(s));
        }
    }

    #[test]
    fn append_and_recover_roundtrip() {
        let dir = tmp_dir("roundtrip");
        let mut w = WalWriter::open(WalConfig::new(&dir), 0).unwrap();
        for i in 0..10 {
            w.append(&format!("m{i}"), &samples(3)).unwrap();
        }
        w.sync().unwrap();
        drop(w);
        let mut seen = Vec::new();
        let stats = recover(&dir, |r| seen.push(r)).unwrap();
        assert_eq!(stats.records, 10);
        assert_eq!(stats.samples, 30);
        assert_eq!(stats.truncated_bytes, 0);
        assert_eq!(
            seen[4],
            WalRecord::Samples {
                series: "m4".into(),
                samples: samples(3),
            }
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_produces_multiple_segments() {
        let dir = tmp_dir("rotate");
        let cfg = WalConfig {
            segment_bytes: 256,
            ..WalConfig::new(&dir)
        };
        let mut w = WalWriter::open(cfg, 0).unwrap();
        for _ in 0..50 {
            w.append("m", &samples(4)).unwrap();
        }
        w.sync().unwrap();
        assert!(w.seq() > 0, "segments must have rotated");
        drop(w);
        let segs = list_segments(&dir).unwrap();
        assert!(segs.len() > 1);
        let mut n = 0u64;
        let stats = recover(&dir, |_| n += 1).unwrap();
        assert_eq!(n, 50);
        assert_eq!(stats.next_seq, segs.last().unwrap().0 + 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_and_loses_only_the_last_record() {
        let dir = tmp_dir("torn");
        let mut w = WalWriter::open(WalConfig::new(&dir), 0).unwrap();
        for i in 0..8 {
            w.append(&format!("m{i}"), &samples(2)).unwrap();
        }
        w.sync().unwrap();
        drop(w);
        // Chop mid-record: the file ends inside record 7's frame.
        let (_, path) = list_segments(&dir).unwrap().pop().unwrap();
        let len = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 5).unwrap();
        drop(f);

        let mut seen = Vec::new();
        let stats = recover(&dir, |r| seen.push(r)).unwrap();
        assert_eq!(stats.records, 7, "only the torn record may be lost");
        assert!(stats.truncated_bytes > 0);
        // Recovery is idempotent: a second pass sees a clean log.
        let stats2 = recover(&dir, |_| {}).unwrap();
        assert_eq!(stats2.records, 7);
        assert_eq!(stats2.truncated_bytes, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bitflip_in_payload_fails_crc_and_truncates() {
        let dir = tmp_dir("bitflip");
        let mut w = WalWriter::open(WalConfig::new(&dir), 0).unwrap();
        for i in 0..4 {
            w.append(&format!("m{i}"), &samples(2)).unwrap();
        }
        w.sync().unwrap();
        drop(w);
        let (_, path) = list_segments(&dir).unwrap().pop().unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let at = bytes.len() - 10; // inside the last record's payload
        bytes[at] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();

        let stats = recover(&dir, |_| {}).unwrap();
        assert_eq!(stats.records, 3);
        assert!(stats.truncated_bytes > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn overlong_name_is_refused_and_writes_nothing() {
        let dir = tmp_dir("long_name");
        let mut w = WalWriter::open(WalConfig::new(&dir), 0).unwrap();
        let long = "x".repeat(MAX_SERIES_NAME_BYTES + 1);
        assert!(w.append(&long, &samples(1)).is_err());
        w.append(&"y".repeat(MAX_SERIES_NAME_BYTES), &samples(2))
            .unwrap();
        w.sync().unwrap();
        drop(w);
        let mut seen = Vec::new();
        let stats = recover(&dir, |r| seen.push(r)).unwrap();
        assert_eq!(stats.records, 1);
        let WalRecord::Samples {
            series,
            samples: got,
        } = &seen[0];
        assert_eq!(series.len(), MAX_SERIES_NAME_BYTES);
        assert_eq!(got, &samples(2));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_directory_recovers_to_nothing() {
        let dir = tmp_dir("empty");
        let stats = recover(&dir, |_| panic!("no records expected")).unwrap();
        assert_eq!(stats.records, 0);
        assert_eq!(stats.next_seq, 0);
    }
}
