//! Versioned, CRC-framed control-plane checkpoints.
//!
//! A checkpoint captures everything the control plane needs to resume a
//! supervised episode bit-identically after a crash: the episode
//! fingerprint (seed, length, warm-up, controller name), the executed
//! set-point prefix, the supervisor's full ladder state, and the
//! controller's opaque decision state. Files use the same framing
//! discipline as the historian WAL — a magic tag, a version, an explicit
//! length, and a CRC32 over the payload — so a torn or foreign file is
//! *detected*, never mis-parsed.
//!
//! File layout (all integers little-endian):
//!
//! ```text
//! ┌──────────┬─────────┬─────────┬───────┬────────────────┐
//! │ TSLACKPT │ version │ len u32 │ crc32 │ payload (len B) │
//! │  8 bytes │   u16   │         │  u32  │                 │
//! └──────────┴─────────┴─────────┴───────┴────────────────┘
//! ```
//!
//! Writes are atomic: the frame is written and fsynced to a dot-prefixed
//! temp file in the same directory, then renamed into place. A crash
//! mid-write therefore leaves either the previous file set untouched or
//! an ignorable temp file — never a half-written checkpoint under the
//! real name. [`CheckpointStore::latest_valid`] scans newest-first and
//! skips anything torn, corrupt, or written by a future version, falling
//! back to the next older file.
//!
//! All raw byte-level deserialization in this crate is confined to the
//! CRC-checked `ByteReader` here — the `no-unframed-checkpoint-read`
//! lint (`cargo xtask lint`) enforces that nothing else in `tesla-core`
//! parses checkpoint bytes ad hoc.

// analysis:allow-file(panic-free-control-path): encode/decode
// fail-fast on violated framing invariants is deliberate — a torn
// checkpoint must never be silently applied.
use crate::supervisor::{Rung, StressReason, SupervisorEvent, SupervisorState};
use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use tesla_historian::wal::crc32;
use tesla_units::Celsius;

/// Magic tag opening every checkpoint file.
pub const CHECKPOINT_MAGIC: [u8; 8] = *b"TSLACKPT";
/// Current format version. Readers reject anything newer.
pub const CHECKPOINT_VERSION: u16 = 1;
/// Frame header size: magic + version + payload length + CRC.
const HEADER_LEN: usize = 8 + 2 + 4 + 4;

/// Why a checkpoint could not be read.
#[derive(Debug)]
pub enum CheckpointError {
    /// The file is shorter than its frame claims, the magic tag is
    /// missing, or the CRC does not match: a torn write or foreign file.
    Torn,
    /// The file was written by a newer format version than this reader
    /// understands.
    FutureVersion(u16),
    /// The frame is intact (magic, length, and CRC all check out) but the
    /// payload violates a structural invariant — e.g. a non-finite
    /// set-point or an unknown rung code.
    Corrupt(String),
    /// The underlying filesystem operation failed.
    Io(std::io::Error),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Torn => write!(f, "torn or foreign checkpoint frame"),
            CheckpointError::FutureVersion(v) => {
                write!(
                    f,
                    "checkpoint version {v} is newer than supported ({CHECKPOINT_VERSION})"
                )
            }
            CheckpointError::Corrupt(why) => write!(f, "corrupt checkpoint payload: {why}"),
            CheckpointError::Io(e) => write!(f, "checkpoint i/o: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// Little-endian append-only byte sink for checkpoint payloads.
#[derive(Debug, Default)]
pub(crate) struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    pub(crate) fn new() -> Self {
        ByteWriter::default()
    }

    pub(crate) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub(crate) fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    pub(crate) fn bytes(&mut self, b: &[u8]) {
        self.u32(b.len() as u32);
        self.buf.extend_from_slice(b);
    }

    pub(crate) fn into_vec(self) -> Vec<u8> {
        self.buf
    }
}

/// Checked little-endian cursor over a CRC-verified payload. Every read
/// is bounds-checked; `None` means the payload ended early.
#[derive(Debug)]
pub(crate) struct ByteReader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> ByteReader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, at: 0 }
    }

    /// Bytes not yet consumed.
    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.at
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.at.checked_add(n)?;
        if end > self.buf.len() {
            return None;
        }
        let slice = &self.buf[self.at..end];
        self.at = end;
        Some(slice)
    }

    pub(crate) fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|s| s[0])
    }

    pub(crate) fn u16(&mut self) -> Option<u16> {
        self.take(2).map(|s| u16::from_le_bytes([s[0], s[1]])) // lint:allow(no-unframed-checkpoint-read): the CRC-checked reader itself
    }

    pub(crate) fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|s| u32::from_le_bytes([s[0], s[1], s[2], s[3]])) // lint:allow(no-unframed-checkpoint-read): the CRC-checked reader itself
    }

    pub(crate) fn u64(&mut self) -> Option<u64> {
        let s = self.take(8)?;
        let mut b = [0u8; 8];
        b.copy_from_slice(s);
        Some(u64::from_le_bytes(b)) // lint:allow(no-unframed-checkpoint-read): the CRC-checked reader itself
    }

    pub(crate) fn f64(&mut self) -> Option<f64> {
        self.u64().map(f64::from_bits)
    }

    /// A `u32`-length-prefixed byte run.
    pub(crate) fn bytes(&mut self) -> Option<&'a [u8]> {
        let len = self.u32()? as usize;
        self.take(len)
    }
}

/// A resumable snapshot of the control plane at a metered-minute cursor.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Episode seed (fingerprint: a resume refuses a mismatched seed).
    pub seed: u64,
    /// Metered episode length in minutes (fingerprint).
    pub minutes: u64,
    /// Warm-up minutes before metering starts (fingerprint).
    pub warmup_minutes: u64,
    /// Name of the controller the state belongs to (fingerprint).
    pub controller: String,
    /// Metered minutes completed — the resume point.
    pub cursor: u64,
    /// Executed set-points for minutes `0..cursor`, replayed verbatim
    /// against the rebuilt plant on resume.
    // lint:allow(no-raw-f64-in-public-api): serialized codec field; newtypes would change the wire format
    pub setpoints: Vec<f64>,
    /// Full supervisor ladder state at the cursor.
    pub supervisor: SupervisorState,
    /// Opaque controller decision state ([`crate::Controller::save_state`]).
    pub controller_state: Option<Vec<u8>>,
}

/// Sentinel for "no reason" in the optional `StressReason` slots.
const NO_REASON: u8 = 0xFF;

impl Checkpoint {
    /// True when this checkpoint belongs to the given episode identity.
    pub fn matches(&self, seed: u64, minutes: u64, warmup_minutes: u64, controller: &str) -> bool {
        self.seed == seed
            && self.minutes == minutes
            && self.warmup_minutes == warmup_minutes
            && self.controller == controller
    }

    /// Serializes the checkpoint into a self-describing CRC-framed file
    /// image.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.u64(self.seed);
        w.u64(self.minutes);
        w.u64(self.warmup_minutes);
        w.bytes(self.controller.as_bytes());
        w.u64(self.cursor);
        w.u32(self.setpoints.len() as u32);
        for &sp in &self.setpoints {
            w.f64(sp);
        }
        encode_supervisor(&mut w, &self.supervisor);
        match &self.controller_state {
            Some(bytes) => {
                w.u8(1);
                w.bytes(bytes);
            }
            None => w.u8(0),
        }
        let payload = w.into_vec();

        let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
        out.extend_from_slice(&CHECKPOINT_MAGIC);
        out.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }

    /// Parses a file image produced by [`Checkpoint::encode`], verifying
    /// magic, version, length, and CRC before touching the payload.
    pub fn decode(bytes: &[u8]) -> Result<Checkpoint, CheckpointError> {
        let mut r = ByteReader::new(bytes);
        let magic = r.take(8).ok_or(CheckpointError::Torn)?;
        if magic != CHECKPOINT_MAGIC {
            return Err(CheckpointError::Torn);
        }
        let version = r.u16().ok_or(CheckpointError::Torn)?;
        if version > CHECKPOINT_VERSION {
            return Err(CheckpointError::FutureVersion(version));
        }
        let len = r.u32().ok_or(CheckpointError::Torn)? as usize;
        let crc = r.u32().ok_or(CheckpointError::Torn)?;
        if r.remaining() != len {
            return Err(CheckpointError::Torn);
        }
        let payload = r.take(len).ok_or(CheckpointError::Torn)?;
        if crc32(payload) != crc {
            return Err(CheckpointError::Torn);
        }
        Self::decode_payload(payload)
    }

    fn decode_payload(payload: &[u8]) -> Result<Checkpoint, CheckpointError> {
        let corrupt = |why: &str| CheckpointError::Corrupt(why.to_string());
        let mut r = ByteReader::new(payload);
        let seed = r.u64().ok_or_else(|| corrupt("seed"))?;
        let minutes = r.u64().ok_or_else(|| corrupt("minutes"))?;
        let warmup_minutes = r.u64().ok_or_else(|| corrupt("warmup"))?;
        let controller = String::from_utf8(
            r.bytes()
                .ok_or_else(|| corrupt("controller name"))?
                .to_vec(),
        )
        .map_err(|_| corrupt("controller name not utf-8"))?;
        let cursor = r.u64().ok_or_else(|| corrupt("cursor"))?;

        let n_sp = r.u32().ok_or_else(|| corrupt("setpoint count"))? as usize;
        if n_sp * 8 > r.remaining() {
            return Err(corrupt("setpoint count exceeds payload"));
        }
        if n_sp as u64 != cursor {
            return Err(corrupt("setpoint prefix length disagrees with cursor"));
        }
        let mut setpoints = Vec::with_capacity(n_sp);
        for _ in 0..n_sp {
            let sp = r.f64().ok_or_else(|| corrupt("setpoint"))?;
            if !sp.is_finite() {
                return Err(corrupt("non-finite set-point"));
            }
            setpoints.push(sp);
        }
        let supervisor = decode_supervisor(&mut r)?;
        let controller_state = match r.u8().ok_or_else(|| corrupt("controller-state flag"))? {
            0 => None,
            1 => Some(
                r.bytes()
                    .ok_or_else(|| corrupt("controller state"))?
                    .to_vec(),
            ),
            _ => return Err(corrupt("controller-state flag")),
        };
        if r.remaining() != 0 {
            return Err(corrupt("trailing bytes after payload"));
        }
        Ok(Checkpoint {
            seed,
            minutes,
            warmup_minutes,
            controller,
            cursor,
            setpoints,
            supervisor,
            controller_state,
        })
    }
}

fn encode_reason(w: &mut ByteWriter, reason: Option<StressReason>) {
    w.u8(reason.map_or(NO_REASON, StressReason::code));
}

fn decode_reason(code: u8) -> Result<Option<StressReason>, CheckpointError> {
    if code == NO_REASON {
        return Ok(None);
    }
    StressReason::from_code(code)
        .map(Some)
        .ok_or_else(|| CheckpointError::Corrupt(format!("unknown stress-reason code {code}")))
}

fn encode_supervisor(w: &mut ByteWriter, s: &SupervisorState) {
    w.u8(s.rung.index());
    w.u32(s.stress_streak);
    w.u32(s.clean_streak);
    encode_reason(w, s.pending_reason);
    encode_reason(w, s.elevated_reason);
    w.f64(s.last_safe_setpoint.value());
    match s.last_executed {
        Some(c) => {
            w.u8(1);
            w.f64(c.value());
        }
        None => w.u8(0),
    }
    w.u32(s.events.len() as u32);
    for e in &s.events {
        w.u64(e.minute as u64);
        w.u8(e.from.index());
        w.u8(e.to.index());
        w.u8(e.reason.code());
    }
    w.u64(s.events_dropped);
    w.u64(s.safe_mode_minutes);
    w.u64(s.hold_minutes);
    w.u64(s.watchdog_trips);
    w.u64(s.write_failures);
    w.u64(s.write_retries);
    w.u64(s.decision_timeouts);
}

fn decode_supervisor(r: &mut ByteReader<'_>) -> Result<SupervisorState, CheckpointError> {
    let corrupt = |why: &str| CheckpointError::Corrupt(why.to_string());
    let rung_of = |code: u8| {
        Rung::from_index(code)
            .ok_or_else(|| CheckpointError::Corrupt(format!("unknown rung index {code}")))
    };
    let rung = rung_of(r.u8().ok_or_else(|| corrupt("rung"))?)?;
    let stress_streak = r.u32().ok_or_else(|| corrupt("stress streak"))?;
    let clean_streak = r.u32().ok_or_else(|| corrupt("clean streak"))?;
    let pending_reason = decode_reason(r.u8().ok_or_else(|| corrupt("pending reason"))?)?;
    let elevated_reason = decode_reason(r.u8().ok_or_else(|| corrupt("elevated reason"))?)?;
    let last_safe = r.f64().ok_or_else(|| corrupt("last safe set-point"))?;
    if !last_safe.is_finite() {
        return Err(corrupt("non-finite last safe set-point"));
    }
    let last_executed = match r.u8().ok_or_else(|| corrupt("last-executed flag"))? {
        0 => None,
        1 => {
            let v = r.f64().ok_or_else(|| corrupt("last executed"))?;
            if !v.is_finite() {
                return Err(corrupt("non-finite last executed set-point"));
            }
            Some(Celsius::new(v))
        }
        _ => return Err(corrupt("last-executed flag")),
    };
    let n_events = r.u32().ok_or_else(|| corrupt("event count"))? as usize;
    if n_events * 11 > r.remaining() {
        return Err(corrupt("event count exceeds payload"));
    }
    let mut events = Vec::with_capacity(n_events);
    for _ in 0..n_events {
        let minute = r.u64().ok_or_else(|| corrupt("event minute"))? as usize;
        let from = rung_of(r.u8().ok_or_else(|| corrupt("event from-rung"))?)?;
        let to = rung_of(r.u8().ok_or_else(|| corrupt("event to-rung"))?)?;
        let reason = decode_reason(r.u8().ok_or_else(|| corrupt("event reason"))?)?
            .ok_or_else(|| corrupt("event reason missing"))?;
        events.push(SupervisorEvent {
            minute,
            from,
            to,
            reason,
        });
    }
    Ok(SupervisorState {
        rung,
        stress_streak,
        clean_streak,
        pending_reason,
        elevated_reason,
        last_safe_setpoint: Celsius::new(last_safe),
        last_executed,
        events,
        events_dropped: r.u64().ok_or_else(|| corrupt("events dropped"))?,
        safe_mode_minutes: r.u64().ok_or_else(|| corrupt("safe-mode minutes"))?,
        hold_minutes: r.u64().ok_or_else(|| corrupt("hold minutes"))?,
        watchdog_trips: r.u64().ok_or_else(|| corrupt("watchdog trips"))?,
        write_failures: r.u64().ok_or_else(|| corrupt("write failures"))?,
        write_retries: r.u64().ok_or_else(|| corrupt("write retries"))?,
        decision_timeouts: r.u64().ok_or_else(|| corrupt("decision timeouts"))?,
    })
}

/// A directory of numbered checkpoint files with atomic writes, keep-N
/// retention, and newest-first recovery.
#[derive(Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
    keep: usize,
}

impl CheckpointStore {
    /// Opens (creating if needed) a checkpoint directory keeping the
    /// newest `keep` files (minimum 1).
    pub fn open(dir: impl Into<PathBuf>, keep: usize) -> Result<Self, CheckpointError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(CheckpointStore {
            dir,
            keep: keep.max(1),
        })
    }

    /// The directory backing this store.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn file_name(cursor: u64) -> String {
        format!("ckpt-{cursor:010}.bin")
    }

    /// Atomically persists a checkpoint: encode → temp file → fsync →
    /// rename, with jittered-backoff retries on transient I/O errors,
    /// then prunes beyond the retention limit. Returns the final path.
    pub fn write(&self, ckpt: &Checkpoint) -> Result<PathBuf, CheckpointError> {
        let _timer = tesla_obs::Timer::start(tesla_obs::histogram!("checkpoint_write_seconds"));
        let bytes = ckpt.encode();
        tesla_obs::gauge!("checkpoint_size_bytes").set(bytes.len() as f64);
        let final_path = self.dir.join(Self::file_name(ckpt.cursor));
        let tmp = self.dir.join(format!(".ckpt-{:010}.tmp", ckpt.cursor));
        let policy = tesla_backoff::BackoffPolicy {
            base_ms: 1,
            factor: 2,
            max_delay_ms: 64,
            max_attempts: 3,
            jitter: 0.25,
            seed: 0xC4B7 ^ ckpt.cursor,
        };
        policy.run(
            |_| {
                let mut f = fs::File::create(&tmp)?;
                f.write_all(&bytes)?;
                f.sync_all()?;
                fs::rename(&tmp, &final_path)
            },
            |_| true,
            |_| tesla_obs::counter!("checkpoint_write_retries_total").inc(),
        )?;
        tesla_obs::counter!("checkpoint_writes_total").inc();
        self.prune();
        Ok(final_path)
    }

    /// Checkpoint files present, oldest first. Temp files and foreign
    /// names are ignored.
    pub fn list(&self) -> Result<Vec<PathBuf>, CheckpointError> {
        let mut out = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.starts_with("ckpt-") && name.ends_with(".bin") {
                out.push(entry.path());
            }
        }
        // Zero-padded cursors make lexicographic order chronological.
        out.sort();
        Ok(out)
    }

    /// The newest checkpoint that decodes cleanly, or `None` when every
    /// candidate is torn, corrupt, future-versioned, or absent. Invalid
    /// files are skipped (and counted), not deleted — they stay for
    /// post-mortems.
    pub fn latest_valid(&self) -> Result<Option<(Checkpoint, PathBuf)>, CheckpointError> {
        let _timer = tesla_obs::Timer::start(tesla_obs::histogram!("checkpoint_restore_seconds"));
        for path in self.list()?.into_iter().rev() {
            match fs::read(&path)
                .map_err(CheckpointError::Io)
                .and_then(|b| Checkpoint::decode(&b))
            {
                Ok(ckpt) => {
                    tesla_obs::counter!("checkpoint_restores_total").inc();
                    return Ok(Some((ckpt, path)));
                }
                Err(e) => {
                    tesla_obs::counter!("checkpoint_corrupt_total").inc();
                    tesla_obs::event(
                        "checkpoint_invalid",
                        &[("kind", matches!(e, CheckpointError::Torn) as u8 as f64)],
                    );
                }
            }
        }
        Ok(None)
    }

    /// Drops the oldest files beyond the retention limit. Best-effort:
    /// a failed unlink only means an extra file lingers.
    fn prune(&self) {
        if let Ok(files) = self.list() {
            if files.len() > self.keep {
                let excess = files.len() - self.keep;
                for path in &files[..excess] {
                    let _ = fs::remove_file(path);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_state() -> SupervisorState {
        SupervisorState {
            rung: Rung::HoldLastSafe,
            stress_streak: 2,
            clean_streak: 0,
            pending_reason: Some(StressReason::WriteFailed),
            elevated_reason: Some(StressReason::Watchdog),
            last_safe_setpoint: Celsius::new(24.5),
            last_executed: Some(Celsius::new(24.25)),
            events: vec![SupervisorEvent {
                minute: 17,
                from: Rung::Normal,
                to: Rung::HoldLastSafe,
                reason: StressReason::Watchdog,
            }],
            events_dropped: 3,
            safe_mode_minutes: 0,
            hold_minutes: 5,
            watchdog_trips: 1,
            write_failures: 2,
            write_retries: 7,
            decision_timeouts: 1,
        }
    }

    fn sample_checkpoint() -> Checkpoint {
        Checkpoint {
            seed: 42,
            minutes: 240,
            warmup_minutes: 30,
            controller: "tesla".to_string(),
            cursor: 3,
            setpoints: vec![23.0, 23.5, 24.0],
            supervisor: sample_state(),
            controller_state: Some(vec![9, 8, 7, 6]),
        }
    }

    #[test]
    fn roundtrip_is_identity() {
        let ckpt = sample_checkpoint();
        let decoded = Checkpoint::decode(&ckpt.encode()).unwrap();
        assert_eq!(decoded, ckpt);
    }

    #[test]
    fn roundtrip_without_controller_state() {
        let ckpt = Checkpoint {
            controller_state: None,
            ..sample_checkpoint()
        };
        assert_eq!(Checkpoint::decode(&ckpt.encode()).unwrap(), ckpt);
    }

    #[test]
    fn future_version_is_rejected() {
        let mut bytes = sample_checkpoint().encode();
        bytes[8..10].copy_from_slice(&(CHECKPOINT_VERSION + 1).to_le_bytes());
        assert!(matches!(
            Checkpoint::decode(&bytes),
            Err(CheckpointError::FutureVersion(v)) if v == CHECKPOINT_VERSION + 1
        ));
    }

    #[test]
    fn bad_magic_is_torn() {
        let mut bytes = sample_checkpoint().encode();
        bytes[0] = b'X';
        assert!(matches!(
            Checkpoint::decode(&bytes),
            Err(CheckpointError::Torn)
        ));
    }

    #[test]
    fn flipped_payload_byte_is_torn() {
        let mut bytes = sample_checkpoint().encode();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x55;
        assert!(matches!(
            Checkpoint::decode(&bytes),
            Err(CheckpointError::Torn)
        ));
    }

    #[test]
    fn truncation_at_every_offset_errors_cleanly() {
        let bytes = sample_checkpoint().encode();
        for cut in 0..bytes.len() {
            let err = Checkpoint::decode(&bytes[..cut]);
            assert!(err.is_err(), "truncated at {cut} must not decode");
        }
    }

    #[test]
    fn nan_setpoint_is_corrupt() {
        let ckpt = Checkpoint {
            setpoints: vec![23.0, f64::NAN, 24.0],
            ..sample_checkpoint()
        };
        assert!(matches!(
            Checkpoint::decode(&ckpt.encode()),
            Err(CheckpointError::Corrupt(_))
        ));
    }

    #[test]
    fn cursor_setpoint_mismatch_is_corrupt() {
        let ckpt = Checkpoint {
            cursor: 5,
            ..sample_checkpoint()
        };
        assert!(matches!(
            Checkpoint::decode(&ckpt.encode()),
            Err(CheckpointError::Corrupt(_))
        ));
    }

    #[test]
    fn store_write_read_roundtrip() {
        let dir = std::env::temp_dir().join(format!("tesla-ckpt-rt-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = CheckpointStore::open(&dir, 3).unwrap();
        let ckpt = sample_checkpoint();
        let path = store.write(&ckpt).unwrap();
        assert!(path.exists());
        let (loaded, from) = store.latest_valid().unwrap().unwrap();
        assert_eq!(loaded, ckpt);
        assert_eq!(from, path);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_prunes_to_keep() {
        let dir = std::env::temp_dir().join(format!("tesla-ckpt-prune-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = CheckpointStore::open(&dir, 2).unwrap();
        for cursor in 1..=5u64 {
            let ckpt = Checkpoint {
                cursor,
                setpoints: vec![23.0; cursor as usize],
                ..sample_checkpoint()
            };
            store.write(&ckpt).unwrap();
        }
        let files = store.list().unwrap();
        assert_eq!(files.len(), 2);
        let (latest, _) = store.latest_valid().unwrap().unwrap();
        assert_eq!(latest.cursor, 5);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_newest_falls_back_to_previous_valid() {
        let dir = std::env::temp_dir().join(format!("tesla-ckpt-torn-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = CheckpointStore::open(&dir, 4).unwrap();
        let good = Checkpoint {
            cursor: 1,
            setpoints: vec![23.0],
            ..sample_checkpoint()
        };
        store.write(&good).unwrap();
        let newer = Checkpoint {
            cursor: 2,
            setpoints: vec![23.0, 24.0],
            ..sample_checkpoint()
        };
        let full = newer.encode();
        // Simulate a torn write at every truncation point of the newer
        // file: recovery must always land on the older valid checkpoint.
        for cut in 0..full.len() {
            fs::write(dir.join(CheckpointStore::file_name(2)), &full[..cut]).unwrap();
            let (loaded, _) = store.latest_valid().unwrap().unwrap();
            assert_eq!(loaded.cursor, 1, "cut at {cut} must fall back");
        }
        // And the intact file wins again.
        fs::write(dir.join(CheckpointStore::file_name(2)), &full).unwrap();
        assert_eq!(store.latest_valid().unwrap().unwrap().0.cursor, 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_store_yields_none() {
        let dir = std::env::temp_dir().join(format!("tesla-ckpt-empty-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = CheckpointStore::open(&dir, 2).unwrap();
        assert!(store.latest_valid().unwrap().is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprint_matching() {
        let ckpt = sample_checkpoint();
        assert!(ckpt.matches(42, 240, 30, "tesla"));
        assert!(!ckpt.matches(43, 240, 30, "tesla"));
        assert!(!ckpt.matches(42, 240, 30, "fixed"));
    }
}
