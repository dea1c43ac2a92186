//! Gorilla-style block compression: delta-of-delta timestamps and
//! XOR-encoded values, bit-packed.
//!
//! The scheme follows Facebook's Gorilla paper (VLDB 2015) with one
//! twist: timestamps here are `f64` seconds, not integers, so the
//! delta-of-delta runs over a *total-order key* of the float's bit
//! pattern (sign-magnitude flipped into lexicographic order). For the
//! regularly-spaced timestamps the collector produces, consecutive key
//! deltas are identical within an exponent band, so the common case is
//! still the 1-bit `dod == 0` path — and the round-trip is bit-exact for
//! every finite `f64`, which integer-millisecond truncation could never
//! guarantee.
//!
//! Values use the classic XOR encoding: a repeat costs 1 bit; a value
//! whose meaningful bits fit the previous leading/trailing-zero window
//! costs 2 bits + the window; otherwise 2 bits + 5 bits of leading-zero
//! count + 6 bits of length + the meaningful bits. All 2^64 bit patterns
//! round-trip exactly; the *writer* (see `engine`) refuses NaN/±inf so a
//! stored stream is always finite.

// analysis:allow-file(panic-free-control-path): bit-packing indices
// are bounded by the buffer lengths the encoder itself maintains.
use crate::HistorianError;

/// Append-only bit buffer. Bits collect most-significant first in a
/// 64-bit word, which goes out as 8 big-endian bytes when it fills, so
/// the byte stream is the same as appending one bit at a time.
#[derive(Debug, Default)]
pub struct BitWriter {
    bytes: Vec<u8>,
    /// Pending bits, left-aligned: the next bit lands at bit
    /// `63 - filled`; every bit below it is zero.
    acc: u64,
    /// Bits pending in `acc` (always below 64).
    filled: u32,
}

impl BitWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a single bit.
    pub fn push_bit(&mut self, bit: bool) {
        self.push_bits(u64::from(bit), 1);
    }

    /// Appends the low `n` bits of `v`, most-significant first.
    pub fn push_bits(&mut self, v: u64, n: u8) {
        debug_assert!(n <= 64);
        let n = u32::from(n);
        if n == 0 {
            return;
        }
        let v = if n == 64 { v } else { v & ((1 << n) - 1) };
        let free = 64 - self.filled;
        if n < free {
            self.acc |= v << (free - n);
            self.filled += n;
            return;
        }
        // Fill the word with the top `free` bits, emit it, and keep the
        // `spill` bits that did not fit.
        let spill = n - free;
        self.acc |= v >> spill;
        self.bytes.extend_from_slice(&self.acc.to_be_bytes());
        self.acc = if spill == 0 { 0 } else { v << (64 - spill) };
        self.filled = spill;
    }

    /// The packed bytes (final partial byte zero-padded).
    pub fn into_bytes(mut self) -> Vec<u8> {
        let tail = self.filled.div_ceil(8) as usize;
        self.bytes
            .extend_from_slice(&self.acc.to_be_bytes()[..tail]);
        self.bytes
    }

    /// Total bits written so far.
    pub fn bit_len(&self) -> usize {
        self.bytes.len() * 8 + self.filled as usize
    }
}

/// Sequential reader over a [`BitWriter`]'s output.
#[derive(Debug)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> BitReader<'a> {
    /// A reader positioned at the first bit of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        BitReader { bytes, pos: 0 }
    }

    /// Reads one bit, or errors at end of input.
    pub fn read_bit(&mut self) -> Result<bool, HistorianError> {
        let byte = self.pos / 8;
        if byte >= self.bytes.len() {
            return Err(HistorianError::Corrupt("bit stream truncated".into()));
        }
        let bit = (self.bytes[byte] >> (7 - (self.pos % 8))) & 1 == 1;
        self.pos += 1;
        Ok(bit)
    }

    /// Reads `n` bits into the low bits of a `u64`.
    pub fn read_bits(&mut self, n: u8) -> Result<u64, HistorianError> {
        debug_assert!(n <= 64);
        let mut v = 0u64;
        for _ in 0..n {
            v = (v << 1) | self.read_bit()? as u64;
        }
        Ok(v)
    }
}

/// Maps a finite `f64` to a `u64` that preserves numeric order: positive
/// floats get the sign bit set, negative floats are bit-flipped. For a
/// nondecreasing timestamp column, keys are nondecreasing, so key deltas
/// fit in a `u64` and delta-of-delta stays small.
fn total_order_key(t: f64) -> u64 {
    let b = t.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b | 0x8000_0000_0000_0000
    }
}

/// Inverse of [`total_order_key`].
fn from_total_order_key(k: u64) -> f64 {
    if k >> 63 == 1 {
        f64::from_bits(k & 0x7FFF_FFFF_FFFF_FFFF)
    } else {
        f64::from_bits(!k)
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Writes one delta-of-delta with the Gorilla bucket prefix codes, each
/// prefix and its payload in one push.
fn push_dod(w: &mut BitWriter, dod: i64) {
    let z = zigzag(dod);
    if dod == 0 {
        w.push_bit(false);
    } else if z < (1 << 7) {
        w.push_bits(0b10 << 7 | z, 9);
    } else if z < (1 << 9) {
        w.push_bits(0b110 << 9 | z, 12);
    } else if z < (1 << 12) {
        w.push_bits(0b1110 << 12 | z, 16);
    } else {
        w.push_bits(0b1111, 4);
        w.push_bits(z, 64);
    }
}

fn read_dod(r: &mut BitReader) -> Result<i64, HistorianError> {
    if !r.read_bit()? {
        return Ok(0);
    }
    if !r.read_bit()? {
        return Ok(unzigzag(r.read_bits(7)?));
    }
    if !r.read_bit()? {
        return Ok(unzigzag(r.read_bits(9)?));
    }
    if !r.read_bit()? {
        return Ok(unzigzag(r.read_bits(12)?));
    }
    Ok(unzigzag(r.read_bits(64)?))
}

/// Compresses parallel `(times, values)` columns into one self-describing
/// byte block: `u32` sample count, then the bit-packed streams (first
/// sample raw, then delta-of-delta keys interleaved with XOR'd values).
///
/// Panics (debug) when the columns disagree in length; the caller (the
/// engine's seal path) maintains that invariant.
pub fn compress(times: &[f64], values: &[f64]) -> Vec<u8> {
    debug_assert_eq!(times.len(), values.len());
    let n = times.len() as u32;
    let mut w = BitWriter::new();
    w.push_bits(n as u64, 32);
    if times.is_empty() {
        return w.into_bytes();
    }

    // First sample: both columns raw.
    let mut prev_key = total_order_key(times[0]);
    w.push_bits(prev_key, 64);
    let mut prev_bits = values[0].to_bits();
    w.push_bits(prev_bits, 64);
    let mut prev_delta: i64 = 0;
    // Previous value window; 65 marks "no window yet" so the first XOR
    // always writes an explicit window.
    let mut prev_leading: u32 = 65;
    let mut prev_trailing: u32 = 65;

    for i in 1..times.len() {
        // Timestamp: delta-of-delta over total-order keys.
        let key = total_order_key(times[i]);
        let delta = key.wrapping_sub(prev_key) as i64;
        push_dod(&mut w, delta.wrapping_sub(prev_delta));
        prev_key = key;
        prev_delta = delta;

        // Value: XOR against the previous value.
        let bits = values[i].to_bits();
        let xor = bits ^ prev_bits;
        prev_bits = bits;
        if xor == 0 {
            w.push_bit(false);
            continue;
        }
        let leading = xor.leading_zeros().min(31);
        let trailing = xor.trailing_zeros();
        if prev_leading <= leading && prev_trailing <= trailing {
            // Fits the previous window: `10`, then the payload.
            w.push_bits(0b10, 2);
            let len = 64 - prev_leading - prev_trailing;
            w.push_bits(xor >> prev_trailing, len as u8);
        } else {
            // New window: `11`, 5 bits leading, 6 bits (length − 1),
            // then the payload.
            let len = 64 - leading - trailing;
            w.push_bits(
                0b11 << 11 | u64::from(leading) << 6 | u64::from(len - 1),
                13,
            );
            w.push_bits(xor >> trailing, len as u8);
            prev_leading = leading;
            prev_trailing = trailing;
        }
    }
    w.into_bytes()
}

/// Decompresses a block produced by [`compress`]. Errors on truncation
/// or an impossible stream rather than panicking: sealed blocks travel
/// through the WAL and recovery path, so corrupt input must be a typed
/// failure.
pub fn decompress(bytes: &[u8]) -> Result<(Vec<f64>, Vec<f64>), HistorianError> {
    let mut r = BitReader::new(bytes);
    let n = r.read_bits(32)? as usize;
    let mut times = Vec::with_capacity(n);
    let mut values = Vec::with_capacity(n);
    if n == 0 {
        return Ok((times, values));
    }

    let mut prev_key = r.read_bits(64)?;
    times.push(from_total_order_key(prev_key));
    let mut prev_bits = r.read_bits(64)?;
    values.push(f64::from_bits(prev_bits));
    let mut prev_delta: i64 = 0;
    let mut prev_leading: u32 = 65;
    let mut prev_trailing: u32 = 65;

    for _ in 1..n {
        let dod = read_dod(&mut r)?;
        prev_delta = prev_delta.wrapping_add(dod);
        prev_key = prev_key.wrapping_add(prev_delta as u64);
        times.push(from_total_order_key(prev_key));

        if !r.read_bit()? {
            values.push(f64::from_bits(prev_bits));
            continue;
        }
        if !r.read_bit()? {
            if prev_leading > 64 {
                return Err(HistorianError::Corrupt(
                    "XOR window reuse before any window was defined".into(),
                ));
            }
            let len = 64 - prev_leading - prev_trailing;
            let payload = r.read_bits(len as u8)?;
            prev_bits ^= payload << prev_trailing;
        } else {
            let leading = r.read_bits(5)? as u32;
            let len = r.read_bits(6)? as u32 + 1;
            if leading + len > 64 {
                return Err(HistorianError::Corrupt("XOR window exceeds 64 bits".into()));
            }
            let trailing = 64 - leading - len;
            let payload = r.read_bits(len as u8)?;
            prev_bits ^= payload << trailing;
            prev_leading = leading;
            prev_trailing = trailing;
        }
        values.push(f64::from_bits(prev_bits));
    }
    Ok((times, values))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A bit-at-a-time writer: the reference the word writer's bytes
    /// must equal.
    #[derive(Default)]
    struct BitByBit {
        bytes: Vec<u8>,
        used: u8,
    }

    impl BitByBit {
        fn push_bit(&mut self, bit: bool) {
            if self.used == 0 {
                self.bytes.push(0);
            }
            if bit {
                let last = self.bytes.len() - 1;
                self.bytes[last] |= 1 << (7 - self.used);
            }
            self.used = (self.used + 1) % 8;
        }

        fn push_bits(&mut self, v: u64, n: u8) {
            for i in (0..n).rev() {
                self.push_bit((v >> i) & 1 == 1);
            }
        }

        fn bit_len(&self) -> usize {
            match self.used {
                0 => self.bytes.len() * 8,
                used => (self.bytes.len() - 1) * 8 + used as usize,
            }
        }
    }

    /// `compress` as written against [`BitByBit`]: every prefix, header
    /// field and payload pushed on its own.
    fn compress_bit_by_bit(times: &[f64], values: &[f64]) -> Vec<u8> {
        let mut w = BitByBit::default();
        w.push_bits(times.len() as u64, 32);
        if times.is_empty() {
            return w.bytes;
        }
        let mut prev_key = total_order_key(times[0]);
        w.push_bits(prev_key, 64);
        let mut prev_bits = values[0].to_bits();
        w.push_bits(prev_bits, 64);
        let mut prev_delta: i64 = 0;
        let (mut prev_leading, mut prev_trailing) = (65u32, 65u32);
        for i in 1..times.len() {
            let key = total_order_key(times[i]);
            let delta = key.wrapping_sub(prev_key) as i64;
            let dod = delta.wrapping_sub(prev_delta);
            let z = zigzag(dod);
            if dod == 0 {
                w.push_bit(false);
            } else if z < (1 << 7) {
                w.push_bits(0b10, 2);
                w.push_bits(z, 7);
            } else if z < (1 << 9) {
                w.push_bits(0b110, 3);
                w.push_bits(z, 9);
            } else if z < (1 << 12) {
                w.push_bits(0b1110, 4);
                w.push_bits(z, 12);
            } else {
                w.push_bits(0b1111, 4);
                w.push_bits(z, 64);
            }
            prev_key = key;
            prev_delta = delta;
            let bits = values[i].to_bits();
            let xor = bits ^ prev_bits;
            prev_bits = bits;
            if xor == 0 {
                w.push_bit(false);
                continue;
            }
            w.push_bit(true);
            let leading = xor.leading_zeros().min(31);
            let trailing = xor.trailing_zeros();
            if prev_leading <= leading && prev_trailing <= trailing {
                w.push_bit(false);
                let len = 64 - prev_leading - prev_trailing;
                w.push_bits(xor >> prev_trailing, len as u8);
            } else {
                w.push_bit(true);
                let len = 64 - leading - trailing;
                w.push_bits(leading as u64, 5);
                w.push_bits((len - 1) as u64, 6);
                w.push_bits(xor >> trailing, len as u8);
                prev_leading = leading;
                prev_trailing = trailing;
            }
        }
        w.bytes
    }

    /// A column shape from raw generator words: `mode` picks regular,
    /// jittered or ulp-stepped times and constant, quantized, special or
    /// raw-bit values.
    fn column(bits: &[u64], mode: u8) -> (Vec<f64>, Vec<f64>) {
        const SPECIAL: [f64; 6] = [0.0, -0.0, 5e-324, -2.2e-308, 1e300, -1e300];
        let mut t = 1000.0f64;
        let mut times = Vec::with_capacity(bits.len());
        let mut values = Vec::with_capacity(bits.len());
        for (i, &b) in bits.iter().enumerate() {
            times.push(t);
            t = match mode % 3 {
                0 => t + 1.0,
                1 => t + ((b >> 32) % 1000) as f64 / 10.0,
                _ => f64::from_bits(t.to_bits() + (b >> 48) % 5000),
            };
            values.push(match (mode / 3) % 4 {
                0 => 21.5,
                1 => 18.0 + (i / 8 + (b % 3) as usize) as f64 / 10.0,
                2 => SPECIAL[(b % 6) as usize],
                _ => f64::from_bits(b),
            });
        }
        (times, values)
    }

    #[test]
    fn word_writer_matches_bit_at_a_time_reference() {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..300 {
            let mut word = BitWriter::new();
            let mut reference = BitByBit::default();
            for _ in 0..(next() % 200) {
                // Widths 0 and 64 and every width between; values carry
                // junk above the width, which must not be written.
                let n = match next() % 4 {
                    0 => [0, 1, 63, 64][(next() % 4) as usize],
                    _ => (next() % 65) as u8,
                };
                let v = next();
                word.push_bits(v, n);
                reference.push_bits(v, n);
                assert_eq!(word.bit_len(), reference.bit_len());
            }
            assert_eq!(word.into_bytes(), reference.bytes);
        }
        let mut word = BitWriter::new();
        let mut reference = BitByBit::default();
        for bit in [true, false, true, true] {
            word.push_bit(bit);
            reference.push_bit(bit);
        }
        assert_eq!(word.into_bytes(), reference.bytes);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `compress` writes the reference's bytes for every column
        /// shape, and every cut of its block decodes to an error.
        #[test]
        fn compress_matches_bit_at_a_time_reference(
            bits in proptest::collection::vec(0u64..=u64::MAX, 0..120),
            mode in 0u8..12,
        ) {
            let (times, values) = column(&bits, mode);
            let block = compress(&times, &values);
            prop_assert_eq!(&block, &compress_bit_by_bit(&times, &values));
            for cut in 0..block.len() {
                prop_assert!(decompress(&block[..cut]).is_err(), "cut {} decoded", cut);
            }
        }
    }

    fn roundtrip(times: &[f64], values: &[f64]) {
        let block = compress(times, values);
        let (t, v) = decompress(&block).unwrap();
        assert_eq!(t.len(), times.len());
        for (a, b) in t.iter().zip(times) {
            assert_eq!(a.to_bits(), b.to_bits(), "timestamp mismatch");
        }
        for (a, b) in v.iter().zip(values) {
            assert_eq!(a.to_bits(), b.to_bits(), "value mismatch");
        }
    }

    #[test]
    fn empty_block() {
        roundtrip(&[], &[]);
    }

    #[test]
    fn single_sample() {
        roundtrip(&[60.0], &[23.1]);
    }

    #[test]
    fn regular_timestamps_and_smooth_values() {
        let times: Vec<f64> = (0..500).map(|i| i as f64 * 60.0).collect();
        let values: Vec<f64> = (0..500).map(|i| 22.0 + (i as f64 * 0.01).sin()).collect();
        roundtrip(&times, &values);
    }

    #[test]
    fn constant_run_compresses_to_about_a_bit_per_sample() {
        let times: Vec<f64> = (0..4096).map(|i| i as f64).collect();
        let values = vec![21.5; 4096];
        let block = compress(&times, &values);
        // 20 bytes of header samples + ~2 bits/sample stream.
        assert!(
            block.len() < 4096 / 2,
            "constant run took {} bytes",
            block.len()
        );
        roundtrip(&times, &values);
    }

    #[test]
    fn alternating_signs_roundtrip() {
        let times: Vec<f64> = (0..64).map(|i| i as f64 * 0.5).collect();
        let values: Vec<f64> = (0..64)
            .map(|i| if i % 2 == 0 { 1.25 } else { -1.25 })
            .collect();
        roundtrip(&times, &values);
    }

    #[test]
    fn negative_and_subnormal_values() {
        let times = [0.0, 1.0, 2.0, 3.0, 4.0];
        let values = [-0.0, f64::MIN_POSITIVE / 4.0, -1e-300, 1e300, 0.0];
        roundtrip(&times, &values);
    }

    #[test]
    fn irregular_timestamps_roundtrip() {
        let times = [0.0, 0.125, 59.99, 60.0, 1e6, 1e6 + 1e-9];
        let values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        roundtrip(&times, &values);
    }

    #[test]
    fn truncated_stream_is_an_error_not_a_panic() {
        let times: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let values: Vec<f64> = (0..10).map(|i| i as f64 * 1.1).collect();
        let block = compress(&times, &values);
        for cut in 0..block.len() {
            let _ = decompress(&block[..cut]); // must not panic
        }
        assert!(decompress(&block[..4]).is_err());
    }

    #[test]
    fn total_order_key_is_monotonic() {
        let samples = [-1e9, -1.0, -1e-300, -0.0, 0.0, 1e-300, 1.0, 60.0, 1e18];
        for w in samples.windows(2) {
            assert!(total_order_key(w[0]) <= total_order_key(w[1]));
            assert_eq!(from_total_order_key(total_order_key(w[0])), w[0]);
        }
    }
}
