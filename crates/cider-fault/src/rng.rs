//! The deterministic PRNG behind every fault draw, and the one FNV-1a
//! hash behind every checksum and fingerprint in the stack.
//!
//! splitmix64 (Steele/Lea/Flood) is the usual seeding primitive for
//! simulation testing: tiny, full-period over 2^64, and stateless apart
//! from one counter word — which makes fault streams trivially
//! reproducible and independent per site.
//!
//! FNV-1a (64-bit) derives per-site seeds here, and is baked into the
//! bytes of the conformance corpus, checkpoint frames, and fleet
//! fingerprints elsewhere: unlike `DefaultHasher` it is stable across
//! platforms and rust versions, so its byte format is pinned by the
//! published reference vectors in this module's tests.

use std::fmt;
use std::hash::Hasher;

/// Advances `state` by the splitmix64 increment and returns the next
/// output word.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A self-contained splitmix64 stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a stream from a seed.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// Next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        splitmix64(&mut self.state)
    }

    /// A draw in `[0, bound)`. `bound` must be non-zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    /// The raw stream position. Together with [`SplitMix64::from_state`]
    /// this makes the stream checkpointable: a restored stream resumes
    /// exactly where the captured one stood.
    pub fn state(&self) -> u64 {
        self.state
    }

    /// Reconstructs a stream at an exact position previously read with
    /// [`SplitMix64::state`].
    pub fn from_state(state: u64) -> SplitMix64 {
        SplitMix64 { state }
    }
}

/// FNV-1a over a byte string.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.0
}

/// Streaming FNV-1a: writing chunks one after another hashes exactly
/// like [`fnv1a`] over their concatenation, so a trace ring hashes in
/// place, one event's field bytes at a time through [`Hasher`], and
/// `Debug` output as it is formatted through `fmt::Write`, without a
/// copy. The field is the running digest.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(pub u64);

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a::new()
    }
}

impl Fnv1a {
    /// The offset basis: the digest of no bytes.
    #[inline]
    pub fn new() -> Fnv1a {
        Fnv1a(0xCBF2_9CE4_8422_2325)
    }

    /// Folds `bytes` into the digest.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Folds the UTF-8 bytes of `s`.
    #[inline]
    pub fn write_str(&mut self, s: &str) {
        self.write(s.as_bytes());
    }

    /// Folds the little-endian bytes of `v`.
    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Folds the bytes of `format!("{v:?}")`, streamed as `Debug`
    /// formats them instead of collected into a string first.
    pub fn write_debug(&mut self, v: &dyn fmt::Debug) {
        fmt::Write::write_fmt(self, format_args!("{v:?}"))
            .expect("hashing cannot fail");
    }
}

/// Every integer method folds little-endian bytes, and `usize` and
/// `isize` fold as 64-bit values: std's defaults use the platform's
/// byte order and width, and a digest must not depend on either.
impl Hasher for Fnv1a {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        Fnv1a::write(self, bytes);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.write(&v.to_le_bytes());
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.write(&v.to_le_bytes());
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    #[inline]
    fn write_u128(&mut self, v: u128) {
        self.write(&v.to_le_bytes());
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.write(&(v as u64).to_le_bytes());
    }

    #[inline]
    fn write_isize(&mut self, v: isize) {
        self.write(&(v as i64).to_le_bytes());
    }
}

impl fmt::Write for Fnv1a {
    #[inline]
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.write(s.as_bytes());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn below_respects_bound() {
        let mut r = SplitMix64::new(7);
        for _ in 0..1000 {
            assert!(r.below(1000) < 1000);
        }
    }

    #[test]
    fn fnv1a_byte_format_is_pinned() {
        // The published reference vectors.
        assert_eq!(fnv1a(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xAF63_DC4C_8601_EC8C);
        // Site names seed independent fault streams.
        assert_ne!(fnv1a(b"vfs_read"), fnv1a(b"vfs_write"));
        // Split chunks hash as their concatenation: the ring-buffer
        // digests and the streamed fleet fingerprint rely on it.
        let whole = b"ring buffers wrap";
        for cut in 0..=whole.len() {
            let (a, b) = whole.split_at(cut);
            let mut h = Fnv1a::new();
            h.write(a);
            h.write(b);
            assert_eq!(h.0, fnv1a(whole));
        }
    }

    #[test]
    fn hasher_integers_fold_little_endian_and_64_bit() {
        let digest = |f: fn(&mut Fnv1a)| {
            let mut h = Fnv1a::new();
            f(&mut h);
            Hasher::finish(&h)
        };
        let u64_le = [8, 7, 6, 5, 4, 3, 2, 1];
        assert_eq!(digest(|h| h.write_u8(0xa1)), fnv1a(&[0xa1]));
        assert_eq!(digest(|h| Hasher::write_u16(h, 0x0102)), fnv1a(&[2, 1]));
        assert_eq!(
            digest(|h| Hasher::write_u32(h, 0x0102_0304)),
            fnv1a(&[4, 3, 2, 1])
        );
        assert_eq!(
            digest(|h| Hasher::write_i32(h, -2)),
            fnv1a(&[0xfe, 0xff, 0xff, 0xff])
        );
        assert_eq!(
            digest(|h| Hasher::write_u64(h, 0x0102_0304_0506_0708)),
            fnv1a(&u64_le)
        );
        assert_eq!(
            digest(|h| Hasher::write_i64(h, 0x0102_0304_0506_0708)),
            fnv1a(&u64_le)
        );
        assert_eq!(
            digest(|h| Hasher::write_u128(h, 0x0102_0304_0506_0708)),
            fnv1a(&[u64_le, [0; 8]].concat())
        );
        assert_eq!(
            digest(|h| h.write_usize(0x0102_0304)),
            fnv1a(&[4, 3, 2, 1, 0, 0, 0, 0])
        );
        assert_eq!(digest(|h| h.write_isize(-1)), fnv1a(&[0xff; 8]));
    }
}
