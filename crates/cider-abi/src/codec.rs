//! The one byte codec every binary format in the reproduction reads and
//! writes through: Mach messages and ring buffers, Mach-O and ELF
//! images, IPA packages and dex bytecode, both input event formats, the
//! `stat64` layouts, and checkpoint frames.
//!
//! Everything is little-endian; lengths are `u32` prefixes; there is no
//! padding, no alignment and no variable-width integer — the formats
//! favour auditability over compactness. Format rules (size limits,
//! tags, magics) stay with each format. A [`ByteReader`] carries the
//! error its format reports for a read past the end, so every field
//! read is a single `?`. A decoder reserves room for a count-prefixed
//! list through [`ByteReader::capacity_for`], never beyond what its
//! input could hold.
//!
//! [`SectionWriter`] writes the one layout built on top: named sections
//! of `(key, value)` string records, as checkpoint images hold them.
//! Each record is formatted straight into the bytes and each count is
//! patched in place, so an exporter builds no intermediate strings.

use std::fmt;

/// Appends primitive values to a byte buffer.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> ByteWriter {
        ByteWriter::default()
    }

    /// An empty writer with room for `n` bytes.
    pub fn with_capacity(n: usize) -> ByteWriter {
        ByteWriter {
            buf: Vec::with_capacity(n),
        }
    }

    /// Finishes and returns the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// The bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Appends raw bytes with no length prefix (magics, fixed arrays).
    pub fn put_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u16`, little-endian.
    pub fn put_u16(&mut self, v: u16) {
        self.put_raw(&v.to_le_bytes());
    }

    /// Appends a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.put_raw(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.put_raw(&v.to_le_bytes());
    }

    /// Appends a `u32` length prefix followed by the bytes.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_u32(bytes.len() as u32);
        self.put_raw(bytes);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_bytes(s.as_bytes());
    }

    /// Appends the text `v` displays as a length-prefixed string,
    /// formatted in place: the same bytes as `put_str(&v.to_string())`.
    pub fn put_display(&mut self, v: impl fmt::Display) {
        let at = self.buf.len();
        self.put_u32(0);
        // Formatting into a `Vec` fails only if `v`'s own `fmt` does.
        fmt::write(&mut Text(&mut self.buf), format_args!("{v}"))
            .expect("Display impls do not fail");
        self.patch_u32(at, (self.buf.len() - at - 4) as u32);
    }

    /// Overwrites the `u32` written at byte `at`.
    fn patch_u32(&mut self, at: usize, v: u32) {
        self.buf[at..at + 4].copy_from_slice(&v.to_le_bytes());
    }
}

/// Formatted text appended to a byte buffer.
struct Text<'a>(&'a mut Vec<u8>);

impl fmt::Write for Text<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0.extend_from_slice(s.as_bytes());
        Ok(())
    }
}

/// Writes named sections of `(key, value)` string records: a `u32`
/// section count, then per section its name, a `u32` record count and
/// each record's key and value, every string length-prefixed.
///
/// # Example
///
/// ```
/// use cider_abi::codec::SectionWriter;
///
/// let mut w = SectionWriter::new();
/// w.section("clock").record("now_ns", 1500);
/// let mut procs = w.section("procs");
/// procs.record(format_args!("pid:{:06}", 1), "running");
/// procs.record(format_args!("pid:{:06}", 2), format_args!("zombie({})", 0));
/// drop(procs);
/// assert_eq!(&w.into_bytes()[..4], &2u32.to_le_bytes());
/// ```
#[derive(Debug)]
pub struct SectionWriter {
    w: ByteWriter,
}

impl Default for SectionWriter {
    fn default() -> Self {
        SectionWriter::new()
    }
}

impl SectionWriter {
    /// A writer holding no section.
    pub fn new() -> SectionWriter {
        SectionWriter::resume(vec![0; 4])
    }

    /// A writer that appends sections to `bytes`, which must be what
    /// [`SectionWriter::into_bytes`] returned.
    pub fn resume(bytes: Vec<u8>) -> SectionWriter {
        SectionWriter {
            w: ByteWriter { buf: bytes },
        }
    }

    /// Opens section `name` after the last one; it closes, with its
    /// record count written, when the returned writer drops.
    pub fn section(&mut self, name: &str) -> RecordWriter<'_> {
        let count = self.w.buf[..4].try_into().map(u32::from_le_bytes);
        self.w
            .patch_u32(0, count.expect("a count leads the bytes") + 1);
        self.w.put_str(name);
        let count_at = self.w.buf.len();
        self.w.put_u32(0);
        RecordWriter {
            w: &mut self.w,
            count_at,
            records: 0,
        }
    }

    /// The encoded sections.
    pub fn into_bytes(self) -> Vec<u8> {
        self.w.into_bytes()
    }
}

/// The open section of a [`SectionWriter`].
#[derive(Debug)]
pub struct RecordWriter<'a> {
    w: &'a mut ByteWriter,
    count_at: usize,
    records: u32,
}

impl RecordWriter<'_> {
    /// Appends one record; key and value are formatted in place.
    pub fn record(
        &mut self,
        key: impl fmt::Display,
        value: impl fmt::Display,
    ) {
        self.w.put_display(key);
        self.w.put_display(value);
        self.records += 1;
    }
}

impl Drop for RecordWriter<'_> {
    fn drop(&mut self) {
        self.w.patch_u32(self.count_at, self.records);
    }
}

/// Reads primitive values back out of a byte slice, tracking the
/// cursor. A read past the end, or a string that is not UTF-8, returns
/// the error `E` the reader was built with.
#[derive(Debug, Clone)]
pub struct ByteReader<'a, E> {
    buf: &'a [u8],
    pos: usize,
    err: E,
}

impl<'a, E: Copy> ByteReader<'a, E> {
    /// A reader over `buf`, positioned at the start, that fails with
    /// `err`.
    pub fn new(buf: &'a [u8], err: E) -> ByteReader<'a, E> {
        ByteReader { buf, pos: 0, err }
    }

    /// Current cursor position.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The capacity to reserve for `count` items of at least `min_len`
    /// bytes each: no more than the remaining bytes could hold, so a
    /// count prefix that lies cannot make a decoder allocate beyond
    /// what its input could fill.
    pub fn capacity_for(&self, count: usize, min_len: usize) -> usize {
        count.min(self.remaining() / min_len)
    }

    /// Reads `n` raw bytes.
    pub fn get_raw(&mut self, n: usize) -> Result<&'a [u8], E> {
        match self.pos.checked_add(n) {
            Some(end) if end <= self.buf.len() => {
                let out = &self.buf[self.pos..end];
                self.pos = end;
                Ok(out)
            }
            _ => Err(self.err),
        }
    }

    /// Reads `N` raw bytes into an array.
    pub fn get_array<const N: usize>(&mut self) -> Result<[u8; N], E> {
        let mut out = [0; N];
        out.copy_from_slice(self.get_raw(N)?);
        Ok(out)
    }

    /// Reads a byte.
    pub fn get_u8(&mut self) -> Result<u8, E> {
        Ok(self.get_raw(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn get_u16(&mut self) -> Result<u16, E> {
        self.get_array().map(u16::from_le_bytes)
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, E> {
        self.get_array().map(u32::from_le_bytes)
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, E> {
        self.get_array().map(u64::from_le_bytes)
    }

    /// Reads a `u32`-length-prefixed byte string.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], E> {
        let n = self.get_u32()? as usize;
        self.get_raw(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, E> {
        self.get_str_ref().map(str::to_owned)
    }

    /// Reads a length-prefixed UTF-8 string in place.
    pub fn get_str_ref(&mut self) -> Result<&'a str, E> {
        let raw = self.get_bytes()?;
        std::str::from_utf8(raw).map_err(|_| self.err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_primitives() {
        let mut w = ByteWriter::new();
        w.put_raw(b"CK");
        w.put_u8(0xAB);
        w.put_u16(0xBEEF);
        w.put_u32(7);
        w.put_u64(u64::MAX);
        w.put_str("héllo");
        w.put_bytes(&[1, 2, 3]);
        let bytes = w.into_bytes();

        let mut r = ByteReader::new(&bytes, ());
        assert_eq!(r.get_raw(2), Ok(&b"CK"[..]));
        assert_eq!(r.get_u8(), Ok(0xAB));
        assert_eq!(r.get_u16(), Ok(0xBEEF));
        assert_eq!(r.get_u32(), Ok(7));
        assert_eq!(r.get_u64(), Ok(u64::MAX));
        assert_eq!(r.get_str().as_deref(), Ok("héllo"));
        assert_eq!(r.get_bytes(), Ok(&[1u8, 2, 3][..]));
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn capacity_is_bounded_by_the_remaining_bytes() {
        let r = ByteReader::new(&[0; 10], ());
        assert_eq!(r.capacity_for(3, 2), 3);
        assert_eq!(r.capacity_for(10_000_000, 2), 5);
        assert_eq!(r.capacity_for(10_000_000, 13), 0);
    }

    #[test]
    fn truncation_reads_the_readers_error_not_panic() {
        let mut w = ByteWriter::new();
        w.put_str("long enough payload");
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = ByteReader::new(&bytes[..cut], cut);
            assert_eq!(r.get_str(), Err(cut), "cut at {cut}");
        }
        let mut r = ByteReader::new(&[0xFF, 0xFF, 0xFF, 0xFF], "short");
        assert_eq!(r.get_bytes(), Err("short"));
        assert_eq!(r.get_array::<5>(), Err("short"));
        let mut r = ByteReader::new(&[1, 0, 0, 0, 0xFF], "utf8");
        assert_eq!(r.get_str(), Err("utf8"));
    }

    #[test]
    fn sections_match_the_plain_encoding() {
        let mut w = SectionWriter::new();
        w.section("clock").record("now_ns", 1500u64);
        w.section("empty");
        let mut procs = w.section("procs");
        procs.record(format_args!("pid:{:06}", 1), "running cwd=/");
        procs.record("pid:000002", format_args!("zombie({})", 0));
        drop(procs);

        let mut want = ByteWriter::new();
        want.put_u32(3);
        for (name, records) in [
            ("clock", &[("now_ns", "1500")][..]),
            ("empty", &[]),
            (
                "procs",
                &[
                    ("pid:000001", "running cwd=/"),
                    ("pid:000002", "zombie(0)"),
                ],
            ),
        ] {
            want.put_str(name);
            want.put_u32(records.len() as u32);
            for (k, v) in records {
                want.put_str(k);
                want.put_str(v);
            }
        }
        assert_eq!(w.into_bytes(), want.into_bytes());
        assert_eq!(SectionWriter::new().into_bytes(), [0; 4]);
    }

    #[test]
    fn encoding_is_byte_stable() {
        let encode = || {
            let mut w = ByteWriter::with_capacity(16);
            w.put_u64(42);
            w.put_str("stable");
            w.into_bytes()
        };
        assert_eq!(encode(), encode());
        assert_eq!(encode()[..12], [42, 0, 0, 0, 0, 0, 0, 0, 6, 0, 0, 0]);
    }
}
