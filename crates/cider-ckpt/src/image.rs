//! The byte-stable full-state image.
//!
//! A [`StateImage`] is the complete observable state of a simulated
//! device at one instant: an ordered list of named sections, each an
//! ordered list of `(key, value)` string records. Sections come from
//! the per-subsystem exporters (kernel tasks/threads/VFS/IPC,
//! scheduler bands, fault streams) and from the harness (workload
//! cursor and metrics, gfx counters). Record values are rendered by
//! the exporters from `BTreeMap`s and stable walks, so two captures of
//! identical devices are equal record-for-record.
//!
//! The image *is* its `CKPT_VERSION` 1 encoding. Exporters write their
//! records straight into those bytes through a [`SectionWriter`] (the
//! codec's section layout), and the image keeps them as they are:
//! equality, encoding and the digest are byte operations, decoding
//! checks the structure and UTF-8 and copies the bytes once, and only
//! [`StateImage::section`], [`StateImage::diff`] and `Debug` read the
//! records back out, on demand.

use std::fmt;

use cider_kernel::SectionWriter;

use crate::{fnv1a, ByteReader, ByteWriter, CkptError};

/// One named section of the image, read back out of its bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Section {
    /// Section name (`kernel/procs`, `sched`, `cider`, ...).
    pub name: String,
    /// Ordered `(key, value)` records.
    pub records: Vec<(String, String)>,
}

/// The full observable device state at one instant, held as its
/// encoding: a `u32` section count, then per section its name, a `u32`
/// record count and each record's key and value, every string
/// length-prefixed.
#[derive(Clone, PartialEq, Eq)]
pub struct StateImage {
    /// The encoding; valid by construction (written by a
    /// [`SectionWriter`] or checked by [`StateImage::decode_from`]).
    bytes: Vec<u8>,
}

impl Default for StateImage {
    fn default() -> StateImage {
        StateImage::new()
    }
}

impl From<SectionWriter> for StateImage {
    fn from(w: SectionWriter) -> StateImage {
        StateImage {
            bytes: w.into_bytes(),
        }
    }
}

impl StateImage {
    /// An empty image.
    pub fn new() -> StateImage {
        StateImage::from(SectionWriter::new())
    }

    /// Appends a section.
    pub fn push_section(
        &mut self,
        name: &str,
        records: Vec<(String, String)>,
    ) {
        let mut w = SectionWriter::resume(std::mem::take(&mut self.bytes));
        let mut section = w.section(name);
        for (k, v) in &records {
            section.record(k, v);
        }
        drop(section);
        self.bytes = w.into_bytes();
    }

    /// Reads a section out by name.
    pub fn section(&self, name: &str) -> Option<Section> {
        self.sections().find(|s| s.name == name)
    }

    /// Reads the sections out, in capture order.
    fn sections(&self) -> impl Iterator<Item = Section> + '_ {
        // Written by a `SectionWriter` or checked by `decode_from`.
        let valid = "a StateImage holds a valid encoding";
        let mut r = ByteReader::new(&self.bytes, ());
        let count = r.get_u32().expect(valid);
        (0..count).map(move |_| {
            let name = r.get_str().expect(valid);
            let n = r.get_u32().expect(valid);
            let records = (0..n)
                .map(|_| {
                    let k = r.get_str().expect(valid);
                    (k, r.get_str().expect(valid))
                })
                .collect();
            Section { name, records }
        })
    }

    /// The encoding.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.bytes.clone()
    }

    /// The length of the encoding in bytes.
    pub fn encoded_len(&self) -> usize {
        self.bytes.len()
    }

    /// Writes the encoding into an existing writer (used by the
    /// checkpoint frame).
    pub fn encode_into(&self, w: &mut ByteWriter) {
        w.put_raw(&self.bytes);
    }

    /// Decodes an image; [`CkptError::Malformed`] on truncation,
    /// malformed UTF-8, or a count the remaining bytes cannot hold. The
    /// bytes are checked in place and copied once.
    pub fn decode_from(
        r: &mut ByteReader<'_, CkptError>,
    ) -> Result<StateImage, CkptError> {
        let mut start = r.clone();
        for _ in 0..r.get_u32()? {
            r.get_str_ref()?;
            for _ in 0..r.get_u32()? {
                r.get_str_ref()?;
                r.get_str_ref()?;
            }
        }
        let bytes = start.get_raw(r.pos() - start.pos())?.to_vec();
        Ok(StateImage { bytes })
    }

    /// Decodes from a standalone byte buffer; `None` unless the buffer
    /// is exactly one image.
    pub fn from_bytes(bytes: &[u8]) -> Option<StateImage> {
        let mut r = ByteReader::new(bytes, CkptError::Malformed);
        let img = StateImage::decode_from(&mut r).ok()?;
        (r.remaining() == 0).then_some(img)
    }

    /// FNV-1a digest of the encoded image: the O(1)-comparable
    /// identity bisection probes use.
    pub fn digest(&self) -> u64 {
        fnv1a(&self.bytes)
    }

    /// Section-by-section structural diff against another image.
    /// Empty result iff the images are equal.
    pub fn diff(&self, other: &StateImage) -> Vec<SectionDelta> {
        let left: Vec<Section> = self.sections().collect();
        let right: Vec<Section> = other.sections().collect();
        let mut names: Vec<&str> =
            left.iter().map(|s| s.name.as_str()).collect();
        for s in &right {
            if !names.contains(&s.name.as_str()) {
                names.push(&s.name);
            }
        }
        fn records<'s>(
            sections: &'s [Section],
            name: &str,
        ) -> &'s [(String, String)] {
            let found = sections.iter().find(|s| s.name == name);
            found.map_or(&[], |s| &s.records)
        }
        let mut deltas = Vec::new();
        for name in names {
            let ra = records(&left, name);
            let rb = records(&right, name);
            let mut delta = SectionDelta {
                section: name.to_string(),
                only_left: Vec::new(),
                only_right: Vec::new(),
                changed: Vec::new(),
            };
            for (k, v) in ra {
                match rb.iter().find(|(rk, _)| rk == k) {
                    None => delta.only_left.push((k.clone(), v.clone())),
                    Some((_, rv)) if rv != v => {
                        delta.changed.push((k.clone(), v.clone(), rv.clone()))
                    }
                    Some(_) => {}
                }
            }
            for (k, v) in rb {
                if !ra.iter().any(|(lk, _)| lk == k) {
                    delta.only_right.push((k.clone(), v.clone()));
                }
            }
            if !delta.is_empty() {
                deltas.push(delta);
            }
        }
        deltas
    }
}

impl fmt::Debug for StateImage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sections: Vec<Section> = self.sections().collect();
        f.debug_struct("StateImage")
            .field("sections", &sections)
            .finish()
    }
}
/// The difference of one section between two images.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SectionDelta {
    /// Which section disagreed.
    pub section: String,
    /// Records present only in the left image.
    pub only_left: Vec<(String, String)>,
    /// Records present only in the right image.
    pub only_right: Vec<(String, String)>,
    /// Records present in both with different values:
    /// `(key, left, right)`.
    pub changed: Vec<(String, String, String)>,
}

impl SectionDelta {
    /// Whether the delta carries no differences.
    pub fn is_empty(&self) -> bool {
        self.only_left.is_empty()
            && self.only_right.is_empty()
            && self.changed.is_empty()
    }

    /// Differing records in this section.
    pub fn len(&self) -> usize {
        self.only_left.len() + self.only_right.len() + self.changed.len()
    }
}

impl fmt::Display for SectionDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "[{}]", self.section)?;
        for (k, v) in &self.only_left {
            writeln!(f, "  - {k} = {v}")?;
        }
        for (k, v) in &self.only_right {
            writeln!(f, "  + {k} = {v}")?;
        }
        for (k, l, r) in &self.changed {
            writeln!(f, "  ~ {k}: {l} -> {r}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn procs(second: &str) -> Vec<(String, String)> {
        vec![
            ("pid:1".into(), "running cwd=/".into()),
            ("pid:2".into(), second.into()),
        ]
    }

    fn sample() -> StateImage {
        let mut img = StateImage::new();
        img.push_section("clock", vec![("now_ns".into(), "1500".into())]);
        img.push_section("kernel/procs", procs("zombie(0)"));
        img
    }

    #[test]
    fn encode_decode_round_trip() {
        let img = sample();
        let bytes = img.to_bytes();
        assert_eq!(StateImage::from_bytes(&bytes), Some(img.clone()));
        // Byte-stable: two encodings are identical.
        assert_eq!(bytes, img.to_bytes());
        let procs = img.section("kernel/procs").unwrap();
        assert_eq!(procs.records, super::tests::procs("zombie(0)"));
        assert!(img.section("gfx").is_none());
    }

    #[test]
    fn bytes_are_the_plain_layout() {
        let mut w = ByteWriter::new();
        w.put_u32(2);
        w.put_str("clock");
        w.put_u32(1);
        w.put_str("now_ns");
        w.put_str("1500");
        w.put_str("kernel/procs");
        w.put_u32(2);
        for (k, v) in procs("zombie(0)") {
            w.put_str(&k);
            w.put_str(&v);
        }
        assert_eq!(sample().to_bytes(), w.into_bytes());
        assert_eq!(StateImage::new().to_bytes(), [0; 4]);
    }

    #[test]
    fn digest_distinguishes_and_matches() {
        let a = sample();
        let b = sample();
        assert_eq!(a.digest(), b.digest());
        let mut c = StateImage::new();
        c.push_section("clock", vec![("now_ns".into(), "1501".into())]);
        c.push_section("kernel/procs", procs("zombie(0)"));
        assert_ne!(a.digest(), c.digest());
        assert_ne!(a, c);
    }

    #[test]
    fn diff_reports_changed_missing_and_extra() {
        let a = sample();
        let mut b = StateImage::new();
        b.push_section("clock", vec![("now_ns".into(), "1500".into())]);
        b.push_section(
            "kernel/procs",
            vec![("pid:1".into(), "running cwd=/tmp".into())],
        );
        b.push_section("gfx", vec![("retired".into(), "3".into())]);

        let deltas = a.diff(&b);
        assert_eq!(deltas.len(), 2);
        let procs = &deltas[0];
        assert_eq!(procs.section, "kernel/procs");
        assert_eq!(procs.changed.len(), 1);
        assert_eq!(procs.only_left.len(), 1);
        let gfx = &deltas[1];
        assert_eq!(gfx.section, "gfx");
        assert_eq!(gfx.only_right.len(), 1);

        assert!(a.diff(&a.clone()).is_empty());
    }

    #[test]
    fn debug_reads_the_records() {
        let text = format!("{:?}", sample());
        assert!(text.starts_with("StateImage { sections: [Section { name:"));
        assert!(text.contains(r#"("pid:2", "zombie(0)")"#), "{text}");
    }

    #[test]
    fn truncated_bytes_do_not_decode() {
        let bytes = sample().to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                StateImage::from_bytes(&bytes[..cut]).is_none(),
                "cut {cut}"
            );
        }
    }

    #[test]
    fn malformed_utf8_and_counts_do_not_decode() {
        let bytes = sample().to_bytes();
        // The first byte of "now_ns" (after the section count, the
        // name "clock" and the record count).
        let mut bad = bytes.clone();
        bad[4 + 4 + 5 + 4 + 4] = 0xFF;
        assert_eq!(StateImage::from_bytes(&bad), None);
        // A record count the remaining bytes cannot hold.
        let mut bad = bytes;
        bad[4 + 4 + 5] = 0xFF;
        assert_eq!(StateImage::from_bytes(&bad), None);
    }
}
