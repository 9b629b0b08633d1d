//! The checkpoint frame: versioned header + image + checksum.
//!
//! Layout (all little-endian, written with [`crate::ByteWriter`]):
//!
//! ```text
//! "CKPT"            4-byte magic
//! version           u32 (CKPT_VERSION)
//! device_id         u32
//! seed              u64
//! config            str   (configuration slug)
//! workload          str   (workload slug)
//! cursor            u64   (workload units completed at capture)
//! virtual_ns        u64   (virtual clock at capture)
//! image             StateImage encoding
//! checksum          u64   (FNV-1a over every preceding byte)
//! ```
//!
//! The checksum is the corruption oracle: truncation, bit flips, and
//! torn writes all fail closed with a typed [`CkptError`], which is
//! what lets a restore path fall back to an older checkpoint instead
//! of panicking (`FaultSite::CheckpointCorrupt` exercises exactly
//! this).

use std::fmt;

use crate::image::StateImage;
use crate::{fnv1a, ByteReader, ByteWriter};

/// Frame magic.
pub const CKPT_MAGIC: &[u8; 4] = b"CKPT";
/// Current format version. Bump on any layout change; decoding an
/// unknown version is an error, never a guess.
pub const CKPT_VERSION: u32 = 1;

/// Identity and position of a checkpointed device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CkptHeader {
    /// Fleet position of the device.
    pub device_id: u32,
    /// The seed the device ran under.
    pub seed: u64,
    /// Configuration slug (`cider_ios`, ...).
    pub config: String,
    /// Workload slug (`lmbench_mix`, ...).
    pub workload: String,
    /// Workload units completed when the image was captured. Restore
    /// replays exactly `0..cursor` units.
    pub cursor: u64,
    /// Virtual clock at capture.
    pub virtual_ns: u64,
}

/// A decoded checkpoint: header plus the full state image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// Device identity and capture position.
    pub header: CkptHeader,
    /// The byte-stable full-state image at `header.cursor`.
    pub image: StateImage,
}

/// Everything that can go wrong decoding a checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CkptError {
    /// Fewer bytes than the fixed frame needs.
    Truncated,
    /// Leading magic is not `CKPT`.
    BadMagic,
    /// Version field is not one this build understands.
    UnsupportedVersion(u32),
    /// Trailing checksum disagrees with the frame contents.
    ChecksumMismatch {
        /// Checksum recomputed over the received bytes.
        computed: u64,
        /// Checksum stored in the frame.
        stored: u64,
    },
    /// Frame bytes checksum correctly but do not parse (an encoder bug
    /// rather than storage corruption).
    Malformed,
    /// A restored replay did not reproduce the checkpointed image: the
    /// checkpoint is internally consistent but does not describe this
    /// device's deterministic trajectory.
    ReplayDiverged {
        /// Number of differing sections.
        sections: usize,
    },
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::Truncated => write!(f, "checkpoint truncated"),
            CkptError::BadMagic => write!(f, "bad checkpoint magic"),
            CkptError::UnsupportedVersion(v) => {
                write!(f, "unsupported checkpoint version {v}")
            }
            CkptError::ChecksumMismatch { computed, stored } => write!(
                f,
                "checkpoint checksum mismatch \
                 (computed {computed:016x}, stored {stored:016x})"
            ),
            CkptError::Malformed => write!(f, "malformed checkpoint body"),
            CkptError::ReplayDiverged { sections } => write!(
                f,
                "restored replay diverged from checkpoint image \
                 in {sections} section(s)"
            ),
        }
    }
}

impl Checkpoint {
    /// Builds a checkpoint value.
    pub fn new(header: CkptHeader, image: StateImage) -> Checkpoint {
        Checkpoint { header, image }
    }

    /// Encodes the full checksummed frame.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_raw(CKPT_MAGIC);
        w.put_u32(CKPT_VERSION);
        w.put_u32(self.header.device_id);
        w.put_u64(self.header.seed);
        w.put_str(&self.header.config);
        w.put_str(&self.header.workload);
        w.put_u64(self.header.cursor);
        w.put_u64(self.header.virtual_ns);
        self.image.encode_into(&mut w);
        let sum = fnv1a(w.as_bytes());
        w.put_u64(sum);
        w.into_bytes()
    }

    /// Decodes and verifies a frame. Every failure mode is a typed
    /// error; this function cannot panic on any input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Checkpoint, CkptError> {
        // Frame floor: magic + version + device_id + seed + two empty
        // strings + cursor + virtual_ns + empty image + checksum.
        if bytes.len() < 4 + 4 + 4 + 8 + 4 + 4 + 8 + 8 + 4 + 8 {
            return Err(CkptError::Truncated);
        }
        let (body, sum_bytes) = bytes.split_at(bytes.len() - 8);
        let stored =
            ByteReader::new(sum_bytes, CkptError::Truncated).get_u64()?;
        let computed = fnv1a(body);
        // The floor above covers magic and version; past them, bytes
        // that do not parse are an encoder bug, not truncation.
        let mut r = ByteReader::new(body, CkptError::Malformed);
        // Magic and version are diagnosed before the checksum so a
        // foreign or future file reports *what* it is, not just that
        // its bytes disagree.
        if r.get_raw(4)? != CKPT_MAGIC {
            return Err(CkptError::BadMagic);
        }
        let version = r.get_u32()?;
        if version != CKPT_VERSION {
            return Err(CkptError::UnsupportedVersion(version));
        }
        if computed != stored {
            return Err(CkptError::ChecksumMismatch { computed, stored });
        }
        let header = CkptHeader {
            device_id: r.get_u32()?,
            seed: r.get_u64()?,
            config: r.get_str()?,
            workload: r.get_str()?,
            cursor: r.get_u64()?,
            virtual_ns: r.get_u64()?,
        };
        let image = StateImage::decode_from(&mut r)?;
        if r.remaining() != 0 {
            return Err(CkptError::Malformed);
        }
        Ok(Checkpoint { header, image })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        let mut image = StateImage::new();
        image.push_section("clock", vec![("now_ns".into(), "812".into())]);
        Checkpoint::new(
            CkptHeader {
                device_id: 3,
                seed: 0xFEED,
                config: "cider_ios".into(),
                workload: "lmbench_mix".into(),
                cursor: 17,
                virtual_ns: 812,
            },
            image,
        )
    }

    #[test]
    fn round_trip_is_exact_and_byte_stable() {
        let c = sample();
        let bytes = c.to_bytes();
        assert_eq!(bytes, c.to_bytes());
        assert_eq!(Checkpoint::from_bytes(&bytes), Ok(c));
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let bytes = sample().to_bytes();
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut bad = bytes.clone();
                bad[i] ^= 1 << bit;
                assert!(
                    Checkpoint::from_bytes(&bad).is_err(),
                    "flip byte {i} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn truncation_is_detected_at_every_length() {
        let bytes = sample().to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                Checkpoint::from_bytes(&bytes[..cut]).is_err(),
                "cut {cut}"
            );
        }
    }

    #[test]
    fn bad_magic_and_version_are_typed() {
        let mut bytes = sample().to_bytes();
        bytes[0] = b'X';
        assert_eq!(Checkpoint::from_bytes(&bytes), Err(CkptError::BadMagic));

        let mut bytes = sample().to_bytes();
        bytes[4] = 0xEE;
        assert!(matches!(
            Checkpoint::from_bytes(&bytes),
            Err(CkptError::UnsupportedVersion(_))
        ));
    }
}
