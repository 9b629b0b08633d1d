//! Crash-consistent device checkpoint/restore.
//!
//! The Transkernel/ECMO line of work re-hosts kernel state across
//! execution domains by serializing and transplanting it; our
//! deterministic simulated kernels can do the same between fleet
//! shards and across crashes. This crate is the data layer that makes
//! a whole simulated device a *value*:
//!
//! * The bytes themselves go through [`ByteWriter`] and [`ByteReader`],
//!   the little-endian, length-prefixed codec in `cider_abi::codec`
//!   that every binary format of the reproduction shares, reached
//!   through the kernel. No serde, no external dependencies: the
//!   encoding is part of this crate's stable surface.
//! * [`image`] — [`StateImage`]: the full observable device state as
//!   ordered named sections of `(key, value)` records, byte-stable by
//!   construction, diffable section-by-section ([`SectionDelta`]).
//! * [`checkpoint`] — [`Checkpoint`]: a versioned header (device
//!   identity, workload cursor, virtual timestamp) plus a
//!   [`StateImage`], framed with a magic, a format version, and a
//!   trailing FNV-1a checksum. Truncation, bit flips, and version
//!   skew all decode to typed [`CkptError`]s instead of panics.
//! * [`store`] — [`CheckpointStore`]: the in-memory periodic-snapshot
//!   ring a self-healing fleet driver keeps per device, with
//!   exponentially growing spacing and newest-first restore
//!   candidates.
//! * [`capture`] — [`capture_kernel`]: assembles the kernel-owned
//!   sections of an image from a live [`cider_kernel::Kernel`]
//!   (tasks, threads, VFS, pipes/sockets, scheduler, fault streams,
//!   virtual clock, counters).
//!
//! # Restore model
//!
//! Workload programs are closure-resident (`ProgramBehavior` holds
//! host closures), so mid-flight state *transplant* is impossible by
//! design. Restore is therefore **replay-verified**: a checkpoint
//! carries the complete byte-stable image of the device at a workload
//! cursor; restoring boots a fresh device from its spec, replays units
//! `0..cursor` deterministically, and verifies the re-captured image
//! byte-for-byte against the checkpointed one. The image is the
//! authority — any mismatch means corruption or nondeterminism and
//! the checkpoint is rejected, never silently trusted.

#![warn(missing_docs)]

pub mod capture;
pub mod checkpoint;
pub mod image;
pub mod store;

pub use capture::capture_kernel;
pub use checkpoint::{Checkpoint, CkptError, CkptHeader, CKPT_VERSION};
pub use image::{SectionDelta, StateImage};
pub use store::{CheckpointStore, SpacingPolicy};

/// The byte codec checkpoint frames and images are written with. Its
/// one implementation lives in `cider-abi`, reached through the kernel.
pub use cider_kernel::{ByteReader, ByteWriter};

/// FNV-1a over a byte slice: the checksum and digest primitive of the
/// checkpoint format. Baked into on-disk bytes, so it is part of this
/// crate's stable surface; the one implementation lives in
/// `cider-fault`, reached through the kernel.
pub use cider_kernel::fnv1a;
