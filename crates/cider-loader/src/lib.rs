//! Binary formats and loaders for the Cider reproduction.
//!
//! iOS binaries ship in Mach-O, Android binaries in ELF; Cider's kernel
//! must load both. This crate provides:
//!
//! * [`macho`] — a simulated Mach-O container (magic, CPU type, load
//!   commands: segments, dylib dependencies, `LC_MAIN`, encryption info)
//!   with builders, serialisation, and one validating reader whose
//!   load commands borrow the image's bytes;
//! * [`elf`] — the ELF equivalent for domestic binaries;
//! * [`elf_loader`] — the domestic binfmt loader plus the standard
//!   Android `/system/lib` install;
//! * [`dyld`] — the dyld simulation: per-image filesystem walks on the
//!   Cider prototype, the prelinked shared cache on real iOS devices;
//! * [`framework_set`] — the 115-dylib / 90 MB iOS framework closure the
//!   paper measured.
//!
//! The Mach-O *kernel loader* (which tags threads with the iOS persona)
//! belongs to Cider's architecture and lives in `cider-core`.
//!
//! # Example
//!
//! ```
//! use cider_loader::macho::{MachO, MachOBuilder};
//!
//! let app = MachOBuilder::executable("main")
//!     .depends_on("/usr/lib/libSystem.B.dylib")
//!     .build();
//! let bytes = app.to_bytes();
//! assert!(MachO::sniff(&bytes));
//! assert_eq!(MachO::parse(&bytes)?, app);
//! # Ok::<(), cider_abi::errno::Errno>(())
//! ```

pub mod dyld;
pub mod elf;
pub mod elf_loader;
pub mod framework_set;
pub mod macho;

pub use dyld::{run_dyld, DyldStats};
pub use elf::{Elf, ElfBuilder};
pub use elf_loader::{install_android_system, ElfLoader};
pub use framework_set::{FrameworkSet, FRAMEWORK_COUNT, TOTAL_MAPPED_BYTES};
pub use macho::{MachO, MachOBuilder, MachORef};
