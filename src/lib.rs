//! Umbrella crate for the Cider reproduction workspace.
//!
//! This crate exists to host the cross-crate integration tests
//! (`tests/`) and the runnable examples (`examples/`); the library
//! surface itself lives in the member crates, re-exported here for
//! convenience:
//!
//! * [`cider_abi`] — personas, errno/signal/syscall numbering, calling
//!   conventions;
//! * [`cider_kernel`] — the domestic kernel simulator with its virtual
//!   clock and device profiles;
//! * [`cider_xnu`] — the foreign kernel corpus (Mach IPC, psynch,
//!   I/O Kit);
//! * [`cider_ducttape`] — symbol zones and the foreign-API adapter;
//! * [`cider_loader`] — Mach-O/ELF formats, dyld, the framework set;
//! * [`cider_core`] — Cider itself: personas, trap translation,
//!   diplomats, services, [`cider_core::CiderSystem`];
//! * [`cider_gfx`] — GPU, SurfaceFlinger, GLES, the diplomatic graphics
//!   libraries;
//! * [`cider_input`] — the CiderPress → eventpump → Mach-port input
//!   path and gestures;
//! * [`cider_apps`] — the Dalvik-stand-in VM, PassMark, packages,
//!   Launcher, CiderPress;
//! * [`cider_bench`] — the Figure 5 / Figure 6 harnesses and ablations.
//!
//! # Example
//!
//! ```
//! use cider_suite::prelude::*;
//!
//! let mut sys = CiderSystem::new(DeviceProfile::nexus7());
//! install_gfx(&mut sys, GfxConfig::default());
//! assert!(sys.kernel.vfs.exists(
//!     "/System/Library/Frameworks/UIKit.framework/UIKit"
//! ));
//! ```

pub use cider_abi;
pub use cider_apps;
pub use cider_bench;
pub use cider_core;
pub use cider_ducttape;
pub use cider_gfx;
pub use cider_input;
pub use cider_kernel;
pub use cider_loader;
pub use cider_xnu;

/// The names most programs start from.
pub mod prelude {
    pub use cider_abi::Persona;
    pub use cider_apps::{CiderPress, Launcher, Passmark};
    pub use cider_core::CiderSystem;
    pub use cider_gfx::{install_gfx, GfxConfig};
    pub use cider_kernel::{DeviceProfile, Kernel};
}
