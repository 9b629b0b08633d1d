//! The Cider OS-compatibility architecture — the paper's primary
//! contribution.
//!
//! Cider runs unmodified iOS binaries on Android by augmenting the
//! domestic kernel with:
//!
//! * **kernel ABI multiplexing** — per-thread [`persona`]s, per-persona
//!   syscall dispatch tables ([`xnu_abi`]), the Mach-O kernel loader
//!   ([`machoload`]), and bidirectional signal translation;
//! * **duct tape** — the foreign subsystems (Mach IPC, psynch pthread
//!   support, I/O Kit) compiled into the kernel via `cider-ducttape` and
//!   held in kernel-resident [`state`];
//! * **diplomatic functions** ([`diplomat`]) — per-thread persona
//!   switches that let foreign apps call into domestic libraries
//!   ([`library`]) for proprietary hardware access;
//! * **system integration** ([`system`], [`services`]) — the overlay
//!   filesystem, the copied framework set, and the launchd / notifyd /
//!   configd daemons.
//!
//! The [`xnu_native`] personality models the comparison iPad's own
//! kernel for the paper's fourth measurement configuration.
//!
//! # Example
//!
//! ```
//! use cider_core::CiderSystem;
//! use cider_kernel::DeviceProfile;
//!
//! let mut sys = CiderSystem::new(DeviceProfile::nexus7());
//! // The overlay filesystem presents iOS paths alongside Android ones.
//! assert!(sys.kernel.vfs.exists("/Documents"));
//! assert!(sys.kernel.vfs.exists("/system/lib/libc.so"));
//! ```

pub mod diplomat;
pub mod exec;
pub mod kqueue;
pub mod library;
pub mod machoload;
pub mod persona;
pub mod ring;
pub mod services;
pub mod state;
pub mod system;
pub mod tls;
pub mod wire;
pub mod xnu_abi;
pub mod xnu_native;

pub use diplomat::{Diplomat, DiplomaticLibrary};
pub use kqueue::KQueue;
pub use library::{LibraryHost, NativeLibrary};
pub use machoload::{mach_task_post_fork, MachOLoader};
pub use persona::{attach_persona_ext, persona_of, set_persona, PersonaExt};
pub use ring::{RingCompletion, RingOp, TrapRing, RING_CAPACITY};
pub use services::Services;
pub use state::{with_state, CiderState};
pub use system::CiderSystem;
pub use xnu_abi::XnuPersonality;
pub use xnu_native::XnuNativePersonality;
