//! Deterministic domestic-kernel simulator for the Cider reproduction.
//!
//! This crate stands in for the Android device's Linux kernel in *"Cider:
//! Native Execution of iOS Apps on Android"* (ASPLOS 2014). It provides
//! processes and threads, address spaces with explicit page-table
//! accounting, a VFS with overlay mounts, pipes and UNIX sockets,
//! `select`, signals, `fork`/`exec`/`exit`/`wait`, the device registry
//! Cider's I/O Kit bridge publishes from, and — crucially — a
//! **virtual clock**: every operation charges nanoseconds scaled by a
//! [`profile::DeviceProfile`], so experiments are exactly
//! reproducible and one host can model both the Nexus 7 and the iPad mini.
//!
//! The kernel is extensible exactly where Cider extends Linux:
//! [`Personality`](dispatch::Personality) objects add per-persona syscall
//! dispatch tables, [`BinaryLoader`](binfmt::BinaryLoader)s add binary
//! formats (Mach-O), and [`ThreadExt`](process::ThreadExt) slots carry
//! persona state.
//!
//! # Example
//!
//! ```
//! use cider_kernel::kernel::Kernel;
//! use cider_kernel::profile::DeviceProfile;
//!
//! let mut k = Kernel::boot(DeviceProfile::nexus7());
//! let (pid, tid) = k.spawn_process();
//! assert_eq!(k.sys_getpid(tid)?, pid);
//! # Ok::<(), cider_abi::errno::Errno>(())
//! ```

pub mod binfmt;
pub mod clock;
pub mod device;
pub mod dispatch;
pub mod fdtable;
pub mod ipcobj;
pub mod kernel;
pub mod memorystatus;
pub mod mm;
pub mod process;
pub mod profile;
pub mod vfs;
pub mod warm;

pub use cider_abi::codec::{ByteReader, ByteWriter};
pub use cider_fault::fnv1a;
pub use clock::{Stopwatch, VirtualClock, VirtualDuration};
pub use kernel::{Extensions, Kernel, KernelCounters, LinuxPersonality};
pub use memorystatus::{MemoryStatus, MemoryStatusStats};
pub use profile::{DeviceProfile, Toolchain};
pub use warm::{BakedImage, SharedCacheImage, WarmStart, WarmStats};
