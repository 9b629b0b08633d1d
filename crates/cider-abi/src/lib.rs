//! Foundation ABI types shared by every crate in the Cider reproduction.
//!
//! This crate defines the vocabulary of the Cider OS-compatibility
//! architecture from *"Cider: Native Execution of iOS Apps on Android"*
//! (ASPLOS 2014): [`Persona`]s, the domestic (Linux-flavoured) and foreign
//! (XNU/BSD-flavoured) [`errno`] and [`signal`] numbering schemes and the
//! translations between them, syscall numbers with their XNU trap classes,
//! and the low-level calling/error conventions that differ between the two
//! kernels.
//!
//! It also holds [`codec`], the one little-endian byte codec every
//! binary format (Mach messages, Mach-O, ELF, IPA, dex, input events,
//! `stat64`, checkpoint frames) reads and writes through.
//!
//! Nothing in this crate performs any work; it is pure data and conversion
//! logic, exhaustively unit-tested, on which the kernel simulator
//! (`cider-kernel`), the foreign kernel corpus (`cider-xnu`) and the Cider
//! architecture itself (`cider-core`) are built.
//!
//! # Example
//!
//! ```
//! use cider_abi::persona::Persona;
//! use cider_abi::errno::{Errno, XnuErrno};
//!
//! // A foreign (iOS) thread sees BSD errno values: EAGAIN is 35 on XNU.
//! let xnu = XnuErrno::from(Errno::EAGAIN);
//! assert_eq!(xnu.as_raw(), 35);
//! assert_eq!(Errno::EAGAIN.as_raw(), 11);
//! assert!(Persona::Foreign.is_foreign());
//! ```

pub mod codec;
pub mod convention;
pub mod errno;
pub mod ids;
pub mod memorystatus;
pub mod persona;
pub mod rights;
pub mod sched;
pub mod signal;
pub mod syscall;
pub mod types;

pub use convention::{CallingConvention, CpuFlags, SyscallOutcome};
pub use errno::{Errno, XnuErrno};
pub use ids::{Fd, Gid, Pid, PortName, Tid, Uid};
pub use persona::Persona;
pub use rights::{ReceiveRight, SendOnceRight, SendRight};
pub use signal::{Signal, XnuSignal};
pub use syscall::{LinuxSyscall, SyscallName, TrapClass, XnuTrap};
