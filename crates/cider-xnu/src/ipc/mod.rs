//! Mach IPC — the XNU subsystem Cider duct-tapes into the Linux kernel.
//!
//! The module layout mirrors `osfmk/ipc`: [`port`] holds ports and
//! rights, [`space`] the per-task name tables, [`message`] the message
//! and descriptor formats, and [`subsystem`] the transfer engine. Each
//! port queues its messages in an [`XnuQueue`](crate::queue::XnuQueue).

pub mod message;
pub mod port;
pub mod space;
pub mod subsystem;

pub use message::{
    Message, PortDescriptor, PortDisposition, ReceivedMessage, UserMessage,
    OOL_INLINE_THRESHOLD, OOL_PAGE_BYTES,
};
pub use port::{KernelObject, Port, PortId, RightType, SpaceId};
pub use space::IpcSpace;
pub use subsystem::{IpcStats, MachIpc};
