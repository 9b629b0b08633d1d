//! Typed trace events.

use std::borrow::Cow;
use std::fmt;
use std::hash::Hasher;

use cider_abi::ids::{Pid, Tid};

/// Where and when an event happened: the fields every event carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// Virtual-clock timestamp, nanoseconds since boot.
    pub ts_ns: u64,
    /// Process id (0 when no process context applies).
    pub pid: u32,
    /// Thread id (0 when no thread context applies).
    pub tid: u32,
    /// Whether the thread was executing in the foreign (iOS) persona.
    pub foreign: bool,
}

impl TraceContext {
    /// A context with no process/thread attribution (kernel-global
    /// events like GPU retirement).
    pub fn kernel(ts_ns: u64) -> TraceContext {
        TraceContext {
            ts_ns,
            pid: 0,
            tid: 0,
            foreign: false,
        }
    }

    /// A context for a thread.
    pub fn thread(
        ts_ns: u64,
        pid: Pid,
        tid: Tid,
        foreign: bool,
    ) -> TraceContext {
        TraceContext {
            ts_ns,
            pid: pid.0,
            tid: tid.0,
            foreign,
        }
    }

    /// Persona label for exporters.
    pub fn persona_label(&self) -> &'static str {
        if self.foreign {
            "foreign"
        } else {
            "domestic"
        }
    }
}

/// What happened. Every mechanism the paper's evaluation names has a
/// typed event so regressions decompose into causes.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A trap entered the kernel. `translated` carries the domestic
    /// syscall number when the XNU personality renumbered the call.
    SyscallEnter {
        /// Raw (persona-native) syscall number.
        nr: i64,
        /// Domestic number after translation, when any.
        translated: Option<i64>,
    },
    /// The trap returned to user space.
    SyscallExit {
        /// Raw (persona-native) syscall number.
        nr: i64,
        /// Result register value.
        ret: i64,
    },
    /// A signal reached a user handler (after any translation).
    SignalDeliver {
        /// Persona-native signal number delivered.
        signal: i32,
        /// Bytes of sigframe built on the user stack.
        frame_bytes: u64,
    },
    /// A signal number was translated between personas.
    SignalTranslate {
        /// Internal (Linux) number.
        from: i32,
        /// Persona-native number.
        to: i32,
    },
    /// `set_persona` switched a thread's kernel ABI.
    PersonaSwitch {
        /// Whether the thread left the foreign persona (true) or
        /// entered it (false).
        to_foreign: bool,
    },
    /// A Mach IPC message was queued on a port.
    MachMsgSend {
        /// Message id.
        msg_id: i32,
        /// Total payload bytes (body + out-of-line).
        bytes: u64,
    },
    /// A Mach IPC message was dequeued.
    MachMsgReceive {
        /// Message id.
        msg_id: i32,
        /// Total payload bytes.
        bytes: u64,
    },
    /// A diplomatic function call began arbitration.
    DiplomatEnter {
        /// Foreign symbol being diplomatically replaced.
        symbol: Cow<'static, str>,
    },
    /// A diplomatic function call completed.
    DiplomatExit {
        /// Foreign symbol.
        symbol: Cow<'static, str>,
        /// Whether the domestic function succeeded.
        ok: bool,
    },
    /// A VFS operation (open/read/write/unlink/…).
    VfsOp {
        /// Operation name.
        op: &'static str,
        /// Bytes moved, for data ops.
        bytes: u64,
    },
    /// `fork` duplicated an address space's page tables.
    PageTableCopy {
        /// PTEs copied.
        ptes: u64,
    },
    /// dyld mapped a library into a foreign process.
    DyldMap {
        /// Libraries mapped.
        libraries: u64,
    },
    /// dyld ran registered image handlers (the fork/exit handler loops
    /// behind the paper's 14x fork+exit figure).
    DyldHandlers {
        /// Handlers invoked.
        handlers: u64,
    },
    /// The scheduler switched the CPU to another thread.
    ContextSwitch {
        /// Outgoing thread id (0 when no thread was running).
        from: u32,
        /// Incoming thread id.
        to: u32,
    },
    /// A thread waited on a GPU fence.
    GpuFenceWait {
        /// Fence id.
        fence: u64,
        /// Whether the buggy (missed-wakeup) path was taken.
        buggy: bool,
    },
    /// A free-form marker.
    Mark {
        /// Marker label.
        label: Cow<'static, str>,
    },
    /// The fault layer injected a failure at a named site.
    FaultInjected {
        /// Site name (stable snake_case, e.g. `"vfs_read"`).
        site: &'static str,
        /// Global 1-based injection sequence number.
        seq: u64,
    },
    /// A supervisor/watchdog/fallback recovered from injected faults.
    Recovery {
        /// Action label, e.g. `"launchd/respawn(notifyd)"`.
        action: Cow<'static, str>,
    },
}

impl EventKind {
    /// Short category name for exporters and filtering.
    pub fn category(&self) -> &'static str {
        match self {
            EventKind::SyscallEnter { .. } | EventKind::SyscallExit { .. } => {
                "syscall"
            }
            EventKind::SignalDeliver { .. }
            | EventKind::SignalTranslate { .. } => "signal",
            EventKind::PersonaSwitch { .. } => "persona",
            EventKind::MachMsgSend { .. }
            | EventKind::MachMsgReceive { .. } => "mach_ipc",
            EventKind::DiplomatEnter { .. }
            | EventKind::DiplomatExit { .. } => "diplomat",
            EventKind::VfsOp { .. } => "vfs",
            EventKind::PageTableCopy { .. } => "mm",
            EventKind::DyldMap { .. } | EventKind::DyldHandlers { .. } => {
                "dyld"
            }
            EventKind::ContextSwitch { .. } => "sched",
            EventKind::GpuFenceWait { .. } => "gpu",
            EventKind::Mark { .. } => "mark",
            EventKind::FaultInjected { .. } => "fault",
            EventKind::Recovery { .. } => "recovery",
        }
    }

    /// Display name for exporters.
    pub fn name(&self) -> Cow<'static, str> {
        match self {
            EventKind::SyscallEnter { nr, .. } => {
                Cow::Owned(format!("syscall_enter({nr})"))
            }
            EventKind::SyscallExit { nr, .. } => {
                Cow::Owned(format!("syscall_exit({nr})"))
            }
            EventKind::SignalDeliver { signal, .. } => {
                Cow::Owned(format!("signal_deliver({signal})"))
            }
            EventKind::SignalTranslate { from, to } => {
                Cow::Owned(format!("signal_translate({from}->{to})"))
            }
            EventKind::PersonaSwitch { to_foreign } => {
                Cow::Borrowed(if *to_foreign {
                    "set_persona(foreign)"
                } else {
                    "set_persona(domestic)"
                })
            }
            EventKind::MachMsgSend { .. } => Cow::Borrowed("mach_msg_send"),
            EventKind::MachMsgReceive { .. } => {
                Cow::Borrowed("mach_msg_receive")
            }
            EventKind::DiplomatEnter { symbol } => {
                Cow::Owned(format!("diplomat({symbol})"))
            }
            EventKind::DiplomatExit { symbol, .. } => {
                Cow::Owned(format!("diplomat_ret({symbol})"))
            }
            EventKind::VfsOp { op, .. } => Cow::Borrowed(op),
            EventKind::PageTableCopy { .. } => Cow::Borrowed("pt_copy"),
            EventKind::DyldMap { .. } => Cow::Borrowed("dyld_map"),
            EventKind::DyldHandlers { .. } => Cow::Borrowed("dyld_handlers"),
            EventKind::ContextSwitch { from, to } => {
                Cow::Owned(format!("ctx_switch({from}->{to})"))
            }
            EventKind::GpuFenceWait { .. } => Cow::Borrowed("fence_wait"),
            EventKind::Mark { label } => label.clone(),
            EventKind::FaultInjected { site, .. } => {
                Cow::Owned(format!("fault({site})"))
            }
            EventKind::Recovery { action } => action.clone(),
        }
    }
}

/// One recorded event: a context plus a kind.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// When/where.
    pub ctx: TraceContext,
    /// What.
    pub kind: EventKind,
}

impl TraceEvent {
    /// Feeds the event to `out` as its fields in a fixed byte layout:
    ///
    /// * the context: `ts_ns` as 8 bytes, `pid` and `tid` as 4 each,
    ///   `foreign` as 1;
    /// * a one-byte variant tag, a fixed number per variant of
    ///   [`EventKind`]: 0 to 14 in declaration order, then 17 to 19
    ///   (15 and 16, the retired span events, are never reused);
    /// * the variant's fields in declaration order.
    ///
    /// Integers are little-endian at their declared width and a `bool`
    /// is one byte. An `Option` is a tag byte (0 for `None`, 1 for
    /// `Some`), then the value. A string is its byte length as 8
    /// bytes, then its UTF-8 bytes. Every field has a fixed width or a
    /// length prefix, so distinct events, and distinct sequences of
    /// events, feed distinct bytes.
    ///
    /// The bytes reach the sink only through [`Hasher::write`], never
    /// its integer methods, so they are the same for every sink on
    /// every platform.
    pub fn encode(&self, out: &mut impl Hasher) {
        fn string(out: &mut impl Hasher, s: &str) {
            out.write(&(s.len() as u64).to_le_bytes());
            out.write(s.as_bytes());
        }
        let TraceContext {
            ts_ns,
            pid,
            tid,
            foreign,
        } = self.ctx;
        out.write(&ts_ns.to_le_bytes());
        out.write(&pid.to_le_bytes());
        out.write(&tid.to_le_bytes());
        out.write(&[u8::from(foreign)]);
        match &self.kind {
            EventKind::SyscallEnter { nr, translated } => {
                out.write(&[0]);
                out.write(&nr.to_le_bytes());
                match translated {
                    None => out.write(&[0]),
                    Some(t) => {
                        out.write(&[1]);
                        out.write(&t.to_le_bytes());
                    }
                }
            }
            EventKind::SyscallExit { nr, ret } => {
                out.write(&[1]);
                out.write(&nr.to_le_bytes());
                out.write(&ret.to_le_bytes());
            }
            EventKind::SignalDeliver {
                signal,
                frame_bytes,
            } => {
                out.write(&[2]);
                out.write(&signal.to_le_bytes());
                out.write(&frame_bytes.to_le_bytes());
            }
            EventKind::SignalTranslate { from, to } => {
                out.write(&[3]);
                out.write(&from.to_le_bytes());
                out.write(&to.to_le_bytes());
            }
            EventKind::PersonaSwitch { to_foreign } => {
                out.write(&[4, u8::from(*to_foreign)]);
            }
            EventKind::MachMsgSend { msg_id, bytes } => {
                out.write(&[5]);
                out.write(&msg_id.to_le_bytes());
                out.write(&bytes.to_le_bytes());
            }
            EventKind::MachMsgReceive { msg_id, bytes } => {
                out.write(&[6]);
                out.write(&msg_id.to_le_bytes());
                out.write(&bytes.to_le_bytes());
            }
            EventKind::DiplomatEnter { symbol } => {
                out.write(&[7]);
                string(out, symbol);
            }
            EventKind::DiplomatExit { symbol, ok } => {
                out.write(&[8]);
                string(out, symbol);
                out.write(&[u8::from(*ok)]);
            }
            EventKind::VfsOp { op, bytes } => {
                out.write(&[9]);
                string(out, op);
                out.write(&bytes.to_le_bytes());
            }
            EventKind::PageTableCopy { ptes } => {
                out.write(&[10]);
                out.write(&ptes.to_le_bytes());
            }
            EventKind::DyldMap { libraries } => {
                out.write(&[11]);
                out.write(&libraries.to_le_bytes());
            }
            EventKind::DyldHandlers { handlers } => {
                out.write(&[12]);
                out.write(&handlers.to_le_bytes());
            }
            EventKind::ContextSwitch { from, to } => {
                out.write(&[13]);
                out.write(&from.to_le_bytes());
                out.write(&to.to_le_bytes());
            }
            EventKind::GpuFenceWait { fence, buggy } => {
                out.write(&[14]);
                out.write(&fence.to_le_bytes());
                out.write(&[u8::from(*buggy)]);
            }
            EventKind::Mark { label } => {
                out.write(&[17]);
                string(out, label);
            }
            EventKind::FaultInjected { site, seq } => {
                out.write(&[18]);
                string(out, site);
                out.write(&seq.to_le_bytes());
            }
            EventKind::Recovery { action } => {
                out.write(&[19]);
                string(out, action);
            }
        }
    }
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:>12}ns p{} t{} {}] {}",
            self.ctx.ts_ns,
            self.ctx.pid,
            self.ctx.tid,
            self.ctx.persona_label(),
            self.kind.name(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn categories_cover_every_mechanism() {
        let cases = [
            (
                EventKind::SyscallEnter {
                    nr: 1,
                    translated: Some(2),
                },
                "syscall",
            ),
            (
                EventKind::SignalDeliver {
                    signal: 10,
                    frame_bytes: 736,
                },
                "signal",
            ),
            (EventKind::PersonaSwitch { to_foreign: true }, "persona"),
            (
                EventKind::MachMsgSend {
                    msg_id: 1,
                    bytes: 4,
                },
                "mach_ipc",
            ),
            (
                EventKind::DiplomatEnter {
                    symbol: "glClear".into(),
                },
                "diplomat",
            ),
            (
                EventKind::VfsOp {
                    op: "open",
                    bytes: 0,
                },
                "vfs",
            ),
            (EventKind::PageTableCopy { ptes: 9 }, "mm"),
            (EventKind::ContextSwitch { from: 100, to: 101 }, "sched"),
            (EventKind::DyldMap { libraries: 115 }, "dyld"),
            (
                EventKind::GpuFenceWait {
                    fence: 3,
                    buggy: true,
                },
                "gpu",
            ),
            (
                EventKind::FaultInjected {
                    site: "vfs_read",
                    seq: 1,
                },
                "fault",
            ),
            (
                EventKind::Recovery {
                    action: "launchd/respawn(notifyd)".into(),
                },
                "recovery",
            ),
        ];
        for (kind, cat) in cases {
            assert_eq!(kind.category(), cat, "{kind:?}");
        }
    }

    #[test]
    fn display_is_readable() {
        let e = TraceEvent {
            ctx: TraceContext {
                ts_ns: 1500,
                pid: 2,
                tid: 3,
                foreign: true,
            },
            kind: EventKind::VfsOp {
                op: "open",
                bytes: 0,
            },
        };
        let s = e.to_string();
        assert!(s.contains("p2"), "{s}");
        assert!(s.contains("foreign"), "{s}");
        assert!(s.contains("open"), "{s}");
    }
}
