//! Mach ports and port rights.

use std::sync::atomic::{AtomicU32, Ordering};

use crate::ipc::lockfree::LockFreeQueue;
use crate::ipc::message::Message;

/// Global identifier of a port object (kernel-internal, not a name).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PortId(pub u64);

/// Identifier of an IPC space (one per task).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpaceId(pub u64);

/// The kind of right a name denotes within a space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RightType {
    /// The (unique) receive right.
    Receive,
    /// A send right (user-reference counted).
    Send,
    /// A send-once right.
    SendOnce,
    /// A dead name left behind when the port died.
    DeadName,
}

/// The kernel object a port may represent — how Mach IPC doubles as the
/// syscall surface for kernel services (tasks, I/O Kit connections).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelObject {
    /// A plain message queue.
    #[default]
    None,
    /// A task's self port; carries the (simulator) pid.
    Task(u64),
    /// A thread's self port.
    Thread(u64),
    /// The host port.
    Host,
    /// An I/O Kit service registry entry.
    IoService(u32),
    /// An open I/O Kit user-client connection.
    IoUserClient(u32),
    /// A bootstrap/launchd service endpoint (index into the service
    /// registry).
    BootstrapService(u32),
    /// A notification endpoint (notifyd).
    Notification(u32),
}

/// Default per-port message queue limit (`MACH_PORT_QLIMIT_DEFAULT`).
pub const QLIMIT_DEFAULT: usize = 5;
/// Maximum configurable queue limit (`MACH_PORT_QLIMIT_MAX`).
pub const QLIMIT_MAX: usize = 16;

/// An atomically maintained right reference count.
///
/// mach_r keeps send/send-once rights as plain refcounts bumped with
/// atomic RMW instructions instead of under the port lock; this wrapper
/// is the simulator's equivalent. Equality and ordering compare the
/// loaded value, so counts keep working in assertions and diagnostics.
#[derive(Debug, Default)]
pub struct RightCount(AtomicU32);

impl RightCount {
    /// A zero count.
    pub const fn new(v: u32) -> RightCount {
        RightCount(AtomicU32::new(v))
    }

    /// Current value.
    pub fn get(&self) -> u32 {
        self.0.load(Ordering::Relaxed)
    }

    /// Atomically adds one reference.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Atomically drops one reference; saturates at zero (a dead port's
    /// rights may be released after the count was force-cleared).
    pub fn dec(&self) {
        let _ =
            self.0
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                    v.checked_sub(1)
                });
    }

    /// Overwrites the count (port teardown).
    pub fn set(&self, v: u32) {
        self.0.store(v, Ordering::Relaxed);
    }
}

impl Clone for RightCount {
    fn clone(&self) -> RightCount {
        RightCount::new(self.get())
    }
}

impl PartialEq<u32> for RightCount {
    fn eq(&self, other: &u32) -> bool {
        self.get() == *other
    }
}

impl PartialEq for RightCount {
    fn eq(&self, other: &RightCount) -> bool {
        self.get() == other.get()
    }
}

impl Eq for RightCount {}

/// A Mach port: one receive right, counted send rights, a message queue.
#[derive(Debug, Clone)]
pub struct Port {
    /// Global id.
    pub id: PortId,
    /// Space holding the receive right; `None` once the port is dead.
    pub receiver: Option<SpaceId>,
    /// Outstanding send rights, system-wide (space entries' user refs
    /// plus rights in transit inside queued messages).
    pub srights: RightCount,
    /// Outstanding send-once rights, system-wide.
    pub sorights: RightCount,
    /// Times a send right was made from the receive right
    /// (`mscount` — consulted by no-senders notifications).
    pub make_send_count: u32,
    /// Queued messages, delivered in `(stamp, seq)` order.
    pub msgs: LockFreeQueue<Message>,
    /// Queue limit.
    pub qlimit: usize,
    /// Kernel object binding.
    pub kobject: KernelObject,
    /// Armed no-senders notification target: `(space, name)` identifying
    /// a send-once right to fire when `srights` drops to zero.
    pub ns_notify: Option<(SpaceId, cider_abi::ids::PortName)>,
}

impl Port {
    /// Creates a live port with its receive right in `receiver`.
    pub fn new(id: PortId, receiver: SpaceId) -> Port {
        Port {
            id,
            receiver: Some(receiver),
            srights: RightCount::new(0),
            sorights: RightCount::new(0),
            make_send_count: 0,
            msgs: LockFreeQueue::new(),
            qlimit: QLIMIT_DEFAULT,
            kobject: KernelObject::None,
            ns_notify: None,
        }
    }

    /// Whether the port is dead (receive right destroyed).
    pub fn is_dead(&self) -> bool {
        self.receiver.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_port_is_live_with_no_rights() {
        let p = Port::new(PortId(1), SpaceId(1));
        assert!(!p.is_dead());
        assert_eq!(p.srights, 0);
        assert_eq!(p.qlimit, QLIMIT_DEFAULT);
        assert!(p.msgs.is_empty());
    }

    #[test]
    fn qlimits_ordered() {
        const { assert!(QLIMIT_DEFAULT < QLIMIT_MAX) };
    }

    #[test]
    fn right_counts_are_saturating() {
        let c = RightCount::new(1);
        c.inc();
        assert_eq!(c.get(), 2);
        c.dec();
        c.dec();
        c.dec(); // already zero: saturates instead of wrapping
        assert_eq!(c.get(), 0);
        c.set(7);
        assert_eq!(c, 7);
    }
}
