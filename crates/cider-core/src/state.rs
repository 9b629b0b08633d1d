//! The Cider state compiled into the domestic kernel: the duct-taped
//! foreign subsystems plus per-task Mach bookkeeping.
//!
//! Stored in the kernel's typed extension slot so that trap handlers —
//! which only receive `&mut Kernel` — can reach Mach IPC, psynch, and
//! I/O Kit, exactly as the duct-taped subsystems are reachable from any
//! syscall in the paper's kernel.
//!
//! Foreign code enters the domestic kernel through one scope,
//! [`CiderState::with_xnu`]: it split-borrows Mach IPC and psynch and
//! binds the calling thread's [`DuctTape`] adapter. The Mach and psynch
//! trap handlers, the per-task Mach helpers below, `CiderSystem`'s
//! typed Mach calls and the boot-time IPC bootstrap all go through it,
//! so every charge those subsystems make passes one adapter; every
//! Mach trap handler and typed call finds its caller's task with
//! [`caller_task`].

use std::collections::BTreeMap;

use cider_abi::codec::RecordWriter;
use cider_abi::ids::{Pid, PortName, Tid};
use cider_abi::rights::ReceiveRight;
use cider_ducttape::adapter::{DuctTape, DuctTapeState};
use cider_ducttape::cxx::CxxRuntime;
use cider_fault::FaultSite;
use cider_kernel::kernel::Kernel;
use cider_xnu::iokit::IoKit;
use cider_xnu::ipc::{
    KernelObject, MachIpc, ReceivedMessage, SpaceId, UserMessage,
};
use cider_xnu::kern_return::{KernResult, KernReturn};
use cider_xnu::psynch::PsynchState;

use crate::ring::{RingCompletion, RingOp, TrapRing};
use crate::services::BootstrapRegistry;

/// All Cider kernel-resident state. `clone` is deep: no part of it is
/// shared with the copy.
#[derive(Clone)]
pub struct CiderState {
    /// Duct-tape bookkeeping (zones, symbol table, translation stats).
    pub ducttape: DuctTapeState,
    /// The duct-taped Mach IPC subsystem.
    pub machipc: MachIpc,
    /// The duct-taped pthread kernel support.
    pub psynch: PsynchState,
    /// The duct-taped I/O Kit.
    pub iokit: IoKit,
    /// The C++ runtime / obj-y list.
    pub cxx: CxxRuntime,
    /// Per-process IPC spaces.
    task_spaces: BTreeMap<u32, SpaceId>,
    /// Per-process task-self port names.
    task_self_ports: BTreeMap<u32, PortName>,
    /// launchd's service registry.
    pub bootstrap: BootstrapRegistry,
    /// Per-thread batched trap submission rings.
    rings: BTreeMap<u32, TrapRing>,
}

impl std::fmt::Debug for CiderState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CiderState")
            .field("machipc", &self.machipc)
            .field("iokit", &self.iokit)
            .field("task_spaces", &self.task_spaces.len())
            .finish()
    }
}

impl CiderState {
    /// Fresh state with unbootstrapped subsystems (bootstrap happens in
    /// `CiderSystem::new` where a duct-tape adapter is available).
    pub fn new() -> CiderState {
        CiderState {
            ducttape: DuctTapeState::new(),
            machipc: MachIpc::new(),
            psynch: PsynchState::new(),
            iokit: IoKit::new(),
            cxx: CxxRuntime::new(),
            task_spaces: BTreeMap::new(),
            task_self_ports: BTreeMap::new(),
            bootstrap: BootstrapRegistry::new(),
            rings: BTreeMap::new(),
        }
    }

    /// The duct-tape scope: runs `f` with the duct-taped Mach IPC and
    /// psynch subsystems and the adapter bound to the calling thread
    /// `tid`, through which their calls reach the domestic kernel.
    pub fn with_xnu<R>(
        &mut self,
        k: &mut Kernel,
        tid: Tid,
        f: impl FnOnce(&mut MachIpc, &mut PsynchState, &mut DuctTape<'_>) -> R,
    ) -> R {
        let CiderState {
            ducttape,
            machipc,
            psynch,
            ..
        } = self;
        f(machipc, psynch, &mut DuctTape::new(k, ducttape, tid))
    }

    /// The IPC space of a process, creating it on first use (Mach task
    /// initialisation).
    pub fn task_space(&mut self, pid: Pid) -> SpaceId {
        if let Some(&s) = self.task_spaces.get(&pid.as_raw()) {
            return s;
        }
        let s = self.machipc.create_space();
        self.task_spaces.insert(pid.as_raw(), s);
        s
    }

    /// Whether a process already has an IPC space.
    pub fn has_task_space(&self, pid: Pid) -> bool {
        self.task_spaces.contains_key(&pid.as_raw())
    }

    /// Forgets a process's space mapping (after space destruction).
    pub fn drop_task_space(&mut self, pid: Pid) {
        self.task_spaces.remove(&pid.as_raw());
        self.task_self_ports.remove(&pid.as_raw());
    }

    /// The task-self port of a process, allocating it (bound to a
    /// `Task` kernel object) on first use.
    ///
    /// # Errors
    ///
    /// Mach codes when the port cannot be allocated (space or zone
    /// exhaustion).
    pub fn task_self_port(
        &mut self,
        k: &mut Kernel,
        tid: Tid,
        pid: Pid,
    ) -> KernResult<PortName> {
        if let Some(&p) = self.task_self_ports.get(&pid.as_raw()) {
            return Ok(p);
        }
        let space = self.task_space(pid);
        let name = self.with_xnu(k, tid, |ipc, _, api| {
            let name = ipc.alloc_receive(api, space)?.name();
            let task = KernelObject::Task(pid.as_raw() as u64);
            ipc.set_kobject(space, name, task).map(|()| name)
        })?;
        self.task_self_ports.insert(pid.as_raw(), name);
        Ok(name)
    }

    // ------------------------------------------------------------------
    // Per-task Mach IPC conveniences.
    // ------------------------------------------------------------------

    /// `mach_port_allocate` in a process's space.
    ///
    /// # Errors
    ///
    /// Mach codes from the IPC subsystem.
    pub fn port_allocate_for(
        &mut self,
        k: &mut Kernel,
        tid: Tid,
        pid: Pid,
    ) -> KernResult<PortName> {
        if k.fault_at(FaultSite::MachPortAllocate) {
            // Port name space exhaustion.
            return Err(KernReturn::NoSpace);
        }
        let space = self.task_space(pid);
        self.with_xnu(k, tid, |ipc, _, api| {
            ipc.alloc_receive(api, space).map(|r| r.name())
        })
    }

    /// `mach_port_deallocate` in a process's space.
    ///
    /// # Errors
    ///
    /// Mach codes from the IPC subsystem.
    pub fn port_deallocate_for(
        &mut self,
        k: &mut Kernel,
        tid: Tid,
        pid: Pid,
        name: PortName,
    ) -> KernResult<()> {
        let space = self.task_space(pid);
        self.with_xnu(k, tid, |ipc, _, api| {
            ipc.port_deallocate(api, space, name)
        })
    }

    /// `mach_msg` send half for a process.
    ///
    /// # Errors
    ///
    /// Mach codes from the IPC subsystem.
    pub fn msg_send_for(
        &mut self,
        k: &mut Kernel,
        tid: Tid,
        pid: Pid,
        msg: UserMessage,
    ) -> KernResult<()> {
        let space = self.task_space(pid);
        let (msg_id, bytes) = (msg.msg_id, msg.size() as u64);
        if k.fault_at(FaultSite::MachMsgSend) {
            // Queue overflow on the destination port.
            return Err(KernReturn::SendTooLarge);
        }
        let ool_before = self.machipc.stats.ool_bytes_remapped;
        let result =
            self.with_xnu(k, tid, |ipc, _, api| ipc.send(api, space, msg));
        if result.is_ok() && k.trace.is_enabled() {
            k.trace.record(
                k.trace_ctx(tid),
                cider_trace::EventKind::MachMsgSend { msg_id, bytes },
            );
            k.trace.incr("mach/msgs_sent");
            k.trace.add("mach/bytes_sent", bytes);
            // The ipc/* counter family only exists on the v2 path, so
            // v1 traces (and their fingerprints) are unchanged.
            if self.machipc.v2_enabled() {
                k.trace.incr("ipc/msg_send");
                let remapped =
                    self.machipc.stats.ool_bytes_remapped - ool_before;
                if remapped > 0 {
                    k.trace.add("ipc/ool_bytes_remapped", remapped);
                }
            }
        }
        result
    }

    /// `mach_msg` receive half for a process.
    ///
    /// # Errors
    ///
    /// Mach codes from the IPC subsystem (`RcvTimedOut` when empty).
    pub fn msg_receive_for(
        &mut self,
        k: &mut Kernel,
        tid: Tid,
        pid: Pid,
        name: PortName,
    ) -> KernResult<ReceivedMessage> {
        let space = self.task_space(pid);
        // The raw name comes straight from trap registers; the receive
        // path re-validates it under the port lock, so the unchecked
        // constructor keeps the error codes identical.
        let result = self.with_xnu(k, tid, |ipc, _, api| {
            ipc.receive(api, space, ReceiveRight::from_name(name))
        });
        if let Ok(msg) = &result {
            if k.trace.is_enabled() {
                k.trace.record(
                    k.trace_ctx(tid),
                    cider_trace::EventKind::MachMsgReceive {
                        msg_id: msg.msg_id,
                        bytes: msg.size() as u64,
                    },
                );
                k.trace.incr("mach/msgs_received");
            }
        }
        result
    }

    // ------------------------------------------------------------------
    // Batched trap submission (IPC v2).
    // ------------------------------------------------------------------

    /// The calling thread's submission ring, created on first use. The
    /// ring models a queue pair shared between user space and the
    /// kernel, so submissions can land here without a trap.
    pub fn ring_mut(&mut self, tid: Tid) -> &mut TrapRing {
        self.rings.entry(tid.as_raw()).or_default()
    }

    /// Whether a submission to a thread's ring must flush the pending
    /// batch first: the ring is full or, drawn only when it is not, the
    /// submitter lost an overflow race. An early flush costs the batch
    /// some of its amortisation, never an operation.
    pub(crate) fn ring_must_flush(
        &mut self,
        k: &mut Kernel,
        tid: Tid,
    ) -> bool {
        self.ring_mut(tid).is_full() || k.fault_at(FaultSite::TrapRingOverflow)
    }

    /// Executes every pending submission on a thread's ring, in order,
    /// publishing one completion per entry. The whole batch shares the
    /// single kernel crossing the `ring_flush` trap already paid.
    pub fn ring_flush(&mut self, k: &mut Kernel, tid: Tid, pid: Pid) -> usize {
        let ops = self.ring_mut(tid).drain_submissions();
        let n = ops.len();
        for (seq, op) in ops {
            let (kr, received) = match op {
                RingOp::Send(msg) => {
                    match self.msg_send_for(k, tid, pid, msg) {
                        Ok(()) => (KernReturn::Success, None),
                        Err(e) => (e, None),
                    }
                }
                RingOp::Recv(name) => {
                    match self.msg_receive_for(k, tid, pid, name) {
                        Ok(m) => (KernReturn::Success, Some(m)),
                        Err(e) => (e, None),
                    }
                }
            };
            self.ring_mut(tid)
                .complete(RingCompletion { seq, kr, received });
        }
        if k.trace.is_enabled() {
            k.trace.incr("ipc/ring_flush");
        }
        n
    }

    /// Destroys a process's IPC space (task teardown at exit).
    pub fn destroy_task_space(&mut self, k: &mut Kernel, tid: Tid, pid: Pid) {
        if !self.has_task_space(pid) {
            return;
        }
        let space = self.task_space(pid);
        let _ =
            self.with_xnu(k, tid, |ipc, _, api| ipc.destroy_space(api, space));
        self.drop_task_space(pid);
    }

    /// Writes the Cider-resident state — Mach port spaces, task-self
    /// bindings, and launchd's registry — as stable records for
    /// whole-device checkpointing. Per-space records list every port
    /// name with its right type and queue depth (in space order), so a
    /// restored replay that reproduces them has rebuilt the identical
    /// port space.
    pub fn write_ckpt(&self, s: &mut RecordWriter<'_>) {
        s.record("live_ports", self.machipc.live_ports());
        for (pid, space) in &self.task_spaces {
            let mut ports: Vec<String> = self
                .machipc
                .space_names(*space)
                .into_iter()
                .map(|(name, right)| {
                    let q = self.machipc.queued(*space, name).unwrap_or(0);
                    format!("{}:{right:?}/q{q}", name.0)
                })
                .collect();
            ports.sort();
            s.record(
                format_args!("space:{pid:06}"),
                format_args!("id={space:?} ports=[{}]", ports.join(" ")),
            );
        }
        for (pid, port) in &self.task_self_ports {
            s.record(format_args!("task_self:{pid:06}"), port.0);
        }
        let mut services: Vec<&str> = self.bootstrap.service_names();
        services.sort_unstable();
        s.record("services", services.join(","));
    }
}

impl Default for CiderState {
    fn default() -> Self {
        Self::new()
    }
}

/// The Mach task (process) a calling thread runs in:
/// `KERN_INVALID_ARGUMENT` for an unknown thread. A trap never sees
/// one, since `Kernel::trap` fails an unknown thread with `ESRCH`
/// before any handler runs.
///
/// # Errors
///
/// `KernReturn::InvalidArgument` when `tid` names no thread.
pub fn caller_task(k: &Kernel, tid: Tid) -> KernResult<Pid> {
    k.thread(tid)
        .map(|t| t.pid)
        .map_err(|_| KernReturn::InvalidArgument)
}

/// Runs `f` with the Cider state taken out of the kernel's extension
/// slot, so both can be borrowed mutably, and puts it back afterwards.
///
/// # Panics
///
/// Panics if the Cider extension is not installed (the kernel is not a
/// Cider kernel).
pub fn with_state<R>(
    k: &mut Kernel,
    f: impl FnOnce(&mut Kernel, &mut CiderState) -> R,
) -> R {
    let mut st = k
        .extensions
        .take::<CiderState>()
        .expect("CiderState installed on this kernel");
    let r = f(k, &mut st);
    k.extensions.insert(st);
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use cider_kernel::profile::DeviceProfile;
    use cider_xnu::ipc::UserMessage;

    fn setup() -> (Kernel, Pid, Tid) {
        let mut k = Kernel::boot(DeviceProfile::nexus7());
        k.extensions.insert(CiderState::new());
        let (pid, tid) = k.spawn_process();
        (k, pid, tid)
    }

    #[test]
    fn task_space_is_stable() {
        let (mut k, pid, _) = setup();
        let s1 = with_state(&mut k, |_, st| st.task_space(pid));
        let s2 = with_state(&mut k, |_, st| st.task_space(pid));
        assert_eq!(s1, s2);
    }

    #[test]
    fn task_self_port_is_task_bound_and_cached() {
        let (mut k, pid, tid) = setup();
        let (p1, p2, ko) = with_state(&mut k, |k, st| {
            let p1 = st.task_self_port(k, tid, pid).unwrap();
            let p2 = st.task_self_port(k, tid, pid).unwrap();
            let space = st.task_space(pid);
            let ko = st.machipc.kobject_of(space, p1).unwrap();
            (p1, p2, ko)
        });
        assert_eq!(p1, p2);
        assert_eq!(ko, KernelObject::Task(pid.as_raw() as u64));
    }

    #[test]
    fn per_task_send_receive() {
        let (mut k, pid, tid) = setup();
        with_state(&mut k, |k, st| {
            let port = st.port_allocate_for(k, tid, pid).unwrap();
            let space = st.task_space(pid);
            let recv = st.machipc.receive_right(space, port).unwrap();
            let send = st.machipc.insert_send(space, recv).unwrap();
            st.msg_send_for(
                k,
                tid,
                pid,
                UserMessage::simple(send.name(), 3, &b"abc"[..]),
            )
            .unwrap();
            let got = st.msg_receive_for(k, tid, pid, port).unwrap();
            assert_eq!(got.msg_id, 3);
            st.machipc.check_invariants();
        });
    }

    #[test]
    fn ring_flush_executes_a_batch_in_order() {
        let (mut k, pid, tid) = setup();
        with_state(&mut k, |k, st| {
            st.machipc.set_v2(true);
            let port = st.port_allocate_for(k, tid, pid).unwrap();
            let space = st.task_space(pid);
            let recv = st.machipc.receive_right(space, port).unwrap();
            let send = st.machipc.insert_send(space, recv).unwrap();
            for i in 0..3 {
                st.ring_mut(tid)
                    .push(RingOp::Send(UserMessage::simple(
                        send.name(),
                        i,
                        &b"b"[..],
                    )))
                    .unwrap();
            }
            st.ring_mut(tid).push(RingOp::Recv(port)).unwrap();
            assert_eq!(st.ring_flush(k, tid, pid), 4);
            let cs = st.ring_mut(tid).take_completions();
            assert_eq!(cs.len(), 4);
            assert!(cs.iter().all(|c| c.kr == KernReturn::Success));
            // The receive completed against the first queued send.
            assert_eq!(cs[3].received.as_ref().unwrap().msg_id, 0);
            st.machipc.check_invariants();
        });
    }

    #[test]
    fn destroy_task_space_cleans_up() {
        let (mut k, pid, tid) = setup();
        with_state(&mut k, |k, st| {
            st.port_allocate_for(k, tid, pid).unwrap();
            assert_eq!(st.machipc.live_ports(), 1);
            st.destroy_task_space(k, tid, pid);
            assert_eq!(st.machipc.live_ports(), 0);
            assert!(!st.has_task_space(pid));
        });
    }
}
