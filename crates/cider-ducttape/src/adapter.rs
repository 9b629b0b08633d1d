//! The adaptation layer itself: the one implementation of
//! [`ForeignKernelApi`] in the system, translating each foreign kernel
//! API onto domestic kernel primitives.
//!
//! "Duct tape translates foreign kernel APIs such as synchronization,
//! memory allocation, process control, and list management, into domestic
//! kernel APIs" (paper §4.2):
//!
//! | foreign symbol        | domestic primitive                       |
//! |-----------------------|------------------------------------------|
//! | `lck_mtx_*`           | kernel lock table (mutex semantics)      |
//! | `zinit`/`zalloc`      | allocation accounting on the kernel heap |
//! | `current_thread`      | the domestic `Tid` of the trapping thread|
//! | `assert_wait`/`thread_block`/`thread_wakeup` | wait channels       |
//! | `mach_absolute_time`  | the virtual clock                        |
//! | `kprintf`             | the kernel log                           |
//!
//! Each translated call charges a small adaptation cost to the virtual
//! clock — the run-time residue of crossing the zone boundary.

use std::collections::BTreeMap;

use cider_abi::ids::Tid;
use cider_kernel::kernel::Kernel;
use cider_kernel::process::WaitChannel;
use cider_xnu::api::{
    Event, ForeignKernelApi, ForeignThread, LckMtx, WaitResult, ZoneHandle,
};

use crate::zone::{SymbolTable, Zone};

/// Fixed cost of one zone-boundary crossing, ns (inline shim).
const ADAPT_NS: u64 = 12;

/// Persistent duct-tape state: zone bookkeeping that outlives individual
/// trap handlers.
#[derive(Debug, Clone, Default)]
pub struct DuctTapeState {
    next_lock: u64,
    locked: BTreeMap<u64, bool>,
    zones: Vec<ZoneInfo>,
    next_alloc: u64,
    /// The kernel-wide symbol table with zone tags.
    pub symbols: SymbolTable,
    /// Translated calls per category, for the ablation report.
    pub calls_translated: u64,
    /// Kernel log lines captured from `kprintf`.
    pub klog: Vec<String>,
}

/// One foreign allocation zone's accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ZoneInfo {
    /// Zone name (e.g. `"ipc.ports"`).
    pub name: String,
    /// Element size in bytes.
    pub elem_size: usize,
    /// Live allocations.
    pub live: usize,
}

impl DuctTapeState {
    /// Fresh state with the duct-tape provider symbols pre-defined, so
    /// foreign imports can resolve their externals immediately.
    pub fn new() -> DuctTapeState {
        let mut s = DuctTapeState::default();
        for sym in [
            "dt_lck_mtx_alloc",
            "dt_lck_mtx_lock",
            "dt_lck_mtx_unlock",
            "dt_zinit",
            "dt_zalloc",
            "dt_zfree",
            "dt_current_thread",
            "dt_assert_wait",
            "dt_thread_block",
            "dt_thread_wakeup",
            "dt_mach_absolute_time",
            "dt_kprintf",
            "dt_vm_remap",
            "dt_copyin",
        ] {
            s.symbols
                .define(sym, Zone::DuctTape)
                .expect("fresh table has no duplicates");
        }
        for (foreign, provider) in [
            ("lck_mtx_alloc_init", "dt_lck_mtx_alloc"),
            ("lck_mtx_lock", "dt_lck_mtx_lock"),
            ("lck_mtx_unlock", "dt_lck_mtx_unlock"),
            ("zinit", "dt_zinit"),
            ("zalloc", "dt_zalloc"),
            ("zfree", "dt_zfree"),
            ("current_thread", "dt_current_thread"),
            ("assert_wait", "dt_assert_wait"),
            ("thread_block", "dt_thread_block"),
            ("thread_wakeup", "dt_thread_wakeup"),
            ("mach_absolute_time", "dt_mach_absolute_time"),
            ("kprintf", "dt_kprintf"),
            ("vm_map_remap", "dt_vm_remap"),
            ("copyin", "dt_copyin"),
        ] {
            s.symbols
                .map_external(foreign, provider)
                .expect("providers defined above");
        }
        s
    }

    /// Live allocations across all zones (leak detector).
    pub fn live_allocations(&self) -> usize {
        self.zones.iter().map(|z| z.live).sum()
    }

    /// Zone accounting snapshot.
    pub fn zones(&self) -> &[ZoneInfo] {
        &self.zones
    }
}

/// A scoped adapter binding the duct-tape state, the domestic kernel, and
/// the identity of the trapping thread for the duration of one foreign
/// subsystem call.
#[derive(Debug)]
pub struct DuctTape<'a> {
    /// The domestic kernel.
    pub kernel: &'a mut Kernel,
    /// Persistent duct-tape state.
    pub state: &'a mut DuctTapeState,
    /// The domestic thread executing foreign code right now.
    pub current: Tid,
}

impl<'a> DuctTape<'a> {
    /// Binds the adapter for one call.
    pub fn new(
        kernel: &'a mut Kernel,
        state: &'a mut DuctTapeState,
        current: Tid,
    ) -> DuctTape<'a> {
        DuctTape {
            kernel,
            state,
            current,
        }
    }

    fn cross(&mut self) {
        self.state.calls_translated += 1;
        self.kernel.charge_cpu(ADAPT_NS);
    }
}

impl ForeignKernelApi for DuctTape<'_> {
    fn lck_mtx_alloc(&mut self) -> LckMtx {
        self.cross();
        self.state.next_lock += 1;
        let h = self.state.next_lock;
        self.state.locked.insert(h, false);
        LckMtx(h)
    }

    fn lck_mtx_lock(&mut self, m: LckMtx) {
        self.cross();
        // Single-host-thread simulation: the lock is always free; the
        // translation models Linux mutex_lock's fast path.
        if let Some(l) = self.state.locked.get_mut(&m.0) {
            debug_assert!(!*l, "recursive lck_mtx_lock");
            *l = true;
        }
        self.kernel.charge_cpu(18);
    }

    fn lck_mtx_unlock(&mut self, m: LckMtx) {
        self.cross();
        if let Some(l) = self.state.locked.get_mut(&m.0) {
            debug_assert!(*l, "unlock of unlocked lck_mtx");
            *l = false;
        }
        self.kernel.charge_cpu(14);
    }

    fn zinit(&mut self, name: &str, elem_size: usize) -> ZoneHandle {
        self.cross();
        self.state.zones.push(ZoneInfo {
            name: name.to_string(),
            elem_size,
            live: 0,
        });
        ZoneHandle(self.state.zones.len() as u32 - 1)
    }

    fn zalloc(&mut self, zone: ZoneHandle) -> u64 {
        self.cross();
        // kmalloc on the Linux side.
        self.kernel.charge_cpu(90);
        if self.kernel.fault_at(cider_fault::FaultSite::Zalloc) {
            // Zone exhaustion: XNU's zalloc returns NULL and the
            // foreign subsystem maps it to KERN_RESOURCE_SHORTAGE.
            return 0;
        }
        let z = &mut self.state.zones[zone.0 as usize];
        z.live += 1;
        self.state.next_alloc += z.elem_size as u64;
        0xD000_0000 + self.state.next_alloc
    }

    fn zfree(&mut self, zone: ZoneHandle, _addr: u64) {
        self.cross();
        self.kernel.charge_cpu(60);
        let z = &mut self.state.zones[zone.0 as usize];
        debug_assert!(z.live > 0, "zfree underflow in zone {}", z.name);
        z.live = z.live.saturating_sub(1);
    }

    fn current_thread(&self) -> ForeignThread {
        ForeignThread(self.current.as_raw() as u64)
    }

    fn assert_wait(&mut self, event: Event) {
        self.cross();
        let chan = WaitChannel(event.0);
        let _ = self.kernel.block_thread(self.current, chan);
    }

    fn thread_block(&mut self) -> WaitResult {
        self.cross();
        // The simulator cannot suspend the host; the foreign code's
        // continuation-style callers handle Pending by retrying.
        WaitResult::Pending
    }

    fn thread_wakeup(&mut self, event: Event) -> usize {
        self.cross();
        self.kernel.wakeup(WaitChannel(event.0))
    }

    fn mach_absolute_time(&self) -> u64 {
        self.kernel.clock.now_ns()
    }

    fn kprintf(&mut self, msg: &str) {
        self.state.klog.push(msg.to_string());
    }

    fn vm_remap_pages(&mut self, pages: u64) -> bool {
        self.cross();
        if self.kernel.fault_at(cider_fault::FaultSite::OolRemapFail) {
            // vm_map_remap failed (fragmented target map, wired pages);
            // the IPC layer degrades to an inline copy.
            return false;
        }
        // Moving an OOL region is pure page-table surgery: one PTE per
        // page, no bytes touched.
        self.kernel
            .charge_cpu(self.kernel.profile.pte_copy_ns * pages);
        true
    }

    fn copyin(&mut self, bytes: u64) {
        self.cross();
        let ns = (bytes as f64 * self.kernel.profile.copy_byte_ns) as u64;
        self.kernel.charge_cpu(ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cider_kernel::profile::DeviceProfile;
    use cider_xnu::ipc::{MachIpc, UserMessage};

    fn setup() -> (Kernel, DuctTapeState, Tid) {
        let mut k = Kernel::boot(DeviceProfile::nexus7());
        let (_, tid) = k.spawn_process();
        (k, DuctTapeState::new(), tid)
    }

    #[test]
    fn locks_translate_and_charge() {
        let (mut k, mut st, tid) = setup();
        let before = k.clock.now_ns();
        let mut api = DuctTape::new(&mut k, &mut st, tid);
        let m = api.lck_mtx_alloc();
        api.lck_mtx_lock(m);
        api.lck_mtx_unlock(m);
        assert!(k.clock.now_ns() > before);
        assert_eq!(st.calls_translated, 3);
    }

    #[test]
    fn zones_account_allocations() {
        let (mut k, mut st, tid) = setup();
        let mut api = DuctTape::new(&mut k, &mut st, tid);
        let z = api.zinit("ipc.ports", 168);
        let a = api.zalloc(z);
        let b = api.zalloc(z);
        assert_ne!(a, b);
        api.zfree(z, a);
        assert_eq!(st.live_allocations(), 1);
        assert_eq!(st.zones()[0].name, "ipc.ports");
    }

    #[test]
    fn current_thread_maps_tid() {
        let (mut k, mut st, tid) = setup();
        let api = DuctTape::new(&mut k, &mut st, tid);
        assert_eq!(api.current_thread().0, tid.as_raw() as u64);
    }

    #[test]
    fn wait_and_wakeup_bridge_to_kernel_channels() {
        let (mut k, mut st, tid) = setup();
        {
            let mut api = DuctTape::new(&mut k, &mut st, tid);
            api.assert_wait(Event(0x42));
            assert_eq!(api.thread_block(), WaitResult::Pending);
        }
        assert!(matches!(
            k.thread(tid).unwrap().state,
            cider_kernel::process::ThreadState::Blocked(_)
        ));
        let mut api = DuctTape::new(&mut k, &mut st, tid);
        assert_eq!(api.thread_wakeup(Event(0x42)), 1);
    }

    #[test]
    fn mach_ipc_runs_on_the_domestic_kernel() {
        // The headline integration: unmodified foreign Mach IPC code
        // executing against the domestic kernel through duct tape.
        let (mut k, mut st, tid) = setup();
        let mut ipc = MachIpc::new();
        {
            let mut api = DuctTape::new(&mut k, &mut st, tid);
            ipc.bootstrap(&mut api);
            let task = ipc.create_space();
            let recv = ipc.alloc_receive(&mut api, task).unwrap();
            let send = ipc.insert_send(task, recv).unwrap();
            ipc.send(
                &mut api,
                task,
                UserMessage::simple(send.name(), 7, &b"through duct tape"[..]),
            )
            .unwrap();
            let got = ipc.receive(&mut api, task, recv).unwrap();
            assert_eq!(&got.body[..], b"through duct tape");
        }
        ipc.check_invariants();
        // The foreign code's zinit/zalloc went through the adapter.
        assert!(st.live_allocations() > 0);
        assert!(st.klog.iter().any(|l| l.contains("bootstrap")));
        assert!(st.calls_translated > 4);
    }

    #[test]
    fn virtual_time_flows_through() {
        let (mut k, mut st, tid) = setup();
        k.charge_raw(1234);
        let api = DuctTape::new(&mut k, &mut st, tid);
        assert_eq!(api.mach_absolute_time(), 1234);
    }
}
