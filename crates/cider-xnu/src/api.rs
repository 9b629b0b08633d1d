//! The foreign kernel's view of its host: the "external symbols" that
//! XNU-derived code expects to link against.
//!
//! Everything in this crate is written **only** against
//! [`ForeignKernelApi`] — never against the domestic kernel directly.
//! This is the reproduction's equivalent of the paper's duct-tape
//! discipline: "code in the foreign zone cannot access symbols in the
//! domestic zone" (§4.2). The duct-tape crate supplies the one
//! implementation of this trait, translating each foreign kernel API
//! (locking, zone allocation, thread block/wakeup, time) onto domestic
//! kernel primitives.

use std::fmt;

/// Opaque handle to a mutex lock (`lck_mtx_t *`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LckMtx(pub u64);

/// Handle to an allocation zone (`zone_t`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ZoneHandle(pub u32);

/// The foreign kernel's notion of a thread (`thread_t`). The duct-tape
/// adapter maps these to domestic `Tid`s.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default,
)]
pub struct ForeignThread(pub u64);

/// An XNU wait event (`event_t`) — an opaque address threads sleep on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Event(pub u64);

/// Result of `thread_block`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitResult {
    /// The thread was woken by an event.
    Awakened,
    /// The simulator cannot suspend the host thread; the caller must
    /// return a "would block" status and be retried after the wakeup.
    /// (XNU's `THREAD_WAITING` continuation style, flattened.)
    Pending,
    /// The wait was interrupted.
    Interrupted,
}

/// Foreign kernel services, as XNU source expects them.
///
/// Method names deliberately mirror the XNU symbols the paper's duct-tape
/// layer remaps (`lck_mtx_lock`, `zalloc`, `thread_wakeup`, ...).
pub trait ForeignKernelApi {
    /// `lck_mtx_alloc_init`.
    fn lck_mtx_alloc(&mut self) -> LckMtx;
    /// `lck_mtx_lock`.
    fn lck_mtx_lock(&mut self, m: LckMtx);
    /// `lck_mtx_unlock`.
    fn lck_mtx_unlock(&mut self, m: LckMtx);

    /// `zinit`: creates a named allocation zone of fixed element size.
    fn zinit(&mut self, name: &str, elem_size: usize) -> ZoneHandle;
    /// `zalloc`: allocates one element, returning its address.
    fn zalloc(&mut self, zone: ZoneHandle) -> u64;
    /// `zfree`.
    fn zfree(&mut self, zone: ZoneHandle, addr: u64);

    /// `current_thread`.
    fn current_thread(&self) -> ForeignThread;
    /// `assert_wait`: declares intent to sleep on an event.
    fn assert_wait(&mut self, event: Event);
    /// `thread_block`: parks the current thread (see [`WaitResult`]).
    fn thread_block(&mut self) -> WaitResult;
    /// `thread_wakeup`: wakes all threads sleeping on `event`; returns
    /// how many were woken.
    fn thread_wakeup(&mut self, event: Event) -> usize;

    /// `mach_absolute_time` (virtual nanoseconds).
    fn mach_absolute_time(&self) -> u64;
    /// `kprintf` diagnostics.
    fn kprintf(&mut self, msg: &str);

    /// `vm_map_copyin`/`vm_map_copyout` by remap: moves `pages` whole
    /// pages of an out-of-line message region from sender to receiver by
    /// retargeting page tables instead of copying bytes. Returns `false`
    /// when the host cannot (or, under fault injection, will not) remap —
    /// the caller must fall back to an inline copy.
    fn vm_remap_pages(&mut self, pages: u64) -> bool;
    /// Inline boundary copy of `bytes` payload bytes (`copyin`/`copyout`).
    fn copyin(&mut self, bytes: u64);
}

impl fmt::Debug for dyn ForeignKernelApi + '_ {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ForeignKernelApi(thread={:?})", self.current_thread())
    }
}

/// A self-contained in-memory implementation of the foreign kernel API,
/// used by this crate's unit tests so the foreign subsystems can be
/// exercised without the domestic kernel (just as XNU code can be unit
/// tested against stub headers).
#[derive(Debug, Default)]
pub struct MockForeignKernel {
    next_lock: u64,
    next_zone: u32,
    next_addr: u64,
    /// Lock/unlock call log: (handle, locked?).
    pub lock_ops: Vec<(LckMtx, bool)>,
    /// Live zone allocations.
    pub live_allocs: usize,
    /// Current thread reported to callers.
    pub thread: ForeignThread,
    /// Threads "sleeping" per event.
    pub sleepers: std::collections::BTreeMap<u64, Vec<ForeignThread>>,
    pending_wait: Option<Event>,
    /// Virtual time.
    pub now: u64,
    /// kprintf log.
    pub log: Vec<String>,
    /// Pages moved by OOL remap.
    pub remapped_pages: u64,
    /// Bytes moved by inline copy.
    pub copied_bytes: u64,
    /// When set, `vm_remap_pages` refuses (tests the inline fallback).
    pub refuse_remap: bool,
}

impl MockForeignKernel {
    /// Fresh mock running as thread 1.
    pub fn new() -> MockForeignKernel {
        MockForeignKernel {
            thread: ForeignThread(1),
            ..Default::default()
        }
    }
}

impl ForeignKernelApi for MockForeignKernel {
    fn lck_mtx_alloc(&mut self) -> LckMtx {
        self.next_lock += 1;
        LckMtx(self.next_lock)
    }
    fn lck_mtx_lock(&mut self, m: LckMtx) {
        self.lock_ops.push((m, true));
    }
    fn lck_mtx_unlock(&mut self, m: LckMtx) {
        self.lock_ops.push((m, false));
    }
    fn zinit(&mut self, _name: &str, _elem_size: usize) -> ZoneHandle {
        self.next_zone += 1;
        ZoneHandle(self.next_zone)
    }
    fn zalloc(&mut self, _zone: ZoneHandle) -> u64 {
        self.next_addr += 0x100;
        self.live_allocs += 1;
        self.next_addr
    }
    fn zfree(&mut self, _zone: ZoneHandle, _addr: u64) {
        self.live_allocs -= 1;
    }
    fn current_thread(&self) -> ForeignThread {
        self.thread
    }
    fn assert_wait(&mut self, event: Event) {
        self.pending_wait = Some(event);
    }
    fn thread_block(&mut self) -> WaitResult {
        if let Some(ev) = self.pending_wait.take() {
            self.sleepers.entry(ev.0).or_default().push(self.thread);
        }
        WaitResult::Pending
    }
    fn thread_wakeup(&mut self, event: Event) -> usize {
        self.sleepers.remove(&event.0).map(|v| v.len()).unwrap_or(0)
    }
    fn mach_absolute_time(&self) -> u64 {
        self.now
    }
    fn kprintf(&mut self, msg: &str) {
        self.log.push(msg.to_string());
    }
    fn vm_remap_pages(&mut self, pages: u64) -> bool {
        if self.refuse_remap {
            return false;
        }
        self.remapped_pages += pages;
        true
    }
    fn copyin(&mut self, bytes: u64) {
        self.copied_bytes += bytes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mock_lock_ops_are_logged() {
        let mut k = MockForeignKernel::new();
        let m = k.lck_mtx_alloc();
        k.lck_mtx_lock(m);
        k.lck_mtx_unlock(m);
        assert_eq!(k.lock_ops, vec![(m, true), (m, false)]);
    }

    #[test]
    fn mock_zone_accounting() {
        let mut k = MockForeignKernel::new();
        let z = k.zinit("ipc.ports", 128);
        let a = k.zalloc(z);
        let b = k.zalloc(z);
        assert_ne!(a, b);
        assert_eq!(k.live_allocs, 2);
        k.zfree(z, a);
        assert_eq!(k.live_allocs, 1);
    }

    #[test]
    fn mock_wait_and_wakeup() {
        let mut k = MockForeignKernel::new();
        k.assert_wait(Event(0xdead));
        assert_eq!(k.thread_block(), WaitResult::Pending);
        assert_eq!(k.thread_wakeup(Event(0xdead)), 1);
        assert_eq!(k.thread_wakeup(Event(0xdead)), 0);
    }
}
