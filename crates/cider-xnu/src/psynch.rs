//! Kernel-side pthread support (`bsd/kern/pthread_support.c`).
//!
//! "The iOS user space pthread library makes extensive use of kernel-level
//! support for mutexes, semaphores, and condition variables, none of which
//! are present in the Linux kernel. ... Cider uses duct tape to directly
//! compile this file without modification" (§4.2). This module is that
//! file's stand-in: the `psynch_*` entry points iOS's libpthread traps
//! into, keyed by user-space addresses, written against the foreign
//! kernel API only.
//!
//! Because the simulator cannot suspend host threads, blocking calls
//! return [`PsynchOutcome::Blocked`] after parking the thread through
//! `assert_wait`/`thread_block`; the caller retries after a wakeup —
//! XNU's own continuation style, flattened.

use std::collections::BTreeMap;

use crate::api::{Event, ForeignKernelApi, ForeignThread, WaitResult};
use crate::kern_return::{KernResult, KernReturn};
use crate::queue::XnuQueue;

/// Result of a potentially blocking psynch operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PsynchOutcome {
    /// The caller acquired the object / was signalled.
    Acquired,
    /// The caller is parked; retry after wakeup.
    Blocked,
}

#[derive(Debug, Clone, Default)]
struct KernelMutex {
    owner: Option<ForeignThread>,
    waiters: XnuQueue<ForeignThread>,
    /// Lock sequence number, as the real psynch protocol carries.
    lseq: u32,
}

#[derive(Debug, Clone, Default)]
struct KernelCondvar {
    waiters: XnuQueue<ForeignThread>,
    cseq: u32,
}

#[derive(Debug, Clone, Default)]
struct KernelSemaphore {
    count: i32,
    waiters: XnuQueue<ForeignThread>,
}

/// The psynch state tables, keyed by user-space object addresses exactly
/// as XNU keys them.
#[derive(Debug, Clone, Default)]
pub struct PsynchState {
    mutexes: BTreeMap<u64, KernelMutex>,
    condvars: BTreeMap<u64, KernelCondvar>,
    semaphores: BTreeMap<u64, KernelSemaphore>,
}

const MTX_EVENT_BASE: u64 = 0x2000_0000;
const CV_EVENT_BASE: u64 = 0x3000_0000;
const SEM_EVENT_BASE: u64 = 0x4000_0000;

/// The wait event of the psynch object at user address `addr` in the
/// object class starting at `base`. User space picks the address, so the
/// sum wraps instead of overflowing: a trap cannot panic the kernel.
fn event(base: u64, addr: u64) -> Event {
    Event(base.wrapping_add(addr))
}

impl PsynchState {
    /// Empty tables.
    pub fn new() -> PsynchState {
        PsynchState::default()
    }

    // ------------------------------------------------------------------
    // Mutexes (`psynch_mutexwait` / `psynch_mutexdrop`).
    // ------------------------------------------------------------------

    /// `psynch_mutexwait`: acquire the mutex at `addr` or park.
    pub fn mutexwait(
        &mut self,
        api: &mut dyn ForeignKernelApi,
        addr: u64,
    ) -> PsynchOutcome {
        let me = api.current_thread();
        let m = self.mutexes.entry(addr).or_default();
        match m.owner {
            None => {
                m.owner = Some(me);
                m.lseq += 1;
                PsynchOutcome::Acquired
            }
            Some(owner) if owner == me => {
                // Recursive acquisition attempt: XNU would return the
                // kwe unchanged; we treat it as acquired (non-checking
                // mutex semantics).
                PsynchOutcome::Acquired
            }
            Some(_) => {
                m.waiters.enqueue_tail(me);
                api.assert_wait(event(MTX_EVENT_BASE, addr));
                match api.thread_block() {
                    WaitResult::Awakened => PsynchOutcome::Acquired,
                    _ => PsynchOutcome::Blocked,
                }
            }
        }
    }

    /// `psynch_mutexdrop`: release the mutex; ownership passes directly
    /// to the first waiter, which is woken.
    ///
    /// # Errors
    ///
    /// `InvalidArgument` if the caller does not own the mutex.
    pub fn mutexdrop(
        &mut self,
        api: &mut dyn ForeignKernelApi,
        addr: u64,
    ) -> KernResult<()> {
        let me = api.current_thread();
        let m = self
            .mutexes
            .get_mut(&addr)
            .ok_or(KernReturn::InvalidArgument)?;
        if m.owner != Some(me) {
            return Err(KernReturn::InvalidArgument);
        }
        m.owner = m.waiters.dequeue_head();
        if m.owner.is_some() {
            m.lseq += 1;
            api.thread_wakeup(event(MTX_EVENT_BASE, addr));
        }
        Ok(())
    }

    /// Current owner of the mutex at `addr`.
    pub fn mutex_owner(&self, addr: u64) -> Option<ForeignThread> {
        self.mutexes.get(&addr).and_then(|m| m.owner)
    }

    /// Waiters parked on the mutex at `addr`.
    pub fn mutex_waiters(&self, addr: u64) -> usize {
        self.mutexes
            .get(&addr)
            .map(|m| m.waiters.len())
            .unwrap_or(0)
    }

    // ------------------------------------------------------------------
    // Condition variables (`psynch_cvwait` / `cvsignal` / `cvbroad`).
    // ------------------------------------------------------------------

    /// `psynch_cvwait`: atomically drop the mutex at `mutex_addr` and
    /// park on the condvar at `cv_addr`.
    ///
    /// # Errors
    ///
    /// `InvalidArgument` if the caller does not own the mutex.
    pub fn cvwait(
        &mut self,
        api: &mut dyn ForeignKernelApi,
        cv_addr: u64,
        mutex_addr: u64,
    ) -> KernResult<PsynchOutcome> {
        let me = api.current_thread();
        self.mutexdrop(api, mutex_addr)?;
        let cv = self.condvars.entry(cv_addr).or_default();
        cv.waiters.enqueue_tail(me);
        api.assert_wait(event(CV_EVENT_BASE, cv_addr));
        match api.thread_block() {
            WaitResult::Awakened => Ok(PsynchOutcome::Acquired),
            _ => Ok(PsynchOutcome::Blocked),
        }
    }

    /// `psynch_cvsignal`: wakes one waiter; returns the woken thread.
    pub fn cvsignal(
        &mut self,
        api: &mut dyn ForeignKernelApi,
        cv_addr: u64,
    ) -> Option<ForeignThread> {
        let cv = self.condvars.get_mut(&cv_addr)?;
        let woken = cv.waiters.dequeue_head()?;
        cv.cseq += 1;
        api.thread_wakeup(event(CV_EVENT_BASE, cv_addr));
        Some(woken)
    }

    /// `psynch_cvbroad`: wakes all waiters; returns how many.
    pub fn cvbroadcast(
        &mut self,
        api: &mut dyn ForeignKernelApi,
        cv_addr: u64,
    ) -> usize {
        let Some(cv) = self.condvars.get_mut(&cv_addr) else {
            return 0;
        };
        let mut n = 0;
        while cv.waiters.dequeue_head().is_some() {
            n += 1;
        }
        if n > 0 {
            cv.cseq += 1;
            api.thread_wakeup(event(CV_EVENT_BASE, cv_addr));
        }
        n
    }

    /// Waiters parked on the condvar at `addr`.
    pub fn cv_waiters(&self, addr: u64) -> usize {
        self.condvars
            .get(&addr)
            .map(|c| c.waiters.len())
            .unwrap_or(0)
    }

    // ------------------------------------------------------------------
    // Semaphores (`semaphore_create` / `wait` / `signal` traps).
    // ------------------------------------------------------------------

    /// `semaphore_create` with an initial count.
    pub fn semaphore_create(&mut self, addr: u64, value: i32) {
        self.semaphores.insert(
            addr,
            KernelSemaphore {
                count: value,
                waiters: XnuQueue::new(),
            },
        );
    }

    /// `semaphore_wait_trap`.
    ///
    /// # Errors
    ///
    /// `InvalidArgument` for unknown semaphores.
    pub fn semaphore_wait(
        &mut self,
        api: &mut dyn ForeignKernelApi,
        addr: u64,
    ) -> KernResult<PsynchOutcome> {
        let me = api.current_thread();
        let s = self
            .semaphores
            .get_mut(&addr)
            .ok_or(KernReturn::InvalidArgument)?;
        if s.count > 0 {
            s.count -= 1;
            Ok(PsynchOutcome::Acquired)
        } else {
            s.waiters.enqueue_tail(me);
            api.assert_wait(event(SEM_EVENT_BASE, addr));
            match api.thread_block() {
                WaitResult::Awakened => Ok(PsynchOutcome::Acquired),
                _ => Ok(PsynchOutcome::Blocked),
            }
        }
    }

    /// `semaphore_signal_trap`: wakes one waiter or increments the count.
    ///
    /// # Errors
    ///
    /// `InvalidArgument` for unknown semaphores.
    pub fn semaphore_signal(
        &mut self,
        api: &mut dyn ForeignKernelApi,
        addr: u64,
    ) -> KernResult<()> {
        let s = self
            .semaphores
            .get_mut(&addr)
            .ok_or(KernReturn::InvalidArgument)?;
        if s.waiters.dequeue_head().is_some() {
            api.thread_wakeup(event(SEM_EVENT_BASE, addr));
        } else {
            s.count += 1;
        }
        Ok(())
    }

    /// Current semaphore count.
    pub fn semaphore_count(&self, addr: u64) -> Option<i32> {
        self.semaphores.get(&addr).map(|s| s.count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::MockForeignKernel;

    const M: u64 = 0x1000;
    const CV: u64 = 0x2000;
    const SEM: u64 = 0x3000;

    #[test]
    fn uncontended_mutex_acquires() {
        let mut api = MockForeignKernel::new();
        let mut ps = PsynchState::new();
        assert_eq!(ps.mutexwait(&mut api, M), PsynchOutcome::Acquired);
        assert_eq!(ps.mutex_owner(M), Some(ForeignThread(1)));
        ps.mutexdrop(&mut api, M).unwrap();
        assert_eq!(ps.mutex_owner(M), None);
    }

    #[test]
    fn contended_mutex_blocks_then_hands_off() {
        let mut api = MockForeignKernel::new();
        let mut ps = PsynchState::new();
        api.thread = ForeignThread(1);
        assert_eq!(ps.mutexwait(&mut api, M), PsynchOutcome::Acquired);
        api.thread = ForeignThread(2);
        assert_eq!(ps.mutexwait(&mut api, M), PsynchOutcome::Blocked);
        assert_eq!(ps.mutex_waiters(M), 1);
        // Owner drops: ownership hands directly to the waiter.
        api.thread = ForeignThread(1);
        ps.mutexdrop(&mut api, M).unwrap();
        assert_eq!(ps.mutex_owner(M), Some(ForeignThread(2)));
        assert_eq!(ps.mutex_waiters(M), 0);
    }

    #[test]
    fn drop_by_non_owner_rejected() {
        let mut api = MockForeignKernel::new();
        let mut ps = PsynchState::new();
        api.thread = ForeignThread(1);
        ps.mutexwait(&mut api, M);
        api.thread = ForeignThread(2);
        assert_eq!(
            ps.mutexdrop(&mut api, M).unwrap_err(),
            KernReturn::InvalidArgument
        );
    }

    #[test]
    fn cvwait_drops_mutex_and_parks() {
        let mut api = MockForeignKernel::new();
        let mut ps = PsynchState::new();
        ps.mutexwait(&mut api, M);
        let out = ps.cvwait(&mut api, CV, M).unwrap();
        assert_eq!(out, PsynchOutcome::Blocked);
        assert_eq!(ps.mutex_owner(M), None);
        assert_eq!(ps.cv_waiters(CV), 1);
    }

    #[test]
    fn cvsignal_wakes_one_broadcast_wakes_all() {
        let mut api = MockForeignKernel::new();
        let mut ps = PsynchState::new();
        for t in 1..=3 {
            api.thread = ForeignThread(t);
            ps.mutexwait(&mut api, M);
            ps.cvwait(&mut api, CV, M).unwrap();
        }
        assert_eq!(ps.cv_waiters(CV), 3);
        assert_eq!(ps.cvsignal(&mut api, CV), Some(ForeignThread(1)));
        assert_eq!(ps.cv_waiters(CV), 2);
        assert_eq!(ps.cvbroadcast(&mut api, CV), 2);
        assert_eq!(ps.cv_waiters(CV), 0);
        assert_eq!(ps.cvsignal(&mut api, CV), None);
    }

    #[test]
    fn mutex_handoff_is_fair_fifo_across_three_waiters() {
        let mut api = MockForeignKernel::new();
        let mut ps = PsynchState::new();
        api.thread = ForeignThread(1);
        assert_eq!(ps.mutexwait(&mut api, M), PsynchOutcome::Acquired);
        // Three contenders park in arrival order.
        for t in 2..=4 {
            api.thread = ForeignThread(t);
            assert_eq!(ps.mutexwait(&mut api, M), PsynchOutcome::Blocked);
        }
        assert_eq!(ps.mutex_waiters(M), 3);
        // Each drop hands the lock to the oldest waiter, never to a
        // later arrival (no barging).
        for t in 1..=3 {
            api.thread = ForeignThread(t);
            ps.mutexdrop(&mut api, M).unwrap();
            assert_eq!(
                ps.mutex_owner(M),
                Some(ForeignThread(t + 1)),
                "drop by {t} must hand off to {}",
                t + 1
            );
            assert_eq!(ps.mutex_waiters(M), (3 - t) as usize);
        }
        api.thread = ForeignThread(4);
        ps.mutexdrop(&mut api, M).unwrap();
        assert_eq!(ps.mutex_owner(M), None);
    }

    #[test]
    fn cond_wake_counts_are_exact_under_virtual_clock() {
        let mut api = MockForeignKernel::new();
        let mut ps = PsynchState::new();
        // Waiters arrive at distinct virtual times; the wake counts and
        // order must depend only on arrival order, not on the clock.
        for t in 1..=4 {
            api.thread = ForeignThread(t);
            api.now += 1_000 * t;
            ps.mutexwait(&mut api, M);
            assert_eq!(
                ps.cvwait(&mut api, CV, M).unwrap(),
                PsynchOutcome::Blocked
            );
        }
        assert_eq!(ps.cv_waiters(CV), 4);
        // Signals wake exactly one each, oldest first.
        api.now += 5_000;
        assert_eq!(ps.cvsignal(&mut api, CV), Some(ForeignThread(1)));
        assert_eq!(ps.cvsignal(&mut api, CV), Some(ForeignThread(2)));
        assert_eq!(ps.cv_waiters(CV), 2);
        // Broadcast wakes exactly the remaining two, no more.
        assert_eq!(ps.cvbroadcast(&mut api, CV), 2);
        assert_eq!(ps.cv_waiters(CV), 0);
        // Wakes on an empty condvar observe nothing.
        assert_eq!(ps.cvsignal(&mut api, CV), None);
        assert_eq!(ps.cvbroadcast(&mut api, CV), 0);
    }

    #[test]
    fn semaphore_counts_and_blocks() {
        let mut api = MockForeignKernel::new();
        let mut ps = PsynchState::new();
        ps.semaphore_create(SEM, 1);
        assert_eq!(
            ps.semaphore_wait(&mut api, SEM).unwrap(),
            PsynchOutcome::Acquired
        );
        assert_eq!(
            ps.semaphore_wait(&mut api, SEM).unwrap(),
            PsynchOutcome::Blocked
        );
        // Signal wakes the waiter rather than bumping the count.
        ps.semaphore_signal(&mut api, SEM).unwrap();
        assert_eq!(ps.semaphore_count(SEM), Some(0));
        // Signal with no waiters increments.
        ps.semaphore_signal(&mut api, SEM).unwrap();
        assert_eq!(ps.semaphore_count(SEM), Some(1));
    }

    #[test]
    fn objects_at_the_top_of_the_address_space_do_not_overflow() {
        // User space chooses the addresses; every wait and wakeup on an
        // object near u64::MAX must park and hand off, not panic.
        let mut api = MockForeignKernel::new();
        let mut ps = PsynchState::new();
        let (m, cv, sem) = (u64::MAX, u64::MAX - 1, u64::MAX - 2);
        api.thread = ForeignThread(1);
        assert_eq!(ps.mutexwait(&mut api, m), PsynchOutcome::Acquired);
        api.thread = ForeignThread(2);
        assert_eq!(ps.mutexwait(&mut api, m), PsynchOutcome::Blocked);
        api.thread = ForeignThread(1);
        ps.mutexdrop(&mut api, m).unwrap();
        assert_eq!(ps.mutex_owner(m), Some(ForeignThread(2)));
        for t in [2, 3] {
            api.thread = ForeignThread(t);
            ps.mutexwait(&mut api, m);
            assert_eq!(
                ps.cvwait(&mut api, cv, m).unwrap(),
                PsynchOutcome::Blocked
            );
        }
        assert_eq!(ps.cvsignal(&mut api, cv), Some(ForeignThread(2)));
        assert_eq!(ps.cvbroadcast(&mut api, cv), 1);
        ps.semaphore_create(sem, 0);
        assert_eq!(
            ps.semaphore_wait(&mut api, sem).unwrap(),
            PsynchOutcome::Blocked
        );
        ps.semaphore_signal(&mut api, sem).unwrap();
        assert_eq!(ps.semaphore_count(sem), Some(0));
    }

    #[test]
    fn unknown_objects_rejected() {
        let mut api = MockForeignKernel::new();
        let mut ps = PsynchState::new();
        assert!(ps.mutexdrop(&mut api, 0xdead).is_err());
        assert!(ps.semaphore_wait(&mut api, 0xdead).is_err());
        assert!(ps.cvwait(&mut api, CV, 0xdead).is_err());
    }
}
