//! Deterministic virtual-time preemptive scheduler.
//!
//! The paper's core claim is *per-thread* personas: Cider schedules iOS
//! and Android threads side by side on one kernel, and lmbench's
//! `lat_ctx` rows (Figure 5) prove the multiplexed trap path does not tax
//! context switching. This crate owns the machinery that makes that
//! reproducible in simulation:
//!
//! * **per-priority run queues** over XNU's 0..=127 priority space
//!   (MLFQ-style: quantum expiry demotes timeshare threads, a periodic
//!   boost returns everyone to the top user band so nothing starves);
//! * **a seedable deterministic tie-breaker** — when several threads sit
//!   in the highest occupied band, a [`SplitMix64`] stream seeded at
//!   construction picks among them, so a fixed seed reproduces a
//!   byte-identical context-switch sequence and a different seed explores
//!   a different (but equally deterministic) interleaving;
//! * **time-slice accounting in virtual nanoseconds** — the kernel
//!   charges each trap's elapsed virtual time against the running
//!   thread's quantum and asks the scheduler whether a preemption is due
//!   at the trap-return boundary.
//!
//! The scheduler never touches the clock itself: it is a pure decision
//! structure. The kernel remains responsible for charging context-switch
//! cost and mutating `Thread::state`; this crate only answers *who runs
//! next* and *when to ask*.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;

use cider_abi::codec::RecordWriter;
use cider_abi::ids::Tid;
use cider_abi::persona::Persona;
use cider_abi::sched::{
    SchedPolicy, BASEPRI_DEFAULT, DEPRESSPRI, MAXPRI_USER, PRIORITY_LEVELS,
};
use cider_fault::SplitMix64;

/// Default time slice, virtual nanoseconds (10 ms, XNU's default
/// timeshare quantum on the devices the paper measured).
pub const QUANTUM_NS: u64 = 10_000_000;

/// Period of the MLFQ anti-starvation boost, virtual nanoseconds: every
/// 100 ms of virtual time all timeshare threads return to the top user
/// band, guaranteeing a starved low-priority thread eventually runs.
pub const BOOST_PERIOD_NS: u64 = 100_000_000;

/// Priority bands dropped on each quantum expiry (timeshare only).
pub const DEMOTE_STEP: u8 = 4;

/// Run-state the scheduler tracks for a thread. Mirrors (but does not
/// own) the kernel's `ThreadState`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RunState {
    /// In some run queue.
    Queued,
    /// Currently dispatched on the (single) virtual CPU.
    Running,
    /// Parked on a wait channel; not in any queue.
    Blocked,
}

/// Per-thread scheduling record.
#[derive(Debug, Clone)]
struct SchedEntry {
    /// Base priority: the band the thread returns to after boost decay
    /// and the reference point for `thread_policy_set` importance.
    base_pri: u8,
    /// Effective priority: the band the thread is queued in right now
    /// (demoted on quantum expiry, boosted periodically, depressed by
    /// `swtch_pri`).
    eff_pri: u8,
    /// Remaining time slice, virtual ns.
    quantum_left_ns: u64,
    /// Scheduling identity: which persona's workload this thread is
    /// accounted to. Set once when the persona is attached; a diplomatic
    /// `set_persona` call must *not* change it.
    persona: Persona,
    /// Timeshare vs fixed-priority.
    policy: SchedPolicy,
    /// Saved effective priority while depressed by `swtch_pri` /
    /// `thread_switch(SWITCH_OPTION_DEPRESS)`; restored on next dispatch.
    depressed_from: Option<u8>,
    /// Run state.
    state: RunState,
}

/// One scheduling decision, returned by [`Scheduler::pick_next`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decision {
    /// The thread to run.
    pub tid: Tid,
    /// Number of runnable threads left queued *after* removing `tid`.
    pub queued_after: usize,
}

/// Deterministic MLFQ scheduler over virtual time.
#[derive(Debug, Clone)]
pub struct Scheduler {
    entries: BTreeMap<u32, SchedEntry>,
    /// One FIFO per priority band; index = effective priority.
    queues: Vec<VecDeque<u32>>,
    /// Seeded tie-breaker stream.
    rng: SplitMix64,
    seed: u64,
    /// Virtual instant of the last anti-starvation boost.
    last_boost_ns: u64,
    /// Set when a preemption is due at the next trap-return boundary.
    need_resched: bool,
    /// The most recent voluntary yielder: it loses the next tie-break in
    /// its own band, so `sched_yield`/`swtch` really hand off whenever a
    /// band peer is queued. Consumed by [`Scheduler::pick_next`].
    yielded: Option<u32>,
}

impl Scheduler {
    /// A scheduler whose tie-breaker stream starts from `seed`.
    pub fn new(seed: u64) -> Scheduler {
        Scheduler {
            entries: BTreeMap::new(),
            queues: vec![VecDeque::new(); PRIORITY_LEVELS],
            rng: SplitMix64::new(seed),
            seed,
            last_boost_ns: 0,
            need_resched: false,
            yielded: None,
        }
    }

    /// The seed the tie-breaker stream started from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Restarts the tie-breaker stream from a new seed. Existing queue
    /// contents are kept; only future tie-breaks change.
    pub fn reseed(&mut self, seed: u64) {
        self.rng = SplitMix64::new(seed);
        self.seed = seed;
    }

    // ------------------------------------------------------------------
    // Thread lifecycle.
    // ------------------------------------------------------------------

    /// Registers a new runnable thread at the default timeshare priority.
    pub fn register(&mut self, tid: Tid, persona: Persona) {
        let entry = SchedEntry {
            base_pri: BASEPRI_DEFAULT,
            eff_pri: BASEPRI_DEFAULT,
            quantum_left_ns: QUANTUM_NS,
            persona,
            policy: SchedPolicy::Timeshare,
            depressed_from: None,
            state: RunState::Queued,
        };
        self.entries.insert(tid.0, entry);
        self.queues[BASEPRI_DEFAULT as usize].push_back(tid.0);
    }

    /// Forgets a thread entirely (exit or reap). Idempotent.
    pub fn remove(&mut self, tid: Tid) {
        if self.yielded == Some(tid.0) {
            self.yielded = None;
        }
        if self.entries.remove(&tid.0).is_some() {
            for q in &mut self.queues {
                q.retain(|&t| t != tid.0);
            }
        }
    }

    /// Whether the scheduler knows this thread.
    pub fn contains(&self, tid: Tid) -> bool {
        self.entries.contains_key(&tid.0)
    }

    // ------------------------------------------------------------------
    // Persona identity and policy.
    // ------------------------------------------------------------------

    /// Tags a thread's scheduling identity. Called once when a persona is
    /// attached; diplomatic persona switches leave it untouched.
    pub fn set_identity(&mut self, tid: Tid, persona: Persona) {
        if let Some(e) = self.entries.get_mut(&tid.0) {
            e.persona = persona;
        }
    }

    /// The thread's scheduling identity.
    pub fn identity(&self, tid: Tid) -> Option<Persona> {
        self.entries.get(&tid.0).map(|e| e.persona)
    }

    /// Sets the scheduling policy (timeshare vs fixed).
    pub fn set_policy(&mut self, tid: Tid, policy: SchedPolicy) {
        if let Some(e) = self.entries.get_mut(&tid.0) {
            e.policy = policy;
        }
    }

    /// Sets base (and effective) priority, requeueing if necessary.
    pub fn set_priority(&mut self, tid: Tid, pri: u8) {
        let pri = pri.min(MAXPRI_USER);
        let Some(e) = self.entries.get_mut(&tid.0) else {
            return;
        };
        e.base_pri = pri;
        e.depressed_from = None;
        let was_queued = e.state == RunState::Queued;
        let old = e.eff_pri;
        e.eff_pri = pri;
        if was_queued && old != pri {
            self.queues[old as usize].retain(|&t| t != tid.0);
            self.queues[pri as usize].push_back(tid.0);
        }
    }

    /// The thread's (base, effective) priorities.
    pub fn priority(&self, tid: Tid) -> Option<(u8, u8)> {
        self.entries.get(&tid.0).map(|e| (e.base_pri, e.eff_pri))
    }

    // ------------------------------------------------------------------
    // Block / wake / yield.
    // ------------------------------------------------------------------

    /// The thread parked on a wait channel: leave the queues.
    pub fn on_block(&mut self, tid: Tid) {
        let Some(e) = self.entries.get_mut(&tid.0) else {
            return;
        };
        if e.state == RunState::Queued {
            self.queues[e.eff_pri as usize].retain(|&t| t != tid.0);
        }
        self.entries.get_mut(&tid.0).unwrap().state = RunState::Blocked;
    }

    /// A blocked thread became runnable. Returns `true` when the wake
    /// should preempt the given running thread (strictly higher band).
    pub fn on_wake(&mut self, tid: Tid, current: Option<Tid>) -> bool {
        let Some(e) = self.entries.get_mut(&tid.0) else {
            return false;
        };
        if e.state != RunState::Blocked {
            return false;
        }
        e.state = RunState::Queued;
        e.quantum_left_ns = QUANTUM_NS;
        let woken_pri = e.eff_pri;
        self.queues[woken_pri as usize].push_back(tid.0);
        let preempts = current
            .and_then(|c| self.entries.get(&c.0))
            .is_some_and(|cur| woken_pri > cur.eff_pri);
        if preempts {
            self.need_resched = true;
        }
        preempts
    }

    /// Voluntary yield: requeue at the back of the thread's band and
    /// request a reschedule. The yielded thread keeps its band
    /// (`sched_yield` / `swtch` semantics — no demotion for politeness).
    pub fn yield_now(&mut self, tid: Tid) {
        let Some(e) = self.entries.get_mut(&tid.0) else {
            return;
        };
        if e.state == RunState::Blocked {
            return;
        }
        e.quantum_left_ns = QUANTUM_NS;
        e.state = RunState::Queued;
        let pri = e.eff_pri;
        self.queues[pri as usize].retain(|&t| t != tid.0);
        self.queues[pri as usize].push_back(tid.0);
        self.yielded = Some(tid.0);
        self.need_resched = true;
    }

    /// `swtch_pri` / `thread_switch(SWITCH_OPTION_DEPRESS)`: depress the
    /// thread to [`DEPRESSPRI`] until its next dispatch, then yield.
    pub fn depress(&mut self, tid: Tid) {
        let Some(e) = self.entries.get_mut(&tid.0) else {
            return;
        };
        if e.depressed_from.is_none() {
            e.depressed_from = Some(e.eff_pri);
        }
        let old = e.eff_pri;
        e.eff_pri = DEPRESSPRI;
        if e.state == RunState::Queued {
            self.queues[old as usize].retain(|&t| t != tid.0);
        }
        self.yield_now(tid);
    }

    /// Aborts a depression without waiting for the next dispatch
    /// (`thread_depress_abort` semantics).
    pub fn undepress(&mut self, tid: Tid) {
        let Some(e) = self.entries.get_mut(&tid.0) else {
            return;
        };
        let Some(saved) = e.depressed_from.take() else {
            return;
        };
        let old = e.eff_pri;
        e.eff_pri = saved;
        if e.state == RunState::Queued && old != saved {
            self.queues[old as usize].retain(|&t| t != tid.0);
            self.queues[saved as usize].push_back(tid.0);
        }
    }

    // ------------------------------------------------------------------
    // Time accounting and selection.
    // ------------------------------------------------------------------

    /// Charges `ns` of virtual CPU against `tid`'s quantum. On expiry a
    /// timeshare thread is demoted one MLFQ step and a reschedule is
    /// requested. Returns `true` when the quantum expired.
    pub fn charge(&mut self, tid: Tid, ns: u64, now_ns: u64) -> bool {
        self.maybe_boost(now_ns);
        let Some(e) = self.entries.get_mut(&tid.0) else {
            return false;
        };
        e.quantum_left_ns = e.quantum_left_ns.saturating_sub(ns);
        if e.quantum_left_ns > 0 {
            return false;
        }
        e.quantum_left_ns = QUANTUM_NS;
        if e.policy == SchedPolicy::Timeshare && e.depressed_from.is_none() {
            e.eff_pri = e.eff_pri.saturating_sub(DEMOTE_STEP);
        }
        self.need_resched = true;
        true
    }

    /// Whether a reschedule has been requested since the last
    /// [`Scheduler::take_resched`].
    pub fn resched_pending(&self) -> bool {
        self.need_resched
    }

    /// Consumes the pending-reschedule flag.
    pub fn take_resched(&mut self) -> bool {
        std::mem::take(&mut self.need_resched)
    }

    /// Picks the next thread: the highest non-empty band wins; within a
    /// band the seeded stream breaks the tie (one runnable thread costs
    /// no randomness, keeping single-threaded runs seed-independent).
    /// A voluntary yielder loses the tie-break in its own band, so a
    /// yield always hands off to a band peer when one is queued — but
    /// never cedes to a strictly lower band (POSIX `sched_yield` and
    /// Mach `swtch` semantics; `swtch_pri` depresses first to do that).
    /// The picked thread is dequeued; the caller must follow up with
    /// [`Scheduler::on_dispatch`].
    pub fn pick_next(&mut self, now_ns: u64) -> Option<Decision> {
        self.maybe_boost(now_ns);
        let yielded = self.yielded.take();
        let band = (0..PRIORITY_LEVELS)
            .rev()
            .find(|&p| !self.queues[p].is_empty())?;
        let q = &mut self.queues[band];
        let ypos = yielded.and_then(|y| q.iter().position(|&t| t == y));
        let idx = match ypos {
            // The yielder shares the band with peers: pick among the
            // others only (two-thread ping-pong costs no randomness).
            Some(ypos) if q.len() > 1 => {
                let n = q.len() - 1;
                let k = if n == 1 {
                    0
                } else {
                    self.rng.below(n as u64) as usize
                };
                if k >= ypos {
                    k + 1
                } else {
                    k
                }
            }
            // The yielder is alone in the top band (or not in it at
            // all): ordinary selection.
            _ => {
                if q.len() == 1 {
                    0
                } else {
                    self.rng.below(q.len() as u64) as usize
                }
            }
        };
        let raw = q.remove(idx).expect("non-empty band");
        let queued_after = self.queued_depth();
        Some(Decision {
            tid: Tid(raw),
            queued_after,
        })
    }

    /// Marks `tid` as the running thread: removes it from any queue,
    /// lifts a `swtch_pri` depression, and recharges its quantum. Used
    /// both after [`Scheduler::pick_next`] and when the kernel switches
    /// threads explicitly.
    pub fn on_dispatch(&mut self, tid: Tid) {
        let Some(e) = self.entries.get_mut(&tid.0) else {
            return;
        };
        if e.state == RunState::Queued {
            let pri = e.eff_pri;
            self.queues[pri as usize].retain(|&t| t != tid.0);
        }
        e.state = RunState::Running;
        e.quantum_left_ns = QUANTUM_NS;
        if let Some(saved) = e.depressed_from.take() {
            e.eff_pri = saved;
        }
    }

    /// The previously running thread was descheduled but stays runnable:
    /// put it back at the tail of its band.
    pub fn requeue(&mut self, tid: Tid) {
        let Some(e) = self.entries.get_mut(&tid.0) else {
            return;
        };
        if e.state == RunState::Blocked {
            return;
        }
        let pri = e.eff_pri as usize;
        if !self.queues[pri].contains(&tid.0) {
            self.queues[pri].push_back(tid.0);
        }
        self.entries.get_mut(&tid.0).unwrap().state = RunState::Queued;
    }

    /// Number of threads sitting in run queues (excludes the running
    /// thread and blocked threads).
    pub fn queued_depth(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }

    /// Whether any *other* thread is queued runnable — the `swtch`
    /// boolean.
    pub fn other_runnable(&self, tid: Tid) -> bool {
        self.queues.iter().any(|q| q.iter().any(|&t| t != tid.0))
    }

    /// Writes the scheduler's complete observable state as stable
    /// `(key, value)` records for whole-device checkpointing: the
    /// tie-breaker stream position, boost bookkeeping, every
    /// per-thread entry (in tid order), and the occupied run queues
    /// (band-major FIFO order). Two schedulers that write these
    /// records identically are behaviourally indistinguishable.
    pub fn write_ckpt(&self, s: &mut RecordWriter<'_>) {
        s.record("seed", self.seed);
        s.record("rng_state", format_args!("{:016x}", self.rng.state()));
        s.record("last_boost_ns", self.last_boost_ns);
        s.record("need_resched", self.need_resched);
        s.record("yielded", or_dash(self.yielded));
        for (tid, e) in &self.entries {
            s.record(
                format_args!("tid:{tid}"),
                format_args!(
                    "base={} eff={} quantum_ns={} persona={:?} \
                     policy={:?} depressed={} state={:?}",
                    e.base_pri,
                    e.eff_pri,
                    e.quantum_left_ns,
                    e.persona,
                    e.policy,
                    or_dash(e.depressed_from),
                    e.state
                ),
            );
        }
        for (pri, q) in self.queues.iter().enumerate() {
            if !q.is_empty() {
                let ids = fmt::from_fn(|f| {
                    for (i, t) in q.iter().enumerate() {
                        let sep = if i == 0 { "" } else { "," };
                        write!(f, "{sep}{t}")?;
                    }
                    Ok(())
                });
                s.record(format_args!("queue:{pri:03}"), ids);
            }
        }
    }

    /// MLFQ anti-starvation boost: every [`BOOST_PERIOD_NS`] of virtual
    /// time, every non-depressed timeshare thread returns to the top
    /// user band. FIFO order is preserved band-major (highest first), so
    /// the boost itself is deterministic.
    fn maybe_boost(&mut self, now_ns: u64) {
        if now_ns.saturating_sub(self.last_boost_ns) < BOOST_PERIOD_NS {
            return;
        }
        self.last_boost_ns = now_ns;
        let mut order: Vec<u32> = Vec::new();
        for p in (0..PRIORITY_LEVELS).rev() {
            order.extend(self.queues[p].drain(..));
        }
        for raw in order {
            let e = self.entries.get_mut(&raw).expect("queued entry");
            if e.policy == SchedPolicy::Timeshare && e.depressed_from.is_none()
            {
                e.eff_pri = MAXPRI_USER;
            }
            self.queues[e.eff_pri as usize].push_back(raw);
        }
        for e in self.entries.values_mut() {
            if e.state == RunState::Running
                && e.policy == SchedPolicy::Timeshare
                && e.depressed_from.is_none()
            {
                e.eff_pri = MAXPRI_USER;
            }
        }
    }
}

/// The value, or `-` when there is none.
fn or_dash(v: Option<impl fmt::Display>) -> impl fmt::Display {
    fmt::from_fn(move |f| match &v {
        Some(v) => write!(f, "{v}"),
        None => f.write_str("-"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(n: u32) -> Tid {
        Tid(n)
    }

    #[test]
    fn register_pick_dispatch_cycle() {
        let mut s = Scheduler::new(1);
        s.register(t(1), Persona::Domestic);
        let d = s.pick_next(0).unwrap();
        assert_eq!(d.tid, t(1));
        assert_eq!(d.queued_after, 0);
        s.on_dispatch(t(1));
        // Nothing else runnable.
        assert!(s.pick_next(0).is_none());
        assert!(!s.other_runnable(t(1)));
    }

    #[test]
    fn single_runnable_thread_consumes_no_randomness() {
        // Two schedulers with different seeds make identical decisions
        // while no tie exists, so single-threaded workloads are
        // seed-independent.
        let mut a = Scheduler::new(1);
        let mut b = Scheduler::new(999);
        for s in [&mut a, &mut b] {
            s.register(t(1), Persona::Domestic);
        }
        for now in [0, 10, 20] {
            assert_eq!(a.pick_next(now), b.pick_next(now));
            a.on_dispatch(t(1));
            b.on_dispatch(t(1));
            a.yield_now(t(1));
            b.yield_now(t(1));
        }
    }

    #[test]
    fn same_seed_reproduces_tie_breaks() {
        let run = |seed: u64| -> Vec<u32> {
            let mut s = Scheduler::new(seed);
            for i in 1..=4 {
                s.register(t(i), Persona::Domestic);
            }
            let mut order = Vec::new();
            for _ in 0..32 {
                let d = s.pick_next(0).unwrap();
                order.push(d.tid.0);
                s.on_dispatch(d.tid);
                s.yield_now(d.tid);
            }
            order
        };
        assert_eq!(run(42), run(42));
        // A different seed explores a different interleaving (with four
        // threads and 32 picks, a collision would be astronomically
        // unlikely — and any fixed pair of seeds is deterministic).
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn yield_always_hands_off_to_a_band_peer() {
        // Whatever the seed, a yielder with a same-band peer never wins
        // the tie-break — but it does keep the CPU over a lower band.
        for seed in [1, 2, 42, 0xC1DE] {
            let mut s = Scheduler::new(seed);
            s.register(t(1), Persona::Domestic);
            s.register(t(2), Persona::Domestic);
            s.register(t(3), Persona::Domestic);
            s.set_priority(t(3), 10);
            let d = s.pick_next(0).unwrap();
            s.on_dispatch(d.tid);
            let first = d.tid;
            s.yield_now(first);
            let d = s.pick_next(0).unwrap();
            assert_ne!(d.tid, first, "seed {seed}: yield must hand off");
            assert_ne!(d.tid, t(3), "lower band must not win a yield");
        }
    }

    #[test]
    fn higher_band_always_wins() {
        let mut s = Scheduler::new(7);
        s.register(t(1), Persona::Domestic);
        s.register(t(2), Persona::Foreign);
        s.set_priority(t(2), 50);
        for _ in 0..8 {
            let d = s.pick_next(0).unwrap();
            assert_eq!(d.tid, t(2));
            s.on_dispatch(t(2));
            s.yield_now(t(2));
        }
    }

    #[test]
    fn wake_of_higher_priority_requests_preemption() {
        let mut s = Scheduler::new(7);
        s.register(t(1), Persona::Domestic);
        s.register(t(2), Persona::Foreign);
        s.set_priority(t(2), 50);
        let d = s.pick_next(0).unwrap();
        assert_eq!(d.tid, t(2));
        s.on_dispatch(t(2));
        s.on_block(t(2));
        let d = s.pick_next(0).unwrap();
        assert_eq!(d.tid, t(1));
        s.on_dispatch(t(1));
        assert!(!s.resched_pending());
        assert!(s.on_wake(t(2), Some(t(1))));
        assert!(s.take_resched());
        assert_eq!(s.pick_next(0).unwrap().tid, t(2));
    }

    #[test]
    fn wake_of_equal_priority_does_not_preempt() {
        let mut s = Scheduler::new(7);
        s.register(t(1), Persona::Domestic);
        s.register(t(2), Persona::Domestic);
        s.on_dispatch(t(1));
        s.on_block(t(2));
        assert!(!s.on_wake(t(2), Some(t(1))));
        assert!(!s.resched_pending());
    }

    #[test]
    fn quantum_expiry_demotes_and_requests_resched() {
        let mut s = Scheduler::new(7);
        s.register(t(1), Persona::Domestic);
        s.on_dispatch(t(1));
        assert!(!s.charge(t(1), QUANTUM_NS / 2, 0));
        assert!(!s.resched_pending());
        assert!(s.charge(t(1), QUANTUM_NS / 2, 0));
        assert!(s.take_resched());
        let (base, eff) = s.priority(t(1)).unwrap();
        assert_eq!(base, BASEPRI_DEFAULT);
        assert_eq!(eff, BASEPRI_DEFAULT - DEMOTE_STEP);
    }

    #[test]
    fn fixed_policy_is_never_demoted() {
        let mut s = Scheduler::new(7);
        s.register(t(1), Persona::Foreign);
        s.set_policy(t(1), SchedPolicy::Fixed);
        s.on_dispatch(t(1));
        assert!(s.charge(t(1), QUANTUM_NS, 0));
        let (_, eff) = s.priority(t(1)).unwrap();
        assert_eq!(eff, BASEPRI_DEFAULT);
    }

    #[test]
    fn depress_and_dispatch_restores_priority() {
        let mut s = Scheduler::new(7);
        s.register(t(1), Persona::Foreign);
        s.register(t(2), Persona::Domestic);
        s.on_dispatch(t(1));
        s.depress(t(1));
        assert!(s.take_resched());
        let (_, eff) = s.priority(t(1)).unwrap();
        assert_eq!(eff, DEPRESSPRI);
        // The depressed thread loses to the default-band thread.
        let d = s.pick_next(0).unwrap();
        assert_eq!(d.tid, t(2));
        s.on_dispatch(t(2));
        s.on_block(t(2));
        // Once dispatched again, the depression lifts.
        let d = s.pick_next(0).unwrap();
        assert_eq!(d.tid, t(1));
        s.on_dispatch(t(1));
        let (_, eff) = s.priority(t(1)).unwrap();
        assert_eq!(eff, BASEPRI_DEFAULT);
    }

    #[test]
    fn undepress_aborts_early() {
        let mut s = Scheduler::new(7);
        s.register(t(1), Persona::Foreign);
        s.depress(t(1));
        s.undepress(t(1));
        let (_, eff) = s.priority(t(1)).unwrap();
        assert_eq!(eff, BASEPRI_DEFAULT);
    }

    #[test]
    fn starved_low_priority_thread_eventually_runs() {
        // A priority-10 thread competes against a priority-50 hog that
        // always stays runnable. The periodic boost must give the low
        // thread a dispatch within a bounded amount of virtual time.
        let mut s = Scheduler::new(7);
        s.register(t(1), Persona::Domestic);
        s.set_priority(t(1), 10);
        s.register(t(2), Persona::Foreign);
        s.set_priority(t(2), 50);
        let mut now = 0u64;
        let mut low_ran = false;
        for _ in 0..64 {
            let d = s.pick_next(now).unwrap();
            s.on_dispatch(d.tid);
            if d.tid == t(1) {
                low_ran = true;
                break;
            }
            // The hog burns its full quantum, then is requeued.
            s.charge(d.tid, QUANTUM_NS, now);
            now += QUANTUM_NS;
            s.requeue(d.tid);
        }
        assert!(low_ran, "priority-10 thread starved past the boost");
        assert!(now <= 2 * BOOST_PERIOD_NS, "took too long: {now}ns");
    }

    #[test]
    fn identity_survives_and_is_separate_from_policy() {
        let mut s = Scheduler::new(7);
        s.register(t(1), Persona::Domestic);
        s.set_identity(t(1), Persona::Foreign);
        assert_eq!(s.identity(t(1)), Some(Persona::Foreign));
        s.set_priority(t(1), 40);
        s.set_policy(t(1), SchedPolicy::Fixed);
        assert_eq!(s.identity(t(1)), Some(Persona::Foreign));
    }

    #[test]
    fn remove_is_idempotent_and_purges_queues() {
        let mut s = Scheduler::new(7);
        s.register(t(1), Persona::Domestic);
        s.remove(t(1));
        s.remove(t(1));
        assert!(!s.contains(t(1)));
        assert_eq!(s.queued_depth(), 0);
        assert!(s.pick_next(0).is_none());
    }

    #[test]
    fn block_then_wake_requeues_once() {
        let mut s = Scheduler::new(7);
        s.register(t(1), Persona::Domestic);
        s.on_block(t(1));
        assert_eq!(s.queued_depth(), 0);
        assert!(!s.on_wake(t(1), None));
        assert_eq!(s.queued_depth(), 1);
        // Double wake is a no-op.
        assert!(!s.on_wake(t(1), None));
        assert_eq!(s.queued_depth(), 1);
    }
}
