//! io_uring-style batched Mach trap submission.
//!
//! A [`TrapRing`] is a per-thread submission/completion queue pair that
//! the kernel and user space share (on real hardware it would live in a
//! page mapped into both). User space appends [`RingOp`] entries to the
//! submission queue without trapping; one `ring_flush` trap then drains
//! the queue, executes every operation, and publishes a
//! [`RingCompletion`] per entry — so a batch of N `mach_msg` calls pays
//! one kernel crossing instead of N.
//!
//! The `ring_submit` trap also exists for callers without the shared
//! mapping: it moves a batch of entries into the queue in one crossing
//! (still better than N `mach_msg` traps, but the flush path is the one
//! the benchmarks amortise).

use cider_abi::ids::PortName;
use cider_xnu::ipc::{ReceivedMessage, UserMessage};
use cider_xnu::kern_return::KernReturn;

/// Submission queue capacity. A full ring degrades gracefully: the
/// submitter flushes immediately (one extra crossing) and retries.
pub const RING_CAPACITY: usize = 64;

/// One submission queue entry: a Mach IPC operation to run at flush.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RingOp {
    /// The send half of `mach_msg`.
    Send(UserMessage),
    /// The receive half of `mach_msg` on a named receive right.
    Recv(PortName),
}

/// One completion queue entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RingCompletion {
    /// Sequence number of the submission this completes.
    pub seq: u64,
    /// The operation's `kern_return_t`.
    pub kr: KernReturn,
    /// The delivered message, for successful `Recv` operations.
    pub received: Option<ReceivedMessage>,
}

/// A submission/completion queue pair for batched Mach traps.
#[derive(Debug, Clone, Default)]
pub struct TrapRing {
    sq: Vec<(u64, RingOp)>,
    cq: Vec<RingCompletion>,
    next_seq: u64,
    /// Total entries ever submitted.
    pub submitted: u64,
    /// Total flush passes executed.
    pub flushes: u64,
}

impl TrapRing {
    /// An empty ring.
    pub fn new() -> TrapRing {
        TrapRing::default()
    }

    /// Entries waiting in the submission queue.
    pub fn pending(&self) -> usize {
        self.sq.len()
    }

    /// Whether another submission would overflow the ring.
    pub fn is_full(&self) -> bool {
        self.sq.len() >= RING_CAPACITY
    }

    /// Appends an operation; returns its sequence number, or the
    /// operation back when the ring is full (the caller must flush).
    ///
    /// # Errors
    ///
    /// The rejected operation, unchanged, when the ring is full.
    pub fn push(&mut self, op: RingOp) -> Result<u64, RingOp> {
        if self.is_full() {
            return Err(op);
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.submitted += 1;
        self.sq.push((seq, op));
        Ok(seq)
    }

    /// Takes every pending submission, in order, for a flush pass.
    pub fn drain_submissions(&mut self) -> Vec<(u64, RingOp)> {
        self.flushes += 1;
        std::mem::take(&mut self.sq)
    }

    /// Publishes a completion.
    pub fn complete(&mut self, c: RingCompletion) {
        self.cq.push(c);
    }

    /// Takes every published completion, in order.
    pub fn take_completions(&mut self) -> Vec<RingCompletion> {
        std::mem::take(&mut self.cq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_assigns_monotone_sequence_numbers() {
        let mut r = TrapRing::new();
        let a = r.push(RingOp::Recv(PortName(3))).unwrap();
        let b = r.push(RingOp::Recv(PortName(4))).unwrap();
        assert!(b > a);
        assert_eq!(r.pending(), 2);
        assert_eq!(r.submitted, 2);
    }

    #[test]
    fn full_ring_rejects_with_the_op_intact() {
        let mut r = TrapRing::new();
        for _ in 0..RING_CAPACITY {
            r.push(RingOp::Recv(PortName(1))).unwrap();
        }
        assert!(r.is_full());
        let rejected = r.push(RingOp::Recv(PortName(9))).unwrap_err();
        assert_eq!(rejected, RingOp::Recv(PortName(9)));
        // Sequence numbers and counters don't burn on rejection.
        assert_eq!(r.submitted, RING_CAPACITY as u64);
    }

    #[test]
    fn drain_empties_the_queue_in_order() {
        let mut r = TrapRing::new();
        r.push(RingOp::Recv(PortName(1))).unwrap();
        r.push(RingOp::Recv(PortName(2))).unwrap();
        let drained = r.drain_submissions();
        assert_eq!(drained.len(), 2);
        assert!(drained[0].0 < drained[1].0);
        assert_eq!(r.pending(), 0);
        assert_eq!(r.flushes, 1);
    }

    #[test]
    fn completions_round_trip() {
        let mut r = TrapRing::new();
        r.complete(RingCompletion {
            seq: 7,
            kr: KernReturn::Success,
            received: None,
        });
        let cs = r.take_completions();
        assert_eq!(cs.len(), 1);
        assert_eq!(cs[0].seq, 7);
        assert!(r.take_completions().is_empty());
    }
}
