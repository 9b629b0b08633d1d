//! Deterministic lock-free MPSC message queue for IPC v2.
//!
//! Real mach_r-style ports replace the queue mutex with a multi-producer
//! single-consumer linked list: producers CAS themselves onto the tail and
//! the single receiver pops the head. In a deterministic simulator the
//! interesting property is not the host-level atomicity (the simulation is
//! single-threaded per device) but the *ordering rule* the lock-free
//! structure guarantees:
//!
//! 1. Every enqueue claims a globally unique **sequence number** from an
//!    atomic counter — the simulator's stand-in for the winning CAS.
//! 2. Entries are delivered in `(stamp, seq)` order, where `stamp` is the
//!    producer's virtual-time enqueue instant. Stamps model "which
//!    producer's CAS landed first"; the sequence number breaks ties
//!    between producers that raced within the same virtual nanosecond.
//!
//! Because virtual time is monotone within a device, `(stamp, seq)` order
//! degenerates to plain FIFO for a single producer. That makes this the
//! one message queue of every port under both IPC policies: v1 and v2
//! enqueue identically, stamped with `mach_absolute_time`, and differ
//! only in what they charge — v1 pays the two `lck_mtx` duct-tape
//! crossings per operation that this structure's ordering rule lets v2
//! skip.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};

#[derive(Debug, Clone)]
struct Entry<T> {
    stamp: u64,
    seq: u64,
    item: T,
}

/// Virtual-time-ordered MPSC queue (see module docs for the ordering rule).
#[derive(Debug, Default)]
pub struct LockFreeQueue<T> {
    entries: VecDeque<Entry<T>>,
    next_seq: AtomicU64,
}

impl<T: Clone> Clone for LockFreeQueue<T> {
    /// Copies the entries and the sequence counter: the copy claims the
    /// same sequence numbers the original would claim next.
    fn clone(&self) -> LockFreeQueue<T> {
        LockFreeQueue {
            entries: self.entries.clone(),
            next_seq: AtomicU64::new(self.next_seq.load(Ordering::Relaxed)),
        }
    }
}

impl<T> LockFreeQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> LockFreeQueue<T> {
        LockFreeQueue {
            entries: VecDeque::new(),
            next_seq: AtomicU64::new(0),
        }
    }

    /// Enqueues `item` at virtual time `stamp`, returning the claimed
    /// sequence number. Entries with equal stamps deliver in claim order.
    pub fn enqueue(&mut self, stamp: u64, item: T) -> u64 {
        // The CAS-claim: unique, totally ordered, wait-free.
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        // Insert sorted by (stamp, seq). Producers almost always arrive in
        // stamp order, so scan from the tail.
        let at = self
            .entries
            .iter()
            .rposition(|e| (e.stamp, e.seq) <= (stamp, seq))
            .map(|i| i + 1)
            .unwrap_or(0);
        self.entries.insert(at, Entry { stamp, seq, item });
        seq
    }

    /// Pops the entry with the smallest `(stamp, seq)`.
    pub fn dequeue_head(&mut self) -> Option<T> {
        self.entries.pop_front().map(|e| e.item)
    }

    /// Number of queued entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates entries in delivery order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.entries.iter().map(|e| &e.item)
    }

    /// Drains all entries in delivery order.
    pub fn drain(&mut self) -> impl Iterator<Item = T> + '_ {
        self.entries.drain(..).map(|e| e.item)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_for_monotone_stamps() {
        let mut q = LockFreeQueue::new();
        q.enqueue(10, "a");
        q.enqueue(20, "b");
        q.enqueue(30, "c");
        assert_eq!(q.len(), 3);
        assert_eq!(q.dequeue_head(), Some("a"));
        assert_eq!(q.dequeue_head(), Some("b"));
        assert_eq!(q.dequeue_head(), Some("c"));
        assert_eq!(q.dequeue_head(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn equal_stamps_break_ties_by_claim_order() {
        let mut q = LockFreeQueue::new();
        let s0 = q.enqueue(5, "first");
        let s1 = q.enqueue(5, "second");
        assert!(s0 < s1);
        assert_eq!(q.dequeue_head(), Some("first"));
        assert_eq!(q.dequeue_head(), Some("second"));
    }

    #[test]
    fn late_producer_with_early_stamp_sorts_in() {
        let mut q = LockFreeQueue::new();
        q.enqueue(100, "late");
        q.enqueue(50, "early");
        assert_eq!(q.iter().copied().collect::<Vec<_>>(), ["early", "late"]);
    }
}
