//! Fixed-capacity ring buffer of trace events.

use std::fmt;

use crate::event::TraceEvent;

/// A bounded event trace. When full, the oldest events are overwritten
/// (like `ktrace`/`ftrace` ring buffers), and the drop count records how
/// much history was lost.
#[derive(Debug)]
pub struct TraceBuffer {
    slots: Vec<TraceEvent>,
    capacity: usize,
    /// Index of the next slot to write (wraps).
    head: usize,
    /// Events recorded over the buffer's lifetime.
    total: u64,
}

impl Clone for TraceBuffer {
    /// Copies the retained events, the write position and the lifetime
    /// count, and keeps the preallocated slot capacity: the copy records
    /// without reallocating wherever the original would not.
    fn clone(&self) -> TraceBuffer {
        let mut slots = Vec::with_capacity(self.slots.capacity());
        slots.extend_from_slice(&self.slots);
        TraceBuffer {
            slots,
            capacity: self.capacity,
            head: self.head,
            total: self.total,
        }
    }
}

impl TraceBuffer {
    /// A buffer holding at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics on zero capacity — a zero-sized trace is a disabled sink,
    /// not an empty buffer.
    pub fn new(capacity: usize) -> TraceBuffer {
        assert!(capacity > 0, "trace buffer needs capacity");
        TraceBuffer {
            slots: Vec::with_capacity(capacity.min(4096)),
            capacity,
            head: 0,
            total: 0,
        }
    }

    /// Maximum number of retained events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of currently retained events.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Events recorded over the buffer's lifetime (including dropped).
    pub fn total_recorded(&self) -> u64 {
        self.total
    }

    /// Events lost to wraparound.
    pub fn dropped(&self) -> u64 {
        self.total - self.slots.len() as u64
    }

    /// Appends an event, overwriting the oldest when full.
    pub fn push(&mut self, event: TraceEvent) {
        self.total += 1;
        if self.slots.len() < self.capacity {
            self.slots.push(event);
        } else {
            self.slots[self.head] = event;
            self.head = (self.head + 1) % self.capacity;
        }
    }

    /// Iterates retained events oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = &TraceEvent> {
        let (wrapped, linear) = self.slots.split_at(self.head);
        linear.iter().chain(wrapped.iter())
    }

    /// Copies the retained events oldest-first.
    pub fn to_vec(&self) -> Vec<TraceEvent> {
        self.iter().cloned().collect()
    }

    /// Streams each retained event's `Debug` text into `out`,
    /// oldest-first and unseparated: the bytes of
    /// `format!("{ev:?}")` per event, without building any string.
    pub fn write_debug(&self, out: &mut impl fmt::Write) -> fmt::Result {
        self.iter().try_for_each(|ev| write!(out, "{ev:?}"))
    }

    /// Clears all retained events and counters.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.head = 0;
        self.total = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, TraceContext};

    fn mark(ts: u64) -> TraceEvent {
        TraceEvent {
            ctx: TraceContext::kernel(ts),
            kind: EventKind::Mark {
                label: format!("m{ts}").into(),
            },
        }
    }

    fn timestamps(b: &TraceBuffer) -> Vec<u64> {
        b.iter().map(|e| e.ctx.ts_ns).collect()
    }

    #[test]
    fn fills_then_wraps_oldest_first() {
        let mut b = TraceBuffer::new(4);
        for ts in 0..4 {
            b.push(mark(ts));
        }
        assert_eq!(timestamps(&b), vec![0, 1, 2, 3]);
        assert_eq!(b.dropped(), 0);

        // Two more: 0 and 1 fall off.
        b.push(mark(4));
        b.push(mark(5));
        assert_eq!(timestamps(&b), vec![2, 3, 4, 5]);
        assert_eq!(b.len(), 4);
        assert_eq!(b.total_recorded(), 6);
        assert_eq!(b.dropped(), 2);
    }

    #[test]
    fn wraps_many_times() {
        let mut b = TraceBuffer::new(3);
        for ts in 0..100 {
            b.push(mark(ts));
        }
        assert_eq!(timestamps(&b), vec![97, 98, 99]);
        assert_eq!(b.dropped(), 97);
    }

    #[test]
    fn exact_capacity_boundary() {
        let mut b = TraceBuffer::new(2);
        b.push(mark(10));
        assert_eq!(timestamps(&b), vec![10]);
        b.push(mark(11));
        assert_eq!(timestamps(&b), vec![10, 11]);
        b.push(mark(12));
        assert_eq!(timestamps(&b), vec![11, 12]);
    }

    #[test]
    fn clear_resets_everything() {
        let mut b = TraceBuffer::new(2);
        b.push(mark(1));
        b.push(mark(2));
        b.push(mark(3));
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.dropped(), 0);
        b.push(mark(9));
        assert_eq!(timestamps(&b), vec![9]);
    }

    /// Every event kind, with labels that `Debug` must escape.
    fn every_kind() -> Vec<EventKind> {
        const TRICKY: &str = "q\"b\\s\nn\u{e9}\u{1F600}\u{200B}\t\u{7f}";
        vec![
            EventKind::SyscallEnter {
                nr: -4,
                translated: Some(1),
            },
            EventKind::SyscallEnter {
                nr: 20,
                translated: None,
            },
            EventKind::SyscallExit { nr: 4, ret: -9 },
            EventKind::SignalDeliver {
                signal: 30,
                frame_bytes: 736,
            },
            EventKind::SignalTranslate { from: 10, to: 30 },
            EventKind::PersonaSwitch { to_foreign: true },
            EventKind::MachMsgSend {
                msg_id: 0x600,
                bytes: 8192,
            },
            EventKind::MachMsgReceive {
                msg_id: -1,
                bytes: 0,
            },
            EventKind::DiplomatEnter {
                symbol: TRICKY.into(),
            },
            EventKind::DiplomatExit {
                symbol: TRICKY.to_string().into(),
                ok: false,
            },
            EventKind::VfsOp {
                op: TRICKY,
                bytes: u64::MAX,
            },
            EventKind::PageTableCopy { ptes: 9 },
            EventKind::DyldMap { libraries: 115 },
            EventKind::DyldHandlers { handlers: 230 },
            EventKind::ContextSwitch { from: 0, to: 101 },
            EventKind::GpuFenceWait {
                fence: 3,
                buggy: true,
            },
            EventKind::SpanBegin {
                label: TRICKY.into(),
            },
            EventKind::SpanEnd {
                label: TRICKY.to_string().into(),
            },
            EventKind::Mark {
                label: "\u{0}\r\'".into(),
            },
            EventKind::FaultInjected {
                site: TRICKY,
                seq: 1,
            },
            EventKind::Recovery {
                action: TRICKY.to_string().into(),
            },
        ]
    }

    /// A writer that keeps each chunk apart, so the test sees the
    /// stream as the writer receives it.
    #[derive(Default)]
    struct Chunks(Vec<String>);

    impl fmt::Write for Chunks {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            self.0.push(s.to_string());
            Ok(())
        }
    }

    #[test]
    fn streamed_debug_text_matches_format_for_every_kind() {
        let kinds = every_kind();
        // Capacity below the event count, so the stream crosses the
        // wrap point and must still come out oldest-first.
        let mut b = TraceBuffer::new(kinds.len() - 3);
        for (i, kind) in kinds.into_iter().enumerate() {
            b.push(TraceEvent {
                ctx: TraceContext {
                    ts_ns: i as u64,
                    pid: 7,
                    tid: 8,
                    foreign: i % 2 == 0,
                },
                kind,
            });
        }
        let want: String = b.iter().map(|ev| format!("{ev:?}")).collect();
        let mut got = Chunks::default();
        b.write_debug(&mut got).unwrap();
        assert!(got.0.len() > b.len(), "Debug streams in pieces");
        assert_eq!(got.0.concat(), want);
        assert!(want.contains("\\\"b\\\\s\\n"), "{want}");
        let oldest = "TraceEvent { ctx: TraceContext { ts_ns: 3,";
        assert!(want.starts_with(oldest), "{want}");
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        let _ = TraceBuffer::new(0);
    }
}
