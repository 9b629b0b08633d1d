//! Fixed-capacity ring buffer of trace events.

use std::hash::Hasher;

use crate::event::TraceEvent;

/// A bounded event trace. When full, the oldest events are overwritten
/// (like `ktrace`/`ftrace` ring buffers), and the drop count records how
/// much history was lost.
#[derive(Debug, Clone)]
pub struct TraceBuffer {
    /// The retained events. A copy (what a device fork makes) holds
    /// only these and grows as it records, so forks carry no unwritten
    /// capacity.
    slots: Vec<TraceEvent>,
    capacity: usize,
    /// Index of the next slot to write (wraps).
    head: usize,
    /// Events recorded over the buffer's lifetime.
    total: u64,
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

    /// Feeds each retained event's [`TraceEvent::encode`] bytes to
    /// `out`, oldest-first and unseparated, reading the events in
    /// place.
    pub fn encode(&self, out: &mut impl Hasher) {
        self.iter().for_each(|ev| ev.encode(out));
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

    /// Every event kind, with labels full of quotes, backslashes,
    /// control characters and multi-byte characters.
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

    /// The context of the `i`th event of [`every_kind`].
    fn ctx(i: usize) -> TraceContext {
        TraceContext {
            ts_ns: 0x1_0000_0000 + i as u64,
            pid: 7,
            tid: 0x0102,
            foreign: i.is_multiple_of(2),
        }
    }

    fn events() -> Vec<TraceEvent> {
        every_kind()
            .into_iter()
            .enumerate()
            .map(|(i, kind)| TraceEvent { ctx: ctx(i), kind })
            .collect()
    }

    /// A sink that keeps the bytes it is fed.
    #[derive(Default)]
    struct Bytes(Vec<u8>);

    impl Hasher for Bytes {
        fn finish(&self) -> u64 {
            unreachable!("the tests compare bytes, not digests")
        }

        fn write(&mut self, bytes: &[u8]) {
            self.0.extend_from_slice(bytes);
        }
    }

    fn encoded<'a>(
        events: impl IntoIterator<Item = &'a TraceEvent>,
    ) -> Vec<u8> {
        let mut out = Bytes::default();
        events.into_iter().for_each(|ev| ev.encode(&mut out));
        out.0
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// [`TraceEvent::encode`] of [`events`], one per line, in hex:
    /// `ts_ns`, `pid`, `tid`, `foreign`, the tag, then the fields.
    /// `{tricky}` stands for the length and bytes of the labels that
    /// [`every_kind`] fills with quotes, escapes and multi-byte
    /// characters.
    const GOLDEN: [&str; 19] = [
        "0000000001000000 07000000 02010000 01 00 fcffffffffffffff 01 0100000000000000",
        "0100000001000000 07000000 02010000 00 00 1400000000000000 00",
        "0200000001000000 07000000 02010000 01 01 0400000000000000 f7ffffffffffffff",
        "0300000001000000 07000000 02010000 00 02 1e000000 e002000000000000",
        "0400000001000000 07000000 02010000 01 03 0a000000 1e000000",
        "0500000001000000 07000000 02010000 00 04 01",
        "0600000001000000 07000000 02010000 01 05 00060000 0020000000000000",
        "0700000001000000 07000000 02010000 00 06 ffffffff 0000000000000000",
        "0800000001000000 07000000 02010000 01 07 {tricky}",
        "0900000001000000 07000000 02010000 00 08 {tricky} 00",
        "0a00000001000000 07000000 02010000 01 09 {tricky} ffffffffffffffff",
        "0b00000001000000 07000000 02010000 00 0a 0900000000000000",
        "0c00000001000000 07000000 02010000 01 0b 7300000000000000",
        "0d00000001000000 07000000 02010000 00 0c e600000000000000",
        "0e00000001000000 07000000 02010000 01 0d 00000000 65000000",
        "0f00000001000000 07000000 02010000 00 0e 0300000000000000 01",
        "1000000001000000 07000000 02010000 01 11 0300000000000000 000d27",
        "1100000001000000 07000000 02010000 00 12 {tricky} 0100000000000000",
        "1200000001000000 07000000 02010000 01 13 {tricky}",
    ];

    const TRICKY_HEX: &str =
        "1200000000000000 7122625c730a6ec3a9f09f9880e2808b097f";

    fn golden(i: usize) -> String {
        GOLDEN[i].replace("{tricky}", TRICKY_HEX).replace(' ', "")
    }

    #[test]
    fn encoded_bytes_match_the_golden_layout_for_every_kind() {
        // Three marks fall off first, so the ring has wrapped and the
        // stream must cross the wrap point to come out oldest-first.
        let mut b = TraceBuffer::new(GOLDEN.len());
        for ts in 0..3 {
            b.push(mark(ts));
        }
        for ev in events() {
            b.push(ev);
        }
        assert_eq!((b.dropped(), b.head), (3, 3));
        assert_eq!(b.len(), GOLDEN.len());
        for (i, ev) in b.iter().enumerate() {
            assert_eq!(hex(&encoded([ev])), golden(i), "event {i}: {ev:?}");
        }
        let mut streamed = Bytes::default();
        b.encode(&mut streamed);
        let all: String = (0..GOLDEN.len()).map(golden).collect();
        assert_eq!(hex(&streamed.0), all);
    }

    /// One copy of `ev` per field of its context and its kind, with
    /// that field changed by one: an integer incremented, a `bool`
    /// flipped, an `Option` made `Some` of the next value, a string's
    /// last character moved to the next code point.
    fn nudges(ev: &TraceEvent) -> Vec<TraceEvent> {
        use EventKind as K;
        fn next(s: &str) -> String {
            let mut s = s.to_string();
            let last = s.pop().expect("labels are not empty");
            s.push(char::from_u32(u32::from(last) + 1).expect("a char"));
            s
        }
        fn next_static(s: &str) -> &'static str {
            Box::leak(next(s).into_boxed_str())
        }
        let c = ev.ctx;
        let contexts = [
            TraceContext {
                ts_ns: c.ts_ns + 1,
                ..c
            },
            TraceContext {
                pid: c.pid + 1,
                ..c
            },
            TraceContext {
                tid: c.tid + 1,
                ..c
            },
            TraceContext {
                foreign: !c.foreign,
                ..c
            },
        ];
        let kinds = match ev.kind.clone() {
            K::SyscallEnter { nr, translated } => vec![
                K::SyscallEnter {
                    nr: nr + 1,
                    translated,
                },
                K::SyscallEnter {
                    nr,
                    translated: Some(translated.map_or(0, |t| t + 1)),
                },
            ],
            K::SyscallExit { nr, ret } => vec![
                K::SyscallExit { nr: nr + 1, ret },
                K::SyscallExit { nr, ret: ret + 1 },
            ],
            K::SignalDeliver {
                signal,
                frame_bytes,
            } => vec![
                K::SignalDeliver {
                    signal: signal + 1,
                    frame_bytes,
                },
                K::SignalDeliver {
                    signal,
                    frame_bytes: frame_bytes + 1,
                },
            ],
            K::SignalTranslate { from, to } => vec![
                K::SignalTranslate { from: from + 1, to },
                K::SignalTranslate { from, to: to + 1 },
            ],
            K::PersonaSwitch { to_foreign } => vec![K::PersonaSwitch {
                to_foreign: !to_foreign,
            }],
            K::MachMsgSend { msg_id, bytes } => vec![
                K::MachMsgSend {
                    msg_id: msg_id + 1,
                    bytes,
                },
                K::MachMsgSend {
                    msg_id,
                    bytes: bytes + 1,
                },
            ],
            K::MachMsgReceive { msg_id, bytes } => vec![
                K::MachMsgReceive {
                    msg_id: msg_id + 1,
                    bytes,
                },
                K::MachMsgReceive {
                    msg_id,
                    bytes: bytes + 1,
                },
            ],
            K::DiplomatEnter { symbol } => vec![K::DiplomatEnter {
                symbol: next(&symbol).into(),
            }],
            K::DiplomatExit { symbol, ok } => vec![
                K::DiplomatExit {
                    symbol: next(&symbol).into(),
                    ok,
                },
                K::DiplomatExit { symbol, ok: !ok },
            ],
            K::VfsOp { op, bytes } => vec![
                K::VfsOp {
                    op: next_static(op),
                    bytes,
                },
                K::VfsOp {
                    op,
                    bytes: bytes.wrapping_add(1),
                },
            ],
            K::PageTableCopy { ptes } => {
                vec![K::PageTableCopy { ptes: ptes + 1 }]
            }
            K::DyldMap { libraries } => vec![K::DyldMap {
                libraries: libraries + 1,
            }],
            K::DyldHandlers { handlers } => vec![K::DyldHandlers {
                handlers: handlers + 1,
            }],
            K::ContextSwitch { from, to } => vec![
                K::ContextSwitch { from: from + 1, to },
                K::ContextSwitch { from, to: to + 1 },
            ],
            K::GpuFenceWait { fence, buggy } => vec![
                K::GpuFenceWait {
                    fence: fence + 1,
                    buggy,
                },
                K::GpuFenceWait {
                    fence,
                    buggy: !buggy,
                },
            ],
            K::Mark { label } => vec![K::Mark {
                label: next(&label).into(),
            }],
            K::FaultInjected { site, seq } => vec![
                K::FaultInjected {
                    site: next_static(site),
                    seq,
                },
                K::FaultInjected { site, seq: seq + 1 },
            ],
            K::Recovery { action } => vec![K::Recovery {
                action: next(&action).into(),
            }],
        };
        let with_ctx = contexts.map(|ctx| TraceEvent {
            ctx,
            kind: ev.kind.clone(),
        });
        let with_kind =
            kinds.into_iter().map(|kind| TraceEvent { ctx: c, kind });
        with_ctx.into_iter().chain(with_kind).collect()
    }

    #[test]
    fn events_that_differ_anywhere_encode_differently() {
        // Each field of each variant and of the context (`foreign`
        // flipped among them), changed by one.
        for ev in events() {
            for nudged in nudges(&ev) {
                assert_ne!(nudged, ev, "the nudge changed nothing");
                assert_ne!(encoded([&nudged]), encoded([&ev]), "{nudged:?}");
            }
        }
        // Every variant apart from every other, fields alike or not.
        let distinct: std::collections::BTreeSet<Vec<u8>> = every_kind()
            .into_iter()
            .map(|kind| encoded([&TraceEvent { ctx: ctx(0), kind }]))
            .collect();
        assert_eq!(distinct.len(), every_kind().len());
        // An absent translation is not translation to syscall 0.
        let enter = |translated| TraceEvent {
            ctx: ctx(0),
            kind: EventKind::SyscallEnter { nr: 4, translated },
        };
        assert_ne!(encoded([&enter(None)]), encoded([&enter(Some(0))]));
        // Labels that concatenate alike, on two consecutive events.
        let marks = |a: &'static str, b: &'static str| {
            [a, b].map(|label| TraceEvent {
                ctx: ctx(0),
                kind: EventKind::Mark {
                    label: label.into(),
                },
            })
        };
        assert_ne!(encoded(&marks("ab", "c")), encoded(&marks("a", "bc")));
        // Two streams only the length prefix tells apart. Without it,
        // the `x` that lengthens the second label would take the place
        // of the first byte of the next `ts_ns`, and the exit's `nr`
        // and `ret` those of a mark's tag and label.
        let at = |ts_ns, foreign| TraceContext {
            ts_ns,
            pid: 0,
            tid: 0,
            foreign,
        };
        let event = |ctx, kind| TraceEvent { ctx, kind };
        let mark = |label: &'static str| EventKind::Mark {
            label: label.into(),
        };
        let exit = EventKind::SyscallExit {
            nr: 17,
            ret: i64::from_le_bytes(*b"collide!"),
        };
        let short = [
            event(ctx(0), mark("ab")),
            event(at(u64::from(b'x'), false), exit),
        ];
        let long = [
            event(ctx(0), mark("abx")),
            event(at(0, true), mark("\0\0\0\0\0\0\0collide!")),
        ];
        assert_ne!(encoded(&short), encoded(&long));
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        let _ = TraceBuffer::new(0);
    }
}
