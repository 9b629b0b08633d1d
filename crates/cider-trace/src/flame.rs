//! Flamegraph folded-stack export.
//!
//! Folds the enter/exit events in a trace into the `a;b;c <count>` line
//! format consumed by `flamegraph.pl` and Speedscope. The "count" is
//! **virtual nanoseconds of self time**: each frame's duration minus the
//! time spent in its children, so the flamegraph's widths sum exactly to
//! the traced virtual time per thread.
//!
//! Stacks are tracked per `(pid, tid)` and rooted at
//! `pid<P>/tid<T>/<persona>`, so one export covers every simulated
//! thread without interleaving their frames.

use std::collections::BTreeMap;

use crate::event::{EventKind, TraceEvent};
use crate::ring::TraceBuffer;

/// Whether an event opens a frame, and under what label.
fn open_label(kind: &EventKind) -> Option<String> {
    match kind {
        EventKind::SyscallEnter { nr, .. } => Some(format!("syscall_{nr}")),
        EventKind::DiplomatEnter { symbol } => {
            Some(format!("diplomat:{symbol}"))
        }
        _ => None,
    }
}

/// Whether an event closes a frame, and under what label.
fn close_label(kind: &EventKind) -> Option<String> {
    match kind {
        EventKind::SyscallExit { nr, .. } => Some(format!("syscall_{nr}")),
        EventKind::DiplomatExit { symbol, .. } => {
            Some(format!("diplomat:{symbol}"))
        }
        _ => None,
    }
}

struct Frame {
    label: String,
    start_ns: u64,
    child_ns: u64,
}

#[derive(Default)]
struct ThreadStack {
    root: String,
    frames: Vec<Frame>,
}

/// Folds a ring's retained events into flamegraph folded-stack lines.
///
/// Unclosed frames at the end of the trace are dropped (their time is
/// unknowable); unmatched ends are ignored. Lines are emitted in sorted
/// order so output is deterministic.
pub fn export(ring: &TraceBuffer) -> String {
    let mut stacks: BTreeMap<(u32, u32), ThreadStack> = BTreeMap::new();
    let mut folded: BTreeMap<String, u64> = BTreeMap::new();

    for event in ring.iter() {
        let TraceEvent { ctx, kind } = event;
        let key = (ctx.pid, ctx.tid);
        if let Some(label) = open_label(kind) {
            let stack = stacks.entry(key).or_default();
            if stack.frames.is_empty() {
                stack.root = format!(
                    "pid{}/tid{}/{}",
                    ctx.pid,
                    ctx.tid,
                    ctx.persona_label(),
                );
            }
            stack.frames.push(Frame {
                label,
                start_ns: ctx.ts_ns,
                child_ns: 0,
            });
        } else if let Some(label) = close_label(kind) {
            let Some(stack) = stacks.get_mut(&key) else {
                continue;
            };
            // Pop to the matching open frame; mismatches (a lost begin
            // after ring wraparound) discard the stray end.
            if stack.frames.last().map(|f| &f.label) != Some(&label) {
                continue;
            }
            let frame = stack.frames.pop().expect("matched above");
            let total = ctx.ts_ns.saturating_sub(frame.start_ns);
            let self_ns = total.saturating_sub(frame.child_ns);
            if let Some(parent) = stack.frames.last_mut() {
                parent.child_ns += total;
            }
            let mut path = stack.root.clone();
            for f in &stack.frames {
                path.push(';');
                path.push_str(&f.label);
            }
            path.push(';');
            path.push_str(&frame.label);
            *folded.entry(path).or_insert(0) += self_ns;
        }
    }

    let mut out = String::new();
    for (path, ns) in &folded {
        out.push_str(path);
        out.push(' ');
        out.push_str(&ns.to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceContext;
    use crate::sink::TraceSink;

    fn ctx(ts: u64) -> TraceContext {
        TraceContext {
            ts_ns: ts,
            pid: 7,
            tid: 9,
            foreign: true,
        }
    }

    fn enter(sink: &mut TraceSink, ts: u64, nr: i64) {
        let kind = EventKind::SyscallEnter {
            nr,
            translated: None,
        };
        sink.record(ctx(ts), kind);
    }

    fn exit(sink: &mut TraceSink, ts: u64, nr: i64) {
        sink.record(ctx(ts), EventKind::SyscallExit { nr, ret: 0 });
    }

    #[test]
    fn nested_frames_split_self_time() {
        let mut sink = TraceSink::enabled(64);
        let symbol = || "glClear".into();
        sink.record(ctx(0), EventKind::DiplomatEnter { symbol: symbol() });
        enter(&mut sink, 100, 4);
        exit(&mut sink, 400, 4);
        sink.record(
            ctx(1000),
            EventKind::DiplomatExit {
                symbol: symbol(),
                ok: true,
            },
        );
        let folded = export(sink.ring().unwrap());
        assert!(
            folded
                .contains("pid7/tid9/foreign;diplomat:glClear;syscall_4 300"),
            "{folded}"
        );
        // The diplomat's self time excludes the syscall's 300ns.
        assert!(
            folded.contains("pid7/tid9/foreign;diplomat:glClear 700"),
            "{folded}"
        );
    }

    #[test]
    fn repeated_stacks_accumulate() {
        let mut sink = TraceSink::enabled(64);
        for i in 0..3u64 {
            enter(&mut sink, i * 100, 20);
            exit(&mut sink, i * 100 + 10, 20);
        }
        let folded = export(sink.ring().unwrap());
        assert!(
            folded.contains("pid7/tid9/foreign;syscall_20 30"),
            "{folded}"
        );
        assert_eq!(folded.lines().count(), 1);
    }

    #[test]
    fn syscall_events_fold_too() {
        let mut sink = TraceSink::enabled(64);
        enter(&mut sink, 0, 4);
        exit(&mut sink, 950, 4);
        let folded = export(sink.ring().unwrap());
        assert!(
            folded.contains("pid7/tid9/foreign;syscall_4 950"),
            "{folded}"
        );
    }

    #[test]
    fn unmatched_ends_are_ignored() {
        let mut sink = TraceSink::enabled(64);
        exit(&mut sink, 10, 4);
        enter(&mut sink, 20, 3);
        exit(&mut sink, 25, 4);
        let folded = export(sink.ring().unwrap());
        assert!(folded.is_empty(), "{folded}");
    }
}
