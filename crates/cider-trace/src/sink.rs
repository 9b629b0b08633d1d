//! The [`TraceSink`] handle instrumentation sites hold.
//!
//! A sink is either *disabled* — every call is a no-op on a `None`, no
//! allocation, no interior mutability touched — or *enabled*, in which
//! case events land in a shared [`TraceBuffer`] and metrics in a shared
//! [`Metrics`] registry. Handles clone cheaply (an `Option<Arc>`), so the
//! kernel, the Cider layer, and the graphics stack can all hold one
//! without ownership gymnastics, and a traced kernel stays `Send` so
//! whole devices can be farmed out to fleet worker threads. The mutex
//! is never contended in practice — each simulated device owns its own
//! sink — so the lock is a formality the type system demands, not a
//! synchronization point.
//!
//! Nothing in this module touches the virtual clock: recording cannot
//! perturb a measurement, which is the subsystem's core invariant.
//!
//! Hot paths stay allocation-free with tracing on. Names that vary per
//! call (`"syscall/{persona}/{call}"`) go through [`TraceSink::metric`],
//! which formats them into a buffer the sink keeps; readers that only
//! digest what was collected borrow it through [`TraceSink::read`]
//! instead of copying it out with [`TraceSink::snapshot`].

use std::borrow::Cow;
use std::fmt::{self, Write as _};
use std::sync::{Arc, Mutex};

use crate::event::{EventKind, TraceContext, TraceEvent};
use crate::metrics::{Metrics, MetricsSnapshot};
use crate::ring::TraceBuffer;
use crate::span::Span;

/// Default event capacity when callers don't choose one.
pub const DEFAULT_CAPACITY: usize = 64 * 1024;

#[derive(Debug)]
struct TraceState {
    buffer: TraceBuffer,
    metrics: Metrics,
    /// Scratch for names built by [`TraceSink::metric`]: cleared and
    /// refilled on every call, so it allocates only while it grows.
    name: String,
}

/// A cheap, cloneable tracing handle; inert when disabled.
#[derive(Debug, Clone, Default)]
pub struct TraceSink {
    state: Option<Arc<Mutex<TraceState>>>,
}

/// A frozen copy of everything a sink collected.
#[derive(Debug, Clone)]
pub struct TraceSnapshot {
    /// Retained events, oldest first.
    pub events: Vec<TraceEvent>,
    /// Events lost to ring wraparound.
    pub dropped: u64,
    /// Counter and histogram values.
    pub metrics: MetricsSnapshot,
}

impl TraceSink {
    /// The inert sink: every operation is a no-op.
    pub fn disabled() -> TraceSink {
        TraceSink { state: None }
    }

    /// An active sink retaining up to `capacity` events.
    pub fn enabled(capacity: usize) -> TraceSink {
        TraceSink {
            state: Some(Arc::new(Mutex::new(TraceState {
                buffer: TraceBuffer::new(capacity),
                metrics: Metrics::new(),
                name: String::new(),
            }))),
        }
    }

    /// An active sink with the default capacity.
    pub fn enabled_default() -> TraceSink {
        TraceSink::enabled(DEFAULT_CAPACITY)
    }

    /// An independent sink holding a copy of everything this one has
    /// collected: the ring (retained events, write position, lifetime
    /// count and slot capacity) and the metrics registry. Recording
    /// into either afterwards never shows in the other. `clone`, by
    /// contrast, returns a second handle onto the same state.
    pub fn fork(&self) -> TraceSink {
        TraceSink {
            state: self.state.as_ref().map(|state| {
                let state = state.lock().unwrap();
                Arc::new(Mutex::new(TraceState {
                    buffer: state.buffer.clone(),
                    metrics: state.metrics.clone(),
                    name: String::with_capacity(state.name.capacity()),
                }))
            }),
        }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.state.is_some()
    }

    /// Records one event.
    pub fn record(&self, ctx: TraceContext, kind: EventKind) {
        if let Some(state) = &self.state {
            state.lock().unwrap().buffer.push(TraceEvent { ctx, kind });
        }
    }

    /// Opens a span labelled `label` at `ctx`.
    pub fn span(
        &self,
        label: impl Into<Cow<'static, str>>,
        ctx: TraceContext,
    ) -> Span {
        Span::open(self, label.into(), ctx)
    }

    /// Adds to a named counter.
    pub fn add(&self, name: &str, delta: u64) {
        if let Some(state) = &self.state {
            state.lock().unwrap().metrics.add(name, delta);
        }
    }

    /// Increments a named counter.
    pub fn incr(&self, name: &str) {
        self.add(name, 1);
    }

    /// Records a histogram observation.
    pub fn observe(&self, name: &str, value: u64) {
        if let Some(state) = &self.state {
            state.lock().unwrap().metrics.observe(name, value);
        }
    }

    /// Updates the metric `name` formats to: `f` gets the live registry
    /// and the formatted name, as in
    /// `sink.metric(format_args!("vfs/{op}/ops"), |m, n| m.incr(n))`.
    /// The name is written into a buffer the sink reuses, so a per-call
    /// name costs no allocation once the metric exists.
    pub fn metric(
        &self,
        name: fmt::Arguments<'_>,
        f: impl FnOnce(&mut Metrics, &str),
    ) {
        if let Some(state) = &self.state {
            let state = &mut *state.lock().unwrap();
            state.name.clear();
            state
                .name
                .write_fmt(name)
                .expect("formatting into a String cannot fail");
            f(&mut state.metrics, &state.name);
        }
    }

    /// Reads a counter (0 when disabled or absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.read(|_, metrics| metrics.counter(name)).unwrap_or(0)
    }

    /// Runs a closure against the live ring and metrics registry under
    /// the sink's lock, when enabled. Nothing is copied: this is the
    /// read for digests over everything collected, where
    /// [`TraceSink::snapshot`] would clone every retained event.
    pub fn read<R>(
        &self,
        f: impl FnOnce(&TraceBuffer, &Metrics) -> R,
    ) -> Option<R> {
        self.state.as_ref().map(|state| {
            let state = state.lock().unwrap();
            f(&state.buffer, &state.metrics)
        })
    }

    /// Snapshots everything collected so far (`None` when disabled).
    pub fn snapshot(&self) -> Option<TraceSnapshot> {
        self.read(|buffer, metrics| TraceSnapshot {
            events: buffer.to_vec(),
            dropped: buffer.dropped(),
            metrics: metrics.snapshot(),
        })
    }

    /// Clears collected events and metrics, keeping the sink enabled.
    pub fn clear(&self) {
        if let Some(state) = &self.state {
            let mut state = state.lock().unwrap();
            state.buffer.clear();
            state.metrics.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_is_inert_and_cheap() {
        let sink = TraceSink::disabled();
        assert!(!sink.is_enabled());
        sink.record(
            TraceContext::kernel(1),
            EventKind::Mark { label: "x".into() },
        );
        sink.incr("c");
        sink.observe("h", 5);
        assert_eq!(sink.counter("c"), 0);
        sink.metric(format_args!("c/{}", 1), |m, n| m.incr(n));
        assert!(sink.snapshot().is_none());
        assert!(sink.read(|_, _| ()).is_none());
    }

    #[test]
    fn enabled_sink_collects_events_and_metrics() {
        let sink = TraceSink::enabled(8);
        assert!(sink.is_enabled());
        sink.record(
            TraceContext::kernel(10),
            EventKind::Mark { label: "a".into() },
        );
        sink.incr("clock/charges");
        sink.add("clock/charges", 4);
        sink.observe("lat", 128);
        let snap = sink.snapshot().unwrap();
        assert_eq!(snap.events.len(), 1);
        assert_eq!(snap.metrics.counters["clock/charges"], 5);
        assert_eq!(snap.metrics.histograms["lat"].count(), 1);
    }

    #[test]
    fn formatted_updates_match_named_ones() {
        let sink = TraceSink::enabled(8);
        for op in ["read", "write", "read"] {
            sink.metric(format_args!("vfs/{op}/ops"), |m, n| m.incr(n));
            sink.metric(format_args!("vfs/{op}/bytes"), |m, n| {
                m.observe(n, 64);
            });
        }
        let named = TraceSink::enabled(8);
        for op in ["read", "write", "read"] {
            named.incr(&format!("vfs/{op}/ops"));
            named.observe(&format!("vfs/{op}/bytes"), 64);
        }
        let (a, b) = (sink.snapshot().unwrap(), named.snapshot().unwrap());
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(sink.counter("vfs/read/ops"), 2);
    }

    #[test]
    fn read_borrows_the_live_ring_and_metrics() {
        let sink = TraceSink::enabled(2);
        for ts in 0..3 {
            sink.record(
                TraceContext::kernel(ts),
                EventKind::Mark { label: "m".into() },
            );
        }
        sink.incr("c");
        let (stamps, dropped, c) = sink
            .read(|ring, metrics| {
                let stamps: Vec<u64> =
                    ring.iter().map(|e| e.ctx.ts_ns).collect();
                (stamps, ring.dropped(), metrics.counter("c"))
            })
            .unwrap();
        assert_eq!(stamps, vec![1, 2]);
        assert_eq!((dropped, c), (1, 1));
    }

    #[test]
    fn clones_share_state() {
        let sink = TraceSink::enabled(8);
        let other = sink.clone();
        other.incr("shared");
        assert_eq!(sink.counter("shared"), 1);
    }

    #[test]
    fn forks_copy_state_and_diverge() {
        let sink = TraceSink::enabled(2);
        for ts in 0..3 {
            sink.record(
                TraceContext::kernel(ts),
                EventKind::Mark { label: "m".into() },
            );
        }
        sink.incr("c");
        let fork = sink.fork();
        assert_eq!(
            format!("{:?}", fork.snapshot()),
            format!("{:?}", sink.snapshot())
        );
        fork.incr("c");
        fork.record(
            TraceContext::kernel(9),
            EventKind::Mark { label: "f".into() },
        );
        assert_eq!((sink.counter("c"), fork.counter("c")), (1, 2));
        let stamps = |s: &TraceSink| -> Vec<u64> {
            let snap = s.snapshot().unwrap();
            snap.events.iter().map(|e| e.ctx.ts_ns).collect()
        };
        assert_eq!((stamps(&sink), stamps(&fork)), (vec![1, 2], vec![2, 9]));
        assert!(!TraceSink::disabled().fork().is_enabled());
    }

    #[test]
    fn clear_keeps_sink_enabled() {
        let sink = TraceSink::enabled(4);
        sink.incr("c");
        for i in 0..9 {
            sink.record(
                TraceContext::kernel(i),
                EventKind::Mark { label: "m".into() },
            );
        }
        sink.clear();
        assert!(sink.is_enabled());
        let snap = sink.snapshot().unwrap();
        assert!(snap.events.is_empty());
        assert_eq!(snap.dropped, 0);
        assert_eq!(snap.metrics.counters.len(), 0);
    }
}
