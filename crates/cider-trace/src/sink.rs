//! The [`TraceSink`] a device's kernel owns.
//!
//! A sink is either *disabled* — every call is a no-op on a `None`, no
//! allocation — or *enabled*, in which case events land in its
//! [`TraceBuffer`] and metrics in its [`Metrics`] registry. The sink
//! owns that state outright: recording takes `&mut self`, and `clone`
//! is a deep copy, so a forked device's sink diverges from its
//! template's from the first event on.
//!
//! Nothing in this module touches the virtual clock: recording cannot
//! perturb a measurement, which is the subsystem's core invariant.
//!
//! Hot paths stay allocation-free with tracing on. Names that vary per
//! call (`"syscall/{persona}/{call}"`) go through [`TraceSink::metric`],
//! which formats them into a buffer the sink keeps; readers that only
//! digest what was collected borrow it through [`TraceSink::ring`] and
//! [`TraceSink::metrics`] instead of copying it out with
//! [`TraceSink::snapshot`].

use std::fmt::{self, Write as _};

use crate::event::{EventKind, TraceContext, TraceEvent};
use crate::metrics::Metrics;
use crate::ring::TraceBuffer;

/// Default event capacity when callers don't choose one.
pub const DEFAULT_CAPACITY: usize = 64 * 1024;

#[derive(Debug, Clone)]
struct TraceState {
    buffer: TraceBuffer,
    metrics: Metrics,
    /// Scratch for names built by [`TraceSink::metric`]: cleared and
    /// refilled on every call, so it allocates only while it grows.
    name: String,
}

/// An event ring and a metrics registry, or nothing when disabled.
#[derive(Debug, Clone, Default)]
pub struct TraceSink {
    state: Option<Box<TraceState>>,
}

/// A frozen copy of everything a sink collected.
#[derive(Debug, Clone)]
pub struct TraceSnapshot {
    /// Retained events, oldest first.
    pub events: Vec<TraceEvent>,
    /// Events lost to ring wraparound.
    pub dropped: u64,
    /// Counter and histogram values.
    pub metrics: Metrics,
}

impl TraceSink {
    /// The inert sink: every operation is a no-op.
    pub fn disabled() -> TraceSink {
        TraceSink { state: None }
    }

    /// An active sink retaining up to `capacity` events.
    pub fn enabled(capacity: usize) -> TraceSink {
        TraceSink {
            state: Some(Box::new(TraceState {
                buffer: TraceBuffer::new(capacity),
                metrics: Metrics::new(),
                name: String::new(),
            })),
        }
    }

    /// An active sink with the default capacity.
    pub fn enabled_default() -> TraceSink {
        TraceSink::enabled(DEFAULT_CAPACITY)
    }

    /// Whether this sink records anything.
    pub fn is_enabled(&self) -> bool {
        self.state.is_some()
    }

    /// Records one event.
    pub fn record(&mut self, ctx: TraceContext, kind: EventKind) {
        if let Some(state) = &mut self.state {
            state.buffer.push(TraceEvent { ctx, kind });
        }
    }

    /// Adds to a named counter.
    pub fn add(&mut self, name: &str, delta: u64) {
        if let Some(state) = &mut self.state {
            state.metrics.add(name, delta);
        }
    }

    /// Increments a named counter.
    pub fn incr(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Records a histogram observation.
    pub fn observe(&mut self, name: &str, value: u64) {
        if let Some(state) = &mut self.state {
            state.metrics.observe(name, value);
        }
    }

    /// Updates the metric `name` formats to: `f` gets the live registry
    /// and the formatted name, as in
    /// `sink.metric(format_args!("vfs/{op}/ops"), |m, n| m.incr(n))`.
    /// The name is written into a buffer the sink reuses, so a per-call
    /// name costs no allocation once the metric exists.
    pub fn metric(
        &mut self,
        name: fmt::Arguments<'_>,
        f: impl FnOnce(&mut Metrics, &str),
    ) {
        if let Some(state) = &mut self.state {
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
        self.metrics().map_or(0, |m| m.counter(name))
    }

    /// The live event ring, when enabled.
    pub fn ring(&self) -> Option<&TraceBuffer> {
        self.state.as_ref().map(|state| &state.buffer)
    }

    /// The live metrics registry, when enabled.
    pub fn metrics(&self) -> Option<&Metrics> {
        self.state.as_ref().map(|state| &state.metrics)
    }

    /// Copies out everything collected so far (`None` when disabled).
    pub fn snapshot(&self) -> Option<TraceSnapshot> {
        self.state.as_ref().map(|state| TraceSnapshot {
            events: state.buffer.to_vec(),
            dropped: state.buffer.dropped(),
            metrics: state.metrics.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mark(sink: &mut TraceSink, ts: u64, label: &'static str) {
        sink.record(
            TraceContext::kernel(ts),
            EventKind::Mark {
                label: label.into(),
            },
        );
    }

    #[test]
    fn disabled_sink_is_inert_and_cheap() {
        let mut sink = TraceSink::disabled();
        assert!(!sink.is_enabled());
        mark(&mut sink, 1, "x");
        sink.incr("c");
        sink.observe("h", 5);
        assert_eq!(sink.counter("c"), 0);
        sink.metric(format_args!("c/{}", 1), |m, n| m.incr(n));
        assert!(sink.snapshot().is_none());
        assert!(sink.ring().is_none() && sink.metrics().is_none());
    }

    #[test]
    fn enabled_sink_collects_events_and_metrics() {
        let mut sink = TraceSink::enabled(8);
        assert!(sink.is_enabled());
        mark(&mut sink, 10, "a");
        sink.incr("vfs/read/ops");
        sink.add("vfs/read/ops", 4);
        sink.observe("lat", 128);
        let snap = sink.snapshot().unwrap();
        assert_eq!(snap.events.len(), 1);
        assert_eq!(snap.metrics.counters["vfs/read/ops"], 5);
        assert_eq!(snap.metrics.histograms["lat"].count(), 1);
    }

    #[test]
    fn formatted_updates_match_named_ones() {
        let mut sink = TraceSink::enabled(8);
        for op in ["read", "write", "read"] {
            sink.metric(format_args!("vfs/{op}/ops"), |m, n| m.incr(n));
            sink.metric(format_args!("vfs/{op}/bytes"), |m, n| {
                m.observe(n, 64);
            });
        }
        let mut named = TraceSink::enabled(8);
        for op in ["read", "write", "read"] {
            named.incr(&format!("vfs/{op}/ops"));
            named.observe(&format!("vfs/{op}/bytes"), 64);
        }
        assert_eq!(sink.metrics(), named.metrics());
        assert_eq!(sink.counter("vfs/read/ops"), 2);
    }

    #[test]
    fn ring_and_metrics_borrow_the_live_state() {
        let mut sink = TraceSink::enabled(2);
        for ts in 0..3 {
            mark(&mut sink, ts, "m");
        }
        sink.incr("c");
        let ring = sink.ring().unwrap();
        let stamps: Vec<u64> = ring.iter().map(|e| e.ctx.ts_ns).collect();
        assert_eq!(stamps, vec![1, 2]);
        assert_eq!(ring.dropped(), 1);
        assert_eq!(sink.metrics().unwrap().counter("c"), 1);
    }

    #[test]
    fn clones_copy_state_and_diverge() {
        let mut sink = TraceSink::enabled(2);
        for ts in 0..3 {
            mark(&mut sink, ts, "m");
        }
        sink.incr("c");
        let mut copy = sink.clone();
        assert_eq!(
            format!("{:?}", copy.snapshot()),
            format!("{:?}", sink.snapshot())
        );
        copy.incr("c");
        mark(&mut copy, 9, "f");
        assert_eq!((sink.counter("c"), copy.counter("c")), (1, 2));
        let stamps = |s: &TraceSink| -> Vec<u64> {
            s.ring().unwrap().iter().map(|e| e.ctx.ts_ns).collect()
        };
        assert_eq!((stamps(&sink), stamps(&copy)), (vec![1, 2], vec![2, 9]));
        let dropped = |s: &TraceSink| s.ring().unwrap().dropped();
        assert_eq!((dropped(&sink), dropped(&copy)), (1, 2));
        assert!(!TraceSink::disabled().clone().is_enabled());
    }
}
