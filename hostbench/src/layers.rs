//! Layer spans: host time and allocations around public calls.
//!
//! Spans never nest, so a span's self time is its whole duration. Each
//! span turns allocation counting on for exactly its own interval.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::alloc;

/// Every layer boundary the traced run reports, in output order.
pub const LAYERS: [&str; 20] = [
    "fleet.boot",
    "fleet.step",
    "fleet.finish",
    "fleet.capture",
    "fleet.heal",
    "bench.micro",
    "xnu.port",
    "xnu.send",
    "xnu.receive",
    "xnu.ring_flush",
    "kernel.fork",
    "loader.exec",
    "kernel.run_entry",
    "kernel.waitpid",
    "frameworks.install",
    "frameworks.cycle",
    "ckpt.encode",
    "ckpt.decode",
    "ckpt.replay",
    "ckpt.verify",
];

/// Totals of one layer over one pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTotals {
    /// Spans closed.
    pub calls: u64,
    /// Host nanoseconds inside them.
    pub host_ns: u64,
    /// Allocations made inside them.
    pub allocs: u64,
    /// Bytes those allocations requested.
    pub alloc_bytes: u64,
}

impl LayerTotals {
    /// `total` divided by the calls (0 when the layer never ran).
    pub fn per_call(&self, total: u64) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            total as f64 / self.calls as f64
        }
    }
}

/// Span totals of one pass, keyed by layer name.
#[derive(Debug, Default)]
pub struct Spans {
    totals: BTreeMap<&'static str, LayerTotals>,
}

impl Spans {
    /// Runs `f` inside a span of `layer`.
    pub fn time<R>(
        &mut self,
        layer: &'static str,
        f: impl FnOnce() -> R,
    ) -> R {
        let (a0, b0) = alloc::totals();
        alloc::set_counting(true);
        let t0 = Instant::now();
        let out = f();
        let ns = t0.elapsed().as_nanos() as u64;
        alloc::set_counting(false);
        let (a1, b1) = alloc::totals();
        let t = self.totals.entry(layer).or_default();
        t.calls += 1;
        t.host_ns += ns;
        t.allocs += a1 - a0;
        t.alloc_bytes += b1 - b0;
        out
    }

    /// Totals of one layer (all zero when it never ran).
    pub fn get(&self, layer: &str) -> LayerTotals {
        self.totals.get(layer).copied().unwrap_or_default()
    }
}
