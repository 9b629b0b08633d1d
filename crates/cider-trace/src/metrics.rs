//! Named monotonic counters and log₂-bucketed latency histograms.
//!
//! Metric names are slash-separated paths; instrumentation sites build
//! them as `"<mechanism>/<persona>/<detail>"` (e.g.
//! `"syscall/foreign/null"`), which lets reports aggregate by prefix.

use std::collections::BTreeMap;
use std::fmt;

/// Number of log₂ buckets: values up to 2⁶³ ns land in a bucket.
pub const BUCKETS: usize = 64;

/// A log₂-bucketed histogram over virtual nanoseconds.
///
/// Bucket `i` counts observations `v` with `bucket_index(v) == i`, i.e.
/// bucket 0 holds `v == 0` and `v == 1`, bucket 1 holds 2..=3, bucket 2
/// holds 4..=7, and so on — the classic power-of-two latency histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

/// The bucket a value lands in: `floor(log2(max(v, 1)))`.
pub fn bucket_index(value: u64) -> usize {
    63 - value.max(1).leading_zeros() as usize
}

/// Inclusive value range of a bucket.
pub fn bucket_bounds(index: usize) -> (u64, u64) {
    if index == 0 {
        return (0, 1);
    }
    let lo = 1u64 << index;
    let hi = if index == 63 { u64::MAX } else { (lo << 1) - 1 };
    (lo, hi)
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        self.buckets[bucket_index(value)] += 1;
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean observation, or 0 with no data.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest observation, or `None` with no data.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation, or `None` with no data.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Raw bucket counts.
    pub fn buckets(&self) -> &[u64; BUCKETS] {
        &self.buckets
    }

    /// Approximate quantile (0.0..=1.0): the upper bound of the bucket
    /// containing the q-th observation.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64)
            .clamp(1, self.count);
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(bucket_bounds(i).1.min(self.max));
            }
        }
        Some(self.max)
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// A compact one-line rendering of the populated buckets.
    pub fn render(&self) -> String {
        if self.count == 0 {
            return "(empty)".to_string();
        }
        let mut out = format!(
            "n={} mean={:.0}ns min={}ns max={}ns |",
            self.count,
            self.mean(),
            self.min,
            self.max,
        );
        let first = bucket_index(self.min);
        let last = bucket_index(self.max);
        for i in first..=last {
            let (lo, _) = bucket_bounds(i);
            out.push_str(&format!(" {}ns:{}", lo, self.buckets[i]));
        }
        out
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// The registry: counters and histograms by name, in name order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Histograms by name.
    pub histograms: BTreeMap<String, Histogram>,
}

impl Metrics {
    /// An empty registry.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Adds to a named monotonic counter, creating it at zero. The
    /// counter saturates at `u64::MAX`: a delta can come from a trap
    /// argument (`vfs/read/bytes` adds the requested count, which a raw
    /// `read` may set to `usize::MAX`), and no trap may panic.
    pub fn add(&mut self, name: &str, delta: u64) {
        if let Some(v) = self.counters.get_mut(name) {
            *v = v.saturating_add(delta);
        } else {
            self.counters.insert(name.to_string(), delta);
        }
    }

    /// Increments a named counter by one.
    pub fn incr(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Reads a counter; missing counters read zero.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Records an observation in a named histogram, creating it empty.
    pub fn observe(&mut self, name: &str, value: u64) {
        if let Some(h) = self.histograms.get_mut(name) {
            h.record(value);
        } else {
            let mut h = Histogram::new();
            h.record(value);
            self.histograms.insert(name.to_string(), h);
        }
    }

    /// Reads a histogram.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All counters whose name starts with `prefix`, in name order.
    pub fn counters_with_prefix(&self, prefix: &str) -> Vec<(&str, u64)> {
        self.counters
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(k, v)| (k.as_str(), *v))
            .collect()
    }

    /// All histograms whose name starts with `prefix`, in name order.
    pub fn histograms_with_prefix(
        &self,
        prefix: &str,
    ) -> Vec<(&str, &Histogram)> {
        self.histograms
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(k, v)| (k.as_str(), v))
            .collect()
    }
}

impl fmt::Display for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, v) in &self.counters {
            writeln!(f, "counter   {name:<44} {v}")?;
        }
        for (name, h) in &self.histograms {
            writeln!(f, "histogram {name:<44} {h}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(7), 2);
        assert_eq!(bucket_index(8), 3);
        assert_eq!(bucket_index(1023), 9);
        assert_eq!(bucket_index(1024), 10);
        assert_eq!(bucket_index(u64::MAX), 63);
    }

    #[test]
    fn bucket_bounds_partition_the_domain() {
        assert_eq!(bucket_bounds(0), (0, 1));
        assert_eq!(bucket_bounds(1), (2, 3));
        assert_eq!(bucket_bounds(10), (1024, 2047));
        assert_eq!(bucket_bounds(63).1, u64::MAX);
        // Every boundary value maps into its own bucket.
        for i in 1..63 {
            let (lo, hi) = bucket_bounds(i);
            assert_eq!(bucket_index(lo), i);
            assert_eq!(bucket_index(hi), i);
            assert_eq!(bucket_index(lo - 1), i - 1);
        }
    }

    #[test]
    fn histogram_stats() {
        let mut h = Histogram::new();
        for v in [100, 200, 400, 800] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 1500);
        assert_eq!(h.mean(), 375.0);
        assert_eq!(h.min(), Some(100));
        assert_eq!(h.max(), Some(800));
        assert_eq!(h.buckets()[bucket_index(100)], 1);
        assert_eq!(h.buckets()[bucket_index(800)], 1);
    }

    #[test]
    fn quantiles_are_monotone() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let q50 = h.quantile(0.5).unwrap();
        let q99 = h.quantile(0.99).unwrap();
        assert!(q50 <= q99, "{q50} vs {q99}");
        assert!((256..=1023).contains(&q50), "{q50}");
        assert_eq!(h.quantile(1.0), Some(1000));
        assert_eq!(Histogram::new().quantile(0.5), None);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = Histogram::new();
        a.record(10);
        let mut b = Histogram::new();
        b.record(1000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), Some(10));
        assert_eq!(a.max(), Some(1000));
    }

    #[test]
    fn registry_counters_and_prefixes() {
        let mut m = Metrics::new();
        m.incr("clock/charges");
        m.add("clock/charges", 2);
        m.incr("syscall/foreign/read");
        assert_eq!(m.counter("clock/charges"), 3);
        assert_eq!(m.counter("missing"), 0);
        let clock = m.counters_with_prefix("clock/");
        assert_eq!(clock, vec![("clock/charges", 3)]);
    }

    #[test]
    fn named_counters_saturate_instead_of_overflowing() {
        let mut m = Metrics::new();
        m.add("vfs/read/bytes", 1);
        m.add("vfs/read/bytes", u64::MAX);
        m.add("vfs/read/bytes", u64::MAX);
        assert_eq!(m.counter("vfs/read/bytes"), u64::MAX);
    }

    #[test]
    fn equality_ignores_registration_order() {
        let mut a = Metrics::new();
        a.add("x", 1);
        a.add("y", 2);
        let mut b = Metrics::new();
        b.add("y", 2);
        b.add("x", 1);
        assert_eq!(a, b);
        b.incr("x");
        assert_ne!(a, b);
    }

    #[test]
    fn registry_histograms() {
        let mut m = Metrics::new();
        m.observe("syscall/foreign/null", 900);
        m.observe("syscall/foreign/null", 950);
        m.observe("syscall/domestic/null", 600);
        let h = m.histogram("syscall/foreign/null").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(m.histograms_with_prefix("syscall/").len(), 2);
        assert!(m.to_string().contains("syscall/domestic/null"));
    }
}
