//! Assertions shared by the integration tests that compare two
//! devices: a mismatch prints the record-level `StateImage::diff` and
//! the first differing trace event, not two opaque blobs.

// Each test binary that includes this module uses a subset of it.
#![allow(dead_code)]

use cider_ckpt::StateImage;
use cider_fleet::DeviceSim;
use cider_trace::TraceSnapshot;

/// Panics with the record-level delta when two images differ.
pub fn assert_same_image(want: &StateImage, got: &StateImage, what: &str) {
    let deltas = want.diff(got);
    if !deltas.is_empty() {
        let report: String = deltas.iter().map(|d| d.to_string()).collect();
        panic!("{what}: images differ, want (-) vs got (+):\n{report}");
    }
}

/// Panics with the first differing event or metric when two traces
/// differ. Events compare with `==`, over every field; only the first
/// pair that differs is formatted.
pub fn assert_same_trace(
    want: &TraceSnapshot,
    got: &TraceSnapshot,
    what: &str,
) {
    let n = want.events.len().max(got.events.len());
    if let Some(i) = (0..n).find(|&i| want.events.get(i) != got.events.get(i))
    {
        panic!(
            "{what}: traces diverge at event {i} of {}/{}:\n  want {:?}\n  \
             got  {:?}",
            want.events.len(),
            got.events.len(),
            want.events.get(i),
            got.events.get(i)
        );
    }
    assert_eq!(want.dropped, got.dropped, "{what}: dropped events");
    for (name, v) in &want.metrics.counters {
        assert_eq!(
            got.metrics.counters.get(name),
            Some(v),
            "{what}: counter {name}"
        );
    }
    for (name, h) in &want.metrics.histograms {
        assert_eq!(
            got.metrics.histograms.get(name),
            Some(h),
            "{what}: histogram {name}"
        );
    }
    assert_eq!(
        want.metrics, got.metrics,
        "{what}: metrics present on one side only"
    );
}

/// A copy of everything the device's trace sink collected so far.
pub fn trace(sim: &DeviceSim) -> TraceSnapshot {
    sim.kernel()
        .trace
        .snapshot()
        .expect("fleet devices are traced")
}
