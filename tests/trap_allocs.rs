//! Tracing keeps the trap path allocation-free.
//!
//! DESIGN.md §9 calls the trap hot path allocation-free; this binary
//! holds that claim with tracing on. Every `LMBENCH_MENU` kind runs
//! through `fig5::run_micro` on a traced and an untraced bed of each
//! persona, and the traced run may make no more heap allocations than
//! the untraced one. Warm-up runs the menu until the trace ring is
//! full, so every metric name is registered and the ring has stopped
//! growing its slot vector: what is left is the per-trap cost of
//! recording events and updating metrics, which must be zero.
//!
//! The binary has its own global allocator, counting per thread, so
//! tests running in parallel do not see each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cider_bench::config::{SystemConfig, TestBed};
use cider_bench::fig5::run_micro;
use cider_fleet::device::LMBENCH_MENU;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the allocator can run while thread-locals are torn
    // down, when there is nothing left to count into.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's pointer
// and layout unchanged; the counter is a statistic and publishes no
// data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(
        &self,
        ptr: *mut u8,
        layout: Layout,
        new_size: usize,
    ) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (including reallocations) this thread makes in `f`.
fn allocs_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

fn ring_full(bed: &TestBed) -> bool {
    bed.trace_snapshot().expect("bed is traced").dropped > 0
}

fn traced_traps_allocate_nothing_extra(config: SystemConfig) {
    let mut traced = TestBed::builder(config).traced().build();
    let mut plain = TestBed::builder(config).build();
    let (pid, tid) = traced.spawn_measured().expect("bench binary");
    assert_eq!(plain.spawn_measured().expect("bench binary"), (pid, tid));

    // Both beds run the same warm-up, so they stay in the same state.
    let mut passes = 0;
    while !ring_full(&traced) {
        for _ in 0..16 {
            for bed in [&mut traced, &mut plain] {
                for micro in LMBENCH_MENU {
                    run_micro(bed, pid, tid, micro);
                }
            }
        }
        passes += 16;
        assert!(passes < 1000, "trace ring never filled");
    }

    for micro in LMBENCH_MENU {
        let mut ran = (None, None);
        let with_trace =
            allocs_in(|| ran.0 = run_micro(&mut traced, pid, tid, micro));
        let without =
            allocs_in(|| ran.1 = run_micro(&mut plain, pid, tid, micro));
        // Tracing never charges the virtual clock, so the two beds
        // measured the same work.
        assert_eq!(ran.0, ran.1, "{micro:?} on {config:?}");
        assert!(
            with_trace <= without,
            "{micro:?} on {config:?}: {with_trace} allocations traced, \
             {without} untraced"
        );
    }
}

#[test]
fn traced_ios_traps_allocate_nothing_extra() {
    traced_traps_allocate_nothing_extra(SystemConfig::CiderIos);
}

#[test]
fn traced_android_traps_allocate_nothing_extra() {
    traced_traps_allocate_nothing_extra(SystemConfig::CiderAndroid);
}
