//! Host cost of the trap and exec paths, and the order of the cold
//! walk's virtual charges.
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
//! DESIGN.md §13 describes the host side of a cold `exec(ios)`: one
//! resolve and an in-place header read per dylib, and one name per
//! image shared by its mapping and its callbacks. Three bounds hold
//! it: forking the 115-image measured process copies no names, a cold
//! exec allocates fewer than ten blocks per image, and a warm exec,
//! which replays the baked shared cache in place, fewer blocks than
//! images. Another test pins the order of the walk's virtual charges,
//! which no golden sees.
//!
//! The binary has its own global allocator, counting per thread, so
//! tests running in parallel do not see each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cider_abi::ids::Tid;
use cider_bench::config::{SystemConfig, TestBed};
use cider_bench::fig5::run_micro;
use cider_fleet::device::{DeviceSim, LMBENCH_MENU};
use cider_fleet::{DeviceSpec, Workload};
use cider_loader::FRAMEWORK_COUNT;

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

/// The measured process of a CiderIos bed: the lmbench binary with its
/// 115 dylibs, each holding an atfork triple and an atexit handler.
fn ios_bed_with_measured_process() -> (TestBed, Tid) {
    let mut bed = TestBed::builder(SystemConfig::CiderIos).build();
    let (pid, tid) = bed.spawn_measured().expect("bench binary");
    let p = bed.sys.kernel.process(pid).expect("measured process");
    assert_eq!(p.program.dylib_count as usize, FRAMEWORK_COUNT);
    assert_eq!(
        p.callbacks.atfork_total() + p.callbacks.atexit.len(),
        4 * FRAMEWORK_COUNT
    );
    (bed, tid)
}

#[test]
fn forking_the_measured_ios_process_copies_no_image_names() {
    let (mut bed, tid) = ios_bed_with_measured_process();
    let mut forked = None;
    let n = allocs_in(|| forked = Some(bed.sys.kernel.sys_fork(tid)));
    forked.unwrap().expect("fork");
    // Five names per image (a mapping and four callbacks) would be
    // 575 blocks; shared names make them reference counts.
    assert!(
        n < FRAMEWORK_COUNT as u64,
        "fork of a {FRAMEWORK_COUNT}-image process: {n} allocations"
    );
}

/// Forks the process of `tid` and execs the iOS hello binary in the
/// child, which must load all `FRAMEWORK_COUNT` images: the
/// allocations the exec made.
fn allocs_to_exec_ios_hello(bed: &mut TestBed, tid: Tid) -> u64 {
    let hello = bed.hello_path(true);
    let k = &mut bed.sys.kernel;
    let (child, child_tid) = k.sys_fork(tid).expect("fork");
    let mut exec = None;
    let n = allocs_in(|| {
        exec = Some(cider_core::exec::sys_exec_fixup(
            k,
            child_tid,
            hello,
            &[hello],
        ))
    });
    exec.unwrap().expect("exec of the iOS hello binary");
    let dylibs = k.process(child).expect("child").program.dylib_count;
    assert_eq!(dylibs as usize, FRAMEWORK_COUNT);
    n
}

#[test]
fn cold_ios_exec_allocates_under_ten_blocks_per_image() {
    let (mut bed, tid) = ios_bed_with_measured_process();
    assert!(!bed.sys.kernel.warm.is_enabled(), "exec must walk cold");
    let n = allocs_to_exec_ios_hello(&mut bed, tid);
    assert!(
        n < 10 * FRAMEWORK_COUNT as u64,
        "cold exec of {FRAMEWORK_COUNT} images: {n} allocations"
    );
}

#[test]
fn warm_ios_exec_allocates_fewer_blocks_than_images() {
    let (mut bed, tid) = ios_bed_with_measured_process();
    bed.sys.kernel.warm.set_enabled(true);
    // The first exec walks the closure cold and bakes the cache.
    allocs_to_exec_ios_hello(&mut bed, tid);
    let warm = &bed.sys.kernel.warm;
    assert_eq!((warm.stats.cold_bakes, warm.stats.warm_execs), (1, 0));
    let n = allocs_to_exec_ios_hello(&mut bed, tid);
    assert_eq!(bed.sys.kernel.warm.stats.warm_execs, 1, "exec ran warm");
    // The replay reads the baked closure in place and shares each
    // image's baked name with its mapping and callbacks; copying the
    // closure would cost at least one block per image.
    assert!(
        n < FRAMEWORK_COUNT as u64,
        "warm exec of {FRAMEWORK_COUNT} images: {n} allocations"
    );
}

/// A CiderIos launch-storm device: every unit forks the measured
/// process and execs the iOS hello binary with a cold dyld walk.
fn ios_launch_storm() -> DeviceSpec {
    DeviceSpec {
        device_id: 0,
        seed: 42,
        config: SystemConfig::CiderIos,
        workload: Workload::LaunchStorm { launches: 1 },
        fault_plan: None,
    }
}

/// Virtual time at which the watchdog expires on a fresh launch-storm
/// device for each of 64 budgets spread evenly across the first unit's
/// cost, as generated on the commit before the cold walk stopped
/// copying: a charge that moves within the walk moves some of them.
const LAUNCH_EXPIRIES_NS: [u64; 64] = [
    2725386, 3011586, 4265548, 4265548, 4265548, 4265548, 4427908, 4714108,
    4994908, 5281108, 5829208, 5849109, 6133036, 6416448, 6700572, 6984955,
    7269079, 7553515, 7837639, 8119701, 8405901, 8800301, 8973101, 9253901,
    10416063, 10416063, 10416063, 10416063, 10675623, 10956423, 11242623,
    11523423, 11979723, 12090990, 12375306, 12667697, 12942782, 13227165,
    13511289, 13795725, 14079861, 14362016, 14648216, 14950816, 15215416,
    15501616, 16566578, 16566578, 16566578, 16637138, 16917938, 17204138,
    17484938, 17771138, 18130238, 18342311, 18620971, 18909907, 19189490,
    19478414, 19758050, 20046974, 20323531, 20609731,
];

#[test]
fn cold_walk_charges_expire_the_watchdog_where_they_did() {
    let spec = ios_launch_storm();
    let mut sim = DeviceSim::boot(&spec);
    let t0 = sim.now_ns();
    sim.step();
    let cost = sim.now_ns() - t0;
    let expiries: Vec<u64> = (1..=64u64)
        .map(|i| {
            let mut sim = DeviceSim::boot(&spec);
            let budget = cost * i / 65;
            let expired = sim
                .step_within(budget)
                .expect_err("every budget is below the unit's cost");
            assert_eq!(expired.now_ns, sim.now_ns());
            sim.now_ns()
        })
        .collect();
    assert_eq!(expiries, LAUNCH_EXPIRIES_NS);
}
