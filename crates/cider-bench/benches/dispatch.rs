//! Host time of the dense syscall table against the `BTreeMap` table it
//! replaced.
//!
//! The dispatch redesign replaced the `BTreeMap` syscall tables with
//! dense flat arrays indexed by syscall number. This bench resolves
//! the null syscall (getpid), and walks every installed number, both
//! ways: the dense [`SyscallTable`] against a faithful `BTreeMap`
//! mirror of the same entries. It prints the median cost per lookup
//! and fails unless the dense table is at least twice as fast on both.
//!
//! It writes no file: host times differ from run to run and machine to
//! machine, and `BENCH_host.json` records the last committed run. The
//! virtual-time half of the dispatch evidence is
//! `cider_bench::dispatch`, which `tests/golden_tables.rs` pins as
//! `BENCH_dispatch.json`.
//!
//! ```text
//! cargo bench -p cider-bench --bench dispatch
//! ```

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use cider_abi::syscall::{SyscallName, XnuSyscall};
use cider_core::xnu_abi::XnuPersonality;
use cider_kernel::dispatch::{SyscallHandler, SyscallTable};

/// Lookups per sample of the null-syscall loop; a table walk sample
/// makes `ROUNDS / 64` passes over every number.
const ROUNDS: usize = 64 * 1024;

/// Samples per median.
const SAMPLES: usize = 21;

/// The least speedup of the dense table over the `BTreeMap` that
/// passes.
const MIN_SPEEDUP: f64 = 2.0;

/// A faithful mirror of the *old* table representation: an ordered map
/// from syscall number to `(name, handler)`.
fn btreemap_mirror(
    table: &SyscallTable,
) -> BTreeMap<i32, (SyscallName, SyscallHandler)> {
    table
        .entries()
        .map(|(nr, name)| {
            let handler = table.handler(nr).expect("entry has a handler");
            (nr, (name, handler))
        })
        .collect()
}

/// Median host nanoseconds of `f` across [`SAMPLES`] runs.
fn median_ns(mut f: impl FnMut()) -> f64 {
    let mut out: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    out.sort_by(f64::total_cmp);
    out[out.len() / 2]
}

fn main() {
    let xnu = XnuPersonality::new();
    let table = xnu.unix_table();
    let mirror = btreemap_mirror(table);
    let numbers: Vec<i32> = table.entries().map(|(nr, _)| nr).collect();
    let null_nr = XnuSyscall::Getpid.number();

    let null_dense_ns = median_ns(|| {
        for _ in 0..ROUNDS {
            black_box(table.lookup(black_box(null_nr)));
        }
    }) / ROUNDS as f64;
    let null_btreemap_ns = median_ns(|| {
        for _ in 0..ROUNDS {
            black_box(mirror.get(&black_box(null_nr)));
        }
    }) / ROUNDS as f64;

    let walks = ROUNDS / 64;
    let lookups = (walks * numbers.len()) as f64;
    let walk_dense_ns = median_ns(|| {
        for _ in 0..walks {
            for &nr in &numbers {
                black_box(table.lookup(black_box(nr)));
            }
        }
    }) / lookups;
    let walk_btreemap_ns = median_ns(|| {
        for _ in 0..walks {
            for &nr in &numbers {
                black_box(mirror.get(&black_box(nr)));
            }
        }
    }) / lookups;

    for (what, dense, btreemap) in [
        ("null syscall", null_dense_ns, null_btreemap_ns),
        ("full table walk", walk_dense_ns, walk_btreemap_ns),
    ] {
        let speedup = btreemap / dense;
        println!(
            "{what}: dense {dense:.3} ns, BTreeMap {btreemap:.3} ns per \
             lookup ({speedup:.2}x)"
        );
        assert!(
            speedup >= MIN_SPEEDUP,
            "{what}: the dense table is {speedup:.2}x the BTreeMap, \
             under {MIN_SPEEDUP}x"
        );
    }
}
