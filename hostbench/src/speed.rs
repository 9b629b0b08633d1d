//! Host speed, measured by a fixed reference kernel between batches.
//!
//! Other tenants of the machine slow the simulator by up to about 1.6x,
//! in phases that last from seconds to minutes, so raw medians of whole
//! runs spread by up to 40 % from run to run. A compute-only loop does not
//! see these phases; an allocation- and tree-heavy loop, like the
//! simulator itself, does, and tracks it closely: the simulator's batch
//! time divided by the kernel's time spreads by 2-3 % across runs. Host
//! times are therefore reported in reference seconds: each batch's time
//! divided by the slowdown the kernel measured right after it. On an
//! unloaded machine where the kernel takes [`REFERENCE_S`], reference
//! seconds are plain host seconds.
//!
//! The kernel belongs to the benchmark and calls nothing in the
//! repository, so a change to the simulator cannot move it.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Host seconds the kernel takes unloaded (2.1 GHz Xeon vCPU).
const REFERENCE_S: f64 = 0.005;

/// Formats, hashes and files 10 000 short keys in a `BTreeMap` with
/// small vectors as values, then walks the map.
fn reference_kernel() -> u64 {
    let mut map = BTreeMap::new();
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for i in 0..black_box(10_000u64) {
        let key =
            format!("event/{i}/{:x}", i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        for &b in key.as_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
        map.insert(key, vec![i; (i % 7) as usize]);
    }
    for (k, v) in &map {
        h ^= (k.len() + v.len()) as u64;
    }
    h
}

/// How many times slower than unloaded the machine runs the reference
/// kernel right now.
pub fn slowdown() -> f64 {
    let t = Instant::now();
    black_box(reference_kernel());
    t.elapsed().as_secs_f64() / REFERENCE_S
}
