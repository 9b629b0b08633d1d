//! Golden-snapshot tests for the evaluation tables: the rendered
//! Figure 5, Figure 6 and app-scenario output is pinned byte-for-byte
//! under `tests/golden/`, and the virtual-time dispatch evidence is
//! pinned as `BENCH_dispatch.json` at the repository root. The virtual
//! clock makes all of them fully deterministic, so any drift is a real
//! behaviour change — either a deliberate model change (regenerate the
//! snapshots) or a regression.
//!
//! Regenerate with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_tables
//! ```

use std::fs;
use std::path::PathBuf;

use cider_bench::dispatch;
use cider_bench::SystemConfig;

/// Compares `got` with the file at `path`, relative to the repository
/// root, or rewrites the file under `UPDATE_GOLDEN`.
fn check(path: &str, got: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(path);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, got).unwrap();
        return;
    }
    let want = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{}: {e}\nregenerate with UPDATE_GOLDEN=1 cargo test \
             --test golden_tables",
            path.display()
        )
    });
    assert_eq!(
        got,
        want,
        "{} drifted from its golden snapshot; if the change is \
         intended, regenerate with UPDATE_GOLDEN=1 cargo test --test \
         golden_tables",
        path.display()
    );
}

#[test]
fn fig5_table_matches_golden() {
    check(
        "tests/golden/fig5.txt",
        &cider_bench::fig5::run().to_string(),
    );
}

#[test]
fn fig6_table_matches_golden() {
    check(
        "tests/golden/fig6.txt",
        &cider_bench::fig6::run().to_string(),
    );
}

#[test]
fn app_scenario_table_matches_golden() {
    check(
        "tests/golden/fig_apps.txt",
        &cider_bench::apps::run().to_string(),
    );
}

#[test]
fn dispatch_bench_matches_golden() {
    check("BENCH_dispatch.json", &dispatch::run().to_string());
}

/// The claims `BENCH_dispatch.json` is committed to back.
#[test]
fn dispatch_headline_claims_hold() {
    let bench = dispatch::run();
    let ios: Vec<SystemConfig> =
        bench.ipc_v2.iter().map(|v| v.config).collect();
    assert_eq!(ios, [SystemConfig::CiderIos, SystemConfig::IpadMini]);
    for v2 in &bench.ipc_v2 {
        // One crossing instead of two, and no subsystem mutex, at
        // least halves the round trip.
        assert!(
            v2.mach_msg_ns * 2 <= v2.v1_mach_msg_ns,
            "{}: v2 mach_msg {} ns against v1 {} ns lost its 2x win",
            v2.config.slug(),
            v2.mach_msg_ns,
            v2.v1_mach_msg_ns
        );
        // One flush crossing for the whole batch beats a trap per
        // message.
        assert!(
            v2.ring_batch_per_msg_ns < v2.mach_msg_ns,
            "{}: a ring batch costs {} ns a message, one v2 trap {} ns",
            v2.config.slug(),
            v2.ring_batch_per_msg_ns,
            v2.mach_msg_ns
        );
    }
    let launch = bench
        .launches
        .iter()
        .find(|l| l.config == SystemConfig::CiderIos)
        .expect("a Cider iOS launch row");
    // The prelinked cache and the copy-on-write fork remove the
    // closure walk and the eager PTE copy.
    assert!(
        launch.cold_launch_ns >= 3 * launch.warm_launch_ns,
        "cider_ios: cold launch {} ns is under 3x the warm {} ns",
        launch.cold_launch_ns,
        launch.warm_launch_ns
    );
}
