//! The app-framework scenario table: launch-to-foreground,
//! background-jetsam-relaunch, and realtime-audio latencies across the
//! four system configurations, in the Figure 5/6 normalized format.
//!
//! The scenario bodies live in `cider-frameworks` and are
//! configuration-agnostic; the columns differ because the beds do. The
//! Android configurations launch the platform ELF, the iOS ones exec
//! the bundle's Mach-O (carrying the dyld 115-image closure through
//! every launch and relaunch), the audio render callback issues the
//! persona-correct `getpid` trap each period, and the iPad's device
//! profile scales every CPU charge.

use cider_abi::ids::Tid;
use cider_abi::syscall::XnuSyscall;
use cider_frameworks::scenarios::{self, install_scenario_bundle, AppSpec};
use cider_kernel::dispatch::SyscallArgs;
use cider_kernel::kernel::Kernel;

use crate::config::{SystemConfig, TestBed};
use crate::lmbench::trap_number;
use crate::report::{Table, TableRow};

/// Audio periods the realtime scenario renders (one ~0.74 s session).
pub const AUDIO_PERIODS: u64 = 64;

/// Seed of the audio session's render-jitter stream.
pub const AUDIO_SEED: u64 = 23;

/// Installs the scenario bundle on a bed and picks the binary the
/// configuration's ecosystem would actually exec: the bundle Mach-O on
/// the iOS configurations, the platform hello ELF elsewhere (the
/// Android configurations cannot exec Mach-O).
pub fn app_spec(bed: &mut TestBed) -> AppSpec {
    let mut spec = install_scenario_bundle(
        &mut bed.sys,
        "Scenario",
        "com.cider.scenario",
    )
    .expect("fresh fs");
    if !bed.config.runs_ios_binary() {
        spec.binary_path = bed.hello_path(false).to_string();
    }
    spec
}

/// The per-period render-callback kernel crossing of a configuration:
/// the persona-correct null trap (a stand-in for the HAL `mach_msg` /
/// ioctl a real render callback issues).
pub fn render_trap(config: SystemConfig) -> impl FnMut(&mut Kernel, Tid) {
    let nr = trap_number(config.runs_ios_binary(), XnuSyscall::Getpid);
    move |k: &mut Kernel, tid: Tid| {
        let r = k.trap(tid, nr, &SyscallArgs::none());
        debug_assert!(r.reg > 0);
    }
}

/// Runs the three scenarios on one bed; returns the row values
/// `[launch_ns, jetsam_relaunch_ns, audio_session_ns, audio_missed]`.
pub fn run_config(bed: &mut TestBed) -> [f64; 4] {
    let spec = app_spec(bed);
    let (launch, _app, _tid) =
        scenarios::launch_to_foreground(&mut bed.sys, &spec)
            .expect("scenario bundle installed");
    let jetsam = scenarios::background_jetsam_relaunch(&mut bed.sys, &spec)
        .expect("jetsam round trip");
    let (audio, report) = scenarios::realtime_audio(
        &mut bed.sys,
        &spec,
        AUDIO_PERIODS,
        AUDIO_SEED,
        render_trap(bed.config),
    )
    .expect("audio session");
    debug_assert_eq!(report.missed, audio.audio_missed);
    [
        launch.latency_ns as f64,
        jetsam.latency_ns as f64,
        audio.latency_ns as f64,
        audio.audio_missed as f64,
    ]
}

/// Runs the full app-scenario table.
pub fn run() -> Table {
    let mut table = Table::new(
        "Apps: framework scenario latencies",
        "ns (audio misses: count)",
        true,
    );
    let mut columns = Vec::new();
    for config in SystemConfig::ALL {
        let mut bed = TestBed::builder(config).build();
        columns.push(run_config(&mut bed));
    }
    let names = [
        ("lifecycle", "launch to foreground"),
        ("lifecycle", "jetsam kill to relaunch"),
        ("audio", "audio session (64 periods)"),
        ("audio", "audio missed deadlines"),
    ];
    for (i, (group, name)) in names.iter().enumerate() {
        let mut values = [None; 4];
        for (c, col) in columns.iter().enumerate() {
            values[c] = Some(col[i]);
        }
        table.rows.push(TableRow {
            group: (*group).to_string(),
            name: (*name).to_string(),
            values,
        });
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn app_table_reproduces_the_expected_shape() {
        let table = run();
        let cell = |name: &str, c| table.normalized_cell(name, c);
        use SystemConfig::*;

        // Launch: the iOS configurations pay the dyld closure, so a
        // cold launch costs more than the Android ELF launch.
        let launch_ci = cell("launch to foreground", CiderIos).unwrap();
        assert!(launch_ci > 1.0, "cider ios launch {launch_ci}");
        // Cider adds little over vanilla for the Android app.
        let launch_ca = cell("launch to foreground", CiderAndroid).unwrap();
        assert!((0.8..1.3).contains(&launch_ca), "{launch_ca}");

        // The jetsam round trip is dominated by the relaunch exec, so
        // it follows the same ordering.
        let jr_ci = cell("jetsam kill to relaunch", CiderIos).unwrap();
        assert!(jr_ci > 1.0, "cider ios relaunch {jr_ci}");

        // Audio: every configuration misses some deadlines but not
        // all — the session straddles its deadline by design.
        for config in SystemConfig::ALL {
            let missed = table
                .rows
                .iter()
                .find(|r| r.name == "audio missed deadlines")
                .unwrap()
                .values
                [SystemConfig::ALL.iter().position(|&c| c == config).unwrap()]
            .unwrap();
            assert!(missed > 0.0, "{config:?} missed {missed}");
            assert!(
                missed < AUDIO_PERIODS as f64,
                "{config:?} missed {missed}"
            );
        }
    }

    #[test]
    fn app_table_is_deterministic() {
        assert_eq!(run().to_string(), run().to_string());
    }
}
