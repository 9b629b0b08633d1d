//! The three end-to-end app scenarios the fig6-style golden pins:
//! launch-to-foreground, background-jetsam-relaunch, and
//! realtime-audio.
//!
//! Scenarios are config-agnostic: the caller supplies the binary the
//! app execs (an ELF on the Android configurations, the bundle's
//! Mach-O on the iOS ones) and a per-period render syscall for the
//! audio session, so one scenario body produces four honestly
//! different columns — the differences come entirely from the exec
//! path, the per-persona syscall costs, and the device profile, never
//! from scenario-side special-casing.

use cider_abi::errno::Errno;
use cider_abi::ids::Tid;
use cider_abi::memorystatus::LifecycleEvent;
use cider_apps::package::build_ios_app;
use cider_core::system::CiderSystem;

use crate::audio::{AudioReport, AudioSession};
use crate::bundle::Bundle;
use crate::lifecycle::{AppLifecycle, AppSupervisor};

/// What the scenarios need to know about the installed app.
#[derive(Debug, Clone)]
pub struct AppSpec {
    /// Bundle directory (`/Applications/<Name>.app`).
    pub bundle_dir: String,
    /// Binary the scenario execs — the bundle Mach-O on iOS-capable
    /// configurations, the platform ELF elsewhere.
    pub binary_path: String,
    /// Bundle identifier.
    pub bundle_id: String,
}

/// Footprint the scenarios charge for a resident app, bytes. Two such
/// apps cross [`SCENARIO_WARN_BYTES`]; none alone does.
pub const SCENARIO_APP_FOOTPRINT: u64 = 48 << 20;

/// Warn watermark the jetsam scenario arms.
pub const SCENARIO_WARN_BYTES: u64 = 64 << 20;

/// Critical watermark the jetsam scenario arms.
pub const SCENARIO_CRITICAL_BYTES: u64 = 96 << 20;

/// Measurements one scenario run produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScenarioOutcome {
    /// Virtual time the measured phase took, ns.
    pub latency_ns: u64,
    /// Lifecycle transitions taken across the scenario.
    pub transitions: u64,
    /// Audio deadline misses (realtime-audio only, else 0).
    pub audio_missed: u64,
}

/// Installs the scenario bundle: a decryptable-free `.ipa` layout with
/// Info.plist, `en`/`fr` localized strings, and an unlocalized asset,
/// written through the overlay like the Launcher's background unpacker
/// does. Returns the bundle's binary path.
///
/// # Errors
///
/// VFS errors.
pub fn install_scenario_bundle(
    sys: &mut CiderSystem,
    name: &str,
    bundle_id: &str,
) -> Result<AppSpec, Errno> {
    let ipa = build_ios_app(bundle_id, name, "app_main", false);
    let binary_path = cider_apps::launcher::install_ipa(sys, &ipa)?;
    let bundle_dir = format!("/Applications/{name}.app");
    for loc in ["en", "fr"] {
        sys.kernel
            .vfs
            .mkdir_p_overlay(&format!("{bundle_dir}/{loc}.lproj"))?;
    }
    sys.kernel.vfs.write_file_overlay(
        &format!("{bundle_dir}/en.lproj/Main.strings"),
        b"title=Scenario".to_vec(),
    )?;
    sys.kernel.vfs.write_file_overlay(
        &format!("{bundle_dir}/fr.lproj/Main.strings"),
        b"title=Sc\xc3\xa9nario".to_vec(),
    )?;
    sys.kernel.vfs.write_file_overlay(
        &format!("{bundle_dir}/Default.png"),
        vec![0xC1; 4096],
    )?;
    Ok(AppSpec {
        bundle_dir,
        binary_path,
        bundle_id: bundle_id.to_string(),
    })
}

/// Launches the app and walks it to the foreground: spawn + exec,
/// `NSBundle` open, localized resource loads, then
/// `DidFinishLaunching` → `EnterForeground`. The latency is the full
/// cold path, exec included.
///
/// # Errors
///
/// Exec/VFS errnos.
pub fn launch_to_foreground(
    sys: &mut CiderSystem,
    spec: &AppSpec,
) -> Result<(ScenarioOutcome, AppLifecycle, Tid), Errno> {
    let t0 = sys.kernel.clock.now_ns();
    let (pid, tid) = sys.launch_ios_app(&spec.binary_path, &["app"])?;
    let mut app = AppLifecycle::attach(&mut sys.kernel, pid);
    let bundle = Bundle::open(&mut sys.kernel, tid, &spec.bundle_dir)?;
    bundle.load_resource(&mut sys.kernel, "Main", "strings", Some("fr"))?;
    bundle.load_resource(&mut sys.kernel, "Default", "png", None)?;
    app.apply(&mut sys.kernel, LifecycleEvent::DidFinishLaunching)
        .expect("Launching + DidFinishLaunching is legal");
    sys.kernel
        .memorystatus
        .charge_footprint(pid, SCENARIO_APP_FOOTPRINT);
    Ok((
        ScenarioOutcome {
            latency_ns: sys.kernel.clock.now_ns() - t0,
            transitions: app.transitions,
            audio_missed: 0,
        },
        app,
        tid,
    ))
}

/// The jetsam round trip: two resident apps under armed watermarks,
/// the background one backgrounded + suspended, one memorystatus pass
/// kills it, and the supervisor relaunches it to the foreground. The
/// latency is kill-to-foreground (the user tapping a jetsammed app's
/// icon), and the scenario asserts the foreground app survived.
///
/// # Errors
///
/// Exec/VFS errnos; `EIO` if the pass killed the wrong process.
pub fn background_jetsam_relaunch(
    sys: &mut CiderSystem,
    spec: &AppSpec,
) -> Result<ScenarioOutcome, Errno> {
    // The victim-to-be launches first and goes to the background.
    let (_, mut victim, _vt) = launch_to_foreground(sys, spec)?;
    victim
        .apply(&mut sys.kernel, LifecycleEvent::EnterBackground)
        .expect("legal");
    victim
        .apply(&mut sys.kernel, LifecycleEvent::Suspend)
        .expect("legal");

    // A second app takes the foreground; two footprints now exceed
    // the warn watermark.
    let fg_spec = AppSpec {
        bundle_dir: spec.bundle_dir.clone(),
        binary_path: spec.binary_path.clone(),
        bundle_id: format!("{}.fg", spec.bundle_id),
    };
    let (_, fg, _fg_tid) = launch_to_foreground(sys, &fg_spec)?;
    sys.kernel
        .memorystatus
        .set_watermarks(SCENARIO_WARN_BYTES, SCENARIO_CRITICAL_BYTES);

    // One memorystatus pass: the suspended app must die, the
    // foreground one must survive.
    let t0 = sys.kernel.clock.now_ns();
    let kernel_tid = sys.kernel_task.1;
    let killed = sys.kernel.sys_jetsam_tick(kernel_tid)?;
    if !killed.contains(&victim.pid) || killed.contains(&fg.pid) {
        return Err(Errno::EIO);
    }
    victim
        .apply(&mut sys.kernel, LifecycleEvent::Jetsam)
        .expect("legal");

    // The supervisor notices and relaunches it into the foreground.
    let mut sup = AppSupervisor::new(&spec.binary_path, &spec.bundle_id);
    sup.check(sys, &mut victim)?.ok_or(Errno::EIO)?;
    victim
        .apply(&mut sys.kernel, LifecycleEvent::DidFinishLaunching)
        .expect("legal");
    let latency_ns = sys.kernel.clock.now_ns() - t0;

    // Disarm the watermarks so later phases see a quiet device.
    sys.kernel.memorystatus.set_watermarks(u64::MAX, u64::MAX);
    Ok(ScenarioOutcome {
        latency_ns,
        transitions: victim.transitions + fg.transitions,
        audio_missed: 0,
    })
}

/// The realtime-audio scenario: launch to the foreground, then run a
/// 512-frames-at-44.1-kHz render session whose per-period kernel
/// crossing is `on_render` (the caller issues the persona-correct
/// trap). The latency is the whole session; `audio_missed` counts the
/// deadline overruns.
///
/// # Errors
///
/// Exec/VFS errnos.
pub fn realtime_audio(
    sys: &mut CiderSystem,
    spec: &AppSpec,
    periods: u64,
    seed: u64,
    on_render: impl FnMut(&mut cider_kernel::kernel::Kernel, Tid),
) -> Result<(ScenarioOutcome, AudioReport), Errno> {
    let (_, app, tid) = launch_to_foreground(sys, spec)?;
    let session = AudioSession::render_512_at_44k(seed);
    let report = session.run(&mut sys.kernel, tid, periods, on_render)?;
    Ok((
        ScenarioOutcome {
            latency_ns: report.total_ns,
            transitions: app.transitions,
            audio_missed: report.missed,
        },
        report,
    ))
}

/// Convenience for tests and the fleet: one full lifecycle cycle
/// (launch → foreground → background → suspend → jetsam → relaunch)
/// plus a short audio burst, returning total virtual ns.
///
/// # Errors
///
/// Scenario errnos.
pub fn full_cycle(
    sys: &mut CiderSystem,
    spec: &AppSpec,
    audio_periods: u64,
    seed: u64,
    on_render: impl FnMut(&mut cider_kernel::kernel::Kernel, Tid),
) -> Result<ScenarioOutcome, Errno> {
    let t0 = sys.kernel.clock.now_ns();
    let jetsam = background_jetsam_relaunch(sys, spec)?;
    let (audio, _) =
        realtime_audio(sys, spec, audio_periods, seed, on_render)?;
    Ok(ScenarioOutcome {
        latency_ns: sys.kernel.clock.now_ns() - t0,
        transitions: jetsam.transitions + audio.transitions,
        audio_missed: audio.audio_missed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cider_abi::memorystatus::{AppState, PressureLevel};
    use cider_kernel::profile::DeviceProfile;

    fn booted() -> (CiderSystem, AppSpec) {
        let mut sys = CiderSystem::new(DeviceProfile::nexus7());
        let spec =
            install_scenario_bundle(&mut sys, "Scenario", "com.example.scn")
                .unwrap();
        (sys, spec)
    }

    #[test]
    fn launch_to_foreground_reaches_the_foreground_band() {
        let (mut sys, spec) = booted();
        let (out, app, _tid) = launch_to_foreground(&mut sys, &spec).unwrap();
        assert!(out.latency_ns > 0);
        assert_eq!(app.state(), AppState::Foreground);
        assert_eq!(
            sys.kernel.memorystatus.band(app.pid),
            Some(AppState::Foreground.jetsam_band())
        );
        assert_eq!(
            sys.kernel.memorystatus.footprint(app.pid),
            Some(SCENARIO_APP_FOOTPRINT)
        );
    }

    #[test]
    fn jetsam_kills_the_suspended_app_and_relaunch_recovers() {
        let (mut sys, spec) = booted();
        let out = background_jetsam_relaunch(&mut sys, &spec).unwrap();
        assert!(out.latency_ns > 0);
        assert_eq!(sys.kernel.memorystatus.stats.pressure_kills, 1);
        assert_eq!(sys.kernel.memorystatus.level(), PressureLevel::Normal);
        assert!(sys
            .kernel
            .faults
            .recoveries()
            .iter()
            .any(|r| r.action.starts_with("app/relaunch")));
    }

    #[test]
    fn scenarios_are_byte_identical_across_runs() {
        let run = || {
            let (mut sys, spec) = booted();
            let a = background_jetsam_relaunch(&mut sys, &spec).unwrap();
            let (b, report) =
                realtime_audio(&mut sys, &spec, 32, 23, |_, _| {}).unwrap();
            (a, b, report, sys.kernel.clock.now_ns())
        };
        assert_eq!(run(), run());
    }
}
