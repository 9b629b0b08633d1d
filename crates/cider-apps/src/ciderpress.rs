//! CiderPress: "a standard Android app that integrates launch and
//! execution of an iOS app with Android's Launcher and system services"
//! (paper §3). It launches the foreign binary, and proxies its display
//! memory, incoming input events, and app state changes.

use cider_abi::errno::Errno;
use cider_abi::ids::{Pid, Tid};
use cider_core::system::CiderSystem;
use cider_gfx::stack::with_gfx;
use cider_gfx::surfaceflinger::SurfaceId;
use cider_input::eventpump::InputBridge;
use cider_input::events::AndroidEvent;

/// The proxied app lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppState {
    /// Visible and receiving input.
    Foreground,
    /// Backgrounded ("put into the background", §3).
    Paused,
    /// Terminated.
    Stopped,
}

/// A running CiderPress instance proxying one iOS app.
#[derive(Debug)]
pub struct CiderPress {
    /// CiderPress's own (Android) process.
    pub own: (Pid, Tid),
    /// The proxied iOS app.
    pub app: (Pid, Tid),
    /// The input bridge (§5.2).
    pub bridge: InputBridge,
    /// The proxied display surface: CiderPress hands its own window
    /// memory to the iOS app.
    pub surface: SurfaceId,
    /// Current lifecycle state.
    pub state: AppState,
    /// Lifecycle transitions observed (for tests and the recents list).
    pub lifecycle_log: Vec<AppState>,
}

impl CiderPress {
    /// Launches an installed iOS app bundle: spawns CiderPress, execs
    /// the Mach-O, establishes the input bridge, and allocates the
    /// proxied display surface.
    ///
    /// # Errors
    ///
    /// Exec errors (`EACCES` for still-encrypted binaries) and bridge
    /// establishment errors.
    pub fn launch(
        sys: &mut CiderSystem,
        binary_path: &str,
    ) -> Result<CiderPress, Errno> {
        let own = sys.spawn_process();
        sys.kernel.process_mut(own.0)?.program.path =
            "/system/app/CiderPress.apk".to_string();

        let app = sys.spawn_process();
        sys.exec(app.1, binary_path, &[binary_path])?;

        let bridge = InputBridge::establish(sys, own, app)?;

        let surface = with_gfx(&mut sys.kernel, |_, g| {
            g.flinger.create_surface(&mut g.gralloc, 1280, 800)
        })?;

        Ok(CiderPress {
            own,
            app,
            bridge,
            surface,
            state: AppState::Foreground,
            lifecycle_log: vec![AppState::Foreground],
        })
    }

    /// Forwards an input event to the app and pumps it through.
    ///
    /// # Errors
    ///
    /// `EINVAL` when the app is not foreground; bridge errors otherwise.
    pub fn deliver_input(
        &mut self,
        sys: &mut CiderSystem,
        event: &AndroidEvent,
    ) -> Result<(), Errno> {
        if self.state != AppState::Foreground {
            return Err(Errno::EINVAL);
        }
        self.bridge.send_from_ciderpress(sys, event)?;
        self.bridge.pump_once(sys)?;
        Ok(())
    }

    /// Pauses the app (Android lifecycle `onPause`): the proxied surface
    /// leaves composition.
    ///
    /// # Errors
    ///
    /// Surface errors.
    pub fn pause(&mut self, sys: &mut CiderSystem) -> Result<(), Errno> {
        with_gfx(&mut sys.kernel, |_, g| {
            g.flinger.set_visible(self.surface, false)
        })?;
        self.state = AppState::Paused;
        self.lifecycle_log.push(AppState::Paused);
        Ok(())
    }

    /// Resumes the app.
    ///
    /// # Errors
    ///
    /// Surface errors.
    pub fn resume(&mut self, sys: &mut CiderSystem) -> Result<(), Errno> {
        with_gfx(&mut sys.kernel, |_, g| {
            g.flinger.set_visible(self.surface, true)
        })?;
        self.state = AppState::Foreground;
        self.lifecycle_log.push(AppState::Foreground);
        Ok(())
    }

    /// Stops the app: the iOS process exits (running its 115 atexit
    /// handlers) and the surface is destroyed.
    ///
    /// # Errors
    ///
    /// Kernel errors.
    pub fn stop(&mut self, sys: &mut CiderSystem) -> Result<i32, Errno> {
        sys.kernel.sys_exit(self.app.1, 0)?;
        let code = sys.kernel.sys_waitpid(self.own.1, self.app.0);
        // The app is not CiderPress's child; reap failures are fine —
        // init would reap it. What matters is the zombie state.
        let _ = code;
        with_gfx(&mut sys.kernel, |_, g| {
            g.flinger.destroy_surface(&mut g.gralloc, self.surface)
        })?;
        self.state = AppState::Stopped;
        self.lifecycle_log.push(AppState::Stopped);
        Ok(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::package::{build_ios_app, decrypt_ipa, DeviceKey};
    use cider_gfx::stack::{gfx, install_gfx, GfxConfig};
    use cider_input::gestures::synth_tap;
    use cider_kernel::profile::DeviceProfile;

    fn setup() -> (CiderSystem, String) {
        let mut sys = CiderSystem::new(DeviceProfile::nexus7());
        install_gfx(&mut sys, GfxConfig::default());
        let ipa = build_ios_app("com.example.app", "App", "app_main", true);
        let dec =
            decrypt_ipa(&ipa, DeviceKey::from_jailbroken_device()).unwrap();
        let path = crate::launcher::install_ipa(&mut sys, &dec).unwrap();
        (sys, path)
    }

    #[test]
    fn launch_runs_foreign_binary_with_proxied_surface() {
        let (mut sys, path) = setup();
        let cp = CiderPress::launch(&mut sys, &path).unwrap();
        assert_eq!(
            cider_core::persona::persona_of(&sys.kernel, cp.app.1).unwrap(),
            cider_abi::Persona::Foreign
        );
        assert_eq!(
            cider_core::persona::persona_of(&sys.kernel, cp.own.1).unwrap(),
            cider_abi::Persona::Domestic
        );
        assert_eq!(gfx(&sys.kernel).flinger.surface_count(), 1);
    }

    #[test]
    fn encrypted_binary_refuses_to_launch() {
        let mut sys = CiderSystem::new(DeviceProfile::nexus7());
        install_gfx(&mut sys, GfxConfig::default());
        let enc = build_ios_app("com.x", "X", "m", true);
        let path = crate::launcher::install_ipa(&mut sys, &enc).unwrap();
        assert_eq!(
            CiderPress::launch(&mut sys, &path).unwrap_err(),
            Errno::EACCES
        );
    }

    #[test]
    fn input_flows_only_while_foreground() {
        let (mut sys, path) = setup();
        let mut cp = CiderPress::launch(&mut sys, &path).unwrap();
        for e in synth_tap(100, 100, 0) {
            cp.deliver_input(&mut sys, &e).unwrap();
        }
        assert_eq!(cp.bridge.events_forwarded, 2);
        cp.pause(&mut sys).unwrap();
        let e = &synth_tap(1, 1, 0)[0];
        assert_eq!(cp.deliver_input(&mut sys, e), Err(Errno::EINVAL));
        cp.resume(&mut sys).unwrap();
        cp.deliver_input(&mut sys, e).unwrap();
    }

    #[test]
    fn stop_exits_the_app_and_runs_exit_handlers() {
        let (mut sys, path) = setup();
        let mut cp = CiderPress::launch(&mut sys, &path).unwrap();
        let before = sys.kernel.counters.atexit_callbacks;
        cp.stop(&mut sys).unwrap();
        // 115 dyld-registered exit handlers ran.
        assert_eq!(sys.kernel.counters.atexit_callbacks - before, 115);
        assert_eq!(cp.state, AppState::Stopped);
        assert_eq!(
            cp.lifecycle_log,
            vec![AppState::Foreground, AppState::Stopped]
        );
        assert_eq!(gfx(&sys.kernel).flinger.surface_count(), 0);
    }
}
