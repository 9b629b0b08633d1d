//! The UIKit-flavored app lifecycle state machine, backed by the
//! kernel's memorystatus jetsam bands.
//!
//! Every state maps to a jetsam band
//! ([`AppState::jetsam_band`]): foregrounding an app raises it out of
//! the kill window, backgrounding and suspending sink it toward the
//! idle band, and a jetsam kill parks the record in
//! [`AppState::Jetsammed`] until the supervisor relaunches it. The
//! machine takes **only** the transitions [`AppLifecycle::legal`]
//! admits — an illegal event is rejected without touching the state,
//! the kernel, or the trace, which is what the property tests pin.

use cider_abi::errno::Errno;
use cider_abi::ids::{Pid, Tid};
use cider_abi::memorystatus::{AppState, LifecycleEvent};
use cider_core::system::CiderSystem;
use cider_kernel::kernel::Kernel;
use cider_kernel::process::ProcessState;

/// Rejection of an illegal lifecycle transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LifecycleError {
    /// State the machine was (and stays) in.
    pub state: AppState,
    /// The rejected event.
    pub event: LifecycleEvent,
}

/// One app's lifecycle record.
#[derive(Debug, Clone)]
pub struct AppLifecycle {
    /// The process backing the app (replaced on relaunch).
    pub pid: Pid,
    state: AppState,
    /// Successful transitions taken.
    pub transitions: u64,
}

impl AppLifecycle {
    /// Attaches a lifecycle to a freshly launched process: state
    /// [`AppState::Launching`], tracked in the matching jetsam band.
    pub fn attach(k: &mut Kernel, pid: Pid) -> AppLifecycle {
        let state = AppState::Launching;
        band(k, pid, state);
        AppLifecycle {
            pid,
            state,
            transitions: 0,
        }
    }

    /// Current state.
    pub fn state(&self) -> AppState {
        self.state
    }

    /// The pure transition relation: the state `event` moves `state`
    /// to, or `None` when the event is illegal there.
    pub fn legal(state: AppState, event: LifecycleEvent) -> Option<AppState> {
        use AppState as S;
        use LifecycleEvent as E;
        match (state, event) {
            (S::Launching, E::DidFinishLaunching) => Some(S::Foreground),
            (S::Foreground, E::EnterBackground) => Some(S::Background),
            (S::Background, E::EnterForeground) => Some(S::Foreground),
            (S::Background, E::Suspend) => Some(S::Suspended),
            (S::Suspended, E::EnterForeground) => Some(S::Foreground),
            // Jetsam can take any resident state (the foreground only
            // via the spurious-kill fault, but the machine does not
            // distinguish the killer's motive).
            (
                S::Launching | S::Foreground | S::Background | S::Suspended,
                E::Jetsam,
            ) => Some(S::Jetsammed),
            (S::Jetsammed, E::Relaunch) => Some(S::Launching),
            _ => None,
        }
    }

    /// Delivers one lifecycle event. On a legal transition the process
    /// is re-banded in memorystatus and the `app/lifecycle_transition`
    /// counter rises; an illegal event changes nothing.
    ///
    /// # Errors
    ///
    /// [`LifecycleError`] for illegal `(state, event)` pairs.
    pub fn apply(
        &mut self,
        k: &mut Kernel,
        event: LifecycleEvent,
    ) -> Result<AppState, LifecycleError> {
        let Some(next) = Self::legal(self.state, event) else {
            return Err(LifecycleError {
                state: self.state,
                event,
            });
        };
        self.state = next;
        self.transitions += 1;
        if next != AppState::Jetsammed {
            band(k, self.pid, next);
        }
        if k.trace.is_enabled() {
            k.trace.incr("app/lifecycle_transition");
            k.trace.metric(
                format_args!("app/lifecycle/{}", event.name()),
                |m, n| m.incr(n),
            );
        }
        Ok(next)
    }
}

/// Tracks `pid` in the jetsam band of `state` if its process is
/// running. An exited process was untracked by `sys_exit`; banding it
/// again would let the next jetsam pass report a kill of a process
/// that is already gone.
fn band(k: &mut Kernel, pid: Pid, state: AppState) {
    if k.process(pid)
        .is_ok_and(|p| p.state == ProcessState::Running)
    {
        k.memorystatus.track(pid, state.jetsam_band());
    }
}

/// The app supervisor: notices jetsammed apps and relaunches them
/// through spawn + exec, recording the recovery — the app-level
/// analogue of the launchd-style daemon supervisor.
#[derive(Debug, Clone)]
pub struct AppSupervisor {
    /// Binary the relaunch execs.
    pub binary_path: String,
    /// Bundle id, for the recovery ledger.
    pub bundle_id: String,
    /// Relaunches performed.
    pub relaunches: u64,
}

impl AppSupervisor {
    /// A supervisor for one app.
    pub fn new(binary_path: &str, bundle_id: &str) -> AppSupervisor {
        AppSupervisor {
            binary_path: binary_path.to_string(),
            bundle_id: bundle_id.to_string(),
            relaunches: 0,
        }
    }

    /// If `app` is jetsammed, spawn + exec a fresh process, move the
    /// lifecycle back to `Launching` on the new pid, and record the
    /// recovery. Returns the new `(pid, tid)` when a relaunch
    /// happened.
    ///
    /// # Errors
    ///
    /// Exec errors from the kernel.
    pub fn check(
        &mut self,
        sys: &mut CiderSystem,
        app: &mut AppLifecycle,
    ) -> Result<Option<(Pid, Tid)>, Errno> {
        if app.state() != AppState::Jetsammed {
            return Ok(None);
        }
        let (pid, tid) = sys.launch_ios_app(&self.binary_path, &["app"])?;
        app.pid = pid;
        app.apply(&mut sys.kernel, LifecycleEvent::Relaunch)
            .expect("Jetsammed + Relaunch is legal");
        self.relaunches += 1;
        sys.kernel
            .trace_recovery(format!("app/relaunch({})", self.bundle_id));
        Ok(Some((pid, tid)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cider_kernel::profile::DeviceProfile;

    #[test]
    fn happy_path_walks_the_bands() {
        let mut k = Kernel::boot(DeviceProfile::nexus7());
        let (pid, _tid) = k.spawn_process();
        let mut app = AppLifecycle::attach(&mut k, pid);
        assert_eq!(app.state(), AppState::Launching);
        assert_eq!(
            k.memorystatus.band(pid),
            Some(AppState::Launching.jetsam_band())
        );
        for (ev, want) in [
            (LifecycleEvent::DidFinishLaunching, AppState::Foreground),
            (LifecycleEvent::EnterBackground, AppState::Background),
            (LifecycleEvent::Suspend, AppState::Suspended),
            (LifecycleEvent::EnterForeground, AppState::Foreground),
        ] {
            assert_eq!(app.apply(&mut k, ev), Ok(want));
            assert_eq!(k.memorystatus.band(pid), Some(want.jetsam_band()));
        }
        assert_eq!(app.transitions, 4);
    }

    #[test]
    fn an_exited_pid_is_not_banded_so_jetsam_kills_nothing() {
        let mut k = Kernel::boot(DeviceProfile::nexus7());
        let (_, tid) = k.spawn_process();
        let (pid, app_tid) = k.spawn_process();
        k.sys_exit(app_tid, 0).unwrap();
        let mut app = AppLifecycle::attach(&mut k, pid);
        for ev in [
            LifecycleEvent::DidFinishLaunching,
            LifecycleEvent::EnterBackground,
        ] {
            assert!(app.apply(&mut k, ev).is_ok());
        }
        assert_eq!(app.state(), AppState::Background);
        assert_eq!(k.memorystatus.band(pid), None);
        k.memorystatus.set_watermarks(0, 0);
        assert_eq!(k.sys_jetsam_tick(tid), Ok(Vec::new()));
        assert_eq!(k.memorystatus.stats.pressure_kills, 0);
    }

    #[test]
    fn illegal_events_change_nothing() {
        let mut k = Kernel::boot(DeviceProfile::nexus7());
        let (pid, _tid) = k.spawn_process();
        let mut app = AppLifecycle::attach(&mut k, pid);
        let before_band = k.memorystatus.band(pid);
        for ev in [
            LifecycleEvent::EnterForeground,
            LifecycleEvent::EnterBackground,
            LifecycleEvent::Suspend,
            LifecycleEvent::Relaunch,
        ] {
            assert_eq!(
                app.apply(&mut k, ev),
                Err(LifecycleError {
                    state: AppState::Launching,
                    event: ev
                })
            );
        }
        assert_eq!(app.state(), AppState::Launching);
        assert_eq!(app.transitions, 0);
        assert_eq!(k.memorystatus.band(pid), before_band);
    }

    #[test]
    fn every_state_is_reachable_and_jetsam_is_broad() {
        // Every non-initial state has at least one inbound edge, and
        // every resident state can be jetsammed.
        for target in AppState::ALL {
            if target == AppState::Launching {
                continue;
            }
            let reachable = AppState::ALL.iter().any(|&s| {
                LifecycleEvent::ALL
                    .iter()
                    .any(|&e| AppLifecycle::legal(s, e) == Some(target))
            });
            assert!(reachable, "{target:?} unreachable");
        }
        for s in [
            AppState::Launching,
            AppState::Foreground,
            AppState::Background,
            AppState::Suspended,
        ] {
            assert_eq!(
                AppLifecycle::legal(s, LifecycleEvent::Jetsam),
                Some(AppState::Jetsammed)
            );
        }
        assert_eq!(
            AppLifecycle::legal(AppState::Jetsammed, LifecycleEvent::Jetsam),
            None
        );
    }
}
