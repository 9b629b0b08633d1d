//! End-to-end integration: the full §3 user experience, spanning every
//! crate — package decryption, installation, CiderPress launch, input,
//! diplomatic rendering, lifecycle, and teardown.

use cider_apps::ciderpress::{AppState, CiderPress};
use cider_apps::launcher::{install_ipa_with_shortcut, Launcher};
use cider_apps::package::{build_ios_app, decrypt_ipa, DeviceKey, Ipa};
use cider_core::persona::persona_of;
use cider_core::system::CiderSystem;
use cider_gfx::stack::{gfx, install_gfx, with_gfx, GfxConfig};
use cider_input::gestures::{synth_pinch, synth_tap};
use cider_kernel::profile::DeviceProfile;

fn booted() -> CiderSystem {
    let mut sys = CiderSystem::new(DeviceProfile::nexus7());
    install_gfx(&mut sys, GfxConfig::default());
    sys.kernel
        .register_program("app_main", std::sync::Arc::new(|_, _| 0));
    sys
}

fn installed_app(sys: &mut CiderSystem) -> (Launcher, String, Ipa) {
    let ipa = decrypt_ipa(
        &build_ios_app("com.example.e2e", "E2E", "app_main", true),
        DeviceKey::from_jailbroken_device(),
    )
    .expect("decrypt");
    let mut launcher = Launcher::new();
    let path =
        install_ipa_with_shortcut(sys, &mut launcher, &ipa).expect("install");
    (launcher, path, ipa)
}

#[test]
fn full_app_lifecycle() {
    let mut sys = booted();
    let (launcher, path, ipa) = installed_app(&mut sys);
    assert_eq!(launcher.shortcuts[0].icon, ipa.icon);

    let mut cp = CiderPress::launch(&mut sys, &path).expect("launch");
    assert_eq!(
        persona_of(&sys.kernel, cp.app.1).unwrap(),
        cider_abi::Persona::Foreign
    );

    // Touch input end to end, including multi-touch.
    for ev in synth_tap(100, 100, 0) {
        cp.deliver_input(&mut sys, &ev).unwrap();
    }
    for ev in synth_pinch((640, 400), 100, 200, 5, 1_000_000) {
        cp.deliver_input(&mut sys, &ev).unwrap();
    }
    assert!(cp.bridge.events_forwarded >= 9);

    // Render a frame through the diplomatic stack.
    let lib = "OpenGLES.framework/OpenGLES";
    let tid = cp.app.1;
    let ctx = sys
        .diplomat_call(tid, lib, "EAGLContext_initWithAPI", &[])
        .unwrap();
    sys.diplomat_call(tid, lib, "EAGLContext_setCurrentContext", &[ctx])
        .unwrap();
    sys.diplomat_call(
        tid,
        lib,
        "EAGLContext_renderbufferStorage",
        &[ctx, 1280, 800],
    )
    .unwrap();
    sys.diplomat_call(tid, lib, "glClear", &[0x4000]).unwrap();
    sys.diplomat_call(tid, lib, "glDrawArrays", &[4, 0, 300])
        .unwrap();
    sys.diplomat_call(tid, lib, "EAGLContext_presentRenderbuffer", &[])
        .unwrap();
    assert_eq!(gfx(&sys.kernel).flinger.frames_presented, 1);

    // Lifecycle: pause, resume, stop.
    cp.pause(&mut sys).unwrap();
    assert_eq!(cp.state, AppState::Paused);
    cp.resume(&mut sys).unwrap();
    cp.stop(&mut sys).unwrap();
    assert_eq!(cp.state, AppState::Stopped);

    // Mach IPC books balance after the whole story.
    cider_core::with_state(&mut sys.kernel, |_, st| {
        st.machipc.check_invariants()
    });
}

#[test]
fn android_and_ios_apps_coexist() {
    let mut sys = booted();
    let (_, path, _) = installed_app(&mut sys);

    // An Android app (interpreted workload) runs alongside the iOS app.
    let (android_pid, android_tid) = sys.spawn_process();
    let cp = CiderPress::launch(&mut sys, &path).expect("launch");

    let prog = cider_apps::workloads::integer_program(200, 5);
    let mut vm = cider_apps::vm::Vm::new();
    let vm_result = vm.run(&mut sys.kernel, &prog).unwrap();
    let native =
        cider_apps::workloads::integer_native(&mut sys.kernel, 200, 5);
    assert_eq!(vm_result.value, native);

    assert_eq!(
        persona_of(&sys.kernel, android_tid).unwrap(),
        cider_abi::Persona::Domestic
    );
    assert_eq!(
        persona_of(&sys.kernel, cp.app.1).unwrap(),
        cider_abi::Persona::Foreign
    );
    assert_ne!(android_pid, cp.app.0);
}

#[test]
fn yelp_style_fallback_when_device_missing() {
    // §6.4: the Yelp app runs even though GPS is unsupported — it asks,
    // gets "no such device", and continues on its fallback path.
    let mut sys = booted();
    let (_, path, _) = installed_app(&mut sys);
    let cp = CiderPress::launch(&mut sys, &path).expect("launch");

    // The app queries I/O Kit for a GPS service; none is registered.
    let found = cider_core::with_state(&mut sys.kernel, |_, st| {
        st.iokit.find_service("IOGPSNub")
    });
    assert!(found.is_none(), "no GPS on the Nexus 7 bridge");

    // The app continues: it can still render and take input.
    let tid = cp.app.1;
    let lib = "IOSurface.framework/IOSurface";
    let buf = sys
        .diplomat_call(tid, lib, "IOSurfaceCreate", &[64, 64])
        .unwrap();
    assert!(buf > 0);

    // Plug in a GPS-class device later and the bridge publishes it.
    sys.add_device("gps", "gps", "/dev/gps0").unwrap();
    let found = cider_core::with_state(&mut sys.kernel, |_, st| {
        st.iokit.find_service("IOGpsNub")
    });
    assert!(found.is_some(), "hotplugged device reaches I/O Kit");
}

#[test]
fn eventpump_can_wait_with_kqueue() {
    // §4.2: kqueue/kevent are supported "as user space libraries ...
    // simply via API interposition" — here the eventpump's run loop
    // watches its bridge socket through the interposed kqueue.
    use cider_core::kqueue::{EvAction, EvFilter, KQueue, Kevent};
    let mut sys = booted();
    let (_, path, _) = installed_app(&mut sys);
    let mut cp = CiderPress::launch(&mut sys, &path).expect("launch");
    let (_, pump_tid, sock) = cp.bridge.pump;

    let mut kq = KQueue::new();
    kq.apply(
        &sys.kernel,
        EvAction::Add,
        Kevent {
            ident: sock.as_raw() as u64,
            filter: EvFilter::Read,
            udata: 0xE7,
            timer_ms: 0,
        },
    )
    .unwrap();

    // Quiet socket: no events.
    assert!(kq.poll(&mut sys.kernel, pump_tid).unwrap().is_empty());

    // CiderPress forwards a tap; the kqueue wakes the pump.
    cp.bridge
        .send_from_ciderpress(&mut sys, &synth_tap(5, 5, 0)[0])
        .unwrap();
    let evs = kq.poll(&mut sys.kernel, pump_tid).unwrap();
    assert_eq!(evs.len(), 1);
    assert_eq!(evs[0].udata, 0xE7);

    // The pump drains and forwards; the kqueue goes quiet again.
    assert_eq!(cp.bridge.pump_once(&mut sys).unwrap(), 1);
    assert!(kq.poll(&mut sys.kernel, pump_tid).unwrap().is_empty());
}

#[test]
fn accelerometer_samples_reach_the_app() {
    // §5.2: "The events sent to this port include mouse, button,
    // accelerometer, proximity and touch screen events."
    let mut sys = booted();
    let (_, path, _) = installed_app(&mut sys);
    let mut cp = CiderPress::launch(&mut sys, &path).expect("launch");
    let tid = cp.app.1;
    for i in 0..10i32 {
        cp.deliver_input(
            &mut sys,
            &cider_input::events::AndroidEvent::Accelerometer {
                x: i * 10,
                y: -i * 10,
                z: 1000,
                time_ns: i as u64 * 10_000_000,
            },
        )
        .unwrap();
    }
    let mut samples = 0;
    while let Ok(ev) = cp.bridge.receive_app_event(&mut sys, tid) {
        let cider_input::events::IosHidEvent::Accelerometer { z, .. } = ev
        else {
            panic!("expected accelerometer, got {ev:?}");
        };
        // Android milli-g scaled to iOS micro-g.
        assert_eq!(z, 1_000_000);
        samples += 1;
    }
    assert_eq!(samples, 10);
}

#[test]
fn screenshot_flows_into_recents() {
    let mut sys = booted();
    let (mut launcher, path, _) = installed_app(&mut sys);
    let cp = CiderPress::launch(&mut sys, &path).expect("launch");

    // Draw into the proxied surface and composite.
    with_gfx(&mut sys.kernel, |k, g| {
        let buf = g.flinger.dequeue_buffer(cp.surface).unwrap();
        g.gralloc.get_mut(buf).unwrap().pixels[0] = 0xC1DE;
        g.flinger.queue_buffer(cp.surface).unwrap();
        g.flinger.composite(k, &mut g.gpu, &g.gralloc);
    });
    let shot = gfx(&sys.kernel)
        .flinger
        .last_screenshot
        .clone()
        .expect("screenshot captured");
    assert_eq!(shot.1[0], 0xC1DE);
    launcher.push_recent("E2E", shot.1);
    assert_eq!(launcher.recents.len(), 1);
}

// ----------------------------------------------------------------------
// Deterministic fault injection: every injected fault class either
// surfaces as a correctly translated error or triggers a traced
// recovery — the stack never panics under the fault matrix.
// ----------------------------------------------------------------------

use cider_abi::errno::Errno;
use cider_abi::syscall::LinuxSyscall;
use cider_core::state::with_state;
use cider_fault::{FaultLayer, FaultPlan, FaultSite};
use cider_frameworks::scenarios;
use cider_kernel::dispatch::{SyscallArgs, SyscallData};
use cider_kernel::kernel::Kernel;

#[test]
fn linux_convention_translates_every_injected_fault_class() {
    use cider_abi::types::OpenFlags;
    let mut k = Kernel::boot(DeviceProfile::nexus7());
    let (_pid, tid) = k.spawn_process();
    k.vfs.mkdir_p("/tmp").unwrap();
    fn arm(k: &mut Kernel, site: FaultSite) {
        k.faults = FaultLayer::with_plan(FaultPlan::new(3).with(site, 1000));
    }

    // A clean file so read and write reach their injection sites.
    let creat = (OpenFlags::CREAT | OpenFlags::RDWR).0 as i64;
    let mut open = SyscallArgs::regs([0, creat, 0o644, 0, 0, 0, 0]);
    open.data = SyscallData::Path("/tmp/faulty".into());
    let fd = k.trap(tid, LinuxSyscall::Open.number() as i64, &open).reg;
    assert!(fd >= 0);
    let mut w = SyscallArgs::regs([fd, 0, 1, 0, 0, 0, 0]);
    w.data = SyscallData::Bytes(vec![b'a'].into());
    assert!(k.trap(tid, LinuxSyscall::Write.number() as i64, &w).reg > 0);

    // Linux persona: faults come back as negative errnos, and the CPU
    // flags stay untouched (no carry bit in this convention).
    arm(&mut k, FaultSite::VfsRead);
    let args = SyscallArgs::regs([fd, 0, 1, 0, 0, 0, 0]);
    let r = k.trap(tid, LinuxSyscall::Read.number() as i64, &args);
    assert_eq!(r.reg, -(Errno::EIO.as_raw() as i64));
    assert!(!r.flags.carry);

    arm(&mut k, FaultSite::VfsWrite);
    let r = k.trap(tid, LinuxSyscall::Write.number() as i64, &w);
    assert_eq!(r.reg, -(Errno::EIO.as_raw() as i64));

    arm(&mut k, FaultSite::VfsCreate);
    let mut c = SyscallArgs::regs([0, creat, 0o644, 0, 0, 0, 0]);
    c.data = SyscallData::Path("/tmp/full".into());
    let r = k.trap(tid, LinuxSyscall::Open.number() as i64, &c);
    assert_eq!(r.reg, -(Errno::ENOSPC.as_raw() as i64));

    arm(&mut k, FaultSite::ForkPteCopy);
    let r = k.trap(
        tid,
        LinuxSyscall::Fork.number() as i64,
        &SyscallArgs::none(),
    );
    assert_eq!(r.reg, -(Errno::ENOMEM.as_raw() as i64));
}

#[test]
fn lost_wakeups_are_flushed_without_deadlocking_virtual_time() {
    use cider_kernel::process::ThreadState;
    use cider_xnu::psynch::PsynchOutcome;

    let mut sys = booted();
    sys.kernel.trace = cider_trace::TraceSink::enabled_default();
    let (_pid, t1) = sys.kernel.spawn_process();
    let t2 = sys.kernel.spawn_thread(t1).unwrap();
    const MUTEX: u64 = 0x7000_0000;

    // t1 owns the mutex; t2 contends and parks on its wait channel.
    let k = &mut sys.kernel;
    let mutexwait = |k: &mut Kernel, tid| {
        with_state(k, |k, st| {
            st.with_xnu(k, tid, |_, ps, api| ps.mutexwait(api, MUTEX))
        })
    };
    assert_eq!(mutexwait(k, t1), PsynchOutcome::Acquired);
    assert_eq!(mutexwait(k, t2), PsynchOutcome::Blocked);
    assert!(matches!(
        k.thread(t2).unwrap().state,
        ThreadState::Blocked(_)
    ));

    // Arm the lost-wakeup site and drop the mutex: ownership transfers
    // to t2, but the wakeup that should unpark it vanishes.
    k.faults = FaultLayer::with_plan(
        FaultPlan::new(5).with(FaultSite::SchedWakeup, 1000),
    );
    with_state(k, |k, st| {
        st.with_xnu(k, t1, |_, ps, api| ps.mutexdrop(api, MUTEX))
    })
    .unwrap();
    assert!(
        matches!(k.thread(t2).unwrap().state, ThreadState::Blocked(_)),
        "the armed site must actually lose the wakeup"
    );

    // The site stays armed: survival must not depend on the fault
    // clearing. The next scheduling point flushes the deferred channel,
    // t2 runs, and virtual time advances finitely instead of hanging.
    let before = k.clock.now_ns();
    k.schedule();
    assert_eq!(k.thread(t2).unwrap().state, ThreadState::Runnable);
    assert!(k.clock.now_ns() > before, "time moved past the recovery");

    // And t2 is not merely runnable: within a bounded number of
    // scheduler steps it actually gets the CPU back from the daemons.
    let ran = (0..64).any(|_| k.schedule() == Some(t2));
    assert!(ran, "flushed waiter never got the CPU");
    assert!(k
        .faults
        .recoveries()
        .iter()
        .any(|r| r.action.starts_with("sched/deferred_wakeup_flush")));
    let snap = k.trace.snapshot().unwrap();
    assert!(snap.metrics.counter("recovery/actions") > 0);
    assert!(snap.metrics.counter("fault/sched_wakeup") > 0);
}

#[test]
fn fault_matrix_never_panics_and_recovers() {
    for seed in [11u64, 23, 47] {
        let mut sys = booted();
        let (_launcher, path, _ipa) = installed_app(&mut sys);
        sys.kernel.trace = cider_trace::TraceSink::enabled_default();
        sys.kernel.faults = FaultLayer::with_plan(FaultPlan::matrix(seed));

        // App launch under faults: dyld resolution, Mach allocation,
        // and zone exhaustion may all fire. Failure must be a clean
        // error, success a working app.
        let launched = CiderPress::launch(&mut sys, &path);
        if let Ok(mut cp) = launched {
            for ev in synth_tap(64, 64, 0) {
                // Drops are absorbed by the pump, never escalated.
                cp.deliver_input(&mut sys, &ev).unwrap();
            }
        }

        // VFS and process churn: only the injected errnos may appear.
        let (_p, tid) = sys.spawn_process();
        sys.kernel.vfs.mkdir_p("/tmp").unwrap();
        use cider_abi::types::OpenFlags;
        for i in 0..40 {
            let flags = OpenFlags::CREAT | OpenFlags::RDWR;
            match sys.kernel.sys_open(tid, &format!("/tmp/f{i}"), flags) {
                Ok(fd) => {
                    for r in [
                        sys.kernel.sys_write(tid, fd, b"x").map(|_| ()),
                        sys.kernel.sys_read(tid, fd, 1).map(|_| ()),
                        sys.kernel.sys_close(tid, fd),
                    ] {
                        if let Err(e) = r {
                            assert_eq!(e, Errno::EIO, "seed {seed}");
                        }
                    }
                }
                Err(e) => assert_eq!(e, Errno::ENOSPC, "seed {seed}"),
            }
            match sys.kernel.sys_fork(tid) {
                Ok((child_pid, child_tid)) => {
                    sys.kernel.sys_exit(child_tid, 0).unwrap();
                    sys.kernel.sys_waitpid(tid, child_pid).unwrap();
                }
                Err(e) => assert_eq!(e, Errno::ENOMEM, "seed {seed}"),
            }
        }

        // App-framework scenarios under the same matrix: bundle loads
        // may vanish mid-lookup (BundleMissing) and jetsam passes may
        // take spurious foreground victims (JetsamKill). Either way
        // the scenario fails with a clean errno or completes with the
        // supervisor having recovered the kill — never a panic.
        match scenarios::install_scenario_bundle(
            &mut sys,
            "Faulty",
            "com.example.faulty",
        ) {
            Ok(spec) => {
                for _ in 0..8 {
                    if let Err(e) =
                        scenarios::background_jetsam_relaunch(&mut sys, &spec)
                    {
                        // EIO: a spurious JetsamKill took the wrong
                        // process; the rest are injected VFS/exec
                        // errnos surfacing through launch.
                        assert!(
                            matches!(
                                e,
                                Errno::EIO
                                    | Errno::ENOENT
                                    | Errno::ENOSPC
                                    | Errno::ENOMEM
                                    | Errno::ENOEXEC
                            ),
                            "seed {seed}: dirty scenario errno {e:?}"
                        );
                    }
                }
            }
            Err(e) => assert_eq!(e, Errno::ENOSPC, "seed {seed}"),
        }

        // Daemon death: the supervisor must bring notifyd back even
        // when the respawn path itself is being fault-injected.
        let victim = sys.services.notifyd;
        sys.kernel.sys_exit(victim.tid, 9).unwrap();
        let mut respawned = false;
        for _ in 0..8 {
            let actions = sys.services.supervise(&mut sys.kernel).unwrap();
            if actions.iter().any(|a| a == "respawn(notifyd)") {
                respawned = true;
                break;
            }
        }
        assert!(respawned, "seed {seed}: notifyd never came back");
        assert_ne!(sys.services.notifyd.pid, victim.pid);

        // The ledger saw injections, the trace saw the recoveries, and
        // the IPC subsystem is still internally consistent.
        assert!(
            sys.kernel.faults.injected_total() > 0,
            "seed {seed}: matrix never fired"
        );
        assert!(!sys.kernel.faults.recoveries().is_empty());
        let snap = sys.kernel.trace.snapshot().unwrap();
        assert!(snap.metrics.counter("fault/injected") > 0);
        assert!(snap.metrics.counter("recovery/actions") > 0);
        with_state(&mut sys.kernel, |_, st| {
            st.machipc.check_invariants();
        });
    }
}

#[test]
fn spurious_jetsam_kill_is_recovered_by_the_app_supervisor() {
    use cider_abi::memorystatus::{AppState, LifecycleEvent};
    use cider_frameworks::AppSupervisor;

    let mut sys = booted();
    sys.kernel.trace = cider_trace::TraceSink::enabled_default();
    let spec = scenarios::install_scenario_bundle(
        &mut sys,
        "Spiky",
        "com.example.spiky",
    )
    .unwrap();
    let (_, mut app, _tid) =
        scenarios::launch_to_foreground(&mut sys, &spec).unwrap();

    // No watermark pressure at all — only the transient-spike fault,
    // whose kill window reaches the foreground band inclusive.
    sys.kernel.faults = FaultLayer::with_plan(
        FaultPlan::new(3).with(FaultSite::JetsamKill, 1000),
    );
    let kernel_tid = sys.kernel_task.1;
    let killed = sys.kernel.sys_jetsam_tick(kernel_tid).unwrap();
    assert!(killed.contains(&app.pid), "spike must reach the foreground");
    assert_eq!(sys.kernel.memorystatus.stats.fault_kills, 1);
    assert_eq!(sys.kernel.memorystatus.stats.pressure_kills, 0);

    // The supervisor notices the kill and relaunches the app.
    app.apply(&mut sys.kernel, LifecycleEvent::Jetsam).unwrap();
    let mut sup = AppSupervisor::new(&spec.binary_path, &spec.bundle_id);
    sup.check(&mut sys, &mut app).unwrap().expect("relaunched");
    assert_eq!(app.state(), AppState::Launching);
    assert!(sys
        .kernel
        .faults
        .recoveries()
        .iter()
        .any(|r| r.action.starts_with("app/relaunch")));
    let snap = sys.kernel.trace.snapshot().unwrap();
    assert!(snap.metrics.counter("app/jetsam_kill/fault") > 0);
}

#[test]
fn vanished_bundle_resource_degrades_to_the_fallback_localization() {
    use cider_frameworks::Bundle;

    let mut sys = booted();
    sys.kernel.trace = cider_trace::TraceSink::enabled_default();
    let spec = scenarios::install_scenario_bundle(
        &mut sys,
        "Ghost",
        "com.example.ghost",
    )
    .unwrap();
    let (_pid, tid) = sys.launch_ios_app(&spec.binary_path, &["app"]).unwrap();
    let bundle = Bundle::open(&mut sys.kernel, tid, &spec.bundle_dir).unwrap();

    // One injection budgeted: the requested `fr` localization
    // vanishes mid-lookup and the load degrades to `en`.
    sys.kernel.faults = FaultLayer::with_plan(FaultPlan::new(9).site(
        FaultSite::BundleMissing,
        cider_fault::SiteConfig::with_probability(1000).budget(1),
    ));
    let (path, bytes) = bundle
        .load_resource(&mut sys.kernel, "Main", "strings", Some("fr"))
        .unwrap();
    assert!(path.contains("en.lproj"), "fell back past fr: {path}");
    assert_eq!(bytes, b"title=Scenario");
    assert!(sys
        .kernel
        .faults
        .recoveries()
        .iter()
        .any(|r| r.action.starts_with("bundle/fallback")));
    assert!(sys.kernel.faults.injected_total() > 0);
}

// ----------------------------------------------------------------------
// Warm start under fault injection: a corrupt shared cache must cost a
// cold walk, never a failed launch.
// ----------------------------------------------------------------------

use cider_bench::config::{SystemConfig, TestBed};
use cider_bench::lmbench;

#[test]
fn corrupt_shared_cache_falls_back_to_cold_walk_and_still_launches() {
    let mut bed = TestBed::builder(SystemConfig::CiderIos).traced().build();
    bed.sys.kernel.warm.set_enabled(true);
    let (_pid, tid) = bed.spawn_measured().unwrap();
    // Every consult of the cache from here on reports corruption.
    bed.enable_faults(
        FaultPlan::new(7).with(FaultSite::SharedCacheCorrupt, 1000),
    );
    for i in 0..3 {
        lmbench::fork_exec_lat(&mut bed, tid, true).unwrap_or_else(|e| {
            panic!("launch {i}: corruption must degrade, not fail: {e:?}")
        });
    }
    let stats = bed.sys.kernel.warm.stats;
    assert!(stats.invalidations > 0, "cache was never invalidated");
    assert!(
        stats.cold_bakes > stats.warm_execs,
        "every launch should have fallen back cold: {stats:?}"
    );
    let snap = bed.trace_snapshot().unwrap();
    assert!(snap.metrics.counter("dyld/cache_invalidations") > 0);
    assert!(snap.metrics.counter("fault/shared_cache_corrupt") > 0);
}

/// The full fault matrix (which now arms `shared_cache_corrupt`
/// automatically) over a warm-start launch storm, on the CI seeds:
/// injected faults surface as clean errnos or silent cold walks, and
/// the cache machinery keeps working.
#[test]
fn fault_matrix_auto_covers_the_warm_start_machinery() {
    let mut invalidations = 0;
    for seed in [11u64, 23, 47] {
        let mut bed =
            TestBed::builder(SystemConfig::CiderIos).traced().build();
        bed.sys.kernel.warm.set_enabled(true);
        let (_pid, tid) = bed.spawn_measured().unwrap();
        bed.enable_faults(FaultPlan::matrix(seed));
        for _ in 0..8 {
            // Any failure must be a clean injected errno, never a
            // panic or a wedged kernel.
            let _ = lmbench::fork_exec_lat(&mut bed, tid, true);
        }
        assert!(
            bed.sys.kernel.faults.injected_total() > 0,
            "seed {seed}: matrix never fired"
        );
        let stats = &bed.sys.kernel.warm.stats;
        assert!(
            stats.cold_bakes + stats.warm_execs > 0,
            "seed {seed}: warm machinery never engaged"
        );
        invalidations += stats.invalidations;
    }
    assert!(
        invalidations > 0,
        "shared_cache_corrupt never fired across the CI seeds — \
         the matrix is not covering the new site"
    );
}
