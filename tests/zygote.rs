//! Fleet devices fork from a per-configuration zygote.
//!
//! `DeviceSim::boot` no longer boots: it forks a traced bed that was
//! booted once per configuration, then arms the fault plan. These tests
//! hold the fork to the fresh boot it replaced.
//!
//! * **Equivalence.** Every fleet workload on every configuration, at
//!   boot and a few units in: the forked device and a device on a bed
//!   booted afresh (`TestBed::builder(config).traced().build()`
//!   plus `spawn_measured`) capture the same image (kernel sections,
//!   workload cursor and metrics, gfx records) and the same trace.
//! * **Isolation.** A fork shares nothing mutable with its template.
//!   Stepping units, tracing, GL calls through diplomats, frame swaps,
//!   device registration and Cider state changes in the fork leave the
//!   template exactly as it was, and a later fork of the template is
//!   still a fresh boot.
//!
//! A mismatch prints the record-level `StateImage::diff` and the first
//! differing trace event (`tests/common`), not two opaque blobs.

mod common;

use cider_abi::ids::{Pid, Tid};
use cider_abi::persona::Persona;
use cider_bench::config::{SystemConfig, TestBed};
use cider_bench::fig5::{run_micro, Micro};
use cider_ckpt::{capture_kernel, StateImage};
use cider_core::persona::{attach_persona_ext, persona_ext_mut};
use cider_core::{with_state, CiderState};
use cider_fault::FaultPlan;
use cider_fleet::{DeviceSim, DeviceSpec, Workload};
use cider_gfx::fbdriver::selectors;
use cider_trace::EventKind;
use common::{assert_same_image, assert_same_trace, trace};

const WORKLOADS: [Workload; 6] = [
    Workload::LmbenchMix { ops: 3 },
    Workload::LaunchStorm { launches: 2 },
    Workload::LaunchStormWarm { launches: 2 },
    Workload::IpcStorm { msgs: 2 },
    Workload::ConformOps { programs: 2 },
    Workload::AppLifecycle { cycles: 2 },
];

/// A bed booted afresh, exactly as the zygote boots one.
fn fresh_bed(config: SystemConfig) -> (TestBed, Pid, Tid) {
    let mut bed = TestBed::builder(config).traced().build();
    let (pid, tid) = bed.spawn_measured().expect("bench binary installed");
    (bed, pid, tid)
}

fn assert_same_device(want: &DeviceSim, got: &DeviceSim, what: &str) {
    assert_same_image(&want.capture(), &got.capture(), what);
    assert_same_trace(&trace(want), &trace(got), what);
}

#[test]
fn forked_devices_equal_fresh_boots_on_every_workload() {
    for config in SystemConfig::ALL {
        for (i, workload) in WORKLOADS.into_iter().enumerate() {
            // Half the devices carry a fault plan, which must arm on the
            // fork exactly as on a fresh bed.
            let fault_plan = (i % 2 == 1).then(|| FaultPlan::matrix(23));
            let spec = DeviceSpec {
                device_id: i as u32,
                seed: 5 + i as u64,
                config,
                workload,
                fault_plan,
            };
            let mut forked = DeviceSim::boot(&spec);
            let (bed, pid, tid) = fresh_bed(config);
            let mut fresh = DeviceSim::from_bed(&spec, bed, pid, tid);
            let what = format!("{config:?} {}", workload.slug());
            assert_same_device(&fresh, &forked, &format!("{what} at boot"));
            while !forked.done() {
                forked.step();
                fresh.step();
            }
            assert_same_device(
                &fresh,
                &forked,
                &format!("{what} after {} units", forked.cursor()),
            );
        }
    }
}

/// Everything a template could leak into: the kernel image, the trace,
/// the whole graphics stack, and the Cider state outside the kernel's
/// own sections (Mach spaces, bootstrap names, the I/O Kit registry).
#[derive(Debug, PartialEq)]
struct Observation {
    image: StateImage,
    trace: String,
    gfx: String,
    cider: String,
}

fn observe(bed: &TestBed) -> Observation {
    let st = bed.sys.kernel.extensions.get::<CiderState>().unwrap();
    let cider = format!("{:?} {:?}", st.ckpt_records(), st.iokit);
    Observation {
        image: capture_kernel(&bed.sys.kernel),
        trace: format!("{:?}", bed.trace_snapshot()),
        gfx: format!("{:?}", bed.gfx()),
        cider,
    }
}

fn assert_same_bed(want: &Observation, got: &Observation, what: &str) {
    assert_same_image(&want.image, &got.image, what);
    assert_eq!(want.trace, got.trace, "{what}: trace");
    assert_eq!(want.gfx, got.gfx, "{what}: graphics stack");
    assert_eq!(want.cider, got.cider, "{what}: Cider state");
}

const GLES: &str = "OpenGLES.framework/OpenGLES";

/// A process whose thread can call diplomats: foreign persona, with
/// the domestic one installed.
fn gl_thread(bed: &mut TestBed) -> Tid {
    let (_, tid) = bed.sys.spawn_process();
    attach_persona_ext(
        &mut bed.sys.kernel,
        tid,
        Persona::Foreign,
        bed.sys.xnu_personality,
    )
    .unwrap();
    let linux = bed.sys.kernel.linux_personality();
    persona_ext_mut(&mut bed.sys.kernel, tid)
        .unwrap()
        .install(Persona::Domestic, linux);
    tid
}

/// One frame through the diplomatic OpenGL ES library: every call
/// resolves (or reuses) a cached domestic function.
fn gl_frame(bed: &mut TestBed, tid: Tid) {
    let sys = &mut bed.sys;
    let ctx = sys
        .diplomat_call(tid, GLES, "EAGLContext_initWithAPI", &[])
        .unwrap();
    sys.diplomat_call(tid, GLES, "EAGLContext_setCurrentContext", &[ctx])
        .unwrap();
    sys.diplomat_call(
        tid,
        GLES,
        "EAGLContext_renderbufferStorage",
        &[ctx, 64, 64],
    )
    .unwrap();
    sys.diplomat_call(tid, GLES, "glClear", &[0x4000]).unwrap();
    sys.diplomat_call(tid, GLES, "glDrawArrays", &[4, 0, 96])
        .unwrap();
    sys.diplomat_call(tid, GLES, "EAGLContext_presentRenderbuffer", &[])
        .unwrap();
}

/// `SWAP_SUBMIT` on the display; returns the driver's frame counter.
fn swap(bed: &mut TestBed) -> u64 {
    with_state(&mut bed.sys.kernel, |_, st| {
        let nub = st.iokit.find_service("IODisplayNub").unwrap();
        let conn = st.iokit.service_open(nub).unwrap();
        let (out, _) = st
            .iokit
            .connect_call_method(conn, selectors::SWAP_SUBMIT, &[], &[])
            .unwrap();
        st.iokit.service_close(conn).unwrap();
        out[0]
    })
}

/// Every kind of mutation a device makes after boot.
fn mutate(bed: &mut TestBed, pid: Pid, tid: Tid, gl: Tid) {
    for micro in [Micro::NullSyscall, Micro::Pipe, Micro::ForkExit] {
        run_micro(bed, pid, tid, micro);
    }
    let ctx = bed.sys.kernel.trace_ctx(tid);
    bed.sys.kernel.trace.record(
        ctx,
        EventKind::Mark {
            label: "fork only".into(),
        },
    );
    bed.sys.kernel.trace.incr("fork/only");
    gl_frame(bed, gl);
    swap(bed);
    bed.sys
        .add_device("hotplug-gps", "location", "/dev/gps0")
        .unwrap();
    bed.sys.mach_port_allocate(gl).unwrap();
    // A device the kernel registers on its own: the I/O Kit bridge
    // publishes it at the next `sync_iokit`, which the caller runs.
    bed.sys
        .kernel
        .devices
        .add("hotplug-cam", "camera", "/dev/video0")
        .unwrap();
}

fn has_camera_nub(bed: &TestBed) -> bool {
    let st = bed.sys.kernel.extensions.get::<CiderState>().unwrap();
    st.iokit.find_service("IOCameraNub").is_some()
}

#[test]
fn a_fork_shares_nothing_mutable_with_its_template() {
    for config in SystemConfig::ALL {
        let (mut template, pid, tid) = fresh_bed(config);
        // Resolve the template's diplomats first, so the fork inherits
        // cached domestic functions: shared, they must still reach the
        // fork's own graphics stack, never the template's.
        let gl = gl_thread(&mut template);
        gl_frame(&mut template, gl);
        let before = observe(&template);

        let mut fork = template.fork_device();
        assert_same_bed(&before, &observe(&fork), &format!("{config:?} fork"));
        mutate(&mut fork, pid, tid, gl);
        assert_ne!(observe(&fork), before, "{config:?}: mutations showed");
        // The camera the fork's kernel registered is published by the
        // fork's bridge, not the template's, whichever syncs first.
        template.sys.sync_iokit();
        fork.sys.sync_iokit();
        assert!(has_camera_nub(&fork), "{config:?}: fork bridged its camera");
        assert_same_bed(
            &before,
            &observe(&template),
            &format!("{config:?} template after the fork ran"),
        );

        // A second fork is still a fresh boot that made the same calls.
        let mut second = template.fork_device();
        let (mut replica, _, _) = fresh_bed(config);
        let replica_gl = gl_thread(&mut replica);
        assert_eq!(replica_gl, gl);
        gl_frame(&mut replica, gl);
        for bed in [&mut second, &mut replica] {
            mutate(bed, pid, tid, gl);
            bed.sys.sync_iokit();
        }
        assert_same_bed(
            &observe(&replica),
            &observe(&second),
            &format!("{config:?} second fork"),
        );
        // The template's display never swapped: its counter starts at 1.
        assert_eq!(swap(&mut template), 1, "{config:?}: frame counter");
    }
}
