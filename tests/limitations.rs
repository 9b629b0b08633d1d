//! The paper's §6.4 limitations, reproduced as observable behaviours:
//! devices the prototype doesn't support, the Facetime/Yelp dichotomy
//! (hard dependency vs. fall-back path), the WebKit multi-threaded
//! OpenGL ES restriction, and the unmapped security models.

use cider_abi::errno::Errno;
use cider_abi::persona::Persona;
use cider_core::persona::{attach_persona_ext, persona_ext_mut};
use cider_core::system::CiderSystem;
use cider_gfx::stack::{gfx, install_gfx, GfxConfig};
use cider_kernel::profile::DeviceProfile;

fn booted() -> CiderSystem {
    let mut sys = CiderSystem::new(DeviceProfile::nexus7());
    install_gfx(&mut sys, GfxConfig::default());
    sys
}

fn foreign_thread(sys: &mut CiderSystem) -> cider_abi::ids::Tid {
    let (_, tid) = sys.spawn_process();
    let xnu = sys.xnu_personality;
    let linux = sys.kernel.linux_personality();
    attach_persona_ext(&mut sys.kernel, tid, Persona::Foreign, xnu).unwrap();
    persona_ext_mut(&mut sys.kernel, tid)
        .unwrap()
        .install(Persona::Domestic, linux);
    tid
}

#[test]
fn camera_dependent_app_cannot_run() {
    // "an app such as Facetime that requires use of the camera does not
    // currently work with Cider" — the camera has no I/O Kit bridge
    // entry and no diplomatic library.
    let mut sys = booted();
    let tid = foreign_thread(&mut sys);
    let camera_service = cider_core::with_state(&mut sys.kernel, |_, st| {
        st.iokit.find_service("IOCameraNub")
    });
    assert!(camera_service.is_none());
    // No AVCapture diplomatic library was installed either.
    assert_eq!(
        sys.diplomat_call(
            tid,
            "AVFoundation.framework/AVCapture",
            "AVCaptureSessionStart",
            &[],
        ),
        Err(Errno::ENOSYS),
        "hard camera dependency fails"
    );
}

#[test]
fn yelp_style_app_continues_without_location() {
    // "the iOS Yelp app runs on Cider even though GPS and location
    // services are currently unsupported" — the location query fails,
    // the rest of the app keeps working.
    let mut sys = booted();
    let tid = foreign_thread(&mut sys);
    let gps = cider_core::with_state(&mut sys.kernel, |_, st| {
        st.iokit.find_service("IOGPSNub")
    });
    assert!(gps.is_none(), "location unavailable");
    // The fall-back path: the app still allocates surfaces and renders.
    let buf = sys
        .diplomat_call(
            tid,
            "IOSurface.framework/IOSurface",
            "IOSurfaceCreate",
            &[128, 128],
        )
        .expect("rest of the app functions");
    assert!(buf > 0);
}

#[test]
fn webkit_multithreaded_gl_is_hazardous() {
    // "the iOS WebKit framework is only partially supported due to its
    // multi-threaded use of the OpenGL ES API" — the diplomatic GL
    // library shares one current-context slot, so two foreign threads
    // using GL concurrently stomp each other's context.
    let mut sys = booted();
    let t1 = foreign_thread(&mut sys);
    let t2 = sys.kernel.spawn_thread(t1).unwrap();
    let lib = "OpenGLES.framework/OpenGLES";

    let ctx1 = sys
        .diplomat_call(t1, lib, "EAGLContext_initWithAPI", &[])
        .unwrap();
    let ctx2 = sys
        .diplomat_call(t2, lib, "EAGLContext_initWithAPI", &[])
        .unwrap();
    sys.diplomat_call(t1, lib, "EAGLContext_setCurrentContext", &[ctx1])
        .unwrap();
    sys.diplomat_call(
        t1,
        lib,
        "EAGLContext_renderbufferStorage",
        &[ctx1, 64, 64],
    )
    .unwrap();

    // Thread 2 switches the (shared) current context mid-frame...
    sys.diplomat_call(t2, lib, "EAGLContext_setCurrentContext", &[ctx2])
        .unwrap();
    // ...so thread 1's draw lands in thread 2's context.
    sys.diplomat_call(t1, lib, "glDrawArrays", &[4, 0, 30])
        .unwrap();
    {
        let g = gfx(&sys.kernel);
        let c1 = g
            .egl
            .context(cider_gfx::gles::ContextId(ctx1 as u64))
            .unwrap();
        let c2 = g
            .egl
            .context(cider_gfx::gles::ContextId(ctx2 as u64))
            .unwrap();
        assert_eq!(c1.frame_draw_calls, 0, "thread 1's frame lost the draw");
        assert_eq!(c2.frame_draw_calls, 1, "it landed in thread 2's context");
    }
    // Presenting thread 1's frame now fails: the current context (2)
    // has no renderbuffer storage attached.
    assert_eq!(
        sys.diplomat_call(t1, lib, "EAGLContext_presentRenderbuffer", &[]),
        Err(Errno::EBADF),
        "WebKit-style concurrent GL breaks, as §6.4 reports"
    );
}

#[test]
fn ios_security_model_is_not_mapped() {
    // "Cider does not map iOS security to Android security" — the
    // overlay FS carries no iOS entitlement metadata: any process can
    // read another app's container.
    let mut sys = booted();
    sys.kernel
        .vfs
        .write_file_overlay(
            "/var/mobile/Library/Preferences/com.example.plist",
            b"secret".to_vec(),
        )
        .unwrap();
    let (_, other_tid) = sys.spawn_process();
    // A completely unrelated (domestic) process reads it freely.
    let fd = sys
        .kernel
        .sys_open(
            other_tid,
            "/var/mobile/Library/Preferences/com.example.plist",
            cider_abi::types::OpenFlags::RDONLY,
        )
        .expect("no runtime entitlement check exists");
    assert_eq!(sys.kernel.sys_read(other_tid, fd, 16).unwrap(), b"secret");
}

#[test]
fn hotplugging_a_device_class_enables_it() {
    // §6.4: "Devices with a simple interface, such as GPS, can be
    // supported with I/O Kit drivers and diplomatic functions" — adding
    // the Linux driver publishes the nub for matching.
    let mut sys = booted();
    sys.add_device("mpu6050", "sensor", "/dev/iio0").unwrap();
    cider_core::with_state(&mut sys.kernel, |_, st| {
        assert!(st.iokit.find_service("IOSensorNub").is_some());
    });
}
