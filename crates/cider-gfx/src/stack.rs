//! The assembled graphics stack and its library surface.
//!
//! [`GfxStack`] owns the GPU, gralloc, SurfaceFlinger, and EGL state.
//! [`install_gfx`] wires it into a [`CiderSystem`]: the domestic
//! libraries (`libGLESv2.so`, `libEGL.so`, `libgralloc.so`, and the
//! custom `libEGLbridge.so` of paper §5.3) are registered as runtime
//! export tables, the Cider **diplomatic OpenGL ES library** is generated
//! by symbol matching (with EAGL extensions routed to libEGLbridge), the
//! **diplomatic IOSurface** entry points are interposed onto gralloc, and
//! the `AppleM2CLCD` framebuffer driver class is registered with I/O Kit.

use std::sync::{Arc, Mutex};

use cider_abi::errno::Errno;
use cider_core::diplomat::{Diplomat, DiplomaticLibrary};
use cider_core::library::NativeLibrary;
use cider_core::system::CiderSystem;

use crate::gles::{api, Egl};
use crate::gpu::SimGpu;
use crate::gralloc::{BufferId, Gralloc, PixelFormat};
use crate::surfaceflinger::SurfaceFlinger;

/// The graphics stack. `clone` copies all of it; the library export
/// closures are bound to one [`SharedGfx`] handle, so a copy serves a
/// system only after [`register_gfx_libraries`] binds them to it.
#[derive(Debug, Clone, Default)]
pub struct GfxStack {
    /// The GPU.
    pub gpu: SimGpu,
    /// Graphics memory.
    pub gralloc: Gralloc,
    /// The compositor.
    pub flinger: SurfaceFlinger,
    /// EGL contexts.
    pub egl: Egl,
}

impl GfxStack {
    /// Fresh stack.
    pub fn new() -> GfxStack {
        GfxStack::default()
    }
}

/// Shared handle to the stack, captured by library export closures.
///
/// A `Mutex` (not a `RefCell`) so the export closures are `Send + Sync`
/// and a bed holding the stack can run on a fleet worker thread; within
/// one device the lock is uncontended.
pub type SharedGfx = Arc<Mutex<GfxStack>>;

/// Configuration for [`install_gfx`].
#[derive(Debug, Clone, Copy)]
pub struct GfxConfig {
    /// Whether the Cider OpenGL ES replacement library carries the §6.3
    /// fence-synchronisation bug (true for the prototype).
    pub fence_bug: bool,
}

impl Default for GfxConfig {
    fn default() -> Self {
        GfxConfig { fence_bug: true }
    }
}

/// The exported symbols of the iOS OpenGLES framework: the standard GL
/// API plus Apple's EAGL extensions (paper §5.3).
pub fn ios_opengles_exports() -> Vec<&'static str> {
    let mut v = standard_gles_symbols();
    v.extend(EAGL_SYMBOLS);
    v
}

/// The standardised OpenGL ES symbols both ecosystems export.
pub fn standard_gles_symbols() -> Vec<&'static str> {
    vec![
        "glActiveTexture",
        "glAttachShader",
        "glBindBuffer",
        "glBindTexture",
        "glBlendFunc",
        "glBufferData",
        "glClear",
        "glClearColor",
        "glClientWaitSync",
        "glCompileShader",
        "glCreateProgram",
        "glCreateShader",
        "glDisable",
        "glDrawArrays",
        "glDrawElements",
        "glEnable",
        "glFenceSync",
        "glFinish",
        "glFlush",
        "glGenBuffers",
        "glGenTextures",
        "glGetError",
        "glLinkProgram",
        "glShaderSource",
        "glTexImage2D",
        "glTexParameteri",
        "glUniform4f",
        "glUniformMatrix4fv",
        "glUseProgram",
        "glVertexAttribPointer",
        "glViewport",
    ]
}

/// Apple's EAGL extension symbols (no Android equivalent; bridged).
pub const EAGL_SYMBOLS: [&str; 4] = [
    "EAGLContext_initWithAPI",
    "EAGLContext_setCurrentContext",
    "EAGLContext_renderbufferStorage",
    "EAGLContext_presentRenderbuffer",
];

fn stateful_noop(gfx: &SharedGfx) -> cider_core::library::NativeFn {
    let gfx = gfx.clone();
    Arc::new(move |k, _tid, _args| {
        k.charge_cpu(crate::gles::GL_DISPATCH_NS);
        let mut g = gfx.lock().unwrap();
        g.egl.current_mut()?.total_calls += 1;
        Ok(0)
    })
}

/// Builds the domestic `libGLESv2.so` export table over a shared stack.
pub fn build_libglesv2(gfx: &SharedGfx) -> NativeLibrary {
    let mut lib = NativeLibrary::new("libGLESv2.so");
    {
        let g = gfx.clone();
        lib.export(
            "glClear",
            Arc::new(move |k, _t, args| {
                let mut s = g.lock().unwrap();
                let GfxStack { gpu, egl, .. } = &mut *s;
                api::gl_clear(k, egl, gpu, args.first().copied().unwrap_or(0))
            }),
        );
    }
    {
        let g = gfx.clone();
        lib.export(
            "glClearColor",
            Arc::new(move |k, _t, args| {
                let mut s = g.lock().unwrap();
                api::gl_clear_color(
                    k,
                    &mut s.egl,
                    args.first().copied().unwrap_or(0),
                )
            }),
        );
    }
    {
        let g = gfx.clone();
        lib.export(
            "glDrawArrays",
            Arc::new(move |k, _t, args| {
                let mut s = g.lock().unwrap();
                let GfxStack { gpu, egl, .. } = &mut *s;
                api::gl_draw_arrays(
                    k,
                    egl,
                    gpu,
                    args.get(2).copied().unwrap_or(0),
                )
            }),
        );
    }
    {
        let g = gfx.clone();
        lib.export(
            "glDrawElements",
            Arc::new(move |k, _t, args| {
                let mut s = g.lock().unwrap();
                let GfxStack { gpu, egl, .. } = &mut *s;
                api::gl_draw_arrays(
                    k,
                    egl,
                    gpu,
                    args.get(1).copied().unwrap_or(0),
                )
            }),
        );
    }
    {
        let g = gfx.clone();
        lib.export(
            "glBindTexture",
            Arc::new(move |k, _t, args| {
                let mut s = g.lock().unwrap();
                api::gl_bind_texture(
                    k,
                    &mut s.egl,
                    args.get(1).copied().unwrap_or(0),
                )
            }),
        );
    }
    {
        let g = gfx.clone();
        lib.export(
            "glGenTextures",
            Arc::new(move |k, _t, _args| {
                let mut s = g.lock().unwrap();
                api::gl_gen_texture(k, &mut s.egl)
            }),
        );
    }
    {
        let g = gfx.clone();
        lib.export(
            "glTexImage2D",
            Arc::new(move |k, _t, args| {
                let mut s = g.lock().unwrap();
                let GfxStack { gpu, egl, .. } = &mut *s;
                api::gl_tex_image_2d(
                    k,
                    egl,
                    gpu,
                    args.first().copied().unwrap_or(0),
                )
            }),
        );
    }
    {
        let g = gfx.clone();
        lib.export(
            "glUseProgram",
            Arc::new(move |k, _t, args| {
                let mut s = g.lock().unwrap();
                api::gl_use_program(
                    k,
                    &mut s.egl,
                    args.first().copied().unwrap_or(0),
                )
            }),
        );
    }
    {
        let g = gfx.clone();
        lib.export(
            "glEnable",
            Arc::new(move |k, _t, args| {
                let mut s = g.lock().unwrap();
                api::gl_enable(
                    k,
                    &mut s.egl,
                    args.first().copied().unwrap_or(0),
                )
            }),
        );
    }
    {
        let g = gfx.clone();
        lib.export(
            "glFenceSync",
            Arc::new(move |k, _t, _args| {
                let mut s = g.lock().unwrap();
                let GfxStack { gpu, egl, .. } = &mut *s;
                api::gl_fence_sync(k, egl, gpu)
            }),
        );
    }
    {
        let g = gfx.clone();
        lib.export(
            "glClientWaitSync",
            Arc::new(move |k, _t, args| {
                let mut s = g.lock().unwrap();
                let GfxStack { gpu, egl, .. } = &mut *s;
                api::gl_client_wait_sync(
                    k,
                    egl,
                    gpu,
                    args.first().copied().unwrap_or(0),
                )
            }),
        );
    }
    {
        let g = gfx.clone();
        lib.export(
            "glFinish",
            Arc::new(move |k, _t, _args| {
                let mut s = g.lock().unwrap();
                let GfxStack { gpu, egl, .. } = &mut *s;
                api::gl_finish(k, egl, gpu)
            }),
        );
    }
    for sym in [
        "glActiveTexture",
        "glAttachShader",
        "glBindBuffer",
        "glBlendFunc",
        "glBufferData",
        "glCompileShader",
        "glCreateProgram",
        "glCreateShader",
        "glDisable",
        "glFlush",
        "glGenBuffers",
        "glGetError",
        "glLinkProgram",
        "glShaderSource",
        "glTexParameteri",
        "glUniform4f",
        "glUniformMatrix4fv",
        "glVertexAttribPointer",
        "glViewport",
    ] {
        lib.export(sym, stateful_noop(gfx));
    }
    lib
}

/// Builds the domestic `libEGL.so` export table.
pub fn build_libegl(gfx: &SharedGfx) -> NativeLibrary {
    let mut lib = NativeLibrary::new("libEGL.so");
    {
        let g = gfx.clone();
        lib.export(
            "eglCreateContext",
            Arc::new(move |k, _t, _args| {
                k.charge_cpu(4_000);
                Ok(g.lock().unwrap().egl.create_context().0 as i64)
            }),
        );
    }
    {
        let g = gfx.clone();
        lib.export(
            "eglCreateWindowSurface",
            Arc::new(move |k, _t, args| {
                k.charge_cpu(20_000);
                let ctx = crate::gles::ContextId(
                    args.first().copied().unwrap_or(0) as u64,
                );
                let w = args.get(1).copied().unwrap_or(0) as u32;
                let h = args.get(2).copied().unwrap_or(0) as u32;
                let mut s = g.lock().unwrap();
                let GfxStack {
                    egl,
                    flinger,
                    gralloc,
                    ..
                } = &mut *s;
                egl.create_window_surface(flinger, gralloc, ctx, w, h)
                    .map(|sid| sid.0 as i64)
            }),
        );
    }
    {
        let g = gfx.clone();
        lib.export(
            "eglMakeCurrent",
            Arc::new(move |k, _t, args| {
                k.charge_cpu(2_500);
                let ctx = crate::gles::ContextId(
                    args.first().copied().unwrap_or(0) as u64,
                );
                g.lock().unwrap().egl.make_current(ctx).map(|_| 0)
            }),
        );
    }
    {
        let g = gfx.clone();
        lib.export(
            "eglSwapBuffers",
            Arc::new(move |k, _t, _args| {
                let mut s = g.lock().unwrap();
                let GfxStack {
                    gpu,
                    egl,
                    flinger,
                    gralloc,
                } = &mut *s;
                egl.swap_buffers(k, gpu, flinger, gralloc).map(|_| 0)
            }),
        );
    }
    lib
}

/// Builds the domestic `libgralloc.so` export table.
pub fn build_libgralloc(gfx: &SharedGfx) -> NativeLibrary {
    let mut lib = NativeLibrary::new("libgralloc.so");
    {
        let g = gfx.clone();
        lib.export(
            "gralloc_alloc",
            Arc::new(move |k, _t, args| {
                k.charge_cpu(9_000); // ion allocation + map
                let w = args.first().copied().unwrap_or(0) as u32;
                let h = args.get(1).copied().unwrap_or(0) as u32;
                g.lock()
                    .unwrap()
                    .gralloc
                    .alloc(w, h, PixelFormat::Rgba8888)
                    .map(|b| b.0 as i64)
            }),
        );
    }
    {
        let g = gfx.clone();
        lib.export(
            "gralloc_lock",
            Arc::new(move |k, _t, args| {
                k.charge_cpu(600);
                let id = BufferId(args.first().copied().unwrap_or(0) as u64);
                let mut s = g.lock().unwrap();
                let b = s.gralloc.get_mut(id)?;
                if b.locked {
                    return Err(Errno::EBUSY);
                }
                b.locked = true;
                Ok(0)
            }),
        );
    }
    {
        let g = gfx.clone();
        lib.export(
            "gralloc_unlock",
            Arc::new(move |k, _t, args| {
                k.charge_cpu(600);
                let id = BufferId(args.first().copied().unwrap_or(0) as u64);
                let mut s = g.lock().unwrap();
                let b = s.gralloc.get_mut(id)?;
                if !b.locked {
                    return Err(Errno::EINVAL);
                }
                b.locked = false;
                Ok(0)
            }),
        );
    }
    {
        let g = gfx.clone();
        lib.export(
            "gralloc_retain",
            Arc::new(move |k, _t, args| {
                k.charge_cpu(300);
                let id = BufferId(args.first().copied().unwrap_or(0) as u64);
                g.lock().unwrap().gralloc.retain(id).map(|_| 0)
            }),
        );
    }
    {
        let g = gfx.clone();
        lib.export(
            "gralloc_release",
            Arc::new(move |k, _t, args| {
                k.charge_cpu(300);
                let id = BufferId(args.first().copied().unwrap_or(0) as u64);
                g.lock().unwrap().gralloc.release(id).map(|_| 0)
            }),
        );
    }
    lib
}

/// Builds `libEGLbridge.so` — "a custom domestic Android library ...
/// that utilizes Android's libEGL library and SurfaceFlinger service to
/// provide functionality corresponding to the missing EAGL functions"
/// (paper §5.3).
pub fn build_libeglbridge(gfx: &SharedGfx) -> NativeLibrary {
    let mut lib = NativeLibrary::new("libEGLbridge.so");
    {
        let g = gfx.clone();
        lib.export(
            "EAGLBridge_initWithAPI",
            Arc::new(move |k, _t, _args| {
                k.charge_cpu(5_000);
                Ok(g.lock().unwrap().egl.create_context().0 as i64)
            }),
        );
    }
    {
        let g = gfx.clone();
        lib.export(
            "EAGLBridge_setCurrent",
            Arc::new(move |k, _t, args| {
                k.charge_cpu(2_500);
                let ctx = crate::gles::ContextId(
                    args.first().copied().unwrap_or(0) as u64,
                );
                g.lock().unwrap().egl.make_current(ctx).map(|_| 0)
            }),
        );
    }
    {
        let g = gfx.clone();
        lib.export(
            "EAGLBridge_renderbufferStorage",
            Arc::new(move |k, _t, args| {
                // Window memory comes from SurfaceFlinger, so "Cider
                // manage[s] the iOS display in the same manner that all
                // Android app windows are managed" (§5.3).
                k.charge_cpu(22_000);
                let ctx = crate::gles::ContextId(
                    args.first().copied().unwrap_or(0) as u64,
                );
                let w = args.get(1).copied().unwrap_or(0) as u32;
                let h = args.get(2).copied().unwrap_or(0) as u32;
                let mut s = g.lock().unwrap();
                let GfxStack {
                    egl,
                    flinger,
                    gralloc,
                    ..
                } = &mut *s;
                egl.create_window_surface(flinger, gralloc, ctx, w, h)
                    .map(|sid| sid.0 as i64)
            }),
        );
    }
    {
        let g = gfx.clone();
        lib.export(
            "EAGLBridge_present",
            Arc::new(move |k, _t, _args| {
                let mut s = g.lock().unwrap();
                let GfxStack {
                    gpu,
                    egl,
                    flinger,
                    gralloc,
                } = &mut *s;
                egl.swap_buffers(k, gpu, flinger, gralloc).map(|_| 0)
            }),
        );
    }
    {
        // The buggy fence wait used by the prototype's Cider OpenGL ES
        // library (§6.3).
        let g = gfx.clone();
        lib.export(
            "glClientWaitSync_cider",
            Arc::new(move |k, _t, args| {
                let mut s = g.lock().unwrap();
                let was = s.gpu.fence_bug;
                s.gpu.fence_bug = true;
                let GfxStack { gpu, egl, .. } = &mut *s;
                let r = api::gl_client_wait_sync(
                    k,
                    egl,
                    gpu,
                    args.first().copied().unwrap_or(0),
                );
                s.gpu.fence_bug = was;
                r
            }),
        );
    }
    lib
}

/// What [`install_gfx`] produced, for assertions and reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GfxInstallReport {
    /// GL symbols matched automatically by the generation script.
    pub matched: usize,
    /// EAGL symbols bridged by hand-written diplomats.
    pub bridged_eagl: usize,
    /// Whether the buggy fence path is wired.
    pub fence_bug: bool,
}

/// Registers the four domestic graphics libraries (`libGLESv2.so`,
/// `libEGL.so`, `libgralloc.so`, `libEGLbridge.so`) with their exports
/// bound to `gfx`, replacing any already registered. A forked system
/// calls this with its own copy of the stack, so no export of the copy
/// reaches the original's.
pub fn register_gfx_libraries(sys: &mut CiderSystem, gfx: &SharedGfx) {
    sys.register_library(build_libglesv2(gfx));
    sys.register_library(build_libegl(gfx));
    sys.register_library(build_libgralloc(gfx));
    sys.register_library(build_libeglbridge(gfx));
}

/// Installs the full graphics stack into a Cider system and returns the
/// shared stack plus a report.
pub fn install_gfx(
    sys: &mut CiderSystem,
    config: GfxConfig,
) -> (SharedGfx, GfxInstallReport) {
    let gfx: SharedGfx = Arc::new(Mutex::new(GfxStack::new()));
    register_gfx_libraries(sys, &gfx);

    // The generation script: match the iOS OpenGLES exports against the
    // domestic libraries.
    let exports = ios_opengles_exports();
    let (mut gles_diplomatic, unmatched) = DiplomaticLibrary::generate(
        "OpenGLES.framework/OpenGLES",
        &exports,
        &sys.host,
    );
    let matched = gles_diplomatic.len();

    // EAGL extensions: hand-written diplomats into libEGLbridge.
    let mut bridged = 0;
    for sym in unmatched {
        let target = match sym.as_str() {
            "EAGLContext_initWithAPI" => "EAGLBridge_initWithAPI",
            "EAGLContext_setCurrentContext" => "EAGLBridge_setCurrent",
            "EAGLContext_renderbufferStorage" => {
                "EAGLBridge_renderbufferStorage"
            }
            "EAGLContext_presentRenderbuffer" => "EAGLBridge_present",
            _ => continue,
        };
        gles_diplomatic.install(Diplomat::new(sym, "libEGLbridge.so", target));
        bridged += 1;
    }

    // The prototype's fence bug lives in the Cider OpenGL ES library's
    // wait path.
    if config.fence_bug {
        gles_diplomatic.install(Diplomat::new(
            "glClientWaitSync",
            "libEGLbridge.so",
            "glClientWaitSync_cider",
        ));
    }

    sys.install_diplomatic(gles_diplomatic);

    // Diplomatic IOSurface: interposed entry points calling libgralloc
    // (paper §5.3).
    let mut iosurface =
        DiplomaticLibrary::new("IOSurface.framework/IOSurface");
    for (foreign, domestic) in [
        ("IOSurfaceCreate", "gralloc_alloc"),
        ("IOSurfaceLock", "gralloc_lock"),
        ("IOSurfaceUnlock", "gralloc_unlock"),
        ("IOSurfaceIncrementUseCount", "gralloc_retain"),
        ("IOSurfaceDecrementUseCount", "gralloc_release"),
    ] {
        iosurface.install(Diplomat::new(foreign, "libgralloc.so", domestic));
    }
    sys.install_diplomatic(iosurface);

    // The AppleM2CLCD framebuffer driver (paper §5.1).
    crate::fbdriver::register_display_driver(sys);

    let report = GfxInstallReport {
        matched,
        bridged_eagl: bridged,
        fence_bug: config.fence_bug,
    };
    (gfx, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cider_abi::persona::Persona;
    use cider_core::persona::{attach_persona_ext, persona_ext_mut};
    use cider_kernel::profile::DeviceProfile;

    fn foreign_thread(sys: &mut CiderSystem) -> cider_abi::ids::Tid {
        let (_, tid) = sys.spawn_process();
        attach_persona_ext(
            &mut sys.kernel,
            tid,
            Persona::Foreign,
            sys.xnu_personality,
        )
        .unwrap();
        let linux = sys.kernel.linux_personality();
        persona_ext_mut(&mut sys.kernel, tid)
            .unwrap()
            .install(Persona::Domestic, linux);
        tid
    }

    #[test]
    fn install_matches_standard_symbols_and_bridges_eagl() {
        let mut sys = CiderSystem::new(DeviceProfile::nexus7());
        let (_, report) = install_gfx(&mut sys, GfxConfig::default());
        assert_eq!(report.matched, standard_gles_symbols().len());
        assert_eq!(report.bridged_eagl, EAGL_SYMBOLS.len());
        assert!(report.fence_bug);
    }

    #[test]
    fn ios_app_renders_through_diplomats() {
        let mut sys = CiderSystem::new(DeviceProfile::nexus7());
        let (gfx, _) = install_gfx(&mut sys, GfxConfig::default());
        let tid = foreign_thread(&mut sys);
        let lib = "OpenGLES.framework/OpenGLES";
        // EAGL setup through the bridge.
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
        // Standard GL through generated diplomats.
        sys.diplomat_call(tid, lib, "glClear", &[0x4000]).unwrap();
        sys.diplomat_call(tid, lib, "glDrawArrays", &[4, 0, 900])
            .unwrap();
        sys.diplomat_call(tid, lib, "EAGLContext_presentRenderbuffer", &[])
            .unwrap();
        let g = gfx.lock().unwrap();
        assert_eq!(g.flinger.frames_presented, 1);
        assert!(g.gpu.gpu_busy_ns > 0);
    }

    #[test]
    fn fence_bug_only_on_diplomatic_path() {
        let mut sys = CiderSystem::new(DeviceProfile::nexus7());
        let (gfx, _) = install_gfx(&mut sys, GfxConfig::default());
        let tid = foreign_thread(&mut sys);
        let lib = "OpenGLES.framework/OpenGLES";
        let ctx = sys
            .diplomat_call(tid, lib, "EAGLContext_initWithAPI", &[])
            .unwrap();
        sys.diplomat_call(tid, lib, "EAGLContext_setCurrentContext", &[ctx])
            .unwrap();
        sys.diplomat_call(
            tid,
            lib,
            "EAGLContext_renderbufferStorage",
            &[ctx, 64, 64],
        )
        .unwrap();
        let fence = sys.diplomat_call(tid, lib, "glFenceSync", &[]).unwrap();
        sys.diplomat_call(tid, lib, "glClientWaitSync", &[fence])
            .unwrap();
        assert_eq!(gfx.lock().unwrap().gpu.bug_stalls, 1);
        // The domestic path stays correct.
        assert!(!gfx.lock().unwrap().gpu.fence_bug);
    }

    #[test]
    fn iosurface_interposition_reaches_gralloc() {
        let mut sys = CiderSystem::new(DeviceProfile::nexus7());
        let (gfx, _) = install_gfx(&mut sys, GfxConfig::default());
        let tid = foreign_thread(&mut sys);
        let lib = "IOSurface.framework/IOSurface";
        let buf = sys
            .diplomat_call(tid, lib, "IOSurfaceCreate", &[256, 256])
            .unwrap();
        assert_eq!(gfx.lock().unwrap().gralloc.live(), 1);
        sys.diplomat_call(tid, lib, "IOSurfaceLock", &[buf])
            .unwrap();
        assert_eq!(
            sys.diplomat_call(tid, lib, "IOSurfaceLock", &[buf]),
            Err(Errno::EBUSY)
        );
        sys.diplomat_call(tid, lib, "IOSurfaceUnlock", &[buf])
            .unwrap();
        sys.diplomat_call(tid, lib, "IOSurfaceDecrementUseCount", &[buf])
            .unwrap();
        assert_eq!(gfx.lock().unwrap().gralloc.live(), 0);
    }
}
