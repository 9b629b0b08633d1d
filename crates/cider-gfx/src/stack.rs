//! The assembled graphics stack and its library surface.
//!
//! [`GfxStack`] owns the GPU, gralloc, SurfaceFlinger, and EGL state.
//! [`install_gfx`] wires it into a [`CiderSystem`]: the stack becomes an
//! extension of the device kernel, the domestic libraries
//! (`libGLESv2.so`, `libEGL.so`, `libgralloc.so`, and the custom
//! `libEGLbridge.so` of paper §5.3) are registered as runtime export
//! tables that reach it through [`with_gfx`], the Cider **diplomatic
//! OpenGL ES library** is generated by symbol matching (with EAGL
//! extensions routed to libEGLbridge), the **diplomatic IOSurface**
//! entry points are interposed onto gralloc, and the `AppleM2CLCD`
//! framebuffer driver class is registered with I/O Kit.

use std::sync::Arc;

use cider_abi::errno::Errno;
use cider_core::diplomat::{Diplomat, DiplomaticLibrary};
use cider_core::library::NativeLibrary;
use cider_core::system::CiderSystem;
use cider_kernel::kernel::Kernel;

use crate::gles::{api, Egl};
use crate::gpu::SimGpu;
use crate::gralloc::{BufferId, Gralloc, PixelFormat};
use crate::surfaceflinger::SurfaceFlinger;

/// The graphics stack: per-device state, held by the device kernel as
/// an extension. The library exports capture nothing and reach it
/// through [`with_gfx`], so a forked kernel's copy serves the fork.
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

/// Runs `f` with the graphics stack taken out of the kernel's extension
/// slot, so both can be borrowed mutably, and puts it back afterwards.
/// A panic inside `f` leaves the stack taken.
///
/// # Panics
///
/// Panics if [`install_gfx`] has not run on this kernel.
pub fn with_gfx<R>(
    k: &mut Kernel,
    f: impl FnOnce(&mut Kernel, &mut GfxStack) -> R,
) -> R {
    let mut gfx = k
        .extensions
        .take::<GfxStack>()
        .expect("graphics stack installed on this kernel");
    let r = f(k, &mut gfx);
    k.extensions.insert(gfx);
    r
}

/// The kernel's graphics stack, for reading.
///
/// # Panics
///
/// Panics if [`install_gfx`] has not run on this kernel.
pub fn gfx(k: &Kernel) -> &GfxStack {
    k.extensions
        .get::<GfxStack>()
        .expect("graphics stack installed on this kernel")
}

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

fn stateful_noop() -> cider_core::library::NativeFn {
    Arc::new(|k, _tid, _args| {
        k.charge_cpu(crate::gles::GL_DISPATCH_NS);
        with_gfx(k, |_, g| {
            g.egl.current_mut()?.total_calls += 1;
            Ok(0)
        })
    })
}

/// Builds the domestic `libGLESv2.so` export table.
fn build_libglesv2() -> NativeLibrary {
    let mut lib = NativeLibrary::new("libGLESv2.so");
    lib.export(
        "glClear",
        Arc::new(|k, _t, args| {
            with_gfx(k, |k, g| {
                let mask = args.first().copied().unwrap_or(0);
                api::gl_clear(k, &mut g.egl, &mut g.gpu, mask)
            })
        }),
    );
    lib.export(
        "glClearColor",
        Arc::new(|k, _t, args| {
            with_gfx(k, |k, g| {
                let rgba = args.first().copied().unwrap_or(0);
                api::gl_clear_color(k, &mut g.egl, rgba)
            })
        }),
    );
    lib.export(
        "glDrawArrays",
        Arc::new(|k, _t, args| {
            with_gfx(k, |k, g| {
                let count = args.get(2).copied().unwrap_or(0);
                api::gl_draw_arrays(k, &mut g.egl, &mut g.gpu, count)
            })
        }),
    );
    lib.export(
        "glDrawElements",
        Arc::new(|k, _t, args| {
            with_gfx(k, |k, g| {
                let count = args.get(1).copied().unwrap_or(0);
                api::gl_draw_arrays(k, &mut g.egl, &mut g.gpu, count)
            })
        }),
    );
    lib.export(
        "glBindTexture",
        Arc::new(|k, _t, args| {
            with_gfx(k, |k, g| {
                let name = args.get(1).copied().unwrap_or(0);
                api::gl_bind_texture(k, &mut g.egl, name)
            })
        }),
    );
    lib.export(
        "glGenTextures",
        Arc::new(|k, _t, _args| {
            with_gfx(k, |k, g| api::gl_gen_texture(k, &mut g.egl))
        }),
    );
    lib.export(
        "glTexImage2D",
        Arc::new(|k, _t, args| {
            with_gfx(k, |k, g| {
                let bytes = args.first().copied().unwrap_or(0);
                api::gl_tex_image_2d(k, &mut g.egl, &mut g.gpu, bytes)
            })
        }),
    );
    lib.export(
        "glUseProgram",
        Arc::new(|k, _t, args| {
            with_gfx(k, |k, g| {
                let program = args.first().copied().unwrap_or(0);
                api::gl_use_program(k, &mut g.egl, program)
            })
        }),
    );
    lib.export(
        "glEnable",
        Arc::new(|k, _t, args| {
            with_gfx(k, |k, g| {
                let cap = args.first().copied().unwrap_or(0);
                api::gl_enable(k, &mut g.egl, cap)
            })
        }),
    );
    lib.export(
        "glFenceSync",
        Arc::new(|k, _t, _args| {
            with_gfx(k, |k, g| api::gl_fence_sync(k, &mut g.egl, &mut g.gpu))
        }),
    );
    lib.export(
        "glClientWaitSync",
        Arc::new(|k, _t, args| {
            with_gfx(k, |k, g| {
                let fence = args.first().copied().unwrap_or(0);
                api::gl_client_wait_sync(k, &mut g.egl, &mut g.gpu, fence)
            })
        }),
    );
    lib.export(
        "glFinish",
        Arc::new(|k, _t, _args| {
            with_gfx(k, |k, g| api::gl_finish(k, &mut g.egl, &mut g.gpu))
        }),
    );
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
        lib.export(sym, stateful_noop());
    }
    lib
}

/// Builds the domestic `libEGL.so` export table.
fn build_libegl() -> NativeLibrary {
    let mut lib = NativeLibrary::new("libEGL.so");
    lib.export(
        "eglCreateContext",
        Arc::new(|k, _t, _args| {
            k.charge_cpu(4_000);
            with_gfx(k, |_, g| Ok(g.egl.create_context().0 as i64))
        }),
    );
    lib.export(
        "eglCreateWindowSurface",
        Arc::new(|k, _t, args| {
            k.charge_cpu(20_000);
            let ctx = crate::gles::ContextId(
                args.first().copied().unwrap_or(0) as u64,
            );
            let w = args.get(1).copied().unwrap_or(0) as u32;
            let h = args.get(2).copied().unwrap_or(0) as u32;
            with_gfx(k, |_, g| {
                g.egl
                    .create_window_surface(
                        &mut g.flinger,
                        &mut g.gralloc,
                        ctx,
                        w,
                        h,
                    )
                    .map(|sid| sid.0 as i64)
            })
        }),
    );
    lib.export(
        "eglMakeCurrent",
        Arc::new(|k, _t, args| {
            k.charge_cpu(2_500);
            let ctx = crate::gles::ContextId(
                args.first().copied().unwrap_or(0) as u64,
            );
            with_gfx(k, |_, g| g.egl.make_current(ctx).map(|_| 0))
        }),
    );
    lib.export(
        "eglSwapBuffers",
        Arc::new(|k, _t, _args| {
            with_gfx(k, |k, g| {
                g.egl
                    .swap_buffers(k, &mut g.gpu, &mut g.flinger, &g.gralloc)
                    .map(|_| 0)
            })
        }),
    );
    lib
}

/// Builds the domestic `libgralloc.so` export table.
fn build_libgralloc() -> NativeLibrary {
    let mut lib = NativeLibrary::new("libgralloc.so");
    lib.export(
        "gralloc_alloc",
        Arc::new(|k, _t, args| {
            k.charge_cpu(9_000); // ion allocation + map
            let w = args.first().copied().unwrap_or(0) as u32;
            let h = args.get(1).copied().unwrap_or(0) as u32;
            with_gfx(k, |_, g| {
                g.gralloc
                    .alloc(w, h, PixelFormat::Rgba8888)
                    .map(|b| b.0 as i64)
            })
        }),
    );
    lib.export(
        "gralloc_lock",
        Arc::new(|k, _t, args| {
            k.charge_cpu(600);
            let id = BufferId(args.first().copied().unwrap_or(0) as u64);
            with_gfx(k, |_, g| {
                let b = g.gralloc.get_mut(id)?;
                if b.locked {
                    return Err(Errno::EBUSY);
                }
                b.locked = true;
                Ok(0)
            })
        }),
    );
    lib.export(
        "gralloc_unlock",
        Arc::new(|k, _t, args| {
            k.charge_cpu(600);
            let id = BufferId(args.first().copied().unwrap_or(0) as u64);
            with_gfx(k, |_, g| {
                let b = g.gralloc.get_mut(id)?;
                if !b.locked {
                    return Err(Errno::EINVAL);
                }
                b.locked = false;
                Ok(0)
            })
        }),
    );
    lib.export(
        "gralloc_retain",
        Arc::new(|k, _t, args| {
            k.charge_cpu(300);
            let id = BufferId(args.first().copied().unwrap_or(0) as u64);
            with_gfx(k, |_, g| g.gralloc.retain(id).map(|_| 0))
        }),
    );
    lib.export(
        "gralloc_release",
        Arc::new(|k, _t, args| {
            k.charge_cpu(300);
            let id = BufferId(args.first().copied().unwrap_or(0) as u64);
            with_gfx(k, |_, g| g.gralloc.release(id).map(|_| 0))
        }),
    );
    lib
}

/// Builds `libEGLbridge.so` — "a custom domestic Android library ...
/// that utilizes Android's libEGL library and SurfaceFlinger service to
/// provide functionality corresponding to the missing EAGL functions"
/// (paper §5.3).
fn build_libeglbridge() -> NativeLibrary {
    let mut lib = NativeLibrary::new("libEGLbridge.so");
    lib.export(
        "EAGLBridge_initWithAPI",
        Arc::new(|k, _t, _args| {
            k.charge_cpu(5_000);
            with_gfx(k, |_, g| Ok(g.egl.create_context().0 as i64))
        }),
    );
    lib.export(
        "EAGLBridge_setCurrent",
        Arc::new(|k, _t, args| {
            k.charge_cpu(2_500);
            let ctx = crate::gles::ContextId(
                args.first().copied().unwrap_or(0) as u64,
            );
            with_gfx(k, |_, g| g.egl.make_current(ctx).map(|_| 0))
        }),
    );
    lib.export(
        "EAGLBridge_renderbufferStorage",
        Arc::new(|k, _t, args| {
            // Window memory comes from SurfaceFlinger, so "Cider
            // manage[s] the iOS display in the same manner that all
            // Android app windows are managed" (§5.3).
            k.charge_cpu(22_000);
            let ctx = crate::gles::ContextId(
                args.first().copied().unwrap_or(0) as u64,
            );
            let w = args.get(1).copied().unwrap_or(0) as u32;
            let h = args.get(2).copied().unwrap_or(0) as u32;
            with_gfx(k, |_, g| {
                g.egl
                    .create_window_surface(
                        &mut g.flinger,
                        &mut g.gralloc,
                        ctx,
                        w,
                        h,
                    )
                    .map(|sid| sid.0 as i64)
            })
        }),
    );
    lib.export(
        "EAGLBridge_present",
        Arc::new(|k, _t, _args| {
            with_gfx(k, |k, g| {
                g.egl
                    .swap_buffers(k, &mut g.gpu, &mut g.flinger, &g.gralloc)
                    .map(|_| 0)
            })
        }),
    );
    // The buggy fence wait used by the prototype's Cider OpenGL ES
    // library (§6.3).
    lib.export(
        "glClientWaitSync_cider",
        Arc::new(|k, _t, args| {
            with_gfx(k, |k, g| {
                let was = g.gpu.fence_bug;
                g.gpu.fence_bug = true;
                let fence = args.first().copied().unwrap_or(0);
                let r =
                    api::gl_client_wait_sync(k, &mut g.egl, &mut g.gpu, fence);
                g.gpu.fence_bug = was;
                r
            })
        }),
    );
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

/// Installs the full graphics stack into a Cider system: the stack
/// becomes an extension of the device kernel, and the four domestic
/// libraries (`libGLESv2.so`, `libEGL.so`, `libgralloc.so`,
/// `libEGLbridge.so`) are registered with exports that reach it through
/// [`with_gfx`].
pub fn install_gfx(
    sys: &mut CiderSystem,
    config: GfxConfig,
) -> GfxInstallReport {
    sys.kernel.extensions.insert(GfxStack::new());
    sys.register_library(build_libglesv2());
    sys.register_library(build_libegl());
    sys.register_library(build_libgralloc());
    sys.register_library(build_libeglbridge());

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

    GfxInstallReport {
        matched,
        bridged_eagl: bridged,
        fence_bug: config.fence_bug,
    }
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
        let report = install_gfx(&mut sys, GfxConfig::default());
        assert_eq!(report.matched, standard_gles_symbols().len());
        assert_eq!(report.bridged_eagl, EAGL_SYMBOLS.len());
        assert!(report.fence_bug);
    }

    #[test]
    fn ios_app_renders_through_diplomats() {
        let mut sys = CiderSystem::new(DeviceProfile::nexus7());
        install_gfx(&mut sys, GfxConfig::default());
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
        let g = gfx(&sys.kernel);
        assert_eq!(g.flinger.frames_presented, 1);
        assert!(g.gpu.gpu_busy_ns > 0);
    }

    #[test]
    fn fence_bug_only_on_diplomatic_path() {
        let mut sys = CiderSystem::new(DeviceProfile::nexus7());
        install_gfx(&mut sys, GfxConfig::default());
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
        assert_eq!(gfx(&sys.kernel).gpu.bug_stalls, 1);
        // The domestic path stays correct.
        assert!(!gfx(&sys.kernel).gpu.fence_bug);
    }

    #[test]
    fn iosurface_interposition_reaches_gralloc() {
        let mut sys = CiderSystem::new(DeviceProfile::nexus7());
        install_gfx(&mut sys, GfxConfig::default());
        let tid = foreign_thread(&mut sys);
        let lib = "IOSurface.framework/IOSurface";
        let buf = sys
            .diplomat_call(tid, lib, "IOSurfaceCreate", &[256, 256])
            .unwrap();
        assert_eq!(gfx(&sys.kernel).gralloc.live(), 1);
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
        assert_eq!(gfx(&sys.kernel).gralloc.live(), 0);
    }
}
