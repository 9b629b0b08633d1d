//! The domestic OpenGL ES state machine and the EGL layer.
//!
//! On Android "an app can attach an OpenGL context to the window memory
//! and use the OpenGL ES framework to render hardware-accelerated
//! graphics into the window memory using the GPU" (paper §2). The
//! [`GlesContext`] tracks GL state and emits GPU commands; [`Egl`]
//! manages contexts and window surfaces over SurfaceFlinger.

use std::collections::BTreeMap;

use cider_abi::errno::Errno;
use cider_kernel::kernel::Kernel;

use crate::gpu::{FenceId, GpuCommand, SimGpu};
use crate::gralloc::Gralloc;
use crate::surfaceflinger::{SurfaceFlinger, SurfaceId};

/// CPU cost of one GL entry point on the domestic path (driver dispatch
/// plus state validation), ns. Tegra-era GL drivers spend on the order
/// of a microsecond per call.
pub const GL_DISPATCH_NS: u64 = 1_200;

/// A GL context handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ContextId(pub u64);

/// GL state for one context.
#[derive(Debug, Clone, Default)]
pub struct GlesContext {
    /// Attached window surface.
    pub surface: Option<SurfaceId>,
    /// Current clear colour (RGBA packed).
    pub clear_color: u32,
    /// Bound texture name.
    pub bound_texture: u32,
    /// Active shader program.
    pub program: u32,
    /// Enabled capabilities (GL_BLEND etc., by enum value).
    pub enabled: Vec<u32>,
    /// Draw calls issued in the current frame.
    pub frame_draw_calls: u32,
    /// Total GL calls ever issued on this context.
    pub total_calls: u64,
    /// Textures generated.
    pub textures: u32,
    /// Outstanding fence from glFenceSync.
    pub pending_fence: Option<FenceId>,
}

/// The EGL implementation: contexts + window binding + swap.
#[derive(Debug, Clone, Default)]
pub struct Egl {
    contexts: BTreeMap<u64, GlesContext>,
    next: u64,
    current: Option<ContextId>,
}

impl Egl {
    /// Empty EGL state.
    pub fn new() -> Egl {
        Egl::default()
    }

    /// `eglCreateContext`.
    pub fn create_context(&mut self) -> ContextId {
        self.next += 1;
        self.contexts.insert(self.next, GlesContext::default());
        ContextId(self.next)
    }

    /// `eglCreateWindowSurface` + attach: allocates window memory from
    /// SurfaceFlinger and binds it to the context.
    ///
    /// # Errors
    ///
    /// `EBADF` for unknown contexts; gralloc errors.
    pub fn create_window_surface(
        &mut self,
        flinger: &mut SurfaceFlinger,
        gralloc: &mut Gralloc,
        ctx: ContextId,
        width: u32,
        height: u32,
    ) -> Result<SurfaceId, Errno> {
        let surface = flinger.create_surface(gralloc, width, height)?;
        self.context_mut(ctx)?.surface = Some(surface);
        Ok(surface)
    }

    /// `eglMakeCurrent`.
    ///
    /// # Errors
    ///
    /// `EBADF` for unknown contexts.
    pub fn make_current(&mut self, ctx: ContextId) -> Result<(), Errno> {
        if !self.contexts.contains_key(&ctx.0) {
            return Err(Errno::EBADF);
        }
        self.current = Some(ctx);
        Ok(())
    }

    /// The current context id.
    pub fn current(&self) -> Option<ContextId> {
        self.current
    }

    /// Borrows a context.
    ///
    /// # Errors
    ///
    /// `EBADF` for unknown contexts.
    pub fn context(&self, ctx: ContextId) -> Result<&GlesContext, Errno> {
        self.contexts.get(&ctx.0).ok_or(Errno::EBADF)
    }

    /// Mutable borrow.
    ///
    /// # Errors
    ///
    /// `EBADF` for unknown contexts.
    pub fn context_mut(
        &mut self,
        ctx: ContextId,
    ) -> Result<&mut GlesContext, Errno> {
        self.contexts.get_mut(&ctx.0).ok_or(Errno::EBADF)
    }

    /// The current context, mutably.
    ///
    /// # Errors
    ///
    /// `EBADF` when no context is current.
    pub fn current_mut(&mut self) -> Result<&mut GlesContext, Errno> {
        let c = self.current.ok_or(Errno::EBADF)?;
        self.context_mut(c)
    }

    /// `eglSwapBuffers`: queues the drawn buffer and composites.
    ///
    /// # Errors
    ///
    /// `EBADF` when no context/surface is current.
    pub fn swap_buffers(
        &mut self,
        k: &mut Kernel,
        gpu: &mut SimGpu,
        flinger: &mut SurfaceFlinger,
        gralloc: &Gralloc,
    ) -> Result<(), Errno> {
        let ctx = self.current_mut()?;
        let surface = ctx.surface.ok_or(Errno::EBADF)?;
        ctx.frame_draw_calls = 0;
        flinger.queue_buffer(surface)?;
        flinger.composite(k, gpu, gralloc);
        Ok(())
    }
}

/// GL entry-point implementations, shared by the domestic export table
/// and (through diplomats) by the Cider OpenGL ES replacement library.
/// Every call charges [`GL_DISPATCH_NS`] and mutates the current context.
pub mod api {
    use super::*;

    fn dispatch(k: &mut Kernel) {
        k.charge_cpu(GL_DISPATCH_NS);
    }

    /// `glClear`.
    ///
    /// # Errors
    ///
    /// `EBADF` when no context is current.
    pub fn gl_clear(
        k: &mut Kernel,
        egl: &mut Egl,
        gpu: &mut SimGpu,
        _mask: i64,
    ) -> Result<i64, Errno> {
        dispatch(k);
        let ctx = egl.current_mut()?;
        ctx.total_calls += 1;
        gpu.submit(k, GpuCommand::Clear);
        Ok(0)
    }

    /// `glClearColor` (packed RGBA).
    ///
    /// # Errors
    ///
    /// `EBADF` when no context is current.
    pub fn gl_clear_color(
        k: &mut Kernel,
        egl: &mut Egl,
        rgba: i64,
    ) -> Result<i64, Errno> {
        dispatch(k);
        let ctx = egl.current_mut()?;
        ctx.total_calls += 1;
        ctx.clear_color = rgba as u32;
        Ok(0)
    }

    /// `glDrawArrays(mode, first, count)`.
    ///
    /// # Errors
    ///
    /// `EBADF` when no context is current, `EINVAL` on negative counts.
    pub fn gl_draw_arrays(
        k: &mut Kernel,
        egl: &mut Egl,
        gpu: &mut SimGpu,
        count: i64,
    ) -> Result<i64, Errno> {
        dispatch(k);
        if count < 0 {
            return Err(Errno::EINVAL);
        }
        let ctx = egl.current_mut()?;
        ctx.total_calls += 1;
        ctx.frame_draw_calls += 1;
        let binds = u32::from(ctx.bound_texture != 0);
        gpu.submit(
            k,
            GpuCommand::Draw {
                vertices: count as u32,
                texture_binds: binds,
            },
        );
        Ok(0)
    }

    /// `glBindTexture`.
    ///
    /// # Errors
    ///
    /// `EBADF` when no context is current.
    pub fn gl_bind_texture(
        k: &mut Kernel,
        egl: &mut Egl,
        name: i64,
    ) -> Result<i64, Errno> {
        dispatch(k);
        let ctx = egl.current_mut()?;
        ctx.total_calls += 1;
        ctx.bound_texture = name as u32;
        Ok(0)
    }

    /// `glGenTextures(1)` — returns the new name.
    ///
    /// # Errors
    ///
    /// `EBADF` when no context is current.
    pub fn gl_gen_texture(
        k: &mut Kernel,
        egl: &mut Egl,
    ) -> Result<i64, Errno> {
        dispatch(k);
        let ctx = egl.current_mut()?;
        ctx.total_calls += 1;
        ctx.textures += 1;
        Ok(ctx.textures as i64)
    }

    /// `glTexImage2D` (bytes uploaded).
    ///
    /// # Errors
    ///
    /// `EBADF` when no context is current.
    pub fn gl_tex_image_2d(
        k: &mut Kernel,
        egl: &mut Egl,
        gpu: &mut SimGpu,
        bytes: i64,
    ) -> Result<i64, Errno> {
        dispatch(k);
        let ctx = egl.current_mut()?;
        ctx.total_calls += 1;
        gpu.submit(
            k,
            GpuCommand::Blit {
                bytes: bytes.max(0) as u64,
            },
        );
        Ok(0)
    }

    /// `glUseProgram`.
    ///
    /// # Errors
    ///
    /// `EBADF` when no context is current.
    pub fn gl_use_program(
        k: &mut Kernel,
        egl: &mut Egl,
        program: i64,
    ) -> Result<i64, Errno> {
        dispatch(k);
        let ctx = egl.current_mut()?;
        ctx.total_calls += 1;
        ctx.program = program as u32;
        Ok(0)
    }

    /// `glEnable`.
    ///
    /// # Errors
    ///
    /// `EBADF` when no context is current.
    pub fn gl_enable(
        k: &mut Kernel,
        egl: &mut Egl,
        cap: i64,
    ) -> Result<i64, Errno> {
        dispatch(k);
        let ctx = egl.current_mut()?;
        ctx.total_calls += 1;
        let cap = cap as u32;
        if !ctx.enabled.contains(&cap) {
            ctx.enabled.push(cap);
        }
        Ok(0)
    }

    /// `glFenceSync` — returns a fence handle.
    ///
    /// # Errors
    ///
    /// `EBADF` when no context is current.
    pub fn gl_fence_sync(
        k: &mut Kernel,
        egl: &mut Egl,
        gpu: &mut SimGpu,
    ) -> Result<i64, Errno> {
        dispatch(k);
        let f = gpu.submit_fence(k);
        let ctx = egl.current_mut()?;
        ctx.total_calls += 1;
        ctx.pending_fence = Some(f);
        Ok(f.0 as i64)
    }

    /// `glClientWaitSync` — waits for a fence.
    ///
    /// # Errors
    ///
    /// `EBADF` when no context is current.
    pub fn gl_client_wait_sync(
        k: &mut Kernel,
        egl: &mut Egl,
        gpu: &mut SimGpu,
        fence: i64,
    ) -> Result<i64, Errno> {
        dispatch(k);
        egl.current_mut()?.total_calls += 1;
        gpu.wait_fence(k, FenceId(fence as u64));
        Ok(0)
    }

    /// `glFinish`.
    ///
    /// # Errors
    ///
    /// `EBADF` when no context is current.
    pub fn gl_finish(
        k: &mut Kernel,
        egl: &mut Egl,
        gpu: &mut SimGpu,
    ) -> Result<i64, Errno> {
        dispatch(k);
        egl.current_mut()?.total_calls += 1;
        gpu.retire_all(k);
        Ok(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cider_kernel::profile::DeviceProfile;

    fn setup() -> (Kernel, Egl, SimGpu, SurfaceFlinger, Gralloc) {
        (
            Kernel::boot(DeviceProfile::nexus7()),
            Egl::new(),
            SimGpu::new(),
            SurfaceFlinger::new(),
            Gralloc::new(),
        )
    }

    #[test]
    fn context_and_surface_lifecycle() {
        let (_k, mut egl, _gpu, mut sf, mut g) = setup();
        let ctx = egl.create_context();
        let s = egl
            .create_window_surface(&mut sf, &mut g, ctx, 1280, 800)
            .unwrap();
        egl.make_current(ctx).unwrap();
        assert_eq!(egl.context(ctx).unwrap().surface, Some(s));
        assert_eq!(egl.current(), Some(ctx));
    }

    #[test]
    fn gl_calls_require_current_context() {
        let (mut k, mut egl, mut gpu, ..) = setup();
        assert_eq!(
            api::gl_clear(&mut k, &mut egl, &mut gpu, 0),
            Err(Errno::EBADF)
        );
    }

    #[test]
    fn draw_emits_gpu_work_and_counts() {
        let (mut k, mut egl, mut gpu, mut sf, mut g) = setup();
        let ctx = egl.create_context();
        egl.create_window_surface(&mut sf, &mut g, ctx, 64, 64)
            .unwrap();
        egl.make_current(ctx).unwrap();
        api::gl_clear(&mut k, &mut egl, &mut gpu, 0x4000).unwrap();
        let t = api::gl_gen_texture(&mut k, &mut egl).unwrap();
        api::gl_bind_texture(&mut k, &mut egl, t).unwrap();
        api::gl_draw_arrays(&mut k, &mut egl, &mut gpu, 300).unwrap();
        assert_eq!(egl.context(ctx).unwrap().frame_draw_calls, 1);
        assert_eq!(egl.context(ctx).unwrap().total_calls, 4);
        assert_eq!(gpu.pending(), 2);
        assert_eq!(
            api::gl_draw_arrays(&mut k, &mut egl, &mut gpu, -1),
            Err(Errno::EINVAL)
        );
    }

    #[test]
    fn swap_buffers_composites_and_resets_frame() {
        let (mut k, mut egl, mut gpu, mut sf, mut g) = setup();
        let ctx = egl.create_context();
        egl.create_window_surface(&mut sf, &mut g, ctx, 64, 64)
            .unwrap();
        egl.make_current(ctx).unwrap();
        api::gl_draw_arrays(&mut k, &mut egl, &mut gpu, 30).unwrap();
        egl.swap_buffers(&mut k, &mut gpu, &mut sf, &g).unwrap();
        assert_eq!(sf.frames_presented, 1);
        assert_eq!(egl.context(ctx).unwrap().frame_draw_calls, 0);
    }

    #[test]
    fn fence_roundtrip_through_gl() {
        let (mut k, mut egl, mut gpu, mut sf, mut g) = setup();
        let ctx = egl.create_context();
        egl.create_window_surface(&mut sf, &mut g, ctx, 8, 8)
            .unwrap();
        egl.make_current(ctx).unwrap();
        api::gl_draw_arrays(&mut k, &mut egl, &mut gpu, 3).unwrap();
        let f = api::gl_fence_sync(&mut k, &mut egl, &mut gpu).unwrap();
        api::gl_client_wait_sync(&mut k, &mut egl, &mut gpu, f).unwrap();
        assert!(gpu.fence_signaled(FenceId(f as u64)));
    }

    #[test]
    fn gl_dispatch_charges_cpu() {
        let (mut k, mut egl, ..) = setup();
        let ctx = egl.create_context();
        egl.make_current(ctx).unwrap();
        let t0 = k.clock.now_ns();
        api::gl_clear_color(&mut k, &mut egl, 0xFFFFFFFF).unwrap();
        assert!(k.clock.now_ns() - t0 >= GL_DISPATCH_NS);
    }
}
