//! SurfaceFlinger: Android's rendering engine, "which uses the GPU to
//! compose all the graphics surfaces for different apps and display the
//! final composed surface to the screen" (paper §2).

use std::collections::BTreeMap;

use cider_abi::errno::Errno;
use cider_kernel::kernel::Kernel;

use crate::gpu::{GpuCommand, SimGpu};
use crate::gralloc::{BufferId, Gralloc, PixelFormat};

/// A window surface handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SurfaceId(pub u64);

/// One client window surface: double-buffered window memory.
#[derive(Debug, Clone)]
pub struct Surface {
    /// Handle.
    pub id: SurfaceId,
    /// Width.
    pub width: u32,
    /// Height.
    pub height: u32,
    /// The two swapchain buffers.
    pub buffers: [BufferId; 2],
    /// Which buffer the client draws into next.
    pub front: usize,
    /// Buffers queued for composition.
    pub queued: Vec<BufferId>,
    /// Whether the surface participates in composition.
    pub visible: bool,
}

/// The compositor service.
#[derive(Debug, Clone, Default)]
pub struct SurfaceFlinger {
    surfaces: BTreeMap<u64, Surface>,
    next: u64,
    /// Frames presented to the display.
    pub frames_presented: u64,
    /// Most recent screenshot (surface contents at last present), used
    /// by the recents list (paper §3).
    pub last_screenshot: Option<(SurfaceId, Vec<u32>)>,
}

impl SurfaceFlinger {
    /// Empty compositor.
    pub fn new() -> SurfaceFlinger {
        SurfaceFlinger::default()
    }

    /// Creates a window surface with a double-buffered swapchain — the
    /// "window memory (a graphics surface)" apps obtain (paper §2).
    ///
    /// # Errors
    ///
    /// Allocation errors from gralloc.
    pub fn create_surface(
        &mut self,
        gralloc: &mut Gralloc,
        width: u32,
        height: u32,
    ) -> Result<SurfaceId, Errno> {
        let a = gralloc.alloc(width, height, PixelFormat::Rgba8888)?;
        let b = gralloc.alloc(width, height, PixelFormat::Rgba8888)?;
        self.next += 1;
        let id = SurfaceId(self.next);
        self.surfaces.insert(
            id.0,
            Surface {
                id,
                width,
                height,
                buffers: [a, b],
                front: 0,
                queued: Vec::new(),
                visible: true,
            },
        );
        Ok(id)
    }

    /// Destroys a surface, releasing its buffers.
    ///
    /// # Errors
    ///
    /// `EBADF` for unknown surfaces.
    pub fn destroy_surface(
        &mut self,
        gralloc: &mut Gralloc,
        id: SurfaceId,
    ) -> Result<(), Errno> {
        let s = self.surfaces.remove(&id.0).ok_or(Errno::EBADF)?;
        for b in s.buffers {
            gralloc.release(b)?;
        }
        Ok(())
    }

    /// Borrows a surface.
    ///
    /// # Errors
    ///
    /// `EBADF` for unknown surfaces.
    pub fn surface(&self, id: SurfaceId) -> Result<&Surface, Errno> {
        self.surfaces.get(&id.0).ok_or(Errno::EBADF)
    }

    /// The buffer the client should draw into (dequeueBuffer).
    ///
    /// # Errors
    ///
    /// `EBADF` for unknown surfaces.
    pub fn dequeue_buffer(
        &mut self,
        id: SurfaceId,
    ) -> Result<BufferId, Errno> {
        let s = self.surfaces.get_mut(&id.0).ok_or(Errno::EBADF)?;
        Ok(s.buffers[s.front])
    }

    /// Queues the drawn buffer for composition and flips the swapchain.
    ///
    /// # Errors
    ///
    /// `EBADF` for unknown surfaces.
    pub fn queue_buffer(&mut self, id: SurfaceId) -> Result<(), Errno> {
        let s = self.surfaces.get_mut(&id.0).ok_or(Errno::EBADF)?;
        let buf = s.buffers[s.front];
        s.queued.push(buf);
        s.front = 1 - s.front;
        Ok(())
    }

    /// Composes all visible surfaces with queued buffers and presents
    /// the frame, capturing a screenshot of the topmost surface.
    /// Returns how many layers were composed.
    pub fn composite(
        &mut self,
        k: &mut Kernel,
        gpu: &mut SimGpu,
        gralloc: &Gralloc,
    ) -> usize {
        let mut layers = 0;
        let mut top: Option<SurfaceId> = None;
        for s in self.surfaces.values_mut() {
            if s.visible && !s.queued.is_empty() {
                layers += 1;
                top = Some(s.id);
            }
        }
        if layers == 0 {
            return 0;
        }
        gpu.submit(
            k,
            GpuCommand::Compose {
                layers: layers as u32,
            },
        );
        gpu.retire_all(k);
        if let Some(top) = top {
            let s = self.surfaces.get_mut(&top.0).expect("exists");
            if let Some(&buf) = s.queued.last() {
                if let Ok(b) = gralloc.get(buf) {
                    // Screenshots for the recents list are down-sampled.
                    let shot: Vec<u32> =
                        b.pixels.iter().step_by(64).copied().collect();
                    self.last_screenshot = Some((top, shot));
                }
            }
        }
        for s in self.surfaces.values_mut() {
            s.queued.clear();
        }
        self.frames_presented += 1;
        layers
    }

    /// Number of live surfaces.
    pub fn surface_count(&self) -> usize {
        self.surfaces.len()
    }

    /// Shows or hides a surface (app pause/resume proxying).
    ///
    /// # Errors
    ///
    /// `EBADF` for unknown surfaces.
    pub fn set_visible(
        &mut self,
        id: SurfaceId,
        visible: bool,
    ) -> Result<(), Errno> {
        self.surfaces.get_mut(&id.0).ok_or(Errno::EBADF)?.visible = visible;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cider_kernel::profile::DeviceProfile;

    fn setup() -> (Kernel, SurfaceFlinger, Gralloc, SimGpu) {
        (
            Kernel::boot(DeviceProfile::nexus7()),
            SurfaceFlinger::new(),
            Gralloc::new(),
            SimGpu::new(),
        )
    }

    #[test]
    fn surface_lifecycle() {
        let (_k, mut sf, mut g, _gpu) = setup();
        let s = sf.create_surface(&mut g, 1280, 800).unwrap();
        assert_eq!(g.live(), 2, "double buffered");
        sf.destroy_surface(&mut g, s).unwrap();
        assert_eq!(g.live(), 0);
        assert_eq!(sf.surface(s).unwrap_err(), Errno::EBADF);
    }

    #[test]
    fn swapchain_flips() {
        let (_k, mut sf, mut g, _gpu) = setup();
        let s = sf.create_surface(&mut g, 64, 64).unwrap();
        let b1 = sf.dequeue_buffer(s).unwrap();
        sf.queue_buffer(s).unwrap();
        let b2 = sf.dequeue_buffer(s).unwrap();
        assert_ne!(b1, b2);
        sf.queue_buffer(s).unwrap();
        assert_eq!(sf.dequeue_buffer(s).unwrap(), b1);
    }

    #[test]
    fn composite_presents_queued_layers() {
        let (mut k, mut sf, mut g, mut gpu) = setup();
        let s1 = sf.create_surface(&mut g, 64, 64).unwrap();
        let s2 = sf.create_surface(&mut g, 64, 64).unwrap();
        sf.queue_buffer(s1).unwrap();
        sf.queue_buffer(s2).unwrap();
        let layers = sf.composite(&mut k, &mut gpu, &g);
        assert_eq!(layers, 2);
        assert_eq!(sf.frames_presented, 1);
        // Nothing queued: next composite is a no-op.
        assert_eq!(sf.composite(&mut k, &mut gpu, &g), 0);
    }

    #[test]
    fn invisible_surfaces_skip_composition() {
        let (mut k, mut sf, mut g, mut gpu) = setup();
        let s = sf.create_surface(&mut g, 64, 64).unwrap();
        sf.queue_buffer(s).unwrap();
        sf.set_visible(s, false).unwrap();
        assert_eq!(sf.composite(&mut k, &mut gpu, &g), 0);
    }

    #[test]
    fn screenshot_captured_for_recents() {
        let (mut k, mut sf, mut g, mut gpu) = setup();
        let s = sf.create_surface(&mut g, 64, 64).unwrap();
        let buf = sf.dequeue_buffer(s).unwrap();
        g.get_mut(buf).unwrap().pixels[0] = 0xAA;
        sf.queue_buffer(s).unwrap();
        sf.composite(&mut k, &mut gpu, &g);
        let (sid, shot) = sf.last_screenshot.clone().unwrap();
        assert_eq!(sid, s);
        assert_eq!(shot[0], 0xAA);
    }
}
