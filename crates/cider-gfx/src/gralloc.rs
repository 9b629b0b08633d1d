//! `libgralloc`: Android's graphics-memory allocator.
//!
//! Diplomatic IOSurface functions "call into Android-specific graphics
//! memory allocation libraries such as libgralloc" (paper §5.3). Buffers
//! are reference counted and carry real pixel storage so the 2D
//! workloads can draw into them.

use std::collections::BTreeMap;

use cider_abi::errno::Errno;

/// A buffer handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BufferId(pub u64);

/// Pixel formats.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PixelFormat {
    /// 32-bit RGBA.
    Rgba8888,
    /// 16-bit RGB.
    Rgb565,
}

impl PixelFormat {
    /// Bytes per pixel.
    pub fn bpp(self) -> usize {
        match self {
            PixelFormat::Rgba8888 => 4,
            PixelFormat::Rgb565 => 2,
        }
    }
}

/// One graphics buffer.
#[derive(Debug, Clone)]
pub struct GraphicsBuffer {
    /// Handle.
    pub id: BufferId,
    /// Width in pixels.
    pub width: u32,
    /// Height in pixels.
    pub height: u32,
    /// Format.
    pub format: PixelFormat,
    /// Reference count.
    refs: u32,
    /// Pixel storage (one u32 per pixel regardless of format, for
    /// simplicity of the drawing routines).
    pub pixels: Vec<u32>,
    /// Lock state (IOSurface lock/unlock discipline).
    pub locked: bool,
}

impl GraphicsBuffer {
    /// Buffer size in bytes (as the allocator accounts it).
    pub fn byte_size(&self) -> u64 {
        self.width as u64 * self.height as u64 * self.format.bpp() as u64
    }
}

/// The allocator.
#[derive(Debug, Clone, Default)]
pub struct Gralloc {
    buffers: BTreeMap<u64, GraphicsBuffer>,
    next: u64,
    /// Total bytes currently allocated.
    pub allocated_bytes: u64,
}

impl Gralloc {
    /// Empty allocator.
    pub fn new() -> Gralloc {
        Gralloc::default()
    }

    /// Allocates a buffer with refcount 1.
    ///
    /// # Errors
    ///
    /// `EINVAL` for zero dimensions.
    pub fn alloc(
        &mut self,
        width: u32,
        height: u32,
        format: PixelFormat,
    ) -> Result<BufferId, Errno> {
        if width == 0 || height == 0 {
            return Err(Errno::EINVAL);
        }
        self.next += 1;
        let id = BufferId(self.next);
        let buf = GraphicsBuffer {
            id,
            width,
            height,
            format,
            refs: 1,
            pixels: vec![0; (width * height) as usize],
            locked: false,
        };
        self.allocated_bytes += buf.byte_size();
        self.buffers.insert(id.0, buf);
        Ok(id)
    }

    /// Borrows a buffer.
    ///
    /// # Errors
    ///
    /// `EBADF` for dangling handles.
    pub fn get(&self, id: BufferId) -> Result<&GraphicsBuffer, Errno> {
        self.buffers.get(&id.0).ok_or(Errno::EBADF)
    }

    /// Mutable borrow.
    ///
    /// # Errors
    ///
    /// `EBADF` for dangling handles.
    pub fn get_mut(
        &mut self,
        id: BufferId,
    ) -> Result<&mut GraphicsBuffer, Errno> {
        self.buffers.get_mut(&id.0).ok_or(Errno::EBADF)
    }

    /// Adds a reference (zero-copy sharing across processes).
    ///
    /// # Errors
    ///
    /// `EBADF` for dangling handles.
    pub fn retain(&mut self, id: BufferId) -> Result<(), Errno> {
        self.get_mut(id)?.refs += 1;
        Ok(())
    }

    /// Drops a reference, freeing the buffer at zero.
    ///
    /// # Errors
    ///
    /// `EBADF` for dangling handles.
    pub fn release(&mut self, id: BufferId) -> Result<(), Errno> {
        let buf = self.get_mut(id)?;
        buf.refs -= 1;
        if buf.refs == 0 {
            let bytes = buf.byte_size();
            self.buffers.remove(&id.0);
            self.allocated_bytes -= bytes;
        }
        Ok(())
    }

    /// Live buffer count.
    pub fn live(&self) -> usize {
        self.buffers.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_account() {
        let mut g = Gralloc::new();
        let id = g.alloc(1280, 800, PixelFormat::Rgba8888).unwrap();
        assert_eq!(g.get(id).unwrap().byte_size(), 1280 * 800 * 4);
        assert_eq!(g.allocated_bytes, 1280 * 800 * 4);
        assert_eq!(g.live(), 1);
    }

    #[test]
    fn zero_dimensions_rejected() {
        let mut g = Gralloc::new();
        assert_eq!(g.alloc(0, 100, PixelFormat::Rgb565), Err(Errno::EINVAL));
    }

    #[test]
    fn refcount_lifecycle() {
        let mut g = Gralloc::new();
        let id = g.alloc(4, 4, PixelFormat::Rgba8888).unwrap();
        g.retain(id).unwrap();
        g.release(id).unwrap();
        assert_eq!(g.live(), 1);
        g.release(id).unwrap();
        assert_eq!(g.live(), 0);
        assert_eq!(g.allocated_bytes, 0);
        assert_eq!(g.get(id).unwrap_err(), Errno::EBADF);
    }

    #[test]
    fn pixels_are_writable() {
        let mut g = Gralloc::new();
        let id = g.alloc(2, 2, PixelFormat::Rgba8888).unwrap();
        g.get_mut(id).unwrap().pixels[3] = 0xFF00FF00;
        assert_eq!(g.get(id).unwrap().pixels[3], 0xFF00FF00);
    }
}
