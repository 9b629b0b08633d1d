//! Graphics substrate for the Cider reproduction.
//!
//! Reproduces the paper's §5.3 graphics architecture: a simulated GPU
//! with fences ([`gpu`]), Android's graphics memory allocator
//! ([`gralloc`]), the SurfaceFlinger compositor ([`surfaceflinger`]),
//! the domestic OpenGL ES / EGL stack ([`gles`]), CPU 2D drawing
//! primitives ([`draw2d`]), the `AppleM2CLCD` I/O Kit framebuffer driver
//! ([`fbdriver`]), and — tying it to Cider — the generated diplomatic
//! OpenGL ES library, the EAGL→libEGLbridge diplomats, and the
//! interposed diplomatic IOSurface ([`stack`]).

pub mod draw2d;
pub mod fbdriver;
pub mod gles;
pub mod gpu;
pub mod gralloc;
pub mod stack;
pub mod surfaceflinger;

pub use gles::{Egl, GlesContext, GL_DISPATCH_NS};
pub use gpu::{FenceId, GpuCommand, SimGpu};
pub use gralloc::{BufferId, Gralloc, GraphicsBuffer, PixelFormat};
pub use stack::{install_gfx, with_gfx, GfxConfig, GfxStack};
pub use surfaceflinger::{SurfaceFlinger, SurfaceId};
