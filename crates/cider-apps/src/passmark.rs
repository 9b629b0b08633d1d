//! The PassMark-style benchmark app (paper §6.3, Figure 6).
//!
//! PassMark ships as two apps with the same tests: the Android version
//! is "written in Java and interpreted through the Dalvik VM while the
//! iOS version is written in Objective-C and compiled and run as a
//! native binary". [`Passmark`] reproduces both forms over the same
//! workloads, plus the storage, memory, 2D, and 3D groups.

use cider_abi::errno::Errno;
use cider_abi::ids::Tid;
use cider_abi::types::OpenFlags;
use cider_core::system::CiderSystem;
use cider_gfx::draw2d;
use cider_gfx::gralloc::PixelFormat;
use cider_gfx::stack::{gfx, with_gfx};

use crate::vm::Vm;
use crate::workloads::{self, Lcg, Sizes};

/// Which app form runs the tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AppForm {
    /// The Java/Dalvik Android app (interpreted CPU/memory tests).
    AndroidDalvik,
    /// The Objective-C iOS app (native CPU/memory tests).
    IosNative,
}

/// How GL calls reach the driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GlPath {
    /// Straight into the platform's own GL library (Android app on
    /// Android, iOS app on a real iOS device).
    DirectHost,
    /// Through Cider's diplomatic OpenGL ES library (iOS app on Cider).
    Diplomatic,
}

/// The Figure 6 tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Test {
    /// CPU: integer maths.
    CpuInteger,
    /// CPU: floating point.
    CpuFloat,
    /// CPU: find primes.
    CpuPrimes,
    /// CPU: random string sort.
    CpuStringSort,
    /// CPU: data encryption.
    CpuEncryption,
    /// CPU: data compression.
    CpuCompression,
    /// Storage: sequential write.
    StorageWrite,
    /// Storage: sequential read.
    StorageRead,
    /// Memory: write.
    MemoryWrite,
    /// Memory: read.
    MemoryRead,
    /// 2D: solid vectors.
    Gfx2dSolidVectors,
    /// 2D: transparent vectors.
    Gfx2dTransparentVectors,
    /// 2D: complex vectors.
    Gfx2dComplexVectors,
    /// 2D: image rendering.
    Gfx2dImageRendering,
    /// 2D: image filters.
    Gfx2dImageFilters,
    /// 3D: simple scene.
    Gfx3dSimple,
    /// 3D: complex scene.
    Gfx3dComplex,
}

impl Test {
    /// All tests in Figure 6 order.
    pub const ALL: [Test; 17] = [
        Test::CpuInteger,
        Test::CpuFloat,
        Test::CpuPrimes,
        Test::CpuStringSort,
        Test::CpuEncryption,
        Test::CpuCompression,
        Test::StorageWrite,
        Test::StorageRead,
        Test::MemoryWrite,
        Test::MemoryRead,
        Test::Gfx2dSolidVectors,
        Test::Gfx2dTransparentVectors,
        Test::Gfx2dComplexVectors,
        Test::Gfx2dImageRendering,
        Test::Gfx2dImageFilters,
        Test::Gfx3dSimple,
        Test::Gfx3dComplex,
    ];

    /// Table row name.
    pub fn name(self) -> &'static str {
        match self {
            Test::CpuInteger => "integer",
            Test::CpuFloat => "floating point",
            Test::CpuPrimes => "find primes",
            Test::CpuStringSort => "random string sort",
            Test::CpuEncryption => "data encryption",
            Test::CpuCompression => "data compression",
            Test::StorageWrite => "storage write",
            Test::StorageRead => "storage read",
            Test::MemoryWrite => "memory write",
            Test::MemoryRead => "memory read",
            Test::Gfx2dSolidVectors => "2D solid vectors",
            Test::Gfx2dTransparentVectors => "2D transparent vectors",
            Test::Gfx2dComplexVectors => "2D complex vectors",
            Test::Gfx2dImageRendering => "2D image rendering",
            Test::Gfx2dImageFilters => "2D image filters",
            Test::Gfx3dSimple => "3D simple",
            Test::Gfx3dComplex => "3D complex",
        }
    }

    /// Figure 6 group.
    pub fn group(self) -> &'static str {
        match self {
            Test::CpuInteger
            | Test::CpuFloat
            | Test::CpuPrimes
            | Test::CpuStringSort
            | Test::CpuEncryption
            | Test::CpuCompression => "cpu",
            Test::StorageWrite | Test::StorageRead => "storage",
            Test::MemoryWrite | Test::MemoryRead => "memory",
            Test::Gfx2dSolidVectors
            | Test::Gfx2dTransparentVectors
            | Test::Gfx2dComplexVectors
            | Test::Gfx2dImageRendering
            | Test::Gfx2dImageFilters => "2d",
            Test::Gfx3dSimple | Test::Gfx3dComplex => "3d",
        }
    }
}

/// One test's outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurement {
    /// The test.
    pub test: Test,
    /// Operations completed.
    pub ops: u64,
    /// Virtual time consumed, ns.
    pub virtual_ns: u64,
}

impl Measurement {
    /// Throughput in operations per virtual second — Figure 6's unit
    /// ("larger numbers are better").
    pub fn ops_per_sec(&self) -> f64 {
        if self.virtual_ns == 0 {
            return 0.0;
        }
        self.ops as f64 * 1e9 / self.virtual_ns as f64
    }
}

/// 2D drawing-library per-operation overheads, ns. "The Android app
/// performs much better ... most likely due to more efficient/optimized
/// 2D drawing libraries in Android", with complex vectors the exception
/// (§6.3).
fn lib2d_overhead_ns(form: AppForm, test: Test) -> u64 {
    match (form, test) {
        (AppForm::AndroidDalvik, Test::Gfx2dSolidVectors) => 600,
        (AppForm::AndroidDalvik, Test::Gfx2dTransparentVectors) => 700,
        (AppForm::AndroidDalvik, Test::Gfx2dComplexVectors) => 2_600,
        (AppForm::AndroidDalvik, Test::Gfx2dImageRendering) => 900,
        (AppForm::AndroidDalvik, Test::Gfx2dImageFilters) => 800,
        (AppForm::IosNative, Test::Gfx2dSolidVectors) => 1_500,
        (AppForm::IosNative, Test::Gfx2dTransparentVectors) => 1_700,
        (AppForm::IosNative, Test::Gfx2dComplexVectors) => 1_300,
        (AppForm::IosNative, Test::Gfx2dImageRendering) => 1_000,
        (AppForm::IosNative, Test::Gfx2dImageFilters) => 1_600,
        _ => 0,
    }
}

/// Per-frame GL call counts for the 3D scenes.
fn scene_params(test: Test) -> (u32, u32, u32) {
    // (total calls, draw calls, vertices per draw)
    match test {
        Test::Gfx3dSimple => (2_000, 200, 2_800),
        Test::Gfx3dComplex => (12_000, 1_200, 1_200),
        _ => unreachable!("not a 3D test"),
    }
}

/// Frames rendered per 3D test.
const SCENE_FRAMES: u64 = 10;

/// The benchmark app.
#[derive(Debug, Clone, Copy)]
pub struct Passmark {
    /// App form.
    pub form: AppForm,
    /// Workload sizes.
    pub sizes: Sizes,
}

/// The environment a PassMark run needs.
pub struct PassmarkEnv<'a> {
    /// The system under test; its kernel holds the graphics stack.
    pub sys: &'a mut CiderSystem,
    /// The app's main thread.
    pub tid: Tid,
    /// How GL calls reach the driver.
    pub gl_path: GlPath,
}

const SEED: u64 = 0x0BADC1DE;

impl Passmark {
    /// A PassMark app of the given form with standard sizes.
    pub fn new(form: AppForm) -> Passmark {
        Passmark {
            form,
            sizes: Sizes::standard(),
        }
    }

    /// Runs one test and reports its measurement.
    ///
    /// # Errors
    ///
    /// Kernel/graphics errors; workload programs themselves are
    /// fault-free.
    pub fn run(
        &self,
        env: &mut PassmarkEnv<'_>,
        test: Test,
    ) -> Result<Measurement, Errno> {
        let t0 = env.sys.kernel.clock.now_ns();
        let ops = match test {
            Test::CpuInteger => self.cpu_integer(env)?,
            Test::CpuFloat => self.cpu_float(env)?,
            Test::CpuPrimes => self.cpu_primes(env)?,
            Test::CpuStringSort => self.cpu_sort(env)?,
            Test::CpuEncryption => self.cpu_crypt(env)?,
            Test::CpuCompression => self.cpu_compress(env)?,
            Test::StorageWrite => self.storage(env, true)?,
            Test::StorageRead => self.storage(env, false)?,
            Test::MemoryWrite => self.memory(env, true)?,
            Test::MemoryRead => self.memory(env, false)?,
            Test::Gfx2dSolidVectors
            | Test::Gfx2dTransparentVectors
            | Test::Gfx2dComplexVectors
            | Test::Gfx2dImageRendering
            | Test::Gfx2dImageFilters => self.gfx2d(env, test)?,
            Test::Gfx3dSimple | Test::Gfx3dComplex => self.gfx3d(env, test)?,
        };
        Ok(Measurement {
            test,
            ops,
            virtual_ns: env.sys.kernel.clock.now_ns() - t0,
        })
    }

    // ------------------------------------------------------------------
    // CPU group: interpreted vs native.
    // ------------------------------------------------------------------

    fn run_form(
        &self,
        env: &mut PassmarkEnv<'_>,
        program: Vec<crate::vm::Insn>,
        input: Option<Vec<i64>>,
        native: impl FnOnce(&mut cider_kernel::kernel::Kernel) -> i64,
    ) -> Result<i64, Errno> {
        match self.form {
            AppForm::AndroidDalvik => {
                let mut vm = Vm::new();
                if let Some(data) = input {
                    vm.set_array(data);
                }
                let r = vm
                    .run(&mut env.sys.kernel, &program)
                    .map_err(|_| Errno::EINVAL)?;
                Ok(r.value)
            }
            AppForm::IosNative => Ok(native(&mut env.sys.kernel)),
        }
    }

    fn cpu_integer(&self, env: &mut PassmarkEnv<'_>) -> Result<u64, Errno> {
        let iters = self.sizes.integer_iters;
        self.run_form(
            env,
            workloads::integer_program(iters, 42),
            None,
            |k| workloads::integer_native(k, iters, 42),
        )?;
        Ok(iters)
    }

    fn cpu_float(&self, env: &mut PassmarkEnv<'_>) -> Result<u64, Errno> {
        let iters = self.sizes.float_iters;
        self.run_form(env, workloads::float_program(iters), None, |k| {
            workloads::float_native(k, iters) as i64
        })?;
        Ok(iters)
    }

    fn cpu_primes(&self, env: &mut PassmarkEnv<'_>) -> Result<u64, Errno> {
        let limit = self.sizes.primes_limit;
        self.run_form(env, workloads::primes_program(limit), None, |k| {
            workloads::primes_native(k, limit)
        })?;
        Ok(limit)
    }

    fn cpu_sort(&self, env: &mut PassmarkEnv<'_>) -> Result<u64, Errno> {
        let len = self.sizes.sort_len;
        self.run_form(
            env,
            workloads::sort_program(len),
            Some(workloads::sort_input(len, SEED)),
            |k| {
                workloads::sort_native(k, len, SEED);
                0
            },
        )?;
        Ok(len as u64)
    }

    fn cpu_crypt(&self, env: &mut PassmarkEnv<'_>) -> Result<u64, Errno> {
        let len = self.sizes.crypt_len;
        self.run_form(
            env,
            workloads::crypt_program(len, 7),
            Some(workloads::crypt_input(len, SEED)),
            |k| {
                let mut data = workloads::crypt_input(len, SEED);
                workloads::crypt_native(k, &mut data, 7)
            },
        )?;
        Ok(len as u64)
    }

    fn cpu_compress(&self, env: &mut PassmarkEnv<'_>) -> Result<u64, Errno> {
        let len = self.sizes.compress_len;
        self.run_form(
            env,
            workloads::compress_program(len),
            Some(workloads::compress_input(len, SEED)),
            |k| {
                let data = workloads::compress_input(len, SEED);
                workloads::compress_native(k, &data)
            },
        )?;
        Ok(len as u64)
    }

    // ------------------------------------------------------------------
    // Storage group: flash-bound, language-independent.
    // ------------------------------------------------------------------

    fn storage(
        &self,
        env: &mut PassmarkEnv<'_>,
        write: bool,
    ) -> Result<u64, Errno> {
        const CHUNK: usize = 64 * 1024;
        const CHUNKS: u64 = 24;
        let tid = env.tid;
        let k = &mut env.sys.kernel;
        let path = "/tmp/passmark.dat";
        let fd = k.sys_open(
            tid,
            path,
            OpenFlags::RDWR | OpenFlags::CREAT | OpenFlags::DIRECT,
        )?;
        let data = vec![0xA5u8; CHUNK];
        let mut moved = 0u64;
        for _ in 0..CHUNKS {
            if write {
                moved += k.sys_write_direct(tid, fd, &data)? as u64;
            } else {
                // Reads need content: the write pass ran first in the
                // suite; reading a sparse region still charges I/O.
                k.sys_read_direct(tid, fd, CHUNK)?;
                moved += CHUNK as u64;
            }
            if self.form == AppForm::AndroidDalvik {
                // The Java I/O shim: JNI crossing + heap churn per chunk.
                k.charge_cpu(14_000);
            }
        }
        k.sys_close(tid, fd)?;
        Ok(moved / 1024) // KiB moved
    }

    // ------------------------------------------------------------------
    // Memory group: interpreted vs native again.
    // ------------------------------------------------------------------

    fn memory(
        &self,
        env: &mut PassmarkEnv<'_>,
        write: bool,
    ) -> Result<u64, Errno> {
        let len = self.sizes.mem_len;
        if write {
            self.run_form(
                env,
                workloads::mem_write_program(len),
                None,
                |k| {
                    workloads::mem_write_native(k, len);
                    0
                },
            )?;
        } else {
            let data: Vec<i64> = (0..len as i64).collect();
            self.run_form(
                env,
                workloads::mem_read_program(len),
                Some(data.clone()),
                move |k| workloads::mem_read_native(k, &data),
            )?;
        }
        Ok(len as u64)
    }

    // ------------------------------------------------------------------
    // 2D group: CPU-bound drawing-library work.
    // ------------------------------------------------------------------

    fn gfx2d(
        &self,
        env: &mut PassmarkEnv<'_>,
        test: Test,
    ) -> Result<u64, Errno> {
        let overhead = lib2d_overhead_ns(self.form, test);
        let mut lcg = Lcg(SEED);
        let (buf, aux) = with_gfx(&mut env.sys.kernel, |_, g| {
            let buf = g.gralloc.alloc(640, 480, PixelFormat::Rgba8888)?;
            let aux = g.gralloc.alloc(96, 96, PixelFormat::Rgba8888)?;
            Ok::<_, Errno>((buf, aux))
        })?;
        let ops: u64 = match test {
            Test::Gfx2dSolidVectors => {
                for i in 0..400u64 {
                    let (x0, y0, x1, y1) = (
                        (lcg.next_value() % 640) as i32,
                        (lcg.next_value() % 480) as i32,
                        (lcg.next_value() % 640) as i32,
                        (lcg.next_value() % 480) as i32,
                    );
                    with_gfx(&mut env.sys.kernel, |k, g| {
                        k.charge_cpu(overhead);
                        if i % 4 == 0 {
                            draw2d::fill_rect(
                                k,
                                &mut g.gralloc,
                                buf,
                                (x0 as u32 % 600, y0 as u32 % 440),
                                (32, 32),
                                0xFF00FF00,
                            )
                        } else {
                            draw2d::draw_line(
                                k,
                                &mut g.gralloc,
                                buf,
                                (x0, y0),
                                (x1, y1),
                                0xFF0000FF,
                            )
                        }
                    })?;
                }
                400
            }
            Test::Gfx2dTransparentVectors => {
                for _ in 0..300u64 {
                    let (x, y) = (
                        (lcg.next_value() % 600) as u32,
                        (lcg.next_value() % 440) as u32,
                    );
                    with_gfx(&mut env.sys.kernel, |k, g| {
                        k.charge_cpu(overhead);
                        draw2d::blend_rect(
                            k,
                            &mut g.gralloc,
                            buf,
                            (x, y),
                            (40, 40),
                            0x80FF0080,
                            128,
                        )
                    })?;
                }
                300
            }
            Test::Gfx2dComplexVectors => {
                for _ in 0..150u64 {
                    let mut p = |m: u64| (lcg.next_value() % m) as f32;
                    let (p0, p1, p2) =
                        ((p(640), p(480)), (p(640), p(480)), (p(640), p(480)));
                    with_gfx(&mut env.sys.kernel, |k, g| {
                        k.charge_cpu(overhead);
                        draw2d::draw_bezier(
                            k,
                            &mut g.gralloc,
                            buf,
                            p0,
                            p1,
                            p2,
                            0xFFFFFFFF,
                        )
                    })?;
                }
                150
            }
            Test::Gfx2dImageRendering => {
                // Each image render uploads a texture and synchronises —
                // the path where the Cider fence bug bites (§6.3).
                self.setup_gl_context(env)?;
                for _ in 0..60u64 {
                    with_gfx(&mut env.sys.kernel, |k, g| {
                        k.charge_cpu(overhead);
                        draw2d::blit_image(
                            k,
                            &mut g.gralloc,
                            aux,
                            buf,
                            (
                                (lcg.next_value() % 500) as u32,
                                (lcg.next_value() % 380) as u32,
                            ),
                        )
                    })?;
                    self.gl_call(env, "glTexImage2D", &[96 * 96 * 4])?;
                    let fence = self.gl_call(env, "glFenceSync", &[])?;
                    self.gl_call(env, "glClientWaitSync", &[fence])?;
                }
                60
            }
            Test::Gfx2dImageFilters => {
                for _ in 0..25u64 {
                    with_gfx(&mut env.sys.kernel, |k, g| {
                        k.charge_cpu(overhead);
                        draw2d::box_blur(k, &mut g.gralloc, aux)
                    })?;
                }
                25
            }
            _ => unreachable!("not a 2D test"),
        };
        with_gfx(&mut env.sys.kernel, |_, g| {
            g.gralloc.release(buf)?;
            g.gralloc.release(aux)
        })?;
        Ok(ops)
    }

    // ------------------------------------------------------------------
    // 3D group: GL-dispatch + GPU bound.
    // ------------------------------------------------------------------

    fn gl_call(
        &self,
        env: &mut PassmarkEnv<'_>,
        symbol: &str,
        args: &[i64],
    ) -> Result<i64, Errno> {
        match env.gl_path {
            GlPath::DirectHost => {
                let f =
                    env.sys.host.find_symbol(symbol).ok_or(Errno::ENOSYS)?.1;
                f(&mut env.sys.kernel, env.tid, args)
            }
            GlPath::Diplomatic => env.sys.diplomat_call(
                env.tid,
                "OpenGLES.framework/OpenGLES",
                symbol,
                args,
            ),
        }
    }

    fn setup_gl_context(
        &self,
        env: &mut PassmarkEnv<'_>,
    ) -> Result<(), Errno> {
        // The app sets its GL context up once; repeated test runs reuse
        // it (and its window surface).
        let egl = &gfx(&env.sys.kernel).egl;
        if let Some(ctx) = egl.current() {
            if egl.context(ctx)?.surface.is_some() {
                return Ok(());
            }
        }
        match env.gl_path {
            GlPath::DirectHost => {
                let ctx = self.host_call(env, "eglCreateContext", &[])?;
                self.host_call(
                    env,
                    "eglCreateWindowSurface",
                    &[ctx, 1280, 800],
                )?;
                self.host_call(env, "eglMakeCurrent", &[ctx])?;
            }
            GlPath::Diplomatic => {
                let lib = "OpenGLES.framework/OpenGLES";
                let ctx = env.sys.diplomat_call(
                    env.tid,
                    lib,
                    "EAGLContext_initWithAPI",
                    &[],
                )?;
                env.sys.diplomat_call(
                    env.tid,
                    lib,
                    "EAGLContext_setCurrentContext",
                    &[ctx],
                )?;
                env.sys.diplomat_call(
                    env.tid,
                    lib,
                    "EAGLContext_renderbufferStorage",
                    &[ctx, 1280, 800],
                )?;
            }
        }
        Ok(())
    }

    fn host_call(
        &self,
        env: &mut PassmarkEnv<'_>,
        symbol: &str,
        args: &[i64],
    ) -> Result<i64, Errno> {
        let f = env.sys.host.find_symbol(symbol).ok_or(Errno::ENOSYS)?.1;
        f(&mut env.sys.kernel, env.tid, args)
    }

    fn present(&self, env: &mut PassmarkEnv<'_>) -> Result<(), Errno> {
        match env.gl_path {
            GlPath::DirectHost => {
                self.host_call(env, "eglSwapBuffers", &[])?;
            }
            GlPath::Diplomatic => {
                env.sys.diplomat_call(
                    env.tid,
                    "OpenGLES.framework/OpenGLES",
                    "EAGLContext_presentRenderbuffer",
                    &[],
                )?;
            }
        }
        Ok(())
    }

    fn gfx3d(
        &self,
        env: &mut PassmarkEnv<'_>,
        test: Test,
    ) -> Result<u64, Errno> {
        let (calls, draws, verts) = scene_params(test);
        let state_calls = calls - draws;
        self.setup_gl_context(env)?;
        for _ in 0..SCENE_FRAMES {
            self.gl_call(env, "glClear", &[0x4100])?;
            // Interleave state changes and draws the way a scene walks
            // its objects.
            let state_per_draw = state_calls / draws;
            for _ in 0..draws {
                for i in 0..state_per_draw {
                    let sym = match i % 4 {
                        0 => "glUniform4f",
                        1 => "glUniformMatrix4fv",
                        2 => "glBindBuffer",
                        _ => "glVertexAttribPointer",
                    };
                    self.gl_call(env, sym, &[0, 0, 0])?;
                }
                self.gl_call(env, "glDrawArrays", &[4, 0, verts as i64])?;
            }
            self.present(env)?;
        }
        Ok(SCENE_FRAMES)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cider_abi::persona::Persona;
    use cider_core::persona::{attach_persona_ext, persona_ext_mut};
    use cider_gfx::stack::{install_gfx, GfxConfig};
    use cider_kernel::profile::DeviceProfile;

    fn quick(form: AppForm) -> Passmark {
        Passmark {
            form,
            sizes: Sizes::quick(),
        }
    }

    fn cider_env() -> (CiderSystem, Tid) {
        let mut sys = CiderSystem::new(DeviceProfile::nexus7());
        install_gfx(&mut sys, GfxConfig::default());
        let (_, tid) = sys.spawn_process();
        let xnu = sys.xnu_personality;
        let linux = sys.kernel.linux_personality();
        attach_persona_ext(&mut sys.kernel, tid, Persona::Foreign, xnu)
            .unwrap();
        persona_ext_mut(&mut sys.kernel, tid)
            .unwrap()
            .install(Persona::Domestic, linux);
        (sys, tid)
    }

    #[test]
    fn cpu_group_native_beats_interpreted() {
        let (mut sys, tid) = cider_env();
        for test in [
            Test::CpuInteger,
            Test::CpuFloat,
            Test::CpuPrimes,
            Test::CpuEncryption,
        ] {
            let android = {
                let mut env = PassmarkEnv {
                    sys: &mut sys,
                    tid,
                    gl_path: GlPath::Diplomatic,
                };
                quick(AppForm::AndroidDalvik).run(&mut env, test).unwrap()
            };
            let ios = {
                let mut env = PassmarkEnv {
                    sys: &mut sys,
                    tid,
                    gl_path: GlPath::Diplomatic,
                };
                quick(AppForm::IosNative).run(&mut env, test).unwrap()
            };
            assert!(
                ios.ops_per_sec() > android.ops_per_sec() * 1.4,
                "{}: ios {:.0} vs android {:.0}",
                test.name(),
                ios.ops_per_sec(),
                android.ops_per_sec()
            );
        }
    }

    #[test]
    fn storage_write_slower_than_read_on_nexus7() {
        let (mut sys, tid) = cider_env();
        let mut env = PassmarkEnv {
            sys: &mut sys,
            tid,
            gl_path: GlPath::Diplomatic,
        };
        let pm = quick(AppForm::IosNative);
        let w = pm.run(&mut env, Test::StorageWrite).unwrap();
        let r = pm.run(&mut env, Test::StorageRead).unwrap();
        assert!(r.ops_per_sec() > w.ops_per_sec() * 2.0);
    }

    #[test]
    fn complex_vectors_favour_ios_but_solid_favour_android() {
        let (mut sys, tid) = cider_env();
        let run = |sys: &mut CiderSystem, form, test| {
            let mut env = PassmarkEnv {
                sys,
                tid,
                gl_path: GlPath::Diplomatic,
            };
            quick(form).run(&mut env, test).unwrap().ops_per_sec()
        };
        let a_solid =
            run(&mut sys, AppForm::AndroidDalvik, Test::Gfx2dSolidVectors);
        let i_solid =
            run(&mut sys, AppForm::IosNative, Test::Gfx2dSolidVectors);
        assert!(a_solid > i_solid, "android wins solid vectors");
        let a_cplx =
            run(&mut sys, AppForm::AndroidDalvik, Test::Gfx2dComplexVectors);
        let i_cplx =
            run(&mut sys, AppForm::IosNative, Test::Gfx2dComplexVectors);
        assert!(i_cplx > a_cplx, "ios wins complex vectors");
    }

    #[test]
    fn fence_bug_hurts_diplomatic_image_rendering() {
        let (mut sys, tid) = cider_env();
        let pm = quick(AppForm::IosNative);
        let diplomatic = {
            let mut env = PassmarkEnv {
                sys: &mut sys,
                tid,
                gl_path: GlPath::Diplomatic,
            };
            pm.run(&mut env, Test::Gfx2dImageRendering).unwrap()
        };
        assert!(gfx(&sys.kernel).gpu.bug_stalls >= 60);
        let direct = {
            let mut env = PassmarkEnv {
                sys: &mut sys,
                tid,
                gl_path: GlPath::DirectHost,
            };
            pm.run(&mut env, Test::Gfx2dImageRendering).unwrap()
        };
        assert!(direct.ops_per_sec() > diplomatic.ops_per_sec() * 1.5);
    }

    #[test]
    fn diplomatic_3d_is_20_to_40_percent_slower() {
        let (mut sys, tid) = cider_env();
        let pm = quick(AppForm::IosNative);
        for test in [Test::Gfx3dSimple, Test::Gfx3dComplex] {
            let direct = {
                let mut env = PassmarkEnv {
                    sys: &mut sys,
                    tid,
                    gl_path: GlPath::DirectHost,
                };
                pm.run(&mut env, test).unwrap()
            };
            let diplomatic = {
                let mut env = PassmarkEnv {
                    sys: &mut sys,
                    tid,
                    gl_path: GlPath::Diplomatic,
                };
                pm.run(&mut env, test).unwrap()
            };
            let ratio = diplomatic.ops_per_sec() / direct.ops_per_sec();
            assert!(
                (0.55..0.90).contains(&ratio),
                "{}: diplomatic/direct = {ratio:.2}",
                test.name()
            );
        }
    }
}
