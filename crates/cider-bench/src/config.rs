//! The four measurement configurations of paper §6 and the test beds
//! that realise them.

use cider_abi::errno::Errno;
use cider_abi::ids::{Pid, Tid};
use cider_core::system::{CiderSystem, SystemKind};
use cider_gfx::stack::{install_gfx, GfxConfig, GfxStack};
use cider_kernel::profile::{DeviceProfile, Toolchain};
use cider_loader::framework_set::FrameworkSet;
use cider_loader::{ElfBuilder, MachOBuilder};
use std::sync::Arc;

/// The paper's system configurations (§6): "(1) Linux binaries and
/// Android apps running on unmodified (vanilla) Android, (2) Linux
/// binaries and Android apps running on Cider, and (3) iOS binaries and
/// apps running on Cider", plus the jailbroken iPad mini.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SystemConfig {
    /// Linux binary on stock Android (the baseline).
    VanillaAndroid,
    /// Linux binary on the Cider kernel.
    CiderAndroid,
    /// iOS binary on the Cider kernel.
    CiderIos,
    /// iOS binary on the iPad mini.
    IpadMini,
}

impl SystemConfig {
    /// All configurations, in the paper's column order.
    pub const ALL: [SystemConfig; 4] = [
        SystemConfig::VanillaAndroid,
        SystemConfig::CiderAndroid,
        SystemConfig::CiderIos,
        SystemConfig::IpadMini,
    ];

    /// Column label.
    pub fn label(self) -> &'static str {
        match self {
            SystemConfig::VanillaAndroid => "Vanilla Android",
            SystemConfig::CiderAndroid => "Cider (Android)",
            SystemConfig::CiderIos => "Cider (iOS)",
            SystemConfig::IpadMini => "iPad mini (iOS)",
        }
    }

    /// Short filesystem-safe slug for per-configuration dump files.
    pub fn slug(self) -> &'static str {
        match self {
            SystemConfig::VanillaAndroid => "vanilla_android",
            SystemConfig::CiderAndroid => "cider_android",
            SystemConfig::CiderIos => "cider_ios",
            SystemConfig::IpadMini => "ipad_mini",
        }
    }

    /// Whether the measured binary is an iOS (Mach-O) binary.
    pub fn runs_ios_binary(self) -> bool {
        matches!(self, SystemConfig::CiderIos | SystemConfig::IpadMini)
    }

    /// Which compiler produced the measured binary (§6: GCC 4.4.1 for
    /// Linux binaries, Xcode 4.2.1 for iOS binaries).
    pub fn toolchain(self) -> Toolchain {
        if self.runs_ios_binary() {
            Toolchain::Xcode
        } else {
            Toolchain::Gcc
        }
    }

    fn profile(self) -> DeviceProfile {
        match self {
            SystemConfig::IpadMini => DeviceProfile::ipad_mini(),
            _ => DeviceProfile::nexus7(),
        }
    }

    fn kind(self) -> SystemKind {
        match self {
            SystemConfig::VanillaAndroid => SystemKind::VanillaAndroid,
            SystemConfig::CiderAndroid | SystemConfig::CiderIos => {
                SystemKind::Cider
            }
            SystemConfig::IpadMini => SystemKind::NativeIos,
        }
    }
}

/// A booted system with graphics and the benchmark binaries installed.
pub struct TestBed {
    /// The system under test; its kernel holds the graphics stack.
    pub sys: CiderSystem,
    /// The configuration this bed realises.
    pub config: SystemConfig,
}

/// Paths of the installed benchmark binaries.
pub mod paths {
    /// The Linux lmbench driver binary.
    pub const LMBENCH_ELF: &str = "/system/bin/lmbench";
    /// The iOS lmbench driver binary.
    pub const LMBENCH_MACHO: &str = "/Applications/lmbench.app/lmbench";
    /// The Linux hello-world binary.
    pub const HELLO_ELF: &str = "/system/bin/hello";
    /// The iOS hello-world binary.
    pub const HELLO_MACHO: &str = "/Applications/hello.app/hello";
    /// The Android shell.
    pub const SH_ELF: &str = "/system/bin/sh";
    /// The iOS shell (present on the iPad).
    pub const SH_MACHO: &str = "/bin/sh";
}

fn macho_with_frameworks(entry: &str) -> Vec<u8> {
    let mut b = MachOBuilder::executable(entry);
    for dep in FrameworkSet::app_default_deps() {
        b = b.depends_on(&dep);
    }
    b.build().to_bytes()
}

/// Step-wise construction of a [`TestBed`]: start from
/// [`TestBed::builder`], optionally turn on tracing, and
/// [`TestBedBuilder::build`]. Run-time policies such as warm start and
/// IPC v2 are set on the built bed:
///
/// ```
/// use cider_bench::config::{SystemConfig, TestBed};
///
/// let mut bed = TestBed::builder(SystemConfig::CiderIos).traced().build();
/// bed.sys.kernel.warm.set_enabled(true);
/// bed.sys.enable_ipc_v2();
/// assert!(bed.trace_snapshot().is_some());
/// ```
#[derive(Debug)]
pub struct TestBedBuilder {
    config: SystemConfig,
    traced: bool,
}

impl TestBedBuilder {
    /// Starts a builder for one measurement configuration.
    pub fn new(config: SystemConfig) -> TestBedBuilder {
        TestBedBuilder {
            config,
            traced: false,
        }
    }

    /// Boots with the trace subsystem enabled (event ring plus metrics
    /// registry). Tracing reads the virtual clock but never charges it,
    /// so every measurement is identical to an untraced bed.
    #[must_use]
    pub fn traced(mut self) -> TestBedBuilder {
        self.traced = true;
        self
    }

    /// Boots the bed: the right kernel flavour, the graphics stack
    /// (with the fence bug only on Cider), the benchmark binaries, the
    /// registered program behaviours, and tracing if enabled.
    pub fn build(self) -> TestBed {
        let mut bed = boot_bed(self.config);
        if self.traced {
            bed.enable_tracing();
        }
        bed
    }
}

impl TestBed {
    /// Starts a [`TestBedBuilder`] for one configuration.
    pub fn builder(config: SystemConfig) -> TestBedBuilder {
        TestBedBuilder::new(config)
    }

    /// Enables tracing on this bed (default ring capacity).
    pub fn enable_tracing(&mut self) {
        self.sys.kernel.trace = cider_trace::TraceSink::enabled_default();
    }

    /// Arms a fault plan on this bed. Installed after boot, so the bed
    /// itself always comes up clean; only workload activity sees
    /// injected faults.
    pub fn enable_faults(&mut self, plan: cider_fault::FaultPlan) {
        self.sys.kernel.faults = cider_fault::FaultLayer::with_plan(plan);
    }

    /// Snapshot of collected events and metrics; `None` when tracing
    /// is disabled.
    pub fn trace_snapshot(&self) -> Option<cider_trace::TraceSnapshot> {
        self.sys.kernel.trace.snapshot()
    }

    /// The bed's graphics stack.
    pub fn gfx(&self) -> &GfxStack {
        cider_gfx::stack::gfx(&self.sys.kernel)
    }

    /// A deep copy of this bed: a second device in exactly this state,
    /// which then runs independently (see [`CiderSystem::fork_device`]).
    /// The graphics stack is a kernel extension, so it is copied with
    /// the kernel.
    pub fn fork_device(&self) -> TestBed {
        TestBed {
            sys: self.sys.fork_device(),
            config: self.config,
        }
    }
}

/// The shared boot path behind [`TestBedBuilder::build`].
#[allow(clippy::too_many_lines)]
fn boot_bed(config: SystemConfig) -> TestBed {
    let mut sys = CiderSystem::new_kind(config.profile(), config.kind());
    let fence_bug = config.kind() == SystemKind::Cider;
    install_gfx(&mut sys, GfxConfig { fence_bug });

    // Program behaviours shared by every bed.
    sys.kernel.register_program(
        "hello_world",
        Arc::new(|k, tid| {
            let _ = k.sys_write(
                tid,
                cider_abi::ids::Fd::STDOUT,
                b"hello, world\n",
            );
            0
        }),
    );
    sys.kernel.register_program("lmbench", Arc::new(|_, _| 0));
    sys.kernel.register_program(
        "sh",
        Arc::new(|k, tid| {
            // Shell start-up: environment setup, rc parsing, PATH
            // walking — the bulk of a real `sh -c` invocation.
            k.charge_cpu(1_200_000);
            let argv = k.process_of(tid).map(|p| p.program.argv.clone());
            let Ok(argv) = argv else { return 127 };
            let Some(target) = argv.get(1).cloned() else {
                return 0;
            };
            let Ok((child_pid, child_tid)) = k.sys_fork(tid) else {
                return 126;
            };
            if cider_core::exec::sys_exec_fixup(
                k,
                child_tid,
                &target,
                &[&target],
            )
            .is_err()
            {
                let _ = k.sys_exit(child_tid, 127);
                let _ = k.sys_waitpid(tid, child_pid);
                return 127;
            }
            let _ = k.run_entry(child_tid);
            let _ = k.sys_waitpid(tid, child_pid);
            0
        }),
    );

    // The benchmark binaries.
    if config.kind() != SystemKind::NativeIos {
        let lm = ElfBuilder::executable("lmbench")
            .needs("libc.so")
            .needs("libm.so")
            .build();
        sys.kernel
            .vfs
            .write_file(paths::LMBENCH_ELF, lm.to_bytes())
            .expect("fresh fs");
        let hello = ElfBuilder::executable("hello_world")
            .needs("libc.so")
            .build();
        sys.kernel
            .vfs
            .write_file(paths::HELLO_ELF, hello.to_bytes())
            .expect("fresh fs");
    }
    if config.kind() != SystemKind::VanillaAndroid {
        sys.kernel
            .vfs
            .write_file_overlay(
                paths::LMBENCH_MACHO,
                macho_with_frameworks("lmbench"),
            )
            .expect("fresh fs");
        sys.kernel
            .vfs
            .write_file_overlay(
                paths::HELLO_MACHO,
                macho_with_frameworks("hello_world"),
            )
            .expect("fresh fs");
    }
    if config.kind() == SystemKind::NativeIos {
        // The iPad's own shell for the fork+sh tests.
        let mut b = MachOBuilder::executable("sh");
        for dep in ["/usr/lib/libSystem.B.dylib", "/usr/lib/libobjc.A.dylib"] {
            b = b.depends_on(dep);
        }
        sys.kernel
            .vfs
            .write_file_overlay(paths::SH_MACHO, b.build().to_bytes())
            .expect("fresh fs");
    }

    TestBed { sys, config }
}

impl TestBed {
    /// Spawns the measured benchmark process: the lmbench binary of the
    /// configuration's ecosystem, exec'd for real (so an iOS process
    /// carries its 115 dylibs and handlers into every fork).
    ///
    /// # Errors
    ///
    /// Exec errors.
    pub fn spawn_measured(&mut self) -> Result<(Pid, Tid), Errno> {
        let (pid, tid) = self.sys.spawn_process();
        let path = if self.config.runs_ios_binary() {
            paths::LMBENCH_MACHO
        } else {
            paths::LMBENCH_ELF
        };
        self.sys.exec(tid, path, &["lmbench"])?;
        Ok((pid, tid))
    }

    /// Path of the hello-world binary of one ecosystem on this bed.
    pub fn hello_path(&self, ios: bool) -> &'static str {
        if ios {
            paths::HELLO_MACHO
        } else {
            paths::HELLO_ELF
        }
    }

    /// Path of this bed's shell.
    pub fn sh_path(&self) -> &'static str {
        if self.config == SystemConfig::IpadMini {
            paths::SH_MACHO
        } else {
            paths::SH_ELF
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cider_core::persona::persona_of;

    #[test]
    fn all_four_beds_boot() {
        for config in SystemConfig::ALL {
            let mut bed = TestBed::builder(config).build();
            let (_, tid) = bed.spawn_measured().unwrap();
            let persona = persona_of(&bed.sys.kernel, tid).unwrap();
            assert_eq!(
                persona.is_foreign(),
                config.runs_ios_binary(),
                "{config:?}"
            );
        }
    }

    #[test]
    fn persona_checks_only_on_cider() {
        for config in SystemConfig::ALL {
            let bed = TestBed::builder(config).build();
            let expected = matches!(
                config,
                SystemConfig::CiderAndroid | SystemConfig::CiderIos
            );
            assert_eq!(bed.sys.kernel.cider_enabled(), expected, "{config:?}");
        }
    }

    #[test]
    fn ios_measured_process_carries_frameworks() {
        let mut bed = TestBed::builder(SystemConfig::CiderIos).build();
        let (pid, _) = bed.spawn_measured().unwrap();
        let p = bed.sys.kernel.process(pid).unwrap();
        assert_eq!(p.program.dylib_count, 115);
        assert_eq!(p.callbacks.per_table(), 115);
    }

    #[test]
    fn ipad_uses_shared_cache() {
        let mut bed = TestBed::builder(SystemConfig::IpadMini).build();
        let (pid, _) = bed.spawn_measured().unwrap();
        let p = bed.sys.kernel.process(pid).unwrap();
        // The shared-cache mapping keeps per-process PTEs small.
        assert!(p.mm.total_ptes() < 2048);
    }
}
