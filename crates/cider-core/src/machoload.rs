//! The kernel-level Mach-O loader and the Mach task set-up after fork.
//!
//! "Cider provides a Mach-O binary loader built into the Linux kernel to
//! handle the binary format used by iOS apps. When a Mach-O binary is
//! loaded, the kernel tags the current thread with an iOS persona"
//! (paper §4.1). Loading also initialises the process's Mach task state
//! and invokes the dyld simulation, which maps the 115-dylib framework
//! closure.

use cider_abi::errno::Errno;
use cider_abi::ids::{Pid, Tid};
use cider_abi::persona::Persona;
use cider_kernel::binfmt::{BinaryLoader, ExecImage, LoadedProgram};
use cider_kernel::kernel::Kernel;
use cider_kernel::mm::{MappingKind, Prot};
use cider_kernel::process::PersonalityId;
use cider_loader::dyld::run_dyld;
use cider_loader::macho::{
    FileType, LoadCommand, MachO, MachORef, CPU_TYPE_ARM,
};

use crate::persona::attach_persona_ext;
use crate::state::with_state;

/// The Mach-O binfmt loader registered with the domestic kernel.
#[derive(Debug)]
pub struct MachOLoader {
    xnu_personality: PersonalityId,
}

impl MachOLoader {
    /// Creates the loader bound to the XNU personality id.
    pub fn new(xnu_personality: PersonalityId) -> MachOLoader {
        MachOLoader { xnu_personality }
    }
}

impl BinaryLoader for MachOLoader {
    fn name(&self) -> &'static str {
        "macho"
    }

    fn can_load(&self, image: &[u8]) -> bool {
        MachO::sniff(image)
    }

    fn load(
        &self,
        k: &mut Kernel,
        tid: Tid,
        image: &ExecImage,
    ) -> Result<LoadedProgram, Errno> {
        let macho = MachORef::parse(&image.bytes)?;
        if macho.cpu_type != CPU_TYPE_ARM {
            return Err(Errno::ENOEXEC);
        }
        if macho.filetype != FileType::Execute {
            return Err(Errno::ENOEXEC);
        }
        if macho.is_encrypted() {
            // App Store binaries must be decrypted on an Apple device
            // first (§6.1); the kernel cannot map FairPlay pages.
            return Err(Errno::EACCES);
        }

        let pid = k.thread(tid)?.pid;
        let mut mapped = 0u64;
        for cmd in macho.commands() {
            if let LoadCommand::Segment {
                name,
                vmsize,
                writable,
                executable,
            } = cmd
            {
                let prot = match (writable, executable) {
                    (true, _) => Prot::RW,
                    (false, true) => Prot::RX,
                    (false, false) => Prot::R,
                };
                k.process_mut(pid)?.mm.map(
                    vmsize,
                    prot,
                    MappingKind::Binary,
                    format!("{} {}", image.path, name),
                )?;
                mapped += vmsize;
            }
        }

        // Tag the thread with the iOS persona before dyld runs: dyld is
        // foreign user-space code.
        attach_persona_ext(k, tid, Persona::Foreign, self.xnu_personality)?;

        // Mach task initialisation. Port exhaustion at exec time means
        // the task cannot be built.
        with_state(k, |k2, st| {
            st.task_space(pid);
            st.task_self_port(k2, tid, pid)
        })
        .map_err(|_| Errno::ENOMEM)?;

        // dyld: map the dependency closure and register image callbacks.
        let deps: Vec<&str> = macho.dylib_deps().collect();
        let stats = run_dyld(k, tid, &deps)?;

        if k.trace.is_enabled() {
            let ctx = k.trace_ctx(tid);
            k.trace.record(
                ctx,
                cider_trace::EventKind::DyldMap {
                    libraries: stats.images as u64,
                },
            );
            let handlers = k.process(pid)?.callbacks.total() as u64;
            k.trace.record(
                ctx,
                cider_trace::EventKind::DyldHandlers { handlers },
            );
            k.trace.add("dyld/images", stats.images as u64);
            k.trace.add("dyld/mapped_bytes", stats.mapped_bytes);
            k.trace.add("dyld/fs_opens", stats.fs_opens as u64);
            k.trace.add("dyld/handlers", handlers);
        }

        Ok(LoadedProgram {
            entry_symbol: macho.entry_symbol().map(str::to_string),
            mapped_bytes: mapped + stats.mapped_bytes,
            dylib_count: stats.images,
            format: "macho",
        })
    }
}

/// Mach task initialisation for every forked process, run as the
/// kernel's [`Kernel::post_fork`] — the "extra work in Mach IPC
/// initialization" the paper notes in the fork+exit discussion (§6.2).
pub fn mach_task_post_fork(k: &mut Kernel, child: Pid) {
    // A fresh IPC space for the child; the port table itself is
    // populated lazily.
    k.charge_cpu(900);
    with_state(k, |_, st| {
        st.task_space(child);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persona::persona_of;
    use crate::state::CiderState;
    use crate::xnu_abi::XnuPersonality;
    use cider_kernel::profile::DeviceProfile;
    use cider_loader::framework_set::{FrameworkSet, FRAMEWORK_COUNT};
    use cider_loader::MachOBuilder;
    use std::sync::Arc;

    fn cider_kernel() -> (Kernel, PersonalityId) {
        let mut k = Kernel::boot(DeviceProfile::nexus7());
        k.extensions.insert(CiderState::new());
        let xnu = k.register_personality(Arc::new(XnuPersonality::new()));
        k.enable_cider();
        k.register_binfmt(Arc::new(MachOLoader::new(xnu)));
        k.post_fork = mach_task_post_fork;
        FrameworkSet::standard().install(&mut k.vfs);
        (k, xnu)
    }

    fn ios_app_bytes() -> Vec<u8> {
        let mut b = MachOBuilder::executable("app_main");
        for dep in FrameworkSet::app_default_deps() {
            b = b.depends_on(&dep);
        }
        b.build().to_bytes()
    }

    #[test]
    fn loading_macho_tags_persona_and_runs_dyld() {
        let (mut k, xnu) = cider_kernel();
        let (pid, tid) = k.spawn_process();
        k.vfs
            .write_file_overlay("/Applications/app.app/app", ios_app_bytes())
            .unwrap();
        k.sys_exec(tid, "/Applications/app.app/app", &["app"])
            .unwrap();
        assert_eq!(persona_of(&k, tid).unwrap(), Persona::Foreign);
        assert_eq!(k.thread(tid).unwrap().personality, xnu);
        let p = k.process(pid).unwrap();
        assert_eq!(p.program.format, "macho");
        assert_eq!(p.program.dylib_count, FRAMEWORK_COUNT as u32);
        assert!(p.mm.total_bytes() > 88 * 1024 * 1024);
        assert_eq!(p.callbacks.per_table(), FRAMEWORK_COUNT);
        // Mach task state exists.
        with_state(&mut k, |_, st| {
            assert!(st.has_task_space(pid));
        });
    }

    #[test]
    fn encrypted_binary_rejected() {
        let (mut k, _) = cider_kernel();
        let (_, tid) = k.spawn_process();
        let enc = MachOBuilder::executable("m").encrypted().build();
        k.vfs
            .write_file_overlay("/Applications/enc.app/enc", enc.to_bytes())
            .unwrap();
        assert_eq!(
            k.sys_exec(tid, "/Applications/enc.app/enc", &[]),
            Err(Errno::EACCES)
        );
    }

    #[test]
    fn wrong_cpu_rejected() {
        let (mut k, _) = cider_kernel();
        let (_, tid) = k.spawn_process();
        let x86 = MachOBuilder::executable("m").cpu_type(7).build();
        k.vfs
            .write_file_overlay("/Applications/x.app/x", x86.to_bytes())
            .unwrap();
        assert_eq!(
            k.sys_exec(tid, "/Applications/x.app/x", &[]),
            Err(Errno::ENOEXEC)
        );
    }

    #[test]
    fn fork_creates_child_task_space() {
        let (mut k, _) = cider_kernel();
        let (_, tid) = k.spawn_process();
        let (child_pid, _) = k.sys_fork(tid).unwrap();
        with_state(&mut k, |_, st| {
            assert!(st.has_task_space(child_pid));
        });
    }
}
