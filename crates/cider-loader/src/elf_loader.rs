//! The domestic ELF binfmt loader and its `ld.so` simulation.

use std::collections::{BTreeSet, VecDeque};

use cider_abi::errno::Errno;
use cider_abi::ids::Tid;
use cider_kernel::binfmt::{BinaryLoader, ExecImage, LoadedProgram};
use cider_kernel::kernel::Kernel;
use cider_kernel::mm::{MappingKind, Prot};
use cider_kernel::vfs::Vfs;

use crate::elf::{Elf, ElfBuilder, ElfType, EM_ARM};

/// Where Android keeps its shared objects.
pub const ANDROID_LIB_DIR: &str = "/system/lib";

/// The domestic ELF loader, registered with the kernel's binfmt list.
#[derive(Debug, Default)]
pub struct ElfLoader;

impl ElfLoader {
    /// Creates the loader.
    pub fn new() -> ElfLoader {
        ElfLoader
    }
}

impl BinaryLoader for ElfLoader {
    fn name(&self) -> &'static str {
        "elf"
    }

    fn can_load(&self, image: &[u8]) -> bool {
        Elf::sniff(image)
    }

    fn load(
        &self,
        k: &mut Kernel,
        tid: Tid,
        image: &ExecImage,
    ) -> Result<LoadedProgram, Errno> {
        let elf = Elf::parse(&image.bytes)?;
        if elf.machine != EM_ARM {
            return Err(Errno::ENOEXEC);
        }
        if elf.elf_type != ElfType::Executable {
            return Err(Errno::ENOEXEC);
        }
        let pid = k.thread(tid)?.pid;
        let mut mapped = 0u64;
        for (i, seg) in elf.segments.iter().enumerate() {
            let prot = match (seg.writable, seg.executable) {
                (true, _) => Prot::RW,
                (false, true) => Prot::RX,
                (false, false) => Prot::R,
            };
            k.process_mut(pid)?.mm.map(
                seg.memsz,
                prot,
                MappingKind::Binary,
                format!("{}#{}", image.path, i),
            )?;
            mapped += seg.memsz;
        }
        k.charge_cpu(k.profile.dylib_map_ns);

        // ld.so: resolve the DT_NEEDED closure from /system/lib.
        let mut seen = BTreeSet::new();
        let mut work: VecDeque<String> = elf.needed.clone().into();
        let mut dylib_count = 0u32;
        while let Some(soname) = work.pop_front() {
            if !seen.insert(soname.clone()) {
                continue;
            }
            let path = if soname.starts_with('/') {
                soname.clone()
            } else {
                format!("{ANDROID_LIB_DIR}/{soname}")
            };
            let resolved = k.vfs.resolve(&path)?;
            k.charge_cpu(
                k.profile.path_component_ns
                    * resolved.components_walked as u64,
            );
            k.charge_cpu(k.profile.vfs_op_ns * 2);
            let so = Elf::parse(k.vfs.file_bytes(resolved.ino)?)?;
            k.process_mut(pid)?.mm.map(
                so.total_memsz(),
                Prot::RX,
                MappingKind::Dylib,
                path,
            )?;
            k.charge_cpu(k.profile.dylib_map_ns);
            mapped += so.total_memsz();
            dylib_count += 1;
            for n in so.needed {
                work.push_back(n);
            }
        }

        Ok(LoadedProgram {
            entry_symbol: elf.entry_symbol.clone(),
            mapped_bytes: mapped,
            dylib_count,
            format: "elf",
        })
    }
}

/// Installs the standard Android shared-object set into the VFS (what a
/// stock Nexus 7 system image ships in `/system/lib`), plus `/system/bin`
/// binaries the benchmarks exec.
pub fn install_android_system(vfs: &mut Vfs) {
    vfs.mkdir_p(ANDROID_LIB_DIR).expect("fresh fs");
    vfs.mkdir_p("/system/bin").expect("fresh fs");

    let libs: &[(&str, u64, &[&str])] = &[
        ("libc.so", 700 * 1024, &[]),
        ("libm.so", 200 * 1024, &["libc.so"]),
        ("libdl.so", 16 * 1024, &["libc.so"]),
        ("liblog.so", 64 * 1024, &["libc.so"]),
        ("libstdc++.so", 32 * 1024, &["libc.so"]),
        ("libz.so", 128 * 1024, &["libc.so"]),
        ("libcutils.so", 128 * 1024, &["libc.so", "liblog.so"]),
        ("libutils.so", 256 * 1024, &["libcutils.so", "liblog.so"]),
        ("libbinder.so", 320 * 1024, &["libutils.so"]),
        ("libhardware.so", 64 * 1024, &["libcutils.so"]),
        ("libEGL.so", 256 * 1024, &["libcutils.so", "libhardware.so"]),
        ("libGLESv2.so", 192 * 1024, &["libEGL.so"]),
        ("libgralloc.so", 96 * 1024, &["libhardware.so"]),
        ("libui.so", 192 * 1024, &["libutils.so", "libEGL.so"]),
        ("libgui.so", 384 * 1024, &["libui.so", "libbinder.so"]),
        ("libandroid.so", 128 * 1024, &["libutils.so", "libgui.so"]),
        ("libandroid_runtime.so", 2 * 1024 * 1024, &["libandroid.so"]),
        ("libdvm.so", 3 * 1024 * 1024, &["libandroid_runtime.so"]),
        ("libskia.so", 4 * 1024 * 1024, &["libutils.so"]),
        ("libsqlite.so", 512 * 1024, &["libc.so"]),
        ("libssl.so", 384 * 1024, &["libcrypto.so"]),
        ("libcrypto.so", 1536 * 1024, &["libc.so"]),
        ("libEGLbridge.so", 64 * 1024, &["libEGL.so", "libgui.so"]),
    ];
    for (name, size, deps) in libs {
        let mut b = ElfBuilder::shared_object(*size);
        for d in *deps {
            b = b.needs(d);
        }
        vfs.write_file(
            &format!("{ANDROID_LIB_DIR}/{name}"),
            b.build().to_bytes(),
        )
        .expect("fresh fs");
    }

    // /system/bin/sh — the shell the fork+sh benchmark launches. Real
    // mksh pulls in a handful of libraries and runs visible startup work.
    let sh = ElfBuilder::executable("sh")
        .needs("libc.so")
        .needs("libm.so")
        .needs("liblog.so")
        .needs("libcutils.so")
        .build();
    vfs.write_file("/system/bin/sh", sh.to_bytes())
        .expect("fresh fs");
}

#[cfg(test)]
mod tests {
    use super::*;
    use cider_kernel::profile::DeviceProfile;

    fn setup() -> (Kernel, Tid) {
        let mut k = Kernel::boot(DeviceProfile::nexus7());
        install_android_system(&mut k.vfs);
        k.register_binfmt(std::sync::Arc::new(ElfLoader::new()));
        let (_, tid) = k.spawn_process();
        (k, tid)
    }

    #[test]
    fn exec_elf_binary_loads_closure() {
        let (mut k, tid) = setup();
        let bin = ElfBuilder::executable("hello_world")
            .needs("libc.so")
            .needs("libm.so")
            .build();
        k.vfs
            .write_file("/system/bin/hello", bin.to_bytes())
            .unwrap();
        k.sys_exec(tid, "/system/bin/hello", &["hello"]).unwrap();
        let pid = k.thread(tid).unwrap().pid;
        let p = k.process(pid).unwrap();
        assert_eq!(p.program.format, "elf");
        assert_eq!(p.program.entry_symbol.as_deref(), Some("hello_world"));
        // libc + libm mapped.
        assert_eq!(p.program.dylib_count, 2);
        assert!(p.mm.total_bytes() > 900 * 1024);
    }

    #[test]
    fn ld_so_loads_transitive_deps_once() {
        let (mut k, tid) = setup();
        let bin = ElfBuilder::executable("x")
            .needs("libgui.so") // pulls libui, libEGL, libbinder, ...
            .needs("libEGL.so") // already in the closure
            .build();
        k.vfs.write_file("/system/bin/x", bin.to_bytes()).unwrap();
        k.sys_exec(tid, "/system/bin/x", &[]).unwrap();
        let pid = k.thread(tid).unwrap().pid;
        let n = k.process(pid).unwrap().program.dylib_count;
        // libgui libui libEGL libbinder libutils libcutils libc liblog
        // libhardware
        assert_eq!(n, 9);
    }

    #[test]
    fn missing_library_fails_exec() {
        let (mut k, tid) = setup();
        let bin = ElfBuilder::executable("x").needs("libnope.so").build();
        k.vfs.write_file("/system/bin/x", bin.to_bytes()).unwrap();
        assert_eq!(k.sys_exec(tid, "/system/bin/x", &[]), Err(Errno::ENOENT));
    }

    #[test]
    fn wrong_machine_rejected() {
        let (mut k, tid) = setup();
        let mut bin = ElfBuilder::executable("x").build();
        bin.machine = 62; // x86-64
        k.vfs.write_file("/system/bin/x", bin.to_bytes()).unwrap();
        assert_eq!(k.sys_exec(tid, "/system/bin/x", &[]), Err(Errno::ENOEXEC));
    }

    #[test]
    fn shared_object_not_executable() {
        let (mut k, tid) = setup();
        assert_eq!(
            k.sys_exec(tid, "/system/lib/libc.so", &[]),
            Err(Errno::ENOEXEC)
        );
    }
}
