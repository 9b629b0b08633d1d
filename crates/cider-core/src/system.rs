//! [`CiderSystem`]: the assembled Cider device.
//!
//! Boots the domestic kernel, duct-tapes the three foreign subsystems
//! into it, installs the Mach-O loader and the XNU personality, overlays
//! the iOS filesystem hierarchy with the copied framework set, starts the
//! background services, and bridges kernel devices into the I/O Kit
//! registry — the full §3 "system integration" picture.

use std::collections::BTreeMap;
use std::sync::Arc;

use cider_abi::errno::Errno;
use cider_abi::ids::{Pid, PortName, Tid};
use cider_abi::syscall::{MachTrap, XnuTrap};
use cider_kernel::dispatch::{SyscallArgs, UserTrapResult};
use cider_kernel::kernel::Kernel;
use cider_kernel::process::PersonalityId;
use cider_kernel::profile::DeviceProfile;
use cider_kernel::vfs::DeviceId;
use cider_loader::elf_loader::{install_android_system, ElfLoader};
use cider_loader::framework_set::FrameworkSet;
use cider_xnu::iokit::OsValue;
use cider_xnu::ipc::{ReceivedMessage, UserMessage};
use cider_xnu::kern_return::{KernResult, KernReturn};

use crate::diplomat::DiplomaticLibrary;
use crate::exec::sys_exec_fixup;
use crate::library::{LibraryHost, NativeLibrary};
use crate::machoload::{mach_task_post_fork, MachOLoader};
use crate::ring::{RingCompletion, RingOp};
use crate::services::Services;
use crate::state::{caller_task, with_state, CiderState};
use crate::wire;
use crate::xnu_abi::XnuPersonality;

/// I/O Kit objects Cider deliberately does not compile (paper footnote
/// 2: they talk directly to hardware the Linux kernel already drives).
pub const EXCLUDED_IOKIT_OBJECTS: [&str; 2] =
    ["IODMAController.cpp", "IOInterruptController.cpp"];

/// Which system the test bed models — the paper's §6 configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SystemKind {
    /// Stock Android: Linux personality only, no Cider machinery.
    VanillaAndroid,
    /// Cider: the multi-persona kernel with translation.
    Cider,
    /// A native iOS device (the iPad mini): XNU trap surface with no
    /// translation and no persona checks.
    NativeIos,
}

/// The assembled Cider system.
pub struct CiderSystem {
    /// The augmented domestic kernel.
    pub kernel: Kernel,
    /// The registered XNU personality id.
    pub xnu_personality: PersonalityId,
    /// The background services.
    pub services: Services,
    /// Loaded domestic runtime libraries.
    pub host: LibraryHost,
    /// Installed diplomatic libraries, by name.
    pub diplomatic: BTreeMap<String, DiplomaticLibrary>,
    /// The kernel task driving boot-time subsystem work.
    pub kernel_task: (Pid, Tid),
    /// How many of the kernel's devices (a prefix of its registry,
    /// which only grows) the I/O Kit bridge has published.
    iokit_published: usize,
}

impl std::fmt::Debug for CiderSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CiderSystem")
            .field("kernel", &self.kernel)
            .field("diplomatic", &self.diplomatic.keys().collect::<Vec<_>>())
            .finish()
    }
}

impl CiderSystem {
    /// Boots a complete Cider device on the given hardware profile.
    pub fn new(profile: DeviceProfile) -> CiderSystem {
        Self::new_kind(profile, SystemKind::Cider)
    }

    /// Boots one of the paper's measurement configurations: stock
    /// Android, Cider, or a native iOS device.
    pub fn new_kind(profile: DeviceProfile, kind: SystemKind) -> CiderSystem {
        let mut kernel = Kernel::boot(profile);

        // Stock Android user space (absent on a real iOS device).
        if kind != SystemKind::NativeIos {
            install_android_system(&mut kernel.vfs);
            kernel.register_binfmt(Arc::new(ElfLoader::new()));
        }

        // Cider state compiled into the kernel.
        kernel.extensions.insert(CiderState::new());

        // The kernel task drives boot-time foreign-subsystem work.
        let kernel_task = kernel.spawn_process();
        let (_, ktid) = kernel_task;

        // Duct-tape the three foreign subsystems (paper §4.2, §5.1).
        with_state(&mut kernel, |k, st| {
            st.with_xnu(k, ktid, |ipc, _, api| ipc.bootstrap(api));
            let symbols = &mut st.ducttape.symbols;
            symbols.import_foreign_object(
                "pthread_support",
                &[
                    "psynch_mutexwait",
                    "psynch_mutexdrop",
                    "psynch_cvwait",
                    "psynch_cvsignal",
                    "psynch_cvbroad",
                ],
                &[
                    "lck_mtx_lock",
                    "lck_mtx_unlock",
                    "zalloc",
                    "zfree",
                    "thread_block",
                    "thread_wakeup",
                    "current_thread",
                ],
            );
            for obj in [
                "ipc_port",
                "ipc_space",
                "ipc_mqueue",
                "ipc_right",
                "mach_msg",
                "ipc_notify",
            ] {
                symbols.import_foreign_object(
                    obj,
                    &[],
                    &[
                        "lck_mtx_lock",
                        "lck_mtx_unlock",
                        "zinit",
                        "zalloc",
                        "zfree",
                        "assert_wait",
                        "thread_block",
                        "thread_wakeup",
                        "current_thread",
                        "kprintf",
                    ],
                );
            }
            // The C++ I/O Kit objects, minus the excluded hardware ones.
            let CiderState { ducttape, cxx, .. } = st;
            for obj in [
                "OSObject.cpp",
                "OSDictionary.cpp",
                "IORegistryEntry.cpp",
                "IOService.cpp",
                "IOUserClient.cpp",
                "IOCatalogue.cpp",
            ] {
                cxx.compile_object(
                    &mut ducttape.symbols,
                    obj,
                    &[],
                    &[
                        "zalloc",
                        "zfree",
                        "lck_mtx_lock",
                        "lck_mtx_unlock",
                        "kprintf",
                    ],
                );
            }
        });

        // The foreign trap surface and the Mach-O loader. Only Cider
        // pays the persona check: a native XNU kernel dispatches its own
        // ABI directly, and vanilla Android has no second personality.
        let xnu_personality = match kind {
            SystemKind::VanillaAndroid => kernel.linux_personality(),
            SystemKind::Cider => {
                let id = kernel
                    .register_personality(Arc::new(XnuPersonality::new()));
                kernel.enable_cider();
                id
            }
            SystemKind::NativeIos => kernel.register_personality(Arc::new(
                crate::xnu_native::XnuNativePersonality::new(),
            )),
        };
        if kind != SystemKind::VanillaAndroid {
            kernel
                .register_binfmt(Arc::new(MachOLoader::new(xnu_personality)));
            kernel.post_fork = mach_task_post_fork;

            // The overlaid iOS filesystem hierarchy (§3) — on a real iOS
            // device these are simply the native paths.
            kernel.vfs.enable_overlay();
            for dir in [
                "/Documents",
                "/Applications",
                "/var/mobile/Library",
                "/System/Library/Frameworks",
                "/System/Library/PrivateFrameworks",
                "/usr/lib",
                "/usr/libexec",
            ] {
                kernel.vfs.mkdir_p_overlay(dir).expect("fresh overlay");
            }
            FrameworkSet::standard().install(&mut kernel.vfs);
        }

        // Background services. Fault plans are installed after
        // construction, so boot cannot see injected failures here.
        let services =
            Services::boot(&mut kernel).expect("fault-free service boot");

        let mut sys = CiderSystem {
            kernel,
            xnu_personality,
            services,
            host: LibraryHost::new(),
            diplomatic: BTreeMap::new(),
            kernel_task,
            iokit_published: 0,
        };

        // The standard Nexus 7 devices.
        sys.add_device("tegra-dc", "display", "/dev/fb0")
            .expect("fresh device table");
        sys.add_device("elan-touchscreen", "input", "/dev/input/event0")
            .expect("fresh device table");
        sys.add_device("tegra-gpu", "gpu", "/dev/nvhost-gr3d")
            .expect("fresh device table");
        sys
    }

    /// A deep copy of this system: a second device in exactly this
    /// state (see [`Kernel::fork_device`] for what the kernel shares).
    ///
    /// The library host and the diplomats are copied, but the functions
    /// they hold are shared: exports keep their state in the kernel
    /// (as extensions), never in what they capture, so the copy's
    /// calls reach the copy's kernel. The bridge's published count is
    /// copied with the device registry it counts.
    pub fn fork_device(&self) -> CiderSystem {
        CiderSystem {
            kernel: self.kernel.fork_device(),
            xnu_personality: self.xnu_personality,
            services: self.services.clone(),
            host: self.host.clone(),
            diplomatic: self.diplomatic.clone(),
            kernel_task: self.kernel_task,
            iokit_published: self.iokit_published,
        }
    }

    /// Registers a kernel device — the paper's hook in the Linux device
    /// add function (§5.1): a Linux device node appears in the VFS and
    /// an I/O Kit device-class registry entry is published for matching.
    ///
    /// # Errors
    ///
    /// `EEXIST` for duplicate node paths.
    pub fn add_device(
        &mut self,
        name: &str,
        class: &str,
        node_path: &str,
    ) -> Result<DeviceId, Errno> {
        let id = self.kernel.devices.add(name, class, node_path)?;
        let parent = node_path.rsplit_once('/').map(|(d, _)| d).unwrap_or("/");
        if !parent.is_empty() && parent != "/" {
            self.kernel.vfs.mkdir_p(parent)?;
        }
        self.kernel.vfs.mknod_device(node_path, id)?;
        self.sync_iokit();
        Ok(id)
    }

    /// Publishes every kernel device the bridge has not published yet,
    /// in registry order, as an I/O Kit device-class registry entry:
    /// the devices the kernel registered on its own since the last sync.
    pub fn sync_iokit(&mut self) {
        let published = self.iokit_published;
        if published == self.kernel.devices.len() {
            return;
        }
        self.iokit_published = self.kernel.devices.len();
        with_state(&mut self.kernel, |k, st| {
            for dev in k.devices.iter().skip(published) {
                let class = match dev.class.as_str() {
                    "display" => "IODisplayNub",
                    "input" => "IOHIDNub",
                    "gpu" => "IOGraphicsAcceleratorNub",
                    other => {
                        // Generic bridge class for everything else.
                        st.iokit.publish_nub(
                            format!("IO{}Nub", capitalize(other)),
                            dev.name.clone(),
                            &[(
                                "IOLinuxDevice",
                                OsValue::String(dev.node_path.clone()),
                            )],
                        );
                        continue;
                    }
                };
                st.iokit.publish_nub(
                    class,
                    dev.name.clone(),
                    &[(
                        "IOLinuxDevice",
                        OsValue::String(dev.node_path.clone()),
                    )],
                );
            }
        });
    }

    /// Spawns a fresh process (domestic personality until exec).
    pub fn spawn_process(&mut self) -> (Pid, Tid) {
        self.kernel.spawn_process()
    }

    /// `execve` with persona fixup.
    ///
    /// # Errors
    ///
    /// Kernel exec errors.
    pub fn exec(
        &mut self,
        tid: Tid,
        path: &str,
        argv: &[&str],
    ) -> Result<(), Errno> {
        sys_exec_fixup(&mut self.kernel, tid, path, argv)
    }

    /// Launches an iOS app: spawn + exec of a Mach-O bundle binary.
    ///
    /// # Errors
    ///
    /// Exec errors (`EACCES` for encrypted binaries, `ENOENT` for
    /// missing frameworks, ...).
    pub fn launch_ios_app(
        &mut self,
        path: &str,
        argv: &[&str],
    ) -> Result<(Pid, Tid), Errno> {
        let (pid, tid) = self.spawn_process();
        self.exec(tid, path, argv)?;
        Ok((pid, tid))
    }

    /// Raw trap entry (what a binary's `svc` does).
    pub fn trap(
        &mut self,
        tid: Tid,
        number: i64,
        args: &SyscallArgs,
    ) -> UserTrapResult {
        self.kernel.trap(tid, number, args)
    }

    /// Registers a domestic runtime library for diplomats to resolve.
    pub fn register_library(&mut self, lib: NativeLibrary) {
        self.host.register(lib);
    }

    /// Installs a diplomatic library.
    pub fn install_diplomatic(&mut self, lib: DiplomaticLibrary) {
        self.diplomatic.insert(lib.name.clone(), lib);
    }

    /// Invokes a diplomat: foreign code calling `symbol` in the
    /// diplomatic library `lib`.
    ///
    /// # Errors
    ///
    /// `ENOSYS` for unknown libraries or symbols; domestic function
    /// errors otherwise.
    pub fn diplomat_call(
        &mut self,
        tid: Tid,
        lib: &str,
        symbol: &str,
        args: &[i64],
    ) -> Result<i64, Errno> {
        let mut l = self.diplomatic.remove(lib).ok_or(Errno::ENOSYS)?;
        let r = l.call(&mut self.kernel, &self.host, tid, symbol, args);
        self.diplomatic.insert(l.name.clone(), l);
        r
    }

    // ------------------------------------------------------------------
    // Typed Mach IPC conveniences for app-level code.
    // ------------------------------------------------------------------

    /// Allocates a receive right in the calling thread's task.
    ///
    /// # Errors
    ///
    /// Mach codes.
    pub fn mach_port_allocate(&mut self, tid: Tid) -> KernResult<PortName> {
        let pid = caller_task(&self.kernel, tid)?;
        with_state(&mut self.kernel, |k, st| st.port_allocate_for(k, tid, pid))
    }

    /// Sends a message from the calling thread's task.
    ///
    /// # Errors
    ///
    /// Mach codes.
    pub fn mach_msg_send(
        &mut self,
        tid: Tid,
        msg: UserMessage,
    ) -> KernResult<()> {
        let pid = caller_task(&self.kernel, tid)?;
        with_state(&mut self.kernel, |k, st| st.msg_send_for(k, tid, pid, msg))
    }

    /// Receives from a port in the calling thread's task.
    ///
    /// # Errors
    ///
    /// Mach codes (`RcvTimedOut` when empty).
    pub fn mach_msg_receive(
        &mut self,
        tid: Tid,
        port: PortName,
    ) -> KernResult<ReceivedMessage> {
        let pid = caller_task(&self.kernel, tid)?;
        with_state(&mut self.kernel, |k, st| {
            st.msg_receive_for(k, tid, pid, port)
        })
    }

    /// Makes a send right from a receive right in the caller's task.
    ///
    /// # Errors
    ///
    /// Mach codes.
    pub fn mach_make_send(
        &mut self,
        tid: Tid,
        recv: PortName,
    ) -> KernResult<PortName> {
        let pid = caller_task(&self.kernel, tid)?;
        with_state(&mut self.kernel, |_, st| {
            let space = st.task_space(pid);
            let recv = st.machipc.receive_right(space, recv)?;
            st.machipc.insert_send(space, recv).map(|s| s.name())
        })
    }

    /// Switches Mach IPC onto the v2 cost policy: no subsystem mutex on
    /// send/receive (copyin charges instead) and OOL remap instead of
    /// copy. Both policies share one FIFO queue per port, so delivery
    /// order is send order either way. Off by default so v1
    /// measurements stay byte-identical.
    pub fn enable_ipc_v2(&mut self) {
        with_state(&mut self.kernel, |_, st| st.machipc.set_v2(true));
    }

    // ------------------------------------------------------------------
    // Batched trap submission (IPC v2).
    // ------------------------------------------------------------------

    /// Appends one operation to the calling thread's submission ring
    /// without a kernel crossing — the queue pair is a mapping shared
    /// with the kernel. When the ring is full (or fault injection says
    /// the submitter lost an overflow race), the pending batch is
    /// flushed early through the real trap; those completions are
    /// returned so the caller never loses them.
    ///
    /// # Errors
    ///
    /// Mach codes from a forced early flush.
    pub fn ring_submit(
        &mut self,
        tid: Tid,
        op: RingOp,
    ) -> KernResult<Vec<RingCompletion>> {
        let mut early = Vec::new();
        if with_state(&mut self.kernel, |k, st| st.ring_must_flush(k, tid)) {
            early = self.ring_flush(tid)?;
        }
        with_state(&mut self.kernel, |_, st| {
            st.ring_mut(tid).push(op).expect("ring was just flushed");
        });
        Ok(early)
    }

    /// Flushes the calling thread's ring: one `ring_flush` trap
    /// executes every pending submission and returns the accumulated
    /// completions.
    ///
    /// # Errors
    ///
    /// The trap's kern_return on failure.
    pub fn ring_flush(&mut self, tid: Tid) -> KernResult<Vec<RingCompletion>> {
        let r = self.kernel.trap(
            tid,
            XnuTrap::Mach(MachTrap::RingFlush).encode(),
            &SyscallArgs::none(),
        );
        if r.reg != 0 {
            return Err(
                KernReturn::from_raw(r.reg).unwrap_or(KernReturn::Failure)
            );
        }
        wire::decode_ring_completions(&r.out_data)
            .map_err(|_| KernReturn::Failure)
    }

    /// Client-side `bootstrap_look_up`.
    ///
    /// # Errors
    ///
    /// `InvalidName` for unknown services.
    pub fn bootstrap_look_up(
        &mut self,
        tid: Tid,
        name: &str,
    ) -> KernResult<PortName> {
        let pid = caller_task(&self.kernel, tid)?;
        let bp = self.services.bootstrap_port_for(&mut self.kernel, pid)?;
        crate::services::bootstrap_look_up(
            &mut self.kernel,
            &mut self.services,
            pid,
            tid,
            bp,
            name,
        )
    }

    /// Runs the service daemons until their queues drain.
    pub fn run_services(&mut self) -> usize {
        self.services.run_pending(&mut self.kernel)
    }
}

fn capitalize(s: &str) -> String {
    let mut c = s.chars();
    match c.next() {
        Some(f) => f.to_uppercase().collect::<String>() + c.as_str(),
        None => String::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cider_loader::MachOBuilder;

    fn ios_app_bytes(entry: &str) -> Vec<u8> {
        let mut b = MachOBuilder::executable(entry);
        for dep in FrameworkSet::app_default_deps() {
            b = b.depends_on(&dep);
        }
        b.build().to_bytes()
    }

    #[test]
    fn boot_produces_full_system() {
        let mut sys = CiderSystem::new(DeviceProfile::nexus7());
        assert!(sys.kernel.cider_enabled());
        // Overlay paths exist alongside Android paths.
        assert!(sys.kernel.vfs.exists("/Documents"));
        assert!(sys.kernel.vfs.exists("/system/lib/libc.so"));
        assert!(sys
            .kernel
            .vfs
            .exists("/System/Library/Frameworks/UIKit.framework/UIKit"));
        // Devices bridged into I/O Kit.
        with_state(&mut sys.kernel, |_, st| {
            assert!(st.iokit.find_service("IODisplayNub").is_some());
            assert!(st.iokit.find_service("IOHIDNub").is_some());
            assert!(st
                .iokit
                .find_service("IOGraphicsAcceleratorNub")
                .is_some());
        });
        // Duct-tape symbol table populated.
        with_state(&mut sys.kernel, |_, st| {
            assert!(st.ducttape.symbols.len() > 12);
            assert!(st.cxx.objects().len() >= 6);
        });
    }

    #[test]
    fn launch_ios_app_end_to_end() {
        let mut sys = CiderSystem::new(DeviceProfile::nexus7());
        sys.kernel
            .vfs
            .write_file_overlay(
                "/Applications/Calc.app/Calc",
                ios_app_bytes("calc_main"),
            )
            .unwrap();
        let (pid, tid) = sys
            .launch_ios_app("/Applications/Calc.app/Calc", &["Calc"])
            .unwrap();
        assert_eq!(
            crate::persona::persona_of(&sys.kernel, tid).unwrap(),
            cider_abi::Persona::Foreign
        );
        let p = sys.kernel.process(pid).unwrap();
        assert_eq!(p.program.dylib_count, 115);
    }

    #[test]
    fn ios_app_reaches_services_over_mach_ipc() {
        let mut sys = CiderSystem::new(DeviceProfile::nexus7());
        sys.kernel
            .vfs
            .write_file_overlay(
                "/Applications/A.app/A",
                ios_app_bytes("a_main"),
            )
            .unwrap();
        let (_, tid) =
            sys.launch_ios_app("/Applications/A.app/A", &[]).unwrap();
        let port = sys
            .bootstrap_look_up(tid, "com.apple.system.notification_center")
            .unwrap();
        assert!(port.is_valid());
        with_state(&mut sys.kernel, |_, st| st.machipc.check_invariants());
    }

    #[test]
    fn ring_batch_round_trips_through_one_flush() {
        let mut sys = CiderSystem::new(DeviceProfile::nexus7());
        sys.enable_ipc_v2();
        let (_, tid) = sys.spawn_process();
        crate::persona::attach_persona_ext(
            &mut sys.kernel,
            tid,
            cider_abi::Persona::Foreign,
            sys.xnu_personality,
        )
        .unwrap();
        let port = sys.mach_port_allocate(tid).unwrap();
        let send = sys.mach_make_send(tid, port).unwrap();
        // Interleaved send/receive pairs: the queue never grows past
        // one message, and the batch still pays a single flush trap.
        for i in 0..8 {
            let early = sys
                .ring_submit(
                    tid,
                    RingOp::Send(UserMessage::simple(send, i, &b"m"[..])),
                )
                .unwrap();
            assert!(early.is_empty(), "no overflow in a batch of 16");
            sys.ring_submit(tid, RingOp::Recv(port)).unwrap();
        }
        let cs = sys.ring_flush(tid).unwrap();
        assert_eq!(cs.len(), 16);
        assert!(cs.iter().all(|c| c.kr.is_success()));
        // Receives pair with sends in submission order.
        assert_eq!(cs[1].received.as_ref().unwrap().msg_id, 0);
        assert_eq!(cs[15].received.as_ref().unwrap().msg_id, 7);
        with_state(&mut sys.kernel, |_, st| st.machipc.check_invariants());
    }

    #[test]
    fn ring_overflow_fault_degrades_to_early_flushes() {
        use cider_fault::{FaultLayer, FaultPlan, FaultSite};
        let mut sys = CiderSystem::new(DeviceProfile::nexus7());
        sys.enable_ipc_v2();
        let (_, tid) = sys.spawn_process();
        crate::persona::attach_persona_ext(
            &mut sys.kernel,
            tid,
            cider_abi::Persona::Foreign,
            sys.xnu_personality,
        )
        .unwrap();
        let port = sys.mach_port_allocate(tid).unwrap();
        let send = sys.mach_make_send(tid, port).unwrap();
        sys.kernel.faults = FaultLayer::with_plan(
            FaultPlan::new(23).with(FaultSite::TrapRingOverflow, 1000),
        );
        // Every submission loses the overflow race, so each one costs
        // a flush — slower, but nothing is dropped.
        let mut completions = Vec::new();
        for i in 0..4 {
            completions.extend(
                sys.ring_submit(
                    tid,
                    RingOp::Send(UserMessage::simple(send, i, &b"m"[..])),
                )
                .unwrap(),
            );
        }
        completions.extend(sys.ring_flush(tid).unwrap());
        assert_eq!(completions.len(), 4);
        assert!(completions.iter().all(|c| c.kr.is_success()));
    }

    /// The Linux node of every nub the I/O Kit bridge published, in
    /// publish order.
    fn published_nodes(sys: &CiderSystem) -> Vec<&str> {
        let st = sys.kernel.extensions.get::<CiderState>().unwrap();
        let root = st.iokit.entry(st.iokit.root()).unwrap();
        root.children
            .iter()
            .filter_map(|&c| st.iokit.property_string(c, "IOLinuxDevice"))
            .collect()
    }

    #[test]
    fn every_device_is_published_once_in_registry_order() {
        let mut sys = CiderSystem::new(DeviceProfile::nexus7());
        let boot = ["/dev/fb0", "/dev/input/event0", "/dev/nvhost-gr3d"];
        assert_eq!(published_nodes(&sys), boot);

        // Devices the kernel registers on its own wait for the next sync,
        // and a fork taken now inherits them unpublished.
        sys.kernel
            .devices
            .add("cam", "camera", "/dev/video0")
            .unwrap();
        sys.kernel
            .devices
            .add("imu", "sensor", "/dev/iio0")
            .unwrap();
        let mut fork = sys.fork_device();
        assert_eq!(published_nodes(&sys), boot);
        sys.sync_iokit();
        sys.sync_iokit();
        let mut want = boot.to_vec();
        want.extend(["/dev/video0", "/dev/iio0"]);
        assert_eq!(published_nodes(&sys), want);

        sys.add_device("gps", "location", "/dev/gps0").unwrap();
        want.push("/dev/gps0");
        assert_eq!(published_nodes(&sys), want);

        // The fork publishes the devices it inherited on its own bridge,
        // once, and its syncs leave the original's registry alone.
        assert_eq!(published_nodes(&fork), boot);
        fork.sync_iokit();
        fork.sync_iokit();
        assert_eq!(published_nodes(&fork), want[..5]);
        assert_eq!(published_nodes(&sys), want);
    }

    /// `CiderState::write_ckpt` writes the live port count, one record
    /// per task space (its ports sorted as text) and per task-self
    /// port, then the sorted service names.
    #[test]
    fn cider_records_list_spaces_task_self_ports_and_services() {
        use cider_abi::codec::{ByteReader, SectionWriter};
        let mut sys = CiderSystem::new(DeviceProfile::nexus7());
        let (pid, tid) = sys.spawn_process();
        let port = sys.mach_port_allocate(tid).unwrap();
        let send = sys.mach_make_send(tid, port).unwrap();
        sys.mach_msg_send(tid, UserMessage::simple(send, 7, &b"x"[..]))
            .unwrap();
        with_state(&mut sys.kernel, |k, st| st.task_self_port(k, tid, pid))
            .unwrap();
        let st = sys.kernel.extensions.get::<CiderState>().unwrap();
        let mut w = SectionWriter::new();
        st.write_ckpt(&mut w.section("cider"));
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes, ());
        assert_eq!(r.get_u32(), Ok(1));
        assert_eq!(r.get_str().as_deref(), Ok("cider"));
        let n = r.get_u32().unwrap();
        let records: Vec<String> = (0..n)
            .map(|_| {
                format!(
                    "{} {}",
                    r.get_str_ref().unwrap(),
                    r.get_str_ref().unwrap()
                )
            })
            .collect();
        assert_eq!(r.remaining(), 0);
        assert_eq!(
            records,
            [
                "live_ports 5",
                "space:000002 id=SpaceId(1) ports=[259:Receive/q0 \
                 263:Send/q0 267:Send/q0]",
                "space:000003 id=SpaceId(2) ports=[259:Receive/q0 \
                 263:Send/q0]",
                "space:000004 id=SpaceId(3) ports=[259:Receive/q0 \
                 263:Send/q0]",
                "space:000005 id=SpaceId(4) ports=[259:Receive/q1 \
                 263:Send/q0 267:Receive/q0]",
                "task_self:000005 267",
                "services com.apple.SystemConfiguration.configd,\
                 com.apple.system.notification_center",
            ]
        );
    }

    #[test]
    fn excluded_iokit_objects_not_compiled() {
        let mut sys = CiderSystem::new(DeviceProfile::nexus7());
        with_state(&mut sys.kernel, |_, st| {
            for excluded in EXCLUDED_IOKIT_OBJECTS {
                assert!(
                    !st.cxx.objects().iter().any(|o| o.name == excluded),
                    "{excluded} should not be in obj-y"
                );
            }
        });
    }
}
