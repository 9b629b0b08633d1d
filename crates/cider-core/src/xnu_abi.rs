//! The XNU kernel ABI personality: Cider's foreign syscall surface.
//!
//! "Cider maintains one or more syscall dispatch tables for each persona
//! ... Cider is aware of XNU's low-level syscall interface, and
//! translates things such as function parameters and CPU flags into the
//! Linux calling convention, making it possible to directly invoke
//! existing Linux syscall implementations" (paper §4.1).
//!
//! [`XnuPersonality`] owns two dispatch tables (Unix-class and
//! Mach-class) plus inline handling for the machdep and diag trap paths
//! — the four ways an iOS binary traps into XNU. The Unix-class table
//! holds the [`LinuxPersonality`] table's own handlers for every call
//! whose XNU arguments and results mean what the Linux ones do (getpid,
//! read, write, fork, pipe, ...), found through
//! [`xnu_to_linux_syscall`]. Seven named adapters translate one XNU
//! convention each and then call the same `Kernel::sys_*`
//! implementation: open (BSD flags), exit (Mach task teardown), kill and
//! sigaction (BSD signal numbers), select (fd_set conversion), stat64
//! (struct layout) and execve (persona fixup). The remaining entries
//! (posix_spawn, psynch) have no Linux counterpart. The exit path
//! encodes errors in the carry flag with BSD errno numbering.
//!
//! Both XNU personalities trap through one `XnuPersonality::dispatch`:
//! Cider's translated trap charges its entry translation first, and the
//! iPad's native kernel ([`crate::xnu_native`]) calls it directly.

use cider_abi::codec::ByteWriter;
use cider_abi::convention::{CpuFlags, SyscallOutcome};
use cider_abi::errno::Errno;
use cider_abi::ids::{Fd, Pid, PortName, Tid};
use cider_abi::sched::{
    clamp_user_priority, SchedPolicy, SwitchOption, ThreadPolicyFlavor,
    BASEPRI_DEFAULT,
};
use cider_abi::signal::{sigframe, Signal, XnuSignal};
use cider_abi::syscall::{
    LinuxSyscall, MachTrap, SyscallName, XnuSyscall, XnuTrap,
};
use cider_abi::types::{OpenFlags, XnuStat64};
use cider_kernel::dispatch::{
    DispatchError, Personality, SyscallArgs, SyscallData, SyscallTable,
    SyscallTableBuilder, TrapResult, UserTrapResult,
};
use cider_kernel::kernel::{Kernel, LinuxPersonality};
use cider_kernel::mm::{MappingKind, Prot};
use cider_kernel::process::SigDisposition;
use cider_xnu::api::ForeignKernelApi;
use cider_xnu::ipc::KernelObject;
use cider_xnu::kern_return::{KernResult, KernReturn};
use cider_xnu::psynch::{PsynchOutcome, PsynchState};

use crate::exec::sys_exec_fixup;
use crate::state::{caller_task, with_state};
use crate::wire;

/// Fixed cost of the XNU→Linux entry-path translation per trap, ns.
pub(crate) const TRANSLATE_ENTRY_NS: u64 = 90;
/// Per-argument register translation cost, ns.
pub(crate) const TRANSLATE_ARG_NS: u64 = 5;
/// Cost of one structure conversion (stat64 and friends), ns.
const STRUCT_CONVERT_NS: u64 = 45;
/// Extra cost of translating signal info and numbering per delivery, ns.
const SIGNAL_TRANSLATE_NS: u64 = 250;

/// XNU open(2) flag values (BSD numbering, different from Linux).
mod xnu_oflags {
    pub const O_WRONLY: u32 = 0x1;
    pub const O_RDWR: u32 = 0x2;
    pub const O_APPEND: u32 = 0x8;
    pub const O_CREAT: u32 = 0x200;
    pub const O_TRUNC: u32 = 0x400;
    pub const O_EXCL: u32 = 0x800;
}

/// Translates BSD open flags to the domestic kernel's numbering.
pub fn translate_open_flags(xnu: u32) -> OpenFlags {
    use xnu_oflags::*;
    let mut f = if xnu & O_RDWR != 0 {
        OpenFlags::RDWR
    } else if xnu & O_WRONLY != 0 {
        OpenFlags::WRONLY
    } else {
        OpenFlags::RDONLY
    };
    if xnu & O_CREAT != 0 {
        f = f | OpenFlags::CREAT;
    }
    if xnu & O_TRUNC != 0 {
        f = f | OpenFlags::TRUNC;
    }
    if xnu & O_EXCL != 0 {
        f = f | OpenFlags::EXCL;
    }
    if xnu & O_APPEND != 0 {
        f = f | OpenFlags::APPEND;
    }
    f
}

/// Serialises an [`XnuStat64`] into the byte layout iOS binaries read.
pub fn encode_xnu_stat64(s: &XnuStat64) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(64);
    w.put_u64(s.ino);
    w.put_u32(s.mode);
    w.put_u32(s.nlink);
    w.put_u64(s.size);
    w.put_u64(s.blocks);
    for t in [s.mtimespec, s.birthtimespec] {
        w.put_u64(t.sec as u64);
        w.put_u64(t.nsec as u64);
    }
    w.into_bytes()
}

/// The foreign-persona kernel ABI.
#[derive(Debug)]
pub struct XnuPersonality {
    unix: SyscallTable,
    mach: SyscallTable,
    /// Dense renumbering cache, indexed by Unix-class syscall number:
    /// `Some(linux_nr)` only for installed calls whose implementation
    /// really is the domestic one. Built once in
    /// [`XnuPersonality::try_new`] so [`Personality::translate_syscall`]
    /// never walks the dispatch table on the hot path.
    xlate: Vec<Option<i64>>,
}

impl Default for XnuPersonality {
    fn default() -> Self {
        Self::new()
    }
}

impl XnuPersonality {
    /// Builds the personality with both dispatch tables populated.
    ///
    /// # Panics
    ///
    /// Panics if a static table has a collision (a bug by construction);
    /// fallible callers use [`XnuPersonality::try_new`].
    pub fn new() -> XnuPersonality {
        XnuPersonality::try_new()
            .expect("static XNU dispatch tables are collision-free")
    }

    /// Builds the personality, surfacing table collisions as
    /// [`DispatchError`] instead of panicking.
    ///
    /// # Errors
    ///
    /// [`DispatchError::Collision`] if two handlers claim one number.
    pub fn try_new() -> Result<XnuPersonality, DispatchError> {
        let unix = build_unix_table(LinuxPersonality::try_new()?.table())?;
        let mach = build_mach_table()?;
        let xlate = build_translation_cache(&unix);
        Ok(XnuPersonality { unix, mach, xlate })
    }

    /// The Unix-class dispatch table (introspection for tests).
    pub fn unix_table(&self) -> &SyscallTable {
        &self.unix
    }

    /// The Mach-class dispatch table.
    pub fn mach_table(&self) -> &SyscallTable {
        &self.mach
    }

    /// Decodes an XNU trap number and runs it: Unix-class calls through
    /// the Unix table with BSD errno and carry-flag encoding, Mach traps
    /// through the Mach table with `kern_return` encoding, and machdep
    /// traps as no-ops. A diag trap returns `diag`.
    pub(crate) fn dispatch(
        &self,
        k: &mut Kernel,
        tid: Tid,
        number: i64,
        args: &SyscallArgs,
        diag: KernReturn,
    ) -> UserTrapResult {
        match XnuTrap::decode(number) {
            None => encode_unix_result(TrapResult::err(Errno::ENOSYS)),
            Some(XnuTrap::Unix(call)) => {
                encode_unix_result(match self.unix.handler(call.number()) {
                    Some(handler) => handler(k, tid, args),
                    None => TrapResult::err(Errno::ENOSYS),
                })
            }
            Some(XnuTrap::Mach(call)) => {
                // Mach traps enter the kernel like any other trap; the
                // Unix-class handlers charge this inside the Linux
                // implementations they invoke.
                k.charge_cpu(k.profile.syscall_entry_exit_ns);
                let r = match self.mach.handler(call.number()) {
                    Some(handler) => handler(k, tid, args),
                    None => TrapResult::ok(KernReturn::MigBadId.as_raw()),
                };
                let reg = r.outcome.unwrap_or(KernReturn::Failure.as_raw());
                mach_result(reg, r.out_data)
            }
            // The only machdep call iOS user space issues regularly is
            // the TLS-pointer read/write pair; the simulator keeps TLS
            // in the persona extension, so these are no-ops.
            Some(XnuTrap::MachDep(_)) => mach_result(0, Vec::new()),
            Some(XnuTrap::Diag(_)) => mach_result(diag.as_raw(), Vec::new()),
        }
    }
}

impl Personality for XnuPersonality {
    fn name(&self) -> &'static str {
        "xnu"
    }

    fn trap(
        &self,
        k: &mut Kernel,
        tid: Tid,
        number: i64,
        args: &SyscallArgs,
    ) -> UserTrapResult {
        // Entry-path translation: registers and CPU state are remapped
        // from the XNU convention before any handler can run.
        k.charge_cpu(
            TRANSLATE_ENTRY_NS + TRANSLATE_ARG_NS * args.regs.len() as u64,
        );
        self.dispatch(k, tid, number, args, KernReturn::InvalidArgument)
    }

    fn sigframe_bytes(&self) -> usize {
        sigframe::XNU_FRAME_BYTES
    }

    fn signal_number(&self, sig: Signal) -> Option<i32> {
        sig.to_xnu().map(|x| x.as_raw())
    }

    fn signal_translation_ns(&self) -> u64 {
        SIGNAL_TRANSLATE_NS
    }

    fn syscall_name(&self, number: i64) -> Option<SyscallName> {
        match XnuTrap::decode(number)? {
            XnuTrap::Unix(call) => self.unix.name(call.number()),
            XnuTrap::Mach(call) => self.mach.name(call.number()),
            XnuTrap::MachDep(_) => Some(SyscallName("machdep")),
            XnuTrap::Diag(_) => Some(SyscallName("diag")),
        }
    }

    fn translate_syscall(&self, number: i64) -> Option<i64> {
        match XnuTrap::decode(number)? {
            // Only calls this personality actually dispatches count as
            // translated: the cache holds `Some` exclusively for
            // installed handlers with a domestic renumbering.
            XnuTrap::Unix(call) => self
                .xlate
                .get(usize::try_from(call.number()).ok()?)
                .copied()
                .flatten(),
            // Mach/machdep/diag traps have no domestic counterpart; they
            // are implemented by the Cider layer itself.
            _ => None,
        }
    }
}

/// Builds the dense Unix-class → Linux renumbering cache from the
/// installed dispatch entries.
fn build_translation_cache(unix: &SyscallTable) -> Vec<Option<i64>> {
    let cap = unix
        .entries()
        .map(|(nr, _)| nr as usize + 1)
        .max()
        .unwrap_or(0);
    let mut cache = vec![None; cap];
    for (nr, _) in unix.entries() {
        let Some(call) = XnuSyscall::from_number(nr) else {
            continue;
        };
        cache[nr as usize] =
            xnu_to_linux_syscall(call).map(|l| l.number() as i64);
    }
    cache
}

/// The domestic (Linux) syscall a foreign Unix-class number renumbers
/// to, for the calls whose implementation really is the Linux one.
/// `None` for XNU-only calls (psynch, bsdthread, posix_spawn).
pub fn xnu_to_linux_syscall(x: XnuSyscall) -> Option<LinuxSyscall> {
    use LinuxSyscall as L;
    use XnuSyscall as X;
    Some(match x {
        X::Exit => L::Exit,
        X::Fork => L::Fork,
        X::Read => L::Read,
        X::Write => L::Write,
        X::Open => L::Open,
        X::Close => L::Close,
        X::Waitpid => L::Waitpid,
        X::Unlink => L::Unlink,
        X::Chdir => L::Chdir,
        X::Getpid => L::Getpid,
        X::Kill => L::Kill,
        X::Sigaction => L::Sigaction,
        X::Sigprocmask => L::Sigprocmask,
        X::Ioctl => L::Ioctl,
        X::Execve => L::Execve,
        X::Dup => L::Dup,
        X::Pipe => L::Pipe,
        X::Dup2 => L::Dup2,
        X::Select => L::Select,
        X::Socketpair => L::Socketpair,
        X::Mkdir => L::Mkdir,
        X::Sigreturn => L::Sigreturn,
        X::Stat64 => L::Stat64,
        X::Fstat64 => L::Fstat64,
        X::Getcwd => L::Getcwd,
        X::BsdthreadCreate
        | X::PsynchMutexwait
        | X::PsynchMutexdrop
        | X::PsynchCvbroad
        | X::PsynchCvsignal
        | X::PsynchCvwait
        | X::PosixSpawn => return None,
    })
}

fn encode_unix_result(r: TrapResult) -> UserTrapResult {
    let (reg, flags) = SyscallOutcome::from(r.outcome).encode_xnu();
    UserTrapResult {
        reg,
        flags,
        out_data: r.out_data,
    }
}

fn mach_result(reg: i64, out_data: Vec<u8>) -> UserTrapResult {
    UserTrapResult {
        reg,
        flags: CpuFlags::default(),
        out_data,
    }
}

// ----------------------------------------------------------------------
// Unix-class wrappers.
// ----------------------------------------------------------------------

fn build_unix_table(
    linux: &SyscallTable,
) -> Result<SyscallTable, DispatchError> {
    use XnuSyscall as X;
    let mut t = SyscallTableBuilder::new();

    // Calls whose XNU arguments and results mean what the Linux ones do
    // run the Linux handler itself, under its own name.
    for call in [
        X::Getpid,
        X::Read,
        X::Write,
        X::Close,
        X::Fork,
        X::Waitpid,
        X::Unlink,
        X::Mkdir,
        X::Chdir,
        X::Dup,
        X::Pipe,
        X::Socketpair,
    ] {
        let nr = xnu_to_linux_syscall(call)
            .expect("a shared call has a Linux number")
            .number();
        let (name, handler) = linux
            .lookup(nr)
            .expect("the Linux table installs every shared call");
        t.install(call.number(), name, handler)?;
    }

    // The adapters: each translates one XNU convention, then calls the
    // same `Kernel::sys_*` implementation the Linux handler calls.
    t.install(X::Open.number(), "open", |k, tid, args| {
        let SyscallData::Path(path) = &args.data else {
            return TrapResult::err(Errno::EFAULT);
        };
        // BSD flag numbering → Linux numbering.
        let flags = translate_open_flags(args.regs[1] as u32);
        match k.sys_open(tid, path, flags) {
            Ok(fd) => TrapResult::ok(fd.as_raw() as i64),
            Err(e) => TrapResult::err(e),
        }
    })?;

    t.install(X::Exit.number(), "exit", |k, tid, args| {
        // Tear down the Mach task state before the BSD exit path.
        if let Ok(pid) = caller_task(k, tid) {
            with_state(k, |k, st| st.destroy_task_space(k, tid, pid));
        }
        match k.sys_exit(tid, args.regs[0] as i32) {
            Ok(()) => TrapResult::ok(0),
            Err(e) => TrapResult::err(e),
        }
    })?;

    t.install(X::Kill.number(), "kill", |k, tid, args| {
        let target = Pid(args.regs[0] as u32);
        // The caller passes a *BSD* signal number.
        let Some(xsig) = XnuSignal::from_raw(args.regs[1] as i32) else {
            return TrapResult::err(Errno::EINVAL);
        };
        let Some(sig) = xsig.to_linux() else {
            // No domestic equivalent (SIGEMT/SIGINFO): dropped, but only
            // where a signal could have been queued.
            return k
                .signal_target(target)
                .map_or_else(TrapResult::err, |_| TrapResult::ok(0));
        };
        match k.sys_kill(tid, target, sig) {
            Ok(()) => TrapResult::ok(0),
            Err(e) => TrapResult::err(e),
        }
    })?;

    t.install(X::Sigaction.number(), "sigaction", |k, tid, args| {
        let Some(xsig) = XnuSignal::from_raw(args.regs[0] as i32) else {
            return TrapResult::err(Errno::EINVAL);
        };
        let Some(sig) = xsig.to_linux() else {
            return TrapResult::err(Errno::EINVAL);
        };
        let disp = match args.regs[1] {
            0 => SigDisposition::Default,
            1 => SigDisposition::Ignore,
            h => SigDisposition::Handler(h as u32),
        };
        match k.sys_sigaction(tid, sig, disp) {
            Ok(()) => TrapResult::ok(0),
            Err(e) => TrapResult::err(e),
        }
    })?;

    t.install(X::Select.number(), "select", |k, tid, args| {
        let SyscallData::FdSet(fds) = &args.data else {
            return TrapResult::err(Errno::EFAULT);
        };
        // BSD fd_set → Linux fd_set conversion.
        k.charge_cpu(2 * fds.len() as u64);
        let fds: Vec<Fd> = fds.iter().map(|&f| Fd(f)).collect();
        match k.sys_select(tid, &fds) {
            Ok(ready) => TrapResult::ok(ready.len() as i64),
            Err(e) => TrapResult::err(e),
        }
    })?;

    t.install(X::Stat64.number(), "stat64", |k, tid, args| {
        let SyscallData::Path(path) = &args.data else {
            return TrapResult::err(Errno::EFAULT);
        };
        match k.sys_stat(tid, path) {
            Ok(stat) => {
                // Linux stat → XNU stat64 structure conversion.
                k.charge_cpu(STRUCT_CONVERT_NS);
                let xs = XnuStat64::from(stat);
                let mut r = TrapResult::ok(0);
                r.out_data = encode_xnu_stat64(&xs);
                r
            }
            Err(e) => TrapResult::err(e),
        }
    })?;

    t.install(X::Execve.number(), "execve", |k, tid, args| {
        let SyscallData::Exec { path, argv } = &args.data else {
            return TrapResult::err(Errno::EFAULT);
        };
        let argv: Vec<&str> = argv.iter().map(|s| s.as_str()).collect();
        match sys_exec_fixup(k, tid, path, &argv) {
            Ok(()) => TrapResult::ok(0),
            Err(e) => TrapResult::err(e),
        }
    })?;

    // XNU-only calls: no Linux handler implements them.
    t.install(X::PosixSpawn.number(), "posix_spawn", |k, tid, args| {
        // "Cider implements the posix_spawn syscall ... by leveraging
        // the Linux clone and exec syscall implementations" (§4.1).
        let SyscallData::Exec { path, argv } = &args.data else {
            return TrapResult::err(Errno::EFAULT);
        };
        let argv: Vec<&str> = argv.iter().map(|s| s.as_str()).collect();
        let (child_pid, child_tid) = match k.sys_fork(tid) {
            Ok(v) => v,
            Err(e) => return TrapResult::err(e),
        };
        match sys_exec_fixup(k, child_tid, path, &argv) {
            Ok(()) => TrapResult::ok(child_pid.as_raw() as i64),
            Err(e) => {
                let _ = k.sys_exit(child_tid, 127);
                TrapResult::err(e)
            }
        }
    })?;

    t.install(
        X::PsynchMutexwait.number(),
        "psynch_mutexwait",
        |k, tid, args| {
            let addr = args.regs[0] as u64;
            match psynch(k, tid, |ps, api| ps.mutexwait(api, addr)) {
                PsynchOutcome::Acquired => TrapResult::ok(0),
                PsynchOutcome::Blocked => TrapResult::err(Errno::EAGAIN),
            }
        },
    )?;

    t.install(
        X::PsynchMutexdrop.number(),
        "psynch_mutexdrop",
        |k, tid, args| {
            let addr = args.regs[0] as u64;
            match psynch(k, tid, |ps, api| ps.mutexdrop(api, addr)) {
                Ok(()) => TrapResult::ok(0),
                Err(_) => TrapResult::err(Errno::EINVAL),
            }
        },
    )?;

    t.install(X::PsynchCvwait.number(), "psynch_cvwait", |k, tid, args| {
        let (cv, mutex) = (args.regs[0] as u64, args.regs[1] as u64);
        match psynch(k, tid, |ps, api| ps.cvwait(api, cv, mutex)) {
            Ok(PsynchOutcome::Acquired) => TrapResult::ok(0),
            Ok(PsynchOutcome::Blocked) => TrapResult::err(Errno::EAGAIN),
            Err(_) => TrapResult::err(Errno::EINVAL),
        }
    })?;

    t.install(
        X::PsynchCvsignal.number(),
        "psynch_cvsignal",
        |k, tid, args| {
            let cv = args.regs[0] as u64;
            let woken = psynch(k, tid, |ps, api| ps.cvsignal(api, cv));
            TrapResult::ok(woken.is_some() as i64)
        },
    )?;

    t.install(
        X::PsynchCvbroad.number(),
        "psynch_cvbroad",
        |k, tid, args| {
            let cv = args.regs[0] as u64;
            let n = psynch(k, tid, |ps, api| ps.cvbroadcast(api, cv));
            TrapResult::ok(n as i64)
        },
    )?;

    Ok(t.build())
}

// ----------------------------------------------------------------------
// Mach-class traps.
// ----------------------------------------------------------------------

fn build_mach_table() -> Result<SyscallTable, DispatchError> {
    use MachTrap as M;
    let mut t = SyscallTableBuilder::new();

    t.install(M::TaskSelfTrap.number(), "task_self_trap", |k, tid, _| {
        port_or_null(caller_task(k, tid).and_then(|pid| {
            with_state(k, |k, st| st.task_self_port(k, tid, pid))
        }))
    })?;

    t.install(
        M::ThreadSelfTrap.number(),
        "thread_self_trap",
        |k, tid, _| {
            bound_port(k, tid, KernelObject::Thread(tid.as_raw() as u64))
        },
    )?;

    t.install(M::HostSelfTrap.number(), "host_self_trap", |k, tid, _| {
        bound_port(k, tid, KernelObject::Host)
    })?;

    t.install(M::MachReplyPort.number(), "mach_reply_port", |k, tid, _| {
        port_or_null(caller_task(k, tid).and_then(|pid| {
            with_state(k, |k, st| st.port_allocate_for(k, tid, pid))
        }))
    })?;

    t.install(
        M::MachPortAllocate.number(),
        "mach_port_allocate",
        |k, tid, _| {
            kern_result(caller_task(k, tid).and_then(|pid| {
                with_state(k, |k, st| st.port_allocate_for(k, tid, pid))
                    .map(|n| n.as_raw() as i64)
            }))
        },
    )?;

    t.install(
        M::MachPortDeallocate.number(),
        "mach_port_deallocate",
        |k, tid, args| {
            let name = PortName(args.regs[0] as u32);
            kern_result(caller_task(k, tid).and_then(|pid| {
                with_state(k, |k, st| {
                    st.port_deallocate_for(k, tid, pid, name)
                })
                .map(|()| KernReturn::Success.as_raw())
            }))
        },
    )?;

    t.install(
        M::MachPortInsertRight.number(),
        "mach_port_insert_right",
        |k, tid, args| {
            // Simplified MAKE_SEND from a receive right.
            let name = PortName(args.regs[0] as u32);
            kern_result(caller_task(k, tid).and_then(|pid| {
                with_state(k, |_, st| {
                    let space = st.task_space(pid);
                    let recv = st.machipc.receive_right(space, name)?;
                    st.machipc.insert_send(space, recv)
                })
                .map(|s| s.name().as_raw() as i64)
            }))
        },
    )?;

    t.install(M::MachMsgTrap.number(), "mach_msg_trap", |k, tid, args| {
        const MACH_SEND_MSG: i64 = 1;
        const MACH_RCV_MSG: i64 = 2;
        let options = args.regs[0];
        let pid = match caller_task(k, tid) {
            Ok(pid) => pid,
            Err(kr) => return TrapResult::ok(kr.as_raw()),
        };
        if options & MACH_SEND_MSG != 0 {
            let SyscallData::Bytes(buf) = &args.data else {
                return TrapResult::ok(KernReturn::InvalidArgument.as_raw());
            };
            let msg = match wire::decode_user_message(buf) {
                Ok(m) => m,
                Err(_) => {
                    return TrapResult::ok(
                        KernReturn::InvalidArgument.as_raw(),
                    )
                }
            };
            let kr = with_state(k, |k, st| st.msg_send_for(k, tid, pid, msg));
            if let Err(e) = kr {
                return TrapResult::ok(e.as_raw());
            }
            if options & MACH_RCV_MSG == 0 {
                return TrapResult::ok(KernReturn::Success.as_raw());
            }
        }
        if options & MACH_RCV_MSG != 0 {
            let rcv_name = PortName(args.regs[2] as u32);
            let got = with_state(k, |k, st| {
                st.msg_receive_for(k, tid, pid, rcv_name)
            });
            return match got {
                Ok(m) => {
                    let mut r = TrapResult::ok(KernReturn::Success.as_raw());
                    r.out_data = wire::encode_received_message(&m);
                    r
                }
                Err(e) => TrapResult::ok(e.as_raw()),
            };
        }
        TrapResult::ok(KernReturn::Success.as_raw())
    })?;

    t.install(M::RingSubmit.number(), "ring_submit", |k, tid, args| {
        // Batch submission over the trap ABI: one crossing moves many
        // entries into the thread's ring (callers with the shared
        // mapping skip even this and write the queue directly).
        let pid = match caller_task(k, tid) {
            Ok(pid) => pid,
            Err(kr) => return TrapResult::ok(kr.as_raw()),
        };
        let SyscallData::Bytes(buf) = &args.data else {
            return TrapResult::ok(KernReturn::InvalidArgument.as_raw());
        };
        let ops = match wire::decode_ring_ops(buf) {
            Ok(o) => o,
            Err(_) => {
                return TrapResult::ok(KernReturn::InvalidArgument.as_raw())
            }
        };
        with_state(k, |k, st| {
            for op in ops {
                if st.ring_must_flush(k, tid) {
                    // We are already inside the kernel: flush inline.
                    st.ring_flush(k, tid, pid);
                }
                st.ring_mut(tid).push(op).expect("ring was just flushed");
            }
        });
        TrapResult::ok(KernReturn::Success.as_raw())
    })?;

    t.install(M::RingFlush.number(), "ring_flush", |k, tid, _| {
        // The completion count travels in the buffer, not the return
        // register — the register keeps the kern_return error band.
        let pid = match caller_task(k, tid) {
            Ok(pid) => pid,
            Err(kr) => return TrapResult::ok(kr.as_raw()),
        };
        let cs = with_state(k, |k, st| {
            st.ring_flush(k, tid, pid);
            st.ring_mut(tid).take_completions()
        });
        let mut r = TrapResult::ok(KernReturn::Success.as_raw());
        r.out_data = wire::encode_ring_completions(&cs);
        r
    })?;

    t.install(
        M::SemaphoreSignalTrap.number(),
        "semaphore_signal_trap",
        |k, tid, args| {
            let addr = args.regs[0] as u64;
            let kr = semaphore(k, tid, addr, PsynchState::semaphore_signal);
            kern_result(kr.map(|()| KernReturn::Success.as_raw()))
        },
    )?;

    t.install(
        M::SemaphoreWaitTrap.number(),
        "semaphore_wait_trap",
        |k, tid, args| {
            let addr = args.regs[0] as u64;
            match semaphore(k, tid, addr, PsynchState::semaphore_wait) {
                Ok(PsynchOutcome::Acquired) => {
                    TrapResult::ok(KernReturn::Success.as_raw())
                }
                Ok(PsynchOutcome::Blocked) => {
                    TrapResult::ok(KernReturn::RcvTimedOut.as_raw())
                }
                Err(e) => TrapResult::ok(e.as_raw()),
            }
        },
    )?;

    t.install(
        M::MachVmAllocate.number(),
        "mach_vm_allocate",
        |k, tid, args| {
            let size = args.regs[1] as u64;
            let pid = match caller_task(k, tid) {
                Ok(pid) => pid,
                Err(kr) => return TrapResult::ok(kr.as_raw()),
            };
            let addr = match k.process_mut(pid) {
                Ok(p) => p.mm.map(
                    size,
                    Prot::RW,
                    MappingKind::Anonymous,
                    "mach_vm_allocate",
                ),
                Err(e) => return TrapResult::err(e),
            };
            match addr {
                Ok(a) => TrapResult::ok(a as i64),
                Err(_) => TrapResult::ok(KernReturn::NoSpace.as_raw()),
            }
        },
    )?;

    t.install(M::ThreadSwitch.number(), "thread_switch", |k, tid, args| {
        // thread_switch(thread_name, option, option_time): the
        // simulator has one virtual CPU, so a directed handoff and
        // a plain yield both arbitrate through the same run queues
        // that serve the domestic `sched_yield`.
        let r = match SwitchOption::from_raw(args.regs[1] as u64) {
            SwitchOption::Depress => k.sys_sched_depress(tid).map(|_| ()),
            SwitchOption::None | SwitchOption::Wait => k.sys_sched_yield(tid),
        };
        match r {
            Ok(()) => TrapResult::ok(KernReturn::Success.as_raw()),
            Err(e) => TrapResult::err(e),
        }
    })?;

    t.install(M::Swtch.number(), "swtch", |k, tid, _| {
        // Returns the boolean_t "did some other thread run".
        match k.sys_swtch(tid) {
            Ok(switched) => TrapResult::ok(switched as i64),
            Err(e) => TrapResult::err(e),
        }
    })?;

    t.install(M::SwtchPri.number(), "swtch_pri", |k, tid, _| {
        match k.sys_sched_depress(tid) {
            Ok(switched) => TrapResult::ok(switched as i64),
            Err(e) => TrapResult::err(e),
        }
    })?;

    t.install(
        M::ThreadPolicySet.number(),
        "thread_policy_set",
        |k, tid, args| {
            let Some(flavor) =
                ThreadPolicyFlavor::from_raw(args.regs[1] as u64)
            else {
                return TrapResult::ok(KernReturn::InvalidArgument.as_raw());
            };
            match flavor {
                ThreadPolicyFlavor::Standard => {
                    k.sched.set_policy(tid, SchedPolicy::Timeshare);
                    k.sched.set_priority(tid, BASEPRI_DEFAULT);
                }
                ThreadPolicyFlavor::TimeConstraint => {
                    // Real-time threads keep their band on quantum
                    // expiry instead of gaining a dedicated band — the
                    // simulator has no deadline clock.
                    k.sched.set_policy(tid, SchedPolicy::Fixed);
                }
                ThreadPolicyFlavor::Precedence => {
                    let importance = args.regs[2];
                    let base = k
                        .sched
                        .priority(tid)
                        .map_or(BASEPRI_DEFAULT, |(b, _)| b);
                    k.sched.set_priority(
                        tid,
                        clamp_user_priority(base as i64 + importance),
                    );
                }
            }
            TrapResult::ok(KernReturn::Success.as_raw())
        },
    )?;

    t.install(
        M::MachVmDeallocate.number(),
        "mach_vm_deallocate",
        |k, tid, args| {
            let addr = args.regs[1] as u64;
            let pid = match caller_task(k, tid) {
                Ok(pid) => pid,
                Err(kr) => return TrapResult::ok(kr.as_raw()),
            };
            match k.process_mut(pid) {
                Ok(p) => match p.mm.unmap(addr) {
                    Ok(_) => TrapResult::ok(KernReturn::Success.as_raw()),
                    Err(_) => {
                        TrapResult::ok(KernReturn::InvalidArgument.as_raw())
                    }
                },
                Err(e) => TrapResult::err(e),
            }
        },
    )?;

    Ok(t.build())
}

/// A port-returning trap's result: the name, or `MACH_PORT_NULL`, since
/// these traps have no error band.
fn port_or_null(name: KernResult<PortName>) -> TrapResult {
    TrapResult::ok(name.map_or(0, |n| n.as_raw() as i64))
}

/// A Mach trap's result in the register: the value, or the
/// `kern_return` code.
fn kern_result(r: KernResult<i64>) -> TrapResult {
    TrapResult::ok(r.unwrap_or_else(KernReturn::as_raw))
}

/// `thread_self_trap` and `host_self_trap`: a fresh port in the
/// caller's space, bound to `object` (a failed bind leaves it unbound).
fn bound_port(k: &mut Kernel, tid: Tid, object: KernelObject) -> TrapResult {
    port_or_null(caller_task(k, tid).and_then(|pid| {
        with_state(k, |k, st| {
            let name = st.port_allocate_for(k, tid, pid)?;
            let space = st.task_space(pid);
            let _ = st.machipc.set_kobject(space, name, object);
            Ok(name)
        })
    }))
}

/// Runs `f` on psynch in the calling thread's duct-tape scope.
fn psynch<R>(
    k: &mut Kernel,
    tid: Tid,
    f: impl FnOnce(&mut PsynchState, &mut dyn ForeignKernelApi) -> R,
) -> R {
    with_state(k, |k, st| st.with_xnu(k, tid, |_, ps, api| f(ps, api)))
}

/// Runs a semaphore trap's `f` on the semaphore at `addr`, creating it
/// with a count of 0 on first use.
fn semaphore<R>(
    k: &mut Kernel,
    tid: Tid,
    addr: u64,
    f: impl FnOnce(&mut PsynchState, &mut dyn ForeignKernelApi, u64) -> R,
) -> R {
    psynch(k, tid, |ps, api| {
        if ps.semaphore_count(addr).is_none() {
            ps.semaphore_create(addr, 0);
        }
        f(ps, api, addr)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_flag_translation() {
        use xnu_oflags::*;
        let f = translate_open_flags(O_RDWR | O_CREAT | O_TRUNC);
        assert!(f.contains(OpenFlags::CREAT));
        assert!(f.contains(OpenFlags::TRUNC));
        assert!(f.writable() && f.readable());
        let f = translate_open_flags(0);
        assert!(f.readable() && !f.writable());
        let f = translate_open_flags(O_WRONLY | O_APPEND);
        assert!(f.writable() && !f.readable());
        assert!(f.contains(OpenFlags::APPEND));
    }

    #[test]
    fn tables_cover_the_expected_calls() {
        let p = XnuPersonality::new();
        assert!(p.unix_table().lookup(XnuSyscall::Open.number()).is_some());
        assert!(p
            .unix_table()
            .lookup(XnuSyscall::PosixSpawn.number())
            .is_some());
        assert!(p
            .mach_table()
            .lookup(MachTrap::MachMsgTrap.number())
            .is_some());
        assert!(p.unix_table().len() >= 20);
        assert!(p.mach_table().len() >= 10);
    }

    /// Every Unix-class entry with a Linux counterpart is the Linux
    /// table's own handler, except the seven calls that translate an
    /// XNU convention first.
    #[test]
    fn shared_unix_calls_run_the_linux_handlers() {
        use XnuSyscall as X;
        let xnu = XnuPersonality::new();
        let linux = LinuxPersonality::new();
        let mut adapted = Vec::new();
        for (nr, _) in xnu.unix_table().entries() {
            let call = XnuSyscall::from_number(nr).expect("installed");
            let Some(domestic) = xnu_to_linux_syscall(call) else {
                continue;
            };
            let ours = xnu.unix_table().handler(nr).expect("installed");
            let theirs = linux
                .table()
                .handler(domestic.number())
                .expect("Linux installs every translated call");
            if !std::ptr::fn_addr_eq(ours, theirs) {
                adapted.push(call);
            }
        }
        assert_eq!(
            adapted,
            [
                X::Exit,
                X::Open,
                X::Kill,
                X::Sigaction,
                X::Execve,
                X::Select,
                X::Stat64
            ]
        );
    }

    #[test]
    fn personality_reports_xnu_signal_shape() {
        let p = XnuPersonality::new();
        assert_eq!(p.sigframe_bytes(), sigframe::XNU_FRAME_BYTES);
        // SIGUSR1 renumbers from 10 to 30.
        assert_eq!(p.signal_number(Signal::SIGUSR1), Some(30));
        assert!(p.signal_translation_ns() > 0);
    }

    mod trap_level {
        use super::*;
        use crate::persona::attach_persona_ext;
        use crate::state::CiderState;
        use cider_abi::persona::Persona;
        use cider_abi::syscall::XnuTrap;
        use cider_kernel::profile::DeviceProfile;
        use std::sync::Arc;

        fn xnu_kernel() -> (Kernel, Tid) {
            let mut k = Kernel::boot(DeviceProfile::nexus7());
            k.extensions.insert(CiderState::new());
            let xnu = k.register_personality(Arc::new(XnuPersonality::new()));
            k.enable_cider();
            let (_, tid) = k.spawn_process();
            attach_persona_ext(&mut k, tid, Persona::Foreign, xnu).unwrap();
            (k, tid)
        }

        fn unix_trap(
            k: &mut Kernel,
            tid: Tid,
            call: XnuSyscall,
            args: SyscallArgs,
        ) -> cider_kernel::dispatch::UserTrapResult {
            k.trap(tid, XnuTrap::Unix(call).encode(), &args)
        }

        #[test]
        fn pipe_and_dup_wrappers() {
            let (mut k, tid) = xnu_kernel();
            let r =
                unix_trap(&mut k, tid, XnuSyscall::Pipe, SyscallArgs::none());
            assert!(!r.flags.carry);
            let read_fd = (r.reg & 0xFFFF_FFFF) as i32;
            let write_fd = (r.reg >> 32) as i32;
            assert_ne!(read_fd, write_fd);
            let d = unix_trap(
                &mut k,
                tid,
                XnuSyscall::Dup,
                SyscallArgs::regs([read_fd as i64, 0, 0, 0, 0, 0, 0]),
            );
            assert!(!d.flags.carry);
            assert_ne!(d.reg, read_fd as i64);
        }

        #[test]
        fn socketpair_wrapper() {
            let (mut k, tid) = xnu_kernel();
            let r = unix_trap(
                &mut k,
                tid,
                XnuSyscall::Socketpair,
                SyscallArgs::none(),
            );
            assert!(!r.flags.carry);
            let a = Fd((r.reg & 0xFFFF_FFFF) as i32);
            let b = Fd((r.reg >> 32) as i32);
            k.sys_write(tid, a, b"hi").unwrap();
            assert_eq!(k.sys_read(tid, b, 4).unwrap(), b"hi");
        }

        #[test]
        fn mkdir_chdir_unlink_wrappers() {
            let (mut k, tid) = xnu_kernel();
            let mut args = SyscallArgs::none();
            args.data = SyscallData::Path("/tmp/xd".into());
            assert!(
                !unix_trap(&mut k, tid, XnuSyscall::Mkdir, args.clone())
                    .flags
                    .carry
            );
            assert!(
                !unix_trap(&mut k, tid, XnuSyscall::Chdir, args.clone())
                    .flags
                    .carry
            );
            assert_eq!(k.sys_getcwd(tid).unwrap(), "/tmp/xd");
            let mut missing = SyscallArgs::none();
            missing.data = SyscallData::Path("/tmp/none".into());
            let r = unix_trap(&mut k, tid, XnuSyscall::Unlink, missing);
            assert!(r.flags.carry);
            assert_eq!(r.reg, 2, "ENOENT");
        }

        #[test]
        fn waitpid_wrapper_reports_exit_code() {
            let (mut k, tid) = xnu_kernel();
            let f =
                unix_trap(&mut k, tid, XnuSyscall::Fork, SyscallArgs::none());
            assert!(!f.flags.carry);
            let child_pid = Pid(f.reg as u32);
            let child_tid = k.process(child_pid).unwrap().threads[0];
            unix_trap(
                &mut k,
                child_tid,
                XnuSyscall::Exit,
                SyscallArgs::regs([42, 0, 0, 0, 0, 0, 0]),
            );
            let w = unix_trap(
                &mut k,
                tid,
                XnuSyscall::Waitpid,
                SyscallArgs::regs([f.reg, 0, 0, 0, 0, 0, 0]),
            );
            assert!(!w.flags.carry);
            assert_eq!(w.reg, 42);
        }

        #[test]
        fn kill_checks_its_target_before_dropping_a_signal() {
            use XnuSignal::{SIGEMT, SIGINFO, SIGUSR1};
            let (mut k, tid) = xnu_kernel();
            let kill = |k: &mut Kernel, pid: u32, sig: XnuSignal| {
                let regs =
                    [i64::from(pid), i64::from(sig.as_raw()), 0, 0, 0, 0, 0];
                unix_trap(k, tid, XnuSyscall::Kill, SyscallArgs::regs(regs))
            };
            let charged = |k: &mut Kernel, pid: u32, sig: XnuSignal| {
                let t0 = k.clock.now_ns();
                let r = kill(k, pid, sig);
                (r, k.clock.now_ns() - t0)
            };
            // What every trap of seven registers pays before its handler
            // runs: the persona check and the XNU entry translation.
            let entry = k.profile.cpu_ns(k.profile.persona_check_ns)
                + k.profile.cpu_ns(TRANSLATE_ENTRY_NS + 7 * TRANSLATE_ARG_NS);
            let esrch = cider_abi::errno::XnuErrno::ESRCH.as_raw() as i64;
            let f =
                unix_trap(&mut k, tid, XnuSyscall::Fork, SyscallArgs::none());
            let zombie = Pid(f.reg as u32);
            let child_tid = k.process(zombie).unwrap().threads[0];
            k.sys_exit(child_tid, 0).unwrap();
            for (pid, sig) in
                [(9999, SIGINFO), (9999, SIGEMT), (zombie.0, SIGINFO)]
            {
                let (r, ns) = charged(&mut k, pid, sig);
                assert!(r.flags.carry, "kill({pid}, {sig:?})");
                assert_eq!(r.reg, esrch, "kill({pid}, {sig:?})");
                assert_eq!(ns, entry, "kill({pid}, {sig:?})");
            }
            // A translatable signal enters the Linux syscall, which
            // charges its own entry before it finds no target.
            let (r, ns) = charged(&mut k, 9999, SIGUSR1);
            assert!(r.flags.carry);
            assert_eq!(r.reg, esrch);
            assert!(ns > entry, "{ns} vs {entry}");
            let own = k.thread(tid).unwrap().pid;
            let (r, ns) = charged(&mut k, own.0, SIGINFO);
            assert!(!r.flags.carry);
            assert_eq!(r.reg, 0);
            assert_eq!(ns, entry);
        }

        #[test]
        fn machdep_and_diag_classes_dispatch() {
            let (mut k, tid) = xnu_kernel();
            let r = k.trap(
                tid,
                XnuTrap::MachDep(3).encode(),
                &SyscallArgs::none(),
            );
            assert_eq!(r.reg, 0, "TLS machdep is a no-op");
            let r =
                k.trap(tid, XnuTrap::Diag(1).encode(), &SyscallArgs::none());
            assert_eq!(r.reg, KernReturn::InvalidArgument.as_raw());
        }

        #[test]
        fn thread_switch_trap_hands_off_to_a_peer_thread() {
            use cider_abi::syscall::MachTrap;
            let (mut k, tid) = xnu_kernel();
            let peer = k.spawn_thread(tid).unwrap();
            assert_eq!(k.current(), Some(tid));
            let r = k.trap(
                tid,
                XnuTrap::Mach(MachTrap::ThreadSwitch).encode(),
                &SyscallArgs::regs([0, 0, 0, 0, 0, 0, 0]),
            );
            assert_eq!(r.reg, KernReturn::Success.as_raw());
            assert_eq!(k.current(), Some(peer), "yield must hand off");
        }

        #[test]
        fn swtch_trap_reports_whether_anyone_else_ran() {
            use cider_abi::syscall::MachTrap;
            let (mut k, tid) = xnu_kernel();
            let r = k.trap(
                tid,
                XnuTrap::Mach(MachTrap::Swtch).encode(),
                &SyscallArgs::none(),
            );
            assert_eq!(r.reg, 0, "no peer: swtch returns FALSE");
            let peer = k.spawn_thread(tid).unwrap();
            let r = k.trap(
                tid,
                XnuTrap::Mach(MachTrap::Swtch).encode(),
                &SyscallArgs::none(),
            );
            assert_eq!(r.reg, 1, "peer ran: swtch returns TRUE");
            assert_eq!(k.current(), Some(peer));
        }

        #[test]
        fn swtch_pri_trap_depresses_and_hands_off() {
            use cider_abi::syscall::MachTrap;
            let (mut k, tid) = xnu_kernel();
            let peer = k.spawn_thread(tid).unwrap();
            let r = k.trap(
                tid,
                XnuTrap::Mach(MachTrap::SwtchPri).encode(),
                &SyscallArgs::regs([0, 0, 0, 0, 0, 0, 0]),
            );
            assert_eq!(r.reg, 1);
            assert_eq!(k.current(), Some(peer));
            let (_, eff) = k.sched.priority(tid).unwrap();
            assert_eq!(
                eff,
                cider_abi::sched::DEPRESSPRI,
                "caller runs depressed until undepressed"
            );
        }

        #[test]
        fn thread_policy_set_trap_adjusts_the_run_queues() {
            use cider_abi::syscall::MachTrap;
            let (mut k, tid) = xnu_kernel();
            // PRECEDENCE raises the base priority by `importance`.
            let r = k.trap(
                tid,
                XnuTrap::Mach(MachTrap::ThreadPolicySet).encode(),
                &SyscallArgs::regs([
                    0,
                    ThreadPolicyFlavor::Precedence.as_raw() as i64,
                    16,
                    0,
                    0,
                    0,
                    0,
                ]),
            );
            assert_eq!(r.reg, KernReturn::Success.as_raw());
            assert_eq!(k.sched.priority(tid).unwrap().0, BASEPRI_DEFAULT + 16);
            // TIME_CONSTRAINT pins the band (fixed policy).
            let r = k.trap(
                tid,
                XnuTrap::Mach(MachTrap::ThreadPolicySet).encode(),
                &SyscallArgs::regs([
                    0,
                    ThreadPolicyFlavor::TimeConstraint.as_raw() as i64,
                    0,
                    0,
                    0,
                    0,
                    0,
                ]),
            );
            assert_eq!(r.reg, KernReturn::Success.as_raw());
            // STANDARD restores the timeshare default.
            let r = k.trap(
                tid,
                XnuTrap::Mach(MachTrap::ThreadPolicySet).encode(),
                &SyscallArgs::regs([
                    0,
                    ThreadPolicyFlavor::Standard.as_raw() as i64,
                    0,
                    0,
                    0,
                    0,
                    0,
                ]),
            );
            assert_eq!(r.reg, KernReturn::Success.as_raw());
            assert_eq!(k.sched.priority(tid).unwrap().0, BASEPRI_DEFAULT);
            // An unknown flavor is rejected without touching state.
            let r = k.trap(
                tid,
                XnuTrap::Mach(MachTrap::ThreadPolicySet).encode(),
                &SyscallArgs::regs([0, 99, 0, 0, 0, 0, 0]),
            );
            assert_eq!(r.reg, KernReturn::InvalidArgument.as_raw());
        }

        #[test]
        fn unknown_trap_numbers_fail_cleanly() {
            let (mut k, tid) = xnu_kernel();
            let r = k.trap(tid, 299, &SyscallArgs::none());
            assert!(r.flags.carry);
            assert_eq!(r.reg, 78, "XNU ENOSYS");
            let r = k.trap(tid, -99, &SyscallArgs::none());
            assert!(r.flags.carry, "undecodable trap is ENOSYS too");
        }

        #[test]
        fn missing_payload_is_efault() {
            let (mut k, tid) = xnu_kernel();
            let r = unix_trap(
                &mut k,
                tid,
                XnuSyscall::Write,
                SyscallArgs::regs([1, 0, 1, 0, 0, 0, 0]),
            );
            assert!(r.flags.carry);
            assert_eq!(
                r.reg,
                cider_abi::errno::XnuErrno::EFAULT.as_raw() as i64
            );
        }

        /// What a raw `read` reaches: a file read from offset 1, or the
        /// read end of a pipe or socket pair.
        #[derive(Clone, Copy)]
        enum Readable {
            FileAtOffset1,
            Pipe,
            Socket,
        }

        /// A traced thread of the XNU or the Linux persona holding a
        /// descriptor of `kind`, and the bytes it can read. Tracing is
        /// on, as on fleet devices, so every read also adds its count
        /// to the `vfs/read/bytes` counter.
        fn reader(
            kind: Readable,
            xnu: bool,
        ) -> (Kernel, Tid, Fd, &'static [u8]) {
            let (mut k, xnu_tid) = xnu_kernel();
            k.trace = cider_trace::TraceSink::enabled_default();
            let tid = if xnu { xnu_tid } else { k.spawn_process().1 };
            let (fd, bytes): (Fd, &'static [u8]) = match kind {
                Readable::FileAtOffset1 => {
                    k.vfs.mkdir_p("/tmp").unwrap();
                    k.vfs.write_file("/tmp/f", b"abc".to_vec()).unwrap();
                    let fd =
                        k.sys_open(tid, "/tmp/f", OpenFlags::RDONLY).unwrap();
                    assert_eq!(k.sys_read(tid, fd, 1).unwrap(), b"a");
                    (fd, b"bc")
                }
                Readable::Pipe => {
                    let (r, w) = k.sys_pipe(tid).unwrap();
                    k.sys_write(tid, w, b"abc").unwrap();
                    (r, b"abc")
                }
                Readable::Socket => {
                    let (a, b) = k.sys_socketpair(tid).unwrap();
                    k.sys_write(tid, a, b"abc").unwrap();
                    (b, b"abc")
                }
            };
            (k, tid, fd, bytes)
        }

        /// A raw `read` trap with `count` in the count register.
        fn raw_read(
            k: &mut Kernel,
            tid: Tid,
            xnu: bool,
            fd: Fd,
            count: i64,
        ) -> cider_kernel::dispatch::UserTrapResult {
            let nr = if xnu {
                XnuTrap::Unix(XnuSyscall::Read).encode()
            } else {
                LinuxSyscall::Read.number() as i64
            };
            let fd = i64::from(fd.as_raw());
            k.trap(tid, nr, &SyscallArgs::regs([fd, 0, count, 0, 0, 0, 0]))
        }

        /// A count of −1, `usize::MAX` once decoded, reads exactly what
        /// a count of the readable bytes reads from the same state, at
        /// the same virtual cost.
        fn oversized_read_count_reads_what_is_there(
            kind: Readable,
            xnu: bool,
        ) {
            let (mut k, tid, fd, bytes) = reader(kind, xnu);
            let (mut exact, exact_tid, exact_fd, _) = reader(kind, xnu);
            assert_eq!((tid, fd), (exact_tid, exact_fd));
            let all = raw_read(&mut k, tid, xnu, fd, -1);
            let want = raw_read(&mut exact, tid, xnu, fd, bytes.len() as i64);
            assert_eq!(all, want);
            assert_eq!(all.out_data, bytes);
            // Nothing is left: end of file, or EAGAIN with the writer
            // still open. The counter of requested bytes saturates.
            let again = raw_read(&mut k, tid, xnu, fd, -1);
            assert_eq!(again, raw_read(&mut exact, tid, xnu, fd, 1));
            assert_eq!(k.trace.counter("vfs/read/bytes"), u64::MAX);
            assert_eq!(k.clock.now_ns(), exact.clock.now_ns());
        }

        #[test]
        fn oversized_read_count_on_a_file_at_offset_1_linux() {
            oversized_read_count_reads_what_is_there(
                Readable::FileAtOffset1,
                false,
            );
        }

        #[test]
        fn oversized_read_count_on_a_file_at_offset_1_xnu() {
            oversized_read_count_reads_what_is_there(
                Readable::FileAtOffset1,
                true,
            );
        }

        #[test]
        fn oversized_read_count_on_a_pipe_linux() {
            oversized_read_count_reads_what_is_there(Readable::Pipe, false);
        }

        #[test]
        fn oversized_read_count_on_a_pipe_xnu() {
            oversized_read_count_reads_what_is_there(Readable::Pipe, true);
        }

        #[test]
        fn oversized_read_count_on_a_socket_linux() {
            oversized_read_count_reads_what_is_there(Readable::Socket, false);
        }

        #[test]
        fn oversized_read_count_on_a_socket_xnu() {
            oversized_read_count_reads_what_is_there(Readable::Socket, true);
        }

        /// Every injected fault class must surface through the XNU
        /// error conventions: Unix-class faults as positive errnos
        /// with the carry flag set, Mach-class faults as kern_return
        /// codes (or `MACH_PORT_NULL` for port-returning traps, which
        /// have no error band).
        #[test]
        fn injected_fault_classes_follow_the_xnu_convention() {
            use super::super::xnu_oflags::{O_CREAT, O_RDWR};
            use cider_abi::errno::XnuErrno;
            use cider_abi::syscall::MachTrap;
            use cider_fault::{FaultLayer, FaultPlan, FaultSite};
            use cider_kernel::dispatch::SyscallData;

            let (mut k, tid) = xnu_kernel();
            k.vfs.mkdir_p("/tmp").unwrap();
            // Bootstrap the IPC subsystem so the ports zone exists —
            // without it zalloc is never consulted for ports.
            with_state(&mut k, |k, st| {
                st.with_xnu(k, tid, |ipc, _, api| ipc.bootstrap(api));
            });
            fn arm(k: &mut Kernel, site: FaultSite) {
                k.faults =
                    FaultLayer::with_plan(FaultPlan::new(7).with(site, 1000));
            }
            fn mach_trap(
                k: &mut Kernel,
                tid: Tid,
                trap: MachTrap,
                args: SyscallArgs,
            ) -> cider_kernel::dispatch::UserTrapResult {
                k.trap(tid, XnuTrap::Mach(trap).encode(), &args)
            }

            // A clean file so read/write reach the injection sites.
            let mut open = SyscallArgs::regs([
                0,
                (O_CREAT | O_RDWR) as i64,
                0o644,
                0,
                0,
                0,
                0,
            ]);
            open.data = SyscallData::Path("/tmp/faulty".into());
            let r = unix_trap(&mut k, tid, XnuSyscall::Open, open);
            assert!(!r.flags.carry);
            let fd = r.reg;
            let mut w = SyscallArgs::regs([fd, 0, 1, 0, 0, 0, 0]);
            w.data = SyscallData::Bytes(vec![b'a'].into());
            let ok = unix_trap(&mut k, tid, XnuSyscall::Write, w.clone());
            assert!(!ok.flags.carry);

            for (site, errno, doit) in [
                (FaultSite::VfsRead, XnuErrno::EIO, XnuSyscall::Read),
                (FaultSite::VfsWrite, XnuErrno::EIO, XnuSyscall::Write),
            ] {
                arm(&mut k, site);
                let args = if doit == XnuSyscall::Write {
                    w.clone()
                } else {
                    SyscallArgs::regs([fd, 0, 1, 0, 0, 0, 0])
                };
                let r = unix_trap(&mut k, tid, doit, args);
                assert!(r.flags.carry, "{site:?} must set carry");
                assert_eq!(r.reg, errno.as_raw() as i64, "{site:?}");
            }

            // vfs_create → ENOSPC.
            arm(&mut k, FaultSite::VfsCreate);
            let mut c = SyscallArgs::regs([
                0,
                (O_CREAT | O_RDWR) as i64,
                0o644,
                0,
                0,
                0,
                0,
            ]);
            c.data = SyscallData::Path("/tmp/full".into());
            let r = unix_trap(&mut k, tid, XnuSyscall::Open, c);
            assert!(r.flags.carry);
            assert_eq!(r.reg, XnuErrno::ENOSPC.as_raw() as i64);

            // fork_pte_copy → ENOMEM.
            arm(&mut k, FaultSite::ForkPteCopy);
            let r =
                unix_trap(&mut k, tid, XnuSyscall::Fork, SyscallArgs::none());
            assert!(r.flags.carry);
            assert_eq!(r.reg, XnuErrno::ENOMEM.as_raw() as i64);

            // zalloc exhaustion: a port-returning trap answers
            // MACH_PORT_NULL, never a panic and never an errno.
            arm(&mut k, FaultSite::Zalloc);
            let r = mach_trap(
                &mut k,
                tid,
                MachTrap::MachReplyPort,
                SyscallArgs::none(),
            );
            assert!(!r.flags.carry);
            assert_eq!(r.reg, 0, "MACH_PORT_NULL");

            // mach_port_allocate has an error band: KERN_NO_SPACE.
            arm(&mut k, FaultSite::MachPortAllocate);
            let r = mach_trap(
                &mut k,
                tid,
                MachTrap::MachPortAllocate,
                SyscallArgs::none(),
            );
            assert_eq!(r.reg, KernReturn::NoSpace.as_raw());

            // mach_msg send → MACH_SEND_TOO_LARGE as a kern_return.
            k.faults = FaultLayer::inactive();
            let port = mach_trap(
                &mut k,
                tid,
                MachTrap::MachPortAllocate,
                SyscallArgs::none(),
            )
            .reg;
            let send = mach_trap(
                &mut k,
                tid,
                MachTrap::MachPortInsertRight,
                SyscallArgs::regs([port, 0, 0, 0, 0, 0, 0]),
            )
            .reg;
            arm(&mut k, FaultSite::MachMsgSend);
            let msg = cider_xnu::ipc::UserMessage::simple(
                PortName(send as u32),
                5,
                bytes::Bytes::from(&b"x"[..]),
            );
            let mut args = SyscallArgs::regs([1, 0, 0, 0, 0, 0, 0]);
            args.data =
                SyscallData::Bytes(wire::encode_user_message(&msg).into());
            let r = mach_trap(&mut k, tid, MachTrap::MachMsgTrap, args);
            assert_eq!(r.reg, KernReturn::SendTooLarge.as_raw());
        }
    }

    #[test]
    fn stat64_encoding_is_stable() {
        let s = XnuStat64 {
            ino: 7,
            mode: 0o100644,
            nlink: 1,
            size: 1234,
            blocks: 3,
            mtimespec: cider_abi::types::TimeSpec { sec: 5, nsec: 6 },
            birthtimespec: cider_abi::types::TimeSpec { sec: 5, nsec: 6 },
        };
        let bytes = encode_xnu_stat64(&s);
        assert_eq!(bytes.len(), 8 + 4 + 4 + 8 + 8 + 32);
        assert_eq!(u64::from_le_bytes(bytes[0..8].try_into().unwrap()), 7);
    }
}
