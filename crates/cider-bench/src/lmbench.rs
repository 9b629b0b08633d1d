//! The lmbench 3.0 microbenchmark suite (paper §6.2, Figure 5), measured
//! in virtual time on a [`TestBed`].
//!
//! Each function returns the per-operation latency. The same driver runs
//! on all four configurations; only the binary's ecosystem (and hence
//! its trap numbers, persona, and address-space shape) differs — exactly
//! the paper's methodology of compiling lmbench "as an ELF Linux binary
//! version, and a Mach-O iOS binary version".

use cider_abi::errno::Errno;
use cider_abi::ids::{Fd, Pid, Tid};
use cider_abi::signal::{Signal, XnuSignal};
use cider_abi::syscall::{LinuxSyscall, MachTrap, XnuSyscall, XnuTrap};
use cider_abi::types::OpenFlags;
use cider_core::xnu_abi::xnu_to_linux_syscall;
use cider_kernel::clock::VirtualDuration;
use cider_kernel::dispatch::{SyscallArgs, SyscallData};
use cider_kernel::profile::BasicOp;

use crate::config::TestBed;

/// The raw trap number a binary of the given ecosystem issues for `x`:
/// the XNU Unix trap on iOS, and on Android the Linux call the XNU
/// persona translates it to ([`xnu_to_linux_syscall`]).
///
/// # Panics
///
/// Panics if `x` has no Linux counterpart; every call lmbench issues
/// has one.
pub fn trap_number(ios: bool, x: XnuSyscall) -> i64 {
    if ios {
        XnuTrap::Unix(x).encode()
    } else {
        let l =
            xnu_to_linux_syscall(x).expect("lmbench call has a Linux twin");
        l.number() as i64
    }
}

/// The signal number the measured binary passes for "SIGUSR1".
pub fn sigusr1_number(ios: bool) -> i64 {
    if ios {
        XnuSignal::SIGUSR1.as_raw() as i64 // 30
    } else {
        Signal::SIGUSR1.as_raw() as i64 // 10
    }
}

/// Virtual time per iteration of `f` over `iters` iterations.
pub(crate) fn measure<F: FnMut(&mut TestBed)>(
    bed: &mut TestBed,
    iters: u64,
    mut f: F,
) -> VirtualDuration {
    let t0 = bed.sys.kernel.clock.now_ns();
    for _ in 0..iters {
        f(bed);
    }
    VirtualDuration::from_nanos((bed.sys.kernel.clock.now_ns() - t0) / iters)
}

// ----------------------------------------------------------------------
// Basic CPU operations.
// ----------------------------------------------------------------------

/// Latency of one basic CPU operation for this configuration's device
/// and compiler, in (fractional) nanoseconds. Executes a batch of the
/// real operation so wall-clock benchmarks exercise genuine work.
pub fn basic_op_latency_ns(bed: &TestBed, op: BasicOp) -> f64 {
    // Real work for the host-time benchmarks.
    let mut acc: u64 = 3;
    let mut facc: f64 = 1.1;
    for i in 1..64u64 {
        match op {
            BasicOp::IntMul => acc = acc.wrapping_mul(i | 1),
            BasicOp::IntDiv => acc = acc.wrapping_add(u64::MAX / (i | 1)),
            BasicOp::DoubleAdd => facc += i as f64,
            BasicOp::DoubleMul => facc *= 1.0000001,
            BasicOp::DoubleBogomflops => {
                facc = facc * 1.0000001 + 0.5;
            }
        }
    }
    std::hint::black_box((acc, facc));
    let device = (bed.sys.kernel.profile.basic_op_ns)(op);
    device * bed.config.toolchain().basic_op_factor(op)
}

// ----------------------------------------------------------------------
// Syscalls and signals.
// ----------------------------------------------------------------------

/// lmbench `null syscall`.
pub fn null_syscall(bed: &mut TestBed, tid: Tid) -> VirtualDuration {
    let ios = bed.config.runs_ios_binary();
    let nr = trap_number(ios, XnuSyscall::Getpid);
    measure(bed, 64, |bed| {
        let r = bed.sys.trap(tid, nr, &SyscallArgs::none());
        debug_assert!(r.reg > 0);
    })
}

/// lmbench `read`: one byte from a cached file.
///
/// # Errors
///
/// Setup errors from the kernel.
pub fn read_lat(
    bed: &mut TestBed,
    tid: Tid,
) -> Result<VirtualDuration, Errno> {
    let ios = bed.config.runs_ios_binary();
    bed.sys
        .kernel
        .vfs
        .write_file("/tmp/zero", vec![0u8; 4096])?;
    let fd = bed
        .sys
        .kernel
        .sys_open(tid, "/tmp/zero", OpenFlags::RDONLY)?;
    let nr = trap_number(ios, XnuSyscall::Read);
    let d = measure(bed, 64, |bed| {
        let mut args =
            SyscallArgs::regs([fd.as_raw() as i64, 0, 1, 0, 0, 0, 0]);
        args.data = SyscallData::None;
        bed.sys.trap(tid, nr, &args);
    });
    bed.sys.kernel.sys_close(tid, fd)?;
    Ok(d)
}

/// lmbench `write`: one byte to the console sink.
pub fn write_lat(bed: &mut TestBed, tid: Tid) -> VirtualDuration {
    let ios = bed.config.runs_ios_binary();
    let nr = trap_number(ios, XnuSyscall::Write);
    measure(bed, 64, |bed| {
        let mut args =
            SyscallArgs::regs([Fd::STDOUT.as_raw() as i64, 0, 1, 0, 0, 0, 0]);
        args.data = SyscallData::Bytes(vec![0u8].into());
        bed.sys.trap(tid, nr, &args);
    })
}

/// lmbench `open/close`.
///
/// # Errors
///
/// Setup errors.
pub fn open_close_lat(
    bed: &mut TestBed,
    tid: Tid,
) -> Result<VirtualDuration, Errno> {
    let ios = bed.config.runs_ios_binary();
    bed.sys.kernel.vfs.write_file("/tmp/openme", vec![1])?;
    let nr_open = trap_number(ios, XnuSyscall::Open);
    let nr_close = trap_number(ios, XnuSyscall::Close);
    Ok(measure(bed, 32, |bed| {
        let mut args = SyscallArgs::none();
        args.data = SyscallData::Path("/tmp/openme".into());
        let r = bed.sys.trap(tid, nr_open, &args);
        let fd = r.reg;
        debug_assert!(fd >= 0, "open failed");
        bed.sys.trap(
            tid,
            nr_close,
            &SyscallArgs::regs([fd, 0, 0, 0, 0, 0, 0]),
        );
    }))
}

/// lmbench `signal handler` latency: install once, then deliver to self
/// repeatedly.
///
/// # Errors
///
/// Setup errors.
pub fn signal_handler_lat(
    bed: &mut TestBed,
    pid: Pid,
    tid: Tid,
) -> Result<VirtualDuration, Errno> {
    let ios = bed.config.runs_ios_binary();
    // Install the handler through the binary's own sigaction numbering.
    let nr_sigaction = trap_number(ios, XnuSyscall::Sigaction);
    let mut args = SyscallArgs::regs([
        sigusr1_number(ios),
        2, // handler id
        0,
        0,
        0,
        0,
        0,
    ]);
    args.data = SyscallData::None;
    let r = bed.sys.trap(tid, nr_sigaction, &args);
    if r.flags.carry || r.reg < 0 {
        return Err(Errno::EINVAL);
    }
    let nr_kill = trap_number(ios, XnuSyscall::Kill);
    Ok(measure(bed, 32, |bed| {
        let args = SyscallArgs::regs([
            pid.as_raw() as i64,
            sigusr1_number(ios),
            0,
            0,
            0,
            0,
            0,
        ]);
        bed.sys.trap(tid, nr_kill, &args);
    }))
}

// ----------------------------------------------------------------------
// Process creation.
// ----------------------------------------------------------------------

/// lmbench `fork+exit`.
///
/// # Errors
///
/// Kernel errors.
pub fn fork_exit_lat(
    bed: &mut TestBed,
    tid: Tid,
) -> Result<VirtualDuration, Errno> {
    let k = &mut bed.sys.kernel;
    let t0 = k.clock.now_ns();
    let iters = 4;
    for _ in 0..iters {
        let (child_pid, child_tid) = k.sys_fork(tid)?;
        k.sys_exit(child_tid, 0)?;
        k.sys_waitpid(tid, child_pid)?;
    }
    Ok(VirtualDuration::from_nanos((k.clock.now_ns() - t0) / iters))
}

/// lmbench `fork+exec`: the child execs a hello-world binary of the
/// given ecosystem and runs it to completion.
///
/// # Errors
///
/// Kernel errors.
pub fn fork_exec_lat(
    bed: &mut TestBed,
    tid: Tid,
    exec_ios: bool,
) -> Result<VirtualDuration, Errno> {
    let hello = bed.hello_path(exec_ios);
    let k = &mut bed.sys.kernel;
    let t0 = k.clock.now_ns();
    let iters = 3;
    for _ in 0..iters {
        let (child_pid, child_tid) = k.sys_fork(tid)?;
        cider_core::exec::sys_exec_fixup(k, child_tid, hello, &[hello])?;
        k.run_entry(child_tid)?;
        k.sys_waitpid(tid, child_pid)?;
    }
    Ok(VirtualDuration::from_nanos((k.clock.now_ns() - t0) / iters))
}

/// Warm-start `fork+exec`: the same launch as [`fork_exec_lat`], but
/// with zygote-style warm start enabled on the kernel for its duration
/// — `fork` goes copy-on-write and `exec(ios)` maps the prelinked
/// shared cache. The launches are driven from a dedicated warm
/// "zygote" parent: one untimed exec pays the cold closure walk that
/// bakes the cache (as the first launch on a fleet device does), a
/// second untimed exec re-loads the parent itself from the cache so
/// its handler registration is the coalesced prelinked one, and only
/// then are the launches timed. The bed's shared measured process is
/// never touched, and warm mode (not the baked cache) is switched off
/// again on return, so rows measured after this one still see the
/// cold machine.
///
/// # Errors
///
/// Kernel errors.
pub fn fork_exec_warm_lat(
    bed: &mut TestBed,
    _tid: Tid,
    exec_ios: bool,
) -> Result<VirtualDuration, Errno> {
    let hello = bed.hello_path(exec_ios);
    let zygote = if exec_ios {
        crate::config::paths::LMBENCH_MACHO
    } else {
        crate::config::paths::LMBENCH_ELF
    };
    let (_, ztid) = bed.sys.spawn_process();
    let k = &mut bed.sys.kernel;
    let was_enabled = k.warm.is_enabled();
    k.warm.set_enabled(true);
    let run = (|| {
        // Untimed: the first exec's cold walk bakes the cache; the
        // second re-loads the zygote from it (cache-resident image,
        // coalesced callbacks).
        cider_core::exec::sys_exec_fixup(k, ztid, zygote, &[zygote])?;
        cider_core::exec::sys_exec_fixup(k, ztid, zygote, &[zygote])?;

        let t0 = k.clock.now_ns();
        let iters = 3;
        for _ in 0..iters {
            let (child_pid, child_tid) = k.sys_fork(ztid)?;
            cider_core::exec::sys_exec_fixup(k, child_tid, hello, &[hello])?;
            k.run_entry(child_tid)?;
            k.sys_waitpid(ztid, child_pid)?;
        }
        let per_launch = (k.clock.now_ns() - t0) / iters;
        k.sys_exit(ztid, 0)?;
        Ok(VirtualDuration::from_nanos(per_launch))
    })();
    k.warm.set_enabled(was_enabled);
    run
}

/// lmbench `fork+sh`: the child execs the shell, which launches the
/// target binary.
///
/// # Errors
///
/// Kernel errors.
pub fn fork_sh_lat(
    bed: &mut TestBed,
    tid: Tid,
    target_ios: bool,
) -> Result<VirtualDuration, Errno> {
    let sh = bed.sh_path();
    let hello = bed.hello_path(target_ios);
    let k = &mut bed.sys.kernel;
    let t0 = k.clock.now_ns();
    let iters = 3;
    for _ in 0..iters {
        let (child_pid, child_tid) = k.sys_fork(tid)?;
        cider_core::exec::sys_exec_fixup(k, child_tid, sh, &[sh, hello])?;
        k.run_entry(child_tid)?;
        k.sys_waitpid(tid, child_pid)?;
    }
    Ok(VirtualDuration::from_nanos((k.clock.now_ns() - t0) / iters))
}

// ----------------------------------------------------------------------
// Local communication and files.
// ----------------------------------------------------------------------

/// lmbench `pipe` latency: one-way byte transfer between two processes
/// including the context switch.
///
/// # Errors
///
/// Kernel errors.
pub fn pipe_lat(
    bed: &mut TestBed,
    tid: Tid,
) -> Result<VirtualDuration, Errno> {
    let k = &mut bed.sys.kernel;
    let (r1, w1) = k.sys_pipe(tid)?;
    let (r2, w2) = k.sys_pipe(tid)?;
    let (child_pid, child_tid) = k.sys_fork(tid)?;
    let rounds = 16;
    let t0 = k.clock.now_ns();
    for _ in 0..rounds {
        k.sys_write(tid, w1, b"x")?;
        k.switch_to(child_tid)?;
        k.sys_read(child_tid, r1, 1)?;
        k.sys_write(child_tid, w2, b"y")?;
        k.switch_to(tid)?;
        k.sys_read(tid, r2, 1)?;
    }
    let per_oneway = (k.clock.now_ns() - t0) / (rounds * 2);
    k.sys_exit(child_tid, 0)?;
    k.sys_waitpid(tid, child_pid)?;
    for fd in [r1, w1, r2, w2] {
        let _ = k.sys_close(tid, fd);
    }
    Ok(VirtualDuration::from_nanos(per_oneway))
}

/// The raw yield trap a binary of the given ecosystem issues: POSIX
/// `sched_yield` for Linux binaries, the `thread_switch` Mach trap for
/// iOS binaries. Both land on the same kernel run queues.
pub fn yield_trap_number(ios: bool) -> i64 {
    if ios {
        XnuTrap::Mach(MachTrap::ThreadSwitch).encode()
    } else {
        LinuxSyscall::SchedYield.number() as i64
    }
}

/// lmbench `lat_ctx`: `n` processes pass a token around a ring of
/// pipes. Every hop writes the token into the next slot's pipe and
/// relinquishes the CPU through the measured binary's own yield trap,
/// so the scheduler — not the harness — arbitrates each dispatch and
/// every hop carries a real context-switch charge.
///
/// # Errors
///
/// Kernel errors.
pub fn lat_ctx(
    bed: &mut TestBed,
    tid: Tid,
    n: usize,
) -> Result<VirtualDuration, Errno> {
    debug_assert!(n >= 2, "a ring needs at least two processes");
    let ios = bed.config.runs_ios_binary();
    let yield_nr = yield_trap_number(ios);
    // pipes[i] carries the token *into* ring slot i.
    let mut pipes = Vec::with_capacity(n);
    let mut tids = vec![tid];
    let mut children = Vec::new();
    {
        let k = &mut bed.sys.kernel;
        for _ in 0..n {
            pipes.push(k.sys_pipe(tid)?);
        }
        for _ in 1..n {
            let (child_pid, child_tid) = k.sys_fork(tid)?;
            children.push((child_pid, child_tid));
            tids.push(child_tid);
        }
    }
    let hops = 4 * n;
    let t0 = bed.sys.kernel.clock.now_ns();
    for h in 0..hops {
        let holder = tids[h % n];
        let next = (h + 1) % n;
        bed.sys.kernel.sys_write(holder, pipes[next].1, b"t")?;
        bed.sys.trap(holder, yield_nr, &SyscallArgs::none());
        bed.sys.kernel.sys_read(tids[next], pipes[next].0, 1)?;
    }
    let per_hop = (bed.sys.kernel.clock.now_ns() - t0) / hops as u64;
    let k = &mut bed.sys.kernel;
    for (child_pid, child_tid) in children {
        k.sys_exit(child_tid, 0)?;
        k.sys_waitpid(tid, child_pid)?;
    }
    // Leave the bed running the measured process again.
    k.switch_to(tid)?;
    for (r, w) in pipes {
        let _ = k.sys_close(tid, r);
        let _ = k.sys_close(tid, w);
    }
    Ok(VirtualDuration::from_nanos(per_hop))
}

/// lmbench `AF_UNIX` latency.
///
/// # Errors
///
/// Kernel errors.
pub fn af_unix_lat(
    bed: &mut TestBed,
    tid: Tid,
) -> Result<VirtualDuration, Errno> {
    let k = &mut bed.sys.kernel;
    let (a, b) = k.sys_socketpair(tid)?;
    let (child_pid, child_tid) = k.sys_fork(tid)?;
    let rounds = 16;
    let t0 = k.clock.now_ns();
    for _ in 0..rounds {
        k.sys_write(tid, a, b"x")?;
        k.switch_to(child_tid)?;
        k.sys_read(child_tid, b, 1)?;
        k.sys_write(child_tid, b, b"y")?;
        k.switch_to(tid)?;
        k.sys_read(tid, a, 1)?;
    }
    let per_oneway = (k.clock.now_ns() - t0) / (rounds * 2);
    k.sys_exit(child_tid, 0)?;
    k.sys_waitpid(tid, child_pid)?;
    Ok(VirtualDuration::from_nanos(per_oneway))
}

/// lmbench `select` on `n` descriptors; `None` when the kernel's
/// implementation fails at that size (the iPad at 250, §6.2).
///
/// # Errors
///
/// Setup errors.
pub fn select_lat(
    bed: &mut TestBed,
    tid: Tid,
    n: usize,
) -> Result<Option<VirtualDuration>, Errno> {
    let ios = bed.config.runs_ios_binary();
    let k = &mut bed.sys.kernel;
    let mut fds = Vec::with_capacity(n);
    let mut all = Vec::with_capacity(n * 2);
    for _ in 0..n {
        let (r, w) = k.sys_pipe(tid)?;
        fds.push(r.as_raw());
        all.push(r);
        all.push(w);
    }
    let nr = trap_number(ios, XnuSyscall::Select);
    let mut failed = false;
    let d = measure(bed, 16, |bed| {
        let mut args = SyscallArgs::none();
        args.data = SyscallData::FdSet(fds.clone().into());
        let r = bed.sys.trap(tid, nr, &args);
        let err = if bed.config.runs_ios_binary() {
            r.flags.carry
        } else {
            r.reg < 0
        };
        failed |= err;
    });
    for fd in all {
        let _ = bed.sys.kernel.sys_close(tid, fd);
    }
    Ok(if failed { None } else { Some(d) })
}

/// lmbench file create/delete with `size` bytes of content.
///
/// # Errors
///
/// Kernel errors.
pub fn file_create_delete_lat(
    bed: &mut TestBed,
    tid: Tid,
    size: usize,
) -> Result<VirtualDuration, Errno> {
    let k = &mut bed.sys.kernel;
    let data = vec![7u8; size];
    let iters = 16;
    let t0 = k.clock.now_ns();
    for _ in 0..iters {
        let fd = k.sys_open(
            tid,
            "/tmp/lmfile",
            OpenFlags::RDWR | OpenFlags::CREAT,
        )?;
        if size > 0 {
            k.sys_write(tid, fd, &data)?;
        }
        k.sys_close(tid, fd)?;
        k.sys_unlink(tid, "/tmp/lmfile")?;
    }
    Ok(VirtualDuration::from_nanos((k.clock.now_ns() - t0) / iters))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;

    fn bed_and_proc(config: SystemConfig) -> (TestBed, Pid, Tid) {
        let mut bed = TestBed::builder(config).build();
        let (pid, tid) = bed.spawn_measured().unwrap();
        (bed, pid, tid)
    }

    #[test]
    fn null_syscall_overheads_match_the_paper() {
        let (mut vanilla, _, t0) = bed_and_proc(SystemConfig::VanillaAndroid);
        let base = null_syscall(&mut vanilla, t0).ns as f64;
        let (mut cider_a, _, t1) = bed_and_proc(SystemConfig::CiderAndroid);
        let ca = null_syscall(&mut cider_a, t1).ns as f64;
        let (mut cider_i, _, t2) = bed_and_proc(SystemConfig::CiderIos);
        let ci = null_syscall(&mut cider_i, t2).ns as f64;
        // §6.2: 8.5 % for Cider/Android, 40 % for Cider/iOS.
        let over_a = ca / base - 1.0;
        let over_i = ci / base - 1.0;
        assert!((0.05..0.12).contains(&over_a), "android overhead {over_a}");
        assert!((0.30..0.50).contains(&over_i), "ios overhead {over_i}");
    }

    #[test]
    fn signal_overheads_match_the_paper() {
        let (mut vanilla, p0, t0) = bed_and_proc(SystemConfig::VanillaAndroid);
        let base = signal_handler_lat(&mut vanilla, p0, t0).unwrap().ns as f64;
        let (mut cider_a, p1, t1) = bed_and_proc(SystemConfig::CiderAndroid);
        let ca = signal_handler_lat(&mut cider_a, p1, t1).unwrap().ns as f64;
        let (mut cider_i, p2, t2) = bed_and_proc(SystemConfig::CiderIos);
        let ci = signal_handler_lat(&mut cider_i, p2, t2).unwrap().ns as f64;
        let over_a = ca / base - 1.0;
        let over_i = ci / base - 1.0;
        // §6.2: 3 % and 25 %.
        assert!((0.01..0.08).contains(&over_a), "android overhead {over_a}");
        assert!((0.15..0.35).contains(&over_i), "ios overhead {over_i}");
        // The iOS binary saw the XNU signal number.
        let delivered = &cider_i.sys.kernel.thread(t2).unwrap().delivered;
        assert!(delivered.iter().all(|d| d.user_number == 30));
    }

    #[test]
    fn fork_exit_is_about_14x_for_ios() {
        let (mut vanilla, _, t0) = bed_and_proc(SystemConfig::VanillaAndroid);
        let base = fork_exit_lat(&mut vanilla, t0).unwrap();
        // §6.2: "the Linux binary takes 245 µs".
        assert!(
            (180_000..320_000).contains(&base.ns),
            "vanilla fork+exit {base}"
        );
        let (mut cider_i, _, t2) = bed_and_proc(SystemConfig::CiderIos);
        let ios = fork_exit_lat(&mut cider_i, t2).unwrap();
        // §6.2: "the iOS binary takes 3.75 ms" — almost 14×.
        let ratio = ios.ns as f64 / base.ns as f64;
        assert!(
            (11.0..18.0).contains(&ratio),
            "fork+exit ratio {ratio:.1} (ios {ios}, base {base})"
        );
    }

    #[test]
    fn ipad_fork_exit_beats_cider_ios() {
        // §6.2: shared-cache optimisation makes the iPad significantly
        // faster at fork+exit than Cider.
        let (mut cider_i, _, t) = bed_and_proc(SystemConfig::CiderIos);
        let cider = fork_exit_lat(&mut cider_i, t).unwrap();
        let (mut ipad, _, t) = bed_and_proc(SystemConfig::IpadMini);
        let native = fork_exit_lat(&mut ipad, t).unwrap();
        assert!(
            native.ns * 2 < cider.ns * 3, // at least ~1.5x faster
            "ipad {native} vs cider {cider}"
        );
    }

    #[test]
    fn fork_exec_android_shape() {
        let (mut vanilla, _, t0) = bed_and_proc(SystemConfig::VanillaAndroid);
        let base = fork_exec_lat(&mut vanilla, t0, false).unwrap();
        // §6.2: "roughly 590 µs".
        assert!(
            (400_000..800_000).contains(&base.ns),
            "vanilla fork+exec {base}"
        );
        let (mut cider_i, _, t2) = bed_and_proc(SystemConfig::CiderIos);
        let ios_parent = fork_exec_lat(&mut cider_i, t2, false).unwrap();
        // §6.2: "4.8 times longer" when the parent is an iOS binary,
        // and cheaper than the iOS fork+exit because the exec discards
        // the exit handlers.
        let ratio = ios_parent.ns as f64 / base.ns as f64;
        assert!((3.5..7.0).contains(&ratio), "ratio {ratio:.1}");
        let fork_exit = fork_exit_lat(&mut cider_i, t2).unwrap();
        assert!(
            ios_parent.ns < fork_exit.ns,
            "exec(android) {ios_parent} should undercut fork+exit {fork_exit}"
        );
    }

    #[test]
    fn fork_exec_ios_dominated_by_dyld_walk() {
        let (mut cider_a, _, t1) = bed_and_proc(SystemConfig::CiderAndroid);
        let android_child = fork_exec_lat(&mut cider_a, t1, false).unwrap();
        let ios_child = fork_exec_lat(&mut cider_a, t1, true).unwrap();
        // Spawning an iOS child is much more expensive: dyld walks the
        // filesystem for all 115 libraries.
        assert!(
            ios_child.ns > android_child.ns * 3,
            "ios child {ios_child} vs android child {android_child}"
        );
        // The iPad's shared cache avoids the walk: compare the two iOS
        // parents spawning iOS children (§6.2: "Running the fork+exec
        // test on the iPad mini is faster than using Cider").
        let (mut cider_i, _, t2) = bed_and_proc(SystemConfig::CiderIos);
        let cider_full = fork_exec_lat(&mut cider_i, t2, true).unwrap();
        let (mut ipad, _, t3) = bed_and_proc(SystemConfig::IpadMini);
        let ipad_full = fork_exec_lat(&mut ipad, t3, true).unwrap();
        assert!(
            ipad_full.ns < cider_full.ns,
            "ipad {ipad_full} vs cider {cider_full}"
        );
    }

    #[test]
    fn fork_sh_overhead_matches_the_paper() {
        let (mut vanilla, _, t0) = bed_and_proc(SystemConfig::VanillaAndroid);
        let base = fork_sh_lat(&mut vanilla, t0, false).unwrap();
        let (mut cider_i, _, t2) = bed_and_proc(SystemConfig::CiderIos);
        let ios = fork_sh_lat(&mut cider_i, t2, false).unwrap();
        // §6.2: the iOS binary "takes 110% longer" on fork+sh(android):
        // the 6.8 ms measurement against a ~3 ms baseline.
        let over = ios.ns as f64 / base.ns as f64 - 1.0;
        assert!((0.6..1.8).contains(&over), "overhead {over:.2}");
    }

    #[test]
    fn select_scales_and_fails_on_the_ipad() {
        let (mut cider_i, _, t) = bed_and_proc(SystemConfig::CiderIos);
        let c10 = select_lat(&mut cider_i, t, 10).unwrap().unwrap();
        let c100 = select_lat(&mut cider_i, t, 100).unwrap().unwrap();
        assert!(c100.ns > c10.ns * 5);
        // Cider handles 250 fds fine...
        assert!(select_lat(&mut cider_i, t, 250).unwrap().is_some());
        // ...the iPad does not (§6.2).
        let (mut ipad, _, t) = bed_and_proc(SystemConfig::IpadMini);
        assert!(select_lat(&mut ipad, t, 250).unwrap().is_none());
        assert!(select_lat(&mut ipad, t, 100).unwrap().is_some());
    }

    #[test]
    fn pipe_and_afunix_similar_across_android_configs() {
        let (mut vanilla, _, t0) = bed_and_proc(SystemConfig::VanillaAndroid);
        let base = pipe_lat(&mut vanilla, t0).unwrap();
        let (mut cider_i, _, t2) = bed_and_proc(SystemConfig::CiderIos);
        let ios = pipe_lat(&mut cider_i, t2).unwrap();
        // §6.2: "quite similar for all three system configurations".
        let ratio = ios.ns as f64 / base.ns as f64;
        assert!((0.9..1.3).contains(&ratio), "pipe ratio {ratio:.2}");
        let af = af_unix_lat(&mut cider_i, t2).unwrap();
        assert!(af.ns > 0);
    }

    #[test]
    fn lat_ctx_stays_within_the_paper_band() {
        let (mut vanilla, _, t0) = bed_and_proc(SystemConfig::VanillaAndroid);
        let (mut cider_a, _, t1) = bed_and_proc(SystemConfig::CiderAndroid);
        let (mut cider_i, _, t2) = bed_and_proc(SystemConfig::CiderIos);
        for n in [2, 4, 8, 16] {
            let base = lat_ctx(&mut vanilla, t0, n).unwrap().ns as f64;
            let ca = lat_ctx(&mut cider_a, t1, n).unwrap().ns as f64;
            let ci = lat_ctx(&mut cider_i, t2, n).unwrap().ns as f64;
            let ra = ca / base;
            let ri = ci / base;
            // §6.2's local-communication story extends to context
            // switching: the persona-multiplexed trap path adds per-hop
            // translation but never a second switch.
            assert!((0.95..=1.3).contains(&ra), "lat_ctx {n}p android {ra}");
            assert!((0.95..=1.3).contains(&ri), "lat_ctx {n}p ios {ri}");
        }
    }

    #[test]
    fn lat_ctx_context_switches_scale_with_hops() {
        let (mut bed, _, tid) = bed_and_proc(SystemConfig::CiderIos);
        let before = bed.sys.kernel.counters.context_switches;
        lat_ctx(&mut bed, tid, 4).unwrap();
        let switches = bed.sys.kernel.counters.context_switches - before;
        // 16 hops, each arbitrated by the scheduler, plus ring set-up
        // and tear-down switching.
        assert!(switches >= 16, "only {switches} context switches");
    }

    #[test]
    fn file_create_delete_works_on_all_configs() {
        for config in SystemConfig::ALL {
            let (mut bed, _, tid) = bed_and_proc(config);
            let d0 = file_create_delete_lat(&mut bed, tid, 0).unwrap();
            let d10k =
                file_create_delete_lat(&mut bed, tid, 10 * 1024).unwrap();
            assert!(d10k.ns > d0.ns, "{config:?}");
        }
    }

    #[test]
    fn basic_ops_reflect_compiler_and_device() {
        let vanilla = TestBed::builder(SystemConfig::VanillaAndroid).build();
        let cider_ios = TestBed::builder(SystemConfig::CiderIos).build();
        let ipad = TestBed::builder(SystemConfig::IpadMini).build();
        // Int divide: the iOS compiler generates worse code (§6.2).
        let v = basic_op_latency_ns(&vanilla, BasicOp::IntDiv);
        let ci = basic_op_latency_ns(&cider_ios, BasicOp::IntDiv);
        assert!(ci > v * 1.3);
        // The iPad is slower across the board.
        let ip = basic_op_latency_ns(&ipad, BasicOp::IntMul);
        let cv = basic_op_latency_ns(&vanilla, BasicOp::IntMul);
        assert!(ip > cv);
    }
}
