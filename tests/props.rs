//! Property-based tests over the core invariants: Mach port-right
//! conservation under arbitrary operation sequences, VFS consistency,
//! serialisation round trips, and parser robustness on arbitrary bytes.

use bytes::Bytes;
use cider_abi::ids::PortName;
use cider_abi::rights::ReceiveRight;
use cider_apps::vm::{assemble, disassemble, Insn};
use cider_core::wire;
use cider_ducttape::adapter::{DuctTape, DuctTapeState};
use cider_kernel::kernel::Kernel;
use cider_kernel::profile::DeviceProfile;
use cider_kernel::vfs::Vfs;
use cider_loader::{Elf, MachO};
use cider_xnu::ipc::{
    MachIpc, PortDescriptor, PortDisposition, SpaceId, UserMessage,
};
use proptest::prelude::*;

// ----------------------------------------------------------------------
// Mach IPC: port-right conservation.
// ----------------------------------------------------------------------

/// Abstract IPC operations; indices are taken modulo the live sets so
/// every generated sequence is executable.
#[derive(Debug, Clone)]
enum IpcOp {
    AllocatePort {
        space: u8,
    },
    MakeSend {
        space: u8,
        pick: u8,
    },
    CopySend {
        from: u8,
        pick: u8,
        to: u8,
    },
    Deallocate {
        space: u8,
        pick: u8,
    },
    DestroyReceive {
        space: u8,
        pick: u8,
    },
    Send {
        space: u8,
        pick: u8,
        with_reply: bool,
        carry_right: bool,
    },
    Receive {
        space: u8,
        pick: u8,
    },
}

fn ipc_op_strategy() -> impl Strategy<Value = IpcOp> {
    prop_oneof![
        (any::<u8>()).prop_map(|space| IpcOp::AllocatePort { space }),
        (any::<u8>(), any::<u8>())
            .prop_map(|(space, pick)| IpcOp::MakeSend { space, pick }),
        (any::<u8>(), any::<u8>(), any::<u8>())
            .prop_map(|(from, pick, to)| IpcOp::CopySend { from, pick, to }),
        (any::<u8>(), any::<u8>())
            .prop_map(|(space, pick)| IpcOp::Deallocate { space, pick }),
        (any::<u8>(), any::<u8>())
            .prop_map(|(space, pick)| IpcOp::DestroyReceive { space, pick }),
        (any::<u8>(), any::<u8>(), any::<bool>(), any::<bool>()).prop_map(
            |(space, pick, with_reply, carry_right)| IpcOp::Send {
                space,
                pick,
                with_reply,
                carry_right,
            }
        ),
        (any::<u8>(), any::<u8>())
            .prop_map(|(space, pick)| IpcOp::Receive { space, pick }),
    ]
}

fn pick_name(
    ipc: &MachIpc,
    space: SpaceId,
    pick: u8,
    want_recv: bool,
) -> Option<PortName> {
    // Enumerate names via the space's public iterator.
    let names: Vec<PortName> = ipc
        .space_names(space)
        .into_iter()
        .filter(|(_, right)| {
            if want_recv {
                *right == cider_xnu::ipc::RightType::Receive
            } else {
                matches!(
                    right,
                    cider_xnu::ipc::RightType::Send
                        | cider_xnu::ipc::RightType::SendOnce
                )
            }
        })
        .map(|(n, _)| n)
        .collect();
    if names.is_empty() {
        return None;
    }
    Some(names[pick as usize % names.len()])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn mach_port_rights_are_conserved(ops in prop::collection::vec(ipc_op_strategy(), 1..60)) {
        let mut k = Kernel::boot(DeviceProfile::nexus7());
        let (_, tid) = k.spawn_process();
        let mut st = DuctTapeState::new();
        let mut ipc = MachIpc::new();
        {
            let mut api = DuctTape::new(&mut k, &mut st, tid);
            ipc.bootstrap(&mut api);
        }
        let spaces: Vec<SpaceId> = (0..3).map(|_| ipc.create_space()).collect();
        let sp = |i: u8| spaces[i as usize % spaces.len()];

        for op in ops {
            let mut api = DuctTape::new(&mut k, &mut st, tid);
            match op {
                IpcOp::AllocatePort { space } => {
                    let _ = ipc.alloc_receive(&mut api, sp(space));
                }
                IpcOp::MakeSend { space, pick } => {
                    if let Some(n) = pick_name(&ipc, sp(space), pick, true) {
                        if let Ok(recv) = ipc.receive_right(sp(space), n) {
                            let _ = ipc.insert_send(sp(space), recv);
                        }
                    }
                }
                IpcOp::CopySend { from, pick, to } => {
                    if let Some(n) = pick_name(&ipc, sp(from), pick, false) {
                        // `pick_name` may yield a send-once right, which
                        // `send_right` correctly refuses to validate.
                        if let Ok(send) = ipc.send_right(sp(from), n) {
                            let _ = ipc.copy_send(sp(from), send, sp(to));
                        }
                    }
                }
                IpcOp::Deallocate { space, pick } => {
                    if let Some(n) = pick_name(&ipc, sp(space), pick, false) {
                        let _ = ipc.port_deallocate(&mut api, sp(space), n);
                    }
                }
                IpcOp::DestroyReceive { space, pick } => {
                    if let Some(n) = pick_name(&ipc, sp(space), pick, true) {
                        let _ = ipc.port_destroy(&mut api, sp(space), n);
                    }
                }
                IpcOp::Send { space, pick, with_reply, carry_right } => {
                    if let Some(dest) = pick_name(&ipc, sp(space), pick, false) {
                        let mut msg = UserMessage::simple(
                            dest,
                            1,
                            Bytes::from(&b"p"[..]),
                        );
                        if with_reply {
                            if let Some(r) =
                                pick_name(&ipc, sp(space), pick, true)
                            {
                                msg.local_port = r;
                            }
                        }
                        if carry_right {
                            if let Some(r) =
                                pick_name(&ipc, sp(space), pick.wrapping_add(1), true)
                            {
                                msg.ports.push(PortDescriptor {
                                    name: r,
                                    disposition: PortDisposition::MakeSend,
                                });
                            }
                        }
                        let _ = ipc.send(&mut api, sp(space), msg);
                    }
                }
                IpcOp::Receive { space, pick } => {
                    if let Some(n) = pick_name(&ipc, sp(space), pick, true) {
                        let _ = ipc.receive(
                            &mut api,
                            sp(space),
                            ReceiveRight::from_name(n),
                        );
                    }
                }
            }
            // The invariant holds after *every* operation.
            ipc.check_invariants();
        }
    }
}

// ----------------------------------------------------------------------
// IPC v2: OOL payloads survive both the page-remap path and the copy
// fallback bit for bit.
// ----------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Under v2, out-of-line regions round-trip bit-identically whether
    /// the host remaps the pages or refuses and forces the copy
    /// fallback — and the remap accounting matches exactly the
    /// above-threshold bytes.
    #[test]
    fn ool_round_trip_is_bit_identical(
        blobs in prop::collection::vec(
            prop::collection::vec(any::<u8>(), 0..3 * 4096),
            1..4,
        ),
        body in prop::collection::vec(any::<u8>(), 0..64),
        refuse in any::<bool>(),
    ) {
        use cider_xnu::api::MockForeignKernel;
        use cider_xnu::ipc::OOL_INLINE_THRESHOLD;

        let mut api = MockForeignKernel::new();
        api.refuse_remap = refuse;
        let mut ipc = MachIpc::new();
        ipc.bootstrap(&mut api);
        ipc.set_v2(true);
        let space = ipc.create_space();
        let recv = ipc.alloc_receive(&mut api, space).unwrap();
        let send = ipc.insert_send(space, recv).unwrap();

        let mut msg =
            UserMessage::simple(send.name(), 42, Bytes::from(body.clone()));
        msg.ool = blobs.iter().cloned().map(Bytes::from).collect();
        let large: u64 = blobs
            .iter()
            .filter(|b| b.len() >= OOL_INLINE_THRESHOLD)
            .map(|b| b.len() as u64)
            .sum();
        ipc.send(&mut api, space, msg).unwrap();
        let got = ipc.receive(&mut api, space, recv).unwrap();
        prop_assert_eq!(got.body, Bytes::from(body));
        let got_ool: Vec<Vec<u8>> =
            got.ool.iter().map(|b| b.to_vec()).collect();
        prop_assert_eq!(got_ool, blobs);
        // Every above-threshold byte remaps when the host allows it;
        // none do when it refuses and the copy fallback runs.
        prop_assert_eq!(
            ipc.stats.ool_bytes_remapped,
            if refuse { 0 } else { large }
        );
        ipc.check_invariants();
    }
}

// ----------------------------------------------------------------------
// VFS consistency.
// ----------------------------------------------------------------------

fn path_strategy() -> impl Strategy<Value = String> {
    prop::collection::vec("[a-c]{1,3}", 1..4)
        .prop_map(|comps| format!("/{}", comps.join("/")))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn vfs_write_then_read_is_identity(
        path in path_strategy(),
        data in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        let mut fs = Vfs::new();
        let parent: Vec<&str> =
            path.trim_start_matches('/').split('/').collect();
        if parent.len() > 1 {
            fs.mkdir_p(&format!("/{}", parent[..parent.len() - 1].join("/")))
                .unwrap();
        }
        fs.write_file(&path, data.clone()).unwrap();
        prop_assert_eq!(fs.read_file(&path).unwrap(), data);
        prop_assert!(fs.exists(&path));
        fs.unlink(&path).unwrap();
        prop_assert!(!fs.exists(&path));
    }

    #[test]
    fn vfs_overlay_always_shadows(
        path in path_strategy(),
        lower in prop::collection::vec(any::<u8>(), 1..32),
        upper in prop::collection::vec(any::<u8>(), 1..32),
    ) {
        let mut fs = Vfs::new();
        let parent: Vec<&str> =
            path.trim_start_matches('/').split('/').collect();
        if parent.len() > 1 {
            fs.mkdir_p(&format!("/{}", parent[..parent.len() - 1].join("/")))
                .unwrap();
        }
        fs.write_file(&path, lower.clone()).unwrap();
        fs.write_file_overlay(&path, upper.clone()).unwrap();
        let r = fs.resolve(&path).unwrap();
        prop_assert!(r.in_overlay);
        prop_assert_eq!(fs.read_file(&path).unwrap(), upper);
    }
}

// ----------------------------------------------------------------------
// Serialisation round trips and parser robustness.
// ----------------------------------------------------------------------

fn insn_strategy() -> impl Strategy<Value = Insn> {
    let r = any::<u8>().prop_map(|v| v % 32);
    let f = any::<u8>().prop_map(|v| v % 16);
    prop_oneof![
        (r.clone(), any::<i64>()).prop_map(|(d, v)| Insn::ConstI(d, v)),
        (f.clone(), any::<i64>())
            .prop_map(|(d, v)| Insn::ConstF(d, v as f64 / 7.0)),
        (r.clone(), r.clone()).prop_map(|(d, s)| Insn::Move(d, s)),
        (r.clone(), r.clone(), r.clone())
            .prop_map(|(d, a, b)| Insn::Add(d, a, b)),
        (r.clone(), r.clone(), r.clone())
            .prop_map(|(d, a, b)| Insn::Div(d, a, b)),
        (f.clone(), f.clone(), f.clone())
            .prop_map(|(d, a, b)| Insn::FMul(d, a, b)),
        (r.clone(), r.clone(), r.clone())
            .prop_map(|(d, a, b)| Insn::CmpLt(d, a, b)),
        any::<u32>().prop_map(Insn::Jmp),
        (r.clone(), any::<u32>()).prop_map(|(a, t)| Insn::Jz(a, t)),
        r.clone().prop_map(Insn::ArrNew),
        (r.clone(), r.clone()).prop_map(|(d, i)| Insn::ALoad(d, i)),
        r.clone().prop_map(Insn::Halt),
    ]
}

fn user_message_strategy() -> impl Strategy<Value = UserMessage> {
    (
        1u32..1000,
        any::<i32>(),
        prop::collection::vec(any::<u8>(), 0..128),
        prop::collection::vec((1u32..1000, 0u8..6), 0..4),
        prop::collection::vec(prop::collection::vec(any::<u8>(), 0..64), 0..3),
    )
        .prop_map(|(dest, msg_id, body, ports, ool)| {
            let disp = |d: u8| match d {
                0 => PortDisposition::MoveReceive,
                1 => PortDisposition::MoveSend,
                2 => PortDisposition::CopySend,
                3 => PortDisposition::MakeSend,
                4 => PortDisposition::MakeSendOnce,
                _ => PortDisposition::MoveSendOnce,
            };
            UserMessage {
                remote_port: PortName(dest),
                remote_disposition: PortDisposition::CopySend,
                local_port: PortName::NULL,
                local_disposition: PortDisposition::MakeSendOnce,
                msg_id,
                body: Bytes::from(body),
                ports: ports
                    .into_iter()
                    .map(|(n, d)| PortDescriptor {
                        name: PortName(n),
                        disposition: disp(d),
                    })
                    .collect(),
                ool: ool.into_iter().map(Bytes::from).collect(),
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn dex_roundtrip(prog in prop::collection::vec(insn_strategy(), 0..64)) {
        let blob = assemble(&prog);
        prop_assert_eq!(disassemble(&blob).unwrap(), prog);
    }

    #[test]
    fn mach_message_wire_roundtrip(msg in user_message_strategy()) {
        let bytes = wire::encode_user_message(&msg);
        prop_assert_eq!(wire::decode_user_message(&bytes).unwrap(), msg);
    }

    #[test]
    fn parsers_never_panic_on_garbage(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = MachO::parse(&bytes);
        let _ = Elf::parse(&bytes);
        let _ = disassemble(&bytes);
        let _ = wire::decode_user_message(&bytes);
        let _ = wire::decode_received_message(&bytes);
        let _ = cider_apps::package::Ipa::parse(&bytes);
        let _ = cider_input::events::decode(&bytes);
        let _ = cider_input::events::decode_ios(&bytes);
    }

    #[test]
    fn psynch_mutex_handoff_is_fifo_and_exclusive(
        threads in prop::collection::vec(1u64..6, 2..12)
    ) {
        use cider_xnu::api::{ForeignThread, MockForeignKernel};
        use cider_xnu::psynch::{PsynchOutcome, PsynchState};
        let mut api = MockForeignKernel::new();
        let mut ps = PsynchState::new();
        const M: u64 = 0x9000;

        // Distinct threads contend in order; duplicates skipped.
        let mut waiters: Vec<u64> = Vec::new();
        let mut owner: Option<u64> = None;
        for &t in &threads {
            if owner == Some(t) || waiters.contains(&t) {
                continue;
            }
            api.thread = ForeignThread(t);
            match ps.mutexwait(&mut api, M) {
                PsynchOutcome::Acquired => {
                    prop_assert!(owner.is_none() || owner == Some(t));
                    owner = Some(t);
                }
                PsynchOutcome::Blocked => {
                    prop_assert!(owner.is_some());
                    waiters.push(t);
                }
            }
        }
        // Drain: ownership hands off strictly in FIFO order.
        while let Some(cur) = owner {
            api.thread = ForeignThread(cur);
            ps.mutexdrop(&mut api, M).unwrap();
            owner = ps.mutex_owner(M).map(|t| t.0);
            if let Some(next) = owner {
                prop_assert_eq!(next, waiters.remove(0));
            } else {
                prop_assert!(waiters.is_empty());
            }
        }
    }

    #[test]
    fn gralloc_refcounts_never_leak(
        ops in prop::collection::vec((0u8..3, any::<u8>()), 1..40)
    ) {
        use cider_gfx::gralloc::{BufferId, Gralloc, PixelFormat};
        let mut g = Gralloc::new();
        let mut live: Vec<(BufferId, u32)> = Vec::new(); // (id, refs)
        for (op, pick) in ops {
            match op {
                0 => {
                    let id =
                        g.alloc(4, 4, PixelFormat::Rgba8888).unwrap();
                    live.push((id, 1));
                }
                1 if !live.is_empty() => {
                    let i = pick as usize % live.len();
                    g.retain(live[i].0).unwrap();
                    live[i].1 += 1;
                }
                2 if !live.is_empty() => {
                    let i = pick as usize % live.len();
                    g.release(live[i].0).unwrap();
                    live[i].1 -= 1;
                    if live[i].1 == 0 {
                        let (id, _) = live.remove(i);
                        prop_assert!(g.get(id).is_err(), "freed");
                    }
                }
                _ => {}
            }
            prop_assert_eq!(g.live(), live.len());
        }
        let expected_bytes: u64 = live.len() as u64 * 4 * 4 * 4;
        prop_assert_eq!(g.allocated_bytes, expected_bytes);
    }

    #[test]
    fn vm_programs_never_panic(prog in prop::collection::vec(insn_strategy(), 1..48)) {
        // Arbitrary (even malformed) programs must fault cleanly, never
        // panic or run away.
        let mut k = Kernel::boot(DeviceProfile::nexus7());
        let mut vm = cider_apps::vm::Vm::new();
        let _ = vm.run(&mut k, &prog);
    }

    #[test]
    fn errno_translation_roundtrips(raw in 1i32..150) {
        use cider_abi::errno::{Errno, XnuErrno};
        if let Some(e) = Errno::from_raw(raw) {
            prop_assert_eq!(Errno::from(XnuErrno::from(e)), e);
        }
        if let Some(x) = XnuErrno::from_raw(raw) {
            prop_assert_eq!(XnuErrno::from(Errno::from(x)), x);
        }
    }

    #[test]
    fn signal_translation_roundtrips(raw in 1i32..32) {
        use cider_abi::signal::{Signal, XnuSignal};
        if let Some(s) = Signal::from_raw(raw) {
            let x = s.to_xnu().unwrap();
            prop_assert_eq!(x.to_linux(), Some(s));
        }
        if let Some(x) = XnuSignal::from_raw(raw) {
            if let Some(l) = x.to_linux() {
                prop_assert_eq!(l.to_xnu(), Some(x));
            }
        }
    }
}

// ----------------------------------------------------------------------
// Tracing is virtually free: enabling the trace subsystem must not
// change a single virtual-time measurement or syscall result.
// ----------------------------------------------------------------------

use cider_bench::config::{SystemConfig, TestBed};
use cider_bench::fig5::{self, Micro};

fn traced_micro_strategy() -> impl Strategy<Value = Micro> {
    prop_oneof![
        Just(Micro::NullSyscall),
        Just(Micro::Read),
        Just(Micro::Write),
        Just(Micro::OpenClose),
        Just(Micro::SignalHandler),
        Just(Micro::ForkExit),
        Just(Micro::Pipe),
        (1usize..64).prop_map(Micro::Select),
    ]
}

proptest! {
    #[test]
    fn tracing_never_perturbs_virtual_time(
        ops in prop::collection::vec(traced_micro_strategy(), 1..10),
        ios in any::<bool>(),
    ) {
        let config = if ios {
            SystemConfig::CiderIos
        } else {
            SystemConfig::CiderAndroid
        };
        let mut plain = TestBed::builder(config).build();
        let mut traced = TestBed::builder(config).traced().build();
        let (plain_pid, plain_tid) = plain.spawn_measured().unwrap();
        let (traced_pid, traced_tid) = traced.spawn_measured().unwrap();
        // Always end on a null syscall so the traced bed is guaranteed
        // to have crossed the instrumented trap path at least once.
        for &op in ops.iter().chain([Micro::NullSyscall].iter()) {
            let a = fig5::run_micro(&mut plain, plain_pid, plain_tid, op);
            let b = fig5::run_micro(&mut traced, traced_pid, traced_tid, op);
            prop_assert_eq!(a, b, "{:?} diverged under tracing", op);
        }
        prop_assert_eq!(
            plain.sys.kernel.clock.now_ns(),
            traced.sys.kernel.clock.now_ns()
        );
        // The traced bed really was recording all along.
        let snap = traced.trace_snapshot().unwrap();
        prop_assert!(snap.metrics.counter("kernel/traps") > 0);
        prop_assert!(!snap.events.is_empty());
    }
}

// ----------------------------------------------------------------------
// Personality metadata agrees with actual trap dispatch: whenever
// `translate_syscall` claims a foreign number renumbers to a domestic
// one, both dispatch tables must really hold the handlers and must
// name the same call; whenever it declines, the trap either has no
// installed foreign handler or is implemented by the Cider layer
// itself (psynch, bsdthread, posix_spawn, all Mach-class traps).
// ----------------------------------------------------------------------

use cider_abi::syscall::{MachTrap, XnuSyscall, XnuTrap};
use cider_core::xnu_abi::xnu_to_linux_syscall;
use cider_core::XnuPersonality;
use cider_kernel::dispatch::Personality as _;
use cider_kernel::LinuxPersonality;

fn trap_number_strategy() -> impl Strategy<Value = i64> {
    prop_oneof![
        // The dense region where real Unix-class numbers live.
        0i64..600,
        // Mach-trap encodings (negative numbers).
        (1i64..600).prop_map(|n| -n),
        // Machdep and diag windows.
        (0i64..64).prop_map(|n| 0x8000_0000 + n),
        (0i64..64).prop_map(|n| 0x4000_0000 + n),
        // Anything at all: metadata must never disagree, even on junk.
        any::<i64>(),
    ]
}

proptest! {
    #[test]
    fn translate_syscall_agrees_with_dispatch(raw in trap_number_strategy()) {
        let xnu = XnuPersonality::new();
        let linux = LinuxPersonality::new();
        match xnu.translate_syscall(raw) {
            Some(domestic) => {
                // Claimed translated: the foreign side must dispatch it...
                prop_assert!(
                    matches!(XnuTrap::decode(raw), Some(XnuTrap::Unix(_))),
                    "translate_syscall({raw}) = Some but not a Unix trap"
                );
                let Some(XnuTrap::Unix(call)) = XnuTrap::decode(raw) else {
                    unreachable!()
                };
                let (foreign_name, _) = xnu
                    .unix_table()
                    .lookup(call.number())
                    .expect("translated call has no foreign handler");
                // ...the domestic side must dispatch the target number...
                let (domestic_name, _) = linux
                    .table()
                    .lookup(domestic as i32)
                    .expect("translated call has no domestic handler");
                // ...and both entries must be the same call.
                prop_assert_eq!(foreign_name, domestic_name);
                prop_assert_eq!(
                    xnu_to_linux_syscall(call).map(|l| l.number() as i64),
                    Some(domestic)
                );
            }
            None => {
                // Declined: any installed Unix-class handler must be an
                // XNU-only call with no domestic renumbering.
                if let Some(XnuTrap::Unix(call)) = XnuTrap::decode(raw) {
                    if xnu.unix_table().lookup(call.number()).is_some() {
                        prop_assert!(
                            xnu_to_linux_syscall(call).is_none(),
                            "{raw} dispatches and renumbers yet untranslated"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn every_known_trap_translation_is_consistent() {
    let xnu = XnuPersonality::new();
    let linux = LinuxPersonality::new();
    // Exhaustive over the foreign Unix-class ABI: every translation
    // target dispatches, and every refusal has a structural reason.
    for &call in XnuSyscall::ALL {
        let raw = XnuTrap::Unix(call).encode();
        match xnu.translate_syscall(raw) {
            Some(domestic) => {
                assert!(
                    linux.table().lookup(domestic as i32).is_some(),
                    "{call:?} translates to undispatched {domestic}"
                );
            }
            // Declining is only legitimate when the personality does
            // not dispatch the call (e.g. Sigprocmask renumbers but has
            // no installed handler) or no domestic renumbering exists.
            None => assert!(
                xnu.unix_table().lookup(call.number()).is_none()
                    || xnu_to_linux_syscall(call).is_none(),
                "{call:?} dispatches and renumbers yet declined"
            ),
        }
    }
    // Mach-class traps are implemented by the Cider layer; none may
    // claim a domestic counterpart.
    for &trap in MachTrap::ALL {
        let raw = XnuTrap::Mach(trap).encode();
        assert_eq!(xnu.translate_syscall(raw), None, "{trap:?}");
    }
}

fn probe_number_strategy() -> impl Strategy<Value = i32> {
    prop_oneof![
        // The dense regions the tables actually populate.
        -8i32..600,
        // Arbitrary numbers: the flat arrays must agree with the
        // reference map on junk, negatives, and out-of-range probes.
        any::<i32>(),
    ]
}

proptest! {
    /// The dense flat-array tables answer every probe exactly like a
    /// reference `BTreeMap` built from the same `entries()` — names,
    /// handler presence, and the installed-number census all agree.
    #[test]
    fn dense_lookup_agrees_with_reference_btreemap(
        probe in probe_number_strategy()
    ) {
        let xnu = XnuPersonality::new();
        let linux = LinuxPersonality::new();
        for table in [xnu.unix_table(), xnu.mach_table(), linux.table()] {
            let reference: std::collections::BTreeMap<_, _> =
                table.entries().collect();
            prop_assert_eq!(
                table.lookup(probe).map(|(name, _)| name),
                reference.get(&probe).copied()
            );
            prop_assert_eq!(
                table.name(probe),
                reference.get(&probe).copied()
            );
            prop_assert_eq!(
                table.handler(probe).is_some(),
                reference.contains_key(&probe)
            );
            // Every registered number resolves, with the right name.
            for (&nr, &name) in &reference {
                let (got, _) =
                    table.lookup(nr).expect("registered number resolves");
                prop_assert_eq!(got, name);
            }
            prop_assert_eq!(table.len(), reference.len());
        }
    }
}

// ----------------------------------------------------------------------
// Fault injection: an empty plan is bit-identical to the fault layer
// being absent, and the fault schedule is a pure function of the seed.
// ----------------------------------------------------------------------

use cider_fault::FaultPlan;

proptest! {
    #[test]
    fn empty_fault_plan_is_bit_identical(
        ops in prop::collection::vec(traced_micro_strategy(), 1..10),
        seed in any::<u64>(),
        ios in any::<bool>(),
    ) {
        let config = if ios {
            SystemConfig::CiderIos
        } else {
            SystemConfig::CiderAndroid
        };
        let mut plain = TestBed::builder(config).build();
        let mut armed = TestBed::builder(config).build();
        // A seeded plan with no sites armed: the layer is installed
        // but must be indistinguishable from its absence.
        armed.enable_faults(FaultPlan::new(seed));
        let (plain_pid, plain_tid) = plain.spawn_measured().unwrap();
        let (armed_pid, armed_tid) = armed.spawn_measured().unwrap();
        for &op in &ops {
            let a = fig5::run_micro(&mut plain, plain_pid, plain_tid, op);
            let b = fig5::run_micro(&mut armed, armed_pid, armed_tid, op);
            prop_assert_eq!(a, b, "{:?} diverged under empty plan", op);
        }
        prop_assert_eq!(
            plain.sys.kernel.clock.now_ns(),
            armed.sys.kernel.clock.now_ns()
        );
        prop_assert_eq!(armed.sys.kernel.faults.injected_total(), 0);
    }

    #[test]
    fn same_seed_same_fault_trace(
        ops in prop::collection::vec(traced_micro_strategy(), 1..10),
        seed in any::<u64>(),
        ios in any::<bool>(),
    ) {
        let config = if ios {
            SystemConfig::CiderIos
        } else {
            SystemConfig::CiderAndroid
        };
        let plan = FaultPlan::matrix(seed);
        let mut a = TestBed::builder(config).build();
        let mut b = TestBed::builder(config).build();
        // Spawn fault-free (the matrix can fail exec), then arm.
        let (a_pid, a_tid) = a.spawn_measured().unwrap();
        let (b_pid, b_tid) = b.spawn_measured().unwrap();
        a.enable_faults(plan.clone());
        b.enable_faults(plan);
        for &op in &ops {
            let ra = fig5::run_micro(&mut a, a_pid, a_tid, op);
            let rb = fig5::run_micro(&mut b, b_pid, b_tid, op);
            prop_assert_eq!(ra, rb, "{:?} diverged across replays", op);
        }
        prop_assert_eq!(
            a.sys.kernel.clock.now_ns(),
            b.sys.kernel.clock.now_ns()
        );
        // The fault ledgers — site, sequence number, and virtual
        // timestamp of every injection — must replay exactly.
        prop_assert_eq!(
            a.sys.kernel.faults.ledger(),
            b.sys.kernel.faults.ledger()
        );
    }
}

// ----------------------------------------------------------------------
// Scheduling is deterministic: the context-switch trace — timestamp,
// outgoing thread, incoming thread, in order — is a pure function of
// the scheduler seed and the workload.
// ----------------------------------------------------------------------

use cider_trace::EventKind;

fn ctx_switch_trace(seed: u64, n: usize, ios: bool) -> Vec<(u64, u32, u32)> {
    let config = if ios {
        SystemConfig::CiderIos
    } else {
        SystemConfig::CiderAndroid
    };
    let mut bed = TestBed::builder(config).traced().build();
    bed.sys.kernel.sched.reseed(seed);
    let (pid, tid) = bed.spawn_measured().unwrap();
    fig5::run_micro(&mut bed, pid, tid, Micro::LatCtx(n))
        .expect("lat_ctx runs");
    bed.trace_snapshot()
        .unwrap()
        .events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::ContextSwitch { from, to } => {
                Some((e.ctx.ts_ns, from, to))
            }
            _ => None,
        })
        .collect()
}

proptest! {
    #[test]
    fn same_seed_same_context_switch_trace(
        seed in any::<u64>(),
        n in 2usize..8,
        ios in any::<bool>(),
    ) {
        let a = ctx_switch_trace(seed, n, ios);
        let b = ctx_switch_trace(seed, n, ios);
        prop_assert!(!a.is_empty(), "lat_ctx must context-switch");
        prop_assert_eq!(a, b, "seed {} n {} ios {}", seed, n, ios);
    }
}

/// The CI determinism seeds, pinned so a scheduler change that breaks
/// replay fails loudly on exactly the seeds the workflow runs.
#[test]
fn context_switch_trace_replays_on_ci_seeds() {
    for seed in [11u64, 23, 47] {
        for ios in [false, true] {
            let a = ctx_switch_trace(seed, 4, ios);
            let b = ctx_switch_trace(seed, 4, ios);
            assert!(!a.is_empty(), "seed {seed}: no context switches");
            assert_eq!(a, b, "seed {seed} ios {ios}: trace diverged");
        }
    }
}

// ----------------------------------------------------------------------
// Warm start changes only virtual time, never observable semantics: a
// launch storm on a warm-start bed must produce the same syscall
// results and the same end-of-run kernel state (ids, processes,
// threads, VFS, IPC) as the cold machine. Timing sections (clock,
// scheduler, per-launch durations), fault streams and the warm cache
// record itself are the *intended* deltas and are excluded.
// ----------------------------------------------------------------------

use cider_ckpt::{capture_kernel, Section};

/// Checkpoint sections that must be warm/cold invariant.
const WARM_INVARIANT_SECTIONS: [&str; 5] = [
    "kernel/ids",
    "kernel/procs",
    "kernel/threads",
    "kernel/vfs",
    "kernel/ipc",
];

fn launch_observation(
    seed: u64,
    warm: bool,
    launches: usize,
) -> (Vec<String>, Vec<Option<Section>>) {
    let mut bed = TestBed::builder(SystemConfig::CiderIos).build();
    bed.sys.kernel.warm.set_enabled(warm);
    bed.sys.kernel.sched.reseed(seed);
    let (_pid, tid) = bed.spawn_measured().unwrap();
    let mut results = Vec::new();
    for _ in 0..launches {
        results.push(
            match cider_bench::lmbench::fork_exec_lat(&mut bed, tid, true) {
                Ok(_) => "ok".to_string(),
                Err(e) => format!("err:{}", e.name()),
            },
        );
    }
    let image = capture_kernel(&bed.sys.kernel);
    let sections = WARM_INVARIANT_SECTIONS
        .iter()
        .map(|name| image.section(name))
        .collect();
    (results, sections)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn warm_start_is_observation_identical_to_cold(
        seed in any::<u64>(),
        launches in 1usize..3,
    ) {
        let (cold_res, cold_state) = launch_observation(seed, false, launches);
        let (warm_res, warm_state) = launch_observation(seed, true, launches);
        prop_assert_eq!(cold_res, warm_res, "syscall results diverged");
        prop_assert_eq!(cold_state, warm_state, "kernel state diverged");
    }
}

/// The acceptance seeds, pinned: warm ≡ cold on exactly the seeds the
/// CI fault-matrix and determinism jobs run.
#[test]
fn warm_equals_cold_on_ci_seeds() {
    for seed in [11u64, 23, 47] {
        let (cold_res, cold_state) = launch_observation(seed, false, 2);
        let (warm_res, warm_state) = launch_observation(seed, true, 2);
        assert_eq!(cold_res, warm_res, "seed {seed}: results diverged");
        assert_eq!(cold_state, warm_state, "seed {seed}: state diverged");
        assert!(
            cold_res.iter().all(|r| r == "ok"),
            "seed {seed}: launches failed: {cold_res:?}"
        );
    }
}

// ----------------------------------------------------------------------
// Copy-on-write forks diverge from eager forks only in *when* the PTE
// copies are charged: touching k of the child's n deferred pages costs
// exactly k page copies, and the remaining debt is the exact gap to
// the eager fork's clock.
// ----------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn cow_fork_charges_exactly_the_touched_pages(
        pages in 1u64..6,
        touched in prop::collection::vec(any::<u8>(), 0..12),
    ) {
        use cider_kernel::mm::{MappingKind, Prot, PAGE_SIZE};

        let run = |cow: bool| -> (u64, u64, u64) {
            let mut k = Kernel::boot(DeviceProfile::nexus7());
            k.warm.set_enabled(cow);
            let (pid, tid) = k.spawn_process();
            let base = k
                .process_mut(pid)
                .unwrap()
                .mm
                .map(
                    pages * PAGE_SIZE,
                    Prot::RW,
                    MappingKind::Anonymous,
                    "[heap]",
                )
                .unwrap();
            let before = k.clock.now_ns();
            let (child, ctid) = k.sys_fork(tid).unwrap();
            let fork_ns = k.clock.now_ns() - before;
            let mut materialized = 0;
            for &t in &touched {
                let addr = base + (u64::from(t) % pages) * PAGE_SIZE;
                materialized += k.sys_page_write(ctid, addr).unwrap();
            }
            let debt =
                k.process(child).unwrap().mm.cow_pending_ptes();
            (fork_ns, materialized, debt)
        };

        let (eager_ns, eager_mat, eager_debt) = run(false);
        let (cow_ns, cow_mat, cow_debt) = run(true);
        let pte = DeviceProfile::nexus7().pte_copy_ns;
        let distinct = {
            let mut seen: Vec<u64> = touched
                .iter()
                .map(|&t| u64::from(t) % pages)
                .collect();
            seen.sort_unstable();
            seen.dedup();
            seen.len() as u64
        };

        // Eager: every PTE is copied at fork, writes are free.
        prop_assert_eq!(eager_mat, 0);
        prop_assert_eq!(eager_debt, 0);
        // CoW: the fork is cheaper by exactly the deferred copies, and
        // each distinct touched page materializes exactly one PTE.
        prop_assert_eq!(cow_mat, distinct);
        prop_assert_eq!(cow_debt, pages - distinct);
        prop_assert_eq!(eager_ns - cow_ns, pages * pte);
    }
}

// ----------------------------------------------------------------------
// App lifecycle: the state machine takes exactly the transitions
// `AppLifecycle::legal` admits for any seeded event stream — an
// illegal event leaves the state, the transition count, and the
// memorystatus band untouched — and jetsam under a fixed pressure
// schedule is byte-identical across runs and fleet host-thread counts.
// ----------------------------------------------------------------------

use cider_abi::memorystatus::{AppState, LifecycleEvent};
use cider_frameworks::AppLifecycle;

fn lifecycle_event_strategy() -> impl Strategy<Value = LifecycleEvent> {
    (0usize..LifecycleEvent::ALL.len()).prop_map(|i| LifecycleEvent::ALL[i])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lifecycle_takes_only_legal_transitions(
        events in prop::collection::vec(lifecycle_event_strategy(), 1..48)
    ) {
        let mut k = Kernel::boot(DeviceProfile::nexus7());
        let (pid, _tid) = k.spawn_process();
        let mut app = AppLifecycle::attach(&mut k, pid);
        prop_assert_eq!(app.state(), AppState::Launching);
        let mut taken = 0u64;
        for ev in events {
            let before = app.state();
            let band_before = k.memorystatus.band(pid);
            match AppLifecycle::legal(before, ev) {
                Some(next) => {
                    prop_assert_eq!(app.apply(&mut k, ev), Ok(next));
                    prop_assert_eq!(app.state(), next);
                    taken += 1;
                    // A legal transition re-bands the process (a
                    // jetsammed process is gone from memorystatus, so
                    // its band stays wherever exit left it).
                    if next != AppState::Jetsammed {
                        prop_assert_eq!(
                            k.memorystatus.band(pid),
                            Some(next.jetsam_band())
                        );
                    }
                }
                None => {
                    let err = app.apply(&mut k, ev).unwrap_err();
                    prop_assert_eq!(err.state, before);
                    prop_assert_eq!(err.event, ev);
                    // Rejected: nothing moved.
                    prop_assert_eq!(app.state(), before);
                    prop_assert_eq!(k.memorystatus.band(pid), band_before);
                }
            }
            prop_assert_eq!(app.transitions, taken);
        }
    }
}

/// Jetsam under the scenario's fixed watermark pressure is
/// byte-identical across runs and across fleet host-thread counts, on
/// exactly the seeds the CI determinism jobs run.
#[test]
fn jetsam_pressure_is_byte_identical_across_runs_and_threads() {
    use cider_fleet::{run_fleet, FleetSpec, PersonaMix, Workload};
    for seed in [11u64, 23, 47] {
        let spec = |threads: usize| {
            FleetSpec::new(4, seed, Workload::AppLifecycle { cycles: 2 })
                .mix(PersonaMix::EVEN)
                .host_threads(threads)
        };
        let once = run_fleet(&spec(1));
        let again = run_fleet(&spec(1));
        let wide = run_fleet(&spec(8));
        assert_eq!(
            once.fleet_fingerprint(),
            again.fleet_fingerprint(),
            "seed {seed}: jetsam replay diverged across runs"
        );
        assert_eq!(
            once.fleet_fingerprint(),
            wide.fleet_fingerprint(),
            "seed {seed}: jetsam replay diverged across host threads"
        );
        for r in &once.results {
            assert_eq!(
                r.units_completed, 2,
                "seed {seed} device {}: lifecycle cycles failed",
                r.device_id
            );
            assert!(
                r.kernel_metrics.counter("app/jetsam_kill") > 0,
                "seed {seed} device {}: no jetsam kills",
                r.device_id
            );
        }
    }
}
