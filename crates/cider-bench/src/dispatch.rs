//! The virtual-time trap evidence of `BENCH_dispatch.json`: a trap
//! round trip under each persona, Mach IPC v2 against v1, and a cold
//! against a warm app launch.
//!
//! Every number is read off the virtual clock, so what [`run`] returns
//! renders as the same bytes on every run and every machine.
//! `tests/golden_tables.rs` pins the rendering against the committed
//! file and asserts the headline claims: v2 `mach_msg` at least halves
//! v1's round trip on both iOS configurations, a flushed ring batch
//! costs less per message than one v2 trap, and a Cider iOS warm
//! launch is at least 3× faster than a cold one.

use std::fmt;

use cider_abi::syscall::{MachTrap, XnuTrap};
use cider_core::{wire, RingOp};
use cider_kernel::dispatch::{SyscallArgs, SyscallData};
use cider_xnu::ipc::UserMessage;

use crate::config::{SystemConfig, TestBed};
use crate::lmbench::{self, measure};

/// The personas of the dispatch comparison: domestic Linux, translated
/// XNU on Cider, and native XNU.
const PERSONAS: [SystemConfig; 3] = [
    SystemConfig::VanillaAndroid,
    SystemConfig::CiderIos,
    SystemConfig::IpadMini,
];

/// Messages per ring batch: 16 interleaved send/receive entries fill
/// the submission ring exactly once per flush.
const RING_BATCH_MSGS: u64 = 8;

/// Bytes of the out-of-line payload: four pages, comfortably past the
/// inline threshold so v2 takes the remap path.
const OOL_BYTES: usize = 16 * 1024;

/// Virtual nanoseconds of one trap round trip on one configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrapCosts {
    /// The measured configuration.
    pub config: SystemConfig,
    /// lmbench `null syscall`.
    pub null_syscall_ns: u64,
    /// lmbench `open/close`.
    pub open_close_ns: u64,
    /// A v1 `mach_msg` send, then a receive: two crossings. iOS
    /// binaries only.
    pub mach_msg_ns: Option<u64>,
}

/// IPC v2 costs for one iOS configuration, against the v1 round trip
/// measured on the same configuration with v2 off.
///
/// `mach_msg_ns` is the combined-option round trip:
/// `MACH_SEND_MSG|MACH_RCV_MSG` in one trap, rights resolved through
/// the typed refcounted table and the message queued lock-free, where
/// v1 pays two crossings and a subsystem mutex on each. `ool_16k_ns`
/// round-trips a 16 KiB out-of-line descriptor, which v2 moves by
/// remapping four pages instead of copying 16384 bytes.
/// `ring_batch_per_msg_ns` round-trips `RING_BATCH_MSGS` messages as
/// interleaved send/receive ring submissions paying a single
/// `ring_flush` crossing for the whole batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IpcV2Costs {
    /// The measured configuration.
    pub config: SystemConfig,
    /// [`TrapCosts::mach_msg_ns`] of the same configuration.
    pub v1_mach_msg_ns: u64,
    /// One combined-option round trip.
    pub mach_msg_ns: u64,
    /// One round trip carrying a 16 KiB out-of-line payload.
    pub ool_16k_ns: u64,
    /// One message of a flushed ring batch.
    pub ring_batch_per_msg_ns: u64,
}

/// The virtual cost of a `fork+exec` app launch on one configuration:
/// cold (closure walk and eager PTE copy) and warm (prelinked shared
/// cache and copy-on-write fork).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchCosts {
    /// The measured configuration.
    pub config: SystemConfig,
    /// [`lmbench::fork_exec_lat`].
    pub cold_launch_ns: u64,
    /// [`lmbench::fork_exec_warm_lat`].
    pub warm_launch_ns: u64,
}

/// Everything `BENCH_dispatch.json` holds; its [`fmt::Display`] is the
/// file's bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DispatchBench {
    /// One row per persona: domestic Linux, translated XNU on Cider,
    /// and native XNU.
    pub traps: Vec<TrapCosts>,
    /// One row per persona that runs iOS binaries.
    pub ipc_v2: Vec<IpcV2Costs>,
    /// One row per persona, as `traps`.
    pub launches: Vec<LaunchCosts>,
}

/// Measures every row, each configuration on fresh test beds.
pub fn run() -> DispatchBench {
    let traps: Vec<TrapCosts> = PERSONAS.into_iter().map(trap_costs).collect();
    let ipc_v2 = traps
        .iter()
        .filter_map(|t| t.mach_msg_ns.map(|v1| ipc_v2_costs(t.config, v1)))
        .collect();
    let launches = PERSONAS.into_iter().map(launch_costs).collect();
    DispatchBench {
        traps,
        ipc_v2,
        launches,
    }
}

fn trap_costs(config: SystemConfig) -> TrapCosts {
    let mut bed = TestBed::builder(config).build();
    let (_, tid) = bed.spawn_measured().expect("bench binaries installed");
    let null_syscall_ns = lmbench::null_syscall(&mut bed, tid).ns;
    let open_close_ns = lmbench::open_close_lat(&mut bed, tid)
        .expect("open/close")
        .ns;
    let mach_msg_ns = config.runs_ios_binary().then(|| {
        let port = bed.sys.mach_port_allocate(tid).expect("ports zone");
        let send = bed.sys.mach_make_send(tid, port).expect("send right");
        let nr = XnuTrap::Mach(MachTrap::MachMsgTrap).encode();
        measure(&mut bed, 64, |bed| {
            let msg = UserMessage::simple(send, 7, &b"ping"[..]);
            let mut args = SyscallArgs::regs([1, 0, 0, 0, 0, 0, 0]);
            args.data =
                SyscallData::Bytes(wire::encode_user_message(&msg).into());
            let r = bed.sys.trap(tid, nr, &args);
            assert_eq!(r.reg, 0, "mach_msg send");
            let rcv =
                SyscallArgs::regs([2, 0, port.as_raw() as i64, 0, 0, 0, 0]);
            let r = bed.sys.trap(tid, nr, &rcv);
            assert_eq!(r.reg, 0, "mach_msg receive");
        })
        .ns
    });
    TrapCosts {
        config,
        null_syscall_ns,
        open_close_ns,
        mach_msg_ns,
    }
}

fn ipc_v2_costs(config: SystemConfig, v1_mach_msg_ns: u64) -> IpcV2Costs {
    let mut bed = TestBed::builder(config).ipc_v2().build();
    let (_, tid) = bed.spawn_measured().expect("bench binaries installed");
    let port = bed.sys.mach_port_allocate(tid).expect("ports zone");
    let send = bed.sys.mach_make_send(tid, port).expect("send right");
    let nr = XnuTrap::Mach(MachTrap::MachMsgTrap).encode();
    // MACH_SEND_MSG | MACH_RCV_MSG: one crossing, not two.
    let round_trip = [3, 0, port.as_raw() as i64, 0, 0, 0, 0];

    let mach_msg_ns = measure(&mut bed, 64, |bed| {
        let msg = UserMessage::simple(send, 7, &b"ping"[..]);
        let mut args = SyscallArgs::regs(round_trip);
        args.data = SyscallData::Bytes(wire::encode_user_message(&msg).into());
        let r = bed.sys.trap(tid, nr, &args);
        assert_eq!(r.reg, 0, "mach_msg v2 combined round trip");
    })
    .ns;

    let ool_16k_ns = measure(&mut bed, 64, |bed| {
        let mut msg = UserMessage::simple(send, 8, &b"ool"[..]);
        msg.ool.push(vec![0xA5u8; OOL_BYTES].into());
        let mut args = SyscallArgs::regs(round_trip);
        args.data = SyscallData::Bytes(wire::encode_user_message(&msg).into());
        let r = bed.sys.trap(tid, nr, &args);
        assert_eq!(r.reg, 0, "mach_msg v2 OOL round trip");
    })
    .ns;

    let batch_ns = measure(&mut bed, 16, |bed| {
        for i in 0..RING_BATCH_MSGS {
            let msg = UserMessage::simple(send, 0x900 + i as i32, &b"b"[..]);
            let early = bed.sys.ring_submit(tid, RingOp::Send(msg));
            assert!(early.expect("submit").is_empty(), "ring overflowed");
            bed.sys
                .ring_submit(tid, RingOp::Recv(port))
                .expect("submit");
        }
        let cs = bed.sys.ring_flush(tid).expect("flush");
        assert_eq!(cs.len() as u64, 2 * RING_BATCH_MSGS);
        assert!(cs.iter().all(|c| c.kr.is_success()));
    })
    .ns;

    IpcV2Costs {
        config,
        v1_mach_msg_ns,
        mach_msg_ns,
        ool_16k_ns,
        ring_batch_per_msg_ns: batch_ns / RING_BATCH_MSGS,
    }
}

fn launch_costs(config: SystemConfig) -> LaunchCosts {
    let ios = config.runs_ios_binary();
    let mut bed = TestBed::builder(config).build();
    let (_, tid) = bed.spawn_measured().expect("bench binaries installed");
    let cold =
        lmbench::fork_exec_lat(&mut bed, tid, ios).expect("cold launch");
    let warm =
        lmbench::fork_exec_warm_lat(&mut bed, tid, ios).expect("warm launch");
    LaunchCosts {
        config,
        cold_launch_ns: cold.ns,
        warm_launch_ns: warm.ns,
    }
}

/// The separator after item `i` of `n` in a JSON list.
fn comma(i: usize, n: usize) -> &'static str {
    if i + 1 == n {
        ""
    } else {
        ","
    }
}

impl fmt::Display for DispatchBench {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let traps: Vec<_> = self
            .traps
            .iter()
            .map(|t| {
                let mut fields = vec![
                    ("null_syscall", t.null_syscall_ns.to_string()),
                    ("open_close", t.open_close_ns.to_string()),
                ];
                if let Some(m) = t.mach_msg_ns {
                    fields.push(("mach_msg", m.to_string()));
                }
                (t.config, fields)
            })
            .collect();
        let ipc_v2: Vec<_> = self
            .ipc_v2
            .iter()
            .map(|v2| {
                let speedup = v2.v1_mach_msg_ns as f64 / v2.mach_msg_ns as f64;
                let per_msg = v2.ring_batch_per_msg_ns;
                let fields = vec![
                    ("mach_msg", v2.mach_msg_ns.to_string()),
                    ("mach_msg_speedup", format!("{speedup:.2}")),
                    ("mach_msg_ool_16k", v2.ool_16k_ns.to_string()),
                    ("ring_batch_per_msg", per_msg.to_string()),
                    ("ring_batch_msgs", RING_BATCH_MSGS.to_string()),
                ];
                (v2.config, fields)
            })
            .collect();
        let launches: Vec<_> = self
            .launches
            .iter()
            .map(|l| {
                let per_sec = |ns: u64| format!("{:.1}", 1e9 / ns as f64);
                let speedup =
                    l.cold_launch_ns as f64 / l.warm_launch_ns as f64;
                let fields = vec![
                    ("cold_launch_ns", l.cold_launch_ns.to_string()),
                    ("warm_launch_ns", l.warm_launch_ns.to_string()),
                    ("cold_launches_per_sec", per_sec(l.cold_launch_ns)),
                    ("warm_launches_per_sec", per_sec(l.warm_launch_ns)),
                    ("warm_speedup", format!("{speedup:.2}")),
                ];
                (l.config, fields)
            })
            .collect();
        // One block per measurement, one object per configuration.
        let blocks = [
            ("trap_round_trip_virtual_ns", traps),
            ("ipc_v2_virtual_ns", ipc_v2),
            ("launch_storm", launches),
        ];
        writeln!(f, "{{")?;
        for (i, (name, rows)) in blocks.iter().enumerate() {
            writeln!(f, "  \"{name}\": {{")?;
            for (j, (config, fields)) in rows.iter().enumerate() {
                writeln!(f, "    \"{}\": {{", config.slug())?;
                for (k, (key, value)) in fields.iter().enumerate() {
                    let sep = comma(k, fields.len());
                    writeln!(f, "      \"{key}\": {value}{sep}")?;
                }
                writeln!(f, "    }}{}", comma(j, rows.len()))?;
            }
            writeln!(f, "  }}{}", comma(i, blocks.len()))?;
        }
        writeln!(f, "}}")
    }
}
