//! The layer probe: re-issues each unit's public calls under spans.
//!
//! Every device runs twice side by side: once as a `DeviceSim`, and once
//! as a replica `TestBed` booted the same way, on which the benchmark
//! makes the unit's calls into the layers itself. After every unit the
//! two virtual clocks must agree, or the probe measured different work
//! and the run fails. A healing device also runs through a copy of the
//! fleet's recovery loop with the checkpoint calls under spans; its
//! fingerprint, which folds in the whole recovery ledger, must equal the
//! one `run_device_healed` produced.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use cider_abi::ids::{Pid, Tid};
use cider_bench::apps;
use cider_bench::config::TestBed;
use cider_bench::fig5::{run_micro, Micro};
use cider_ckpt::{
    Checkpoint, CheckpointStore, CkptError, CkptHeader, SpacingPolicy,
};
use cider_core::RingOp;
use cider_fault::{FaultLayer, FaultPlan, FaultSite, SplitMix64};
use cider_fleet::device::LMBENCH_MENU;
use cider_fleet::{
    DeviceOutcome, DeviceResult, DeviceSim, DeviceSpec, HealConfig, HealStats,
    Workload,
};
use cider_frameworks::scenarios;
use cider_kernel::clock::WatchdogExpired;
use cider_xnu::ipc::UserMessage;
use cider_xnu::KernReturn;

use crate::layers::Spans;
use crate::population::Population;

/// Span names of the eight lmbench kinds, in `LMBENCH_MENU` order.
pub const MICRO_LAYERS: [&str; 8] = [
    "bench.micro.null_syscall",
    "bench.micro.read",
    "bench.micro.write",
    "bench.micro.open_close",
    "bench.micro.signal_handler",
    "bench.micro.pipe",
    "bench.micro.af_unix",
    "bench.micro.fork_exit",
];

fn micro_layer(micro: Micro) -> &'static str {
    let i = LMBENCH_MENU
        .iter()
        .position(|&m| m == micro)
        .expect("drawn from the menu");
    MICRO_LAYERS[i]
}

/// What one probe pass measured besides the spans.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Trace events recorded, retained or not.
    pub events: u64,
    /// Trace events lost to ring wraparound.
    pub dropped: u64,
    /// Checkpoint frames encoded.
    pub frames: u64,
    /// Bytes of those frames.
    pub frame_bytes: u64,
}

/// One probe pass over the whole population.
pub fn probe_pass(
    pop: &Population,
    reference: &[DeviceResult],
    spans: &mut Spans,
) -> Result<Counts, String> {
    let mut counts = Counts::default();
    for (i, spec) in pop.devices.iter().enumerate() {
        let what = format!("probe device {i}");
        match &pop.heal {
            None => {
                let got = lockstep(spec, spans, &mut counts, true)?;
                crate::batch::check(&reference[i..=i], &[got], &what)?;
            }
            Some(cfg) => {
                lockstep(&kernel_spec(spec), spans, &mut counts, false)?;
                let got = healed(spec, cfg, spans, &mut counts);
                crate::batch::check(&reference[i..=i], &[got], &what)?;
            }
        }
    }
    Ok(counts)
}

/// The spec the healing loop boots: lifecycle faults are drawn by the
/// loop itself, every other site by the device kernel.
fn kernel_spec(spec: &DeviceSpec) -> DeviceSpec {
    DeviceSpec {
        fault_plan: spec
            .fault_plan
            .as_ref()
            .map(|p| p.without(&FaultSite::DEVICE_LIFECYCLE)),
        ..spec.clone()
    }
}

/// Runs a `DeviceSim` and a replica in lockstep, checking the virtual
/// clocks after every unit. With `capture`, times one capture of the
/// finished device.
fn lockstep(
    spec: &DeviceSpec,
    spans: &mut Spans,
    counts: &mut Counts,
    capture: bool,
) -> Result<DeviceResult, String> {
    let mut sim = DeviceSim::boot(spec);
    let mut replica = Replica::boot(spec);
    while !sim.done() {
        let cursor = sim.cursor();
        sim.step();
        replica.unit(cursor, spans);
        let (want, got) =
            (sim.now_ns(), replica.bed.sys.kernel.clock.now_ns());
        if want != got {
            return Err(format!(
                "probe unit {cursor} of device {} ended at {got} ns, \
                 DeviceSim::step at {want} ns",
                spec.device_id
            ));
        }
    }
    if capture {
        spans.time("fleet.capture", || sim.capture());
    }
    let snap = replica.bed.trace_snapshot().expect("replica is traced");
    counts.events += snap.events.len() as u64 + snap.dropped;
    counts.dropped += snap.dropped;
    Ok(sim.finish(DeviceOutcome::Completed, None))
}

/// A test bed booted exactly as `DeviceSim::boot` boots one.
struct Replica {
    spec: DeviceSpec,
    bed: TestBed,
    pid: Pid,
    tid: Tid,
    rng: SplitMix64,
}

impl Replica {
    fn boot(spec: &DeviceSpec) -> Replica {
        let mut bed = TestBed::builder(spec.config).traced().build();
        let (pid, tid) = bed.spawn_measured().expect("bench binary installed");
        if let Some(plan) = &spec.fault_plan {
            bed.sys.kernel.faults = FaultLayer::with_plan(plan.clone());
        }
        Replica {
            spec: spec.clone(),
            bed,
            pid,
            tid,
            rng: SplitMix64::new(spec.seed),
        }
    }

    /// One unit of the device's workload; failures end the unit early,
    /// as they do in `DeviceSim::step`.
    fn unit(&mut self, cursor: u64, spans: &mut Spans) {
        let (bed, pid, tid) = (&mut self.bed, self.pid, self.tid);
        match self.spec.workload {
            Workload::LmbenchMix { .. } => {
                let micro = LMBENCH_MENU
                    [self.rng.below(LMBENCH_MENU.len() as u64) as usize];
                spans.time(micro_layer(micro), || {
                    run_micro(bed, pid, tid, micro)
                });
            }
            Workload::IpcStorm { .. } => {
                bed.sys.enable_ipc_v2();
                let _ = ipc_unit(bed, tid, cursor, spans);
            }
            Workload::LaunchStorm { .. } => {
                let _ = launch_unit(bed, tid, spans);
            }
            Workload::AppLifecycle { .. } => {
                let app =
                    spans.time("frameworks.install", || apps::app_spec(bed));
                let on_render = apps::render_trap(self.spec.config);
                let seed = self.spec.seed ^ cursor;
                let _ = spans.time("frameworks.cycle", || {
                    scenarios::full_cycle(
                        &mut bed.sys,
                        &app,
                        8,
                        seed,
                        on_render,
                    )
                });
            }
            other => panic!("no benchmark population runs {}", other.slug()),
        }
    }
}

/// The IPC-storm unit: one port, one out-of-line round trip, one ring
/// batch of four sends flushed by one trap, then four receives.
fn ipc_unit(
    bed: &mut TestBed,
    tid: Tid,
    cursor: u64,
    spans: &mut Spans,
) -> Result<(), KernReturn> {
    const RING_BATCH: u64 = 4;
    let sys = &mut bed.sys;
    let recv = spans.time("xnu.port", || sys.mach_port_allocate(tid))?;
    let send = spans.time("xnu.port", || sys.mach_make_send(tid, recv))?;
    let blob: Vec<u8> = (0..2 * 4096u64)
        .map(|i| (i.wrapping_add(cursor)) as u8)
        .collect();
    let mut msg = UserMessage::simple(send, 0x600, &b"ool"[..]);
    msg.ool.push(blob.into());
    spans.time("xnu.send", || sys.mach_msg_send(tid, msg))?;
    spans.time("xnu.receive", || sys.mach_msg_receive(tid, recv))?;
    for i in 0..RING_BATCH {
        let body = vec![b's'; 1 + ((cursor + i) % 24) as usize];
        let msg = UserMessage::simple(send, 0x700 + i as i32, body);
        spans.time("xnu.send", || sys.ring_submit(tid, RingOp::Send(msg)))?;
    }
    spans.time("xnu.ring_flush", || sys.ring_flush(tid))?;
    for _ in 0..RING_BATCH {
        spans.time("xnu.receive", || sys.mach_msg_receive(tid, recv))?;
    }
    Ok(())
}

/// The launch-storm unit: three cold fork + exec + run + wait cycles of
/// the persona's hello binary.
fn launch_unit(
    bed: &mut TestBed,
    tid: Tid,
    spans: &mut Spans,
) -> Result<(), cider_abi::errno::Errno> {
    let hello = bed.hello_path(bed.config.runs_ios_binary());
    let k = &mut bed.sys.kernel;
    for _ in 0..3 {
        let (child_pid, child_tid) =
            spans.time("kernel.fork", || k.sys_fork(tid))?;
        spans.time("loader.exec", || {
            cider_core::exec::sys_exec_fixup(k, child_tid, hello, &[hello])
        })?;
        spans.time("kernel.run_entry", || k.run_entry(child_tid))?;
        spans.time("kernel.waitpid", || k.sys_waitpid(tid, child_pid))?;
    }
    Ok(())
}

/// The fleet's self-healing loop, step for step, with the checkpoint
/// calls under spans.
fn healed(
    spec: &DeviceSpec,
    heal: &HealConfig,
    spans: &mut Spans,
    counts: &mut Counts,
) -> DeviceResult {
    let plan = spec
        .fault_plan
        .as_ref()
        .map(|p| p.only(&FaultSite::DEVICE_LIFECYCLE))
        .unwrap_or_else(FaultPlan::empty);
    let mut lifecycle = FaultLayer::with_plan(plan);
    let spec = kernel_spec(spec);
    let mut sim = DeviceSim::boot(&spec);
    let mut store = CheckpointStore::with_capacity(heal.store_frames);
    let mut policy = SpacingPolicy::exponential(heal.ckpt_base, heal.ckpt_cap);
    let mut stats = HealStats::default();
    let mut frame = |sim: &DeviceSim,
                     lifecycle: &mut FaultLayer,
                     store: &mut CheckpointStore,
                     stats: &mut HealStats,
                     spans: &mut Spans| {
        let image = spans.time("fleet.capture", || sim.capture());
        let header = CkptHeader {
            device_id: spec.device_id,
            seed: spec.seed,
            config: spec.config.slug().to_string(),
            workload: spec.workload.slug().to_string(),
            cursor: sim.cursor(),
            virtual_ns: sim.now_ns(),
        };
        let mut bytes = spans
            .time("ckpt.encode", || Checkpoint::new(header, image).to_bytes());
        counts.frames += 1;
        counts.frame_bytes += bytes.len() as u64;
        if let Some(seq) =
            lifecycle.try_inject(FaultSite::CheckpointCorrupt, sim.now_ns())
        {
            let pos = (seq.wrapping_mul(0x9E37_79B9_7F4A_7C15) as usize)
                % (bytes.len() * 8);
            bytes[pos / 8] ^= 1 << (pos % 8);
            stats.ledger.push(format!(
                "ckpt@{} inject=checkpoint_corrupt seq={seq}",
                sim.cursor()
            ));
        }
        store.push(sim.cursor(), bytes);
        stats.checkpoints_taken += 1;
    };

    frame(&sim, &mut lifecycle, &mut store, &mut stats, spans);
    let mut outcome = DeviceOutcome::Completed;
    while !sim.done() {
        if stats.restores >= heal.max_restores {
            outcome = DeviceOutcome::Wedged {
                at_unit: sim.cursor(),
            };
            stats.ledger.push(format!(
                "unit={} gave_up restores={}",
                sim.cursor(),
                stats.restores
            ));
            break;
        }
        let at_unit = sim.cursor();
        let now = sim.now_ns();
        let crash =
            lifecycle.try_inject(FaultSite::DeviceCrash, now).is_some();
        let wedge =
            lifecycle.try_inject(FaultSite::DeviceWedge, now).is_some();
        sim.arm_watchdog(heal.watchdog_budget_ns);
        let fault = if wedge {
            Some("device_wedge")
        } else {
            match catch_unwind(AssertUnwindSafe(|| sim.step())) {
                Ok(()) if crash => Some("device_crash"),
                Ok(()) => None,
                Err(p) if p.is::<WatchdogExpired>() => Some("device_wedge"),
                Err(p) => resume_unwind(p),
            }
        };
        match fault {
            None => {
                sim.disarm_watchdog();
                if policy.due(sim.cursor()) {
                    frame(&sim, &mut lifecycle, &mut store, &mut stats, spans);
                    policy.taken(sim.cursor());
                }
            }
            Some(kind) => {
                if kind == "device_crash" {
                    stats.crashes += 1;
                } else {
                    stats.wedges += 1;
                }
                let (restored, from, replayed) =
                    restore(&spec, &store, &mut stats, spans);
                stats.restores += 1;
                stats.ledger.push(format!(
                    "unit={at_unit} fault={kind} \
                     restored_from={from} replayed={replayed}"
                ));
                sim = restored;
            }
        }
    }
    sim.finish(outcome, Some(stats))
}

/// Newest trustworthy frame first: decode, replay to its cursor, and
/// verify the replayed image; a fresh boot is the last resort.
fn restore(
    spec: &DeviceSpec,
    store: &CheckpointStore,
    stats: &mut HealStats,
    spans: &mut Spans,
) -> (DeviceSim, String, u64) {
    for (cursor, bytes) in store.candidates() {
        match spans.time("ckpt.decode", || Checkpoint::from_bytes(bytes)) {
            Err(err) => {
                stats.corrupt_detected += 1;
                stats.ledger.push(format!("ckpt@{cursor} rejected: {err}"));
            }
            Ok(ckpt) => {
                let units = ckpt.header.cursor;
                let sim = spans.time("ckpt.replay", || {
                    let mut sim = DeviceSim::boot(spec);
                    for _ in 0..units {
                        sim.step();
                    }
                    sim
                });
                stats.replayed_units += units;
                if spans.time("ckpt.verify", || sim.capture() == ckpt.image) {
                    return (sim, format!("ckpt@{cursor}"), units);
                }
                stats.corrupt_detected += 1;
                let err = CkptError::ReplayDiverged {
                    sections: sim.capture().diff(&ckpt.image).len(),
                };
                stats.ledger.push(format!("ckpt@{cursor} rejected: {err}"));
            }
        }
    }
    (DeviceSim::boot(spec), "boot".to_string(), 0)
}
