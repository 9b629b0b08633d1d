//! Checkpoint/restore and fleet self-healing: the crash-consistency
//! contract.
//!
//! Three layers are pinned here. Frame level: a serialized checkpoint
//! survives the byte round trip exactly, and any single flipped bit is
//! caught by the checksum — corruption is detected, never silently
//! restored. Device level: `restore(checkpoint(d)) ≡ d` — re-booting a
//! device and deterministically replaying to a checkpoint's cursor
//! reproduces the checkpointed state image byte-for-byte, and the
//! resumed device ends with the same trace, event by event, and the
//! same trace fingerprint as one that never stopped (property-tested
//! across seeds, workloads and checkpoint positions). Fleet level: a 64-device fleet under
//! injected crashes/wedges/checkpoint corruption heals itself — killed
//! devices restore from their last good frame and replay forward — and
//! the final report JSON, recovery ledger included, is byte-identical
//! across repeat runs and host-thread counts.

mod common;

use cider_bench::config::SystemConfig;
use cider_ckpt::{
    fnv1a, Checkpoint, CheckpointStore, CkptError, CkptHeader, SpacingPolicy,
};
use cider_fault::{FaultLayer, FaultPlan, FaultSite};
use cider_fleet::{
    run_device_healed, DeviceOutcome, DeviceSim, DeviceSpec, FleetReport,
    FleetSpec, HealConfig, HealStats, PersonaMix, Workload,
};
use common::{assert_same_trace, trace};
use proptest::prelude::*;

fn spec(seed: u64, ios: bool, workload: Workload) -> DeviceSpec {
    DeviceSpec {
        device_id: 0,
        seed,
        config: if ios {
            SystemConfig::CiderIos
        } else {
            SystemConfig::CiderAndroid
        },
        workload,
        fault_plan: None,
    }
}

fn checkpoint_at(sim: &DeviceSim, spec: &DeviceSpec) -> Vec<u8> {
    Checkpoint::new(
        CkptHeader {
            device_id: spec.device_id,
            seed: spec.seed,
            config: spec.config.slug().to_string(),
            workload: spec.workload.slug().to_string(),
            cursor: sim.cursor(),
            virtual_ns: sim.now_ns(),
        },
        sim.capture(),
    )
    .to_bytes()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// restore(checkpoint(d)) ≡ d: checkpoint mid-run, re-boot, replay
    /// to the cursor — the state image matches byte-for-byte and the
    /// finished device is fingerprint-identical to an uninterrupted
    /// run.
    #[test]
    fn restore_of_checkpoint_is_identity(
        seed in 0u64..1_000_000,
        ops in 2u32..8,
        at in 1u64..8,
        ios in any::<bool>(),
    ) {
        let s = spec(seed, ios, Workload::LmbenchMix { ops });
        let cut = at % u64::from(ops);

        // The uninterrupted run, finished only after the comparison.
        let mut direct = DeviceSim::boot(&s);
        while !direct.done() {
            direct.step();
        }

        // Checkpoint at `cut`, then restore: fresh boot + replay.
        let mut live = DeviceSim::boot(&s);
        for _ in 0..cut {
            live.step();
        }
        let bytes = checkpoint_at(&live, &s);
        let ckpt = Checkpoint::from_bytes(&bytes).unwrap();
        prop_assert_eq!(ckpt.header.cursor, cut);

        let mut restored = DeviceSim::boot(&s);
        for _ in 0..ckpt.header.cursor {
            restored.step();
        }
        prop_assert_eq!(&restored.capture(), &ckpt.image);
        prop_assert_eq!(restored.now_ns(), ckpt.header.virtual_ns);

        // The restored device finishes exactly like the direct one:
        // the same trace, event by event, then the same fingerprint.
        while !restored.done() {
            restored.step();
        }
        assert_same_trace(&trace(&direct), &trace(&restored), "restored");
        let resumed = restored.finish(DeviceOutcome::Completed, None);
        let direct = direct.finish(DeviceOutcome::Completed, None);
        prop_assert_eq!(
            resumed.trace_fingerprint,
            direct.trace_fingerprint
        );
        prop_assert_eq!(resumed.virtual_ns, direct.virtual_ns);
    }

    /// Every single-bit flip anywhere in a frame is caught: restore
    /// reports a checksum (or structural) error instead of handing
    /// back corrupt state.
    #[test]
    fn any_bit_flip_is_detected(
        seed in 0u64..100_000,
        bit in 0usize..4096,
    ) {
        let s = spec(seed, seed % 2 == 0, Workload::LmbenchMix { ops: 2 });
        let mut sim = DeviceSim::boot(&s);
        sim.step();
        let mut bytes = checkpoint_at(&sim, &s);
        let pos = bit % (bytes.len() * 8);
        bytes[pos / 8] ^= 1 << (pos % 8);
        prop_assert!(Checkpoint::from_bytes(&bytes).is_err());
    }
}

/// Warm-start state is part of the crash-consistency contract: a
/// checkpoint cut mid-storm carries the populated shared-cache image
/// in `kernel/warm`, restores by replay byte-for-byte (the replay
/// re-bakes the cache deterministically), and the resumed device
/// finishes fingerprint-identical to one that never stopped.
#[test]
fn warm_storm_checkpoint_round_trips_with_populated_cache() {
    let s = spec(13, true, Workload::LaunchStormWarm { launches: 6 });
    let mut direct = DeviceSim::boot(&s);
    while !direct.done() {
        direct.step();
    }

    let mut live = DeviceSim::boot(&s);
    for _ in 0..3 {
        live.step();
    }
    let bytes = checkpoint_at(&live, &s);
    let ckpt = Checkpoint::from_bytes(&bytes).unwrap();

    // The captured image holds a baked cache, not a cold stub.
    let warm = ckpt.image.section("kernel/warm").expect("kernel/warm");
    let record = &warm.records[0].1;
    assert!(
        record.contains("enabled=true"),
        "warm off in image: {record}"
    );
    assert!(!record.contains("cache=none"), "cache not baked: {record}");
    assert!(
        !record.contains("cow_forks=0 "),
        "storm never CoW-forked: {record}"
    );

    let mut restored = DeviceSim::boot(&s);
    for _ in 0..ckpt.header.cursor {
        restored.step();
    }
    assert_eq!(restored.capture(), ckpt.image);
    while !restored.done() {
        restored.step();
    }
    assert_same_trace(&trace(&direct), &trace(&restored), "restored");
    let resumed = restored.finish(DeviceOutcome::Completed, None);
    let direct = direct.finish(DeviceOutcome::Completed, None);
    assert_eq!(resumed.trace_fingerprint, direct.trace_fingerprint);
    assert_eq!(resumed.virtual_ns, direct.virtual_ns);
}

/// A half-materialized CoW fork — forked, some pages written, the rest
/// still owed — is observable state: the procs section records the
/// outstanding debt, the image round-trips exactly, and a bit flipped
/// inside the CoW record itself is rejected by the frame checksum.
#[test]
fn half_materialized_cow_fork_is_checkpointed_and_checksummed() {
    use cider_ckpt::capture_kernel;
    use cider_kernel::mm::{MappingKind, Prot, PAGE_SIZE};
    use cider_kernel::profile::DeviceProfile;
    use cider_kernel::Kernel;

    let boot = || {
        let mut k = Kernel::boot(DeviceProfile::nexus7());
        k.warm.set_enabled(true);
        let (pid, tid) = k.spawn_process();
        let base = k
            .process_mut(pid)
            .unwrap()
            .mm
            .map(4 * PAGE_SIZE, Prot::RW, MappingKind::Anonymous, "[heap]")
            .unwrap();
        let (_child, ctid) = k.sys_fork(tid).unwrap();
        for page in 0..2 {
            assert_eq!(
                k.sys_page_write(ctid, base + page * PAGE_SIZE),
                Ok(1),
                "first write must materialize"
            );
        }
        k
    };
    let img = capture_kernel(&boot());
    assert_eq!(img, capture_kernel(&boot()), "CoW capture not repeatable");

    let procs = img.section("kernel/procs").expect("kernel/procs");
    assert!(
        procs.records.iter().any(|(_, v)| v.contains("+cow2p/2d")),
        "outstanding CoW debt missing from procs: {:?}",
        procs.records
    );
    let warm = img.section("kernel/warm").expect("kernel/warm");
    assert!(
        warm.records[0].1.contains("cow_forks=1"),
        "fork not counted: {}",
        warm.records[0].1
    );

    let bytes = Checkpoint::new(
        CkptHeader {
            device_id: 9,
            seed: 0,
            config: "cider_ios".to_string(),
            workload: "cow".to_string(),
            cursor: 0,
            virtual_ns: 0,
        },
        img.clone(),
    )
    .to_bytes();
    assert_eq!(Checkpoint::from_bytes(&bytes).unwrap().image, img);

    let at = bytes
        .windows(4)
        .position(|w| w == b"+cow")
        .expect("CoW record bytes in frame");
    let mut bad = bytes.clone();
    bad[at] ^= 0x04;
    assert!(Checkpoint::from_bytes(&bad).is_err());
}

/// `CKPT_VERSION = 1` frames stay readable: a frame checked into
/// `tests/golden/` decodes, and re-booting its device and replaying
/// to its cursor re-encodes the same bytes. A capture change that
/// moves any record fails here, with the records that moved.
///
/// Regenerate (only together with a `CKPT_VERSION` bump) with:
///
/// ```text
/// UPDATE_GOLDEN=1 cargo test --test ckpt frozen_v1_frame
/// ```
#[test]
fn frozen_v1_frame_replays_byte_identical() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/ckpt_v1_app_lifecycle.frame");
    // A CiderIos app-lifecycle device (overlay hierarchy plus an
    // installed app bundle) after one unit.
    let s = spec(11, true, Workload::AppLifecycle { cycles: 2 });
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        let mut sim = DeviceSim::boot(&s);
        sim.step();
        std::fs::write(&path, checkpoint_at(&sim, &s)).unwrap();
        return;
    }
    let frozen = std::fs::read(&path)
        .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let ckpt = Checkpoint::from_bytes(&frozen).expect("frozen frame decodes");
    assert_eq!(cider_ckpt::CKPT_VERSION, 1);
    assert_eq!(ckpt.header.config, "cider_ios");
    assert_eq!(ckpt.header.workload, "app_lifecycle");
    assert_eq!(ckpt.header.cursor, 1);

    let mut replayed = DeviceSim::boot(&s);
    for _ in 0..ckpt.header.cursor {
        replayed.step();
    }
    let bytes = checkpoint_at(&replayed, &s);
    if bytes != frozen {
        let replayed = Checkpoint::from_bytes(&bytes).unwrap();
        assert_eq!(replayed.header, ckpt.header, "frame header moved");
        let deltas = ckpt.image.diff(&replayed.image);
        let report: String = deltas.iter().map(|d| d.to_string()).collect();
        panic!(
            "replay re-encodes a different v1 frame ({} vs {} bytes); \
             frozen (-) vs replayed (+) records:\n{report}",
            frozen.len(),
            bytes.len()
        );
    }
}

#[test]
fn truncated_frame_is_rejected_not_panicked() {
    let s = spec(7, true, Workload::LmbenchMix { ops: 2 });
    let sim = DeviceSim::boot(&s);
    let bytes = checkpoint_at(&sim, &s);
    for cut in [0, 1, 4, bytes.len() / 2, bytes.len() - 1] {
        let err = Checkpoint::from_bytes(&bytes[..cut]).unwrap_err();
        assert!(
            matches!(
                err,
                CkptError::Truncated
                    | CkptError::ChecksumMismatch { .. }
                    | CkptError::Malformed
            ),
            "cut={cut}: {err}"
        );
    }
}

fn healing_fleet(threads: usize) -> FleetSpec {
    FleetSpec::new(64, 42, Workload::LmbenchMix { ops: 8 })
        .mix(PersonaMix::EVEN)
        .fault_plan(FaultPlan::lifecycle(23))
        .heal(HealConfig::default())
        .host_threads(threads)
}

/// The headline fleet-healing contract: 64 devices under injected
/// crashes/wedges/checkpoint corruption, every killed device recovers,
/// and the aggregated report (recovery ledger included) renders
/// byte-identical JSON across repeat runs and 1 vs 8 host threads.
#[test]
fn faulted_fleet_heals_and_report_is_thread_invariant() {
    let first =
        FleetReport::from_run(&cider_fleet::run_fleet(&healing_fleet(1)));
    let again =
        FleetReport::from_run(&cider_fleet::run_fleet(&healing_fleet(1)));
    let wide =
        FleetReport::from_run(&cider_fleet::run_fleet(&healing_fleet(8)));
    assert_eq!(first.to_json(), again.to_json(), "repeat run diverged");
    assert_eq!(first.to_json(), wide.to_json(), "thread count leaked");

    let healing = first.healing.as_ref().expect("healed run");
    // The lifecycle plan really killed devices, and they came back:
    // every fault was answered by a restore and every device finished
    // its full workload (no device wedged out at these rates).
    assert!(healing.crashes + healing.wedges > 0, "no faults fired");
    assert!(healing.recovered_devices > 0, "nobody recovered");
    assert_eq!(first.groups["all"].units_total, 64 * 8);
    assert_eq!(healing.wedged_devices, 0);
    // Baseline frames alone give one checkpoint per device.
    assert!(healing.checkpoints_taken >= 64);
}

/// Corrupt frames are part of the healing loop, not an abort: with
/// certain corruption on every write plus guaranteed crashes, restores
/// fall back past rejected frames (checksum mismatch in the ledger)
/// and the device still completes.
#[test]
fn corrupt_checkpoints_fall_back_to_older_good_frames() {
    let plan = FaultPlan::new(5)
        .with(FaultSite::DeviceCrash, 120)
        .with(FaultSite::CheckpointCorrupt, 1000);
    let s = DeviceSpec {
        fault_plan: Some(plan),
        ..spec(31, true, Workload::LmbenchMix { ops: 10 })
    };
    let r = run_device_healed(&s, &HealConfig::default());
    assert_eq!(r.outcome, DeviceOutcome::Completed);
    let stats = r.heal.expect("healed run");
    assert!(stats.crashes > 0, "crash plan never fired");
    assert!(stats.corrupt_detected > 0, "corruption never detected");
    assert!(
        stats
            .ledger
            .iter()
            .any(|l| l.contains("rejected") && l.contains("checksum")),
        "ledger missing checksum rejection: {:?}",
        stats.ledger
    );
}

/// The frames one self-healing device writes, in write order (after
/// any injected corruption), with the healing statistics of the run
/// that wrote them. The loop takes the decisions `run_device_healed`
/// takes, through the public checkpoint API; the caller checks the
/// statistics against the fleet's own, so the frames are the ones the
/// fleet wrote.
fn healed_frames(
    spec: &DeviceSpec,
    heal: &HealConfig,
) -> (Vec<u64>, HealStats) {
    let lifecycle_plan = spec
        .fault_plan
        .as_ref()
        .map(|p| p.only(&FaultSite::DEVICE_LIFECYCLE))
        .unwrap_or_else(FaultPlan::empty);
    let mut lifecycle = FaultLayer::with_plan(lifecycle_plan);
    let s = DeviceSpec {
        fault_plan: spec
            .fault_plan
            .as_ref()
            .map(|p| p.without(&FaultSite::DEVICE_LIFECYCLE)),
        ..spec.clone()
    };
    let mut store = CheckpointStore::with_capacity(heal.store_frames);
    let mut policy = SpacingPolicy::exponential(heal.ckpt_base, heal.ckpt_cap);
    let mut stats = HealStats::default();
    let mut written = Vec::new();
    let mut frame = |sim: &DeviceSim,
                     lifecycle: &mut FaultLayer,
                     store: &mut CheckpointStore,
                     stats: &mut HealStats| {
        let mut bytes = checkpoint_at(sim, &s);
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
        written.push(fnv1a(&bytes));
        store.push(sim.cursor(), bytes);
        stats.checkpoints_taken += 1;
    };

    let mut sim = DeviceSim::boot(&s);
    frame(&sim, &mut lifecycle, &mut store, &mut stats);
    while !sim.done() {
        if stats.restores >= heal.max_restores {
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
        let kind =
            if wedge || sim.step_within(heal.watchdog_budget_ns).is_err() {
                stats.wedges += 1;
                "device_wedge"
            } else if crash {
                stats.crashes += 1;
                "device_crash"
            } else {
                if policy.due(sim.cursor()) {
                    frame(&sim, &mut lifecycle, &mut store, &mut stats);
                    policy.taken(sim.cursor());
                }
                continue;
            };
        let mut from = ("boot".to_string(), 0);
        let mut restored = None;
        for (cursor, bytes) in store.candidates() {
            let ckpt = match Checkpoint::from_bytes(bytes) {
                Ok(ckpt) => ckpt,
                Err(err) => {
                    stats.corrupt_detected += 1;
                    stats
                        .ledger
                        .push(format!("ckpt@{cursor} rejected: {err}"));
                    continue;
                }
            };
            let mut replay = DeviceSim::boot(&s);
            for _ in 0..ckpt.header.cursor {
                replay.step();
            }
            stats.replayed_units += ckpt.header.cursor;
            if replay.capture() == ckpt.image {
                from = (format!("ckpt@{cursor}"), ckpt.header.cursor);
                restored = Some(replay);
                break;
            }
            stats.corrupt_detected += 1;
            let err = CkptError::ReplayDiverged {
                sections: replay.capture().diff(&ckpt.image).len(),
            };
            stats.ledger.push(format!("ckpt@{cursor} rejected: {err}"));
        }
        sim = restored.unwrap_or_else(|| DeviceSim::boot(&s));
        stats.restores += 1;
        stats.ledger.push(format!(
            "unit={at_unit} fault={kind} restored_from={} replayed={}",
            from.0, from.1
        ));
    }
    (written, stats)
}

/// The image bytes every capture site produces, pinned: for every
/// configuration × {lmbench mix, IPC storm, launch storm, app
/// lifecycle}, without and with `FaultPlan::matrix`, the FNV-1a of
/// `capture().to_bytes()` at cursor 0, at cursor 1 and when done; then
/// the FNV-1a of every frame each device of a healed lifecycle-fault
/// fleet writes, corrupted ones included. A capture or encoding change
/// that moves any byte fails here.
///
/// Regenerate (only as a labelled byte change that names the records
/// that moved) with:
///
/// ```text
/// UPDATE_GOLDEN=1 cargo test --test ckpt capture_bytes_match_golden
/// ```
#[test]
fn capture_bytes_match_golden() {
    use std::fmt::Write;
    let mut got = String::from(
        "# config\tworkload\tfaults\tFNV-1a of capture().to_bytes() at \
         cursor 0, cursor 1, done\n",
    );
    let workloads = [
        Workload::LmbenchMix { ops: 4 },
        Workload::IpcStorm { msgs: 3 },
        Workload::LaunchStorm { launches: 2 },
        Workload::AppLifecycle { cycles: 2 },
    ];
    for config in SystemConfig::ALL {
        for workload in workloads {
            for faults in [false, true] {
                let s = DeviceSpec {
                    device_id: 0,
                    seed: 19,
                    config,
                    workload,
                    fault_plan: faults.then(|| FaultPlan::matrix(19)),
                };
                let mut sim = DeviceSim::boot(&s);
                let mut digests = vec![fnv1a(&sim.capture().to_bytes())];
                sim.step();
                digests.push(fnv1a(&sim.capture().to_bytes()));
                while !sim.done() {
                    sim.step();
                }
                digests.push(fnv1a(&sim.capture().to_bytes()));
                let [a, b, c] = digests[..] else {
                    unreachable!()
                };
                writeln!(
                    got,
                    "{}\t{}\t{}\t{a:016x}\t{b:016x}\t{c:016x}",
                    config.slug(),
                    workload.slug(),
                    if faults { "matrix" } else { "none" },
                )
                .unwrap();
            }
        }
    }

    got.push_str("# healed fleet device\tframes\tFNV-1a of each frame\n");
    let lifecycle = FaultPlan::new(23)
        .with(FaultSite::DeviceCrash, 60)
        .with(FaultSite::DeviceWedge, 20)
        .with(FaultSite::CheckpointCorrupt, 300);
    let fleet = FleetSpec::new(8, 42, Workload::LmbenchMix { ops: 16 })
        .fault_plan(lifecycle)
        .heal(HealConfig::default());
    let heal = fleet.heal.unwrap();
    let (mut restores, mut rejected) = (0, 0);
    for s in fleet.device_specs() {
        let (digests, stats) = healed_frames(&s, &heal);
        let fleet_stats = run_device_healed(&s, &heal).heal.unwrap();
        assert_eq!(stats, fleet_stats, "device {}", s.device_id);
        restores += stats.restores;
        rejected += stats.corrupt_detected;
        let frames: Vec<String> =
            digests.iter().map(|d| format!("{d:016x}")).collect();
        writeln!(
            got,
            "{}\t{}\t{}",
            s.device_id,
            frames.len(),
            frames.join(" ")
        )
        .unwrap();
    }
    // Restores that fall back past rejected frames run both restore
    // branches.
    assert!(restores > 0 && rejected > 0, "the fleet must heal");

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/ckpt_images.txt");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    assert_eq!(got, want, "capture or frame bytes moved");
}
