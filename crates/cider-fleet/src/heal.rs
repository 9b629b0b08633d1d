//! Fleet self-healing: periodic replay-verified checkpoints plus a
//! crash boundary around every workload unit.
//!
//! [`run_device_healed`] wraps a [`DeviceSim`] in the full recovery
//! state machine:
//!
//! * a **baseline checkpoint** at unit 0, then periodic checkpoints on
//!   an exponential schedule ([`SpacingPolicy`]) retained in a bounded
//!   [`CheckpointStore`];
//! * **fault classification** per unit: an injected wedge hangs the
//!   unit before it runs, an injected crash kills the device after the
//!   unit ran, and a genuine virtual-time watchdog expiry, the only
//!   fault that unwinds, is caught by [`DeviceSim::step_within`] and
//!   counts as a wedge;
//! * on any fault, a **restore**: walk the stored frames newest-first,
//!   reject corrupt frames by checksum ([`Checkpoint::from_bytes`]),
//!   re-boot and replay the survivor to its cursor, and verify the
//!   replayed state byte-for-byte against the checkpointed image
//!   before trusting it (falling back to a fresh boot as the path of
//!   last resort);
//! * **capped retries**: a device that keeps dying reports
//!   [`DeviceOutcome::Wedged`] with partial results instead of looping
//!   forever.
//!
//! Lifecycle faults ([`FaultSite::DEVICE_LIFECYCLE`]) are drawn by a
//! *harness-side* [`FaultLayer`] that survives restores — the kernel's
//! own fault layer is part of the checkpointed state and would forget
//! its draws — so a retried unit re-rolls the dice deterministically.
//! Everything here is a pure function of the spec: the recovery
//! ledger, like the fingerprint, is byte-identical across host-thread
//! counts.

use cider_ckpt::{
    Checkpoint, CheckpointStore, CkptError, CkptHeader, SpacingPolicy,
};
use cider_fault::{FaultLayer, FaultPlan, FaultSite, Fnv1a};

use crate::device::{DeviceOutcome, DeviceResult, DeviceSim};
use crate::spec::DeviceSpec;

/// Tunables of the self-healing loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealConfig {
    /// First periodic checkpoint falls due at this unit; the gap then
    /// doubles after every capture.
    pub ckpt_base: u64,
    /// Cap on the doubling checkpoint interval, in units.
    pub ckpt_cap: u64,
    /// Checkpoint frames retained per device (baseline never evicted).
    pub store_frames: usize,
    /// Restores allowed before the device gives up and reports
    /// [`DeviceOutcome::Wedged`].
    pub max_restores: u64,
    /// Per-unit virtual-time budget; a unit that burns more trips the
    /// clock watchdog and is treated as a wedge.
    pub watchdog_budget_ns: u64,
}

impl Default for HealConfig {
    fn default() -> HealConfig {
        HealConfig {
            ckpt_base: 2,
            ckpt_cap: 16,
            store_frames: 4,
            max_restores: 8,
            watchdog_budget_ns: 5_000_000_000,
        }
    }
}

/// What the healing loop did for one device. Deterministic: folds into
/// the device fingerprint, so a recovery regression is a determinism
/// break.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HealStats {
    /// Injected crashes.
    pub crashes: u64,
    /// Wedges caught (injected or genuine watchdog expiries).
    pub wedges: u64,
    /// Stored frames rejected during restore (corruption or replay
    /// divergence).
    pub corrupt_detected: u64,
    /// Restores performed (including fresh-boot fallbacks).
    pub restores: u64,
    /// Workload units re-executed across all restores.
    pub replayed_units: u64,
    /// Checkpoint frames written.
    pub checkpoints_taken: u64,
    /// Human-readable recovery ledger, in event order.
    pub ledger: Vec<String>,
}

impl HealStats {
    pub(crate) fn fold_into(&self, h: &mut Fnv1a) {
        h.write_u64(self.crashes);
        h.write_u64(self.wedges);
        h.write_u64(self.corrupt_detected);
        h.write_u64(self.restores);
        h.write_u64(self.replayed_units);
        h.write_u64(self.checkpoints_taken);
        for line in &self.ledger {
            h.write_str(line);
        }
    }
}

/// Runs one device under the self-healing state machine. Pure function
/// of `(spec, heal)`: same inputs, byte-identical result — including
/// the recovery ledger.
pub fn run_device_healed(
    spec: &DeviceSpec,
    heal: &HealConfig,
) -> DeviceResult {
    let (sim, outcome, stats) = heal_device(spec, heal);
    sim.finish(outcome, Some(stats))
}

/// The healing loop of [`run_device_healed`], stopping short of
/// [`DeviceSim::finish`]: the sim as it ended, its outcome, and the
/// healing statistics that fold into its fingerprint.
pub(crate) fn heal_device(
    spec: &DeviceSpec,
    heal: &HealConfig,
) -> (DeviceSim, DeviceOutcome, HealStats) {
    // Lifecycle faults are drawn out here, in the harness; the kernel
    // gets everything else. Splitting by site keeps each partition's
    // per-site RNG streams identical to an unsplit plan's.
    let lifecycle_plan = spec
        .fault_plan
        .as_ref()
        .map(|p| p.only(&FaultSite::DEVICE_LIFECYCLE))
        .unwrap_or_else(FaultPlan::empty);
    let mut lifecycle = FaultLayer::with_plan(lifecycle_plan);
    let sim_spec = DeviceSpec {
        fault_plan: spec
            .fault_plan
            .as_ref()
            .map(|p| p.without(&FaultSite::DEVICE_LIFECYCLE)),
        ..spec.clone()
    };

    let mut sim = DeviceSim::boot(&sim_spec);
    let mut store = CheckpointStore::with_capacity(heal.store_frames);
    let mut policy = SpacingPolicy::exponential(heal.ckpt_base, heal.ckpt_cap);
    let mut stats = HealStats::default();

    // The baseline: restore path of last resort before fresh boot.
    write_frame(&mut store, &mut lifecycle, &mut stats, &sim, &sim_spec);

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
        // Consult both lifecycle sites every attempted unit, in fixed
        // order, so the draw sequence is independent of what fires.
        let crash =
            lifecycle.try_inject(FaultSite::DeviceCrash, now).is_some();
        let wedge =
            lifecycle.try_inject(FaultSite::DeviceWedge, now).is_some();
        // An injected wedge hangs the unit before it runs, so it skips
        // the step and outranks a crash; a genuine watchdog expiry is a
        // wedge too. A crashed device dies after the unit mutated state
        // but before its completion is ever checkpointed.
        let wedged =
            wedge || sim.step_within(heal.watchdog_budget_ns).is_err();
        let kind = if wedged {
            stats.wedges += 1;
            "device_wedge"
        } else if crash {
            stats.crashes += 1;
            "device_crash"
        } else {
            if policy.due(sim.cursor()) {
                write_frame(
                    &mut store,
                    &mut lifecycle,
                    &mut stats,
                    &sim,
                    &sim_spec,
                );
                policy.taken(sim.cursor());
            }
            continue;
        };
        let (restored, from, replayed) =
            restore(&sim_spec, &store, &mut stats);
        stats.restores += 1;
        stats.ledger.push(format!(
            "unit={at_unit} fault={kind} \
             restored_from={from} replayed={replayed}"
        ));
        sim = restored;
    }
    (sim, outcome, stats)
}

/// Captures and stores one checkpoint frame, consulting the
/// [`FaultSite::CheckpointCorrupt`] schedule at the storage boundary —
/// corruption strikes the bytes at rest, which is exactly where the
/// restore-side checksum must catch it.
fn write_frame(
    store: &mut CheckpointStore,
    lifecycle: &mut FaultLayer,
    stats: &mut HealStats,
    sim: &DeviceSim,
    spec: &DeviceSpec,
) {
    let ckpt = Checkpoint::new(
        CkptHeader {
            device_id: spec.device_id,
            seed: spec.seed,
            config: spec.config.slug().to_string(),
            workload: spec.workload.slug().to_string(),
            cursor: sim.cursor(),
            virtual_ns: sim.now_ns(),
        },
        sim.capture(),
    );
    let mut bytes = ckpt.to_bytes();
    if let Some(seq) =
        lifecycle.try_inject(FaultSite::CheckpointCorrupt, sim.now_ns())
    {
        // Flip one bit at a position derived from the injection
        // sequence number: deterministic, and lands somewhere new on
        // every strike.
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
}

/// Restores the newest trustworthy checkpoint: checksum-reject corrupt
/// frames, replay the survivor from boot, and verify the replayed
/// state byte-for-byte against the image before returning it. Returns
/// the restored sim, where it came from, and how many units replayed.
fn restore(
    spec: &DeviceSpec,
    store: &CheckpointStore,
    stats: &mut HealStats,
) -> (DeviceSim, String, u64) {
    for (cursor, bytes) in store.candidates() {
        match Checkpoint::from_bytes(bytes) {
            Err(err) => {
                stats.corrupt_detected += 1;
                stats.ledger.push(format!("ckpt@{cursor} rejected: {err}"));
            }
            Ok(ckpt) => {
                let mut sim = DeviceSim::boot(spec);
                for _ in 0..ckpt.header.cursor {
                    sim.step();
                }
                stats.replayed_units += ckpt.header.cursor;
                let replayed = sim.capture();
                if replayed == ckpt.image {
                    return (
                        sim,
                        format!("ckpt@{cursor}"),
                        ckpt.header.cursor,
                    );
                }
                stats.corrupt_detected += 1;
                let err = CkptError::ReplayDiverged {
                    sections: replayed.diff(&ckpt.image).len(),
                };
                stats.ledger.push(format!("ckpt@{cursor} rejected: {err}"));
            }
        }
    }
    (DeviceSim::boot(spec), "boot".to_string(), 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Workload;
    use cider_bench::SystemConfig;

    fn spec(seed: u64, plan: Option<FaultPlan>) -> DeviceSpec {
        DeviceSpec {
            device_id: 0,
            seed,
            config: SystemConfig::CiderIos,
            workload: Workload::LmbenchMix { ops: 24 },
            fault_plan: plan,
        }
    }

    fn lifecycle_certain_crash(seed: u64) -> FaultPlan {
        // One guaranteed crash, then quiet.
        FaultPlan::new(seed).site(
            FaultSite::DeviceCrash,
            cider_fault::SiteConfig::with_probability(1000).budget(1),
        )
    }

    #[test]
    fn no_lifecycle_faults_matches_plain_run_fingerprint_free() {
        // A healed run without lifecycle faults completes all units
        // with zero restores; its heal stats fold into the
        // fingerprint, so it differs from a plain run's print, but the
        // kernel-side work must be identical.
        let s = spec(7, None);
        let healed = run_device_healed(&s, &HealConfig::default());
        let plain = crate::device::run_device(&s);
        assert_eq!(healed.outcome, DeviceOutcome::Completed);
        assert_eq!(healed.units_completed, plain.units_completed);
        assert_eq!(healed.virtual_ns, plain.virtual_ns);
        let stats = healed.heal.unwrap();
        assert_eq!(stats.restores, 0);
        assert_eq!(stats.crashes, 0);
        assert!(stats.checkpoints_taken >= 2, "baseline + periodic");
    }

    #[test]
    fn crashed_device_recovers_and_completes() {
        let s = spec(11, Some(lifecycle_certain_crash(3)));
        let r = run_device_healed(&s, &HealConfig::default());
        assert_eq!(r.outcome, DeviceOutcome::Completed);
        assert_eq!(r.units_completed, 24);
        let stats = r.heal.unwrap();
        assert_eq!(stats.crashes, 1);
        assert_eq!(stats.restores, 1);
        assert!(stats
            .ledger
            .iter()
            .any(|l| l.contains("fault=device_crash")));
    }

    #[test]
    fn recovery_is_deterministic() {
        let plan = FaultPlan::lifecycle(5);
        let s = spec(13, Some(plan));
        let a = run_device_healed(&s, &HealConfig::default());
        let b = run_device_healed(&s, &HealConfig::default());
        assert_eq!(a.trace_fingerprint, b.trace_fingerprint);
        assert_eq!(a.heal, b.heal);
    }

    #[test]
    fn corrupt_checkpoint_falls_back_to_older_frame() {
        // Certain corruption on every checkpoint write + one crash:
        // the restore path must reject every corrupt frame by checksum
        // and end on the fresh-boot fallback rather than panicking.
        let plan = FaultPlan::new(17)
            .site(
                FaultSite::DeviceCrash,
                cider_fault::SiteConfig::with_probability(80).budget(2),
            )
            .with(FaultSite::CheckpointCorrupt, 1000);
        let s = spec(29, Some(plan));
        let r = run_device_healed(&s, &HealConfig::default());
        let stats = r.heal.clone().unwrap();
        if stats.crashes + stats.wedges > 0 {
            assert!(stats.corrupt_detected > 0);
            assert!(stats
                .ledger
                .iter()
                .any(|l| l.contains("checksum mismatch")));
        }
        assert_eq!(r.outcome, DeviceOutcome::Completed);
        assert_eq!(r.units_completed, 24);
    }

    #[test]
    fn wedge_injection_is_caught_and_healed() {
        let plan = FaultPlan::new(23).site(
            FaultSite::DeviceWedge,
            cider_fault::SiteConfig::with_probability(1000).budget(1),
        );
        let s = spec(31, Some(plan));
        let r = run_device_healed(&s, &HealConfig::default());
        assert_eq!(r.outcome, DeviceOutcome::Completed);
        let stats = r.heal.unwrap();
        assert_eq!(stats.wedges, 1);
        assert!(stats
            .ledger
            .iter()
            .any(|l| l.contains("fault=device_wedge")));
    }

    #[test]
    fn wedge_outranks_crash() {
        let certain =
            cider_fault::SiteConfig::with_probability(1000).budget(1);
        let plan = FaultPlan::new(31)
            .site(FaultSite::DeviceCrash, certain)
            .site(FaultSite::DeviceWedge, certain);
        let s = DeviceSpec {
            workload: Workload::LmbenchMix { ops: 6 },
            ..spec(31, Some(plan))
        };
        let r = run_device_healed(&s, &HealConfig::default());
        assert_eq!(r.outcome, DeviceOutcome::Completed);
        let stats = r.heal.unwrap();
        assert_eq!((stats.wedges, stats.crashes, stats.restores), (1, 0, 1));
        assert_eq!(
            stats.ledger,
            ["unit=0 fault=device_wedge restored_from=ckpt@0 replayed=0"]
        );
    }

    #[test]
    fn retries_are_capped() {
        // A crash on every unit can never finish; the device must give
        // up after max_restores and report Wedged, not loop forever.
        let plan = FaultPlan::new(41).with(FaultSite::DeviceCrash, 1000);
        let s = spec(43, Some(plan));
        let cfg = HealConfig {
            max_restores: 3,
            ..HealConfig::default()
        };
        let r = run_device_healed(&s, &cfg);
        assert!(matches!(r.outcome, DeviceOutcome::Wedged { .. }));
        let stats = r.heal.unwrap();
        assert_eq!(stats.restores, 3);
        assert!(stats.ledger.iter().any(|l| l.contains("gave_up")));
    }
}
