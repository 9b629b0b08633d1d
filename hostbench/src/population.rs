//! The three workloads as fixed device populations derived from a seed.

use cider_fault::{splitmix64, FaultPlan};
use cider_fleet::{
    run_fleet, DeviceResult, DeviceSpec, FleetSpec, HealConfig, PersonaMix,
    Workload,
};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Load {
    /// Cheap traced kernel entries: lmbench units on both personas plus
    /// Mach IPC storms on iOS.
    TrapMix,
    /// Few heavy operations: cold launches and app lifecycle cycles.
    LaunchMix,
    /// trap_mix's lmbench unit under self-healing with lifecycle faults.
    HealChurn,
}

impl Load {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Load> {
        match name {
            "trap_mix" => Some(Load::TrapMix),
            "launch_mix" => Some(Load::LaunchMix),
            "heal_churn" => Some(Load::HealChurn),
            _ => None,
        }
    }

    /// Sub-fleets of the population. Sizes are fixed; the seed only
    /// changes what each device draws, so every seed puts the same
    /// number of iOS and Android units in a batch.
    fn fleets(self, seed: u64, fault_seed: u64) -> Vec<FleetSpec> {
        let sub = |i: u64| {
            let mut s = seed ^ i.wrapping_mul(0xA076_1D64_78BD_642F);
            splitmix64(&mut s)
        };
        match self {
            Load::TrapMix => vec![
                FleetSpec::new(8, sub(1), Workload::LmbenchMix { ops: 256 })
                    .mix(PersonaMix::EVEN),
                // Every IPC unit fails on the Android persona, so the
                // storm runs on iOS devices only.
                FleetSpec::new(4, sub(2), Workload::IpcStorm { msgs: 128 })
                    .mix(PersonaMix::ALL_IOS),
            ],
            Load::LaunchMix => vec![
                FleetSpec::new(
                    8,
                    sub(3),
                    Workload::LaunchStorm { launches: 4 },
                )
                .mix(PersonaMix::EVEN),
                FleetSpec::new(
                    8,
                    sub(4),
                    Workload::AppLifecycle { cycles: 2 },
                )
                .mix(PersonaMix::EVEN),
            ],
            // Lifecycle faults strike ~4 % of attempts, and every fault
            // rolls the device back to its newest frame, up to 16 units
            // back. With the default cap of 8 restores, a run of faults
            // in one checkpoint gap wedges the device and fails its
            // remaining units (3 of 10 seeds at 64 devices of 32
            // units). A cap of 32 and 16 units per device keep every
            // unit completing, and keep replay at about a fifth of the
            // work so its seed-to-seed variation stays small.
            Load::HealChurn => vec![FleetSpec::new(
                128,
                sub(1),
                Workload::LmbenchMix { ops: 16 },
            )
            .mix(PersonaMix::EVEN)
            .fault_plan(FaultPlan::lifecycle(fault_seed))
            .heal(HealConfig {
                max_restores: 32,
                ..HealConfig::default()
            })],
        }
    }
}

/// One workload's devices, flattened across its sub-fleets.
pub struct Population {
    fleets: Vec<FleetSpec>,
    /// Every device, in sub-fleet then device-id order.
    pub devices: Vec<DeviceSpec>,
    /// Heal configuration when the workload self-heals.
    pub heal: Option<HealConfig>,
}

impl Population {
    /// Derives the population of `mix` from the two seeds.
    pub fn new(mix: Load, seed: u64, fault_seed: u64) -> Population {
        let fleets = mix.fleets(seed, fault_seed);
        let devices =
            fleets.iter().flat_map(FleetSpec::device_specs).collect();
        let heal = fleets[0].heal;
        Population {
            fleets,
            devices,
            heal,
        }
    }

    /// Units the population attempts per batch.
    pub fn units_attempted(&self) -> u64 {
        self.devices
            .iter()
            .map(|d| u64::from(d.workload.units()))
            .sum()
    }

    /// The reference results: one pass through `run_fleet` on one host
    /// thread, in the same device order as [`Population::devices`].
    pub fn reference(&self) -> Vec<DeviceResult> {
        self.fleets
            .iter()
            .flat_map(|f| run_fleet(&f.clone().host_threads(1)).results)
            .collect()
    }
}
