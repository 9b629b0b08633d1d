//! Deterministic, seeded fault injection for the Cider stack.
//!
//! The paper's claim is that unmodified foreign binaries keep working on
//! a domestic kernel — which is only meaningful if the *error* paths
//! degrade as gracefully as the happy paths. This crate supplies the
//! mechanism half of that argument, in the spirit of FoundationDB-style
//! deterministic simulation testing:
//!
//! * a [`FaultPlan`] names injection sites ([`FaultSite`]) across the
//!   stack (VFS I/O, zalloc exhaustion, Mach port/queue pressure, dyld
//!   resolution, fork PTE copies, GPU fences, input events) and gives
//!   each a probability, budget, and virtual-time activation window;
//! * a [`FaultLayer`] owns the per-site PRNG state and a ledger of what
//!   actually fired, so the same seed + plan replays the exact same
//!   fault schedule;
//! * recovery actions (supervisor respawns, watchdog kicks, fence
//!   fallbacks) are recorded next to the injections so reports can show
//!   a fault/recovery ledger per configuration.
//!
//! Determinism rules: randomness comes only from a splitmix64 stream
//! seeded by `plan.seed ^ hash(site)`, advanced once per *consulted*
//! draw; time comes only from the virtual clock the caller passes in.
//! An empty plan takes an early-out before any state is touched, which
//! is what makes "empty plan ≡ no fault layer" hold bit-for-bit.

#![warn(missing_docs)]

mod layer;
mod plan;
mod rng;

pub use layer::{FaultLayer, FaultRecord, RecoveryRecord};
pub use plan::{FaultPlan, FaultSite, SiteConfig};
pub use rng::{fnv1a, splitmix64, Fnv1a, SplitMix64};
