//! The memorystatus subsystem: per-process jetsam bands, footprint
//! accounting, and pressure-driven kills.
//!
//! iOS has no swap; when free memory runs low the kernel's
//! memorystatus thread walks the jetsam priority bands from the bottom
//! and kills processes until pressure clears
//! (`bsd/kern/kern_memorystatus.c`). The framework layer above parks
//! every app in a band matching its lifecycle state, so backgrounded
//! and suspended apps die first and the foreground app dies only under
//! critical pressure.
//!
//! This module is pure bookkeeping over virtual state: it never
//! touches the clock and draws no randomness of its own. Nothing is
//! tracked until a caller registers a process, so every existing
//! workload — and every pinned golden — is byte-identical to a kernel
//! without the subsystem. The kill itself (performed by
//! [`crate::kernel::Kernel::sys_jetsam_tick`]) reuses the ordinary
//! `exit` path, so a jetsammed process leaves the same zombie a
//! SIGKILL would.

use std::collections::BTreeMap;
use std::fmt;

use cider_abi::ids::Pid;
use cider_abi::memorystatus::{PressureLevel, JETSAM_PRIORITY_MAX};

/// Per-process memorystatus record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ProcEntry {
    /// Jetsam priority band the process currently sits in.
    band: u8,
    /// Tracked footprint, bytes.
    footprint: u64,
}

/// Monotonic counters, part of the `kernel/memorystatus` checkpoint
/// section.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryStatusStats {
    /// Jetsam passes executed.
    pub ticks: u64,
    /// Processes killed by pressure-driven passes.
    pub pressure_kills: u64,
    /// Processes killed by the [`cider_fault::FaultSite::JetsamKill`]
    /// injection (spurious kills under transient spikes).
    pub fault_kills: u64,
    /// High-water mark of the total tracked footprint.
    pub peak_footprint: u64,
}

/// Device-wide memorystatus state owned by the kernel.
#[derive(Debug, Clone)]
pub struct MemoryStatus {
    /// Warn watermark: total footprint at or above this makes the
    /// idle/suspended bands eligible. `u64::MAX` = unset.
    warn_bytes: u64,
    /// Critical watermark: everything below the daemon band becomes
    /// eligible. `u64::MAX` = unset.
    critical_bytes: u64,
    entries: BTreeMap<u32, ProcEntry>,
    /// Memorystatus counters.
    pub stats: MemoryStatusStats,
}

impl Default for MemoryStatus {
    fn default() -> MemoryStatus {
        MemoryStatus::new()
    }
}

impl MemoryStatus {
    /// Empty subsystem with unset watermarks: nothing tracked, nothing
    /// killable.
    pub fn new() -> MemoryStatus {
        MemoryStatus {
            warn_bytes: u64::MAX,
            critical_bytes: u64::MAX,
            entries: BTreeMap::new(),
            stats: MemoryStatusStats::default(),
        }
    }

    /// Sets the pressure watermarks. `warn` must not exceed
    /// `critical`; values are swapped if it does.
    pub fn set_watermarks(&mut self, warn: u64, critical: u64) {
        self.warn_bytes = warn.min(critical);
        self.critical_bytes = warn.max(critical);
    }

    /// Registers (or re-bands) a process. Footprint is preserved on
    /// re-registration.
    pub fn track(&mut self, pid: Pid, band: u8) {
        let band = band.min(JETSAM_PRIORITY_MAX);
        self.entries
            .entry(pid.0)
            .and_modify(|e| e.band = band)
            .or_insert(ProcEntry { band, footprint: 0 });
    }

    /// Forgets a process (exit or jetsam). Idempotent.
    pub fn untrack(&mut self, pid: Pid) {
        self.entries.remove(&pid.0);
    }

    /// The process's current band, if tracked.
    pub fn band(&self, pid: Pid) -> Option<u8> {
        self.entries.get(&pid.0).map(|e| e.band)
    }

    /// The process's tracked footprint, if tracked.
    pub fn footprint(&self, pid: Pid) -> Option<u64> {
        self.entries.get(&pid.0).map(|e| e.footprint)
    }

    /// Adds to a tracked process's footprint. Untracked pids are
    /// ignored (the kernel never double-books untracked memory).
    pub fn charge_footprint(&mut self, pid: Pid, bytes: u64) {
        if let Some(e) = self.entries.get_mut(&pid.0) {
            e.footprint = e.footprint.saturating_add(bytes);
        }
        let total = self.total_footprint();
        if total > self.stats.peak_footprint {
            self.stats.peak_footprint = total;
        }
    }

    /// Releases part of a tracked process's footprint.
    pub fn release_footprint(&mut self, pid: Pid, bytes: u64) {
        if let Some(e) = self.entries.get_mut(&pid.0) {
            e.footprint = e.footprint.saturating_sub(bytes);
        }
    }

    /// Total tracked footprint, bytes.
    pub fn total_footprint(&self) -> u64 {
        self.entries.values().map(|e| e.footprint).sum()
    }

    /// Number of tracked processes.
    pub fn tracked(&self) -> usize {
        self.entries.len()
    }

    /// Current pressure level from the watermarks.
    pub fn level(&self) -> PressureLevel {
        let total = self.total_footprint();
        if total >= self.critical_bytes {
            PressureLevel::Critical
        } else if total >= self.warn_bytes {
            PressureLevel::Warn
        } else {
            PressureLevel::Normal
        }
    }

    /// Picks the next jetsam victim among bands strictly below
    /// `below`: lowest band first, then largest footprint, then lowest
    /// pid — a total order, so selection is deterministic.
    pub fn select_victim(&self, below: u8) -> Option<Pid> {
        self.entries
            .iter()
            .filter(|(_, e)| e.band < below)
            .min_by_key(|(pid, e)| (e.band, u64::MAX - e.footprint, **pid))
            .map(|(pid, _)| Pid(*pid))
    }

    /// One-line deterministic record for the `kernel/memorystatus`
    /// checkpoint section, formatted where it is written.
    pub fn ckpt_record(&self) -> impl fmt::Display + '_ {
        fmt::from_fn(move |f| {
            write!(f, "level={} wm=", self.level().name())?;
            if self.warn_bytes == u64::MAX {
                f.write_str("unset")?;
            } else {
                write!(f, "{}/{}", self.warn_bytes, self.critical_bytes)?;
            }
            f.write_str(" procs=")?;
            if self.entries.is_empty() {
                f.write_str("-")?;
            }
            for (pid, e) in &self.entries {
                write!(f, "{pid}:b{}:{}B,", e.band, e.footprint)?;
            }
            write!(
                f,
                " ticks={} pkills={} fkills={} peak={}",
                self.stats.ticks,
                self.stats.pressure_kills,
                self.stats.fault_kills,
                self.stats.peak_footprint,
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untracked_subsystem_is_inert() {
        let m = MemoryStatus::new();
        assert_eq!(m.level(), PressureLevel::Normal);
        assert_eq!(m.select_victim(JETSAM_PRIORITY_MAX), None);
        assert_eq!(m.total_footprint(), 0);
        assert!(m
            .ckpt_record()
            .to_string()
            .contains("level=normal wm=unset procs=-"));
    }

    #[test]
    fn watermarks_drive_the_level() {
        let mut m = MemoryStatus::new();
        m.set_watermarks(100, 200);
        m.track(Pid(1), 10);
        assert_eq!(m.level(), PressureLevel::Normal);
        m.charge_footprint(Pid(1), 100);
        assert_eq!(m.level(), PressureLevel::Warn);
        m.charge_footprint(Pid(1), 100);
        assert_eq!(m.level(), PressureLevel::Critical);
        m.release_footprint(Pid(1), 150);
        assert_eq!(m.level(), PressureLevel::Normal);
        assert_eq!(m.stats.peak_footprint, 200);
    }

    #[test]
    fn victim_order_is_band_then_footprint_then_pid() {
        let mut m = MemoryStatus::new();
        m.track(Pid(1), 10); // foreground: survives below=10
        m.track(Pid(2), 3);
        m.track(Pid(3), 3);
        m.track(Pid(4), 2);
        m.charge_footprint(Pid(2), 50);
        m.charge_footprint(Pid(3), 90);
        // Lowest band wins regardless of footprint.
        assert_eq!(m.select_victim(10), Some(Pid(4)));
        m.untrack(Pid(4));
        // Same band: biggest footprint dies first.
        assert_eq!(m.select_victim(10), Some(Pid(3)));
        m.untrack(Pid(3));
        assert_eq!(m.select_victim(10), Some(Pid(2)));
        m.untrack(Pid(2));
        // The foreground app is out of the window.
        assert_eq!(m.select_victim(10), None);
        assert_eq!(m.select_victim(11), Some(Pid(1)));
    }

    #[test]
    fn ckpt_record_is_deterministic() {
        let mut m = MemoryStatus::new();
        m.set_watermarks(64, 128);
        m.track(Pid(7), 3);
        m.charge_footprint(Pid(7), 42);
        let a = m.ckpt_record().to_string();
        let b = m.clone().ckpt_record().to_string();
        assert_eq!(a, b);
        assert!(a.contains("7:b3:42B"));
        assert!(a.contains("wm=64/128"));
    }
}
