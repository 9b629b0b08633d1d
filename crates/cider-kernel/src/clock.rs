//! Virtual time.
//!
//! The simulator never reads the host clock: every kernel operation
//! *charges* virtual nanoseconds to the [`VirtualClock`], scaled by the
//! active [`DeviceProfile`](crate::profile::DeviceProfile). Benchmarks
//! measure elapsed virtual time, which makes every experiment exactly
//! reproducible and lets one host machine model two different devices
//! (the Nexus 7 and the iPad mini).

use std::fmt;

/// A monotonically increasing virtual clock, in nanoseconds.
///
/// Besides the time, the clock counts its charges: how many
/// [`VirtualClock::advance`] calls brought it to `now_ns`. Advancing is
/// the single hottest operation in the simulator, so both are plain
/// fields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VirtualClock {
    now_ns: u64,
    charges: u64,
    /// Virtual instant past which [`VirtualClock::advance`] trips the
    /// watchdog. `u64::MAX` (the default) means disarmed; the hot-path
    /// cost of the bound is one always-predicted compare.
    watchdog_limit_ns: u64,
}

/// Typed panic payload thrown when an armed watchdog expires. Fleet
/// drivers install a crash boundary (`catch_unwind`) around each
/// workload unit and downcast to this to distinguish a runaway device
/// (report it `Wedged`, or restore it from a checkpoint) from a
/// genuine kernel bug.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchdogExpired {
    /// Virtual time at the expiring charge.
    pub now_ns: u64,
    /// The armed budget limit.
    pub limit_ns: u64,
}

impl Default for VirtualClock {
    fn default() -> VirtualClock {
        VirtualClock::new()
    }
}

impl VirtualClock {
    /// A clock starting at zero.
    pub fn new() -> VirtualClock {
        VirtualClock {
            now_ns: 0,
            charges: 0,
            watchdog_limit_ns: u64::MAX,
        }
    }

    /// Current virtual time in nanoseconds since boot.
    pub fn now_ns(&self) -> u64 {
        self.now_ns
    }

    /// How many times [`VirtualClock::advance`] has charged the clock.
    pub fn charges(&self) -> u64 {
        self.charges
    }

    /// Arms the virtual-time watchdog: any [`VirtualClock::advance`]
    /// that carries the clock past `limit_ns` panics with a
    /// [`WatchdogExpired`] payload. Callers are expected to hold a
    /// `catch_unwind` boundary; the panic is the mechanism that stops
    /// a runaway (wedged) simulation from burning virtual time
    /// forever, since a wedge by definition never returns to a place
    /// that could check a flag.
    pub fn arm_watchdog(&mut self, limit_ns: u64) {
        self.watchdog_limit_ns = limit_ns;
    }

    /// Disarms the watchdog.
    pub fn disarm_watchdog(&mut self) {
        self.watchdog_limit_ns = u64::MAX;
    }

    /// The armed watchdog limit, or `u64::MAX` when disarmed.
    pub fn watchdog_limit_ns(&self) -> u64 {
        self.watchdog_limit_ns
    }

    /// Advances the clock by `ns` nanoseconds, saturating at
    /// `u64::MAX` instead of wrapping.
    #[inline]
    pub fn advance(&mut self, ns: u64) {
        self.now_ns = self.now_ns.saturating_add(ns);
        self.charges += 1;
        if self.now_ns > self.watchdog_limit_ns {
            std::panic::panic_any(WatchdogExpired {
                now_ns: self.now_ns,
                limit_ns: self.watchdog_limit_ns,
            });
        }
    }
}

impl fmt::Display for VirtualClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}ns", self.now_ns)
    }
}

/// A span of virtual time, produced by [`Stopwatch`].
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default,
)]
pub struct VirtualDuration {
    /// Elapsed virtual nanoseconds.
    pub ns: u64,
}

impl VirtualDuration {
    /// Zero-length duration.
    pub const ZERO: VirtualDuration = VirtualDuration { ns: 0 };

    /// Builds a duration from nanoseconds.
    pub const fn from_nanos(ns: u64) -> VirtualDuration {
        VirtualDuration { ns }
    }

    /// The duration in (fractional) microseconds.
    pub fn as_micros_f64(self) -> f64 {
        self.ns as f64 / 1_000.0
    }

    /// The duration in (fractional) milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.ns as f64 / 1_000_000.0
    }
}

impl fmt::Display for VirtualDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.ns >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if self.ns >= 1_000 {
            write!(f, "{:.3}us", self.as_micros_f64())
        } else {
            write!(f, "{}ns", self.ns)
        }
    }
}

impl std::ops::Add for VirtualDuration {
    type Output = VirtualDuration;
    fn add(self, rhs: VirtualDuration) -> VirtualDuration {
        VirtualDuration {
            ns: self.ns + rhs.ns,
        }
    }
}

impl std::iter::Sum for VirtualDuration {
    fn sum<I: Iterator<Item = VirtualDuration>>(iter: I) -> VirtualDuration {
        iter.fold(VirtualDuration::ZERO, |a, b| a + b)
    }
}

/// Measures elapsed virtual time between two clock observations.
///
/// # Example
///
/// ```
/// use cider_kernel::clock::{Stopwatch, VirtualClock};
///
/// let mut clock = VirtualClock::new();
/// let sw = Stopwatch::start(&clock);
/// clock.advance(1500);
/// assert_eq!(sw.elapsed(&clock).ns, 1500);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start_ns: u64,
}

impl Stopwatch {
    /// Starts timing at the clock's current instant.
    pub fn start(clock: &VirtualClock) -> Stopwatch {
        Stopwatch {
            start_ns: clock.now_ns(),
        }
    }

    /// Virtual time elapsed since [`Stopwatch::start`].
    pub fn elapsed(&self, clock: &VirtualClock) -> VirtualDuration {
        VirtualDuration {
            ns: clock.now_ns() - self.start_ns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_advances_and_counts_charges() {
        let mut c = VirtualClock::new();
        assert_eq!((c.now_ns(), c.charges()), (0, 0));
        let steps = [100, 50, 0, 7];
        for ns in steps {
            c.advance(ns);
        }
        assert_eq!(c.charges(), steps.len() as u64);
        assert_eq!(c.now_ns(), steps.iter().sum::<u64>());
    }

    #[test]
    fn watchdog_panics_past_limit_with_typed_payload() {
        let mut c = VirtualClock::new();
        c.arm_watchdog(1_000);
        c.advance(900);
        c.advance(100); // exactly at the limit: still fine
        assert_eq!(c.now_ns(), 1_000);
        let err = std::panic::catch_unwind(move || c.advance(1))
            .expect_err("advance past an armed limit must panic");
        let w = err
            .downcast_ref::<WatchdogExpired>()
            .expect("payload downcasts to WatchdogExpired");
        assert_eq!(w.now_ns, 1_001);
        assert_eq!(w.limit_ns, 1_000);
    }

    #[test]
    fn advance_saturates_instead_of_wrapping() {
        let mut c = VirtualClock::new();
        c.advance(u64::MAX);
        c.advance(u64::MAX);
        assert_eq!(c.now_ns(), u64::MAX);
        assert_eq!(c.charges(), 2);
    }

    #[test]
    fn disarmed_watchdog_never_fires() {
        let mut c = VirtualClock::new();
        c.arm_watchdog(10);
        c.disarm_watchdog();
        assert_eq!(c.watchdog_limit_ns(), u64::MAX);
        c.advance(1_000_000);
        assert_eq!(c.now_ns(), 1_000_000);
    }

    #[test]
    fn arming_does_not_perturb_time_or_charges() {
        let mut c = VirtualClock::new();
        c.advance(50);
        c.arm_watchdog(u64::MAX / 2);
        assert_eq!((c.now_ns(), c.charges()), (50, 1));
    }

    #[test]
    fn stopwatch_measures_spans() {
        let mut c = VirtualClock::new();
        c.advance(10);
        let sw = Stopwatch::start(&c);
        c.advance(90);
        assert_eq!(sw.elapsed(&c), VirtualDuration::from_nanos(90));
    }

    #[test]
    fn duration_display_scales_units() {
        assert_eq!(VirtualDuration::from_nanos(12).to_string(), "12ns");
        assert_eq!(VirtualDuration::from_nanos(1500).to_string(), "1.500us");
        assert_eq!(
            VirtualDuration::from_nanos(2_500_000).to_string(),
            "2.500ms"
        );
    }

    #[test]
    fn duration_sum() {
        let total: VirtualDuration = [10u64, 20, 30]
            .iter()
            .map(|&n| VirtualDuration::from_nanos(n))
            .sum();
        assert_eq!(total.ns, 60);
    }
}
