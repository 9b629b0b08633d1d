//! Whole-population batches through the fleet crate's public API.

use std::time::Instant;

use cider_fleet::{run_device_healed, DeviceOutcome, DeviceResult, DeviceSim};

use crate::layers::Spans;
use crate::population::Population;
use crate::speed;

/// Host timings of one batch.
#[derive(Debug, Clone, Copy)]
pub struct BatchTimes {
    /// Seconds spent in `DeviceSim::boot` for the whole population.
    pub boot_s: f64,
    /// Seconds spent in step + finish (or in `run_device_healed`).
    pub units_s: f64,
    /// Units completed.
    pub units: u64,
    /// The machine's slowdown, measured right after the batch.
    pub slowdown: f64,
}

impl BatchTimes {
    /// Units completed per reference second of unit work.
    pub fn units_per_s(&self) -> f64 {
        self.raw_units_per_s() * self.slowdown
    }

    /// Units completed per host second of unit work.
    pub fn raw_units_per_s(&self) -> f64 {
        self.units as f64 / self.units_s
    }

    /// Reference seconds spent booting the population.
    pub fn setup_s(&self) -> f64 {
        self.boot_s / self.slowdown
    }
}

fn timed<R>(
    spans: &mut Option<&mut Spans>,
    layer: &'static str,
    f: impl FnOnce() -> R,
) -> R {
    match spans {
        Some(s) => s.time(layer, f),
        None => f(),
    }
}

/// Boots every device, then runs every unit and finishes every device.
/// A healing population is booted, dropped, and then run through
/// `run_device_healed`, which boots its own devices. With `spans`, the
/// fleet calls are timed as layer spans.
pub fn run_batch(
    pop: &Population,
    mut spans: Option<&mut Spans>,
) -> (BatchTimes, Vec<DeviceResult>) {
    let t0 = Instant::now();
    let sims: Vec<DeviceSim> = pop
        .devices
        .iter()
        .map(|d| timed(&mut spans, "fleet.boot", || DeviceSim::boot(d)))
        .collect();
    let boot_s = t0.elapsed().as_secs_f64();

    let (units_s, results) = match &pop.heal {
        Some(cfg) => {
            drop(sims);
            let t = Instant::now();
            let results: Vec<DeviceResult> = pop
                .devices
                .iter()
                .map(|d| {
                    timed(&mut spans, "fleet.heal", || {
                        run_device_healed(d, cfg)
                    })
                })
                .collect();
            (t.elapsed().as_secs_f64(), results)
        }
        None => {
            let t = Instant::now();
            let results: Vec<DeviceResult> = sims
                .into_iter()
                .map(|mut sim| {
                    while !sim.done() {
                        timed(&mut spans, "fleet.step", || sim.step());
                    }
                    timed(&mut spans, "fleet.finish", || {
                        sim.finish(DeviceOutcome::Completed, None)
                    })
                })
                .collect();
            (t.elapsed().as_secs_f64(), results)
        }
    };
    let units = results.iter().map(|r| r.units_completed).sum();
    let times = BatchTimes {
        boot_s,
        units_s,
        units,
        slowdown: speed::slowdown(),
    };
    (times, results)
}

/// The correctness gate: every device must reproduce the reference
/// fingerprint and virtual clock.
pub fn check(
    reference: &[DeviceResult],
    got: &[DeviceResult],
    what: &str,
) -> Result<(), String> {
    if reference.len() != got.len() {
        return Err(format!(
            "{what}: {} devices, reference has {}",
            got.len(),
            reference.len()
        ));
    }
    for (i, (r, g)) in reference.iter().zip(got).enumerate() {
        if r.trace_fingerprint != g.trace_fingerprint
            || r.virtual_ns != g.virtual_ns
        {
            return Err(format!(
                "{what}: device {i} fingerprint {:016x} at {} ns, \
                 reference {:016x} at {} ns",
                g.trace_fingerprint,
                g.virtual_ns,
                r.trace_fingerprint,
                r.virtual_ns
            ));
        }
    }
    Ok(())
}
