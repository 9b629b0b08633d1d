//! Host-throughput benchmark of the Cider fleet simulator.
//!
//! ```text
//! hostbench --workload <trap_mix|launch_mix|heal_churn> [--seed N]
//!           [--fault-seed N] [--seconds N] [--trace 0|1]
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics, with `--trace 1`
//! the per-layer metrics; the last line of standard output is one JSON
//! object. See `README.md` next to this package for what each workload
//! and metric is for.

mod alloc;
mod batch;
mod layers;
mod population;
mod probe;
mod speed;
mod stats;

use std::os::raw::{c_int, c_long};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use cider_fleet::DeviceResult;

use crate::batch::{check, run_batch, BatchTimes};
use crate::layers::{LayerTotals, Spans, LAYERS};
use crate::population::{Load, Population};
use crate::probe::MICRO_LAYERS;
use crate::stats::summarize;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Fewest measured batches per run, however short `--seconds` is.
const MIN_BATCHES: usize = 5;

/// Layers timed around the fleet calls of traced batches; every other
/// layer comes from the probe.
const BATCH_LAYERS: [&str; 4] =
    ["fleet.boot", "fleet.step", "fleet.finish", "fleet.heal"];

struct Args {
    mix: Load,
    seed: u64,
    fault_seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut mix = None;
    let mut args = Args {
        mix: Load::TrapMix,
        seed: 42,
        fault_seed: 11,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                mix = Some(
                    Load::parse(&value)
                        .ok_or(format!("unknown workload {value}"))?,
                );
            }
            "--seed" => args.seed = number()?,
            "--fault-seed" => args.fault_seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: want 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.mix = mix.ok_or("--workload is required")?;
    Ok(args)
}

/// One metric of the result line.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

fn result_line(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            assert!(m.value.is_finite(), "{} is {}", m.name, m.value);
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \
         \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Linux `struct rusage`: two `timeval`s, then fourteen `long`s of
/// which `ru_maxrss` is the first.
#[repr(C)]
struct Rusage {
    times: [c_long; 4],
    maxrss_kb: c_long,
    rest: [c_long; 13],
}

extern "C" {
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
}

/// Peak resident set of this process, in MB.
fn peak_rss_mb() -> Result<f64, String> {
    const RUSAGE_SELF: c_int = 0;
    let mut usage = Rusage {
        times: [0; 4],
        maxrss_kb: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable `struct rusage` for the whole
    // call, and `getrusage` writes nothing else.
    if unsafe { getrusage(RUSAGE_SELF, &mut usage) } != 0 {
        return Err(format!("getrusage: {}", std::io::Error::last_os_error()));
    }
    Ok(usage.maxrss_kb as f64 / 1024.0)
}

/// Units attempted and failed over `batches` whole-population batches.
fn accounting(
    pop: &Population,
    reference: &[DeviceResult],
    batches: usize,
) -> (u64, u64) {
    let attempted = pop.units_attempted();
    let completed: u64 = reference.iter().map(|r| r.units_completed).sum();
    let n = batches as u64;
    (attempted * n, (attempted - completed) * n)
}

fn measured_batch(
    pop: &Population,
    reference: &[DeviceResult],
    spans: Option<&mut Spans>,
) -> Result<BatchTimes, String> {
    let (times, results) = run_batch(pop, spans);
    check(reference, &results, "batch")?;
    Ok(times)
}

/// Prints a host-clock metric with its batch count, interquartile
/// spread and unscaled median, and returns its median.
fn host_line(name: &str, scaled: &[f64], raw: &[f64], unit: &str) -> f64 {
    let s = summarize(scaled);
    println!(
        "# {name} = {} {unit} (median of {} batches, iqr {:.2}% of median; \
         {} {unit} in plain host time)",
        s.median,
        s.n,
        s.iqr_share * 100.0,
        summarize(raw).median,
    );
    s.median
}

fn end_to_end(args: &Args) -> Result<String, String> {
    let pop = Population::new(args.mix, args.seed, args.fault_seed);
    let reference = pop.reference();
    measured_batch(&pop, &reference, None)?;

    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut batches = Vec::new();
    while batches.len() < MIN_BATCHES || start.elapsed() < budget {
        batches.push(measured_batch(&pop, &reference, None)?);
    }

    let of = |f: fn(&BatchTimes) -> f64| -> Vec<f64> {
        batches.iter().map(f).collect()
    };
    let ups = host_line(
        "units_per_s",
        &of(BatchTimes::units_per_s),
        &of(BatchTimes::raw_units_per_s),
        "1/s",
    );
    let setup =
        host_line("setup_s", &of(BatchTimes::setup_s), &of(|b| b.boot_s), "s");
    println!(
        "# slowdown = {} (median of {} batches)",
        summarize(&of(|b| b.slowdown)).median,
        batches.len()
    );
    let units: u64 = reference.iter().map(|r| r.units_completed).sum();
    let virtual_ns: u64 = reference.iter().map(|r| r.virtual_ns).sum();
    let metrics = [
        metric("units_per_s", ups, "1/s"),
        metric("setup_s", setup, "s"),
        metric("peak_rss_mb", peak_rss_mb()?, "MB"),
        metric(
            "virtual_us_per_unit",
            virtual_ns as f64 / units as f64 / 1e3,
            "us",
        ),
    ];
    let (attempted, failed) = accounting(&pop, &reference, batches.len());
    Ok(result_line(attempted, failed, &metrics))
}

/// Reference microseconds per call: the median over passes, each
/// scaled by the slowdown measured right after it.
fn host_us(passes: &[(LayerTotals, f64)]) -> f64 {
    let per_pass: Vec<f64> = passes
        .iter()
        .map(|(t, slowdown)| t.per_call(t.host_ns) / 1e3 / slowdown)
        .collect();
    summarize(&per_pass).median
}

/// Per-call figures of one layer: calls and allocations from the last
/// pass (they are exact), host time as the median over passes.
fn layer_metrics(
    name: &str,
    passes: &[(LayerTotals, f64)],
    out: &mut Vec<Metric>,
) {
    let (last, _) = passes.last().copied().unwrap_or_default();
    out.extend([
        metric(format!("{name}.calls"), last.calls as f64, "count"),
        metric(format!("{name}.host_us"), host_us(passes), "us"),
        metric(
            format!("{name}.allocs"),
            last.per_call(last.allocs),
            "count",
        ),
        metric(
            format!("{name}.alloc_kb"),
            last.per_call(last.alloc_bytes) / 1024.0,
            "KiB",
        ),
    ]);
}

fn merged(spans: &Spans, names: &[&str]) -> LayerTotals {
    names.iter().fold(LayerTotals::default(), |acc, n| {
        let t = spans.get(n);
        LayerTotals {
            calls: acc.calls + t.calls,
            host_ns: acc.host_ns + t.host_ns,
            allocs: acc.allocs + t.allocs,
            alloc_bytes: acc.alloc_bytes + t.alloc_bytes,
        }
    })
}

fn traced(args: &Args) -> Result<String, String> {
    let pop = Population::new(args.mix, args.seed, args.fault_seed);
    let reference = pop.reference();
    measured_batch(&pop, &reference, None)?;

    // Half the budget alternates untraced and traced batches, so the
    // tracing overhead is measured across the same interference phases.
    let half = Duration::from_secs(args.seconds) / 2;
    let start = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut batch_spans = Vec::new();
    while traced.len() < MIN_BATCHES || start.elapsed() < half {
        plain.push(measured_batch(&pop, &reference, None)?);
        let mut spans = Spans::default();
        let times = measured_batch(&pop, &reference, Some(&mut spans))?;
        traced.push(times);
        batch_spans.push((spans, times.slowdown));
    }

    // The rest goes to probe passes; their exact counts must repeat.
    let mut probe_spans = Vec::new();
    let mut counts = None;
    while probe_spans.is_empty() || start.elapsed() < half * 2 {
        let mut spans = Spans::default();
        let c = probe::probe_pass(&pop, &reference, &mut spans)?;
        if counts.as_ref().is_some_and(|prev| *prev != c) {
            return Err(format!("probe counts changed between passes: {c:?}"));
        }
        counts = Some(c);
        probe_spans.push((spans, speed::slowdown()));
    }
    let counts = counts.expect("at least one probe pass");

    let mut metrics = Vec::new();
    for name in LAYERS {
        let passes: Vec<(LayerTotals, f64)> = if BATCH_LAYERS.contains(&name) {
            batch_spans.iter().map(|(s, x)| (s.get(name), *x)).collect()
        } else if name == "bench.micro" {
            probe_spans
                .iter()
                .map(|(s, x)| (merged(s, &MICRO_LAYERS), *x))
                .collect()
        } else {
            probe_spans.iter().map(|(s, x)| (s.get(name), *x)).collect()
        };
        layer_metrics(name, &passes, &mut metrics);
    }
    for name in MICRO_LAYERS {
        let passes: Vec<(LayerTotals, f64)> =
            probe_spans.iter().map(|(s, x)| (s.get(name), *x)).collect();
        metrics.push(metric(
            format!("{name}.host_us"),
            host_us(&passes),
            "us",
        ));
    }

    let units: u64 = reference.iter().map(|r| r.units_completed).sum();
    let attempted = pop.units_attempted();
    let heal_sum = |f: fn(&cider_fleet::HealStats) -> u64| -> f64 {
        reference
            .iter()
            .filter_map(|r| r.heal.as_ref())
            .map(f)
            .sum::<u64>() as f64
    };
    let counter = |name: &str| -> f64 {
        reference
            .iter()
            .map(|r| r.kernel_metrics.counter(name))
            .sum::<u64>() as f64
    };
    let frame_kb = if counts.frames == 0 {
        0.0
    } else {
        counts.frame_bytes as f64 / counts.frames as f64 / 1024.0
    };
    let ups = |batches: &[BatchTimes], name: &str| {
        let scaled: Vec<f64> =
            batches.iter().map(BatchTimes::units_per_s).collect();
        let raw: Vec<f64> =
            batches.iter().map(BatchTimes::raw_units_per_s).collect();
        host_line(name, &scaled, &raw, "1/s");
    };
    ups(&plain, "untraced units_per_s");
    ups(&traced, "traced units_per_s");
    // Each traced batch runs right after its untraced twin, in the same
    // interference phase, so the overhead is the median pair ratio.
    let ratios: Vec<f64> = plain
        .iter()
        .zip(&traced)
        .map(|(p, t)| p.raw_units_per_s() / t.raw_units_per_s())
        .collect();
    let overhead_pct = (summarize(&ratios).median - 1.0) * 100.0;
    metrics.extend([
        metric(
            "trace.events_per_unit",
            counts.events as f64 / units as f64,
            "count",
        ),
        metric("trace.events_dropped", counts.dropped as f64, "count"),
        metric("trace.overhead_pct", overhead_pct, "%"),
        metric("ckpt.frames", counts.frames as f64, "count"),
        metric("ckpt.frame_kb", frame_kb, "KiB"),
        metric("ckpt.restores", heal_sum(|h| h.restores), "count"),
        metric(
            "ckpt.replayed_units",
            heal_sum(|h| h.replayed_units),
            "count",
        ),
        metric("ckpt.rejected", heal_sum(|h| h.corrupt_detected), "count"),
        metric(
            "xnu.ool_kb_remapped",
            counter("ipc/ool_bytes_remapped") / 1024.0,
            "KiB",
        ),
        metric("xnu.ring_flushes", counter("ipc/ring_flush"), "count"),
        metric(
            "unit_fail_ratio",
            (attempted - units) as f64 / attempted as f64,
            "ratio",
        ),
    ]);
    let (attempted, failed) =
        accounting(&pop, &reference, plain.len() + traced.len());
    Ok(result_line(attempted, failed, &metrics))
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| {
        if args.trace {
            traced(&args)
        } else {
            end_to_end(&args)
        }
    });
    match outcome {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("hostbench: {e}");
            ExitCode::FAILURE
        }
    }
}
