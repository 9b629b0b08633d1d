//! Trace viewer: run a traced Figure-5 workload and inspect the result.
//!
//! ```text
//! cargo run --example trace_viewer
//! ```
//!
//! Boots two beds — vanilla Android and Cider running an iOS binary —
//! with the cider-trace subsystem enabled, drives the syscall/signal
//! and process microbenchmarks on each, then:
//!
//! * prints the tail of the typed event stream (virtual-clock stamped);
//! * prints the per-persona syscall latency histograms side by side,
//!   making the paper's persona-check overhead directly visible;
//! * writes a Chrome `trace_event` JSON file (load in `chrome://tracing`
//!   or Perfetto) and flamegraph folded stacks under `target/trace/`.
//!
//! Tracing never charges the virtual clock, so every number here is
//! identical to an untraced run.

use std::fs;
use std::path::Path;

use cider_abi::memorystatus::LifecycleEvent;
use cider_bench::apps::{app_spec, render_trap};
use cider_bench::config::{SystemConfig, TestBed};
use cider_bench::fig5::{run_micro, Micro};
use cider_core::RingOp;
use cider_frameworks::scenarios;
use cider_trace::{chrome, flame, TraceSink};
use cider_xnu::ipc::UserMessage;

/// A short Mach IPC v2 burst so the `ipc/` counters have something to
/// show: one out-of-line round trip (large enough to take the page
/// remap path) and a ring batch of four messages behind one flush.
fn ipc_burst(bed: &mut TestBed, tid: cider_abi::ids::Tid) {
    bed.sys.enable_ipc_v2();
    let port = bed.sys.mach_port_allocate(tid).expect("ports zone");
    let send = bed.sys.mach_make_send(tid, port).expect("send right");
    let mut msg = UserMessage::simple(send, 0x1C, &b"ool"[..]);
    msg.ool.push(vec![0x5Au8; 8192].into());
    bed.sys.mach_msg_send(tid, msg).expect("ool send");
    bed.sys.mach_msg_receive(tid, port).expect("ool receive");
    for i in 0..4 {
        let msg = UserMessage::simple(send, 0x20 + i, &b"ring"[..]);
        bed.sys.ring_submit(tid, RingOp::Send(msg)).expect("submit");
        bed.sys
            .ring_submit(tid, RingOp::Recv(port))
            .expect("submit");
    }
    bed.sys.ring_flush(tid).expect("flush");
}

fn drive(config: SystemConfig) -> TraceSink {
    let mut bed = TestBed::builder(config).traced().build();
    let (pid, tid) = bed.spawn_measured().expect("bench binary installed");
    for micro in [
        Micro::NullSyscall,
        Micro::Read,
        Micro::Write,
        Micro::OpenClose,
        Micro::SignalHandler,
        Micro::ForkExit,
        Micro::LatCtx(4),
    ] {
        let _ = run_micro(&mut bed, pid, tid, micro);
    }
    if config.runs_ios_binary() {
        ipc_burst(&mut bed, tid);
        app_lane(&mut bed);
    }
    std::mem::take(&mut bed.sys.kernel.trace)
}

/// Populates the app-lifecycle lane: one full launch → background →
/// suspend → jetsam → relaunch cycle plus a short realtime-audio burst,
/// so the `app/` counters (lifecycle transitions, jetsam kills, bundle
/// and resource loads, deadline misses) show real traffic.
fn app_lane(bed: &mut TestBed) {
    let spec = app_spec(bed);
    scenarios::background_jetsam_relaunch(&mut bed.sys, &spec)
        .expect("jetsam round trip");
    let on_render = render_trap(bed.config);
    scenarios::realtime_audio(&mut bed.sys, &spec, 16, 23, on_render)
        .expect("audio session");
}

fn main() {
    let vanilla = drive(SystemConfig::VanillaAndroid);
    let cider_ios = drive(SystemConfig::CiderIos);
    let traced = "tracing enabled";
    let vanilla_metrics = vanilla.metrics().expect(traced);
    let events = cider_ios.ring().expect(traced);
    let metrics = cider_ios.metrics().expect(traced);

    println!(
        "== event stream (Cider iOS, last 12 of {}) ==",
        events.len()
    );
    for e in events.iter().skip(events.len().saturating_sub(12)) {
        println!("{e}");
    }

    println!("\n== per-persona syscall latency (log2 histograms) ==");
    println!("vanilla Android (domestic persona):");
    for (name, h) in vanilla_metrics.histograms_with_prefix("syscall/") {
        println!("  {name:<36} {h}");
    }
    println!("Cider running the iOS binary (foreign persona):");
    for (name, h) in metrics.histograms_with_prefix("syscall/") {
        println!("  {name:<36} {h}");
    }

    println!("\n== mechanism counters (Cider iOS) ==");
    for prefix in [
        "kernel/", "signal/", "dyld/", "mach/", "ipc/", "persona/", "sched/",
    ] {
        for (name, v) in metrics.counters_with_prefix(prefix) {
            println!("  {name:<36} {v}");
        }
    }

    println!("\n== app lifecycle lane (Cider iOS) ==");
    for (name, v) in metrics.counters_with_prefix("app/") {
        println!("  {name:<36} {v}");
    }
    print!("  transition order                    ");
    for ev in LifecycleEvent::ALL {
        let n = metrics.counter(&format!("app/lifecycle/{}", ev.name()));
        if n > 0 {
            print!(" {}x{n}", ev.name());
        }
    }
    println!();

    println!("\n== scheduler (Cider iOS, lat_ctx 4p) ==");
    for (name, h) in metrics.histograms_with_prefix("sched/") {
        println!("  {name:<36} {h}");
    }
    let switches = events
        .iter()
        .filter(|e| e.kind.category() == "sched")
        .count();
    println!("  context-switch events in stream      {switches}");

    let dir = Path::new("target").join("trace");
    fs::create_dir_all(&dir).expect("create target/trace");
    let json = dir.join("trace_viewer.trace.json");
    let folded = dir.join("trace_viewer.folded");
    fs::write(&json, chrome::export(events)).expect("write json");
    fs::write(&folded, flame::export(events)).expect("write folded");
    println!("\nwrote {}", json.display());
    println!("wrote {}  (pipe into flamegraph.pl)", folded.display());
}
