//! Figure 5: the lmbench microbenchmark comparison across the four
//! system configurations.

use cider_kernel::profile::BasicOp;
use cider_trace::TraceSink;

use crate::config::{SystemConfig, TestBed};
use crate::lmbench;
use crate::report::{Table, TableRow};

/// The Figure 5 microbenchmarks, in the paper's order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Micro {
    /// Basic op rows.
    Basic(BasicOp),
    /// Null syscall.
    NullSyscall,
    /// One-byte read.
    Read,
    /// One-byte write.
    Write,
    /// Open + close.
    OpenClose,
    /// Signal handler.
    SignalHandler,
    /// fork + exit.
    ForkExit,
    /// fork + exec of a Linux binary.
    ForkExecAndroid,
    /// fork + exec of an iOS binary.
    ForkExecIos,
    /// fork + exec of an iOS binary with zygote-style warm start:
    /// copy-on-write fork + prelinked shared cache.
    ForkExecIosWarm,
    /// fork + sh running a Linux binary.
    ForkShAndroid,
    /// fork + sh running an iOS binary.
    ForkShIos,
    /// Pipe latency.
    Pipe,
    /// AF_UNIX latency.
    AfUnix,
    /// Context switching: N processes passing a token through pipes.
    LatCtx(usize),
    /// select over N descriptors.
    Select(usize),
    /// File create + delete with N bytes.
    FileCreateDelete(usize),
}

impl Micro {
    /// All Figure 5 rows in order.
    pub fn all() -> Vec<Micro> {
        let mut v: Vec<Micro> =
            BasicOp::ALL.iter().map(|&b| Micro::Basic(b)).collect();
        v.extend([
            Micro::NullSyscall,
            Micro::Read,
            Micro::Write,
            Micro::OpenClose,
            Micro::SignalHandler,
            Micro::ForkExit,
            Micro::ForkExecAndroid,
            Micro::ForkExecIos,
            Micro::ForkExecIosWarm,
            Micro::ForkShAndroid,
            Micro::ForkShIos,
            Micro::Pipe,
            Micro::AfUnix,
            Micro::LatCtx(2),
            Micro::LatCtx(4),
            Micro::LatCtx(8),
            Micro::LatCtx(16),
            Micro::Select(10),
            Micro::Select(100),
            Micro::Select(250),
            Micro::FileCreateDelete(0),
            Micro::FileCreateDelete(10 * 1024),
        ]);
        v
    }

    /// Row name.
    pub fn name(self) -> String {
        match self {
            Micro::Basic(b) => b.name().to_string(),
            Micro::NullSyscall => "null syscall".into(),
            Micro::Read => "read".into(),
            Micro::Write => "write".into(),
            Micro::OpenClose => "open/close".into(),
            Micro::SignalHandler => "signal handler".into(),
            Micro::ForkExit => "fork+exit".into(),
            Micro::ForkExecAndroid => "fork+exec(android)".into(),
            Micro::ForkExecIos => "fork+exec(ios)".into(),
            Micro::ForkExecIosWarm => "fork+exec(ios) warm".into(),
            Micro::ForkShAndroid => "fork+sh(android)".into(),
            Micro::ForkShIos => "fork+sh(ios)".into(),
            Micro::Pipe => "pipe".into(),
            Micro::AfUnix => "af_unix".into(),
            Micro::LatCtx(n) => format!("lat_ctx {n}p"),
            Micro::Select(n) => format!("select {n}fd"),
            Micro::FileCreateDelete(0) => "file create/delete 0k".into(),
            Micro::FileCreateDelete(_) => "file create/delete 10k".into(),
        }
    }

    /// Figure 5 group.
    pub fn group(self) -> &'static str {
        match self {
            Micro::Basic(_) => "basic ops",
            Micro::NullSyscall
            | Micro::Read
            | Micro::Write
            | Micro::OpenClose
            | Micro::SignalHandler => "syscall/signal",
            Micro::ForkExit
            | Micro::ForkExecAndroid
            | Micro::ForkExecIos
            | Micro::ForkExecIosWarm
            | Micro::ForkShAndroid
            | Micro::ForkShIos => "process",
            Micro::LatCtx(_) => "context switch",
            _ => "local comm & file",
        }
    }

    /// Whether the vanilla-Android configuration can run this row at
    /// all ("This test is not possible on vanilla Android", §6.2).
    pub fn possible_on(self, config: SystemConfig) -> bool {
        match self {
            Micro::ForkExecIos | Micro::ForkExecIosWarm | Micro::ForkShIos => {
                config != SystemConfig::VanillaAndroid
            }
            // The iPad cannot run Linux binaries; its "(android)" rows
            // actually run its own native equivalents, which the paper
            // handles by comparing iOS-binary variants only. We report
            // the iPad's own-binary runs for the iOS rows only.
            Micro::ForkExecAndroid | Micro::ForkShAndroid => {
                config != SystemConfig::IpadMini
            }
            _ => true,
        }
    }
}

/// Runs one microbenchmark on a prepared bed; `None` when impossible or
/// failed (the iPad's select-250 case).
pub fn run_micro(
    bed: &mut TestBed,
    pid: cider_abi::ids::Pid,
    tid: cider_abi::ids::Tid,
    micro: Micro,
) -> Option<f64> {
    if !micro.possible_on(bed.config) {
        return None;
    }
    let ns = match micro {
        Micro::Basic(op) => {
            return Some(lmbench::basic_op_latency_ns(bed, op))
        }
        Micro::NullSyscall => lmbench::null_syscall(bed, tid).ns,
        Micro::Read => lmbench::read_lat(bed, tid).ok()?.ns,
        Micro::Write => lmbench::write_lat(bed, tid).ns,
        Micro::OpenClose => lmbench::open_close_lat(bed, tid).ok()?.ns,
        Micro::SignalHandler => {
            lmbench::signal_handler_lat(bed, pid, tid).ok()?.ns
        }
        Micro::ForkExit => lmbench::fork_exit_lat(bed, tid).ok()?.ns,
        Micro::ForkExecAndroid => {
            lmbench::fork_exec_lat(bed, tid, false).ok()?.ns
        }
        Micro::ForkExecIos => lmbench::fork_exec_lat(bed, tid, true).ok()?.ns,
        Micro::ForkExecIosWarm => {
            lmbench::fork_exec_warm_lat(bed, tid, true).ok()?.ns
        }
        Micro::ForkShAndroid => lmbench::fork_sh_lat(bed, tid, false).ok()?.ns,
        Micro::ForkShIos => lmbench::fork_sh_lat(bed, tid, true).ok()?.ns,
        Micro::Pipe => lmbench::pipe_lat(bed, tid).ok()?.ns,
        Micro::AfUnix => lmbench::af_unix_lat(bed, tid).ok()?.ns,
        Micro::LatCtx(n) => lmbench::lat_ctx(bed, tid, n).ok()?.ns,
        Micro::Select(n) => lmbench::select_lat(bed, tid, n).ok()??.ns,
        Micro::FileCreateDelete(size) => {
            lmbench::file_create_delete_lat(bed, tid, size).ok()?.ns
        }
    };
    Some(ns as f64)
}

/// Runs the full Figure 5 table.
pub fn run() -> Table {
    run_inner(false).0
}

/// Runs Figure 5 with tracing enabled on every bed, returning the table
/// (identical to [`run`]: tracing never charges the virtual clock) plus
/// each configuration's trace sink, moved out of its bed.
pub fn run_traced() -> (Table, Vec<(SystemConfig, TraceSink)>) {
    let (table, sinks) = run_inner(true);
    (table, sinks.expect("tracing was enabled"))
}

type Sinks = Vec<(SystemConfig, TraceSink)>;

fn run_inner(traced: bool) -> (Table, Option<Sinks>) {
    let mut table = Table::new(
        "Figure 5: microbenchmark latency (lmbench 3.0)",
        "ns",
        true,
    );
    let micros = Micro::all();
    let mut columns: Vec<Vec<Option<f64>>> = Vec::new();
    let mut sinks: Sinks = Vec::new();
    for config in SystemConfig::ALL {
        let mut bed = if traced {
            TestBed::builder(config).traced().build()
        } else {
            TestBed::builder(config).build()
        };
        let (pid, tid) = bed.spawn_measured().expect("bench binary installed");
        let col: Vec<Option<f64>> = micros
            .iter()
            .map(|&m| run_micro(&mut bed, pid, tid, m))
            .collect();
        columns.push(col);
        if traced {
            sinks.push((config, std::mem::take(&mut bed.sys.kernel.trace)));
        }
    }
    for (i, micro) in micros.iter().enumerate() {
        let mut values = [None; 4];
        for (c, col) in columns.iter().enumerate() {
            values[c] = col[i];
        }
        table.rows.push(TableRow {
            group: micro.group().to_string(),
            name: micro.name(),
            values,
        });
    }
    // The paper's normalization for rows vanilla cannot run (§6.2).
    table.fallback("fork+exec(ios)", "fork+exec(android)");
    table.fallback("fork+exec(ios) warm", "fork+exec(android)");
    table.fallback("fork+sh(ios)", "fork+sh(android)");
    // The iPad's android-binary rows don't exist; its iOS rows normalise
    // against the same fallbacks.
    table.fallback("fork+exec(android)", "fork+exec(android)");
    (table, traced.then_some(sinks))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_figure5_reproduces_paper_shape() {
        let table = run();
        let cell = |name: &str, c| table.normalized_cell(name, c);
        use SystemConfig::*;

        // Null syscall: +8.5 % Cider/Android, +40 % Cider/iOS.
        let ca = cell("null syscall", CiderAndroid).unwrap();
        let ci = cell("null syscall", CiderIos).unwrap();
        assert!((1.05..1.12).contains(&ca), "cider android {ca}");
        assert!((1.30..1.50).contains(&ci), "cider ios {ci}");

        // Signal handler: +3 % / +25 %, iPad ~2.75x Cider iOS.
        let sa = cell("signal handler", CiderAndroid).unwrap();
        let si = cell("signal handler", CiderIos).unwrap();
        let sp = cell("signal handler", IpadMini).unwrap();
        assert!((1.01..1.08).contains(&sa), "signal cider android {sa}");
        assert!((1.15..1.35).contains(&si), "signal cider ios {si}");
        assert!(
            (2.2..3.4).contains(&(sp / si)),
            "ipad/cider signal ratio {}",
            sp / si
        );

        // fork+exit: ~14x for the iOS binary; negligible for Cider
        // Android; iPad beats Cider iOS.
        let fa = cell("fork+exit", CiderAndroid).unwrap();
        let fi = cell("fork+exit", CiderIos).unwrap();
        let fp = cell("fork+exit", IpadMini).unwrap();
        assert!((0.98..1.10).contains(&fa), "fork+exit cider android {fa}");
        assert!((11.0..18.0).contains(&fi), "fork+exit cider ios {fi}");
        assert!(fp < fi, "ipad {fp} vs cider ios {fi}");

        // fork+exec(ios) and fork+sh(ios) impossible on vanilla.
        assert!(cell("fork+exec(ios)", VanillaAndroid).is_none());
        assert!(cell("fork+sh(ios)", VanillaAndroid).is_none());
        assert!(cell("fork+exec(ios)", CiderIos).unwrap() > 5.0);

        // Zygote-style warm start: the prelinked cache + CoW fork make
        // the warm launch at least 3x faster than the cold one (both
        // cells normalise against the same fallback, so their ratio is
        // the raw speedup).
        let cold = cell("fork+exec(ios)", CiderIos).unwrap();
        let warm = cell("fork+exec(ios) warm", CiderIos).unwrap();
        assert!(
            cold / warm >= 3.0,
            "warm speedup {} (cold {cold} vs warm {warm})",
            cold / warm
        );
        assert!(cell("fork+exec(ios) warm", VanillaAndroid).is_none());

        // select at 250 fds fails only on the iPad.
        assert!(cell("select 250fd", IpadMini).is_none());
        assert!(cell("select 250fd", CiderIos).is_some());
        // The iPad's select blows past 10x near the top of the sweep.
        let s100 = cell("select 100fd", IpadMini).unwrap();
        assert!(s100 > 6.0, "ipad select 100 {s100}");

        // Local comm similar across the Android-device configs.
        for name in ["pipe", "af_unix", "file create/delete 0k"] {
            let v = cell(name, CiderIos).unwrap();
            assert!((0.8..1.4).contains(&v), "{name} {v}");
        }

        // lat_ctx: context switching multiplexed personas stays within
        // the paper's "quite similar" band for both Cider configs.
        for n in [2, 4, 8, 16] {
            let name = format!("lat_ctx {n}p");
            let a = cell(&name, CiderAndroid).unwrap();
            let i = cell(&name, CiderIos).unwrap();
            assert!((0.9..=1.3).contains(&a), "{name} cider android {a}");
            assert!((0.9..=1.3).contains(&i), "{name} cider ios {i}");
        }

        // Basic ops: iOS divide worse (compiler), iPad worse still
        // (slower CPU).
        let div_ci = cell("int div", CiderIos).unwrap();
        let div_ip = cell("int div", IpadMini).unwrap();
        assert!(div_ci > 1.3, "int div cider ios {div_ci}");
        assert!(div_ip > div_ci, "int div ipad {div_ip}");
        let mul_ip = cell("int mul", IpadMini).unwrap();
        assert!(mul_ip > 1.1, "int mul ipad {mul_ip}");
    }
}
