//! Time-travel bisection: locate the first divergent virtual
//! timestamp of a program without capturing state at every op.
//!
//! The diff engine ([`crate::diff`]) reports *that* two configurations
//! disagree — per-op outcome or end state. This module answers
//! *when*: the first op index (and virtual timestamp) at which the
//! pair's normalized observable state splits, and the exact state
//! delta at that instant.
//!
//! Capturing and comparing normalized state (a full VFS walk plus
//! fd-table, cwd and Mach-port topology) at every op of both runs is
//! the expensive way to find that point: `O(n)` captures per side. The
//! bisection does it in two phases:
//!
//! 1. **Interval scan** — one forward pass per configuration,
//!    capturing and comparing the pair's normalized images only every
//!    `interval` ops. The first disagreeing capture pins the
//!    divergence to one interval without re-executing anything.
//! 2. **Binary search** — inside that interval, probe the midpoint:
//!    deterministic replay to the probe cursor (ops are cheap;
//!    capture is what's expensive), one capture, one compare. Each
//!    probe halves the interval, so the fine phase costs
//!    `O(log interval)` captures instead of `O(interval)`.
//!
//! Total: `n / interval + log₂ interval` captures per side instead of
//! `n`.
//!
//! States are compared *normalized* (the [`FinalState`] dimensions
//! plus the cumulative op-outcome transcript), mirroring the diff
//! engine's rules: ops outside the pair's shared vocabulary
//! ([`OpObs::Skip`] on either side) are excluded, and the Mach-port
//! dimension is dropped when the pair includes Linux. Raw kernel
//! images would diverge at op 0 on clock and personality ids alone.
//!
//! [`FinalState`]: crate::exec::FinalState
//! [`OpObs::Skip`]: crate::exec::OpObs::Skip

use cider_ckpt::{SectionDelta, StateImage};
use cider_fault::FaultPlan;

use crate::exec::{ConfigId, Driver};
use crate::grammar::Program;

/// Where and how a configuration pair first diverged.
#[derive(Debug, Clone)]
pub struct Bisection {
    /// The compared pair.
    pub pair: (ConfigId, ConfigId),
    /// Index of the first op after which the normalized states
    /// disagree; `None` when the pair never diverges.
    pub first_divergent_op: Option<usize>,
    /// That op's program line.
    pub op_line: Option<String>,
    /// Each side's virtual clock at the divergence point
    /// (left, right).
    pub virtual_ns: (u64, u64),
    /// The state delta at the divergence point; empty iff no
    /// divergence.
    pub delta: Vec<SectionDelta>,
    /// Expensive state captures performed, both sides combined.
    pub captures: u64,
    /// Captures a per-op scan of both runs would have needed.
    pub captures_naive: u64,
    /// Ops re-executed by binary-search probes (not counting the one
    /// forward pass).
    pub replayed_ops: u64,
}

impl Bisection {
    /// One-line summary for reports and the CLI.
    pub fn summary(&self) -> String {
        match self.first_divergent_op {
            Some(i) => format!(
                "{}|{} diverge at op#{i} ({}) t=({} ns, {} ns): \
                 {} delta record(s) [{} captures vs {} naive]",
                self.pair.0,
                self.pair.1,
                self.op_line.as_deref().unwrap_or("?"),
                self.virtual_ns.0,
                self.virtual_ns.1,
                self.delta.iter().map(SectionDelta::len).sum::<usize>(),
                self.captures,
                self.captures_naive,
            ),
            None => format!(
                "{}|{} never diverge [{} captures vs {} naive]",
                self.pair.0, self.pair.1, self.captures, self.captures_naive,
            ),
        }
    }
}

/// One configuration's deterministic replay cursor.
struct Replay<'a> {
    driver: Driver,
    cfg: ConfigId,
    tokens: Vec<String>,
    program: &'a Program,
    plan: Option<&'a FaultPlan>,
    cursor: usize,
}

impl<'a> Replay<'a> {
    fn boot(
        cfg: ConfigId,
        program: &'a Program,
        plan: Option<&'a FaultPlan>,
    ) -> Replay<'a> {
        Replay {
            driver: Driver::boot(cfg, plan),
            cfg,
            tokens: Vec::new(),
            program,
            plan,
            cursor: 0,
        }
    }

    /// Replays forward to `target` ops executed. Returns ops run.
    fn to(&mut self, target: usize) -> u64 {
        let mut ran = 0;
        while self.cursor < target {
            let op = self.program.ops[self.cursor];
            self.tokens.push(self.driver.run_op(op).to_token());
            self.cursor += 1;
            ran += 1;
        }
        ran
    }

    /// A fresh boot of the same configuration, for a probe that goes
    /// backward in time. Ops are cheap to replay, so probes replay from
    /// boot instead of keeping a deep copy of each side
    /// (`Kernel::fork_device`) at every capture that agreed.
    fn reboot(&self) -> Replay<'a> {
        Replay::boot(self.cfg, self.program, self.plan)
    }
}

/// Builds the pair's normalized images at the replays' (equal)
/// cursors. Joint because normalization is pairwise: an op skipped on
/// either side is excluded from both transcripts, and `ports` is
/// dropped when the pair includes Linux.
fn pair_images(
    a: &mut Replay<'_>,
    b: &mut Replay<'_>,
) -> (StateImage, StateImage) {
    debug_assert_eq!(a.cursor, b.cursor);
    let drop_ports = a.cfg == ConfigId::Linux || b.cfg == ConfigId::Linux;
    let build = |me: &mut Replay<'_>, other: &Replay<'_>| {
        let mut img = StateImage::new();
        let obs = me
            .tokens
            .iter()
            .zip(&other.tokens)
            .enumerate()
            .map(|(i, (mine, theirs))| {
                let tok = if mine == "skip" || theirs == "skip" {
                    "-"
                } else {
                    mine.as_str()
                };
                (format!("op:{i:06}"), tok.to_string())
            })
            .collect();
        img.push_section("obs", obs);
        let state = me
            .driver
            .state_records()
            .into_iter()
            .filter(|(k, _)| !(drop_ports && k == "ports"))
            .collect();
        img.push_section("state", state);
        img
    };
    let ia = build(a, b);
    let ib = build(b, a);
    (ia, ib)
}

/// Bisects one configuration pair over `program`, capturing every
/// `interval` ops during the single forward pass. Deterministic: the
/// same inputs always locate the same op and delta.
pub fn bisect(
    program: &Program,
    plan: Option<&FaultPlan>,
    pair: (ConfigId, ConfigId),
    interval: usize,
) -> Bisection {
    let interval = interval.max(1);
    let n = program.ops.len();
    let mut captures = 0u64;
    let mut replayed_ops = 0u64;

    // Phase 1: forward interval scan.
    let mut left = Replay::boot(pair.0, program, plan);
    let mut right = Replay::boot(pair.1, program, plan);
    let mut lo = 0usize; // last cursor seen in agreement
    let mut hi = None::<usize>; // first captured cursor diverged
    let mut cursor = 0usize;
    loop {
        left.to(cursor);
        right.to(cursor);
        let (ia, ib) = pair_images(&mut left, &mut right);
        captures += 2;
        if ia == ib {
            lo = cursor;
        } else {
            hi = Some(cursor);
            break;
        }
        if cursor == n {
            break;
        }
        cursor = (cursor + interval).min(n);
    }

    let naive = 2 * (n as u64 + 1);
    let Some(mut hi) = hi else {
        // No capture ever disagreed, and the last one sits at cursor n:
        // the pair never diverges.
        return Bisection {
            pair,
            first_divergent_op: None,
            op_line: None,
            virtual_ns: (left.driver.now_ns(), right.driver.now_ns()),
            delta: Vec::new(),
            captures,
            captures_naive: naive,
            replayed_ops,
        };
    };

    // Phase 2: binary search inside (lo, hi]. Probes replay forward
    // from boot and pay exactly one capture each.
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        let mut a = left.reboot();
        let mut b = right.reboot();
        replayed_ops += a.to(mid) + b.to(mid);
        let (ia, ib) = pair_images(&mut a, &mut b);
        captures += 2;
        if ia == ib {
            lo = mid;
        } else {
            hi = mid;
        }
    }

    // The divergence point: replay both sides to `hi` once more for
    // the delta and timestamps.
    let mut a = left.reboot();
    let mut b = right.reboot();
    replayed_ops += a.to(hi) + b.to(hi);
    let (ia, ib) = pair_images(&mut a, &mut b);
    captures += 2;

    Bisection {
        pair,
        first_divergent_op: Some(hi - 1),
        op_line: Some(program.ops[hi - 1].to_line()),
        virtual_ns: (a.driver.now_ns(), b.driver.now_ns()),
        delta: ia.diff(&ib).into_iter().filter(|d| !d.is_empty()).collect(),
        captures,
        captures_naive: naive,
        replayed_ops,
    }
}

/// Bisects both canonical diff pairs ([`crate::diff::PAIRS`]).
pub fn bisect_pairs(
    program: &Program,
    plan: Option<&FaultPlan>,
    interval: usize,
) -> Vec<Bisection> {
    crate::diff::PAIRS
        .iter()
        .map(|&pair| bisect(program, plan, pair, interval))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diff::compare;
    use crate::exec::execute;

    fn parse(text: &str) -> Program {
        Program::parse(text).unwrap()
    }

    #[test]
    fn clean_program_reports_no_divergence() {
        let p = parse(
            "open path=0 flags=3\nwrite fd=3 len=5\nclose fd=3\nstat path=0\n",
        );
        for b in bisect_pairs(&p, None, 2) {
            assert_eq!(b.first_divergent_op, None, "{}", b.summary());
            assert!(b.delta.is_empty());
        }
    }

    #[test]
    fn fork_heavy_warm_program_bisects_clean() {
        // Regression for the zygote warm-start ops: CoW forks,
        // first-write faults and warm/cold exec toggles must stay
        // observation-identical across every configuration pair, and
        // the probe replays (which rebuild half-materialized CoW state
        // from op 0) must agree with the forward scan.
        let p = parse(
            "fork_write page=1\ntouch_pages n=3\nexec_warm path=7\n\
             fork_write page=1\ntouch_pages n=3\nexit_child code=0\n\
             waitpid\nexec_cold path=7\nfork_write page=2\nwaitpid\n",
        );
        for b in bisect_pairs(&p, None, 3) {
            assert_eq!(b.first_divergent_op, None, "{}", b.summary());
            assert!(b.delta.is_empty());
        }
    }

    #[test]
    fn finds_a_divergence_planted_amid_warm_forks() {
        // The diag trap still bisects to its exact op when the
        // surrounding program is churning CoW fork state.
        let p = parse(
            "fork_write page=0\ntouch_pages n=2\nexec_warm path=7\n\
             fork_write page=0\ndiag n=1\ntouch_pages n=2\nwaitpid\n",
        );
        let pair = (ConfigId::XnuTranslated, ConfigId::XnuNative);
        let b = bisect(&p, None, pair, 2);
        assert_eq!(b.first_divergent_op, Some(4), "{}", b.summary());
        assert_eq!(b.op_line.as_deref(), Some("diag n=1"));
    }

    #[test]
    fn finds_the_diag_divergence_at_its_op() {
        // Pad the canonical diag divergence with agreeing ops so the
        // search actually has a range to narrow.
        let p = parse(
            "getpid\nopen path=0 flags=3\nwrite fd=3 len=5\nclose fd=3\n\
             stat path=0\ngetpid\ndiag n=1\ngetpid\nstat path=0\ngetpid\n",
        );
        let pair = (ConfigId::XnuTranslated, ConfigId::XnuNative);
        let b = bisect(&p, None, pair, 4);
        assert_eq!(b.pair, pair);
        assert_eq!(b.first_divergent_op, Some(6), "{}", b.summary());
        assert_eq!(b.op_line.as_deref(), Some("diag n=1"));
        assert!(!b.delta.is_empty());
        // The delta names the op transcript, not the state dims: diag
        // mutates nothing.
        assert_eq!(b.delta.len(), 1);
        assert_eq!(b.delta[0].section, "obs");
    }

    #[test]
    fn bisection_beats_per_op_capture_cost() {
        let mut text = String::new();
        for _ in 0..24 {
            text.push_str("getpid\n");
        }
        text.push_str("diag n=1\n");
        for _ in 0..7 {
            text.push_str("getpid\n");
        }
        let p = parse(&text);
        let b = bisect(
            &p,
            None,
            (ConfigId::XnuTranslated, ConfigId::XnuNative),
            8,
        );
        assert_eq!(b.first_divergent_op, Some(24), "{}", b.summary());
        assert!(
            b.captures < b.captures_naive / 2,
            "expected sublinear captures: {} vs naive {}",
            b.captures,
            b.captures_naive
        );
    }

    #[test]
    fn bisection_is_deterministic() {
        let p = parse("getpid\ndiag n=0\ngetpid\nmkdir path=3\n");
        let pair = (ConfigId::XnuTranslated, ConfigId::XnuNative);
        let a = bisect(&p, None, pair, 2);
        let b = bisect(&p, None, pair, 2);
        assert_eq!(a.first_divergent_op, b.first_divergent_op);
        assert_eq!(a.delta, b.delta);
        assert_eq!(a.virtual_ns, b.virtual_ns);
        assert_eq!(a.captures, b.captures);
    }

    #[test]
    fn agrees_with_the_diff_engine_on_divergence_existence() {
        // Any program the diff engine calls divergent on a pair must
        // bisect to a concrete op on that pair, and vice versa.
        for (text, _) in [
            ("diag n=1\n", true),
            ("open path=0 flags=3\nclose fd=3\n", false),
        ] {
            let p = parse(text);
            let report = compare(&execute(&p, None));
            let xnu_pair_diverges = report.divergences.iter().any(|d| {
                d.left == ConfigId::XnuTranslated
                    && d.right == ConfigId::XnuNative
            });
            let b = bisect(
                &p,
                None,
                (ConfigId::XnuTranslated, ConfigId::XnuNative),
                2,
            );
            assert_eq!(
                b.first_divergent_op.is_some(),
                xnu_pair_diverges,
                "{text:?}: {}",
                b.summary()
            );
        }
    }

    #[test]
    fn linux_pair_ignores_mach_vocabulary() {
        // Mach traps are skips on Linux: excluded from the pair's
        // transcript, and ports dropped from the state — a pure Mach
        // program cannot diverge on the Linux pair.
        let p = parse("task_self\nport_allocate\ngetpid\n");
        let b =
            bisect(&p, None, (ConfigId::XnuTranslated, ConfigId::Linux), 1);
        assert_eq!(b.first_divergent_op, None, "{}", b.summary());
    }
}
