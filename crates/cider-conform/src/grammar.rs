//! The workload grammar: a small, closed vocabulary of kernel
//! operations, a seeded generator with coverage steering, and a stable
//! one-op-per-line text form used by the regression corpus.
//!
//! Operands are tiny indices (`u8`) into fixed pools — paths, fd slots,
//! signal numbers — rather than raw kernel values. That keeps programs
//! meaningful across all three execution configurations (the same
//! index resolves through the same pool everywhere) and makes shrinking
//! and serialization trivial.
//!
//! The vocabulary is one table, the `op_table!` rows below. A row's
//! position is the kind number the generator draws, so it is part of
//! every seeded stream: rows are only ever appended.

use cider_fault::SplitMix64;

/// Paths every program draws from. `/conform` exists at setup;
/// `/conform/sub` only exists once a program mkdirs it, so resolution
/// failures are part of the grammar. `/missing/nope` can never resolve.
pub const PATH_POOL: [&str; 8] = [
    "/conform/a",
    "/conform/b",
    "/conform/c",
    "/conform/sub",
    "/conform/sub/d",
    "/conform/seed",
    "/tmp/conform-scratch",
    "/missing/nope",
];

/// Open-flag combinations, expressed ABI-independently as (BSD, Linux)
/// raw pairs that name the same semantic flags. Index `flags % len`.
/// BSD numbering is XNU's (`O_CREAT` = 0x200 …); Linux numbering is the
/// kernel's native `OpenFlags` encoding.
pub const FLAG_COMBOS: [(u32, u32); 6] = [
    // O_RDONLY
    (0x0, 0o0),
    // O_WRONLY
    (0x1, 0o1),
    // O_RDWR
    (0x2, 0o2),
    // O_WRONLY | O_CREAT
    (0x1 | 0x200, 0o1 | 0o100),
    // O_WRONLY | O_CREAT | O_EXCL
    (0x1 | 0x200 | 0x800, 0o1 | 0o100 | 0o200),
    // O_RDWR | O_CREAT | O_TRUNC
    (0x2 | 0x200 | 0x400, 0o2 | 0o100 | 0o1000),
];

/// Signals used by `kill`/`sigaction` ops; every entry has both a Linux
/// and an XNU number so the op stays expressible under every persona.
/// Raw values are Linux numbering (the engine renumbers per ABI).
pub const SIGNAL_POOL: [i32; 6] = [1, 2, 10, 12, 15, 17];

/// Bundle directories the `bundle_open` op probes. The first exists
/// with an `Info.plist` (created by the conformance fixture); the rest
/// exercise the missing-plist and missing-directory error paths.
pub const BUNDLE_POOL: [&str; 4] = [
    "/conform/app.app",
    "/conform/sub",
    "/missing/nope.app",
    "/conform/a",
];

/// Declares the grammar from one table. Each row is one op kind:
///
/// ```text
/// Variant "corpus_name" { operand < bound, ... } => dispatch_site,
/// ```
///
/// with the variant's doc comment above it. Each operand is a `u8`
/// drawn below its exclusive bound, and the site is the
/// `"<class>/<handler name>"` dispatch-table entry the op exercises on
/// the translated XNU configuration. Niladic rows have no braces. The
/// `Op` enum, [`KIND_COUNT`], [`Op::dispatch_site`], [`Op::to_line`],
/// [`Op::parse`] and the generator's draws are all read from the rows.
macro_rules! op_table {
    ($(
        $(#[$doc:meta])*
        $variant:ident $name:literal
            $({ $($field:ident < $bound:expr),+ })? => $site:expr,
    )+) => {
        /// One workload operation. Fields are pool indices, not kernel
        /// values.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum Op {
            $($(#[$doc])* $variant $({ $($field: u8),+ })?,)+
        }

        /// Every op kind, with zero operands, in generator order: a
        /// kind's index here is the number [`generate`] draws.
        const KINDS: &[Op] = &[$(Op::$variant { $($($field: 0),+)? }),+];

        impl Op {
            /// The dispatch-table entry this op exercises on the
            /// translated XNU configuration, as `"<class>/<handler
            /// name>"`, or `None` when the op never reaches a dispatch
            /// table (kqueue library calls) or has no named handler
            /// (machdep/diag entry paths, direct sleeps).
            pub fn dispatch_site(self) -> Option<&'static str> {
                match self {
                    $(Op::$variant { .. } => $site,)+
                }
            }

            /// Serializes to the corpus line form: `name [k=v ...]`,
            /// fields in declaration order. The inverse of
            /// [`Op::parse`].
            pub fn to_line(self) -> String {
                match self {
                    $(Op::$variant { $($($field),+)? } => format!(
                        concat!($name $($(, " ", stringify!($field), "={}")+)?)
                        $($(, $field)+)?
                    ),)+
                }
            }

            /// Parses one corpus line back into an op. Returns `None` on
            /// any malformed input (unknown name, missing/extra/misnamed
            /// field).
            pub fn parse(line: &str) -> Option<Op> {
                let mut words = line.split_whitespace();
                let name = words.next()?;
                let mut operand = |field: &str| -> Option<u8> {
                    let (k, v) = words.next()?.split_once('=')?;
                    if k == field { v.parse().ok() } else { None }
                };
                let op = match name {
                    $($name => Op::$variant {
                        $($($field: operand(stringify!($field))?),+)?
                    },)+
                    _ => return None,
                };
                // Round-trip check doubles as arity and spelling
                // validation: stray fields, misordered fields, leading
                // zeros and `+` signs all fail here.
                (op.to_line() == normalize(line)).then_some(op)
            }
        }

        /// Materializes op kind `k` (0..[`KIND_COUNT`]) with operands
        /// drawn from `rng`, one draw per operand in row order, so
        /// generation is a pure function of the seed stream.
        fn make_op(k: usize, rng: &mut SplitMix64) -> Op {
            match KINDS[k] {
                $(Op::$variant { .. } => Op::$variant {
                    $($($field: rng.below($bound as u64) as u8),+)?
                },)+
            }
        }
    };
}

op_table! {
    // --- Unix class (both ABIs) ---
    Getpid "getpid" => Some("unix/getpid"),
    Open "open" { path < PATH_POOL.len(), flags < FLAG_COMBOS.len() }
        => Some("unix/open"),
    Close "close" { fd < 10 } => Some("unix/close"),
    Read "read" { fd < 10, len < 64 } => Some("unix/read"),
    Write "write" { fd < 10, len < 48 } => Some("unix/write"),
    Dup "dup" { fd < 10 } => Some("unix/dup"),
    Pipe "pipe" => Some("unix/pipe"),
    Socketpair "socketpair" => Some("unix/socketpair"),
    Mkdir "mkdir" { path < PATH_POOL.len() } => Some("unix/mkdir"),
    Unlink "unlink" { path < PATH_POOL.len() } => Some("unix/unlink"),
    Stat "stat" { path < PATH_POOL.len() } => Some("unix/stat64"),
    Chdir "chdir" { path < PATH_POOL.len() } => Some("unix/chdir"),
    Select "select" { n < 5 } => Some("unix/select"),
    Fork "fork" => Some("unix/fork"),
    ExitChild "exit_child" { code < 4 } => Some("unix/exit"),
    Waitpid "waitpid" => Some("unix/waitpid"),
    Kill "kill" { sig < SIGNAL_POOL.len() } => Some("unix/kill"),
    Sigaction "sigaction" { sig < SIGNAL_POOL.len(), disp < 3 }
        => Some("unix/sigaction"),
    Nanosleep "nanosleep" { ms < 20 } => None,
    // --- psynch (XNU-only Unix-class traps) ---
    MutexWait "mutex_wait" { m < 2 } => Some("unix/psynch_mutexwait"),
    MutexDrop "mutex_drop" { m < 2 } => Some("unix/psynch_mutexdrop"),
    CvWait "cv_wait" { cv < 2, m < 2 } => Some("unix/psynch_cvwait"),
    CvSignal "cv_signal" { cv < 2 } => Some("unix/psynch_cvsignal"),
    CvBroad "cv_broad" { cv < 2 } => Some("unix/psynch_cvbroad"),
    // --- Mach class (XNU-only) ---
    TaskSelf "task_self" => Some("mach/task_self_trap"),
    ThreadSelf "thread_self" => Some("mach/thread_self_trap"),
    HostSelf "host_self" => Some("mach/host_self_trap"),
    ReplyPort "reply_port" => Some("mach/mach_reply_port"),
    PortAllocate "port_allocate" => Some("mach/mach_port_allocate"),
    PortDeallocate "port_deallocate" { slot < 4 }
        => Some("mach/mach_port_deallocate"),
    InsertRight "insert_right" { slot < 4 }
        => Some("mach/mach_port_insert_right"),
    MsgSend "msg_send" { slot < 4, len < 32 } => Some("mach/mach_msg_trap"),
    MsgRecv "msg_recv" { slot < 4 } => Some("mach/mach_msg_trap"),
    SemSignal "sem_signal" { sem < 3 } => Some("mach/semaphore_signal_trap"),
    SemWait "sem_wait" { sem < 3 } => Some("mach/semaphore_wait_trap"),
    VmAllocate "vm_allocate" { pages < 8 } => Some("mach/mach_vm_allocate"),
    VmDeallocate "vm_deallocate" => Some("mach/mach_vm_deallocate"),
    // --- MachDep / Diag entry paths (XNU-only) ---
    MachDep "machdep" { n < 4 } => None,
    Diag "diag" { n < 2 } => None,
    // --- kqueue (library level, runs under every configuration) ---
    KqAddRead "kq_add_read" { fd < 10 } => None,
    KqDelRead "kq_del_read" { fd < 10 } => None,
    KqAddTimer "kq_add_timer" { t < 3, ms < 30 } => None,
    KqDelTimer "kq_del_timer" { t < 3 } => None,
    KqPoll "kq_poll" => None,
    // --- process images (Unix class, both ABIs) ---
    Execve "execve" { path < PATH_POOL.len() } => Some("unix/execve"),
    Spawn "posix_spawn" { path < PATH_POOL.len() }
        => Some("unix/posix_spawn"),
    // --- scheduler doors (POSIX yield / Mach thread_switch) ---
    SchedYield "sched_yield" => None,
    ThreadSwitch "thread_switch" { opt < 3 } => Some("mach/thread_switch"),
    // --- zygote warm start (CoW fork + prelinked shared cache) ---
    /// Fork, then write one page in the child so a copy-on-write fork
    /// materializes exactly that PTE (an eager fork already owns it).
    ForkWrite "fork_write" { page < 8 } => None,
    /// Write `n` pages in the calling process; under CoW each first
    /// write pays the deferred PTE copy, later writes are free.
    TouchPages "touch_pages" { n < 6 } => None,
    /// Toggle the kernel's warm-start cache on, then execve. The
    /// conformance kernels register no binfmts, so the trap fails
    /// uniformly — the op pins the entry path, not a real launch.
    ExecWarm "exec_warm" { path < PATH_POOL.len() } => Some("unix/execve"),
    /// Toggle warm start off, then execve (the cold control).
    ExecCold "exec_cold" { path < PATH_POOL.len() } => Some("unix/execve"),
    // --- IPC v2 (typed rights, OOL remap, batched traps) ---
    /// Enables IPC v2 (kernel policy, not ABI surface), then sends a
    /// message carrying `1+kb%4` pages of out-of-line data: regions at
    /// or above the inline threshold move by page remap, the rest copy.
    MsgSendOol "mach_msg_ool" { slot < 4, kb < 4 }
        => Some("mach/mach_msg_trap"),
    /// Enqueues one send on the calling thread's trap ring — no kernel
    /// crossing for the message until the ring flushes.
    RingSubmit "ring_submit" { slot < 4, len < 32 }
        => Some("mach/ring_submit"),
    /// Flushes the trap ring: one kernel crossing executes every
    /// queued operation and returns the completion block.
    RingFlush "ring_flush" => Some("mach/ring_flush"),
    /// Validates a name as a *typed* send right, then releases one
    /// reference through the typed deallocate path.
    PortRightDealloc "port_right_dealloc" { slot < 4 } => None,
    // --- app frameworks / memorystatus (direct kernel paths) ---
    /// Moves the calling process into jetsam band `band % 21` via the
    /// memorystatus syscall; the band sticks until the next app op.
    MemorystatusSetPriority "memorystatus_set_priority" { band < 21 }
        => None,
    /// Opens a bundle directory from [`BUNDLE_POOL`] `NSBundle`-style:
    /// read and parse its `Info.plist` through the kernel VFS. The
    /// observation is the parsed entry count or the errno.
    BundleOpen "bundle_open" { path < BUNDLE_POOL.len() } => None,
    /// Drives the app lifecycle toward the background: attaches the
    /// machine on first use (Launching), completes the launch when
    /// needed, then delivers `EnterBackground` — `EINVAL` when the
    /// transition is illegal in the current state.
    AppBackground "app_background" => None,
    /// Runs one memorystatus pass (watermarks are unset in the
    /// conformance kernels, so only an armed `jetsam_kill` fault can
    /// claim a victim). Observes the kill count.
    JetsamTick "jetsam_tick" => None,
}

/// Number of op kinds in the grammar.
pub const KIND_COUNT: usize = KINDS.len();

fn normalize(line: &str) -> String {
    line.split_whitespace().collect::<Vec<_>>().join(" ")
}

/// A workload program: a flat op list, replayed in order by the
/// executor under each configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    /// Operations in execution order.
    pub ops: Vec<Op>,
}

impl Program {
    /// Serializes to the corpus text block (one op per line).
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        for op in &self.ops {
            s.push_str(&op.to_line());
            s.push('\n');
        }
        s
    }

    /// Parses a corpus text block. Blank lines and `#` comments are
    /// skipped.
    ///
    /// # Errors
    ///
    /// Returns the offending line on parse failure.
    pub fn parse(text: &str) -> Result<Program, String> {
        let mut ops = Vec::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            ops.push(
                Op::parse(line)
                    .ok_or_else(|| format!("bad op line: {line}"))?,
            );
        }
        Ok(Program { ops })
    }
}

/// Dispatch-entry coverage accumulated across a generation run. The
/// universe is every installed entry of the translated persona's Unix
/// and Mach tables; covered entries are read back from cider-trace
/// per-syscall metrics after each translated execution.
#[derive(Debug, Clone, Default)]
pub struct Coverage {
    universe: std::collections::BTreeSet<String>,
    covered: std::collections::BTreeSet<String>,
}

impl Coverage {
    /// A coverage tracker over the given universe of
    /// `"<class>/<name>"` dispatch sites.
    pub fn new(universe: impl IntoIterator<Item = String>) -> Coverage {
        Coverage {
            universe: universe.into_iter().collect(),
            covered: Default::default(),
        }
    }

    /// Marks a site covered; returns `true` when the site is in the
    /// universe and was not covered before (a coverage event).
    pub fn cover(&mut self, site: &str) -> bool {
        if self.universe.contains(site) {
            self.covered.insert(site.to_string())
        } else {
            false
        }
    }

    /// Whether a site has been exercised.
    pub fn is_covered(&self, site: &str) -> bool {
        self.covered.contains(site)
    }

    /// Covered / universe counts.
    pub fn counts(&self) -> (usize, usize) {
        (self.covered.len(), self.universe.len())
    }

    /// Universe sites not yet exercised, in stable order.
    pub fn uncovered(&self) -> Vec<&str> {
        self.universe
            .iter()
            .filter(|s| !self.covered.contains(*s))
            .map(|s| s.as_str())
            .collect()
    }
}

/// Generates program number `index` of a run seeded with `seed`.
///
/// Coverage steering: op kinds whose dispatch site is still uncovered
/// are preferred with probability one half per slot; the other half
/// draws uniformly so already-covered behavior keeps getting
/// recombined. With coverage complete the generator degenerates to the
/// uniform draw. Program length is 2..=24 ops.
pub fn generate(seed: u64, index: u64, coverage: &Coverage) -> Program {
    let mut rng = SplitMix64::new(
        seed ^ (index.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1),
    );
    let len = 2 + rng.below(23) as usize;
    let uncovered_kinds: Vec<usize> = (0..KIND_COUNT)
        .filter(|&k| {
            KINDS[k]
                .dispatch_site()
                .is_some_and(|s| !coverage.is_covered(s))
        })
        .collect();
    let mut ops = Vec::with_capacity(len);
    for _ in 0..len {
        let kind = if !uncovered_kinds.is_empty() && rng.below(2) == 0 {
            uncovered_kinds[rng.below(uncovered_kinds.len() as u64) as usize]
        } else {
            rng.below(KIND_COUNT as u64) as usize
        };
        ops.push(make_op(kind, &mut rng));
    }
    Program { ops }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_round_trips_through_text() {
        let mut rng = SplitMix64::new(42);
        for k in 0..KIND_COUNT {
            let op = make_op(k, &mut rng);
            let line = op.to_line();
            assert_eq!(Op::parse(&line), Some(op), "kind {k}: {line}");
            // Whitespace between words is free.
            let spaced = format!(" {}\t", line.replace(' ', " \t "));
            assert_eq!(Op::parse(&spaced), Some(op), "kind {k}: {spaced:?}");
        }
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        for line in [
            "frobnicate",
            "frobnicate fd=1",
            "open path=1",
            "open path=1 flags=2 extra=3",
            "open flags=2 path=1",
            "close fd=notanumber",
            "close fd=07",
            "close fd=+7",
            "close fd=256",
            "close fd=1 fd=1",
            "getpid fd=1",
            "=",
            "close =",
            "close fd=",
        ] {
            assert_eq!(Op::parse(line), None, "{line}");
        }
    }

    #[test]
    fn generation_is_deterministic_and_length_bounded() {
        let cov = Coverage::default();
        for i in 0..50 {
            let a = generate(7, i, &cov);
            let b = generate(7, i, &cov);
            assert_eq!(a, b);
            assert!((2..=24).contains(&a.ops.len()));
        }
        assert_ne!(generate(7, 0, &cov), generate(7, 1, &cov));
        assert_ne!(generate(7, 0, &cov), generate(8, 0, &cov));
    }

    #[test]
    fn coverage_steering_prefers_uncovered_sites() {
        // With everything uncovered, steered programs hit dispatch
        // sites; with everything covered, generation still succeeds.
        let mut cov = Coverage::new(
            KINDS
                .iter()
                .filter_map(|op| op.dispatch_site().map(String::from)),
        );
        let p = generate(3, 0, &cov);
        assert!(p.ops.iter().any(|o| o.dispatch_site().is_some()));
        for s in p.ops.iter().filter_map(|o| o.dispatch_site()) {
            cov.cover(s);
        }
        let (covered, total) = cov.counts();
        assert!(covered >= 1 && covered <= total);
    }

    #[test]
    fn program_text_round_trips() {
        let cov = Coverage::default();
        let p = generate(19, 4, &cov);
        let text = p.to_text();
        assert_eq!(Program::parse(&text).unwrap(), p);
    }

    /// Pins the grammar's seeded surface to
    /// `tests/golden/conform_grammar.txt`: each kind's line, drawn in
    /// generator order from one `SplitMix64::new(42)` stream, with its
    /// dispatch site, and FNV-1a digests of programs 0..200 of seeds 7,
    /// 19 and 31, steered (no site covered) and uniform (every site
    /// covered). Regenerate with `UPDATE_GOLDEN=1`.
    #[test]
    fn grammar_matches_golden() {
        use std::fmt::Write;
        let mut got = String::from("# kind\tline\tdispatch site\n");
        let mut rng = SplitMix64::new(42);
        for k in 0..KIND_COUNT {
            let op = make_op(k, &mut rng);
            let site = op.dispatch_site().unwrap_or("-");
            writeln!(got, "{k}\t{}\t{site}", op.to_line()).unwrap();
        }
        let sites: Vec<&str> = (0..KIND_COUNT)
            .filter_map(|k| {
                make_op(k, &mut SplitMix64::new(0)).dispatch_site()
            })
            .collect();
        let mut everything =
            Coverage::new(sites.iter().map(|s| s.to_string()));
        for s in &sites {
            everything.cover(s);
        }
        got.push_str("# seed\tcoverage\tFNV-1a of programs 0..200\n");
        for seed in [7, 19, 31] {
            for (label, cov) in
                [("none", &Coverage::default()), ("all", &everything)]
            {
                let mut h = cider_fault::Fnv1a::new();
                for i in 0..200 {
                    h.write_str(&generate(seed, i, cov).to_text());
                }
                writeln!(got, "{seed}\t{label}\t{:016x}", h.0).unwrap();
            }
        }

        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../tests/golden/conform_grammar.txt");
        if std::env::var_os("UPDATE_GOLDEN").is_some() {
            std::fs::write(&path, &got).unwrap();
            return;
        }
        let want = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            got, want,
            "the grammar drifted from its golden; a new kind is appended \
             as the last row, then regenerate with UPDATE_GOLDEN=1 cargo \
             test -p cider-conform grammar_matches_golden"
        );
    }
}
