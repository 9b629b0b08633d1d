//! dyld's closure walk on its failure paths, pinned.
//!
//! Every case forks a template bed whose measured process is spawned,
//! breaks one dylib of the 115-image framework closure in the fork's
//! VFS (or arms a `DyldResolve` fault), forks the measured process and
//! execs the iOS hello binary in the child. One line per
//! (configuration, case) holds what the exec left behind: its result,
//! the virtual time and the number of clock charges it took, the
//! child's mapping count, dyld's filesystem opens (the `dyld/fs_opens`
//! trace counter, added only by an exec that succeeds), the handlers
//! the child registered and the warm-start bake and replay counts.
//!
//! Configurations:
//! - `cold`: Cider iOS, dyld walks the filesystem per image;
//! - `shared_cache`: the iPad mini's prelinked cache, which resolves
//!   and parses every image but checks no file type and draws no
//!   fault;
//! - `warm_bake`: Cider iOS with warm start on and nothing baked yet,
//!   so the exec walks cold and bakes only if it succeeds;
//! - `warm_replay`: Cider iOS with warm start on and the cache baked
//!   by a clean exec before the case breaks anything, so the exec
//!   replays the bake without reading the VFS.
//!
//! Cases: the clean closure; a dylib mid-closure that is missing, is
//! a directory, is truncated, has a bad magic number, carries an
//! install name longer than the loader's limit, or is an `MH_EXECUTE`
//! image; and a `DyldResolve` fault at the 1st, 50th and last draw.
//!
//! Regenerate with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test dyld_walk
//! ```

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;

use cider_abi::ids::Tid;
use cider_bench::config::{SystemConfig, TestBed};
use cider_fault::{FaultLayer, FaultPlan, FaultSite, SiteConfig};
use cider_loader::{MachOBuilder, FRAMEWORK_COUNT};

const GOLDEN: &str = "tests/golden/dyld_walk.txt";

/// A private framework about sixty images into the closure's
/// breadth-first order; its one dependency is loaded before it.
const VICTIM: &str =
    "/System/Library/PrivateFrameworks/Private040.framework/Private040";

/// Its dependency, for the replacement images.
const CORE_FOUNDATION: &str =
    "/System/Library/Frameworks/CoreFoundation.framework/CoreFoundation";

/// What a case does to the closure before the exec.
#[derive(Clone, Copy)]
enum Case {
    Clean,
    Missing,
    Directory,
    Truncated,
    BadMagic,
    LongName,
    Executable,
    /// `DyldResolve` fires at this draw (1-based).
    FaultAt(usize),
}

impl Case {
    fn all() -> [Case; 10] {
        [
            Case::Clean,
            Case::Missing,
            Case::Directory,
            Case::Truncated,
            Case::BadMagic,
            Case::LongName,
            Case::Executable,
            Case::FaultAt(1),
            Case::FaultAt(50),
            Case::FaultAt(FRAMEWORK_COUNT),
        ]
    }

    fn name(self) -> String {
        match self {
            Case::Clean => "clean".into(),
            Case::Missing => "missing".into(),
            Case::Directory => "directory".into(),
            Case::Truncated => "truncated".into(),
            Case::BadMagic => "bad_magic".into(),
            Case::LongName => "long_name".into(),
            Case::Executable => "mh_execute".into(),
            Case::FaultAt(n) => format!("fault_at_draw_{n}"),
        }
    }

    /// Breaks the victim in the bed's VFS.
    fn apply(self, bed: &mut TestBed) {
        let vfs = &mut bed.sys.kernel.vfs;
        let mut bytes = vfs.read_file(VICTIM).expect("victim installed");
        let replacement = match self {
            Case::Clean | Case::FaultAt(_) => return,
            Case::Missing => {
                vfs.unlink(VICTIM).expect("victim installed");
                return;
            }
            Case::Directory => {
                vfs.unlink(VICTIM).expect("victim installed");
                vfs.mkdir_p_overlay(VICTIM).expect("parent exists");
                return;
            }
            Case::Truncated => {
                bytes.truncate(bytes.len() - 3);
                bytes
            }
            Case::BadMagic => {
                bytes[0] ^= 0xFF;
                bytes
            }
            Case::LongName => MachOBuilder::dylib(1 << 20)
                .depends_on(&"/x".repeat(2049))
                .build()
                .to_bytes(),
            Case::Executable => MachOBuilder::executable("private040")
                .depends_on(CORE_FOUNDATION)
                .build()
                .to_bytes(),
        };
        vfs.write_file_overlay(VICTIM, replacement)
            .expect("victim rewritten");
    }
}

/// Forks the measured process of `bed` and execs the iOS hello binary
/// in the child: the exec's line.
fn exec_line(bed: &mut TestBed, tid: Tid) -> String {
    let hello = bed.hello_path(true);
    let k = &mut bed.sys.kernel;
    let (child, child_tid) = k.sys_fork(tid).expect("fork");
    let (t0, c0) = (k.clock.now_ns(), k.clock.charges());
    let opens0 = k.trace.counter("dyld/fs_opens");
    let r = cider_core::exec::sys_exec_fixup(k, child_tid, hello, &[hello]);
    let p = k.process(child).expect("child");
    format!(
        "{r:?} ns={} charges={} mappings={} fs_opens={} handlers={} \
         bakes={} warm_execs={}",
        k.clock.now_ns() - t0,
        k.clock.charges() - c0,
        p.mm.iter().count(),
        k.trace.counter("dyld/fs_opens") - opens0,
        p.callbacks.total(),
        k.warm.stats.cold_bakes,
        k.warm.stats.warm_execs,
    )
}

/// Arms `DyldResolve` to fire at the first draw at or after `after_ns`.
fn arm_resolve_fault(bed: &mut TestBed, after_ns: u64) {
    let site = SiteConfig::with_probability(1000)
        .budget(1)
        .after_ns(after_ns);
    bed.sys.kernel.faults = FaultLayer::with_plan(
        FaultPlan::new(7).site(FaultSite::DyldResolve, site),
    );
}

/// The line of one case on a fresh fork of the template.
fn case_line(template: &TestBed, tid: Tid, case: Case) -> String {
    let Case::FaultAt(draw) = case else {
        let mut bed = template.fork_device();
        case.apply(&mut bed);
        return exec_line(&mut bed, tid);
    };
    // Every draw follows a nonzero charge, so a fault armed one
    // nanosecond after draw n fired fires at draw n + 1.
    let mut after_ns = 0;
    for n in 1..=draw {
        let mut bed = template.fork_device();
        arm_resolve_fault(&mut bed, after_ns);
        let line = exec_line(&mut bed, tid);
        match bed.sys.kernel.faults.ledger().first() {
            Some(fired) if n < draw => after_ns = fired.at_ns + 1,
            _ => return line,
        }
    }
    unreachable!("the loop returns at its last draw")
}

/// A traced template bed of `config` with its measured process.
fn template(config: SystemConfig, warm: bool) -> (TestBed, Tid) {
    let mut bed = TestBed::builder(config).traced().build();
    let (_, tid) = bed.spawn_measured().expect("bench binary");
    bed.sys.kernel.warm.set_enabled(warm);
    (bed, tid)
}

/// Every line, in configuration then case order.
fn walk_lines() -> String {
    let mut warm_replay = template(SystemConfig::CiderIos, true);
    exec_line(&mut warm_replay.0, warm_replay.1);
    assert!(
        warm_replay.0.sys.kernel.warm.cache().is_some(),
        "clean bake"
    );
    let templates = [
        ("cold", template(SystemConfig::CiderIos, false)),
        ("shared_cache", template(SystemConfig::IpadMini, false)),
        ("warm_bake", template(SystemConfig::CiderIos, true)),
        ("warm_replay", warm_replay),
    ];
    let mut out = String::new();
    for (config, (bed, tid)) in &templates {
        for case in Case::all() {
            let line = case_line(bed, *tid, case);
            writeln!(out, "{config} {}: {line}", case.name())
                .expect("writing to a String");
        }
    }
    out
}

#[test]
fn dyld_walk_failure_paths_match_golden() {
    let got = walk_lines();
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(GOLDEN);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        fs::write(&path, &got).unwrap();
        return;
    }
    let want = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{}: {e}\nregenerate with UPDATE_GOLDEN=1 cargo test --test \
             dyld_walk",
            path.display()
        )
    });
    let mut report = String::new();
    for (i, (w, g)) in want.lines().zip(got.lines()).enumerate() {
        if w != g {
            let _ =
                writeln!(report, "line {}:\n  want {w}\n  got  {g}", i + 1);
        }
    }
    assert!(
        report.is_empty() && want.lines().count() == got.lines().count(),
        "the dyld walk moved ({} lines want, {} got):\n{report}",
        want.lines().count(),
        got.lines().count()
    );
}
