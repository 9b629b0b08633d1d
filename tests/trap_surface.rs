//! The raw trap surface, pinned: every installed entry of the measured
//! thread's dispatch tables, on every configuration, trapped with
//! hostile registers and payloads.
//!
//! For each configuration one traced template bed is booted and its
//! measured process spawned. Every entry of that thread's tables (the
//! Linux table on the two Android configurations, the XNU Unix and
//! Mach tables on Cider iOS and the iPad) is trapped with all seven
//! registers set to each of {0, 1, -1, `i64::MIN`, `i64::MAX`}, each
//! trap on a fresh fork of the template: once with no payload and once
//! with each of six hostile payloads. A trap must return, never panic.
//!
//! One line per (configuration, entry, register value) holds the
//! no-payload trap's result register, carry flag, the FNV-1a of its
//! out-of-band bytes and its virtual clock delta, then one FNV-1a over
//! the same four of every payload case. A mismatch names the lines
//! that differ.
//!
//! Regenerate with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test trap_surface
//! ```

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;

use cider_abi::syscall::{MachTrap, XnuSyscall, XnuTrap};
use cider_bench::config::{SystemConfig, TestBed};
use cider_core::XnuPersonality;
use cider_fault::{fnv1a, Fnv1a};
use cider_kernel::dispatch::{SyscallArgs, SyscallData, UserTrapResult};
use cider_kernel::kernel::LinuxPersonality;

const GOLDEN: &str = "tests/golden/trap_surface.txt";

/// The value every register of a trap holds.
const REGISTER_VALUES: [i64; 5] = [0, 1, -1, i64::MIN, i64::MAX];

/// The hostile payloads each register value is also trapped with.
fn payloads() -> [SyscallData<'static>; 6] {
    [
        SyscallData::Bytes(Vec::new().into()),
        SyscallData::Bytes(vec![0xFF; 64].into()),
        SyscallData::Path("".into()),
        SyscallData::Path("/".into()),
        SyscallData::Exec {
            path: "".into(),
            argv: Vec::new(),
        },
        SyscallData::FdSet(vec![i32::MIN, -1, 0, 1 << 30].into()),
    ]
}

/// Every entry of the tables a configuration's measured thread traps
/// through: `(table, name, raw trap number)`.
fn entries(config: SystemConfig) -> Vec<(&'static str, String, i64)> {
    if !config.runs_ios_binary() {
        let linux = LinuxPersonality::new();
        return linux
            .table()
            .entries()
            .map(|(nr, name)| ("linux", name.to_string(), i64::from(nr)))
            .collect();
    }
    let xnu = XnuPersonality::new();
    let unix = xnu.unix_table().entries().map(|(nr, name)| {
        let call = XnuSyscall::from_number(nr).expect("installed call");
        ("unix", name.to_string(), XnuTrap::Unix(call).encode())
    });
    let mach = xnu.mach_table().entries().map(|(nr, name)| {
        let trap = MachTrap::from_number(nr).expect("installed trap");
        ("mach", name.to_string(), XnuTrap::Mach(trap).encode())
    });
    unix.chain(mach).collect()
}

/// Traps once on a fresh fork of the template; returns the result and
/// the virtual time the trap took.
fn trap_on_fork(
    template: &TestBed,
    tid: cider_abi::ids::Tid,
    number: i64,
    args: &SyscallArgs,
) -> (UserTrapResult, u64) {
    let mut bed = template.fork_device();
    let t0 = bed.sys.kernel.clock.now_ns();
    let r = bed.sys.trap(tid, number, args);
    (r, bed.sys.kernel.clock.now_ns() - t0)
}

/// The whole surface, one line per (configuration, entry, register
/// value).
fn surface() -> String {
    let mut out = String::new();
    for config in SystemConfig::ALL {
        let mut template = TestBed::builder(config).traced().build();
        let (_, tid) = template.spawn_measured().expect("bench binary");
        for (table, name, number) in entries(config) {
            for value in REGISTER_VALUES {
                let mut args = SyscallArgs::regs([value; 7]);
                let (r, dt) = trap_on_fork(&template, tid, number, &args);
                let mut cases = Fnv1a::new();
                for data in payloads() {
                    args.data = data;
                    let (r, dt) = trap_on_fork(&template, tid, number, &args);
                    cases.write_u64(r.reg as u64);
                    cases.write(&[u8::from(r.flags.carry)]);
                    cases.write_u64(fnv1a(&r.out_data));
                    cases.write_u64(dt);
                }
                writeln!(
                    out,
                    "{} {table}/{name} nr={number} r={value} -> reg={} \
                     carry={} out={:016x} dt={dt} payloads={:016x}",
                    config.slug(),
                    r.reg,
                    u8::from(r.flags.carry),
                    fnv1a(&r.out_data),
                    cases.0,
                )
                .expect("writing to a String");
            }
        }
    }
    out
}

#[test]
fn raw_trap_surface_matches_golden() {
    let got = surface();
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(GOLDEN);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        fs::write(&path, &got).unwrap();
        return;
    }
    let want = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{}: {e}\nregenerate with UPDATE_GOLDEN=1 cargo test --test \
             trap_surface",
            path.display()
        )
    });
    let (want, got): (Vec<&str>, Vec<&str>) =
        (want.lines().collect(), got.lines().collect());
    let mut report = String::new();
    for i in 0..want.len().max(got.len()) {
        let (w, g) = (want.get(i), got.get(i));
        if w != g {
            let _ = writeln!(
                report,
                "line {}:\n  want {}\n  got  {}",
                i + 1,
                w.unwrap_or(&"(none)"),
                g.unwrap_or(&"(none)")
            );
        }
    }
    assert!(
        report.is_empty(),
        "the raw trap surface moved ({} lines want, {} got):\n{report}",
        want.len(),
        got.len()
    );
}
