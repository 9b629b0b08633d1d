//! `Vfs::walk` against the path-by-path walk it replaced.
//!
//! Checkpoint capture (`kernel/vfs`) and conform's VFS fingerprint both
//! visit the union of the overlay trees through one `Vfs::walk`, which
//! advances a resolution stack per tree one name at a time. The
//! reference below is the walk it replaced: for every path, `resolve`
//! it from `/`, `stat` the node, `read_file` a regular file and
//! `readdir` a directory. The two must visit the same `(path, stat,
//! content digest)` sequence on random trees (overlay shadowing,
//! chained, dangling and looping symlinks, `..` in link targets,
//! devices, unlinks, and one symlink to an ancestor that only the depth
//! cap stops) and on every fleet workload's device.

use cider_abi::types::{FileType, Stat};
use cider_bench::config::SystemConfig;
use cider_fleet::{DeviceSim, DeviceSpec, Workload};
use cider_kernel::fnv1a;
use cider_kernel::vfs::{DeviceId, Vfs, MAX_WALK_DEPTH};
use proptest::prelude::*;

type Visit = (String, Stat, u64);

/// The path-by-path walk: every path resolved from `/`, every file
/// read by path, every directory listed by path.
fn reference_walk(fs: &Vfs, path: &str, depth: usize, out: &mut Vec<Visit>) {
    if depth > MAX_WALK_DEPTH {
        return;
    }
    let Ok(r) = fs.resolve(path) else {
        return;
    };
    let st = fs.stat(r.ino);
    let data = match st.file_type {
        FileType::Regular => fs.read_file(path).unwrap(),
        _ => Vec::new(),
    };
    out.push((path.to_string(), st, fnv1a(&data)));
    if st.file_type == FileType::Directory {
        for name in fs.readdir(path).unwrap() {
            let child = if path == "/" {
                format!("/{name}")
            } else {
                format!("{path}/{name}")
            };
            reference_walk(fs, &child, depth + 1, out);
        }
    }
}

fn walked(fs: &Vfs, root: &str) -> Vec<Visit> {
    let mut out = Vec::new();
    fs.walk(root, |path, st, data| {
        out.push((path.to_string(), *st, fnv1a(data)));
    });
    out
}

fn assert_walk_matches_reference(fs: &Vfs, root: &str) -> usize {
    let mut want = Vec::new();
    reference_walk(fs, root, 0, &mut want);
    let got = walked(fs, root);
    if let Some(i) =
        (0..want.len().max(got.len())).find(|&i| want.get(i) != got.get(i))
    {
        panic!(
            "walk of {root} diverges at visit {i}:\n  reference {:?}\n  \
             walk      {:?}",
            want.get(i),
            got.get(i)
        );
    }
    got.len()
}

#[derive(Debug, Clone)]
enum Op {
    MkdirP(String),
    MkdirPOverlay(String),
    WriteFile(String, u8),
    WriteFileOverlay(String, u8),
    Symlink(String, String),
    MknodDevice(String),
    Unlink(String),
}

impl Op {
    fn apply(&self, fs: &mut Vfs) {
        // Errors (missing parents, EEXIST, ENOTDIR, ...) are part of
        // the model: a failed op leaves whatever tree it leaves.
        let _ = match self {
            Op::MkdirP(p) => fs.mkdir_p(p).map(drop),
            Op::MkdirPOverlay(p) => fs.mkdir_p_overlay(p).map(drop),
            Op::WriteFile(p, n) => {
                fs.write_file(p, vec![*n; *n as usize]).map(drop)
            }
            Op::WriteFileOverlay(p, n) => {
                fs.write_file_overlay(p, vec![*n; *n as usize]).map(drop)
            }
            Op::Symlink(p, t) => fs.symlink(p, t),
            Op::MknodDevice(p) => fs.mknod_device(p, DeviceId(1)),
            Op::Unlink(p) => fs.unlink(p),
        };
    }
}

/// One of `names`.
fn pick(
    names: &'static [&'static str],
) -> impl Strategy<Value = &'static str> {
    (0..names.len()).prop_map(move |i| names[i])
}

/// Up to `max` directory components: `/`, `/a`, `/a/b`, ...
fn dir_path(max: usize) -> impl Strategy<Value = String> {
    prop::collection::vec(pick(&["a", "b"]), 0..=max)
        .prop_map(|c| format!("/{}", c.join("/")))
}

fn join(dir: &str, name: &str) -> String {
    if dir == "/" {
        format!("/{name}")
    } else {
        format!("{dir}/{name}")
    }
}

/// A path under a directory of at most two components, ending in one
/// of `names`.
fn leaf_path(names: &'static [&'static str]) -> impl Strategy<Value = String> {
    (dir_path(2), pick(names)).prop_map(|(d, n)| join(&d, n))
}

/// A symlink target that never resolves to a directory: a file, a
/// chained `l`/`m` link, or a name nothing creates, half the time
/// reached through a `..` detour.
fn target() -> impl Strategy<Value = String> {
    (
        leaf_path(&["f", "g", "l", "m", "nx"]),
        any::<bool>(),
        pick(&["a", "b"]),
    )
        .prop_map(|(leaf, detour, d)| {
            if !detour {
                return leaf;
            }
            let (dir, name) = leaf.rsplit_once('/').unwrap();
            let dir = if dir.is_empty() { "/" } else { dir };
            join(&join(&join(dir, d), ".."), name)
        })
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        dir_path(3).prop_map(Op::MkdirP),
        dir_path(3).prop_map(Op::MkdirPOverlay),
        (leaf_path(&["f", "g"]), 0u8..4)
            .prop_map(|(p, n)| Op::WriteFile(p, n)),
        (leaf_path(&["f", "g"]), 0u8..4)
            .prop_map(|(p, n)| Op::WriteFileOverlay(p, n)),
        (leaf_path(&["l", "m"]), target())
            .prop_map(|(p, t)| Op::Symlink(p, t)),
        leaf_path(&["f", "g"]).prop_map(Op::MknodDevice),
        dir_path(3).prop_map(Op::Unlink),
        leaf_path(&["f", "g", "l", "m", "up"]).prop_map(Op::Unlink),
    ]
}

/// The one symlink allowed to name a directory: `up`, pointing at an
/// ancestor of itself. Only the depth cap ends the walk through it;
/// a second one could make the number of paths exponential in the
/// cap.
fn ancestor_link() -> impl Strategy<Value = Op> {
    (dir_path(3), 0usize..4).prop_map(|(dir, up)| {
        let comps: Vec<&str> =
            dir.split('/').filter(|c| !c.is_empty()).collect();
        let target = format!("/{}", comps[..up.min(comps.len())].join("/"));
        Op::Symlink(join(&dir, "up"), target)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// On random overlay trees, `Vfs::walk` visits exactly what the
    /// path-by-path walk visits, from `/` and from a subdirectory.
    #[test]
    fn walk_matches_path_by_path_reference(
        ops in prop::collection::vec(op(), 1..40),
        up in (any::<bool>(), ancestor_link(), 0usize..40),
        root in dir_path(2),
    ) {
        let mut ops = ops;
        if let (true, link, at) = up {
            ops.insert(at.min(ops.len()), link);
        }
        let mut fs = Vfs::new();
        for op in &ops {
            op.apply(&mut fs);
        }
        assert_walk_matches_reference(&fs, "/");
        assert_walk_matches_reference(&fs, &root);
    }
}

/// Every fleet workload's device, a few units in, on every
/// configuration: the walk visits the same nodes as the reference.
#[test]
fn walk_matches_reference_on_fleet_devices() {
    let workloads = [
        Workload::LmbenchMix { ops: 4 },
        Workload::LaunchStorm { launches: 2 },
        Workload::LaunchStormWarm { launches: 2 },
        Workload::IpcStorm { msgs: 4 },
        Workload::ConformOps { programs: 2 },
        Workload::AppLifecycle { cycles: 2 },
    ];
    for config in SystemConfig::ALL {
        for workload in workloads {
            let spec = DeviceSpec {
                device_id: 0,
                seed: 5,
                config,
                workload,
                fault_plan: None,
            };
            let mut sim = DeviceSim::boot(&spec);
            for _ in 0..2 {
                if !sim.done() {
                    sim.step();
                }
            }
            let visits = assert_walk_matches_reference(&sim.kernel().vfs, "/");
            assert!(visits > 1, "{config:?} {workload:?}: empty walk");
        }
    }
}
