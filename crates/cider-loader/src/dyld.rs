//! The dyld simulation: dependency-closure loading for Mach-O images.
//!
//! dyld is "a user space binary, which is invoked from the Mach-O
//! loader" (paper §2). Two paths exist, matching the paper's analysis:
//!
//! * **non-prelinked** (the Cider prototype): dyld "must walk the
//!   filesystem to load each library on every exec" — a VFS resolution,
//!   an open, a header read, a parse, and a segment mapping per image;
//! * **shared cache** (real iOS devices): one prelinked mapping covers
//!   every system library, and the per-image filesystem walk disappears.
//!
//! Either way dyld registers one atfork triple and one atexit handler per
//! image — the user-space work behind the 14× `fork+exit` overhead.

use std::collections::BTreeSet;
use std::collections::VecDeque;
use std::sync::Arc;

use cider_abi::errno::Errno;
use cider_abi::ids::Tid;
use cider_fault::FaultSite;
use cider_kernel::kernel::Kernel;
use cider_kernel::mm::{MappingKind, Prot};
use cider_kernel::warm::{BakedImage, SharedCacheImage};

use crate::framework_set::TOTAL_MAPPED_BYTES;
use crate::macho::{FileType, MachO};

/// What dyld did, for assertions and experiment reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DyldStats {
    /// Images loaded (including shared-cache residents).
    pub images: u32,
    /// Bytes mapped.
    pub mapped_bytes: u64,
    /// Whether the shared cache satisfied the system libraries.
    pub used_shared_cache: bool,
    /// Filesystem opens dyld performed.
    pub fs_opens: u32,
}

/// Runs dyld for a freshly exec'd Mach-O with the given direct
/// dependencies: loads the transitive closure, maps every image, and
/// registers per-image user callbacks.
///
/// # Errors
///
/// `ENOENT` if a dependency is missing from the filesystem, `ENOEXEC` if
/// a dependency is not a valid Mach-O dylib.
pub fn run_dyld(
    k: &mut Kernel,
    tid: Tid,
    root_deps: &[String],
) -> Result<DyldStats, Errno> {
    let mut stats = DyldStats::default();
    let pid = k.thread(tid)?.pid;
    let shared_cache = k.profile.shared_dyld_cache;

    // dyld itself is mapped first (by the kernel loader in reality).
    k.charge_cpu(k.profile.dylib_map_ns);

    // One name per loaded image, shared by its mapping and the four
    // callbacks `register_image_callbacks` gives it.
    let mut images: Vec<Arc<str>> = Vec::new();

    if shared_cache {
        // One giant prelinked mapping; per-image work is just binding.
        k.process_mut(pid)?.mm.map(
            TOTAL_MAPPED_BYTES,
            Prot::RX,
            MappingKind::SharedCache,
            "dyld_shared_cache_armv7",
        )?;
        k.charge_cpu(k.profile.dylib_map_ns);
        stats.used_shared_cache = true;
        stats.mapped_bytes += TOTAL_MAPPED_BYTES;
        // The closure is still walked to bind symbols, entirely in
        // memory. Prelinking coalesces the cache residents'
        // initialiser/terminator handling ("iOS treats the shared cache
        // in a special way and optimizes how it is handled", §6.2):
        // only the directly linked images register their own atfork /
        // atexit callbacks.
        let mut seen = BTreeSet::new();
        let mut work: VecDeque<String> = root_deps.to_vec().into();
        while let Some(path) = work.pop_front() {
            if seen.contains(&path) {
                continue;
            }
            let ino = k.vfs.resolve(&path)?.ino;
            let m = MachO::parse(k.vfs.file_bytes(ino)?)?;
            k.charge_cpu(600); // in-cache bind, no I/O
            if root_deps.contains(&path) {
                images.push(path.as_str().into());
            }
            work.extend(m.into_dylib_deps());
            seen.insert(path);
            stats.images += 1;
        }
    } else if let Some(cache) = warm_cache_hit(k, root_deps) {
        // Zygote-style warm start: the device holds a prelinked cache
        // baked by an earlier cold walk for exactly these roots.
        // Replay the baked closure — same images, same bind order,
        // same mapped sizes, so the resulting address space and
        // callback registrations are indistinguishable from a cold
        // walk — but with zero filesystem traffic and in-cache bind
        // cost per image instead of resolve+open+read+map.
        // Exactly as on the iPad's prelinked cache, initialiser and
        // terminator handling of cache residents is coalesced: only
        // the directly linked images register their own atfork/atexit
        // callbacks.
        k.charge_cpu(k.profile.dylib_map_ns); // map the prelinked region
        for img in &cache.images {
            k.process_mut(pid)?.mm.map(
                img.vmsize,
                Prot::RX,
                MappingKind::Dylib,
                img.path.clone(),
            )?;
            k.charge_cpu(600); // in-cache bind, no I/O
            if root_deps.iter().any(|r| **r == *img.path) {
                images.push(img.path.clone());
            }
            stats.images += 1;
        }
        stats.mapped_bytes = cache.total_bytes;
        stats.used_shared_cache = true;
        k.warm.stats.warm_execs += 1;
        if k.trace.is_enabled() {
            k.trace.incr("dyld/warm_execs");
        }
    } else {
        // The Cider prototype path: walk the filesystem per image. The
        // charges below are the virtual cost of that walk, and their
        // amounts and order are pinned (`tests/trap_allocs.rs`): the
        // watchdog can expire between any two. The host work is one
        // resolve and an in-place header read per image.
        let mut seen = BTreeSet::new();
        let mut work: VecDeque<String> = root_deps.to_vec().into();
        // The first successful cold walk on a warm device bakes the
        // cache (nothing in the walk changes either condition). A later
        // roots-mismatch walk keeps the first bake: per-app closures
        // share one device cache keyed on the roots it was baked for.
        let bake = k.warm.is_enabled() && k.warm.cache().is_none();
        let mut closure: Vec<BakedImage> = Vec::new();
        while let Some(path) = work.pop_front() {
            if seen.contains(&path) {
                continue;
            }
            if k.fault_at(FaultSite::DyldResolve) {
                // A dylib of the closure is missing from the overlay.
                return Err(Errno::ENOENT);
            }
            let resolved = k.vfs.resolve(&path)?;
            k.charge_cpu(
                k.profile.path_component_ns
                    * resolved.components_walked as u64,
            );
            // open + header read + close.
            k.charge_cpu(k.profile.vfs_op_ns * 2);
            stats.fs_opens += 1;
            // Parse from the file's bytes in place, then charge their
            // copy: a malformed image fails only after that charge.
            let (len, parsed) = {
                let bytes = k.vfs.file_bytes(resolved.ino)?;
                (bytes.len(), MachO::parse(bytes))
            };
            k.charge_cpu(
                (len.min(4096) as f64 * k.profile.copy_byte_ns) as u64,
            );
            let m = parsed?;
            if m.filetype != FileType::Dylib {
                return Err(Errno::ENOEXEC);
            }
            let vmsize = m.total_vmsize();
            let name: Arc<str> = path.as_str().into();
            k.process_mut(pid)?.mm.map(
                vmsize,
                Prot::RX,
                MappingKind::Dylib,
                name.clone(),
            )?;
            k.charge_cpu(k.profile.dylib_map_ns);
            stats.mapped_bytes += vmsize;
            if bake {
                closure.push(BakedImage {
                    path: name.clone(),
                    vmsize,
                });
            }
            images.push(name);
            work.extend(m.into_dylib_deps());
            seen.insert(path);
            stats.images += 1;
        }
        if bake {
            k.warm.install(SharedCacheImage::bake(
                root_deps.to_vec(),
                closure,
                stats.mapped_bytes,
            ));
            if k.trace.is_enabled() {
                k.trace.incr("dyld/cache_bakes");
            }
        }
    }

    // Every image registers atfork + atexit handlers with libSystem.
    k.register_image_callbacks(pid, &images)?;
    Ok(stats)
}

/// The warm-path gate: returns the baked cache to replay when warm
/// start is on, a cache exists, it was baked for exactly these roots,
/// the [`FaultSite::SharedCacheCorrupt`] fault does not fire, and the
/// digest still verifies. Corruption (fault or digest mismatch)
/// invalidates the cache, so the caller falls back to the cold walk —
/// which launches anyway and re-bakes. The cache is shared, not
/// copied: the replay reads it in place.
fn warm_cache_hit(
    k: &mut Kernel,
    root_deps: &[String],
) -> Option<Arc<SharedCacheImage>> {
    if !k.warm.is_enabled() {
        return None;
    }
    let roots: Vec<&str> = root_deps.iter().map(String::as_str).collect();
    let cache = k
        .warm
        .cache()
        .filter(|c| c.matches_roots(&roots))
        .cloned()?;
    if k.fault_at(FaultSite::SharedCacheCorrupt) || !cache.verify() {
        k.warm.invalidate();
        if k.trace.is_enabled() {
            k.trace.incr("dyld/cache_invalidations");
        }
        return None;
    }
    Some(cache)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework_set::{FrameworkSet, FRAMEWORK_COUNT};
    use cider_kernel::profile::DeviceProfile;

    fn kernel_with_frameworks(profile: DeviceProfile) -> (Kernel, Tid) {
        let mut k = Kernel::boot(profile);
        let (_, tid) = k.spawn_process();
        FrameworkSet::standard().install(&mut k.vfs);
        (k, tid)
    }

    #[test]
    fn loads_all_115_images_walking_the_fs() {
        let (mut k, tid) = kernel_with_frameworks(DeviceProfile::nexus7());
        let stats =
            run_dyld(&mut k, tid, &FrameworkSet::app_default_deps()).unwrap();
        assert_eq!(stats.images, FRAMEWORK_COUNT as u32);
        assert_eq!(stats.fs_opens, FRAMEWORK_COUNT as u32);
        assert!(!stats.used_shared_cache);
        // ~90 MB mapped.
        assert!(stats.mapped_bytes > 88 * 1024 * 1024);
        // 115 images × (atfork triple + atexit).
        let pid = k.thread(tid).unwrap().pid;
        let p = k.process(pid).unwrap();
        assert_eq!(p.callbacks.atfork_total(), FRAMEWORK_COUNT * 3);
        assert_eq!(p.callbacks.atexit.len(), FRAMEWORK_COUNT);
    }

    #[test]
    fn shared_cache_skips_fs_walk_and_is_faster() {
        let (mut k_slow, tid_slow) =
            kernel_with_frameworks(DeviceProfile::nexus7());
        let t0 = k_slow.clock.now_ns();
        run_dyld(&mut k_slow, tid_slow, &FrameworkSet::app_default_deps())
            .unwrap();
        let walk_cost = k_slow.clock.now_ns() - t0;

        let (mut k_fast, tid_fast) =
            kernel_with_frameworks(DeviceProfile::ipad_mini());
        let t0 = k_fast.clock.now_ns();
        let stats =
            run_dyld(&mut k_fast, tid_fast, &FrameworkSet::app_default_deps())
                .unwrap();
        let cache_cost = k_fast.clock.now_ns() - t0;

        assert!(stats.used_shared_cache);
        assert_eq!(stats.fs_opens, 0);
        assert!(
            cache_cost * 3 < walk_cost,
            "cache {cache_cost} vs walk {walk_cost}"
        );
    }

    #[test]
    fn shared_cache_pages_excluded_from_fork_cost() {
        let (mut k, tid) = kernel_with_frameworks(DeviceProfile::ipad_mini());
        run_dyld(&mut k, tid, &FrameworkSet::app_default_deps()).unwrap();
        let pid = k.thread(tid).unwrap().pid;
        let ptes = k.process(pid).unwrap().mm.total_ptes();
        // The 90 MB cache does not contribute.
        assert!(ptes < 1024, "ptes {ptes}");
    }

    #[test]
    fn missing_dependency_is_enoent() {
        let mut k = Kernel::boot(DeviceProfile::nexus7());
        let (_, tid) = k.spawn_process();
        let err = run_dyld(&mut k, tid, &["/usr/lib/libMissing.dylib".into()])
            .unwrap_err();
        assert_eq!(err, Errno::ENOENT);
    }

    #[test]
    fn duplicate_deps_load_once() {
        let (mut k, tid) = kernel_with_frameworks(DeviceProfile::nexus7());
        let dep = "/usr/lib/libSystem.B.dylib".to_string();
        let stats =
            run_dyld(&mut k, tid, &[dep.clone(), dep.clone(), dep]).unwrap();
        assert_eq!(stats.images, 1);
    }

    /// Address-space snapshot: (start, len, name) of every mapping.
    fn mm_shape(k: &Kernel, tid: Tid) -> Vec<(u64, u64, Arc<str>)> {
        let pid = k.thread(tid).unwrap().pid;
        k.process(pid)
            .unwrap()
            .mm
            .iter()
            .map(|m| (m.start, m.len, m.name.clone()))
            .collect()
    }

    #[test]
    fn first_warm_launch_bakes_then_replays_without_fs_traffic() {
        let (mut k, tid) = kernel_with_frameworks(DeviceProfile::nexus7());
        k.warm.set_enabled(true);
        let deps = FrameworkSet::app_default_deps();

        // Cold walk with an empty cache: full fs traffic, then a bake.
        let t0 = k.clock.now_ns();
        let cold = run_dyld(&mut k, tid, &deps).unwrap();
        let cold_cost = k.clock.now_ns() - t0;
        assert_eq!(cold.fs_opens, FRAMEWORK_COUNT as u32);
        assert!(!cold.used_shared_cache);
        assert_eq!(k.warm.stats.cold_bakes, 1);
        let cache = k.warm.cache().unwrap();
        assert_eq!(cache.images.len(), FRAMEWORK_COUNT);
        assert!(cache.verify());
        let cold_shape = mm_shape(&k, tid);

        // A second exec replays the bake: zero fs opens, same closure,
        // same address-space shape, much cheaper.
        let (mut k2, tid2) = kernel_with_frameworks(DeviceProfile::nexus7());
        k2.warm = k.warm.clone();
        let t0 = k2.clock.now_ns();
        let warm = run_dyld(&mut k2, tid2, &deps).unwrap();
        let warm_cost = k2.clock.now_ns() - t0;
        assert!(warm.used_shared_cache);
        assert_eq!(warm.fs_opens, 0);
        assert_eq!(warm.images, cold.images);
        assert_eq!(warm.mapped_bytes, cold.mapped_bytes);
        assert_eq!(mm_shape(&k2, tid2), cold_shape);
        assert_eq!(k2.warm.stats.warm_execs, 1);
        assert!(
            warm_cost * 3 < cold_cost,
            "warm {warm_cost} vs cold {cold_cost}"
        );

        // Prelinking coalesces cache residents' handlers: only the
        // direct roots register callbacks, exactly as on the iPad's
        // shared cache.
        let pid = k2.thread(tid2).unwrap().pid;
        let p = k2.process(pid).unwrap();
        assert_eq!(p.callbacks.atfork_total(), deps.len() * 3);
        assert_eq!(p.callbacks.atexit.len(), deps.len());
    }

    #[test]
    fn corrupt_cache_invalidates_and_cold_walk_rebakes() {
        use cider_fault::FaultPlan;

        let (mut k, tid) = kernel_with_frameworks(DeviceProfile::nexus7());
        k.warm.set_enabled(true);
        let deps = FrameworkSet::app_default_deps();
        run_dyld(&mut k, tid, &deps).unwrap(); // bake

        // Arm SharedCacheCorrupt to fire on the next (warm) exec.
        k.faults = cider_fault::FaultLayer::with_plan(
            FaultPlan::new(1).with(FaultSite::SharedCacheCorrupt, 1000),
        );
        let (_, tid2) = k.spawn_process();
        let stats = run_dyld(&mut k, tid2, &deps).unwrap();
        // It still launched — via the cold walk — and re-baked.
        assert!(!stats.used_shared_cache);
        assert_eq!(stats.fs_opens, FRAMEWORK_COUNT as u32);
        assert_eq!(k.warm.stats.invalidations, 1);
        assert_eq!(k.warm.stats.cold_bakes, 2);
        assert!(k.warm.cache().is_some());
    }

    #[test]
    fn digest_mismatch_behaves_like_the_corruption_fault() {
        let (mut k, tid) = kernel_with_frameworks(DeviceProfile::nexus7());
        k.warm.set_enabled(true);
        let deps = FrameworkSet::app_default_deps();
        run_dyld(&mut k, tid, &deps).unwrap();

        // Flip a byte of a copy of the baked closure behind the
        // digest's back.
        let mut cache = SharedCacheImage::clone(k.warm.cache().unwrap());
        cache.images[0].vmsize ^= 1;
        k.warm.install(cache);
        let bakes_before = k.warm.stats.cold_bakes;

        let (_, tid2) = k.spawn_process();
        let stats = run_dyld(&mut k, tid2, &deps).unwrap();
        assert!(!stats.used_shared_cache);
        assert_eq!(k.warm.stats.invalidations, 1);
        assert_eq!(k.warm.stats.cold_bakes, bakes_before + 1);
    }

    #[test]
    fn roots_mismatch_walks_cold_but_keeps_the_first_bake() {
        let (mut k, tid) = kernel_with_frameworks(DeviceProfile::nexus7());
        k.warm.set_enabled(true);
        run_dyld(&mut k, tid, &FrameworkSet::app_default_deps()).unwrap();
        let digest = k.warm.cache().unwrap().digest;

        let (_, tid2) = k.spawn_process();
        let stats = run_dyld(
            &mut k,
            tid2,
            &["/usr/lib/libSystem.B.dylib".to_string()],
        )
        .unwrap();
        assert!(!stats.used_shared_cache);
        assert_eq!(k.warm.stats.cold_bakes, 1, "first bake kept");
        assert_eq!(k.warm.cache().unwrap().digest, digest);
    }

    #[test]
    fn disabled_warm_start_never_consults_the_cache() {
        let (mut k, tid) = kernel_with_frameworks(DeviceProfile::nexus7());
        let deps = FrameworkSet::app_default_deps();
        run_dyld(&mut k, tid, &deps).unwrap();
        assert!(k.warm.cache().is_none());
        assert_eq!(k.warm.stats.cold_bakes, 0);
    }
}
