//! Address spaces and page tables.
//!
//! Every process owns an [`AddressSpace`]: an ordered set of
//! [`Mapping`]s. `fork` duplicates the page-table entries of every mapping
//! one by one — the mechanism behind the paper's observation that an iOS
//! process (90 MB of dyld-mapped libraries) pays "almost 1 ms of extra
//! overhead" per fork compared to a Linux process.
//!
//! The mappings are one vector in address order. Kernel-chosen
//! addresses only grow, so `map` appends; copying a space for `fork`
//! is one allocation however many images it maps.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

use cider_abi::errno::Errno;

/// Page size used throughout the simulator (4 KiB, as on both devices).
pub const PAGE_SIZE: u64 = 4096;

/// Memory protection bits of a mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Prot {
    /// Readable.
    pub read: bool,
    /// Writable.
    pub write: bool,
    /// Executable.
    pub exec: bool,
}

impl Prot {
    /// `r-x` — text segments.
    pub const RX: Prot = Prot {
        read: true,
        write: false,
        exec: true,
    };
    /// `rw-` — data segments, heaps, stacks.
    pub const RW: Prot = Prot {
        read: true,
        write: true,
        exec: false,
    };
    /// `r--` — read-only data.
    pub const R: Prot = Prot {
        read: true,
        write: false,
        exec: false,
    };
}

impl fmt::Display for Prot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{}{}",
            if self.read { 'r' } else { '-' },
            if self.write { 'w' } else { '-' },
            if self.exec { 'x' } else { '-' }
        )
    }
}

/// What backs a mapping; used by diagnostics and by the dyld accounting.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum MappingKind {
    /// Main binary text/data.
    Binary,
    /// A dynamically loaded library.
    Dylib,
    /// The dyld shared cache (one giant prelinked mapping).
    SharedCache,
    /// Anonymous memory (heap, stack).
    Anonymous,
    /// Graphics / IOSurface memory shared with the GPU.
    Graphics,
}

/// One contiguous virtual-memory mapping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mapping {
    /// Start address (page-aligned).
    pub start: u64,
    /// Length in bytes (page-aligned).
    pub len: u64,
    /// Protection.
    pub prot: Prot,
    /// Backing kind.
    pub kind: MappingKind,
    /// Diagnostic name (library path, `[heap]`, ...). Shared: a dylib's
    /// mapping and its four user callbacks hold one name, and `fork`
    /// copies a reference count rather than the string.
    pub name: Arc<str>,
}

impl Mapping {
    /// Number of page-table entries this mapping occupies.
    pub fn pte_count(&self) -> u64 {
        self.len.div_ceil(PAGE_SIZE)
    }

    /// End address (exclusive).
    pub fn end(&self) -> u64 {
        self.start + self.len
    }
}

/// A process's virtual address space.
#[derive(Debug, Clone, Default)]
pub struct AddressSpace {
    /// Mappings in address order.
    maps: Vec<Mapping>,
    next_free: u64,
    /// Copy-on-write debt per mapping start: PTEs whose duplication was
    /// deferred at `fork` time and is still owed. Empty outside a CoW
    /// child.
    cow_pending: BTreeMap<u64, u64>,
    /// Page addresses already materialized by a first write (so repeat
    /// writes to the same page are free, as on real hardware).
    cow_dirty: BTreeSet<u64>,
}

/// Base of the mmap allocation area.
const MMAP_BASE: u64 = 0x4000_0000;

impl AddressSpace {
    /// An empty address space.
    pub fn new() -> AddressSpace {
        AddressSpace {
            maps: Vec::new(),
            next_free: MMAP_BASE,
            cow_pending: BTreeMap::new(),
            cow_dirty: BTreeSet::new(),
        }
    }

    /// Maps `len` bytes at a kernel-chosen address.
    ///
    /// # Errors
    ///
    /// Returns `ENOMEM` if `len` is zero (nothing to map) or if the
    /// page-rounded mapping and its guard page do not fit below the top
    /// of the address space.
    pub fn map(
        &mut self,
        len: u64,
        prot: Prot,
        kind: MappingKind,
        name: impl Into<Arc<str>>,
    ) -> Result<u64, Errno> {
        if len == 0 {
            return Err(Errno::ENOMEM);
        }
        let len = len
            .div_ceil(PAGE_SIZE)
            .checked_mul(PAGE_SIZE)
            .ok_or(Errno::ENOMEM)?;
        let start = self.next_free;
        self.next_free = start
            .checked_add(len)
            .and_then(|end| end.checked_add(PAGE_SIZE)) // guard page
            .ok_or(Errno::ENOMEM)?;
        // Past every mapping: `next_free` only grows.
        self.maps.push(Mapping {
            start,
            len,
            prot,
            kind,
            name: name.into(),
        });
        Ok(start)
    }

    /// Maps at a caller-fixed address (used by binary loaders).
    ///
    /// # Errors
    ///
    /// Returns `EINVAL` on overlap with an existing mapping or an
    /// unaligned address.
    pub fn map_fixed(
        &mut self,
        start: u64,
        len: u64,
        prot: Prot,
        kind: MappingKind,
        name: impl Into<Arc<str>>,
    ) -> Result<(), Errno> {
        if !start.is_multiple_of(PAGE_SIZE) || len == 0 {
            return Err(Errno::EINVAL);
        }
        let len = len.div_ceil(PAGE_SIZE) * PAGE_SIZE;
        let end = start + len;
        // The mappings that start below `end`; only the last can reach
        // past `start`.
        let at = self.maps.partition_point(|m| m.start < end);
        if at > 0 && self.maps[at - 1].end() > start {
            return Err(Errno::EINVAL);
        }
        self.maps.insert(
            at,
            Mapping {
                start,
                len,
                prot,
                kind,
                name: name.into(),
            },
        );
        self.next_free = self.next_free.max(end + PAGE_SIZE);
        Ok(())
    }

    /// Unmaps the mapping starting exactly at `start`.
    ///
    /// # Errors
    ///
    /// Returns `EINVAL` if no mapping starts there.
    pub fn unmap(&mut self, start: u64) -> Result<Mapping, Errno> {
        let at = self
            .maps
            .binary_search_by_key(&start, |m| m.start)
            .map_err(|_| Errno::EINVAL)?;
        let m = self.maps.remove(at);
        self.cow_pending.remove(&start);
        let gone: Vec<u64> =
            self.cow_dirty.range(start..m.end()).copied().collect();
        for page in gone {
            self.cow_dirty.remove(&page);
        }
        Ok(m)
    }

    /// Iterates over all mappings in address order.
    pub fn iter(&self) -> impl Iterator<Item = &Mapping> {
        self.maps.iter()
    }

    /// Looks up the mapping containing `addr`.
    pub fn find(&self, addr: u64) -> Option<&Mapping> {
        let at = self.maps.partition_point(|m| m.start <= addr);
        self.maps[..at].last().filter(|m| addr < m.end())
    }

    /// Number of mappings.
    pub fn mapping_count(&self) -> usize {
        self.maps.len()
    }

    /// Total page-table entries across all mappings — the unit `fork`
    /// duplication cost scales with.
    ///
    /// Shared-cache mappings are excluded: XNU "treats the shared cache
    /// in a special way" (paper §6.2) — the shared region lives outside
    /// the per-process page tables, so `fork` on a real iOS device does
    /// not duplicate its entries. The Cider prototype has no shared
    /// cache, so its iOS processes pay for every dylib page.
    pub fn total_ptes(&self) -> u64 {
        self.maps
            .iter()
            .filter(|m| m.kind != MappingKind::SharedCache)
            .map(Mapping::pte_count)
            .sum()
    }

    /// Total mapped bytes.
    pub fn total_bytes(&self) -> u64 {
        self.maps.iter().map(|m| m.len).sum()
    }

    /// Duplicates the address space for `fork`, visiting every PTE.
    /// Returns the new space and the number of PTEs copied (the caller
    /// charges `pte_copy_ns` per entry).
    pub fn fork_duplicate(&self) -> (AddressSpace, u64) {
        let ptes = self.total_ptes();
        let mut child = self.clone();
        // An eager fork copies everything up front, so the child starts
        // with no outstanding CoW debt even if the parent carried some.
        child.cow_pending.clear();
        child.cow_dirty.clear();
        (child, ptes)
    }

    /// Duplicates the address space for a copy-on-write `fork`: no PTE
    /// is copied now; instead every mapping's PTE count is recorded as
    /// debt the child pays page by page on first write. Returns the
    /// child space and the number of PTEs whose copy was deferred.
    ///
    /// Shared-cache mappings are excluded exactly as in
    /// [`AddressSpace::total_ptes`] — their entries were never going to
    /// be duplicated in the first place.
    pub fn fork_duplicate_cow(&self) -> (AddressSpace, u64) {
        let mut child = self.clone();
        child.cow_pending.clear();
        child.cow_dirty.clear();
        let mut deferred = 0;
        for m in &self.maps {
            if m.kind == MappingKind::SharedCache {
                continue;
            }
            let ptes = m.pte_count();
            child.cow_pending.insert(m.start, ptes);
            deferred += ptes;
        }
        (child, deferred)
    }

    /// Records a user-level store to `addr`. If the containing page is
    /// CoW-pending, it is materialized: the debt for its mapping drops
    /// by one and the page joins the dirty set. Returns the number of
    /// PTEs materialized by this write (0 or 1) — the caller charges
    /// `pte_copy_ns` per entry, which is how deferred fork cost lands
    /// on the faulting thread.
    ///
    /// # Errors
    ///
    /// Returns `EFAULT` when `addr` is not mapped.
    pub fn page_write(&mut self, addr: u64) -> Result<u64, Errno> {
        let m = self.find(addr).ok_or(Errno::EFAULT)?;
        let (start, page) = (m.start, addr - addr % PAGE_SIZE);
        if self.cow_dirty.contains(&page) {
            return Ok(0);
        }
        match self.cow_pending.get_mut(&start) {
            Some(pending) if *pending > 0 => {
                *pending -= 1;
                if *pending == 0 {
                    self.cow_pending.remove(&start);
                }
                self.cow_dirty.insert(page);
                Ok(1)
            }
            _ => Ok(0),
        }
    }

    /// Outstanding CoW debt: PTEs deferred at fork time and not yet
    /// paid for by a first write (never charged if `exec`/`exit` drops
    /// the space first — that is the warm-start win).
    pub fn cow_pending_ptes(&self) -> u64 {
        self.cow_pending.values().sum()
    }

    /// Pages materialized by first writes since the CoW fork.
    pub fn cow_dirty_pages(&self) -> u64 {
        self.cow_dirty.len() as u64
    }

    /// Drops everything, as `exec` does before loading the new image.
    /// Outstanding CoW debt vanishes unpaid.
    pub fn clear(&mut self) {
        self.maps.clear();
        self.next_free = MMAP_BASE;
        self.cow_pending.clear();
        self.cow_dirty.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_rounds_to_pages_and_counts_ptes() {
        let mut a = AddressSpace::new();
        let start = a
            .map(5000, Prot::RW, MappingKind::Anonymous, "[heap]")
            .unwrap();
        let m = a.find(start).unwrap();
        assert_eq!(m.len, 2 * PAGE_SIZE);
        assert_eq!(m.pte_count(), 2);
        assert_eq!(a.total_ptes(), 2);
    }

    #[test]
    fn map_zero_fails() {
        let mut a = AddressSpace::new();
        assert_eq!(
            a.map(0, Prot::RW, MappingKind::Anonymous, "x"),
            Err(Errno::ENOMEM)
        );
    }

    #[test]
    fn map_past_the_top_of_the_address_space_fails() {
        let mut a = AddressSpace::new();
        // Page rounding of a length near u64::MAX overflows.
        assert_eq!(
            a.map(u64::MAX, Prot::RW, MappingKind::Anonymous, "x"),
            Err(Errno::ENOMEM)
        );
        // A length that rounds but no longer fits above `next_free`.
        assert_eq!(
            a.map(u64::MAX - PAGE_SIZE, Prot::RW, MappingKind::Anonymous, "x"),
            Err(Errno::ENOMEM)
        );
        // Failed maps change nothing; the next one lands where it would.
        let start = a.map(1, Prot::RW, MappingKind::Anonymous, "y").unwrap();
        assert_eq!(start, AddressSpace::new().next_free);
        assert_eq!(a.total_ptes(), 1);
    }

    #[test]
    fn fixed_mapping_rejects_overlap() {
        let mut a = AddressSpace::new();
        a.map_fixed(0x1000, 0x2000, Prot::RX, MappingKind::Binary, "bin")
            .unwrap();
        assert_eq!(
            a.map_fixed(0x2000, 0x1000, Prot::RW, MappingKind::Binary, "d"),
            Err(Errno::EINVAL)
        );
        // Adjacent is fine.
        a.map_fixed(0x3000, 0x1000, Prot::RW, MappingKind::Binary, "d")
            .unwrap();
    }

    #[test]
    fn fixed_mapping_rejects_unaligned() {
        let mut a = AddressSpace::new();
        assert_eq!(
            a.map_fixed(0x1001, 0x1000, Prot::RW, MappingKind::Binary, "b"),
            Err(Errno::EINVAL)
        );
    }

    #[test]
    fn find_resolves_addresses() {
        let mut a = AddressSpace::new();
        let s = a
            .map(PAGE_SIZE, Prot::R, MappingKind::Dylib, "libfoo")
            .unwrap();
        assert!(a.find(s).is_some());
        assert!(a.find(s + PAGE_SIZE - 1).is_some());
        assert!(a.find(s + PAGE_SIZE).is_none());
    }

    #[test]
    fn fork_duplicate_reports_pte_work() {
        let mut a = AddressSpace::new();
        // 90 MB of dylibs, as dyld maps for an iOS process.
        a.map(90 * 1024 * 1024, Prot::RX, MappingKind::Dylib, "frameworks")
            .unwrap();
        let (b, ptes) = a.fork_duplicate();
        assert_eq!(ptes, 90 * 1024 * 1024 / PAGE_SIZE);
        assert_eq!(b.total_ptes(), a.total_ptes());
    }

    #[test]
    fn unmap_and_clear() {
        let mut a = AddressSpace::new();
        let s = a
            .map(PAGE_SIZE, Prot::RW, MappingKind::Anonymous, "x")
            .unwrap();
        assert!(a.unmap(s).is_ok());
        assert_eq!(a.unmap(s), Err(Errno::EINVAL));
        a.map(PAGE_SIZE, Prot::RW, MappingKind::Anonymous, "y")
            .unwrap();
        a.clear();
        assert_eq!(a.mapping_count(), 0);
    }

    #[test]
    fn prot_display() {
        assert_eq!(Prot::RX.to_string(), "r-x");
        assert_eq!(Prot::RW.to_string(), "rw-");
    }

    #[test]
    fn cow_fork_defers_all_ptes_and_pays_per_first_write() {
        let mut a = AddressSpace::new();
        let s = a
            .map(4 * PAGE_SIZE, Prot::RW, MappingKind::Anonymous, "[heap]")
            .unwrap();
        let (mut child, deferred) = a.fork_duplicate_cow();
        assert_eq!(deferred, 4);
        assert_eq!(child.cow_pending_ptes(), 4);
        // First write to a page costs one PTE, the second is free.
        assert_eq!(child.page_write(s).unwrap(), 1);
        assert_eq!(child.page_write(s + 1).unwrap(), 0);
        assert_eq!(child.page_write(s + PAGE_SIZE).unwrap(), 1);
        assert_eq!(child.cow_pending_ptes(), 2);
        assert_eq!(child.cow_dirty_pages(), 2);
        // The parent carries no debt and pays nothing on writes.
        assert_eq!(a.cow_pending_ptes(), 0);
        assert_eq!(a.page_write(s).unwrap(), 0);
    }

    #[test]
    fn cow_fork_excludes_shared_cache_like_eager_fork() {
        let mut a = AddressSpace::new();
        a.map(8 * PAGE_SIZE, Prot::RX, MappingKind::SharedCache, "cache")
            .unwrap();
        a.map(2 * PAGE_SIZE, Prot::RW, MappingKind::Anonymous, "[heap]")
            .unwrap();
        let (child, deferred) = a.fork_duplicate_cow();
        assert_eq!(deferred, a.total_ptes());
        assert_eq!(deferred, 2);
        assert_eq!(child.cow_pending_ptes(), 2);
    }

    #[test]
    fn cow_debt_matches_eager_cost_and_dies_with_the_space() {
        let mut a = AddressSpace::new();
        let s = a
            .map(6 * PAGE_SIZE, Prot::RW, MappingKind::Anonymous, "x")
            .unwrap();
        let (_, eager) = a.fork_duplicate();
        let (mut child, deferred) = a.fork_duplicate_cow();
        assert_eq!(eager, deferred);
        child.page_write(s).unwrap();
        // pending + dirty always accounts for every deferred PTE.
        assert_eq!(child.cow_pending_ptes() + child.cow_dirty_pages(), 6);
        child.clear();
        assert_eq!(child.cow_pending_ptes(), 0);
        assert_eq!(child.cow_dirty_pages(), 0);
    }

    #[test]
    fn page_write_faults_on_unmapped_and_unmap_drops_debt() {
        let mut a = AddressSpace::new();
        assert_eq!(a.page_write(0x1234), Err(Errno::EFAULT));
        let s = a
            .map(2 * PAGE_SIZE, Prot::RW, MappingKind::Anonymous, "x")
            .unwrap();
        let (mut child, _) = a.fork_duplicate_cow();
        child.page_write(s).unwrap();
        child.unmap(s).unwrap();
        assert_eq!(child.cow_pending_ptes(), 0);
        assert_eq!(child.cow_dirty_pages(), 0);
    }

    #[test]
    fn eager_fork_of_a_cow_child_clears_inherited_debt() {
        let mut a = AddressSpace::new();
        a.map(3 * PAGE_SIZE, Prot::RW, MappingKind::Anonymous, "x")
            .unwrap();
        let (child, _) = a.fork_duplicate_cow();
        let (grandchild, ptes) = child.fork_duplicate();
        assert_eq!(ptes, 3);
        assert_eq!(grandchild.cow_pending_ptes(), 0);
    }
}
