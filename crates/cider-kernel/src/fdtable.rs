//! Per-process file-descriptor tables.

use std::collections::{BTreeMap, BTreeSet};

use cider_abi::errno::Errno;
use cider_abi::ids::Fd;

use crate::ipcobj::{PipeEnd, SocketEnd};
use crate::vfs::{DeviceId, Ino};

/// What an open descriptor refers to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FileObject {
    /// A VFS regular file with a seek offset.
    File {
        /// Backing inode.
        ino: Ino,
        /// Current seek offset.
        offset: u64,
        /// Opened writable.
        writable: bool,
        /// Opened readable.
        readable: bool,
    },
    /// One end of a pipe.
    Pipe(PipeEnd),
    /// One end of a connected UNIX-domain socket pair.
    Socket(SocketEnd),
    /// A character device.
    Device(DeviceId),
    /// The console (stdout/stderr sink).
    Console,
}

/// A process's descriptor table.
#[derive(Debug, Clone, Default)]
pub struct FdTable {
    entries: BTreeMap<i32, FileObject>,
    cloexec: BTreeSet<i32>,
    next: i32,
}

impl FdTable {
    /// An empty table.
    pub fn new() -> FdTable {
        FdTable {
            entries: BTreeMap::new(),
            cloexec: BTreeSet::new(),
            next: 0,
        }
    }

    /// A table pre-populated with stdin/stdout/stderr console entries.
    pub fn with_stdio() -> FdTable {
        let mut t = FdTable::new();
        for _ in 0..3 {
            t.insert(FileObject::Console);
        }
        t
    }

    /// Inserts an object at the lowest free descriptor.
    pub fn insert(&mut self, obj: FileObject) -> Fd {
        let mut fd = 0;
        while self.entries.contains_key(&fd) {
            fd += 1;
        }
        self.entries.insert(fd, obj);
        self.cloexec.remove(&fd);
        self.next = self.next.max(fd + 1);
        Fd(fd)
    }

    /// Looks up a descriptor.
    ///
    /// # Errors
    ///
    /// `EBADF` if the descriptor is not open.
    pub fn get(&self, fd: Fd) -> Result<&FileObject, Errno> {
        self.entries.get(&fd.0).ok_or(Errno::EBADF)
    }

    /// Mutable lookup.
    ///
    /// # Errors
    ///
    /// `EBADF` if the descriptor is not open.
    pub fn get_mut(&mut self, fd: Fd) -> Result<&mut FileObject, Errno> {
        self.entries.get_mut(&fd.0).ok_or(Errno::EBADF)
    }

    /// Closes a descriptor, returning the object for teardown.
    ///
    /// # Errors
    ///
    /// `EBADF` if the descriptor is not open.
    pub fn remove(&mut self, fd: Fd) -> Result<FileObject, Errno> {
        let obj = self.entries.remove(&fd.0).ok_or(Errno::EBADF)?;
        self.cloexec.remove(&fd.0);
        Ok(obj)
    }

    /// Duplicates `old` to the lowest free descriptor (`dup`).
    ///
    /// # Errors
    ///
    /// `EBADF` if `old` is not open.
    pub fn dup(&mut self, old: Fd) -> Result<Fd, Errno> {
        let obj = self.get(old)?.clone();
        Ok(self.insert(obj))
    }

    /// Duplicates `old` onto `new` (`dup2`), closing `new` first if open.
    ///
    /// # Errors
    ///
    /// `EBADF` if `old` is not open or `new` is negative.
    pub fn dup2(&mut self, old: Fd, new: Fd) -> Result<Fd, Errno> {
        if new.0 < 0 {
            return Err(Errno::EBADF);
        }
        let obj = self.get(old)?.clone();
        self.entries.insert(new.0, obj);
        // POSIX: the duplicate never inherits FD_CLOEXEC.
        self.cloexec.remove(&new.0);
        Ok(new)
    }

    /// Sets or clears the close-on-exec flag (`FD_CLOEXEC`).
    ///
    /// # Errors
    ///
    /// `EBADF` if the descriptor is not open.
    pub fn set_cloexec(&mut self, fd: Fd, on: bool) -> Result<(), Errno> {
        if !self.entries.contains_key(&fd.0) {
            return Err(Errno::EBADF);
        }
        if on {
            self.cloexec.insert(fd.0);
        } else {
            self.cloexec.remove(&fd.0);
        }
        Ok(())
    }

    /// Reads the close-on-exec flag.
    ///
    /// # Errors
    ///
    /// `EBADF` if the descriptor is not open.
    pub fn cloexec(&self, fd: Fd) -> Result<bool, Errno> {
        if !self.entries.contains_key(&fd.0) {
            return Err(Errno::EBADF);
        }
        Ok(self.cloexec.contains(&fd.0))
    }

    /// Closes every descriptor marked close-on-exec, returning the
    /// `(fd, object)` pairs so the caller can tear the objects down.
    /// Called by `execve` after the new image is committed.
    pub fn close_on_exec(&mut self) -> Vec<(Fd, FileObject)> {
        let doomed: Vec<i32> = self.cloexec.iter().copied().collect();
        let mut closed = Vec::with_capacity(doomed.len());
        for fd in doomed {
            if let Some(obj) = self.entries.remove(&fd) {
                closed.push((Fd(fd), obj));
            }
        }
        self.cloexec.clear();
        closed
    }

    /// Number of open descriptors.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no descriptors are open.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over `(fd, object)` pairs in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = (Fd, &FileObject)> + Clone {
        self.entries.iter().map(|(&fd, obj)| (Fd(fd), obj))
    }

    /// Clones the table for `fork`; the caller charges per-entry cost.
    pub fn fork_clone(&self) -> (FdTable, usize) {
        (self.clone(), self.entries.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_uses_lowest_free() {
        let mut t = FdTable::with_stdio();
        let fd = t.insert(FileObject::Console);
        assert_eq!(fd, Fd(3));
        t.remove(Fd(1)).unwrap();
        let fd = t.insert(FileObject::Console);
        assert_eq!(fd, Fd(1));
    }

    #[test]
    fn get_and_remove_errors() {
        let mut t = FdTable::new();
        assert_eq!(t.get(Fd(0)).unwrap_err(), Errno::EBADF);
        assert_eq!(t.remove(Fd(5)).unwrap_err(), Errno::EBADF);
    }

    #[test]
    fn dup_and_dup2() {
        let mut t = FdTable::with_stdio();
        let d = t.dup(Fd(0)).unwrap();
        assert_eq!(d, Fd(3));
        t.dup2(Fd(0), Fd(10)).unwrap();
        assert!(t.get(Fd(10)).is_ok());
        assert_eq!(t.dup2(Fd(99), Fd(1)).unwrap_err(), Errno::EBADF);
        assert_eq!(t.dup2(Fd(0), Fd(-1)).unwrap_err(), Errno::EBADF);
    }

    #[test]
    fn fork_clone_counts_entries() {
        let t = FdTable::with_stdio();
        let (clone, n) = t.fork_clone();
        assert_eq!(n, 3);
        assert_eq!(clone.len(), 3);
    }

    #[test]
    fn lowest_free_slot_skips_holes_in_order() {
        let mut t = FdTable::with_stdio();
        let a = t.insert(FileObject::Console); // 3
        let b = t.insert(FileObject::Console); // 4
        assert_eq!((a, b), (Fd(3), Fd(4)));
        t.remove(Fd(0)).unwrap();
        t.remove(Fd(3)).unwrap();
        // Lowest hole first, then the next hole, then the frontier.
        assert_eq!(t.insert(FileObject::Console), Fd(0));
        assert_eq!(t.insert(FileObject::Console), Fd(3));
        assert_eq!(t.insert(FileObject::Console), Fd(5));
    }

    #[test]
    fn cloexec_set_read_and_errors() {
        let mut t = FdTable::with_stdio();
        assert_eq!(t.cloexec(Fd(1)), Ok(false));
        t.set_cloexec(Fd(1), true).unwrap();
        assert_eq!(t.cloexec(Fd(1)), Ok(true));
        t.set_cloexec(Fd(1), false).unwrap();
        assert_eq!(t.cloexec(Fd(1)), Ok(false));
        assert_eq!(t.set_cloexec(Fd(9), true), Err(Errno::EBADF));
        assert_eq!(t.cloexec(Fd(9)), Err(Errno::EBADF));
    }

    #[test]
    fn dup_clears_cloexec_on_duplicate() {
        let mut t = FdTable::with_stdio();
        t.set_cloexec(Fd(0), true).unwrap();
        let d = t.dup(Fd(0)).unwrap();
        assert_eq!(t.cloexec(d), Ok(false), "dup duplicate starts clear");
        assert_eq!(t.cloexec(Fd(0)), Ok(true), "original keeps its flag");
        t.set_cloexec(Fd(2), true).unwrap();
        t.dup2(Fd(0), Fd(2)).unwrap();
        assert_eq!(t.cloexec(Fd(2)), Ok(false), "dup2 target starts clear");
    }

    #[test]
    fn close_on_exec_sweeps_only_flagged_fds() {
        let mut t = FdTable::with_stdio();
        let a = t.insert(FileObject::Console); // 3
        let b = t.insert(FileObject::Console); // 4
        t.set_cloexec(a, true).unwrap();
        t.set_cloexec(b, true).unwrap();
        t.set_cloexec(Fd(1), true).unwrap();
        let closed: Vec<Fd> =
            t.close_on_exec().into_iter().map(|(fd, _)| fd).collect();
        assert_eq!(closed, vec![Fd(1), a, b]);
        assert_eq!(t.len(), 2);
        assert!(t.get(Fd(0)).is_ok() && t.get(Fd(2)).is_ok());
        // Second sweep is a no-op.
        assert!(t.close_on_exec().is_empty());
    }

    #[test]
    fn reused_slot_does_not_inherit_stale_cloexec() {
        let mut t = FdTable::with_stdio();
        t.set_cloexec(Fd(1), true).unwrap();
        t.remove(Fd(1)).unwrap();
        let fd = t.insert(FileObject::Console);
        assert_eq!(fd, Fd(1));
        assert_eq!(t.cloexec(fd), Ok(false));
    }

    #[test]
    fn fork_clone_preserves_cloexec_flags() {
        let mut t = FdTable::with_stdio();
        t.set_cloexec(Fd(2), true).unwrap();
        let (clone, _) = t.fork_clone();
        assert_eq!(clone.cloexec(Fd(2)), Ok(true));
        assert_eq!(clone.cloexec(Fd(0)), Ok(false));
    }
}
