//! In-memory virtual filesystem with overlay support.
//!
//! Cider "overlays a file system hierarchy on the existing Android FS"
//! (paper §3) so that iOS apps see familiar paths such as `/Documents` and
//! `/System/Library` while Android apps keep seeing the stock tree. The
//! [`Vfs`] models this with a *lower* (domestic) tree and an optional
//! *upper* (foreign overlay) tree sharing one node arena: resolution
//! prefers the upper tree and falls back to the lower one.
//!
//! Path resolution reports how many components were walked so the kernel
//! can charge virtual time per component — the cost that makes dyld's
//! 115-library filesystem walk expensive in the paper's `fork+exec(ios)`
//! measurement.
//!
//! The arena is a dense table indexed by inode number: every path step
//! looks up two nodes, so a lookup is one bounds-checked index rather
//! than a tree search. Numbers are handed out in sequence and never
//! reused, because they are observable (`Stat::ino`, the checkpoint's
//! `kernel/vfs` records) and a reused number would let a descriptor
//! opened before an unlink reach an unrelated file instead of failing
//! with `EIO`. A removed node therefore leaves an empty slot. Holes
//! come only from [`Vfs::unlink`] (of a file or an empty directory) and
//! from [`Vfs::write_file_overlay`] over an existing file, which
//! allocates a node and drops it again; a device running the lmbench,
//! IPC or launch workloads has none, an app lifecycle cycle leaves
//! about five.

use std::cell::Cell;
use std::cmp::Ordering;
use std::collections::BTreeMap;

use cider_abi::errno::Errno;
use cider_abi::types::{FileType, Stat};
use cider_fault::fnv1a;

/// Inode number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ino(pub u64);

/// Identifier of a registered character device, resolved through the
/// kernel's device registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DeviceId(pub u32);

#[derive(Debug, Clone)]
enum NodeKind {
    Dir(BTreeMap<String, Ino>),
    File(FileData),
    Symlink(String),
    Device(DeviceId),
}

/// A regular file's contents and their FNV-1a digest, computed on first
/// use and kept until the contents change. The cache is plain
/// per-device data: a fork copies it, and the only way to change the
/// contents, [`FileData::bytes_mut`], forgets it.
#[derive(Debug, Clone, Default)]
struct FileData {
    bytes: Vec<u8>,
    digest: Cell<Option<u64>>,
}

impl FileData {
    fn new(bytes: Vec<u8>) -> FileData {
        FileData {
            bytes,
            digest: Cell::new(None),
        }
    }

    fn digest(&self) -> u64 {
        let digest = self.digest.get().unwrap_or_else(|| fnv1a(&self.bytes));
        self.digest.set(Some(digest));
        digest
    }

    fn bytes_mut(&mut self) -> &mut Vec<u8> {
        *self.digest.get_mut() = None;
        &mut self.bytes
    }
}

#[derive(Debug, Clone)]
struct Node {
    kind: NodeKind,
    mode: u32,
    nlink: u32,
    mtime_ns: u64,
}

/// Result of a path resolution: the inode plus the accounting the kernel
/// needs to charge virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Resolved {
    /// The resolved inode.
    pub ino: Ino,
    /// Path components traversed, including fallback walks.
    pub components_walked: usize,
    /// Whether the final hit was in the overlay (upper) tree.
    pub in_overlay: bool,
}

/// Which tree a path resolved (or would resolve) in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tree {
    Upper,
    Lower,
}

/// Maximum symlink expansions before `ELOOP`.
const MAX_SYMLINK_DEPTH: usize = 8;

/// Levels below its root past which [`Vfs::walk`] does not descend. A
/// symlink may name one of its own ancestors, which makes the union
/// tree infinite; the cap keeps every walk finite.
pub const MAX_WALK_DEPTH: usize = 32;

/// One tree's side of a [`Vfs::walk`]: the resolution stack of the
/// path being visited, and whether that path resolves in this tree.
struct Track {
    root: Ino,
    stack: Vec<Ino>,
    live: bool,
}

/// What [`Track::enter`] changed, for [`Track::leave`] to undo.
struct Mark {
    len: usize,
    live: bool,
}

impl Track {
    /// The inode the visited path resolves to in this tree.
    fn ino(&self) -> Option<Ino> {
        self.live.then(|| Vfs::top(self.root, &self.stack))
    }

    /// The entries of the visited path if it is a directory here.
    fn entries<'v>(&self, fs: &'v Vfs) -> Option<&'v BTreeMap<String, Ino>> {
        match &fs.node(self.ino()?).kind {
            NodeKind::Dir(entries) => Some(entries),
            _ => None,
        }
    }

    /// Steps from the visited path into its child `name`; a path that
    /// fails to resolve leaves the track dead for its whole subtree.
    fn enter(&mut self, fs: &Vfs, name: &str) -> Mark {
        let mark = Mark {
            len: self.stack.len(),
            live: self.live,
        };
        if self.live {
            self.live = fs
                .step(self.root, &mut self.stack, 0, name, &mut 0, 0)
                .is_ok();
        }
        mark
    }

    /// Steps back out to the parent. No entry is named `..` (every
    /// creating call rejects it), so stepping into a child can only
    /// have pushed onto the stack.
    fn leave(&mut self, mark: Mark) {
        self.live = mark.live;
        self.stack.truncate(mark.len);
    }
}

/// Merges two sorted name streams into their sorted union in one pass.
fn union<'a>(
    a: impl Iterator<Item = &'a String>,
    b: impl Iterator<Item = &'a String>,
) -> impl Iterator<Item = &'a str> {
    let (mut a, mut b) = (a.peekable(), b.peekable());
    std::iter::from_fn(move || {
        let next = match (a.peek(), b.peek()) {
            (Some(x), Some(y)) => match x.cmp(y) {
                Ordering::Less => a.next(),
                Ordering::Equal => {
                    b.next();
                    a.next()
                }
                Ordering::Greater => b.next(),
            },
            _ => a.next().or_else(|| b.next()),
        };
        next.map(String::as_str)
    })
}

/// An in-memory filesystem with a domestic tree and an optional foreign
/// overlay tree.
///
/// # Example
///
/// ```
/// use cider_kernel::vfs::Vfs;
///
/// let mut fs = Vfs::new();
/// fs.mkdir_p("/data/app").unwrap();
/// fs.write_file("/data/app/readme", b"hi".to_vec()).unwrap();
/// assert_eq!(fs.read_file("/data/app/readme").unwrap(), b"hi");
/// ```
#[derive(Debug, Clone)]
pub struct Vfs {
    /// Nodes indexed by inode number; `None` marks a removed node (and
    /// slot 0, which numbers no inode). The next number is the length.
    nodes: Vec<Option<Node>>,
    root_lower: Ino,
    root_upper: Option<Ino>,
    now_ns: u64,
}

impl Default for Vfs {
    fn default() -> Self {
        Self::new()
    }
}

impl Vfs {
    /// Creates an empty filesystem with a lower root directory.
    pub fn new() -> Vfs {
        let mut fs = Vfs {
            nodes: vec![None],
            root_lower: Ino(0),
            root_upper: None,
            now_ns: 0,
        };
        fs.root_lower = fs.alloc(NodeKind::Dir(BTreeMap::new()), 0o755);
        fs
    }

    /// Installs an (initially empty) overlay tree; foreign paths are
    /// created in and resolved from it first. Idempotent.
    pub fn enable_overlay(&mut self) {
        if self.root_upper.is_none() {
            let r = self.alloc(NodeKind::Dir(BTreeMap::new()), 0o755);
            self.root_upper = Some(r);
        }
    }

    /// Sets the timestamp recorded on subsequently modified nodes.
    pub fn set_time(&mut self, now_ns: u64) {
        self.now_ns = now_ns;
    }

    fn alloc(&mut self, kind: NodeKind, mode: u32) -> Ino {
        let ino = Ino(self.nodes.len() as u64);
        self.nodes.push(Some(Node {
            kind,
            mode,
            nlink: 1,
            mtime_ns: self.now_ns,
        }));
        ino
    }

    /// Drops a node, leaving its number unused for good.
    fn free(&mut self, ino: Ino) {
        if let Some(slot) = self.slot_mut(ino) {
            *slot = None;
        }
    }

    /// The table slot of `ino`, or `None` past the end of the table
    /// (including numbers that do not fit a `usize`).
    fn slot(&self, ino: Ino) -> Option<&Option<Node>> {
        self.nodes.get(usize::try_from(ino.0).ok()?)
    }

    fn slot_mut(&mut self, ino: Ino) -> Option<&mut Option<Node>> {
        self.nodes.get_mut(usize::try_from(ino.0).ok()?)
    }

    /// Infallible lookup for inodes that were just produced by a tree
    /// walk (they cannot dangle while the walk's borrow is fresh).
    fn node(&self, ino: Ino) -> &Node {
        self.try_node(ino).expect("dangling inode")
    }

    fn node_mut(&mut self, ino: Ino) -> &mut Node {
        self.try_node_mut(ino).expect("dangling inode")
    }

    /// Fallible lookup for inodes held across calls (descriptor
    /// tables): the file may have been unlinked since, which surfaces
    /// as `EIO` instead of a panic — stale-handle semantics.
    fn try_node(&self, ino: Ino) -> Result<&Node, Errno> {
        self.slot(ino).and_then(Option::as_ref).ok_or(Errno::EIO)
    }

    fn try_node_mut(&mut self, ino: Ino) -> Result<&mut Node, Errno> {
        self.slot_mut(ino)
            .and_then(Option::as_mut)
            .ok_or(Errno::EIO)
    }

    /// The components of an absolute path, with empty and `.`
    /// components dropped.
    fn components(
        path: &str,
    ) -> Result<impl Iterator<Item = &str> + Clone, Errno> {
        if !path.starts_with('/') {
            return Err(Errno::EINVAL);
        }
        Ok(path.split('/').filter(|c| !c.is_empty() && *c != "."))
    }

    /// The node a resolution stack stands on: its top, or the tree
    /// root while the stack is empty.
    fn top(root: Ino, stack: &[Ino]) -> Ino {
        stack.last().copied().unwrap_or(root)
    }

    /// Advances a resolution stack in the tree rooted at `root` by one
    /// path component. The walk in progress owns `stack[base..]`, and
    /// the node it stands on is their top, or the tree root while they
    /// are empty. `..` pops (never below `base`); a name descends into
    /// the current directory, and a symlink found there is replaced by
    /// its target, resolved from the same root with `depth + 1`
    /// expansions on the stack above the walk's entries. On error the
    /// stack is unchanged.
    fn step(
        &self,
        root: Ino,
        stack: &mut Vec<Ino>,
        base: usize,
        comp: &str,
        walked: &mut usize,
        depth: usize,
    ) -> Result<(), Errno> {
        *walked += 1;
        if comp == ".." {
            if stack.len() > base {
                stack.pop();
            }
            return Ok(());
        }
        let NodeKind::Dir(entries) =
            &self.node(Self::top(root, &stack[base..])).kind
        else {
            return Err(Errno::ENOTDIR);
        };
        let mut next = *entries.get(comp).ok_or(Errno::ENOENT)?;
        if let NodeKind::Symlink(target) = &self.node(next).kind {
            let target = Self::components(target)?;
            next = self.walk_tree(root, target, walked, depth + 1, stack)?;
        }
        stack.push(next);
        Ok(())
    }

    /// Resolves `comps` in one tree: a fold of [`Vfs::step`] from the
    /// root. `depth` counts the symlink expansions that led here. The
    /// walk runs on `stack` above the entries already on it and leaves
    /// them as it found them, so a caller that resolves in a loop (or
    /// a symlink expanded mid-walk) reuses one buffer.
    fn walk_tree<'p>(
        &self,
        root: Ino,
        comps: impl IntoIterator<Item = &'p str>,
        walked: &mut usize,
        depth: usize,
        stack: &mut Vec<Ino>,
    ) -> Result<Ino, Errno> {
        if depth > MAX_SYMLINK_DEPTH {
            return Err(Errno::ELOOP);
        }
        let base = stack.len();
        let walk = comps.into_iter().try_for_each(|comp| {
            self.step(root, stack, base, comp, walked, depth)
        });
        let ino = Self::top(root, &stack[base..]);
        stack.truncate(base);
        walk.map(|()| ino)
    }

    /// Resolves an absolute path, preferring the overlay.
    ///
    /// # Errors
    ///
    /// `ENOENT` if the path exists in neither tree, `ENOTDIR` when a
    /// non-directory appears mid-path, `ELOOP` on symlink cycles,
    /// `EINVAL` for relative paths.
    pub fn resolve(&self, path: &str) -> Result<Resolved, Errno> {
        self.resolve_with(path, &mut Vec::new())
    }

    /// [`Vfs::resolve`] with `stack` lent as the walk's scratch space:
    /// a caller that resolves in a loop passes the same buffer to every
    /// call, and once it has grown no walk allocates. The walk leaves
    /// the buffer's contents as it found them.
    ///
    /// # Errors
    ///
    /// As [`Vfs::resolve`].
    pub fn resolve_with(
        &self,
        path: &str,
        stack: &mut Vec<Ino>,
    ) -> Result<Resolved, Errno> {
        let comps = Self::components(path)?;
        let mut walked = 0;
        if let Some(upper) = self.root_upper {
            if let Ok(ino) =
                self.walk_tree(upper, comps.clone(), &mut walked, 0, stack)
            {
                return Ok(Resolved {
                    ino,
                    components_walked: walked,
                    in_overlay: true,
                });
            }
        }
        let ino =
            self.walk_tree(self.root_lower, comps, &mut walked, 0, stack)?;
        Ok(Resolved {
            ino,
            components_walked: walked,
            in_overlay: false,
        })
    }

    /// Picks the tree a new entry under `parent_comps` should go to:
    /// upper if the parent resolves there, else lower.
    fn tree_for_create(&self, comps: &[&str]) -> Result<(Ino, Tree), Errno> {
        let comps = comps.iter().copied();
        let (mut walked, mut stack) = (0, Vec::new());
        if let Some(upper) = self.root_upper {
            if let Ok(parent) = self.walk_tree(
                upper,
                comps.clone(),
                &mut walked,
                0,
                &mut stack,
            ) {
                return Ok((parent, Tree::Upper));
            }
        }
        let parent = self.walk_tree(
            self.root_lower,
            comps,
            &mut walked,
            0,
            &mut stack,
        )?;
        Ok((parent, Tree::Lower))
    }

    /// Creates a directory and all missing ancestors (in the tree where
    /// the deepest existing ancestor lives).
    ///
    /// # Errors
    ///
    /// `ENOTDIR` if a path component is a file.
    pub fn mkdir_p(&mut self, path: &str) -> Result<Ino, Errno> {
        let comps = Self::components(path)?;
        let (mut cur, _) = self.tree_for_create(&[])?;
        for comp in comps {
            if comp == ".." {
                return Err(Errno::EINVAL);
            }
            let existing = match &self.node(cur).kind {
                NodeKind::Dir(entries) => entries.get(comp).copied(),
                _ => return Err(Errno::ENOTDIR),
            };
            cur = match existing {
                Some(ino) => {
                    if !matches!(self.node(ino).kind, NodeKind::Dir(_)) {
                        return Err(Errno::ENOTDIR);
                    }
                    ino
                }
                None => {
                    let d = self.alloc(NodeKind::Dir(BTreeMap::new()), 0o755);
                    self.link(cur, comp, d)?;
                    d
                }
            };
        }
        Ok(cur)
    }

    /// Creates a directory in the *overlay* tree (enabling it if needed),
    /// used to build the iOS hierarchy.
    ///
    /// # Errors
    ///
    /// `ENOTDIR` if a path component is a file; `EINVAL`, before any
    /// change, for a `..` component, which would otherwise become an
    /// entry's name.
    pub fn mkdir_p_overlay(&mut self, path: &str) -> Result<Ino, Errno> {
        let comps = Self::components(path)?;
        if comps.clone().any(|c| c == "..") {
            return Err(Errno::EINVAL);
        }
        self.enable_overlay();
        let mut cur = self.root_upper.expect("just enabled");
        for comp in comps {
            let existing = match &self.node(cur).kind {
                NodeKind::Dir(entries) => entries.get(comp).copied(),
                _ => return Err(Errno::ENOTDIR),
            };
            cur = match existing {
                Some(ino) => ino,
                None => {
                    let d = self.alloc(NodeKind::Dir(BTreeMap::new()), 0o755);
                    self.link(cur, comp, d)?;
                    d
                }
            };
        }
        Ok(cur)
    }

    fn link(&mut self, dir: Ino, name: &str, child: Ino) -> Result<(), Errno> {
        let now = self.now_ns;
        match &mut self.node_mut(dir).kind {
            NodeKind::Dir(entries) => {
                if entries.contains_key(name) {
                    return Err(Errno::EEXIST);
                }
                entries.insert(name.to_string(), child);
            }
            _ => return Err(Errno::ENOTDIR),
        }
        self.node_mut(dir).mtime_ns = now;
        Ok(())
    }

    /// Splits a path into its parent's components and the final
    /// name. `..` names no entry (it steps out of the parent), so it
    /// is `EINVAL` as a name, exactly as in [`Vfs::mkdir_p`].
    fn parent_and_name(path: &str) -> Result<(Vec<&str>, &str), Errno> {
        let mut parent: Vec<&str> = Self::components(path)?.collect();
        match parent.pop() {
            Some("..") | None => Err(Errno::EINVAL),
            Some(name) => Ok((parent, name)),
        }
    }

    /// Creates (or truncates) a regular file with the given contents.
    ///
    /// # Errors
    ///
    /// `ENOENT` if the parent directory does not exist; `EISDIR` if the
    /// path names a directory.
    pub fn write_file(
        &mut self,
        path: &str,
        data: Vec<u8>,
    ) -> Result<Ino, Errno> {
        let (parent_comps, name) = Self::parent_and_name(path)?;
        let (parent, _) = self.tree_for_create(&parent_comps)?;
        let existing = match &self.node(parent).kind {
            NodeKind::Dir(entries) => entries.get(name).copied(),
            _ => return Err(Errno::ENOTDIR),
        };
        match existing {
            Some(ino) => {
                let now = self.now_ns;
                let node = self.node_mut(ino);
                match &mut node.kind {
                    NodeKind::File(contents) => {
                        *contents = FileData::new(data);
                        node.mtime_ns = now;
                        Ok(ino)
                    }
                    NodeKind::Dir(_) => Err(Errno::EISDIR),
                    _ => Err(Errno::EINVAL),
                }
            }
            None => {
                let f = self.alloc(NodeKind::File(FileData::new(data)), 0o644);
                self.link(parent, name, f)?;
                Ok(f)
            }
        }
    }

    /// Creates a file in the overlay tree, building missing ancestors.
    pub fn write_file_overlay(
        &mut self,
        path: &str,
        data: Vec<u8>,
    ) -> Result<Ino, Errno> {
        let (parent_comps, name) = Self::parent_and_name(path)?;
        let parent_path = format!("/{}", parent_comps.join("/"));
        let parent = self.mkdir_p_overlay(&parent_path)?;
        let f = self.alloc(NodeKind::File(FileData::new(data)), 0o644);
        match self.link(parent, name, f) {
            Ok(()) => Ok(f),
            Err(Errno::EEXIST) => {
                // Overwrite.
                let now = self.now_ns;
                let entries = match &self.node(parent).kind {
                    NodeKind::Dir(e) => e.clone(),
                    _ => unreachable!(),
                };
                let ino = entries[name];
                let data = match &mut self.node_mut(f).kind {
                    NodeKind::File(d) => std::mem::take(d),
                    _ => unreachable!(),
                };
                self.free(f);
                let node = self.node_mut(ino);
                match &mut node.kind {
                    NodeKind::File(c) => {
                        *c = data;
                        node.mtime_ns = now;
                        Ok(ino)
                    }
                    _ => Err(Errno::EISDIR),
                }
            }
            Err(e) => Err(e),
        }
    }

    /// Reads a whole file.
    ///
    /// # Errors
    ///
    /// `ENOENT` if absent, `EISDIR` if the path is a directory.
    pub fn read_file(&self, path: &str) -> Result<Vec<u8>, Errno> {
        let r = self.resolve(path)?;
        self.file_bytes(r.ino).map(<[u8]>::to_vec)
    }

    /// The contents of an already-resolved file, in place: the one
    /// by-inode read every other read goes through.
    ///
    /// # Errors
    ///
    /// `EIO` if the inode dangles (unlinked since it was resolved, or
    /// never handed out), `EISDIR`/`EINVAL` for wrong node kinds.
    pub fn file_bytes(&self, ino: Ino) -> Result<&[u8], Errno> {
        match &self.try_node(ino)?.kind {
            NodeKind::File(data) => Ok(&data.bytes),
            NodeKind::Dir(_) => Err(Errno::EISDIR),
            _ => Err(Errno::EINVAL),
        }
    }

    /// The FNV-1a digest of an already-resolved file's contents, from
    /// the node's cache: hashed on the first call after each write.
    ///
    /// # Errors
    ///
    /// As [`Vfs::file_bytes`].
    pub fn file_digest(&self, ino: Ino) -> Result<u64, Errno> {
        match &self.try_node(ino)?.kind {
            NodeKind::File(data) => Ok(data.digest()),
            NodeKind::Dir(_) => Err(Errno::EISDIR),
            _ => Err(Errno::EINVAL),
        }
    }

    /// Fills every file's digest cache, so that copies of this
    /// filesystem start with them filled.
    pub fn fill_digests(&self) {
        for node in self.nodes.iter().flatten() {
            if let NodeKind::File(data) = &node.kind {
                data.digest();
            }
        }
    }

    /// File size without copying the contents.
    ///
    /// # Errors
    ///
    /// `EIO` if the inode was unlinked since it was resolved.
    pub fn file_len(&self, ino: Ino) -> Result<u64, Errno> {
        match &self.try_node(ino)?.kind {
            NodeKind::File(data) => Ok(data.bytes.len() as u64),
            _ => Err(Errno::EINVAL),
        }
    }

    /// Reads up to `len` bytes at `offset` from an already-resolved file.
    ///
    /// # Errors
    ///
    /// `EIO` if the inode dangles (unlinked while a descriptor was
    /// still open), `EISDIR`/`EINVAL` for wrong node kinds.
    pub fn read_at(
        &self,
        ino: Ino,
        offset: u64,
        len: usize,
    ) -> Result<Vec<u8>, Errno> {
        let data = self.file_bytes(ino)?;
        let start = (offset as usize).min(data.len());
        // A raw `read` trap passes any count, up to `usize::MAX`.
        let end = start.saturating_add(len).min(data.len());
        Ok(data[start..end].to_vec())
    }

    /// Writes bytes at `offset`, extending the file as needed. Returns
    /// bytes written.
    pub fn write_at(
        &mut self,
        ino: Ino,
        offset: u64,
        buf: &[u8],
    ) -> Result<usize, Errno> {
        let now = self.now_ns;
        let node = self.try_node_mut(ino)?;
        match &mut node.kind {
            NodeKind::File(data) => {
                let data = data.bytes_mut();
                let off = offset as usize;
                if data.len() < off + buf.len() {
                    data.resize(off + buf.len(), 0);
                }
                data[off..off + buf.len()].copy_from_slice(buf);
                node.mtime_ns = now;
                Ok(buf.len())
            }
            NodeKind::Dir(_) => Err(Errno::EISDIR),
            _ => Err(Errno::EINVAL),
        }
    }

    /// Truncates (or extends with zeros) a regular file to `len` bytes.
    ///
    /// # Errors
    ///
    /// `EISDIR` for directories, `EINVAL` for other node kinds.
    pub fn truncate(&mut self, ino: Ino, len: u64) -> Result<(), Errno> {
        let now = self.now_ns;
        let node = self.try_node_mut(ino)?;
        match &mut node.kind {
            NodeKind::File(data) => {
                data.bytes_mut().resize(len as usize, 0);
                node.mtime_ns = now;
                Ok(())
            }
            NodeKind::Dir(_) => Err(Errno::EISDIR),
            _ => Err(Errno::EINVAL),
        }
    }

    /// Removes a file or empty directory.
    ///
    /// # Errors
    ///
    /// `ENOTEMPTY` for non-empty directories, `ENOENT` if absent.
    pub fn unlink(&mut self, path: &str) -> Result<(), Errno> {
        let (parent_comps, name) = Self::parent_and_name(path)?;
        // Find which tree actually holds the entry.
        let trees: Vec<Ino> = self
            .root_upper
            .into_iter()
            .chain(Some(self.root_lower))
            .collect();
        let mut stack = Vec::new();
        for root in trees {
            let mut walked = 0;
            let Ok(parent) = self.walk_tree(
                root,
                parent_comps.iter().copied(),
                &mut walked,
                0,
                &mut stack,
            ) else {
                continue;
            };
            let child = match &self.node(parent).kind {
                NodeKind::Dir(entries) => entries.get(name).copied(),
                _ => continue,
            };
            let Some(child) = child else { continue };
            if let NodeKind::Dir(entries) = &self.node(child).kind {
                if !entries.is_empty() {
                    return Err(Errno::ENOTEMPTY);
                }
            }
            let now = self.now_ns;
            if let NodeKind::Dir(entries) = &mut self.node_mut(parent).kind {
                entries.remove(name);
            }
            self.node_mut(parent).mtime_ns = now;
            self.free(child);
            return Ok(());
        }
        Err(Errno::ENOENT)
    }

    /// Creates a symlink at `path` pointing to `target`.
    pub fn symlink(&mut self, path: &str, target: &str) -> Result<(), Errno> {
        let (parent_comps, name) = Self::parent_and_name(path)?;
        let (parent, _) = self.tree_for_create(&parent_comps)?;
        let s = self.alloc(NodeKind::Symlink(target.to_string()), 0o777);
        self.link(parent, name, s)
    }

    /// Registers a character-device node.
    pub fn mknod_device(
        &mut self,
        path: &str,
        dev: DeviceId,
    ) -> Result<(), Errno> {
        let (parent_comps, name) = Self::parent_and_name(path)?;
        let (parent, _) = self.tree_for_create(&parent_comps)?;
        let n = self.alloc(NodeKind::Device(dev), 0o600);
        self.link(parent, name, n)
    }

    /// Returns the device id if the inode is a device node.
    pub fn device_of(&self, ino: Ino) -> Option<DeviceId> {
        match &self.node(ino).kind {
            NodeKind::Device(d) => Some(*d),
            _ => None,
        }
    }

    /// `stat` for a resolved inode.
    pub fn stat(&self, ino: Ino) -> Stat {
        let n = self.node(ino);
        let (file_type, size) = match &n.kind {
            NodeKind::Dir(e) => (FileType::Directory, e.len() as u64),
            NodeKind::File(d) => (FileType::Regular, d.bytes.len() as u64),
            NodeKind::Symlink(t) => (FileType::Symlink, t.len() as u64),
            NodeKind::Device(_) => (FileType::CharDevice, 0),
        };
        Stat {
            ino: ino.0,
            file_type,
            mode: n.mode,
            size,
            blocks: size.div_ceil(512),
            mtime_sec: (n.mtime_ns / 1_000_000_000) as i64,
            mtime_nsec: (n.mtime_ns % 1_000_000_000) as i64,
            nlink: n.nlink,
        }
    }

    /// Directory entries, merged across both trees for union semantics.
    ///
    /// # Errors
    ///
    /// `ENOTDIR` if the path is not a directory in any tree.
    pub fn readdir(&self, path: &str) -> Result<Vec<String>, Errno> {
        let tracks = self.tracks(Self::components(path)?);
        if tracks.iter().all(|t| t.entries(self).is_none()) {
            return Err(if tracks.iter().any(|t| t.live) {
                Errno::ENOTDIR
            } else {
                Errno::ENOENT
            });
        }
        Ok(self.listing(&tracks).map(str::to_string).collect())
    }

    /// One [`Track`] per tree, standing where `comps` resolves there.
    /// An unmounted overlay is a tree in which nothing resolves.
    fn tracks<'p>(
        &self,
        comps: impl Iterator<Item = &'p str> + Clone,
    ) -> [Track; 2] {
        [self.root_upper, Some(self.root_lower)].map(|root| {
            let mut track = Track {
                root: root.unwrap_or(self.root_lower),
                stack: Vec::new(),
                live: root.is_some(),
            };
            for comp in comps.clone() {
                track.enter(self, comp);
            }
            track
        })
    }

    /// The names under the tracks' path: the union, in name order, of
    /// the entries of every tree in which it is a directory.
    fn listing<'v>(
        &'v self,
        tracks: &[Track; 2],
    ) -> impl Iterator<Item = &'v str> {
        let [upper, lower] = tracks.each_ref().map(|t| t.entries(self));
        union(
            upper.into_iter().flat_map(BTreeMap::keys),
            lower.into_iter().flat_map(BTreeMap::keys),
        )
    }

    /// Visits `root` and every node below it in the union of both
    /// trees, depth first with each directory's children in name
    /// order: the same paths and nodes that [`Vfs::resolve`] and
    /// [`Vfs::readdir`] report path by path. Rather than resolving
    /// each path from `/`, the walk keeps one resolution stack per
    /// tree and advances it one name at a time with the step
    /// `resolve` folds over a path, so symlinks and `..` resolve
    /// exactly as there.
    ///
    /// `visit` gets the path (from one reused buffer), the node's
    /// [`Stat`], and its contents by reference (empty unless it is a
    /// regular file). A path that resolves in neither tree (a dangling
    /// or looping symlink) is skipped with its subtree, and the walk
    /// does not descend more than [`MAX_WALK_DEPTH`] levels below
    /// `root`.
    pub fn walk(&self, root: &str, mut visit: impl FnMut(&str, &Stat, &[u8])) {
        let Ok(comps) = Self::components(root) else {
            return;
        };
        let mut tracks = self.tracks(comps);
        self.walk_at(&mut root.to_string(), &mut tracks, 0, &mut visit);
    }

    fn walk_at(
        &self,
        path: &mut String,
        tracks: &mut [Track; 2],
        depth: usize,
        visit: &mut impl FnMut(&str, &Stat, &[u8]),
    ) {
        // As in `resolve`, the overlay shadows the lower tree.
        let Some(ino) = tracks.iter().find_map(Track::ino) else {
            return;
        };
        let data = match &self.node(ino).kind {
            NodeKind::File(data) => data.bytes.as_slice(),
            _ => &[],
        };
        let st = self.stat(ino);
        visit(path, &st, data);
        if st.file_type != FileType::Directory || depth == MAX_WALK_DEPTH {
            return;
        }
        let parent_len = path.len();
        for name in self.listing(tracks) {
            if path.as_str() != "/" {
                path.push('/');
            }
            path.push_str(name);
            let marks = tracks.each_mut().map(|t| t.enter(self, name));
            self.walk_at(path, tracks, depth + 1, visit);
            for (track, mark) in tracks.iter_mut().zip(marks) {
                track.leave(mark);
            }
            path.truncate(parent_len);
        }
    }

    /// Whether a path exists (in either tree).
    pub fn exists(&self, path: &str) -> bool {
        self.resolve(path).is_ok()
    }

    /// Live node count, exposed for leak-style assertions in tests and
    /// recorded by checkpoints.
    pub fn node_count(&self) -> usize {
        self.nodes.iter().flatten().count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mkdir_p_and_resolution() {
        let mut fs = Vfs::new();
        fs.mkdir_p("/a/b/c").unwrap();
        let r = fs.resolve("/a/b/c").unwrap();
        assert!(!r.in_overlay);
        assert_eq!(r.components_walked, 3);
        assert!(fs.exists("/a/b"));
        assert!(!fs.exists("/a/x"));
    }

    #[test]
    fn relative_paths_rejected() {
        let fs = Vfs::new();
        assert_eq!(fs.resolve("a/b"), Err(Errno::EINVAL));
    }

    #[test]
    fn file_roundtrip_and_truncate() {
        let mut fs = Vfs::new();
        fs.mkdir_p("/data").unwrap();
        fs.write_file("/data/f", vec![1, 2, 3]).unwrap();
        assert_eq!(fs.read_file("/data/f").unwrap(), vec![1, 2, 3]);
        fs.write_file("/data/f", vec![9]).unwrap();
        assert_eq!(fs.read_file("/data/f").unwrap(), vec![9]);
    }

    #[test]
    fn write_file_requires_parent() {
        let mut fs = Vfs::new();
        assert_eq!(fs.write_file("/nope/f", vec![]), Err(Errno::ENOENT));
    }

    #[test]
    fn read_write_at_offsets() {
        let mut fs = Vfs::new();
        fs.mkdir_p("/d").unwrap();
        let ino = fs.write_file("/d/f", vec![0; 4]).unwrap();
        fs.write_at(ino, 2, &[7, 8, 9]).unwrap();
        assert_eq!(fs.read_file("/d/f").unwrap(), vec![0, 0, 7, 8, 9]);
        assert_eq!(fs.read_at(ino, 3, 10).unwrap(), vec![8, 9]);
        assert_eq!(fs.read_at(ino, 100, 10).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn overlay_shadows_lower() {
        let mut fs = Vfs::new();
        fs.mkdir_p("/etc").unwrap();
        fs.write_file("/etc/version", b"android".to_vec()).unwrap();
        fs.write_file_overlay("/etc/version", b"ios".to_vec())
            .unwrap();
        let r = fs.resolve("/etc/version").unwrap();
        assert!(r.in_overlay);
        assert_eq!(fs.read_file("/etc/version").unwrap(), b"ios");
    }

    #[test]
    fn overlay_falls_back_to_lower() {
        let mut fs = Vfs::new();
        fs.mkdir_p("/system/bin").unwrap();
        fs.write_file("/system/bin/sh", b"elf".to_vec()).unwrap();
        fs.mkdir_p_overlay("/Documents").unwrap();
        assert!(fs.exists("/system/bin/sh"));
        assert!(fs.exists("/Documents"));
        let r = fs.resolve("/system/bin/sh").unwrap();
        assert!(!r.in_overlay);
    }

    #[test]
    fn readdir_merges_trees() {
        let mut fs = Vfs::new();
        fs.mkdir_p("/usr/lib").unwrap();
        fs.write_file("/usr/lib/libc.so", vec![]).unwrap();
        fs.write_file_overlay("/usr/lib/libSystem.dylib", vec![])
            .unwrap();
        fs.write_file_overlay("/usr/lib/libc.so", vec![]).unwrap();
        let names = fs.readdir("/usr/lib").unwrap();
        assert_eq!(names, vec!["libSystem.dylib", "libc.so"]);
        assert_eq!(fs.readdir("/usr/lib/libc.so"), Err(Errno::ENOTDIR));
        assert_eq!(fs.readdir("/usr/nope"), Err(Errno::ENOENT));
    }

    #[test]
    fn unlink_files_and_empty_dirs() {
        let mut fs = Vfs::new();
        fs.mkdir_p("/tmp/x").unwrap();
        fs.write_file("/tmp/f", vec![1]).unwrap();
        fs.unlink("/tmp/f").unwrap();
        assert!(!fs.exists("/tmp/f"));
        assert_eq!(fs.unlink("/tmp"), Err(Errno::ENOTEMPTY));
        fs.unlink("/tmp/x").unwrap();
        fs.unlink("/tmp").unwrap();
    }

    #[test]
    fn symlink_resolution_and_loops() {
        let mut fs = Vfs::new();
        fs.mkdir_p("/a").unwrap();
        fs.write_file("/a/real", b"data".to_vec()).unwrap();
        fs.symlink("/a/link", "/a/real").unwrap();
        assert_eq!(fs.read_file("/a/link").unwrap(), b"data");
        fs.symlink("/a/loop1", "/a/loop2").unwrap();
        fs.symlink("/a/loop2", "/a/loop1").unwrap();
        assert_eq!(fs.resolve("/a/loop1"), Err(Errno::ELOOP));
    }

    #[test]
    fn dotdot_navigation() {
        let mut fs = Vfs::new();
        fs.mkdir_p("/a/b").unwrap();
        fs.write_file("/a/f", b"x".to_vec()).unwrap();
        assert_eq!(fs.read_file("/a/b/../f").unwrap(), b"x");
    }

    #[test]
    fn stat_reports_type_and_size() {
        let mut fs = Vfs::new();
        fs.mkdir_p("/d").unwrap();
        let ino = fs.write_file("/d/f", vec![0; 1000]).unwrap();
        let st = fs.stat(ino);
        assert_eq!(st.file_type, FileType::Regular);
        assert_eq!(st.size, 1000);
        assert_eq!(st.blocks, 2);
    }

    /// Each way of changing a file's contents moves the digest
    /// `kernel/vfs` records for it to that of the new bytes, although
    /// the old digest was cached when the write came.
    #[test]
    fn every_content_write_moves_the_cached_digest() {
        let mut fs = Vfs::new();
        fs.mkdir_p("/d").unwrap();
        let lower = fs.write_file("/d/f", b"one".to_vec()).unwrap();
        let upper = fs.write_file_overlay("/o/f", b"one".to_vec()).unwrap();
        type Write = fn(&mut Vfs, Ino);
        let writes: [(&str, Ino, Write); 4] = [
            ("write_file", lower, |fs, _| {
                fs.write_file("/d/f", b"two".to_vec()).unwrap();
            }),
            ("write_file_overlay", upper, |fs, _| {
                fs.write_file_overlay("/o/f", b"two".to_vec()).unwrap();
            }),
            ("write_at", lower, |fs, ino| {
                fs.write_at(ino, 1, b"XY").unwrap();
            }),
            ("truncate", lower, |fs, ino| fs.truncate(ino, 1).unwrap()),
        ];
        for (what, ino, write) in writes {
            let before = fs.file_digest(ino).unwrap();
            write(&mut fs, ino);
            let after = fs.file_digest(ino).unwrap();
            assert_ne!(before, after, "{what} left the digest");
            assert_eq!(after, fnv1a(fs.file_bytes(ino).unwrap()), "{what}");
        }
    }

    /// A fork copies the filled caches, and a write in the fork leaves
    /// the original's cached digest alone.
    #[test]
    fn a_write_in_a_clone_leaves_the_original_digest() {
        let mut fs = Vfs::new();
        fs.mkdir_p("/d").unwrap();
        let ino = fs.write_file("/d/f", b"zygote".to_vec()).unwrap();
        fs.fill_digests();
        let mut fork = fs.clone();
        let cached = |fs: &Vfs| match &fs.node(ino).kind {
            NodeKind::File(data) => data.digest.get(),
            _ => None,
        };
        assert_eq!(cached(&fork), Some(fnv1a(b"zygote")));
        fork.write_at(ino, 0, b"Z").unwrap();
        assert_eq!(cached(&fs), Some(fnv1a(b"zygote")));
        assert_eq!(fs.file_digest(ino), Ok(fnv1a(b"zygote")));
        assert_eq!(fork.file_digest(ino), Ok(fnv1a(b"Zygote")));
    }

    #[test]
    fn device_nodes() {
        let mut fs = Vfs::new();
        fs.mkdir_p("/dev").unwrap();
        fs.mknod_device("/dev/fb0", DeviceId(3)).unwrap();
        let r = fs.resolve("/dev/fb0").unwrap();
        assert_eq!(fs.device_of(r.ino), Some(DeviceId(3)));
        assert_eq!(fs.stat(r.ino).file_type, FileType::CharDevice);
    }

    #[test]
    fn dangling_inode_is_eio_not_panic() {
        let mut fs = Vfs::new();
        fs.mkdir_p("/d").unwrap();
        let ino = fs.write_file("/d/f", vec![1, 2, 3]).unwrap();
        fs.unlink("/d/f").unwrap();
        // Writing an overlay file over an existing one allocates a
        // node and drops it again: the number after the file's is a
        // hole no path reaches.
        let kept = fs.write_file_overlay("/d/g", vec![1]).unwrap();
        assert_eq!(fs.write_file_overlay("/d/g", vec![2]), Ok(kept));
        let replaced = Ino(kept.0 + 1);
        // A descriptor opened before the unlink now holds a stale ino;
        // the other two were never handed out. Past the end of the
        // table is EIO too, with no truncating cast on the way.
        for stale in [ino, replaced, Ino(u64::MAX)] {
            assert_eq!(fs.read_at(stale, 0, 3), Err(Errno::EIO));
            assert_eq!(fs.write_at(stale, 0, &[9]), Err(Errno::EIO));
            assert_eq!(fs.truncate(stale, 0), Err(Errno::EIO));
            assert_eq!(fs.file_len(stale), Err(Errno::EIO));
            assert_eq!(fs.file_bytes(stale), Err(Errno::EIO));
        }
    }

    #[test]
    fn inode_numbers_are_never_reused() {
        let mut fs = Vfs::new();
        fs.mkdir_p("/d").unwrap();
        let first = fs.write_file("/d/f", vec![]).unwrap();
        fs.unlink("/d/f").unwrap();
        let second = fs.write_file("/d/f", vec![]).unwrap();
        assert!(second > first, "{second:?} after {first:?}");
        assert_eq!(fs.resolve("/d/f").unwrap().ino, second);
    }

    #[test]
    fn node_count_counts_live_nodes_only() {
        let mut fs = Vfs::new();
        fs.mkdir_p("/d").unwrap();
        assert_eq!(fs.node_count(), 2, "the root and /d");
        fs.write_file("/d/f", vec![]).unwrap();
        fs.unlink("/d/f").unwrap();
        assert_eq!(fs.node_count(), 2, "an unlinked file is a hole");
        // The overlay's root, its /d and its file: three nodes. The
        // overwrite's transient node does not count.
        fs.write_file_overlay("/d/g", vec![1]).unwrap();
        fs.write_file_overlay("/d/g", vec![2]).unwrap();
        assert_eq!(fs.node_count(), 5);
    }

    /// `..` as the name of a new entry would link a node that no path
    /// reaches (`/tmp/..` resolves to `/`) and make every walk re-enter
    /// the parent beneath it; each creating call rejects it.
    fn dotdot_tree() -> Vfs {
        let mut fs = Vfs::new();
        fs.mkdir_p("/tmp").unwrap();
        fs
    }

    #[test]
    fn write_file_rejects_dotdot_name() {
        let mut fs = dotdot_tree();
        assert_eq!(fs.write_file("/tmp/..", vec![1]), Err(Errno::EINVAL));
        assert_eq!(fs.readdir("/tmp").unwrap(), Vec::<String>::new());
    }

    #[test]
    fn write_file_overlay_rejects_dotdot_name() {
        let mut fs = dotdot_tree();
        let n = fs.node_count();
        assert_eq!(
            fs.write_file_overlay("/tmp/..", vec![1]),
            Err(Errno::EINVAL)
        );
        assert_eq!(
            fs.write_file_overlay("/tmp/../f", vec![1]),
            Err(Errno::EINVAL)
        );
        assert_eq!(fs.node_count(), n);
    }

    #[test]
    fn symlink_rejects_dotdot_name() {
        let mut fs = dotdot_tree();
        assert_eq!(fs.symlink("/tmp/..", "/tmp"), Err(Errno::EINVAL));
        assert_eq!(fs.readdir("/tmp").unwrap(), Vec::<String>::new());
    }

    #[test]
    fn mknod_device_rejects_dotdot_name() {
        let mut fs = dotdot_tree();
        assert_eq!(
            fs.mknod_device("/tmp/..", DeviceId(1)),
            Err(Errno::EINVAL)
        );
        assert_eq!(fs.readdir("/tmp").unwrap(), Vec::<String>::new());
    }

    #[test]
    fn mkdir_p_overlay_rejects_dotdot_component() {
        let mut fs = dotdot_tree();
        assert_eq!(fs.mkdir_p_overlay("/tmp/.."), Err(Errno::EINVAL));
        assert_eq!(fs.mkdir_p_overlay("/tmp/../x"), Err(Errno::EINVAL));
        assert!(!fs.exists("/x"));
        assert_eq!(fs.mkdir_p("/tmp/.."), Err(Errno::EINVAL));
    }

    #[test]
    fn walk_visits_the_union_in_name_order() {
        let mut fs = Vfs::new();
        fs.mkdir_p("/usr/lib").unwrap();
        fs.write_file("/usr/lib/libc.so", b"elf".to_vec()).unwrap();
        fs.write_file_overlay("/usr/lib/libSystem.dylib", b"macho".to_vec())
            .unwrap();
        fs.mknod_device("/usr/null", DeviceId(1)).unwrap();
        // Created in the overlay, where `/usr/lib` resolves first; a
        // symlink resolves in its own tree, so only the overlay's file
        // is reachable through it.
        fs.symlink("/usr/lib/self", "/usr/lib/libSystem.dylib")
            .unwrap();
        fs.symlink("/usr/lib/lower", "/usr/lib/libc.so").unwrap();
        fs.symlink("/usr/gone", "/usr/nowhere").unwrap();
        let mut seen = Vec::new();
        fs.walk("/usr", |path, st, data| {
            seen.push((path.to_string(), st.file_type, data.to_vec()));
        });
        let dir = |p: &str| (p.to_string(), FileType::Directory, vec![]);
        let file =
            |p: &str, d: &[u8]| (p.to_string(), FileType::Regular, d.to_vec());
        assert_eq!(
            seen,
            vec![
                dir("/usr"),
                dir("/usr/lib"),
                file("/usr/lib/libSystem.dylib", b"macho"),
                file("/usr/lib/libc.so", b"elf"),
                file("/usr/lib/self", b"macho"),
                ("/usr/null".to_string(), FileType::CharDevice, vec![]),
            ]
        );
    }

    #[test]
    fn walk_stops_at_the_depth_cap() {
        let mut fs = Vfs::new();
        fs.mkdir_p("/a").unwrap();
        fs.symlink("/a/up", "/a").unwrap();
        let mut deepest = 0;
        let mut visits = 0;
        fs.walk("/a", |path, _, _| {
            deepest = deepest.max(path.matches('/').count() - 1);
            visits += 1;
        });
        assert_eq!(deepest, MAX_WALK_DEPTH);
        assert_eq!(visits, MAX_WALK_DEPTH + 1);
    }

    #[test]
    fn components_walked_counts_fallback() {
        let mut fs = Vfs::new();
        fs.mkdir_p("/x/y").unwrap();
        fs.enable_overlay();
        // Miss in upper then hit in lower: both walks counted.
        let r = fs.resolve("/x/y").unwrap();
        assert!(r.components_walked >= 2);
    }
}
