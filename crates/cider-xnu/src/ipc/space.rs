//! Per-task IPC spaces: the name tables mapping task-local port names to
//! port rights, exactly as XNU's `ipc_space`/`ipc_entry` do.

use std::collections::BTreeMap;

use cider_abi::ids::PortName;

use crate::ipc::port::{PortId, RightType, SpaceId};
use crate::kern_return::{KernResult, KernReturn};

/// One entry in a space's name table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NameEntry {
    /// The port the name denotes.
    pub port: PortId,
    /// The kind of right.
    pub right: RightType,
    /// User references (send rights and dead names are counted; receive
    /// and send-once rights always hold exactly one).
    pub urefs: u32,
}

/// A task's IPC space.
#[derive(Debug, Clone)]
pub struct IpcSpace {
    /// Space id.
    pub id: SpaceId,
    names: BTreeMap<u32, NameEntry>,
    next_name: u32,
}

impl IpcSpace {
    /// Creates an empty space.
    pub fn new(id: SpaceId) -> IpcSpace {
        IpcSpace {
            id,
            names: BTreeMap::new(),
            // Real XNU hands out small names starting near 0x103.
            next_name: 0x103,
        }
    }

    fn fresh_name(&mut self) -> PortName {
        let n = self.next_name;
        self.next_name += 4; // XNU name generations step by 4
        PortName(n)
    }

    /// Looks up a name.
    ///
    /// # Errors
    ///
    /// `InvalidName` if the name denotes nothing.
    pub fn lookup(&self, name: PortName) -> KernResult<NameEntry> {
        self.names
            .get(&name.as_raw())
            .copied()
            .ok_or(KernReturn::InvalidName)
    }

    /// Inserts a brand-new right under a fresh name.
    pub fn insert_new(&mut self, port: PortId, right: RightType) -> PortName {
        let name = self.fresh_name();
        self.names.insert(
            name.as_raw(),
            NameEntry {
                port,
                right,
                urefs: 1,
            },
        );
        name
    }

    /// Adds a send right for `port`, coalescing with an existing send
    /// entry for the same port (Mach guarantees one name per (space,
    /// port, send) pair). Returns the name.
    pub fn add_send_right(&mut self, port: PortId) -> PortName {
        for (raw, e) in self.names.iter_mut() {
            if e.port == port && e.right == RightType::Send {
                e.urefs += 1;
                return PortName(*raw);
            }
        }
        self.insert_new(port, RightType::Send)
    }

    /// Adds a send-once right (never coalesced).
    pub fn add_send_once_right(&mut self, port: PortId) -> PortName {
        self.insert_new(port, RightType::SendOnce)
    }

    /// Releases one user reference on a name, removing the entry when the
    /// count reaches zero. Returns the entry as it was before release.
    ///
    /// # Errors
    ///
    /// `InvalidName` for unknown names; `InvalidRight` when releasing a
    /// receive right this way (use [`IpcSpace::remove`]).
    pub fn release(&mut self, name: PortName) -> KernResult<NameEntry> {
        let e = self.lookup(name)?;
        if e.right == RightType::Receive {
            return Err(KernReturn::InvalidRight);
        }
        let entry =
            self.names.get_mut(&name.as_raw()).expect("looked up above");
        entry.urefs -= 1;
        if entry.urefs == 0 {
            self.names.remove(&name.as_raw());
        }
        Ok(e)
    }

    /// Removes an entry outright (receive-right moves, port death).
    ///
    /// # Errors
    ///
    /// `InvalidName` for unknown names.
    pub fn remove(&mut self, name: PortName) -> KernResult<NameEntry> {
        self.names
            .remove(&name.as_raw())
            .ok_or(KernReturn::InvalidName)
    }

    /// Converts every entry referring to `port` into a dead name,
    /// returning how many send/send-once user references were destroyed.
    pub fn make_dead(&mut self, port: PortId) -> (u32, u32) {
        let mut send = 0;
        let mut sonce = 0;
        for e in self.names.values_mut() {
            if e.port == port {
                match e.right {
                    RightType::Send => send += e.urefs,
                    RightType::SendOnce => sonce += e.urefs,
                    _ => {}
                }
                e.right = RightType::DeadName;
            }
        }
        (send, sonce)
    }

    /// The name holding the receive right for `port`, if any.
    pub fn find_receive(&self, port: PortId) -> Option<PortName> {
        self.names
            .iter()
            .find(|(_, e)| e.port == port && e.right == RightType::Receive)
            .map(|(raw, _)| PortName(*raw))
    }

    /// Iterates over `(name, entry)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (PortName, NameEntry)> + '_ {
        self.names.iter().map(|(&raw, &e)| (PortName(raw), e))
    }

    /// Number of names in the table.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_stable() {
        let mut s = IpcSpace::new(SpaceId(1));
        let a = s.insert_new(PortId(10), RightType::Receive);
        let b = s.insert_new(PortId(11), RightType::Receive);
        assert_ne!(a, b);
        assert_eq!(s.lookup(a).unwrap().port, PortId(10));
    }

    #[test]
    fn send_rights_coalesce() {
        let mut s = IpcSpace::new(SpaceId(1));
        let a = s.add_send_right(PortId(7));
        let b = s.add_send_right(PortId(7));
        assert_eq!(a, b);
        assert_eq!(s.lookup(a).unwrap().urefs, 2);
        // Send-once rights never coalesce.
        let c = s.add_send_once_right(PortId(7));
        let d = s.add_send_once_right(PortId(7));
        assert_ne!(c, d);
    }

    #[test]
    fn release_counts_down_and_removes() {
        let mut s = IpcSpace::new(SpaceId(1));
        let a = s.add_send_right(PortId(7));
        s.add_send_right(PortId(7));
        s.release(a).unwrap();
        assert_eq!(s.lookup(a).unwrap().urefs, 1);
        s.release(a).unwrap();
        assert_eq!(s.lookup(a).unwrap_err(), KernReturn::InvalidName);
    }

    #[test]
    fn receive_right_cannot_be_released() {
        let mut s = IpcSpace::new(SpaceId(1));
        let a = s.insert_new(PortId(1), RightType::Receive);
        assert_eq!(s.release(a).unwrap_err(), KernReturn::InvalidRight);
    }

    #[test]
    fn make_dead_converts_and_counts() {
        let mut s = IpcSpace::new(SpaceId(1));
        let a = s.add_send_right(PortId(9));
        s.add_send_right(PortId(9));
        let b = s.add_send_once_right(PortId(9));
        let (send, sonce) = s.make_dead(PortId(9));
        assert_eq!((send, sonce), (2, 1));
        assert_eq!(s.lookup(a).unwrap().right, RightType::DeadName);
        assert_eq!(s.lookup(b).unwrap().right, RightType::DeadName);
    }

    #[test]
    fn find_receive_locates_name() {
        let mut s = IpcSpace::new(SpaceId(1));
        let a = s.insert_new(PortId(3), RightType::Receive);
        s.add_send_right(PortId(3));
        assert_eq!(s.find_receive(PortId(3)), Some(a));
        assert_eq!(s.find_receive(PortId(4)), None);
    }
}
