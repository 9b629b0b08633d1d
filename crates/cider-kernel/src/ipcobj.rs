//! Kernel-global pipe and UNIX-socket objects.
//!
//! Descriptors in [`FdTable`](crate::fdtable::FdTable) reference these
//! objects by id; the objects themselves live in the kernel so that both
//! ends observe one shared buffer, as with real pipes.

use std::collections::{BTreeMap, VecDeque};

use cider_abi::errno::Errno;
use cider_fault::Fnv1a;

/// Identifier of a pipe object in the kernel table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PipeId(pub u64);

/// A descriptor's view of a pipe: which object and which direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipeEnd {
    /// The pipe object.
    pub id: PipeId,
    /// True for the write end.
    pub write_end: bool,
}

/// Identifier of a socket pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SocketId(pub u64);

/// A descriptor's view of a socketpair: which pair and which side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SocketEnd {
    /// The socketpair object.
    pub id: SocketId,
    /// Side 0 or side 1.
    pub side: u8,
}

#[derive(Debug, Clone, Default)]
struct PipeObject {
    buf: VecDeque<u8>,
    // Descriptor reference counts per end: `dup` and `fork` both create
    // additional descriptors pointing at the same end, so an end is only
    // really closed when the last descriptor referencing it goes away.
    writers: u32,
    readers: u32,
}

/// Default pipe capacity (64 KiB, as on Linux).
pub const PIPE_CAPACITY: usize = 65536;

#[derive(Debug, Clone, Default)]
struct SocketObject {
    // buf[i] holds data travelling *towards* side i.
    buf: [VecDeque<u8>; 2],
    // Descriptor reference counts per side (see `PipeObject`).
    refs: [u32; 2],
}

/// Kernel table of live pipes and socketpairs.
#[derive(Debug, Clone, Default)]
pub struct IpcObjects {
    pipes: BTreeMap<u64, PipeObject>,
    sockets: BTreeMap<u64, SocketObject>,
    next_id: u64,
}

impl IpcObjects {
    /// Empty table.
    pub fn new() -> IpcObjects {
        IpcObjects::default()
    }

    /// Allocates a new pipe, returning its id.
    pub fn create_pipe(&mut self) -> PipeId {
        let id = self.next_id;
        self.next_id += 1;
        self.pipes.insert(
            id,
            PipeObject {
                buf: VecDeque::new(),
                writers: 1,
                readers: 1,
            },
        );
        PipeId(id)
    }

    /// Allocates a connected socketpair, returning its id.
    pub fn create_socketpair(&mut self) -> SocketId {
        let id = self.next_id;
        self.next_id += 1;
        self.sockets.insert(
            id,
            SocketObject {
                buf: [VecDeque::new(), VecDeque::new()],
                refs: [1, 1],
            },
        );
        SocketId(id)
    }

    /// Writes to a pipe.
    ///
    /// # Errors
    ///
    /// `EPIPE` if the read end is closed, `EAGAIN` when the buffer is
    /// full (the simulator never blocks the host).
    pub fn pipe_write(
        &mut self,
        id: PipeId,
        data: &[u8],
    ) -> Result<usize, Errno> {
        let p = self.pipes.get_mut(&id.0).ok_or(Errno::EBADF)?;
        if p.readers == 0 {
            return Err(Errno::EPIPE);
        }
        let room = PIPE_CAPACITY.saturating_sub(p.buf.len());
        if room == 0 {
            return Err(Errno::EAGAIN);
        }
        let n = data.len().min(room);
        p.buf.extend(&data[..n]);
        Ok(n)
    }

    /// Reads from a pipe.
    ///
    /// # Errors
    ///
    /// `EAGAIN` when empty but the write end is still open. Returns
    /// `Ok(0)` at EOF (write end closed, buffer drained).
    pub fn pipe_read(
        &mut self,
        id: PipeId,
        buf: &mut [u8],
    ) -> Result<usize, Errno> {
        let p = self.pipes.get_mut(&id.0).ok_or(Errno::EBADF)?;
        if p.buf.is_empty() {
            return if p.writers > 0 {
                Err(Errno::EAGAIN)
            } else {
                Ok(0)
            };
        }
        let n = buf.len().min(p.buf.len());
        for b in buf.iter_mut().take(n) {
            *b = p.buf.pop_front().expect("checked non-empty");
        }
        Ok(n)
    }

    /// Bytes currently readable from a pipe (used by `select`).
    pub fn pipe_readable(&self, id: PipeId) -> usize {
        self.pipes.get(&id.0).map(|p| p.buf.len()).unwrap_or(0)
    }

    /// Drops one descriptor reference to an end; an end counts as closed
    /// when its last reference goes, and the object is destroyed when
    /// both ends are closed.
    pub fn pipe_close(&mut self, end: PipeEnd) {
        if let Some(p) = self.pipes.get_mut(&end.id.0) {
            if end.write_end {
                p.writers = p.writers.saturating_sub(1);
            } else {
                p.readers = p.readers.saturating_sub(1);
            }
            if p.writers == 0 && p.readers == 0 {
                self.pipes.remove(&end.id.0);
            }
        }
    }

    /// Adds a descriptor reference to an end (`dup`, `fork`).
    pub fn pipe_retain(&mut self, end: PipeEnd) {
        if let Some(p) = self.pipes.get_mut(&end.id.0) {
            if end.write_end {
                p.writers += 1;
            } else {
                p.readers += 1;
            }
        }
    }

    /// Sends towards the peer of `from_side`.
    ///
    /// # Errors
    ///
    /// `EPIPE` if the peer closed; `EAGAIN` when the peer's buffer is full.
    pub fn socket_send(
        &mut self,
        id: SocketId,
        from_side: u8,
        data: &[u8],
    ) -> Result<usize, Errno> {
        let s = self.sockets.get_mut(&id.0).ok_or(Errno::EBADF)?;
        let to = (1 - from_side) as usize;
        if s.refs[to] == 0 {
            return Err(Errno::EPIPE);
        }
        let room = PIPE_CAPACITY.saturating_sub(s.buf[to].len());
        if room == 0 {
            return Err(Errno::EAGAIN);
        }
        let n = data.len().min(room);
        s.buf[to].extend(&data[..n]);
        Ok(n)
    }

    /// Receives data queued towards `side`.
    ///
    /// # Errors
    ///
    /// `EAGAIN` when empty with the peer still open; `Ok(0)` at EOF.
    pub fn socket_recv(
        &mut self,
        id: SocketId,
        side: u8,
        buf: &mut [u8],
    ) -> Result<usize, Errno> {
        let s = self.sockets.get_mut(&id.0).ok_or(Errno::EBADF)?;
        let q = &mut s.buf[side as usize];
        if q.is_empty() {
            let peer_open = s.refs[(1 - side) as usize] > 0;
            return if peer_open { Err(Errno::EAGAIN) } else { Ok(0) };
        }
        let n = buf.len().min(q.len());
        for b in buf.iter_mut().take(n) {
            *b = q.pop_front().expect("checked non-empty");
        }
        Ok(n)
    }

    /// Bytes queued towards `side` (used by `select` and the eventpump).
    pub fn socket_readable(&self, id: SocketId, side: u8) -> usize {
        self.sockets
            .get(&id.0)
            .map(|s| s.buf[side as usize].len())
            .unwrap_or(0)
    }

    /// Drops one descriptor reference to a side; destroys the pair when
    /// the last reference to both sides is gone.
    pub fn socket_close(&mut self, end: SocketEnd) {
        if let Some(s) = self.sockets.get_mut(&end.id.0) {
            let side = end.side as usize;
            s.refs[side] = s.refs[side].saturating_sub(1);
            if s.refs[0] == 0 && s.refs[1] == 0 {
                self.sockets.remove(&end.id.0);
            }
        }
    }

    /// Adds a descriptor reference to a side (`dup`, `fork`).
    pub fn socket_retain(&mut self, end: SocketEnd) {
        if let Some(s) = self.sockets.get_mut(&end.id.0) {
            s.refs[end.side as usize] += 1;
        }
    }

    /// Live object count (leak detector for tests).
    pub fn live_objects(&self) -> usize {
        self.pipes.len() + self.sockets.len()
    }

    /// Exports the table — ids, end liveness, and the exact buffered
    /// bytes — as stable `(key, value)` records for whole-device
    /// checkpointing. Buffer contents matter: a restored device must
    /// read back precisely the bytes its crashed predecessor had in
    /// flight.
    pub fn ckpt_records(&self) -> Vec<(String, String)> {
        let mut out = vec![("next_id".to_string(), self.next_id.to_string())];
        for (id, p) in &self.pipes {
            out.push((
                format!("pipe:{id:06}"),
                format!(
                    "w={} r={} len={} digest={:016x}",
                    p.writers > 0,
                    p.readers > 0,
                    p.buf.len(),
                    digest(&p.buf),
                ),
            ));
        }
        for (id, s) in &self.sockets {
            for side in 0..2 {
                out.push((
                    format!("sock:{id:06}/{side}"),
                    format!(
                        "open={} len={} digest={:016x}",
                        s.refs[side] > 0,
                        s.buf[side].len(),
                        digest(&s.buf[side]),
                    ),
                ));
            }
        }
        out
    }
}

/// FNV-1a over a buffer's bytes, oldest first, streamed over both
/// halves of the ring instead of copied out of it.
fn digest(buf: &VecDeque<u8>) -> u64 {
    let (a, b) = buf.as_slices();
    let mut h = Fnv1a::new();
    h.write(a);
    h.write(b);
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipe_roundtrip() {
        let mut t = IpcObjects::new();
        let id = t.create_pipe();
        assert_eq!(t.pipe_write(id, b"hello").unwrap(), 5);
        let mut buf = [0u8; 8];
        assert_eq!(t.pipe_read(id, &mut buf).unwrap(), 5);
        assert_eq!(&buf[..5], b"hello");
    }

    #[test]
    fn pipe_empty_gives_eagain_then_eof() {
        let mut t = IpcObjects::new();
        let id = t.create_pipe();
        let mut buf = [0u8; 4];
        assert_eq!(t.pipe_read(id, &mut buf), Err(Errno::EAGAIN));
        t.pipe_close(PipeEnd {
            id,
            write_end: true,
        });
        assert_eq!(t.pipe_read(id, &mut buf), Ok(0));
    }

    #[test]
    fn pipe_write_after_reader_close_is_epipe() {
        let mut t = IpcObjects::new();
        let id = t.create_pipe();
        t.pipe_close(PipeEnd {
            id,
            write_end: false,
        });
        assert_eq!(t.pipe_write(id, b"x"), Err(Errno::EPIPE));
    }

    #[test]
    fn pipe_capacity_enforced() {
        let mut t = IpcObjects::new();
        let id = t.create_pipe();
        let big = vec![0u8; PIPE_CAPACITY + 100];
        assert_eq!(t.pipe_write(id, &big).unwrap(), PIPE_CAPACITY);
        assert_eq!(t.pipe_write(id, b"x"), Err(Errno::EAGAIN));
    }

    #[test]
    fn pipe_destroyed_when_both_ends_close() {
        let mut t = IpcObjects::new();
        let id = t.create_pipe();
        assert_eq!(t.live_objects(), 1);
        t.pipe_close(PipeEnd {
            id,
            write_end: true,
        });
        assert_eq!(t.live_objects(), 1);
        t.pipe_close(PipeEnd {
            id,
            write_end: false,
        });
        assert_eq!(t.live_objects(), 0);
    }

    #[test]
    fn retained_pipe_ends_survive_one_close() {
        let mut t = IpcObjects::new();
        let id = t.create_pipe();
        let w = PipeEnd {
            id,
            write_end: true,
        };
        let r = PipeEnd {
            id,
            write_end: false,
        };
        // A fork duplicates both descriptors: two refs per end.
        t.pipe_retain(w);
        t.pipe_retain(r);
        // The child exits, closing its copies; the parent's stay usable.
        t.pipe_close(w);
        t.pipe_close(r);
        assert_eq!(t.pipe_write(id, b"still here").unwrap(), 10);
        let mut buf = [0u8; 16];
        assert_eq!(t.pipe_read(id, &mut buf).unwrap(), 10);
        t.pipe_close(w);
        t.pipe_close(r);
        assert_eq!(t.live_objects(), 0);
    }

    #[test]
    fn retained_socket_side_survives_one_close() {
        let mut t = IpcObjects::new();
        let id = t.create_socketpair();
        let s0 = SocketEnd { id, side: 0 };
        t.socket_retain(s0);
        t.socket_close(s0);
        // Side 0 still has a live reference: the peer sees no EPIPE.
        t.socket_send(id, 1, b"hi").unwrap();
        t.socket_close(s0);
        assert_eq!(t.socket_send(id, 1, b"x"), Err(Errno::EPIPE));
    }

    #[test]
    fn socketpair_is_bidirectional() {
        let mut t = IpcObjects::new();
        let id = t.create_socketpair();
        t.socket_send(id, 0, b"ping").unwrap();
        t.socket_send(id, 1, b"pong").unwrap();
        let mut buf = [0u8; 4];
        assert_eq!(t.socket_recv(id, 1, &mut buf).unwrap(), 4);
        assert_eq!(&buf, b"ping");
        assert_eq!(t.socket_recv(id, 0, &mut buf).unwrap(), 4);
        assert_eq!(&buf, b"pong");
    }

    #[test]
    fn socket_eof_and_epipe() {
        let mut t = IpcObjects::new();
        let id = t.create_socketpair();
        t.socket_close(SocketEnd { id, side: 1 });
        assert_eq!(t.socket_send(id, 0, b"x"), Err(Errno::EPIPE));
        let mut buf = [0u8; 1];
        assert_eq!(t.socket_recv(id, 0, &mut buf), Ok(0));
    }

    #[test]
    fn socket_readable_tracks_queue() {
        let mut t = IpcObjects::new();
        let id = t.create_socketpair();
        assert_eq!(t.socket_readable(id, 1), 0);
        t.socket_send(id, 0, b"abc").unwrap();
        assert_eq!(t.socket_readable(id, 1), 3);
        assert_eq!(t.socket_readable(id, 0), 0);
    }
}
