//! Processes, threads, and the user-space callback registries that drive
//! the paper's fork/exit cost analysis.

use std::any::Any;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use cider_abi::ids::{Pid, Tid};
use cider_abi::signal::Signal;

use crate::fdtable::FdTable;
use crate::mm::AddressSpace;

/// Index into the kernel's personality table; selects which syscall
/// dispatch tables and conventions a thread's traps use.
pub type PersonalityId = usize;

/// Extension state a higher layer (Cider) attaches to a thread — persona
/// bookkeeping lives here without the base kernel knowing its shape.
pub trait ThreadExt: fmt::Debug + Send {
    /// Upcast for downcasting by the owning layer.
    fn as_any(&self) -> &dyn Any;
    /// Mutable upcast.
    fn as_any_mut(&mut self) -> &mut dyn Any;
    /// Clone for `fork`/`clone` — personas are "inherited on fork or
    /// clone" (paper §4.1).
    fn clone_ext(&self) -> Box<dyn ThreadExt>;
}

/// Scheduler state of a thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadState {
    /// Eligible to run.
    Runnable,
    /// Parked on a wait channel (psynch, Mach receive, ...).
    Blocked(WaitChannel),
    /// Terminated.
    Exited,
}

/// An opaque wait-queue identifier, analogous to an XNU `event_t`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WaitChannel(pub u64);

/// One kernel thread.
#[derive(Debug)]
pub struct Thread {
    /// Thread id.
    pub tid: Tid,
    /// Owning process.
    pub pid: Pid,
    /// Scheduler state.
    pub state: ThreadState,
    /// Which personality's dispatch tables this thread traps into.
    pub personality: PersonalityId,
    /// Blocked-signal mask (bit = Linux signal number).
    pub sigmask: u64,
    /// Signals queued for this thread, in Linux numbering.
    pub pending: Vec<Signal>,
    /// Log of signals actually delivered, as the raw number user space saw
    /// and the frame size pushed (observable by tests and benches).
    pub delivered: Vec<DeliveredSignal>,
    /// Extension slot for higher layers (Cider persona state).
    pub ext: Option<Box<dyn ThreadExt>>,
}

/// Record of one signal delivery as user space observed it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeliveredSignal {
    /// Internal (Linux-numbered) signal.
    pub internal: Signal,
    /// The raw number presented to user space after any persona
    /// translation.
    pub user_number: i32,
    /// Signal-frame bytes pushed on the user stack.
    pub frame_bytes: usize,
}

impl Clone for Thread {
    /// An exact copy, extension state included (through
    /// [`ThreadExt::clone_ext`]); `fork` copies a thread under a new
    /// tid and pid instead.
    fn clone(&self) -> Thread {
        Thread {
            tid: self.tid,
            pid: self.pid,
            state: self.state,
            personality: self.personality,
            sigmask: self.sigmask,
            pending: self.pending.clone(),
            delivered: self.delivered.clone(),
            ext: self.ext.as_ref().map(|e| e.clone_ext()),
        }
    }
}

impl Thread {
    pub(crate) fn fork_clone(&self, tid: Tid, pid: Pid) -> Thread {
        Thread {
            tid,
            pid,
            state: ThreadState::Runnable,
            personality: self.personality,
            sigmask: self.sigmask,
            pending: Vec::new(),
            delivered: Vec::new(),
            ext: self.ext.as_ref().map(|e| e.clone_ext()),
        }
    }
}

/// Disposition of a signal in a process's handler table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SigDisposition {
    /// Default action (terminate for most; SIGCHLD ignored).
    #[default]
    Default,
    /// Explicitly ignored.
    Ignore,
    /// A user handler is installed (we track the registration id).
    Handler(u32),
}

/// Process lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcessState {
    /// Alive.
    Running,
    /// Exited, waiting to be reaped; holds the exit code.
    Zombie(i32),
}

/// A registered user-space callback (atfork / atexit handler). The paper
/// measured 115 dylibs each registering fork and exit handlers; invoking
/// them is the bulk of the iOS `fork+exit` overhead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UserCallback {
    /// Diagnostic name (usually the registering library), shared with
    /// the library's other callbacks and its mapping, so cloning a
    /// callback table at `fork` copies reference counts only.
    pub name: Arc<str>,
}

/// The user-space callback tables dyld and libSystem maintain.
#[derive(Debug, Clone, Default)]
pub struct UserCallbacks {
    /// `pthread_atfork` prepare handlers (run in parent before fork).
    pub atfork_prepare: Vec<UserCallback>,
    /// `pthread_atfork` parent handlers (run in parent after fork).
    pub atfork_parent: Vec<UserCallback>,
    /// `pthread_atfork` child handlers (run in child after fork).
    pub atfork_child: Vec<UserCallback>,
    /// `atexit` handlers (run at exit; dyld registers one per image).
    pub atexit: Vec<UserCallback>,
}

impl UserCallbacks {
    /// Total atfork handlers across the three phases.
    pub fn atfork_total(&self) -> usize {
        self.atfork_prepare.len()
            + self.atfork_parent.len()
            + self.atfork_child.len()
    }
}

/// Information about the program image a process is executing.
#[derive(Debug, Clone, Default)]
pub struct ProgramInfo {
    /// Path of the executed binary.
    pub path: String,
    /// Arguments.
    pub argv: Vec<String>,
    /// Behaviour key looked up in the kernel's program registry.
    pub entry_symbol: Option<String>,
    /// Name of the binary format that loaded it ("elf", "macho").
    pub format: &'static str,
    /// Dynamic libraries mapped at load time.
    pub dylib_count: u32,
}

/// One process.
#[derive(Debug, Clone)]
pub struct Process {
    /// Process id.
    pub pid: Pid,
    /// Parent, if any.
    pub parent: Option<Pid>,
    /// Address space.
    pub mm: AddressSpace,
    /// Descriptor table.
    pub fds: FdTable,
    /// Current working directory.
    pub cwd: String,
    /// Threads belonging to this process.
    pub threads: Vec<Tid>,
    /// Children (live or zombie).
    pub children: Vec<Pid>,
    /// Lifecycle state.
    pub state: ProcessState,
    /// Registered user callbacks.
    pub callbacks: UserCallbacks,
    /// Program image info.
    pub program: ProgramInfo,
    /// Signal dispositions, keyed by Linux signal number.
    pub sig_handlers: BTreeMap<i32, SigDisposition>,
    /// Bytes written to the console by this process (stdout capture).
    pub console: Vec<u8>,
}

impl Process {
    pub(crate) fn new(pid: Pid, parent: Option<Pid>) -> Process {
        Process {
            pid,
            parent,
            mm: AddressSpace::new(),
            fds: FdTable::with_stdio(),
            cwd: "/".to_string(),
            threads: Vec::new(),
            children: Vec::new(),
            state: ProcessState::Running,
            callbacks: UserCallbacks::default(),
            program: ProgramInfo::default(),
            sig_handlers: BTreeMap::new(),
            console: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn callbacks_totals() {
        let mut cb = UserCallbacks::default();
        for i in 0..115 {
            let name: Arc<str> = format!("lib{i}").into();
            cb.atfork_prepare.push(UserCallback { name: name.clone() });
            cb.atfork_parent.push(UserCallback { name: name.clone() });
            cb.atfork_child.push(UserCallback { name: name.clone() });
            cb.atexit.push(UserCallback { name });
        }
        assert_eq!(cb.atfork_total(), 345);
        assert_eq!(cb.atexit.len(), 115);
    }

    #[test]
    fn thread_fork_clone_inherits_personality_and_mask() {
        let t = Thread {
            tid: Tid(1),
            pid: Pid(1),
            state: ThreadState::Runnable,
            personality: 2,
            sigmask: 0b1010,
            pending: vec![Signal::SIGUSR1],
            delivered: vec![],
            ext: None,
        };
        let c = t.fork_clone(Tid(9), Pid(5));
        assert_eq!(c.personality, 2);
        assert_eq!(c.sigmask, 0b1010);
        // Pending signals are not inherited across fork.
        assert!(c.pending.is_empty());
        assert_eq!(c.state, ThreadState::Runnable);
    }

    #[test]
    fn new_process_has_stdio() {
        let p = Process::new(Pid(1), None);
        assert_eq!(p.fds.len(), 3);
        assert_eq!(p.state, ProcessState::Running);
        assert_eq!(p.cwd, "/");
    }
}
