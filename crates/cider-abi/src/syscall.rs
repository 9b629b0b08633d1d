//! Syscall numbering for both kernel families, and the XNU trap-class
//! machinery.
//!
//! iOS binaries "can trap into the kernel in four different ways depending
//! on the system call being executed" (paper §4.1): positive numbers are
//! BSD/Unix syscalls, negative numbers are Mach traps, and two further
//! classes cover machine-dependent and diagnostic traps. Cider keeps one
//! dispatch table per (persona, trap class) pair and routes each trap to
//! the right table.

use std::fmt;

/// The four ways an iOS binary traps into the XNU kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TrapClass {
    /// POSIX/BSD system calls (positive trap numbers).
    Unix,
    /// Mach traps — IPC and VM primitives (negative trap numbers).
    Mach,
    /// Machine-dependent traps (TLS setup and friends).
    MachDep,
    /// Diagnostic traps.
    Diag,
}

impl TrapClass {
    /// All trap classes in a stable order.
    pub const ALL: [TrapClass; 4] = [
        TrapClass::Unix,
        TrapClass::Mach,
        TrapClass::MachDep,
        TrapClass::Diag,
    ];
}

impl fmt::Display for TrapClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TrapClass::Unix => "unix",
            TrapClass::Mach => "mach",
            TrapClass::MachDep => "machdep",
            TrapClass::Diag => "diag",
        };
        f.write_str(s)
    }
}

/// A syscall name as installed in a dispatch table.
///
/// Dispatch tables, trace labels and report output all carry syscall
/// names; wrapping the `&'static str` keeps table-backed names from
/// silently mixing with arbitrary formatted strings. The wrapped
/// string is always a static table entry, never computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SyscallName(pub &'static str);

impl SyscallName {
    /// The raw name, e.g. `"open"`.
    pub const fn as_str(self) -> &'static str {
        self.0
    }
}

impl fmt::Display for SyscallName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.0)
    }
}

impl From<&'static str> for SyscallName {
    fn from(s: &'static str) -> SyscallName {
        SyscallName(s)
    }
}

impl AsRef<str> for SyscallName {
    fn as_ref(&self) -> &str {
        self.0
    }
}

impl PartialEq<str> for SyscallName {
    fn eq(&self, other: &str) -> bool {
        self.0 == other
    }
}

impl PartialEq<&str> for SyscallName {
    fn eq(&self, other: &&str) -> bool {
        self.0 == *other
    }
}

impl PartialEq<SyscallName> for &str {
    fn eq(&self, other: &SyscallName) -> bool {
        *self == other.0
    }
}

macro_rules! syscall_enum {
    ($(#[$meta:meta])* $name:ident { $($variant:ident = $val:expr,)+ }) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub enum $name {
            $($variant = $val,)+
        }

        impl $name {
            /// All defined syscalls, in declaration order.
            pub const ALL: &'static [$name] = &[$($name::$variant,)+];

            /// The raw syscall/trap number.
            pub const fn number(self) -> i32 {
                self as i32
            }

            /// Looks up a syscall by raw number.
            pub fn from_number(raw: i32) -> Option<$name> {
                match raw {
                    $($val => Some($name::$variant),)+
                    _ => None,
                }
            }

            /// Lower-case name, e.g. `"open"`.
            pub fn name(self) -> &'static str {
                match self {
                    $($name::$variant => {
                        // Variants are CamelCase; render snake_case lazily.
                        stringify!($variant)
                    })+
                }
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str(self.name())
            }
        }
    };
}

syscall_enum! {
    /// Linux (domestic) syscall numbers — ARM EABI values for the subset
    /// the simulator implements.
    LinuxSyscall {
        Exit = 1,
        Fork = 2,
        Read = 3,
        Write = 4,
        Open = 5,
        Close = 6,
        Creat = 8,
        Unlink = 10,
        Execve = 11,
        Chdir = 12,
        Getpid = 20,
        Kill = 37,
        Mkdir = 39,
        Dup = 41,
        Pipe = 42,
        Ioctl = 54,
        Dup2 = 63,
        Sigaction = 67,
        Sigreturn = 119,
        Clone = 120,
        Select = 142,
        Readdir = 141,
        Writev = 146,
        SchedYield = 158,
        Nanosleep = 162,
        Poll = 168,
        Sigprocmask = 175,
        Getcwd = 183,
        Mmap2 = 192,
        Stat64 = 195,
        Fstat64 = 197,
        Gettid = 224,
        Futex = 240,
        SetTidAddress = 256,
        Waitpid = 7,
        Socketpair = 288,
        SetPersona = 983045,
    }
}

syscall_enum! {
    /// XNU (foreign) BSD-class syscall numbers for the subset we implement.
    /// These are genuine XNU `syscalls.master` numbers.
    XnuSyscall {
        Exit = 1,
        Fork = 2,
        Read = 3,
        Write = 4,
        Open = 5,
        Close = 6,
        Waitpid = 7,
        Unlink = 10,
        Chdir = 12,
        Getpid = 20,
        Kill = 37,
        Sigaction = 46,
        Sigprocmask = 48,
        Ioctl = 54,
        Execve = 59,
        Dup = 41,
        Pipe = 42,
        Dup2 = 90,
        Select = 93,
        Socketpair = 135,
        Mkdir = 136,
        Sigreturn = 184,
        Stat64 = 338,
        Fstat64 = 339,
        BsdthreadCreate = 360,
        PsynchMutexwait = 301,
        PsynchMutexdrop = 302,
        PsynchCvbroad = 303,
        PsynchCvsignal = 304,
        PsynchCvwait = 305,
        PosixSpawn = 244,
        Getcwd = 304999,
    }
}

syscall_enum! {
    /// XNU Mach traps. Real Mach traps are invoked with *negative* trap
    /// numbers; [`XnuTrap::Mach`] carries the positive index and the
    /// encode/decode helpers apply the sign.
    MachTrap {
        MachReplyPort = 26,
        ThreadSelfTrap = 27,
        TaskSelfTrap = 28,
        HostSelfTrap = 29,
        MachMsgTrap = 31,
        SemaphoreSignalTrap = 33,
        SemaphoreWaitTrap = 36,
        MachPortAllocate = 16,
        MachPortDeallocate = 18,
        MachPortInsertRight = 20,
        MachVmAllocate = 10,
        MachVmDeallocate = 12,
        // Real XNU reaches thread_policy_set through MIG; the simulator
        // surfaces it as a trap on an unused number so both personas'
        // scheduling controls go through one dispatch path.
        ThreadPolicySet = 57,
        SwtchPri = 59,
        Swtch = 60,
        ThreadSwitch = 61,
        // IPC v2 batched submission: the TrapRing submission/completion
        // queue pays one kernel crossing per flush. Real XNU has no such
        // traps; the simulator claims the two numbers after thread_switch.
        RingSubmit = 62,
        RingFlush = 63,
    }
}

/// A fully decoded foreign trap: which of the four entry paths was taken
/// and which call is requested.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum XnuTrap {
    /// BSD/Unix class (positive numbers).
    Unix(XnuSyscall),
    /// Mach class (negative numbers).
    Mach(MachTrap),
    /// Machine-dependent class; carries the machdep call index.
    MachDep(i32),
    /// Diagnostics class; carries the diag call index.
    Diag(i32),
}

impl XnuTrap {
    /// The trap class of this call — selects the dispatch table.
    pub fn class(self) -> TrapClass {
        match self {
            XnuTrap::Unix(_) => TrapClass::Unix,
            XnuTrap::Mach(_) => TrapClass::Mach,
            XnuTrap::MachDep(_) => TrapClass::MachDep,
            XnuTrap::Diag(_) => TrapClass::Diag,
        }
    }

    /// Encodes the trap the way user space issues it: Unix calls positive,
    /// Mach traps negative. MachDep/Diag use the dedicated entry paths and
    /// encode as large offsets the way the ARM trampoline page does.
    pub fn encode(self) -> i64 {
        match self {
            XnuTrap::Unix(s) => s.number() as i64,
            XnuTrap::Mach(t) => -(t.number() as i64),
            XnuTrap::MachDep(n) => 0x8000_0000_i64 + n as i64,
            XnuTrap::Diag(n) => 0x4000_0000_i64 + n as i64,
        }
    }

    /// Decodes a raw trap number from user space.
    ///
    /// # Errors
    ///
    /// Returns `None` when the number falls in no class or names an
    /// unimplemented call; Cider then fails the trap with `ENOSYS`.
    /// Numbers whose call number does not fit the class's `i32` fail
    /// too: they are never truncated onto a real trap.
    pub fn decode(raw: i64) -> Option<XnuTrap> {
        if raw >= 0x8000_0000 {
            i32::try_from(raw - 0x8000_0000).ok().map(XnuTrap::MachDep)
        } else if raw >= 0x4000_0000 {
            i32::try_from(raw - 0x4000_0000).ok().map(XnuTrap::Diag)
        } else if raw > 0 {
            let n = i32::try_from(raw).ok()?;
            XnuSyscall::from_number(n).map(XnuTrap::Unix)
        } else if raw < 0 {
            let n = raw.checked_neg().and_then(|n| i32::try_from(n).ok())?;
            MachTrap::from_number(n).map(XnuTrap::Mach)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xnu_and_linux_numbers_differ_where_history_says() {
        // select is 142 on Linux/ARM but 93 on XNU.
        assert_eq!(LinuxSyscall::Select.number(), 142);
        assert_eq!(XnuSyscall::Select.number(), 93);
        // The shared Unix heritage keeps the first handful identical.
        assert_eq!(LinuxSyscall::Read.number(), XnuSyscall::Read.number());
        assert_eq!(LinuxSyscall::Write.number(), XnuSyscall::Write.number());
    }

    #[test]
    fn trap_encode_decode_roundtrip() {
        let traps = [
            XnuTrap::Unix(XnuSyscall::Open),
            XnuTrap::Unix(XnuSyscall::PosixSpawn),
            XnuTrap::Mach(MachTrap::MachMsgTrap),
            XnuTrap::Mach(MachTrap::TaskSelfTrap),
            XnuTrap::MachDep(3),
            XnuTrap::Diag(1),
        ];
        for t in traps {
            assert_eq!(XnuTrap::decode(t.encode()), Some(t), "{t:?}");
        }
    }

    #[test]
    fn mach_traps_encode_negative() {
        let t = XnuTrap::Mach(MachTrap::MachMsgTrap);
        assert!(t.encode() < 0);
        assert_eq!(t.class(), TrapClass::Mach);
    }

    #[test]
    fn decode_rejects_unknown() {
        assert_eq!(XnuTrap::decode(0), None);
        assert_eq!(XnuTrap::decode(9999), None);
        assert_eq!(XnuTrap::decode(-9999), None);
    }

    #[test]
    fn decode_rejects_numbers_outside_every_class() {
        // Negating i64::MIN overflows; it names no trap.
        assert_eq!(XnuTrap::decode(i64::MIN), None);
        assert_eq!(XnuTrap::decode(i64::MAX), None);
        // Out-of-range numbers are not truncated onto real traps.
        let msg = MachTrap::MachMsgTrap.number() as i64;
        assert_eq!(XnuTrap::decode(-(msg + (1 << 32))), None);
        assert_eq!(XnuTrap::decode(0x8000_0000 + 3 + (1 << 32)), None);
        // In-range numbers decode as before.
        assert_eq!(
            XnuTrap::decode(-msg),
            Some(XnuTrap::Mach(MachTrap::MachMsgTrap))
        );
        assert_eq!(XnuTrap::decode(0x8000_0003), Some(XnuTrap::MachDep(3)));
    }

    #[test]
    fn syscall_name_compares_with_raw_strings() {
        let n = SyscallName("open");
        assert_eq!(n.as_str(), "open");
        assert_eq!(n.to_string(), "open");
        assert_eq!(n, "open");
        assert_eq!("open", n);
        assert_ne!(n, "close");
        assert_eq!(SyscallName::from("open"), n);
    }

    #[test]
    fn four_trap_classes() {
        assert_eq!(TrapClass::ALL.len(), 4);
        let mut names: Vec<String> =
            TrapClass::ALL.iter().map(|c| c.to_string()).collect();
        names.dedup();
        assert_eq!(names.len(), 4);
    }
}
