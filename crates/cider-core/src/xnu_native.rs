//! The native XNU kernel personality — the iPad mini configuration.
//!
//! The paper's fourth measurement configuration runs iOS binaries on a
//! real iOS device. This personality models that kernel: the same trap
//! surface and dispatch as [`XnuPersonality`] but with
//! **no translation layer** — traps land directly on native
//! implementations, signals are delivered in XNU numbering without
//! conversion work, and no persona machinery exists.

use cider_abi::ids::Tid;
use cider_abi::signal::{sigframe, Signal};
use cider_abi::syscall::SyscallName;
use cider_kernel::dispatch::{
    DispatchError, Personality, SyscallArgs, UserTrapResult,
};
use cider_kernel::kernel::Kernel;
use cider_xnu::kern_return::KernReturn;

use crate::xnu_abi::XnuPersonality;

/// A native XNU kernel ABI (no Cider, no translation).
#[derive(Debug, Default)]
pub struct XnuNativePersonality {
    inner: XnuPersonality,
}

impl XnuNativePersonality {
    /// Builds the personality.
    ///
    /// # Panics
    ///
    /// Panics if the underlying XNU dispatch tables collide (a bug by
    /// construction); fallible callers use
    /// [`XnuNativePersonality::try_new`].
    pub fn new() -> XnuNativePersonality {
        XnuNativePersonality::try_new()
            .expect("static XNU dispatch tables are collision-free")
    }

    /// Builds the personality, surfacing table collisions as
    /// [`DispatchError`] instead of panicking.
    ///
    /// # Errors
    ///
    /// [`DispatchError::Collision`] if two handlers claim one number.
    pub fn try_new() -> Result<XnuNativePersonality, DispatchError> {
        Ok(XnuNativePersonality {
            inner: XnuPersonality::try_new()?,
        })
    }
}

impl Personality for XnuNativePersonality {
    fn name(&self) -> &'static str {
        "xnu-native"
    }

    fn trap(
        &self,
        k: &mut Kernel,
        tid: Tid,
        number: i64,
        args: &SyscallArgs,
    ) -> UserTrapResult {
        // Native path: no translation charge, and diag traps succeed.
        self.inner
            .dispatch(k, tid, number, args, KernReturn::Success)
    }

    fn sigframe_bytes(&self) -> usize {
        sigframe::XNU_FRAME_BYTES
    }

    fn signal_number(&self, sig: Signal) -> Option<i32> {
        // XNU generates signals in its own numbering natively — the
        // renumbering is a table index, not translation work.
        sig.to_xnu().map(|x| x.as_raw())
    }

    fn signal_translation_ns(&self) -> u64 {
        0
    }

    fn syscall_name(&self, number: i64) -> Option<SyscallName> {
        self.inner.syscall_name(number)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::CiderState;
    use crate::xnu_abi::{TRANSLATE_ARG_NS, TRANSLATE_ENTRY_NS};
    use cider_abi::syscall::{MachTrap, XnuSyscall, XnuTrap};
    use cider_kernel::dispatch::PersonalityRef;
    use cider_kernel::profile::DeviceProfile;
    use std::sync::Arc;

    /// A nexus7 kernel with one process whose thread traps through
    /// `personality`; `cider` also turns on the persona check.
    fn kernel_with(personality: PersonalityRef, cider: bool) -> (Kernel, Tid) {
        let mut k = Kernel::boot(DeviceProfile::nexus7());
        k.extensions.insert(CiderState::new());
        let id = k.register_personality(personality);
        if cider {
            k.enable_cider();
        }
        let (_, tid) = k.spawn_process();
        k.thread_mut(tid).unwrap().personality = id;
        (k, tid)
    }

    /// Virtual nanoseconds one trap takes.
    fn trap_ns(k: &mut Kernel, tid: Tid, nr: i64) -> u64 {
        let t0 = k.clock.now_ns();
        let r = k.trap(tid, nr, &SyscallArgs::none());
        assert!(!r.flags.carry, "trap {nr} failed");
        k.clock.now_ns() - t0
    }

    /// The paper's null-syscall split (§6.2): a translated trap costs
    /// the native one plus the persona check, the entry translation
    /// and one register translation per argument register — nothing
    /// else, on a Unix-class and on a Mach-class trap alike.
    #[test]
    fn translated_trap_costs_native_plus_translation() {
        let (mut native, ntid) =
            kernel_with(Arc::new(XnuNativePersonality::new()), false);
        let (mut cider, ctid) =
            kernel_with(Arc::new(XnuPersonality::new()), true);
        let overhead = TRANSLATE_ENTRY_NS
            + TRANSLATE_ARG_NS * 7
            + cider.profile.persona_check_ns;
        assert_eq!(overhead, 159, "nexus7");
        for trap in [
            XnuTrap::Unix(XnuSyscall::Getpid),
            XnuTrap::Mach(MachTrap::MachReplyPort),
        ] {
            let nr = trap.encode();
            let native_cost = trap_ns(&mut native, ntid, nr);
            let cider_cost = trap_ns(&mut cider, ctid, nr);
            assert_eq!(cider_cost, native_cost + overhead, "{trap:?}");
        }
    }

    #[test]
    fn native_traps_are_named_in_traces() {
        let (mut k, tid) =
            kernel_with(Arc::new(XnuNativePersonality::new()), false);
        k.trace = cider_trace::TraceSink::enabled_default();
        trap_ns(&mut k, tid, XnuTrap::Unix(XnuSyscall::Getpid).encode());
        let latencies = k.trace.snapshot().unwrap().metrics.histograms;
        assert!(
            latencies.contains_key("syscall/foreign/getpid"),
            "{:?}",
            latencies.keys()
        );
    }

    #[test]
    fn native_signal_shape() {
        let p = XnuNativePersonality::new();
        assert_eq!(p.sigframe_bytes(), sigframe::XNU_FRAME_BYTES);
        assert_eq!(p.signal_translation_ns(), 0);
        assert_eq!(p.signal_number(Signal::SIGCHLD), Some(20));
    }
}
