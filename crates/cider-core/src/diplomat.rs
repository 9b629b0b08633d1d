//! Diplomatic functions: cross-persona calls into domestic libraries.
//!
//! "A diplomat is a function stub that uses an arbitration process to
//! switch the current thread's persona, invoke a function in the new
//! persona, switch back to the calling function's persona, and return
//! any results" (paper §4.3). [`Diplomat::call`] reproduces the nine
//! arbitration steps verbatim, including the cached symbol resolution,
//! the two `set_persona` syscalls, and the TLS errno conversion.
//!
//! [`DiplomaticLibrary::generate`] reproduces the paper's automation:
//! "this script analyzed exported symbols in the iOS OpenGL ES Mach-O
//! library, searched through a directory of Android ELF shared objects
//! for a matching export, and automatically generated diplomats for each
//! matching function" (§5.3).

use std::collections::BTreeMap;
use std::fmt;

use cider_abi::errno::Errno;
use cider_abi::ids::Tid;
use cider_abi::persona::Persona;
use cider_kernel::kernel::Kernel;

use crate::library::{LibraryHost, NativeFn};
use crate::persona::{persona_ext_mut, set_persona, set_persona_vdso};
use crate::tls::convert_errno_domestic_to_foreign;

/// Cost of the first-call `dlopen`+`dlsym` resolution, ns.
const RESOLVE_NS: u64 = 2_100;
/// Cost of spilling / reloading the argument registers, ns.
const ARG_SPILL_NS: u64 = 4;
/// Cost of the TLS errno conversion, ns.
const ERRNO_CONVERT_NS: u64 = 30;

/// Statistics a diplomatic library accumulates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiplomatStats {
    /// Total diplomat invocations.
    pub calls: u64,
    /// First-call symbol resolutions performed.
    pub resolutions: u64,
}

/// One diplomat stub. A copy shares the cached function, as a copied
/// [`LibraryHost`] shares its export tables: a domestic function keeps
/// its state in the kernel it is called with, so the copy's calls reach
/// the copy's state.
#[derive(Clone)]
pub struct Diplomat {
    /// The foreign symbol this stub replaces.
    pub foreign_symbol: String,
    /// The domestic library expected to provide the implementation.
    pub domestic_lib: String,
    /// The domestic symbol to invoke.
    pub domestic_symbol: String,
    /// Cached resolved function ("storing a pointer to the function in a
    /// locally-scoped static variable for efficient reuse", step 1).
    cached: Option<NativeFn>,
    /// Invocations of this stub.
    pub calls: u64,
    /// Use the hypothetical vDSO persona switch (§6.3 future work;
    /// toggled only by the ablation harness).
    pub fast_switch: bool,
}

impl fmt::Debug for Diplomat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Diplomat")
            .field("foreign", &self.foreign_symbol)
            .field("domestic", &self.domestic_symbol)
            .field("resolved", &self.cached.is_some())
            .field("calls", &self.calls)
            .finish()
    }
}

impl Diplomat {
    /// Creates an unresolved diplomat.
    pub fn new(
        foreign_symbol: impl Into<String>,
        domestic_lib: impl Into<String>,
        domestic_symbol: impl Into<String>,
    ) -> Diplomat {
        Diplomat {
            foreign_symbol: foreign_symbol.into(),
            domestic_lib: domestic_lib.into(),
            domestic_symbol: domestic_symbol.into(),
            cached: None,
            calls: 0,
            fast_switch: false,
        }
    }

    /// Whether the first invocation has resolved the target.
    pub fn is_resolved(&self) -> bool {
        self.cached.is_some()
    }

    /// The arbitration process (§4.3, steps 1–9).
    ///
    /// # Errors
    ///
    /// `ENOSYS` when the domestic symbol cannot be resolved, `EINVAL`
    /// when the calling thread has no persona state for the domestic
    /// persona, plus whatever the domestic function reports.
    pub fn call(
        &mut self,
        k: &mut Kernel,
        host: &LibraryHost,
        tid: Tid,
        args: &[i64],
    ) -> Result<i64, Errno> {
        self.calls += 1;
        let enter_ctx = if k.trace.is_enabled() {
            let ctx = k.trace_ctx(tid);
            k.trace.record(
                ctx,
                cider_trace::EventKind::DiplomatEnter {
                    symbol: self.foreign_symbol.clone().into(),
                },
            );
            Some(ctx)
        } else {
            None
        };
        let result = self.call_inner(k, host, tid, args);
        if let Some(ctx) = enter_ctx {
            let end_ns = k.clock.now_ns();
            k.trace.record(
                cider_trace::TraceContext {
                    ts_ns: end_ns,
                    ..ctx
                },
                cider_trace::EventKind::DiplomatExit {
                    symbol: self.foreign_symbol.clone().into(),
                    ok: result.is_ok(),
                },
            );
            k.trace.metric(
                format_args!("diplomat/{}", self.foreign_symbol),
                |m, n| m.observe(n, end_ns - ctx.ts_ns),
            );
            k.trace.incr("diplomat/calls");
        }
        result
    }

    fn call_inner(
        &mut self,
        k: &mut Kernel,
        host: &LibraryHost,
        tid: Tid,
        args: &[i64],
    ) -> Result<i64, Errno> {
        // (1) First invocation: load the library, locate the entry
        // point, cache the pointer. Loading a domestic library into a
        // foreign app also installs the thread's domestic persona state
        // (the domestic ELF loader runs "cross-compiled as an iOS
        // library", §4.3).
        if self.cached.is_none() {
            let lib = host.get(&self.domestic_lib).ok_or(Errno::ENOSYS)?;
            let f = lib.dlsym(&self.domestic_symbol).ok_or(Errno::ENOSYS)?;
            k.charge_cpu(RESOLVE_NS);
            self.cached = Some(f);
        }
        {
            let linux = k.linux_personality();
            let ext = persona_ext_mut(k, tid)?;
            if !ext.has(Persona::Domestic) {
                ext.install(Persona::Domestic, linux);
            }
        }
        let f = self.cached.clone().expect("resolved above");

        // (2) Arguments stored on the stack.
        k.charge_cpu(ARG_SPILL_NS * args.len() as u64);

        // (3) set_persona to the domestic values.
        let caller = if self.fast_switch {
            set_persona_vdso(k, tid, Persona::Domestic)?
        } else {
            set_persona(k, tid, Persona::Domestic)?
        };

        // (4) Arguments restored from the stack.
        k.charge_cpu(ARG_SPILL_NS * args.len() as u64);

        // (5) Direct invocation through the cached symbol.
        let result = f(k, tid, args);

        // (6) Return value saved on the stack.
        k.charge_cpu(ARG_SPILL_NS);

        // (7) set_persona back to the caller's persona.
        if self.fast_switch {
            set_persona_vdso(k, tid, caller)?;
        } else {
            set_persona(k, tid, caller)?;
        }

        // (8) Domestic TLS values (errno) converted into the foreign
        // TLS area.
        k.charge_cpu(ERRNO_CONVERT_NS);
        if let Err(e) = result {
            let ext = persona_ext_mut(k, tid)?;
            if let Some(dom) = ext.state_mut(Persona::Domestic) {
                dom.tls.set_errno_raw(e.as_raw());
            }
            let dom_tls =
                ext.state(Persona::Domestic).expect("just set").tls.clone();
            if let Some(forn) = ext.state_mut(Persona::Foreign) {
                convert_errno_domestic_to_foreign(&dom_tls, &mut forn.tls);
            }
        }

        // (9) Return value restored; control returns to foreign code.
        result
    }
}

/// A foreign library replaced wholesale by diplomats (e.g. the Cider
/// OpenGL ES library).
#[derive(Debug, Clone)]
pub struct DiplomaticLibrary {
    /// Library name.
    pub name: String,
    diplomats: BTreeMap<String, Diplomat>,
    /// Aggregate statistics.
    pub stats: DiplomatStats,
}

impl DiplomaticLibrary {
    /// An empty diplomatic library.
    pub fn new(name: impl Into<String>) -> DiplomaticLibrary {
        DiplomaticLibrary {
            name: name.into(),
            diplomats: BTreeMap::new(),
            stats: DiplomatStats::default(),
        }
    }

    /// Installs a hand-written diplomat (the paper's "single diplomat to
    /// use targeted functionality" case).
    pub fn install(&mut self, d: Diplomat) {
        self.diplomats.insert(d.foreign_symbol.clone(), d);
    }

    /// The generation script: for every foreign export, search the
    /// domestic libraries for a matching export and generate a diplomat.
    /// Returns the library and the unmatched symbols (which need custom
    /// bridging, like Apple's EAGL extensions).
    pub fn generate(
        name: impl Into<String>,
        foreign_exports: &[&str],
        host: &LibraryHost,
    ) -> (DiplomaticLibrary, Vec<String>) {
        let mut lib = DiplomaticLibrary::new(name);
        let mut unmatched = Vec::new();
        for sym in foreign_exports {
            match host.find_symbol(sym) {
                Some((libname, _)) => {
                    lib.install(Diplomat::new(*sym, libname, *sym));
                }
                None => unmatched.push(sym.to_string()),
            }
        }
        (lib, unmatched)
    }

    /// Invokes the diplomat for a foreign symbol.
    ///
    /// # Errors
    ///
    /// `ENOSYS` for symbols with no diplomat; otherwise whatever the
    /// diplomat reports.
    pub fn call(
        &mut self,
        k: &mut Kernel,
        host: &LibraryHost,
        tid: Tid,
        symbol: &str,
        args: &[i64],
    ) -> Result<i64, Errno> {
        let d = self.diplomats.get_mut(symbol).ok_or(Errno::ENOSYS)?;
        let was_resolved = d.is_resolved();
        let r = d.call(k, host, tid, args);
        self.stats.calls += 1;
        if !was_resolved && d.is_resolved() {
            self.stats.resolutions += 1;
        }
        r
    }

    /// Number of diplomats.
    pub fn len(&self) -> usize {
        self.diplomats.len()
    }

    /// Whether the library is empty.
    pub fn is_empty(&self) -> bool {
        self.diplomats.is_empty()
    }

    /// Looks up a diplomat.
    pub fn get(&self, symbol: &str) -> Option<&Diplomat> {
        self.diplomats.get(symbol)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::NativeLibrary;
    use crate::persona::{attach_persona_ext, persona_ext_mut, persona_of};
    use cider_kernel::profile::DeviceProfile;
    use std::sync::Arc;

    fn setup() -> (Kernel, Tid, LibraryHost) {
        let mut k = Kernel::boot(DeviceProfile::nexus7());
        let (_, tid) = k.spawn_process();
        // Foreign thread with a domestic persona installed for diplomacy.
        attach_persona_ext(&mut k, tid, Persona::Foreign, 0).unwrap();
        persona_ext_mut(&mut k, tid)
            .unwrap()
            .install(Persona::Domestic, 0);
        let mut host = LibraryHost::new();
        let mut gles = NativeLibrary::new("libGLESv2.so");
        gles.export("glClear", Arc::new(|_, _, _| Ok(0)));
        gles.export("glDrawArrays", Arc::new(|_, _, args| Ok(args[2])));
        gles.export("glFail", Arc::new(|_, _, _| Err(Errno::EINVAL)));
        host.register(gles);
        (k, tid, host)
    }

    #[test]
    fn arbitration_switches_and_restores_persona() {
        let (mut k, tid, host) = setup();
        let mut d = Diplomat::new("glClear", "libGLESv2.so", "glClear");
        assert!(!d.is_resolved());
        d.call(&mut k, &host, tid, &[0x4000]).unwrap();
        assert!(d.is_resolved());
        // Back in the foreign persona after the call.
        assert_eq!(persona_of(&k, tid).unwrap(), Persona::Foreign);
        // Two persona switches happened.
        assert_eq!(persona_ext_mut(&mut k, tid).unwrap().switches, 2);
    }

    #[test]
    fn resolution_happens_once() {
        let (mut k, tid, host) = setup();
        let mut d =
            Diplomat::new("glDrawArrays", "libGLESv2.so", "glDrawArrays");
        assert_eq!(d.call(&mut k, &host, tid, &[4, 0, 96]).unwrap(), 96);
        let t0 = k.clock.now_ns();
        d.call(&mut k, &host, tid, &[4, 0, 96]).unwrap();
        let warm = k.clock.now_ns() - t0;
        // Warm calls skip the 2.1 µs resolution but still pay two
        // set_persona syscalls (~0.9 µs each).
        assert!(warm < 2 * RESOLVE_NS, "warm call cost {warm}");
        assert_eq!(d.calls, 2);
    }

    #[test]
    fn errno_converted_into_foreign_tls() {
        let (mut k, tid, host) = setup();
        let mut d = Diplomat::new("glFail", "libGLESv2.so", "glFail");
        assert_eq!(d.call(&mut k, &host, tid, &[]), Err(Errno::EINVAL));
        let ext = persona_ext_mut(&mut k, tid).unwrap();
        // EINVAL is 22 in both numberings; check a divergent one too.
        assert_eq!(ext.state(Persona::Foreign).unwrap().tls.errno_raw(), 22);
    }

    #[test]
    fn missing_symbol_is_enosys() {
        let (mut k, tid, host) = setup();
        let mut d = Diplomat::new("glNope", "libGLESv2.so", "glNope");
        assert_eq!(d.call(&mut k, &host, tid, &[]), Err(Errno::ENOSYS));
        let mut d2 = Diplomat::new("glClear", "libMissing.so", "glClear");
        assert_eq!(d2.call(&mut k, &host, tid, &[]), Err(Errno::ENOSYS));
    }

    #[test]
    fn generation_script_matches_exports() {
        let (_, _, host) = setup();
        let (lib, unmatched) = DiplomaticLibrary::generate(
            "OpenGLES.framework/OpenGLES",
            &["glClear", "glDrawArrays", "EAGLContextSetCurrent"],
            &host,
        );
        assert_eq!(lib.len(), 2);
        assert_eq!(unmatched, vec!["EAGLContextSetCurrent"]);
        assert!(lib.get("glClear").is_some());
    }

    #[test]
    fn diplomatic_library_dispatch_and_stats() {
        let (mut k, tid, host) = setup();
        let (mut lib, _) = DiplomaticLibrary::generate(
            "OpenGLES",
            &["glClear", "glDrawArrays"],
            &host,
        );
        lib.call(&mut k, &host, tid, "glClear", &[]).unwrap();
        lib.call(&mut k, &host, tid, "glClear", &[]).unwrap();
        assert_eq!(
            lib.call(&mut k, &host, tid, "glNope", &[]),
            Err(Errno::ENOSYS)
        );
        assert_eq!(lib.stats.calls, 2);
        assert_eq!(lib.stats.resolutions, 1);
    }
}
