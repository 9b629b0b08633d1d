//! The in-kernel C++ runtime and the Makefile support for compiling
//! foreign C++ objects.
//!
//! "To directly compile the I/O Kit framework, Cider added a basic C++
//! runtime to the Linux kernel based on Android's Bionic. Linux kernel
//! Makefile support was added such that compilation of C++ files from
//! within the kernel required nothing more than assigning an object name
//! to the `obj-y` Makefile variable" (paper §5.1).
//!
//! [`CxxRuntime`] models that runtime: a registry of constructible C++
//! classes (backed by I/O Kit's `OSMetaClass`) plus the `obj-y` list of
//! compiled foreign objects, with each object's import run through the
//! symbol-zone machinery.

use cider_xnu::iokit::{IoDriver, IoKit};

use crate::zone::{ImportReport, SymbolTable, Zone};

/// One C++ object file compiled into the kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelObject {
    /// Object name as it appears in `obj-y` (e.g. `"IOService.o"`).
    pub name: String,
    /// Import report from the symbol scan.
    pub report: ImportReport,
}

/// The C++ runtime Cider adds to the Linux kernel.
#[derive(Debug, Clone, Default)]
pub struct CxxRuntime {
    obj_y: Vec<KernelObject>,
}

impl CxxRuntime {
    /// Empty runtime.
    pub fn new() -> CxxRuntime {
        CxxRuntime::default()
    }

    /// Compiles a foreign C++ object into the kernel: appends it to
    /// `obj-y` and runs the duct-tape symbol import.
    pub fn compile_object(
        &mut self,
        symbols: &mut SymbolTable,
        name: &str,
        defined: &[&str],
        externals: &[&str],
    ) -> &KernelObject {
        let report = symbols.import_foreign_object(
            name.trim_end_matches(".o"),
            defined,
            externals,
        );
        self.obj_y.push(KernelObject {
            name: name.to_string(),
            report,
        });
        self.obj_y.last().expect("just pushed")
    }

    /// Registers a driver class with I/O Kit's `OSMetaClass` — what a
    /// C++ static constructor does when its object is linked in. The
    /// class symbol is defined in the *domestic* zone when the driver is
    /// a thin wrapper around a Linux driver (like `AppleM2CLCD`), since
    /// such wrappers live in the domestic tree.
    pub fn register_driver_class(
        &mut self,
        iokit: &mut IoKit,
        symbols: &mut SymbolTable,
        class_name: &str,
        zone: Zone,
        factory: impl Fn() -> Box<dyn IoDriver> + Send + Sync + 'static,
    ) {
        // A driver class name may legitimately already exist if the
        // object defining it was compiled first.
        let _ = symbols.define(class_name, zone);
        iokit.meta.register_class(class_name, factory);
    }

    /// The `obj-y` list.
    pub fn objects(&self) -> &[KernelObject] {
        &self.obj_y
    }

    /// Unresolved externals across all compiled objects — the
    /// "implementation effort within the duct tape or domestic zone" the
    /// paper mentions.
    pub fn unresolved_externals(&self) -> Vec<&str> {
        self.obj_y
            .iter()
            .flat_map(|o| o.report.externals_unresolved.iter())
            .map(|s| s.as_str())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::DuctTapeState;
    use cider_xnu::iokit::EntryId;
    use cider_xnu::kern_return::{KernResult, KernReturn};

    struct NullDriver;
    impl IoDriver for NullDriver {
        fn class_name(&self) -> &'static str {
            "NullDriver"
        }
        fn start(&mut self, _p: EntryId) -> bool {
            true
        }
        fn external_method(
            &mut self,
            _s: u32,
            _i: &[u64],
            _d: &[u8],
        ) -> KernResult<(Vec<u64>, Vec<u8>)> {
            Err(KernReturn::MigBadId)
        }
        fn clone_box(&self) -> Box<dyn IoDriver> {
            Box::new(NullDriver)
        }
    }

    #[test]
    fn obj_y_accumulates_compiled_objects() {
        let mut st = DuctTapeState::new();
        let mut cxx = CxxRuntime::new();
        let obj = cxx.compile_object(
            &mut st.symbols,
            "IOService.o",
            &["IOService_start", "IOService_probe"],
            &["zalloc", "lck_mtx_lock"],
        );
        assert!(obj.report.externals_unresolved.is_empty());
        assert_eq!(cxx.objects().len(), 1);
        assert_eq!(cxx.objects()[0].name, "IOService.o");
    }

    #[test]
    fn unresolved_externals_surface() {
        let mut st = DuctTapeState::new();
        let mut cxx = CxxRuntime::new();
        cxx.compile_object(
            &mut st.symbols,
            "IODMAController.o",
            &["IODMAController_start"],
            &["dma_map_hw_channel"],
        );
        assert_eq!(cxx.unresolved_externals(), vec!["dma_map_hw_channel"]);
    }

    #[test]
    fn driver_class_registration_reaches_osmetaclass() {
        let mut st = DuctTapeState::new();
        let mut cxx = CxxRuntime::new();
        let mut iokit = IoKit::new();
        cxx.register_driver_class(
            &mut iokit,
            &mut st.symbols,
            "NullDriver",
            Zone::Domestic,
            || Box::new(NullDriver),
        );
        assert!(iokit.meta.instantiate("NullDriver").is_some());
        assert_eq!(st.symbols.zone_of("NullDriver"), Some(Zone::Domestic));
    }
}
