//! Symbol zones: the compile-time discipline behind duct tape.
//!
//! "Three distinct coding zones are created within the domestic kernel:
//! the domestic, foreign, and duct tape zones. Code in the domestic zone
//! cannot access symbols in \[the\] foreign zone, and code in the foreign
//! zone cannot access symbols in the domestic zone. Both ... can access
//! symbols in the duct tape zone, and the duct tape zone can access
//! symbols in both" (paper §4.2). The paper enforces this with Makefile
//! and preprocessor machinery; here the [`SymbolTable`] enforces it at
//! run time and the duct-taping process (scan → conflict remap → external
//! mapping) is reproduced by [`SymbolTable::import_foreign_object`].

use std::collections::BTreeMap;
use std::fmt;

/// The three coding zones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Zone {
    /// Unmodified domestic (Linux) kernel code.
    Domestic,
    /// Unmodified foreign (XNU) kernel code.
    Foreign,
    /// The adaptation layer, visible to both.
    DuctTape,
}

impl Zone {
    /// The access matrix: may code in `self` reference a symbol defined
    /// in `target`?
    pub fn can_access(self, target: Zone) -> bool {
        match (self, target) {
            (Zone::DuctTape, _) => true,
            (_, Zone::DuctTape) => true,
            (a, b) => a == b,
        }
    }
}

impl fmt::Display for Zone {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Zone::Domestic => "domestic",
            Zone::Foreign => "foreign",
            Zone::DuctTape => "duct-tape",
        };
        f.write_str(s)
    }
}

/// Errors from zone bookkeeping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ZoneError {
    /// A symbol was defined twice within one zone.
    DuplicateInZone(String, Zone),
    /// A reference crossed zones illegally.
    AccessDenied {
        /// Referencing zone.
        from: Zone,
        /// Symbol's zone.
        to: Zone,
        /// Symbol name.
        symbol: String,
    },
    /// The symbol is not defined anywhere.
    Undefined(String),
}

impl fmt::Display for ZoneError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ZoneError::DuplicateInZone(s, z) => {
                write!(f, "symbol `{s}` defined twice in {z} zone")
            }
            ZoneError::AccessDenied { from, to, symbol } => write!(
                f,
                "{from} code may not reference `{symbol}` in the {to} zone"
            ),
            ZoneError::Undefined(s) => write!(f, "undefined symbol `{s}`"),
        }
    }
}

impl std::error::Error for ZoneError {}

/// Report of one foreign-object import — the paper's three-step process.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ImportReport {
    /// Foreign symbols imported unchanged.
    pub imported: Vec<String>,
    /// Conflicting symbols remapped to unique names: `(original, new)`.
    pub remapped: Vec<(String, String)>,
    /// External foreign references satisfied by duct-tape symbols.
    pub externals_mapped: Vec<(String, String)>,
    /// External foreign references with no mapping — implementation work.
    pub externals_unresolved: Vec<String>,
}

/// The kernel-wide symbol table with zone tags.
#[derive(Debug, Clone, Default)]
pub struct SymbolTable {
    symbols: BTreeMap<String, Zone>,
    /// foreign original name → remapped unique name.
    remaps: BTreeMap<String, String>,
    /// foreign external → duct-tape provider symbol.
    external_map: BTreeMap<String, String>,
}

impl SymbolTable {
    /// Empty table.
    pub fn new() -> SymbolTable {
        SymbolTable::default()
    }

    /// Defines a symbol in a zone.
    ///
    /// # Errors
    ///
    /// [`ZoneError::DuplicateInZone`] on redefinition within the zone.
    pub fn define(&mut self, name: &str, zone: Zone) -> Result<(), ZoneError> {
        if let Some(&existing) = self.symbols.get(name) {
            if existing == zone {
                return Err(ZoneError::DuplicateInZone(name.into(), zone));
            }
            // Cross-zone duplicate: permitted only via remapping, which
            // import_foreign_object performs before calling here.
            return Err(ZoneError::DuplicateInZone(name.into(), existing));
        }
        self.symbols.insert(name.to_string(), zone);
        Ok(())
    }

    /// Resolves a reference from code in `from` to `name`, enforcing the
    /// access matrix and following remaps.
    ///
    /// # Errors
    ///
    /// [`ZoneError::Undefined`] or [`ZoneError::AccessDenied`].
    pub fn resolve(&self, from: Zone, name: &str) -> Result<Zone, ZoneError> {
        let effective =
            self.remaps.get(name).map(|s| s.as_str()).unwrap_or(name);
        let &zone = self
            .symbols
            .get(effective)
            .ok_or_else(|| ZoneError::Undefined(name.into()))?;
        if !from.can_access(zone) {
            return Err(ZoneError::AccessDenied {
                from,
                to: zone,
                symbol: name.into(),
            });
        }
        Ok(zone)
    }

    /// Maps a foreign external symbol onto a duct-tape provider.
    ///
    /// # Errors
    ///
    /// [`ZoneError::Undefined`] if the provider is not a defined
    /// duct-tape symbol.
    pub fn map_external(
        &mut self,
        foreign_name: &str,
        ducttape_provider: &str,
    ) -> Result<(), ZoneError> {
        match self.symbols.get(ducttape_provider) {
            Some(Zone::DuctTape) => {
                self.external_map
                    .insert(foreign_name.into(), ducttape_provider.into());
                Ok(())
            }
            _ => Err(ZoneError::Undefined(ducttape_provider.into())),
        }
    }

    /// Imports a foreign object file: the paper's three steps.
    ///
    /// 1. the zones already exist (this table);
    /// 2. external symbols and conflicts with domestic code are
    ///    identified automatically;
    /// 3. conflicts are remapped to unique symbols and externals are
    ///    mapped to duct-tape providers where available.
    ///
    /// `defined` are the symbols the object provides; `externals` the
    /// symbols it references.
    pub fn import_foreign_object(
        &mut self,
        object_name: &str,
        defined: &[&str],
        externals: &[&str],
    ) -> ImportReport {
        let mut report = ImportReport::default();
        for &sym in defined {
            if self.symbols.contains_key(sym) {
                // Conflict with an existing (domestic) symbol: remap.
                let unique = format!("xnu_{object_name}_{sym}");
                self.symbols.insert(unique.clone(), Zone::Foreign);
                self.remaps.insert(sym.to_string(), unique.clone());
                report.remapped.push((sym.to_string(), unique));
            } else {
                self.symbols.insert(sym.to_string(), Zone::Foreign);
                report.imported.push(sym.to_string());
            }
        }
        for &ext in externals {
            // Already satisfiable from the foreign zone?
            if matches!(
                self.symbols.get(ext),
                Some(Zone::Foreign) | Some(Zone::DuctTape)
            ) {
                report
                    .externals_mapped
                    .push((ext.to_string(), ext.to_string()));
                continue;
            }
            if let Some(provider) = self.external_map.get(ext) {
                report
                    .externals_mapped
                    .push((ext.to_string(), provider.clone()));
                continue;
            }
            report.externals_unresolved.push(ext.to_string());
        }
        report
    }

    /// Number of defined symbols.
    pub fn len(&self) -> usize {
        self.symbols.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.symbols.is_empty()
    }

    /// Zone of a symbol, if defined.
    pub fn zone_of(&self, name: &str) -> Option<Zone> {
        let effective =
            self.remaps.get(name).map(|s| s.as_str()).unwrap_or(name);
        self.symbols.get(effective).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_matrix_matches_paper() {
        use Zone::*;
        assert!(Domestic.can_access(Domestic));
        assert!(Domestic.can_access(DuctTape));
        assert!(!Domestic.can_access(Foreign));
        assert!(Foreign.can_access(Foreign));
        assert!(Foreign.can_access(DuctTape));
        assert!(!Foreign.can_access(Domestic));
        assert!(DuctTape.can_access(Domestic));
        assert!(DuctTape.can_access(Foreign));
        assert!(DuctTape.can_access(DuctTape));
    }

    #[test]
    fn define_and_resolve() {
        let mut t = SymbolTable::new();
        t.define("kmalloc", Zone::Domestic).unwrap();
        t.define("dt_zalloc", Zone::DuctTape).unwrap();
        t.define("ipc_port_alloc", Zone::Foreign).unwrap();
        assert_eq!(t.resolve(Zone::Foreign, "dt_zalloc"), Ok(Zone::DuctTape));
        assert!(matches!(
            t.resolve(Zone::Foreign, "kmalloc"),
            Err(ZoneError::AccessDenied { .. })
        ));
        assert!(matches!(
            t.resolve(Zone::Domestic, "ipc_port_alloc"),
            Err(ZoneError::AccessDenied { .. })
        ));
        assert!(matches!(
            t.resolve(Zone::Domestic, "nope"),
            Err(ZoneError::Undefined(_))
        ));
    }

    #[test]
    fn duplicate_definitions_rejected() {
        let mut t = SymbolTable::new();
        t.define("panic", Zone::Domestic).unwrap();
        assert!(t.define("panic", Zone::Domestic).is_err());
        assert!(t.define("panic", Zone::Foreign).is_err());
    }

    #[test]
    fn import_remaps_conflicts() {
        let mut t = SymbolTable::new();
        // Linux already has a `semaphore_create`-ish symbol.
        t.define("semaphore_create", Zone::Domestic).unwrap();
        let report = t.import_foreign_object(
            "pthread_support",
            &["semaphore_create", "psynch_mutexwait"],
            &[],
        );
        assert_eq!(report.imported, vec!["psynch_mutexwait"]);
        assert_eq!(report.remapped.len(), 1);
        let (orig, new) = &report.remapped[0];
        assert_eq!(orig, "semaphore_create");
        assert_eq!(new, "xnu_pthread_support_semaphore_create");
        // Foreign code resolving the original name follows the remap.
        assert_eq!(
            t.resolve(Zone::Foreign, "semaphore_create"),
            Ok(Zone::Foreign)
        );
        // Domestic code still sees its own symbol? The remap shadows the
        // name for everyone, which is why zone_of follows it — domestic
        // lookups in the real system are separate compilation units.
        assert_eq!(t.zone_of("psynch_mutexwait"), Some(Zone::Foreign));
    }

    #[test]
    fn import_maps_externals_to_ducttape() {
        let mut t = SymbolTable::new();
        t.define("dt_lck_mtx_lock", Zone::DuctTape).unwrap();
        t.map_external("lck_mtx_lock", "dt_lck_mtx_lock").unwrap();
        let report = t.import_foreign_object(
            "ipc_port",
            &["ipc_port_alloc"],
            &["lck_mtx_lock", "totally_missing"],
        );
        assert_eq!(
            report.externals_mapped,
            vec![("lck_mtx_lock".to_string(), "dt_lck_mtx_lock".to_string())]
        );
        assert_eq!(report.externals_unresolved, vec!["totally_missing"]);
    }

    #[test]
    fn map_external_requires_ducttape_provider() {
        let mut t = SymbolTable::new();
        t.define("kmalloc", Zone::Domestic).unwrap();
        assert!(t.map_external("zalloc", "kmalloc").is_err());
    }

    #[test]
    fn reuse_across_subsystems() {
        // "the code adaptation layer created for one subsystem is
        // directly reusable for other subsystems" (§4.2): a second import
        // finds its externals already mapped.
        let mut t = SymbolTable::new();
        t.define("dt_lck_mtx_lock", Zone::DuctTape).unwrap();
        t.map_external("lck_mtx_lock", "dt_lck_mtx_lock").unwrap();
        let r1 = t.import_foreign_object(
            "pthread_support",
            &["psynch_cvwait"],
            &["lck_mtx_lock"],
        );
        assert!(r1.externals_unresolved.is_empty());
        let r2 = t.import_foreign_object(
            "ipc_mqueue",
            &["ipc_mqueue_send"],
            &["lck_mtx_lock"],
        );
        assert!(r2.externals_unresolved.is_empty());
    }
}
