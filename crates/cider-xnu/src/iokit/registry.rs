//! The I/O Kit registry, service matching, and user clients.
//!
//! This is the core of Apple's driver framework (the XNU `iokit` source
//! directory): a tree of registry entries with OSObject property tables,
//! driver classes instantiated through `OSMetaClass` (the reflection hook
//! Cider's in-kernel C++ runtime provides), provider/driver matching, and
//! `IOUserClient` connections whose external methods are the opaque
//! device-specific calls iOS libraries make.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use crate::iokit::osobject::{OsArena, OsId, OsValue};
use crate::kern_return::{KernResult, KernReturn};

/// Identifier of a registry entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EntryId(pub u32);

/// Identifier of an open user-client connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct UserClientId(pub u32);

/// A driver class instance — what a C++ `IOService` subclass object is.
/// `cider-gfx` implements this for `AppleM2CLCD`.
pub trait IoDriver: Send {
    /// The C++ class name.
    fn class_name(&self) -> &'static str;

    /// `IOService::start`: bind to the provider; return `false` to veto.
    fn start(&mut self, provider: EntryId) -> bool;

    /// `IOUserClient::externalMethod`: the opaque selector-based call
    /// surface user space reaches through Mach IPC.
    ///
    /// # Errors
    ///
    /// `MigBadId` for unknown selectors; driver-specific codes otherwise.
    fn external_method(
        &mut self,
        selector: u32,
        input: &[u64],
        in_data: &[u8],
    ) -> KernResult<(Vec<u64>, Vec<u8>)>;

    /// A copy of this instance with its own state, for a copied
    /// registry (`IoKit`'s `Clone`).
    fn clone_box(&self) -> Box<dyn IoDriver>;
}

/// An `OSMetaClass` constructor. It captures nothing mutable, so forked
/// registries share it.
pub type DriverFactory = Arc<dyn Fn() -> Box<dyn IoDriver> + Send + Sync>;

/// One registry entry (device nub or driver instance).
pub struct RegistryEntry {
    /// Entry id.
    pub id: EntryId,
    /// C++ class name (`"AppleM2CLCD"`, `"IOService"`, ...).
    pub class_name: String,
    /// Instance name in the plane.
    pub name: String,
    /// Property dictionary (owned reference in the arena).
    pub properties: OsId,
    /// Parent in the service plane.
    pub parent: Option<EntryId>,
    /// Children in the service plane.
    pub children: Vec<EntryId>,
    /// Attached driver instance, if this entry is a started driver.
    pub driver: Option<Box<dyn IoDriver>>,
}

impl Clone for RegistryEntry {
    fn clone(&self) -> RegistryEntry {
        RegistryEntry {
            id: self.id,
            class_name: self.class_name.clone(),
            name: self.name.clone(),
            properties: self.properties,
            parent: self.parent,
            children: self.children.clone(),
            driver: self.driver.as_ref().map(|d| d.clone_box()),
        }
    }
}

impl fmt::Debug for RegistryEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RegistryEntry")
            .field("id", &self.id)
            .field("class", &self.class_name)
            .field("name", &self.name)
            .field("children", &self.children)
            .field("has_driver", &self.driver.is_some())
            .finish()
    }
}

/// A matching rule: which provider (nub) classes a driver class attaches
/// to — the `IOKitPersonalities` entry of a driver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatchRule {
    /// The driver class to instantiate via OSMetaClass.
    pub driver_class: String,
    /// Provider class the rule matches (`IOProviderClass`).
    pub provider_class: String,
    /// Optional name match (`IONameMatch`).
    pub name_match: Option<String>,
    /// Probe score; highest wins when several rules match.
    pub probe_score: i32,
}

/// `OSMetaClass`: the class registry the in-kernel C++ runtime maintains,
/// used to instantiate driver objects by name.
#[derive(Clone, Default)]
pub struct OsMetaClass {
    factories: BTreeMap<String, DriverFactory>,
}

impl fmt::Debug for OsMetaClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OsMetaClass")
            .field("classes", &self.factories.keys().collect::<Vec<_>>())
            .finish()
    }
}

impl OsMetaClass {
    /// Registers a class constructor.
    pub fn register_class(
        &mut self,
        name: impl Into<String>,
        factory: impl Fn() -> Box<dyn IoDriver> + Send + Sync + 'static,
    ) {
        self.factories.insert(name.into(), Arc::new(factory));
    }

    /// Instantiates a class by name.
    pub fn instantiate(&self, name: &str) -> Option<Box<dyn IoDriver>> {
        self.factories.get(name).map(|f| f())
    }
}

#[derive(Clone)]
struct UserClient {
    entry: EntryId,
    calls: u64,
}

/// The I/O Kit subsystem: registry + matching + user clients.
///
/// `clone` is deep: every attached driver is copied through
/// [`IoDriver::clone_box`]; only the class constructors are shared.
#[derive(Clone, Default)]
pub struct IoKit {
    /// Property-object arena.
    pub arena: OsArena,
    entries: BTreeMap<u32, RegistryEntry>,
    next_entry: u32,
    root: Option<EntryId>,
    /// The class registry (public so the C++ runtime shim can register).
    pub meta: OsMetaClass,
    rules: Vec<MatchRule>,
    clients: BTreeMap<u32, UserClient>,
    next_client: u32,
    /// Matches performed (diagnostics).
    pub matches_made: u64,
}

impl fmt::Debug for IoKit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("IoKit")
            .field("entries", &self.entries.len())
            .field("rules", &self.rules.len())
            .field("clients", &self.clients.len())
            .finish()
    }
}

impl IoKit {
    /// Creates the subsystem with an `IORegistryEntry` root.
    pub fn new() -> IoKit {
        let mut k = IoKit::default();
        let props = k.arena.dictionary();
        let root =
            k.insert_entry("IOPlatformExpertDevice", "J33", props, None);
        k.root = Some(root);
        k
    }

    /// The registry root.
    pub fn root(&self) -> EntryId {
        self.root.expect("constructed with root")
    }

    fn insert_entry(
        &mut self,
        class_name: impl Into<String>,
        name: impl Into<String>,
        properties: OsId,
        parent: Option<EntryId>,
    ) -> EntryId {
        self.next_entry += 1;
        let id = EntryId(self.next_entry);
        self.entries.insert(
            id.0,
            RegistryEntry {
                id,
                class_name: class_name.into(),
                name: name.into(),
                properties,
                parent,
                children: Vec::new(),
                driver: None,
            },
        );
        if let Some(p) = parent {
            if let Some(pe) = self.entries.get_mut(&p.0) {
                pe.children.push(id);
            }
        }
        id
    }

    /// Publishes a device nub (device class instance) under the root —
    /// what Cider's Linux `device_add` hook calls for every Linux device.
    /// Returns the new entry.
    pub fn publish_nub(
        &mut self,
        class_name: impl Into<String>,
        name: impl Into<String>,
        props: &[(&str, OsValue)],
    ) -> EntryId {
        let dict = self.arena.dictionary();
        for (k, v) in props {
            let vid = self.arena.alloc(v.clone());
            self.arena.dict_set(dict, *k, vid);
            self.arena.release(vid);
        }
        let root = self.root();
        let id = self.insert_entry(class_name, name, dict, Some(root));
        self.run_matching();
        id
    }

    /// Registers a driver personality and immediately re-runs matching
    /// (drivers can arrive after their nubs).
    pub fn register_personality(&mut self, rule: MatchRule) {
        self.rules.push(rule);
        self.run_matching();
    }

    /// The matching pass: for every un-driven nub, find the best rule,
    /// instantiate the driver class via OSMetaClass, and `start` it.
    fn run_matching(&mut self) {
        let nub_ids: Vec<EntryId> = self
            .entries
            .values()
            .filter(|e| {
                e.driver.is_none()
                    && !e
                        .children
                        .iter()
                        .any(|c| self.entries[&c.0].driver.is_some())
            })
            .map(|e| e.id)
            .collect();
        for nub in nub_ids {
            let (class, name) = {
                let e = &self.entries[&nub.0];
                (e.class_name.clone(), e.name.clone())
            };
            let best = self
                .rules
                .iter()
                .filter(|r| {
                    r.provider_class == class
                        && r.name_match
                            .as_deref()
                            .map(|n| n == name)
                            .unwrap_or(true)
                })
                .max_by_key(|r| r.probe_score)
                .cloned();
            let Some(rule) = best else { continue };
            let Some(mut driver) = self.meta.instantiate(&rule.driver_class)
            else {
                continue;
            };
            if !driver.start(nub) {
                continue;
            }
            let props = self.arena.dictionary();
            let drv_entry = self.insert_entry(
                rule.driver_class.clone(),
                rule.driver_class.clone(),
                props,
                Some(nub),
            );
            self.entries
                .get_mut(&drv_entry.0)
                .expect("just inserted")
                .driver = Some(driver);
            self.matches_made += 1;
        }
    }

    /// `IOServiceGetMatchingService`: first entry of a class.
    pub fn find_service(&self, class_name: &str) -> Option<EntryId> {
        self.entries
            .values()
            .find(|e| e.class_name == class_name)
            .map(|e| e.id)
    }

    /// All entries of a class.
    pub fn find_services(&self, class_name: &str) -> Vec<EntryId> {
        self.entries
            .values()
            .filter(|e| e.class_name == class_name)
            .map(|e| e.id)
            .collect()
    }

    /// Borrow an entry.
    pub fn entry(&self, id: EntryId) -> Option<&RegistryEntry> {
        self.entries.get(&id.0)
    }

    /// Reads a string property from an entry.
    pub fn property_string(&self, id: EntryId, key: &str) -> Option<&str> {
        let e = self.entry(id)?;
        self.arena.dict_get_string(e.properties, key)
    }

    /// `IOServiceOpen`: opens a user-client connection to a *driven*
    /// service (the entry itself or its attached driver child).
    ///
    /// # Errors
    ///
    /// `InvalidArgument` for unknown entries, `InvalidCapability` when no
    /// driver is attached anywhere at this entry.
    pub fn service_open(&mut self, id: EntryId) -> KernResult<UserClientId> {
        let target = self.driver_entry_for(id)?;
        self.next_client += 1;
        let cid = UserClientId(self.next_client);
        self.clients.insert(
            cid.0,
            UserClient {
                entry: target,
                calls: 0,
            },
        );
        Ok(cid)
    }

    fn driver_entry_for(&self, id: EntryId) -> KernResult<EntryId> {
        let e = self.entries.get(&id.0).ok_or(KernReturn::InvalidArgument)?;
        if e.driver.is_some() {
            return Ok(id);
        }
        for c in &e.children {
            if self.entries[&c.0].driver.is_some() {
                return Ok(*c);
            }
        }
        Err(KernReturn::InvalidCapability)
    }

    /// `IOConnectCallMethod`: dispatches an external method on an open
    /// connection.
    ///
    /// # Errors
    ///
    /// `InvalidArgument` for unknown connections; driver errors otherwise.
    pub fn connect_call_method(
        &mut self,
        client: UserClientId,
        selector: u32,
        input: &[u64],
        in_data: &[u8],
    ) -> KernResult<(Vec<u64>, Vec<u8>)> {
        let entry = {
            let c = self
                .clients
                .get_mut(&client.0)
                .ok_or(KernReturn::InvalidArgument)?;
            c.calls += 1;
            c.entry
        };
        let e = self
            .entries
            .get_mut(&entry.0)
            .ok_or(KernReturn::InvalidArgument)?;
        let driver = e.driver.as_mut().ok_or(KernReturn::InvalidCapability)?;
        driver.external_method(selector, input, in_data)
    }

    /// `IOServiceClose`.
    ///
    /// # Errors
    ///
    /// `InvalidArgument` for unknown connections.
    pub fn service_close(&mut self, client: UserClientId) -> KernResult<()> {
        self.clients
            .remove(&client.0)
            .map(|_| ())
            .ok_or(KernReturn::InvalidArgument)
    }

    /// Number of open user clients.
    pub fn open_clients(&self) -> usize {
        self.clients.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct TestDriver {
        started: bool,
    }

    impl IoDriver for TestDriver {
        fn class_name(&self) -> &'static str {
            "TestDriver"
        }
        fn start(&mut self, _provider: EntryId) -> bool {
            self.started = true;
            true
        }
        fn external_method(
            &mut self,
            selector: u32,
            input: &[u64],
            _in_data: &[u8],
        ) -> KernResult<(Vec<u64>, Vec<u8>)> {
            match selector {
                0 => Ok((vec![input.iter().sum()], Vec::new())),
                _ => Err(KernReturn::MigBadId),
            }
        }
        fn clone_box(&self) -> Box<dyn IoDriver> {
            Box::new(TestDriver {
                started: self.started,
            })
        }
    }

    fn iokit_with_driver() -> IoKit {
        let mut k = IoKit::new();
        k.meta.register_class("TestDriver", || {
            Box::new(TestDriver { started: false })
        });
        k.register_personality(MatchRule {
            driver_class: "TestDriver".into(),
            provider_class: "IODisplayNub".into(),
            name_match: None,
            probe_score: 1000,
        });
        k
    }

    #[test]
    fn publish_and_match() {
        let mut k = iokit_with_driver();
        let nub = k.publish_nub(
            "IODisplayNub",
            "fb0",
            &[("IOLinuxDevice", OsValue::String("/dev/fb0".into()))],
        );
        assert_eq!(k.matches_made, 1);
        // The driver entry is a child of the nub.
        let e = k.entry(nub).unwrap();
        assert_eq!(e.children.len(), 1);
        assert_eq!(k.entry(e.children[0]).unwrap().class_name, "TestDriver");
        assert_eq!(k.property_string(nub, "IOLinuxDevice"), Some("/dev/fb0"));
    }

    #[test]
    fn matching_runs_when_driver_arrives_late() {
        let mut k = IoKit::new();
        k.publish_nub("IODisplayNub", "fb0", &[]);
        assert_eq!(k.matches_made, 0);
        k.meta.register_class("TestDriver", || {
            Box::new(TestDriver { started: false })
        });
        k.register_personality(MatchRule {
            driver_class: "TestDriver".into(),
            provider_class: "IODisplayNub".into(),
            name_match: None,
            probe_score: 0,
        });
        assert_eq!(k.matches_made, 1);
    }

    #[test]
    fn name_match_filters() {
        let mut k = IoKit::new();
        k.meta.register_class("TestDriver", || {
            Box::new(TestDriver { started: false })
        });
        k.register_personality(MatchRule {
            driver_class: "TestDriver".into(),
            provider_class: "IODisplayNub".into(),
            name_match: Some("fb1".into()),
            probe_score: 0,
        });
        k.publish_nub("IODisplayNub", "fb0", &[]);
        assert_eq!(k.matches_made, 0);
        k.publish_nub("IODisplayNub", "fb1", &[]);
        assert_eq!(k.matches_made, 1);
    }

    #[test]
    fn user_client_external_method() {
        let mut k = iokit_with_driver();
        let nub = k.publish_nub("IODisplayNub", "fb0", &[]);
        let conn = k.service_open(nub).unwrap();
        let (out, _) =
            k.connect_call_method(conn, 0, &[2, 3, 4], &[]).unwrap();
        assert_eq!(out, vec![9]);
        assert_eq!(
            k.connect_call_method(conn, 99, &[], &[]).unwrap_err(),
            KernReturn::MigBadId
        );
        k.service_close(conn).unwrap();
        assert_eq!(k.open_clients(), 0);
        assert_eq!(
            k.service_close(conn).unwrap_err(),
            KernReturn::InvalidArgument
        );
    }

    #[test]
    fn open_undriven_service_fails() {
        let mut k = IoKit::new();
        let nub = k.publish_nub("IOUnknownNub", "x", &[]);
        assert_eq!(
            k.service_open(nub).unwrap_err(),
            KernReturn::InvalidCapability
        );
    }

    #[test]
    fn find_services_by_class() {
        let mut k = iokit_with_driver();
        k.publish_nub("IODisplayNub", "fb0", &[]);
        k.publish_nub("IODisplayNub", "fb1", &[]);
        assert_eq!(k.find_services("IODisplayNub").len(), 2);
        assert!(k.find_service("TestDriver").is_some());
        assert!(k.find_service("Nope").is_none());
    }
}
