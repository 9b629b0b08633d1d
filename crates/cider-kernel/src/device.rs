//! Kernel device registry and the `device_add` hook.
//!
//! The paper adds "a small hook in the Linux device add function" so that
//! every registered Linux device also appears as an I/O Kit registry
//! entry (§5.1). [`DeviceRegistry::add`] reproduces that hook point: any
//! number of [`DeviceAddHook`]s observe device registration, and the I/O
//! Kit bridge in `cider-core` installs one to publish device-class
//! instances.

use std::sync::Arc;

use cider_abi::errno::Errno;

use crate::vfs::DeviceId;

/// One registered kernel device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelDevice {
    /// Registry id.
    pub id: DeviceId,
    /// Device name, e.g. `"tegra-dc"`.
    pub name: String,
    /// Device class, e.g. `"display"`, `"input"`, `"gpu"`.
    pub class: String,
    /// Device node path in the VFS, e.g. `"/dev/fb0"`.
    pub node_path: String,
}

/// Observer of device registration — the Cider I/O Kit bridge.
///
/// Hooks are `Send + Sync` so a kernel holding them can migrate to a
/// fleet worker thread; observers needing mutation use a `Mutex`.
pub trait DeviceAddHook: Send + Sync {
    /// Called once for every device added after hook installation, and
    /// retroactively for devices already present when the hook installs.
    fn device_added(&self, dev: &KernelDevice);
}

/// The kernel's table of devices plus registered hooks.
#[derive(Default)]
pub struct DeviceRegistry {
    devices: Vec<KernelDevice>,
    hooks: Vec<Arc<dyn DeviceAddHook>>,
    next_id: u32,
}

impl std::fmt::Debug for DeviceRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeviceRegistry")
            .field("devices", &self.devices)
            .field("hooks", &self.hooks.len())
            .finish()
    }
}

impl DeviceRegistry {
    /// Empty registry.
    pub fn new() -> DeviceRegistry {
        DeviceRegistry::default()
    }

    /// Registers a device, fires all hooks, and returns its id.
    ///
    /// # Errors
    ///
    /// `EEXIST` if a device with the same node path is already registered.
    pub fn add(
        &mut self,
        name: impl Into<String>,
        class: impl Into<String>,
        node_path: impl Into<String>,
    ) -> Result<DeviceId, Errno> {
        let node_path = node_path.into();
        if self.devices.iter().any(|d| d.node_path == node_path) {
            return Err(Errno::EEXIST);
        }
        let id = DeviceId(self.next_id);
        self.next_id += 1;
        let dev = KernelDevice {
            id,
            name: name.into(),
            class: class.into(),
            node_path,
        };
        for hook in self.hooks.clone() {
            hook.device_added(&dev);
        }
        self.devices.push(dev);
        Ok(id)
    }

    /// A copy of the device table with no hooks: a hook belongs to the
    /// system that installed it, which installs its own on the copy
    /// with [`DeviceRegistry::attach_hook`].
    pub fn fork_without_hooks(&self) -> DeviceRegistry {
        DeviceRegistry {
            devices: self.devices.clone(),
            hooks: Vec::new(),
            next_id: self.next_id,
        }
    }

    /// Installs a hook that observes only devices added from now on —
    /// for an observer whose owner already accounts for the devices
    /// present (a forked device table, see
    /// [`DeviceRegistry::fork_without_hooks`]).
    pub fn attach_hook(&mut self, hook: Arc<dyn DeviceAddHook>) {
        self.hooks.push(hook);
    }

    /// Installs a hook; it immediately observes all existing devices.
    pub fn add_hook(&mut self, hook: Arc<dyn DeviceAddHook>) {
        for dev in &self.devices {
            hook.device_added(dev);
        }
        self.hooks.push(hook);
    }

    /// Looks up a device by id.
    pub fn get(&self, id: DeviceId) -> Option<&KernelDevice> {
        self.devices.iter().find(|d| d.id == id)
    }

    /// Looks up a device by class name.
    pub fn find_by_class(&self, class: &str) -> Option<&KernelDevice> {
        self.devices.iter().find(|d| d.class == class)
    }

    /// All devices.
    pub fn iter(&self) -> impl Iterator<Item = &KernelDevice> {
        self.devices.iter()
    }

    /// Number of registered devices.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[derive(Default)]
    struct Recorder {
        seen: Mutex<Vec<String>>,
    }

    impl DeviceAddHook for Recorder {
        fn device_added(&self, dev: &KernelDevice) {
            self.seen.lock().unwrap().push(dev.name.clone());
        }
    }

    #[test]
    fn add_and_lookup() {
        let mut r = DeviceRegistry::new();
        let id = r.add("tegra-dc", "display", "/dev/fb0").unwrap();
        assert_eq!(r.get(id).unwrap().class, "display");
        assert_eq!(r.find_by_class("display").unwrap().id, id);
        assert!(r.find_by_class("gpu").is_none());
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn duplicate_node_path_rejected() {
        let mut r = DeviceRegistry::new();
        r.add("a", "x", "/dev/a").unwrap();
        assert_eq!(r.add("b", "y", "/dev/a"), Err(Errno::EEXIST));
    }

    #[test]
    fn hooks_fire_for_new_devices() {
        let mut r = DeviceRegistry::new();
        let rec = Arc::new(Recorder::default());
        r.add_hook(rec.clone());
        r.add("touchscreen", "input", "/dev/input/event0").unwrap();
        assert_eq!(*rec.seen.lock().unwrap(), vec!["touchscreen"]);
    }

    #[test]
    fn hooks_observe_existing_devices_retroactively() {
        let mut r = DeviceRegistry::new();
        r.add("gpu", "gpu", "/dev/nvhost").unwrap();
        let rec = Arc::new(Recorder::default());
        r.add_hook(rec.clone());
        assert_eq!(*rec.seen.lock().unwrap(), vec!["gpu"]);
    }
}
