//! Kernel device registry.
//!
//! The paper adds "a small hook in the Linux device add function" so that
//! every registered Linux device also appears as an I/O Kit registry
//! entry (§5.1). The registry is the kernel's own device table, and it
//! only grows, in registration order. The I/O Kit bridge in `cider-core`
//! publishes from it: `CiderSystem::add_device` is the hook point
//! (register the device, make its node, publish its nub), and
//! `CiderSystem::sync_iokit` publishes, in registry order, every device
//! past the count it has already published. A forked kernel clones the
//! table, and its system copies the count, so each device bridges its
//! own devices.

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

/// The kernel's table of devices, in registration order.
#[derive(Debug, Clone, Default)]
pub struct DeviceRegistry {
    devices: Vec<KernelDevice>,
    next_id: u32,
}

impl DeviceRegistry {
    /// Empty registry.
    pub fn new() -> DeviceRegistry {
        DeviceRegistry::default()
    }

    /// Registers a device at the end of the table and returns its id.
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
        self.devices.push(KernelDevice {
            id,
            name: name.into(),
            class: class.into(),
            node_path,
        });
        Ok(id)
    }

    /// Looks up a device by id.
    pub fn get(&self, id: DeviceId) -> Option<&KernelDevice> {
        self.devices.iter().find(|d| d.id == id)
    }

    /// Looks up a device by class name.
    pub fn find_by_class(&self, class: &str) -> Option<&KernelDevice> {
        self.devices.iter().find(|d| d.class == class)
    }

    /// All devices, in registration order.
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
    fn iteration_follows_registration_order() {
        let mut r = DeviceRegistry::new();
        r.add("gpu", "gpu", "/dev/nvhost").unwrap();
        let mut copy = r.clone();
        r.add("touchscreen", "input", "/dev/input/event0").unwrap();
        copy.add("gps", "location", "/dev/gps0").unwrap();
        let names = |r: &DeviceRegistry| -> Vec<String> {
            r.iter().map(|d| d.name.clone()).collect()
        };
        assert_eq!(names(&r), vec!["gpu", "touchscreen"]);
        assert_eq!(names(&copy), vec!["gpu", "gps"]);
    }
}
