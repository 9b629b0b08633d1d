//! The `AppleM2CLCD` framebuffer driver class.
//!
//! "the Cider prototype added a single C++ file in the Nexus 7 display
//! driver's source tree that defines a class named AppleM2CLCD ... a thin
//! wrapper around the Linux device driver's functionality. The class is
//! instantiated and registered as a driver class instance with I/O Kit
//! through a small interface function called on Linux kernel boot"
//! (paper §5.1). iOS user space then queries the framebuffer "as a
//! standard iOS device" through the I/O Kit registry and a user client.

use cider_core::state::with_state;
use cider_core::system::CiderSystem;
use cider_ducttape::zone::Zone;
use cider_xnu::iokit::registry::{EntryId, IoDriver, MatchRule};
use cider_xnu::kern_return::{KernResult, KernReturn};

/// External-method selectors of the framebuffer user client (the
/// `IOMobileFramebuffer` surface iOS expects).
pub mod selectors {
    /// Returns `[width, height]`.
    pub const GET_SIZE: u32 = 0;
    /// Presents a frame; returns the frame counter.
    pub const SWAP_SUBMIT: u32 = 1;
    /// Returns the vendor string in the data payload.
    pub const GET_VENDOR: u32 = 2;
}

/// The driver class instance: a thin wrapper over the Linux display
/// driver, conforming to the `IOMobileFramebuffer` interface. The frame
/// counter is the instance's own state, so a copied registry's driver
/// counts its own frames.
#[derive(Debug, Clone)]
pub struct AppleM2Clcd {
    width: u64,
    height: u64,
    frames: u64,
    started: bool,
}

impl AppleM2Clcd {
    /// Creates the wrapper for the Nexus 7 panel.
    pub fn new() -> AppleM2Clcd {
        AppleM2Clcd {
            width: 1280,
            height: 800,
            frames: 0,
            started: false,
        }
    }
}

impl Default for AppleM2Clcd {
    fn default() -> Self {
        Self::new()
    }
}

impl IoDriver for AppleM2Clcd {
    fn class_name(&self) -> &'static str {
        "AppleM2CLCD"
    }

    fn start(&mut self, _provider: EntryId) -> bool {
        self.started = true;
        true
    }

    fn external_method(
        &mut self,
        selector: u32,
        _input: &[u64],
        _in_data: &[u8],
    ) -> KernResult<(Vec<u64>, Vec<u8>)> {
        match selector {
            selectors::GET_SIZE => {
                Ok((vec![self.width, self.height], Vec::new()))
            }
            selectors::SWAP_SUBMIT => {
                self.frames += 1;
                Ok((vec![self.frames], Vec::new()))
            }
            selectors::GET_VENDOR => {
                Ok((Vec::new(), b"tegra-dc (AppleM2CLCD wrapper)".to_vec()))
            }
            _ => Err(KernReturn::MigBadId),
        }
    }

    fn clone_box(&self) -> Box<dyn IoDriver> {
        Box::new(self.clone())
    }
}

/// Registers the driver class with the in-kernel C++ runtime and I/O
/// Kit matching — the "small interface function called on Linux kernel
/// boot". The class constructor captures nothing, so forked systems
/// share it.
pub fn register_display_driver(sys: &mut CiderSystem) {
    with_state(&mut sys.kernel, |_, st| {
        let cider_core::state::CiderState {
            ducttape,
            cxx,
            iokit,
            ..
        } = st;
        // The single C++ file added to the display driver's tree.
        cxx.compile_object(
            &mut ducttape.symbols,
            "AppleM2CLCD.cpp",
            &["AppleM2CLCD_start", "AppleM2CLCD_externalMethod"],
            &["zalloc", "kprintf"],
        );
        cxx.register_driver_class(
            iokit,
            &mut ducttape.symbols,
            "AppleM2CLCD",
            Zone::Domestic,
            || Box::new(AppleM2Clcd::new()),
        );
        iokit.register_personality(MatchRule {
            driver_class: "AppleM2CLCD".into(),
            provider_class: "IODisplayNub".into(),
            name_match: None,
            probe_score: 1000,
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use cider_kernel::profile::DeviceProfile;

    #[test]
    fn driver_matches_display_nub_and_serves_methods() {
        let mut sys = CiderSystem::new(DeviceProfile::nexus7());
        register_display_driver(&mut sys);
        with_state(&mut sys.kernel, |_, st| {
            // The nub published by the device_add bridge got matched.
            let nub = st.iokit.find_service("IODisplayNub").unwrap();
            let conn = st.iokit.service_open(nub).unwrap();
            let (out, _) = st
                .iokit
                .connect_call_method(conn, selectors::GET_SIZE, &[], &[])
                .unwrap();
            assert_eq!(out, vec![1280, 800]);
            for frame in 1..=2 {
                let (out, _) = st
                    .iokit
                    .connect_call_method(
                        conn,
                        selectors::SWAP_SUBMIT,
                        &[],
                        &[],
                    )
                    .unwrap();
                assert_eq!(out, vec![frame]);
            }
            let (_, vendor) = st
                .iokit
                .connect_call_method(conn, selectors::GET_VENDOR, &[], &[])
                .unwrap();
            assert!(String::from_utf8_lossy(&vendor).contains("tegra"));
            assert_eq!(
                st.iokit
                    .connect_call_method(conn, 99, &[], &[])
                    .unwrap_err(),
                KernReturn::MigBadId
            );
        });
    }

    #[test]
    fn driver_entry_appears_in_registry() {
        let mut sys = CiderSystem::new(DeviceProfile::nexus7());
        register_display_driver(&mut sys);
        with_state(&mut sys.kernel, |_, st| {
            assert!(st.iokit.find_service("AppleM2CLCD").is_some());
            assert!(st
                .cxx
                .objects()
                .iter()
                .any(|o| o.name == "AppleM2CLCD.cpp"));
        });
    }
}
