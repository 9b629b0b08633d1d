//! The canonical iOS framework closure.
//!
//! The paper measured that "the iOS dynamic linker, dyld, maps 90 MB of
//! extra memory from 115 different libraries, irrespective of whether or
//! not those libraries are used by the binary" (§6.2). This module
//! generates that closure: the public frameworks and system dylibs every
//! iOS app links, plus the private frameworks they pull in transitively,
//! wired into a dependency DAG whose closure from `UIKit` + `libSystem`
//! covers exactly [`FRAMEWORK_COUNT`] images totalling
//! [`TOTAL_MAPPED_BYTES`] of mapped memory.

use cider_kernel::vfs::Vfs;

use crate::macho::MachOBuilder;

/// Number of dylibs dyld maps into every iOS process (paper §6.2).
pub const FRAMEWORK_COUNT: usize = 115;

/// Total virtual memory the closure maps (paper §6.2: "90 MB").
pub const TOTAL_MAPPED_BYTES: u64 = 90 * 1024 * 1024;

/// One library in the closure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameworkLib {
    /// Install path.
    pub path: String,
    /// Mapped size.
    pub vmsize: u64,
    /// Direct dependencies (install paths).
    pub deps: Vec<String>,
}

/// The full framework set.
#[derive(Debug, Clone)]
pub struct FrameworkSet {
    libs: Vec<FrameworkLib>,
}

fn fw(name: &str) -> String {
    format!("/System/Library/Frameworks/{name}.framework/{name}")
}

fn private_fw(i: usize) -> String {
    format!(
        "/System/Library/PrivateFrameworks/Private{i:03}.framework/Private{i:03}"
    )
}

/// System dylib path.
fn usrlib(name: &str) -> String {
    format!("/usr/lib/{name}")
}

impl FrameworkSet {
    /// Builds the standard iOS 6-era closure.
    pub fn standard() -> FrameworkSet {
        let libsystem = usrlib("libSystem.B.dylib");
        let libobjc = usrlib("libobjc.A.dylib");
        let libcpp = usrlib("libc++.1.dylib");

        // (name, MiB) for the heavyweight public frameworks.
        let named: &[(&str, u64)] = &[
            ("UIKit", 11),
            ("WebKit", 9),
            ("Foundation", 6),
            ("CoreGraphics", 5),
            ("QuartzCore", 4),
            ("AVFoundation", 3),
            ("CoreText", 2),
            ("CFNetwork", 2),
            ("Security", 2),
            ("CoreFoundation", 2),
            ("OpenGLES", 1),
            ("IOSurface", 1),
            ("IOKit", 1),
            ("AudioToolbox", 2),
            ("CoreMedia", 2),
            ("CoreVideo", 1),
            ("CoreLocation", 1),
            ("CoreMotion", 1),
            ("SystemConfiguration", 1),
            ("MobileCoreServices", 1),
            ("StoreKit", 1),
            ("iAd", 1),
            ("MapKit", 2),
            ("MessageUI", 1),
            ("GameKit", 1),
            ("EventKit", 1),
            ("AddressBook", 1),
            ("QuickLook", 1),
            ("MediaPlayer", 2),
            ("Accelerate", 2),
        ];

        let mut libs = Vec::with_capacity(FRAMEWORK_COUNT);
        let mib = 1024 * 1024;

        libs.push(FrameworkLib {
            path: libsystem.clone(),
            vmsize: 2 * mib,
            deps: vec![],
        });
        libs.push(FrameworkLib {
            path: libobjc.clone(),
            vmsize: mib,
            deps: vec![libsystem.clone()],
        });
        libs.push(FrameworkLib {
            path: libcpp.clone(),
            vmsize: mib,
            deps: vec![libsystem.clone()],
        });

        for (name, size_mib) in named {
            let deps = match *name {
                "CoreFoundation" => vec![libsystem.clone(), libobjc.clone()],
                "Foundation" => {
                    vec![fw("CoreFoundation"), libobjc.clone()]
                }
                "UIKit" => vec![
                    fw("Foundation"),
                    fw("QuartzCore"),
                    fw("CoreGraphics"),
                    fw("CoreText"),
                ],
                "QuartzCore" => {
                    vec![fw("CoreGraphics"), fw("OpenGLES"), fw("IOSurface")]
                }
                "OpenGLES" => vec![fw("IOKit"), fw("IOSurface")],
                "WebKit" => vec![fw("UIKit"), fw("CFNetwork"), libcpp.clone()],
                "CFNetwork" => vec![fw("Security"), fw("CoreFoundation")],
                _ => vec![fw("CoreFoundation"), libsystem.clone()],
            };
            libs.push(FrameworkLib {
                path: fw(name),
                vmsize: size_mib * mib,
                deps,
            });
        }

        // Private frameworks fill the rest of the 115, distributed as
        // dependencies of the big public frameworks (UIKit really does
        // pull in dozens of private frameworks).
        let named_total: u64 = libs.iter().map(|l| l.vmsize).sum::<u64>();
        let fillers = FRAMEWORK_COUNT - libs.len();
        let filler_size = (TOTAL_MAPPED_BYTES - named_total) / fillers as u64;
        let hosts = [fw("UIKit"), fw("Foundation"), fw("QuartzCore")];
        let mut filler_paths = Vec::new();
        for i in 0..fillers {
            let path = private_fw(i);
            filler_paths.push((path.clone(), hosts[i % hosts.len()].clone()));
            libs.push(FrameworkLib {
                path,
                vmsize: filler_size,
                deps: vec![fw("CoreFoundation")],
            });
        }
        for (filler, host) in filler_paths {
            let host_lib = libs
                .iter_mut()
                .find(|l| l.path == host)
                .expect("host exists");
            host_lib.deps.push(filler);
        }

        let set = FrameworkSet { libs };
        debug_assert_eq!(set.libs.len(), FRAMEWORK_COUNT);
        set
    }

    /// All libraries.
    pub fn libs(&self) -> &[FrameworkLib] {
        &self.libs
    }

    /// Total mapped size of the whole closure.
    pub fn total_vmsize(&self) -> u64 {
        self.libs.iter().map(|l| l.vmsize).sum()
    }

    /// The dependencies every app binary links directly — dyld's roots.
    pub fn app_default_deps() -> Vec<String> {
        vec![
            usrlib("libSystem.B.dylib"),
            usrlib("libobjc.A.dylib"),
            fw("UIKit"),
            fw("Foundation"),
            fw("WebKit"),
            fw("AVFoundation"),
            fw("AudioToolbox"),
            fw("CoreMedia"),
            fw("CoreVideo"),
            fw("CoreLocation"),
            fw("CoreMotion"),
            fw("SystemConfiguration"),
            fw("MobileCoreServices"),
            fw("StoreKit"),
            fw("iAd"),
            fw("MapKit"),
            fw("MessageUI"),
            fw("GameKit"),
            fw("EventKit"),
            fw("AddressBook"),
            fw("QuickLook"),
            fw("MediaPlayer"),
            fw("Accelerate"),
            usrlib("libc++.1.dylib"),
        ]
    }

    /// Writes every library into the VFS overlay as a Mach-O dylib —
    /// Cider's copied-from-iOS framework files.
    pub fn install(&self, vfs: &mut Vfs) {
        for lib in &self.libs {
            let mut b = MachOBuilder::dylib(lib.vmsize);
            for d in &lib.deps {
                b = b.depends_on(d);
            }
            vfs.write_file_overlay(&lib.path, b.build().to_bytes())
                .expect("overlay install");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, BTreeSet, VecDeque};

    #[test]
    fn exactly_115_libs_and_90mb() {
        let set = FrameworkSet::standard();
        assert_eq!(set.libs().len(), FRAMEWORK_COUNT);
        let total = set.total_vmsize();
        let target = TOTAL_MAPPED_BYTES;
        // Integer division of the filler budget loses < 1 MiB.
        assert!(
            total <= target && total > target - 1024 * 1024,
            "total {total}"
        );
    }

    #[test]
    fn closure_from_app_roots_covers_everything() {
        let set = FrameworkSet::standard();
        let by_path: BTreeMap<&str, &FrameworkLib> =
            set.libs().iter().map(|l| (l.path.as_str(), l)).collect();
        let mut seen = BTreeSet::new();
        let mut work: VecDeque<String> =
            FrameworkSet::app_default_deps().into();
        while let Some(p) = work.pop_front() {
            if !seen.insert(p.clone()) {
                continue;
            }
            let lib = by_path
                .get(p.as_str())
                .unwrap_or_else(|| panic!("missing dep {p}"));
            for d in &lib.deps {
                work.push_back(d.clone());
            }
        }
        assert_eq!(
            seen.len(),
            FRAMEWORK_COUNT,
            "dyld closure must map all 115 images"
        );
    }

    #[test]
    fn all_deps_resolve_within_set() {
        let set = FrameworkSet::standard();
        let paths: BTreeSet<&str> =
            set.libs().iter().map(|l| l.path.as_str()).collect();
        for lib in set.libs() {
            for d in &lib.deps {
                assert!(paths.contains(d.as_str()), "{} -> {d}", lib.path);
            }
        }
    }

    #[test]
    fn install_writes_parseable_dylibs() {
        let mut vfs = Vfs::new();
        let set = FrameworkSet::standard();
        set.install(&mut vfs);
        let bytes = vfs
            .read_file("/System/Library/Frameworks/UIKit.framework/UIKit")
            .unwrap();
        let m = crate::macho::MachORef::parse(&bytes).unwrap();
        assert_eq!(m.filetype, crate::macho::FileType::Dylib);
        assert!(m.total_vmsize() >= 11 * 1024 * 1024);
        assert!(m.dylib_deps().next().is_some());
    }
}
