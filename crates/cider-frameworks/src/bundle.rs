//! `NSBundle`/`NSFileManager`-style bundle and resource loading.
//!
//! An installed app bundle (`/Applications/<Name>.app/`, written by
//! `cider-apps::launcher::install_ipa`) holds the Mach-O, an
//! `Info.plist` of `key=value` lines, and resources — optionally
//! localized under `<locale>.lproj/` subdirectories. `NSBundle`'s
//! lookup order is modeled faithfully: the requested localization
//! first, then the development language (`en`), then the unlocalized
//! resource at the bundle root.
//!
//! All reads go through the kernel's file syscalls on the caller's
//! thread, so bundle loading pays the same per-persona, per-device
//! costs the paper's microbenchmarks measure — and can hit the same
//! injected faults. [`cider_fault::FaultSite::BundleMissing`] models a
//! localized resource whose backing file vanished: the lookup degrades
//! to the next candidate and records the recovery.

use std::collections::BTreeMap;

use cider_abi::errno::Errno;
use cider_abi::ids::Tid;
use cider_abi::types::OpenFlags;
use cider_fault::FaultSite;
use cider_kernel::kernel::Kernel;

/// The development language every bundle falls back to, as Xcode's
/// `CFBundleDevelopmentRegion` default.
pub const DEVELOPMENT_LANGUAGE: &str = "en";

/// `NSFileManager`: thin, syscall-backed file operations bound to one
/// thread (every call charges that thread's persona costs).
#[derive(Debug, Clone, Copy)]
pub struct FileManager {
    tid: Tid,
}

impl FileManager {
    /// A file manager acting on behalf of `tid`.
    pub fn new(tid: Tid) -> FileManager {
        FileManager { tid }
    }

    /// `fileExistsAtPath:` — a `stat` probe.
    pub fn file_exists(&self, k: &mut Kernel, path: &str) -> bool {
        k.sys_stat(self.tid, path).is_ok()
    }

    /// `contentsAtPath:` — open, read to EOF, close.
    ///
    /// # Errors
    ///
    /// `ENOENT` for missing paths, `EIO` under injected VFS faults.
    pub fn contents(
        &self,
        k: &mut Kernel,
        path: &str,
    ) -> Result<Vec<u8>, Errno> {
        let len = k.sys_stat(self.tid, path)?.size as usize;
        let fd = k.sys_open(self.tid, path, OpenFlags::RDONLY)?;
        let r = k.sys_read(self.tid, fd, len);
        let _ = k.sys_close(self.tid, fd);
        r
    }
}

/// `NSBundle`: an opened app bundle with parsed Info.plist metadata.
#[derive(Debug, Clone)]
pub struct Bundle {
    /// Bundle directory (`/Applications/<Name>.app`).
    pub bundle_dir: String,
    /// Parsed `Info.plist` (`key=value` lines).
    pub info: BTreeMap<String, String>,
    fm: FileManager,
}

impl Bundle {
    /// `bundleWithPath:` + `infoDictionary`: opens the bundle directory
    /// and reads its `Info.plist` through the kernel.
    ///
    /// # Errors
    ///
    /// `ENOENT` if the directory or `Info.plist` is missing; VFS fault
    /// errnos otherwise.
    pub fn open(
        k: &mut Kernel,
        tid: Tid,
        bundle_dir: &str,
    ) -> Result<Bundle, Errno> {
        let fm = FileManager::new(tid);
        let raw = fm.contents(k, &format!("{bundle_dir}/Info.plist"))?;
        let text = String::from_utf8(raw).map_err(|_| Errno::EINVAL)?;
        let mut info = BTreeMap::new();
        for line in text.lines() {
            if let Some((key, value)) = line.split_once('=') {
                info.insert(key.trim().to_string(), value.trim().to_string());
            }
        }
        if k.trace.is_enabled() {
            k.trace.incr("app/bundle_open");
        }
        Ok(Bundle {
            bundle_dir: bundle_dir.to_string(),
            info,
            fm,
        })
    }

    /// `bundleIdentifier`.
    pub fn bundle_id(&self) -> Option<&str> {
        self.info.get("CFBundleIdentifier").map(String::as_str)
    }

    /// The candidate paths `pathForResource:ofType:` probes, in
    /// `NSBundle`'s order: requested localization, development
    /// language, unlocalized.
    pub fn resource_candidates(
        &self,
        name: &str,
        ext: &str,
        localization: Option<&str>,
    ) -> Vec<String> {
        let mut out = Vec::new();
        if let Some(loc) = localization {
            if loc != DEVELOPMENT_LANGUAGE {
                out.push(format!(
                    "{}/{loc}.lproj/{name}.{ext}",
                    self.bundle_dir
                ));
            }
        }
        out.push(format!(
            "{}/{}.lproj/{name}.{ext}",
            self.bundle_dir, DEVELOPMENT_LANGUAGE
        ));
        out.push(format!("{}/{name}.{ext}", self.bundle_dir));
        out
    }

    /// `pathForResource:ofType:inDirectory:forLocalization:` — the
    /// first candidate that exists. A hit whose
    /// [`FaultSite::BundleMissing`] draw fires is treated as vanished:
    /// the lookup records the recovery and degrades to the next
    /// candidate.
    ///
    /// # Errors
    ///
    /// `ENOENT` when no candidate (not even the unlocalized one)
    /// exists.
    pub fn path_for_resource(
        &self,
        k: &mut Kernel,
        name: &str,
        ext: &str,
        localization: Option<&str>,
    ) -> Result<String, Errno> {
        for path in self.resource_candidates(name, ext, localization) {
            if !self.fm.file_exists(k, &path) {
                continue;
            }
            if k.fault_at(FaultSite::BundleMissing) {
                k.trace_recovery(format!("bundle/fallback({name}.{ext})"));
                continue;
            }
            return Ok(path);
        }
        Err(Errno::ENOENT)
    }

    /// Loads a (possibly localized) resource: lookup plus a full read.
    /// Returns `(path, bytes)`.
    ///
    /// # Errors
    ///
    /// `ENOENT` when every candidate is missing; read errnos otherwise.
    pub fn load_resource(
        &self,
        k: &mut Kernel,
        name: &str,
        ext: &str,
        localization: Option<&str>,
    ) -> Result<(String, Vec<u8>), Errno> {
        let path = self.path_for_resource(k, name, ext, localization)?;
        let bytes = self.fm.contents(k, &path)?;
        if k.trace.is_enabled() {
            k.trace.incr("app/resource_load");
            k.trace.observe("app/resource_bytes", bytes.len() as u64);
        }
        Ok((path, bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cider_fault::{FaultLayer, FaultPlan};
    use cider_kernel::profile::DeviceProfile;

    fn bundle_fixture(k: &mut Kernel) -> (Tid, String) {
        let (_pid, tid) = k.spawn_process();
        let dir = "/Applications/Demo.app".to_string();
        k.vfs.mkdir_p(&dir).unwrap();
        k.vfs.mkdir_p(&format!("{dir}/en.lproj")).unwrap();
        k.vfs.mkdir_p(&format!("{dir}/fr.lproj")).unwrap();
        k.vfs
            .write_file(
                &format!("{dir}/Info.plist"),
                b"CFBundleIdentifier=com.example.demo\n".to_vec(),
            )
            .unwrap();
        k.vfs
            .write_file(
                &format!("{dir}/en.lproj/Main.strings"),
                b"hello=Hello".to_vec(),
            )
            .unwrap();
        k.vfs
            .write_file(
                &format!("{dir}/fr.lproj/Main.strings"),
                b"hello=Bonjour".to_vec(),
            )
            .unwrap();
        k.vfs
            .write_file(&format!("{dir}/Default.png"), vec![7; 32])
            .unwrap();
        (tid, dir)
    }

    #[test]
    fn info_plist_parses_and_lookup_prefers_the_requested_locale() {
        let mut k = Kernel::boot(DeviceProfile::nexus7());
        let (tid, dir) = bundle_fixture(&mut k);
        let b = Bundle::open(&mut k, tid, &dir).unwrap();
        assert_eq!(b.bundle_id(), Some("com.example.demo"));

        let (path, bytes) = b
            .load_resource(&mut k, "Main", "strings", Some("fr"))
            .unwrap();
        assert!(path.contains("fr.lproj"));
        assert_eq!(bytes, b"hello=Bonjour");

        // Unknown locale falls back to the development language.
        let (path, bytes) = b
            .load_resource(&mut k, "Main", "strings", Some("de"))
            .unwrap();
        assert!(path.contains("en.lproj"));
        assert_eq!(bytes, b"hello=Hello");

        // Unlocalized resources resolve at the bundle root.
        let (path, _) =
            b.load_resource(&mut k, "Default", "png", None).unwrap();
        assert_eq!(path, format!("{dir}/Default.png"));

        // Missing everywhere is ENOENT.
        assert_eq!(
            b.path_for_resource(&mut k, "Ghost", "nib", Some("fr")),
            Err(Errno::ENOENT)
        );
    }

    #[test]
    fn bundle_missing_fault_degrades_to_the_next_candidate() {
        let mut k = Kernel::boot(DeviceProfile::nexus7());
        let (tid, dir) = bundle_fixture(&mut k);
        let b = Bundle::open(&mut k, tid, &dir).unwrap();
        // Fire on the first consulted draw only.
        k.faults = FaultLayer::with_plan(FaultPlan::new(3).site(
            FaultSite::BundleMissing,
            cider_fault::SiteConfig::with_probability(1000).budget(1),
        ));
        let (path, bytes) = b
            .load_resource(&mut k, "Main", "strings", Some("fr"))
            .unwrap();
        // The French hit vanished; the development language answered.
        assert!(path.contains("en.lproj"), "{path}");
        assert_eq!(bytes, b"hello=Hello");
        assert!(k
            .faults
            .recoveries()
            .iter()
            .any(|r| r.action.starts_with("bundle/fallback")));
    }

    #[test]
    fn missing_info_plist_is_enoent() {
        let mut k = Kernel::boot(DeviceProfile::nexus7());
        let (_pid, tid) = k.spawn_process();
        k.vfs.mkdir_p("/Applications/Empty.app").unwrap();
        assert_eq!(
            Bundle::open(&mut k, tid, "/Applications/Empty.app").err(),
            Some(Errno::ENOENT)
        );
    }
}
