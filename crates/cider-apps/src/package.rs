//! App package formats: `.ipa` (iOS App Store Package) and `.apk`
//! (Android), plus the decryption step the paper needed for App Store
//! binaries (§6.1).
//!
//! "App Store apps ... are encrypted and must be decrypted using keys
//! stored in encrypted, non-volatile memory found in an Apple device. We
//! modified a widely used script to decrypt apps on any jailbroken iOS
//! device using gdb." [`decrypt_ipa`] is that script's stand-in: it
//! requires a [`DeviceKey`] (only obtainable from a jailbroken Apple
//! device) and rewrites the Mach-O with `cryptid = 0`.

use cider_abi::codec::{ByteReader, ByteWriter};
use cider_abi::errno::Errno;
use cider_loader::framework_set::FrameworkSet;
use cider_loader::macho::{LoadCommand, MachO, MachOBuilder, MachORef};

/// The leading magic of a serialised package.
const IPA_MAGIC: &[u8; 4] = b"IPA1";
/// The most data files a package may carry.
const MAX_FILES: usize = 4096;

/// An iOS App Store package.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ipa {
    /// Bundle identifier (`com.example.calc`).
    pub bundle_id: String,
    /// Display name.
    pub name: String,
    /// The app's Mach-O binary.
    pub binary: Vec<u8>,
    /// Icon bytes (used for the Launcher shortcut, §6.1).
    pub icon: Vec<u8>,
    /// Associated data files packed alongside the binary.
    pub data_files: Vec<(String, Vec<u8>)>,
}

impl Ipa {
    /// Whether the contained binary is FairPlay-encrypted.
    pub fn is_encrypted(&self) -> bool {
        MachORef::parse(&self.binary).is_ok_and(|m| m.is_encrypted())
    }

    /// Serialises the package.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_raw(IPA_MAGIC);
        w.put_str(&self.bundle_id);
        w.put_str(&self.name);
        w.put_bytes(&self.binary);
        w.put_bytes(&self.icon);
        w.put_u32(self.data_files.len() as u32);
        for (path, data) in &self.data_files {
            w.put_str(path);
            w.put_bytes(data);
        }
        w.into_bytes()
    }

    /// Parses a serialised package.
    ///
    /// # Errors
    ///
    /// `EINVAL` for malformed packages.
    pub fn parse(bytes: &[u8]) -> Result<Ipa, Errno> {
        let mut r = ByteReader::new(bytes, Errno::EINVAL);
        if r.get_raw(4)? != IPA_MAGIC {
            return Err(Errno::EINVAL);
        }
        let bundle_id = r.get_str()?;
        let name = r.get_str()?;
        let binary = r.get_bytes()?.to_vec();
        let icon = r.get_bytes()?.to_vec();
        let nfiles = r.get_u32()? as usize;
        if nfiles > MAX_FILES {
            return Err(Errno::EINVAL);
        }
        // Each file is at least its path's and its data's length
        // prefixes.
        let mut data_files = Vec::with_capacity(r.capacity_for(nfiles, 8));
        for _ in 0..nfiles {
            let path = r.get_str()?;
            data_files.push((path, r.get_bytes()?.to_vec()));
        }
        Ok(Ipa {
            bundle_id,
            name,
            binary,
            icon,
            data_files,
        })
    }
}

/// Builds an App Store-style iOS app package.
pub fn build_ios_app(
    bundle_id: &str,
    name: &str,
    entry_symbol: &str,
    encrypted: bool,
) -> Ipa {
    let mut b = MachOBuilder::executable(entry_symbol);
    for dep in FrameworkSet::app_default_deps() {
        b = b.depends_on(&dep);
    }
    if encrypted {
        b = b.encrypted();
    }
    Ipa {
        bundle_id: bundle_id.to_string(),
        name: name.to_string(),
        binary: b.build().to_bytes(),
        icon: format!("icon:{name}").into_bytes(),
        data_files: vec![(
            "Info.plist".to_string(),
            format!("CFBundleIdentifier={bundle_id}").into_bytes(),
        )],
    }
}

/// The per-device decryption key held in an Apple device's secure
/// storage. Only a jailbroken device yields one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceKey {
    jailbroken: bool,
}

impl DeviceKey {
    /// The key extracted from a jailbroken iPhone 3GS (§6.1).
    pub fn from_jailbroken_device() -> DeviceKey {
        DeviceKey { jailbroken: true }
    }

    /// A locked device: decryption will fail.
    pub fn locked_device() -> DeviceKey {
        DeviceKey { jailbroken: false }
    }
}

/// The decryption script: runs the app under the device's loader (which
/// decrypts in memory), dumps the text segment, and re-packages "the
/// decrypted binary, along with any associated data files, into a single
/// .ipa file" (§6.1).
///
/// # Errors
///
/// `EACCES` without a jailbroken device key; `EINVAL` for packages whose
/// binary is not Mach-O.
pub fn decrypt_ipa(ipa: &Ipa, key: DeviceKey) -> Result<Ipa, Errno> {
    if !key.jailbroken {
        return Err(Errno::EACCES);
    }
    let mut macho = MachO::parse(&ipa.binary).map_err(|_| Errno::EINVAL)?;
    for cmd in &mut macho.commands {
        if let LoadCommand::EncryptionInfo { cryptid } = cmd {
            *cryptid = 0;
        }
    }
    Ok(Ipa {
        binary: macho.to_bytes(),
        ..ipa.clone()
    })
}

/// An Android package: a dex blob (VM bytecode) plus metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Apk {
    /// Package name (`com.passmark.pt_mobile`).
    pub package: String,
    /// Display name.
    pub label: String,
    /// The dex blob (serialised VM program).
    pub dex: Vec<u8>,
}

impl Apk {
    /// Builds a package around a VM program.
    pub fn new(
        package: &str,
        label: &str,
        program: &[crate::vm::Insn],
    ) -> Apk {
        Apk {
            package: package.to_string(),
            label: label.to_string(),
            dex: crate::vm::assemble(program),
        }
    }

    /// Recovers the VM program.
    ///
    /// # Errors
    ///
    /// `ENOEXEC` for corrupt dex blobs.
    pub fn program(&self) -> Result<Vec<crate::vm::Insn>, Errno> {
        crate::vm::disassemble(&self.dex)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipa_roundtrip() {
        let ipa = build_ios_app("com.example.calc", "Calc", "calc_main", true);
        let bytes = ipa.to_bytes();
        assert_eq!(Ipa::parse(&bytes).unwrap(), ipa);
        assert_eq!(Ipa::parse(b"ZIP0"), Err(Errno::EINVAL));
        assert_eq!(Ipa::parse(&bytes[..bytes.len() - 2]), Err(Errno::EINVAL));
    }

    #[test]
    fn store_apps_are_encrypted_until_decrypted() {
        let ipa = build_ios_app("com.x", "X", "m", true);
        assert!(ipa.is_encrypted());
        let dec =
            decrypt_ipa(&ipa, DeviceKey::from_jailbroken_device()).unwrap();
        assert!(!dec.is_encrypted());
        // Metadata and data files survive re-packaging.
        assert_eq!(dec.bundle_id, ipa.bundle_id);
        assert_eq!(dec.data_files, ipa.data_files);
    }

    #[test]
    fn decryption_needs_a_jailbroken_device() {
        let ipa = build_ios_app("com.x", "X", "m", true);
        assert_eq!(
            decrypt_ipa(&ipa, DeviceKey::locked_device()),
            Err(Errno::EACCES)
        );
    }

    #[test]
    fn system_apps_ship_unencrypted() {
        // "unlike iOS system apps such as Stocks" (§6.1).
        let stocks = build_ios_app("com.apple.stocks", "Stocks", "m", false);
        assert!(!stocks.is_encrypted());
    }

    #[test]
    fn apk_roundtrips_program() {
        let prog =
            vec![crate::vm::Insn::ConstI(0, 3), crate::vm::Insn::Halt(0)];
        let apk = Apk::new("com.passmark.pt_mobile", "PassMark", &prog);
        assert_eq!(apk.program().unwrap(), prog);
    }
}
