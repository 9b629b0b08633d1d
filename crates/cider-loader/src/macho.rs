//! The simulated Mach-O container format.
//!
//! iOS apps "are loaded directly by a kernel-level Mach-O loader which
//! interprets the binary, loads its text and data segments, and jumps to
//! the app entry point" (paper §2). Real Mach-O is a well-documented
//! Apple format; this module defines a faithful *miniature*: the same
//! magic, CPU type, file types, and load-command structure (segments,
//! dylib dependencies, entry point, encryption info, UUID), with a
//! compact binary serialisation so images can live in the simulated VFS
//! and be parsed — and rejected — the way the kernel loader would.

use cider_abi::codec::{ByteReader, ByteWriter};
use cider_abi::errno::Errno;

/// `MH_MAGIC` for 32-bit ARM Mach-O.
pub const MH_MAGIC: u32 = 0xFEED_FACE;
/// `CPU_TYPE_ARM`.
pub const CPU_TYPE_ARM: u32 = 12;
/// The most load commands an image may declare.
const MAX_COMMANDS: u32 = 10_000;
/// The longest segment name, install path or symbol an image may carry.
const MAX_STRING: usize = 4096;

/// Mach-O file types we model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FileType {
    /// `MH_EXECUTE` — a main binary.
    Execute,
    /// `MH_DYLIB` — a dynamic library.
    Dylib,
}

impl FileType {
    fn as_raw(self) -> u32 {
        match self {
            FileType::Execute => 2,
            FileType::Dylib => 6,
        }
    }

    fn from_raw(raw: u32) -> Option<FileType> {
        match raw {
            2 => Some(FileType::Execute),
            6 => Some(FileType::Dylib),
            _ => None,
        }
    }
}

/// A load command. Its strings are owned in a [`MachO`] and borrowed
/// from the image's bytes (`LoadCommand<&str>`) in a [`MachORef`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoadCommand<S = String> {
    /// `LC_SEGMENT`: a mapped segment.
    Segment {
        /// Segment name (`__TEXT`, `__DATA`, ...).
        name: S,
        /// Virtual size in bytes (what the loader maps).
        vmsize: u64,
        /// Writable segment?
        writable: bool,
        /// Executable segment?
        executable: bool,
    },
    /// `LC_LOAD_DYLIB`: a dependency.
    LoadDylib {
        /// Install path of the dependency.
        path: S,
    },
    /// `LC_MAIN`: the entry point, named symbolically for the simulator's
    /// program registry.
    Main {
        /// Behaviour key in the kernel program registry.
        entry_symbol: S,
    },
    /// `LC_ENCRYPTION_INFO`: App Store FairPlay encryption state.
    EncryptionInfo {
        /// Non-zero = encrypted (`cryptid`).
        cryptid: u32,
    },
    /// `LC_UUID`.
    Uuid {
        /// The image UUID.
        uuid: [u8; 16],
    },
}

impl LoadCommand<&str> {
    /// The command with its strings copied out of the image.
    pub fn into_owned(self) -> LoadCommand {
        match self {
            LoadCommand::Segment {
                name,
                vmsize,
                writable,
                executable,
            } => LoadCommand::Segment {
                name: name.into(),
                vmsize,
                writable,
                executable,
            },
            LoadCommand::LoadDylib { path } => {
                LoadCommand::LoadDylib { path: path.into() }
            }
            LoadCommand::Main { entry_symbol } => LoadCommand::Main {
                entry_symbol: entry_symbol.into(),
            },
            LoadCommand::EncryptionInfo { cryptid } => {
                LoadCommand::EncryptionInfo { cryptid }
            }
            LoadCommand::Uuid { uuid } => LoadCommand::Uuid { uuid },
        }
    }
}

/// A Mach-O image to build, edit or serialise, with owned load
/// commands. [`MachORef`] reads one in place.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachO {
    /// CPU type (must be ARM to load).
    pub cpu_type: u32,
    /// File type.
    pub filetype: FileType,
    /// Load commands in order.
    pub commands: Vec<LoadCommand>,
}

impl MachO {
    /// Serialises to the simulator's on-disk representation.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u32(MH_MAGIC);
        w.put_u32(self.cpu_type);
        w.put_u32(self.filetype.as_raw());
        w.put_u32(self.commands.len() as u32);
        for cmd in &self.commands {
            match cmd {
                LoadCommand::Segment {
                    name,
                    vmsize,
                    writable,
                    executable,
                } => {
                    w.put_u32(1);
                    w.put_str(name);
                    w.put_u64(*vmsize);
                    w.put_u8(u8::from(*writable));
                    w.put_u8(u8::from(*executable));
                }
                LoadCommand::LoadDylib { path } => {
                    w.put_u32(12);
                    w.put_str(path);
                }
                LoadCommand::Main { entry_symbol } => {
                    w.put_u32(0x28);
                    w.put_str(entry_symbol);
                }
                LoadCommand::EncryptionInfo { cryptid } => {
                    w.put_u32(0x21);
                    w.put_u32(*cryptid);
                }
                LoadCommand::Uuid { uuid } => {
                    w.put_u32(0x1b);
                    w.put_raw(uuid);
                }
            }
        }
        w.into_bytes()
    }

    /// Whether a byte slice starts with the Mach-O magic.
    pub fn sniff(bytes: &[u8]) -> bool {
        ByteReader::new(bytes, ()).get_u32() == Ok(MH_MAGIC)
    }

    /// Parses the on-disk representation: [`MachORef::parse`], then a
    /// copy of every command.
    ///
    /// # Errors
    ///
    /// As [`MachORef::parse`].
    pub fn parse(bytes: &[u8]) -> Result<MachO, Errno> {
        let image = MachORef::parse(bytes)?;
        Ok(MachO {
            cpu_type: image.cpu_type,
            filetype: image.filetype,
            commands: image.commands().map(LoadCommand::into_owned).collect(),
        })
    }
}

/// A validated Mach-O image read in place: its header's fields, and
/// load commands whose strings borrow the image's bytes. This is the
/// one validating reader; the kernel loader and dyld read images
/// through it without copying them.
#[derive(Debug, Clone, Copy)]
pub struct MachORef<'a> {
    /// CPU type (must be ARM to load).
    pub cpu_type: u32,
    /// File type.
    pub filetype: FileType,
    ncmds: u32,
    /// The image from its first load command on.
    body: &'a [u8],
}

impl<'a> MachORef<'a> {
    /// Validates the on-disk representation and every load command in
    /// it, copying nothing.
    ///
    /// # Errors
    ///
    /// `ENOEXEC` for anything malformed: wrong magic, unknown file type
    /// or command, a string over the loader's limit, or truncation.
    pub fn parse(bytes: &'a [u8]) -> Result<MachORef<'a>, Errno> {
        let mut r = ByteReader::new(bytes, Errno::ENOEXEC);
        if r.get_u32()? != MH_MAGIC {
            return Err(Errno::ENOEXEC);
        }
        let cpu_type = r.get_u32()?;
        let filetype =
            FileType::from_raw(r.get_u32()?).ok_or(Errno::ENOEXEC)?;
        let ncmds = r.get_u32()?;
        if ncmds > MAX_COMMANDS {
            return Err(Errno::ENOEXEC);
        }
        let body = &bytes[r.pos()..];
        for _ in 0..ncmds {
            read_command(&mut r)?;
        }
        Ok(MachORef {
            cpu_type,
            filetype,
            ncmds,
            body,
        })
    }

    /// The load commands in order.
    pub fn commands(&self) -> impl Iterator<Item = LoadCommand<&'a str>> {
        let mut r = ByteReader::new(self.body, Errno::ENOEXEC);
        // `parse` read every command once, so none fails here.
        (0..self.ncmds).map_while(move |_| read_command(&mut r).ok())
    }

    /// Total virtual size of all segments.
    pub fn total_vmsize(&self) -> u64 {
        self.commands()
            .map(|c| match c {
                LoadCommand::Segment { vmsize, .. } => vmsize,
                _ => 0,
            })
            .sum()
    }

    /// Dependency install paths in order.
    pub fn dylib_deps(&self) -> impl Iterator<Item = &'a str> {
        self.commands().filter_map(|c| match c {
            LoadCommand::LoadDylib { path } => Some(path),
            _ => None,
        })
    }

    /// The entry symbol, if an `LC_MAIN` is present.
    pub fn entry_symbol(&self) -> Option<&'a str> {
        self.commands().find_map(|c| match c {
            LoadCommand::Main { entry_symbol } => Some(entry_symbol),
            _ => None,
        })
    }

    /// Whether the image carries a non-zero `cryptid` (App Store
    /// encrypted; must be decrypted on a jailbroken device first, §6.1).
    pub fn is_encrypted(&self) -> bool {
        self.commands().any(|c| {
            matches!(c, LoadCommand::EncryptionInfo { cryptid } if cryptid != 0)
        })
    }
}

/// Reads one load command in place.
fn read_command<'a>(
    r: &mut ByteReader<'a, Errno>,
) -> Result<LoadCommand<&'a str>, Errno> {
    Ok(match r.get_u32()? {
        1 => LoadCommand::Segment {
            name: get_name(r)?,
            vmsize: r.get_u64()?,
            writable: r.get_u8()? != 0,
            executable: r.get_u8()? != 0,
        },
        12 => LoadCommand::LoadDylib { path: get_name(r)? },
        0x28 => LoadCommand::Main {
            entry_symbol: get_name(r)?,
        },
        0x21 => LoadCommand::EncryptionInfo {
            cryptid: r.get_u32()?,
        },
        0x1b => LoadCommand::Uuid {
            uuid: r.get_array()?,
        },
        _ => return Err(Errno::ENOEXEC),
    })
}

/// Reads a length-prefixed name of at most [`MAX_STRING`] bytes in
/// place, the loader's limit for Mach-O and ELF images alike.
pub(crate) fn get_name<'a>(
    r: &mut ByteReader<'a, Errno>,
) -> Result<&'a str, Errno> {
    let s = r.get_str_ref()?;
    if s.len() > MAX_STRING {
        return Err(Errno::ENOEXEC);
    }
    Ok(s)
}

/// Builder for test and framework images.
#[derive(Debug, Clone)]
pub struct MachOBuilder {
    macho: MachO,
}

impl MachOBuilder {
    /// Starts an `MH_EXECUTE` image with a text segment.
    pub fn executable(entry_symbol: &str) -> MachOBuilder {
        MachOBuilder {
            macho: MachO {
                cpu_type: CPU_TYPE_ARM,
                filetype: FileType::Execute,
                commands: vec![
                    LoadCommand::Segment {
                        name: "__TEXT".into(),
                        vmsize: 256 * 1024,
                        writable: false,
                        executable: true,
                    },
                    LoadCommand::Segment {
                        name: "__DATA".into(),
                        vmsize: 64 * 1024,
                        writable: true,
                        executable: false,
                    },
                    LoadCommand::Main {
                        entry_symbol: entry_symbol.into(),
                    },
                ],
            },
        }
    }

    /// Starts an `MH_DYLIB` image of a given mapped size.
    pub fn dylib(vmsize: u64) -> MachOBuilder {
        MachOBuilder {
            macho: MachO {
                cpu_type: CPU_TYPE_ARM,
                filetype: FileType::Dylib,
                commands: vec![LoadCommand::Segment {
                    name: "__TEXT".into(),
                    vmsize,
                    writable: false,
                    executable: true,
                }],
            },
        }
    }

    /// Adds a dylib dependency.
    pub fn depends_on(mut self, path: &str) -> MachOBuilder {
        self.macho
            .commands
            .push(LoadCommand::LoadDylib { path: path.into() });
        self
    }

    /// Marks the image App Store encrypted.
    pub fn encrypted(mut self) -> MachOBuilder {
        self.macho
            .commands
            .push(LoadCommand::EncryptionInfo { cryptid: 1 });
        self
    }

    /// Overrides the CPU type (for negative tests).
    pub fn cpu_type(mut self, cpu: u32) -> MachOBuilder {
        self.macho.cpu_type = cpu;
        self
    }

    /// Finishes the image.
    pub fn build(self) -> MachO {
        self.macho
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_executable() {
        let m = MachOBuilder::executable("main")
            .depends_on("/usr/lib/libSystem.B.dylib")
            .build();
        let bytes = m.to_bytes();
        assert!(MachO::sniff(&bytes));
        assert_eq!(MachO::parse(&bytes).unwrap(), m);
        let image = MachORef::parse(&bytes).unwrap();
        assert_eq!(image.entry_symbol(), Some("main"));
        assert!(image.dylib_deps().eq(["/usr/lib/libSystem.B.dylib"]));
    }

    #[test]
    fn rejects_bad_magic_and_truncation() {
        assert_eq!(MachO::parse(b"\x7fELF----"), Err(Errno::ENOEXEC));
        let m = MachOBuilder::executable("main").build();
        let bytes = m.to_bytes();
        assert_eq!(
            MachO::parse(&bytes[..bytes.len() - 3]),
            Err(Errno::ENOEXEC)
        );
        assert!(!MachO::sniff(b"\x7fEL"));
    }

    #[test]
    fn the_reader_validates_every_command_up_front() {
        let long = "/x".repeat(MAX_STRING / 2 + 1);
        let bytes = MachOBuilder::dylib(4096)
            .depends_on("/usr/lib/libSystem.B.dylib")
            .depends_on(&long)
            .build()
            .to_bytes();
        assert_eq!(MachORef::parse(&bytes).err(), Some(Errno::ENOEXEC));
        assert_eq!(MachO::parse(&bytes), Err(Errno::ENOEXEC));
    }

    #[test]
    fn encryption_detected() {
        let plain = MachOBuilder::executable("main").build().to_bytes();
        assert!(!MachORef::parse(&plain).unwrap().is_encrypted());
        let enc = MachOBuilder::executable("main").encrypted().build();
        assert!(MachORef::parse(&enc.to_bytes()).unwrap().is_encrypted());
    }

    #[test]
    fn vmsize_sums_segments() {
        let m = MachOBuilder::executable("main").build().to_bytes();
        let image = MachORef::parse(&m).unwrap();
        assert_eq!(image.total_vmsize(), (256 + 64) * 1024);
        let d = MachOBuilder::dylib(1024 * 1024).build().to_bytes();
        let image = MachORef::parse(&d).unwrap();
        assert_eq!(image.total_vmsize(), 1024 * 1024);
        assert_eq!(image.filetype, FileType::Dylib);
    }

    #[test]
    fn uuid_roundtrip() {
        let mut m = MachOBuilder::dylib(4096).build();
        m.commands.push(LoadCommand::Uuid { uuid: [7u8; 16] });
        let parsed = MachO::parse(&m.to_bytes()).unwrap();
        assert_eq!(parsed, m);
    }

    #[test]
    fn absurd_ncmds_rejected() {
        let mut w = ByteWriter::new();
        for v in [MH_MAGIC, CPU_TYPE_ARM, 2, 1_000_000] {
            w.put_u32(v);
        }
        assert_eq!(MachO::parse(&w.into_bytes()), Err(Errno::ENOEXEC));
    }
}
