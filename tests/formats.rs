//! Every binary format of the reproduction, through one table: each
//! encoding decodes back to the value it came from, and every strict
//! prefix of it is rejected the way the format rejects truncation —
//! without a panic. The `stat64` layouts, which user space only reads,
//! are pinned byte for byte instead.

use std::fmt::Debug;

use bytes::Bytes;
use cider_abi::errno::Errno;
use cider_abi::ids::PortName;
use cider_abi::types::{FileType, Stat, TimeSpec, XnuStat64};
use cider_apps::package::Ipa;
use cider_apps::vm::{assemble, disassemble, Insn};
use cider_ckpt::{Checkpoint, CkptHeader, StateImage};
use cider_core::ring::{RingCompletion, RingOp};
use cider_core::wire;
use cider_core::xnu_abi::encode_xnu_stat64;
use cider_input::events::{
    self, AndroidEvent, IosHidEvent, MotionAction, Pointer, TouchPhase,
};
use cider_kernel::kernel::encode_linux_stat64;
use cider_loader::elf::{Elf, ElfBuilder};
use cider_loader::macho::{LoadCommand, MachO, MachOBuilder};
use cider_xnu::ipc::{
    PortDescriptor, PortDisposition, ReceivedMessage, UserMessage,
};
use cider_xnu::KernReturn;

/// How a decoder read one buffer: the `{:?}` of what it returned.
type Read = Result<String, String>;

fn read<T: Debug, E: Debug>(r: Result<T, E>) -> Read {
    r.map(|v| format!("{v:?}")).map_err(|e| format!("{e:?}"))
}

/// One format: a valid encoding, the format's decoder, what the whole
/// encoding must read as, and what every strict prefix must read as
/// (`None`: any error).
struct Row {
    name: &'static str,
    bytes: Vec<u8>,
    decode: fn(&[u8]) -> Read,
    whole: Read,
    prefix: Option<Read>,
}

fn row<T: Debug>(
    name: &'static str,
    value: T,
    encode: impl Fn(&T) -> Vec<u8>,
    decode: fn(&[u8]) -> Read,
    prefix: Option<Read>,
) -> Row {
    Row {
        name,
        bytes: encode(&value),
        decode,
        whole: Ok(format!("{value:?}")),
        prefix,
    }
}

fn err(e: impl Debug) -> Option<Read> {
    Some(Err(format!("{e:?}")))
}

fn user_message() -> UserMessage {
    let mut m = UserMessage::simple(PortName(0x103), -42, &b"payload"[..]);
    m.local_port = PortName(0x107);
    m.local_disposition = PortDisposition::MakeSendOnce;
    m.ports.push(PortDescriptor {
        name: PortName(0x10b),
        disposition: PortDisposition::MoveReceive,
    });
    m.ports.push(PortDescriptor {
        name: PortName(0x10f),
        disposition: PortDisposition::CopySend,
    });
    m.ool.push(Bytes::from(vec![9u8; 300]));
    m.ool.push(Bytes::new());
    m
}

fn received_message() -> ReceivedMessage {
    ReceivedMessage {
        msg_id: 7,
        body: Bytes::from(&b"reply"[..]),
        reply_port: PortName(0x203),
        ports: vec![PortName(0x207), PortName(0x20b)],
        ool: vec![Bytes::from(&b"ool"[..])],
    }
}

fn macho() -> MachO {
    let mut m = MachOBuilder::executable("main")
        .depends_on("/usr/lib/libSystem.B.dylib")
        .encrypted()
        .build();
    m.commands.push(LoadCommand::Uuid { uuid: [7; 16] });
    m
}

fn program() -> Vec<Insn> {
    use Insn::*;
    vec![
        ConstI(0, -5),
        ConstF(1, 2.5),
        Move(2, 0),
        Add(3, 0, 2),
        Sub(3, 0, 2),
        Mul(3, 0, 2),
        Div(3, 0, 2),
        Rem(3, 0, 2),
        Xor(3, 0, 2),
        And(3, 0, 2),
        Or(3, 0, 2),
        Shl(3, 0, 2),
        Shr(3, 0, 2),
        FAdd(4, 1, 1),
        FMul(4, 1, 1),
        FDiv(4, 1, 1),
        CmpLt(5, 0, 2),
        CmpEq(5, 0, 2),
        Jmp(19),
        Jz(5, 20),
        Jnz(5, 21),
        ArrNew(6),
        ALoad(7, 6),
        AStore(6, 7),
        Halt(3),
    ]
}

fn ipa() -> Ipa {
    Ipa {
        bundle_id: "com.example.calc".into(),
        name: "Calc".into(),
        binary: macho().to_bytes(),
        icon: b"icon:Calc".to_vec(),
        data_files: vec![
            ("Info.plist".into(), b"<plist/>".to_vec()),
            ("empty".into(), Vec::new()),
        ],
    }
}

fn pointers() -> Vec<Pointer> {
    vec![
        Pointer {
            id: 0,
            x: 100,
            y: -200,
        },
        Pointer { id: 1, x: -5, y: 7 },
    ]
}

fn checkpoint() -> Checkpoint {
    let mut image = StateImage::new();
    image.push_section("clock", vec![("now_ns".into(), "812".into())]);
    image.push_section(
        "kernel/procs",
        vec![
            ("pid:1".into(), "running cwd=/".into()),
            ("pid:2".into(), "zombie(0)".into()),
        ],
    );
    Checkpoint::new(
        CkptHeader {
            device_id: 3,
            seed: 0xFEED,
            config: "cider_ios".into(),
            workload: "lmbench_mix".into(),
            cursor: 17,
            virtual_ns: 812,
        },
        image,
    )
}

fn table() -> Vec<Row> {
    let efault = || err(Errno::EFAULT);
    let enoexec = || err(Errno::ENOEXEC);
    let einval = || err(Errno::EINVAL);
    let mut rows = vec![
        row(
            "mach user message",
            user_message(),
            wire::encode_user_message,
            |b| read(wire::decode_user_message(b)),
            efault(),
        ),
        row(
            "mach received message",
            received_message(),
            wire::encode_received_message,
            |b| read(wire::decode_received_message(b)),
            efault(),
        ),
        row(
            "ring ops",
            vec![RingOp::Send(user_message()), RingOp::Recv(PortName(0x107))],
            |ops| wire::encode_ring_ops(ops),
            |b| read(wire::decode_ring_ops(b)),
            efault(),
        ),
        row(
            "ring completions",
            vec![
                RingCompletion {
                    seq: 0,
                    kr: KernReturn::Success,
                    received: Some(received_message()),
                },
                RingCompletion {
                    seq: u64::MAX,
                    kr: KernReturn::RcvTimedOut,
                    received: None,
                },
            ],
            |cs| wire::encode_ring_completions(cs),
            |b| read(wire::decode_ring_completions(b)),
            efault(),
        ),
        row(
            "mach-o",
            macho(),
            MachO::to_bytes,
            |b| read(MachO::parse(b)),
            enoexec(),
        ),
        row(
            "elf executable",
            ElfBuilder::executable("hello").needs("libc.so").build(),
            Elf::to_bytes,
            |b| read(Elf::parse(b)),
            enoexec(),
        ),
        row(
            "elf shared object",
            ElfBuilder::shared_object(8192).build(),
            Elf::to_bytes,
            |b| read(Elf::parse(b)),
            enoexec(),
        ),
        row(
            "dex",
            program(),
            |p| assemble(p),
            |b| read(disassemble(b)),
            enoexec(),
        ),
        row(
            "ipa",
            ipa(),
            Ipa::to_bytes,
            |b| read(Ipa::parse(b)),
            einval(),
        ),
        row(
            "checkpoint",
            checkpoint(),
            Checkpoint::to_bytes,
            |b| read(Checkpoint::from_bytes(b)),
            None,
        ),
        row(
            "state image",
            checkpoint().image,
            StateImage::to_bytes,
            |b| read(StateImage::from_bytes(b).ok_or(())),
            None,
        ),
    ];
    for ev in [
        IosHidEvent::Touch {
            phase: TouchPhase::Moved,
            touches: pointers(),
            timestamp: 99,
        },
        IosHidEvent::Accelerometer {
            x: -1_000,
            y: i64::MAX,
            z: i64::MIN,
            timestamp: 5,
        },
        IosHidEvent::Button {
            usage: 0xE9,
            down: true,
            timestamp: 6,
        },
    ] {
        rows.push(row(
            "ios hid event",
            ev,
            events::encode_ios,
            |b| read(events::decode_ios(b)),
            einval(),
        ));
    }
    for ev in [
        AndroidEvent::Motion {
            action: MotionAction::PointerDown,
            pointers: pointers(),
            time_ns: 1,
        },
        AndroidEvent::Accelerometer {
            x: 1,
            y: i32::MIN,
            z: i32::MAX,
            time_ns: 2,
        },
        AndroidEvent::Key {
            code: 24,
            down: false,
            time_ns: 3,
        },
    ] {
        // A frame reads back as the event and the bytes it consumed; a
        // partial frame is not an error but a request for more bytes.
        let bytes = events::encode(&ev);
        let consumed = bytes.len();
        rows.push(Row {
            name: "android input frame",
            bytes,
            decode: |b| read(events::decode(b)),
            whole: read(Ok::<_, Errno>(Some((ev, consumed)))),
            prefix: Some(Ok("None".into())),
        });
    }
    rows
}

#[test]
fn every_format_round_trips_and_rejects_every_prefix() {
    for row in table() {
        let decode = row.decode;
        assert_eq!(decode(&row.bytes), row.whole, "{}: round trip", row.name);
        for cut in 0..row.bytes.len() {
            let got = decode(&row.bytes[..cut]);
            match &row.prefix {
                Some(want) => assert_eq!(
                    &got,
                    want,
                    "{}: prefix of {cut} of {} bytes",
                    row.name,
                    row.bytes.len()
                ),
                None => assert!(
                    got.is_err(),
                    "{}: prefix of {cut} bytes decoded as {got:?}",
                    row.name
                ),
            }
        }
    }
}

#[test]
fn stat64_layouts_are_pinned() {
    let stat = Stat {
        ino: 0x0102_0304_0506_0708,
        file_type: FileType::Directory,
        mode: 0o755,
        size: 4096,
        blocks: 8,
        mtime_sec: -1,
        mtime_nsec: 999,
        nlink: 2,
    };
    let mut linux = Vec::new();
    linux.extend(stat.ino.to_le_bytes());
    linux.extend((0o040000u32 | 0o755).to_le_bytes());
    linux.extend(2u32.to_le_bytes());
    linux.extend(4096u64.to_le_bytes());
    linux.extend(8u64.to_le_bytes());
    linux.extend((-1i64).to_le_bytes());
    linux.extend(999u64.to_le_bytes());
    assert_eq!(encode_linux_stat64(&stat), linux);

    let xnu = XnuStat64 {
        ino: 9,
        mode: 0o100644,
        nlink: 1,
        size: 17,
        blocks: 1,
        mtimespec: TimeSpec { sec: 3, nsec: -4 },
        birthtimespec: TimeSpec { sec: 5, nsec: 6 },
    };
    let mut want = Vec::new();
    want.extend(9u64.to_le_bytes());
    want.extend(0o100644u32.to_le_bytes());
    want.extend(1u32.to_le_bytes());
    want.extend(17u64.to_le_bytes());
    want.extend(1u64.to_le_bytes());
    for v in [3i64, -4, 5, 6] {
        want.extend(v.to_le_bytes());
    }
    assert_eq!(encode_xnu_stat64(&xnu), want);
}
