//! Input event formats on both sides of the bridge, and the translation
//! between them.
//!
//! Android delivers `MotionEvent`s from the kernel input subsystem;
//! iOS apps expect IOHID-style events on a Mach port (paper §5.2).
//! Cider "simply reads events from the Android input system, translates
//! them as necessary into a format understood by iOS apps".

use cider_abi::codec::{ByteReader, ByteWriter};
use cider_abi::errno::Errno;

/// Android motion-event actions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MotionAction {
    /// First finger down.
    Down,
    /// Any pointer moved.
    Move,
    /// Last finger up.
    Up,
    /// An additional finger down.
    PointerDown,
    /// A non-last finger up.
    PointerUp,
}

/// One touch point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Pointer {
    /// Stable pointer id.
    pub id: u8,
    /// X in screen pixels.
    pub x: i32,
    /// Y in screen pixels.
    pub y: i32,
}

/// An event from the Android input subsystem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AndroidEvent {
    /// A multi-touch motion event.
    Motion {
        /// Action.
        action: MotionAction,
        /// Active pointers.
        pointers: Vec<Pointer>,
        /// Event time, virtual ns.
        time_ns: u64,
    },
    /// An accelerometer sample (milli-g per axis).
    Accelerometer {
        /// X axis.
        x: i32,
        /// Y axis.
        y: i32,
        /// Z axis.
        z: i32,
        /// Sample time, virtual ns.
        time_ns: u64,
    },
    /// A key/button event.
    Key {
        /// Key code.
        code: u32,
        /// Pressed (true) or released.
        down: bool,
        /// Event time, virtual ns.
        time_ns: u64,
    },
}

/// IOHID-style event phases iOS gesture recognisers consume.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TouchPhase {
    /// Touch began.
    Began,
    /// Touch moved.
    Moved,
    /// Touch ended.
    Ended,
}

/// An event in the format iOS apps expect on their event port.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IosHidEvent {
    /// A touch-collection event.
    Touch {
        /// Phase.
        phase: TouchPhase,
        /// Touches (pointer id, x, y).
        touches: Vec<Pointer>,
        /// Mach absolute time.
        timestamp: u64,
    },
    /// An accelerometer sample in micro-g (iOS uses finer units).
    Accelerometer {
        /// X axis.
        x: i64,
        /// Y axis.
        y: i64,
        /// Z axis.
        z: i64,
        /// Mach absolute time.
        timestamp: u64,
    },
    /// A button event.
    Button {
        /// HID usage code.
        usage: u32,
        /// Pressed?
        down: bool,
        /// Mach absolute time.
        timestamp: u64,
    },
}

/// Translates an Android event into the iOS format.
pub fn translate(e: &AndroidEvent) -> IosHidEvent {
    match e {
        AndroidEvent::Motion {
            action,
            pointers,
            time_ns,
        } => {
            let phase = match action {
                MotionAction::Down | MotionAction::PointerDown => {
                    TouchPhase::Began
                }
                MotionAction::Move => TouchPhase::Moved,
                MotionAction::Up | MotionAction::PointerUp => {
                    TouchPhase::Ended
                }
            };
            IosHidEvent::Touch {
                phase,
                touches: pointers.clone(),
                timestamp: *time_ns,
            }
        }
        AndroidEvent::Accelerometer { x, y, z, time_ns } => {
            IosHidEvent::Accelerometer {
                x: *x as i64 * 1000,
                y: *y as i64 * 1000,
                z: *z as i64 * 1000,
                timestamp: *time_ns,
            }
        }
        AndroidEvent::Key {
            code,
            down,
            time_ns,
        } => IosHidEvent::Button {
            usage: *code,
            down: *down,
            timestamp: *time_ns,
        },
    }
}

// ----------------------------------------------------------------------
// Wire formats. Both carry one tagged record: 1 a touch collection
// (phase byte, time, pointer count, then id/x/y per pointer), 2 an
// accelerometer sample (time, then x/y/z), 3 a key or button (time,
// code, down). They differ only in the accelerometer's axis width,
// `i32` milli-g on Android and `i64` micro-g on iOS.
// ----------------------------------------------------------------------

/// An event body reader; both decoders fail a short or corrupt body
/// with `EINVAL`.
type Reader<'a> = ByteReader<'a, Errno>;

fn put_touches(w: &mut ByteWriter, phase: u8, time: u64, ps: &[Pointer]) {
    w.put_raw(&[1, phase]);
    w.put_u64(time);
    w.put_u8(ps.len() as u8);
    for p in ps {
        w.put_u8(p.id);
        w.put_u32(p.x as u32);
        w.put_u32(p.y as u32);
    }
}

fn get_pointers(r: &mut Reader<'_>) -> Result<Vec<Pointer>, Errno> {
    let n = r.get_u8()?;
    let mut ps = Vec::with_capacity(r.capacity_for(n.into(), 9));
    for _ in 0..n {
        ps.push(Pointer {
            id: r.get_u8()?,
            x: r.get_u32()? as i32,
            y: r.get_u32()? as i32,
        });
    }
    Ok(ps)
}

fn put_key(w: &mut ByteWriter, time: u64, code: u32, down: bool) {
    w.put_u8(3);
    w.put_u64(time);
    w.put_u32(code);
    w.put_u8(u8::from(down));
}

/// Encodes an Android event for the CiderPress → eventpump BSD socket,
/// framed by a `u16` body length.
pub fn encode(e: &AndroidEvent) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(32);
    match e {
        AndroidEvent::Motion {
            action,
            pointers,
            time_ns,
        } => {
            let action = match action {
                MotionAction::Down => 0,
                MotionAction::Move => 1,
                MotionAction::Up => 2,
                MotionAction::PointerDown => 3,
                MotionAction::PointerUp => 4,
            };
            put_touches(&mut w, action, *time_ns, pointers);
        }
        AndroidEvent::Accelerometer { x, y, z, time_ns } => {
            w.put_u8(2);
            w.put_u64(*time_ns);
            for axis in [x, y, z] {
                w.put_u32(*axis as u32);
            }
        }
        AndroidEvent::Key {
            code,
            down,
            time_ns,
        } => put_key(&mut w, *time_ns, *code, *down),
    }
    let body = w.into_bytes();
    let mut framed = ByteWriter::with_capacity(body.len() + 2);
    framed.put_u16(body.len() as u16);
    framed.put_raw(&body);
    framed.into_bytes()
}

/// Decodes one framed event from the socket stream; returns the event
/// and bytes consumed, or `Ok(None)` when the buffer holds a partial
/// frame.
///
/// # Errors
///
/// `EINVAL` for corrupt frames.
pub fn decode(buf: &[u8]) -> Result<Option<(AndroidEvent, usize)>, Errno> {
    let mut frame = ByteReader::new(buf, ());
    let Ok(body) = frame.get_u16().and_then(|n| frame.get_raw(n.into()))
    else {
        return Ok(None);
    };
    let mut r = Reader::new(body, Errno::EINVAL);
    let ev = match r.get_u8()? {
        1 => {
            let action = match r.get_u8()? {
                0 => MotionAction::Down,
                1 => MotionAction::Move,
                2 => MotionAction::Up,
                3 => MotionAction::PointerDown,
                4 => MotionAction::PointerUp,
                _ => return Err(Errno::EINVAL),
            };
            AndroidEvent::Motion {
                action,
                time_ns: r.get_u64()?,
                pointers: get_pointers(&mut r)?,
            }
        }
        2 => AndroidEvent::Accelerometer {
            time_ns: r.get_u64()?,
            x: r.get_u32()? as i32,
            y: r.get_u32()? as i32,
            z: r.get_u32()? as i32,
        },
        3 => AndroidEvent::Key {
            time_ns: r.get_u64()?,
            code: r.get_u32()?,
            down: r.get_u8()? != 0,
        },
        _ => return Err(Errno::EINVAL),
    };
    Ok(Some((ev, frame.pos())))
}

/// Encodes an iOS HID event into a Mach message body (eventpump → the
/// app's event port).
pub fn encode_ios(e: &IosHidEvent) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(32);
    match e {
        IosHidEvent::Touch {
            phase,
            touches,
            timestamp,
        } => {
            let phase = match phase {
                TouchPhase::Began => 0,
                TouchPhase::Moved => 1,
                TouchPhase::Ended => 2,
            };
            put_touches(&mut w, phase, *timestamp, touches);
        }
        IosHidEvent::Accelerometer { x, y, z, timestamp } => {
            w.put_u8(2);
            w.put_u64(*timestamp);
            for axis in [x, y, z] {
                w.put_u64(*axis as u64);
            }
        }
        IosHidEvent::Button {
            usage,
            down,
            timestamp,
        } => put_key(&mut w, *timestamp, *usage, *down),
    }
    w.into_bytes()
}

/// Decodes an iOS HID event from a Mach message body.
///
/// # Errors
///
/// `EINVAL` for corrupt bodies.
pub fn decode_ios(b: &[u8]) -> Result<IosHidEvent, Errno> {
    let mut r = Reader::new(b, Errno::EINVAL);
    Ok(match r.get_u8()? {
        1 => {
            let phase = match r.get_u8()? {
                0 => TouchPhase::Began,
                1 => TouchPhase::Moved,
                2 => TouchPhase::Ended,
                _ => return Err(Errno::EINVAL),
            };
            IosHidEvent::Touch {
                phase,
                timestamp: r.get_u64()?,
                touches: get_pointers(&mut r)?,
            }
        }
        2 => IosHidEvent::Accelerometer {
            timestamp: r.get_u64()?,
            x: r.get_u64()? as i64,
            y: r.get_u64()? as i64,
            z: r.get_u64()? as i64,
        },
        3 => IosHidEvent::Button {
            timestamp: r.get_u64()?,
            usage: r.get_u32()?,
            down: r.get_u8()? != 0,
        },
        _ => return Err(Errno::EINVAL),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_motion() -> AndroidEvent {
        AndroidEvent::Motion {
            action: MotionAction::Move,
            pointers: vec![
                Pointer {
                    id: 0,
                    x: 100,
                    y: 200,
                },
                Pointer {
                    id: 1,
                    x: -5,
                    y: 700,
                },
            ],
            time_ns: 123_456,
        }
    }

    #[test]
    fn translate_touch_phases() {
        let ios = translate(&sample_motion());
        let IosHidEvent::Touch { phase, touches, .. } = ios else {
            panic!("expected touch")
        };
        assert_eq!(phase, TouchPhase::Moved);
        assert_eq!(touches.len(), 2);
    }

    #[test]
    fn translate_accelerometer_scales_units() {
        let a = AndroidEvent::Accelerometer {
            x: 10,
            y: -20,
            z: 1000,
            time_ns: 5,
        };
        let IosHidEvent::Accelerometer { x, z, .. } = translate(&a) else {
            panic!("expected accel")
        };
        assert_eq!(x, 10_000);
        assert_eq!(z, 1_000_000);
    }

    #[test]
    fn wire_roundtrip_all_kinds() {
        for ev in [
            sample_motion(),
            AndroidEvent::Accelerometer {
                x: 1,
                y: 2,
                z: 3,
                time_ns: 9,
            },
            AndroidEvent::Key {
                code: 24,
                down: true,
                time_ns: 77,
            },
        ] {
            let bytes = encode(&ev);
            let (decoded, consumed) = decode(&bytes).unwrap().unwrap();
            assert_eq!(decoded, ev);
            assert_eq!(consumed, bytes.len());
        }
    }

    #[test]
    fn partial_frames_wait_for_more() {
        let bytes = encode(&sample_motion());
        assert_eq!(decode(&bytes[..1]).unwrap(), None);
        assert_eq!(decode(&bytes[..bytes.len() - 1]).unwrap(), None);
    }

    #[test]
    fn stream_of_frames_decodes_sequentially() {
        let a = sample_motion();
        let b = AndroidEvent::Key {
            code: 1,
            down: false,
            time_ns: 2,
        };
        let mut stream = encode(&a);
        stream.extend(encode(&b));
        let (d1, c1) = decode(&stream).unwrap().unwrap();
        assert_eq!(d1, a);
        let (d2, _) = decode(&stream[c1..]).unwrap().unwrap();
        assert_eq!(d2, b);
    }

    #[test]
    fn corrupt_frame_rejected() {
        let mut bytes = encode(&sample_motion());
        bytes[2] = 99; // bogus kind
        assert_eq!(decode(&bytes), Err(Errno::EINVAL));
    }

    #[test]
    fn ios_wire_roundtrip() {
        let events = [
            translate(&sample_motion()),
            IosHidEvent::Accelerometer {
                x: 1,
                y: -2,
                z: 3,
                timestamp: 10,
            },
            IosHidEvent::Button {
                usage: 7,
                down: true,
                timestamp: 20,
            },
        ];
        for e in events {
            let bytes = encode_ios(&e);
            assert_eq!(decode_ios(&bytes).unwrap(), e);
        }
        assert_eq!(decode_ios(&[99]), Err(Errno::EINVAL));
    }
}
