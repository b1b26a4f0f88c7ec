//! Compact binary wire format for protocol messages.
//!
//! The cluster runtime encodes every message into a [`bytes::Bytes`] frame
//! before "transmission" and decodes it at the receiver, so the protocol's
//! wire representation is a tested artifact rather than an afterthought.
//!
//! Frame layout (all integers little-endian; [`encode_corr_into`] /
//! [`decode_corr`]):
//!
//! ```text
//! u32  lock id
//! u64  request id  (0 = uncorrelated)
//! u16  causal hop count of this frame
//! u32  sender's epoch for this lock (crash recovery, DESIGN.md §17)
//! u8   message tag (1=Request 2=Grant 3=Token 4=Release 5=SetFrozen 6=Recover)
//! ...  tag-specific payload
//! ```
//!
//! Queued requests serialize as `(u32 from, u8 mode, u8 upgrade, u8 priority)`.
//!
//! The epoch stamp lives in the frame header, not in the message body: the
//! receiver fences a mismatched stamp *before* interpreting the payload,
//! exactly like `HierNode::on_frame_into`.
//!
//! Correlation lives in the frame header — not in `dlm_core::Message` — so
//! the protocol state machine, its structural fingerprints, and the model
//! checker never see request ids. The lock id comes first, which is what
//! the reliability shim's `peek_lock` reads.
//!
//! Coalesced links pack several correlated frames into one *container*
//! frame ([`encode_container_into`] / [`decode_container_into`]):
//!
//! ```text
//! u32  CONTAINER_MARKER (0xFFFF_FFFF)
//! u16  sub-frame count (≥ 1)
//! ...  count × (u32 length | correlated frame bytes)
//! ```
//!
//! The marker occupies the lock-id slot, and `u32::MAX` is reserved — it is
//! the transport sentinel ([`crate::TRANSPORT_LOCK`]), never a
//! real lock — so a receiver (and the reliability shim's `peek_lock`)
//! distinguishes a container from a bare frame by its first four bytes
//! alone. The container travels as one wire frame through the reliability
//! shim: one sequence number, one ack, one retransmission unit.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use dlm_core::{LockId, Message, Mode, ModeSet, NodeId, QueuedRequest};
use std::collections::VecDeque;

/// Errors raised while decoding a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Frame ended before the payload was complete.
    Truncated,
    /// Unknown message tag byte.
    BadTag(u8),
    /// Invalid mode byte.
    BadMode(u8),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "frame truncated"),
            DecodeError::BadTag(t) => write!(f, "unknown message tag {t}"),
            DecodeError::BadMode(m) => write!(f, "invalid mode byte {m}"),
        }
    }
}

impl std::error::Error for DecodeError {}

fn put_mode(buf: &mut BytesMut, mode: Mode) {
    buf.put_u8(mode.index() as u8);
}

fn get_mode(buf: &mut Bytes) -> Result<Mode, DecodeError> {
    if buf.remaining() < 1 {
        return Err(DecodeError::Truncated);
    }
    let b = buf.get_u8();
    Mode::from_index(b as usize).ok_or(DecodeError::BadMode(b))
}

fn put_modeset(buf: &mut BytesMut, set: ModeSet) {
    let mut bits = 0u8;
    for m in set.iter() {
        bits |= 1 << m.index();
    }
    buf.put_u8(bits);
}

fn get_modeset(buf: &mut Bytes) -> Result<ModeSet, DecodeError> {
    if buf.remaining() < 1 {
        return Err(DecodeError::Truncated);
    }
    let bits = buf.get_u8();
    let mut set = ModeSet::new();
    for i in 0..6 {
        if bits & (1 << i) != 0 {
            set.insert(Mode::from_index(i).expect("six modes"));
        }
    }
    Ok(set)
}

fn put_queued(buf: &mut BytesMut, q: &QueuedRequest) {
    buf.put_u32_le(q.from.0);
    put_mode(buf, q.mode);
    buf.put_u8(q.upgrade as u8);
    buf.put_u8(q.priority);
}

fn get_queued(buf: &mut Bytes) -> Result<QueuedRequest, DecodeError> {
    if buf.remaining() < 4 {
        return Err(DecodeError::Truncated);
    }
    let from = NodeId(buf.get_u32_le());
    let mode = get_mode(buf)?;
    if buf.remaining() < 1 {
        return Err(DecodeError::Truncated);
    }
    let upgrade = buf.get_u8() != 0;
    if buf.remaining() < 1 {
        return Err(DecodeError::Truncated);
    }
    let priority = buf.get_u8();
    Ok(QueuedRequest {
        from,
        mode,
        upgrade,
        priority,
    })
}

/// Encode `(lock, message)` with the request-correlation header: `req` is the
/// request id whose causal chain this frame extends (0 = uncorrelated),
/// `hops` is the frame's causal depth (1 = the requester's own first send)
/// and `epoch` is the sender's crash-recovery epoch for this lock.
///
/// `scratch` is cleared first and left empty (capacity retained), so a
/// caller encoding many frames pays zero buffer growth after the largest
/// frame seen.
pub fn encode_corr_into(
    lock: LockId,
    req: u64,
    hops: u16,
    epoch: u32,
    message: &Message,
    scratch: &mut BytesMut,
) -> Bytes {
    scratch.clear();
    let buf = scratch;
    buf.put_u32_le(lock.0);
    buf.put_u64_le(req);
    buf.put_u16_le(hops);
    buf.put_u32_le(epoch);
    put_body(buf, message);
    buf.take_frame()
}

/// Allocating convenience wrapper over [`encode_corr_into`] (tests, tools).
pub fn encode_corr(lock: LockId, req: u64, hops: u16, epoch: u32, message: &Message) -> Bytes {
    encode_corr_into(
        lock,
        req,
        hops,
        epoch,
        message,
        &mut BytesMut::with_capacity(48),
    )
}

fn put_body(buf: &mut BytesMut, message: &Message) {
    match message {
        Message::Request(q) => {
            buf.put_u8(1);
            put_queued(buf, q);
        }
        Message::Grant { mode } => {
            buf.put_u8(2);
            put_mode(buf, *mode);
        }
        Message::Token {
            mode,
            granter_owned,
            queue,
            frozen,
        } => {
            buf.put_u8(3);
            put_mode(buf, *mode);
            put_mode(buf, *granter_owned);
            put_modeset(buf, *frozen);
            buf.put_u16_le(queue.len() as u16);
            for q in queue {
                put_queued(buf, q);
            }
        }
        Message::Release { new_owned, ack } => {
            buf.put_u8(4);
            put_mode(buf, *new_owned);
            buf.put_u64_le(*ack);
        }
        Message::SetFrozen { modes } => {
            buf.put_u8(5);
            put_modeset(buf, *modes);
        }
        Message::Recover {
            dead,
            new_root,
            epoch,
            survivors,
        } => {
            buf.put_u8(6);
            buf.put_u32_le(dead.0);
            buf.put_u32_le(new_root.0);
            buf.put_u32_le(*epoch);
            buf.put_u16_le(survivors.len() as u16);
            for s in survivors {
                buf.put_u32_le(s.0);
            }
        }
    }
}

/// Decode a frame back into `(lock, req, hops, epoch, message)`.
pub fn decode_corr(mut frame: Bytes) -> Result<(LockId, u64, u16, u32, Message), DecodeError> {
    if frame.remaining() < 19 {
        return Err(DecodeError::Truncated);
    }
    let lock = LockId(frame.get_u32_le());
    let req = frame.get_u64_le();
    let hops = frame.get_u16_le();
    let epoch = frame.get_u32_le();
    let message = get_body(&mut frame)?;
    Ok((lock, req, hops, epoch, message))
}

fn get_body(frame: &mut Bytes) -> Result<Message, DecodeError> {
    if frame.remaining() < 1 {
        return Err(DecodeError::Truncated);
    }
    let tag = frame.get_u8();
    let message = match tag {
        1 => Message::Request(get_queued(frame)?),
        2 => Message::Grant {
            mode: get_mode(frame)?,
        },
        3 => {
            let mode = get_mode(frame)?;
            let granter_owned = get_mode(frame)?;
            let frozen = get_modeset(frame)?;
            if frame.remaining() < 2 {
                return Err(DecodeError::Truncated);
            }
            let len = frame.get_u16_le() as usize;
            let mut queue = VecDeque::with_capacity(len);
            for _ in 0..len {
                queue.push_back(get_queued(frame)?);
            }
            Message::Token {
                mode,
                granter_owned,
                queue,
                frozen,
            }
        }
        4 => {
            let new_owned = get_mode(frame)?;
            if frame.remaining() < 8 {
                return Err(DecodeError::Truncated);
            }
            let ack = frame.get_u64_le();
            Message::Release { new_owned, ack }
        }
        5 => Message::SetFrozen {
            modes: get_modeset(frame)?,
        },
        6 => {
            if frame.remaining() < 14 {
                return Err(DecodeError::Truncated);
            }
            let dead = NodeId(frame.get_u32_le());
            let new_root = NodeId(frame.get_u32_le());
            let epoch = frame.get_u32_le();
            let len = frame.get_u16_le() as usize;
            if frame.remaining() < len * 4 {
                return Err(DecodeError::Truncated);
            }
            let survivors = (0..len).map(|_| NodeId(frame.get_u32_le())).collect();
            Message::Recover {
                dead,
                new_root,
                epoch,
                survivors,
            }
        }
        t => return Err(DecodeError::BadTag(t)),
    };
    Ok(message)
}

/// First four bytes of a container frame. Reserved: no protocol frame
/// carries this lock id (it is the transport trace sentinel).
pub const CONTAINER_MARKER: u32 = u32::MAX;

/// Does this wire frame carry a coalesced container rather than a single
/// protocol frame?
pub fn is_container(frame: &Bytes) -> bool {
    frame
        .as_ref()
        .get(0..4)
        .is_some_and(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]) == CONTAINER_MARKER)
}

/// Pack `frames` (each a correlated frame from [`encode_corr_into`]) into
/// one container frame built inside `scratch`.
///
/// Panics if `frames` is empty or longer than `u16::MAX` (the runtime's
/// coalesce buffers flush well below that).
pub fn encode_container_into(frames: &[Bytes], scratch: &mut BytesMut) -> Bytes {
    assert!(!frames.is_empty(), "container needs at least one frame");
    assert!(frames.len() <= u16::MAX as usize, "container overflow");
    scratch.clear();
    let buf = scratch;
    buf.put_u32_le(CONTAINER_MARKER);
    buf.put_u16_le(frames.len() as u16);
    for f in frames {
        debug_assert!(!is_container(f), "containers do not nest");
        buf.put_u32_le(f.len() as u32);
        buf.put_slice(f.as_ref());
    }
    buf.take_frame()
}

/// Unpack a container frame into its sub-frames, appended to `out` (which
/// is cleared first). Each sub-frame is a self-contained correlated frame
/// for [`decode_corr`]. Trailing garbage, a zero count, and truncation all
/// error — a container is exact or it is rejected whole.
pub fn decode_container_into(frame: Bytes, out: &mut Vec<Bytes>) -> Result<(), DecodeError> {
    out.clear();
    let b = frame.as_ref();
    if b.len() < 6 {
        return Err(DecodeError::Truncated);
    }
    let marker = u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
    if marker != CONTAINER_MARKER {
        return Err(DecodeError::BadTag(0));
    }
    let count = u16::from_le_bytes([b[4], b[5]]) as usize;
    if count == 0 {
        return Err(DecodeError::Truncated);
    }
    let mut pos = 6usize;
    for _ in 0..count {
        let Some(hdr) = b.get(pos..pos + 4) else {
            return Err(DecodeError::Truncated);
        };
        let len = u32::from_le_bytes([hdr[0], hdr[1], hdr[2], hdr[3]]) as usize;
        pos += 4;
        if b.len() < pos + len {
            return Err(DecodeError::Truncated);
        }
        out.push(frame.slice(pos..pos + len));
        pos += len;
    }
    if pos != b.len() {
        return Err(DecodeError::Truncated);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(lock: LockId, msg: Message) {
        let frame = encode_corr(lock, 9, 2, 1, &msg);
        let decoded = decode_corr(frame).expect("decodes");
        assert_eq!(decoded, (lock, 9, 2, 1, msg));
    }

    #[test]
    fn round_trips_every_variant() {
        round_trip(
            LockId(3),
            Message::Request(QueuedRequest {
                from: NodeId(7),
                mode: Mode::Upgrade,
                upgrade: false,
                priority: 0,
            }),
        );
        round_trip(LockId::TABLE, Message::Grant { mode: Mode::Read });
        round_trip(
            LockId(9),
            Message::Token {
                mode: Mode::Write,
                granter_owned: Mode::IntentRead,
                queue: VecDeque::from(vec![
                    QueuedRequest {
                        from: NodeId(1),
                        mode: Mode::Write,
                        upgrade: true,
                        priority: 0,
                    },
                    QueuedRequest {
                        from: NodeId(2),
                        mode: Mode::IntentWrite,
                        upgrade: false,
                        priority: 255,
                    },
                ]),
                frozen: ModeSet::from_modes([Mode::IntentRead, Mode::Read]),
            },
        );
        round_trip(
            LockId(1),
            Message::Release {
                new_owned: Mode::NoLock,
                ack: u64::MAX,
            },
        );
        round_trip(
            LockId(2),
            Message::SetFrozen {
                modes: ModeSet::ALL,
            },
        );
        round_trip(
            LockId(4),
            Message::Recover {
                dead: NodeId(3),
                new_root: NodeId(0),
                epoch: 9,
                survivors: vec![NodeId(0), NodeId(1), NodeId(2)],
            },
        );
    }

    #[test]
    fn truncated_frames_error() {
        let frame = encode_corr(
            LockId(0),
            1,
            1,
            0,
            &Message::Release {
                new_owned: Mode::Read,
                ack: 5,
            },
        );
        for cut in 0..frame.len() {
            let partial = frame.slice(0..cut);
            assert!(
                decode_corr(partial).is_err(),
                "decoding a {cut}-byte prefix must fail"
            );
        }
    }

    #[test]
    fn bad_tag_and_mode_error() {
        let header = |buf: &mut BytesMut| {
            buf.put_u32_le(0);
            buf.put_u64_le(0);
            buf.put_u16_le(1);
            buf.put_u32_le(0);
        };
        let mut buf = BytesMut::new();
        header(&mut buf);
        buf.put_u8(99);
        buf.put_u8(0); // pad to the shortest legal frame
        assert_eq!(decode_corr(buf.freeze()), Err(DecodeError::BadTag(99)));

        let mut buf = BytesMut::new();
        header(&mut buf);
        buf.put_u8(2); // Grant
        buf.put_u8(200); // invalid mode
        assert_eq!(decode_corr(buf.freeze()), Err(DecodeError::BadMode(200)));
    }

    #[test]
    fn corr_frames_round_trip_and_keep_lock_first() {
        let msg = Message::Request(QueuedRequest {
            from: NodeId(7),
            mode: Mode::Write,
            upgrade: true,
            priority: 3,
        });
        let req = (7u64 << 32) | 42;
        let frame = encode_corr(LockId(11), req, 5, 2, &msg);
        // Lock id stays in bytes 0..4, where `peek_lock` reads it.
        assert_eq!(&frame.as_ref()[0..4], &11u32.to_le_bytes());
        let (lock, r, hops, epoch, m) = decode_corr(frame).expect("decodes");
        assert_eq!(lock, LockId(11));
        assert_eq!(r, req);
        assert_eq!(hops, 5);
        assert_eq!(epoch, 2);
        assert_eq!(m, msg);
    }

    #[test]
    fn containers_round_trip_and_preserve_order() {
        let frames: Vec<Bytes> = (0..5u32)
            .map(|i| {
                encode_corr(
                    LockId(i),
                    (3u64 << 32) | (i as u64 + 1),
                    i as u16,
                    i,
                    &Message::Grant { mode: Mode::Read },
                )
            })
            .collect();
        let mut scratch = BytesMut::with_capacity(64);
        let container = encode_container_into(&frames, &mut scratch);
        assert!(is_container(&container));
        assert!(!is_container(&frames[0]), "bare frames are not containers");
        let mut out = Vec::new();
        decode_container_into(container, &mut out).expect("container decodes");
        assert_eq!(out.len(), 5);
        for (i, sub) in out.into_iter().enumerate() {
            assert_eq!(sub, frames[i], "sub-frame {i} byte-identical");
            let (lock, req, hops, epoch, msg) = decode_corr(sub).expect("sub-frame decodes");
            assert_eq!(lock, LockId(i as u32));
            assert_eq!(req, (3u64 << 32) | (i as u64 + 1));
            assert_eq!(hops, i as u16);
            assert_eq!(epoch, i as u32);
            assert_eq!(msg, Message::Grant { mode: Mode::Read });
        }
    }

    #[test]
    fn container_truncations_and_bad_shapes_error() {
        let frames = vec![encode_corr(LockId(1), 7, 1, 0, &Message::Grant { mode: Mode::Read }); 3];
        let mut scratch = BytesMut::new();
        let container = encode_container_into(&frames, &mut scratch);
        let mut out = Vec::new();
        for cut in 0..container.len() {
            assert!(
                decode_container_into(container.slice(0..cut), &mut out).is_err(),
                "a {cut}-byte container prefix must not decode"
            );
        }
        // Trailing garbage is rejected.
        let mut padded = BytesMut::new();
        padded.put_slice(container.as_ref());
        padded.put_u8(0);
        assert!(decode_container_into(padded.freeze(), &mut out).is_err());
        // A zero-count container is rejected.
        let mut empty = BytesMut::new();
        empty.put_u32_le(CONTAINER_MARKER);
        empty.put_u16_le(0);
        assert!(decode_container_into(empty.freeze(), &mut out).is_err());
        // A bare frame is not a container.
        assert!(decode_container_into(frames[0].clone(), &mut out).is_err());
    }

    #[test]
    fn frames_are_compact() {
        let frame = encode_corr(LockId(0), 1, 1, 0, &Message::Grant { mode: Mode::Read });
        assert_eq!(frame.len(), 20, "grant frame is 20 bytes");
        let frame = encode_corr(
            LockId(0),
            1,
            1,
            0,
            &Message::Token {
                mode: Mode::Write,
                granter_owned: Mode::NoLock,
                queue: VecDeque::new(),
                frozen: ModeSet::EMPTY,
            },
        );
        assert_eq!(frame.len(), 24, "empty token frame is 24 bytes");
    }
}
