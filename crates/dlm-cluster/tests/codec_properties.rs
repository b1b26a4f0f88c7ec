//! Property tests for the wire codec: arbitrary messages of **every**
//! variant round-trip exactly, including when many frames are encoded back
//! to back through one reused scratch buffer — the cluster runtime's
//! per-node encode path. A frame must be a self-contained snapshot; reusing
//! the builder for the next frame must never corrupt an earlier one.
//!
//! Also covers the coalescing container format (arbitrary packings
//! round-trip sub-frame-exact) and the shard-routing hash (deterministic,
//! in range, and prefix-stable across power-of-two worker counts).

use bytes::{BufMut, BytesMut};
use dlm_cluster::codec::{
    decode_container_into, decode_corr, encode_container_into, encode_corr, encode_corr_into,
    is_container, DecodeError,
};
use dlm_cluster::shard::{effective_shards, shard_of};
use dlm_core::{LockId, Message, Mode, ModeSet, NodeId, QueuedRequest};
use proptest::prelude::*;
use std::collections::VecDeque;

fn arb_mode() -> impl Strategy<Value = Mode> {
    (0usize..6).prop_map(|i| Mode::from_index(i).expect("six modes"))
}

fn arb_modeset() -> impl Strategy<Value = ModeSet> {
    (0u8..64).prop_map(|bits| {
        let mut set = ModeSet::new();
        for i in 0..6 {
            if bits & (1 << i) != 0 {
                set.insert(Mode::from_index(i).expect("six modes"));
            }
        }
        set
    })
}

fn arb_queued() -> impl Strategy<Value = QueuedRequest> {
    (any::<u32>(), arb_mode(), any::<bool>(), any::<u8>()).prop_map(
        |(from, mode, upgrade, priority)| QueuedRequest {
            from: NodeId(from),
            mode,
            upgrade,
            priority,
        },
    )
}

fn arb_message() -> impl Strategy<Value = Message> {
    prop_oneof![
        arb_queued().prop_map(Message::Request),
        arb_mode().prop_map(|mode| Message::Grant { mode }),
        (
            arb_mode(),
            arb_mode(),
            arb_modeset(),
            proptest::collection::vec(arb_queued(), 0..12),
        )
            .prop_map(|(mode, granter_owned, frozen, queue)| {
                Message::Token {
                    mode,
                    granter_owned,
                    queue: VecDeque::from(queue),
                    frozen,
                }
            }),
        (arb_mode(), any::<u64>()).prop_map(|(new_owned, ack)| Message::Release { new_owned, ack }),
        arb_modeset().prop_map(|modes| Message::SetFrozen { modes }),
        (
            any::<u32>(),
            any::<u32>(),
            any::<u32>(),
            proptest::collection::vec(any::<u32>(), 0..8),
        )
            .prop_map(|(dead, new_root, epoch, survivors)| Message::Recover {
                dead: NodeId(dead),
                new_root: NodeId(new_root),
                epoch,
                survivors: survivors.into_iter().map(NodeId).collect(),
            }),
    ]
}

/// A frame header: `(lock, request id, hops, epoch)`.
fn arb_header() -> impl Strategy<Value = (u32, u64, u16, u32)> {
    (any::<u32>(), any::<u64>(), any::<u16>(), any::<u32>())
}

proptest! {
    /// Every message round-trips through a frame built in a shared,
    /// repeatedly reused scratch buffer, and the frames stay valid after
    /// later encodes overwrite the builder.
    #[test]
    fn every_variant_round_trips_through_a_reused_buffer(
        batch in proptest::collection::vec((arb_header(), arb_message()), 1..24),
    ) {
        let mut scratch = BytesMut::with_capacity(16);
        let frames: Vec<_> = batch
            .iter()
            .map(|((lock, req, hops, epoch), msg)| {
                encode_corr_into(LockId(*lock), *req, *hops, *epoch, msg, &mut scratch)
            })
            .collect();
        prop_assert!(scratch.is_empty(), "encode_corr_into leaves the scratch cleared");
        for ((header, msg), frame) in batch.iter().zip(frames) {
            let (lock, req, hops, epoch, m2) = decode_corr(frame).expect("valid frame decodes");
            prop_assert_eq!((lock.0, req, hops, epoch), *header);
            prop_assert_eq!(&m2, msg);
        }
    }

    /// The reused-buffer path emits byte-identical frames to the allocating
    /// convenience path.
    #[test]
    fn encode_corr_into_matches_encode_corr(header in arb_header(), msg in arb_message()) {
        let (lock, req, hops, epoch) = header;
        let mut scratch = BytesMut::new();
        let reused = encode_corr_into(LockId(lock), req, hops, epoch, &msg, &mut scratch);
        let fresh = encode_corr(LockId(lock), req, hops, epoch, &msg);
        prop_assert_eq!(reused.as_ref(), fresh.as_ref());
    }

    /// No prefix of a valid frame decodes (no silent truncation), for every
    /// variant shape.
    #[test]
    fn truncated_prefixes_never_decode(header in arb_header(), msg in arb_message()) {
        let (lock, req, hops, epoch) = header;
        let frame = encode_corr(LockId(lock), req, hops, epoch, &msg);
        for cut in 0..frame.len() {
            prop_assert!(
                decode_corr(frame.slice(0..cut)).is_err(),
                "a {}-byte prefix of a {}-byte frame must not decode",
                cut,
                frame.len()
            );
        }
    }

    /// Behind any header, an unknown tag byte is `BadTag` and an
    /// out-of-range mode byte is `BadMode` — never a panic, never a message.
    #[test]
    fn bad_tag_and_bad_mode_are_rejected(
        header in arb_header(),
        tag in 7u8..=255,
        mode in 6u8..=255,
    ) {
        let (lock, req, hops, epoch) = header;
        let frame = |tag: u8, body: u8| {
            let mut buf = BytesMut::new();
            buf.put_u32_le(lock);
            buf.put_u64_le(req);
            buf.put_u16_le(hops);
            buf.put_u32_le(epoch);
            buf.put_u8(tag);
            buf.put_u8(body);
            buf.freeze()
        };
        prop_assert_eq!(decode_corr(frame(tag, 0)), Err(DecodeError::BadTag(tag)));
        prop_assert_eq!(decode_corr(frame(0, 0)), Err(DecodeError::BadTag(0)));
        // Tag 2 is Grant, whose one payload byte is a mode.
        prop_assert_eq!(decode_corr(frame(2, mode)), Err(DecodeError::BadMode(mode)));
    }

    /// Arbitrary packings of correlated frames round-trip through a
    /// container: the unpacked sub-frames are byte-identical, in order, and
    /// each still decodes to its original span, epoch stamp and message.
    /// Bare frames are never mistaken for containers.
    #[test]
    fn containers_round_trip_arbitrary_packings(
        batch in proptest::collection::vec(
            ((any::<u32>(), any::<u64>()), (any::<u16>(), any::<u32>()), arb_message()),
            1..40,
        ),
    ) {
        let mut scratch = BytesMut::new();
        let frames: Vec<_> = batch
            .iter()
            .map(|((lock, req), (hops, epoch), msg)| {
                encode_corr_into(LockId(*lock), *req, *hops, *epoch, msg, &mut scratch)
            })
            .collect();
        for frame in &frames {
            prop_assert!(!is_container(frame), "bare frame misdetected");
        }
        let container = encode_container_into(&frames, &mut scratch);
        prop_assert!(is_container(&container));
        let mut out = Vec::new();
        decode_container_into(container, &mut out).expect("valid container");
        prop_assert_eq!(out.len(), batch.len());
        for (sub, ((lock, req), (hops, epoch), msg)) in out.into_iter().zip(&batch) {
            let (l2, r2, h2, e2, m2) = decode_corr(sub).expect("sub-frame decodes");
            prop_assert_eq!(l2, LockId(*lock));
            prop_assert_eq!(r2, *req);
            prop_assert_eq!(h2, *hops);
            prop_assert_eq!(e2, *epoch);
            prop_assert_eq!(&m2, msg);
        }
    }

    /// Shard routing is a pure function of the lock id, lands in range for
    /// every power-of-two worker count, and is splittable: the assignment
    /// under a smaller count is the masked assignment under any larger one
    /// (so growing the pool never reshuffles locks arbitrarily).
    #[test]
    fn shard_routing_is_stable_and_splittable(lock in any::<u32>(), shift in 0u32..7) {
        let small = 1usize << shift;
        let big = small * 8;
        let s = shard_of(LockId(lock), small);
        prop_assert!(s < small);
        prop_assert_eq!(s, shard_of(LockId(lock), small), "deterministic");
        prop_assert_eq!(s, shard_of(LockId(lock), big) & (small - 1), "splittable");
        prop_assert_eq!(effective_shards(small), small, "powers of two are kept");
    }
}
