//! Portable serialization of a [`HierNode`]'s protocol state.
//!
//! The multi-process harness audits a cluster globally: every `dlm-node`
//! process ships its per-lock states to the driver, which reassembles them
//! and runs [`crate::invariants::audit`] exactly as the in-process runtime
//! does at shutdown. The audit needs *all* protocol state — including
//! fields with no public accessor (`registered`, `frozen_sent`, the grant
//! counters) — so the codec lives inside `dlm-core` where it can see them.
//!
//! The format is a versioned little-endian byte layout, not `serde`:
//! `dlm-core` deliberately has no wire-format dependencies, and the layout
//! doubles as documentation of what "one lock's state" is. The
//! [`crate::config::ProtocolConfig`] is *not* serialized — all members of a
//! cluster share one configuration, so the decoder's caller supplies it.

use super::{HierNode, PeerState, Peers};
use crate::config::ProtocolConfig;
use crate::flatmap::{CopySet, FlatMap};
use crate::ids::NodeId;
use crate::message::QueuedRequest;
use dlm_modes::{Mode, ModeSet, ALL_MODES};
use std::collections::VecDeque;

/// Layout version; bump on any change to the byte format.
///
/// The version appears at both ends of a blob and the decoder accepts no
/// other: every producer writes this layout and no older blob is persisted
/// anywhere, so a foreign version byte means a foreign or corrupt body.
const STATE_VERSION: u8 = 2;

const FLAG_HAS_TOKEN: u8 = 1 << 0;
const FLAG_PARENT: u8 = 1 << 1;
const FLAG_PENDING: u8 = 1 << 2;
const FLAG_REGISTERED: u8 = 1 << 3;

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_queued(out: &mut Vec<u8>, q: &QueuedRequest) {
    put_u32(out, q.from.0);
    out.push(q.mode.index() as u8);
    out.push(q.upgrade as u8);
    out.push(q.priority);
}

fn modeset_bits(set: ModeSet) -> u8 {
    set.iter().fold(0u8, |acc, m| acc | (1 << m.index()))
}

fn modeset_from_bits(bits: u8) -> Option<ModeSet> {
    if bits & !0b11_1111 != 0 {
        return None;
    }
    Some(ModeSet::from_modes(
        ALL_MODES
            .into_iter()
            .filter(|m| bits & (1 << m.index()) != 0),
    ))
}

/// Checked little-endian reader over the encoded state.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn u8(&mut self) -> Option<u8> {
        let v = *self.buf.get(self.pos)?;
        self.pos += 1;
        Some(v)
    }

    fn u32(&mut self) -> Option<u32> {
        let b = self.buf.get(self.pos..self.pos + 4)?;
        self.pos += 4;
        Some(u32::from_le_bytes(b.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        let b = self.buf.get(self.pos..self.pos + 8)?;
        self.pos += 8;
        Some(u64::from_le_bytes(b.try_into().ok()?))
    }

    fn mode(&mut self) -> Option<Mode> {
        Mode::from_index(self.u8()? as usize)
    }

    fn queued(&mut self) -> Option<QueuedRequest> {
        let from = NodeId(self.u32()?);
        let mode = self.mode()?;
        let upgrade = match self.u8()? {
            0 => false,
            1 => true,
            _ => return None,
        };
        let priority = self.u8()?;
        Some(QueuedRequest {
            from,
            mode,
            upgrade,
            priority,
        })
    }
}

impl HierNode {
    /// Append this node's complete protocol state to `out`.
    ///
    /// The inverse is [`HierNode::decode_state`]; round-tripping preserves
    /// every field, so a decoded node is audit-equivalent to the original.
    pub fn encode_state(&self, out: &mut Vec<u8>) {
        out.push(STATE_VERSION);
        put_u32(out, self.id.0);
        put_u32(out, self.epoch);
        let mut flags = 0u8;
        if self.has_token {
            flags |= FLAG_HAS_TOKEN;
        }
        if self.parent.is_some() {
            flags |= FLAG_PARENT;
        }
        if self.pending.is_some() {
            flags |= FLAG_PENDING;
        }
        if self.registered {
            flags |= FLAG_REGISTERED;
        }
        out.push(flags);
        if let Some(parent) = self.parent {
            put_u32(out, parent.0);
        }
        out.push(self.held.index() as u8);
        out.push(self.owned.index() as u8);
        if let Some(pending) = &self.pending {
            put_queued(out, pending);
        }
        out.push(modeset_bits(self.frozen));
        put_u64(out, self.anomalies);
        let peers = self.peers.get();
        put_u32(out, peers.copyset.len() as u32);
        for (node, mode) in peers.copyset.iter() {
            put_u32(out, node.0);
            out.push(mode.index() as u8);
        }
        put_u32(out, peers.queue.len() as u32);
        for q in &peers.queue {
            put_queued(out, q);
        }
        put_u32(out, peers.frozen_sent.len() as u32);
        for (node, set) in peers.frozen_sent.iter() {
            put_u32(out, node.0);
            out.push(modeset_bits(set));
        }
        put_u32(out, peers.grants_sent.len() as u32);
        for (node, count) in peers.grants_sent.iter() {
            put_u32(out, node.0);
            put_u64(out, count);
        }
        put_u32(out, peers.grants_received.len() as u32);
        for (node, count) in peers.grants_received.iter() {
            put_u32(out, node.0);
            put_u64(out, count);
        }
        out.push(STATE_VERSION);
    }

    /// Reconstruct a node from bytes written by [`HierNode::encode_state`].
    ///
    /// `config` must be the cluster's shared [`ProtocolConfig`] (it is not
    /// part of the encoding). Returns `None` on truncated or malformed
    /// input or an unknown layout version — never panics. A state whose
    /// peer collections are all empty decodes without a peer box.
    pub fn decode_state(buf: &[u8], config: ProtocolConfig) -> Option<HierNode> {
        let mut c = Cursor { buf, pos: 0 };
        if c.u8()? != STATE_VERSION {
            return None;
        }
        let id = NodeId(c.u32()?);
        let epoch = c.u32()?;
        let flags = c.u8()?;
        if flags & !(FLAG_HAS_TOKEN | FLAG_PARENT | FLAG_PENDING | FLAG_REGISTERED) != 0 {
            return None;
        }
        let parent = if flags & FLAG_PARENT != 0 {
            Some(NodeId(c.u32()?))
        } else {
            None
        };
        let held = c.mode()?;
        let owned = c.mode()?;
        let pending = if flags & FLAG_PENDING != 0 {
            Some(c.queued()?)
        } else {
            None
        };
        let frozen = modeset_from_bits(c.u8()?)?;
        let anomalies = c.u64()?;
        let mut copyset = CopySet::new();
        for _ in 0..c.u32()? {
            let node = NodeId(c.u32()?);
            copyset.insert(node, c.mode()?);
        }
        let mut queue = VecDeque::new();
        let count = c.u32()?;
        if count as usize > buf.len() {
            return None;
        }
        for _ in 0..count {
            queue.push_back(c.queued()?);
        }
        let mut frozen_sent = FlatMap::new();
        for _ in 0..c.u32()? {
            let node = NodeId(c.u32()?);
            frozen_sent.insert(node, modeset_from_bits(c.u8()?)?);
        }
        let mut grants_sent = FlatMap::new();
        for _ in 0..c.u32()? {
            let node = NodeId(c.u32()?);
            grants_sent.insert(node, c.u64()?);
        }
        let mut grants_received = FlatMap::new();
        for _ in 0..c.u32()? {
            let node = NodeId(c.u32()?);
            grants_received.insert(node, c.u64()?);
        }
        if c.u8()? != STATE_VERSION || c.pos != buf.len() {
            return None;
        }
        Some(HierNode {
            id,
            config,
            epoch,
            parent,
            has_token: flags & FLAG_HAS_TOKEN != 0,
            held,
            owned,
            pending,
            frozen,
            registered: flags & FLAG_REGISTERED != 0,
            anomalies,
            peers: Peers::from_state(PeerState {
                copyset,
                queue,
                frozen_sent,
                grants_sent,
                grants_received,
            }),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::effect::{effects_of, Effect};
    use crate::message::Message;

    fn encoded(node: &HierNode) -> Vec<u8> {
        let mut out = Vec::new();
        node.encode_state(&mut out);
        out
    }

    #[test]
    fn round_trip_fresh_nodes() {
        let config = ProtocolConfig::paper();
        for node in [
            HierNode::with_token(NodeId(0), config),
            HierNode::new(NodeId(3), NodeId(0), config),
        ] {
            let bytes = encoded(&node);
            let back = HierNode::decode_state(&bytes, config).expect("decodes");
            assert_eq!(encoded(&back), bytes, "re-encoding is identical");
            assert_eq!(back.id(), node.id());
            assert_eq!(back.has_token(), node.has_token());
            assert_eq!(back.parent(), node.parent());
        }
    }

    #[test]
    fn round_trip_active_state() {
        // Drive real protocol traffic so copyset, grant counters and
        // queue/pending state are all populated before the round trip.
        let config = ProtocolConfig::paper();
        let mut token = HierNode::with_token(NodeId(0), config);
        let mut leaf = HierNode::new(NodeId(1), NodeId(0), config);

        let effects = effects_of(|b, o| leaf.on_acquire_into(Mode::Read, 0, b, o).unwrap());
        let Effect::Send { message, .. } = &effects[0] else {
            panic!("expected a request send");
        };
        let effects = effects_of(|b, o| token.on_message_into(NodeId(1), message.clone(), b, o));
        let Effect::Send { message: grant, .. } = &effects[0] else {
            panic!("expected a grant send");
        };
        effects_of(|b, o| leaf.on_message_into(NodeId(0), grant.clone(), b, o));
        // A conflicting local request leaves `pending` occupied at the token.
        effects_of(|b, o| token.on_acquire_into(Mode::Write, 0, b, o).unwrap());

        for node in [&token, &leaf] {
            let bytes = encoded(node);
            let back = HierNode::decode_state(&bytes, config).expect("decodes");
            assert_eq!(encoded(&back), bytes);
            assert_eq!(back.held(), node.held());
            assert_eq!(back.owned(), node.owned());
            assert_eq!(back.recompute_owned(), node.recompute_owned());
            assert_eq!(back.copyset().len(), node.copyset().len());
            assert_eq!(back.pending().is_some(), node.pending().is_some());
        }
    }

    /// A box whose collections a view change emptied is the same state as
    /// no box: the decode round trip (which boxes nothing) fingerprints,
    /// encodes and behaves identically.
    #[test]
    fn emptied_peer_box_is_the_same_state_as_none() {
        use crate::fingerprint::Fingerprintable;
        let config = ProtocolConfig::paper();
        let mut token = HierNode::with_token(NodeId(0), config);
        let req = Message::Request(QueuedRequest::plain(NodeId(1), Mode::Read));
        effects_of(|b, o| token.on_message_into(NodeId(1), req, b, o));
        assert_eq!(token.copyset().len(), 1);
        // The only peer dies: copyset, counters and freeze bookkeeping go.
        effects_of(|b, o| token.on_peer_down_into(NodeId(1), NodeId(0), 1, &[NodeId(0)], b, o));
        assert!(token.peers.0.as_deref().is_some_and(PeerState::is_empty));

        let back = HierNode::decode_state(&encoded(&token), config).expect("decodes");
        assert!(
            back.peers.0.is_none(),
            "an empty state decodes without a box"
        );
        assert_eq!(back.fingerprint(), token.fingerprint());
        assert_eq!(encoded(&back), encoded(&token));
        let mut twins = [token, back];
        for node in &mut twins {
            let effects = effects_of(|b, o| node.on_acquire_into(Mode::Write, 0, b, o).unwrap());
            assert_eq!(effects, [Effect::Granted { mode: Mode::Write }]);
        }
        assert_eq!(twins[0].fingerprint(), twins[1].fingerprint());
    }

    #[test]
    fn malformed_input_is_rejected() {
        let config = ProtocolConfig::paper();
        let mut node = HierNode::with_token(NodeId(0), config);
        effects_of(|b, o| node.on_peer_down_into(NodeId(1), NodeId(0), 7, &[NodeId(0)], b, o));
        let bytes = encoded(&node);
        assert!(HierNode::decode_state(&bytes, config).is_some());
        assert!(HierNode::decode_state(&[], config).is_none(), "empty");
        for cut in 0..bytes.len() {
            assert!(
                HierNode::decode_state(&bytes[..cut], config).is_none(),
                "truncated to {cut} bytes"
            );
        }
        // Any version but the current one, at both ends or at either.
        for version in [0, 1, STATE_VERSION + 1, 99, u8::MAX] {
            let mut relabelled = bytes.clone();
            relabelled[0] = version;
            assert!(
                HierNode::decode_state(&relabelled, config).is_none(),
                "leading version {version}"
            );
            *relabelled.last_mut().unwrap() = version;
            assert!(
                HierNode::decode_state(&relabelled, config).is_none(),
                "version {version} at both ends"
            );
            relabelled[0] = STATE_VERSION;
            assert!(
                HierNode::decode_state(&relabelled, config).is_none(),
                "trailing version {version}"
            );
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(HierNode::decode_state(&trailing, config).is_none());

        // A well-formed v1 blob — no epoch after the id, no trailer — is a
        // foreign layout, not an epoch-0 state.
        let mut v1 = bytes;
        v1[0] = 1;
        v1.drain(5..9);
        v1.pop();
        assert!(HierNode::decode_state(&v1, config).is_none(), "v1 blob");
    }

    proptest::proptest! {
        #[test]
        fn epoch_round_trips(epoch in 0u32..=u32::MAX, id in 0u32..64) {
            let config = ProtocolConfig::paper();
            let mut node = HierNode::with_token(NodeId(id), config);
            if epoch > 0 {
                effects_of(|b, o| {
                    node.on_peer_down_into(NodeId(id + 1), NodeId(id), epoch, &[NodeId(id)], b, o)
                });
            }
            let blob = encoded(&node);
            let back = HierNode::decode_state(&blob, config).expect("decodes");
            proptest::prop_assert_eq!(back.epoch(), epoch);
            proptest::prop_assert_eq!(&encoded(&back), &blob);
        }
    }
}
