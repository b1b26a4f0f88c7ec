//! Structural fingerprinting for model checking.
//!
//! The bounded model checker in `dlm-check` memoizes visited system states.
//! Its seed implementation keyed on `format!("{:?}", …)` output — correct but
//! slow (hundreds of bytes of formatting per state) and fragile only in the
//! sense that it leaned on `Debug` covering every field. This module replaces
//! it with a 128-bit structural hash built by a visitor ([`FpHasher`]) that
//! every protocol type feeds explicitly.
//!
//! Two properties matter:
//!
//! * **Field coverage is compiler-checked.** Each `fingerprint_into`
//!   implementation *exhaustively destructures* its type (no `..` rest
//!   patterns), so adding a field to [`crate::HierNode`] or
//!   [`crate::Message`] without extending its fingerprint is a compile
//!   error, not a silently unsound checker.
//! * **Unambiguous encoding.** Variable-length collections are
//!   length-prefixed and enum variants are tagged, so distinct states cannot
//!   produce the same input stream to the hasher. Collisions are then only
//!   the generic 128-bit birthday risk (~2⁻⁶⁴ per pair — negligible for the
//!   ≤10⁷-state explorations the checker runs).
//!
//! **Fingerprinting through a map.** The model checker's symmetry reduction
//! needs the digest of a value *as it would read under other node labels* —
//! either a bijective relabelling (the digest then equals
//! `relabeled(map).fingerprint()`, without building the relabelled value) or
//! a many-to-one map onto label-free markers (a signature that is the same
//! for every relabelling of the value). [`Message::fingerprint_mapped_into`]
//! and [`crate::HierNode::fingerprint_mapped_into`] are that second visitor:
//! same exhaustive destructuring, every [`NodeId`] passed through the map
//! together with a 128-bit `site` word saying where it was mentioned (field
//! and full queue position or map value, so the sites of a value's mentions
//! plus its signature onto one marker determine the value), and maps keyed by
//! node id re-sorted under the mapped keys.
//!
//! The hash itself is two independently-seeded multiply–rotate lanes with a
//! murmur-style finalizer — deterministic across runs and platforms, with no
//! dependency on `std::hash::Hasher` (whose `DefaultHasher` is explicitly
//! not stable across releases).

use crate::config::ProtocolConfig;
use crate::flatmap::FlatMap;
use crate::ids::NodeId;
use crate::message::{Message, QueuedRequest};
use core::fmt;
use dlm_modes::{Mode, ModeSet, ALL_MODES};

/// A 128-bit structural state digest.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(pub u128);

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

impl fmt::Debug for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fingerprint({:032x})", self.0)
    }
}

const SEED_A: u64 = 0x9e37_79b9_7f4a_7c15;
const SEED_B: u64 = 0xc2b2_ae3d_27d4_eb4f;
const MUL_A: u64 = 0xff51_afd7_ed55_8ccd;
const MUL_B: u64 = 0xc4ce_b9fe_1a85_ec53;

/// The hash visitor: protocol types write their fields into it via
/// [`Fingerprintable::fingerprint_into`].
#[derive(Debug, Clone)]
pub struct FpHasher {
    a: u64,
    b: u64,
    len: u64,
}

impl FpHasher {
    /// A fresh hasher (fixed seed: fingerprints are stable across runs).
    pub fn new() -> Self {
        FpHasher {
            a: SEED_A,
            b: SEED_B,
            len: 0,
        }
    }

    /// Mix one 64-bit word into both lanes.
    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        self.len = self.len.wrapping_add(1);
        self.a = (self.a ^ v).wrapping_mul(MUL_A).rotate_left(27);
        self.b = (self.b.rotate_left(31) ^ v.wrapping_mul(MUL_B)).wrapping_mul(MUL_A);
    }

    /// Mix a 32-bit word.
    #[inline]
    pub fn write_u32(&mut self, v: u32) {
        self.write_u64(v as u64);
    }

    /// Mix a byte.
    #[inline]
    pub fn write_u8(&mut self, v: u8) {
        self.write_u64(v as u64);
    }

    /// Mix a length/index (collections must length-prefix their contents).
    #[inline]
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Mix a boolean.
    #[inline]
    pub fn write_bool(&mut self, v: bool) {
        self.write_u64(v as u64);
    }

    /// Mix any fingerprintable value (visitor-style composition).
    #[inline]
    pub fn write<T: Fingerprintable + ?Sized>(&mut self, v: &T) {
        v.fingerprint_into(self);
    }

    /// Finalize into the 128-bit digest.
    pub fn finish(mut self) -> Fingerprint {
        let n = self.len;
        self.write_u64(n ^ SEED_B);
        // Cross-pollinate the lanes, then murmur-finalize each.
        let (a, b) = (
            self.a ^ self.b.rotate_left(17),
            self.b ^ self.a.rotate_left(43),
        );
        Fingerprint(((fmix64(a) as u128) << 64) | fmix64(b) as u128)
    }
}

impl Default for FpHasher {
    fn default() -> Self {
        Self::new()
    }
}

/// MurmurHash3's 64-bit finalizer (full avalanche).
#[inline]
fn fmix64(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(MUL_A);
    x ^= x >> 33;
    x = x.wrapping_mul(MUL_B);
    x ^= x >> 33;
    x
}

/// Types that contribute their full observable state to a [`FpHasher`].
///
/// Implementations must destructure exhaustively (no `..`) so that new
/// fields cannot be forgotten, and must length-prefix collections / tag enum
/// variants so the byte stream is unambiguous.
pub trait Fingerprintable {
    /// Feed every state-distinguishing field into the hasher.
    fn fingerprint_into(&self, h: &mut FpHasher);

    /// Convenience: hash this value alone.
    fn fingerprint(&self) -> Fingerprint {
        let mut h = FpHasher::new();
        self.fingerprint_into(&mut h);
        h.finish()
    }
}

impl Fingerprintable for Mode {
    fn fingerprint_into(&self, h: &mut FpHasher) {
        h.write_u8(self.index() as u8);
    }
}

impl Fingerprintable for ModeSet {
    fn fingerprint_into(&self, h: &mut FpHasher) {
        let mut bits = 0u8;
        for (i, &m) in ALL_MODES.iter().enumerate() {
            if self.contains(m) {
                bits |= 1 << i;
            }
        }
        h.write_u8(bits);
    }
}

impl Fingerprintable for NodeId {
    fn fingerprint_into(&self, h: &mut FpHasher) {
        let NodeId(raw) = *self;
        h.write_u32(raw);
    }
}

impl Fingerprintable for Option<NodeId> {
    fn fingerprint_into(&self, h: &mut FpHasher) {
        match self {
            None => h.write_u8(0),
            Some(id) => {
                h.write_u8(1);
                id.fingerprint_into(h);
            }
        }
    }
}

impl Fingerprintable for ProtocolConfig {
    fn fingerprint_into(&self, h: &mut FpHasher) {
        let ProtocolConfig {
            local_queueing,
            child_grants,
            release_suppression,
            freezing,
            eager_idle_transfer,
            accept_stale_releases,
        } = *self;
        h.write_bool(local_queueing);
        h.write_bool(child_grants);
        h.write_bool(release_suppression);
        h.write_bool(freezing);
        h.write_bool(eager_idle_transfer);
        h.write_bool(accept_stale_releases);
    }
}

impl Fingerprintable for QueuedRequest {
    fn fingerprint_into(&self, h: &mut FpHasher) {
        let QueuedRequest {
            from,
            mode,
            upgrade,
            priority,
        } = *self;
        from.fingerprint_into(h);
        mode.fingerprint_into(h);
        h.write_bool(upgrade);
        h.write_u8(priority);
    }
}

impl Fingerprintable for Message {
    fn fingerprint_into(&self, h: &mut FpHasher) {
        match self {
            Message::Request(req) => {
                h.write_u8(0);
                req.fingerprint_into(h);
            }
            Message::Grant { mode } => {
                h.write_u8(1);
                mode.fingerprint_into(h);
            }
            Message::Token {
                mode,
                granter_owned,
                queue,
                frozen,
            } => {
                h.write_u8(2);
                mode.fingerprint_into(h);
                granter_owned.fingerprint_into(h);
                h.write_usize(queue.len());
                for q in queue {
                    q.fingerprint_into(h);
                }
                frozen.fingerprint_into(h);
            }
            Message::Release { new_owned, ack } => {
                h.write_u8(3);
                new_owned.fingerprint_into(h);
                h.write_u64(*ack);
            }
            Message::SetFrozen { modes } => {
                h.write_u8(4);
                modes.fingerprint_into(h);
            }
            Message::Recover {
                dead,
                new_root,
                epoch,
                survivors,
            } => {
                h.write_u8(5);
                dead.fingerprint_into(h);
                new_root.fingerprint_into(h);
                h.write_u32(*epoch);
                h.write_usize(survivors.len());
                for s in survivors {
                    s.fingerprint_into(h);
                }
            }
        }
    }
}

/// Field tags of [`site`] words: where a node identity is mentioned.
pub(crate) mod tag {
    pub const ID: u8 = 1;
    pub const PARENT: u8 = 2;
    pub const PENDING: u8 = 3;
    pub const QUEUE: u8 = 4;
    pub const COPYSET: u8 = 5;
    pub const FROZEN_SENT: u8 = 6;
    pub const GRANTS_SENT: u8 = 7;
    pub const GRANTS_RECEIVED: u8 = 8;
    pub const REQUEST: u8 = 9;
    pub const TOKEN_QUEUE: u8 = 10;
    pub const RECOVER_DEAD: u8 = 11;
    pub const RECOVER_ROOT: u8 = 12;
    pub const RECOVER_SURVIVOR: u8 = 13;
}

/// The word a mapped fingerprint hands its map beside each [`NodeId`]: the
/// field the id was found in (`tag`, low byte) and what tells two mentions in
/// that field apart without naming a node — the position in an ordered queue,
/// the entry's value in a map keyed by node id (`detail`, all 64 bits of it,
/// above the tag). Equal for the same mention in any relabelling of the
/// value, and different for two mentions that differ in field or detail: a
/// grant counter keeps its top byte, so which id holds which counter is
/// recoverable from the sites alone.
#[inline]
pub(crate) fn site(tag: u8, detail: u64) -> u128 {
    (u128::from(detail) << 8) | u128::from(tag)
}

/// Entries a keyed map sorts on the stack before spilling to the heap.
const SORT_INLINE: usize = 16;

/// Write a map keyed by node id as it reads under `map`: length, then the
/// `(mapped key, value word)` pairs in ascending order. Under a bijection
/// that is the iteration order of the relabelled map; under a many-to-one map
/// it is a canonical order of the multiset.
pub(crate) fn write_keyed_mapped<V: Copy + Default, const N: usize>(
    h: &mut FpHasher,
    entries: &FlatMap<V, N>,
    tag: u8,
    word: impl Fn(V) -> u64,
    map: &mut impl FnMut(u128, NodeId) -> NodeId,
) {
    let len = entries.len();
    h.write_usize(len);
    let mut inline = [(0u32, 0u64); SORT_INLINE];
    let mut spill = Vec::new();
    let pairs: &mut [(u32, u64)] = if len <= SORT_INLINE {
        &mut inline[..len]
    } else {
        spill.resize(len, (0, 0));
        &mut spill
    };
    for (pair, (key, value)) in pairs.iter_mut().zip(entries.iter()) {
        let word = word(value);
        *pair = (map(site(tag, word), key).0, word);
    }
    pairs.sort_unstable();
    for &(key, word) in pairs.iter() {
        h.write_u32(key);
        h.write_u64(word);
    }
}

impl QueuedRequest {
    /// [`Fingerprintable::fingerprint_into`] with the originator written as
    /// `from`.
    pub(crate) fn fingerprint_from_into(&self, h: &mut FpHasher, from: NodeId) {
        let QueuedRequest {
            from: _,
            mode,
            upgrade,
            priority,
        } = *self;
        from.fingerprint_into(h);
        mode.fingerprint_into(h);
        h.write_bool(upgrade);
        h.write_u8(priority);
    }
}

impl Message {
    /// Feed this message into `h` as it reads with every embedded node
    /// identity passed through `map` (called as `map(site, id)`; see the
    /// module docs). For a bijection the result is what
    /// `self.relabeled(map).fingerprint_into(h)` writes.
    pub fn fingerprint_mapped_into(
        &self,
        h: &mut FpHasher,
        map: &mut impl FnMut(u128, NodeId) -> NodeId,
    ) {
        match self {
            Message::Request(req) => {
                h.write_u8(0);
                req.fingerprint_from_into(h, map(site(tag::REQUEST, 0), req.from));
            }
            Message::Token {
                mode,
                granter_owned,
                queue,
                frozen,
            } => {
                h.write_u8(2);
                mode.fingerprint_into(h);
                granter_owned.fingerprint_into(h);
                h.write_usize(queue.len());
                for (i, q) in queue.iter().enumerate() {
                    q.fingerprint_from_into(h, map(site(tag::TOKEN_QUEUE, i as u64), q.from));
                }
                frozen.fingerprint_into(h);
            }
            Message::Recover {
                dead,
                new_root,
                epoch,
                survivors,
            } => {
                h.write_u8(5);
                map(site(tag::RECOVER_DEAD, 0), *dead).fingerprint_into(h);
                map(site(tag::RECOVER_ROOT, 0), *new_root).fingerprint_into(h);
                h.write_u32(*epoch);
                h.write_usize(survivors.len());
                for (i, s) in survivors.iter().enumerate() {
                    map(site(tag::RECOVER_SURVIVOR, i as u64), *s).fingerprint_into(h);
                }
            }
            // No node identity inside: the plain visitor already destructures
            // these exhaustively.
            Message::Grant { .. } | Message::Release { .. } | Message::SetFrozen { .. } => {
                self.fingerprint_into(h)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::effect::effects_of;
    use crate::node::HierNode;

    #[test]
    fn hashing_is_deterministic() {
        let m = Message::Grant { mode: Mode::Read };
        assert_eq!(m.fingerprint(), m.fingerprint());
        let n = HierNode::with_token(NodeId(0), ProtocolConfig::paper());
        assert_eq!(n.fingerprint(), n.fingerprint());
    }

    #[test]
    fn distinct_messages_hash_distinctly() {
        let msgs = [
            Message::Grant { mode: Mode::Read },
            Message::Grant { mode: Mode::Write },
            Message::Request(QueuedRequest::plain(NodeId(1), Mode::Read)),
            Message::Release {
                new_owned: Mode::NoLock,
                ack: 0,
            },
            Message::Release {
                new_owned: Mode::NoLock,
                ack: 1,
            },
            Message::SetFrozen {
                modes: ModeSet::EMPTY,
            },
        ];
        for (i, a) in msgs.iter().enumerate() {
            for b in &msgs[i + 1..] {
                assert_ne!(a.fingerprint(), b.fingerprint(), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn mapped_message_fingerprint_is_the_relabelled_fingerprint() {
        let relabel = |id: NodeId| NodeId(7 - id.0);
        let msgs = [
            Message::Request(QueuedRequest::plain(NodeId(1), Mode::Read)),
            Message::Grant { mode: Mode::Read },
            Message::Token {
                mode: Mode::Write,
                granter_owned: Mode::Read,
                queue: [2, 5]
                    .map(|id| QueuedRequest::plain(NodeId(id), Mode::Write))
                    .into(),
                frozen: ModeSet::ALL,
            },
            Message::Release {
                new_owned: Mode::NoLock,
                ack: 2,
            },
            Message::SetFrozen {
                modes: ModeSet::EMPTY,
            },
            Message::Recover {
                dead: NodeId(2),
                new_root: NodeId(0),
                epoch: 3,
                survivors: vec![NodeId(0), NodeId(1)],
            },
        ];
        for m in &msgs {
            let mut h = FpHasher::new();
            m.fingerprint_mapped_into(&mut h, &mut |_, id| relabel(id));
            assert_eq!(h.finish(), m.relabeled(relabel).fingerprint(), "{m:?}");
        }
    }

    #[test]
    fn length_prefixing_disambiguates_adjacent_collections() {
        // Same multiset of words split differently must not collide: two
        // hashers fed (1)(2,3) vs (1,2)(3) as length-prefixed sequences.
        let mut h1 = FpHasher::new();
        h1.write_usize(1);
        h1.write_u64(7);
        h1.write_usize(2);
        h1.write_u64(8);
        h1.write_u64(9);
        let mut h2 = FpHasher::new();
        h2.write_usize(2);
        h2.write_u64(7);
        h2.write_u64(8);
        h2.write_usize(1);
        h2.write_u64(9);
        assert_ne!(h1.finish(), h2.finish());
    }

    #[test]
    fn node_fingerprint_tracks_protocol_state() {
        let idle = HierNode::with_token(NodeId(0), ProtocolConfig::paper());
        let mut active = idle.clone();
        let fp_idle = idle.fingerprint();
        assert_eq!(fp_idle, active.fingerprint(), "clone hashes identically");
        effects_of(|b, o| active.on_acquire_into(Mode::Write, 0, b, o).unwrap());
        assert_ne!(fp_idle, active.fingerprint(), "held mode must be visible");
        effects_of(|b, o| active.on_release_into(b, o).unwrap());
        assert_eq!(
            fp_idle,
            active.fingerprint(),
            "acquire+release returns the token node to its initial state"
        );
    }

    #[test]
    fn config_fingerprint_sees_every_toggle() {
        let base = ProtocolConfig::paper();
        let variants = [
            base.without(crate::config::Ablation::LocalQueueing),
            base.without(crate::config::Ablation::ChildGrants),
            base.without(crate::config::Ablation::ReleaseSuppression),
            base.without(crate::config::Ablation::Freezing),
            base.literal_rule_3_2(),
            base.with_seeded_stale_release_bug(),
        ];
        for v in &variants {
            assert_ne!(base.fingerprint(), v.fingerprint(), "{v:?}");
        }
    }
}
