//! The per-node, per-lock protocol state machine.

mod acquire;
mod handlers;
mod queue;
mod recovery;
mod state;

use crate::config::ProtocolConfig;
use crate::flatmap::{CopySet, FlatMap, MAP_INLINE};
use crate::ids::NodeId;
use crate::message::QueuedRequest;
use dlm_modes::{Mode, ModeSet};
use dlm_trace::{Observer, ProtocolEvent};
use std::collections::VecDeque;
use std::fmt;

/// One node's instance of the hierarchical locking protocol for one lock
/// object.
///
/// The paper's per-node state is the tuple `(MO, MH, MP)` — owned, held and
/// pending mode — plus the parent link, the copyset, the local queue, the
/// frozen-mode set and the token flag. All protocol activity goes through
/// four entry points, each pushing [`crate::Effect`]s for the runtime into a
/// caller-owned, reusable [`crate::EffectBuf`] and reporting structured
/// events to an [`Observer`]:
///
/// * [`HierNode::on_acquire_into`] — the application requests the lock
///   (Rule 2),
/// * [`HierNode::on_upgrade_into`] — atomic `U`→`W` upgrade (Rule 7),
/// * [`HierNode::on_release_into`] — the application leaves its critical
///   section (Rule 5),
/// * [`HierNode::on_message_into`] — a protocol message arrived (Rules 3–6).
///
/// ```
/// use dlm_core::{
///     Effect, EffectBuf, HierNode, Message, Mode, NodeId, NullObserver, ProtocolConfig,
/// };
///
/// // A two-node system driven by hand: node 0 has the token.
/// let mut token = HierNode::with_token(NodeId(0), ProtocolConfig::paper());
/// let mut leaf = HierNode::new(NodeId(1), NodeId(0), ProtocolConfig::paper());
/// // One sink, drained after every step.
/// let (mut effects, mut obs) = (EffectBuf::new(), NullObserver);
///
/// // The leaf requests Read; one request message comes out.
/// leaf.on_acquire_into(Mode::Read, 0, &mut effects, &mut obs).unwrap();
/// let Some(Effect::Send { to, message }) = effects.drain().next() else { panic!() };
/// assert_eq!(to, NodeId(0));
///
/// // Deliver it to the token node: an idle token copy-grants shared modes.
/// token.on_message_into(NodeId(1), message, &mut effects, &mut obs);
/// let Some(Effect::Send { message: grant, .. }) = effects.drain().next() else { panic!() };
///
/// // Deliver the grant: the leaf enters its critical section.
/// leaf.on_message_into(NodeId(0), grant, &mut effects, &mut obs);
/// assert!(effects.drain().any(|e| matches!(e, Effect::Granted { mode: Mode::Read })));
/// assert_eq!(leaf.held(), Mode::Read);
/// assert_eq!(token.owned(), Mode::Read); // the copyset records the grant
/// ```
#[derive(Debug, Clone)]
pub struct HierNode {
    /// This node's identity.
    id: NodeId,
    /// Feature toggles (ablations); `ProtocolConfig::paper()` is the paper.
    config: ProtocolConfig,
    /// Parent in the dynamic tree (`None` iff this node holds the token).
    parent: Option<NodeId>,
    /// True iff this node is the token node.
    has_token: bool,
    /// `MH`: the mode this node's application currently holds.
    held: Mode,
    /// `MO` (Definition 3): the strongest mode held anywhere in the subtree
    /// rooted here, as far as this node knows. Cached; always equals
    /// `join(held, copyset modes)`.
    owned: Mode,
    /// `MP`: the outstanding request of the local application, if any.
    pending: Option<QueuedRequest>,
    /// Modes frozen at this node (Rule 6). At the token node this is
    /// recomputed from the queue; elsewhere it is whatever the parent last
    /// pushed via `SetFrozen`.
    frozen: ModeSet,
    /// True while this node believes its current parent holds a copyset
    /// entry for it. Set on grant/token interactions, cleared when the node
    /// reports `NoLock` to its parent. Drives the *detach* message on
    /// re-parenting (see `handlers.rs`): without it, a node granted by a
    /// non-parent would leave a permanently stale entry at its old parent,
    /// inflating that subtree's owned mode forever and starving queued
    /// writers (found by the property tests; DESIGN.md §3).
    registered: bool,
    /// Count of defensively handled impossible-by-design situations (e.g. a
    /// node receiving its own already-answered request). Zero in every test.
    anomalies: u64,
    /// Crash-recovery generation number (DESIGN.md §17). Starts at 0 and is
    /// bumped by every view change (`on_peer_down_into` / `Message::Recover`).
    /// Frames are stamped with the sender's epoch at send time; a receiver
    /// fences (drops) any frame whose stamp differs from its own epoch, so a
    /// token or grant from a dead generation can never resurrect authority.
    epoch: u32,
    /// Copyset, local queue and per-peer bookkeeping: boxed on first use,
    /// so a lock no other node ever touched stays one cache line.
    peers: Peers,
}

/// The part of a node's state that only other nodes fill. A lock nobody
/// else uses keeps all five collections empty for its whole life, so they
/// live in a [`Peers`] box rather than inline in [`HierNode`].
#[derive(Debug, Clone, Default)]
struct PeerState {
    /// Children whose requests this node granted (Definition 4), with the
    /// owned mode they last reported. Sorted flat map (ascending `NodeId`,
    /// same deterministic iteration order as the `BTreeMap` it replaced).
    copyset: CopySet,
    /// The local request queue (Rule 4); FIFO.
    queue: VecDeque<QueuedRequest>,
    /// The frozen set last communicated to each copyset child, so freeze
    /// updates are only sent to children for which they matter.
    frozen_sent: FlatMap<ModeSet, MAP_INLINE>,
    /// Grants (copy grants and token transfers) sent per peer; used to
    /// detect stale releases (see `Message::Release::ack`).
    grants_sent: FlatMap<u64, MAP_INLINE>,
    /// Grants received per peer; stamped into outgoing releases.
    grants_received: FlatMap<u64, MAP_INLINE>,
}

/// What an absent box reads as. Built from `const fn`s, so a read of a
/// peerless node pays no lazy-initialisation check.
static NO_PEERS: PeerState = PeerState {
    copyset: FlatMap::empty(Mode::NoLock),
    queue: VecDeque::new(),
    frozen_sent: FlatMap::empty(ModeSet::EMPTY),
    grants_sent: FlatMap::empty(0),
    grants_received: FlatMap::empty(0),
};

impl PeerState {
    fn is_empty(&self) -> bool {
        self.copyset.is_empty()
            && self.queue.is_empty()
            && self.frozen_sent.is_empty()
            && self.grants_sent.is_empty()
            && self.grants_received.is_empty()
    }

    /// Record that a grant (copy or token) is being sent to `to`.
    fn count_grant_sent(&mut self, to: NodeId) {
        let n = self.grants_sent.get(&to).copied().unwrap_or(0);
        self.grants_sent.insert(to, n + 1);
    }

    /// Record that a grant (copy or token) arrived from `from`.
    fn count_grant_received(&mut self, from: NodeId) {
        let n = self.grants_received.get(&from).copied().unwrap_or(0);
        self.grants_received.insert(from, n + 1);
    }
}

/// A node's [`PeerState`], allocated by the first insert and kept from then
/// on (shared-mode churn empties and refills the copyset every round; a
/// kept box keeps that allocation-free). An absent box and a box of empty
/// collections are the same state: they read, fingerprint and encode alike.
#[derive(Clone, Default)]
struct Peers(Option<Box<PeerState>>);

impl Peers {
    /// The collections; [`NO_PEERS`] when no box exists. Never allocates.
    #[inline]
    fn get(&self) -> &PeerState {
        self.0.as_deref().unwrap_or(&NO_PEERS)
    }

    /// The collections for removal and reset, `None` when no box exists:
    /// removing from an empty collection is a no-op, so callers skip it.
    #[inline]
    fn get_mut(&mut self) -> Option<&mut PeerState> {
        self.0.as_deref_mut()
    }

    /// The collections for insertion, boxing them on first use.
    #[inline]
    fn get_or_alloc(&mut self) -> &mut PeerState {
        self.0.get_or_insert_with(Box::default)
    }

    /// Box `state` only if it holds anything.
    fn from_state(state: PeerState) -> Self {
        Peers((!state.is_empty()).then(|| Box::new(state)))
    }
}

impl fmt::Debug for Peers {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.get().fmt(f)
    }
}

impl HierNode {
    /// Create a node without the token whose initial parent is `parent`.
    pub fn new(id: NodeId, parent: NodeId, config: ProtocolConfig) -> Self {
        HierNode {
            id,
            config,
            parent: Some(parent),
            has_token: false,
            held: Mode::NoLock,
            owned: Mode::NoLock,
            pending: None,
            frozen: ModeSet::EMPTY,
            registered: false,
            anomalies: 0,
            epoch: 0,
            peers: Peers::default(),
        }
    }

    /// Create the initial token node (the root of the initial tree).
    pub fn with_token(id: NodeId, config: ProtocolConfig) -> Self {
        HierNode {
            parent: None,
            has_token: true,
            ..HierNode::new(id, id, config)
        }
    }

    /// This node's identity.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The mode currently held by the local application (`MH`).
    pub fn held(&self) -> Mode {
        self.held
    }

    /// The owned mode (`MO`, Definition 3): strongest mode known to be held
    /// in the subtree rooted here.
    pub fn owned(&self) -> Mode {
        self.owned
    }

    /// The pending request (`MP`), if any.
    pub fn pending(&self) -> Option<Mode> {
        self.pending.map(|p| p.mode)
    }

    /// The full pending request record (mode + upgrade flag + priority), if
    /// any. The model checker uses this to classify self-grants.
    pub fn pending_request(&self) -> Option<QueuedRequest> {
        self.pending
    }

    /// True if the pending request is a Rule 7 upgrade.
    pub fn pending_is_upgrade(&self) -> bool {
        self.pending.map(|p| p.upgrade).unwrap_or(false)
    }

    /// True iff this node currently holds the token.
    pub fn has_token(&self) -> bool {
        self.has_token
    }

    /// Current parent link (`None` iff token node).
    pub fn parent(&self) -> Option<NodeId> {
        self.parent
    }

    /// The copyset: children and the owned mode they last reported.
    pub fn copyset(&self) -> &CopySet {
        &self.peers.get().copyset
    }

    /// Number of locally queued requests.
    pub fn queue_len(&self) -> usize {
        self.peers.get().queue.len()
    }

    /// The locally queued requests, front (oldest) first.
    pub fn queued(&self) -> impl Iterator<Item = &QueuedRequest> {
        self.peers.get().queue.iter()
    }

    /// Modes currently frozen at this node.
    pub fn frozen(&self) -> ModeSet {
        self.frozen
    }

    /// Defensive-path counter; see the field docs. Always zero under the
    /// modelled semantics — asserted by the property tests.
    pub fn anomalies(&self) -> u64 {
        self.anomalies
    }

    /// The crash-recovery generation this node is operating in (0 until the
    /// first view change; see DESIGN.md §17). Runtimes stamp this value onto
    /// every frame they transmit for this lock.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// The protocol configuration this node runs.
    pub fn protocol_config(&self) -> ProtocolConfig {
        self.config
    }

    /// Recompute the owned mode from held + copyset (Definition 3).
    pub(crate) fn recompute_owned(&self) -> Mode {
        self.copyset()
            .iter()
            .fold(self.held, |acc, (_, m)| acc.join(m))
    }

    /// The owned mode with node `who`'s copyset contribution removed, and —
    /// when `who` is this node itself — the held mode removed too. Used for
    /// Rule 7 upgrade compatibility checks: the upgrader's own `U` must not
    /// conflict with its own `W` request.
    pub(crate) fn owned_excluding(&self, who: NodeId) -> Mode {
        let base = if who == self.id {
            Mode::NoLock
        } else {
            self.held
        };
        self.copyset()
            .iter()
            .filter(|&(c, _)| c != who)
            .fold(base, |acc, (_, m)| acc.join(m))
    }

    /// Record a weaker owned report from (or removal of) a copyset child.
    pub(crate) fn update_copyset(&mut self, child: NodeId, reported: Mode) {
        if reported == Mode::NoLock {
            if let Some(peers) = self.peers.get_mut() {
                peers.copyset.remove(&child);
                peers.frozen_sent.remove(&child);
            }
        } else {
            self.peers.get_or_alloc().copyset.insert(child, reported);
        }
    }

    pub(crate) fn note_anomaly(&mut self) {
        self.anomalies += 1;
    }

    /// Insert a request into the local queue: before the first entry of
    /// strictly lower priority, after everything of equal or higher priority
    /// (stable ⇒ FIFO within a priority level; all-zero priorities reproduce
    /// the paper's plain FIFO exactly).
    pub(crate) fn enqueue<O: Observer + ?Sized>(&mut self, req: QueuedRequest, obs: &mut O) {
        let queue = &mut self.peers.get_or_alloc().queue;
        let at = queue
            .iter()
            .position(|q| q.priority < req.priority)
            .unwrap_or(queue.len());
        queue.insert(at, req);
        if obs.enabled() {
            obs.emit(
                self.id.0,
                ProtocolEvent::RequestQueued {
                    requester: req.from.0,
                    mode: req.mode,
                    depth: queue.len(),
                },
            );
        }
    }

    /// The ack value to stamp into a release sent to `to`.
    pub(crate) fn release_ack(&self, to: NodeId) -> u64 {
        let received = &self.peers.get().grants_received;
        received.get(&to).copied().unwrap_or(0)
    }

    /// True if a release from `child` carrying `ack` predates a grant this
    /// node has already sent to `child` (i.e. the release is stale).
    pub(crate) fn release_is_stale(&self, child: NodeId, ack: u64) -> bool {
        if self.config.accept_stale_releases {
            // Test-only seeded bug: treat every release as fresh. See
            // `ProtocolConfig::accept_stale_releases`.
            return false;
        }
        let sent = &self.peers.get().grants_sent;
        ack < sent.get(&child).copied().unwrap_or(0)
    }

    /// A copy of this node with every node identity (its own id, the parent
    /// link, copyset/frozen-sent/grant-counter keys, and queued or pending
    /// requesters) mapped through `map`.
    ///
    /// The protocol never orders or compares node ids except for equality, so
    /// relabelling through a bijection commutes with every entry point: for a
    /// permutation σ, `σ(n).on_message_into(σ(from), σ(m), ..)` pushes `σ` of
    /// the effects of `n.on_message_into(from, m, ..)`. The model checker's
    /// symmetry reduction (`dlm-check`) relies on exactly this equivariance
    /// to collapse permuted clusters into one canonical state. Sorted flat
    /// maps are rebuilt, so iteration order stays canonical under the new
    /// labels.
    pub fn relabeled(&self, map: impl Fn(NodeId) -> NodeId) -> HierNode {
        let relabel_req = |q: &QueuedRequest| QueuedRequest {
            from: map(q.from),
            ..*q
        };
        fn relabel_map<V: Copy + Default>(
            from: &FlatMap<V, MAP_INLINE>,
            map: impl Fn(NodeId) -> NodeId,
        ) -> FlatMap<V, MAP_INLINE> {
            let mut to = FlatMap::new();
            for (peer, value) in from.iter() {
                to.insert(map(peer), value);
            }
            to
        }
        let peers = self.peers.get();
        HierNode {
            id: map(self.id),
            config: self.config,
            parent: self.parent.map(&map),
            has_token: self.has_token,
            held: self.held,
            owned: self.owned,
            pending: self.pending.as_ref().map(relabel_req),
            frozen: self.frozen,
            registered: self.registered,
            anomalies: self.anomalies,
            epoch: self.epoch,
            peers: Peers::from_state(PeerState {
                copyset: relabel_map(&peers.copyset, &map),
                queue: peers.queue.iter().map(relabel_req).collect(),
                frozen_sent: relabel_map(&peers.frozen_sent, &map),
                grants_sent: relabel_map(&peers.grants_sent, &map),
                grants_received: relabel_map(&peers.grants_received, &map),
            }),
        }
    }
}

impl crate::fingerprint::Fingerprintable for HierNode {
    fn fingerprint_into(&self, h: &mut crate::fingerprint::FpHasher) {
        // Exhaustive destructuring: adding a field to HierNode without
        // extending this fingerprint is a compile error (the model checker
        // must never key its memoization on a partial view of node state).
        let HierNode {
            id,
            config,
            parent,
            has_token,
            held,
            owned,
            pending,
            frozen,
            registered,
            anomalies,
            epoch,
            peers,
        } = self;
        let PeerState {
            copyset,
            queue,
            frozen_sent,
            grants_sent,
            grants_received,
        } = peers.get();
        h.write(id);
        h.write(config);
        h.write(parent);
        h.write_bool(*has_token);
        h.write(held);
        h.write(owned);
        match pending {
            None => h.write_u8(0),
            Some(req) => {
                h.write_u8(1);
                h.write(req);
            }
        }
        h.write_usize(copyset.len());
        for (child, mode) in copyset.iter() {
            h.write(&child);
            h.write(&mode);
        }
        h.write_usize(queue.len());
        for req in queue {
            h.write(req);
        }
        h.write(frozen);
        h.write_usize(frozen_sent.len());
        for (child, set) in frozen_sent.iter() {
            h.write(&child);
            h.write(&set);
        }
        h.write_usize(grants_sent.len());
        for (peer, count) in grants_sent.iter() {
            h.write(&peer);
            h.write_u64(count);
        }
        h.write_usize(grants_received.len());
        for (peer, count) in grants_received.iter() {
            h.write(&peer);
            h.write_u64(count);
        }
        h.write_bool(*registered);
        h.write_u64(*anomalies);
        h.write_u32(*epoch);
    }
}

impl HierNode {
    /// Feed this node into `h` as it reads with every node identity it
    /// mentions passed through `map` (called as `map(site, id)`; see
    /// the `fingerprint` module docs). For a bijection the result is what
    /// `self.relabeled(map).fingerprint_into(h)` writes — the relabelled
    /// digest without the relabelled node; for a many-to-one map onto
    /// label-free markers it is a signature shared by every relabelling.
    pub fn fingerprint_mapped_into(
        &self,
        h: &mut crate::fingerprint::FpHasher,
        map: &mut impl FnMut(u128, NodeId) -> NodeId,
    ) {
        use crate::fingerprint::{site, tag, write_keyed_mapped};
        // Exhaustive, like `fingerprint_into`: a new field is a compile
        // error here too.
        let HierNode {
            id,
            config,
            parent,
            has_token,
            held,
            owned,
            pending,
            frozen,
            registered,
            anomalies,
            epoch,
            peers,
        } = self;
        let PeerState {
            copyset,
            queue,
            frozen_sent,
            grants_sent,
            grants_received,
        } = peers.get();
        h.write(&map(site(tag::ID, 0), *id));
        h.write(config);
        h.write(&parent.map(|p| map(site(tag::PARENT, 0), p)));
        h.write_bool(*has_token);
        h.write(held);
        h.write(owned);
        match pending {
            None => h.write_u8(0),
            Some(req) => {
                h.write_u8(1);
                req.fingerprint_from_into(h, map(site(tag::PENDING, 0), req.from));
            }
        }
        write_keyed_mapped(h, copyset, tag::COPYSET, |m| m.index() as u64, map);
        h.write_usize(queue.len());
        for (i, req) in queue.iter().enumerate() {
            req.fingerprint_from_into(h, map(site(tag::QUEUE, i as u64), req.from));
        }
        h.write(frozen);
        let bits = |set: ModeSet| u64::from(set.bits());
        write_keyed_mapped(h, frozen_sent, tag::FROZEN_SENT, bits, map);
        write_keyed_mapped(h, grants_sent, tag::GRANTS_SENT, |n| n, map);
        write_keyed_mapped(h, grants_received, tag::GRANTS_RECEIVED, |n| n, map);
        h.write_bool(*registered);
        h.write_u64(*anomalies);
        h.write_u32(*epoch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::{Fingerprint, Fingerprintable, FpHasher};

    fn cfg() -> ProtocolConfig {
        ProtocolConfig::paper()
    }

    #[test]
    fn fresh_nodes_have_paper_initial_state() {
        let root = HierNode::with_token(NodeId(0), cfg());
        assert!(root.has_token());
        assert_eq!(root.parent(), None);
        assert_eq!(root.held(), Mode::NoLock);
        assert_eq!(root.owned(), Mode::NoLock);
        assert_eq!(root.pending(), None);
        assert_eq!(root.queue_len(), 0);
        assert!(root.frozen().is_empty());

        let leaf = HierNode::new(NodeId(3), NodeId(0), cfg());
        assert!(!leaf.has_token());
        assert_eq!(leaf.parent(), Some(NodeId(0)));
        assert_eq!(leaf.anomalies(), 0);
    }

    #[test]
    fn owned_is_join_of_held_and_copyset() {
        let mut n = HierNode::with_token(NodeId(0), cfg());
        n.held = Mode::IntentRead;
        let copyset = &mut n.peers.get_or_alloc().copyset;
        copyset.insert(NodeId(1), Mode::Read);
        copyset.insert(NodeId(2), Mode::IntentRead);
        assert_eq!(n.recompute_owned(), Mode::Read);
        // Incomparable pair joins to Write.
        n.peers
            .get_or_alloc()
            .copyset
            .insert(NodeId(3), Mode::IntentWrite);
        assert_eq!(n.recompute_owned(), Mode::Write);
    }

    #[test]
    fn owned_excluding_removes_one_contribution() {
        let mut n = HierNode::with_token(NodeId(0), cfg());
        n.held = Mode::Upgrade;
        n.update_copyset(NodeId(1), Mode::IntentRead);
        assert_eq!(n.owned_excluding(NodeId(0)), Mode::IntentRead);
        assert_eq!(n.owned_excluding(NodeId(1)), Mode::Upgrade);
        assert_eq!(n.owned_excluding(NodeId(9)), Mode::Upgrade);
    }

    #[test]
    fn a_lock_table_bucket_is_one_cache_line() {
        let bucket = std::mem::size_of::<(u32, HierNode)>();
        assert!(bucket <= 64, "a (LockId, HierNode) bucket is {bucket} B");
    }

    #[test]
    fn only_inserts_allocate_the_peer_box() {
        // A lone token node: local churn, a view change that purges a peer
        // it never had, and every read accessor leave it without a box.
        let mut n = HierNode::with_token(NodeId(0), cfg());
        let (mut effects, mut obs) = (crate::EffectBuf::new(), dlm_trace::NullObserver);
        for mode in [Mode::Write, Mode::Read] {
            n.on_acquire_into(mode, 0, &mut effects, &mut obs).unwrap();
            n.on_release_into(&mut effects, &mut obs).unwrap();
        }
        n.on_peer_down_into(
            NodeId(1),
            NodeId(0),
            1,
            &[NodeId(0)],
            &mut effects,
            &mut obs,
        );
        let _ = effects.drain().count();
        assert!(n.copyset().is_empty() && n.queue_len() == 0);
        assert!(n.peers.0.is_none(), "no peer ever touched this lock");
        // The first grant to a peer boxes the collections.
        n.on_message_into(
            NodeId(1),
            crate::Message::Request(QueuedRequest::plain(NodeId(1), Mode::Read)),
            &mut effects,
            &mut obs,
        );
        assert!(n.peers.0.is_some());
    }

    #[test]
    fn update_copyset_removes_on_nolock() {
        let mut n = HierNode::with_token(NodeId(0), cfg());
        n.update_copyset(NodeId(1), Mode::Read);
        assert_eq!(n.copyset().get(&NodeId(1)), Some(&Mode::Read));
        n.update_copyset(NodeId(1), Mode::IntentRead);
        assert_eq!(n.copyset().get(&NodeId(1)), Some(&Mode::IntentRead));
        n.update_copyset(NodeId(1), Mode::NoLock);
        assert!(n.copyset().is_empty());
    }

    /// A node with every id-bearing field populated (the keyed maps past
    /// their inline capacity).
    fn busy_node() -> HierNode {
        let mut n = HierNode::new(NodeId(2), NodeId(5), cfg());
        n.pending = Some(QueuedRequest::plain(NodeId(2), Mode::Write));
        let peers = n.peers.get_or_alloc();
        for (i, id) in [4u32, 1, 6, 0, 3].into_iter().enumerate() {
            peers.copyset.insert(NodeId(id), Mode::Read);
            peers
                .frozen_sent
                .insert(NodeId(id), ModeSet::from_bits(i as u8 + 1));
            peers.grants_sent.insert(NodeId(id), i as u64);
            peers
                .queue
                .push_back(QueuedRequest::plain(NodeId(id), Mode::IntentRead));
        }
        peers.grants_received.insert(NodeId(5), 3);
        n
    }

    fn mapped(n: &HierNode, mut map: impl FnMut(u128, NodeId) -> NodeId) -> Fingerprint {
        let mut h = FpHasher::new();
        n.fingerprint_mapped_into(&mut h, &mut map);
        h.finish()
    }

    #[test]
    fn mapped_fingerprint_under_a_bijection_is_the_relabelled_fingerprint() {
        let n = busy_node();
        assert_eq!(mapped(&n, |_, id| id), n.fingerprint());
        let perm = [3u32, 6, 0, 5, 2, 1, 4];
        let relabel = |id: NodeId| NodeId(perm[id.index()]);
        assert_eq!(
            mapped(&n, |_, id| relabel(id)),
            n.relabeled(relabel).fingerprint()
        );
    }

    #[test]
    fn mapped_fingerprint_onto_markers_is_label_free() {
        // Self / anonymous: the signature of a node and of any relabelling
        // of it coincide, and the sites name each mention the same way.
        let n = busy_node();
        let perm = [3u32, 6, 0, 5, 2, 1, 4];
        let m = n.relabeled(|id| NodeId(perm[id.index()]));
        let signature = |n: &HierNode| {
            let me = n.id();
            let mut sites = Vec::new();
            let fp = mapped(n, |site, id| {
                sites.push(site);
                NodeId(u32::from(id == me))
            });
            sites.sort_unstable();
            (fp, sites)
        };
        assert_eq!(signature(&n), signature(&m));
        // What the markers hide, the sites keep: two anonymous requesters
        // swap places in the queue, and each is mentioned somewhere new.
        let mut other = n.clone();
        other.peers.get_or_alloc().queue.swap(0, 1);
        let queued_at = |n: &HierNode, who: NodeId| {
            let mut found = Vec::new();
            mapped(n, |site, id| {
                if id == who && site & 0xff == u128::from(crate::fingerprint::tag::QUEUE) {
                    found.push(site >> 8);
                }
                id
            });
            found
        };
        assert_eq!(queued_at(&n, NodeId(4)), [0]);
        assert_eq!(queued_at(&other, NodeId(4)), [1]);
    }
}
