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
    /// Children whose requests this node granted (Definition 4), with the
    /// owned mode they last reported. Sorted flat map (ascending `NodeId`,
    /// same deterministic iteration order as the `BTreeMap` it replaced).
    copyset: CopySet,
    /// The local request queue (Rule 4); FIFO.
    queue: VecDeque<QueuedRequest>,
    /// Modes frozen at this node (Rule 6). At the token node this is
    /// recomputed from the queue; elsewhere it is whatever the parent last
    /// pushed via `SetFrozen`.
    frozen: ModeSet,
    /// The frozen set last communicated to each copyset child, so freeze
    /// updates are only sent to children for which they matter.
    frozen_sent: FlatMap<ModeSet, MAP_INLINE>,
    /// Grants (copy grants and token transfers) sent per peer; used to
    /// detect stale releases (see `Message::Release::ack`).
    grants_sent: FlatMap<u64, MAP_INLINE>,
    /// Grants received per peer; stamped into outgoing releases.
    grants_received: FlatMap<u64, MAP_INLINE>,
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
            copyset: CopySet::new(),
            queue: VecDeque::new(),
            frozen: ModeSet::EMPTY,
            frozen_sent: FlatMap::new(),
            grants_sent: FlatMap::new(),
            grants_received: FlatMap::new(),
            registered: false,
            anomalies: 0,
            epoch: 0,
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
        &self.copyset
    }

    /// Number of locally queued requests.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// The locally queued requests, front (oldest) first.
    pub fn queued(&self) -> impl Iterator<Item = &QueuedRequest> {
        self.queue.iter()
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
        self.copyset
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
        self.copyset
            .iter()
            .filter(|&(c, _)| c != who)
            .fold(base, |acc, (_, m)| acc.join(m))
    }

    /// Record a weaker owned report from (or removal of) a copyset child.
    pub(crate) fn update_copyset(&mut self, child: NodeId, reported: Mode) {
        if reported == Mode::NoLock {
            self.copyset.remove(&child);
            self.frozen_sent.remove(&child);
        } else {
            self.copyset.insert(child, reported);
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
        let at = self
            .queue
            .iter()
            .position(|q| q.priority < req.priority)
            .unwrap_or(self.queue.len());
        self.queue.insert(at, req);
        if obs.enabled() {
            obs.emit(
                self.id.0,
                ProtocolEvent::RequestQueued {
                    requester: req.from.0,
                    mode: req.mode,
                    depth: self.queue.len(),
                },
            );
        }
    }

    /// Record that a grant (copy or token) is being sent to `to`.
    pub(crate) fn count_grant_sent(&mut self, to: NodeId) {
        let n = self.grants_sent.get(&to).copied().unwrap_or(0);
        self.grants_sent.insert(to, n + 1);
    }

    /// Record that a grant (copy or token) arrived from `from`.
    pub(crate) fn count_grant_received(&mut self, from: NodeId) {
        let n = self.grants_received.get(&from).copied().unwrap_or(0);
        self.grants_received.insert(from, n + 1);
    }

    /// The ack value to stamp into a release sent to `to`.
    pub(crate) fn release_ack(&self, to: NodeId) -> u64 {
        self.grants_received.get(&to).copied().unwrap_or(0)
    }

    /// True if a release from `child` carrying `ack` predates a grant this
    /// node has already sent to `child` (i.e. the release is stale).
    pub(crate) fn release_is_stale(&self, child: NodeId, ack: u64) -> bool {
        if self.config.accept_stale_releases {
            // Test-only seeded bug: treat every release as fresh. See
            // `ProtocolConfig::accept_stale_releases`.
            return false;
        }
        ack < self.grants_sent.get(&child).copied().unwrap_or(0)
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
        let mut copyset = CopySet::new();
        for (child, mode) in self.copyset.iter() {
            copyset.insert(map(child), mode);
        }
        let mut frozen_sent = FlatMap::new();
        for (child, set) in self.frozen_sent.iter() {
            frozen_sent.insert(map(child), set);
        }
        let mut grants_sent = FlatMap::new();
        for (peer, count) in self.grants_sent.iter() {
            grants_sent.insert(map(peer), count);
        }
        let mut grants_received = FlatMap::new();
        for (peer, count) in self.grants_received.iter() {
            grants_received.insert(map(peer), count);
        }
        HierNode {
            id: map(self.id),
            config: self.config,
            parent: self.parent.map(&map),
            has_token: self.has_token,
            held: self.held,
            owned: self.owned,
            pending: self.pending.as_ref().map(relabel_req),
            copyset,
            queue: self.queue.iter().map(relabel_req).collect(),
            frozen: self.frozen,
            frozen_sent,
            grants_sent,
            grants_received,
            registered: self.registered,
            anomalies: self.anomalies,
            epoch: self.epoch,
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
            copyset,
            queue,
            frozen,
            frozen_sent,
            grants_sent,
            grants_received,
            registered,
            anomalies,
            epoch,
        } = self;
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
            copyset,
            queue,
            frozen,
            frozen_sent,
            grants_sent,
            grants_received,
            registered,
            anomalies,
            epoch,
        } = self;
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
        n.copyset.insert(NodeId(1), Mode::Read);
        n.copyset.insert(NodeId(2), Mode::IntentRead);
        assert_eq!(n.recompute_owned(), Mode::Read);
        // Incomparable pair joins to Write.
        n.copyset.insert(NodeId(3), Mode::IntentWrite);
        assert_eq!(n.recompute_owned(), Mode::Write);
    }

    #[test]
    fn owned_excluding_removes_one_contribution() {
        let mut n = HierNode::with_token(NodeId(0), cfg());
        n.held = Mode::Upgrade;
        n.copyset.insert(NodeId(1), Mode::IntentRead);
        assert_eq!(n.owned_excluding(NodeId(0)), Mode::IntentRead);
        assert_eq!(n.owned_excluding(NodeId(1)), Mode::Upgrade);
        assert_eq!(n.owned_excluding(NodeId(9)), Mode::Upgrade);
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
        for (i, id) in [4u32, 1, 6, 0, 3].into_iter().enumerate() {
            n.copyset.insert(NodeId(id), Mode::Read);
            n.frozen_sent
                .insert(NodeId(id), ModeSet::from_bits(i as u8 + 1));
            n.grants_sent.insert(NodeId(id), i as u64);
            n.queue
                .push_back(QueuedRequest::plain(NodeId(id), Mode::IntentRead));
        }
        n.grants_received.insert(NodeId(5), 3);
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
        other.queue.swap(0, 1);
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
