//! The explored system state and its transition function.

use crate::scenario::{OpKind, Scenario};
use dlm_core::{
    fifo_overtakes, AuditError, Effect, Fingerprint, FpHasher, GrantInfo, HierNode, InFlight,
    Message, Mode, NodeId,
};
use std::borrow::Borrow;
use std::collections::{BTreeMap, VecDeque};
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

/// One atomic transition of the explored system: deliver the head of a
/// FIFO channel, or run a node's next script operation. Either way exactly
/// one node executes, which is what makes actions at distinct nodes
/// commute (the basis of the partial-order reduction in [`crate::dpor`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Action {
    /// Deliver the head message of lock `lock`'s channel `from → to`
    /// (executes at `to`). Channels are per lock object: messages of
    /// different locks never block each other.
    Deliver {
        /// The lock object whose protocol instance this message belongs to.
        lock: u32,
        /// Sending endpoint of the channel.
        from: u32,
        /// Receiving endpoint (the executing node).
        to: u32,
    },
    /// Run node `node`'s next script operation (on whatever lock that op
    /// names).
    Script {
        /// The executing node.
        node: u32,
    },
}

impl Action {
    /// The node whose state this action mutates.
    pub fn node(&self) -> u32 {
        match *self {
            Action::Deliver { to, .. } => to,
            Action::Script { node } => node,
        }
    }
}

impl std::fmt::Display for Action {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Action::Deliver { lock: 0, from, to } => write!(f, "deliver n{from}→n{to}"),
            Action::Deliver { lock, from, to } => write!(f, "deliver n{from}→n{to}@L{lock}"),
            Action::Script { node } => write!(f, "script n{node}"),
        }
    }
}

/// One version of one node's protocol state on one lock, shared by every
/// state that holds it: cloning a [`State`] copies pointers, and a
/// transition copies only the node it changes. The cell also keeps the
/// version's digest once it is computed — the node hashed with its
/// identities left out, plus the identities it mentions and where — so a
/// version is hashed once, however many states, keys and relabellings read
/// it. Reads go through `Deref` / `Borrow` to the [`HierNode`].
#[derive(Clone)]
pub struct SharedNode(Arc<Version>);

struct Version {
    node: HierNode,
    digest: OnceLock<Digest>,
}

impl SharedNode {
    /// The node, for a transition to change: copied out of the cell when
    /// another state shares it, and its digest dropped either way.
    fn make_mut(&mut self) -> &mut HierNode {
        if Arc::get_mut(&mut self.0).is_none() {
            *self = SharedNode::from(self.0.node.clone());
        }
        let version = Arc::get_mut(&mut self.0).expect("a fresh cell is unshared");
        version.digest.take();
        &mut version.node
    }

    /// This version's digest, computed on first use.
    pub(crate) fn digest(&self) -> &Digest {
        self.0.digest.get_or_init(|| Digest::of(&self.0.node))
    }
}

impl From<HierNode> for SharedNode {
    fn from(node: HierNode) -> Self {
        SharedNode(Arc::new(Version {
            node,
            digest: OnceLock::new(),
        }))
    }
}

impl Deref for SharedNode {
    type Target = HierNode;

    fn deref(&self) -> &HierNode {
        &self.0.node
    }
}

impl Borrow<HierNode> for SharedNode {
    fn borrow(&self) -> &HierNode {
        &self.0.node
    }
}

/// The marker every identity is written as in a [`Digest`]'s template.
const ANYONE: NodeId = NodeId(u32::MAX);

/// Entries of one run of equal sites sorted on the stack before spilling to
/// the heap.
const RUN_INLINE: usize = 8;

/// What one node version contributes to every fingerprint of a state that
/// holds it, under any relabelling: `dlm-core`'s mapped visitor run once
/// with every identity written as one marker gives the `template` (which no
/// relabelling changes), and the `(site, id)` pairs it handed the map are
/// the `mentions`, sorted. Each site carries the field and either the queue
/// position or the full map value, so the template plus the mentions
/// determine the node: two versions with equal digests are equal nodes,
/// up to a collision of the 128-bit template.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct Digest {
    pub(crate) template: u128,
    pub(crate) mentions: Box<[Mention]>,
}

/// A node mentions node `id` at `site` (see `dlm-core`'s mapped visitor).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Mention {
    pub(crate) site: u128,
    pub(crate) id: u32,
}

impl Digest {
    fn of(node: &HierNode) -> Self {
        let mut mentions = Vec::new();
        let mut h = FpHasher::new();
        node.fingerprint_mapped_into(&mut h, &mut |site, id| {
            mentions.push(Mention { site, id: id.0 });
            ANYONE
        });
        mentions.sort_unstable();
        Digest {
            template: h.finish().0,
            mentions: mentions.into(),
        }
    }

    /// Write the node as it reads with node `i` renamed `perm[i]`: the
    /// template, the mention count, then the mentions as `(site, perm[id])`
    /// in ascending order.
    fn write_relabelled(&self, h: &mut FpHasher, perm: &[u32]) {
        h.write_u64(self.template as u64);
        h.write_u64((self.template >> 64) as u64);
        h.write_usize(self.mentions.len());
        // Sorted by site already; only ids that share a site need sorting
        // under their new labels.
        for run in self.mentions.chunk_by(|a, b| a.site == b.site) {
            let mut inline = [0u32; RUN_INLINE];
            let mut spill = Vec::new();
            let ids: &mut [u32] = if run.len() <= RUN_INLINE {
                &mut inline[..run.len()]
            } else {
                spill.resize(run.len(), 0);
                &mut spill
            };
            for (id, m) in ids.iter_mut().zip(run) {
                *id = perm[m.id as usize];
            }
            ids.sort_unstable();
            let site = run[0].site;
            for &id in ids.iter() {
                h.write_u64(site as u64);
                h.write_u64((site >> 64) as u64);
                h.write_u32(id);
            }
        }
    }
}

/// The full system state: every lock's node array, every channel, every
/// script cursor.
#[derive(Clone)]
pub struct State {
    /// Per-lock, per-node protocol state: `nodes[lock][node]`. Each lock
    /// object is an independent instance of the protocol over the same node
    /// set (the common multi-lock deployment the paper's §1 motivates: one
    /// hierarchy per lockable resource). Each entry is a node version shared
    /// with every other state that has it.
    pub nodes: Vec<Vec<SharedNode>>,
    /// FIFO per ordered channel `(lock, from, to)`. Each in-flight frame is
    /// `(epoch, message)` — stamped with the sender's epoch at transmit
    /// time, exactly as the cluster transport stamps its correlation
    /// header; delivery goes through the Rule R3 fence
    /// ([`HierNode::on_frame_into`]). Empty channels are removed so the map
    /// is canonical. Keying by lock makes links per-lock-FIFO rather than
    /// per-pair-FIFO — a relaxation of a shared transport that covers
    /// strictly more interleavings, so anything verified here also holds on
    /// a multiplexed link.
    pub channels: BTreeMap<(u32, u32, u32), VecDeque<(u32, Message)>>,
    /// Next unexecuted op per node (scripts are per node, spanning locks).
    pub pos: Vec<usize>,
    /// `crashed[i]` — node `i` executed its [`crate::Op::Crash`] op: it takes
    /// no further transitions, frames addressed to it vanish, and it is
    /// excluded from audits and deadlock detection.
    pub crashed: Vec<bool>,
}

/// A channel's `(lock, from, to)` under a relabelling, and as the state has
/// it; ordered by the former.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct ChannelKey {
    renamed: (u32, u32, u32),
    key: (u32, u32, u32),
}

/// The result of applying one [`Action`].
pub struct Step {
    /// The successor state.
    pub state: State,
    /// The effects the executing node returned (sends already absorbed
    /// into `state.channels`, in order). Empty for fenced deliveries and
    /// crash transitions.
    pub effects: Vec<Effect>,
    /// Per-lock FIFO grant-order violations committed by this transition
    /// (checked against the executing node's pre-transition queue).
    pub fifo_errors: Vec<AuditError>,
    /// The lock object the transition executed on (0 for a crash, which
    /// spans every lock).
    pub lock: u32,
    /// A delivery was dropped by the Rule R3 epoch fence.
    pub fenced: bool,
}

impl State {
    /// The initial state of a scenario: fresh nodes for every lock, no
    /// messages in flight.
    pub fn initial(scenario: &Scenario) -> Self {
        let one: Vec<SharedNode> = scenario
            .initial_nodes()
            .into_iter()
            .map(SharedNode::from)
            .collect();
        let mut nodes = Vec::with_capacity(scenario.locks as usize);
        for _ in 0..scenario.locks.saturating_sub(1) {
            nodes.push(one.clone());
        }
        nodes.push(one);
        State {
            nodes,
            channels: BTreeMap::new(),
            pos: vec![0; scenario.parents.len()],
            crashed: vec![false; scenario.parents.len()],
        }
    }

    /// Number of lock objects.
    pub fn locks(&self) -> usize {
        self.nodes.len()
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes[0].len()
    }

    /// Structural 128-bit digest of the complete state: every node through
    /// its cached digest (built by `dlm-core`'s compiler-checked mapped
    /// visitor), every channel, cursor and crash flag. It is the relabelled
    /// fingerprint under the identity, so a state and its relabellings are
    /// hashed by one writer.
    pub fn fingerprint(&self) -> Fingerprint {
        let identity: Vec<u32> = (0..self.node_count() as u32).collect();
        self.fingerprint_relabelled(&identity, &identity, &mut Vec::new())
    }

    /// The [`State::fingerprint`] of this state with node `i` renamed
    /// `perm[i]` (`inv` is the inverse permutation), computed without
    /// building the renamed state: nodes, cursors and crash flags are read in
    /// the order of their new labels, channels in the order of their new
    /// endpoints (sorted in `renamed`, a buffer the caller keeps). A node is
    /// written from its digest with each mentioned id renamed; a message goes
    /// through `dlm-core`'s mapped visitor.
    pub(crate) fn fingerprint_relabelled(
        &self,
        perm: &[u32],
        inv: &[u32],
        renamed: &mut Vec<ChannelKey>,
    ) -> Fingerprint {
        let mut relabel = |_, id: NodeId| NodeId(perm[id.index()]);
        let mut h = FpHasher::new();
        h.write_usize(self.nodes.len());
        for lock_nodes in &self.nodes {
            h.write_usize(lock_nodes.len());
            for &old in inv {
                lock_nodes[old as usize]
                    .digest()
                    .write_relabelled(&mut h, perm);
            }
        }
        h.write_usize(self.channels.len());
        renamed.clear();
        renamed.extend(self.channels.keys().map(|&(lock, from, to)| ChannelKey {
            renamed: (lock, perm[from as usize], perm[to as usize]),
            key: (lock, from, to),
        }));
        renamed.sort_unstable();
        for &ChannelKey { renamed, key } in renamed.iter() {
            let (lock, from, to) = renamed;
            h.write_u32(lock);
            h.write_u32(from);
            h.write_u32(to);
            let q = &self.channels[&key];
            h.write_usize(q.len());
            for (epoch, m) in q {
                h.write_u32(*epoch);
                m.fingerprint_mapped_into(&mut h, &mut relabel);
            }
        }
        for &old in inv {
            h.write_usize(self.pos[old as usize]);
        }
        for &old in inv {
            h.write_u32(self.crashed[old as usize] as u32);
        }
        h.finish()
    }

    /// All in-flight messages of one lock object, for its global audit.
    pub fn in_flight(&self, lock: u32) -> Vec<InFlight> {
        self.channels
            .iter()
            .filter(|(&(l, _, _), _)| l == lock)
            .flat_map(|(&(_, from, to), q)| {
                q.iter().map(move |(epoch, m)| InFlight {
                    from: NodeId(from),
                    to: NodeId(to),
                    epoch: *epoch,
                    message: m.clone(),
                })
            })
            .collect()
    }

    /// Audit one lock object, excluding crashed nodes (the audit resolves
    /// nodes by id, so a survivor-only snapshot is well-formed). Stale
    /// frames still in flight *from* a crashed node are included — the
    /// per-epoch token count is exactly what makes them harmless.
    pub fn audit_lock(&self, lock: u32, quiescent: bool) -> Vec<AuditError> {
        let in_flight = self.in_flight(lock);
        if self.crashed.iter().any(|&c| c) {
            let survivors: Vec<&HierNode> = self.nodes[lock as usize]
                .iter()
                .enumerate()
                .filter(|&(i, _)| !self.crashed[i])
                .map(|(_, n)| &**n)
                .collect();
            dlm_core::audit(&survivors, &in_flight, quiescent)
        } else {
            dlm_core::audit(&self.nodes[lock as usize], &in_flight, quiescent)
        }
    }

    /// True when nothing is in flight on any lock (part of the terminal
    /// condition).
    pub fn quiet(&self) -> bool {
        self.channels.is_empty()
    }

    /// Whether node `i`'s next script op is currently enabled.
    pub fn script_enabled(&self, scenario: &Scenario, i: usize) -> bool {
        if self.crashed[i] {
            return false;
        }
        let Some(op) = scenario.scripts[i].get(self.pos[i]) else {
            return false;
        };
        let (lock, kind) = op.parts();
        let node = &self.nodes[lock as usize][i];
        match kind {
            OpKind::Acquire(_) => node.held() == Mode::NoLock && node.pending().is_none(),
            OpKind::Release => node.held() != Mode::NoLock && !node.pending_is_upgrade(),
            OpKind::Upgrade => node.held() == Mode::Upgrade && node.pending().is_none(),
            // Crashing the last live node leaves no survivor to regenerate
            // the token — not a meaningful schedule.
            OpKind::Crash => self.crashed.iter().enumerate().any(|(j, &c)| j != i && !c),
        }
    }

    /// All enabled actions: one per non-empty channel (FIFO heads only)
    /// plus one per node with an enabled script op. Deterministic order.
    pub fn enabled_actions(&self, scenario: &Scenario) -> Vec<Action> {
        let mut out: Vec<Action> = self
            .channels
            .keys()
            .map(|&(lock, from, to)| Action::Deliver { lock, from, to })
            .collect();
        for i in 0..self.pos.len() {
            if self.script_enabled(scenario, i) {
                out.push(Action::Script { node: i as u32 });
            }
        }
        out
    }

    /// Apply one enabled action, producing the successor state plus the
    /// transition's effects and FIFO-shield verdict.
    ///
    /// Panics if the action is not enabled (callers only pass actions from
    /// [`State::enabled_actions`] or a schedule being replayed).
    pub fn apply(&self, scenario: &Scenario, action: Action) -> Step {
        self.apply_observed(scenario, action, &mut dlm_core::NullObserver)
    }

    /// [`State::apply`] with a `dlm-trace` observer attached to the
    /// executing entry point — used when replaying a counterexample
    /// schedule into a protocol event stream.
    pub fn apply_observed(
        &self,
        scenario: &Scenario,
        action: Action,
        obs: &mut dyn dlm_core::Observer,
    ) -> Step {
        let mut next = self.clone();
        let executor = action.node() as usize;
        // Effects land in a stack-inline sink first; only the surviving
        // `Step.effects` Vec is heap-allocated (it is consumed downstream by
        // the DPOR explorer and counterexample replay, so it stays owned).
        let mut buf = dlm_core::EffectBuf::new();
        let (lock, delivered) = match action {
            Action::Deliver { lock, from, to } => {
                let q = next
                    .channels
                    .get_mut(&(lock, from, to))
                    .expect("delivery on existing channel");
                let (epoch, message) = q.pop_front().expect("delivery from non-empty channel");
                if q.is_empty() {
                    next.channels.remove(&(lock, from, to));
                }
                let accepted = next.nodes[lock as usize][to as usize]
                    .make_mut()
                    .on_frame_into(NodeId(from), epoch, message.clone(), &mut buf, obs);
                if !accepted {
                    // Rule R3 fence: the frame is dropped, nothing changed
                    // but the channel.
                    return Step {
                        state: next,
                        effects: Vec::new(),
                        fifo_errors: Vec::new(),
                        lock,
                        fenced: true,
                    };
                }
                (lock, Some(message))
            }
            Action::Script { node } => {
                let i = node as usize;
                assert!(self.script_enabled(scenario, i), "script op not enabled");
                let (lock, kind) = scenario.scripts[i][self.pos[i]].parts();
                next.pos[i] += 1;
                if matches!(kind, OpKind::Crash) {
                    next.crash(i, obs);
                    return Step {
                        state: next,
                        effects: Vec::new(),
                        fifo_errors: Vec::new(),
                        lock: 0,
                        fenced: false,
                    };
                }
                let node_state = next.nodes[lock as usize][i].make_mut();
                match kind {
                    OpKind::Acquire(mode) => node_state
                        .on_acquire_into(mode, 0, &mut buf, obs)
                        .expect("enabled acquire"),
                    OpKind::Release => node_state
                        .on_release_into(&mut buf, obs)
                        .expect("enabled release"),
                    OpKind::Upgrade => node_state
                        .on_upgrade_into(&mut buf, obs)
                        .expect("enabled upgrade"),
                    OpKind::Crash => unreachable!("handled above"),
                };
                (lock, None)
            }
        };
        let pre = &self.nodes[lock as usize][executor];
        let effects = buf.take_vec();
        let sender_epoch = next.nodes[lock as usize][executor].epoch();
        for effect in &effects {
            if let Effect::Send { to, message } = effect {
                next.absorb_send(lock, executor as u32, to.0, sender_epoch, message.clone());
            }
            // Granted/Upgraded are implicit in node state (held mode).
        }
        let grants = grant_infos(pre, &effects, delivered.as_ref());
        let fifo_errors = fifo_overtakes(pre, &grants);
        Step {
            state: next,
            effects,
            fifo_errors,
            lock,
            fenced: false,
        }
    }

    /// Append a send to its channel, stamped with the sender's epoch.
    /// Frames addressed to a crashed node vanish (a dead host receives
    /// nothing), keeping the channel map free of undeliverable entries.
    fn absorb_send(&mut self, lock: u32, from: u32, to: u32, epoch: u32, message: Message) {
        if self.crashed[to as usize] {
            return;
        }
        self.channels
            .entry((lock, from, to))
            .or_default()
            .push_back((epoch, message));
    }

    /// The crash transition (see [`crate::scenario::Op::Crash`]): node
    /// `dead` stops, its inbound frames vanish, its outbound frames remain
    /// in flight at the old epoch, and every survivor runs the §17 view
    /// change on every lock — mirroring a cluster whose failure detector
    /// has fired at each member. Per lock, the new root is the surviving
    /// holder at the highest epoch when one exists, otherwise the lowest
    /// surviving id, exactly as `dlm_cluster::plan_recovery` plans it.
    fn crash(&mut self, dead: usize, obs: &mut dyn dlm_core::Observer) {
        self.crashed[dead] = true;
        self.channels.retain(|&(_, _, to), _| to != dead as u32);
        let survivors: Vec<NodeId> = (0..self.node_count())
            .filter(|&i| !self.crashed[i])
            .map(|i| NodeId(i as u32))
            .collect();
        for lock in 0..self.locks() {
            let max_epoch = survivors
                .iter()
                .map(|s| self.nodes[lock][s.index()].epoch())
                .max()
                .unwrap_or(0);
            let new_root = survivors
                .iter()
                .copied()
                .find(|s| {
                    let n = &self.nodes[lock][s.index()];
                    n.has_token() && n.epoch() == max_epoch
                })
                .unwrap_or(survivors[0]);
            let new_epoch = max_epoch + 1;
            for &s in &survivors {
                let mut buf = dlm_core::EffectBuf::new();
                self.nodes[lock][s.index()].make_mut().on_peer_down_into(
                    NodeId(dead as u32),
                    new_root,
                    new_epoch,
                    &survivors,
                    &mut buf,
                    &mut *obs,
                );
                let epoch = self.nodes[lock][s.index()].epoch();
                for effect in buf.drain() {
                    if let Effect::Send { to, message } = effect {
                        self.absorb_send(lock as u32, s.0, to.0, epoch, message);
                    }
                }
            }
        }
    }
}

/// Classify the grants a transition issued, recovering each grant's upgrade
/// flag and priority from the request it answers: the delivered request, the
/// pre-state queue entry, or (for self-grants) the pre-state pending record.
fn grant_infos(pre: &HierNode, effects: &[Effect], delivered: Option<&Message>) -> Vec<GrantInfo> {
    let classify = |to: NodeId, mode: Mode| -> GrantInfo {
        if let Some(Message::Request(req)) = delivered {
            if req.from == to {
                return GrantInfo {
                    to,
                    mode,
                    upgrade: req.upgrade,
                    priority: req.priority,
                };
            }
        }
        if let Some(entry) = pre.queued().find(|q| q.from == to) {
            return GrantInfo {
                to,
                mode,
                upgrade: entry.upgrade,
                priority: entry.priority,
            };
        }
        GrantInfo {
            to,
            mode,
            upgrade: false,
            priority: 0,
        }
    };
    effects
        .iter()
        .filter_map(|e| match e {
            Effect::Send {
                to,
                message: Message::Grant { mode },
            }
            | Effect::Send {
                to,
                message: Message::Token { mode, .. },
            } => Some(classify(*to, *mode)),
            Effect::Granted { mode } => {
                let (upgrade, priority) = pre
                    .pending_request()
                    .map(|p| (p.upgrade, p.priority))
                    .unwrap_or((false, 0));
                Some(GrantInfo {
                    to: pre.id(),
                    mode: *mode,
                    upgrade,
                    priority,
                })
            }
            // An Upgraded effect is the completion of a Rule 7 upgrade,
            // which is exempt from the FIFO shield by design.
            Effect::Upgraded => None,
            Effect::Send { .. } => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Op;
    use crate::search::{Core, Options};
    use dlm_core::{EffectBuf, NullObserver, ProtocolConfig};

    fn paper() -> ProtocolConfig {
        ProtocolConfig::paper()
    }

    /// Four-node stars whose walks reach every kind of node and message:
    /// two locks whose tokens change hands, the token holder crashing (a
    /// regenerated token, `Recover` on both locks, the dead generation's
    /// frames fenced) and a leaf crashing mid-traffic.
    fn scenarios() -> Vec<Scenario> {
        let hold = |mode| vec![Op::Acquire(mode), Op::Release];
        vec![
            crate::corpus::star(4, 2),
            Scenario::star(
                4,
                vec![
                    vec![Op::Crash],
                    hold(Mode::Write),
                    hold(Mode::Read),
                    vec![Op::AcquireOn(1, Mode::Write), Op::ReleaseOn(1)],
                ],
                paper(),
            ),
            Scenario::star(
                4,
                vec![
                    hold(Mode::Read),
                    hold(Mode::Write),
                    vec![Op::Acquire(Mode::Write), Op::Crash],
                    hold(Mode::Write),
                ],
                paper(),
            ),
        ]
    }

    /// Every state on eight pseudo-random walks of up to 24 steps.
    fn walks(scenario: &Scenario) -> Vec<State> {
        let mut states = Vec::new();
        for seed in 0..8u64 {
            let mut x = seed;
            let mut state = State::initial(scenario);
            for _ in 0..24 {
                let actions = state.enabled_actions(scenario);
                if actions.is_empty() {
                    break;
                }
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let next = state.apply(scenario, actions[(x >> 33) as usize % actions.len()]);
                states.push(std::mem::replace(&mut state, next.state));
            }
            states.push(state);
        }
        states
    }

    /// Every permutation of `0..n`.
    fn permutations(n: u32) -> Vec<Vec<u32>> {
        if n == 0 {
            return vec![Vec::new()];
        }
        let mut out = Vec::new();
        for shorter in permutations(n - 1) {
            for at in 0..n as usize {
                let mut perm = shorter.clone();
                perm.insert(at, n - 1);
                out.push(perm);
            }
        }
        out
    }

    /// `state` with node `i` renamed `perm[i]`, built out of relabelled
    /// nodes and messages in fresh cells.
    fn renamed(state: &State, perm: &[u32]) -> State {
        let map = |id: NodeId| NodeId(perm[id.index()]);
        let mut nodes = state.nodes.clone();
        for (lock, lock_nodes) in state.nodes.iter().enumerate() {
            for (i, node) in lock_nodes.iter().enumerate() {
                nodes[lock][perm[i] as usize] = node.relabeled(map).into();
            }
        }
        let channels = state
            .channels
            .iter()
            .map(|(&(lock, from, to), q)| {
                let q = q.iter().map(|(epoch, m)| (*epoch, m.relabeled(map)));
                ((lock, perm[from as usize], perm[to as usize]), q.collect())
            })
            .collect();
        let (mut pos, mut crashed) = (state.pos.clone(), state.crashed.clone());
        for (i, &label) in perm.iter().enumerate() {
            pos[label as usize] = state.pos[i];
            crashed[label as usize] = state.crashed[i];
        }
        State {
            nodes,
            channels,
            pos,
            crashed,
        }
    }

    /// `state` with every node copied into a fresh cell: nothing shared,
    /// no digest cached.
    fn fresh(state: &State) -> State {
        let mut out = state.clone();
        for node in out.nodes.iter_mut().flatten() {
            *node = HierNode::clone(node).into();
        }
        out
    }

    /// The relabelled writer is the fingerprint of the relabelled state, for
    /// every permutation of the nodes: a digest's template names no node,
    /// and its mentions rename like the node does.
    #[test]
    fn relabelled_fingerprint_is_the_fingerprint_of_the_renamed_state() {
        let (mut tokens, mut recovers, mut crashes) = (0, 0, 0);
        for scenario in scenarios() {
            let perms = permutations(scenario.parents.len() as u32);
            for state in walks(&scenario) {
                let in_flight = state.channels.values().flatten();
                for (_, m) in in_flight {
                    tokens += matches!(m, Message::Token { .. }) as usize;
                    recovers += matches!(m, Message::Recover { .. }) as usize;
                }
                crashes += state.crashed.iter().filter(|&&c| c).count();
                for perm in &perms {
                    let mut inv = vec![0; perm.len()];
                    for (i, &label) in perm.iter().enumerate() {
                        inv[label as usize] = i as u32;
                    }
                    assert_eq!(
                        state.fingerprint_relabelled(perm, &inv, &mut Vec::new()),
                        renamed(&state, perm).fingerprint(),
                        "{perm:?}"
                    );
                }
            }
        }
        assert!(tokens > 0 && recovers > 0 && crashes > 0);
    }

    /// A successor shares every node it did not change with its parent,
    /// digest and all; it must hash exactly like the same state with every
    /// node in a fresh cell — raw fingerprint and canonical key alike.
    #[test]
    fn successors_hash_like_the_same_state_in_fresh_cells() {
        for scenario in scenarios() {
            let core: Core<'_, ()> =
                Core::new(&scenario, Options::exhaustive(1).with_symmetry(true));
            for state in walks(&scenario) {
                // Fill the parent's digests first: its successors share them.
                let _ = (state.fingerprint(), core.key(&state));
                for action in state.enabled_actions(&scenario) {
                    let next = state.apply(&scenario, action).state;
                    let rebuilt = fresh(&next);
                    assert_eq!(next.fingerprint(), rebuilt.fingerprint(), "{action}");
                    assert_eq!(core.key(&next), core.key(&rebuilt), "{action}");
                }
            }
        }
    }

    /// A cell nobody else holds is changed in place: its digest must go.
    #[test]
    fn changing_an_unshared_cell_drops_its_digest() {
        let mut cell = SharedNode::from(HierNode::with_token(NodeId(0), paper()));
        let idle = cell.digest().template;
        cell.make_mut()
            .on_acquire_into(Mode::Write, 0, &mut EffectBuf::new(), &mut NullObserver)
            .expect("the token holder acquires");
        assert_eq!(
            cell.digest(),
            SharedNode::from(HierNode::clone(&cell)).digest()
        );
        assert_ne!(cell.digest().template, idle);
    }

    /// Two grant counters that differ only in their top byte, swapped
    /// between two peers: a site that dropped that byte would give both
    /// mentions one site, and the two nodes one digest. The states differ,
    /// so their fingerprints must — while swapping the two interchangeable
    /// leaves maps one onto the other, so their keys agree.
    #[test]
    fn counters_that_differ_only_in_their_top_byte_stay_apart() {
        let scenario = crate::corpus::star(3, 1);
        let root_counting = |to_1: u64, to_2: u64| {
            let mut bytes = Vec::new();
            HierNode::with_token(NodeId(0), paper()).encode_state(&mut bytes);
            // The layout ends with the grants-received map (here a zero
            // count) and the version byte: put two entries there.
            let version = bytes.pop().expect("non-empty");
            bytes.truncate(bytes.len() - 4);
            bytes.extend(2u32.to_le_bytes());
            for (peer, count) in [(1u32, to_1), (2, to_2)] {
                bytes.extend(peer.to_le_bytes());
                bytes.extend(count.to_le_bytes());
            }
            bytes.push(version);
            let mut state = State::initial(&scenario);
            state.nodes[0][0] = HierNode::decode_state(&bytes, paper())
                .expect("well-formed")
                .into();
            state
        };
        let (low, high) = (1, 1 | 1 << 60);
        let (a, b) = (root_counting(low, high), root_counting(high, low));
        assert_ne!(a.fingerprint(), b.fingerprint());
        let core: Core<'_, ()> = Core::new(&scenario, Options::exhaustive(1).with_symmetry(true));
        assert_eq!(core.key(&a).0, core.key(&b).0);
    }
}
