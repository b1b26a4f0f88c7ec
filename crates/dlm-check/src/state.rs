//! The explored system state and its transition function.

use crate::scenario::{OpKind, Scenario};
use dlm_core::{
    fifo_overtakes, AuditError, Effect, Fingerprint, FpHasher, GrantInfo, HierNode, InFlight,
    Message, Mode, NodeId,
};
use std::collections::{BTreeMap, VecDeque};

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

/// The full system state: every lock's node array, every channel, every
/// script cursor.
#[derive(Clone)]
pub struct State {
    /// Per-lock, per-node protocol state: `nodes[lock][node]`. Each lock
    /// object is an independent instance of the protocol over the same node
    /// set (the common multi-lock deployment the paper's §1 motivates: one
    /// hierarchy per lockable resource).
    pub nodes: Vec<Vec<HierNode>>,
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
    /// `crashed[i]` — node `i` executed its [`OpKind::Crash`] op: it takes
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
        let one = scenario.initial_nodes();
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

    /// Structural 128-bit digest of the complete state (nodes feed every
    /// field via `dlm-core`'s compiler-checked hash visitor).
    pub fn fingerprint(&self) -> Fingerprint {
        let mut h = FpHasher::new();
        h.write_usize(self.nodes.len());
        for lock_nodes in &self.nodes {
            h.write_usize(lock_nodes.len());
            for n in lock_nodes {
                h.write(n);
            }
        }
        h.write_usize(self.channels.len());
        for (&(lock, from, to), q) in &self.channels {
            h.write_u32(lock);
            h.write_u32(from);
            h.write_u32(to);
            h.write_usize(q.len());
            for (epoch, m) in q {
                h.write_u32(*epoch);
                h.write(m);
            }
        }
        for &p in &self.pos {
            h.write_usize(p);
        }
        for &c in &self.crashed {
            h.write_u32(c as u32);
        }
        h.finish()
    }

    /// The [`State::fingerprint`] of this state with node `i` renamed
    /// `perm[i]` (`inv` is the inverse permutation), computed without
    /// building the renamed state: nodes, cursors and crash flags are read in
    /// the order of their new labels, channels in the order of their new
    /// endpoints (sorted in `renamed`, a buffer the caller keeps), and every
    /// embedded identity goes through `dlm-core`'s mapped visitor.
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
                lock_nodes[old as usize].fingerprint_mapped_into(&mut h, &mut relabel);
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
            let survivors: Vec<HierNode> = self.nodes[lock as usize]
                .iter()
                .enumerate()
                .filter(|&(i, _)| !self.crashed[i])
                .map(|(_, n)| n.clone())
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
                let accepted = next.nodes[lock as usize][to as usize].on_frame_into(
                    NodeId(from),
                    epoch,
                    message.clone(),
                    &mut buf,
                    obs,
                );
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
                let node_state = &mut next.nodes[lock as usize][i];
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
                self.nodes[lock][s.index()].on_peer_down_into(
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
