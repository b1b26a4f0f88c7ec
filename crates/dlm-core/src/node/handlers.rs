//! Message receipt: the protocol reactions of Rules 3–6.

use super::HierNode;
use crate::effect::{Effect, EffectBuf};
use crate::ids::NodeId;
use crate::message::{Message, QueuedRequest};
use dlm_modes::{
    child_can_grant, compatible, queue_or_forward, Mode, ModeSet, QueueOrForward, REQUEST_MODES,
};
use dlm_trace::{Observer, ProtocolEvent};

impl HierNode {
    /// Dispatch a received protocol message. `from` is the transport-level
    /// sender (the immediate hop, not necessarily the original requester).
    ///
    /// See [`Self::on_acquire_into`] for the sink/observer contract.
    pub fn on_message_into<O: Observer + ?Sized>(
        &mut self,
        from: NodeId,
        message: Message,
        effects: &mut EffectBuf,
        obs: &mut O,
    ) {
        match message {
            Message::Request(req) => self.handle_request(req, effects, obs),
            Message::Grant { mode } => self.handle_grant(from, mode, effects, obs),
            Message::Token {
                mode,
                granter_owned,
                queue,
                frozen,
            } => self.handle_token(from, mode, granter_owned, queue, frozen, effects, obs),
            Message::Release { new_owned, ack } => {
                self.handle_release(from, new_owned, ack, effects, obs)
            }
            Message::SetFrozen { modes } => self.handle_set_frozen(modes, effects, obs),
            Message::Recover {
                dead,
                new_root,
                epoch,
                survivors,
            } => self.on_peer_down_into(dead, new_root, epoch, &survivors, effects, obs),
        }
    }

    /// Rules 3, 4 and 6: a request reached this node.
    fn handle_request<O: Observer + ?Sized>(
        &mut self,
        req: QueuedRequest,
        effects: &mut EffectBuf,
        obs: &mut O,
    ) {
        if req.from == self.id {
            // A request can only chase its own sender through stale routing
            // after its answer already arrived; re-issue it if it is somehow
            // still pending, drop it otherwise. Never reached in the
            // modelled semantics (asserted by the property tests via
            // `anomalies`).
            self.note_anomaly();
            if self.pending == Some(req) && !self.has_token {
                let parent = self.parent.expect("non-token node has a parent");
                effects.push(Effect::send(parent, Message::Request(req)));
                if obs.enabled() {
                    obs.emit(
                        self.id.0,
                        ProtocolEvent::RequestSent {
                            to: parent.0,
                            mode: req.mode,
                            upgrade: req.upgrade,
                        },
                    );
                }
            }
            return;
        }

        if self.has_token {
            self.token_handle_request(req, effects, obs);
        } else {
            self.nontoken_handle_request(req, effects, obs);
        }
    }

    /// Rule 3.2 + Rule 4.2 + Rule 6 at the token node.
    fn token_handle_request<O: Observer + ?Sized>(
        &mut self,
        req: QueuedRequest,
        effects: &mut EffectBuf,
        obs: &mut O,
    ) {
        if self.queue.iter().any(|q| q.from == req.from) {
            // A node has at most one outstanding request, so a second
            // arrival from the same originator can only be a crash-recovery
            // re-issue (Rule R1) racing a queue entry that survived — either
            // carried here by a token transfer or kept by a surviving-holder
            // root. Keep the original's FIFO position, drop the duplicate.
            return;
        }
        let eff_owned = if req.upgrade {
            self.owned_excluding(req.from)
        } else {
            self.owned
        };
        // Note: no separate check against the queue is needed here — any
        // request compatible with `owned` but incompatible with some queued
        // entry is, by construction of Table 1(d), in the frozen set (the
        // freeze-set derivation test in `dlm-modes` pins this).
        let grantable = compatible(eff_owned, req.mode) && !self.frozen.contains(req.mode);
        if grantable {
            if !req.upgrade && self.keeps_token_for(eff_owned, req.mode) {
                self.grant_copy(req, effects, obs);
            } else {
                // Stronger than everything owned (for an upgrade:
                // everything else is quiescent): move the token.
                self.grant_token_transfer(req, effects, obs);
                return;
            }
        } else {
            // Rule 4.2: the token node queues what it cannot grant,
            // then freezes bypass-capable modes (Rule 6 / Table 1(d)).
            self.enqueue(req, obs);
        }
        self.refresh_frozen(effects, obs);
    }

    /// Rule 3.1 + Rule 4.1 at a non-token node.
    fn nontoken_handle_request<O: Observer + ?Sized>(
        &mut self,
        req: QueuedRequest,
        effects: &mut EffectBuf,
        obs: &mut O,
    ) {
        let grantable = self.protocol_config().child_grants
            && !req.upgrade
            && child_can_grant(self.owned, req.mode)
            && !self.frozen.contains(req.mode);
        if grantable {
            self.grant_copy(req, effects, obs);
            return;
        }
        // Rule 4.1 / Table 1(c): queue locally or forward to the parent,
        // keyed by our own pending mode (`MP`, NoLock when none).
        let pending_mode = self.pending.map(|p| p.mode).unwrap_or(Mode::NoLock);
        let decision = if self.protocol_config().local_queueing {
            queue_or_forward(pending_mode, req.mode)
        } else {
            QueueOrForward::Forward
        };
        match decision {
            QueueOrForward::Queue => self.enqueue(req, obs),
            QueueOrForward::Forward => {
                // Note: unlike Naimi's protocol, the forwarder must NOT
                // re-point its parent at the requester. Table 1(c)
                // deliberately forwards compatible requests *past* pending
                // requesters to preserve concurrency; combined with path
                // reversal, a wandering request would rewrite every pointer
                // it crosses toward its own requester and trap itself in a
                // permanent routing cycle (reproduced experimentally — a
                // two-node ping-pong storm). Path compression in this
                // protocol comes solely from grant-time re-parenting plus
                // the stable-root policy (`ProtocolConfig::
                // eager_idle_transfer`).
                let parent = self.parent.expect("non-token node has a parent");
                effects.push(Effect::send(parent, Message::Request(req)));
                if obs.enabled() {
                    obs.emit(
                        self.id.0,
                        ProtocolEvent::RequestForwarded {
                            to: parent.0,
                            requester: req.from.0,
                            mode: req.mode,
                        },
                    );
                }
            }
        }
    }

    /// Rule 3 grant receipt: our pending request was answered with a copy.
    /// We hold the mode, re-parent under the granter (path compression) and
    /// re-examine anything we queued while waiting (Rule 4 trigger
    /// "the pending request comes through").
    fn handle_grant<O: Observer + ?Sized>(
        &mut self,
        from: NodeId,
        mode: Mode,
        effects: &mut EffectBuf,
        obs: &mut O,
    ) {
        debug_assert_eq!(self.pending.map(|p| p.mode), Some(mode));
        debug_assert!(!self.pending.map(|p| p.upgrade).unwrap_or(false));
        self.count_grant_received(from);
        self.detach_from_old_parent(from, effects, obs);
        let old_parent = self.parent;
        self.pending = None;
        self.held = mode;
        self.parent = Some(from);
        self.registered = true;
        self.owned = self.recompute_owned();
        effects.push(Effect::Granted { mode });
        if obs.enabled() {
            obs.emit(
                self.id.0,
                ProtocolEvent::GrantReceived { from: from.0, mode },
            );
            if old_parent != Some(from) {
                obs.emit(
                    self.id.0,
                    ProtocolEvent::ParentChanged {
                        old: old_parent.map(|p| p.0),
                        new: Some(from.0),
                    },
                );
            }
        }
        self.serve_queue_nontoken(effects, obs);
    }

    /// On re-parenting to `new_parent`, clear any copyset entry the *old*
    /// parent holds for this node — the granter's fresh entry takes over the
    /// accounting. Coverage stays sound: a request is only sent (Rule 2)
    /// when the residual owned mode does not dominate the requested one, and
    /// a case analysis over the compatibility lattice shows every *grantable*
    /// such request has `granted >= residual` (e.g. residual IR underneath a
    /// granted R/U/IW/W; a residual U or IW never escalates, because
    /// everything compatible with it is below it and is self-admitted).
    /// Hence the granter's `join(old_entry, granted)` entry dominates this
    /// node's whole subtree and the old parent's entry is redundant — but
    /// left in place it would never be cleaned (releases go to the new
    /// parent only) and would starve incompatible requests forever.
    fn detach_from_old_parent<O: Observer + ?Sized>(
        &mut self,
        new_parent: NodeId,
        effects: &mut EffectBuf,
        obs: &mut O,
    ) {
        if !self.registered {
            return;
        }
        let Some(old_parent) = self.parent else {
            return;
        };
        if old_parent == new_parent {
            return;
        }
        let ack = self.release_ack(old_parent);
        effects.push(Effect::send(
            old_parent,
            Message::Release {
                new_owned: Mode::NoLock,
                ack,
            },
        ));
        if obs.enabled() {
            obs.emit(
                self.id.0,
                ProtocolEvent::ReleaseSent {
                    to: old_parent.0,
                    new_owned: Mode::NoLock,
                    ack,
                },
            );
        }
        self.registered = false;
    }

    /// Rule 3.2 token receipt: we are the new token node. Adopt the old
    /// token node as a child, merge the carried queue ahead of our local one
    /// (it is older in the distributed FIFO), then serve.
    #[allow(clippy::too_many_arguments)]
    fn handle_token<O: Observer + ?Sized>(
        &mut self,
        from: NodeId,
        mode: Mode,
        granter_owned: Mode,
        carried_queue: std::collections::VecDeque<QueuedRequest>,
        carried_frozen: ModeSet,
        effects: &mut EffectBuf,
        obs: &mut O,
    ) {
        debug_assert_eq!(self.pending.map(|p| p.mode), Some(mode));
        self.count_grant_received(from);
        self.detach_from_old_parent(from, effects, obs);
        let old_parent = self.parent;
        let upgrade = self.pending.map(|p| p.upgrade).unwrap_or(false);
        self.pending = None;
        self.has_token = true;
        self.parent = None;
        self.registered = false;
        if obs.enabled() {
            obs.emit(
                self.id.0,
                ProtocolEvent::TokenReceived {
                    from: from.0,
                    queued: carried_queue.len(),
                },
            );
            if old_parent.is_some() {
                obs.emit(
                    self.id.0,
                    ProtocolEvent::ParentChanged {
                        old: old_parent.map(|p| p.0),
                        new: None,
                    },
                );
            }
        }
        if upgrade {
            debug_assert_eq!(self.held, Mode::Upgrade);
            self.held = Mode::Write;
            effects.push(Effect::Upgraded);
            if obs.enabled() {
                obs.emit(self.id.0, ProtocolEvent::Upgraded);
            }
        } else {
            self.held = mode;
            effects.push(Effect::Granted { mode });
        }
        if granter_owned != Mode::NoLock {
            self.update_copyset(from, granter_owned);
        }
        self.owned = self.recompute_owned();

        let mut queue = carried_queue;
        queue.extend(self.queue.drain(..));
        self.queue = queue;
        // Drop any self-entry the carried queue may hold for the request the
        // token itself just answered.
        let me = self.id;
        self.queue
            .retain(|q| !(q.from == me && q.mode == mode && q.upgrade == upgrade));
        self.frozen = carried_frozen;
        self.serve_queue_token(effects, obs);
    }

    /// Rule 5 release receipt: a copyset child's owned mode changed.
    fn handle_release<O: Observer + ?Sized>(
        &mut self,
        from: NodeId,
        new_owned: Mode,
        ack: u64,
        effects: &mut EffectBuf,
        obs: &mut O,
    ) {
        let stale = self.release_is_stale(from, ack);
        if obs.enabled() {
            obs.emit(
                self.id.0,
                ProtocolEvent::ReleaseApplied {
                    from: from.0,
                    new_owned,
                    stale,
                },
            );
        }
        if stale {
            // A grant to `from` is (or was) in flight when this release was
            // emitted: the release predates state this node already pushed
            // toward `from`, so applying it would erase a live grant from the
            // copyset (a mutual-exclusion hole found by the property tests).
            // The child's next release carries an up-to-date ack and replaces
            // the entry, so staleness is bounded by one critical section.
            return;
        }
        self.update_copyset(from, new_owned);
        let old_owned = self.owned;
        self.owned = self.recompute_owned();
        if self.has_token {
            // Rule 5.1: weakened ownership may unblock queued requests.
            self.serve_queue_token(effects, obs);
        } else {
            // Rule 5.2: propagate the weakening toward the token if our own
            // aggregate changed (always, under the eager-release ablation).
            self.propagate_weakening(old_owned, effects, obs);
        }
    }

    /// Rule 6 transitive freezing: replace our frozen set with the parent's
    /// and forward to copyset children for which the change matters.
    fn handle_set_frozen<O: Observer + ?Sized>(
        &mut self,
        modes: ModeSet,
        effects: &mut EffectBuf,
        obs: &mut O,
    ) {
        if self.has_token {
            // Stale: we became the token after this was sent; our own queue
            // now defines the frozen set.
            return;
        }
        let old = self.frozen;
        self.frozen = modes;
        if old == modes {
            return;
        }
        if obs.enabled() {
            if modes.is_empty() {
                obs.emit(self.id.0, ProtocolEvent::Unfrozen);
            } else {
                obs.emit(self.id.0, ProtocolEvent::Frozen { modes });
            }
        }
        let delta = modes.difference(old).union(old.difference(modes));
        // Walk the copyset by index (it is not mutated here — only
        // `frozen_sent` is) instead of collecting the children into a
        // temporary Vec.
        for i in 0..self.copyset.len() {
            let (child, child_mode) = self.copyset.get_index(i);
            let relevant = REQUEST_MODES
                .iter()
                .any(|&m| delta.contains(m) && child_can_grant(child_mode, m));
            if relevant {
                self.frozen_sent.insert(child, modes);
                effects.push(Effect::send(child, Message::SetFrozen { modes }));
                if obs.enabled() {
                    obs.emit(self.id.0, ProtocolEvent::FreezeSent { to: child.0, modes });
                }
            }
        }
    }
}
