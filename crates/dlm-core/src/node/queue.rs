//! Local-queue service and freeze maintenance (Rules 4–6).

use super::HierNode;
use crate::effect::{Effect, EffectBuf};
use crate::message::{Message, QueuedRequest};
use dlm_modes::{child_can_grant, compatible, freeze_set, Mode, ModeSet, REQUEST_MODES};
use dlm_trace::{Observer, ProtocolEvent};

impl HierNode {
    /// Rule 5.1 queue service at the token node.
    ///
    /// Scans the FIFO queue; grants every entry that is compatible with the
    /// (possibly just weakened) owned mode, while a shadow `blocked` set
    /// enforces FIFO among queue entries themselves: once an entry cannot be
    /// granted, no later entry incompatible with it may overtake. A grant
    /// that must move the token ships the *remaining* queue along with it and
    /// ends this node's authority.
    pub(crate) fn serve_queue_token<O: Observer + ?Sized>(
        &mut self,
        effects: &mut EffectBuf,
        obs: &mut O,
    ) {
        debug_assert!(self.has_token);
        'rescan: loop {
            let mut blocked = ModeSet::EMPTY;
            for i in 0..self.queue_len() {
                let entry = self.peers.get().queue[i];
                let eff_owned = if entry.upgrade {
                    self.owned_excluding(entry.from)
                } else {
                    self.owned
                };
                // Rule 7 upgrades are exempt from the FIFO shield: the
                // upgrader already *holds* U, so every queued entry that is
                // incompatible with the upgrade is itself waiting for that U
                // to go away — blocking the upgrade behind it would deadlock
                // (U-requester waits for the holder; holder's upgrade waits
                // behind the U-requester). The paper's "atomically changes
                // its mode from U to W" makes the jump explicit.
                let grantable = compatible(eff_owned, entry.mode)
                    && (entry.upgrade || !blocked.contains(entry.mode));
                if !grantable {
                    // FIFO shield: nothing incompatible with this waiting
                    // entry may be granted behind its back (§3.3).
                    for &m in &REQUEST_MODES {
                        if !compatible(m, entry.mode) {
                            blocked.insert(m);
                        }
                    }
                    continue;
                }
                // The queue is non-empty, so its box exists.
                if let Some(peers) = self.peers.get_mut() {
                    peers.queue.remove(i);
                }
                if obs.enabled() {
                    obs.emit(
                        self.id.0,
                        ProtocolEvent::QueueServed {
                            requester: entry.from.0,
                            mode: entry.mode,
                            depth: self.queue_len(),
                        },
                    );
                }
                if entry.from == self.id {
                    self.grant_self(entry, effects, obs);
                } else if !entry.upgrade && self.keeps_token_for(eff_owned, entry.mode) {
                    self.grant_copy(entry, effects, obs);
                } else {
                    // Stronger than everything owned: the token itself moves,
                    // along with whatever is still queued.
                    self.grant_token_transfer(entry, effects, obs);
                    return;
                }
                // Owned may have changed (self-grant) and an entry was
                // removed; rescan from the front with a fresh shadow set.
                continue 'rescan;
            }
            break;
        }
        self.refresh_frozen(effects, obs);
    }

    /// Queue service at a non-token node after its own pending request was
    /// answered (the "pending request comes through" trigger of Rule 4).
    ///
    /// Entries that are now locally grantable (Rule 3.1 + Rule 6) are
    /// granted; the rest are forwarded to the parent — their queueing
    /// justification (Table 1(c)) referred to the pending mode that has just
    /// been resolved, so holding them longer could strand them.
    pub(crate) fn serve_queue_nontoken<O: Observer + ?Sized>(
        &mut self,
        effects: &mut EffectBuf,
        obs: &mut O,
    ) {
        debug_assert!(!self.has_token);
        // Pop-in-place: nothing below touches the queue, so this visits the
        // same entries in the same order as the drain-and-collect it
        // replaced, without the temporary Vec. Popping allocates no box.
        while let Some(entry) = self.peers.get_mut().and_then(|p| p.queue.pop_front()) {
            if obs.enabled() {
                obs.emit(
                    self.id.0,
                    ProtocolEvent::QueueServed {
                        requester: entry.from.0,
                        mode: entry.mode,
                        depth: self.queue_len(),
                    },
                );
            }
            let grantable = self.config.child_grants
                && !entry.upgrade
                && entry.from != self.id
                && child_can_grant(self.owned, entry.mode)
                && !self.frozen.contains(entry.mode);
            if grantable {
                self.grant_copy(entry, effects, obs);
            } else {
                let parent = self.parent.expect("non-token node has a parent");
                effects.push(Effect::send(parent, Message::Request(entry)));
                if obs.enabled() {
                    obs.emit(
                        self.id.0,
                        ProtocolEvent::RequestForwarded {
                            to: parent.0,
                            requester: entry.from.0,
                            mode: entry.mode,
                        },
                    );
                }
            }
        }
    }

    /// Grant the local application's queued request (token node only).
    pub(crate) fn grant_self<O: Observer + ?Sized>(
        &mut self,
        entry: QueuedRequest,
        effects: &mut EffectBuf,
        obs: &mut O,
    ) {
        debug_assert_eq!(entry.from, self.id);
        self.pending = None;
        if entry.upgrade {
            debug_assert_eq!(self.held, Mode::Upgrade);
            self.held = Mode::Write;
            effects.push(Effect::Upgraded);
            if obs.enabled() {
                obs.emit(self.id.0, ProtocolEvent::Upgraded);
            }
        } else {
            self.held = entry.mode;
            effects.push(Effect::Granted { mode: entry.mode });
            if obs.enabled() {
                obs.emit(self.id.0, ProtocolEvent::LocalGrant { mode: entry.mode });
            }
        }
        self.owned = self.recompute_owned();
    }

    /// Decide whether a grantable (compatible, unfrozen) request is answered
    /// with a copy-grant (token stays) or a token transfer (Rule 3.2).
    ///
    /// `owned >= mode` always keeps the token (the paper's `MO >= MR` copy
    /// branch). An idle token (`owned == NoLock`) keeps it for shared-mode
    /// requests unless `eager_idle_transfer` asks for the literal Rule 3.2
    /// behaviour — see the discussion on
    /// [`crate::ProtocolConfig::eager_idle_transfer`].
    pub(crate) fn keeps_token_for(&self, eff_owned: Mode, mode: Mode) -> bool {
        if eff_owned.ge(mode) {
            return true;
        }
        eff_owned == Mode::NoLock
            && !self.config.eager_idle_transfer
            && !matches!(mode, Mode::Upgrade | Mode::Write)
    }

    /// Rule 3 copy-grant: admit `entry.from` into the copyset and answer it.
    /// Legal when `owned >= entry.mode` (then `owned` is unchanged) or at an
    /// idle token retaining the token for a shared mode (then `owned`
    /// becomes the granted mode).
    pub(crate) fn grant_copy<O: Observer + ?Sized>(
        &mut self,
        entry: QueuedRequest,
        effects: &mut EffectBuf,
        obs: &mut O,
    ) {
        debug_assert!(self.owned.ge(entry.mode) || (self.has_token && self.owned == Mode::NoLock));
        let peers = self.peers.get_or_alloc();
        let recorded = peers
            .copyset
            .get(&entry.from)
            .copied()
            .unwrap_or(Mode::NoLock)
            .join(entry.mode);
        peers.copyset.insert(entry.from, recorded);
        peers.count_grant_sent(entry.from);
        self.owned = self.recompute_owned();
        effects.push(Effect::send(
            entry.from,
            Message::Grant { mode: entry.mode },
        ));
        if obs.enabled() {
            obs.emit(
                self.id.0,
                ProtocolEvent::ChildGrant {
                    to: entry.from.0,
                    mode: entry.mode,
                },
            );
        }
    }

    /// Rule 3.2 token transfer: the requested mode exceeds everything owned.
    /// The old token node becomes a child of the requester; the residual
    /// queue and frozen set travel with the token (DESIGN.md §3 item 2).
    pub(crate) fn grant_token_transfer<O: Observer + ?Sized>(
        &mut self,
        entry: QueuedRequest,
        effects: &mut EffectBuf,
        obs: &mut O,
    ) {
        debug_assert!(self.has_token);
        debug_assert_ne!(entry.from, self.id);
        // The requester stops being our child: its mode (e.g. the U of an
        // upgrade) moves to the other side of the parent/child relation.
        let peers = self.peers.get_or_alloc();
        peers.copyset.remove(&entry.from);
        peers.frozen_sent.remove(&entry.from);
        peers.count_grant_sent(entry.from);
        let queue = std::mem::take(&mut peers.queue);
        self.owned = self.recompute_owned();
        let frozen = self.frozen;
        // Our own pending request, if any, is inside `queue` and will be
        // answered by the new token node like any other requester's.
        self.has_token = false;
        self.parent = Some(entry.from);
        // The receiver records us in its copyset iff our residual owned mode
        // is not NoLock (see `handle_token`).
        self.registered = self.owned != Mode::NoLock;

        if obs.enabled() {
            obs.emit(
                self.id.0,
                ProtocolEvent::TokenSent {
                    to: entry.from.0,
                    mode: entry.mode,
                    queued: queue.len(),
                },
            );
            obs.emit(
                self.id.0,
                ProtocolEvent::ParentChanged {
                    old: None,
                    new: Some(entry.from.0),
                },
            );
        }
        effects.push(Effect::send(
            entry.from,
            Message::Token {
                mode: entry.mode,
                granter_owned: self.owned,
                queue,
                frozen,
            },
        ));
    }

    /// Rule 6 / Table 1(d): recompute the frozen set at the token node from
    /// the queued requests and push deltas to copyset children that could
    /// otherwise grant a frozen mode.
    pub(crate) fn refresh_frozen<O: Observer + ?Sized>(
        &mut self,
        effects: &mut EffectBuf,
        obs: &mut O,
    ) {
        debug_assert!(self.has_token);
        let mut fresh = ModeSet::EMPTY;
        if self.config.freezing {
            for entry in self.queued() {
                let eff_owned = if entry.upgrade {
                    self.owned_excluding(entry.from)
                } else {
                    self.owned
                };
                fresh = fresh.union(freeze_set(eff_owned, entry.mode));
            }
        }
        if fresh == self.frozen {
            // No change. Children informed earlier stay consistent; a child
            // left with a stale (over-large) frozen set after a token
            // transfer merely forwards requests it could have granted — a
            // small message cost, never a safety or liveness issue, since the
            // token serves every forwarded request.
            return;
        }
        self.frozen = fresh;
        if obs.enabled() {
            if fresh.is_empty() {
                obs.emit(self.id.0, ProtocolEvent::Unfrozen);
            } else {
                obs.emit(self.id.0, ProtocolEvent::Frozen { modes: fresh });
            }
        }
        // No box, no children to tell.
        let Some(peers) = self.peers.get_mut() else {
            return;
        };
        // Notify exactly the children for which the change matters: those
        // whose recorded mode lets them grant some mode whose frozen status
        // changed (transitive freezing, §3.3). Walk the copyset by index
        // (only `frozen_sent` is mutated in the loop) instead of collecting
        // the children into a temporary Vec.
        for i in 0..peers.copyset.len() {
            let (child, child_mode) = peers.copyset.get_index(i);
            let last = peers
                .frozen_sent
                .get(&child)
                .copied()
                .unwrap_or(ModeSet::EMPTY);
            if last == fresh {
                continue;
            }
            let delta = fresh.difference(last).union(last.difference(fresh));
            let relevant = REQUEST_MODES
                .iter()
                .any(|&m| delta.contains(m) && child_can_grant(child_mode, m));
            if relevant {
                peers.frozen_sent.insert(child, fresh);
                effects.push(Effect::send(child, Message::SetFrozen { modes: fresh }));
                if obs.enabled() {
                    obs.emit(
                        self.id.0,
                        ProtocolEvent::FreezeSent {
                            to: child.0,
                            modes: fresh,
                        },
                    );
                }
            }
        }
    }
}
