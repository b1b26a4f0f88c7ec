//! Crash recovery: epoch-fenced token regeneration and tree repair
//! (DESIGN.md §17).
//!
//! The paper assumes fail-free nodes. This module grafts a coordinated
//! view-change protocol onto the hierarchy: when a failure detector declares
//! a node dead, every survivor runs the same repair (Rule R1), the lock
//! moves to a fresh *epoch* (generation number), and — when the token died
//! with the crashed owner — the designated survivor manufactures a
//! replacement token (Rule R2). Frames are stamped with the sender's epoch
//! at transmit time; [`HierNode::on_frame_into`] fences (drops) any frame
//! whose stamp does not match the receiver's epoch, so a stale token or
//! grant from the dead generation can never resurrect authority (Rule R3).
//!
//! The repair rules, in full:
//!
//! * **R1 (view change, every survivor, idempotent per epoch):** bump the
//!   epoch; purge the dead node from copyset, queue and freeze bookkeeping;
//!   reset the grant/ack counters (the new epoch starts its stale-release
//!   arithmetic from zero on both sides of every link); gossip
//!   [`crate::Message::Recover`] to every other survivor *before emitting
//!   anything else*, so FIFO channels deliver the view change ahead of any
//!   post-recovery frame; then flatten: every non-root survivor re-parents
//!   directly under the new root, clears its (now meaningless) local queue
//!   and copyset, **re-reports** its owned mode to the root, and
//!   **re-issues** its pending request if it has one — the original answer,
//!   if it was in flight, is fenced.
//! * **R2 (regeneration, new root only):** if the root designee does not
//!   hold the token (it died with the owner, or is in flight in the old
//!   epoch and will be fenced), it regenerates one: `has_token = true`,
//!   `parent = None`. Its copyset is seeded **pessimistically**: every
//!   other survivor is recorded at `W`, so nothing can be granted until the
//!   survivors' R1 re-reports replace the pessimistic entries with truth —
//!   this is what makes the repair safe under *any* interleaving of detect
//!   notifications and in-flight traffic, with no barrier.
//! * **R3 (fencing):** a non-`Recover` frame whose epoch stamp differs from
//!   the receiver's epoch is dropped and counted, never delivered.
//!
//! A falsely-suspected node (network partition rather than crash) is simply
//! excluded: it ignores view changes that name *it* as the dead node, and
//! every frame it exchanges with the majority side is fenced by the epoch
//! mismatch. Re-joining a repaired cluster is a rejoin protocol, out of
//! scope here.

use super::HierNode;
use crate::effect::{Effect, EffectBuf};
use crate::flatmap::FlatMap;
use crate::ids::NodeId;
use crate::message::Message;
use dlm_modes::{Mode, ModeSet};
use dlm_trace::{Observer, ProtocolEvent};

impl HierNode {
    /// Rule R1/R2: the failure detector (or a gossiped
    /// [`Message::Recover`]) declared `dead` crashed; repair around it.
    ///
    /// `new_root` is the token's home in epoch `new_epoch`: the surviving
    /// token holder when one exists, otherwise the designated regenerator
    /// (by convention the lowest surviving id — any deterministic choice
    /// works as long as the whole view agrees). `survivors` is the
    /// surviving membership including `new_root` and this node.
    ///
    /// Idempotent: a node already at (or past) `new_epoch` does nothing, so
    /// the detector notification and any number of gossiped `Recover`
    /// frames may arrive in any order. A node that is itself named `dead`
    /// (false suspicion) also does nothing — it is fenced out of the new
    /// epoch instead.
    pub fn on_peer_down_into<O: Observer + ?Sized>(
        &mut self,
        dead: NodeId,
        new_root: NodeId,
        new_epoch: u32,
        survivors: &[NodeId],
        effects: &mut EffectBuf,
        obs: &mut O,
    ) {
        if new_epoch <= self.epoch || dead == self.id {
            return;
        }
        debug_assert_ne!(new_root, dead);
        debug_assert!(survivors.contains(&self.id));
        self.epoch = new_epoch;
        if obs.enabled() {
            obs.emit(self.id.0, ProtocolEvent::EpochBump { epoch: new_epoch });
        }

        // Purge the dead node and the old generation's link bookkeeping.
        // Counters restart from zero on both sides of every link, so the
        // stale-release arithmetic stays consistent within the new epoch.
        // Without a box there is nothing to purge (and none is allocated).
        if let Some(peers) = self.peers.get_mut() {
            peers.copyset.remove(&dead);
            peers.queue.retain(|q| q.from != dead);
            peers.grants_sent = FlatMap::new();
            peers.grants_received = FlatMap::new();
            peers.frozen_sent = FlatMap::new();
        }
        self.frozen = ModeSet::EMPTY;

        // Gossip the view change before any other send: FIFO channels then
        // guarantee no survivor sees a new-epoch frame before it has
        // repaired (without this, e.g. a re-report racing a slow detector
        // would be fenced at the not-yet-bumped root and lost forever).
        for &peer in survivors {
            if peer == self.id || peer == dead {
                continue;
            }
            effects.push(Effect::send(
                peer,
                Message::Recover {
                    dead,
                    new_root,
                    epoch: new_epoch,
                    survivors: survivors.to_vec(),
                },
            ));
            if obs.enabled() {
                obs.emit(
                    self.id.0,
                    ProtocolEvent::RecoverSent {
                        to: peer.0,
                        epoch: new_epoch,
                    },
                );
            }
        }

        if self.id == new_root {
            self.repair_as_root(dead, survivors, effects, obs);
        } else {
            self.repair_as_child(new_root, effects, obs);
        }
    }

    /// Rule R2 at the new root: keep (or regenerate) the token and seed the
    /// copyset pessimistically.
    fn repair_as_root<O: Observer + ?Sized>(
        &mut self,
        dead: NodeId,
        survivors: &[NodeId],
        effects: &mut EffectBuf,
        obs: &mut O,
    ) {
        if !self.has_token {
            let old_parent = self.parent;
            self.has_token = true;
            self.parent = None;
            self.registered = false;
            if obs.enabled() {
                obs.emit(
                    self.id.0,
                    ProtocolEvent::TokenRegenerated { epoch: self.epoch },
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
            // A regenerated root was a non-token node a moment ago; its
            // local queue predates its authority and every originator
            // re-issues directly to us (R1), so the entries would only
            // duplicate. Keep our own pending request, drop the rest.
            if let Some(peers) = self.peers.get_mut() {
                peers.queue.clear();
            }
            if let Some(own) = self.pending {
                self.enqueue(own, obs);
            }
        } else {
            // A surviving holder keeps its authority but not the old
            // epoch's queue entries from other survivors: each of those
            // originators re-issues directly to us (R1), so serving the
            // stale entry as well would double-grant inside the new epoch
            // (old FIFO order is sacrificed to the re-issue race either
            // way). Our own queued pending is the one entry nobody
            // re-issues — keep it.
            let me = self.id;
            if let Some(peers) = self.peers.get_mut() {
                peers.queue.retain(|q| q.from == me);
            }
        }
        // Pessimistic seeding: assume every survivor owns W until its R1
        // re-report replaces the entry with truth. join(W, …) = W blocks
        // every grant, so no interleaving of detects/reports/requests can
        // hand out a mode that an unreported survivor might still hold.
        for &peer in survivors {
            if peer == self.id || peer == dead {
                continue;
            }
            self.peers.get_or_alloc().copyset.insert(peer, Mode::Write);
        }
        self.owned = self.recompute_owned();
        self.serve_queue_token(effects, obs);
    }

    /// Rule R1 at a non-root survivor: flatten under the new root,
    /// re-report, re-issue.
    fn repair_as_child<O: Observer + ?Sized>(
        &mut self,
        new_root: NodeId,
        effects: &mut EffectBuf,
        obs: &mut O,
    ) {
        if self.has_token {
            // The view designated another root while we hold the token —
            // the coordinator broke the "surviving holder stays root"
            // contract. Defensive: keep our authority, count it. The epoch
            // invariant still holds (our token is the only one in the new
            // epoch unless the designee also regenerates, which the audit
            // will catch).
            self.note_anomaly();
            return;
        }
        let old_parent = self.parent;
        self.parent = Some(new_root);
        if obs.enabled() && old_parent != Some(new_root) {
            obs.emit(
                self.id.0,
                ProtocolEvent::ParentChanged {
                    old: old_parent.map(|p| p.0),
                    new: Some(new_root.0),
                },
            );
        }
        // The flattened tree dissolves this node's subtree bookkeeping:
        // former copyset children re-report straight to the root, and
        // locally queued requests are re-issued by their originators.
        if let Some(peers) = self.peers.get_mut() {
            peers.copyset = crate::flatmap::CopySet::new();
            peers.queue.clear();
        }
        self.owned = self.recompute_owned();

        // Re-report: replaces the root's pessimistic W entry with truth
        // (NoLock removes it). Fresh counters make the release ack 0 on a
        // grants_sent of 0 at the root — never stale.
        let ack = self.release_ack(new_root);
        effects.push(Effect::send(
            new_root,
            Message::Release {
                new_owned: self.owned,
                ack,
            },
        ));
        if obs.enabled() {
            obs.emit(
                self.id.0,
                ProtocolEvent::ReleaseSent {
                    to: new_root.0,
                    new_owned: self.owned,
                    ack,
                },
            );
        }
        self.registered = self.owned != Mode::NoLock;

        // Re-issue the in-flight request, if any: whatever answer the old
        // epoch had in flight for it is fenced on arrival.
        if let Some(req) = self.pending {
            effects.push(Effect::send(new_root, Message::Request(req)));
            if obs.enabled() {
                obs.emit(
                    self.id.0,
                    ProtocolEvent::RequestSent {
                        to: new_root.0,
                        mode: req.mode,
                        upgrade: req.upgrade,
                    },
                );
            }
        }
    }

    /// Rule R3 delivery gate: deliver a frame stamped with the sender's
    /// epoch at transmit time.
    ///
    /// [`Message::Recover`] frames bypass the fence (they carry the view
    /// change itself and are idempotent). Every other frame is delivered
    /// iff its stamp equals this node's epoch; otherwise it is fenced —
    /// dropped with a [`ProtocolEvent::StaleEpochFenced`] event — and
    /// `false` is returned so the runtime can count it.
    pub fn on_frame_into<O: Observer + ?Sized>(
        &mut self,
        from: NodeId,
        frame_epoch: u32,
        message: Message,
        effects: &mut EffectBuf,
        obs: &mut O,
    ) -> bool {
        if !matches!(message, Message::Recover { .. }) && frame_epoch != self.epoch {
            if obs.enabled() {
                obs.emit(
                    self.id.0,
                    ProtocolEvent::StaleEpochFenced {
                        from: from.0,
                        epoch: frame_epoch,
                    },
                );
            }
            return false;
        }
        self.on_message_into(from, message, effects, obs);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ProtocolConfig;
    use crate::effect::effects_of;
    use crate::invariants::{audit, InFlight};
    use dlm_trace::NullObserver;

    fn cfg() -> ProtocolConfig {
        ProtocolConfig::paper()
    }

    /// Deliver every Send effect immediately (synchronous network), fencing
    /// by epoch, until quiescence. Returns the number of fenced frames.
    fn settle(nodes: &mut [HierNode], mut pending: Vec<(NodeId, NodeId, u32, Message)>) -> usize {
        let mut fenced = 0;
        while let Some((from, to, epoch, msg)) = pending.pop() {
            let Some(node) = nodes.iter_mut().find(|n| n.id() == to) else {
                continue; // destination crashed
            };
            let mut effects = EffectBuf::new();
            if !node.on_frame_into(from, epoch, msg, &mut effects, &mut NullObserver) {
                fenced += 1;
            }
            let sender_epoch = node.epoch();
            for e in effects.drain() {
                if let Effect::Send { to: next, message } = e {
                    pending.push((to, next, sender_epoch, message));
                }
            }
        }
        fenced
    }

    fn sends(
        effects: Vec<Effect>,
        from: NodeId,
        epoch: u32,
    ) -> Vec<(NodeId, NodeId, u32, Message)> {
        effects
            .into_iter()
            .filter_map(|e| match e {
                Effect::Send { to, message } => Some((from, to, epoch, message)),
                _ => None,
            })
            .collect()
    }

    /// Crash of the token holder: the designated survivor regenerates the
    /// token in a new epoch, survivors re-report, and the system passes a
    /// quiescent audit with exactly one token.
    #[test]
    fn token_holder_crash_regenerates_in_new_epoch() {
        let mut nodes = vec![
            HierNode::with_token(NodeId(0), cfg()),
            HierNode::new(NodeId(1), NodeId(0), cfg()),
            HierNode::new(NodeId(2), NodeId(0), cfg()),
        ];
        // Node 1 holds R (granted by the token), node 2 has a W pending.
        let req = effects_of(|b, o| nodes[1].on_acquire_into(Mode::Read, 0, b, o).unwrap());
        let mut flight = sends(req, NodeId(1), 0);
        assert_eq!(settle(&mut nodes, std::mem::take(&mut flight)), 0);
        assert_eq!(nodes[1].held(), Mode::Read);
        let req = effects_of(|b, o| nodes[2].on_acquire_into(Mode::Write, 0, b, o).unwrap());
        let w_request = sends(req, NodeId(2), 0);
        // Node 0 (token) crashes before the W request is delivered.
        nodes.remove(0);
        let survivors = [NodeId(1), NodeId(2)];
        let mut pending = w_request; // stale request toward the dead node
        for n in nodes.iter_mut() {
            let effects =
                effects_of(|b, o| n.on_peer_down_into(NodeId(0), NodeId(1), 1, &survivors, b, o));
            let from = n.id();
            let epoch = n.epoch();
            pending.extend(sends(effects, from, epoch));
        }
        let _ = settle(&mut nodes, pending);

        assert!(nodes[0].has_token(), "lowest survivor regenerated");
        assert_eq!(nodes[0].epoch(), 1);
        assert_eq!(nodes[1].epoch(), 1);
        assert_eq!(nodes[1].held(), Mode::NoLock, "W still pending behind R");
        assert_eq!(nodes[1].pending(), Some(Mode::Write));
        // Release the R; the re-issued W must now be served.
        let rel = effects_of(|b, o| nodes[0].on_release_into(b, o).unwrap());
        let pending = sends(rel, NodeId(1), 1);
        let _ = settle(&mut nodes, pending);
        assert_eq!(nodes[1].held(), Mode::Write);
        let rel = effects_of(|b, o| nodes[1].on_release_into(b, o).unwrap());
        let pending = sends(rel, NodeId(2), 1);
        let _ = settle(&mut nodes, pending);
        assert_eq!(audit(&nodes, &[], true), vec![]);
    }

    /// The stale token frame of a crashed owner, delivered after
    /// regeneration, is fenced: exactly one token remains in the new epoch.
    #[test]
    fn stale_token_frame_is_fenced_after_regeneration() {
        let mut nodes = vec![
            HierNode::with_token(NodeId(0), cfg()),
            HierNode::new(NodeId(1), NodeId(0), cfg()),
            HierNode::new(NodeId(2), NodeId(0), cfg()),
        ];
        // Node 1 requests W; the token answers with a transfer…
        let req = effects_of(|b, o| nodes[1].on_acquire_into(Mode::Write, 0, b, o).unwrap());
        let [(_, _, _, request)] = &sends(req, NodeId(1), 0)[..] else {
            panic!("expected one request send");
        };
        let effects = effects_of(|b, o| nodes[0].on_message_into(NodeId(1), request.clone(), b, o));
        let token_frame = effects
            .into_iter()
            .find_map(|e| match e {
                Effect::Send {
                    to: NodeId(1),
                    message,
                } => Some(message),
                _ => None,
            })
            .expect("token transfer");
        assert!(matches!(token_frame, Message::Token { .. }));
        // …but crashes before the frame is delivered. The view change runs;
        // node 1 (lowest survivor) regenerates.
        nodes.remove(0);
        let survivors = [NodeId(1), NodeId(2)];
        let mut pending = Vec::new();
        for n in nodes.iter_mut() {
            let effects =
                effects_of(|b, o| n.on_peer_down_into(NodeId(0), NodeId(1), 1, &survivors, b, o));
            let from = n.id();
            let epoch = n.epoch();
            pending.extend(sends(effects, from, epoch));
        }
        let _ = settle(&mut nodes, pending);
        assert!(nodes[0].has_token());
        assert_eq!(nodes[0].epoch(), 1);

        // The dead owner's token frame finally arrives, stamped epoch 0.
        assert!(
            !nodes[0].on_frame_into(
                NodeId(0),
                0,
                token_frame,
                &mut EffectBuf::new(),
                &mut NullObserver
            ),
            "stale token must be fenced"
        );
        let token_count = nodes.iter().filter(|n| n.has_token()).count();
        assert_eq!(token_count, 1, "exactly one token in the new epoch");
        // The re-issued W was self-served by the regenerated root once node
        // 2's re-report cleared the pessimistic entry.
        assert_eq!(nodes[0].held(), Mode::Write);
        let rel = effects_of(|b, o| nodes[0].on_release_into(b, o).unwrap());
        let pending = sends(rel, NodeId(1), 1);
        let _ = settle(&mut nodes, pending);
        assert_eq!(audit(&nodes, &[], true), vec![]);
    }

    /// A crash of a non-owner: the surviving holder keeps the token, bumps
    /// the epoch, and held modes survive untouched.
    #[test]
    fn non_owner_crash_keeps_surviving_token() {
        let mut nodes = vec![
            HierNode::with_token(NodeId(0), cfg()),
            HierNode::new(NodeId(1), NodeId(0), cfg()),
            HierNode::new(NodeId(2), NodeId(0), cfg()),
        ];
        let req = effects_of(|b, o| nodes[1].on_acquire_into(Mode::Read, 0, b, o).unwrap());
        let pending = sends(req, NodeId(1), 0);
        let _ = settle(&mut nodes, pending);
        assert_eq!(nodes[1].held(), Mode::Read);

        // Node 2 crashes. The surviving holder (node 0) stays root.
        nodes.remove(2);
        let survivors = [NodeId(0), NodeId(1)];
        let mut pending = Vec::new();
        for n in nodes.iter_mut() {
            let effects =
                effects_of(|b, o| n.on_peer_down_into(NodeId(2), NodeId(0), 1, &survivors, b, o));
            let from = n.id();
            let epoch = n.epoch();
            pending.extend(sends(effects, from, epoch));
        }
        let _ = settle(&mut nodes, pending);
        assert!(nodes[0].has_token());
        assert_eq!(nodes[1].held(), Mode::Read, "held mode survives recovery");
        assert_eq!(
            nodes[0].copyset().get(&NodeId(1)),
            Some(&Mode::Read),
            "re-report replaced the pessimistic entry"
        );
        let rel = effects_of(|b, o| nodes[1].on_release_into(b, o).unwrap());
        let pending = sends(rel, NodeId(1), 1);
        let _ = settle(&mut nodes, pending);
        assert_eq!(audit(&nodes, &[], true), vec![]);
    }

    /// Repair is idempotent: duplicate view changes (detector + gossip) for
    /// the same epoch do nothing, and a node named dead ignores the view.
    #[test]
    fn repair_is_idempotent_and_false_suspicion_is_ignored() {
        let mut node = HierNode::new(NodeId(1), NodeId(0), cfg());
        let survivors = [NodeId(1), NodeId(2)];
        let first =
            effects_of(|b, o| node.on_peer_down_into(NodeId(0), NodeId(1), 1, &survivors, b, o));
        assert!(node.has_token());
        assert!(!first.is_empty());
        let again =
            effects_of(|b, o| node.on_peer_down_into(NodeId(0), NodeId(1), 1, &survivors, b, o));
        assert!(again.is_empty(), "same-epoch repair is a no-op");

        let mut falsely_dead = HierNode::new(NodeId(2), NodeId(0), cfg());
        let effects = effects_of(|b, o| {
            falsely_dead.on_peer_down_into(NodeId(2), NodeId(1), 1, &[NodeId(1)], b, o)
        });
        assert!(effects.is_empty());
        assert_eq!(falsely_dead.epoch(), 0, "a node ignores its own obituary");
    }

    /// Pessimistic seeding blocks grants until every survivor reports.
    #[test]
    fn regenerated_root_grants_nothing_until_reports_arrive() {
        let mut root = HierNode::new(NodeId(1), NodeId(0), cfg());
        effects_of(|b, o| root.on_acquire_into(Mode::Read, 0, b, o).unwrap()); // pending R
        let survivors = [NodeId(1), NodeId(2), NodeId(3)];
        let effects =
            effects_of(|b, o| root.on_peer_down_into(NodeId(0), NodeId(1), 1, &survivors, b, o));
        assert!(root.has_token());
        assert_eq!(root.owned(), Mode::Write, "pessimistic copyset");
        assert!(
            !effects.iter().any(|e| matches!(e, Effect::Granted { .. })),
            "own pending R must wait for the survivors' re-reports"
        );
        // First report (node 2, holds nothing) — still blocked by node 3.
        let eff = node_report(&mut root, NodeId(2), Mode::NoLock);
        assert!(!eff.iter().any(|e| matches!(e, Effect::Granted { .. })));
        // Final report (node 3, holds R): R is compatible, self-grant fires.
        let eff = node_report(&mut root, NodeId(3), Mode::Read);
        assert!(eff
            .iter()
            .any(|e| matches!(e, Effect::Granted { mode: Mode::Read })));
    }

    fn node_report(root: &mut HierNode, from: NodeId, owned: Mode) -> Vec<Effect> {
        let report = Message::Release {
            new_owned: owned,
            ack: 0,
        };
        let epoch = root.epoch();
        effects_of(|b, o| assert!(root.on_frame_into(from, epoch, report, b, o)))
    }

    /// The audit groups tokens by epoch: a fenced-off stale token plus the
    /// regenerated one never count as two.
    #[test]
    fn audit_counts_tokens_per_epoch() {
        let mut survivor = HierNode::new(NodeId(1), NodeId(0), cfg());
        effects_of(|b, o| survivor.on_peer_down_into(NodeId(0), NodeId(1), 1, &[NodeId(1)], b, o));
        assert!(survivor.has_token());
        // A stale epoch-0 token still in flight from the dead owner.
        let stale = InFlight {
            from: NodeId(0),
            to: NodeId(1),
            epoch: 0,
            message: Message::Token {
                mode: Mode::Write,
                granter_owned: Mode::NoLock,
                queue: Default::default(),
                frozen: Default::default(),
            },
        };
        let nodes = [survivor];
        assert_eq!(
            audit(&nodes, std::slice::from_ref(&stale), false),
            vec![],
            "one token per epoch: stale flight is not double-counted"
        );
        // But a *same-epoch* flying token alongside the resident one is.
        let mut dup = stale;
        dup.epoch = 1;
        let errors = audit(&nodes, std::slice::from_ref(&dup), false);
        assert!(
            errors
                .iter()
                .any(|e| matches!(e, crate::AuditError::TokenEpochCount { epoch: 1, count: 2 })),
            "{errors:?}"
        );
    }
}
