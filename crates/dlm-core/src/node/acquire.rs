//! Application-facing entry points: acquire (Rule 2), upgrade (Rule 7) and
//! release (Rule 5.1/5.2).

use super::HierNode;
use crate::effect::{Effect, EffectBuf};
use crate::error::{AcquireError, ReleaseError, UpgradeError};
use crate::message::{Message, QueuedRequest};
use dlm_modes::{compatible, Mode};
use dlm_trace::{Observer, ProtocolEvent};

impl HierNode {
    /// True if an [`Self::on_acquire_into`] for `mode` would be admitted locally,
    /// with zero messages and zero waiting (the Rule 2 / Rule 3.2 fast
    /// path). This is what a CosConcurrency-style `try_lock` consults: a
    /// *conservative*, purely local test — it never initiates remote
    /// traffic, so a `false` does not prove the lock is unavailable
    /// system-wide, only that acquiring it would have to wait on messages.
    ///
    /// "Zero messages" is literal: when this returns true, the subsequent
    /// acquire produces only a local grant. On the token node that rules out
    /// a non-empty queue — admitting a new holder recomputes the Table 1(d)
    /// freeze set for the queued requests, and a changed set is distributed
    /// to children as `SetFrozen` frames (and a try-lock that jumped ahead
    /// of queued waiters would undermine FIFO anyway).
    pub fn can_admit_locally(&self, mode: Mode) -> bool {
        if mode == Mode::NoLock || self.held != Mode::NoLock || self.pending.is_some() {
            return false;
        }
        if self.frozen.contains(mode) || !compatible(self.owned, mode) {
            return false;
        }
        if self.has_token {
            // Self-grant is message-free only while nothing is queued (an
            // empty queue implies an empty freeze set, so `refresh_frozen`
            // cannot change anything, so no `SetFrozen` traffic).
            self.queue.is_empty() && self.frozen.is_empty()
        } else {
            // A non-token node can only admit what its owned mode covers.
            self.owned.ge(mode)
        }
    }

    /// The local application requests the lock in `mode`.
    ///
    /// Rule 2: a request message is sent iff the owned mode is strictly weaker
    /// than (or incomparable with) the requested mode, or the two are
    /// incompatible; otherwise the node admits itself locally and enters the
    /// critical section with zero messages. A frozen mode (Rule 6) also
    /// forces a request, so the token can order us behind the queued request
    /// that caused the freeze.
    ///
    /// On a local admit, the pushed effects contain [`Effect::Granted`]; on a
    /// sent request, the grant arrives later through
    /// [`Self::on_message_into`].
    ///
    /// `priority` is the prior-work extension (see
    /// [`crate::QueuedRequest::priority`]); 0 is the paper's plain FIFO
    /// protocol. Effects are pushed into the caller-owned `effects` sink, so
    /// a runtime that reuses one [`EffectBuf`] allocates nothing per step.
    /// `obs` receives the structured protocol events of this operation; it
    /// is a generic parameter so the [`NullObserver`](dlm_trace::NullObserver)
    /// path monomorphizes to straight-line code with every event site
    /// removed.
    pub fn on_acquire_into<O: Observer + ?Sized>(
        &mut self,
        mode: Mode,
        priority: u8,
        effects: &mut EffectBuf,
        obs: &mut O,
    ) -> Result<(), AcquireError> {
        if mode == Mode::NoLock {
            return Err(AcquireError::NoLockRequested);
        }
        if self.held != Mode::NoLock {
            return Err(AcquireError::AlreadyHeld(self.held));
        }
        if let Some(p) = self.pending {
            return Err(AcquireError::AlreadyPending(p.mode));
        }

        let req = QueuedRequest {
            from: self.id,
            mode,
            upgrade: false,
            priority,
        };

        if self.has_token {
            // The token node answers itself by Rule 3.2 + Rule 6: grant iff
            // compatible with owned and not frozen; otherwise queue locally
            // (Rule 4.2) and freeze per Table 1(d).
            if compatible(self.owned, mode) && !self.frozen.contains(mode) {
                self.held = mode;
                self.owned = self.recompute_owned();
                effects.push(Effect::Granted { mode });
                if obs.enabled() {
                    obs.emit(self.id.0, ProtocolEvent::LocalGrant { mode });
                }
                self.refresh_frozen(effects, obs);
            } else {
                self.pending = Some(req);
                self.enqueue(req, obs);
                self.refresh_frozen(effects, obs);
            }
            return Ok(());
        }

        // Non-token node, Rule 2.
        let local_ok =
            self.owned.ge(mode) && compatible(self.owned, mode) && !self.frozen.contains(mode);
        if local_ok {
            self.held = mode;
            // owned already dominates `mode`; it does not change.
            debug_assert_eq!(self.recompute_owned(), self.owned);
            effects.push(Effect::Granted { mode });
            if obs.enabled() {
                obs.emit(self.id.0, ProtocolEvent::LocalGrant { mode });
            }
        } else {
            self.pending = Some(req);
            let parent = self.parent.expect("non-token node always has a parent");
            effects.push(Effect::send(parent, Message::Request(req)));
            if obs.enabled() {
                obs.emit(
                    self.id.0,
                    ProtocolEvent::RequestSent {
                        to: parent.0,
                        mode,
                        upgrade: false,
                    },
                );
            }
        }
        Ok(())
    }

    /// Rule 7: atomically upgrade a held `U` lock to `W` without releasing.
    ///
    /// The upgraded request travels (or queues) like a `W` request, except
    /// that compatibility checks exclude the requester's own `U`
    /// contribution — upgrades only wait for *other* nodes.
    ///
    /// See [`Self::on_acquire_into`] for the sink/observer contract.
    pub fn on_upgrade_into<O: Observer + ?Sized>(
        &mut self,
        effects: &mut EffectBuf,
        obs: &mut O,
    ) -> Result<(), UpgradeError> {
        if self.held != Mode::Upgrade {
            return Err(UpgradeError::NotHoldingUpgradeLock(self.held));
        }
        if let Some(p) = self.pending {
            return Err(UpgradeError::AlreadyPending(p.mode));
        }
        if obs.enabled() {
            obs.emit(self.id.0, ProtocolEvent::UpgradeStarted);
        }

        let req = QueuedRequest {
            from: self.id,
            mode: Mode::Write,
            upgrade: true,
            priority: 0,
        };

        if self.has_token {
            // Fig. 6: the token node holding U checks everything *except its
            // own U*. If the rest of the tree is quiescent, the upgrade
            // completes immediately; otherwise it queues (freezing weaker
            // modes) and completes when the children release.
            let rest = self.owned_excluding(self.id);
            if rest == Mode::NoLock && !self.frozen.contains(Mode::Write) {
                self.held = Mode::Write;
                self.owned = self.recompute_owned();
                effects.push(Effect::Upgraded);
                if obs.enabled() {
                    obs.emit(self.id.0, ProtocolEvent::Upgraded);
                }
                self.refresh_frozen(effects, obs);
            } else {
                self.pending = Some(req);
                self.enqueue(req, obs);
                self.refresh_frozen(effects, obs);
            }
            return Ok(());
        }

        self.pending = Some(req);
        let parent = self.parent.expect("non-token node always has a parent");
        effects.push(Effect::send(parent, Message::Request(req)));
        if obs.enabled() {
            obs.emit(
                self.id.0,
                ProtocolEvent::RequestSent {
                    to: parent.0,
                    mode: Mode::Write,
                    upgrade: true,
                },
            );
        }
        Ok(())
    }

    /// The local application releases its held lock (Rule 5).
    ///
    /// Rule 5.1: the token node re-examines its queue. Rule 5.2: a non-token
    /// node notifies its parent only if the release weakened its owned mode
    /// (unless release suppression is ablated, in which case it always
    /// notifies — the "eager variant" of §3.2).
    ///
    /// See [`Self::on_acquire_into`] for the sink/observer contract.
    pub fn on_release_into<O: Observer + ?Sized>(
        &mut self,
        effects: &mut EffectBuf,
        obs: &mut O,
    ) -> Result<(), ReleaseError> {
        if self.held == Mode::NoLock {
            return Err(ReleaseError::NotHeld);
        }
        if self.pending.map(|p| p.upgrade).unwrap_or(false) {
            // Rule 7 forbids releasing U mid-upgrade; the upgrade is atomic.
            return Err(ReleaseError::UpgradePending);
        }

        self.held = Mode::NoLock;
        let old_owned = self.owned;
        self.owned = self.recompute_owned();

        if self.has_token {
            self.serve_queue_token(effects, obs);
        } else {
            self.propagate_weakening(old_owned, effects, obs);
        }
        Ok(())
    }

    /// Rule 5.2 (plus the eager-release ablation): tell the parent about an
    /// owned-mode change if warranted.
    pub(crate) fn propagate_weakening<O: Observer + ?Sized>(
        &mut self,
        old_owned: Mode,
        effects: &mut EffectBuf,
        obs: &mut O,
    ) {
        let weakened = self.owned != old_owned && old_owned.ge(self.owned);
        let notify = if self.config.release_suppression {
            weakened
        } else {
            true
        };
        if notify {
            if let Some(parent) = self.parent {
                let ack = self.release_ack(parent);
                effects.push(Effect::send(
                    parent,
                    Message::Release {
                        new_owned: self.owned,
                        ack,
                    },
                ));
                if obs.enabled() {
                    obs.emit(
                        self.id.0,
                        ProtocolEvent::ReleaseSent {
                            to: parent.0,
                            new_owned: self.owned,
                            ack,
                        },
                    );
                }
                if self.owned == Mode::NoLock {
                    // Reporting NoLock removes us from the parent's copyset.
                    // (If the report is dropped as stale, the grant that made
                    // it stale re-registers us on receipt, so the flag heals.)
                    self.registered = false;
                }
            }
        }
    }
}
