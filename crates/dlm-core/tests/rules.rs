//! Systematic per-rule unit tests, one section per protocol rule, driving
//! the state machine directly (no runtime) so each branch is pinned.

use dlm_core::{
    AcquireError, Effect, EffectBuf, HierNode, Message, Mode, NodeId, NullObserver, ProtocolConfig,
    QueuedRequest, ReleaseError, UpgradeError,
};

fn paper() -> ProtocolConfig {
    ProtocolConfig::paper()
}

/// What one `*_into` entry-point call pushes into a fresh sink.
fn fx(call: impl FnOnce(&mut EffectBuf, &mut NullObserver)) -> Vec<Effect> {
    let mut buf = EffectBuf::new();
    call(&mut buf, &mut NullObserver);
    buf.take_vec()
}

/// Deliver node `from`'s own plain request for `mode` to `node`.
fn request(node: &mut HierNode, from: u32, mode: Mode) -> Vec<Effect> {
    let message = Message::Request(QueuedRequest::plain(NodeId(from), mode));
    fx(|b, o| node.on_message_into(NodeId(from), message, b, o))
}

fn sends(effects: &[Effect]) -> usize {
    effects.iter().filter(|e| e.is_send()).count()
}

fn granted(effects: &[Effect]) -> bool {
    effects.iter().any(|e| matches!(e, Effect::Granted { .. }))
}

mod rule2_request_sending {
    use super::*;

    #[test]
    fn token_node_self_grants_anything_compatible() {
        for mode in [Mode::IntentRead, Mode::Read, Mode::Upgrade, Mode::Write] {
            let mut n = HierNode::with_token(NodeId(0), paper());
            let eff = fx(|b, o| n.on_acquire_into(mode, 0, b, o).unwrap());
            assert!(granted(&eff), "{mode}");
            assert_eq!(sends(&eff), 0, "{mode}: token self-grant is free");
        }
    }

    #[test]
    fn non_token_with_sufficient_owned_admits_locally() {
        // Owned R via a copyset child; acquiring R and IR is free.
        let mut n = HierNode::new(NodeId(1), NodeId(0), paper());
        // Simulate a past grant: receive a grant for R, then release while a
        // child keeps R alive. Simplest: become a granter via messages.
        let mut token = HierNode::with_token(NodeId(0), paper());
        let eff = fx(|b, o| n.on_acquire_into(Mode::Read, 0, b, o).unwrap());
        assert_eq!(sends(&eff), 1);
        let eff = request(&mut token, 1, Mode::Read);
        assert_eq!(sends(&eff), 1, "copy grant");
        let eff =
            fx(|b, o| n.on_message_into(NodeId(0), Message::Grant { mode: Mode::Read }, b, o));
        assert!(granted(&eff));
        // n now holds R; a grandchild asks for IR; n grants it itself.
        let eff = request(&mut n, 2, Mode::IntentRead);
        assert!(matches!(
            eff.as_slice(),
            [Effect::Send {
                to: NodeId(2),
                message: Message::Grant {
                    mode: Mode::IntentRead
                }
            }]
        ));
        // n releases; still owns IR through node 2 → re-acquiring IR is free.
        let eff = fx(|b, o| n.on_release_into(b, o).unwrap());
        assert_eq!(sends(&eff), 1, "owned weakened R->IR: release to parent");
        let eff = fx(|b, o| n.on_acquire_into(Mode::IntentRead, 0, b, o).unwrap());
        assert!(granted(&eff));
        assert_eq!(sends(&eff), 0, "Rule 2 free fast path");
    }

    #[test]
    fn incompatible_owned_forces_a_request() {
        // Node owns IW via child; wants R (incompatible) → must send.
        let mut n = HierNode::with_token(NodeId(0), paper());
        fx(|b, o| n.on_acquire_into(Mode::IntentWrite, 0, b, o).unwrap());
        // Hand the token away so n is a plain owner.
        let eff = request(&mut n, 1, Mode::Write);
        // W is incompatible with IW: queued, not sent.
        assert_eq!(sends(&eff), 0);
        assert_eq!(n.queue_len(), 1);
    }
}

mod rule3_granting {
    use super::*;

    #[test]
    fn token_copy_grants_when_owned_dominates() {
        let mut t = HierNode::with_token(NodeId(0), paper());
        fx(|b, o| t.on_acquire_into(Mode::Read, 0, b, o).unwrap());
        let eff = request(&mut t, 1, Mode::IntentRead);
        assert!(matches!(
            eff.as_slice(),
            [Effect::Send {
                message: Message::Grant { .. },
                ..
            }]
        ));
        assert!(t.has_token(), "copy grant keeps the token");
        assert_eq!(t.copyset().get(&NodeId(1)), Some(&Mode::IntentRead));
    }

    #[test]
    fn token_transfers_for_stronger_compatible_mode() {
        let mut t = HierNode::with_token(NodeId(0), paper());
        fx(|b, o| t.on_acquire_into(Mode::IntentRead, 0, b, o).unwrap());
        let eff = request(&mut t, 1, Mode::Read);
        assert!(matches!(
            eff.as_slice(),
            [Effect::Send {
                message: Message::Token { .. },
                ..
            }]
        ));
        assert!(!t.has_token());
        assert_eq!(t.parent(), Some(NodeId(1)));
    }

    #[test]
    fn idle_token_copy_grants_shared_but_transfers_exclusive() {
        for (mode, expect_transfer) in [
            (Mode::IntentRead, false),
            (Mode::Read, false),
            (Mode::IntentWrite, false),
            (Mode::Upgrade, true),
            (Mode::Write, true),
        ] {
            let mut t = HierNode::with_token(NodeId(0), paper());
            let eff = request(&mut t, 1, mode);
            let transferred = matches!(
                eff.as_slice(),
                [Effect::Send {
                    message: Message::Token { .. },
                    ..
                }]
            );
            assert_eq!(transferred, expect_transfer, "{mode}");
        }
    }

    #[test]
    fn literal_rule_3_2_always_transfers_from_idle() {
        for mode in [Mode::IntentRead, Mode::Read, Mode::IntentWrite] {
            let mut t = HierNode::with_token(NodeId(0), paper().literal_rule_3_2());
            let eff = request(&mut t, 1, mode);
            assert!(
                matches!(
                    eff.as_slice(),
                    [Effect::Send {
                        message: Message::Token { .. },
                        ..
                    }]
                ),
                "{mode}"
            );
        }
    }

    #[test]
    fn child_grant_disabled_by_ablation() {
        let cfg = paper().without(dlm_core::Ablation::ChildGrants);
        let mut n = HierNode::new(NodeId(1), NodeId(0), cfg);
        // Even with owned R (via forged grant path), a non-token node must
        // forward rather than grant.
        fx(|b, o| n.on_acquire_into(Mode::Read, 0, b, o).unwrap());
        fx(|b, o| n.on_message_into(NodeId(0), Message::Grant { mode: Mode::Read }, b, o));
        let eff = request(&mut n, 2, Mode::IntentRead);
        assert!(matches!(
            eff.as_slice(),
            [Effect::Send {
                to: NodeId(0),
                message: Message::Request(_)
            }]
        ));
    }
}

mod rule4_queue_or_forward {
    use super::*;

    #[test]
    fn pending_node_queues_same_mode() {
        let mut n = HierNode::new(NodeId(1), NodeId(0), paper());
        fx(|b, o| n.on_acquire_into(Mode::Read, 0, b, o).unwrap());
        let eff = request(&mut n, 2, Mode::Read);
        assert_eq!(sends(&eff), 0, "Table 1(c)[R][R] = Q");
        assert_eq!(n.queue_len(), 1);
    }

    #[test]
    fn pending_node_forwards_compatible_other_mode() {
        let mut n = HierNode::new(NodeId(1), NodeId(0), paper());
        fx(|b, o| n.on_acquire_into(Mode::Read, 0, b, o).unwrap());
        let eff = request(&mut n, 2, Mode::IntentRead);
        assert_eq!(sends(&eff), 1, "Table 1(c)[R][IR] = F");
        assert_eq!(n.queue_len(), 0);
    }

    #[test]
    fn local_queueing_ablation_always_forwards() {
        let cfg = paper().without(dlm_core::Ablation::LocalQueueing);
        let mut n = HierNode::new(NodeId(1), NodeId(0), cfg);
        fx(|b, o| n.on_acquire_into(Mode::Read, 0, b, o).unwrap());
        let eff = request(&mut n, 2, Mode::Read);
        assert_eq!(sends(&eff), 1);
        assert_eq!(n.queue_len(), 0);
    }
}

mod rule5_release {
    use super::*;

    /// A forged stale release must be dropped (ack filter): the copyset
    /// entry created by an in-flight grant survives.
    #[test]
    fn stale_release_is_dropped() {
        let mut t = HierNode::with_token(NodeId(0), paper());
        fx(|b, o| t.on_acquire_into(Mode::Read, 0, b, o).unwrap());
        // Grant node 1 IR (grants_sent[1] becomes 1).
        let _ = request(&mut t, 1, Mode::IntentRead);
        assert_eq!(t.copyset().get(&NodeId(1)), Some(&Mode::IntentRead));
        // A release with ack=0 predates that grant: stale, dropped.
        fx(|b, o| {
            t.on_message_into(
                NodeId(1),
                Message::Release {
                    new_owned: Mode::NoLock,
                    ack: 0,
                },
                b,
                o,
            )
        });
        assert_eq!(
            t.copyset().get(&NodeId(1)),
            Some(&Mode::IntentRead),
            "stale release must not clobber the fresh grant"
        );
        // The up-to-date release (ack=1) is applied.
        fx(|b, o| {
            t.on_message_into(
                NodeId(1),
                Message::Release {
                    new_owned: Mode::NoLock,
                    ack: 1,
                },
                b,
                o,
            )
        });
        assert!(t.copyset().is_empty());
    }

    #[test]
    fn eager_release_ablation_always_notifies() {
        let cfg = paper().without(dlm_core::Ablation::ReleaseSuppression);
        let mut t = HierNode::with_token(NodeId(0), cfg);
        fx(|b, o| t.on_acquire_into(Mode::Read, 0, b, o).unwrap());
        let _ = request(&mut t, 1, Mode::IntentRead);
        // Move the node under test into a child role: build a child directly.
        let mut c = HierNode::new(NodeId(1), NodeId(0), cfg);
        fx(|b, o| c.on_acquire_into(Mode::IntentRead, 0, b, o).unwrap());
        fx(|b, o| {
            c.on_message_into(
                NodeId(0),
                Message::Grant {
                    mode: Mode::IntentRead,
                },
                b,
                o,
            )
        });
        // Grant a grandchild, so c's owned mode survives its own release.
        let _ = request(&mut c, 2, Mode::IntentRead);
        let eff = fx(|b, o| c.on_release_into(b, o).unwrap());
        assert_eq!(
            sends(&eff),
            1,
            "eager variant notifies even though owned mode is unchanged"
        );
    }

    #[test]
    fn suppressed_release_when_owned_unchanged() {
        let mut c = HierNode::new(NodeId(1), NodeId(0), paper());
        fx(|b, o| c.on_acquire_into(Mode::IntentRead, 0, b, o).unwrap());
        fx(|b, o| {
            c.on_message_into(
                NodeId(0),
                Message::Grant {
                    mode: Mode::IntentRead,
                },
                b,
                o,
            )
        });
        let _ = request(&mut c, 2, Mode::IntentRead);
        let eff = fx(|b, o| c.on_release_into(b, o).unwrap());
        assert_eq!(sends(&eff), 0, "Rule 5.2: owned still IR via the child");
    }
}

mod rule6_freezing {
    use super::*;

    #[test]
    fn token_freezes_on_incompatible_queue_and_notifies_capable_children() {
        let mut t = HierNode::with_token(NodeId(0), paper());
        fx(|b, o| t.on_acquire_into(Mode::Read, 0, b, o).unwrap());
        // Child holding IR (can grant IR → must be told about an IR freeze).
        let _ = request(&mut t, 1, Mode::IntentRead);
        let eff = request(&mut t, 2, Mode::Write);
        assert!(t.frozen().contains(Mode::IntentRead));
        assert!(t.frozen().contains(Mode::Read));
        assert!(t.frozen().contains(Mode::Upgrade));
        let freeze_sends = eff
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    Effect::Send {
                        message: Message::SetFrozen { .. },
                        ..
                    }
                )
            })
            .count();
        assert_eq!(freeze_sends, 1, "exactly the IR-holding child is notified");
    }

    #[test]
    fn frozen_node_refuses_grants_it_could_otherwise_make() {
        let mut n = HierNode::new(NodeId(1), NodeId(0), paper());
        fx(|b, o| n.on_acquire_into(Mode::IntentRead, 0, b, o).unwrap());
        fx(|b, o| {
            n.on_message_into(
                NodeId(0),
                Message::Grant {
                    mode: Mode::IntentRead,
                },
                b,
                o,
            )
        });
        // Freeze IR at this node.
        fx(|b, o| {
            n.on_message_into(
                NodeId(0),
                Message::SetFrozen {
                    modes: dlm_core::ModeSet::from_modes([Mode::IntentRead]),
                },
                b,
                o,
            )
        });
        let eff = request(&mut n, 2, Mode::IntentRead);
        assert!(
            matches!(
                eff.as_slice(),
                [Effect::Send {
                    message: Message::Request(_),
                    ..
                }]
            ),
            "frozen IR is forwarded, not granted"
        );
    }

    #[test]
    fn unfreeze_restores_granting() {
        let mut n = HierNode::new(NodeId(1), NodeId(0), paper());
        fx(|b, o| n.on_acquire_into(Mode::IntentRead, 0, b, o).unwrap());
        fx(|b, o| {
            n.on_message_into(
                NodeId(0),
                Message::Grant {
                    mode: Mode::IntentRead,
                },
                b,
                o,
            )
        });
        fx(|b, o| {
            n.on_message_into(
                NodeId(0),
                Message::SetFrozen {
                    modes: dlm_core::ModeSet::from_modes([Mode::IntentRead]),
                },
                b,
                o,
            )
        });
        fx(|b, o| {
            n.on_message_into(
                NodeId(0),
                Message::SetFrozen {
                    modes: dlm_core::ModeSet::EMPTY,
                },
                b,
                o,
            )
        });
        let eff = request(&mut n, 2, Mode::IntentRead);
        assert!(matches!(
            eff.as_slice(),
            [Effect::Send {
                message: Message::Grant { .. },
                ..
            }]
        ));
    }
}

mod rule7_upgrade {
    use super::*;

    #[test]
    fn immediate_upgrade_when_alone() {
        let mut t = HierNode::with_token(NodeId(0), paper());
        fx(|b, o| t.on_acquire_into(Mode::Upgrade, 0, b, o).unwrap());
        let eff = fx(|b, o| t.on_upgrade_into(b, o).unwrap());
        assert!(eff.iter().any(|e| matches!(e, Effect::Upgraded)));
        assert_eq!(t.held(), Mode::Write);
    }

    #[test]
    fn upgrade_errors() {
        let mut t = HierNode::with_token(NodeId(0), paper());
        assert_eq!(
            t.on_upgrade_into(&mut EffectBuf::new(), &mut NullObserver),
            Err(UpgradeError::NotHoldingUpgradeLock(Mode::NoLock))
        );
        fx(|b, o| t.on_acquire_into(Mode::Read, 0, b, o).unwrap());
        assert_eq!(
            t.on_upgrade_into(&mut EffectBuf::new(), &mut NullObserver),
            Err(UpgradeError::NotHoldingUpgradeLock(Mode::Read))
        );
    }

    #[test]
    fn release_during_pending_upgrade_is_rejected() {
        let mut t = HierNode::with_token(NodeId(0), paper());
        fx(|b, o| t.on_acquire_into(Mode::Upgrade, 0, b, o).unwrap());
        // A reader child keeps the upgrade pending.
        let _ = request(&mut t, 1, Mode::IntentRead);
        fx(|b, o| t.on_upgrade_into(b, o).unwrap());
        assert!(t.pending_is_upgrade());
        assert_eq!(
            t.on_release_into(&mut EffectBuf::new(), &mut NullObserver),
            Err(ReleaseError::UpgradePending)
        );
        assert_eq!(t.held(), Mode::Upgrade, "U never released mid-upgrade");
    }
}

mod api_misuse {
    use super::*;

    #[test]
    fn acquire_errors() {
        let mut t = HierNode::with_token(NodeId(0), paper());
        assert_eq!(
            t.on_acquire_into(Mode::NoLock, 0, &mut EffectBuf::new(), &mut NullObserver),
            Err(AcquireError::NoLockRequested)
        );
        fx(|b, o| t.on_acquire_into(Mode::Read, 0, b, o).unwrap());
        assert_eq!(
            t.on_acquire_into(Mode::Read, 0, &mut EffectBuf::new(), &mut NullObserver),
            Err(AcquireError::AlreadyHeld(Mode::Read))
        );
        let mut n = HierNode::new(NodeId(1), NodeId(0), paper());
        fx(|b, o| n.on_acquire_into(Mode::Write, 0, b, o).unwrap());
        assert_eq!(
            n.on_acquire_into(Mode::Read, 0, &mut EffectBuf::new(), &mut NullObserver),
            Err(AcquireError::AlreadyPending(Mode::Write))
        );
    }

    #[test]
    fn release_without_holding() {
        let mut t = HierNode::with_token(NodeId(0), paper());
        assert_eq!(
            t.on_release_into(&mut EffectBuf::new(), &mut NullObserver),
            Err(ReleaseError::NotHeld)
        );
    }

    #[test]
    fn can_admit_locally_matches_fast_path() {
        let mut t = HierNode::with_token(NodeId(0), paper());
        assert!(t.can_admit_locally(Mode::Write));
        assert!(!t.can_admit_locally(Mode::NoLock));
        fx(|b, o| t.on_acquire_into(Mode::Read, 0, b, o).unwrap());
        assert!(!t.can_admit_locally(Mode::Read), "already holding");
        let n = HierNode::new(NodeId(1), NodeId(0), paper());
        assert!(!n.can_admit_locally(Mode::IntentRead), "owns nothing");
    }
}
