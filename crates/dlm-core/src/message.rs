//! Protocol messages.
//!
//! The paper's operational specification names five message kinds — request,
//! grant, token, release, freeze and "update" — which map onto the variants
//! below (`SetFrozen` is the freeze/update pair: it idempotently replaces the
//! receiver's frozen set, so the same message both freezes and unfreezes).

use crate::ids::NodeId;
use dlm_modes::{Mode, ModeSet};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// A request waiting in some node's local queue (§3.2: the union of local
/// queues is logically one distributed FIFO — or, with non-zero priorities,
/// one distributed priority queue).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueuedRequest {
    /// The node that originated the request.
    pub from: NodeId,
    /// The requested mode.
    pub mode: Mode,
    /// True if this is a Rule 7 upgrade: the requester already holds `U` and
    /// asks for `W` without releasing. Compatibility checks for an upgrade
    /// exclude the requester's own contribution to the owned mode.
    pub upgrade: bool,
    /// Request priority (higher = more urgent; 0 = the paper's plain FIFO).
    ///
    /// An extension following the authors' prior work on prioritized
    /// token-based mutual exclusion (Mueller, IPPS'98 / RTSS'99, cited as
    /// the foundation in §2): requests queue ahead of strictly
    /// lower-priority entries at the token and are FIFO within a priority
    /// level. Fairness (Rule 6 freezing) then holds *per priority level*;
    /// a starved low-priority request is a policy choice, not a bug.
    pub priority: u8,
}

impl QueuedRequest {
    /// A plain (priority 0, non-upgrade) request — the paper's protocol.
    pub fn plain(from: NodeId, mode: Mode) -> Self {
        QueuedRequest {
            from,
            mode,
            upgrade: false,
            priority: 0,
        }
    }
}

/// A protocol message between two nodes. Senders are identified by the
/// transport (`HierNode::on_message_into` receives the sender id).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Message {
    /// A lock request travelling up the parent chain (Rules 2–4). Forwarding
    /// preserves `requester`, so the eventual grant is sent directly to the
    /// originator (this is what compresses paths: the requester re-parents
    /// under the granter, however far away it was).
    Request(QueuedRequest),

    /// A copy-grant (Rule 3): the sender owns a sufficient, compatible mode
    /// and admits the requester into its copyset. On receipt, the requester
    /// holds `mode` and re-parents under the sender.
    Grant {
        /// The granted mode (equals the requested mode).
        mode: Mode,
    },

    /// A token transfer (Rule 3.2, `MO < MR`): the requested mode is stronger
    /// than everything the token owns, so authority itself moves. The sender
    /// (old token node) becomes a child of the receiver.
    Token {
        /// The granted mode (equals the requested mode).
        mode: Mode,
        /// The old token node's owned mode at transfer time; the receiver
        /// records the sender in its copyset with this mode (the sender keeps
        /// its own subtree).
        granter_owned: Mode,
        /// The old token node's local queue. Queued requests are token-level
        /// decisions, so they travel with the token (DESIGN.md §3, item 2).
        queue: VecDeque<QueuedRequest>,
        /// Frozen modes protecting the carried queue (Rule 6).
        frozen: ModeSet,
    },

    /// A release notification (Rule 5.2): the sender's owned mode weakened to
    /// `new_owned` (possibly `NoLock`). The receiver updates its copyset.
    Release {
        /// The sender's owned mode after the weakening.
        new_owned: Mode,
        /// Number of grants the sender has *received* from the receiver when
        /// this release was emitted. The receiver compares it against the
        /// grants it has *sent*: a smaller value means a grant is still in
        /// flight to the sender, making this release stale — it reflects a
        /// state that the in-flight grant is about to strengthen — and it is
        /// dropped (the sender's next release resynchronises the entry).
        /// Without this, a release racing a grant on the opposite channel
        /// can erase the granted mode from the granter's copyset and break
        /// mutual exclusion (found by the property tests; DESIGN.md §3).
        ack: u64,
    },

    /// Freeze propagation (Rule 6): idempotently replaces the receiver's
    /// frozen-mode set and is forwarded transitively to copyset children that
    /// could grant a frozen mode. An empty set is the paper's "update"
    /// (unfreeze) message.
    SetFrozen {
        /// The new frozen set (replaces, not merges).
        modes: ModeSet,
    },

    /// Crash-recovery view change (Rule R1, DESIGN.md §17): `dead` has been
    /// declared crashed and the lock's state moves to generation `epoch`,
    /// rooted at `new_root`. Every survivor gossips this to every other
    /// survivor *before* any other new-epoch frame, so FIFO channels
    /// guarantee a receiver has repaired before it sees post-recovery
    /// traffic. Processing is idempotent: a receiver already at (or past)
    /// `epoch` ignores it.
    Recover {
        /// The crashed node being excised from the tree.
        dead: NodeId,
        /// Token home in the new epoch: the surviving token holder if one
        /// exists, otherwise the designated regenerator.
        new_root: NodeId,
        /// The new generation number (strictly greater than any epoch the
        /// lock has used before).
        epoch: u32,
        /// Surviving membership, so a gossip-triggered repair can gossip
        /// onward exactly like a detector-triggered one.
        survivors: Vec<NodeId>,
    },
}

impl QueuedRequest {
    /// This request with its originator mapped through `map` (model-checker
    /// symmetry reduction; see [`crate::HierNode::relabeled`]).
    pub fn relabeled(&self, map: impl Fn(NodeId) -> NodeId) -> QueuedRequest {
        QueuedRequest {
            from: map(self.from),
            ..*self
        }
    }
}

impl Message {
    /// This message with every embedded node identity mapped through `map`
    /// (model-checker symmetry reduction; see
    /// [`crate::HierNode::relabeled`]). Only requests and token transfers
    /// carry node ids; the other variants are returned unchanged.
    pub fn relabeled(&self, map: impl Fn(NodeId) -> NodeId) -> Message {
        match self {
            Message::Request(req) => Message::Request(req.relabeled(map)),
            Message::Token {
                mode,
                granter_owned,
                queue,
                frozen,
            } => Message::Token {
                mode: *mode,
                granter_owned: *granter_owned,
                queue: queue.iter().map(|q| q.relabeled(&map)).collect(),
                frozen: *frozen,
            },
            Message::Recover {
                dead,
                new_root,
                epoch,
                survivors,
            } => Message::Recover {
                dead: map(*dead),
                new_root: map(*new_root),
                epoch: *epoch,
                survivors: survivors.iter().map(|&s| map(s)).collect(),
            },
            other => other.clone(),
        }
    }

    /// Short tag for metrics (message counts per kind).
    pub fn kind(&self) -> MessageKind {
        match self {
            Message::Request { .. } => MessageKind::Request,
            Message::Grant { .. } => MessageKind::Grant,
            Message::Token { .. } => MessageKind::Token,
            Message::Release { .. } => MessageKind::Release,
            Message::SetFrozen { .. } => MessageKind::Freeze,
            Message::Recover { .. } => MessageKind::Recover,
        }
    }
}

/// Message kinds, for per-kind accounting in the harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MessageKind {
    /// [`Message::Request`]
    Request,
    /// [`Message::Grant`]
    Grant,
    /// [`Message::Token`]
    Token,
    /// [`Message::Release`]
    Release,
    /// [`Message::SetFrozen`]
    Freeze,
    /// [`Message::Recover`]
    Recover,
}

/// All message kinds, for tally tables.
pub const ALL_MESSAGE_KINDS: [MessageKind; 6] = [
    MessageKind::Request,
    MessageKind::Grant,
    MessageKind::Token,
    MessageKind::Release,
    MessageKind::Freeze,
    MessageKind::Recover,
];

impl MessageKind {
    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            MessageKind::Request => "request",
            MessageKind::Grant => "grant",
            MessageKind::Token => "token",
            MessageKind::Release => "release",
            MessageKind::Freeze => "freeze",
            MessageKind::Recover => "recover",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_maps_every_variant() {
        let q = QueuedRequest::plain(NodeId(1), Mode::Read);
        assert_eq!(Message::Request(q).kind(), MessageKind::Request);
        assert_eq!(
            Message::Grant { mode: Mode::Read }.kind(),
            MessageKind::Grant
        );
        assert_eq!(
            Message::Token {
                mode: Mode::Write,
                granter_owned: Mode::NoLock,
                queue: VecDeque::new(),
                frozen: ModeSet::EMPTY,
            }
            .kind(),
            MessageKind::Token
        );
        assert_eq!(
            Message::Release {
                new_owned: Mode::NoLock,
                ack: 0,
            }
            .kind(),
            MessageKind::Release
        );
        assert_eq!(
            Message::SetFrozen {
                modes: ModeSet::EMPTY
            }
            .kind(),
            MessageKind::Freeze
        );
        assert_eq!(
            Message::Recover {
                dead: NodeId(2),
                new_root: NodeId(0),
                epoch: 1,
                survivors: vec![NodeId(0), NodeId(1)],
            }
            .kind(),
            MessageKind::Recover
        );
    }

    #[test]
    fn recover_relabels_every_identity() {
        let m = Message::Recover {
            dead: NodeId(2),
            new_root: NodeId(0),
            epoch: 3,
            survivors: vec![NodeId(0), NodeId(1)],
        };
        let swapped = m.relabeled(|n| NodeId(n.0 + 10));
        assert_eq!(
            swapped,
            Message::Recover {
                dead: NodeId(12),
                new_root: NodeId(10),
                epoch: 3,
                survivors: vec![NodeId(10), NodeId(11)],
            }
        );
    }

    #[test]
    fn labels_are_distinct() {
        let mut labels: Vec<&str> = ALL_MESSAGE_KINDS.iter().map(|k| k.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), ALL_MESSAGE_KINDS.len());
    }
}
