//! The Naimi–Trehel–Arnold token-based distributed mutual-exclusion
//! algorithm (*A log(N) distributed mutual exclusion algorithm based on path
//! reversal*, JPDC 1996) — the baseline the paper compares against in §2/§4.
//!
//! Two dynamically maintained structures:
//!
//! * a **probable-owner tree**: each node points toward the node it believes
//!   last asked for the token; requests climb these links and every hop
//!   *reverses the path* (points itself at the new requester), which keeps
//!   the tree shallow and yields the O(log n) average message bound;
//! * a **distributed FIFO queue** of waiting requesters threaded through
//!   `next` pointers, starting at the current token holder.
//!
//! Unlike the hierarchical protocol in `dlm-core`, every lock acquisition is
//! exclusive — there are no modes, no concurrent grants, no hierarchy. The
//! sans-IO surface mirrors [`dlm_core::HierNode`] so the same runtimes can
//! drive both protocols.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use dlm_core::{EffectBuf, NodeId};
use serde::{Deserialize, Serialize};

/// A Naimi–Trehel protocol message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NaimiMessage {
    /// A request travelling along probable-owner links; `requester` is the
    /// originator (hops reverse their owner pointer to it).
    Request {
        /// The node asking for the token.
        requester: NodeId,
    },
    /// The token itself, granting entry to the critical section.
    Token,
}

/// Effects for the runtime, mirroring [`dlm_core::Effect`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NaimiEffect {
    /// Transmit `message` to `to`.
    Send {
        /// Destination node.
        to: NodeId,
        /// Payload.
        message: NaimiMessage,
    },
    /// The local application may enter its critical section.
    Granted,
}

/// API misuse errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NaimiError {
    /// Acquire while holding or waiting.
    Busy,
    /// Release without holding.
    NotHeld,
}

impl std::fmt::Display for NaimiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NaimiError::Busy => write!(f, "a request is already held or pending"),
            NaimiError::NotHeld => write!(f, "release without holding the token"),
        }
    }
}

impl std::error::Error for NaimiError {}

/// One node's Naimi–Trehel state for one lock object.
#[derive(Debug, Clone)]
pub struct NaimiNode {
    id: NodeId,
    /// Probable owner. `None` means "I am the (virtual) root": either I hold
    /// the token or I was the last requester and the token is on its way.
    owner: Option<NodeId>,
    /// The next requester to hand the token to after my critical section.
    next: Option<NodeId>,
    /// Token possession.
    has_token: bool,
    /// True between a request and the end of the critical section.
    requesting: bool,
    /// True while inside the critical section.
    in_cs: bool,
}

impl NaimiNode {
    /// A node whose probable owner is `owner` (the initial tree, typically a
    /// star around the initial token holder).
    pub fn new(id: NodeId, owner: NodeId) -> Self {
        NaimiNode {
            id,
            owner: Some(owner),
            next: None,
            has_token: false,
            requesting: false,
            in_cs: false,
        }
    }

    /// The initial token holder (root: no probable owner).
    pub fn with_token(id: NodeId) -> Self {
        NaimiNode {
            id,
            owner: None,
            next: None,
            has_token: true,
            requesting: false,
            in_cs: false,
        }
    }

    /// This node's identity.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// True while inside the critical section.
    pub fn in_cs(&self) -> bool {
        self.in_cs
    }

    /// True if a request is outstanding (not yet granted).
    pub fn waiting(&self) -> bool {
        self.requesting && !self.in_cs
    }

    /// Token possession (for audits).
    pub fn has_token(&self) -> bool {
        self.has_token
    }

    /// Probable-owner link (for audits / path-length studies).
    pub fn owner(&self) -> Option<NodeId> {
        self.owner
    }

    /// The queued successor, if any.
    pub fn next(&self) -> Option<NodeId> {
        self.next
    }

    /// Request the critical section.
    ///
    /// If this node is the idle root with the token, entry is immediate and
    /// message-free; otherwise one `Request` goes to the probable owner and
    /// this node becomes the new virtual root (`owner = None`).
    ///
    /// Effects go into the caller-owned reusable sink (mirrors
    /// `HierNode::on_acquire_into`, so the same runtimes can drive both
    /// protocols with one scratch buffer discipline).
    pub fn on_acquire_into(
        &mut self,
        effects: &mut EffectBuf<NaimiEffect>,
    ) -> Result<(), NaimiError> {
        if self.requesting || self.in_cs {
            return Err(NaimiError::Busy);
        }
        self.requesting = true;
        if self.has_token {
            debug_assert!(self.owner.is_none(), "token holder is the root");
            self.in_cs = true;
            effects.push(NaimiEffect::Granted);
            return Ok(());
        }
        let owner = self
            .owner
            .expect("a tokenless idle node always has a probable owner");
        self.owner = None;
        effects.push(NaimiEffect::Send {
            to: owner,
            message: NaimiMessage::Request { requester: self.id },
        });
        Ok(())
    }

    /// Leave the critical section; pass the token to the queued successor if
    /// one exists, keep it otherwise.
    pub fn on_release_into(
        &mut self,
        effects: &mut EffectBuf<NaimiEffect>,
    ) -> Result<(), NaimiError> {
        if !self.in_cs {
            return Err(NaimiError::NotHeld);
        }
        self.in_cs = false;
        self.requesting = false;
        if let Some(next) = self.next.take() {
            self.has_token = false;
            // The successor is about to be the token holder; our probable
            // owner already points at the latest requester via path reversal.
            effects.push(NaimiEffect::Send {
                to: next,
                message: NaimiMessage::Token,
            });
        }
        Ok(())
    }

    /// Handle a received message.
    pub fn on_message_into(
        &mut self,
        _from: NodeId,
        message: NaimiMessage,
        effects: &mut EffectBuf<NaimiEffect>,
    ) {
        match message {
            NaimiMessage::Request { requester } => self.handle_request(requester, effects),
            NaimiMessage::Token => self.handle_token(effects),
        }
    }

    fn handle_request(&mut self, requester: NodeId, effects: &mut EffectBuf<NaimiEffect>) {
        debug_assert_ne!(requester, self.id, "requests never loop back");
        match self.owner {
            None => {
                // We are the root: the requester is either queued behind us
                // (if we hold or await the token) or served right away (idle
                // token in hand).
                if self.requesting {
                    debug_assert!(self.next.is_none(), "root holds at most one next");
                    self.next = Some(requester);
                } else if self.has_token {
                    self.has_token = false;
                    effects.push(NaimiEffect::Send {
                        to: requester,
                        message: NaimiMessage::Token,
                    });
                } else {
                    // Root without token and without request: the token was
                    // just passed on; enqueue behind the departing token by
                    // pointing next at the requester is wrong — instead this
                    // state cannot receive requests because every passer
                    // immediately reversed owner to the new holder's chain.
                    // Keep the algorithm total anyway: forward to next hop is
                    // impossible (none), so queue locally as next.
                    debug_assert!(false, "request at tokenless idle root");
                    self.next = Some(requester);
                }
            }
            Some(owner) => {
                effects.push(NaimiEffect::Send {
                    to: owner,
                    message: NaimiMessage::Request { requester },
                });
            }
        }
        // Path reversal: whoever asked will soon be the most recent owner.
        self.owner = Some(requester);
    }

    fn handle_token(&mut self, effects: &mut EffectBuf<NaimiEffect>) {
        debug_assert!(self.requesting, "token arrives only on request");
        self.has_token = true;
        self.in_cs = true;
        effects.push(NaimiEffect::Granted);
    }
}

pub mod testkit;

#[cfg(test)]
mod tests {
    use super::*;

    /// What one `*_into` entry-point call pushes into a fresh sink.
    fn fx(call: impl FnOnce(&mut EffectBuf<NaimiEffect>)) -> Vec<NaimiEffect> {
        let mut buf = EffectBuf::new();
        call(&mut buf);
        buf.take_vec()
    }

    #[test]
    fn token_holder_enters_for_free() {
        let mut n = NaimiNode::with_token(NodeId(0));
        let eff = fx(|b| n.on_acquire_into(b).unwrap());
        assert_eq!(eff, vec![NaimiEffect::Granted]);
        assert!(n.in_cs());
        assert!(
            fx(|b| n.on_release_into(b).unwrap()).is_empty(),
            "keeps idle token"
        );
        assert!(n.has_token());
    }

    #[test]
    fn acquire_sends_request_and_becomes_root() {
        let mut n = NaimiNode::new(NodeId(1), NodeId(0));
        let eff = fx(|b| n.on_acquire_into(b).unwrap());
        assert_eq!(
            eff,
            vec![NaimiEffect::Send {
                to: NodeId(0),
                message: NaimiMessage::Request {
                    requester: NodeId(1)
                },
            }]
        );
        assert_eq!(n.owner(), None, "requester becomes the virtual root");
        assert!(n.waiting());
    }

    #[test]
    fn double_acquire_and_bad_release_error() {
        let mut n = NaimiNode::with_token(NodeId(0));
        fx(|b| n.on_acquire_into(b).unwrap());
        assert_eq!(
            n.on_acquire_into(&mut EffectBuf::new()),
            Err(NaimiError::Busy)
        );
        let mut m = NaimiNode::new(NodeId(1), NodeId(0));
        assert_eq!(
            m.on_release_into(&mut EffectBuf::new()),
            Err(NaimiError::NotHeld)
        );
    }

    #[test]
    fn idle_root_passes_token_and_reverses_path() {
        let mut root = NaimiNode::with_token(NodeId(0));
        let eff = fx(|b| {
            root.on_message_into(
                NodeId(1),
                NaimiMessage::Request {
                    requester: NodeId(1),
                },
                b,
            )
        });
        assert_eq!(
            eff,
            vec![NaimiEffect::Send {
                to: NodeId(1),
                message: NaimiMessage::Token,
            }]
        );
        assert!(!root.has_token());
        assert_eq!(root.owner(), Some(NodeId(1)), "path reversed to requester");
    }

    #[test]
    fn busy_root_queues_successor() {
        let mut root = NaimiNode::with_token(NodeId(0));
        fx(|b| root.on_acquire_into(b).unwrap()); // in CS
        let eff = fx(|b| {
            root.on_message_into(
                NodeId(2),
                NaimiMessage::Request {
                    requester: NodeId(2),
                },
                b,
            )
        });
        assert!(eff.is_empty());
        assert_eq!(root.next(), Some(NodeId(2)));
        // Release hands the token over.
        let eff = fx(|b| root.on_release_into(b).unwrap());
        assert_eq!(
            eff,
            vec![NaimiEffect::Send {
                to: NodeId(2),
                message: NaimiMessage::Token,
            }]
        );
    }

    #[test]
    fn intermediate_node_forwards_and_reverses() {
        let mut mid = NaimiNode::new(NodeId(1), NodeId(0));
        let eff = fx(|b| {
            mid.on_message_into(
                NodeId(2),
                NaimiMessage::Request {
                    requester: NodeId(2),
                },
                b,
            )
        });
        assert_eq!(
            eff,
            vec![NaimiEffect::Send {
                to: NodeId(0),
                message: NaimiMessage::Request {
                    requester: NodeId(2)
                },
            }]
        );
        assert_eq!(mid.owner(), Some(NodeId(2)));
    }
}
