//! The peer-to-peer multi-mode hierarchical locking protocol of Desai &
//! Mueller, *A Log(n) Multi-Mode Locking Protocol for Distributed Systems*
//! (IPPS 2003), as a **sans-IO state machine**.
//!
//! Each participating node runs one [`HierNode`] per lock object. The state
//! machine has no clock and performs no IO: every entry point
//! ([`HierNode::on_acquire_into`], [`HierNode::on_upgrade_into`],
//! [`HierNode::on_release_into`], [`HierNode::on_message_into`]) pushes
//! [`Effect`]s — messages to send and local grant notifications — into a
//! caller-owned, reusable [`EffectBuf`], which the caller (the discrete-event
//! simulator in `dlm-sim`, or the threaded cluster runtime in `dlm-cluster`)
//! drains and executes. This makes the protocol deterministic, directly
//! unit-testable, byte-identical across substrates, and allocation-free per
//! step in steady state.
//!
//! # Protocol recap
//!
//! * A single **token** per lock represents ultimate authority; the token node
//!   *owns* the strongest mode held anywhere in the tree (Definition 3).
//! * Nodes form a tree via **parent** links. Requests climb the tree until a
//!   node can grant them (Rule 3), queueing or forwarding along the way per
//!   Table 1(c) (Rule 4).
//! * Compatible requests are served **concurrently**: any node whose owned
//!   mode dominates and is compatible with a request may answer it with a
//!   copy-grant, recording the requester in its **copyset** (Rule 3.1).
//! * A request *stronger* than the token's owned mode moves the token itself;
//!   the old token node becomes a child of the new one (Rule 3.2).
//! * Releases propagate **only when a node's owned mode weakens** (Rule 5.2),
//!   so one message per subtree suffices irrespective of fan-out.
//! * **Freezing** (Rule 6, Table 1(d)) stops compatible latecomers from
//!   starving a queued incompatible request, preserving FIFO order.
//! * **Upgrade** locks (`U`) convert to `W` atomically without releasing
//!   (Rule 7), making read-modify-write deadlock free.
//!
//! # Where the paper is silent
//!
//! The paper specifies rules plus worked examples; a complete implementation
//! needs a handful of operational decisions. They are catalogued in
//! `DESIGN.md` §3 and documented at each code site; the paper's Figures 2–6
//! are replayed step-by-step in this crate's tests to pin the semantics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod effect;
mod error;
mod fingerprint;
mod flatmap;
mod ids;
mod invariants;
mod message;
mod node;
pub mod testkit;

pub use config::{Ablation, ProtocolConfig, ALL_ABLATIONS};
pub use effect::{Effect, EffectBuf};
pub use error::{AcquireError, ReleaseError, UpgradeError};
pub use fingerprint::{Fingerprint, Fingerprintable, FpHasher};
pub use flatmap::{CopySet, FlatMap, MAP_INLINE};
pub use ids::{LockId, NodeId};
pub use invariants::{audit, fifo_overtakes, frozen_residue, AuditError, GrantInfo, InFlight};
pub use message::{Message, MessageKind, QueuedRequest, ALL_MESSAGE_KINDS};
pub use node::HierNode;

pub use dlm_modes::{Mode, ModeSet};

pub use dlm_trace::{NullObserver, Observer, ProtocolEvent};
