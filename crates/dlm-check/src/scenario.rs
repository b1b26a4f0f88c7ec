//! Scenario descriptions: an initial tree plus one script per node.

use dlm_core::{HierNode, NodeId, ProtocolConfig};
use dlm_modes::Mode;

/// One scripted application action at a node.
///
/// The short variants (`Acquire`/`Release`/`Upgrade`) act on lock 0 — the
/// common single-lock case reads exactly as before. The `*On` variants name
/// an explicit lock object, letting one node's script interleave operations
/// on several locks (hold-and-wait orderings, multi-lock transactions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Op {
    /// Acquire lock 0 in a mode (enabled when idle on lock 0).
    Acquire(Mode),
    /// Release the held lock 0 (enabled while holding, not mid-upgrade).
    Release,
    /// Rule 7 upgrade on lock 0 (enabled while holding `U`).
    Upgrade,
    /// Acquire the named lock in a mode.
    AcquireOn(u32, Mode),
    /// Release the named lock.
    ReleaseOn(u32),
    /// Rule 7 upgrade on the named lock.
    UpgradeOn(u32),
    /// This node crashes: its inbound frames are dropped, its outbound
    /// frames stay in flight (stamped with the old epoch, to be fenced),
    /// and the surviving nodes atomically run the DESIGN.md §17 view change
    /// on **every** lock object — epoch bump, tree flatten, token
    /// regeneration when the token died with this node. Enabled while at
    /// least one other node is still alive. Ops after `Crash` in the same
    /// script never run.
    Crash,
}

/// The lock-independent body of an [`Op`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum OpKind {
    Acquire(Mode),
    Release,
    Upgrade,
    Crash,
}

impl Op {
    /// The lock object this op acts on.
    pub fn lock(&self) -> u32 {
        match *self {
            Op::Acquire(_) | Op::Release | Op::Upgrade | Op::Crash => 0,
            Op::AcquireOn(l, _) | Op::ReleaseOn(l) | Op::UpgradeOn(l) => l,
        }
    }

    /// Split into (lock, kind). A `Crash` spans every lock; its nominal
    /// lock is 0.
    pub(crate) fn parts(&self) -> (u32, OpKind) {
        match *self {
            Op::Acquire(m) => (0, OpKind::Acquire(m)),
            Op::Release => (0, OpKind::Release),
            Op::Upgrade => (0, OpKind::Upgrade),
            Op::Crash => (0, OpKind::Crash),
            Op::AcquireOn(l, m) => (l, OpKind::Acquire(m)),
            Op::ReleaseOn(l) => (l, OpKind::Release),
            Op::UpgradeOn(l) => (l, OpKind::Upgrade),
        }
    }
}

impl std::fmt::Display for Op {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (lock, kind) = self.parts();
        match kind {
            OpKind::Acquire(m) => write!(f, "acquire({m})")?,
            OpKind::Release => write!(f, "release")?,
            OpKind::Upgrade => write!(f, "upgrade")?,
            OpKind::Crash => return write!(f, "crash"),
        }
        if lock != 0 {
            write!(f, "@L{lock}")?;
        }
        Ok(())
    }
}

/// A scenario: an initial tree, one script per node, and the number of
/// independent lock objects the scripts act on.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// `parents[i]` is node `i`'s initial parent; exactly one `None` (root).
    /// Every lock object starts with the same probable-owner tree.
    pub parents: Vec<Option<u32>>,
    /// Per-node operation scripts, executed in order as they become enabled.
    pub scripts: Vec<Vec<Op>>,
    /// Protocol configuration.
    pub config: ProtocolConfig,
    /// Number of independent lock objects (each is a full protocol instance
    /// over the same initial tree; messages of different locks travel on
    /// independent per-lock channels).
    pub locks: u32,
}

impl Scenario {
    /// A star of `n` nodes rooted at node 0 with the given scripts.
    pub fn star(n: usize, scripts: Vec<Vec<Op>>, config: ProtocolConfig) -> Self {
        assert_eq!(scripts.len(), n);
        let mut parents = vec![None];
        parents.extend((1..n).map(|_| Some(0)));
        Scenario {
            parents,
            scripts,
            config,
            locks: 1,
        }
        .fit_locks()
    }

    /// A chain `0 ← 1 ← 2 ← …` (node 0 is the root); requests from the tail
    /// traverse every intermediate node, exercising forwarding, queueing and
    /// transitive freezing.
    pub fn chain(n: usize, scripts: Vec<Vec<Op>>, config: ProtocolConfig) -> Self {
        assert_eq!(scripts.len(), n);
        let mut parents = vec![None];
        parents.extend((1..n).map(|i| Some(i as u32 - 1)));
        Scenario {
            parents,
            scripts,
            config,
            locks: 1,
        }
        .fit_locks()
    }

    /// A complete binary tree rooted at node 0 (`parents[i] = (i-1)/2`):
    /// the balanced log(n) topology the paper's message-count argument
    /// assumes.
    pub fn binary_tree(n: usize, scripts: Vec<Vec<Op>>, config: ProtocolConfig) -> Self {
        assert_eq!(scripts.len(), n);
        let parents = (0..n)
            .map(|i| {
                if i == 0 {
                    None
                } else {
                    Some((i as u32 - 1) / 2)
                }
            })
            .collect();
        Scenario {
            parents,
            scripts,
            config,
            locks: 1,
        }
        .fit_locks()
    }

    /// Widen `locks` to cover every lock the scripts mention (so `AcquireOn`
    /// ops never index out of bounds).
    fn fit_locks(mut self) -> Self {
        let needed = self
            .scripts
            .iter()
            .flatten()
            .map(|op| op.lock() + 1)
            .max()
            .unwrap_or(1);
        self.locks = self.locks.max(needed);
        self
    }

    /// This scenario with (at least) `locks` lock objects.
    pub fn with_locks(mut self, locks: u32) -> Self {
        self.locks = self.locks.max(locks.max(1));
        self
    }

    /// The initial node states of one lock object (the root holds the
    /// token). Every lock starts from an identical tree.
    pub fn initial_nodes(&self) -> Vec<HierNode> {
        self.parents
            .iter()
            .enumerate()
            .map(|(i, p)| match p {
                None => HierNode::with_token(NodeId(i as u32), self.config),
                Some(parent) => HierNode::new(NodeId(i as u32), NodeId(*parent), self.config),
            })
            .collect()
    }
}
