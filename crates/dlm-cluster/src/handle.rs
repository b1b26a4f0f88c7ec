//! Application-side handles: blocking per-node handles and the pipelined
//! batch interface.
//!
//! Both route every operation to the shard worker owning its lock
//! ([`crate::shard::shard_of`]) and reserve a slot on that shard's
//! admission gate first — a full shard refuses with
//! [`ClusterError::Overloaded`] instead of queueing without bound. Both
//! reach the worker the same way: a blocking call is an [`Input::Ops`]
//! chunk of one on its own completion channel, waited for at once.

use crate::engine::Input;
use crate::shard::{shard_of, ShardGate};
use crossbeam::channel::{bounded, unbounded, Receiver, Sender, TryRecvError};
use dlm_core::{AcquireError, LockId, Mode, NodeId, ReleaseError, UpgradeError};
use std::sync::Arc;

/// Application-visible failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// Acquire misuse (double acquire, NoLock request, …).
    Acquire(AcquireError),
    /// Upgrade misuse (not holding U, …).
    Upgrade(UpgradeError),
    /// Release misuse (not holding).
    Release(ReleaseError),
    /// The lock already has an outstanding `acquire`/`upgrade` on this node
    /// (the protocol's single-pending model); retry after it completes.
    /// Operations on *other* locks are unaffected.
    Busy,
    /// The lock's shard worker has a full ingress queue
    /// ([`crate::ClusterConfig::shard_queue`]); the operation was shed
    /// before it was queued — retry after draining some completions.
    Overloaded,
    /// The node thread is gone (cluster shut down).
    Disconnected,
    /// The lock's worker died mid-operation — its node crashed (or the
    /// worker thread panicked) while this operation was queued or waiting.
    /// The failure detector ([`crate::Cluster::suspects`]) will flag the
    /// node; the operation can be retried on a survivor after recovery.
    WorkerDied,
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::Acquire(e) => write!(f, "acquire: {e}"),
            ClusterError::Upgrade(e) => write!(f, "upgrade: {e}"),
            ClusterError::Release(e) => write!(f, "release: {e}"),
            ClusterError::Busy => {
                write!(f, "lock already has an outstanding operation on this node")
            }
            ClusterError::Overloaded => {
                write!(f, "shard ingress queue is full; operation shed")
            }
            ClusterError::Disconnected => write!(f, "cluster is shut down"),
            ClusterError::WorkerDied => {
                write!(f, "the lock's worker died (node crash or worker panic)")
            }
        }
    }
}

impl std::error::Error for ClusterError {}

/// The finished outcome of one pipelined operation, correlated back to its
/// submission by `(lock, tag)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Completion {
    /// The lock the operation targeted.
    pub lock: LockId,
    /// The caller-chosen tag passed at submission.
    pub tag: u64,
    /// The operation's outcome.
    pub result: Result<(), ClusterError>,
}

/// What an operation does to its lock.
#[derive(Debug, Clone, Copy)]
pub(crate) enum OpKind {
    Acquire(Mode),
    /// Acquire only if that is possible locally without waiting, else
    /// answer [`ClusterError::Busy`]. Only [`NodeHandle::try_acquire`]
    /// submits it, and reads the outcome as granted-or-not.
    TryAcquire(Mode),
    Upgrade,
    Release,
}

/// One operation inside an [`Input::Ops`] batch.
pub(crate) struct PipeOp {
    pub(crate) lock: LockId,
    pub(crate) kind: OpKind,
    pub(crate) tag: u64,
}

/// A cloneable, blocking handle to one cluster node.
///
/// All operations are forwarded to the shard worker owning the lock;
/// `acquire` and `upgrade` block until the protocol grants. A node supports
/// one outstanding operation per lock (the protocol's single-pending
/// model); concurrent misuse surfaces as [`ClusterError`].
#[derive(Clone)]
pub struct NodeHandle {
    node: NodeId,
    /// One input channel and admission gate per shard worker of this node.
    txs: Vec<Sender<Input>>,
    gates: Vec<Arc<ShardGate>>,
}

impl NodeHandle {
    pub(crate) fn new(node: NodeId, txs: Vec<Sender<Input>>, gates: Vec<Arc<ShardGate>>) -> Self {
        debug_assert_eq!(txs.len(), gates.len());
        debug_assert!(txs.len().is_power_of_two());
        NodeHandle { node, txs, gates }
    }

    /// The node this handle drives.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The shard worker owning `lock` on this node.
    fn shard(&self, lock: LockId) -> usize {
        shard_of(lock, self.txs.len())
    }

    /// Admit one operation on `lock` to its shard worker as a chunk of one
    /// and block for its outcome. The outer error is the call's own: the
    /// gate shed it, or the worker is gone.
    fn call(&self, lock: LockId, kind: OpKind) -> Result<Result<(), ClusterError>, ClusterError> {
        let shard = self.shard(lock);
        if !self.gates[shard].try_admit(1) {
            return Err(ClusterError::Overloaded);
        }
        // One op, one completion: the worker answers in one send.
        let (tx, rx) = bounded(1);
        let ops = vec![PipeOp { lock, kind, tag: 0 }];
        self.txs[shard]
            .send(Input::Ops { ops, tx })
            .map_err(|_| ClusterError::Disconnected)?;
        let mut done = rx.recv().map_err(|_| ClusterError::Disconnected)?;
        Ok(done.pop().expect("a chunk of one").result)
    }

    /// Acquire `lock` in `mode`; blocks until granted.
    pub fn acquire(&self, lock: LockId, mode: Mode) -> Result<(), ClusterError> {
        self.call(lock, OpKind::Acquire(mode))?
    }

    /// Acquire `lock` in `mode` only if this node can admit it locally with
    /// zero messages (the conservative CosConcurrency `try_lock` semantic);
    /// returns whether the lock was taken.
    pub fn try_acquire(&self, lock: LockId, mode: Mode) -> Result<bool, ClusterError> {
        self.call(lock, OpKind::TryAcquire(mode))
            .map(|result| result.is_ok())
    }

    /// Atomically upgrade a held `U` lock to `W`; blocks until complete.
    pub fn upgrade(&self, lock: LockId) -> Result<(), ClusterError> {
        self.call(lock, OpKind::Upgrade)?
    }

    /// Release `lock`.
    pub fn release(&self, lock: LockId) -> Result<(), ClusterError> {
        self.call(lock, OpKind::Release)?
    }

    /// A pipelined interface to this node: submit many operations without
    /// blocking per call, then drain [`Completion`]s.
    pub fn pipeline(&self) -> Pipeline {
        let (comp_tx, comp_rx) = unbounded();
        Pipeline {
            txs: self.txs.clone(),
            gates: self.gates.clone(),
            comp_tx,
            comp_rx,
            ready: std::collections::VecDeque::new(),
            bufs: (0..self.txs.len()).map(|_| Vec::new()).collect(),
            buffered: 0,
            outstanding: 0,
        }
    }
}

/// Submit a shard's buffered operations once this many have accumulated
/// (one channel hop then carries the whole batch).
const PIPELINE_CHUNK: usize = 256;

/// A pipelined, single-threaded client to one node: operations are
/// buffered per shard, shipped in batches of `PIPELINE_CHUNK` (256; one
/// channel handoff per batch instead of two per operation), and complete
/// asynchronously on a shared stream.
///
/// The protocol's single-pending rule still applies per lock — submitting
/// an operation for a lock whose previous operation has not completed yet
/// yields a [`ClusterError::Busy`] completion — but operations on distinct
/// locks overlap freely, which is what the pipeline is for.
///
/// Dropping a pipeline with operations still in flight is safe: their
/// completions count into the cluster's `replies_dropped` tally, a grant
/// that arrives for it is released at once (`grants_abandoned`), so no lock
/// stays wedged behind it, and operations it never shipped give their
/// admission slots back.
pub struct Pipeline {
    txs: Vec<Sender<Input>>,
    gates: Vec<Arc<ShardGate>>,
    comp_tx: Sender<Vec<Completion>>,
    comp_rx: Receiver<Vec<Completion>>,
    /// Completions received from the stream but not yet handed to the
    /// caller (workers answer what a chunk settles in its own step as one
    /// vector).
    ready: std::collections::VecDeque<Completion>,
    /// Not-yet-shipped operations, per shard.
    bufs: Vec<Vec<PipeOp>>,
    /// Operations sitting in `bufs`.
    buffered: usize,
    /// Operations submitted (shipped or buffered) without a drained
    /// completion yet.
    outstanding: usize,
}

impl Pipeline {
    fn submit(&mut self, lock: LockId, kind: OpKind, tag: u64) -> Result<(), ClusterError> {
        let shard = shard_of(lock, self.txs.len());
        // Reserve the worker-queue slot at submission, while the op is
        // still buffered client-side: the gate bounds *admitted* work, and
        // shedding here keeps a fast submitter from outrunning its shard.
        if !self.gates[shard].try_admit(1) {
            return Err(ClusterError::Overloaded);
        }
        self.bufs[shard].push(PipeOp { lock, kind, tag });
        self.buffered += 1;
        self.outstanding += 1;
        if self.bufs[shard].len() >= PIPELINE_CHUNK {
            self.ship(shard)?;
        }
        Ok(())
    }

    /// Submit an acquire of `lock` in `mode`; its [`Completion`] carries
    /// `tag` back.
    pub fn submit_acquire(
        &mut self,
        lock: LockId,
        mode: Mode,
        tag: u64,
    ) -> Result<(), ClusterError> {
        self.submit(lock, OpKind::Acquire(mode), tag)
    }

    /// Submit a Rule 7 upgrade of `lock`.
    pub fn submit_upgrade(&mut self, lock: LockId, tag: u64) -> Result<(), ClusterError> {
        self.submit(lock, OpKind::Upgrade, tag)
    }

    /// Submit a release of `lock`.
    pub fn submit_release(&mut self, lock: LockId, tag: u64) -> Result<(), ClusterError> {
        self.submit(lock, OpKind::Release, tag)
    }

    fn ship(&mut self, shard: usize) -> Result<(), ClusterError> {
        // Hand the worker a full-capacity buffer and leave one behind, so a
        // steady stream of chunks never regrows the shard buffer from zero.
        let ops = std::mem::replace(&mut self.bufs[shard], Vec::with_capacity(PIPELINE_CHUNK));
        self.buffered -= ops.len();
        self.txs[shard]
            .send(Input::Ops {
                ops,
                tx: self.comp_tx.clone(),
            })
            .map_err(|_| ClusterError::Disconnected)
    }

    /// Ship every buffered operation now, regardless of batch size.
    pub fn flush(&mut self) -> Result<(), ClusterError> {
        for shard in 0..self.bufs.len() {
            if !self.bufs[shard].is_empty() {
                self.ship(shard)?;
            }
        }
        Ok(())
    }

    /// Operations submitted whose completion has not been drained yet.
    pub fn outstanding(&self) -> usize {
        self.outstanding
    }

    /// Block for the next completion. If every outstanding operation is
    /// still buffered client-side, the buffers are shipped first — the wait
    /// never deadlocks on work this pipeline is holding, but neither does
    /// it break batching by force-flushing while shipped operations are
    /// already due to complete.
    pub fn recv(&mut self) -> Result<Completion, ClusterError> {
        if self.outstanding == 0 {
            return Err(ClusterError::Disconnected);
        }
        if self.buffered == self.outstanding {
            self.flush()?;
        }
        while self.ready.is_empty() {
            let batch = self
                .comp_rx
                .recv()
                .map_err(|_| ClusterError::Disconnected)?;
            self.ready.extend(batch);
        }
        self.outstanding -= 1;
        Ok(self.ready.pop_front().expect("non-empty ready queue"))
    }

    /// Drain one completion if one is ready.
    pub fn try_recv(&mut self) -> Option<Completion> {
        while self.ready.is_empty() {
            match self.comp_rx.try_recv() {
                Ok(batch) => self.ready.extend(batch),
                Err(TryRecvError::Empty | TryRecvError::Disconnected) => return None,
            }
        }
        self.outstanding -= 1;
        self.ready.pop_front()
    }
}

impl Drop for Pipeline {
    /// Every buffered operation reserved a gate slot at submission that only
    /// the worker dequeuing it would release; an unshipped one never gets
    /// there, so its slot is returned here.
    fn drop(&mut self) {
        for (gate, buf) in self.gates.iter().zip(&self.bufs) {
            gate.leave(buf.len());
        }
    }
}
