//! A Concurrency-Service-style lock API over the cluster runtime.
//!
//! The paper adopts the locking model of the OMG CORBA **Concurrency
//! Service** \[10\] — lock sets with five modes, `lock` / `try_lock` /
//! `unlock` / `change_mode` operations. This crate offers that surface on
//! top of [`dlm_cluster`], plus idiomatic Rust additions (RAII guards,
//! closure helpers).
//!
//! Deviations from the OMG spec, all inherited from the paper's model:
//!
//! * one held mode per node per lock set (the protocol's single-holder
//!   model); recursive/multi-mode holds are not supported,
//! * `change_mode` is atomic only for the U→W upgrade (Rule 7); any other
//!   transition releases and re-acquires, and may therefore observe an
//!   intervening holder.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use dlm_cluster::{ClusterError, NodeHandle};
use dlm_core::{LockId, Mode};

/// A named set of locks (one protocol instance per member), bound to one
/// cluster node.
///
/// Mirrors `CosConcurrency::LockSet`: the same lock object, reached from
/// different nodes' `LockSet`s, arbitrates between them.
///
/// ```
/// use dlm_api::LockSet;
/// use dlm_cluster::{Cluster, ClusterConfig};
/// use dlm_core::{LockId, Mode};
///
/// let cluster = Cluster::new(ClusterConfig { nodes: 2, ..Default::default() });
/// let here = LockSet::new(cluster.handle(0), LockId::TABLE);
/// let there = LockSet::new(cluster.handle(1), LockId::TABLE);
///
/// // RAII guard on node 0 …
/// let guard = here.guard(Mode::Read).unwrap();
/// // … shared Read is still available to node 1 (compatible modes).
/// there.lock(Mode::Read).unwrap();
/// there.unlock().unwrap();
/// drop(guard);
/// cluster.shutdown();
/// ```
#[derive(Clone)]
pub struct LockSet {
    handle: NodeHandle,
    lock: LockId,
}

impl LockSet {
    /// Bind the lock object `lock` on the node behind `handle`.
    pub fn new(handle: NodeHandle, lock: LockId) -> Self {
        LockSet { handle, lock }
    }

    /// The lock object this set drives.
    pub fn lock_id(&self) -> LockId {
        self.lock
    }

    /// Acquire in `mode`, blocking until granted (OMG `lock`).
    pub fn lock(&self, mode: Mode) -> Result<(), ClusterError> {
        self.handle.acquire(self.lock, mode)
    }

    /// Non-blocking acquire (OMG `try_lock`): succeeds only if this node can
    /// admit the mode locally without any message exchange. Conservative: a
    /// `false` means "not free right now from here", not "held elsewhere".
    pub fn try_lock(&self, mode: Mode) -> Result<bool, ClusterError> {
        self.handle.try_acquire(self.lock, mode)
    }

    /// Release the held mode (OMG `unlock`).
    pub fn unlock(&self) -> Result<(), ClusterError> {
        self.handle.release(self.lock)
    }

    /// Change the held mode (OMG `change_mode`).
    ///
    /// `U → W` uses the protocol's atomic Rule 7 upgrade (no intervening
    /// holder possible). Every other transition is release-then-acquire and
    /// is documented as non-atomic.
    pub fn change_mode(&self, held: Mode, new: Mode) -> Result<(), ClusterError> {
        if held == Mode::Upgrade && new == Mode::Write {
            return self.handle.upgrade(self.lock);
        }
        self.handle.release(self.lock)?;
        self.handle.acquire(self.lock, new)
    }

    /// Acquire in `mode` and return an RAII guard that unlocks on drop.
    pub fn guard(&self, mode: Mode) -> Result<LockGuard<'_>, ClusterError> {
        self.lock(mode)?;
        Ok(LockGuard {
            set: self,
            mode,
            armed: true,
        })
    }

    /// Run `f` while holding `mode` (lock/unlock around the closure).
    pub fn with<R>(&self, mode: Mode, f: impl FnOnce() -> R) -> Result<R, ClusterError> {
        let _guard = self.guard(mode)?;
        Ok(f())
    }

    /// Read-modify-write helper exercising the full upgrade pattern:
    /// `read` runs under `U`, then the lock is atomically upgraded to `W`
    /// and `write` runs with the value `read` produced — the exact
    /// read-then-dependent-write consistency scenario upgrade locks exist
    /// for (§3.4).
    pub fn read_then_write<T, R>(
        &self,
        read: impl FnOnce() -> T,
        write: impl FnOnce(T) -> R,
    ) -> Result<R, ClusterError> {
        self.lock(Mode::Upgrade)?;
        let value = read();
        if let Err(e) = self.handle.upgrade(self.lock) {
            let _ = self.unlock();
            return Err(e);
        }
        let result = write(value);
        self.unlock()?;
        Ok(result)
    }
}

/// RAII guard returned by [`LockSet::guard`]; releases the lock on drop.
pub struct LockGuard<'a> {
    set: &'a LockSet,
    mode: Mode,
    armed: bool,
}

impl LockGuard<'_> {
    /// The mode this guard holds.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// Release explicitly (instead of on drop), surfacing any error.
    pub fn release(mut self) -> Result<(), ClusterError> {
        self.armed = false;
        self.set.unlock()
    }
}

impl Drop for LockGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            // Drop cannot report errors; a shut-down cluster is acceptable.
            let _ = self.set.unlock();
        }
    }
}
