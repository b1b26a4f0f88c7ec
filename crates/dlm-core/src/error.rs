//! Errors for misuse of the per-node lock API.
//!
//! The protocol models one application instance per node per lock (as in the
//! paper's experiments): a node has at most one held mode and at most one
//! pending request. Violations are programming errors surfaced as typed
//! errors rather than protocol messages.

use core::fmt;
use dlm_modes::Mode;

/// Why `HierNode::on_acquire_into` refused to start a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AcquireError {
    /// The node already holds the lock. Acquiring a second mode on the same
    /// lock from the same node would self-deadlock whenever the modes
    /// conflict; the protocol's answer to read-then-write is the `U` mode
    /// plus `on_upgrade_into` (Rule 7).
    AlreadyHeld(Mode),
    /// A request is already outstanding; a node has one pending slot.
    AlreadyPending(Mode),
    /// `NoLock` cannot be requested; use `on_release_into`.
    NoLockRequested,
}

impl fmt::Display for AcquireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AcquireError::AlreadyHeld(m) => {
                write!(f, "lock already held in mode {m}; release or upgrade first")
            }
            AcquireError::AlreadyPending(m) => {
                write!(f, "a request for mode {m} is already pending")
            }
            AcquireError::NoLockRequested => write!(f, "cannot request the NoLock mode"),
        }
    }
}

impl std::error::Error for AcquireError {}

/// Why `HierNode::on_upgrade_into` refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpgradeError {
    /// Rule 7 upgrades are only defined from a held `U` lock.
    NotHoldingUpgradeLock(Mode),
    /// A request is already outstanding.
    AlreadyPending(Mode),
}

impl fmt::Display for UpgradeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UpgradeError::NotHoldingUpgradeLock(m) => {
                write!(f, "upgrade requires a held U lock (currently holding {m})")
            }
            UpgradeError::AlreadyPending(m) => {
                write!(f, "a request for mode {m} is already pending")
            }
        }
    }
}

impl std::error::Error for UpgradeError {}

/// Why `HierNode::on_release_into` refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReleaseError {
    /// Nothing is held.
    NotHeld,
    /// A Rule 7 upgrade is in flight; the `U` lock must not be released until
    /// the upgrade completes (that non-release is what makes upgrades atomic).
    UpgradePending,
}

impl fmt::Display for ReleaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReleaseError::NotHeld => write!(f, "release without a held lock"),
            ReleaseError::UpgradePending => {
                write!(f, "cannot release U while an upgrade to W is pending")
            }
        }
    }
}

impl std::error::Error for ReleaseError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_useful_messages() {
        assert!(AcquireError::AlreadyHeld(Mode::Read)
            .to_string()
            .contains("already held in mode R"));
        assert!(AcquireError::AlreadyPending(Mode::Write)
            .to_string()
            .contains("pending"));
        assert!(AcquireError::NoLockRequested.to_string().contains("NoLock"));
        assert!(UpgradeError::NotHoldingUpgradeLock(Mode::Read)
            .to_string()
            .contains("held U lock"));
        assert!(UpgradeError::AlreadyPending(Mode::Write)
            .to_string()
            .contains("pending"));
        assert!(ReleaseError::NotHeld.to_string().contains("without"));
    }
}
