//! **dlm** — a peer-to-peer, multi-mode, hierarchical distributed lock
//! manager: a full reproduction of Desai & Mueller, *A Log(n) Multi-Mode
//! Locking Protocol for Distributed Systems* (IPPS 2003).
//!
//! This façade crate re-exports the workspace members; see each for depth:
//!
//! * [`modes`] — the five CosConcurrency access modes and the protocol's
//!   rule tables (Table 1(a)–(d)),
//! * [`core`] — the sans-IO protocol state machine (Rules 2–7), its
//!   invariant auditor and a deterministic lock-step test runtime,
//! * [`naimi`] — the Naimi–Trehel baseline the paper compares against,
//! * [`sim`] — a deterministic discrete-event simulator (the stand-in for
//!   the paper's Linux-cluster and IBM-SP testbeds),
//! * [`cluster`] — a thread-per-node runtime with a binary wire codec,
//! * [`api`] — a CosConcurrency-style `LockSet` facade with RAII guards,
//! * [`workload`] — the multi-airline-reservation workload of §4,
//! * [`metrics`] — latency histograms and labelled counter sets,
//! * [`harness`] — regenerates every figure of the paper's evaluation.
//!
//! # Quickstart
//!
//! ```
//! use dlm::core::testkit::LockStepNet;
//! use dlm::core::Mode;
//!
//! // Three nodes; node 0 starts with the token.
//! let mut net = LockStepNet::star(3);
//! // Two concurrent readers: both granted (R is compatible with R).
//! net.acquire(1, Mode::Read);
//! net.acquire(2, Mode::Read);
//! net.deliver_all();
//! assert_eq!(net.node(1).held(), Mode::Read);
//! assert_eq!(net.node(2).held(), Mode::Read);
//! // A writer has to wait for both.
//! net.acquire(0, Mode::Write);
//! net.deliver_all();
//! assert_eq!(net.node(0).held(), Mode::NoLock);
//! net.release(1);
//! net.release(2);
//! net.settle();
//! assert_eq!(net.node(0).held(), Mode::Write);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use dlm_api as api;
pub use dlm_cluster as cluster;
pub use dlm_core as core;
pub use dlm_harness as harness;
pub use dlm_metrics as metrics;
pub use dlm_modes as modes;
pub use dlm_naimi as naimi;
pub use dlm_sim as sim;
pub use dlm_workload as workload;
