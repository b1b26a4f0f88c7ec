//! A sharded, channel-connected **in-process cluster** running the
//! hierarchical locking protocol — the "real concurrency" counterpart to the
//! deterministic simulator in `dlm-sim`, standing in for the paper's
//! TCP/MPI testbeds.
//!
//! * every node runs one worker thread per [`shard`] (default one), each
//!   owning the [`dlm_core::HierNode`]s of the locks hashing to it —
//!   created lazily, so a node can host millions of mostly-idle locks,
//! * links are perfect channels or a router with constant latency and
//!   seeded fault injection ([`TransportKind`]); every protocol message is
//!   round-tripped through the compact binary [`codec`] (so the wire format
//!   is exercised, not just in-memory moves),
//! * an optional reliability shim ([`ReliableConfig`]) rebuilds the FIFO
//!   reliable links the protocol assumes on top of a lossy transport:
//!   per-link sequence numbers, cumulative acks, retransmission with capped
//!   exponential backoff from a floor the transport picks, and
//!   receive-side dedup/reorder buffering,
//! * protocol frames sharing a destination within one worker batch are
//!   coalesced into a single container wire frame
//!   ([`codec::encode_container_into`]) — one transport handoff, one
//!   reliability sequence number per batch per link,
//! * applications drive nodes through cloneable blocking [`NodeHandle`]s
//!   (`acquire` / `release` / `upgrade`) or the batched [`Pipeline`]
//!   (`submit_*` / [`Completion`]s), both guarded per shard by a bounded
//!   admission gate that sheds overload as [`ClusterError::Overloaded`],
//! * every layer — shard engines, the fault router, the socket transport —
//!   reports its per-link counters into one table, [`LinkReport`], summed
//!   per directed link at shutdown.
//!
//! The runtime exists to demonstrate the protocol under true parallelism
//! (`cargo run --example cluster_demo`), to cross-validate the simulator
//! (same state machines, byte-identical rules, different scheduler), and —
//! with [`TransportKind::Faulty`] — to show the protocol surviving an
//! adversarial network that drops, duplicates, and reorders frames.
//!
//! Beyond the in-process cluster, [`Node`] puts the same shard engine and
//! member runtime on a real wire: one cluster member per process over TCP
//! or UDP loopback/LAN sockets ([`SocketConfig`]; the paper's actual
//! experimental setup), with the `dlm-node` binary and harness driver in
//! `dlm-harness` spawning and measuring multi-process clusters end to end.
//! A member that shuts down cleanly says goodbye on each TCP connection, so
//! a counted connection reset means a crash or a broken connection, never a
//! clean shutdown.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
mod engine;
mod handle;
mod member;
mod node;
mod reliable;
mod runtime;
pub mod shard;
mod socket;
mod transport;

pub use handle::{ClusterError, Completion, NodeHandle, Pipeline};
pub use node::{
    audit_process_states, audit_surviving_states, await_quiescence, Node, NodeConfig, NodeReport,
};
pub use reliable::ReliableConfig;
pub use runtime::{plan_recovery, Cluster, ClusterConfig, ClusterReport, LinkReport, ScanReport};
pub use socket::{SocketConfig, SocketMode};
pub use transport::{FaultConfig, TransportKind, TRANSPORT_LOCK};

pub use dlm_core::{LockId, Mode, NodeId};
pub use dlm_trace::TraceRecord;
