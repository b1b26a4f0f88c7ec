//! One cluster member as its own process: the socket-backed node runtime.
//!
//! [`Cluster`](crate::Cluster) spawns every node of the system inside one
//! process; [`Node`] spawns exactly one member — its shard workers, its
//! input channels, and a [`SocketTransport`] that carries frames to the
//! other members over TCP or UDP. N `Node`s (in N processes, or several in
//! one process for tests and benches) form the same cluster the in-process
//! runtime simulates, on the identical member runtime ([`crate::member`]).
//!
//! What necessarily changes versus `Cluster`:
//!
//! * **Reliability is always on.** Frames in wire transit are invisible to
//!   this process's in-flight gauge (see the gauge discipline in
//!   [`crate::socket`]), so quiescence leans on the sender's unacked
//!   gauge — which only exists with the shim. `Node::new` therefore treats
//!   [`ClusterConfig::reliable`]`: None` as [`crate::ReliableConfig::auto`],
//!   and
//!   resolves auto to the socket (WAN) RTO floor.
//! * **Shutdown is local.** A `Node` can only report its own per-lock
//!   states; the global audit needs every member's. [`NodeReport::states`]
//!   carries them out (portably via
//!   [`HierNode::encode_state`](dlm_core::HierNode::encode_state) for the
//!   multi-process harness), and [`audit_process_states`] reassembles and
//!   audits a full cluster's worth.
//!
//! Callers coordinate global quiescence themselves: poll every member's
//! [`Node::is_idle`] / [`Node::messages_sent`] until all are idle at once
//! and the message sum is stable, then shut all members down.

use crate::engine::{fresh_state, Input};
use crate::member::{self, Collected, Counters, Member};
use crate::reliable::TransportClass;
use crate::runtime::{ClusterConfig, LinkReport};
use crate::shard::effective_shards;
use crate::socket::{SocketConfig, SocketTransport};
use crate::transport::Transport;
use crate::NodeHandle;
use dlm_core::{audit, AuditError, HierNode, NodeId, ProtocolConfig};
use dlm_metrics::Histogram;
use dlm_trace::TraceRecord;
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Configuration of one socket-backed cluster member.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// The cluster-wide parameters — node count, locks, shards, protocol,
    /// reliability, tracing, coalescing. Every member must use identical
    /// values. [`ClusterConfig::transport`] is ignored (the wire is
    /// [`Self::socket`]); `reliable: None` means automatic (see module
    /// docs).
    pub cluster: ClusterConfig,
    /// This member's identity and the cluster's socket addresses.
    pub socket: SocketConfig,
}

/// Final report of one shut-down member. The fields mirror
/// [`crate::ClusterReport`] restricted to what a single process can know;
/// there is no local audit because auditing needs every member's states —
/// see [`audit_process_states`].
#[derive(Debug)]
pub struct NodeReport {
    /// Protocol messages this member transmitted.
    pub messages_sent: u64,
    /// This member's final per-lock protocol states (only locks it ever
    /// touched).
    pub states: Vec<(u32, HierNode)>,
    /// Frames that arrived but could not be decoded — payload-level
    /// failures counted by the workers plus wire-level reassembly failures
    /// counted by the socket transport.
    pub decode_errors: u64,
    /// Stale-generation frames fenced by epoch rule R3 (see
    /// [`crate::ClusterReport::frames_fenced`]).
    pub frames_fenced: u64,
    /// Worker threads that panicked instead of returning state at
    /// shutdown (see [`crate::ClusterReport::workers_died`]).
    pub workers_died: u64,
    /// Completion replies whose application-side receiver had gone away.
    pub replies_dropped: u64,
    /// Per-link reliability/coalescing/wire counters involving this member.
    pub links: Vec<LinkReport>,
    /// This member's merged structured event trace.
    pub trace: Vec<TraceRecord>,
    /// Events evicted from the flight recorders before shutdown.
    pub trace_dropped: u64,
    /// Issue-to-grant latency (µs) of this member's completed operations.
    pub acquire_latency: Histogram,
    /// Causal hops of this member's completed operations.
    pub acquire_hops: Histogram,
}

/// One socket-backed cluster member: this process's shard workers plus a
/// [`SocketTransport`] to the other members.
pub struct Node {
    member: Member,
    transport: Arc<SocketTransport>,
    counters: Counters,
    shards: usize,
}

impl Node {
    /// Bind this member's socket and spawn its shard workers. Peers that
    /// are not up yet are dialed in the background (see
    /// [`SocketConfig::connect_timeout`]); operations issued before a link
    /// is established wait in that link's write queue.
    pub fn new(config: NodeConfig) -> std::io::Result<Node> {
        let mut cluster = config.cluster;
        assert!(cluster.nodes >= 1);
        assert!(cluster.locks >= 1);
        assert_eq!(
            cluster.nodes,
            config.socket.addrs.len(),
            "one socket address per node"
        );
        assert!((config.socket.me as usize) < cluster.nodes);
        // Sockets always run the reliability shim (module docs); an auto
        // or absent config resolves to the WAN floor here.
        cluster.reliable = Some(
            cluster
                .reliable
                .unwrap_or_default()
                .resolved_for(TransportClass::Socket),
        );
        let me = config.socket.me;
        let shards = effective_shards(cluster.shards);
        let counters = Counters::default();
        let (inputs, rxs) = member::channels(shards);
        let transport = SocketTransport::bind(
            config.socket,
            inputs.clone(),
            Arc::clone(&counters.in_flight),
            shards,
        )?;
        let member = Member::spawn(
            me,
            cluster,
            inputs,
            rxs,
            transport.clone(),
            &counters,
            Instant::now(),
        );
        Ok(Node {
            member,
            transport,
            counters,
            shards,
        })
    }

    /// This member's node id.
    pub fn id(&self) -> u32 {
        self.member.id()
    }

    /// A cloneable blocking handle to this member's application interface.
    pub fn handle(&self) -> NodeHandle {
        self.member.handle()
    }

    /// Protocol messages this member transmitted so far.
    pub fn messages_sent(&self) -> u64 {
        self.counters.messages_sent()
    }

    /// True when this member owes the cluster nothing it knows about: no
    /// frame in local flight and no data sequence awaiting a peer's ack.
    /// Global quiescence needs *every* member idle at once with a stable
    /// global message count — one member's idle is necessary, not
    /// sufficient.
    pub fn is_idle(&self) -> bool {
        self.counters.is_idle()
    }

    /// Local quiescence wait, mirroring
    /// [`Cluster::quiesce_within`](crate::Cluster::quiesce_within): returns
    /// the message count once this member has been idle with a stable
    /// counter for `idle`, or whatever it is at `timeout`.
    pub fn quiesce_within(&self, idle: Duration, timeout: Duration) -> u64 {
        self.counters.quiesce_within(idle, timeout)
    }

    /// Shut this member down and collect its final report. Same teardown
    /// order as the in-process cluster: drain (bounded), stop the
    /// transport (final wire flush), then stop the workers. The caller is
    /// responsible for only shutting down a *globally* quiescent cluster;
    /// a member with unacked data to an already-dead peer gives up after
    /// the bounded drain.
    pub fn shutdown(self) -> NodeReport {
        let mut done = member::shutdown(vec![self.member], &*self.transport, &self.counters);
        NodeReport {
            messages_sent: self.counters.messages_sent(),
            states: done.states.pop().expect("one member"),
            decode_errors: done.decode_errors,
            frames_fenced: done.frames_fenced,
            workers_died: done.workers_died,
            replies_dropped: self.counters.replies_dropped.load(Ordering::Relaxed),
            links: done.links,
            trace: done.trace,
            trace_dropped: done.trace_dropped,
            acquire_latency: done.acquire_latency,
            acquire_hops: done.acquire_hops,
        }
    }

    /// Worker threads per node (the effective shard count).
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Simulate this member's crash: its workers abandon their protocol
    /// state and fail waiting callers with
    /// [`crate::ClusterError::WorkerDied`], and the wire is torn down so
    /// peers observe the TCP connections dying *now* — their
    /// [`Node::suspects`] detectors flag this member. Consumes the node;
    /// a dead member reports nothing.
    pub fn crash(self) {
        self.member.broadcast(|| Input::Die);
        let _ = self.transport.shutdown();
        self.member.broadcast(|| Input::Shutdown);
        self.member.collect(&mut Collected::default());
    }

    /// Report `(lock, has_token, epoch)` for every lock this member hosts;
    /// `(self.id(), self.scan_locks())` is one input row for
    /// [`crate::plan_recovery`]. Only meaningful on a quiescent member.
    pub fn scan_locks(&self) -> Vec<(u32, bool, u32)> {
        let mut rows: Vec<_> = member::scan([&self.member])
            .into_iter()
            .flat_map(|(_, rows)| rows)
            .collect();
        rows.sort_unstable();
        rows
    }

    /// Apply a repair wave planned by [`crate::plan_recovery`] around the
    /// crashed member `dead` (DESIGN.md §17): isolates the dead link end,
    /// then repairs every planned lock this member's workers own. Every
    /// surviving member must apply the same wave; quiesce all survivors
    /// afterwards before relying on the repaired state.
    pub fn repair(&self, dead: u32, survivors: &[u32], plans: &[(u32, u32, u32)]) {
        let survivors = Arc::new(survivors.iter().map(|&n| NodeId(n)).collect());
        self.member
            .repair(dead, &survivors, &Arc::new(plans.to_vec()));
    }

    /// Socket-path failure detector: peers whose TCP link to this member
    /// has died at least once (connection reset, EOF mid-stream, or a
    /// write failure). A killed member process shows up here on every
    /// survivor it was connected to.
    pub fn suspects(&self) -> Vec<u32> {
        self.transport
            .peer_resets()
            .iter()
            .enumerate()
            .filter(|&(peer, &resets)| peer as u32 != self.id() && resets > 0)
            .map(|(peer, _)| peer as u32)
            .collect()
    }
}

/// Audit a whole cluster from its members' reported states.
///
/// `states[n]` is member `n`'s [`NodeReport::states`] (decoded with
/// [`HierNode::decode_state`](dlm_core::HierNode::decode_state) when they
/// crossed a process boundary). Locks a member never touched contribute a
/// synthesized initial state, exactly as
/// [`Cluster::shutdown`](crate::Cluster::shutdown) does; the audit runs
/// with `quiescent = true`, so the cluster must have been globally
/// quiescent when the states were captured.
pub fn audit_process_states(
    protocol: ProtocolConfig,
    states: &[Vec<(u32, HierNode)>],
) -> Vec<AuditError> {
    audit_surviving_states(protocol, states, &[])
}

/// [`audit_process_states`] for a cluster that lost members: `crashed`
/// lists the member ids that died. A dead member contributes no states
/// (pass its slot empty) and is excluded from the audit rather than
/// synthesized fresh — resurrecting it at epoch 0 would re-create the very
/// token the recovery's new epoch replaced. The per-lock audit runs over
/// the survivors only (the audit resolves nodes by id, so a survivor-only
/// snapshot is well-formed).
pub fn audit_surviving_states(
    protocol: ProtocolConfig,
    states: &[Vec<(u32, HierNode)>],
    crashed: &[u32],
) -> Vec<AuditError> {
    let nodes = states.len();
    let touched: BTreeSet<u32> = states
        .iter()
        .flat_map(|s| s.iter().map(|(lock, _)| *lock))
        .collect();
    let by_node: Vec<HashMap<u32, &HierNode>> = states
        .iter()
        .map(|s| s.iter().map(|(lock, node)| (*lock, node)).collect())
        .collect();
    let mut errors = Vec::new();
    for lock in touched {
        let members: Vec<HierNode> = (0..nodes)
            .filter(|n| !crashed.contains(&(*n as u32)))
            .map(|n| {
                by_node[n]
                    .get(&lock)
                    .map(|s| (*s).clone())
                    .unwrap_or_else(|| fresh_state(NodeId(n as u32), protocol))
            })
            .collect();
        errors.extend(audit(&members, &[], true));
    }
    errors
}
