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
//!   gauge — which only exists with the shim. `Node::new` therefore turns
//!   the shim on whatever [`ClusterConfig::reliable`] says, with the socket
//!   retransmission floor (2 ms; the in-process runtime uses 400 µs).
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
use crate::reliable::{ReliableConfig, SOCKET_RTO};
use crate::runtime::{ClusterConfig, LinkReport};
use crate::shard::effective_shards;
use crate::socket::{SocketConfig, SocketTransport};
use crate::NodeHandle;
use dlm_core::{audit, AuditError, HierNode, NodeId, ProtocolConfig};
use dlm_metrics::Histogram;
use dlm_trace::TraceRecord;
use std::borrow::Cow;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Configuration of one socket-backed cluster member.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// The cluster-wide parameters — node count, locks, shards, protocol,
    /// reliability, tracing, coalescing. Every member must use identical
    /// values. [`ClusterConfig::transport`] is ignored (the wire is
    /// [`Self::socket`]), and so is [`ClusterConfig::reliable`]: sockets
    /// always run the reliability shim (see module docs).
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
    /// Grants this member released because their requester was gone (see
    /// [`crate::ClusterReport::grants_abandoned`]).
    pub grants_abandoned: u64,
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
/// socket transport to the other members.
pub struct Node {
    member: Member,
    transport: Arc<SocketTransport>,
    counters: Counters,
    shards: usize,
}

impl Node {
    /// Bind this member's socket and spawn its shard workers. Peers that
    /// are not up yet are dialed in the background for up to 15 s;
    /// operations issued before a link is established wait in that link's
    /// write queue.
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
        // Sockets always run the reliability shim (module docs), with the
        // socket retransmission floor.
        cluster.reliable = Some(ReliableConfig { rto: SOCKET_RTO });
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
            grants_abandoned: self.counters.grants_abandoned.load(Ordering::Relaxed),
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
    /// [`crate::ClusterError::WorkerDied`], and the wire is torn down
    /// without a goodbye so peers observe the TCP connections dying *now*
    /// — their [`Node::suspects`] detectors flag this member. Consumes the
    /// node; a dead member reports nothing.
    pub fn crash(self) {
        self.member.broadcast(|| Input::Die);
        let _ = self.transport.stop(false);
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
    /// then repairs every planned lock this member's workers own. Returns
    /// once every worker has applied the wave; the frames it caused may
    /// still be travelling. Every surviving member must apply the same
    /// wave; quiesce all survivors afterwards before relying on the
    /// repaired state.
    pub fn repair(&self, dead: u32, survivors: &[u32], plans: &[(u32, u32, u32)]) {
        let survivors = survivors.iter().map(|&n| NodeId(n)).collect();
        member::repair([&self.member], dead, survivors, plans.to_vec());
    }

    /// Socket-path failure detector: peers whose TCP link to this member
    /// has died at least once (connection reset, EOF mid-stream, or a
    /// write failure) without a goodbye. A killed member process shows up
    /// here on every survivor it was connected to; one that shut down
    /// cleanly does not.
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
///
/// The audit walks the members' lists in lock order side by side, so it
/// builds no index of the locks: lists sorted by lock (as shutdown
/// collects them) are read in place, and an unsorted one (e.g. decoded by a
/// harness in arrival order) is sorted into a copy first. Locks are audited
/// in ascending order; a lock a member lists twice reads as its last entry.
pub fn audit_surviving_states(
    protocol: ProtocolConfig,
    states: &[Vec<(u32, HierNode)>],
    crashed: &[u32],
) -> Vec<AuditError> {
    let lists: Vec<Cow<'_, [(u32, HierNode)]>> = states
        .iter()
        .map(|list| {
            if list.is_sorted_by_key(|(lock, _)| *lock) {
                Cow::Borrowed(&list[..])
            } else {
                let mut list = list.clone();
                list.sort_by_key(|(lock, _)| *lock);
                Cow::Owned(list)
            }
        })
        .collect();
    let alive = |n: usize| !crashed.contains(&(n as u32));
    // What a member that never touched a lock holds for it.
    let fresh: Vec<HierNode> = (0..states.len())
        .map(|n| fresh_state(NodeId(n as u32), protocol))
        .collect();
    let mut at = vec![0; lists.len()];
    let mut members: Vec<&HierNode> = Vec::with_capacity(lists.len());
    let mut errors = Vec::new();
    // The next lock is the smallest one under any member's cursor.
    while let Some(lock) = lists
        .iter()
        .zip(&at)
        .filter_map(|(list, &i)| list.get(i).map(|(lock, _)| *lock))
        .min()
    {
        members.clear();
        for (n, list) in lists.iter().enumerate() {
            let mut listed = None;
            while let Some((_, state)) = list.get(at[n]).filter(|(l, _)| *l == lock) {
                listed = Some(state);
                at[n] += 1;
            }
            if alive(n) {
                members.push(listed.unwrap_or(&fresh[n]));
            }
        }
        errors.extend(audit(&members, &[], true));
    }
    errors
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlm_core::{EffectBuf, Mode};
    use dlm_trace::NullObserver;

    /// The audit by definition: for every lock anyone lists, in ascending
    /// order, every surviving member's last listed state for it (or its
    /// initial state), audited at quiescence.
    fn reference(
        protocol: ProtocolConfig,
        states: &[Vec<(u32, HierNode)>],
        crashed: &[u32],
    ) -> Vec<AuditError> {
        let mut locks: Vec<u32> = states.iter().flatten().map(|(lock, _)| *lock).collect();
        locks.sort_unstable();
        locks.dedup();
        let mut errors = Vec::new();
        for lock in locks {
            let members: Vec<HierNode> = (0..states.len() as u32)
                .filter(|n| !crashed.contains(n))
                .map(|n| {
                    let listed = states[n as usize].iter().rev().find(|(l, _)| *l == lock);
                    match listed {
                        Some((_, state)) => state.clone(),
                        None if n == 0 => HierNode::with_token(NodeId(0), protocol),
                        None => HierNode::new(NodeId(n), NodeId(0), protocol),
                    }
                })
                .collect();
            errors.extend(audit(&members, &[], true));
        }
        errors
    }

    /// `state` after its application asked for `mode`.
    fn asked(mut state: HierNode, mode: Mode) -> HierNode {
        let mut effects = EffectBuf::new();
        state
            .on_acquire_into(mode, 0, &mut effects, &mut NullObserver)
            .unwrap();
        state
    }

    /// Four members' lists, unsorted, in which:
    /// * lock 2 is listed by member 0 alone, in its initial state;
    /// * lock 5 has a planted second token at member 1, and both token
    ///   holders hold W;
    /// * lock 7's second token sits at member 3 (the one that crashes);
    /// * lock 9 has a request stuck at member 2.
    fn snapshot(protocol: ProtocolConfig) -> Vec<Vec<(u32, HierNode)>> {
        let fresh = |n| fresh_state(NodeId(n), protocol);
        let token = |n| HierNode::with_token(NodeId(n), protocol);
        vec![
            vec![(5, asked(fresh(0), Mode::Write)), (2, fresh(0))],
            vec![(7, fresh(1)), (5, asked(token(1), Mode::Write))],
            vec![(9, asked(fresh(2), Mode::Read))],
            vec![(7, token(3))],
        ]
    }

    #[test]
    fn the_audit_walk_matches_the_per_lock_definition() {
        let protocol = ProtocolConfig::paper();
        let states = snapshot(protocol);
        assert!(!states[0].is_sorted_by_key(|(lock, _)| *lock));
        let mut sorted = states.clone();
        for list in &mut sorted {
            list.sort_by_key(|(lock, _)| *lock);
        }
        for crashed in [&[][..], &[3], &[1, 3]] {
            let expected = reference(protocol, &states, crashed);
            for input in [&states, &sorted] {
                assert_eq!(
                    audit_surviving_states(protocol, input, crashed),
                    expected,
                    "crashed {crashed:?}"
                );
            }
        }
        assert_eq!(
            audit_process_states(protocol, &states),
            reference(protocol, &states, &[])
        );

        // What the walk must find: the planted token (lock 5), the crashed
        // member's token only while it is counted (lock 7), and the stuck
        // request (lock 9).
        let two_tokens = AuditError::TokenEpochCount { epoch: 0, count: 2 };
        let with_3 = audit_process_states(protocol, &states);
        let without_3 = audit_surviving_states(protocol, &states, &[3]);
        assert_eq!(with_3.iter().filter(|e| **e == two_tokens).count(), 2);
        assert_eq!(without_3.iter().filter(|e| **e == two_tokens).count(), 1);
        assert!(without_3
            .iter()
            .any(|e| matches!(e, AuditError::StuckRequest(NodeId(2), Mode::Read))));
        let both_hold_w = AuditError::IncompatibleHolders {
            a: (NodeId(0), Mode::Write),
            b: (NodeId(1), Mode::Write),
        };
        assert!(without_3.contains(&both_hold_w), "{without_3:?}");
        // Dropping member 1 removes the planted token as well.
        let clean_5 = audit_surviving_states(protocol, &states, &[1, 3]);
        assert!(!clean_5.contains(&two_tokens), "{clean_5:?}");
    }
}
