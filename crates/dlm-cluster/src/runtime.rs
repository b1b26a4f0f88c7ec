//! The in-process cluster: N [`Member`]s (one per node, each a set of shard
//! worker threads around a [`crate::engine::ShardEngine`]) wired to one
//! in-process transport, plus the crash/suspect/recover coordinator and the
//! live metrics exporter.
//!
//! # Sharded workers
//!
//! Every node runs [`ClusterConfig::shards`] worker threads; lock `L` is
//! owned by shard [`crate::shard::shard_of`]`(L)` on *every* node, so a
//! frame for `L` goes straight from the sending worker to the owning worker
//! of the destination node with no cross-thread handoff in between. The
//! transport address space is therefore *worker slots*
//! (`node * shards + shard`), not nodes; fault tallies and trace events are
//! folded back to node granularity.
//!
//! Each worker owns its shard's protocol instances (created lazily on first
//! touch, so a node can host millions of mostly-idle locks), its own effect
//! and codec scratch, its own reliability endpoint, and a bounded
//! application-ingress gate ([`crate::shard::ShardGate`]) that sheds
//! new load with [`crate::ClusterError::Overloaded`] instead of queueing without
//! bound.
//!
//! # Coalescing
//!
//! A worker drains its input channel in batches. Outgoing protocol frames
//! produced while processing one batch are buffered per destination and
//! flushed at batch end: several protocol frames to the same peer travel as
//! one container wire frame ([`crate::codec::encode_container_into`]) — one
//! transport handoff, one reliability sequence number, one ack. Per-link
//! [`LinkReport::proto_sent`]/[`LinkReport::wire_sent`] counters report the
//! achieved packing ratio.

use crate::engine::Input;
use crate::handle::NodeHandle;
use crate::member::{self, Counters, Member};
use crate::node::audit_surviving_states;
use crate::reliable::{ReliableConfig, IN_PROCESS_RTO};
use crate::shard::effective_shards;
use crate::transport::{Direct, Faulty, Transport, TransportKind};
use dlm_core::{AuditError, NodeId, ProtocolConfig};
use dlm_metrics::Histogram;
use dlm_trace::TraceRecord;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Cluster construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct ClusterConfig {
    /// Number of nodes.
    pub nodes: usize,
    /// Number of lock objects hosted (ids `0..locks`). Protocol state is
    /// created lazily on first touch, so this may be in the millions.
    pub locks: usize,
    /// Protocol feature toggles.
    pub protocol: ProtocolConfig,
    /// The interconnect carrying encoded frames between workers; see
    /// [`TransportKind`].
    pub transport: TransportKind,
    /// When set, every protocol frame travels through the per-link
    /// reliability shim (sequence numbers, cumulative acks, retransmission,
    /// dedup/reorder buffering) — required for a clean run over
    /// [`TransportKind::Faulty`] links with a non-zero drop rate.
    pub reliable: Option<ReliableConfig>,
    /// Per-worker flight-recorder capacity for structured protocol events;
    /// `0` disables tracing (workers then pay one branch per event site).
    /// Retained records are merged at shutdown into
    /// [`ClusterReport::trace`].
    pub trace_capacity: usize,
    /// Worker threads per node, rounded up to a power of two. Lock-id →
    /// shard assignment is the splittable hash in [`crate::shard`]; `1`
    /// (the default) reproduces the classic one-thread-per-node runtime.
    pub shards: usize,
    /// Bound on queued application operations per shard worker; operations
    /// beyond it are refused with [`crate::ClusterError::Overloaded`]. Network
    /// frames are never gated.
    pub shard_queue: usize,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            nodes: 2,
            locks: 1,
            protocol: ProtocolConfig::paper(),
            transport: TransportKind::Direct,
            reliable: None,
            trace_capacity: 0,
            shards: 1,
            shard_queue: 8192,
        }
    }
}

/// Per-directed-link telemetry: the one table every layer reports into.
/// Shard engines write the reliability and coalescing counters, the fault
/// router and the socket transport write theirs, and shutdown sums the rows
/// per `(from, to)`. Reliability and fault counters are zero unless the
/// corresponding machinery was configured ([`ClusterConfig::reliable`],
/// [`TransportKind::Faulty`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkReport {
    /// Sender.
    pub from: u32,
    /// Receiver.
    pub to: u32,
    /// Data frames originally sent (retransmissions not included). With
    /// coalescing this counts *wire* frames, so it equals
    /// [`Self::wire_sent`] on a reliable link.
    pub data_sent: u64,
    /// Retransmissions of unacked data frames.
    pub retransmits: u64,
    /// Bare cumulative acks the receiver sent back for this link's data.
    pub acks_sent: u64,
    /// Duplicate data frames the receiver suppressed.
    pub dups_suppressed: u64,
    /// Out-of-order data frames the receiver parked until the gap filled.
    pub reorders_buffered: u64,
    /// Frames the transport dropped in flight.
    pub dropped: u64,
    /// Extra copies the transport injected.
    pub duplicated: u64,
    /// Frames the transport held back past later traffic.
    pub reordered: u64,
    /// Protocol frames carried over this link (the payload count).
    pub proto_sent: u64,
    /// Physical wire frames that carried them; `proto_sent / wire_sent`
    /// is the link's coalescing ratio.
    pub wire_sent: u64,
    /// Payload bytes observed on a real wire for this link (socket
    /// transports only; 0 in-process).
    pub wire_bytes: u64,
    /// Socket connection losses observed on this link (peer reset, EOF
    /// mid-stream, or a write failure); the node keeps serving after each.
    /// A peer that shut down cleanly says goodbye first and is not counted.
    pub resets: u64,
}

impl LinkReport {
    /// An all-zero row for the directed link `from → to`.
    pub(crate) fn new(from: u32, to: u32) -> Self {
        LinkReport {
            from,
            to,
            ..LinkReport::default()
        }
    }

    /// Add `other`'s counters to this row (the link ids are left alone).
    pub(crate) fn add(&mut self, other: &LinkReport) {
        // Destructured so a new counter cannot be left out of the sum.
        let LinkReport {
            from: _,
            to: _,
            data_sent,
            retransmits,
            acks_sent,
            dups_suppressed,
            reorders_buffered,
            dropped,
            duplicated,
            reordered,
            proto_sent,
            wire_sent,
            wire_bytes,
            resets,
        } = *other;
        self.data_sent += data_sent;
        self.retransmits += retransmits;
        self.acks_sent += acks_sent;
        self.dups_suppressed += dups_suppressed;
        self.reorders_buffered += reorders_buffered;
        self.dropped += dropped;
        self.duplicated += duplicated;
        self.reordered += reordered;
        self.proto_sent += proto_sent;
        self.wire_sent += wire_sent;
        self.wire_bytes += wire_bytes;
        self.resets += resets;
    }
}

/// Final report of a shut-down cluster.
#[derive(Debug)]
pub struct ClusterReport {
    /// Total protocol messages transmitted (retransmissions and acks are
    /// link-layer frames and not counted here; see [`Self::links`]).
    pub messages_sent: u64,
    /// Per-lock audit findings on the final states (with the cluster
    /// quiesced, these should all be empty). Locks never touched by any
    /// node hold their initial state by construction and are skipped.
    pub audit_errors: Vec<AuditError>,
    /// Merged structured event trace (wall-clock µs since cluster start;
    /// empty when [`ClusterConfig::trace_capacity`] is 0). Ordered by
    /// `(at, node)` with a fresh global sequence. Transport and reliability
    /// events that no lock can claim carry the sentinel lock id
    /// [`crate::TRANSPORT_LOCK`].
    pub trace: Vec<TraceRecord>,
    /// Events evicted from the per-worker flight recorders before shutdown
    /// (0 means [`Self::trace`] is complete).
    pub trace_dropped: u64,
    /// Completion replies whose application-side receiver had already gone
    /// away (e.g. a handle dropped mid-call). Non-zero values mean some
    /// caller never saw its outcome.
    pub replies_dropped: u64,
    /// Grants whose requester was gone by the time they arrived — no waiter,
    /// or a completion nobody could read (e.g. a [`crate::Pipeline`] dropped
    /// with an acquire still queued). The granting worker released each at
    /// once, so the lock moved on to whoever queued behind it.
    pub grants_abandoned: u64,
    /// Frames that arrived but could not be decoded (truncated, bad tag,
    /// bad reliability header). The receiving worker counts them and keeps
    /// serving; on a healthy in-process transport this is always 0.
    pub decode_errors: u64,
    /// Stale-generation frames fenced by epoch rule R3 (DESIGN.md §17): a
    /// non-`Recover` frame stamped with an epoch other than the receiving
    /// node's was dropped without touching protocol state. Non-zero only
    /// after a crash recovery raced in-flight traffic — which is the fence
    /// doing its job.
    pub frames_fenced: u64,
    /// Worker threads that terminated by panicking instead of returning
    /// their state at shutdown. Reported (and their states excluded from
    /// the audit) rather than propagating the panic; the live-cluster
    /// analogue is [`crate::ClusterError::WorkerDied`].
    pub workers_died: u64,
    /// Per-link reliability/coalescing/fault counters, one row per link
    /// with a non-zero counter, sorted by `(from, to)`.
    pub links: Vec<LinkReport>,
    /// Wall-clock latency (µs) of every completed application acquire and
    /// upgrade, merged across nodes: issue at the worker thread → grant
    /// delivered to the waiter.
    pub acquire_latency: Histogram,
    /// Causal network hops on each completed operation's granting chain
    /// (0 = local admit without any message).
    pub acquire_hops: Histogram,
}

/// An in-process cluster of protocol nodes, each running one worker thread
/// per shard.
pub struct Cluster {
    members: Vec<Member>,
    transport: Arc<dyn Transport>,
    counters: Counters,
    /// Time base of the workers' heartbeat stamps and trace records.
    epoch: Instant,
    /// Nodes administratively crashed via [`Cluster::crash_node`]; their
    /// final states are excluded from the shutdown audit.
    crashed: Mutex<BTreeSet<u32>>,
    locks: usize,
    shards: usize,
    protocol: ProtocolConfig,
}

impl Cluster {
    /// Spawn the cluster. Node 0 initially holds every token.
    pub fn new(mut config: ClusterConfig) -> Self {
        assert!(config.nodes >= 1);
        assert!(config.locks >= 1);
        // Every in-process transport is a channel handoff: the shim gets the
        // in-process retransmission floor (sockets get theirs in
        // `Node::new`).
        config.reliable = config.reliable.map(|_| ReliableConfig {
            rto: IN_PROCESS_RTO,
        });
        let shards = effective_shards(config.shards);
        let counters = Counters::default();
        // One epoch shared by every worker thread, so wall-clock trace
        // stamps are comparable across threads and merge into one timeline.
        let epoch = Instant::now();
        let (inputs, rxs) = member::channels(config.nodes * shards);
        let in_flight = Arc::clone(&counters.in_flight);
        let transport: Arc<dyn Transport> = match config.transport {
            TransportKind::Direct => Arc::new(Direct::new(inputs.clone(), in_flight)),
            TransportKind::Faulty(faults) => Arc::new(Faulty::new(
                inputs.clone(),
                in_flight,
                faults,
                config.nodes,
                shards,
                config.trace_capacity,
                epoch,
            )),
        };
        let mut rxs = rxs.into_iter();
        let members = (0..config.nodes)
            .map(|id| {
                Member::spawn(
                    id as u32,
                    config,
                    inputs[id * shards..(id + 1) * shards].to_vec(),
                    rxs.by_ref().take(shards).collect(),
                    Arc::clone(&transport),
                    &counters,
                    epoch,
                )
            })
            .collect();
        Cluster {
            members,
            transport,
            counters,
            epoch,
            crashed: Mutex::new(BTreeSet::new()),
            locks: config.locks,
            shards,
            protocol: config.protocol,
        }
    }

    /// A cloneable blocking handle to node `id`.
    pub fn handle(&self, id: u32) -> NodeHandle {
        self.members[id as usize].handle.clone()
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Always false (a cluster has at least one node).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Worker threads per node (the effective, power-of-two shard count).
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Protocol messages transmitted so far.
    pub fn messages_sent(&self) -> u64 {
        self.counters.messages_sent()
    }

    /// Completion replies dropped so far because the application-side
    /// receiver was already gone (see [`ClusterReport::replies_dropped`]).
    pub fn replies_dropped(&self) -> u64 {
        self.counters.replies_dropped.load(Ordering::Relaxed)
    }

    /// Render a Prometheus-text-format snapshot of the cluster's live
    /// metrics: global counters and gauges, per-node operation counters,
    /// per-shard queue/ops/rejection series, and cluster-wide
    /// acquire-latency / hops-per-acquire summaries with p50/p95/p99
    /// quantiles.
    ///
    /// Safe to call at any time; each worker's metrics mutex is held only
    /// long enough to copy its histograms out.
    pub fn metrics_snapshot(&self) -> String {
        /// One exposition series: its header, then `name<suffix> value` per
        /// row (the suffix is a label set, or `_sum`/`_count`).
        fn series(
            out: &mut String,
            name: &str,
            help: &str,
            kind: &str,
            rows: impl IntoIterator<Item = (String, u64)>,
        ) {
            use std::fmt::Write;
            let _ = writeln!(out, "# HELP {name} {help}\n# TYPE {name} {kind}");
            for (suffix, v) in rows {
                let _ = writeln!(out, "{name}{suffix} {v}");
            }
        }
        let one = |v: u64| [(String::new(), v)];
        let mut out = String::with_capacity(1024);
        series(
            &mut out,
            "dlm_messages_total",
            "Protocol messages transmitted.",
            "counter",
            one(self.messages_sent()),
        );
        series(
            &mut out,
            "dlm_replies_dropped_total",
            "Completion replies whose receiver had gone away.",
            "counter",
            one(self.replies_dropped()),
        );
        series(
            &mut out,
            "dlm_frames_in_flight",
            "Physical frames sent but not yet fully processed.",
            "gauge",
            one(self.counters.in_flight.load(Ordering::Relaxed)),
        );
        series(
            &mut out,
            "dlm_frames_unacked",
            "Data sequences sent but not yet cumulatively acked.",
            "gauge",
            one(self.counters.unacked.load(Ordering::Relaxed)),
        );

        // Per node, per worker: `[acquires, upgrades, releases, queue depth,
        // rejections, completed ops]`, copied out under the worker's
        // metrics mutex.
        let mut latency = Histogram::new();
        let mut hops = Histogram::new();
        let mut per_node: Vec<Vec<[u64; 6]>> = Vec::with_capacity(self.members.len());
        for member in &self.members {
            let mut workers = Vec::with_capacity(self.shards);
            for (gate, m) in member.workers() {
                let m = m.lock().expect("metrics mutex");
                latency.merge(&m.acquire_latency);
                hops.merge(&m.acquire_hops);
                let ops = m.acquires + m.upgrades + m.releases;
                let (depth, rejections) = (gate.depth(), gate.rejections());
                workers.push([m.acquires, m.upgrades, m.releases, depth, rejections, ops]);
            }
            per_node.push(workers);
        }
        for (name, help, col) in [
            ("dlm_acquires_total", "Completed acquire operations.", 0),
            ("dlm_upgrades_total", "Completed Rule 7 upgrades.", 1),
            ("dlm_releases_total", "Completed releases.", 2),
        ] {
            let rows = per_node.iter().enumerate().map(|(node, workers)| {
                let v = workers.iter().map(|w| w[col]).sum();
                (format!("{{node=\"{node}\"}}"), v)
            });
            series(&mut out, name, help, "counter", rows);
        }
        for (name, help, kind, col) in [
            (
                "dlm_shard_queue_depth",
                "Application operations queued per shard worker.",
                "gauge",
                3,
            ),
            (
                "dlm_shard_rejections_total",
                "Operations refused because a shard queue was full.",
                "counter",
                4,
            ),
            (
                "dlm_shard_ops_total",
                "Operations completed per shard worker.",
                "counter",
                5,
            ),
        ] {
            let rows = per_node.iter().enumerate().flat_map(|(node, workers)| {
                workers.iter().enumerate().map(move |(shard, w)| {
                    (format!("{{node=\"{node}\",shard=\"{shard}\"}}"), w[col])
                })
            });
            series(&mut out, name, help, kind, rows);
        }
        for (name, help, h) in [
            (
                "dlm_acquire_latency_us",
                "Issue-to-grant wall-clock latency of completed operations (microseconds).",
                &latency,
            ),
            (
                "dlm_acquire_hops",
                "Causal network hops on each completed operation's granting chain.",
                &hops,
            ),
        ] {
            let p = h.percentiles();
            let sum = (h.mean() * h.count() as f64).round() as u64;
            let rows = [
                ("{quantile=\"0.5\"}", p.p50),
                ("{quantile=\"0.95\"}", p.p95),
                ("{quantile=\"0.99\"}", p.p99),
                ("_sum", sum),
                ("_count", h.count()),
            ];
            let rows = rows.map(|(suffix, v)| (suffix.to_string(), v));
            series(&mut out, name, help, "summary", rows);
        }
        out
    }

    /// Simulate the crash of node `id`: its workers abandon their protocol
    /// state, fail their waiting callers with
    /// [`crate::ClusterError::WorkerDied`], and go silent — they stop
    /// heartbeating (so [`Self::suspects`] flags the node) but keep
    /// draining their input channels so the in-flight accounting stays
    /// truthful. Every surviving worker's link layer is simultaneously
    /// told to stop expecting acks from the dead node, so quiescence still
    /// converges.
    ///
    /// The node's final state is excluded from the shutdown audit; call
    /// [`Self::recover`] to repair the survivors around it.
    pub fn crash_node(&self, id: u32) {
        self.crashed.lock().expect("crashed mutex").insert(id);
        for member in &self.members {
            if member.id() == id {
                member.broadcast(|| Input::Die);
            } else {
                member.broadcast(|| Input::Isolate { dead: NodeId(id) });
            }
        }
    }

    /// Heartbeat failure detector: node ids with at least one worker whose
    /// heartbeat stamp is older than `stale` or whose thread has
    /// terminated outright (panicked). Healthy workers refresh their
    /// stamps at least every 25 ms, so thresholds of a few hundred
    /// milliseconds give a detector with no false positives on an unloaded
    /// machine.
    pub fn suspects(&self, stale: Duration) -> Vec<u32> {
        let now = self.epoch.elapsed().as_micros() as u64;
        let stale = stale.as_micros() as u64;
        let suspect = self.members.iter().filter(|m| m.is_suspect(now, stale));
        suspect.map(Member::id).collect()
    }

    /// Recover the survivors around crashed node `dead` (DESIGN.md §17):
    ///
    /// 1. *Settle* — the scan below is only race-free with no token in
    ///    flight, so wait until no frame is in flight or unacked.
    ///    (Crashed workers keep draining their channels and
    ///    [`Self::crash_node`] already isolated the dead link ends, so
    ///    this converges.)
    /// 2. *Scan* — every surviving worker reports `(lock, has_token,
    ///    epoch)` for the locks it hosts. If any protocol message was sent
    ///    between the start of step 1 and the last answer, some worker
    ///    was still busy (an operation submitted while the scan ran, or
    ///    one that moved a token while step 1 settled): settle and scan
    ///    again.
    /// 3. *Plan* — [`plan_recovery`]: per affected lock, the next epoch and
    ///    the new root.
    /// 4. *Repair* — send the wave to the survivors, wait until every
    ///    worker has acknowledged applying it, then settle again.
    ///
    /// No step waits out a quiet window: each ends on an acknowledgement
    /// or a gauge reading (DESIGN.md §18, "Gauge discipline"). On return
    /// every survivor has applied the wave and the traffic it caused has
    /// been delivered. Returns the number of locks repaired.
    pub fn recover(&self, dead: u32) -> usize {
        let deadline = Instant::now() + Duration::from_secs(10);
        let crashed = self.crashed.lock().expect("crashed mutex").clone();
        let survivors = || self.members.iter().filter(|m| !crashed.contains(&m.id()));
        let mut sent = self.counters.messages_sent();
        let rows = loop {
            self.counters.settle(deadline);
            let rows = member::scan(survivors());
            let after = self.counters.messages_sent();
            if after == sent || Instant::now() >= deadline {
                break rows;
            }
            sent = after;
        };
        let ids: Vec<u32> = survivors().map(Member::id).collect();
        let plans = plan_recovery(&rows, dead, &ids, self.locks);
        let repaired = plans.len();
        let ids = ids.into_iter().map(NodeId).collect();
        member::repair(survivors(), dead, ids, plans);
        self.counters.settle(deadline);
        repaired
    }

    /// [`Self::recover`]; `_idle` is ignored. Kept only for the benchmark
    /// crate, which calls it by this name.
    #[doc(hidden)]
    pub fn recover_within(&self, dead: u32, _idle: Duration) -> usize {
        self.recover(dead)
    }

    /// Quiescence wait: returns the message count once no op chunk, frame
    /// or unacked data sequence is in flight (DESIGN.md §18, "Gauge
    /// discipline"), or whatever it is after 30 s. Call it once the
    /// application has stopped submitting, to let release waves drain;
    /// the count it returns is then final.
    pub fn quiesce(&self) -> u64 {
        self.counters
            .settle(Instant::now() + Duration::from_secs(30))
    }

    /// [`Self::quiesce`] bounded by `timeout`; `_idle` is ignored. Kept
    /// only for the benchmark crate, which calls it by this name.
    #[doc(hidden)]
    pub fn quiesce_within(&self, _idle: Duration, timeout: Duration) -> u64 {
        self.counters.settle(Instant::now() + timeout)
    }

    /// Shut down all threads (drain, stop the transport, stop the workers —
    /// in that order, so no parked frame is lost) and audit the final
    /// protocol states per lock.
    ///
    /// The audit covers every lock any node ever touched; an untouched lock
    /// holds its initial (token-at-node-0) state on every node by
    /// construction, and nodes that never touched a *touched* lock
    /// contribute a synthesized initial state. Crashed nodes are excluded:
    /// their state died with them, and after a recovery wave the survivors
    /// form a complete, self-consistent hierarchy on their own.
    pub fn shutdown(self) -> ClusterReport {
        let done = member::shutdown(self.members, &*self.transport, &self.counters);
        let crashed: Vec<u32> = self
            .crashed
            .into_inner()
            .expect("crashed mutex")
            .into_iter()
            .collect();
        ClusterReport {
            messages_sent: self.counters.messages_sent(),
            audit_errors: audit_surviving_states(self.protocol, &done.states, &crashed),
            trace: done.trace,
            trace_dropped: done.trace_dropped,
            replies_dropped: self.counters.replies_dropped.load(Ordering::Relaxed),
            grants_abandoned: self.counters.grants_abandoned.load(Ordering::Relaxed),
            decode_errors: done.decode_errors,
            frames_fenced: done.frames_fenced,
            workers_died: done.workers_died,
            links: done.links,
            acquire_latency: done.acquire_latency,
            acquire_hops: done.acquire_hops,
        }
    }
}

/// One survivor's recovery scan report: its node id plus a `(lock,
/// has_token, epoch)` row for every lock its workers host. Produced by the
/// recovery scan in-process and by [`crate::Node::scan_locks`] in the
/// multi-process path; consumed by [`plan_recovery`].
pub type ScanReport = (u32, Vec<(u32, bool, u32)>);

/// Turn survivor scan rows into a repair plan: one `(lock, new_root,
/// new_epoch)` triple per affected lock.
///
/// `rows` is one `(node, [(lock, has_token, epoch)])` entry per surviving
/// worker (or a [`crate::Node::scan_locks`] report per member in the
/// multi-process path). Per lock, the next epoch is one
/// past the highest epoch any survivor reported, and the new root is the
/// surviving token holder at that epoch if there is one — otherwise the
/// lowest-numbered survivor, which will regenerate the token (Rule R2).
/// When node 0 died, every lock in `0..locks` is affected: locks nobody
/// ever touched held their initial token at node 0 implicitly.
///
/// Shared by [`Cluster::recover`], the socket-node recovery path, and the
/// multi-process harness, so all three plan identically.
pub fn plan_recovery(
    rows: &[ScanReport],
    dead: u32,
    survivors: &[u32],
    locks: usize,
) -> Vec<(u32, u32, u32)> {
    // Per lock: the highest epoch seen and the surviving token holder at
    // that epoch, if any.
    let mut per_lock: BTreeMap<u32, (u32, Option<u32>)> = BTreeMap::new();
    for (node, entries) in rows {
        for &(lock, has_token, epoch) in entries {
            let entry = per_lock.entry(lock).or_insert((epoch, None));
            if epoch > entry.0 {
                *entry = (epoch, None);
            }
            if has_token && epoch == entry.0 {
                entry.1 = Some(*node);
            }
        }
    }
    if dead == 0 {
        for lock in 0..locks as u32 {
            per_lock.entry(lock).or_insert((0, None));
        }
    }
    let fallback = survivors.first().copied().unwrap_or(0);
    per_lock
        .into_iter()
        .map(|(lock, (epoch, holder))| (lock, holder.unwrap_or(fallback), epoch + 1))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultConfig, LockId, Mode};
    use dlm_trace::ProtocolEvent;

    /// How many of `report`'s trace records match `pick`.
    fn count(report: &ClusterReport, pick: impl Fn(&TraceRecord) -> bool) -> usize {
        report.trace.iter().filter(|r| pick(r)).count()
    }

    /// `recover` returns only after every surviving worker has stepped its
    /// `PeerDown` and the traffic that caused was delivered: each survivor
    /// worker's `NodeSuspected` record (stamped by the step that applied
    /// the wave) predates the return, and no message is sent after it.
    /// With two nodes the lone survivor's wave sends nothing, so no gauge
    /// could have shown that it was still unapplied.
    #[test]
    fn recover_returns_after_every_survivor_applied_the_wave() {
        let shards = 2;
        for (cycle, nodes) in [2, 4].into_iter().cycle().take(10).enumerate() {
            let c = Cluster::new(ClusterConfig {
                nodes,
                locks: 4,
                shards,
                trace_capacity: 1 << 10,
                ..Default::default()
            });
            let h1 = c.handle(1);
            for lock in (0..4).map(LockId) {
                h1.acquire(lock, Mode::Write).unwrap();
                h1.release(lock).unwrap();
            }
            c.crash_node(1);
            assert_eq!(c.recover(1), 4);
            let returned = c.epoch.elapsed().as_micros() as u64;
            let sent = c.counters.messages_sent();
            c.quiesce();
            assert_eq!(
                c.counters.messages_sent(),
                sent,
                "cycle {cycle}: the wave's traffic outlived recover"
            );
            let report = c.shutdown();
            assert!(report.audit_errors.is_empty(), "{:?}", report.audit_errors);
            assert_eq!(report.trace_dropped, 0);
            for node in (0..nodes as u32).filter(|&n| n != 1) {
                let applied = |r: &TraceRecord| {
                    r.node == node && matches!(r.event, ProtocolEvent::NodeSuspected { node: 1 })
                };
                assert_eq!(count(&report, applied), shards, "cycle {cycle}");
                let late = |r: &TraceRecord| applied(r) && r.at > returned;
                assert_eq!(
                    count(&report, late),
                    0,
                    "cycle {cycle}: node {node} applied the wave after recover returned"
                );
            }
        }
    }

    /// A token transfer parked in a delaying, jittering router when its
    /// sender crashes: `recover` waits for it to land before it scans, so
    /// the scan names the survivor it reached and no second token is
    /// regenerated beside it; nothing the dead node sent is fenced after
    /// the repair. Over 50 seeds, reliability shim on, the crash timed at
    /// different points of node 2's acquire (the request travels 2 → 0 →
    /// 1, the token 1 → 2, one millisecond a hop).
    #[test]
    fn a_parked_token_transfer_lands_before_the_scan() {
        let delay = Duration::from_millis(1);
        let lock = LockId::TABLE;
        let mut in_transit = 0;
        for seed in 0..50u64 {
            let c = Cluster::new(ClusterConfig {
                nodes: 4,
                locks: 1,
                transport: TransportKind::Faulty(FaultConfig {
                    seed,
                    drop: 0.02,
                    duplicate: 0.05,
                    reorder: 0.3,
                    delay,
                }),
                reliable: Some(ReliableConfig::default()),
                trace_capacity: 1 << 12,
                ..Default::default()
            });
            let h1 = c.handle(1);
            h1.acquire(lock, Mode::Write).unwrap();
            h1.release(lock).unwrap();
            c.quiesce();
            let h2 = c.handle(2);
            let waiter = std::thread::spawn(move || h2.acquire(lock, Mode::Write).map(|()| h2));
            std::thread::sleep(Duration::from_micros(1500 + 60 * (seed % 40)));
            let crashed_at = c.epoch.elapsed().as_micros() as u64;
            c.crash_node(1);
            assert_eq!(c.recover(1), 1, "seed {seed}");
            let h2 = waiter.join().unwrap().expect("node 2's W completes");
            h2.release(lock).unwrap();
            c.quiesce();
            let report = c.shutdown();
            assert!(
                report.audit_errors.is_empty(),
                "seed {seed}: {:?}",
                report.audit_errors
            );
            assert_eq!(report.trace_dropped, 0);
            let sent_at = report.trace.iter().find_map(|r| {
                let sent = r.node == 1 && matches!(r.event, ProtocolEvent::TokenSent { to: 2, .. });
                sent.then_some(r.at)
            });
            let received_at = report.trace.iter().find_map(|r| {
                let got =
                    r.node == 2 && matches!(r.event, ProtocolEvent::TokenReceived { from: 1, .. });
                got.then_some(r.at)
            });
            if sent_at.is_some_and(|at| at <= crashed_at)
                && received_at.is_none_or(|at| at > crashed_at)
            {
                in_transit += 1;
            }
            let regenerated =
                |r: &TraceRecord| matches!(r.event, ProtocolEvent::TokenRegenerated { .. });
            assert_eq!(
                count(&report, regenerated),
                usize::from(received_at.is_none()),
                "seed {seed}: the scan must name the survivor the token reached"
            );
            let fenced =
                |r: &TraceRecord| matches!(r.event, ProtocolEvent::StaleEpochFenced { .. });
            let from_dead = |r: &TraceRecord| {
                matches!(r.event, ProtocolEvent::StaleEpochFenced { from: 1, .. })
            };
            assert_eq!(
                count(&report, from_dead),
                0,
                "seed {seed}: a frame landed after recover"
            );
            assert_eq!(
                report.frames_fenced,
                count(&report, fenced) as u64,
                "seed {seed}"
            );
        }
        assert!(
            in_transit >= 5,
            "only {in_transit} of 50 crashes caught the token in transit"
        );
    }

    /// An application operation queued at a survivor holds the in-flight
    /// gauge until its worker has stepped it. Node 2's worker is held
    /// inside an earlier scan while its W acquire queues behind it, so the
    /// settle before `recover`'s scan lasts until the worker is released,
    /// steps the acquire, and the token has moved to node 2. The message
    /// count moved during that settle, so `recover` settles and scans a
    /// second time. The count holds across that one, which finds the token
    /// at node 2 and keeps it there: nothing is regenerated and nothing is
    /// fenced.
    #[test]
    fn a_scan_repeats_when_an_operation_was_still_queued() {
        let lock = LockId::TABLE;
        let c = Cluster::new(ClusterConfig {
            nodes: 4,
            locks: 1,
            trace_capacity: 1 << 10,
            ..Default::default()
        });
        let h0 = c.handle(0);
        h0.acquire(lock, Mode::Read).unwrap();
        h0.release(lock).unwrap();
        let (stall, unstall) = crossbeam::channel::bounded(0);
        c.members[2].broadcast(|| Input::Scan(stall.clone()));
        let h2 = c.handle(2);
        let waiter = std::thread::spawn(move || h2.acquire(lock, Mode::Write).map(|()| h2));
        std::thread::sleep(Duration::from_millis(5));
        c.crash_node(3);
        std::thread::scope(|s| {
            let recovering = s.spawn(|| c.recover(3));
            std::thread::sleep(Duration::from_millis(10));
            unstall.recv().unwrap();
            assert_eq!(recovering.join().unwrap(), 1);
        });
        let h2 = waiter.join().unwrap().expect("node 2's W completes");
        h2.release(lock).unwrap();
        c.quiesce();
        let report = c.shutdown();
        assert!(report.audit_errors.is_empty(), "{:?}", report.audit_errors);
        let regenerated =
            |r: &TraceRecord| matches!(r.event, ProtocolEvent::TokenRegenerated { .. });
        assert_eq!(count(&report, regenerated), 0, "the holder was scanned");
        assert_eq!(report.frames_fenced, 0);
    }

    /// A panicking worker thread must not take the cluster down: the failure
    /// detector flags its node (a finished thread is the strongest heartbeat
    /// silence), the other nodes keep serving, and shutdown reports the death
    /// in `workers_died` instead of propagating the panic.
    #[test]
    fn worker_panic_is_reported_not_propagated() {
        let c = Cluster::new(ClusterConfig {
            nodes: 3,
            ..Default::default()
        });
        let h0 = c.handle(0);
        h0.acquire(LockId::TABLE, Mode::Write).unwrap();
        h0.release(LockId::TABLE).unwrap();
        // The node's (now partial) state is excluded from the shutdown
        // audit, like a crashed node's.
        c.crashed.lock().unwrap().insert(2);
        c.members[2].broadcast(|| Input::Panic);
        let deadline = Instant::now() + Duration::from_secs(5);
        while !c.suspects(Duration::from_millis(300)).contains(&2) {
            assert!(Instant::now() < deadline, "detector never flagged node 2");
            std::thread::sleep(Duration::from_millis(10));
        }
        let h1 = c.handle(1);
        h1.acquire(LockId::TABLE, Mode::Read).unwrap();
        h1.release(LockId::TABLE).unwrap();
        let report = c.shutdown();
        assert_eq!(report.workers_died, 1, "the panicked worker is counted");
        assert!(report.audit_errors.is_empty(), "{:?}", report.audit_errors);
        assert_eq!(report.replies_dropped, 0);
    }
}
