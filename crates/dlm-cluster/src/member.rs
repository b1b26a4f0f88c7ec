//! The member runtime: one node's shard workers as threads, and the
//! lifecycle both [`crate::Cluster`] (N members on an in-process transport)
//! and [`crate::Node`] (one member on a socket) are thin drivers over —
//! spawn, handle, quiesce, scan, repair, drain-and-shutdown.
//!
//! Each worker thread is a ~60-line driver ([`drive`]) around a sans-IO
//! [`ShardEngine`]: it owns the input channel, the clock and the heartbeat
//! stamp, and nothing else.

use crate::engine::{CoalesceStat, Input, NodeExit, NodeMetrics, ShardEngine};
use crate::reliable::PeerSnapshot;
use crate::runtime::{ClusterConfig, LinkReport, ScanReport};
use crate::shard::{effective_shards, ShardGate};
use crate::transport::{LinkFaults, SocketLinkStat, Transport};
use crate::NodeHandle;
use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use dlm_core::{HierNode, NodeId};
use dlm_metrics::Histogram;
use dlm_trace::{merge_records, TraceRecord};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Upper bound on inputs a worker processes before the batch boundary
/// (coalesce flush, retransmissions, acks). Large enough to pack hot links
/// well, small enough to keep retransmission ticks timely.
const BATCH: usize = 256;

/// How often an otherwise idle worker wakes to refresh its heartbeat stamp.
/// Bounds failure-detection latency from below: [`crate::Cluster::suspects`]
/// should use a staleness threshold of several multiples of this.
const HEARTBEAT: Duration = Duration::from_millis(25);

/// The process-wide counters and gauges every worker and transport of one
/// cluster (or one socket member) shares.
#[derive(Clone, Default)]
pub(crate) struct Counters {
    /// Protocol messages transmitted.
    pub(crate) messages: Arc<AtomicU64>,
    /// Completion replies whose application-side receiver was already gone.
    pub(crate) replies_dropped: Arc<AtomicU64>,
    /// Physical frames created but not yet fully processed by their
    /// receiving worker (includes frames parked inside the transport and
    /// protocol frames buffered for coalescing).
    pub(crate) in_flight: Arc<AtomicU64>,
    /// Data sequences sent but not yet cumulatively acked (reliability shim
    /// only; 0 otherwise).
    pub(crate) unacked: Arc<AtomicU64>,
}

impl Counters {
    pub(crate) fn messages_sent(&self) -> u64 {
        self.messages.load(Ordering::Relaxed)
    }

    /// No frame in local flight and no data sequence awaiting an ack.
    pub(crate) fn is_idle(&self) -> bool {
        self.in_flight.load(Ordering::Relaxed) == 0 && self.unacked.load(Ordering::Relaxed) == 0
    }

    /// Quiescence wait: the message count once it has stayed stable for
    /// `idle` with [`Self::is_idle`] holding throughout, or whatever it is
    /// when `timeout` elapses first.
    ///
    /// "Idle" consults the gauges, not just the send counter: a frame parked
    /// in a delaying router (or a dropped frame awaiting retransmission, or
    /// a protocol frame buffered for coalescing) produces no sends for
    /// longer than a small `idle` window, and judging by counter stability
    /// alone would declare quiescence while the cluster still owes itself
    /// traffic.
    pub(crate) fn quiesce_within(&self, idle: Duration, timeout: Duration) -> u64 {
        let start = Instant::now();
        let tick = (idle / 8).max(Duration::from_micros(200)).min(idle);
        let mut last = self.messages_sent();
        let mut stable_since = Instant::now();
        loop {
            if start.elapsed() >= timeout {
                return self.messages_sent();
            }
            std::thread::sleep(tick);
            let count = self.messages_sent();
            if count != last || !self.is_idle() {
                last = count;
                stable_since = Instant::now();
            } else if stable_since.elapsed() >= idle {
                return count;
            }
        }
    }
}

/// One node's shard workers.
pub(crate) struct Member {
    id: u32,
    /// Per shard: input channel, admission gate, live metrics, heartbeat
    /// stamp (µs since the cluster epoch), thread.
    inputs: Vec<Sender<Input>>,
    gates: Vec<Arc<ShardGate>>,
    metrics: Vec<Arc<Mutex<NodeMetrics>>>,
    beats: Arc<Vec<AtomicU64>>,
    joins: Vec<JoinHandle<NodeExit>>,
    replies_dropped: Arc<AtomicU64>,
}

/// Input channels for `slots` workers: the sender halves (which a transport
/// needs before the workers exist) and the receiver halves for
/// [`Member::spawn`].
pub(crate) fn channels(slots: usize) -> (Vec<Sender<Input>>, Vec<Receiver<Input>>) {
    (0..slots).map(|_| unbounded()).unzip()
}

impl Member {
    /// Spawn node `id`'s workers, one per `(input, rx)` pair, sending
    /// through `transport` from worker slots `id * shards + shard`.
    /// `config.reliable` must already be resolved for the transport class.
    pub(crate) fn spawn(
        id: u32,
        config: ClusterConfig,
        inputs: Vec<Sender<Input>>,
        rxs: Vec<Receiver<Input>>,
        transport: Arc<dyn Transport>,
        counters: &Counters,
        epoch: Instant,
    ) -> Member {
        let shards = effective_shards(config.shards);
        assert_eq!(rxs.len(), shards, "one input channel per shard");
        let gates: Vec<_> = (0..shards)
            .map(|_| Arc::new(ShardGate::new(config.shard_queue)))
            .collect();
        let metrics: Vec<_> = (0..shards).map(|_| Arc::default()).collect();
        let beats: Arc<Vec<AtomicU64>> = Arc::new((0..shards).map(|_| AtomicU64::new(0)).collect());
        let joins = rxs
            .into_iter()
            .enumerate()
            .map(|(shard, rx)| {
                let counters = counters.clone();
                let (metrics, gate) = (Arc::clone(&metrics[shard]), Arc::clone(&gates[shard]));
                let (transport, beats) = (Arc::clone(&transport), Arc::clone(&beats));
                std::thread::Builder::new()
                    .name(format!("dlm-node-{id}.{shard}"))
                    .spawn(move || {
                        // Built on its own thread: the lock table's
                        // allocation is the expensive part of start-up.
                        let engine = ShardEngine::new(
                            NodeId(id),
                            shard as u32,
                            &config,
                            epoch,
                            counters,
                            metrics,
                            gate,
                        );
                        drive(engine, rx, &*transport, &beats[shard], epoch)
                    })
                    .expect("spawn worker thread")
            })
            .collect();
        Member {
            id,
            inputs,
            gates,
            metrics,
            beats,
            joins,
            replies_dropped: Arc::clone(&counters.replies_dropped),
        }
    }

    pub(crate) fn id(&self) -> u32 {
        self.id
    }

    /// A cloneable blocking handle to this member's application interface.
    pub(crate) fn handle(&self) -> NodeHandle {
        NodeHandle::new(
            NodeId(self.id),
            self.inputs.clone(),
            self.gates.clone(),
            Arc::clone(&self.replies_dropped),
        )
    }

    /// Send `make()` to every worker of this member.
    pub(crate) fn broadcast(&self, make: impl Fn() -> Input) {
        for tx in &self.inputs {
            let _ = tx.send(make());
        }
    }

    /// Per worker: its admission gate and live metrics, in shard order.
    pub(crate) fn workers(&self) -> impl Iterator<Item = (&ShardGate, &Mutex<NodeMetrics>)> {
        self.gates
            .iter()
            .zip(&self.metrics)
            .map(|(g, m)| (&**g, &**m))
    }

    /// Heartbeat failure detector: true if any worker's thread has
    /// terminated outright (panicked) or its stamp is older than `stale_us`
    /// at `now_us` (both µs since the cluster epoch).
    pub(crate) fn is_suspect(&self, now_us: u64, stale_us: u64) -> bool {
        self.joins
            .iter()
            .zip(self.beats.iter())
            .any(|(join, beat)| {
                join.is_finished() || now_us.saturating_sub(beat.load(Ordering::Relaxed)) > stale_us
            })
    }

    /// Apply a repair wave around the crashed node `dead` to every worker.
    pub(crate) fn repair(
        &self,
        dead: u32,
        survivors: &Arc<Vec<NodeId>>,
        plans: &Arc<Vec<(u32, u32, u32)>>,
    ) {
        self.broadcast(|| Input::PeerDown {
            dead: NodeId(dead),
            survivors: Arc::clone(survivors),
            plans: Arc::clone(plans),
        });
    }

    /// Join the workers (after [`Input::Shutdown`] was broadcast) and fold
    /// what they hand back into `out`.
    pub(crate) fn collect(self, out: &mut Collected) {
        let mut states: Vec<(u32, HierNode)> = Vec::new();
        let mut links = Vec::new();
        let mut coalesce = Vec::new();
        for m in &self.metrics {
            let m = m.lock().expect("metrics mutex");
            out.acquire_latency.merge(&m.acquire_latency);
            out.acquire_hops.merge(&m.acquire_hops);
        }
        for join in self.joins {
            // A worker that panicked is reported, not propagated: its
            // shard's state is simply gone, exactly as if the node crashed.
            let Ok(exit) = join.join() else {
                out.workers_died += 1;
                continue;
            };
            states.extend(exit.locks);
            out.traces.push(exit.trace);
            out.trace_dropped += exit.trace_dropped;
            out.decode_errors += exit.decode_errors;
            out.frames_fenced += exit.frames_fenced;
            links.extend(exit.links);
            coalesce.extend(exit.coalesce);
        }
        states.sort_by_key(|(lock, _)| *lock);
        out.states.push(states);
        out.per_member.push((self.id, links, coalesce));
    }
}

/// Recovery scan fan-out: every worker of `members` reports `(lock,
/// has_token, epoch)` for the locks it hosts; one [`ScanReport`] per worker
/// that answered in time. Only meaningful on quiescent members.
pub(crate) fn scan<'a>(members: impl IntoIterator<Item = &'a Member>) -> Vec<ScanReport> {
    let (tx, rx) = unbounded();
    let mut expected = 0;
    for member in members {
        member.broadcast(|| Input::Scan(tx.clone()));
        expected += member.inputs.len();
    }
    drop(tx);
    let mut rows = Vec::with_capacity(expected);
    while rows.len() < expected {
        let Ok(row) = rx.recv_timeout(Duration::from_secs(5)) else {
            break;
        };
        rows.push(row);
    }
    rows
}

/// What [`shutdown`] gathered from the members and the transport.
#[derive(Default)]
pub(crate) struct Collected {
    /// Per member, in the order given: its final per-lock protocol states
    /// (only locks it ever touched), sorted by lock id.
    pub(crate) states: Vec<Vec<(u32, HierNode)>>,
    /// The workers' and the transport's records merged into one timeline.
    pub(crate) trace: Vec<TraceRecord>,
    traces: Vec<Vec<TraceRecord>>,
    pub(crate) trace_dropped: u64,
    /// Payload-level failures counted by the workers plus wire-level
    /// reassembly failures counted by a socket transport.
    pub(crate) decode_errors: u64,
    pub(crate) frames_fenced: u64,
    pub(crate) workers_died: u64,
    /// The directed-link table (see [`merge_links`]).
    pub(crate) links: Vec<LinkReport>,
    per_member: Vec<(u32, Vec<PeerSnapshot>, Vec<CoalesceStat>)>,
    pub(crate) acquire_latency: Histogram,
    pub(crate) acquire_hops: Histogram,
}

/// Shut `members` down and collect what they and `transport` report.
///
/// Teardown order matters:
/// 1. *Drain* — wait (bounded) until no physical frame is in flight and no
///    data sequence is unacked, so nothing is still parked in a router heap
///    or a retransmission queue. (A member with unacked data to an
///    already-dead peer gives up after the bound.)
/// 2. *Stop the transport* — any straggler still parked is flushed into its
///    destination channel while the worker threads are alive.
/// 3. *Stop the workers* — `Shutdown` is queued behind the flushed frames,
///    so every worker processes all delivered traffic first.
///
/// The original teardown ran 3 before 2 and lost parked frames: nodes
/// exited, then the router flushed into channels nobody would read, and the
/// final audit saw a cluster missing messages it was owed.
pub(crate) fn shutdown(
    members: Vec<Member>,
    transport: &dyn Transport,
    counters: &Counters,
) -> Collected {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !counters.is_idle() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_micros(200));
    }
    let report = transport.shutdown();
    for member in &members {
        member.broadcast(|| Input::Shutdown);
    }
    let mut out = Collected {
        trace_dropped: report.trace_dropped,
        decode_errors: report.wire_decode_errors,
        ..Collected::default()
    };
    for member in members {
        member.collect(&mut out);
    }
    out.traces.push(report.trace);
    out.trace = merge_records(std::mem::take(&mut out.traces));
    out.links = merge_links(&out.per_member, &report.faults, &report.socket);
    out
}

/// Combine per-member reliability snapshots and coalescing counters with
/// the transport's fault tallies and socket wire counters into one
/// directed-link table.
fn merge_links(
    members: &[(u32, Vec<PeerSnapshot>, Vec<CoalesceStat>)],
    faults: &[LinkFaults],
    socket: &[SocketLinkStat],
) -> Vec<LinkReport> {
    fn slot(map: &mut BTreeMap<(u32, u32), LinkReport>, from: u32, to: u32) -> &mut LinkReport {
        map.entry((from, to)).or_insert_with(|| LinkReport {
            from,
            to,
            ..LinkReport::default()
        })
    }
    let mut map: BTreeMap<(u32, u32), LinkReport> = BTreeMap::new();
    for (node, snaps, coalesce) in members {
        for s in snaps {
            // `s` is `node`'s endpoint state for peer `s.peer`: the sender
            // half describes the `node → peer` link, the receiver half (and
            // the acks it produced) describes `peer → node`.
            let tx = slot(&mut map, *node, s.peer);
            tx.data_sent += s.data_sent;
            tx.retransmits += s.retransmits;
            let rx = slot(&mut map, s.peer, *node);
            rx.acks_sent += s.acks_sent;
            rx.dups_suppressed += s.dups_suppressed;
            rx.reorders_buffered += s.reorders_buffered;
        }
        for c in coalesce {
            let link = slot(&mut map, *node, c.peer);
            link.proto_sent += c.proto_sent;
            link.wire_sent += c.wire_sent;
        }
    }
    for f in faults {
        let link = slot(&mut map, f.from, f.to);
        link.dropped += f.dropped;
        link.duplicated += f.duplicated;
        link.reordered += f.reordered;
    }
    for s in socket {
        let link = slot(&mut map, s.from, s.to);
        link.wire_bytes += s.bytes;
        link.resets += s.resets;
    }
    map.into_values().collect()
}

/// The worker thread: feed `engine` from `rx` in batches, stamp its
/// heartbeat, and sleep no longer than its next deadline allows.
///
/// Peers are addressed by node; the destination slot is the same shard
/// there (lock → shard is node-independent, so lock state for this shard's
/// locks lives on this shard everywhere).
fn drive(
    mut engine: ShardEngine,
    rx: Receiver<Input>,
    transport: &dyn Transport,
    beat: &AtomicU64,
    epoch: Instant,
) -> NodeExit {
    let (me, shard, shards) = engine.address();
    let my_slot = NodeId(me.0 * shards + shard);
    let mut wire =
        |to: NodeId, frame: Bytes| transport.send(my_slot, NodeId(to.0 * shards + shard), frame);
    let mut now = Instant::now();
    let mut running = true;
    while running {
        // A worker that stops looping (panicked, wedged) or whose engine
        // died goes stale, and the failure detector flags its node.
        if engine.is_alive() {
            let stamp = now.saturating_duration_since(epoch).as_micros() as u64;
            beat.store(stamp, Ordering::Relaxed);
        }
        // With unacked frames outstanding, sleep only until the earliest
        // retransmission deadline; either way wake at least every
        // `HEARTBEAT` so the stamp above stays fresh while idle.
        let wait = engine.next_deadline().map_or(HEARTBEAT, |due| {
            due.saturating_duration_since(now).min(HEARTBEAT)
        });
        match rx.recv_timeout(wait) {
            // Drain a batch: the first (blocking) input plus whatever else
            // is already queued, bounded so the batch boundary stays timely
            // under sustained load. The clock is read once per input.
            Ok(input) => {
                running = engine.step(input, Instant::now());
                let mut drained = 1;
                while running && drained < BATCH {
                    let Ok(input) = rx.try_recv() else { break };
                    running = engine.step(input, Instant::now());
                    drained += 1;
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
        now = Instant::now();
        engine.end_batch(now, &mut wire);
    }
    engine.finish()
}
