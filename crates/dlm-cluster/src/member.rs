//! The member runtime: one node's shard workers as threads, and the
//! lifecycle both [`crate::Cluster`] (N members on an in-process transport)
//! and [`crate::Node`] (one member on a socket) are thin drivers over —
//! spawn, handle, settle, scan, repair, drain-and-shutdown. Every wait in
//! it ends on the gauges ([`Counters::settle`]) or on an answer, never on
//! a quiet window.
//!
//! Each worker thread is a ~60-line driver ([`drive`]) around a sans-IO
//! [`ShardEngine`]: it owns the input channel, the clock and the heartbeat
//! stamp, and nothing else.

use crate::engine::{Input, NodeExit, NodeMetrics, ShardEngine};
use crate::runtime::{ClusterConfig, LinkReport, ScanReport};
use crate::shard::{effective_shards, ShardGate};
use crate::transport::Transport;
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

/// Poll period of [`Counters::settle`]: short against the ≈ 0.1 ms a
/// recovery's own work takes, and a sleep, so the poll leaves the CPU to
/// the workers it waits for.
const SETTLE_POLL: Duration = Duration::from_micros(20);

/// How long a fan-out ([`scan`], [`repair`]) waits for the next worker's
/// answer before giving up on the rest.
const ANSWER_TIMEOUT: Duration = Duration::from_secs(5);

/// The process-wide counters and gauges every worker and transport of one
/// cluster (or one socket member) shares.
#[derive(Clone, Default)]
pub(crate) struct Counters {
    /// Protocol messages transmitted.
    pub(crate) messages: Arc<AtomicU64>,
    /// Completion replies whose application-side receiver was already gone.
    pub(crate) replies_dropped: Arc<AtomicU64>,
    /// Grants released by their engine because nobody was left to hear of
    /// them (see [`crate::ClusterReport::grants_abandoned`]).
    pub(crate) grants_abandoned: Arc<AtomicU64>,
    /// Physical frames created but not yet fully processed by their
    /// receiving worker (includes frames parked inside the transport and
    /// protocol frames buffered for coalescing), plus application op
    /// chunks sent to a worker but not yet stepped.
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

    /// Poll until [`Self::is_idle`] reads true or `deadline` passes, then
    /// return the message count: the one in-process wait (DESIGN.md §18,
    /// "Gauge discipline"). Quiescence is a settle; recovery pairs it with
    /// acknowledged fan-outs and a message-count re-check, shutdown with
    /// stopping the transport before the workers.
    pub(crate) fn settle(&self, deadline: Instant) -> u64 {
        while !self.is_idle() && Instant::now() < deadline {
            std::thread::sleep(SETTLE_POLL);
        }
        self.messages_sent()
    }
}

/// One node's shard workers.
pub(crate) struct Member {
    /// A blocking handle to this member's application interface, which
    /// also holds its node id and, per shard, input channel and admission
    /// gate.
    pub(crate) handle: NodeHandle,
    /// Per shard: live metrics, heartbeat stamp (µs since the cluster
    /// epoch), thread.
    metrics: Vec<Arc<Mutex<NodeMetrics>>>,
    beats: Arc<Vec<AtomicU64>>,
    joins: Vec<JoinHandle<NodeExit>>,
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
    /// `config.reliable`, if set, carries the retransmission floor of the
    /// transport (set by `Cluster::new` / `Node::new`).
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
            handle: NodeHandle {
                node: NodeId(id),
                txs: inputs,
                gates,
                in_flight: Arc::clone(&counters.in_flight),
            },
            metrics,
            beats,
            joins,
        }
    }

    pub(crate) fn id(&self) -> u32 {
        self.handle.node.0
    }

    /// Send `make()` to every worker of this member; returns how many
    /// workers' channels took it (a worker whose thread is gone takes
    /// nothing).
    pub(crate) fn broadcast(&self, make: impl Fn() -> Input) -> usize {
        self.handle
            .txs
            .iter()
            .filter(|tx| tx.send(make()).is_ok())
            .count()
    }

    /// Per worker: its admission gate and live metrics, in shard order.
    pub(crate) fn workers(&self) -> impl Iterator<Item = (&ShardGate, &Mutex<NodeMetrics>)> {
        self.handle
            .gates
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

    /// Join the workers (after [`Input::Shutdown`] was broadcast) and fold
    /// what they hand back into `out`.
    pub(crate) fn collect(self, out: &mut Collected) {
        for m in &self.metrics {
            let m = m.lock().expect("metrics mutex");
            out.acquire_latency.merge(&m.acquire_latency);
            out.acquire_hops.merge(&m.acquire_hops);
        }
        // A worker that panicked is reported, not propagated: its shard's
        // state is simply gone, exactly as if the node crashed.
        let exits: Vec<NodeExit> = self
            .joins
            .into_iter()
            .filter_map(|join| join.join().ok())
            .collect();
        out.workers_died += (self.handle.txs.len() - exits.len()) as u64;
        // Sized once: the lock tables are the largest thing a member hands
        // back, and a growing vector would hold two copies at its last step.
        let mut states = Vec::with_capacity(exits.iter().map(|exit| exit.locks.len()).sum());
        for exit in exits {
            states.extend(exit.locks);
            out.traces.push(exit.trace);
            out.trace_dropped += exit.trace_dropped;
            out.decode_errors += exit.decode_errors;
            out.frames_fenced += exit.frames_fenced;
            out.links.extend(exit.links);
        }
        // Lock ids are unique across shards, so the in-place sort loses
        // nothing to the stable one (which would borrow half a copy).
        states.sort_unstable_by_key(|(lock, _)| *lock);
        out.states.push(states);
    }
}

/// Recovery scan fan-out: every worker of `members` reports `(lock,
/// has_token, epoch)` for the locks it hosts; one [`ScanReport`] per worker
/// that answered in time. Only meaningful on quiescent members.
pub(crate) fn scan<'a>(members: impl IntoIterator<Item = &'a Member>) -> Vec<ScanReport> {
    let (tx, rx) = unbounded();
    let expected = members
        .into_iter()
        .map(|member| member.broadcast(|| Input::Scan(tx.clone())))
        .sum();
    drop(tx);
    answers(&rx, expected)
}

/// One repair wave (DESIGN.md §17), shared by every worker it is sent to:
/// the crashed node, the surviving membership, the plans `(lock, new_root,
/// new_epoch)`, and where each worker acknowledges that it has applied the
/// wave.
pub(crate) struct Wave {
    pub(crate) dead: NodeId,
    pub(crate) survivors: Vec<NodeId>,
    pub(crate) plans: Vec<(u32, u32, u32)>,
    pub(crate) applied: Sender<()>,
}

/// Repair fan-out: send the wave around the crashed node `dead` to every
/// worker of `members` and return once each worker has applied it (or has
/// failed to answer in time). Frames the wave caused are on the gauges by
/// then; a caller that needs them delivered settles afterwards.
pub(crate) fn repair<'a>(
    members: impl IntoIterator<Item = &'a Member>,
    dead: u32,
    survivors: Vec<NodeId>,
    plans: Vec<(u32, u32, u32)>,
) {
    let (applied, rx) = unbounded();
    let wave = Arc::new(Wave {
        dead: NodeId(dead),
        survivors,
        plans,
        applied,
    });
    let expected = members
        .into_iter()
        .map(|member| member.broadcast(|| Input::PeerDown(Arc::clone(&wave))))
        .sum();
    // The workers' copies are the only senders left: a worker that dies
    // with the wave unapplied disconnects the channel instead of stalling
    // the wait for its answer.
    drop(wave);
    answers(&rx, expected);
}

/// Up to `expected` answers from a fan-out, each awaited at most
/// [`ANSWER_TIMEOUT`]; fewer if the senders are gone.
fn answers<T>(rx: &Receiver<T>, expected: usize) -> Vec<T> {
    let mut out = Vec::with_capacity(expected);
    while out.len() < expected {
        let Ok(answer) = rx.recv_timeout(ANSWER_TIMEOUT) else {
            break;
        };
        out.push(answer);
    }
    out
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
    /// The directed-link table (see [`fold_links`]).
    pub(crate) links: Vec<LinkReport>,
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
    counters.settle(Instant::now() + Duration::from_secs(10));
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
    out.links.extend(report.links);
    out.links = fold_links(&out.links);
    out
}

/// The directed-link table: every layer's rows summed per `(from, to)`,
/// sorted, without the all-zero rows.
pub(crate) fn fold_links(rows: &[LinkReport]) -> Vec<LinkReport> {
    let mut table: BTreeMap<(u32, u32), LinkReport> = BTreeMap::new();
    for row in rows {
        table
            .entry((row.from, row.to))
            .or_insert_with(|| LinkReport::new(row.from, row.to))
            .add(row);
    }
    table
        .into_values()
        .filter(|link| *link != LinkReport::new(link.from, link.to))
        .collect()
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

#[cfg(test)]
mod tests {
    use super::*;

    /// A `from → to` row with every counter given, in declaration order:
    /// `data_sent retransmits acks_sent dups_suppressed reorders_buffered |
    /// dropped duplicated reordered | proto_sent wire_sent | wire_bytes
    /// resets`.
    fn link(from: u32, to: u32, c: [u64; 12]) -> LinkReport {
        let mut row = LinkReport::new(from, to);
        let r = &mut row;
        let fields = [
            &mut r.data_sent,
            &mut r.retransmits,
            &mut r.acks_sent,
            &mut r.dups_suppressed,
            &mut r.reorders_buffered,
            &mut r.dropped,
            &mut r.duplicated,
            &mut r.reordered,
            &mut r.proto_sent,
            &mut r.wire_sent,
            &mut r.wire_bytes,
            &mut r.resets,
        ];
        for (field, value) in fields.into_iter().zip(c) {
            *field = value;
        }
        row
    }

    /// Rows for the same two links from every layer, in no particular
    /// order, plus the all-zero rows engines and the router report for
    /// links that carried nothing: one sorted row per link comes out,
    /// counters summed, zero rows gone.
    #[test]
    fn the_fold_sums_every_layer_into_one_row_per_link() {
        let rows = [
            // Node 0's socket stat: bytes each way, one reset on the pair.
            link(0, 1, [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 60, 1]),
            link(1, 0, [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 40, 1]),
            // Node 1's engine: reliability (sender half 1 → 0, receiver
            // half 0 → 1), coalescing, an idle peer.
            link(1, 0, [2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
            link(0, 1, [0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0]),
            link(1, 0, [0, 0, 0, 0, 0, 0, 0, 0, 2, 2, 0, 0]),
            LinkReport::new(1, 2),
            // The fault router: one link hit, one untouched.
            link(0, 1, [0, 0, 0, 0, 0, 1, 1, 2, 0, 0, 0, 0]),
            LinkReport::new(2, 1),
            // Node 0's engine, the same way round.
            link(0, 1, [3, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
            link(1, 0, [0, 0, 2, 0, 1, 0, 0, 0, 0, 0, 0, 0]),
            link(0, 1, [0, 0, 0, 0, 0, 0, 0, 0, 5, 3, 0, 0]),
            LinkReport::new(0, 2),
            LinkReport::new(2, 0),
        ];
        let expected = [
            link(0, 1, [3, 1, 1, 1, 0, 1, 1, 2, 5, 3, 60, 1]),
            link(1, 0, [2, 0, 2, 0, 1, 0, 0, 0, 2, 2, 40, 1]),
        ];
        assert_eq!(fold_links(&rows), expected);
    }
}
