//! The sans-IO shard engine: everything one shard worker knows and does,
//! with no thread, no channel read and no clock of its own.
//!
//! A [`ShardEngine`] owns its shard's protocol instances (created lazily on
//! first touch, so a node can host millions of mostly-idle locks), the
//! `(lock, request)` waiter map, the reliability [`Endpoint`], the per-peer
//! coalesce buffers, the codec and effect scratch, the trace ring and the
//! decode/fence counters. A driver feeds it:
//!
//! * [`ShardEngine::step`]`(input, now)` — apply one [`Input`]. Time is an
//!   argument; every trace stamp and waiter start time of the step is `now`.
//!   A step never writes to the wire: protocol frames it produces are
//!   buffered per destination (raising the in-flight gauge so quiescence
//!   cannot be declared under them).
//! * [`ShardEngine::end_batch`]`(now, wire)` — the batch boundary, and the
//!   only place a frame leaves: buffered frames go out as one wire frame per
//!   destination (a container when more than one is packed — one transport
//!   handoff, one reliability sequence number, one ack), then the
//!   reliability shim retransmits what is overdue at `now` and flushes the
//!   acks it owes. `wire(to, frame)` is addressed by *node*.
//! * [`ShardEngine::next_deadline`] — when `end_batch` next has timed work
//!   (the earliest retransmission), so a driver knows how long it may sleep.
//!
//! The thread driver in [`crate::member`] is the production driver; the
//! tests in this module step engines by hand under a fabricated clock.

use crate::codec;
use crate::handle::{ClusterError, Completion, OpKind, PipeOp};
use crate::member::{Counters, Wave};
use crate::reliable::{peek_lock, Endpoint};
use crate::runtime::{ClusterConfig, LinkReport, ScanReport};
use crate::shard::{effective_shards, shard_of, FastMap, ShardGate};
use crate::transport::TRANSPORT_LOCK;
use bytes::{Bytes, BytesMut};
use crossbeam::channel::Sender;
use dlm_core::{Effect, EffectBuf, HierNode, LockId, Mode, NodeId, ProtocolConfig};
use dlm_metrics::Histogram;
use dlm_trace::{
    NullObserver, Observer, ProtocolEvent, Recorder, RingRecorder, Stamp, TraceRecord,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What a shard worker is fed.
pub(crate) enum Input {
    /// An encoded wire frame from worker slot `from`.
    Net { from: NodeId, frame: Bytes },
    /// A batch of application operations: a pipelined chunk, or a
    /// blocking call's chunk of one. Outcomes settled while processing the
    /// batch are answered as one vector on `tx`; deferred grants follow
    /// later as singleton vectors. The sender put the chunk on the
    /// in-flight gauge; stepping it takes that claim back.
    Ops {
        ops: Vec<PipeOp>,
        tx: Sender<Vec<Completion>>,
    },
    /// Simulated node crash: the engine abandons its protocol state, fails
    /// its waiters with [`ClusterError::WorkerDied`], and from then on only
    /// consumes — incoming frames are discarded and application operations
    /// refused — until `Shutdown`. Its driver stops heartbeating, which is
    /// how the failure detector notices.
    Die,
    /// Link-layer obituary: stop retransmitting to (and expecting acks
    /// from) `dead`, whose silence would otherwise hold the unacked gauge —
    /// and with it quiescence — hostage forever.
    Isolate { dead: NodeId },
    /// Report `(lock, has_token, epoch)` for every lock this worker hosts,
    /// tagged with the worker's node id. The recovery coordinator scans
    /// survivors with this before planning a repair wave.
    Scan(Sender<ScanReport>),
    /// Recovery wave (DESIGN.md §17): repair every planned lock owned by
    /// this worker around the crashed node, then acknowledge on the wave's
    /// `applied` channel. One `Arc` per wave keeps the variant one pointer
    /// wide.
    PeerDown(Arc<Wave>),
    /// Panic inside `step`, so the thread-level tests can watch a worker
    /// die for real (counted in `workers_died`, never propagated).
    #[cfg(test)]
    Panic,
    /// Stop: `step` returns `false` and the driver collects
    /// [`ShardEngine::finish`].
    Shutdown,
}

/// Per-worker operation metrics: request latency/hop distributions and
/// operation counters. Written by the engine, read live by
/// [`crate::Cluster::metrics_snapshot`] under a short-lived mutex that is
/// touched once per application input for the operations it settled in
/// its own step, and once per grant that network traffic completes — never
/// per message — so the counts are exact at input boundaries.
#[derive(Debug, Default)]
pub(crate) struct NodeMetrics {
    /// Wall-clock µs, issue → grant, for completed acquires and upgrades.
    pub(crate) acquire_latency: Histogram,
    /// Causal hop depth of the frame that delivered each grant.
    pub(crate) acquire_hops: Histogram,
    /// Completed acquire operations (blocking, pipelined, and try).
    pub(crate) acquires: u64,
    /// Completed Rule 7 upgrades.
    pub(crate) upgrades: u64,
    /// Completed releases.
    pub(crate) releases: u64,
}

impl NodeMetrics {
    fn granted(&mut self, latency_us: u64, hops: u64, upgraded: bool) {
        self.acquire_latency.record(latency_us);
        self.acquire_hops.record(hops);
        if upgraded {
            self.upgrades += 1;
        } else {
            self.acquires += 1;
        }
    }
}

/// What an engine hands back when it stops.
pub(crate) struct NodeExit {
    /// This shard's protocol instances, keyed by lock id (only locks the
    /// engine ever touched; empty if it crashed).
    pub(crate) locks: FastMap<u32, HierNode>,
    pub(crate) trace: Vec<TraceRecord>,
    pub(crate) trace_dropped: u64,
    pub(crate) decode_errors: u64,
    pub(crate) frames_fenced: u64,
    /// Link telemetry rows: reliability counters (when the shim runs) and
    /// per-peer coalescing counters, unsummed.
    pub(crate) links: Vec<LinkReport>,
}

/// Grants and releases settled in the step of their own input, counted in
/// plain fields and folded into the shared [`NodeMetrics`] once per input
/// ([`ShardEngine::publish`]).
#[derive(Default)]
struct Settled {
    acquires: u64,
    upgrades: u64,
    releases: u64,
}

/// Where a waiting operation's outcome goes: a singleton vector on its
/// chunk's completion stream, tagged with the operation's identity.
struct Reply {
    tx: Sender<Vec<Completion>>,
    lock: LockId,
    tag: u64,
}

impl Reply {
    /// Deliver the outcome now. Returns whether anybody heard it: the
    /// application side may have given up, and an answer nobody hears is
    /// not an error, but it must not vanish silently either — it is counted
    /// in `dropped`, and the engine releases a grant nobody heard.
    fn complete(self, result: Result<(), ClusterError>, dropped: &AtomicU64) -> bool {
        let Reply { tx, lock, tag } = self;
        let heard = tx.send(vec![Completion { lock, tag, result }]).is_ok();
        if !heard {
            dropped.fetch_add(1, Ordering::Relaxed);
        }
        heard
    }
}

/// A blocked application operation: its reply channel plus the request-span
/// identity and issue time used for grant-side metrics and trace events.
struct Waiter {
    reply: Reply,
    /// Request id assigned at issue (`node << 32 | per-worker counter`).
    req: u64,
    /// Issue time (the issuing step's `now`), for the latency histogram.
    started: Instant,
}

/// The state every lock starts in at `node`: node 0 holds every token, and
/// is everyone else's parent.
pub(crate) fn fresh_state(node: NodeId, protocol: ProtocolConfig) -> HierNode {
    if node == NodeId(0) {
        HierNode::with_token(node, protocol)
    } else {
        HierNode::new(node, NodeId(0), protocol)
    }
}

/// The protocol instance for `lock` in `locks`, created on first touch.
fn lock_state(
    locks: &mut FastMap<u32, HierNode>,
    me: NodeId,
    protocol: ProtocolConfig,
    lock: LockId,
) -> &mut HierNode {
    locks
        .entry(lock.0)
        .or_insert_with(|| fresh_state(me, protocol))
}

/// One shard worker's state machine; see the module docs for the driving
/// contract.
pub(crate) struct ShardEngine {
    me: NodeId,
    /// This worker's shard index — the residue of its request ids and the
    /// filter that picks its locks out of a recovery plan.
    shard: u32,
    /// The node's shard count — the stride of the request-id counter and
    /// the slot-to-node divisor for transport addresses.
    shards: u32,
    protocol: ProtocolConfig,
    locks: FastMap<u32, HierNode>,
    /// Application waiters keyed by `(lock, request id)`. The protocol
    /// still admits one *pending* operation per lock per node (enforced via
    /// `active`), but the key shape keeps every waiter's identity distinct
    /// across locks — any number of locks can have an operation in flight
    /// concurrently from one node.
    waiters: FastMap<(u32, u64), Waiter>,
    /// The outstanding request id per lock, if any ([`ClusterError::Busy`]
    /// guards it).
    active: FastMap<u32, u64>,
    endpoint: Option<Endpoint>,
    /// One long-lived encode buffer: every outgoing frame is built in place
    /// and copied out, so steady-state transmission does no buffer growth.
    /// The container scratch is separate because a container is assembled
    /// from frames the encode scratch already produced.
    encode_scratch: BytesMut,
    container_scratch: BytesMut,
    /// One long-lived effect sink: every protocol entry point drains into
    /// it via the `*_into` API, so steady-state protocol steps do no heap
    /// allocation for effects.
    effect_buf: EffectBuf,
    /// Reused scratch for the reliability shim's outputs and container
    /// unpacking.
    inbox: Vec<Bytes>,
    subframes: Vec<Bytes>,
    rel_events: Vec<(u32, ProtocolEvent)>,
    recorder: Option<RingRecorder>,
    /// Time base of trace stamps (shared by every engine of a cluster so
    /// their records merge into one timeline).
    epoch: Instant,
    /// The current step's clock, and the same as µs since `epoch` (only
    /// maintained while a trace is recorded).
    now: Instant,
    at: u64,
    decode_errors: u64,
    /// Frames dropped by the epoch fence (Rule R3).
    fenced: u64,
    next_req: u32,
    /// Coalescing state: per-peer-node buffered protocol frames, the peers
    /// with a non-empty buffer (in first-touch order), and per-peer packing
    /// counters.
    pending: Vec<Vec<Bytes>>,
    pending_peers: Vec<u32>,
    proto_sent: Vec<u64>,
    wire_sent: Vec<u64>,
    /// Completions of the [`Input::Ops`] chunk being stepped that settled
    /// in the chunk's own step, shipped to the client as a single channel
    /// send at chunk end, and the locks among them that were granted
    /// (released again if the send finds nobody). Ops that wait answer
    /// later, one singleton each, through their waiter's [`Reply`].
    comp_batch: Vec<Completion>,
    batch_grants: Vec<LockId>,
    /// Same-step grants and releases not yet folded into `metrics`.
    settled: Settled,
    metrics: Arc<Mutex<NodeMetrics>>,
    gate: Arc<ShardGate>,
    counters: Counters,
    crashed: bool,
}

impl ShardEngine {
    /// The engine of worker `shard` of node `me`. `epoch` is the trace time
    /// base; `metrics` and `gate` are this worker's externally visible
    /// slots, `counters` the process-wide ones.
    pub(crate) fn new(
        me: NodeId,
        shard: u32,
        config: &ClusterConfig,
        epoch: Instant,
        counters: Counters,
        metrics: Arc<Mutex<NodeMetrics>>,
        gate: Arc<ShardGate>,
    ) -> Self {
        let shards = effective_shards(config.shards);
        ShardEngine {
            me,
            shard,
            shards: shards as u32,
            protocol: config.protocol,
            // Pre-sized to the shard's expected share so a million-lock
            // churn run never stalls on mid-run rehashes of a
            // multi-hundred-megabyte map.
            locks: FastMap::with_capacity_and_hasher(config.locks / shards + 1, Default::default()),
            waiters: FastMap::default(),
            active: FastMap::default(),
            endpoint: config
                .reliable
                .map(|cfg| Endpoint::new(me, config.nodes, cfg.rto, Arc::clone(&counters.unacked))),
            encode_scratch: BytesMut::with_capacity(64),
            container_scratch: BytesMut::with_capacity(256),
            effect_buf: EffectBuf::new(),
            inbox: Vec::new(),
            subframes: Vec::new(),
            rel_events: Vec::new(),
            recorder: (config.trace_capacity > 0).then(|| RingRecorder::new(config.trace_capacity)),
            epoch,
            now: epoch,
            at: 0,
            decode_errors: 0,
            fenced: 0,
            next_req: shard,
            pending: (0..config.nodes).map(|_| Vec::new()).collect(),
            pending_peers: Vec::with_capacity(config.nodes),
            proto_sent: vec![0; config.nodes],
            wire_sent: vec![0; config.nodes],
            comp_batch: Vec::new(),
            batch_grants: Vec::new(),
            settled: Settled::default(),
            metrics,
            gate,
            counters,
            crashed: false,
        }
    }

    /// `(node, shard, shards)`: where this engine sits in the slot space.
    pub(crate) fn address(&self) -> (NodeId, u32, u32) {
        (self.me, self.shard, self.shards)
    }

    /// True until [`Input::Die`]; a dead engine's driver must not heartbeat.
    pub(crate) fn is_alive(&self) -> bool {
        !self.crashed
    }

    /// The earliest instant at which [`Self::end_batch`] has timed work (a
    /// retransmission falls due), if any frame is unacked.
    pub(crate) fn next_deadline(&self) -> Option<Instant> {
        self.endpoint.as_ref().and_then(Endpoint::next_due)
    }

    fn set_clock(&mut self, now: Instant) {
        self.now = now;
        if self.recorder.is_some() {
            self.at = now.saturating_duration_since(self.epoch).as_micros() as u64;
        }
    }

    /// Apply one input at time `now`. Returns `false` once
    /// [`Input::Shutdown`] has been consumed.
    pub(crate) fn step(&mut self, input: Input, now: Instant) -> bool {
        if self.crashed {
            return self.step_crashed(input);
        }
        self.set_clock(now);
        match input {
            Input::Net { from, frame } => self.on_net(from, frame),
            Input::Ops { ops, tx } => {
                self.gate.leave(ops.len());
                // Outcomes settled in this step accumulate in the chunk
                // batch and ship as one channel send below; only an op that
                // waits gets a `Reply` of its own (and a send, later, when
                // it resolves).
                debug_assert!(self.comp_batch.is_empty());
                self.comp_batch.reserve(ops.len());
                for op in ops {
                    self.issue(op.lock, op.kind, &tx, op.tag);
                }
                // What the chunk settled is counted before anybody hears of
                // it, so a snapshot taken once a completion arrives sees it.
                self.publish();
                self.ship_completions(&tx);
                // The chunk is stepped: what it caused is buffered, and so on
                // the gauge, before the sender's claim is taken back.
                self.counters.in_flight.fetch_sub(1, Ordering::Relaxed);
            }
            Input::Die => self.die(),
            Input::Isolate { dead } => {
                if let Some(ep) = self.endpoint.as_mut() {
                    ep.forget_peer(dead);
                }
            }
            Input::Scan(tx) => {
                let rows = self
                    .locks
                    .iter()
                    .map(|(&l, n)| (l, n.has_token(), n.epoch()))
                    .collect();
                // The coordinator may have timed out and gone; that is its
                // problem, not ours.
                let _ = tx.send((self.me.0, rows));
            }
            Input::PeerDown(wave) => {
                self.on_peer_down(wave.dead, &wave.survivors, &wave.plans);
                // Everything the wave caused is buffered, and so on the
                // in-flight gauge, before the coordinator hears of it.
                let _ = wave.applied.send(());
            }
            #[cfg(test)]
            Input::Panic => panic!("injected worker panic (Input::Panic)"),
            Input::Shutdown => return false,
        }
        true
    }

    /// The dead state: a crashed node neither sends nor processes, but it
    /// must keep *consuming* so the cluster's accounting stays truthful —
    /// every arriving physical frame and op chunk still settles the
    /// in-flight gauge, and every application operation is refused with
    /// [`ClusterError::WorkerDied`] instead of hanging its caller.
    fn step_crashed(&mut self, input: Input) -> bool {
        match input {
            Input::Net { .. } => {
                self.counters.in_flight.fetch_sub(1, Ordering::Relaxed);
            }
            Input::Ops { ops, tx } => {
                self.gate.leave(ops.len());
                let died = ops.iter().map(|op| Completion {
                    lock: op.lock,
                    tag: op.tag,
                    result: Err(ClusterError::WorkerDied),
                });
                let _ = tx.send(died.collect());
                self.counters.in_flight.fetch_sub(1, Ordering::Relaxed);
            }
            Input::Shutdown => return false,
            _ => {}
        }
        true
    }

    /// Simulated node death. Everything buffered dies with the node
    /// *before* the batch boundary would transmit it: a crashed node sends
    /// nothing, ever again.
    fn die(&mut self) {
        self.crashed = true;
        for (_, w) in self.waiters.drain() {
            let dropped = &self.counters.replies_dropped;
            w.reply.complete(Err(ClusterError::WorkerDied), dropped);
        }
        self.active.clear();
        for peer in self.pending_peers.drain(..) {
            let k = self.pending[peer as usize].len() as u64;
            self.pending[peer as usize].clear();
            self.counters.in_flight.fetch_sub(k, Ordering::Relaxed);
        }
        // Stop owing the link layer anything (and release whatever it still
        // counted against the unacked gauge on our behalf).
        if let Some(ep) = self.endpoint.as_mut() {
            // (`pending` holds one buffer per node of the cluster.)
            for peer in 0..self.pending.len() as u32 {
                ep.forget_peer(NodeId(peer));
            }
        }
        // A dead node's state is gone; the shutdown audit must not see it.
        self.locks = FastMap::default();
    }

    /// One physical frame from worker slot `from`: through the reliability
    /// shim if configured, then container unpacking, then the protocol.
    fn on_net(&mut self, from: NodeId, frame: Bytes) {
        // Transport addresses are worker slots; fold back to the node.
        let from = NodeId(from.0 / self.shards);
        let malformed = match self.endpoint.as_mut() {
            None => !self.on_payload(from, frame),
            Some(ep) => {
                let mut inbox = std::mem::take(&mut self.inbox);
                let rel_events = &mut self.rel_events;
                let mut bad = ep
                    .on_frame(
                        from,
                        frame,
                        self.now,
                        &mut |payload| inbox.push(payload),
                        &mut |lock, event| rel_events.push((lock, event)),
                    )
                    .is_err();
                for payload in inbox.drain(..) {
                    bad |= !self.on_payload(from, payload);
                }
                self.inbox = inbox;
                bad
            }
        };
        if malformed {
            self.decode_errors += 1;
            self.trace(TRANSPORT_LOCK, ProtocolEvent::DecodeError { from: from.0 });
        }
        // This physical frame is fully absorbed; any traffic it caused has
        // already raised the gauge above.
        self.counters.in_flight.fetch_sub(1, Ordering::Relaxed);
    }

    /// One reliability-layer payload: a protocol frame or a container of
    /// them. Returns false if any part was malformed.
    fn on_payload(&mut self, from: NodeId, payload: Bytes) -> bool {
        if !codec::is_container(&payload) {
            return self.on_protocol_frame(from, payload);
        }
        let mut subs = std::mem::take(&mut self.subframes);
        // A container is exact or it is rejected whole.
        let mut ok = codec::decode_container_into(payload, &mut subs).is_ok();
        if !ok {
            subs.clear();
        }
        for sub in subs.drain(..) {
            ok &= self.on_protocol_frame(from, sub);
        }
        self.subframes = subs;
        ok
    }

    /// Decode and apply one correlated protocol frame. Returns false if the
    /// frame was malformed.
    fn on_protocol_frame(&mut self, from: NodeId, payload: Bytes) -> bool {
        let Ok((lock, req, hops, frame_epoch, message)) = codec::decode_corr(payload) else {
            return false;
        };
        // One network leg of request `req`'s causal chain landed here;
        // record it before the handler so the hop precedes its consequences.
        if req != 0 {
            self.trace(
                lock.0,
                ProtocolEvent::RequestHop {
                    req,
                    hop: hops as u32,
                },
            );
        }
        // Rule R3: frames stamped with a generation other than the
        // receiving node's are fenced (dropped) instead of delivered;
        // `Recover` frames bypass the fence because they *install* the new
        // generation.
        let (delivered, node_epoch) = self.drive(lock, |node, buf, obs| {
            node.on_frame_into(from, frame_epoch, message, buf, obs)
        });
        if !delivered {
            self.fenced += 1;
        }
        self.apply_effects(lock, req, hops, node_epoch);
        true
    }

    /// Recovery wave: repair every planned lock this shard owns.
    fn on_peer_down(&mut self, dead: NodeId, survivors: &[NodeId], plans: &[(u32, u32, u32)]) {
        self.trace(
            TRANSPORT_LOCK,
            ProtocolEvent::NodeSuspected { node: dead.0 },
        );
        // The link layer must stop expecting acks from the dead node even
        // if no explicit `Isolate` preceded this wave.
        if let Some(ep) = self.endpoint.as_mut() {
            ep.forget_peer(dead);
        }
        for &(lock, new_root, new_epoch) in plans {
            let lock = LockId(lock);
            if shard_of(lock, self.shards as usize) != self.shard as usize {
                continue;
            }
            let ((), node_epoch) = self.drive(lock, |node, buf, obs| {
                node.on_peer_down_into(dead, NodeId(new_root), new_epoch, survivors, buf, obs)
            });
            self.apply_effects(lock, 0, 0, node_epoch);
        }
    }

    /// Process one operation of the chunk answered on `tx`.
    fn issue(&mut self, lock: LockId, kind: OpKind, tx: &Sender<Vec<Completion>>, tag: u64) {
        let (mode, upgrade) = match kind {
            OpKind::Release => return self.release(lock, tag),
            OpKind::Acquire(mode) => (mode, false),
            OpKind::Upgrade => (Mode::Write, true),
            OpKind::TryAcquire(mode) => {
                let node = lock_state(&mut self.locks, self.me, self.protocol, lock);
                if !node.can_admit_locally(mode) {
                    // `NodeHandle::try_acquire` reads this refusal as `false`.
                    return self.answer(lock, tag, Err(ClusterError::Busy));
                }
                (mode, false)
            }
        };
        // A second outstanding op on this lock would race the protocol's
        // single-pending model; refuse loudly instead. Operations on
        // *other* locks are unaffected — waiters are keyed `(lock, req)`.
        if self.active.contains_key(&lock.0) {
            return self.answer(lock, tag, Err(ClusterError::Busy));
        }
        let req = self.alloc_req();
        self.trace(lock.0, ProtocolEvent::RequestStart { req, mode, upgrade });
        let (result, node_epoch) = self.drive(lock, |node, buf, obs| {
            if upgrade {
                node.on_upgrade_into(buf, obs)
                    .map_err(ClusterError::Upgrade)
            } else {
                node.on_acquire_into(mode, 0, buf, obs)
                    .map_err(ClusterError::Acquire)
            }
        });
        if let Err(e) = result {
            return self.answer(lock, tag, Err(e));
        }
        if self.fast_grant(lock, req, tag) {
            return;
        }
        self.active.insert(lock.0, req);
        let reply = Reply {
            tx: tx.clone(),
            lock,
            tag,
        };
        let started = self.now;
        self.waiters.insert(
            (lock.0, req),
            Waiter {
                reply,
                req,
                started,
            },
        );
        self.apply_effects(lock, req, 0, node_epoch);
    }

    fn release(&mut self, lock: LockId, tag: u64) {
        let (result, node_epoch) =
            self.drive(lock, |node, buf, obs| node.on_release_into(buf, obs));
        if let Err(e) = result {
            return self.answer(lock, tag, Err(ClusterError::Release(e)));
        }
        // Releases open no span: their frames travel with req 0
        // (uncorrelated).
        self.apply_effects(lock, 0, 0, node_epoch);
        self.settled.releases += 1;
        self.answer(lock, tag, Ok(()));
    }

    /// Answer an operation that settled in its own step without a grant, in
    /// the chunk's completion batch.
    fn answer(&mut self, lock: LockId, tag: u64, result: Result<(), ClusterError>) {
        self.comp_batch.push(Completion { lock, tag, result });
    }

    /// Ship the chunk's same-step completions as one send. If the client
    /// has gone, every completion counts as a dropped reply, and every grant
    /// among them that is still held is released.
    fn ship_completions(&mut self, tx: &Sender<Vec<Completion>>) {
        if self.comp_batch.is_empty() {
            return;
        }
        let n = self.comp_batch.len() as u64;
        let heard = tx.send(std::mem::take(&mut self.comp_batch)).is_ok();
        let mut grants = std::mem::take(&mut self.batch_grants);
        if !heard {
            self.counters
                .replies_dropped
                .fetch_add(n, Ordering::Relaxed);
            for &lock in &grants {
                self.abandon(lock);
            }
        }
        grants.clear();
        self.batch_grants = grants;
    }

    /// Release `lock`'s grant because nobody will hear of it: its waiter is
    /// gone, or its completion could not be delivered. To the protocol this
    /// is a client that acquired and released at once, so whoever queued
    /// behind the grant is served instead of wedged. Counted in
    /// `grants_abandoned`; a lock no longer held here (a chunk that
    /// acquired and released it, or an upgrade still pending on it) is left
    /// alone.
    fn abandon(&mut self, lock: LockId) {
        let (result, node_epoch) =
            self.drive(lock, |node, buf, obs| node.on_release_into(buf, obs));
        if result.is_ok() {
            self.counters
                .grants_abandoned
                .fetch_add(1, Ordering::Relaxed);
            self.apply_effects(lock, 0, 0, node_epoch);
        }
    }

    /// Fold the grants and releases settled in this input's own step into
    /// the shared metrics: one mutex acquisition per input, not per op.
    fn publish(&mut self) {
        let Settled {
            acquires,
            upgrades,
            releases,
        } = std::mem::take(&mut self.settled);
        if acquires + upgrades + releases == 0 {
            return;
        }
        let mut m = self.metrics.lock().expect("metrics mutex");
        // A same-step grant never left the worker; its service time is
        // below the histogram's µs resolution, so it is recorded as 0, at
        // 0 hops.
        m.acquire_latency.record_n(0, acquires + upgrades);
        m.acquire_hops.record_n(0, acquires + upgrades);
        m.acquires += acquires;
        m.upgrades += upgrades;
        m.releases += releases;
    }

    /// Allocate a fresh, never-zero request id: `node << 32 | counter`,
    /// where the counter is strided by the shard count so workers of one
    /// node never collide (worker `s` issues `s + shards`, `s + 2·shards`,
    /// …). The counter wraps at 32 bits and steps over 0, which the frame
    /// header reserves for "uncorrelated" (only shard 0 ever lands on it).
    fn alloc_req(&mut self) -> u64 {
        self.next_req = self.next_req.wrapping_add(self.shards);
        if self.next_req == 0 {
            self.next_req = self.shards;
        }
        ((self.me.0 as u64) << 32) | self.next_req as u64
    }

    /// Record one span/transport event, if tracing is on.
    fn trace(&mut self, lock: u32, event: ProtocolEvent) {
        if let Some(ring) = &mut self.recorder {
            ring.record(self.at, lock, self.me.0, event);
        }
    }

    /// Drive one protocol entry point of `lock`'s instance into the effect
    /// sink, its events stamped with the step's clock when a trace is
    /// recorded. Returns the entry point's result and the instance's epoch
    /// afterwards (which outgoing frames are stamped with).
    fn drive<T>(
        &mut self,
        lock: LockId,
        f: impl FnOnce(&mut HierNode, &mut EffectBuf, &mut dyn Observer) -> T,
    ) -> (T, u32) {
        let node = lock_state(&mut self.locks, self.me, self.protocol, lock);
        let out = match &mut self.recorder {
            Some(ring) => {
                let mut stamp = Stamp {
                    at: self.at,
                    lock: lock.0,
                    sink: ring,
                };
                f(node, &mut self.effect_buf, &mut stamp)
            }
            None => f(node, &mut self.effect_buf, &mut NullObserver),
        };
        (out, node.epoch())
    }

    /// Fast path for a protocol step whose only effect is the local grant
    /// (the token is here and nothing conflicts — the case a well-sharded
    /// single node hits millions of times per second): answer in the
    /// chunk's batch, count the grant for [`Self::publish`], and skip the
    /// waiter registration the generic path would insert and remove again
    /// within the same call. Returns `false` when the step produced
    /// anything else and the slow path must run.
    fn fast_grant(&mut self, lock: LockId, req: u64, tag: u64) -> bool {
        let upgraded = match (self.effect_buf.len(), self.effect_buf.iter().next()) {
            (1, Some(Effect::Granted { .. })) => false,
            (1, Some(Effect::Upgraded)) => true,
            _ => return false,
        };
        self.effect_buf.clear();
        if upgraded {
            self.settled.upgrades += 1;
        } else {
            self.settled.acquires += 1;
        }
        self.trace(lock.0, ProtocolEvent::RequestGrant { req, hops: 0 });
        self.batch_grants.push(lock);
        self.answer(lock, tag, Ok(()));
        true
    }

    /// Drain the effects of one protocol entry point. Sends are encoded
    /// with the correlated frame header — `req` is the request chain being
    /// extended (0 = uncorrelated) and `hops` the causal depth of whatever
    /// triggered this step, so outgoing frames carry `hops + 1` — and
    /// buffered for their destination until [`Self::end_batch`]. Grants
    /// complete the lock's waiting application call, record its latency/hop
    /// metrics, and close its trace span; a grant with no waiter, or whose
    /// waiter cannot be told, is released once the effects are drained
    /// ([`Self::abandon`]).
    fn apply_effects(&mut self, lock: LockId, req: u64, hops: u16, node_epoch: u32) {
        // Every effect of one entry point concerns `lock`, so at most one
        // grant can be left without a listener.
        let mut unheard = false;
        for effect in self.effect_buf.drain() {
            let upgraded = matches!(effect, Effect::Upgraded);
            match effect {
                Effect::Send { to, message } => {
                    self.counters.messages.fetch_add(1, Ordering::Relaxed);
                    let payload = codec::encode_corr_into(
                        lock,
                        req,
                        hops.saturating_add(1),
                        node_epoch,
                        &message,
                        &mut self.encode_scratch,
                    );
                    // The buffered frame is already owed to the wire: raise
                    // the gauge now so a quiescence probe between here and
                    // the batch boundary sees a busy cluster.
                    self.counters.in_flight.fetch_add(1, Ordering::Relaxed);
                    let buf = &mut self.pending[to.index()];
                    if buf.is_empty() {
                        self.pending_peers.push(to.0);
                    }
                    buf.push(payload);
                }
                Effect::Granted { .. } | Effect::Upgraded => {
                    // A grant without a matching waiter can occur after a
                    // recovery wave re-issues an operation whose original
                    // waiter was already torn down; count the dropped
                    // completion instead of panicking the worker.
                    let waiter = self
                        .active
                        .remove(&lock.0)
                        .and_then(|req0| self.waiters.remove(&(lock.0, req0)));
                    let Some(w) = waiter else {
                        self.counters
                            .replies_dropped
                            .fetch_add(1, Ordering::Relaxed);
                        unheard = true;
                        continue;
                    };
                    let latency = self.now.saturating_duration_since(w.started).as_micros() as u64;
                    self.metrics.lock().expect("metrics mutex").granted(
                        latency,
                        hops as u64,
                        upgraded,
                    );
                    if let Some(ring) = &mut self.recorder {
                        let event = ProtocolEvent::RequestGrant {
                            req: w.req,
                            hops: hops as u32,
                        };
                        ring.record(self.at, lock.0, self.me.0, event);
                    }
                    unheard |= !w.reply.complete(Ok(()), &self.counters.replies_dropped);
                }
            }
        }
        if unheard {
            self.abandon(lock);
        }
    }

    /// The batch boundary at time `now`: transmit every coalesce buffer —
    /// one wire frame per destination with pending traffic — then let the
    /// reliability shim retransmit what is overdue and flush the cumulative
    /// acks it owes after this round of input.
    ///
    /// Every physical frame raises the in-flight gauge before it is handed
    /// to `wire`; the gauge falls when the receiving engine has absorbed it
    /// (or when the transport kills it).
    pub(crate) fn end_batch(&mut self, now: Instant, wire: &mut impl FnMut(NodeId, Bytes)) {
        self.set_clock(now);
        let in_flight = &self.counters.in_flight;
        let mut put = |to: NodeId, frame: Bytes| {
            in_flight.fetch_add(1, Ordering::Relaxed);
            wire(to, frame);
        };
        for peer in self.pending_peers.drain(..) {
            let frames = &mut self.pending[peer as usize];
            let k = frames.len();
            debug_assert!(k > 0, "registered peer has buffered frames");
            // A lone frame travels as itself; only company is containerised.
            let payload = if k == 1 {
                frames.pop().expect("one frame")
            } else {
                let c = codec::encode_container_into(frames, &mut self.container_scratch);
                frames.clear();
                c
            };
            self.proto_sent[peer as usize] += k as u64;
            self.wire_sent[peer as usize] += 1;
            let to = NodeId(peer);
            let frame = match self.endpoint.as_mut() {
                // Containers peek as TRANSPORT_LOCK (their marker occupies
                // the lock-id slot); single frames keep their lock for
                // trace stamping of retransmissions.
                Some(ep) => ep.wrap_data(to, peek_lock(&payload), payload, now),
                None => payload,
            };
            put(to, frame);
            // The physical frame replaced k buffered protocol frames on the
            // gauge; `put` raised it by one, settle the difference after so
            // the gauge never transiently reads idle.
            self.counters
                .in_flight
                .fetch_sub(k as u64, Ordering::Relaxed);
        }
        let Some(ep) = self.endpoint.as_mut() else {
            return;
        };
        let rel_events = &mut self.rel_events;
        if ep.next_due().is_some_and(|due| due <= now) {
            ep.on_tick(now, &mut put, &mut |lock, event| {
                rel_events.push((lock, event))
            });
        }
        ep.take_acks(&mut put);
        match &mut self.recorder {
            Some(ring) => {
                for (lock, event) in rel_events.drain(..) {
                    ring.record(self.at, lock, self.me.0, event);
                }
            }
            None => rel_events.clear(),
        }
    }

    /// Stop: hand back the protocol states and telemetry.
    pub(crate) fn finish(self) -> NodeExit {
        let (trace, trace_dropped) = match self.recorder {
            Some(ring) => {
                let dropped = ring.dropped();
                (ring.into_records(), dropped)
            }
            None => (Vec::new(), 0),
        };
        let mut links = Vec::new();
        if let Some(ep) = &self.endpoint {
            ep.link_rows(&mut links);
        }
        let me = self.me.0;
        for (peer, (&proto_sent, &wire_sent)) in
            self.proto_sent.iter().zip(&self.wire_sent).enumerate()
        {
            links.push(LinkReport {
                proto_sent,
                wire_sent,
                ..LinkReport::new(me, peer as u32)
            });
        }
        NodeExit {
            locks: self.locks,
            trace,
            trace_dropped,
            decode_errors: self.decode_errors,
            frames_fenced: self.fenced,
            links,
        }
    }
}

#[cfg(test)]
mod tests;
