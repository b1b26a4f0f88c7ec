//! Pluggable cluster interconnects.
//!
//! The node threads never talk to each other directly: every encoded frame
//! goes through a [`Transport`], the seam where link behavior is decided.
//! Two in-process implementations ship with the runtime, selected by
//! [`TransportKind`] (the third, [`crate::socket::SocketTransport`], puts a member
//! on a real wire):
//!
//! * [`Direct`] — frames land in the receiver's input channel immediately
//!   (perfect in-process links; zero extra hops or threads),
//! * [`Faulty`] — a router thread parks every frame in a deadline-sorted
//!   heap for [`FaultConfig::delay`] (the paper's LAN model), with seeded
//!   drop / duplicate / reorder injection at configurable rates — the
//!   adversarial link the reliability shim in [`crate::reliable`] is built
//!   to survive. With every rate at zero it is a constant-latency link.
//!   Its fault tallies are [`LinkReport`] rows, folded at shutdown with
//!   every other layer's.
//!
//! Fault decisions are drawn from a seeded SplitMix64 stream, so a given
//! seed produces a reproducible fault pattern for a given frame arrival
//! order (the OS scheduler still decides that order — true determinism is
//! the simulator's job; the cluster's is realism).
//!
//! Transport-level trace records ([`dlm_trace::ProtocolEvent::FrameDropped`])
//! don't belong to a lock the transport can see, so they are stamped with
//! the sentinel lock id [`TRANSPORT_LOCK`].

use crate::engine::Input;
use crate::runtime::LinkReport;
use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use dlm_core::NodeId;
use dlm_trace::{ProtocolEvent, Recorder, RingRecorder, TraceRecord};
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Sentinel lock id carried by transport-level trace records (a raw frame's
/// lock is opaque to the link layer).
pub const TRANSPORT_LOCK: u32 = u32::MAX;

/// Maximum extra hold-back of a reordered (or duplicated) frame.
const REORDER_JITTER: Duration = Duration::from_micros(500);

/// Which interconnect a [`crate::Cluster`] runs on.
#[derive(Debug, Clone, Copy, Default)]
pub enum TransportKind {
    /// Perfect in-process channels, zero added latency.
    #[default]
    Direct,
    /// A router thread: constant one-way latency plus seeded drop /
    /// duplicate / reorder injection. Pair with [`crate::ReliableConfig`]
    /// unless every rate is zero (or the test *wants* lost frames).
    Faulty(FaultConfig),
}

/// Fault-injection parameters for [`TransportKind::Faulty`].
///
/// Rates are independent per-frame probabilities in `0.0..=1.0`; decisions
/// come from a SplitMix64 stream seeded with `seed`.
#[derive(Debug, Clone, Copy)]
pub struct FaultConfig {
    /// PRNG seed for every fault decision.
    pub seed: u64,
    /// Probability a frame vanishes in flight.
    pub drop: f64,
    /// Probability a frame is delivered twice (the copy arrives later).
    pub duplicate: f64,
    /// Probability a frame is held back by a random extra of up to 500 µs,
    /// letting later frames overtake it (a duplicate's copy is held back the
    /// same way).
    pub reorder: f64,
    /// Base one-way latency applied to every frame.
    pub delay: Duration,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            seed: 1,
            drop: 0.0,
            duplicate: 0.0,
            reorder: 0.0,
            delay: Duration::ZERO,
        }
    }
}

impl FaultConfig {
    /// A uniformly hostile link: `rate` applied to drop, duplicate, and
    /// reorder alike, with a 500 µs reorder window.
    pub fn lossy(seed: u64, rate: f64) -> Self {
        FaultConfig {
            seed,
            drop: rate,
            duplicate: rate,
            reorder: rate,
            ..FaultConfig::default()
        }
    }
}

/// What a transport hands back when it stops.
#[derive(Debug, Default)]
pub(crate) struct TransportReport {
    /// Transport-side trace records (frame drops), stamped with
    /// [`TRANSPORT_LOCK`].
    pub(crate) trace: Vec<TraceRecord>,
    /// Records evicted from the transport's flight recorder.
    pub(crate) trace_dropped: u64,
    /// Link telemetry rows: fault tallies, and a socket transport's wire
    /// bytes, resets and dropped datagrams.
    pub(crate) links: Vec<LinkReport>,
    /// Connections a socket transport killed because their byte stream
    /// failed frame reassembly (truncated/corrupt/oversized framing);
    /// always 0 for the in-process transports.
    pub(crate) wire_decode_errors: u64,
}

/// A cluster interconnect: carries encoded frames between node threads.
///
/// `send` is called concurrently from every node thread. `shutdown` must
/// flush every parked frame into its destination channel (the cluster calls
/// it *before* stopping the node threads, so flushed frames are still
/// processed) and stop any background threads; sends arriving after
/// `shutdown` must still be delivered (directly, latency no longer
/// modelled) — the cluster is going down, losing them would corrupt the
/// final audit.
pub(crate) trait Transport: Send + Sync {
    /// Carry `frame` from `from` toward `to`'s input channel.
    fn send(&self, from: NodeId, to: NodeId, frame: Bytes);

    /// Flush parked frames, stop background threads, report telemetry.
    /// Idempotent; later calls return an empty report.
    fn shutdown(&self) -> TransportReport;
}

/// Deliver one frame into a node input channel, or account for its death if
/// the node is already gone (only possible for post-shutdown stragglers).
fn deliver(outs: &[Sender<Input>], in_flight: &AtomicU64, from: NodeId, to: NodeId, frame: Bytes) {
    if outs[to.index()].send(Input::Net { from, frame }).is_err() {
        in_flight.fetch_sub(1, Ordering::Relaxed);
    }
}

// ------------------------------------------------------------------ Direct

/// Perfect links: a send is an immediate channel handoff.
pub(crate) struct Direct {
    outs: Vec<Sender<Input>>,
    in_flight: Arc<AtomicU64>,
}

impl Direct {
    pub(crate) fn new(outs: Vec<Sender<Input>>, in_flight: Arc<AtomicU64>) -> Self {
        Direct { outs, in_flight }
    }
}

impl Transport for Direct {
    fn send(&self, from: NodeId, to: NodeId, frame: Bytes) {
        deliver(&self.outs, &self.in_flight, from, to, frame);
    }

    fn shutdown(&self) -> TransportReport {
        TransportReport::default()
    }
}

// ----------------------------------------------------------- Faulty router

enum RouterMsg {
    Forward {
        from: NodeId,
        to: NodeId,
        frame: Bytes,
    },
    Shutdown,
}

/// A frame parked in the router until its delivery deadline.
struct Parked {
    due: Instant,
    seq: u64,
    from: NodeId,
    to: NodeId,
    frame: Bytes,
}

impl PartialEq for Parked {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}

impl Eq for Parked {}

impl PartialOrd for Parked {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Parked {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: `BinaryHeap` is a max-heap, earliest deadline first;
        // ingress sequence breaks ties so equal deadlines stay FIFO.
        (other.due, other.seq).cmp(&(self.due, self.seq))
    }
}

/// Lossy, duplicating, reordering, delaying links (seeded): a thread
/// parking frames in a deadline heap behind a fault stage at ingress.
pub(crate) struct Faulty {
    tx: Sender<RouterMsg>,
    join: Mutex<Option<JoinHandle<TransportReport>>>,
    /// Post-shutdown fallback path (and death accounting).
    outs: Vec<Sender<Input>>,
    in_flight: Arc<AtomicU64>,
}

impl Faulty {
    pub(crate) fn new(
        outs: Vec<Sender<Input>>,
        in_flight: Arc<AtomicU64>,
        config: FaultConfig,
        nodes: usize,
        shards: usize,
        trace_capacity: usize,
        epoch: Instant,
    ) -> Self {
        let faults = FaultState {
            rng: SplitMix64::new(config.seed),
            config,
            nodes,
            shards,
            tallies: (0..nodes * nodes)
                .map(|i| LinkReport::new((i / nodes) as u32, (i % nodes) as u32))
                .collect(),
            recorder: (trace_capacity > 0).then(|| RingRecorder::new(trace_capacity)),
            epoch,
        };
        let (tx, rx) = unbounded::<RouterMsg>();
        let louts = outs.clone();
        let lgauge = Arc::clone(&in_flight);
        let join = std::thread::Builder::new()
            .name("dlm-router".into())
            .spawn(move || router_loop(rx, louts, lgauge, faults))
            .expect("spawn router");
        Faulty {
            tx,
            join: Mutex::new(Some(join)),
            outs,
            in_flight,
        }
    }
}

impl Transport for Faulty {
    fn send(&self, from: NodeId, to: NodeId, frame: Bytes) {
        // After shutdown the router channel is disconnected; deliver
        // directly so late frames (e.g. cascades triggered by the flush)
        // still reach their node before it exits.
        if let Err(crossbeam::channel::SendError(RouterMsg::Forward { from, to, frame })) =
            self.tx.send(RouterMsg::Forward { from, to, frame })
        {
            deliver(&self.outs, &self.in_flight, from, to, frame);
        }
    }

    fn shutdown(&self) -> TransportReport {
        let join = self.join.lock().expect("router join lock").take();
        match join {
            Some(handle) => {
                let _ = self.tx.send(RouterMsg::Shutdown);
                handle.join().expect("router thread panicked")
            }
            None => TransportReport::default(),
        }
    }
}

/// The fault stage the router applies at frame ingress.
struct FaultState {
    rng: SplitMix64,
    config: FaultConfig,
    nodes: usize,
    /// Worker slots per node: transport addresses are worker slots
    /// (`node * shards + shard`), but faults are reported per node link, so
    /// tallies and trace events divide the slot back down.
    shards: usize,
    tallies: Vec<LinkReport>,
    recorder: Option<RingRecorder>,
    epoch: Instant,
}

impl FaultState {
    /// Node id owning worker slot `slot`.
    fn node_of(&self, slot: NodeId) -> u32 {
        slot.0 / self.shards as u32
    }

    fn tally(&mut self, from: NodeId, to: NodeId) -> &mut LinkReport {
        let (from, to) = (self.node_of(from) as usize, self.node_of(to) as usize);
        &mut self.tallies[from * self.nodes + to]
    }
}

fn router_loop(
    rx: Receiver<RouterMsg>,
    outs: Vec<Sender<Input>>,
    in_flight: Arc<AtomicU64>,
    mut f: FaultState,
) -> TransportReport {
    // Deadline-sorted delivery: every frame is stamped `ingress + delay` on
    // arrival and parked in a min-heap; each wakeup drains *all* frames
    // whose deadline has passed, so N frames in flight concurrently all
    // arrive after ~`delay`, not ~`N × delay`.
    //
    // Fault-free with a constant delay, deadlines are ingress-ordered ⇒
    // global FIFO, which implies the per-channel FIFO the protocol assumes.
    // The fault stage breaks exactly that (reorder jitter, drops, dups) —
    // which is the point: the reliability shim has to rebuild FIFO on top.
    let mut parked: BinaryHeap<Parked> = BinaryHeap::new();
    let mut seq = 0u64;
    let mut ingress = |parked: &mut BinaryHeap<Parked>,
                       f: &mut FaultState,
                       from: NodeId,
                       to: NodeId,
                       frame: Bytes| {
        let mut due = Instant::now() + f.config.delay;
        if f.rng.chance(f.config.drop) {
            f.tally(from, to).dropped += 1;
            in_flight.fetch_sub(1, Ordering::Relaxed);
            let (from_node, to_node) = (f.node_of(from), f.node_of(to));
            if let Some(ring) = &mut f.recorder {
                ring.record(
                    f.epoch.elapsed().as_micros() as u64,
                    TRANSPORT_LOCK,
                    from_node,
                    ProtocolEvent::FrameDropped { to: to_node },
                );
            }
            return;
        }
        if f.rng.chance(f.config.reorder) {
            f.tally(from, to).reordered += 1;
            due += f.rng.jitter(REORDER_JITTER);
        }
        if f.rng.chance(f.config.duplicate) {
            f.tally(from, to).duplicated += 1;
            in_flight.fetch_add(1, Ordering::Relaxed);
            let copy_due = due + f.rng.jitter(REORDER_JITTER);
            parked.push(Parked {
                due: copy_due,
                seq,
                from,
                to,
                frame: frame.clone(),
            });
            seq += 1;
        }
        parked.push(Parked {
            due,
            seq,
            from,
            to,
            frame,
        });
        seq += 1;
    };
    let report = |f: FaultState| {
        let mut report = TransportReport {
            links: f.tallies,
            ..TransportReport::default()
        };
        if let Some(ring) = f.recorder {
            report.trace_dropped = ring.dropped();
            report.trace = ring.into_records();
        }
        report
    };
    loop {
        // Deliver everything due.
        let now = Instant::now();
        while parked.peek().is_some_and(|d| d.due <= now) {
            let d = parked.pop().expect("peeked frame");
            deliver(&outs, &in_flight, d.from, d.to, d.frame);
        }
        // Wait for new traffic, but never past the earliest deadline.
        let msg = match parked.peek() {
            Some(next) => {
                match rx.recv_timeout(next.due.saturating_duration_since(Instant::now())) {
                    Ok(msg) => Some(msg),
                    Err(RecvTimeoutError::Timeout) => continue,
                    Err(RecvTimeoutError::Disconnected) => None,
                }
            }
            None => rx.recv().ok(),
        };
        match msg {
            Some(RouterMsg::Forward { from, to, frame }) => {
                ingress(&mut parked, &mut f, from, to, frame);
            }
            // Shutdown (or all senders gone): flush whatever is still
            // parked without honoring deadlines — the cluster is going
            // down, and the node threads are still alive to process the
            // flush (the cluster stops the transport *first*).
            Some(RouterMsg::Shutdown) | None => {
                while let Some(d) = parked.pop() {
                    deliver(&outs, &in_flight, d.from, d.to, d.frame);
                }
                return report(f);
            }
        }
    }
}

// ------------------------------------------------------------------- PRNG

/// SplitMix64: tiny, seedable, dependency-free. Good enough for fault
/// injection (here and in the UDP socket mode); not for cryptography.
pub(crate) struct SplitMix64(u64);

impl SplitMix64 {
    pub(crate) fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// True with probability `p`.
    pub(crate) fn chance(&mut self, p: f64) -> bool {
        p > 0.0 && self.next_f64() < p
    }

    /// Uniform duration in `[0, max]`.
    fn jitter(&mut self, max: Duration) -> Duration {
        max.mul_f64(self.next_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_spread() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys, "same seed, same stream");
        let mut c = SplitMix64::new(43);
        assert_ne!(xs[0], c.next_u64(), "different seed diverges");
        // Rates empirically land near p.
        let mut r = SplitMix64::new(7);
        let hits = (0..10_000).filter(|_| r.chance(0.1)).count();
        assert!((800..1200).contains(&hits), "~10% hit rate, got {hits}");
    }

    #[test]
    fn chance_zero_never_fires_and_one_always() {
        let mut r = SplitMix64::new(9);
        assert!((0..100).all(|_| !r.chance(0.0)));
        assert!((0..100).all(|_| r.chance(1.0)));
    }
}
