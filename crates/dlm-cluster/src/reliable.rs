//! Reliable-delivery shim: per-peer sequence numbers, cumulative acks,
//! timeout-driven retransmission, and receive-side dedup/reorder buffering.
//!
//! The protocol state machine assumes FIFO reliable channels (the paper runs
//! over TCP). The [`crate::transport::Faulty`] link breaks that assumption
//! on purpose; this module *recovers* it, the way a real deployment's
//! transport layer would:
//!
//! * every data frame carries a per-`(sender, receiver)` sequence number and
//!   a piggybacked cumulative ack of the reverse direction,
//! * unacked frames are retransmitted on a capped exponential backoff until
//!   the cumulative ack passes them,
//! * the receiver delivers strictly in sequence order: duplicates are
//!   suppressed, gaps are buffered until the missing frame (re)arrives, and
//!   every data arrival schedules a bare cumulative ack if no reverse data
//!   frame is about to carry one.
//!
//! Wire format (little-endian), wrapped around the [`crate::codec`] frame:
//!
//! ```text
//! data:  u8 = 1 | u64 seq | u64 cumulative-ack | payload …
//! ack:   u8 = 2 | u64 cumulative-ack
//! ```
//!
//! A cumulative ack of `a` means "every seq `< a` arrived"; acks are never
//! retransmitted on their own (a lost ack is repaired by the next ack, or by
//! the retransmission it fails to prevent — a duplicate, which the receiver
//! suppresses).

use bytes::{Buf, BufMut, Bytes, BytesMut};
use dlm_core::NodeId;
use dlm_trace::ProtocolEvent;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Reliability parameters for a cluster whose transport may lose frames.
#[derive(Debug, Clone, Copy)]
pub struct ReliableConfig {
    /// Initial retransmission timeout — the floor of the backoff schedule.
    /// Should comfortably exceed the transport's round-trip (twice the base
    /// delay plus scheduling noise). The default is tuned for the in-process
    /// transports ([`Self::in_process`]); a link with real wire latency
    /// wants [`Self::wan`] or an explicit [`Self::with_rto`].
    pub rto: Duration,
    /// Upper bound of the exponential backoff.
    pub rto_cap: Duration,
}

impl Default for ReliableConfig {
    /// The automatic config: the runtime picks the floor per transport
    /// class at construction (see [`ReliableConfig::resolved_for`]), so
    /// channel clusters get the in-process floor and socket clusters the
    /// WAN floor without the caller tuning anything.
    fn default() -> Self {
        Self::auto()
    }
}

/// The broad latency class of a transport, used to pick a retransmission
/// floor automatically (see [`ReliableConfig::auto`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportClass {
    /// Channel handoffs inside one process: µs round trips.
    InProcess,
    /// Real sockets (TCP/UDP), even on loopback: syscalls, wakeup latency
    /// and possibly a wire on the path.
    Socket,
}

impl ReliableConfig {
    /// Tuning for in-process transports (channel handoffs, µs round
    /// trips): a 400 µs floor. The floor — not the loss rate — sets the
    /// latency of a dropped frame's repair, so on a lossy in-process link
    /// this is the difference between ~26 µs clean round trips degrading
    /// to ~1 ms (the old 2 ms floor) versus a few hundred µs. Premature
    /// retransmissions cost only a duplicate, which the receive side
    /// suppresses.
    pub fn in_process() -> Self {
        ReliableConfig {
            rto: Duration::from_micros(400),
            rto_cap: Duration::from_millis(64),
        }
    }

    /// Tuning for links with real wire latency (the previous default):
    /// 2 ms floor, 64 ms cap.
    pub fn wan() -> Self {
        ReliableConfig {
            rto: Duration::from_millis(2),
            rto_cap: Duration::from_millis(64),
        }
    }

    /// This config with an explicit retransmission-timeout floor.
    pub fn with_rto(mut self, rto: Duration) -> Self {
        self.rto = rto;
        self
    }

    /// Defer the RTO choice to the runtime: a zero-RTO sentinel that the
    /// cluster/node constructors resolve to [`Self::in_process`] or
    /// [`Self::wan`] depending on the transport actually in use. Workers
    /// never see an unresolved auto config — an [`Endpoint`] built from one
    /// would retransmit instantly.
    pub fn auto() -> Self {
        ReliableConfig {
            rto: Duration::ZERO,
            rto_cap: Duration::from_millis(64),
        }
    }

    /// True for the [`Self::auto`] sentinel.
    pub fn is_auto(&self) -> bool {
        self.rto == Duration::ZERO
    }

    /// Resolve the [`Self::auto`] sentinel against a transport class:
    /// in-process channels get the 400 µs floor, sockets the 2 ms WAN
    /// floor. Explicit (non-auto) configs pass through untouched.
    pub fn resolved_for(self, class: TransportClass) -> Self {
        if !self.is_auto() {
            return self;
        }
        match class {
            TransportClass::InProcess => Self::in_process(),
            TransportClass::Socket => Self::wan(),
        }
    }
}

const KIND_DATA: u8 = 1;
const KIND_ACK: u8 = 2;
const DATA_HEADER: usize = 1 + 8 + 8;

/// Why an incoming frame was rejected by the shim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LinkError {
    /// Header truncated or unknown kind byte.
    Malformed,
}

/// One frame awaiting a cumulative ack.
struct Unacked {
    seq: u64,
    /// Lock id of the wrapped protocol frame (trace stamping only).
    lock: u32,
    payload: Bytes,
    due: Instant,
    /// Retransmissions so far (0 = only the original send).
    attempts: u32,
}

/// Both directions of one `(self, peer)` link.
#[derive(Default)]
struct Peer {
    // Sender side: frames self → peer.
    next_seq: u64,
    unacked: VecDeque<Unacked>,
    data_sent: u64,
    retransmits: u64,
    acks_sent: u64,
    // Receiver side: frames peer → self.
    recv_next: u64,
    reorder: BTreeMap<u64, Bytes>,
    pending_ack: bool,
    dups_suppressed: u64,
    reorders_buffered: u64,
    /// The peer is known dead ([`Endpoint::forget_peer`]): frames to it
    /// are sent fire-and-forget (never registered for retransmission) and
    /// nothing from it is awaited.
    dead: bool,
}

/// Per-peer reliability counters, reported at node exit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct PeerSnapshot {
    pub peer: u32,
    pub data_sent: u64,
    pub retransmits: u64,
    pub acks_sent: u64,
    pub dups_suppressed: u64,
    pub reorders_buffered: u64,
}

/// One node's reliability endpoint: the send/receive state for every peer
/// link, owned by the node thread.
pub(crate) struct Endpoint {
    me: NodeId,
    config: ReliableConfig,
    peers: Vec<Peer>,
    /// Cluster-wide gauge of data sequences sent but not yet cumulatively
    /// acked; `quiesce` refuses to declare quiescence while it is non-zero.
    unacked_gauge: Arc<AtomicU64>,
    scratch: BytesMut,
}

impl Endpoint {
    pub(crate) fn new(
        me: NodeId,
        nodes: usize,
        config: ReliableConfig,
        unacked_gauge: Arc<AtomicU64>,
    ) -> Self {
        debug_assert!(
            !config.is_auto(),
            "ReliableConfig::auto must be resolved before an Endpoint is built"
        );
        Endpoint {
            me,
            config,
            peers: (0..nodes).map(|_| Peer::default()).collect(),
            unacked_gauge,
            scratch: BytesMut::with_capacity(64),
        }
    }

    fn build_data(scratch: &mut BytesMut, seq: u64, ack: u64, payload: &Bytes) -> Bytes {
        scratch.clear();
        scratch.put_u8(KIND_DATA);
        scratch.put_u64_le(seq);
        scratch.put_u64_le(ack);
        scratch.put_slice(payload.as_ref());
        scratch.take_frame()
    }

    /// Wrap an outgoing protocol frame for `to`: assign the next sequence
    /// number, piggyback the cumulative ack, and register the frame for
    /// retransmission until acked.
    pub(crate) fn wrap_data(
        &mut self,
        to: NodeId,
        lock: u32,
        payload: Bytes,
        now: Instant,
    ) -> Bytes {
        let rto = self.config.rto;
        let peer = &mut self.peers[to.index()];
        let seq = peer.next_seq;
        peer.next_seq += 1;
        peer.data_sent += 1;
        // This frame carries the freshest ack; no bare ack needed.
        peer.pending_ack = false;
        let frame = Self::build_data(&mut self.scratch, seq, peer.recv_next, &payload);
        // A dead peer will never ack: sending is harmless (the transport
        // discards or the crashed worker drains it), but registering for
        // retransmission would hold the unacked gauge — and quiescence —
        // hostage forever.
        if !peer.dead {
            peer.unacked.push_back(Unacked {
                seq,
                lock,
                payload,
                due: now + rto,
                attempts: 0,
            });
            self.unacked_gauge.fetch_add(1, Ordering::Relaxed);
        }
        frame
    }

    /// Link-layer obituary for `dead`: drop every frame awaiting its ack
    /// (releasing their claims on the unacked gauge), discard its reorder
    /// buffer, and mark the link so future sends to it are
    /// fire-and-forget. Idempotent; the counters survive for the final
    /// link report.
    pub(crate) fn forget_peer(&mut self, dead: NodeId) {
        let Some(peer) = self.peers.get_mut(dead.index()) else {
            return;
        };
        self.unacked_gauge
            .fetch_sub(peer.unacked.len() as u64, Ordering::Relaxed);
        peer.unacked.clear();
        peer.reorder.clear();
        peer.pending_ack = false;
        peer.dead = true;
    }

    /// Process one incoming wire frame from `from`. In-order payloads (and
    /// any reorder-buffered successors they unblock) are handed to
    /// `deliver`; protocol-visible reliability actions are handed to `emit`
    /// as `(lock, event)` for trace stamping.
    pub(crate) fn on_frame(
        &mut self,
        from: NodeId,
        mut frame: Bytes,
        deliver: &mut impl FnMut(Bytes),
        emit: &mut impl FnMut(u32, ProtocolEvent),
    ) -> Result<(), LinkError> {
        if frame.remaining() < 1 {
            return Err(LinkError::Malformed);
        }
        let kind = frame.get_u8();
        let peer = &mut self.peers[from.index()];
        match kind {
            KIND_DATA => {
                if frame.remaining() < DATA_HEADER - 1 {
                    return Err(LinkError::Malformed);
                }
                let seq = frame.get_u64_le();
                let ack = frame.get_u64_le();
                Self::apply_ack(peer, ack, &self.unacked_gauge);
                let payload = frame;
                // Every data arrival owes the sender a cumulative ack (even
                // duplicates: their retransmission stops only when the ack
                // gets through).
                peer.pending_ack = true;
                if seq < peer.recv_next {
                    peer.dups_suppressed += 1;
                    emit(
                        peek_lock(&payload),
                        ProtocolEvent::DupSuppressed { from: from.0, seq },
                    );
                } else if seq == peer.recv_next {
                    peer.recv_next += 1;
                    deliver(payload);
                    while let Some(next) = peer.reorder.remove(&peer.recv_next) {
                        peer.recv_next += 1;
                        deliver(next);
                    }
                } else if peer.reorder.contains_key(&seq) {
                    peer.dups_suppressed += 1;
                    emit(
                        peek_lock(&payload),
                        ProtocolEvent::DupSuppressed { from: from.0, seq },
                    );
                } else {
                    peer.reorders_buffered += 1;
                    peer.reorder.insert(seq, payload);
                }
                Ok(())
            }
            KIND_ACK => {
                if frame.remaining() < 8 {
                    return Err(LinkError::Malformed);
                }
                let ack = frame.get_u64_le();
                Self::apply_ack(peer, ack, &self.unacked_gauge);
                Ok(())
            }
            _ => Err(LinkError::Malformed),
        }
    }

    fn apply_ack(peer: &mut Peer, ack: u64, gauge: &AtomicU64) {
        while peer.unacked.front().is_some_and(|u| u.seq < ack) {
            peer.unacked.pop_front();
            gauge.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Flush bare cumulative acks for every peer still owed one.
    pub(crate) fn take_acks(&mut self, send: &mut impl FnMut(NodeId, Bytes)) {
        for (i, peer) in self.peers.iter_mut().enumerate() {
            if !peer.pending_ack {
                continue;
            }
            peer.pending_ack = false;
            peer.acks_sent += 1;
            self.scratch.clear();
            self.scratch.put_u8(KIND_ACK);
            self.scratch.put_u64_le(peer.recv_next);
            send(NodeId(i as u32), self.scratch.take_frame());
        }
    }

    /// Earliest retransmission deadline across every link, if any frame is
    /// unacked.
    pub(crate) fn next_due(&self) -> Option<Instant> {
        self.peers
            .iter()
            .flat_map(|p| p.unacked.iter().map(|u| u.due))
            .min()
    }

    /// Retransmit every frame whose deadline has passed, with capped
    /// exponential backoff. Rebuilt frames carry the current cumulative ack.
    pub(crate) fn on_tick(
        &mut self,
        now: Instant,
        send: &mut impl FnMut(NodeId, Bytes),
        emit: &mut impl FnMut(u32, ProtocolEvent),
    ) {
        let (rto, cap) = (self.config.rto, self.config.rto_cap);
        for (i, peer) in self.peers.iter_mut().enumerate() {
            let recv_next = peer.recv_next;
            for u in peer.unacked.iter_mut() {
                if u.due > now {
                    continue;
                }
                u.attempts += 1;
                let backoff = rto
                    .saturating_mul(1u32 << u.attempts.min(16))
                    .min(cap.max(rto));
                u.due = now + backoff;
                peer.retransmits += 1;
                // A retransmitted data frame is as good an ack carrier as a
                // fresh one.
                peer.pending_ack = false;
                let frame = Self::build_data(&mut self.scratch, u.seq, recv_next, &u.payload);
                send(NodeId(i as u32), frame);
                emit(
                    u.lock,
                    ProtocolEvent::Retransmit {
                        to: i as u32,
                        seq: u.seq,
                        attempt: u.attempts,
                    },
                );
            }
        }
    }

    /// Per-peer counters for links with any activity.
    pub(crate) fn snapshots(&self) -> Vec<PeerSnapshot> {
        self.peers
            .iter()
            .enumerate()
            .filter(|(i, p)| {
                *i != self.me.index()
                    && (p.data_sent
                        + p.retransmits
                        + p.acks_sent
                        + p.dups_suppressed
                        + p.reorders_buffered)
                        > 0
            })
            .map(|(i, p)| PeerSnapshot {
                peer: i as u32,
                data_sent: p.data_sent,
                retransmits: p.retransmits,
                acks_sent: p.acks_sent,
                dups_suppressed: p.dups_suppressed,
                reorders_buffered: p.reorders_buffered,
            })
            .collect()
    }
}

/// The lock id of the wrapped protocol frame (its first four bytes), for
/// trace stamping; [`crate::transport::TRANSPORT_LOCK`] if too short.
pub(crate) fn peek_lock(payload: &Bytes) -> u32 {
    match payload.as_ref().get(0..4) {
        Some(b) => u32::from_le_bytes([b[0], b[1], b[2], b[3]]),
        None => crate::transport::TRANSPORT_LOCK,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn endpoint(me: u32) -> Endpoint {
        Endpoint::new(
            NodeId(me),
            3,
            ReliableConfig::in_process(),
            Arc::new(AtomicU64::new(0)),
        )
    }

    #[test]
    fn auto_config_resolves_per_transport_class() {
        let auto = ReliableConfig::default();
        assert!(auto.is_auto(), "the default defers to the transport class");
        assert_eq!(
            auto.resolved_for(TransportClass::InProcess).rto,
            ReliableConfig::in_process().rto,
            "channel transports get the in-process floor"
        );
        assert_eq!(
            auto.resolved_for(TransportClass::Socket).rto,
            ReliableConfig::wan().rto,
            "socket transports get the WAN floor"
        );
        // Explicit configs pass through untouched.
        let explicit = ReliableConfig::wan().with_rto(Duration::from_millis(7));
        assert_eq!(
            explicit.resolved_for(TransportClass::InProcess).rto,
            Duration::from_millis(7)
        );
    }

    fn collect_delivered(
        ep: &mut Endpoint,
        from: u32,
        frame: Bytes,
    ) -> Result<Vec<Bytes>, LinkError> {
        let mut out = Vec::new();
        ep.on_frame(NodeId(from), frame, &mut |p| out.push(p), &mut |_, _| {})?;
        Ok(out)
    }

    #[test]
    fn in_order_delivery_and_cumulative_ack() {
        let now = Instant::now();
        let mut tx = endpoint(0);
        let mut rx = endpoint(1);
        let p1 = Bytes::from(b"\x01\x00\x00\x00one".to_vec());
        let p2 = Bytes::from(b"\x01\x00\x00\x00two".to_vec());
        let f1 = tx.wrap_data(NodeId(1), 1, p1.clone(), now);
        let f2 = tx.wrap_data(NodeId(1), 1, p2.clone(), now);
        assert_eq!(collect_delivered(&mut rx, 0, f1).unwrap(), vec![p1]);
        assert_eq!(collect_delivered(&mut rx, 0, f2).unwrap(), vec![p2]);
        // The receiver owes an ack; applying it clears the sender's queue.
        let mut acks = Vec::new();
        rx.take_acks(&mut |to, frame| acks.push((to, frame)));
        assert_eq!(acks.len(), 1);
        assert_eq!(acks[0].0, NodeId(0));
        assert_eq!(
            collect_delivered(&mut tx, 1, acks[0].1.clone()).unwrap(),
            vec![]
        );
        assert_eq!(tx.next_due(), None, "everything acked");
        assert_eq!(tx.unacked_gauge.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn reordered_frames_are_buffered_then_released_in_order() {
        let now = Instant::now();
        let mut tx = endpoint(0);
        let mut rx = endpoint(1);
        let p: Vec<Bytes> = (0..3)
            .map(|i| Bytes::from(vec![1, 0, 0, 0, i as u8]))
            .collect();
        let frames: Vec<Bytes> = p
            .iter()
            .map(|pl| tx.wrap_data(NodeId(1), 1, pl.clone(), now))
            .collect();
        // Arrival order 2, 0, 1: 2 buffers, 0 delivers, 1 releases 1 and 2.
        assert_eq!(
            collect_delivered(&mut rx, 0, frames[2].clone()).unwrap(),
            vec![]
        );
        assert_eq!(
            collect_delivered(&mut rx, 0, frames[0].clone()).unwrap(),
            vec![p[0].clone()]
        );
        assert_eq!(
            collect_delivered(&mut rx, 0, frames[1].clone()).unwrap(),
            vec![p[1].clone(), p[2].clone()]
        );
        assert_eq!(rx.snapshots()[0].reorders_buffered, 1);
    }

    #[test]
    fn duplicates_are_suppressed_and_reacked() {
        let now = Instant::now();
        let mut tx = endpoint(0);
        let mut rx = endpoint(1);
        let p = Bytes::from(b"\x02\x00\x00\x00pay".to_vec());
        let f = tx.wrap_data(NodeId(1), 2, p.clone(), now);
        assert_eq!(collect_delivered(&mut rx, 0, f.clone()).unwrap(), vec![p]);
        let mut events = Vec::new();
        rx.on_frame(
            NodeId(0),
            f,
            &mut |_| panic!("dup delivered"),
            &mut |l, e| events.push((l, e)),
        )
        .unwrap();
        assert_eq!(
            events,
            vec![(2, ProtocolEvent::DupSuppressed { from: 0, seq: 0 })]
        );
        // Even the duplicate schedules an ack (the sender clearly missed it).
        let mut acks = 0;
        rx.take_acks(&mut |_, _| acks += 1);
        assert_eq!(acks, 1);
    }

    #[test]
    fn retransmission_backs_off_and_stops_on_ack() {
        let now = Instant::now();
        let mut tx = endpoint(0);
        let p = Bytes::from(b"\x00\x00\x00\x00x".to_vec());
        let _ = tx.wrap_data(NodeId(1), 0, p, now);
        let due1 = tx.next_due().expect("one unacked frame");
        assert!(due1 > now);
        // First tick past the deadline retransmits with attempt 1.
        let mut sent = Vec::new();
        let mut events = Vec::new();
        tx.on_tick(due1, &mut |to, f| sent.push((to, f)), &mut |l, e| {
            events.push((l, e))
        });
        assert_eq!(sent.len(), 1);
        assert!(matches!(
            events[0].1,
            ProtocolEvent::Retransmit {
                to: 1,
                seq: 0,
                attempt: 1
            }
        ));
        let due2 = tx.next_due().unwrap();
        assert!(due2 > due1, "backoff pushed the deadline out");
        // A later ack clears the queue; ticking again retransmits nothing.
        let mut rx = endpoint(1);
        assert_eq!(
            collect_delivered(&mut rx, 0, sent[0].1.clone())
                .unwrap()
                .len(),
            1
        );
        let mut ack = None;
        rx.take_acks(&mut |_, f| ack = Some(f));
        collect_delivered(&mut tx, 1, ack.unwrap()).unwrap();
        assert_eq!(tx.next_due(), None);
        sent.clear();
        tx.on_tick(
            due2 + Duration::from_secs(1),
            &mut |to, f| sent.push((to, f)),
            &mut |_, _| {},
        );
        assert!(sent.is_empty());
    }

    /// A coalesced container is one payload to the shim: losing its first
    /// transmission costs one retransmission (not one per packed frame),
    /// and the retransmitted copy unpacks into the original sub-frames
    /// byte for byte.
    #[test]
    fn containers_survive_loss_as_a_unit() {
        use crate::codec;
        use dlm_core::{LockId, Message};

        let now = Instant::now();
        let mut tx = endpoint(0);
        let mut rx = endpoint(1);
        let mut scratch = bytes::BytesMut::new();
        let subs: Vec<Bytes> = (0..5u32)
            .map(|l| {
                codec::encode_corr_into(
                    LockId(l),
                    (7 << 32) | l as u64,
                    l as u16,
                    0,
                    &Message::Grant {
                        mode: dlm_core::Mode::Read,
                    },
                    &mut scratch,
                )
            })
            .collect();
        let container = codec::encode_container_into(&subs, &mut scratch);
        let lost = tx.wrap_data(NodeId(1), codec::CONTAINER_MARKER, container, now);
        drop(lost); // the network ate the first copy
        let due = tx.next_due().expect("container awaits ack");
        let mut resent = Vec::new();
        tx.on_tick(due, &mut |_, f| resent.push(f), &mut |_, _| {});
        assert_eq!(resent.len(), 1, "one retransmission covers the whole pack");
        let delivered = collect_delivered(&mut rx, 0, resent.remove(0)).unwrap();
        assert_eq!(delivered.len(), 1);
        assert!(codec::is_container(&delivered[0]));
        let mut out = Vec::new();
        codec::decode_container_into(delivered[0].clone(), &mut out).unwrap();
        assert_eq!(out, subs, "sub-frames byte-identical after loss + repair");
    }

    #[test]
    fn malformed_headers_are_rejected_not_panicked() {
        let mut rx = endpoint(1);
        for bad in [
            Bytes::new(),
            Bytes::from(b"\x09whatever".to_vec()),
            Bytes::from(b"\x01\x01\x02".to_vec()),
            Bytes::from(b"\x02\x01".to_vec()),
        ] {
            assert_eq!(
                collect_delivered(&mut rx, 0, bad),
                Err(LinkError::Malformed)
            );
        }
    }
}
