//! The storage side: time-stamped record sinks and statistics.

use crate::event::{ProtocolEvent, TraceRecord};
use dlm_metrics::{CounterSet, Histogram};
use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;

/// A sink for fully-stamped trace records. Unlike [`crate::Observer`] (which
/// sees one operation at one node), a recorder spans locks and time; it
/// assigns each record its monotone per-recorder sequence number.
pub trait Recorder {
    /// Store one record (implementations self-assign `seq`).
    fn record(&mut self, at: u64, lock: u32, node: u32, event: ProtocolEvent);
}

impl<R: Recorder + ?Sized> Recorder for &mut R {
    fn record(&mut self, at: u64, lock: u32, node: u32, event: ProtocolEvent) {
        (**self).record(at, lock, node, event);
    }
}

/// Shared-recorder convenience for the single-threaded runtimes (testkit,
/// simulator): many actors emit into one `Rc<RefCell<…>>`.
impl<R: Recorder + ?Sized> Recorder for Rc<RefCell<R>> {
    fn record(&mut self, at: u64, lock: u32, node: u32, event: ProtocolEvent) {
        self.borrow_mut().record(at, lock, node, event);
    }
}

/// Unbounded in-memory recorder.
#[derive(Debug, Clone, Default)]
pub struct VecRecorder {
    /// Everything recorded, in emission order.
    pub records: Vec<TraceRecord>,
    next_seq: u64,
}

impl VecRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consume into the recorded stream.
    pub fn into_records(self) -> Vec<TraceRecord> {
        self.records
    }
}

impl Recorder for VecRecorder {
    fn record(&mut self, at: u64, lock: u32, node: u32, event: ProtocolEvent) {
        self.records.push(TraceRecord {
            seq: self.next_seq,
            at,
            node,
            lock,
            event,
        });
        self.next_seq += 1;
    }
}

/// Bounded recorder keeping the most recent `capacity` records (a flight
/// recorder: old entries fall off the front). Sequence numbers keep counting
/// so drops are visible as gaps.
#[derive(Debug, Clone)]
pub struct RingRecorder {
    buf: VecDeque<TraceRecord>,
    capacity: usize,
    next_seq: u64,
    dropped: u64,
}

impl RingRecorder {
    /// A ring holding at most `capacity` records (min 1).
    pub fn new(capacity: usize) -> Self {
        RingRecorder {
            buf: VecDeque::with_capacity(capacity.clamp(1, 1 << 20)),
            capacity: capacity.max(1),
            next_seq: 0,
            dropped: 0,
        }
    }

    /// Records currently retained, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &TraceRecord> {
        self.buf.iter()
    }

    /// Number of records evicted so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total records ever recorded (retained + dropped).
    pub fn recorded(&self) -> u64 {
        self.next_seq
    }

    /// Consume into the retained records, oldest first.
    pub fn into_records(self) -> Vec<TraceRecord> {
        self.buf.into_iter().collect()
    }
}

impl Recorder for RingRecorder {
    fn record(&mut self, at: u64, lock: u32, node: u32, event: ProtocolEvent) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(TraceRecord {
            seq: self.next_seq,
            at,
            node,
            lock,
            event,
        });
        self.next_seq += 1;
    }
}

/// Statistics-only sink: per-rule and per-kind counters, queue-depth and
/// freeze-duration histograms. Per event it costs up to three label
/// lookups in small [`CounterSet`]s (a pointer-compare scan over at most a
/// few dozen labels), a histogram bucket update, and for span and freeze
/// markers one hash-map insert or remove. It stores one entry per *open*
/// request span and per frozen `(lock, node)`, never per event, and once
/// those maps and the label sets are warm it allocates nothing, so it can
/// stay on for whole workload runs.
#[derive(Debug, Clone, Default)]
pub struct TraceStats {
    /// Events per paper rule (`rule3.1-child-grant`, …).
    pub rules: CounterSet,
    /// Events per kind (`child_grant`, `token_sent`, …).
    pub kinds: CounterSet,
    /// Send-class events per wire kind (`request`, `grant`, …). Summing
    /// this set reproduces the runtime's total message count exactly.
    pub sends: CounterSet,
    /// Local queue depth observed after every push.
    pub queue_depth: Histogram,
    /// Time (in the producing runtime's clock units) each node spent frozen.
    pub freeze_spans: Histogram,
    /// End-to-end request latency (`RequestStart` → `RequestGrant`, clock
    /// units of the producing runtime).
    pub span_latency: Histogram,
    /// Network legs on each completed request's granting chain (the
    /// `RequestGrant` `hops` field).
    pub span_hops: Histogram,
    /// Open freeze intervals: `(lock, node) → at` of the first `Frozen`
    /// event since the pair was last unfrozen.
    freeze_since: HashMap<(u32, u32), u64>,
    /// Open request spans: `req → at` of the `RequestStart` event.
    span_since: HashMap<u64, u64>,
}

impl TraceStats {
    /// Empty statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total send-class events (equals messages sent by the runtime).
    pub fn total_sends(&self) -> u64 {
        self.sends.total()
    }

    /// Fold another node's/run's statistics into this one.
    pub fn merge(&mut self, other: &TraceStats) {
        self.rules.merge(&other.rules);
        self.kinds.merge(&other.kinds);
        self.sends.merge(&other.sends);
        self.queue_depth.merge(&other.queue_depth);
        self.freeze_spans.merge(&other.freeze_spans);
        self.span_latency.merge(&other.span_latency);
        self.span_hops.merge(&other.span_hops);
    }

    /// Absorb one already-stamped record (used when replaying stored
    /// traces; live recording goes through [`Recorder::record`]).
    pub fn absorb(&mut self, r: &TraceRecord) {
        self.observe(r.at, r.lock, r.node, &r.event);
    }

    fn observe(&mut self, at: u64, lock: u32, node: u32, event: &ProtocolEvent) {
        // Request-span markers are observability metadata, not protocol
        // actions: they feed the span histograms but deliberately stay out
        // of the per-rule counters so differential fingerprints (golden
        // reports, model-check gates) are identical with tracing on or off.
        match event {
            ProtocolEvent::RequestStart { req, .. } => {
                self.kinds.add(event.kind(), 1);
                self.span_since.insert(*req, at);
                return;
            }
            ProtocolEvent::RequestHop { .. } => {
                self.kinds.add(event.kind(), 1);
                return;
            }
            ProtocolEvent::RequestGrant { req, hops } => {
                self.kinds.add(event.kind(), 1);
                if let Some(start) = self.span_since.remove(req) {
                    self.span_latency.record(at.saturating_sub(start));
                    self.span_hops.record(*hops as u64);
                }
                return;
            }
            _ => {}
        }
        self.rules.add(event.rule(), 1);
        self.kinds.add(event.kind(), 1);
        if let Some(class) = event.send_class() {
            self.sends.add(class.label(), 1);
        }
        match event {
            ProtocolEvent::RequestQueued { depth, .. } => {
                self.queue_depth.record(*depth as u64);
            }
            // A non-empty frozen set that changes (`{W}` → `{W,R}`) is
            // emitted as another `Frozen`; the span runs from the first.
            ProtocolEvent::Frozen { .. } => {
                self.freeze_since.entry((lock, node)).or_insert(at);
            }
            ProtocolEvent::Unfrozen => {
                if let Some(start) = self.freeze_since.remove(&(lock, node)) {
                    self.freeze_spans.record(at.saturating_sub(start));
                }
            }
            _ => {}
        }
    }
}

impl Recorder for TraceStats {
    fn record(&mut self, at: u64, lock: u32, node: u32, event: ProtocolEvent) {
        self.observe(at, lock, node, &event);
    }
}

/// Fan one event stream into two sinks (e.g. full records + statistics).
#[derive(Debug, Default)]
pub struct Tee<A, B>(pub A, pub B);

impl<A: Recorder, B: Recorder> Recorder for Tee<A, B> {
    fn record(&mut self, at: u64, lock: u32, node: u32, event: ProtocolEvent) {
        self.0.record(at, lock, node, event.clone());
        self.1.record(at, lock, node, event);
    }
}

/// Merge per-thread record streams into one trace ordered by `(at, node,
/// seq)` and renumbered with a global sequence. Used by the cluster runtime
/// at shutdown.
pub fn merge_records(streams: Vec<Vec<TraceRecord>>) -> Vec<TraceRecord> {
    let mut all: Vec<TraceRecord> = streams.into_iter().flatten().collect();
    all.sort_by_key(|r| (r.at, r.node, r.seq));
    for (i, r) in all.iter_mut().enumerate() {
        r.seq = i as u64;
    }
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlm_modes::{Mode, ModeSet};

    fn ev_queue(depth: usize) -> ProtocolEvent {
        ProtocolEvent::RequestQueued {
            requester: 1,
            mode: Mode::Read,
            depth,
        }
    }

    #[test]
    fn ring_keeps_most_recent_and_counts_drops() {
        let mut ring = RingRecorder::new(2);
        for i in 0..5 {
            ring.record(i, 0, 0, ev_queue(i as usize));
        }
        assert_eq!(ring.dropped(), 3);
        assert_eq!(ring.recorded(), 5);
        let kept: Vec<u64> = ring.records().map(|r| r.seq).collect();
        assert_eq!(kept, vec![3, 4], "oldest evicted, seq keeps counting");
    }

    #[test]
    fn stats_count_rules_sends_and_depths() {
        let mut stats = TraceStats::new();
        stats.record(
            0,
            0,
            1,
            ProtocolEvent::ChildGrant {
                to: 2,
                mode: Mode::Read,
            },
        );
        stats.record(1, 0, 1, ev_queue(3));
        stats.record(2, 0, 1, ProtocolEvent::Upgraded);
        assert_eq!(stats.rules.get("rule3.1-child-grant"), 1);
        assert_eq!(stats.rules.get("rule7-upgrade"), 1);
        assert_eq!(stats.sends.get("grant"), 1);
        assert_eq!(stats.total_sends(), 1);
        assert_eq!(stats.queue_depth.count(), 1);
    }

    #[test]
    fn freeze_spans_pair_frozen_with_unfrozen() {
        let mut stats = TraceStats::new();
        let mut set = ModeSet::new();
        set.insert(Mode::Write);
        stats.record(100, 0, 4, ProtocolEvent::Frozen { modes: set });
        stats.record(160, 0, 4, ProtocolEvent::Unfrozen);
        assert_eq!(stats.freeze_spans.count(), 1);
        assert!(stats.freeze_spans.mean() >= 59.0);
    }

    #[test]
    fn a_refreeze_keeps_the_first_start() {
        let mut stats = TraceStats::new();
        let mut set = ModeSet::new();
        set.insert(Mode::Write);
        stats.record(100, 0, 4, ProtocolEvent::Frozen { modes: set });
        set.insert(Mode::Read);
        stats.record(130, 0, 4, ProtocolEvent::Frozen { modes: set });
        stats.record(160, 0, 4, ProtocolEvent::Unfrozen);
        assert_eq!(stats.freeze_spans.count(), 1);
        assert_eq!(stats.freeze_spans.min(), 60);
        assert_eq!(stats.freeze_spans.max(), 60);
    }

    #[test]
    fn request_spans_pair_start_with_grant_and_skip_rule_counters() {
        let mut stats = TraceStats::new();
        let req = (2u64 << 32) | 5;
        stats.record(
            100,
            0,
            2,
            ProtocolEvent::RequestStart {
                req,
                mode: Mode::Read,
                upgrade: false,
            },
        );
        stats.record(120, 0, 1, ProtocolEvent::RequestHop { req, hop: 1 });
        stats.record(150, 0, 2, ProtocolEvent::RequestGrant { req, hops: 2 });
        assert_eq!(stats.span_latency.count(), 1);
        assert_eq!(stats.span_latency.max(), 50);
        assert_eq!(stats.span_hops.max(), 2);
        assert_eq!(stats.kinds.get("request_start"), 1);
        assert_eq!(stats.kinds.get("request_hop"), 1);
        assert_eq!(stats.kinds.get("request_grant"), 1);
        // Span markers never touch the per-rule or send-class counters.
        assert_eq!(stats.rules.total(), 0);
        assert_eq!(stats.total_sends(), 0);
        // A grant without a matching start is ignored, not a panic.
        stats.record(160, 0, 3, ProtocolEvent::RequestGrant { req: 999, hops: 1 });
        assert_eq!(stats.span_latency.count(), 1);
    }

    #[test]
    fn tee_and_shared_recorders_compose() {
        let shared = Rc::new(RefCell::new(Tee(VecRecorder::new(), TraceStats::new())));
        let mut handle = Rc::clone(&shared);
        handle.record(5, 1, 2, ev_queue(1));
        let inner = shared.borrow();
        assert_eq!(inner.0.records.len(), 1);
        assert_eq!(inner.1.kinds.get("request_queued"), 1);
    }

    #[test]
    fn merge_orders_by_time_and_renumbers() {
        let a = {
            let mut r = VecRecorder::new();
            r.record(10, 0, 0, ev_queue(1));
            r.record(30, 0, 0, ProtocolEvent::Unfrozen);
            r.into_records()
        };
        let b = {
            let mut r = VecRecorder::new();
            r.record(20, 0, 1, ProtocolEvent::Upgraded);
            r.into_records()
        };
        let merged = merge_records(vec![a, b]);
        let ats: Vec<u64> = merged.iter().map(|r| r.at).collect();
        assert_eq!(ats, vec![10, 20, 30]);
        let seqs: Vec<u64> = merged.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
    }
}
