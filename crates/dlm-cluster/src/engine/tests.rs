#[cfg(test)] // implied by `mod tests`; repeated so size tooling sees a test file
use super::*;
use crate::member::fold_links;
use crate::reliable::{ReliableConfig, IN_PROCESS_RTO};
use crossbeam::channel::{bounded, unbounded, Receiver};
use dlm_core::audit;
use std::time::Duration;

// Engine-level tests: a `ShardEngine` stepped by hand, single-threaded,
// under a fabricated clock — what the deleted public test hooks
// (`inject_frame`, `orphan_waiter`) could only reach through real threads.

type Outcome = Receiver<Result<(), ClusterError>>;

/// Engines for nodes `0..nodes` of one cluster (one shard each, sharing
/// counters as one process does), with trace time base `base`.
fn engines(nodes: usize, reliable: bool, base: Instant) -> (Vec<ShardEngine>, Counters) {
    let config = ClusterConfig {
        nodes,
        locks: 2,
        reliable: reliable.then_some(ReliableConfig {
            rto: IN_PROCESS_RTO,
        }),
        ..ClusterConfig::default()
    };
    let counters = Counters::default();
    let engines = (0..nodes as u32)
        .map(|me| {
            let gate = Arc::new(ShardGate::new(config.shard_queue));
            let metrics = Arc::default();
            ShardEngine::new(
                NodeId(me),
                0,
                &config,
                base,
                counters.clone(),
                metrics,
                gate,
            )
        })
        .collect();
    (engines, counters)
}

/// Submit one blocking operation the way a `NodeHandle` does (gate slot
/// included) and step it in.
fn op(e: &mut ShardEngine, lock: LockId, kind: OpKind, now: Instant) -> Outcome {
    let (tx, rx) = bounded(1);
    assert!(e.gate.try_admit(1));
    let reply = Reply::oneshot(tx, &e.counters.replies_dropped);
    assert!(e.step(Input::Op { lock, kind, reply }, now));
    rx
}

/// Hand `frame` to `e` as if worker slot `from` had put it on the wire.
fn net(e: &mut ShardEngine, from: u32, frame: &[u8], now: Instant) {
    e.counters.in_flight.fetch_add(1, Ordering::Relaxed);
    let frame = Bytes::from(frame.to_vec());
    assert!(e.step(
        Input::Net {
            from: NodeId(from),
            frame
        },
        now
    ));
}

/// One `(now − base, from, to, frame)` row per frame that left an engine.
type WireLog = Vec<(Duration, u32, u32, Vec<u8>)>;

/// Run batch boundaries and deliver what they emit until the cluster is
/// silent, advancing the fabricated clock 10 µs per round. `lose` is asked
/// about every frame; a lost frame settles its gauge as a transport would.
fn settle(
    engines: &mut [ShardEngine],
    base: Instant,
    now: &mut Instant,
    log: &mut WireLog,
    lose: &mut dyn FnMut(u32, u32) -> bool,
) {
    loop {
        let mut sent = Vec::new();
        for (from, e) in engines.iter_mut().enumerate() {
            e.end_batch(*now, &mut |to, frame| sent.push((from as u32, to.0, frame)));
        }
        if sent.is_empty() {
            return;
        }
        *now += Duration::from_micros(10);
        for (from, to, frame) in sent {
            log.push((*now - base, from, to, frame.as_ref().to_vec()));
            if lose(from, to) {
                engines[to as usize]
                    .counters
                    .in_flight
                    .fetch_sub(1, Ordering::Relaxed);
            } else {
                let from = NodeId(from);
                assert!(engines[to as usize].step(Input::Net { from, frame }, *now));
            }
        }
    }
}

fn settle_clean(engines: &mut [ShardEngine], now: &mut Instant) {
    let base = *now;
    settle(engines, base, now, &mut Vec::new(), &mut |_, _| false);
}

#[test]
fn garbage_frames_are_counted_and_the_engine_keeps_serving() {
    let mut now = Instant::now();
    let (mut es, counters) = engines(2, false, now);
    net(&mut es[0], 1, b"\xde\xad\xbe\xef\xff\xff", now);
    net(&mut es[0], 1, b"", now); // truncated to nothing
    assert_eq!(es[0].decode_errors, 2, "both garbage frames counted");
    assert!(counters.is_idle(), "absorbed garbage settles the gauge");
    let granted = op(&mut es[0], LockId::TABLE, OpKind::Acquire(Mode::Write), now);
    assert_eq!(granted.try_recv(), Ok(Ok(())));
    let released = op(&mut es[0], LockId::TABLE, OpKind::Release, now);
    assert_eq!(released.try_recv(), Ok(Ok(())));
    settle_clean(&mut es, &mut now);
    let exit = es.remove(0).finish();
    assert_eq!(exit.decode_errors, 2);
    assert_eq!(counters.replies_dropped.load(Ordering::Relaxed), 0);
}

#[test]
fn bad_reliability_header_is_counted_and_the_link_survives() {
    let mut now = Instant::now();
    let (mut es, counters) = engines(2, true, now);
    net(&mut es[0], 1, b"\x7fnot a link frame", now);
    assert_eq!(es[0].decode_errors, 1);
    // Link state is intact: sequence 0 from node 1 is still the next one
    // node 0 accepts, so a real exchange over the same link completes.
    let granted = op(&mut es[1], LockId::TABLE, OpKind::Acquire(Mode::Read), now);
    settle_clean(&mut es, &mut now);
    assert_eq!(granted.try_recv(), Ok(Ok(())));
    let released = op(&mut es[1], LockId::TABLE, OpKind::Release, now);
    assert_eq!(released.try_recv(), Ok(Ok(())));
    settle_clean(&mut es, &mut now);
    assert!(counters.is_idle(), "every data frame was acked");
    assert_eq!(es[0].decode_errors + es[1].decode_errors, 1);
}

#[test]
fn grant_for_a_vanished_waiter_is_counted_not_fatal() {
    let mut now = Instant::now();
    let (mut es, counters) = engines(2, false, now);
    let held = op(&mut es[0], LockId::TABLE, OpKind::Acquire(Mode::Write), now);
    assert_eq!(held.try_recv(), Ok(Ok(())));
    let parked = op(&mut es[1], LockId::TABLE, OpKind::Acquire(Mode::Write), now);
    settle_clean(&mut es, &mut now);
    assert!(parked.try_recv().is_err(), "queued behind node 0's W");
    // The waiter goes away while its operation stays active in the
    // protocol; the caller sees its channel close.
    es[1].waiters.clear();
    assert!(parked.try_recv().is_err());
    // The release hands node 1 the token; the grant has nobody to answer,
    // so node 1 releases it in the same step.
    op(&mut es[0], LockId::TABLE, OpKind::Release, now);
    settle_clean(&mut es, &mut now);
    assert_eq!(counters.replies_dropped.load(Ordering::Relaxed), 1);
    assert_eq!(counters.grants_abandoned.load(Ordering::Relaxed), 1);
    assert_eq!(es[1].locks[&LockId::TABLE.0].held(), Mode::NoLock);
    let released = op(&mut es[1], LockId::TABLE, OpKind::Release, now);
    assert_eq!(
        released.try_recv(),
        Ok(Err(ClusterError::Release(dlm_core::ReleaseError::NotHeld)))
    );
    // The engine keeps serving, and the lock is free for anyone.
    let again = op(&mut es[0], LockId::TABLE, OpKind::Acquire(Mode::Write), now);
    settle_clean(&mut es, &mut now);
    assert_eq!(again.try_recv(), Ok(Ok(())));
}

/// Hand `e` one pipelined chunk the way a `Pipeline` does (gate slots
/// included).
fn chunk(
    e: &mut ShardEngine,
    ops: &[(u32, OpKind, u64)],
    tx: &Sender<Vec<Completion>>,
    now: Instant,
) {
    assert!(e.gate.try_admit(ops.len()));
    let ops = ops
        .iter()
        .map(|&(lock, kind, tag)| PipeOp {
            lock: LockId(lock),
            kind,
            tag,
        })
        .collect();
    let tx = tx.clone();
    assert!(e.step(Input::Ops { ops, tx }, now));
}

/// `(acquires, upgrades, releases)` as the engine's live metrics read now.
fn counts(e: &ShardEngine) -> (u64, u64, u64) {
    let m = e.metrics.lock().unwrap();
    assert_eq!(m.acquire_latency.count(), m.acquires + m.upgrades);
    assert_eq!(m.acquire_hops.count(), m.acquires + m.upgrades);
    (m.acquires, m.upgrades, m.releases)
}

fn done(lock: u32, tag: u64, result: Result<(), ClusterError>) -> Completion {
    Completion {
        lock: LockId(lock),
        tag,
        result,
    }
}

#[test]
fn a_chunk_answers_what_it_settles_at_once_and_a_waiter_later() {
    let mut now = Instant::now();
    let (mut es, counters) = engines(2, false, now);
    // Node 1 takes lock 0 in W: the token leaves node 0.
    let held = op(&mut es[1], LockId(0), OpKind::Acquire(Mode::Write), now);
    settle_clean(&mut es, &mut now);
    assert_eq!(held.try_recv(), Ok(Ok(())));
    assert_eq!(counts(&es[1]), (1, 0, 0));

    // One chunk at node 0: free locks, the lock held elsewhere, a second op
    // on it (refused), a release of a lock granted earlier in the chunk, and
    // a failing release.
    let (tx, rx) = unbounded();
    let w = OpKind::Acquire(Mode::Write);
    let ops = [
        (1, w, 11),
        (0, w, 10),
        (2, OpKind::Acquire(Mode::Read), 12),
        (0, w, 14),
        (1, OpKind::Release, 13),
        (3, OpKind::Release, 15),
        (4, OpKind::Acquire(Mode::Upgrade), 16),
        (4, OpKind::Upgrade, 17),
    ];
    chunk(&mut es[0], &ops, &tx, now);
    let not_held = Err(ClusterError::Release(dlm_core::ReleaseError::NotHeld));
    assert_eq!(
        rx.try_recv().expect("the chunk's batch"),
        [
            done(1, 11, Ok(())),
            done(2, 12, Ok(())),
            done(0, 14, Err(ClusterError::Busy)),
            done(1, 13, Ok(())),
            done(3, 15, not_held),
            done(4, 16, Ok(())),
            done(4, 17, Ok(())),
        ],
        "everything settled in the step, in submission order, as one vector"
    );
    assert!(rx.try_recv().is_err(), "the waiting op is not answered yet");
    assert_eq!(
        counts(&es[0]),
        (3, 1, 1),
        "published at the end of the input"
    );

    // Node 1 releases; the token comes back and the waiter is answered on
    // its own.
    op(&mut es[1], LockId(0), OpKind::Release, now);
    assert_eq!(counts(&es[1]), (1, 0, 1));
    settle_clean(&mut es, &mut now);
    assert_eq!(rx.try_recv(), Ok(vec![done(0, 10, Ok(()))]));
    assert!(rx.try_recv().is_err());
    assert_eq!(counts(&es[0]), (4, 1, 1));
    assert_eq!(counters.replies_dropped.load(Ordering::Relaxed), 0);
    assert_eq!(counters.grants_abandoned.load(Ordering::Relaxed), 0);
}

#[test]
fn a_chunk_nobody_hears_releases_its_grants() {
    let mut now = Instant::now();
    let (mut es, counters) = engines(2, false, now);
    let held = op(&mut es[1], LockId(0), OpKind::Acquire(Mode::Write), now);
    settle_clean(&mut es, &mut now);
    assert_eq!(held.try_recv(), Ok(Ok(())));
    let held_before = op(&mut es[0], LockId(3), OpKind::Acquire(Mode::Read), now);
    assert_eq!(held_before.try_recv(), Ok(Ok(())));

    // The client is gone before its chunk is stepped.
    let (tx, rx) = unbounded();
    drop(rx);
    let w = OpKind::Acquire(Mode::Write);
    let ops = [
        // Granted and still held at chunk end: released.
        (1, w, 1),
        // Granted, then released by the chunk itself: nothing to do.
        (2, w, 2),
        (2, OpKind::Release, 3),
        // Held before the chunk, released and granted again: released.
        (3, OpKind::Release, 4),
        (3, w, 5),
        // Held by node 1: waits, and is released when its grant arrives.
        (0, w, 6),
    ];
    chunk(&mut es[0], &ops, &tx, now);
    drop(tx);
    assert_eq!(counters.replies_dropped.load(Ordering::Relaxed), 5);
    assert_eq!(counters.grants_abandoned.load(Ordering::Relaxed), 2);
    for lock in [1, 2, 3] {
        assert_eq!(es[0].locks[&lock].held(), Mode::NoLock, "lock {lock}");
    }
    op(&mut es[1], LockId(0), OpKind::Release, now);
    settle_clean(&mut es, &mut now);
    assert_eq!(counters.replies_dropped.load(Ordering::Relaxed), 6);
    assert_eq!(counters.grants_abandoned.load(Ordering::Relaxed), 3);
    assert_eq!(es[0].locks[&0].held(), Mode::NoLock);
    // Every lock is free again: node 1 takes lock 0 straight back.
    let again = op(&mut es[1], LockId(0), w, now);
    settle_clean(&mut es, &mut now);
    assert_eq!(again.try_recv(), Ok(Ok(())));
}

#[test]
fn die_fails_waiters_and_sends_nothing_more() {
    let mut now = Instant::now();
    let (mut es, counters) = engines(2, true, now);
    // One frame on the wire and unacked, one still buffered, one waiter each.
    let first = op(&mut es[1], LockId(0), OpKind::Acquire(Mode::Write), now);
    let mut sent = 0;
    es[1].end_batch(now, &mut |_, _| sent += 1);
    assert_eq!(sent, 1);
    counters.in_flight.fetch_sub(1, Ordering::Relaxed); // the wire ate it
    let second = op(&mut es[1], LockId(1), OpKind::Acquire(Mode::Write), now);
    assert!(!counters.is_idle(), "a buffered frame and an unacked one");

    assert!(es[1].step(Input::Die, now));
    assert!(!es[1].is_alive());
    for waiter in [first, second] {
        assert_eq!(waiter.try_recv(), Ok(Err(ClusterError::WorkerDied)));
    }
    now += Duration::from_secs(1); // far past any retransmission deadline
    es[1].end_batch(now, &mut |_, _| panic!("a dead engine wrote to the wire"));
    assert!(counters.is_idle(), "buffered and unacked frames settled");
    assert_eq!(es[1].next_deadline(), None);

    // Dead, it still consumes: frames settle the gauge, operations are
    // refused, and every gate slot comes back.
    net(&mut es[1], 0, b"anything", now);
    let refused = op(&mut es[1], LockId(0), OpKind::Release, now);
    assert_eq!(refused.try_recv(), Ok(Err(ClusterError::WorkerDied)));
    let (tx, rx) = unbounded();
    assert!(es[1].gate.try_admit(1));
    let ops = vec![PipeOp {
        lock: LockId(1),
        kind: OpKind::Upgrade,
        tag: 9,
    }];
    assert!(es[1].step(Input::Ops { ops, tx }, now));
    let died = rx.try_recv().expect("one batch");
    assert_eq!(died[0].result, Err(ClusterError::WorkerDied));
    assert!(counters.is_idle());
    assert_eq!(es[1].gate.depth(), 0);
    assert!(!es[1].step(Input::Shutdown, now));
    assert!(es.remove(1).finish().locks.is_empty(), "its state died too");
}

/// A repair wave is acknowledged by the step that applies it, and only
/// after the frames it caused are on the in-flight gauge: a coordinator
/// that has every acknowledgement and then reads the gauges idle has seen
/// the wave's traffic delivered.
#[test]
fn a_wave_is_acknowledged_once_its_frames_are_on_the_gauge() {
    let mut now = Instant::now();
    let (mut es, counters) = engines(3, false, now);
    // Node 2 takes the token, then crashes with it.
    let granted = op(&mut es[2], LockId(0), OpKind::Acquire(Mode::Write), now);
    settle_clean(&mut es, &mut now);
    assert_eq!(granted.try_recv(), Ok(Ok(())));
    let (applied, acks) = unbounded();
    let wave = Arc::new(Wave {
        dead: NodeId(2),
        survivors: vec![NodeId(0), NodeId(1)],
        plans: vec![(0, 0, 1)],
        applied,
    });
    for survivor in [0, 1] {
        let before = counters.in_flight.load(Ordering::Relaxed);
        assert!(acks.try_recv().is_err(), "no answer before the step");
        assert!(es[survivor].step(Input::PeerDown(Arc::clone(&wave)), now));
        assert_eq!(acks.try_recv(), Ok(()), "one answer per step");
        assert!(
            counters.in_flight.load(Ordering::Relaxed) > before,
            "node {survivor}'s repair traffic is buffered before it answers"
        );
    }
    drop(wave);
    settle_clean(&mut es, &mut now);
    assert!(counters.is_idle());
    assert!(acks.try_recv().is_err(), "nothing more to answer");
    for survivor in [0, 1] {
        let state = &es[survivor].locks[&0];
        assert_eq!(state.epoch(), 1);
        assert_eq!(state.has_token(), survivor == 0, "node 0 regenerated");
    }
}

/// One `Input` is one channel slot of every worker: the repair wave and
/// its acknowledgement ride behind one `Arc`, so recovery did not widen
/// the slot every frame and operation travels in.
#[test]
fn an_input_is_no_wider_than_56_bytes() {
    assert!(
        std::mem::size_of::<Input>() <= 56,
        "Input is {} bytes",
        std::mem::size_of::<Input>()
    );
}

#[test]
fn request_ids_step_over_zero_when_the_counter_wraps() {
    let base = Instant::now();
    let config = ClusterConfig {
        shards: 2,
        ..ClusterConfig::default()
    };
    let gate = Arc::new(ShardGate::new(1));
    let mut e = ShardEngine::new(
        NodeId(0),
        0,
        &config,
        base,
        Counters::default(),
        Arc::default(),
        gate,
    );
    // Node 0 / shard 0 is the one worker whose strided counter lands on
    // exactly 0 — the frame header's "uncorrelated" sentinel — after 2³²
    // operations.
    e.next_req = 0u32.wrapping_sub(2 * e.shards);
    let ids: Vec<u64> = (0..3).map(|_| e.alloc_req()).collect();
    assert_eq!(ids, [u32::MAX as u64 - 1, 2, 4]);
}

/// The property deterministic whole-stack simulation builds on: with time
/// and the link supplied from outside, a run is a pure function of its
/// schedule. Three engines behind the reliability shim hand a Write lock
/// 0 → 1 → 2 over a link that loses the first data frame 1 → 0. Returns
/// the wire log and the engines' folded link table.
fn lossy_write_handoff() -> (WireLog, Vec<LinkReport>) {
    let base = Instant::now();
    let mut now = base;
    let (mut es, counters) = engines(3, true, base);
    let mut log = WireLog::new();
    let mut lost = false;
    let mut lose_first = |from, to| (from, to) == (1, 0) && !std::mem::replace(&mut lost, true);

    let w1 = op(&mut es[1], LockId::TABLE, OpKind::Acquire(Mode::Write), now);
    settle(&mut es, base, &mut now, &mut log, &mut lose_first);
    assert_eq!(log.len(), 1, "the request left once and was lost");
    // The retransmission leaves exactly when `now` reaches the deadline.
    let due = es[1].next_deadline().expect("an unacked frame");
    assert_eq!(due, base + IN_PROCESS_RTO);
    now = due - Duration::from_micros(1);
    settle(&mut es, base, &mut now, &mut log, &mut lose_first);
    assert_eq!(log.len(), 1, "nothing leaves before the deadline");
    now = due;
    settle(&mut es, base, &mut now, &mut log, &mut lose_first);
    assert_eq!(
        log[1],
        (
            due + Duration::from_micros(10) - base,
            1,
            0,
            log[1].3.clone()
        )
    );
    assert_eq!(w1.try_recv(), Ok(Ok(())), "0 → 1");

    let w2 = op(&mut es[2], LockId::TABLE, OpKind::Acquire(Mode::Write), now);
    settle(&mut es, base, &mut now, &mut log, &mut lose_first);
    assert!(w2.try_recv().is_err(), "queued behind node 1's W");
    op(&mut es[1], LockId::TABLE, OpKind::Release, now);
    settle(&mut es, base, &mut now, &mut log, &mut lose_first);
    assert_eq!(w2.try_recv(), Ok(Ok(())), "1 → 2");
    op(&mut es[2], LockId::TABLE, OpKind::Release, now);
    settle(&mut es, base, &mut now, &mut log, &mut lose_first);

    assert!(counters.is_idle());
    let mut states = Vec::new();
    let mut rows = Vec::new();
    for e in es {
        let mut exit = e.finish();
        states.push(exit.locks.remove(&LockId::TABLE.0).expect("touched"));
        rows.extend(exit.links);
    }
    let errors = audit(&states, &[], true);
    assert!(errors.is_empty(), "{errors:?}");
    (log, fold_links(&rows))
}

#[test]
fn a_schedule_replays_byte_for_byte() {
    let (log, links) = lossy_write_handoff();
    assert!(
        log.len() > 6,
        "requests, token transfers and acks all logged"
    );
    // Every data frame carried one lone protocol frame (nothing to
    // coalesce), so `proto_sent = wire_sent = data_sent` on each link.
    let row = |from, to, data_sent, retransmits, acks_sent| LinkReport {
        data_sent,
        retransmits,
        acks_sent,
        proto_sent: data_sent,
        wire_sent: data_sent,
        ..LinkReport::new(from, to)
    };
    assert_eq!(
        links,
        [
            // The token 0 → 1, then node 2's request forwarded to node 1;
            // node 1 acks both bare.
            row(0, 1, 2, 0, 2),
            // Node 1's request: the dropped first copy is one retransmit;
            // node 0's token frame carries the ack.
            row(1, 0, 1, 1, 0),
            // The token 1 → 2.
            row(1, 2, 1, 0, 1),
            // Node 2's request to its parent, node 0.
            row(2, 0, 1, 0, 1),
        ]
    );
    assert_eq!((log, links), lossy_write_handoff());
}
