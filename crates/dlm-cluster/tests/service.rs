//! Service-layer suite for the sharded runtime: per-shard workers, the
//! pipelined batch interface, admission control, per-link coalescing, and
//! the per-shard metrics surface.

use dlm_cluster::{
    Cluster, ClusterConfig, ClusterError, FaultConfig, LockId, Mode, ReliableConfig, TransportKind,
};
use std::time::Duration;

/// Operations on distinct locks from one node overlap: two blocking
/// acquires can be in flight concurrently and both complete once their
/// conflicts clear. (The single-pending rule is per lock, not per node.)
#[test]
fn distinct_locks_overlap_from_one_node() {
    let c = Cluster::new(ClusterConfig {
        nodes: 2,
        locks: 2,
        shards: 2,
        ..Default::default()
    });
    let h0 = c.handle(0);
    h0.acquire(LockId(0), Mode::Write).unwrap();
    h0.acquire(LockId(1), Mode::Write).unwrap();
    let h1 = c.handle(1);
    let waiters: Vec<_> = [LockId(0), LockId(1)]
        .into_iter()
        .map(|lock| {
            let h = h1.clone();
            std::thread::spawn(move || h.acquire(lock, Mode::Write))
        })
        .collect();
    std::thread::sleep(Duration::from_millis(50));
    for t in &waiters {
        assert!(!t.is_finished(), "waiter must block on the held conflict");
    }
    h0.release(LockId(0)).unwrap();
    h0.release(LockId(1)).unwrap();
    for t in waiters {
        t.join()
            .unwrap()
            .expect("both outstanding ops complete — no spurious Busy across locks");
    }
    h1.release(LockId(0)).unwrap();
    h1.release(LockId(1)).unwrap();
    c.quiesce();
    let report = c.shutdown();
    assert!(report.audit_errors.is_empty(), "{:?}", report.audit_errors);
    assert_eq!(report.replies_dropped, 0);
}

/// The pipeline preserves the per-lock Busy semantic: a second submission
/// on a lock with an outstanding operation completes `Busy` without
/// harming the first, while submissions on other locks proceed.
#[test]
fn pipeline_reports_busy_per_lock_only() {
    let c = Cluster::new(ClusterConfig {
        nodes: 2,
        locks: 2,
        ..Default::default()
    });
    let h0 = c.handle(0);
    h0.acquire(LockId(0), Mode::Write).unwrap();
    let mut pipe = c.handle(1).pipeline();
    pipe.submit_acquire(LockId(0), Mode::Write, 1).unwrap();
    pipe.submit_acquire(LockId(0), Mode::Read, 2).unwrap();
    pipe.submit_acquire(LockId(1), Mode::Write, 3).unwrap();
    pipe.flush().unwrap();
    // The duplicate on lock 0 and the free lock 1 complete first; the
    // blocked original completes only after the conflict clears.
    let first = pipe.recv().unwrap();
    let second = pipe.recv().unwrap();
    let mut got = [first, second];
    got.sort_by_key(|comp| comp.tag);
    assert_eq!(got[0].tag, 2);
    assert_eq!(got[0].result, Err(ClusterError::Busy));
    assert_eq!(got[1].tag, 3);
    assert_eq!(got[1].result, Ok(()));
    h0.release(LockId(0)).unwrap();
    let granted = pipe.recv().unwrap();
    assert_eq!(granted.tag, 1);
    assert_eq!(granted.result, Ok(()));
    pipe.submit_release(LockId(0), 4).unwrap();
    pipe.submit_release(LockId(1), 5).unwrap();
    pipe.flush().unwrap();
    assert!(pipe.recv().unwrap().result.is_ok());
    assert!(pipe.recv().unwrap().result.is_ok());
    assert_eq!(pipe.outstanding(), 0);
    c.quiesce();
    let report = c.shutdown();
    assert!(report.audit_errors.is_empty(), "{:?}", report.audit_errors);
    assert_eq!(report.replies_dropped, 0);
}

/// Bulk pipelined acquire/release across a sharded single node: every
/// completion is a grant, everything is local (zero messages), and the
/// audit over thousands of lazily-created locks is clean.
#[test]
fn pipeline_bulk_ops_across_shards() {
    const LOCKS: u32 = 2000;
    let c = Cluster::new(ClusterConfig {
        nodes: 1,
        locks: LOCKS as usize,
        shards: 4,
        ..Default::default()
    });
    assert_eq!(c.shards(), 4);
    let mut pipe = c.handle(0).pipeline();
    let mut pending = 0usize;
    for l in 0..LOCKS {
        pipe.submit_acquire(LockId(l), Mode::Write, l as u64)
            .unwrap();
        pending += 1;
        // Keep the submission window under the shard queue bound.
        while pending > 512 {
            assert!(pipe.recv().unwrap().result.is_ok());
            pending -= 1;
        }
    }
    while pending > 0 {
        assert!(pipe.recv().unwrap().result.is_ok());
        pending -= 1;
    }
    for l in 0..LOCKS {
        pipe.submit_release(LockId(l), l as u64).unwrap();
        pending += 1;
        while pending > 512 {
            assert!(pipe.recv().unwrap().result.is_ok());
            pending -= 1;
        }
    }
    while pending > 0 {
        assert!(pipe.recv().unwrap().result.is_ok());
        pending -= 1;
    }
    assert_eq!(c.messages_sent(), 0, "single-node ops are purely local");
    let report = c.shutdown();
    assert!(report.audit_errors.is_empty(), "{:?}", report.audit_errors);
    assert_eq!(report.acquire_latency.count(), LOCKS as u64);
    assert_eq!(report.replies_dropped, 0);
}

/// A zero-capacity shard queue sheds every application operation as
/// `Overloaded` — blocking and pipelined alike — and the rejections are
/// tallied in the per-shard metrics.
#[test]
fn zero_queue_sheds_load_as_overloaded() {
    let c = Cluster::new(ClusterConfig {
        nodes: 1,
        shard_queue: 0,
        ..Default::default()
    });
    let h = c.handle(0);
    assert_eq!(
        h.acquire(LockId::TABLE, Mode::Read),
        Err(ClusterError::Overloaded)
    );
    assert_eq!(
        h.try_acquire(LockId::TABLE, Mode::Read),
        Err(ClusterError::Overloaded)
    );
    let mut pipe = h.pipeline();
    assert_eq!(
        pipe.submit_acquire(LockId::TABLE, Mode::Read, 0),
        Err(ClusterError::Overloaded)
    );
    let snap = c.metrics_snapshot();
    assert!(
        snap.contains("dlm_shard_rejections_total{node=\"0\",shard=\"0\"} 3"),
        "rejections not tallied:\n{snap}"
    );
    let report = c.shutdown();
    assert!(report.audit_errors.is_empty(), "{:?}", report.audit_errors);
}

/// The live snapshot exposes per-shard series alongside the per-node
/// aggregates, and completed work is attributed to the shard that did it.
#[test]
fn per_shard_metrics_are_exported() {
    const LOCKS: u32 = 64;
    let c = Cluster::new(ClusterConfig {
        nodes: 1,
        locks: LOCKS as usize,
        shards: 4,
        ..Default::default()
    });
    let h = c.handle(0);
    for l in 0..LOCKS {
        h.acquire(LockId(l), Mode::Write).unwrap();
        h.release(LockId(l)).unwrap();
    }
    let snap = c.metrics_snapshot();
    for needle in [
        "dlm_shard_queue_depth{node=\"0\",shard=\"0\"}",
        "dlm_shard_queue_depth{node=\"0\",shard=\"3\"}",
        "dlm_shard_rejections_total{node=\"0\",shard=\"1\"} 0",
        "dlm_shard_ops_total{node=\"0\",shard=\"2\"}",
        // Per-node aggregates must survive sharding with their old names.
        "dlm_acquires_total{node=\"0\"} 64",
        "dlm_releases_total{node=\"0\"} 64",
        "dlm_acquire_latency_us{quantile=\"0.99\"}",
    ] {
        assert!(snap.contains(needle), "snapshot missing {needle}:\n{snap}");
    }
    // The shard ops series sums to the node's completed operations, and
    // with 64 locks over a splittable hash every shard did some of them.
    let ops: Vec<u64> = snap
        .lines()
        .filter(|l| l.starts_with("dlm_shard_ops_total{"))
        .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
        .collect();
    assert_eq!(ops.len(), 4);
    assert_eq!(ops.iter().sum::<u64>(), 2 * LOCKS as u64);
    assert!(ops.iter().all(|&v| v > 0), "idle shard in {ops:?}");
    let report = c.shutdown();
    assert!(report.audit_errors.is_empty(), "{:?}", report.audit_errors);
}

/// A blocking operation is counted before its caller returns: a snapshot
/// taken right after each call shows it, with no wait in between.
#[test]
fn a_blocking_op_is_counted_before_its_call_returns() {
    const LOCKS: u32 = 64;
    let c = Cluster::new(ClusterConfig {
        nodes: 1,
        locks: LOCKS as usize,
        shards: 4,
        ..Default::default()
    });
    let h = c.handle(0);
    for i in 1..=500u32 {
        let lock = LockId(i % LOCKS);
        h.acquire(lock, Mode::Write).unwrap();
        let snap = c.metrics_snapshot();
        let acquired = format!("dlm_acquires_total{{node=\"0\"}} {i}\n");
        assert!(snap.contains(&acquired), "after acquire {i}:\n{snap}");
        h.release(lock).unwrap();
        let snap = c.metrics_snapshot();
        let released = format!("dlm_releases_total{{node=\"0\"}} {i}\n");
        assert!(snap.contains(&released), "after release {i}:\n{snap}");
    }
    let report = c.shutdown();
    assert!(report.audit_errors.is_empty(), "{:?}", report.audit_errors);
}

/// Drive a hot link with pipelined batches and check the coalescing
/// counters: every protocol frame is accounted to a link, and many of them
/// share each physical wire frame.
#[test]
fn coalescing_packs_protocol_frames_per_wire_frame() {
    const LOCKS: u32 = 400;
    let c = Cluster::new(ClusterConfig {
        nodes: 2,
        locks: LOCKS as usize,
        ..Default::default()
    });
    let mut pipe = c.handle(1).pipeline();
    for l in 0..LOCKS {
        pipe.submit_acquire(LockId(l), Mode::Write, l as u64)
            .unwrap();
    }
    for _ in 0..LOCKS {
        assert!(pipe.recv().unwrap().result.is_ok());
    }
    for l in 0..LOCKS {
        pipe.submit_release(LockId(l), l as u64).unwrap();
    }
    pipe.flush().unwrap();
    c.quiesce();
    let report = c.shutdown();
    assert!(report.audit_errors.is_empty(), "{:?}", report.audit_errors);
    let (proto, wire) = report
        .links
        .iter()
        .fold((0, 0), |(p, w), l| (p + l.proto_sent, w + l.wire_sent));
    assert_eq!(proto, report.messages_sent, "every protocol frame counted");
    assert!(
        wire * 2 <= proto,
        "hot links must pack >2 protocol frames per wire frame on average \
         ({proto} proto / {wire} wire)"
    );
}

/// A pipeline dropped with unshipped operations must give their admission
/// slots back: they were reserved at submission, and only the worker that
/// dequeues an operation releases its slot. The leak used to pin
/// `dlm_shard_queue_depth` above 0 forever and, once `shard_queue` slots had
/// leaked, made the shard answer `Overloaded` to everyone.
#[test]
fn dropped_pipeline_returns_its_unshipped_slots() {
    let c = Cluster::new(ClusterConfig {
        nodes: 1,
        locks: 16,
        shard_queue: 10,
        ..Default::default()
    });
    let fill = |pipe: &mut dlm_cluster::Pipeline| {
        for l in 0..10 {
            pipe.submit_acquire(LockId(l), Mode::Read, l as u64)
                .expect("admitted");
        }
    };
    let mut abandoned = c.handle(0).pipeline();
    fill(&mut abandoned);
    drop(abandoned); // never flushed: the worker never sees these ten
    let snap = c.metrics_snapshot();
    assert!(
        snap.contains("dlm_shard_queue_depth{node=\"0\",shard=\"0\"} 0\n"),
        "slots leaked:\n{snap}"
    );
    // The whole queue is available again to a fresh pipeline.
    let mut pipe = c.handle(0).pipeline();
    fill(&mut pipe);
    for _ in 0..10 {
        assert!(pipe.recv().unwrap().result.is_ok());
    }
    for l in 0..10 {
        pipe.submit_release(LockId(l), 0).unwrap();
    }
    for _ in 0..10 {
        assert!(pipe.recv().unwrap().result.is_ok());
    }
    let report = c.shutdown();
    assert!(report.audit_errors.is_empty(), "{:?}", report.audit_errors);
}

/// A blocking call that finds its worker gone gives its admission slot
/// back: a handle that outlives its cluster answers `Disconnected` every
/// time, and never runs the gate full into `Overloaded`.
#[test]
fn a_call_to_a_stopped_worker_returns_its_slot() {
    let c = Cluster::new(ClusterConfig {
        nodes: 1,
        shard_queue: 4,
        ..Default::default()
    });
    let h = c.handle(0);
    c.shutdown();
    for attempt in 0..8 {
        assert_eq!(
            h.acquire(LockId::TABLE, Mode::Read),
            Err(ClusterError::Disconnected),
            "attempt {attempt}"
        );
    }
}

/// A chunk that finds its worker gone takes its ops off `outstanding`:
/// the failed flush answers `Disconnected`, and so does the `recv` after
/// it, instead of blocking for completions nobody will send.
#[test]
fn a_failed_flush_leaves_nothing_outstanding() {
    let c = Cluster::new(ClusterConfig {
        nodes: 1,
        ..Default::default()
    });
    let mut pipe = c.handle(0).pipeline();
    pipe.submit_acquire(LockId::TABLE, Mode::Read, 1).unwrap();
    c.shutdown();
    assert_eq!(pipe.flush(), Err(ClusterError::Disconnected));
    assert_eq!(pipe.outstanding(), 0);
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(pipe.recv());
    });
    assert_eq!(
        rx.recv_timeout(Duration::from_secs(5)),
        Ok(Err(ClusterError::Disconnected)),
        "recv after a failed flush must not block"
    );
}

/// The exposition format is an interface (`dlm-api`, `msgstats` and the
/// benchmark parse it): pin every byte of a fresh cluster's snapshot.
#[test]
fn metrics_snapshot_format_is_pinned() {
    let c = Cluster::new(ClusterConfig {
        nodes: 2,
        shards: 2,
        ..Default::default()
    });
    let expected = "\
# HELP dlm_messages_total Protocol messages transmitted.
# TYPE dlm_messages_total counter
dlm_messages_total 0
# HELP dlm_replies_dropped_total Completion replies whose receiver had gone away.
# TYPE dlm_replies_dropped_total counter
dlm_replies_dropped_total 0
# HELP dlm_frames_in_flight Physical frames sent but not yet fully processed.
# TYPE dlm_frames_in_flight gauge
dlm_frames_in_flight 0
# HELP dlm_frames_unacked Data sequences sent but not yet cumulatively acked.
# TYPE dlm_frames_unacked gauge
dlm_frames_unacked 0
# HELP dlm_acquires_total Completed acquire operations.
# TYPE dlm_acquires_total counter
dlm_acquires_total{node=\"0\"} 0
dlm_acquires_total{node=\"1\"} 0
# HELP dlm_upgrades_total Completed Rule 7 upgrades.
# TYPE dlm_upgrades_total counter
dlm_upgrades_total{node=\"0\"} 0
dlm_upgrades_total{node=\"1\"} 0
# HELP dlm_releases_total Completed releases.
# TYPE dlm_releases_total counter
dlm_releases_total{node=\"0\"} 0
dlm_releases_total{node=\"1\"} 0
# HELP dlm_shard_queue_depth Application operations queued per shard worker.
# TYPE dlm_shard_queue_depth gauge
dlm_shard_queue_depth{node=\"0\",shard=\"0\"} 0
dlm_shard_queue_depth{node=\"0\",shard=\"1\"} 0
dlm_shard_queue_depth{node=\"1\",shard=\"0\"} 0
dlm_shard_queue_depth{node=\"1\",shard=\"1\"} 0
# HELP dlm_shard_rejections_total Operations refused because a shard queue was full.
# TYPE dlm_shard_rejections_total counter
dlm_shard_rejections_total{node=\"0\",shard=\"0\"} 0
dlm_shard_rejections_total{node=\"0\",shard=\"1\"} 0
dlm_shard_rejections_total{node=\"1\",shard=\"0\"} 0
dlm_shard_rejections_total{node=\"1\",shard=\"1\"} 0
# HELP dlm_shard_ops_total Operations completed per shard worker.
# TYPE dlm_shard_ops_total counter
dlm_shard_ops_total{node=\"0\",shard=\"0\"} 0
dlm_shard_ops_total{node=\"0\",shard=\"1\"} 0
dlm_shard_ops_total{node=\"1\",shard=\"0\"} 0
dlm_shard_ops_total{node=\"1\",shard=\"1\"} 0
# HELP dlm_acquire_latency_us Issue-to-grant wall-clock latency of completed operations (microseconds).
# TYPE dlm_acquire_latency_us summary
dlm_acquire_latency_us{quantile=\"0.5\"} 0
dlm_acquire_latency_us{quantile=\"0.95\"} 0
dlm_acquire_latency_us{quantile=\"0.99\"} 0
dlm_acquire_latency_us_sum 0
dlm_acquire_latency_us_count 0
# HELP dlm_acquire_hops Causal network hops on each completed operation's granting chain.
# TYPE dlm_acquire_hops summary
dlm_acquire_hops{quantile=\"0.5\"} 0
dlm_acquire_hops{quantile=\"0.95\"} 0
dlm_acquire_hops{quantile=\"0.99\"} 0
dlm_acquire_hops_sum 0
dlm_acquire_hops_count 0
";
    assert_eq!(c.metrics_snapshot(), expected);
    c.shutdown();
}

/// The chaos bar, sharded: multiple workers per node over 10% loss +
/// duplication + reordering, with coalesced containers flowing through the
/// reliability shim. Every operation completes and the audit is clean.
#[test]
fn sharded_cluster_survives_lossy_links() {
    let c = Cluster::new(ClusterConfig {
        nodes: 3,
        locks: 4,
        shards: 2,
        transport: TransportKind::Faulty(FaultConfig::lossy(0x5EED, 0.10)),
        reliable: Some(ReliableConfig::default()),
        ..Default::default()
    });
    let threads: Vec<_> = (0..3)
        .map(|i| {
            let h = c.handle(i);
            std::thread::spawn(move || {
                for round in 0..4u32 {
                    for lock in 0..4u32 {
                        let mode = [Mode::IntentWrite, Mode::Write, Mode::Read]
                            [((round + lock + i) % 3) as usize];
                        h.acquire(LockId(lock), mode).unwrap();
                        h.release(LockId(lock)).unwrap();
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    c.quiesce();
    let report = c.shutdown();
    assert!(report.audit_errors.is_empty(), "{:?}", report.audit_errors);
    assert_eq!(report.decode_errors, 0);
    assert_eq!(report.replies_dropped, 0);
    let dropped: u64 = report.links.iter().map(|l| l.dropped).sum();
    assert!(dropped > 0, "the fault stage was in the path");
}

/// A waiter that leaves never wedges a lock. Node 0 holds W; node 1 asks
/// for W through a pipeline and drops the pipeline while the request is
/// queued; node 2 asks for W behind it. When node 0 releases, node 1's
/// grant finds nobody to tell, so node 1 releases it in the same step and
/// node 2 is served.
#[test]
fn a_dropped_pipeline_never_wedges_a_lock() {
    let c = Cluster::new(ClusterConfig {
        nodes: 3,
        locks: 1,
        ..Default::default()
    });
    let (h0, h2) = (c.handle(0), c.handle(2));
    h0.acquire(LockId::TABLE, Mode::Write).unwrap();
    let mut pipe = c.handle(1).pipeline();
    pipe.submit_acquire(LockId::TABLE, Mode::Write, 1).unwrap();
    pipe.flush().unwrap();
    c.quiesce();
    drop(pipe);
    let (done_tx, done) = std::sync::mpsc::channel();
    let waiter = std::thread::spawn(move || {
        let granted = h2.acquire(LockId::TABLE, Mode::Write);
        let _ = done_tx.send(granted);
        h2
    });
    c.quiesce();
    assert!(done.try_recv().is_err(), "node 2 queues behind node 1");
    h0.release(LockId::TABLE).unwrap();
    let granted = done
        .recv_timeout(Duration::from_secs(5))
        .expect("node 2's acquire completes");
    assert_eq!(granted, Ok(()));
    let h2 = waiter.join().unwrap();
    h2.release(LockId::TABLE).unwrap();
    c.quiesce();
    let report = c.shutdown();
    assert!(report.audit_errors.is_empty(), "{:?}", report.audit_errors);
    assert_eq!(report.grants_abandoned, 1);
    assert_eq!(report.replies_dropped, 1, "node 1's grant had no listener");
}

/// The same leak after a crash: node 2's W, submitted through a pipeline
/// that is then dropped, is queued at node 1, which holds W and crashes.
/// Recovery re-issues node 2's request under Rule R1 and the regenerated
/// root grants it, but nobody is left to hear of the grant, so node 2
/// releases it in the same step. The lock serves everyone again, node 2
/// holds nothing, and the audit over the survivors is clean.
#[test]
fn a_recovered_op_with_no_waiter_is_released() {
    let c = Cluster::new(ClusterConfig {
        nodes: 3,
        locks: 1,
        ..Default::default()
    });
    c.handle(1).acquire(LockId::TABLE, Mode::Write).unwrap();
    let mut pipe = c.handle(2).pipeline();
    pipe.submit_acquire(LockId::TABLE, Mode::Write, 1).unwrap();
    pipe.flush().unwrap();
    c.quiesce();
    drop(pipe);
    c.crash_node(1);
    assert_eq!(c.recover(1), 1, "the crashed holder's lock is repaired");
    let (h0, h2) = (c.handle(0), c.handle(2));
    let not_held = Err(ClusterError::Release(dlm_core::ReleaseError::NotHeld));
    assert_eq!(h2.release(LockId::TABLE), not_held, "node 2 holds no mode");
    h0.acquire(LockId::TABLE, Mode::Write).unwrap();
    h0.release(LockId::TABLE).unwrap();
    h2.acquire(LockId::TABLE, Mode::Write).unwrap();
    h2.release(LockId::TABLE).unwrap();
    c.quiesce();
    let report = c.shutdown();
    assert!(report.audit_errors.is_empty(), "{:?}", report.audit_errors);
    assert_eq!(
        report.grants_abandoned, 1,
        "the re-issued grant is released"
    );
    assert_eq!(report.replies_dropped, 1, "node 2's grant had no listener");
}
