//! Integration tests for the threaded cluster runtime: the protocol under
//! true parallelism, with wire-codec round-trips on every message.

use dlm_cluster::{Cluster, ClusterConfig, ClusterError, FaultConfig, LockId, Mode, TransportKind};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A fault-free link with constant one-way latency `delay`.
fn delayed(delay: Duration) -> TransportKind {
    TransportKind::Faulty(FaultConfig {
        delay,
        ..FaultConfig::default()
    })
}

fn cluster(nodes: usize, locks: usize) -> Cluster {
    Cluster::new(ClusterConfig {
        nodes,
        locks,
        ..Default::default()
    })
}

#[test]
fn single_node_local_grants() {
    let c = cluster(1, 1);
    let h = c.handle(0);
    h.acquire(LockId::TABLE, Mode::Write).unwrap();
    h.release(LockId::TABLE).unwrap();
    let report = c.shutdown();
    assert_eq!(report.messages_sent, 0);
    assert!(report.audit_errors.is_empty(), "{:?}", report.audit_errors);
}

#[test]
fn two_nodes_exclusive_handoff() {
    let c = cluster(2, 1);
    let a = c.handle(0);
    let b = c.handle(1);
    a.acquire(LockId::TABLE, Mode::Write).unwrap();
    // b's acquire must block until a releases: drive it from a thread.
    let b2 = b.clone();
    let t = std::thread::spawn(move || b2.acquire(LockId::TABLE, Mode::Write));
    std::thread::sleep(Duration::from_millis(20));
    assert!(!t.is_finished(), "W must wait for W");
    a.release(LockId::TABLE).unwrap();
    t.join().unwrap().unwrap();
    b.release(LockId::TABLE).unwrap();
    c.quiesce(Duration::from_millis(10));
    let report = c.shutdown();
    assert!(report.audit_errors.is_empty(), "{:?}", report.audit_errors);
    assert!(report.messages_sent >= 2);
}

#[test]
fn readers_share_writers_exclude() {
    let c = cluster(4, 1);
    let mut handles = Vec::new();
    for i in 0..4 {
        handles.push(c.handle(i));
    }
    // All four take R concurrently — all must succeed while held.
    let in_cs = Arc::new(AtomicU32::new(0));
    let peak = Arc::new(AtomicU32::new(0));
    let threads: Vec<_> = handles
        .iter()
        .cloned()
        .map(|h| {
            let in_cs = Arc::clone(&in_cs);
            let peak = Arc::clone(&peak);
            std::thread::spawn(move || {
                h.acquire(LockId::TABLE, Mode::Read).unwrap();
                let now = in_cs.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(30));
                in_cs.fetch_sub(1, Ordering::SeqCst);
                h.release(LockId::TABLE).unwrap();
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    assert!(
        peak.load(Ordering::SeqCst) >= 2,
        "read locks should overlap (peak {})",
        peak.load(Ordering::SeqCst)
    );
    c.quiesce(Duration::from_millis(10));
    let report = c.shutdown();
    assert!(report.audit_errors.is_empty(), "{:?}", report.audit_errors);
}

#[test]
fn writers_never_overlap_under_contention() {
    let c = cluster(6, 1);
    let in_cs = Arc::new(AtomicU32::new(0));
    let violations = Arc::new(AtomicU32::new(0));
    let threads: Vec<_> = (0..6)
        .map(|i| {
            let h = c.handle(i);
            let in_cs = Arc::clone(&in_cs);
            let violations = Arc::clone(&violations);
            std::thread::spawn(move || {
                for _ in 0..5 {
                    h.acquire(LockId::TABLE, Mode::Write).unwrap();
                    if in_cs.fetch_add(1, Ordering::SeqCst) != 0 {
                        violations.fetch_add(1, Ordering::SeqCst);
                    }
                    std::thread::sleep(Duration::from_millis(1));
                    in_cs.fetch_sub(1, Ordering::SeqCst);
                    h.release(LockId::TABLE).unwrap();
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    assert_eq!(violations.load(Ordering::SeqCst), 0, "mutual exclusion");
    c.quiesce(Duration::from_millis(10));
    let report = c.shutdown();
    assert!(report.audit_errors.is_empty(), "{:?}", report.audit_errors);
}

#[test]
fn hierarchical_intent_plus_entry_across_locks() {
    let c = cluster(3, 4); // table + 3 entries
    let threads: Vec<_> = (0..3)
        .map(|i| {
            let h = c.handle(i);
            std::thread::spawn(move || {
                for round in 0..10u32 {
                    let entry = LockId::entry((round + i) % 3);
                    h.acquire(LockId::TABLE, Mode::IntentWrite).unwrap();
                    h.acquire(entry, Mode::Write).unwrap();
                    std::thread::sleep(Duration::from_micros(200));
                    h.release(entry).unwrap();
                    h.release(LockId::TABLE).unwrap();
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    c.quiesce(Duration::from_millis(10));
    let report = c.shutdown();
    assert!(report.audit_errors.is_empty(), "{:?}", report.audit_errors);
}

#[test]
fn upgrade_is_atomic_under_contention() {
    let c = cluster(3, 1);
    let h0 = c.handle(0);
    let h1 = c.handle(1);
    h1.acquire(LockId::TABLE, Mode::Upgrade).unwrap();
    // A competing reader takes IR concurrently (compatible with U).
    h0.acquire(LockId::TABLE, Mode::IntentRead).unwrap();
    // The upgrade must wait for the IR holder.
    let h1b = h1.clone();
    let t = std::thread::spawn(move || h1b.upgrade(LockId::TABLE));
    std::thread::sleep(Duration::from_millis(20));
    assert!(!t.is_finished(), "upgrade waits for the IR holder");
    h0.release(LockId::TABLE).unwrap();
    t.join().unwrap().unwrap();
    h1.release(LockId::TABLE).unwrap();
    c.quiesce(Duration::from_millis(10));
    let report = c.shutdown();
    assert!(report.audit_errors.is_empty(), "{:?}", report.audit_errors);
}

#[test]
fn api_misuse_is_reported() {
    let c = cluster(2, 1);
    let h = c.handle(0);
    assert!(matches!(
        h.release(LockId::TABLE),
        Err(ClusterError::Release(_))
    ));
    h.acquire(LockId::TABLE, Mode::Read).unwrap();
    assert!(matches!(
        h.acquire(LockId::TABLE, Mode::Write),
        Err(ClusterError::Acquire(_))
    ));
    assert!(matches!(
        h.upgrade(LockId::TABLE),
        Err(ClusterError::Upgrade(_))
    ));
    h.release(LockId::TABLE).unwrap();
    c.shutdown();
}

#[test]
fn trace_capture_matches_message_count() {
    let c = Cluster::new(ClusterConfig {
        nodes: 3,
        locks: 2,
        trace_capacity: 1 << 16,
        ..Default::default()
    });
    let threads: Vec<_> = (0..3)
        .map(|i| {
            let h = c.handle(i);
            std::thread::spawn(move || {
                for _ in 0..4 {
                    h.acquire(LockId::TABLE, Mode::IntentWrite).unwrap();
                    h.acquire(LockId::entry(0), Mode::Write).unwrap();
                    h.release(LockId::entry(0)).unwrap();
                    h.release(LockId::TABLE).unwrap();
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    c.quiesce(Duration::from_millis(10));
    let report = c.shutdown();
    assert!(report.audit_errors.is_empty(), "{:?}", report.audit_errors);
    assert_eq!(report.trace_dropped, 0, "capacity covers the whole run");
    assert_eq!(report.replies_dropped, 0, "every caller saw its outcome");
    assert!(!report.trace.is_empty());
    // The 1:1 contract: one send-class event per transmitted message.
    let sends = report
        .trace
        .iter()
        .filter(|r| r.event.send_class().is_some())
        .count() as u64;
    assert_eq!(sends, report.messages_sent);
    // Merged trace is one timeline: stamps non-decreasing, seq renumbered.
    assert!(report.trace.windows(2).all(|w| w[0].at <= w[1].at));
    assert!(report
        .trace
        .iter()
        .enumerate()
        .all(|(i, r)| r.seq == i as u64));
}

/// Regression for the router's cumulative-latency bug: the original router
/// slept `delay` *per message*, so N concurrent in-flight messages arrived
/// after ~N·delay. The deadline-sorted router must deliver them all after
/// ~delay.
#[test]
fn concurrent_delayed_messages_share_the_wire() {
    const DELAY_MS: u64 = 25;
    const REQUESTERS: u32 = 8;
    let c = Cluster::new(ClusterConfig {
        nodes: REQUESTERS as usize + 1,
        locks: REQUESTERS as usize + 1, // table + one entry per requester
        transport: delayed(Duration::from_millis(DELAY_MS)),
        ..Default::default()
    });
    // Each requester grabs its own entry lock: disjoint queues, so every
    // acquire is an independent request/grant pair through the router.
    let start = std::time::Instant::now();
    let threads: Vec<_> = (1..=REQUESTERS)
        .map(|i| {
            let h = c.handle(i);
            std::thread::spawn(move || {
                h.acquire(LockId::entry(i - 1), Mode::Write).unwrap();
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    let elapsed = start.elapsed();
    // Two one-way hops (request, grant) of 25 ms each: ~50 ms concurrent.
    // The old serializing router needed ≥ 2·8·25 ms = 400 ms. Allow ample
    // scheduling slack while still catching any per-message serialization.
    assert!(
        elapsed >= Duration::from_millis(2 * DELAY_MS),
        "latency model must still apply: {elapsed:?}"
    );
    assert!(
        elapsed < Duration::from_millis(8 * DELAY_MS),
        "concurrent in-flight messages must not serialize the delay: {elapsed:?}"
    );
    for i in 1..=REQUESTERS {
        c.handle(i).release(LockId::entry(i - 1)).unwrap();
    }
    c.quiesce(Duration::from_millis(10));
    let report = c.shutdown();
    assert!(report.audit_errors.is_empty(), "{:?}", report.audit_errors);
}

/// A quiet cluster's quiesce returns promptly (one idle window, not a fixed
/// settle schedule), and it is bounded even under sustained traffic.
#[test]
fn quiesce_is_prompt_when_quiet_and_bounded_when_not() {
    let c = cluster(2, 1);
    let start = std::time::Instant::now();
    let count = c.quiesce_within(Duration::from_millis(5), Duration::from_secs(10));
    assert_eq!(count, 0);
    assert!(
        start.elapsed() < Duration::from_millis(500),
        "quiet cluster must settle in ~one idle window: {:?}",
        start.elapsed()
    );

    // Sustained traffic: the bound, not stability, ends the wait.
    let stop = Arc::new(AtomicU32::new(0));
    let h = c.handle(1);
    let churner = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while stop.load(Ordering::SeqCst) == 0 {
                h.acquire(LockId::TABLE, Mode::Read).unwrap();
                h.release(LockId::TABLE).unwrap();
            }
        })
    };
    let start = std::time::Instant::now();
    c.quiesce_within(Duration::from_secs(5), Duration::from_millis(100));
    assert!(
        start.elapsed() < Duration::from_secs(2),
        "quiesce must respect its bound under load: {:?}",
        start.elapsed()
    );
    stop.store(1, Ordering::SeqCst);
    churner.join().unwrap();
    c.quiesce(Duration::from_millis(10));
    let report = c.shutdown();
    assert!(report.audit_errors.is_empty(), "{:?}", report.audit_errors);
}

/// An *active* cluster (delayed release waves still in the router) must
/// still quiesce fully before shutdown — no audit errors from cutting the
/// drain short.
#[test]
fn active_cluster_still_quiesces_fully() {
    let c = Cluster::new(ClusterConfig {
        nodes: 4,
        locks: 1,
        transport: delayed(Duration::from_millis(5)),
        ..Default::default()
    });
    let threads: Vec<_> = (0..4)
        .map(|i| {
            let h = c.handle(i);
            std::thread::spawn(move || {
                for _ in 0..3 {
                    h.acquire(LockId::TABLE, Mode::Write).unwrap();
                    h.release(LockId::TABLE).unwrap();
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    // Release traffic may still be parked in the 5 ms router; quiesce must
    // wait it out so the final audit sees a coherent global state.
    let settled = c.quiesce(Duration::from_millis(25));
    let report = c.shutdown();
    assert_eq!(settled, report.messages_sent, "quiesce saw the final count");
    assert!(report.audit_errors.is_empty(), "{:?}", report.audit_errors);
}

#[test]
fn router_delay_variant_works() {
    let c = Cluster::new(ClusterConfig {
        nodes: 3,
        locks: 1,
        transport: delayed(Duration::from_micros(300)),
        ..Default::default()
    });
    let threads: Vec<_> = (0..3)
        .map(|i| {
            let h = c.handle(i);
            std::thread::spawn(move || {
                for _ in 0..3 {
                    h.acquire(LockId::TABLE, Mode::Write).unwrap();
                    h.release(LockId::TABLE).unwrap();
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    c.quiesce(Duration::from_millis(20));
    let report = c.shutdown();
    assert!(report.audit_errors.is_empty(), "{:?}", report.audit_errors);
}

/// The tentpole observability contract: every completed acquire opens a
/// request span (`RequestStart`) that is closed by a `RequestGrant` carrying
/// the hop count, the per-node metrics land in the shutdown report's
/// histograms, and the live snapshot speaks Prometheus text format.
#[test]
fn request_spans_pair_up_and_feed_metrics() {
    use dlm_trace::ProtocolEvent;
    use std::collections::HashMap;

    let c = Cluster::new(ClusterConfig {
        nodes: 4,
        locks: 2,
        trace_capacity: 1 << 16,
        ..Default::default()
    });
    let threads: Vec<_> = (0..4)
        .map(|i| {
            let h = c.handle(i);
            std::thread::spawn(move || {
                for _ in 0..3 {
                    h.acquire(LockId::TABLE, Mode::IntentWrite).unwrap();
                    h.acquire(LockId::entry(0), Mode::Write).unwrap();
                    h.release(LockId::entry(0)).unwrap();
                    h.release(LockId::TABLE).unwrap();
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    c.quiesce(Duration::from_millis(10));

    // Snapshot while the cluster is still alive: the exporter is a live
    // endpoint, not a post-mortem artifact.
    let snap = c.metrics_snapshot();
    for needle in [
        "dlm_messages_total",
        "dlm_frames_in_flight",
        "dlm_acquires_total{node=\"0\"}",
        "dlm_acquire_latency_us{quantile=\"0.99\"}",
        "dlm_acquire_hops_count",
    ] {
        assert!(snap.contains(needle), "snapshot missing {needle}:\n{snap}");
    }

    let report = c.shutdown();
    assert!(report.audit_errors.is_empty(), "{:?}", report.audit_errors);
    assert_eq!(report.trace_dropped, 0);

    // Pair every span open with exactly one close carrying the same id.
    let mut open: HashMap<u64, u64> = HashMap::new();
    let mut grants = 0u64;
    for r in &report.trace {
        match r.event {
            ProtocolEvent::RequestStart { req, .. } => {
                *open.entry(req).or_insert(0) += 1;
            }
            ProtocolEvent::RequestGrant { req, .. } => {
                grants += 1;
                let n = open.get_mut(&req).expect("grant without start");
                *n = n.checked_sub(1).expect("grant closed a span twice");
            }
            _ => {}
        }
    }
    // 4 nodes x 3 rounds x 2 acquires each, all of which complete.
    assert_eq!(grants, 24, "every completed acquire closes its span");
    assert!(open.values().all(|&n| n == 0), "unclosed spans: {open:?}");

    // The same completions feed the report histograms one-for-one, and hop
    // counts on remote grants are visible in the distribution.
    assert_eq!(report.acquire_latency.count(), grants);
    assert_eq!(report.acquire_hops.count(), grants);
    assert!(report.acquire_hops.max() >= 1, "remote grants took hops");
}
