//! Tests of the CosConcurrency-style facade.

use dlm_api::LockSet;
use dlm_cluster::{Cluster, ClusterConfig};
use dlm_core::{LockId, Mode};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn two_node_sets() -> (Cluster, LockSet, LockSet) {
    let c = Cluster::new(ClusterConfig {
        nodes: 2,
        locks: 1,
        ..Default::default()
    });
    let a = LockSet::new(c.handle(0), LockId::TABLE);
    let b = LockSet::new(c.handle(1), LockId::TABLE);
    (c, a, b)
}

#[test]
fn lock_unlock_round_trip() {
    let (c, a, _b) = two_node_sets();
    a.lock(Mode::Write).unwrap();
    a.unlock().unwrap();
    c.shutdown();
}

#[test]
fn try_lock_is_conservative_and_local() {
    let (c, a, b) = two_node_sets();
    // Node 0 starts with the token: try_lock succeeds locally.
    assert!(a.try_lock(Mode::Write).unwrap());
    // Node 1 cannot admit anything locally (no ownership): fails without
    // blocking even though it *would* eventually get the lock.
    assert!(!b.try_lock(Mode::IntentRead).unwrap());
    a.unlock().unwrap();
    let report = c.shutdown();
    assert_eq!(report.messages_sent, 0, "try_lock never sends messages");
}

#[test]
fn guard_releases_on_drop() {
    let (c, a, b) = two_node_sets();
    {
        let g = a.guard(Mode::Write).unwrap();
        assert_eq!(g.mode(), Mode::Write);
    } // dropped here
    b.lock(Mode::Write).unwrap(); // would deadlock if the guard leaked
    b.unlock().unwrap();
    c.quiesce(Duration::from_millis(10));
    let report = c.shutdown();
    assert!(report.audit_errors.is_empty(), "{:?}", report.audit_errors);
}

#[test]
fn with_helper_runs_closure_under_lock() {
    let (c, a, _b) = two_node_sets();
    let x = a.with(Mode::Read, || 21 * 2).unwrap();
    assert_eq!(x, 42);
    c.shutdown();
}

#[test]
fn change_mode_upgrade_is_atomic() {
    let (c, a, _b) = two_node_sets();
    a.lock(Mode::Upgrade).unwrap();
    a.change_mode(Mode::Upgrade, Mode::Write).unwrap();
    a.unlock().unwrap();
    c.shutdown();
}

#[test]
fn change_mode_downgrade_reacquires() {
    let (c, a, _b) = two_node_sets();
    a.lock(Mode::Write).unwrap();
    a.change_mode(Mode::Write, Mode::Read).unwrap();
    a.unlock().unwrap();
    c.shutdown();
}

#[test]
fn read_then_write_is_consistent_under_racing_upgraders() {
    // The §3.4 motivation: two racing read-modify-write clients must not
    // lose an update. With U-mode upgrades, increments serialize.
    let c = Cluster::new(ClusterConfig {
        nodes: 4,
        locks: 1,
        ..Default::default()
    });
    let counter = Arc::new(AtomicU64::new(0));
    let threads: Vec<_> = (0..4)
        .map(|i| {
            let set = LockSet::new(c.handle(i), LockId::TABLE);
            let counter = Arc::clone(&counter);
            std::thread::spawn(move || {
                for _ in 0..10 {
                    set.read_then_write(
                        || counter.load(Ordering::SeqCst),
                        |seen| counter.store(seen + 1, Ordering::SeqCst),
                    )
                    .unwrap();
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    assert_eq!(
        counter.load(Ordering::SeqCst),
        40,
        "no lost updates across racing upgraders"
    );
    c.quiesce(Duration::from_millis(10));
    let report = c.shutdown();
    assert!(report.audit_errors.is_empty(), "{:?}", report.audit_errors);
}

#[test]
fn metrics_snapshot_reflects_api_traffic() {
    let (c, a, b) = two_node_sets();
    a.lock(Mode::Write).unwrap();
    a.unlock().unwrap();
    b.lock(Mode::Write).unwrap();
    b.unlock().unwrap();
    let snap = c.metrics_snapshot();
    for needle in [
        "# TYPE dlm_messages_total counter",
        "dlm_acquires_total{node=\"0\"} 1",
        "dlm_acquires_total{node=\"1\"} 1",
        "dlm_releases_total{node=\"0\"} 1",
        "dlm_acquire_latency_us{quantile=\"0.5\"}",
        "dlm_acquire_hops_count 2",
    ] {
        assert!(snap.contains(needle), "snapshot missing {needle}:\n{snap}");
    }
    c.shutdown();
}

/// The service-level pipeline: bulk operations on distinct locks through a
/// sharded node, correlated back by `(lock, tag)`, interoperating with the
/// blocking LockSet surface over the same cluster.
#[test]
fn pipeline_interoperates_with_locksets() {
    let c = Cluster::new(ClusterConfig {
        nodes: 2,
        locks: 128,
        shards: 2,
        ..Default::default()
    });
    let mut pipe = c.handle(1).pipeline();
    for l in 0..128u32 {
        pipe.submit_acquire(LockId(l), Mode::Write, l as u64)
            .unwrap();
    }
    for _ in 0..128 {
        let comp = pipe.recv().unwrap();
        assert_eq!(comp.result, Ok(()), "lock {:?}", comp.lock);
        assert_eq!(comp.lock.0 as u64, comp.tag, "completion correlates");
    }
    // While node 1 holds lock 7, node 0's LockSet cannot try-take it …
    let set = LockSet::new(c.handle(0), LockId(7));
    assert!(!set.try_lock(Mode::Write).unwrap());
    // … and after the pipelined release it can.
    pipe.submit_release(LockId(7), 999).unwrap();
    pipe.flush().unwrap();
    assert_eq!(pipe.recv().unwrap().tag, 999);
    set.lock(Mode::Write).unwrap();
    set.unlock().unwrap();
    for l in (0..128u32).filter(|&l| l != 7) {
        pipe.submit_release(LockId(l), l as u64).unwrap();
    }
    pipe.flush().unwrap();
    while pipe.outstanding() > 0 {
        assert!(pipe.recv().unwrap().result.is_ok());
    }
    c.quiesce(Duration::from_millis(10));
    let report = c.shutdown();
    assert!(report.audit_errors.is_empty(), "{:?}", report.audit_errors);
    assert_eq!(report.replies_dropped, 0);
}
