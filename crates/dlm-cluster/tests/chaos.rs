//! Chaos suite: the cluster under adversarial links, plus regression tests
//! for the runtime's failure-handling fixes (double waiters, shutdown
//! draining, try_acquire's zero-message promise). Malformed frames, orphaned
//! grants and node death are tested on the shard engine itself
//! (`src/engine/tests.rs`), a panicking worker thread in `src/runtime.rs`.
//!
//! The fault matrix follows the acceptance bar of the transport work: at
//! 10% drop + duplicate + reorder over 4 nodes / 2 locks, every operation
//! must complete, the final audit must be clean, and no frame may be
//! unaccounted for (`decode_errors == 0`, `replies_dropped == 0`).

use dlm_cluster::{
    Cluster, ClusterConfig, ClusterError, ClusterReport, FaultConfig, LockId, Mode, ReliableConfig,
    TransportKind,
};
use proptest::prelude::*;
use std::time::{Duration, Instant};

fn lossy_cluster(seed: u64, rate: f64, nodes: usize, locks: usize) -> Cluster {
    Cluster::new(ClusterConfig {
        nodes,
        locks,
        transport: TransportKind::Faulty(FaultConfig::lossy(seed, rate)),
        reliable: Some(ReliableConfig::default()),
        ..Default::default()
    })
}

/// A fault-free link with constant one-way latency `delay`.
fn delayed(delay: Duration) -> TransportKind {
    TransportKind::Faulty(FaultConfig {
        delay,
        ..FaultConfig::default()
    })
}

fn assert_clean(report: &ClusterReport) {
    assert!(report.audit_errors.is_empty(), "{:?}", report.audit_errors);
    assert_eq!(report.decode_errors, 0, "malformed frames on a clean run");
    assert_eq!(report.replies_dropped, 0, "a caller never saw its outcome");
}

/// Retransmissions summed over the chaos matrix's seeds may be at most this
/// many times the frames its links dropped. Selective acks resend a lost
/// frame once, not every frame sent behind it; this matrix keeps only a few
/// frames in flight per link, so it read 0.9–1.9 with them (debug and
/// release builds, alone and under 4× CPU contention) and 1.0–1.9 without.
/// The bound leaves room for the spurious timer resends a descheduled
/// worker causes, and catches a resend storm.
const MAX_RETRANSMITS_PER_DROP: u64 = 4;

/// The headline matrix: 10% loss + duplication + reordering on every link,
/// 4 nodes contending over 2 locks, several seeds. The reliability shim
/// must make every blocking acquire complete and leave a clean audit.
#[test]
fn chaos_matrix_survives_ten_percent_loss_dup_reorder() {
    let mut retransmits = 0;
    let mut dropped_total = 0;
    for seed in [11, 23, 47] {
        let c = lossy_cluster(seed, 0.10, 4, 2);
        let threads: Vec<_> = (0..4)
            .map(|i| {
                let h = c.handle(i);
                std::thread::spawn(move || {
                    for lock in [LockId(0), LockId(1)] {
                        for mode in [Mode::IntentRead, Mode::Write, Mode::Read] {
                            h.acquire(lock, mode).unwrap();
                            h.release(lock).unwrap();
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        c.quiesce(Duration::from_millis(5));
        let report = c.shutdown();
        assert_clean(&report);
        let dropped: u64 = report.links.iter().map(|l| l.dropped).sum();
        dropped_total += dropped;
        retransmits += report.links.iter().map(|l| l.retransmits).sum::<u64>();
        // At 10% over hundreds of frames, a fault-free run is implausible;
        // its absence would mean the fault stage was never in the path.
        assert!(dropped > 0, "seed {seed}: no frame ever dropped");
    }
    // A seed whose only drops were bare acks or duplicates needs no
    // retransmission, so the shim's recovery path is asserted across the
    // matrix rather than per seed.
    assert!(
        retransmits > 0,
        "drops on every seed but no retransmissions"
    );
    assert!(
        retransmits <= MAX_RETRANSMITS_PER_DROP * dropped_total,
        "{retransmits} retransmissions for {dropped_total} dropped frames"
    );
}

/// A second blocking operation on a lock that already has a waiter on the
/// same node must fail with `Busy` — the runtime used to overwrite the
/// first waiter's reply channel, so the first caller would block forever
/// when its grant arrived with nobody registered to receive it.
#[test]
fn second_outstanding_op_is_busy_not_clobbered() {
    let c = Cluster::new(ClusterConfig {
        nodes: 2,
        ..Default::default()
    });
    let h0 = c.handle(0);
    // Node 0 (token) holds W, so node 1's W must queue remotely.
    h0.acquire(LockId::TABLE, Mode::Write).unwrap();
    let h1 = c.handle(1);
    let waiter = {
        let h1 = h1.clone();
        std::thread::spawn(move || h1.acquire(LockId::TABLE, Mode::Write))
    };
    // Let the waiter's request reach node 1's thread and go pending.
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(
        h1.acquire(LockId::TABLE, Mode::Read),
        Err(ClusterError::Busy),
        "second op on a lock with an outstanding waiter"
    );
    assert_eq!(h1.upgrade(LockId::TABLE), Err(ClusterError::Busy));
    // The original waiter is unharmed: release the conflict and it completes.
    h0.release(LockId::TABLE).unwrap();
    waiter
        .join()
        .unwrap()
        .expect("first waiter still completes after the Busy probe");
    h1.release(LockId::TABLE).unwrap();
    let report = c.shutdown();
    assert_clean(&report);
}

/// `try_acquire` documents a zero-message fast path; a local admit must
/// transmit nothing (the token node's freeze-set refresh must not leak
/// `SetFrozen` frames out of a "local" grant).
#[test]
fn try_acquire_local_admit_transmits_nothing() {
    let c = Cluster::new(ClusterConfig {
        nodes: 3,
        ..Default::default()
    });
    let h0 = c.handle(0);
    let before = c.messages_sent();
    assert!(h0.try_acquire(LockId::TABLE, Mode::Write).unwrap());
    assert_eq!(
        c.messages_sent(),
        before,
        "token-node local admit sent frames"
    );
    h0.release(LockId::TABLE).unwrap();
    // A non-token node with no owned mode cannot admit locally — and saying
    // "no" must also be silent.
    let h1 = c.handle(1);
    let before = c.messages_sent();
    assert!(!h1.try_acquire(LockId::TABLE, Mode::Read).unwrap());
    assert_eq!(c.messages_sent(), before, "refused try_acquire sent frames");
    let report = c.shutdown();
    assert_clean(&report);
}

/// Shutdown must drain the transport before stopping node threads: frames
/// parked in the latency router at the moment of shutdown used to be
/// flushed into channels no thread would ever read again, and the audit saw
/// a cluster missing messages it was owed.
#[test]
fn shutdown_drains_parked_frames() {
    let c = Cluster::new(ClusterConfig {
        nodes: 3,
        transport: delayed(Duration::from_millis(20)),
        ..Default::default()
    });
    let threads: Vec<_> = (0..3)
        .map(|i| {
            let h = c.handle(i);
            std::thread::spawn(move || {
                h.acquire(LockId::TABLE, Mode::Write).unwrap();
                h.release(LockId::TABLE).unwrap();
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    // No quiesce: the last release waves are still parked in the router.
    let report = c.shutdown();
    assert_clean(&report);
}

/// `quiesce` must consult the in-flight gauge: with link delay longer than
/// the idle window, counter stability alone declares quiescence while a
/// frame is still parked in the router.
#[test]
fn quiesce_waits_out_parked_frames() {
    let c = Cluster::new(ClusterConfig {
        nodes: 2,
        transport: delayed(Duration::from_millis(40)),
        ..Default::default()
    });
    let h1 = c.handle(1);
    // Read is copy-granted, so the token stays at node 0 and the release
    // below must notify the parent with a frame.
    h1.acquire(LockId::TABLE, Mode::Read).unwrap();
    // Release returns immediately; the Release frame sits in the router for
    // 40 ms during which no send happens anywhere.
    h1.release(LockId::TABLE).unwrap();
    let start = Instant::now();
    c.quiesce(Duration::from_millis(5));
    assert!(
        start.elapsed() >= Duration::from_millis(25),
        "quiesce declared idle while a frame was parked ({:?})",
        start.elapsed()
    );
    let report = c.shutdown();
    assert_clean(&report);
}

/// Wait until the heartbeat failure detector flags `node`, bounded.
fn await_suspect(c: &Cluster, node: u32) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !c.suspects(Duration::from_millis(300)).contains(&node) {
        assert!(
            Instant::now() < deadline,
            "detector never flagged node {node}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// The tentpole scenario on the in-process faulty transport: a seeded
/// crash of the token holder in a 4-node lossy cluster, with a survivor's
/// write acquire parked at the dead node. The heartbeat detector flags the
/// crash, recovery regenerates the token in a new epoch (DESIGN.md §17),
/// the parked acquire completes via the R1 re-issue, every survivor keeps
/// serving, and the final audit is clean.
#[test]
fn token_holder_crash_recovers_with_epoch_fencing() {
    for seed in [5, 17] {
        let c = lossy_cluster(seed, 0.05, 4, 1);
        let h1 = c.handle(1);
        // Pull the token (and a held W) onto node 1, the victim.
        h1.acquire(LockId::TABLE, Mode::Write).unwrap();
        // Node 2's W must queue remotely at the holder — a caller whose
        // outcome is owed by the node about to die.
        let h2 = c.handle(2);
        let parked = {
            let h2 = h2.clone();
            std::thread::spawn(move || h2.acquire(LockId::TABLE, Mode::Write))
        };
        std::thread::sleep(Duration::from_millis(60));
        c.crash_node(1);
        await_suspect(&c, 1);
        let repaired = c.recover(1);
        assert!(
            repaired >= 1,
            "seed {seed}: the crashed holder's lock must be repaired"
        );
        parked
            .join()
            .unwrap()
            .expect("parked acquire completes after recovery (R1 re-issue)");
        h2.release(LockId::TABLE).unwrap();
        for n in [0, 2, 3] {
            let h = c.handle(n);
            h.acquire(LockId::TABLE, Mode::Write).unwrap();
            h.release(LockId::TABLE).unwrap();
        }
        c.quiesce(Duration::from_millis(5));
        let report = c.shutdown();
        assert!(
            report.audit_errors.is_empty(),
            "seed {seed}: {:?}",
            report.audit_errors
        );
        assert_eq!(report.replies_dropped, 0, "seed {seed}");
        assert_eq!(report.decode_errors, 0, "seed {seed}");
    }
}

fn cases(default: u32) -> u32 {
    // Honor the workspace-wide knob, but chaos cases spin real clusters
    // with real timeouts — cap what CI's blanket setting can inflict.
    std::env::var("DLM_CHAOS_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .or_else(|| {
            std::env::var("PROPTEST_CASES")
                .ok()
                .and_then(|v| v.parse::<u32>().ok())
                .map(|v| v.min(12))
        })
        .unwrap_or(default)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(6)))]

    /// Seeded chaos: a random operation schedule over random loss rates.
    /// Every blocking acquire completes (the threads join), the audit is
    /// clean, and no frame or reply goes unaccounted.
    #[test]
    fn random_schedules_survive_lossy_links(
        seed in any::<u64>(),
        schedule in proptest::collection::vec((0u8..3, 0u8..2, 0u8..8), 6..30),
    ) {
        let rate = [0.05, 0.10, 0.15][(seed % 3) as usize];
        let c = lossy_cluster(seed, rate, 3, 2);
        // Split the schedule by node; each node runs its slice in order.
        let mut per_node: Vec<Vec<(LockId, u8)>> = vec![Vec::new(); 3];
        for (node, lock, op) in schedule {
            per_node[node as usize].push((LockId(lock as u32), op));
        }
        let threads: Vec<_> = per_node
            .into_iter()
            .enumerate()
            .map(|(i, ops)| {
                let h = c.handle(i as u32);
                std::thread::spawn(move || {
                    for (lock, op) in ops {
                        let mode = [Mode::IntentRead, Mode::Read, Mode::Upgrade, Mode::Write]
                            [(op & 3) as usize];
                        h.acquire(lock, mode).unwrap();
                        if mode == Mode::Upgrade && op & 4 != 0 {
                            h.upgrade(lock).unwrap();
                        }
                        h.release(lock).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        c.quiesce(Duration::from_millis(5));
        let report = c.shutdown();
        prop_assert!(report.audit_errors.is_empty(), "{:?}", report.audit_errors);
        prop_assert_eq!(report.decode_errors, 0);
        prop_assert_eq!(report.replies_dropped, 0);
    }
}
