//! Heavier concurrency stress for the threaded runtime: many nodes, many
//! locks, mixed modes, randomized interleaving from the OS scheduler.

use dlm_cluster::{Cluster, ClusterConfig, LockId, Mode};

#[test]
fn mixed_mode_stress_across_locks() {
    const NODES: usize = 8;
    const LOCKS: usize = 5; // table + 4 entries
    const ROUNDS: u32 = 12;

    let cluster = Cluster::new(ClusterConfig {
        nodes: NODES,
        locks: LOCKS,
        ..Default::default()
    });

    let threads: Vec<_> = (0..NODES as u32)
        .map(|i| {
            let h = cluster.handle(i);
            std::thread::spawn(move || {
                for round in 0..ROUNDS {
                    match (i + round) % 5 {
                        0 => {
                            // Whole-table read.
                            h.acquire(LockId::TABLE, Mode::Read).unwrap();
                            h.release(LockId::TABLE).unwrap();
                        }
                        1 => {
                            // Entry write under table IW.
                            let entry = LockId::entry((i + round) % 4);
                            h.acquire(LockId::TABLE, Mode::IntentWrite).unwrap();
                            h.acquire(entry, Mode::Write).unwrap();
                            h.release(entry).unwrap();
                            h.release(LockId::TABLE).unwrap();
                        }
                        2 => {
                            // Entry read under table IR.
                            let entry = LockId::entry((i + round) % 4);
                            h.acquire(LockId::TABLE, Mode::IntentRead).unwrap();
                            h.acquire(entry, Mode::Read).unwrap();
                            h.release(entry).unwrap();
                            h.release(LockId::TABLE).unwrap();
                        }
                        3 => {
                            // Upgrade cycle.
                            h.acquire(LockId::TABLE, Mode::Upgrade).unwrap();
                            h.upgrade(LockId::TABLE).unwrap();
                            h.release(LockId::TABLE).unwrap();
                        }
                        _ => {
                            // Try-lock probes never deadlock and never leak.
                            if h.try_acquire(LockId::TABLE, Mode::IntentRead).unwrap() {
                                h.release(LockId::TABLE).unwrap();
                            }
                        }
                    }
                }
            })
        })
        .collect();

    for t in threads {
        t.join().expect("worker");
    }
    cluster.quiesce();
    let report = cluster.shutdown();
    assert!(report.audit_errors.is_empty(), "{:?}", report.audit_errors);
    assert!(report.messages_sent > 0);
}
