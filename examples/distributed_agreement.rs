//! The paper's second application domain (§1): *distributed agreement*.
//! A cluster reaches agreement on a sequence of configuration changes by
//! funneling proposals through a W lock on a shared "config" object, while
//! every node continuously reads the current configuration under IR/R —
//! transaction-style processing on replicated state.
//!
//! Each accepted proposal bumps an epoch. Readers observe epochs
//! monotonically; proposals serialize; and the protocol's audit confirms
//! the locking layer stayed coherent throughout.
//!
//! Run with: `cargo run --release --example distributed_agreement`

use dlm::cluster::{Cluster, ClusterConfig, LockId, Mode};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const NODES: u32 = 6;
const PROPOSALS_PER_NODE: u32 = 5;
const READS_PER_NODE: u32 = 40;

fn main() {
    let cluster = Cluster::new(ClusterConfig {
        nodes: NODES as usize,
        locks: 1,
        ..Default::default()
    });
    // The replicated configuration: an epoch counter (stand-in for a real
    // config blob). Writes only under W; reads under R.
    let epoch = Arc::new(AtomicU64::new(0));

    // One application per node (the protocol's single-pending model):
    // the first half of the cluster proposes, the second half reads.
    let writers: Vec<_> = (0..NODES / 2)
        .map(|i| {
            let h = cluster.handle(i);
            let epoch = Arc::clone(&epoch);
            std::thread::spawn(move || {
                for _ in 0..PROPOSALS_PER_NODE {
                    h.acquire(LockId::TABLE, Mode::Write).expect("W");
                    // Inside the critical section the proposer observes the
                    // current epoch and installs its successor — agreement
                    // by mutual exclusion.
                    let seen = epoch.load(Ordering::SeqCst);
                    epoch.store(seen + 1, Ordering::SeqCst);
                    h.release(LockId::TABLE).expect("release W");
                }
            })
        })
        .collect();

    let readers: Vec<_> = (NODES / 2..NODES)
        .map(|i| {
            let h = cluster.handle(i);
            let epoch = Arc::clone(&epoch);
            std::thread::spawn(move || {
                let mut last = 0;
                let mut regressions = 0;
                for _ in 0..READS_PER_NODE {
                    h.acquire(LockId::TABLE, Mode::Read).expect("R");
                    let seen = epoch.load(Ordering::SeqCst);
                    h.release(LockId::TABLE).expect("release R");
                    if seen < last {
                        regressions += 1;
                    }
                    last = seen;
                }
                regressions
            })
        })
        .collect();

    for w in writers {
        w.join().expect("writer");
    }
    let mut total_regressions = 0;
    for r in readers {
        total_regressions += r.join().expect("reader");
    }

    let final_epoch = epoch.load(Ordering::SeqCst);
    let expected = (NODES / 2) * PROPOSALS_PER_NODE;
    println!("final epoch: {final_epoch} (expected {expected})");
    println!("reader epoch regressions: {total_regressions} (expected 0)");
    assert_eq!(final_epoch, expected as u64, "no lost proposals");
    assert_eq!(total_regressions, 0, "epochs observed monotonically");

    cluster.quiesce();
    let report = cluster.shutdown();
    assert!(report.audit_errors.is_empty(), "{:?}", report.audit_errors);
    println!(
        "agreement reached through {} protocol messages; audit clean",
        report.messages_sent
    );
}
