//! The protocol under *real* parallelism: a thread-per-node in-process
//! cluster (every message round-trips the binary wire codec) serving a
//! seat-booking service through the CosConcurrency-style `LockSet` API.
//!
//! Sixteen booking agents race to sell seats on three flights. Seat counts
//! are protected by entry locks under table intents; revenue reconciliation
//! takes the whole table in Upgrade mode and flips to Write atomically.
//!
//! Run with: `cargo run --release --example cluster_demo`

use dlm::api::LockSet;
use dlm::cluster::{Cluster, ClusterConfig, LockId, Mode};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

const FLIGHTS: u32 = 3;
const AGENTS: u32 = 8;
const SEATS_PER_FLIGHT: i64 = 40;

fn main() {
    let cluster = Cluster::new(ClusterConfig {
        nodes: AGENTS as usize,
        locks: 1 + FLIGHTS as usize, // table + one lock per flight
        ..Default::default()
    });

    // The shared "database": seats per flight and total revenue.
    let seats: Arc<Vec<AtomicI64>> = Arc::new(
        (0..FLIGHTS)
            .map(|_| AtomicI64::new(SEATS_PER_FLIGHT))
            .collect(),
    );
    let revenue = Arc::new(AtomicI64::new(0));

    let threads: Vec<_> = (0..AGENTS)
        .map(|agent| {
            let handle = cluster.handle(agent);
            let seats = Arc::clone(&seats);
            let revenue = Arc::clone(&revenue);
            std::thread::spawn(move || {
                let table = LockSet::new(handle.clone(), LockId::TABLE);
                let mut booked = 0u32;
                let mut audits = 0u32;
                for round in 0..30u32 {
                    if round % 10 == 9 {
                        // Revenue audit: exclusive read of the whole table in
                        // U, then an atomic upgrade to W to write the summary
                        // (the read-modify-write pattern of §3.4).
                        table
                            .read_then_write(
                                || revenue.load(Ordering::SeqCst),
                                |seen| revenue.store(seen + 1_000, Ordering::SeqCst),
                            )
                            .expect("audit");
                        audits += 1;
                        continue;
                    }
                    // Book a seat: table IW + flight entry W.
                    let flight = (agent + round) % FLIGHTS;
                    let entry = LockSet::new(handle.clone(), LockId::entry(flight));
                    table.lock(Mode::IntentWrite).expect("table IW");
                    entry.lock(Mode::Write).expect("entry W");
                    let left = seats[flight as usize].fetch_sub(1, Ordering::SeqCst) - 1;
                    if left < 0 {
                        // Sold out: undo.
                        seats[flight as usize].fetch_add(1, Ordering::SeqCst);
                    } else {
                        revenue.fetch_add(250, Ordering::SeqCst);
                        booked += 1;
                    }
                    entry.unlock().expect("entry unlock");
                    table.unlock().expect("table unlock");
                }
                (agent, booked, audits)
            })
        })
        .collect();

    let mut total_booked = 0;
    for t in threads {
        let (agent, booked, audits) = t.join().expect("agent thread");
        println!("agent {agent}: booked {booked} seats, ran {audits} audits");
        total_booked += booked as i64;
    }

    let remaining: i64 = seats.iter().map(|s| s.load(Ordering::SeqCst)).sum();
    println!(
        "\nseats remaining: {remaining} / {}",
        FLIGHTS as i64 * SEATS_PER_FLIGHT
    );
    println!("seats booked:    {total_booked}");
    assert_eq!(
        remaining + total_booked,
        FLIGHTS as i64 * SEATS_PER_FLIGHT,
        "no seat lost or double-sold under entry-level W locks"
    );

    cluster.quiesce();
    let report = cluster.shutdown();
    assert!(
        report.audit_errors.is_empty(),
        "final audit: {:?}",
        report.audit_errors
    );
    println!(
        "protocol messages: {} (all frames through the binary codec); final audit clean",
        report.messages_sent
    );
}
