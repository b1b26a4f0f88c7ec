//! Diagnostic: per-kind message breakdown for each protocol at a given node
//! count (default 32), plus a per-link reliability section from a lossy
//! threaded-cluster run. Usage: `msgstats [nodes]`.

use dlm_cluster::{
    Cluster, ClusterConfig, FaultConfig, LockId as ClusterLockId, Mode, ReliableConfig,
    TransportKind,
};
use dlm_workload::{run_workload, ProtocolKind, WorkloadParams};

fn main() {
    let nodes: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(32);
    for proto in [
        ProtocolKind::Hier,
        ProtocolKind::NaimiPure,
        ProtocolKind::NaimiSameWork,
    ] {
        let params = WorkloadParams::linux_cluster(nodes, proto);
        let report = run_workload(&params);
        println!(
            "{:16} nodes={} ops={}/{} requests={} messages={} msgs/req={:.3} mean-wait={:.1}ms",
            proto.label(),
            nodes,
            report.ops_completed,
            report.ops_expected,
            report.requests,
            report.messages,
            report.messages_per_request(),
            report.op_latency.mean() / 1000.0,
        );
        for (kind, count) in report.sent_by_kind.iter() {
            println!(
                "    {:10} {:>8}  ({:.3}/req)",
                kind,
                count,
                count as f64 / report.requests as f64
            );
        }
        // Structured-trace view: how often each paper rule fired (empty for
        // the Naimi series, which is not instrumented).
        if report.rule_counters.total() > 0 {
            println!(
                "  rule firings (trace sends {} = messages {}):",
                report.trace_sends.total(),
                report.messages,
            );
            for (rule, count) in report.rule_counters.iter() {
                println!(
                    "    {:24} {:>8}  ({:.3}/req)",
                    rule,
                    count,
                    count as f64 / report.requests as f64
                );
            }
        }
    }
    cluster_link_stats();
}

/// Drive a small lossy cluster (reliable delivery over 5 % frame loss) and
/// print the per-link reliability counters plus the acquire-latency/hop
/// distributions the node threads measured.
fn cluster_link_stats() {
    const NODES: usize = 4;
    let c = Cluster::new(ClusterConfig {
        nodes: NODES,
        locks: 2,
        transport: TransportKind::Faulty(FaultConfig {
            seed: 7,
            drop: 0.05,
            ..Default::default()
        }),
        reliable: Some(ReliableConfig::default()),
        ..Default::default()
    });
    let threads: Vec<_> = (0..NODES as u32)
        .map(|i| {
            let h = c.handle(i);
            std::thread::spawn(move || {
                for _ in 0..8 {
                    h.acquire(ClusterLockId::TABLE, Mode::IntentWrite).unwrap();
                    h.acquire(ClusterLockId::entry(0), Mode::Write).unwrap();
                    h.release(ClusterLockId::entry(0)).unwrap();
                    h.release(ClusterLockId::TABLE).unwrap();
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

    println!(
        "\ncluster ({NODES} nodes, 5% frame loss, reliable links): {} messages",
        report.messages_sent
    );
    let lat = report.acquire_latency.percentiles();
    println!(
        "  acquire latency µs: p50 {} p95 {} p99 {} max {}  ({} ops)",
        lat.p50,
        lat.p95,
        lat.p99,
        report.acquire_latency.max(),
        report.acquire_latency.count()
    );
    println!(
        "  acquire hops: mean {:.2} max {}",
        report.acquire_hops.mean(),
        report.acquire_hops.max()
    );
    println!(
        "  {:>4} {:>4} {:>10} {:>8} {:>10} {:>8} {:>9} {:>8} {:>7} {:>6} {:>6}",
        "from",
        "to",
        "data_sent",
        "retrans",
        "acks_sent",
        "dups",
        "reorders",
        "dropped",
        "proto",
        "wire",
        "pack"
    );
    for l in &report.links {
        // Idle links (no data, nothing dropped) would drown the table.
        if l.data_sent == 0 && l.dropped == 0 {
            continue;
        }
        // Coalescing ratio: protocol frames per physical wire frame (1.00
        // with coalescing off or when nothing shared a drain cycle).
        let pack = if l.wire_sent > 0 {
            l.proto_sent as f64 / l.wire_sent as f64
        } else {
            1.0
        };
        println!(
            "  {:>4} {:>4} {:>10} {:>8} {:>10} {:>8} {:>9} {:>8} {:>7} {:>6} {:>6.2}",
            l.from,
            l.to,
            l.data_sent,
            l.retransmits,
            l.acks_sent,
            l.dups_suppressed,
            l.reorders_buffered,
            l.dropped,
            l.proto_sent,
            l.wire_sent,
            pack,
        );
    }

    // Per-shard view of the same run from the Prometheus snapshot: queue
    // depths are zero at rest, the ops counters show how the shard hash
    // spread this workload's two locks across workers.
    let snapshot = c2_shard_section();
    print!("{snapshot}");
}

/// Drive a short churn on a 2-node, 4-shard cluster and return the
/// `dlm_shard_*` section of its metrics snapshot.
fn c2_shard_section() -> String {
    let c = Cluster::new(ClusterConfig {
        nodes: 2,
        locks: 64,
        shards: 4,
        ..Default::default()
    });
    let h = c.handle(0);
    for l in 0..64u32 {
        h.acquire(ClusterLockId::entry(l), Mode::Read).unwrap();
        h.release(ClusterLockId::entry(l)).unwrap();
    }
    let snap = c.metrics_snapshot();
    let report = c.shutdown();
    assert!(report.audit_errors.is_empty(), "{:?}", report.audit_errors);
    let mut out =
        String::from("\nper-shard series (2 nodes x 4 shards, 64-lock churn from node 0):\n");
    for line in snap.lines() {
        if line.starts_with("dlm_shard_") {
            out.push_str("  ");
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}
