//! Cross-crate integration: the same protocol state machines under the
//! deterministic simulator and the threaded cluster, audited end to end.

use dlm_cluster::{Cluster, ClusterConfig};
use dlm_core::{LockId, Mode, ProtocolConfig};
use dlm_sim::{LatencyModel, MICROS_PER_MS};
use dlm_workload::{audit_hier_run, run_workload, ModeMix, ProtocolKind, WorkloadParams};
use std::time::Duration;

/// A small, fast workload configuration.
fn small_params(protocol: ProtocolKind, nodes: usize, seed: u64) -> WorkloadParams {
    WorkloadParams {
        nodes,
        entries: 4,
        cs_mean: 2 * MICROS_PER_MS,
        idle_mean: 10 * MICROS_PER_MS,
        ops_per_node: 12,
        mix: ModeMix::paper(),
        protocol,
        hier_config: ProtocolConfig::paper(),
        latency: LatencyModel::uniform(MICROS_PER_MS),
        seed,
        upgrade_u_ops: true,
        geo: None,
        hot_entry_percent: 0,
    }
}

/// Every protocol completes the same workload and quiesces.
#[test]
fn all_protocols_complete_the_workload() {
    for protocol in [
        ProtocolKind::Hier,
        ProtocolKind::NaimiPure,
        ProtocolKind::NaimiSameWork,
    ] {
        for seed in [1u64, 2, 3] {
            let report = run_workload(&small_params(protocol, 8, seed));
            assert!(report.complete(), "{protocol:?} seed {seed}: {report:?}");
            assert!(report.quiesced);
        }
    }
}

/// Simulated hierarchical runs stay audit-clean across seeds, sizes and
/// ablations (safety under the full workload, not just unit scenarios).
#[test]
fn hier_runs_audit_clean_across_configs() {
    for nodes in [2usize, 5, 9, 17] {
        for seed in [11u64, 12] {
            let (report, errors) = audit_hier_run(&small_params(ProtocolKind::Hier, nodes, seed));
            assert!(errors.is_empty(), "n={nodes} seed={seed}: {errors:?}");
            assert!(report.complete());
        }
    }
    for ablation in dlm_core::ALL_ABLATIONS {
        let mut params = small_params(ProtocolKind::Hier, 8, 99);
        params.hier_config = ProtocolConfig::paper().without(ablation);
        let (report, errors) = audit_hier_run(&params);
        assert!(errors.is_empty(), "{ablation:?}: {errors:?}");
        assert!(report.complete(), "{ablation:?} must stay live");
    }
    // The literal Rule 3.2 policy is equally safe.
    let mut params = small_params(ProtocolKind::Hier, 8, 7);
    params.hier_config = ProtocolConfig::paper().literal_rule_3_2();
    let (report, errors) = audit_hier_run(&params);
    assert!(errors.is_empty(), "{errors:?}");
    assert!(report.complete());
}

/// Identical parameters give identical reports (full-stack determinism:
/// engine ordering, RNG streams, protocol, metrics folding).
#[test]
fn simulation_is_deterministic_end_to_end() {
    for protocol in [ProtocolKind::Hier, ProtocolKind::NaimiSameWork] {
        let a = run_workload(&small_params(protocol, 9, 4242));
        let b = run_workload(&small_params(protocol, 9, 4242));
        assert_eq!(a.messages, b.messages);
        assert_eq!(a.requests, b.requests);
        assert_eq!(a.end_time, b.end_time);
        assert_eq!(a.request_latency.mean(), b.request_latency.mean());
        assert_eq!(a.op_latency.quantile(0.99), b.op_latency.quantile(0.99));
    }
}

/// The threaded cluster and the simulator agree on protocol outcomes for a
/// scripted scenario: readers share, writers exclude, upgrades are atomic,
/// and the final audit is clean on both substrates.
#[test]
fn cluster_and_sim_agree_on_a_scripted_scenario() {
    // Simulator side: use the lock-step runtime for exact control.
    let mut net = dlm_core::testkit::LockStepNet::star(3);
    net.acquire(1, Mode::Upgrade);
    net.deliver_all();
    net.acquire(2, Mode::IntentRead);
    net.deliver_all();
    assert_eq!(net.node(1).held(), Mode::Upgrade);
    assert_eq!(net.node(2).held(), Mode::IntentRead);
    net.upgrade(1);
    net.deliver_all();
    assert_eq!(net.node(1).held(), Mode::Upgrade, "waits for the IR holder");
    net.release(2);
    net.settle();
    assert_eq!(net.node(1).held(), Mode::Write);
    net.release(1);
    net.settle();

    // Cluster side: same script through threads and the wire codec.
    let cluster = Cluster::new(ClusterConfig {
        nodes: 3,
        locks: 1,
        ..Default::default()
    });
    let h1 = cluster.handle(1);
    let h2 = cluster.handle(2);
    h1.acquire(LockId::TABLE, Mode::Upgrade).unwrap();
    h2.acquire(LockId::TABLE, Mode::IntentRead).unwrap();
    let h1b = h1.clone();
    let upgrader = std::thread::spawn(move || h1b.upgrade(LockId::TABLE));
    std::thread::sleep(Duration::from_millis(20));
    assert!(!upgrader.is_finished(), "upgrade waits for the IR holder");
    h2.release(LockId::TABLE).unwrap();
    upgrader.join().unwrap().unwrap();
    h1.release(LockId::TABLE).unwrap();
    cluster.quiesce();
    let report = cluster.shutdown();
    assert!(report.audit_errors.is_empty(), "{:?}", report.audit_errors);
}

/// Message-count sanity across substrates: a two-node exclusive handoff
/// costs the same number of protocol messages on the lock-step runtime and
/// on the threaded cluster (same state machines, same rules).
#[test]
fn substrates_agree_on_message_counts() {
    // Lock-step.
    let mut net = dlm_core::testkit::LockStepNet::star(2);
    net.acquire(1, Mode::Write);
    net.deliver_all();
    net.release(1);
    net.deliver_all();
    let lockstep_msgs = net.messages_sent;

    // Threads.
    let cluster = Cluster::new(ClusterConfig {
        nodes: 2,
        locks: 1,
        ..Default::default()
    });
    let h = cluster.handle(1);
    h.acquire(LockId::TABLE, Mode::Write).unwrap();
    h.release(LockId::TABLE).unwrap();
    let cluster_msgs = cluster.quiesce();
    let report = cluster.shutdown();
    assert!(report.audit_errors.is_empty());
    assert_eq!(
        lockstep_msgs, cluster_msgs,
        "identical scenario, identical protocol traffic"
    );
}
