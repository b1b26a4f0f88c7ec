//! The reservation workload on a **real socket cluster**: the per-member
//! driver shared by the `dlm-node` process binary, the multi-process
//! `dlm-harness` driver, and the socket benches.
//!
//! The simulator runs the §4 workload on virtual time; here the same
//! operation stream (same mix, same per-node RNG discipline, same
//! hierarchical expansion) drives a [`dlm_cluster::Node`] member through
//! its blocking [`NodeHandle`], with critical-section and idle times
//! slept in real time. A `time_scale` divisor compresses the paper's
//! 15 ms / 150 ms think times so a full figure's workload completes in
//! test-friendly wall time while keeping the think-to-CS ratio intact.

use dlm_cluster::{ClusterConfig, NodeHandle};
use dlm_core::LockId;
use dlm_workload::{OpKind, OpPlan, ProtocolKind, WorkloadParams};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// What one member did over the wire.
#[derive(Debug, Clone, Copy, Default)]
pub struct MemberOutcome {
    /// Application operations completed.
    pub ops_completed: u32,
    /// Lock acquisitions performed (entry ops take two locks).
    pub acquires: u64,
}

/// The [`ClusterConfig`] every member of a socket cluster running
/// `params` must use (identical on all members, or the shard hash and
/// audit disagree).
pub fn member_cluster_config(params: &WorkloadParams) -> ClusterConfig {
    ClusterConfig {
        nodes: params.nodes,
        locks: params.lock_count(),
        protocol: params.hier_config,
        ..Default::default()
    }
}

fn sample_around(mean: u64, rng: &mut SmallRng) -> u64 {
    // "Randomized around the mean" (§4): uniform on [mean/2, 3·mean/2],
    // matching the simulator's actor.
    if mean == 0 {
        return 0;
    }
    let half = mean / 2;
    rng.gen_range(mean - half..=mean + half)
}

fn think(micros: u64, scale: u64) {
    let scaled = micros / scale.max(1);
    if scaled > 0 {
        std::thread::sleep(Duration::from_micros(scaled));
    }
}

/// Run member `me`'s share of the workload against its blocking handle.
///
/// Deterministic per member: the operation stream depends only on
/// `params.seed` and `me` (grant interleaving across members does not,
/// of course, replay). `params.protocol` must be [`ProtocolKind::Hier`] —
/// the socket runtime speaks only the hierarchical protocol.
pub fn run_member_workload(
    handle: &NodeHandle,
    me: u32,
    params: &WorkloadParams,
    time_scale: u64,
) -> MemberOutcome {
    params.validate();
    assert_eq!(
        params.protocol,
        ProtocolKind::Hier,
        "the socket runtime runs the hierarchical protocol only"
    );
    let mut rng = SmallRng::seed_from_u64(
        params.seed ^ (u64::from(me) + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
    );
    let mut out = MemberOutcome::default();
    for _ in 0..params.ops_per_node {
        think(sample_around(params.idle_mean, &mut rng), time_scale);
        let kind = OpKind::sample(&params.mix, &mut rng);
        let entry =
            if params.hot_entry_percent > 0 && rng.gen_range(0u8..100) < params.hot_entry_percent {
                0
            } else {
                rng.gen_range(0..params.entries)
            };
        let mut plan = OpPlan::expand(kind, params.protocol, entry, params.entries);
        plan.upgrade &= params.upgrade_u_ops;
        for (lock, mode) in &plan.locks {
            handle.acquire(*lock, *mode).expect("acquire");
            out.acquires += 1;
        }
        think(sample_around(params.cs_mean, &mut rng), time_scale);
        if plan.upgrade {
            handle.upgrade(LockId::TABLE).expect("upgrade");
            think(sample_around(params.cs_mean / 2, &mut rng), time_scale);
        }
        for (lock, _) in plan.locks.iter().rev() {
            handle.release(*lock).expect("release");
        }
        out.ops_completed += 1;
    }
    out
}

/// The shard-churn workload over the wire: member `me` hammers
/// acquire/release on *its own* entry lock. The first acquisition drags
/// the token from node 0 across the wire; every subsequent one is a
/// message-free local admission — the partitioned steady state the
/// in-process `shard_churn` bench measures.
pub fn run_member_churn(handle: &NodeHandle, me: u32, entries: u32, ops: u32) -> MemberOutcome {
    assert!(entries >= 1);
    let lock = LockId::entry(me % entries);
    let mut out = MemberOutcome::default();
    for _ in 0..ops {
        handle
            .acquire(lock, dlm_core::Mode::Write)
            .expect("churn acquire");
        handle.release(lock).expect("churn release");
        out.acquires += 1;
        out.ops_completed += 1;
    }
    out
}

/// Call `done` every 5 ms until it returns true (then true) or `deadline`
/// passes (then false).
pub fn poll_until(deadline: Instant, mut done: impl FnMut() -> bool) -> bool {
    loop {
        if done() {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Lowercase hex, for shipping binary state over the line protocol.
pub fn hex_encode(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push_str(&format!("{b:02x}"));
    }
    s
}

/// Inverse of [`hex_encode`]; `None` on odd length or a non-hex digit.
pub fn hex_decode(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    let digits = s.as_bytes();
    let mut out = Vec::with_capacity(s.len() / 2);
    for pair in digits.chunks_exact(2) {
        let hi = (pair[0] as char).to_digit(16)?;
        let lo = (pair[1] as char).to_digit(16)?;
        out.push((hi * 16 + lo) as u8);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_round_trips() {
        let data: Vec<u8> = (0..=255).collect();
        let hex = hex_encode(&data);
        assert_eq!(hex_decode(&hex).as_deref(), Some(data.as_slice()));
        assert_eq!(hex_decode("zz"), None);
        assert_eq!(hex_decode("abc"), None, "odd length rejected");
        assert_eq!(hex_decode("").as_deref(), Some(&[][..]));
    }

    #[test]
    fn member_config_mirrors_params() {
        let params = WorkloadParams::linux_cluster(4, ProtocolKind::Hier);
        let config = member_cluster_config(&params);
        assert_eq!(config.nodes, 4);
        assert_eq!(config.locks, 9, "table + 8 entries");
    }

    #[test]
    fn workload_over_loopback_completes_and_audits() {
        use dlm_cluster::{audit_process_states, await_quiescence, Node, NodeConfig, SocketConfig};
        use std::net::TcpListener;

        let mut params = WorkloadParams::linux_cluster(2, ProtocolKind::Hier);
        params.ops_per_node = 6;
        params.seed = 0xFACE;
        let listeners: Vec<TcpListener> = (0..2)
            .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind"))
            .collect();
        let addrs: Vec<_> = listeners.iter().map(|l| l.local_addr().unwrap()).collect();
        drop(listeners);
        let nodes: Vec<Node> = (0..2)
            .map(|me| {
                Node::new(NodeConfig {
                    cluster: member_cluster_config(&params),
                    socket: SocketConfig::tcp(me, addrs.clone()),
                })
                .expect("bind member")
            })
            .collect();
        let outcomes: Vec<MemberOutcome> = std::thread::scope(|s| {
            // The collect is the point: every member thread must be spawned
            // before the first join, or the workload deadlocks.
            #[allow(clippy::needless_collect)]
            let joins: Vec<_> = nodes
                .iter()
                .map(|node| {
                    let h = node.handle();
                    let me = node.id();
                    let params = &params;
                    s.spawn(move || run_member_workload(&h, me, params, 1000))
                })
                .collect();
            joins.into_iter().map(|j| j.join().unwrap()).collect()
        });
        for (me, outcome) in outcomes.iter().enumerate() {
            assert_eq!(outcome.ops_completed, 6, "member {me}");
            assert!(outcome.acquires >= 6, "member {me}");
        }
        let poll = || {
            let idle = nodes.iter().all(Node::is_idle);
            (idle, nodes.iter().map(Node::messages_sent).sum())
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        assert!(await_quiescence(poll, deadline), "never quiesced");
        let states: Vec<_> = nodes.into_iter().map(|n| n.shutdown().states).collect();
        let errors = audit_process_states(params.hier_config, &states);
        assert!(errors.is_empty(), "{errors:?}");
    }
}
