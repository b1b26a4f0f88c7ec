//! Tests of the priority extension (the authors' prior-work lineage,
//! §2 [15][16]): higher-priority requests overtake lower-priority queued
//! ones at the token; FIFO holds within a priority level; priority 0
//! reproduces the paper's protocol exactly.

use dlm_core::testkit::LockStepNet;
use dlm_core::{EffectBuf, Mode, NodeId, NullObserver};

/// Build a net where node 0 (token) holds W so that every later request
/// queues; then release and observe the service order.
fn queue_three_writers(priorities: [u8; 3]) -> Vec<NodeId> {
    let mut net = LockStepNet::star(4);
    net.acquire(0, Mode::Write);
    for (i, &prio) in priorities.iter().enumerate() {
        let id = (i + 1) as u32;
        // The testkit's `acquire` is priority 0; issue with an explicit
        // priority through the node API and feed the effects back.
        let mut effects = EffectBuf::new();
        net.node_mut(id)
            .on_acquire_into(Mode::Write, prio, &mut effects, &mut NullObserver)
            .unwrap();
        net.inject_effects(NodeId(id), effects.take_vec());
        net.deliver_all();
    }
    net.release(0);
    // Serve all three, releasing as each is granted.
    for _ in 0..8 {
        net.deliver_all();
        for id in 1..4 {
            if net.node(id).held() == Mode::Write {
                net.release(id);
            }
        }
        net.deliver_all();
        if (1..4).all(|id| net.node(id).pending().is_none()) {
            break;
        }
    }
    let order: Vec<NodeId> = net
        .granted
        .iter()
        .filter(|(n, m)| *m == Mode::Write && n.0 != 0)
        .map(|&(n, _)| n)
        .collect();
    let errors = net.audit_now(true);
    assert!(errors.is_empty(), "{errors:?}");
    order
}

#[test]
fn equal_priorities_serve_fifo() {
    let order = queue_three_writers([0, 0, 0]);
    assert_eq!(order, vec![NodeId(1), NodeId(2), NodeId(3)]);
}

#[test]
fn higher_priority_overtakes() {
    let order = queue_three_writers([0, 0, 9]);
    assert_eq!(
        order,
        vec![NodeId(3), NodeId(1), NodeId(2)],
        "the priority-9 writer jumps the two priority-0 writers"
    );
}

#[test]
fn fifo_within_priority_levels() {
    let order = queue_three_writers([5, 9, 5]);
    assert_eq!(
        order,
        vec![NodeId(2), NodeId(1), NodeId(3)],
        "9 first, then the two 5s in arrival order"
    );
}
