//! Proves the headline claim of the zero-allocation protocol core: after
//! warm-up, a steady-state acquire/release churn step performs **no heap
//! allocations** — effects live in the reused [`EffectBuf`], copysets and
//! grant counters in inline flat maps, and the testkit's inbox/log vectors
//! retain their capacity.
//!
//! This is an integration-test target so it may host the (unsafe)
//! counting `GlobalAlloc`; the library crates all `forbid(unsafe_code)`.

use dlm_core::testkit::LockStepNet;
use dlm_core::{EffectBuf, HierNode, Mode, NodeId, NullObserver, ProtocolConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// System allocator wrapper counting every allocation entry point.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn alloc_count() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Run `rounds` churn cycles, returning how many heap allocations happened.
/// The grant/upgrade logs are cleared (capacity retained) each round so the
/// net models a long-running service, not an ever-growing history.
fn churn_allocs(net: &mut LockStepNet, mode: Mode, rounds: u32) -> u64 {
    let before = alloc_count();
    for _ in 0..rounds {
        net.try_acquire(1, mode).expect("idle node can acquire");
        net.deliver_all();
        net.try_release(1).expect("holder can release");
        net.deliver_all();
        net.granted.clear();
        net.upgraded.clear();
    }
    alloc_count() - before
}

// A single test function: the counter is process-global, so concurrent test
// threads would attribute each other's allocations.
#[test]
fn steady_state_protocol_step_is_allocation_free() {
    // Two-node star churn through the full testkit runtime, per mode class:
    // copy-grant traffic (IR, R) and the token-transfer-then-local path (W).
    for mode in [Mode::IntentRead, Mode::Read, Mode::Write] {
        let mut net = LockStepNet::star(2);
        net.audit_each_step = false;
        // Warm-up: grows inbox/log capacities and reaches the steady state.
        let warm = churn_allocs(&mut net, mode, 50);
        let steady = churn_allocs(&mut net, mode, 100);
        assert_eq!(
            steady, 0,
            "{mode:?} churn allocated {steady} times over 100 steady rounds \
             (warm-up allocated {warm})"
        );
    }

    // Single token node through the `*_into` API with a reused EffectBuf:
    // allocation-free from the very first operation (all state is inline).
    let mut node = HierNode::with_token(NodeId(0), ProtocolConfig::paper());
    let mut buf = EffectBuf::new();
    let mut obs = NullObserver;
    let mut effects = 0;
    let before = alloc_count();
    for _ in 0..100 {
        node.on_acquire_into(Mode::Read, 0, &mut buf, &mut obs)
            .unwrap();
        effects += buf.drain().count();
        node.on_release_into(&mut buf, &mut obs).unwrap();
        effects += buf.drain().count();
    }
    let delta = alloc_count() - before;
    assert_eq!(effects, 100, "one grant per acquire, none per release");
    assert_eq!(delta, 0, "reused-buffer run allocated {delta} times");
}
