//! `TraceStats` stays on for whole simulator runs, so once warm it must not
//! touch the heap: after every label has been seen and the open-span and
//! open-freeze maps have reached their high-water mark, recording performs
//! **no heap allocations**.
//!
//! This is an integration-test target so it may host the (unsafe)
//! counting `GlobalAlloc`; the library crates all `forbid(unsafe_code)`.

use dlm_modes::{Mode, ModeSet};
use dlm_trace::{ProtocolEvent, Recorder, TraceStats};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// System allocator wrapper counting every allocation entry point, per
/// thread: the test harness's own thread allocates while a test runs.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made so far by the calling thread.
fn alloc_count() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Request spans and `(lock, node)` freezes held open at once per cycle.
const WIDTH: u32 = 64;

/// Every variant that neither opens nor closes a span or a freeze, so with
/// those every rule, kind and send-class label is counted each cycle.
fn other_events() -> [ProtocolEvent; 25] {
    let modes = ModeSet::new();
    let mode = Mode::Read;
    [
        ProtocolEvent::RequestSent {
            to: 0,
            mode,
            upgrade: false,
        },
        ProtocolEvent::RequestForwarded {
            to: 1,
            requester: 3,
            mode,
        },
        ProtocolEvent::RequestQueued {
            requester: 2,
            mode,
            depth: 2,
        },
        ProtocolEvent::QueueServed {
            requester: 2,
            mode,
            depth: 1,
        },
        ProtocolEvent::ChildGrant { to: 4, mode },
        ProtocolEvent::LocalGrant { mode },
        ProtocolEvent::GrantReceived { from: 0, mode },
        ProtocolEvent::TokenSent {
            to: 5,
            mode,
            queued: 3,
        },
        ProtocolEvent::TokenReceived { from: 0, queued: 3 },
        ProtocolEvent::ReleaseSent {
            to: 0,
            new_owned: Mode::NoLock,
            ack: 7,
        },
        ProtocolEvent::ReleaseApplied {
            from: 2,
            new_owned: mode,
            stale: false,
        },
        ProtocolEvent::FreezeSent { to: 1, modes },
        ProtocolEvent::UpgradeStarted,
        ProtocolEvent::Upgraded,
        ProtocolEvent::ParentChanged {
            old: Some(0),
            new: None,
        },
        ProtocolEvent::FrameDropped { to: 2 },
        ProtocolEvent::Retransmit {
            to: 2,
            seq: 41,
            attempt: 1,
        },
        ProtocolEvent::DupSuppressed { from: 1, seq: 40 },
        ProtocolEvent::DecodeError { from: 6 },
        ProtocolEvent::RequestHop { req: 0, hop: 1 },
        ProtocolEvent::NodeSuspected { node: 4 },
        ProtocolEvent::EpochBump { epoch: 2 },
        ProtocolEvent::TokenRegenerated { epoch: 2 },
        ProtocolEvent::StaleEpochFenced { from: 4, epoch: 1 },
        ProtocolEvent::RecoverSent { to: 1, epoch: 2 },
    ]
}

/// One cycle: every label once, then `WIDTH` request spans and `WIDTH`
/// freezes (each re-frozen once) opened, then all of them closed.
fn cycle(stats: &mut TraceStats, t: &mut u64) {
    let mut tick = || {
        *t += 1;
        *t
    };
    for event in other_events() {
        stats.record(tick(), 0, 0, event);
    }
    let mut frozen = ModeSet::new();
    frozen.insert(Mode::Write);
    let mut refrozen = frozen;
    refrozen.insert(Mode::Read);
    for i in 0..WIDTH {
        let req = (u64::from(i) << 32) | 1;
        let start = ProtocolEvent::RequestStart {
            req,
            mode: Mode::Write,
            upgrade: false,
        };
        stats.record(tick(), 0, i, start);
        stats.record(tick(), i % 4, i, ProtocolEvent::Frozen { modes: frozen });
        stats.record(tick(), i % 4, i, ProtocolEvent::Frozen { modes: refrozen });
    }
    for i in 0..WIDTH {
        let req = (u64::from(i) << 32) | 1;
        stats.record(tick(), 0, i, ProtocolEvent::RequestGrant { req, hops: 2 });
        stats.record(tick(), i % 4, i, ProtocolEvent::Unfrozen);
    }
}

#[test]
fn warm_trace_stats_record_without_allocating() {
    let mut stats = TraceStats::new();
    let mut t = 0;
    let before = alloc_count();
    cycle(&mut stats, &mut t);
    let warm = alloc_count() - before;

    let before = alloc_count();
    for _ in 0..100 {
        cycle(&mut stats, &mut t);
    }
    let steady = alloc_count() - before;
    assert_eq!(
        steady, 0,
        "100 warm cycles allocated {steady} times (warm-up allocated {warm})"
    );
    assert_eq!(stats.span_latency.count(), 101 * u64::from(WIDTH));
    assert_eq!(stats.freeze_spans.count(), 101 * u64::from(WIDTH));
    assert_eq!(stats.kinds.get("decode_error"), 101);
}
