//! Crash-schedule verification (DESIGN.md §17): the
//! exactly-one-token-per-epoch invariant under every interleaving of a
//! node crash with in-flight protocol traffic, Rule R3 fencing of the
//! dead generation's frames, and recovery liveness (every schedule still
//! terminates with clean quiescence among the survivors).

use dlm_check::{explore, explore_with, Action, Op, Options, Scenario, State};
use dlm_core::{Mode, ProtocolConfig};

fn paper() -> ProtocolConfig {
    ProtocolConfig::paper()
}

/// The tentpole property: the initial token holder crashes while a write
/// acquisition races it — the request, or the answering token transfer,
/// may be in flight at the instant of the crash. Every interleaving must
/// keep at most one token per epoch in every reachable state, regenerate
/// exactly one token in the new epoch, and still drain every surviving
/// script (no deadlock, clean quiescent audit).
#[test]
fn token_holder_crash_verifies_exactly_one_token_per_epoch() {
    let s = Scenario::star(
        3,
        vec![
            vec![Op::Crash],
            vec![Op::Acquire(Mode::Write), Op::Release],
            vec![Op::Acquire(Mode::Read), Op::Release],
        ],
        paper(),
    );
    let r = explore(&s, 2_000_000);
    assert!(
        r.verified(),
        "violation: {:?}; deadlock: {:?}; truncated: {}",
        r.violations.first(),
        r.deadlocks.first(),
        r.truncated
    );
    assert!(r.terminals > 0);
    assert!(
        r.states > 100,
        "crash schedules branch: {} states",
        r.states
    );
}

/// A non-owner crash: the surviving holder keeps its token (no
/// regeneration needed), the epoch still advances, and every schedule
/// quiesces cleanly.
#[test]
fn non_owner_crash_verifies() {
    let s = Scenario::star(
        3,
        vec![
            vec![Op::Acquire(Mode::Read), Op::Release],
            vec![Op::Acquire(Mode::Write), Op::Release],
            vec![Op::Crash],
        ],
        paper(),
    );
    let r = explore(&s, 2_000_000);
    assert!(
        r.verified(),
        "violation: {:?}; deadlock: {:?}",
        r.violations.first(),
        r.deadlocks.first()
    );
}

/// The satellite regression scenario: the crashed owner's token transfer
/// is still in flight when the view change regenerates a replacement.
/// Delivering the stale frame afterwards must fence it (Rule R3), leaving
/// exactly one token — in the new epoch — and a clean quiescent audit.
#[test]
fn stale_token_from_crashed_owner_is_fenced() {
    let s = Scenario::star(
        2,
        vec![vec![Op::Crash], vec![Op::Acquire(Mode::Write)]],
        paper(),
    );
    let s0 = State::initial(&s);
    // n1 requests W from the token holder n0…
    let s1 = s0.apply(&s, Action::Script { node: 1 }).state;
    // …n0 answers with a token transfer (now in flight, stamped epoch 0)…
    let s2 = s1
        .apply(
            &s,
            Action::Deliver {
                lock: 0,
                from: 1,
                to: 0,
            },
        )
        .state;
    assert!(
        s2.channels.contains_key(&(0, 0, 1)),
        "token transfer in flight"
    );
    // …and crashes before it arrives. The lone survivor regenerates.
    let s3 = s2.apply(&s, Action::Script { node: 0 }).state;
    let survivor = &s3.nodes[0][1];
    assert!(survivor.has_token(), "survivor regenerated the token");
    assert_eq!(survivor.epoch(), 1);
    assert_eq!(
        survivor.held(),
        Mode::Write,
        "the re-queued pending W self-grants on the regenerated token"
    );
    // The dead owner's stale token frame finally arrives: fenced.
    let step = s3.apply(
        &s,
        Action::Deliver {
            lock: 0,
            from: 0,
            to: 1,
        },
    );
    assert!(step.fenced, "stale epoch-0 token frame must be fenced");
    let end = &step.state;
    // The fence consumed exactly the delivered head frame and sent nothing.
    let mut expected = s3.channels.clone();
    let q = expected.get_mut(&(0, 0, 1)).expect("stale frame in flight");
    q.pop_front();
    if q.is_empty() {
        expected.remove(&(0, 0, 1));
    }
    assert_eq!(end.channels, expected, "a fenced delivery sends no frame");
    assert!(
        end.nodes[0][1].has_token() && end.nodes[0][1].epoch() == 1,
        "exactly one token, in the new epoch"
    );
    assert!(end.quiet());
    assert_eq!(end.audit_lock(0, false), vec![]);
}

/// A crash spans every lock object: with two independent locks, both are
/// repaired into the new epoch and both stay safe under every schedule.
#[test]
fn crash_repairs_every_lock_object() {
    let s = Scenario::star(
        3,
        vec![
            vec![Op::Crash],
            vec![
                Op::AcquireOn(0, Mode::Write),
                Op::ReleaseOn(0),
                Op::AcquireOn(1, Mode::Read),
                Op::ReleaseOn(1),
            ],
            vec![],
        ],
        paper(),
    );
    let r = explore(&s, 2_000_000);
    assert!(
        r.verified(),
        "violation: {:?}; deadlock: {:?}",
        r.violations.first(),
        r.deadlocks.first()
    );
}

/// Symmetry reduction composes with crash schedules: the two surviving,
/// identically-scripted contenders are interchangeable, so the quotient
/// search visits fewer states and reaches the same verdict.
#[test]
fn symmetry_composes_with_crash_schedules() {
    let s = Scenario::star(
        3,
        vec![
            vec![Op::Crash],
            vec![Op::Acquire(Mode::Write), Op::Release],
            vec![Op::Acquire(Mode::Write), Op::Release],
        ],
        paper(),
    );
    let plain = explore(&s, 2_000_000);
    let reduced = explore_with(&s, Options::exhaustive(2_000_000).with_symmetry(true));
    assert!(plain.verified(), "{:?}", plain.violations.first());
    assert!(reduced.verified(), "{:?}", reduced.violations.first());
    assert_eq!(reduced.group_order, 2, "survivors are interchangeable");
    assert!(
        reduced.states < plain.states,
        "quotient must shrink the space: {} vs {}",
        reduced.states,
        plain.states
    );
}

/// Liveness across recovery: a request whose answer dies with the crashed
/// owner is re-issued by its surviving originator (Rule R1), so every
/// schedule still grants it — there is no terminal state with a waiting
/// survivor.
#[test]
fn in_flight_request_survives_the_crash_via_reissue() {
    // A chain 0←1←2 puts an intermediate node on the request path; the
    // tail's request can be mid-forward at either hop when node 0 dies.
    let s = Scenario::chain(
        3,
        vec![
            vec![Op::Crash],
            vec![],
            vec![Op::Acquire(Mode::Write), Op::Release],
        ],
        paper(),
    );
    let r = explore(&s, 2_000_000);
    assert!(
        r.verified(),
        "violation: {:?}; deadlock: {:?}",
        r.violations.first(),
        r.deadlocks.first()
    );
}
