//! Differential and symmetry-soundness tests for the parallel,
//! symmetry-reduced exploration engine.
//!
//! Three pillars:
//!
//! 1. **Canonicalization soundness** (proptest): for random reachable
//!    states `s` and random automorphisms σ of the scenario,
//!    `canon(σ(s)) == canon(s)`, relabeling commutes with the transition
//!    function (`σ(apply(s, a)) == apply(σ(s), σ(a))`), and invariant
//!    verdicts are permutation-invariant.
//! 2. **Serial vs parallel differential** (`corpus::differential`, the
//!    function `check gate` runs too): at 2, 4 and 8 workers — with and
//!    without symmetry — the BFS frontier reports the same counts, the same
//!    terminal fingerprint set and the same findings, schedules included,
//!    as the single-threaded search. The DPOR engine must agree on verdicts
//!    and terminal sets (its visited state count legitimately varies with
//!    the fork frontier).
//! 3. **Acceptance** (`corpus::acceptance`, likewise shared with the gate):
//!    the 5-node / 2-lock symmetric scenario exceeds the serial state budget
//!    but its canonical quotient (automorphism group of order 4! = 24)
//!    verifies clean under parallel workers.

use dlm_check::corpus::{self, ACCEPTANCE_BUDGET};
use dlm_check::{
    explore_with, permute_state, replay, Action, Canonicalize, Op, Options, Reduction, Scenario,
    State, SymmetryGroup,
};
use dlm_core::{audit, Mode, ProtocolConfig};
use proptest::prelude::*;

fn mode_strategy() -> impl Strategy<Value = Mode> {
    prop_oneof![
        Just(Mode::IntentRead),
        Just(Mode::Read),
        Just(Mode::Upgrade),
        Just(Mode::IntentWrite),
        Just(Mode::Write),
    ]
}

/// A symmetric star scenario: every leaf runs the same script, so the
/// automorphism group is the full symmetric group on the leaves.
fn symmetric_star_strategy() -> impl Strategy<Value = Scenario> {
    (
        3usize..=5,
        proptest::collection::vec((mode_strategy(), any::<bool>(), 0u32..2), 1..3),
    )
        .prop_map(|(n, ops)| {
            let mut script = Vec::new();
            for (mode, upgrade, lock) in ops {
                script.push(Op::AcquireOn(lock, mode));
                if mode == Mode::Upgrade && upgrade {
                    script.push(Op::UpgradeOn(lock));
                }
                script.push(Op::ReleaseOn(lock));
            }
            let mut scripts = vec![Vec::new()];
            for _ in 1..n {
                scripts.push(script.clone());
            }
            Scenario::star(n, scripts, ProtocolConfig::paper())
        })
}

/// Walk a pseudo-random path from the initial state, picking each step by
/// indexing the (deterministically ordered) enabled-action list.
fn random_walk(scenario: &Scenario, picks: &[usize]) -> State {
    let mut state = State::initial(scenario);
    for &p in picks {
        let actions = state.enabled_actions(scenario);
        if actions.is_empty() {
            break;
        }
        state = state.apply(scenario, actions[p % actions.len()]).state;
    }
    state
}

fn permute_action(action: Action, perm: &[u32]) -> Action {
    match action {
        Action::Deliver { lock, from, to } => Action::Deliver {
            lock,
            from: perm[from as usize],
            to: perm[to as usize],
        },
        Action::Script { node } => Action::Script {
            node: perm[node as usize],
        },
    }
}

/// True when the state violates any safety invariant on any lock object
/// (the property canonicalization must preserve).
fn unsafe_state(state: &State) -> bool {
    (0..state.locks())
        .any(|lock| !audit(&state.nodes[lock], &state.in_flight(lock as u32), false).is_empty())
}

fn cases(default_cases: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default_cases)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(32)))]

    /// `canon(σ(s)) == canon(s)` for every automorphism σ: the canonical
    /// fingerprint is constant on orbits, which is exactly the property
    /// that makes the symmetry-quotient seen-set sound.
    #[test]
    fn canonical_fingerprint_is_orbit_invariant(
        scenario in symmetric_star_strategy(),
        picks in proptest::collection::vec(0usize..64, 0..12),
    ) {
        let group = SymmetryGroup::of(&scenario);
        prop_assert!(!group.is_trivial(), "symmetric star must have symmetry");
        let s = random_walk(&scenario, &picks);
        let canon = s.canonical_fingerprint(&group);
        for perm in group.members() {
            let permuted = permute_state(&s, perm);
            prop_assert_eq!(
                permuted.canonical_fingerprint(&group),
                canon,
                "canon not orbit-invariant under {:?}",
                perm
            );
        }
    }

    /// Relabeling commutes with the transition function: the protocol never
    /// looks at the *value* of a node id, so σ(apply(s, a)) == apply(σ(s),
    /// σ(a)), and the FIFO audit emitted by the step is label-independent.
    #[test]
    fn relabeling_commutes_with_apply(
        scenario in symmetric_star_strategy(),
        picks in proptest::collection::vec(0usize..64, 0..10),
        which in 0usize..64,
    ) {
        let group = SymmetryGroup::of(&scenario);
        let s = random_walk(&scenario, &picks);
        let actions = s.enabled_actions(&scenario);
        // Terminal states have nothing to commute; the property holds vacuously.
        if !actions.is_empty() {
            let action = actions[which % actions.len()];
            let step = s.apply(&scenario, action);
            for perm in group.members() {
                let permuted_then_step =
                    permute_state(&s, perm).apply(&scenario, permute_action(action, perm));
                let step_then_permuted = permute_state(&step.state, perm);
                prop_assert_eq!(
                    permuted_then_step.state.fingerprint(),
                    step_then_permuted.fingerprint(),
                    "apply does not commute with {:?}",
                    perm
                );
                prop_assert_eq!(
                    permuted_then_step.fifo_errors.len(),
                    step.fifo_errors.len(),
                    "fifo verdicts differ under {:?}",
                    perm
                );
            }
        }
    }

    /// Safety verdicts are permutation-invariant: a relabeled state is
    /// unsafe iff the original is. Together with orbit-invariant
    /// canonicalization this means exploring one representative per orbit
    /// misses no violation.
    #[test]
    fn safety_verdict_is_permutation_invariant(
        scenario in symmetric_star_strategy(),
        picks in proptest::collection::vec(0usize..64, 0..12),
    ) {
        let group = SymmetryGroup::of(&scenario);
        let s = random_walk(&scenario, &picks);
        let verdict = unsafe_state(&s);
        for perm in group.members() {
            prop_assert_eq!(
                unsafe_state(&permute_state(&s, perm)),
                verdict,
                "safety verdict changed under {:?}",
                perm
            );
        }
    }
}

/// Neither parallel frontier may change what a search reports: the BFS
/// level frontier nothing at all, the DPOR fork frontier neither verdicts
/// nor terminal sets.
#[test]
fn parallel_searches_match_serial() {
    for name in corpus::DIFFERENTIAL {
        let s = corpus::scenario(name);
        for reduction in [Reduction::Off, Reduction::On] {
            let diffs = corpus::differential(name, &s, reduction);
            assert!(diffs.is_empty(), "{diffs:#?}");
        }
    }
}

/// The seeded stale-release bug found through the parallel, symmetry-
/// reduced path replays to the same genuine safety violation at the same
/// minimal depth the serial exhaustive search reports.
#[test]
fn seeded_bug_counterexample_survives_parallel_symmetry() {
    let s = corpus::scenario("seeded_bug");
    let serial = explore_with(&s, Options::exhaustive(1_000_000));
    let serial_len = serial.violations[0].schedule.0.len();
    for (symmetry, workers) in [(false, 4), (true, 1), (true, 4), (true, 8)] {
        let r = explore_with(
            &s,
            Options::exhaustive(1_000_000)
                .with_symmetry(symmetry)
                .with_workers(workers),
        );
        let v = r
            .violations
            .first()
            .unwrap_or_else(|| panic!("sym={symmetry} w={workers}: no violation"));
        assert_eq!(
            v.schedule.0.len(),
            serial_len,
            "sym={symmetry} w={workers}: minimal counterexample length"
        );
        let replayed = replay(&s, &v.schedule);
        assert!(
            !replayed.errors().is_empty(),
            "sym={symmetry} w={workers}: schedule does not replay to a real violation"
        );
    }
}

/// A 2-lock scenario with no lock-ordering discipline *in the safe order*
/// verifies clean; reversing the acquisition order on one node produces a
/// genuine cross-lock hold-and-wait deadlock, visible to every engine and
/// worker count.
#[test]
fn cross_lock_hold_and_wait_deadlock_is_detected() {
    let safe = Scenario::star(
        3,
        vec![
            vec![],
            vec![
                Op::Acquire(Mode::Write),
                Op::AcquireOn(1, Mode::Write),
                Op::ReleaseOn(1),
                Op::Release,
            ],
            vec![
                Op::Acquire(Mode::Write),
                Op::AcquireOn(1, Mode::Write),
                Op::ReleaseOn(1),
                Op::Release,
            ],
        ],
        ProtocolConfig::paper(),
    );
    assert_eq!(safe.locks, 2);
    let r = explore_with(&safe, Options::exhaustive(1_000_000));
    assert!(!r.truncated);
    assert!(
        r.verified(),
        "consistent lock order must verify: {:?}",
        r.deadlocks.first()
    );

    let unsafe_order = Scenario::star(
        3,
        vec![
            vec![],
            vec![
                Op::Acquire(Mode::Write),
                Op::AcquireOn(1, Mode::Write),
                Op::ReleaseOn(1),
                Op::Release,
            ],
            vec![
                Op::AcquireOn(1, Mode::Write),
                Op::Acquire(Mode::Write),
                Op::Release,
                Op::ReleaseOn(1),
            ],
        ],
        ProtocolConfig::paper(),
    );
    for workers in [1, 4] {
        for reduced in [false, true] {
            let opts = if reduced {
                Options::reduced(1_000_000)
            } else {
                Options::exhaustive(1_000_000)
            };
            let r = explore_with(&unsafe_order, opts.with_workers(workers));
            assert!(!r.truncated);
            assert!(
                !r.deadlocks.is_empty(),
                "w={workers} reduced={reduced}: cross-lock deadlock missed"
            );
            assert!(
                r.violations.is_empty(),
                "w={workers} reduced={reduced}: hold-and-wait is a liveness bug, not safety"
            );
        }
    }
}

/// Acceptance: the 5-node / 2-lock symmetric scenario truncates the plain
/// serial search at the budget, while the canonical quotient (group order
/// 24) completes under parallel workers with every invariant passing.
#[test]
fn symmetric_two_lock_scenario_needs_the_quotient() {
    let s = corpus::scenario("two_locks");
    assert_eq!(s.locks, 2);
    assert_eq!(SymmetryGroup::of(&s).order(), 24);

    let (plain, sym) = corpus::acceptance().expect("acceptance run");
    assert_eq!(plain.states, ACCEPTANCE_BUDGET, "the budget is exact");
    assert_eq!(sym.group_order, 24);
    assert!(
        sym.states * 10 < ACCEPTANCE_BUDGET,
        "quotient ({}) should be far below the budget",
        sym.states
    );

    // The quotient agrees with itself across worker counts.
    let sym8 = explore_with(
        &s,
        Options::exhaustive(ACCEPTANCE_BUDGET)
            .with_symmetry(true)
            .with_workers(8),
    );
    assert_eq!(sym8.states, sym.states);
    assert_eq!(sym8.terminal_fingerprints, sym.terminal_fingerprints);
}
