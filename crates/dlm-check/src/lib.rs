//! A bounded, exhaustive model checker for the hierarchical locking
//! protocol.
//!
//! Property tests sample random schedules; this crate goes further for
//! small configurations: it explores the reachable interleavings of
//! message deliveries (per-channel FIFO, as TCP/MPI guarantee) and
//! application actions, asserting the global safety invariants in every
//! reachable state and liveness (no deadlock, clean quiescence, freeze
//! convergence) in every terminal state.
//!
//! The crate is laid out as model, core, drivers, corpus:
//!
//! * **The model** ([`State`], [`Scenario`]): what a state is, which
//!   [`Action`]s are enabled and what one does.
//! * **The search core** (module [`search`], entry point
//!   [`explore_with`]): everything about a run that is not search order,
//!   once — the state key (the 128-bit structural fingerprint, or under
//!   `Options::symmetry` the fingerprint of the state's canonical
//!   relabelling — interchangeable nodes sorted by a label-free colour,
//!   module [`canon`] — so permuted clusters collapse to one
//!   representative), the exact state / transition / wall-clock budgets,
//!   the state classifier, the capped findings sink that becomes the
//!   [`CheckReport`], and the worker spawn.
//! * **One driver** (module [`mod@explore`]), on `Options::workers`
//!   threads: exhaustive level-synchronous breadth-first search, with
//!   minimal counterexamples and reports identical at any worker count. The
//!   seen set keeps a fingerprint and a parent link per state; only the
//!   frontier holds states, whose node versions successors share.
//! * **Counterexamples** (module [`counterexample`]): every violation and
//!   deadlock carries a replayable [`Schedule`]; schedules re-execute
//!   deterministically ([`replay`]), export as `dlm-trace` JSONL event
//!   streams ([`schedule_trace`]) and render as per-step walkthroughs
//!   ([`walkthrough`]).
//! * **The corpus** (module [`corpus`]): the named scenarios with their
//!   expected outcomes, the serial-vs-parallel differential and the
//!   symmetry acceptance run, shared by the tests and the `check` CLI bin;
//!   auto-enumerated families over star/chain/binary-tree topologies with
//!   symmetry deduplication come from module [`enumerate`].
//!
//! Checked properties: pairwise holder compatibility, single token,
//! owned-cache coherence, copyset coverage and quiescence at terminals
//! (via `dlm_core::audit`), per-lock FIFO grant order at the token node
//! (via `dlm_core::fifo_overtakes`, checked on every transition), and
//! freeze convergence at terminals (via `dlm_core::frozen_residue`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod canon;
pub mod corpus;
pub mod counterexample;
pub mod enumerate;
pub mod explore;
pub mod scenario;
pub mod search;
pub mod state;

pub use canon::{Canonicalize, SymmetryGroup};
pub use counterexample::{replay, schedule_trace, walkthrough, Replay, Schedule};
pub use scenario::{Op, Scenario};
pub use search::{explore, explore_with, CheckReport, Deadlock, Options, Violation};
pub use state::{Action, SharedNode, State, Step};

#[cfg(test)]
mod tests {
    use super::*;
    use dlm_core::{Mode, ProtocolConfig};

    fn paper() -> ProtocolConfig {
        ProtocolConfig::paper()
    }

    #[test]
    fn single_writer_is_verified() {
        let s = Scenario::star(
            2,
            vec![vec![], vec![Op::Acquire(Mode::Write), Op::Release]],
            paper(),
        );
        let r = explore(&s, 100_000);
        assert!(r.verified(), "{r:?}");
        assert!(r.states > 1);
    }

    /// Every gate-sized named scenario at one worker: the expected outcome
    /// and the exact states / transitions / terminals (the differential
    /// oracle — a change to the search or to the core that moves one of
    /// these numbers is a behaviour change).
    #[test]
    fn named_scenarios_meet_their_oracle() {
        let oracle = [
            ("two_writers", (30, 42, 2)),
            ("readers_writer", (206, 357, 8)),
            ("upgrade_race", (75, 110, 5)),
            ("chain_freeze", (2246, 5367, 29)),
            ("grant_release_race", (745, 1432, 22)),
            ("deadlock", (23, 32, 2)),
            ("seeded_bug", (716, 1366, 18)),
        ];
        let gate_sized = corpus::NAMED.iter().filter(|n| !n.heavy);
        assert!(gate_sized.map(|n| n.name).eq(oracle.map(|row| row.0)));
        for (name, numbers) in oracle {
            let r = explore_with(&corpus::scenario(name), Options::exhaustive(1_000_000));
            assert!(!r.truncated, "{name}");
            assert_eq!(
                corpus::Expected::of(&r),
                corpus::named(name).unwrap().expected,
                "{name}: {r:?}"
            );
            assert_eq!((r.states, r.transitions, r.terminals), numbers, "{name}");
        }
        // Symmetry merges the two writers: one terminal, half the states.
        let s = corpus::scenario("two_writers");
        let r = explore_with(&s, Options::exhaustive(1_000_000).with_symmetry(true));
        assert_eq!((r.states, r.transitions, r.terminals), (16, 23, 1));
    }

    /// The symmetric one-lock W-star under symmetry: canonical states and
    /// transitions of the 4–8 node ladder (each rung agrees with the
    /// minimum over the brute-forced orbit, the definition the tests keep as
    /// `reference_key`), and the 11-node star — group order 10!, past any
    /// group that has to be enumerated — verified untruncated. A key coarser
    /// than the orbits shows here as fewer states, a finer one as more.
    #[test]
    fn symmetric_stars_meet_their_oracle() {
        let ladder = [
            (4, 43, 84),
            (5, 105, 251),
            (6, 241, 669),
            (7, 530, 1657),
            (8, 1131, 3904),
            (11, 9916, 42947),
        ];
        for (n, states, transitions) in ladder {
            let opts = Options::exhaustive(1_000_000).with_symmetry(true);
            let r = explore_with(&corpus::star(n, 1), opts);
            assert!(r.verified(), "star {n}: {r:?}");
            assert_eq!(r.group_order, (1..n).product::<usize>(), "star {n}");
            assert_eq!(
                (r.states, r.transitions, r.terminals),
                (states, transitions, 1),
                "star {n}"
            );
        }
        assert!(corpus::named("star_11").is_some_and(|n| n.heavy));
    }

    #[test]
    fn upgrade_race_with_reader() {
        let s = Scenario::star(
            3,
            vec![
                vec![],
                vec![Op::Acquire(Mode::Upgrade), Op::Upgrade, Op::Release],
                vec![Op::Acquire(Mode::IntentRead), Op::Release],
            ],
            paper(),
        );
        let r = explore(&s, 2_000_000);
        assert!(r.verified(), "{r:?}");
    }

    #[test]
    fn every_ablation_is_safe_in_the_writer_race() {
        for ablation in dlm_core::ALL_ABLATIONS {
            let s = Scenario::star(
                3,
                vec![
                    vec![Op::Acquire(Mode::Read), Op::Release],
                    vec![Op::Acquire(Mode::Write), Op::Release],
                    vec![Op::Acquire(Mode::IntentWrite), Op::Release],
                ],
                paper().without(ablation),
            );
            let r = explore(&s, 4_000_000);
            assert!(r.verified(), "{ablation:?}: {r:?}");
        }
    }

    #[test]
    fn literal_rule_3_2_is_safe_in_the_writer_race() {
        let s = Scenario::star(
            3,
            vec![
                vec![Op::Acquire(Mode::Read), Op::Release],
                vec![Op::Acquire(Mode::Write), Op::Release],
                vec![Op::Acquire(Mode::Read), Op::Release],
            ],
            paper().literal_rule_3_2(),
        );
        let r = explore(&s, 4_000_000);
        assert!(r.verified(), "{r:?}");
    }

    /// The checker itself must be able to *detect* liveness failures: a
    /// reader that never releases leaves the writer waiting in a terminal
    /// state, which must be reported as a deadlock naming the stuck script
    /// and the waiter.
    #[test]
    fn checker_detects_genuine_deadlock() {
        let s = corpus::scenario("deadlock");
        let r = explore_with(&s, Options::exhaustive(1_000_000));
        assert!(r.violations.is_empty(), "stranded, but never unsafe: {r:?}");
        let [d] = &r.deadlocks[..] else {
            panic!("a never-released R must strand the W, once: {r:?}");
        };
        assert_eq!((&d.stuck_scripts[..], &d.waiting[..]), (&[2][..], &[2][..]));
        // Deadlock schedules replay into a state that really is stuck.
        let replayed = replay(&s, &d.schedule);
        let end = replayed.final_state();
        assert!(end.quiet(), "deadlock replay must end quiescent");
        assert!(
            end.nodes.iter().flatten().any(|n| n.pending().is_some()),
            "someone must still be waiting"
        );
    }

    /// The budgets are exact: a report never counts more than `max_states`
    /// states (zero included), a run cut short by the state budget counts
    /// exactly `max_states`, the exact budget completes, and a zero
    /// wall-clock budget truncates at once — at one worker and at two.
    #[test]
    fn budgets_are_exact_at_any_worker_count() {
        let s = corpus::scenario("two_writers");
        for workers in [1, 2] {
            let base = Options::exhaustive(1_000_000).with_workers(workers);
            let label = format!("w={workers}");
            let full = explore_with(&s, base);
            assert!(full.verified(), "{label}: {full:?}");
            for max_states in [0, 1, full.states - 1, full.states] {
                let r = explore_with(&s, Options { max_states, ..base });
                let cut = max_states < full.states;
                assert_eq!(r.truncated, cut, "{label} budget {max_states}: {r:?}");
                assert_eq!(r.states, max_states, "{label}: the budget is exact");
                assert_eq!(r.verified(), !cut, "{label} budget {max_states}");
            }
            let r = explore_with(&s, base.with_max_seconds(0.0));
            assert!(r.truncated, "{label}: zero time budget must truncate");
            assert!(r.states <= 1 && !r.verified(), "{label}: {r:?}");
        }
    }

    /// A seeded protocol bug (accepting stale releases, gated behind a
    /// test-only config flag) must surface as a mutual-exclusion violation
    /// with a *replayable* counterexample: the schedule re-executes to the
    /// same errors, exports as a `dlm-trace` JSONL stream that round-trips,
    /// and renders as a per-step walkthrough.
    #[test]
    fn seeded_stale_release_bug_yields_replayable_counterexample() {
        let s = corpus::scenario("seeded_bug");
        // Sanity: the correct protocol verifies this exact scenario.
        let sound = Scenario {
            config: paper(),
            ..s.clone()
        };
        assert!(explore(&sound, 1_000_000).verified());

        let r = explore(&s, 1_000_000);
        assert!(!r.violations.is_empty(), "seeded bug must be caught: {r:?}");
        let v = &r.violations[0];
        assert_eq!(v.schedule.0.len(), 13, "counterexample length");

        // The schedule replays deterministically to real audit errors.
        let replayed = replay(&s, &v.schedule);
        let errors = replayed.errors();
        assert!(
            !v.errors.is_empty() && v.errors.iter().all(|e| errors.contains(e)),
            "replay must reproduce the reported errors: {errors:?}"
        );
        assert!(
            errors
                .iter()
                .any(|e| matches!(e, dlm_core::AuditError::IncompatibleHolders { .. })),
            "the stale release must break mutual exclusion: {errors:?}"
        );

        // The schedule exports as a dlm-trace stream that round-trips
        // through JSONL.
        let records = schedule_trace(&s, &v.schedule);
        assert!(!records.is_empty());
        let mut buf = Vec::new();
        dlm_trace::jsonl::write_jsonl(&mut buf, &records).unwrap();
        let back = dlm_trace::jsonl::read_jsonl(&buf[..]).unwrap();
        assert_eq!(records, back, "JSONL round-trip must be lossless");

        // The walkthrough renders every step plus the resulting error.
        let text = walkthrough(&s, &v.schedule);
        for k in 1..=v.schedule.0.len() {
            assert!(
                text.contains(&format!("step {k}:")),
                "walkthrough must render step {k}:\n{text}"
            );
        }
        assert!(
            text.contains("mutual exclusion violated"),
            "walkthrough must state the violation:\n{text}"
        );
    }
}
