//! The scenario corpus: every named scenario, defined once, with the outcome
//! it must produce — read by the `check` bin, the crate's tests and the
//! `count_states` example — plus the two checks CI and the test suite share:
//! the serial-vs-parallel [`differential`] and the symmetry [`acceptance`]
//! run of the heavy scenarios.

use crate::scenario::{Op, Scenario};
use crate::search::{explore_with, CheckReport, Options, Reduction};
use dlm_core::{Mode, ProtocolConfig};

/// What a run produced — and what a named scenario is supposed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expected {
    /// No violation, no deadlock.
    Verified,
    /// At least one deadlock (and no violation).
    Deadlock,
    /// At least one safety violation.
    Violation,
}

impl Expected {
    /// The outcome `report` shows (truncation is the caller's to check).
    pub fn of(report: &CheckReport) -> Self {
        if !report.violations.is_empty() {
            Expected::Violation
        } else if !report.deadlocks.is_empty() {
            Expected::Deadlock
        } else {
            Expected::Verified
        }
    }
}

impl std::fmt::Display for Expected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Expected::Verified => "verified",
            Expected::Deadlock => "deadlock",
            Expected::Violation => "violation",
        })
    }
}

/// A named scenario.
pub struct Named {
    /// The name `check scenario <name>` takes.
    pub name: &'static str,
    /// One line on what it exercises.
    pub about: &'static str,
    /// The outcome both searches must report.
    pub expected: Expected,
    /// Heavy scenarios need symmetry reduction to finish in gate time; the
    /// gate runs them through [`acceptance`] instead of its plain loop.
    pub heavy: bool,
    /// Builds the scenario.
    pub build: fn() -> Scenario,
}

fn paper() -> ProtocolConfig {
    ProtocolConfig::paper()
}

fn hold(mode: Mode) -> Vec<Op> {
    vec![Op::Acquire(mode), Op::Release]
}

fn upgrade() -> Vec<Op> {
    vec![Op::Acquire(Mode::Upgrade), Op::Upgrade, Op::Release]
}

/// The forwarding chain `0 ← 1 ← … ← n-1` (`n ≤ 6`) whose nodes hold
/// IR / IR / W / IR / R / IW in turn: requests from the tail traverse every
/// intermediate node and the W from the middle freezes the IR holders
/// transitively. `chain(4)` is the named `chain_freeze`; 5 and 6 are the
/// scaling rows of EXPERIMENTS.md.
pub fn chain(n: usize) -> Scenario {
    use Mode::{IntentRead, IntentWrite, Read, Write};
    let modes = [IntentRead, IntentRead, Write, IntentRead, Read, IntentWrite];
    Scenario::chain(n, modes[..n].iter().map(|&m| hold(m)).collect(), paper())
}

/// The symmetric W-star: a root with `n - 1` identical leaves, each
/// write-locking `locks` lock objects in turn. Its group is the full
/// symmetric group on the leaves, so its canonical state count grows
/// polynomially where the plain one grows with `(n - 1)!`: `star(5, 2)` is
/// the named `two_locks`, `star(11, 1)` the named `star_11`, the one-lock
/// stars of 4–8 nodes are the ladder the lib tests pin, and
/// `examples/count_states.rs` tabulates the rest.
pub fn star(n: usize, locks: u32) -> Scenario {
    let leaf: Vec<Op> = (0..locks)
        .flat_map(|lock| [Op::AcquireOn(lock, Mode::Write), Op::ReleaseOn(lock)])
        .collect();
    let mut scripts = vec![leaf; n];
    scripts[0].clear();
    Scenario::star(n, scripts, paper())
}

/// Every named scenario.
pub const NAMED: &[Named] = &[
    Named {
        name: "two_writers",
        about: "two W requests race through a shared parent",
        expected: Expected::Verified,
        heavy: false,
        build: || {
            let scripts = vec![vec![], hold(Mode::Write), hold(Mode::Write)];
            Scenario::star(3, scripts, paper())
        },
    },
    Named {
        name: "readers_writer",
        about: "two readers and a writer on a star",
        expected: Expected::Verified,
        heavy: false,
        build: || {
            let scripts = vec![hold(Mode::Read), hold(Mode::Read), hold(Mode::Write)];
            Scenario::star(3, scripts, paper())
        },
    },
    Named {
        name: "upgrade_race",
        about: "a U→W upgrade racing a reader",
        expected: Expected::Verified,
        heavy: false,
        build: || Scenario::star(3, vec![vec![], upgrade(), hold(Mode::Read)], paper()),
    },
    Named {
        name: "chain_freeze",
        about: "4-node chain: forwarding, freezing, token movement",
        expected: Expected::Verified,
        heavy: false,
        build: || chain(4),
    },
    Named {
        name: "grant_release_race",
        about: "release racing a grant from the moved token (ack counters)",
        expected: Expected::Verified,
        heavy: false,
        build: || {
            let scripts = vec![hold(Mode::IntentRead), upgrade(), hold(Mode::Read)];
            Scenario::star(3, scripts, paper())
        },
    },
    Named {
        name: "deadlock",
        about: "a reader that never releases strands a writer (liveness)",
        expected: Expected::Deadlock,
        heavy: false,
        build: || {
            let scripts = vec![vec![], vec![Op::Acquire(Mode::Read)], hold(Mode::Write)];
            Scenario::star(3, scripts, paper())
        },
    },
    Named {
        name: "seeded_bug",
        about: "test-only stale-release bug: mutual exclusion breaks",
        expected: Expected::Violation,
        heavy: false,
        build: || {
            let scripts = vec![hold(Mode::Read), hold(Mode::IntentRead), upgrade()];
            Scenario::star(3, scripts, paper().with_seeded_stale_release_bug())
        },
    },
    Named {
        name: "two_locks",
        about: "5-node star, 4 symmetric leaves on two lock objects (try --symmetry on)",
        expected: Expected::Verified,
        heavy: true,
        // The full state space is far beyond the gate budget, but the
        // automorphism group has order 4! = 24, so the canonical quotient
        // is gate-sized.
        build: || star(5, 2),
    },
    Named {
        name: "star_11",
        about: "11-node star, 10 symmetric writers: group order 10! (try --symmetry on)",
        expected: Expected::Verified,
        heavy: true,
        build: || star(11, 1),
    },
];

/// The named scenario `name`, if there is one.
pub fn named(name: &str) -> Option<&'static Named> {
    NAMED.iter().find(|n| n.name == name)
}

/// Build the named scenario `name`; panics on an unknown name.
pub fn scenario(name: &str) -> Scenario {
    let named = named(name).unwrap_or_else(|| panic!("no scenario named {name:?}"));
    (named.build)()
}

/// The named scenarios [`differential`] is run on by the gate and the tests:
/// a verified race, a multi-mode race, a liveness failure and a seeded
/// safety violation.
pub const DIFFERENTIAL: [&str; 4] = [
    "two_writers",
    "grant_release_race",
    "deadlock",
    "seeded_bug",
];

/// The serial-vs-parallel differential: explore `scenario` with and without
/// symmetry at one worker and at several, and name every way a parallel
/// report departs from the serial one (empty = none).
///
/// The BFS frontier is a pure implementation detail, so under
/// [`Reduction::Off`] every reported number and every finding — schedules
/// included — must be identical at 2, 4 and 8 workers. The DPOR fork
/// frontier (2 and 4 workers) must reach the same verdict and terminal
/// set; its *visited* count may exceed the sequential run's, because
/// prefix frames use the universal persistent set.
pub fn differential(name: &str, scenario: &Scenario, reduction: Reduction) -> Vec<String> {
    let run = |symmetry, workers| {
        let opts = Options {
            reduction,
            ..Options::exhaustive(1_000_000)
        };
        explore_with(scenario, opts.with_symmetry(symmetry).with_workers(workers))
    };
    let worker_counts: &[usize] = match reduction {
        Reduction::Off => &[2, 4, 8],
        Reduction::On => &[2, 4],
    };
    let verdict = |r: &CheckReport| (r.violations.is_empty(), r.deadlocks.is_empty());
    let mut diffs = Vec::new();
    for symmetry in [false, true] {
        let base = run(symmetry, 1);
        for &workers in worker_counts {
            let par = run(symmetry, workers);
            let mut check = |what: &str, same: bool| {
                if !same {
                    diffs.push(format!(
                        "{name} [{reduction}] sym={symmetry} w={workers}: {what} differs from serial"
                    ));
                }
            };
            check("completion", !base.truncated && !par.truncated);
            check("verdict", verdict(&par) == verdict(&base));
            check(
                "terminal set",
                par.terminal_fingerprints == base.terminal_fingerprints,
            );
            match reduction {
                Reduction::Off => {
                    let counts =
                        |r: &CheckReport| (r.states, r.transitions, r.sym_hits, r.dedup_hits);
                    check(
                        "state / transition / hit counts",
                        counts(&par) == counts(&base),
                    );
                    check(
                        "violations (schedules included)",
                        par.violations == base.violations,
                    );
                    check(
                        "deadlocks (schedules included)",
                        par.deadlocks == base.deadlocks,
                    );
                }
                Reduction::On => check("state count (fewer)", par.states >= base.states),
            }
        }
    }
    diffs
}

/// State budget of the [`acceptance`] run.
pub const ACCEPTANCE_BUDGET: usize = 60_000;

/// The symmetry acceptance run on the heavy named scenario `name`: the plain
/// serial search must overrun [`ACCEPTANCE_BUDGET`], while the canonical
/// quotient must fit it and verify under two workers. Returns the two
/// reports (plain, quotient), or what went wrong.
pub fn acceptance(name: &str) -> Result<(CheckReport, CheckReport), String> {
    let s = scenario(name);
    let opts = Options::exhaustive(ACCEPTANCE_BUDGET);
    let plain = explore_with(&s, opts);
    if !plain.truncated {
        return Err(format!(
            "{name}: plain search finished in {} states — scenario too small to \
             demonstrate reduction",
            plain.states
        ));
    }
    let sym = explore_with(&s, opts.with_symmetry(true).with_workers(2));
    if sym.truncated {
        return Err(format!(
            "{name}: symmetric search still truncated at {} states",
            sym.states
        ));
    }
    if !sym.verified() {
        return Err(format!(
            "{name}: expected verified, got {}",
            Expected::of(&sym)
        ));
    }
    Ok((plain, sym))
}
