//! `check_explore`: the model checker on the 5-node star with two locks.
//! Every leaf runs `Acquire(W), Release, AcquireOn(1, W), ReleaseOn(1)`;
//! the search is exhaustive breadth-first under symmetry reduction on one
//! worker. One repetition explores the same 4519 canonical states every
//! time; repetitions fill the timed phase.

use super::{Params, Round};
use crate::env;
use crate::span::Tracer;
use crate::stats;
use dlm_check::{explore_with, CheckReport, Op, Options, Scenario, SymmetryGroup};
use dlm_core::{Mode, ProtocolConfig};
use std::time::Instant;

/// Nodes of the star (root plus four symmetric leaves).
pub const NODES: usize = 5;
/// Canonical states of the scenario: the golden a correct checker reaches.
pub const GOLDEN_STATES: usize = 4519;
/// State budget: far above the golden, so hitting it is itself a failure.
const MAX_STATES: usize = 200_000;

/// The explored scenario.
pub fn scenario() -> Scenario {
    let leaf = vec![
        Op::Acquire(Mode::Write),
        Op::Release,
        Op::AcquireOn(1, Mode::Write),
        Op::ReleaseOn(1),
    ];
    let mut scripts = vec![Vec::new()];
    scripts.extend((1..NODES).map(|_| leaf.clone()));
    Scenario::star(NODES, scripts, ProtocolConfig::paper()).with_locks(2)
}

/// The search configuration: serial, exhaustive, symmetric.
pub fn options(workers: usize) -> Options {
    Options::exhaustive(MAX_STATES)
        .with_symmetry(true)
        .with_workers(workers)
}

/// Gate one repetition's report against the golden.
pub fn gate(round: &mut Round, report: &CheckReport) -> bool {
    let ok = report.states == GOLDEN_STATES && report.verified() && !report.truncated;
    round.check(ok, || {
        format!(
            "explored {} states (golden {GOLDEN_STATES}), verified {}, truncated {}",
            report.states,
            report.verified(),
            report.truncated
        )
    });
    ok
}

/// One round: build the scenario and its symmetry group, one warm-up
/// exploration, then repetitions until the timed phase is over.
pub fn round(p: &Params, tracer: &mut Tracer) -> Round {
    let round_start = Instant::now();
    let scenario = scenario();
    let group = SymmetryGroup::of(&scenario);
    let mut round = Round::default();
    let warm = tracer.time("check.explore_with.warmup", None, || {
        explore_with(&scenario, options(1))
    });
    gate(&mut round, &warm);
    round.setup_s = round_start.elapsed().as_secs_f64();

    let cpu0 = env::cpu_us();
    let ctx0 = env::ctx_switches_all_threads();
    let timed = Instant::now();
    let deadline = timed + p.timed();
    let mut states_per_s = Vec::new();
    let mut transitions_per_s = Vec::new();
    let mut last = warm;
    while Instant::now() < deadline || round.attempted == 0 {
        let rep = Instant::now();
        let report = tracer.time("check.explore_with", None, || {
            explore_with(&scenario, options(1))
        });
        let secs = rep.elapsed().as_secs_f64();
        round.attempted += 1;
        if !gate(&mut round, &report) {
            round.failed += 1;
        }
        states_per_s.push(report.states as f64 / secs);
        transitions_per_s.push(report.transitions as f64 / secs);
        last = report;
    }
    let reps = round.attempted as f64;
    let cpu_us = env::cpu_us() - cpu0;
    let ctx = env::ctx_switches_all_threads() - ctx0;

    round.set(
        "states_per_s",
        stats::median(&states_per_s).expect("at least one repetition"),
    );
    // An operation of this workload is one transition fired by the search.
    round.set(
        "ops_per_s",
        stats::median(&transitions_per_s).expect("at least one repetition"),
    );

    if p.traced {
        round.set("check.group_order", group.order() as f64);
        round.set("check.states", last.states as f64);
        round.set("check.transitions", last.transitions as f64);
        round.set(
            "process.cpu_us_per_op",
            cpu_us as f64 / (reps * last.transitions as f64),
        );
        round.set(
            "process.ctx_switches_per_op",
            ctx as f64 / (reps * last.transitions as f64),
        );
    }
    if p.probes {
        let w2 = tracer.time("check.explore_with.w2", None, || {
            let t = Instant::now();
            let report = explore_with(&scenario, options(2));
            (report, t.elapsed().as_secs_f64())
        });
        gate(&mut round, &w2.0);
        round.set("check.w2_states_per_s", w2.0.states as f64 / w2.1);
        crate::probes::check_layers(&mut round, &scenario, &group);
    }
    round
}
