//! `check` — the model-checking CLI.
//!
//! ```text
//! check list                         # named scenarios and their expected outcomes
//! check scenario <name> [options]    # run one named scenario
//! check family [options]             # sweep an auto-enumerated scenario family
//! check gate                         # fast CI gate (seconds, not minutes)
//!
//! options:
//!   --budget N                max distinct states (default 4000000)
//!   --max-states N            alias for --budget
//!   --max-seconds S           wall-clock budget (finite, non-negative float seconds)
//!   --workers N               parallel exploration workers (default 1)
//!   --symmetry on|off         canonicalize states under node relabeling
//!   --stats                   per-run statistics (group order and classes, steals, dedup, sym hits)
//!   --progress                live states-per-second reporting on stderr
//!   --jsonl PATH              write the first counterexample as dlm-trace JSONL
//!   --topology star|chain|btree   (family) initial tree shape
//!   --nodes N                 (family) node count, at least 1
//!   --pairs N                 (family) max acquire/release pairs
//!   --modes IR,R,U,IW,W       (family) acquire-mode alphabet
//! ```
//!
//! Exit status: 0 when every run matches its expected outcome (named
//! scenarios carry one; families and ad-hoc runs expect full verification),
//! 1 when a violation / unexpected outcome was found, 2 on usage errors,
//! and 3 when a state or time budget ran out before the search finished —
//! so callers can tell "provably broken" from "not proven within budget".

use dlm_check::corpus::{self, Expected, NAMED};
use dlm_check::enumerate::{Family, Topology};
use dlm_check::{
    explore_with, replay, schedule_trace, walkthrough, CheckReport, Options, Scenario, Schedule,
    SymmetryGroup,
};
use dlm_core::{Mode, ProtocolConfig};

const EXIT_OK: i32 = 0;
const EXIT_FAIL: i32 = 1;
const EXIT_USAGE: i32 = 2;
const EXIT_BUDGET: i32 = 3;

struct Cli {
    budget: usize,
    max_seconds: Option<f64>,
    workers: usize,
    symmetry: bool,
    stats: bool,
    progress: bool,
    jsonl: Option<String>,
    topology: Topology,
    nodes: usize,
    pairs: usize,
    modes: Vec<Mode>,
    rest: Vec<String>,
}

impl Default for Cli {
    fn default() -> Self {
        Cli {
            budget: 4_000_000,
            max_seconds: None,
            workers: 1,
            symmetry: false,
            stats: false,
            progress: false,
            jsonl: None,
            topology: Topology::Star,
            nodes: 3,
            pairs: 2,
            modes: vec![
                Mode::IntentRead,
                Mode::Read,
                Mode::Upgrade,
                Mode::IntentWrite,
                Mode::Write,
            ],
            rest: Vec::new(),
        }
    }
}

fn usage() -> ! {
    eprintln!("{}", include_usage());
    std::process::exit(EXIT_USAGE);
}

fn include_usage() -> &'static str {
    "usage: check list
       check scenario <name> [--budget N] [--max-seconds S] [--workers N]
                      [--symmetry on|off] [--stats] [--progress] [--jsonl PATH]
       check family [--topology star|chain|btree] [--nodes N] [--pairs N] \
[--modes IR,R,..] [--budget N] [--workers N] [--symmetry on|off]
       check gate
exit codes: 0 ok, 1 violation/unexpected outcome, 2 usage, 3 budget exhausted"
}

fn parse_on_off(flag: &str, v: &str) -> bool {
    match v {
        "on" => true,
        "off" => false,
        other => {
            eprintln!("{flag} takes on|off, got {other:?}");
            usage()
        }
    }
}

fn parse_cli(args: &[String]) -> Cli {
    let mut cli = Cli::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| -> String {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("missing value for {flag}");
                usage()
            })
        };
        match a.as_str() {
            "--budget" | "--max-states" => {
                cli.budget = value(a).parse().unwrap_or_else(|_| {
                    eprintln!("{a} takes a number");
                    usage()
                })
            }
            "--max-seconds" => {
                let seconds: f64 = value("--max-seconds").parse().unwrap_or_else(|_| {
                    eprintln!("--max-seconds takes a number of seconds");
                    usage()
                });
                if !(seconds.is_finite() && seconds >= 0.0) {
                    eprintln!("--max-seconds must be a finite, non-negative number of seconds");
                    usage()
                }
                cli.max_seconds = Some(seconds);
            }
            "--workers" => {
                cli.workers = value("--workers").parse().unwrap_or_else(|_| {
                    eprintln!("--workers takes a number");
                    usage()
                });
                if cli.workers == 0 {
                    eprintln!("--workers must be at least 1");
                    usage()
                }
            }
            "--symmetry" => cli.symmetry = parse_on_off("--symmetry", &value("--symmetry")),
            "--stats" => cli.stats = true,
            "--progress" => cli.progress = true,
            "--jsonl" => cli.jsonl = Some(value("--jsonl")),
            "--topology" => {
                let v = value("--topology");
                cli.topology = Topology::parse(&v).unwrap_or_else(|| {
                    eprintln!("unknown topology {v:?}");
                    usage()
                })
            }
            "--nodes" => {
                cli.nodes = value("--nodes").parse().unwrap_or_else(|_| {
                    eprintln!("--nodes takes a number");
                    usage()
                });
                if cli.nodes == 0 {
                    eprintln!("--nodes must be at least 1");
                    usage()
                }
            }
            "--pairs" => {
                cli.pairs = value("--pairs").parse().unwrap_or_else(|_| {
                    eprintln!("--pairs takes a number");
                    usage()
                })
            }
            "--modes" => {
                let v = value("--modes");
                cli.modes = v
                    .split(',')
                    .map(|m| {
                        Mode::from_short_name(m.trim()).unwrap_or_else(|| {
                            eprintln!("unknown mode {m:?}");
                            usage()
                        })
                    })
                    .collect();
            }
            _ if a.starts_with("--") => {
                eprintln!("unknown flag {a:?}");
                usage()
            }
            _ => cli.rest.push(a.clone()),
        }
    }
    cli
}

fn options(cli: &Cli) -> Options {
    let mut opts = Options::exhaustive(cli.budget)
        .with_workers(cli.workers)
        .with_symmetry(cli.symmetry)
        .with_progress(cli.progress);
    if let Some(s) = cli.max_seconds {
        opts = opts.with_max_seconds(s);
    }
    opts
}

/// One run's numbers; `classes` (the sizes of the symmetry group's classes of
/// interchangeable siblings, whose factorials multiply to its order) asks
/// for the detailed line.
fn print_stats(r: &CheckReport, classes: Option<&[usize]>) {
    println!(
        "  states={} transitions={} terminals={} violations={} deadlocks={}{}",
        r.states,
        r.transitions,
        r.terminals,
        r.violations.len(),
        r.deadlocks.len(),
        if r.truncated { " (TRUNCATED)" } else { "" },
    );
    if let Some(classes) = classes {
        let rate = if r.elapsed_secs > 0.0 {
            r.states as f64 / r.elapsed_secs
        } else {
            0.0
        };
        println!(
            "  workers={} group_order={} classes={classes:?} sym_hits={} dedup_hits={} \
             steals={} dedup_ratio={:.3} elapsed={:.3}s ({:.0} states/s)",
            r.workers,
            r.group_order,
            r.sym_hits,
            r.dedup_hits,
            r.steals,
            r.dedup_ratio(),
            r.elapsed_secs,
            rate,
        );
    }
}

/// The first counterexample schedule a report carries, if any.
fn first_schedule(r: &CheckReport) -> Option<(&'static str, &Schedule)> {
    if let Some(v) = r.violations.first() {
        Some(("violation", &v.schedule))
    } else {
        r.deadlocks.first().map(|d| ("deadlock", &d.schedule))
    }
}

fn show_counterexample(s: &Scenario, r: &CheckReport, jsonl: Option<&str>) -> bool {
    let Some((kind, schedule)) = first_schedule(r) else {
        return true;
    };
    println!(
        "  minimal replayable {kind} schedule ({} steps):",
        schedule.0.len()
    );
    println!("    {schedule}");
    println!("  walkthrough:");
    for line in walkthrough(s, schedule).lines() {
        println!("    {line}");
    }
    let replayed = replay(s, schedule);
    for e in replayed.errors() {
        println!("  reproduced: {e}");
    }
    if let Some(path) = jsonl {
        let records = schedule_trace(s, schedule);
        match std::fs::File::create(path) {
            Ok(f) => match dlm_trace::jsonl::write_jsonl(f, &records) {
                Ok(()) => println!("  wrote {} trace records to {path}", records.len()),
                Err(e) => {
                    eprintln!("  failed to write {path}: {e}");
                    return false;
                }
            },
            Err(e) => {
                eprintln!("  failed to create {path}: {e}");
                return false;
            }
        }
    }
    true
}

fn cmd_list() -> i32 {
    println!("named scenarios (check scenario <name>):");
    for n in NAMED {
        println!(
            "  {:20} expect {:9} — {}",
            n.name,
            n.expected.to_string(),
            n.about
        );
    }
    EXIT_OK
}

fn cmd_scenario(cli: &Cli) -> i32 {
    let Some(name) = cli.rest.first() else {
        eprintln!("check scenario: which one? (see `check list`)");
        return EXIT_USAGE;
    };
    let Some(named) = corpus::named(name) else {
        eprintln!("unknown scenario {name:?} (see `check list`)");
        return EXIT_USAGE;
    };
    let s = (named.build)();
    println!(
        "scenario {} — {} (expect {})",
        named.name, named.about, named.expected
    );
    let r = explore_with(&s, options(cli));
    let classes = cli.stats.then(|| match cli.symmetry {
        true => SymmetryGroup::of(&s).class_sizes(),
        false => Vec::new(),
    });
    print_stats(&r, classes.as_deref());
    let mut ok = true;
    if r.truncated {
        println!(
            "  budget exhausted at {} states ({:.1}s); raise --budget / --max-seconds",
            r.states, r.elapsed_secs
        );
    } else if Expected::of(&r) != named.expected {
        println!("  !! expected {}, got {}", named.expected, Expected::of(&r));
        ok = false;
    }
    ok &= show_counterexample(&s, &r, cli.jsonl.as_deref());
    if !ok {
        println!("FAILED");
        EXIT_FAIL
    } else if r.truncated {
        println!("BUDGET EXHAUSTED");
        EXIT_BUDGET
    } else {
        println!("OK");
        EXIT_OK
    }
}

fn cmd_family(cli: &Cli) -> i32 {
    let fam = Family {
        topology: cli.topology,
        nodes: cli.nodes,
        modes: cli.modes.clone(),
        pairs: cli.pairs,
        config: ProtocolConfig::paper(),
    };
    let scenarios = fam.scenarios();
    println!(
        "family {} n={} pairs<={} modes=[{}]: {} scenarios after symmetry dedup",
        fam.topology,
        fam.nodes,
        fam.pairs,
        fam.modes
            .iter()
            .map(|m| m.short_name())
            .collect::<Vec<_>>()
            .join(","),
        scenarios.len()
    );
    let mut states = 0usize;
    let mut transitions = 0usize;
    let mut terminals = 0usize;
    let mut truncated = 0usize;
    let mut failed = 0usize;
    for (i, s) in scenarios.iter().enumerate() {
        let r = explore_with(s, options(cli));
        states += r.states;
        transitions += r.transitions;
        terminals += r.terminals;
        if r.truncated {
            truncated += 1;
            continue;
        }
        if Expected::of(&r) != Expected::Verified {
            failed += 1;
            println!("scenario #{i}: {}", Expected::of(&r));
            for (node, script) in s.scripts.iter().enumerate() {
                let ops: Vec<String> = script.iter().map(|o| o.to_string()).collect();
                println!("  n{node}: [{}]", ops.join(", "));
            }
            show_counterexample(s, &r, None);
        }
    }
    println!(
        "swept {} scenarios: {} states, {} transitions, {} terminals; \
         {} truncated, {} failed",
        scenarios.len(),
        states,
        transitions,
        terminals,
        truncated,
        failed
    );
    if failed > 0 {
        println!("FAILED");
        EXIT_FAIL
    } else if truncated > 0 {
        println!("BUDGET EXHAUSTED");
        EXIT_BUDGET
    } else {
        println!("OK");
        EXIT_OK
    }
}

/// Differential gate: the parallel BFS frontier must agree with the serial
/// one at every worker count, with and without symmetry reduction
/// ([`corpus::differential`] holds the comparisons).
fn gate_differential() -> i32 {
    let mut status = EXIT_OK;
    for name in corpus::DIFFERENTIAL {
        let diffs = corpus::differential(name, &corpus::scenario(name));
        for diff in &diffs {
            println!("gate: {diff}");
        }
        let verdict = if diffs.is_empty() {
            "ok"
        } else {
            status = EXIT_FAIL;
            "FAILED"
        };
        println!("gate: differential {name:20} {verdict}");
    }
    status
}

/// Acceptance gate: the heavy scenarios are out of reach for the plain serial
/// search at the gate budget, but their canonical quotients (group orders 4!
/// and 10!) check clean under parallel workers. `star_11` has more nodes than
/// a group that had to be enumerated could serve, so a cap on the symmetry
/// group fails here.
fn gate_acceptance() -> i32 {
    let mut status = EXIT_OK;
    for n in NAMED.iter().filter(|n| n.heavy) {
        match corpus::acceptance(n.name) {
            Ok((plain, sym)) => println!(
                "gate: acceptance {:12} ok (plain truncated at {}, canonical quotient {} \
                 states, group order {}, {:.1}s)",
                n.name, plain.states, sym.states, sym.group_order, sym.elapsed_secs
            ),
            Err(why) => {
                println!("gate: {why}");
                status = EXIT_FAIL;
            }
        }
    }
    status
}

/// The CI gate: every named scenario, a small star family sweep, the
/// serial-vs-parallel differential, and the symmetry acceptance scenario.
/// Budgets are sized to finish in seconds.
fn cmd_gate() -> i32 {
    let mut status = EXIT_OK;
    for n in NAMED.iter().filter(|n| !n.heavy) {
        let r = explore_with(&(n.build)(), Options::exhaustive(1_000_000));
        let ok = !r.truncated && Expected::of(&r) == n.expected;
        if !ok {
            println!(
                "gate: {}: expected {}, got {}",
                n.name,
                n.expected,
                Expected::of(&r)
            );
            status = EXIT_FAIL;
        }
        println!("gate: {:20} {}", n.name, if ok { "ok" } else { "FAILED" });
    }
    let fam_cli = Cli {
        budget: 200_000,
        ..Cli::default()
    };
    if cmd_family(&fam_cli) != EXIT_OK {
        status = EXIT_FAIL;
    }
    if gate_differential() != EXIT_OK {
        status = EXIT_FAIL;
    }
    if gate_acceptance() != EXIT_OK {
        status = EXIT_FAIL;
    }
    if status == EXIT_OK {
        println!("gate: OK");
    } else {
        println!("gate: FAILED");
    }
    status
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { usage() };
    let cli = parse_cli(&args[1..]);
    let status = match cmd.as_str() {
        "list" => cmd_list(),
        "scenario" => cmd_scenario(&cli),
        "family" => cmd_family(&cli),
        "gate" => cmd_gate(),
        _ => {
            eprintln!("unknown command {cmd:?}");
            usage()
        }
    };
    std::process::exit(status);
}
