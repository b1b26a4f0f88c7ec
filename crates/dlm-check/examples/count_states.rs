//! Print the exploration statistics quoted in `EXPERIMENTS.md`: the
//! BFS-vs-DPOR table (states, transitions, wall clock per search) and the
//! symmetry-reduction before/after table (nodes × locks × states ×
//! wall-clock × workers) for symmetric star scenarios. Takes minutes: the
//! chain-6 row fires 77 M DPOR transitions and the 6-node star exhausts a
//! 4 M-state budget.
use dlm_check::corpus::{self, chain};
use dlm_check::{explore_with, Options, Scenario};

fn reduction_row(label: &str, s: &Scenario) {
    let budget = 100_000_000;
    let off = explore_with(s, Options::exhaustive(budget));
    let on = explore_with(s, Options::reduced(budget));
    assert!(off.verified() && on.verified(), "{label}");
    assert_eq!(off.terminal_fingerprints, on.terminal_fingerprints);
    println!(
        "| {label:26} | {:9} | {:9} | {:7.3} s | {:9} | {:10} | {:8.3} s | {:5} | {:.1}× |",
        off.states,
        off.transitions,
        off.elapsed_secs,
        on.states,
        on.transitions,
        on.elapsed_secs,
        off.terminals,
        off.states as f64 / on.states as f64,
    );
}

fn symmetry_row(label: &str, s: &Scenario, budget: usize, symmetry: bool, workers: usize) {
    let r = explore_with(
        s,
        Options::exhaustive(budget)
            .with_symmetry(symmetry)
            .with_workers(workers),
    );
    let states = if r.truncated {
        format!(">{} (truncated)", r.states)
    } else {
        r.states.to_string()
    };
    println!(
        "{label:28} sym={} w={workers} group={:7} states={states:20} transitions={:9} verified={} {:.2}s",
        if symmetry { "on " } else { "off" },
        r.group_order,
        r.transitions,
        r.verified(),
        r.elapsed_secs
    );
}

fn main() {
    println!("partial-order reduction (one worker, symmetry off):");
    println!(
        "| scenario | BFS states | BFS trans | BFS wall | DPOR states | DPOR trans | DPOR wall \
         | terminals | state reduction |"
    );
    reduction_row("star-3, two writers", &corpus::scenario("two_writers"));
    reduction_row(
        "star-3, readers + writer",
        &corpus::scenario("readers_writer"),
    );
    reduction_row("star-4, three writers", &corpus::star(4, 1));
    reduction_row("chain-4, IR/IR/W/IR", &chain(4));
    reduction_row("chain-5, IR/IR/W/IR/R", &chain(5));
    reduction_row("chain-6, IR/IR/W/IR/R/IW", &chain(6));

    println!("\nsymmetry reduction (plain BFS vs canonical quotient):");
    let budget = 4_000_000;
    for (nodes, locks) in [(4usize, 1u32), (5, 1), (5, 2), (6, 2), (7, 2), (11, 1)] {
        let s = corpus::star(nodes, locks);
        let label = format!("star n={nodes} locks={locks}");
        // Past six nodes the plain search only burns its budget: 6/2 already
        // truncates at 4 M states, and each node more multiplies the space.
        if nodes <= 6 {
            symmetry_row(&label, &s, budget, false, 1);
        }
        symmetry_row(&label, &s, budget, true, 1);
        symmetry_row(&label, &s, budget, true, 2);
    }
}
