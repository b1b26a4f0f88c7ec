//! Print the exploration statistics quoted in `EXPERIMENTS.md`: the
//! breadth-first search's states, transitions and wall clock on the
//! forwarding-heavy scenarios, and the symmetry-reduction before/after table
//! (nodes × locks × states × wall-clock × workers) for symmetric star
//! scenarios. Takes about a minute: the chain-6 row explores 1.1 M states and
//! the 6-node star exhausts a 4 M-state budget.
use dlm_check::corpus::{self, chain};
use dlm_check::{explore_with, Options, Scenario};

fn search_row(label: &str, s: &Scenario) {
    let r = explore_with(s, Options::exhaustive(100_000_000));
    assert!(r.verified(), "{label}");
    println!(
        "| {label:26} | {:9} | {:9} | {:5} | {:7.3} s |",
        r.states, r.transitions, r.terminals, r.elapsed_secs,
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
    println!("breadth-first search (one worker, symmetry off):");
    println!("| scenario | states | transitions | terminals | wall |");
    search_row("star-3, two writers", &corpus::scenario("two_writers"));
    search_row(
        "star-3, readers + writer",
        &corpus::scenario("readers_writer"),
    );
    search_row("star-4, three writers", &corpus::star(4, 1));
    search_row("chain-4, IR/IR/W/IR", &chain(4));
    search_row("chain-5, IR/IR/W/IR/R", &chain(5));
    search_row("chain-6, IR/IR/W/IR/R/IW", &chain(6));

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
