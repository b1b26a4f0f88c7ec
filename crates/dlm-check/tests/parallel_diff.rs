//! Differential and symmetry-soundness tests for the parallel,
//! symmetry-reduced exploration engine.
//!
//! Three pillars:
//!
//! 1. **Canonicalization soundness and exactness** (proptest): for random
//!    reachable states `s` and every automorphism σ of the scenario,
//!    `canon(σ(s)) == canon(s)`, relabeling commutes with the transition
//!    function (`σ(apply(s, a)) == apply(σ(s), σ(a))`), and invariant
//!    verdicts are permutation-invariant. The automorphisms are brute-forced
//!    here, and the *definition* of the key — the minimum fingerprint over
//!    the whole orbit ([`reference_key`]) — is the oracle the sorted
//!    canonical form is held to: the two keys must induce the same
//!    partition of states, no coarser (unsound) and no finer (wasteful).
//! 2. **Serial vs parallel differential** (`corpus::differential`, the
//!    function `check gate` runs too): at 2, 4 and 8 workers — with and
//!    without symmetry — the BFS frontier reports the same counts, the same
//!    terminal fingerprint set and the same findings, schedules included,
//!    as the single-threaded search.
//! 3. **Acceptance** (`corpus::acceptance`, likewise shared with the gate):
//!    the 5-node / 2-lock symmetric scenario exceeds the serial state budget
//!    but its canonical quotient (automorphism group of order 4! = 24)
//!    verifies clean under parallel workers.

use dlm_check::corpus::{self, ACCEPTANCE_BUDGET};
use dlm_check::{
    explore_with, replay, Action, Canonicalize, Op, Options, Scenario, State, SymmetryGroup,
};
use dlm_core::{audit, Fingerprint, HierNode, Mode, NodeId, ProtocolConfig};
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};

/// Every automorphism of `scenario`'s labelled initial state, the identity
/// included, by trying all `n!` permutations (`perm[i]` = new label of node
/// `i`): the definition [`SymmetryGroup::of`] computes without enumerating.
fn automorphisms(scenario: &Scenario) -> Vec<Vec<u32>> {
    fn extend(scenario: &Scenario, perm: &mut Vec<u32>, out: &mut Vec<Vec<u32>>) {
        let n = scenario.parents.len();
        if perm.len() == n {
            let fixes_tree = (0..n).all(|i| {
                let mapped = scenario.parents[i].map(|p| perm[p as usize]);
                scenario.parents[perm[i] as usize] == mapped
                    && scenario.scripts[perm[i] as usize] == scenario.scripts[i]
            });
            if fixes_tree {
                out.push(perm.clone());
            }
            return;
        }
        for label in 0..n as u32 {
            if !perm.contains(&label) {
                perm.push(label);
                extend(scenario, perm, out);
                perm.pop();
            }
        }
    }
    assert!(
        scenario.parents.len() <= 8,
        "brute force is for small trees"
    );
    let mut out = Vec::new();
    extend(scenario, &mut Vec::new(), &mut out);
    out
}

/// Relabel every node identity in `state` through `perm` (node `i` becomes
/// node `perm[i]`), materialising the relabelled state. For an automorphism
/// this is a reachable, invariant-equivalent state.
fn permute_state(state: &State, perm: &[u32]) -> State {
    let map = |id: NodeId| NodeId(perm[id.0 as usize]);
    let nodes = state
        .nodes
        .iter()
        .map(|lock_nodes| {
            let mut out = lock_nodes.clone();
            for node in lock_nodes {
                out[perm[node.id().0 as usize] as usize] = node.relabeled(map).into();
            }
            out
        })
        .collect();
    let mut channels = BTreeMap::new();
    for (&(lock, from, to), q) in &state.channels {
        channels.insert(
            (lock, perm[from as usize], perm[to as usize]),
            q.iter()
                .map(|(epoch, m)| (*epoch, m.relabeled(map)))
                .collect(),
        );
    }
    let mut pos = state.pos.clone();
    let mut crashed = state.crashed.clone();
    for i in 0..perm.len() {
        pos[perm[i] as usize] = state.pos[i];
        crashed[perm[i] as usize] = state.crashed[i];
    }
    State {
        nodes,
        channels,
        pos,
        crashed,
    }
}

/// The fingerprint of every member of `state`'s orbit.
fn orbit_fingerprints(state: &State, group: &[Vec<u32>]) -> Vec<Fingerprint> {
    group
        .iter()
        .map(|perm| permute_state(state, perm).fingerprint())
        .collect()
}

/// The key by definition: `min { fp(π(s)) | π ∈ G }` over the fingerprints
/// of the orbit, constant on orbits because `G` is closed under composition
/// and inverse.
fn reference_key(orbit: &[Fingerprint]) -> Fingerprint {
    *orbit.iter().min().expect("the identity is a member")
}

/// The canonical keys of `states` must be the orbit partition, exactly: one
/// key per reference key and one reference key per key, each key the
/// fingerprint of a member of the orbit it names.
fn assert_exact(states: &[State], scenario: &Scenario) -> Result<(), String> {
    let group = SymmetryGroup::of(scenario);
    let members = automorphisms(scenario);
    if group.order() != members.len() {
        return Err(format!(
            "order {} but {} automorphisms",
            group.order(),
            members.len()
        ));
    }
    let (mut key_of, mut orbit_of) = (HashMap::new(), HashMap::new());
    for s in states {
        let orbit = orbit_fingerprints(s, &members);
        let reference = reference_key(&orbit);
        let key = s.canonical_fingerprint(&group);
        if !orbit.contains(&key) {
            return Err(format!("key {key} is no member of its orbit"));
        }
        if *key_of.entry(reference).or_insert(key) != key {
            return Err(format!("finer than the orbits: two keys for {reference}"));
        }
        if *orbit_of.entry(key).or_insert(reference) != reference {
            return Err(format!("coarser than the orbits: {key} names two"));
        }
    }
    Ok(())
}

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
            let script = script_of(ops);
            let mut scripts = vec![Vec::new()];
            for _ in 1..n {
                scripts.push(script.clone());
            }
            Scenario::star(n, scripts, ProtocolConfig::paper())
        })
}

/// A leaf script over two locks from generated `(mode, upgrade, lock)`
/// triples.
fn script_of(ops: Vec<(Mode, bool, u32)>) -> Vec<Op> {
    let mut script = Vec::new();
    for (mode, upgrade, lock) in ops {
        script.push(Op::AcquireOn(lock, mode));
        if mode == Mode::Upgrade && upgrade {
            script.push(Op::UpgradeOn(lock));
        }
        script.push(Op::ReleaseOn(lock));
    }
    script
}

/// The shapes the exactness oracle runs on: symmetric stars of 3–6 nodes
/// (one class of leaves), the 7-node complete binary tree with identical
/// leaf scripts and identical inner scripts (nested classes: sibling leaves
/// swap, and so do the two subtrees), and a chain (the trivial group).
fn shaped_scenario_strategy() -> impl Strategy<Value = Scenario> {
    let ops = || proptest::collection::vec((mode_strategy(), any::<bool>(), 0u32..2), 1..3);
    (0usize..6, ops(), ops(), any::<bool>()).prop_map(|(shape, leaf, inner, inner_runs)| {
        let (leaf, paper) = (script_of(leaf), ProtocolConfig::paper());
        match shape {
            4 => {
                let inner = if inner_runs {
                    script_of(inner)
                } else {
                    Vec::new()
                };
                let mut scripts = vec![Vec::new(), inner.clone(), inner];
                scripts.extend(vec![leaf; 4]);
                Scenario::binary_tree(7, scripts, paper)
            }
            5 => Scenario::chain(4, vec![leaf; 4], paper),
            stars => {
                let n = 3 + stars;
                let mut scripts = vec![leaf; n];
                scripts[0].clear();
                Scenario::star(n, scripts, paper)
            }
        }
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
        for perm in &automorphisms(&scenario) {
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
        let s = random_walk(&scenario, &picks);
        let actions = s.enabled_actions(&scenario);
        // Terminal states have nothing to commute; the property holds vacuously.
        if !actions.is_empty() {
            let action = actions[which % actions.len()];
            let step = s.apply(&scenario, action);
            for perm in &automorphisms(&scenario) {
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
        let s = random_walk(&scenario, &picks);
        let verdict = unsafe_state(&s);
        for perm in &automorphisms(&scenario) {
            prop_assert_eq!(
                unsafe_state(&permute_state(&s, perm)),
                verdict,
                "safety verdict changed under {:?}",
                perm
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(24)))]

    /// Exactness against the definition. From a random reachable state,
    /// gather the states the next few hundred transitions reach (a
    /// neighbourhood full of permuted twins: which idle leaf moves first is
    /// a relabelling) and every image of the first under the group; on all
    /// of them `key(s) == key(t)` **iff** `reference(s) == reference(t)`.
    #[test]
    fn sorted_key_induces_exactly_the_orbit_partition(
        scenario in shaped_scenario_strategy(),
        picks in proptest::collection::vec(0usize..64, 0..14),
    ) {
        let mut states = vec![random_walk(&scenario, &picks)];
        let mut next = 0;
        while states.len() < 200 && next < states.len() {
            for action in states[next].enabled_actions(&scenario) {
                states.push(states[next].apply(&scenario, action).state);
            }
            next += 1;
        }
        for perm in &automorphisms(&scenario) {
            states.push(permute_state(&states[0], perm));
        }
        let exact = assert_exact(&states, &scenario);
        prop_assert!(exact.is_ok(), "{}", exact.unwrap_err());
    }
}

/// The group is never enumerated, so its order must be *computed* right:
/// on every named scenario small enough to brute-force, and on the binary
/// tree whose classes nest, `order()` is the number of automorphisms.
#[test]
fn group_order_is_the_brute_force_count() {
    let paper = ProtocolConfig::paper();
    let leaf = vec![Op::Acquire(Mode::Write), Op::Release];
    let mut tree = vec![Vec::new(); 3];
    tree.extend(vec![leaf; 4]);
    let mut scenarios = vec![("btree-7".to_string(), Scenario::binary_tree(7, tree, paper))];
    for named in corpus::NAMED {
        scenarios.push((named.name.to_string(), (named.build)()));
    }
    for (name, s) in scenarios {
        let group = SymmetryGroup::of(&s);
        let sizes = group.class_sizes();
        let product: usize = sizes.iter().map(|&k| (1..=k).product::<usize>()).product();
        assert_eq!(group.order(), product, "{name}: order vs classes {sizes:?}");
        if s.parents.len() <= 8 {
            assert_eq!(group.order(), automorphisms(&s).len(), "{name}");
        }
    }
    let btree = SymmetryGroup::of(&Scenario::binary_tree(7, vec![Vec::new(); 7], paper));
    assert_eq!((btree.order(), btree.class_sizes()), (8, vec![2, 2, 2]));
    // No cap, and no overflow: 10! on the 11-node star, saturation past
    // what a usize holds (21! does not fit 64 bits).
    let star = |n| Scenario::star(n, vec![Vec::new(); n], paper);
    assert_eq!(SymmetryGroup::of(&star(11)).order(), 3_628_800);
    assert_eq!(SymmetryGroup::of(&star(11)).class_sizes(), [10]);
    assert_eq!(SymmetryGroup::of(&star(40)).order(), usize::MAX);
}

/// Colours cannot tell the nodes of two 3-cycles of parent links from those
/// of one 6-cycle — every node looks the same from everywhere — yet hardly
/// any exchange of two of them is a symmetry of the state. The tie rule must
/// then enumerate the orderings of the tied run and still land on the orbit
/// partition: the two arrangements of two 3-cycles share a key, the 6-cycle
/// has another, and both agree with the definition.
#[test]
fn ties_that_are_no_symmetry_are_enumerated() {
    let scenario = Scenario::star(7, vec![Vec::new(); 7], ProtocolConfig::paper());
    let linked = |parents: [u32; 6]| {
        let mut state = State::initial(&scenario);
        for (leaf, parent) in (1..).zip(parents) {
            state.nodes[0][leaf] =
                HierNode::new(NodeId(leaf as u32), NodeId(parent), scenario.config).into();
        }
        state
    };
    let two_cycles = linked([2, 3, 1, 5, 6, 4]);
    let two_cycles_again = linked([4, 1, 5, 2, 6, 3]);
    let one_cycle = linked([2, 3, 4, 5, 6, 1]);
    let group = SymmetryGroup::of(&scenario);
    let key = |s: &State| s.canonical_fingerprint(&group);
    assert_eq!(key(&two_cycles), key(&two_cycles_again));
    assert_ne!(key(&two_cycles), key(&one_cycle));
    assert_exact(&[two_cycles, two_cycles_again, one_cycle], &scenario).unwrap();
}

/// The parallel level frontier may change nothing a search reports.
#[test]
fn parallel_searches_match_serial() {
    for name in corpus::DIFFERENTIAL {
        let diffs = corpus::differential(name, &corpus::scenario(name));
        assert!(diffs.is_empty(), "{diffs:#?}");
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
/// genuine cross-lock hold-and-wait deadlock, visible at every worker
/// count.
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
        let opts = Options::exhaustive(1_000_000).with_workers(workers);
        let r = explore_with(&unsafe_order, opts);
        assert!(!r.truncated);
        assert!(
            !r.deadlocks.is_empty(),
            "w={workers}: cross-lock deadlock missed"
        );
        assert!(
            r.violations.is_empty(),
            "w={workers}: hold-and-wait is a liveness bug, not safety"
        );
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

    let (plain, sym) = corpus::acceptance("two_locks").expect("acceptance run");
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
