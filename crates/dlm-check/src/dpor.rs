//! Dynamic partial-order reduction (Flanagan–Godefroid backtrack sets plus
//! Godefroid sleep sets), with happens-before interval detection restoring
//! full mutual-exclusion soundness.
//!
//! # Why reduction is possible
//!
//! Every transition of the explored system executes at exactly one node: a
//! delivery pops one channel head and runs `on_message_into` at the receiver; a
//! script step runs one entry point at its node. Sends only *append* to
//! channel tails, and a FIFO pop-head commutes with an append-tail, so two
//! transitions at **distinct nodes commute** — executing them in either
//! order from any state where both are enabled reaches the same state.
//! Exploring both orders (as the exhaustive search does) is redundant.
//!
//! The *processes* of the reduction are the ordered per-lock channels
//! `Chan(ℓ, x→y)` (whose transitions are that channel's deliveries,
//! executing at `y`) and the per-node scripts `Scr(i)`; each process has at
//! most one enabled transition per state. Two transitions are **dependent**
//! iff they execute at the same node (conservative across locks: same-node
//! transitions on different locks touch disjoint protocol state, but
//! keeping the relation node-keyed is sound and keeps the script cursor —
//! which cross-lock script ops share — trivially ordered); send→delivery
//! causality is captured separately by stamping each message with the
//! vector clock of its sending transition.
//!
//! # What the reduction preserves, and how
//!
//! A Mazurkiewicz trace (an equivalence class of executions under swaps of
//! adjacent independent transitions) has a linearization-invariant final
//! state and linearization-invariant per-node projections. Exploring at
//! least one linearization per trace therefore preserves *exactly*:
//!
//! * the set of terminal states — so the quiescent audit, freeze
//!   convergence and deadlock detection are as strong as the exhaustive
//!   search (the equivalence property tests assert bit-identical terminal
//!   fingerprint sets);
//! * every node-local check — the FIFO grant-order shield is a function of
//!   the executing node's pre-state, which is trace-invariant.
//!
//! What a single linearization does **not** preserve is visibility of
//! *global intermediate* states: if node 1's release and node 2's grant are
//! causally unordered, one linearization shows the two critical sections
//! overlapping and another does not — and both are in the same trace class.
//! An interleaving-state audit alone would therefore miss mutual-exclusion
//! violations under reduction. The checker closes this gap structurally:
//! it tracks every critical section (a node's held-mode interval on one
//! lock) with the vector clocks of its opening and closing transitions, and
//! at the end of each explored path tests every incompatible same-lock pair
//! of sections at distinct nodes for happens-before order. If neither
//! section's close happens before the other's open, some linearization of
//! the trace puts both holders in one state — the standard predictive-race
//! argument — and the checker *synthesizes* that linearization (the causal
//! past of both opens, in stack order, then the two opens) as a replayable
//! witness schedule whose final state genuinely fails the safety audit.
//! Reduced runs thus detect every mutual-exclusion violation the exhaustive
//! search can, even on interleavings they never walk.
//!
//! # The algorithm
//!
//! Depth-first search over transition sequences. At each prefix, every
//! process's next transition `t` is compared (via vector clocks) against
//! the executed stack: the latest executed transition `S_i` that is
//! dependent with `t` but not happens-before it marks a state where the
//! exploration must also try `t`-first — a *backtrack point* (Flanagan–
//! Godefroid's `E`-rule picks which process to schedule there). Sleep sets
//! prune the redundant re-exploration of commuting siblings: after a
//! process is explored from a state, it is put to sleep for the sibling
//! branches and stays asleep in descendants until a dependent transition
//! executes. The search is stateless (no pruning on revisited states —
//! caching is unsound combined with backtrack sets), so it counts
//! *distinct* states and *transitions* separately.
//!
//! # Parallelism: fork-frontier
//!
//! With `Options::workers > 1` the search runs in two phases. A sequential
//! **builder** explores the first [`FORK_DEPTH`] levels with a *universal*
//! persistent set — every awake enabled transition is taken, not just the
//! backtrack set. Universality is what makes the cut sound: any backtrack
//! point a deeper exploration would insert into a frozen prefix frame is
//! already satisfied, because everything awake there is explored by some
//! job (and sleeping processes are covered by the sibling branch that put
//! them to sleep, exactly as in the sequential algorithm). Each depth-K
//! prefix becomes a **job**: the action sequence plus the entry sleep set,
//! carried as process *keys* (lock/channel/node tuples) rather than ids,
//! since each worker interns process ids in its own encounter order.
//! Workers draw jobs from a shared pool, replay the prefix with full
//! vector-clock and critical-section bookkeeping, and run the unmodified
//! sequential `visit` on the suffix. Distinct-state counts, violation
//! dedup and terminal sets live in lock-striped shared sets, so the
//! reported verdict and terminal fingerprints are identical to the
//! sequential run; with one worker the pool degenerates to the exact
//! sequential algorithm.
//!
//! # Symmetry
//!
//! With `Options::symmetry`, the distinct-state, violation-dedup and
//! terminal sets are keyed by canonical fingerprints ([`crate::canon`]).
//! The DFS itself is stateless, so canonical keying never prunes paths —
//! it only merges permutation-twin states in the *counts and verdict
//! sets*, making them comparable with the symmetry-reduced BFS.

use crate::canon::{Canonicalize, SymmetryGroup};
use crate::counterexample::Schedule;
use crate::explore::{
    audit_state, frozen_residue_state, waiting_nodes, CheckReport, Deadlock, Options, Reduction,
    Violation,
};
use crate::scenario::Scenario;
use crate::state::{Action, State};
use dlm_core::{Effect, Fingerprint, Mode};
use dlm_modes::compatible;
use std::collections::{BTreeMap, BTreeSet, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Interned vector clocks (indexed by process id, values are 1-based
/// positions in the executed stack).
struct Clocks {
    arena: Vec<Vec<u32>>,
}

type ClockId = u32;
const ZERO: ClockId = 0;

impl Clocks {
    fn new() -> Self {
        Clocks {
            arena: vec![Vec::new()],
        }
    }

    fn get(&self, id: ClockId, proc_id: usize) -> u32 {
        self.arena[id as usize].get(proc_id).copied().unwrap_or(0)
    }

    fn join(&mut self, a: ClockId, b: ClockId) -> ClockId {
        if a == b || b == ZERO {
            return a;
        }
        if a == ZERO {
            return b;
        }
        let (va, vb) = (&self.arena[a as usize], &self.arena[b as usize]);
        let mut out = vec![0u32; va.len().max(vb.len())];
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = va
                .get(i)
                .copied()
                .unwrap_or(0)
                .max(vb.get(i).copied().unwrap_or(0));
        }
        self.alloc(out)
    }

    /// `base` with `clock[proc_id] = index` (a transition's own clock).
    fn with(&mut self, base: ClockId, proc_id: usize, index: u32) -> ClockId {
        let mut v = self.arena[base as usize].clone();
        if v.len() <= proc_id {
            v.resize(proc_id + 1, 0);
        }
        v[proc_id] = v[proc_id].max(index);
        self.alloc(v)
    }

    fn alloc(&mut self, v: Vec<u32>) -> ClockId {
        self.arena.push(v);
        (self.arena.len() - 1) as ClockId
    }
}

/// Message clocks mirror `State::channels` exactly: one send-clock per
/// in-flight message, keyed `(lock, from, to)`.
type MsgClocks = BTreeMap<(u32, u32, u32), VecDeque<ClockId>>;

/// Worker-independent process identity: `(kind, lock, a, b)` with
/// `Scr(node) = (0, 0, node, 0)` and `Chan(lock, from→to) = (1, lock, from,
/// to)`. Jobs carry sleep sets as keys because interned ids depend on each
/// worker's encounter order.
type ProcKey = (u8, u32, u32, u32);

fn proc_key(action: Action) -> ProcKey {
    match action {
        Action::Script { node } => (0, 0, node, 0),
        Action::Deliver { lock, from, to } => (1, lock, from, to),
    }
}

fn key_node(key: ProcKey) -> u32 {
    match key.0 {
        0 => key.2,
        _ => key.3,
    }
}

/// One executed transition on the current DFS path.
struct Exec {
    action: Action,
    proc_id: usize,
}

/// A critical section on the current DFS path: one contiguous held-mode
/// interval at one node on one lock, bracketed by the vector clocks of the
/// transitions that opened and (if closed) closed it.
struct Section {
    lock: u32,
    node: u32,
    mode: Mode,
    /// 0-based stack position and clock of the opening transition.
    start: (usize, ClockId),
    /// Same for the closing transition; `None` while still held.
    end: Option<(usize, ClockId)>,
}

/// Per-prefix exploration frame.
struct Frame {
    enabled: Vec<Action>,
    procs: Vec<usize>,
    backtrack: BTreeSet<usize>,
    done: BTreeSet<usize>,
    /// Entry sleep set plus the procs already explored from this frame.
    sleep: BTreeSet<usize>,
}

/// A unit of parallel work: a depth-[`FORK_DEPTH`] prefix plus the sleep
/// set the sequential search would enter it with.
struct Job {
    prefix: Vec<Action>,
    sleep: Vec<ProcKey>,
}

/// Builder cut depth. Shallow enough that the universal prefix adds little
/// over the reduced search, deep enough to yield many more jobs than
/// workers (branching ≥ 2 per level in any contended scenario).
const FORK_DEPTH: usize = 3;

/// Number of stripes in the shared seen/flagged sets.
const STRIPES: usize = 16;

/// Verdict accumulators shared by every worker.
struct Results {
    violations: Vec<Violation>,
    deadlocks: Vec<Deadlock>,
    terminal_fps: BTreeSet<Fingerprint>,
    terminals: usize,
}

/// Exploration state shared across workers (and used single-threaded by the
/// sequential path, so both paths run literally the same code).
struct Shared<'a> {
    scenario: &'a Scenario,
    opts: Options,
    group: SymmetryGroup,
    symmetry: bool,
    seen: Vec<Mutex<HashSet<u128>>>,
    flagged: Vec<Mutex<HashSet<u128>>>,
    states: AtomicUsize,
    transitions: AtomicUsize,
    sym_hits: AtomicU64,
    dedup_hits: AtomicU64,
    truncated: AtomicBool,
    aborted: AtomicBool,
    results: Mutex<Results>,
    jobs: Mutex<VecDeque<Job>>,
}

enum Note {
    /// Newly counted distinct state.
    New,
    /// Already counted.
    Known,
    /// New, but over the state budget: abort.
    OverBudget,
}

impl Shared<'_> {
    /// The fingerprint key for the shared sets: canonical under symmetry.
    fn canon(&self, state: &State) -> Fingerprint {
        if self.symmetry {
            let raw = state.fingerprint();
            let canon = state.canonical_fingerprint(&self.group);
            if canon != raw {
                self.sym_hits.fetch_add(1, Ordering::Relaxed);
            }
            canon
        } else {
            state.fingerprint()
        }
    }

    fn stripe(set: &[Mutex<HashSet<u128>>], fp: Fingerprint) -> &Mutex<HashSet<u128>> {
        &set[(fp.0 as usize) & (STRIPES - 1)]
    }

    /// Count `fp` as a distinct state (idempotent), enforcing the budget.
    fn note_state(&self, fp: Fingerprint) -> Note {
        let newly = Shared::stripe(&self.seen, fp)
            .lock()
            .expect("seen stripe poisoned")
            .insert(fp.0);
        if !newly {
            self.dedup_hits.fetch_add(1, Ordering::Relaxed);
            return Note::Known;
        }
        if self
            .states
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |c| {
                (c < self.opts.max_states).then_some(c + 1)
            })
            .is_err()
        {
            self.truncated.store(true, Ordering::SeqCst);
            self.aborted.store(true, Ordering::SeqCst);
            return Note::OverBudget;
        }
        Note::New
    }

    /// Dedup violating states; true if `fp` was not yet flagged.
    fn flag(&self, fp: Fingerprint) -> bool {
        Shared::stripe(&self.flagged, fp)
            .lock()
            .expect("flagged stripe poisoned")
            .insert(fp.0)
    }

    fn violations_full(&self) -> bool {
        self.results
            .lock()
            .expect("results poisoned")
            .violations
            .len()
            >= CheckReport::MAX_RECORDED
    }

    fn record_violation(&self, errors: Vec<dlm_core::AuditError>, schedule: Schedule) {
        let mut results = self.results.lock().expect("results poisoned");
        if results.violations.len() < CheckReport::MAX_RECORDED {
            results.violations.push(Violation { errors, schedule });
        }
    }

    /// Classify a terminal state (dedup by fingerprint) — the DPOR analogue
    /// of the BFS level-barrier terminal handling.
    fn record_terminal(&self, state: &State, fp: Fingerprint, schedule: impl FnOnce() -> Schedule) {
        let mut results = self.results.lock().expect("results poisoned");
        if !results.terminal_fps.insert(fp) {
            return;
        }
        results.terminals += 1;
        let stuck_scripts: Vec<usize> = (0..state.pos.len())
            .filter(|&i| state.pos[i] < self.scenario.scripts[i].len() && !state.crashed[i])
            .collect();
        let waiting = waiting_nodes(state);
        if !stuck_scripts.is_empty() || !waiting.is_empty() {
            if results.deadlocks.len() < CheckReport::MAX_RECORDED {
                results.deadlocks.push(Deadlock {
                    stuck_scripts,
                    waiting,
                    schedule: schedule(),
                });
            }
            return;
        }
        // A clean terminal: full quiescent audit, plus freeze convergence —
        // every path ends in a terminal, so a frozen node here is a frozen
        // node from which no thaw is reachable.
        let mut errors = audit_state(state, true);
        errors.extend(frozen_residue_state(state));
        if !errors.is_empty() && results.violations.len() < CheckReport::MAX_RECORDED {
            results.violations.push(Violation {
                errors,
                schedule: schedule(),
            });
        }
    }

    fn transition_budget_left(&self) -> bool {
        self.transitions.load(Ordering::Relaxed) < self.opts.transition_budget()
    }

    fn over_time(&self, start: &Instant) -> bool {
        match self.opts.max_seconds {
            Some(limit) => start.elapsed().as_secs_f64() >= limit,
            None => false,
        }
    }
}

struct Explorer<'a, 'b> {
    shared: &'b Shared<'a>,
    clocks: Clocks,
    proc_ids: BTreeMap<ProcKey, usize>,
    proc_keys: Vec<ProcKey>,
    /// The (static) executing node of each process.
    proc_node: Vec<u32>,
    proc_clock: Vec<ClockId>,
    node_clock: Vec<ClockId>,
    stack: Vec<Exec>,
    frames: Vec<Frame>,
    sections: Vec<Section>,
    /// Index into `sections` of each `(lock, node)`'s currently open
    /// section, flattened as `lock * n + node`.
    open: Vec<Option<usize>>,
    /// `Some(k)`: builder mode — cut at depth `k`, emit jobs, branch
    /// universally above the cut.
    fork_depth: Option<usize>,
    jobs_out: Vec<Job>,
    start: Instant,
}

/// Run the reduced exploration.
pub(crate) fn run(scenario: &Scenario, opts: Options) -> CheckReport {
    let start = Instant::now();
    let workers = opts.workers.max(1);
    let group = if opts.symmetry {
        SymmetryGroup::of(scenario)
    } else {
        SymmetryGroup::trivial()
    };
    let symmetry = opts.symmetry && !group.is_trivial();

    let mut report = CheckReport::new(Reduction::On);
    report.workers = workers;
    report.group_order = group.order();
    if opts.max_states == 0 {
        report.truncated = true;
        report.elapsed_secs = start.elapsed().as_secs_f64();
        return report;
    }

    let shared = Shared {
        scenario,
        opts,
        group,
        symmetry,
        seen: (0..STRIPES).map(|_| Mutex::new(HashSet::new())).collect(),
        flagged: (0..STRIPES).map(|_| Mutex::new(HashSet::new())).collect(),
        states: AtomicUsize::new(0),
        transitions: AtomicUsize::new(0),
        sym_hits: AtomicU64::new(0),
        dedup_hits: AtomicU64::new(0),
        truncated: AtomicBool::new(false),
        aborted: AtomicBool::new(false),
        results: Mutex::new(Results {
            violations: Vec::new(),
            deadlocks: Vec::new(),
            terminal_fps: BTreeSet::new(),
            terminals: 0,
        }),
        jobs: Mutex::new(VecDeque::new()),
    };

    if workers == 1 {
        let mut explorer = Explorer::new(&shared, None, start);
        explorer.visit(State::initial(scenario), MsgClocks::new(), BTreeSet::new());
    } else {
        let mut builder = Explorer::new(&shared, Some(FORK_DEPTH), start);
        builder.visit(State::initial(scenario), MsgClocks::new(), BTreeSet::new());
        *shared.jobs.lock().expect("jobs poisoned") = builder.jobs_out.drain(..).collect();
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| loop {
                    if shared.aborted.load(Ordering::Relaxed) {
                        return;
                    }
                    let job = shared.jobs.lock().expect("jobs poisoned").pop_front();
                    let Some(job) = job else { return };
                    let mut explorer = Explorer::new(&shared, None, start);
                    explorer.run_job(job);
                });
            }
        });
    }

    let results = shared.results.into_inner().expect("results poisoned");
    report.states = shared.states.load(Ordering::SeqCst);
    report.transitions = shared.transitions.load(Ordering::SeqCst);
    report.terminals = results.terminals;
    report.terminal_fingerprints = results.terminal_fps;
    report.violations = results.violations;
    report.deadlocks = results.deadlocks;
    report.truncated = shared.truncated.load(Ordering::SeqCst);
    report.sym_hits = shared.sym_hits.load(Ordering::SeqCst);
    report.dedup_hits = shared.dedup_hits.load(Ordering::SeqCst);
    report.elapsed_secs = start.elapsed().as_secs_f64();
    report
}

impl<'a, 'b> Explorer<'a, 'b> {
    fn new(shared: &'b Shared<'a>, fork_depth: Option<usize>, start: Instant) -> Self {
        let n = shared.scenario.parents.len();
        let locks = shared.scenario.locks as usize;
        Explorer {
            shared,
            clocks: Clocks::new(),
            proc_ids: BTreeMap::new(),
            proc_keys: Vec::new(),
            proc_node: Vec::new(),
            proc_clock: Vec::new(),
            node_clock: vec![ZERO; n],
            stack: Vec::new(),
            frames: Vec::new(),
            sections: Vec::new(),
            open: vec![None; locks * n],
            fork_depth,
            jobs_out: Vec::new(),
            start,
        }
    }

    fn intern(&mut self, key: ProcKey) -> usize {
        let next = self.proc_ids.len();
        let id = *self.proc_ids.entry(key).or_insert(next);
        if self.proc_clock.len() <= id {
            self.proc_clock.resize(id + 1, ZERO);
            self.proc_node.resize(id + 1, 0);
            self.proc_keys.resize(id + 1, (0, 0, 0, 0));
            self.proc_node[id] = key_node(key);
            self.proc_keys[id] = key;
        }
        id
    }

    fn current_schedule(&self) -> Schedule {
        Schedule(self.stack.iter().map(|e| e.action).collect())
    }

    fn aborted(&self) -> bool {
        self.shared.aborted.load(Ordering::Relaxed)
    }

    /// Replay a job's prefix with full clock/section bookkeeping (no
    /// save/restore — the prefix persists for the job's lifetime), then run
    /// the sequential search on the suffix.
    fn run_job(&mut self, job: Job) {
        let scenario = self.shared.scenario;
        let mut state = State::initial(scenario);
        let mut mclocks = MsgClocks::new();
        for &action in &job.prefix {
            let enabled = state.enabled_actions(scenario);
            debug_assert!(enabled.contains(&action), "job prefix action enabled");
            let procs: Vec<usize> = enabled.iter().map(|&a| self.intern(proc_key(a))).collect();
            let proc_id = self.intern(proc_key(action));
            let step = state.apply(scenario, action);
            self.shared.transitions.fetch_add(1, Ordering::Relaxed);
            debug_assert!(step.fifo_errors.is_empty(), "job prefixes are FIFO-clean");

            let index = (self.stack.len() + 1) as u32;
            let node = action.node() as usize;
            let mut c = self.node_clock[node];
            if let Action::Deliver { lock, from, to } = action {
                let q = mclocks
                    .get_mut(&(lock, from, to))
                    .expect("message clocks mirror channels");
                let send_clock = q.pop_front().expect("non-empty channel");
                if q.is_empty() {
                    mclocks.remove(&(lock, from, to));
                }
                c = self.clocks.join(c, send_clock);
            }
            let clock = self.clocks.with(c, proc_id, index);
            for effect in &step.effects {
                if let Effect::Send { to, .. } = effect {
                    mclocks
                        .entry((step.lock, action.node(), to.0))
                        .or_default()
                        .push_back(clock);
                }
            }
            self.proc_clock[proc_id] = clock;
            self.node_clock[node] = clock;

            let pos = self.stack.len();
            let slot = step.lock as usize * state.node_count() + node;
            let pre_held = state.nodes[step.lock as usize][node].held();
            let post_held = step.state.nodes[step.lock as usize][node].held();
            if pre_held != post_held {
                if let Some(si) = self.open[slot].take() {
                    self.sections[si].end = Some((pos, clock));
                }
                if post_held != Mode::NoLock {
                    self.open[slot] = Some(self.sections.len());
                    self.sections.push(Section {
                        lock: step.lock,
                        node: node as u32,
                        mode: post_held,
                        start: (pos, clock),
                        end: None,
                    });
                }
            }
            self.frames.push(Frame {
                enabled,
                procs,
                backtrack: BTreeSet::new(),
                done: BTreeSet::new(),
                sleep: BTreeSet::new(),
            });
            self.stack.push(Exec { action, proc_id });
            state = step.state;
        }
        let sleep: BTreeSet<usize> = job.sleep.iter().map(|&k| self.intern(k)).collect();
        self.visit(state, mclocks, sleep);
    }

    /// The Flanagan–Godefroid backtrack scan, run once per visited prefix:
    /// for every process's next transition `t`, find the latest executed
    /// transition dependent with `t` but not happens-before it, and add a
    /// backtrack point at the prefix preceding it.
    fn scan(&mut self, state: &State, mclocks: &MsgClocks) {
        if self.stack.is_empty() {
            return;
        }
        // Candidates: every *enabled* transition. Disabled script ops need
        // no candidacy: a node's script enabledness changes only through
        // transitions at that same node, which the node clock totally
        // orders, so a disabled op can never be the first same-node
        // transition of a reordered continuation — the race is always
        // mediated by its enabling delivery, which the scan sees as an
        // enabled candidate at the prefix where it exists.
        for t in state.enabled_actions(self.shared.scenario) {
            let p = self.intern(proc_key(t));
            let mut c = self.proc_clock[p];
            if let Action::Deliver { lock, from, to } = t {
                let head = mclocks
                    .get(&(lock, from, to))
                    .and_then(|q| q.front())
                    .copied()
                    .expect("message clocks mirror channels");
                c = self.clocks.join(c, head);
            }
            // The latest executed transition dependent with t that t could
            // have preceded. Dependent = same node. Co-enabledness matters
            // for script candidates: a script op's enabledness changes only
            // through transitions at its own node, so an op that was not
            // enabled at frame i cannot precede S_i in any trace — frames
            // where it was disabled are not races (this is FG's "may be
            // co-enabled" side condition). Deliveries stay unconditioned:
            // a message can always arrive earlier via its send chain, and
            // the E-rule proxy below schedules that chain.
            let is_script = matches!(t, Action::Script { .. });
            let Some(i) = (0..self.stack.len()).rev().find(|&i| {
                let e = &self.stack[i];
                e.action.node() == t.node() && (!is_script || self.frames[i].enabled.contains(&t))
            }) else {
                continue;
            };
            if self.clocks.get(c, self.stack[i].proc_id) >= (i + 1) as u32 {
                continue; // already happens-before ordered: not a race
            }
            // E-rule: prefer scheduling t's own process at frame i if it is
            // enabled there; else any process whose executed transition is
            // in t's causal past; else everything enabled at frame i.
            let frame_procs = self.frames[i].procs.clone();
            if let Some(idx) = frame_procs.iter().position(|&q| q == p) {
                self.frames[i].backtrack.insert(idx);
                continue;
            }
            let proxy = (i + 1..self.stack.len()).find_map(|j| {
                let pj = self.stack[j].proc_id;
                if self.clocks.get(c, pj) >= (j + 1) as u32 {
                    frame_procs.iter().position(|&q| q == pj)
                } else {
                    None
                }
            });
            match proxy {
                Some(idx) => {
                    self.frames[i].backtrack.insert(idx);
                }
                None => {
                    for idx in 0..frame_procs.len() {
                        self.frames[i].backtrack.insert(idx);
                    }
                }
            }
        }
    }

    /// Does section `x`'s close happen before section `y`'s open?
    /// An unclosed section happens-before nothing.
    fn closes_before(&self, x: &Section, y: &Section) -> bool {
        match x.end {
            None => false,
            Some((pos, _)) => {
                self.clocks.get(y.start.1, self.stack[pos].proc_id) >= (pos + 1) as u32
            }
        }
    }

    /// The synthesized linearization exposing an unordered overlap: the
    /// causal past of both opens (in stack order — a valid linearization of
    /// any happens-before–downward-closed subset of the path), then the two
    /// opens. In its final state both sections are open at once.
    fn witness(&self, a: &Section, b: &Section) -> Schedule {
        let mut acts = Vec::new();
        for (i, e) in self.stack.iter().enumerate() {
            if i == a.start.0 || i == b.start.0 {
                continue;
            }
            let idx = (i + 1) as u32;
            if self.clocks.get(a.start.1, e.proc_id) >= idx
                || self.clocks.get(b.start.1, e.proc_id) >= idx
            {
                acts.push(e.action);
            }
        }
        acts.push(self.stack[a.start.0].action);
        acts.push(self.stack[b.start.0].action);
        Schedule(acts)
    }

    /// At the end of an explored path: test every incompatible same-lock
    /// pair of critical sections at distinct nodes for happens-before
    /// order, and report each unordered pair with its synthesized witness
    /// schedule.
    fn check_overlaps(&mut self) {
        for i in 0..self.sections.len() {
            for j in i + 1..self.sections.len() {
                let (a, b) = (&self.sections[i], &self.sections[j]);
                if a.lock != b.lock || a.node == b.node || compatible(a.mode, b.mode) {
                    continue;
                }
                if self.closes_before(a, b) || self.closes_before(b, a) {
                    continue;
                }
                if self.shared.violations_full() {
                    return;
                }
                let schedule = self.witness(a, b);
                let mut st = State::initial(self.shared.scenario);
                for &act in &schedule.0 {
                    st = st.apply(self.shared.scenario, act).state;
                }
                if !self.shared.flag(self.shared.canon(&st)) {
                    continue;
                }
                let errors = audit_state(&st, false);
                debug_assert!(
                    !errors.is_empty(),
                    "witness for an unordered incompatible pair must fail the audit"
                );
                if !errors.is_empty() {
                    self.shared.record_violation(errors, schedule);
                }
            }
        }
    }

    fn visit(&mut self, state: State, mclocks: MsgClocks, sleep: BTreeSet<usize>) {
        if self.aborted() {
            return;
        }
        if let Some(cut) = self.fork_depth {
            if self.stack.len() >= cut {
                self.jobs_out.push(Job {
                    prefix: self.stack.iter().map(|e| e.action).collect(),
                    sleep: sleep.iter().map(|&p| self.proc_keys[p]).collect(),
                });
                return;
            }
        }
        let fp = self.shared.canon(&state);
        if matches!(self.shared.note_state(fp), Note::OverBudget) {
            return;
        }

        let errors = audit_state(&state, false);
        if !errors.is_empty() {
            if self.shared.flag(fp) {
                let schedule = self.current_schedule();
                self.shared.record_violation(errors, schedule);
            }
            return; // do not expand an already-broken state
        }

        let enabled = state.enabled_actions(self.shared.scenario);
        if enabled.is_empty() {
            let schedule = self.current_schedule();
            self.shared.record_terminal(&state, fp, || schedule);
            self.check_overlaps();
            return;
        }

        let procs: Vec<usize> = enabled.iter().map(|&a| self.intern(proc_key(a))).collect();
        // Sleep-set–blocked: every continuation from here is a sibling
        // branch's job; this prefix's trace classes are covered there.
        let Some(first_awake) = (0..procs.len()).find(|&i| !sleep.contains(&procs[i])) else {
            return;
        };

        let universal = self.fork_depth.is_some();
        if !universal {
            // Backtrack insertions above the fork cut are satisfied by
            // construction (everything awake is explored), so the builder
            // skips the scan.
            self.scan(&state, &mclocks);
        }

        let mut backtrack = BTreeSet::new();
        if universal {
            backtrack.extend(0..procs.len());
        } else {
            backtrack.insert(first_awake);
        }
        self.frames.push(Frame {
            enabled,
            procs,
            backtrack,
            done: BTreeSet::new(),
            sleep,
        });
        let depth = self.frames.len() - 1;

        loop {
            let pick = {
                let f = &self.frames[depth];
                f.backtrack.iter().copied().find(|i| !f.done.contains(i))
            };
            let Some(choice) = pick else { break };
            self.frames[depth].done.insert(choice);
            let action = self.frames[depth].enabled[choice];
            let proc_id = self.frames[depth].procs[choice];
            if self.frames[depth].sleep.contains(&proc_id) {
                continue; // already explored from here, or covered by a sibling
            }

            if !self.shared.transition_budget_left() || self.shared.over_time(&self.start) {
                self.shared.truncated.store(true, Ordering::SeqCst);
                self.shared.aborted.store(true, Ordering::SeqCst);
                break;
            }
            let step = state.apply(self.shared.scenario, action);
            self.shared.transitions.fetch_add(1, Ordering::Relaxed);

            // Vector-clock bookkeeping for the executed transition.
            let index = (self.stack.len() + 1) as u32;
            let node = action.node() as usize;
            let mut c = self.node_clock[node];
            let mut child_mclocks = mclocks.clone();
            if let Action::Deliver { lock, from, to } = action {
                let q = child_mclocks
                    .get_mut(&(lock, from, to))
                    .expect("message clocks mirror channels");
                let send_clock = q.pop_front().expect("non-empty channel");
                if q.is_empty() {
                    child_mclocks.remove(&(lock, from, to));
                }
                c = self.clocks.join(c, send_clock);
            }
            let clock = self.clocks.with(c, proc_id, index);
            for effect in &step.effects {
                if let Effect::Send { to, .. } = effect {
                    child_mclocks
                        .entry((step.lock, action.node(), to.0))
                        .or_default()
                        .push_back(clock);
                }
            }
            let saved_proc = self.proc_clock[proc_id];
            let saved_node = self.node_clock[node];
            self.proc_clock[proc_id] = clock;
            self.node_clock[node] = clock;

            // Critical-section bookkeeping: a held-mode change on the
            // executing lock closes the (lock, node) open section and/or
            // opens a new one.
            let pos = self.stack.len();
            let slot = step.lock as usize * state.node_count() + node;
            let pre_held = state.nodes[step.lock as usize][node].held();
            let post_held = step.state.nodes[step.lock as usize][node].held();
            let saved_open = self.open[slot];
            let mut closed = None;
            let mut opened = false;
            if pre_held != post_held {
                if let Some(si) = self.open[slot].take() {
                    self.sections[si].end = Some((pos, clock));
                    closed = Some(si);
                }
                if post_held != Mode::NoLock {
                    self.open[slot] = Some(self.sections.len());
                    self.sections.push(Section {
                        lock: step.lock,
                        node: node as u32,
                        mode: post_held,
                        start: (pos, clock),
                        end: None,
                    });
                    opened = true;
                }
            }
            self.stack.push(Exec { action, proc_id });

            if step.fifo_errors.is_empty() {
                let child_sleep: BTreeSet<usize> = self.frames[depth]
                    .sleep
                    .iter()
                    .copied()
                    .filter(|&q| self.proc_node[q] != action.node())
                    .collect();
                self.visit(step.state, child_mclocks, child_sleep);
            } else if self.shared.flag(self.shared.canon(&step.state)) {
                let schedule = self.current_schedule();
                self.shared.record_violation(step.fifo_errors, schedule);
            }

            self.stack.pop();
            if opened {
                self.sections.pop();
            }
            self.open[slot] = saved_open;
            if let Some(si) = closed {
                self.sections[si].end = None;
            }
            self.proc_clock[proc_id] = saved_proc;
            self.node_clock[node] = saved_node;
            if self.aborted() {
                break;
            }
            self.frames[depth].sleep.insert(proc_id);
        }
        self.frames.pop();
    }
}
