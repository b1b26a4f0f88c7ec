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
//! dedup and the findings live in the shared [`crate::search`] core, so the
//! reported verdict and terminal fingerprints are identical to the
//! sequential run; with one worker the pool holds one job — the empty
//! prefix — and is the exact sequential algorithm.
//!
//! # Symmetry
//!
//! With `Options::symmetry`, the core keys the distinct-state,
//! violation-dedup and terminal sets by canonical fingerprints
//! ([`crate::canon`]). The DFS itself is stateless, so canonical keying
//! never prunes paths — it only merges permutation-twin states in the
//! *counts and verdict sets*, making them comparable with the
//! symmetry-reduced BFS.

use crate::counterexample::Schedule;
use crate::scenario::Scenario;
use crate::search::{
    classify, run, spawn, Admit, CheckReport, Class, Core, Kind, Options, Reduction, Striped,
};
use crate::state::{Action, State, Step};
use dlm_core::{Effect, Fingerprint, Mode};
use dlm_modes::compatible;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Mutex;

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
        let len = self.arena[a as usize]
            .len()
            .max(self.arena[b as usize].len());
        let joined = (0..len).map(|i| self.get(a, i).max(self.get(b, i)));
        self.alloc(joined.collect())
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

/// What one transition changed in the explorer's path bookkeeping, so
/// `visit` can take it back when it backtracks.
struct Undo {
    /// Arena length before the transition: every clock interned since is
    /// referenced only from deeper in the path, so backtracking frees it.
    clocks: usize,
    proc_clock: ClockId,
    node_clock: ClockId,
    /// The `(lock, node)` slot of `open` the transition executed on, and
    /// what it held before.
    slot: usize,
    open: Option<usize>,
    /// The section the transition closed, and whether it opened one.
    closed: Option<usize>,
    opened: bool,
}

/// One DPOR run, shared across workers (and used single-threaded by the
/// sequential path, so both paths run literally the same code). A finding's
/// trail is its concrete schedule: the DFS stack when it was found, or a
/// synthesized witness.
struct Dpor<'a> {
    core: Core<'a, Schedule>,
    /// States already counted.
    seen: Striped<()>,
    /// Violating states already recorded (the stateless search revisits).
    flagged: Striped<()>,
    jobs: Mutex<VecDeque<Job>>,
}

impl Dpor<'_> {
    /// Dedup violating states; true if `fp` was not yet flagged.
    fn flag(&self, fp: Fingerprint) -> bool {
        self.flagged.stripe(fp).insert(fp, ()).is_none()
    }

    fn next_job(&self) -> Option<Job> {
        if self.core.halted() {
            return None;
        }
        self.jobs.lock().expect("jobs poisoned").pop_front()
    }
}

struct Explorer<'a, 'b> {
    shared: &'b Dpor<'a>,
    clocks: Clocks,
    proc_ids: BTreeMap<ProcKey, usize>,
    proc_keys: Vec<ProcKey>,
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
}

/// Run the reduced exploration.
pub(crate) fn dpor(scenario: &Scenario, opts: Options) -> CheckReport {
    let workers = opts.workers.max(1);
    let shared = Dpor {
        core: Core::new(scenario, opts),
        seen: Striped::new(),
        flagged: Striped::new(),
        jobs: Mutex::default(),
    };
    let root = Job {
        prefix: Vec::new(),
        sleep: Vec::new(),
    };
    let jobs = if workers == 1 {
        vec![root]
    } else {
        let mut builder = Explorer::new(&shared, Some(FORK_DEPTH));
        builder.run_job(root);
        builder.jobs_out
    };
    *shared.jobs.lock().expect("jobs poisoned") = jobs.into();
    spawn(workers, |_| {
        while let Some(job) = shared.next_job() {
            Explorer::new(&shared, None).run_job(job);
        }
    });
    shared.core.report(Reduction::On, |schedule| schedule)
}

impl<'a, 'b> Explorer<'a, 'b> {
    fn new(shared: &'b Dpor<'a>, fork_depth: Option<usize>) -> Self {
        let n = shared.core.scenario.parents.len();
        let locks = shared.core.scenario.locks as usize;
        Explorer {
            shared,
            clocks: Clocks::new(),
            proc_ids: BTreeMap::new(),
            proc_keys: Vec::new(),
            proc_clock: Vec::new(),
            node_clock: vec![ZERO; n],
            stack: Vec::new(),
            frames: Vec::new(),
            sections: Vec::new(),
            open: vec![None; locks * n],
            fork_depth,
            jobs_out: Vec::new(),
        }
    }

    fn intern(&mut self, key: ProcKey) -> usize {
        let next = self.proc_ids.len();
        let id = *self.proc_ids.entry(key).or_insert(next);
        if id == next {
            self.proc_keys.push(key);
            self.proc_clock.push(ZERO);
        }
        id
    }

    fn current_schedule(&self) -> Schedule {
        Schedule(self.stack.iter().map(|e| e.action).collect())
    }

    /// Execute `action` (of process `proc_id`) from `state` and push it on
    /// the path: count it against the budgets, stamp it with its vector
    /// clock, move `mclocks` to the successor's in-flight messages, and
    /// open/close the critical sections it bounds. `None` when the budgets
    /// are spent (the run is halted).
    fn execute(
        &mut self,
        state: &State,
        mclocks: &mut MsgClocks,
        action: Action,
        proc_id: usize,
    ) -> Option<(Step, Undo)> {
        if !self.shared.core.fire() {
            return None;
        }
        let step = state.apply(self.shared.core.scenario, action);

        // Vector-clock bookkeeping for the executed transition.
        let clocks = self.clocks.arena.len();
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

        // Critical-section bookkeeping: a held-mode change on the executing
        // lock closes the (lock, node) open section and/or opens a new one.
        let pos = self.stack.len();
        let slot = step.lock as usize * state.node_count() + node;
        let mut undo = Undo {
            clocks,
            proc_clock: std::mem::replace(&mut self.proc_clock[proc_id], clock),
            node_clock: std::mem::replace(&mut self.node_clock[node], clock),
            slot,
            open: self.open[slot],
            closed: None,
            opened: false,
        };
        let pre_held = state.nodes[step.lock as usize][node].held();
        let post_held = step.state.nodes[step.lock as usize][node].held();
        if pre_held != post_held {
            if let Some(si) = self.open[slot].take() {
                self.sections[si].end = Some((pos, clock));
                undo.closed = Some(si);
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
                undo.opened = true;
            }
        }
        self.stack.push(Exec { action, proc_id });
        Some((step, undo))
    }

    /// Take the last executed transition back off the path.
    fn undo(&mut self, undo: Undo) {
        let Exec { action, proc_id } = self.stack.pop().expect("an executed transition");
        if undo.opened {
            self.sections.pop();
        }
        self.open[undo.slot] = undo.open;
        if let Some(si) = undo.closed {
            self.sections[si].end = None;
        }
        self.proc_clock[proc_id] = undo.proc_clock;
        self.node_clock[action.node() as usize] = undo.node_clock;
        self.clocks.arena.truncate(undo.clocks);
    }

    /// Replay a job's prefix with full clock/section bookkeeping (never
    /// undone — the prefix persists for the job's lifetime), then run the
    /// sequential search on the suffix.
    fn run_job(&mut self, job: Job) {
        let scenario = self.shared.core.scenario;
        let mut state = State::initial(scenario);
        let mut mclocks = MsgClocks::new();
        for &action in &job.prefix {
            let enabled = state.enabled_actions(scenario);
            debug_assert!(enabled.contains(&action), "job prefix action enabled");
            let procs: Vec<usize> = enabled.iter().map(|&a| self.intern(proc_key(a))).collect();
            let proc_id = self.intern(proc_key(action));
            let Some((step, _)) = self.execute(&state, &mut mclocks, action, proc_id) else {
                return;
            };
            debug_assert!(step.fifo_errors.is_empty(), "job prefixes are FIFO-clean");
            self.frames.push(Frame {
                enabled,
                procs,
                backtrack: BTreeSet::new(),
                done: BTreeSet::new(),
                sleep: BTreeSet::new(),
            });
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
        for t in state.enabled_actions(self.shared.core.scenario) {
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
                Some(idx) => self.frames[i].backtrack.extend([idx]),
                None => self.frames[i].backtrack.extend(0..frame_procs.len()),
            }
        }
    }

    /// Does section `x`'s close happen before section `y`'s open?
    /// An unclosed section happens-before nothing.
    fn closes_before(&self, x: &Section, y: &Section) -> bool {
        x.end.is_some_and(|(pos, _)| {
            self.clocks.get(y.start.1, self.stack[pos].proc_id) >= (pos + 1) as u32
        })
    }

    /// The synthesized linearization exposing an unordered overlap: the
    /// causal past of both opens (in stack order — a valid linearization of
    /// any happens-before–downward-closed subset of the path), then the two
    /// opens. In its final state both sections are open at once.
    fn witness(&self, a: &Section, b: &Section) -> Schedule {
        let opens = [a.start, b.start];
        let past = self.stack.iter().enumerate().filter(|&(i, e)| {
            opens.iter().all(|open| i != open.0)
                && opens
                    .iter()
                    .any(|open| self.clocks.get(open.1, e.proc_id) > i as u32)
        });
        let mut acts: Vec<Action> = past.map(|(_, e)| e.action).collect();
        acts.extend(opens.map(|(pos, _)| self.stack[pos].action));
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
                if self.shared.core.violations_full() {
                    return;
                }
                let schedule = self.witness(a, b);
                let (st, _) = run(self.shared.core.scenario, &schedule);
                let fp = self.shared.core.visit_key(&st);
                if !self.shared.flag(fp) {
                    continue;
                }
                let is_unsafe =
                    matches!(classify(self.shared.core.scenario, &st), Class::Unsafe(_));
                debug_assert!(
                    is_unsafe,
                    "witness for an unordered incompatible pair must fail the audit"
                );
                if is_unsafe {
                    self.shared.core.record(Kind::Unsafe, fp, || schedule);
                }
            }
        }
    }

    fn visit(&mut self, state: State, mclocks: MsgClocks, sleep: BTreeSet<usize>) {
        let core = &self.shared.core;
        if core.halted() {
            return;
        }
        if let Some(cut) = self.fork_depth {
            if self.stack.len() >= cut {
                self.jobs_out.push(Job {
                    prefix: self.current_schedule().0,
                    sleep: sleep.iter().map(|&p| self.proc_keys[p]).collect(),
                });
                return;
            }
        }
        let fp = core.visit_key(&state);
        if let Admit::OverBudget = core.admit(&self.shared.seen, fp, (), |_, _| {}) {
            return core.halt();
        }
        let enabled = match classify(core.scenario, &state) {
            Class::Live(enabled) => enabled,
            Class::Unsafe(_) => {
                // Recorded once, and not expanded: already broken.
                if self.shared.flag(fp) {
                    core.record(Kind::Unsafe, fp, || self.current_schedule());
                }
                return;
            }
            terminal => {
                let kind = terminal.kind().expect("not live");
                core.record(kind, fp, || self.current_schedule());
                return self.check_overlaps();
            }
        };

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

        let backtrack = if universal {
            (0..procs.len()).collect()
        } else {
            BTreeSet::from([first_awake])
        };
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

            let mut child_mclocks = mclocks.clone();
            let Some((step, undo)) = self.execute(&state, &mut child_mclocks, action, proc_id)
            else {
                break;
            };
            if step.fifo_errors.is_empty() {
                let child_sleep: BTreeSet<usize> = self.frames[depth]
                    .sleep
                    .iter()
                    .copied()
                    .filter(|&q| key_node(self.proc_keys[q]) != action.node())
                    .collect();
                self.visit(step.state, child_mclocks, child_sleep);
            } else {
                let fp = core.visit_key(&step.state);
                if self.shared.flag(fp) {
                    core.record(Kind::Fifo, fp, || self.current_schedule());
                }
            }
            self.undo(undo);
            if core.halted() {
                break;
            }
            self.frames[depth].sleep.insert(proc_id);
        }
        self.frames.pop();
    }
}
