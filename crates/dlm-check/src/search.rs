//! The search core under both drivers.
//!
//! A driver decides *which* transition to fire next — breadth-first by level
//! ([`mod@crate::explore`]) or depth-first under partial-order reduction
//! ([`crate::dpor`]). Everything else about a model-checking run lives here,
//! once:
//!
//! * **the key** — `Core::key` maps a state to the fingerprint the run
//!   dedups on: the canonical (symmetry-quotient, see [`crate::canon`])
//!   fingerprint under `Options::symmetry`, the raw one otherwise;
//! * **the budgets** — `Core::admit` counts a distinct state against
//!   `Options::max_states` (exactly: a report never counts more), and
//!   `Core::fire` counts a transition against the derived transition
//!   budget and the wall clock;
//! * **the classifier** — `classify` names what a state is: unsafe,
//!   deadlocked, a terminal failing the quiescent audit or freeze
//!   convergence, a clean terminal, or live with its enabled actions;
//! * **the findings sink** — `Core::record` dedups terminals, caps the
//!   recorded violations and deadlocks, and `Core::report` turns what was
//!   recorded into the [`CheckReport`], recomputing every finding's errors by
//!   replaying its schedule (so a reported schedule is a counterexample by
//!   construction);
//! * **the lock-striped set** (`Striped`) and the worker spawn
//!   (`spawn`).

use crate::canon::{self, SymmetryGroup};
use crate::counterexample::Schedule;
use crate::scenario::Scenario;
use crate::state::{Action, State};
use dlm_core::{frozen_residue, AuditError, Fingerprint};
use std::collections::hash_map::{Entry, HashMap};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

/// Which state-space reduction to apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Reduction {
    /// Explore every interleaving (breadth-first, so counterexample
    /// schedules are minimal).
    #[default]
    Off,
    /// Sleep-set–style dynamic partial-order reduction: explore one
    /// representative per Mazurkiewicz trace class, exploiting the
    /// commutativity of deliveries on disjoint channels (see
    /// [`crate::dpor`] for the dependence relation and soundness notes).
    On,
}

impl std::fmt::Display for Reduction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Reduction::Off => "off",
            Reduction::On => "on",
        })
    }
}

/// Exploration options.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Budget on distinct states; exceeding it truncates the run (exactly:
    /// a truncated report never counts more than `max_states` states). The
    /// transition budget is derived from it (32 × `max_states`: the reduced
    /// search can re-traverse states, and this bounds total work).
    pub max_states: usize,
    /// Reduction mode.
    pub reduction: Reduction,
    /// Number of exploration worker threads (clamped to ≥ 1). `1` is the
    /// serial baseline the differential tests compare against.
    pub workers: usize,
    /// Key the seen set by canonical (symmetry-quotient) fingerprints,
    /// exploring one representative per node-permutation orbit.
    pub symmetry: bool,
    /// Optional wall-clock budget; exceeding it truncates the run.
    pub max_seconds: Option<f64>,
    /// Emit progress lines (states, states/sec) to stderr while exploring.
    pub progress: bool,
}

impl Options {
    /// Exhaustive exploration with the given state budget.
    pub fn exhaustive(max_states: usize) -> Self {
        Options {
            max_states,
            reduction: Reduction::Off,
            workers: 1,
            symmetry: false,
            max_seconds: None,
            progress: false,
        }
    }

    /// Reduced exploration with the given state budget.
    pub fn reduced(max_states: usize) -> Self {
        Options {
            reduction: Reduction::On,
            ..Options::exhaustive(max_states)
        }
    }

    /// This configuration with `workers` exploration threads.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// This configuration with symmetry reduction switched on/off.
    pub fn with_symmetry(mut self, symmetry: bool) -> Self {
        self.symmetry = symmetry;
        self
    }

    /// This configuration with a wall-clock budget.
    pub fn with_max_seconds(mut self, seconds: f64) -> Self {
        self.max_seconds = Some(seconds);
        self
    }

    /// This configuration with progress reporting on stderr.
    pub fn with_progress(mut self, progress: bool) -> Self {
        self.progress = progress;
        self
    }
}

/// A safety violation with its replayable counterexample.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// The audit errors observed in (or on the transition into) the state.
    pub errors: Vec<AuditError>,
    /// Actions from the initial state into the violating state. Minimal
    /// (shortest possible) when found with [`Reduction::Off`]; a valid
    /// witness path when found with [`Reduction::On`].
    pub schedule: Schedule,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unsafe after {} steps: ", self.schedule.0.len())?;
        for (i, e) in self.errors.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{e}")?;
        }
        Ok(())
    }
}

/// A deadlock: a terminal state with unfinished scripts or waiting nodes.
#[derive(Debug, Clone, PartialEq)]
pub struct Deadlock {
    /// Nodes whose scripts did not run to completion.
    pub stuck_scripts: Vec<usize>,
    /// Nodes with a pending, never-granted request (on any lock).
    pub waiting: Vec<u32>,
    /// Actions from the initial state into the deadlocked terminal state.
    pub schedule: Schedule,
}

impl std::fmt::Display for Deadlock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "deadlock after {} steps: scripts stuck at {:?}, nodes waiting {:?}",
            self.schedule.0.len(),
            self.stuck_scripts,
            self.waiting
        )
    }
}

/// Result of an exploration.
///
/// Marked `#[must_use]`: a dropped report silently discards the verdict of
/// an entire model-checking run.
#[must_use = "a CheckReport carries the verification verdict; inspect verified()/violations instead of dropping it"]
#[derive(Debug, Clone)]
pub struct CheckReport {
    /// Distinct states visited (canonical representatives when symmetry
    /// reduction is on).
    pub states: usize,
    /// Transitions executed (the reduced search may execute several
    /// transitions into one already-counted state).
    pub transitions: usize,
    /// Terminal (quiescent) states reached.
    pub terminals: usize,
    /// Safety violations (empty = every explored state is safe), each with
    /// a replayable counterexample schedule. Capped at
    /// [`CheckReport::MAX_RECORDED`] distinct violating states.
    pub violations: Vec<Violation>,
    /// Deadlocks, each with a replayable schedule. Same cap.
    pub deadlocks: Vec<Deadlock>,
    /// True if the exploration hit a budget (states, transitions or wall
    /// clock) before completing.
    pub truncated: bool,
    /// The reduction mode this report was produced under.
    pub reduction: Reduction,
    /// Fingerprints of all terminal states (canonical when symmetry is on;
    /// the reduction-soundness property tests compare these across
    /// reduction modes).
    pub terminal_fingerprints: BTreeSet<Fingerprint>,
    /// Worker threads used.
    pub workers: usize,
    /// Order of the symmetry group applied (1 = no reduction).
    pub group_order: usize,
    /// Work-stealing events between worker deques.
    pub steals: u64,
    /// Generated successors the symmetry reduction relabelled: the
    /// relabelling their canonical fingerprint came from moves a node. That
    /// is "canonical fingerprint ≠ raw fingerprint", except on a state that
    /// a moving relabelling maps to itself, which counts here although its
    /// two fingerprints are equal.
    pub sym_hits: u64,
    /// Generated successors that were already in the seen set.
    pub dedup_hits: u64,
    /// Wall-clock exploration time.
    pub elapsed_secs: f64,
}

impl CheckReport {
    /// Cap on recorded violations/deadlocks (counting continues; only the
    /// stored schedules are bounded).
    pub const MAX_RECORDED: usize = 32;

    /// True when the scenario is fully verified: no violations, no
    /// deadlocks, and the exploration completed within budget.
    #[must_use = "the verification verdict must be acted on, not dropped"]
    pub fn verified(&self) -> bool {
        self.violations.is_empty() && self.deadlocks.is_empty() && !self.truncated
    }

    /// Dedup ratio: fraction of generated successors that were already
    /// known (higher = denser state graph and/or more symmetry collapse).
    pub fn dedup_ratio(&self) -> f64 {
        if self.transitions == 0 {
            0.0
        } else {
            self.dedup_hits as f64 / self.transitions as f64
        }
    }
}

/// Exhaustively explore `scenario`; `max_states` bounds the search (a
/// generous budget for 3–4 node scenarios is 1–5 million).
///
/// Equivalent to [`explore_with`] under [`Options::exhaustive`].
pub fn explore(scenario: &Scenario, max_states: usize) -> CheckReport {
    explore_with(scenario, Options::exhaustive(max_states))
}

/// Explore `scenario` under explicit [`Options`].
///
/// Scenarios containing a crash op always use the exhaustive search: a
/// crash transition runs the view change at every survivor at once, so it
/// commutes with nothing and the partial-order reduction would be unsound
/// under its node-keyed dependence relation.
pub fn explore_with(scenario: &Scenario, opts: Options) -> CheckReport {
    assert_eq!(scenario.scripts.len(), scenario.parents.len());
    match opts.reduction {
        Reduction::On if !scenario.has_crash() => crate::dpor::dpor(scenario, opts),
        _ => crate::explore::bfs(scenario, opts),
    }
}

/// Audit every lock object of `state` (each is an independent protocol
/// instance with its own in-flight messages; crashed nodes are excluded).
fn audit_state(state: &State, quiescent: bool) -> Vec<AuditError> {
    (0..state.locks())
        .flat_map(|lock| state.audit_lock(lock as u32, quiescent))
        .collect()
}

/// What a state is, as far as the checked properties go.
pub(crate) enum Class {
    /// Fails the safety audit; never expanded.
    Unsafe(Vec<AuditError>),
    /// Nothing enabled, yet scripts are unfinished or nodes still wait:
    /// the live nodes whose scripts did not run to completion, and the live
    /// nodes with a pending, never-granted request on any lock (sorted,
    /// deduped).
    Deadlock(Vec<usize>, Vec<u32>),
    /// A finished terminal that fails the quiescent audit or freeze
    /// convergence (a frozen survivor from which no thaw is reachable).
    BadTerminal(Vec<AuditError>),
    /// A finished terminal passing every check.
    Terminal,
    /// Safe, with these actions enabled.
    Live(Vec<Action>),
}

/// The payload-free name of a finding. The order is the order findings of
/// equal schedule length are recorded in (it decides who survives the cap).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Kind {
    /// [`Class::Unsafe`].
    Unsafe,
    /// A FIFO grant-order overtake — a property of a transition, not of a
    /// state, so [`classify`] never returns it.
    Fifo,
    /// [`Class::BadTerminal`].
    BadTerminal,
    /// [`Class::Deadlock`].
    Deadlock,
    /// [`Class::Terminal`].
    Terminal,
}

impl Class {
    /// The finding this class is recorded as (`None` for a live state).
    pub(crate) fn kind(&self) -> Option<Kind> {
        match self {
            Class::Unsafe(_) => Some(Kind::Unsafe),
            Class::Deadlock(..) => Some(Kind::Deadlock),
            Class::BadTerminal(_) => Some(Kind::BadTerminal),
            Class::Terminal => Some(Kind::Terminal),
            Class::Live(_) => None,
        }
    }
}

/// Classify `state`. Crashed nodes are excluded throughout: a corpse's
/// unfinished script or pending request strands nobody, and a node frozen
/// at the moment of death stays frozen forever without that being a
/// convergence failure (survivors reset their freeze state in the R1
/// repair, so residue on a *survivor* is still a real violation).
pub(crate) fn classify(scenario: &Scenario, state: &State) -> Class {
    let errors = audit_state(state, false);
    if !errors.is_empty() {
        return Class::Unsafe(errors);
    }
    let enabled = state.enabled_actions(scenario);
    if !enabled.is_empty() {
        return Class::Live(enabled);
    }
    let live = |i: &usize| !state.crashed[*i];
    let stuck_scripts: Vec<usize> = (0..state.pos.len())
        .filter(live)
        .filter(|&i| state.pos[i] < scenario.scripts[i].len())
        .collect();
    let waiting: BTreeSet<u32> = state
        .nodes
        .iter()
        .flat_map(|lock_nodes| lock_nodes.iter().enumerate())
        .filter(|(i, node)| live(i) && node.pending().is_some())
        .map(|(_, node)| node.id().0)
        .collect();
    if !stuck_scripts.is_empty() || !waiting.is_empty() {
        return Class::Deadlock(stuck_scripts, waiting.into_iter().collect());
    }
    let mut errors = audit_state(state, true);
    for lock_nodes in &state.nodes {
        errors.extend(frozen_residue(lock_nodes).into_iter().filter(
            |e| !matches!(e, AuditError::FrozenResidue { node, .. } if state.crashed[node.index()]),
        ));
    }
    if errors.is_empty() {
        Class::Terminal
    } else {
        Class::BadTerminal(errors)
    }
}

/// Run `schedule` from the initial state: the state it ends in, and the FIFO
/// errors its last transition committed.
pub(crate) fn run(scenario: &Scenario, schedule: &Schedule) -> (State, Vec<AuditError>) {
    let mut state = State::initial(scenario);
    let mut fifo_errors = Vec::new();
    for &action in &schedule.0 {
        let step = state.apply(scenario, action);
        (state, fifo_errors) = (step.state, step.fifo_errors);
    }
    (state, fifo_errors)
}

/// Stripe count of a [`Striped`] set: a power of two well above any
/// realistic worker count, so concurrent inserts almost never contend.
const STRIPES: usize = 64;

/// A fingerprint-keyed map striped over independently locked shards
/// (fingerprint low bits select the stripe).
pub(crate) struct Striped<V>(Vec<Mutex<HashMap<Fingerprint, V>>>);

impl<V> Striped<V> {
    pub(crate) fn new() -> Self {
        Striped((0..STRIPES).map(|_| Mutex::new(HashMap::new())).collect())
    }

    /// Lock the stripe holding `fp`.
    pub(crate) fn stripe(&self, fp: Fingerprint) -> MutexGuard<'_, HashMap<Fingerprint, V>> {
        self.0[(fp.0 as usize) & (STRIPES - 1)]
            .lock()
            .expect("stripe poisoned")
    }
}

/// Outcome of [`Core::admit`].
pub(crate) enum Admit {
    /// A new state, counted under budget.
    New,
    /// Already counted.
    Known,
    /// New, but the state budget is spent (the run is now truncated).
    OverBudget,
}

/// Transition budget per budgeted state.
const TRANSITIONS_PER_STATE: usize = 32;

/// What was found, as the trails `T` a driver can later turn into
/// schedules.
struct Findings<T> {
    terminals: BTreeSet<Fingerprint>,
    violations: Vec<T>,
    deadlocks: Vec<T>,
}

impl<T> Default for Findings<T> {
    fn default() -> Self {
        Findings {
            terminals: BTreeSet::new(),
            violations: Vec::new(),
            deadlocks: Vec::new(),
        }
    }
}

/// One run's shared state: scenario, symmetry group, budgets, counters and
/// the findings sink. `T` is the driver's *trail* — whatever it needs to
/// produce a finding's schedule when the report is assembled.
pub(crate) struct Core<'a, T> {
    pub(crate) scenario: &'a Scenario,
    opts: Options,
    group: SymmetryGroup,
    start: Instant,
    states: AtomicUsize,
    transitions: AtomicUsize,
    sym_hits: AtomicU64,
    dedup_hits: AtomicU64,
    truncated: AtomicBool,
    halted: AtomicBool,
    findings: Mutex<Findings<T>>,
}

impl<'a, T> Core<'a, T> {
    pub(crate) fn new(scenario: &'a Scenario, opts: Options) -> Self {
        Core {
            scenario,
            opts,
            group: if opts.symmetry {
                SymmetryGroup::of(scenario)
            } else {
                SymmetryGroup::trivial()
            },
            start: Instant::now(),
            states: AtomicUsize::new(0),
            transitions: AtomicUsize::new(0),
            sym_hits: AtomicU64::new(0),
            dedup_hits: AtomicU64::new(0),
            truncated: AtomicBool::new(false),
            halted: AtomicBool::new(false),
            findings: Mutex::default(),
        }
    }

    /// The fingerprint this run dedups `state` on — canonical under
    /// symmetry, raw otherwise — and whether canonicalization relabelled it
    /// (the relabelling the key came from moves a node).
    pub(crate) fn key(&self, state: &State) -> (Fingerprint, bool) {
        canon::canonical_fingerprint(state, &self.group)
    }

    /// [`Core::key`] for a state the search generated: relabellings count
    /// as `sym_hits`.
    pub(crate) fn visit_key(&self, state: &State) -> Fingerprint {
        let (fp, relabelled) = self.key(state);
        if relabelled {
            self.sym_hits.fetch_add(1, Ordering::Relaxed);
        }
        fp
    }

    /// Count the state keyed `fp` as distinct, at most once and at most
    /// `max_states` times over the run. A new state stores `value` in
    /// `set`; a known one counts a dedup hit and is offered `value` through
    /// `merge`. Over budget the run is truncated but not halted: whether to
    /// go on is the driver's call (the BFS drains what it has admitted, so
    /// every counted state is classified; the DPOR search halts).
    pub(crate) fn admit<V>(
        &self,
        set: &Striped<V>,
        fp: Fingerprint,
        value: V,
        merge: impl FnOnce(&mut V, V),
    ) -> Admit {
        let mut stripe = set.stripe(fp);
        let slot = match stripe.entry(fp) {
            Entry::Vacant(slot) => slot,
            Entry::Occupied(mut known) => {
                merge(known.get_mut(), value);
                self.dedup_hits.fetch_add(1, Ordering::Relaxed);
                return Admit::Known;
            }
        };
        let max = self.opts.max_states;
        let counted = self
            .states
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |c| {
                (c < max).then_some(c + 1)
            });
        if counted.is_err() {
            self.truncated.store(true, Ordering::SeqCst);
            return Admit::OverBudget;
        }
        slot.insert(value);
        Admit::New
    }

    /// Count one transition about to fire. False — the run is truncated and
    /// halted — once the transition or wall-clock budget is spent, and after
    /// any halt. The transition is reserved in one `fetch_update`, like a
    /// state in [`Core::admit`], so racing workers never fire past the
    /// budget.
    pub(crate) fn fire(&self) -> bool {
        if self.halted() {
            return false;
        }
        let budget = self.opts.max_states.saturating_mul(TRANSITIONS_PER_STATE);
        let spent = self
            .opts
            .max_seconds
            .is_some_and(|limit| self.start.elapsed().as_secs_f64() >= limit)
            || self
                .transitions
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |t| {
                    (t < budget).then_some(t + 1)
                })
                .is_err();
        if spent {
            self.truncated.store(true, Ordering::SeqCst);
            self.halt();
            return false;
        }
        true
    }

    /// Stop every worker at its next check.
    pub(crate) fn halt(&self) {
        self.halted.store(true, Ordering::SeqCst);
    }

    pub(crate) fn halted(&self) -> bool {
        self.halted.load(Ordering::Relaxed)
    }

    fn findings(&self) -> MutexGuard<'_, Findings<T>> {
        self.findings.lock().expect("findings poisoned")
    }

    /// Record a finding of `kind` at the state keyed `fp`. Terminal kinds
    /// are deduped on `fp`; `trail` runs only if the finding is kept under
    /// the [`CheckReport::MAX_RECORDED`] cap. Callers record in a
    /// deterministic order, so what survives the cap is deterministic too.
    pub(crate) fn record(&self, kind: Kind, fp: Fingerprint, trail: impl FnOnce() -> T) {
        let mut findings = self.findings();
        let terminal = !matches!(kind, Kind::Unsafe | Kind::Fifo);
        if terminal && !findings.terminals.insert(fp) {
            return;
        }
        let list = match kind {
            Kind::Terminal => return,
            Kind::Deadlock => &mut findings.deadlocks,
            Kind::Unsafe | Kind::Fifo | Kind::BadTerminal => &mut findings.violations,
        };
        if list.len() < CheckReport::MAX_RECORDED {
            list.push(trail());
        }
    }

    /// True once no further violation would be kept.
    pub(crate) fn violations_full(&self) -> bool {
        self.findings().violations.len() >= CheckReport::MAX_RECORDED
    }

    /// A once-a-second progress line on stderr (under `Options::progress`);
    /// `last` is the caller's `(time, states)` of the previous line.
    pub(crate) fn progress(&self, last: &mut (Instant, usize)) {
        if !self.opts.progress || last.0.elapsed().as_secs_f64() < 1.0 {
            return;
        }
        let secs = last.0.elapsed().as_secs_f64();
        let states = self.states.load(Ordering::Relaxed);
        eprintln!(
            "  … {states} states, {} transitions, {:.0} states/s",
            self.transitions.load(Ordering::Relaxed),
            (states - last.1) as f64 / secs
        );
        *last = (Instant::now(), states);
    }

    /// Assemble the report: counters, terminal set, and every recorded
    /// finding with the schedule `resolve` makes of its trail. A finding's
    /// errors are recomputed by replaying that schedule — the FIFO errors of
    /// its last transition if it committed any, else the final state's
    /// class.
    pub(crate) fn report(
        &self,
        reduction: Reduction,
        mut resolve: impl FnMut(T) -> Schedule,
    ) -> CheckReport {
        let found = std::mem::take(&mut *self.findings());
        let mut replay = |trail: T| {
            let schedule = resolve(trail);
            let (state, fifo_errors) = run(self.scenario, &schedule);
            (schedule, fifo_errors, classify(self.scenario, &state))
        };
        let mut violations = Vec::new();
        for trail in found.violations {
            let (schedule, fifo_errors, class) = replay(trail);
            let errors = match class {
                _ if !fifo_errors.is_empty() => fifo_errors,
                Class::Unsafe(errors) | Class::BadTerminal(errors) => errors,
                _ => unreachable!("a recorded violation replays to its errors"),
            };
            violations.push(Violation { errors, schedule });
        }
        let mut deadlocks = Vec::new();
        for trail in found.deadlocks {
            let (schedule, _, Class::Deadlock(stuck_scripts, waiting)) = replay(trail) else {
                unreachable!("a recorded deadlock replays to a deadlocked terminal")
            };
            deadlocks.push(Deadlock {
                stuck_scripts,
                waiting,
                schedule,
            });
        }
        CheckReport {
            states: self.states.load(Ordering::SeqCst),
            transitions: self.transitions.load(Ordering::SeqCst),
            terminals: found.terminals.len(),
            violations,
            deadlocks,
            truncated: self.truncated.load(Ordering::SeqCst),
            reduction,
            terminal_fingerprints: found.terminals,
            workers: self.opts.workers.max(1),
            group_order: self.group.order(),
            steals: 0,
            sym_hits: self.sym_hits.load(Ordering::SeqCst),
            dedup_hits: self.dedup_hits.load(Ordering::SeqCst),
            elapsed_secs: self.start.elapsed().as_secs_f64(),
        }
    }
}

/// Run `work(w)` for `w` in `0..workers`, one scoped thread each; a single
/// worker runs on the caller's thread.
pub(crate) fn spawn(workers: usize, work: impl Fn(usize) + Sync) {
    if workers == 1 {
        return work(0);
    }
    std::thread::scope(|s| {
        for w in 0..workers {
            let work = &work;
            s.spawn(move || work(w));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Workers that race for the last transitions of the budget reserve
    /// them one at a time: with `max_states = 1` exactly
    /// `TRANSITIONS_PER_STATE` fire, however many threads ask at once.
    /// Reading the count and then adding to it lets a 33rd through only in
    /// a few-nanosecond window, hence the many rounds.
    #[test]
    fn racing_workers_fire_exactly_the_transition_budget() {
        let scenario = crate::corpus::scenario("two_writers");
        for _ in 0..5000 {
            let core: Core<'_, ()> = Core::new(&scenario, Options::exhaustive(1));
            let (fired, start) = (AtomicUsize::new(0), std::sync::Barrier::new(4));
            spawn(4, |_| {
                start.wait();
                while core.fire() {
                    fired.fetch_add(1, Ordering::Relaxed);
                }
            });
            assert_eq!(fired.into_inner(), TRANSITIONS_PER_STATE);
            assert_eq!(core.transitions.into_inner(), TRANSITIONS_PER_STATE);
            assert!(core.truncated.into_inner());
        }
    }
}
