//! The exhaustive driver: level-synchronous, work-stealing breadth-first
//! search over the [`crate::search`] core.
//!
//! All states at depth `d` are processed before any state at depth `d+1`.
//! Within a level, work is distributed over `Options::workers` threads, each
//! owning a deque of pending states; a worker that drains its own deque
//! steals the back half of a victim's (classic work stealing, so load
//! imbalance from uneven branching self-corrects).
//!
//! Level synchrony is what keeps counterexamples **minimal and
//! deterministic** regardless of worker count or steal order:
//!
//! * a state's depth of first discovery is its true BFS depth (no cross-level
//!   races), so every reported schedule is shortest-possible;
//! * when two same-level parents generate the same successor, the recorded
//!   parent pointer is the lexicographic minimum of `(parent fingerprint,
//!   action)` — a commutative, associative choice, so the final parent tree
//!   is independent of arrival order;
//! * findings are collected per level and recorded in sorted order at the
//!   level barrier, so the recorded set (and the cap) never depends on
//!   thread scheduling.
//!
//! # Schedules through representative space
//!
//! Under symmetry the stored parent chain lives in representative space, so
//! a finding's schedule is reconstructed by forward replay: each step takes
//! the recorded action when it reproduces the next canonical fingerprint in
//! the chain and otherwise the first (deterministically ordered) enabled
//! action that does — one must exist, because the group is closed under
//! composition. The reconstructed schedule is a *concrete* path of the same
//! length as the quotient path, so minimality is preserved.

use crate::counterexample::Schedule;
use crate::scenario::Scenario;
use crate::search::{
    classify, spawn, Admit, CheckReport, Class, Core, Kind, Options, Reduction, Striped,
};
use crate::state::{Action, State};
use dlm_core::Fingerprint;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::Instant;

/// Seen-set entry: BFS depth plus the (lexicographically minimal) parent
/// link used for counterexample reconstruction.
struct Entry {
    parent: Option<(Fingerprint, Action)>,
    depth: u32,
}

/// A finding's trail: where it sits in the seen set. The derived order —
/// schedule length first, so minimal counterexamples survive the cap, then
/// kind, then identity — is the order a level's findings are recorded in.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Found {
    /// Length of the schedule this finding resolves to.
    len: u32,
    kind: Kind,
    /// The state found (for [`Kind::Fifo`]: the state the offending
    /// transition leaves).
    fp: Fingerprint,
    /// The offending transition of a [`Kind::Fifo`] finding.
    hint: Option<Action>,
}

struct Item {
    state: State,
    /// The state's key in the seen set.
    fp: Fingerprint,
    depth: u32,
}

/// Empty every worker's hand-off buffer into one list, in worker order.
fn drain<T>(slots: &[Mutex<Vec<T>>]) -> Vec<T> {
    let take = |slot: &Mutex<Vec<T>>| std::mem::take(&mut *slot.lock().expect("slot poisoned"));
    slots.iter().flat_map(take).collect()
}

/// One BFS run (borrowed by every worker).
struct Bfs<'a> {
    core: Core<'a, Found>,
    seen: Striped<Entry>,
    /// Current-level work deques, one per worker.
    deques: Vec<Mutex<VecDeque<Item>>>,
    /// Next-level hand-off buffers, one per worker.
    next: Vec<Mutex<Vec<Item>>>,
    /// Per-level findings hand-off buffers, one per worker.
    found: Vec<Mutex<Vec<Found>>>,
    steals: AtomicU64,
    done: AtomicBool,
    barrier: Barrier,
}

impl Bfs<'_> {
    /// Record `fp` at `depth` with parent link `parent`. If `fp` is already
    /// present at the same depth, the stored parent link is replaced iff the
    /// new one is lexicographically smaller — the arrival-order-independent
    /// tie-break that makes reconstruction deterministic under any worker
    /// interleaving.
    fn admit(&self, fp: Fingerprint, parent: Option<(Fingerprint, Action)>, depth: u32) -> Admit {
        let entry = Entry { parent, depth };
        self.core.admit(&self.seen, fp, entry, |known, new| {
            if known.depth == new.depth && new.parent < known.parent {
                known.parent = new.parent;
            }
        })
    }

    /// Pop from worker `w`'s deque, stealing the back half of another
    /// worker's deque when empty. `None` = the level is drained (successors
    /// only ever land in next-level buffers, so no work can reappear).
    fn pop(&self, w: usize) -> Option<Item> {
        if let Some(item) = self.deques[w].lock().expect("deque poisoned").pop_front() {
            return Some(item);
        }
        let n = self.deques.len();
        for off in 1..n {
            let victim = (w + off) % n;
            let stolen = {
                let mut q = self.deques[victim].lock().expect("deque poisoned");
                let len = q.len();
                if len == 0 {
                    continue;
                }
                q.split_off(len / 2)
            };
            if !stolen.is_empty() {
                self.steals.fetch_add(1, Ordering::Relaxed);
                let mut mine = self.deques[w].lock().expect("deque poisoned");
                mine.extend(stolen);
                if let Some(item) = mine.pop_front() {
                    return Some(item);
                }
            }
        }
        None
    }

    /// Process one current-level state: classify it, and expand a live
    /// state's enabled actions into next-level items.
    fn process(&self, item: Item, my_next: &mut Vec<Item>, my_found: &mut Vec<Found>) {
        let Item { state, fp, depth } = item;
        let mut find = |len, kind, hint| {
            my_found.push(Found {
                len,
                kind,
                fp,
                hint,
            })
        };
        let enabled = match classify(self.core.scenario, &state) {
            Class::Live(enabled) => enabled,
            // Found, and not expanded: an already-broken state has no
            // meaningful successors and a terminal has none at all.
            class => return find(depth, class.kind().expect("not live"), None),
        };
        for action in enabled {
            if !self.core.fire() {
                return;
            }
            let step = state.apply(self.core.scenario, action);
            if !step.fifo_errors.is_empty() {
                // A FIFO overtake is a property of the transition, not the
                // successor state; report it with the path including the
                // offending action and do not continue past it.
                find(depth + 1, Kind::Fifo, Some(action));
                continue;
            }
            let key = self.core.visit_key(&step.state);
            if let Admit::New = self.admit(key, Some((fp, action)), depth + 1) {
                my_next.push(Item {
                    state: step.state,
                    fp: key,
                    depth: depth + 1,
                });
            }
        }
    }

    /// Record the level's findings and redistribute the next frontier
    /// (executed by worker 0 alone, between the two level barriers).
    fn level_transition(&self) {
        let mut batch = drain(&self.found);
        batch.sort_unstable();
        for found in batch {
            self.core.record(found.kind, found.fp, || found);
        }
        let all = drain(&self.next);
        if all.is_empty() || self.core.halted() {
            self.done.store(true, Ordering::Relaxed);
            return;
        }
        let n = self.deques.len();
        let chunk = all.len().div_ceil(n);
        let mut all = all.into_iter();
        for deque in &self.deques {
            let mut q = deque.lock().expect("deque poisoned");
            debug_assert!(q.is_empty());
            q.extend(all.by_ref().take(chunk));
        }
    }

    /// One exploration worker: drain the level (stealing as needed), hand
    /// off next-level items and findings, and let worker 0 run the level
    /// transition.
    fn worker(&self, w: usize) {
        let mut my_next: Vec<Item> = Vec::new();
        let mut my_found: Vec<Found> = Vec::new();
        let mut last_progress = (Instant::now(), 0);
        loop {
            while let Some(item) = self.pop(w) {
                if self.core.halted() {
                    break;
                }
                self.process(item, &mut my_next, &mut my_found);
            }
            *self.next[w].lock().expect("next poisoned") = std::mem::take(&mut my_next);
            *self.found[w].lock().expect("found poisoned") = std::mem::take(&mut my_found);
            self.barrier.wait();
            if w == 0 {
                self.level_transition();
                self.core.progress(&mut last_progress);
            }
            self.barrier.wait();
            if self.done.load(Ordering::Relaxed) {
                return;
            }
        }
    }

    /// `hint` (if enabled in `state`) followed by every enabled action in
    /// order: the candidates a replay step tries.
    fn candidates(&self, state: &State, hint: Option<Action>) -> impl Iterator<Item = Action> {
        let enabled = state.enabled_actions(self.core.scenario);
        let hint = hint.filter(|h| enabled.contains(h));
        hint.into_iter().chain(enabled)
    }

    /// The concrete minimal path to the state recorded at `fp`: walk parent
    /// links back to the root, then replay forwards, each step taking a
    /// FIFO-clean action whose successor is keyed like the next link.
    fn path_to(&self, mut fp: Fingerprint) -> (Schedule, State) {
        let mut chain = Vec::new();
        while let Some((parent, action)) = self.seen.stripe(fp)[&fp].parent {
            chain.push((fp, action));
            fp = parent;
        }
        let scenario = self.core.scenario;
        let mut state = State::initial(scenario);
        let mut actions = Vec::with_capacity(chain.len());
        for &(target, hint) in chain.iter().rev() {
            let (action, next) = self
                .candidates(&state, Some(hint))
                .find_map(|action| {
                    let step = state.apply(scenario, action);
                    let hit = step.fifo_errors.is_empty() && self.core.key(&step.state).0 == target;
                    hit.then_some((action, step.state))
                })
                .expect("group closure guarantees a matching concrete action");
            actions.push(action);
            state = next;
        }
        (Schedule(actions), state)
    }

    /// The schedule of a finding: the path to its state, plus — for a FIFO
    /// finding — the first candidate transition out of it that overtakes.
    fn resolve(&self, found: Found) -> Schedule {
        let (mut schedule, state) = self.path_to(found.fp);
        if found.kind == Kind::Fifo {
            let action = self
                .candidates(&state, found.hint)
                .find(|&a| !state.apply(self.core.scenario, a).fifo_errors.is_empty())
                .expect("a recorded FIFO violation is reproducible from its base state");
            schedule.0.push(action);
        }
        schedule
    }
}

/// Level-synchronous, work-stealing breadth-first exploration (see the
/// module docs for the determinism argument).
pub(crate) fn bfs(scenario: &Scenario, opts: Options) -> CheckReport {
    let workers = opts.workers.max(1);
    let bfs = Bfs {
        core: Core::new(scenario, opts),
        seen: Striped::new(),
        deques: (0..workers).map(|_| Mutex::default()).collect(),
        next: (0..workers).map(|_| Mutex::default()).collect(),
        found: (0..workers).map(|_| Mutex::default()).collect(),
        steals: AtomicU64::new(0),
        done: AtomicBool::new(false),
        barrier: Barrier::new(workers),
    };
    let state = State::initial(scenario);
    let fp = bfs.core.key(&state).0;
    if let Admit::New = bfs.admit(fp, None, 0) {
        let root = Item {
            state,
            fp,
            depth: 0,
        };
        bfs.deques[0]
            .lock()
            .expect("deque poisoned")
            .push_back(root);
        spawn(workers, |w| bfs.worker(w));
    }
    let mut report = bfs.core.report(Reduction::Off, |found| bfs.resolve(found));
    report.steals = bfs.steals.load(Ordering::SeqCst);
    report
}
