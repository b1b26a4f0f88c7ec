//! The closed-loop load model shared by the threaded workloads.
//!
//! One driver thread multiplexes *virtual clients* over one
//! [`Pipeline`] per node. Virtual client (node n, table t) runs the
//! paper's airline operation against its own table, forever: draw an
//! operation from [`ModeMix::paper`], acquire the table lock (plus one
//! entry lock for the intent modes), release in reverse order, repeat.
//! Hold time and think time are zero — the clients measure the lock
//! service, not sleeps — and a client waits for each grant before its next
//! step (closed loop), so contention is set by nodes × tables alone.
//!
//! Table `t` owns lock ids `9t` (the table) and `9t+1..=9t+8` (its
//! entries). Tables therefore contend *across* nodes and never within one:
//! no client ever submits to a lock with an operation outstanding on its
//! node, so `Busy` cannot happen.

use crate::span::{SpanId, Tracer};
use dlm_cluster::{Completion, LockId, Mode, Pipeline};
use dlm_workload::{ModeMix, OpKind};
use std::time::Instant;

/// Entries per table (the paper's table size).
pub const ENTRIES: u32 = 8;
/// Lock ids per table: the table lock plus its entries.
pub const LOCKS_PER_TABLE: u32 = 1 + ENTRIES;
/// One operation in this many carries spans in a traced run.
pub const SPAN_SAMPLE: u64 = 64;
/// Room for the acquire samples of one round (virtual until written).
pub const SAMPLE_CAPACITY: usize = 1 << 21;

/// SplitMix64: the benchmark's seeded generator.
#[derive(Debug, Clone)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` by multiply-shift (bias 2⁻⁶⁴·n, irrelevant here).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// One planned airline operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedOp {
    /// Operation class (fixes the table-level mode).
    pub kind: OpKind,
    /// Entry touched by the intent classes, `0..ENTRIES`.
    pub entry: u32,
}

/// The seeded operation stream of one virtual client. The seed decides
/// the inputs and nothing else: the program only ever sees the resulting
/// acquire/release calls.
#[derive(Debug, Clone)]
pub struct OpStream {
    rng: SplitMix64,
}

impl OpStream {
    /// The stream of client (`node`, `table`) under `seed`.
    pub fn new(seed: u64, node: u32, table: u32) -> Self {
        let mut mix = SplitMix64(seed ^ (u64::from(node) << 32 | u64::from(table)));
        // One scramble so neighbouring clients start far apart.
        OpStream {
            rng: SplitMix64(mix.next_u64()),
        }
    }

    /// Draw the next operation from the paper's mix.
    pub fn next_op(&mut self) -> PlannedOp {
        let mix = ModeMix::paper();
        let roll = self.rng.below(100) as u32;
        let r = u32::from(mix.ir) + u32::from(mix.r);
        let u = r + u32::from(mix.u);
        let iw = u + u32::from(mix.iw);
        let kind = if roll < u32::from(mix.ir) {
            OpKind::ReadEntry
        } else if roll < r {
            OpKind::ReadTable
        } else if roll < u {
            OpKind::UpgradeTable
        } else if roll < iw {
            OpKind::WriteEntry
        } else {
            OpKind::WriteTable
        };
        PlannedOp {
            kind,
            entry: self.rng.below(u64::from(ENTRIES)) as u32,
        }
    }
}

/// FNV-1a over the first `count` planned operations of a `nodes × tables`
/// client set, taken round-robin: equal seeds must give equal hashes and
/// different seeds different ones.
pub fn stream_hash(seed: u64, nodes: u32, tables: u32, count: usize) -> u64 {
    let mut streams: Vec<OpStream> = (0..nodes)
        .flat_map(|n| (0..tables).map(move |t| OpStream::new(seed, n, t)))
        .collect();
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for i in 0..count {
        let n = streams.len();
        let op = streams[i % n].next_op();
        for byte in [op.kind.index() as u8, op.entry as u8] {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// Where a client is inside its current operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Idle,
    TableWait,
    EntryWait,
    EntryRelease,
    TableRelease,
    /// An operation of this client failed; it issues nothing further.
    Dead,
}

struct Client {
    stream: OpStream,
    op: PlannedOp,
    phase: Phase,
    /// Submit stamp of the outstanding call, ns since the tracer epoch.
    submit_ns: u64,
    /// Whether the current operation started inside the timed phase.
    timed: bool,
    /// Span of the current operation when it is a sampled one.
    op_span: Option<SpanId>,
    /// Sequence number of the current operation (its request id).
    seq: u64,
}

/// Count and total time of one kind of call into the program.
#[derive(Debug, Clone, Copy, Default)]
pub struct CallCost {
    /// Calls made.
    pub calls: u64,
    /// Wall time inside them, ns (traced runs only; 0 otherwise).
    pub ns: u64,
}

impl CallCost {
    /// Fold another tally into this one.
    pub fn add(&mut self, other: CallCost) {
        self.calls += other.calls;
        self.ns += other.ns;
    }

    /// Mean nanoseconds per call.
    pub fn mean_ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns as f64 / self.calls as f64
        }
    }
}

/// What the timed phase of one load run measured.
#[derive(Debug, Default)]
pub struct LoadResult {
    /// Operations started (warm-up included): the attempt count.
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// Operations completed inside the timed phase.
    pub ops: u64,
    /// Acquire requests submitted by those operations.
    pub requests: u64,
    /// Timed phase: first timed operation → last timed completion, ns.
    pub wall_ns: u64,
    /// The program's message counter when the timed phase began; the
    /// caller subtracts it from the counter read after quiescence, so that
    /// release waves still travelling at the last completion are counted.
    pub messages_at_start: u64,
    /// CPU time of the whole process during the timed phase, µs.
    pub cpu_us: u64,
    /// Context switches of all threads during the timed phase.
    pub ctx_switches: u64,
    /// Submit → completion of every timed acquire, ns.
    pub acquire_ns: Vec<u64>,
    /// The same for table-level `Write` acquires only.
    pub write_ns: Vec<u64>,
    /// Driver sweeps over all pipelines in the timed phase.
    pub sweeps: u64,
    /// Sweeps that drained no completion (the driver then yields).
    pub idle_sweeps: u64,
    /// `Pipeline::submit_*` calls in the timed phase.
    pub submit: CallCost,
    /// `Pipeline::flush` calls in the timed sweeps that found work.
    pub flush: CallCost,
    /// `Pipeline::try_recv` calls in the timed sweeps that found work.
    pub recv: CallCost,
    /// First error seen, for the failure report.
    pub first_error: Option<String>,
}

/// How a load run is sized.
#[derive(Debug, Clone, Copy)]
pub struct LoadPlan {
    /// Untimed running-in before the timed phase.
    pub warmup: std::time::Duration,
    /// Timed phase length; new operations stop starting once it is over.
    pub timed: std::time::Duration,
}

/// The closed-loop driver: one pipeline per node, `tables` clients each.
pub struct Driver<'a> {
    pipes: Vec<Pipeline>,
    clients: Vec<Vec<Client>>,
    tracer: &'a mut Tracer,
    messages: &'a dyn Fn() -> u64,
    result: LoadResult,
    next_seq: u64,
    /// Clients with a call outstanding.
    busy: usize,
    timing: bool,
    starting: bool,
    timed_parent: Option<SpanId>,
}

/// A closed loop with nothing completing for this long is stuck: the run
/// fails its outstanding operations instead of hanging.
const STALL: std::time::Duration = std::time::Duration::from_secs(20);

impl<'a> Driver<'a> {
    /// Clients for every (pipeline, table) pair under `seed`; `messages`
    /// reads the program's live protocol-message counter.
    pub fn new(
        pipes: Vec<Pipeline>,
        tables: u32,
        seed: u64,
        tracer: &'a mut Tracer,
        messages: &'a dyn Fn() -> u64,
    ) -> Self {
        let clients = (0..pipes.len() as u32)
            .map(|n| {
                (0..tables)
                    .map(|t| Client {
                        stream: OpStream::new(seed, n, t),
                        op: PlannedOp {
                            kind: OpKind::ReadEntry,
                            entry: 0,
                        },
                        phase: Phase::Idle,
                        submit_ns: 0,
                        timed: false,
                        op_span: None,
                        seq: 0,
                    })
                    .collect()
            })
            .collect();
        Driver {
            pipes,
            clients,
            tracer,
            messages,
            result: LoadResult {
                // Sized once, so that recording a sample never reallocates
                // (a doubling copy would hold 1.5× the buffer for a moment
                // and make peak RSS depend on where the count landed).
                acquire_ns: Vec::with_capacity(SAMPLE_CAPACITY),
                ..LoadResult::default()
            },
            next_seq: 0,
            busy: 0,
            timing: false,
            starting: true,
            timed_parent: None,
        }
    }

    /// Count the current operation of client (`node`, `table`) as failed
    /// and retire the client.
    fn fail(&mut self, node: usize, table: usize, what: &str, e: &dyn std::fmt::Display) {
        self.result.failed += 1;
        self.result
            .first_error
            .get_or_insert_with(|| format!("{what}: {e}"));
        self.clients[node][table].phase = Phase::Dead;
        self.busy -= 1;
    }

    /// Submit one call for `client`, timing it when traced.
    fn submit(&mut self, node: usize, table: usize, lock: LockId, acquire: Option<Mode>) {
        let traced = self.tracer.enabled();
        let t0 = self.tracer.now_ns();
        let pipe = &mut self.pipes[node];
        let outcome = match acquire {
            Some(mode) => pipe.submit_acquire(lock, mode, table as u64),
            None => pipe.submit_release(lock, table as u64),
        };
        let client = &mut self.clients[node][table];
        // One clock read serves both the latency stamp and the call span.
        let t1 = if traced { self.tracer.now_ns() } else { t0 };
        client.submit_ns = t1;
        if self.timing {
            self.result.submit.calls += 1;
            self.result.submit.ns += t1 - t0;
            if acquire.is_some() && client.timed {
                self.result.requests += 1;
            }
        }
        if client.op_span.is_some() {
            let name = if acquire.is_some() {
                "handle.submit_acquire"
            } else {
                "handle.submit_release"
            };
            self.tracer.record(name, t0, t1, client.op_span, client.seq);
        }
        if let Err(e) = outcome {
            self.fail(node, table, "submit", &e);
        }
    }

    fn table_lock(table: usize) -> LockId {
        LockId(table as u32 * LOCKS_PER_TABLE)
    }

    fn entry_lock(table: usize, entry: u32) -> LockId {
        LockId(table as u32 * LOCKS_PER_TABLE + 1 + entry)
    }

    fn start_op(&mut self, node: usize, table: usize) {
        let client = &mut self.clients[node][table];
        client.op = client.stream.next_op();
        client.phase = Phase::TableWait;
        client.timed = self.timing;
        client.seq = self.next_seq;
        self.next_seq += 1;
        self.busy += 1;
        self.result.attempted += 1;
        client.op_span = if client.timed && client.seq.is_multiple_of(SPAN_SAMPLE) {
            self.tracer
                .enter("client.op", self.timed_parent, client.seq)
        } else {
            None
        };
        let mode = client.op.kind.table_mode();
        self.submit(node, table, Self::table_lock(table), Some(mode));
    }

    /// Advance a client on the completion of its outstanding call.
    fn on_completion(&mut self, node: usize, c: Completion) {
        let table = c.tag as usize;
        let now = self.tracer.now_ns();
        if let Err(e) = &c.result {
            self.fail(node, table, "completion", e);
            return;
        }
        let client = &mut self.clients[node][table];
        let waited = now - client.submit_ns;
        let acquired = matches!(client.phase, Phase::TableWait | Phase::EntryWait);
        if client.op_span.is_some() {
            let name = if acquired {
                "client.acquire_wait"
            } else {
                "client.release_wait"
            };
            self.tracer
                .record(name, client.submit_ns, now, client.op_span, client.seq);
        }
        if acquired && client.timed {
            self.result.acquire_ns.push(waited);
            if client.phase == Phase::TableWait && client.op.kind == OpKind::WriteTable {
                self.result.write_ns.push(waited);
            }
        }
        let table_lock = Self::table_lock(table);
        let entry_lock = Self::entry_lock(table, client.op.entry);
        // The next call of this operation: `Some(mode)` acquires.
        let (phase, lock, acquire) = match client.phase {
            Phase::TableWait if client.op.kind == OpKind::ReadEntry => {
                (Phase::EntryWait, entry_lock, Some(Mode::Read))
            }
            Phase::TableWait if client.op.kind == OpKind::WriteEntry => {
                (Phase::EntryWait, entry_lock, Some(Mode::Write))
            }
            Phase::EntryWait => (Phase::EntryRelease, entry_lock, None),
            Phase::TableWait | Phase::EntryRelease => (Phase::TableRelease, table_lock, None),
            Phase::TableRelease => {
                client.phase = Phase::Idle;
                self.busy -= 1;
                if client.timed {
                    self.result.ops += 1;
                    self.result.wall_ns = now;
                }
                let span = client.op_span.take();
                self.tracer.exit(span);
                if self.starting {
                    self.start_op(node, table);
                }
                return;
            }
            Phase::Idle | Phase::Dead => {
                unreachable!("a completion for a client with nothing outstanding")
            }
        };
        client.phase = phase;
        self.submit(node, table, lock, acquire);
    }

    /// One pass over every pipeline: drain what is ready, ship what that
    /// produced. Returns the completions handled.
    ///
    /// A traced sweep times its `try_recv` and `flush` calls. Sweeps that
    /// find nothing are the driver waiting, not the handle working: their
    /// calls are tallied in `idle_sweeps` and kept out of the call costs.
    fn sweep(&mut self) -> u64 {
        let traced = self.tracer.enabled();
        let mut handled = 0;
        let (mut recv, mut flush) = (CallCost::default(), CallCost::default());
        for node in 0..self.pipes.len() {
            loop {
                let t0 = if traced { self.tracer.now_ns() } else { 0 };
                let c = self.pipes[node].try_recv();
                recv.calls += 1;
                if traced {
                    recv.ns += self.tracer.now_ns() - t0;
                }
                let Some(c) = c else { break };
                handled += 1;
                self.on_completion(node, c);
            }
            let t0 = if traced { self.tracer.now_ns() } else { 0 };
            if let Err(e) = self.pipes[node].flush() {
                self.result.failed += 1;
                self.result
                    .first_error
                    .get_or_insert_with(|| format!("flush: {e}"));
            }
            flush.calls += 1;
            if traced {
                flush.ns += self.tracer.now_ns() - t0;
            }
        }
        if self.timing {
            self.result.sweeps += 1;
            if handled == 0 {
                self.result.idle_sweeps += 1;
            } else {
                self.result.recv.add(recv);
                self.result.flush.add(flush);
            }
        }
        handled
    }

    /// Sweep once; yield the CPU when nothing was ready. Returns false once
    /// nothing has completed for [`STALL`].
    fn turn(&mut self, last_progress: &mut Instant) -> bool {
        if self.sweep() > 0 {
            *last_progress = Instant::now();
        } else {
            std::thread::yield_now();
            if last_progress.elapsed() > STALL {
                for node in 0..self.clients.len() {
                    for table in 0..self.clients[node].len() {
                        if !matches!(self.clients[node][table].phase, Phase::Idle | Phase::Dead) {
                            self.fail(node, table, "stalled", &"no completion for 20 s");
                        }
                    }
                }
                return false;
            }
        }
        true
    }

    /// Run warm-up, the timed phase and the drain; every started operation
    /// has completed (or failed) when this returns. The second value is
    /// the setup instant: when the first timed operation could start.
    pub fn run(mut self, plan: LoadPlan) -> (LoadResult, Instant) {
        for node in 0..self.clients.len() {
            for table in 0..self.clients[node].len() {
                self.start_op(node, table);
            }
        }
        // Warm-up: not timed, not sampled.
        let mut last_progress = Instant::now();
        let warm_until = last_progress + plan.warmup;
        while Instant::now() < warm_until && self.busy > 0 && self.turn(&mut last_progress) {}
        // Timed phase. Operations in flight across this instant belong to
        // the warm-up; only operations started from here on are counted.
        let setup_done = Instant::now();
        self.timed_parent = self.tracer.enter("driver.timed", None, 0);
        self.timing = true;
        let start_ns = self.tracer.now_ns();
        self.result.messages_at_start = (self.messages)();
        let cpu0 = crate::env::cpu_us();
        let ctx0 = crate::env::ctx_switches_all_threads();
        let deadline = setup_done + plan.timed;
        while self.busy > 0 {
            if self.starting && Instant::now() >= deadline {
                self.starting = false;
            }
            if !self.turn(&mut last_progress) {
                break;
            }
        }
        let span = self.timed_parent;
        self.tracer.exit(span);
        self.result.cpu_us = crate::env::cpu_us() - cpu0;
        self.result.ctx_switches = crate::env::ctx_switches_all_threads() - ctx0;
        self.result.wall_ns = self.result.wall_ns.saturating_sub(start_ns);
        (self.result, setup_done)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_mix_matches_the_paper_within_sampling_error() {
        let mut s = OpStream::new(1, 0, 0);
        let mut by_kind = [0u32; 5];
        for _ in 0..100_000 {
            let op = s.next_op();
            assert!(op.entry < ENTRIES);
            by_kind[op.kind.index()] += 1;
        }
        for (got, want) in by_kind.iter().zip([80_000, 10_000, 4_000, 5_000, 1_000]) {
            let err = (f64::from(*got) - f64::from(want)).abs() / f64::from(want);
            assert!(err < 0.10, "{by_kind:?}");
        }
    }

    #[test]
    fn the_seed_decides_the_op_stream() {
        assert_eq!(stream_hash(7, 4, 16, 10_000), stream_hash(7, 4, 16, 10_000));
        assert_ne!(stream_hash(7, 4, 16, 10_000), stream_hash(8, 4, 16, 10_000));
        // Clients of one run do not share a stream.
        let a: Vec<_> = std::iter::repeat_with({
            let mut s = OpStream::new(7, 0, 0);
            move || s.next_op()
        })
        .take(64)
        .collect();
        let b: Vec<_> = std::iter::repeat_with({
            let mut s = OpStream::new(7, 0, 1);
            move || s.next_op()
        })
        .take(64)
        .collect();
        assert_ne!(a, b);
    }
}
