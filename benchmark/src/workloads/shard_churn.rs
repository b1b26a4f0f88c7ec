//! `shard_churn`: the service layer alone. One node, two shard workers, a
//! lock table far larger than the last-level cache, and one pipelined
//! client keeping [`WINDOW`] operations in flight: pick a lock uniformly,
//! acquire it in `Write` if it is free, release it if it is held. Every
//! acquire is admitted locally, so the run sends **zero messages** —
//! routing, the admission gate, the lock and waiter maps and the local
//! admit path are all that runs. One operation is one acquire + release
//! pair.

use super::{Params, Round};
use crate::budget::{self, Budget};
use crate::env;
use crate::load::{CallCost, SplitMix64};
use crate::probes;
use crate::span::Tracer;
use crate::stats;
use dlm_cluster::{Cluster, ClusterConfig, Completion, LockId, Mode, Pipeline};
use std::time::{Duration, Instant};

/// Locks hosted at scale 1.
pub const LOCKS: u64 = 200_000;
/// Shard workers.
pub const SHARDS: usize = 2;
/// Operations kept in flight.
pub const WINDOW: usize = 4096;
/// One acquire in this many carries a span in a traced run.
const SPAN_SAMPLE: u64 = 4096;

struct Bits(Vec<u64>);

impl Bits {
    fn new(n: u64) -> Self {
        Bits(vec![0; (n as usize).div_ceil(64)])
    }
    fn get(&self, i: u32) -> bool {
        self.0[i as usize / 64] >> (i % 64) & 1 == 1
    }
    fn flip(&mut self, i: u32) {
        self.0[i as usize / 64] ^= 1 << (i % 64);
    }
}

struct Churn<'a> {
    pipe: Pipeline,
    held: Bits,
    in_flight: Bits,
    tracer: &'a mut Tracer,
    traced: bool,
    timing: bool,
    parent: Option<crate::span::SpanId>,
    acquire_ns: Vec<u64>,
    acquires: u64,
    completed: u64,
    failed: u64,
    first_error: Option<String>,
    submit: CallCost,
    recv: CallCost,
}

impl Churn<'_> {
    /// Acquire `lock` if it is free, release it if it is held. Acquires
    /// carry their submit stamp as the completion tag, so latency needs no
    /// side table.
    fn submit(&mut self, lock: u32) {
        self.in_flight.flip(lock);
        let t0 = self.tracer.now_ns();
        let outcome = if self.held.get(lock) {
            self.pipe.submit_release(LockId(lock), 0)
        } else {
            self.pipe.submit_acquire(LockId(lock), Mode::Write, t0)
        };
        if self.timing {
            self.submit.calls += 1;
            if self.traced {
                self.submit.ns += self.tracer.now_ns() - t0;
            }
        }
        if let Err(e) = outcome {
            self.failed += 1;
            self.first_error
                .get_or_insert_with(|| format!("submit: {e}"));
        }
    }

    fn settle(&mut self, c: Completion) {
        let lock = c.lock.0;
        if let Err(e) = &c.result {
            self.failed += 1;
            self.first_error
                .get_or_insert_with(|| format!("completion: {e}"));
        } else if !self.held.get(lock) && self.timing {
            // The acquire half: its tag is the submit stamp.
            let now = self.tracer.now_ns();
            self.acquire_ns.push(now - c.tag);
            self.acquires += 1;
            if self.acquires.is_multiple_of(SPAN_SAMPLE) {
                self.tracer.record(
                    "client.acquire_wait",
                    c.tag,
                    now,
                    self.parent,
                    self.acquires,
                );
            }
        }
        self.held.flip(lock);
        self.in_flight.flip(lock);
        self.completed += 1;
    }

    /// Block for one completion, then take every other that is ready. The
    /// blocking call is the client waiting, so only the non-blocking calls
    /// count towards the handle's cost.
    fn drain(&mut self) {
        match self.pipe.recv() {
            Ok(c) => self.settle(c),
            Err(e) => {
                self.failed += 1;
                self.first_error.get_or_insert_with(|| format!("recv: {e}"));
                return;
            }
        }
        let t0 = if self.traced { self.tracer.now_ns() } else { 0 };
        let mut calls = 1;
        while let Some(c) = self.pipe.try_recv() {
            calls += 1;
            self.settle(c);
        }
        if self.timing {
            self.recv.calls += calls;
            if self.traced {
                self.recv.ns += self.tracer.now_ns() - t0;
            }
        }
    }

    /// Keep the window full from `next` until `done`, then empty it.
    fn run(&mut self, mut next: impl FnMut() -> Option<u32>) {
        let mut exhausted = false;
        while !exhausted || self.pipe.outstanding() > 0 {
            while !exhausted && self.pipe.outstanding() < WINDOW && self.failed == 0 {
                match next() {
                    // A lock with an operation in flight is skipped, so no
                    // completion is ever `Busy`.
                    Some(lock) if self.in_flight.get(lock) => {}
                    Some(lock) => self.submit(lock),
                    None => exhausted = true,
                }
            }
            if self.failed > 0 {
                exhausted = true;
            }
            if self.pipe.outstanding() > 0 {
                self.drain();
            }
        }
    }
}

/// One round.
pub fn round(p: &Params, tracer: &mut Tracer) -> Round {
    let round_start = Instant::now();
    let locks = p.scaled(LOCKS, 4 * WINDOW as u64);
    let cluster = tracer.time("runtime.cluster_new", None, || {
        Cluster::new(ClusterConfig {
            nodes: 1,
            locks: locks as usize,
            shards: SHARDS,
            ..ClusterConfig::default()
        })
    });
    let mut churn = Churn {
        pipe: cluster.handle(0).pipeline(),
        held: Bits::new(locks),
        in_flight: Bits::new(locks),
        traced: tracer.enabled(),
        tracer,
        timing: false,
        parent: None,
        acquire_ns: Vec::with_capacity(2 * crate::load::SAMPLE_CAPACITY),
        acquires: 0,
        completed: 0,
        failed: 0,
        first_error: None,
        submit: CallCost::default(),
        recv: CallCost::default(),
    };

    // Warm-up: touch every lock once (acquire, then release), so the timed
    // phase never pays for creating a lock's state.
    let warm = churn.tracer.enter("driver.warmup", None, 0);
    for _pass in 0..2 {
        let mut l = 0;
        churn.run(|| {
            (l < locks as u32).then(|| {
                l += 1;
                l - 1
            })
        });
    }
    churn.tracer.exit(warm);
    let warm_completions = churn.completed;

    let mut round = Round {
        setup_s: round_start.elapsed().as_secs_f64(),
        ..Round::default()
    };
    churn.parent = churn.tracer.enter("driver.timed", None, 0);
    churn.timing = true;
    let cpu0 = env::cpu_us();
    let ctx0 = env::ctx_switches_all_threads();
    let timed = Instant::now();
    let deadline = timed + p.timed();
    let mut rng = SplitMix64(p.seed);
    let mut since_check = 0u32;
    churn.run(|| {
        // Reading the clock once per 256 picks keeps it off the hot path.
        since_check += 1;
        if since_check.is_multiple_of(256) && Instant::now() >= deadline {
            return None;
        }
        Some(rng.below(locks) as u32)
    });
    let wall = timed.elapsed();
    let cpu_us = env::cpu_us() - cpu0;
    let ctx = env::ctx_switches_all_threads() - ctx0;
    let span = churn.parent;
    churn.tracer.exit(span);
    churn.timing = false;
    let timed_completions = churn.completed - warm_completions;

    // Outside the timed phase: release what is still held, so the audit can
    // vouch for the run.
    let mut l = 0;
    let held_now: Vec<u32> = (0..locks as u32).filter(|&l| churn.held.get(l)).collect();
    churn.run(|| {
        let next = held_now.get(l).copied();
        l += 1;
        next
    });
    let messages = churn.tracer.time("runtime.quiesce_within", None, || {
        cluster.quiesce_within(Duration::from_millis(2), Duration::from_secs(30))
    });
    let Churn {
        pipe,
        mut acquire_ns,
        failed,
        first_error,
        submit,
        recv,
        completed,
        tracer,
        ..
    } = churn;
    drop(pipe);
    let shutdown = Instant::now();
    let report = tracer.time("runtime.shutdown", None, || cluster.shutdown());
    let shutdown = shutdown.elapsed();

    // One operation is an acquire + release pair.
    let ops = timed_completions as f64 / 2.0;
    round.attempted = completed / 2 + failed;
    round.failed = failed;
    round.check(failed == 0, || {
        format!(
            "{failed} operations failed; first: {}",
            first_error.as_deref().unwrap_or("?")
        )
    });
    round.check(messages == 0, || {
        format!("{messages} protocol messages on a single node")
    });
    round.check(report.audit_errors.is_empty(), || {
        format!("final audit: {:?}", report.audit_errors)
    });
    round.check(
        report.decode_errors == 0
            && report.replies_dropped == 0
            && report.workers_died == 0
            && report.frames_fenced == 0,
        || {
            format!(
                "decode errors {}, replies dropped {}, workers died {}, frames fenced {}",
                report.decode_errors,
                report.replies_dropped,
                report.workers_died,
                report.frames_fenced
            )
        },
    );
    round.check(ops > 0.0, || "no operation completed".into());

    round.set("ops_per_s", ops / wall.as_secs_f64());
    let (p50, p99) = stats::p50_p99(&mut acquire_ns);
    let p99_us = p99.map(|ns| ns as f64 / 1e3);
    round.set_opt("acquire_p50_us", p50.map(|ns| ns as f64 / 1e3));
    round.set_opt("acquire_p99_us", p99_us);
    // Every acquire is a Write, so the Write tail is the acquire tail.
    round.set_opt("write_p99_us", p99_us);

    if p.traced {
        round.set("handle.submit_ns", submit.mean_ns());
        round.set("handle.recv_ns", recv.mean_ns());
        round.set(
            "runtime.local_op_us",
            SHARDS as f64 * wall.as_secs_f64() * 1e6 / ops,
        );
        round.set("runtime.shutdown_ms", shutdown.as_secs_f64() * 1e3);
        round.set("runtime.hops_p50", report.acquire_hops.quantile(0.5) as f64);
        round.set(
            "runtime.hops_p99",
            report.acquire_hops.quantile(0.99) as f64,
        );
        round.set(
            "runtime.worker_latency_p50_us",
            report.acquire_latency.quantile(0.5) as f64,
        );
        round.set("process.cpu_us_per_op", cpu_us as f64 / ops);
        round.set("process.ctx_switches_per_op", ctx as f64 / ops);
        round.set("core.steps_per_op", 2.0);
    }
    if p.probes {
        probes::shard_layers(&mut round, locks as usize, SHARDS);
        probes::core_layers(&mut round);
        probes::modes_layer(&mut round);
        probes::metrics_layer(&mut round);
        let get = |name: &str| round.values.get(name).copied().unwrap_or(0.0);
        let mut budget = Budget::new(wall.as_secs_f64() * 1e6 / ops);
        let shard_us = (get("shard.route_ns") + get("shard.gate_ns")) / 1e3;
        let handle_us = (submit.ns + recv.ns) as f64 / 1e3 / ops;
        // Routing and gating run inside every submit: split them out of
        // the measured client-side time rather than count them twice.
        budget.row(budget::HANDLE, 1.0, (handle_us - 2.0 * shard_us).max(0.0));
        budget.row(budget::SHARD, 2.0, shard_us);
        budget.row(budget::CORE, 2.0, get("core.local_admit_ns") / 1e3);
        round.budget = Some(budget);
    }
    round
}
