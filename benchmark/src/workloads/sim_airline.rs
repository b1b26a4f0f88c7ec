//! `sim_airline`: the paper's own experiment. 120 nodes of the IBM SP
//! preset (idle : critical-section ratio 10) run the airline mix on one
//! 8-entry table under the deterministic simulator. One thread, virtual
//! time: `dlm-core`, `dlm-sim` and `dlm-workload` do all the work, message
//! counts repeat exactly for a seed, and only `ops_per_s` is wall-clock.
//!
//! The run is a fixed amount of work — 1800 operations per node per timed
//! second asked for — not a fixed time, so that the exact metrics are the
//! same numbers on every machine.

use super::{Params, Round};
use crate::env;
use crate::span::Tracer;
use crate::stats;
use dlm_core::Mode;
use dlm_trace::{ProtocolEvent, Recorder};
use dlm_workload::{run_workload_traced, WorkloadParams, WorkloadReport};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::time::Instant;

/// Nodes of the experiment (the paper's largest SP configuration).
pub const NODES: usize = 120;
/// Operations per node per timed second: sized so one second of `--seconds`
/// is about one second of wall time on the reference VM.
const OPS_PER_NODE_PER_SECOND: f64 = 1800.0;

/// Exact per-request waits, taken from the simulator's own request-span
/// events (virtual microseconds). `WorkloadReport::request_latency` is a
/// bucketed histogram and so not usable for benchmark output.
#[derive(Default)]
pub struct RequestWaits {
    open: HashMap<u64, (u64, bool)>,
    /// Issue → grant of every request, virtual µs.
    pub all: Vec<u64>,
    /// The same for table-level `Write` requests only.
    pub table_write: Vec<u64>,
    /// Every event the simulator emitted.
    pub events: u64,
}

impl Recorder for RequestWaits {
    fn record(&mut self, at: u64, lock: u32, _node: u32, event: ProtocolEvent) {
        self.events += 1;
        match event {
            ProtocolEvent::RequestStart { req, mode, .. } => {
                let table_write = lock == dlm_core::LockId::TABLE.0 && mode == Mode::Write;
                self.open.insert(req, (at, table_write));
            }
            ProtocolEvent::RequestGrant { req, .. } => {
                if let Some((start, table_write)) = self.open.remove(&req) {
                    self.all.push(at - start);
                    if table_write {
                        self.table_write.push(at - start);
                    }
                }
            }
            _ => {}
        }
    }
}

/// The experiment at `ops_per_node` under `seed`.
pub fn experiment(seed: u64, ops_per_node: u32) -> WorkloadParams {
    WorkloadParams {
        ops_per_node,
        seed,
        ..WorkloadParams::ibm_sp(NODES, 10)
    }
}

/// Operations per node of one round.
pub fn ops_per_node(p: &Params) -> u32 {
    p.scaled(
        (p.round_seconds * OPS_PER_NODE_PER_SECOND).round() as u64,
        4,
    ) as u32
}

fn run(params: &WorkloadParams) -> (WorkloadReport, RequestWaits) {
    let waits = Rc::new(RefCell::new(RequestWaits::default()));
    let report = run_workload_traced(params, Some(Rc::clone(&waits) as Rc<RefCell<dyn Recorder>>));
    let waits = Rc::try_unwrap(waits)
        .unwrap_or_else(|_| panic!("the simulator dropped its recorder handle"))
        .into_inner();
    (report, waits)
}

/// One round: a tenth-size warm-up run, then the timed run.
pub fn round(p: &Params, tracer: &mut Tracer) -> Round {
    let round_start = Instant::now();
    let params = experiment(p.seed, ops_per_node(p));
    // Warm-up: the same experiment at a tenth of the size grows the heap
    // and warms the caches the timed run will use.
    let warm = experiment(p.seed, (params.ops_per_node / 10).max(2));
    tracer.time("workload.run_workload.warmup", None, || {
        std::hint::black_box(run(&warm));
    });

    let mut round = Round {
        setup_s: round_start.elapsed().as_secs_f64(),
        ..Round::default()
    };
    let cpu0 = env::cpu_us();
    let ctx0 = env::ctx_switches_all_threads();
    let timed = Instant::now();
    let (report, mut waits) = tracer.time("workload.run_workload", None, || run(&params));
    let wall = timed.elapsed().as_secs_f64();
    let cpu_us = env::cpu_us() - cpu0;
    let ctx = env::ctx_switches_all_threads() - ctx0;

    let ops = report.ops_completed;
    round.attempted = report.ops_expected;
    round.failed = report.ops_expected - ops;
    round.check(report.complete(), || {
        format!("{ops} of {} simulated ops completed", report.ops_expected)
    });
    round.check(report.quiesced, || "the simulation did not quiesce".into());
    round.check(waits.open.is_empty(), || {
        format!("{} requests were never granted", waits.open.len())
    });
    round.check(waits.all.len() as u64 == report.requests, || {
        format!(
            "{} request spans for {} requests",
            waits.all.len(),
            report.requests
        )
    });

    round.set("ops_per_s", ops as f64 / wall);
    round.set("msgs_per_request", report.messages_per_request());
    round.set("latency_factor", report.latency_factor());
    // Virtual-time waits: exact for a seed, and the closest thing this
    // workload has to what a caller of `acquire` feels.
    let (p50, p99) = stats::p50_p99(&mut waits.all);
    let (_, write_p99) = stats::p50_p99(&mut waits.table_write);
    round.set_opt("acquire_p50_us", p50.map(|us| us as f64));
    round.set_opt("acquire_p99_us", p99.map(|us| us as f64));
    round.set_opt("write_p99_us", write_p99.map(|us| us as f64));

    if p.traced {
        let req = report.requests as f64;
        let per_req = |kind: &str| report.trace_sends.get(kind) as f64 / req;
        round.set("workload.msgs_request_per_req", per_req("request"));
        round.set("workload.msgs_grant_per_req", per_req("grant"));
        round.set("workload.msgs_token_per_req", per_req("token"));
        round.set("workload.msgs_release_per_req", per_req("release"));
        round.set("workload.msgs_freeze_per_req", per_req("freeze"));
        // `request.initial` tallies the requests that had to send at all;
        // the rest were admitted locally (Rule 2) with zero messages.
        round.set(
            "workload.local_admit_share",
            1.0 - report.sent_by_kind.get("request.initial") as f64 / req,
        );
        round.set(
            "workload.child_grant_share",
            report.rule_counters.get("rule3.1-child-grant") as f64 / req,
        );
        round.set("workload.request_p50_ms", p50.unwrap_or(0) as f64 / 1e3);
        round.set("workload.request_p99_ms", p99.unwrap_or(0) as f64 / 1e3);
        round.set(
            "workload.queue_depth_p99",
            report.queue_depth.quantile(0.99) as f64,
        );
        round.set(
            "workload.freeze_span_p99_ms",
            report.freeze_spans.quantile(0.99) as f64 / 1e3,
        );
        // Engine events: every message delivery plus the idle and
        // critical-section timers of every operation.
        round.set(
            "sim.events_per_op",
            (report.messages + 2 * ops) as f64 / ops as f64,
        );
        round.set("core.msgs_per_op", report.messages as f64 / ops as f64);
        // A step is one entry-point call (acquire and release of every
        // request) or one delivered message.
        round.set(
            "core.steps_per_op",
            (2 * report.requests + report.messages) as f64 / ops as f64,
        );
        round.set("trace.events_per_op", waits.events as f64 / ops as f64);
        round.set("process.cpu_us_per_op", cpu_us as f64 / ops as f64);
        round.set("process.ctx_switches_per_op", ctx as f64 / ops as f64);
    }
    if p.probes {
        crate::probes::sim_layers(&mut round, p.seed);
    }
    round
}
