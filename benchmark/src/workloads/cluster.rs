//! `cluster_mix` and `cluster_faults`: the in-process [`Cluster`] under the
//! virtual-client load of [`crate::load`], 4 nodes × 16 tables = 64
//! clients, one shard per node.
//!
//! * `cluster_mix` runs over [`TransportKind::Direct`] without the
//!   reliability shim: `handle → runtime → core → codec → coalescer →
//!   Direct`, and nothing else.
//! * `cluster_faults` phase A runs the same clients over 5 % drop,
//!   duplicate and reorder with the shim on; phase B crashes the token
//!   holder of a fresh cluster and times kill → first grant after recovery,
//!   [`CRASH_CYCLES`] times per round.
//!
//! Message delay is zero on both: latency here is processor time and
//! scheduling, not a network.

use super::{Params, Round};
use crate::budget::{self, Budget};
use crate::load::{Driver, LoadPlan, LoadResult, LOCKS_PER_TABLE};
use crate::probes;
use crate::span::Tracer;
use crate::stats;
use dlm_cluster::{
    Cluster, ClusterConfig, ClusterReport, FaultConfig, LinkReport, LockId, Mode, ReliableConfig,
    TransportKind,
};
use dlm_trace::TraceStats;
use std::time::{Duration, Instant};

/// Cluster size.
pub const NODES: usize = 4;
/// Tables, each with one virtual client per node.
pub const TABLES: u32 = 16;
/// Crash-and-recover cycles per round of `cluster_faults`.
pub const CRASH_CYCLES: u64 = 12;
/// Per-worker flight-recorder capacity of a traced round.
const TRACE_CAPACITY: usize = 1 << 16;

/// Which links a load phase runs over.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Links {
    /// Perfect channels, no shim (`cluster_mix`).
    Direct,
    /// Perfect channels with the reliability shim on (differencing run).
    DirectReliable,
    /// The fault router with every rate zero, no shim (differencing run).
    RouterOnly,
    /// 5 % drop/duplicate/reorder with the shim on (`cluster_faults`).
    Lossy,
}

/// The cluster configuration of a load phase.
pub fn config(links: Links, seed: u64, tables: u32, traced: bool) -> ClusterConfig {
    let (transport, reliable) = match links {
        Links::Direct => (TransportKind::Direct, None),
        Links::DirectReliable => (TransportKind::Direct, Some(ReliableConfig::default())),
        Links::RouterOnly => (TransportKind::Faulty(FaultConfig::default()), None),
        Links::Lossy => (
            TransportKind::Faulty(FaultConfig::lossy(seed, 0.05)),
            Some(ReliableConfig::default()),
        ),
    };
    ClusterConfig {
        nodes: NODES,
        locks: (tables * LOCKS_PER_TABLE) as usize,
        transport,
        reliable,
        trace_capacity: if traced { TRACE_CAPACITY } else { 0 },
        ..ClusterConfig::default()
    }
}

/// Everything one load phase produced.
pub struct Phase {
    /// The driver's measurements.
    pub load: LoadResult,
    /// Protocol messages of the timed phase, read after quiescence.
    pub messages: u64,
    /// The shut-down cluster's report.
    pub report: ClusterReport,
    /// Round start → first timed operation.
    pub setup: Duration,
    /// `Cluster::shutdown` wall time.
    pub shutdown: Duration,
    /// Operations refused by a shard admission gate.
    pub rejections: u64,
}

/// Sum a series of the Prometheus-text snapshot.
fn snapshot_sum(snapshot: &str, series: &str) -> u64 {
    snapshot
        .lines()
        .filter(|l| l.starts_with(series) && l[series.len()..].starts_with('{'))
        .filter_map(|l| l.rsplit(' ').next()?.parse::<u64>().ok())
        .sum()
}

/// Spawn a cluster, run the client load over it, quiesce and shut down.
pub fn load_phase(
    config: ClusterConfig,
    tables: u32,
    seed: u64,
    plan: LoadPlan,
    tracer: &mut Tracer,
) -> Phase {
    let round_start = Instant::now();
    let cluster = tracer.time("runtime.cluster_new", None, || Cluster::new(config));
    let pipes = (0..config.nodes as u32)
        .map(|n| cluster.handle(n).pipeline())
        .collect();
    let messages = || cluster.messages_sent();
    let (load, setup_done) = Driver::new(pipes, tables, seed, tracer, &messages).run(plan);
    let messages = tracer.time("runtime.quiesce_within", None, || {
        cluster.quiesce_within(Duration::from_millis(5), Duration::from_secs(30))
    }) - load.messages_at_start;
    let rejections = snapshot_sum(&cluster.metrics_snapshot(), "dlm_shard_rejections_total");
    let t = Instant::now();
    let report = tracer.time("runtime.shutdown", None, || cluster.shutdown());
    Phase {
        load,
        messages,
        report,
        setup: setup_done - round_start,
        shutdown: t.elapsed(),
        rejections,
    }
}

/// The correctness gate every cluster phase passes through.
pub fn gate(round: &mut Round, phase: &Phase) {
    let r = &phase.report;
    round.check(r.audit_errors.is_empty(), || {
        format!("final audit: {:?}", r.audit_errors)
    });
    round.check(r.decode_errors == 0, || {
        format!("{} frames failed to decode", r.decode_errors)
    });
    round.check(r.replies_dropped == 0, || {
        format!("{} replies had no listener", r.replies_dropped)
    });
    round.check(r.workers_died == 0, || {
        format!("{} workers died", r.workers_died)
    });
    round.check(r.frames_fenced == 0, || {
        format!("{} frames fenced without a crash", r.frames_fenced)
    });
    load_gate(round, &phase.load);
}

/// Every started operation completed, and some did.
pub fn load_gate(round: &mut Round, load: &LoadResult) {
    round.check(load.failed == 0, || {
        format!(
            "{} operations failed; first: {}",
            load.failed,
            load.first_error.as_deref().unwrap_or("?")
        )
    });
    round.check(load.ops > 0, || "no operation completed".into());
}

/// The end-to-end metrics of a client-load phase.
pub fn load_metrics(round: &mut Round, load: &mut LoadResult, messages: u64) {
    round.attempted += load.attempted;
    round.failed += load.failed;
    round.set("ops_per_s", load.ops as f64 / (load.wall_ns as f64 / 1e9));
    round.set("msgs_per_request", messages as f64 / load.requests as f64);
    let (p50, p99) = stats::p50_p99(&mut load.acquire_ns);
    round.set_opt("acquire_p50_us", p50.map(|ns| ns as f64 / 1e3));
    round.set_opt("acquire_p99_us", p99.map(|ns| ns as f64 / 1e3));
    round.write_ns = std::mem::take(&mut load.write_ns);
}

fn link_sum(links: &[LinkReport], field: impl Fn(&LinkReport) -> u64) -> f64 {
    links.iter().map(field).sum::<u64>() as f64
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The per-layer metrics any cluster-like phase can report from its link
/// counters and trace (shared with the socket workloads).
pub fn link_metrics(round: &mut Round, links: &[LinkReport]) {
    let proto = link_sum(links, |l| l.proto_sent);
    let wire = link_sum(links, |l| l.wire_sent);
    let data = link_sum(links, |l| l.data_sent);
    let retransmits = link_sum(links, |l| l.retransmits);
    let acks = link_sum(links, |l| l.acks_sent);
    round.set("coalesce.proto_per_wire", ratio(proto, wire));
    round.set(
        "transport.dropped_share",
        ratio(link_sum(links, |l| l.dropped), wire + retransmits + acks),
    );
    round.set(
        "reliable.retransmits_per_kmsg",
        ratio(retransmits, data / 1e3),
    );
    round.set("reliable.acks_per_data", ratio(acks, data));
    round.set(
        "reliable.dups_suppressed_per_kmsg",
        ratio(link_sum(links, |l| l.dups_suppressed), data / 1e3),
    );
    round.set(
        "reliable.reorders_buffered_per_kmsg",
        ratio(link_sum(links, |l| l.reorders_buffered), data / 1e3),
    );
}

/// The handle-layer metrics of a driver run.
pub fn handle_metrics(round: &mut Round, load: &LoadResult) {
    round.set("handle.submit_ns", load.submit.mean_ns());
    round.set("handle.flush_ns", load.flush.mean_ns());
    round.set("handle.recv_ns", load.recv.mean_ns());
    round.set(
        "handle.idle_sweep_share",
        ratio(load.idle_sweeps as f64, load.sweeps as f64),
    );
    round.set(
        "process.cpu_us_per_op",
        ratio(load.cpu_us as f64, load.ops as f64),
    );
    round.set(
        "process.ctx_switches_per_op",
        ratio(load.ctx_switches as f64, load.ops as f64),
    );
}

/// Message-kind mix of a traced phase, from the cluster's own event trace.
pub fn send_mix(report: &ClusterReport) -> TraceStats {
    let mut stats = TraceStats::new();
    for record in &report.trace {
        stats.absorb(record);
    }
    stats
}

/// The budget rows every pipelined workload shares: the client-side calls
/// as timed, and the worker-side layers as count × probed unit cost.
pub fn pipelined_budget(round: &Round, load: &LoadResult, messages: u64) -> Budget {
    let ops = load.ops as f64;
    let get = |name: &str| round.values.get(name).copied().unwrap_or(0.0);
    let mut budget = Budget::new(load.wall_ns as f64 / 1e3 / ops);
    // Routing and gating run inside every submit: split them out of the
    // measured client-side time rather than count them twice.
    let submits = load.submit.calls as f64 / ops;
    let shard_us = (get("shard.route_ns") + get("shard.gate_ns")) / 1e3;
    let handle_us = (load.submit.ns + load.flush.ns + load.recv.ns) as f64 / 1e3 / ops;
    budget.row(
        budget::HANDLE,
        1.0,
        (handle_us - submits * shard_us).max(0.0),
    );
    budget.row(budget::SHARD, submits, shard_us);
    // A protocol step is one application call or one delivered message.
    let steps = (load.submit.calls + messages) as f64 / ops;
    budget.row(budget::CORE, steps, get("core.step_ns") / 1e3);
    budget.row(
        budget::CODEC,
        messages as f64 / ops,
        (get("codec.encode_ns") + get("codec.decode_ns")) / 1e3,
    );
    let per_wire = get("coalesce.proto_per_wire");
    if per_wire > 0.0 {
        budget.row(
            budget::COALESCER,
            messages as f64 / ops / per_wire,
            get("codec.container_ns_per_frame") * per_wire / 1e3,
        );
    }
    budget
}

/// The traced extras of a cluster load phase.
fn traced_layers(round: &mut Round, phase: &Phase, probe: bool) {
    let report = &phase.report;
    let load = &phase.load;
    handle_metrics(round, load);
    link_metrics(round, &report.links);
    round.set("shard.rejections", phase.rejections as f64);
    round.set("runtime.hops_p50", report.acquire_hops.quantile(0.5) as f64);
    round.set(
        "runtime.hops_p99",
        report.acquire_hops.quantile(0.99) as f64,
    );
    round.set(
        "runtime.worker_latency_p50_us",
        report.acquire_latency.quantile(0.5) as f64,
    );
    round.set("runtime.shutdown_ms", phase.shutdown.as_secs_f64() * 1e3);
    round.set(
        "trace.events_per_op",
        ratio(
            report.trace.len() as f64 + report.trace_dropped as f64,
            load.ops as f64,
        ),
    );
    round.set(
        "core.msgs_per_op",
        ratio(phase.messages as f64, load.ops as f64),
    );
    round.set(
        "core.steps_per_op",
        ratio((load.submit.calls + phase.messages) as f64, load.ops as f64),
    );
    if probe {
        probes::codec_layers(round, &send_mix(report));
        probes::core_layers(round);
        probes::shard_layers(round, (TABLES * LOCKS_PER_TABLE) as usize, 1);
        probes::modes_layer(round);
        probes::metrics_layer(round);
    }
}

fn plan(p: &Params) -> LoadPlan {
    LoadPlan {
        warmup: p.timed() / 10,
        timed: p.timed(),
    }
}

/// One crash-and-recover cycle on a fresh cluster: pull the token onto
/// node 1 with a Write acquire, crash node 1, run the scan/plan/repair
/// wave, and take a Write grant at node 0. Returns `(kill → grant, repair,
/// first grant, frames fenced)` in milliseconds.
fn crash_cycle(round: &mut Round, tracer: &mut Tracer) -> Option<(f64, f64, f64, u64)> {
    let cluster = Cluster::new(ClusterConfig {
        nodes: NODES,
        locks: 1,
        ..ClusterConfig::default()
    });
    let lock = LockId(0);
    let at_1 = cluster.handle(1);
    let primed = at_1.acquire(lock, Mode::Write).and(at_1.release(lock));
    let kill = Instant::now();
    tracer.time("recovery.crash_node", None, || cluster.crash_node(1));
    // A 2 ms settle window: the number should track the scan and repair
    // work, not the safety margin the chaos tests use.
    let repaired = tracer.time("recovery.recover_within", None, || {
        cluster.recover_within(1, Duration::from_millis(2))
    });
    let repair_ms = kill.elapsed().as_secs_f64() * 1e3;
    let at_0 = cluster.handle(0);
    let granted = tracer.time("recovery.first_grant", None, || {
        at_0.acquire(lock, Mode::Write)
    });
    let total_ms = kill.elapsed().as_secs_f64() * 1e3;
    let released = at_0.release(lock);
    let report = cluster.shutdown();
    let ok = primed.is_ok()
        && granted.is_ok()
        && released.is_ok()
        && repaired >= 1
        && report.audit_errors.is_empty()
        && report.decode_errors == 0
        && report.workers_died == 0;
    round.check(ok, || {
        format!(
            "crash cycle: primed {primed:?}, repaired {repaired}, granted {granted:?}, audit {:?}",
            report.audit_errors
        )
    });
    ok.then_some((
        total_ms,
        repair_ms,
        total_ms - repair_ms,
        report.frames_fenced,
    ))
}

/// Crash → the heartbeat detector names the node, milliseconds. The
/// detector is polled with a 75 ms staleness threshold (three heartbeats).
fn detect_ms() -> f64 {
    let cluster = Cluster::new(ClusterConfig {
        nodes: NODES,
        locks: 1,
        ..ClusterConfig::default()
    });
    // Let every worker beat once before the clock starts.
    std::thread::sleep(Duration::from_millis(30));
    let kill = Instant::now();
    cluster.crash_node(1);
    while !cluster.suspects(Duration::from_millis(75)).contains(&1)
        && kill.elapsed() < Duration::from_secs(5)
    {
        std::thread::sleep(Duration::from_millis(1));
    }
    let ms = kill.elapsed().as_secs_f64() * 1e3;
    let _ = cluster.shutdown();
    ms
}

/// Phase B of `cluster_faults`.
fn crash_phase(round: &mut Round, p: &Params, tracer: &mut Tracer) {
    let cycles = p.scaled(CRASH_CYCLES, 3);
    let mut total = Vec::new();
    let mut repair = Vec::new();
    let mut grant = Vec::new();
    let mut fenced = 0;
    for _ in 0..cycles {
        round.attempted += 1;
        match crash_cycle(round, tracer) {
            Some((t, r, g, f)) => {
                total.push(t);
                repair.push(r);
                grant.push(g);
                fenced += f;
            }
            None => round.failed += 1,
        }
    }
    if let Some(ms) = stats::median(&total) {
        round.set("recovery_ms", ms);
    }
    if p.traced {
        round.set("recovery.repair_ms", stats::median(&repair).unwrap_or(0.0));
        round.set(
            "recovery.first_grant_ms",
            stats::median(&grant).unwrap_or(0.0),
        );
        round.set("recovery.frames_fenced", fenced as f64);
    }
    if p.probes {
        round.set("recovery.detect_ms", detect_ms());
    }
}

/// What the traced `cluster_faults` round learns by differencing
/// configurations: the shim's CPU per operation and its retransmissions on
/// a lossless link, and what the router thread adds to a grant.
fn differencing(round: &mut Round, p: &Params) {
    let short = LoadPlan {
        warmup: p.timed() / 10,
        timed: p.timed() / 2,
    };
    let mut off = Tracer::new(false);
    let mut run = |links| {
        let mut phase = load_phase(
            config(links, p.seed, TABLES, false),
            TABLES,
            p.seed,
            short,
            &mut off,
        );
        let cpu = ratio(phase.load.cpu_us as f64, phase.load.ops as f64);
        let p50 = stats::p50_p99(&mut phase.load.acquire_ns).0.unwrap_or(0) as f64 / 1e3;
        (cpu, p50, phase.report)
    };
    let (direct_cpu, direct_p50, _) = run(Links::Direct);
    let (shim_cpu, _, shim_report) = run(Links::DirectReliable);
    let (_, router_p50, _) = run(Links::RouterOnly);
    round.set("reliable.cpu_us_per_op_delta", shim_cpu - direct_cpu);
    round.set("transport.router_delta_us", router_p50 - direct_p50);
    round.set(
        "reliable.spurious_retransmits_per_kmsg",
        ratio(
            link_sum(&shim_report.links, |l| l.retransmits),
            link_sum(&shim_report.links, |l| l.data_sent) / 1e3,
        ),
    );
}

/// One round of `cluster_mix` (`faults == false`) or `cluster_faults`.
pub fn round(p: &Params, tracer: &mut Tracer, faults: bool) -> Round {
    let links = if faults { Links::Lossy } else { Links::Direct };
    let mut phase = load_phase(
        config(links, p.seed, TABLES, p.traced),
        TABLES,
        p.seed,
        plan(p),
        tracer,
    );
    let mut round = Round {
        setup_s: phase.setup.as_secs_f64(),
        ..Round::default()
    };
    gate(&mut round, &phase);
    load_metrics(&mut round, &mut phase.load, phase.messages);
    if p.traced {
        traced_layers(&mut round, &phase, p.probes);
    }
    if p.probes {
        // The budget needs the probed unit costs, so it is drawn up in the
        // probing round only.
        let mut budget = pipelined_budget(&round, &phase.load, phase.messages);
        if faults {
            differencing(&mut round, p);
            budget.row(
                budget::RELIABLE,
                1.0,
                round.values["reliable.cpu_us_per_op_delta"],
            );
        }
        round.budget = Some(budget);
    }
    if faults {
        crash_phase(&mut round, p, tracer);
    }
    round
}
