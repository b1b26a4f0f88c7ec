//! `socket_mix` and `socket_solo`: [`Node`] members in one process, every
//! inter-member frame crossing a real loopback TCP socket.
//!
//! * `socket_mix`: three members, 16 tables, the virtual-client load of
//!   [`crate::load`] — many requests in flight, so the coalescer packs
//!   several protocol frames into each wire frame and syscalls amortise.
//! * `socket_solo`: two members, one blocking `Write` ping-pong
//!   alternating between them — one request in flight, nothing to coalesce,
//!   so the poll loops' idle and wake-up latency is what a caller waits
//!   for. The whole process is pinned to one CPU (see
//!   [`super::Workload::pinned`]); latency there is processor time plus
//!   context switches on loopback, not a network.

use super::cluster::{handle_metrics, link_metrics, load_gate, load_metrics, pipelined_budget};
use super::{Params, Round};
use crate::budget::{self, Budget};
use crate::env;
use crate::load::{Driver, LoadPlan, LOCKS_PER_TABLE};
use crate::probes;
use crate::span::Tracer;
use crate::stats;
use dlm_cluster::{
    audit_process_states, Cluster, ClusterConfig, LinkReport, LockId, Mode, Node, NodeConfig,
    NodeHandle, NodeReport, ReliableConfig, SocketConfig,
};
use dlm_core::ProtocolConfig;
use dlm_trace::TraceStats;
use std::time::{Duration, Instant};

/// Members of `socket_mix`.
pub const MIX_NODES: usize = 3;
/// Tables of `socket_mix`.
pub const MIX_TABLES: u32 = 16;
/// Per-worker flight-recorder capacity of a traced round.
const TRACE_CAPACITY: usize = 1 << 16;

/// Spawn `nodes` members on fresh loopback ports and wait until every
/// member has served a request over every link, so the timed phase never
/// waits for a dial. The last lock id is reserved for this handshake.
fn spawn(cluster: ClusterConfig) -> std::io::Result<Vec<Node>> {
    let addrs = (0..cluster.nodes)
        .map(|_| std::net::TcpListener::bind("127.0.0.1:0")?.local_addr())
        .collect::<std::io::Result<Vec<_>>>()?;
    let nodes = (0..cluster.nodes as u32)
        .map(|me| {
            Node::new(NodeConfig {
                cluster,
                socket: SocketConfig::tcp(me, addrs.clone()),
            })
        })
        .collect::<std::io::Result<Vec<_>>>()?;
    let handshake = LockId(cluster.locks as u32 - 1);
    for node in &nodes {
        let h = node.handle();
        h.acquire(handshake, Mode::Write)
            .and_then(|()| h.release(handshake))
            .map_err(|e| std::io::Error::other(format!("handshake at {}: {e}", node.id())))?;
    }
    Ok(nodes)
}

/// Global quiescence of a member set: every member idle at once with the
/// message sum stable for `window`.
fn quiesce(nodes: &[Node], window: Duration, timeout: Duration) -> bool {
    let deadline = Instant::now() + timeout;
    let sum = || nodes.iter().map(Node::messages_sent).sum::<u64>();
    let mut last = sum();
    let mut stable = Instant::now();
    while Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
        let now = sum();
        if now != last || !nodes.iter().all(Node::is_idle) {
            last = now;
            stable = Instant::now();
        } else if stable.elapsed() >= window {
            return true;
        }
    }
    false
}

/// What a shut-down member set reported, merged.
struct Members {
    messages: u64,
    links: Vec<LinkReport>,
    reports: Vec<NodeReport>,
    shutdown: Duration,
}

/// Quiesce, shut down and gate a member set.
fn finish(round: &mut Round, nodes: Vec<Node>, tracer: &mut Tracer) -> Members {
    let quiet = tracer.time("socket.quiesce", None, || {
        quiesce(&nodes, Duration::from_millis(5), Duration::from_secs(30))
    });
    round.check(quiet, || "the members never quiesced".into());
    let messages = nodes.iter().map(Node::messages_sent).sum();
    let t = Instant::now();
    let reports: Vec<NodeReport> = tracer.time("socket.shutdown", None, || {
        nodes.into_iter().map(Node::shutdown).collect()
    });
    let shutdown = t.elapsed();
    let sum = |f: fn(&NodeReport) -> u64| reports.iter().map(f).sum::<u64>();
    let (decode, fenced, died, dropped) = (
        sum(|r| r.decode_errors),
        sum(|r| r.frames_fenced),
        sum(|r| r.workers_died),
        sum(|r| r.replies_dropped),
    );
    round.check(decode == 0 && fenced == 0 && died == 0 && dropped == 0, || {
        format!(
            "decode errors {decode}, frames fenced {fenced}, workers died {died}, replies dropped {dropped}"
        )
    });
    let states: Vec<_> = reports.iter().map(|r| r.states.clone()).collect();
    let errors = audit_process_states(ProtocolConfig::paper(), &states);
    round.check(errors.is_empty(), || format!("final audit: {errors:?}"));
    // Each link is reported by both of its ends; keep the sender's row,
    // which owns the counters of that direction.
    let links = reports
        .iter()
        .enumerate()
        .flat_map(|(me, r)| r.links.iter().filter(move |l| l.from == me as u32))
        .copied()
        .collect();
    Members {
        messages,
        links,
        reports,
        shutdown,
    }
}

/// The socket-layer metrics of a traced round.
fn socket_layers(round: &mut Round, m: &Members, ops: f64, connect: Duration, probe: bool) {
    let sum = |f: fn(&LinkReport) -> u64| m.links.iter().map(f).sum::<u64>() as f64;
    link_metrics(round, &m.links);
    round.set("socket.wire_bytes_per_op", sum(|l| l.wire_bytes) / ops);
    round.set(
        "socket.wire_frames_per_op",
        (sum(|l| l.wire_sent) + sum(|l| l.retransmits) + sum(|l| l.acks_sent)) / ops,
    );
    round.set("socket.connect_ms", connect.as_secs_f64() * 1e3);
    round.set("socket.resets", sum(|l| l.resets));
    round.set("runtime.shutdown_ms", m.shutdown.as_secs_f64() * 1e3);
    let mut hops = dlm_metrics::Histogram::new();
    let mut latency = dlm_metrics::Histogram::new();
    let mut events = 0;
    for r in &m.reports {
        hops.merge(&r.acquire_hops);
        latency.merge(&r.acquire_latency);
        events += r.trace.len() as u64 + r.trace_dropped;
    }
    round.set("runtime.hops_p50", hops.quantile(0.5) as f64);
    round.set("runtime.hops_p99", hops.quantile(0.99) as f64);
    round.set(
        "runtime.worker_latency_p50_us",
        latency.quantile(0.5) as f64,
    );
    round.set("trace.events_per_op", events as f64 / ops);
    if probe {
        let mut mix = TraceStats::new();
        for record in m.reports.iter().flat_map(|r| &r.trace) {
            mix.absorb(record);
        }
        probes::codec_layers(round, &mix);
        probes::core_layers(round);
        probes::metrics_layer(round);
    }
}

/// Spawn the members of a round; a failure to do so fails the round.
fn members(
    round: &mut Round,
    nodes: usize,
    locks: usize,
    traced: bool,
    tracer: &mut Tracer,
) -> Option<Vec<Node>> {
    let config = ClusterConfig {
        nodes,
        // Plus the handshake lock of `spawn`.
        locks: locks + 1,
        trace_capacity: if traced { TRACE_CAPACITY } else { 0 },
        ..ClusterConfig::default()
    };
    match tracer.time("socket.members", None, || spawn(config)) {
        Ok(nodes) => Some(nodes),
        Err(e) => {
            round.attempted = 1;
            round.failed = 1;
            round.failures.push(format!("spawning members: {e}"));
            None
        }
    }
}

/// One round of `socket_mix`.
pub fn mix_round(p: &Params, tracer: &mut Tracer) -> Round {
    let round_start = Instant::now();
    let mut round = Round::default();
    let locks = (MIX_TABLES * LOCKS_PER_TABLE) as usize;
    let Some(nodes) = members(&mut round, MIX_NODES, locks, p.traced, tracer) else {
        return round;
    };
    let connect = round_start.elapsed();
    let pipes = nodes.iter().map(|n| n.handle().pipeline()).collect();
    let messages = || nodes.iter().map(Node::messages_sent).sum::<u64>();
    let plan = LoadPlan {
        warmup: p.timed() / 10,
        timed: p.timed(),
    };
    let (mut load, setup_done) =
        Driver::new(pipes, MIX_TABLES, p.seed, tracer, &messages).run(plan);
    round.setup_s = (setup_done - round_start).as_secs_f64();
    let m = finish(&mut round, nodes, tracer);
    load_gate(&mut round, &load);
    let messages = m.messages - load.messages_at_start;
    load_metrics(&mut round, &mut load, messages);
    if p.traced {
        let ops = load.ops as f64;
        handle_metrics(&mut round, &load);
        socket_layers(&mut round, &m, ops, connect, p.probes);
        round.set("core.msgs_per_op", messages as f64 / ops);
        round.set(
            "core.steps_per_op",
            (load.submit.calls + messages) as f64 / ops,
        );
    }
    if p.probes {
        probes::shard_layers(&mut round, locks, 1);
        round.budget = Some(pipelined_budget(&round, &load, messages));
    }
    round
}

/// What one blocking ping-pong measured.
pub struct Solo {
    /// Blocking time of every timed acquire, ns.
    pub acquire_ns: Vec<u64>,
    /// Timed handoffs (acquire + release at alternating members).
    pub handoffs: u64,
    /// Timed phase, ns.
    pub wall_ns: u64,
    /// Handoffs started, warm-up included.
    pub attempted: u64,
    /// Calls that returned an error.
    pub failed: u64,
    /// First error seen.
    pub first_error: Option<String>,
    /// Process CPU during the timed phase, µs.
    pub cpu_us: u64,
    /// Context switches of all threads during the timed phase.
    pub ctx_switches: u64,
    /// When the timed phase began.
    pub setup_done: Instant,
}

/// One request in flight: `Write` on `lock`, alternating between the two
/// handles, each acquire dragging the token across.
pub fn ping_pong(
    handles: [&NodeHandle; 2],
    lock: LockId,
    warmup: Duration,
    timed: Duration,
    tracer: &mut Tracer,
) -> Solo {
    let mut solo = Solo {
        acquire_ns: Vec::new(),
        handoffs: 0,
        wall_ns: 0,
        attempted: 0,
        failed: 0,
        first_error: None,
        cpu_us: 0,
        ctx_switches: 0,
        setup_done: Instant::now(),
    };
    let handoff = |solo: &mut Solo, tracer: &mut Tracer, i: u64, timing: bool| {
        let h = handles[(i % 2) as usize];
        solo.attempted += 1;
        let span = if timing && i.is_multiple_of(crate::load::SPAN_SAMPLE) {
            tracer.enter("handle.acquire", None, i)
        } else {
            None
        };
        let t = Instant::now();
        let got = h.acquire(lock, Mode::Write);
        let ns = t.elapsed().as_nanos() as u64;
        tracer.exit(span);
        match got.and_then(|()| h.release(lock)) {
            Ok(()) if timing => {
                solo.acquire_ns.push(ns);
                solo.handoffs += 1;
            }
            Ok(()) => {}
            Err(e) => {
                solo.failed += 1;
                solo.first_error.get_or_insert_with(|| e.to_string());
            }
        }
    };
    let mut i = 0;
    let warm_until = Instant::now() + warmup;
    while Instant::now() < warm_until && solo.failed == 0 {
        handoff(&mut solo, tracer, i, false);
        i += 1;
    }
    solo.setup_done = Instant::now();
    let cpu0 = env::cpu_us();
    let ctx0 = env::ctx_switches_all_threads();
    let deadline = solo.setup_done + timed;
    while Instant::now() < deadline && solo.failed == 0 {
        handoff(&mut solo, tracer, i, true);
        i += 1;
    }
    solo.wall_ns = solo.setup_done.elapsed().as_nanos() as u64;
    solo.cpu_us = env::cpu_us() - cpu0;
    solo.ctx_switches = env::ctx_switches_all_threads() - ctx0;
    solo
}

/// Median handoff of a short in-process ping-pong, µs: the baselines the
/// TCP number is differenced against.
fn in_process_handoff_us(reliable: bool, p: &Params) -> Option<f64> {
    let cluster = Cluster::new(ClusterConfig {
        nodes: 2,
        reliable: reliable.then(ReliableConfig::default),
        ..ClusterConfig::default()
    });
    let (h0, h1) = (cluster.handle(0), cluster.handle(1));
    let mut solo = ping_pong(
        [&h1, &h0],
        LockId::TABLE,
        p.timed() / 20,
        p.timed() / 4,
        &mut Tracer::new(false),
    );
    let report = cluster.shutdown();
    let clean = solo.failed == 0 && report.audit_errors.is_empty();
    let p50 = stats::p50_p99(&mut solo.acquire_ns).0?;
    clean.then_some(p50 as f64 / 1e3)
}

/// One round of `socket_solo`.
pub fn solo_round(p: &Params, tracer: &mut Tracer) -> Round {
    let round_start = Instant::now();
    let mut round = Round::default();
    let Some(nodes) = members(&mut round, 2, 1, p.traced, tracer) else {
        return round;
    };
    let connect = round_start.elapsed();
    let (h0, h1) = (nodes[0].handle(), nodes[1].handle());
    // Messages are counted from here, over warm-up and timed phase alike:
    // a blocking loop costs the same messages per handoff in both.
    let start_messages = nodes.iter().map(Node::messages_sent).sum::<u64>();
    let mut solo = ping_pong([&h1, &h0], LockId::TABLE, p.timed() / 10, p.timed(), tracer);
    round.setup_s = (solo.setup_done - round_start).as_secs_f64();
    drop((h0, h1));
    let m = finish(&mut round, nodes, tracer);
    let messages = m.messages - start_messages;

    round.attempted = solo.attempted;
    round.failed = solo.failed;
    round.check(solo.failed == 0, || {
        format!(
            "{} handoffs failed; first: {}",
            solo.failed,
            solo.first_error.as_deref().unwrap_or("?")
        )
    });
    round.check(solo.handoffs > 0, || "no handoff completed".into());
    let ops = solo.handoffs as f64;
    round.set("ops_per_s", ops / (solo.wall_ns as f64 / 1e9));
    round.set(
        "msgs_per_request",
        messages as f64 / (solo.attempted - solo.failed) as f64,
    );
    let (p50, p99) = stats::p50_p99(&mut solo.acquire_ns);
    let p99_us = p99.map(|ns| ns as f64 / 1e3);
    round.set_opt("acquire_p50_us", p50.map(|ns| ns as f64 / 1e3));
    round.set_opt("acquire_p99_us", p99_us);
    // Every acquire is a Write, so the Write tail is the acquire tail.
    round.set_opt("write_p99_us", p99_us);

    if p.traced {
        socket_layers(&mut round, &m, ops, connect, p.probes);
        let msgs_per_op = round.values["msgs_per_request"];
        round.set("core.msgs_per_op", msgs_per_op);
        round.set("core.steps_per_op", 2.0 + msgs_per_op);
        round.set("process.cpu_us_per_op", solo.cpu_us as f64 / ops);
        round.set(
            "process.ctx_switches_per_op",
            solo.ctx_switches as f64 / ops,
        );
    }
    if p.probes {
        // The three pinned solo runs: in-process, in-process with the
        // shim, TCP (this round). Each delta is what one layer adds to a
        // handoff with nothing else in flight.
        let tcp = p50.unwrap_or(0) as f64 / 1e3;
        let mut budget = Budget::new(solo.wall_ns as f64 / 1e3 / ops);
        if let (Some(direct), Some(shim)) = (
            in_process_handoff_us(false, p),
            in_process_handoff_us(true, p),
        ) {
            round.set("transport.direct.handoff_us", direct);
            round.set("reliable.handoff_delta_us", shim - direct);
            round.set("socket.handoff_delta_us", tcp - shim);
            budget.row(budget::TRANSPORT, 1.0, direct);
            budget.row(budget::RELIABLE, 1.0, shim - direct);
            budget.row(budget::SOCKET, 1.0, tcp - shim);
        } else {
            round
                .failures
                .push("an in-process baseline ping-pong failed".into());
        }
        round.budget = Some(budget);
    }
    round
}
