//! The seven workloads. Each module exposes `round`: one fresh set-up, one
//! timed phase, one teardown with its correctness gate. A run is
//! [`ROUNDS`] rounds in one process; every reported number is the median
//! round, which is what keeps one descheduled second out of the result.

pub mod check_explore;
pub mod cluster;
pub mod shard_churn;
pub mod sim_airline;
pub mod socket;

use crate::span::Tracer;
use std::collections::BTreeMap;

/// Rounds per run: an odd count, so the median is a measured round and up
/// to four disturbed rounds leave it alone. Many short rounds rather than
/// few long ones because the socket workloads' throughput is chaotic from
/// one second to the next (37 k–75 k ops/s between rounds of one run on the
/// reference VM) and only a median over many rounds settles it.
pub const ROUNDS: usize = 9;

/// The default `--seed`; the goldens are recorded for it.
pub const DEFAULT_SEED: u64 = 0x5EED;

/// One named set of inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Workload {
    /// The paper's experiment under the simulator, virtual time.
    SimAirline,
    /// In-process cluster, perfect links.
    ClusterMix,
    /// In-process cluster, 5 % loss + crash cycles.
    ClusterFaults,
    /// Loopback TCP members under load.
    SocketMix,
    /// Loopback TCP members, one request in flight.
    SocketSolo,
    /// One node, a large lock table, no messages.
    ShardChurn,
    /// The model checker.
    CheckExplore,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 7] = [
        Workload::SimAirline,
        Workload::ClusterMix,
        Workload::ClusterFaults,
        Workload::SocketMix,
        Workload::SocketSolo,
        Workload::ShardChurn,
        Workload::CheckExplore,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SimAirline => "sim_airline",
            Workload::ClusterMix => "cluster_mix",
            Workload::ClusterFaults => "cluster_faults",
            Workload::SocketMix => "socket_mix",
            Workload::SocketSolo => "socket_solo",
            Workload::ShardChurn => "shard_churn",
            Workload::CheckExplore => "check_explore",
        }
    }

    /// Why the workload exists, in one line.
    pub fn why(self) -> &'static str {
        match self {
            Workload::SimAirline => {
                "the paper's 120-node airline experiment in virtual time: only core, sim and workload run, counts repeat exactly, so protocol-rule changes show here and nowhere else"
            }
            Workload::ClusterMix => {
                "read-mostly contended traffic through handle, runtime, core, codec, coalescer and Direct links; bypasses reliable and socket, so a gain there must predict no change here"
            }
            Workload::ClusterFaults => {
                "same clients over 5 % drop/duplicate/reorder with the reliability shim, then crash-and-recover cycles: the shim and router do the work and time without service is measured"
            }
            Workload::SocketMix => {
                "three members over loopback TCP under load: framing, readiness-poll loops and syscalls amortised by coalescing"
            }
            Workload::SocketSolo => {
                "two TCP members, one blocking Write ping-pong pinned to one CPU: nothing to coalesce, so poll-idle and wake-up latency dominate; processor time plus context switches on loopback"
            }
            Workload::ShardChurn => {
                "one node, two shards, a lock table far larger than the cache and zero messages: the service layer alone, all-Write local traffic beside cluster_mix's read-mostly remote traffic"
            }
            Workload::CheckExplore => {
                "the model checker on a 5-node star with two locks under symmetry reduction: the only workload where dlm-check works; every other workload predicts no change"
            }
        }
    }

    /// Parse a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the child process is pinned to CPU 0. A single request in
    /// flight bounces between two threads; unpinned, its latency is decided
    /// by where the scheduler happened to put them for the life of the
    /// process (8.5 µs or 90 µs in-process on the reference VM).
    pub fn pinned(self) -> bool {
        self == Workload::SocketSolo
    }

    /// One round of this workload.
    pub fn round(self, p: &Params, tracer: &mut Tracer) -> Round {
        match self {
            Workload::SimAirline => sim_airline::round(p, tracer),
            Workload::ClusterMix => cluster::round(p, tracer, false),
            Workload::ClusterFaults => cluster::round(p, tracer, true),
            Workload::SocketMix => socket::mix_round(p, tracer),
            Workload::SocketSolo => socket::solo_round(p, tracer),
            Workload::ShardChurn => shard_churn::round(p, tracer),
            Workload::CheckExplore => check_explore::round(p, tracer),
        }
    }
}

/// What the command line fixes for a run.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Seed of every generated input.
    pub seed: u64,
    /// Timed seconds of *one round* at scale 1.
    pub round_seconds: f64,
    /// Size multiplier for every fixed quantity (lock tables, operation
    /// counts, timed phases); 1.0 is the benchmark, the tests use 1/50.
    pub scale: f64,
    /// Whether this round is traced: spans on, the program's own event
    /// trace on, per-layer metrics reported.
    pub traced: bool,
    /// Whether this round also runs the layer probes and the differencing
    /// runs (the first traced round of a run; they cost seconds, and once
    /// is enough for a unit cost).
    pub probes: bool,
}

impl Params {
    /// The timed phase of one round.
    pub fn timed(&self) -> std::time::Duration {
        std::time::Duration::from_secs_f64(self.round_seconds * self.scale)
    }

    /// `n` scaled, at least `floor`.
    pub fn scaled(&self, n: u64, floor: u64) -> u64 {
        ((n as f64 * self.scale).round() as u64).max(floor)
    }
}

/// What one round measured.
#[derive(Debug, Default)]
pub struct Round {
    /// Whether the round ran traced (set by the caller of `round`).
    pub traced: bool,
    /// Round start → first timed operation, seconds.
    pub setup_s: f64,
    /// Operations (or repetitions) started.
    pub attempted: u64,
    /// Operations that failed, were refused, or did not complete.
    pub failed: u64,
    /// Metric values by registry name: the end-to-end metrics this
    /// workload exercises and, in a traced round, its per-layer metrics.
    pub values: BTreeMap<&'static str, f64>,
    /// Raw waits of this round's table-level `Write` acquires, ns. They are
    /// 1 % of the operations — too few per round for a 99th percentile — so
    /// `write_p99_us` is taken over the pooled samples of the whole run.
    pub write_ns: Vec<u64>,
    /// Correctness-gate findings; empty means the round is correct.
    pub failures: Vec<String>,
    /// Rows of the per-layer budget (traced threaded rounds).
    pub budget: Option<crate::budget::Budget>,
}

impl Round {
    /// Record a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(crate::metrics::find(name).is_some(), "unregistered {name}");
        self.values.insert(name, value);
    }

    /// Record a metric value if the sample supported one.
    pub fn set_opt(&mut self, name: &'static str, value: Option<f64>) {
        if let Some(v) = value {
            self.set(name, v);
        }
    }

    /// Record a gate failure unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }
}
