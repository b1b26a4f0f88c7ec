//! Aggregated results of one workload run.

use crate::params::WorkloadParams;
use dlm_metrics::Histogram;
use dlm_sim::Micros;
use serde::Serialize;

/// Results of one simulated experiment (one point of one figure series).
#[derive(Debug, Clone, Serialize)]
pub struct WorkloadReport {
    /// The parameters that produced this report.
    pub params: WorkloadParams,
    /// Total lock requests issued across all nodes (including message-free
    /// local admissions and upgrade requests).
    pub requests: u64,
    /// Total protocol messages sent.
    pub messages: u64,
    /// Operations completed across all nodes.
    pub ops_completed: u64,
    /// Operations expected (`nodes × ops_per_node`).
    pub ops_expected: u64,
    /// Upgrades performed.
    pub upgrades: u64,
    /// Virtual end time of the run.
    pub end_time: Micros,
    /// Whether the run quiesced (all traffic drained before the horizon).
    pub quiesced: bool,
    /// Per-request wait distribution, µs.
    pub request_latency: Histogram,
    /// Per-operation wait (first request → CS entry) distribution, µs.
    pub op_latency: Histogram,
    /// Per-operation wait split by operation kind (mix order IR,R,U,IW,W).
    pub op_latency_by_kind: [Histogram; 5],
    /// Messages by protocol kind (request/grant/token/release/freeze).
    pub sent_by_kind: dlm_metrics::CounterSet,
    /// Structured-trace events per paper rule (`rule3.1-child-grant`, …).
    /// Empty for Naimi runs (only the hierarchical protocol is traced).
    pub rule_counters: dlm_metrics::CounterSet,
    /// Send-class trace events per wire kind; sums to [`Self::messages`]
    /// exactly on hierarchical runs (the 1:1 event↔send contract).
    pub trace_sends: dlm_metrics::CounterSet,
    /// Local queue depth observed at every queue insertion.
    pub queue_depth: Histogram,
    /// Per-(lock, node) freeze durations, µs of virtual time.
    pub freeze_spans: Histogram,
}

impl WorkloadReport {
    /// Messages per lock request — the paper's Fig. 7 / Fig. 9 metric.
    pub fn messages_per_request(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.messages as f64 / self.requests as f64
        }
    }

    /// Messages per *functional* request: the request count the application
    /// demanded (one per operation — exactly Naimi-pure's request count).
    /// This is the normalization under which the paper's same-work series is
    /// comparable to the pure one: the `entries − 1` extra acquisitions a
    /// same-work whole-table operation performs are protocol overhead, not
    /// application demand.
    pub fn messages_per_functional_request(&self) -> f64 {
        if self.ops_completed == 0 {
            0.0
        } else {
            self.messages as f64 / self.ops_completed as f64
        }
    }

    /// Mean per-request wait divided by the mean one-way network latency —
    /// the Fig. 8 "latency factor".
    pub fn latency_factor(&self) -> f64 {
        if self.params.latency.mean == 0 {
            return 0.0;
        }
        self.request_latency.mean() / self.params.latency.mean as f64
    }

    /// True if every node completed its operations.
    pub fn complete(&self) -> bool {
        self.ops_completed == self.ops_expected
    }
}
