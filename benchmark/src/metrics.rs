//! The metric registry: every name the benchmark prints, with its unit and
//! direction, and for end-to-end metrics the regression bound. The
//! `BENCHMARK.json` at the repo root is generated from these tables
//! (`benchmark manifest`), so the two cannot drift apart.

use crate::workloads::Workload;

/// Whether a larger or a smaller value is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric of the registry.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Printed name.
    pub name: &'static str,
    /// Unit, in the driver's alphabet.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only; 0 for per-layer metrics, which have none).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// What a caller of `acquire`/`upgrade`/`release` feels. Values come from
/// untraced runs only.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("ops_per_s", "ops/s", Higher, 0.25),
    e2e("acquire_p50_us", "us", Lower, 0.25),
    e2e("acquire_p99_us", "us", Lower, 0.25),
    e2e("write_p99_us", "us", Lower, 0.25),
    e2e("msgs_per_request", "ratio", Lower, 0.05),
    e2e("latency_factor", "ratio", Lower, 0.05),
    e2e("recovery_ms", "ms", Lower, 0.25),
    e2e("states_per_s", "states/s", Higher, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.15),
];

/// One or more numbers per module, from the traced run. The module names
/// are the layers.
pub const PER_LAYER: &[Metric] = &[
    layer("modes.table_lookup_ns", "ns", Lower),
    layer("core.local_admit_ns", "ns", Lower),
    layer("core.child_grant_ns", "ns", Lower),
    layer("core.token_transfer_ns", "ns", Lower),
    layer("core.step_ns", "ns", Lower),
    layer("core.steps_per_op", "count", Lower),
    layer("core.msgs_per_op", "count", Lower),
    layer("core.copyset_n64_ns", "ns", Lower),
    layer("core.state_codec_ns", "ns", Lower),
    layer("naimi.msgs_per_request", "ratio", Lower),
    layer("naimi.step_ns", "ns", Lower),
    layer("sim.event_ns", "ns", Lower),
    layer("sim.events_per_op", "count", Lower),
    layer("workload.plan_ns", "ns", Lower),
    layer("workload.request_p50_ms", "ms", Lower),
    layer("workload.request_p99_ms", "ms", Lower),
    layer("workload.queue_depth_p99", "count", Lower),
    layer("workload.freeze_span_p99_ms", "ms", Lower),
    layer("workload.local_admit_share", "ratio", Higher),
    layer("workload.child_grant_share", "ratio", Higher),
    layer("workload.msgs_request_per_req", "ratio", Lower),
    layer("workload.msgs_grant_per_req", "ratio", Lower),
    layer("workload.msgs_token_per_req", "ratio", Lower),
    layer("workload.msgs_release_per_req", "ratio", Lower),
    layer("workload.msgs_freeze_per_req", "ratio", Lower),
    layer("handle.submit_ns", "ns", Lower),
    layer("handle.flush_ns", "ns", Lower),
    layer("handle.recv_ns", "ns", Lower),
    layer("handle.idle_sweep_share", "ratio", Lower),
    layer("shard.route_ns", "ns", Lower),
    layer("shard.gate_ns", "ns", Lower),
    layer("shard.rejections", "count", Lower),
    layer("runtime.local_op_us", "us", Lower),
    layer("runtime.hops_p50", "count", Lower),
    layer("runtime.hops_p99", "count", Lower),
    layer("runtime.worker_latency_p50_us", "us", Lower),
    layer("runtime.shutdown_ms", "ms", Lower),
    layer("codec.encode_ns", "ns", Lower),
    layer("codec.decode_ns", "ns", Lower),
    layer("codec.container_ns_per_frame", "ns", Lower),
    layer("codec.bytes_per_frame", "B", Lower),
    layer("coalesce.proto_per_wire", "ratio", Higher),
    layer("transport.direct.handoff_us", "us", Lower),
    layer("transport.router_delta_us", "us", Lower),
    layer("transport.dropped_share", "ratio", Lower),
    layer("reliable.handoff_delta_us", "us", Lower),
    layer("reliable.cpu_us_per_op_delta", "us", Lower),
    layer("reliable.retransmits_per_kmsg", "count", Lower),
    layer("reliable.spurious_retransmits_per_kmsg", "count", Lower),
    layer("reliable.acks_per_data", "ratio", Lower),
    layer("reliable.dups_suppressed_per_kmsg", "count", Lower),
    layer("reliable.reorders_buffered_per_kmsg", "count", Lower),
    layer("socket.handoff_delta_us", "us", Lower),
    layer("socket.wire_bytes_per_op", "B", Lower),
    layer("socket.wire_frames_per_op", "count", Lower),
    layer("socket.connect_ms", "ms", Lower),
    layer("socket.resets", "count", Lower),
    layer("recovery.detect_ms", "ms", Lower),
    layer("recovery.repair_ms", "ms", Lower),
    layer("recovery.first_grant_ms", "ms", Lower),
    layer("recovery.frames_fenced", "count", Lower),
    layer("check.apply_ns", "ns", Lower),
    layer("check.enabled_ns", "ns", Lower),
    layer("check.plain_fp_ns", "ns", Lower),
    layer("check.canon_fp_ns", "ns", Lower),
    layer("check.audit_ns", "ns", Lower),
    layer("check.group_order", "count", Higher),
    layer("check.states", "count", Lower),
    layer("check.transitions", "count", Lower),
    layer("check.w2_states_per_s", "states/s", Higher),
    layer("metrics.hist_record_ns", "ns", Lower),
    layer("trace.events_per_op", "count", Lower),
    layer("trace.overhead_pct", "%", Lower),
    layer("process.cpu_us_per_op", "us", Lower),
    layer("process.ctx_switches_per_op", "count", Lower),
];

/// Look a metric up by name in either table.
pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// How long one run measures, seconds: `run_seconds` of the manifest and
/// the default of `--seconds`.
pub const RUN_SECONDS: u32 = 12;

/// Render `BENCHMARK.json`.
pub fn manifest() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\", \"run\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    let workloads: Vec<String> = Workload::ALL
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                w.name(),
                w.why()
            )
        })
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            )
        })
        .collect();
    out.push_str(&format!(
        "  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    ));
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn legal_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.as_bytes()[0].is_ascii_alphanumeric()
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    }

    #[test]
    fn the_registry_stays_inside_the_drivers_limits() {
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((2..=8).contains(&Workload::ALL.len()));
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(legal_name(m.name), "{}", m.name);
            assert!(seen.insert(m.name), "{} used twice", m.name);
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit
                        .bytes()
                        .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b)),
                "{}",
                m.unit
            );
        }
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        for w in Workload::ALL {
            assert!(legal_name(w.name()) && seen.insert(w.name()));
            assert!(w.why().len() <= 200 && !w.why().contains(['\n', '"']));
        }
        let setup = find("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(manifest().len() < 64 * 1024);
    }
}
