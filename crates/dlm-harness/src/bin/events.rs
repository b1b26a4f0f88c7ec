//! The trace analyzer: per-rule breakdowns, per-lock causal chains,
//! queue-depth and freeze-span extremes, and request spans (latency and hop
//! distributions plus the longest critical paths) from a JSONL protocol
//! trace.
//!
//! * `events <trace.jsonl>` — analyze an existing trace file.
//! * `events [nodes]` — capture the Fig. 7 workload on the simulator
//!   (hierarchical protocol, linux-cluster parameters, default 16 nodes) and
//!   check the 1:1 send contract: the trace's send-class events must sum to
//!   exactly the workload report's message count.
//! * `events cluster [nodes]` — capture a threaded-cluster run (default 4
//!   nodes) and check that every completed acquire closes its span.
//! * `events sweep` — run clusters at n ∈ {4, 16, 64} and print the
//!   hops-per-acquire vs log₂(n) table with p50/p95/p99 latencies (the
//!   EXPERIMENTS.md table).
//!
//! A capture is written to `target/traces/<name>-trace.jsonl` and re-read
//! from disk (the round trip must be lossless) before it is analyzed. A
//! trace that breaks the span grammar — a hop or grant for a request never
//! opened, a request opened or granted twice — fails the run, naming the
//! request id.
//!
//! Run with: `cargo run -p dlm-harness --bin events [-- <trace.jsonl>|<nodes>|cluster [<nodes>]|sweep]`

use dlm_cluster::{Cluster, ClusterConfig, LockId, Mode};
use dlm_metrics::Percentiles;
use dlm_trace::{jsonl, ProtocolEvent, Recorder, TraceRecord, TraceStats, VecRecorder};
use dlm_workload::{run_workload_traced, ProtocolKind, WorkloadParams};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::Path;
use std::rc::Rc;
use std::time::Duration;

fn main() {
    let mut args = std::env::args().skip(1);
    let parse_or =
        |arg: Option<String>, default| arg.and_then(|s| s.parse().ok()).unwrap_or(default);
    let records = match args.next().as_deref() {
        Some("sweep") => return sweep(),
        Some("cluster") => {
            let nodes = parse_or(args.next(), 4);
            let (records, acquires) = run_cluster(nodes, 6);
            capture(&format!("cluster{nodes}"), records, |back| {
                let grants = count(back, |e| matches!(e, ProtocolEvent::RequestGrant { .. }));
                assert_eq!(
                    grants, acquires,
                    "every completed acquire must close its span in the trace"
                );
                format!("{grants} completed acquires from {nodes} nodes")
            })
        }
        Some(path) if !path.chars().all(|c| c.is_ascii_digit()) => {
            let records = load(Path::new(path)).unwrap_or_else(|e| panic!("{e}"));
            println!("loaded {} records from {path}", records.len());
            records
        }
        arg => {
            let nodes = parse_or(arg.map(str::to_string), 16);
            let params = WorkloadParams::linux_cluster(nodes, ProtocolKind::Hier);
            let rec = Rc::new(RefCell::new(VecRecorder::new()));
            let report =
                run_workload_traced(&params, Some(Rc::clone(&rec) as Rc<RefCell<dyn Recorder>>));
            assert!(report.complete(), "workload must complete");
            let records = std::mem::take(&mut rec.borrow_mut().records);
            capture("fig7", records, |back| {
                let sends = count(back, |e| e.send_class().is_some());
                assert_eq!(
                    sends, report.messages,
                    "send-class events must equal the report's message count"
                );
                format!("{sends} sends = report messages from {nodes} nodes")
            })
        }
    };
    let analysis = analyze(&records).unwrap_or_else(|e| panic!("{e}"));
    print_analysis(&analysis, &records);
}

fn count(records: &[TraceRecord], pred: impl Fn(&ProtocolEvent) -> bool) -> u64 {
    records.iter().filter(|r| pred(&r.event)).count() as u64
}

fn load(path: &Path) -> Result<Vec<TraceRecord>, String> {
    let file = File::open(path).map_err(|e| format!("open {}: {e}", path.display()))?;
    jsonl::read_jsonl(BufReader::new(file)).map_err(|e| format!("parse {}: {e}", path.display()))
}

/// Write `records` to `target/traces/<name>-trace.jsonl`, re-read the file
/// so the analysis exercises the parser too, assert the round trip is
/// lossless, then check the capture mode's `contract` on what came back.
fn capture(
    name: &str,
    records: Vec<TraceRecord>,
    contract: impl FnOnce(&[TraceRecord]) -> String,
) -> Vec<TraceRecord> {
    let dir = Path::new("target/traces");
    std::fs::create_dir_all(dir).expect("create trace dir");
    let path = dir.join(format!("{name}-trace.jsonl"));
    let file = File::create(&path).expect("create trace file");
    jsonl::write_jsonl(BufWriter::new(file), &records).expect("write trace");
    let back = load(&path).expect("trace file round-trips");
    assert_eq!(back, records, "JSONL round-trip is lossless");
    let summary = contract(&back);
    let (n, path) = (back.len(), path.display());
    println!("captured {n} records ({summary}) -> {path}");
    back
}

/// One reconstructed request span: open event, the network legs of its
/// causal chain, and (when completed) the closing grant.
struct Span {
    start_at: u64,
    mode: Mode,
    upgrade: bool,
    /// The opening node and every network leg that landed, in hop order:
    /// `n1 -[1]-> n3 -[2]-> n0`.
    path: String,
    /// `(at, hops)` of the closing grant; `None` for incomplete spans.
    grant: Option<(u64, u32)>,
}

/// Everything the analyzer prints: the replayed [`TraceStats`] (every count
/// and distribution, span latency and hops included) plus the spans by
/// request id, which only the exemplar paths need.
struct Analysis {
    stats: TraceStats,
    spans: BTreeMap<u64, Span>,
}

/// Replay `records` into [`TraceStats`] and reconstruct the request spans,
/// rejecting traces that break the span grammar.
fn analyze(records: &[TraceRecord]) -> Result<Analysis, String> {
    let mut stats = TraceStats::new();
    let mut spans: BTreeMap<u64, Span> = BTreeMap::new();
    for r in records {
        stats.absorb(r);
        match r.event {
            ProtocolEvent::RequestStart { req, mode, upgrade } => {
                let span = Span {
                    start_at: r.at,
                    mode,
                    upgrade,
                    path: format!("n{}", r.node),
                    grant: None,
                };
                if spans.insert(req, span).is_some() {
                    return Err(format!("request {req:#x} opened twice"));
                }
            }
            ProtocolEvent::RequestHop { req, hop } => {
                let span = spans
                    .get_mut(&req)
                    .ok_or_else(|| format!("hop for unopened request {req:#x}"))?;
                span.path += &format!(" -[{hop}]-> n{}", r.node);
            }
            ProtocolEvent::RequestGrant { req, hops } => {
                let span = spans
                    .get_mut(&req)
                    .ok_or_else(|| format!("grant for unopened request {req:#x}"))?;
                if span.grant.replace((r.at, hops)).is_some() {
                    return Err(format!("request {req:#x} granted twice"));
                }
            }
            _ => {}
        }
    }
    Ok(Analysis { stats, spans })
}

/// Transport-reliability event kinds (cluster traces only: frame drops,
/// retransmissions, duplicate suppression, malformed frames).
fn is_reliability(kind: &str) -> bool {
    matches!(
        kind,
        "frame_dropped" | "retransmit" | "dup_suppressed" | "decode_error"
    )
}

fn print_analysis(Analysis { stats, spans }: &Analysis, records: &[TraceRecord]) {
    println!("\nper-rule breakdown:");
    for (rule, count) in stats.rules.iter() {
        println!("  {rule:24} {count:>8}");
    }

    println!("\nsend-class events (1:1 with wire messages):");
    for (class, count) in stats.sends.iter() {
        println!("  {class:10} {count:>8}");
    }
    println!("  {:10} {:>8}", "total", stats.total_sends());

    let (depth, freeze) = (&stats.queue_depth, &stats.freeze_spans);
    if depth.count() > 0 {
        let (max, mean, n) = (depth.max(), depth.mean(), depth.count());
        println!("\nqueue depth: max {max} (mean {mean:.2} over {n} insertions)");
    }
    if freeze.count() > 0 {
        let (max, mean, n) = (freeze.max(), freeze.mean(), freeze.count());
        println!("freeze spans: max {max} (mean {mean:.1} over {n} freezes)");
    }

    let kinds = stats.kinds.iter();
    let reliability: Vec<(&str, u64)> = kinds.filter(|(k, _)| is_reliability(k)).collect();
    if !reliability.is_empty() {
        println!("\ntransport reliability events:");
        for (kind, count) in reliability {
            println!("  {kind:16} {count:>8}");
        }
    }

    if !spans.is_empty() {
        let (lat, hops) = (&stats.span_latency, &stats.span_hops);
        let (opened, completed, max) = (spans.len(), lat.count(), lat.max());
        let Percentiles { p50, p95, p99 } = lat.percentiles();
        println!("\nrequest spans: {opened} opened, {completed} completed; latency µs p50 {p50} p95 {p95} p99 {p99} max {max}");
        println!(
            "               hops mean {:.2} p50 {} p99 {} max {}",
            hops.mean(),
            hops.quantile(0.50),
            hops.quantile(0.99),
            hops.max()
        );
        // Simulator spans carry no hop counts; only runtime traces have paths.
        if hops.max() > 0 {
            critical_paths(spans);
        }
    }

    chains(records);
}

/// The five completed spans with the most hops (earliest start first among
/// equals), each rendered as its chain of network legs.
fn critical_paths(spans: &BTreeMap<u64, Span>) {
    let mut completed: Vec<(&u64, &Span)> =
        spans.iter().filter(|(_, s)| s.grant.is_some()).collect();
    completed.sort_by_key(|(_, s)| (std::cmp::Reverse(s.grant.map(|(_, hops)| hops)), s.start_at));
    println!("\nlongest critical paths:");
    for (req, s) in completed.into_iter().take(5) {
        let (grant_at, hops) = s.grant.expect("completed");
        let (mode, latency, path) = (s.mode, grant_at.saturating_sub(s.start_at), &s.path);
        let tag = if s.upgrade { " upgrade" } else { "" };
        println!("  req {req:#x} {mode}{tag}: {hops} hops, {latency} µs  {path}");
    }
}

/// For each lock (most active first), follow one exemplar request from its
/// `request_sent` to the grant that answered it.
fn chains(records: &[TraceRecord]) {
    let mut by_lock: BTreeMap<u32, Vec<&TraceRecord>> = BTreeMap::new();
    for r in records {
        by_lock.entry(r.lock).or_default().push(r);
    }
    let mut locks: Vec<(u32, Vec<&TraceRecord>)> = by_lock.into_iter().collect();
    locks.sort_by_key(|(_, v)| std::cmp::Reverse(v.len()));

    println!("\nper-lock causal chains (one exemplar request each):");
    for (lock, recs) in locks.iter().take(8) {
        let Some(start) = recs
            .iter()
            .position(|r| matches!(r.event, ProtocolEvent::RequestSent { .. }))
        else {
            println!("  lock {lock}: {} events, no remote request", recs.len());
            continue;
        };
        let requester = recs[start].node;
        let mut chain = vec![recs[start]];
        for r in &recs[start + 1..] {
            if r.node != requester && r.event.peer() != Some(requester) {
                continue;
            }
            chain.push(r);
            let done = r.node == requester
                && matches!(
                    r.event,
                    ProtocolEvent::GrantReceived { .. }
                        | ProtocolEvent::TokenReceived { .. }
                        | ProtocolEvent::LocalGrant { .. }
                );
            if done {
                break;
            }
        }
        let span = chain.last().expect("nonempty").at - chain[0].at;
        let shown = chain.len().min(10);
        let rendered: Vec<String> = chain[..shown]
            .iter()
            .map(|r| format!("n{}:{}", r.node, r.event.kind()))
            .collect();
        let ellipsis = if chain.len() > shown { " …" } else { "" };
        println!(
            "  lock {lock} ({} events): {}{} [span {span}]",
            recs.len(),
            rendered.join(" -> "),
            ellipsis
        );
    }
}

/// Drive `ops` rounds of the two-level table/entry pattern on every node of
/// an `n`-node cluster; returns the merged trace and the number of acquires
/// performed (all of which complete).
fn run_cluster(nodes: usize, ops: u32) -> (Vec<TraceRecord>, u64) {
    let c = Cluster::new(ClusterConfig {
        nodes,
        locks: 3,
        trace_capacity: 1 << 16,
        ..Default::default()
    });
    let threads: Vec<_> = (0..nodes as u32)
        .map(|i| {
            let h = c.handle(i);
            std::thread::spawn(move || {
                // Simple per-node LCG so nodes spread over both entries
                // without sharing a seed source.
                let mut state = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
                for _ in 0..ops {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let (table, entry) = (LockId::TABLE, LockId::entry(((state >> 33) % 2) as u32));
                    h.acquire(table, Mode::IntentWrite).expect("acquire table");
                    h.acquire(entry, Mode::Write).expect("acquire entry");
                    h.release(entry).expect("release entry");
                    h.release(table).expect("release table");
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("client thread");
    }
    c.quiesce(Duration::from_millis(20));
    let report = c.shutdown();
    assert!(report.audit_errors.is_empty(), "{:?}", report.audit_errors);
    assert_eq!(report.trace_dropped, 0, "trace capacity covers the run");
    let expected = (nodes as u64) * (ops as u64) * 2;
    assert_eq!(report.acquire_latency.count(), expected);
    (report.trace, expected)
}

/// The EXPERIMENTS.md table: hops per acquire vs log₂(n), with tail
/// latencies, for n ∈ {4, 16, 64}.
fn sweep() {
    println!("    n  log2(n)   acquires hops-mean  hops-p99  hops-max   lat-p50-µs   lat-p95-µs   lat-p99-µs");
    for nodes in [4usize, 16, 64] {
        let (records, acquires) = run_cluster(nodes, if nodes >= 64 { 4 } else { 6 });
        let Analysis { stats, .. } = analyze(&records).unwrap_or_else(|e| panic!("{e}"));
        let (lat, hops) = (&stats.span_latency, &stats.span_hops);
        assert_eq!(lat.count(), acquires, "every acquire closes its span");
        let Percentiles { p50, p95, p99 } = lat.percentiles();
        let (log2, count, mean) = ((nodes as f64).log2(), lat.count(), hops.mean());
        let (hops_p99, hops_max) = (hops.quantile(0.99), hops.max());
        println!("{nodes:>5} {log2:>8.2} {count:>10} {mean:>9.2} {hops_p99:>9} {hops_max:>9} {p50:>12} {p95:>12} {p99:>12}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_cluster_trace_reproduces_its_span_numbers() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/cluster4-trace.jsonl");
        let Analysis { stats, spans } = analyze(&load(&path).unwrap()).unwrap();
        let (lat, hops) = (&stats.span_latency, &stats.span_hops);
        assert_eq!((spans.len(), lat.count()), (48, 48), "opened, completed");
        let p = lat.percentiles();
        assert_eq!((p.p50, p.p95, p.p99, lat.max()), (14, 48, 128, 139));
        assert_eq!((hops.quantile(0.99), hops.max()), (4, 4));
        assert_eq!(format!("{:.2}", hops.mean()), "1.67");
    }

    const OPEN: &str = r#"{"seq":0,"at":1,"node":0,"lock":0,"event":"request_start","req":42,"mode":"W","upgrade":false}"#;
    const GRANT: &str =
        r#"{"seq":1,"at":2,"node":0,"lock":0,"event":"request_grant","req":42,"hops":1}"#;

    fn analyze_lines(lines: &[&str]) -> Result<Analysis, String> {
        analyze(&jsonl::read_jsonl(lines.join("\n").as_bytes()).unwrap())
    }

    #[test]
    fn span_grammar_violations_name_the_request() {
        assert!(analyze_lines(&[OPEN, GRANT]).is_ok());
        let err = |lines: &[&str]| analyze_lines(lines).err().expect("rejected");
        assert_eq!(err(&[GRANT]), "grant for unopened request 0x2a");
        assert_eq!(err(&[OPEN, OPEN]), "request 0x2a opened twice");
        assert_eq!(err(&[OPEN, GRANT, GRANT]), "request 0x2a granted twice");
    }
}
