//! End-to-end checks of the benchmark itself: every workload runs (at
//! 1/50 scale) through the same command the driver uses, prints exactly
//! the names `BENCHMARK.json` promises, and passes its correctness gate.

use benchmark::load::LoadPlan;
use benchmark::metrics::{self, END_TO_END, PER_LAYER};
use benchmark::span::Tracer;
use benchmark::workloads::cluster::{self, Links};
use benchmark::workloads::{Round, Workload};
use std::collections::BTreeSet;
use std::process::Command;
use std::time::Duration;

/// `(name, value, unit)` of every metric in a result line.
fn metrics_of(line: &str) -> Vec<(String, f64, String)> {
    const KEY: &str = "\": {\"value\": ";
    let mut out = Vec::new();
    let mut rest = line;
    while let Some(at) = rest.find(KEY) {
        let name = rest[..at].rsplit('"').next().unwrap().to_string();
        let after = &rest[at + KEY.len()..];
        let (value, tail) = after.split_once(", \"unit\": \"").unwrap();
        let (unit, tail) = tail.split_once("\"}").unwrap();
        out.push((name, value.parse().unwrap(), unit.to_string()));
        rest = tail;
    }
    out
}

/// Run one workload through the binary the way the driver does.
fn drive(workload: Workload, trace: &str) -> (bool, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(["run", "--workload", workload.name()])
        .args(["--seed", "7", "--seconds", "12", "--trace", trace])
        .args(["--scale", "0.02"])
        .output()
        .expect("run the benchmark binary");
    let stdout = String::from_utf8(output.stdout).unwrap();
    let last = stdout.lines().last().unwrap_or_default().to_string();
    assert!(
        output.status.success(),
        "{} exited with {}:\n{stdout}",
        workload.name(),
        output.status
    );
    (output.status.success(), last)
}

fn assert_result_line(workload: Workload, trace: &str, table: &[metrics::Metric]) {
    let (_, line) = drive(workload, trace);
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": "),
        "{}: {line}",
        workload.name()
    );
    let printed = metrics_of(&line);
    let names: BTreeSet<&str> = printed.iter().map(|(n, _, _)| n.as_str()).collect();
    let wanted: BTreeSet<&str> = table.iter().map(|m| m.name).collect();
    assert_eq!(names, wanted, "{}", workload.name());
    assert_eq!(printed.len(), table.len(), "a name was printed twice");
    for (name, value, unit) in &printed {
        assert_eq!(unit, metrics::find(name).unwrap().unit, "{name}");
        assert!(value.is_finite(), "{name}");
    }
    if trace == "0" {
        // The driver divides by medians: an end-to-end metric is never 0.
        for (name, value, _) in &printed {
            assert!(*value > 0.0, "{} {name} = {value}", workload.name());
        }
    }
}

macro_rules! workload_tests {
    ($($test:ident => $workload:expr),* $(,)?) => {$(
        #[test]
        fn $test() {
            assert_result_line($workload, "0", END_TO_END);
            assert_result_line($workload, "1", PER_LAYER);
            let spans = benchmark::run::span_file($workload);
            let text = std::fs::read_to_string(&spans).expect("the traced run wrote its spans");
            assert!(text.lines().count() > 5, "{}", spans.display());
            assert!(text.lines().all(|l| l.starts_with("{\"id\":") && l.ends_with('}')));
        }
    )*};
}

workload_tests! {
    sim_airline_prints_every_metric => Workload::SimAirline,
    cluster_mix_prints_every_metric => Workload::ClusterMix,
    cluster_faults_prints_every_metric => Workload::ClusterFaults,
    socket_mix_prints_every_metric => Workload::SocketMix,
    socket_solo_prints_every_metric => Workload::SocketSolo,
    shard_churn_prints_every_metric => Workload::ShardChurn,
    check_explore_prints_every_metric => Workload::CheckExplore,
}

#[test]
fn the_manifest_at_the_repo_root_is_the_registry() {
    let path = benchmark::run::repo_dir().join("BENCHMARK.json");
    let on_disk = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
    assert_eq!(
        on_disk,
        metrics::manifest(),
        "regenerate with `cargo run --manifest-path benchmark/Cargo.toml -- manifest > BENCHMARK.json`"
    );
}

#[test]
fn an_unknown_workload_is_refused_without_a_result() {
    let output = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(["run", "--workload", "nope"])
        .output()
        .unwrap();
    assert!(!output.status.success());
    assert!(output.stdout.is_empty());
}

/// The 4-node × 2-table virtual-client set contends hard (eight clients on
/// two tables): the driver must finish its drain — every started operation
/// completed, nothing outstanding — rather than deadlock.
#[test]
fn the_virtual_client_driver_drains_without_deadlock() {
    let (tx, rx) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || {
        let plan = LoadPlan {
            warmup: Duration::from_millis(20),
            timed: Duration::from_millis(300),
        };
        let mut tracer = Tracer::new(true);
        let phase = cluster::load_phase(
            cluster::config(Links::Direct, 11, 2, false),
            2,
            11,
            plan,
            &mut tracer,
        );
        let mut round = Round::default();
        cluster::gate(&mut round, &phase);
        let spans: BTreeSet<&str> = tracer.spans().iter().map(|s| s.name).collect();
        tx.send((
            round.failures,
            phase.load.ops,
            phase.load.attempted,
            phase.load.failed,
            spans,
        ))
        .unwrap();
    });
    let (failures, ops, attempted, failed, spans) = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("the driver deadlocked");
    worker.join().unwrap();
    assert!(failures.is_empty(), "{failures:?}");
    assert!(ops > 100, "only {ops} operations in 300 ms");
    assert_eq!(failed, 0);
    assert!(attempted >= ops);
    // The traced driver sampled the first operation's calls and waits.
    for want in ["client.op", "handle.submit_acquire", "client.acquire_wait"] {
        assert!(spans.contains(want), "{spans:?}");
    }
}
