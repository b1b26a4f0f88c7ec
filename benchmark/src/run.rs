//! Running a workload: the child process that measures, the parent that
//! spawns it, and the arithmetic between rounds and reported numbers.
//!
//! Every workload runs in a process of its own, so that `peak_rss_mb` is
//! that workload's high-water mark and CPU pinning applies to it alone.
//! The child prints one `key value` line per fact; the parent turns those
//! into the human table and the driver's JSON line.

use crate::budget::Budget;
use crate::env::{self, Environment};
use crate::metrics::{self, Metric, END_TO_END, PER_LAYER};
use crate::span::Tracer;
use crate::stats;
use crate::workloads::{Params, Round, Workload, ROUNDS};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// What the command line asked of one workload run.
#[derive(Debug, Clone, Copy)]
pub struct Request {
    /// Which workload.
    pub workload: Workload,
    /// Seed of the generated inputs.
    pub seed: u64,
    /// Timed seconds of the whole run (split over [`ROUNDS`] rounds).
    pub seconds: f64,
    /// Size multiplier, 1.0 for the benchmark proper.
    pub scale: f64,
    /// The traced run: per-layer metrics, spans, budget.
    pub traced: bool,
}

/// The result of one workload run.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations started over all rounds.
    pub attempted: u64,
    /// Operations failed or refused over all rounds.
    pub failed: u64,
    /// Correctness-gate findings (empty = correct).
    pub failures: Vec<String>,
    /// Reported value of every metric this run produced.
    pub metrics: BTreeMap<String, f64>,
    /// Names reported although the workload does not exercise them (see
    /// [`stand_ins`]).
    pub stand_ins: Vec<String>,
    /// Budget table of a traced threaded run.
    pub budget: Option<Budget>,
    /// Whether the child ran pinned to CPU 0.
    pub pinned: bool,
}

impl Outcome {
    /// Whether every gate passed and nothing failed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.failed == 0
    }
}

/// Where span files go: `benchmark/out/`.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The span file of `workload`'s traced run.
pub fn span_file(workload: Workload) -> PathBuf {
    out_dir().join(format!("trace-{}.jsonl", workload.name()))
}

/// The metrics a run reports: per-layer when traced, end-to-end otherwise.
fn table(traced: bool) -> &'static [Metric] {
    if traced {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// The repository under test: the parent of `benchmark/`.
pub fn repo_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .map_or_else(|| PathBuf::from("."), Path::to_path_buf)
}

/// Median over the rounds that reported `name`.
fn median_of(rounds: &[&Round], name: &str) -> Option<f64> {
    let values: Vec<f64> = rounds
        .iter()
        .filter_map(|r| r.values.get(name).copied())
        .collect();
    stats::median(&values)
}

/// Fill the end-to-end names `workload` does not exercise.
///
/// The driver requires every workload to print every end-to-end metric,
/// and a value that is never zero. A name a workload cannot measure
/// therefore repeats a number the same run did measure, so that it can
/// never signal anything the native metric does not already signal:
///
/// * a wait (`*_us`) repeats the workload's own median wait,
///   `acquire_p50_us`; on `check_explore`, which has no acquire, the wall
///   time per explored state;
/// * `recovery_ms`, time without service after a crash, repeats the time
///   without service after a cold start: `setup_s` in milliseconds;
/// * `states_per_s` repeats `ops_per_s`;
/// * a ratio (`msgs_per_request`, `latency_factor`) prints 1.
///
/// Returns the names filled.
pub fn stand_ins(metrics: &mut BTreeMap<String, f64>) -> Vec<String> {
    let mut filled = Vec::new();
    let median_wait_us = metrics
        .get("acquire_p50_us")
        .copied()
        .or_else(|| metrics.get("states_per_s").map(|s| 1e6 / s));
    for m in END_TO_END {
        if metrics.contains_key(m.name) {
            continue;
        }
        let value = match m.unit {
            "us" => median_wait_us,
            "ms" => metrics.get("setup_s").map(|s| s * 1e3),
            "states/s" => metrics.get("ops_per_s").copied(),
            "ratio" => Some(1.0),
            _ => None,
        };
        if let Some(v) = value {
            metrics.insert(m.name.to_string(), v);
            filled.push(m.name.to_string());
        }
    }
    filled
}

/// Turn the rounds of one run into its reported numbers: medians over
/// rounds, tracing overhead from the untraced rounds of a traced run,
/// stand-ins for what the workload does not exercise.
pub fn finalize(request: &Request, rounds: &[Round]) -> Outcome {
    let mut outcome = Outcome {
        attempted: rounds.iter().map(|r| r.attempted).sum(),
        failed: rounds.iter().map(|r| r.failed).sum(),
        ..Outcome::default()
    };
    for (i, r) in rounds.iter().enumerate() {
        outcome
            .failures
            .extend(r.failures.iter().map(|f| format!("round {i}: {f}")));
    }
    let all: Vec<&Round> = rounds.iter().collect();
    let of =
        |traced: bool| -> Vec<&Round> { rounds.iter().filter(|r| r.traced == traced).collect() };
    let setups: Vec<f64> = rounds.iter().map(|r| r.setup_s).collect();
    if request.traced {
        let traced = of(true);
        for m in PER_LAYER {
            if let Some(v) = median_of(&traced, m.name) {
                outcome.metrics.insert(m.name.to_string(), v);
            }
        }
        // Traced and untraced rounds alternate inside this one process, so
        // their ratio is the cost of tracing and not of a different run.
        if let (Some(on), Some(off)) = (
            median_of(&traced, "ops_per_s"),
            median_of(&of(false), "ops_per_s"),
        ) {
            outcome
                .metrics
                .insert("trace.overhead_pct".into(), 100.0 * (1.0 - on / off));
        }
        outcome.budget = traced.iter().find_map(|r| r.budget.clone());
    } else {
        for m in END_TO_END {
            if let Some(v) = median_of(&all, m.name) {
                outcome.metrics.insert(m.name.to_string(), v);
            }
        }
        if let Some(s) = stats::median(&setups) {
            outcome.metrics.insert("setup_s".into(), s);
        }
        let mut write_ns: Vec<u64> = rounds.iter().flat_map(|r| &r.write_ns).copied().collect();
        if let (_, Some(p99)) = stats::p50_p99(&mut write_ns) {
            outcome
                .metrics
                .insert("write_p99_us".into(), p99 as f64 / 1e3);
        }
        outcome
            .metrics
            .insert("peak_rss_mb".into(), env::peak_rss_mb());
        outcome.stand_ins = stand_ins(&mut outcome.metrics);
    }
    outcome
}

/// The child: measure `request` in this process and print the facts.
pub fn child(request: &Request) -> Outcome {
    let mut tracer = Tracer::new(false);
    let mut rounds = Vec::with_capacity(ROUNDS);
    for i in 0..ROUNDS {
        // A traced run traces every other round; the rounds between give
        // the untraced rate that `trace.overhead_pct` compares against.
        let traced = request.traced && i % 2 == 0;
        tracer.set_enabled(traced);
        let params = Params {
            seed: request.seed,
            round_seconds: request.seconds / ROUNDS as f64,
            scale: request.scale,
            traced,
            probes: traced && i == 0,
        };
        let span = tracer.enter("round", None, i as u64);
        let mut round = request.workload.round(&params, &mut tracer);
        tracer.exit(span);
        round.traced = traced;
        // Golden counts hold for the default inputs only.
        crate::golden::check(request, &mut round);
        rounds.push(round);
    }
    let mut outcome = finalize(request, &rounds);
    if request.traced {
        let path = span_file(request.workload);
        if let Err(e) = tracer.write_jsonl(&path) {
            outcome
                .failures
                .push(format!("writing {}: {e}", path.display()));
        }
    }
    outcome
}

/// An outcome in the child → parent line protocol.
pub fn facts(outcome: &Outcome) -> String {
    let mut out = format!(
        "attempted {}\nfailed {}\n",
        outcome.attempted, outcome.failed
    );
    for (name, value) in &outcome.metrics {
        out.push_str(&format!("metric {name} {value}\n"));
    }
    for name in &outcome.stand_ins {
        out.push_str(&format!("stand_in {name}\n"));
    }
    for f in &outcome.failures {
        out.push_str(&format!("failure {}\n", f.replace('\n', " ")));
    }
    if let Some(b) = &outcome.budget {
        out.push_str(&format!("budget {}\n", b.encode()));
    }
    out
}

/// Parse what [`facts`] rendered.
pub fn parse_facts(text: &str) -> Option<Outcome> {
    let mut outcome = Outcome::default();
    let mut seen_counts = 0;
    for line in text.lines() {
        let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
        match key {
            "attempted" => {
                outcome.attempted = rest.parse().ok()?;
                seen_counts += 1;
            }
            "failed" => {
                outcome.failed = rest.parse().ok()?;
                seen_counts += 1;
            }
            "metric" => {
                let (name, value) = rest.split_once(' ')?;
                outcome
                    .metrics
                    .insert(name.to_string(), value.parse().ok()?);
            }
            "stand_in" => outcome.stand_ins.push(rest.to_string()),
            "failure" => outcome.failures.push(rest.to_string()),
            "budget" => outcome.budget = Some(Budget::decode(rest)?),
            _ => {}
        }
    }
    (seen_counts == 2).then_some(outcome)
}

/// The parent: run `request` in a child process of this executable, pinned
/// to CPU 0 when the workload asks for it and `taskset` works here.
pub fn spawn(request: &Request) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the executable: {e}"))?;
    let pin = request.workload.pinned() && env::taskset_available();
    let mut cmd = if pin {
        let mut c = Command::new("taskset");
        c.args(["-c", "0"]).arg(&exe);
        c
    } else {
        Command::new(&exe)
    };
    cmd.arg("child")
        .args(["--workload", request.workload.name()])
        .args(["--seed", &request.seed.to_string()])
        .args(["--seconds", &request.seconds.to_string()])
        .args(["--scale", &request.scale.to_string()])
        .args(["--trace", if request.traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    // `output` waits for the child: nothing this benchmark started is
    // alive once it returns.
    let output = cmd
        .output()
        .map_err(|e| format!("spawning the child: {e}"))?;
    let text = String::from_utf8_lossy(&output.stdout);
    let mut outcome = parse_facts(&text).ok_or_else(|| {
        format!(
            "the {} child exited with {} and no result",
            request.workload.name(),
            output.status
        )
    })?;
    if !output.status.success() {
        outcome
            .failures
            .push(format!("the child exited with {}", output.status));
    }
    outcome.pinned = pin;
    if request.workload.pinned() && !pin {
        // Unpinned, this workload's latency is decided by thread placement;
        // the numbers are printed for the record and flagged.
        eprintln!(
            "warning: taskset is unavailable; {} ran unpinned and its latency is UNRESOLVED",
            request.workload.name()
        );
    }
    Ok(outcome)
}

fn json_metric(m: &Metric, value: f64) -> String {
    format!(
        "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
        m.name,
        json_number(value),
        m.unit
    )
}

/// A float as JSON: every digit, never `NaN`/`inf` (which JSON lacks).
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The driver's result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, the metrics being every end-to-end metric of an untraced
/// run or every per-layer metric of a traced one. A per-layer metric the
/// workload does not exercise reads 0.
pub fn result_line(request: &Request, outcome: &Outcome) -> String {
    let metrics: Vec<String> = table(request.traced)
        .iter()
        .map(|m| json_metric(m, outcome.metrics.get(m.name).copied().unwrap_or(0.0)))
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct(),
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    )
}

/// The human-readable report of one workload run.
pub fn render(request: &Request, outcome: &Outcome) -> String {
    let w = request.workload;
    let mut out = format!(
        "== {} (seed {}, {} s, {}{}) ==\n",
        w.name(),
        request.seed,
        request.seconds,
        if request.traced { "traced" } else { "untraced" },
        match (w.pinned(), outcome.pinned) {
            (true, true) => ", pinned to CPU 0",
            (true, false) => ", UNPINNED: latency unresolved",
            _ => "",
        }
    );
    for m in table(request.traced) {
        let Some(v) = outcome.metrics.get(m.name) else {
            continue;
        };
        let note = if outcome.stand_ins.iter().any(|s| s == m.name) {
            "  (not exercised here; stand-in)"
        } else {
            ""
        };
        out.push_str(&format!("  {:<40} {:>16.4} {}{note}\n", m.name, v, m.unit));
    }
    out.push_str(&format!(
        "  {:<40} {:>16.6} ratio  ({} of {} failed)\n",
        "failed_share",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted
    ));
    if let Some(b) = &outcome.budget {
        out.push_str(&b.render(w.name()));
    }
    if request.traced {
        out.push_str(&format!("  spans: {}\n", span_file(w).display()));
    }
    for f in &outcome.failures {
        out.push_str(&format!("  FAILED: {f}\n"));
    }
    out
}

/// One run's record for `--out`: environment, request and every number.
pub fn record_json(env: &Environment, runs: &[(Request, Outcome)]) -> String {
    let mut out = format!("{{\"environment\": {}, \"workloads\": [", env.to_json());
    for (i, (request, outcome)) in runs.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let values: Vec<String> = outcome
            .metrics
            .iter()
            .filter_map(|(name, v)| Some(json_metric(metrics::find(name)?, *v)))
            .collect();
        out.push_str(&format!(
            "{{\"name\": \"{}\", \"seed\": {}, \"seconds\": {}, \"scale\": {}, \"traced\": {}, \"pinned\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"failed_share\": {}, \"metrics\": {{{}}}}}",
            request.workload.name(),
            request.seed,
            request.seconds,
            request.scale,
            request.traced,
            outcome.pinned,
            outcome.correct(),
            outcome.attempted,
            outcome.failed,
            json_number(outcome.failed as f64 / outcome.attempted.max(1) as f64),
            values.join(", ")
        ));
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(traced: bool) -> Request {
        Request {
            workload: Workload::ClusterMix,
            seed: 1,
            seconds: 1.0,
            scale: 1.0,
            traced,
        }
    }

    fn round(setup_s: f64, ops_per_s: f64) -> Round {
        let mut r = Round {
            setup_s,
            attempted: 10,
            ..Round::default()
        };
        r.set("ops_per_s", ops_per_s);
        r.set("acquire_p50_us", 40.0);
        r
    }

    #[test]
    fn reported_numbers_are_medians_over_rounds() {
        let rounds = [round(0.3, 100.0), round(0.1, 300.0), round(0.2, 200.0)];
        let outcome = finalize(&request(false), &rounds);
        assert_eq!(outcome.metrics["ops_per_s"], 200.0);
        assert_eq!(outcome.metrics["setup_s"], 0.2);
        assert_eq!(outcome.attempted, 30);
        assert!(outcome.correct());
    }

    #[test]
    fn every_end_to_end_name_is_printed_and_none_is_zero() {
        let rounds = [round(0.3, 100.0)];
        let outcome = finalize(&request(false), &rounds);
        for m in END_TO_END {
            assert!(outcome.metrics[m.name] > 0.0, "{}", m.name);
        }
        // What the workload measured is never overwritten.
        assert!(!outcome.stand_ins.iter().any(|s| s == "ops_per_s"));
        assert_eq!(outcome.metrics["recovery_ms"], 300.0);
        assert_eq!(outcome.metrics["states_per_s"], 100.0);
        assert_eq!(outcome.metrics["latency_factor"], 1.0);
        let line = result_line(&request(false), &outcome);
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {"));
        assert_eq!(line.matches("\"value\"").count(), END_TO_END.len());
    }

    #[test]
    fn tracing_overhead_compares_rounds_of_one_process() {
        let mut rounds = [round(0.1, 90.0), round(0.1, 100.0), round(0.1, 90.0)];
        rounds[0].traced = true;
        rounds[2].traced = true;
        let outcome = finalize(&request(true), &rounds);
        assert!((outcome.metrics["trace.overhead_pct"] - 10.0).abs() < 1e-9);
        let line = result_line(&request(true), &outcome);
        assert_eq!(line.matches("\"value\"").count(), PER_LAYER.len());
    }

    #[test]
    fn a_failed_gate_makes_the_run_incorrect() {
        let mut bad = round(0.1, 1.0);
        bad.failures.push("final audit: [..]".into());
        let outcome = finalize(&request(false), &[bad]);
        assert!(!outcome.correct());
        assert!(result_line(&request(false), &outcome).starts_with("{\"correct\": false"));
    }

    #[test]
    fn the_line_protocol_round_trips() {
        let mut outcome = finalize(&request(false), &[round(0.1, 5.5)]);
        outcome.failures.push("x\ny".into());
        let mut budget = Budget::new(2.0);
        budget.row(crate::budget::HANDLE, 1.0, 0.5);
        outcome.budget = Some(budget);
        let parsed = parse_facts(&facts(&outcome)).unwrap();
        assert_eq!(parsed.metrics, outcome.metrics);
        assert_eq!(parsed.budget, outcome.budget);
        assert_eq!(parsed.stand_ins, outcome.stand_ins);
        assert_eq!(parsed.failures, ["x y"]);
        assert!(parse_facts("metric a 1\n").is_none());
    }
}
