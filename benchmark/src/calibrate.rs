//! `benchmark calibrate`: how much does each end-to-end metric move when
//! nothing changed?
//!
//! Runs the full workload set `--runs` times, each time under another
//! seed, and prints per workload and metric the median, the extremes and
//! the spread — the distance between the first and third quartile as a
//! share of the median, the very estimator the driver holds against the
//! metric's bound. The runs are also split into two interleaved sets
//! (even and odd) whose medians are compared the way the driver compares a
//! change with its parent. The proposed bound is `max(5 %, 2 × spread)`,
//! capped at the bound the registry already fixes: when a metric needs
//! more than its cap, the answer is a longer run or a better estimator,
//! not a wider bound.

use crate::cli::Flags;
use crate::metrics::{Better, END_TO_END};
use crate::run;
use crate::stats;
use crate::workloads::Workload;
use std::collections::BTreeMap;

/// One table row.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Median over all runs.
    pub median: f64,
    /// Smallest run.
    pub min: f64,
    /// Largest run.
    pub max: f64,
    /// Interquartile distance / median.
    pub spread: f64,
    /// How much worse the odd runs' median is than the even runs', as a
    /// share of the even runs' median (negative = better).
    pub drift: f64,
    /// `max(5 %, 2 × spread)` capped at the registry bound.
    pub proposed: f64,
    /// Whether spread and drift both stay within the registry bound.
    pub within: bool,
}

/// Summarise the runs of one metric on one workload.
pub fn summarise(values: &[f64], better: Better, bound: f64) -> Option<Row> {
    let median = stats::median(values)?;
    let spread = stats::spread(values)?;
    let set = |parity: usize| -> Vec<f64> {
        values
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 2 == parity)
            .map(|(_, v)| *v)
            .collect()
    };
    let (a, b) = (stats::median(&set(0))?, stats::median(&set(1))?);
    let drift = match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    };
    Some(Row {
        median,
        min: values.iter().copied().fold(f64::INFINITY, f64::min),
        max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        spread,
        drift,
        proposed: (2.0 * spread).max(0.05).min(bound),
        within: spread <= bound && drift <= bound,
    })
}

/// Run the calibration and print the table. `Ok(false)` when a run was
/// incorrect or a metric left its bound.
pub fn calibrate(flags: &Flags) -> Result<bool, String> {
    let workloads = flags
        .workload
        .map_or_else(|| Workload::ALL.to_vec(), |w| vec![w]);
    let mut values: BTreeMap<(Workload, &str), Vec<f64>> = BTreeMap::new();
    let mut all_correct = true;
    for i in 0..flags.runs {
        for &w in &workloads {
            let mut request = flags.request(w);
            request.seed = flags.seed + i as u64;
            request.traced = false;
            let outcome = run::spawn(&request)?;
            eprintln!(
                "run {}/{} {} seed {}: {}",
                i + 1,
                flags.runs,
                w.name(),
                request.seed,
                if outcome.correct() { "ok" } else { "INCORRECT" }
            );
            for f in &outcome.failures {
                eprintln!("  {f}");
            }
            all_correct &= outcome.correct();
            for m in END_TO_END {
                if let Some(v) = outcome.metrics.get(m.name) {
                    values.entry((w, m.name)).or_default().push(*v);
                }
            }
        }
    }
    let mut all_within = true;
    println!(
        "| workload | metric | unit | median | min | max | spread | drift | bound | proposed |"
    );
    println!("|---|---|---|---:|---:|---:|---:|---:|---:|---:|");
    for &w in &workloads {
        for m in END_TO_END {
            let Some(row) = values
                .get(&(w, m.name))
                .and_then(|v| summarise(v, m.better, m.bound))
            else {
                continue;
            };
            // The driver exempts set-up time from the spread rule only.
            let within = row.within || (m.name == "setup_s" && row.drift <= m.bound);
            all_within &= within;
            println!(
                "| {} | {} | {} | {:.4} | {:.4} | {:.4} | {:.2} % | {:+.2} % | {:.0} % | {:.0} %{} |",
                w.name(),
                m.name,
                m.unit,
                row.median,
                row.min,
                row.max,
                100.0 * row.spread,
                100.0 * row.drift,
                100.0 * m.bound,
                100.0 * row.proposed,
                if within { "" } else { " OUT" }
            );
        }
    }
    Ok(all_correct && all_within)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_steady_metric_keeps_the_floor_bound() {
        let v = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0];
        let row = summarise(&v, Better::Higher, 0.10).unwrap();
        assert_eq!(row.median, 100.0);
        assert!(row.spread < 0.02);
        assert_eq!(row.proposed, 0.05);
        assert!(row.within);
    }

    #[test]
    fn a_noisy_metric_is_capped_and_flagged() {
        let v = [100.0, 140.0, 70.0, 130.0, 60.0, 150.0];
        let row = summarise(&v, Better::Lower, 0.10).unwrap();
        assert_eq!(row.proposed, 0.10);
        assert!(!row.within);
        // Odd runs (140, 130, 150) are worse than even runs (100, 70, 60)
        // for a lower-is-better metric.
        assert!(row.drift > 0.5);
    }
}
