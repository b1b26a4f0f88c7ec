//! Experiment harness: regenerates every figure of the paper's evaluation
//! section on the simulator, with the paper's parameters.
//!
//! | Paper artifact | Generator | Metric |
//! |---|---|---|
//! | Fig. 7 (messages vs nodes, 3 protocols) | [`fig7`] | messages / lock request |
//! | Fig. 8 (latency factor vs nodes)        | [`fig8`] | mean wait / mean net latency |
//! | Fig. 9 (messages vs nodes per ratio)    | [`fig9`] | messages / lock request |
//! | Fig. 10 (latency vs nodes per ratio)    | [`fig10`] | mean wait (ms) |
//! | §4.1 design claims | [`ablations`] | per-feature deltas |
//! | Two-site WAN sweep (extension)          | [`geo`] | mean op wait (ms), messages / request |
//! | Hot-entry skew sweep (extension)        | [`contention`] | mean / p99 op wait (ms) |
//!
//! The `figures` binary (`figures <name>|all`) prints an aligned table and
//! writes a TSV under `results/` per figure. Runs are averaged over a small
//! fixed seed set; everything is deterministic.
//!
//! Beyond the simulator, the [`sockload`] module drives the same workload
//! over a **real socket cluster**: the `dlm-node` binary runs one member
//! per process and the `dlm-harness` binary spawns, drives, measures, and
//! audits an N-process loopback cluster end to end (Figures 7–10 and the
//! shard-churn workload over TCP).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod figure;
mod figures;
mod pool;
pub mod sockload;

pub use figure::{render_table, write_tsv, Figure, Series};
pub use figures::{
    ablations, all_figures, contention, fig10, fig7, fig8, fig9, geo, latency_tail, recovery,
    FigureOptions, RECOVERY_NODES,
};
