//! Measurement utilities for the locking experiments: power-of-two latency
//! histograms and labelled counter sets.
//!
//! Everything here is allocation-light and branch-cheap so instrumentation
//! does not distort the simulator's hot loop (per the perf-book guidance the
//! histogram bucketing is a `leading_zeros` instruction, not a search).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod counters;
mod histogram;

pub use counters::CounterSet;
pub use histogram::{Histogram, Percentiles};
