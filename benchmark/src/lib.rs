//! The repo benchmark: seven lock-service workloads, ten end-to-end
//! metrics that repeat, and a per-layer budget measured from outside.
//!
//! Users of this system are applications calling `acquire`, `upgrade` and
//! `release`. What they feel is grant latency (median and tail, per mode),
//! sustained lock operations per second, the messages the protocol costs
//! them, memory per hosted lock, and time without service after a crash —
//! those are the end-to-end metrics ([`metrics::END_TO_END`]). The
//! per-layer metrics ([`metrics::PER_LAYER`]) say which module a change to
//! one of them should be looked for in; `README.md` holds the prediction
//! matrix.
//!
//! The benchmark reaches the program through its public API only and is a
//! package of its own, so that a change which claims a gain cannot edit
//! what measures it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod budget;
pub mod calibrate;
pub mod cli;
pub mod env;
pub mod golden;
pub mod load;
pub mod metrics;
pub mod probes;
pub mod run;
pub mod span;
pub mod stats;
pub mod workloads;
