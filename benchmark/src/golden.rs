//! Golden counts for the default inputs. `sim_airline` is deterministic:
//! at the default seed and run length its message count per request is one
//! exact number, and a change that moves it has changed the protocol (or
//! the simulator's schedule), whatever the timings say. `check_explore`'s
//! state count is gated in its own module for every seed, since the
//! scenario does not depend on the seed.

use crate::metrics::RUN_SECONDS;
use crate::run::Request;
use crate::workloads::{Round, Workload, DEFAULT_SEED};

/// `msgs_per_request` of `sim_airline` at seed [`DEFAULT_SEED`],
/// `--seconds` [`RUN_SECONDS`], scale 1 (120 nodes × 2400 operations per round).
pub const SIM_AIRLINE_MSGS_PER_REQUEST: f64 = 5.972336213609539;

/// Gate `round` against the goldens when `request` is the default one.
pub fn check(request: &Request, round: &mut Round) {
    let default = request.seed == DEFAULT_SEED
        && request.scale == 1.0
        && request.seconds == f64::from(RUN_SECONDS);
    if request.workload != Workload::SimAirline || !default {
        return;
    }
    let got = round.values.get("msgs_per_request").copied();
    round.check(got == Some(SIM_AIRLINE_MSGS_PER_REQUEST), || {
        format!("msgs_per_request {got:?}, golden {SIM_AIRLINE_MSGS_PER_REQUEST}")
    });
}
