//! Property-driven model checking: proptest generates small random
//! scenarios (topology, scripts, config) and each one is *exhaustively*
//! explored — every reachable interleaving safety-checked, every terminal
//! state liveness-checked. This composes the two strongest tools in the
//! suite: random scenario discovery and exhaustive schedule coverage.

use dlm_check::{explore, Op, Scenario};
use dlm_core::{Mode, ProtocolConfig};
use proptest::prelude::*;

fn mode_strategy() -> impl Strategy<Value = Mode> {
    prop_oneof![
        Just(Mode::IntentRead),
        Just(Mode::Read),
        Just(Mode::Upgrade),
        Just(Mode::IntentWrite),
        Just(Mode::Write),
    ]
}

/// A per-node script: 0–2 acquire/release pairs; U acquisitions sometimes
/// upgrade in between.
fn script_strategy() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec((mode_strategy(), any::<bool>()), 0..2).prop_map(|ops| {
        let mut script = Vec::new();
        for (mode, upgrade) in ops {
            script.push(Op::Acquire(mode));
            if mode == Mode::Upgrade && upgrade {
                script.push(Op::Upgrade);
            }
            script.push(Op::Release);
        }
        script
    })
}

fn cases(default_cases: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default_cases)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(48)))]

    /// Every interleaving of every random 3-node star scenario is safe and
    /// live under the paper configuration.
    #[test]
    fn random_star_scenarios_fully_verified(
        scripts in proptest::collection::vec(script_strategy(), 3..4),
    ) {
        let s = Scenario::star(3, scripts, ProtocolConfig::paper());
        let r = explore(&s, 3_000_000);
        prop_assert!(r.verified(), "{r:?}");
    }

    /// Same on chains (deep forwarding paths) with the literal Rule 3.2
    /// policy, which moves the token most aggressively.
    #[test]
    fn random_chain_scenarios_fully_verified_literal_policy(
        scripts in proptest::collection::vec(script_strategy(), 3..4),
    ) {
        let s = Scenario::chain(3, scripts, ProtocolConfig::paper().literal_rule_3_2());
        let r = explore(&s, 3_000_000);
        prop_assert!(r.verified(), "{r:?}");
    }
}
