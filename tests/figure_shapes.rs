//! Shape checks on the reproduced figures: the qualitative claims of the
//! paper's evaluation must hold on reduced (fast) sweeps. These are the
//! executable version of EXPERIMENTS.md.

use dlm_harness::{ablations, all_figures, fig10, fig7, fig8, fig9, latency_tail, FigureOptions};

fn opts() -> FigureOptions {
    FigureOptions::quick()
}

/// The shared-run plan behind `all_figures` (figs 7+8 and 9+10 each read
/// two metrics off one set of runs) and the per-figure entry points must
/// produce bit-identical values, for any worker count — the parallel merge
/// folds seeds in the same order the sequential sweep did.
#[test]
fn shared_plan_matches_standalone_figures() {
    let shared = all_figures(&opts());
    let mut serial_opts = opts();
    serial_opts.workers = 1;
    let standalone = [
        fig7(&serial_opts),
        fig8(&serial_opts),
        fig9(&serial_opts),
        fig10(&serial_opts),
        ablations(&serial_opts),
        latency_tail(&serial_opts),
    ];
    assert_eq!(shared.len(), standalone.len());
    for (a, b) in shared.iter().zip(&standalone) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.x, b.x);
        for (sa, sb) in a.series.iter().zip(&b.series) {
            assert_eq!(sa.label, sb.label, "{}", a.name);
            let a_bits: Vec<u64> = sa.values.iter().map(|v| v.to_bits()).collect();
            let b_bits: Vec<u64> = sb.values.iter().map(|v| v.to_bits()).collect();
            assert_eq!(a_bits, b_bits, "{} series {}", a.name, sa.label);
        }
    }
}

/// Figure 7's claims: the hierarchical protocol's message overhead
/// (a) approaches a low asymptote (≈3, "from which point on the message
/// overhead is in the order of 3-9 messages"), (b) undercuts Naimi-pure at
/// scale ("approximately 20% fewer messages"), and (c) Naimi-same-work grows
/// far beyond both.
#[test]
fn fig7_shapes() {
    let fig = fig7(&opts());
    let ours = fig.series("our-protocol");
    let pure = fig.series("naimi-pure");
    let same = fig.series("naimi-same-work");
    let n = fig.x.len();

    // (a) Low, flattening asymptote: last value in the paper's 3-9 band and
    // the tail growth per step is small.
    let tail = ours.values[n - 1];
    assert!((2.0..5.0).contains(&tail), "our asymptote {tail}");
    let step = ours.values[n - 1] - ours.values[n - 2];
    assert!(step < 0.5, "our curve must flatten (last step {step})");

    // (b) Ours below pure at every point from 8 nodes on.
    for (i, &x) in fig.x.iter().enumerate() {
        if x >= 8.0 {
            assert!(
                ours.values[i] < pure.values[i],
                "at {x} nodes: ours {} !< pure {}",
                ours.values[i],
                pure.values[i]
            );
        }
    }

    // (c) Same-work (per functional request) far above both at scale.
    assert!(
        same.values[n - 1] > 1.5 * pure.values[n - 1],
        "same-work {} vs pure {}",
        same.values[n - 1],
        pure.values[n - 1]
    );
}

/// Figure 8's claims: same-work latency is superlinear and dominates; the
/// hierarchical protocol tracks at or below Naimi-pure.
#[test]
fn fig8_shapes() {
    let fig = fig8(&opts());
    let ours = fig.series("our-protocol");
    let pure = fig.series("naimi-pure");
    let same = fig.series("naimi-same-work");
    let n = fig.x.len();

    assert!(
        same.values[n - 1] > 5.0 * ours.values[n - 1],
        "same-work latency explodes: {} vs ours {}",
        same.values[n - 1],
        ours.values[n - 1]
    );
    // Superlinearity proxy: the second half grows faster than the first.
    let mid = n / 2;
    let first_half = same.values[mid] - same.values[0];
    let second_half = same.values[n - 1] - same.values[mid];
    assert!(
        second_half > first_half,
        "same-work should accelerate: {first_half} then {second_half}"
    );
    // Ours at or below pure (small tolerance: the curves converge at scale).
    for i in 0..n {
        assert!(
            ours.values[i] <= pure.values[i] * 1.15,
            "at {} nodes ours {} should not exceed pure {} by >15%",
            fig.x[i],
            ours.values[i],
            pure.values[i]
        );
    }
}

/// Figure 9's claims: message overhead stays in the 3-9 band at scale and
/// is ordered by ratio (higher non-critical:critical ratio ⇒ lower
/// concurrency ⇒ longer propagation paths ⇒ more messages).
#[test]
fn fig9_shapes() {
    let fig = fig9(&opts());
    let n = fig.x.len();
    let r1 = fig.series("ratio=1").values[n - 1];
    let r25 = fig.series("ratio=25").values[n - 1];
    assert!(
        r1 < r25,
        "ratio 1 ({r1}) must cost fewer msgs than ratio 25 ({r25})"
    );
    for label in ["ratio=1", "ratio=5", "ratio=10", "ratio=25"] {
        let tail = fig.series(label).values[n - 1];
        assert!(
            (2.0..10.0).contains(&tail),
            "{label} tail {tail} out of the paper's 3-9 band"
        );
    }
}

/// Figure 10's claims: latency grows with node count for every ratio;
/// lower ratios (higher concurrency) are strictly slower; the high-ratio
/// configuration stays in low single-digit milliseconds at moderate sizes
/// ("response times under 2 msec for up to 25 nodes" at ratio 25).
#[test]
fn fig10_shapes() {
    let fig = fig10(&opts());
    let n = fig.x.len();
    for label in ["ratio=1", "ratio=25"] {
        let s = fig.series(label);
        assert!(
            s.values[n - 1] > s.values[1],
            "{label} latency must grow with nodes"
        );
    }
    let r1 = fig.series("ratio=1").values[n - 1];
    let r25 = fig.series("ratio=25").values[n - 1];
    assert!(r1 > r25, "high concurrency (ratio 1) must be slower");
    // Ratio 25 at ≤32 nodes: low single-digit ms.
    for (i, &x) in fig.x.iter().enumerate() {
        if x <= 32.0 {
            assert!(
                fig.series("ratio=25").values[i] < 5.0,
                "ratio-25 latency at {x} nodes should be low, got {}",
                fig.series("ratio=25").values[i]
            );
        }
    }
}

/// The ablation study must show each §4.1 design claim pulling in the
/// documented direction.
#[test]
fn ablation_shapes() {
    let fig = ablations(&opts());
    let paper_msgs = fig.series("paper").values[0];
    let eager_msgs = fig.series("eager-release").values[0];
    assert!(
        eager_msgs > paper_msgs,
        "release suppression saves messages: {paper_msgs} vs eager {eager_msgs}"
    );
    let no_queue_msgs = fig.series("no-local-queueing").values[0];
    assert!(
        no_queue_msgs >= paper_msgs,
        "local queueing saves messages: {paper_msgs} vs {no_queue_msgs}"
    );
}
