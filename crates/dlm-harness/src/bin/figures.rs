//! Regenerate one figure, or `all` of the simulator set from one shared
//! plan (Figures 7–10, the ablation study and the latency tail: 7/8 and 9/10
//! each read two metrics off the same runs). Prints an aligned table and
//! writes `results/<name>.tsv` per figure.
//!
//! ```text
//! figures fig7|fig8|fig9|fig10|ablations|all|geo|contention|recovery
//! ```

use dlm_harness::{
    ablations, all_figures, fig10, fig7, fig8, fig9, recovery, render_table, write_tsv, Figure,
    FigureOptions, Series,
};
use dlm_sim::{LatencyModel, TwoSite, MICROS_PER_MS};
use dlm_workload::{run_workload, ProtocolKind, WorkloadParams, WorkloadReport};

/// Mean of `metric` over three runs of `params` at seeds `seed(0..3)`.
fn mean_of_3(
    mut params: WorkloadParams,
    seed: impl Fn(u64) -> u64,
    metric: impl Fn(&WorkloadReport) -> f64,
) -> f64 {
    let mut total = 0.0;
    for s in 0..3 {
        params.seed = seed(s);
        let report = run_workload(&params);
        assert!(report.complete());
        total += metric(&report);
    }
    total / 3.0
}

/// Two series per protocol (hierarchical, Naimi-pure) over the `xs` sweep:
/// the mean operation wait in ms, then `second`.
fn extension_series(
    xs: &[u64],
    params_at: impl Fn(ProtocolKind, u64) -> WorkloadParams,
    seed: impl Fn(u64) -> u64,
    (second_label, second): (&str, fn(&WorkloadReport) -> f64),
) -> Vec<Series> {
    let mut series = Vec::new();
    for protocol in [ProtocolKind::Hier, ProtocolKind::NaimiPure] {
        let sweep = |metric: fn(&WorkloadReport) -> f64| {
            xs.iter()
                .map(|&x| mean_of_3(params_at(protocol, x), &seed, metric))
                .collect()
        };
        series.push(Series {
            label: format!("{}-wait-ms", protocol.label()),
            values: sweep(|r| r.op_latency.mean() / 1000.0),
        });
        series.push(Series {
            label: format!("{}-{second_label}", protocol.label()),
            values: sweep(second),
        });
    }
    series
}

/// Extension experiment (not in the paper, motivated by its §1: replicated
/// data "across geographically distant server farms"): two 16-node sites
/// with fast intra-site links, sweeping the WAN latency between them.
///
/// The hierarchical protocol's copy-grants and intent-mode locality keep
/// most traffic intra-site once ownership settles; Naimi's token commutes
/// across the WAN for every remote handoff.
fn geo() -> Figure {
    const WAN_MS: [u64; 5] = [5, 25, 50, 100, 200];
    let params_at = |protocol, wan_ms| {
        let mut params = WorkloadParams::linux_cluster(32, protocol);
        params.latency = LatencyModel::uniform(MICROS_PER_MS); // 1 ms intra-site
        params.geo = Some(TwoSite {
            site_a: 16,
            wan: LatencyModel::uniform(wan_ms * MICROS_PER_MS),
        });
        params
    };
    Figure {
        name: "geo".into(),
        title: "Two-site deployment: WAN latency sensitivity (extension)".into(),
        x_label: "wan_ms".into(),
        y_label: "mean op wait (ms) / messages per request".into(),
        x: WAN_MS.iter().map(|&w| w as f64).collect(),
        series: extension_series(
            &WAN_MS,
            params_at,
            |s| 0x6E0 + s,
            ("msgs", |r| r.messages_per_request()),
        ),
    }
}

/// Extension experiment: hot-spot contention. An increasing fraction of
/// entry operations targets one "hot" fare; the hierarchical protocol's
/// shared read modes keep hot readers concurrent, while Naimi serializes
/// every access to the hot entry.
fn contention() -> Figure {
    const HOT: [u64; 5] = [0, 25, 50, 75, 90];
    let params_at = |protocol, hot| {
        let mut params = WorkloadParams::linux_cluster(32, protocol);
        params.hot_entry_percent = hot as u8;
        params
    };
    Figure {
        name: "contention".into(),
        title: "Hot-entry skew sensitivity (extension)".into(),
        x_label: "hot%".into(),
        y_label: "mean / p99 operation wait (ms)".into(),
        x: HOT.iter().map(|&h| h as f64).collect(),
        series: extension_series(
            &HOT,
            params_at,
            |s| 0xC0 + s * 101,
            ("p99-ms", |r| r.op_latency.quantile(0.99) as f64 / 1000.0),
        ),
    }
}

fn main() {
    let opts = FigureOptions::default();
    let name = std::env::args().nth(1).unwrap_or_default();
    let figures = match name.as_str() {
        "fig7" => vec![fig7(&opts)],
        "fig8" => vec![fig8(&opts)],
        "fig9" => vec![fig9(&opts)],
        "fig10" => vec![fig10(&opts)],
        "ablations" => vec![ablations(&opts)],
        "all" => all_figures(&opts),
        "geo" => vec![geo()],
        "contention" => vec![contention()],
        "recovery" => vec![recovery(&opts)],
        _ => {
            eprintln!("usage: figures fig7|fig8|fig9|fig10|ablations|all|geo|contention|recovery");
            std::process::exit(2);
        }
    };
    for fig in &figures {
        println!("{}", render_table(fig));
        let path = write_tsv(fig, std::path::Path::new("results")).expect("write tsv");
        eprintln!("wrote {}", path.display());
    }
}
