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

/// Means of both `metrics` over three runs of `params` at seeds
/// `seed(0..3)`: every run is made once and read twice.
fn means_of_3(
    mut params: WorkloadParams,
    seed: impl Fn(u64) -> u64,
    metrics: [fn(&WorkloadReport) -> f64; 2],
) -> [f64; 2] {
    let mut totals = [0.0; 2];
    for s in 0..3 {
        params.seed = seed(s);
        let report = run_workload(&params);
        assert!(report.complete());
        for (total, metric) in totals.iter_mut().zip(metrics) {
            *total += metric(&report);
        }
    }
    totals.map(|total| total / 3.0)
}

/// Two series per protocol (hierarchical, Naimi-pure) over the `xs` sweep:
/// the mean operation wait in ms, then `second`, both read off the same
/// runs.
fn extension_series(
    xs: &[u64],
    params_at: impl Fn(ProtocolKind, u64) -> WorkloadParams,
    seed: impl Fn(u64) -> u64,
    (second_label, second): (&str, fn(&WorkloadReport) -> f64),
) -> Vec<Series> {
    let wait: fn(&WorkloadReport) -> f64 = |r| r.op_latency.mean() / 1000.0;
    let mut series = Vec::new();
    for protocol in [ProtocolKind::Hier, ProtocolKind::NaimiPure] {
        let points: Vec<[f64; 2]> = xs
            .iter()
            .map(|&x| means_of_3(params_at(protocol, x), &seed, [wait, second]))
            .collect();
        for (i, label) in ["wait-ms", second_label].into_iter().enumerate() {
            series.push(Series {
                label: format!("{}-{label}", protocol.label()),
                values: points.iter().map(|p| p[i]).collect(),
            });
        }
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
