//! The per-figure sweeps, with the paper's parameters.
//!
//! Every figure is described as a *plan*: a set of workload points, each
//! tagged with the `(figure, series, x)` slots its metrics feed. The plan's
//! jobs — one per `(point, seed)` pair — fan out over the worker pool in
//! [`crate::pool`], and the ordered merge folds each slot's per-seed values
//! in ascending seed order, so the output is bit-identical to the old
//! sequential sweep for any worker count. Plans also let figures that read
//! different metrics off the *same* runs (7 with 8, 9 with 10) share one
//! simulation per point instead of re-running it, which is where
//! [`all_figures`] gets most of its speedup.

use crate::figure::{Figure, Series};
use crate::pool::run_jobs;
use dlm_core::{Ablation, ProtocolConfig};
use dlm_workload::{run_workload, ProtocolKind, WorkloadParams, WorkloadReport};

/// Sweep tuning: trade run time against smoothness. The defaults match the
/// committed `results/`; `FigureOptions::quick()` is used by tests and CI.
#[derive(Debug, Clone, Copy)]
pub struct FigureOptions {
    /// Seeds averaged per point.
    pub seeds: u32,
    /// Operations per node per run.
    pub ops_per_node: u32,
    /// Worker threads for the sweep pool; `0` = one per available core.
    /// Any value produces identical figures — only wall-clock changes.
    pub workers: usize,
}

impl Default for FigureOptions {
    fn default() -> Self {
        FigureOptions {
            seeds: 3,
            ops_per_node: 40,
            workers: 0,
        }
    }
}

impl FigureOptions {
    /// Reduced effort for tests.
    pub fn quick() -> Self {
        FigureOptions {
            seeds: 2,
            ops_per_node: 15,
            workers: 0,
        }
    }

    fn worker_count(&self) -> usize {
        if self.workers != 0 {
            return self.workers;
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
}

/// The node counts of the §4.1 Linux-cluster experiments (Figures 7 and 8).
pub const FIG7_NODES: [usize; 9] = [2, 4, 6, 8, 12, 16, 20, 25, 32];

/// The node counts of the §4.2 IBM-SP experiments (Figures 9 and 10).
pub const FIG9_NODES: [usize; 9] = [2, 4, 8, 16, 32, 48, 64, 80, 120];

/// The non-critical : critical ratios of §4.2.
pub const RATIOS: [u32; 4] = [1, 5, 10, 25];

/// Where one metric value lands: `figures[fig].series[series].values[x]`.
#[derive(Debug, Clone, Copy)]
struct Slot {
    fig: usize,
    series: usize,
    x: usize,
}

type Metric = Box<dyn Fn(&WorkloadReport) -> f64 + Send + Sync>;

/// A figure index paired with a constructor from the series parameter to
/// the metric its slots record.
type FigMetric<P> = (usize, fn(P) -> Metric);

/// One workload configuration and the slots its runs feed. A point with
/// several outputs is simulated **once** per seed; every metric reads the
/// same report.
struct Point {
    params: WorkloadParams,
    outputs: Vec<(Slot, Metric)>,
}

/// A figure minus its values; `run_plan` fills the series in.
#[derive(Default)]
struct Skeleton {
    name: &'static str,
    title: &'static str,
    x_label: &'static str,
    y_label: &'static str,
    x: Vec<f64>,
    series_labels: Vec<String>,
}

/// The seed of the `s`-th run of every point: each sweep keeps the schedule
/// its committed `results/*.tsv` were made with.
type SeedSchedule = fn(u32) -> u64;

/// Figures 7–10, the ablations and the latency tail.
const PAPER_SEEDS: SeedSchedule = |s| 0xFEED + s as u64 * 7919;

/// Execute every `(point, seed)` job across the pool and fold the metric
/// values into figures.
///
/// Jobs are enumerated point-major / seed-minor and the pool returns results
/// in job order, so each slot accumulates its seed values in ascending seed
/// order — the same floating-point fold the sequential per-point loop did.
fn run_plan(
    skeletons: Vec<Skeleton>,
    points: Vec<Point>,
    seed: SeedSchedule,
    opts: &FigureOptions,
) -> Vec<Figure> {
    let jobs: Vec<(usize, u32)> = (0..points.len())
        .flat_map(|p| (0..opts.seeds).map(move |s| (p, s)))
        .collect();
    let results = run_jobs(jobs, opts.worker_count(), |(p, s)| {
        let point = &points[p];
        let mut params = point.params;
        params.ops_per_node = opts.ops_per_node;
        params.seed = seed(s);
        let report = run_workload(&params);
        assert!(
            report.complete(),
            "run must complete: {:?} n={} proto={:?} seed={}",
            report.ops_completed,
            params.nodes,
            params.protocol,
            params.seed
        );
        point
            .outputs
            .iter()
            .map(|(slot, metric)| (*slot, metric(&report)))
            .collect::<Vec<(Slot, f64)>>()
    });

    let mut sums: Vec<Vec<Vec<f64>>> = skeletons
        .iter()
        .map(|sk| vec![vec![0.0; sk.x.len()]; sk.series_labels.len()])
        .collect();
    for job_outputs in results {
        for (slot, value) in job_outputs {
            sums[slot.fig][slot.series][slot.x] += value;
        }
    }
    let k = opts.seeds as f64;
    skeletons
        .into_iter()
        .zip(sums)
        .map(|(sk, fig_sums)| Figure {
            name: sk.name.into(),
            title: sk.title.into(),
            x_label: sk.x_label.into(),
            y_label: sk.y_label.into(),
            x: sk.x,
            series: sk
                .series_labels
                .into_iter()
                .zip(fig_sums)
                .map(|(label, values)| Series {
                    label,
                    values: values.into_iter().map(|v| v / k).collect(),
                })
                .collect(),
        })
        .collect()
}

/// Figures 7 and 8 sweep the three protocols over the Linux-cluster nodes.
const LINUX_PROTOS: [ProtocolKind; 3] = [
    ProtocolKind::NaimiSameWork,
    ProtocolKind::NaimiPure,
    ProtocolKind::Hier,
];

fn fig7_metric(p: ProtocolKind) -> Metric {
    if p == ProtocolKind::NaimiSameWork {
        // Same-work is normalized to *functional* requests (the request
        // count pure issues); its extra per-entry acquisitions are overhead,
        // which is the point of the series.
        Box::new(|r: &WorkloadReport| r.messages_per_functional_request())
    } else {
        Box::new(|r: &WorkloadReport| r.messages_per_request())
    }
}

fn fig8_metric(_p: ProtocolKind) -> Metric {
    Box::new(|r: &WorkloadReport| r.latency_factor())
}

/// The request-latency percentiles of the tail figure, in series order.
const TAIL_QS: [(f64, &str); 3] = [(0.50, "p50"), (0.95, "p95"), (0.99, "p99")];

/// One point per `(protocol, node-count)`; each point feeds every requested
/// `(figure index, metric)` pair. When `tail_fig` is set, the hierarchical
/// protocol's runs additionally feed the latency-tail figure at that index —
/// the percentile series ride the same simulations instead of re-running
/// them. Points that would record nothing are skipped entirely.
fn linux_points(figs: &[FigMetric<ProtocolKind>], tail_fig: Option<usize>) -> Vec<Point> {
    let mut points = Vec::new();
    for (series, &proto) in LINUX_PROTOS.iter().enumerate() {
        for (x, &n) in FIG7_NODES.iter().enumerate() {
            let mut outputs: Vec<(Slot, Metric)> = figs
                .iter()
                .map(|&(fig, mk)| (Slot { fig, series, x }, mk(proto)))
                .collect();
            if let (Some(fig), ProtocolKind::Hier) = (tail_fig, proto) {
                for (tail_series, &(q, _)) in TAIL_QS.iter().enumerate() {
                    outputs.push((
                        Slot {
                            fig,
                            series: tail_series,
                            x,
                        },
                        Box::new(move |r: &WorkloadReport| {
                            r.request_latency.quantile(q) as f64 / 1000.0
                        }),
                    ));
                }
            }
            if outputs.is_empty() {
                continue;
            }
            points.push(Point {
                params: WorkloadParams::linux_cluster(n, proto),
                outputs,
            });
        }
    }
    points
}

fn skeleton_fig7() -> Skeleton {
    Skeleton {
        name: "fig7",
        title: "Scalability of Message Overhead",
        x_label: "nodes",
        y_label: "messages per lock request",
        x: FIG7_NODES.iter().map(|&n| n as f64).collect(),
        series_labels: LINUX_PROTOS.iter().map(|p| p.label().to_string()).collect(),
    }
}

fn skeleton_fig8() -> Skeleton {
    Skeleton {
        name: "fig8",
        title: "Request Latency Factor",
        x_label: "nodes",
        y_label: "mean request wait / mean one-way latency",
        x: FIG7_NODES.iter().map(|&n| n as f64).collect(),
        series_labels: LINUX_PROTOS.iter().map(|p| p.label().to_string()).collect(),
    }
}

fn fig9_metric(_r: u32) -> Metric {
    Box::new(|rep: &WorkloadReport| rep.messages_per_request())
}

fn fig10_metric(_r: u32) -> Metric {
    Box::new(|rep: &WorkloadReport| rep.request_latency.mean() / 1000.0)
}

/// One point per `(ratio, node-count)` on the SP configuration.
fn sp_points(figs: &[FigMetric<u32>]) -> Vec<Point> {
    let mut points = Vec::new();
    for (series, &ratio) in RATIOS.iter().enumerate() {
        for (x, &n) in FIG9_NODES.iter().enumerate() {
            points.push(Point {
                params: WorkloadParams::ibm_sp(n, ratio),
                outputs: figs
                    .iter()
                    .map(|&(fig, mk)| (Slot { fig, series, x }, mk(ratio)))
                    .collect(),
            });
        }
    }
    points
}

fn skeleton_latency_tail() -> Skeleton {
    Skeleton {
        name: "latency_tail",
        title: "Request Latency Tail Percentiles (Linux cluster, hierarchical)",
        x_label: "nodes",
        y_label: "request latency (ms)",
        x: FIG7_NODES.iter().map(|&n| n as f64).collect(),
        series_labels: TAIL_QS.iter().map(|&(_, l)| l.to_string()).collect(),
    }
}

fn skeleton_fig9() -> Skeleton {
    Skeleton {
        name: "fig9",
        title: "Messages for Non-Critical/Critical Ratios (IBM SP)",
        x_label: "nodes",
        y_label: "messages per lock request",
        x: FIG9_NODES.iter().map(|&n| n as f64).collect(),
        series_labels: RATIOS.iter().map(|r| format!("ratio={r}")).collect(),
    }
}

fn skeleton_fig10() -> Skeleton {
    Skeleton {
        name: "fig10",
        title: "Absolute Request Latency (IBM SP)",
        x_label: "nodes",
        y_label: "mean request latency (ms)",
        x: FIG9_NODES.iter().map(|&n| n as f64).collect(),
        series_labels: RATIOS.iter().map(|r| format!("ratio={r}")).collect(),
    }
}

fn ablation_configs() -> Vec<(String, ProtocolConfig)> {
    vec![
        ("paper".into(), ProtocolConfig::paper()),
        (
            "no-local-queueing".into(),
            ProtocolConfig::paper().without(Ablation::LocalQueueing),
        ),
        (
            "no-child-grants".into(),
            ProtocolConfig::paper().without(Ablation::ChildGrants),
        ),
        (
            "eager-release".into(),
            ProtocolConfig::paper().without(Ablation::ReleaseSuppression),
        ),
        (
            "no-freezing".into(),
            ProtocolConfig::paper().without(Ablation::Freezing),
        ),
    ]
}

/// One point per ablation config; x-axis slots 0..3 are the three metrics.
fn ablation_points(fig: usize) -> Vec<Point> {
    ablation_configs()
        .into_iter()
        .enumerate()
        .map(|(series, (_, cfg))| {
            let mut params = WorkloadParams::linux_cluster(16, ProtocolKind::Hier);
            params.hier_config = cfg;
            let metrics: [Metric; 3] = [
                Box::new(|r: &WorkloadReport| r.messages_per_request()),
                Box::new(|r: &WorkloadReport| r.op_latency.mean() / 1000.0),
                // Kind 4 = whole-table writes (see OpKind::index) — the
                // starvation-sensitive metric freezing protects.
                Box::new(|r: &WorkloadReport| {
                    r.op_latency_by_kind[4].quantile(0.99) as f64 / 1000.0
                }),
            ];
            Point {
                params,
                outputs: metrics
                    .into_iter()
                    .enumerate()
                    .map(|(x, metric)| (Slot { fig, series, x }, metric))
                    .collect(),
            }
        })
        .collect()
}

fn skeleton_ablations() -> Skeleton {
    Skeleton {
        name: "ablations",
        title: "Feature ablations at 16 nodes (Linux-cluster config)",
        x_label: "metric",
        y_label: "0: msgs/request   1: mean op wait (ms)   2: p99 W-op wait (ms)",
        x: vec![0.0, 1.0, 2.0],
        series_labels: ablation_configs().into_iter().map(|(l, _)| l).collect(),
    }
}

/// One figure on the paper's seed schedule.
fn single(skeleton: Skeleton, points: Vec<Point>, opts: &FigureOptions) -> Figure {
    run_plan(vec![skeleton], points, PAPER_SEEDS, opts).remove(0)
}

/// Figure 7: *Scalability of Message Overhead* — average messages per lock
/// request on the Linux-cluster configuration, for the hierarchical protocol
/// vs. the two Naimi variants.
pub fn fig7(opts: &FigureOptions) -> Figure {
    single(
        skeleton_fig7(),
        linux_points(&[(0, fig7_metric)], None),
        opts,
    )
}

/// Figure 8: *Request Latency Factor* — mean request wait divided by the
/// mean one-way network latency, same runs as Figure 7.
pub fn fig8(opts: &FigureOptions) -> Figure {
    single(
        skeleton_fig8(),
        linux_points(&[(0, fig8_metric)], None),
        opts,
    )
}

/// Latency-tail figure: p50/p95/p99 per-request wait of the hierarchical
/// protocol over the Linux-cluster node counts — the distribution behind
/// Figure 8's mean. Mean-based series hide exactly the outliers a locking
/// service gets paged for; this figure puts them on the y-axis.
pub fn latency_tail(opts: &FigureOptions) -> Figure {
    single(skeleton_latency_tail(), linux_points(&[], Some(0)), opts)
}

/// Figure 9: *Messages for Non-Critical : Critical Ratios* — messages per
/// request on the SP configuration, one series per ratio.
pub fn fig9(opts: &FigureOptions) -> Figure {
    single(skeleton_fig9(), sp_points(&[(0, fig9_metric)]), opts)
}

/// Figure 10: *Absolute Request Latency* — mean request wait in
/// milliseconds on the SP configuration, one series per ratio.
pub fn fig10(opts: &FigureOptions) -> Figure {
    single(skeleton_fig10(), sp_points(&[(0, fig10_metric)]), opts)
}

/// Ablation study over the §4.1 design claims: each protocol feature is
/// disabled in turn at a fixed 16-node Linux-cluster configuration; the
/// series report messages/request, mean operation wait, and p99 write wait.
pub fn ablations(opts: &FigureOptions) -> Figure {
    single(skeleton_ablations(), ablation_points(0), opts)
}

/// A labelled series reading of a run.
type Reading = (&'static str, fn(&WorkloadReport) -> f64);

/// The extension sweeps compare the hierarchical protocol with pure Naimi.
const EXTENSION_PROTOS: [ProtocolKind; 2] = [ProtocolKind::Hier, ProtocolKind::NaimiPure];

/// An extension figure: per protocol, the mean operation wait (ms) and then
/// `second`, both read off the same runs of `params_at(protocol, x)`.
fn extension(
    skeleton: Skeleton,
    xs: &[u64],
    params_at: impl Fn(ProtocolKind, u64) -> WorkloadParams,
    second: Reading,
    seed: SeedSchedule,
    opts: &FigureOptions,
) -> Figure {
    let wait: Reading = ("wait-ms", |r| r.op_latency.mean() / 1000.0);
    let metrics = [wait, second];
    let (mut points, mut series_labels) = (Vec::new(), Vec::new());
    for (p, &protocol) in EXTENSION_PROTOS.iter().enumerate() {
        series_labels.extend(metrics.map(|(label, _)| format!("{}-{label}", protocol.label())));
        for (x, &value) in xs.iter().enumerate() {
            let mut outputs: Vec<(Slot, Metric)> = Vec::new();
            for (i, (_, metric)) in metrics.into_iter().enumerate() {
                let (fig, series) = (0, 2 * p + i);
                outputs.push((Slot { fig, series, x }, Box::new(metric)));
            }
            let params = params_at(protocol, value);
            points.push(Point { params, outputs });
        }
    }
    let skeleton = Skeleton {
        x: xs.iter().map(|&x| x as f64).collect(),
        series_labels,
        ..skeleton
    };
    run_plan(vec![skeleton], points, seed, opts).remove(0)
}

/// Extension experiment (not in the paper, motivated by its §1: replicated
/// data "across geographically distant server farms"): two 16-node sites
/// with fast intra-site links, sweeping the WAN latency between them.
///
/// The hierarchical protocol's copy-grants and intent-mode locality keep
/// most traffic intra-site once ownership settles; Naimi's token commutes
/// across the WAN for every remote handoff.
pub fn geo(opts: &FigureOptions) -> Figure {
    use dlm_sim::{LatencyModel, TwoSite, MICROS_PER_MS};
    let params_at = |protocol, wan_ms| {
        let mut params = WorkloadParams::linux_cluster(32, protocol);
        params.latency = LatencyModel::uniform(MICROS_PER_MS); // 1 ms intra-site
        params.geo = Some(TwoSite {
            site_a: 16,
            wan: LatencyModel::uniform(wan_ms * MICROS_PER_MS),
        });
        params
    };
    let skeleton = Skeleton {
        name: "geo",
        title: "Two-site deployment: WAN latency sensitivity (extension)",
        x_label: "wan_ms",
        y_label: "mean op wait (ms) / messages per request",
        ..Skeleton::default()
    };
    let msgs: Reading = ("msgs", |r| r.messages_per_request());
    let seed = |s| 0x6E0 + s as u64;
    extension(
        skeleton,
        &[5, 25, 50, 100, 200],
        params_at,
        msgs,
        seed,
        opts,
    )
}

/// Extension experiment: hot-spot contention. An increasing fraction of
/// entry operations targets one "hot" fare; the hierarchical protocol's
/// shared read modes keep hot readers concurrent, while Naimi serializes
/// every access to the hot entry.
pub fn contention(opts: &FigureOptions) -> Figure {
    let params_at = |protocol, hot| {
        let mut params = WorkloadParams::linux_cluster(32, protocol);
        params.hot_entry_percent = hot as u8;
        params
    };
    let skeleton = Skeleton {
        name: "contention",
        title: "Hot-entry skew sensitivity (extension)",
        x_label: "hot%",
        y_label: "mean / p99 operation wait (ms)",
        ..Skeleton::default()
    };
    let p99: Reading = ("p99-ms", |r| r.op_latency.quantile(0.99) as f64 / 1000.0);
    let seed = |s| 0xC0 + s as u64 * 101;
    extension(skeleton, &[0, 25, 50, 75, 90], params_at, p99, seed, opts)
}

/// Node counts for the crash-recovery sweep. In-process clusters spawn
/// one worker thread per member, so the sweep tops out below the
/// simulator figures' 120 nodes.
pub const RECOVERY_NODES: [usize; 6] = [2, 4, 8, 16, 24, 32];

/// Crash-recovery latency figure: wall-clock milliseconds from killing a
/// member to a survivor's first Write grant in the regenerated epoch,
/// versus cluster size. Two series: crashing the **token holder** (the
/// worst case — the new root must regenerate the token and absorb every
/// survivor's R1 re-report) and crashing a **leaf** that never touched
/// the lock (the floor — the view change and link repair without token
/// regeneration).
///
/// Unlike Figures 7–10 this runs the in-process cluster runtime (real
/// threads, channel transport) rather than the virtual-time simulator:
/// recovery cost is scan/repair fan-out plus the re-report wave, which
/// only exists in the runtime. `opts.seeds` sets the repetitions averaged
/// per point (the runtime is deterministic in outcome but not in
/// scheduling).
pub fn recovery(opts: &FigureOptions) -> Figure {
    use dlm_cluster::{Cluster, ClusterConfig, LockId};
    use dlm_core::Mode;
    let series_cfg = [("token holder", true), ("leaf", false)];
    let mut series = Vec::new();
    for (label, crash_holder) in series_cfg {
        let mut values = Vec::new();
        for &n in &RECOVERY_NODES {
            let mut total_ms = 0.0;
            for _ in 0..opts.seeds.max(1) {
                let cluster = Cluster::new(ClusterConfig {
                    nodes: n,
                    locks: 1,
                    ..Default::default()
                });
                if crash_holder {
                    // Pull the token onto the victim; the lazy release
                    // leaves it there.
                    let h = cluster.handle(1);
                    h.acquire(LockId(0), Mode::Write).expect("pull token");
                    h.release(LockId(0)).expect("release at victim");
                }
                let start = std::time::Instant::now();
                cluster.crash_node(1);
                cluster.recover(1);
                let h0 = cluster.handle(0);
                h0.acquire(LockId(0), Mode::Write).expect("recovered Write");
                total_ms += start.elapsed().as_secs_f64() * 1e3;
                h0.release(LockId(0)).expect("release");
                let report = cluster.shutdown();
                assert!(
                    report.audit_errors.is_empty(),
                    "recovery figure audit (n={n}): {:?}",
                    report.audit_errors
                );
            }
            values.push(total_ms / opts.seeds.max(1) as f64);
        }
        series.push(Series {
            label: label.into(),
            values,
        });
    }
    Figure {
        name: "recovery".into(),
        title: "Crash-Recovery Latency (in-process cluster)".into(),
        x_label: "nodes".into(),
        y_label: "ms from kill to restored Write service".into(),
        x: RECOVERY_NODES.iter().map(|&n| n as f64).collect(),
        series,
    }
}

/// Every figure plus the ablations from **one shared plan**: Figures 7 and 8
/// read their metrics off the same Linux-cluster runs, 9 and 10 off the same
/// SP runs, so the whole set costs roughly half the simulations of calling
/// the figure functions one by one — and the output is value-identical to
/// them.
pub fn all_figures(opts: &FigureOptions) -> Vec<Figure> {
    let skeletons = vec![
        skeleton_fig7(),
        skeleton_fig8(),
        skeleton_fig9(),
        skeleton_fig10(),
        skeleton_ablations(),
        skeleton_latency_tail(),
    ];
    let mut points = linux_points(&[(0, fig7_metric), (1, fig8_metric)], Some(5));
    points.extend(sp_points(&[(2, fig9_metric), (3, fig10_metric)]));
    points.extend(ablation_points(4));
    run_plan(skeletons, points, PAPER_SEEDS, opts)
}
