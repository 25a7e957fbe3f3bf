//! The paper's figure/table reproductions as campaign-driven
//! [`FigureSpec`]s.
//!
//! Each of the 14 evaluation artifacts (§5: Fig. 2, Fig. 10–18,
//! Tables 2/3/7, and the design-choice ablations) is one spec: the
//! [`ConfigSpace`]s describing every HyGCN simulation the artifact
//! needs, plus a typed `render` step that turns the resulting
//! [`CampaignReport`]s into the figure's table. All specs stream their
//! simulations through the campaign engine into one shared store
//! (`figures.jsonl` via `hygcn figures`), which changes the economics of
//! regeneration:
//!
//! * **Shared points dedupe.** Fig. 10–14 all read the same 20-point
//!   evaluation grid; the grid simulates once and every later figure is
//!   served from the store. Table 3's PB/GCN accelerator point is the
//!   same cache key as the grid's.
//! * **Every number is a store read.** The PyG platform baselines are
//!   backend points like any other: Fig. 2 reads the `cpu-naive` grid,
//!   Fig. 10 the `cpu`, `gpu`, `cpu-naive` and `gpu-sharded` grids,
//!   Fig. 11, 13 and 14 the `cpu` and `gpu` grids, Table 2 its one
//!   `cpu-trace` characterization point and Table 3 its one
//!   `exec-pattern` point, all cached under their own backend keys in
//!   the same store.
//! * **Re-runs are free.** `hygcn figures all` twice performs zero
//!   simulations the second time — the regression gate CI asserts.
//! * **One build per workload per run.** All of an artifact's spaces run
//!   through one campaign call, and every campaign of a run takes its
//!   graphs from the [`FigureCtx`]'s workload memo, so each workload
//!   graph is built at most once per run, whichever artifacts and
//!   backends read it.
//! * **One store open per run.** Every campaign of a run runs against
//!   the store the [`FigureCtx`] holds open, so a warm `figures all`
//!   reads the store file once, and with no file (`--store none`) the
//!   run's artifacts still share their points in memory.
//! * **Code changes invalidate precisely.** A config-affecting change
//!   alters `HyGcnConfig::canon`, so exactly the stale points re-run.
//!
//! No artifact measures a graph directly, so a warm `figures all`
//! builds no graph at all.
//!
//! Porting note: the original `fig15_sparsity` binary drove the
//! Aggregation Engine in isolation; the campaign port measures the
//! end-to-end pipeline with sparsity elimination on/off (the same
//! qualitative contrast — the `sparsity reduct.` column is identical —
//! with whole-accelerator denominators).

use std::path::Path;

use hygcn_baseline::characterize::Characterization;
use hygcn_baseline::pattern::ExecutionPattern;
use hygcn_core::energy::AreaPowerModel;
use hygcn_core::HyGcnConfig;
use hygcn_dse::campaign::{Campaign, CampaignReport, CompletedPoint, WorkloadMemo};
use hygcn_dse::space::{Axis, ConfigSpace, WorkloadSpec};
use hygcn_dse::store::ResultStore;
use hygcn_dse::DseError;
use hygcn_gcn::model::{GcnModel, ModelKind};
use hygcn_graph::datasets::{DatasetKey, DatasetSpec};
use hygcn_graph::reorder::Ordering;
use hygcn_graph::Graph;
use hygcn_obs::json_escape;

use crate::{evaluation_grid as eval_grid, fmt_x, geomean};

/// The workload seed every figure campaign uses (the CLI/bench default,
/// so figure points share cache keys with ad-hoc `hygcn campaign` runs).
pub const FIGURE_SEED: u64 = 0x5EED;

/// The scale a dataset instantiates at for a figure run: its default
/// bench scale times the run's `--scale` multiplier, clamped to
/// `[1e-3, 1]`.
pub fn figure_scale(key: DatasetKey, mult: f64) -> f64 {
    (DatasetSpec::get(key).default_bench_scale() * mult).clamp(1e-3, 1.0)
}

/// The dataset workload a figure sweeps at a scale multiplier.
fn ds(key: DatasetKey, mult: f64) -> WorkloadSpec {
    WorkloadSpec::dataset(key, figure_scale(key, mult), FIGURE_SEED)
}

/// One paper artifact: its campaign spaces and its table renderer.
pub struct FigureSpec {
    /// Artifact id (`fig15`, `table07`, ...) — the `hygcn figures`
    /// selector.
    pub id: &'static str,
    /// Human title printed above the table.
    pub title: &'static str,
    /// The campaign spaces this artifact reads, at a scale multiplier —
    /// accelerator and platform-baseline points alike. Table 7 returns
    /// no spaces: it costs zero simulations.
    pub spaces: fn(f64) -> Result<Vec<ConfigSpace>, DseError>,
    /// Typed post-processing: campaign reports (one per space, in
    /// order) to the figure's table.
    pub render: fn(&[CampaignReport], &mut FigureCtx) -> String,
}

/// One figure run's context: its scale multiplier, the workload memo
/// every campaign and direct measurement of the run shares, so a run
/// builds each workload graph once, and the open result store its
/// artifacts render into, so a run reads its store once.
///
/// The store opens on the first [`run_figure`] call that needs one, and
/// again only when a call names a different path. For `None` it is an
/// in-memory store, so the artifacts of a `--store none` run share their
/// points too. Appends stream to the file as they happen, but a record
/// another process appends to it meanwhile is not seen by this context.
pub struct FigureCtx {
    mult: f64,
    workloads: WorkloadMemo,
    store: Option<ResultStore>,
}

impl FigureCtx {
    /// A context for one scale multiplier.
    pub fn new(mult: f64) -> Self {
        Self {
            mult,
            workloads: WorkloadMemo::new(),
            store: None,
        }
    }

    /// The scale multiplier this context builds at.
    pub fn mult(&self) -> f64 {
        self.mult
    }

    /// Runs `f` over the memoized graph and a freshly derived model —
    /// the escape hatch for a measurement that reads a workload graph
    /// itself rather than a stored point.
    pub fn with_graph_model<T>(
        &mut self,
        key: DatasetKey,
        kind: ModelKind,
        f: impl FnOnce(&Graph, &GcnModel) -> T,
    ) -> T {
        let graph = self
            .workloads
            .graph(&ds(key, self.mult), 1.0)
            // lint: allow(unwrap) -- ds() clamps scale into the range instantiate accepts
            .expect("dataset instantiation cannot fail at clamped scales");
        let model =
            // lint: allow(unwrap) -- Graph guarantees feature_len >= 1, the only failure mode
            GcnModel::new(kind, graph.feature_len(), 0xC0DE).expect("nonzero feature length");
        f(&graph, &model)
    }
}

/// Extracts a numeric field from a stored compact `SimReport` JSON line
/// (`"key": value` pairs, as `SimReport::to_json_compact` emits).
pub fn report_f64(o: &CompletedPoint, key: &str) -> f64 {
    let json = &o.report_json;
    let marker = format!("\"{key}\": ");
    let start = json
        .find(&marker)
        // lint: allow(panic-macro) -- reports are checksummed store output this engine wrote; a missing field is a schema bug
        .unwrap_or_else(|| panic!("field '{key}' missing from stored report: {json}"))
        + marker.len();
    let rest = &json[start..];
    let end = rest
        .find([',', '}'])
        // lint: allow(panic-macro) -- same schema invariant as the field lookup above
        .unwrap_or_else(|| panic!("unterminated field '{key}'"));
    rest[..end]
        .trim()
        .parse()
        // lint: allow(panic-macro) -- same schema invariant as the field lookup above
        .unwrap_or_else(|_| panic!("field '{key}' is not numeric: {}", &rest[..end]))
}

/// Sum of the per-channel busy-cycle counters in a stored report
/// (`"channelN": [hits, misses, bursts, busy, last]`).
pub fn report_channel_busy_sum(o: &CompletedPoint) -> f64 {
    let channels = report_f64(o, "channels") as usize;
    let json = &o.report_json;
    let mut sum = 0.0;
    for c in 0..channels {
        let marker = format!("\"channel{c}\": [");
        let start = json
            .find(&marker)
            // lint: allow(panic-macro) -- channel arrays are part of the same written-by-us report schema
            .unwrap_or_else(|| panic!("channel{c} missing from stored report"))
            + marker.len();
        let rest = &json[start..];
        // lint: allow(unwrap) -- same report-schema invariant as the channel lookup
        let end = rest.find(']').expect("unterminated channel array");
        let fields: Vec<&str> = rest[..end].split(',').map(str::trim).collect();
        // lint: allow(unwrap) -- same report-schema invariant as the channel lookup
        sum += fields[3].parse::<f64>().expect("busy cycles numeric");
    }
    sum
}

/// Finds the unique point whose dataset label and axis assignments
/// match. Panics (registry bug) if absent — every render looks up only
/// points its own spaces enumerated.
fn find<'a>(
    report: &'a CampaignReport,
    workload_label: &str,
    axes: &[(&str, &str)],
) -> &'a CompletedPoint {
    report
        .points
        .iter()
        .find(|p| {
            p.point().assignment[0].1 == workload_label
                && axes.iter().all(|(k, v)| {
                    p.point()
                        .assignment
                        .iter()
                        .any(|(ak, av)| ak == k && av == v)
                })
        })
        // lint: allow(panic-macro) -- renderers only look up points their own spaces enumerated; a miss is a registry bug
        .unwrap_or_else(|| panic!("no point {workload_label} with {axes:?}"))
        .expect_done()
}

/// The 20-workload evaluation grid of Fig. 10–14 as two spaces: the
/// 3-model x 6-dataset block, plus DiffPool on IB and CL.
fn eval_spaces(mult: f64) -> Result<Vec<ConfigSpace>, DseError> {
    let all: Vec<WorkloadSpec> = DatasetKey::ALL.iter().map(|&k| ds(k, mult)).collect();
    Ok(vec![
        ConfigSpace::new(
            all,
            vec![ModelKind::Gcn, ModelKind::GraphSage, ModelKind::Gin],
        ),
        ConfigSpace::new(
            vec![ds(DatasetKey::Ib, mult), ds(DatasetKey::Cl, mult)],
            vec![ModelKind::DiffPool],
        ),
    ])
}

/// The 20-workload grid under each backend in turn: spaces `2i` and
/// `2i + 1` hold backend `i`'s 3-model block and DiffPool pair.
fn grid_spaces(backends: &[&str], mult: f64) -> Result<Vec<ConfigSpace>, DseError> {
    let mut spaces = Vec::with_capacity(2 * backends.len());
    for &backend in backends {
        for space in eval_spaces(mult)? {
            spaces.push(space.with_backend_id(backend));
        }
    }
    Ok(spaces)
}

/// The cross-backend evaluation grid of Fig. 11/13/14: the 20-workload
/// grid evaluated by the accelerator (spaces 0–1), PyG-CPU (2–3), and
/// PyG-GPU (4–5) — every platform cell is a campaign point read, so
/// baseline numbers are cached, resumable, and backend-key-isolated
/// exactly like simulations.
fn eval_cross_spaces(mult: f64) -> Result<Vec<ConfigSpace>, DseError> {
    grid_spaces(&["cycle", "cpu", "gpu"], mult)
}

/// Fig. 10's grid: the cross-backend grid plus the two shard-variant
/// platforms it contrasts, naive PyG-CPU (spaces 6–7) and sharded
/// PyG-GPU (8–9).
fn fig10_spaces(mult: f64) -> Result<Vec<ConfigSpace>, DseError> {
    grid_spaces(&["cycle", "cpu", "gpu", "cpu-naive", "gpu-sharded"], mult)
}

/// The grid point of one `(model, dataset)` pair within the two-space
/// block starting at `offset` (space `offset` holds the 3-model block,
/// `offset + 1` the DiffPool pair; the accelerator grid is at 0).
fn grid_point(
    reports: &[CampaignReport],
    offset: usize,
    kind: ModelKind,
    key: DatasetKey,
    mult: f64,
) -> &CompletedPoint {
    let report = if kind == ModelKind::DiffPool {
        &reports[offset + 1]
    } else {
        &reports[offset]
    };
    find(report, &ds(key, mult).label(), &[("model", kind.abbrev())])
}

const ABLATION_DATASETS: [DatasetKey; 3] = [DatasetKey::Cr, DatasetKey::Cs, DatasetKey::Pb];

fn ablation_trio(mult: f64, models: Vec<ModelKind>) -> ConfigSpace {
    ConfigSpace::new(
        ABLATION_DATASETS.iter().map(|&k| ds(k, mult)).collect(),
        models,
    )
}

// ---------------------------------------------------------------------
// Fig. 2 — CPU execution-time breakdown (baseline-only).
// ---------------------------------------------------------------------

const FIG02_DATASETS: [DatasetKey; 5] = [
    DatasetKey::Ib,
    DatasetKey::Cr,
    DatasetKey::Cs,
    DatasetKey::Cl,
    DatasetKey::Pb,
];

fn fig02_spaces(mult: f64) -> Result<Vec<ConfigSpace>, DseError> {
    Ok(vec![ConfigSpace::new(
        FIG02_DATASETS.iter().map(|&k| ds(k, mult)).collect(),
        vec![ModelKind::Gcn, ModelKind::GraphSage, ModelKind::Gin],
    )
    .with_backend_id("cpu-naive")])
}

fn fig02_render(reports: &[CampaignReport], ctx: &mut FigureCtx) -> String {
    let paper: &[(&str, [f64; 5])] = &[
        ("GCN", [94.97, 55.78, 67.71, 99.87, 95.64]),
        ("GSC", [98.72, 78.13, 60.01, 99.95, 86.73]),
        ("GIN", [93.21, 82.88, 99.37, 99.96, 98.85]),
    ];
    let mut out = format!(
        "{:<6} {:<4} {:>12} {:>12} {:>10}\n",
        "model", "ds", "agg% (ours)", "comb% (ours)", "agg%(paper)"
    );
    for (mi, kind) in [ModelKind::Gcn, ModelKind::GraphSage, ModelKind::Gin]
        .iter()
        .enumerate()
    {
        for (di, &key) in FIG02_DATASETS.iter().enumerate() {
            // The platform splits its dynamic energy by phase time, so
            // the energy split is the time split.
            let p = find(
                &reports[0],
                &ds(key, ctx.mult()).label(),
                &[("model", kind.abbrev())],
            );
            let agg_j = report_f64(p, "energy_aggregation_j");
            let agg = agg_j / (agg_j + report_f64(p, "energy_combination_j")) * 100.0;
            out += &format!(
                "{:<6} {:<4} {:>11.1}% {:>11.1}% {:>9.1}%\n",
                kind.abbrev(),
                key.abbrev(),
                agg,
                100.0 - agg,
                paper[mi].1[di]
            );
        }
    }
    out += "\nshape check: both phases significant; aggregation dominates on\n";
    out += "edge-heavy datasets (CL), combination grows on long-feature ones (CR/CS).\n";
    out
}

// ---------------------------------------------------------------------
// Fig. 10 — overall performance comparison.
// ---------------------------------------------------------------------

fn fig10_render(reports: &[CampaignReport], ctx: &mut FigureCtx) -> String {
    let mult = ctx.mult();
    let mut out = String::from("(a) shard-optimization speedup on CPU (paper avg 2.3x)\n");
    out += &format!("{:<6} {:<4} {:>10}\n", "model", "ds", "speedup");
    let mut cpu_gains = Vec::new();
    for (kind, key) in eval_grid() {
        let s = grid_point(reports, 6, kind, key, mult).time_s
            / grid_point(reports, 2, kind, key, mult).time_s;
        cpu_gains.push(s);
        out += &format!(
            "{:<6} {:<4} {:>10}\n",
            kind.abbrev(),
            key.abbrev(),
            fmt_x(s)
        );
    }
    out += &format!("average: {}\n", fmt_x(geomean(&cpu_gains)));

    out += "\n(b) shard optimization on GPU (paper: slowdown, <1)\n";
    let mut gpu_ratios = Vec::new();
    for (kind, key) in eval_grid() {
        let ratio = grid_point(reports, 4, kind, key, mult).time_s
            / grid_point(reports, 8, kind, key, mult).time_s;
        gpu_ratios.push(ratio);
        out += &format!("{:<6} {:<4} {:>10.2}\n", kind.abbrev(), key.abbrev(), ratio);
    }
    out += &format!(
        "average: {:.2} (values < 1 mean the optimization hurts)\n",
        geomean(&gpu_ratios)
    );

    out += "\n(c) HyGCN speedup (paper avg: 1509x over CPU, 6.5x over GPU)\n";
    out += "    (all three columns are campaign point reads: HyGCN spaces 0-1,\n";
    out += "     cpu backend spaces 2-3, gpu backend spaces 4-5 of one store)\n";
    out += &format!(
        "{:<6} {:<4} {:>12} {:>12}\n",
        "model", "ds", "vs PyG-CPU", "vs PyG-GPU"
    );
    let mut s_cpu = Vec::new();
    let mut s_gpu = Vec::new();
    for (kind, key) in eval_grid() {
        let hygcn_time = grid_point(reports, 0, kind, key, mult).time_s;
        let cpu_time = grid_point(reports, 2, kind, key, mult).time_s;
        let gpu_time = grid_point(reports, 4, kind, key, mult).time_s;
        let (vs_cpu, vs_gpu) = (cpu_time / hygcn_time, gpu_time / hygcn_time);
        s_cpu.push(vs_cpu);
        s_gpu.push(vs_gpu);
        out += &format!(
            "{:<6} {:<4} {:>12} {:>12}\n",
            kind.abbrev(),
            key.abbrev(),
            fmt_x(vs_cpu),
            fmt_x(vs_gpu)
        );
    }
    out += &format!(
        "average: {} over CPU, {} over GPU\n",
        fmt_x(geomean(&s_cpu)),
        fmt_x(geomean(&s_gpu))
    );
    out
}

// ---------------------------------------------------------------------
// Fig. 11 — energy normalized to PyG-CPU.
// ---------------------------------------------------------------------

fn fig11_render(reports: &[CampaignReport], ctx: &mut FigureCtx) -> String {
    let mult = ctx.mult();
    let mut out = format!(
        "{:<6} {:<4} {:>12} {:>12} {:>14}\n",
        "model", "ds", "PyG-GPU %", "HyGCN %", "HyGCN/GPU"
    );
    let mut cpu_ratios = Vec::new();
    let mut gpu_ratios = Vec::new();
    for (kind, key) in eval_grid() {
        let e_h = grid_point(reports, 0, kind, key, mult).energy_j;
        let e_cpu = grid_point(reports, 2, kind, key, mult).energy_j;
        let e_gpu = grid_point(reports, 4, kind, key, mult).energy_j;
        let (r_cpu, r_gpu) = (e_h / e_cpu, e_h / e_gpu);
        cpu_ratios.push(r_cpu);
        gpu_ratios.push(r_gpu);
        out += &format!(
            "{:<6} {:<4} {:>11.3}% {:>11.4}% {:>13.3}\n",
            kind.abbrev(),
            key.abbrev(),
            e_gpu / e_cpu * 100.0,
            r_cpu * 100.0,
            r_gpu
        );
    }
    out += &format!(
        "\naverage: HyGCN uses {:.4}% of CPU energy ({} reduction; paper 2500x)\n",
        geomean(&cpu_ratios) * 100.0,
        fmt_x(1.0 / geomean(&cpu_ratios))
    );
    out += &format!(
        "average: HyGCN uses {:.1}% of GPU energy ({} reduction; paper 10x)\n",
        geomean(&gpu_ratios) * 100.0,
        fmt_x(1.0 / geomean(&gpu_ratios))
    );
    out
}

// ---------------------------------------------------------------------
// Fig. 12 — HyGCN on-chip energy breakdown.
// ---------------------------------------------------------------------

fn fig12_render(reports: &[CampaignReport], ctx: &mut FigureCtx) -> String {
    let mult = ctx.mult();
    let mut out = format!(
        "{:<6} {:<4} {:>10} {:>12} {:>12}\n",
        "model", "ds", "AggEngine", "CombEngine", "Coordinator"
    );
    for (kind, key) in eval_grid() {
        let p = grid_point(reports, 0, kind, key, mult);
        let (a, c, k) = (
            report_f64(p, "energy_aggregation_j"),
            report_f64(p, "energy_combination_j"),
            report_f64(p, "energy_coordinator_j"),
        );
        let total = (a + c + k).max(1e-300);
        out += &format!(
            "{:<6} {:<4} {:>9.1}% {:>11.1}% {:>11.1}%\n",
            kind.abbrev(),
            key.abbrev(),
            a / total * 100.0,
            c / total * 100.0,
            k / total * 100.0
        );
    }
    out += "\nshape check: CombEngine dominates on long-feature/citation graphs;\n";
    out += "AggEngine's share rises on high-degree datasets (CL, RD).\n";
    out
}

// ---------------------------------------------------------------------
// Fig. 13 — DRAM bandwidth utilization.
// ---------------------------------------------------------------------

fn fig13_render(reports: &[CampaignReport], ctx: &mut FigureCtx) -> String {
    let mult = ctx.mult();
    let mut out = format!(
        "{:<6} {:<4} {:>10} {:>10} {:>10}\n",
        "model", "ds", "PyG-CPU", "PyG-GPU", "HyGCN"
    );
    let mut vs_cpu = Vec::new();
    let mut vs_gpu = Vec::new();
    for (kind, key) in eval_grid() {
        let bw = |offset| {
            report_f64(
                grid_point(reports, offset, kind, key, mult),
                "bandwidth_utilization",
            )
        };
        let (h, cpu, gpu) = (bw(0), bw(2), bw(4));
        vs_cpu.push(h / cpu.max(1e-9));
        vs_gpu.push(h / gpu.max(1e-9));
        out += &format!(
            "{:<6} {:<4} {:>9.1}% {:>9.1}% {:>9.1}%\n",
            kind.abbrev(),
            key.abbrev(),
            cpu * 100.0,
            gpu * 100.0,
            h * 100.0
        );
    }
    out += &format!(
        "\naverage improvement: {:.1}x over CPU (paper 16x), {:.1}x over GPU (paper 1.5x)\n",
        geomean(&vs_cpu),
        geomean(&vs_gpu)
    );
    out
}

// ---------------------------------------------------------------------
// Fig. 14 — DRAM access volume normalized to PyG-CPU.
// ---------------------------------------------------------------------

fn fig14_render(reports: &[CampaignReport], ctx: &mut FigureCtx) -> String {
    let mult = ctx.mult();
    let mut out = format!(
        "{:<6} {:<4} {:>12} {:>12}\n",
        "model", "ds", "PyG-GPU %", "HyGCN %"
    );
    let mut hygcn_ratios = Vec::new();
    let mut gpu_ratios = Vec::new();
    for (kind, key) in eval_grid() {
        let dram = |offset| grid_point(reports, offset, kind, key, mult).dram_bytes;
        let cpu = dram(2).max(1) as f64;
        let r_h = dram(0) as f64 / cpu;
        let r_g = dram(4) as f64 / cpu;
        hygcn_ratios.push(r_h);
        gpu_ratios.push(r_g);
        out += &format!(
            "{:<6} {:<4} {:>11.1}% {:>11.1}%\n",
            kind.abbrev(),
            key.abbrev(),
            r_g * 100.0,
            r_h * 100.0
        );
    }
    out += &format!(
        "\naverage: HyGCN accesses {:.0}% of CPU traffic (paper 21%), GPU {:.0}% (paper ~64%)\n",
        geomean(&hygcn_ratios) * 100.0,
        geomean(&gpu_ratios) * 100.0
    );
    out
}

// ---------------------------------------------------------------------
// Fig. 15 — sparsity elimination.
// ---------------------------------------------------------------------

fn fig15_spaces(mult: f64) -> Result<Vec<ConfigSpace>, DseError> {
    Ok(vec![
        ablation_trio(mult, vec![ModelKind::Gcn]).with_axis(Axis::parse("sparsity", "on,off")?)
    ])
}

fn fig15_render(reports: &[CampaignReport], ctx: &mut FigureCtx) -> String {
    let mut out = format!(
        "{:<4} {:>14} {:>12} {:>14} {:>16}\n",
        "ds", "exec time %", "speedup", "DRAM access %", "sparsity reduct."
    );
    for key in ABLATION_DATASETS {
        let label = ds(key, ctx.mult()).label();
        let on = find(&reports[0], &label, &[("sparsity", "on")]);
        let off = find(&reports[0], &label, &[("sparsity", "off")]);
        out += &format!(
            "{:<4} {:>13.1}% {:>11.2}x {:>13.1}% {:>15.1}%\n",
            key.abbrev(),
            on.cycles as f64 / off.cycles as f64 * 100.0,
            off.cycles as f64 / on.cycles as f64,
            on.dram_bytes as f64 / off.dram_bytes as f64 * 100.0,
            report_f64(on, "sparsity_reduction") * 100.0
        );
    }
    out += "\npaper: speedups 1.1-3x; reductions 25-75% on these datasets\n";
    out += "(paper measures the Aggregation Engine alone; this port measures end-to-end).\n";
    out
}

// ---------------------------------------------------------------------
// Fig. 16 — inter-engine pipeline ablation.
// ---------------------------------------------------------------------

fn fig16_spaces(mult: f64) -> Result<Vec<ConfigSpace>, DseError> {
    // A smaller Aggregation Buffer forces several chunks so the pipeline
    // has something to overlap (as the paper's datasets do at full
    // feature length).
    let base = HyGcnConfig {
        aggregation_buffer_bytes: 4 << 20,
        ..HyGcnConfig::default()
    };
    Ok(vec![ablation_trio(mult, vec![ModelKind::Gcn])
        .with_base(base)
        .with_axis(Axis::parse(
            "pipeline",
            "latency,energy,none",
        )?)])
}

fn fig16_render(reports: &[CampaignReport], ctx: &mut FigureCtx) -> String {
    let mut out = String::from("(a)/(b) pipeline (PP) vs no pipeline (N-PP), GCN\n");
    out += &format!(
        "{:<4} {:>14} {:>14} {:>14}\n",
        "ds", "exec time %", "time saved", "DRAM access %"
    );
    for key in ABLATION_DATASETS {
        let label = ds(key, ctx.mult()).label();
        let pp = find(&reports[0], &label, &[("pipeline", "latency")]);
        let npp = find(&reports[0], &label, &[("pipeline", "none")]);
        out += &format!(
            "{:<4} {:>13.1}% {:>13.1}% {:>13.1}%\n",
            key.abbrev(),
            pp.cycles as f64 / npp.cycles as f64 * 100.0,
            (1.0 - pp.cycles as f64 / npp.cycles as f64) * 100.0,
            pp.dram_bytes as f64 / npp.dram_bytes as f64 * 100.0
        );
    }
    out += "paper: 27-53% time saved; DRAM reduced to 50-73%.\n";

    out += "\n(c)/(d) latency-aware (Lpipe) vs energy-aware (Epipe)\n";
    out += &format!(
        "{:<4} {:>20} {:>22}\n",
        "ds", "vertex latency %", "CombEngine energy %"
    );
    for key in ABLATION_DATASETS {
        let label = ds(key, ctx.mult()).label();
        let lpipe = find(&reports[0], &label, &[("pipeline", "latency")]);
        let epipe = find(&reports[0], &label, &[("pipeline", "energy")]);
        out += &format!(
            "{:<4} {:>19.1}% {:>21.1}%\n",
            key.abbrev(),
            report_f64(lpipe, "avg_vertex_latency_cycles")
                / report_f64(epipe, "avg_vertex_latency_cycles")
                * 100.0,
            report_f64(epipe, "energy_combination_j") / report_f64(lpipe, "energy_combination_j")
                * 100.0
        );
    }
    out += "paper: Lpipe latency 71-93% of Epipe; Epipe CombEngine energy ~65% of Lpipe.\n";
    out
}

// ---------------------------------------------------------------------
// Fig. 17 — memory-access coordination ablation.
// ---------------------------------------------------------------------

fn fig17_spaces(mult: f64) -> Result<Vec<ConfigSpace>, DseError> {
    Ok(vec![
        ablation_trio(mult, vec![ModelKind::Gcn]).with_axis(Axis::parse("coordination", "on,off")?)
    ])
}

fn fig17_render(reports: &[CampaignReport], ctx: &mut FigureCtx) -> String {
    let mut out = format!(
        "{:<4} {:>18} {:>14} {:>20}\n",
        "ds", "uncoord. time %", "time saved", "bandwidth gain"
    );
    for key in ABLATION_DATASETS {
        let label = ds(key, ctx.mult()).label();
        let on = find(&reports[0], &label, &[("coordination", "on")]);
        let off = find(&reports[0], &label, &[("coordination", "off")]);
        out += &format!(
            "{:<4} {:>17.0}% {:>13.1}% {:>19.2}x\n",
            key.abbrev(),
            off.cycles as f64 / on.cycles as f64 * 100.0,
            (1.0 - on.cycles as f64 / off.cycles as f64) * 100.0,
            report_f64(on, "bandwidth_utilization")
                / report_f64(off, "bandwidth_utilization").max(1e-9)
        );
    }
    out += "\npaper: 73% time saved, 4x bandwidth utilization on average.\n";
    out
}

// ---------------------------------------------------------------------
// Fig. 18 — scalability exploration (three sweeps, one artifact).
// ---------------------------------------------------------------------

const FIG18_GEOMS: [&str; 6] = [
    "32x1x4", "16x2x8", "8x4x16", "4x8x32", "2x16x64", "1x32x128",
];

fn fig18_spaces(mult: f64) -> Result<Vec<ConfigSpace>, DseError> {
    let gsc = vec![ModelKind::GraphSage];
    Ok(vec![
        ablation_trio(mult, gsc.clone()).with_axis(Axis::parse("factor", "1,2,4,8,16")?),
        ablation_trio(mult, gsc.clone()).with_axis(Axis::parse("aggbuf-mb", "2,4,8,16,32")?),
        ablation_trio(mult, gsc).with_axis(Axis::parse("module-geom", &FIG18_GEOMS.join(","))?),
    ])
}

fn fig18_render(reports: &[CampaignReport], ctx: &mut FigureCtx) -> String {
    let mult = ctx.mult();
    let mut out = String::from("(a-c) sampling-factor sweep (GSC, sparsity elimination on)\n");
    out += &format!(
        "{:<4} {:>7} {:>14} {:>14} {:>16}\n",
        "ds", "factor", "exec time %", "DRAM access %", "sparsity reduct."
    );
    for key in ABLATION_DATASETS {
        let label = ds(key, mult).label();
        let base = find(&reports[0], &label, &[("factor", "1")]);
        for factor in ["1", "2", "4", "8", "16"] {
            let r = find(&reports[0], &label, &[("factor", factor)]);
            out += &format!(
                "{:<4} {:>7} {:>13.1}% {:>13.1}% {:>15.1}%\n",
                key.abbrev(),
                factor,
                r.cycles as f64 / base.cycles as f64 * 100.0,
                r.dram_bytes as f64 / base.dram_bytes as f64 * 100.0,
                report_f64(r, "sparsity_reduction") * 100.0
            );
        }
    }

    out += "\n(d-f) Aggregation Buffer capacity sweep (GSC)\n";
    out += &format!(
        "{:<4} {:>6} {:>14} {:>14} {:>16} {:>8}\n",
        "ds", "MB", "exec time %", "DRAM access %", "sparsity reduct.", "chunks"
    );
    for key in ABLATION_DATASETS {
        let label = ds(key, mult).label();
        let base = find(&reports[1], &label, &[("aggbuf-mb", "2")]);
        for mb in ["2", "4", "8", "16", "32"] {
            let r = find(&reports[1], &label, &[("aggbuf-mb", mb)]);
            out += &format!(
                "{:<4} {:>6} {:>13.1}% {:>13.1}% {:>15.1}% {:>8}\n",
                key.abbrev(),
                mb,
                r.cycles as f64 / base.cycles as f64 * 100.0,
                r.dram_bytes as f64 / base.dram_bytes as f64 * 100.0,
                report_f64(r, "sparsity_reduction") * 100.0,
                report_f64(r, "chunks") as u64
            );
        }
    }

    out += "\n(g) systolic-module granularity at fixed 4096 PEs (GSC)\n";
    out += &format!(
        "{:<4} {:>10} {:>18} {:>20}\n",
        "ds", "geometry", "vertex latency %", "CombEngine energy %"
    );
    for key in ABLATION_DATASETS {
        let label = ds(key, mult).label();
        let base = find(&reports[2], &label, &[("module-geom", FIG18_GEOMS[0])]);
        for geom in FIG18_GEOMS {
            let r = find(&reports[2], &label, &[("module-geom", geom)]);
            out += &format!(
                "{:<4} {:>10} {:>17.1}% {:>19.1}%\n",
                key.abbrev(),
                geom,
                report_f64(r, "avg_vertex_latency_cycles")
                    / report_f64(base, "avg_vertex_latency_cycles")
                    * 100.0,
                report_f64(r, "energy_combination_j") / report_f64(base, "energy_combination_j")
                    * 100.0
            );
        }
    }
    out += "\npaper: latency grows and energy falls as modules coarsen;\n";
    out += "the 8x(4x128) point is the chosen latency/energy trade-off.\n";
    out
}

// ---------------------------------------------------------------------
// Table 2 — CPU characterization (baseline-only).
// ---------------------------------------------------------------------

fn table02_spaces(mult: f64) -> Result<Vec<ConfigSpace>, DseError> {
    // One point: the Xeon cache characterization of GCN on COLLAB,
    // stored under the `cpu-trace` backend.
    Ok(vec![ConfigSpace::new(
        vec![ds(DatasetKey::Cl, mult)],
        vec![ModelKind::Gcn],
    )
    .with_backend_id("cpu-trace")])
}

fn table02_render(reports: &[CampaignReport], _ctx: &mut FigureCtx) -> String {
    let p = reports[0].points[0].expect_done();
    let c = Characterization::from_metrics(|name| report_f64(p, name));
    let mut out = format!(
        "{:<34} {:>12} {:>12} {:>16}\n",
        "metric", "aggregation", "combination", "paper (agg/comb)"
    );
    out += &format!(
        "{:<34} {:>12.2} {:>12.3} {:>16}\n",
        "DRAM bytes per op",
        c.aggregation.dram_bytes_per_op,
        c.combination.dram_bytes_per_op,
        "11.6 / 0.06"
    );
    out += &format!(
        "{:<34} {:>11.1}n {:>11.2}n {:>16}\n",
        "DRAM access energy per op (J)",
        c.aggregation.dram_energy_per_op_j * 1e9,
        c.combination.dram_energy_per_op_j * 1e9,
        "170n / 0.5n"
    );
    out += &format!(
        "{:<34} {:>12.1} {:>12.2} {:>16}\n",
        "L2 cache MPKI", c.aggregation.l2_mpki, c.combination.l2_mpki, "11 / 1.5"
    );
    out += &format!(
        "{:<34} {:>12.1} {:>12.2} {:>16}\n",
        "L3 cache MPKI", c.aggregation.l3_mpki, c.combination.l3_mpki, "10 / 0.9"
    );
    out += &format!(
        "{:<34} {:>12} {:>11.0}% {:>16}\n",
        "ratio of synchronization time",
        "-",
        c.sync_ratio * 100.0,
        "- / 36%"
    );
    out
}

// ---------------------------------------------------------------------
// Table 3 — execution-pattern taxonomy.
// ---------------------------------------------------------------------

fn table03_spaces(mult: f64) -> Result<Vec<ConfigSpace>, DseError> {
    // One default-config PB/GCN point — the same cache key as the
    // Fig. 10–14 grid's PB/GCN cell, so this artifact is free once the
    // grid has run — and the same workload's execution-pattern
    // characterization, stored under the `exec-pattern` backend.
    let space = || ConfigSpace::new(vec![ds(DatasetKey::Pb, mult)], vec![ModelKind::Gcn]);
    Ok(vec![space(), space().with_backend_id("exec-pattern")])
}

fn table03_render(reports: &[CampaignReport], _ctx: &mut FigureCtx) -> String {
    let p =
        ExecutionPattern::from_metrics(|name| report_f64(reports[1].points[0].expect_done(), name));
    let mut out = String::new();
    out += &format!(
        "{:<24} agg: prefetch covers {:>5.1}% (indirect)   comb: {:>5.1}% (regular)\n",
        "access pattern",
        p.agg_prefetch_coverage * 100.0,
        p.comb_prefetch_coverage * 100.0
    );
    out += &format!(
        "{:<24} agg: {:.2} distinct rows/edge (low reuse)   comb: weights reused {}x\n",
        "data reusability", p.neighbor_sharing, p.weight_reuses as u64
    );
    out += &format!(
        "{:<24} agg: per-vertex work cv = {:.2} (dynamic)   comb: cv = 0.00 (static)\n",
        "computation pattern", p.degree_cv
    );
    out += &format!(
        "{:<24} agg: {:>6.2} ops/byte (low)               comb: {:>8.1} ops/byte (high)\n",
        "computation intensity", p.agg_ops_per_byte, p.comb_ops_per_byte
    );
    // Execution bound, from the stored accelerator point: engine-busy
    // cycle counters vs the mean per-channel memory busy fraction.
    let p = reports[0].points[0].expect_done();
    let cycles = p.cycles as f64;
    let channels = report_f64(p, "channels");
    let mem_busy = report_channel_busy_sum(p) / (channels * cycles).max(1.0);
    out += &format!(
        "{:<24} memory busy {:>5.1}% vs agg engine {:>5.1}% / comb engine {:>5.1}%\n",
        "execution bound",
        mem_busy * 100.0,
        report_f64(p, "agg_compute_cycles") / cycles * 100.0,
        report_f64(p, "comb_compute_cycles") / cycles * 100.0
    );
    out += "\npaper: Aggregation = indirect/irregular, low reuse, dynamic, low\n";
    out += "intensity, memory-bound; Combination = the opposite on every row.\n";
    out
}

// ---------------------------------------------------------------------
// Table 7 — layout characteristics (static).
// ---------------------------------------------------------------------

fn table07_render(_reports: &[CampaignReport], _ctx: &mut FigureCtx) -> String {
    let model = AreaPowerModel::default();
    let mut out = format!(
        "{:<22} {:<14} {:>9} {:>9} {:>10} {:>11}\n",
        "module", "component", "power %", "area %", "power mW", "area mm2"
    );
    for c in AreaPowerModel::breakdown() {
        out += &format!(
            "{:<22} {:<14} {:>8.2}% {:>8.2}% {:>10.1} {:>11.3}\n",
            c.module,
            c.component,
            c.power_pct,
            c.area_pct,
            model.component_power_w(&c) * 1e3,
            model.component_area_mm2(&c)
        );
    }
    out += &format!(
        "\ntotal: {:.1} W, {:.1} mm2 (paper: 6.7 W, 7.8 mm2)\n",
        model.total_power_w, model.total_area_mm2
    );
    out
}

// ---------------------------------------------------------------------
// Design-choice ablations (DESIGN.md).
// ---------------------------------------------------------------------

fn ablation_spaces(mult: f64) -> Result<Vec<ConfigSpace>, DseError> {
    let pb_gcn = || ConfigSpace::new(vec![ds(DatasetKey::Pb, mult)], vec![ModelKind::Gcn]);
    let reordered = |orderings: Vec<Ordering>| WorkloadSpec::Reordered {
        key: DatasetKey::Pb,
        scale: figure_scale(DatasetKey::Pb, mult),
        seed: FIGURE_SEED,
        orderings,
    };
    Ok(vec![
        // 1. SIMD work distribution on Reddit's heavy-tailed degrees.
        ConfigSpace::new(vec![ds(DatasetKey::Rd, mult)], vec![ModelKind::Gcn])
            .with_axis(Axis::parse("agg-mode", "disperse,concentrated")?),
        // 2. Coordination decomposed: scheduler x mapping, independently.
        pb_gcn()
            .with_axis(Axis::parse("sched", "fcfs,priority")?)
            .with_axis(Axis::parse("remap", "low,high")?),
        // 2b. The FR-FCFS rescue: row-hit-first controller, no HyGCN
        // coordination at all.
        pb_gcn()
            .with_axis(Axis::parse("sched", "fcfs")?)
            .with_axis(Axis::parse("remap", "high")?)
            .with_axis(Axis::parse("controller", "frfcfs")?),
        // 3. Input Buffer (window height) sweep.
        pb_gcn().with_axis(Axis::parse("inputbuf-kb", "32,64,128,256,512")?),
        // 4. Vertex ordering vs sparsity elimination.
        ConfigSpace::new(
            vec![
                ds(DatasetKey::Pb, mult),
                reordered(vec![Ordering::Random(7)]),
                reordered(vec![Ordering::Random(7), Ordering::Bfs]),
            ],
            vec![ModelKind::Gcn],
        ),
        // 5. Systolic mode x pipeline.
        pb_gcn().with_axis(Axis::parse("pipeline", "latency,energy,none")?),
    ])
}

fn ablation_render(reports: &[CampaignReport], ctx: &mut FigureCtx) -> String {
    let mult = ctx.mult();
    let pb = ds(DatasetKey::Pb, mult).label();
    let rd = ds(DatasetKey::Rd, mult).label();

    let mut out = String::from("1: SIMD work distribution (GCN on reduced Reddit)\n");
    let disperse = find(&reports[0], &rd, &[("agg-mode", "disperse")]);
    let concentrated = find(&reports[0], &rd, &[("agg-mode", "concentrated")]);
    let busy = |p: &CompletedPoint| report_f64(p, "agg_compute_cycles");
    out += &format!(
        "vertex-disperse     {:>12} engine-busy cycles, {:>12} total\n",
        busy(disperse) as u64,
        disperse.cycles
    );
    out += &format!(
        "vertex-concentrated {:>12} engine-busy cycles, {:>12} total ({:.2}x busier engine)\n",
        busy(concentrated) as u64,
        concentrated.cycles,
        busy(concentrated) / busy(disperse).max(1.0)
    );

    out += "\n2: coordination decomposed (GCN on PB)\n";
    let rows: [(&str, &CompletedPoint); 5] = [
        (
            "priority + remap (full)",
            find(&reports[1], &pb, &[("sched", "priority"), ("remap", "low")]),
        ),
        (
            "priority batching only",
            find(
                &reports[1],
                &pb,
                &[("sched", "priority"), ("remap", "high")],
            ),
        ),
        (
            "channel/bank remap only",
            find(&reports[1], &pb, &[("sched", "fcfs"), ("remap", "low")]),
        ),
        (
            "neither",
            find(&reports[1], &pb, &[("sched", "fcfs"), ("remap", "high")]),
        ),
        (
            "neither + FR-FCFS controller",
            find(&reports[2], &pb, &[("controller", "frfcfs")]),
        ),
    ];
    for (name, r) in rows {
        out += &format!(
            "{:<28} {:>12} cycles, {:>5.1}% bandwidth\n",
            name,
            r.cycles,
            report_f64(r, "bandwidth_utilization") * 100.0
        );
    }

    out += "\n3: Input Buffer (window height) sweep (GCN on PB)\n";
    out += &format!(
        "{:>8} {:>12} {:>12} {:>16}\n",
        "KB", "cycles", "DRAM MB", "sparsity red."
    );
    for kb in ["32", "64", "128", "256", "512"] {
        let r = find(&reports[3], &pb, &[("inputbuf-kb", kb)]);
        out += &format!(
            "{:>8} {:>12} {:>12.1} {:>15.1}%\n",
            kb,
            r.cycles,
            r.dram_bytes as f64 / 1e6,
            report_f64(r, "sparsity_reduction") * 100.0
        );
    }

    out += "\n4: vertex ordering vs sparsity elimination (GCN on PB)\n";
    let order_rows = [
        ("natural (community) order", pb.clone()),
        ("random relabeling", format!("{pb}+rnd7")),
        ("BFS re-relabeling", format!("{pb}+rnd7+bfs")),
    ];
    for (name, label) in order_rows {
        let r = find(&reports[4], &label, &[]);
        out += &format!(
            "{:<28} {:>12} cycles, {:>7.1} MB DRAM, sparsity red. {:>5.1}%\n",
            name,
            r.cycles,
            r.dram_bytes as f64 / 1e6,
            report_f64(r, "sparsity_reduction") * 100.0
        );
    }

    out += "\n5: systolic mode x pipeline (GCN on PB)\n";
    for (name, pipeline) in [
        ("latency-aware (independent modules)", "latency"),
        ("energy-aware (cooperative modules)", "energy"),
        ("no pipeline (spill to DRAM)", "none"),
    ] {
        let r = find(&reports[5], &pb, &[("pipeline", pipeline)]);
        out += &format!(
            "{:<38} {:>11} cycles, latency {:>9.0} cyc, comb {:>7.1} uJ\n",
            name,
            r.cycles,
            report_f64(r, "avg_vertex_latency_cycles"),
            report_f64(r, "energy_combination_j") * 1e6
        );
    }
    out
}

// ---------------------------------------------------------------------
// Registry + orchestration.
// ---------------------------------------------------------------------

fn no_spaces(_mult: f64) -> Result<Vec<ConfigSpace>, DseError> {
    Ok(Vec::new())
}

/// Every paper artifact, in paper order.
pub const FIGURES: &[FigureSpec] = &[
    FigureSpec {
        id: "fig02",
        title: "Fig. 2: CPU execution-time breakdown (Aggregation% / Combination%)",
        spaces: fig02_spaces,
        render: fig02_render,
    },
    FigureSpec {
        id: "fig10",
        title: "Fig. 10: overall performance comparison",
        spaces: fig10_spaces,
        render: fig10_render,
    },
    FigureSpec {
        id: "fig11",
        title: "Fig. 11: energy normalized to PyG-CPU (%)",
        spaces: eval_cross_spaces,
        render: fig11_render,
    },
    FigureSpec {
        id: "fig12",
        title: "Fig. 12: HyGCN on-chip energy breakdown (%)",
        spaces: eval_spaces,
        render: fig12_render,
    },
    FigureSpec {
        id: "fig13",
        title: "Fig. 13: DRAM bandwidth utilization (%)",
        spaces: eval_cross_spaces,
        render: fig13_render,
    },
    FigureSpec {
        id: "fig14",
        title: "Fig. 14: DRAM access normalized to PyG-CPU (%)",
        spaces: eval_cross_spaces,
        render: fig14_render,
    },
    FigureSpec {
        id: "fig15",
        title: "Fig. 15: sparsity elimination (GCN)",
        spaces: fig15_spaces,
        render: fig15_render,
    },
    FigureSpec {
        id: "fig16",
        title: "Fig. 16: inter-engine pipeline ablation (GCN)",
        spaces: fig16_spaces,
        render: fig16_render,
    },
    FigureSpec {
        id: "fig17",
        title: "Fig. 17: memory-access coordination (GCN)",
        spaces: fig17_spaces,
        render: fig17_render,
    },
    FigureSpec {
        id: "fig18",
        title: "Fig. 18: scalability exploration (GSC)",
        spaces: fig18_spaces,
        render: fig18_render,
    },
    FigureSpec {
        id: "table02",
        title: "Table 2: CPU characterization (GCN on COLLAB)",
        spaces: table02_spaces,
        render: table02_render,
    },
    FigureSpec {
        id: "table03",
        title: "Table 3: execution patterns, measured (GCN on Pubmed)",
        spaces: table03_spaces,
        render: table03_render,
    },
    FigureSpec {
        id: "table07",
        title: "Table 7: HyGCN layout characteristics (TSMC 12 nm @ 1 GHz)",
        spaces: no_spaces,
        render: table07_render,
    },
    FigureSpec {
        id: "ablation",
        title: "Design-choice ablations (DESIGN.md)",
        spaces: ablation_spaces,
        render: ablation_render,
    },
];

/// Looks an artifact up by id (`"all"` is handled by the caller over
/// [`FIGURES`]).
pub fn find_figure(id: &str) -> Option<&'static FigureSpec> {
    FIGURES.iter().find(|f| f.id == id)
}

/// One regenerated artifact.
#[derive(Debug, Clone)]
pub struct FigureRun {
    /// Artifact id.
    pub id: &'static str,
    /// Artifact title.
    pub title: &'static str,
    /// The rendered table.
    pub output: String,
    /// Points simulated fresh by this artifact's campaigns.
    pub simulated: usize,
    /// Points served from the shared store.
    pub cache_hits: usize,
    /// The raw campaign reports behind the render, one per space — the
    /// plottable data the `--csv`/`--json` exporters serialize.
    pub reports: Vec<CampaignReport>,
}

/// Regenerates one artifact through the campaign engine.
///
/// All of the artifact's spaces run as one campaign against `store` (the
/// shared `figures.jsonl`, or `None` for results that live in `ctx`
/// only), so points shared between artifacts — or with previous runs —
/// are never re-simulated. The campaign runs against the store `ctx`
/// holds open for that path, opened on the context's first call for the
/// path, and takes its graphs from `ctx`'s workload memo, so a context
/// reads its store once and builds each workload graph at most once.
/// Every point evaluates on the backend its space names (the
/// cross-backend artifacts mix `cycle` with the platform backends);
/// `backend_override`, when given, re-targets the *default-backend*
/// spaces only — `hygcn figures --backend analytical` screens the
/// accelerator points analytically while the platform baselines stay
/// themselves. A point listed by several spaces is evaluated once and
/// reads back as cached in the later ones.
///
/// # Errors
///
/// The campaign executor's errors ([`DseError`]); `Spec` for an
/// unresolvable backend id.
pub fn run_figure(
    spec: &FigureSpec,
    ctx: &mut FigureCtx,
    store: Option<&Path>,
    backend_override: Option<&str>,
) -> Result<FigureRun, DseError> {
    let _obs = hygcn_obs::span(hygcn_obs::Phase::FigureRender);
    let mut spaces = (spec.spaces)(ctx.mult())?;
    if let Some(id) = backend_override {
        for space in &mut spaces {
            if space.backend == hygcn_dse::DEFAULT_BACKEND {
                space.backend = id.to_string();
            }
        }
    }
    let mut points = Vec::new();
    let mut lens = Vec::with_capacity(spaces.len());
    for space in &spaces {
        let space_points = space.enumerate()?;
        lens.push(space_points.len());
        points.extend(space_points);
    }
    let mut reports = Vec::with_capacity(spaces.len());
    if let Some(first) = spaces.first() {
        // The campaign runs the explicit point list; its own space is
        // never enumerated.
        let mut campaign = Campaign::new(first.clone())
            .with_resolver(hygcn_baseline::backend::resolve)
            .with_workload_memo(ctx.workloads.clone());
        if let Some(path) = store {
            campaign = campaign.with_store(path);
        }
        let mut open = match ctx.store.take() {
            Some(open) if open.path() == store => open,
            _ => campaign.open_store()?,
        };
        let report = campaign.run_points_in(&mut open, &points);
        ctx.store = Some(open);
        let mut outcomes = report?.points.into_iter();
        for len in lens {
            let space_outcomes = outcomes.by_ref().take(len).collect();
            reports.push(CampaignReport::from_outcomes(space_outcomes));
        }
    }
    let output = (spec.render)(&reports, ctx);
    Ok(FigureRun {
        id: spec.id,
        title: spec.title,
        output,
        simulated: reports.iter().map(|r| r.simulated).sum(),
        cache_hits: reports.iter().map(|r| r.cache_hits).sum(),
        reports,
    })
}

/// The artifact's campaign data as CSV — one section per space (spaces
/// of one artifact can carry different axis columns, so each section
/// owns its header), prefixed by a `#` comment naming the space and its
/// backend. Space-less artifacts (Table 7) produce an empty string.
pub fn figure_csv(run: &FigureRun) -> String {
    let mut out = String::new();
    for (i, report) in run.reports.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        let backend = report
            .points
            .first()
            .map_or(hygcn_dse::DEFAULT_BACKEND, |p| p.point().backend.as_str());
        out += &format!(
            "# {} space {} ({} points, backend {})\n",
            run.id,
            i,
            report.points.len(),
            backend
        );
        out += &hygcn_dse::analysis::to_csv(report);
    }
    out
}

/// The artifact's campaign data as a JSON document: id, title, and one
/// entry per space with its backend and per-point metrics — the
/// machine-readable twin of the rendered table.
pub fn figure_json(run: &FigureRun) -> String {
    let mut out = format!(
        "{{\n  \"id\": \"{}\",\n  \"title\": \"{}\",\n  \"spaces\": [",
        json_escape(run.id),
        json_escape(run.title)
    );
    for (i, report) in run.reports.iter().enumerate() {
        let backend = report
            .points
            .first()
            .map_or(hygcn_dse::DEFAULT_BACKEND, |p| p.point().backend.as_str());
        out += if i > 0 { ",\n    {" } else { "\n    {" };
        out += &format!("\"backend\": \"{}\", \"points\": [", json_escape(backend));
        for (j, p) in report.completed().enumerate() {
            if j > 0 {
                out += ",";
            }
            out += &format!(
                "\n      {{\"label\": \"{}\", \"key\": \"{}\", \"cycles\": {}, \"time_s\": {:?}, \"energy_j\": {:?}, \"dram_bytes\": {}, \"cached\": {}}}",
                json_escape(&p.point.label()),
                p.point.key_hex(),
                p.cycles,
                p.time_s,
                p.energy_j,
                p.dram_bytes,
                p.cached
            );
        }
        out += "\n    ]}";
    }
    out += "\n  ]\n}\n";
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique_and_selectable() {
        let mut seen = std::collections::BTreeSet::new();
        for f in FIGURES {
            assert!(seen.insert(f.id), "duplicate id {}", f.id);
            assert!(find_figure(f.id).is_some());
        }
        assert_eq!(FIGURES.len(), 14, "one spec per paper artifact");
        assert!(find_figure("fig99").is_none());
    }

    #[test]
    fn every_spec_builds_its_spaces() {
        for f in FIGURES {
            let spaces = (f.spaces)(0.05).unwrap_or_else(|e| panic!("{}: {e}", f.id));
            for s in &spaces {
                let points = s.enumerate().unwrap_or_else(|e| panic!("{}: {e}", f.id));
                assert!(!points.is_empty(), "{}: empty space", f.id);
            }
        }
    }

    #[test]
    fn eval_grid_has_paper_20_workloads() {
        assert_eq!(eval_grid().len(), 20);
        let spaces = eval_spaces(0.05).unwrap();
        let total: usize = spaces.iter().map(|s| s.enumerate().unwrap().len()).sum();
        assert_eq!(total, 20);
    }

    #[test]
    fn cross_backend_grid_covers_all_three_platforms() {
        let cross = ["cycle", "cpu", "gpu"];
        let fig10 = ["cycle", "cpu", "gpu", "cpu-naive", "gpu-sharded"];
        for (spaces, platforms) in [
            (eval_cross_spaces(0.05).unwrap(), &cross[..]),
            (fig10_spaces(0.05).unwrap(), &fig10[..]),
        ] {
            let backends: Vec<&str> = spaces.iter().map(|s| s.backend.as_str()).collect();
            let want: Vec<&str> = platforms.iter().flat_map(|&b| [b, b]).collect();
            assert_eq!(backends, want);
            // 20 points per platform, all pairwise key-disjoint.
            let mut keys = std::collections::BTreeSet::new();
            let mut total = 0;
            for s in &spaces {
                for p in s.enumerate().unwrap() {
                    assert!(keys.insert(p.key), "cross-backend key collision");
                    total += 1;
                }
            }
            assert_eq!(total, 20 * platforms.len());
        }
    }

    #[test]
    fn report_field_extraction_round_trips() {
        use hygcn_core::{HyGcnConfig, Simulator};
        let graph = ds(DatasetKey::Ib, 0.05).build().unwrap();
        let model = GcnModel::new(ModelKind::Gcn, graph.feature_len(), 0xC0DE).unwrap();
        let r = Simulator::new(HyGcnConfig::default())
            .simulate(&graph, &model)
            .unwrap();
        let o = CompletedPoint {
            point: hygcn_dse::space::ConfigSpace::new(
                vec![ds(DatasetKey::Ib, 0.05)],
                vec![ModelKind::Gcn],
            )
            .enumerate()
            .unwrap()
            .remove(0),
            cycles: r.cycles,
            time_s: r.time_s,
            energy_j: r.energy_j(),
            dram_bytes: r.dram_bytes(),
            report_json: r.to_json_compact(),
            cached: false,
        };
        assert_eq!(report_f64(&o, "cycles"), r.cycles as f64);
        assert_eq!(report_f64(&o, "chunks"), r.chunks as f64);
        assert_eq!(report_f64(&o, "sparsity_reduction"), r.sparsity_reduction);
        assert_eq!(report_f64(&o, "channels"), r.mem_channels.len() as f64);
        let busy: u64 = r.mem_channels.iter().map(|c| c.busy_cycles).sum();
        assert_eq!(report_channel_busy_sum(&o), busy as f64);
    }

    #[test]
    fn small_figure_runs_end_to_end_in_memory() {
        let mut ctx = FigureCtx::new(0.05);
        let run = run_figure(find_figure("fig17").unwrap(), &mut ctx, None, None).unwrap();
        assert_eq!(run.simulated, 6);
        assert_eq!(run.cache_hits, 0);
        assert!(run.output.contains("time saved"));
        assert!(run.output.contains("CR "));
        // The exporters serialize the same six points.
        let csv = figure_csv(&run);
        assert!(csv.starts_with("# fig17 space 0 (6 points, backend cycle)\n"));
        assert_eq!(csv.lines().filter(|l| !l.starts_with(['#'])).count(), 7);
        let json = figure_json(&run);
        assert!(json.contains("\"id\": \"fig17\""));
        assert_eq!(json.matches("\"label\"").count(), 6);
    }

    #[test]
    fn static_artifacts_cost_zero_simulations() {
        let mut ctx = FigureCtx::new(0.05);
        let run = run_figure(find_figure("table07").unwrap(), &mut ctx, None, None).unwrap();
        assert_eq!(run.simulated + run.cache_hits, 0);
        assert!(!run.output.is_empty());
        assert!(figure_csv(&run).is_empty());
        assert!(figure_json(&run).contains("\"spaces\": [\n  ]"));
    }

    #[test]
    fn backend_override_retargets_default_spaces_only() {
        let mut ctx = FigureCtx::new(0.05);
        let run = run_figure(
            find_figure("fig15").unwrap(),
            &mut ctx,
            None,
            Some("analytical"),
        )
        .unwrap();
        assert_eq!(run.simulated, 6);
        for report in &run.reports {
            for p in &report.points {
                assert_eq!(p.point().backend, "analytical");
            }
        }
        assert!(run_figure(find_figure("fig15").unwrap(), &mut ctx, None, Some("warp")).is_err());
    }
}
