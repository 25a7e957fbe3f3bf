//! The three workloads: what each sets up, times and checks.
//!
//! Each goes through the public entry points the `hygcn` CLI calls, so
//! its time is what a user of that path waits for.

use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use hygcn_bench::figures::{figure_scale, run_figure, FigureCtx, FigureRun, FIGURES, FIGURE_SEED};
use hygcn_core::stack::StackReport;
use hygcn_core::{HyGcnConfig, SeedReferenceBackend, SimBackend, SimReport, Simulator};
use hygcn_dse::campaign::{Campaign, CampaignReport, MODEL_SEED};
use hygcn_dse::space::{Axis, ConfigSpace, DesignPoint, WorkloadSpec};
use hygcn_dse::store::ResultStore;
use hygcn_gcn::model::{GcnModel, ModelKind};
use hygcn_graph::datasets::{DatasetKey, DatasetSpec};
use hygcn_graph::Graph;
use hygcn_mem::hbm::{ControllerPolicy, HbmConfig};

use crate::layers::Spans;

/// Operations attempted and failed, and a digest of the last pass's
/// reports so any drift in simulated results shows in the log.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted: points, stacks, artifact renders and
    /// correctness checks.
    pub attempted: u64,
    /// Operations that errored, panicked, failed or mismatched.
    pub failed: u64,
    /// The first few failure messages.
    pub problems: Vec<String>,
    /// FNV-1a over the last pass's reports, in order.
    pub digest: u64,
    /// Reports folded into the digest.
    pub reports: u64,
    /// Simulated cycles over those reports.
    pub cycles: u64,
    /// DRAM bytes over those reports.
    pub dram_bytes: u64,
}

impl Tally {
    fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.problems.len() < 8 {
                self.problems.push(what());
            }
        }
    }

    fn reset_digest(&mut self) {
        self.digest = 0xcbf2_9ce4_8422_2325;
        self.reports = 0;
        self.cycles = 0;
        self.dram_bytes = 0;
    }

    fn absorb(&mut self, text: &str, cycles: u64, dram_bytes: u64) {
        for b in text.bytes().chain(std::iter::once(b'\n')) {
            self.digest = (self.digest ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        self.reports += 1;
        self.cycles += cycles;
        self.dram_bytes += dram_bytes;
    }
}

/// One workload of the benchmark.
pub trait Workload {
    /// Set-up before a timed pass; returns its host seconds.
    fn setup(&mut self, spans: &mut Spans) -> Result<f64, String>;
    /// Set-ups before the first timed pass and before each later one; a
    /// pass runs on what the last set-up left.
    fn setups(&self) -> (usize, usize);
    /// Timed passes a run makes at least, however long they take.
    fn min_passes(&self) -> usize;
    /// The timed section: a pass, then the same pass again on the state
    /// the first one left behind; returns the host seconds of the pass
    /// and of each re-run.
    fn pass(&mut self, spans: &mut Spans, tally: &mut Tally) -> Result<(f64, Vec<f64>), String>;
    /// The untimed correctness gate over the last pass.
    fn check(&mut self, tally: &mut Tally);
    /// Directed edges of the graphs synthesized by the last set-up and
    /// pass.
    fn edges_built(&mut self) -> u64;
    /// Staged `cycle` evaluations the last set-up and pass made directly,
    /// outside any `SimBackend` (the collector counts the others).
    fn direct_evals(&self) -> u64 {
        0
    }
    /// Per-artifact host seconds of the last pass: `(id, cold, warm)`.
    fn artifacts(&self) -> Vec<(&'static str, f64, f64)> {
        Vec::new()
    }
}

fn stored_report_matches(report: &SimReport, report_json: &str) -> bool {
    report.to_json_compact() == report_json
}

fn dataset_key(workload: &WorkloadSpec) -> Option<DatasetKey> {
    match workload {
        WorkloadSpec::Dataset { key, .. } | WorkloadSpec::Reordered { key, .. } => Some(*key),
        WorkloadSpec::EdgeList { .. } => None,
    }
}

/// The graphs one campaign run built: one per workload among its points
/// not already in the store (the executor's sharing groups; figure and
/// sweep points all run at fidelity 1).
fn built_workloads(report: &CampaignReport) -> Vec<&WorkloadSpec> {
    let mut idxs: Vec<(usize, &WorkloadSpec)> = report
        .points
        .iter()
        .filter(|o| o.done().is_none_or(|c| !c.cached))
        .map(|o| (o.point().workload_idx, &o.point().workload))
        .collect();
    idxs.sort_by_key(|(i, _)| *i);
    idxs.dedup_by_key(|(i, _)| *i);
    idxs.into_iter().map(|(_, w)| w).collect()
}

fn count_points(tally: &mut Tally, report: &CampaignReport) {
    for o in &report.points {
        tally.op(!o.is_failed(), || {
            format!("{}: {}", o.point().label(), o.error().unwrap_or(""))
        });
    }
}

fn fresh_dir(root: &Path, name: &str) -> Result<PathBuf, String> {
    let dir = root.join(name);
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    Ok(dir)
}

// ---------------------------------------------------------------------
// figures-all
// ---------------------------------------------------------------------

/// Scale multiplier of `figures all --scale 0.05`, the smallest at which
/// scaled-down Reddit still honours its edge count.
const FIGURE_MULT: f64 = 0.05;

/// Warm passes after each cold one: the warm pass is short, so it gets
/// more samples per run.
const FIGURE_WARM_PASSES: usize = 2;

/// `hygcn figures all`: all 14 artifacts into a fresh store (cold), then
/// again with a fresh context on the same store (warm).
pub struct FiguresAll {
    scratch: PathBuf,
    store: PathBuf,
    cold: Vec<FigureRun>,
    warm: Vec<FigureRun>,
    times: Vec<(&'static str, f64, f64)>,
    warm_ctx: Option<FigureCtx>,
}

impl FiguresAll {
    /// A workload writing its stores under `scratch`.
    pub fn new(scratch: &Path) -> Self {
        Self {
            scratch: scratch.to_path_buf(),
            store: PathBuf::new(),
            cold: Vec::new(),
            warm: Vec::new(),
            times: Vec::new(),
            warm_ctx: None,
        }
    }

    fn render_all(
        &self,
        spans: &mut Spans,
        tally: &mut Tally,
        pass: &str,
    ) -> (Vec<FigureRun>, Vec<f64>, FigureCtx, f64) {
        let start = std::time::Instant::now();
        let mut ctx = FigureCtx::new(FIGURE_MULT);
        let mut runs = Vec::with_capacity(FIGURES.len());
        let mut secs = Vec::with_capacity(FIGURES.len());
        for spec in FIGURES {
            let (run, s) = spans.time("bench", &format!("bench.{}.{pass}", spec.id), || {
                catch_unwind(AssertUnwindSafe(|| {
                    run_figure(spec, &mut ctx, Some(&self.store), None)
                }))
            });
            secs.push(s);
            match run {
                Ok(Ok(run)) => {
                    for report in &run.reports {
                        count_points(tally, report);
                    }
                    tally.op(true, String::new);
                    runs.push(run);
                }
                Ok(Err(e)) => tally.op(false, || format!("{} ({pass}): {e}", spec.id)),
                Err(_) => tally.op(false, || format!("{} ({pass}): render panicked", spec.id)),
            }
        }
        (runs, secs, ctx, start.elapsed().as_secs_f64())
    }
}

impl Workload for FiguresAll {
    fn setup(&mut self, spans: &mut Spans) -> Result<f64, String> {
        let dir = fresh_dir(&self.scratch, "figures")?;
        let store = dir.join("figures.jsonl");
        let (planned, secs) = spans.time("dse", "dse.setup", || {
            ResultStore::open(&store).map_err(|e| e.to_string())?;
            let mut planned = 0;
            for spec in FIGURES {
                for space in (spec.spaces)(FIGURE_MULT).map_err(|e| e.to_string())? {
                    planned += space.enumerate().map_err(|e| e.to_string())?.len();
                }
            }
            Ok::<_, String>(planned)
        });
        if planned? == 0 {
            return Err("figures-all enumerated no points".into());
        }
        self.store = store;
        Ok(secs)
    }

    fn setups(&self) -> (usize, usize) {
        // A set-up takes a millisecond: several between passes give a
        // steady median.
        (1, 10)
    }

    fn min_passes(&self) -> usize {
        3
    }

    fn pass(&mut self, spans: &mut Spans, tally: &mut Tally) -> Result<(f64, Vec<f64>), String> {
        let (cold, cold_secs, _, wall) = self.render_all(spans, tally, "cold");
        let mut reruns = Vec::with_capacity(FIGURE_WARM_PASSES);
        let (mut warm, mut warm_secs, mut warm_ctx, rerun) = self.render_all(spans, tally, "warm");
        reruns.push(rerun);
        for _ in 1..FIGURE_WARM_PASSES {
            let rerun;
            (warm, warm_secs, warm_ctx, rerun) = self.render_all(spans, tally, "warm");
            reruns.push(rerun);
        }
        self.times = FIGURES
            .iter()
            .zip(cold_secs.iter().zip(&warm_secs))
            .map(|(spec, (&c, &w))| (spec.id, c, w))
            .collect();
        self.cold = cold;
        self.warm = warm;
        self.warm_ctx = Some(warm_ctx);
        Ok((wall, reruns))
    }

    fn check(&mut self, tally: &mut Tally) {
        tally.reset_digest();
        for run in &self.cold {
            tally.absorb(&run.output, 0, 0);
            for report in &run.reports {
                for c in report.completed() {
                    tally.absorb(&c.report_json, c.cycles, c.dram_bytes);
                }
            }
        }
        // The warm pass reads every point and renders the same tables.
        let warm_simulated: usize = self.warm.iter().map(|r| r.simulated).sum();
        tally.op(warm_simulated == 0, || {
            format!("warm pass simulated {warm_simulated} points, expected 0")
        });
        tally.op(self.cold.len() == self.warm.len(), || {
            "cold and warm passes rendered different artifacts".into()
        });
        for (c, w) in self.cold.iter().zip(&self.warm) {
            tally.op(c.output == w.output, || {
                format!("{}: warm table differs from cold", c.id)
            });
        }
        // Seed-oracle sample: the first cycle-backend point of each
        // dataset, re-evaluated on the graphs the warm context holds.
        let Some(ctx) = self.warm_ctx.as_mut() else {
            return;
        };
        let mut sampled: Vec<DatasetKey> = Vec::new();
        let reports = self.cold.iter().flat_map(|r| &r.reports);
        for c in reports.flat_map(CampaignReport::completed) {
            let p = &c.point;
            let WorkloadSpec::Dataset { key, scale, seed } = p.workload else {
                continue;
            };
            let plain = scale == figure_scale(key, FIGURE_MULT) && seed == FIGURE_SEED;
            if p.backend != "cycle" || !plain || p.config.fidelity != 1.0 || sampled.contains(&key)
            {
                continue;
            }
            sampled.push(key);
            let report = ctx.with_graph_model(key, p.model, |g, m| {
                SeedReferenceBackend.evaluate(g, m, &p.config)
            });
            tally.op(
                report.is_ok_and(|r| stored_report_matches(&r, &c.report_json)),
                || format!("{}: seed oracle disagrees", p.label()),
            );
        }
        tally.op(sampled.len() == DatasetKey::ALL.len(), || {
            format!("oracle sampled {} datasets, expected 6", sampled.len())
        });
    }

    fn edges_built(&mut self) -> u64 {
        let Some(ctx) = self.warm_ctx.as_mut() else {
            return 0;
        };
        let keys: Vec<DatasetKey> = self
            .cold
            .iter()
            .flat_map(|r| &r.reports)
            .flat_map(built_workloads)
            .filter_map(dataset_key)
            .collect();
        keys.into_iter()
            .map(|k| ctx.with_graph_model(k, ModelKind::Gcn, |g, _| g.num_edges() as u64))
            .sum()
    }

    fn artifacts(&self) -> Vec<(&'static str, f64, f64)> {
        self.times.clone()
    }
}

// ---------------------------------------------------------------------
// campaign-sweep
// ---------------------------------------------------------------------

/// The swept axes: 5 x 2 x 3 x 2 = 60 configs per (dataset, model).
const SWEEP_AXES: &str =
    "aggbuf-mb=1,2,4,8,16;controller=inorder,frfcfs;t-row=14,28,56;sparsity=on,off";

/// Points re-evaluated by the seed oracle: every 90th of the 360, which
/// covers both datasets, GCN and GSC (sampling), and both controllers.
const SWEEP_ORACLE_STRIDE: usize = 90;

/// Re-runs on the filled store after each cold campaign: a re-run reads
/// 360 points in milliseconds, so it gets more samples per run.
const SWEEP_RERUNS: usize = 10;

/// `hygcn campaign` on CL@1.0 and PB@1.0 x GCN/GSC/GIN x 60 configs,
/// `cycle` backend, into a fresh store; then the same campaign again on
/// the filled store.
pub struct CampaignSweep {
    scratch: PathBuf,
    space: ConfigSpace,
    store: PathBuf,
    cold: Option<CampaignReport>,
    rerun: Option<CampaignReport>,
    graphs: Vec<(usize, Graph)>,
}

impl CampaignSweep {
    /// The sweep with workload seed `seed`, writing under `scratch`.
    pub fn new(scratch: &Path, seed: u64) -> Result<Self, String> {
        let mut space = ConfigSpace::new(
            vec![
                WorkloadSpec::dataset(DatasetKey::Cl, 1.0, seed),
                WorkloadSpec::dataset(DatasetKey::Pb, 1.0, seed),
            ],
            vec![ModelKind::Gcn, ModelKind::GraphSage, ModelKind::Gin],
        );
        for axis in Axis::parse_spec(SWEEP_AXES).map_err(|e| e.to_string())? {
            space = space.with_axis(axis);
        }
        Ok(Self {
            scratch: scratch.to_path_buf(),
            space,
            store: PathBuf::new(),
            cold: None,
            rerun: None,
            graphs: Vec::new(),
        })
    }

    fn graph(&mut self, p: &DesignPoint) -> Result<&Graph, String> {
        if let Some(i) = self.graphs.iter().position(|(w, _)| *w == p.workload_idx) {
            return Ok(&self.graphs[i].1);
        }
        let g = p.workload.build().map_err(|e| e.to_string())?;
        self.graphs.push((p.workload_idx, g));
        Ok(&self.graphs[self.graphs.len() - 1].1)
    }
}

impl Workload for CampaignSweep {
    fn setup(&mut self, spans: &mut Spans) -> Result<f64, String> {
        let dir = fresh_dir(&self.scratch, "campaign")?;
        let store = dir.join("campaign.jsonl");
        let (points, secs) = spans.time("dse", "dse.setup", || {
            ResultStore::open(&store).map_err(|e| e.to_string())?;
            self.space.enumerate().map_err(|e| e.to_string())
        });
        if points?.len() != 360 {
            return Err("campaign-sweep must enumerate 360 points".into());
        }
        self.store = store;
        Ok(secs)
    }

    fn setups(&self) -> (usize, usize) {
        // A set-up takes a millisecond: several between passes give a
        // steady median.
        (1, 10)
    }

    fn min_passes(&self) -> usize {
        4
    }

    fn pass(&mut self, spans: &mut Spans, tally: &mut Tally) -> Result<(f64, Vec<f64>), String> {
        let campaign = Campaign::new(self.space.clone()).with_store(&self.store);
        let (cold, wall) = spans.time("dse", "dse.campaign", || campaign.run());
        let cold = cold.map_err(|e| format!("campaign: {e}"))?;
        count_points(tally, &cold);
        let mut reruns = Vec::with_capacity(SWEEP_RERUNS);
        for _ in 0..SWEEP_RERUNS {
            let (rerun, secs) = spans.time("dse", "dse.campaign", || campaign.run());
            let rerun = rerun.map_err(|e| format!("campaign rerun: {e}"))?;
            count_points(tally, &rerun);
            reruns.push(secs);
            self.rerun = Some(rerun);
        }
        self.cold = Some(cold);
        Ok((wall, reruns))
    }

    fn check(&mut self, tally: &mut Tally) {
        tally.reset_digest();
        let (Some(cold), Some(rerun)) = (self.cold.take(), self.rerun.take()) else {
            return;
        };
        for c in cold.completed() {
            tally.absorb(&c.report_json, c.cycles, c.dram_bytes);
        }
        tally.op(rerun.simulated == 0 && cold.simulated == 360, || {
            format!(
                "simulated {} then {} points, expected 360 then 0",
                cold.simulated, rerun.simulated
            )
        });
        let same = cold
            .completed()
            .map(|c| &c.report_json)
            .eq(rerun.completed().map(|c| &c.report_json));
        tally.op(same, || "rerun read back different reports".into());
        for o in cold.points.iter().step_by(SWEEP_ORACLE_STRIDE) {
            let Some(c) = o.done() else { continue };
            let p = &c.point;
            let ok = self.graph(p).and_then(|g| {
                let m = GcnModel::new(p.model, g.feature_len(), MODEL_SEED)
                    .map_err(|e| e.to_string())?;
                SeedReferenceBackend
                    .evaluate(g, &m, &p.config)
                    .map_err(|e| e.to_string())
            });
            tally.op(
                ok.is_ok_and(|r| stored_report_matches(&r, &c.report_json)),
                || format!("{}: seed oracle disagrees", p.label()),
            );
        }
        self.cold = Some(cold);
    }

    fn edges_built(&mut self) -> u64 {
        let Some(cold) = self.cold.take() else {
            return 0;
        };
        let points: Vec<DesignPoint> = built_workloads(&cold)
            .into_iter()
            .filter_map(|w| cold.points.iter().find(|o| &o.point().workload == w))
            .map(|o| o.point().clone())
            .collect();
        let edges = points
            .iter()
            .map(|p| self.graph(p).map_or(0, |g| g.num_edges() as u64))
            .sum();
        self.cold = Some(cold);
        edges
    }
}

// ---------------------------------------------------------------------
// simulate-reddit
// ---------------------------------------------------------------------

/// Reddit at 1/20 scale: 11,648 vertices, 5.73M directed edges.
const REDDIT_SCALE: f64 = 0.05;

/// Layers per stack, as `hygcn simulate --layers 2`.
const STACK_LAYERS: usize = 2;

/// `hygcn simulate --dataset RD --scale 0.05 --layers 2` at 8 configs:
/// set-up synthesizes the graph; the timed section runs the stacks on it,
/// then runs them again on the same graph.
pub struct SimulateReddit {
    seed: u64,
    graph: Option<Graph>,
    first: Vec<StackReport>,
    again: Vec<StackReport>,
}

impl SimulateReddit {
    /// The workload synthesizing its graph from `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            graph: None,
            first: Vec::new(),
            again: Vec::new(),
        }
    }

    /// `aggbuf-mb` 4,16 x sparsity on,off x controller inorder,frfcfs.
    fn configs() -> Vec<HyGcnConfig> {
        let mut out = Vec::new();
        for mb in [4usize, 16] {
            for sparsity in [true, false] {
                for controller in [
                    ControllerPolicy::InOrder,
                    ControllerPolicy::FrFcfs { window: 32 },
                ] {
                    let base = HyGcnConfig::default();
                    out.push(HyGcnConfig {
                        aggregation_buffer_bytes: mb << 20,
                        sparsity_elimination: sparsity,
                        hbm: HbmConfig {
                            controller,
                            ..base.hbm
                        },
                        ..base
                    });
                }
            }
        }
        out
    }

    fn stacks(
        &self,
        spans: &mut Spans,
        graph: &Graph,
        tally: &mut Tally,
    ) -> (Vec<StackReport>, f64) {
        let start = std::time::Instant::now();
        let mut reports = Vec::new();
        for cfg in Self::configs() {
            let (r, _) = spans.time("core", "core.simulate_stack", || {
                catch_unwind(AssertUnwindSafe(|| {
                    Simulator::new(cfg).simulate_stack(graph, ModelKind::Gcn, STACK_LAYERS, false)
                }))
            });
            match r {
                Ok(Ok(r)) => {
                    tally.op(true, String::new);
                    reports.push(r);
                }
                Ok(Err(e)) => tally.op(false, || format!("simulate_stack: {e}")),
                Err(_) => tally.op(false, || "simulate_stack panicked".into()),
            }
        }
        (reports, start.elapsed().as_secs_f64())
    }
}

impl Workload for SimulateReddit {
    fn setup(&mut self, spans: &mut Spans) -> Result<f64, String> {
        // Drop the previous graph first, so peak memory is one synthesis.
        self.graph = None;
        let (graph, secs) = spans.time("graph", "graph.instantiate", || {
            DatasetSpec::get(DatasetKey::Rd).instantiate(REDDIT_SCALE, self.seed)
        });
        self.graph = Some(graph.map_err(|e| format!("synthesizing RD: {e}"))?);
        Ok(secs)
    }

    fn setups(&self) -> (usize, usize) {
        // A synthesis before every pass: the passes are short, and the
        // syntheses between them spread them over the run, so one burst
        // of host contention cannot cover them all. The same seed always
        // synthesizes the same graph.
        (1, 1)
    }

    fn min_passes(&self) -> usize {
        4
    }

    fn pass(&mut self, spans: &mut Spans, tally: &mut Tally) -> Result<(f64, Vec<f64>), String> {
        let graph = self
            .graph
            .take()
            .ok_or("simulate-reddit ran before set-up")?;
        let (first, wall) = self.stacks(spans, &graph, tally);
        let (again, rerun) = self.stacks(spans, &graph, tally);
        self.graph = Some(graph);
        self.first = first;
        self.again = again;
        Ok((wall, vec![rerun]))
    }

    fn check(&mut self, tally: &mut Tally) {
        tally.reset_digest();
        for stack in &self.first {
            for layer in &stack.layers {
                tally.absorb(&layer.to_json_compact(), layer.cycles, layer.dram_bytes());
            }
        }
        tally.op(self.first == self.again, || {
            "second run of the stacks reported differently".into()
        });
        let Some(graph) = self.graph.as_ref() else {
            return;
        };
        // Seed oracle on the first and last configs, layer by layer, with
        // the inputs simulate_stack feeds each layer.
        let configs = Self::configs();
        for i in [0, configs.len() - 1] {
            let Some(stack) = self.first.get(i) else {
                continue;
            };
            let mut g = graph.clone();
            for (layer, got) in stack.layers.iter().enumerate() {
                let seed = 0xA11 + layer as u64;
                let model = GcnModel::new(ModelKind::Gcn, g.feature_len(), seed);
                let ok = model.is_ok_and(|m| {
                    let same = SeedReferenceBackend
                        .evaluate(&g, &m, &configs[i])
                        .is_ok_and(|r| r == *got);
                    g = g.with_feature_len(m.out_len());
                    same
                });
                tally.op(ok, || {
                    format!("config {i} layer {layer}: seed oracle disagrees")
                });
            }
        }
    }

    fn edges_built(&mut self) -> u64 {
        // The traced window holds exactly one set-up synthesis.
        self.graph.as_ref().map_or(0, |g| g.num_edges() as u64)
    }

    fn direct_evals(&self) -> u64 {
        let layers = |v: &Vec<StackReport>| v.iter().map(|s| s.layers.len() as u64).sum::<u64>();
        layers(&self.first) + layers(&self.again)
    }
}
