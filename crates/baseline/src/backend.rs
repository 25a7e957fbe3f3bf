//! The platform models behind the [`SimBackend`] trait, plus the
//! full-vocabulary backend resolver.
//!
//! One table-driven [`PlatformBackend`] serves every PyG platform
//! variant the paper compares, each under its own backend id (and so its
//! own cache keys), and [`CpuTraceBackend`] serves the Xeon cache
//! characterization:
//!
//! | id            | model                                   | paper use |
//! |---------------|-----------------------------------------|-----------|
//! | `cpu`         | PyG-CPU, shard-optimized                | the comparison baseline (Fig. 10c–14) |
//! | `gpu`         | PyG-GPU, stock V100                     | the GPU baseline (Fig. 10c–14) |
//! | `cpu-naive`   | PyG-CPU as shipped                      | Fig. 2 breakdown, Fig. 10(a) reference |
//! | `gpu-sharded` | the shard optimization on the V100, intervals sized to its L2 | Fig. 10(b) |
//! | `cpu-trace`   | the trace-driven Xeon cache characterization; ignores the config beyond validating it, sampling override included | Table 2 |
//! | `exec-pattern`| the execution-pattern characterization of both phases; ignores the config beyond validating it, sampling override included | Table 3 |
//!
//! Every figure number therefore comes from a stored campaign point,
//! whichever platform produced it. The platform reports follow one
//! contract:
//!
//! * **Populated comparably:** `cycles` (at the platform's own clock),
//!   `time_s`, DRAM traffic, achieved bandwidth, and an
//!   [`EnergyBreakdown`] whose total reproduces the platform model's
//!   energy (dynamic power split across the two phases by time share,
//!   DRAM energy under `hbm_j`). `elem_ops`/`macs` come from the same
//!   [`LayerWorkload`] descriptor both models execute.
//! * **Zeroed, never invented:** the accelerator-only fields
//!   (`mem_channels`, per-channel stats, `chunks`, vertex latency,
//!   sparsity reduction, row hit/miss counters, `timeline`) stay at
//!   their zero defaults, and [`SimReport::provenance`] names the
//!   backend so a report can never be mistaken for a simulation.
//!
//! `HyGcnConfig` describes the *accelerator*, so the platform backends
//! deliberately ignore it (beyond the sampling override, which changes
//! the workload itself — the Fig. 18a–c sweep axis). They still run the
//! simulator backends' own input check, [`validate_inputs`] (feature
//! shape, buffer capacities, [`HyGcnConfig::validate`], address layout
//! and request sizes), so no point is `Ok` on a platform and `Err` on
//! the accelerator, or fails with another error. Points differing
//! only in accelerator knobs still enumerate (and cache) separately —
//! the key hashes the full config canon — but evaluate to identical
//! platform reports in microseconds each, so the duplication costs
//! nothing the cross-backend figure harness notices.
//!
//! A `cpu-trace` report carries Table 2's nine numbers as named
//! [`SimReport::metrics`] (see
//! [`crate::characterize::Characterization::to_metrics`]) and
//! `elem_ops`/`macs` from the characterized workload, and an
//! `exec-pattern` report likewise Table 3's seven
//! ([`crate::pattern::ExecutionPattern::to_metrics`]). Their cycle,
//! time, energy and DRAM fields stay zero: the characterizations
//! measure rates and shapes, not run totals.

use std::sync::Arc;

use hygcn_core::backend::{core_backend, SimBackend};
use hygcn_core::config::HyGcnConfig;
use hygcn_core::energy::EnergyBreakdown;
use hygcn_core::error::SimError;
use hygcn_core::report::SimReport;
use hygcn_core::validate::validate_inputs;
use hygcn_gcn::model::{GcnModel, ModelKind};
use hygcn_gcn::workload::LayerWorkload;
use hygcn_graph::sampling::SamplePolicy;
use hygcn_graph::Graph;
use hygcn_mem::MemStats;

use crate::characterize::characterize_workload;
use crate::cpu::CpuModel;
use crate::gpu::GpuModel;
use crate::params::CpuParams;
use crate::pattern::ExecutionPattern;
use crate::report::PlatformReport;

/// Clock the CPU cycle counts are reported at (Xeon E5-2680 v3, GHz).
pub const CPU_CLOCK_GHZ: f64 = 2.5;
/// Clock the GPU cycle counts are reported at (V100, GHz).
pub const GPU_CLOCK_GHZ: f64 = 1.25;

/// Converts a platform run into the shared report shape. `dram_j_frac`
/// is the DRAM share of `report.energy_j` (recomputed from the model's
/// own per-byte constant so the breakdown's total matches the platform
/// total).
fn to_sim_report(
    report: &PlatformReport,
    workload: &LayerWorkload,
    clock_ghz: f64,
    dram_j_per_byte: f64,
    provenance: &'static str,
) -> SimReport {
    let hbm_j = report.dram_bytes as f64 * dram_j_per_byte;
    let dynamic_j = (report.energy_j - hbm_j).max(0.0);
    let agg_share = report.phases.aggregation_share();
    let aggregation_j = dynamic_j * agg_share;
    let cycles = ((report.time_s * clock_ghz * 1e9).round() as u64).max(1);
    SimReport {
        cycles,
        time_s: report.time_s,
        agg_compute_cycles: (report.phases.aggregation_s * clock_ghz * 1e9).round() as u64,
        comb_compute_cycles: (report.phases.combination_s * clock_ghz * 1e9).round() as u64,
        mem: MemStats {
            bytes_read: report.dram_bytes,
            ..MemStats::default()
        },
        bandwidth_utilization: report.bandwidth_utilization,
        energy: EnergyBreakdown {
            aggregation_j,
            combination_j: dynamic_j - aggregation_j,
            coordinator_j: 0.0,
            hbm_j,
            static_j: 0.0,
        },
        elem_ops: workload.agg_elem_ops,
        macs: workload.combine_macs,
        provenance,
        ..SimReport::default()
    }
}

/// Expected directed edge count under `policy` over a raw graph of `n`
/// vertices and `e` edges — the same closed forms the analytical
/// backend's screening model uses.
fn expected_edges(policy: SamplePolicy, n: u64, e: u64) -> u64 {
    match policy {
        SamplePolicy::All => e,
        SamplePolicy::MaxNeighbors(cap) => e.min(n.saturating_mul(cap as u64)),
        SamplePolicy::Factor(f) | SamplePolicy::Strided(f) => {
            if f <= 1 {
                e
            } else {
                e.div_ceil(f as u64)
            }
        }
    }
}

/// Applies the config's sampling override to the workload descriptor —
/// the one accelerator knob that changes what the *platforms* execute
/// (the paper's Fig. 18a–c sampling sweep shrinks everyone's edge set).
///
/// The override **replaces** the model's own policy, exactly as the
/// simulator backends interpret it (`sample_policy_override.unwrap_or`)
/// — so a sampled design point means the same workload to every
/// backend. The edge-proportional terms are rebuilt from the raw
/// graph's edge count; the self-term element ops (per vertex, not per
/// edge) are preserved.
fn workload_for(graph: &Graph, model: &GcnModel, config: &HyGcnConfig) -> LayerWorkload {
    let mut w = LayerWorkload::of(graph, model, 0);
    if let Some(policy) = config.sample_policy_override {
        let target = expected_edges(
            policy,
            graph.num_vertices() as u64,
            graph.num_edges() as u64,
        );
        let old = w.num_edges as u64;
        if target != old {
            let paths: u64 = if model.kind() == ModelKind::DiffPool {
                2
            } else {
                1
            };
            let per_edge_ops = w.agg_width as u64 * paths;
            // agg_elem_ops = (edges + self_vertices) * width * paths:
            // swap the edge contribution, keep the self term.
            w.agg_elem_ops = w
                .agg_elem_ops
                .saturating_sub(old * per_edge_ops)
                .saturating_add(target * per_edge_ops);
            w.edge_bytes = (w.edge_bytes as f64 * target as f64 / old.max(1) as f64).round() as u64;
            w.num_edges = target as usize;
        }
    }
    w
}

/// The PyG platform variants the paper compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Platform {
    /// PyG-CPU, shard-optimized: the paper's comparison baseline.
    Cpu,
    /// PyG-GPU, stock V100: the paper's GPU baseline.
    Gpu,
    /// Stock PyG-CPU: the Fig. 2 breakdown and the Fig. 10(a) reference.
    CpuNaive,
    /// The shard optimization applied to the GPU, where it hurts
    /// (Fig. 10(b)).
    GpuSharded,
}

/// Each platform backend's id and variant.
const PLATFORMS: [(&str, Platform); 4] = [
    ("cpu", Platform::Cpu),
    ("gpu", Platform::Gpu),
    ("cpu-naive", Platform::CpuNaive),
    ("gpu-sharded", Platform::GpuSharded),
];

/// Vertices per GPU shard interval: half the V100's 6 MB L2 holds the
/// interval's feature rows (4-byte elements).
fn gpu_shard_interval(feature_len: usize) -> usize {
    ((6 << 20) / 2 / (feature_len.max(1) * 4)).max(32)
}

impl Platform {
    /// Runs one workload over `graph`: the platform report, the clock its
    /// cycle count is reported at (GHz) and the model's DRAM energy per
    /// byte.
    fn run(self, graph: &Graph, w: &LayerWorkload) -> (PlatformReport, f64, f64) {
        let cpu = |m: CpuModel| (m.run_workload(w), CPU_CLOCK_GHZ, m.params().dram_j_per_byte);
        let gpu = |m: GpuModel| (m.run_workload(w), GPU_CLOCK_GHZ, m.params().dram_j_per_byte);
        match self {
            Platform::Cpu => cpu(CpuModel::optimized()),
            Platform::Gpu => gpu(GpuModel::naive()),
            Platform::CpuNaive => cpu(CpuModel::naive()),
            Platform::GpuSharded => gpu(GpuModel::sharded(gpu_shard_interval(graph.feature_len()))),
        }
    }
}

/// One PyG platform variant behind [`SimBackend`], for every id of
/// `PLATFORMS`.
#[derive(Debug, Clone, Copy)]
pub struct PlatformBackend {
    id: &'static str,
    platform: Platform,
}

impl PlatformBackend {
    /// The platform backend with id `id`, if it is one.
    pub fn new(id: &str) -> Option<Self> {
        PLATFORMS
            .iter()
            .find(|(known, _)| *known == id)
            .map(|&(id, platform)| Self { id, platform })
    }
}

impl SimBackend for PlatformBackend {
    fn backend_id(&self) -> &'static str {
        self.id
    }

    fn evaluate(
        &self,
        graph: &Graph,
        model: &GcnModel,
        config: &HyGcnConfig,
    ) -> Result<SimReport, SimError> {
        hygcn_obs::observe_eval(self.id, || {
            validate_inputs(graph, model, config)?;
            let w = workload_for(graph, model, config);
            let (report, clock_ghz, dram_j_per_byte) = self.platform.run(graph, &w);
            Ok(to_sim_report(
                &report,
                &w,
                clock_ghz,
                dram_j_per_byte,
                self.id,
            ))
        })
    }
}

/// Aggregation edges the `cpu-trace` backend replays through the cache
/// model (the cap [`characterize_workload`] takes).
const TRACE_EDGES: u64 = 2_000_000;

/// The Table 2 CPU characterization behind [`SimBackend`]: the
/// trace-driven cache simulation of [`crate::characterize`] with the
/// default Xeon parameters, stored as named report metrics.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTraceBackend;

impl SimBackend for CpuTraceBackend {
    fn backend_id(&self) -> &'static str {
        "cpu-trace"
    }

    fn evaluate(
        &self,
        graph: &Graph,
        model: &GcnModel,
        config: &HyGcnConfig,
    ) -> Result<SimReport, SimError> {
        characterization(self.backend_id(), graph, model, config, |w| {
            characterize_workload(graph, w, &CpuParams::default(), TRACE_EDGES).to_metrics()
        })
    }
}

/// The Table 3 execution-pattern characterization behind
/// [`SimBackend`] ([`crate::pattern`]), stored as named report metrics.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecPatternBackend;

impl SimBackend for ExecPatternBackend {
    fn backend_id(&self) -> &'static str {
        "exec-pattern"
    }

    fn evaluate(
        &self,
        graph: &Graph,
        model: &GcnModel,
        config: &HyGcnConfig,
    ) -> Result<SimReport, SimError> {
        characterization(self.backend_id(), graph, model, config, |w| {
            ExecutionPattern::measure(graph, w).to_metrics()
        })
    }
}

/// The report of a characterization backend `id`: the named metrics
/// `measure` takes of `model`'s workload over `graph`, and the
/// workload's ops; no run totals. `config` only has to pass
/// [`validate_inputs`].
fn characterization(
    id: &'static str,
    graph: &Graph,
    model: &GcnModel,
    config: &HyGcnConfig,
    measure: impl FnOnce(&LayerWorkload) -> Vec<(&'static str, f64)>,
) -> Result<SimReport, SimError> {
    hygcn_obs::observe_eval(id, || {
        validate_inputs(graph, model, config)?;
        let w = LayerWorkload::of(graph, model, 0);
        Ok(SimReport {
            elem_ops: w.agg_elem_ops,
            macs: w.combine_macs,
            provenance: id,
            metrics: measure(&w),
            ..SimReport::default()
        })
    })
}

/// Every backend id the workspace knows, in CLI display order.
pub const BACKEND_IDS: &[&str] = &[
    "cycle",
    "analytical",
    "cpu",
    "gpu",
    "cpu-naive",
    "gpu-sharded",
    "cpu-trace",
    "exec-pattern",
    "seed",
];

/// Resolves any backend id in the workspace vocabulary — the three
/// `hygcn-core` backends plus the platform and characterization models
/// here.
pub fn resolve(id: &str) -> Option<Arc<dyn SimBackend>> {
    match id {
        "cpu-trace" => return Some(Arc::new(CpuTraceBackend)),
        "exec-pattern" => return Some(Arc::new(ExecPatternBackend)),
        _ => {}
    }
    match PlatformBackend::new(id) {
        Some(platform) => Some(Arc::new(platform)),
        None => core_backend(id),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hygcn_gcn::model::ModelKind;
    use hygcn_graph::datasets::{DatasetKey, DatasetSpec};

    fn workload() -> (Graph, GcnModel) {
        let g = DatasetSpec::get(DatasetKey::Pb)
            .instantiate(0.2, 7)
            .unwrap();
        let m = GcnModel::new(ModelKind::Gcn, g.feature_len(), 1).unwrap();
        (g, m)
    }

    #[test]
    fn each_platform_backend_reproduces_its_model() {
        let (g, m) = workload();
        let cfg = HyGcnConfig::default();
        let interval = gpu_shard_interval(g.feature_len());
        let cases = [
            ("cpu", CpuModel::optimized().run(&g, &m), CPU_CLOCK_GHZ),
            ("gpu", GpuModel::naive().run(&g, &m), GPU_CLOCK_GHZ),
            ("cpu-naive", CpuModel::naive().run(&g, &m), CPU_CLOCK_GHZ),
            (
                "gpu-sharded",
                GpuModel::sharded(interval).run(&g, &m),
                GPU_CLOCK_GHZ,
            ),
        ];
        for (id, direct, clock_ghz) in cases {
            let r = resolve(id).unwrap().evaluate(&g, &m, &cfg).unwrap();
            assert_eq!(r.time_s, direct.time_s, "{id}");
            assert_eq!(r.dram_bytes(), direct.dram_bytes, "{id}");
            assert!(
                (r.energy_j() - direct.energy_j).abs() <= 1e-12 * direct.energy_j,
                "{id}"
            );
            assert_eq!(
                r.bandwidth_utilization, direct.bandwidth_utilization,
                "{id}"
            );
            assert_eq!(
                r.cycles,
                (direct.time_s * clock_ghz * 1e9).round() as u64,
                "{id}"
            );
            assert_eq!(r.provenance, id);
        }
        // 64-element features: 3 MB of 256-byte rows.
        assert_eq!(gpu_shard_interval(64), 12_288);
        assert_eq!(gpu_shard_interval(1 << 20), 32);
    }

    #[test]
    fn accelerator_only_fields_are_zeroed() {
        let (g, m) = workload();
        let cfg = HyGcnConfig::default();
        for id in ["cpu", "gpu", "cpu-naive", "gpu-sharded"] {
            let r = resolve(id).unwrap().evaluate(&g, &m, &cfg).unwrap();
            assert!(r.mem_channels.is_empty(), "{id}");
            assert!(r.timeline.is_empty(), "{id}");
            assert_eq!(r.chunks, 0, "{id}");
            assert_eq!(r.avg_vertex_latency_cycles, 0.0, "{id}");
            assert_eq!(r.sparsity_reduction, 0.0, "{id}");
            assert_eq!(r.mem.row_hits + r.mem.row_misses, 0, "{id}");
            assert_eq!(r.provenance, id);
            assert!(
                r.to_json().contains(&format!("\"backend\": \"{id}\"")),
                "{id}"
            );
            // The comparable fields are genuinely populated.
            assert!(r.cycles > 0 && r.time_s > 0.0 && r.dram_bytes() > 0, "{id}");
            assert!(r.energy_j() > 0.0 && r.macs > 0 && r.elem_ops > 0, "{id}");
        }
    }

    #[test]
    fn gpu_is_faster_than_cpu_through_the_trait() {
        let (g, m) = workload();
        let cfg = HyGcnConfig::default();
        let run = |id| resolve(id).unwrap().evaluate(&g, &m, &cfg).unwrap().time_s;
        assert!(run("gpu") < run("cpu"));
        // The variants the figures compare: sharding helps the CPU and
        // hurts the GPU.
        assert!(run("cpu") < run("cpu-naive"));
        assert!(run("gpu") < run("gpu-sharded"));
    }

    #[test]
    fn sampling_override_shrinks_platform_work() {
        let (g, m) = workload();
        let cpu = PlatformBackend::new("cpu").unwrap();
        let base = cpu.evaluate(&g, &m, &HyGcnConfig::default()).unwrap();
        let with = |policy| {
            let cfg = HyGcnConfig {
                sample_policy_override: Some(policy),
                ..HyGcnConfig::default()
            };
            cpu.evaluate(&g, &m, &cfg).unwrap()
        };
        let quarter = with(SamplePolicy::Factor(4));
        assert!(quarter.elem_ops < base.elem_ops);
        assert!(quarter.time_s < base.time_s);
        // A degree cap is per *vertex*, not a global edge budget: a cap
        // far above the average degree barely changes the workload (the
        // historical bug collapsed it to ~zero), and an un-binding cap
        // changes nothing at all.
        let capped = with(SamplePolicy::MaxNeighbors(25));
        assert!(
            capped.elem_ops * 2 > base.elem_ops,
            "cap 25 on an avg-degree-~{} graph must stay near full work: {} vs {}",
            g.num_edges() / g.num_vertices(),
            capped.elem_ops,
            base.elem_ops
        );
        assert_eq!(
            with(SamplePolicy::MaxNeighbors(usize::MAX / 2)).elem_ops,
            base.elem_ops
        );
    }

    #[test]
    fn sampling_override_replaces_the_model_policy() {
        // GraphSage samples to 25 neighbors by default; an explicit
        // Factor override must REPLACE that policy (the simulator
        // backends' `unwrap_or` semantics), not compose on top of it —
        // all backends must agree on what a sampled point means.
        let (g, _) = workload();
        let gsc = GcnModel::new(ModelKind::GraphSage, g.feature_len(), 1).unwrap();
        let cfg = HyGcnConfig {
            sample_policy_override: Some(SamplePolicy::Factor(2)),
            ..HyGcnConfig::default()
        };
        let w = workload_for(&g, &gsc, &cfg);
        assert_eq!(
            w.num_edges as u64,
            expected_edges(
                SamplePolicy::Factor(2),
                g.num_vertices() as u64,
                g.num_edges() as u64
            ),
            "override applies to the raw graph, not the pre-sampled workload"
        );
    }

    #[test]
    fn resolver_covers_the_full_vocabulary() {
        for &id in BACKEND_IDS {
            let b = resolve(id).unwrap_or_else(|| panic!("{id} must resolve"));
            assert_eq!(b.backend_id(), id);
        }
        assert!(resolve("pyg").is_none());
        assert!(PlatformBackend::new("cycle").is_none());
    }

    #[test]
    fn feature_mismatch_is_rejected() {
        let (g, _) = workload();
        let wrong = GcnModel::new(ModelKind::Gcn, 8, 1).unwrap();
        for (id, _) in PLATFORMS {
            let r = resolve(id)
                .unwrap()
                .evaluate(&g, &wrong, &HyGcnConfig::default());
            assert!(r.is_err(), "{id}");
        }
    }
}
