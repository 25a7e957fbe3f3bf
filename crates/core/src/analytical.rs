//! The `analytical` backend: a first-order performance model for
//! campaign screening.
//!
//! Where [`Simulator::simulate`] executes the design — planning every
//! effectual window, materializing every DRAM request, and walking the
//! per-channel HBM state machines — this model *computes* the same
//! quantities in **O(chunks)** arithmetic, in the spirit of the
//! characterization methodology the paper itself uses to motivate the
//! design (§3, Table 2): per-phase operation counts, traffic volumes,
//! and a roofline-style memory term derived from the HBM geometry.
//!
//! The window sliding+shrinking machinery (the quantity the cycle model
//! spends an O(V+E) [`WindowPlanner`] sweep on) is replaced by a
//! closed-form occupancy model: with `m` edges landing uniformly on `n`
//! source rows, a row is occupied with probability `p = 1 - e^(-m/n)`,
//! gaps between occupied rows are geometric, and the expected window
//! count and loaded-row total follow in closed form from the window
//! height. Graph locality (which the cycle model observes and this one
//! cannot) is the main fidelity gap — the backend is validated by *rank
//! correlation* against the cycle-accurate backend over a pinned grid
//! (`tests/backends.rs`), not by absolute agreement.
//!
//! Fields the model cannot estimate honestly are zeroed
//! (`mem_channels`, `timeline`), and every report carries
//! `provenance: "analytical"`.
//!
//! [`Simulator::simulate`]: crate::sim::Simulator::simulate
//! [`WindowPlanner`]: hygcn_graph::window::WindowPlanner

use hygcn_gcn::aggregate::SelfTerm;
use hygcn_gcn::model::{GcnModel, ModelKind, DIFFPOOL_CLUSTERS};
use hygcn_graph::sampling::SamplePolicy;
use hygcn_graph::Graph;
use hygcn_mem::address::MappingScheme;
use hygcn_mem::cast::{round_u64, round_usize, widen_u64};
use hygcn_mem::hbm::ControllerPolicy;
use hygcn_mem::request::RequestArena;
use hygcn_mem::scheduler::CoordinationMode;
use hygcn_mem::MemStats;

use crate::backend::SimBackend;
use crate::config::{AggregationMode, HyGcnConfig, PipelineMode};
use crate::energy::{Activity, EnergyBreakdown};
use crate::engine::combination::{CombinationEngine, SystolicMode};
use crate::error::SimError;
use crate::layout::AddressLayout;
use crate::report::SimReport;

/// Imbalance penalty of pinning whole vertices to SIMD cores
/// (vertex-concentrated mode): the cycle model measures the true
/// max-loaded core; the analytical model charges a fixed skew factor
/// (power-law degree distributions keep the slowest core around twice
/// the mean on the Table 4 workloads).
const CONCENTRATED_IMBALANCE: f64 = 2.0;

/// Row-miss inflation of FCFS scheduling relative to priority batching:
/// un-batched request streams interleave kinds and addresses, re-opening
/// rows the coordinated order would have streamed through.
const FCFS_MISS_FACTOR: f64 = 1.5;

/// Row-miss relief of FR-FCFS reordering (row-hit-first rescue within
/// the controller's lookahead window).
const FRFCFS_MISS_FACTOR: f64 = 0.7;

/// The row-interleaved (uncoordinated) mapping places one contiguous
/// 128 MB span per channel — `hygcn_mem::address`'s `CHANNEL_SPAN` — so
/// small workloads concentrate on few channels.
const CHANNEL_SPAN_BYTES: f64 = (128u64 << 20) as f64;

/// The first-order analytical evaluation backend (id `"analytical"`).
#[derive(Debug, Clone, Copy, Default)]
pub struct AnalyticalBackend;

impl SimBackend for AnalyticalBackend {
    fn backend_id(&self) -> &'static str {
        "analytical"
    }

    fn evaluate(
        &self,
        graph: &Graph,
        model: &GcnModel,
        config: &HyGcnConfig,
    ) -> Result<SimReport, SimError> {
        hygcn_obs::observe_eval(self.backend_id(), || {
            analytical_report(graph, model, config)
        })
    }
}

// `round_u64` and its relatives live in `hygcn_mem::cast` (shared with
// the baseline cost models); this file is a `cost_paths` member in
// `lint.toml`, so every numeric conversion below must name one.

/// Expected occupied rows, effectual windows, and loaded rows for one
/// chunk: `m` edges uniform over `n` source rows, window height `h`.
///
/// Returns `(occupied, windows, rows_loaded)`.
fn occupancy(n: f64, m: f64, h: f64) -> (f64, f64, f64) {
    if n <= 0.0 || m <= 0.0 {
        return (0.0, 0.0, 0.0);
    }
    // P(row occupied) for m uniform darts on n rows.
    let p = (1.0 - (-m / n).exp()).clamp(1e-12, 1.0);
    let q = 1.0 - p;
    let occupied = n * p;
    // Gaps between consecutive occupied rows are Geometric(p) on
    // support >= 1; a window break happens on a gap > h.
    let qh = q.powf(h);
    let pairs = (occupied - 1.0).max(0.0);
    let windows = 1.0 + pairs * qh;
    // Interior (non-occupied, still loaded) rows per non-breaking pair:
    // E[(G-1) * 1{G <= h}] for G ~ Geometric(p), closed form.
    let interior = if q > 0.0 {
        (q * (1.0 - h * q.powf(h - 1.0) + (h - 1.0) * qh) / p).max(0.0)
    } else {
        0.0
    };
    let rows_loaded = (occupied + pairs * interior).min(n);
    (occupied, windows, rows_loaded)
}

/// Expected edge count after runtime sampling, plus the pre-sampling
/// edge volume the Sampler must filter (0 when not sampling).
fn sampled_edges(policy: SamplePolicy, n: f64, e: f64) -> (f64, f64) {
    match policy {
        SamplePolicy::All => (e, 0.0),
        // Upper bound: every vertex at the cap. Hub-heavy graphs retain
        // fewer; the bound preserves the ranking across cap values.
        SamplePolicy::MaxNeighbors(cap) => (e.min(n * cap as f64), e),
        SamplePolicy::Factor(f) | SamplePolicy::Strided(f) => (e / (f.max(1) as f64), e),
    }
}

#[allow(clippy::too_many_lines)]
fn analytical_report(
    graph: &Graph,
    model: &GcnModel,
    cfg: &HyGcnConfig,
) -> Result<SimReport, SimError> {
    // --- Input validation: identical contract to `simulate()`. ---
    crate::validate::validate_inputs(graph, model, cfg)?;
    let f_in = model.feature_len();
    let row_bytes = widen_u64(f_in * 4);

    let kind = model.kind();
    let policy = cfg.sample_policy_override.unwrap_or(kind.sample_policy());
    let n = graph.num_vertices() as f64;
    let (e_eff, presample) = sampled_edges(policy, n, graph.num_edges() as f64);
    let include_self = !matches!(kind.self_term(), SelfTerm::None);
    let paths = if kind == ModelKind::DiffPool {
        2.0
    } else {
        1.0
    };
    let clusters = DIFFPOOL_CLUSTERS as f64;
    let fw = f_in as f64;

    let dims = kind.mlp_dims(f_in);
    let comb = CombinationEngine::new(cfg, &dims, 0, 0);
    let weights_resident = comb.weights_resident();
    let out_len = comb.out_len() as f64;
    let mode = match cfg.pipeline {
        PipelineMode::LatencyAware => SystolicMode::Independent,
        PipelineMode::EnergyAware | PipelineMode::None => SystolicMode::Cooperative,
    };

    let chunk_w = cfg.chunk_width(f_in) as f64;
    let nchunks = round_usize((n / chunk_w).ceil().max(1.0));
    let h = cfg.window_height(f_in) as f64;
    let lanes = cfg.simd_lanes().max(1) as f64;
    let cores = cfg.simd_cores.max(1) as f64;

    // --- Roofline memory term from the HBM geometry. ---
    let hbm = &cfg.hbm;
    let layout = AddressLayout::new(
        widen_u64(graph.num_vertices()),
        widen_u64(graph.num_edges()),
        row_bytes,
        &dims,
    );
    let footprint = layout.spill_base as f64 + n * row_bytes as f64 * paths;
    let effective_channels = match hbm.mapping {
        // Coordinated: consecutive DRAM rows round-robin the channels.
        MappingScheme::ChannelInterleaved => hbm.channels as f64,
        // Uncoordinated: one 128 MB span per channel, so the workload
        // only spreads over the spans its footprint crosses.
        MappingScheme::RowInterleaved => (footprint / CHANNEL_SPAN_BYTES)
            .ceil()
            .clamp(1.0, hbm.channels as f64),
    };
    let miss_factor = match cfg.coordination {
        CoordinationMode::PriorityBatched => 1.0,
        CoordinationMode::Fcfs => FCFS_MISS_FACTOR,
    } * match hbm.controller {
        ControllerPolicy::InOrder => 1.0,
        ControllerPolicy::FrFcfs { .. } => FRFCFS_MISS_FACTOR,
    };
    let hbm_row = hbm.row_bytes as f64;
    let burst = hbm.burst_bytes as f64;
    let (t_burst, t_row, t_cas) = (hbm.t_burst as f64, hbm.t_row as f64, hbm.t_cas as f64);
    // Cycles to drain `bytes` issued as `requests` DRAM requests, and
    // the estimated row misses the drain exposes.
    let mem_misses = |bytes: f64, requests: f64| (bytes / hbm_row + requests) * miss_factor;
    let mem_cycles = |bytes: f64, requests: f64| {
        if bytes <= 0.0 {
            return 0.0;
        }
        let bursts = (bytes / burst).ceil();
        (bursts * t_burst + mem_misses(bytes, requests) * t_row) / effective_channels + t_cas
    };

    // --- Per-chunk cost records (O(1) arithmetic each). ---
    struct Chunk {
        verts: f64,
        agg_cycles: f64,
        comb_cycles: f64,
        first_group_cycles: f64,
        agg_bytes: f64,
        agg_requests: f64,
        comb_bytes: f64,
        comb_requests: f64,
        spill_bytes: f64,
    }
    let mut chunks: Vec<Chunk> = Vec::with_capacity(nchunks);
    let mut act = Activity::default();
    let mut arena = RequestArena::new();
    let mut elem_ops_total = 0.0f64;
    let mut macs_total = 0u64;
    let mut rows_total = 0.0f64;
    let mut windows_total = 0.0f64;
    let mut bytes_read = 0.0f64;
    let mut bytes_written = 0.0f64;
    let mut requests_total = 0.0f64;
    let mut misses_total = 0.0f64;

    for i in 0..nchunks {
        let verts = if i + 1 == nchunks {
            n - chunk_w * (nchunks - 1) as f64
        } else {
            chunk_w
        };
        let edges = e_eff * verts / n.max(1.0);

        // Aggregation: occupancy-model window planning.
        let (_, windows, rows) = if cfg.sparsity_elimination {
            occupancy(n, edges, h)
        } else {
            (n, (n / h).ceil(), n)
        };
        let self_ops = if include_self { verts * fw } else { 0.0 };
        let elem_ops = (edges * fw + self_ops) * paths;
        let accumulate = match cfg.aggregation_mode {
            AggregationMode::VertexDisperse => (elem_ops / lanes).ceil(),
            AggregationMode::VertexConcentrated => {
                (elem_ops / lanes).ceil() * CONCENTRATED_IMBALANCE
            }
        };
        let issue = edges * paths / cores + 1.0;
        let sampler = presample / nchunks as f64 / cores;
        let agg_cycles = accumulate + issue + sampler;

        // Combination: the real engine's O(1) cost formulas, reused.
        let extra_macs = if kind == ModelKind::DiffPool {
            round_u64(
                verts * fw * clusters
                    + verts * clusters * out_len
                    + edges * clusters * clusters / 64.0,
            )
        } else {
            0
        };
        let load_weights = i == 0 || !weights_resident;
        let c = comb.process_chunk(
            // verts is an integral f64 (chunk width or remainder), so
            // rounding and the old truncation agree exactly.
            round_u64(verts),
            mode,
            load_weights,
            extra_macs,
            widen_u64(i),
            &mut arena,
        );

        // Traffic.
        let agg_bytes = rows * row_bytes as f64 + edges * 4.0;
        let agg_requests = windows + 1.0;
        let comb_bytes = c.summary.total_bytes() as f64;
        let comb_requests = c.summary.total_count() as f64;
        let spill_bytes = if cfg.pipeline == PipelineMode::None {
            verts * row_bytes as f64 * paths
        } else {
            0.0
        };

        // Activity accounting (mirrors `simulate()`'s fold).
        act.simd_ops += round_u64(elem_ops);
        act.agg_buffer_traffic += round_u64(
            2.0 * edges * 4.0 * paths + rows * row_bytes as f64 + edges * row_bytes as f64 * paths,
        );
        act.coordinator_buffer_traffic += round_u64(2.0 * elem_ops * 4.0) + c.agg_buffer_bytes;
        act.agg_hbm_bytes += round_u64(agg_bytes);
        act.macs += c.macs;
        act.comb_buffer_traffic += c.weight_buffer_bytes + c.output_buffer_bytes;
        act.comb_hbm_bytes += c.summary.total_bytes();
        act.spill_hbm_bytes += round_u64(2.0 * spill_bytes);

        elem_ops_total += elem_ops;
        macs_total += c.macs;
        rows_total += rows;
        windows_total += windows;
        bytes_read += agg_bytes + (comb_bytes - c.summary.write_bytes() as f64) + spill_bytes;
        bytes_written += c.summary.write_bytes() as f64 + spill_bytes;
        requests_total += agg_requests + comb_requests + if spill_bytes > 0.0 { 2.0 } else { 0.0 };
        misses_total += mem_misses(
            agg_bytes + comb_bytes + 2.0 * spill_bytes,
            agg_requests + comb_requests,
        );

        chunks.push(Chunk {
            verts,
            agg_cycles,
            comb_cycles: c.compute_cycles as f64,
            first_group_cycles: c.first_group_cycles as f64,
            agg_bytes,
            agg_requests,
            comb_bytes,
            comb_requests,
            spill_bytes,
        });
    }

    // --- Pipeline composition (mirrors the cycle model's step logic). ---
    let mut cycles = 0.0f64;
    let mut agg_compute = 0.0f64;
    let mut comb_compute = 0.0f64;
    let mut latency_weighted = 0.0f64;
    match cfg.pipeline {
        PipelineMode::None => {
            for c in &chunks {
                let mem_a = mem_cycles(c.agg_bytes + c.spill_bytes, c.agg_requests + 1.0);
                let mem_b = mem_cycles(c.comb_bytes + c.spill_bytes, c.comb_requests + 1.0);
                let step_a = c.agg_cycles.max(mem_a);
                let step_b = c.comb_cycles.max(mem_b);
                cycles += step_a + step_b;
                agg_compute += c.agg_cycles;
                comb_compute += c.comb_cycles;
                latency_weighted += (step_a + step_b) * c.verts;
            }
        }
        PipelineMode::LatencyAware | PipelineMode::EnergyAware => {
            let same_chunk = cfg.pipeline == PipelineMode::LatencyAware;
            let steps = if same_chunk {
                chunks.len()
            } else {
                chunks.len() + 1
            };
            let mut agg_step_time = vec![0.0f64; chunks.len()];
            for s in 0..steps {
                let comb_idx = if same_chunk {
                    Some(s)
                } else {
                    s.checked_sub(1)
                };
                let (mut bytes, mut requests, mut compute_a, mut compute_b) = (0.0, 0.0, 0.0, 0.0);
                if s < chunks.len() {
                    bytes += chunks[s].agg_bytes;
                    requests += chunks[s].agg_requests;
                    compute_a = chunks[s].agg_cycles;
                    agg_compute += compute_a;
                }
                if let Some(c) = comb_idx.filter(|&c| c < chunks.len()) {
                    bytes += chunks[c].comb_bytes;
                    requests += chunks[c].comb_requests;
                    compute_b = chunks[c].comb_cycles;
                    comb_compute += compute_b;
                }
                let step = compute_a.max(compute_b).max(mem_cycles(bytes, requests));
                if s < chunks.len() {
                    agg_step_time[s] = step;
                }
                cycles += step;
            }
            for (i, c) in chunks.iter().enumerate() {
                let latency = match mode {
                    SystolicMode::Independent => {
                        let assembly =
                            cfg.module_group_vertices as f64 * agg_step_time[i] / c.verts.max(1.0);
                        agg_step_time[i] * 0.75 + assembly + c.first_group_cycles
                    }
                    SystolicMode::Cooperative => agg_step_time[i] + c.comb_cycles,
                };
                latency_weighted += latency * c.verts;
            }
        }
    }

    // --- Report assembly. ---
    let cycles_u = round_u64(cycles).max(1);
    let time_s = cfg.cycles_to_seconds(cycles_u);
    let bursts_total = round_u64(((bytes_read + bytes_written) / burst).ceil());
    let misses_u = round_u64(misses_total).min(bursts_total);
    let stats = MemStats {
        bytes_read: round_u64(bytes_read),
        bytes_written: round_u64(bytes_written),
        row_hits: bursts_total - misses_u,
        row_misses: misses_u,
        requests: round_u64(requests_total),
        last_completion: cycles_u,
    };
    let baseline_rows = n * nchunks as f64;
    let _ = windows_total;
    Ok(SimReport {
        cycles: cycles_u,
        time_s,
        agg_compute_cycles: round_u64(agg_compute),
        comb_compute_cycles: round_u64(comb_compute),
        bandwidth_utilization: stats.bandwidth_utilization(cycles_u, hbm.peak_bytes_per_cycle()),
        mem: stats,
        mem_channels: Vec::new(),
        energy: EnergyBreakdown::from_activity(&act).with_static(time_s),
        avg_vertex_latency_cycles: latency_weighted / n.max(1.0),
        sparsity_reduction: if cfg.sparsity_elimination && baseline_rows > 0.0 {
            (1.0 - rows_total / baseline_rows).max(0.0)
        } else {
            0.0
        },
        chunks: nchunks,
        elem_ops: round_u64(elem_ops_total),
        macs: macs_total,
        timeline: Vec::new(),
        provenance: "analytical",
        metrics: Vec::new(),
    })
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)]
mod tests {
    use super::*;
    use hygcn_graph::generator::{preferential_attachment, rmat, RmatParams};

    fn graph(n: usize, f: usize) -> Graph {
        preferential_attachment(n, 4, 1)
            .unwrap()
            .with_feature_len(f)
    }

    fn run(cfg: HyGcnConfig, g: &Graph, m: &GcnModel) -> SimReport {
        AnalyticalBackend.evaluate(g, m, &cfg).unwrap()
    }

    #[test]
    fn report_is_populated_and_marked() {
        let g = graph(2048, 64);
        let m = GcnModel::new(ModelKind::Gcn, 64, 1).unwrap();
        let r = run(HyGcnConfig::default(), &g, &m);
        assert!(r.cycles > 1);
        assert!(r.time_s > 0.0);
        assert!(r.energy_j() > 0.0);
        assert!(r.dram_bytes() > 0);
        assert!(r.bandwidth_utilization > 0.0 && r.bandwidth_utilization <= 1.0);
        assert_eq!(r.provenance, "analytical");
        // Fields the model cannot estimate stay zeroed.
        assert!(r.mem_channels.is_empty());
        assert!(r.timeline.is_empty());
    }

    #[test]
    fn evaluation_is_deterministic() {
        let g = graph(1024, 128);
        let m = GcnModel::new(ModelKind::Gcn, 128, 1).unwrap();
        let a = run(HyGcnConfig::default(), &g, &m);
        let b = run(HyGcnConfig::default(), &g, &m);
        assert_eq!(a, b);
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn tracks_cycle_model_directionally() {
        let g = rmat(4096, 40_000, RmatParams::default(), 3)
            .unwrap()
            .with_feature_len(128);
        let m = GcnModel::new(ModelKind::Gcn, 128, 1).unwrap();
        let mut cfg = HyGcnConfig::default();
        cfg.aggregation_buffer_bytes = 1 << 20;
        let base = run(cfg.clone(), &g, &m);

        // Sparsity elimination reduces DRAM traffic and never hurts.
        cfg.sparsity_elimination = false;
        let no_sparsity = run(cfg.clone(), &g, &m);
        assert!(base.dram_bytes() < no_sparsity.dram_bytes());
        assert!(base.sparsity_reduction > 0.0);
        assert!(no_sparsity.sparsity_reduction.abs() < 1e-12);
        cfg.sparsity_elimination = true;

        // No pipeline pays spills and serialization.
        cfg.pipeline = PipelineMode::None;
        let no_pipe = run(cfg.clone(), &g, &m);
        assert!(no_pipe.cycles > base.cycles);
        assert!(no_pipe.dram_bytes() > base.dram_bytes());
        cfg.pipeline = PipelineMode::LatencyAware;

        // Fewer channels bound bandwidth harder.
        cfg.hbm.channels = 2;
        let narrow = run(cfg.clone(), &g, &m);
        assert!(narrow.cycles > base.cycles);
        cfg.hbm = hygcn_mem::HbmConfig::hbm1();

        // The uncoordinated memory system is slower.
        cfg.coordination = CoordinationMode::Fcfs;
        cfg.hbm = hygcn_mem::HbmConfig::hbm1_uncoordinated();
        let uncoord = run(cfg, &g, &m);
        assert!(uncoord.cycles > base.cycles);
    }

    #[test]
    fn latency_pipeline_has_lower_vertex_latency_than_energy() {
        let g = graph(4096, 128);
        let m = GcnModel::new(ModelKind::Gcn, 128, 1).unwrap();
        let mut cfg = HyGcnConfig::default();
        cfg.pipeline = PipelineMode::LatencyAware;
        let lat = run(cfg.clone(), &g, &m);
        cfg.pipeline = PipelineMode::EnergyAware;
        let en = run(cfg, &g, &m);
        assert!(lat.avg_vertex_latency_cycles < en.avg_vertex_latency_cycles);
        assert!(en.energy.combination_j < lat.energy.combination_j);
    }

    #[test]
    fn sampling_and_model_structure_register() {
        let g = rmat(1024, 60_000, RmatParams::default(), 5)
            .unwrap()
            .with_feature_len(64);
        let gcn = GcnModel::new(ModelKind::Gcn, 64, 1).unwrap();
        let gsc = GcnModel::new(ModelKind::GraphSage, 64, 1).unwrap();
        let dfp = GcnModel::new(ModelKind::DiffPool, 64, 1).unwrap();
        let cfg = HyGcnConfig::default();
        let r_gcn = run(cfg.clone(), &g, &gcn);
        let r_gsc = run(cfg.clone(), &g, &gsc);
        let r_dfp = run(cfg, &g, &dfp);
        assert!(r_gsc.elem_ops < r_gcn.elem_ops, "sampling reduces work");
        assert!(r_dfp.macs > r_gcn.macs, "DiffPool adds coarsening MACs");
    }

    #[test]
    fn input_contract_matches_simulator() {
        let g = graph(64, 32);
        let wrong = GcnModel::new(ModelKind::Gcn, 64, 1).unwrap();
        assert!(matches!(
            AnalyticalBackend.evaluate(&g, &wrong, &HyGcnConfig::default()),
            Err(SimError::Gcn(_))
        ));
        let g = graph(64, 4096);
        let m = GcnModel::new(ModelKind::Gcn, 4096, 1).unwrap();
        let cfg = HyGcnConfig {
            input_buffer_bytes: 8 << 10,
            ..HyGcnConfig::default()
        };
        assert!(matches!(
            AnalyticalBackend.evaluate(&g, &m, &cfg),
            Err(SimError::BufferTooSmall {
                buffer: "input",
                ..
            })
        ));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]
        /// Adding edges to a fixed vertex set never makes the analytical
        /// model report fewer cycles or less DRAM traffic. Before the
        /// rounding fix this held only by luck: the bare `as u64` casts
        /// truncated each chunk's totals independently, so a larger
        /// float total could land on a smaller integer.
        #[test]
        fn analytical_is_monotone_in_edge_count(
            n in 256usize..2048,
            m1 in 1usize..20_000,
            extra in 1usize..20_000,
            seed in 0u64..64,
        ) {
            let m2 = m1 + extra;
            let f = 64;
            let make = |m: usize| {
                rmat(n, m, RmatParams::default(), seed)
                    .unwrap()
                    .with_feature_len(f)
            };
            let model = GcnModel::new(ModelKind::Gcn, f, 1).unwrap();
            let cfg = HyGcnConfig::default();
            let sparse = AnalyticalBackend.evaluate(&make(m1), &model, &cfg).unwrap();
            let dense = AnalyticalBackend.evaluate(&make(m2), &model, &cfg).unwrap();
            proptest::prop_assert!(
                dense.cycles >= sparse.cycles,
                "cycles fell when edges grew: {} edges -> {}, {} edges -> {}",
                m1, sparse.cycles, m2, dense.cycles,
            );
            proptest::prop_assert!(
                dense.dram_bytes() >= sparse.dram_bytes(),
                "dram fell when edges grew: {} edges -> {}, {} edges -> {}",
                m1, sparse.dram_bytes(), m2, dense.dram_bytes(),
            );
        }
    }

    #[test]
    fn round_u64_rounds_and_saturates() {
        assert_eq!(round_u64(0.0), 0);
        assert_eq!(round_u64(-3.7), 0);
        assert_eq!(round_u64(f64::NAN), 0);
        assert_eq!(round_u64(99.4), 99);
        assert_eq!(round_u64(99.5), 100, "round, not truncate");
        assert_eq!(round_u64(99.999_999), 100, "the old cast lost this");
        assert_eq!(round_u64(f64::INFINITY), u64::MAX);
        assert_eq!(round_u64(1e300), u64::MAX);
    }

    #[test]
    fn occupancy_model_limits() {
        // No edges: nothing occupied, nothing loaded.
        assert_eq!(occupancy(1000.0, 0.0, 16.0), (0.0, 0.0, 0.0));
        // Saturated: every row occupied, loads bounded by n.
        let (occ, windows, rows) = occupancy(1000.0, 1e9, 16.0);
        assert!((occ - 1000.0).abs() < 1.0);
        assert!(rows <= 1000.0);
        assert!(
            (1.0..10.0).contains(&windows),
            "dense rows merge: {windows}"
        );
        // Sparse: few occupied rows, tall windows bridge nothing.
        let (occ, windows, rows) = occupancy(1_000_000.0, 10.0, 16.0);
        assert!(occ < 11.0);
        assert!(windows > 9.0, "isolated rows stay separate: {windows}");
        assert!(rows < 12.0);
    }
}
