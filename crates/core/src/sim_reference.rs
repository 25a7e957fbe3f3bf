//! The seed implementation of `simulate()`, kept as a reference.
//!
//! This is the simulator exactly as the repository's seed modeled it:
//! strictly serial, one gather-and-sort window-planning pass per chunk,
//! a freshly allocated request buffer per chunk, and an allocating
//! scheduler call per timeline step, each step's batch serviced by the
//! seed's HBM walk, [`hygcn_mem::hbm::Hbm`], under either controller
//! policy. It exists for two reasons:
//!
//! 1. **Oracle** — [`Simulator::simulate`]'s precompiled hot path
//!    (event schedule, shared request arena, span-program replay) must
//!    produce a bit-identical [`SimReport`]; `tests/oracle.rs` and
//!    `hygcn bench` assert equality against this path.
//! 2. **Baseline** — `hygcn bench` reports the optimized pipeline's
//!    wall-clock speedup over this path, which is the honest "before"
//!    measurement for the host-performance work.
//!
//! Keep the cycle model here in lockstep with [`crate::sim`]; any change
//! to modeled behavior must land in both.

use hygcn_gcn::aggregate::SelfTerm;
use hygcn_gcn::model::{GcnModel, ModelKind, DIFFPOOL_CLUSTERS};
use hygcn_graph::partition::Interval;
use hygcn_graph::sampling::Sampler;
use hygcn_graph::Graph;
use hygcn_mem::request::{MemRequest, RequestArena, RequestKind};
use hygcn_mem::scheduler::AccessScheduler;
use hygcn_mem::Hbm;

use crate::config::PipelineMode;
use crate::energy::{Activity, EnergyBreakdown};
use crate::engine::aggregation::AggregationEngine;
use crate::engine::combination::{CombinationEngine, SystolicMode};
use crate::error::SimError;
use crate::layout::AddressLayout;
use crate::report::SimReport;
use crate::sim::Simulator;
use crate::timeline::ChunkTrace;

/// Per-chunk records with their own request buffers, as the seed kept
/// them.
struct SeedChunk {
    agg: crate::engine::aggregation::ChunkAggregation,
    comb: crate::engine::combination::ChunkCombination,
    agg_requests: Vec<MemRequest>,
    comb_requests: Vec<MemRequest>,
}

impl Simulator {
    /// Serial seed-path simulation; see the module docs.
    ///
    /// # Errors
    ///
    /// Exactly the errors of [`Simulator::simulate`].
    pub fn simulate_reference(
        &self,
        graph: &Graph,
        model: &GcnModel,
    ) -> Result<SimReport, SimError> {
        let cfg = self.config();
        crate::validate::validate_inputs(graph, model, cfg)?;
        let f_in = model.feature_len();
        let row_bytes = f_in * 4;

        let kind = model.kind();
        let policy = cfg.sample_policy_override.unwrap_or(kind.sample_policy());
        let sampled_storage;
        let (g, presample_edges) = if policy.is_sampling() {
            sampled_storage = Sampler::new(cfg.sample_seed).sample(graph, policy);
            (&sampled_storage, graph.num_edges() as u64)
        } else {
            (graph, 0)
        };

        let n = g.num_vertices() as u64;
        let dims = kind.mlp_dims(f_in);
        let layout = AddressLayout::new(n, g.num_edges() as u64, row_bytes as u64, &dims);
        let agg_engine = AggregationEngine::new(cfg, f_in, layout.feature_base, layout.edge_base);
        let comb_engine =
            CombinationEngine::new(cfg, &dims, layout.weight_base, layout.output_base);
        let spill_base = layout.spill_base;

        let include_self = !matches!(kind.self_term(), SelfTerm::None);
        let paths: u64 = if kind == ModelKind::DiffPool { 2 } else { 1 };
        // A chunk spans at most the graph, so the clamped width fits a
        // vertex id; unclamped, a width of 2^32 would narrow to 0.
        let width = cfg.chunk_width(f_in).min(g.num_vertices());
        let chunk_w = u32::try_from(width).unwrap_or(u32::MAX);
        let mut intervals = Vec::new();
        let mut start = 0u32;
        while u64::from(start) < n {
            let end = start.saturating_add(chunk_w).min(n as u32);
            intervals.push(Interval::new(start, end));
            start = end;
        }
        let num_chunks = intervals.len().max(1) as u64;
        let presample_per_chunk = presample_edges / num_chunks;

        let mode = match cfg.pipeline {
            PipelineMode::LatencyAware => SystolicMode::Independent,
            PipelineMode::EnergyAware | PipelineMode::None => SystolicMode::Cooperative,
        };
        let weights_resident = comb_engine.weights_resident();
        let clusters = DIFFPOOL_CLUSTERS as u64;

        // --- Per-chunk engine records, strictly serial, with fresh
        // buffers per chunk (the seed's allocation pattern). ---
        let mut chunks: Vec<SeedChunk> = Vec::with_capacity(intervals.len());
        for (i, &dst) in intervals.iter().enumerate() {
            let mut arena = RequestArena::new();
            let mut scratch = Vec::new();
            let a = agg_engine.process_chunk(
                g,
                dst,
                f_in,
                include_self,
                presample_per_chunk,
                paths,
                &mut arena,
                &mut scratch,
            );
            let extra_macs = if kind == ModelKind::DiffPool {
                dst.len() as u64 * f_in as u64 * clusters
                    + dst.len() as u64 * clusters * comb_engine.out_len()
                    + a.edges * clusters * clusters / 64
            } else {
                0
            };
            let c = comb_engine.process_chunk(
                dst.len() as u64,
                mode,
                i == 0 || !weights_resident,
                extra_macs,
                i as u64,
                &mut arena,
            );
            chunks.push(SeedChunk {
                agg_requests: arena.slice(a.span).to_vec(),
                comb_requests: arena.slice(c.span).to_vec(),
                agg: a,
                comb: c,
            });
        }

        // --- Activity accounting (energy). ---
        let mut act = Activity::default();
        for ch in &chunks {
            act.simd_ops += ch.agg.elem_ops;
            act.agg_buffer_traffic += ch.agg.edge_buffer_bytes + ch.agg.input_buffer_bytes;
            act.coordinator_buffer_traffic += ch.agg.agg_buffer_bytes;
            for r in &ch.agg_requests {
                act.agg_hbm_bytes += u64::from(r.bytes);
            }
            act.macs += ch.comb.macs;
            act.comb_buffer_traffic += ch.comb.weight_buffer_bytes + ch.comb.output_buffer_bytes;
            act.coordinator_buffer_traffic += ch.comb.agg_buffer_bytes;
            for r in &ch.comb_requests {
                act.comb_hbm_bytes += u64::from(r.bytes);
            }
        }

        // --- Timeline through the reference HBM walk. ---
        let scheduler = AccessScheduler::new(cfg.coordination);
        let mut hbm = Hbm::new(cfg.hbm);
        let mut now = 0u64;
        let mut vertex_latency_weighted = 0f64;
        let nchunks = intervals.len();
        let mut timeline: Vec<ChunkTrace> = Vec::new();

        match cfg.pipeline {
            PipelineMode::None => {
                for (i, dst) in intervals.iter().enumerate() {
                    let spill_bytes = (dst.len() * row_bytes) as u64 * paths;
                    let spill_addr = spill_base + u64::from(dst.start) * row_bytes as u64;

                    let mut batch_a = chunks[i].agg_requests.clone();
                    batch_a.push(MemRequest::write(
                        RequestKind::OutputFeatures,
                        spill_addr,
                        spill_bytes as u32,
                    ));
                    let mem_a = hbm.service_batch(&scheduler.order(batch_a), now);
                    let step_a = chunks[i].agg.compute_cycles.max(mem_a.saturating_sub(now));
                    if cfg.record_timeline {
                        timeline.push(ChunkTrace {
                            step: 2 * i,
                            agg_cycles: chunks[i].agg.compute_cycles,
                            comb_cycles: 0,
                            mem_cycles: mem_a.saturating_sub(now),
                            step_cycles: step_a,
                        });
                    }
                    now += step_a;

                    let mut batch_b = chunks[i].comb_requests.clone();
                    batch_b.push(MemRequest::read(
                        RequestKind::InputFeatures,
                        spill_addr,
                        spill_bytes as u32,
                    ));
                    let mem_b = hbm.service_batch(&scheduler.order(batch_b), now);
                    let step_b = chunks[i].comb.compute_cycles.max(mem_b.saturating_sub(now));
                    if cfg.record_timeline {
                        timeline.push(ChunkTrace {
                            step: 2 * i + 1,
                            agg_cycles: 0,
                            comb_cycles: chunks[i].comb.compute_cycles,
                            mem_cycles: mem_b.saturating_sub(now),
                            step_cycles: step_b,
                        });
                    }
                    now += step_b;

                    act.spill_hbm_bytes += 2 * spill_bytes;
                    vertex_latency_weighted += (step_a + step_b) as f64 * dst.len() as f64;
                }
            }
            PipelineMode::LatencyAware | PipelineMode::EnergyAware => {
                let same_chunk = cfg.pipeline == PipelineMode::LatencyAware;
                let steps = if same_chunk { nchunks } else { nchunks + 1 };
                let mut agg_step_time = vec![0u64; nchunks];
                for s in 0..steps {
                    let comb_idx = if same_chunk {
                        Some(s)
                    } else {
                        s.checked_sub(1)
                    };
                    let mut batch: Vec<MemRequest> = Vec::new();
                    if s < nchunks {
                        batch.extend_from_slice(&chunks[s].agg_requests);
                    }
                    if let Some(c) = comb_idx {
                        batch.extend_from_slice(&chunks[c].comb_requests);
                    }
                    let mem_done = if batch.is_empty() {
                        now
                    } else {
                        hbm.service_batch(&scheduler.order(batch), now)
                    };
                    let compute_a = if s < nchunks {
                        chunks[s].agg.compute_cycles
                    } else {
                        0
                    };
                    let compute_b = comb_idx.map_or(0, |c| chunks[c].comb.compute_cycles);
                    let step = compute_a.max(compute_b).max(mem_done.saturating_sub(now));
                    if s < nchunks {
                        agg_step_time[s] = step;
                    }
                    if cfg.record_timeline {
                        timeline.push(ChunkTrace {
                            step: s,
                            agg_cycles: compute_a,
                            comb_cycles: compute_b,
                            mem_cycles: mem_done.saturating_sub(now),
                            step_cycles: step,
                        });
                    }
                    now += step;
                }
                for (i, dst) in intervals.iter().enumerate() {
                    let latency = match mode {
                        SystolicMode::Independent => {
                            let assembly = cfg.module_group_vertices as u64 * agg_step_time[i]
                                / dst.len().max(1) as u64;
                            agg_step_time[i] * 3 / 4 + assembly + chunks[i].comb.first_group_cycles
                        }
                        SystolicMode::Cooperative => {
                            agg_step_time[i] + chunks[i].comb.compute_cycles
                        }
                    };
                    vertex_latency_weighted += latency as f64 * dst.len() as f64;
                }
            }
        }

        // --- Report. ---
        let total_rows_loaded: u64 = chunks.iter().map(|c| c.agg.feature_rows_loaded).sum();
        let baseline_rows = n * nchunks as u64;
        let sparsity_reduction = if baseline_rows > 0 {
            1.0 - total_rows_loaded as f64 / baseline_rows as f64
        } else {
            0.0
        };
        let stats = hbm.stats();
        let cycles = now.max(1);
        let time_s = cfg.cycles_to_seconds(cycles);
        Ok(SimReport {
            cycles,
            time_s,
            agg_compute_cycles: chunks.iter().map(|c| c.agg.compute_cycles).sum(),
            comb_compute_cycles: chunks.iter().map(|c| c.comb.compute_cycles).sum(),
            mem: stats,
            mem_channels: hbm.channel_stats(),
            bandwidth_utilization: stats
                .bandwidth_utilization(cycles, cfg.hbm.peak_bytes_per_cycle()),
            energy: EnergyBreakdown::from_activity(&act).with_static(time_s),
            avg_vertex_latency_cycles: vertex_latency_weighted / n.max(1) as f64,
            sparsity_reduction: sparsity_reduction.max(0.0),
            chunks: nchunks,
            elem_ops: act.simd_ops,
            macs: act.macs,
            timeline,
            provenance: "",
            metrics: Vec::new(),
        })
    }
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)]
mod tests {
    use super::*;
    use crate::config::HyGcnConfig;
    use hygcn_graph::generator::{rmat, RmatParams};

    #[test]
    fn reference_matches_optimized_for_every_pipeline_mode() {
        let g = rmat(2048, 24_000, RmatParams::default(), 11)
            .unwrap()
            .with_feature_len(96);
        for kind in [ModelKind::Gcn, ModelKind::GraphSage, ModelKind::DiffPool] {
            let m = GcnModel::new(kind, 96, 1).unwrap();
            for pipeline in [
                PipelineMode::LatencyAware,
                PipelineMode::EnergyAware,
                PipelineMode::None,
            ] {
                let mut cfg = HyGcnConfig::default();
                cfg.pipeline = pipeline;
                cfg.aggregation_buffer_bytes = 1 << 20;
                let sim = Simulator::new(cfg);
                let fast = sim.simulate(&g, &m).unwrap();
                let seed = sim.simulate_reference(&g, &m).unwrap();
                assert_eq!(fast, seed, "{kind:?} {pipeline:?}");
            }
        }
    }

    #[test]
    fn reference_matches_without_sparsity_elimination() {
        let g = rmat(1024, 8_000, RmatParams::default(), 5)
            .unwrap()
            .with_feature_len(64);
        let m = GcnModel::new(ModelKind::Gcn, 64, 1).unwrap();
        let mut cfg = HyGcnConfig::default();
        cfg.sparsity_elimination = false;
        cfg.aggregation_buffer_bytes = 1 << 20;
        let sim = Simulator::new(cfg);
        assert_eq!(
            sim.simulate(&g, &m).unwrap(),
            sim.simulate_reference(&g, &m).unwrap()
        );
    }
}
