//! The Aggregation Engine (paper §4.3).
//!
//! Executes the edge-centric half of the programming model: for each
//! destination interval (chunk), the Sparsity Eliminator plans effectual
//! windows over the source dimension (Fig. 5), the prefetcher issues the
//! edge and feature loads, and eSched disperses the element-wise
//! accumulations over the 32 SIMD16 cores (Fig. 4). The engine emits a
//! per-chunk cost record; actual DRAM timing is resolved by the shared
//! memory handler in [`crate::sim`].

use hygcn_graph::partition::Interval;
use hygcn_graph::window::{EffectualWindow, WindowPlanner};

use hygcn_graph::{Graph, VertexId};
use hygcn_mem::request::{MemRequest, RequestArena, RequestKind, RequestSpan, RequestSummary};

use crate::config::{AggregationMode, HyGcnConfig};

/// Cost record for aggregating one destination chunk.
///
/// The chunk's DRAM requests live in the simulation-wide
/// [`RequestArena`]; the record carries only a [`RequestSpan`] locating
/// them plus a [`RequestSummary`] histogram for accounting, keeping the
/// record itself allocation-free.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChunkAggregation {
    /// SIMD compute cycles (including eSched issue and Sampler filtering).
    pub compute_cycles: u64,
    /// Element-wise accumulate operations executed.
    pub elem_ops: u64,
    /// Edges aggregated in this chunk.
    pub edges: u64,
    /// Source feature rows loaded from DRAM.
    pub feature_rows_loaded: u64,
    /// Per-kind histogram of the chunk's DRAM requests.
    pub summary: RequestSummary,
    /// Where the chunk's requests sit in the shared [`RequestArena`]
    /// (edge array + effectual feature windows).
    pub span: RequestSpan,
    /// Edge Buffer eDRAM traffic in bytes (fill + read).
    pub edge_buffer_bytes: u64,
    /// Input Buffer eDRAM traffic in bytes (fill + per-edge reads).
    pub input_buffer_bytes: u64,
    /// Aggregation Buffer write traffic in bytes (accumulator updates).
    pub agg_buffer_bytes: u64,
}

/// The Aggregation Engine model.
#[derive(Debug, Clone)]
pub struct AggregationEngine {
    lanes: u64,
    cores: u64,
    simd_width: u64,
    mode: AggregationMode,
    sparsity_elimination: bool,
    window_height: usize,
    /// Base address of the (sampled) feature matrix `X^{k-1}` in DRAM.
    feature_base: u64,
    /// Base address of the edge array in DRAM.
    edge_base: u64,
}

impl AggregationEngine {
    /// Builds the engine for features of `feature_len` elements.
    ///
    /// `feature_base`/`edge_base` position the data structures in the
    /// physical address space (the memory handler's layout).
    pub fn new(
        config: &HyGcnConfig,
        feature_len: usize,
        feature_base: u64,
        edge_base: u64,
    ) -> Self {
        Self {
            lanes: config.simd_lanes() as u64,
            cores: config.simd_cores as u64,
            simd_width: config.simd_width as u64,
            mode: config.aggregation_mode,
            sparsity_elimination: config.sparsity_elimination,
            window_height: config.window_height(feature_len),
            feature_base,
            edge_base,
        }
    }

    /// Aggregates destination interval `dst` of `graph` (features of
    /// `feature_len`), including the self-term element work when
    /// `include_self`. `sampler_edges` is the count of *pre-sampling*
    /// edges the runtime Sampler had to filter (zero when not sampling).
    /// `paths` is the number of aggregation passes (2 for DiffPool).
    ///
    /// DRAM requests are appended to `arena` (the record's `span` points
    /// at them); `scratch` is a reusable source-row buffer for the window
    /// planner, so steady-state chunk processing performs no heap
    /// allocation.
    #[allow(clippy::too_many_arguments)]
    pub fn process_chunk(
        &self,
        graph: &Graph,
        dst: Interval,
        feature_len: usize,
        include_self: bool,
        sampler_edges: u64,
        paths: u64,
        arena: &mut RequestArena,
        scratch: &mut Vec<VertexId>,
    ) -> ChunkAggregation {
        let planner = WindowPlanner::new(self.window_height);
        self.record_chunk(
            graph,
            dst,
            feature_len,
            include_self,
            sampler_edges,
            paths,
            arena,
            &mut |emit| planner.plan_with(graph, dst, scratch, emit),
        )
    }

    /// [`AggregationEngine::process_chunk`] driven by fully precomputed
    /// effectual windows (one chunk's slice of an [`EventSchedule`]) —
    /// the simulator's hot path: the chunk loop never touches adjacency.
    ///
    /// [`EventSchedule`]: crate::schedule::EventSchedule
    #[allow(clippy::too_many_arguments)]
    pub fn process_chunk_with_windows(
        &self,
        graph: &Graph,
        dst: Interval,
        feature_len: usize,
        include_self: bool,
        sampler_edges: u64,
        paths: u64,
        arena: &mut RequestArena,
        windows: &[EffectualWindow],
    ) -> ChunkAggregation {
        self.record_chunk(
            graph,
            dst,
            feature_len,
            include_self,
            sampler_edges,
            paths,
            arena,
            &mut |emit| {
                for w in windows {
                    emit(*w);
                }
            },
        )
    }

    /// Shared chunk-record construction; `plan` drives window emission
    /// when sparsity elimination is enabled.
    #[allow(clippy::too_many_arguments, clippy::type_complexity)]
    fn record_chunk(
        &self,
        graph: &Graph,
        dst: Interval,
        feature_len: usize,
        include_self: bool,
        sampler_edges: u64,
        paths: u64,
        arena: &mut RequestArena,
        plan: &mut dyn FnMut(&mut dyn FnMut(EffectualWindow)),
    ) -> ChunkAggregation {
        let row_bytes = (feature_len * 4) as u64;
        let mut out = ChunkAggregation::default();
        let span_start = arena.begin();

        // The chunk's edge count comes straight from the CSC offsets:
        // `dst`'s columns are contiguous, so the range length is the sum
        // every per-window `edge_count` would add up to. Deriving it here
        // (rather than summing window counts) lets span-only window
        // sources — the event-schedule fast path extracts windows from
        // occupancy bitmaps, which carry no multiplicity — reuse this
        // record construction unchanged.
        let offsets = graph.csc().offsets();
        let e_start = offsets[dst.start as usize] as u64;
        let e_end = offsets[dst.end as usize] as u64;
        out.edges = e_end - e_start;

        // --- Sparsity Eliminator: plan the effectual windows. ---
        if self.sparsity_elimination {
            let feature_base = self.feature_base;
            let mut rows_loaded = 0u64;
            #[cfg(debug_assertions)]
            let mut planned_edges = 0u64;
            let mut summary = out.summary;
            plan(&mut |w| {
                let rows = w.rows.len() as u64;
                rows_loaded += rows;
                #[cfg(debug_assertions)]
                {
                    planned_edges += w.edge_count as u64;
                }
                let req = MemRequest::read(
                    RequestKind::InputFeatures,
                    feature_base + u64::from(w.rows.start) * row_bytes,
                    (rows * row_bytes) as u32,
                );
                summary.record(&req);
                arena.push(req);
            });
            #[cfg(debug_assertions)]
            debug_assert!(
                planned_edges == 0 || planned_edges == out.edges,
                "window edge counts disagree with CSC: {planned_edges} vs {}",
                out.edges
            );
            out.feature_rows_loaded = rows_loaded;
            out.summary = summary;
        } else {
            // Full sweep: every source interval is loaded whole.
            let n = graph.num_vertices() as u64;
            let h = self.window_height as u64;
            let mut row = 0u64;
            while row < n {
                let rows = h.min(n - row);
                out.feature_rows_loaded += rows;
                let req = MemRequest::read(
                    RequestKind::InputFeatures,
                    self.feature_base + row * row_bytes,
                    (rows * row_bytes) as u32,
                );
                out.summary.record(&req);
                arena.push(req);
                row += rows;
            }
        }

        // --- Edge loads: the chunk's CSC columns are contiguous. ---
        if out.edges > 0 {
            let req = MemRequest::read(
                RequestKind::Edges,
                self.edge_base + e_start * 4,
                ((e_end - e_start) * 4) as u32,
            );
            out.summary.record(&req);
            arena.push(req);
        }
        out.span = arena.finish(span_start);

        // --- Compute: eSched dispatch + SIMD accumulation. ---
        let self_ops = if include_self {
            dst.len() as u64 * feature_len as u64
        } else {
            0
        };
        out.elem_ops = (out.edges * feature_len as u64 + self_ops) * paths;
        let issue_cycles = out.edges * paths / self.cores.max(1) + 1;
        let sampler_cycles = sampler_edges / self.cores.max(1);
        let accumulate_cycles = match self.mode {
            AggregationMode::VertexDisperse => out.elem_ops.div_ceil(self.lanes),
            AggregationMode::VertexConcentrated => {
                self.concentrated_cycles(graph, dst, feature_len) * paths
            }
        };
        out.compute_cycles = accumulate_cycles + issue_cycles + sampler_cycles;

        // --- On-chip buffer traffic. ---
        out.edge_buffer_bytes = 2 * out.edges * 4 * paths;
        out.input_buffer_bytes =
            out.feature_rows_loaded * row_bytes + out.edges * row_bytes * paths;
        // Accumulators are read-modify-written per element op.
        out.agg_buffer_bytes = 2 * out.elem_ops * 4;

        out
    }

    /// Vertex-concentrated mode: each vertex's whole reduction runs on one
    /// SIMD core (round-robin assignment); the chunk takes as long as the
    /// most loaded core (Fig. 4's workload-imbalance argument).
    fn concentrated_cycles(&self, graph: &Graph, dst: Interval, feature_len: usize) -> u64 {
        let cores = self.cores as usize;
        let mut loads = vec![0u64; cores];
        let per_edge = (feature_len as u64).div_ceil(self.simd_width);
        for (i, v) in dst.iter().enumerate() {
            let deg = graph.in_degree(v as VertexId) as u64;
            loads[i % cores] += deg.max(1) * per_edge;
        }
        loads.into_iter().max().unwrap_or(0)
    }
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)]
mod tests {
    use super::*;
    use hygcn_graph::GraphBuilder;

    fn engine(cfg: &HyGcnConfig, f: usize) -> AggregationEngine {
        AggregationEngine::new(cfg, f, 0, 1 << 30)
    }

    /// Runs `process_chunk` with a throwaway arena, returning the record
    /// plus the requests it produced.
    fn chunk(
        e: &AggregationEngine,
        g: &Graph,
        dst: Interval,
        f: usize,
        include_self: bool,
        sampler_edges: u64,
        paths: u64,
    ) -> (ChunkAggregation, Vec<MemRequest>) {
        let mut arena = RequestArena::new();
        let mut scratch = Vec::new();
        let c = e.process_chunk(
            g,
            dst,
            f,
            include_self,
            sampler_edges,
            paths,
            &mut arena,
            &mut scratch,
        );
        let reqs = arena.slice(c.span).to_vec();
        (c, reqs)
    }

    fn star_graph() -> Graph {
        // Hub vertex 0 with 64 spokes; spokes also chained.
        let mut b = GraphBuilder::new(65).feature_len(32);
        for v in 1..=64u32 {
            b = b.edge(v, 0).unwrap();
        }
        b.build()
    }

    #[test]
    fn covers_all_chunk_edges() {
        let g = star_graph();
        let cfg = HyGcnConfig::default();
        let (c, _) = chunk(&engine(&cfg, 32), &g, Interval::new(0, 65), 32, false, 0, 1);
        assert_eq!(c.edges, 64);
        assert_eq!(c.elem_ops, 64 * 32);
    }

    #[test]
    fn sparsity_elimination_reduces_feature_loads() {
        let g = star_graph();
        let mut cfg = HyGcnConfig::default();
        cfg.sparsity_elimination = true;
        let (with, _) = chunk(&engine(&cfg, 32), &g, Interval::new(0, 1), 32, false, 0, 1);
        cfg.sparsity_elimination = false;
        let (without, _) = chunk(&engine(&cfg, 32), &g, Interval::new(0, 1), 32, false, 0, 1);
        assert!(with.feature_rows_loaded <= without.feature_rows_loaded);
        assert_eq!(with.edges, without.edges);
        // Vertex 0's sources are rows 1..=64: a contiguous window, so
        // elimination loads exactly those.
        assert_eq!(with.feature_rows_loaded, 64);
        assert_eq!(without.feature_rows_loaded, 65);
    }

    #[test]
    fn disperse_beats_concentrated_on_skewed_degrees() {
        let g = star_graph();
        let mut cfg = HyGcnConfig::default();
        cfg.aggregation_mode = AggregationMode::VertexDisperse;
        let (d, _) = chunk(&engine(&cfg, 32), &g, Interval::new(0, 65), 32, false, 0, 1);
        cfg.aggregation_mode = AggregationMode::VertexConcentrated;
        let (c, _) = chunk(&engine(&cfg, 32), &g, Interval::new(0, 65), 32, false, 0, 1);
        assert!(
            c.compute_cycles > d.compute_cycles,
            "concentrated {} vs disperse {}",
            c.compute_cycles,
            d.compute_cycles
        );
    }

    #[test]
    fn self_term_adds_vertex_ops() {
        let g = star_graph();
        let cfg = HyGcnConfig::default();
        let (no_self, _) = chunk(&engine(&cfg, 32), &g, Interval::new(0, 65), 32, false, 0, 1);
        let (with_self, _) = chunk(&engine(&cfg, 32), &g, Interval::new(0, 65), 32, true, 0, 1);
        assert_eq!(with_self.elem_ops - no_self.elem_ops, 65 * 32);
    }

    #[test]
    fn sampler_adds_filter_cycles() {
        let g = star_graph();
        let cfg = HyGcnConfig::default();
        let (plain, _) = chunk(&engine(&cfg, 32), &g, Interval::new(0, 65), 32, false, 0, 1);
        let (sampled, _) = chunk(
            &engine(&cfg, 32),
            &g,
            Interval::new(0, 65),
            32,
            false,
            64_000,
            1,
        );
        assert!(sampled.compute_cycles > plain.compute_cycles);
    }

    #[test]
    fn diffpool_paths_double_work() {
        let g = star_graph();
        let cfg = HyGcnConfig::default();
        let (one, _) = chunk(&engine(&cfg, 32), &g, Interval::new(0, 65), 32, false, 0, 1);
        let (two, _) = chunk(&engine(&cfg, 32), &g, Interval::new(0, 65), 32, false, 0, 2);
        assert_eq!(two.elem_ops, 2 * one.elem_ops);
    }

    #[test]
    fn requests_use_priority_classes() {
        let g = star_graph();
        let cfg = HyGcnConfig::default();
        let (c, reqs) = chunk(&engine(&cfg, 32), &g, Interval::new(0, 65), 32, false, 0, 1);
        assert!(reqs.iter().any(|r| r.kind == RequestKind::InputFeatures));
        assert!(reqs.iter().any(|r| r.kind == RequestKind::Edges));
        assert!(reqs.iter().all(|r| !r.is_write));
        // The summary histogram matches the emitted requests.
        assert_eq!(c.summary.total_count(), reqs.len() as u64);
        assert_eq!(
            c.summary.total_bytes(),
            reqs.iter().map(|r| u64::from(r.bytes)).sum::<u64>()
        );
        assert_eq!(c.summary.write_bytes(), 0);
    }

    #[test]
    fn empty_interval_is_cheap() {
        let g = GraphBuilder::new(8).feature_len(16).build();
        let cfg = HyGcnConfig::default();
        let (c, reqs) = chunk(&engine(&cfg, 16), &g, Interval::new(0, 8), 16, false, 0, 1);
        assert_eq!(c.edges, 0);
        assert_eq!(c.elem_ops, 0);
        assert!(reqs.is_empty());
    }
}
