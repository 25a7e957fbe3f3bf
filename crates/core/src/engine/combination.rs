//! The Combination Engine (paper §4.4).
//!
//! Multi-granular systolic arrays execute the shared-MLP MVMs. Two
//! working modes (Fig. 7):
//!
//! * **Independent** — each systolic module processes a small vertex
//!   group as soon as its aggregation result is ready. Lowest vertex
//!   latency, but each module streams the weights through its own array
//!   per group (more Weight Buffer traffic).
//! * **Cooperative** — the modules assemble into one large array over a
//!   big vertex group; weights flow from the Weight Buffer through all
//!   modules once (Fig. 6(b)), minimizing energy at the cost of waiting
//!   to assemble the group.

use hygcn_mem::request::{MemRequest, RequestArena, RequestKind, RequestSpan, RequestSummary};

use crate::config::HyGcnConfig;

/// Systolic working mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystolicMode {
    /// Independent modules on small groups (latency-aware pipeline).
    Independent,
    /// Assembled modules on large groups (energy-aware pipeline).
    Cooperative,
}

/// Cost record for combining one chunk of vertices.
///
/// Like [`crate::engine::aggregation::ChunkAggregation`], the chunk's
/// DRAM requests live in the shared [`RequestArena`]; the record carries
/// a [`RequestSpan`] plus a [`RequestSummary`] histogram.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChunkCombination {
    /// Systolic compute cycles (MAC throughput + pipeline fills).
    pub compute_cycles: u64,
    /// Multiply-accumulates executed.
    pub macs: u64,
    /// Weight Buffer eDRAM read traffic in bytes.
    pub weight_buffer_bytes: u64,
    /// Output Buffer eDRAM traffic in bytes.
    pub output_buffer_bytes: u64,
    /// Aggregation Buffer read traffic in bytes.
    pub agg_buffer_bytes: u64,
    /// Per-kind histogram of the chunk's DRAM requests.
    pub summary: RequestSummary,
    /// Where the chunk's requests (weight fills and output write-backs)
    /// sit in the shared [`RequestArena`].
    pub span: RequestSpan,
    /// Cycles until the *first* vertex group completes (vertex-latency
    /// contribution of this chunk under the latency-aware pipeline).
    pub first_group_cycles: u64,
}

/// The Combination Engine model.
#[derive(Debug, Clone)]
pub struct CombinationEngine {
    modules: u64,
    module_rows: u64,
    module_cols: u64,
    group_vertices: u64,
    weight_working_bytes: u64,
    /// MLP dimension chain as (in, out) pairs.
    layers: Vec<(u64, u64)>,
    weight_base: u64,
    output_base: u64,
}

impl CombinationEngine {
    /// Builds the engine for an MLP with dimension chain `dims`
    /// (e.g. `[1433, 128]`), with weights and outputs at the given DRAM
    /// base addresses.
    pub fn new(config: &HyGcnConfig, dims: &[usize], weight_base: u64, output_base: u64) -> Self {
        let layers = dims
            .windows(2)
            .map(|w| (w[0] as u64, w[1] as u64))
            .collect();
        Self {
            modules: config.systolic_modules as u64,
            module_rows: config.module_rows as u64,
            module_cols: config.module_cols as u64,
            group_vertices: config.module_group_vertices as u64,
            weight_working_bytes: (config.weight_buffer_bytes / 2) as u64,
            layers,
            weight_base,
            output_base,
        }
    }

    /// Total PEs.
    pub fn total_pes(&self) -> u64 {
        self.modules * self.module_rows * self.module_cols
    }

    /// Shared-parameter bytes of the MLP (weights + biases).
    pub fn weight_bytes(&self) -> u64 {
        self.layers.iter().map(|&(i, o)| (i * o + o) * 4).sum()
    }

    /// MACs per vertex through the whole MLP.
    pub fn macs_per_vertex(&self) -> u64 {
        self.layers.iter().map(|&(i, o)| i * o).sum()
    }

    /// Output feature length.
    pub fn out_len(&self) -> u64 {
        self.layers.last().map_or(0, |&(_, o)| o)
    }

    /// Combines `vertices` aggregated results.
    ///
    /// `load_weights` requests the DRAM weight fill (first chunk, or every
    /// chunk when the weights exceed the Weight Buffer's working half).
    /// `extra_macs` folds in DiffPool's coarsening products for this
    /// chunk. `chunk_index` positions the output write-back in DRAM.
    /// DRAM requests are appended to `arena`; the record's `span` points
    /// at them.
    pub fn process_chunk(
        &self,
        vertices: u64,
        mode: SystolicMode,
        load_weights: bool,
        extra_macs: u64,
        chunk_index: u64,
        arena: &mut RequestArena,
    ) -> ChunkCombination {
        let span_start = arena.begin();
        let mut out = ChunkCombination {
            macs: vertices * self.macs_per_vertex() + extra_macs,
            ..ChunkCombination::default()
        };

        let pes = self.total_pes();
        let throughput_cycles = out.macs.div_ceil(pes.max(1));
        let fill = self.module_rows + self.module_cols;
        match mode {
            SystolicMode::Cooperative => {
                // One assembled array: a single fill across the chain.
                let chain_fill = self.modules * self.module_rows + self.module_cols;
                out.compute_cycles = throughput_cycles + chain_fill;
                out.first_group_cycles = out.compute_cycles;
                // Weights stream once per chunk through all modules.
                out.weight_buffer_bytes = self.weight_bytes();
            }
            SystolicMode::Independent => {
                let groups = vertices.div_ceil(self.group_vertices.max(1)).max(1);
                let waves = groups.div_ceil(self.modules.max(1));
                out.compute_cycles = throughput_cycles + waves * fill;
                // First small group completes after one group's work.
                let group_macs = self.group_vertices * self.macs_per_vertex();
                out.first_group_cycles =
                    group_macs.div_ceil(self.module_rows * self.module_cols) + fill;
                // Each group streams the weights through its module.
                out.weight_buffer_bytes = self.weight_bytes() * groups;
            }
        }

        // Activate Unit is fused into the drain; no extra cycles.
        out.agg_buffer_bytes = vertices * self.layers.first().map_or(0, |&(i, _)| i) * 4;
        out.output_buffer_bytes = 2 * vertices * self.out_len() * 4;

        if load_weights {
            let req = MemRequest::read(
                RequestKind::Weights,
                self.weight_base,
                self.weight_bytes() as u32,
            );
            out.summary.record(&req);
            arena.push(req);
        }
        let out_bytes = vertices * self.out_len() * 4;
        if out_bytes > 0 {
            let req = MemRequest::write(
                RequestKind::OutputFeatures,
                self.output_base + chunk_index * out_bytes,
                out_bytes as u32,
            );
            out.summary.record(&req);
            arena.push(req);
        }
        out.span = arena.finish(span_start);
        out
    }

    /// Whether the whole parameter set fits the Weight Buffer's working
    /// half (if not, every chunk must re-fill from DRAM).
    pub fn weights_resident(&self) -> bool {
        self.weight_bytes() <= self.weight_working_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine(dims: &[usize]) -> CombinationEngine {
        CombinationEngine::new(&HyGcnConfig::default(), dims, 0, 1 << 32)
    }

    /// Runs `process_chunk` with a throwaway arena, returning the record
    /// plus the requests it produced.
    fn chunk(
        e: &CombinationEngine,
        vertices: u64,
        mode: SystolicMode,
        load_weights: bool,
        extra_macs: u64,
        chunk_index: u64,
    ) -> (ChunkCombination, Vec<MemRequest>) {
        let mut arena = RequestArena::new();
        let c = e.process_chunk(
            vertices,
            mode,
            load_weights,
            extra_macs,
            chunk_index,
            &mut arena,
        );
        let reqs = arena.slice(c.span).to_vec();
        (c, reqs)
    }

    #[test]
    fn mac_counts() {
        let e = engine(&[256, 128]);
        assert_eq!(e.macs_per_vertex(), 256 * 128);
        assert_eq!(e.weight_bytes(), (256 * 128 + 128) * 4);
        assert_eq!(e.out_len(), 128);
        assert_eq!(e.total_pes(), 4096);
    }

    #[test]
    fn gin_two_layer_chain() {
        let e = engine(&[602, 128, 128]);
        assert_eq!(e.macs_per_vertex(), 602 * 128 + 128 * 128);
    }

    #[test]
    fn cooperative_fewer_weight_reads_than_independent() {
        let e = engine(&[256, 128]);
        let (coop, _) = chunk(&e, 1024, SystolicMode::Cooperative, true, 0, 0);
        let (ind, _) = chunk(&e, 1024, SystolicMode::Independent, true, 0, 0);
        assert!(
            ind.weight_buffer_bytes > 10 * coop.weight_buffer_bytes,
            "independent {} vs cooperative {}",
            ind.weight_buffer_bytes,
            coop.weight_buffer_bytes
        );
        assert_eq!(coop.macs, ind.macs);
    }

    #[test]
    fn independent_has_lower_first_group_latency() {
        let e = engine(&[256, 128]);
        let (coop, _) = chunk(&e, 4096, SystolicMode::Cooperative, false, 0, 0);
        let (ind, _) = chunk(&e, 4096, SystolicMode::Independent, false, 0, 0);
        assert!(
            ind.first_group_cycles < coop.first_group_cycles,
            "independent {} vs cooperative {}",
            ind.first_group_cycles,
            coop.first_group_cycles
        );
    }

    #[test]
    fn throughput_cycles_scale_with_vertices() {
        let e = engine(&[128, 128]);
        let (small, _) = chunk(&e, 128, SystolicMode::Cooperative, false, 0, 0);
        let (large, _) = chunk(&e, 4096, SystolicMode::Cooperative, false, 0, 0);
        assert!(large.compute_cycles > 10 * small.compute_cycles / 4);
    }

    #[test]
    fn weight_residency_check() {
        // 1433x128 weights = 734 KB < 1 MB working half: resident.
        assert!(engine(&[1433, 128]).weights_resident());
        // 3703x128 = 1.9 MB > 1 MB: must re-fill per chunk.
        assert!(!engine(&[3703, 128]).weights_resident());
    }

    #[test]
    fn requests_emitted_for_weights_and_outputs() {
        let e = engine(&[64, 128]);
        let (c, reqs) = chunk(&e, 100, SystolicMode::Cooperative, true, 0, 2);
        assert_eq!(reqs.len(), 2);
        assert!(matches!(reqs[0].kind, RequestKind::Weights));
        let w = &reqs[1];
        assert!(w.is_write);
        assert_eq!(w.addr, (1 << 32) + 2 * 100 * 128 * 4);
        // Summary matches the emitted requests.
        assert_eq!(c.summary.total_count(), 2);
        assert_eq!(c.summary.write_bytes(), u64::from(w.bytes));
    }

    #[test]
    fn extra_macs_fold_into_cycles() {
        let e = engine(&[64, 128]);
        let (plain, _) = chunk(&e, 100, SystolicMode::Cooperative, false, 0, 0);
        let (extra, _) = chunk(&e, 100, SystolicMode::Cooperative, false, 1 << 20, 0);
        assert!(extra.compute_cycles > plain.compute_cycles);
        assert_eq!(extra.macs - plain.macs, 1 << 20);
    }

    #[test]
    fn zero_vertices_is_cheap() {
        let e = engine(&[64, 128]);
        let (c, reqs) = chunk(&e, 0, SystolicMode::Cooperative, false, 0, 0);
        assert_eq!(c.macs, 0);
        assert!(reqs.is_empty());
        assert!(c.span.is_empty());
    }
}
