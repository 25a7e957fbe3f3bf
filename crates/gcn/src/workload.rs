//! Workload descriptors: the operation and traffic counts that the
//! platform performance models (CPU, GPU, HyGCN) consume.
//!
//! Counting is exact with respect to the executed semantics of
//! [`crate::reference::ReferenceExecutor`]: phase order, sampling, the
//! self-term, and DiffPool's extra path and coarsening products are all
//! reflected.

use hygcn_graph::sampling::Sampler;
use hygcn_graph::Graph;

use crate::aggregate::SelfTerm;
use crate::model::{GcnModel, ModelKind, PhaseOrder, DIFFPOOL_CLUSTERS};

/// Bytes per feature element (32-bit datapath everywhere).
pub const ELEM_BYTES: u64 = 4;
/// Bytes per edge record (one 32-bit source index).
pub const EDGE_BYTES: u64 = 4;

/// Operation and traffic counts for one model layer on one graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerWorkload {
    /// Vertices processed.
    pub num_vertices: usize,
    /// Directed edges aggregated (after sampling).
    pub num_edges: usize,
    /// Input feature length.
    pub f_in: usize,
    /// Output feature length.
    pub f_out: usize,
    /// Feature length during Aggregation (`f_out` for Combine-first
    /// models, `f_in` for GINConv).
    pub agg_width: usize,
    /// Phase ordering.
    pub order: PhaseOrder,
    /// Element operations in Aggregation: one accumulate per edge per
    /// feature element, plus self-term elements.
    pub agg_elem_ops: u64,
    /// Multiply-accumulates in Combination (all MLPs and, for DiffPool,
    /// the coarsening matrix products).
    pub combine_macs: u64,
    /// Shared parameter bytes (weights + biases of every Combine stage).
    pub weight_bytes: u64,
    /// Dense input feature matrix bytes.
    pub input_feature_bytes: u64,
    /// Dense output feature matrix bytes.
    pub output_feature_bytes: u64,
    /// Edge array bytes (after sampling).
    pub edge_bytes: u64,
}

impl LayerWorkload {
    /// Computes the workload of `model` on `graph`.
    ///
    /// Sampling models use [`Sampler::sampled_edge_count`] with
    /// `sample_seed` (the edge count, not the exact edge identity, is what
    /// performance models need).
    pub fn of(graph: &Graph, model: &GcnModel, sample_seed: u64) -> Self {
        let kind = model.kind();
        let policy = kind.sample_policy();
        let num_vertices = graph.num_vertices();
        let num_edges = if policy.is_sampling() {
            Sampler::new(sample_seed).sampled_edge_count(graph, policy)
        } else {
            graph.num_edges()
        };
        let f_in = model.feature_len();
        let f_out = model.out_len();
        let order = kind.phase_order();
        let agg_width = match order {
            PhaseOrder::CombineFirst => f_out,
            PhaseOrder::AggregateFirst => f_in,
        };

        let self_vertices = match kind.self_term() {
            SelfTerm::None => 0,
            SelfTerm::Include | SelfTerm::Weighted(_) => num_vertices,
        };
        // DiffPool aggregates twice (pool + embedding paths).
        let num_paths = if kind == ModelKind::DiffPool { 2 } else { 1 };
        let agg_elem_ops =
            (num_edges as u64 + self_vertices as u64) * agg_width as u64 * num_paths as u64;

        // Every Combine MLP, DiffPool's pool MLP included.
        let mut combine_macs = num_vertices as u64 * model.combine_macs_per_vertex() as u64;
        if kind == ModelKind::DiffPool {
            // Coarsening products (Eq. 8): X' = CᵀZ and A' = CᵀAC.
            let c = DIFFPOOL_CLUSTERS as u64;
            combine_macs += num_vertices as u64 * c * f_out as u64; // CᵀZ
            combine_macs += num_edges as u64 * c * c; // CᵀAC sparse expansion
        }

        Self {
            num_vertices,
            num_edges,
            f_in,
            f_out,
            agg_width,
            order,
            agg_elem_ops,
            combine_macs,
            weight_bytes: model.param_bytes() as u64,
            input_feature_bytes: num_vertices as u64 * f_in as u64 * ELEM_BYTES,
            output_feature_bytes: num_vertices as u64 * f_out as u64 * ELEM_BYTES,
            edge_bytes: num_edges as u64 * EDGE_BYTES,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hygcn_graph::GraphBuilder;

    fn ring(n: usize, f: usize) -> Graph {
        let mut b = GraphBuilder::new(n).feature_len(f);
        for v in 0..n as u32 {
            b = b.undirected_edge(v, ((v as usize + 1) % n) as u32).unwrap();
        }
        b.build()
    }

    #[test]
    fn gcn_workload_counts() {
        let g = ring(10, 64);
        let m = GcnModel::new(ModelKind::Gcn, 64, 1).unwrap();
        let w = LayerWorkload::of(&g, &m, 0);
        assert_eq!(w.num_edges, 20);
        assert_eq!(w.agg_width, 128); // combine-first
        assert_eq!(w.agg_elem_ops, (20 + 10) * 128);
        assert_eq!(w.combine_macs, 10 * 64 * 128);
        assert_eq!(w.input_feature_bytes, 10 * 64 * 4);
    }

    #[test]
    fn gin_aggregates_at_input_width() {
        let g = ring(10, 64);
        let m = GcnModel::new(ModelKind::Gin, 64, 1).unwrap();
        let w = LayerWorkload::of(&g, &m, 0);
        assert_eq!(w.agg_width, 64);
        assert_eq!(w.order, PhaseOrder::AggregateFirst);
        assert_eq!(w.combine_macs, 10 * (64 * 128 + 128 * 128));
    }

    #[test]
    fn graphsage_sampling_reduces_edges() {
        // Star with a high-degree hub: sampling caps at 25.
        let mut b = GraphBuilder::new(101).feature_len(8);
        for v in 1..=100u32 {
            b = b.edge(v, 0).unwrap();
        }
        let g = b.build();
        let m = GcnModel::new(ModelKind::GraphSage, 8, 1).unwrap();
        let w = LayerWorkload::of(&g, &m, 0);
        assert_eq!(w.num_edges, 25);
    }

    #[test]
    fn diffpool_counts_both_paths_and_coarsening() {
        let g = ring(10, 32);
        let m = GcnModel::new(ModelKind::DiffPool, 32, 1).unwrap();
        let w = LayerWorkload::of(&g, &m, 0);
        // Two aggregation paths.
        assert_eq!(w.agg_elem_ops, 2 * (20 + 10) * 128);
        let c = DIFFPOOL_CLUSTERS as u64;
        let expected = 10 * 32 * 128   // embed MLP
            + 10 * 32 * c              // pool MLP
            + 10 * c * 128             // CᵀZ
            + 20 * c * c; // CᵀAC
        assert_eq!(w.combine_macs, expected);
    }
}
