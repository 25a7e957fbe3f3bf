//! Table 3 execution-pattern characterization.
//!
//! The measured half of the paper's taxonomy of the two phases (§3.1,
//! Table 3): how much of each phase's leading access stream a stride
//! prefetcher covers, how little the Aggregation phase reuses feature
//! rows while the Combination phase reuses every weight once per
//! vertex, how unevenly per-vertex aggregation work spreads, and each
//! phase's operations per DRAM byte.

use hygcn_gcn::workload::LayerWorkload;
use hygcn_graph::stats::{neighbor_sharing_ratio, DegreeStats};
use hygcn_graph::Graph;

use crate::prefetch::phase_prefetch_coverage;

/// Accesses per phase the prefetcher model replays.
const PREFETCH_EDGES: u64 = 500_000;

/// Destination-interval size of the row-sharing measurement.
const SHARING_INTERVAL: usize = 1024;

/// The measured rows of Table 3.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ExecutionPattern {
    /// Share of the Aggregation phase's leading accesses a stride
    /// prefetcher covers (indirect: low).
    pub agg_prefetch_coverage: f64,
    /// The same share for the Combination phase (regular: high).
    pub comb_prefetch_coverage: f64,
    /// Distinct source rows per edge within 1024-vertex intervals.
    pub neighbor_sharing: f64,
    /// Times the Combination phase reuses its weights: once per vertex.
    pub weight_reuses: f64,
    /// Coefficient of variation of the per-vertex aggregation work
    /// (in-degree).
    pub degree_cv: f64,
    /// Aggregation operations per byte of input features and edges.
    pub agg_ops_per_byte: f64,
    /// Combination MACs per byte of weights and output features.
    pub comb_ops_per_byte: f64,
}

impl ExecutionPattern {
    /// Measures the pattern of workload `w` over `graph`.
    pub fn measure(graph: &Graph, w: &LayerWorkload) -> Self {
        let (agg_prefetch_coverage, comb_prefetch_coverage) =
            phase_prefetch_coverage(graph, w.agg_width, PREFETCH_EDGES);
        Self {
            agg_prefetch_coverage,
            comb_prefetch_coverage,
            neighbor_sharing: neighbor_sharing_ratio(graph, SHARING_INTERVAL),
            weight_reuses: w.num_vertices as f64,
            degree_cv: DegreeStats::of(graph).cv,
            agg_ops_per_byte: w.agg_elem_ops as f64
                / (w.input_feature_bytes + w.edge_bytes).max(1) as f64,
            comb_ops_per_byte: w.combine_macs as f64
                / (w.weight_bytes + w.output_feature_bytes).max(1) as f64,
        }
    }

    /// Every number of the record beside the name an `exec-pattern`
    /// report stores it under.
    fn fields(&mut self) -> [(&'static str, &mut f64); 7] {
        [
            ("agg_prefetch_coverage", &mut self.agg_prefetch_coverage),
            ("comb_prefetch_coverage", &mut self.comb_prefetch_coverage),
            ("neighbor_sharing", &mut self.neighbor_sharing),
            ("weight_reuses", &mut self.weight_reuses),
            ("degree_cv", &mut self.degree_cv),
            ("agg_ops_per_byte", &mut self.agg_ops_per_byte),
            ("comb_ops_per_byte", &mut self.comb_ops_per_byte),
        ]
    }

    /// The record as named report metrics, in a fixed order.
    pub fn to_metrics(mut self) -> Vec<(&'static str, f64)> {
        self.fields()
            .into_iter()
            .map(|(name, v)| (name, *v))
            .collect()
    }

    /// Rebuilds a record from its named values (the inverse of
    /// [`Self::to_metrics`]), looking each name up with `get`.
    pub fn from_metrics(mut get: impl FnMut(&str) -> f64) -> Self {
        let mut p = Self::default();
        for (name, v) in p.fields() {
            *v = get(name);
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hygcn_gcn::model::{GcnModel, ModelKind};
    use hygcn_graph::datasets::{DatasetKey, DatasetSpec};

    #[test]
    fn metrics_round_trip_and_phases_contrast() {
        let g = DatasetSpec::get(DatasetKey::Pb)
            .instantiate(0.1, 7)
            .unwrap();
        let m = GcnModel::new(ModelKind::Gcn, g.feature_len(), 1).unwrap();
        let p = ExecutionPattern::measure(&g, &LayerWorkload::of(&g, &m, 0));
        let metrics = p.to_metrics();
        assert_eq!(metrics.len(), 7);
        let back = ExecutionPattern::from_metrics(|name| {
            metrics.iter().find(|(n, _)| *n == name).unwrap().1
        });
        assert_eq!(back, p);
        // Table 3: the Combination phase is regular and intense, the
        // Aggregation phase irregular and light.
        assert!(p.comb_prefetch_coverage > p.agg_prefetch_coverage);
        assert!(p.comb_ops_per_byte > p.agg_ops_per_byte);
        assert_eq!(p.weight_reuses, g.num_vertices() as f64);
    }
}
