//! Table 2 quantitative characterization on CPU.
//!
//! Combines the trace-driven cache simulation of the Aggregation phase
//! with the analytic streaming behaviour of the Combination phase to
//! produce the five rows of Table 2: DRAM bytes per op, DRAM access
//! energy per op, L2/L3 MPKI, and the synchronization-time ratio.

use hygcn_gcn::model::GcnModel;
use hygcn_gcn::workload::LayerWorkload;
use hygcn_graph::Graph;

use crate::params::CpuParams;
use crate::trace::{naive_trace, TraceResult};

/// Instructions charged per GEMM MAC on the SIMD datapath (8-wide FMA:
/// one instruction covers 8 MACs; address/loop overhead folded in).
const INSTR_PER_MAC: f64 = 0.25;

/// DRAM *system* energy per byte for the Table 2 energy-per-op rows —
/// includes the cache-hierarchy and uncore energy of servicing a miss
/// (the paper's 170 nJ/op at 11.6 B/op implies ~15 nJ/B), which is much
/// larger than the device+IO energy used for whole-run energy totals.
const DRAM_SYSTEM_J_PER_BYTE: f64 = 15e-9;

/// One column of Table 2 (Aggregation or Combination).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PhaseCharacterization {
    /// DRAM bytes per operation.
    pub dram_bytes_per_op: f64,
    /// DRAM access energy per operation, joules.
    pub dram_energy_per_op_j: f64,
    /// L2 misses per kilo-instruction.
    pub l2_mpki: f64,
    /// L3 misses per kilo-instruction.
    pub l3_mpki: f64,
}

/// The full Table 2 record.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Characterization {
    /// Aggregation column.
    pub aggregation: PhaseCharacterization,
    /// Combination column.
    pub combination: PhaseCharacterization,
    /// Ratio of Combination time spent in synchronization (Table 2: 36%).
    pub sync_ratio: f64,
}

impl Characterization {
    /// Every number of the record beside the name a `cpu-trace` report
    /// stores it under.
    fn fields(&mut self) -> [(&'static str, &mut f64); 9] {
        let Self {
            aggregation: a,
            combination: c,
            sync_ratio,
        } = self;
        [
            ("agg_dram_bytes_per_op", &mut a.dram_bytes_per_op),
            ("agg_dram_energy_per_op_j", &mut a.dram_energy_per_op_j),
            ("agg_l2_mpki", &mut a.l2_mpki),
            ("agg_l3_mpki", &mut a.l3_mpki),
            ("comb_dram_bytes_per_op", &mut c.dram_bytes_per_op),
            ("comb_dram_energy_per_op_j", &mut c.dram_energy_per_op_j),
            ("comb_l2_mpki", &mut c.l2_mpki),
            ("comb_l3_mpki", &mut c.l3_mpki),
            ("sync_ratio", sync_ratio),
        ]
    }

    /// The record as named values, the form `SimReport::metrics` stores.
    pub fn to_metrics(mut self) -> Vec<(&'static str, f64)> {
        self.fields()
            .into_iter()
            .map(|(name, v)| (name, *v))
            .collect()
    }

    /// Rebuilds a record from its named values (the inverse of
    /// [`Self::to_metrics`]), looking each name up with `get`.
    pub fn from_metrics(mut get: impl FnMut(&str) -> f64) -> Self {
        let mut c = Self::default();
        for (name, v) in c.fields() {
            *v = get(name);
        }
        c
    }
}

/// Runs the characterization of `model` over `graph`.
///
/// `max_trace_edges` caps the cache-simulated prefix (see
/// [`crate::trace`]).
pub fn characterize(
    graph: &Graph,
    model: &GcnModel,
    params: &CpuParams,
    max_trace_edges: u64,
) -> Characterization {
    characterize_workload(
        graph,
        &LayerWorkload::of(graph, model, 0),
        params,
        max_trace_edges,
    )
}

/// [`characterize`] over an already derived workload descriptor `w` of
/// `graph`.
pub fn characterize_workload(
    graph: &Graph,
    w: &LayerWorkload,
    params: &CpuParams,
    max_trace_edges: u64,
) -> Characterization {
    // --- Aggregation: trace-driven. ---
    let tr: TraceResult = naive_trace(graph, w.agg_width, max_trace_edges);
    let aggregation = PhaseCharacterization {
        dram_bytes_per_op: tr.dram_bytes_per_op(),
        dram_energy_per_op_j: tr.dram_bytes_per_op() * DRAM_SYSTEM_J_PER_BYTE,
        l2_mpki: tr.l2_mpki(),
        l3_mpki: tr.l3_mpki(),
    };

    // --- Combination: streaming GEMM. ---
    // Weights are resident; features stream once in and once out; MKL
    // blocking makes every fetched line used fully, so misses ≈ lines.
    let comb_bytes = (w.weight_bytes + w.input_feature_bytes + w.output_feature_bytes) as f64;
    let macs = w.combine_macs as f64;
    let instructions = macs * INSTR_PER_MAC;
    let lines = comb_bytes / 64.0;
    let combination = PhaseCharacterization {
        dram_bytes_per_op: comb_bytes / macs.max(1.0),
        dram_energy_per_op_j: comb_bytes / macs.max(1.0) * DRAM_SYSTEM_J_PER_BYTE,
        l2_mpki: lines * 1000.0 / instructions.max(1.0),
        l3_mpki: lines * 1000.0 / instructions.max(1.0) * 0.6,
    };

    Characterization {
        aggregation,
        combination,
        sync_ratio: params.sync_fraction,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hygcn_gcn::model::ModelKind;
    use hygcn_graph::datasets::{DatasetKey, DatasetSpec};

    fn collab_quarter() -> Graph {
        DatasetSpec::get(DatasetKey::Cl)
            .instantiate(0.25, 7)
            .unwrap()
    }

    #[test]
    fn aggregation_far_more_traffic_per_op_than_combination() {
        let g = collab_quarter();
        let m = GcnModel::new(ModelKind::Gcn, g.feature_len(), 1).unwrap();
        let c = characterize(&g, &m, &CpuParams::default(), 1_000_000);
        // Table 2: 11.6 vs 0.06 — two orders of magnitude.
        assert!(
            c.aggregation.dram_bytes_per_op > 20.0 * c.combination.dram_bytes_per_op,
            "agg {} vs comb {}",
            c.aggregation.dram_bytes_per_op,
            c.combination.dram_bytes_per_op
        );
    }

    #[test]
    fn aggregation_mpki_much_higher() {
        let g = collab_quarter();
        let m = GcnModel::new(ModelKind::Gcn, g.feature_len(), 1).unwrap();
        let c = characterize(&g, &m, &CpuParams::default(), 1_000_000);
        assert!(c.aggregation.l2_mpki > 2.0 * c.combination.l2_mpki);
        assert!(c.aggregation.l3_mpki > 2.0 * c.combination.l3_mpki);
    }

    #[test]
    fn sync_ratio_is_measured_constant() {
        let g = collab_quarter();
        let m = GcnModel::new(ModelKind::Gcn, g.feature_len(), 1).unwrap();
        let c = characterize(&g, &m, &CpuParams::default(), 100_000);
        assert!((c.sync_ratio - 0.36).abs() < 1e-12);
    }

    #[test]
    fn named_metrics_round_trip() {
        let g = collab_quarter();
        let m = GcnModel::new(ModelKind::Gcn, g.feature_len(), 1).unwrap();
        let c = characterize(&g, &m, &CpuParams::default(), 100_000);
        let metrics = c.to_metrics();
        assert_eq!(metrics.len(), 9);
        assert_eq!(metrics[2], ("agg_l2_mpki", c.aggregation.l2_mpki));
        let back = Characterization::from_metrics(|name| {
            metrics.iter().find(|(n, _)| *n == name).unwrap().1
        });
        assert_eq!(back, c);
    }

    #[test]
    fn energy_per_op_in_table2_regime() {
        let g = collab_quarter();
        let m = GcnModel::new(ModelKind::Gcn, g.feature_len(), 1).unwrap();
        let c = characterize(&g, &m, &CpuParams::default(), 1_000_000);
        // Paper: 170 nJ vs 0.5 nJ. Check orders of magnitude.
        assert!(c.aggregation.dram_energy_per_op_j > 10e-9);
        assert!(c.combination.dram_energy_per_op_j < 10e-9);
    }
}
