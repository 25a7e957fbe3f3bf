//! Multi-layer inference: chaining `k` convolutional layers.
//!
//! GCNs stack k layers/iterations (Eq. 1); each layer consumes the
//! previous layer's output features. This module runs a stack of models
//! through the simulator, handling the feature-length transitions, and
//! also implements the `Readout` operation as the paper prescribes:
//! "an additional single vertex that connects all vertices in the graph,
//! which can be accomplished by the Aggregation engine" (§4.1).

use hygcn_gcn::model::{GcnModel, ModelKind};
use hygcn_graph::Graph;

use crate::error::SimError;
use crate::report::SimReport;
use crate::sim::Simulator;

/// Aggregate result of a multi-layer run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StackReport {
    /// Per-layer reports, in execution order.
    pub layers: Vec<SimReport>,
    /// Cycles of the final Readout, if one was executed.
    pub readout_cycles: u64,
}

impl StackReport {
    /// Total cycles across layers (layers execute back to back — the
    /// inter-engine pipeline fuses phases *within* a layer; layer `k`
    /// needs layer `k-1`'s full output).
    pub fn total_cycles(&self) -> u64 {
        self.layers.iter().map(|l| l.cycles).sum::<u64>() + self.readout_cycles
    }

    /// Total time in seconds.
    pub fn total_time_s(&self) -> f64 {
        self.layers.iter().map(|l| l.time_s).sum()
    }

    /// Total energy in joules.
    pub fn total_energy_j(&self) -> f64 {
        self.layers.iter().map(|l| l.energy_j()).sum()
    }
}

impl Simulator {
    /// Simulates a `k`-layer stack of `kind` over `graph`: layer 1 runs at
    /// the graph's feature length, subsequent layers at the previous
    /// layer's 128-wide output. With `readout`, a final sum-Readout over
    /// all vertices is costed on the Aggregation Engine.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] from any layer; `k == 0` yields an empty
    /// report.
    pub fn simulate_stack(
        &self,
        graph: &Graph,
        kind: ModelKind,
        k: usize,
        readout: bool,
    ) -> Result<StackReport, SimError> {
        let mut report = StackReport::default();
        let mut g = graph.clone();
        for layer in 0..k {
            let model = GcnModel::new(kind, g.feature_len(), 0xA11 + layer as u64)?;
            let out_len = model.out_len();
            report.layers.push(self.simulate(&g, &model)?);
            g = g.with_feature_len(out_len);
        }
        if readout && k > 0 {
            report.readout_cycles = self.readout_cycles(&g);
        }
        Ok(report)
    }

    /// Cycles for the Readout "extreme aggregation": a virtual vertex with
    /// every vertex as a neighbor, reduced on the SIMD cores, streaming
    /// the final feature matrix once from DRAM.
    pub fn readout_cycles(&self, graph: &Graph) -> u64 {
        let cfg = self.config();
        let elem_ops = graph.num_vertices() as u64 * graph.feature_len() as u64;
        let compute = elem_ops.div_ceil(cfg.simd_lanes() as u64);
        let bytes = elem_ops * 4;
        let mem = (bytes as f64 / cfg.hbm.peak_bytes_per_cycle()) as u64;
        compute.max(mem)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HyGcnConfig;
    use hygcn_graph::generator::preferential_attachment;

    fn graph() -> Graph {
        preferential_attachment(256, 3, 1)
            .unwrap()
            .with_feature_len(96)
    }

    #[test]
    fn two_layer_stack_chains_widths() {
        let sim = Simulator::new(HyGcnConfig::default());
        let r = sim
            .simulate_stack(&graph(), ModelKind::Gcn, 2, false)
            .unwrap();
        assert_eq!(r.layers.len(), 2);
        // Layer 1 aggregates at 96 wide, layer 2 at 128 wide: MAC counts
        // differ accordingly.
        assert_eq!(r.layers[0].macs, 256 * 96 * 128);
        assert_eq!(r.layers[1].macs, 256 * 128 * 128);
        assert_eq!(r.total_cycles(), r.layers[0].cycles + r.layers[1].cycles);
    }

    #[test]
    fn readout_adds_cycles() {
        let sim = Simulator::new(HyGcnConfig::default());
        let with = sim
            .simulate_stack(&graph(), ModelKind::Gin, 1, true)
            .unwrap();
        let without = sim
            .simulate_stack(&graph(), ModelKind::Gin, 1, false)
            .unwrap();
        assert!(with.readout_cycles > 0);
        assert_eq!(without.readout_cycles, 0);
        assert!(with.total_cycles() > without.total_cycles());
    }

    #[test]
    fn empty_stack_is_empty() {
        let sim = Simulator::new(HyGcnConfig::default());
        let r = sim
            .simulate_stack(&graph(), ModelKind::Gcn, 0, true)
            .unwrap();
        assert!(r.layers.is_empty());
        assert_eq!(r.total_cycles(), 0);
        assert_eq!(r.total_energy_j(), 0.0);
    }

    #[test]
    fn readout_bounded_by_compute_and_memory() {
        let sim = Simulator::new(HyGcnConfig::default());
        let g = graph();
        let cycles = sim.readout_cycles(&g);
        let elems = g.num_vertices() as u64 * g.feature_len() as u64;
        assert!(cycles >= elems / 512);
        assert!(cycles <= elems);
    }

    #[test]
    fn stack_totals_accumulate() {
        let sim = Simulator::new(HyGcnConfig::default());
        let r = sim
            .simulate_stack(&graph(), ModelKind::Gcn, 3, false)
            .unwrap();
        assert!(r.total_time_s() > 0.0);
        assert!(r.total_energy_j() > 0.0);
    }
}
