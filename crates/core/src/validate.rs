//! Shared input validation for every evaluation backend.
//!
//! The feature-shape and buffer-capacity checks used to be hand-copied
//! into `Simulator::simulate`, `Simulator::simulate_reference`, and the
//! analytical backend, and the copies had already started to drift in
//! type detail. Every backend now calls [`validate_inputs`] so the
//! accept/reject contract — and the exact error values — cannot diverge,
//! and a bad configuration is an error, never a panic deep in the memory
//! model (`tests/backends.rs` locks the backends to identical errors).

use hygcn_gcn::model::{GcnModel, ModelKind};
use hygcn_graph::Graph;
use hygcn_mem::cast::widen_u64;

use crate::config::HyGcnConfig;
use crate::error::SimError;
use crate::layout::AddressLayout;

/// Validates that `(graph, model, cfg)` is a simulable design point.
///
/// The checks, in order (the order is part of the contract — callers and
/// tests rely on the first violated constraint being reported):
///
/// 1. the graph's feature length matches the model's input length;
/// 2. half the (ping-pong) Input Buffer holds one feature vector;
/// 3. half the (ping-pong) Aggregation Buffer holds one feature vector;
/// 4. the configuration is internally consistent
///    ([`HyGcnConfig::validate`]: HBM geometry, clock, fidelity);
/// 5. the workload's [`AddressLayout`] fits the address space, and its
///    top address decodes to a row below 2^32 - 1, so every span of
///    its requests fits a [`hygcn_mem::spanprog::SpanTuple`].
///
/// # Errors
///
/// * [`SimError::Gcn`] with `GcnError::FeatureShape` on mismatch (1);
/// * [`SimError::BufferTooSmall`] naming the offending buffer (2, 3);
/// * [`SimError::Config`] with the first violated constraint (4, 5).
pub fn validate_inputs(graph: &Graph, model: &GcnModel, cfg: &HyGcnConfig) -> Result<(), SimError> {
    let f_in = model.feature_len();
    if graph.feature_len() != f_in {
        return Err(SimError::Gcn(hygcn_gcn::GcnError::FeatureShape {
            expected: (graph.num_vertices(), f_in),
            found: (graph.num_vertices(), graph.feature_len()),
        }));
    }
    let row_bytes = f_in * 4;
    if cfg.input_buffer_bytes / 2 < row_bytes {
        return Err(SimError::BufferTooSmall {
            buffer: "input",
            needed: row_bytes,
            available: cfg.input_buffer_bytes / 2,
        });
    }
    if cfg.aggregation_buffer_bytes / 2 < row_bytes {
        return Err(SimError::BufferTooSmall {
            buffer: "aggregation",
            needed: row_bytes,
            available: cfg.aggregation_buffer_bytes / 2,
        });
    }
    cfg.validate().map_err(SimError::Config)?;
    // Rows grow with the address, so the top address holds the
    // workload's largest row (a sampled graph only has fewer edges).
    let kind = model.kind();
    let paths = if kind == ModelKind::DiffPool { 2 } else { 1 };
    let (n, row_bytes) = (widen_u64(graph.num_vertices()), widen_u64(row_bytes));
    let layout = AddressLayout::new(
        n,
        widen_u64(graph.num_edges()),
        row_bytes,
        &kind.mlp_dims(f_in),
    );
    let Some(end) = layout.end(n, row_bytes, paths) else {
        return Err(SimError::Config(
            "the workload's address layout exceeds the 64-bit address space".into(),
        ));
    };
    let top = end.saturating_sub(1);
    let row = cfg.hbm.address_map().decode(top).row;
    if row >= u64::from(u32::MAX) {
        return Err(SimError::Config(format!(
            "hbm: the workload's top address {top:#x} decodes to row {row}, past the \
             {} rows a span program holds",
            u32::MAX
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hygcn_graph::generator::preferential_attachment;

    fn graph(n: usize, f: usize) -> Graph {
        preferential_attachment(n, 4, 1)
            .unwrap()
            .with_feature_len(f)
    }

    #[test]
    fn accepts_consistent_inputs() {
        let g = graph(64, 32);
        let m = GcnModel::new(ModelKind::Gcn, 32, 1).unwrap();
        assert!(validate_inputs(&g, &m, &HyGcnConfig::default()).is_ok());
    }

    #[test]
    fn feature_mismatch_reported_first() {
        // Both the shape and the buffers are wrong; the shape wins.
        let g = graph(64, 32);
        let m = GcnModel::new(ModelKind::Gcn, 4096, 1).unwrap();
        let cfg = HyGcnConfig {
            input_buffer_bytes: 16,
            ..HyGcnConfig::default()
        };
        assert!(matches!(
            validate_inputs(&g, &m, &cfg),
            Err(SimError::Gcn(_))
        ));
    }

    #[test]
    fn input_buffer_checked_before_aggregation() {
        let g = graph(64, 4096);
        let m = GcnModel::new(ModelKind::Gcn, 4096, 1).unwrap();
        let cfg = HyGcnConfig {
            input_buffer_bytes: 8 << 10,
            aggregation_buffer_bytes: 8 << 10,
            ..HyGcnConfig::default()
        };
        assert!(matches!(
            validate_inputs(&g, &m, &cfg),
            Err(SimError::BufferTooSmall {
                buffer: "input",
                needed: 16384,
                available: 4096,
            })
        ));
        // With a roomy input buffer, the aggregation check fires.
        let cfg = HyGcnConfig {
            aggregation_buffer_bytes: 8 << 10,
            ..HyGcnConfig::default()
        };
        assert!(matches!(
            validate_inputs(&g, &m, &cfg),
            Err(SimError::BufferTooSmall {
                buffer: "aggregation",
                ..
            })
        ));
    }

    #[test]
    fn config_checked_after_buffers() {
        let g = graph(64, 4096);
        let m = GcnModel::new(ModelKind::Gcn, 4096, 1).unwrap();
        let mut cfg = HyGcnConfig::default();
        cfg.hbm.channels = 6;
        assert!(matches!(
            validate_inputs(&g, &m, &cfg),
            Err(SimError::Config(e)) if e.contains("channels")
        ));
        // A buffer violation still wins over the bad geometry.
        cfg.input_buffer_bytes = 8 << 10;
        assert!(matches!(
            validate_inputs(&g, &m, &cfg),
            Err(SimError::BufferTooSmall {
                buffer: "input",
                ..
            })
        ));
    }
}
