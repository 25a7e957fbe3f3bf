//! Multi-graph batch assembly — the paper's §5.1 protocol.
//!
//! "The datasets with more than one graph are tested by assembling
//! randomly selected 128 graphs into a large graph before processing."
//! [`assemble`] performs exactly that: component graphs are placed in
//! disjoint, contiguous id ranges of one vertex space, preserving each
//! component's internal structure.

use crate::{Coo, Graph, GraphError, VertexId};

/// A batch of component graphs assembled into one, remembering the
/// component boundaries so per-graph results (e.g. Readout) can be
/// recovered.
#[derive(Debug, Clone, PartialEq)]
pub struct AssembledBatch {
    graph: Graph,
    /// `offsets[i]..offsets[i+1]` is component `i`'s vertex id range.
    offsets: Vec<VertexId>,
}

/// Assembles `graphs` into one disjoint-union graph.
///
/// All components must share one feature length.
///
/// # Errors
///
/// * [`GraphError::EmptyGraph`] if `graphs` is empty.
/// * [`GraphError::InvalidParameter`] if feature lengths disagree.
pub fn assemble(graphs: &[Graph]) -> Result<AssembledBatch, GraphError> {
    let first = graphs.first().ok_or(GraphError::EmptyGraph)?;
    let feature_len = first.feature_len();
    if let Some(bad) = graphs.iter().find(|g| g.feature_len() != feature_len) {
        return Err(GraphError::InvalidParameter(format!(
            "feature length mismatch: {} vs {}",
            bad.feature_len(),
            feature_len
        )));
    }
    let total: usize = graphs.iter().map(Graph::num_vertices).sum();
    let edges = graphs.iter().map(Graph::num_edges).sum();
    let mut coo = Coo::with_capacity(total, edges);
    let mut offsets = Vec::with_capacity(graphs.len() + 1);
    let mut base: VertexId = 0;
    for g in graphs {
        offsets.push(base);
        for (src, dst) in g.edges() {
            coo.push(base + src, base + dst)?;
        }
        base += g.num_vertices() as VertexId;
    }
    offsets.push(base);
    Ok(AssembledBatch {
        graph: Graph::from_coo(&coo, feature_len).with_name("assembled-batch"),
        offsets,
    })
}

impl AssembledBatch {
    /// The assembled graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Number of component graphs.
    pub fn num_components(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Component `i`'s vertex range `[start, end)`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_components`.
    pub fn component_range(&self, i: usize) -> (VertexId, VertexId) {
        (self.offsets[i], self.offsets[i + 1])
    }

    /// Which component a global vertex id belongs to.
    pub fn component_of(&self, v: VertexId) -> Option<usize> {
        // An empty offsets table (no components) locates nothing.
        let &end = self.offsets.last()?;
        if v >= end {
            return None;
        }
        Some(self.offsets.partition_point(|&o| o <= v) - 1)
    }

    /// Consumes the batch, returning the assembled graph.
    pub fn into_graph(self) -> Graph {
        self.graph
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::erdos_renyi;
    use crate::GraphBuilder;

    fn components() -> Vec<Graph> {
        (0..4)
            .map(|i| {
                erdos_renyi(10 + i, 12, i as u64)
                    .unwrap()
                    .with_feature_len(8)
            })
            .collect()
    }

    #[test]
    fn assembly_is_disjoint_union() {
        let parts = components();
        let batch = assemble(&parts).unwrap();
        let total_v: usize = parts.iter().map(Graph::num_vertices).sum();
        let total_e: usize = parts.iter().map(Graph::num_edges).sum();
        assert_eq!(batch.graph().num_vertices(), total_v);
        assert_eq!(batch.graph().num_edges(), total_e);
        assert_eq!(batch.num_components(), 4);
    }

    #[test]
    fn no_cross_component_edges() {
        let batch = assemble(&components()).unwrap();
        for (s, d) in batch.graph().edges() {
            assert_eq!(batch.component_of(s), batch.component_of(d));
        }
    }

    #[test]
    fn component_lookup() {
        let batch = assemble(&components()).unwrap();
        let (s0, e0) = batch.component_range(0);
        assert_eq!(s0, 0);
        assert_eq!(e0, 10);
        assert_eq!(batch.component_of(0), Some(0));
        assert_eq!(batch.component_of(10), Some(1));
        assert_eq!(batch.component_of(9999), None);
    }

    #[test]
    fn structure_preserved_per_component() {
        let parts = components();
        let batch = assemble(&parts).unwrap();
        let (base, _) = batch.component_range(2);
        for v in 0..parts[2].num_vertices() as VertexId {
            let expect: Vec<VertexId> =
                parts[2].in_neighbors(v).iter().map(|&u| u + base).collect();
            assert_eq!(batch.graph().in_neighbors(base + v), expect.as_slice());
        }
    }

    #[test]
    fn empty_and_mismatched_rejected() {
        assert!(assemble(&[]).is_err());
        let a = GraphBuilder::new(3).feature_len(4).build();
        let b = GraphBuilder::new(3).feature_len(8).build();
        assert!(assemble(&[a, b]).is_err());
    }
}
