//! Incremental construction of [`Graph`] values.

use crate::{Coo, Graph, GraphError, VertexId};

/// Builder for hand-constructed graphs.
///
/// ```
/// use hygcn_graph::GraphBuilder;
///
/// # fn main() -> Result<(), hygcn_graph::GraphError> {
/// let g = GraphBuilder::new(3)
///     .feature_len(4)
///     .undirected_edge(0, 1)?
///     .edge(2, 0)?
///     .build();
/// assert_eq!(g.num_edges(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    coo: Coo,
    feature_len: usize,
    name: Option<String>,
}

impl GraphBuilder {
    /// Starts a builder for a graph with `num_vertices` vertices and a
    /// default feature length of 1 (plain graph-analytics style).
    pub fn new(num_vertices: usize) -> Self {
        Self {
            coo: Coo::new(num_vertices),
            feature_len: 1,
            name: None,
        }
    }

    /// Sets the per-vertex feature vector length.
    pub fn feature_len(mut self, feature_len: usize) -> Self {
        self.feature_len = feature_len;
        self
    }

    /// Sets the dataset name.
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.name = Some(name.into());
        self
    }

    /// Adds one directed edge `src -> dst`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::VertexOutOfBounds`] for invalid endpoints.
    pub fn edge(mut self, src: VertexId, dst: VertexId) -> Result<Self, GraphError> {
        self.coo.push(src, dst)?;
        Ok(self)
    }

    /// Adds both directions of an undirected edge.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::VertexOutOfBounds`] for invalid endpoints.
    pub fn undirected_edge(mut self, a: VertexId, b: VertexId) -> Result<Self, GraphError> {
        self.coo.push_undirected(a, b)?;
        Ok(self)
    }

    /// Adds many directed edges.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::VertexOutOfBounds`] on the first invalid edge.
    pub fn edges(
        mut self,
        pairs: impl IntoIterator<Item = (VertexId, VertexId)>,
    ) -> Result<Self, GraphError> {
        for (s, d) in pairs {
            self.coo.push(s, d)?;
        }
        Ok(self)
    }

    /// Finalizes into a [`Graph`], dropping duplicate edges and
    /// self-loops ([`Coo::dedup`]).
    pub fn build(mut self) -> Graph {
        self.coo.dedup();
        let g = Graph::from_coo(&self.coo, self.feature_len);
        match self.name {
            Some(name) => g.with_name(name),
            None => g,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_dedups() {
        let g = GraphBuilder::new(3)
            .edges([(0, 1), (0, 1), (1, 1)])
            .unwrap()
            .build();
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn named_graph() {
        let g = GraphBuilder::new(1).name("tiny").build();
        assert_eq!(g.name(), "tiny");
    }

    #[test]
    fn invalid_edge_errors() {
        assert!(GraphBuilder::new(2).edge(0, 2).is_err());
    }
}
