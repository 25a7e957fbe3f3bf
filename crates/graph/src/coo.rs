//! Coordinate-format (edge list) graph representation.
//!
//! COO is the interchange format: edge-list files, builders, samplers
//! and most generators produce it, and the compressed format
//! ([`crate::Csc`]) is derived from it. R-MAT and the dataset registry's
//! assembled blocks skip it: their dedup set fills the CSC directly.
//! A generator that knows its edge count, or a bound on it, allocates
//! the list once with [`Coo::with_capacity`]: a list grown by doubling
//! holds up to twice its edges, and both the old and new buffers while
//! it grows.

use crate::{GraphError, VertexId};

/// A directed edge list with a fixed vertex count.
///
/// Duplicate edges are permitted at this level (the paper's datasets are
/// simple graphs, and [`Coo::dedup`] canonicalizes when needed).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Coo {
    num_vertices: usize,
    edges: Vec<(VertexId, VertexId)>,
}

impl Coo {
    /// Creates an empty edge list over `num_vertices` vertices.
    pub fn new(num_vertices: usize) -> Self {
        Self::with_capacity(num_vertices, 0)
    }

    /// Creates an empty edge list over `num_vertices` vertices with room
    /// for `edges` directed edges.
    pub fn with_capacity(num_vertices: usize, edges: usize) -> Self {
        Self {
            num_vertices,
            edges: Vec::with_capacity(edges),
        }
    }

    /// Creates an edge list from `(src, dst)` pairs.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::VertexOutOfBounds`] if any endpoint is
    /// `>= num_vertices`.
    pub fn from_pairs(
        num_vertices: usize,
        pairs: impl IntoIterator<Item = (VertexId, VertexId)>,
    ) -> Result<Self, GraphError> {
        let mut coo = Self::new(num_vertices);
        for (src, dst) in pairs {
            coo.push(src, dst)?;
        }
        Ok(coo)
    }

    /// Appends one directed edge.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::VertexOutOfBounds`] if an endpoint is out of
    /// range.
    pub fn push(&mut self, src: VertexId, dst: VertexId) -> Result<(), GraphError> {
        for v in [src, dst] {
            if v as usize >= self.num_vertices {
                return Err(GraphError::VertexOutOfBounds {
                    vertex: v,
                    num_vertices: self.num_vertices,
                });
            }
        }
        self.edges.push((src, dst));
        Ok(())
    }

    /// Appends both directions of an undirected edge.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::VertexOutOfBounds`] if an endpoint is out of
    /// range.
    pub fn push_undirected(&mut self, a: VertexId, b: VertexId) -> Result<(), GraphError> {
        self.push(a, b)?;
        if a != b {
            self.push(b, a)?;
        }
        Ok(())
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of directed edges currently stored.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Borrow the raw `(src, dst)` pairs.
    pub fn pairs(&self) -> &[(VertexId, VertexId)] {
        &self.edges
    }

    /// Sorts by `(dst, src)` and removes duplicate edges and self-loops.
    ///
    /// The paper's aggregation formulations add the self term explicitly
    /// (`{N(v)} ∪ {v}`), so adjacency structures stay loop-free.
    pub fn dedup(&mut self) {
        self.edges.retain(|(s, d)| s != d);
        self.edges.sort_unstable_by_key(|&(s, d)| (d, s));
        self.edges.dedup();
    }

    /// Consumes the list, returning the pairs.
    pub fn into_pairs(self) -> Vec<(VertexId, VertexId)> {
        self.edges
    }
}

impl Extend<(VertexId, VertexId)> for Coo {
    /// Extends with pairs, silently dropping out-of-range edges.
    ///
    /// Generators that may emit out-of-range indices should use
    /// [`Coo::push`] instead; `extend` is for trusted sources.
    fn extend<T: IntoIterator<Item = (VertexId, VertexId)>>(&mut self, iter: T) {
        for (src, dst) in iter {
            let _ = self.push(src, dst);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_rejects_out_of_bounds() {
        let mut coo = Coo::new(3);
        assert!(coo.push(0, 2).is_ok());
        assert_eq!(
            coo.push(0, 3),
            Err(GraphError::VertexOutOfBounds {
                vertex: 3,
                num_vertices: 3
            })
        );
    }

    #[test]
    fn undirected_adds_both_directions() {
        let mut coo = Coo::new(4);
        coo.push_undirected(1, 2).unwrap();
        assert_eq!(coo.pairs(), &[(1, 2), (2, 1)]);
    }

    #[test]
    fn undirected_self_loop_once() {
        let mut coo = Coo::new(4);
        coo.push_undirected(1, 1).unwrap();
        assert_eq!(coo.num_edges(), 1);
    }

    #[test]
    fn dedup_removes_duplicates_and_loops() {
        let mut coo = Coo::from_pairs(4, [(0, 1), (0, 1), (2, 2), (3, 1)]).unwrap();
        coo.dedup();
        assert_eq!(coo.pairs(), &[(0, 1), (3, 1)]);
    }

    #[test]
    fn dedup_orders_by_destination_then_source() {
        let mut coo = Coo::from_pairs(4, [(3, 0), (1, 0), (2, 0)]).unwrap();
        coo.dedup();
        assert_eq!(coo.pairs(), &[(1, 0), (2, 0), (3, 0)]);
    }

    #[test]
    fn extend_skips_invalid() {
        let mut coo = Coo::new(2);
        coo.extend([(0, 1), (5, 1)]);
        assert_eq!(coo.num_edges(), 1);
    }

    #[test]
    fn with_capacity_reserves_without_edges() {
        let mut coo = Coo::with_capacity(3, 4);
        assert_eq!((coo.num_vertices(), coo.num_edges()), (3, 0));
        assert!(coo.edges.capacity() >= 4);
        coo.push_undirected(0, 2).unwrap();
        coo.push_undirected(1, 2).unwrap();
        assert_eq!(
            coo,
            Coo::from_pairs(3, [(0, 2), (2, 0), (1, 2), (2, 1)]).unwrap()
        );
    }

    #[test]
    fn into_pairs_roundtrip() {
        let coo = Coo::from_pairs(3, [(0, 1), (1, 2)]).unwrap();
        assert_eq!(coo.into_pairs(), vec![(0, 1), (1, 2)]);
    }
}
