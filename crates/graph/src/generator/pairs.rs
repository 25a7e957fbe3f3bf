//! The dedup set of the edge-drawing generators ([`super::rmat`] and the
//! dataset registry's assembled blocks): which undirected pairs a draw
//! loop has already emitted.
//!
//! Dense draws get a bitset over the upper triangle of the adjacency
//! matrix, sparse ones an ordered set. The choice is by size: the
//! bitset is used when it is no larger than the COO the drawn edges
//! fill, i.e. at an edge density of at least 1/128 (one bit per vertex
//! pair against two 64-bit directed entries per edge). Below that, a
//! bitset over a large vertex count would dwarf the graph itself —
//! full-scale Reddit would need 3.4 GB. Both sets answer every insert
//! identically, so the choice never changes a graph.

use std::collections::BTreeSet;

use crate::VertexId;

/// COO bits one undirected edge occupies: two directed `(u32, u32)`
/// entries.
const COO_BITS_PER_EDGE: usize = 2 * 64;

/// Undirected vertex pairs seen so far.
#[derive(Debug)]
pub(crate) enum PairSet {
    /// One bit per pair `lo < hi`, at index `hi * (hi - 1) / 2 + lo`.
    Dense(Vec<u64>),
    /// `(lo, hi)` pairs.
    Sparse(BTreeSet<(VertexId, VertexId)>),
}

impl PairSet {
    /// The set for drawing `edges` distinct pairs among `num_vertices`:
    /// dense at an edge density of at least 1/128, sparse below.
    pub(crate) fn for_draw(num_vertices: usize, edges: usize) -> Self {
        let pairs = num_vertices.saturating_mul(num_vertices.saturating_sub(1)) / 2;
        if pairs <= edges.saturating_mul(COO_BITS_PER_EDGE) {
            Self::dense(num_vertices)
        } else {
            Self::Sparse(BTreeSet::new())
        }
    }

    /// A bitset covering every pair among `num_vertices`.
    pub(crate) fn dense(num_vertices: usize) -> Self {
        let pairs = num_vertices * num_vertices.saturating_sub(1) / 2;
        Self::Dense(vec![0; pairs.div_ceil(64)])
    }

    /// Records the pair `{a, b}` (`a != b`); whether it was new.
    pub(crate) fn insert(&mut self, a: VertexId, b: VertexId) -> bool {
        let (lo, hi) = (a.min(b), a.max(b));
        match self {
            Self::Dense(words) => {
                let (lo, hi) = (lo as usize, hi as usize);
                let bit = hi * (hi - 1) / 2 + lo;
                let (word, mask) = (&mut words[bit / 64], 1u64 << (bit % 64));
                let new = *word & mask == 0;
                *word |= mask;
                new
            }
            Self::Sparse(set) => set.insert((lo, hi)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn density_picks_the_set() {
        // 256 vertices: 32,640 pairs, so the bitset wins from 255 edges.
        assert!(matches!(PairSet::for_draw(256, 255), PairSet::Dense(_)));
        assert!(matches!(PairSet::for_draw(256, 254), PairSet::Sparse(_)));
        assert!(matches!(PairSet::for_draw(2, 1), PairSet::Dense(_)));
    }

    #[test]
    fn both_sets_answer_alike() {
        let mut dense = PairSet::dense(40);
        let mut sparse = PairSet::Sparse(BTreeSet::new());
        for i in 0..2_000u32 {
            let (a, b) = (i * 7 % 40, i * 13 % 39);
            if a != b {
                assert_eq!(dense.insert(a, b), sparse.insert(b, a), "{a}-{b}");
            }
        }
    }
}
