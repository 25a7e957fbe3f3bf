//! The dedup set of the edge-drawing generators ([`super::rmat`] and the
//! dataset registry's assembled blocks): which undirected pairs a draw
//! loop has already emitted. Once the draw is done, the set is the
//! graph: [`PairSet::pairs`] visits its pairs in `(hi, lo)` order, the
//! order [`crate::Csc::from_ordered_pairs`] fills sorted columns from.
//!
//! Dense draws get a bitset over the upper triangle of the adjacency
//! matrix, sparse ones an ordered set. The choice is by size: the
//! bitset is used at an edge density of at least 1/128, where its one
//! bit per vertex pair comes to at most 128 bits per drawn pair, twice
//! the 64 bits (two 32-bit sources) the pair takes in the CSC the set
//! fills. Below that, a bitset over a large vertex count would dwarf
//! the graph itself — full-scale Reddit would need 3.4 GB. Both sets
//! answer every insert identically and visit the same pairs in the same
//! order, so the choice never changes a graph.

use std::collections::BTreeSet;

use crate::VertexId;

/// Bitset bits allowed per drawn pair: twice the two 32-bit sources
/// the pair takes in the CSC.
const BITSET_BITS_PER_EDGE: usize = 128;

/// Undirected vertex pairs seen so far.
#[derive(Debug)]
pub(crate) enum PairSet {
    /// One bit per pair `lo < hi`, at index `hi * (hi - 1) / 2 + lo`:
    /// bit order is `(hi, lo)` order.
    Dense(Vec<u64>),
    /// `(hi, lo)` pairs, so that set order is `(hi, lo)` order too.
    Sparse(BTreeSet<(VertexId, VertexId)>),
}

impl PairSet {
    /// The set for drawing `edges` distinct pairs among `num_vertices`:
    /// dense at an edge density of at least 1/128, sparse below.
    pub(crate) fn for_draw(num_vertices: usize, edges: usize) -> Self {
        let pairs = num_vertices.saturating_mul(num_vertices.saturating_sub(1)) / 2;
        if pairs <= edges.saturating_mul(BITSET_BITS_PER_EDGE) {
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
            Self::Sparse(set) => set.insert((hi, lo)),
        }
    }

    /// Every recorded pair as `(hi, lo)`, `lo < hi`, in ascending
    /// `(hi, lo)` order.
    pub(crate) fn pairs(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        // One side is empty. Built from std adapters, the visit keeps
        // their `fold`, so a consumer's `for_each` reads the bitset in a
        // tight loop.
        let (dense, sparse) = match self {
            Self::Dense(words) => (Some(dense_pairs(words)), None),
            Self::Sparse(set) => (None, Some(set.iter().copied())),
        };
        dense
            .into_iter()
            .flatten()
            .chain(sparse.into_iter().flatten())
    }
}

/// The set bits of a [`PairSet::Dense`] bitset as `(hi, lo)` pairs:
/// row `hi` starts at bit `hi * (hi - 1) / 2` and holds `hi` bits.
fn dense_pairs(words: &[u64]) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
    let bits = words.iter().enumerate().flat_map(|(i, &word)| {
        let mut rest = word;
        std::iter::from_fn(move || {
            let bit = i * 64 + rest.trailing_zeros() as usize;
            (rest != 0).then(|| {
                rest &= rest - 1;
                bit
            })
        })
    });
    let (mut hi, mut row_start) = (1, 0);
    bits.map(move |bit| {
        while bit >= row_start + hi {
            row_start += hi;
            hi += 1;
        }
        (hi as VertexId, (bit - row_start) as VertexId)
    })
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
    fn both_sets_answer_and_visit_alike() {
        let mut dense = PairSet::dense(40);
        let mut sparse = PairSet::Sparse(BTreeSet::new());
        let mut want = BTreeSet::new();
        for i in 0..2_000u32 {
            let (a, b) = (i * 7 % 40, i * 13 % 39);
            if a != b {
                assert_eq!(dense.insert(a, b), sparse.insert(b, a), "{a}-{b}");
                want.insert((a.max(b), a.min(b)));
            }
        }
        let want: Vec<_> = want.into_iter().collect();
        assert_eq!(dense.pairs().collect::<Vec<_>>(), want);
        assert_eq!(sparse.pairs().collect::<Vec<_>>(), want);
    }

    #[test]
    fn dense_visit_crosses_words_and_skips_empty_rows() {
        // 100 vertices: 4,950 bits in 78 words; row 99 spans words 75-77.
        let mut set = PairSet::dense(100);
        let pairs = [
            (1, 0),
            (2, 1),
            (11, 10),
            (64, 0),
            (64, 63),
            (99, 0),
            (99, 98),
        ];
        for &(hi, lo) in pairs.iter().rev() {
            assert!(set.insert(lo, hi));
        }
        assert_eq!(set.pairs().collect::<Vec<_>>(), pairs);
        assert_eq!(PairSet::dense(0).pairs().count(), 0);
        assert_eq!(PairSet::dense(1).pairs().count(), 0);
    }
}
