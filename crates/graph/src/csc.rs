//! Compressed sparse column adjacency — HyGCN's native input format.
//!
//! The paper (§4.3.2) takes CSC directly so the interval–shard partition
//! requires no explicit preprocessing: the sources of each destination
//! vertex are contiguous and sorted, so a shard `S(i, j)` is a binary-search
//! range inside each destination column.
//!
//! An edge list converts by counting sort ([`Csc::from_coo`]), which
//! sorts each column after the scatter. The edge-drawing generators
//! instead fill the columns from their dedup set's pairs in `(hi, lo)`
//! order (`Csc::from_ordered_pairs`), which writes every column in
//! order and so sorts nothing.

use crate::{Coo, VertexId};

/// In-edge adjacency: for each destination vertex, the sorted list of source
/// vertices.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Csc {
    /// `offsets[v]..offsets[v+1]` indexes `sources` for destination `v`.
    offsets: Vec<usize>,
    /// Concatenated, per-destination-sorted source vertex ids.
    sources: Vec<VertexId>,
}

impl Csc {
    /// Builds CSC from an edge list via counting sort; `O(V + E)`.
    pub fn from_coo(coo: &Coo) -> Self {
        let n = coo.num_vertices();
        let mut counts = vec![0usize; n + 1];
        for &(_, dst) in coo.pairs() {
            counts[dst as usize + 1] += 1;
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let offsets = counts.clone();
        let mut cursor = counts;
        let mut sources = vec![0 as VertexId; coo.num_edges()];
        for &(src, dst) in coo.pairs() {
            sources[cursor[dst as usize]] = src;
            cursor[dst as usize] += 1;
        }
        // Sort each column so shard lookups can binary-search.
        for v in 0..n {
            sources[offsets[v]..offsets[v + 1]].sort_unstable();
        }
        Self { offsets, sources }
    }

    /// Builds the CSC of an undirected graph from its pairs visited in
    /// ascending `(hi, lo)` order (`lo < hi`; a pair may repeat, its
    /// copies adjacent), given every vertex's degree: equal to
    /// [`Csc::from_coo`] over both directions of every pair, without an
    /// edge list or a column sort; `O(V + E)`.
    ///
    /// Each column fills forward from a cursor: column `c` takes its
    /// lower neighbours while row `c` is visited, in ascending `lo`, and
    /// its higher ones in the later rows, in ascending `hi`, so it comes
    /// out sorted.
    ///
    /// # Panics
    ///
    /// Panics if a pair names a vertex `>= degrees.len()`; a degree that
    /// does not count the vertex's pairs corrupts neighbouring columns,
    /// and debug builds assert that none does.
    pub(crate) fn from_ordered_pairs(
        degrees: &[usize],
        pairs: impl IntoIterator<Item = (VertexId, VertexId)>,
    ) -> Self {
        // `offsets[c + 1]` starts at column `c`'s first slot and is its
        // fill cursor, so it ends at column `c`'s end: column `c + 1`'s
        // start.
        let mut offsets = Vec::with_capacity(degrees.len() + 1);
        offsets.push(0);
        let mut start = 0;
        for &degree in degrees {
            offsets.push(start);
            start += degree;
        }
        let mut sources = vec![0 as VertexId; start];
        pairs.into_iter().for_each(|(hi, lo)| {
            debug_assert!(lo < hi, "pair ({hi}, {lo}) is not (hi, lo)");
            for (column, source) in [(hi, lo), (lo, hi)] {
                let cursor = &mut offsets[column as usize + 1];
                sources[*cursor] = source;
                *cursor += 1;
            }
        });
        debug_assert!(
            degrees
                .iter()
                .zip(offsets.windows(2))
                .all(|(&d, w)| w[1] - w[0] == d),
            "degrees do not count the pairs"
        );
        Self { offsets, sources }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> usize {
        self.sources.len()
    }

    /// Sorted sources (in-neighbors) of destination `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= num_vertices`.
    pub fn sources(&self, v: VertexId) -> &[VertexId] {
        let v = v as usize;
        &self.sources[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Sources of `v` restricted to the half-open id range
    /// `[lo, hi)` — the edges of shard rows `lo..hi` for column `v`.
    ///
    /// Runs in `O(log d + k)` where `d` is the degree of `v` and `k` the
    /// number of matching edges.
    ///
    /// # Panics
    ///
    /// Panics if `v >= num_vertices`.
    pub fn sources_in_range(&self, v: VertexId, lo: VertexId, hi: VertexId) -> &[VertexId] {
        let all = self.sources(v);
        let start = all.partition_point(|&s| s < lo);
        let end = all.partition_point(|&s| s < hi);
        &all[start..end]
    }

    /// In-degree of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= num_vertices`.
    pub fn degree(&self, v: VertexId) -> usize {
        self.sources(v).len()
    }

    /// Raw offset array (length `num_vertices + 1`).
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// Raw concatenated sources array.
    pub fn raw_sources(&self) -> &[VertexId] {
        &self.sources
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample() -> Csc {
        // dst 0: sources {3, 1}; dst 1: {0}; dst 2: {}; dst 3: {0, 1, 2}
        let coo = Coo::from_pairs(4, [(3, 0), (1, 0), (0, 1), (2, 3), (0, 3), (1, 3)]).unwrap();
        Csc::from_coo(&coo)
    }

    #[test]
    fn columns_are_sorted() {
        let csc = sample();
        assert_eq!(csc.sources(0), &[1, 3]);
        assert_eq!(csc.sources(3), &[0, 1, 2]);
        assert!(csc.sources(2).is_empty());
    }

    #[test]
    fn counts() {
        let csc = sample();
        assert_eq!(csc.num_vertices(), 4);
        assert_eq!(csc.num_edges(), 6);
        assert_eq!(csc.degree(3), 3);
    }

    #[test]
    fn range_query_matches_filter() {
        let csc = sample();
        assert_eq!(csc.sources_in_range(3, 1, 3), &[1, 2]);
        assert_eq!(csc.sources_in_range(3, 0, 1), &[0]);
        assert!(csc.sources_in_range(3, 3, 4).is_empty());
    }

    #[test]
    fn range_query_empty_range() {
        let csc = sample();
        assert!(csc.sources_in_range(0, 2, 2).is_empty());
    }

    #[test]
    fn empty_graph() {
        let csc = Csc::from_coo(&Coo::new(0));
        assert_eq!(csc.num_vertices(), 0);
        assert_eq!(csc.num_edges(), 0);
    }

    /// `n` vertices, a third of the cases with 0–2, and a multiset of
    /// undirected pairs among them as `(hi, lo)` in ascending order:
    /// up to three copies of a draw, so repeats are common, and vertices
    /// no draw names stay isolated.
    fn arb_ordered_pairs() -> impl Strategy<Value = (usize, Vec<(VertexId, VertexId)>)> {
        prop_oneof![0usize..=2, 3usize..=12, 13usize..=48].prop_flat_map(|n| {
            let id = 0..n.max(1) as VertexId;
            let draws = proptest::collection::vec((id.clone(), id, 1usize..=3), 0..80);
            draws.prop_map(move |draws| {
                let mut pairs = Vec::new();
                for (a, b, copies) in draws {
                    if a != b {
                        pairs.extend(std::iter::repeat_n((a.max(b), a.min(b)), copies));
                    }
                }
                pairs.sort_unstable();
                (n, pairs)
            })
        })
    }

    proptest::proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// Filling columns from an ordered visit equals counting, scattering
        /// and sorting an edge list that holds both directions of every
        /// pair, copies included.
        #[test]
        fn ordered_pairs_build_the_csc_of_both_directions((n, pairs) in arb_ordered_pairs()) {
            let mut degrees = vec![0usize; n];
            let mut coo = Coo::new(n);
            for &(hi, lo) in &pairs {
                degrees[hi as usize] += 1;
                degrees[lo as usize] += 1;
                coo.push_undirected(hi, lo).unwrap();
            }
            let csc = Csc::from_ordered_pairs(&degrees, pairs.iter().copied());
            prop_assert_eq!(csc, Csc::from_coo(&coo), "n = {}, pairs {:?}", n, pairs);
        }
    }

    #[test]
    fn ordered_pairs_of_tiny_graphs() {
        let empty = Csc::from_ordered_pairs(&[], []);
        assert_eq!((empty.num_vertices(), empty.offsets()), (0, &[0][..]));
        let isolated = Csc::from_ordered_pairs(&[0], []);
        assert_eq!((isolated.num_vertices(), isolated.num_edges()), (1, 0));
        let twice = Csc::from_ordered_pairs(&[2, 2, 0], [(1, 0), (1, 0)]);
        assert_eq!(
            (twice.sources(0), twice.sources(1)),
            (&[1, 1][..], &[0, 0][..])
        );
        assert!(twice.sources(2).is_empty());
    }

    #[test]
    fn offsets_are_monotonic() {
        let csc = sample();
        assert!(csc.offsets().windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(*csc.offsets().last().unwrap(), csc.num_edges());
    }
}
