//! Interval–shard graph partitioning (paper §4.3.2, Fig. 5(a)/(b)).
//!
//! Destination vertices are grouped into *intervals* `I_i`; the edges whose
//! destinations fall in `I_i` and whose sources fall in `I_j` form the
//! *shard* `S(i, j)`. Processing shard-by-shard merges the feature accesses
//! of all vertices in an interval so that (1) loaded source features are
//! reused across the interval's overlapping neighborhoods, and (2) the
//! interval's partial aggregation results stay resident on chip.
//!
//! Because the adjacency is CSC with sorted columns, no preprocessing pass
//! is needed: a shard is a per-column binary-search range.

use crate::{Graph, GraphError, VertexId};

/// A half-open range of vertex ids `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Interval {
    /// First vertex id in the interval.
    pub start: VertexId,
    /// One past the last vertex id.
    pub end: VertexId,
}

impl Interval {
    /// Creates `[start, end)`.
    ///
    /// # Panics
    ///
    /// Panics if `start > end`.
    pub fn new(start: VertexId, end: VertexId) -> Self {
        assert!(start <= end, "interval start {start} > end {end}");
        Self { start, end }
    }

    /// Number of vertices covered.
    pub fn len(&self) -> usize {
        (self.end - self.start) as usize
    }

    /// Whether the interval is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Whether `v` lies inside the interval.
    pub fn contains(&self, v: VertexId) -> bool {
        (self.start..self.end).contains(&v)
    }

    /// Iterate over the vertex ids.
    pub fn iter(&self) -> impl Iterator<Item = VertexId> {
        self.start..self.end
    }
}

/// Sizing rule for the partition.
///
/// The paper ties the shard *height* (source interval size) to the Input
/// Buffer capacity and the shard *width* (destination interval size) to the
/// Aggregation Buffer capacity; [`PartitionSpec::from_buffer_bytes`] encodes
/// that rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionSpec {
    dst_interval_size: usize,
    src_interval_size: usize,
}

impl PartitionSpec {
    /// Creates a spec with explicit interval sizes (vertices per interval).
    ///
    /// # Panics
    ///
    /// Panics if either size is zero.
    pub fn new(dst_interval_size: usize, src_interval_size: usize) -> Self {
        assert!(
            dst_interval_size > 0,
            "destination interval size must be nonzero"
        );
        assert!(
            src_interval_size > 0,
            "source interval size must be nonzero"
        );
        Self {
            dst_interval_size,
            src_interval_size,
        }
    }

    /// Derives interval sizes from on-chip buffer capacities, mirroring the
    /// paper: the source interval (shard height) is the number of feature
    /// vectors that fit in the Input Buffer; the destination interval (shard
    /// width) is the number of partial aggregation vectors that fit in one
    /// ping-pong half of the Aggregation Buffer.
    ///
    /// `bytes_per_element` is 4 for the 32-bit fixed-point datapath.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidParameter`] if either buffer is too
    /// small to hold a single feature vector.
    pub fn from_buffer_bytes(
        input_buffer_bytes: usize,
        aggregation_buffer_bytes: usize,
        feature_len: usize,
        bytes_per_element: usize,
    ) -> Result<Self, GraphError> {
        let vec_bytes = feature_len.max(1) * bytes_per_element;
        let src = input_buffer_bytes / vec_bytes;
        // Ping-pong: only half the Aggregation Buffer holds one chunk.
        let dst = (aggregation_buffer_bytes / 2) / vec_bytes;
        if src == 0 || dst == 0 {
            return Err(GraphError::InvalidParameter(format!(
                "buffers too small: input holds {src} vectors, aggregation holds {dst} vectors \
                 of {vec_bytes} bytes"
            )));
        }
        Ok(Self::new(dst, src))
    }

    /// Destination interval size (shard width, vertices).
    pub fn dst_interval_size(&self) -> usize {
        self.dst_interval_size
    }

    /// Source interval size (shard height, vertices).
    pub fn src_interval_size(&self) -> usize {
        self.src_interval_size
    }

    /// Splits `graph` into the interval grid.
    pub fn partition(&self, graph: &Graph) -> Partition {
        let n = graph.num_vertices() as VertexId;
        Partition {
            dst_intervals: split(n, self.dst_interval_size),
            src_intervals: split(n, self.src_interval_size),
        }
    }
}

fn split(n: VertexId, size: usize) -> Vec<Interval> {
    let size = size as VertexId;
    let mut out = Vec::new();
    let mut start = 0;
    while start < n {
        let end = (start + size).min(n);
        out.push(Interval::new(start, end));
        start = end;
    }
    out
}

/// The interval grid produced by [`PartitionSpec::partition`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    dst_intervals: Vec<Interval>,
    src_intervals: Vec<Interval>,
}

impl Partition {
    /// Destination intervals `I_1..I_p` (columns of the shard grid).
    pub fn dst_intervals(&self) -> &[Interval] {
        &self.dst_intervals
    }

    /// Source intervals (rows of the shard grid).
    pub fn src_intervals(&self) -> &[Interval] {
        &self.src_intervals
    }

    /// Number of destination intervals.
    pub fn num_dst_intervals(&self) -> usize {
        self.dst_intervals.len()
    }

    /// Number of source intervals.
    pub fn num_src_intervals(&self) -> usize {
        self.src_intervals.len()
    }

    /// Number of edges in shard `(i, j)`: destinations in `dst_intervals[i]`,
    /// sources in `src_intervals[j]`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn shard_edge_count(&self, graph: &Graph, i: usize, j: usize) -> usize {
        let di = self.dst_intervals[i];
        let sj = self.src_intervals[j];
        di.iter()
            .map(|dst| graph.csc().sources_in_range(dst, sj.start, sj.end).len())
            .sum()
    }

    /// Visits every `(src, dst)` edge of shard `(i, j)` in destination-major
    /// order — the order the Aggregation Engine's eSched issues work.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn for_each_shard_edge(
        &self,
        graph: &Graph,
        i: usize,
        j: usize,
        mut f: impl FnMut(VertexId, VertexId),
    ) {
        let di = self.dst_intervals[i];
        let sj = self.src_intervals[j];
        for dst in di.iter() {
            for &src in graph.csc().sources_in_range(dst, sj.start, sj.end) {
                f(src, dst);
            }
        }
    }

    /// Total edges summed over all shards — must equal `graph.num_edges()`.
    pub fn total_edges(&self, graph: &Graph) -> usize {
        (0..self.num_dst_intervals())
            .map(|i| {
                (0..self.num_src_intervals())
                    .map(|j| self.shard_edge_count(graph, i, j))
                    .sum::<usize>()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn grid_graph() -> Graph {
        // 16 vertices in a ring.
        let mut b = GraphBuilder::new(16).feature_len(4);
        for v in 0..16u32 {
            b = b.undirected_edge(v, (v + 1) % 16).unwrap();
        }
        b.build()
    }

    #[test]
    fn split_covers_all_vertices() {
        let g = grid_graph();
        let p = PartitionSpec::new(4, 4).partition(&g);
        assert_eq!(p.num_dst_intervals(), 4);
        assert_eq!(p.num_src_intervals(), 4);
        let covered: usize = p.dst_intervals().iter().map(Interval::len).sum();
        assert_eq!(covered, 16);
    }

    #[test]
    fn uneven_split_has_short_tail() {
        let g = grid_graph();
        let p = PartitionSpec::new(5, 7).partition(&g);
        assert_eq!(p.num_dst_intervals(), 4);
        assert_eq!(p.dst_intervals()[3].len(), 1);
        assert_eq!(p.num_src_intervals(), 3);
        assert_eq!(p.src_intervals()[2].len(), 2);
    }

    #[test]
    fn shards_partition_every_edge() {
        let g = grid_graph();
        for (d, s) in [(4, 4), (3, 5), (16, 1), (1, 16)] {
            let p = PartitionSpec::new(d, s).partition(&g);
            assert_eq!(p.total_edges(&g), g.num_edges(), "spec ({d},{s})");
        }
    }

    #[test]
    fn shard_edges_respect_ranges() {
        let g = grid_graph();
        let p = PartitionSpec::new(4, 4).partition(&g);
        p.for_each_shard_edge(&g, 1, 0, |src, dst| {
            assert!((4..8).contains(&dst));
            assert!((0..4).contains(&src));
        });
    }

    #[test]
    fn from_buffer_bytes_matches_paper_rule() {
        // 128 KB input buffer, 16 MB aggregation buffer, 128-element features.
        let spec = PartitionSpec::from_buffer_bytes(128 << 10, 16 << 20, 128, 4).unwrap();
        assert_eq!(spec.src_interval_size(), (128 << 10) / (128 * 4));
        assert_eq!(spec.dst_interval_size(), (8 << 20) / (128 * 4));
    }

    #[test]
    fn from_buffer_bytes_rejects_tiny_buffers() {
        assert!(PartitionSpec::from_buffer_bytes(64, 1 << 20, 1024, 4).is_err());
    }

    #[test]
    fn interval_contains() {
        let i = Interval::new(3, 7);
        assert!(i.contains(3));
        assert!(i.contains(6));
        assert!(!i.contains(7));
        assert_eq!(i.len(), 4);
    }

    #[test]
    #[should_panic(expected = "interval start")]
    fn interval_rejects_inverted() {
        let _ = Interval::new(5, 2);
    }
}
