//! Vertex intervals (paper §4.3.2, Fig. 5(a)/(b)).
//!
//! Destination vertices are grouped into *intervals* `I_i`; the edges whose
//! destinations fall in `I_i` and whose sources fall in `I_j` form the
//! *shard* `S(i, j)`. Processing shard-by-shard merges the feature accesses
//! of all vertices in an interval so that (1) loaded source features are
//! reused across the interval's overlapping neighborhoods, and (2) the
//! interval's partial aggregation results stay resident on chip.
//!
//! The simulator's schedule (`hygcn_core::schedule::EventSchedule`) cuts
//! the destinations into intervals sized to the Aggregation Buffer, and
//! [`crate::window::WindowPlanner`] finds each interval's effectual source
//! windows. Because the adjacency is CSC with sorted columns, no
//! preprocessing pass is needed.

use crate::VertexId;

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

#[cfg(test)]
mod tests {
    use super::*;

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
