//! Uniform neighbor sampling (paper Eq. 2, `S(v) = Sample(N(v))`).
//!
//! GraphSage samples a fixed-size subset of each vertex's neighbors
//! (25 in Table 5); the scalability study of Fig. 18(a–c) instead sweeps a
//! *sampling factor* `f`, keeping `|N(v)|/f` neighbors. Both policies are
//! expressed by [`SamplePolicy`]. Sampling runs on the Aggregation Engine's
//! Sampler at runtime in HyGCN, and as a preprocessing pass on CPU/GPU —
//! the simulator and baselines account for it accordingly.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::{Coo, Graph, VertexId};

/// Which neighbors of each vertex survive sampling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SamplePolicy {
    /// Keep all neighbors (no sampling).
    All,
    /// Keep at most `n` uniformly chosen neighbors (GraphSage-style).
    MaxNeighbors(usize),
    /// Keep `ceil(|N(v)| / f)` uniformly chosen neighbors (Fig. 18 sweep).
    Factor(usize),
    /// Keep every `stride`-th neighbor of the sorted edge list — the
    /// paper's "predefined distribution in terms of index interval"
    /// (§4.2), which needs no runtime randomness and whose indices "can
    /// be read from off-chip memory".
    Strided(usize),
}

impl SamplePolicy {
    /// Number of neighbors retained for a vertex of degree `d`.
    pub fn sample_size(&self, d: usize) -> usize {
        match *self {
            SamplePolicy::All => d,
            SamplePolicy::MaxNeighbors(n) => d.min(n),
            SamplePolicy::Factor(f) | SamplePolicy::Strided(f) => {
                if f <= 1 {
                    d
                } else {
                    d.div_ceil(f)
                }
            }
        }
    }

    /// Whether this policy can drop edges.
    pub fn is_sampling(&self) -> bool {
        match *self {
            SamplePolicy::All => false,
            SamplePolicy::MaxNeighbors(_) => true,
            SamplePolicy::Factor(f) | SamplePolicy::Strided(f) => f > 1,
        }
    }
}

/// Deterministic uniform neighbor sampler.
///
/// ```
/// use hygcn_graph::{GraphBuilder, sampling::{Sampler, SamplePolicy}};
///
/// # fn main() -> Result<(), hygcn_graph::GraphError> {
/// let g = GraphBuilder::new(5)
///     .undirected_edge(0, 1)?
///     .undirected_edge(0, 2)?
///     .undirected_edge(0, 3)?
///     .undirected_edge(0, 4)?
///     .build();
/// let sampled = Sampler::new(7).sample(&g, SamplePolicy::MaxNeighbors(2));
/// assert_eq!(sampled.in_neighbors(0).len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Sampler {
    seed: u64,
}

impl Sampler {
    /// Creates a sampler with a fixed RNG seed for reproducible runs.
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }

    /// Produces the sampled graph: each destination keeps a uniform subset
    /// of its in-neighbors according to `policy`. Feature length and name
    /// carry over.
    pub fn sample(&self, graph: &Graph, policy: SamplePolicy) -> Graph {
        if !policy.is_sampling() {
            return graph.clone();
        }
        let mut rng = StdRng::seed_from_u64(self.seed);
        let kept = self.sampled_edge_count(graph, policy);
        let mut coo = Coo::with_capacity(graph.num_vertices(), kept);
        let mut scratch: Vec<VertexId> = Vec::new();
        for dst in 0..graph.num_vertices() as VertexId {
            let neighbors = graph.in_neighbors(dst);
            let keep = policy.sample_size(neighbors.len());
            if keep >= neighbors.len() {
                for &src in neighbors {
                    coo.push(src, dst)
                        // lint: allow(unwrap) -- src/dst are neighbor ids of the input graph, in range by construction
                        .expect("vertex ids come from a valid graph");
                }
            } else if let SamplePolicy::Strided(stride) = policy {
                for &src in neighbors.iter().step_by(stride.max(1)) {
                    coo.push(src, dst)
                        // lint: allow(unwrap) -- src/dst are neighbor ids of the input graph, in range by construction
                        .expect("vertex ids come from a valid graph");
                }
            } else {
                scratch.clear();
                scratch.extend_from_slice(neighbors);
                let (kept, _) = scratch.partial_shuffle(&mut rng, keep);
                for &src in kept.iter() {
                    coo.push(src, dst)
                        // lint: allow(unwrap) -- src/dst are neighbor ids of the input graph, in range by construction
                        .expect("vertex ids come from a valid graph");
                }
            }
        }
        Graph::from_coo(&coo, graph.feature_len()).with_name(graph.name())
    }

    /// Total edges that survive sampling, without materializing the graph.
    pub fn sampled_edge_count(&self, graph: &Graph, policy: SamplePolicy) -> usize {
        (0..graph.num_vertices() as VertexId)
            .map(|v| policy.sample_size(graph.in_degree(v)))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn star(center_degree: usize) -> Graph {
        let mut b = GraphBuilder::new(center_degree + 1);
        for v in 1..=center_degree as VertexId {
            b = b.edge(v, 0).unwrap();
        }
        b.build()
    }

    #[test]
    fn all_policy_is_identity() {
        let g = star(10);
        let s = Sampler::new(1).sample(&g, SamplePolicy::All);
        assert_eq!(s.num_edges(), g.num_edges());
    }

    #[test]
    fn max_neighbors_caps_degree() {
        let g = star(10);
        let s = Sampler::new(1).sample(&g, SamplePolicy::MaxNeighbors(3));
        assert_eq!(s.in_degree(0), 3);
        // Sampled neighbors are a subset of the originals.
        for &src in s.in_neighbors(0) {
            assert!(g.in_neighbors(0).contains(&src));
        }
    }

    #[test]
    fn factor_keeps_ceil_fraction() {
        let g = star(10);
        let s = Sampler::new(1).sample(&g, SamplePolicy::Factor(4));
        assert_eq!(s.in_degree(0), 3); // ceil(10/4)
    }

    #[test]
    fn factor_one_is_identity() {
        let g = star(5);
        let s = Sampler::new(1).sample(&g, SamplePolicy::Factor(1));
        assert_eq!(s.num_edges(), g.num_edges());
    }

    #[test]
    fn deterministic_for_same_seed() {
        let g = star(20);
        let a = Sampler::new(42).sample(&g, SamplePolicy::MaxNeighbors(5));
        let b = Sampler::new(42).sample(&g, SamplePolicy::MaxNeighbors(5));
        assert_eq!(a.in_neighbors(0), b.in_neighbors(0));
    }

    #[test]
    fn different_seeds_usually_differ() {
        let g = star(20);
        let a = Sampler::new(1).sample(&g, SamplePolicy::MaxNeighbors(5));
        let b = Sampler::new(2).sample(&g, SamplePolicy::MaxNeighbors(5));
        // Not guaranteed in principle, but astronomically likely.
        assert_ne!(a.in_neighbors(0), b.in_neighbors(0));
    }

    #[test]
    fn sampled_edge_count_matches_materialized() {
        let g = star(13);
        let sampler = Sampler::new(9);
        let policy = SamplePolicy::Factor(2);
        assert_eq!(
            sampler.sampled_edge_count(&g, policy),
            sampler.sample(&g, policy).num_edges()
        );
    }

    #[test]
    fn sample_size_edge_cases() {
        assert_eq!(SamplePolicy::Factor(0).sample_size(7), 7);
        assert_eq!(SamplePolicy::Factor(16).sample_size(7), 1);
        assert_eq!(SamplePolicy::MaxNeighbors(0).sample_size(7), 0);
        assert_eq!(SamplePolicy::All.sample_size(7), 7);
        assert_eq!(SamplePolicy::Strided(2).sample_size(7), 4);
    }

    #[test]
    fn strided_takes_every_kth_neighbor() {
        let g = star(10);
        let s = Sampler::new(1).sample(&g, SamplePolicy::Strided(3));
        // Sorted neighbors 1..=10: strided keeps indices 0, 3, 6, 9.
        assert_eq!(s.in_neighbors(0), &[1, 4, 7, 10]);
    }

    #[test]
    fn strided_is_seed_independent() {
        let g = star(20);
        let a = Sampler::new(1).sample(&g, SamplePolicy::Strided(4));
        let b = Sampler::new(999).sample(&g, SamplePolicy::Strided(4));
        assert_eq!(a, b);
    }

    #[test]
    fn strided_one_is_identity() {
        let g = star(6);
        let s = Sampler::new(3).sample(&g, SamplePolicy::Strided(1));
        assert_eq!(s.num_edges(), g.num_edges());
        assert!(!SamplePolicy::Strided(1).is_sampling());
    }
}
