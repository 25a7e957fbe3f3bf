//! Barabási–Albert preferential attachment generator.
//!
//! Produces the heavy-tailed degree distributions characteristic of
//! citation graphs (Cora, Citeseer, Pubmed): a few hub vertices with very
//! high degree and many leaves, which is exactly the irregularity the
//! Aggregation Engine has to absorb.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{Coo, Graph, GraphError, VertexId};

/// Generates an undirected preferential-attachment graph: vertices arrive
/// one at a time and connect to `edges_per_vertex` existing vertices chosen
/// proportionally to their current degree.
///
/// # Errors
///
/// * [`GraphError::EmptyGraph`] if `num_vertices < 2`.
/// * [`GraphError::InvalidParameter`] if `edges_per_vertex == 0`.
pub fn preferential_attachment(
    num_vertices: usize,
    edges_per_vertex: usize,
    seed: u64,
) -> Result<Graph, GraphError> {
    if num_vertices < 2 {
        return Err(GraphError::EmptyGraph);
    }
    if edges_per_vertex == 0 {
        return Err(GraphError::InvalidParameter(
            "edges_per_vertex must be nonzero".into(),
        ));
    }
    let mut rng = StdRng::seed_from_u64(seed);
    // Vertex `v` places exactly `min(edges_per_vertex, v)` undirected
    // edges, two directed each.
    let edges: usize = (1..num_vertices).map(|v| edges_per_vertex.min(v)).sum();
    let mut coo = Coo::with_capacity(num_vertices, 2 * edges);
    // `endpoints` holds each edge endpoint once; sampling a uniform element
    // of it is degree-proportional sampling.
    let mut endpoints: Vec<VertexId> = vec![0];
    for v in 1..num_vertices as VertexId {
        let m = edges_per_vertex.min(v as usize);
        let mut chosen: Vec<VertexId> = Vec::with_capacity(m);
        // Rejection-sample distinct targets; for small m this terminates
        // quickly even on hub-heavy lists.
        let mut guard = 0;
        while chosen.len() < m {
            let t = if endpoints.is_empty() {
                0
            } else {
                endpoints[rng.gen_range(0..endpoints.len())]
            };
            if t != v && !chosen.contains(&t) {
                chosen.push(t);
            }
            guard += 1;
            if guard > 64 * m + 64 {
                // Fall back to a uniform unused vertex to guarantee progress.
                let t = rng.gen_range(0..v);
                if !chosen.contains(&t) {
                    chosen.push(t);
                }
            }
        }
        for t in chosen {
            coo.push_undirected(v, t)?;
            endpoints.push(v);
            endpoints.push(t);
        }
    }
    Ok(Graph::from_coo(&coo, 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::DegreeStats;

    #[test]
    fn vertex_and_edge_counts() {
        let g = preferential_attachment(200, 2, 1).unwrap();
        assert_eq!(g.num_vertices(), 200);
        // (n - 1 - ramp) vertices contribute `m` undirected edges; the ramp
        // vertices contribute fewer. Directed count is twice the sum.
        assert!(g.num_edges() >= 2 * (200 - 2) * 2);
    }

    #[test]
    fn degree_distribution_is_skewed() {
        let g = preferential_attachment(500, 2, 7).unwrap();
        let stats = DegreeStats::of(&g);
        // Hubs should far exceed the mean for preferential attachment.
        assert!(
            stats.max as f64 > 4.0 * stats.mean,
            "max {} mean {}",
            stats.max,
            stats.mean
        );
    }

    #[test]
    fn symmetric_and_loop_free() {
        let g = preferential_attachment(100, 3, 3).unwrap();
        for v in 0..100 {
            assert!(!g.in_neighbors(v).contains(&v));
            for &u in g.in_neighbors(v) {
                assert!(g.in_neighbors(u).contains(&v));
            }
        }
    }

    #[test]
    fn deterministic() {
        let a = preferential_attachment(80, 2, 5).unwrap();
        let b = preferential_attachment(80, 2, 5).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn rejects_zero_m() {
        assert!(preferential_attachment(10, 0, 1).is_err());
    }
}
