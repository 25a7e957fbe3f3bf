//! Community-structured power-law generator.
//!
//! Citation networks (Cora, Citeseer, Pubmed) combine two properties that
//! matter to HyGCN: heavy-tailed degrees *and* strong community locality —
//! most of a paper's citations stay inside its research area. The
//! community locality is what makes window sliding+shrinking effective
//! (Fig. 15): a destination interval's sources concentrate in a few id
//! ranges, so most windows slide past empty regions.
//!
//! This generator runs preferential attachment *within* contiguous
//! id-blocks (communities) and rewires a small fraction of edges
//! uniformly across the whole graph (inter-area citations).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{Coo, Graph, GraphError, VertexId};

/// Generates an undirected community-structured power-law graph:
/// `num_communities` contiguous blocks, preferential attachment with
/// `edges_per_vertex` inside each block, and each edge rewired to a
/// uniform global target with probability `cross_fraction`.
///
/// # Errors
///
/// * [`GraphError::EmptyGraph`] if `num_vertices < 2` or no communities.
/// * [`GraphError::InvalidParameter`] if `edges_per_vertex == 0` or
///   `cross_fraction` is outside `[0, 1]`.
pub fn community_powerlaw(
    num_vertices: usize,
    edges_per_vertex: usize,
    num_communities: usize,
    cross_fraction: f64,
    seed: u64,
) -> Result<Graph, GraphError> {
    if num_vertices < 2 || num_communities == 0 {
        return Err(GraphError::EmptyGraph);
    }
    if edges_per_vertex == 0 {
        return Err(GraphError::InvalidParameter(
            "edges_per_vertex must be nonzero".into(),
        ));
    }
    if !(0.0..=1.0).contains(&cross_fraction) {
        return Err(GraphError::InvalidParameter(format!(
            "cross_fraction must be in [0, 1], got {cross_fraction}"
        )));
    }
    let num_communities = num_communities.min(num_vertices / 2).max(1);
    let block = num_vertices.div_ceil(num_communities);

    let mut rng = StdRng::seed_from_u64(seed);
    // A vertex places at most `min(edges_per_vertex, block - 1)`
    // undirected edges, two directed each.
    let bound = num_vertices * edges_per_vertex.min(block - 1);
    let mut coo = Coo::with_capacity(num_vertices, 2 * bound);
    let n = num_vertices as VertexId;

    let mut base = 0usize;
    while base < num_vertices {
        let size = block.min(num_vertices - base);
        // Degree-proportional endpoint pool for this community.
        let mut endpoints: Vec<VertexId> = vec![base as VertexId];
        for local in 1..size {
            let v = (base + local) as VertexId;
            let m = edges_per_vertex.min(local);
            let mut made = 0;
            let mut guard = 0;
            while made < m {
                guard += 1;
                let t = if rng.gen_bool(cross_fraction) {
                    // Inter-community citation: uniform global target.
                    rng.gen_range(0..n)
                } else {
                    endpoints[rng.gen_range(0..endpoints.len())]
                };
                if t != v {
                    coo.push_undirected(v, t)?;
                    endpoints.push(v);
                    if (t as usize) >= base && (t as usize) < base + size {
                        endpoints.push(t);
                    }
                    made += 1;
                }
                if guard > 64 * m + 64 {
                    break;
                }
            }
        }
        base += size;
    }
    coo.dedup();
    Ok(Graph::from_coo(&coo, 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::DegreeStats;

    #[test]
    fn sizes_and_determinism() {
        let a = community_powerlaw(1000, 2, 8, 0.1, 3).unwrap();
        let b = community_powerlaw(1000, 2, 8, 0.1, 3).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.num_vertices(), 1000);
        assert!(a.num_edges() > 1500);
    }

    #[test]
    fn degrees_are_skewed() {
        let g = community_powerlaw(2000, 2, 10, 0.05, 5).unwrap();
        let s = DegreeStats::of(&g);
        assert!(s.max as f64 > 3.0 * s.mean, "max {} mean {}", s.max, s.mean);
    }

    #[test]
    fn most_edges_stay_in_community() {
        let n = 1024;
        let blocks = 8;
        let g = community_powerlaw(n, 3, blocks, 0.1, 7).unwrap();
        let block = n / blocks;
        let mut intra = 0usize;
        let mut total = 0usize;
        for (s, d) in g.edges() {
            total += 1;
            if (s as usize) / block == (d as usize) / block {
                intra += 1;
            }
        }
        let frac = intra as f64 / total as f64;
        assert!(frac > 0.75, "intra-community fraction {frac}");
    }

    #[test]
    fn cross_fraction_one_is_global() {
        let g = community_powerlaw(256, 2, 8, 1.0, 9).unwrap();
        // With full rewiring, edges should spread across blocks.
        let mut cross = 0usize;
        let mut total = 0usize;
        for (s, d) in g.edges() {
            total += 1;
            if (s as usize) / 32 != (d as usize) / 32 {
                cross += 1;
            }
        }
        assert!(cross as f64 / total as f64 > 0.5);
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(community_powerlaw(1, 2, 4, 0.1, 0).is_err());
        assert!(community_powerlaw(100, 0, 4, 0.1, 0).is_err());
        assert!(community_powerlaw(100, 2, 0, 0.1, 0).is_err());
        assert!(community_powerlaw(100, 2, 4, 1.5, 0).is_err());
    }

    #[test]
    fn loop_free_and_symmetric() {
        let g = community_powerlaw(300, 2, 6, 0.2, 11).unwrap();
        for v in 0..300u32 {
            assert!(!g.in_neighbors(v).contains(&v));
            for &u in g.in_neighbors(v) {
                assert!(g.in_neighbors(u).contains(&v));
            }
        }
    }
}
