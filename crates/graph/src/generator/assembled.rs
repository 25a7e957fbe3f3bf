//! Assembled multi-graph datasets.
//!
//! IMDB-BIN and COLLAB consist of many small, dense graphs. The paper's
//! protocol (§5.1): "the datasets with more than one graph are tested by
//! assembling randomly selected 128 graphs into a large graph". This
//! generator packs `count` small near-clique communities into one vertex
//! space with no inter-community edges, reproducing the block-diagonal
//! adjacency that makes COLLAB's sparsity elimination so effective
//! (paper §5.2, DRAM-access discussion).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{Coo, Graph, GraphError, VertexId};

/// Generates `count` communities of `community_size` vertices. Inside each
/// community, every vertex connects to `intra_degree` random distinct
/// peers (clipped to the community size), giving dense blocks.
///
/// # Errors
///
/// * [`GraphError::EmptyGraph`] if `count == 0` or `community_size < 2`.
/// * [`GraphError::InvalidParameter`] if `intra_degree == 0`.
pub fn assembled_cliques(
    community_size: usize,
    intra_degree: usize,
    count: usize,
    seed: u64,
) -> Result<Graph, GraphError> {
    if count == 0 || community_size < 2 {
        return Err(GraphError::EmptyGraph);
    }
    if intra_degree == 0 {
        return Err(GraphError::InvalidParameter(
            "intra_degree must be nonzero".into(),
        ));
    }
    let n = community_size * count;
    let mut rng = StdRng::seed_from_u64(seed);
    let degree = intra_degree.min(community_size - 1);
    // At most `degree` undirected edges per vertex, two directed each.
    let mut coo = Coo::with_capacity(n, 2 * n * degree);
    for c in 0..count {
        let base = (c * community_size) as VertexId;
        let size = community_size as VertexId;
        for local in 0..size {
            let v = base + local;
            let mut made = 0;
            let mut guard = 0;
            while made < degree {
                let peer = base + rng.gen_range(0..size);
                guard += 1;
                if peer != v {
                    coo.push_undirected(v, peer)?;
                    made += 1;
                }
                if guard > 32 * degree + 32 {
                    break;
                }
            }
        }
    }
    coo.dedup();
    Ok(Graph::from_coo(&coo, 1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn communities_are_disconnected() {
        let g = assembled_cliques(10, 4, 5, 1).unwrap();
        assert_eq!(g.num_vertices(), 50);
        for v in 0..50u32 {
            let block = v / 10;
            for &u in g.in_neighbors(v) {
                assert_eq!(u / 10, block, "edge ({u},{v}) crosses communities");
            }
        }
    }

    #[test]
    fn blocks_are_dense() {
        let g = assembled_cliques(8, 5, 3, 2).unwrap();
        for v in 0..24u32 {
            assert!(g.in_degree(v) >= 3, "vertex {v} degree {}", g.in_degree(v));
        }
    }

    #[test]
    fn degree_clipped_to_community() {
        // intra_degree larger than the community: must not loop forever.
        let g = assembled_cliques(4, 100, 2, 3).unwrap();
        for v in 0..8u32 {
            assert!(g.in_degree(v) <= 3);
        }
    }

    #[test]
    fn rejects_empty() {
        assert!(assembled_cliques(10, 2, 0, 0).is_err());
        assert!(assembled_cliques(1, 2, 3, 0).is_err());
        assert!(assembled_cliques(10, 0, 3, 0).is_err());
    }

    #[test]
    fn deterministic() {
        let a = assembled_cliques(12, 3, 4, 7).unwrap();
        let b = assembled_cliques(12, 3, 4, 7).unwrap();
        assert_eq!(a, b);
    }
}
