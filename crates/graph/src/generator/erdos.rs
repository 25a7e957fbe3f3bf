//! Erdős–Rényi G(n, m) generator.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

use crate::{Coo, Graph, GraphError, VertexId};

/// Generates an undirected Erdős–Rényi graph with exactly `num_edges`
/// distinct undirected edges (stored as `2 * num_edges` directed edges).
///
/// # Errors
///
/// * [`GraphError::EmptyGraph`] if `num_vertices < 2`.
/// * [`GraphError::TooManyEdges`] if `num_edges > n*(n-1)/2`.
pub fn erdos_renyi(num_vertices: usize, num_edges: usize, seed: u64) -> Result<Graph, GraphError> {
    if num_vertices < 2 {
        return Err(GraphError::EmptyGraph);
    }
    let capacity = num_vertices * (num_vertices - 1) / 2;
    if num_edges > capacity {
        return Err(GraphError::TooManyEdges {
            requested: num_edges,
            capacity,
        });
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut seen: BTreeSet<(VertexId, VertexId)> = BTreeSet::new();
    let mut coo = Coo::with_capacity(num_vertices, 2 * num_edges);
    let n = num_vertices as VertexId;
    while seen.len() < num_edges {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        if a == b {
            continue;
        }
        let key = (a.min(b), a.max(b));
        if seen.insert(key) {
            coo.push_undirected(a, b)?;
        }
    }
    Ok(Graph::from_coo(&coo, 1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_edge_count() {
        let g = erdos_renyi(50, 100, 3).unwrap();
        assert_eq!(g.num_edges(), 200);
    }

    #[test]
    fn symmetric() {
        let g = erdos_renyi(30, 60, 5).unwrap();
        for v in 0..30 {
            for &u in g.in_neighbors(v) {
                assert!(g.in_neighbors(u).contains(&v));
            }
        }
    }

    #[test]
    fn no_self_loops() {
        let g = erdos_renyi(20, 50, 7).unwrap();
        for v in 0..20 {
            assert!(!g.in_neighbors(v).contains(&v));
        }
    }

    #[test]
    fn rejects_overfull() {
        assert!(matches!(
            erdos_renyi(4, 7, 0),
            Err(GraphError::TooManyEdges { .. })
        ));
    }

    #[test]
    fn rejects_trivial() {
        assert!(matches!(erdos_renyi(1, 0, 0), Err(GraphError::EmptyGraph)));
    }

    #[test]
    fn deterministic() {
        let a = erdos_renyi(40, 80, 11).unwrap();
        let b = erdos_renyi(40, 80, 11).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn complete_graph_possible() {
        let g = erdos_renyi(5, 10, 1).unwrap();
        assert_eq!(g.num_edges(), 20);
        for v in 0..5 {
            assert_eq!(g.in_degree(v), 4);
        }
    }
}
