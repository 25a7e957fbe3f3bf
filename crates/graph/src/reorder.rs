//! Vertex reordering (relabeling).
//!
//! The effectiveness of HyGCN's window sliding+shrinking depends on how
//! a destination interval's sources cluster in the id space. Real
//! datasets arrive with community-correlated ids; adversarial or random
//! orderings destroy that locality. This module provides the standard
//! relabelings used to study (and repair) that sensitivity:
//!
//! * [`Ordering::Degree`] — hubs first; concentrates the heavy rows.
//! * [`Ordering::Bfs`] — breadth-first labeling from the highest-degree
//!   vertex; the classic locality-recovering reorder.
//! * [`Ordering::Random`] — the adversarial control.
//!
//! `reorder` returns both the relabeled graph and the permutation, so
//! callers can map features and results back.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::VecDeque;

use crate::{Coo, Graph, VertexId};

/// Relabeling strategies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ordering {
    /// Descending degree (hub clustering).
    Degree,
    /// BFS from the highest-degree vertex, unvisited components appended
    /// by degree.
    Bfs,
    /// Uniform random permutation (seeded).
    Random(u64),
}

/// The result of a relabeling: the new graph and the permutation
/// `perm[old] = new`.
#[derive(Debug, Clone, PartialEq)]
pub struct Reordered {
    /// The relabeled graph (same feature length and name).
    pub graph: Graph,
    /// `perm[old_id] = new_id`.
    pub perm: Vec<VertexId>,
}

/// Relabels `graph` under `ordering`.
pub fn reorder(graph: &Graph, ordering: Ordering) -> Reordered {
    let n = graph.num_vertices();
    let order: Vec<VertexId> = match ordering {
        Ordering::Degree => {
            let mut ids: Vec<VertexId> = (0..n as VertexId).collect();
            ids.sort_by_key(|&v| std::cmp::Reverse(graph.in_degree(v)));
            ids
        }
        Ordering::Bfs => bfs_order(graph),
        Ordering::Random(seed) => {
            let mut ids: Vec<VertexId> = (0..n as VertexId).collect();
            ids.shuffle(&mut StdRng::seed_from_u64(seed));
            ids
        }
    };
    // order[rank] = old id; invert into perm[old] = new.
    let mut perm = vec![0 as VertexId; n];
    for (rank, &old) in order.iter().enumerate() {
        perm[old as usize] = rank as VertexId;
    }
    let mut coo = Coo::with_capacity(n, graph.num_edges());
    for (src, dst) in graph.edges() {
        coo.push(perm[src as usize], perm[dst as usize])
            // lint: allow(unwrap) -- perm is a bijection on 0..n, so pushed ids stay in range
            .expect("permutation stays in range");
    }
    coo.dedup();
    let g = Graph::from_coo(&coo, graph.feature_len()).with_name(graph.name());
    Reordered { graph: g, perm }
}

fn bfs_order(graph: &Graph) -> Vec<VertexId> {
    let n = graph.num_vertices();
    let mut seeds: Vec<VertexId> = (0..n as VertexId).collect();
    seeds.sort_by_key(|&v| std::cmp::Reverse(graph.in_degree(v)));
    let mut visited = vec![false; n];
    let mut order = Vec::with_capacity(n);
    let mut queue = VecDeque::new();
    for &seed in &seeds {
        if visited[seed as usize] {
            continue;
        }
        visited[seed as usize] = true;
        queue.push_back(seed);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            for &u in graph.in_neighbors(v) {
                if !visited[u as usize] {
                    visited[u as usize] = true;
                    queue.push_back(u);
                }
            }
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::community_powerlaw;
    use crate::partition::Interval;
    use crate::window::WindowPlanner;
    use crate::GraphBuilder;

    fn sample() -> Graph {
        community_powerlaw(512, 3, 8, 0.1, 7)
            .unwrap()
            .with_feature_len(16)
    }

    #[test]
    fn reorder_preserves_structure() {
        let g = sample();
        for ord in [Ordering::Degree, Ordering::Bfs, Ordering::Random(3)] {
            let r = reorder(&g, ord);
            assert_eq!(r.graph.num_vertices(), g.num_vertices());
            assert_eq!(r.graph.num_edges(), g.num_edges());
            // Degrees are preserved under the permutation.
            for old in 0..g.num_vertices() as u32 {
                let new = r.perm[old as usize];
                assert_eq!(
                    g.in_degree(old),
                    r.graph.in_degree(new),
                    "{ord:?} vertex {old}"
                );
            }
        }
    }

    #[test]
    fn perm_is_a_permutation() {
        let g = sample();
        let r = reorder(&g, Ordering::Random(9));
        let mut seen = vec![false; g.num_vertices()];
        for &p in &r.perm {
            assert!(!seen[p as usize]);
            seen[p as usize] = true;
        }
        assert!(seen.into_iter().all(|b| b));
    }

    #[test]
    fn degree_order_puts_hubs_first() {
        let g = sample();
        let r = reorder(&g, Ordering::Degree);
        // New id 0 must hold the maximum degree.
        let max_deg = (0..512u32).map(|v| g.in_degree(v)).max().unwrap();
        assert_eq!(r.graph.in_degree(0), max_deg);
        // Degrees are non-increasing in new id order.
        let degs: Vec<usize> = (0..512u32).map(|v| r.graph.in_degree(v)).collect();
        assert!(degs.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn bfs_covers_all_components() {
        // Two disconnected components.
        let g = GraphBuilder::new(6)
            .undirected_edge(0, 1)
            .unwrap()
            .undirected_edge(3, 4)
            .unwrap()
            .build();
        let order = bfs_order(&g);
        assert_eq!(order.len(), 6);
    }

    #[test]
    fn random_order_destroys_window_locality() {
        // The community graph has good locality; a random relabeling
        // should load strictly more effectual rows.
        let g = sample();
        let shuffled = reorder(&g, Ordering::Random(5)).graph;
        let planner = WindowPlanner::new(16);
        let intervals: Vec<Interval> = (0..4)
            .map(|i| Interval::new(i * 128, (i + 1) * 128))
            .collect();
        let before = planner.stats(&g, &intervals);
        let after = planner.stats(&shuffled, &intervals);
        assert!(
            after.effectual_rows > before.effectual_rows,
            "random {} vs community {}",
            after.effectual_rows,
            before.effectual_rows
        );
    }

    #[test]
    fn bfs_restores_locality_of_shuffled_graph() {
        let g = sample();
        let shuffled = reorder(&g, Ordering::Random(5)).graph;
        let recovered = reorder(&shuffled, Ordering::Bfs).graph;
        let planner = WindowPlanner::new(16);
        let intervals: Vec<Interval> = (0..4)
            .map(|i| Interval::new(i * 128, (i + 1) * 128))
            .collect();
        let shuffled_rows = planner.stats(&shuffled, &intervals).effectual_rows;
        let recovered_rows = planner.stats(&recovered, &intervals).effectual_rows;
        assert!(
            recovered_rows < shuffled_rows,
            "bfs {recovered_rows} vs shuffled {shuffled_rows}"
        );
    }
}
