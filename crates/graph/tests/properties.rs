//! Property-based tests for the graph substrate's core invariants.

use hygcn_graph::partition::{Interval, PartitionSpec};
use hygcn_graph::sampling::{SamplePolicy, Sampler};
use hygcn_graph::window::WindowPlanner;
use hygcn_graph::{Coo, Csc, Graph};
use proptest::prelude::*;

/// Strategy: a random directed edge list over `n <= 48` vertices.
fn arb_graph() -> impl Strategy<Value = Graph> {
    (2usize..48).prop_flat_map(|n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..200).prop_map(move |pairs| {
            let mut coo = Coo::new(n);
            for (s, d) in pairs {
                coo.push(s, d).unwrap();
            }
            coo.dedup();
            Graph::from_coo(&coo, 4)
        })
    })
}

proptest! {
    /// The transpose built from the reversed `edges()` lists each
    /// vertex's out-edges as its in-neighbors, sorted, and transposing
    /// back gives the same CSC.
    #[test]
    fn csc_transpose_agrees_with_edges(g in arb_graph()) {
        let n = g.num_vertices();
        let reversed = Coo::from_pairs(n, g.edges().map(|(s, d)| (d, s))).unwrap();
        let t = Graph::from_coo(&reversed, g.feature_len());
        prop_assert_eq!(t.num_edges(), g.num_edges());
        for v in 0..n as u32 {
            let mut out: Vec<u32> = g.edges().filter(|&(s, _)| s == v).map(|(_, d)| d).collect();
            out.sort_unstable();
            prop_assert_eq!(t.in_neighbors(v), &out[..]);
        }
        let back = Coo::from_pairs(n, t.edges().map(|(s, d)| (d, s))).unwrap();
        prop_assert_eq!(&Csc::from_coo(&back), g.csc());
    }

    /// Every partition covers each edge exactly once, for arbitrary
    /// interval sizes.
    #[test]
    fn partition_is_exact_cover(g in arb_graph(), d in 1usize..20, s in 1usize..20) {
        let p = PartitionSpec::new(d, s).partition(&g);
        prop_assert_eq!(p.total_edges(&g), g.num_edges());
    }

    /// Window planning covers every edge exactly once and never produces a
    /// window taller than the configured height.
    #[test]
    fn windows_cover_edges_exactly(g in arb_graph(), h in 1usize..32, w in 1usize..32) {
        let n = g.num_vertices() as u32;
        let planner = WindowPlanner::new(h);
        let mut covered = 0usize;
        let mut start = 0u32;
        while start < n {
            let end = (start + w as u32).min(n);
            for win in planner.plan(&g, Interval::new(start, end)) {
                prop_assert!(win.rows.len() <= h);
                prop_assert!(win.edge_count >= 1);
                covered += win.edge_count;
            }
            start = end;
        }
        prop_assert_eq!(covered, g.num_edges());
    }

    /// Effectual windows never load more rows than the no-elimination
    /// baseline.
    #[test]
    fn sparsity_elimination_never_hurts(g in arb_graph(), h in 1usize..16) {
        let n = g.num_vertices() as u32;
        let intervals = vec![Interval::new(0, n)];
        let stats = WindowPlanner::new(h).stats(&g, &intervals);
        prop_assert!(stats.effectual_rows <= stats.baseline_rows);
        prop_assert!(stats.reduction() >= 0.0 && stats.reduction() <= 1.0);
    }

    /// Sampling produces a subgraph: every sampled edge exists in the
    /// original, and per-vertex degrees respect the policy.
    #[test]
    fn sampling_is_subgraph(g in arb_graph(), k in 1usize..8, seed in 0u64..4) {
        let policy = SamplePolicy::MaxNeighbors(k);
        let s = Sampler::new(seed).sample(&g, policy);
        prop_assert_eq!(s.num_vertices(), g.num_vertices());
        for v in 0..g.num_vertices() as u32 {
            let sn = s.in_neighbors(v);
            prop_assert!(sn.len() <= policy.sample_size(g.in_degree(v)));
            for &u in sn {
                prop_assert!(g.in_neighbors(v).contains(&u));
            }
        }
    }

    /// Factor-based sampling monotonically reduces edges as the factor
    /// grows.
    #[test]
    fn sampling_factor_monotone(g in arb_graph(), seed in 0u64..4) {
        let sampler = Sampler::new(seed);
        let mut last = usize::MAX;
        for f in [1usize, 2, 4, 8, 16] {
            let count = sampler.sampled_edge_count(&g, SamplePolicy::Factor(f));
            prop_assert!(count <= last);
            last = count;
        }
    }

    /// Round trip: rebuilding from the edge iterator yields the same graph.
    #[test]
    fn edge_iterator_roundtrip(g in arb_graph()) {
        let coo = Coo::from_pairs(g.num_vertices(), g.edges()).unwrap();
        let rebuilt = Graph::from_coo(&coo, g.feature_len());
        prop_assert_eq!(rebuilt.csc(), g.csc());
    }

    /// CSC construction is insensitive to input edge order.
    #[test]
    fn construction_order_insensitive(g in arb_graph(), seed in 0u64..4) {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut pairs: Vec<_> = g.edges().collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        pairs.shuffle(&mut rng);
        let coo = Coo::from_pairs(g.num_vertices(), pairs).unwrap();
        prop_assert_eq!(&Csc::from_coo(&coo), g.csc());
    }
}
