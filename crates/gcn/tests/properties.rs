//! Property-based tests for GCN operator semantics.

use hygcn_gcn::aggregate::{aggregate_all, Aggregator, SelfTerm};
use hygcn_gcn::model::{GcnModel, ModelKind};
use hygcn_gcn::readout::{concat_readout, mean_readout, sum_readout};
use hygcn_gcn::reference::ReferenceExecutor;
use hygcn_gcn::workload::LayerWorkload;
use hygcn_graph::{Coo, Graph};
use hygcn_tensor::Matrix;
use proptest::prelude::*;

fn arb_graph() -> impl Strategy<Value = Graph> {
    (3usize..24).prop_flat_map(|n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..80).prop_map(move |pairs| {
            let mut coo = Coo::new(n);
            for (a, b) in pairs {
                if a != b {
                    coo.push_undirected(a, b).expect("ids in range");
                }
            }
            coo.dedup();
            Graph::from_coo(&coo, 6)
        })
    })
}

fn arb_features(g: &Graph) -> Matrix {
    Matrix::random(g.num_vertices(), g.feature_len(), 1.0, 99)
}

proptest! {
    /// Add-aggregation is linear in the features.
    #[test]
    fn add_aggregation_linear(g in arb_graph(), scale in -3.0f32..3.0) {
        let x = arb_features(&g);
        let mut scaled = x.clone();
        for r in 0..scaled.rows() {
            for v in scaled.row_mut(r) {
                *v *= scale;
            }
        }
        let base = aggregate_all(&g, &x, Aggregator::Add, SelfTerm::None);
        let out = aggregate_all(&g, &scaled, Aggregator::Add, SelfTerm::None);
        for r in 0..base.rows() {
            for c in 0..base.cols() {
                let want = base[(r, c)] * scale;
                prop_assert!((out[(r, c)] - want).abs() < 1e-3 * (1.0 + want.abs()));
            }
        }
    }

    /// Min ≤ Mean ≤ Max element-wise, wherever a vertex has neighbors.
    #[test]
    fn aggregator_ordering(g in arb_graph()) {
        let x = arb_features(&g);
        let mn = aggregate_all(&g, &x, Aggregator::Min, SelfTerm::Include);
        let me = aggregate_all(&g, &x, Aggregator::Mean, SelfTerm::Include);
        let mx = aggregate_all(&g, &x, Aggregator::Max, SelfTerm::Include);
        for r in 0..x.rows() {
            for c in 0..x.cols() {
                prop_assert!(mn[(r, c)] <= me[(r, c)] + 1e-4);
                prop_assert!(me[(r, c)] <= mx[(r, c)] + 1e-4);
            }
        }
    }

    /// Max aggregation with self-inclusion dominates the self feature.
    #[test]
    fn max_dominates_self(g in arb_graph()) {
        let x = arb_features(&g);
        let mx = aggregate_all(&g, &x, Aggregator::Max, SelfTerm::Include);
        for r in 0..x.rows() {
            for c in 0..x.cols() {
                prop_assert!(mx[(r, c)] >= x[(r, c)] - 1e-6);
            }
        }
    }

    /// Sum readout is permutation-invariant over vertices.
    #[test]
    fn readout_permutation_invariant(g in arb_graph(), seed in 0u64..8) {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let x = arb_features(&g);
        let direct = sum_readout(&x);
        let mut order: Vec<usize> = (0..x.rows()).collect();
        order.shuffle(&mut rand::rngs::StdRng::seed_from_u64(seed));
        let mut shuffled = Matrix::zeros(x.rows(), x.cols());
        for (dst, &src) in order.iter().enumerate() {
            shuffled.set_row(dst, x.row(src));
        }
        let permuted = sum_readout(&shuffled);
        for (a, b) in direct.iter().zip(&permuted) {
            prop_assert!((a - b).abs() < 1e-3 * (1.0 + a.abs()));
        }
    }

    /// Mean readout equals sum/|V|; concat readout stacks iterations.
    #[test]
    fn readout_identities(g in arb_graph()) {
        let x = arb_features(&g);
        let sum = sum_readout(&x);
        let mean = mean_readout(&x);
        for (s, m) in sum.iter().zip(&mean) {
            prop_assert!((s / x.rows() as f32 - m).abs() < 1e-5);
        }
        let cat = concat_readout(&[x.clone(), x.clone()]);
        prop_assert_eq!(cat.len(), 2 * x.cols());
    }

    /// The reference executor's output shape is |V| x 128 for every model
    /// and any graph.
    #[test]
    fn executor_shapes(g in arb_graph(), kind_idx in 0usize..4) {
        let kind = ModelKind::ALL[kind_idx];
        let model = GcnModel::new(kind, g.feature_len(), 5).expect("valid feature length");
        let x = arb_features(&g);
        let out = ReferenceExecutor::new().run(&g, &x, &model).expect("valid shapes");
        prop_assert_eq!(out.features.shape(), (g.num_vertices(), 128));
        prop_assert_eq!(out.pooled.is_some(), kind == ModelKind::DiffPool);
    }

    /// Workload counting: total ops grow monotonically with edges.
    #[test]
    fn workload_monotone_in_edges(g in arb_graph()) {
        let model = GcnModel::new(ModelKind::Gin, g.feature_len(), 1).expect("valid");
        let w_full = LayerWorkload::of(&g, &model, 0);
        // Remove the last vertex's in-edges by rebuilding a subgraph.
        let n = g.num_vertices();
        let mut coo = Coo::new(n);
        for (s, d) in g.edges() {
            if d as usize != n - 1 {
                coo.push(s, d).expect("in range");
            }
        }
        let sub = Graph::from_coo(&coo, g.feature_len());
        let w_sub = LayerWorkload::of(&sub, &model, 0);
        prop_assert!(w_sub.agg_elem_ops <= w_full.agg_elem_ops);
        prop_assert!(w_sub.combine_macs <= w_full.combine_macs);
    }

    /// Isolated-vertex aggregation is always exactly zero, every
    /// aggregator, every self-term except the weighted/include ones.
    #[test]
    fn isolated_vertices_zero(n in 2usize..16) {
        let g = Graph::from_coo(&Coo::new(n), 4);
        let x = Matrix::random(n, 4, 1.0, 3);
        for agg in [Aggregator::Add, Aggregator::Mean, Aggregator::Max, Aggregator::Min] {
            let out = aggregate_all(&g, &x, agg, SelfTerm::None);
            prop_assert!(out.as_slice().iter().all(|&v| v == 0.0), "{agg:?}");
        }
    }
}
