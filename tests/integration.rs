//! Cross-crate integration tests: datasets -> models -> golden model ->
//! fixed-point datapath -> accelerator simulator -> platform baselines.

use hygcn_suite::baseline::{CpuModel, GpuModel};
use hygcn_suite::core::config::PipelineMode;
use hygcn_suite::core::functional::run_fixed;
use hygcn_suite::core::{HyGcnConfig, Simulator};
use hygcn_suite::gcn::model::{GcnModel, ModelKind};
use hygcn_suite::gcn::reference::ReferenceExecutor;
use hygcn_suite::graph::datasets::{DatasetKey, DatasetSpec};
use hygcn_suite::graph::generator::preferential_attachment;
use hygcn_suite::tensor::Matrix;

#[test]
fn every_model_runs_end_to_end_on_a_dataset_graph() {
    let graph = DatasetSpec::get(DatasetKey::Ib)
        .instantiate(0.25, 1)
        .unwrap();
    let sim = Simulator::new(HyGcnConfig::default());
    for kind in ModelKind::ALL {
        let model = GcnModel::new(kind, graph.feature_len(), 3).unwrap();
        let r = sim.simulate(&graph, &model).unwrap();
        assert!(r.cycles > 0, "{kind}: zero cycles");
        assert!(r.energy_j() > 0.0, "{kind}: zero energy");
        assert!(r.dram_bytes() > 0, "{kind}: no DRAM traffic");
        let cpu = CpuModel::optimized().run(&graph, &model);
        let gpu = GpuModel::naive().run(&graph, &model);
        assert!(cpu.time_s > gpu.time_s, "{kind}: GPU should beat CPU");
        assert!(
            r.time_s < cpu.time_s,
            "{kind}: HyGCN should beat the CPU baseline"
        );
    }
}

#[test]
fn functional_consistency_golden_vs_fixed_for_all_models() {
    let f = 24;
    let graph = preferential_attachment(80, 3, 5)
        .unwrap()
        .with_feature_len(f);
    let x = Matrix::random(80, f, 0.5, 6);
    let exec = ReferenceExecutor::new();
    for kind in [ModelKind::Gcn, ModelKind::GraphSage, ModelKind::Gin] {
        let model = GcnModel::new(kind, f, 7).unwrap();
        let golden = exec.run(&graph, &x, &model).unwrap();
        let fixed = run_fixed(&graph, &x, &model, exec.sample_seed()).unwrap();
        let diff = golden.features.max_abs_diff(&fixed).unwrap();
        assert!(diff < 0.1, "{kind}: fixed-point diverged by {diff}");
    }
}

#[test]
fn simulator_is_deterministic() {
    let graph = DatasetSpec::get(DatasetKey::Cr)
        .instantiate(0.2, 2)
        .unwrap();
    let model = GcnModel::new(ModelKind::GraphSage, graph.feature_len(), 1).unwrap();
    let a = Simulator::new(HyGcnConfig::default())
        .simulate(&graph, &model)
        .unwrap();
    let b = Simulator::new(HyGcnConfig::default())
        .simulate(&graph, &model)
        .unwrap();
    assert_eq!(a, b);
}

#[test]
fn optimization_stack_composes_monotonically() {
    // baseline <= +each optimization removed <= everything removed.
    let graph = DatasetSpec::get(DatasetKey::Pb)
        .instantiate(0.2, 3)
        .unwrap();
    let model = GcnModel::new(ModelKind::Gcn, graph.feature_len(), 1).unwrap();
    let full = Simulator::new(HyGcnConfig::default())
        .simulate(&graph, &model)
        .unwrap();
    let ablated = Simulator::new(HyGcnConfig::ablated())
        .simulate(&graph, &model)
        .unwrap();
    assert!(
        full.cycles < ablated.cycles,
        "full {} vs ablated {}",
        full.cycles,
        ablated.cycles
    );
    assert!(full.dram_bytes() <= ablated.dram_bytes());
}

#[test]
fn multi_layer_inference_chains_feature_lengths() {
    // Layer 1: 1433 -> 128; layer 2: 128 -> 128, as in a 2-layer GCN.
    let graph = DatasetSpec::get(DatasetKey::Cr)
        .instantiate(0.2, 4)
        .unwrap();
    let sim = Simulator::new(HyGcnConfig::default());
    let l1 = GcnModel::new(ModelKind::Gcn, graph.feature_len(), 1).unwrap();
    let r1 = sim.simulate(&graph, &l1).unwrap();
    let g2 = graph.with_feature_len(128);
    let l2 = GcnModel::new(ModelKind::Gcn, 128, 2).unwrap();
    let r2 = sim.simulate(&g2, &l2).unwrap();
    // The first layer has ~11x the MVM work of the second.
    assert!(r1.macs > 5 * r2.macs);
    assert!(r1.cycles > r2.cycles);
}

/// A feature-length copy, like each layer of a stack, shares the
/// adjacency instead of copying it, yet is a different workload.
#[test]
fn feature_len_copies_share_the_adjacency() {
    let g = DatasetSpec::get(DatasetKey::Cr)
        .instantiate(0.2, 4)
        .unwrap();
    assert!(std::ptr::eq(g.csc(), g.with_feature_len(16).csc()));
    assert_ne!(g.content_hash(), g.with_feature_len(16).content_hash());
    let mut set = g.clone();
    set.set_feature_len(16);
    assert!(std::ptr::eq(g.csc(), set.csc()));
    assert_eq!(set, g.with_feature_len(16));
}

#[test]
fn pipeline_modes_trade_latency_for_energy() {
    let graph = DatasetSpec::get(DatasetKey::Pb)
        .instantiate(0.2, 5)
        .unwrap();
    let model = GcnModel::new(ModelKind::Gcn, graph.feature_len(), 1).unwrap();
    let lat = Simulator::new(HyGcnConfig {
        pipeline: PipelineMode::LatencyAware,
        ..HyGcnConfig::default()
    })
    .simulate(&graph, &model)
    .unwrap();
    let en = Simulator::new(HyGcnConfig {
        pipeline: PipelineMode::EnergyAware,
        ..HyGcnConfig::default()
    })
    .simulate(&graph, &model)
    .unwrap();
    assert!(lat.avg_vertex_latency_cycles < en.avg_vertex_latency_cycles);
    assert!(en.energy.combination_j <= lat.energy.combination_j);
}

#[test]
fn dataset_registry_graphs_all_simulate() {
    // Every dataset (tiny scale) through GCN without error.
    for key in DatasetKey::ALL {
        let spec = DatasetSpec::get(key);
        let scale = (2000.0 / spec.vertices as f64).min(0.5);
        let graph = spec.instantiate(scale, 9).unwrap();
        let model = GcnModel::new(ModelKind::Gcn, graph.feature_len(), 1).unwrap();
        let r = Simulator::new(HyGcnConfig::default())
            .simulate(&graph, &model)
            .unwrap();
        assert!(r.cycles > 0, "{key}");
    }
}

#[test]
fn graphsage_preprocessing_vs_runtime_sampling() {
    // On HyGCN, sampling runs inline; the elem-op count must reflect the
    // sampled (not original) edge set.
    let graph = DatasetSpec::get(DatasetKey::Cl)
        .instantiate(0.1, 6)
        .unwrap();
    let gsc = GcnModel::new(ModelKind::GraphSage, graph.feature_len(), 1).unwrap();
    let r = Simulator::new(HyGcnConfig::default())
        .simulate(&graph, &gsc)
        .unwrap();
    let max_possible = (graph.num_vertices() as u64 * 25 + graph.num_vertices() as u64)
        * graph.feature_len() as u64;
    assert!(r.elem_ops <= max_possible);
}

#[test]
fn two_layer_functional_chain_fixed_vs_float() {
    // Chain two GCN layers functionally and check the fixed-point
    // datapath stays close to the f32 golden model end to end.
    let f = 24;
    let graph = preferential_attachment(60, 3, 8)
        .unwrap()
        .with_feature_len(f);
    let x = Matrix::random(60, f, 0.5, 9);
    let exec = ReferenceExecutor::new();

    let l1 = GcnModel::new(ModelKind::Gcn, f, 11).unwrap();
    let h1 = exec.run(&graph, &x, &l1).unwrap().features;
    let q1 = run_fixed(&graph, &x, &l1, exec.sample_seed()).unwrap();

    let g2 = graph.with_feature_len(128);
    let l2 = GcnModel::new(ModelKind::Gcn, 128, 12).unwrap();
    let h2 = exec.run(&g2, &h1, &l2).unwrap().features;
    let q2 = run_fixed(&g2, &q1, &l2, exec.sample_seed()).unwrap();

    let diff = h2.max_abs_diff(&q2).unwrap();
    assert!(diff < 0.5, "two-layer fixed-point drift {diff}");
}

#[test]
fn edge_list_io_feeds_the_simulator() {
    // A user-supplied edge list goes straight into a simulation.
    let text = "# tiny ring\n0 1\n1 2\n2 3\n3 0\n";
    let g = hygcn_suite::graph::io::read_edge_list(text.as_bytes(), 16, true).unwrap();
    let m = GcnModel::new(ModelKind::Gcn, 16, 1).unwrap();
    let r = Simulator::new(HyGcnConfig::default())
        .simulate(&g, &m)
        .unwrap();
    assert_eq!(r.elem_ops, (8 + 4) * 16);
}

/// FNV-1a over the bit patterns of `values`.
fn fnv(h: &mut u64, values: &[f32]) {
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            *h = (*h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
}

/// A model draws its weights on first use, exactly the weights it drew
/// up front before: `Combine::random` through `mlp_dims` at `seed`, and
/// DiffPool's pool MLP at `seed + 101`. Its shape queries, read from
/// the dims alone, equal the drawn weights', and the reference outputs
/// hash as they did when every model drew its weights in `new` (the
/// literals were taken then).
#[test]
fn model_weights_are_drawn_on_first_use_as_before() {
    use hygcn_suite::gcn::combine::Combine;
    use hygcn_suite::gcn::model::DIFFPOOL_CLUSTERS;
    use hygcn_suite::gcn::workload::LayerWorkload;

    let f = 24;
    let graph = preferential_attachment(80, 3, 5)
        .unwrap()
        .with_feature_len(f);
    let x = Matrix::random(80, f, 0.5, 6);
    let exec = ReferenceExecutor::new();
    let pinned = [
        (ModelKind::Gcn, 0x28dd_304e_f705_cdeb_u64),
        (ModelKind::GraphSage, 0x8774_f5d6_b099_eb7b),
        (ModelKind::Gin, 0xcc46_b98e_6833_9c8e),
        (ModelKind::DiffPool, 0x1a9d_a69f_7fef_bc13),
    ];
    for (kind, hash) in pinned {
        let model = GcnModel::new(kind, f, 7).unwrap();
        // Shape queries never draw, and agree before and after.
        let workload = LayerWorkload::of(&graph, &model, 1);
        let shape = (
            model.out_len(),
            model.param_bytes(),
            model.combine_macs_per_vertex(),
        );
        let embedding = Combine::random(&kind.mlp_dims(f), 7).unwrap();
        assert_eq!(model.combine(), &embedding, "{kind}");
        let pool = (kind == ModelKind::DiffPool)
            .then(|| Combine::random(&[f, DIFFPOOL_CLUSTERS], 7 + 101).unwrap());
        assert_eq!(model.pool_combine(), pool.as_ref(), "{kind}");
        let stages = std::iter::once(&embedding).chain(&pool);
        let drawn = (
            embedding.out_dim(),
            stages.clone().map(Combine::param_bytes).sum(),
            stages.map(Combine::macs_per_vertex).sum(),
        );
        assert_eq!(shape, drawn, "{kind}");
        assert_eq!(LayerWorkload::of(&graph, &model, 1), workload, "{kind}");
        assert_eq!(model, GcnModel::new(kind, f, 7).unwrap(), "{kind}");
        assert_ne!(model, GcnModel::new(kind, f, 8).unwrap(), "{kind}");

        let out = exec.run(&graph, &x, &model).unwrap();
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        fnv(&mut h, out.features.as_slice());
        if let Some(p) = &out.pooled {
            for m in [&p.assignment, &p.features, &p.adjacency] {
                fnv(&mut h, m.as_slice());
            }
        }
        assert_eq!(h, hash, "{kind}: reference output moved");
    }
}
