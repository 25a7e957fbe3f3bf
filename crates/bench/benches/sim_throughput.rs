//! Criterion throughput benchmark for the end-to-end simulator hot path:
//! warm `simulate()` (cached span-program replay) vs the seed path on an
//! RMAT-scale graph.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use hygcn_core::{HyGcnConfig, Simulator};
use hygcn_gcn::model::{GcnModel, ModelKind};
use hygcn_graph::generator::{rmat, RmatParams};
use hygcn_graph::Graph;

fn bench_graph(vertices: usize) -> Graph {
    rmat(vertices, vertices * 8, RmatParams::default(), 7)
        .expect("valid rmat parameters")
        .with_feature_len(128)
}

fn bench_simulate(c: &mut Criterion) {
    let sizes = if std::env::var("CRITERION_SMOKE").is_ok_and(|v| v == "1") {
        vec![4_096usize]
    } else {
        vec![16_384usize, 65_536]
    };
    let model_len = 128;
    let model = GcnModel::new(ModelKind::Gcn, model_len, 1).expect("valid model");
    let mut group = c.benchmark_group("simulate/rmat");
    for vertices in sizes {
        let graph = bench_graph(vertices);
        let sim = Simulator::new(HyGcnConfig::default());
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{vertices}v/optimized")),
            &graph,
            |b, g| b.iter(|| black_box(sim.simulate(g, &model).expect("simulates"))),
        );
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{vertices}v/seed-path")),
            &graph,
            |b, g| b.iter(|| black_box(sim.simulate_reference(g, &model).expect("simulates"))),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_simulate);
criterion_main!(benches);
