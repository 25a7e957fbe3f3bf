//! Criterion microbenchmark of the per-channel HBM timing walk
//! (`Hbm::service_batch`: channel-major partition + per-channel drain),
//! over batch shapes that stress different parts of the walk —
//! contiguous streams (few fat segments), scattered reads (many row
//! misses), and bank-thrashing interleaves.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use hygcn_mem::{Hbm, HbmConfig, MemRequest, RequestKind};

fn batches() -> Vec<(&'static str, Vec<MemRequest>)> {
    let cfg = HbmConfig::hbm1();
    let bank_stride = cfg.row_bytes * cfg.channels as u64 * cfg.banks as u64;
    vec![
        (
            "stream_4mb",
            (0..64u64)
                .map(|i| MemRequest::read(RequestKind::InputFeatures, i * 65_536, 65_536))
                .collect(),
        ),
        (
            "scattered_rows",
            (0..2048u64)
                .map(|i| MemRequest::read(RequestKind::InputFeatures, i * 37 * 2048, 256))
                .collect(),
        ),
        (
            "bank_thrash",
            (0..512u64)
                .flat_map(|i| {
                    [
                        MemRequest::read(RequestKind::Edges, i * 32, 32),
                        MemRequest::read(RequestKind::InputFeatures, bank_stride + i * 32, 32),
                    ]
                })
                .collect(),
        ),
    ]
}

fn bench_channel_walk(c: &mut Criterion) {
    let mut group = c.benchmark_group("hbm_channels");
    for (name, reqs) in batches() {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{name}/serial")),
            &reqs,
            |b, reqs| {
                b.iter(|| {
                    let mut hbm = Hbm::new(HbmConfig::hbm1());
                    black_box(hbm.service_batch(reqs, 0))
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_channel_walk);
criterion_main!(benches);
