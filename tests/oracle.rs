//! Differential oracle: `simulate()` — event schedule plus span-program
//! replay — against the seed-faithful `simulate_reference()` over
//! randomized configuration × workload sweeps and fixed degenerate
//! geometries.
//!
//! Every case asserts the full [`hygcn_suite::core::SimReport`] —
//! cycles, energy, per-channel memory decomposition, everything — is
//! **bit-for-bit identical** between the paths. This is the harness that
//! lets future perf PRs refactor the memory system without fear: any
//! timing drift, however small, fails here with the exact configuration
//! that exposed it.

#![allow(clippy::field_reassign_with_default)]

use hygcn_suite::core::config::{HyGcnConfig, PipelineMode};
use hygcn_suite::core::Simulator;
use hygcn_suite::gcn::model::{GcnModel, ModelKind};
use hygcn_suite::graph::generator::{erdos_renyi, preferential_attachment, rmat, RmatParams};
use hygcn_suite::graph::{Graph, GraphBuilder};
use hygcn_suite::mem::hbm::HbmConfig;
use hygcn_suite::mem::scheduler::CoordinationMode;
use proptest::prelude::*;

/// Which synthetic workload a case runs.
#[derive(Debug, Clone, Copy)]
enum Gen {
    Erdos,
    Rmat,
    PrefAttach,
}

fn build_graph(wl: Gen, n: usize, density: usize, feature_len: usize, seed: u64) -> Graph {
    let g = match wl {
        Gen::Erdos => erdos_renyi(n, n * density, seed).unwrap(),
        Gen::Rmat => rmat(n, n * density, RmatParams::default(), seed).unwrap(),
        Gen::PrefAttach => preferential_attachment(n, density.max(1), seed).unwrap(),
    };
    g.with_feature_len(feature_len)
}

fn arb_gen() -> impl Strategy<Value = Gen> {
    prop_oneof![Just(Gen::Erdos), Just(Gen::Rmat), Just(Gen::PrefAttach)]
}

fn arb_kind() -> impl Strategy<Value = ModelKind> {
    prop_oneof![
        Just(ModelKind::Gcn),
        Just(ModelKind::GraphSage),
        Just(ModelKind::Gin),
        Just(ModelKind::DiffPool),
    ]
}

fn arb_pipeline() -> impl Strategy<Value = PipelineMode> {
    prop_oneof![
        Just(PipelineMode::LatencyAware),
        Just(PipelineMode::EnergyAware),
        Just(PipelineMode::None),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    /// `simulate()` == `simulate_reference()` bit-for-bit, natively for
    /// sampling models and FR-FCFS windows of every depth.
    #[test]
    fn simulate_matches_reference(
        wl in arb_gen(),
        kind in arb_kind(),
        pipeline in arb_pipeline(),
        n in 64usize..768,
        density in 2usize..12,
        fpow in 4u32..7, // feature length 16/32/64
        seed in 0u64..1_000,
        sparsity in any::<bool>(),
        coordinated in any::<bool>(),
        // None = in-order; Some(w) = FR-FCFS with that reorder window.
        frfcfs_window in prop_oneof![
            Just(None),
            Just(Some(1usize)),
            Just(Some(4usize)),
            Just(Some(16usize)),
            Just(Some(64usize)),
        ],
        chpow in 0u32..4, // channels 1/2/4/8
        small_aggbuf in any::<bool>(),
    ) {
        let feature_len = 1usize << fpow;
        let graph = build_graph(wl, n, density, feature_len, seed);
        let model = GcnModel::new(kind, feature_len, seed).unwrap();

        let mut cfg = HyGcnConfig::default();
        cfg.pipeline = pipeline;
        cfg.sparsity_elimination = sparsity;
        if !coordinated {
            cfg.coordination = CoordinationMode::Fcfs;
            cfg.hbm = HbmConfig::hbm1_uncoordinated();
        }
        cfg.hbm.channels = 1 << chpow;
        if let Some(window) = frfcfs_window {
            cfg.hbm.controller = hygcn_suite::mem::hbm::ControllerPolicy::FrFcfs { window };
        }
        if small_aggbuf {
            // Force several chunks so the pipeline actually interleaves.
            cfg.aggregation_buffer_bytes = 1 << 18;
        }
        let sim = Simulator::new(cfg);

        let report = sim.simulate(&graph, &model).unwrap();
        let reference = sim.simulate_reference(&graph, &model).unwrap();
        prop_assert_eq!(
            &report,
            &reference,
            "simulate vs reference: {:?} {:?} {:?} n={} d={} f={} seed={} sparsity={} coord={} frfcfs={:?} ch={}",
            wl, kind, pipeline, n, density, feature_len, seed, sparsity, coordinated, frfcfs_window, 1 << chpow
        );

        // The per-channel decomposition itself must be self-consistent.
        prop_assert_eq!(report.mem_channels.len(), 1usize << chpow);
        let hits: u64 = report.mem_channels.iter().map(|c| c.row_hits).sum();
        let misses: u64 = report.mem_channels.iter().map(|c| c.row_misses).sum();
        prop_assert_eq!(hits, report.mem.row_hits);
        prop_assert_eq!(misses, report.mem.row_misses);
    }
}

/// Degenerate geometries the per-channel merge must handle without
/// special-casing: a zero-edge graph (empty aggregation batches) and a
/// single-channel stack (every segment in one queue), under every
/// pipeline mode.
#[test]
fn degenerate_geometries_match_reference() {
    let empty = GraphBuilder::new(64).feature_len(32).build();
    let single = rmat(1024, 12_000, RmatParams::default(), 5)
        .unwrap()
        .with_feature_len(32);
    let model = GcnModel::new(ModelKind::Gcn, 32, 7).unwrap();
    for (label, graph, channels) in [
        ("zero-edge", &empty, 8usize),
        ("zero-edge 1ch", &empty, 1),
        ("single-channel", &single, 1),
    ] {
        for pipeline in [
            PipelineMode::LatencyAware,
            PipelineMode::EnergyAware,
            PipelineMode::None,
        ] {
            let mut cfg = HyGcnConfig::default();
            cfg.pipeline = pipeline;
            cfg.aggregation_buffer_bytes = 1 << 18;
            cfg.hbm = HbmConfig {
                channels,
                ..HbmConfig::hbm1()
            };
            let sim = Simulator::new(cfg);
            let report = sim.simulate(graph, &model).unwrap();
            let reference = sim.simulate_reference(graph, &model).unwrap();
            assert_eq!(report, reference, "{label} {pipeline:?}");
            assert_eq!(report.mem_channels.len(), channels, "{label} {pipeline:?}");
        }
    }
}

/// A chunking whose occupancy index exceeds the memo's budget
/// (9,363 chunks of 7 destinations x 1,024 words per bitmap, over
/// `OccupancyIndex::MAX_WORDS`): `simulate` indexes each chunk alone
/// and must still match the reference bit for bit.
#[test]
fn over_budget_chunking_matches_reference() {
    use hygcn_suite::core::schedule::EventSchedule;
    let f_in = 16;
    let graph = rmat(1 << 16, 120_000, RmatParams::default(), 3)
        .unwrap()
        .with_feature_len(f_in);
    let model = GcnModel::new(ModelKind::Gcn, f_in, 3).unwrap();
    let mut cfg = HyGcnConfig::default();
    cfg.aggregation_buffer_bytes = 896;
    let sched = EventSchedule::build(&graph, &cfg, f_in);
    assert_eq!(sched.intervals().len(), 9_363);
    assert!(graph.occupancy_index(sched.intervals()).is_none());
    assert!(sched.total_windows() > 0);
    let sim = Simulator::new(cfg);
    let report = sim.simulate(&graph, &model).unwrap();
    let reference = sim.simulate_reference(&graph, &model).unwrap();
    assert_eq!(report, reference);
}

// ---------------------------------------------------------------------
// Span-program replay vs the staged DRAM model, at arbitrary geometry.
// ---------------------------------------------------------------------

/// Multiplicative LCG for request streams (process-stable, seed-exact).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 16
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    /// A precompiled [`hygcn_suite::mem::SpanProgram`] replays
    /// bit-identically to the staged `Hbm` drain for *arbitrary* valid
    /// geometries, mappings, controllers, and timing — per-step
    /// completion cycles and every statistics counter. The program and
    /// its FR-FCFS schedule are built once and replayed under two
    /// independently drawn timings as the two lanes of one pass, each
    /// lane against its own fresh staged `Hbm`, and under the first
    /// timing alone. Beside the random batches sits a row-local one
    /// (short reads clustered in a few rows of one bank), grouped row by
    /// row or interleaved, so FR-FCFS both keeps arrival order (a `None`
    /// schedule, replayed in program order) and reorders.
    #[test]
    fn span_program_replay_matches_staged_hbm_at_any_geometry(
        chpow in 0u32..4,       // channels 1/2/4/8
        bankpow in 0u32..5,     // banks 1/2/4/8/16
        rowpow in 8u32..13,     // row 256..4096 B
        burstpow in 4u32..7,    // burst 16/32/64 B
        t_burst in 1u64..4,
        t_row in 1u64..48,
        t_cas in 0u64..24,
        second_timing in (1u64..4, 1u64..48, 0u64..24),
        row_interleaved in any::<bool>(),
        // 65 and 200 span more than one 64-slot mask word.
        frfcfs_window in prop_oneof![
            Just(None),
            Just(Some(1usize)),
            Just(Some(2usize)),
            Just(Some(3usize)),
            Just(Some(16usize)),
            Just(Some(32usize)),
            Just(Some(64usize)),
            Just(Some(65usize)),
            Just(Some(200usize)),
        ],
        row_local_rows in 1u64..5,
        row_local_grouped in any::<bool>(),
        seed in 1u64..100_000,
    ) {
        use hygcn_suite::mem::hbm::{ControllerPolicy, Hbm};
        use hygcn_suite::mem::request::{MemRequest, RequestKind};
        use hygcn_suite::mem::{SpanProgramBuilder, SpanReplayer};

        let cfg = HbmConfig {
            channels: 1 << chpow,
            banks: 1 << bankpow,
            row_bytes: 1 << rowpow,
            burst_bytes: 1 << burstpow.min(rowpow),
            t_burst,
            t_row,
            t_cas,
            mapping: if row_interleaved {
                hygcn_suite::mem::address::MappingScheme::RowInterleaved
            } else {
                hygcn_suite::mem::address::MappingScheme::ChannelInterleaved
            },
            controller: frfcfs_window
                .map_or(ControllerPolicy::InOrder, |window| ControllerPolicy::FrFcfs { window }),
        };

        let mut rng = Lcg(seed);
        let mut batches: Vec<Vec<MemRequest>> = [0usize, 1, 9, 120]
            .iter()
            .map(|&len| {
                (0..len)
                    .map(|_| {
                        let kind = RequestKind::ALL[(rng.next() % 4) as usize];
                        let addr = rng.next() % (1 << 30);
                        let bytes = 1 + (rng.next() % 9000) as u32;
                        if kind == RequestKind::OutputFeatures && rng.next().is_multiple_of(2) {
                            MemRequest::write(kind, addr, bytes)
                        } else {
                            MemRequest::read(kind, addr, bytes)
                        }
                    })
                    .collect()
            })
            .collect();
        // Rows one bank-stride apart: one channel and bank under either
        // mapping, so interleaved reads of them conflict.
        let row_bytes = cfg.row_bytes;
        let stride = (cfg.channels * cfg.banks) as u64 * row_bytes;
        let base = rng.next() % (1 << 29) / row_bytes * row_bytes;
        let rows: Vec<u64> = (0..row_local_rows).map(|j| base + j * stride).collect();
        let mut row_local: Vec<MemRequest> = (0..48)
            .map(|_| {
                let row = rows[(rng.next() % row_local_rows) as usize];
                let bytes = 1 + rng.next() % 64;
                let addr = row + rng.next() % (row_bytes - bytes);
                MemRequest::read(RequestKind::InputFeatures, addr, bytes as u32)
            })
            .collect();
        if row_local_grouped {
            row_local.sort_by_key(|r| r.addr / row_bytes);
        }
        batches.insert(3, row_local);

        let mut builder = SpanProgramBuilder::new(&cfg).expect("valid geometry");
        for b in &batches {
            builder.push_step(b).expect("rows fit a span");
        }
        let program = builder.finish();
        prop_assert!(program.matches(&cfg));
        // `None` for in-order, and for FR-FCFS that keeps arrival order.
        let schedule = frfcfs_window.and_then(|w| program.schedule(w).expect("runs fit the index"));
        let gaps: Vec<u64> = batches.iter().map(|_| rng.next() % 64).collect();

        let (t_burst2, t_row2, t_cas2) = second_timing;
        let retimed = HbmConfig {
            t_burst: t_burst2,
            t_row: t_row2,
            t_cas: t_cas2,
            ..cfg
        };
        // One 2-lane pass replays both timings; each lane must equal its
        // own staged `Hbm` at every step, in completion, statistics and
        // channel statistics. A 1-lane replay of the first timing must
        // agree as well.
        let mut lanes = SpanReplayer::new(&[cfg, retimed]).expect("valid geometry");
        let mut alone = SpanReplayer::new(&[cfg]).expect("valid geometry");
        let mut hbms = [Hbm::new(cfg), Hbm::new(retimed)];
        let mut now = [0; 2];
        for (step, b) in batches.iter().enumerate() {
            let t_lanes = lanes.replay_step(&program, schedule.as_ref(), step, now);
            let [t_alone] = alone.replay_step(&program, schedule.as_ref(), step, [now[0]]);
            let (stats, channels) = (lanes.stats(), lanes.channel_stats());
            for (l, hbm) in hbms.iter_mut().enumerate() {
                let t_hbm = hbm.service_batch(b, now[l]);
                prop_assert_eq!(t_hbm, t_lanes[l], "step {} diverged in lane {}", step, l);
                prop_assert_eq!(hbm.stats(), stats[l], "step {} lane {}", step, l);
                prop_assert_eq!(hbm.channel_stats(), channels[l].clone(), "step {} lane {}", step, l);
                now[l] = t_hbm + gaps[step];
            }
            prop_assert_eq!(t_alone, t_lanes[0], "step {} diverged alone: {:?}", step, cfg);
            prop_assert_eq!(alone.hbm_stats(), [lanes.hbm_stats()[0].clone()], "step {}", step);
        }
    }
}
