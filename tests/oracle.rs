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
use hygcn_suite::mem::request::MemRequest;
use hygcn_suite::mem::scheduler::CoordinationMode;
use hygcn_suite::mem::spanprog::SpanTuple;
use proptest::prelude::*;

/// Which synthetic workload a case runs.
#[derive(Debug, Clone, Copy)]
enum Gen {
    Erdos,
    Rmat,
    PrefAttach,
    /// Erdős–Rényi at `n / 4` edges per vertex: each column's sources
    /// fill half its words' bits, about 32 edges per occupancy run, so
    /// its occupancy bitmaps always OR column runs, where the sparse
    /// families mostly set one bit per source.
    Dense,
}

fn build_graph(wl: Gen, n: usize, density: usize, feature_len: usize, seed: u64) -> Graph {
    let g = match wl {
        Gen::Erdos => erdos_renyi(n, n * density, seed).unwrap(),
        Gen::Rmat => rmat(n, n * density, RmatParams::default(), seed).unwrap(),
        Gen::PrefAttach => preferential_attachment(n, density.max(1), seed).unwrap(),
        Gen::Dense => erdos_renyi(n, n * (n / 4), seed).unwrap(),
    };
    g.with_feature_len(feature_len)
}

fn arb_gen() -> impl Strategy<Value = Gen> {
    prop_oneof![
        Just(Gen::Erdos),
        Just(Gen::Rmat),
        Just(Gen::PrefAttach),
        Just(Gen::Dense),
    ]
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
            Just(Some(usize::MAX)),
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

/// Occupancy bitmaps come from column runs on a graph that compresses to
/// them and from one bit per source on one that does not; either way
/// every chunk's windows are Algorithm 4's ([`WindowPlanner::plan`]),
/// for the memoized many-interval index and the one-interval fallback,
/// on uniform chunkings (with a short tail), a non-uniform one and one
/// of empty columns and empty intervals, at heights 1 through past `V`.
///
/// [`WindowPlanner::plan`]: hygcn_suite::graph::window::WindowPlanner::plan
#[test]
fn occupancy_windows_match_the_planner_from_runs_and_from_sources() {
    use hygcn_suite::graph::partition::Interval;
    use hygcn_suite::graph::window::{OccupancyIndex, WindowPlanner};
    use hygcn_suite::graph::Coo;

    // A dense Erdős–Rényi graph on the even ids of 640 vertices: each
    // even column holds ~160 sources over 10 words, and every odd
    // column is empty.
    let dense = erdos_renyi(320, 320 * 80, 5).unwrap();
    let spread = dense.edges().map(|(s, d)| (2 * s, 2 * d));
    let dense = Graph::from_coo(&Coo::from_pairs(640, spread).unwrap(), 16);
    let sparse = rmat(1_500, 6_000, RmatParams::default(), 3)
        .unwrap()
        .with_feature_len(16);
    assert!(dense.occupancy_runs().is_some_and(|runs| runs > 0));
    assert_eq!(sparse.occupancy_runs(), None);

    for graph in [&dense, &sparse] {
        let n = graph.num_vertices() as u32;
        let uniform = |w: u32| -> Vec<Interval> {
            (0..n.div_ceil(w))
                .map(|i| Interval::new(i * w, ((i + 1) * w).min(n)))
                .collect()
        };
        let mut chunkings: Vec<Vec<Interval>> = [1, 7, 64, n].map(uniform).to_vec();
        chunkings.push(vec![Interval::new(0, n / 3), Interval::new(n / 3, n)]);
        // Odd columns of the dense graph, and intervals of no column.
        chunkings.push(vec![
            Interval::new(1, 2),
            Interval::new(5, 5),
            Interval::new(0, n),
            Interval::new(n, n),
        ]);
        for intervals in &chunkings {
            let index = OccupancyIndex::build(graph, intervals);
            for h in [
                1,
                2,
                3,
                16,
                63,
                64,
                65,
                500,
                n as usize,
                n as usize + 1,
                1 << 24,
            ] {
                let planner = WindowPlanner::new(h);
                for (i, &dst) in intervals.iter().enumerate() {
                    let expect: Vec<Interval> =
                        planner.plan(graph, dst).iter().map(|w| w.rows).collect();
                    let mut got = Vec::new();
                    index.for_each_window(i, h, |rows| got.push(rows));
                    assert_eq!(got, expect, "n {n} h {h} interval {dst:?}");
                    let mut alone = Vec::new();
                    OccupancyIndex::build(graph, &[dst]).for_each_window(0, h, |rows| {
                        alone.push(rows);
                    });
                    assert_eq!(alone, expect, "n {n} h {h} one-interval {dst:?}");
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Span-program replay vs the reference HBM walk, at arbitrary geometry.
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
    /// bit-identically to the reference `Hbm` walk for *arbitrary* valid
    /// geometries, mappings, controllers, and timing — per-step
    /// completion cycles and every statistics counter. The program and
    /// its FR-FCFS schedule are built once and replayed under two
    /// independently drawn timings as the two lanes of one pass, each
    /// lane against its own fresh reference `Hbm`, and under the first
    /// timing alone. Beside the random batches sits a row-local one
    /// (short reads clustered in a few rows of one bank), grouped row by
    /// row or interleaved, so FR-FCFS both keeps arrival order (a `None`
    /// schedule, replayed in program order) and reorders.
    #[test]
    fn span_program_replay_matches_reference_hbm_at_any_geometry(
        chpow in 0u32..4,       // channels 1/2/4/8
        bankpow in 0u32..5,     // banks 1/2/4/8/16
        rowpow in 8u32..13,     // row 256..4096 B
        burstpow in 4u32..7,    // burst 16/32/64 B
        t_burst in 1u64..4,
        t_row in 1u64..48,
        t_cas in 0u64..24,
        second_timing in (1u64..4, 1u64..48, 0u64..24),
        row_interleaved in any::<bool>(),
        // usize::MAX reaches past every run: the ordering pass sizes its
        // tables by the run, never by the window.
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
            Just(Some(usize::MAX)),
        ],
        row_local_rows in 1u64..5,
        row_local_grouped in any::<bool>(),
        seed in 1u64..100_000,
    ) {
        use hygcn_suite::mem::hbm::{ControllerPolicy, Hbm};
        use hygcn_suite::mem::request::RequestKind;
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
        // own reference `Hbm` at every step, in completion, statistics and
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

/// Each channel's spans of `batch` under `cfg`, decoded one span at a
/// time with the reference walk's `HbmConfig::locate`.
fn fresh_cells(cfg: &HbmConfig, batch: &[MemRequest]) -> Vec<Vec<SpanTuple>> {
    let mut cells = vec![Vec::new(); cfg.channels];
    for r in batch {
        let (mut addr, end) = (r.addr, r.addr + u64::from(r.bytes));
        while addr < end {
            let span_end = ((addr / cfg.row_bytes + 1) * cfg.row_bytes).min(end);
            let (channel, bank, row) = cfg.locate(addr);
            cells[channel].push(SpanTuple {
                row: u32::try_from(row).unwrap(),
                bank: u16::try_from(bank).unwrap(),
                bursts: u16::try_from((span_end - addr).div_ceil(cfg.burst_bytes)).unwrap(),
            });
            addr = span_end;
        }
    }
    cells
}

/// The fewest bursts between a row miss and its bank's previous use
/// within one channel's spans of `batch` (`None` when no bank reopens a
/// row): the gap a replay summary of that block records.
fn reuse_miss_gap(cfg: &HbmConfig, batch: &[MemRequest]) -> Option<u64> {
    let mut gap = None;
    for cell in fresh_cells(cfg, batch) {
        let mut last: Vec<Option<(u32, u64)>> = vec![None; cfg.banks];
        let mut bursts = 0u64;
        for t in cell {
            let bank = usize::from(t.bank);
            if let Some((row, through)) = last[bank] {
                if row != t.row {
                    gap = Some(gap.map_or(bursts - through, |g: u64| g.min(bursts - through)));
                }
            }
            bursts += u64::from(t.bursts);
            last[bank] = Some((t.row, bursts));
        }
    }
    gap
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    /// Span programs whose steps repeat request blocks replay
    /// bit-identically to the reference `Hbm` walk. The program pools
    /// each distinct block once: a random batch pushed at several steps,
    /// a multi-row sequential read block that sits beside a different
    /// small edge block in most steps, and a block of a few reads of one
    /// row per bank that ends one step and starts the next (so its
    /// second copy starts from its own rows, and the FR-FCFS ordering
    /// pass cannot take its certificate's verdict). Each FR-FCFS window
    /// takes certificates for the shared segments at least as long as
    /// it, and a seam judges the spans around each block boundary.
    /// Every cell, read back
    /// as its segments, equals a fresh per-span decode of its batch; a
    /// planned (reserved) build equals a direct one. Lane 0's `t_row`
    /// sits at `t_burst` times the read block's reuse-miss gap or one
    /// cycle past it, so its segments replay from their summaries or
    /// span by span; lane 1's is drawn freely. Each lane must equal its
    /// own reference `Hbm` at every step, in completion, statistics and
    /// channel statistics, under both mappings and both controllers.
    #[test]
    fn span_program_with_shared_blocks_replays_like_reference_hbm(
        chpow in 0u32..4,       // channels 1/2/4/8
        bankpow in 0u32..5,     // banks 1/2/4/8/16
        rowpow in 8u32..13,     // row 256..4096 B
        burstpow in 4u32..7,    // burst 16/32/64 B
        t_burst in 1u64..4,
        past_the_gap in any::<bool>(),
        t_cas in 0u64..24,
        second_timing in (1u64..4, 1u64..300, 0u64..24),
        row_interleaved in any::<bool>(),
        frfcfs_window in prop_oneof![
            Just(None),
            Just(Some(1usize)),
            Just(Some(2usize)),
            Just(Some(16usize)),
            Just(Some(32usize)),
            Just(Some(65usize)),
            Just(Some(usize::MAX)),
        ],
        sweep_reads in 1u64..40,
        seed in 1u64..100_000,
    ) {
        use hygcn_suite::mem::hbm::{ControllerPolicy, Hbm};
        use hygcn_suite::mem::request::RequestKind;
        use hygcn_suite::mem::{SpanProgramBuilder, SpanReplayer};

        let geometry = HbmConfig {
            channels: 1 << chpow,
            banks: 1 << bankpow,
            row_bytes: 1 << rowpow,
            burst_bytes: 1 << burstpow.min(rowpow),
            t_burst,
            t_row: 1,
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
        let random: Vec<MemRequest> = (0..40)
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
            .collect();
        // Sequential reads of a few rows each, back to back.
        let base = rng.next() % (1 << 28);
        let bytes = (2 * geometry.row_bytes + rng.next() % geometry.row_bytes) as u32;
        let sweep: Vec<MemRequest> = (0..sweep_reads)
            .map(|i| MemRequest::read(RequestKind::InputFeatures, base + i * u64::from(bytes), bytes))
            .collect();
        let beside = |edges: u64| {
            let mut batch = vec![MemRequest::read(RequestKind::Edges, (1 << 29) + edges * 4096, 64)];
            batch.extend_from_slice(&sweep);
            batch
        };
        // A few reads of row 3 in every bank of every channel.
        let (channels, banks) = (geometry.channels as u64, geometry.banks as u64);
        let page = |channel: u64, bank: u64| {
            let row = 3 * banks + bank;
            if row_interleaved {
                (channel << 27) + row * geometry.row_bytes
            } else {
                (row * channels + channel) * geometry.row_bytes
            }
        };
        let reps = 2 + rng.next() % 3;
        let carried: Vec<MemRequest> = (0..channels * banks * reps)
            .map(|i| {
                let addr = page(i % channels, i / channels % banks) + 32 * (i / channels / banks);
                MemRequest::read(RequestKind::Weights, addr, 16)
            })
            .collect();
        let batches = vec![
            random.clone(),
            beside(0),
            [beside(1), carried.clone()].concat(),
            [carried, beside(3)].concat(),
            random.clone(),
            beside(2),
            sweep.clone(),
            beside(0),
            random,
        ];

        // Lane 0's `t_row` straddles the sweep's summary gap.
        let t_row = match reuse_miss_gap(&geometry, &sweep) {
            Some(gap) => (t_burst * gap + u64::from(past_the_gap)).clamp(1, HbmConfig::MAX_TIMING_CYCLES),
            None => 1 + rng.next() % 300,
        };
        let cfg = HbmConfig { t_row, ..geometry };
        let (t_burst2, t_row2, t_cas2) = second_timing;
        let retimed = HbmConfig {
            t_burst: t_burst2,
            t_row: t_row2,
            t_cas: t_cas2,
            ..cfg
        };

        let mut builder = SpanProgramBuilder::new(&cfg).expect("valid geometry");
        let mut planned = builder.clone();
        for b in &batches {
            builder.push_step(b).expect("rows fit a span");
            planned.plan_step(b);
        }
        let program = builder.finish();
        let spans = planned.reserve();
        for b in &batches {
            planned.push_step(b).expect("rows fit a span");
        }
        prop_assert_eq!(&planned.finish(), &program);
        prop_assert_eq!(program.pool_tuples(), spans);
        prop_assert!(program.pool_tuples() < program.total_tuples(), "repeats are pooled");
        let mut scratch = Vec::new();
        for (step, b) in batches.iter().enumerate() {
            for (c, fresh) in fresh_cells(&cfg, b).iter().enumerate() {
                prop_assert_eq!(program.cell_run(step, c, &mut scratch), &fresh[..], "step {} channel {}", step, c);
            }
        }

        let schedule = frfcfs_window.and_then(|w| program.schedule(w).expect("runs fit the index"));
        let gaps: Vec<u64> = batches.iter().map(|_| rng.next() % 64).collect();
        let mut lanes = SpanReplayer::new(&[cfg, retimed]).expect("valid geometry");
        let mut hbms = [Hbm::new(cfg), Hbm::new(retimed)];
        let mut now = [0; 2];
        for (step, b) in batches.iter().enumerate() {
            let t_lanes = lanes.replay_step(&program, schedule.as_ref(), step, now);
            let (stats, channels) = (lanes.stats(), lanes.channel_stats());
            for (l, hbm) in hbms.iter_mut().enumerate() {
                let t_hbm = hbm.service_batch(b, now[l]);
                prop_assert_eq!(t_hbm, t_lanes[l], "step {} diverged in lane {}", step, l);
                prop_assert_eq!(hbm.stats(), stats[l], "step {} lane {}", step, l);
                prop_assert_eq!(hbm.channel_stats(), channels[l].clone(), "step {} lane {}", step, l);
                now[l] = t_hbm + gaps[step];
            }
        }
    }
}

/// An FR-FCFS schedule holds only the cells it reorders, and every other
/// cell under it replays in program order, a shared block there from
/// its summary. Two channels, window 8. Step 0 reads row 1, row 8 and
/// row 1 again of channel 0's bank 0: the second row-1 read overtakes
/// the row-8 miss, so that cell reorders and leaves row 8 open. Step 1
/// is a sequential sweep from row 8, a block steps 2 and 3 repeat,
/// that reopens its banks' rows hundreds of bursts apart, so both
/// lanes' `t_row` fit its summary's gap: both of step 1's cells keep
/// arrival order and replay from the summary, channel 0's first span
/// hitting the row the reordered cell left open. (Steps 2 and 3 start
/// the sweep from the rows it left itself, so hits overtake there and
/// those cells reorder.) Each lane must equal its own reference `Hbm`
/// at every step, in completion, statistics and channel statistics.
#[test]
fn kept_cells_under_a_schedule_replay_shared_blocks_from_their_summaries() {
    use hygcn_suite::mem::hbm::{ControllerPolicy, Hbm};
    use hygcn_suite::mem::request::RequestKind;
    use hygcn_suite::mem::{SpanProgramBuilder, SpanReplayer};

    let window = 8;
    let cfg = HbmConfig {
        channels: 2,
        controller: ControllerPolicy::FrFcfs { window },
        ..HbmConfig::hbm1()
    };
    let (channels, banks) = (cfg.channels as u64, cfg.banks as u64);
    let page = |(channel, bank, row): (u64, u64, u64)| {
        ((row * banks + bank) * channels + channel) * cfg.row_bytes
    };
    let read = |kind, key| MemRequest::read(kind, page(key), 32);
    let reorder: Vec<MemRequest> = [(0, 0, 1), (0, 0, 8), (0, 0, 1)]
        .map(|key| read(RequestKind::Edges, key))
        .into();
    let edges = vec![
        read(RequestKind::Edges, (0, 5, 20)),
        read(RequestKind::Edges, (1, 6, 21)),
    ];
    // Reads of one and a half rows, back to back from row 8: 60 pages
    // over 2 channels of 16 banks, so most banks reopen a row.
    let bytes = 3 * cfg.row_bytes / 2;
    let sweep: Vec<MemRequest> = (0..40)
        .map(|i| {
            let addr = page((0, 0, 8)) + i * bytes;
            MemRequest::read(RequestKind::InputFeatures, addr, bytes as u32)
        })
        .collect();
    let batches = vec![
        reorder.clone(),
        sweep.clone(),
        [edges, sweep.clone()].concat(),
        [sweep.clone(), reorder].concat(),
    ];
    let gap = reuse_miss_gap(&cfg, &sweep).expect("the sweep reopens rows");
    let lanes = [14, 56].map(|t_row| HbmConfig { t_row, ..cfg });
    assert!(
        lanes.iter().all(|l| l.t_row <= l.t_burst * gap),
        "both lanes fit the sweep's summary gap of {gap} bursts"
    );

    let mut builder = SpanProgramBuilder::new(&cfg).expect("valid geometry");
    for b in &batches {
        builder.push_step(b).expect("rows fit a span");
    }
    let program = builder.finish();
    assert!(
        program.pool_tuples() < program.total_tuples(),
        "the sweep and the reordering block are pooled once"
    );
    let schedule = program.schedule(window).expect("runs fit the index");
    assert!(schedule.is_some(), "the reordering block reorders");

    let mut replayer = SpanReplayer::new(&lanes).expect("valid geometry");
    let mut hbms = lanes.map(Hbm::new);
    let mut now = [0; 2];
    for (step, b) in batches.iter().enumerate() {
        let done = replayer.replay_step(&program, schedule.as_ref(), step, now);
        let (stats, channel_stats) = (replayer.stats(), replayer.channel_stats());
        for (l, hbm) in hbms.iter_mut().enumerate() {
            let t_hbm = hbm.service_batch(b, now[l]);
            assert_eq!(t_hbm, done[l], "step {step} diverged in lane {l}");
            assert_eq!(hbm.stats(), stats[l], "step {step} lane {l}");
            assert_eq!(
                hbm.channel_stats(),
                channel_stats[l],
                "step {step} lane {l}"
            );
            now[l] = t_hbm + 5;
        }
    }
}
