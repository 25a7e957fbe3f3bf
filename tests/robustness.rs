//! Robustness and failure-injection tests: degenerate graphs, extreme
//! configurations, error paths across the whole stack, and the
//! crash-point sweep over the campaign result store.

use std::sync::Arc;

use hygcn_suite::core::config::{HyGcnConfig, PipelineMode};
use hygcn_suite::core::{SimError, Simulator};
use hygcn_suite::dse::campaign::Campaign;
use hygcn_suite::dse::space::{Axis, ConfigSpace, WorkloadSpec};
use hygcn_suite::dse::{FaultPlan, FaultyIo};
use hygcn_suite::gcn::model::{GcnModel, ModelKind};
use hygcn_suite::graph::datasets::DatasetKey;
use hygcn_suite::graph::{GraphBuilder, GraphError};
use hygcn_suite::mem::hbm::{ControllerPolicy, HbmConfig};
use hygcn_suite::mem::{Hbm, MemRequest, RequestKind};

#[test]
fn edgeless_graph_simulates() {
    let g = GraphBuilder::new(16).feature_len(8).build();
    let m = GcnModel::new(ModelKind::Gcn, 8, 1).unwrap();
    let r = Simulator::new(HyGcnConfig::default())
        .simulate(&g, &m)
        .unwrap();
    // Combination still runs (self terms + MVMs); no edge traffic.
    assert_eq!(r.macs, 16 * 8 * 128);
    assert!(r.cycles > 0);
}

/// A chunk width of 2^32 vertices or more (an Aggregation Buffer of
/// terabytes) is clamped to the graph before it narrows to a vertex id,
/// so the graph is one chunk, as at any width past its vertex count:
/// the same report from `simulate` and the seed `simulate_reference`.
/// Narrowed unclamped, 2^32 would wrap to a width of 0.
#[test]
fn chunk_width_past_u32_is_one_chunk() {
    let f_in = 32;
    let g = hygcn_suite::graph::generator::preferential_attachment(256, 4, 1)
        .unwrap()
        .with_feature_len(f_in);
    let m = GcnModel::new(ModelKind::Gcn, f_in, 1).unwrap();
    for width in [u32::MAX as usize, 1 << 32, 1 << 33] {
        // Half the buffer holds `width` rows of `f_in` 4-byte elements.
        let cfg = HyGcnConfig {
            aggregation_buffer_bytes: 2 * width * f_in * 4,
            ..HyGcnConfig::default()
        };
        assert_eq!(cfg.chunk_width(f_in), width);
        let sim = Simulator::new(cfg);
        let report = sim.simulate(&g, &m).unwrap();
        assert_eq!(report.chunks, 1, "width {width}");
        assert_eq!(
            report,
            sim.simulate_reference(&g, &m).unwrap(),
            "width {width}"
        );
    }
}

#[test]
fn single_vertex_graph() {
    let g = GraphBuilder::new(1).feature_len(4).build();
    let m = GcnModel::new(ModelKind::Gin, 4, 1).unwrap();
    let r = Simulator::new(HyGcnConfig::default())
        .simulate(&g, &m)
        .unwrap();
    assert!(r.cycles > 0);
    assert_eq!(r.chunks, 1);
}

#[test]
fn self_loop_heavy_input_is_canonicalized() {
    // The builder strips self loops; the models add the self term
    // explicitly, so results stay well-defined.
    let g = GraphBuilder::new(4)
        .edges([(0, 0), (1, 1), (0, 1), (1, 0)])
        .unwrap()
        .build();
    assert_eq!(g.num_edges(), 2);
}

#[test]
fn extreme_config_single_core_single_module() {
    let g = hygcn_suite::graph::generator::erdos_renyi(128, 512, 1)
        .unwrap()
        .with_feature_len(32);
    let m = GcnModel::new(ModelKind::Gcn, 32, 1).unwrap();
    let cfg = HyGcnConfig {
        simd_cores: 1,
        simd_width: 1,
        systolic_modules: 1,
        module_rows: 1,
        module_cols: 1,
        ..HyGcnConfig::default()
    };
    let tiny = Simulator::new(cfg).simulate(&g, &m).unwrap();
    let full = Simulator::new(HyGcnConfig::default())
        .simulate(&g, &m)
        .unwrap();
    assert!(
        tiny.cycles > 100 * full.cycles,
        "1 PE must be drastically slower"
    );
}

#[test]
fn edgeless_graph_all_pipeline_modes_match_reference() {
    // Zero edges means aggregation issues no window traffic at all —
    // the per-channel merge must handle the resulting empty/degenerate
    // batches without special-casing, on both the wide and the
    // single-channel geometry.
    let g = GraphBuilder::new(32).feature_len(16).build();
    let m = GcnModel::new(ModelKind::Gcn, 16, 1).unwrap();
    for channels in [8usize, 1] {
        for pipeline in [
            PipelineMode::LatencyAware,
            PipelineMode::EnergyAware,
            PipelineMode::None,
        ] {
            let cfg = HyGcnConfig {
                pipeline,
                hbm: HbmConfig {
                    channels,
                    ..HbmConfig::hbm1()
                },
                ..HyGcnConfig::default()
            };
            let sim = Simulator::new(cfg);
            let fast = sim.simulate(&g, &m).unwrap();
            let seed = sim.simulate_reference(&g, &m).unwrap();
            assert_eq!(fast, seed, "{pipeline:?} channels={channels}");
            assert_eq!(fast.mem_channels.len(), channels);
            // No edges, but weights/outputs still move.
            assert!(fast.dram_bytes() > 0);
        }
    }
}

#[test]
fn single_channel_hbm_still_correct() {
    let g = hygcn_suite::graph::generator::erdos_renyi(256, 1024, 2)
        .unwrap()
        .with_feature_len(64);
    let m = GcnModel::new(ModelKind::Gcn, 64, 1).unwrap();
    let cfg = HyGcnConfig {
        hbm: HbmConfig {
            channels: 1,
            ..HbmConfig::hbm1()
        },
        ..HyGcnConfig::default()
    };
    let narrow = Simulator::new(cfg.clone()).simulate(&g, &m).unwrap();
    let wide = Simulator::new(HyGcnConfig::default())
        .simulate(&g, &m)
        .unwrap();
    assert_eq!(narrow.dram_bytes(), wide.dram_bytes());
    assert!(narrow.cycles >= wide.cycles);
    // One channel ⇒ the whole decomposition lives in a single timeline,
    // which must carry every row hit/miss and match the reference walk.
    assert_eq!(narrow.mem_channels.len(), 1);
    assert_eq!(narrow.mem_channels[0].row_hits, narrow.mem.row_hits);
    assert_eq!(narrow.mem_channels[0].row_misses, narrow.mem.row_misses);
    let seed = Simulator::new(cfg).simulate_reference(&g, &m).unwrap();
    assert_eq!(narrow, seed);
}

#[test]
fn buffer_too_small_error_names_the_buffer() {
    let g = GraphBuilder::new(8).feature_len(100_000).build();
    let m = GcnModel::new(ModelKind::Gcn, 100_000, 1).unwrap();
    match Simulator::new(HyGcnConfig::default()).simulate(&g, &m) {
        Err(SimError::BufferTooSmall { buffer, needed, .. }) => {
            assert_eq!(buffer, "input");
            assert_eq!(needed, 400_000);
        }
        other => panic!("expected BufferTooSmall, got {other:?}"),
    }
}

#[test]
fn graph_errors_surface_cleanly() {
    assert!(matches!(
        GraphBuilder::new(2).edge(0, 5),
        Err(GraphError::VertexOutOfBounds { vertex: 5, .. })
    ));
    assert!(hygcn_suite::graph::generator::erdos_renyi(1, 0, 0).is_err());
}

#[test]
fn all_pipeline_modes_agree_on_work_counts() {
    let g = hygcn_suite::graph::generator::preferential_attachment(300, 3, 3)
        .unwrap()
        .with_feature_len(48);
    let m = GcnModel::new(ModelKind::Gcn, 48, 1).unwrap();
    let mut reports = Vec::new();
    for p in [
        PipelineMode::LatencyAware,
        PipelineMode::EnergyAware,
        PipelineMode::None,
    ] {
        let cfg = HyGcnConfig {
            pipeline: p,
            ..HyGcnConfig::default()
        };
        reports.push(Simulator::new(cfg).simulate(&g, &m).unwrap());
    }
    // Same functional work regardless of scheduling.
    assert!(reports.windows(2).all(|w| w[0].macs == w[1].macs));
    assert!(reports.windows(2).all(|w| w[0].elem_ops == w[1].elem_ops));
}

#[test]
fn hbm_handles_giant_single_request() {
    let mut hbm = Hbm::new(HbmConfig::hbm1());
    // 256 MB in one request.
    let done = hbm.access(
        &MemRequest::read(RequestKind::InputFeatures, 0, 256 << 20),
        0,
    );
    assert_eq!(hbm.stats().bytes_read, 256 << 20);
    // Must stream near peak: 256 MB / 256 B-per-cycle ~ 1M cycles.
    let ideal = (256u64 << 20) / 256;
    assert!(done < ideal * 2, "done {done} vs ideal {ideal}");
}

#[test]
fn frfcfs_with_tiny_window_degenerates_to_inorder() {
    let reqs: Vec<MemRequest> = (0..16u64)
        .map(|i| MemRequest::read(RequestKind::Edges, i * 100_000, 64))
        .collect();
    let mut a = Hbm::new(HbmConfig::hbm1());
    let t_in = a.service_batch(&reqs, 0);
    let mut b = Hbm::new(HbmConfig {
        controller: ControllerPolicy::FrFcfs { window: 1 },
        ..HbmConfig::hbm1()
    });
    let t_fr = b.service_batch(&reqs, 0);
    assert_eq!(a.stats().total_bytes(), b.stats().total_bytes());
    assert_eq!(t_in, t_fr);
}

#[test]
fn timeline_recording_is_consistent() {
    let g = hygcn_suite::graph::generator::preferential_attachment(2000, 4, 5)
        .unwrap()
        .with_feature_len(256);
    let m = GcnModel::new(ModelKind::Gcn, 256, 1).unwrap();
    let cfg = HyGcnConfig {
        record_timeline: true,
        aggregation_buffer_bytes: 1 << 20,
        ..HyGcnConfig::default()
    };
    let r = Simulator::new(cfg.clone()).simulate(&g, &m).unwrap();
    assert!(!r.timeline.is_empty());
    // The recorded steps sum to the reported cycle count.
    let sum: u64 = r.timeline.iter().map(|t| t.step_cycles).sum();
    assert_eq!(sum, r.cycles);
    // Recording must not change timing.
    let quiet = Simulator::new(HyGcnConfig {
        record_timeline: false,
        ..cfg
    })
    .simulate(&g, &m)
    .unwrap();
    assert_eq!(quiet.cycles, r.cycles);
    // And the render is printable.
    let text = hygcn_suite::core::timeline::render(&r.timeline);
    assert!(text.lines().count() == r.timeline.len() + 1);
}

/// The crash-point sweep: kill the store at a battery of byte offsets
/// spanning every append boundary, and prove the full recovery contract
/// at each one — the crash loses at most the in-flight record, the
/// resume re-simulates exactly the lost points (zero duplicates), and
/// the recovered store ends bit-identical to an uninterrupted run.
#[test]
fn campaign_survives_a_kill_at_every_append_boundary() {
    let dir = std::env::temp_dir().join("hygcn-crash-sweep");
    std::fs::create_dir_all(&dir).unwrap();
    let space = || {
        ConfigSpace::new(
            vec![WorkloadSpec::dataset(DatasetKey::Ib, 0.1, 3)],
            vec![ModelKind::Gcn],
        )
        .with_axis(Axis::parse("aggbuf-mb", "4,16").unwrap())
        .with_axis(Axis::parse("pipeline", "latency,none").unwrap())
    };

    // Golden uninterrupted run: 4 points, byte-deterministic store.
    let golden_path = dir.join("golden.jsonl");
    std::fs::remove_file(&golden_path).ok();
    let golden_report = Campaign::new(space())
        .with_store(&golden_path)
        .run()
        .unwrap();
    assert_eq!(golden_report.points.len(), 4);
    let golden = std::fs::read(&golden_path).unwrap();
    std::fs::remove_file(&golden_path).ok();

    // Cumulative end offset of each record (newline included).
    let boundaries: Vec<usize> = golden
        .iter()
        .enumerate()
        .filter(|(_, &b)| b == b'\n')
        .map(|(i, _)| i + 1)
        .collect();
    assert_eq!(boundaries.len(), 4);

    // For every record: crash 1 byte in, mid-record, 1 byte short of
    // the boundary, and exactly on it.
    let mut crash_points = Vec::new();
    let mut prev = 0usize;
    for &end in &boundaries {
        crash_points.extend([prev + 1, (prev + end) / 2, end - 1, end]);
        prev = end;
    }

    for kill_byte in crash_points {
        let store = dir.join(format!("kill-{kill_byte}.jsonl"));
        std::fs::remove_file(&store).ok();
        let killed = Campaign::new(space())
            .with_store(&store)
            .with_store_io(Arc::new(FaultyIo::new(FaultPlan::kill_at_byte(
                kill_byte as u64,
            ))))
            .run();
        if kill_byte >= golden.len() {
            // The final append ends exactly on the kill boundary: the
            // campaign completes and the store is already golden.
            killed.unwrap_or_else(|e| panic!("kill at {kill_byte}: {e}"));
            assert_eq!(std::fs::read(&store).unwrap(), golden);
            std::fs::remove_file(&store).ok();
            continue;
        }
        killed.expect_err("a mid-store kill must abort the campaign");

        // The dying process persisted exactly the golden prefix: every
        // append below the kill byte, plus the torn head of the
        // in-flight record.
        assert_eq!(
            std::fs::read(&store).unwrap(),
            golden[..kill_byte],
            "kill at byte {kill_byte}"
        );

        // Resume with healthy I/O: only the lost records re-simulate. A
        // record survives if at most its trailing newline was lost —
        // the reopen repairs the missing terminator.
        let complete = boundaries.iter().filter(|&&e| e - 1 <= kill_byte).count();
        let resumed = Campaign::new(space()).with_store(&store).run().unwrap();
        assert_eq!(
            (resumed.simulated, resumed.cache_hits),
            (4 - complete, complete),
            "kill at byte {kill_byte}: zero duplicate simulations"
        );

        // Recovery is bit-perfect: the healed store matches the
        // uninterrupted run's bytes exactly.
        assert_eq!(
            std::fs::read(&store).unwrap(),
            golden,
            "kill at byte {kill_byte}"
        );
        std::fs::remove_file(&store).ok();
    }
}

#[test]
fn dense_complete_graph_simulates() {
    // K64: every vertex connected to every other.
    let mut b = GraphBuilder::new(64).feature_len(16);
    for i in 0..64u32 {
        for j in (i + 1)..64u32 {
            b = b.undirected_edge(i, j).unwrap();
        }
    }
    let g = b.build();
    let m = GcnModel::new(ModelKind::GraphSage, 16, 1).unwrap();
    let r = Simulator::new(HyGcnConfig::default())
        .simulate(&g, &m)
        .unwrap();
    // Sampling caps each vertex at 25 neighbors.
    assert!(r.elem_ops <= (64 * 25 + 64) * 16);
    // A complete graph offers no sparsity to eliminate.
    assert!(r.sparsity_reduction < 0.05);
}
