//! Acceptance tests of the multi-backend evaluation system: analytical
//! fidelity (rank correlation against the cycle-accurate backend over a
//! pinned grid), cross-backend cache isolation in a shared store, the
//! screening-speed contract, and config errors that never panic.

use std::time::Instant;

use hygcn_suite::baseline::backend::{resolve, BACKEND_IDS};
use hygcn_suite::baseline::characterize::characterize;
use hygcn_suite::baseline::params::CpuParams;
use hygcn_suite::core::backend::SimBackend;
use hygcn_suite::core::{AnalyticalBackend, CycleAccurateBackend, HyGcnConfig, SimError};
use hygcn_suite::dse::campaign::Campaign;
use hygcn_suite::dse::space::{Axis, ConfigSpace, WorkloadSpec};
use hygcn_suite::gcn::model::ModelKind;
use hygcn_suite::gcn::workload::LayerWorkload;
use hygcn_suite::graph::datasets::DatasetKey;
use hygcn_suite::graph::sampling::SamplePolicy;
use hygcn_suite::graph::GraphBuilder;
use hygcn_suite::mem::hbm::HbmConfig;
use hygcn_suite::mem::spanprog::SpanTuple;

/// The pinned 20-point fidelity grid: buffer geometry x sparsity x
/// pipeline over one mid-size workload. Changing it invalidates the
/// recorded correlation threshold — extend, don't shrink.
fn fidelity_grid() -> ConfigSpace {
    ConfigSpace::new(
        vec![WorkloadSpec::dataset(DatasetKey::Ib, 0.15, 7)],
        vec![ModelKind::Gcn],
    )
    .with_axis(Axis::parse("aggbuf-mb", "2,4,8,16,32").unwrap())
    .with_axis(Axis::parse("sparsity", "on,off").unwrap())
    .with_axis(Axis::parse("pipeline", "latency,none").unwrap())
}

/// Spearman rank correlation of two equal-length samples.
fn spearman(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    let rank = |xs: &[f64]| -> Vec<f64> {
        let mut order: Vec<usize> = (0..xs.len()).collect();
        order.sort_by(|&i, &j| xs[i].total_cmp(&xs[j]));
        let mut ranks = vec![0.0; xs.len()];
        for (r, &i) in order.iter().enumerate() {
            ranks[i] = r as f64;
        }
        ranks
    };
    let (ra, rb) = (rank(a), rank(b));
    let n = a.len() as f64;
    let mean = (n - 1.0) / 2.0;
    let (mut cov, mut va, mut vb) = (0.0, 0.0, 0.0);
    for i in 0..a.len() {
        cov += (ra[i] - mean) * (rb[i] - mean);
        va += (ra[i] - mean).powi(2);
        vb += (rb[i] - mean).powi(2);
    }
    cov / (va.sqrt() * vb.sqrt())
}

/// An inconsistent configuration is an error from every simulator
/// backend — never a panic inside the address decoder or an engine, and
/// never a cycle count from an engine with no compute units.
#[test]
fn invalid_config_is_an_error_on_every_simulator_backend() {
    let graph = hygcn_suite::graph::generator::preferential_attachment(256, 4, 1)
        .unwrap()
        .with_feature_len(32);
    let gcn = hygcn_suite::gcn::model::GcnModel::new(ModelKind::Gcn, 32, 0xC0DE).unwrap();
    let with_hbm = |hbm| HyGcnConfig {
        hbm,
        ..HyGcnConfig::default()
    };
    let base = HbmConfig::hbm1();
    let mut cases = vec![
        (
            "channels = 6",
            with_hbm(HbmConfig {
                channels: 6,
                ..base
            }),
        ),
        (
            "burst_bytes > row_bytes",
            with_hbm(HbmConfig {
                burst_bytes: 2 * base.row_bytes,
                ..base
            }),
        ),
    ];
    type Zero = fn(&mut HyGcnConfig);
    let zero_geometry: [(&str, Zero); 5] = [
        ("simd_cores = 0", |c| c.simd_cores = 0),
        ("simd_width = 0", |c| c.simd_width = 0),
        ("systolic_modules = 0", |c| c.systolic_modules = 0),
        ("module_rows = 0", |c| c.module_rows = 0),
        ("module_cols = 0", |c| c.module_cols = 0),
    ];
    for (label, zero) in zero_geometry {
        let mut cfg = HyGcnConfig::default();
        zero(&mut cfg);
        cases.push((label, cfg));
    }
    for (label, cfg) in &cases {
        for id in ["cycle", "seed", "analytical"] {
            let backend = resolve(id).unwrap();
            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                backend.evaluate(&graph, &gcn, cfg)
            }));
            match run {
                Ok(Err(SimError::Config(msg))) => assert!(!msg.is_empty(), "{id} {label}"),
                Ok(other) => panic!("{id} {label}: expected SimError::Config, got {other:?}"),
                Err(_) => panic!("{id} {label}: panicked instead of returning an error"),
            }
        }
    }
}

/// Every backend rejects what `HyGcnConfig::validate` rejects, even a
/// backend that reads none of the offending fields: the platform and
/// characterization models ignore the HBM geometry and the clock, yet a
/// config that is a `SimError::Config` on `cycle` must be one on them
/// too, never a panic and never an `Ok`. The channel bound
/// (`HbmConfig::MAX_CHANNELS`, 2^10) and the total-bank bound
/// (`HbmConfig::MAX_TOTAL_BANKS`, 2^20 banks over all channels) keep a
/// valid geometry from asking for more per-channel and per-bank state
/// than the allocator can give, an abort no caller can catch; the cases
/// just past them are small enough to allocate, so a model without the
/// bounds fails here by assertion. At the bounds, and at the default
/// config, every backend evaluates.
#[test]
fn every_backend_rejects_what_config_validation_rejects() {
    let graph = hygcn_suite::graph::generator::preferential_attachment(256, 4, 1)
        .unwrap()
        .with_feature_len(32);
    let gcn = hygcn_suite::gcn::model::GcnModel::new(ModelKind::Gcn, 32, 0xC0DE).unwrap();
    type Edit = fn(&mut HyGcnConfig);
    let rejected: [(&str, Edit); 14] = [
        ("t_row = u64::MAX", |c| c.hbm.t_row = u64::MAX),
        ("channels = 0", |c| c.hbm.channels = 0),
        ("banks = 0", |c| c.hbm.banks = 0),
        ("t_burst = 0", |c| c.hbm.t_burst = 0),
        ("clock_ghz = NaN", |c| c.clock_ghz = f64::NAN),
        ("burst_bytes > row_bytes", |c| {
            c.hbm.burst_bytes = 2 * c.hbm.row_bytes
        }),
        ("2^11 channels", |c| c.hbm.channels = 1 << 11),
        ("2^10 channels x 2^11 banks", |c| {
            (c.hbm.channels, c.hbm.banks) = (1 << 10, 1 << 11)
        }),
        // Engine geometry past `MAX_ENGINE_DIM` used to overflow the lane
        // and PE products (a panic in a debug build, a wrapped count in
        // release).
        ("simd_cores = usize::MAX", |c| c.simd_cores = usize::MAX),
        ("simd_width = usize::MAX", |c| c.simd_width = usize::MAX),
        ("systolic_modules = usize::MAX", |c| {
            c.systolic_modules = usize::MAX
        }),
        ("module_rows = usize::MAX", |c| c.module_rows = usize::MAX),
        ("module_cols = usize::MAX", |c| c.module_cols = usize::MAX),
        ("module_group_vertices = usize::MAX", |c| {
            c.module_group_vertices = usize::MAX
        }),
    ];
    let accepted: [(&str, Edit); 4] = [
        ("default", |_| {}),
        ("2^10 channels", |c| c.hbm.channels = 1 << 10),
        ("16 channels x 2^16 banks", |c| {
            (c.hbm.channels, c.hbm.banks) = (16, 1 << 16)
        }),
        ("every engine dimension at 2^16", |c| {
            let dim = HyGcnConfig::MAX_ENGINE_DIM;
            assert_eq!(dim, 1 << 16);
            (c.simd_cores, c.simd_width, c.systolic_modules) = (dim, dim, dim);
            (c.module_rows, c.module_cols, c.module_group_vertices) = (dim, dim, dim);
        }),
    ];
    for (cases, ok) in [(&rejected[..], false), (&accepted[..], true)] {
        for (label, edit) in cases {
            let mut cfg = HyGcnConfig::default();
            edit(&mut cfg);
            for &id in BACKEND_IDS {
                let backend = resolve(id).unwrap();
                let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    backend.evaluate(&graph, &gcn, &cfg)
                }));
                match run {
                    Ok(Ok(_)) => assert!(ok, "{id} {label}: Ok for a config validation rejects"),
                    Ok(Err(SimError::Config(msg))) => {
                        assert!(!ok && !msg.is_empty(), "{id} {label}: {msg}")
                    }
                    Ok(Err(other)) => {
                        panic!("{id} {label}: expected SimError::Config, got {other}")
                    }
                    Err(_) => panic!("{id} {label}: panicked instead of returning a result"),
                }
            }
        }
    }
}

/// HBM timing is bounded at `HbmConfig::MAX_TIMING_CYCLES` (2^20):
/// past it every simulator backend returns a config error instead of a
/// cycle count that wrapped, and at it every backend still simulates.
#[test]
fn hbm_timing_past_the_bound_is_an_error_on_every_simulator_backend() {
    let graph = hygcn_suite::graph::generator::preferential_attachment(256, 4, 1)
        .unwrap()
        .with_feature_len(32);
    let gcn = hygcn_suite::gcn::model::GcnModel::new(ModelKind::Gcn, 32, 0xC0DE).unwrap();
    let bound = HbmConfig::MAX_TIMING_CYCLES;
    assert_eq!(bound, 1 << 20);
    type Set = fn(&mut HbmConfig, u64);
    let fields: [(&str, Set); 3] = [
        ("t_burst", |h, v| h.t_burst = v),
        ("t_row", |h, v| h.t_row = v),
        ("t_cas", |h, v| h.t_cas = v),
    ];
    for (field, set) in fields {
        for (cycles, ok) in [(u64::MAX, false), (bound + 1, false), (bound, true)] {
            let mut cfg = HyGcnConfig::default();
            set(&mut cfg.hbm, cycles);
            for id in ["cycle", "seed", "analytical"] {
                let backend = resolve(id).unwrap();
                let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    backend.evaluate(&graph, &gcn, &cfg)
                }));
                let label = format!("{id} {field} = {cycles}");
                match run {
                    Ok(Ok(report)) => assert!(ok && report.cycles > 0, "{label}: {report:?}"),
                    Ok(Err(SimError::Config(msg))) => {
                        assert!(!ok && msg.contains(field), "{label}: {msg}")
                    }
                    Ok(Err(other)) => panic!("{label}: expected SimError::Config, got {other}"),
                    Err(_) => panic!("{label}: panicked instead of returning a result"),
                }
            }
        }
    }
}

/// A span packs its row, bank and burst count into 8 bytes
/// (`SpanTuple`), so the geometry and the workload bound them: past
/// 2^16 banks, past 2^15 bursts per row, or with a top address whose
/// row reaches 2^32 - 1, every simulator backend returns the same
/// config error instead of truncating a field or panicking; at the
/// geometry bounds every backend still simulates.
#[test]
fn spans_that_would_not_fit_8_bytes_are_an_error_on_every_simulator_backend() {
    const { assert!(std::mem::size_of::<SpanTuple>() == 8) };
    let small = hygcn_suite::graph::generator::preferential_attachment(256, 4, 1)
        .unwrap()
        .with_feature_len(32);
    let small_gcn = hygcn_suite::gcn::model::GcnModel::new(ModelKind::Gcn, 32, 0xC0DE).unwrap();
    // 2^18 vertices of 16 KB features fill 4 GB before the other
    // regions; one channel and one bank of 1-byte rows make every
    // address its own row, so the top row is past 2^32.
    let f_in = 4096;
    let big = GraphBuilder::new(1 << 18).feature_len(f_in).build();
    let big_gcn = hygcn_suite::gcn::model::GcnModel::new(ModelKind::Gcn, f_in, 0xC0DE).unwrap();
    let with_hbm = |hbm| HyGcnConfig {
        hbm,
        input_buffer_bytes: 1 << 20,
        aggregation_buffer_bytes: 1 << 20,
        ..HyGcnConfig::default()
    };
    let base = HbmConfig::hbm1();
    let bursts_per_row = |bursts: u64| HbmConfig {
        row_bytes: bursts * base.burst_bytes,
        ..base
    };
    let byte_rows = HbmConfig {
        channels: 1,
        banks: 1,
        row_bytes: 1,
        burst_bytes: 1,
        ..base
    };
    let cases = [
        (
            "2^17 banks",
            &small,
            &small_gcn,
            with_hbm(HbmConfig {
                banks: 1 << 17,
                ..base
            }),
            Some("banks"),
        ),
        (
            "2^16 bursts per row",
            &small,
            &small_gcn,
            with_hbm(bursts_per_row(1 << 16)),
            Some("burst"),
        ),
        (
            "top row past u32::MAX",
            &big,
            &big_gcn,
            with_hbm(byte_rows),
            Some("row"),
        ),
        (
            "2^16 banks",
            &small,
            &small_gcn,
            with_hbm(HbmConfig {
                banks: 1 << 16,
                ..base
            }),
            None,
        ),
        (
            "2^15 bursts per row",
            &small,
            &small_gcn,
            with_hbm(bursts_per_row(1 << 15)),
            None,
        ),
    ];
    for (label, graph, model, cfg, rejected) in cases {
        let mut errors = Vec::new();
        for id in ["cycle", "seed", "analytical"] {
            let backend = resolve(id).unwrap();
            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                backend.evaluate(graph, model, &cfg)
            }));
            match (run, rejected) {
                (Ok(Err(SimError::Config(msg))), Some(field)) => {
                    assert!(msg.contains(field), "{id} {label}: {msg}");
                    errors.push(msg);
                }
                (Ok(Ok(report)), None) => assert!(report.cycles > 0, "{id} {label}"),
                (Ok(other), _) => panic!("{id} {label}: unexpected {other:?}"),
                (Err(_), _) => panic!("{id} {label}: panicked instead of returning a result"),
            }
        }
        errors.dedup();
        assert!(errors.len() <= 1, "{label}: backends disagree: {errors:?}");
    }
}

/// A memory request holds its size in a `u32`, so a design point whose
/// largest request is past `u32::MAX` bytes is a config error on every
/// simulator backend, from input validation before anything is
/// simulated, instead of a size that `cycle` and `seed` truncate alike.
/// Without sparsity elimination every chunk loads the source features
/// in sweeps of an Input Buffer half: 2^16 vertices of 64 KB features
/// are one 4 GB sweep, a byte past the bound; one vertex fewer fits.
#[test]
fn requests_past_u32_bytes_are_an_error_on_every_simulator_backend() {
    use hygcn_suite::core::validate::validate_inputs;
    let f_in = 1 << 14;
    let gcn = hygcn_suite::gcn::model::GcnModel::new(ModelKind::Gcn, f_in, 0xC0DE).unwrap();
    let cfg = HyGcnConfig {
        input_buffer_bytes: 1 << 33,
        sparsity_elimination: false,
        ..HyGcnConfig::default()
    };
    let sweep = GraphBuilder::new(1 << 16).feature_len(f_in).build();
    for id in ["cycle", "seed", "analytical"] {
        let backend = resolve(id).unwrap();
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            backend.evaluate(&sweep, &gcn, &cfg)
        }));
        match run {
            Ok(Err(SimError::Config(msg))) => assert!(
                msg.contains("feature load request of 4294967296 bytes"),
                "{id}: {msg}"
            ),
            Ok(other) => panic!("{id}: expected SimError::Config, got {other:?}"),
            Err(_) => panic!("{id}: panicked instead of returning a result"),
        }
    }
    let fits = GraphBuilder::new((1 << 16) - 1).feature_len(f_in).build();
    assert!(validate_inputs(&fits, &gcn, &cfg).is_ok());
}

/// `Simulator::simulate_lanes` replays the configs that differ only in
/// timing as the lanes of one pass. Batches mixing `t_burst`, `t_row`,
/// `t_cas`, the clock and timeline recording, under both controllers
/// (interleaved, so the two service orders split and rejoin in input
/// order) and on GCN and GSC (sampling), must report per config exactly
/// what `simulate` and the seed `simulate_reference` report, directly
/// and through the `cycle` backend's `evaluate_lanes`. Per service
/// order, GCN's six valid timings replay as a 4-lane and a 2-lane pass,
/// GSC's three as one pass. A lane whose `t_row` is past the bound
/// fails alone with `SimError::Config`.
#[test]
fn simulate_lanes_equals_one_simulation_per_config() {
    use hygcn_suite::core::Simulator;
    use hygcn_suite::mem::hbm::ControllerPolicy;
    let graph = hygcn_suite::graph::generator::rmat(1024, 8192, Default::default(), 21)
        .unwrap()
        .with_feature_len(32);
    let too_slow = HbmConfig::MAX_TIMING_CYCLES + 1;
    // (t_burst, t_row, t_cas, clock_ghz, record_timeline)
    let timings = [
        (1, 28, 14, 1.0, false),
        (2, 14, 7, 1.5, true),
        (1, too_slow, 14, 1.0, false),
        (1, 56, 0, 0.7, false),
        (3, 5, 20, 2.0, true),
        (1, 28, 14, 1.0, true),
        (2, 40, 3, 1.2, false),
    ];
    for (kind, lanes) in [(ModelKind::Gcn, 7), (ModelKind::GraphSage, 4)] {
        let model = hygcn_suite::gcn::model::GcnModel::new(kind, 32, 0xC0DE).unwrap();
        let mut configs = Vec::new();
        for &(t_burst, t_row, t_cas, clock_ghz, record_timeline) in &timings[..lanes] {
            for controller in [
                ControllerPolicy::InOrder,
                ControllerPolicy::FrFcfs { window: 16 },
            ] {
                configs.push(HyGcnConfig {
                    clock_ghz,
                    record_timeline,
                    aggregation_buffer_bytes: 1 << 15,
                    hbm: HbmConfig {
                        t_burst,
                        t_row,
                        t_cas,
                        controller,
                        ..HbmConfig::hbm1()
                    },
                    ..HyGcnConfig::default()
                });
            }
        }
        let direct = Simulator::simulate_lanes(&graph, &model, &configs);
        let via_backend = CycleAccurateBackend.evaluate_lanes(&graph, &model, &configs);
        assert_eq!(direct.len(), configs.len());
        assert_eq!(via_backend, direct, "{kind:?}");
        let mut cycles = Vec::new();
        for (cfg, lane) in configs.iter().zip(&direct) {
            let label = format!("{kind:?} {:?}", cfg.hbm);
            let sim = Simulator::new(cfg.clone());
            assert_eq!(lane, &sim.simulate(&graph, &model), "{label}");
            if cfg.hbm.t_row == too_slow {
                assert!(
                    matches!(lane, Err(SimError::Config(m)) if m.contains("t_row")),
                    "{label}: {lane:?}"
                );
                continue;
            }
            let report = lane.as_ref().unwrap();
            assert_eq!(
                report,
                &sim.simulate_reference(&graph, &model).unwrap(),
                "{label}"
            );
            assert!(report.chunks > 1, "{label}: one chunk replays one step");
            assert_eq!(report.timeline.is_empty(), !cfg.record_timeline, "{label}");
            cycles.push(report.cycles);
        }
        cycles.sort_unstable();
        cycles.dedup();
        assert!(
            cycles.len() > 4,
            "{kind:?}: the timings must move the cycles: {cycles:?}"
        );
    }
}

/// `simulate_lanes` over one decode class that mixes both controllers,
/// repeated timings and differing clocks and timeline recording: each
/// distinct (service order, timing) replays once, and each config's
/// report must still equal its own `simulate` and `simulate_reference`.
/// Coordinated, FR-FCFS keeps arrival order (its schedule is `None`), so
/// both controllers share the in-order lanes and report alike. With
/// FCFS batches on the row-interleaved mapping and a 32 KB Aggregation
/// Buffer FR-FCFS reorders, so its points replay their own schedule and
/// report differently.
#[test]
fn simulate_lanes_shares_a_lane_per_service_order_and_timing() {
    use hygcn_suite::core::Simulator;
    use hygcn_suite::mem::hbm::ControllerPolicy;
    use hygcn_suite::mem::scheduler::CoordinationMode;
    let graph = hygcn_suite::graph::generator::rmat(1024, 8192, Default::default(), 21)
        .unwrap()
        .with_feature_len(32);
    let model = hygcn_suite::gcn::model::GcnModel::new(ModelKind::Gcn, 32, 0xC0DE).unwrap();
    // (t_burst, t_row, t_cas, clock_ghz, record_timeline): five points
    // over three timings.
    let points = [
        (1, 28, 14, 1.0, false),
        (2, 14, 7, 1.5, true),
        (1, 28, 14, 0.7, true),
        (1, 56, 0, 1.0, false),
        (2, 14, 7, 1.5, false),
    ];
    let coordinated = HyGcnConfig::default();
    let uncoordinated = HyGcnConfig {
        coordination: CoordinationMode::Fcfs,
        hbm: HbmConfig::hbm1_uncoordinated(),
        aggregation_buffer_bytes: 1 << 15,
        ..HyGcnConfig::default()
    };
    for (base, keeps_order) in [(coordinated, true), (uncoordinated, false)] {
        let mut configs = Vec::new();
        for &(t_burst, t_row, t_cas, clock_ghz, record_timeline) in &points {
            for controller in [
                ControllerPolicy::InOrder,
                ControllerPolicy::FrFcfs { window: 32 },
            ] {
                configs.push(HyGcnConfig {
                    clock_ghz,
                    record_timeline,
                    hbm: HbmConfig {
                        t_burst,
                        t_row,
                        t_cas,
                        controller,
                        ..base.hbm
                    },
                    ..base.clone()
                });
            }
        }
        let lanes = Simulator::simulate_lanes(&graph, &model, &configs);
        assert_eq!(
            CycleAccurateBackend.evaluate_lanes(&graph, &model, &configs),
            lanes
        );
        for (cfg, lane) in configs.iter().zip(&lanes) {
            let label = format!("{:?} {:?}", cfg.coordination, cfg.hbm);
            let sim = Simulator::new(cfg.clone());
            let report = lane.as_ref().unwrap();
            assert_eq!(report, &sim.simulate(&graph, &model).unwrap(), "{label}");
            assert_eq!(
                report,
                &sim.simulate_reference(&graph, &model).unwrap(),
                "{label}"
            );
            assert_eq!(report.timeline.is_empty(), !cfg.record_timeline, "{label}");
        }
        // Each point's FR-FCFS report equals its in-order twin's exactly
        // when FR-FCFS keeps arrival order.
        for (i, twins) in lanes.chunks(2).enumerate() {
            let (in_order, frfcfs) = (twins[0].as_ref().unwrap(), twins[1].as_ref().unwrap());
            assert_eq!(in_order == frfcfs, keeps_order, "point {i}");
        }
    }
}

#[test]
fn analytical_rank_correlates_with_cycle_accurate_on_the_pinned_grid() {
    let points = fidelity_grid().enumerate().unwrap();
    assert_eq!(points.len(), 20, "the fidelity grid is pinned at 20 points");
    let graph = points[0].workload.build().unwrap();
    let model = ModelKind::Gcn;
    let gcn = hygcn_suite::gcn::model::GcnModel::new(model, graph.feature_len(), 0xC0DE).unwrap();

    let mut cycle_cycles = Vec::new();
    let mut ana_cycles = Vec::new();
    let mut cycle_dram = Vec::new();
    let mut ana_dram = Vec::new();
    for p in &points {
        let c = CycleAccurateBackend
            .evaluate(&graph, &gcn, &p.config)
            .unwrap();
        let a = AnalyticalBackend.evaluate(&graph, &gcn, &p.config).unwrap();
        cycle_cycles.push(c.cycles as f64);
        ana_cycles.push(a.cycles as f64);
        cycle_dram.push(c.dram_bytes() as f64);
        ana_dram.push(a.dram_bytes() as f64);
    }
    let rho_cycles = spearman(&cycle_cycles, &ana_cycles);
    let rho_dram = spearman(&cycle_dram, &ana_dram);
    println!("fidelity: rho(cycles) = {rho_cycles:.3}, rho(dram) = {rho_dram:.3}");
    assert!(
        rho_cycles >= 0.8,
        "analytical cycles must rank-correlate with cycle-accurate: rho = {rho_cycles:.3}\n\
         cycle: {cycle_cycles:?}\nanalytical: {ana_cycles:?}"
    );
    assert!(
        rho_dram >= 0.8,
        "analytical DRAM traffic must rank-correlate: rho = {rho_dram:.3}"
    );
}

/// The screening-speed acceptance, measured on the Fig. 15 space
/// itself: the three ablation datasets at their bench scales, sparsity
/// on/off. Workload synthesis is shared by every backend (the campaign
/// builds each graph once regardless of evaluator), so the screening
/// economics live in the per-point evaluation time — which is what this
/// measures. The release-build margin is ~500x (recorded in
/// CHANGES.md); the assertion is a lenient 10x so debug builds and CI
/// timing noise cannot flake the suite.
#[test]
fn analytical_screening_is_much_faster_than_simulation() {
    // The Fig. 15 space: CR/CS/PB at bench scale (1.0), GCN,
    // sparsity on/off — see `hygcn_bench::figures::fig15`.
    let space = ConfigSpace::new(
        vec![
            WorkloadSpec::dataset(DatasetKey::Cr, 1.0, 0x5EED),
            WorkloadSpec::dataset(DatasetKey::Cs, 1.0, 0x5EED),
            WorkloadSpec::dataset(DatasetKey::Pb, 1.0, 0x5EED),
        ],
        vec![ModelKind::Gcn],
    )
    .with_axis(Axis::parse("sparsity", "on,off").unwrap());
    let points = space.enumerate().unwrap();
    assert_eq!(points.len(), 6);

    let mut cycle_s = 0.0;
    let mut analytical_s = 0.0;
    for (widx, w) in space.workloads.iter().enumerate() {
        let graph = w.build().unwrap();
        let gcn =
            hygcn_suite::gcn::model::GcnModel::new(ModelKind::Gcn, graph.feature_len(), 0xC0DE)
                .unwrap();
        for p in points.iter().filter(|p| p.workload_idx == widx) {
            // Warm, then time each backend on the point.
            CycleAccurateBackend
                .evaluate(&graph, &gcn, &p.config)
                .unwrap();
            AnalyticalBackend.evaluate(&graph, &gcn, &p.config).unwrap();
            let t0 = Instant::now();
            CycleAccurateBackend
                .evaluate(&graph, &gcn, &p.config)
                .unwrap();
            cycle_s += t0.elapsed().as_secs_f64();
            let t0 = Instant::now();
            AnalyticalBackend.evaluate(&graph, &gcn, &p.config).unwrap();
            analytical_s += t0.elapsed().as_secs_f64();
        }
    }
    assert!(
        analytical_s * 10.0 < cycle_s,
        "analytical screening must be >=10x faster on the Fig. 15 space: \
         cycle {cycle_s:.4}s vs analytical {analytical_s:.6}s ({:.0}x)",
        cycle_s / analytical_s.max(1e-12)
    );
    println!(
        "fig15-space screening speedup: {:.0}x (cycle {:.2} ms/pt, analytical {:.1} us/pt)",
        cycle_s / analytical_s.max(1e-12),
        cycle_s / points.len() as f64 * 1e3,
        analytical_s / points.len() as f64 * 1e6,
    );
}

#[test]
fn shared_store_isolates_all_seven_backends() {
    let dir = std::env::temp_dir().join("hygcn-backends-e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let store = dir.join("seven-backends.jsonl");
    std::fs::remove_file(&store).ok();

    let space = || {
        ConfigSpace::new(
            vec![WorkloadSpec::dataset(DatasetKey::Ib, 0.1, 3)],
            vec![ModelKind::Gcn],
        )
        .with_axis(Axis::parse("sparsity", "on,off").unwrap())
    };

    let ids = [
        "cycle",
        "seed",
        "analytical",
        "cpu",
        "gpu",
        "cpu-trace",
        "exec-pattern",
    ];
    let mut first_jsons: Vec<Vec<String>> = Vec::new();
    // Every backend runs the same space into the same store: each must
    // simulate all its own points (zero cross-backend hits)...
    for id in ids {
        let backend = resolve(id).unwrap();
        let report = Campaign::new(space())
            .with_backend(backend)
            .with_store(&store)
            .run()
            .unwrap();
        assert_eq!(
            (report.simulated, report.cache_hits),
            (2, 0),
            "{id}: a fresh backend must never hit another backend's cache"
        );
        first_jsons.push(
            report
                .points
                .iter()
                .map(|p| p.expect_done().report_json.clone())
                .collect(),
        );
    }
    // ...and each backend's own re-run is bit-identical, 100% cached.
    for (id, first) in ids.iter().zip(&first_jsons) {
        let report = Campaign::new(space())
            .with_backend(resolve(id).unwrap())
            .with_store(&store)
            .run()
            .unwrap();
        assert_eq!((report.simulated, report.cache_hits), (0, 2), "{id}");
        let again: Vec<String> = report
            .points
            .iter()
            .map(|p| p.expect_done().report_json.clone())
            .collect();
        assert_eq!(&again, first, "{id}: cached re-run must be bit-identical");
    }
    // Cycle and seed agree numerically (the oracle contract) while
    // remaining separately keyed — the bit-identity is exactly why the
    // key isolation matters; the other five are provenance-marked.
    assert_eq!(first_jsons[0], first_jsons[1], "seed is the cycle oracle");
    for (id, jsons) in ids.iter().zip(&first_jsons).skip(2) {
        for j in jsons {
            assert!(
                j.contains(&format!("\"backend\": \"{id}\"")),
                "{id} reports must carry provenance"
            );
        }
    }
    std::fs::remove_file(&store).ok();
}

#[test]
fn platform_backends_populate_comparable_fields_only() {
    let space = ConfigSpace::new(
        vec![WorkloadSpec::dataset(DatasetKey::Pb, 0.1, 3)],
        vec![ModelKind::Gcn],
    );
    for id in ["cpu", "gpu"] {
        let report = Campaign::new(space.clone().with_backend_id(id))
            .with_backend(resolve(id).unwrap())
            .run()
            .unwrap();
        let p = report.points[0].expect_done();
        assert!(p.cycles > 0 && p.time_s > 0.0, "{id}");
        assert!(p.energy_j > 0.0 && p.dram_bytes > 0, "{id}");
        // Accelerator-only observability is zeroed in the stored report.
        assert!(p.report_json.contains("\"channels\": 0"), "{id}");
        assert!(p.report_json.contains("\"chunks\": 0"), "{id}");
        assert!(p.report_json.contains("\"timeline_steps\": 0"), "{id}");
    }
    // The ranking the paper's Fig. 10 rests on: GPU beats CPU, the
    // accelerator beats both.
    let run = |id: &str| {
        Campaign::new(space.clone().with_backend_id(id))
            .with_backend(resolve(id).unwrap())
            .run()
            .unwrap()
            .points[0]
            .expect_done()
            .time_s
    };
    let (cpu, gpu, hygcn) = (run("cpu"), run("gpu"), run("cycle"));
    assert!(gpu < cpu);
    assert!(hygcn < gpu);
}

/// The `cpu-trace` contract: Table 2's characterization as a report
/// whose nine named metrics are exactly a direct `characterize` call's,
/// with no run totals invented, whatever the config says.
#[test]
fn cpu_trace_reports_the_characterization_and_no_run_totals() {
    let graph = WorkloadSpec::dataset(DatasetKey::Cl, 0.05, 3)
        .build()
        .unwrap();
    let gcn = hygcn_suite::gcn::model::GcnModel::new(ModelKind::Gcn, graph.feature_len(), 0xC0DE)
        .unwrap();
    let backend = resolve("cpu-trace").unwrap();
    assert_eq!(backend.backend_id(), "cpu-trace");
    let r = backend
        .evaluate(&graph, &gcn, &HyGcnConfig::default())
        .unwrap();
    assert_eq!(r.provenance, "cpu-trace");
    assert_eq!(
        (r.cycles, r.time_s, r.energy_j(), r.dram_bytes()),
        (0, 0.0, 0.0, 0)
    );
    assert_eq!(r.bandwidth_utilization, 0.0);
    assert!(r.mem_channels.is_empty());
    let w = LayerWorkload::of(&graph, &gcn, 0);
    assert_eq!((r.elem_ops, r.macs), (w.agg_elem_ops, w.combine_macs));
    let direct = characterize(&graph, &gcn, &CpuParams::default(), 2_000_000);
    assert_eq!(r.metrics, direct.to_metrics());
    assert_eq!(r.metrics.len(), 9);
    // The config, sampling override included, does not reach the model.
    let sampled = HyGcnConfig {
        sample_policy_override: Some(SamplePolicy::Factor(4)),
        simd_cores: 1,
        ..HyGcnConfig::default()
    };
    assert_eq!(backend.evaluate(&graph, &gcn, &sampled).unwrap(), r);
    // A feature-length mismatch is the same typed error the other
    // backends return.
    let wrong = hygcn_suite::gcn::model::GcnModel::new(ModelKind::Gcn, 8, 0xC0DE).unwrap();
    assert!(matches!(
        backend.evaluate(&graph, &wrong, &HyGcnConfig::default()),
        Err(SimError::Gcn(_))
    ));
}
