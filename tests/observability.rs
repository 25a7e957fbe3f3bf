//! Inertness contract of the `hygcn-obs` collector: turning tracing on
//! may record spans and counters, but it must never change a single
//! simulated bit. Every inertness test here runs the same work twice —
//! collection off, then on — and asserts bit-identical results:
//! `SimReport`s from every backend, campaign store bytes, and cache
//! keys.
//!
//! Graph synthesis is one phase (`workload_build`) wherever it happens:
//! a warm figure render that only reads the store builds nothing, and a
//! cold figure run builds each workload once.
//!
//! The span-program cache contract is pinned here too, because its
//! evidence is the collector's `span_program_build` count: a sweep over
//! the fields that bind at replay decodes once per model, every field
//! that shapes the request stream forces a new decode, and every point
//! still equals the seed oracle.
//!
//! The collector's state is process-global, so every test serializes on
//! one mutex; a poisoned lock (a failed sibling) is recovered, not
//! propagated, to keep failures independent.

#![allow(clippy::field_reassign_with_default)]

use std::sync::{Mutex, MutexGuard};

use hygcn_bench::figures::{find_figure, run_figure, FigureCtx};
use hygcn_suite::baseline::backend::resolve;
use hygcn_suite::core::config::{HyGcnConfig, PipelineMode};
use hygcn_suite::core::Simulator;
use hygcn_suite::dse::campaign::{Campaign, MODEL_SEED};
use hygcn_suite::dse::search::{run_search, BudgetMetric, RungReport, SearchStrategy};
use hygcn_suite::dse::space::{cache_key, Axis, ConfigSpace, WorkloadSpec};
use hygcn_suite::gcn::model::{GcnModel, ModelKind};
use hygcn_suite::graph::datasets::DatasetKey;
use hygcn_suite::graph::generator::{erdos_renyi, rmat, RmatParams};
use hygcn_suite::graph::Graph;
use hygcn_suite::mem::address::MappingScheme;
use hygcn_suite::mem::hbm::ControllerPolicy;
use hygcn_suite::mem::scheduler::CoordinationMode;
use hygcn_suite::obs;
use proptest::prelude::*;

static OBS_LOCK: Mutex<()> = Mutex::new(());

/// Take the global collector lock and restore the off-and-empty state
/// the rest of the process assumes.
fn obs_guard() -> MutexGuard<'static, ()> {
    let guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    obs::disable();
    obs::reset();
    guard
}

const ALL_BACKENDS: [&str; 7] = [
    "cycle",
    "seed",
    "analytical",
    "cpu",
    "gpu",
    "cpu-naive",
    "gpu-sharded",
];

fn workload() -> (hygcn_suite::graph::Graph, GcnModel) {
    let g = erdos_renyi(512, 4096, 42).unwrap().with_feature_len(64);
    let m = GcnModel::new(ModelKind::Gcn, 64, 7).unwrap();
    (g, m)
}

/// Every backend produces the same report whether or not the collector
/// is recording — the tentpole "never perturbs" contract, backend by
/// backend.
#[test]
fn every_backend_is_bit_identical_with_collection_on() {
    let _guard = obs_guard();
    let (graph, model) = workload();
    let mut cfg = HyGcnConfig::default();
    cfg.aggregation_buffer_bytes = 1 << 16; // several chunks
    for id in ALL_BACKENDS {
        let backend = resolve(id).unwrap_or_else(|| panic!("unknown backend {id}"));
        let quiet = backend.evaluate(&graph, &model, &cfg).unwrap();
        obs::reset();
        obs::enable();
        let traced = backend.evaluate(&graph, &model, &cfg).unwrap();
        obs::disable();
        assert_eq!(traced, quiet, "{id}: collection perturbed the report");
        // And the traced run did actually record its evaluation.
        let snap = obs::snapshot();
        assert!(
            snap.evals.iter().any(|h| h.backend == id && h.count == 1),
            "{id}: no eval latency recorded while enabled"
        );
    }
    obs::reset();
}

/// Golden-replay flavor: the committed `gcn_latency` fixture is
/// reproduced byte-for-byte with tracing enabled, so the snapshot suite
/// and the observability layer can never drift apart silently.
#[test]
fn golden_fixture_replays_bit_identically_under_tracing() {
    let _guard = obs_guard();
    let (graph, model) = workload();
    let mut cfg = HyGcnConfig::default();
    cfg.aggregation_buffer_bytes = 1 << 16;
    let path =
        std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/gcn_latency.json");
    let want = std::fs::read_to_string(&path).unwrap();
    obs::reset();
    obs::enable();
    let report = hygcn_suite::core::Simulator::new(cfg)
        .simulate(&graph, &model)
        .unwrap();
    obs::disable();
    obs::reset();
    assert_eq!(
        report.to_json(),
        want,
        "tracing perturbed the golden gcn_latency replay"
    );
}

/// A campaign writes byte-identical store files with collection off and
/// on: spans and counters never leak into persisted records.
#[test]
fn campaign_store_bytes_are_identical_with_collection_on() {
    let _guard = obs_guard();
    let dir = std::env::temp_dir().join("hygcn-obs-store-identity");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let space = || {
        ConfigSpace::new(
            vec![WorkloadSpec::dataset(DatasetKey::Ib, 0.1, 3)],
            vec![ModelKind::Gcn],
        )
        .with_axis(Axis::parse("aggbuf-mb", "4,16").unwrap())
        .with_axis(Axis::parse("sparsity", "on,off").unwrap())
    };
    let quiet_store = dir.join("quiet.jsonl");
    let traced_store = dir.join("traced.jsonl");

    let quiet = Campaign::new(space())
        .with_store(&quiet_store)
        .run()
        .unwrap();

    obs::reset();
    obs::enable();
    let traced = Campaign::new(space())
        .with_store(&traced_store)
        .run()
        .unwrap();
    obs::disable();

    assert_eq!(traced.points, quiet.points, "collection perturbed points");
    assert_eq!(
        std::fs::read(&traced_store).unwrap(),
        std::fs::read(&quiet_store).unwrap(),
        "collection perturbed the persisted store bytes"
    );
    // The traced run counted its work.
    assert_eq!(obs::counter_value(obs::Counter::PointsTotal), 4);
    assert_eq!(obs::counter_value(obs::Counter::PointsSimulated), 4);
    obs::reset();
    std::fs::remove_dir_all(&dir).ok();
}

/// Cache keys are a pure function of (backend, config, model, workload)
/// — the collector state cannot reach them. Locks in the exact keys for
/// a representative point per backend.
#[test]
fn cache_keys_ignore_collector_state() {
    let _guard = obs_guard();
    let cfg = HyGcnConfig::default();
    let canon = WorkloadSpec::dataset(DatasetKey::Ib, 0.1, 3)
        .canon()
        .unwrap();
    let quiet: Vec<u64> = ALL_BACKENDS
        .iter()
        .map(|b| cache_key(b, &cfg, ModelKind::Gcn, &canon))
        .collect();
    obs::reset();
    obs::enable();
    let traced: Vec<u64> = ALL_BACKENDS
        .iter()
        .map(|b| cache_key(b, &cfg, ModelKind::Gcn, &canon))
        .collect();
    obs::disable();
    obs::reset();
    assert_eq!(traced, quiet);
    // The keys themselves are distinct per backend (cycle elides its id;
    // the others must not collide with it or each other).
    let mut sorted = quiet.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), ALL_BACKENDS.len(), "cache keys collided");
}

/// One instrumented pass over the cycle, seed, and campaign paths
/// covers the whole span taxonomy — at least six distinct phases, which
/// is what makes a `--trace-out` file worth opening in Perfetto.
#[test]
fn trace_covers_at_least_six_distinct_phases() {
    let _guard = obs_guard();
    let dir = std::env::temp_dir().join("hygcn-obs-taxonomy");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let (graph, model) = workload();
    let mut cfg = HyGcnConfig::default();
    cfg.aggregation_buffer_bytes = 1 << 16;

    obs::reset();
    obs::enable();
    resolve("cycle")
        .unwrap()
        .evaluate(&graph, &model, &cfg)
        .unwrap();
    resolve("seed")
        .unwrap()
        .evaluate(&graph, &model, &cfg)
        .unwrap();
    let space = ConfigSpace::new(
        vec![WorkloadSpec::dataset(DatasetKey::Ib, 0.1, 3)],
        vec![ModelKind::Gcn],
    )
    .with_axis(Axis::parse("aggbuf-mb", "4,16").unwrap());
    Campaign::new(space)
        .with_store(dir.join("taxonomy.jsonl"))
        .run()
        .unwrap();
    obs::disable();

    let events = obs::take_events();
    let mut phases: Vec<&str> = events.iter().map(|e| e.phase.name()).collect();
    phases.sort_unstable();
    phases.dedup();
    assert!(
        phases.len() >= 6,
        "expected >= 6 distinct phases, got {phases:?}"
    );
    for must in [
        "aggregation",
        "combination",
        "backend_eval",
        "schedule_build",
        "store_append",
        "span_program_build",
        "span_replay",
    ] {
        assert!(phases.contains(&must), "missing phase {must} in {phases:?}");
    }
    // Spans nest sanely: every event has a positive duration and a
    // stable thread id.
    assert!(events.iter().all(|e| e.dur_us >= 1 && e.tid >= 1));
    obs::reset();
    std::fs::remove_dir_all(&dir).ok();
}

/// Graph syntheses recorded since the last `obs::reset`.
fn workload_builds() -> u64 {
    obs::snapshot().phases[obs::Phase::WorkloadBuild as usize].count
}

/// Every figure number is a store read: once Fig. 2's `cpu-naive`
/// points, Table 2's `cpu-trace` point and Table 3's accelerator and
/// `exec-pattern` points are stored, a fresh context re-renders all
/// three without simulating or building a graph.
#[test]
fn warm_figure_renders_build_only_the_graphs_they_measure() {
    let _guard = obs_guard();
    let dir = std::env::temp_dir().join("hygcn-obs-warm-figures");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let store = dir.join("figures.jsonl");
    let render = |id, ctx: &mut FigureCtx| {
        run_figure(find_figure(id).unwrap(), ctx, Some(&store), None).unwrap()
    };
    let mut cold_ctx = FigureCtx::new(0.05);
    let cold = render("fig02", &mut cold_ctx);
    assert_eq!((cold.simulated, cold.cache_hits), (15, 0));
    let cold_t2 = render("table02", &mut cold_ctx);
    assert_eq!((cold_t2.simulated, cold_t2.cache_hits), (1, 0));
    let cold_t3 = render("table03", &mut cold_ctx);
    assert_eq!((cold_t3.simulated, cold_t3.cache_hits), (2, 0));

    let mut ctx = FigureCtx::new(0.05);
    obs::reset();
    obs::enable();
    let warm = render("fig02", &mut ctx);
    let fig02_builds = workload_builds();
    let warm_t2 = render("table02", &mut ctx);
    let table02_builds = workload_builds() - fig02_builds;
    let warm_t3 = render("table03", &mut ctx);
    let table03_builds = workload_builds() - fig02_builds - table02_builds;
    obs::disable();
    obs::reset();
    assert_eq!((warm.simulated, warm.cache_hits), (0, 15));
    assert_eq!(warm.output, cold.output);
    assert_eq!(fig02_builds, 0, "a warm fig02 builds no graph");
    assert_eq!((warm_t2.simulated, warm_t2.cache_hits), (0, 1));
    assert_eq!(warm_t2.output, cold_t2.output);
    assert_eq!(table02_builds, 0, "a warm table02 builds no graph");
    assert_eq!((warm_t3.simulated, warm_t3.cache_hits), (0, 2));
    assert_eq!(warm_t3.output, cold_t3.output);
    assert_eq!(table03_builds, 0, "a warm table03 builds no graph");
    std::fs::remove_dir_all(&dir).ok();
}

/// One figure run builds each workload once: on a cold store, fig10's
/// six datasets plus the ablation's two reordered PB graphs are the only
/// builds (the ablation's Reddit and PB come from fig10), and a
/// following Table 2 evaluates its `cpu-trace` point on the CL graph the
/// campaigns already built.
#[test]
fn a_figure_run_builds_each_workload_once() {
    let _guard = obs_guard();
    let dir = std::env::temp_dir().join("hygcn-obs-workload-memo");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let store = dir.join("figures.jsonl");
    let mut ctx = FigureCtx::new(0.05);
    let mut render = |id| {
        run_figure(find_figure(id).unwrap(), &mut ctx, Some(&store), None).unwrap();
    };
    obs::reset();
    obs::enable();
    render("fig10");
    render("ablation");
    let campaign_builds = workload_builds();
    render("table02");
    let table02_builds = workload_builds() - campaign_builds;
    obs::disable();
    obs::reset();
    assert_eq!(campaign_builds, 8, "one build per distinct workload");
    assert_eq!(table02_builds, 0, "table02 reuses the campaigns' CL graph");
    std::fs::remove_dir_all(&dir).ok();
}

/// Store opens recorded since the last `obs::reset`.
fn store_opens() -> u64 {
    obs::snapshot().phases[obs::Phase::StoreOpen as usize].count
}

/// A figure context opens its store once for every artifact it renders,
/// so a damaged line is quarantined, and counted, once per run. Three
/// artifacts render over a store whose second record has one flipped
/// byte: one `store_open` and one quarantined line, and the damaged
/// point simulates again. A fresh context opens the store again.
#[test]
fn a_figure_run_opens_its_store_once_and_counts_a_damaged_line_once() {
    let _guard = obs_guard();
    let dir = std::env::temp_dir().join("hygcn-obs-one-open");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let store = dir.join("figures.jsonl");
    let render = |id, ctx: &mut FigureCtx| {
        run_figure(find_figure(id).unwrap(), ctx, Some(&store), None).unwrap()
    };
    let cold = render("fig17", &mut FigureCtx::new(0.05));
    assert_eq!(cold.simulated, 6);
    let mut bytes = std::fs::read(&store).unwrap();
    let lines: Vec<usize> = (0..bytes.len()).filter(|&i| bytes[i] == b'\n').collect();
    bytes[(lines[0] + lines[1]) / 2] ^= 1;
    std::fs::write(&store, &bytes).unwrap();

    let mut ctx = FigureCtx::new(0.05);
    obs::reset();
    obs::enable();
    let runs = ["fig17", "fig15", "table03"].map(|id| render(id, &mut ctx));
    let opens = store_opens();
    let quarantined = obs::counter_value(obs::Counter::QuarantinedLines);
    let again = render("fig17", &mut FigureCtx::new(0.05));
    let fresh_opens = store_opens() - opens;
    obs::disable();
    obs::reset();
    assert_eq!((opens, quarantined), (1, 1), "one open, one damaged line");
    assert_eq!((runs[0].simulated, runs[0].cache_hits), (1, 5));
    assert_eq!(runs[0].output, cold.output);
    // fig15's sparsity=on cells and table03's PB point are fig17's
    // default-config cells.
    assert_eq!((runs[1].simulated, runs[1].cache_hits), (3, 3));
    assert_eq!((runs[2].simulated, runs[2].cache_hits), (1, 1));
    assert_eq!(fresh_opens, 1, "a fresh context opens the store again");
    assert_eq!((again.simulated, again.cache_hits), (0, 6));
    std::fs::remove_dir_all(&dir).ok();
}

/// A successive-halving search runs its analytical prefilter and every
/// rung against one open store, and its rung reports and survivors are
/// those of a search that opened the store once per rung.
#[test]
fn a_halving_search_opens_its_store_once() {
    let _guard = obs_guard();
    let dir = std::env::temp_dir().join("hygcn-obs-halving-open");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let store = dir.join("halving.jsonl");
    let space = ConfigSpace::new(
        vec![WorkloadSpec::dataset(DatasetKey::Ib, 0.2, 1)],
        vec![ModelKind::Gcn],
    )
    .with_axis(Axis::parse("aggbuf-mb", "2,4,8,16").unwrap())
    .with_axis(Axis::parse("sparsity", "on,off").unwrap());
    let strategy = SearchStrategy::SuccessiveHalving {
        eta: 2,
        rungs: 2,
        budget_metric: BudgetMetric::Cycles,
        analytical_prefilter: true,
    };
    obs::reset();
    obs::enable();
    let out = run_search(&space, &strategy, Some(&store));
    let opens = store_opens();
    obs::disable();
    obs::reset();
    let out = out.unwrap();
    assert_eq!(opens, 1, "prefilter and both rungs share one open");
    let summary = |r: &RungReport| {
        let keys: Vec<String> = r.survivors.iter().map(|k| format!("{k:016x}")).collect();
        (
            r.rung,
            r.fidelity,
            r.evaluated,
            r.simulated,
            r.cache_hits,
            keys,
        )
    };
    let keys = |ks: &[&str]| ks.iter().map(|k| k.to_string()).collect::<Vec<_>>();
    // The reports of the same search opening its store once per rung.
    assert_eq!(
        out.prefilter.as_ref().map(summary),
        Some((
            0,
            1.0,
            8,
            8,
            0,
            keys(&[
                "082baead0c0f7061",
                "70be367dca2edb4f",
                "83522a5773d28355",
                "a75aa4b39c5ae398"
            ])
        ))
    );
    let rungs: Vec<_> = out.rungs.iter().map(summary).collect();
    assert_eq!(
        rungs,
        [
            (
                0,
                0.5,
                4,
                4,
                0,
                keys(&["168d0c7a77d43817", "23c749dd85e821b0"])
            ),
            (
                1,
                1.0,
                2,
                2,
                0,
                keys(&["19e73efae9e67b50", "8f5187bb3ba23a37"])
            ),
        ]
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Span-program decodes recorded since the last `obs::reset`.
fn program_builds() -> u64 {
    obs::snapshot().phases[obs::Phase::SpanProgramBuild as usize].count
}

/// Simulates `cfg` and checks the report against the seed oracle.
fn simulate_checked(graph: &Graph, model: &GcnModel, cfg: &HyGcnConfig) {
    let sim = Simulator::new(cfg.clone());
    assert_eq!(
        sim.simulate(graph, model).unwrap(),
        sim.simulate_reference(graph, model).unwrap(),
        "{}",
        cfg.canon()
    );
}

/// A sweep over every field that binds at replay — clock, `t_row`,
/// `t_cas` and the controller — decodes one span program per model and
/// replays it for every point. GraphSage also samples once: its sample
/// and the sample's own plans persist on the parent graph. The FR-FCFS
/// half of the sweep orders the program once: one schedule miss, then
/// a hit for each of the other seven FR-FCFS points.
#[test]
fn timing_sweep_decodes_once_per_model() {
    let _guard = obs_guard();
    let graph = rmat(1024, 8192, RmatParams::default(), 11)
        .unwrap()
        .with_feature_len(64);
    // (model, plan memos per point: program + occupancy [+ sample])
    for (kind, memos) in [(ModelKind::Gcn, 2), (ModelKind::GraphSage, 3)] {
        let model = GcnModel::new(kind, 64, 5).unwrap();
        obs::reset();
        obs::enable();
        let mut points = 0;
        for clock_ghz in [1.0, 1.5] {
            for t_row in [14, 56] {
                for t_cas in [7, 14] {
                    for controller in [
                        ControllerPolicy::InOrder,
                        ControllerPolicy::FrFcfs { window: 32 },
                    ] {
                        let mut cfg = HyGcnConfig::default();
                        cfg.clock_ghz = clock_ghz;
                        cfg.hbm.t_row = t_row;
                        cfg.hbm.t_cas = t_cas;
                        cfg.hbm.controller = controller;
                        simulate_checked(&graph, &model, &cfg);
                        points += 1;
                    }
                }
            }
        }
        obs::disable();
        assert_eq!(program_builds(), 1, "{kind:?}: one decode serves the sweep");
        let counter = obs::counter_value;
        assert_eq!(
            counter(obs::Counter::PlanCacheMisses),
            memos + 1,
            "{kind:?}"
        );
        assert_eq!(
            counter(obs::Counter::PlanCacheHits),
            (points - 1) * memos + 7,
            "{kind:?}"
        );
        assert_eq!(counter(obs::Counter::PlanCacheEvictions), 0, "{kind:?}");
    }
    obs::reset();
}

/// An FR-FCFS schedule is ordered once per (program, window) while it
/// is the graph's newest: a sweep over two windows and two `t_row`
/// values builds one per window and reuses it for the second `t_row`.
/// The memo keeps one schedule, so a return to the first window orders
/// it again. Every report still equals the seed oracle.
#[test]
fn frfcfs_schedule_is_ordered_once_per_window() {
    let _guard = obs_guard();
    let graph = rmat(1024, 8192, RmatParams::default(), 13)
        .unwrap()
        .with_feature_len(64);
    let model = GcnModel::new(ModelKind::Gcn, 64, 5).unwrap();
    // Warm the program and occupancy memos so that every miss below is
    // a schedule's.
    simulate_checked(&graph, &model, &HyGcnConfig::default());
    obs::reset();
    obs::enable();
    let mut points = 0;
    for (window, t_row) in [(4, 14), (4, 56), (32, 14), (32, 56), (4, 14)] {
        let mut cfg = HyGcnConfig::default();
        cfg.hbm.controller = ControllerPolicy::FrFcfs { window };
        cfg.hbm.t_row = t_row;
        simulate_checked(&graph, &model, &cfg);
        points += 1;
    }
    obs::disable();
    let counter = obs::counter_value;
    assert_eq!(program_builds(), 0);
    assert_eq!(
        counter(obs::Counter::PlanCacheMisses),
        3,
        "one per window, and the return to window 4"
    );
    // Each point hits its program and occupancy index; the two repeated
    // `t_row`s also hit their schedule.
    assert_eq!(counter(obs::Counter::PlanCacheHits), 2 * points + 2);
    // Window 32's schedule evicts window 4's, and the return evicts it.
    assert_eq!(counter(obs::Counter::PlanCacheEvictions), 2);
    obs::reset();
}

/// A campaign evaluates the points of one decode class (they differ
/// only in the controller, clock and timing) as one lane group: one
/// replay per distinct service order and timing. Over
/// `t-row × controller × clock-ghz`, at one and at two worker threads,
/// its reports must be byte-identical to simulating the same points one
/// at a time. FR-FCFS keeps arrival order on IB for both models, so
/// each model's twelve points ride on one 3-lane pass: eleven riders
/// and one decode per model, also at two threads, since one model's
/// points are one lane group.
#[test]
fn timing_lanes_match_one_point_at_a_time_at_any_thread_count() {
    let _guard = obs_guard();
    let space = ConfigSpace::new(
        vec![WorkloadSpec::dataset(DatasetKey::Ib, 0.1, 3)],
        vec![ModelKind::Gcn, ModelKind::GraphSage],
    )
    .with_axis(Axis::parse("t-row", "14,28,56").unwrap())
    .with_axis(Axis::parse("controller", "inorder,frfcfs").unwrap())
    .with_axis(Axis::parse("clock-ghz", "1.0,1.5").unwrap());
    let points = space.enumerate().unwrap();
    assert_eq!(points.len(), 24);
    let graph = points[0].workload.build().unwrap();
    let alone: Vec<String> = points
        .iter()
        .map(|p| {
            let model = GcnModel::new(p.model, graph.feature_len(), MODEL_SEED).unwrap();
            let report = Simulator::new(p.config.clone()).simulate(&graph, &model);
            report.unwrap().to_json_compact()
        })
        .collect();
    // The thread count is read per batch; the guard serializes every
    // test of this binary, so none reads the variable meanwhile.
    let saved = std::env::var("HYGCN_THREADS").ok();
    for threads in ["1", "2"] {
        std::env::set_var("HYGCN_THREADS", threads);
        obs::reset();
        obs::enable();
        let report = Campaign::new(space.clone()).run();
        obs::disable();
        let report = report.unwrap();
        assert_eq!(report.simulated, 24, "{threads} thread(s)");
        let lanes: Vec<String> = report.completed().map(|c| c.report_json.clone()).collect();
        assert_eq!(lanes, alone, "{threads} thread(s)");
        assert_eq!(
            obs::counter_value(obs::Counter::FrfcfsInOrder),
            2,
            "{threads} thread(s)"
        );
        assert_eq!(
            obs::counter_value(obs::Counter::TimingLanes),
            2 * 11,
            "{threads} thread(s)"
        );
        assert_eq!(
            program_builds(),
            2,
            "{threads} thread(s): one decode per model"
        );
    }
    match saved {
        Some(v) => std::env::set_var("HYGCN_THREADS", v),
        None => std::env::remove_var("HYGCN_THREADS"),
    }
    obs::reset();
}

/// A decode class of more than `MAX_LANES` timings splits into lane
/// groups, and at two threads one batch evaluates them side by side.
/// They still share one decode: the program memo builds a key once, and
/// a second caller waits for that build. So a five-value `t-row` sweep
/// of two models counts one `span_program_build` per model at one
/// thread and at two.
#[test]
fn lane_groups_of_one_decode_class_decode_once_at_any_thread_count() {
    let _guard = obs_guard();
    let space = ConfigSpace::new(
        vec![WorkloadSpec::dataset(DatasetKey::Ib, 0.1, 3)],
        vec![ModelKind::Gcn, ModelKind::GraphSage],
    )
    .with_axis(Axis::parse("t-row", "7,14,28,56,112").unwrap());
    // The thread count is read per batch; the guard serializes every
    // test of this binary, so none reads the variable meanwhile.
    let saved = std::env::var("HYGCN_THREADS").ok();
    for threads in ["1", "2"] {
        std::env::set_var("HYGCN_THREADS", threads);
        obs::reset();
        obs::enable();
        let report = Campaign::new(space.clone()).run();
        obs::disable();
        assert_eq!(report.unwrap().simulated, 10, "{threads} thread(s)");
        assert_eq!(
            program_builds(),
            2,
            "{threads} thread(s): one decode per decode class"
        );
    }
    match saved {
        Some(v) => std::env::set_var("HYGCN_THREADS", v),
        None => std::env::remove_var("HYGCN_THREADS"),
    }
    obs::reset();
}

/// A sweep runs every model over the same chunkings of one graph. The
/// occupancy-index memo keeps indexes past its one-entry floor while
/// their bitmaps fit one maximal index, so GCN builds the index of each
/// of five `aggregation_buffer_bytes` chunkings and GIN reuses all
/// five: the plan-memo misses are the ten programs and five indexes.
/// Only programs evict: the memo keeps one, so each of the nine after
/// the first replaces the one before.
#[test]
fn models_sweeping_five_chunkings_build_each_index_once() {
    let _guard = obs_guard();
    let graph = rmat(1024, 8192, RmatParams::default(), 14)
        .unwrap()
        .with_feature_len(64);
    obs::reset();
    obs::enable();
    for kind in [ModelKind::Gcn, ModelKind::Gin] {
        let model = GcnModel::new(kind, 64, 5).unwrap();
        for shift in 13..18 {
            let mut cfg = HyGcnConfig::default();
            cfg.aggregation_buffer_bytes = 1 << shift;
            simulate_checked(&graph, &model, &cfg);
        }
    }
    obs::disable();
    let counter = obs::counter_value;
    assert_eq!(program_builds(), 10);
    assert_eq!(
        counter(obs::Counter::PlanCacheMisses) - program_builds(),
        5,
        "one index build per chunking"
    );
    assert_eq!(counter(obs::Counter::PlanCacheEvictions), 9);
    obs::reset();
}

/// The benchmark sweep's axes (`aggbuf-mb` x `controller` x `t-row` x
/// `sparsity`) over GCN, GraphSage and GIN on a small graph, at one
/// thread. Each model's (aggbuf, sparsity) pair is one decode class,
/// evaluated as one lane group, and IB@0.1 is one chunk at every buffer
/// size. Misses: 30 programs and 30 FR-FCFS schedules (one each per
/// class), GraphSage's one sample, and one occupancy index on the graph
/// and one on the sample. Hits: the sample for GraphSage's other nine
/// classes, and the index for the other thirteen classes with sparsity
/// elimination on. Evictions: one entry per type and graph is kept, so
/// every program and schedule but the last on each graph is evicted
/// (19 + 19 on the graph, 9 + 9 on the sample). A retention change that
/// loses a hit or builds a plan twice fails here.
#[test]
fn benchmark_sweep_axes_keep_every_plan_hit() {
    let _guard = obs_guard();
    let mut space = ConfigSpace::new(
        vec![WorkloadSpec::dataset(DatasetKey::Ib, 0.1, 1)],
        vec![ModelKind::Gcn, ModelKind::GraphSage, ModelKind::Gin],
    );
    let axes = "aggbuf-mb=1,2,4,8,16;controller=inorder,frfcfs;t-row=14,28,56;sparsity=on,off";
    for axis in Axis::parse_spec(axes).unwrap() {
        space = space.with_axis(axis);
    }
    // The thread count is read per batch; the guard serializes every
    // test of this binary, so none reads the variable meanwhile.
    let saved = std::env::var("HYGCN_THREADS").ok();
    std::env::set_var("HYGCN_THREADS", "1");
    obs::reset();
    obs::enable();
    let report = Campaign::new(space).run();
    obs::disable();
    match saved {
        Some(v) => std::env::set_var("HYGCN_THREADS", v),
        None => std::env::remove_var("HYGCN_THREADS"),
    }
    assert_eq!(report.unwrap().simulated, 180);
    assert_eq!(program_builds(), 30, "one decode per decode class");
    let counter = obs::counter_value;
    assert_eq!(counter(obs::Counter::PlanCacheMisses), 63);
    assert_eq!(counter(obs::Counter::PlanCacheHits), 22);
    assert_eq!(counter(obs::Counter::PlanCacheEvictions), 56);
    obs::reset();
}

/// A sparsity-off point reads every source window in every chunk, so its
/// span program decodes that window sweep once and every later chunk's
/// step takes it from the pool: PB@0.1 at `aggbuf-mb=1` runs 8 chunks,
/// and its build shares 7 blocks. Its FR-FCFS twin (window 32) reuses
/// the program, and the ordering pass reads the sweep's identity
/// verdict from its certificate in each step's 8 channel segments
/// instead of walking them: 64 certified segments. With sparsity
/// elimination each chunk reads only its own effectual windows, so
/// nothing repeats and nothing is certified. Every point still equals
/// the seed oracle.
#[test]
fn a_sparsity_off_sweep_decodes_its_window_block_once() {
    let _guard = obs_guard();
    let graph = WorkloadSpec::dataset(DatasetKey::Pb, 0.1, 1)
        .build()
        .unwrap();
    let model = GcnModel::new(ModelKind::Gcn, graph.feature_len(), MODEL_SEED).unwrap();
    for (sparsity, shared, certified) in [(false, 7, 64), (true, 0, 0)] {
        let mut cfg = HyGcnConfig::default();
        cfg.aggregation_buffer_bytes = 1 << 20;
        cfg.sparsity_elimination = sparsity;
        let mut frfcfs = cfg.clone();
        frfcfs.hbm.controller = ControllerPolicy::FrFcfs { window: 32 };
        obs::reset();
        obs::enable();
        let sims = [cfg, frfcfs].map(Simulator::new);
        let reports = sims
            .each_ref()
            .map(|sim| sim.simulate(&graph, &model).unwrap());
        obs::disable();
        assert_eq!(program_builds(), 1, "sparsity {sparsity}");
        assert_eq!(
            obs::counter_value(obs::Counter::SpanBlocksShared),
            shared,
            "sparsity {sparsity}"
        );
        assert_eq!(
            obs::counter_value(obs::Counter::FrfcfsCertified),
            certified,
            "sparsity {sparsity}"
        );
        for (sim, report) in sims.iter().zip(reports) {
            assert_eq!(report.chunks, 8);
            assert_eq!(report, sim.simulate_reference(&graph, &model).unwrap());
        }
    }
    obs::reset();
}

/// Every field that shapes the DRAM request stream or its decode is part
/// of the program key: changing it alone forces a fresh decode.
#[test]
fn stream_fields_force_a_new_program() {
    let _guard = obs_guard();
    let graph = rmat(1024, 8192, RmatParams::default(), 12)
        .unwrap()
        .with_feature_len(64);
    let base = HyGcnConfig::default();
    type Edit = fn(&mut HyGcnConfig);
    let variants: [(&str, Edit); 7] = [
        ("aggbuf", |c| c.aggregation_buffer_bytes = 1 << 17),
        ("sparsity", |c| c.sparsity_elimination = false),
        ("coordination", |c| c.coordination = CoordinationMode::Fcfs),
        ("pipeline", |c| c.pipeline = PipelineMode::EnergyAware),
        ("channels", |c| c.hbm.channels = 4),
        ("mapping", |c| c.hbm.mapping = MappingScheme::RowInterleaved),
        ("sample_seed", |c| c.sample_seed ^= 1),
    ];
    for kind in [ModelKind::Gcn, ModelKind::GraphSage] {
        let model = GcnModel::new(kind, 64, 5).unwrap();
        for (field, apply) in variants {
            let mut cfg = base.clone();
            apply(&mut cfg);
            obs::reset();
            obs::enable();
            simulate_checked(&graph, &model, &base);
            let before = program_builds();
            simulate_checked(&graph, &model, &cfg);
            let after = program_builds();
            obs::disable();
            assert_eq!(after, before + 1, "{kind:?}: {field} must force a decode");
        }
    }
    obs::reset();
}

/// Alternating configs on one graph must not cross-contaminate: each
/// cached program replays its own stream.
#[test]
fn program_cache_discriminates_configs() {
    let _guard = obs_guard();
    let g = rmat(1200, 10_000, RmatParams::default(), 8)
        .unwrap()
        .with_feature_len(64);
    let m = GcnModel::new(ModelKind::Gcn, 64, 1).unwrap();
    let base = HyGcnConfig::default();
    let mut frfcfs = HyGcnConfig::default();
    frfcfs.hbm.controller = ControllerPolicy::FrFcfs { window: 4 };
    let mut small_buf = HyGcnConfig::default();
    small_buf.aggregation_buffer_bytes = 1 << 20;
    for cfg in [&base, &frfcfs, &small_buf, &base, &frfcfs, &small_buf] {
        simulate_checked(&g, &m, cfg);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    /// Property form of the inertness contract: over random workloads
    /// and configs, the cycle and seed backends (span replay and the
    /// reference HBM walk) report the same bits whether the collector is
    /// recording or not.
    #[test]
    fn tracing_never_perturbs_reports(
        n in 64usize..512,
        density in 2usize..8,
        fpow in 4u32..7,
        seed in 0u64..500,
        sparsity in any::<bool>(),
        pipeline_none in any::<bool>(),
        rmat_graph in any::<bool>(),
        backend_seed in any::<bool>(),
    ) {
        let _guard = obs_guard();
        let f = 1usize << fpow;
        let graph = if rmat_graph {
            rmat(n, n * density, RmatParams::default(), seed).unwrap()
        } else {
            erdos_renyi(n, n * density, seed).unwrap()
        }
        .with_feature_len(f);
        let model = GcnModel::new(ModelKind::Gcn, f, seed).unwrap();
        let mut cfg = HyGcnConfig::default();
        cfg.sparsity_elimination = sparsity;
        if pipeline_none {
            cfg.pipeline = PipelineMode::None;
        }
        cfg.aggregation_buffer_bytes = 1 << 18;
        let backend = resolve(if backend_seed { "seed" } else { "cycle" }).unwrap();

        let quiet = backend.evaluate(&graph, &model, &cfg).unwrap();
        obs::reset();
        obs::enable();
        let traced = backend.evaluate(&graph, &model, &cfg).unwrap();
        obs::disable();
        obs::reset();
        prop_assert_eq!(
            traced,
            quiet,
            "collection perturbed n={} d={} f={} seed={} sparsity={} nopipe={} rmat={} seed_backend={}",
            n, density, f, seed, sparsity, pipeline_none, rmat_graph, backend_seed
        );
    }
}
