//! Execution-driven top-level simulation.
//!
//! The simulator walks the (sampled) graph chunk by chunk — a chunk being
//! the destination interval whose partial aggregation results fill one
//! ping-pong half of the Aggregation Buffer — and schedules the two
//! engines' compute and the shared HBM through the configured pipeline
//! mode. HyGCN executes Aggregation before Combination within each chunk
//! (the edge- and MVM-centric programming model of Algorithm 1), unlike
//! the Combine-first lowering frameworks use on CPU/GPU.
//!
//! ## One simulation path on precompiled machinery
//!
//! [`Simulator::simulate_lanes`] is the only cycle-level simulation path:
//! [`Simulator::simulate`] is its one-config call, and the `cycle`
//! backend calls it through `evaluate` and `evaluate_lanes`. It
//! validates each config on its own and groups the
//! valid ones by [`HyGcnConfig::decode_class`]; configs of one class
//! differ only in the clock, timeline recording, HBM timing and the
//! controller, so they share every stage but the last. One class runs
//! in three stages:
//!
//! 1. [`EventSchedule::build`] chunks the destinations and lists every
//!    chunk's effectual windows, read off the graph's cached occupancy
//!    bitmaps (see [`crate::schedule`]);
//! 2. the engines turn each chunk into a cost record whose DRAM requests
//!    land in one shared [`RequestArena`];
//! 3. the timeline advances by replaying a [`SpanProgram`]: each
//!    pipeline step's scheduler-ordered request batch, decoded into
//!    per-channel `(bank, row, bursts)` runs and cached on the graph, so
//!    a warm evaluation never assembles, orders or decodes a batch (see
//!    [`hygcn_mem::spanprog`]). The build plans every step's request
//!    blocks (one per request kind under priority batching) before it
//!    decodes, so the pool is sized once for the distinct blocks only:
//!    a block that repeats an earlier one, such as the full source sweep
//!    every chunk reads without sparsity elimination, is decoded once,
//!    and its later copies replay from a per-channel summary. A
//!    config's *service order* is program
//!    order (in order, or FR-FCFS whose [`SpanProgram::schedule`] is
//!    `None` because it keeps arrival order) or its window's
//!    [`SpanSchedule`], ordered once and cached beside the program. Each
//!    distinct (service order, `t_burst`, `t_row`, `t_cas`) is one
//!    *lane*; the lanes of one order replay [`MAX_LANES`] per pass,
//!    stepped in lockstep, each with its own `now`, step cycles and
//!    timeline. Every config's report is built from its lane with its
//!    own clock and timeline recording.
//!
//! Stages 1 and 2 and the program and schedule lookups run once per
//! class, and the replay once per lane, so a config costs only its
//! report when another config of its order and timing started its lane,
//! and only its lane's share of a pass otherwise (the `timing_lanes`
//! counter counts both kinds of rider). A coordinated controller sweep
//! therefore costs one identity pass per program and window, and one
//! replay per timing.
//!
//! ## What is memoized on the graph
//!
//! Four derived values live in the graph's plan memo ([`Graph::memo`]),
//! each lookup counted by the `plan_cache_*` [`hygcn_obs::Counter`]s
//! (one lookup per decode class, or per FR-FCFS window of one, not per
//! lane):
//!
//! * **Occupancy indexes**, keyed by the chunking (see
//!   [`crate::schedule`]).
//! * **Span programs**, keyed by `(model kind, f_in,`
//!   [`HyGcnConfig::decode_class`]`)`. The clock, timeline recording and
//!   the HBM timing/controller fields bind later, so a sweep over them
//!   decodes once.
//! * **FR-FCFS schedules**, keyed by `(model kind, f_in,`
//!   [`HyGcnConfig::replay_class`]`)`: the program's key plus the
//!   controller. The service order depends on no timing field, so a
//!   timing sweep orders each program once per window and only replays.
//!   A window that keeps arrival order memoizes `None`, and a schedule
//!   holds only the service order of the cells it reorders.
//! * **Runtime samples**, keyed by `(sample_seed, policy)` on the parent
//!   graph: the [`Sampler`] is deterministic in topology, seed and
//!   policy. A sampling model therefore reuses its sample, and the
//!   programs and occupancy indexes cached on the sample, across calls.
//!   The parent's feature-length clones share the memo, so nothing here
//!   reads the sample's `feature_len`; `f_in` comes from the model.
//!
//! The seed implementation, [`Simulator::simulate_reference`], shares
//! none of this machinery and must produce a bit-identical
//! [`SimReport`]; `tests/oracle.rs` and `hygcn bench` check that.

use std::convert::Infallible;
use std::sync::Arc;

use hygcn_gcn::aggregate::SelfTerm;
use hygcn_gcn::model::{GcnModel, ModelKind, DIFFPOOL_CLUSTERS};
use hygcn_graph::partition::Interval;
use hygcn_graph::sampling::Sampler;
use hygcn_graph::{Graph, MemoOutcome};
use hygcn_mem::hbm::{ControllerPolicy, HbmConfig};
use hygcn_mem::request::{MemRequest, RequestArena, RequestKind};
use hygcn_mem::scheduler::AccessScheduler;
use hygcn_mem::spanprog::{SpanProgram, SpanProgramBuilder, SpanReplayer, SpanSchedule, MAX_LANES};
use hygcn_mem::stats::{ChannelStats, MemStats};

use crate::config::{HyGcnConfig, PipelineMode};
use crate::energy::{Activity, EnergyBreakdown};
use crate::engine::aggregation::{AggregationEngine, ChunkAggregation};
use crate::engine::combination::{ChunkCombination, CombinationEngine, SystolicMode};
use crate::error::SimError;
use crate::layout::AddressLayout;
use crate::report::SimReport;
use crate::schedule::EventSchedule;
use crate::timeline::ChunkTrace;

/// The HyGCN accelerator simulator.
#[derive(Debug, Clone)]
pub struct Simulator {
    config: HyGcnConfig,
}

impl Simulator {
    /// Creates a simulator with the given configuration.
    pub fn new(config: HyGcnConfig) -> Self {
        Self { config }
    }

    /// The configuration.
    pub fn config(&self) -> &HyGcnConfig {
        &self.config
    }

    /// Simulates one layer of `model` over `graph`: the one-lane
    /// [`Self::simulate_lanes`].
    ///
    /// # Errors
    ///
    /// Exactly the errors of [`crate::validate::validate_inputs`]:
    ///
    /// * [`SimError::Gcn`] when the graph's feature length disagrees with
    ///   the model's.
    /// * [`SimError::BufferTooSmall`] when a buffer cannot hold a single
    ///   feature vector of the model's input length.
    /// * [`SimError::Config`] when the configuration is inconsistent
    ///   (for example an HBM geometry that is not a power of two).
    pub fn simulate(&self, graph: &Graph, model: &GcnModel) -> Result<SimReport, SimError> {
        Self::simulate_lanes(graph, model, std::slice::from_ref(&self.config))
            .pop()
            .unwrap_or_else(|| Err(SimError::Config("one config simulated no lane".into())))
    }

    /// Simulates one layer of `model` over `graph` under each of
    /// `configs`: entry `i` is exactly what [`Self::simulate`] returns
    /// under `configs[i]`.
    ///
    /// Each config is validated on its own, so a bad one fails alone.
    /// The valid configs are grouped by [`HyGcnConfig::decode_class`]:
    /// a class samples, builds its [`EventSchedule`], runs the engines
    /// and looks up its span program once, and each of its FR-FCFS
    /// windows' schedule once. A config's service order is program
    /// order (in order, or FR-FCFS whose schedule is `None`) or its
    /// schedule; each distinct (service order, `t_burst`, `t_row`,
    /// `t_cas`) replays once, as one lane of a pass over the program,
    /// [`MAX_LANES`] lanes of one order per pass, in lockstep. Every
    /// config's report is built from its lane, with its own clock and
    /// timeline.
    pub fn simulate_lanes(
        graph: &Graph,
        model: &GcnModel,
        configs: &[HyGcnConfig],
    ) -> Vec<Result<SimReport, SimError>> {
        let mut reports: Vec<Result<SimReport, SimError>> = configs
            .iter()
            .map(|cfg| {
                crate::validate::validate_inputs(graph, model, cfg).map(|()| SimReport::default())
            })
            .collect();
        let mut classes: Vec<(HyGcnConfig, Vec<usize>)> = Vec::new();
        for (i, cfg) in configs.iter().enumerate() {
            if reports[i].is_err() {
                continue;
            }
            let class = cfg.decode_class();
            match classes.iter_mut().find(|(c, _)| *c == class) {
                Some((_, members)) => members.push(i),
                None => classes.push((class, vec![i])),
            }
        }
        for (_, members) in classes {
            let cfgs: Vec<&HyGcnConfig> = members.iter().map(|&i| &configs[i]).collect();
            match simulate_class(graph, model, &cfgs) {
                Ok(class) => {
                    for (i, report) in members.into_iter().zip(class) {
                        reports[i] = Ok(report);
                    }
                }
                Err(e) => {
                    for i in members {
                        reports[i] = Err(e.clone());
                    }
                }
            }
        }
        reports
    }
}

// The replay dispatch below has one arm per lane count.
const _: () = assert!(
    MAX_LANES == 4,
    "simulate_class must dispatch every lane count"
);

/// Simulates `cfgs`, valid configs of one decode class, sharing every
/// stage their controller and timing fields do not reach; one report
/// per config.
fn simulate_class(
    graph: &Graph,
    model: &GcnModel,
    cfgs: &[&HyGcnConfig],
) -> Result<Vec<SimReport>, SimError> {
    if cfgs.is_empty() {
        return Ok(Vec::new());
    }
    let run = Prepared::new(graph, model, cfgs)?;
    // The class's service orders, each with its distinct timings (the
    // lanes) and, once replayed, their runs.
    let mut orders: Vec<OrderLanes> = Vec::new();
    let mut lane_of = Vec::with_capacity(cfgs.len());
    for cfg in cfgs {
        let order = run.service_order(&cfg.hbm);
        let o = match orders.iter().position(|o| same_order(o.order, order)) {
            Some(o) => o,
            None => {
                orders.push(OrderLanes {
                    order,
                    lanes: Vec::new(),
                    runs: Vec::new(),
                });
                orders.len() - 1
            }
        };
        lane_of.push((o, orders[o].lane(cfg)));
    }
    let mut passes = 0;
    for o in &mut orders {
        for pass in o.lanes.chunks(MAX_LANES) {
            passes += 1;
            let runs = match pass.len() {
                1 => run.replay::<1>(o.order, pass),
                2 => run.replay::<2>(o.order, pass),
                3 => run.replay::<3>(o.order, pass),
                _ => run.replay::<MAX_LANES>(o.order, pass),
            }?;
            o.runs.extend(runs);
        }
    }
    hygcn_obs::count(
        hygcn_obs::Counter::TimingLanes,
        (cfgs.len() - passes) as u64,
    );
    Ok(cfgs
        .iter()
        .zip(lane_of)
        .map(|(cfg, (o, l))| run.report(cfg, &orders[o].runs[l]))
        .collect())
}

/// The lanes of one service order: each distinct HBM timing (with
/// whether any of its configs records a timeline) and, once replayed,
/// its run.
struct OrderLanes<'a> {
    /// Program order (`None`) or an FR-FCFS schedule.
    order: Option<&'a SpanSchedule>,
    lanes: Vec<(HbmConfig, bool)>,
    runs: Vec<LaneRun>,
}

impl OrderLanes<'_> {
    /// The lane of `cfg`'s HBM timing, added if new, and marked for a
    /// timeline when `cfg` records one.
    fn lane(&mut self, cfg: &HyGcnConfig) -> usize {
        let timing = |h: &HbmConfig| (h.t_burst, h.t_row, h.t_cas);
        let found = self
            .lanes
            .iter()
            .position(|(h, _)| timing(h) == timing(&cfg.hbm));
        let l = found.unwrap_or_else(|| {
            self.lanes.push((cfg.hbm, false));
            self.lanes.len() - 1
        });
        self.lanes[l].1 |= cfg.record_timeline;
        l
    }
}

/// Whether two service orders are the same one: both program order, or
/// one memoized schedule.
fn same_order(a: Option<&SpanSchedule>, b: Option<&SpanSchedule>) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some(a), Some(b)) => std::ptr::eq(a, b),
        _ => false,
    }
}

/// What one lane's replay yields: its step cycles, timeline (when
/// recorded) and memory statistics.
struct LaneRun {
    step_cycles: Vec<u64>,
    timeline: Vec<ChunkTrace>,
    stats: MemStats,
    channels: Vec<ChannelStats>,
}

/// Everything of one decode class that no controller or timing field
/// reaches: the chunking, the engines' per-chunk records and activity,
/// the pipeline steps, the span program and the class's FR-FCFS
/// schedules.
struct Prepared {
    sched: EventSchedule,
    aggs: Vec<ChunkAggregation>,
    combs: Vec<ChunkCombination>,
    act: Activity,
    steps: Vec<Step>,
    program: Arc<SpanProgram>,
    /// Per FR-FCFS window of the class, its memoized schedule (`None`:
    /// the window keeps arrival order).
    schedules: Vec<(usize, Arc<Option<SpanSchedule>>)>,
    /// Vertices of the (sampled) graph.
    vertices: u64,
    sparsity_reduction: f64,
}

impl Prepared {
    /// Runs the timing-free stages for `cfgs`, validated configs of one
    /// decode class (at least one).
    fn new(graph: &Graph, model: &GcnModel, cfgs: &[&HyGcnConfig]) -> Result<Self, SimError> {
        let cfg = cfgs[0];
        let f_in = model.feature_len();
        let row_bytes = f_in * 4;

        // --- Sampling (runs on the engine's Sampler at runtime). ---
        let kind = model.kind();
        let policy = cfg.sample_policy_override.unwrap_or(kind.sample_policy());
        let sampled;
        let (g, presample_edges) = if policy.is_sampling() {
            let Ok((sample, outcome)) = graph.memo((cfg.sample_seed, policy), || {
                Ok::<_, Infallible>(Sampler::new(cfg.sample_seed).sample(graph, policy))
            });
            count_memo(outcome);
            sampled = sample;
            (&*sampled, graph.num_edges() as u64)
        } else {
            (graph, 0)
        };

        // --- Physical layout (all regions page-aligned). ---
        let n = g.num_vertices() as u64;
        let dims = kind.mlp_dims(f_in);
        let layout = AddressLayout::new(n, g.num_edges() as u64, row_bytes as u64, &dims);
        let agg_engine = AggregationEngine::new(cfg, f_in, layout.feature_base, layout.edge_base);
        let comb_engine =
            CombinationEngine::new(cfg, &dims, layout.weight_base, layout.output_base);

        // --- Per-chunk engine records. ---
        let include_self = !matches!(kind.self_term(), SelfTerm::None);
        let paths: u64 = if kind == ModelKind::DiffPool { 2 } else { 1 };
        let sched = EventSchedule::build(g, cfg, f_in);
        let intervals = sched.intervals();
        let nchunks = intervals.len();
        let presample_per_chunk = presample_edges / nchunks.max(1) as u64;

        let mode = match cfg.pipeline {
            PipelineMode::LatencyAware => SystolicMode::Independent,
            PipelineMode::EnergyAware | PipelineMode::None => SystolicMode::Cooperative,
        };
        let weights_resident = comb_engine.weights_resident();
        let clusters = DIFFPOOL_CLUSTERS as u64;

        // Window + edge requests per chunk, plus weight/output requests.
        let mut arena = RequestArena::with_capacity(sched.total_windows() + 3 * nchunks);
        let mut aggs: Vec<ChunkAggregation> = Vec::with_capacity(nchunks);
        let mut combs: Vec<ChunkCombination> = Vec::with_capacity(nchunks);
        for (i, &dst) in intervals.iter().enumerate() {
            let obs_a = hygcn_obs::span(hygcn_obs::Phase::Aggregation);
            let a = agg_engine.process_chunk_with_windows(
                g,
                dst,
                f_in,
                include_self,
                presample_per_chunk,
                paths,
                &mut arena,
                sched.windows(i),
            );
            drop(obs_a);
            let _obs_c = hygcn_obs::span(hygcn_obs::Phase::Combination);
            let extra_macs = if kind == ModelKind::DiffPool {
                // Pool-path MLP + the coarsening products of Eq. 8.
                dst.len() as u64 * f_in as u64 * clusters
                    + dst.len() as u64 * clusters * comb_engine.out_len()
                    + a.edges * clusters * clusters / 64 // CᵀAC tiled on the array
            } else {
                0
            };
            let c = comb_engine.process_chunk(
                dst.len() as u64,
                mode,
                i == 0 || !weights_resident,
                extra_macs,
                i as u64,
                &mut arena,
            );
            aggs.push(a);
            combs.push(c);
        }

        // --- Activity accounting (energy). ---
        let mut act = Activity::default();
        for a in &aggs {
            act.simd_ops += a.elem_ops;
            act.agg_buffer_traffic += a.edge_buffer_bytes + a.input_buffer_bytes;
            act.coordinator_buffer_traffic += a.agg_buffer_bytes;
            act.agg_hbm_bytes += a.summary.total_bytes();
        }
        for c in &combs {
            act.macs += c.macs;
            act.comb_buffer_traffic += c.weight_buffer_bytes + c.output_buffer_bytes;
            act.coordinator_buffer_traffic += c.agg_buffer_bytes;
            act.comb_hbm_bytes += c.summary.total_bytes();
        }
        if cfg.pipeline == PipelineMode::None {
            // Every chunk's results cross DRAM twice: out, then back in.
            act.spill_hbm_bytes = intervals
                .iter()
                .map(|dst| 2 * spill_bytes(dst, row_bytes, paths))
                .sum();
        }

        // --- Span program: decode once per decode class. ---
        let steps = pipeline_steps(cfg.pipeline, intervals, row_bytes, paths, layout.spill_base);
        // The stream is a pure function of the graph (whose memo we
        // consult), the model kind, the feature length and the config's
        // decode class; timing and the controller bind at replay.
        let (program, outcome) = g.memo((kind, f_in, cfg.decode_class()), || {
            let _obs = hygcn_obs::span(hygcn_obs::Phase::SpanProgramBuild);
            let mut builder = SpanProgramBuilder::new(&cfg.hbm).map_err(SimError::Config)?;
            let scheduler = AccessScheduler::new(cfg.coordination);
            let mut batch: Vec<MemRequest> = Vec::new();
            let mut order_scratch: Vec<MemRequest> = Vec::new();
            // Two passes over the same service-ordered batches: the first
            // finds the distinct request blocks and sizes the pool for
            // exactly their spans, the second decodes each of them once.
            let mut spans = 0;
            for planning in [true, false] {
                if !planning {
                    spans = builder.reserve();
                }
                for step in &steps {
                    batch.clear();
                    batch.extend(step.requests(&arena, &aggs, &combs));
                    scheduler.order_in_place(&mut batch, &mut order_scratch);
                    if planning {
                        builder.plan_step(&batch);
                    } else {
                        builder.push_step(&batch).map_err(SimError::Config)?;
                    }
                }
            }
            let program = builder.finish();
            debug_assert_eq!(program.pool_tuples(), spans, "the reservation is exact");
            Ok::<SpanProgram, SimError>(program)
        })?;
        count_memo(outcome);
        debug_assert!(program.matches(&cfg.hbm) && program.steps() == steps.len());
        // FR-FCFS's service order depends on the program and the window
        // alone, so one ordering pass per window serves every timing.
        let mut schedules = Vec::new();
        for cfg in cfgs {
            let ControllerPolicy::FrFcfs { window } = cfg.hbm.controller else {
                continue;
            };
            if schedules.iter().any(|&(w, _)| w == window) {
                continue;
            }
            let (schedule, outcome) = g.memo((kind, f_in, cfg.replay_class()), || {
                program.schedule(window).map_err(SimError::Config)
            })?;
            count_memo(outcome);
            schedules.push((window, schedule));
        }

        let total_rows_loaded: u64 = aggs.iter().map(|a| a.feature_rows_loaded).sum();
        let baseline_rows = n * nchunks as u64;
        let sparsity_reduction = if baseline_rows > 0 {
            1.0 - total_rows_loaded as f64 / baseline_rows as f64
        } else {
            0.0
        };
        Ok(Self {
            sched,
            aggs,
            combs,
            act,
            steps,
            program,
            schedules,
            vertices: n,
            sparsity_reduction,
        })
    }

    /// The service order of `hbm`'s controller: program order (`None`)
    /// in order or when its FR-FCFS window keeps arrival order, else the
    /// window's schedule.
    fn service_order(&self, hbm: &HbmConfig) -> Option<&SpanSchedule> {
        let ControllerPolicy::FrFcfs { window } = hbm.controller else {
            return None;
        };
        let (_, schedule) = self.schedules.iter().find(|&&(w, _)| w == window)?;
        schedule.as_ref().as_ref()
    }

    /// Replays the program once in `order` for `lanes` (exactly `L`
    /// timings, each with whether to record its timeline) in lockstep;
    /// one run per lane.
    fn replay<const L: usize>(
        &self,
        order: Option<&SpanSchedule>,
        lanes: &[(HbmConfig, bool)],
    ) -> Result<Vec<LaneRun>, SimError> {
        let lanes: &[(HbmConfig, bool); L] = lanes.try_into().map_err(|_| {
            SimError::Config(format!("{} timings replayed as {L} lanes", lanes.len()))
        })?;
        let hbms: [HbmConfig; L] = std::array::from_fn(|l| lanes[l].0);
        let mut replayer = SpanReplayer::new(&hbms).map_err(SimError::Config)?;

        // --- Timeline through the shared memory handler. ---
        // A step lasts as long as its slowest resource: either engine's
        // compute or the memory service of its batch, per lane.
        let mut now = [0u64; L];
        let mut step_cycles: [Vec<u64>; L] =
            std::array::from_fn(|_| Vec::with_capacity(self.steps.len()));
        let mut timelines: [Vec<ChunkTrace>; L] = std::array::from_fn(|_| Vec::new());
        for (s, step) in self.steps.iter().enumerate() {
            let done = replayer.replay_step(&self.program, order, s, now);
            let agg_cycles = step.agg.map_or(0, |i| self.aggs[i].compute_cycles);
            let comb_cycles = step.comb.map_or(0, |i| self.combs[i].compute_cycles);
            for l in 0..L {
                let mem_cycles = done[l].saturating_sub(now[l]);
                let cycles = agg_cycles.max(comb_cycles).max(mem_cycles);
                if lanes[l].1 {
                    timelines[l].push(ChunkTrace {
                        step: s,
                        agg_cycles,
                        comb_cycles,
                        mem_cycles,
                        step_cycles: cycles,
                    });
                }
                step_cycles[l].push(cycles);
                now[l] += cycles;
            }
        }

        let (stats, channels) = (replayer.stats(), replayer.channel_stats());
        Ok(step_cycles
            .into_iter()
            .zip(timelines)
            .zip(stats)
            .zip(channels)
            .map(|(((step_cycles, timeline), stats), channels)| LaneRun {
                step_cycles,
                timeline,
                stats,
                channels,
            })
            .collect())
    }

    /// The report of `cfg` from its lane's run: its own clock, and the
    /// lane's timeline if `cfg` records one.
    fn report(&self, cfg: &HyGcnConfig, lane: &LaneRun) -> SimReport {
        let step_cycles = &lane.step_cycles;
        // --- Vertex latency (the Fig. 8 timing of each mode). ---
        let intervals = self.sched.intervals();
        let mut vertex_latency_weighted = 0f64;
        for (i, dst) in intervals.iter().enumerate() {
            let latency = match cfg.pipeline {
                // Both of the chunk's phase-by-phase steps.
                PipelineMode::None => step_cycles[2 * i] + step_cycles[2 * i + 1],
                // Vertices finish aggregating staggered through the chunk
                // (3/4 of the step on average, since the window sweep
                // revisits vertices), wait for their small group to
                // assemble, and combine immediately — the Fig. 8(a)
                // timing. Larger module groups wait longer (Fig. 18g).
                PipelineMode::LatencyAware => {
                    let assembly =
                        cfg.module_group_vertices as u64 * step_cycles[i] / dst.len().max(1) as u64;
                    step_cycles[i] * 3 / 4 + assembly + self.combs[i].first_group_cycles
                }
                // Burst mode: every vertex waits for the whole chunk to
                // aggregate, then for the assembled cooperative pass —
                // Fig. 8(b).
                PipelineMode::EnergyAware => step_cycles[i] + self.combs[i].compute_cycles,
            };
            vertex_latency_weighted += latency as f64 * dst.len() as f64;
        }

        // --- Report. ---
        let cycles = step_cycles.iter().sum::<u64>().max(1);
        let time_s = cfg.cycles_to_seconds(cycles);
        SimReport {
            cycles,
            time_s,
            agg_compute_cycles: self.aggs.iter().map(|a| a.compute_cycles).sum(),
            comb_compute_cycles: self.combs.iter().map(|c| c.compute_cycles).sum(),
            mem: lane.stats,
            mem_channels: lane.channels.clone(),
            bandwidth_utilization: lane
                .stats
                .bandwidth_utilization(cycles, cfg.hbm.peak_bytes_per_cycle()),
            energy: EnergyBreakdown::from_activity(&self.act).with_static(time_s),
            avg_vertex_latency_cycles: vertex_latency_weighted / self.vertices.max(1) as f64,
            sparsity_reduction: self.sparsity_reduction.max(0.0),
            chunks: intervals.len(),
            elem_ops: self.act.simd_ops,
            macs: self.act.macs,
            timeline: if cfg.record_timeline {
                lane.timeline.clone()
            } else {
                Vec::new()
            },
            provenance: "",
            metrics: Vec::new(),
        }
    }
}

/// Records a plan-memo lookup in the `plan_cache_*` counters.
pub(crate) fn count_memo(outcome: MemoOutcome) {
    use hygcn_obs::Counter;
    match outcome {
        MemoOutcome::Hit => hygcn_obs::count(Counter::PlanCacheHits, 1),
        MemoOutcome::Built { evicted } => {
            hygcn_obs::count(Counter::PlanCacheMisses, 1);
            if evicted {
                hygcn_obs::count(Counter::PlanCacheEvictions, 1);
            }
        }
    }
}

/// One pipeline step: the chunk aggregating in it, the chunk combining
/// in it, and — without a pipeline — the spill request that carries a
/// chunk's aggregation results through DRAM.
#[derive(Debug, Clone, Copy)]
struct Step {
    agg: Option<usize>,
    comb: Option<usize>,
    spill: Option<MemRequest>,
}

impl Step {
    /// The step's requests, unscheduled: its aggregating chunk's, its
    /// combining chunk's and its spill.
    fn requests<'a>(
        &'a self,
        arena: &'a RequestArena,
        aggs: &[ChunkAggregation],
        combs: &[ChunkCombination],
    ) -> impl Iterator<Item = &'a MemRequest> {
        let agg = self.agg.map_or(&[][..], |i| arena.slice(aggs[i].span));
        let comb = self.comb.map_or(&[][..], |i| arena.slice(combs[i].span));
        agg.iter().chain(comb).chain(self.spill.as_ref())
    }
}

/// Bytes of chunk `dst`'s aggregation results (`paths` result sets of
/// `row_bytes` per vertex) — what the no-pipeline mode spills.
fn spill_bytes(dst: &Interval, row_bytes: usize, paths: u64) -> u64 {
    (dst.len() * row_bytes) as u64 * paths
}

/// The pipeline steps over `intervals` (paper Fig. 8).
fn pipeline_steps(
    pipeline: PipelineMode,
    intervals: &[Interval],
    row_bytes: usize,
    paths: u64,
    spill_base: u64,
) -> Vec<Step> {
    let n = intervals.len();
    match pipeline {
        // Phase-by-phase: aggregation results spill to DRAM and are
        // reloaded by the Combination Engine.
        PipelineMode::None => intervals
            .iter()
            .enumerate()
            .flat_map(|(i, dst)| {
                let bytes = spill_bytes(dst, row_bytes, paths) as u32;
                let addr = spill_base + u64::from(dst.start) * row_bytes as u64;
                [
                    Step {
                        agg: Some(i),
                        comb: None,
                        spill: Some(MemRequest::write(RequestKind::OutputFeatures, addr, bytes)),
                    },
                    Step {
                        agg: None,
                        comb: Some(i),
                        spill: Some(MemRequest::read(RequestKind::InputFeatures, addr, bytes)),
                    },
                ]
            })
            .collect(),
        // Latency-aware: small groups combine *while the same chunk's
        // remaining vertices aggregate* (Fig. 8a), so the two engines
        // overlap within a step.
        PipelineMode::LatencyAware => (0..n)
            .map(|i| Step {
                agg: Some(i),
                comb: Some(i),
                spill: None,
            })
            .collect(),
        // Energy-aware: burst mode — the Combination Engine works on
        // chunk s-1 while chunk s aggregates (Fig. 8b), one chunk
        // behind, plus a final drain step.
        PipelineMode::EnergyAware => (0..=n)
            .map(|s| Step {
                agg: (s < n).then_some(s),
                comb: s.checked_sub(1),
                spill: None,
            })
            .collect(),
    }
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)]
mod tests {
    use super::*;
    use hygcn_graph::generator::{preferential_attachment, rmat, RmatParams};

    fn graph(n: usize, f: usize) -> Graph {
        preferential_attachment(n, 4, 1)
            .unwrap()
            .with_feature_len(f)
    }

    fn sim(cfg: HyGcnConfig) -> Simulator {
        Simulator::new(cfg)
    }

    #[test]
    fn basic_run_produces_consistent_report() {
        let g = graph(512, 64);
        let m = GcnModel::new(ModelKind::Gcn, 64, 1).unwrap();
        let r = sim(HyGcnConfig::default()).simulate(&g, &m).unwrap();
        assert!(r.cycles > 0);
        assert!(r.time_s > 0.0);
        assert_eq!(r.macs, 512 * 64 * 128);
        // Directed edges + self terms, at width 64.
        assert_eq!(r.elem_ops, (g.num_edges() as u64 + 512) * 64);
        assert!(r.energy_j() > 0.0);
        assert!(r.dram_bytes() > 0);
        assert!(r.bandwidth_utilization > 0.0 && r.bandwidth_utilization <= 1.0);
    }

    #[test]
    fn feature_len_mismatch_rejected() {
        let g = graph(64, 32);
        let m = GcnModel::new(ModelKind::Gcn, 64, 1).unwrap();
        assert!(matches!(
            sim(HyGcnConfig::default()).simulate(&g, &m),
            Err(SimError::Gcn(_))
        ));
    }

    #[test]
    fn tiny_buffer_rejected() {
        let g = graph(64, 4096);
        let m = GcnModel::new(ModelKind::Gcn, 4096, 1).unwrap();
        let cfg = HyGcnConfig {
            input_buffer_bytes: 8 << 10, // half = 4 KB < 16 KB row
            ..HyGcnConfig::default()
        };
        assert!(matches!(
            sim(cfg).simulate(&g, &m),
            Err(SimError::BufferTooSmall {
                buffer: "input",
                ..
            })
        ));
    }

    #[test]
    fn pipeline_beats_no_pipeline() {
        let g = rmat(2048, 30_000, RmatParams::default(), 2)
            .unwrap()
            .with_feature_len(256);
        let m = GcnModel::new(ModelKind::Gcn, 256, 1).unwrap();
        let mut cfg = HyGcnConfig::default();
        // Force multiple chunks so the pipeline can overlap.
        cfg.aggregation_buffer_bytes = 1 << 20;
        let piped = sim(cfg.clone()).simulate(&g, &m).unwrap();
        cfg.pipeline = PipelineMode::None;
        let serial = sim(cfg).simulate(&g, &m).unwrap();
        assert!(
            piped.cycles < serial.cycles,
            "pipelined {} vs serial {}",
            piped.cycles,
            serial.cycles
        );
        // No-pipeline also pays DRAM spills.
        assert!(serial.dram_bytes() > piped.dram_bytes());
    }

    #[test]
    fn sparsity_elimination_reduces_dram() {
        let g = rmat(4096, 20_000, RmatParams::default(), 3)
            .unwrap()
            .with_feature_len(128);
        let m = GcnModel::new(ModelKind::Gcn, 128, 1).unwrap();
        let mut cfg = HyGcnConfig::default();
        cfg.aggregation_buffer_bytes = 1 << 20; // several chunks
        let with = sim(cfg.clone()).simulate(&g, &m).unwrap();
        cfg.sparsity_elimination = false;
        let without = sim(cfg).simulate(&g, &m).unwrap();
        assert!(with.dram_bytes() < without.dram_bytes());
        assert!(with.sparsity_reduction > 0.0);
        assert!(without.sparsity_reduction.abs() < 1e-9);
        assert!(with.cycles <= without.cycles);
    }

    #[test]
    fn latency_pipeline_has_lower_vertex_latency_than_energy() {
        let g = graph(4096, 128);
        let m = GcnModel::new(ModelKind::Gcn, 128, 1).unwrap();
        let mut cfg = HyGcnConfig::default();
        cfg.pipeline = PipelineMode::LatencyAware;
        let lat = sim(cfg.clone()).simulate(&g, &m).unwrap();
        cfg.pipeline = PipelineMode::EnergyAware;
        let en = sim(cfg).simulate(&g, &m).unwrap();
        assert!(
            lat.avg_vertex_latency_cycles < en.avg_vertex_latency_cycles,
            "latency {} vs energy {}",
            lat.avg_vertex_latency_cycles,
            en.avg_vertex_latency_cycles
        );
        // Energy-aware reuses weights: lower combination energy.
        assert!(en.energy.combination_j < lat.energy.combination_j);
    }

    #[test]
    fn graphsage_sampling_reduces_work() {
        // A hub-heavy graph where sampling caps degree at 25.
        let g = rmat(1024, 60_000, RmatParams::default(), 5)
            .unwrap()
            .with_feature_len(64);
        let gcn = GcnModel::new(ModelKind::Gcn, 64, 1).unwrap();
        let gsc = GcnModel::new(ModelKind::GraphSage, 64, 1).unwrap();
        let r_gcn = sim(HyGcnConfig::default()).simulate(&g, &gcn).unwrap();
        let r_gsc = sim(HyGcnConfig::default()).simulate(&g, &gsc).unwrap();
        assert!(r_gsc.elem_ops < r_gcn.elem_ops);
    }

    #[test]
    fn diffpool_does_more_work_than_gcn() {
        let g = graph(512, 64);
        let gcn = GcnModel::new(ModelKind::Gcn, 64, 1).unwrap();
        let dfp = GcnModel::new(ModelKind::DiffPool, 64, 1).unwrap();
        let r_gcn = sim(HyGcnConfig::default()).simulate(&g, &gcn).unwrap();
        let r_dfp = sim(HyGcnConfig::default()).simulate(&g, &dfp).unwrap();
        assert!(r_dfp.macs > r_gcn.macs);
        assert!(r_dfp.elem_ops > r_gcn.elem_ops);
    }

    #[test]
    fn coordination_improves_bandwidth() {
        use hygcn_mem::scheduler::CoordinationMode;
        let g = rmat(4096, 40_000, RmatParams::default(), 7)
            .unwrap()
            .with_feature_len(256);
        let m = GcnModel::new(ModelKind::Gcn, 256, 1).unwrap();
        let mut cfg = HyGcnConfig::default();
        cfg.aggregation_buffer_bytes = 1 << 20;
        let coord = sim(cfg.clone()).simulate(&g, &m).unwrap();
        cfg.coordination = CoordinationMode::Fcfs;
        cfg.hbm = hygcn_mem::HbmConfig::hbm1_uncoordinated();
        let fcfs = sim(cfg).simulate(&g, &m).unwrap();
        assert!(
            coord.cycles <= fcfs.cycles,
            "coordinated {} vs fcfs {}",
            coord.cycles,
            fcfs.cycles
        );
    }

    #[test]
    fn repeated_evaluations_are_deterministic() {
        let g = rmat(2000, 16_000, RmatParams::default(), 6)
            .unwrap()
            .with_feature_len(128);
        let m = GcnModel::new(ModelKind::Gcn, 128, 1).unwrap();
        let sim = sim(HyGcnConfig::default());
        // Second call hits the graph's occupancy-index and span-program
        // caches; the report must not care.
        let first = sim.simulate(&g, &m).unwrap();
        let second = sim.simulate(&g, &m).unwrap();
        assert_eq!(first, second);
        assert_eq!(first, sim.simulate_reference(&g, &m).unwrap());
    }

    #[test]
    fn larger_aggregation_buffer_fewer_chunks() {
        let g = graph(8192, 256);
        let m = GcnModel::new(ModelKind::Gcn, 256, 1).unwrap();
        let mut cfg = HyGcnConfig::default();
        cfg.aggregation_buffer_bytes = 2 << 20;
        let small = sim(cfg.clone()).simulate(&g, &m).unwrap();
        cfg.aggregation_buffer_bytes = 32 << 20;
        let large = sim(cfg).simulate(&g, &m).unwrap();
        assert!(large.chunks < small.chunks);
        assert!(large.dram_bytes() <= small.dram_bytes());
    }
}
