//! Declarative configuration spaces: named axes, workloads, and the
//! deterministic grid/sampled enumeration into [`DesignPoint`]s.
//!
//! An *axis* is a named list of values applied to one knob of
//! [`HyGcnConfig`] (buffer capacities, pipeline/coordination/sparsity
//! modes, sampling factor, compute geometry). A [`ConfigSpace`] is the
//! cartesian product of its axes crossed with its workloads and models;
//! [`ConfigSpace::enumerate`] expands it — in a deterministic order, with
//! duplicate configurations removed — and stamps every point with the
//! stable cache key the campaign store uses for resume.

use std::path::PathBuf;

use hygcn_core::config::{AggregationMode, HyGcnConfig, PipelineMode};
use hygcn_gcn::model::ModelKind;
use hygcn_graph::datasets::{DatasetKey, DatasetSpec};
use hygcn_graph::hashing::Fnv64;
use hygcn_graph::reorder::{reorder, Ordering};
use hygcn_graph::sampling::SamplePolicy;
use hygcn_graph::Graph;
use hygcn_mem::address::MappingScheme;
use hygcn_mem::hbm::{ControllerPolicy, HbmConfig};
use hygcn_mem::scheduler::CoordinationMode;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::DseError;

/// The axis names [`Axis::parse`] understands, in display order.
pub const AXIS_NAMES: &[&str] = &[
    "aggbuf-mb",
    "inputbuf-kb",
    "edgebuf-kb",
    "pipeline",
    "coordination",
    "sparsity",
    "factor",
    "simd-cores",
    "modules",
    "module-geom",
    "agg-mode",
    "sched",
    "remap",
    "controller",
    "channels",
    "row-bytes",
    "burst-bytes",
    "clock-ghz",
    "t-row",
];

/// One setting of one configuration knob.
#[derive(Debug, Clone, PartialEq)]
pub enum AxisValue {
    /// Aggregation Buffer capacity in MB (Fig. 18d axis).
    AggBufMb(usize),
    /// Input Buffer capacity in KB — the window-size axis (Fig. 18e).
    InputBufKb(usize),
    /// Edge Buffer capacity in KB.
    EdgeBufKb(usize),
    /// Inter-engine pipeline mode (Fig. 16 axis).
    Pipeline(PipelineMode),
    /// Off-chip access coordination on/off (Fig. 17 axis).
    Coordination(bool),
    /// Window sliding+shrinking sparsity elimination on/off (Fig. 15).
    Sparsity(bool),
    /// Sampling factor `1/f` (Fig. 18a–c axis).
    SampleFactor(usize),
    /// SIMD core count in the Aggregation Engine.
    SimdCores(usize),
    /// Systolic module count in the Combination Engine.
    SystolicModules(usize),
    /// Full systolic geometry `modules x rows x group-vertices` at a
    /// fixed PE budget — the Fig. 18(g) granularity axis (`8x4x16` is
    /// the paper's chosen point).
    ModuleGeometry {
        /// Systolic module count.
        modules: usize,
        /// PE rows per module.
        rows: usize,
        /// Vertices per independent-mode group.
        group: usize,
    },
    /// SIMD work-distribution mode (Fig. 4's ablation).
    AggMode(AggregationMode),
    /// Scheduler half of memory coordination in isolation (priority
    /// batching without touching the address mapping).
    Sched(CoordinationMode),
    /// Mapping half of memory coordination in isolation: channel bits
    /// low (`low`, coordinated) or high (`high`, the baseline).
    Remap(MappingScheme),
    /// Memory-controller reordering policy (`inorder` or `frfcfs`, the
    /// row-hit-first rescue of the design ablation).
    Controller(ControllerPolicy),
    /// HBM channel count (memory-geometry axis; must be a power of two).
    Channels(usize),
    /// HBM row-buffer size in bytes (power of two).
    RowBytes(u64),
    /// HBM burst size in bytes (power of two; combinations with
    /// `burst-bytes > row-bytes` are rejected at enumeration).
    BurstBytes(u64),
    /// Accelerator clock in GHz (scales cycle-to-time conversion and
    /// therefore static energy; must be a positive finite float).
    ClockGhz(f64),
    /// HBM exposed row activate+precharge penalty `t_row` in cycles
    /// (timing axis; must be >= 1).
    TRow(u64),
}

impl AxisValue {
    /// Parses one value token for the named axis.
    pub fn parse(axis: &str, token: &str) -> Result<Self, DseError> {
        let int = |what: &str| -> Result<usize, DseError> {
            token
                .parse::<usize>()
                .map_err(|_| DseError::Spec(format!("axis '{axis}': '{token}' is not {what}")))
        };
        let positive = |what: &str| -> Result<usize, DseError> {
            let v = int(what)?;
            if v == 0 {
                return Err(DseError::Spec(format!("axis '{axis}': value must be >= 1")));
            }
            Ok(v)
        };
        let flag = || -> Result<bool, DseError> {
            match token {
                "on" => Ok(true),
                "off" => Ok(false),
                _ => Err(DseError::Spec(format!(
                    "axis '{axis}': '{token}' is not on|off"
                ))),
            }
        };
        let pow2 = |what: &str| -> Result<usize, DseError> {
            let v = positive(what)?;
            if !v.is_power_of_two() {
                return Err(DseError::Spec(format!(
                    "axis '{axis}': {v} is not a power of two"
                )));
            }
            Ok(v)
        };
        match axis {
            "aggbuf-mb" => Ok(AxisValue::AggBufMb(positive("an integer (MB)")?)),
            "inputbuf-kb" => Ok(AxisValue::InputBufKb(positive("an integer (KB)")?)),
            "edgebuf-kb" => Ok(AxisValue::EdgeBufKb(positive("an integer (KB)")?)),
            "pipeline" => match token {
                "latency" => Ok(AxisValue::Pipeline(PipelineMode::LatencyAware)),
                "energy" => Ok(AxisValue::Pipeline(PipelineMode::EnergyAware)),
                "none" => Ok(AxisValue::Pipeline(PipelineMode::None)),
                _ => Err(DseError::Spec(format!(
                    "axis 'pipeline': '{token}' is not latency|energy|none"
                ))),
            },
            "coordination" => Ok(AxisValue::Coordination(flag()?)),
            "sparsity" => Ok(AxisValue::Sparsity(flag()?)),
            "factor" => Ok(AxisValue::SampleFactor(positive("an integer factor")?)),
            "simd-cores" => Ok(AxisValue::SimdCores(positive("an integer")?)),
            "modules" => Ok(AxisValue::SystolicModules(positive("an integer")?)),
            "module-geom" => {
                let parts: Vec<usize> = token
                    .split('x')
                    .map(|t| t.parse::<usize>())
                    .collect::<Result<_, _>>()
                    .map_err(|_| {
                        DseError::Spec(format!(
                            "axis 'module-geom': '{token}' is not MODULESxROWSxGROUP (e.g. 8x4x16)"
                        ))
                    })?;
                match parts.as_slice() {
                    [m, r, g] if *m >= 1 && *r >= 1 && *g >= 1 => Ok(AxisValue::ModuleGeometry {
                        modules: *m,
                        rows: *r,
                        group: *g,
                    }),
                    _ => Err(DseError::Spec(format!(
                        "axis 'module-geom': '{token}' is not MODULESxROWSxGROUP with all parts >= 1"
                    ))),
                }
            }
            "agg-mode" => match token {
                "disperse" => Ok(AxisValue::AggMode(AggregationMode::VertexDisperse)),
                "concentrated" => Ok(AxisValue::AggMode(AggregationMode::VertexConcentrated)),
                _ => Err(DseError::Spec(format!(
                    "axis 'agg-mode': '{token}' is not disperse|concentrated"
                ))),
            },
            "sched" => match token {
                "fcfs" => Ok(AxisValue::Sched(CoordinationMode::Fcfs)),
                "priority" => Ok(AxisValue::Sched(CoordinationMode::PriorityBatched)),
                _ => Err(DseError::Spec(format!(
                    "axis 'sched': '{token}' is not fcfs|priority"
                ))),
            },
            "remap" => match token {
                "low" => Ok(AxisValue::Remap(MappingScheme::ChannelInterleaved)),
                "high" => Ok(AxisValue::Remap(MappingScheme::RowInterleaved)),
                _ => Err(DseError::Spec(format!(
                    "axis 'remap': '{token}' is not low|high"
                ))),
            },
            "controller" => match token {
                "inorder" => Ok(AxisValue::Controller(ControllerPolicy::InOrder)),
                "frfcfs" => Ok(AxisValue::Controller(ControllerPolicy::FrFcfs {
                    window: 32,
                })),
                _ => Err(DseError::Spec(format!(
                    "axis 'controller': '{token}' is not inorder|frfcfs"
                ))),
            },
            "channels" => Ok(AxisValue::Channels(pow2("a power-of-two integer")?)),
            "row-bytes" => Ok(AxisValue::RowBytes(pow2("a power-of-two integer")? as u64)),
            "burst-bytes" => Ok(AxisValue::BurstBytes(pow2("a power-of-two integer")? as u64)),
            "clock-ghz" => {
                let v = token
                    .parse::<f64>()
                    .ok()
                    .filter(|v| v.is_finite() && *v > 0.0);
                match v {
                    Some(ghz) => Ok(AxisValue::ClockGhz(ghz)),
                    None => Err(DseError::Spec(format!(
                        "axis 'clock-ghz': '{token}' is not a positive finite float (GHz)"
                    ))),
                }
            }
            "t-row" => Ok(AxisValue::TRow(positive("an integer (cycles)")? as u64)),
            _ => Err(DseError::Spec(format!(
                "unknown axis '{axis}' (known: {})",
                AXIS_NAMES.join("/")
            ))),
        }
    }

    /// The axis this value belongs to.
    pub fn axis_name(&self) -> &'static str {
        match self {
            AxisValue::AggBufMb(_) => "aggbuf-mb",
            AxisValue::InputBufKb(_) => "inputbuf-kb",
            AxisValue::EdgeBufKb(_) => "edgebuf-kb",
            AxisValue::Pipeline(_) => "pipeline",
            AxisValue::Coordination(_) => "coordination",
            AxisValue::Sparsity(_) => "sparsity",
            AxisValue::SampleFactor(_) => "factor",
            AxisValue::SimdCores(_) => "simd-cores",
            AxisValue::SystolicModules(_) => "modules",
            AxisValue::ModuleGeometry { .. } => "module-geom",
            AxisValue::AggMode(_) => "agg-mode",
            AxisValue::Sched(_) => "sched",
            AxisValue::Remap(_) => "remap",
            AxisValue::Controller(_) => "controller",
            AxisValue::Channels(_) => "channels",
            AxisValue::RowBytes(_) => "row-bytes",
            AxisValue::BurstBytes(_) => "burst-bytes",
            AxisValue::ClockGhz(_) => "clock-ghz",
            AxisValue::TRow(_) => "t-row",
        }
    }

    /// Human-readable value label (the axis tick in tables).
    pub fn label(&self) -> String {
        match self {
            AxisValue::AggBufMb(v)
            | AxisValue::InputBufKb(v)
            | AxisValue::EdgeBufKb(v)
            | AxisValue::SampleFactor(v)
            | AxisValue::SimdCores(v)
            | AxisValue::SystolicModules(v) => v.to_string(),
            AxisValue::Pipeline(PipelineMode::LatencyAware) => "latency".into(),
            AxisValue::Pipeline(PipelineMode::EnergyAware) => "energy".into(),
            AxisValue::Pipeline(PipelineMode::None) => "none".into(),
            AxisValue::Coordination(b) | AxisValue::Sparsity(b) => {
                if *b { "on" } else { "off" }.into()
            }
            AxisValue::ModuleGeometry {
                modules,
                rows,
                group,
            } => format!("{modules}x{rows}x{group}"),
            AxisValue::AggMode(AggregationMode::VertexDisperse) => "disperse".into(),
            AxisValue::AggMode(AggregationMode::VertexConcentrated) => "concentrated".into(),
            AxisValue::Sched(CoordinationMode::Fcfs) => "fcfs".into(),
            AxisValue::Sched(CoordinationMode::PriorityBatched) => "priority".into(),
            AxisValue::Remap(MappingScheme::ChannelInterleaved) => "low".into(),
            AxisValue::Remap(MappingScheme::RowInterleaved) => "high".into(),
            AxisValue::Controller(ControllerPolicy::InOrder) => "inorder".into(),
            AxisValue::Controller(ControllerPolicy::FrFcfs { .. }) => "frfcfs".into(),
            AxisValue::Channels(v) => v.to_string(),
            AxisValue::RowBytes(v) | AxisValue::BurstBytes(v) | AxisValue::TRow(v) => v.to_string(),
            AxisValue::ClockGhz(v) => format!("{v:?}"),
        }
    }

    /// Applies this setting to a configuration.
    pub fn apply(&self, cfg: &mut HyGcnConfig) {
        match *self {
            AxisValue::AggBufMb(mb) => cfg.aggregation_buffer_bytes = mb << 20,
            AxisValue::InputBufKb(kb) => cfg.input_buffer_bytes = kb << 10,
            AxisValue::EdgeBufKb(kb) => cfg.edge_buffer_bytes = kb << 10,
            AxisValue::Pipeline(p) => cfg.pipeline = p,
            AxisValue::Coordination(true) => {
                cfg.coordination = CoordinationMode::PriorityBatched;
                cfg.hbm = HbmConfig {
                    mapping: HbmConfig::hbm1().mapping,
                    ..cfg.hbm
                };
            }
            AxisValue::Coordination(false) => {
                cfg.coordination = CoordinationMode::Fcfs;
                cfg.hbm = HbmConfig {
                    mapping: HbmConfig::hbm1_uncoordinated().mapping,
                    ..cfg.hbm
                };
            }
            AxisValue::Sparsity(b) => cfg.sparsity_elimination = b,
            AxisValue::SampleFactor(f) => {
                cfg.sample_policy_override = if f <= 1 {
                    None
                } else {
                    Some(SamplePolicy::Factor(f))
                };
            }
            AxisValue::SimdCores(n) => cfg.simd_cores = n,
            AxisValue::SystolicModules(n) => cfg.systolic_modules = n,
            AxisValue::ModuleGeometry {
                modules,
                rows,
                group,
            } => {
                cfg.systolic_modules = modules;
                cfg.module_rows = rows;
                cfg.module_group_vertices = group;
            }
            AxisValue::AggMode(m) => cfg.aggregation_mode = m,
            AxisValue::Sched(m) => cfg.coordination = m,
            AxisValue::Remap(m) => cfg.hbm.mapping = m,
            AxisValue::Controller(p) => cfg.hbm.controller = p,
            AxisValue::Channels(n) => cfg.hbm.channels = n,
            AxisValue::RowBytes(b) => cfg.hbm.row_bytes = b,
            AxisValue::BurstBytes(b) => cfg.hbm.burst_bytes = b,
            AxisValue::ClockGhz(ghz) => cfg.clock_ghz = ghz,
            AxisValue::TRow(t) => cfg.hbm.t_row = t,
        }
    }
}

/// A named axis: one knob and the list of values to sweep it over.
#[derive(Debug, Clone, PartialEq)]
pub struct Axis {
    /// Axis name (one of [`AXIS_NAMES`]).
    pub name: String,
    /// Values in sweep order.
    pub values: Vec<AxisValue>,
}

impl Axis {
    /// Parses an axis from its name and a comma-separated value list,
    /// e.g. `Axis::parse("aggbuf-mb", "2,4,8,16,32")`.
    pub fn parse(name: &str, values_csv: &str) -> Result<Self, DseError> {
        let values = values_csv
            .split(',')
            .map(str::trim)
            .filter(|t| !t.is_empty())
            .map(|t| AxisValue::parse(name, t))
            .collect::<Result<Vec<_>, _>>()?;
        if values.is_empty() {
            return Err(DseError::Spec(format!("axis '{name}' has no values")));
        }
        Ok(Self {
            name: name.to_string(),
            values,
        })
    }

    /// Parses a whole multi-axis specification:
    /// `"aggbuf-mb=2,4,8;sparsity=on,off"` (axes separated by `;`, values
    /// by `,`). Duplicate axis names are rejected.
    pub fn parse_spec(spec: &str) -> Result<Vec<Axis>, DseError> {
        let mut axes: Vec<Axis> = Vec::new();
        for part in spec.split(';').map(str::trim).filter(|p| !p.is_empty()) {
            let (name, values) = part.split_once('=').ok_or_else(|| {
                DseError::Spec(format!("axis '{part}' is not of the form name=v1,v2,..."))
            })?;
            let name = name.trim();
            if axes.iter().any(|a| a.name == name) {
                return Err(DseError::Spec(format!("axis '{name}' given twice")));
            }
            axes.push(Axis::parse(name, values)?);
        }
        Ok(axes)
    }
}

/// A workload the campaign can instantiate: what graph to build and how.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadSpec {
    /// A Table 4 benchmark dataset at a scale, synthesized with a seed.
    Dataset {
        /// Dataset key.
        key: DatasetKey,
        /// Scale in `(0, 1]`.
        scale: f64,
        /// Generator seed.
        seed: u64,
    },
    /// A user-supplied edge-list file (`src dst` per line, undirected).
    EdgeList {
        /// File path.
        path: PathBuf,
        /// Feature vector length to attach.
        feature_len: usize,
    },
    /// A dataset workload relabeled by a sequence of vertex orderings —
    /// the vertex-ordering-sensitivity study (window sliding+shrinking
    /// depends on id-space locality; random relabeling destroys it, BFS
    /// relabeling restores it).
    Reordered {
        /// Dataset key.
        key: DatasetKey,
        /// Scale in `(0, 1]`.
        scale: f64,
        /// Generator seed.
        seed: u64,
        /// Relabelings applied in order after instantiation.
        orderings: Vec<Ordering>,
    },
}

/// Short token for one reorder step (the workload-label suffix).
fn ordering_tag(o: &Ordering) -> String {
    match o {
        Ordering::Degree => "deg".into(),
        Ordering::Bfs => "bfs".into(),
        Ordering::Random(s) => format!("rnd{s}"),
    }
}

impl WorkloadSpec {
    /// Convenience constructor for the dataset form.
    pub fn dataset(key: DatasetKey, scale: f64, seed: u64) -> Self {
        WorkloadSpec::Dataset { key, scale, seed }
    }

    /// Short display label, e.g. `CR@0.5` or `PB@1.0+rnd7+bfs`.
    pub fn label(&self) -> String {
        match self {
            WorkloadSpec::Dataset { key, scale, .. } => format!("{}@{scale:?}", key.abbrev()),
            WorkloadSpec::EdgeList { path, .. } => format!("edges:{}", path.display()),
            WorkloadSpec::Reordered {
                key,
                scale,
                orderings,
                ..
            } => {
                let tags: Vec<String> = orderings.iter().map(ordering_tag).collect();
                format!("{}@{scale:?}+{}", key.abbrev(), tags.join("+"))
            }
        }
    }

    /// Canonical identity string — the workload half of the cache key.
    ///
    /// Dataset workloads are fully determined by `(key, scale, seed)`
    /// (instantiation is deterministic), so their canon is pure. Edge-list
    /// workloads hash the **file content**, so editing the file changes
    /// the key and invalidates cached results for it.
    pub fn canon(&self) -> Result<String, DseError> {
        match self {
            WorkloadSpec::Dataset { key, scale, seed } => Ok(format!(
                "dataset={};scale={scale:?};seed={seed}",
                key.abbrev()
            )),
            WorkloadSpec::EdgeList { path, feature_len } => {
                let bytes = std::fs::read(path)
                    .map_err(|e| DseError::Workload(format!("reading {}: {e}", path.display())))?;
                let mut h = Fnv64::new();
                h.write_bytes(&bytes);
                Ok(format!(
                    "edges-fnv={:016x};feature_len={feature_len}",
                    h.finish()
                ))
            }
            WorkloadSpec::Reordered {
                key,
                scale,
                seed,
                orderings,
            } => Ok(format!(
                "dataset={};scale={scale:?};seed={seed};reorder={orderings:?}",
                key.abbrev()
            )),
        }
    }

    /// Builds the graph at full fidelity.
    pub fn build(&self) -> Result<Graph, DseError> {
        self.build_at(1.0)
    }

    /// Builds the graph at an evaluation fidelity in `(0, 1]` — the
    /// campaign executor's successive-halving hook. Dataset-backed
    /// workloads instantiate at `scale * fidelity`, so a half-fidelity
    /// rung simulates a half-scale synthesis of the same dataset.
    /// Edge-list workloads have no scale knob and always load the full
    /// file (their rung evaluations are full-cost; halving still works,
    /// it just saves nothing below fidelity 1.0).
    pub fn build_at(&self, fidelity: f64) -> Result<Graph, DseError> {
        if !(fidelity > 0.0 && fidelity <= 1.0) {
            return Err(DseError::Spec(format!(
                "fidelity {fidelity:?} outside (0, 1]"
            )));
        }
        match self {
            WorkloadSpec::Dataset { key, scale, seed } => DatasetSpec::get(*key)
                .instantiate(*scale * fidelity, *seed)
                .map_err(|e| DseError::Workload(e.to_string())),
            WorkloadSpec::EdgeList { path, feature_len } => {
                hygcn_graph::io::read_edge_list_file(path, (*feature_len).max(1), true)
                    .map_err(|e| DseError::Workload(e.to_string()))
            }
            WorkloadSpec::Reordered {
                key,
                scale,
                seed,
                orderings,
            } => {
                let mut graph = DatasetSpec::get(*key)
                    .instantiate(*scale * fidelity, *seed)
                    .map_err(|e| DseError::Workload(e.to_string()))?;
                for &o in orderings {
                    graph = reorder(&graph, o).graph;
                }
                Ok(graph)
            }
        }
    }
}

/// The stable cache key of one `(backend, config, model, workload)`
/// quadruple — an FNV-1a hash of the config's canonical serialization,
/// the model abbreviation, the workload canon, and (for every backend
/// other than the default) the backend id. This single definition is
/// shared by grid enumeration and by the successive-halving search's
/// fidelity-overridden rung points, so a rung evaluation and a plain
/// campaign that happen to describe the same quadruple always agree on
/// identity (and therefore share stored results).
///
/// The `"cycle"` backend id is deliberately **elided** from the hash:
/// every store written before the backend abstraction existed holds
/// cycle-accurate results under the legacy three-part key, and those
/// stay valid. Any other backend contributes a `;backend=<id>` segment,
/// which is what guarantees zero cross-backend cache hits — an
/// analytical screening pass can share a `campaign.jsonl` with a
/// cycle-accurate campaign without either ever serving the other's
/// results.
pub fn cache_key(
    backend: &str,
    config: &HyGcnConfig,
    model: ModelKind,
    workload_canon: &str,
) -> u64 {
    finish_key(config_prefix(config), backend, model, workload_canon)
}

/// The key hash after its `config=<canon>` segment — the part every
/// `(workload, model)` pair of one axis cell shares.
fn config_prefix(config: &HyGcnConfig) -> Fnv64 {
    let mut h = Fnv64::new();
    h.write_str("config=");
    h.write_str(&config.canon());
    h
}

/// Finishes a [`cache_key`] from its config prefix.
fn finish_key(mut h: Fnv64, backend: &str, model: ModelKind, workload_canon: &str) -> u64 {
    h.write_str(";model=");
    h.write_str(model.abbrev());
    h.write_str(";workload=");
    h.write_str(workload_canon);
    if backend != DEFAULT_BACKEND {
        h.write_str(";backend=");
        h.write_str(backend);
    }
    h.finish()
}

/// The backend every space targets unless told otherwise — the
/// cycle-accurate simulator.
pub const DEFAULT_BACKEND: &str = "cycle";

/// Seeded random thinning of a grid: keep at most `max_points`, chosen by
/// a deterministic Fisher–Yates shuffle of the full enumeration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpaceSample {
    /// Upper bound on surviving points (must be >= 1).
    pub max_points: usize,
    /// Shuffle seed.
    pub seed: u64,
}

/// A declarative design space: workloads x models x axis grid,
/// evaluated by one named backend.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigSpace {
    /// The configuration every point starts from (axes mutate a clone).
    pub base: HyGcnConfig,
    /// Workloads to cross with the grid.
    pub workloads: Vec<WorkloadSpec>,
    /// Models to cross with the grid.
    pub models: Vec<ModelKind>,
    /// Swept axes; the first axis varies slowest in enumeration order.
    pub axes: Vec<Axis>,
    /// Optional seeded random thinning of the grid.
    pub sample: Option<SpaceSample>,
    /// The backend id every point of this space evaluates under
    /// ([`DEFAULT_BACKEND`] unless overridden). Part of every point's
    /// cache key, so spaces differing only in backend never collide in
    /// a shared store.
    pub backend: String,
}

impl ConfigSpace {
    /// A space over `workloads` x `models` with no axes yet (a single
    /// base-config point per workload/model pair).
    pub fn new(workloads: Vec<WorkloadSpec>, models: Vec<ModelKind>) -> Self {
        Self {
            base: HyGcnConfig::default(),
            workloads,
            models,
            axes: Vec::new(),
            sample: None,
            backend: DEFAULT_BACKEND.to_string(),
        }
    }

    /// Replaces the base configuration.
    pub fn with_base(mut self, base: HyGcnConfig) -> Self {
        self.base = base;
        self
    }

    /// Targets a different evaluation backend (by id). Every enumerated
    /// point is stamped and cache-keyed with it; the campaign executor
    /// evaluates every point on exactly the backend it is keyed for.
    pub fn with_backend_id(mut self, backend: impl Into<String>) -> Self {
        self.backend = backend.into();
        self
    }

    /// Adds one axis.
    pub fn with_axis(mut self, axis: Axis) -> Self {
        self.axes.push(axis);
        self
    }

    /// Enables seeded random sampling down to `max_points`.
    pub fn with_sample(mut self, sample: SpaceSample) -> Self {
        self.sample = Some(sample);
        self
    }

    /// Number of grid points before deduplication/sampling.
    pub fn grid_size(&self) -> usize {
        self.workloads.len()
            * self.models.len()
            * self.axes.iter().map(|a| a.values.len()).product::<usize>()
    }

    /// Expands the space into a deterministic, deduplicated point list.
    ///
    /// Order: workload-major, then model, then the axis grid in row-major
    /// order (first axis slowest). Two grid cells that produce the same
    /// `(config, model, workload)` — e.g. sampling factors 1 and an
    /// `All`-policy model — collapse to the first occurrence. With
    /// [`SpaceSample`] set, a deterministic shuffle keeps `max_points`
    /// of the deduplicated grid, re-sorted into enumeration order.
    ///
    /// # Errors
    ///
    /// [`DseError::Spec`] when the space is empty (no workloads, no
    /// models, an axis with no values, or a zero-point sample).
    pub fn enumerate(&self) -> Result<Vec<DesignPoint>, DseError> {
        if self.workloads.is_empty() {
            return Err(DseError::Spec("no workloads given".into()));
        }
        if self.models.is_empty() {
            return Err(DseError::Spec("no models given".into()));
        }
        for axis in &self.axes {
            if axis.values.is_empty() {
                return Err(DseError::Spec(format!(
                    "axis '{}' has no values",
                    axis.name
                )));
            }
        }
        if let Some(s) = self.sample {
            if s.max_points == 0 {
                return Err(DseError::Spec("sample of zero points".into()));
            }
        }

        // Workload canon strings are computed once (edge-list workloads
        // hash their file here).
        let workload_canons = self
            .workloads
            .iter()
            .map(WorkloadSpec::canon)
            .collect::<Result<Vec<_>, _>>()?;

        // Each axis cell's config, labels and key prefix are decoded once
        // and shared by every (workload, model) pair. A cell whose axes
        // combine into an impossible configuration (e.g. burst > row,
        // which would corrupt the address decode) fails the whole
        // enumeration fast instead of panicking mid-campaign.
        let combos = self.axes.iter().map(|a| a.values.len()).product::<usize>();
        let mut cells = Vec::with_capacity(combos);
        for cell in 0..combos {
            // Mixed-radix decode, first axis slowest.
            let mut rest = cell;
            let mut config = self.base.clone();
            let mut labels = Vec::with_capacity(self.axes.len());
            for axis in self.axes.iter().rev() {
                let v = &axis.values[rest % axis.values.len()];
                rest /= axis.values.len();
                v.apply(&mut config);
                labels.push((axis.name.clone(), v.label()));
            }
            // Undo the reverse decode so labels read in axis order.
            labels.reverse();
            config.validate().map_err(|e| {
                let axes: String = labels.iter().map(|(k, v)| format!(",{k}={v}")).collect();
                DseError::Spec(format!(
                    "point dataset={},model={}{axes}: {e}",
                    self.workloads[0].label(),
                    self.models[0].abbrev()
                ))
            })?;
            let prefix = config_prefix(&config);
            cells.push((config, labels, prefix));
        }

        let mut points = Vec::with_capacity(self.grid_size());
        let mut seen = std::collections::BTreeSet::new();
        for (widx, workload) in self.workloads.iter().enumerate() {
            let workload_label = workload.label();
            for &model in &self.models {
                for (config, labels, prefix) in &cells {
                    let key = finish_key(*prefix, &self.backend, model, &workload_canons[widx]);
                    if !seen.insert(key) {
                        continue;
                    }
                    let mut assignment = Vec::with_capacity(labels.len() + 2);
                    assignment.push(("dataset".to_string(), workload_label.clone()));
                    assignment.push(("model".to_string(), model.abbrev().to_string()));
                    assignment.extend(labels.iter().cloned());
                    points.push(DesignPoint {
                        workload: workload.clone(),
                        workload_idx: widx,
                        model,
                        config: config.clone(),
                        assignment,
                        key,
                        backend: self.backend.clone(),
                    });
                }
            }
        }

        if let Some(s) = self.sample {
            if points.len() > s.max_points {
                let mut order: Vec<usize> = (0..points.len()).collect();
                order.shuffle(&mut StdRng::seed_from_u64(s.seed));
                order.truncate(s.max_points);
                order.sort_unstable();
                points = order.into_iter().map(|i| points[i].clone()).collect();
            }
        }
        Ok(points)
    }
}

/// One fully-resolved cell of a [`ConfigSpace`].
#[derive(Debug, Clone, PartialEq)]
pub struct DesignPoint {
    /// The workload to run on.
    pub workload: WorkloadSpec,
    /// Index of the workload within the space (the campaign's sharing
    /// group: all points with one index share one built graph).
    pub workload_idx: usize,
    /// The model to run.
    pub model: ModelKind,
    /// The fully-applied configuration.
    pub config: HyGcnConfig,
    /// `(axis, value-label)` pairs — `dataset` and `model` first, then
    /// the swept axes in declaration order. Table emitters derive their
    /// columns from this.
    pub assignment: Vec<(String, String)>,
    /// Stable cache key: FNV-1a over config canon + model + workload
    /// canon (+ backend id for non-default backends). Identical across
    /// processes for equal inputs.
    pub key: u64,
    /// The backend id this point is keyed for (see [`cache_key`]).
    pub backend: String,
}

impl DesignPoint {
    /// Human-readable one-line label, e.g.
    /// `CR@1.0/GCN/aggbuf-mb=4,sparsity=off`.
    pub fn label(&self) -> String {
        let axes: Vec<String> = self.assignment[2..]
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        let mut out = format!("{}/{}", self.workload.label(), self.model.abbrev());
        if !axes.is_empty() {
            out.push('/');
            out.push_str(&axes.join(","));
        }
        out
    }

    /// The cache key as the 16-hex-digit string stored on disk.
    pub fn key_hex(&self) -> String {
        format!("{:016x}", self.key)
    }

    /// This point re-targeted at an evaluation fidelity — the
    /// successive-halving rung transform. The config's `fidelity` field
    /// is overwritten, the cache key recomputed (so rung evaluations are
    /// cached independently of the full-fidelity result), and — for
    /// fidelities below 1 — a `fidelity` column appended to the
    /// assignment so rung tables are self-describing. At fidelity 1.0
    /// the result is identical to the original point.
    ///
    /// # Errors
    ///
    /// [`DseError::Spec`] for a fidelity outside `(0, 1]`;
    /// [`DseError::Workload`] if the workload canon cannot be computed
    /// (an unreadable edge-list file).
    pub fn at_fidelity(&self, fidelity: f64) -> Result<DesignPoint, DseError> {
        if !(fidelity > 0.0 && fidelity <= 1.0) {
            return Err(DseError::Spec(format!(
                "fidelity {fidelity:?} outside (0, 1]"
            )));
        }
        let mut p = self.clone();
        p.config.fidelity = fidelity;
        p.assignment.retain(|(k, _)| k != "fidelity");
        if fidelity < 1.0 {
            p.assignment
                .push(("fidelity".to_string(), format!("{fidelity:?}")));
        }
        p.key = cache_key(&p.backend, &p.config, p.model, &p.workload.canon()?);
        Ok(p)
    }

    /// This point re-targeted at another evaluation backend — the
    /// successive-halving search's analytical-prefilter transform. The
    /// cache key is recomputed (so, e.g., an analytical screening
    /// evaluation is cached independently of the cycle-accurate result
    /// for the same configuration); everything else is untouched.
    ///
    /// # Errors
    ///
    /// [`DseError::Workload`] if the workload canon cannot be computed
    /// (an unreadable edge-list file).
    pub fn with_backend(&self, backend: &str) -> Result<DesignPoint, DseError> {
        let mut p = self.clone();
        p.backend = backend.to_string();
        p.key = cache_key(backend, &p.config, p.model, &p.workload.canon()?);
        Ok(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space2x2() -> ConfigSpace {
        ConfigSpace::new(
            vec![WorkloadSpec::dataset(DatasetKey::Ib, 0.1, 1)],
            vec![ModelKind::Gcn],
        )
        .with_axis(Axis::parse("aggbuf-mb", "4,16").unwrap())
        .with_axis(Axis::parse("sparsity", "on,off").unwrap())
    }

    #[test]
    fn grid_enumeration_order_and_labels() {
        let points = space2x2().enumerate().unwrap();
        assert_eq!(points.len(), 4);
        let labels: Vec<String> = points.iter().map(DesignPoint::label).collect();
        assert_eq!(
            labels,
            vec![
                "IB@0.1/GCN/aggbuf-mb=4,sparsity=on",
                "IB@0.1/GCN/aggbuf-mb=4,sparsity=off",
                "IB@0.1/GCN/aggbuf-mb=16,sparsity=on",
                "IB@0.1/GCN/aggbuf-mb=16,sparsity=off",
            ]
        );
        assert_eq!(points[0].config.aggregation_buffer_bytes, 4 << 20);
        assert!(!points[1].config.sparsity_elimination);
    }

    #[test]
    fn keys_are_distinct_and_reproducible() {
        let a = space2x2().enumerate().unwrap();
        let b = space2x2().enumerate().unwrap();
        let keys: std::collections::BTreeSet<u64> = a.iter().map(|p| p.key).collect();
        assert_eq!(keys.len(), 4, "keys must be pairwise distinct");
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.key, y.key);
        }
    }

    #[test]
    fn duplicate_configs_are_deduplicated() {
        // Factor 1 means "no override" for both listed values after
        // normalization... in fact factor=1 twice collapses to one point.
        let space = ConfigSpace::new(
            vec![WorkloadSpec::dataset(DatasetKey::Ib, 0.1, 1)],
            vec![ModelKind::Gcn],
        )
        .with_axis(Axis {
            name: "factor".into(),
            values: vec![AxisValue::SampleFactor(1), AxisValue::SampleFactor(1)],
        });
        assert_eq!(space.enumerate().unwrap().len(), 1);
    }

    #[test]
    fn empty_spaces_error_cleanly() {
        let no_workloads = ConfigSpace::new(vec![], vec![ModelKind::Gcn]);
        assert!(matches!(no_workloads.enumerate(), Err(DseError::Spec(_))));
        let no_models =
            ConfigSpace::new(vec![WorkloadSpec::dataset(DatasetKey::Ib, 0.1, 1)], vec![]);
        assert!(matches!(no_models.enumerate(), Err(DseError::Spec(_))));
        let empty_axis = space2x2().with_axis(Axis {
            name: "pipeline".into(),
            values: vec![],
        });
        assert!(matches!(empty_axis.enumerate(), Err(DseError::Spec(_))));
        let zero_sample = space2x2().with_sample(SpaceSample {
            max_points: 0,
            seed: 1,
        });
        assert!(matches!(zero_sample.enumerate(), Err(DseError::Spec(_))));
    }

    #[test]
    fn sampling_is_deterministic_and_order_preserving() {
        let full = space2x2().enumerate().unwrap();
        let sampled = space2x2()
            .with_sample(SpaceSample {
                max_points: 2,
                seed: 9,
            })
            .enumerate()
            .unwrap();
        assert_eq!(sampled.len(), 2);
        let again = space2x2()
            .with_sample(SpaceSample {
                max_points: 2,
                seed: 9,
            })
            .enumerate()
            .unwrap();
        assert_eq!(sampled, again);
        // Survivors appear in the same relative order as the full grid.
        let pos: Vec<usize> = sampled
            .iter()
            .map(|p| full.iter().position(|q| q.key == p.key).unwrap())
            .collect();
        assert!(pos.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn axis_spec_parsing() {
        let axes = Axis::parse_spec("aggbuf-mb=2,4; pipeline=latency,none").unwrap();
        assert_eq!(axes.len(), 2);
        assert_eq!(axes[0].values.len(), 2);
        assert_eq!(axes[1].values[1], AxisValue::Pipeline(PipelineMode::None));
        assert!(Axis::parse_spec("bogus=1").is_err());
        assert!(Axis::parse_spec("aggbuf-mb=2;aggbuf-mb=4").is_err());
        assert!(Axis::parse_spec("aggbuf-mb").is_err());
        assert!(Axis::parse_spec("sparsity=maybe").is_err());
        assert!(Axis::parse_spec("aggbuf-mb=0").is_err());
        assert!(Axis::parse_spec("").unwrap().is_empty());
    }

    #[test]
    fn memory_geometry_axes_fail_fast_as_spec_errors() {
        // burst-bytes > row-bytes is impossible geometry: without the
        // enumeration-time validation this combination panicked deep in
        // the address decode, mid-campaign.
        let space = ConfigSpace::new(
            vec![WorkloadSpec::dataset(DatasetKey::Ib, 0.1, 1)],
            vec![ModelKind::Gcn],
        )
        .with_axis(Axis::parse("row-bytes", "1024,2048").unwrap())
        .with_axis(Axis::parse("burst-bytes", "32,2048").unwrap());
        let err = space.enumerate().unwrap_err();
        match err {
            DseError::Spec(m) => {
                assert!(m.contains("burst"), "{m}");
                assert!(m.contains("row-bytes=1024"), "{m}");
            }
            other => panic!("expected Spec error, got {other:?}"),
        }
        // Non-power-of-two values are rejected at parse time already.
        assert!(Axis::parse("channels", "6").is_err());
        assert!(Axis::parse("burst-bytes", "48").is_err());
        // A consistent geometry sweep enumerates fine.
        let ok = ConfigSpace::new(
            vec![WorkloadSpec::dataset(DatasetKey::Ib, 0.1, 1)],
            vec![ModelKind::Gcn],
        )
        .with_axis(Axis::parse("channels", "2,4,8").unwrap())
        .with_axis(Axis::parse("burst-bytes", "32,64").unwrap());
        assert_eq!(ok.enumerate().unwrap().len(), 6);
    }

    #[test]
    fn decomposed_coordination_axes_touch_only_their_half() {
        let mut cfg = HyGcnConfig::default();
        AxisValue::parse("sched", "fcfs").unwrap().apply(&mut cfg);
        assert_eq!(cfg.coordination, CoordinationMode::Fcfs);
        assert_eq!(cfg.hbm.mapping, MappingScheme::ChannelInterleaved);
        AxisValue::parse("remap", "high").unwrap().apply(&mut cfg);
        assert_eq!(cfg.hbm.mapping, MappingScheme::RowInterleaved);
        assert_eq!(cfg.coordination, CoordinationMode::Fcfs);
        AxisValue::parse("controller", "frfcfs")
            .unwrap()
            .apply(&mut cfg);
        assert_eq!(cfg.hbm.controller, ControllerPolicy::FrFcfs { window: 32 });
    }

    #[test]
    fn module_geometry_axis_sets_all_three_knobs() {
        let mut cfg = HyGcnConfig::default();
        let v = AxisValue::parse("module-geom", "32x1x4").unwrap();
        assert_eq!(v.label(), "32x1x4");
        v.apply(&mut cfg);
        assert_eq!(
            (
                cfg.systolic_modules,
                cfg.module_rows,
                cfg.module_group_vertices
            ),
            (32, 1, 4)
        );
        assert!(AxisValue::parse("module-geom", "8x4").is_err());
        assert!(AxisValue::parse("module-geom", "8x4x0").is_err());
        assert!(AxisValue::parse("module-geom", "axbxc").is_err());
    }

    #[test]
    fn reordered_workload_has_distinct_canon_and_builds() {
        use hygcn_graph::reorder::Ordering;
        let natural = WorkloadSpec::dataset(DatasetKey::Ib, 0.1, 1);
        let shuffled = WorkloadSpec::Reordered {
            key: DatasetKey::Ib,
            scale: 0.1,
            seed: 1,
            orderings: vec![Ordering::Random(7)],
        };
        let recovered = WorkloadSpec::Reordered {
            key: DatasetKey::Ib,
            scale: 0.1,
            seed: 1,
            orderings: vec![Ordering::Random(7), Ordering::Bfs],
        };
        let canons: Vec<String> = [&natural, &shuffled, &recovered]
            .iter()
            .map(|w| w.canon().unwrap())
            .collect();
        assert_ne!(canons[0], canons[1]);
        assert_ne!(canons[1], canons[2]);
        assert_eq!(shuffled.label(), "IB@0.1+rnd7");
        assert_eq!(recovered.label(), "IB@0.1+rnd7+bfs");
        let a = natural.build().unwrap();
        let b = shuffled.build().unwrap();
        assert_eq!(a.num_vertices(), b.num_vertices());
        assert_eq!(a.num_edges(), b.num_edges());
    }

    #[test]
    fn timing_axes_apply_and_reject_bad_values() {
        let mut cfg = HyGcnConfig::default();
        let v = AxisValue::parse("clock-ghz", "1.25").unwrap();
        assert_eq!(v.label(), "1.25");
        v.apply(&mut cfg);
        assert_eq!(cfg.clock_ghz, 1.25);
        let v = AxisValue::parse("t-row", "56").unwrap();
        assert_eq!(v.label(), "56");
        v.apply(&mut cfg);
        assert_eq!(cfg.hbm.t_row, 56);
        for bad in ["0", "-1.5", "inf", "NaN", "fast"] {
            assert!(AxisValue::parse("clock-ghz", bad).is_err(), "{bad}");
        }
        for bad in ["0", "-3", "2.5", "slow"] {
            assert!(AxisValue::parse("t-row", bad).is_err(), "{bad}");
        }
        // A bad clock arriving through the *base* config (not an axis)
        // still fails at enumeration time as a spec error.
        let space = ConfigSpace::new(
            vec![WorkloadSpec::dataset(DatasetKey::Ib, 0.1, 1)],
            vec![ModelKind::Gcn],
        )
        .with_base(HyGcnConfig {
            clock_ghz: 0.0,
            ..HyGcnConfig::default()
        });
        match space.enumerate() {
            Err(DseError::Spec(m)) => assert!(m.contains("clock"), "{m}"),
            other => panic!("expected Spec error, got {other:?}"),
        }
    }

    #[test]
    fn timing_axes_enumerate_with_distinct_keys() {
        let space = ConfigSpace::new(
            vec![WorkloadSpec::dataset(DatasetKey::Ib, 0.1, 1)],
            vec![ModelKind::Gcn],
        )
        .with_axis(Axis::parse("clock-ghz", "0.8,1.0,1.2").unwrap())
        .with_axis(Axis::parse("t-row", "14,28").unwrap());
        let points = space.enumerate().unwrap();
        assert_eq!(points.len(), 6);
        let keys: std::collections::BTreeSet<u64> = points.iter().map(|p| p.key).collect();
        assert_eq!(keys.len(), 6);
        assert_eq!(points[0].label(), "IB@0.1/GCN/clock-ghz=0.8,t-row=14");
    }

    #[test]
    fn backend_participates_in_the_key_with_cycle_elided() {
        let cycle = space2x2().enumerate().unwrap();
        let analytical = space2x2()
            .with_backend_id("analytical")
            .enumerate()
            .unwrap();
        // Legacy compatibility: the default backend hashes exactly as the
        // pre-backend three-part key did.
        let cfg = &cycle[0].config;
        let legacy = {
            use hygcn_graph::hashing::Fnv64;
            let mut h = Fnv64::new();
            h.write_str("config=");
            h.write_str(&cfg.canon());
            h.write_str(";model=GCN");
            h.write_str(";workload=");
            h.write_str(&cycle[0].workload.canon().unwrap());
            h.finish()
        };
        assert_eq!(cycle[0].key, legacy);
        assert_eq!(cycle[0].backend, "cycle");
        // Every backend's keys are disjoint from every other's.
        for (c, a) in cycle.iter().zip(&analytical) {
            assert_ne!(c.key, a.key);
            assert_eq!(a.backend, "analytical");
        }
        // Retargeting is reversible and composes with fidelity.
        let back = analytical[0].with_backend("cycle").unwrap();
        assert_eq!(back.key, cycle[0].key);
        let half = analytical[0].at_fidelity(0.5).unwrap();
        assert_eq!(half.backend, "analytical");
        assert_ne!(half.key, analytical[0].key);
        assert_ne!(
            half.key,
            cycle[0].at_fidelity(0.5).unwrap().key,
            "fidelity rungs stay backend-isolated too"
        );
    }

    #[test]
    fn fidelity_retarget_changes_key_and_is_identity_at_one() {
        let points = space2x2().enumerate().unwrap();
        let p = &points[0];
        let half = p.at_fidelity(0.5).unwrap();
        assert_ne!(half.key, p.key);
        assert_eq!(half.config.fidelity, 0.5);
        assert_eq!(half.assignment.last().unwrap().0, "fidelity");
        // Re-targeting back to 1.0 restores the original identity.
        let back = half.at_fidelity(1.0).unwrap();
        assert_eq!(back.key, p.key);
        assert_eq!(back.assignment, p.assignment);
        assert!(p.at_fidelity(0.0).is_err());
        assert!(p.at_fidelity(1.5).is_err());
    }

    #[test]
    fn build_at_scales_dataset_workloads_down() {
        let w = WorkloadSpec::dataset(DatasetKey::Ib, 0.5, 1);
        let full = w.build_at(1.0).unwrap();
        let half = w.build_at(0.5).unwrap();
        assert!(half.num_vertices() < full.num_vertices());
        // And matches instantiating at the product scale directly.
        let direct = WorkloadSpec::dataset(DatasetKey::Ib, 0.25, 1)
            .build()
            .unwrap();
        assert_eq!(half.num_vertices(), direct.num_vertices());
        assert!(w.build_at(0.0).is_err());
    }

    #[test]
    fn coordination_axis_flips_mapping_and_scheduler() {
        let mut cfg = HyGcnConfig::default();
        AxisValue::Coordination(false).apply(&mut cfg);
        assert_eq!(cfg.coordination, CoordinationMode::Fcfs);
        assert_eq!(cfg.hbm, HbmConfig::hbm1_uncoordinated());
        AxisValue::Coordination(true).apply(&mut cfg);
        assert_eq!(cfg.coordination, CoordinationMode::PriorityBatched);
        assert_eq!(cfg.hbm, HbmConfig::hbm1());
    }

    #[test]
    fn every_axis_name_round_trips() {
        for &name in AXIS_NAMES {
            let token = match name {
                "pipeline" => "energy",
                "coordination" | "sparsity" => "off",
                "module-geom" => "16x2x8",
                "agg-mode" => "concentrated",
                "sched" => "fcfs",
                "remap" => "high",
                "controller" => "frfcfs",
                "row-bytes" => "4096",
                "burst-bytes" => "64",
                "clock-ghz" => "1.25",
                "t-row" => "21",
                _ => "4",
            };
            let v = AxisValue::parse(name, token).unwrap();
            assert_eq!(v.axis_name(), name);
            assert_eq!(v.label(), token);
            let mut cfg = HyGcnConfig::default();
            let before = cfg.canon();
            v.apply(&mut cfg);
            assert_ne!(before, cfg.canon(), "axis '{name}' must change the config");
        }
    }
}
