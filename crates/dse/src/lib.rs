//! # hygcn-dse
//!
//! Design-space-exploration campaigns for the HyGCN simulator: the
//! machinery that turns the verified single-run core into a machine for
//! answering many questions at once — the paper's ablation sweeps
//! (Fig. 15), scalability studies (Fig. 18), and Table 6 design-point
//! searches, each reproduced by **one** campaign invocation.
//!
//! ## The three layers
//!
//! * [`space`] — a declarative [`space::ConfigSpace`]: named axes over
//!   [`hygcn_core::HyGcnConfig`] fields, pipeline/coordination/sparsity
//!   modes, sampling factors, models, and dataset workloads, expanded by
//!   grid enumeration (optionally thinned by seeded random sampling) into
//!   a deterministic, deduplicated list of [`space::DesignPoint`]s. Every
//!   point carries a **stable cache key** — an FNV-1a hash of the
//!   config's canonical serialization plus the workload identity — equal
//!   across processes for equal inputs and distinct for any differing
//!   axis value.
//! * [`campaign`] — the [`campaign::Campaign`] executor: builds each
//!   graph+model workload **once** and shares it across all config points
//!   touching it (on the single-CPU reference box, speed comes from reuse;
//!   where threads exist, points fan out via `hygcn_par` with results
//!   merged in deterministic order), and streams each finished point into
//!   an on-disk [`store::ResultStore`] (`campaign.jsonl`). An interrupted
//!   or re-run campaign skips completed points — re-running an unchanged
//!   campaign performs **zero** simulations.
//! * [`analysis`] — Pareto-front extraction over (cycles, energy,
//!   DRAM bytes), per-axis marginal tables, and CSV/Markdown emitters.
//! * [`search`] — strategies over a space: grid, seeded random
//!   sampling, and multi-fidelity **successive halving**, whose rungs
//!   evaluate surviving points at increasing workload fidelity with
//!   deterministic promotion and every evaluation flowing through the
//!   same cached store (halving runs are themselves resumable).
//!
//! ## Example
//!
//! ```
//! use hygcn_dse::analysis;
//! use hygcn_dse::campaign::Campaign;
//! use hygcn_dse::space::{Axis, ConfigSpace, WorkloadSpec};
//! use hygcn_gcn::model::ModelKind;
//! use hygcn_graph::datasets::DatasetKey;
//!
//! # fn main() -> Result<(), hygcn_dse::DseError> {
//! let space = ConfigSpace::new(
//!     vec![WorkloadSpec::dataset(DatasetKey::Ib, 0.1, 0x5EED)],
//!     vec![ModelKind::Gcn],
//! )
//! .with_axis(Axis::parse("aggbuf-mb", "4,16")?)
//! .with_axis(Axis::parse("sparsity", "on,off")?);
//! let report = Campaign::new(space).run()?; // in-memory, no store file
//! assert_eq!(report.points.len(), 4);
//! let front = analysis::pareto_front(&report.points);
//! assert!(!front.is_empty());
//! # Ok(())
//! # }
//! ```

pub mod analysis;
pub mod campaign;
pub mod search;
pub mod space;
pub mod store;
pub mod store_io;

pub use campaign::{Campaign, CampaignReport, CompletedPoint, PointOutcome, WorkloadMemo};
pub use search::{
    run_search, run_search_io, run_search_with_backend, BudgetMetric, SearchOutcome, SearchStrategy,
};
pub use space::{
    Axis, AxisValue, ConfigSpace, DesignPoint, SpaceSample, WorkloadSpec, DEFAULT_BACKEND,
};
pub use store::{FsckReport, QuarantinedLine, ResultStore, SalvageReport, StoreStats};
pub use store_io::{Fault, FaultPlan, FaultyIo, RealIo, RetryPolicy, Sleeper, StoreIo};

/// Top-level error for campaign construction and execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DseError {
    /// The space specification is malformed or empty (unknown axis, bad
    /// value, no workloads/models, an empty axis, a zero-point sample).
    Spec(String),
    /// A workload failed to build (dataset instantiation, edge-list I/O).
    Workload(String),
    /// The simulator rejected a design point.
    Sim(String),
    /// The result store's *contents* are unusable (parse/corruption
    /// problems with no I/O failure involved).
    Store(String),
    /// A store I/O operation failed, with the operation and path that
    /// failed — the diagnosable form every filesystem error surfaces as.
    StoreIo {
        /// The failing operation: `open`, `append`, `truncate`, or
        /// `rewrite`.
        op: &'static str,
        /// The store path the operation targeted.
        path: String,
        /// The underlying I/O error, stringified.
        error: String,
        /// Whether retrying could plausibly help (see
        /// [`store_io::is_transient`]).
        transient: bool,
    },
}

impl DseError {
    pub(crate) fn store_io(op: &'static str, path: &std::path::Path, e: &std::io::Error) -> Self {
        DseError::StoreIo {
            op,
            path: path.display().to_string(),
            error: e.to_string(),
            transient: store_io::is_transient(e),
        }
    }
}

impl std::fmt::Display for DseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DseError::Spec(m) => write!(f, "space specification: {m}"),
            DseError::Workload(m) => write!(f, "workload: {m}"),
            DseError::Sim(m) => write!(f, "simulation: {m}"),
            DseError::Store(m) => write!(f, "result store: {m}"),
            DseError::StoreIo {
                op, path, error, ..
            } => write!(f, "result store: {op} {path}: {error}"),
        }
    }
}

impl std::error::Error for DseError {}
