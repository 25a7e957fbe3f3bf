//! The campaign executor: shared workload builds, cached execution, and
//! streaming persistence.
//!
//! Execution strategy, shaped by the single-CPU reference box:
//!
//! 1. **Reuse over threads.** Points are grouped by workload; each graph
//!    is synthesized once per campaign and each `(model, feature_len)`
//!    pair is instantiated once per group, shared by reference across
//!    every config point — and every backend — that touches it. Building
//!    Reddit-scale graphs dwarfs a single simulation, so this is where
//!    the campaign's speed comes from. A [`WorkloadMemo`] extends the
//!    sharing across campaigns: a run of several campaigns handed one
//!    memo builds each workload once.
//! 2. **Replay controller and timing points together.** Within a
//!    workload group, the missing points are grouped again by
//!    `(backend, model,` [`HyGcnConfig::decode_class`]`)`, in order of
//!    first occurrence: points that differ only in the controller,
//!    clock, timeline recording or HBM timing. Each such class splits
//!    into *lane groups* of at most [`MAX_LANES`] distinct HBM timings
//!    (`t_burst`, `t_row`, `t_cas`), every point of a timing in its
//!    timing's group. A lane group is one [`SimBackend::evaluate_lanes`]
//!    call; on the cycle backends its points share sampling, the
//!    engines and the program and schedule lookups, and each distinct
//!    service order and timing replays once, as a lane of a shared
//!    pass. A `t-row × controller` sweep is one call, and when FR-FCFS
//!    keeps arrival order one 3-lane pass.
//! 3. **Fan out where threads exist.** Lane groups run through
//!    [`hygcn_par::par_map_slice`] in batches of one group per worker;
//!    results splice back in deterministic point order, so a campaign's
//!    outputs are bit-identical at any thread count.
//! 4. **Stream completions.** Every finished batch is appended to the
//!    [`ResultStore`], in point order, before the next batch starts: a
//!    killed campaign loses at most one batch, one lane group per
//!    worker (the points of at most `MAX_LANES` timings of one decode
//!    class each, whatever their controllers and clocks), and the
//!    re-run skips everything already stored.
//! 5. **Isolate failures.** A backend evaluation that errors (after
//!    bounded retries) or panics becomes a [`PointOutcome::Failed`] — it
//!    is *not* persisted, so a resumed campaign re-attempts exactly the
//!    failed points, and one bad point never aborts the rest of the run.
//!    A lane that errs is retried alone; a lane group that panics is
//!    evaluated again one point at a time, so only the panicking point
//!    fails.

use std::path::PathBuf;
use std::sync::{Arc, Mutex, PoisonError};

use hygcn_core::backend::{core_backend, SimBackend};
use hygcn_core::{HyGcnConfig, SimError, SimReport};
use hygcn_gcn::model::{GcnModel, ModelKind};
use hygcn_graph::Graph;
use hygcn_mem::MAX_LANES;

use crate::space::{ConfigSpace, DesignPoint, WorkloadSpec};
use crate::store::{ResultStore, StoreRecord};
use crate::store_io::{default_sleeper, RetryPolicy, Sleeper, StoreIo};
use crate::DseError;

/// Seed for the shared model weights — the same constant the CLI's
/// single-run commands use, so a 1-point campaign reproduces
/// `hygcn simulate` bit-for-bit.
pub const MODEL_SEED: u64 = 0xC0DE;

/// One successfully executed (or cache-served) design point.
#[derive(Debug, Clone, PartialEq)]
pub struct CompletedPoint {
    /// The point.
    pub point: DesignPoint,
    /// Simulated cycles.
    pub cycles: u64,
    /// Simulated seconds.
    pub time_s: f64,
    /// Total dynamic energy in joules.
    pub energy_j: f64,
    /// Total DRAM traffic in bytes.
    pub dram_bytes: u64,
    /// Full report as compact single-line JSON.
    pub report_json: String,
    /// Whether the result came from the store (true) or a fresh
    /// simulation (false).
    pub cached: bool,
}

/// What became of one design point.
#[derive(Debug, Clone, PartialEq)]
pub enum PointOutcome {
    /// The point completed (fresh simulation or cache hit).
    Done(CompletedPoint),
    /// The backend evaluation failed — errored after bounded retries, or
    /// panicked. Failed points are never persisted, so a resumed
    /// campaign re-attempts exactly these.
    Failed {
        /// The point.
        point: DesignPoint,
        /// The terminal error (the last retry's message, or the panic
        /// payload).
        error: String,
    },
}

impl PointOutcome {
    /// The design point, completed or not.
    pub fn point(&self) -> &DesignPoint {
        match self {
            PointOutcome::Done(c) => &c.point,
            PointOutcome::Failed { point, .. } => point,
        }
    }

    /// The completed result, if the point succeeded.
    pub fn done(&self) -> Option<&CompletedPoint> {
        match self {
            PointOutcome::Done(c) => Some(c),
            PointOutcome::Failed { .. } => None,
        }
    }

    /// Mutable access to the completed result, if the point succeeded.
    pub fn done_mut(&mut self) -> Option<&mut CompletedPoint> {
        match self {
            PointOutcome::Done(c) => Some(c),
            PointOutcome::Failed { .. } => None,
        }
    }

    /// The completed result; panics (with the stored error) on a failed
    /// point — for harness code where a failure is itself a bug.
    pub fn expect_done(&self) -> &CompletedPoint {
        match self {
            PointOutcome::Done(c) => c,
            PointOutcome::Failed { point, error } => {
                // lint: allow(panic-macro) -- panicking on failure is this accessor's documented contract; error() is the fallible form
                panic!("point {} failed: {error}", point.label())
            }
        }
    }

    /// The failure message, if the point failed.
    pub fn error(&self) -> Option<&str> {
        match self {
            PointOutcome::Done(_) => None,
            PointOutcome::Failed { error, .. } => Some(error),
        }
    }

    /// Whether the point failed.
    pub fn is_failed(&self) -> bool {
        matches!(self, PointOutcome::Failed { .. })
    }
}

/// Everything a campaign run produced, in enumeration order.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// Per-point outcomes, ordered as [`ConfigSpace::enumerate`] listed
    /// them.
    pub points: Vec<PointOutcome>,
    /// Points simulated fresh this run.
    pub simulated: usize,
    /// Points served from the store.
    pub cache_hits: usize,
    /// Points whose evaluation failed this run (not persisted; a re-run
    /// re-attempts them).
    pub failed: usize,
}

impl CampaignReport {
    /// A report over `points`, with the counts derived from the outcomes
    /// (a cached completion is a cache hit, any other a simulation).
    pub fn from_outcomes(points: Vec<PointOutcome>) -> Self {
        let done = |cached| {
            let count = |o: &&PointOutcome| o.done().is_some_and(|c| c.cached == cached);
            points.iter().filter(count).count()
        };
        Self {
            simulated: done(false),
            cache_hits: done(true),
            failed: points.iter().filter(|o| o.is_failed()).count(),
            points,
        }
    }

    /// The completed outcomes, in campaign order (failed points skipped).
    pub fn completed(&self) -> impl Iterator<Item = &CompletedPoint> {
        self.points.iter().filter_map(PointOutcome::done)
    }
}

/// A runnable campaign: a space, the backends evaluating its points, and
/// an optional persistent store.
#[derive(Clone)]
pub struct Campaign {
    space: ConfigSpace,
    store_path: Option<PathBuf>,
    store_io: Option<Arc<dyn StoreIo>>,
    retry: RetryPolicy,
    sleeper: Option<Sleeper>,
    backend: Option<Arc<dyn SimBackend>>,
    resolver: fn(&str) -> Option<Arc<dyn SimBackend>>,
    workloads: Option<WorkloadMemo>,
}

impl std::fmt::Debug for Campaign {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Campaign")
            .field("space", &self.space)
            .field("store_path", &self.store_path)
            .field("store_io", &self.store_io)
            .field("retry", &self.retry)
            .field("backend", &self.backend)
            .field("workloads", &self.workloads)
            .finish()
    }
}

impl Campaign {
    /// A campaign over `space` with no persistence (results are
    /// recomputed every run — the legacy `sweep` behavior).
    ///
    /// Each point evaluates on the backend its key names. The ids
    /// `hygcn-core` provides (`cycle`, `seed`, `analytical`) resolve on
    /// their own; the platform backends of
    /// `hygcn-baseline`, which this crate cannot depend on, need
    /// [`Self::with_backend`] or [`Self::with_resolver`].
    pub fn new(space: ConfigSpace) -> Self {
        Self {
            space,
            store_path: None,
            store_io: None,
            retry: RetryPolicy::default(),
            sleeper: None,
            backend: None,
            resolver: core_backend,
            workloads: None,
        }
    }

    /// Persists results to (and resumes from) `path`.
    pub fn with_store(mut self, path: impl Into<PathBuf>) -> Self {
        self.store_path = Some(path.into());
        self
    }

    /// Routes all store file traffic through `io` — the fault-injection
    /// hook ([`crate::store_io::FaultyIo`]); production runs keep the
    /// default [`crate::store_io::RealIo`].
    pub fn with_store_io(mut self, io: Arc<dyn StoreIo>) -> Self {
        self.store_io = Some(io);
        self
    }

    /// Sets the bounded retry-with-backoff policy shared by store
    /// appends and backend evaluations.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Replaces how retry backoff delays are executed (tests inject a
    /// recorder so retries consume no wall-clock time).
    pub fn with_sleeper(mut self, sleeper: Sleeper) -> Self {
        self.sleeper = Some(sleeper);
        self
    }

    /// Supplies the evaluation backend object. The space's backend id is
    /// synced to it, so points enumerated by [`Self::run`] are keyed for
    /// exactly the backend that will evaluate them; points keyed for
    /// other ids still go to the resolver.
    pub fn with_backend(mut self, backend: Arc<dyn SimBackend>) -> Self {
        self.space.backend = backend.backend_id().to_string();
        self.backend = Some(backend);
        self
    }

    /// Replaces how backend ids resolve to backends (default:
    /// `hygcn-core`'s own; `hygcn_baseline::backend::resolve` knows the
    /// full vocabulary).
    pub fn with_resolver(mut self, resolver: fn(&str) -> Option<Arc<dyn SimBackend>>) -> Self {
        self.resolver = resolver;
        self
    }

    /// Takes every group's graph from `memo`, which builds only the
    /// workloads it has not seen. Campaigns sharing one memo build each
    /// workload once between them; without one, each group builds its
    /// graph and drops it when the group is done.
    pub fn with_workload_memo(mut self, memo: WorkloadMemo) -> Self {
        self.workloads = Some(memo);
        self
    }

    /// The space this campaign runs.
    pub fn space(&self) -> &ConfigSpace {
        &self.space
    }

    /// How retry backoff delays run: the injected sleeper, or real sleep.
    fn sleeper(&self) -> Sleeper {
        self.sleeper.clone().unwrap_or_else(default_sleeper)
    }

    /// The backend evaluating points keyed for `id`, or a spec error
    /// naming the id.
    fn backend_for(&self, id: &str) -> Result<Arc<dyn SimBackend>, DseError> {
        match &self.backend {
            Some(b) if b.backend_id() == id => Some(b.clone()),
            _ => (self.resolver)(id),
        }
        // A backend answering to another id would serve the wrong key.
        .filter(|b| b.backend_id() == id)
        .ok_or_else(|| {
            DseError::Spec(format!(
                "backend '{id}' is not provided by hygcn-core; supply it with \
                 Campaign::with_backend or Campaign::with_resolver \
                 (hygcn_baseline::backend::resolve knows the full vocabulary)"
            ))
        })
    }

    /// Enumerates the space and runs every point not already in the
    /// store, streaming completions to disk.
    ///
    /// # Errors
    ///
    /// * [`DseError::Spec`] for an empty space.
    /// * [`DseError::Workload`] when a graph fails to build.
    /// * [`DseError::Sim`] when a model fails to instantiate.
    /// * [`DseError::StoreIo`] for store I/O problems (already-completed
    ///   points stay persisted, so a fixed re-run resumes).
    ///
    /// A backend evaluation that errors or panics is **not** an error:
    /// the campaign completes and the report carries the point as
    /// [`PointOutcome::Failed`].
    pub fn run(&self) -> Result<CampaignReport, DseError> {
        let points = self.space.enumerate()?;
        self.run_points(&points)
    }

    /// Runs an explicit point list through the executor: opens the store
    /// this campaign is configured with ([`Self::open_store`]), then
    /// runs the points against it exactly as [`Self::run_points_in`]
    /// does. A caller running several point lists over one store opens
    /// it once and calls that instead.
    ///
    /// # Errors
    ///
    /// As [`Self::run_points_in`], plus the store's open errors.
    pub fn run_points(&self, points: &[DesignPoint]) -> Result<CampaignReport, DseError> {
        self.run_points_in(&mut self.open_store()?, points)
    }

    /// Opens the store this campaign is configured with: the
    /// [`Self::with_store`] file, read through its [`StoreIo`] and
    /// appended to under its retry policy and sleeper, or an in-memory
    /// store when no file was set.
    ///
    /// # Errors
    ///
    /// As [`ResultStore::open_with`].
    pub fn open_store(&self) -> Result<ResultStore, DseError> {
        match &self.store_path {
            Some(p) => ResultStore::open_with(
                p,
                self.store_io
                    .clone()
                    .unwrap_or_else(|| Arc::new(crate::store_io::RealIo)),
                self.retry,
                self.sleeper(),
            ),
            None => Ok(ResultStore::in_memory()),
        }
    }

    /// The campaign executor: runs `points` against an open `store`,
    /// evaluating only the points it does not already hold and appending
    /// each batch's completions to it (and to its file) before the next
    /// batch starts. A store shared by several calls serves each one
    /// what the earlier ones appended, with no re-read; records another
    /// process appends to its file meanwhile are not seen. This is the
    /// hook the successive-halving search uses to evaluate its prefilter
    /// and each rung's survivors (with per-rung fidelity overrides
    /// already stamped on the points) over one store, and the figure
    /// harness uses to run all of an artifact's spaces at once against
    /// its context's store.
    ///
    /// Each point evaluates on the backend its key names. Workload
    /// sharing groups by `(workload, config.fidelity)`: every group
    /// builds its graph once via [`WorkloadSpec::build_at`] (or takes it
    /// from the [`Self::with_workload_memo`] memo) and serves every
    /// backend in it, so a half-fidelity rung shares one half-scale
    /// graph across its survivors, and mixed-fidelity lists never leak a
    /// graph across fidelities. A key listed more than once is evaluated
    /// once; its later occurrences read the result back as cached.
    /// Outcomes return in input order.
    ///
    /// # Errors
    ///
    /// As [`Self::run`], minus the enumeration and open errors;
    /// additionally [`DseError::Spec`], before anything runs, when a
    /// point's backend id resolves to no backend.
    pub fn run_points_in(
        &self,
        store: &mut ResultStore,
        points: &[DesignPoint],
    ) -> Result<CampaignReport, DseError> {
        // Resolve every backend the points name before anything runs.
        let mut backends: Vec<Arc<dyn SimBackend>> = Vec::new();
        for p in points {
            if !backends.iter().any(|b| b.backend_id() == p.backend) {
                backends.push(self.backend_for(&p.backend)?);
            }
        }
        let sleeper = self.sleeper();

        // The first occurrence of each key evaluates it; which points
        // were already done before this run started.
        let mut firsts = std::collections::BTreeMap::new();
        let first: Vec<usize> = points
            .iter()
            .enumerate()
            .map(|(i, p)| *firsts.entry(p.key).or_insert(i))
            .collect();
        let preexisting: Vec<bool> = points.iter().map(|p| store.get(p.key).is_some()).collect();
        let missing: Vec<usize> = (0..points.len())
            .filter(|&i| first[i] == i && !preexisting[i])
            .collect();
        let hits = (points.len() - missing.len()) as u64;
        hygcn_obs::count(hygcn_obs::Counter::PointsTotal, points.len() as u64);
        hygcn_obs::count(hygcn_obs::Counter::CacheHits, hits);
        hygcn_obs::count(hygcn_obs::Counter::PointsCached, hits);
        hygcn_obs::count(hygcn_obs::Counter::CacheMisses, missing.len() as u64);

        // Group the missing points by (workload, fidelity), preserving
        // point order within each group (the pair is the sharing handle:
        // one built graph per group).
        let mut groups: Vec<(&WorkloadSpec, u64, Vec<usize>)> = Vec::new();
        for i in missing {
            let p = &points[i];
            let fidelity = p.config.fidelity.to_bits();
            match groups
                .iter_mut()
                .find(|(w, f, _)| **w == p.workload && *f == fidelity)
            {
                Some((_, _, idxs)) => idxs.push(i),
                None => groups.push((&p.workload, fidelity, vec![i])),
            }
        }

        let mut failures: std::collections::BTreeMap<usize, String> =
            std::collections::BTreeMap::new();
        for (workload, fidelity_bits, idxs) in groups {
            let fidelity = f64::from_bits(fidelity_bits);
            let graph = match &self.workloads {
                Some(memo) => memo.graph(workload, fidelity)?,
                None => Arc::new(build_traced(workload, fidelity)?),
            };
            let graph_hash = graph.content_hash();
            // One model instance per kind in this group, shared across
            // every point of the group.
            let mut models: Vec<(ModelKind, GcnModel)> = Vec::new();
            for &i in &idxs {
                let kind = points[i].model;
                if !models.iter().any(|(k, _)| *k == kind) {
                    let model = GcnModel::new(kind, graph.feature_len(), MODEL_SEED)
                        .map_err(|e| DseError::Sim(e.to_string()))?;
                    models.push((kind, model));
                }
            }

            // Lane groups: points of one backend, model and decode class
            // share everything but the controller, clock, timeline
            // recording and HBM timing, so they evaluate as one
            // `evaluate_lanes` call — on the cycle backends, one program
            // lookup and one replay per distinct service order and
            // timing. In order of first occurrence, split by timing.
            let mut classes: Vec<(_, Vec<usize>)> = Vec::new();
            for &i in &idxs {
                let p = &points[i];
                let class = (p.backend.as_str(), p.model, p.config.decode_class());
                match classes.iter_mut().find(|(c, _)| *c == class) {
                    Some((_, members)) => members.push(i),
                    None => classes.push((class, vec![i])),
                }
            }
            let lane_groups: Vec<Vec<usize>> = classes
                .iter()
                .flat_map(|(_, members)| timing_chunks(points, members))
                .collect();

            // Fan the lane groups out in batches of one group per worker;
            // the ordered collect keeps results in point order, and the
            // store append after each batch is the streaming/kill-safety
            // point.
            let batch = hygcn_par::num_threads().max(1);
            for chunk in lane_groups.chunks(batch) {
                let _obs_batch = hygcn_obs::span(hygcn_obs::Phase::CampaignBatch);
                let reports: Vec<Vec<(usize, Result<SimReport, String>)>> =
                    hygcn_par::par_map_slice(chunk, |_, lanes| {
                        self.evaluate_group(&backends, &models, &graph, points, lanes, &sleeper)
                    });
                let mut reports: Vec<(usize, Result<SimReport, String>)> =
                    reports.into_iter().flatten().collect();
                reports.sort_by_key(|&(i, _)| i);
                for (i, report) in reports {
                    let report = match report {
                        Ok(r) => r,
                        Err(error) => {
                            hygcn_obs::count(hygcn_obs::Counter::PointsFailed, 1);
                            failures.insert(i, error);
                            continue;
                        }
                    };
                    let p = &points[i];
                    store.append(StoreRecord {
                        key: p.key,
                        label: p.label(),
                        graph_hash,
                        cycles: report.cycles,
                        time_s: report.time_s,
                        energy_j: report.energy_j(),
                        dram_bytes: report.dram_bytes(),
                        report_json: report.to_json_compact(),
                    })?;
                    hygcn_obs::count(hygcn_obs::Counter::PointsSimulated, 1);
                }
            }
        }

        // Assemble outcomes in input order from the (now complete) store.
        let mut outcomes = Vec::with_capacity(points.len());
        for (i, p) in points.iter().enumerate() {
            if let Some(error) = failures.get(&first[i]) {
                outcomes.push(PointOutcome::Failed {
                    point: p.clone(),
                    error: error.clone(),
                });
                continue;
            }
            let rec = store.get(p.key).ok_or_else(|| {
                DseError::Store(format!(
                    "point {} completed but is missing from the store",
                    p.label()
                ))
            })?;
            outcomes.push(PointOutcome::Done(CompletedPoint {
                cycles: rec.cycles,
                time_s: rec.time_s,
                energy_j: rec.energy_j,
                dram_bytes: rec.dram_bytes,
                report_json: rec.report_json.clone(),
                cached: preexisting[i] || first[i] != i,
                point: p.clone(),
            }));
        }
        Ok(CampaignReport::from_outcomes(outcomes))
    }
}

impl Campaign {
    /// Evaluates the lane group `lanes` (indexes into `points`, one
    /// backend, model and decode class) as one `evaluate_lanes` call.
    /// A lane that errs is retried alone under the retry policy. If the
    /// call panics, every point is evaluated again alone, each under its
    /// own `catch_unwind`, so only a panicking point fails: a panic is
    /// never retried, since the backend's state is suspect.
    fn evaluate_group(
        &self,
        backends: &[Arc<dyn SimBackend>],
        models: &[(ModelKind, GcnModel)],
        graph: &Graph,
        points: &[DesignPoint],
        lanes: &[usize],
        sleeper: &Sleeper,
    ) -> Vec<(usize, Result<SimReport, String>)> {
        let Some(&first) = lanes.first() else {
            return Vec::new();
        };
        let p = &points[first];
        // Resolved and prebuilt for every point; a miss fails the points
        // instead of the process.
        let (Some(model), Some(backend)) = (
            models.iter().find(|(k, _)| *k == p.model).map(|(_, m)| m),
            backends.iter().find(|b| b.backend_id() == p.backend),
        ) else {
            return lanes
                .iter()
                .map(|&i| {
                    (
                        i,
                        Err(format!("{}: model or backend missing", points[i].label())),
                    )
                })
                .collect();
        };
        let configs: Vec<HyGcnConfig> = lanes.iter().map(|&i| points[i].config.clone()).collect();
        let shared = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            backend.evaluate_lanes(graph, model, &configs)
        }));
        let firsts: Vec<Option<Result<SimReport, SimError>>> = match shared {
            Ok(results) if results.len() == lanes.len() => results.into_iter().map(Some).collect(),
            _ => vec![None; lanes.len()],
        };
        lanes
            .iter()
            .zip(firsts)
            .map(|(&i, first)| {
                let p = &points[i];
                let report = match first {
                    Some(Ok(report)) => Ok(report),
                    first => {
                        let failed = first.and_then(Result::err);
                        self.retry_alone(backend.as_ref(), graph, model, p, sleeper, failed)
                    }
                };
                (i, report)
            })
            .collect()
    }

    /// Evaluates `p` alone, retrying errors up to the retry policy;
    /// `failed` is the error of an attempt already made (as a lane), if
    /// any. A panic is caught and fails the point without a retry.
    fn retry_alone(
        &self,
        backend: &dyn SimBackend,
        graph: &Graph,
        model: &GcnModel,
        p: &DesignPoint,
        sleeper: &Sleeper,
        mut failed: Option<SimError>,
    ) -> Result<SimReport, String> {
        let mut attempt = u32::from(failed.is_some());
        loop {
            if let Some(e) = failed.take() {
                if attempt >= self.retry.max_attempts {
                    return Err(format!("{}: {e}", p.label()));
                }
                hygcn_obs::count(hygcn_obs::Counter::EvalRetries, 1);
                sleeper(self.retry.delay(attempt));
            }
            attempt += 1;
            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                backend.evaluate(graph, model, &p.config)
            }));
            match run {
                Ok(Ok(report)) => return Ok(report),
                Ok(Err(e)) => failed = Some(e),
                Err(payload) => {
                    return Err(format!(
                        "{}: backend panicked: {}",
                        p.label(),
                        panic_message(payload.as_ref())
                    ))
                }
            }
        }
    }
}

/// Splits `members`, points of one backend, model and decode class,
/// into lane groups of at most [`MAX_LANES`] distinct HBM timings
/// (`t_burst`, `t_row`, `t_cas`), in order of first occurrence: every
/// point of a timing sits in its timing's group, so a timing replays
/// once whatever its controller, clock or timeline recording.
fn timing_chunks(points: &[DesignPoint], members: &[usize]) -> Vec<Vec<usize>> {
    let timing = |i: usize| {
        let hbm = &points[i].config.hbm;
        (hbm.t_burst, hbm.t_row, hbm.t_cas)
    };
    let mut timings = Vec::new();
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for &i in members {
        let t = timing(i);
        let k = timings.iter().position(|&u| u == t).unwrap_or_else(|| {
            timings.push(t);
            timings.len() - 1
        });
        if k / MAX_LANES == groups.len() {
            groups.push(Vec::new());
        }
        groups[k / MAX_LANES].push(i);
    }
    groups
}

/// Renders a caught panic payload (the `&str`/`String` cases `panic!`
/// produces; anything else is labeled opaquely).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Graphs by `(workload, fidelity)`, built on first use and shared by
/// every clone of the memo — the handle that lets a run of several
/// campaigns (and the figure renders that measure a graph directly)
/// synthesize each workload once.
///
/// Entries live as long as the memo, so it suits runs over a fixed set
/// of workloads. An edge-list workload is read once per memo: a file
/// edited while the memo lives is not re-read.
#[derive(Clone, Default)]
pub struct WorkloadMemo(Arc<Mutex<Vec<MemoEntry>>>);

/// One memoized build: the workload, its fidelity's bits, the graph.
type MemoEntry = (WorkloadSpec, u64, Arc<Graph>);

impl WorkloadMemo {
    /// An empty memo.
    pub fn new() -> Self {
        Self::default()
    }

    /// The graph of `workload` at `fidelity`, built on a miss. Only a
    /// build opens a `workload_build` span; a hit records nothing. The
    /// memo builds one graph at a time: other callers wait for it.
    ///
    /// # Errors
    ///
    /// As [`WorkloadSpec::build_at`]; a failed build is not memoized.
    pub fn graph(&self, workload: &WorkloadSpec, fidelity: f64) -> Result<Arc<Graph>, DseError> {
        let bits = fidelity.to_bits();
        // A build that panics leaves the list untouched (entries are
        // pushed only after a successful build), so a poisoned lock
        // still guards a valid list.
        let mut entries = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some((_, _, graph)) = entries.iter().find(|(w, f, _)| w == workload && *f == bits) {
            return Ok(Arc::clone(graph));
        }
        let graph = Arc::new(build_traced(workload, fidelity)?);
        entries.push((workload.clone(), bits, Arc::clone(&graph)));
        Ok(graph)
    }
}

impl std::fmt::Debug for WorkloadMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let entries = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        f.debug_list()
            .entries(
                entries
                    .iter()
                    .map(|(w, f, _)| (w.label(), f64::from_bits(*f))),
            )
            .finish()
    }
}

/// Builds `workload` at `fidelity` under a `workload_build` span.
fn build_traced(workload: &WorkloadSpec, fidelity: f64) -> Result<Graph, DseError> {
    let _obs = hygcn_obs::span(hygcn_obs::Phase::WorkloadBuild);
    workload.build_at(fidelity)
}

/// Builds the graph for a workload and hands back `(graph, model)` for
/// one kind — the sharing handle single-run callers (the `sweep` alias,
/// examples) use to avoid rebuilding per configuration.
pub fn build_workload(
    spec: &WorkloadSpec,
    kind: hygcn_gcn::model::ModelKind,
) -> Result<(Graph, GcnModel), DseError> {
    let graph = spec.build()?;
    let model = GcnModel::new(kind, graph.feature_len(), MODEL_SEED)
        .map_err(|e| DseError::Sim(e.to_string()))?;
    Ok((graph, model))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::{Axis, SpaceSample, WorkloadSpec};
    use hygcn_core::{AnalyticalBackend, HyGcnConfig, SimError};
    use hygcn_gcn::model::ModelKind;
    use hygcn_graph::datasets::DatasetKey;
    use std::sync::Mutex;

    fn tiny_space() -> ConfigSpace {
        ConfigSpace::new(
            vec![WorkloadSpec::dataset(DatasetKey::Ib, 0.1, 1)],
            vec![ModelKind::Gcn],
        )
        .with_axis(Axis::parse("aggbuf-mb", "4,16").unwrap())
        .with_axis(Axis::parse("sparsity", "on,off").unwrap())
    }

    #[test]
    fn in_memory_campaign_runs_every_point() {
        let report = Campaign::new(tiny_space()).run().unwrap();
        assert_eq!(report.points.len(), 4);
        assert_eq!(report.simulated, 4);
        assert_eq!(report.cache_hits, 0);
        assert_eq!(report.failed, 0);
        for p in report.completed() {
            assert!(p.cycles > 0);
            assert!(p.energy_j > 0.0);
            assert!(!p.cached);
        }
        // The sparsity on/off pair shares a workload and buffer size but
        // must diverge in the simulated report.
        let (a, b) = (
            report.points[0].expect_done(),
            report.points[1].expect_done(),
        );
        assert_eq!(a.point.assignment[3].1, "on");
        assert_eq!(b.point.assignment[3].1, "off");
        assert_ne!(a.report_json, b.report_json);
    }

    #[test]
    fn sampled_campaign_respects_max_points() {
        let report = Campaign::new(tiny_space().with_sample(SpaceSample {
            max_points: 3,
            seed: 5,
        }))
        .run()
        .unwrap();
        assert_eq!(report.points.len(), 3);
        assert_eq!(report.simulated, 3);
    }

    #[test]
    fn multi_model_group_shares_graph() {
        let space = ConfigSpace::new(
            vec![WorkloadSpec::dataset(DatasetKey::Ib, 0.05, 1)],
            vec![ModelKind::Gcn, ModelKind::Gin],
        );
        let report = Campaign::new(space).run().unwrap();
        assert_eq!(report.points.len(), 2);
        assert_ne!(
            report.points[0].expect_done().cycles,
            report.points[1].expect_done().cycles
        );
    }

    #[test]
    fn analytical_campaign_runs_and_is_cache_isolated_from_cycle() {
        let dir = std::env::temp_dir().join("hygcn-dse-backend-test");
        std::fs::create_dir_all(&dir).unwrap();
        let store = dir.join("shared-backends.jsonl");
        std::fs::remove_file(&store).ok();

        // Cycle campaign fills the store...
        let cycle = Campaign::new(tiny_space())
            .with_store(&store)
            .run()
            .unwrap();
        assert_eq!((cycle.simulated, cycle.cache_hits), (4, 0));
        // ...and the analytical campaign over the SAME space and store
        // gets zero cross-backend hits.
        let analytical = Campaign::new(tiny_space().with_backend_id("analytical"))
            .with_store(&store)
            .run()
            .unwrap();
        assert_eq!((analytical.simulated, analytical.cache_hits), (4, 0));
        for (c, a) in cycle.completed().zip(analytical.completed()) {
            assert_ne!(c.point.key, a.point.key);
            assert_ne!(c.report_json, a.report_json);
            assert!(a.report_json.contains("\"backend\": \"analytical\""));
        }
        // Each backend's own re-run is 100% hits.
        let rerun = Campaign::new(tiny_space().with_backend_id("analytical"))
            .with_store(&store)
            .run()
            .unwrap();
        assert_eq!((rerun.simulated, rerun.cache_hits), (0, 4));
        assert_eq!(rerun.points, {
            let mut pts = analytical.points.clone();
            for p in &mut pts {
                p.done_mut().unwrap().cached = true;
            }
            pts
        });
        std::fs::remove_file(&store).ok();
    }

    #[test]
    fn backend_mismatched_points_are_rejected() {
        // A list mixing cycle- and analytical-keyed points runs each
        // point on the backend its key names...
        let mixed: Vec<_> = tiny_space()
            .enumerate()
            .unwrap()
            .iter()
            .enumerate()
            .map(|(i, p)| {
                if i % 2 == 0 {
                    p.clone()
                } else {
                    p.with_backend("analytical").unwrap()
                }
            })
            .collect();
        let report = Campaign::new(tiny_space()).run_points(&mixed).unwrap();
        assert_eq!((report.simulated, report.failed), (4, 0));
        for c in report.completed() {
            let provenance = if c.point.backend == "analytical" {
                "\"backend\": \"analytical\""
            } else {
                "\"backend\""
            };
            assert_eq!(
                c.report_json.contains(provenance),
                c.point.backend == "analytical",
                "{}",
                c.point.label()
            );
        }
        // ...and an unresolvable backend id fails with guidance, before
        // anything runs.
        match Campaign::new(tiny_space().with_backend_id("gpu")).run() {
            Err(DseError::Spec(m)) => assert!(m.contains("with_backend"), "{m}"),
            other => panic!("expected Spec error, got {other:?}"),
        }
    }

    #[test]
    fn repeated_keys_evaluate_once_and_read_back_cached() {
        let points = tiny_space().enumerate().unwrap();
        let twice: Vec<_> = points.iter().chain(&points).cloned().collect();
        let report = Campaign::new(tiny_space()).run_points(&twice).unwrap();
        assert_eq!(
            (report.simulated, report.cache_hits, report.failed),
            (4, 4, 0)
        );
        let (first, again) = report.points.split_at(4);
        for (a, b) in first.iter().zip(again) {
            let (a, b) = (a.expect_done(), b.expect_done());
            assert!(!a.cached && b.cached);
            assert_eq!((&a.point, &a.report_json), (&b.point, &b.report_json));
        }
    }

    #[test]
    fn spaces_sharing_a_workload_share_its_graph() {
        // CR is workload 1 of the first space and workload 0 of the
        // second: grouping by workload (not by index) must still hand
        // every point its own graph.
        let ib = WorkloadSpec::dataset(DatasetKey::Ib, 0.05, 1);
        let cr = WorkloadSpec::dataset(DatasetKey::Cr, 0.05, 1);
        let a = ConfigSpace::new(vec![ib, cr.clone()], vec![ModelKind::Gcn])
            .with_backend_id("analytical");
        let b = ConfigSpace::new(vec![cr], vec![ModelKind::Gin]).with_backend_id("analytical");
        let alone: Vec<CampaignReport> = [&a, &b]
            .iter()
            .map(|s| Campaign::new((*s).clone()).run().unwrap())
            .collect();
        let points: Vec<_> = [&a, &b]
            .iter()
            .flat_map(|s| s.enumerate().unwrap())
            .collect();
        let together = Campaign::new(a.clone()).run_points(&points).unwrap();
        assert_eq!(together.simulated, 3);
        let want: Vec<&str> = alone
            .iter()
            .flat_map(|r| r.completed().map(|c| c.report_json.as_str()))
            .collect();
        let got: Vec<&str> = together
            .completed()
            .map(|c| c.report_json.as_str())
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn campaigns_sharing_a_memo_build_each_workload_once() {
        let memo = WorkloadMemo::new();
        let cycle = Campaign::new(tiny_space())
            .with_workload_memo(memo.clone())
            .run()
            .unwrap();
        let analytical = Campaign::new(tiny_space().with_backend_id("analytical"))
            .with_workload_memo(memo.clone())
            .run()
            .unwrap();
        let entries = memo.0.lock().unwrap().len();
        assert_eq!(entries, 1, "{memo:?}");
        // The memo changes where graphs come from, not what they are.
        assert_eq!(cycle, Campaign::new(tiny_space()).run().unwrap());
        assert_eq!(
            analytical,
            Campaign::new(tiny_space().with_backend_id("analytical"))
                .run()
                .unwrap()
        );
        // Hits share one instance; another fidelity is another graph.
        let ib = WorkloadSpec::dataset(DatasetKey::Ib, 0.1, 1);
        let full = memo.graph(&ib, 1.0).unwrap();
        assert!(Arc::ptr_eq(&full, &memo.graph(&ib, 1.0).unwrap()));
        let half = memo.graph(&ib, 0.5).unwrap();
        assert!(half.num_vertices() < full.num_vertices());
        assert_eq!(memo.0.lock().unwrap().len(), 2);
        // A failed build is reported and not remembered.
        assert!(memo.graph(&ib, 0.0).is_err());
        assert_eq!(memo.0.lock().unwrap().len(), 2);
    }

    #[test]
    fn with_backend_object_syncs_space_and_keys() {
        let backend: std::sync::Arc<dyn SimBackend> =
            std::sync::Arc::new(hygcn_core::AnalyticalBackend);
        let campaign = Campaign::new(tiny_space()).with_backend(backend);
        assert_eq!(campaign.space().backend, "analytical");
        let report = campaign.run().unwrap();
        assert_eq!(report.points.len(), 4);
        for p in report.completed() {
            assert_eq!(p.point.backend, "analytical");
            assert!(p.cycles > 0);
        }
    }

    #[test]
    fn build_workload_matches_campaign_inputs() {
        let (graph, model) = build_workload(
            &WorkloadSpec::dataset(DatasetKey::Ib, 0.05, 1),
            ModelKind::Gcn,
        )
        .unwrap();
        assert_eq!(graph.feature_len(), model.feature_len());
    }

    /// A backend that misbehaves deterministically: evaluations of
    /// configs whose aggregation buffer matches `fail_aggbuf` fail (by
    /// erroring or panicking), after burning through `transient` global
    /// transient failures first. Everything else delegates to the
    /// analytical backend.
    #[derive(Debug)]
    struct MisbehavingBackend {
        inner: AnalyticalBackend,
        fail_aggbuf: Option<usize>,
        panic_instead: bool,
        transient: Mutex<usize>,
    }

    impl MisbehavingBackend {
        fn failing_on(aggbuf_bytes: usize, panic_instead: bool) -> Self {
            Self {
                inner: AnalyticalBackend,
                fail_aggbuf: Some(aggbuf_bytes),
                panic_instead,
                transient: Mutex::new(0),
            }
        }

        fn transient_failures(n: usize) -> Self {
            Self {
                inner: AnalyticalBackend,
                fail_aggbuf: None,
                panic_instead: false,
                transient: Mutex::new(n),
            }
        }
    }

    impl SimBackend for MisbehavingBackend {
        fn backend_id(&self) -> &'static str {
            "analytical"
        }

        fn evaluate(
            &self,
            graph: &Graph,
            model: &GcnModel,
            config: &HyGcnConfig,
        ) -> Result<SimReport, SimError> {
            {
                let mut left = self.transient.lock().unwrap();
                if *left > 0 {
                    *left -= 1;
                    return Err(SimError::Backend(
                        "injected transient backend failure".into(),
                    ));
                }
            }
            if self.fail_aggbuf == Some(config.aggregation_buffer_bytes) {
                if self.panic_instead {
                    panic!("injected backend panic");
                }
                return Err(SimError::Backend("injected permanent failure".into()));
            }
            self.inner.evaluate(graph, model, config)
        }
    }

    #[test]
    fn failing_point_is_isolated_and_reattempted_on_resume() {
        let dir = std::env::temp_dir().join("hygcn-dse-failure-test");
        std::fs::create_dir_all(&dir).unwrap();
        let store = dir.join("failed-points.jsonl");
        std::fs::remove_file(&store).ok();

        // The two aggbuf=4MB points fail permanently; the campaign must
        // still complete and report them.
        let (sleeper, _slept) = recording_sleeper();
        let broken = Campaign::new(tiny_space())
            .with_backend(Arc::new(MisbehavingBackend::failing_on(4 << 20, false)))
            .with_store(&store)
            .with_retry(RetryPolicy {
                max_attempts: 2,
                base_delay_ms: 1,
            })
            .with_sleeper(sleeper)
            .run()
            .unwrap();
        assert_eq!(broken.points.len(), 4);
        assert_eq!((broken.simulated, broken.failed), (2, 2));
        let errors: Vec<&str> = broken.points.iter().filter_map(|p| p.error()).collect();
        assert_eq!(errors.len(), 2);
        assert!(
            errors[0].contains("injected permanent failure"),
            "{errors:?}"
        );
        for p in &broken.points {
            let failed = p.point().assignment[2].1 == "4";
            assert_eq!(p.is_failed(), failed, "{}", p.point().label());
        }

        // Failed points were not persisted: a resumed run with a healthy
        // backend re-attempts exactly those two and nothing else.
        let healed = Campaign::new(tiny_space().with_backend_id("analytical"))
            .with_store(&store)
            .run()
            .unwrap();
        assert_eq!(
            (healed.simulated, healed.cache_hits, healed.failed),
            (2, 2, 0)
        );
        std::fs::remove_file(&store).ok();
    }

    #[test]
    fn panicking_backend_is_caught_not_fatal() {
        let report = Campaign::new(tiny_space())
            .with_backend(Arc::new(MisbehavingBackend::failing_on(4 << 20, true)))
            .with_retry(RetryPolicy::none())
            .run()
            .unwrap();
        assert_eq!((report.simulated, report.failed), (2, 2));
        let err = report
            .points
            .iter()
            .find_map(|p| p.error())
            .expect("a failed point");
        assert!(err.contains("backend panicked"), "{err}");
        assert!(err.contains("injected backend panic"), "{err}");
    }

    /// The analytical backend behind a lane interface that records the
    /// `t_row` of every config of every `evaluate_lanes` call. A lane of
    /// `t_row == 28` panics (`panic_lane`) or, only inside a lane batch,
    /// errs.
    #[derive(Debug)]
    struct LaneBackend {
        panic_lane: bool,
        batches: Mutex<Vec<Vec<u64>>>,
    }

    impl LaneBackend {
        fn new(panic_lane: bool) -> Arc<Self> {
            Arc::new(Self {
                panic_lane,
                batches: Mutex::new(Vec::new()),
            })
        }

        /// The recorded batches, each one's `t_row`s sorted.
        /// The recorded batches' `t_row`s, each batch and the list of
        /// batches sorted: worker threads record batches in any order.
        fn batches(&self) -> Vec<Vec<u64>> {
            let mut batches = self.batches.lock().unwrap().clone();
            for b in &mut batches {
                b.sort_unstable();
            }
            batches.sort_unstable();
            batches
        }
    }

    impl SimBackend for LaneBackend {
        fn backend_id(&self) -> &'static str {
            "analytical"
        }

        fn evaluate(
            &self,
            graph: &Graph,
            model: &GcnModel,
            config: &HyGcnConfig,
        ) -> Result<SimReport, SimError> {
            if self.panic_lane && config.hbm.t_row == 28 {
                panic!("injected lane panic");
            }
            AnalyticalBackend.evaluate(graph, model, config)
        }

        fn evaluate_lanes(
            &self,
            graph: &Graph,
            model: &GcnModel,
            configs: &[HyGcnConfig],
        ) -> Vec<Result<SimReport, SimError>> {
            let t_rows = configs.iter().map(|c| c.hbm.t_row).collect();
            self.batches.lock().unwrap().push(t_rows);
            configs
                .iter()
                .map(|config| {
                    if !self.panic_lane && config.hbm.t_row == 28 {
                        return Err(SimError::Backend("injected lane failure".into()));
                    }
                    self.evaluate(graph, model, config)
                })
                .collect()
        }
    }

    fn t_row_space_of(t_rows: &str) -> ConfigSpace {
        ConfigSpace::new(
            vec![WorkloadSpec::dataset(DatasetKey::Ib, 0.1, 1)],
            vec![ModelKind::Gcn],
        )
        .with_axis(Axis::parse("t-row", t_rows).unwrap())
    }

    fn t_row_space() -> ConfigSpace {
        t_row_space_of("14,28,56")
    }

    #[test]
    fn a_timing_by_controller_space_is_one_lane_batch() {
        // Both controllers' points of one decode class evaluate together.
        let backend = LaneBackend::new(false);
        let space = t_row_space_of("14,56,112")
            .with_axis(Axis::parse("controller", "inorder,frfcfs").unwrap());
        let report = Campaign::new(space)
            .with_backend(backend.clone())
            .run()
            .unwrap();
        assert_eq!((report.simulated, report.failed), (6, 0));
        assert_eq!(backend.batches(), [vec![14, 14, 56, 56, 112, 112]]);
    }

    #[test]
    fn lane_batches_hold_at_most_four_timings_with_all_their_points() {
        // Five timings split as four and one; each timing's two
        // controllers stay in its batch.
        let backend = LaneBackend::new(false);
        let space = t_row_space_of("14,20,40,56,80")
            .with_axis(Axis::parse("controller", "inorder,frfcfs").unwrap());
        let report = Campaign::new(space)
            .with_backend(backend.clone())
            .run()
            .unwrap();
        assert_eq!((report.simulated, report.failed), (10, 0));
        assert_eq!(
            backend.batches(),
            [vec![14, 14, 20, 20, 40, 40, 56, 56], vec![80, 80]]
        );
    }

    #[test]
    fn one_panicking_lane_fails_only_its_own_point() {
        let backend = LaneBackend::new(true);
        let report = Campaign::new(t_row_space())
            .with_backend(backend.clone())
            .with_retry(RetryPolicy::none())
            .run()
            .unwrap();
        // The three points share one decode class: one lane batch, which
        // panics, then each point alone.
        assert_eq!(backend.batches(), [vec![14, 28, 56]]);
        assert_eq!((report.simulated, report.failed), (2, 1));
        let healthy = Campaign::new(t_row_space().with_backend_id("analytical"))
            .run()
            .unwrap();
        for (p, want) in report.points.iter().zip(&healthy.points) {
            if p.point().config.hbm.t_row == 28 {
                let err = p.error().expect("the panicking lane fails");
                assert!(
                    err.contains("backend panicked: injected lane panic"),
                    "{err}"
                );
            } else {
                assert_eq!(p, want, "{}", p.point().label());
            }
        }
    }

    #[test]
    fn a_failed_lane_is_retried_alone() {
        let (sleeper, slept) = recording_sleeper();
        let backend = LaneBackend::new(false);
        let retry = RetryPolicy {
            max_attempts: 2,
            base_delay_ms: 1,
        };
        let report = Campaign::new(t_row_space())
            .with_backend(backend.clone())
            .with_retry(retry)
            .with_sleeper(sleeper)
            .run()
            .unwrap();
        // The erring lane's retry runs alone, outside any lane batch.
        assert_eq!(backend.batches(), [vec![14, 28, 56]]);
        assert_eq!((report.simulated, report.failed), (3, 0));
        assert_eq!(slept.lock().unwrap().len(), 1);
        // Without a retry the lane's error is the point's.
        let report = Campaign::new(t_row_space())
            .with_backend(LaneBackend::new(false))
            .with_retry(RetryPolicy::none())
            .run()
            .unwrap();
        assert_eq!((report.simulated, report.failed), (2, 1));
        let err = report.points.iter().find_map(|p| p.error()).unwrap();
        assert!(err.contains("injected lane failure"), "{err}");
    }

    fn recording_sleeper() -> (Sleeper, Arc<Mutex<Vec<std::time::Duration>>>) {
        let log = Arc::new(Mutex::new(Vec::new()));
        let writer = log.clone();
        let sleeper: Sleeper = Arc::new(move |d| writer.lock().unwrap().push(d));
        (sleeper, log)
    }

    #[test]
    fn transient_eval_errors_retry_and_succeed() {
        let (sleeper, slept) = recording_sleeper();
        let report = Campaign::new(tiny_space())
            .with_backend(Arc::new(MisbehavingBackend::transient_failures(2)))
            .with_retry(RetryPolicy {
                max_attempts: 3,
                base_delay_ms: 5,
            })
            .with_sleeper(sleeper)
            .run()
            .unwrap();
        // Both injected failures were absorbed by retries: every point
        // completed, and the backoff schedule was executed (2 sleeps,
        // deterministic durations — no wall clock in the test itself).
        assert_eq!((report.simulated, report.failed), (4, 0));
        let slept = slept.lock().unwrap();
        assert_eq!(slept.len(), 2);
        for d in slept.iter() {
            assert!(d.as_millis() >= 5);
        }
    }
}
