//! # hygcn-obs
//!
//! Hand-rolled tracing and metrics for the HyGCN reproduction: scoped
//! phase spans, relaxed-atomic counters, per-backend latency
//! histograms, and exporters for Chrome-trace JSON (loadable in
//! Perfetto / `chrome://tracing`) and a flat `metrics.json`.
//!
//! ## The never-perturbs-results contract
//!
//! Observability is **inert by construction**:
//!
//! * Nothing recorded here ever flows into a `SimReport`, a golden
//!   snapshot, a result-store line, or a DSE cache key. The collector
//!   only *reads* wall-clock time and *writes* to its own buffers; the
//!   simulator never reads anything back out of it.
//! * With collection disabled (the default), every instrumentation
//!   point costs exactly one `Relaxed` atomic load and a predictable
//!   branch — no allocation, no clock read, no lock. The committed
//!   `BENCH_sim.json` numbers are measured with this crate compiled in
//!   and collection off.
//! * Wall-clock readings only appear in the trace/metrics exports,
//!   which are written to paths the user names explicitly
//!   (`--trace-out`, `--metrics-out`); they never touch simulation
//!   output files.
//!
//! The workspace-level `tests/observability.rs` proves the contract by
//! replaying identical workloads with collection on and off — every
//! backend, a golden-snapshot replay, campaign store bytes, and cache
//! keys — and asserting bit-identical results.
//!
//! ## Span taxonomy
//!
//! Spans are a closed vocabulary — the [`Phase`] enum — so exporters
//! and CI assertions can rely on stable names:
//!
//! | phase              | recorded around                                      |
//! |--------------------|------------------------------------------------------|
//! | `schedule_build`   | `EventSchedule::build`, planner fallback included    |
//! | `aggregation`      | Aggregation-engine chunk processing                  |
//! | `combination`      | Combination-engine chunk processing                  |
//! | `hbm_walk`         | Staged HBM drain (seed path, FR-FCFS controller)     |
//! | `span_program_build` | One `SpanProgram` decode pass (cold evaluation)    |
//! | `span_replay`      | One precompiled span-program step replay             |
//! | `backend_eval`     | One `SimBackend::evaluate` call                      |
//! | `campaign_batch`   | One fan-out batch inside `Campaign::run_points`      |
//! | `store_open`       | `ResultStore::open` (scan, repair, quarantine)       |
//! | `store_append`     | One durable `ResultStore::append`                    |
//! | `store_compact`    | Store salvage / rewrite                              |
//! | `workload_build`   | Graph synthesis (campaigns and figure renders)       |
//! | `figure_render`    | One paper-figure reproduction in `hygcn-bench`       |
//!
//! ## Counters
//!
//! [`Counter`] is closed the same way; `metrics.json` exports every one.
//!
//! | counter                | counts                                          |
//! |------------------------|-------------------------------------------------|
//! | `cache_hits`           | Campaign points read from the result store      |
//! | `cache_misses`         | Campaign points that needed an evaluation       |
//! | `points_total`         | Points submitted to `Campaign::run_points`      |
//! | `points_simulated`     | Points evaluated and stored this run            |
//! | `points_cached`        | Points skipped because the store held them      |
//! | `points_failed`        | Points whose evaluation failed terminally       |
//! | `quarantined_lines`    | Corrupt store lines quarantined on open         |
//! | `store_retries`        | Store I/O retries                               |
//! | `eval_retries`         | Backend-evaluation retries                      |
//! | `plan_cache_hits`      | Graph plan-memo lookups served from the cache   |
//! | `plan_cache_misses`    | Graph plan-memo lookups that built their value  |
//! | `plan_cache_evictions` | Plan-memo insertions that evicted an entry      |
//!
//! The plan-memo counters cover the simulator's span programs, runtime
//! samples and occupancy indexes (`Graph::memo`).
//!
//! ## Usage
//!
//! ```
//! hygcn_obs::reset();
//! hygcn_obs::enable();
//! {
//!     let _s = hygcn_obs::span(hygcn_obs::Phase::ScheduleBuild);
//!     // ... work ...
//! }
//! hygcn_obs::count(hygcn_obs::Counter::CacheHits, 3);
//! hygcn_obs::disable();
//! let trace = hygcn_obs::chrome_trace_json();
//! assert!(trace.contains("schedule_build"));
//! let metrics = hygcn_obs::metrics_json();
//! assert!(metrics.contains("\"cache_hits\": 3"));
//! ```

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// The closed vocabulary of instrumented pipeline phases.
///
/// Keep this in sync with the span-taxonomy table in the crate docs and
/// the README "Observability" section; CI greps trace output for these
/// exact names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Phase {
    /// Event-schedule precompilation (`EventSchedule::build`), including
    /// its over-budget `WindowPlanner` fallback.
    ScheduleBuild,
    /// Aggregation-engine chunk processing.
    Aggregation,
    /// Combination-engine chunk processing.
    Combination,
    /// Staged HBM drain (the seed path's FR-FCFS timeline walk).
    HbmWalk,
    /// One span-program decode pass (cold evaluation).
    SpanProgramBuild,
    /// One precompiled span-program step replay.
    SpanReplay,
    /// One `SimBackend::evaluate` call, any backend.
    BackendEval,
    /// One fan-out batch inside `Campaign::run_points`.
    CampaignBatch,
    /// Result-store open: scan, torn-tail repair, quarantine.
    StoreOpen,
    /// One durable result-store append.
    StoreAppend,
    /// Result-store salvage / compaction rewrite.
    StoreCompact,
    /// Graph synthesis for a campaign workload or a figure render.
    WorkloadBuild,
    /// One paper-figure reproduction in `hygcn-bench`.
    FigureRender,
}

/// Number of [`Phase`] variants (array-table size).
pub const N_PHASES: usize = 13;

impl Phase {
    /// The stable snake_case name used in every export.
    pub fn name(self) -> &'static str {
        match self {
            Phase::ScheduleBuild => "schedule_build",
            Phase::Aggregation => "aggregation",
            Phase::Combination => "combination",
            Phase::HbmWalk => "hbm_walk",
            Phase::SpanProgramBuild => "span_program_build",
            Phase::SpanReplay => "span_replay",
            Phase::BackendEval => "backend_eval",
            Phase::CampaignBatch => "campaign_batch",
            Phase::StoreOpen => "store_open",
            Phase::StoreAppend => "store_append",
            Phase::StoreCompact => "store_compact",
            Phase::WorkloadBuild => "workload_build",
            Phase::FigureRender => "figure_render",
        }
    }

    /// All phases, in declaration order.
    pub fn all() -> [Phase; N_PHASES] {
        [
            Phase::ScheduleBuild,
            Phase::Aggregation,
            Phase::Combination,
            Phase::HbmWalk,
            Phase::SpanProgramBuild,
            Phase::SpanReplay,
            Phase::BackendEval,
            Phase::CampaignBatch,
            Phase::StoreOpen,
            Phase::StoreAppend,
            Phase::StoreCompact,
            Phase::WorkloadBuild,
            Phase::FigureRender,
        ]
    }
}

/// Monotonic event counters. Like [`Phase`], a closed vocabulary with
/// stable export names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Counter {
    /// Campaign points satisfied from the result store without simulating.
    CacheHits,
    /// Campaign points that required a fresh evaluation.
    CacheMisses,
    /// Total points submitted to `Campaign::run_points` (accumulates
    /// across halving rungs).
    PointsTotal,
    /// Points whose evaluation completed and was stored this run.
    PointsSimulated,
    /// Points skipped because the store already held them.
    PointsCached,
    /// Points whose evaluation failed terminally.
    PointsFailed,
    /// Store lines quarantined (mid-file corruption) during open.
    QuarantinedLines,
    /// Store I/O retries (append/open) that eventually succeeded or gave up.
    StoreRetries,
    /// Backend-evaluation retries inside the campaign executor.
    EvalRetries,
    /// Graph plan-memo lookups served from the cache (span programs,
    /// runtime samples, occupancy indexes).
    PlanCacheHits,
    /// Graph plan-memo lookups that built their value.
    PlanCacheMisses,
    /// Graph plan-memo insertions that evicted an older entry.
    PlanCacheEvictions,
}

/// Number of [`Counter`] variants.
pub const N_COUNTERS: usize = 12;

impl Counter {
    /// The stable snake_case name used in `metrics.json`.
    pub fn name(self) -> &'static str {
        match self {
            Counter::CacheHits => "cache_hits",
            Counter::CacheMisses => "cache_misses",
            Counter::PointsTotal => "points_total",
            Counter::PointsSimulated => "points_simulated",
            Counter::PointsCached => "points_cached",
            Counter::PointsFailed => "points_failed",
            Counter::QuarantinedLines => "quarantined_lines",
            Counter::StoreRetries => "store_retries",
            Counter::EvalRetries => "eval_retries",
            Counter::PlanCacheHits => "plan_cache_hits",
            Counter::PlanCacheMisses => "plan_cache_misses",
            Counter::PlanCacheEvictions => "plan_cache_evictions",
        }
    }

    /// All counters, in declaration order.
    pub fn all() -> [Counter; N_COUNTERS] {
        [
            Counter::CacheHits,
            Counter::CacheMisses,
            Counter::PointsTotal,
            Counter::PointsSimulated,
            Counter::PointsCached,
            Counter::PointsFailed,
            Counter::QuarantinedLines,
            Counter::StoreRetries,
            Counter::EvalRetries,
            Counter::PlanCacheHits,
            Counter::PlanCacheMisses,
            Counter::PlanCacheEvictions,
        ]
    }
}

/// One finished span, timestamped relative to the collector epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Which pipeline phase this span covers.
    pub phase: Phase,
    /// Start, microseconds since the collector epoch.
    pub ts_us: u64,
    /// Duration in microseconds (clamped up to 1 so zero-width spans
    /// stay visible in Perfetto).
    pub dur_us: u64,
    /// Collector-assigned thread id (dense, starts at 1).
    pub tid: u64,
}

/// Aggregate statistics for one phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseStat {
    /// Number of spans recorded.
    pub count: u64,
    /// Sum of span durations, nanoseconds.
    pub total_ns: u64,
    /// Longest single span, nanoseconds.
    pub max_ns: u64,
}

/// Log2-bucketed latency histogram for one backend's `evaluate` calls.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvalHist {
    /// Backend id (`cycle`, `cycle-fast`, `seed`, `analytical`, `cpu`, `gpu`).
    pub backend: String,
    /// Number of evaluations recorded.
    pub count: u64,
    /// Sum of evaluation latencies, microseconds.
    pub total_us: u64,
    /// Fastest evaluation, microseconds.
    pub min_us: u64,
    /// Slowest evaluation, microseconds.
    pub max_us: u64,
    /// `buckets[i]` counts evaluations with latency in `[2^i, 2^(i+1))` µs
    /// (bucket 0 also holds sub-microsecond calls; the last bucket is
    /// open-ended).
    pub buckets: [u64; EVAL_BUCKETS],
}

/// Number of log2 latency buckets (covers <1 µs through >2^18 µs ≈ 4 min).
pub const EVAL_BUCKETS: usize = 20;

// ---------------------------------------------------------------------------
// Collector state
// ---------------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

// Per-phase aggregates: [count, total_ns, max_ns] per phase, updated with
// relaxed atomics on span drop so metrics survive event draining.
static PHASE_COUNT: [AtomicU64; N_PHASES] = [const { AtomicU64::new(0) }; N_PHASES];
static PHASE_TOTAL_NS: [AtomicU64; N_PHASES] = [const { AtomicU64::new(0) }; N_PHASES];
static PHASE_MAX_NS: [AtomicU64; N_PHASES] = [const { AtomicU64::new(0) }; N_PHASES];

static COUNTERS: [AtomicU64; N_COUNTERS] = [const { AtomicU64::new(0) }; N_COUNTERS];

struct Shard {
    events: Mutex<Vec<SpanEvent>>,
}

fn registry() -> &'static Mutex<Vec<Arc<Shard>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<Shard>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

fn eval_hists() -> &'static Mutex<Vec<EvalHist>> {
    static HISTS: OnceLock<Mutex<Vec<EvalHist>>> = OnceLock::new();
    HISTS.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    // (collector tid, this thread's shard) — registered on first span.
    static LOCAL: RefCell<Option<(u64, Arc<Shard>)>> = const { RefCell::new(None) };
}

fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

// ---------------------------------------------------------------------------
// Control
// ---------------------------------------------------------------------------

/// Is collection on? One `Relaxed` load — this is the *only* cost every
/// instrumentation point pays when observability is off.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn collection on. Establishes the trace epoch on first call.
pub fn enable() {
    epoch();
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turn collection off. Already-buffered data stays available to the
/// exporters until [`reset`].
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Clear all buffered spans, counters, and histograms. Does not change
/// the enabled flag.
pub fn reset() {
    for shard in registry()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .iter()
    {
        shard
            .events
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
    }
    for c in &COUNTERS {
        c.store(0, Ordering::Relaxed);
    }
    for i in 0..N_PHASES {
        PHASE_COUNT[i].store(0, Ordering::Relaxed);
        PHASE_TOTAL_NS[i].store(0, Ordering::Relaxed);
        PHASE_MAX_NS[i].store(0, Ordering::Relaxed);
    }
    eval_hists()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clear();
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// RAII guard for a phase span; records on drop. A disabled-collector
/// guard is a no-op shell (no clock read ever happened).
#[must_use = "a span records on drop; binding to _ drops it immediately"]
pub struct SpanGuard {
    state: Option<(Phase, Instant)>,
}

/// Open a scoped span for `phase`. When collection is off this is one
/// relaxed atomic load and returns an inert guard.
#[inline]
pub fn span(phase: Phase) -> SpanGuard {
    if !enabled() {
        return SpanGuard { state: None };
    }
    SpanGuard {
        state: Some((phase, Instant::now())),
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some((phase, start)) = self.state.take() else {
            return;
        };
        let end = Instant::now();
        let dur = end.duration_since(start);
        let idx = phase as usize;
        let dur_ns = dur.as_nanos().min(u128::from(u64::MAX)) as u64;
        PHASE_COUNT[idx].fetch_add(1, Ordering::Relaxed);
        PHASE_TOTAL_NS[idx].fetch_add(dur_ns, Ordering::Relaxed);
        PHASE_MAX_NS[idx].fetch_max(dur_ns, Ordering::Relaxed);
        let ts_us = start
            .checked_duration_since(epoch())
            .unwrap_or(Duration::ZERO)
            .as_micros()
            .min(u128::from(u64::MAX)) as u64;
        let dur_us = (dur.as_micros().min(u128::from(u64::MAX)) as u64).max(1);
        LOCAL.with(|local| {
            let mut slot = local.borrow_mut();
            let (tid, shard) = slot.get_or_insert_with(|| {
                let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
                let shard = Arc::new(Shard {
                    events: Mutex::new(Vec::new()),
                });
                registry()
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push(Arc::clone(&shard));
                (tid, shard)
            });
            shard
                .events
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(SpanEvent {
                    phase,
                    ts_us,
                    dur_us,
                    tid: *tid,
                });
        });
    }
}

// ---------------------------------------------------------------------------
// Counters and histograms
// ---------------------------------------------------------------------------

/// Add `n` to a counter. No-op (one relaxed load) when collection is off.
#[inline]
pub fn count(counter: Counter, n: u64) {
    if enabled() {
        COUNTERS[counter as usize].fetch_add(n, Ordering::Relaxed);
    }
}

/// Current value of a counter.
pub fn counter_value(counter: Counter) -> u64 {
    COUNTERS[counter as usize].load(Ordering::Relaxed)
}

/// Record one backend `evaluate` latency into its per-backend histogram.
/// No-op when collection is off.
pub fn record_eval(backend: &str, latency: Duration) {
    if !enabled() {
        return;
    }
    let us = latency.as_micros().min(u128::from(u64::MAX)) as u64;
    let bucket = if us == 0 {
        0
    } else {
        (63 - us.leading_zeros() as usize).min(EVAL_BUCKETS - 1)
    };
    let mut hists = eval_hists().lock().unwrap_or_else(PoisonError::into_inner);
    // Position-then-index keeps the borrow local and avoids a
    // last_mut unwrap after the push.
    let pos = match hists.iter().position(|h| h.backend == backend) {
        Some(p) => p,
        None => {
            hists.push(EvalHist {
                backend: backend.to_string(),
                count: 0,
                total_us: 0,
                min_us: u64::MAX,
                max_us: 0,
                buckets: [0; EVAL_BUCKETS],
            });
            hists.len() - 1
        }
    };
    let hist = &mut hists[pos];
    hist.count += 1;
    hist.total_us += us;
    hist.min_us = hist.min_us.min(us);
    hist.max_us = hist.max_us.max(us);
    hist.buckets[bucket] += 1;
}

/// Run one backend `evaluate` under a `backend_eval` span and record its
/// latency into the per-backend histogram. When collection is off this
/// is a single relaxed load followed by a direct call to `f`.
#[inline]
pub fn observe_eval<T, E>(backend: &str, f: impl FnOnce() -> Result<T, E>) -> Result<T, E> {
    if !enabled() {
        return f();
    }
    let _s = span(Phase::BackendEval);
    let start = Instant::now();
    let result = f();
    record_eval(backend, start.elapsed());
    result
}

// ---------------------------------------------------------------------------
// Snapshots and exporters
// ---------------------------------------------------------------------------

/// A point-in-time copy of everything the collector holds except the
/// raw span events (see [`take_events`] for those).
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Per-phase aggregates, indexed by `Phase as usize`.
    pub phases: [PhaseStat; N_PHASES],
    /// Counter values, indexed by `Counter as usize`.
    pub counters: [u64; N_COUNTERS],
    /// Per-backend evaluation-latency histograms, insertion order.
    pub evals: Vec<EvalHist>,
}

/// Snapshot current aggregates without draining span events.
pub fn snapshot() -> MetricsSnapshot {
    let mut phases = [PhaseStat::default(); N_PHASES];
    for (i, stat) in phases.iter_mut().enumerate() {
        stat.count = PHASE_COUNT[i].load(Ordering::Relaxed);
        stat.total_ns = PHASE_TOTAL_NS[i].load(Ordering::Relaxed);
        stat.max_ns = PHASE_MAX_NS[i].load(Ordering::Relaxed);
    }
    let mut counters = [0u64; N_COUNTERS];
    for (i, c) in counters.iter_mut().enumerate() {
        *c = COUNTERS[i].load(Ordering::Relaxed);
    }
    MetricsSnapshot {
        phases,
        counters,
        evals: eval_hists()
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone(),
    }
}

/// Drain all buffered span events from every thread, sorted by
/// `(ts_us, tid)`. Aggregates in [`snapshot`] are unaffected.
pub fn take_events() -> Vec<SpanEvent> {
    let mut out = Vec::new();
    for shard in registry()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .iter()
    {
        out.append(&mut shard.events.lock().unwrap_or_else(PoisonError::into_inner));
    }
    out.sort_by_key(|e| (e.ts_us, e.tid, e.phase as usize));
    out
}

/// Render span events as Chrome-trace JSON (`traceEvents` complete
/// events), loadable in Perfetto or `chrome://tracing`. Drains the
/// event buffers.
pub fn chrome_trace_json() -> String {
    let events = take_events();
    let mut out = String::with_capacity(64 + events.len() * 96);
    out.push_str("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!(
            "{{\"name\": \"{}\", \"cat\": \"hygcn\", \"ph\": \"X\", \"ts\": {}, \"dur\": {}, \"pid\": 1, \"tid\": {}}}",
            e.phase.name(),
            e.ts_us,
            e.dur_us,
            e.tid
        ));
    }
    out.push_str("]}\n");
    out
}

/// Render the aggregate snapshot as a flat `metrics.json` document:
/// counters, a derived `campaign` block, per-phase stats, and
/// per-backend evaluation histograms.
pub fn metrics_json() -> String {
    let snap = snapshot();
    let mut out = String::with_capacity(2048);
    out.push_str("{\n  \"counters\": {");
    for (i, c) in Counter::all().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    \"{}\": {}",
            c.name(),
            snap.counters[*c as usize]
        ));
    }
    out.push_str("\n  },\n");
    let total = snap.counters[Counter::PointsTotal as usize];
    let cached = snap.counters[Counter::PointsCached as usize];
    let ratio = if total > 0 {
        cached as f64 / total as f64
    } else {
        0.0
    };
    out.push_str(&format!(
        "  \"campaign\": {{\"points_total\": {}, \"simulated\": {}, \"cached\": {}, \"failed\": {}, \"cache_hit_ratio\": {:.4}}},\n",
        total,
        snap.counters[Counter::PointsSimulated as usize],
        cached,
        snap.counters[Counter::PointsFailed as usize],
        ratio
    ));
    out.push_str("  \"phases\": {");
    let mut first = true;
    for p in Phase::all() {
        let s = snap.phases[p as usize];
        if s.count == 0 {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "\n    \"{}\": {{\"count\": {}, \"total_ms\": {:.3}, \"max_ms\": {:.3}}}",
            p.name(),
            s.count,
            s.total_ns as f64 / 1e6,
            s.max_ns as f64 / 1e6
        ));
    }
    out.push_str("\n  },\n  \"eval_latency\": {");
    for (i, h) in snap.evals.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let mean = if h.count > 0 {
            h.total_us as f64 / h.count as f64
        } else {
            0.0
        };
        out.push_str(&format!(
            "\n    \"{}\": {{\"count\": {}, \"mean_us\": {:.1}, \"min_us\": {}, \"max_us\": {}, \"log2_us_buckets\": [{}]}}",
            json_escape(&h.backend),
            h.count,
            mean,
            if h.min_us == u64::MAX { 0 } else { h.min_us },
            h.max_us,
            h.buckets
                .iter()
                .map(|b| b.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        ));
    }
    out.push_str("\n  }\n}\n");
    out
}

/// Render a human-readable per-phase table (for `hygcn bench --profile`).
pub fn phase_table() -> String {
    let snap = snapshot();
    let mut out = String::new();
    out.push_str(&format!(
        "{:<16} {:>8} {:>12} {:>12} {:>12}\n",
        "phase", "count", "total ms", "mean ms", "max ms"
    ));
    for p in Phase::all() {
        let s = snap.phases[p as usize];
        if s.count == 0 {
            continue;
        }
        let total_ms = s.total_ns as f64 / 1e6;
        out.push_str(&format!(
            "{:<16} {:>8} {:>12.3} {:>12.4} {:>12.3}\n",
            p.name(),
            s.count,
            total_ms,
            total_ms / s.count as f64,
            s.max_ns as f64 / 1e6
        ));
    }
    out
}

/// Escapes `s` for embedding in a JSON string literal: quotes,
/// backslashes and every control character.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // Collector state is process-global, so the unit tests run under a
    // lock to avoid interleaving with each other.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        GATE.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_collector_records_nothing() {
        let _g = serial();
        reset();
        disable();
        {
            let _s = span(Phase::Aggregation);
        }
        count(Counter::CacheHits, 5);
        record_eval("cycle", Duration::from_micros(10));
        let snap = snapshot();
        assert_eq!(snap.phases[Phase::Aggregation as usize].count, 0);
        assert_eq!(snap.counters[Counter::CacheHits as usize], 0);
        assert!(snap.evals.is_empty());
        assert!(take_events().is_empty());
    }

    #[test]
    fn spans_counters_and_hists_round_trip() {
        let _g = serial();
        reset();
        enable();
        {
            let _s = span(Phase::ScheduleBuild);
            std::thread::sleep(Duration::from_millis(1));
        }
        {
            let _s = span(Phase::SpanReplay);
        }
        count(Counter::CacheMisses, 2);
        record_eval("cycle-fast", Duration::from_micros(100));
        record_eval("cycle-fast", Duration::from_micros(300));
        disable();

        let snap = snapshot();
        assert_eq!(snap.phases[Phase::ScheduleBuild as usize].count, 1);
        assert!(snap.phases[Phase::ScheduleBuild as usize].total_ns >= 1_000_000);
        assert_eq!(snap.counters[Counter::CacheMisses as usize], 2);
        assert_eq!(snap.evals.len(), 1);
        assert_eq!(snap.evals[0].count, 2);
        assert_eq!(snap.evals[0].min_us, 100);
        assert_eq!(snap.evals[0].max_us, 300);

        let events = take_events();
        assert_eq!(events.len(), 2);
        assert!(events.windows(2).all(|w| w[0].ts_us <= w[1].ts_us));
        reset();
    }

    #[test]
    fn chrome_trace_shape_is_valid() {
        let _g = serial();
        reset();
        enable();
        {
            let _s = span(Phase::HbmWalk);
        }
        disable();
        let trace = chrome_trace_json();
        assert!(trace.starts_with("{\"displayTimeUnit\": \"ms\", \"traceEvents\": ["));
        assert!(trace.contains("\"name\": \"hbm_walk\""));
        assert!(trace.contains("\"ph\": \"X\""));
        assert!(trace.trim_end().ends_with("]}"));
        // Draining: a second export is empty.
        assert!(!chrome_trace_json().contains("hbm_walk"));
        reset();
    }

    #[test]
    fn metrics_json_has_campaign_block_and_phase_stats() {
        let _g = serial();
        reset();
        enable();
        count(Counter::PointsTotal, 4);
        count(Counter::PointsCached, 4);
        count(Counter::CacheHits, 4);
        {
            let _s = span(Phase::StoreOpen);
        }
        disable();
        let m = metrics_json();
        assert!(m.contains("\"cache_hits\": 4"));
        assert!(m.contains("\"cache_hit_ratio\": 1.0000"));
        assert!(m.contains("\"simulated\": 0"));
        assert!(m.contains("\"store_open\""));
        reset();
    }

    #[test]
    fn reset_clears_everything() {
        let _g = serial();
        reset();
        enable();
        {
            let _s = span(Phase::Combination);
        }
        count(Counter::EvalRetries, 1);
        record_eval("gpu", Duration::from_micros(1));
        disable();
        reset();
        let snap = snapshot();
        assert!(snap.phases.iter().all(|p| p.count == 0));
        assert!(snap.counters.iter().all(|&c| c == 0));
        assert!(snap.evals.is_empty());
        assert!(take_events().is_empty());
    }

    #[test]
    fn phase_names_are_distinct_and_stable() {
        let names: std::collections::BTreeSet<_> = Phase::all().iter().map(|p| p.name()).collect();
        assert_eq!(names.len(), N_PHASES);
        assert!(names.contains("schedule_build"));
        assert!(names.contains("backend_eval"));
    }

    #[test]
    fn cross_thread_events_merge() {
        let _g = serial();
        reset();
        enable();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(|| {
                    let _s = span(Phase::Aggregation);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        disable();
        let events = take_events();
        assert_eq!(events.len(), 4);
        let tids: std::collections::BTreeSet<_> = events.iter().map(|e| e.tid).collect();
        assert_eq!(tids.len(), 4);
        reset();
    }
}
