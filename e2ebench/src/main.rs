//! `e2ebench`: end-to-end benchmark of the HyGCN reproduction's three
//! user paths (`figures`, `campaign`, `simulate`), attributed per crate.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <figures-all|campaign-sweep|simulate-reddit> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Each workload runs single-threaded in
//! its own process, from a fresh store in a temporary directory under
//! `.e2ebench/` that is removed afterwards.
//!
//! * `--trace 0` times the workload with the `hygcn-obs` collector off,
//!   repeating set-ups and timed passes for `--seconds`, and reports the
//!   end-to-end metrics: the fastest pass and re-run, the median set-up
//!   and the peak resident memory.
//! * `--trace 1` runs the workload once untraced and once with the
//!   collector on, nests the collector's phases under the benchmark's
//!   own spans, reports the per-layer metrics and writes a Chrome trace
//!   to `.e2ebench/<workload>.trace.json`.
//!
//! Either way the run then checks its results against the seed oracle
//! (untimed), prints a human-readable summary to stderr and, as the last
//! line of stdout, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`.

mod layers;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use hygcn_obs::{Counter, MetricsSnapshot, Phase, PhaseStat};

use layers::{Interval, Spans};
use workloads::{CampaignSweep, FiguresAll, SimulateReddit, Tally, Workload};

/// Where runs keep their temporary stores and traces, relative to the
/// working directory.
const OUT_DIR: &str = ".e2ebench";

/// Most timed passes per run; from the workload's minimum up to this,
/// passes repeat until `--seconds` have elapsed since the first set-up.
const MAX_PASSES: usize = 200;

/// Each layer's self time in the traced window; with
/// `obs.unattributed_s` they add up to `obs.traced_wall_s`.
const LAYER_TIMES: &[&str] = &[
    "graph.synth_s",
    "core.self_s",
    "mem.self_s",
    "baseline.eval_s",
    "dse.self_s",
    "bench.self_s",
];

/// The paper artifacts `figures-all` renders, in paper order.
const ARTIFACTS: &[&str] = &[
    "fig02", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18",
    "table02", "table03", "table07", "ablation",
];

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    /// The samples behind the value (empty for a single measurement).
    samples: Vec<f64>,
}

impl Metric {
    fn one(name: impl Into<String>, unit: &'static str, value: f64) -> Self {
        Self {
            name: name.into(),
            value,
            unit,
            samples: Vec::new(),
        }
    }

    /// The fastest sample. Contention on a shared host only ever adds
    /// time, in bursts that can cover whole passes, so the fastest pass
    /// is the steadiest estimate of the code's own cost; the summary still
    /// prints the median and quartiles.
    fn fastest(name: &str, unit: &'static str, samples: Vec<f64>) -> Self {
        Self {
            name: name.to_string(),
            value: samples.iter().copied().fold(f64::INFINITY, f64::min),
            unit,
            samples,
        }
    }

    fn median(name: &str, unit: &'static str, samples: Vec<f64>) -> Self {
        Self {
            name: name.to_string(),
            value: stats::median(&samples),
            unit,
            samples,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WorkloadId {
    FiguresAll,
    CampaignSweep,
    SimulateReddit,
}

impl WorkloadId {
    const ALL: [WorkloadId; 3] = [
        WorkloadId::FiguresAll,
        WorkloadId::CampaignSweep,
        WorkloadId::SimulateReddit,
    ];

    fn name(self) -> &'static str {
        match self {
            WorkloadId::FiguresAll => "figures-all",
            WorkloadId::CampaignSweep => "campaign-sweep",
            WorkloadId::SimulateReddit => "simulate-reddit",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: WorkloadId,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: WorkloadId::CampaignSweep,
        seed: 0x5EED,
        seconds: 10.0,
        trace: false,
    };
    let mut workload = None;
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WorkloadId::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload '{value}'"))?,
                );
            }
            "--seed" => {
                let parsed = match value.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => value.parse(),
                };
                args.seed = parsed.map_err(|_| format!("--seed '{value}' is not an integer"))?;
            }
            "--seconds" => {
                args.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds '{value}' is not a positive number"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace '{value}' is not 0 or 1")),
                };
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

/// Removes its directory when dropped, whatever the run's outcome.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn create(workload: &str) -> Result<Self, String> {
        let dir = PathBuf::from(OUT_DIR).join(format!("tmp-{workload}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(Self(dir))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Peak resident memory of this process, MB, from `/proc/self/status`.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb * 1024.0 / 1e6)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

fn ensure_untraced() -> Result<(), String> {
    if hygcn_obs::enabled() {
        return Err("obs collection is on during a timed section".into());
    }
    Ok(())
}

/// The timed run: end-to-end metrics, collector off.
fn timed(
    w: &mut dyn Workload,
    seconds: f64,
    spans: &mut Spans,
    tally: &mut Tally,
) -> Result<Vec<Metric>, String> {
    ensure_untraced()?;
    let (first, later) = w.setups();
    let start = Instant::now();
    let (mut setup, mut wall, mut rerun) = (Vec::new(), Vec::new(), Vec::new());
    loop {
        for _ in 0..if wall.is_empty() { first } else { later } {
            setup.push(w.setup(spans)?);
        }
        let (a, b) = w.pass(spans, tally)?;
        wall.push(a);
        rerun.extend(b);
        let done = wall.len() >= w.min_passes() && start.elapsed().as_secs_f64() >= seconds;
        if done || wall.len() >= MAX_PASSES {
            break;
        }
    }
    ensure_untraced()?;
    Ok(vec![
        Metric::fastest("wall_s", "s", wall),
        Metric::fastest("rerun_s", "s", rerun),
        Metric::median("setup_s", "s", setup),
        Metric::one("peak_rss_mb", "MB", peak_rss_mb()?),
    ])
}

/// The traced run: per-layer metrics from one pass with the collector on,
/// plus one untraced pass for the tracing overhead.
fn traced(
    w: &mut dyn Workload,
    spans: &mut Spans,
    tally: &mut Tally,
    trace_path: &std::path::Path,
) -> Result<Vec<Metric>, String> {
    ensure_untraced()?;
    w.setup(spans)?;
    let (a, b) = w.pass(spans, tally)?;
    let untraced = a + b.iter().sum::<f64>();

    hygcn_obs::reset();
    hygcn_obs::enable();
    spans.restart();
    let start = Instant::now();
    let run = w.setup(spans).and_then(|_| w.pass(spans, tally));
    let traced_wall = start.elapsed().as_secs_f64();
    hygcn_obs::disable();
    let (a, b) = run?;
    let events = hygcn_obs::take_events();
    let snap = hygcn_obs::snapshot();
    hygcn_obs::reset();

    let mut intervals = spans.events().to_vec();
    intervals.extend(layers::obs_intervals(&events));
    std::fs::write(trace_path, layers::chrome_trace(&intervals))
        .map_err(|e| format!("writing {}: {e}", trace_path.display()))?;
    let traced_run = TracedRun {
        intervals,
        snap,
        wall_s: traced_wall,
        overhead_frac: (a + b.iter().sum::<f64>() - untraced) / untraced,
        edges_built: w.edges_built(),
        direct_evals: w.direct_evals(),
        artifacts: w.artifacts(),
    };
    Ok(per_layer(&traced_run))
}

/// Everything the per-layer metrics are computed from.
struct TracedRun {
    intervals: Vec<Interval>,
    snap: MetricsSnapshot,
    wall_s: f64,
    overhead_frac: f64,
    edges_built: u64,
    direct_evals: u64,
    artifacts: Vec<(&'static str, f64, f64)>,
}

fn per_layer(run: &TracedRun) -> Vec<Metric> {
    let snap = &run.snap;
    let phase = |name: &str| -> PhaseStat {
        Phase::all()
            .into_iter()
            .find(|p| p.name() == name)
            .map_or_else(PhaseStat::default, |p| snap.phases[p as usize])
    };
    let phase_s = |name: &str| phase(name).total_ns as f64 / 1e9;
    let counter = |name: &str| -> u64 {
        Counter::all()
            .into_iter()
            .find(|c| c.name() == name)
            .map_or(0, |c| snap.counters[c as usize])
    };
    let evals = |backend: &str| -> (u64, u64) {
        snap.evals
            .iter()
            .find(|h| h.backend == backend)
            .map_or((0, 0), |h| (h.count, h.total_us))
    };

    let attr = layers::attribute(&run.intervals);
    let us =
        |m: &std::collections::BTreeMap<&str, u64>, layer: &str| m.get(layer).copied().unwrap_or(0);
    // Baseline evaluations sit under the same `backend_eval` phase as
    // the simulator's; their histogram totals move them to `baseline`.
    let (cpu_evals, cpu_us) = evals("cpu");
    let (gpu_evals, gpu_us) = evals("gpu");
    let baseline_us = cpu_us + gpu_us;
    let self_s = |layer: &str| us(&attr.self_us, layer) as f64 / 1e6;
    let graph_s = self_s("graph");
    let core_self_s = us(&attr.self_us, "core").saturating_sub(baseline_us) as f64 / 1e6;
    let baseline_s = baseline_us as f64 / 1e6;
    let instantiations = run
        .intervals
        .iter()
        .filter(|iv| iv.name == "graph.instantiate")
        .count() as u64;
    let points_total = counter("points_total");
    let points_cached = counter("points_cached");

    let mut out = vec![
        Metric::one("graph.synth_s", "s", graph_s),
        Metric::one(
            "graph.builds",
            "count",
            (phase("workload_build").count + instantiations) as f64,
        ),
        Metric::one(
            "graph.edges_per_s",
            "1/s",
            if graph_s > 0.0 {
                run.edges_built as f64 / graph_s
            } else {
                0.0
            },
        ),
        Metric::one(
            "core.eval_s",
            "s",
            us(&attr.inclusive_us, "core").saturating_sub(baseline_us) as f64 / 1e6,
        ),
        Metric::one(
            "core.evals.cycle",
            "count",
            (evals("cycle").0 + run.direct_evals) as f64,
        ),
        Metric::one(
            "core.evals.cycle-fast",
            "count",
            evals("cycle-fast").0 as f64,
        ),
        Metric::one("core.window_plan_s", "s", phase_s("window_plan")),
        Metric::one("core.schedule_build_s", "s", phase_s("schedule_build")),
        Metric::one(
            "core.engines_s",
            "s",
            phase_s("aggregation") + phase_s("combination"),
        ),
        Metric::one("core.self_s", "s", core_self_s),
        Metric::one(
            "mem.span_program_build_s",
            "s",
            phase_s("span_program_build"),
        ),
        Metric::one(
            "mem.span_programs",
            "count",
            phase("span_program_build").count as f64,
        ),
        Metric::one("mem.span_replay_s", "s", phase_s("span_replay")),
        Metric::one(
            "mem.span_replays",
            "count",
            phase("span_replay").count as f64,
        ),
        Metric::one("mem.hbm_walk_s", "s", phase_s("hbm_walk")),
        Metric::one("mem.hbm_walks", "count", phase("hbm_walk").count as f64),
        Metric::one("mem.self_s", "s", self_s("mem")),
        Metric::one("baseline.eval_s", "s", baseline_s),
        Metric::one("baseline.evals.cpu", "count", cpu_evals as f64),
        Metric::one("baseline.evals.gpu", "count", gpu_evals as f64),
        Metric::one(
            "dse.campaign_s",
            "s",
            us(&attr.inclusive_us, "dse") as f64 / 1e6,
        ),
        Metric::one("dse.self_s", "s", self_s("dse")),
        Metric::one("dse.store_open_s", "s", phase_s("store_open")),
        Metric::one("dse.store_opens", "count", phase("store_open").count as f64),
        Metric::one("dse.store_append_s", "s", phase_s("store_append")),
        Metric::one("dse.appends", "count", phase("store_append").count as f64),
        Metric::one(
            "dse.points_simulated",
            "count",
            counter("points_simulated") as f64,
        ),
        Metric::one("dse.points_cached", "count", points_cached as f64),
        Metric::one(
            "dse.cache_hit_ratio",
            "ratio",
            if points_total > 0 {
                points_cached as f64 / points_total as f64
            } else {
                0.0
            },
        ),
        Metric::one("bench.self_s", "s", self_s("bench")),
    ];
    for id in ARTIFACTS {
        let (cold, warm) = run
            .artifacts
            .iter()
            .find(|(a, _, _)| a == id)
            .map_or((0.0, 0.0), |&(_, c, w)| (c, w));
        out.push(Metric::one(format!("bench.{id}.cold_s"), "s", cold));
        out.push(Metric::one(format!("bench.{id}.warm_s"), "s", warm));
    }
    // Every span's time is some layer's self time.
    let attributed = attr.covered_us as f64 / 1e6;
    out.push(Metric::one("obs.traced_wall_s", "s", run.wall_s));
    out.push(Metric::one("obs.overhead_frac", "ratio", run.overhead_frac));
    out.push(Metric::one(
        "obs.unattributed_s",
        "s",
        run.wall_s - attributed,
    ));
    out
}

/// The result line: `correct`, `attempted`, `failed` and every metric's
/// value and unit.
fn result_json(correct: bool, tally: &Tally, metrics: &[Metric]) -> Result<String, String> {
    let mut fields = Vec::with_capacity(metrics.len());
    for m in metrics {
        if !stats::valid_metric_name(&m.name) || !m.value.is_finite() {
            return Err(format!("metric {} = {} is not reportable", m.name, m.value));
        }
        fields.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted.max(1),
        tally.failed,
        fields.join(", ")
    ))
}

/// A human-readable report on stderr: quartiles and sample counts,
/// layer shares of the traced wall time, failures and the digest.
fn report(args: &Args, metrics: &[Metric], tally: &Tally) {
    let wall = metrics
        .iter()
        .find(|m| m.name == "obs.traced_wall_s")
        .map(|m| m.value);
    eprintln!(
        "e2ebench {} seed={} trace={}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    for m in metrics {
        match stats::summarize(&m.samples) {
            Some(s) if s.n > 1 => eprintln!(
                "  {:<28} {:>14.6} {:<5} median {:.6} q1 {:.6} q3 {:.6} n={} in run order: {:.4?}",
                m.name, m.value, m.unit, s.median, s.q1, s.q3, s.n, m.samples
            ),
            _ => match wall.filter(|w| LAYER_TIMES.contains(&m.name.as_str()) && *w > 0.0) {
                Some(w) => eprintln!(
                    "  {:<28} {:>14.6} {:<5} ({:.1}% of traced wall)",
                    m.name,
                    m.value,
                    m.unit,
                    100.0 * m.value / w
                ),
                None => eprintln!("  {:<28} {:>14.6} {}", m.name, m.value, m.unit),
            },
        }
    }
    eprintln!(
        "  ops {} failed {} failed_frac {}",
        tally.attempted,
        tally.failed,
        tally.failed as f64 / tally.attempted.max(1) as f64
    );
    for p in &tally.problems {
        eprintln!("  FAILED: {p}");
    }
    eprintln!(
        "  digest {:016x} over {} reports: {} cycles, {} DRAM bytes",
        tally.digest, tally.reports, tally.cycles, tally.dram_bytes
    );
}

fn run() -> Result<String, String> {
    let args = parse_args(std::env::args().skip(1))?;
    // Nothing in the environment may change the work: thread count and
    // figure scale come from here alone.
    for var in ["HYGCN_THREADS", "HYGCN_SCALE", "HYGCN_FULL"] {
        std::env::remove_var(var);
    }
    hygcn_par::set_thread_override(Some(1));

    let name = args.workload.name();
    let scratch = ScratchDir::create(name)?;
    let mut w: Box<dyn Workload> = match args.workload {
        WorkloadId::FiguresAll => Box::new(FiguresAll::new(&scratch.0)),
        WorkloadId::CampaignSweep => Box::new(CampaignSweep::new(&scratch.0, args.seed)?),
        WorkloadId::SimulateReddit => Box::new(SimulateReddit::new(args.seed)),
    };
    let mut spans = Spans::new();
    let mut tally = Tally::default();
    let metrics = if args.trace {
        let trace = PathBuf::from(OUT_DIR).join(format!("{name}.trace.json"));
        traced(&mut *w, &mut spans, &mut tally, &trace)?
    } else {
        timed(&mut *w, args.seconds, &mut spans, &mut tally)?
    };
    w.check(&mut tally);
    drop(w);
    drop(scratch);
    report(&args, &metrics, &tally);
    result_json(tally.failed == 0, &tally, &metrics)
}

fn main() -> ExitCode {
    match run() {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A workload that does almost nothing, to drive the runners.
    struct Idle;

    impl Workload for Idle {
        fn setup(&mut self, spans: &mut Spans) -> Result<f64, String> {
            Ok(spans.time("dse", "dse.setup", || ()).1)
        }
        fn setups(&self) -> (usize, usize) {
            (1, 5)
        }
        fn min_passes(&self) -> usize {
            3
        }
        fn pass(&mut self, spans: &mut Spans, _: &mut Tally) -> Result<(f64, Vec<f64>), String> {
            let (_, a) = spans.time("core", "core.simulate_stack", || {
                std::thread::sleep(std::time::Duration::from_millis(1))
            });
            Ok((a, vec![a]))
        }
        fn check(&mut self, _: &mut Tally) {}
        fn edges_built(&mut self) -> u64 {
            0
        }
    }

    /// The end-to-end metrics, reported by `--trace 0`.
    const END_TO_END: &[&str] = &["wall_s", "rerun_s", "setup_s", "peak_rss_mb"];

    // The collector is process-global: runner tests take turns.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());
        GATE.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn benchmark_json() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark")
    }

    fn names(metrics: &[Metric]) -> Vec<&str> {
        metrics.iter().map(|m| m.name.as_str()).collect()
    }

    #[test]
    fn timed_run_emits_every_end_to_end_metric() {
        let _g = serial();
        let metrics = timed(&mut Idle, 0.001, &mut Spans::new(), &mut Tally::default()).unwrap();
        assert_eq!(names(&metrics), END_TO_END);
        assert_eq!(metrics[0].samples.len(), Idle.min_passes());
        assert_eq!(metrics[2].samples.len(), 1 + 5 * (Idle.min_passes() - 1));
        assert!(metrics.iter().all(|m| m.value > 0.0));
    }

    #[test]
    fn traced_run_emits_every_per_layer_metric_and_balances() {
        let _g = serial();
        let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../", ".e2ebench"))
            .join(format!("test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("t.json");
        let metrics = traced(&mut Idle, &mut Spans::new(), &mut Tally::default(), &trace).unwrap();
        assert!(std::fs::read_to_string(&trace)
            .unwrap()
            .contains("core.simulate_stack"));
        std::fs::remove_dir_all(&dir).unwrap();
        let get = |n: &str| metrics.iter().find(|m| m.name == n).unwrap().value;
        let layer_sum: f64 = LAYER_TIMES.iter().map(|n| get(n)).sum();
        let total = layer_sum + get("obs.unattributed_s");
        assert!((total - get("obs.traced_wall_s")).abs() < 1e-9);
        assert!(get("core.self_s") > 0.0);
        assert!(get("obs.unattributed_s") >= 0.0);

        let declared = benchmark_json();
        for m in &metrics {
            assert!(
                declared.contains(&format!("\"name\": \"{}\"", m.name)),
                "{} missing from BENCHMARK.json",
                m.name
            );
        }
    }

    #[test]
    fn every_workload_emits_the_full_metric_set() {
        // Emission does not depend on the workload: every run reports
        // every metric, 0 for a layer the workload never enters.
        let json = benchmark_json();
        for w in ["figures-all", "campaign-sweep"] {
            assert!(json.contains(&format!("\"name\": \"{w}\"")));
            assert!(WorkloadId::ALL.iter().any(|id| id.name() == w));
        }
        let run = TracedRun {
            intervals: Vec::new(),
            snap: hygcn_obs::snapshot(),
            wall_s: 1.0,
            overhead_frac: 0.0,
            edges_built: 0,
            direct_evals: 0,
            artifacts: Vec::new(),
        };
        let per_layer = per_layer(&run);
        let per_layer_section = json.split("\"per_layer\"").nth(1).unwrap();
        assert_eq!(
            per_layer_section.matches("\"name\"").count(),
            per_layer.len(),
            "BENCHMARK.json declares exactly the emitted per-layer metrics"
        );
        let e2e_section = json
            .split("\"end_to_end\"")
            .nth(1)
            .unwrap()
            .split("\"per_layer\"")
            .next()
            .unwrap();
        for name in END_TO_END {
            assert!(e2e_section.contains(&format!("\"name\": \"{name}\"")));
        }
        assert_eq!(e2e_section.matches("\"name\"").count(), END_TO_END.len());
        let mut all = names(&per_layer);
        all.extend(END_TO_END);
        assert!(all.iter().all(|n| stats::valid_metric_name(n)));
        let distinct: std::collections::BTreeSet<_> = all.iter().collect();
        assert_eq!(distinct.len(), all.len());
    }

    #[test]
    fn artifacts_are_the_registered_figures() {
        let ids: Vec<&str> = hygcn_bench::figures::FIGURES.iter().map(|f| f.id).collect();
        assert_eq!(ids, ARTIFACTS);
    }

    #[test]
    fn args_parse_the_command_line() {
        let argv = |s: &str| {
            s.split(' ')
                .map(String::from)
                .collect::<Vec<_>>()
                .into_iter()
        };
        let a = parse_args(argv(
            "--workload simulate-reddit --seed 0x5EED --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, WorkloadId::SimulateReddit);
        assert_eq!((a.seed, a.seconds, a.trace), (0x5EED, 10.0, true));
        assert!(parse_args(argv("--workload nope --seed 1")).is_err());
        assert!(parse_args(argv("--seed 1")).is_err());
        assert!(parse_args(argv("--workload figures-all --trace 2")).is_err());
        assert!(parse_args(argv("--workload figures-all --seconds 0")).is_err());
    }

    #[test]
    fn result_line_is_one_json_object() {
        let tally = Tally::default();
        let line = result_json(true, &tally, &[Metric::one("wall_s", "s", 1.25)]).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
        assert!(result_json(true, &tally, &[Metric::one("bad name", "s", 1.0)]).is_err());
        assert!(result_json(true, &tally, &[Metric::one("x", "s", f64::NAN)]).is_err());
    }
}
