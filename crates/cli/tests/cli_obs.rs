//! End-to-end tests of the observability surface and exit-code
//! contract, driving the real `hygcn` binary. Each invocation is its
//! own process, so the collector's global state never leaks between
//! tests (and the exit codes — the actual user-facing contract — are
//! what gets asserted, not internal error variants).

use std::path::PathBuf;
use std::process::{Command, Output};

fn hygcn(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hygcn"))
        .args(args)
        .output()
        .expect("failed to spawn hygcn")
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(name);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// A campaign whose points all fail (a 1 KB input buffer cannot hold
/// one IMDB-BIN feature row) must exit with the dedicated code 3 — not
/// 0 (the historical bug: scripts treated all-failed campaigns as
/// green) and not the generic argument/runtime error code 2. The report
/// still prints so the failure is diagnosable.
#[test]
fn campaign_with_failed_points_exits_3_and_still_prints_the_report() {
    let out = hygcn(&[
        "campaign",
        "--datasets",
        "IB",
        "--scale",
        "0.1",
        "--axes",
        "aggbuf-mb=4,16",
        "--inputbuf-kb",
        "1",
        "--store",
        "none",
    ]);
    assert_eq!(out.status.code(), Some(3), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("## Campaign"), "report missing: {text}");
    assert!(text.contains("2 failed"), "failed count missing: {text}");
    let err = stderr(&out);
    assert!(
        err.contains("campaign completed with 2 failed point(s)"),
        "summary missing on stderr: {err}"
    );
}

/// The same campaign without the sabotage exits 0 — the baseline the
/// test above is meaningful against.
#[test]
fn healthy_campaign_exits_0() {
    let out = hygcn(&[
        "campaign",
        "--datasets",
        "IB",
        "--scale",
        "0.1",
        "--axes",
        "aggbuf-mb=4,16",
        "--store",
        "none",
    ]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("2 simulated, 0 cached)"));
}

/// `--metrics-out` / `--trace-out`: the cold run records every point as
/// simulated; the warm re-run's metrics.json shows zero simulations and
/// a 100% cache-hit ratio. The trace is valid Chrome-trace JSON.
#[test]
fn campaign_metrics_report_full_cache_hits_on_rerun() {
    let dir = tmpdir("hygcn-cli-obs-metrics");
    let store = dir.join("campaign.jsonl");
    let metrics = dir.join("metrics.json");
    let trace = dir.join("trace.json");
    let run = || {
        hygcn(&[
            "campaign",
            "--datasets",
            "IB",
            "--scale",
            "0.1",
            "--axes",
            "aggbuf-mb=4,16;sparsity=on,off",
            "--store",
            store.to_str().unwrap(),
            "--metrics-out",
            metrics.to_str().unwrap(),
            "--trace-out",
            trace.to_str().unwrap(),
        ])
    };
    let cold = run();
    assert_eq!(cold.status.code(), Some(0), "stderr: {}", stderr(&cold));
    let m = std::fs::read_to_string(&metrics).unwrap();
    assert!(m.contains("\"points_total\": 4"), "{m}");
    assert!(m.contains("\"simulated\": 4"), "{m}");
    assert!(m.contains("\"cached\": 0"), "{m}");
    assert!(m.contains("\"cache_hit_ratio\": 0.0000"), "{m}");

    let warm = run();
    assert_eq!(warm.status.code(), Some(0), "stderr: {}", stderr(&warm));
    let m = std::fs::read_to_string(&metrics).unwrap();
    assert!(m.contains("\"points_total\": 4"), "{m}");
    assert!(m.contains("\"simulated\": 0"), "{m}");
    assert!(m.contains("\"cached\": 4"), "{m}");
    assert!(m.contains("\"cache_hit_ratio\": 1.0000"), "{m}");

    // The cold-run trace (overwritten by the warm run, which simulates
    // nothing) still carries the store spans; minimally validate shape.
    let t = std::fs::read_to_string(&trace).unwrap();
    assert!(t.starts_with('{') && t.contains("\"traceEvents\""), "{t}");
    assert!(t.contains("\"ph\": \"X\""), "{t}");
    std::fs::remove_dir_all(&dir).ok();
}

/// `figures --metrics-out/--trace-out`: the cold Table 2 render
/// evaluates its one `cpu-trace` point on a freshly built graph; the
/// warm re-render is a store read, so its metrics.json shows one cached
/// point, no graph build and no evaluation, beside the identical table.
#[test]
fn figures_metrics_show_a_warm_table02_is_a_store_read() {
    let dir = tmpdir("hygcn-cli-obs-figures");
    let store = dir.join("figures.jsonl");
    let metrics = dir.join("metrics.json");
    let trace = dir.join("trace.json");
    let run = || {
        hygcn(&[
            "figures",
            "table02",
            "--scale",
            "0.05",
            "--store",
            store.to_str().unwrap(),
            "--metrics-out",
            metrics.to_str().unwrap(),
            "--trace-out",
            trace.to_str().unwrap(),
        ])
    };
    let cold = run();
    assert_eq!(cold.status.code(), Some(0), "stderr: {}", stderr(&cold));
    let cold_text = stdout(&cold);
    assert!(
        cold_text.contains("(1 simulated, 0 cached this run)"),
        "{cold_text}"
    );
    let m = std::fs::read_to_string(&metrics).unwrap();
    assert!(m.contains("\"simulated\": 1"), "{m}");
    assert!(m.contains("\"workload_build\""), "{m}");
    assert!(m.contains("\"cpu-trace\": {\"count\": 1"), "{m}");
    let t = std::fs::read_to_string(&trace).unwrap();
    assert!(t.contains("\"name\": \"figure_render\""), "{t}");

    let warm = run();
    assert_eq!(warm.status.code(), Some(0), "stderr: {}", stderr(&warm));
    let warm_text = stdout(&warm);
    assert!(
        warm_text.contains("(0 simulated, 1 cached this run)"),
        "{warm_text}"
    );
    let table = |text: &str| text.split("\nfigures store:").next().unwrap().to_string();
    assert_eq!(table(&warm_text), table(&cold_text));
    let m = std::fs::read_to_string(&metrics).unwrap();
    assert!(m.contains("\"cached\": 1"), "{m}");
    assert!(!m.contains("\"workload_build\""), "{m}");
    assert!(!m.contains("cpu-trace"), "{m}");
    std::fs::remove_dir_all(&dir).ok();
}

/// `--progress` emits at least the final summary line on stderr, shaped
/// like `progress: 2/2 points (...)`.
#[test]
fn campaign_progress_lines_land_on_stderr() {
    let out = hygcn(&[
        "campaign",
        "--datasets",
        "IB",
        "--scale",
        "0.1",
        "--axes",
        "aggbuf-mb=4,16",
        "--store",
        "none",
        "--progress",
    ]);
    assert_eq!(out.status.code(), Some(0));
    let err = stderr(&out);
    assert!(err.contains("progress: 2/2 points"), "{err}");
    assert!(err.contains("2 simulated, 0 cached, 0 failed"), "{err}");
    // Progress is observability: none of it may leak into stdout, which
    // scripts parse.
    assert!(!stdout(&out).contains("progress:"));
}

/// `store stats --json` emits the machine-readable stats document.
#[test]
fn store_stats_json_is_machine_readable() {
    let dir = tmpdir("hygcn-cli-obs-storestats");
    let store = dir.join("campaign.jsonl");
    let seeded = hygcn(&[
        "campaign",
        "--datasets",
        "IB",
        "--scale",
        "0.1",
        "--axes",
        "aggbuf-mb=4,16",
        "--store",
        store.to_str().unwrap(),
    ]);
    assert_eq!(seeded.status.code(), Some(0), "{}", stderr(&seeded));
    let out = hygcn(&[
        "store",
        "stats",
        "--store",
        store.to_str().unwrap(),
        "--json",
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let json = stdout(&out);
    assert!(json.trim_start().starts_with('{'), "{json}");
    for needle in [
        "\"records\": 2",
        "\"checksummed\": 2",
        "\"checksum_coverage\": 1.0000",
        "\"quarantined\": 0",
        "\"torn_tail\": false",
        "\"cycle\": 2",
    ] {
        assert!(json.contains(needle), "missing {needle} in {json}");
    }
    // The human form still works and is not JSON.
    let human = hygcn(&["store", "stats", "--store", store.to_str().unwrap()]);
    assert!(stdout(&human).contains("2 record(s)"));
    std::fs::remove_dir_all(&dir).ok();
}

/// `bench --profile --trace-out`: the phase table prints, and the trace
/// covers the span taxonomy — six distinct phases from one instrumented
/// cold `cycle` evaluation.
#[test]
fn bench_profile_covers_the_span_taxonomy() {
    let dir = tmpdir("hygcn-cli-obs-bench");
    let trace = dir.join("trace.json");
    let out = hygcn(&[
        "bench",
        "--vertices",
        "1024",
        "--degree",
        "4",
        "--feature-len",
        "32",
        "--runs",
        "1",
        "--profile",
        "--trace-out",
        trace.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("phase profile"), "{text}");
    let t = std::fs::read_to_string(&trace).unwrap();
    assert!(t.contains("\"traceEvents\""), "{t}");
    let expected = [
        "schedule_build",
        "aggregation",
        "combination",
        "span_program_build",
        "span_replay",
        "backend_eval",
    ];
    for phase in expected {
        assert!(
            t.contains(&format!("\"name\": \"{phase}\"")),
            "trace missing phase {phase}: {t}"
        );
        assert!(
            text.contains(phase),
            "profile table missing phase {phase}: {text}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Boolean flags reject a stray value-looking token (it would be a bare
/// positional, which campaign/bench forbid), and unknown flags still
/// fail loudly with exit 2.
#[test]
fn flag_grammar_errors_exit_2() {
    let out = hygcn(&["campaign", "--progress", "yes", "--store", "none"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("malformed"), "{}", stderr(&out));
    let out = hygcn(&["bench", "--profile", "--bogus", "1"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("unknown flag"), "{}", stderr(&out));
}
