//! End-to-end regression tests of the `hygcn figures` pipeline: the
//! figure/table artifacts regenerate through the campaign engine, a
//! second run against the same `figures.jsonl` store performs **zero**
//! simulations, and the rendered tables of fig17, of the
//! baseline-reading Fig. 2/10/13/14 and of Tables 2 and 3 are pinned as
//! golden snapshots (regenerate intentionally with
//! `BLESS=1 cargo test --test figures`).

use std::path::PathBuf;

use hygcn_bench::figures::{figure_csv, find_figure, run_figure, FigureCtx, FIGURES};
use hygcn_suite::dse::space::cache_key;

/// Compares `got` with `tests/golden/<name>.txt`, or rewrites the
/// fixture under `BLESS=1`.
fn check_golden(name: &str, got: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.txt"));
    if std::env::var("BLESS").as_deref() == Ok("1") {
        std::fs::write(&path, got)
            .unwrap_or_else(|e| panic!("cannot bless {}: {e}", path.display()));
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "missing golden fixture {}; run `BLESS=1 cargo test --test figures` to create it",
            path.display()
        )
    });
    assert_eq!(
        got, want,
        "{name} drifted; intentional model changes regenerate with BLESS=1"
    );
}

#[test]
fn second_figures_run_performs_zero_simulations() {
    let dir = std::env::temp_dir().join("hygcn-figures-e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let store = dir.join("figures.jsonl");
    std::fs::remove_file(&store).ok();

    // A representative artifact mix at smoke scale: one simulated
    // ablation (fig17), the shared-point Table 3, and the static
    // Table 7 — all streaming into one store.
    let ids = ["fig17", "table03", "table07"];
    let run_all = |ctx: &mut FigureCtx| -> (usize, usize, Vec<String>) {
        let mut simulated = 0;
        let mut cached = 0;
        let mut outputs = Vec::new();
        for id in ids {
            let run = run_figure(find_figure(id).unwrap(), ctx, Some(&store), None).unwrap();
            simulated += run.simulated;
            cached += run.cache_hits;
            outputs.push(run.output);
        }
        (simulated, cached, outputs)
    };

    let mut ctx = FigureCtx::new(0.05);
    let (simulated, cached, first) = run_all(&mut ctx);
    // fig17 simulates its 6 ablation points and table03 its
    // `exec-pattern` point; table03's default-config PB point carries
    // the same cache key as fig17's PB coordination=on cell, so it is
    // already served from the store on the cold run.
    assert_eq!(simulated, 7);
    assert_eq!(cached, 1, "table03 shares fig17's PB point");

    // Second run, fresh context (no in-process memoization carried
    // over): zero simulations, bit-identical tables.
    let mut ctx2 = FigureCtx::new(0.05);
    let (simulated2, cached2, second) = run_all(&mut ctx2);
    assert_eq!(simulated2, 0, "re-run must simulate nothing");
    assert_eq!(cached2, 8);
    assert_eq!(first, second);

    std::fs::remove_file(&store).ok();
}

#[test]
fn fig17_table_matches_golden_snapshot() {
    let mut ctx = FigureCtx::new(0.05);
    let run = run_figure(find_figure("fig17").unwrap(), &mut ctx, None, None).unwrap();
    check_golden("figures_fig17", &run.output);
}

/// Table 2's characterization text at smoke scale, pinned so moving its
/// numbers into the store cannot change a digit of the rendered table.
#[test]
fn table02_matches_golden_snapshot() {
    let mut ctx = FigureCtx::new(0.05);
    let run = run_figure(find_figure("table02").unwrap(), &mut ctx, None, None).unwrap();
    check_golden("figures_table02", &run.output);
}

/// Table 3's execution-pattern text at smoke scale, pinned so reading
/// its workload statistics from the store cannot change a digit.
#[test]
fn table03_matches_golden_snapshot() {
    let mut ctx = FigureCtx::new(0.05);
    let run = run_figure(find_figure("table03").unwrap(), &mut ctx, None, None).unwrap();
    check_golden("figures_table03", &run.output);
}

/// The `--csv` export of the same artifact is pinned too (the plottable
/// twin of the rendered table must stay as stable as the table itself);
/// regenerate with `BLESS=1 cargo test --test figures`. The export
/// embeds the per-point cache keys, so this also pins backend keying.
#[test]
fn fig17_csv_export_matches_golden_snapshot() {
    let mut ctx = FigureCtx::new(0.05);
    let run = run_figure(find_figure("fig17").unwrap(), &mut ctx, None, None).unwrap();
    check_golden("figures_fig17_csv", &figure_csv(&run));
}

#[test]
fn figure_campaigns_share_points_across_artifacts() {
    let dir = std::env::temp_dir().join("hygcn-figures-e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let store = dir.join("figures-shared.jsonl");
    std::fs::remove_file(&store).ok();

    // Fig. 10 evaluates the cross-backend grid — the 20-point
    // accelerator block plus the same 20 workloads under the cpu, gpu,
    // cpu-naive and gpu-sharded backends; Fig. 11 reads the accelerator,
    // cpu and gpu grids back and must be served entirely from the store.
    // (0.05 is the smallest multiplier at which scaled-down Reddit
    // instantiates.)
    let mut ctx = FigureCtx::new(0.05);
    let mut run = |id| run_figure(find_figure(id).unwrap(), &mut ctx, Some(&store), None).unwrap();
    let fig10 = run("fig10");
    assert_eq!(fig10.simulated, 100);
    let fig11 = run("fig11");
    assert_eq!(
        (fig11.simulated, fig11.cache_hits),
        (0, 60),
        "fig11 reuses fig10's cross-backend grid points"
    );
    // Fig. 12 reads only the accelerator block — all 20 cached.
    let fig12 = run("fig12");
    assert_eq!((fig12.simulated, fig12.cache_hits), (0, 20));
    // Fig. 13/14 read the same three grids as Fig. 11, and Fig. 2 the
    // cpu-naive grid of five datasets: every baseline number is a
    // stored point.
    let fig13 = run("fig13");
    assert_eq!((fig13.simulated, fig13.cache_hits), (0, 60));
    let fig14 = run("fig14");
    assert_eq!((fig14.simulated, fig14.cache_hits), (0, 60));
    let fig02 = run("fig02");
    assert_eq!((fig02.simulated, fig02.cache_hits), (0, 15));
    for artifact in [&fig02, &fig10, &fig13, &fig14] {
        check_golden(&format!("figures_{}", artifact.id), &artifact.output);
    }
    std::fs::remove_file(&store).ok();
}

/// With no store file (`--store none`), one context's artifacts share
/// its in-memory store: Fig. 11 reads the 60 points Fig. 10 simulated.
#[test]
fn store_none_shares_points_across_a_runs_artifacts() {
    let mut ctx = FigureCtx::new(0.05);
    let mut run = |id| run_figure(find_figure(id).unwrap(), &mut ctx, None, None).unwrap();
    let fig10 = run("fig10");
    assert_eq!((fig10.simulated, fig10.cache_hits), (100, 0));
    let fig11 = run("fig11");
    assert_eq!((fig11.simulated, fig11.cache_hits), (0, 60));
}

/// Enumeration hashes each axis cell's config once and finishes every
/// point's key from that prefix; each key must still be the one-shot
/// `cache_key` of its point.
#[test]
fn every_figure_point_carries_its_cache_key() {
    for spec in FIGURES {
        for space in (spec.spaces)(0.05).unwrap() {
            for p in space.enumerate().unwrap() {
                let canon = p.workload.canon().unwrap();
                assert_eq!(
                    p.key,
                    cache_key(&p.backend, &p.config, p.model, &canon),
                    "{}: {}",
                    spec.id,
                    p.label()
                );
            }
        }
    }
}

#[test]
fn every_artifact_id_is_documented_in_the_registry() {
    let ids: Vec<&str> = FIGURES.iter().map(|f| f.id).collect();
    for expected in [
        "fig02", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18",
        "table02", "table03", "table07", "ablation",
    ] {
        assert!(ids.contains(&expected), "missing artifact {expected}");
    }
}
