//! # hygcn-bench
//!
//! The paper's evaluation (§5) as code: [`figures`] holds every
//! figure/table reproduction as a campaign-driven spec (run them with
//! `hygcn figures <id|all>`), and this library root the shared
//! plumbing — the Fig. 10–14 evaluation grid, dataset scales, and table
//! formatting. The `benches/` targets are host-performance
//! microbenchmarks (criterion kernels, simulator throughput, HBM
//! channels, one DSE campaign).
//!
//! ## Scales
//!
//! Bench targets instantiate datasets at [`bench_scale`]: full size for
//! everything but Reddit, which defaults to 1/16 (its statistics —
//! average degree, feature length, skew — are preserved). Set
//! `HYGCN_SCALE` (a multiplier in `(0, 1]`) to shrink everything for a
//! smoke run, or `HYGCN_FULL=1` to force full-scale Reddit. Figure runs
//! take their multiplier from `--scale` instead.

use hygcn_gcn::model::ModelKind;
use hygcn_graph::datasets::{DatasetKey, DatasetSpec};

pub mod figures;

/// The model × dataset grid of the paper's overall evaluation: GCN, GSC,
/// and GIN on all six datasets; DiffPool on IB and CL only (Fig. 10–14).
pub fn evaluation_grid() -> Vec<(ModelKind, DatasetKey)> {
    let mut grid = Vec::new();
    for kind in [ModelKind::Gcn, ModelKind::GraphSage, ModelKind::Gin] {
        for key in DatasetKey::ALL {
            grid.push((kind, key));
        }
    }
    grid.push((ModelKind::DiffPool, DatasetKey::Ib));
    grid.push((ModelKind::DiffPool, DatasetKey::Cl));
    grid
}

/// The scale a dataset instantiates at for benchmarking, honoring the
/// `HYGCN_SCALE` / `HYGCN_FULL` environment variables.
pub fn bench_scale(spec: &DatasetSpec) -> f64 {
    let base = if std::env::var("HYGCN_FULL").is_ok() {
        1.0
    } else {
        spec.default_bench_scale()
    };
    let mult = std::env::var("HYGCN_SCALE")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .unwrap_or(1.0)
        .clamp(1e-3, 1.0);
    (base * mult).min(1.0)
}

/// Geometric mean (the paper reports average speedups across a grid).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.max(1e-12).ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Prints a figure/table header in a uniform style.
pub fn header(title: &str) {
    println!("\n=== {title} ===");
}

/// Formats a ratio as the paper does (e.g. `1660.9x`).
pub fn fmt_x(x: f64) -> String {
    if x >= 100.0 {
        format!("{x:.0}x")
    } else if x >= 10.0 {
        format!("{x:.1}x")
    } else {
        format!("{x:.2}x")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_matches_paper_20_workloads() {
        // 3 models x 6 datasets + DFP on 2 = 20 bars per figure.
        assert_eq!(evaluation_grid().len(), 20);
    }

    #[test]
    fn geomean_of_equal_values() {
        assert!((geomean(&[4.0, 4.0, 4.0]) - 4.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn fmt_x_styles() {
        assert_eq!(fmt_x(1660.9), "1661x");
        assert_eq!(fmt_x(17.14), "17.1x");
        assert_eq!(fmt_x(6.5), "6.50x");
    }

    #[test]
    fn bench_scale_reduces_reddit_only() {
        // Guard against env leakage: only check when no overrides are set.
        if std::env::var("HYGCN_FULL").is_err() && std::env::var("HYGCN_SCALE").is_err() {
            let rd = DatasetSpec::get(DatasetKey::Rd);
            let cr = DatasetSpec::get(DatasetKey::Cr);
            assert!(bench_scale(&rd) < bench_scale(&cr));
            assert_eq!(bench_scale(&cr), 1.0);
        }
    }
}
