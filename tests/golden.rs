//! Golden snapshot tests: small-dataset `SimReport`s serialized as
//! line-per-field JSON and checked into `tests/golden/`.
//!
//! Any unintended timing drift — a cycle here, a row miss there — fails
//! CI with a **field-level diff** naming exactly which report fields
//! moved. Intentional model changes regenerate the fixtures with
//!
//! ```text
//! BLESS=1 cargo test --test golden
//! ```
//!
//! The fixtures are produced by `simulate()`, whose bit-identity against
//! `simulate_reference()` is enforced by the oracle suite — so these
//! snapshots pin down the *model*, not the execution strategy.

#![allow(clippy::field_reassign_with_default)]

use std::fmt::Write as _;
use std::path::PathBuf;

use hygcn_suite::core::config::{HyGcnConfig, PipelineMode};
use hygcn_suite::core::{SimReport, Simulator};
use hygcn_suite::gcn::model::{GcnModel, ModelKind};
use hygcn_suite::graph::generator::{erdos_renyi, rmat, RmatParams};
use hygcn_suite::mem::hbm::HbmConfig;
use hygcn_suite::mem::scheduler::CoordinationMode;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.json"))
}

/// Splits the line-per-field JSON into `(key, value)` pairs.
fn fields(json: &str) -> Vec<(String, String)> {
    json.lines()
        .filter_map(|l| {
            let l = l.trim().trim_end_matches(',');
            let (k, v) = l.split_once("\": ")?;
            Some((k.trim_start_matches('"').to_string(), v.to_string()))
        })
        .collect()
}

fn check(name: &str, report: &SimReport) {
    let path = golden_path(name);
    let got = report.to_json();
    if std::env::var("BLESS").as_deref() == Ok("1") {
        std::fs::write(&path, &got)
            .unwrap_or_else(|e| panic!("cannot bless {}: {e}", path.display()));
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "missing golden fixture {}; run `BLESS=1 cargo test --test golden` to create it",
            path.display()
        )
    });
    if got == want {
        return;
    }
    // Field-level diff: report exactly which fields drifted.
    let got_f = fields(&got);
    let want_f = fields(&want);
    let mut diff = String::new();
    for (k, w) in &want_f {
        match got_f.iter().find(|(gk, _)| gk == k) {
            Some((_, g)) if g != w => {
                let _ = writeln!(diff, "  {k}: expected {w}, got {g}");
            }
            None => {
                let _ = writeln!(diff, "  {k}: missing from new report");
            }
            _ => {}
        }
    }
    for (k, g) in &got_f {
        if !want_f.iter().any(|(wk, _)| wk == k) {
            let _ = writeln!(diff, "  {k}: new field (= {g}) not in fixture");
        }
    }
    panic!(
        "golden snapshot `{name}` drifted:\n{diff}\
         re-bless with `BLESS=1 cargo test --test golden` if intentional"
    );
}

/// Runs `simulate()` and checks the report against the snapshot.
fn simulate_and_check(name: &str, cfg: HyGcnConfig, g: &hygcn_suite::graph::Graph, m: &GcnModel) {
    check(name, &Simulator::new(cfg).simulate(g, m).unwrap());
}

#[test]
fn golden_gcn_latency_pipeline() {
    let g = erdos_renyi(512, 4096, 42).unwrap().with_feature_len(64);
    let m = GcnModel::new(ModelKind::Gcn, 64, 7).unwrap();
    let mut cfg = HyGcnConfig::default();
    cfg.aggregation_buffer_bytes = 1 << 16; // several chunks
    simulate_and_check("gcn_latency", cfg, &g, &m);
}

#[test]
fn golden_gcn_no_pipeline_spills() {
    let g = erdos_renyi(512, 4096, 42).unwrap().with_feature_len(64);
    let m = GcnModel::new(ModelKind::Gcn, 64, 7).unwrap();
    let mut cfg = HyGcnConfig::default();
    cfg.pipeline = PipelineMode::None;
    cfg.aggregation_buffer_bytes = 1 << 16;
    simulate_and_check("gcn_nopipe", cfg, &g, &m);
}

#[test]
fn golden_diffpool_energy_pipeline() {
    let g = rmat(768, 6000, RmatParams::default(), 3)
        .unwrap()
        .with_feature_len(32);
    let m = GcnModel::new(ModelKind::DiffPool, 32, 7).unwrap();
    let mut cfg = HyGcnConfig::default();
    cfg.pipeline = PipelineMode::EnergyAware;
    cfg.aggregation_buffer_bytes = 1 << 16;
    simulate_and_check("dfp_energy", cfg, &g, &m);
}

#[test]
fn golden_gcn_single_channel() {
    let g = erdos_renyi(384, 3000, 9).unwrap().with_feature_len(32);
    let m = GcnModel::new(ModelKind::Gcn, 32, 7).unwrap();
    let mut cfg = HyGcnConfig::default();
    cfg.hbm = HbmConfig {
        channels: 1,
        ..HbmConfig::hbm1()
    };
    cfg.aggregation_buffer_bytes = 1 << 16;
    simulate_and_check("gcn_1ch", cfg, &g, &m);
}

#[test]
fn golden_gcn_uncoordinated() {
    let g = erdos_renyi(512, 4096, 42).unwrap().with_feature_len(64);
    let m = GcnModel::new(ModelKind::Gcn, 64, 7).unwrap();
    let mut cfg = HyGcnConfig::default();
    cfg.coordination = CoordinationMode::Fcfs;
    cfg.hbm = HbmConfig::hbm1_uncoordinated();
    cfg.aggregation_buffer_bytes = 1 << 16;
    simulate_and_check("gcn_uncoord", cfg, &g, &m);
}
