//! Search strategies over a [`ConfigSpace`] — grid, seeded random
//! sampling, and successive halving with multi-fidelity rungs.
//!
//! ## Successive halving
//!
//! [`SearchStrategy::SuccessiveHalving`] evaluates the whole candidate
//! grid cheaply and spends full-cost simulation only on the points that
//! keep winning. Rung `r` of `R` evaluates the current survivors at
//! fidelity `eta^-(R-1-r)` — dataset workloads instantiate at
//! `scale * fidelity` ([`crate::space::WorkloadSpec::build_at`]) — then
//! promotes the best `ceil(n/eta)`-ish fraction (`max(1, n/eta)`) to the
//! next rung, ranked on the chosen [`BudgetMetric`]. The final rung runs
//! at fidelity 1.0, so its design points carry exactly the same cache
//! keys as a plain grid campaign over the same space.
//!
//! ## Determinism and resume invariants
//!
//! * **Deterministic promotion.** Survivors are ranked by
//!   `(metric, cache key)` ascending — the cache key is the tie-break,
//!   so equal-metric points promote in a stable, process-independent
//!   order. Given the same space, strategy, and store, two runs produce
//!   bit-identical rung reports and final survivors.
//! * **Every rung is cached.** Rung evaluations flow through the same
//!   [`crate::store::ResultStore`] as plain campaigns: a rung point's
//!   key hashes its fidelity (via `HyGcnConfig::canon`), so a
//!   half-fidelity result never masquerades as a full-fidelity one, and
//!   a killed or re-run search re-simulates only what is missing. An
//!   unchanged re-run performs **zero** simulations and reproduces the
//!   identical [`SearchOutcome`].
//! * **Shared final-rung results.** Because fidelity 1.0 is the default
//!   config, final-rung records are interchangeable with plain-campaign
//!   records for the same points — a later full grid campaign gets the
//!   halving winners' simulations for free, and vice versa.

use std::path::Path;
use std::sync::Arc;

use hygcn_core::backend::SimBackend;

use crate::campaign::{Campaign, CampaignReport, CompletedPoint, PointOutcome};
use crate::space::ConfigSpace;
use crate::store_io::StoreIo;
use crate::DseError;

/// The scalar a successive-halving rung ranks (and minimizes) on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BudgetMetric {
    /// End-to-end simulated cycles.
    #[default]
    Cycles,
    /// Total dynamic energy in joules.
    EnergyJ,
    /// Total DRAM traffic in bytes.
    DramBytes,
}

impl BudgetMetric {
    /// Parses a CLI token (`cycles`, `energy`, `dram`).
    pub fn parse(token: &str) -> Result<Self, DseError> {
        match token {
            "cycles" => Ok(BudgetMetric::Cycles),
            "energy" => Ok(BudgetMetric::EnergyJ),
            "dram" => Ok(BudgetMetric::DramBytes),
            _ => Err(DseError::Spec(format!(
                "unknown metric '{token}' (cycles/energy/dram)"
            ))),
        }
    }

    /// The metric's value for one completed point (as `f64`; all three
    /// metrics are exactly representable at simulated magnitudes).
    pub fn of(&self, o: &CompletedPoint) -> f64 {
        match self {
            BudgetMetric::Cycles => o.cycles as f64,
            BudgetMetric::EnergyJ => o.energy_j,
            BudgetMetric::DramBytes => o.dram_bytes as f64,
        }
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            BudgetMetric::Cycles => "cycles",
            BudgetMetric::EnergyJ => "energy",
            BudgetMetric::DramBytes => "dram",
        }
    }
}

/// How to spend simulations over a design space.
#[derive(Debug, Clone, PartialEq)]
pub enum SearchStrategy {
    /// Evaluate every enumerated point (the plain campaign).
    Grid,
    /// Evaluate a deterministic random subset of the grid.
    RandomSample {
        /// Upper bound on evaluated points.
        max_points: usize,
        /// Shuffle seed.
        seed: u64,
    },
    /// Multi-fidelity successive halving (see the module docs).
    SuccessiveHalving {
        /// Reduction factor between rungs (>= 2); also sets the rung
        /// fidelity ladder `eta^-(rungs-1-r)`.
        eta: usize,
        /// Number of rungs (>= 1); the last runs at fidelity 1.0.
        rungs: usize,
        /// The metric promotion ranks on.
        budget_metric: BudgetMetric,
        /// When set, the full candidate grid is first screened by the
        /// `analytical` backend (microseconds per point, cached under
        /// its own backend-keyed entries in the same store) and only the
        /// best `n/eta` candidates enter rung 0 — so the cheapest *real*
        /// rung already starts from a pruned field. The prefilter's
        /// summary lands in [`SearchOutcome::prefilter`].
        analytical_prefilter: bool,
    },
}

/// One rung's summary: what was evaluated and who got promoted.
#[derive(Debug, Clone, PartialEq)]
pub struct RungReport {
    /// Rung index (0-based, cheapest first).
    pub rung: usize,
    /// The fidelity every evaluation in this rung ran at.
    pub fidelity: f64,
    /// Points evaluated in this rung.
    pub evaluated: usize,
    /// Of those, simulated fresh this run.
    pub simulated: usize,
    /// Of those, served from the store.
    pub cache_hits: usize,
    /// Cache keys of the promoted points, best-first under the budget
    /// metric (these are the *rung-level* keys — the rows this rung
    /// wrote to the store). The last rung promotes everything it
    /// evaluated, ranked.
    pub survivors: Vec<u64>,
}

/// Everything a search produced.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchOutcome {
    /// The analytical screening pass, when the strategy enabled it
    /// (`fidelity` is 1.0 — the prefilter screens full workloads, just
    /// under the cheap backend; `rung` is meaningless and set to 0).
    pub prefilter: Option<RungReport>,
    /// Per-rung summaries (empty for [`SearchStrategy::Grid`] and
    /// [`SearchStrategy::RandomSample`], which have no rung structure).
    pub rungs: Vec<RungReport>,
    /// The final full-fidelity report: every point for grid/random, the
    /// surviving points (in rank order) for successive halving.
    pub report: CampaignReport,
}

/// Runs `strategy` over `space`, persisting every evaluation to `store`
/// (when given) so the search is resumable and an unchanged re-run
/// performs zero simulations. The evaluation backend is resolved from
/// the space's backend id; use [`run_search_with_backend`] to supply a
/// backend `hygcn-core` does not provide (the platform models).
///
/// # Errors
///
/// [`DseError::Spec`] for malformed spaces or strategy parameters
/// (`eta < 2`, `rungs == 0`); the campaign executor's errors otherwise.
pub fn run_search(
    space: &ConfigSpace,
    strategy: &SearchStrategy,
    store: Option<&Path>,
) -> Result<SearchOutcome, DseError> {
    run_search_with_backend(space, strategy, store, None)
}

/// [`run_search`] with an explicit backend object (syncs the space's
/// backend id to it, exactly as [`Campaign::with_backend`] does).
///
/// # Errors
///
/// As [`run_search`].
pub fn run_search_with_backend(
    space: &ConfigSpace,
    strategy: &SearchStrategy,
    store: Option<&Path>,
    backend: Option<Arc<dyn SimBackend>>,
) -> Result<SearchOutcome, DseError> {
    run_search_io(space, strategy, store, backend, None)
}

/// [`run_search_with_backend`] with an explicit [`StoreIo`]
/// implementation routing all store file traffic — the entry point the
/// CLI's `--fault-plan` flag uses to run a whole search through
/// [`crate::store_io::FaultyIo`] (`None` keeps the default
/// [`crate::store_io::RealIo`]).
///
/// # Errors
///
/// As [`run_search`].
pub fn run_search_io(
    space: &ConfigSpace,
    strategy: &SearchStrategy,
    store: Option<&Path>,
    backend: Option<Arc<dyn SimBackend>>,
    store_io: Option<Arc<dyn StoreIo>>,
) -> Result<SearchOutcome, DseError> {
    let space = match &backend {
        Some(b) => space.clone().with_backend_id(b.backend_id()),
        None => space.clone(),
    };
    let space = &space;
    let campaign_for = |space: ConfigSpace| {
        let mut c = Campaign::new(space);
        if let Some(b) = &backend {
            c = c.with_backend(b.clone());
        }
        if let Some(io) = &store_io {
            c = c.with_store_io(io.clone());
        }
        match store {
            Some(p) => c.with_store(p),
            None => c,
        }
    };
    match strategy {
        SearchStrategy::Grid => Ok(SearchOutcome {
            prefilter: None,
            rungs: Vec::new(),
            report: campaign_for(space.clone()).run()?,
        }),
        SearchStrategy::RandomSample { max_points, seed } => {
            let sampled = space.clone().with_sample(crate::space::SpaceSample {
                max_points: *max_points,
                seed: *seed,
            });
            Ok(SearchOutcome {
                prefilter: None,
                rungs: Vec::new(),
                report: campaign_for(sampled).run()?,
            })
        }
        SearchStrategy::SuccessiveHalving {
            eta,
            rungs,
            budget_metric,
            analytical_prefilter,
        } => {
            if *eta < 2 {
                return Err(DseError::Spec(format!("eta must be >= 2 (got {eta})")));
            }
            if *rungs == 0 {
                return Err(DseError::Spec("rungs must be >= 1".into()));
            }
            let campaign = campaign_for(space.clone());
            let mut survivors = space.enumerate()?;
            let mut prefilter = None;
            if *analytical_prefilter {
                // Screen the whole field with the analytical backend
                // through the same campaign (each point runs on its key's
                // backend) and store: backend-disjoint keys, so the
                // screening is itself cached and a re-run re-screens
                // nothing. The workload canon is computed once per
                // workload, not per point (an edge-list canon hashes the
                // file's content).
                let mut canons: std::collections::BTreeMap<usize, String> =
                    std::collections::BTreeMap::new();
                let screen_points = survivors
                    .iter()
                    .map(|p| {
                        let canon = match canons.entry(p.workload_idx) {
                            std::collections::btree_map::Entry::Occupied(e) => e.into_mut(),
                            std::collections::btree_map::Entry::Vacant(e) => {
                                e.insert(p.workload.canon()?)
                            }
                        };
                        let mut sp = p.clone();
                        sp.backend = "analytical".to_string();
                        sp.key = crate::space::cache_key("analytical", &sp.config, sp.model, canon);
                        Ok(sp)
                    })
                    .collect::<Result<Vec<_>, DseError>>()?;
                let report = campaign.run_points(&screen_points)?;
                let mut order = ranked(&report.points, *budget_metric);
                order.truncate((order.len() / *eta).max(1));
                prefilter = Some(RungReport {
                    rung: 0,
                    fidelity: 1.0,
                    evaluated: report.points.len(),
                    simulated: report.simulated,
                    cache_hits: report.cache_hits,
                    survivors: order
                        .iter()
                        .map(|&i| report.points[i].point().key)
                        .collect(),
                });
                survivors = order.iter().map(|&i| survivors[i].clone()).collect();
            }
            let mut rung_reports = Vec::with_capacity(*rungs);
            let mut final_report = None;
            for r in 0..*rungs {
                let fidelity = 1.0 / (*eta as f64).powi((*rungs - 1 - r) as i32);
                let rung_points = survivors
                    .iter()
                    .map(|p| p.at_fidelity(fidelity))
                    .collect::<Result<Vec<_>, _>>()?;
                let report = campaign.run_points(&rung_points)?;

                // Rank ascending on (metric, key): the key tie-break makes
                // promotion deterministic across processes. Failed
                // evaluations are never ranked — a point that failed at a
                // cheap rung is simply not promoted, and a re-run
                // re-attempts it because it was never persisted.
                let mut order = ranked(&report.points, *budget_metric);
                let keep = if r + 1 == *rungs {
                    order.len()
                } else {
                    (order.len() / *eta).max(1)
                };
                order.truncate(keep);
                rung_reports.push(RungReport {
                    rung: r,
                    fidelity,
                    evaluated: report.points.len(),
                    simulated: report.simulated,
                    cache_hits: report.cache_hits,
                    survivors: order
                        .iter()
                        .map(|&i| report.points[i].point().key)
                        .collect(),
                });
                // Promote the original (full-fidelity) points; outcomes
                // come back in input order, so index i maps 1:1.
                survivors = order.iter().map(|&i| survivors[i].clone()).collect();
                if r + 1 == *rungs {
                    // The final rung ran at fidelity 1.0: re-assemble its
                    // report in rank order as the search's result.
                    let mut points: Vec<PointOutcome> = Vec::with_capacity(keep);
                    for &i in &order {
                        points.push(report.points[i].clone());
                    }
                    final_report = Some(CampaignReport {
                        points,
                        simulated: report.simulated,
                        cache_hits: report.cache_hits,
                        failed: report.failed,
                    });
                }
            }
            let report = final_report
                .ok_or_else(|| DseError::Spec("successive halving needs rungs >= 1".into()))?;
            Ok(SearchOutcome {
                prefilter,
                rungs: rung_reports,
                report,
            })
        }
    }
}

/// Indices of the completed points, ranked ascending on
/// `(metric, cache key)` — the deterministic promotion order. Failed
/// points are excluded.
fn ranked(points: &[PointOutcome], metric: BudgetMetric) -> Vec<usize> {
    let mut order: Vec<usize> = (0..points.len())
        .filter(|&i| points[i].done().is_some())
        .collect();
    order.sort_by(|&a, &b| {
        metric
            .of(points[a].expect_done())
            .total_cmp(&metric.of(points[b].expect_done()))
            .then(points[a].point().key.cmp(&points[b].point().key))
    });
    order
}

/// Renders the analytical-prefilter summary line (the CLI's
/// `--prefilter on` banner; empty when the search ran none).
pub fn prefilter_to_text(prefilter: Option<&RungReport>) -> String {
    match prefilter {
        Some(p) => format!(
            "analytical prefilter: {} screened ({} simulated, {} cached) -> {} enter rung 0\n",
            p.evaluated,
            p.simulated,
            p.cache_hits,
            p.survivors.len(),
        ),
        None => String::new(),
    }
}

/// Renders the rung ladder as a compact text table (the CLI's
/// `--strategy successive-halving` banner).
pub fn rungs_to_text(rungs: &[RungReport], metric: BudgetMetric) -> String {
    let mut out = format!(
        "successive halving ({} rungs, metric: {}):\n",
        rungs.len(),
        metric.name()
    );
    for r in rungs {
        out += &format!(
            "  rung {}: fidelity {:<6} {:>4} evaluated ({} simulated, {} cached) -> {} promoted\n",
            r.rung,
            format!("{:?}", r.fidelity),
            r.evaluated,
            r.simulated,
            r.cache_hits,
            r.survivors.len(),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::{Axis, WorkloadSpec};
    use hygcn_gcn::model::ModelKind;
    use hygcn_graph::datasets::DatasetKey;

    fn space8() -> ConfigSpace {
        ConfigSpace::new(
            vec![WorkloadSpec::dataset(DatasetKey::Ib, 0.2, 1)],
            vec![ModelKind::Gcn],
        )
        .with_axis(Axis::parse("aggbuf-mb", "2,4,8,16").unwrap())
        .with_axis(Axis::parse("sparsity", "on,off").unwrap())
    }

    fn halving(eta: usize, rungs: usize) -> SearchStrategy {
        SearchStrategy::SuccessiveHalving {
            eta,
            rungs,
            budget_metric: BudgetMetric::Cycles,
            analytical_prefilter: false,
        }
    }

    #[test]
    fn halving_ladder_counts_and_fidelities() {
        let out = run_search(&space8(), &halving(2, 3), None).unwrap();
        assert_eq!(out.rungs.len(), 3);
        assert_eq!(out.rungs[0].fidelity, 0.25);
        assert_eq!(out.rungs[1].fidelity, 0.5);
        assert_eq!(out.rungs[2].fidelity, 1.0);
        assert_eq!(out.rungs[0].evaluated, 8);
        assert_eq!(out.rungs[0].survivors.len(), 4);
        assert_eq!(out.rungs[1].evaluated, 4);
        assert_eq!(out.rungs[1].survivors.len(), 2);
        assert_eq!(out.rungs[2].evaluated, 2);
        assert_eq!(out.rungs[2].survivors.len(), 2);
        assert_eq!(out.report.points.len(), 2);
        // Final-rung points run at full fidelity with untouched keys.
        for p in &out.report.points {
            assert_eq!(p.point().config.fidelity, 1.0);
            assert!(!p.point().assignment.iter().any(|(k, _)| k == "fidelity"));
        }
        // Rank order: the best point leads.
        assert!(
            out.report.points[0].expect_done().cycles <= out.report.points[1].expect_done().cycles
        );
    }

    #[test]
    fn halving_is_deterministic_and_resumable() {
        let dir = std::env::temp_dir().join("hygcn-dse-search-test");
        std::fs::create_dir_all(&dir).unwrap();
        let store = dir.join("halving.jsonl");
        std::fs::remove_file(&store).ok();

        let first = run_search(&space8(), &halving(2, 2), Some(&store)).unwrap();
        let total_sims: usize = first.rungs.iter().map(|r| r.simulated).sum();
        assert_eq!(total_sims, 8 + 4, "8 half-fidelity + 4 full-fidelity");

        // Unchanged re-run: zero simulations, bit-identical outcome.
        let second = run_search(&space8(), &halving(2, 2), Some(&store)).unwrap();
        assert!(second.rungs.iter().all(|r| r.simulated == 0));
        assert!(second
            .rungs
            .iter()
            .zip(&first.rungs)
            .all(|(s, f)| s.survivors == f.survivors && s.fidelity == f.fidelity));
        assert_eq!(second.report.points.len(), first.report.points.len());
        for (s, f) in second.report.points.iter().zip(&first.report.points) {
            assert_eq!(s.point().key, f.point().key);
            assert_eq!(s.expect_done().report_json, f.expect_done().report_json);
        }
        std::fs::remove_file(&store).ok();
    }

    #[test]
    fn halving_shares_final_rung_with_plain_campaigns() {
        let dir = std::env::temp_dir().join("hygcn-dse-search-test");
        std::fs::create_dir_all(&dir).unwrap();
        let store = dir.join("shared.jsonl");
        std::fs::remove_file(&store).ok();

        let out = run_search(&space8(), &halving(2, 2), Some(&store)).unwrap();
        // A plain grid campaign over the same space reuses the winners'
        // full-fidelity simulations (4 of 8 points cached).
        let grid = Campaign::new(space8()).with_store(&store).run().unwrap();
        assert_eq!(grid.cache_hits, out.report.points.len());
        assert_eq!(grid.simulated, 8 - out.report.points.len());
        std::fs::remove_file(&store).ok();
    }

    #[test]
    fn single_rung_halving_is_a_full_fidelity_grid() {
        let out = run_search(&space8(), &halving(4, 1), None).unwrap();
        assert_eq!(out.rungs.len(), 1);
        assert_eq!(out.rungs[0].fidelity, 1.0);
        assert_eq!(out.report.points.len(), 8);
    }

    #[test]
    fn grid_and_random_strategies_pass_through() {
        let grid = run_search(&space8(), &SearchStrategy::Grid, None).unwrap();
        assert!(grid.rungs.is_empty());
        assert_eq!(grid.report.points.len(), 8);
        let random = run_search(
            &space8(),
            &SearchStrategy::RandomSample {
                max_points: 3,
                seed: 5,
            },
            None,
        )
        .unwrap();
        assert_eq!(random.report.points.len(), 3);
    }

    #[test]
    fn bad_parameters_are_spec_errors() {
        assert!(matches!(
            run_search(&space8(), &halving(1, 2), None),
            Err(DseError::Spec(_))
        ));
        assert!(matches!(
            run_search(&space8(), &halving(2, 0), None),
            Err(DseError::Spec(_))
        ));
        assert!(BudgetMetric::parse("joules").is_err());
        assert_eq!(
            BudgetMetric::parse("dram").unwrap(),
            BudgetMetric::DramBytes
        );
    }

    #[test]
    fn metric_choice_changes_ranking_only_deterministically() {
        for metric in [
            BudgetMetric::Cycles,
            BudgetMetric::EnergyJ,
            BudgetMetric::DramBytes,
        ] {
            let strategy = SearchStrategy::SuccessiveHalving {
                eta: 2,
                rungs: 2,
                budget_metric: metric,
                analytical_prefilter: false,
            };
            let a = run_search(&space8(), &strategy, None).unwrap();
            let b = run_search(&space8(), &strategy, None).unwrap();
            assert_eq!(a.rungs, b.rungs, "{}", metric.name());
        }
    }

    #[test]
    fn analytical_prefilter_prunes_the_field_before_rung_zero() {
        let dir = std::env::temp_dir().join("hygcn-dse-search-test");
        std::fs::create_dir_all(&dir).unwrap();
        let store = dir.join("prefilter.jsonl");
        std::fs::remove_file(&store).ok();
        let strategy = SearchStrategy::SuccessiveHalving {
            eta: 2,
            rungs: 2,
            budget_metric: BudgetMetric::Cycles,
            analytical_prefilter: true,
        };
        let out = run_search(&space8(), &strategy, Some(&store)).unwrap();
        let pre = out.prefilter.as_ref().expect("prefilter ran");
        // 8 candidates screened analytically, 4 enter the rung ladder.
        assert_eq!((pre.evaluated, pre.survivors.len()), (8, 4));
        assert_eq!(pre.simulated, 8);
        assert_eq!(out.rungs[0].evaluated, 4);
        assert_eq!(out.rungs[1].evaluated, 2);
        // Total cycle-accurate work: 4 half-fidelity + 2 full-fidelity,
        // versus 8 + 4 without the prefilter.
        let sims: usize = out.rungs.iter().map(|r| r.simulated).sum();
        assert_eq!(sims, 6);
        assert!(!prefilter_to_text(out.prefilter.as_ref()).is_empty());
        assert!(prefilter_to_text(None).is_empty());

        // Re-run: the screening pass itself is served from the store.
        let again = run_search(&space8(), &strategy, Some(&store)).unwrap();
        let pre2 = again.prefilter.as_ref().unwrap();
        assert_eq!((pre2.simulated, pre2.cache_hits), (0, 8));
        assert_eq!(pre2.survivors, pre.survivors);
        assert!(again.rungs.iter().all(|r| r.simulated == 0));
        assert_eq!(again.report.points.len(), out.report.points.len());
        std::fs::remove_file(&store).ok();
    }

    #[test]
    fn prefilter_keys_never_collide_with_cycle_keys() {
        let strategy = SearchStrategy::SuccessiveHalving {
            eta: 2,
            rungs: 1,
            budget_metric: BudgetMetric::Cycles,
            analytical_prefilter: true,
        };
        let out = run_search(&space8(), &strategy, None).unwrap();
        let screen: std::collections::BTreeSet<u64> = out
            .prefilter
            .as_ref()
            .unwrap()
            .survivors
            .iter()
            .copied()
            .collect();
        for p in &out.report.points {
            assert!(!screen.contains(&p.point().key));
            assert_eq!(p.point().backend, "cycle");
        }
    }

    #[test]
    fn rung_text_renders_every_rung() {
        let out = run_search(&space8(), &halving(2, 2), None).unwrap();
        let text = rungs_to_text(&out.rungs, BudgetMetric::Cycles);
        assert!(text.contains("rung 0"));
        assert!(text.contains("rung 1"));
        assert!(text.contains("metric: cycles"));
    }
}
