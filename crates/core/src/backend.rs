//! The [`SimBackend`] abstraction: one trait for every way of
//! evaluating a `(graph, model, config)` design point.
//!
//! The repo grew several evaluators — the cycle-accurate simulator, its
//! seed reference, the first-order analytical model, and the PyG-CPU /
//! PyG-GPU platform models in `hygcn-baseline` — but only the first was
//! reachable from the DSE campaign engine. `SimBackend` unifies them:
//! every backend consumes the same inputs and produces a comparable
//! [`SimReport`], and its [`SimBackend::backend_id`] participates in the
//! campaign cache key, so cached results from one backend are never
//! served for queries against another.
//!
//! ## Contract
//!
//! * `evaluate` is a **pure function** of `(graph, model, config)`:
//!   equal inputs produce bit-identical reports across processes and
//!   runs (the property the campaign store's resume semantics rest on).
//!   Backends must not keep mutable state across calls.
//! * `evaluate` is **total over the shared config**: every backend runs
//!   [`crate::validate::validate_inputs`] first, so it returns
//!   [`SimError::Config`] for a config [`HyGcnConfig::validate`]
//!   rejects and [`SimError::BufferTooSmall`] for a buffer below one
//!   feature row, even a backend that reads none of the offending
//!   fields (the platform and characterization models of
//!   `hygcn-baseline` ignore the HBM geometry and the buffers), so one
//!   config is never `Ok` under one backend and `Err` under another.
//! * `evaluate_lanes` is `evaluate` over a batch: entry `i` equals
//!   `evaluate(graph, model, &configs[i])`, error or report, bit for
//!   bit. The default loops over `evaluate`; `cycle` overrides it with
//!   [`Simulator::simulate_lanes`], which decodes once
//!   per decode class and replays each distinct service order and
//!   timing once, as a lane of a shared pass. The campaign executor
//!   hands every backend its points this way, grouped by
//!   [`HyGcnConfig::decode_class`] and split into groups of at most
//!   [`hygcn_mem::MAX_LANES`] HBM timings.
//! * `backend_id` is a **stable, lowercase token** (`"cycle"`, `"seed"`,
//!   `"analytical"`, `"cpu"`, `"gpu"`). It is hashed into every
//!   persisted cache key (the `"cycle"` id is elided for backward
//!   compatibility with stores written before the backend abstraction —
//!   see `hygcn_dse::space::cache_key`), so changing an id invalidates
//!   that backend's cached campaigns.
//! * Fields a backend does not model are **zeroed, never invented**, and
//!   [`SimReport::provenance`] carries the backend id for every backend
//!   other than the two golden cycle paths, `cycle` and `seed` (whose
//!   serialized form predates the marker and is pinned by golden
//!   snapshots).
//!
//! ## Which backend to use
//!
//! | id           | models                                   | cost per point | use for |
//! |--------------|------------------------------------------|----------------|---------|
//! | `cycle`      | execution-driven, span-program HBM replay ([`crate::sim`]) | ms | results |
//! | `seed`       | the seed implementation (oracle)         | ms (slower)    | differential testing |
//! | `analytical` | O(chunks) roofline ([`crate::analytical`]) | µs           | campaign screening |
//! | `cpu`, `gpu`, `cpu-naive`, `gpu-sharded` | PyG platform models (`hygcn-baseline`) | µs | speedup/energy baselines |
//! | `cpu-trace`  | trace-driven Xeon cache characterization (`hygcn-baseline`); ignores the config, sampling override included | ~0.1 s | Table 2's named per-op metrics |

use hygcn_gcn::model::GcnModel;
use hygcn_graph::Graph;

use crate::config::HyGcnConfig;
use crate::error::SimError;
use crate::report::SimReport;
use crate::sim::Simulator;

/// One way of evaluating a design point. See the module docs for the
/// purity and id-stability contract.
pub trait SimBackend: Send + Sync + std::fmt::Debug {
    /// Stable identifier, hashed into the DSE campaign cache key.
    fn backend_id(&self) -> &'static str;

    /// Evaluates one layer of `model` over `graph` under `config`.
    ///
    /// # Errors
    ///
    /// [`SimError`] when the inputs are inconsistent (feature-length
    /// mismatch, a buffer too small for one feature vector, an invalid
    /// configuration).
    fn evaluate(
        &self,
        graph: &Graph,
        model: &GcnModel,
        config: &HyGcnConfig,
    ) -> Result<SimReport, SimError>;

    /// Evaluates one layer of `model` over `graph` under each of
    /// `configs`; entry `i` is exactly
    /// `self.evaluate(graph, model, &configs[i])`.
    fn evaluate_lanes(
        &self,
        graph: &Graph,
        model: &GcnModel,
        configs: &[HyGcnConfig],
    ) -> Vec<Result<SimReport, SimError>> {
        configs
            .iter()
            .map(|config| self.evaluate(graph, model, config))
            .collect()
    }
}

/// The cycle-accurate, execution-driven simulator —
/// [`Simulator::simulate`] behind the trait, and
/// [`Simulator::simulate_lanes`] for a lane batch. The default backend;
/// its reports carry no provenance marker (they *are* the golden form).
#[derive(Debug, Clone, Copy, Default)]
pub struct CycleAccurateBackend;

impl SimBackend for CycleAccurateBackend {
    fn backend_id(&self) -> &'static str {
        "cycle"
    }

    fn evaluate(
        &self,
        graph: &Graph,
        model: &GcnModel,
        config: &HyGcnConfig,
    ) -> Result<SimReport, SimError> {
        hygcn_obs::observe_eval(self.backend_id(), || {
            Simulator::new(config.clone()).simulate(graph, model)
        })
    }

    fn evaluate_lanes(
        &self,
        graph: &Graph,
        model: &GcnModel,
        configs: &[HyGcnConfig],
    ) -> Vec<Result<SimReport, SimError>> {
        hygcn_obs::observe_evals(self.backend_id(), configs.len(), || {
            Simulator::simulate_lanes(graph, model, configs)
        })
    }
}

/// The seed implementation kept as a differential oracle —
/// [`Simulator::simulate_reference`] behind the trait. Bit-identical to
/// [`CycleAccurateBackend`] by the oracle suite, so it also
/// carries no provenance marker; cached separately (id `"seed"`) because
/// a *future* divergence must surface as a re-simulation, not a stale
/// cache hit.
#[derive(Debug, Clone, Copy, Default)]
pub struct SeedReferenceBackend;

impl SimBackend for SeedReferenceBackend {
    fn backend_id(&self) -> &'static str {
        "seed"
    }

    fn evaluate(
        &self,
        graph: &Graph,
        model: &GcnModel,
        config: &HyGcnConfig,
    ) -> Result<SimReport, SimError> {
        hygcn_obs::observe_eval(self.backend_id(), || {
            Simulator::new(config.clone()).simulate_reference(graph, model)
        })
    }
}

/// Resolves a backend id to one of the backends *this crate* provides
/// (`cycle`, `seed`, `analytical`). The platform backends
/// (`cpu`, `gpu`, `cpu-naive`, `gpu-sharded`) live in `hygcn-baseline`;
/// `hygcn_baseline::backend::resolve` covers the full vocabulary.
pub fn core_backend(id: &str) -> Option<std::sync::Arc<dyn SimBackend>> {
    match id {
        "cycle" => Some(std::sync::Arc::new(CycleAccurateBackend)),
        "seed" => Some(std::sync::Arc::new(SeedReferenceBackend)),
        "analytical" => Some(std::sync::Arc::new(crate::analytical::AnalyticalBackend)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hygcn_gcn::model::ModelKind;
    use hygcn_graph::generator::preferential_attachment;

    fn workload() -> (Graph, GcnModel) {
        let g = preferential_attachment(512, 4, 1)
            .unwrap()
            .with_feature_len(64);
        let m = GcnModel::new(ModelKind::Gcn, 64, 7).unwrap();
        (g, m)
    }

    #[test]
    fn cycle_backend_matches_direct_simulate() {
        let (g, m) = workload();
        let cfg = HyGcnConfig::default();
        let via_backend = CycleAccurateBackend.evaluate(&g, &m, &cfg).unwrap();
        let direct = Simulator::new(cfg).simulate(&g, &m).unwrap();
        assert_eq!(via_backend, direct);
        assert_eq!(via_backend.provenance, "");
    }

    #[test]
    fn seed_backend_matches_cycle_backend() {
        let (g, m) = workload();
        let cfg = HyGcnConfig::default();
        let seed = SeedReferenceBackend.evaluate(&g, &m, &cfg).unwrap();
        let cycle = CycleAccurateBackend.evaluate(&g, &m, &cfg).unwrap();
        assert_eq!(seed, cycle, "oracle contract: bit-identical reports");
    }

    #[test]
    fn core_resolver_knows_its_backends() {
        for id in ["cycle", "seed", "analytical"] {
            let b = core_backend(id).unwrap_or_else(|| panic!("{id} must resolve"));
            assert_eq!(b.backend_id(), id);
        }
        assert!(core_backend("cpu").is_none());
        assert!(core_backend("bogus").is_none());
        assert!(core_backend("cycle-fast").is_none());
    }

    #[test]
    fn backend_errors_mirror_the_simulator() {
        let (g, _) = workload();
        let wrong = GcnModel::new(ModelKind::Gcn, 32, 7).unwrap();
        for backend in [
            &CycleAccurateBackend as &dyn SimBackend,
            &SeedReferenceBackend,
        ] {
            assert!(matches!(
                backend.evaluate(&g, &wrong, &HyGcnConfig::default()),
                Err(SimError::Gcn(_))
            ));
        }
    }
}
