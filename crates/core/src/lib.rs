//! # hygcn-core
//!
//! The HyGCN accelerator simulator — the primary contribution of
//! *HyGCN: A GCN Accelerator with Hybrid Architecture* (HPCA 2020),
//! reproduced as a cycle-level, execution-driven model.
//!
//! ## Architecture (paper Fig. 3)
//!
//! ```text
//!        ┌────────────────────────┐   ┌──────────────────────────────┐
//!        │   Aggregation Engine   │   │      Combination Engine      │
//!        │  eSched · Sampler      │ C │  vSched · Weight Buffer      │
//!        │  Sparsity Eliminator   │ o │  8 systolic modules (4x128)  │
//!        │  32 x SIMD16 cores     │ o │  Activate Unit               │
//!        │  Edge/Input Buffers    │ r │  Output Buffer               │
//!        │  Aggregation Buffer <──┼─d─┼──> (ping-pong)               │
//!        └───────────┬────────────┘   └──────────────┬───────────────┘
//!                    └───────── Memory Access Handler┴──── HBM 256 GB/s
//! ```
//!
//! * [`engine::aggregation`] — edge-centric gather execution with
//!   interval–shard scheduling, window sliding/shrinking sparsity
//!   elimination, runtime neighbor sampling, and the vertex-disperse /
//!   vertex-concentrated SIMD modes of Fig. 4.
//! * [`engine::combination`] — multi-granular systolic modules (Fig. 6/7)
//!   in independent (latency-optimal) or cooperative (energy-optimal)
//!   working modes.
//! * [`coordinator`] — the ping-pong Aggregation Buffer and the latency- /
//!   energy-aware inter-engine pipelines of Fig. 8, plus the no-pipeline
//!   ablation (intermediate results spill to DRAM).
//! * [`sim`] — the execution-driven top level: drives both engines chunk
//!   by chunk through the shared memory access handler (priority
//!   coordination + a replayed [`hygcn_mem::SpanProgram`]) and produces
//!   a [`report::SimReport`].
//! * [`energy`] — dynamic energy and the Table 7 area/power model.
//! * [`functional`] — bit-level functional execution on the Q16.16
//!   fixed-point datapath, validated against the `hygcn-gcn` golden model.
//!
//! ## Example
//!
//! ```
//! use hygcn_core::config::HyGcnConfig;
//! use hygcn_core::sim::Simulator;
//! use hygcn_gcn::model::{GcnModel, ModelKind};
//! use hygcn_graph::generator::preferential_attachment;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let graph = preferential_attachment(256, 4, 1)?.with_feature_len(64);
//! let model = GcnModel::new(ModelKind::Gcn, 64, 7)?;
//! let report = Simulator::new(HyGcnConfig::default()).simulate(&graph, &model)?;
//! assert!(report.cycles > 0);
//! # Ok(())
//! # }
//! ```

pub mod analytical;
pub mod backend;
pub mod config;
pub mod coordinator;
pub mod energy;
pub mod engine;
pub mod error;
pub mod functional;
pub mod layout;
pub mod report;
pub mod schedule;
pub mod sim;
pub mod sim_reference;
pub mod stack;
pub mod timeline;
pub mod training;
pub mod validate;

pub use analytical::AnalyticalBackend;
pub use backend::{core_backend, CycleAccurateBackend, SeedReferenceBackend, SimBackend};
pub use config::HyGcnConfig;
pub use error::SimError;
pub use report::SimReport;
pub use sim::Simulator;
