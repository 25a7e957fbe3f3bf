//! # hygcn-gcn
//!
//! GCN model zoo and functional (golden-model) executor for the HyGCN
//! (HPCA 2020) reproduction.
//!
//! The paper evaluates four models (Table 5):
//!
//! | Model | Sampling | Aggregate | Combine (MLP) |
//! |-------|----------|-----------|----------------|
//! | GCN        | —  | Add (1/√DvDu normalized) | len–128 |
//! | GraphSage  | 25 | Max  | len–128 |
//! | GINConv    | —  | Add + (1+ε)·self | len–128–128 |
//! | DiffPool   | —  | Min ×2 (pool + embedding GCNs) | len–128 each |
//!
//! This crate provides:
//!
//! * the operator vocabulary — [`aggregate::Aggregator`],
//!   [`combine::Combine`], Pool ([`pool`]), Readout ([`readout`]);
//! * the per-model layer configurations ([`model`]);
//! * a software reference executor ([`mod@reference`]) implementing the
//!   edge- and MVM-centric programming model of Algorithm 1, used both as
//!   the correctness oracle for the accelerator simulator and as the
//!   operational model for the CPU/GPU baselines;
//! * workload descriptors ([`workload`]) that the performance models
//!   consume (op counts, bytes moved, phase ordering).
//!
//! ## Example
//!
//! ```
//! use hygcn_gcn::model::{GcnModel, ModelKind};
//! use hygcn_gcn::reference::ReferenceExecutor;
//! use hygcn_graph::GraphBuilder;
//! use hygcn_tensor::Matrix;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let graph = GraphBuilder::new(4)
//!     .feature_len(8)
//!     .undirected_edge(0, 1)?
//!     .undirected_edge(1, 2)?
//!     .undirected_edge(2, 3)?
//!     .build();
//! let model = GcnModel::new(ModelKind::Gcn, 8, 42)?;
//! let x = Matrix::random(4, 8, 1.0, 7);
//! let out = ReferenceExecutor::new().run(&graph, &x, &model)?;
//! assert_eq!(out.features.shape(), (4, 128));
//! # Ok(())
//! # }
//! ```

pub mod aggregate;
pub mod combine;
pub mod error;
pub mod model;
pub mod pool;
pub mod readout;
pub mod reference;
pub mod workload;

pub use error::GcnError;
