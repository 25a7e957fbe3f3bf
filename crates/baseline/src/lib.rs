//! # hygcn-baseline
//!
//! Platform baselines for the HyGCN (HPCA 2020) reproduction: operational
//! models of PyTorch Geometric on the paper's Intel Xeon E5-2680 v3 pair
//! ("PyG-CPU") and NVIDIA V100 ("PyG-GPU"), plus the cache-hierarchy
//! characterization behind Fig. 2 and Table 2.
//!
//! ## Modeling approach
//!
//! The paper measures real hardware; we substitute *mechanistic
//! performance models* driven by the exact workload descriptors of
//! [`hygcn_gcn::workload::LayerWorkload`]:
//!
//! * **CPU** ([`cpu`]) — PyG executes coarse-grained operators: the
//!   Aggregation phase materializes per-edge gathered features and
//!   scatter-reduces them with poor locality (latency-bound random
//!   accumulates), while the Combination phase runs dense GEMM through
//!   MKL at high throughput but pays the measured 36% inter-thread
//!   synchronization overhead (Table 2). Constants are calibrated once,
//!   globally (not per experiment), against the paper's Fig. 2 phase
//!   breakdown and Table 2 traffic ratios.
//! * **GPU** ([`gpu`]) — a roofline model of the V100 (5120 cores @
//!   1.25 GHz, ~900 GB/s HBM2) with an efficiency derating for the
//!   irregular gather/scatter of Aggregation and per-operator launch
//!   overheads.
//! * **Cache simulator** ([`cache`]) — a real set-associative L1/L2/L3
//!   LRU hierarchy, run over the actual aggregation access trace
//!   ([`trace`]) to measure the MPKI and DRAM-bytes-per-op of Table 2.
//! * **Stride prefetcher** ([`prefetch`]) — quantifies §3.1's claim that
//!   hardware prefetching covers the regular Combination walk but is
//!   ineffective on Aggregation's indirect gathers.
//!
//! Every model returns a [`report::PlatformReport`];
//! [`backend::PlatformBackend`] serves each platform variant as a
//! campaign backend (`cpu`, `gpu`, `cpu-naive`, `gpu-sharded`), and
//! [`backend::CpuTraceBackend`] serves the Table 2 characterization as
//! `cpu-trace` and [`backend::ExecPatternBackend`] the Table 3 one
//! ([`pattern`]) as `exec-pattern`, so the figure harness reads platform
//! numbers from the store like any other design point.

pub mod backend;
pub mod cache;
pub mod characterize;
pub mod cpu;
pub mod gpu;
pub mod params;
pub mod pattern;
pub mod prefetch;
pub mod report;
pub mod trace;

pub use backend::PlatformBackend;
pub use cpu::CpuModel;
pub use gpu::GpuModel;
pub use report::{PhaseBreakdown, PlatformReport};
