//! # hygcn-mem
//!
//! Off-chip and on-chip memory substrate for the HyGCN (HPCA 2020)
//! reproduction — the stand-in for the Ramulator + HBM 1.0 stack the paper
//! integrates with its microarchitectural simulator (§5.1).
//!
//! * [`hbm`] — a cycle-level banked-DRAM timing model: 8 channels,
//!   per-bank open rows, row activate/precharge penalties, 32 B bursts,
//!   256 GB/s peak. Row-buffer locality and channel-/bank-level
//!   parallelism — the two effects the paper's memory-access coordination
//!   optimizes (Fig. 9/17) — fall out of the model rather than being
//!   assumed. The stack decomposes into independent per-channel
//!   [`hbm::ChannelTimeline`] state machines: a batch is partitioned
//!   channel-major, each channel drains its queue, and the merge (max of
//!   completions, sum of counters) is order-independent. See the [`hbm`]
//!   module docs for the merge invariant.
//! * [`address`] — physical address mapping schemes; the coordination
//!   optimization remaps "the channel and bank using low bits". Also the
//!   channel-major [`address::ChannelPartition`] that splits a request
//!   batch into per-channel row-segment queues without steady-state
//!   allocation.
//! * [`spanprog`] — precompiled span programs: at schedule build time
//!   the address decode runs once, emitting per timeline step a flat
//!   channel-major stream of `(bank, row, bursts)` tuples that
//!   [`spanprog::SpanReplayer`] replays with SoA per-channel registers
//!   — bit-identical to the staged [`hbm::Hbm`] drain under **both**
//!   controller policies (native FR-FCFS windowed row-hit promotion
//!   ports verbatim to the per-channel tuple runs). Programs depend
//!   only on the request stream and decode geometry, so one program
//!   serves a whole timing/controller sweep; the simulator caches them
//!   on the graph keyed by canonical config + model kind + feature
//!   length. See the [`spanprog`] module docs for the build/replay
//!   contract.
//! * [`scheduler`] — request-batch ordering: FCFS (the uncoordinated
//!   baseline of Fig. 9(a)) vs the priority order
//!   `edges > input features > weights > output features` of Fig. 9(b),
//!   drained batch-by-batch.
//! * [`buffer`] — on-chip eDRAM buffer accounting (Edge, Input, Weight,
//!   Output, and the ping-pong Aggregation Buffer).
//! * [`energy`] — HBM energy at 7 pJ/bit (paper §5.1) and eDRAM access
//!   energy constants.
//! * [`stats`] — traffic, row-hit, and bandwidth-utilization counters.
//!
//! ## Example
//!
//! ```
//! use hygcn_mem::hbm::{Hbm, HbmConfig};
//! use hygcn_mem::request::{MemRequest, RequestKind};
//!
//! let mut hbm = Hbm::new(HbmConfig::hbm1());
//! let done = hbm.access(&MemRequest::read(RequestKind::InputFeatures, 0, 128), 0);
//! assert!(done > 0);
//! assert_eq!(hbm.stats().bytes_read, 128);
//! ```

pub mod address;
pub mod buffer;
pub mod cast;
pub mod energy;
pub mod hbm;
pub mod request;
pub mod scheduler;
pub mod spanprog;
pub mod stats;

pub use address::{ChannelPartition, Segment};
pub use hbm::{ChannelTimeline, Hbm, HbmConfig};
pub use request::{MemRequest, RequestArena, RequestKind, RequestSpan, RequestSummary};
pub use spanprog::{SpanProgram, SpanProgramBuilder, SpanReplayer};
pub use stats::{ChannelStats, HbmStats, MemStats};
