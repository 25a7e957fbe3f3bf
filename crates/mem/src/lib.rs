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
//!   assumed. [`hbm::Hbm`] is the seed's walk: each batch's row-aligned
//!   segments queue per channel in arrival order and drain under one
//!   FR-FCFS window (in-order service is window 1). It is the reference
//!   the span-program replay is checked against, and the memory model of
//!   the seed simulator.
//! * [`address`] — physical address mapping schemes; the coordination
//!   optimization remaps "the channel and bank using low bits".
//! * [`spanprog`] — precompiled span programs: at schedule build time
//!   the address decode runs once, emitting per timeline step a flat
//!   channel-major stream of `(bank, row, bursts)` tuples that
//!   [`spanprog::SpanReplayer`] replays with SoA per-channel registers
//!   — bit-identical to [`hbm::Hbm::service_batch`] under **both**
//!   controller policies. FR-FCFS's windowed row-hit promotion runs
//!   once per program and window: to `None` when it keeps arrival order
//!   (every timing then replays program order, as in order), else into
//!   a [`spanprog::SpanSchedule`] (the service order of the few cells it
//!   reorders; every other cell replays in program order), which every
//!   timing replays as a straight-line recurrence. Programs
//!   depend only on the request
//!   stream and decode geometry, so one program serves a whole
//!   timing/controller sweep; the simulator caches programs and
//!   schedules on the graph. See the [`spanprog`] module docs for the
//!   build/replay contract.
//! * [`scheduler`] — request-batch ordering: FCFS (the uncoordinated
//!   baseline of Fig. 9(a)) vs the priority order
//!   `edges > input features > weights > output features` of Fig. 9(b),
//!   drained batch-by-batch.
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
//! let cfg = HbmConfig::hbm1();
//! // The coordinated mapping deals consecutive 2 KB pages over the
//! // channels: (channel, bank, row).
//! assert_eq!(cfg.locate(0), (0, 0, 0));
//! assert_eq!(cfg.locate(2048), (1, 0, 0));
//! let mut hbm = Hbm::new(cfg);
//! let done = hbm.access(&MemRequest::read(RequestKind::InputFeatures, 0, 128), 0);
//! // One row miss: the activate, four 32 B bursts, then the CAS latency.
//! assert_eq!(done, cfg.t_row + 4 * cfg.t_burst + cfg.t_cas);
//! assert_eq!(hbm.stats().bytes_read, 128);
//! ```

pub mod address;
pub mod cast;
pub mod energy;
pub mod hbm;
pub mod request;
pub mod scheduler;
pub mod spanprog;
pub mod stats;

pub use hbm::{Hbm, HbmConfig};
pub use request::{MemRequest, RequestArena, RequestKind, RequestSpan, RequestSummary};
pub use spanprog::{SpanProgram, SpanProgramBuilder, SpanReplayer, SpanSchedule, MAX_LANES};
pub use stats::{ChannelStats, HbmStats, MemStats};
