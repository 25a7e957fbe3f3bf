//! The two processing engines of the hybrid architecture.
//!
//! The Aggregation Engine ([`aggregation`]) absorbs the dynamic, irregular
//! phase; the Combination Engine ([`combination`]) exploits the static,
//! regular phase. Each produces per-chunk cost records (compute cycles,
//! buffer traffic, DRAM requests) that the top-level simulator
//! ([`crate::sim`]) schedules through the shared memory access handler.
//!
//! ## Request representation
//!
//! Chunk records are **allocation-free**: instead of owning a
//! `Vec<MemRequest>`, each record carries
//!
//! * a [`RequestSummary`](hygcn_mem::request::RequestSummary) — a
//!   per-[`RequestKind`](hygcn_mem::request::RequestKind) count/bytes
//!   histogram that the energy and traffic accounting reads without ever
//!   walking a request list, and
//! * a [`RequestSpan`](hygcn_mem::request::RequestSpan) — the record's
//!   slice of the simulation-wide
//!   [`RequestArena`](hygcn_mem::request::RequestArena), consulted only
//!   by the memory handler's timing walk.
//!
//! One arena allocation amortizes over every chunk of a `simulate()`
//! call.

pub mod aggregation;
pub mod combination;
