//! Precompiled span programs: decode-once, replay-many HBM streams.
//!
//! The per-request work of the HBM walk ([`crate::hbm::Hbm`]) splits
//! into three parts: *decoding* (row-aligned splitting plus
//! channel/bank/row extraction),
//! *ordering* (the controller's service order) and *timing* (each
//! span's row hit or miss, then advancing bank/bus state). Decoding is a pure
//! function of the request stream and the address geometry — for a fixed
//! `(graph, config, model)` design point the stream never changes — so
//! [`SpanProgramBuilder`] runs it exactly once per distinct request
//! block, emitting channel-major runs of [`SpanTuple`]s that every
//! timeline step holding the block shares. Ordering
//! depends on the program and the controller alone, never on timing, so
//! [`SpanProgram::schedule`] runs FR-FCFS once per lookahead window: to
//! `None` when it serves every span in arrival order (HyGCN's
//! coordinated, row-sequential batches leave it almost nothing to
//! promote), else to a [`SpanSchedule`] of the few cells it reorders.
//! [`SpanReplayer`] then replays each cell in program order or in the
//! schedule's order with SoA per-channel registers (bank-ready array,
//! bus-cycle array packed for sequential access): a row compare and a
//! straight-line max-plus recurrence with no decode and no queue. One
//! replayer carries `L` *timing lanes* (1 to [`MAX_LANES`]): it reads
//! each span once, makes its row compare once and runs the recurrence
//! once per lane, so a timing sweep pays the program's memory traffic
//! once per `L` timings.
//!
//! ## Layout and decode
//!
//! A [`SpanTuple`] is 8 bytes: a `u32` row, a `u16` bank and a `u16`
//! burst count. The narrowing is checked, never a truncation:
//! [`HbmConfig::validate`] admits at most [`HbmConfig::MAX_BANKS`]
//! (2^16) banks and [`HbmConfig::MAX_BURSTS_PER_ROW`] (2^15) bursts per
//! row, and [`SpanProgramBuilder::push_step`] returns an error for a
//! row at or above 2^32 - 1 (`NO_ROW`, the replay's closed-bank
//! sentinel), which the simulator's input validation rules out for
//! every workload it accepts. The open-row state of the ordering pass
//! and the replay is `u32` alike.
//!
//! A step's batch splits into *blocks*, the maximal runs of one request
//! kind in service order: under priority batching one block per kind
//! the step carries (edges, input features, weights, outputs), under
//! FCFS each run of one kind in the row-granular interleave. The
//! program's *pool* holds each distinct block once, as one run per
//! channel (a *segment*); a `(step, channel)` *cell* is its step's
//! segments in block order, and its *program positions* are the running
//! sum of the cells' lengths. A block is identified by its exact request
//! list (kind, address, bytes, direction) in a sorted table, its hash
//! only a shortcut to the candidates, so a block that repeats an
//! earlier one (a window sweep every chunk reads again, a weight block
//! every chunk reloads) is decoded and stored once and referenced by
//! every later cell.
//!
//! Each program decodes into one exact-size pool. The caller plans
//! every step first ([`SpanProgramBuilder::plan_step`] finds the blocks
//! as the push will and sums the spans of the distinct ones in closed
//! form), then [`SpanProgramBuilder::reserve`]s once; each new block
//! then counts its spans per channel in closed form, places one write
//! cursor per channel, and writes every span straight to its channel's
//! cursor. Nothing is staged, appended or reallocated. A builder that
//! is not planned still works, growing as it goes.
//!
//! ## Build/replay contract
//!
//! One [`SpanProgramBuilder::push_step`] call per timeline step, fed the
//! *scheduler-ordered* batch [`crate::hbm::Hbm::service_batch`] would
//! service; one [`SpanReplayer::replay_step`] call per step, with each
//! lane's arrival cycle. Every lane is bit-identical to
//! [`crate::hbm::Hbm::service_batch`] under its own timing on the same
//! batches at its own arrivals — completion cycles, [`MemStats`], and
//! per-channel [`ChannelStats`] — for **both** controller policies, and
//! so equal to a one-lane replay of that timing. The reference walk
//! queues a batch's row-aligned segments per channel in arrival order
//! and drains each channel's queue alone, so a channel's tuple run is
//! exactly that queue: the same row-aligned split, a decode equal to
//! [`HbmConfig::locate`]'s, arrival order preserved per channel.
//!
//! * **In-order:** the replay reads each cell's segments in order and
//!   makes the walk's row compare as it goes, once for every lane:
//!   which row a span opens depends on no timing. A shared block's
//!   segment may replay from its summary instead (below).
//! * **FR-FCFS:** the walk's windowed row-hit promotion consults only
//!   `(bank, row)` state the tuples carry. [`SpanProgram::schedule`]
//!   makes the walk's picks — oldest row hit in the window, else the
//!   oldest tuple — carrying each bank's open row across steps as the
//!   walk does. Each `(step, channel)` cell first takes an *identity
//!   pass* that only tracks the youngest pending hit (`ArrivalOrder`):
//!   while every pick is the head, the head is picked unless it misses
//!   with a hit pending. A cell that fails it restores its channel's
//!   open rows and is ordered by a plain window queue shaped like the
//!   walk's drain (`frfcfs_order`) over its segments copied back to
//!   back. If every cell passes, the result is `None`: the FR-FCFS
//!   replay *is* the program-order replay above, bit for bit. Otherwise
//!   the schedule holds only the rejected cells, each as its spans'
//!   indexes into the cell's run in service order. The replay walks a
//!   reordered cell's indexes over its copied run with the same row
//!   compare as program order, and replays every other cell in program
//!   order, summaries included.
//!
//! **Identity by certificate.** With a window of `W`, the pending spans
//! at head `h` are the `W - 1` behind it, and the open rows are the ones
//! the in-order spans before `h` left. So a head's verdict reads no span
//! `W` or more positions away, except through those rows, and the
//! identity pass (`IdentityPass`) judges the interior of a repeated
//! block once per call. A segment of a block the program references
//! more than once, at least `W` spans long, reads a *certificate*,
//! built the first time the call meets that segment: its verdict from
//! closed banks; its *sensitive* `(bank, row)` pairs, each bank's spans
//! fewer than `W` positions after that bank's first use in the segment,
//! the only spans the walk compares with a row the segment did not
//! open; and its open rows `W - 1` spans before its end. When no
//! sensitive pair is open at the segment's start, every such compare
//! fails as it does on a closed bank, so the segment takes the
//! certificate's verdict without a walk. Every other span is walked:
//! the segments between two certified ones (or a cell's ends) make one
//! run, which reaches `W - 1` spans into each certified neighbour (its
//! *seams*), so the heads before a certified segment see the spans
//! pending across its start, and its last heads the spans after its
//! end. A walk that starts at a seam starts from the certificate's
//! rows. An unshared segment, a shorter one, and one whose start rows
//! hold a sensitive pair (a *dirty* start, say a block carried from one
//! step into the next) are walked, so a cell without a certified
//! segment is one walk, over its one segment in place or its segments
//! copied back to back. The walk's table of youngest arrivals is never
//! cleared, and it needs no positions unique to the call: every head
//! arrived under its own slot earlier in the same walk, so the slot it
//! reads holds an index of that walk, whatever earlier walks left.
//!
//! Both paths share one service step, the timing half of the walk's,
//! run per lane `l`:
//! `ready = max(bank_ready[l], now[l]) + miss·t_row[l]`, then
//! `bus[l] = max(ready, bus[l]) + bursts·t_burst[l]`. The lanes share no
//! timing state, so their chains are independent. Every span moves at
//! least one burst, so a bus only advances and a channel completes at
//! its last `bus[l] + t_cas[l]`; [`HbmConfig::validate`]'s timing bound
//! keeps every such sum far from overflow. A lane's batch completion is
//! the max over channels (never before its arrival cycle) and
//! statistics fold by summation.
//!
//! **Replay summaries.** `bank_ready` is always a past bus value and
//! the bus never falls, and after a cell's first span the bus is at or
//! past `now`. So, inside a segment, two kinds of span can never bind
//! the bus: a row hit, and a row miss whose bank the segment used
//! before with at least `ceil(t_row / t_burst)` bursts in between
//! (`bank_ready + t_row` is then no later than the bus). Such a span
//! only adds `bursts·t_burst`. For each block the program references
//! more than once, [`SpanProgramBuilder::finish`] records per channel
//! a summary: the spans to service exactly (each bank's first use in
//! the segment, whose row compare reads the carried open row, and its
//! last use, which leaves the bank's ready cycle and open row; the
//! segment's last span is one of them), the bursts between them, the
//! misses of the banks' later uses, the total bursts, and the fewest
//! bursts `G` between such a miss and its bank's previous use. A
//! program-order replay whose
//! every lane has `t_row <= t_burst·G` services the marks only and
//! advances the bus by the burst sums between them; otherwise the
//! segment replays span by span. Either way every lane's completion,
//! bank and bus state and statistics are the span-by-span replay's.
//!
//! **Merge invariant:** within a batch every span arrives at the same
//! cycle and reads or writes only its own channel's bank, bus and
//! counter state, so serving the channels in *any* order (the seed's
//! serial pass over the interleaved stream, the walk's channel by
//! channel drain, or this program's channel-major layout) yields the
//! same per-channel timelines; the batch completion (a max) and the
//! statistics (sums) are order-independent too. The lanes must share the decode geometry
//! ([`SpanReplayer::new`] rejects a lane that does not) and the service
//! order: the `schedule` argument alone, not a lane's controller, is the
//! order, so an in-order lane and an FR-FCFS lane whose schedule is
//! `None` replay together.
//!
//! ## Caching
//!
//! A program depends only on the request stream and the *decode*
//! geometry (mapping, channels, banks, row/burst bytes) — not on timing
//! parameters or the controller policy, which bind later. The simulator
//! memoizes programs on the `Graph` keyed by model kind, feature length
//! and the config's decode class (the config with the clock, timeline
//! recording, HBM timing and controller reset), so one program serves a
//! whole timing/controller sweep; [`SpanProgram::matches`] states the
//! geometry half of that contract. An FR-FCFS schedule depends on the
//! program and the lookahead window, so the simulator memoizes the
//! `Option` under the model kind, feature length and the config's
//! replay class (the decode class with the controller kept): a sweep
//! orders each program once per window, a window that keeps arrival
//! order stores `None`, and a schedule stores only the cells it
//! reorders. The simulator then replays each
//! distinct (service order, timing) of a decode class once, `MAX_LANES`
//! timings per pass, so the in-order and arrival-keeping FR-FCFS points
//! of one timing share a lane. Within a program, each distinct request
//! block is decoded, stored and summarized once, a shared block's
//! segment replays in program order from its summary, and an FR-FCFS
//! ordering pass judges it from its certificate, so a sparsity-off
//! sweep that reads the same source windows every chunk pays for them
//! once per program (and once per window), not once per chunk.

use std::collections::{BTreeSet, VecDeque};
use std::ops::Range;

use crate::address::MappingScheme;
use crate::cast::{idx, saturating_usize, widen_u64};
use crate::hbm::HbmConfig;
use crate::request::MemRequest;
use crate::stats::{ChannelStats, HbmStats, MemStats};

/// Sentinel for "no row open" (`hbm::NO_ROW` narrowed to a span's row
/// width): [`SpanProgramBuilder::push_step`] rejects a row at or above
/// it, so no decoded row ever reads as closed.
const NO_ROW: u32 = u32::MAX;

/// The summary slot of a block the program references once: it replays
/// span by span and keeps no summary.
const UNSHARED: usize = usize::MAX;

/// One precompiled same-(channel, bank, row) burst run. The channel is
/// implied by which per-channel run of the [`SpanProgram`] the tuple
/// sits in; 8 bytes so a step's run streams through cache linearly.
/// Every field holds its value exactly: [`HbmConfig::validate`] bounds
/// the banks and the bursts per row, and
/// [`SpanProgramBuilder::push_step`] rejects a row that does not fit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTuple {
    /// Row index within the bank, below 2^32 - 1 (the closed-bank
    /// sentinel).
    pub row: u32,
    /// Bank index within the channel (at most
    /// [`HbmConfig::MAX_BANKS`] banks).
    pub bank: u16,
    /// Burst count of the run (`ceil(bytes / burst_bytes)`, at most
    /// [`HbmConfig::MAX_BURSTS_PER_ROW`]).
    pub bursts: u16,
}

const _: () = assert!(std::mem::size_of::<SpanTuple>() == 8);

/// Request-level traffic of one timeline step, folded into the
/// replayer's [`MemStats`] on replay (the counters
/// [`crate::hbm::Hbm::service_batch`] accumulates while it queues the
/// batch).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepTraffic {
    /// Requests in the step's batch.
    pub requests: u64,
    /// Bytes read by the batch.
    pub bytes_read: u64,
    /// Bytes written by the batch.
    pub bytes_written: u64,
}

/// The decoded HBM stream of one design point. Each step's batch is a
/// sequence of request blocks; the pool holds each distinct block's
/// channel runs (its segments) once, and a `(step, channel)` cell is its
/// step's segments in block order. Per step, it also keeps the
/// request-level traffic. Built once by [`SpanProgramBuilder`], replayed
/// any number of times by [`SpanReplayer`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanProgram {
    mapping: MappingScheme,
    channels: usize,
    banks: usize,
    row_bytes: u64,
    burst_bytes: u64,
    /// `offsets[step * channels + c]..offsets[step * channels + c + 1]`
    /// are cell `(step, c)`'s program positions: the running sum of the
    /// cells' lengths, each step's copy of a shared block counted.
    offsets: Vec<usize>,
    /// `step_bounds[s]..step_bounds[s + 1]` bounds step `s`'s blocks in
    /// `step_blocks`.
    step_bounds: Vec<usize>,
    /// Every step's blocks in service order, as pool block indexes.
    step_blocks: Vec<usize>,
    /// `segments[b * channels + c]..segments[b * channels + c + 1]`
    /// bounds block `b`'s run in channel `c` in `pool`.
    segments: Vec<usize>,
    /// Each distinct block's channel runs, channel-major, blocks in
    /// order of first appearance.
    pool: Vec<SpanTuple>,
    /// Per block, the index of its channel 0 [`Summary`] (the other
    /// channels' follow), or [`UNSHARED`].
    summary_of: Vec<usize>,
    summaries: Vec<Summary>,
    /// The spans the summaries evaluate, each summary's in run order.
    marks: Vec<Mark>,
    traffic: Vec<StepTraffic>,
}

impl SpanProgram {
    /// Number of timeline steps the program was built over.
    pub fn steps(&self) -> usize {
        self.traffic.len()
    }

    /// Number of channels the program decodes into.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// The program's spans in program order, every step's copy of a
    /// shared block counted.
    pub fn total_tuples(&self) -> usize {
        self.offsets.last().copied().unwrap_or(0)
    }

    /// The spans the pool holds: each distinct block's once.
    pub fn pool_tuples(&self) -> usize {
        self.pool.len()
    }

    /// Whether `config` has the decode geometry this program was built
    /// for. Timing parameters and the controller policy bind at replay
    /// time, so a program is shared across them.
    pub fn matches(&self, config: &HbmConfig) -> bool {
        self.mapping == config.mapping
            && self.channels == config.channels
            && self.banks == config.banks
            && self.row_bytes == config.row_bytes
            && self.burst_bytes == config.burst_bytes
    }

    /// The program positions of `(step, channel)` cell `cell`.
    #[inline]
    fn cell(&self, cell: usize) -> Range<usize> {
        self.offsets[cell]..self.offsets[cell + 1]
    }

    /// Step `step`'s blocks in service order.
    #[inline]
    fn blocks(&self, step: usize) -> &[usize] {
        &self.step_blocks[self.step_bounds[step]..self.step_bounds[step + 1]]
    }

    /// Block `block`'s run in channel `c`.
    #[inline]
    fn segment(&self, block: usize, c: usize) -> &[SpanTuple] {
        let s = block * self.channels + c;
        &self.pool[self.segments[s]..self.segments[s + 1]]
    }

    /// The index of block `block`'s channel `c` [`Summary`] (and of its
    /// FR-FCFS certificate), when the program references the block more
    /// than once.
    #[inline]
    fn shared(&self, block: usize, c: usize) -> Option<usize> {
        match self.summary_of[block] {
            UNSHARED => None,
            first => Some(first + c),
        }
    }

    /// Block `block`'s replay summary in channel `c`, when the program
    /// references the block more than once.
    #[inline]
    fn summary(&self, block: usize, c: usize) -> Option<&Summary> {
        self.shared(block, c).map(|s| &self.summaries[s])
    }

    /// Cell `(step, channel)`'s run in program order: its one nonempty
    /// segment, or its segments copied back to back into `scratch`.
    pub fn cell_run<'a>(
        &'a self,
        step: usize,
        channel: usize,
        scratch: &'a mut Vec<SpanTuple>,
    ) -> &'a [SpanTuple] {
        let mut segments = self
            .blocks(step)
            .iter()
            .map(|&b| self.segment(b, channel))
            .filter(|s| !s.is_empty());
        let (Some(first), second) = (segments.next(), segments.next()) else {
            return &[];
        };
        let Some(second) = second else {
            return first;
        };
        scratch.clear();
        scratch.extend_from_slice(first);
        scratch.extend_from_slice(second);
        for segment in segments {
            scratch.extend_from_slice(segment);
        }
        scratch
    }

    /// The FR-FCFS service order of the whole program under a
    /// `window`-deep lookahead (0 acts as 1), or `None` when every pick
    /// is the oldest pending span, so that the in-order replay is the
    /// FR-FCFS replay, bit for bit. One pass over the steps carries each
    /// bank's open row from step to step, as replay does. The order
    /// depends on no timing parameter, so one result serves every
    /// timing the program is replayed under.
    ///
    /// Each `(step, channel)` cell first takes the identity pass
    /// (`IdentityPass`): a segment of a shared block whose start rows
    /// leave its certificate clean takes the certificate's verdict, and
    /// the spans between such segments, with the seams reaching `W - 1`
    /// spans into them, take the walk (`ArrivalOrder`; see the module
    /// docs). A cell the pass rejects restores its channel's open rows
    /// and is ordered by the window queue (`frfcfs_order`) over its
    /// segments copied back to back; the schedule holds only those
    /// cells. Certificates live only as long as the call.
    ///
    /// # Errors
    ///
    /// A reordered cell of more than 2^32 - 1 spans, which a schedule
    /// entry cannot index.
    pub fn schedule(&self, window: usize) -> Result<Option<SpanSchedule>, String> {
        // The ordering pass is the controller half of replay; its time
        // belongs with it.
        let _obs = hygcn_obs::span(hygcn_obs::Phase::SpanReplay);
        let mut pass = IdentityPass::new(self, window.max(1));
        let schedule = self.order(&mut pass);
        hygcn_obs::count(hygcn_obs::Counter::FrfcfsCertified, pass.certified);
        if let Ok(None) = schedule {
            hygcn_obs::count(hygcn_obs::Counter::FrfcfsInOrder, 1);
        }
        schedule
    }

    /// [`SpanProgram::schedule`] under `pass`'s window.
    fn order(&self, pass: &mut IdentityPass) -> Result<Option<SpanSchedule>, String> {
        let (banks, window) = (self.banks, pass.window);
        let mut bank_row = vec![NO_ROW; self.channels * banks];
        let (mut cells, mut order) = (Vec::new(), Vec::new());
        let mut same_row = RowSlots::default();
        for cell in 0..self.offsets.len() - 1 {
            let (step, c) = (cell / self.channels, cell % self.channels);
            let rows = &mut bank_row[c * banks..(c + 1) * banks];
            if pass.keeps_order(step, c, rows) {
                continue;
            }
            let (run, cell_rows) = pass.cell_run(step, c);
            if u32::try_from(run.len()).is_err() {
                return Err(format!(
                    "a reordered channel run of {} spans exceeds the FR-FCFS \
                     schedule's limit of 2^32 - 1",
                    run.len()
                ));
            }
            rows.copy_from_slice(cell_rows);
            cells.push((cell, order.len()));
            frfcfs_order(run, window, rows, &mut same_row, &mut order);
        }
        Ok((!cells.is_empty()).then_some(SpanSchedule { cells, order }))
    }
}

/// Row misses and bursts of one `(step, channel)` cell's replay.
#[derive(Debug, Clone, Copy, Default)]
struct CellCounts {
    misses: u64,
    bursts: u64,
}

/// The FR-FCFS service order of one [`SpanProgram`] under one lookahead
/// window that reorders at least one cell, built by
/// [`SpanProgram::schedule`] and replayed by
/// [`SpanReplayer::replay_step`]. It holds only the cells FR-FCFS
/// reorders, every other cell being served in program order, and no
/// timing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanSchedule {
    /// The reordered `(step, channel)` cells in program order, each with
    /// the start of its entries in `order`.
    cells: Vec<(usize, usize)>,
    /// Each reordered cell's spans in service order, as indexes into
    /// the cell's run.
    order: Vec<u32>,
}

impl SpanSchedule {
    /// Cell `cell`'s service order, when FR-FCFS reorders it.
    fn cell(&self, cell: usize) -> Option<&[u32]> {
        let i = self.cells.binary_search_by_key(&cell, |&(c, _)| c).ok()?;
        let end = self.cells.get(i + 1).map_or(self.order.len(), |&(_, e)| e);
        Some(&self.order[self.cells[i].1..end])
    }
}

/// The replay summary of a shared block's run in one channel (see the
/// module docs): the spans whose service may depend on what came before
/// the run, and the counts of the rest.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Summary {
    /// The run's marks in the program's `marks`. The run's last span is
    /// its bank's last use, so the last mark ends the run.
    marks: Range<usize>,
    /// Row misses of spans whose bank the run used before with another
    /// row.
    misses: u64,
    /// Bursts of the whole run.
    bursts: u64,
    /// The fewest bursts between such a miss and its bank's previous
    /// use (`u64::MAX` without one).
    gap: u64,
}

/// A span a [`Summary`] services: the first or last use of its bank in
/// the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Mark {
    /// Bursts of the spans between the previous mark and this one.
    before: u64,
    span: SpanTuple,
    /// Whether it misses; `None` for its bank's first use, which
    /// compares the open row it finds.
    miss: Option<bool>,
}

/// One bank's first and latest use in a run being summarized: run
/// index and bursts before it, and for the latest whether it missed.
#[derive(Debug, Clone, Copy)]
struct BankUse {
    first: (usize, u64),
    last: (usize, u64, bool),
}

/// Summarizes `run`, a segment of a channel of `banks` banks, appending
/// its marks to `marks`.
fn summarize(run: &[SpanTuple], banks: usize, marks: &mut Vec<Mark>) -> Summary {
    let mut uses: Vec<Option<BankUse>> = vec![None; banks];
    let (mut bursts, mut misses, mut gap) = (0u64, 0u64, u64::MAX);
    for (i, t) in run.iter().enumerate() {
        match &mut uses[usize::from(t.bank)] {
            slot @ None => {
                *slot = Some(BankUse {
                    first: (i, bursts),
                    last: (i, bursts, false),
                });
            }
            Some(u) => {
                let (prev, before, _) = u.last;
                let miss = run[prev].row != t.row;
                if miss {
                    misses += 1;
                    gap = gap.min(bursts - before - u64::from(run[prev].bursts));
                }
                u.last = (i, bursts, miss);
            }
        }
        bursts += u64::from(t.bursts);
    }
    let mut found = Vec::new();
    for u in uses.iter().flatten() {
        found.push((u.first.0, u.first.1, None));
        if u.last.0 != u.first.0 {
            found.push((u.last.0, u.last.1, Some(u.last.2)));
        }
    }
    found.sort_unstable_by_key(|&(i, ..)| i);
    let start = marks.len();
    // Bursts through the previous mark.
    let mut through = 0;
    for (i, before, miss) in found {
        let span = run[i];
        marks.push(Mark {
            before: before - through,
            span,
            miss,
        });
        through = before + u64::from(span.bursts);
    }
    debug_assert_eq!(through, bursts, "the last span is a mark");
    Summary {
        marks: start..marks.len(),
        misses,
        bursts,
        gap,
    }
}

/// Streaming builder: feed each timeline step's scheduler-ordered batch
/// once, in step order, then [`SpanProgramBuilder::finish`]. A batch is
/// split into blocks, the maximal runs of one request kind (under
/// priority batching, one block per kind the step carries). A block
/// whose exact request list an earlier one had is not decoded again:
/// the step references the earlier block's runs. Planned first
/// ([`SpanProgramBuilder::plan_step`] per step, then
/// [`SpanProgramBuilder::reserve`]), it decodes into exactly the pool it
/// returns: each distinct span is written once, at its channel's cursor.
#[derive(Debug, Clone)]
pub struct SpanProgramBuilder {
    hbm: HbmConfig,
    burst_shift: u32,
    row_shift: u32,
    channel_mask: u64,
    channel_shift: u32,
    bank_mask: u64,
    bank_shift: u32,
    /// Per channel, the write cursor of the block being decoded.
    cursors: Vec<usize>,
    offsets: Vec<usize>,
    step_bounds: Vec<usize>,
    step_blocks: Vec<usize>,
    segments: Vec<usize>,
    pool: Vec<SpanTuple>,
    /// Per pool block, the steps' references to it.
    refs: Vec<usize>,
    traffic: Vec<StepTraffic>,
    blocks: BlockTable,
    /// What the steps planned since the last reserve add.
    planned: Planned,
    /// Blocks taken from the pool instead of decoded.
    shared: u64,
}

/// What [`SpanProgramBuilder::plan_step`] counted: steps, block
/// references, new distinct blocks and their spans.
#[derive(Debug, Clone, Copy, Default)]
struct Planned {
    steps: usize,
    refs: usize,
    blocks: usize,
    spans: usize,
}

/// The distinct request blocks a builder has seen, found by their exact
/// request lists. A block's hash only narrows the candidates, in a
/// sorted set of (hash, entry) pairs.
#[derive(Debug, Clone, Default)]
struct BlockTable {
    /// Every entry's requests, back to back.
    keys: Vec<MemRequest>,
    entries: Vec<BlockEntry>,
    index: BTreeSet<(u64, usize)>,
}

/// One distinct block: its hash, its requests in the table's keys, and
/// its pool block once decoded.
#[derive(Debug, Clone, Copy)]
struct BlockEntry {
    hash: u64,
    keys: (usize, usize),
    block: Option<usize>,
}

impl BlockTable {
    /// The entry of the block `reqs`, added if new, and whether it was.
    fn entry(&mut self, reqs: &[MemRequest]) -> (usize, bool) {
        let hash = block_hash(reqs);
        let found = self
            .index
            .range((hash, 0)..=(hash, usize::MAX))
            .map(|&(_, e)| e)
            .find(|&e| {
                let (start, end) = self.entries[e].keys;
                self.keys[start..end] == *reqs
            });
        if let Some(e) = found {
            return (e, false);
        }
        let (e, start) = (self.entries.len(), self.keys.len());
        self.keys.extend_from_slice(reqs);
        self.entries.push(BlockEntry {
            hash,
            keys: (start, self.keys.len()),
            block: None,
        });
        self.index.insert((hash, e));
        (e, true)
    }

    /// Forgets the entries from `len` on, and every entry's pool block
    /// from `blocks` on.
    fn truncate(&mut self, len: usize, blocks: usize) {
        for (e, entry) in self.entries.iter().enumerate().skip(len) {
            self.index.remove(&(entry.hash, e));
        }
        self.entries.truncate(len);
        self.keys
            .truncate(self.entries.last().map_or(0, |e| e.keys.1));
        for entry in &mut self.entries {
            entry.block = entry.block.filter(|&b| b < blocks);
        }
    }
}

/// A hash of the exact request list `reqs`: each request's kind,
/// address, bytes and direction.
fn block_hash(reqs: &[MemRequest]) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    reqs.iter().fold(0, |h, r| {
        let tag =
            u64::from(r.bytes) << 8 | u64::from(r.kind.priority()) << 1 | u64::from(r.is_write);
        ((h ^ r.addr).wrapping_mul(K).rotate_left(29) ^ tag).wrapping_mul(K)
    })
}

/// Log2 of the 128 MB address span a row-interleaved channel owns.
const CHANNEL_SPAN_SHIFT: u32 = 27;

impl SpanProgramBuilder {
    /// A builder for `config`'s decode geometry. Any controller policy
    /// is accepted: the program carries no timing.
    ///
    /// # Errors
    ///
    /// The first violated constraint of [`HbmConfig::validate`].
    pub fn new(config: &HbmConfig) -> Result<Self, String> {
        config.validate()?;
        let channels = widen_u64(config.channels);
        let banks = widen_u64(config.banks);
        Ok(Self {
            hbm: *config,
            burst_shift: config.burst_bytes.trailing_zeros(),
            row_shift: config.row_bytes.trailing_zeros(),
            channel_mask: channels - 1,
            channel_shift: channels.trailing_zeros(),
            bank_mask: banks - 1,
            bank_shift: banks.trailing_zeros(),
            cursors: vec![0; config.channels],
            offsets: vec![0],
            step_bounds: vec![0],
            step_blocks: Vec::new(),
            segments: vec![0],
            pool: Vec::new(),
            refs: Vec::new(),
            traffic: Vec::new(),
            blocks: BlockTable::default(),
            planned: Planned::default(),
            shared: 0,
        })
    }

    /// The spans `r` decodes into: one per row-buffer page it touches,
    /// whatever the mapping.
    fn spans(&self, r: &MemRequest) -> usize {
        if r.bytes == 0 {
            return 0;
        }
        let end = r.addr + u64::from(r.bytes);
        saturating_usize(((end - 1) >> self.row_shift) - (r.addr >> self.row_shift) + 1)
    }

    /// Plans the next step ahead of its push: registers the blocks of
    /// `reqs` (the batch [`SpanProgramBuilder::push_step`] will get) and
    /// counts what the push adds, the spans of its new distinct blocks
    /// included.
    pub fn plan_step(&mut self, reqs: &[MemRequest]) {
        self.planned.steps += 1;
        for block in reqs.chunk_by(|a, b| a.kind == b.kind) {
            self.planned.refs += 1;
            if self.blocks.entry(block).1 {
                self.planned.blocks += 1;
                self.planned.spans += block.iter().map(|r| self.spans(r)).sum::<usize>();
            }
        }
    }

    /// Sizes the program for the steps planned since the last call, so
    /// that pushing them allocates nothing; returns the pool spans they
    /// add.
    pub fn reserve(&mut self) -> usize {
        let planned = std::mem::take(&mut self.planned);
        let channels = self.hbm.channels;
        self.offsets.reserve_exact(planned.steps * channels);
        self.step_bounds.reserve_exact(planned.steps);
        self.traffic.reserve_exact(planned.steps);
        self.step_blocks.reserve_exact(planned.refs);
        self.segments.reserve_exact(planned.blocks * channels);
        self.refs.reserve_exact(planned.blocks);
        self.pool.reserve_exact(planned.spans);
        planned.spans
    }

    /// Adds one step's batch (already in service order): each block
    /// seen before is referenced, each new one decoded into the pool as
    /// channel-major runs. An empty batch records an empty step.
    ///
    /// # Errors
    ///
    /// A span whose row does not fit a [`SpanTuple`] (at or above
    /// 2^32 - 1). Only a channel-interleaved map reaches it: a
    /// row-interleaved channel's 128 MB holds fewer rows. The step is
    /// then not recorded and the builder, its block table included,
    /// stays as it was.
    pub fn push_step(&mut self, reqs: &[MemRequest]) -> Result<(), String> {
        let (entries, blocks, first) = (
            self.blocks.entries.len(),
            self.refs.len(),
            self.step_blocks.len(),
        );
        let mut shared = 0;
        for block in reqs.chunk_by(|a, b| a.kind == b.kind) {
            let (e, _) = self.blocks.entry(block);
            let b = match self.blocks.entries[e].block {
                Some(b) => {
                    shared += 1;
                    b
                }
                None => match self.decode_block(block) {
                    Ok(b) => {
                        self.blocks.entries[e].block = Some(b);
                        b
                    }
                    Err(err) => {
                        let channels = self.hbm.channels;
                        self.blocks.truncate(entries, blocks);
                        self.pool.truncate(self.segments[blocks * channels]);
                        self.segments.truncate(blocks * channels + 1);
                        self.refs.truncate(blocks);
                        self.step_blocks.truncate(first);
                        return Err(err);
                    }
                },
            };
            self.step_blocks.push(b);
        }
        let channels = self.hbm.channels;
        let step = &self.step_blocks[first..];
        for &b in step {
            self.refs[b] += 1;
        }
        // Each cell is the step's segments in the channel, back to back.
        let mut at = self.offsets.last().copied().unwrap_or(0);
        for c in 0..channels {
            for &b in step {
                let s = b * channels + c;
                at += self.segments[s + 1] - self.segments[s];
            }
            self.offsets.push(at);
        }
        self.step_bounds.push(self.step_blocks.len());
        let mut traffic = StepTraffic::default();
        for r in reqs {
            traffic.requests += 1;
            if r.is_write {
                traffic.bytes_written += u64::from(r.bytes);
            } else {
                traffic.bytes_read += u64::from(r.bytes);
            }
        }
        self.traffic.push(traffic);
        self.shared += shared;
        Ok(())
    }

    /// Decodes the block `reqs` into the pool as a new block; returns
    /// its index. A first pass counts each channel's spans in closed
    /// form and places the channel cursors; the decode pass then writes
    /// every span straight to its channel's cursor. On an error the pool
    /// is left as it was.
    fn decode_block(&mut self, reqs: &[MemRequest]) -> Result<usize, String> {
        // Spans every channel receives, beside each channel's own count.
        let mut every = 0;
        let mut cursors = std::mem::take(&mut self.cursors);
        cursors.fill(0);
        for r in reqs {
            self.count(r, &mut cursors, &mut every);
        }
        let start = self.pool.len();
        let mut at = start;
        for cursor in &mut cursors {
            let spans = *cursor + every;
            *cursor = at;
            at += spans;
        }
        self.pool.resize(at, SpanTuple::default());
        let decoded = self.decode(reqs, &mut cursors);
        self.cursors = cursors;
        if let Err(e) = decoded {
            self.pool.truncate(start);
            return Err(e);
        }
        // Each cursor now ends its channel's run.
        debug_assert_eq!(self.cursors.last(), Some(&at));
        self.segments.extend_from_slice(&self.cursors);
        self.refs.push(0);
        Ok(self.refs.len() - 1)
    }

    /// Adds `r`'s spans to `counts`, channel by channel. Its pages are
    /// consecutive, and a channel-interleaved map deals consecutive
    /// pages round-robin over the channels: each full round adds one to
    /// `every` channel, and the rest go to the channels from the first
    /// page's on. A row-interleaved map picks the channel by the 128 MB
    /// span a span starts in, which a row may straddle, so its spans
    /// are counted one by one.
    #[inline(always)]
    fn count(&self, r: &MemRequest, counts: &mut [usize], every: &mut usize) {
        let spans = self.spans(r);
        match self.hbm.mapping {
            MappingScheme::ChannelInterleaved => {
                let first = r.addr >> self.row_shift;
                *every += spans >> self.channel_shift;
                let rest = widen_u64(spans) & self.channel_mask;
                for page in first..first + rest {
                    counts[saturating_usize(page & self.channel_mask)] += 1;
                }
            }
            MappingScheme::RowInterleaved => {
                let (mut addr, end) = (r.addr, r.addr + u64::from(r.bytes));
                while addr < end {
                    counts[saturating_usize((addr >> CHANNEL_SPAN_SHIFT) & self.channel_mask)] += 1;
                    addr = ((addr >> self.row_shift) + 1) << self.row_shift;
                }
            }
        }
    }

    /// Writes `reqs`' spans at their channels' `cursors`, advancing
    /// each: the row-aligned split of [`crate::hbm::Hbm::service_batch`]
    /// and [`HbmConfig::locate`]'s decode, in shifts and masks.
    fn decode(&mut self, reqs: &[MemRequest], cursors: &mut [usize]) -> Result<(), String> {
        let (burst_shift, row_shift) = (self.burst_shift, self.row_shift);
        let (ch_mask, ch_shift) = (self.channel_mask, self.channel_shift);
        let (b_mask, b_shift) = (self.bank_mask, self.bank_shift);
        for r in reqs {
            debug_assert!(r.bytes > 0, "zero-length request");
            let mut addr = r.addr;
            let end = r.addr + u64::from(r.bytes);
            while addr < end {
                let row_end = ((addr >> row_shift) + 1) << row_shift;
                let span_end = row_end.min(end);
                let bursts = ((span_end - addr) + (1u64 << burst_shift) - 1) >> burst_shift;
                let (channel, bank, row) = match self.hbm.mapping {
                    MappingScheme::ChannelInterleaved => {
                        let page = addr >> row_shift;
                        let rest = page >> ch_shift;
                        (page & ch_mask, rest & b_mask, rest >> b_shift)
                    }
                    MappingScheme::RowInterleaved => {
                        let page = (addr & ((1u64 << CHANNEL_SPAN_SHIFT) - 1)) >> row_shift;
                        (
                            (addr >> CHANNEL_SPAN_SHIFT) & ch_mask,
                            page & b_mask,
                            page >> b_shift,
                        )
                    }
                };
                // `HbmConfig::validate` bounds the bank and the bursts;
                // only the row depends on the address.
                let unfit =
                    |field, v| format!("address {addr:#x}: {field} {v} does not fit a span");
                let tuple = SpanTuple {
                    row: u32::try_from(row)
                        .ok()
                        .filter(|&row| row != NO_ROW)
                        .ok_or_else(|| unfit("row", row))?,
                    bank: u16::try_from(bank).map_err(|_| unfit("bank", bank))?,
                    bursts: u16::try_from(bursts).map_err(|_| unfit("burst count", bursts))?,
                };
                let cursor = &mut cursors[saturating_usize(channel)];
                self.pool[*cursor] = tuple;
                *cursor += 1;
                addr = span_end;
            }
        }
        Ok(())
    }

    /// The finished program. Each block the program references more than
    /// once gets its per-channel replay summaries here, once.
    pub fn finish(self) -> SpanProgram {
        hygcn_obs::count(hygcn_obs::Counter::SpanBlocksShared, self.shared);
        let channels = self.hbm.channels;
        let shared = self.refs.iter().filter(|&&refs| refs > 1).count();
        let mut summary_of = vec![UNSHARED; self.refs.len()];
        let mut summaries = Vec::with_capacity(shared * channels);
        let mut marks = Vec::new();
        for (b, _) in self.refs.iter().enumerate().filter(|&(_, &refs)| refs > 1) {
            summary_of[b] = summaries.len();
            for s in b * channels..(b + 1) * channels {
                let run = &self.pool[self.segments[s]..self.segments[s + 1]];
                summaries.push(summarize(run, self.hbm.banks, &mut marks));
            }
        }
        marks.shrink_to_fit();
        SpanProgram {
            mapping: self.hbm.mapping,
            channels,
            banks: self.hbm.banks,
            row_bytes: self.hbm.row_bytes,
            burst_bytes: self.hbm.burst_bytes,
            offsets: self.offsets,
            step_bounds: self.step_bounds,
            step_blocks: self.step_blocks,
            segments: self.segments,
            pool: self.pool,
            summary_of,
            summaries,
            marks,
            traffic: self.traffic,
        }
    }
}

/// The most timing lanes one [`SpanReplayer`] carries. Each lane is an
/// independent max-plus dependency chain, so one pass over `L` lanes
/// overlaps their latencies while it reads each span once. Measured on
/// a 2-vCPU Xeon over 40 CL/PB campaign programs (9.0M spans, both
/// controllers, six rounds), a span costs 4.3–5.6 ns per lane alone,
/// 2.6–3.5 ns at 2 lanes, 1.9–3.0 ns at 3 and 2.0–2.9 ns at 4; 5 to 8
/// lanes read 1.7–2.9 ns, within that spread, and every lane count is
/// one more compiled copy of the replay. A larger group replays in
/// chunks of at most this many lanes.
pub const MAX_LANES: usize = 4;

/// SoA replay state of `L` timing lanes: the per-bank open rows (one
/// row compare serves every lane), and per lane the bank ready cycles,
/// bus cycles and [`ChannelStats`] of the equivalent [`crate::hbm::Hbm`]
/// under that lane's timing, held in flat channel-major arrays. Each
/// lane's [`SpanReplayer::replay_step`] returns what
/// [`crate::hbm::Hbm::service_batch`] returns on the step's batch, and
/// leaves the same statistics (see the module docs' contract). Every
/// lane shares the decode geometry and the service order, so one
/// program (and one schedule per FR-FCFS window) serves a whole timing
/// sweep, `L` timings per pass.
#[derive(Debug, Clone)]
pub struct SpanReplayer<const L: usize> {
    banks_per_channel: usize,
    t_burst: [u64; L],
    t_row: [u64; L],
    t_cas: [u64; L],
    /// The fewest bursts a shared block's reuse-miss gap must span for
    /// its summary to replay it in every lane: the largest
    /// `ceil(t_row / t_burst)`.
    summary_gap: u64,
    /// Open row per (channel-major) bank, [`NO_ROW`] when closed. The
    /// row a span opens depends on no timing, so every lane shares it.
    bank_row: Vec<u32>,
    /// Ready cycle per (channel-major) bank, per lane.
    bank_ready: Vec<[u64; L]>,
    /// Data-bus availability per channel, per lane.
    bus_free: Vec<[u64; L]>,
    /// Per-channel counters, in channel order, per lane.
    stats: Vec<[ChannelStats; L]>,
    /// Request-level counters (bytes, request count), the same in every
    /// lane.
    traffic: MemStats,
    /// A reordered cell's segments back to back, for its schedule
    /// entries to index.
    run: Vec<SpanTuple>,
}

impl<const L: usize> SpanReplayer<L> {
    /// An idle replayer with one lane per config. The configs may differ
    /// in timing (`t_burst`, `t_row`, `t_cas`) and controller only: the
    /// service order is the `schedule` passed to
    /// [`SpanReplayer::replay_step`], not a lane's controller.
    ///
    /// # Errors
    ///
    /// The first violated constraint of [`HbmConfig::validate`], or a
    /// lane whose geometry differs from lane 0's.
    pub fn new(configs: &[HbmConfig; L]) -> Result<Self, String> {
        const { assert!(L >= 1 && L <= MAX_LANES, "1 to MAX_LANES lanes") };
        let first = &configs[0];
        let geometry = |c: &HbmConfig| (c.mapping, c.channels, c.banks, c.row_bytes, c.burst_bytes);
        for (lane, config) in configs.iter().enumerate() {
            config.validate()?;
            if geometry(config) != geometry(first) {
                return Err(format!(
                    "lane {lane} differs from lane 0 in geometry; lanes share \
                     the decode geometry"
                ));
            }
        }
        let banks = first.channels * first.banks;
        Ok(Self {
            banks_per_channel: first.banks,
            t_burst: configs.map(|c| c.t_burst),
            t_row: configs.map(|c| c.t_row),
            t_cas: configs.map(|c| c.t_cas),
            summary_gap: configs
                .iter()
                .map(|c| c.t_row.div_ceil(c.t_burst))
                .max()
                .unwrap_or(0),
            bank_row: vec![NO_ROW; banks],
            bank_ready: vec![[0; L]; banks],
            bus_free: vec![[0; L]; first.channels],
            stats: vec![[ChannelStats::default(); L]; first.channels],
            traffic: MemStats::default(),
            run: Vec::new(),
        })
    }

    /// Replays `program`'s step `step`, arriving in lane `l` at
    /// `now[l]`; returns per lane the cycle the step's last span (plus
    /// CAS latency) completes, or the arrival cycle for an empty step.
    ///
    /// `schedule` alone is the service order: `None` serves every span
    /// in program order (an in-order controller, or FR-FCFS whose
    /// [`SpanProgram::schedule`] is `None`), `Some` serves the cells it
    /// reorders in its order and every other cell in program order. In
    /// program order a shared block's segment replays from its summary
    /// when every lane's `t_row` fits the summary's gap, else span by
    /// span. The caller guarantees `program.matches()` the replayer's
    /// geometry and steps are replayed in build order at nondecreasing
    /// arrival cycles per lane — the same protocol a
    /// [`crate::hbm::Hbm::service_batch`] sequence observes. Each span
    /// is read and its row compared once, and serviced in every lane.
    pub fn replay_step(
        &mut self,
        program: &SpanProgram,
        schedule: Option<&SpanSchedule>,
        step: usize,
        now: [u64; L],
    ) -> [u64; L] {
        // One relaxed load when collection is off; the guard sits
        // outside the per-span hot loop so the replay stays untouched.
        let _obs = hygcn_obs::span(hygcn_obs::Phase::SpanReplay);
        let t = &program.traffic[step];
        self.traffic.requests += t.requests;
        self.traffic.bytes_read += t.bytes_read;
        self.traffic.bytes_written += t.bytes_written;
        let banks = self.banks_per_channel;
        let timing = (self.t_burst, self.t_row);
        let summary_gap = self.summary_gap;
        let mut done = now;
        for c in 0..program.channels {
            let cell = step * program.channels + c;
            let spans = program.cell(cell);
            if spans.is_empty() {
                continue;
            }
            let bank_row = &mut self.bank_row[c * banks..(c + 1) * banks];
            let bank_ready = &mut self.bank_ready[c * banks..(c + 1) * banks];
            // The bus cycles stay in registers for the cell; the
            // order-free statistics fold in once afterwards.
            let mut bus = self.bus_free[c];
            let mut counts = CellCounts::default();
            if let Some(order) = schedule.and_then(|s| s.cell(cell)) {
                let run = program.cell_run(step, c, &mut self.run);
                for &i in order {
                    let tup = &run[idx(i)];
                    replay_span(
                        tup,
                        bank_row,
                        bank_ready,
                        &mut bus,
                        now,
                        timing,
                        &mut counts,
                    );
                }
            } else {
                for &block in program.blocks(step) {
                    match program.summary(block, c).filter(|s| s.gap >= summary_gap) {
                        Some(summary) => replay_summary(
                            summary,
                            &program.marks[summary.marks.clone()],
                            bank_row,
                            bank_ready,
                            &mut bus,
                            now,
                            timing,
                            &mut counts,
                        ),
                        None => {
                            for tup in program.segment(block, c) {
                                replay_span(
                                    tup,
                                    bank_row,
                                    bank_ready,
                                    &mut bus,
                                    now,
                                    timing,
                                    &mut counts,
                                );
                            }
                        }
                    }
                }
            }
            self.bus_free[c] = bus;
            for (l, st) in self.stats[c].iter_mut().enumerate() {
                // Each span moves at least one burst, so the bus only
                // advances: the channel completes with its last span.
                let channel_done = bus[l] + self.t_cas[l];
                st.row_misses += counts.misses;
                st.row_hits += widen_u64(spans.len()) - counts.misses;
                st.bursts += counts.bursts;
                st.busy_cycles += counts.bursts * self.t_burst[l];
                st.last_completion = st.last_completion.max(channel_done);
                done[l] = done[l].max(channel_done);
            }
        }
        done
    }

    /// Accumulated statistics per lane, per-channel counters folded into
    /// totals.
    pub fn stats(&self) -> [MemStats; L] {
        std::array::from_fn(|l| {
            let mut s = self.traffic;
            for ch in &self.stats {
                ch[l].fold_into(&mut s);
            }
            s
        })
    }

    /// The per-channel statistics per lane, in channel order.
    pub fn channel_stats(&self) -> [Vec<ChannelStats>; L] {
        std::array::from_fn(|l| self.stats.iter().map(|ch| ch[l]).collect())
    }

    /// The fully decomposed statistics view per lane.
    pub fn hbm_stats(&self) -> [HbmStats; L] {
        let (totals, mut channels) = (self.stats(), self.channel_stats());
        std::array::from_fn(|l| HbmStats {
            totals: totals[l],
            channels: std::mem::take(&mut channels[l]),
        })
    }
}

/// Replays one span in program order: compares its row with its bank's
/// open row, counts it, and services it in every lane.
#[inline(always)]
fn replay_span<const L: usize>(
    tup: &SpanTuple,
    bank_row: &mut [u32],
    bank_ready: &mut [[u64; L]],
    bus: &mut [u64; L],
    now: [u64; L],
    timing: ([u64; L], [u64; L]),
    counts: &mut CellCounts,
) {
    let bank = usize::from(tup.bank);
    let miss = bank_row[bank] != tup.row;
    bank_row[bank] = tup.row;
    counts.misses += u64::from(miss);
    counts.bursts += u64::from(tup.bursts);
    service(&mut bank_ready[bank], bus, now, miss, tup.bursts, timing);
}

/// Replays a shared block's run from its summary in program order: the
/// marks are serviced, and the spans between them only advance the bus
/// by their bursts, which is all servicing them would do (see the
/// module docs). The caller has checked that every lane's `t_row` fits
/// the summary's gap.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn replay_summary<const L: usize>(
    summary: &Summary,
    marks: &[Mark],
    bank_row: &mut [u32],
    bank_ready: &mut [[u64; L]],
    bus: &mut [u64; L],
    now: [u64; L],
    timing: ([u64; L], [u64; L]),
    counts: &mut CellCounts,
) {
    let t_burst = timing.0;
    for m in marks {
        for l in 0..L {
            bus[l] += m.before * t_burst[l];
        }
        let bank = usize::from(m.span.bank);
        let miss = m.miss.unwrap_or_else(|| {
            let miss = bank_row[bank] != m.span.row;
            counts.misses += u64::from(miss);
            miss
        });
        bank_row[bank] = m.span.row;
        service(&mut bank_ready[bank], bus, now, miss, m.span.bursts, timing);
    }
    counts.misses += summary.misses;
    counts.bursts += summary.bursts;
}

/// Services one span arriving in lane `l` at `now[l]` on its bank's
/// ready cycle and its channel's bus, in every lane — the timing
/// recurrence of [`crate::hbm::Hbm`]'s walk with the row compare
/// already made: a row miss first pays the activate + precharge
/// penalty. The lanes are independent chains, so their latencies overlap.
#[inline(always)]
fn service<const L: usize>(
    bank_ready: &mut [u64; L],
    bus: &mut [u64; L],
    now: [u64; L],
    miss: bool,
    bursts: u16,
    (t_burst, t_row): ([u64; L], [u64; L]),
) {
    for l in 0..L {
        let ready = bank_ready[l].max(now[l]) + if miss { t_row[l] } else { 0 };
        bus[l] = ready.max(bus[l]) + u64::from(bursts) * t_burst[l];
        bank_ready[l] = bus[l];
    }
}

/// The identity pass's walk: decides whether FR-FCFS serves one run of
/// a channel's spans in arrival order, without building a queue.
///
/// While every pick so far was the oldest pending span, the pending
/// spans are exactly `run[h..h + W)` (`h` the head, `W` the window
/// capped at the run length) and the open rows are the in-order ones.
/// The head is then picked unless it misses while some pending span
/// hits, so the pass tracks the youngest pending hit. A hit stays a hit
/// until a miss pick changes its bank's row, and a miss is picked only
/// when nothing pending hits, so:
///
/// * an arriving span is a pending hit when its bank's open row is its
///   row;
/// * after a head miss opens `(bank, row)`, the pending hits are that
///   key's spans behind the head. A table indexed by a hash of the key
///   holds the youngest span that arrived under each slot: an empty or
///   served slot rules the key out, the slot's span is the youngest hit
///   when its key matches, and only a collision scans the window.
///
/// The run reorders at the first head miss while a hit is pending.
#[derive(Debug, Clone, Default)]
struct ArrivalOrder {
    /// Per hash slot, the run index of the youngest span that arrived
    /// under it. The table is never cleared: a head arrived under its
    /// own slot earlier in the same walk, so the slot a head reads holds
    /// an index of that walk, never a stale one of an earlier walk.
    youngest: RowSlots<usize>,
}

/// A table of hash slots keyed by a span's `(bank, row)`.
#[derive(Debug, Clone, Default)]
struct RowSlots<T> {
    slots: Vec<T>,
    /// `64 - log2(slots.len())`.
    shift: u32,
}

impl<T: Copy + Default> RowSlots<T> {
    /// Sizes the table at sixteen slots per pending span (at least one),
    /// so a key finds another pending key in its slot with probability
    /// at most 1/16. A table that grows starts zeroed.
    fn reserve(&mut self, pending: usize) {
        let len = (16 * pending.max(1)).next_power_of_two();
        if self.slots.len() < len {
            self.slots = vec![T::default(); len];
            self.shift = 64 - len.trailing_zeros();
        }
    }

    /// The table slot of `t`'s `(bank, row)` key (Fibonacci hashing).
    #[inline(always)]
    fn slot(&self, t: &SpanTuple) -> usize {
        let key = u64::from(t.row) << 16 ^ u64::from(t.bank);
        saturating_usize(key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift)
    }
}

impl ArrivalOrder {
    /// Queues `t`, at run index `a`, as its slot's youngest
    /// arrival; returns whether it hits its bank's open row.
    #[inline(always)]
    fn arrive(&mut self, t: &SpanTuple, a: usize, bank_row: &[u32]) -> bool {
        let slot = self.youngest.slot(t);
        self.youngest.slots[slot] = a;
        bank_row[usize::from(t.bank)] == t.row
    }

    /// Whether FR-FCFS with a `window`-deep lookahead serves `run` in
    /// arrival order from the open rows `bank_row`. The pass moves
    /// `bank_row` on as the in-order replay does, up to the head that
    /// deviates when one does.
    fn keeps_order(&mut self, run: &[SpanTuple], window: usize, bank_row: &mut [u32]) -> bool {
        let window = window.min(run.len());
        if window <= 1 {
            // Nothing is pending behind the head.
            for t in run {
                bank_row[usize::from(t.bank)] = t.row;
            }
            return true;
        }
        // A head miss finds another pending key in its slot with
        // probability at most 1/16: a collision scans at most the window.
        self.youngest.reserve(window);
        let same = |a: &SpanTuple, b: &SpanTuple| a.row == b.row && a.bank == b.bank;
        // The youngest pending hit; 0 stands for none, as the check
        // `hit > h` never fires on it.
        let mut hit = 0;
        for (a, t) in run[..window].iter().enumerate() {
            if self.arrive(t, a, bank_row) {
                hit = a;
            }
        }
        for (h, t) in run.iter().enumerate() {
            let bank = usize::from(t.bank);
            if bank_row[bank] != t.row {
                if hit > h {
                    return false;
                }
                bank_row[bank] = t.row;
                // The key's youngest pending span: its slot's youngest
                // arrival, or after a collision an older one. An empty
                // range when the slot holds nothing pending.
                let y = self.youngest.slots[self.youngest.slot(t)];
                if let Some(j) = (h + 1..=y).rev().find(|&j| same(&run[j], t)) {
                    hit = j;
                }
            }
            let a = h + window;
            if a < run.len() && self.arrive(&run[a], a, bank_row) {
                hit = a;
            }
        }
        true
    }
}

/// A bank and a row of it, as a [`Certificate`] lists them.
#[derive(Debug, Clone, Copy)]
struct BankRow {
    row: u32,
    bank: u16,
}

/// What the identity pass over one segment of a shared block reads from
/// the rows it starts from, under one window `W` (see the module docs).
#[derive(Debug, Clone, Copy)]
struct Certificate {
    /// Whether the segment keeps arrival order from closed banks.
    keeps: bool,
    /// Its ranges in [`IdentityPass::pairs`], back to back: the
    /// sensitive pairs (`bounds[0]..bounds[1]`), then the rows open
    /// `W - 1` spans before its end (`..bounds[2]`), empty when it does
    /// not keep arrival order.
    bounds: [usize; 3],
}

/// The identity pass of one [`SpanProgram::schedule`] call: whether
/// FR-FCFS serves a `(step, channel)` cell in arrival order, judged from
/// certificates where they hold and by walks elsewhere (see the module
/// docs). Its certificates live as long as the call, in flat arrays.
struct IdentityPass<'p> {
    program: &'p SpanProgram,
    /// The lookahead window `W`, at least 1.
    window: usize,
    arrivals: ArrivalOrder,
    /// Per shared `(block, channel)`, indexed as the program's
    /// summaries, its certificate once built.
    certificates: Vec<Option<Certificate>>,
    /// The certificates' pairs.
    pairs: Vec<BankRow>,
    /// The channel's open rows before the current cell.
    cell_rows: Vec<u32>,
    /// The walk being gathered: its one piece in place, or its pieces
    /// copied into `copied` once there are more.
    lone: Option<&'p [SpanTuple]>,
    copied: Vec<SpanTuple>,
    /// Whether the walk gathered the current cell from its start, no
    /// certificate taken.
    whole: bool,
    /// The open rows after the walk's first `folded` spans, from the
    /// rows before it: the rows a shared segment after it starts from,
    /// once [`Self::clean`] folds the rest in.
    after: Vec<u32>,
    folded: usize,
    /// Per bank, for a certificate build: the open rows from closed
    /// banks, the segment index of the bank's first use and the row of
    /// its latest sensitive pair.
    closed: Vec<u32>,
    first_use: Vec<usize>,
    latest: Vec<u32>,
    /// Segments whose verdict came from a certificate.
    certified: u64,
    /// Shared segments whose start rows held a sensitive pair.
    #[cfg(test)]
    dirty: u64,
    /// Walks through a seam that rejected their cell.
    #[cfg(test)]
    seam_rejections: u64,
}

impl<'p> IdentityPass<'p> {
    /// The pass over `program` under a `window`-deep lookahead (at least
    /// 1), with no certificate built yet.
    fn new(program: &'p SpanProgram, window: usize) -> Self {
        let banks = program.banks;
        Self {
            program,
            window,
            arrivals: ArrivalOrder::default(),
            certificates: vec![None; program.summaries.len()],
            pairs: Vec::new(),
            cell_rows: vec![NO_ROW; banks],
            lone: None,
            copied: Vec::new(),
            whole: true,
            after: vec![NO_ROW; banks],
            folded: 0,
            closed: vec![NO_ROW; banks],
            first_use: vec![usize::MAX; banks],
            latest: vec![NO_ROW; banks],
            certified: 0,
            #[cfg(test)]
            dirty: 0,
            #[cfg(test)]
            seam_rejections: 0,
        }
    }

    /// Whether FR-FCFS serves cell `(step, c)` in arrival order from the
    /// channel's open rows `rows`. `cell_rows` keeps the rows the cell
    /// started with; `rows` ends as the in-order replay leaves it when
    /// the cell keeps arrival order. Each segment of a shared block at
    /// least `W` spans long whose start rows leave its certificate clean
    /// takes the certificate's verdict. Every other span is judged in a
    /// walk over the segments between two such segments (or the cell's
    /// ends), which reaches `W - 1` spans into each: their seams.
    fn keeps_order(&mut self, step: usize, c: usize, rows: &mut [u32]) -> bool {
        let (program, w) = (self.program, self.window);
        self.cell_rows.copy_from_slice(rows);
        self.start_walk(rows);
        self.whole = true;
        // `rows` holds the open rows before the walk, which may start
        // with a certified segment's tail (`seam`); `open`: whether it
        // holds spans past that tail.
        let mut open = false;
        #[cfg(test)]
        let mut seam = false;
        for &block in program.blocks(step) {
            let segment = program.segment(block, c);
            if segment.is_empty() {
                continue;
            }
            let cert = match segment.len() >= w {
                true => program
                    .shared(block, c)
                    .map(|slot| self.certificate(slot, segment)),
                false => None,
            };
            let Some(cert) = cert.filter(|cert| self.clean(cert)) else {
                self.gather(segment);
                open = true;
                continue;
            };
            self.certified += 1;
            self.whole = false;
            if !cert.keeps {
                return false;
            }
            if !self.walk_is_empty() {
                self.gather(&segment[..w - 1]);
                if !self.walk(rows) {
                    #[cfg(test)]
                    {
                        self.seam_rejections += 1;
                    }
                    return false;
                }
            }
            // The next walk starts `W - 1` spans before the segment's end.
            rows.copy_from_slice(&self.after);
            let [_, tail, end] = cert.bounds;
            for p in &self.pairs[tail..end] {
                rows[usize::from(p.bank)] = p.row;
            }
            self.start_walk(rows);
            self.gather(&segment[segment.len() - (w - 1)..]);
            open = false;
            #[cfg(test)]
            {
                seam = true;
            }
        }
        if open {
            let kept = self.walk(rows);
            #[cfg(test)]
            {
                self.seam_rejections += u64::from(seam && !kept);
            }
            return kept;
        }
        // A certified segment's last heads already saw to the cell's end.
        for t in self.lone.unwrap_or(&self.copied) {
            rows[usize::from(t.bank)] = t.row;
        }
        true
    }

    /// The run of cell `(step, c)`, the last one [`Self::keeps_order`]
    /// judged, in program order (its walk when that gathered the whole
    /// cell), and the open rows the cell started with.
    fn cell_run(&mut self, step: usize, c: usize) -> (&[SpanTuple], &mut [u32]) {
        let run = match self.whole {
            true => self.lone.unwrap_or(&self.copied),
            false => self.program.cell_run(step, c, &mut self.copied),
        };
        (run, &mut self.cell_rows)
    }

    /// Segment `segment`'s certificate, built the first time: `slot` is
    /// its shared `(block, channel)`.
    fn certificate(&mut self, slot: usize, segment: &[SpanTuple]) -> Certificate {
        match self.certificates[slot] {
            Some(cert) => cert,
            None => {
                let cert = self.certify(segment);
                self.certificates[slot] = Some(cert);
                cert
            }
        }
    }

    /// Whether `cert`'s segment, after the walk gathered so far, finds
    /// none of its sensitive pairs open; leaves the open rows before the
    /// segment in `after`.
    fn clean(&mut self, cert: &Certificate) -> bool {
        let run = self.lone.unwrap_or(&self.copied);
        for t in &run[self.folded..] {
            self.after[usize::from(t.bank)] = t.row;
        }
        self.folded = run.len();
        let [sensitive, tail, _] = cert.bounds;
        let clean = self.pairs[sensitive..tail]
            .iter()
            .all(|p| self.after[usize::from(p.bank)] != p.row);
        #[cfg(test)]
        {
            self.dirty += u64::from(!clean);
        }
        clean
    }

    /// Starts an empty walk from the open rows `rows`.
    fn start_walk(&mut self, rows: &[u32]) {
        self.lone = None;
        self.copied.clear();
        self.after.copy_from_slice(rows);
        self.folded = 0;
    }

    /// Adds `piece`, the cell's next spans, to the walk.
    #[inline]
    fn gather(&mut self, piece: &'p [SpanTuple]) {
        if piece.is_empty() {
            return;
        }
        if self.walk_is_empty() {
            self.lone = Some(piece);
            return;
        }
        if let Some(lone) = self.lone.take() {
            self.copied.extend_from_slice(lone);
        }
        self.copied.extend_from_slice(piece);
    }

    fn walk_is_empty(&self) -> bool {
        self.lone.is_none() && self.copied.is_empty()
    }

    /// Whether the walk gathered so far keeps arrival order from the
    /// open rows `rows`, which it moves on.
    fn walk(&mut self, rows: &mut [u32]) -> bool {
        let run = self.lone.unwrap_or(&self.copied);
        self.arrivals.keeps_order(run, self.window, rows)
    }

    /// The certificate of `segment` (at least `W` spans) under this
    /// pass's window, its pairs appended to `pairs`.
    fn certify(&mut self, segment: &[SpanTuple]) -> Certificate {
        let w = self.window;
        self.closed.fill(NO_ROW);
        let keeps = self.arrivals.keeps_order(segment, w, &mut self.closed);
        let start = self.pairs.len();
        // Each bank's spans fewer than `W` positions after its first
        // use: the only ones the walk compares with a row the segment
        // did not open. A repeat of the bank's latest one adds nothing.
        self.first_use.fill(usize::MAX);
        for (i, t) in segment.iter().enumerate() {
            let bank = usize::from(t.bank);
            if self.first_use[bank] == usize::MAX {
                self.first_use[bank] = i;
            } else if i - self.first_use[bank] >= w || self.latest[bank] == t.row {
                continue;
            }
            self.latest[bank] = t.row;
            self.pairs.push(BankRow {
                row: t.row,
                bank: t.bank,
            });
        }
        let sensitive = self.pairs.len();
        if keeps {
            self.closed.fill(NO_ROW);
            for t in &segment[..segment.len() - (w - 1)] {
                self.closed[usize::from(t.bank)] = t.row;
            }
            self.pairs.extend(
                // At most 2^16 banks: every index fits a `u16`.
                (0..=u16::MAX)
                    .zip(&self.closed)
                    .filter(|&(_, &row)| row != NO_ROW)
                    .map(|(bank, &row)| BankRow { row, bank }),
            );
        }
        Certificate {
            keeps,
            bounds: [start, sensitive, self.pairs.len()],
        }
    }
}

/// Appends to `order` the FR-FCFS service order of `run`, a channel's
/// spans served from the open rows `bank_row` under a `window`-deep
/// lookahead, as indexes into `run` (at most 2^32 - 1 spans): the picks
/// of [`crate::hbm::Hbm`]'s channel drain, without timing. Each pick is
/// the oldest pending row hit, else the oldest pending span, which
/// misses and opens its row in `bank_row`.
///
/// Only a miss opens a row, and one is picked only when nothing pending
/// hits, so after it the pending hits are exactly its bank's pending
/// spans of its row. Each pending span carries whether it hits, and a
/// count of the hits spares a pick with none the search. `same_row`
/// counts the pending spans per `(bank, row)` hash slot: a same-row span
/// shares its slot with the miss, so the miss scans the window for them
/// only when its slot holds another pending span. Every span that
/// arrives is picked, so the counts end at zero and one table serves
/// every cell of a schedule.
fn frfcfs_order(
    run: &[SpanTuple],
    window: usize,
    bank_row: &mut [u32],
    same_row: &mut RowSlots<u32>,
    order: &mut Vec<u32>,
) {
    let window = window.min(run.len());
    same_row.reserve(window);
    // Pending spans, oldest first: run index and whether it hits.
    let mut pending: VecDeque<(u32, bool)> = VecDeque::with_capacity(window);
    let mut arrivals = (0u32..).zip(run);
    let mut hits = 0usize;
    loop {
        // Each pick makes room for one arrival, so the window stays
        // full until the run ends.
        while pending.len() < window {
            let Some((i, t)) = arrivals.next() else {
                break;
            };
            let hit = bank_row[usize::from(t.bank)] == t.row;
            hits += usize::from(hit);
            let slot = same_row.slot(t);
            same_row.slots[slot] += 1;
            pending.push_back((i, hit));
        }
        let pick = match hits {
            0 => 0,
            _ => pending.iter().position(|&(_, hit)| hit).unwrap_or(0),
        };
        let Some((i, hit)) = pending.remove(pick) else {
            return;
        };
        order.push(i);
        let t = run[idx(i)];
        let slot = same_row.slot(&t);
        same_row.slots[slot] -= 1;
        if hit {
            hits -= 1;
            continue;
        }
        bank_row[usize::from(t.bank)] = t.row;
        if same_row.slots[slot] == 0 {
            continue;
        }
        for (j, hit) in &mut pending {
            let p = &run[idx(*j)];
            if p.row == t.row && p.bank == t.bank {
                *hit = true;
                hits += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hbm::{ControllerPolicy, Hbm};
    use crate::request::RequestKind;

    /// Deterministic request stream generator (multiplicative LCG).
    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0 >> 16
        }
    }

    fn random_batch(rng: &mut Lcg, len: usize) -> Vec<MemRequest> {
        (0..len)
            .map(|_| {
                let kind = RequestKind::ALL[(rng.next() % 4) as usize];
                let addr = rng.next() % (1 << 30);
                let bytes = 1 + (rng.next() % 9000) as u32;
                if kind == RequestKind::OutputFeatures && rng.next().is_multiple_of(2) {
                    MemRequest::write(kind, addr, bytes)
                } else {
                    MemRequest::read(kind, addr, bytes)
                }
            })
            .collect()
    }

    /// `program`'s service order under `cfg`'s controller: program order
    /// (`None`) in order or when FR-FCFS keeps arrival order, else the
    /// FR-FCFS schedule.
    fn schedule_for(program: &SpanProgram, cfg: &HbmConfig) -> Option<SpanSchedule> {
        match cfg.controller {
            ControllerPolicy::InOrder => None,
            ControllerPolicy::FrFcfs { window } => {
                program.schedule(window).expect("runs fit the index")
            }
        }
    }

    /// The program of `batches`, one step per batch.
    fn build(cfg: &HbmConfig, batches: &[Vec<MemRequest>]) -> SpanProgram {
        let mut builder = SpanProgramBuilder::new(cfg).expect("valid geometry");
        for b in batches {
            builder.push_step(b).expect("rows fit a span");
        }
        builder.finish()
    }

    /// Replays `batches` through one fresh reference `Hbm` per config and
    /// one fresh replayer whose lanes are the configs, over
    /// `program`/`schedule`, asserting each lane's completion equals its
    /// `Hbm`'s after every step and its statistics at the end; returns
    /// the replayer. In each lane, step `s + 1` arrives `gaps[s]` cycles
    /// after step `s` completes.
    fn assert_lanes_match_hbm<const L: usize>(
        cfgs: [HbmConfig; L],
        program: &SpanProgram,
        schedule: Option<&SpanSchedule>,
        batches: &[Vec<MemRequest>],
        gaps: &[u64],
    ) -> SpanReplayer<L> {
        let mut hbms = cfgs.map(Hbm::new);
        let mut replayer = SpanReplayer::new(&cfgs).expect("valid geometry");
        let mut now = [0; L];
        for (step, b) in batches.iter().enumerate() {
            let t_replay = replayer.replay_step(program, schedule, step, now);
            let stats = replayer.stats();
            for (l, hbm) in hbms.iter_mut().enumerate() {
                let t_hbm = hbm.service_batch(b, now[l]);
                assert_eq!(t_hbm, t_replay[l], "step {step} diverged: {:?}", cfgs[l]);
                assert_eq!(hbm.stats(), stats[l], "step {step}: {:?}", cfgs[l]);
                now[l] = t_hbm + gaps[step % gaps.len()];
            }
        }
        let (channels, full) = (replayer.channel_stats(), replayer.hbm_stats());
        for (l, hbm) in hbms.iter().enumerate() {
            assert_eq!(hbm.channel_stats(), channels[l]);
            assert!(full[l].consistent());
        }
        replayer
    }

    /// The one-lane [`assert_lanes_match_hbm`].
    fn assert_steps_match_hbm(
        cfg: HbmConfig,
        program: &SpanProgram,
        schedule: Option<&SpanSchedule>,
        batches: &[Vec<MemRequest>],
        gaps: &[u64],
    ) -> SpanReplayer<1> {
        assert_lanes_match_hbm([cfg], program, schedule, batches, gaps)
    }

    /// Builds a program (and `cfg`'s schedule) from LCG batches and
    /// replays it against the reference `Hbm` walk, asserting
    /// bit-identical completions and statistics for `cfg`'s controller.
    fn assert_replay_matches_hbm(cfg: HbmConfig, seed: u64) {
        let mut rng = Lcg(seed);
        let batch_lens = [0usize, 1, 7, 64, 300];
        let batches: Vec<Vec<MemRequest>> = batch_lens
            .iter()
            .map(|&l| random_batch(&mut rng, l))
            .collect();
        let program = build(&cfg, &batches);
        assert!(program.matches(&cfg));
        assert_eq!(program.steps(), batches.len());
        let gaps: Vec<u64> = (0..batches.len()).map(|_| rng.next() % 50).collect();
        let schedule = schedule_for(&program, &cfg);
        assert_steps_match_hbm(cfg, &program, schedule.as_ref(), &batches, &gaps);
    }

    fn geometry_variants() -> Vec<HbmConfig> {
        let base = HbmConfig::hbm1();
        vec![
            base,
            HbmConfig::hbm1_uncoordinated(),
            HbmConfig {
                channels: 1,
                banks: 1,
                ..base
            },
            HbmConfig {
                channels: 2,
                banks: 4,
                row_bytes: 512,
                burst_bytes: 64,
                ..base
            },
            HbmConfig {
                channels: 16,
                banks: 32,
                t_burst: 3,
                t_row: 11,
                t_cas: 5,
                ..base
            },
            HbmConfig {
                row_bytes: 4096,
                burst_bytes: 4096,
                mapping: MappingScheme::RowInterleaved,
                ..base
            },
            // Rows of 256 MB span two 128 MB channel ranges, so a span's
            // channel follows its start address within the row.
            HbmConfig {
                channels: 4,
                row_bytes: 1 << 28,
                burst_bytes: 1 << 13,
                mapping: MappingScheme::RowInterleaved,
                ..base
            },
        ]
    }

    #[test]
    fn replay_matches_hbm_in_order() {
        for (i, cfg) in geometry_variants().into_iter().enumerate() {
            for seed in 1..=4 {
                assert_replay_matches_hbm(cfg, 1000 + 10 * i as u64 + seed);
            }
        }
    }

    #[test]
    fn replay_matches_hbm_frfcfs_across_windows() {
        // `usize::MAX` sees whole runs, like the reference walk.
        for window in [1usize, 4, 16, 64, 65, 200, usize::MAX] {
            for (i, base) in geometry_variants().into_iter().enumerate() {
                let cfg = HbmConfig {
                    controller: ControllerPolicy::FrFcfs { window },
                    ..base
                };
                for seed in 1..=3 {
                    assert_replay_matches_hbm(
                        cfg,
                        5000 + 100 * window.min(1000) as u64 + 10 * i as u64 + seed,
                    );
                }
            }
        }
    }

    #[test]
    fn old_row_miss_outlives_many_younger_row_hits() {
        // One channel: step 0 opens row A of bank 0; step 1 queues a
        // miss to row B of the same bank ahead of many more than
        // 2 x window hits to A, enough to cycle the window queue.
        // FR-FCFS serves every hit first, so the miss outlives them all
        // and each hit stays a hit; in order, the miss would close A.
        let base = HbmConfig {
            channels: 1,
            ..HbmConfig::hbm1()
        };
        let row_addr = |row: u64| row * base.banks as u64 * base.row_bytes;
        let read = |addr: u64| MemRequest::read(RequestKind::InputFeatures, addr, 32);
        for window in [2usize, 7, 65, 200] {
            let cfg = HbmConfig {
                controller: ControllerPolicy::FrFcfs { window },
                ..base
            };
            let hits = 4 * window.max(64) as u64;
            let batches = [
                vec![read(row_addr(1))],
                std::iter::once(read(row_addr(2)))
                    .chain((0..hits).map(|i| read(row_addr(1) + 32 * (i % 64))))
                    .collect::<Vec<_>>(),
            ];
            let program = build(&cfg, &batches);
            let schedule = program.schedule(window).unwrap();
            assert!(
                schedule.is_some(),
                "window {window}: the hits overtake the miss"
            );
            let replayer = assert_steps_match_hbm(cfg, &program, schedule.as_ref(), &batches, &[0]);
            let [stats] = replayer.stats();
            assert_eq!(
                (stats.row_hits, stats.row_misses),
                (hits, 2),
                "window {window}"
            );
        }
    }

    #[test]
    fn oldest_hit_search_wraps_around_the_ring() {
        // Window 65: 260 row misses to fresh rows cycle the window
        // queue's ring buffer several times before the 261st tuple, a
        // hit on the row the 11th tuple left open, arrives behind 64
        // pending misses: the oldest-hit search must find it wherever
        // the buffer wraps, and it overtakes them all.
        let cfg = HbmConfig {
            channels: 1,
            controller: ControllerPolicy::FrFcfs { window: 65 },
            ..HbmConfig::hbm1()
        };
        let page = |bank: u64, row: u64| (row * cfg.banks as u64 + bank) * cfg.row_bytes;
        let read = |addr: u64| MemRequest::read(RequestKind::InputFeatures, addr, 32);
        let batch: Vec<MemRequest> = (0..260u64)
            .map(|i| {
                if i == 10 {
                    page(15, 7)
                } else {
                    page(i % 15, 100 + i)
                }
            })
            .chain(std::iter::once(page(15, 7)))
            .map(read)
            .collect();
        let batches = [batch];
        let program = build(&cfg, &batches);
        let schedule = program.schedule(65).unwrap();
        assert!(
            schedule.is_some(),
            "the hit overtakes the misses ahead of it"
        );
        let replayer = assert_steps_match_hbm(cfg, &program, schedule.as_ref(), &batches, &[0]);
        assert_eq!(replayer.stats()[0].row_hits, 1);
    }

    #[test]
    fn program_is_controller_and_timing_agnostic() {
        // One program built once serves in-order and FR-FCFS replayers,
        // and one FR-FCFS schedule serves every timing: a 3-lane pass
        // and each timing alone are bit-identical to their own reference
        // walks.
        let base = HbmConfig::hbm1();
        let mut rng = Lcg(9);
        let batches = [random_batch(&mut rng, 120), random_batch(&mut rng, 40)];
        let program = build(&base, &batches);
        let schedule = program.schedule(8).unwrap();
        let frfcfs = HbmConfig {
            controller: ControllerPolicy::FrFcfs { window: 8 },
            ..base
        };
        for controller in [base, frfcfs] {
            let cfgs =
                [(1, 28, 14), (1, 5, 2), (3, 11, 0)].map(|(t_burst, t_row, t_cas)| HbmConfig {
                    t_burst,
                    t_row,
                    t_cas,
                    ..controller
                });
            assert!(cfgs.iter().all(|cfg| program.matches(cfg)));
            let order = schedule
                .as_ref()
                .filter(|_| controller.controller != ControllerPolicy::InOrder);
            let lanes = assert_lanes_match_hbm(cfgs, &program, order, &batches, &[3]);
            for (l, cfg) in cfgs.into_iter().enumerate() {
                let alone = assert_steps_match_hbm(cfg, &program, order, &batches, &[3]);
                assert_eq!(alone.hbm_stats()[0], lanes.hbm_stats()[l]);
            }
        }
        // A different decode geometry is not a match.
        assert!(!program.matches(&HbmConfig {
            channels: 4,
            ..base
        }));
        assert!(!program.matches(&HbmConfig::hbm1_uncoordinated()));
    }

    /// The window queue's service order of every cell of `program`,
    /// kept as a schedule entry where it is not arrival order: the
    /// FR-FCFS reference the identity pass must agree with.
    fn queue_schedule(program: &SpanProgram, window: usize) -> Option<SpanSchedule> {
        let banks = program.banks;
        let mut bank_row = vec![NO_ROW; program.channels * banks];
        let (mut cells, mut order, mut scratch) = (Vec::new(), Vec::new(), Vec::new());
        let mut same_row = RowSlots::default();
        for cell in 0..program.offsets.len() - 1 {
            let c = cell % program.channels;
            let run = program.cell_run(cell / program.channels, c, &mut scratch);
            let start = order.len();
            let rows = &mut bank_row[c * banks..(c + 1) * banks];
            frfcfs_order(run, window.max(1), rows, &mut same_row, &mut order);
            assert!(same_row.slots.iter().all(|&n| n == 0), "cell {cell}");
            if order[start..].iter().zip(0u32..).all(|(&i, j)| i == j) {
                order.truncate(start);
            } else {
                cells.push((cell, start));
            }
        }
        (!cells.is_empty()).then_some(SpanSchedule { cells, order })
    }

    /// Asserts that `program.schedule(window)` is the window queue's
    /// schedule: `None` exactly when the queue serves every cell in
    /// arrival order, else its reordered cells; returns whether arrival
    /// order was kept.
    fn assert_schedule_matches_queue(program: &SpanProgram, window: usize) -> bool {
        let queue = queue_schedule(program, window);
        let schedule = program.schedule(window).expect("runs fit the index");
        assert_eq!(schedule, queue, "window {window}");
        schedule.is_none()
    }

    /// A 32-byte read of `(channel, bank, row)` under `cfg`'s
    /// channel-interleaved mapping: one span.
    fn read_at(cfg: &HbmConfig, (channel, bank, row): (u64, u64, u64)) -> MemRequest {
        let page = (row * cfg.banks as u64 + bank) * cfg.channels as u64 + channel;
        MemRequest::read(RequestKind::InputFeatures, page * cfg.row_bytes, 32)
    }

    /// The program of one step per list of `(channel, bank, row)` spans.
    fn program_of(cfg: &HbmConfig, steps: &[Vec<(u64, u64, u64)>]) -> SpanProgram {
        let batches: Vec<Vec<MemRequest>> = steps
            .iter()
            .map(|s| s.iter().map(|&key| read_at(cfg, key)).collect())
            .collect();
        build(cfg, &batches)
    }

    /// One channel of `hbm1`'s 16 banks, as `(bank, row)` spans.
    fn one_channel(steps: &[&[(u64, u64)]]) -> SpanProgram {
        let cfg = HbmConfig {
            channels: 1,
            ..HbmConfig::hbm1()
        };
        let steps: Vec<Vec<(u64, u64, u64)>> = steps
            .iter()
            .map(|s| s.iter().map(|&(bank, row)| (0, bank, row)).collect())
            .collect();
        program_of(&cfg, &steps)
    }

    #[test]
    fn window_one_always_keeps_arrival_order() {
        // Two rows of one bank, alternating: any deeper window promotes
        // the pending hit over the head's miss.
        let run: Vec<(u64, u64)> = (0..64).map(|i| (0, 1 + i % 2)).collect();
        let program = one_channel(&[&run]);
        assert!(assert_schedule_matches_queue(&program, 1));
        assert!(assert_schedule_matches_queue(&program, 0), "0 acts as 1");
        assert!(!assert_schedule_matches_queue(&program, 2));
    }

    #[test]
    fn a_same_row_span_hits_inside_the_window_and_on_arrival() {
        // Span 0 opens (0, 1), span 1 misses on (0, 2) and fresh rows of
        // the other banks fill the rest; a second (0, 1) sits at
        // distance `d`. At W - 1 it is pending when span 0 opens its row
        // (the slot lookup finds it); at W it arrives right after, as a
        // hit: either way it overtakes span 1. At W + 1 span 1 has
        // closed the row before it arrives.
        for window in [2usize, 4, 16, 65] {
            for (d, kept) in [(window - 1, false), (window, false), (window + 1, true)] {
                if d < 2 {
                    continue;
                }
                let mut run: Vec<(u64, u64)> =
                    (0..d as u64 + 8).map(|i| (1 + i % 15, 100 + i)).collect();
                (run[0], run[1], run[d]) = ((0, 1), (0, 2), (0, 1));
                let program = one_channel(&[&run]);
                assert_eq!(
                    assert_schedule_matches_queue(&program, window),
                    kept,
                    "window {window}, distance {d}"
                );
            }
        }
    }

    #[test]
    fn a_head_hit_is_picked_while_another_hit_is_pending() {
        // The head hits and is the oldest hit, so FR-FCFS picks it even
        // with younger hits pending, on its own row or on another
        // bank's open row.
        let same_row = [(0, 1), (0, 1), (0, 1), (1, 5), (1, 5), (2, 9)];
        assert!(assert_schedule_matches_queue(&one_channel(&[&same_row]), 8));
        let open = one_channel(&[&[(0, 1), (1, 5)], &[(0, 1), (1, 5), (2, 9)]]);
        assert!(assert_schedule_matches_queue(&open, 8));
        // A head miss with a hit pending behind it is overtaken.
        let overtaken = [(0, 1), (1, 5), (0, 1), (2, 9)];
        assert!(!assert_schedule_matches_queue(
            &one_channel(&[&overtaken]),
            8
        ));
    }

    #[test]
    fn a_reordered_cell_between_kept_cells() {
        // Two channels, three steps: only step 1's channel 1 reorders,
        // so the schedule holds that cell alone. The cells before and
        // after it replay in program order, and the open rows the
        // reordered cell leaves carry into step 2 (its (5, 1) hits).
        let cfg = HbmConfig {
            channels: 2,
            controller: ControllerPolicy::FrFcfs { window: 8 },
            ..HbmConfig::hbm1()
        };
        let steps = vec![
            vec![(0, 0, 1), (0, 0, 1), (1, 0, 3), (0, 1, 2), (1, 2, 4)],
            vec![(0, 3, 1), (1, 5, 1), (0, 3, 1), (1, 6, 2), (1, 5, 1)],
            vec![(1, 5, 1), (0, 0, 1), (1, 6, 2), (0, 3, 7)],
        ];
        let program = program_of(&cfg, &steps);
        assert!(!assert_schedule_matches_queue(&program, 8));
        let schedule = program.schedule(8).unwrap();
        let cells: Vec<usize> = schedule
            .iter()
            .flat_map(|s| &s.cells)
            .map(|&(c, _)| c)
            .collect();
        assert_eq!(cells, [3]);
        let batches: Vec<Vec<MemRequest>> = steps
            .iter()
            .map(|s| s.iter().map(|&key| read_at(&cfg, key)).collect())
            .collect();
        assert_steps_match_hbm(cfg, &program, schedule.as_ref(), &batches, &[2]);
    }

    #[test]
    fn a_window_past_the_run_sees_the_whole_run() {
        let mut rng = Lcg(17);
        let run: Vec<(u64, u64)> = (0..40).map(|_| (rng.next() % 3, rng.next() % 2)).collect();
        let program = one_channel(&[&run]);
        for window in [39, 40, 41, 1000, usize::MAX] {
            assert!(!assert_schedule_matches_queue(&program, window));
        }
        // Grouped by row, the same spans keep arrival order at any depth.
        let mut grouped = run.clone();
        grouped.sort_unstable();
        let program = one_channel(&[&grouped]);
        for window in [39, 40, 41, 1000, usize::MAX] {
            assert!(assert_schedule_matches_queue(&program, window));
        }
    }

    /// `len` short reads clustered in `rows` random rows: grouped row by
    /// row (a coordinated stream) or interleaved.
    fn row_local_batch(
        rng: &mut Lcg,
        cfg: &HbmConfig,
        len: usize,
        rows: u64,
        grouped: bool,
    ) -> Vec<MemRequest> {
        let bases: Vec<u64> = (0..rows)
            .map(|_| rng.next() % (1 << 30) / cfg.row_bytes * cfg.row_bytes)
            .collect();
        let mut batch: Vec<MemRequest> = (0..len)
            .map(|_| {
                let base = bases[(rng.next() % rows) as usize];
                let bytes = 1 + rng.next() % 64;
                let addr = base + rng.next() % (cfg.row_bytes - bytes);
                MemRequest::read(RequestKind::InputFeatures, addr, bytes as u32)
            })
            .collect();
        if grouped {
            batch.sort_by_key(|r| r.addr / cfg.row_bytes);
        }
        batch
    }

    /// The first byte of `(channel, bank, row)`'s page under `cfg`'s
    /// mapping (a row-interleaved row must sit in the channel's first
    /// 128 MB).
    fn page_addr(cfg: &HbmConfig, (channel, bank, row): (u64, u64, u64)) -> u64 {
        let (channels, banks) = (cfg.channels as u64, cfg.banks as u64);
        match cfg.mapping {
            MappingScheme::ChannelInterleaved => {
                ((row * banks + bank) * channels + channel) * cfg.row_bytes
            }
            MappingScheme::RowInterleaved => {
                (channel << CHANNEL_SPAN_SHIFT) + (row * banks + bank) * cfg.row_bytes
            }
        }
    }

    /// Steps that repeat request blocks beside unique ones: a multi-row
    /// sequential sweep beside a unique edge and output block, a block
    /// of a few reads of one row per bank carried from the end of one
    /// step into the start of the next (its start rows are its own, so
    /// they hit its sensitive pairs), and a short edge block. With
    /// `crossing`, two steps also end on a block whose last span in
    /// channel 0 misses in bank 0 right before a block whose first read
    /// hits the row that miss closed: a pending hit across a block
    /// boundary.
    fn repeated_block_batches(
        rng: &mut Lcg,
        cfg: &HbmConfig,
        crossing: bool,
    ) -> Vec<Vec<MemRequest>> {
        let (channels, banks) = (cfg.channels as u64, cfg.banks as u64);
        let read = MemRequest::read;
        let bytes = cfg.row_bytes / 4 + rng.next() % (2 * cfg.row_bytes);
        let base = page_addr(cfg, (0, 0, 8 + rng.next() % 8)) + rng.next() % cfg.row_bytes;
        let sweep: Vec<MemRequest> = (0..40 * channels + rng.next() % 20)
            .map(|i| read(RequestKind::InputFeatures, base + i * bytes, bytes as u32))
            .collect();
        let reps = 2 + rng.next() % 4;
        let row = 40 + rng.next() % 8;
        let carried: Vec<MemRequest> = (0..channels * banks * reps)
            .map(|i| {
                let page = page_addr(cfg, (i % channels, i / channels % banks, row));
                read(RequestKind::Weights, page + 64 * (i / channels / banks), 32)
            })
            .collect();
        let mut unique = |kind: RequestKind, len: u64| -> Vec<MemRequest> {
            (0..len)
                .map(|_| {
                    let addr = rng.next() % (1 << 26);
                    match kind {
                        RequestKind::OutputFeatures => MemRequest::write(kind, addr, 256),
                        _ => read(kind, addr, 64),
                    }
                })
                .collect()
        };
        let short = unique(RequestKind::Edges, 3);
        let steps: Vec<Vec<Vec<MemRequest>>> = vec![
            vec![
                unique(RequestKind::Edges, 2),
                sweep.clone(),
                unique(RequestKind::OutputFeatures, 4),
            ],
            vec![short.clone(), sweep.clone(), carried.clone()],
            vec![carried.clone(), unique(RequestKind::OutputFeatures, 3)],
            vec![
                unique(RequestKind::Edges, 1),
                sweep.clone(),
                carried,
                unique(RequestKind::OutputFeatures, 2),
            ],
            vec![short.clone(), sweep],
        ];
        let mut batches: Vec<Vec<MemRequest>> =
            steps.into_iter().map(|blocks| blocks.concat()).collect();
        if crossing {
            // Channel 0: row 1 of every bank, then row 2 of bank 0; the
            // next block reads row 1 of bank 0 again.
            let turn: Vec<MemRequest> = (0..banks * reps)
                .map(|i| page_addr(cfg, (0, i % banks, 1)) + 64 * (i / banks))
                .chain([page_addr(cfg, (0, 0, 2))])
                .map(|addr| read(RequestKind::InputFeatures, addr, 32))
                .collect();
            let back = read(RequestKind::Weights, page_addr(cfg, (0, 0, 1)) + 32, 32);
            let step = [short, turn, vec![back]].concat();
            batches.extend([step.clone(), step]);
        }
        batches
    }

    /// The identity pass's certified segments, dirty fallbacks and seam
    /// rejections over `program` under `window`.
    fn pass_tally(program: &SpanProgram, window: usize) -> [u64; 3] {
        let mut pass = IdentityPass::new(program, window.max(1));
        program.order(&mut pass).expect("runs fit the index");
        [pass.certified, pass.dirty, pass.seam_rejections]
    }

    #[test]
    fn identity_pass_equals_the_window_queue_on_random_programs() {
        let geometries = [
            HbmConfig {
                channels: 1,
                banks: 4,
                ..HbmConfig::hbm1()
            },
            HbmConfig::hbm1(),
            HbmConfig {
                channels: 2,
                row_bytes: 512,
                ..HbmConfig::hbm1_uncoordinated()
            },
        ];
        let (mut kept, mut reordered) = (0, 0);
        let mut tally = [0; 3];
        for (g, cfg) in geometries.iter().enumerate() {
            for seed in 0..6u64 {
                let mut rng = Lcg(700 + 10 * g as u64 + seed);
                // Four distinct batches, or steps that repeat blocks.
                let batches: Vec<Vec<MemRequest>> = if seed < 4 {
                    (0..4)
                        .map(|step| match (seed + step) % 4 {
                            0 => random_batch(&mut rng, 40),
                            rows => row_local_batch(&mut rng, cfg, 150, rows + 1, seed < 2),
                        })
                        .collect()
                } else {
                    repeated_block_batches(&mut rng, cfg, seed == 5)
                };
                let program = build(cfg, &batches);
                for window in (1..=200).chain([usize::MAX]) {
                    if assert_schedule_matches_queue(&program, window) {
                        kept += 1;
                    } else {
                        reordered += 1;
                    }
                    for (sum, n) in tally.iter_mut().zip(pass_tally(&program, window)) {
                        *sum += n;
                    }
                }
            }
        }
        assert!(
            kept > 0 && reordered > 0,
            "{kept} kept, {reordered} reordered"
        );
        let [certified, dirty, seam_rejections] = tally;
        assert!(
            certified > 0 && dirty > 0 && seam_rejections > 0,
            "{certified} certified, {dirty} dirty, {seam_rejections} seam rejections"
        );
    }

    /// A block of `kind` reads, one 32-byte read of each `(bank, row)`
    /// of `cfg`'s channel 0.
    fn reads(cfg: &HbmConfig, kind: RequestKind, keys: &[(u64, u64)]) -> Vec<MemRequest> {
        keys.iter()
            .map(|&(bank, row)| MemRequest::read(kind, read_at(cfg, (0, bank, row)).addr, 32))
            .collect()
    }

    #[test]
    fn certificates_hold_from_clean_rows_and_seams_see_across_blocks() {
        // One channel, window 8. `rows` reads row 5 of banks 0-7 four
        // times each; `closing` adds a miss to row 9 of bank 0 at its
        // end, and `reopen` reads row 5 of bank 0 again.
        let cfg = HbmConfig {
            channels: 1,
            ..HbmConfig::hbm1()
        };
        let block = |kind, keys: &[(u64, u64)]| reads(&cfg, kind, keys);
        let keys: Vec<(u64, u64)> = (0..32).map(|i| (i / 4, 5)).collect();
        let rows = block(RequestKind::Weights, &keys);
        let closing = block(RequestKind::InputFeatures, &[keys, vec![(0, 9)]].concat());
        let reopen = block(RequestKind::Edges, &[(0, 5)]);
        let elsewhere: Vec<(u64, u64)> = (0..8).map(|bank| (bank, 7)).collect();
        let elsewhere = block(RequestKind::Edges, &elsewhere);
        // The block again right after itself starts from its own rows,
        // which hold every sensitive pair: it is walked, and keeps
        // arrival order.
        let carried = build(&cfg, &[rows.clone(), rows.clone()]);
        assert!(assert_schedule_matches_queue(&carried, 8));
        assert_eq!(pass_tally(&carried, 8), [1, 1, 0]);
        // Certified twice from clean rows. In the first step the last
        // head of `closing` misses while `reopen`'s hit is pending in the
        // next block: only the seam after the certificate sees it. In the
        // second, the walk over `elsewhere` and the certificate's first
        // seam keep arrival order.
        let crossing = build(
            &cfg,
            &[
                [closing.clone(), reopen.clone()].concat(),
                [elsewhere, closing].concat(),
            ],
        );
        assert!(!assert_schedule_matches_queue(&crossing, 8));
        let [certified, dirty, seam_rejections] = pass_tally(&crossing, 8);
        assert_eq!((certified, dirty), (2, 0));
        assert_eq!(seam_rejections, 1);
        // Window 1 never reorders; a window past the block certifies
        // nothing.
        assert!(assert_schedule_matches_queue(&crossing, 1));
        assert_eq!(pass_tally(&crossing, 40)[0], 0);
        // A miss to row 9 of bank 0 right before the certified block,
        // with row 5 open: the block's first read is a pending hit that
        // only the seam before the certificate sees. The last step
        // carries the block on, so it is walked.
        let leading = build(
            &cfg,
            &[
                reopen,
                [block(RequestKind::InputFeatures, &[(0, 9)]), rows.clone()].concat(),
                rows,
            ],
        );
        assert!(!assert_schedule_matches_queue(&leading, 8));
        assert_eq!(pass_tally(&leading, 8), [1, 1, 1]);
        // Bank 1's first use opens row 5, and its use `W - 1` spans later
        // reads row 6: still sensitive. From a start with row 6 open, the
        // first use misses with that hit pending, so the block reorders
        // although it keeps arrival order from closed banks. Its second
        // copy is carried on from the first: both are walked.
        let late: Vec<(u64, u64)> = (1..8).map(|bank| (bank, 5)).chain([(1, 6)]).collect();
        let late = block(RequestKind::Weights, &late);
        let open_six = block(RequestKind::Edges, &[(1, 6)]);
        let sensitive = build(&cfg, &[open_six, late.clone(), late]);
        assert!(!assert_schedule_matches_queue(&sensitive, 8));
        assert_eq!(pass_tally(&sensitive, 8), [0, 2, 0]);
    }

    #[test]
    fn a_certificate_is_built_from_closed_banks() {
        // One channel, window 8. `first` leaves row 6 of bank 1 open
        // `W - 1` spans before its end. `second` opens row 5 of bank 1
        // and reads row 6 four spans later: from closed banks it keeps
        // arrival order, from `first`'s rows its head would miss with a
        // hit pending. Both are certified (`second` after `z` closes row
        // 6, and after `spread` opens row 7 of its banks), `first` is
        // walked when `second` carries row 6 into it, and nothing
        // reorders.
        let cfg = HbmConfig {
            channels: 1,
            ..HbmConfig::hbm1()
        };
        let first: Vec<(u64, u64)> = [(1, 6)].into_iter().chain([(2, 5); 10]).collect();
        let first = reads(&cfg, RequestKind::InputFeatures, &first);
        let second = [
            (1, 5),
            (3, 5),
            (4, 5),
            (5, 5),
            (1, 6),
            (6, 5),
            (7, 5),
            (8, 5),
            (9, 5),
        ];
        let second = reads(&cfg, RequestKind::Weights, &second);
        let z = reads(&cfg, RequestKind::Edges, &[(1, 7)]);
        let spread: Vec<(u64, u64)> = [1, 3, 4, 5, 6, 7, 8, 9].map(|bank| (bank, 7)).into();
        let spread = reads(&cfg, RequestKind::Edges, &spread);
        let program = build(
            &cfg,
            &[
                first.clone(),
                z,
                second.clone(),
                first,
                [spread, second].concat(),
            ],
        );
        assert!(assert_schedule_matches_queue(&program, 8));
        assert_eq!(pass_tally(&program, 8), [3, 1, 0]);
    }

    #[test]
    fn a_planned_program_is_decoded_in_place() {
        for cfg in geometry_variants() {
            let mut rng = Lcg(31);
            let mut batches: Vec<Vec<MemRequest>> = [0, 5, 80, 300]
                .map(|len| random_batch(&mut rng, len))
                .into();
            // Repeated batches: their blocks are planned and pooled once.
            batches.extend([batches[3].clone(), batches[2].clone()]);
            let mut builder = SpanProgramBuilder::new(&cfg).unwrap();
            for b in &batches {
                builder.plan_step(b);
            }
            let spans = builder.reserve();
            let buffers = (
                builder.pool.as_ptr(),
                builder.offsets.as_ptr(),
                builder.segments.as_ptr(),
                builder.step_blocks.as_ptr(),
            );
            for b in &batches {
                builder.push_step(b).unwrap();
            }
            let after = (
                builder.pool.as_ptr(),
                builder.offsets.as_ptr(),
                builder.segments.as_ptr(),
                builder.step_blocks.as_ptr(),
            );
            assert_eq!(after, buffers, "{cfg:?}: reallocated");
            let program = builder.finish();
            assert_eq!(program.pool.len(), spans);
            assert_eq!(program.pool.capacity(), spans);
            assert!(
                program.total_tuples() > spans,
                "{cfg:?}: repeats are pooled"
            );
            assert_eq!(program, build(&cfg, &batches), "{cfg:?}");
        }
    }

    #[test]
    fn a_row_past_the_span_bound_is_an_error_that_records_nothing() {
        // One channel and bank of 1-byte rows: an address is its row.
        let cfg = HbmConfig {
            channels: 1,
            banks: 1,
            row_bytes: 1,
            burst_bytes: 1,
            ..HbmConfig::hbm1()
        };
        let read = |kind, addr, bytes| MemRequest::read(kind, addr, bytes);
        let top = u64::from(NO_ROW);
        let first = read(RequestKind::InputFeatures, top - 2, 2);
        let fresh = read(RequestKind::Edges, 0, 4);
        let mut builder = SpanProgramBuilder::new(&cfg).unwrap();
        builder.push_step(&[first]).unwrap();
        let before = builder.clone().finish();
        for bad in [top - 1, top, 1 << 40] {
            // A shared block and a new one decode before the bad block
            // fails: none of the step stays, in the pool or the table.
            let bad = read(RequestKind::Weights, bad, 2);
            let err = builder.push_step(&[first, fresh, bad]).unwrap_err();
            assert!(err.contains("row"), "{err}");
        }
        assert_eq!(builder.clone().finish(), before);
        assert_eq!(builder.shared, 0);
        builder.push_step(&[fresh]).unwrap();
        let program = builder.finish();
        assert_eq!(program, build(&cfg, &[vec![first], vec![fresh]]));
        assert_eq!(program.pool[1].row, NO_ROW - 1);
    }

    /// Each channel's spans of `batch`, decoded one span at a time with
    /// [`HbmConfig::locate`]: what a cell of its step must hold.
    fn fresh_cells(cfg: &HbmConfig, batch: &[MemRequest]) -> Vec<Vec<SpanTuple>> {
        let mut cells = vec![Vec::new(); cfg.channels];
        for r in batch {
            let (mut addr, end) = (r.addr, r.addr + u64::from(r.bytes));
            while addr < end {
                let span_end = ((addr / cfg.row_bytes + 1) * cfg.row_bytes).min(end);
                let (channel, bank, row) = cfg.locate(addr);
                cells[channel].push(SpanTuple {
                    row: row as u32,
                    bank: bank as u16,
                    bursts: (span_end - addr).div_ceil(cfg.burst_bytes) as u16,
                });
                addr = span_end;
            }
        }
        cells
    }

    /// Steps that repeat blocks: a multi-row sequential feature sweep
    /// and a weight block in every step beside a different small edge
    /// block, one step of the sweep alone and one step pushed twice.
    fn repeating_batches(cfg: &HbmConfig) -> Vec<Vec<MemRequest>> {
        // About 2.5 pages per bank of the stack, so every bank reopens.
        let reads = (cfg.channels * cfg.banks * 5 / 6 + 8) as u64;
        let sweep: Vec<MemRequest> = (0..reads)
            .map(|i| {
                let bytes = 3 * cfg.row_bytes as u32 - 40;
                MemRequest::read(
                    RequestKind::InputFeatures,
                    4096 + i * u64::from(bytes),
                    bytes,
                )
            })
            .collect();
        let weights = MemRequest::read(RequestKind::Weights, 1 << 26, 700);
        let mut batches: Vec<Vec<MemRequest>> = (0..6u64)
            .map(|s| {
                let edges = MemRequest::read(RequestKind::Edges, (1 << 27) + 5000 * s, 96);
                let mut batch = vec![edges];
                batch.extend_from_slice(&sweep);
                batch.push(weights);
                batch
            })
            .collect();
        batches.push(sweep);
        batches.push(batches[2].clone());
        batches
    }

    #[test]
    fn repeated_blocks_are_pooled_once_and_replay_exactly() {
        for base in geometry_variants().into_iter().take(5) {
            let batches = repeating_batches(&base);
            let mut builder = SpanProgramBuilder::new(&base).unwrap();
            for b in &batches {
                builder.push_step(b).unwrap();
            }
            // The sweep in 8 steps, the weights in 7 and one edge block
            // twice: each after its first decode is shared.
            assert_eq!(builder.shared, 7 + 6 + 1, "{base:?}");
            let program = builder.finish();
            assert!(program.pool_tuples() < program.total_tuples() / 3);
            let mut scratch = Vec::new();
            for (step, batch) in batches.iter().enumerate() {
                for (c, fresh) in fresh_cells(&base, batch).iter().enumerate() {
                    assert_eq!(program.cell_run(step, c, &mut scratch), &fresh[..]);
                }
            }
            // The tightest summary gap: a `t_row` of `t_burst` times it
            // keeps every summary, one cycle more sends that segment
            // span by span.
            let gap = program
                .summaries
                .iter()
                .map(|s| s.gap)
                .filter(|&g| g < u64::MAX)
                .min()
                .expect("the sweep reopens rows of its banks");
            for t_burst in [1, 3] {
                // A gap of 0 leaves no valid `t_row` at the boundary.
                for t_row in [1, gap * t_burst, gap * t_burst + 1, 300].map(|t| t.max(1)) {
                    let cfg = HbmConfig {
                        t_burst,
                        t_row,
                        ..base
                    };
                    let lanes = [cfg, HbmConfig { t_row: 1, ..cfg }];
                    let replayer = SpanReplayer::new(&lanes).unwrap();
                    let summarized = program
                        .summaries
                        .iter()
                        .filter(|s| s.gap >= replayer.summary_gap)
                        .count();
                    assert_eq!(
                        summarized == program.summaries.len(),
                        t_row <= gap * t_burst
                    );
                    assert_lanes_match_hbm(lanes, &program, None, &batches, &[0, 7]);
                    for window in [4, 64] {
                        let frfcfs = HbmConfig {
                            controller: ControllerPolicy::FrFcfs { window },
                            ..cfg
                        };
                        let schedule = schedule_for(&program, &frfcfs);
                        assert_steps_match_hbm(frfcfs, &program, schedule.as_ref(), &batches, &[3]);
                    }
                }
            }
        }
    }

    #[test]
    fn empty_step_returns_now() {
        let cfg = HbmConfig::hbm1();
        let mut builder = SpanProgramBuilder::new(&cfg).unwrap();
        builder.push_step(&[]).unwrap();
        let program = builder.finish();
        let mut replayer = SpanReplayer::new(&[cfg, HbmConfig { t_row: 3, ..cfg }]).unwrap();
        assert_eq!(replayer.replay_step(&program, None, 0, [42, 7]), [42, 7]);
        assert_eq!(replayer.stats(), [MemStats::default(); 2]);
        assert_eq!(program.total_tuples(), 0);
    }

    #[test]
    fn rejects_bad_geometry() {
        let bad = HbmConfig {
            channels: 6,
            ..HbmConfig::hbm1()
        };
        assert!(SpanProgramBuilder::new(&bad).is_err());
        assert!(SpanReplayer::new(&[bad]).is_err());
        // FR-FCFS is native here, not a rejection.
        let fr = HbmConfig {
            controller: ControllerPolicy::FrFcfs { window: 16 },
            ..HbmConfig::hbm1()
        };
        assert!(SpanProgramBuilder::new(&fr).is_ok());
        assert!(SpanReplayer::new(&[fr]).is_ok());
        // Lanes share the geometry; the schedule, not a lane's
        // controller, is the service order. A bad lane fails the
        // replayer wherever it sits.
        let base = HbmConfig::hbm1();
        let retimed = HbmConfig { t_row: 5, ..base };
        assert!(SpanReplayer::new(&[base, retimed]).is_ok());
        assert!(SpanReplayer::new(&[base, fr]).is_ok());
        assert!(SpanReplayer::new(&[base, HbmConfig { banks: 8, ..base }]).is_err());
        assert!(SpanReplayer::new(&[base, bad]).is_err());
        let slow = HbmConfig {
            t_row: HbmConfig::MAX_TIMING_CYCLES + 1,
            ..base
        };
        assert!(SpanReplayer::new(&[base, slow]).is_err());
    }
}
