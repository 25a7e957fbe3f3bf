//! Precompiled span programs: decode-once, replay-many HBM streams.
//!
//! The span walk's per-request work splits into three parts: *decoding*
//! (row-aligned splitting plus channel/bank/row bit extraction),
//! *ordering* (the controller's service order and each span's row hit
//! or miss) and *timing* (advancing bank/bus state). Decoding is a pure
//! function of the request stream and the address geometry — for a fixed
//! `(graph, config, model)` design point the stream never changes — so
//! [`SpanProgramBuilder`] runs it exactly once, emitting a flat,
//! channel-major stream of [`SpanTuple`]s per timeline step. Ordering
//! depends on the program and the controller alone, never on timing, so
//! [`SpanProgram::schedule`] runs FR-FCFS once per lookahead window: to
//! `None` when it serves every span in arrival order (HyGCN's
//! coordinated, row-sequential batches leave it almost nothing to
//! promote), else to a [`SpanSchedule`]. [`SpanReplayer`] then replays
//! program order or the schedule with SoA per-channel registers
//! (bank-ready array, bus-cycle array packed for sequential access): a
//! straight-line max-plus recurrence with no decode and no queue, and
//! over a schedule no row compare either. One replayer carries `L`
//! *timing lanes* (1 to [`MAX_LANES`]): it reads each span once and
//! runs the recurrence once per lane, so a timing sweep pays the
//! program's memory traffic (and the program-order row compare) once
//! per `L` timings.
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
//! Each program decodes into one exact-size buffer. The caller sums
//! [`SpanProgramBuilder::spans`] (one span per row-buffer page a request
//! touches) over the whole program and
//! [`SpanProgramBuilder::reserve`]s it; each step then counts its spans
//! per channel in closed form, places one write cursor per channel, and
//! writes every span straight to its channel's cursor. Nothing is
//! staged, appended or reallocated.
//!
//! ## Build/replay contract
//!
//! One [`SpanProgramBuilder::push_step`] call per timeline step, fed the
//! *scheduler-ordered* batch the staged [`crate::hbm::Hbm`] would have
//! serviced; one [`SpanReplayer::replay_step`] call per step, with each
//! lane's arrival cycle. Every lane is bit-identical to
//! [`crate::hbm::Hbm::service_batch`] under its own timing on the same
//! batches at its own arrivals — completion cycles, [`MemStats`], and
//! per-channel [`ChannelStats`] — for **both** controller policies, and
//! so equal to a one-lane replay of that timing:
//!
//! * **In-order:** a channel's tuple run is exactly its
//!   [`crate::address::ChannelPartition`] queue (same row-aligned split,
//!   same decode, arrival order preserved per channel), so the replay
//!   reads the program directly and makes the row compare of
//!   [`crate::hbm::ChannelTimeline::drain`] as it goes, once for every
//!   lane: which row a span opens depends on no timing.
//! * **FR-FCFS:** the staged drain also operates per channel over that
//!   same queue, and its windowed row-hit promotion consults only
//!   `(bank, row)` state the tuples carry. [`SpanProgram::schedule`]
//!   makes the same picks as
//!   [`crate::hbm::ChannelTimeline::drain_frfcfs`] — oldest row hit in
//!   the window, else the oldest tuple — carrying each bank's open row
//!   across steps as the drain does. Each `(step, channel)` cell first
//!   takes an *identity pass* that only tracks the youngest pending hit
//!   (`ArrivalOrder`): while every pick is the head, the head is picked
//!   unless it misses with a hit pending. A cell that fails it restores
//!   its channel's open rows and is ordered by an age-ordered ring with
//!   a row-hit mask and per-bank slot masks (`FrFcfsQueue`). If every
//!   cell passes, the result is `None`: the FR-FCFS replay *is* the
//!   program-order replay above, bit for bit. Otherwise the schedule
//!   records, per span, the index into its channel run with the
//!   row-miss flag in bit 31 (cells that passed in arrival order), and
//!   per cell the miss and burst counts — exactly what the ring alone
//!   would record. The replay walks that order, each entry read once
//!   for every lane.
//!
//! Both paths share one service step, the timing half of
//! [`crate::hbm::ChannelTimeline::service`], run per lane `l`:
//! `ready = max(bank_ready[l], now[l]) + miss·t_row[l]`, then
//! `bus[l] = max(ready, bus[l]) + bursts·t_burst[l]`. The lanes share no
//! timing state, so their chains are independent. Every span moves at
//! least one burst, so a bus only advances and a channel completes at
//! its last `bus[l] + t_cas[l]`; [`HbmConfig::validate`]'s timing bound
//! keeps every such sum far from overflow. A lane's batch completion is
//! the max over channels (never before its arrival cycle) and
//! statistics fold by summation, so the channel-major reordering of the
//! program layout is unobservable (the merge invariant of
//! [`crate::hbm`]). The lanes must share the decode geometry
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
//! orders each program once per window, and a window that keeps
//! arrival order stores no order array. The simulator then replays each
//! distinct (service order, timing) of a decode class once, `MAX_LANES`
//! timings per pass, so the in-order and arrival-keeping FR-FCFS points
//! of one timing share a lane.

use crate::address::MappingScheme;
use crate::cast::{idx, saturating_usize, widen_u64};
use crate::hbm::HbmConfig;
use crate::request::MemRequest;
use crate::stats::{ChannelStats, HbmStats, MemStats};

/// Sentinel for "no row open" (`hbm::NO_ROW` narrowed to a span's row
/// width): [`SpanProgramBuilder::push_step`] rejects a row at or above
/// it, so no decoded row ever reads as closed.
const NO_ROW: u32 = u32::MAX;

/// Bit 31 of a [`SpanSchedule`] entry: the span is a row miss.
const MISS: u32 = 1 << 31;

/// The low 31 bits of a [`SpanSchedule`] entry: the span's index in its
/// channel run.
const INDEX: u32 = MISS - 1;

/// The longest channel run a [`SpanSchedule`] can index (2^31 spans).
const MAX_RUN: usize = 1 << 31;

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
/// [`crate::hbm::Hbm::service_batch`] accumulates while partitioning).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepTraffic {
    /// Requests in the step's batch.
    pub requests: u64,
    /// Bytes read by the batch.
    pub bytes_read: u64,
    /// Bytes written by the batch.
    pub bytes_written: u64,
}

/// The decoded HBM stream of one design point: per timeline step, one
/// channel-major tuple run per channel, plus the step's request-level
/// traffic. Built once by [`SpanProgramBuilder`], replayed any number
/// of times by [`SpanReplayer`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanProgram {
    mapping: MappingScheme,
    channels: usize,
    banks: usize,
    row_bytes: u64,
    burst_bytes: u64,
    /// `offsets[step * channels + c] .. offsets[step * channels + c + 1]`
    /// bounds channel `c`'s tuple run in `tuples` for `step`.
    offsets: Vec<usize>,
    tuples: Vec<SpanTuple>,
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

    /// Total precompiled tuples across all steps.
    pub fn total_tuples(&self) -> usize {
        self.tuples.len()
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

    /// The bounds of `(step, channel)` cell `cell`'s tuple run in the
    /// program's tuples (and its service order in a [`SpanSchedule`]).
    #[inline]
    fn cell(&self, cell: usize) -> std::ops::Range<usize> {
        self.offsets[cell]..self.offsets[cell + 1]
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
    /// (`ArrivalOrder`); a cell it rejects restores its channel's open
    /// rows and is ordered by the ring (`FrFcfsQueue`). The order array
    /// is built only from the first such cell on, with the cells before
    /// it written out in arrival order.
    ///
    /// # Errors
    ///
    /// A channel run of more than 2^31 spans, which a schedule entry
    /// cannot index.
    pub fn schedule(&self, window: usize) -> Result<Option<SpanSchedule>, String> {
        // The ordering pass is the controller half of replay; its time
        // belongs with it.
        let _obs = hygcn_obs::span(hygcn_obs::Phase::SpanReplay);
        let (banks, window) = (self.banks, window.max(1));
        let mut bank_row = vec![NO_ROW; self.channels * banks];
        let mut arrivals = ArrivalOrder::default();
        let mut queue = FrFcfsQueue::default();
        // The service order and per-cell counts, from the first cell
        // FR-FCFS reorders on.
        let mut reordered: Option<(Vec<u32>, Vec<CellCounts>)> = None;
        for cell in 0..self.offsets.len() - 1 {
            let spans = self.cell(cell);
            if spans.len() > MAX_RUN {
                return Err(format!(
                    "a channel run of {} spans exceeds the FR-FCFS schedule's \
                     limit of 2^31",
                    spans.len()
                ));
            }
            let c = cell % self.channels;
            let rows = &mut bank_row[c * banks..(c + 1) * banks];
            let kept = arrivals.keeps_order(&self.tuples, spans.clone(), window, rows);
            if kept && reordered.is_none() {
                continue;
            }
            let (order, cells) = reordered.get_or_insert_with(|| self.in_order_prefix(cell));
            let run = &self.tuples[spans];
            cells.push(if kept {
                // `rows` already moved on; write the entries from the
                // rows the cell started with.
                in_order(run, &mut arrivals.saved, order)
            } else {
                CellCounts {
                    misses: queue.order(run, window, rows, order),
                    bursts: run.iter().map(|t| u64::from(t.bursts)).sum(),
                }
            });
        }
        let Some((order, cells)) = reordered else {
            hygcn_obs::count(hygcn_obs::Counter::FrfcfsInOrder, 1);
            return Ok(None);
        };
        Ok(Some(SpanSchedule { order, cells }))
    }

    /// The schedule entries and counts of cells `0..end` in arrival
    /// order, from closed banks: what the ring writes for cells the
    /// identity pass accepted.
    fn in_order_prefix(&self, end: usize) -> (Vec<u32>, Vec<CellCounts>) {
        let banks = self.banks;
        let mut bank_row = vec![NO_ROW; self.channels * banks];
        let mut order = Vec::with_capacity(self.tuples.len());
        let mut cells = Vec::with_capacity(self.offsets.len() - 1);
        for cell in 0..end {
            let c = cell % self.channels;
            let rows = &mut bank_row[c * banks..(c + 1) * banks];
            cells.push(in_order(&self.tuples[self.cell(cell)], rows, &mut order));
        }
        (order, cells)
    }
}

/// Appends `run`'s schedule entries in arrival order, opening rows in
/// `bank_row` as the spans miss, and returns the cell's counts.
fn in_order(run: &[SpanTuple], bank_row: &mut [u32], order: &mut Vec<u32>) -> CellCounts {
    let mut counts = CellCounts::default();
    for (t, idx) in run.iter().zip(0u32..) {
        let bank = usize::from(t.bank);
        let miss = bank_row[bank] != t.row;
        bank_row[bank] = t.row;
        order.push(if miss { idx | MISS } else { idx });
        counts.misses += u64::from(miss);
        counts.bursts += u64::from(t.bursts);
    }
    counts
}

/// Row misses and bursts of one `(step, channel)` cell.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct CellCounts {
    misses: u64,
    bursts: u64,
}

/// The FR-FCFS service order of one [`SpanProgram`] under one lookahead
/// window that reorders at least one cell, built by
/// [`SpanProgram::schedule`] and replayed by
/// [`SpanReplayer::replay_step`]. It carries no timing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanSchedule {
    /// Laid out like the program's tuples: each cell's entries list its
    /// spans in service order, as the span's index in the cell's run
    /// with [`MISS`] set for a row miss.
    order: Vec<u32>,
    /// Row misses and bursts per `(step, channel)` cell.
    cells: Vec<CellCounts>,
}

/// Streaming builder: feed each timeline step's scheduler-ordered batch
/// once, in step order, then [`SpanProgramBuilder::finish`]. Sized with
/// [`SpanProgramBuilder::reserve`] from the program's
/// [`SpanProgramBuilder::spans`], it decodes into exactly the buffer it
/// returns: each span is written once, at its channel's cursor.
#[derive(Debug, Clone)]
pub struct SpanProgramBuilder {
    hbm: HbmConfig,
    burst_shift: u32,
    row_shift: u32,
    channel_mask: u64,
    channel_shift: u32,
    bank_mask: u64,
    bank_shift: u32,
    /// Per channel, the write cursor of the step being pushed.
    cursors: Vec<usize>,
    offsets: Vec<usize>,
    tuples: Vec<SpanTuple>,
    traffic: Vec<StepTraffic>,
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
            tuples: Vec::new(),
            traffic: Vec::new(),
        })
    }

    /// The spans `r` decodes into: one per row-buffer page it touches,
    /// whatever the mapping.
    pub fn spans(&self, r: &MemRequest) -> usize {
        if r.bytes == 0 {
            return 0;
        }
        let end = r.addr + u64::from(r.bytes);
        saturating_usize(((end - 1) >> self.row_shift) - (r.addr >> self.row_shift) + 1)
    }

    /// Sizes the program for `steps` more steps holding `spans` more
    /// spans (the sum of [`SpanProgramBuilder::spans`] over their
    /// requests), so that pushing them allocates nothing.
    pub fn reserve(&mut self, steps: usize, spans: usize) {
        self.offsets.reserve_exact(steps * self.hbm.channels);
        self.traffic.reserve_exact(steps);
        self.tuples.reserve_exact(spans);
    }

    /// Decodes one step's batch (already in service order) into
    /// channel-major tuple runs. An empty batch records an empty step.
    ///
    /// A first pass counts each channel's spans in closed form and
    /// places the channel cursors; the decode pass then writes every
    /// span straight to its channel's cursor.
    ///
    /// # Errors
    ///
    /// A span whose row does not fit a [`SpanTuple`] (at or above
    /// 2^32 - 1). Only a channel-interleaved map reaches it: a
    /// row-interleaved channel's 128 MB holds fewer rows. The step is
    /// then not recorded and the builder stays as it was.
    pub fn push_step(&mut self, reqs: &[MemRequest]) -> Result<(), String> {
        let mut traffic = StepTraffic::default();
        // Spans every channel receives, beside each channel's own count.
        let mut every = 0;
        let mut cursors = std::mem::take(&mut self.cursors);
        cursors.fill(0);
        for r in reqs {
            traffic.requests += 1;
            if r.is_write {
                traffic.bytes_written += u64::from(r.bytes);
            } else {
                traffic.bytes_read += u64::from(r.bytes);
            }
            self.count(r, &mut cursors, &mut every);
        }
        let start = self.tuples.len();
        let mut at = start;
        for cursor in &mut cursors {
            let spans = *cursor + every;
            *cursor = at;
            at += spans;
        }
        self.tuples.resize(at, SpanTuple::default());
        let decoded = self.decode(reqs, &mut cursors);
        self.cursors = cursors;
        if let Err(e) = decoded {
            self.tuples.truncate(start);
            return Err(e);
        }
        // Each cursor now ends its channel's run.
        debug_assert_eq!(self.cursors.last(), Some(&at));
        self.offsets.extend_from_slice(&self.cursors);
        self.traffic.push(traffic);
        Ok(())
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
    /// each: the same row-aligned split and bit-field decode as
    /// [`crate::address::AddressMap`].
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
                self.tuples[*cursor] = tuple;
                *cursor += 1;
                addr = span_end;
            }
        }
        Ok(())
    }

    /// The finished program.
    pub fn finish(self) -> SpanProgram {
        SpanProgram {
            mapping: self.hbm.mapping,
            channels: self.hbm.channels,
            banks: self.hbm.banks,
            row_bytes: self.hbm.row_bytes,
            burst_bytes: self.hbm.burst_bytes,
            offsets: self.offsets,
            tuples: self.tuples,
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
/// under that lane's timing, held in flat channel-major arrays. Every
/// lane shares the decode geometry and the controller policy, so one
/// program (and one schedule per FR-FCFS window) serves a whole timing
/// sweep, `L` timings per pass.
#[derive(Debug, Clone)]
pub struct SpanReplayer<const L: usize> {
    banks_per_channel: usize,
    t_burst: [u64; L],
    t_row: [u64; L],
    t_cas: [u64; L],
    /// Open row per (channel-major) bank, [`NO_ROW`] when closed. Only
    /// a program-order replay reads it: a schedule already holds each
    /// span's row hit or miss. The row a span opens depends on no
    /// timing, so every lane shares it.
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
            bank_row: vec![NO_ROW; banks],
            bank_ready: vec![[0; L]; banks],
            bus_free: vec![[0; L]; first.channels],
            stats: vec![[ChannelStats::default(); L]; first.channels],
            traffic: MemStats::default(),
        })
    }

    /// Replays `program`'s step `step`, arriving in lane `l` at
    /// `now[l]`; returns per lane the cycle the step's last span (plus
    /// CAS latency) completes, or the arrival cycle for an empty step.
    ///
    /// `schedule` alone is the service order: `None` serves every span
    /// in program order (an in-order controller, or FR-FCFS whose
    /// [`SpanProgram::schedule`] is `None`), `Some` the FR-FCFS order it
    /// holds. The caller guarantees `program.matches()` the replayer's
    /// geometry and steps are replayed in build order at nondecreasing
    /// arrival cycles per lane — the same protocol the staged model's
    /// `service_batch` sequence observes. Each span (and schedule entry)
    /// is read once and serviced in every lane.
    pub fn replay_step(
        &mut self,
        program: &SpanProgram,
        schedule: Option<&SpanSchedule>,
        step: usize,
        now: [u64; L],
    ) -> [u64; L] {
        debug_assert!(schedule.is_none_or(|s| s.order.len() == program.tuples.len()));
        // One relaxed load when collection is off; the guard sits
        // outside the per-span hot loop so the replay stays untouched.
        let _obs = hygcn_obs::span(hygcn_obs::Phase::SpanReplay);
        let t = &program.traffic[step];
        self.traffic.requests += t.requests;
        self.traffic.bytes_read += t.bytes_read;
        self.traffic.bytes_written += t.bytes_written;
        let banks = self.banks_per_channel;
        let timing = (self.t_burst, self.t_row);
        let mut done = now;
        for c in 0..program.channels {
            let cell = step * program.channels + c;
            let spans = program.cell(cell);
            let run = &program.tuples[spans.clone()];
            if run.is_empty() {
                continue;
            }
            let bank_ready = &mut self.bank_ready[c * banks..(c + 1) * banks];
            // The bus cycles stay in registers for the run; the
            // order-free statistics fold in once afterwards.
            let mut bus = self.bus_free[c];
            let counts = match schedule {
                None => {
                    let bank_row = &mut self.bank_row[c * banks..(c + 1) * banks];
                    let mut counts = CellCounts::default();
                    for tup in run {
                        let bank = usize::from(tup.bank);
                        let miss = bank_row[bank] != tup.row;
                        bank_row[bank] = tup.row;
                        counts.misses += u64::from(miss);
                        counts.bursts += u64::from(tup.bursts);
                        service(
                            &mut bank_ready[bank],
                            &mut bus,
                            now,
                            miss,
                            tup.bursts,
                            timing,
                        );
                    }
                    counts
                }
                Some(schedule) => {
                    for &entry in &schedule.order[spans] {
                        let tup = &run[idx(entry & INDEX)];
                        let miss = entry & MISS != 0;
                        let bank = usize::from(tup.bank);
                        service(
                            &mut bank_ready[bank],
                            &mut bus,
                            now,
                            miss,
                            tup.bursts,
                            timing,
                        );
                    }
                    schedule.cells[cell]
                }
            };
            self.bus_free[c] = bus;
            for (l, st) in self.stats[c].iter_mut().enumerate() {
                // Each span moves at least one burst, so the bus only
                // advances: the channel completes with its last span.
                let channel_done = bus[l] + self.t_cas[l];
                st.row_misses += counts.misses;
                st.row_hits += widen_u64(run.len()) - counts.misses;
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

/// Services one span arriving in lane `l` at `now[l]` on its bank's
/// ready cycle and its channel's bus, in every lane — the timing
/// recurrence of [`crate::hbm::ChannelTimeline::service`] with the row
/// compare already made: a row miss first pays the activate + precharge
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

/// The identity pass: decides whether FR-FCFS serves one channel run in
/// arrival order, without building a queue.
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
/// The cell reorders at the first head miss while a hit is pending.
#[derive(Debug, Clone, Default)]
struct ArrivalOrder {
    /// Per hash slot, the program index of the youngest span that
    /// arrived under it. Indexes only grow, so entries of earlier cells
    /// read as served and the table is never cleared.
    youngest: Vec<usize>,
    /// `64 - log2(youngest.len())`.
    shift: u32,
    /// The channel's open rows before the current cell.
    saved: Vec<u32>,
}

impl ArrivalOrder {
    /// Sizes the table at sixteen slots per pending span, so a head
    /// miss finds another pending key in its slot with probability at
    /// most 1/16: a collision scans at most the window, which keeps the
    /// pass within a constant of the ring's per-miss bank scan at any
    /// window.
    fn reserve(&mut self, window: usize) {
        let len = (16 * window).next_power_of_two();
        if self.youngest.len() < len {
            self.youngest = vec![0; len];
            self.shift = 64 - len.trailing_zeros();
        }
    }

    /// The table slot of `t`'s `(bank, row)` key (Fibonacci hashing).
    #[inline(always)]
    fn slot(&self, t: &SpanTuple) -> usize {
        let key = u64::from(t.row) << 16 ^ u64::from(t.bank);
        saturating_usize(key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift)
    }

    /// Queues `tuples[a]` as its slot's youngest arrival; returns
    /// whether it hits its bank's open row.
    #[inline(always)]
    fn arrive(&mut self, tuples: &[SpanTuple], a: usize, bank_row: &[u32]) -> bool {
        let t = &tuples[a];
        let slot = self.slot(t);
        self.youngest[slot] = a;
        bank_row[usize::from(t.bank)] == t.row
    }

    /// Whether FR-FCFS with a `window`-deep lookahead serves the run
    /// `tuples[spans]` in arrival order from the open rows `bank_row`.
    /// If it does, `bank_row` ends as the in-order replay leaves it;
    /// if not, it is restored. Either way `saved` holds the rows the
    /// cell started with.
    fn keeps_order(
        &mut self,
        tuples: &[SpanTuple],
        spans: std::ops::Range<usize>,
        window: usize,
        bank_row: &mut [u32],
    ) -> bool {
        self.saved.clear();
        self.saved.extend_from_slice(bank_row);
        let (start, end) = (spans.start, spans.end);
        let window = window.min(end - start);
        if window <= 1 {
            // Nothing is pending behind the head.
            for t in &tuples[spans] {
                bank_row[usize::from(t.bank)] = t.row;
            }
            return true;
        }
        self.reserve(window);
        let same = |a: &SpanTuple, b: &SpanTuple| a.row == b.row && a.bank == b.bank;
        // The youngest pending hit; `start` stands for none, as the
        // check `hit > h` never fires on it.
        let mut hit = start;
        for a in start..start + window {
            if self.arrive(tuples, a, bank_row) {
                hit = a;
            }
        }
        for h in start..end {
            let t = &tuples[h];
            let bank = usize::from(t.bank);
            if bank_row[bank] != t.row {
                if hit > h {
                    bank_row.copy_from_slice(&self.saved);
                    return false;
                }
                bank_row[bank] = t.row;
                // The key's youngest pending span: its slot's youngest
                // arrival, or after a collision an older one. An empty
                // range when the slot holds nothing pending.
                let y = self.youngest[self.slot(t)];
                if let Some(j) = (h + 1..=y).rev().find(|&j| same(&tuples[j], t)) {
                    hit = j;
                }
            }
            let a = h + window;
            if a < end && self.arrive(tuples, a, bank_row) {
                hit = a;
            }
        }
        true
    }
}

/// A pending span of the FR-FCFS lookahead: its bank and row, and its
/// index in the channel run ([`GONE`] once a younger pick tombstones
/// it).
#[derive(Debug, Clone, Copy)]
struct Pending {
    row: u32,
    bank: u16,
    idx: u32,
}

/// The index of a tombstoned [`Pending`] slot; real indices stay below
/// 2^31.
const GONE: u32 = u32::MAX;

/// The FR-FCFS lookahead of one channel run:
/// [`crate::hbm::ChannelTimeline::drain_frfcfs`]'s picks over tuples,
/// without its per-pick scan of the whole window, and without timing.
///
/// Pending tuples sit in age order in a ring of slots, oldest at the
/// head. Picking the head advances it; picking a younger tuple leaves
/// a tombstone that the head later skips. A row-hit mask and per-bank
/// slot masks cover the ring, and a count of pending hits decides the
/// pick: the oldest tuple when there are none, else the first hit bit
/// from the head onwards, wrapping around.
///
/// Only servicing a row miss opens a row, and a miss is picked only
/// when no pending tuple hits. So after a miss on `(bank, row)` the
/// hits are exactly that bank's pending tuples of that row: the queue
/// re-checks one bank's slots, not the whole window. A hit opens
/// nothing, so it changes no other tuple's status.
#[derive(Debug, Clone, Default)]
struct FrFcfsQueue {
    /// The ring: a power of two of at least 64 slots and twice the
    /// window (capped at the run length), so tombstones rarely fill it.
    slots: Vec<Pending>,
    /// Mask words per set (`slots.len() / 64`).
    words: usize,
    /// Slots whose tuple hits its bank's open row.
    hit: Vec<u64>,
    /// Pending slots per bank: bank `b` owns words `b * words..`.
    bank: Vec<u64>,
}

impl FrFcfsQueue {
    /// Grows the (empty) ring to fit a `window`-deep lookahead over
    /// `banks` banks.
    fn reserve(&mut self, window: usize, banks: usize) {
        let cap = (2 * window).next_power_of_two().max(64);
        if self.slots.len() >= cap {
            return;
        }
        let words = cap / 64;
        let empty = Pending {
            row: NO_ROW,
            bank: 0,
            idx: GONE,
        };
        *self = Self {
            slots: vec![empty; cap],
            words,
            hit: vec![0; words],
            bank: vec![0; banks * words],
        };
    }

    /// Orders `run` (at most [`MAX_RUN`] tuples) with row-hit-first
    /// selection inside a `window`-deep lookahead, oldest first when
    /// nothing pending hits, opening rows in `bank_row` as the picks
    /// miss. Appends one [`SpanSchedule`] entry per tuple to `order`
    /// and returns the row misses. Leaves the queue empty.
    fn order(
        &mut self,
        run: &[SpanTuple],
        window: usize,
        bank_row: &mut [u32],
        order: &mut Vec<u32>,
    ) -> u64 {
        // A lookahead deeper than the run sees the whole run, so the
        // ring never outgrows the program.
        let window = window.min(run.len());
        self.reserve(window, bank_row.len());
        // A window of up to 32 fits one mask word: a build of its own
        // lets the compiler drop the mask loops.
        if self.words == 1 {
            self.order_in::<1>(run, window, bank_row, order)
        } else {
            self.order_in::<0>(run, window, bank_row, order)
        }
    }

    /// [`FrFcfsQueue::order`] over a reserved ring of `WORDS` mask words
    /// (0: `self.words`).
    fn order_in<const WORDS: usize>(
        &mut self,
        run: &[SpanTuple],
        window: usize,
        bank_row: &mut [u32],
        order: &mut Vec<u32>,
    ) -> u64 {
        let words = if WORDS == 0 { self.words } else { WORDS };
        let ring = words * 64 - 1;
        // Ring positions count up from 0; a slot is `pos & ring`. The
        // queue is empty exactly when the head reaches the tail.
        let (mut head, mut tail, mut hits) = (0usize, 0usize, 0usize);
        let mut arrivals = run.iter().zip(0u32..).map(|(t, idx)| Pending {
            row: t.row,
            bank: t.bank,
            idx,
        });
        // Fill the window; after that each pick makes room for exactly
        // one arrival, so the window stays full until the run ends.
        for p in arrivals.by_ref().take(window) {
            self.push(p, words, &mut head, &mut tail, &mut hits, bank_row);
        }
        let mut misses = 0;
        while head < tail {
            let was_hit = hits > 0;
            let slot = if was_hit {
                oldest_set(&self.hit[..words], head & ring)
            } else {
                head & ring
            };
            let p = self.slots[slot];
            let (w, bit) = (slot / 64, 1u64 << (slot % 64));
            let bank_words = usize::from(p.bank) * words..(usize::from(p.bank) + 1) * words;
            self.bank[bank_words.start + w] &= !bit;
            if slot == head & ring {
                head += 1;
                while head < tail && self.slots[head & ring].idx == GONE {
                    head += 1;
                }
            } else {
                self.slots[slot].idx = GONE;
            }
            if was_hit {
                self.hit[w] &= !bit;
                hits -= 1;
                order.push(p.idx);
            } else {
                // Nothing pending hit, so the oldest tuple misses and
                // opens `p.row`: that bank's pending tuples of the same
                // row hit now, and nothing else changed.
                order.push(p.idx | MISS);
                misses += 1;
                bank_row[usize::from(p.bank)] = p.row;
                for (w, &mask) in self.bank[bank_words].iter().enumerate() {
                    let mut m = mask;
                    while m != 0 {
                        let bit = m & m.wrapping_neg();
                        m ^= bit;
                        if self.slots[w * 64 + idx(bit.trailing_zeros())].row == p.row {
                            self.hit[w] |= bit;
                            hits += 1;
                        }
                    }
                }
            }
            if let Some(p) = arrivals.next() {
                self.push(p, words, &mut head, &mut tail, &mut hits, bank_row);
            }
        }
        misses
    }

    /// Queues `p` as the youngest pending tuple, compacting the ring
    /// first when tombstones have filled it.
    #[inline(always)]
    fn push(
        &mut self,
        p: Pending,
        words: usize,
        head: &mut usize,
        tail: &mut usize,
        hits: &mut usize,
        bank_row: &[u32],
    ) {
        let cap = words * 64;
        if *tail - *head == cap {
            *tail = self.compact(*head, *tail, bank_row);
            *head = 0;
        }
        let slot = *tail & (cap - 1);
        *tail += 1;
        self.slots[slot] = p;
        let (w, bit) = (slot / 64, 1u64 << (slot % 64));
        self.bank[usize::from(p.bank) * words + w] |= bit;
        if bank_row[usize::from(p.bank)] == p.row {
            self.hit[w] |= bit;
            *hits += 1;
        }
    }

    /// Moves the live tuples of the full ring `head..tail` to slots
    /// `0..n` in age order, dropping tombstones, and rebuilds the
    /// masks; returns `n`, the new tail (the new head is 0). Hit bits
    /// are re-derived from the open rows, which is what they record.
    fn compact(&mut self, head: usize, tail: usize, bank_row: &[u32]) -> usize {
        debug_assert_eq!(tail - head, self.slots.len());
        let (words, cap) = (self.words, self.slots.len());
        self.slots.rotate_left(head & (cap - 1));
        self.hit.fill(0);
        self.bank.fill(0);
        let mut n = 0;
        for from in 0..cap {
            let p = self.slots[from];
            if p.idx == GONE {
                continue;
            }
            self.slots[n] = p;
            let (w, bit) = (n / 64, 1u64 << (n % 64));
            self.bank[usize::from(p.bank) * words + w] |= bit;
            if bank_row[usize::from(p.bank)] == p.row {
                self.hit[w] |= bit;
            }
            n += 1;
        }
        n
    }
}

/// The first set bit of `mask` at or after bit `from`, wrapping around
/// to the bits below it; `mask` must not be empty.
#[inline]
fn oldest_set(mask: &[u64], from: usize) -> usize {
    let (w0, low) = (from / 64, (1u64 << (from % 64)) - 1);
    let words = mask.len();
    let first = mask[w0] & !low;
    if first != 0 {
        return w0 * 64 + idx(first.trailing_zeros());
    }
    for w in (w0 + 1..words).chain(0..w0) {
        if mask[w] != 0 {
            return w * 64 + idx(mask[w].trailing_zeros());
        }
    }
    w0 * 64 + idx((mask[w0] & low).trailing_zeros())
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

    /// Replays `batches` through one fresh staged `Hbm` per config and
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
    /// replays it against the staged `Hbm` reference, asserting
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
        // `usize::MAX` sees whole runs, like the staged drain.
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
        // 2 x window hits to A, enough to wrap and compact the ring.
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
        // Window 65 uses a 256-slot ring. 260 row misses to fresh rows
        // march the head past slot 195 before the 261st tuple, a hit on
        // the row the 11th tuple left open, lands in wrapped slot 4: the
        // oldest-hit search must wrap from the head's word to word 0.
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
        // and each timing alone are bit-identical to their own staged
        // references.
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

    /// The ring's service order of every cell of `program`, reordered or
    /// not: the FR-FCFS reference the identity pass must agree with.
    fn ring_schedule(program: &SpanProgram, window: usize) -> SpanSchedule {
        let banks = program.banks;
        let mut bank_row = vec![NO_ROW; program.channels * banks];
        let mut queue = FrFcfsQueue::default();
        let (mut order, mut cells) = (Vec::new(), Vec::new());
        for cell in 0..program.offsets.len() - 1 {
            let run = &program.tuples[program.cell(cell)];
            let c = cell % program.channels;
            let rows = &mut bank_row[c * banks..(c + 1) * banks];
            cells.push(CellCounts {
                misses: queue.order(run, window.max(1), rows, &mut order),
                bursts: run.iter().map(|t| u64::from(t.bursts)).sum(),
            });
        }
        SpanSchedule { order, cells }
    }

    /// Asserts that `program.schedule(window)` is `None` exactly when
    /// the ring serves every cell in arrival order, and the ring's
    /// schedule otherwise; returns whether arrival order was kept.
    fn assert_schedule_matches_ring(program: &SpanProgram, window: usize) -> bool {
        let ring = ring_schedule(program, window);
        let kept = (0..program.offsets.len() - 1).all(|cell| {
            let entries = &ring.order[program.cell(cell)];
            entries.iter().zip(0u32..).all(|(&e, i)| e & INDEX == i)
        });
        match program.schedule(window).expect("runs fit the index") {
            None => assert!(kept, "window {window}: the ring reorders"),
            Some(schedule) => {
                assert!(!kept, "window {window}: the ring keeps arrival order");
                assert_eq!(schedule, ring, "window {window}");
            }
        }
        kept
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
        assert!(assert_schedule_matches_ring(&program, 1));
        assert!(assert_schedule_matches_ring(&program, 0), "0 acts as 1");
        assert!(!assert_schedule_matches_ring(&program, 2));
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
                    assert_schedule_matches_ring(&program, window),
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
        assert!(assert_schedule_matches_ring(&one_channel(&[&same_row]), 8));
        let open = one_channel(&[&[(0, 1), (1, 5)], &[(0, 1), (1, 5), (2, 9)]]);
        assert!(assert_schedule_matches_ring(&open, 8));
        // A head miss with a hit pending behind it is overtaken.
        let overtaken = [(0, 1), (1, 5), (0, 1), (2, 9)];
        assert!(!assert_schedule_matches_ring(
            &one_channel(&[&overtaken]),
            8
        ));
    }

    #[test]
    fn a_reordered_cell_between_kept_cells() {
        // Two channels, three steps: only step 1's channel 1 reorders.
        // The cells before it are written out in arrival order, the ones
        // after it keep their own identity pass, and the open rows the
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
        assert!(!assert_schedule_matches_ring(&program, 8));
        let schedule = program.schedule(8).unwrap();
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
            assert!(!assert_schedule_matches_ring(&program, window));
        }
        // Grouped by row, the same spans keep arrival order at any depth.
        let mut grouped = run.clone();
        grouped.sort_unstable();
        let program = one_channel(&[&grouped]);
        for window in [39, 40, 41, 1000, usize::MAX] {
            assert!(assert_schedule_matches_ring(&program, window));
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

    #[test]
    fn identity_pass_equals_the_ring_on_random_programs() {
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
        for (g, cfg) in geometries.iter().enumerate() {
            for seed in 0..4u64 {
                let mut rng = Lcg(700 + 10 * g as u64 + seed);
                let batches: Vec<Vec<MemRequest>> = (0..4)
                    .map(|step| match (seed + step) % 4 {
                        0 => random_batch(&mut rng, 40),
                        rows => row_local_batch(&mut rng, cfg, 150, rows + 1, seed < 2),
                    })
                    .collect();
                let program = build(cfg, &batches);
                for window in (1..=200).chain([usize::MAX]) {
                    if assert_schedule_matches_ring(&program, window) {
                        kept += 1;
                    } else {
                        reordered += 1;
                    }
                }
            }
        }
        assert!(
            kept > 0 && reordered > 0,
            "{kept} kept, {reordered} reordered"
        );
    }

    #[test]
    fn a_reserved_program_is_decoded_in_place() {
        for cfg in geometry_variants() {
            let mut rng = Lcg(31);
            let batches: Vec<Vec<MemRequest>> = [0, 5, 80, 300]
                .map(|len| random_batch(&mut rng, len))
                .into();
            let mut builder = SpanProgramBuilder::new(&cfg).unwrap();
            let spans = batches.iter().flatten().map(|r| builder.spans(r)).sum();
            builder.reserve(batches.len(), spans);
            let buffer = builder.tuples.as_ptr();
            for b in &batches {
                builder.push_step(b).unwrap();
            }
            assert_eq!(builder.tuples.as_ptr(), buffer, "{cfg:?}: reallocated");
            let program = builder.finish();
            assert_eq!(program.tuples.len(), spans);
            assert_eq!(program.tuples.capacity(), spans);
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
        let read = |addr, bytes| MemRequest::read(RequestKind::InputFeatures, addr, bytes);
        let top = u64::from(NO_ROW);
        let mut builder = SpanProgramBuilder::new(&cfg).unwrap();
        builder.push_step(&[read(top - 2, 2)]).unwrap();
        let before = builder.clone().finish();
        for bad in [read(top - 1, 2), read(top, 1), read(1 << 40, 1)] {
            let err = builder.push_step(&[read(0, 4), bad]).unwrap_err();
            assert!(err.contains("row"), "{err}");
        }
        let program = builder.finish();
        assert_eq!(program, before);
        assert_eq!(program.tuples[1].row, NO_ROW - 1);
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
