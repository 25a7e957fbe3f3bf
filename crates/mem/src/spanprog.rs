//! Precompiled span programs: decode-once, replay-many HBM streams.
//!
//! The span walk's per-request work splits into two halves: *decoding*
//! (row-aligned splitting plus channel/bank/row bit extraction) and
//! *timing* (advancing bank/bus state). Decoding is a pure function of
//! the request stream and the address geometry — for a fixed
//! `(graph, config, model)` design point the stream never changes — so
//! [`SpanProgramBuilder`] runs it exactly once, emitting a flat,
//! channel-major stream of [`SpanTuple`]s per timeline step, and
//! [`SpanReplayer`] replays the precompiled stream with SoA per-channel
//! registers (open-row array, bank-ready array, bus-cycle array packed
//! for sequential access) so the steady-state inner loop is branch-light
//! and decode-free.
//!
//! ## Build/replay contract
//!
//! One [`SpanProgramBuilder::push_step`] call per timeline step, fed the
//! *scheduler-ordered* batch the staged [`crate::hbm::Hbm`] would have
//! serviced; one [`SpanReplayer::replay_step`] call per step at the
//! step's arrival cycle. Replay is bit-identical to
//! [`crate::hbm::Hbm::service_batch`] on the same batches — completion
//! cycles, [`MemStats`], and per-channel [`ChannelStats`] — for **both**
//! controller policies:
//!
//! * **In-order:** a channel's tuple run is exactly its
//!   [`crate::address::ChannelPartition`] queue (same row-aligned split,
//!   same decode, arrival order preserved per channel), and the linear
//!   replay applies the same service recurrence as
//!   [`crate::hbm::ChannelTimeline::drain`].
//! * **FR-FCFS:** the staged drain also operates per channel over that
//!   same queue, and its windowed row-hit promotion consults only
//!   `(bank, row)` state the tuples carry — so
//!   [`crate::hbm::ChannelTimeline::drain_frfcfs`] ports to the tuple
//!   run verbatim.
//!
//! The batch completion is the max over channels (never before the
//! arrival cycle) and statistics fold by summation, so the channel-major
//! reordering of the program layout is unobservable (the merge invariant
//! of [`crate::hbm`]).
//!
//! ## Caching
//!
//! A program depends only on the request stream and the *decode*
//! geometry (mapping, channels, banks, row/burst bytes) — not on timing
//! parameters or the controller policy, which bind at replay time. The
//! simulator caches programs on the `Graph`'s plan cache keyed by the
//! full canonical config plus model kind and feature length (which
//! determine the stream and the interval boundaries);
//! [`SpanProgram::matches`] re-checks the decode geometry on every hit.

use crate::address::MappingScheme;
use crate::hbm::{ControllerPolicy, HbmConfig};
use crate::request::MemRequest;
use crate::stats::{ChannelStats, HbmStats, MemStats};

/// Sentinel for "no row open" (mirrors `hbm::NO_ROW`).
const NO_ROW: u64 = u64::MAX;

/// One precompiled same-(channel, bank, row) burst run. The channel is
/// implied by which per-channel run of the [`SpanProgram`] the tuple
/// sits in; 16 bytes so a step's run streams through cache linearly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanTuple {
    /// Row index within the bank.
    pub row: u64,
    /// Bank index within the channel.
    pub bank: u32,
    /// Burst count of the run (`ceil(bytes / burst_bytes)`).
    pub bursts: u32,
}

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

    /// Channel `c`'s tuple run for `step`.
    #[inline]
    fn run(&self, step: usize, c: usize) -> &[SpanTuple] {
        let cell = step * self.channels + c;
        &self.tuples[self.offsets[cell]..self.offsets[cell + 1]]
    }
}

/// Streaming builder: feed each timeline step's scheduler-ordered batch
/// once, in step order, then [`SpanProgramBuilder::finish`].
#[derive(Debug, Clone)]
pub struct SpanProgramBuilder {
    hbm: HbmConfig,
    scheme: MappingScheme,
    burst_shift: u32,
    row_shift: u32,
    channel_mask: u64,
    channel_shift: u32,
    bank_mask: u64,
    bank_shift: u32,
    /// Per-channel staging for the step being pushed; drained
    /// channel-major into `tuples` at the end of each step.
    staging: Vec<Vec<SpanTuple>>,
    offsets: Vec<usize>,
    tuples: Vec<SpanTuple>,
    traffic: Vec<StepTraffic>,
}

impl SpanProgramBuilder {
    /// A builder for `config`'s decode geometry. Any controller policy
    /// is accepted: the program carries no timing.
    ///
    /// # Errors
    ///
    /// The first violated constraint of [`HbmConfig::validate`].
    pub fn new(config: &HbmConfig) -> Result<Self, String> {
        config.validate()?;
        Ok(Self {
            hbm: *config,
            scheme: config.mapping,
            burst_shift: config.burst_bytes.trailing_zeros(),
            row_shift: config.row_bytes.trailing_zeros(),
            channel_mask: config.channels as u64 - 1,
            channel_shift: (config.channels as u64).trailing_zeros(),
            bank_mask: config.banks as u64 - 1,
            bank_shift: (config.banks as u64).trailing_zeros(),
            staging: vec![Vec::new(); config.channels],
            offsets: vec![0],
            tuples: Vec::new(),
            traffic: Vec::new(),
        })
    }

    /// Decodes one step's batch (already in service order) into
    /// channel-major tuple runs. An empty batch records an empty step.
    pub fn push_step(&mut self, reqs: &[MemRequest]) {
        let mut traffic = StepTraffic::default();
        let (burst_shift, row_shift) = (self.burst_shift, self.row_shift);
        let (ch_mask, ch_shift) = (self.channel_mask, self.channel_shift);
        let (b_mask, b_shift) = (self.bank_mask, self.bank_shift);
        for r in reqs {
            debug_assert!(r.bytes > 0, "zero-length request");
            traffic.requests += 1;
            if r.is_write {
                traffic.bytes_written += u64::from(r.bytes);
            } else {
                traffic.bytes_read += u64::from(r.bytes);
            }
            let mut addr = r.addr;
            let end = r.addr + u64::from(r.bytes);
            while addr < end {
                let row_end = ((addr >> row_shift) + 1) << row_shift;
                let span_end = row_end.min(end);
                let bursts = ((span_end - addr) + (1u64 << burst_shift) - 1) >> burst_shift;
                // Same bit-field decode as `AddressMap`.
                let (channel, bank, row) = match self.scheme {
                    MappingScheme::ChannelInterleaved => {
                        let page = addr >> row_shift;
                        let rest = page >> ch_shift;
                        ((page & ch_mask) as usize, rest & b_mask, rest >> b_shift)
                    }
                    MappingScheme::RowInterleaved => {
                        const CHANNEL_SPAN_SHIFT: u32 = 27; // 128 MB
                        let page = (addr & ((1u64 << CHANNEL_SPAN_SHIFT) - 1)) >> row_shift;
                        (
                            ((addr >> CHANNEL_SPAN_SHIFT) & ch_mask) as usize,
                            page & b_mask,
                            page >> b_shift,
                        )
                    }
                };
                self.staging[channel].push(SpanTuple {
                    row,
                    bank: bank as u32,
                    bursts: bursts as u32,
                });
                addr = span_end;
            }
        }
        for q in &mut self.staging {
            self.tuples.append(q);
            self.offsets.push(self.tuples.len());
        }
        self.traffic.push(traffic);
    }

    /// The finished program.
    pub fn finish(self) -> SpanProgram {
        SpanProgram {
            mapping: self.scheme,
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

/// SoA replay state: the per-bank open rows and ready cycles, the
/// per-channel bus cycles and [`ChannelStats`] — exactly the state of
/// the equivalent [`crate::hbm::Hbm`], held in flat channel-major
/// arrays. Timing and controller policy come from the replayer's own
/// config, so one program serves a whole timing/controller sweep.
#[derive(Debug, Clone)]
pub struct SpanReplayer {
    banks_per_channel: usize,
    t_burst: u64,
    t_row: u64,
    t_cas: u64,
    controller: ControllerPolicy,
    /// Open row per (channel-major) bank, [`NO_ROW`] when closed.
    bank_row: Vec<u64>,
    /// Ready cycle per (channel-major) bank.
    bank_ready: Vec<u64>,
    /// Data-bus availability per channel.
    bus_free: Vec<u64>,
    /// Per-channel counters, in channel order.
    stats: Vec<ChannelStats>,
    /// Request-level counters (bytes, request count).
    traffic: MemStats,
    /// FR-FCFS lookahead scratch, reused across steps.
    pending: Vec<SpanTuple>,
}

impl SpanReplayer {
    /// An idle replayer for `config`.
    ///
    /// # Errors
    ///
    /// The first violated constraint of [`HbmConfig::validate`].
    pub fn new(config: &HbmConfig) -> Result<Self, String> {
        config.validate()?;
        Ok(Self {
            banks_per_channel: config.banks,
            t_burst: config.t_burst,
            t_row: config.t_row,
            t_cas: config.t_cas,
            controller: config.controller,
            bank_row: vec![NO_ROW; config.channels * config.banks],
            bank_ready: vec![0; config.channels * config.banks],
            bus_free: vec![0; config.channels],
            stats: vec![ChannelStats::default(); config.channels],
            traffic: MemStats::default(),
            pending: Vec::new(),
        })
    }

    /// Replays `program`'s step `step` arriving at `now`; returns the
    /// cycle the step's last span (plus CAS latency) completes, or
    /// `now` for an empty step.
    ///
    /// The caller guarantees `program.matches()` the replayer's
    /// geometry and steps are replayed in build order at nondecreasing
    /// arrival cycles — the same protocol the staged model's
    /// `service_batch` sequence observes.
    pub fn replay_step(&mut self, program: &SpanProgram, step: usize, now: u64) -> u64 {
        // One relaxed load when collection is off; the guard sits
        // outside the per-span hot loop so the replay stays untouched.
        let _obs = hygcn_obs::span(hygcn_obs::Phase::SpanReplay);
        let t = &program.traffic[step];
        self.traffic.requests += t.requests;
        self.traffic.bytes_read += t.bytes_read;
        self.traffic.bytes_written += t.bytes_written;
        let banks = self.banks_per_channel;
        let (t_burst, t_row, t_cas) = (self.t_burst, self.t_row, self.t_cas);
        let controller = self.controller;
        let mut done = now;
        for c in 0..program.channels {
            let run = program.run(step, c);
            if run.is_empty() {
                continue;
            }
            let bank_row = &mut self.bank_row[c * banks..(c + 1) * banks];
            let bank_ready = &mut self.bank_ready[c * banks..(c + 1) * banks];
            let bus = &mut self.bus_free[c];
            let st = &mut self.stats[c];
            let channel_done = match controller {
                ControllerPolicy::InOrder => {
                    let mut ch_done = now;
                    for tup in run {
                        ch_done = ch_done.max(service_tuple(
                            tup, now, t_burst, t_row, t_cas, bank_row, bank_ready, bus, st,
                        ));
                    }
                    ch_done
                }
                ControllerPolicy::FrFcfs { window } => {
                    // `ChannelTimeline::drain_frfcfs` over the tuple run:
                    // row hits within a `window`-deep lookahead are
                    // served before older row misses; oldest wins when
                    // nothing pending hits an open row.
                    let window = window.max(1);
                    let pending = &mut self.pending;
                    pending.clear();
                    let mut ch_done = now;
                    let mut head = 0usize;
                    loop {
                        while pending.len() < window && head < run.len() {
                            pending.push(run[head]);
                            head += 1;
                        }
                        if pending.is_empty() {
                            break;
                        }
                        let pick = pending
                            .iter()
                            .position(|s| bank_row[s.bank as usize] == s.row)
                            .unwrap_or(0);
                        let tup = pending.remove(pick);
                        ch_done = ch_done.max(service_tuple(
                            &tup, now, t_burst, t_row, t_cas, bank_row, bank_ready, bus, st,
                        ));
                    }
                    ch_done
                }
            };
            done = done.max(channel_done);
        }
        done
    }

    /// Accumulated statistics, per-channel counters folded into totals.
    pub fn stats(&self) -> MemStats {
        let mut s = self.traffic;
        for ch in &self.stats {
            ch.fold_into(&mut s);
        }
        s
    }

    /// The per-channel statistics, in channel order.
    pub fn channel_stats(&self) -> Vec<ChannelStats> {
        self.stats.clone()
    }

    /// The fully decomposed statistics view.
    pub fn hbm_stats(&self) -> HbmStats {
        HbmStats {
            totals: self.stats(),
            channels: self.channel_stats(),
        }
    }
}

/// Services one tuple arriving at `now` against its channel's state
/// slices — the service recurrence of
/// [`crate::hbm::ChannelTimeline::service`], decode-free.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn service_tuple(
    tup: &SpanTuple,
    now: u64,
    t_burst: u64,
    t_row: u64,
    t_cas: u64,
    bank_row: &mut [u64],
    bank_ready: &mut [u64],
    bus: &mut u64,
    st: &mut ChannelStats,
) -> u64 {
    let bank = tup.bank as usize;
    let bursts = u64::from(tup.bursts);
    let mut ready = bank_ready[bank].max(now);
    if bank_row[bank] != tup.row {
        // Activate (and precharge the old row) before the transfer.
        ready += t_row;
        bank_row[bank] = tup.row;
        st.row_misses += 1;
    } else {
        st.row_hits += 1;
    }
    let start = ready.max(*bus);
    let burst_cycles = bursts * t_burst;
    let finish = start + burst_cycles;
    *bus = finish;
    bank_ready[bank] = finish;
    st.bursts += bursts;
    st.busy_cycles += burst_cycles;
    let span_done = finish + t_cas;
    st.last_completion = st.last_completion.max(span_done);
    span_done
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hbm::Hbm;
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

    /// Builds a program from LCG batches and replays it against the
    /// staged `Hbm` reference, asserting bit-identical completions and
    /// statistics for `cfg`'s controller.
    fn assert_replay_matches_hbm(cfg: HbmConfig, seed: u64) {
        let mut rng = Lcg(seed);
        let batch_lens = [0usize, 1, 7, 64, 300];
        let batches: Vec<Vec<MemRequest>> = batch_lens
            .iter()
            .map(|&l| random_batch(&mut rng, l))
            .collect();

        let mut builder = SpanProgramBuilder::new(&cfg).expect("valid geometry");
        for b in &batches {
            builder.push_step(b);
        }
        let program = builder.finish();
        assert!(program.matches(&cfg));
        assert_eq!(program.steps(), batches.len());

        let mut hbm = Hbm::new(cfg);
        let mut replayer = SpanReplayer::new(&cfg).expect("valid geometry");
        let mut now = 0;
        for (step, b) in batches.iter().enumerate() {
            let t_hbm = hbm.service_batch(b, now);
            let t_replay = replayer.replay_step(&program, step, now);
            assert_eq!(t_hbm, t_replay, "step {step} diverged (seed {seed})");
            now = t_hbm + rng.next() % 50;
        }
        assert_eq!(hbm.stats(), replayer.stats());
        assert_eq!(hbm.channel_stats(), replayer.channel_stats());
        assert!(replayer.hbm_stats().consistent());
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
        for window in [1usize, 4, 16, 64] {
            for (i, base) in geometry_variants().into_iter().enumerate() {
                let cfg = HbmConfig {
                    controller: ControllerPolicy::FrFcfs { window },
                    ..base
                };
                for seed in 1..=3 {
                    assert_replay_matches_hbm(
                        cfg,
                        5000 + 100 * window as u64 + 10 * i as u64 + seed,
                    );
                }
            }
        }
    }

    #[test]
    fn program_is_controller_and_timing_agnostic() {
        // One program built once serves in-order and FR-FCFS replayers
        // with different timing, each bit-identical to its own staged
        // reference.
        let base = HbmConfig::hbm1();
        let mut rng = Lcg(9);
        let batch = random_batch(&mut rng, 120);
        let mut builder = SpanProgramBuilder::new(&base).unwrap();
        builder.push_step(&batch);
        let program = builder.finish();
        for cfg in [
            base,
            HbmConfig {
                t_row: 5,
                t_cas: 2,
                controller: ControllerPolicy::FrFcfs { window: 8 },
                ..base
            },
        ] {
            assert!(program.matches(&cfg));
            let mut hbm = Hbm::new(cfg);
            let mut replayer = SpanReplayer::new(&cfg).unwrap();
            assert_eq!(
                hbm.service_batch(&batch, 3),
                replayer.replay_step(&program, 0, 3)
            );
            assert_eq!(hbm.stats(), replayer.stats());
        }
        // A different decode geometry is not a match.
        assert!(!program.matches(&HbmConfig {
            channels: 4,
            ..base
        }));
        assert!(!program.matches(&HbmConfig::hbm1_uncoordinated()));
    }

    #[test]
    fn empty_step_returns_now() {
        let cfg = HbmConfig::hbm1();
        let mut builder = SpanProgramBuilder::new(&cfg).unwrap();
        builder.push_step(&[]);
        let program = builder.finish();
        let mut replayer = SpanReplayer::new(&cfg).unwrap();
        assert_eq!(replayer.replay_step(&program, 0, 42), 42);
        assert_eq!(replayer.stats(), MemStats::default());
        assert_eq!(program.total_tuples(), 0);
    }

    #[test]
    fn rejects_bad_geometry() {
        let bad = HbmConfig {
            channels: 6,
            ..HbmConfig::hbm1()
        };
        assert!(SpanProgramBuilder::new(&bad).is_err());
        assert!(SpanReplayer::new(&bad).is_err());
        // FR-FCFS is native here, not a rejection.
        let fr = HbmConfig {
            controller: ControllerPolicy::FrFcfs { window: 16 },
            ..HbmConfig::hbm1()
        };
        assert!(SpanProgramBuilder::new(&fr).is_ok());
        assert!(SpanReplayer::new(&fr).is_ok());
    }
}
