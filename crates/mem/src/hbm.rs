//! Cycle-level HBM timing model — the Ramulator substitute.
//!
//! Geometry and rates follow HBM 1.0 as configured in Table 6: 8 channels
//! at 32 GB/s each (256 GB/s aggregate), 1 GHz accelerator clock, 32 B
//! bursts, 2 KB row buffers, 16 banks per channel.
//!
//! ## Per-channel decomposition
//!
//! The stack is modeled as independent [`ChannelTimeline`] state
//! machines, one per channel, each owning its banks' open rows, its bank
//! ready times, and its data-bus availability. A service batch is first
//! split channel-major by a [`ChannelPartition`]
//! ([`crate::address`]) — every row-aligned segment maps to exactly one
//! channel — and then each channel drains its queue in arrival order.
//!
//! **Merge invariant:** within a batch every segment arrives at the same
//! cycle `now`, and a segment reads/writes only its own channel's state,
//! so draining the channels in *any* order produces the same per-channel
//! timelines as the historical serial walk over the interleaved segment
//! stream. The batch completes at the max of the channels' completion
//! cycles, and the statistics fold by summation — both order-independent.
//! The span-program replay ([`crate::spanprog`]) relies on this to lay
//! its decoded stream out channel-major.
//!
//! A burst run that stays in an open row streams at one burst per cycle;
//! touching a closed row exposes an activate+precharge penalty. Within a
//! channel, requests are serviced in the order given — the scheduler
//! upstream ([`crate::scheduler`]) decides that order, which is exactly
//! where the paper's memory-access coordination acts.

use crate::address::{AddressMap, ChannelPartition, MappingScheme, Segment};
use crate::request::MemRequest;
use crate::stats::{ChannelStats, HbmStats, MemStats};

/// How the memory controller orders segments within a service window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ControllerPolicy {
    /// Service strictly in the order given (the scheduler upstream fully
    /// determines locality).
    #[default]
    InOrder,
    /// First-Ready FCFS: within a lookahead window per channel, segments
    /// that hit an open row are served before older row-miss segments —
    /// the standard row-hit-first policy of real controllers.
    FrFcfs {
        /// Per-channel lookahead window in segments.
        window: usize,
    },
}

/// Static configuration of the HBM stack.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HbmConfig {
    /// Number of independent channels.
    pub channels: usize,
    /// Banks per channel.
    pub banks: usize,
    /// Row-buffer size in bytes.
    pub row_bytes: u64,
    /// Burst granularity in bytes.
    pub burst_bytes: u64,
    /// Cycles to transfer one burst on a channel's data bus.
    pub t_burst: u64,
    /// Exposed row activate + precharge penalty in cycles.
    pub t_row: u64,
    /// Column access latency (affects completion, not throughput).
    pub t_cas: u64,
    /// Address mapping scheme.
    pub mapping: MappingScheme,
    /// Controller reordering policy.
    pub controller: ControllerPolicy,
}

impl HbmConfig {
    /// HBM 1.0 at 256 GB/s with the coordinated (channel-interleaved)
    /// mapping — HyGCN's configuration.
    pub fn hbm1() -> Self {
        Self {
            channels: 8,
            banks: 16,
            row_bytes: 2048,
            burst_bytes: 32,
            t_burst: 1,
            t_row: 28,
            t_cas: 14,
            mapping: MappingScheme::ChannelInterleaved,
            controller: ControllerPolicy::InOrder,
        }
    }

    /// The same stack with the baseline (row-interleaved) mapping used by
    /// the no-coordination ablation (Fig. 17).
    pub fn hbm1_uncoordinated() -> Self {
        Self {
            mapping: MappingScheme::RowInterleaved,
            ..Self::hbm1()
        }
    }

    /// The largest `t_burst`, `t_row` or `t_cas` [`HbmConfig::validate`]
    /// accepts: 2^20 cycles, a thousand times any real DRAM timing. At
    /// this bound no cycle sum of a replay can wrap `u64` for any
    /// program under 2^40 bursts.
    pub const MAX_TIMING_CYCLES: u64 = 1 << 20;

    /// The most banks per channel [`HbmConfig::validate`] accepts: 2^16,
    /// so every bank index fits a span's `u16`
    /// ([`crate::spanprog::SpanTuple`]).
    pub const MAX_BANKS: usize = 1 << 16;

    /// The most bursts per row (`row_bytes / burst_bytes`)
    /// [`HbmConfig::validate`] accepts: 2^15, the largest power of two a
    /// span's `u16` burst count holds.
    pub const MAX_BURSTS_PER_ROW: u64 = 1 << 15;

    /// Validates the geometry without constructing anything: every
    /// count/size must be a power of two, the burst must fit inside a
    /// row, a channel may have at most [`HbmConfig::MAX_BANKS`] banks and
    /// a row at most [`HbmConfig::MAX_BURSTS_PER_ROW`] bursts, the burst
    /// transfer time must be nonzero, and no timing parameter may exceed
    /// [`HbmConfig::MAX_TIMING_CYCLES`].
    ///
    /// This is the config-level twin of [`AddressMap::try_new`]'s checks
    /// — campaign axes over memory-geometry knobs call it while
    /// *enumerating* a design space, so a bad combination fails fast
    /// with a spec error instead of panicking mid-campaign inside the
    /// decode hot path.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        AddressMap::try_new(
            self.mapping,
            self.channels,
            self.banks,
            self.row_bytes,
            self.burst_bytes,
        )?;
        if self.banks > Self::MAX_BANKS {
            return Err(format!(
                "banks {} exceeds the {} bank bound",
                self.banks,
                Self::MAX_BANKS
            ));
        }
        let bursts = self.row_bytes / self.burst_bytes;
        if bursts > Self::MAX_BURSTS_PER_ROW {
            return Err(format!(
                "row_bytes / burst_bytes = {bursts} bursts per row exceeds the {} \
                 burst bound",
                Self::MAX_BURSTS_PER_ROW
            ));
        }
        if self.t_burst == 0 {
            return Err("t_burst must be >= 1 cycle".into());
        }
        if self.t_row == 0 {
            return Err("t_row must be >= 1 cycle (a free activate+precharge \
                        makes every access a row hit)"
                .into());
        }
        for (name, cycles) in [
            ("t_burst", self.t_burst),
            ("t_row", self.t_row),
            ("t_cas", self.t_cas),
        ] {
            if cycles > Self::MAX_TIMING_CYCLES {
                return Err(format!(
                    "{name} {cycles} exceeds the {} cycle timing bound",
                    Self::MAX_TIMING_CYCLES
                ));
            }
        }
        Ok(())
    }

    /// Peak bandwidth in bytes per cycle (all channels).
    pub fn peak_bytes_per_cycle(&self) -> f64 {
        (crate::cast::widen_u64(self.channels) * self.burst_bytes) as f64 / self.t_burst as f64
    }

    /// The address decoder for this geometry.
    pub fn address_map(&self) -> AddressMap {
        AddressMap::new(
            self.mapping,
            self.channels,
            self.banks,
            self.row_bytes,
            self.row_bytes, // page-granular interleave
        )
    }
}

/// Sentinel for "no row open" (no real row index reaches `u64::MAX`).
const NO_ROW: u64 = u64::MAX;

#[derive(Debug, Clone, Copy)]
struct Bank {
    /// The open row, or [`NO_ROW`].
    open_row: u64,
    ready: u64,
}

impl Default for Bank {
    fn default() -> Self {
        Self {
            open_row: NO_ROW,
            ready: 0,
        }
    }
}

/// One channel's timing state machine: its banks' open rows and ready
/// cycles, its data-bus availability, and its share of the statistics.
///
/// A `ChannelTimeline` never reads another channel's state, so a set of
/// them can be advanced in any order over a [`ChannelPartition`]'s
/// queues and still reproduce the serial walk bit-for-bit (see the
/// module docs for the merge invariant).
#[derive(Debug, Clone)]
pub struct ChannelTimeline {
    banks: Vec<Bank>,
    bus_free: u64,
    t_row: u64,
    t_burst: u64,
    t_cas: u64,
    /// `log2(burst_bytes)` for the bursts-per-segment shift.
    burst_shift: u32,
    stats: ChannelStats,
}

impl ChannelTimeline {
    /// An idle channel of the given geometry.
    ///
    /// # Panics
    ///
    /// Panics unless `burst_bytes` is a nonzero power of two — the
    /// bursts-per-segment computation is a shift, and `AddressMap`
    /// validates the other geometry fields but never sees this one.
    pub fn new(config: &HbmConfig) -> Self {
        assert!(
            config.burst_bytes > 0 && config.burst_bytes.is_power_of_two(),
            "burst_bytes must be a power of two"
        );
        Self {
            banks: vec![Bank::default(); config.banks],
            bus_free: 0,
            t_row: config.t_row,
            t_burst: config.t_burst,
            t_cas: config.t_cas,
            burst_shift: config.burst_bytes.trailing_zeros(),
            stats: ChannelStats::default(),
        }
    }

    /// This channel's accumulated statistics.
    pub fn stats(&self) -> &ChannelStats {
        &self.stats
    }

    /// The cycle this channel's data bus becomes idle.
    pub fn bus_free(&self) -> u64 {
        self.bus_free
    }

    /// Services one segment arriving at `now`; returns the cycle its
    /// last data beat (plus CAS latency) completes.
    #[inline]
    pub fn service(&mut self, seg: &Segment, now: u64) -> u64 {
        let bursts = (u64::from(seg.bytes) + (1u64 << self.burst_shift) - 1) >> self.burst_shift;
        let bank = &mut self.banks[crate::cast::idx(seg.bank)];
        let mut ready = bank.ready.max(now);
        if bank.open_row != seg.row {
            // Activate (and precharge the old row) before the transfer.
            ready += self.t_row;
            bank.open_row = seg.row;
            self.stats.row_misses += 1;
        } else {
            self.stats.row_hits += 1;
        }
        let start = ready.max(self.bus_free);
        let finish = start + bursts * self.t_burst;
        self.bus_free = finish;
        bank.ready = finish;
        self.stats.bursts += bursts;
        self.stats.busy_cycles += bursts * self.t_burst;
        let done = finish + self.t_cas;
        self.stats.last_completion = self.stats.last_completion.max(done);
        done
    }

    /// Drains a queue in arrival order; returns the cycle the last
    /// segment completes, or `now` for an empty queue.
    pub fn drain(&mut self, segs: &[Segment], now: u64) -> u64 {
        let mut done = now;
        for seg in segs {
            done = done.max(self.service(seg, now));
        }
        done
    }

    /// Drains a queue with row-hit-first selection inside a `window`-deep
    /// lookahead (FR-FCFS); oldest segment wins when no pending segment
    /// hits an open row.
    pub fn drain_frfcfs(&mut self, segs: &[Segment], now: u64, window: usize) -> u64 {
        let window = window.max(1);
        let mut done = now;
        let mut pending: Vec<Segment> = Vec::with_capacity(window.min(segs.len()));
        let mut head = 0usize;
        loop {
            while pending.len() < window && head < segs.len() {
                pending.push(segs[head]);
                head += 1;
            }
            if pending.is_empty() {
                break;
            }
            let pick = pending
                .iter()
                .position(|s| self.banks[crate::cast::idx(s.bank)].open_row == s.row)
                .unwrap_or(0);
            let seg = pending.remove(pick);
            done = done.max(self.service(&seg, now));
        }
        done
    }
}

/// The HBM device model: per-channel timelines plus request-level
/// accounting and a reusable channel partition.
#[derive(Debug, Clone)]
pub struct Hbm {
    config: HbmConfig,
    map: AddressMap,
    channels: Vec<ChannelTimeline>,
    partition: ChannelPartition,
    /// Request-level counters (bytes, request count). Row hits/misses
    /// and the last completion live in the channels and are folded on
    /// [`Hbm::stats`].
    traffic: MemStats,
}

impl Hbm {
    /// Creates an idle HBM stack.
    pub fn new(config: HbmConfig) -> Self {
        Self {
            map: config.address_map(),
            channels: (0..config.channels)
                .map(|_| ChannelTimeline::new(&config))
                .collect(),
            partition: ChannelPartition::new(config.channels),
            config,
            traffic: MemStats::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &HbmConfig {
        &self.config
    }

    /// Accumulated statistics, with the per-channel counters folded into
    /// the totals (a pure summation — order-independent).
    pub fn stats(&self) -> MemStats {
        let mut s = self.traffic;
        for ch in &self.channels {
            ch.stats().fold_into(&mut s);
        }
        s
    }

    /// The per-channel statistics, in channel order.
    pub fn channel_stats(&self) -> Vec<ChannelStats> {
        self.channels.iter().map(|c| *c.stats()).collect()
    }

    /// The fully decomposed statistics view.
    pub fn hbm_stats(&self) -> HbmStats {
        HbmStats {
            totals: self.stats(),
            channels: self.channel_stats(),
        }
    }

    /// Services one request starting no earlier than `now`; returns the
    /// cycle at which its last data beat (plus CAS latency) arrives.
    ///
    /// The request is split into row-aligned segments; each segment is a
    /// same-(channel, bank, row) burst run. Channels progress
    /// independently, so a multi-row request naturally overlaps across
    /// channels under the interleaved mapping.
    pub fn access(&mut self, req: &MemRequest, now: u64) -> u64 {
        self.service_batch(std::slice::from_ref(req), now)
    }

    /// Services a batch; returns the completion cycle of the last request.
    ///
    /// The batch is split channel-major first and each channel drains its
    /// queue independently: under [`ControllerPolicy::InOrder`] exactly in
    /// the given order, under [`ControllerPolicy::FrFcfs`] serving row hits
    /// ahead of older row misses within its lookahead window. The batch
    /// completes when the last channel does, never before `now`.
    pub fn service_batch(&mut self, reqs: &[MemRequest], now: u64) -> u64 {
        let _obs = hygcn_obs::span(hygcn_obs::Phase::HbmWalk);
        self.partition.clear();
        for r in reqs {
            debug_assert!(r.bytes > 0, "zero-length request");
            self.partition.push_request(&self.map, r);
            self.traffic.requests += 1;
            if r.is_write {
                self.traffic.bytes_written += u64::from(r.bytes);
            } else {
                self.traffic.bytes_read += u64::from(r.bytes);
            }
        }
        let mut done = now;
        for (c, ch) in self.channels.iter_mut().enumerate() {
            let segs = self.partition.channel(c);
            let ch_done = match self.config.controller {
                ControllerPolicy::InOrder => ch.drain(segs, now),
                ControllerPolicy::FrFcfs { window } => ch.drain_frfcfs(segs, now, window),
            };
            done = done.max(ch_done);
        }
        done
    }

    /// The cycle at which all channels become idle.
    pub fn drain_cycle(&self) -> u64 {
        self.channels
            .iter()
            .map(ChannelTimeline::bus_free)
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::RequestKind;

    fn read(addr: u64, bytes: u32) -> MemRequest {
        MemRequest::read(RequestKind::InputFeatures, addr, bytes)
    }

    #[test]
    fn single_burst_latency() {
        let mut hbm = Hbm::new(HbmConfig::hbm1());
        let done = hbm.access(&read(0, 32), 0);
        // One miss: t_row + t_burst + t_cas.
        assert_eq!(done, 28 + 1 + 14);
        assert_eq!(hbm.stats().row_misses, 1);
    }

    #[test]
    fn open_row_streams_at_burst_rate() {
        let mut hbm = Hbm::new(HbmConfig::hbm1());
        let first = hbm.access(&read(0, 32), 0);
        let second = hbm.access(&read(32, 32), 0);
        // Same row: only one extra burst cycle.
        assert_eq!(second, first + 1);
        assert_eq!(hbm.stats().row_hits, 1);
    }

    #[test]
    fn row_conflict_pays_activate() {
        let cfg = HbmConfig::hbm1();
        let mut hbm = Hbm::new(cfg);
        hbm.access(&read(0, 32), 0);
        // Same bank, different row: with channel-interleaved page mapping,
        // rows of a bank are row_bytes * channels * banks apart.
        let stride = cfg.row_bytes * cfg.channels as u64 * cfg.banks as u64;
        hbm.access(&read(stride, 32), 0);
        assert_eq!(hbm.stats().row_misses, 2);
    }

    #[test]
    fn large_request_spreads_across_channels() {
        let cfg = HbmConfig::hbm1();
        let mut hbm = Hbm::new(cfg);
        // 16 KB = 8 rows = one per channel under interleaved mapping.
        let done = hbm.access(&read(0, 16 * 1024), 0);
        // Each channel: t_row + 64 bursts, in parallel, + CAS.
        assert_eq!(done, 28 + 64 + 14);
        assert_eq!(hbm.stats().row_misses, 8);
    }

    #[test]
    fn row_interleaved_serializes_large_request() {
        let mut hbm = Hbm::new(HbmConfig::hbm1_uncoordinated());
        // 16 KB touches 8 consecutive rows; baseline maps them to 8 banks
        // of ONE channel: the shared bus serializes the transfers.
        let done = hbm.access(&read(0, 16 * 1024), 0);
        assert!(done >= 8 * 64, "got {done}");
    }

    #[test]
    fn utilization_reflects_streaming() {
        let cfg = HbmConfig::hbm1();
        let mut hbm = Hbm::new(cfg);
        // Stream 1 MB contiguously.
        let done = hbm.access(&read(0, 1 << 20), 0);
        let util = hbm
            .stats()
            .bandwidth_utilization(done, cfg.peak_bytes_per_cycle());
        assert!(util > 0.8, "utilization {util}");
    }

    #[test]
    fn interleaved_streams_thrash_rows() {
        // Two fine-grained streams in the same bank region: alternating
        // rows force misses; the coordinated order avoids them.
        let cfg = HbmConfig::hbm1();
        let bank_stride = cfg.row_bytes * cfg.channels as u64 * cfg.banks as u64;
        let interleaved: Vec<MemRequest> = (0..32u64)
            .flat_map(|i| [read(i * 32, 32), read(bank_stride + i * 32, 32)])
            .collect();
        let mut a = Hbm::new(cfg);
        let t_thrash = a.service_batch(&interleaved, 0);

        let mut sorted = interleaved.clone();
        sorted.sort_by_key(|r| r.addr);
        let mut b = Hbm::new(cfg);
        let t_sorted = b.service_batch(&sorted, 0);
        assert!(
            t_thrash > 2 * t_sorted,
            "thrash {t_thrash} vs sorted {t_sorted}"
        );
        assert!(a.stats().row_hit_rate() < b.stats().row_hit_rate());
    }

    #[test]
    fn writes_counted_separately() {
        let mut hbm = Hbm::new(HbmConfig::hbm1());
        hbm.access(&MemRequest::write(RequestKind::OutputFeatures, 0, 64), 0);
        assert_eq!(hbm.stats().bytes_written, 64);
        assert_eq!(hbm.stats().bytes_read, 0);
    }

    #[test]
    fn peak_bandwidth_is_256_bytes_per_cycle() {
        assert_eq!(HbmConfig::hbm1().peak_bytes_per_cycle(), 256.0);
    }

    #[test]
    fn peak_bandwidth_keeps_the_fraction_of_a_slow_burst() {
        // 8 channels x 32 B every 3 cycles: 85.33 B/cycle, not 85.
        let slow = HbmConfig {
            t_burst: 3,
            ..HbmConfig::hbm1()
        };
        assert_eq!(slow.peak_bytes_per_cycle(), 256.0 / 3.0);
        // A peak below one byte per cycle stays nonzero, so the
        // roofline divisions in `hygcn-core` stay finite.
        let slower = HbmConfig {
            channels: 1,
            burst_bytes: 16,
            row_bytes: 256,
            t_burst: 64,
            ..HbmConfig::hbm1()
        };
        assert_eq!(slower.peak_bytes_per_cycle(), 0.25);
    }

    #[test]
    fn arrival_time_respected() {
        let mut hbm = Hbm::new(HbmConfig::hbm1());
        let done = hbm.access(&read(0, 32), 1000);
        assert!(done > 1000 + 28);
    }

    #[test]
    fn frfcfs_rescues_interleaved_thrash() {
        // Two bank-conflicting fine-grained streams: in-order thrashes,
        // FR-FCFS groups the row hits within its window.
        let cfg = HbmConfig::hbm1();
        let bank_stride = cfg.row_bytes * cfg.channels as u64 * cfg.banks as u64;
        let interleaved: Vec<MemRequest> = (0..64u64)
            .flat_map(|i| [read(i * 32, 32), read(bank_stride + i * 32, 32)])
            .collect();
        let mut in_order = Hbm::new(cfg);
        let t_inorder = in_order.service_batch(&interleaved, 0);

        let frcfg = HbmConfig {
            controller: ControllerPolicy::FrFcfs { window: 32 },
            ..cfg
        };
        let mut fr = Hbm::new(frcfg);
        let t_fr = fr.service_batch(&interleaved, 0);
        assert!(t_fr < t_inorder, "frfcfs {t_fr} vs in-order {t_inorder}");
        assert!(fr.stats().row_hit_rate() > in_order.stats().row_hit_rate());
    }

    #[test]
    fn frfcfs_preserves_byte_accounting() {
        let cfg = HbmConfig {
            controller: ControllerPolicy::FrFcfs { window: 8 },
            ..HbmConfig::hbm1()
        };
        let mut hbm = Hbm::new(cfg);
        let reqs = vec![
            read(0, 5000),
            MemRequest::write(RequestKind::OutputFeatures, 1 << 20, 3000),
        ];
        hbm.service_batch(&reqs, 0);
        assert_eq!(hbm.stats().bytes_read, 5000);
        assert_eq!(hbm.stats().bytes_written, 3000);
        assert_eq!(hbm.stats().requests, 2);
    }

    #[test]
    fn frfcfs_matches_inorder_on_sorted_stream() {
        // A single contiguous stream has nothing to reorder.
        let reqs: Vec<MemRequest> = (0..32u64).map(|i| read(i * 2048, 2048)).collect();
        let mut a = Hbm::new(HbmConfig::hbm1());
        let t_a = a.service_batch(&reqs, 0);
        let cfg = HbmConfig {
            controller: ControllerPolicy::FrFcfs { window: 16 },
            ..HbmConfig::hbm1()
        };
        let mut b = Hbm::new(cfg);
        let t_b = b.service_batch(&reqs, 0);
        assert_eq!(t_a, t_b);
    }

    #[test]
    fn channel_stats_fold_to_totals() {
        let mut hbm = Hbm::new(HbmConfig::hbm1());
        hbm.service_batch(&[read(0, 64 * 1024), read(1 << 21, 8 * 1024)], 0);
        let full = hbm.hbm_stats();
        assert!(full.consistent());
        assert_eq!(full.channels.len(), 8);
        // 72 KB in 32 B bursts, spread over the channels.
        let bursts: u64 = full.channels.iter().map(|c| c.bursts).sum();
        assert_eq!(bursts, 72 * 1024 / 32);
    }
}
