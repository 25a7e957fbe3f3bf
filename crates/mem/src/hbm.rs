//! Cycle-level HBM timing model — the Ramulator substitute, and the
//! reference walk the simulator's span-program replay
//! ([`crate::spanprog`]) must reproduce bit for bit.
//!
//! Geometry and rates follow HBM 1.0 as configured in Table 6: 8 channels
//! at 32 GB/s each (256 GB/s aggregate), 1 GHz accelerator clock, 32 B
//! bursts, 2 KB row buffers, 16 banks per channel.
//!
//! [`Hbm`] is the seed's walk. A request splits into row-aligned
//! segments, and [`HbmConfig::locate`] decodes each to one (channel,
//! bank, row) with page-granular division and modulo: the replay's
//! builder decodes with shifts and masks, so the two share no decode
//! arithmetic. Each bank keeps its open row and ready cycle, each
//! channel its data bus. A batch's segments queue per channel in arrival
//! order, and each channel drains its queue: a pick serves the oldest
//! segment within the [`ControllerPolicy::FrFcfs`] window that hits its
//! bank's open row, else the oldest; in-order service is the window-1
//! case. A burst run that stays in an open row streams at one burst per
//! cycle; touching a closed row exposes an activate+precharge penalty.
//! Which requests a batch holds, and in what order, is the scheduler's
//! choice upstream ([`crate::scheduler`]) — exactly where the paper's
//! memory-access coordination acts.

use std::collections::VecDeque;

use crate::address::MappingScheme;
use crate::cast::{saturating_usize, widen_u64};
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

/// The address span each channel owns under
/// [`MappingScheme::RowInterleaved`]: 128 MB.
const CHANNEL_SPAN: u64 = 128 << 20;

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

    /// The most channels [`HbmConfig::validate`] accepts: 2^10, a
    /// hundred times a real stack's. Every timing model sizes its state
    /// per channel up front, and an allocation failure aborts the
    /// process, which no caller can catch: `channels = 2^40` asked for
    /// 8 TB of span-program cursors.
    pub const MAX_CHANNELS: usize = 1 << 10;

    /// The most banks per channel [`HbmConfig::validate`] accepts: 2^16,
    /// so every bank index fits a span's `u16`
    /// ([`crate::spanprog::SpanTuple`]).
    pub const MAX_BANKS: usize = 1 << 16;

    /// The most banks in all (`channels * banks`)
    /// [`HbmConfig::validate`] accepts: 2^20. The replay and this walk
    /// hold per-bank state for every channel, so this bound keeps it
    /// within tens of megabytes where the two per-field bounds alone
    /// would allow 2^26 banks.
    pub const MAX_TOTAL_BANKS: usize = 1 << 20;

    /// The most bursts per row (`row_bytes / burst_bytes`)
    /// [`HbmConfig::validate`] accepts: 2^15, the largest power of two a
    /// span's `u16` burst count holds.
    pub const MAX_BURSTS_PER_ROW: u64 = 1 << 15;

    /// Validates the geometry without constructing anything: every
    /// count/size must be a power of two, the burst must fit inside a
    /// row, there may be at most [`HbmConfig::MAX_CHANNELS`] channels,
    /// [`HbmConfig::MAX_BANKS`] banks per channel and
    /// [`HbmConfig::MAX_TOTAL_BANKS`] banks in all, a row may hold at
    /// most [`HbmConfig::MAX_BURSTS_PER_ROW`] bursts, the burst transfer
    /// time and the row penalty must be nonzero, and no timing parameter
    /// may exceed [`HbmConfig::MAX_TIMING_CYCLES`].
    ///
    /// Every timing model calls it before it decodes an address, and
    /// campaign axes over memory-geometry knobs call it while
    /// *enumerating* a design space, so a bad combination fails fast
    /// with a spec error instead of mid-campaign.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        for (name, v) in [
            ("channels", widen_u64(self.channels)),
            ("banks", widen_u64(self.banks)),
            ("row_bytes", self.row_bytes),
            ("burst_bytes", self.burst_bytes),
        ] {
            if !(v > 0 && v.is_power_of_two()) {
                return Err(format!("{name} must be a power of two (got {v})"));
            }
        }
        // A burst streams out of one open row, so it cannot be larger.
        if self.burst_bytes > self.row_bytes {
            return Err(format!(
                "burst_bytes ({}) must not exceed row_bytes ({})",
                self.burst_bytes, self.row_bytes
            ));
        }
        if self.channels > Self::MAX_CHANNELS {
            return Err(format!(
                "channels {} exceeds the {} channel bound",
                self.channels,
                Self::MAX_CHANNELS
            ));
        }
        if self.banks > Self::MAX_BANKS {
            return Err(format!(
                "banks {} exceeds the {} bank bound",
                self.banks,
                Self::MAX_BANKS
            ));
        }
        // Both factors are bounded above, so the product cannot wrap.
        let total_banks = self.channels * self.banks;
        if total_banks > Self::MAX_TOTAL_BANKS {
            return Err(format!(
                "channels * banks = {total_banks} banks in all exceeds the {} \
                 bank bound",
                Self::MAX_TOTAL_BANKS
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
        (widen_u64(self.channels) * self.burst_bytes) as f64 / self.t_burst as f64
    }

    /// Decodes a byte address into its `(channel, bank, row)`, one
    /// row-buffer page at a time: every byte of a page shares its
    /// location. The channel-interleaved mapping deals consecutive pages
    /// round-robin over the channels, then over the banks; the
    /// row-interleaved one gives each channel a 128 MB span and rotates
    /// the banks page by page within it. The geometry must pass
    /// [`HbmConfig::validate`]: a zero count or size divides by zero.
    pub fn locate(&self, addr: u64) -> (usize, usize, u64) {
        let (channels, banks) = (widen_u64(self.channels), widen_u64(self.banks));
        let (channel, page) = match self.mapping {
            MappingScheme::ChannelInterleaved => {
                let page = addr / self.row_bytes;
                (page % channels, page / channels)
            }
            MappingScheme::RowInterleaved => (
                addr / CHANNEL_SPAN % channels,
                addr % CHANNEL_SPAN / self.row_bytes,
            ),
        };
        (
            saturating_usize(channel),
            saturating_usize(page % banks),
            page / banks,
        )
    }
}

/// One decoded segment waiting in its channel's queue: a same-(bank,
/// row) burst run of at most one row.
#[derive(Debug, Clone, Copy)]
struct Run {
    bank: usize,
    row: u64,
    bursts: u64,
}

/// One bank's open row (`None` while closed) and the cycle it is ready.
#[derive(Debug, Clone, Copy, Default)]
struct Bank {
    open_row: Option<u64>,
    ready: u64,
}

/// One channel: its banks, its data bus, the batch's runs in arrival
/// order, and its share of the statistics.
#[derive(Debug, Clone, Default)]
struct Channel {
    banks: Vec<Bank>,
    bus_free: u64,
    queue: VecDeque<Run>,
    stats: ChannelStats,
}

impl Channel {
    /// Serves the whole queue, every run arriving at `now`: each pick is
    /// the oldest of the first `window` runs that hits its bank's open
    /// row, else the oldest run (so a window of 0 or 1 serves in order).
    /// Returns the cycle the last run completes, or `now` for an empty
    /// queue.
    fn drain(&mut self, cfg: &HbmConfig, window: usize, now: u64) -> u64 {
        let mut done = now;
        loop {
            let banks = &self.banks;
            let hit = |r: &Run| banks[r.bank].open_row == Some(r.row);
            let pick = self.queue.iter().take(window).position(hit).unwrap_or(0);
            let Some(run) = self.queue.remove(pick) else {
                return done;
            };
            let bank = &mut self.banks[run.bank];
            let mut ready = bank.ready.max(now);
            if bank.open_row == Some(run.row) {
                self.stats.row_hits += 1;
            } else {
                // Activate (and precharge the old row) before the transfer.
                ready += cfg.t_row;
                bank.open_row = Some(run.row);
                self.stats.row_misses += 1;
            }
            let finish = ready.max(self.bus_free) + run.bursts * cfg.t_burst;
            self.bus_free = finish;
            bank.ready = finish;
            self.stats.bursts += run.bursts;
            self.stats.busy_cycles += run.bursts * cfg.t_burst;
            let completion = finish + cfg.t_cas;
            self.stats.last_completion = self.stats.last_completion.max(completion);
            done = done.max(completion);
        }
    }
}

/// The HBM device model: per-channel bank, bus and queue state plus
/// request-level accounting.
#[derive(Debug, Clone)]
pub struct Hbm {
    config: HbmConfig,
    channels: Vec<Channel>,
    /// Request-level counters (bytes, request count). Row hits/misses
    /// and the last completion live in the channels and are folded on
    /// [`Hbm::stats`].
    traffic: MemStats,
}

impl Hbm {
    /// Creates an idle HBM stack. The geometry must pass
    /// [`HbmConfig::validate`] (see [`HbmConfig::locate`]).
    pub fn new(config: HbmConfig) -> Self {
        let channel = Channel {
            banks: vec![Bank::default(); config.banks],
            ..Channel::default()
        };
        Self {
            channels: vec![channel; config.channels],
            config,
            traffic: MemStats::default(),
        }
    }

    /// Accumulated statistics, with the per-channel counters folded into
    /// the totals (a pure summation — order-independent).
    pub fn stats(&self) -> MemStats {
        let mut s = self.traffic;
        for ch in &self.channels {
            ch.stats.fold_into(&mut s);
        }
        s
    }

    /// The per-channel statistics, in channel order.
    pub fn channel_stats(&self) -> Vec<ChannelStats> {
        self.channels.iter().map(|c| c.stats).collect()
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
    /// The request's row-aligned segments are served as a batch of one,
    /// so a multi-row request overlaps across channels under the
    /// interleaved mapping.
    pub fn access(&mut self, req: &MemRequest, now: u64) -> u64 {
        self.service_batch(std::slice::from_ref(req), now)
    }

    /// Services a batch arriving at `now`; returns the completion cycle
    /// of the last request, never before `now`.
    ///
    /// Every request splits into row-aligned segments, queued on their
    /// channels in arrival order. Each channel then drains its queue
    /// alone: under [`ControllerPolicy::InOrder`] exactly in that order,
    /// under [`ControllerPolicy::FrFcfs`] serving row hits ahead of
    /// older row misses within its lookahead window. No channel reads
    /// another's state, so the batch completes when the last channel
    /// does, whatever order they drain in.
    pub fn service_batch(&mut self, reqs: &[MemRequest], now: u64) -> u64 {
        let _obs = hygcn_obs::span(hygcn_obs::Phase::HbmWalk);
        let cfg = self.config;
        for r in reqs {
            debug_assert!(r.bytes > 0, "zero-length request");
            let (mut addr, end) = (r.addr, r.addr + u64::from(r.bytes));
            while addr < end {
                let seg_end = ((addr / cfg.row_bytes + 1) * cfg.row_bytes).min(end);
                let (channel, bank, row) = cfg.locate(addr);
                let bursts = (seg_end - addr).div_ceil(cfg.burst_bytes);
                self.channels[channel]
                    .queue
                    .push_back(Run { bank, row, bursts });
                addr = seg_end;
            }
            self.traffic.requests += 1;
            if r.is_write {
                self.traffic.bytes_written += u64::from(r.bytes);
            } else {
                self.traffic.bytes_read += u64::from(r.bytes);
            }
        }
        let window = match cfg.controller {
            ControllerPolicy::InOrder => 1,
            ControllerPolicy::FrFcfs { window } => window,
        };
        self.channels
            .iter_mut()
            .fold(now, |done, ch| done.max(ch.drain(&cfg, window, now)))
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
