//! Traffic and utilization counters.

/// Accumulated off-chip memory statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemStats {
    /// Bytes read from DRAM.
    pub bytes_read: u64,
    /// Bytes written to DRAM.
    pub bytes_written: u64,
    /// Bursts that hit an open row.
    pub row_hits: u64,
    /// Bursts that required activate (+precharge).
    pub row_misses: u64,
    /// Number of requests serviced.
    pub requests: u64,
    /// Cycle at which the last burst completed.
    pub last_completion: u64,
}

impl MemStats {
    /// Total bytes moved.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }

    /// Row-buffer hit rate in `[0, 1]`.
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.row_hits + self.row_misses;
        if total == 0 {
            0.0
        } else {
            self.row_hits as f64 / total as f64
        }
    }

    /// Achieved bandwidth utilization over `elapsed_cycles`, given the
    /// peak of `peak_bytes_per_cycle`, in `[0, 1]`.
    pub fn bandwidth_utilization(&self, elapsed_cycles: u64, peak_bytes_per_cycle: f64) -> f64 {
        if elapsed_cycles == 0 {
            return 0.0;
        }
        (self.total_bytes() as f64 / (elapsed_cycles as f64 * peak_bytes_per_cycle)).min(1.0)
    }

    /// Merges another stats block into this one (parallel channels).
    pub fn merge(&mut self, other: &MemStats) {
        self.bytes_read += other.bytes_read;
        self.bytes_written += other.bytes_written;
        self.row_hits += other.row_hits;
        self.row_misses += other.row_misses;
        self.requests += other.requests;
        self.last_completion = self.last_completion.max(other.last_completion);
    }
}

/// One channel's share of the timing walk — accumulated per channel by
/// [`crate::hbm::Hbm`] and [`crate::spanprog::SpanReplayer`] and folded
/// into [`MemStats`] totals by summation, which is order-independent,
/// so the fold is bit-identical whatever order the channels ran in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChannelStats {
    /// Segments that hit this channel's open rows.
    pub row_hits: u64,
    /// Segments that paid activate (+precharge) on this channel.
    pub row_misses: u64,
    /// Bursts transferred on this channel's data bus.
    pub bursts: u64,
    /// Cycles this channel's data bus spent transferring.
    pub busy_cycles: u64,
    /// Cycle at which this channel's last burst (plus CAS) completed.
    pub last_completion: u64,
}

impl ChannelStats {
    /// Folds this channel's counters into batch totals.
    pub fn fold_into(&self, totals: &mut MemStats) {
        totals.row_hits += self.row_hits;
        totals.row_misses += self.row_misses;
        totals.last_completion = totals.last_completion.max(self.last_completion);
    }
}

/// The fully decomposed view of an HBM stack's statistics: request-level
/// totals plus the per-channel timing breakdown they were folded from.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HbmStats {
    /// Request-level totals (the [`MemStats`] a `SimReport` carries).
    pub totals: MemStats,
    /// One entry per channel, in channel order.
    pub channels: Vec<ChannelStats>,
}

impl HbmStats {
    /// Whether the per-channel counters sum to the totals — the merge
    /// invariant the property tests assert.
    pub fn consistent(&self) -> bool {
        let hits: u64 = self.channels.iter().map(|c| c.row_hits).sum();
        let misses: u64 = self.channels.iter().map(|c| c.row_misses).sum();
        let last = self
            .channels
            .iter()
            .map(|c| c.last_completion)
            .max()
            .unwrap_or(0);
        hits == self.totals.row_hits
            && misses == self.totals.row_misses
            && last == self.totals.last_completion
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_and_totals() {
        let s = MemStats {
            bytes_read: 100,
            bytes_written: 50,
            row_hits: 3,
            row_misses: 1,
            requests: 4,
            last_completion: 99,
        };
        assert_eq!(s.total_bytes(), 150);
        assert!((s.row_hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_are_safe() {
        let s = MemStats::default();
        assert_eq!(s.row_hit_rate(), 0.0);
        assert_eq!(s.bandwidth_utilization(0, 256.0), 0.0);
    }

    #[test]
    fn utilization_capped_at_one() {
        let s = MemStats {
            bytes_read: 10_000,
            ..Default::default()
        };
        assert_eq!(s.bandwidth_utilization(1, 256.0), 1.0);
    }

    #[test]
    fn channel_fold_and_consistency() {
        let ch = [
            ChannelStats {
                row_hits: 3,
                row_misses: 1,
                bursts: 10,
                busy_cycles: 10,
                last_completion: 50,
            },
            ChannelStats {
                row_hits: 2,
                row_misses: 2,
                bursts: 6,
                busy_cycles: 6,
                last_completion: 80,
            },
        ];
        let mut totals = MemStats::default();
        for c in &ch {
            c.fold_into(&mut totals);
        }
        assert_eq!(totals.row_hits, 5);
        assert_eq!(totals.row_misses, 3);
        assert_eq!(totals.last_completion, 80);
        let full = HbmStats {
            totals,
            channels: ch.to_vec(),
        };
        assert!(full.consistent());
        let mut broken = full.clone();
        broken.totals.row_hits += 1;
        assert!(!broken.consistent());
    }

    #[test]
    fn merge_accumulates() {
        let mut a = MemStats {
            bytes_read: 10,
            row_hits: 1,
            last_completion: 5,
            ..Default::default()
        };
        let b = MemStats {
            bytes_read: 20,
            row_misses: 2,
            last_completion: 9,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.bytes_read, 30);
        assert_eq!(a.row_misses, 2);
        assert_eq!(a.last_completion, 9);
    }
}
