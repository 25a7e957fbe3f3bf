//! Uniform result record for all platforms.

/// Per-phase execution time in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PhaseBreakdown {
    /// Aggregation phase (including Sampling when executed inline).
    pub aggregation_s: f64,
    /// Combination phase (including Pool/Readout matrix work).
    pub combination_s: f64,
}

impl PhaseBreakdown {
    /// Total of both phases.
    pub fn total_s(&self) -> f64 {
        self.aggregation_s + self.combination_s
    }

    /// Aggregation's share of the total, in `[0, 1]`.
    pub fn aggregation_share(&self) -> f64 {
        let t = self.total_s();
        if t <= 0.0 {
            0.0
        } else {
            self.aggregation_s / t
        }
    }
}

/// One platform's execution of one model on one graph.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PlatformReport {
    /// End-to-end time in seconds.
    pub time_s: f64,
    /// Per-phase breakdown.
    pub phases: PhaseBreakdown,
    /// Off-chip DRAM traffic in bytes.
    pub dram_bytes: u64,
    /// Total energy in joules.
    pub energy_j: f64,
    /// Achieved fraction of peak DRAM bandwidth, in `[0, 1]`.
    pub bandwidth_utilization: f64,
}

impl PlatformReport {
    /// Speedup of this platform over `baseline` (baseline time / ours).
    pub fn speedup_over(&self, baseline: &PlatformReport) -> f64 {
        if self.time_s <= 0.0 {
            return f64::INFINITY;
        }
        baseline.time_s / self.time_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_and_totals() {
        let p = PhaseBreakdown {
            aggregation_s: 3.0,
            combination_s: 1.0,
        };
        assert_eq!(p.total_s(), 4.0);
        assert!((p.aggregation_share() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn empty_breakdown_share_is_zero() {
        assert_eq!(PhaseBreakdown::default().aggregation_share(), 0.0);
    }

    #[test]
    fn speedup_is_the_time_ratio() {
        let fast = PlatformReport {
            time_s: 0.001,
            ..Default::default()
        };
        let slow = PlatformReport {
            time_s: 1.0,
            ..Default::default()
        };
        assert!((fast.speedup_over(&slow) - 1000.0).abs() < 1e-9);
    }
}
