//! Per-chunk execution timeline — the simulator's observability surface.
//!
//! When [`crate::config::HyGcnConfig::record_timeline`] is set, the
//! simulator records one [`ChunkTrace`] per pipeline step: the two
//! engines' compute demands, the memory system's service time, and which
//! of the three bound the step. [`render`] prints a compact textual
//! Gantt view for debugging workload balance — the tool one reaches for
//! when a configuration underperforms.

/// What bounded a pipeline step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bound {
    /// Aggregation Engine compute.
    Aggregation,
    /// Combination Engine compute.
    Combination,
    /// Off-chip memory service.
    Memory,
}

impl Bound {
    /// One-letter tag for the rendering.
    pub fn tag(&self) -> char {
        match self {
            Bound::Aggregation => 'A',
            Bound::Combination => 'C',
            Bound::Memory => 'M',
        }
    }
}

/// One pipeline step's accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkTrace {
    /// Step index.
    pub step: usize,
    /// Aggregation compute demand in cycles (0 if no chunk aggregated).
    pub agg_cycles: u64,
    /// Combination compute demand in cycles (0 if no chunk combined).
    pub comb_cycles: u64,
    /// Memory service time in cycles.
    pub mem_cycles: u64,
    /// The realized step duration (the max of the three).
    pub step_cycles: u64,
}

impl ChunkTrace {
    /// Which resource bound this step.
    pub fn bound(&self) -> Bound {
        if self.mem_cycles >= self.agg_cycles && self.mem_cycles >= self.comb_cycles {
            Bound::Memory
        } else if self.agg_cycles >= self.comb_cycles {
            Bound::Aggregation
        } else {
            Bound::Combination
        }
    }

    /// Fraction of the step the named engine was busy.
    pub fn utilization(&self, of: Bound) -> f64 {
        if self.step_cycles == 0 {
            return 0.0;
        }
        let busy = match of {
            Bound::Aggregation => self.agg_cycles,
            Bound::Combination => self.comb_cycles,
            Bound::Memory => self.mem_cycles,
        };
        busy as f64 / self.step_cycles as f64
    }
}

/// Renders a timeline as fixed-width text: one row per step with
/// proportional bars for each resource.
pub fn render(traces: &[ChunkTrace]) -> String {
    const WIDTH: usize = 32;
    let max = traces
        .iter()
        .map(|t| t.step_cycles)
        .max()
        .unwrap_or(1)
        .max(1);
    let mut out = String::from("step     cycles  bound  A=aggregation C=combination M=memory\n");
    for t in traces {
        let bar_len = (t.step_cycles as usize * WIDTH / max as usize).max(1);
        let bar: String = std::iter::repeat_n(t.bound().tag(), bar_len).collect();
        out += &format!(
            "{:>4} {:>10}      {}  {}\n",
            t.step,
            t.step_cycles,
            t.bound().tag(),
            bar
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(step: usize, a: u64, c: u64, m: u64) -> ChunkTrace {
        ChunkTrace {
            step,
            agg_cycles: a,
            comb_cycles: c,
            mem_cycles: m,
            step_cycles: a.max(c).max(m),
        }
    }

    #[test]
    fn bound_detection() {
        assert_eq!(t(0, 10, 5, 3).bound(), Bound::Aggregation);
        assert_eq!(t(0, 5, 10, 3).bound(), Bound::Combination);
        assert_eq!(t(0, 5, 10, 30).bound(), Bound::Memory);
    }

    #[test]
    fn utilization_fractions() {
        let tr = t(0, 50, 25, 100);
        assert_eq!(tr.utilization(Bound::Memory), 1.0);
        assert_eq!(tr.utilization(Bound::Aggregation), 0.5);
        assert_eq!(tr.utilization(Bound::Combination), 0.25);
    }

    #[test]
    fn render_shows_each_step() {
        let out = render(&[t(0, 10, 5, 3), t(1, 2, 20, 8)]);
        assert!(out.contains("A"));
        assert!(out.contains("C"));
        assert_eq!(out.lines().count(), 3);
    }
}
