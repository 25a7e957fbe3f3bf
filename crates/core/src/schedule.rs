//! Precompiled per-design-point schedule for the cycle-level simulator
//! ([`crate::sim`]).
//!
//! [`EventSchedule::build`] flattens everything about a
//! `(graph, config, feature_len)` triple the chunk loop would otherwise
//! rediscover per call: the destination chunking and, with sparsity
//! elimination on, every chunk's effectual windows. Windows come from
//! the graph's cached [`OccupancyIndex`] — per-interval source-occupancy
//! bitmaps built once per (graph, chunking) and shared across calls and
//! graph clones — so a warm evaluation pays only a popcount sweep per
//! chunk instead of the O(V+E) [`WindowPlanner`] planning sweep. When
//! the index would blow its memory budget, the schedule falls back to
//! the planner; either way the emitted window *spans* are exactly those
//! of Algorithm 4, which is all the engine consumes (edge counts are
//! derived from CSC offsets downstream).
//!
//! [`OccupancyIndex`]: hygcn_graph::window::OccupancyIndex
//! [`WindowPlanner`]: hygcn_graph::window::WindowPlanner

use hygcn_graph::partition::Interval;
use hygcn_graph::window::{EffectualWindow, WindowPlanner};
use hygcn_graph::Graph;

use crate::config::HyGcnConfig;

/// The flattened chunk schedule of one design point: the destination
/// intervals plus (with sparsity elimination) every chunk's effectual
/// windows in packed form.
#[derive(Debug, Clone)]
pub struct EventSchedule {
    intervals: Vec<Interval>,
    /// `windows[offsets[i]..offsets[i+1]]` are chunk `i`'s windows;
    /// `offsets` is all-zero (every slice empty) when sparsity
    /// elimination is off.
    offsets: Vec<usize>,
    windows: Vec<EffectualWindow>,
}

impl EventSchedule {
    /// Builds the schedule for one design point. `graph` must be the
    /// graph the chunk loop will run over (i.e. post-sampling).
    pub fn build(graph: &Graph, cfg: &HyGcnConfig, f_in: usize) -> Self {
        let _obs = hygcn_obs::span(hygcn_obs::Phase::ScheduleBuild);
        let n = graph.num_vertices() as u64;
        let chunk_w = cfg.chunk_width(f_in) as u32;
        let mut intervals = Vec::new();
        let mut start = 0u32;
        while u64::from(start) < n {
            let end = (start + chunk_w).min(n as u32);
            intervals.push(Interval::new(start, end));
            start = end;
        }

        let mut offsets = vec![0usize; intervals.len() + 1];
        let mut windows = Vec::new();
        if cfg.sparsity_elimination {
            let height = cfg.window_height(f_in);
            match graph.occupancy_index(&intervals) {
                Some(idx) => {
                    for i in 0..intervals.len() {
                        idx.for_each_window(i, height, |rows| {
                            windows.push(EffectualWindow {
                                rows,
                                edge_count: 0, // derived from CSC downstream
                            });
                        });
                        offsets[i + 1] = windows.len();
                    }
                }
                None => {
                    // Over the bitmap budget: one planner sweep instead.
                    let ws = WindowPlanner::new(height).plan_all(graph, &intervals);
                    for i in 0..intervals.len() {
                        windows.extend_from_slice(ws.windows(i));
                        offsets[i + 1] = windows.len();
                    }
                }
            }
        }
        Self {
            intervals,
            offsets,
            windows,
        }
    }

    /// The destination chunking, in ascending order.
    pub fn intervals(&self) -> &[Interval] {
        &self.intervals
    }

    /// Chunk `i`'s effectual windows (empty when sparsity elimination is
    /// off — the engine ignores the plan entirely in that case).
    pub fn windows(&self, i: usize) -> &[EffectualWindow] {
        &self.windows[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Total windows across all chunks.
    pub fn total_windows(&self) -> usize {
        self.windows.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hygcn_graph::generator::{rmat, RmatParams};

    #[test]
    fn window_spans_match_planner_sweep() {
        let g = rmat(3000, 24_000, RmatParams::default(), 11)
            .unwrap()
            .with_feature_len(64);
        let cfg = HyGcnConfig {
            aggregation_buffer_bytes: 1 << 19, // force several chunks
            ..HyGcnConfig::default()
        };
        let sched = EventSchedule::build(&g, &cfg, 64);
        assert!(sched.intervals().len() > 1);
        let planner = WindowPlanner::new(cfg.window_height(64));
        let ws = planner.plan_all(&g, sched.intervals());
        assert_eq!(sched.total_windows(), ws.total_windows());
        for i in 0..sched.intervals().len() {
            let spans: Vec<_> = sched.windows(i).iter().map(|w| w.rows).collect();
            let golden: Vec<_> = ws.windows(i).iter().map(|w| w.rows).collect();
            assert_eq!(spans, golden, "chunk {i}");
        }
    }

    #[test]
    fn sparsity_off_yields_empty_window_lists() {
        let g = rmat(500, 3000, RmatParams::default(), 2)
            .unwrap()
            .with_feature_len(32);
        let cfg = HyGcnConfig {
            sparsity_elimination: false,
            ..HyGcnConfig::default()
        };
        let sched = EventSchedule::build(&g, &cfg, 32);
        assert_eq!(sched.total_windows(), 0);
        for i in 0..sched.intervals().len() {
            assert!(sched.windows(i).is_empty());
        }
    }

    #[test]
    fn empty_graph_has_no_intervals() {
        let coo = hygcn_graph::Coo::from_pairs(0, []).unwrap();
        let g = Graph::from_coo(&coo, 16);
        let sched = EventSchedule::build(&g, &HyGcnConfig::default(), 16);
        assert!(sched.intervals().is_empty());
        assert_eq!(sched.total_windows(), 0);
    }
}
