//! Data-aware sparsity elimination: window sliding and shrinking
//! (paper §4.3.3, Fig. 5(c)/(d), Algorithm 4).
//!
//! For each destination interval, a window of the shard height slides down
//! the source dimension until an edge appears in its top row, then its
//! bottom edge shrinks upward to the last row that holds an edge. The
//! recorded *effectual windows* are the only source-feature rows the
//! Aggregation Engine loads from DRAM, eliminating loads for source
//! vertices that share no edge with the interval.

use crate::partition::Interval;
use crate::{Graph, VertexId};

/// One effectual shard discovered by sliding+shrinking: a contiguous range
/// of source rows plus the number of edges it contains for the destination
/// interval it was planned for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EffectualWindow {
    /// Source-row range `[start, end)` whose features must be loaded.
    pub rows: Interval,
    /// Edges between `rows` and the destination interval.
    pub edge_count: usize,
}

/// Every interval's effectual windows, flattened — the precomputed form
/// the simulator's chunk workers consume (see [`WindowPlanner::plan_all`]).
#[derive(Debug, Clone, Default)]
pub struct WindowSet {
    /// `windows[offsets[i]..offsets[i+1]]` are interval `i`'s windows.
    offsets: Vec<usize>,
    windows: Vec<EffectualWindow>,
}

impl WindowSet {
    /// Number of intervals covered.
    pub fn num_intervals(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Interval `i`'s windows, ascending by source row.
    pub fn windows(&self, i: usize) -> &[EffectualWindow] {
        &self.windows[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Total windows across all intervals.
    pub fn total_windows(&self) -> usize {
        self.windows.len()
    }

    /// Flattens one window list per interval into the packed layout.
    fn from_lists(lists: Vec<Vec<EffectualWindow>>) -> Self {
        let mut offsets = Vec::with_capacity(lists.len() + 1);
        offsets.push(0usize);
        let mut total = 0usize;
        for l in &lists {
            total += l.len();
            offsets.push(total);
        }
        let mut windows = Vec::with_capacity(total);
        for l in lists {
            windows.extend(l);
        }
        Self { offsets, windows }
    }
}

/// Plans effectual windows for destination intervals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowPlanner {
    window_height: usize,
}

impl WindowPlanner {
    /// Creates a planner whose windows are `window_height` source rows tall
    /// (the shard height, i.e. the Input Buffer capacity in vectors).
    ///
    /// # Panics
    ///
    /// Panics if `window_height` is zero.
    pub fn new(window_height: usize) -> Self {
        assert!(window_height > 0, "window height must be nonzero");
        Self { window_height }
    }

    /// Window height in source rows.
    pub fn window_height(&self) -> usize {
        self.window_height
    }

    /// Returns the effectual windows for destination interval `dst`,
    /// implementing Algorithm 4 exactly: slide until the top row is
    /// occupied, provisionally extend by the window height, then shrink the
    /// bottom to the last occupied row.
    pub fn plan(&self, graph: &Graph, dst: Interval) -> Vec<EffectualWindow> {
        let mut windows = Vec::new();
        let mut scratch = Vec::new();
        self.plan_with(graph, dst, &mut scratch, |w| windows.push(w));
        windows
    }

    /// Streaming, allocation-free variant of [`WindowPlanner::plan`] for
    /// the simulator's hot loop: emits each effectual window through
    /// `emit` as it is discovered, reusing `scratch` (a caller-owned
    /// buffer, cleared on entry) for the sorted source-row multiset.
    /// Windows are emitted in exactly the order [`WindowPlanner::plan`]
    /// returns them.
    pub fn plan_with<F: FnMut(EffectualWindow)>(
        &self,
        graph: &Graph,
        dst: Interval,
        scratch: &mut Vec<VertexId>,
        emit: F,
    ) {
        // Multiset of source rows with an edge into `dst`, sorted.
        let rows = scratch;
        rows.clear();
        for d in dst.iter() {
            rows.extend_from_slice(graph.in_neighbors(d));
        }
        rows.sort_unstable();
        self.plan_rows(rows, emit);
    }

    /// Plans effectual windows from a precomputed sorted source-row
    /// multiset (one [`crate::partition::SourceOccupancy`] slice),
    /// emitting exactly the windows [`WindowPlanner::plan`] would produce
    /// for the interval the rows were built for — without touching the
    /// graph or allocating.
    pub fn plan_rows<F: FnMut(EffectualWindow)>(&self, rows: &[VertexId], mut emit: F) {
        let mut idx = 0; // cursor into `rows`
        let h = self.window_height as u64;
        while idx < rows.len() {
            // Window Sliding: jump to the next occupied row.
            let win_start = rows[idx];
            let pre_end = ((win_start as u64 + h - 1).min(u64::from(VertexId::MAX))) as VertexId;
            // All edges with source row <= pre_end belong to this window.
            // Windows advance monotonically, so a sequential scan beats a
            // binary search (the probe pattern stays in cache).
            let mut end_idx = idx + 1;
            while end_idx < rows.len() && rows[end_idx] <= pre_end {
                end_idx += 1;
            }
            // Window Shrinking: bottom moves up to the last occupied row.
            let win_end = rows[end_idx - 1];
            emit(EffectualWindow {
                rows: Interval::new(win_start, win_end + 1),
                edge_count: end_idx - idx,
            });
            idx = end_idx;
        }
    }

    /// Plans every interval's windows at once, returning a [`WindowSet`].
    ///
    /// Serial fast path: one O(V + E) CSR sweep that maintains a current
    /// window per interval (a cache-resident state array) and emits each
    /// window as it closes — no per-interval row multiset is ever
    /// materialized. With multiple workers the sweep instead builds a
    /// [`SourceOccupancy`] and plans intervals in parallel. Both paths
    /// produce exactly the windows [`WindowPlanner::plan`] yields per
    /// interval, for any thread count.
    ///
    /// `intervals` must be a contiguous ascending cover of the vertex
    /// ids (the simulator's chunking).
    ///
    /// [`SourceOccupancy`]: crate::partition::SourceOccupancy
    pub fn plan_all(&self, graph: &Graph, intervals: &[Interval]) -> WindowSet {
        let n = graph.num_vertices();
        let k = intervals.len();
        if k == 0 || n == 0 {
            return WindowSet {
                offsets: vec![0; k + 1],
                windows: Vec::new(),
            };
        }
        let workers = hygcn_par::num_threads();
        if workers > 1 {
            // Parallel: occupancy sweep, then per-interval planning.
            let occ = crate::partition::SourceOccupancy::build(graph, intervals);
            let lists: Vec<Vec<EffectualWindow>> = hygcn_par::par_map_index(k, |i| {
                let mut out = Vec::new();
                self.plan_rows(occ.rows(i), |w| out.push(w));
                out
            });
            return WindowSet::from_lists(lists);
        }

        // Serial: emit windows directly from one edge sweep. The open
        // window per interval lives in a cache-resident state array;
        // `count == 0` marks "no open window" and `pre_end` is cached so
        // the extend test is a single compare.
        #[derive(Clone, Copy)]
        struct Open {
            start: VertexId,
            pre_end: VertexId,
            end: VertexId,
            count: u32,
        }
        let lookup = crate::partition::interval_lookup(intervals, n);
        let h = self.window_height as u64;
        let mut open: Vec<Open> = vec![
            Open {
                start: 0,
                pre_end: 0,
                end: 0,
                count: 0,
            };
            k
        ];
        let mut lists: Vec<Vec<EffectualWindow>> = vec![Vec::new(); k];
        let csr_offsets = graph.csr().offsets();
        let targets = graph.csr().raw_targets();
        for u in 0..n as VertexId {
            for &d in &targets[csr_offsets[u as usize]..csr_offsets[u as usize + 1]] {
                let c = lookup(d);
                if c == u32::MAX {
                    continue;
                }
                let c = c as usize;
                let w = &mut open[c];
                if w.count > 0 && u <= w.pre_end {
                    w.end = u;
                    w.count += 1;
                } else {
                    if w.count > 0 {
                        lists[c].push(EffectualWindow {
                            rows: Interval::new(w.start, w.end + 1),
                            edge_count: w.count as usize,
                        });
                    }
                    *w = Open {
                        start: u,
                        pre_end: ((u64::from(u) + h - 1).min(u64::from(VertexId::MAX))) as VertexId,
                        end: u,
                        count: 1,
                    };
                }
            }
        }
        for (c, w) in open.into_iter().enumerate() {
            if w.count > 0 {
                lists[c].push(EffectualWindow {
                    rows: Interval::new(w.start, w.end + 1),
                    edge_count: w.count as usize,
                });
            }
        }
        WindowSet::from_lists(lists)
    }

    /// Aggregate sparsity statistics across all destination intervals.
    pub fn stats(&self, graph: &Graph, dst_intervals: &[Interval]) -> SparsityStats {
        let n = graph.num_vertices();
        let mut effectual_rows = 0usize;
        let mut window_count = 0usize;
        let mut edge_total = 0usize;
        for &dst in dst_intervals {
            for w in self.plan(graph, dst) {
                effectual_rows += w.rows.len();
                edge_total += w.edge_count;
                window_count += 1;
            }
        }
        SparsityStats {
            baseline_rows: n * dst_intervals.len(),
            effectual_rows,
            window_count,
            edge_total,
        }
    }
}

/// Per-interval source-row occupancy bitmaps — the precompiled form of
/// the window planner's input.
///
/// For each destination interval, one bit per source row records whether
/// any edge lands in that interval. The bitmaps depend only on the graph
/// topology and the interval boundaries — **not** on the window height —
/// so one index serves every design point that shares the chunking, and
/// [`OccupancyIndex::for_each_window`] re-derives the effectual windows
/// of any height with a word-level scan instead of an O(V+E) sweep.
/// This is what lets the simulator amortize planning across a
/// campaign: the index is built once per `(graph, intervals)` pair and
/// cached on the [`Graph`] (see [`Graph::occupancy_index`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OccupancyIndex {
    num_vertices: usize,
    /// `ceil(num_vertices / 64)` — words per interval bitmap.
    words_per_interval: usize,
    num_intervals: usize,
    /// Interval `i`'s bitmap is `bits[i*wpi..(i+1)*wpi]`; bit `v` is set
    /// iff some edge `(v, d)` has `d` in interval `i`.
    bits: Vec<u64>,
}

impl OccupancyIndex {
    /// Memory budget in `u64` words (64 MB). [`OccupancyIndex::build`]
    /// refuses larger indexes so a pathological chunking (thousands of
    /// intervals over a huge vertex set) degrades to the planner sweep
    /// instead of exhausting memory.
    pub const MAX_WORDS: usize = 1 << 23;

    /// Builds the per-interval occupancy bitmaps with one pass over each
    /// interval's CSC columns, or `None` when the index would exceed
    /// [`OccupancyIndex::MAX_WORDS`].
    ///
    /// `intervals` follow the same contract as
    /// [`WindowPlanner::plan_all`]: destination ranges within the vertex
    /// id space (out-of-range ids panic).
    pub fn build(graph: &Graph, intervals: &[Interval]) -> Option<Self> {
        let n = graph.num_vertices();
        let wpi = n.div_ceil(64);
        let total = wpi.checked_mul(intervals.len())?;
        if total > Self::MAX_WORDS {
            return None;
        }
        let mut bits = vec![0u64; total];
        let offsets = graph.csc().offsets();
        let sources = graph.csc().raw_sources();
        for (i, dst) in intervals.iter().enumerate() {
            let words = &mut bits[i * wpi..(i + 1) * wpi];
            let lo = offsets[dst.start as usize];
            let hi = offsets[dst.end as usize];
            for &u in &sources[lo..hi] {
                words[(u >> 6) as usize] |= 1u64 << (u & 63);
            }
        }
        Some(Self {
            num_vertices: n,
            words_per_interval: wpi,
            num_intervals: intervals.len(),
            bits,
        })
    }

    /// Number of intervals indexed.
    pub fn num_intervals(&self) -> usize {
        self.num_intervals
    }

    /// Heap footprint of the bitmaps in bytes.
    pub fn storage_bytes(&self) -> usize {
        self.bits.len() * 8
    }

    /// Emits interval `interval`'s effectual windows for `window_height`
    /// as source-row ranges, in ascending order — exactly the `rows`
    /// fields [`WindowPlanner::plan`] would produce (Algorithm 4 on the
    /// distinct occupied rows; edge multiplicity never changes window
    /// geometry).
    ///
    /// # Panics
    ///
    /// Panics if `window_height` is zero or `interval` is out of range.
    pub fn for_each_window<F: FnMut(Interval)>(
        &self,
        interval: usize,
        window_height: usize,
        mut emit: F,
    ) {
        assert!(window_height > 0, "window height must be nonzero");
        let wpi = self.words_per_interval;
        let words = &self.bits[interval * wpi..(interval + 1) * wpi];
        let h = window_height as u64;
        let nbits = self.num_vertices as u64;
        let mut pos = 0u64;
        while pos < nbits {
            let Some(start) = next_set_bit(words, pos) else {
                break;
            };
            // Window Sliding + provisional extension (same clamp as
            // `WindowPlanner::plan_rows`), then Shrinking to the last
            // occupied row at or below the provisional end.
            let pre_end = start
                .saturating_add(h - 1)
                .min(u64::from(VertexId::MAX))
                .min(nbits - 1);
            let end = last_set_bit_in(words, start, pre_end);
            emit(Interval::new(start as VertexId, end as VertexId + 1));
            pos = pre_end + 1;
        }
    }
}

/// Index of the first set bit at or after `from`, if any.
fn next_set_bit(words: &[u64], from: u64) -> Option<u64> {
    let mut wi = (from >> 6) as usize;
    if wi >= words.len() {
        return None;
    }
    let mut w = words[wi] & (!0u64 << (from & 63));
    loop {
        if w != 0 {
            return Some(((wi as u64) << 6) + u64::from(w.trailing_zeros()));
        }
        wi += 1;
        if wi >= words.len() {
            return None;
        }
        w = words[wi];
    }
}

/// Index of the last set bit in `[lo, hi]`. At least bit `lo` must be
/// set (the caller found the window start there), which guarantees the
/// backward scan terminates.
fn last_set_bit_in(words: &[u64], lo: u64, hi: u64) -> u64 {
    debug_assert!(words[(lo >> 6) as usize] & (1 << (lo & 63)) != 0);
    let mut wi = (hi >> 6) as usize;
    let mut w = words[wi] & (!0u64 >> (63 - (hi & 63)));
    loop {
        if w != 0 {
            return ((wi as u64) << 6) + 63 - u64::from(w.leading_zeros());
        }
        wi -= 1;
        w = words[wi];
    }
}

/// Row-load accounting with and without sparsity elimination, feeding
/// Fig. 15(c) and Fig. 18(c)/(f).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SparsityStats {
    /// Source-feature rows loaded without elimination: every destination
    /// interval scans the full source dimension.
    pub baseline_rows: usize,
    /// Source-feature rows loaded with sliding+shrinking.
    pub effectual_rows: usize,
    /// Number of effectual windows recorded.
    pub window_count: usize,
    /// Total edges covered (must equal the graph's edge count).
    pub edge_total: usize,
}

impl SparsityStats {
    /// Fraction of row loads eliminated, in `[0, 1]`.
    pub fn reduction(&self) -> f64 {
        if self.baseline_rows == 0 {
            return 0.0;
        }
        1.0 - self.effectual_rows as f64 / self.baseline_rows as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    /// dst interval {0..4}; sources at rows 2, 3, 10, 11, 40.
    fn sparse_graph() -> Graph {
        GraphBuilder::new(64)
            .feature_len(8)
            .edges([(2, 0), (3, 1), (10, 0), (11, 2), (40, 3)])
            .unwrap()
            .build()
    }

    #[test]
    fn windows_start_on_occupied_rows() {
        let g = sparse_graph();
        let planner = WindowPlanner::new(8);
        let ws = planner.plan(&g, Interval::new(0, 4));
        assert_eq!(ws.len(), 3);
        // First window slides to row 2, provisionally covers 2..=9,
        // shrinks to 2..=3.
        assert_eq!(ws[0].rows, Interval::new(2, 4));
        assert_eq!(ws[0].edge_count, 2);
        // Second window covers rows 10..=11.
        assert_eq!(ws[1].rows, Interval::new(10, 12));
        assert_eq!(ws[1].edge_count, 2);
        // Third: the lone row 40.
        assert_eq!(ws[2].rows, Interval::new(40, 41));
        assert_eq!(ws[2].edge_count, 1);
    }

    #[test]
    fn window_never_exceeds_height() {
        let g = sparse_graph();
        for h in [1, 2, 4, 16] {
            let ws = WindowPlanner::new(h).plan(&g, Interval::new(0, 64));
            for w in ws {
                assert!(w.rows.len() <= h, "height {h}, window {:?}", w.rows);
            }
        }
    }

    #[test]
    fn windows_cover_all_edges() {
        let g = sparse_graph();
        let planner = WindowPlanner::new(4);
        let total: usize = planner
            .plan(&g, Interval::new(0, 64))
            .iter()
            .map(|w| w.edge_count)
            .sum();
        assert_eq!(total, g.num_edges());
    }

    #[test]
    fn empty_interval_yields_no_windows() {
        let g = sparse_graph();
        let ws = WindowPlanner::new(4).plan(&g, Interval::new(60, 64));
        assert!(ws.is_empty());
    }

    #[test]
    fn height_one_degenerates_to_occupied_rows() {
        let g = sparse_graph();
        let ws = WindowPlanner::new(1).plan(&g, Interval::new(0, 4));
        let rows: Vec<_> = ws.iter().map(|w| w.rows.start).collect();
        assert_eq!(rows, vec![2, 3, 10, 11, 40]);
        assert!(ws.iter().all(|w| w.rows.len() == 1));
    }

    #[test]
    fn stats_reduction_positive_for_sparse_graph() {
        let g = sparse_graph();
        let planner = WindowPlanner::new(8);
        let stats = planner.stats(&g, &[Interval::new(0, 32), Interval::new(32, 64)]);
        assert_eq!(stats.edge_total, g.num_edges());
        assert!(stats.reduction() > 0.8, "reduction {}", stats.reduction());
        assert!(stats.effectual_rows < stats.baseline_rows);
    }

    #[test]
    fn dense_graph_has_low_reduction() {
        // Fully connected K8: every row occupied for every interval.
        let mut b = GraphBuilder::new(8).feature_len(4);
        for a in 0..8u32 {
            for c in 0..8u32 {
                if a != c {
                    b = b.edge(a, c).unwrap();
                }
            }
        }
        let g = b.build();
        let stats = WindowPlanner::new(8).stats(&g, &[Interval::new(0, 8)]);
        assert!(stats.reduction() < 0.01);
    }

    #[test]
    fn reduction_zero_for_empty_baseline() {
        assert_eq!(SparsityStats::default().reduction(), 0.0);
    }

    #[test]
    fn plan_with_streams_same_windows_as_plan() {
        let g = sparse_graph();
        for h in [1usize, 3, 8, 64] {
            let planner = WindowPlanner::new(h);
            let dst = Interval::new(0, 64);
            let direct = planner.plan(&g, dst);
            let mut streamed = Vec::new();
            let mut scratch = vec![99u32; 3]; // dirty scratch must not matter
            planner.plan_with(&g, dst, &mut scratch, |w| streamed.push(w));
            assert_eq!(direct, streamed, "height {h}");
        }
    }

    /// Uniform contiguous chunking of `n` vertices into `k`-wide chunks.
    fn chunking(n: u32, w: u32) -> Vec<Interval> {
        let mut out = Vec::new();
        let mut start = 0u32;
        while start < n {
            let end = (start + w).min(n);
            out.push(Interval::new(start, end));
            start = end;
        }
        out
    }

    #[test]
    fn occupancy_index_windows_match_plan_all() {
        use crate::generator::{rmat, RmatParams};
        for (n, edges, seed) in [(64usize, 40usize, 1u64), (500, 2500, 2), (1500, 12000, 3)] {
            let g = rmat(n, edges, RmatParams::default(), seed)
                .unwrap()
                .with_feature_len(8);
            for chunk_w in [7u32, 64, 1 << 20] {
                let intervals = chunking(n as u32, chunk_w);
                let idx = OccupancyIndex::build(&g, &intervals).unwrap();
                assert_eq!(idx.num_intervals(), intervals.len());
                for h in [1usize, 3, 16, 128, 1 << 24] {
                    let ws = WindowPlanner::new(h).plan_all(&g, &intervals);
                    for i in 0..intervals.len() {
                        let expect: Vec<Interval> = ws.windows(i).iter().map(|w| w.rows).collect();
                        let mut got = Vec::new();
                        idx.for_each_window(i, h, |rows| got.push(rows));
                        assert_eq!(expect, got, "n {n} chunk_w {chunk_w} h {h} interval {i}");
                    }
                }
            }
        }
    }

    #[test]
    fn occupancy_index_empty_graph_and_interval() {
        let g = GraphBuilder::new(128).feature_len(4).build();
        let intervals = chunking(128, 32);
        let idx = OccupancyIndex::build(&g, &intervals).unwrap();
        for i in 0..intervals.len() {
            idx.for_each_window(i, 8, |_| panic!("no edges, no windows"));
        }
        // Zero intervals is legal and holds no bitmaps.
        let empty = OccupancyIndex::build(&g, &[]).unwrap();
        assert_eq!(empty.num_intervals(), 0);
        assert_eq!(empty.storage_bytes(), 0);
    }

    #[test]
    fn occupancy_index_respects_budget() {
        let g = sparse_graph();
        // 64 vertices -> 1 word per interval; a fake chunking of
        // MAX_WORDS + 1 single-vertex intervals would blow the budget.
        let too_many: Vec<Interval> = (0..=OccupancyIndex::MAX_WORDS)
            .map(|_| Interval::new(0, 1))
            .collect();
        assert!(OccupancyIndex::build(&g, &too_many).is_none());
        assert!(OccupancyIndex::build(&g, &[Interval::new(0, 64)]).is_some());
    }

    #[test]
    fn plan_rows_matches_plan() {
        use crate::partition::SourceOccupancy;
        let g = sparse_graph();
        let intervals = [
            Interval::new(0, 4),
            Interval::new(4, 32),
            Interval::new(32, 64),
        ];
        let occ = SourceOccupancy::build(&g, &intervals);
        for h in [1usize, 4, 8, 64] {
            let planner = WindowPlanner::new(h);
            for (i, &dst) in intervals.iter().enumerate() {
                let direct = planner.plan(&g, dst);
                let mut from_rows = Vec::new();
                planner.plan_rows(occ.rows(i), |w| from_rows.push(w));
                assert_eq!(direct, from_rows, "height {h}, interval {i}");
            }
        }
    }
}
