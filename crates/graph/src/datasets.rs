//! Registry of the six benchmark datasets of Table 4 and synthetic
//! instantiation thereof.
//!
//! | Key | Dataset    | Vertices | Feature len | Edges (directed) |
//! |-----|------------|----------|-------------|------------------|
//! | IB  | IMDB-BIN   | 2,647    | 136         | 28,624           |
//! | CR  | Cora       | 2,708    | 1,433       | 10,556           |
//! | CS  | Citeseer   | 3,327    | 3,703       | 9,104            |
//! | CL  | COLLAB     | 12,087   | 492         | 1,446,010        |
//! | PB  | Pubmed     | 19,717   | 500         | 88,648           |
//! | RD  | Reddit     | 232,965  | 602         | 114,615,892      |
//!
//! Instantiation matches the vertex count exactly and the edge count and
//! degree structure approximately (see [`StructureFamily`] for the
//! generator used per dataset). A `scale` parameter shrinks vertices and
//! edges proportionally — average degree is preserved — so that the
//! full-methodology experiments stay tractable on a laptop; Reddit at
//! `scale = 1.0` is supported but allocates several gigabytes.

use std::iter::Peekable;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::generator::{community_powerlaw, rmat, PairSet, RmatParams};
use crate::{Csc, Graph, GraphError, VertexId};

/// Short keys of the six benchmark datasets, in paper order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetKey {
    /// IMDB-BIN — 128 small dense graphs assembled into one.
    Ib,
    /// Cora citation network.
    Cr,
    /// Citeseer citation network.
    Cs,
    /// COLLAB — 128 dense collaboration ego-networks assembled into one.
    Cl,
    /// Pubmed citation network.
    Pb,
    /// Reddit post–post graph.
    Rd,
}

impl DatasetKey {
    /// All six keys in paper order.
    pub const ALL: [DatasetKey; 6] = [
        DatasetKey::Ib,
        DatasetKey::Cr,
        DatasetKey::Cs,
        DatasetKey::Cl,
        DatasetKey::Pb,
        DatasetKey::Rd,
    ];

    /// Resolves a key from its two-letter abbreviation,
    /// case-insensitively; `None` for unknown names.
    pub fn from_abbrev(name: &str) -> Option<Self> {
        Self::ALL
            .into_iter()
            .find(|k| k.abbrev().eq_ignore_ascii_case(name))
    }

    /// Two-letter abbreviation used in the paper's figures.
    pub fn abbrev(&self) -> &'static str {
        match self {
            DatasetKey::Ib => "IB",
            DatasetKey::Cr => "CR",
            DatasetKey::Cs => "CS",
            DatasetKey::Cl => "CL",
            DatasetKey::Pb => "PB",
            DatasetKey::Rd => "RD",
        }
    }
}

impl std::fmt::Display for DatasetKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.abbrev())
    }
}

/// Which synthetic generator reproduces a dataset's structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StructureFamily {
    /// Disjoint dense blocks of skewed sizes (multi-graph datasets).
    AssembledBlocks {
        /// Number of component graphs packed together (128 in the paper).
        num_blocks: usize,
    },
    /// Community-structured power law (citation networks).
    PowerLaw,
    /// R-MAT (large social graphs).
    Rmat,
}

/// Static description of one benchmark dataset (one row of Table 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DatasetSpec {
    /// Dataset key.
    pub key: DatasetKey,
    /// Full dataset name.
    pub name: &'static str,
    /// Vertex count `|V|`.
    pub vertices: usize,
    /// Per-vertex feature vector length.
    pub feature_len: usize,
    /// Directed edge count (undirected edges stored twice).
    pub edges: usize,
    /// Generator family used for synthesis.
    pub family: StructureFamily,
}

impl DatasetSpec {
    /// Returns the spec for `key`.
    pub fn get(key: DatasetKey) -> Self {
        match key {
            DatasetKey::Ib => Self {
                key,
                name: "IMDB-BIN",
                vertices: 2_647,
                feature_len: 136,
                edges: 28_624,
                family: StructureFamily::AssembledBlocks { num_blocks: 128 },
            },
            DatasetKey::Cr => Self {
                key,
                name: "Cora",
                vertices: 2_708,
                feature_len: 1_433,
                edges: 10_556,
                family: StructureFamily::PowerLaw,
            },
            DatasetKey::Cs => Self {
                key,
                name: "Citeseer",
                vertices: 3_327,
                feature_len: 3_703,
                edges: 9_104,
                family: StructureFamily::PowerLaw,
            },
            DatasetKey::Cl => Self {
                key,
                name: "COLLAB",
                vertices: 12_087,
                feature_len: 492,
                edges: 1_446_010,
                family: StructureFamily::AssembledBlocks { num_blocks: 128 },
            },
            DatasetKey::Pb => Self {
                key,
                name: "Pubmed",
                vertices: 19_717,
                feature_len: 500,
                edges: 88_648,
                family: StructureFamily::PowerLaw,
            },
            DatasetKey::Rd => Self {
                key,
                name: "Reddit",
                vertices: 232_965,
                feature_len: 602,
                edges: 114_615_892,
                family: StructureFamily::Rmat,
            },
        }
    }

    /// All six specs in paper order.
    pub fn all() -> Vec<Self> {
        DatasetKey::ALL.iter().map(|&k| Self::get(k)).collect()
    }

    /// Average directed degree of the real dataset.
    pub fn avg_degree(&self) -> f64 {
        self.edges as f64 / self.vertices as f64
    }

    /// The scale at which the benchmark harness instantiates this dataset
    /// by default: Reddit is reduced 16×, everything else is full size.
    pub fn default_bench_scale(&self) -> f64 {
        match self.key {
            DatasetKey::Rd => 1.0 / 16.0,
            _ => 1.0,
        }
    }

    /// Synthesizes a graph matching this dataset's statistics at `scale ∈
    /// (0, 1]`. Vertices and edges shrink together, preserving average
    /// degree; the feature length is kept at the Table 4 value since it is
    /// a model property, not a size property.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidParameter`] for a non-positive scale.
    pub fn instantiate(&self, scale: f64, seed: u64) -> Result<Graph, GraphError> {
        if !(scale > 0.0 && scale <= 1.0) {
            return Err(GraphError::InvalidParameter(format!(
                "scale must be in (0, 1], got {scale}"
            )));
        }
        let vertices = ((self.vertices as f64 * scale) as usize).max(64);
        let und_edges = ((self.edges / 2) as f64 * scale) as usize;
        let und_edges = und_edges.max(vertices); // keep the graph connected-ish
        let mut graph = match self.family {
            StructureFamily::PowerLaw => {
                let m = (und_edges as f64 / vertices as f64).round().max(1.0) as usize;
                // ~128-vertex research communities with 10% inter-area
                // citations: the locality profile of citation networks.
                let communities = (vertices / 128).max(1);
                community_powerlaw(vertices, m, communities, 0.10, seed)?
            }
            StructureFamily::Rmat => rmat(vertices, und_edges, RmatParams::default(), seed)?,
            StructureFamily::AssembledBlocks { num_blocks } => {
                let blocks = num_blocks.min(vertices / 4).max(1);
                assembled_blocks(vertices, und_edges, blocks, seed)
            }
        };
        graph.set_feature_len(self.feature_len);
        Ok(graph.with_name(self.name))
    }
}

/// Packs `num_vertices` into `num_blocks` disjoint blocks with Zipf-skewed
/// sizes and fills each block with uniform random edges proportionally to
/// its pair capacity, hitting `und_edges` total undirected edges exactly
/// (excess over total capacity spills to uniform pairs over all
/// vertices, deduplicated only among themselves, so a spilled pair can
/// repeat an in-block edge, and the graph then holds it twice in each
/// direction). The blocks' and the spill's dedup sets fill the CSC;
/// no edge list is kept.
///
/// `num_blocks` must be at most `num_vertices / 2` (the registry passes
/// at most a quarter), so that the block sizes, two vertices at least,
/// sum to `num_vertices`.
fn assembled_blocks(num_vertices: usize, und_edges: usize, num_blocks: usize, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);

    // Zipf-ish block sizes (exponent 0.6), minimum 2, summing exactly.
    let mut weights: Vec<f64> = (0..num_blocks)
        .map(|i| 1.0 / ((i + 1) as f64).powf(0.6))
        .collect();
    let wsum: f64 = weights.iter().sum();
    for w in &mut weights {
        *w /= wsum;
    }
    let mut sizes: Vec<usize> = weights
        .iter()
        .map(|w| ((w * num_vertices as f64) as usize).max(2))
        .collect();
    let mut assigned: usize = sizes.iter().sum();
    // Repair rounding drift by adjusting the largest block.
    while assigned > num_vertices {
        let Some(i) = sizes
            .iter()
            .enumerate()
            .max_by_key(|(_, &s)| s)
            .map(|(i, _)| i)
        else {
            // No blocks to shrink — nothing left to rebalance.
            break;
        };
        if sizes[i] > 2 {
            sizes[i] -= 1;
            assigned -= 1;
        } else {
            break;
        }
    }
    if assigned < num_vertices {
        sizes[0] += num_vertices - assigned;
    }

    // Edge budget per block, proportional to pair capacity.
    let caps: Vec<usize> = sizes.iter().map(|&s| s * (s - 1) / 2).collect();
    let cap_total: usize = caps.iter().sum();
    let in_blocks = und_edges.min(cap_total);
    let mut budgets: Vec<usize> = caps
        .iter()
        .map(|&c| ((c as f64 / cap_total as f64) * in_blocks as f64) as usize)
        .collect();
    let mut placed: usize = budgets.iter().sum();
    // Largest-remainder repair to hit `in_blocks` exactly.
    let mut i = 0;
    while placed < in_blocks {
        if budgets[i] < caps[i] {
            budgets[i] += 1;
            placed += 1;
        }
        i = (i + 1) % num_blocks;
    }

    // Blocks and spill place `und_edges` distinct pairs, counted into
    // each endpoint's degree. Each block keeps its dedup set, over its
    // own ids, at its base id.
    let mut degrees = vec![0usize; num_vertices];
    let mut blocks = Vec::with_capacity(num_blocks);
    let mut base: VertexId = 0;
    for (&size, &budget) in sizes.iter().zip(&budgets) {
        let mut seen = PairSet::for_draw(size, budget);
        let size = size as VertexId;
        let mut placed = 0;
        while placed < budget {
            let x = rng.gen_range(0..size);
            let y = rng.gen_range(0..size);
            if x != y && seen.insert(x, y) {
                degrees[(base + x) as usize] += 1;
                degrees[(base + y) as usize] += 1;
                placed += 1;
            }
        }
        blocks.push((base, seen));
        base += size;
    }
    debug_assert_eq!(base as usize, num_vertices, "block sizes {sizes:?}");

    // Spill (only if the request exceeded total block capacity).
    let spill = und_edges - in_blocks;
    let mut spilled = PairSet::for_draw(num_vertices, spill);
    let mut drawn = 0;
    let n = num_vertices as VertexId;
    while drawn < spill {
        let x = rng.gen_range(0..n);
        let y = rng.gen_range(0..n);
        if x != y && spilled.insert(x, y) {
            degrees[x as usize] += 1;
            degrees[y as usize] += 1;
            drawn += 1;
        }
    }

    // The blocks are ascending id ranges, so their visits in turn are
    // one visit in global `(hi, lo)` order.
    let block_pairs = blocks
        .iter()
        .flat_map(|(base, seen)| seen.pairs().map(move |(hi, lo)| (base + hi, base + lo)));
    let pairs = merge_visits(block_pairs, spilled.pairs());
    Graph::from_csc(Csc::from_ordered_pairs(&degrees, pairs), 1)
}

/// Merges two visits in ascending `(hi, lo)` order into one. A pair in
/// both comes out twice, its copies adjacent.
fn merge_visits<A, B>(a: A, b: B) -> MergedVisits<A, B>
where
    A: Iterator<Item = (VertexId, VertexId)>,
    B: Iterator<Item = (VertexId, VertexId)>,
{
    MergedVisits {
        a: a.peekable(),
        b: b.peekable(),
    }
}

/// The visit [`merge_visits`] returns.
struct MergedVisits<A: Iterator, B: Iterator> {
    a: Peekable<A>,
    b: Peekable<B>,
}

impl<A, B> Iterator for MergedVisits<A, B>
where
    A: Iterator<Item = (VertexId, VertexId)>,
    B: Iterator<Item = (VertexId, VertexId)>,
{
    type Item = (VertexId, VertexId);

    fn next(&mut self) -> Option<Self::Item> {
        match (self.a.peek(), self.b.peek()) {
            (Some(x), Some(y)) if y < x => self.b.next(),
            (Some(_), _) => self.a.next(),
            (None, _) => self.b.next(),
        }
    }

    /// `a` runs its own `fold`, and `b`'s pairs go in before each larger
    /// pair of `a`: the blocks' bitsets are read in a tight loop, not
    /// one `next` at a time through the blocks' `flat_map` and a peek.
    fn fold<Acc, F: FnMut(Acc, Self::Item) -> Acc>(self, init: Acc, mut f: F) -> Acc {
        let mut b = self.b;
        let mut head = b.next();
        let acc = self.a.fold(init, |mut acc, x| {
            while let Some(y) = head.filter(|&y| y < x) {
                acc = f(acc, y);
                head = b.next();
            }
            f(acc, x)
        });
        b.fold(head.into_iter().fold(acc, &mut f), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::DegreeStats;

    #[test]
    fn registry_matches_table4() {
        let specs = DatasetSpec::all();
        assert_eq!(specs.len(), 6);
        let cr = DatasetSpec::get(DatasetKey::Cr);
        assert_eq!(cr.vertices, 2708);
        assert_eq!(cr.feature_len, 1433);
        assert_eq!(cr.edges, 10_556);
        let rd = DatasetSpec::get(DatasetKey::Rd);
        assert_eq!(rd.vertices, 232_965);
    }

    #[test]
    fn abbrevs_are_paper_codes() {
        let codes: Vec<_> = DatasetKey::ALL.iter().map(|k| k.abbrev()).collect();
        assert_eq!(codes, vec!["IB", "CR", "CS", "CL", "PB", "RD"]);
    }

    #[test]
    fn cora_instantiation_matches_stats() {
        let spec = DatasetSpec::get(DatasetKey::Cr);
        let g = spec.instantiate(1.0, 1).unwrap();
        assert_eq!(g.num_vertices(), spec.vertices);
        assert_eq!(g.feature_len(), 1433);
        let achieved = g.num_edges() as f64;
        let target = spec.edges as f64;
        assert!(
            (achieved - target).abs() / target < 0.25,
            "achieved {achieved} vs target {target}"
        );
    }

    #[test]
    fn collab_is_dense_and_blocky() {
        let spec = DatasetSpec::get(DatasetKey::Cl);
        let g = spec.instantiate(0.25, 2).unwrap();
        let stats = DegreeStats::of(&g);
        // COLLAB's signature: very high average degree (~120 directed).
        assert!(stats.mean > 40.0, "mean degree {}", stats.mean);
    }

    #[test]
    fn imdb_instantiation_close_to_spec() {
        let spec = DatasetSpec::get(DatasetKey::Ib);
        let g = spec.instantiate(1.0, 3).unwrap();
        assert_eq!(g.num_vertices(), 2647);
        let rel = (g.num_edges() as f64 - spec.edges as f64).abs() / spec.edges as f64;
        assert!(rel < 0.1, "relative edge error {rel}");
    }

    #[test]
    fn reddit_reduced_scale_is_tractable() {
        let spec = DatasetSpec::get(DatasetKey::Rd);
        let g = spec.instantiate(1.0 / 64.0, 4).unwrap();
        assert_eq!(g.num_vertices(), 232_965 / 64);
        // Average degree preserved within 2x.
        let deg = g.num_edges() as f64 / g.num_vertices() as f64;
        assert!(deg > spec.avg_degree() / 2.0, "degree {deg}");
    }

    #[test]
    fn invalid_scale_rejected() {
        let spec = DatasetSpec::get(DatasetKey::Cr);
        assert!(spec.instantiate(0.0, 1).is_err());
        assert!(spec.instantiate(1.5, 1).is_err());
        assert!(spec.instantiate(-1.0, 1).is_err());
    }

    #[test]
    fn default_bench_scales() {
        for spec in DatasetSpec::all() {
            let s = spec.default_bench_scale();
            if spec.key == DatasetKey::Rd {
                assert!(s < 1.0);
            } else {
                assert_eq!(s, 1.0);
            }
        }
    }

    /// IB@0.05 at the figure seed (`0x5EED`) asks for more pairs than
    /// its 33 blocks hold, and its spill re-draws 11 in-block pairs: the
    /// graph holds each twice in each direction, 22 directed duplicates,
    /// and both copies sit next to each other in both columns.
    #[test]
    fn spill_repeats_of_block_pairs_sit_beside_their_copies() {
        let g = DatasetSpec::get(DatasetKey::Ib)
            .instantiate(0.05, 0x5EED)
            .unwrap();
        let twice = |column: VertexId, source: VertexId| {
            g.in_neighbors(column)
                .windows(2)
                .any(|w| w == [source, source])
        };
        let mut duplicates = 0;
        for v in 0..g.num_vertices() as VertexId {
            let sources = g.in_neighbors(v);
            assert!(sources.is_sorted(), "column {v}: {sources:?}");
            for w in sources.windows(2).filter(|w| w[0] == w[1]) {
                assert!(
                    twice(w[0], v),
                    "({v}, {}) is not twice in column {}",
                    w[0],
                    w[0]
                );
                duplicates += 1;
            }
        }
        assert_eq!(duplicates, 22);
    }

    #[test]
    fn merged_visits_keep_both_copies_of_a_shared_pair() {
        let blocks = [(1, 0), (2, 1), (5, 3), (5, 4)];
        let spill = [(2, 0), (5, 3), (6, 0)];
        let want = [(1, 0), (2, 0), (2, 1), (5, 3), (5, 3), (5, 4), (6, 0)];
        let merge = || merge_visits(blocks.into_iter(), spill.into_iter());
        let mut stepped = merge();
        let stepped: Vec<_> = std::iter::from_fn(|| stepped.next()).collect();
        let folded = merge().fold(Vec::new(), |mut v, pair| {
            v.push(pair);
            v
        });
        assert_eq!((stepped, folded), (want.to_vec(), want.to_vec()));
        for (a, b) in [(&spill[..], &[][..]), (&[], &spill), (&[(9, 8)], &spill)] {
            let merged = merge_visits(a.iter().copied(), b.iter().copied());
            assert!(merged.collect::<Vec<_>>().is_sorted(), "{a:?} + {b:?}");
        }
    }

    #[test]
    fn instantiation_is_deterministic() {
        let spec = DatasetSpec::get(DatasetKey::Ib);
        let a = spec.instantiate(0.5, 9).unwrap();
        let b = spec.instantiate(0.5, 9).unwrap();
        assert_eq!(a, b);
    }
}
