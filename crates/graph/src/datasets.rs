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

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::generator::{community_powerlaw, rmat, PairSet, RmatParams};
use crate::{Coo, Graph, GraphError, VertexId};

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
                assembled_blocks(vertices, und_edges, blocks, seed)?
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
/// repeat an in-block edge).
fn assembled_blocks(
    num_vertices: usize,
    und_edges: usize,
    num_blocks: usize,
    seed: u64,
) -> Result<Graph, GraphError> {
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

    // Blocks and spill place `und_edges` distinct pairs, two directed
    // edges each.
    let mut coo = Coo::with_capacity(num_vertices, 2 * und_edges);
    let mut base: VertexId = 0;
    for (&size, &budget) in sizes.iter().zip(&budgets) {
        // Block-local pairs: one dedup set per block, sized to it.
        let mut seen = PairSet::for_draw(size, budget);
        let size = size as VertexId;
        let mut placed = 0;
        while placed < budget {
            let x = rng.gen_range(0..size);
            let y = rng.gen_range(0..size);
            if x != y && seen.insert(x, y) {
                coo.push_undirected(base + x, base + y)?;
                placed += 1;
            }
        }
        base += size;
    }

    // Spill (only if the request exceeded total block capacity).
    let spill = und_edges - in_blocks;
    let mut seen = PairSet::for_draw(num_vertices, spill);
    let mut spilled = 0;
    let n = num_vertices as VertexId;
    while spilled < spill {
        let x = rng.gen_range(0..n);
        let y = rng.gen_range(0..n);
        if x != y && seen.insert(x, y) {
            coo.push_undirected(x, y)?;
            spilled += 1;
        }
    }

    Ok(Graph::from_coo(&coo, 1))
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

    #[test]
    fn instantiation_is_deterministic() {
        let spec = DatasetSpec::get(DatasetKey::Ib);
        let a = spec.instantiate(0.5, 9).unwrap();
        let b = spec.instantiate(0.5, 9).unwrap();
        assert_eq!(a, b);
    }
}
