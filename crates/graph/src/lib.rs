//! # hygcn-graph
//!
//! Graph storage and preprocessing substrate for the HyGCN (HPCA 2020)
//! reproduction.
//!
//! HyGCN's Aggregation Engine consumes graphs in compressed sparse column
//! (CSC) form and relies on three graph-side mechanisms that this crate
//! implements from scratch:
//!
//! * **Interval–shard partitioning** ([`partition`]) — the static
//!   locality-enhancing decomposition of Fig. 5(a)/(b) of the paper, where
//!   destination vertices are grouped into *intervals* and edges into
//!   *shards*.
//! * **Window sliding and shrinking** ([`window`]) — the dynamic, data-aware
//!   sparsity elimination of Fig. 5(c)/(d) and Algorithm 4, which skips
//!   loading feature rows of source vertices that share no edge with the
//!   current destination interval.
//! * **Neighbor sampling** ([`sampling`]) — the uniform `Sample` operator
//!   used by GraphSage-style models (Eq. 2), including the sampling-factor
//!   sweep of Fig. 18(a–c).
//!
//! The crate also ships synthetic generators ([`generator`]) and a registry
//! of the six benchmark datasets of Table 4 ([`datasets`]), so every
//! experiment in the paper can be regenerated without proprietary data.
//!
//! ## Example
//!
//! ```
//! use hygcn_graph::{GraphBuilder, partition::PartitionSpec};
//!
//! # fn main() -> Result<(), hygcn_graph::GraphError> {
//! let graph = GraphBuilder::new(6)
//!     .feature_len(16)
//!     .undirected_edge(0, 1)?
//!     .undirected_edge(1, 2)?
//!     .undirected_edge(2, 3)?
//!     .undirected_edge(4, 5)?
//!     .build();
//! let plan = PartitionSpec::new(2, 2).partition(&graph);
//! assert_eq!(plan.num_dst_intervals(), 3);
//! # Ok(())
//! # }
//! ```

pub mod batch;
pub mod builder;
pub mod coo;
pub mod csc;
pub mod csr;
pub mod datasets;
pub mod error;
pub mod generator;
pub mod hashing;
pub mod io;
pub mod partition;
pub mod reorder;
pub mod sampling;
pub mod stats;
pub mod window;

pub use builder::GraphBuilder;
pub use coo::Coo;
pub use csc::Csc;
pub use csr::Csr;
pub use error::GraphError;

/// Identifier of a vertex. Graphs in this crate are limited to `u32::MAX`
/// vertices, matching the index width used by the accelerator's edge format.
pub type VertexId = u32;

/// An in-memory property graph: symmetric adjacency in CSC and CSR form plus
/// the length of the per-vertex feature vector (the paper's `|h_v|`).
///
/// The adjacency is stored twice (by source and by destination) because the
/// Aggregation Engine traverses in-edges (gather) while generators and
/// statistics naturally traverse out-edges. For the undirected graphs the
/// paper evaluates, the two are mirror images.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    csc: Csc,
    csr: Csr,
    feature_len: usize,
    name: String,
    plan_cache: PlanCache,
}

/// Shared cache of derived planning structures: the per-chunking
/// [`window::OccupancyIndex`] keyed by interval boundaries, plus a
/// generic string-keyed slot for caller-defined plans (the simulator
/// parks its precompiled span programs there, keyed by config
/// canon + model kind + feature length — this crate cannot name those
/// types, so the slot stores `Arc<dyn Any>`).
///
/// The cache is *identity-transparent*: it never affects equality,
/// hashing, or any observable graph property — entries are pure
/// functions of the (immutable) topology, so clones share one cache via
/// the `Arc` and a populated cache always agrees with an empty one.
#[derive(Clone, Default)]
struct PlanCache(std::sync::Arc<PlanCacheInner>);

#[derive(Default)]
struct PlanCacheInner {
    occupancy: std::sync::Mutex<Vec<PlanCacheEntry>>,
    keyed: std::sync::Mutex<Vec<KeyedPlanEntry>>,
}

type PlanCacheEntry = (
    Box<[partition::Interval]>,
    std::sync::Arc<window::OccupancyIndex>,
);

type KeyedPlanEntry = (String, std::sync::Arc<dyn std::any::Any + Send + Sync>);

/// Distinct chunkings worth remembering per graph: campaigns mostly
/// alternate between a couple of buffer sizes, and each entry can be
/// megabytes.
const PLAN_CACHE_ENTRIES: usize = 4;

impl PartialEq for PlanCache {
    fn eq(&self, _: &Self) -> bool {
        true // cache contents are derived state, not graph identity
    }
}

impl Eq for PlanCache {}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("PlanCache")
    }
}

impl Graph {
    /// Builds a graph from a directed edge list (COO). Every `(src, dst)`
    /// pair becomes one in-edge of `dst`.
    ///
    /// Prefer [`GraphBuilder`] for hand-constructed graphs.
    pub fn from_coo(coo: &Coo, feature_len: usize) -> Self {
        Self {
            csc: Csc::from_coo(coo),
            csr: Csr::from_coo(coo),
            feature_len,
            name: String::from("unnamed"),
            plan_cache: PlanCache::default(),
        }
    }

    /// Sets the human-readable dataset name used in reports.
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Dataset name (e.g. `"Cora"`); `"unnamed"` when not set.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of vertices `|V|`.
    pub fn num_vertices(&self) -> usize {
        self.csc.num_vertices()
    }

    /// Number of directed edges stored (an undirected edge counts twice).
    pub fn num_edges(&self) -> usize {
        self.csc.num_edges()
    }

    /// Length of each vertex feature vector (elements, not bytes).
    pub fn feature_len(&self) -> usize {
        self.feature_len
    }

    /// Returns a copy of the graph with a different feature length. Used by
    /// multi-layer models where layer `k` consumes features of length
    /// `|a^k_v|` produced by layer `k-1`.
    pub fn with_feature_len(&self, feature_len: usize) -> Self {
        Self {
            feature_len,
            ..self.clone()
        }
    }

    /// In-neighbors (sources) of `v`, i.e. the vertices whose features are
    /// aggregated into `v` (the paper's `N(v)`).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of bounds.
    pub fn in_neighbors(&self, v: VertexId) -> &[VertexId] {
        self.csc.sources(v)
    }

    /// Out-neighbors (destinations) of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of bounds.
    pub fn out_neighbors(&self, v: VertexId) -> &[VertexId] {
        self.csr.targets(v)
    }

    /// In-degree of `v` (the paper's `D_v` for undirected graphs).
    pub fn in_degree(&self, v: VertexId) -> usize {
        self.in_neighbors(v).len()
    }

    /// Borrow the CSC adjacency (the accelerator's native input format).
    pub fn csc(&self) -> &Csc {
        &self.csc
    }

    /// Borrow the CSR adjacency.
    pub fn csr(&self) -> &Csr {
        &self.csr
    }

    /// Storage footprint in bytes of adjacency plus the dense feature matrix
    /// at 4 bytes per element, mirroring the "Storage" column of Table 4.
    pub fn storage_bytes(&self) -> usize {
        let adjacency = self.num_edges() * std::mem::size_of::<VertexId>();
        let features = self.num_vertices() * self.feature_len * 4;
        adjacency + features
    }

    /// Iterate over all directed edges as `(src, dst)` pairs in CSC order
    /// (grouped by destination).
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        (0..self.num_vertices() as VertexId)
            .flat_map(move |dst| self.csc.sources(dst).iter().map(move |&src| (src, dst)))
    }

    /// The per-interval source-occupancy bitmaps for `intervals`, built
    /// on first use and cached on the graph afterwards (clones — e.g.
    /// [`Graph::with_feature_len`] copies for multi-layer models — share
    /// the cache, since the index depends only on topology and interval
    /// boundaries).
    ///
    /// Returns `None` when the index would exceed
    /// [`window::OccupancyIndex::MAX_WORDS`]; callers fall back to a
    /// [`window::WindowPlanner`] sweep.
    pub fn occupancy_index(
        &self,
        intervals: &[partition::Interval],
    ) -> Option<std::sync::Arc<window::OccupancyIndex>> {
        let mut cache = self
            .plan_cache
            .0
            .occupancy
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some((_, idx)) = cache.iter().find(|(k, _)| k.as_ref() == intervals) {
            return Some(std::sync::Arc::clone(idx));
        }
        let idx = std::sync::Arc::new(window::OccupancyIndex::build(self, intervals)?);
        if cache.len() >= PLAN_CACHE_ENTRIES {
            cache.remove(0);
        }
        cache.push((intervals.into(), std::sync::Arc::clone(&idx)));
        Some(idx)
    }

    /// Looks up a caller-defined derived plan stored under `key` (see
    /// [`Graph::store_plan`]). Keys compare as full strings — no
    /// hashing, so no collisions — and clones share the slot exactly
    /// like [`Graph::occupancy_index`] entries.
    pub fn cached_plan(
        &self,
        key: &str,
    ) -> Option<std::sync::Arc<dyn std::any::Any + Send + Sync>> {
        let cache = self
            .plan_cache
            .0
            .keyed
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        cache
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, plan)| std::sync::Arc::clone(plan))
    }

    /// Stores a caller-defined derived plan under `key`, replacing any
    /// existing entry with the same key. The slot is bounded like the
    /// occupancy cache ([`PLAN_CACHE_ENTRIES`] entries, FIFO eviction):
    /// plans must be pure functions of the graph topology and the key,
    /// so eviction only costs a rebuild, never correctness.
    pub fn store_plan(&self, key: &str, plan: std::sync::Arc<dyn std::any::Any + Send + Sync>) {
        let mut cache = self
            .plan_cache
            .0
            .keyed
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(entry) = cache.iter_mut().find(|(k, _)| k == key) {
            entry.1 = plan;
            return;
        }
        if cache.len() >= PLAN_CACHE_ENTRIES {
            cache.remove(0);
        }
        cache.push((key.to_owned(), plan));
    }

    /// A process-independent FNV-1a hash of the graph's *content*: vertex
    /// count, feature length, and the full CSC adjacency (per-destination
    /// sorted source lists). Two graphs hash equal iff their topology and
    /// feature length are identical, regardless of how they were built —
    /// the workload half of the DSE campaign cache key (the name is
    /// display metadata and is deliberately excluded).
    pub fn content_hash(&self) -> u64 {
        let mut h = hashing::Fnv64::new();
        h.write_u64(self.num_vertices() as u64);
        h.write_u64(self.feature_len as u64);
        for dst in 0..self.num_vertices() as VertexId {
            let sources = self.csc.sources(dst);
            h.write_u64(sources.len() as u64);
            for &src in sources {
                h.write_u32(src);
            }
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Graph {
        // 0 -> 1, 2 -> 1, 1 -> 3
        let coo = Coo::from_pairs(4, [(0, 1), (2, 1), (1, 3)]).unwrap();
        Graph::from_coo(&coo, 8)
    }

    #[test]
    fn from_coo_counts() {
        let g = toy();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.feature_len(), 8);
    }

    #[test]
    fn in_neighbors_are_sorted_sources() {
        let g = toy();
        assert_eq!(g.in_neighbors(1), &[0, 2]);
        assert_eq!(g.in_neighbors(3), &[1]);
        assert!(g.in_neighbors(0).is_empty());
    }

    #[test]
    fn out_neighbors_mirror() {
        let g = toy();
        assert_eq!(g.out_neighbors(0), &[1]);
        assert_eq!(g.out_neighbors(1), &[3]);
        assert_eq!(g.out_neighbors(2), &[1]);
    }

    #[test]
    fn degrees() {
        let g = toy();
        assert_eq!(g.in_degree(1), 2);
        assert_eq!(g.in_degree(0), 0);
    }

    #[test]
    fn edges_iterator_is_complete() {
        let g = toy();
        let mut edges: Vec<_> = g.edges().collect();
        edges.sort_unstable();
        assert_eq!(edges, vec![(0, 1), (1, 3), (2, 1)]);
    }

    #[test]
    fn storage_accounts_features_and_adjacency() {
        let g = toy();
        assert_eq!(g.storage_bytes(), 3 * 4 + 4 * 8 * 4);
    }

    #[test]
    fn with_feature_len_overrides() {
        let g = toy().with_feature_len(128);
        assert_eq!(g.feature_len(), 128);
        assert_eq!(g.num_edges(), 3);
    }

    #[test]
    fn name_roundtrip() {
        let g = toy().with_name("Cora");
        assert_eq!(g.name(), "Cora");
    }

    #[test]
    fn occupancy_index_is_cached_and_shared_with_clones() {
        let g = toy();
        let intervals = [
            partition::Interval::new(0, 2),
            partition::Interval::new(2, 4),
        ];
        let a = g.occupancy_index(&intervals).expect("tiny graph fits");
        let b = g.occupancy_index(&intervals).expect("tiny graph fits");
        assert!(
            std::sync::Arc::ptr_eq(&a, &b),
            "repeat lookups must reuse the cached index"
        );
        // A feature-length override clones the graph but shares topology,
        // so it must also share the cache.
        let c = g
            .with_feature_len(64)
            .occupancy_index(&intervals)
            .expect("tiny graph fits");
        assert!(std::sync::Arc::ptr_eq(&a, &c));
        // A different chunking is a distinct entry, not a collision.
        let other = [partition::Interval::new(0, 4)];
        let d = g.occupancy_index(&other).expect("tiny graph fits");
        assert!(!std::sync::Arc::ptr_eq(&a, &d));
        assert_eq!(d.num_intervals(), 1);
    }

    #[test]
    fn occupancy_index_cache_is_bounded() {
        let g = toy();
        let first = [partition::Interval::new(0, 4)];
        let a = g.occupancy_index(&first).expect("fits");
        for w in 0..PLAN_CACHE_ENTRIES as u32 {
            // PLAN_CACHE_ENTRIES fresh chunkings evict the oldest entry.
            let intervals = [partition::Interval::new(w, w + 1)];
            g.occupancy_index(&intervals).expect("fits");
        }
        let again = g.occupancy_index(&first).expect("fits");
        assert!(
            !std::sync::Arc::ptr_eq(&a, &again),
            "evicted entries are rebuilt, not resurrected"
        );
    }

    #[test]
    fn keyed_plans_are_shared_bounded_and_replaceable() {
        let g = toy();
        assert!(g.cached_plan("a").is_none());
        g.store_plan("a", std::sync::Arc::new(41u64));
        // Clones share the slot; lookups downcast to the stored type.
        let from_clone = g
            .with_feature_len(64)
            .cached_plan("a")
            .expect("clone shares cache");
        assert_eq!(*from_clone.downcast::<u64>().unwrap(), 41);
        // Same key replaces in place.
        g.store_plan("a", std::sync::Arc::new(42u64));
        let v = g.cached_plan("a").unwrap().downcast::<u64>().unwrap();
        assert_eq!(*v, 42);
        // FIFO bound: PLAN_CACHE_ENTRIES fresh keys evict the oldest.
        for i in 0..PLAN_CACHE_ENTRIES {
            g.store_plan(&format!("fill-{i}"), std::sync::Arc::new(i));
        }
        assert!(g.cached_plan("a").is_none(), "oldest entry evicted");
        assert!(g.cached_plan("fill-0").is_some());
    }

    #[test]
    fn content_hash_tracks_content_not_name() {
        let g = toy();
        assert_eq!(g.content_hash(), toy().content_hash());
        assert_eq!(g.content_hash(), toy().with_name("renamed").content_hash());
        assert_ne!(g.content_hash(), g.with_feature_len(16).content_hash());
        let extra = Coo::from_pairs(4, [(0, 1), (2, 1), (1, 3), (3, 0)]).unwrap();
        assert_ne!(g.content_hash(), Graph::from_coo(&extra, 8).content_hash());
    }
}
