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

use std::any::Any;
use std::convert::Infallible;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

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

/// Shared memo of derived plans: values that are pure functions of the
/// graph topology and a typed key, built on first use by
/// [`Graph::memo`]. This crate keeps its own occupancy indexes here
/// ([`Graph::occupancy_index`]); downstream crates park values this
/// crate cannot name (the simulator's span programs and runtime
/// samples) in the same memo.
///
/// Each `(key, value)` type pair gets its own FIFO of
/// [`PLAN_CACHE_ENTRIES`] entries. The cache is *identity-transparent*:
/// it never affects equality, hashing, or any observable graph
/// property, so clones share one memo via the `Arc` and a populated
/// cache always agrees with an empty one.
#[derive(Clone, Default)]
struct PlanCache(Arc<Mutex<Vec<Box<dyn Any + Send + Sync>>>>);

/// One `(key, value)` type pair's entries, oldest first.
type MemoSlot<K, V> = Vec<(K, Arc<V>)>;

/// Entries worth remembering per `(key, value)` type and graph:
/// campaigns mostly alternate between a couple of buffer sizes, and
/// each entry can be megabytes.
const PLAN_CACHE_ENTRIES: usize = 4;

/// What a [`Graph::memo`] call did to produce its value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemoOutcome {
    /// The value was already cached.
    Hit,
    /// The value was built by this call. `evicted` is set when storing
    /// it pushed out the oldest entry of its type.
    Built {
        /// Whether the insertion evicted an older entry.
        evicted: bool,
    },
}

impl PlanCache {
    fn lock(&self) -> MutexGuard<'_, Vec<Box<dyn Any + Send + Sync>>> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn get<K, V>(&self, key: &K) -> Option<Arc<V>>
    where
        K: PartialEq + Send + Sync + 'static,
        V: Send + Sync + 'static,
    {
        self.lock()
            .iter()
            .find_map(|slot| slot.downcast_ref::<MemoSlot<K, V>>())?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| Arc::clone(v))
    }

    /// Stores `value` under `key`. A concurrent builder may have stored
    /// the same key meanwhile; its value wins, so every caller shares
    /// one instance.
    fn insert<K, V>(&self, key: K, value: Arc<V>) -> (Arc<V>, MemoOutcome)
    where
        K: PartialEq + Send + Sync + 'static,
        V: Send + Sync + 'static,
    {
        let mut slots = self.lock();
        match slots
            .iter_mut()
            .find_map(|slot| slot.downcast_mut::<MemoSlot<K, V>>())
        {
            Some(slot) => {
                if let Some((_, v)) = slot.iter().find(|(k, _)| *k == key) {
                    return (Arc::clone(v), MemoOutcome::Built { evicted: false });
                }
                let evicted = slot.len() >= PLAN_CACHE_ENTRIES;
                if evicted {
                    slot.remove(0);
                }
                slot.push((key, Arc::clone(&value)));
                (value, MemoOutcome::Built { evicted })
            }
            None => {
                let slot: MemoSlot<K, V> = vec![(key, Arc::clone(&value))];
                slots.push(Box::new(slot));
                (value, MemoOutcome::Built { evicted: false })
            }
        }
    }
}

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

    /// Sets the feature length in place: [`Self::with_feature_len`]
    /// without copying the adjacency.
    pub fn set_feature_len(&mut self, feature_len: usize) {
        self.feature_len = feature_len;
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

    /// The value memoized under `key`, built by `build` on a miss.
    ///
    /// Values must be pure functions of the graph topology and the key:
    /// clones (e.g. [`Graph::with_feature_len`] copies for multi-layer
    /// models) share the memo, and eviction only costs a rebuild. So a
    /// memoized value must not depend on the feature length unless the
    /// key carries it. `build` runs without the cache lock held, so it
    /// may itself consult this graph's memo; two threads missing on the
    /// same key may both build, and the first stored value wins.
    ///
    /// # Errors
    ///
    /// Whatever `build` returns; nothing is cached then.
    pub fn memo<K, V, E>(
        &self,
        key: K,
        build: impl FnOnce() -> Result<V, E>,
    ) -> Result<(Arc<V>, MemoOutcome), E>
    where
        K: PartialEq + Send + Sync + 'static,
        V: Send + Sync + 'static,
    {
        if let Some(v) = self.plan_cache.get::<K, V>(&key) {
            return Ok((v, MemoOutcome::Hit));
        }
        let value = Arc::new(build()?);
        Ok(self.plan_cache.insert(key, value))
    }

    /// The per-interval source-occupancy bitmaps for `intervals`,
    /// memoized by interval boundaries (the index depends only on
    /// topology and chunking, so [`Graph::with_feature_len`] clones
    /// share it).
    ///
    /// Returns `None`, before copying `intervals` into a memo key, when
    /// the index would exceed [`window::OccupancyIndex::MAX_WORDS`];
    /// callers then index one interval at a time with
    /// [`window::OccupancyIndex::build`].
    pub fn occupancy_index(
        &self,
        intervals: &[partition::Interval],
    ) -> Option<(Arc<window::OccupancyIndex>, MemoOutcome)> {
        let words = self
            .num_vertices()
            .div_ceil(64)
            .checked_mul(intervals.len())?;
        if words > window::OccupancyIndex::MAX_WORDS {
            return None;
        }
        let Ok(entry) = self.memo(intervals.to_vec(), || {
            Ok::<_, Infallible>(window::OccupancyIndex::build(self, intervals))
        });
        Some(entry)
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
        let (a, built) = g.occupancy_index(&intervals).expect("tiny graph fits");
        assert_eq!(built, MemoOutcome::Built { evicted: false });
        let (b, hit) = g.occupancy_index(&intervals).expect("tiny graph fits");
        assert_eq!(hit, MemoOutcome::Hit);
        assert!(
            Arc::ptr_eq(&a, &b),
            "repeat lookups must reuse the cached index"
        );
        // A feature-length override clones the graph but shares topology,
        // so it must also share the cache.
        let (c, _) = g
            .with_feature_len(64)
            .occupancy_index(&intervals)
            .expect("tiny graph fits");
        assert!(Arc::ptr_eq(&a, &c));
        // A different chunking is a distinct entry, not a collision.
        let other = [partition::Interval::new(0, 4)];
        let (d, _) = g.occupancy_index(&other).expect("tiny graph fits");
        assert!(!Arc::ptr_eq(&a, &d));
        assert_eq!(d.num_intervals(), 1);
    }

    #[test]
    fn occupancy_index_cache_is_bounded() {
        let g = toy();
        let first = [partition::Interval::new(0, 4)];
        let (a, _) = g.occupancy_index(&first).expect("fits");
        let mut evictions = 0;
        for w in 0..PLAN_CACHE_ENTRIES as u32 {
            // PLAN_CACHE_ENTRIES fresh chunkings evict the oldest entry.
            let intervals = [partition::Interval::new(w, w + 1)];
            let (_, outcome) = g.occupancy_index(&intervals).expect("fits");
            if outcome == (MemoOutcome::Built { evicted: true }) {
                evictions += 1;
            }
        }
        assert_eq!(evictions, 1);
        let (again, outcome) = g.occupancy_index(&first).expect("fits");
        assert_eq!(outcome, MemoOutcome::Built { evicted: true });
        assert!(
            !Arc::ptr_eq(&a, &again),
            "evicted entries are rebuilt, not resurrected"
        );
    }

    #[test]
    fn occupancy_index_respects_budget() {
        use window::OccupancyIndex;
        // 65,536 vertices -> 1,024 words per interval, so one interval
        // past MAX_WORDS / 1,024 blows the budget.
        let g = GraphBuilder::new(1 << 16).feature_len(4).build();
        let per_interval = (1usize << 16) / 64;
        let too_many: Vec<partition::Interval> = (0..=OccupancyIndex::MAX_WORDS / per_interval)
            .map(|_| partition::Interval::new(0, 1))
            .collect();
        assert!(g.occupancy_index(&too_many).is_none());
        // Nothing was memoized for the refused chunking.
        assert!(g.memo(too_many, || Err::<OccupancyIndex, ()>(())).is_err());
        // Any one interval fits, through the memo or built directly.
        let one = [partition::Interval::new(0, 1 << 16)];
        assert!(g.occupancy_index(&one).is_some());
        assert_eq!(OccupancyIndex::build(&g, &one).num_intervals(), 1);
    }

    #[test]
    fn memo_is_typed_shared_bounded_and_skips_failed_builds() {
        let g = toy();
        let ok = |v: u64| move || Ok::<_, ()>(v);
        let (v, outcome) = g.memo("a", ok(41)).unwrap();
        assert_eq!((*v, outcome), (41, MemoOutcome::Built { evicted: false }));
        // Clones share the memo; a hit never runs the builder.
        let (v, outcome) = g
            .with_feature_len(64)
            .memo("a", || Err::<u64, ()>(()))
            .unwrap();
        assert_eq!((*v, outcome), (41, MemoOutcome::Hit));
        // The same key under another value type is another slot.
        let (s, _) = g.memo("a", || Ok::<_, ()>(String::from("s"))).unwrap();
        assert_eq!(*s, "s");
        // A failed build caches nothing.
        assert_eq!(g.memo("b", || Err::<u64, _>("no")), Err("no"));
        let (v, outcome) = g.memo("b", ok(7)).unwrap();
        assert_eq!((*v, outcome), (7, MemoOutcome::Built { evicted: false }));
        // FIFO bound: PLAN_CACHE_ENTRIES entries per type, oldest out.
        for key in ["c", "d", "e"] {
            g.memo(key, ok(0)).unwrap();
        }
        let (v, outcome) = g.memo("a", ok(42)).unwrap();
        assert_eq!((*v, outcome), (42, MemoOutcome::Built { evicted: true }));
        let (_, outcome) = g.memo("a", || Ok::<_, ()>(String::new())).unwrap();
        assert_eq!(outcome, MemoOutcome::Hit, "other types keep their entries");
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
