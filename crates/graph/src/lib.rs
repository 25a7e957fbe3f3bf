//! # hygcn-graph
//!
//! Graph storage and preprocessing substrate for the HyGCN (HPCA 2020)
//! reproduction.
//!
//! HyGCN's Aggregation Engine consumes graphs in compressed sparse column
//! (CSC) form, the one adjacency a [`Graph`] stores, and relies on three
//! graph-side mechanisms that this crate implements from scratch:
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
pub use error::GraphError;

use std::any::Any;
use std::convert::Infallible;
use std::marker::PhantomData;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// Identifier of a vertex. Graphs in this crate are limited to `u32::MAX`
/// vertices, matching the index width used by the accelerator's edge format.
pub type VertexId = u32;

/// An in-memory property graph: its adjacency in CSC form plus the length
/// of the per-vertex feature vector (the paper's `|h_v|`).
///
/// The adjacency is stored once, by destination, because the Aggregation
/// Engine traverses in-edges (gather). For the undirected graphs the paper
/// evaluates, a vertex's in-neighbors are also its out-neighbors. Clones
/// share the adjacency through an `Arc`, so [`Graph::with_feature_len`]
/// copies for multi-layer models cost no adjacency memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    csc: Arc<Csc>,
    feature_len: usize,
    name: String,
    plan_cache: PlanCache,
}

/// Shared memo of derived plans: values that are pure functions of the
/// graph topology and a typed key, built on first use by
/// [`Graph::memo`]. This crate keeps its own occupancy indexes here
/// ([`Graph::occupancy_index`]), and the column runs they are built from
/// ([`Graph::occupancy_runs`]); downstream crates park values this
/// crate cannot name (the simulator's span programs and runtime
/// samples) in the same memo.
///
/// Each `(key, value)` type pair keeps its newest
/// [`PLAN_CACHE_ENTRIES`] entry; occupancy indexes keep older ones too,
/// oldest out first, while their bitmaps fit [`PLAN_CACHE_BYTES`]. A key
/// is built once: its builder registers it as in flight, and a
/// concurrent caller of the same key waits for that build instead of
/// repeating it. The cache is
/// *identity-transparent*: it never affects equality, hashing, or any
/// observable graph property, so clones share one memo via the `Arc`
/// and a populated cache always agrees with an empty one.
#[derive(Clone, Default)]
struct PlanCache(Arc<Memo>);

/// The shared state behind a [`PlanCache`].
#[derive(Default)]
struct Memo {
    state: Mutex<MemoState>,
    /// Signalled whenever an in-flight build ends, stored or not.
    built: Condvar,
}

/// The memo's contents.
#[derive(Default)]
struct MemoState {
    /// One [`MemoSlot`] per `(key, value)` type pair.
    slots: Slots,
    /// Builds ever started: the next build's ticket.
    tickets: u64,
}

/// One `(key, value)` type pair's entries, oldest first, and the keys
/// being built, each under its build's ticket.
struct MemoSlot<K, V> {
    entries: Vec<(K, Arc<V>)>,
    building: Vec<(u64, K)>,
}

/// Entries kept per `(key, value)` type and graph. A span program or
/// schedule can be megabytes, and a campaign, which evaluates all
/// points of a decode class in one lane-group call, never returns to an
/// older key; `simulate`, `compare` and `bench` repeat one key.
const PLAN_CACHE_ENTRIES: usize = 1;

/// The bytes of occupancy indexes a graph keeps beyond
/// [`PLAN_CACHE_ENTRIES`]: one maximal index. A campaign sweeps every
/// model over the same chunkings, and the indexes of one graph's
/// chunkings are mostly far smaller than that, so a sweep builds each
/// once.
const PLAN_CACHE_BYTES: usize = window::OccupancyIndex::MAX_WORDS * 8;

/// What a [`Graph::memo`] call did to produce its value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemoOutcome {
    /// The value was already cached, or built meanwhile by a concurrent
    /// caller of the same key.
    Hit,
    /// The value was built by this call. `evicted` is set when storing
    /// it pushed out older entries of its type.
    Built {
        /// Whether the insertion evicted an older entry.
        evicted: bool,
    },
}

type Slots = Vec<Box<dyn Any + Send + Sync>>;

impl PlanCache {
    fn lock(&self) -> MutexGuard<'_, MemoState> {
        self.0.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The slot of `(K, V)` among `slots`, created empty if missing.
    fn slot<K, V>(slots: &mut Slots) -> &mut MemoSlot<K, V>
    where
        K: Send + Sync + 'static,
        V: Send + Sync + 'static,
    {
        let i = slots
            .iter()
            .position(|s| s.is::<MemoSlot<K, V>>())
            .unwrap_or_else(|| {
                slots.push(Box::new(MemoSlot::<K, V> {
                    entries: Vec::new(),
                    building: Vec::new(),
                }));
                slots.len() - 1
            });
        match slots[i].downcast_mut() {
            Some(slot) => slot,
            None => unreachable!("slot {i} holds MemoSlot<K, V>"),
        }
    }

    /// [`Graph::memo`], keeping more than [`PLAN_CACHE_ENTRIES`]
    /// entries while their summed `bytes` fit [`PLAN_CACHE_BYTES`] when
    /// `bytes` is given.
    fn memo<K, V, E>(
        &self,
        key: K,
        build: impl FnOnce() -> Result<V, E>,
        bytes: Option<fn(&V) -> usize>,
    ) -> Result<(Arc<V>, MemoOutcome), E>
    where
        K: PartialEq + Send + Sync + 'static,
        V: Send + Sync + 'static,
    {
        let mut state = self.lock();
        loop {
            let slot = Self::slot::<K, V>(&mut state.slots);
            if let Some((_, v)) = slot.entries.iter().find(|(k, _)| *k == key) {
                return Ok((Arc::clone(v), MemoOutcome::Hit));
            }
            if !slot.building.iter().any(|(_, k)| *k == key) {
                break;
            }
            // Another caller is building this key: take its value, or
            // the build over if it failed.
            state = self
                .0
                .built
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        let ticket = state.tickets;
        state.tickets += 1;
        Self::slot::<K, V>(&mut state.slots)
            .building
            .push((ticket, key));
        drop(state);
        let flight = InFlight::<K, V> {
            cache: self,
            ticket,
            types: PhantomData,
        };
        let value = Arc::new(build()?);
        Ok((Arc::clone(&value), flight.store(value, bytes)))
    }
}

/// A key this caller is building. Dropped, it withdraws the key if
/// still in flight — the build failed or panicked, and a waiter then
/// builds it itself — and wakes the waiters.
struct InFlight<'a, K, V>
where
    K: Send + Sync + 'static,
    V: Send + Sync + 'static,
{
    cache: &'a PlanCache,
    ticket: u64,
    types: PhantomData<fn() -> (K, V)>,
}

impl<K, V> InFlight<'_, K, V>
where
    K: Send + Sync + 'static,
    V: Send + Sync + 'static,
{
    /// Removes the key from the in-flight list, returning it.
    fn withdraw(&self, slots: &mut Slots) -> Option<K> {
        let building = &mut PlanCache::slot::<K, V>(slots).building;
        let i = building.iter().position(|&(t, _)| t == self.ticket)?;
        Some(building.swap_remove(i).1)
    }

    /// Stores the built `value` under the key, evicting the oldest
    /// entries past the slot's bound; dropping `self` then wakes the
    /// waiters.
    fn store(self, value: Arc<V>, bytes: Option<fn(&V) -> usize>) -> MemoOutcome {
        let mut state = self.cache.lock();
        let key = self.withdraw(&mut state.slots);
        let slot = PlanCache::slot::<K, V>(&mut state.slots);
        slot.entries.extend(key.map(|k| (k, value)));
        let over = |entries: &[(K, Arc<V>)]| {
            entries.len() > PLAN_CACHE_ENTRIES
                && bytes.is_none_or(|bytes| {
                    entries.iter().map(|(_, v)| bytes(v)).sum::<usize>() > PLAN_CACHE_BYTES
                })
        };
        let mut evicted = false;
        while over(&slot.entries) {
            slot.entries.remove(0);
            evicted = true;
        }
        drop(state);
        MemoOutcome::Built { evicted }
    }
}

impl<K, V> Drop for InFlight<'_, K, V>
where
    K: Send + Sync + 'static,
    V: Send + Sync + 'static,
{
    fn drop(&mut self) {
        let mut state = self.cache.lock();
        self.withdraw(&mut state.slots);
        drop(state);
        self.cache.0.built.notify_all();
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
        Self::from_csc(Csc::from_coo(coo), feature_len)
    }

    /// Wraps an adjacency built elsewhere in this crate, such as a
    /// generator's [`Csc::from_ordered_pairs`].
    pub(crate) fn from_csc(csc: Csc, feature_len: usize) -> Self {
        Self {
            csc: Arc::new(csc),
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
    /// `|a^k_v|` produced by layer `k-1`. The copy shares the adjacency
    /// and the plan memo.
    pub fn with_feature_len(&self, feature_len: usize) -> Self {
        Self {
            feature_len,
            ..self.clone()
        }
    }

    /// Sets the feature length in place.
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

    /// In-degree of `v` (the paper's `D_v` for undirected graphs).
    pub fn in_degree(&self, v: VertexId) -> usize {
        self.in_neighbors(v).len()
    }

    /// Borrow the CSC adjacency (the accelerator's native input format).
    pub fn csc(&self) -> &Csc {
        &self.csc
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
    /// may itself consult this graph's memo for other keys (never for
    /// its own, which it would wait on). A caller that misses while
    /// another builds the same key waits for that build and shares its
    /// value (a [`MemoOutcome::Hit`]); if that build fails, the caller
    /// builds the key itself.
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
        self.plan_cache.memo(key, build, None)
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
        let Ok(entry) = self.plan_cache.memo(
            intervals.to_vec(),
            || Ok::<_, Infallible>(window::OccupancyIndex::build(self, intervals)),
            Some(window::OccupancyIndex::storage_bytes),
        );
        Some(entry)
    }

    /// The number of `(word, mask)` runs the graph keeps to build
    /// occupancy bitmaps from, or `None` when it keeps none and sets
    /// one bit per source instead: the runs are kept only when there is
    /// at most one per six edges (see [`window::OccupancyIndex::build`]).
    /// Decided and built on first use, like any plan.
    pub fn occupancy_runs(&self) -> Option<usize> {
        (*self.column_runs()).as_ref().map(window::ColumnRuns::len)
    }

    /// The memoized column runs, `None` when the graph keeps none.
    pub(crate) fn column_runs(&self) -> Arc<Option<window::ColumnRuns>> {
        /// The memo key of a graph's one set of column runs.
        #[derive(PartialEq)]
        struct ColumnRunsKey;
        let Ok((runs, _)) = self.plan_cache.memo(
            ColumnRunsKey,
            || Ok::<_, Infallible>(window::ColumnRuns::build(self)),
            None,
        );
        runs
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
    fn occupancy_index_cache_is_bounded_by_bytes() {
        // Six chunkings of a tiny graph fit the byte budget: all kept.
        let g = toy();
        let chunkings: Vec<[partition::Interval; 1]> = (0..6u32)
            .map(|w| [partition::Interval::new(w % 4, w % 4 + 1 + w / 4)])
            .collect();
        for c in &chunkings {
            let (_, outcome) = g.occupancy_index(c).expect("fits");
            assert_eq!(outcome, MemoOutcome::Built { evicted: false });
        }
        for c in &chunkings {
            assert_eq!(g.occupancy_index(c).expect("fits").1, MemoOutcome::Hit);
        }
        // Past PLAN_CACHE_ENTRIES, entries stay while their bytes fit
        // PLAN_CACHE_BYTES (sizes stood in by the values themselves).
        let size = |v: &usize| *v;
        let eighth = PLAN_CACHE_BYTES / 8;
        let put = |key: u32, bytes: usize| {
            g.plan_cache
                .memo(key, || Ok::<_, ()>(bytes), Some(size))
                .unwrap()
                .1
        };
        for key in 0..8 {
            assert_eq!(put(key, eighth), MemoOutcome::Built { evicted: false });
        }
        assert_eq!(put(8, eighth), MemoOutcome::Built { evicted: true });
        assert_eq!(put(0, eighth), MemoOutcome::Built { evicted: true });
        assert_eq!(put(1, eighth), MemoOutcome::Built { evicted: true });
        // A whole budget's worth leaves the newest PLAN_CACHE_ENTRIES
        // alone, and keeps an older one only while the bytes fit.
        assert_eq!(
            put(9, PLAN_CACHE_BYTES),
            MemoOutcome::Built { evicted: true }
        );
        assert_eq!(put(9, 0), MemoOutcome::Hit);
        assert_eq!(put(1, 0), MemoOutcome::Built { evicted: false });
        assert_eq!(put(2, 1), MemoOutcome::Built { evicted: true });
        for key in [1, 2] {
            assert_eq!(put(key, 0), MemoOutcome::Hit);
        }
        assert_eq!(put(9, 0), MemoOutcome::Built { evicted: false });
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
        // A failed build caches nothing and evicts nothing.
        assert_eq!(g.memo("b", || Err::<u64, _>("no")), Err("no"));
        let (v, outcome) = g.memo("a", || Err::<u64, ()>(())).unwrap();
        assert_eq!((*v, outcome), (41, MemoOutcome::Hit));
        // Bound: the newest PLAN_CACHE_ENTRIES entry per type.
        let (v, outcome) = g.memo("b", ok(7)).unwrap();
        assert_eq!((*v, outcome), (7, MemoOutcome::Built { evicted: true }));
        let (v, outcome) = g.memo("a", ok(42)).unwrap();
        assert_eq!((*v, outcome), (42, MemoOutcome::Built { evicted: true }));
        let (_, outcome) = g.memo("a", || Ok::<_, ()>(String::new())).unwrap();
        assert_eq!(outcome, MemoOutcome::Hit, "other types keep their entries");
    }

    /// Starts `memo("k", build)` on one thread, and once `build` has
    /// begun, a second `memo("k", ..)` on another; releases `build`
    /// 50 ms later and returns both results with how many builds ran.
    /// The pause only lets the second caller reach its wait: every
    /// assertion holds however the threads interleave.
    #[allow(clippy::type_complexity)]
    fn race(
        first: Result<u64, &'static str>,
    ) -> (
        Result<(Arc<u64>, MemoOutcome), &'static str>,
        Result<(Arc<u64>, MemoOutcome), &'static str>,
        usize,
    ) {
        use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
        use std::sync::mpsc;
        use std::time::Duration;
        let g = toy();
        let builds = AtomicUsize::new(0);
        let returned = AtomicBool::new(false);
        let (entered, wait_entered) = mpsc::channel();
        let (release, wait_release) = mpsc::channel::<()>();
        let (g, builds, returned) = (&g, &builds, &returned);
        std::thread::scope(|scope| {
            // Owned here, so a failed assertion drops it and the slow
            // build's `recv` ends instead of holding the scope open.
            let release = release;
            let slow = scope.spawn(move || {
                g.memo("k", || {
                    builds.fetch_add(1, Ordering::SeqCst);
                    entered.send(()).unwrap();
                    wait_release.recv().unwrap();
                    first
                })
            });
            wait_entered.recv().unwrap();
            let second = scope.spawn(move || {
                let r = g.memo("k", || {
                    builds.fetch_add(1, Ordering::SeqCst);
                    Ok(7)
                });
                returned.store(true, Ordering::SeqCst);
                r
            });
            std::thread::sleep(Duration::from_millis(50));
            // The key is in flight: the second caller cannot finish.
            assert!(!returned.load(Ordering::SeqCst));
            release.send(()).unwrap();
            let (a, b) = (slow.join().unwrap(), second.join().unwrap());
            (a, b, builds.load(Ordering::SeqCst))
        })
    }

    #[test]
    fn concurrent_misses_on_one_key_build_once() {
        let (a, b, builds) = race(Ok(41));
        assert_eq!(builds, 1);
        let ((a, built), (b, waited)) = (a.unwrap(), b.unwrap());
        assert_eq!(built, MemoOutcome::Built { evicted: false });
        assert_eq!(waited, MemoOutcome::Hit);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(*b, 41);
    }

    #[test]
    fn a_caller_waiting_on_a_failed_build_builds_itself() {
        let (a, b, builds) = race(Err("no"));
        assert_eq!(a, Err("no"));
        let (b, outcome) = b.unwrap();
        assert_eq!((*b, outcome), (7, MemoOutcome::Built { evicted: false }));
        assert_eq!(builds, 2);
    }

    #[test]
    fn a_panicking_build_withdraws_its_key() {
        let g = toy();
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            g.memo("k", || -> Result<u64, ()> { panic!("build failed") })
        }));
        assert!(panicked.is_err());
        // Not left in flight: the next caller builds instead of waiting.
        let (v, outcome) = g.memo("k", || Ok::<_, ()>(3)).unwrap();
        assert_eq!((*v, outcome), (3, MemoOutcome::Built { evicted: false }));
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
