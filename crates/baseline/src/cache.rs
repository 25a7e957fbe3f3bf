//! Set-associative LRU cache-hierarchy simulator.
//!
//! Backs the Table 2 characterization (L2/L3 MPKI, DRAM bytes per op) and
//! the locality benefit of the shard-partitioned algorithm variant: the
//! hierarchy is run over the *actual* access trace of the Aggregation
//! phase (see [`crate::trace`]), not an analytic approximation.
//!
//! Geometry defaults follow the Xeon E5-2680 v3: 32 KB/8-way L1D,
//! 256 KB/8-way L2 per core, 30 MB/20-way shared L3 (one socket; the trace
//! is single-threaded, matching PyG's mostly-serial scatter kernel).

use hygcn_mem::cast::{saturating_usize, widen_u64};

/// One inclusive cache level with LRU replacement.
#[derive(Debug, Clone)]
pub struct CacheLevel {
    /// Set `s` holds its `lens[s]` tags in `tags[s * assoc..]`, most
    /// recently used last: one flat block for the whole level.
    tags: Vec<u64>,
    /// Tags held per set, at most `assoc`.
    lens: Vec<usize>,
    assoc: usize,
    /// `log2` of the line size: an address's tag is `addr >> line_shift`.
    line_shift: u32,
    /// The set count less one: a tag's set is `tag & set_mask`.
    set_mask: u64,
    hits: u64,
    misses: u64,
}

impl CacheLevel {
    /// Creates a cache of `capacity_bytes` with `assoc` ways and
    /// `line_bytes` lines.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is zero, if the line size or the set count
    /// is not a power of two, or if the capacity is under one set.
    pub fn new(capacity_bytes: usize, assoc: usize, line_bytes: u64) -> Self {
        assert!(
            assoc > 0 && line_bytes > 0,
            "cache geometry must be nonzero"
        );
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        let lines = widen_u64(capacity_bytes) / line_bytes;
        assert!(lines >= widen_u64(assoc), "capacity smaller than one set");
        let num_sets = lines / widen_u64(assoc);
        assert!(
            num_sets.is_power_of_two(),
            "set count must be a power of two"
        );
        let sets = saturating_usize(num_sets);
        Self {
            tags: vec![0; sets * assoc],
            lens: vec![0; sets],
            assoc,
            line_shift: line_bytes.trailing_zeros(),
            set_mask: num_sets - 1,
            hits: 0,
            misses: 0,
        }
    }

    /// Accesses the line containing `addr`; returns `true` on hit.
    pub fn access(&mut self, addr: u64) -> bool {
        let tag = addr >> self.line_shift;
        let s = saturating_usize(tag & self.set_mask);
        let len = self.lens[s];
        let ways = &mut self.tags[s * self.assoc..(s + 1) * self.assoc];
        if let Some(pos) = ways[..len].iter().position(|&t| t == tag) {
            // Move to MRU position.
            ways[pos..len].rotate_left(1);
            self.hits += 1;
            true
        } else {
            if len == self.assoc {
                // Evict the LRU tag.
                ways.rotate_left(1);
                ways[len - 1] = tag;
            } else {
                ways[len] = tag;
                self.lens[s] += 1;
            }
            self.misses += 1;
            false
        }
    }

    /// Hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Line size in bytes.
    pub fn line_bytes(&self) -> u64 {
        1 << self.line_shift
    }
}

/// A three-level hierarchy (L1D → L2 → L3 → DRAM).
#[derive(Debug, Clone)]
pub struct Hierarchy {
    l1: CacheLevel,
    l2: CacheLevel,
    l3: CacheLevel,
    dram_bytes: u64,
}

impl Hierarchy {
    /// Xeon E5-2680 v3 single-core view with the shared L3.
    pub fn xeon() -> Self {
        Self::new(
            CacheLevel::new(32 << 10, 8, 64),
            CacheLevel::new(256 << 10, 8, 64),
            CacheLevel::new(30 << 20, 30, 64), // 30 MB, 30-way → 16384 sets
        )
    }

    /// Creates a hierarchy from explicit levels.
    pub fn new(l1: CacheLevel, l2: CacheLevel, l3: CacheLevel) -> Self {
        Self {
            l1,
            l2,
            l3,
            dram_bytes: 0,
        }
    }

    /// Accesses one address (whole line); misses propagate down and DRAM
    /// traffic accumulates on an L3 miss.
    pub fn access(&mut self, addr: u64) {
        if self.l1.access(addr) {
            return;
        }
        if self.l2.access(addr) {
            return;
        }
        if !self.l3.access(addr) {
            self.dram_bytes += self.l3.line_bytes();
        }
    }

    /// Accesses every line of `[addr, addr + bytes)`.
    pub fn access_range(&mut self, addr: u64, bytes: u64) {
        let line = self.l1.line_bytes();
        let mut a = addr / line * line;
        while a < addr + bytes {
            self.access(a);
            a += line;
        }
    }

    /// L2 misses so far.
    pub fn l2_misses(&self) -> u64 {
        self.l2.misses()
    }

    /// L3 misses so far.
    pub fn l3_misses(&self) -> u64 {
        self.l3.misses()
    }

    /// Bytes fetched from DRAM so far.
    pub fn dram_bytes(&self) -> u64 {
        self.dram_bytes
    }

    /// Misses per kilo-instruction for a run of `instructions`.
    pub fn mpki(misses: u64, instructions: u64) -> f64 {
        if instructions == 0 {
            0.0
        } else {
            misses as f64 * 1000.0 / instructions as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_access_hits() {
        let mut c = CacheLevel::new(1024, 2, 64);
        assert!(!c.access(0));
        assert!(c.access(0));
        assert!(c.access(32)); // same line
        assert_eq!(c.misses(), 1);
        assert_eq!(c.hits(), 2);
    }

    #[test]
    #[should_panic(expected = "line size must be a power of two")]
    fn rejects_non_power_of_two_lines() {
        CacheLevel::new(48 * 4, 1, 48);
    }

    #[test]
    fn lru_evicts_oldest() {
        // 2 ways, 64 B lines, 2 sets (256 B capacity).
        let mut c = CacheLevel::new(256, 2, 64);
        // Set 0 gets tags 0, 2, 4 (addresses 0, 128, 256).
        c.access(0);
        c.access(128);
        c.access(256); // evicts tag of addr 0
        assert!(!c.access(0), "addr 0 should have been evicted");
        assert!(c.access(256));
    }

    #[test]
    fn lru_respects_recency() {
        let mut c = CacheLevel::new(256, 2, 64);
        c.access(0);
        c.access(128);
        c.access(0); // refresh 0
        c.access(256); // should evict 128, not 0
        assert!(c.access(0));
        assert!(!c.access(128));
    }

    #[test]
    fn flat_sets_keep_list_lru_order() {
        // Reference: each set a list, MRU last, `remove` + `push`.
        let (assoc, sets) = (4usize, 8u64);
        let mut lists = vec![Vec::<u64>::new(); sets as usize];
        let mut c = CacheLevel::new(4 * 8 * 64, assoc, 64);
        let mut x = 12345u64;
        for _ in 0..20_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let tag = (x >> 33) % 64;
            let set = &mut lists[(tag % sets) as usize];
            let hit = match set.iter().position(|&t| t == tag) {
                Some(pos) => {
                    set.remove(pos);
                    true
                }
                None => {
                    if set.len() == assoc {
                        set.remove(0);
                    }
                    false
                }
            };
            set.push(tag);
            assert_eq!(c.access(tag * 64), hit);
        }
        assert!(c.hits() > 0 && c.misses() > 0);
    }

    #[test]
    fn hierarchy_counts_dram_once_per_cold_line() {
        let mut h = Hierarchy::new(
            CacheLevel::new(1024, 2, 64),
            CacheLevel::new(2048, 2, 64),
            CacheLevel::new(4096, 2, 64),
        );
        h.access_range(0, 512);
        assert_eq!(h.dram_bytes(), 512);
        // Re-access: everything fits in L1, no new DRAM traffic.
        h.access_range(0, 512);
        assert_eq!(h.dram_bytes(), 512);
    }

    #[test]
    fn working_set_larger_than_l3_streams_from_dram() {
        let mut h = Hierarchy::new(
            CacheLevel::new(1024, 2, 64),
            CacheLevel::new(2048, 2, 64),
            CacheLevel::new(4096, 2, 64),
        );
        // Two passes over 64 KB >> 4 KB L3.
        h.access_range(0, 65536);
        h.access_range(0, 65536);
        assert_eq!(h.dram_bytes(), 2 * 65536);
    }

    #[test]
    fn xeon_geometry_constructs() {
        let h = Hierarchy::xeon();
        assert_eq!(h.dram_bytes(), 0);
    }

    #[test]
    fn mpki_math() {
        assert_eq!(Hierarchy::mpki(10, 1000), 10.0);
        assert_eq!(Hierarchy::mpki(10, 0), 0.0);
    }

    #[test]
    fn access_range_handles_unaligned() {
        let mut h = Hierarchy::new(
            CacheLevel::new(1024, 2, 64),
            CacheLevel::new(2048, 2, 64),
            CacheLevel::new(4096, 2, 64),
        );
        h.access_range(60, 8); // straddles two lines
        assert_eq!(h.dram_bytes(), 128);
    }
}
