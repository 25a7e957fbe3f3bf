//! Physical DRAM layout of a simulated workload.
//!
//! All regions are page-aligned (4 KB): the input feature matrix, the
//! edge array, the shared MLP parameters, the output feature matrix, and
//! the spill region the no-pipeline ablation uses for aggregation
//! results. Splitting this out of engine construction lets the simulator
//! build each engine exactly once — previously the Combination Engine
//! was built twice because its own `weight_bytes()` was needed to place
//! the output region it had to be constructed with.

/// Page-aligned base addresses of every DRAM-resident data structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddressLayout {
    /// Input feature matrix `X^{k-1}`.
    pub feature_base: u64,
    /// Edge (CSC column) array.
    pub edge_base: u64,
    /// Shared MLP weights and biases.
    pub weight_base: u64,
    /// Output feature matrix `X^k`.
    pub output_base: u64,
    /// Aggregation spill region (no-pipeline ablation only).
    pub spill_base: u64,
}

/// Shared-parameter bytes of an MLP dimension chain (weights + biases at
/// 4 B/element) — e.g. `[1433, 128]` → `(1433*128 + 128) * 4`.
pub fn mlp_weight_bytes(dims: &[usize]) -> u64 {
    dims.windows(2)
        .map(|w| (w[0] as u64 * w[1] as u64 + w[1] as u64) * 4)
        .sum()
}

/// Output feature length of an MLP dimension chain (0 for a degenerate
/// chain with fewer than two dims).
pub fn mlp_out_len(dims: &[usize]) -> u64 {
    if dims.len() < 2 {
        0
    } else {
        dims.last().copied().unwrap_or(0) as u64
    }
}

impl AddressLayout {
    /// Lays out a workload: `num_vertices` feature rows of `row_bytes`,
    /// `num_edges` 4-byte edge entries, and the MLP of `dims`.
    pub fn new(num_vertices: u64, num_edges: u64, row_bytes: u64, dims: &[usize]) -> Self {
        let align = |x: u64| x.div_ceil(4096) * 4096;
        let feature_base = 0u64;
        let edge_base = align(feature_base + num_vertices * row_bytes);
        let weight_base = align(edge_base + num_edges * 4);
        let output_base = align(weight_base + mlp_weight_bytes(dims));
        let spill_base = align(output_base + num_vertices * mlp_out_len(dims) * 4);
        Self {
            feature_base,
            edge_base,
            weight_base,
            output_base,
            spill_base,
        }
    }

    /// The first address past the spill region, which `paths`
    /// aggregation result sets of `row_bytes` per vertex fill: the top
    /// of every region, and so of every request the workload issues.
    /// `None` past the 64-bit address space.
    pub fn end(&self, num_vertices: u64, row_bytes: u64, paths: u64) -> Option<u64> {
        num_vertices
            .checked_mul(row_bytes)?
            .checked_mul(paths)?
            .checked_add(self.spill_base)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_are_page_aligned_and_ordered() {
        let l = AddressLayout::new(1000, 8000, 512, &[128, 128]);
        for base in [l.edge_base, l.weight_base, l.output_base, l.spill_base] {
            assert_eq!(base % 4096, 0);
        }
        assert!(l.feature_base < l.edge_base);
        assert!(l.edge_base < l.weight_base);
        assert!(l.weight_base < l.output_base);
        assert!(l.output_base < l.spill_base);
    }

    #[test]
    fn regions_do_not_overlap() {
        let (n, e, rb) = (12345u64, 99999u64, 256u64);
        let dims = [64usize, 128, 128];
        let l = AddressLayout::new(n, e, rb, &dims);
        assert!(l.feature_base + n * rb <= l.edge_base);
        assert!(l.edge_base + e * 4 <= l.weight_base);
        assert!(l.weight_base + mlp_weight_bytes(&dims) <= l.output_base);
        assert!(l.output_base + n * mlp_out_len(&dims) * 4 <= l.spill_base);
        assert_eq!(l.end(n, rb, 2), Some(l.spill_base + 2 * n * rb));
        assert_eq!(l.end(u64::MAX, rb, 1), None);
    }

    #[test]
    fn weight_bytes_matches_mlp_accounting() {
        assert_eq!(mlp_weight_bytes(&[256, 128]), (256 * 128 + 128) * 4);
        assert_eq!(
            mlp_weight_bytes(&[602, 128, 128]),
            ((602 * 128 + 128) + (128 * 128 + 128)) * 4
        );
        assert_eq!(mlp_weight_bytes(&[64]), 0);
    }

    #[test]
    fn out_len_is_last_dim() {
        assert_eq!(mlp_out_len(&[256, 128]), 128);
        assert_eq!(mlp_out_len(&[602, 128, 64]), 64);
        assert_eq!(mlp_out_len(&[42]), 0);
        assert_eq!(mlp_out_len(&[]), 0);
    }
}
