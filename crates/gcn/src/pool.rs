//! The `Pool` operation: DiffPool's hierarchical graph coarsening
//! (paper Eq. 8).
//!
//! ```text
//! C = softmax(GCN_pool(A, X))        // assignment, |V| x clusters
//! Z = GCN_embed(A, X)                // embedding,  |V| x 128
//! X' = Cᵀ Z                          // coarse features, clusters x 128
//! A' = Cᵀ A C                        // coarse adjacency, clusters x clusters
//! ```
//!
//! The paper maps the two GCNs onto both engines, the transposes onto the
//! (flexible) Aggregation Engine, and the matrix products onto the
//! Combination Engine (§4.1).

use hygcn_tensor::{activation, linalg, Matrix, TensorError};

use crate::GcnError;

/// Result of one DiffPool coarsening step.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffPoolOutput {
    /// Row-wise softmaxed assignment matrix `C` (`|V| x clusters`).
    pub assignment: Matrix,
    /// Coarse feature matrix `X' = Cᵀ Z` (`clusters x embed_dim`).
    pub features: Matrix,
    /// Coarse dense adjacency `A' = Cᵀ A C` (`clusters x clusters`).
    pub adjacency: Matrix,
}

/// Applies the coarsening products given the two internal GCN outputs.
///
/// `pool_scores` is `GCN_pool(A, X)` pre-softmax; `embeddings` is
/// `GCN_embed(A, X)`. `edges` iterates the (sparse) adjacency `A` as
/// `(src, dst)` pairs.
///
/// # Errors
///
/// Returns [`GcnError::Tensor`] if row counts disagree.
pub fn coarsen(
    pool_scores: &Matrix,
    embeddings: &Matrix,
    edges: impl Iterator<Item = (u32, u32)>,
) -> Result<DiffPoolOutput, GcnError> {
    if pool_scores.rows() != embeddings.rows() {
        return Err(GcnError::Tensor(TensorError::ShapeMismatch {
            op: "diffpool coarsen",
            lhs: pool_scores.shape(),
            rhs: embeddings.shape(),
        }));
    }
    let n = pool_scores.rows();
    let clusters = pool_scores.cols();

    // C = row-wise softmax of the pool scores.
    let mut assignment = pool_scores.clone();
    for r in 0..n {
        activation::softmax(assignment.row_mut(r));
    }

    // X' = Cᵀ Z.
    let features = linalg::matmul(&assignment.transposed(), embeddings)?;

    // A' = Cᵀ A C via the sparse expansion: for each edge (u, v),
    // A' += C[u]ᵀ C[v]. This is the product the Combination Engine executes
    // without materializing dense A.
    let mut adjacency = Matrix::zeros(clusters, clusters);
    for (u, v) in edges {
        let cu = assignment.row(u as usize);
        let cv = assignment.row(v as usize);
        for (i, &cui) in cu.iter().enumerate() {
            // lint: allow(float-cmp) -- exact-zero skip: only bit-pattern zeros are skippable work
            if cui == 0.0 {
                continue;
            }
            let arow = adjacency.row_mut(i);
            for (a, &cvj) in arow.iter_mut().zip(cv) {
                *a += cui * cvj;
            }
        }
    }

    Ok(DiffPoolOutput {
        assignment,
        features,
        adjacency,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assignment_rows_sum_to_one() {
        let scores = Matrix::random(5, 3, 1.0, 1);
        let z = Matrix::random(5, 4, 1.0, 2);
        let out = coarsen(&scores, &z, std::iter::empty()).unwrap();
        for r in 0..5 {
            let s: f32 = out.assignment.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn shapes_are_coarse() {
        let scores = Matrix::random(6, 3, 1.0, 1);
        let z = Matrix::random(6, 4, 1.0, 2);
        let out = coarsen(&scores, &z, [(0u32, 1u32), (1, 2)].into_iter()).unwrap();
        assert_eq!(out.features.shape(), (3, 4));
        assert_eq!(out.adjacency.shape(), (3, 3));
    }

    #[test]
    fn adjacency_matches_dense_product() {
        let scores = Matrix::random(4, 2, 1.0, 3);
        let z = Matrix::random(4, 2, 1.0, 4);
        let edges = [(0u32, 1u32), (1, 0), (2, 3), (3, 2)];
        let out = coarsen(&scores, &z, edges.iter().copied()).unwrap();

        // Dense check: A' = Cᵀ A C.
        let mut a = Matrix::zeros(4, 4);
        for &(u, v) in &edges {
            a[(u as usize, v as usize)] = 1.0;
        }
        let ct = out.assignment.transposed();
        let dense = linalg::matmul(&linalg::matmul(&ct, &a).unwrap(), &out.assignment).unwrap();
        assert!(out.adjacency.max_abs_diff(&dense).unwrap() < 1e-5);
    }

    #[test]
    fn mismatched_rows_error() {
        let scores = Matrix::zeros(3, 2);
        let z = Matrix::zeros(4, 2);
        assert!(coarsen(&scores, &z, std::iter::empty()).is_err());
    }

    #[test]
    fn empty_edge_set_gives_zero_adjacency() {
        let scores = Matrix::random(4, 2, 1.0, 5);
        let z = Matrix::random(4, 2, 1.0, 6);
        let out = coarsen(&scores, &z, std::iter::empty()).unwrap();
        assert!(out.adjacency.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn hierarchical_pooling_two_levels() {
        // Level 1 coarsens 8 vertices into 3 clusters; level 2 runs on
        // the coarse adjacency's off-diagonal entries of at least 1e-3.
        let scores = Matrix::random(8, 3, 1.0, 9);
        let z = Matrix::random(8, 4, 1.0, 10);
        let edges = [(0u32, 1u32), (1, 2), (2, 0), (4, 5), (6, 7)];
        let level1 = coarsen(&scores, &z, edges.iter().copied()).unwrap();
        let a = &level1.adjacency;
        let coarse_edges = (0..3u32)
            .flat_map(|dst| (0..3u32).map(move |src| (src, dst)))
            .filter(|&(src, dst)| src != dst && a[(dst as usize, src as usize)] >= 1e-3);
        let scores2 = Matrix::random(3, 2, 1.0, 11);
        let level2 = coarsen(&scores2, &level1.features, coarse_edges).unwrap();
        assert_eq!(level2.features.shape(), (2, 4));
    }
}
