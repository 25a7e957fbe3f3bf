//! R-MAT (recursive matrix) generator.
//!
//! R-MAT recursively subdivides the adjacency matrix into quadrants with
//! probabilities `(a, b, c, d)`, producing both power-law degrees and
//! community blocks — the structure of social graphs like Reddit. The
//! default parameters `(0.57, 0.19, 0.19, 0.05)` are the Graph500 values.
//!
//! Each recursion level spends one 64-bit draw `u`. The quadrant test
//! `r < p` on the unit float `r = (u >> 11) / 2^53` (the vendored
//! `Standard` distribution for `f64`) runs as the integer test
//! `u >> 11 < ceil(p * 2^53)`: both the quotient and the product are
//! exact in `f64`, so the two tests agree on every draw and the integer
//! form reproduces the float generator's graphs bit for bit. Drawn
//! pairs are deduplicated through a bitset at an edge density of at
//! least 1/128 and an ordered set below it (see `pairs.rs`), and that
//! set, visited in order, fills the CSC with sorted columns: the draw
//! keeps no edge list and sorts nothing.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use super::pairs::PairSet;
use crate::{Csc, Graph, GraphError, VertexId};

/// Quadrant probabilities of the recursive subdivision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RmatParams {
    /// Top-left (dense core) probability.
    pub a: f64,
    /// Top-right probability.
    pub b: f64,
    /// Bottom-left probability.
    pub c: f64,
    /// Bottom-right probability (implied: `1 - a - b - c`).
    pub d: f64,
}

impl Default for RmatParams {
    /// Graph500 reference parameters.
    fn default() -> Self {
        Self {
            a: 0.57,
            b: 0.19,
            c: 0.19,
            d: 0.05,
        }
    }
}

impl RmatParams {
    /// Validates that the probabilities are finite, non-negative and sum
    /// to ~1.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidParameter`] otherwise.
    pub fn validate(&self) -> Result<(), GraphError> {
        let probs = [self.a, self.b, self.c, self.d];
        if !probs.iter().all(|p| p.is_finite() && *p >= 0.0) {
            return Err(GraphError::InvalidParameter(format!(
                "rmat probabilities must be finite and non-negative, got {probs:?}"
            )));
        }
        let sum = self.a + self.b + self.c + self.d;
        if (sum - 1.0).abs() > 1e-6 {
            return Err(GraphError::InvalidParameter(format!(
                "rmat probabilities must sum to 1, got {sum}"
            )));
        }
        Ok(())
    }

    /// Integer thresholds of the cumulative quadrant probabilities `a`,
    /// `a + b` and `a + b + c`: a level's draw `k = u >> 11` lands past
    /// quadrant `i` exactly when `k >= thresholds[i]`. Adding a
    /// non-negative probability never lowers a float sum, so valid
    /// parameters give ordered thresholds.
    fn thresholds(&self) -> [u64; 3] {
        let t = [
            threshold(self.a),
            threshold(self.a + self.b),
            threshold(self.a + self.b + self.c),
        ];
        debug_assert!(t[0] <= t[1] && t[1] <= t[2], "unordered thresholds {t:?}");
        t
    }
}

/// `2^53`: the vendored unit float is `(u >> 11) / UNIT`.
const UNIT: f64 = (1u64 << 53) as f64;

/// The least `k` with `k / 2^53 >= p`, so that `k < threshold(p)` iff
/// `k as f64 / 2^53 < p` for every 53-bit `k`. Scaling by a power of two
/// is exact, and the float-to-int cast saturates: `p <= 0` gives 0 (no
/// draw is below), `p >= 1` gives at least `2^53` (every draw is).
fn threshold(p: f64) -> u64 {
    (p * UNIT).ceil() as u64
}

/// Generates an undirected R-MAT graph with `num_edges` undirected edges
/// (duplicates are re-drawn, so the count is exact).
///
/// `num_vertices` is rounded up internally to a power of two for the
/// recursion and truncated back; edges landing on truncated ids are
/// re-drawn.
///
/// # Errors
///
/// * [`GraphError::EmptyGraph`] if `num_vertices < 2`.
/// * [`GraphError::InvalidParameter`] for invalid probabilities.
/// * [`GraphError::TooManyEdges`] if the requested count exceeds capacity.
pub fn rmat(
    num_vertices: usize,
    num_edges: usize,
    params: RmatParams,
    seed: u64,
) -> Result<Graph, GraphError> {
    if num_vertices < 2 {
        return Err(GraphError::EmptyGraph);
    }
    params.validate()?;
    let capacity = num_vertices * (num_vertices - 1) / 2;
    if num_edges > capacity {
        return Err(GraphError::TooManyEdges {
            requested: num_edges,
            capacity,
        });
    }
    let seen = PairSet::for_draw(num_vertices, num_edges);
    Ok(draw_graph(num_vertices, num_edges, &params, seed, seen))
}

/// The draw loop of [`rmat`] on validated arguments, deduplicating
/// through `seen`, whose pairs then fill the graph's CSC.
fn draw_graph(
    num_vertices: usize,
    num_edges: usize,
    params: &RmatParams,
    seed: u64,
    mut seen: PairSet,
) -> Graph {
    let levels = usize::BITS - (num_vertices - 1).leading_zeros();
    let thresholds = params.thresholds();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut degrees = vec![0usize; num_vertices];
    // Cap the retry budget: R-MAT cores saturate, and beyond the cap we
    // fill in uniform edges to guarantee the exact requested size.
    let mut attempts = 0usize;
    let max_attempts = num_edges.saturating_mul(64) + 1024;
    let mut placed = 0;
    while placed < num_edges {
        attempts += 1;
        let (src, dst) = if attempts <= max_attempts {
            draw_edge(&mut rng, levels, &thresholds)
        } else {
            (
                rng.gen_range(0..num_vertices as VertexId),
                rng.gen_range(0..num_vertices as VertexId),
            )
        };
        if src == dst || src as usize >= num_vertices || dst as usize >= num_vertices {
            continue;
        }
        if seen.insert(src, dst) {
            degrees[src as usize] += 1;
            degrees[dst as usize] += 1;
            placed += 1;
        }
    }
    let csc = Csc::from_ordered_pairs(&degrees, seen.pairs());
    Graph::from_csc(csc, 1)
}

/// One recursive descent: per level, the quadrant index
/// `q = [k >= Ta] + [k >= Tab] + [k >= Tabc]` (0 top-left, 1 top-right,
/// 2 bottom-left, 3 bottom-right) supplies the source bit `q >> 1` and
/// the destination bit `q & 1`. The thresholds are ordered, so those
/// are `[k >= Tab]` and the parity `[k >= Ta] ^ [k >= Tab] ^ [k >= Tabc]`,
/// which take fewer instructions than the sum.
fn draw_edge(rng: &mut StdRng, levels: u32, thresholds: &[u64; 3]) -> (VertexId, VertexId) {
    let [ta, tab, tabc] = *thresholds;
    let mut src: VertexId = 0;
    let mut dst: VertexId = 0;
    for _ in 0..levels {
        let k = rng.next_u64() >> 11;
        let (past_a, past_ab, past_abc) = (k >= ta, k >= tab, k >= tabc);
        src = src << 1 | VertexId::from(past_ab);
        dst = dst << 1 | VertexId::from(past_a ^ past_ab ^ past_abc);
    }
    (src, dst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::DegreeStats;

    #[test]
    fn exact_edge_count_and_vertices() {
        let g = rmat(100, 300, RmatParams::default(), 2).unwrap();
        assert_eq!(g.num_vertices(), 100);
        assert_eq!(g.num_edges(), 600);
    }

    #[test]
    fn skewed_when_a_dominates() {
        let g = rmat(512, 4096, RmatParams::default(), 3).unwrap();
        let stats = DegreeStats::of(&g);
        assert!(stats.max as f64 > 3.0 * stats.mean);
    }

    #[test]
    fn uniform_params_behave_like_er() {
        let p = RmatParams {
            a: 0.25,
            b: 0.25,
            c: 0.25,
            d: 0.25,
        };
        let g = rmat(256, 1024, p, 4).unwrap();
        let stats = DegreeStats::of(&g);
        // Near-uniform: the max degree stays within a small factor of mean.
        assert!((stats.max as f64) < 4.0 * stats.mean);
    }

    #[test]
    fn invalid_params_rejected() {
        let p = RmatParams {
            a: 0.9,
            b: 0.3,
            c: 0.0,
            d: 0.0,
        };
        assert!(rmat(16, 10, p, 0).is_err());
        // Every comparison with NaN is false, so NaN must be rejected
        // explicitly.
        let nan = RmatParams {
            a: f64::NAN,
            ..RmatParams::default()
        };
        assert!(nan.validate().is_err());
        assert!(rmat(64, 100, nan, 1).is_err());
        let inf = RmatParams {
            d: f64::INFINITY,
            ..RmatParams::default()
        };
        assert!(inf.validate().is_err());
    }

    #[test]
    fn integer_threshold_matches_the_float_test() {
        let p = RmatParams::default();
        let probs = [
            0.0,
            1.0 / 3.0,
            0.57,
            0.76,
            0.95,
            1.0,
            (-60f64).exp2(),
            p.a + p.b,
            p.a + p.b + p.c,
        ];
        for prob in probs {
            let t = threshold(prob);
            for k in [t.saturating_sub(2), t.saturating_sub(1), t, t + 1] {
                assert_eq!(k < t, (k as f64 / UNIT) < prob, "p = {prob}, k = {k}");
            }
        }
    }

    #[test]
    fn bitset_and_ordered_dedup_build_equal_graphs() {
        let p = RmatParams::default();
        for (n, m, seed) in [(100, 600, 1), (300, 400, 2), (64, 2016, 3)] {
            let dense = draw_graph(n, m, &p, seed, PairSet::dense(n));
            let sparse = draw_graph(n, m, &p, seed, PairSet::Sparse(Default::default()));
            assert_eq!(dense, sparse, "n = {n}, m = {m}");
            assert_eq!(dense.num_edges(), 2 * m);
        }
    }

    #[test]
    fn negative_params_rejected() {
        let p = RmatParams {
            a: -0.1,
            b: 0.5,
            c: 0.3,
            d: 0.3,
        };
        assert!(p.validate().is_err());
    }

    #[test]
    fn deterministic() {
        let a = rmat(64, 128, RmatParams::default(), 9).unwrap();
        let b = rmat(64, 128, RmatParams::default(), 9).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn non_power_of_two_vertex_count() {
        let g = rmat(100, 200, RmatParams::default(), 5).unwrap();
        // All ids < 100 even though the recursion uses 128.
        for (s, d) in g.edges() {
            assert!(s < 100 && d < 100);
        }
    }

    #[test]
    fn dense_request_completes_via_fallback() {
        // Nearly complete graph: the R-MAT core alone would spin, the
        // uniform fallback must finish it.
        let g = rmat(16, 100, RmatParams::default(), 6).unwrap();
        assert_eq!(g.num_edges(), 200);
    }
}
