//! Synthetic graph generators.
//!
//! The paper evaluates on six real datasets (Table 4). Reproducing the
//! hardware mechanisms only requires graphs with matching *statistics* —
//! vertex count, edge count, degree skew, and community structure — because
//! every measured effect (feature reuse across overlapping neighborhoods,
//! window sparsity, row-buffer locality) is a function of those statistics.
//! Three families cover the datasets:
//!
//! * [`erdos_renyi`] — uniform random edges, the low-structure control.
//! * [`preferential_attachment`] — heavy-tailed degree distribution (pure
//!   global hubs).
//! * [`community_powerlaw`] — heavy-tailed degrees *plus* community
//!   locality, like citation networks (Cora, Citeseer, Pubmed); the
//!   locality is what window sliding/shrinking exploits.
//! * [`rmat`] — recursive-matrix graphs with power-law degrees *and*
//!   community blocks, like social graphs (Reddit, COLLAB).
//! * [`assembled_cliques`] — many small dense graphs packed into one, the
//!   paper's protocol for multi-graph datasets (IMDB-BIN, COLLAB): "the
//!   datasets with more than one graph are tested by assembling randomly
//!   selected 128 graphs into a large graph".
//!
//! The edge-drawing generators ([`rmat`] and the registry's assembled
//! blocks) run at the speed of their random stream, and build nothing
//! beside it but the graph. R-MAT's quadrant test on the unit float
//! `(u >> 11) / 2^53` is the exact integer test `u >> 11 < ceil(p *
//! 2^53)`. Re-drawn duplicates are caught by a dedup set: a bitset over
//! the upper triangle of the adjacency matrix at an edge density of at
//! least 1/128, where it is at most twice the CSC it fills, and an
//! ordered set below that density. Neither choice changes the random
//! stream, so every graph is the same as with the float test and the
//! ordered set alone.
//!
//! The dedup set is then the graph: the draw loop counts each vertex's
//! degree as it places a pair, and the set, visited in `(hi, lo)` order,
//! fills the CSC with every column already sorted
//! (`Csc::from_ordered_pairs`). These two generators keep no edge list
//! and sort no column; the others emit a [`crate::Coo`].

mod assembled;
mod community;
mod erdos;
mod pairs;
mod powerlaw;
mod rmat;

pub(crate) use pairs::PairSet;

pub use assembled::assembled_cliques;
pub use community::community_powerlaw;
pub use erdos::erdos_renyi;
pub use powerlaw::preferential_attachment;
pub use rmat::{rmat, RmatParams};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_generators_hit_requested_sizes() {
        let er = erdos_renyi(100, 400, 1).unwrap();
        assert_eq!(er.num_vertices(), 100);
        // Undirected edges are stored twice.
        assert_eq!(er.num_edges(), 800);

        let pa = preferential_attachment(100, 3, 1).unwrap();
        assert_eq!(pa.num_vertices(), 100);
        assert!(pa.num_edges() > 0);

        let rm = rmat(128, 512, RmatParams::default(), 1).unwrap();
        assert_eq!(rm.num_vertices(), 128);
        assert_eq!(rm.num_edges(), 1024);

        let ac = assembled_cliques(16, 4, 10, 1).unwrap();
        assert_eq!(ac.num_vertices(), 16 * 10);
    }
}
