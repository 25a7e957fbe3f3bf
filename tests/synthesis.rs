//! Pins of the synthesized graphs: edge counts and content hashes of
//! every dataset at figure scale, of the `campaign-sweep` benchmark's
//! full-scale CL and PB graphs, of a CL graph that spills more pairs
//! than its blocks hold, and of R-MAT graphs on each side of the
//! generator's bitset/ordered-set dedup choice, through its uniform
//! fallback, and with rows spanning many bitset words.
//!
//! The content hash is the workload half of every stored cache key, so
//! a generator change that moves one of these literals silently orphans
//! every stored result built on that graph. A deliberate change must
//! update the literals together with the goldens it moves.

use hygcn_bench::figures::{figure_scale, FIGURE_SEED};
use hygcn_suite::graph::datasets::{DatasetKey, DatasetSpec};
use hygcn_suite::graph::generator::{rmat, RmatParams};
use hygcn_suite::graph::Graph;

fn pin(what: &str, graph: &Graph, edges: usize, hash: u64) {
    assert_eq!(
        (graph.num_edges(), graph.content_hash()),
        (edges, hash),
        "{what}: got {} edges, hash {:#018x}",
        graph.num_edges(),
        graph.content_hash()
    );
}

/// The graphs `hygcn figures --scale 0.05` builds.
///
/// IB and CL include the duplicates of `assembled_blocks`' spill, whose
/// draws can repeat an in-block pair: CL holds 2,086 duplicate directed
/// edges of its 72,300 and IB 22 of its 1,430.
#[test]
fn figure_scale_datasets_are_pinned() {
    let pins = [
        (DatasetKey::Ib, 1_430, 0xcb08_b7d1_101c_59fa),
        (DatasetKey::Cr, 520, 0xfb99_6dc2_5361_741d),
        (DatasetKey::Cs, 330, 0x3a0a_34d8_6df8_f917),
        (DatasetKey::Cl, 72_300, 0x6e92_f143_807d_8046),
        (DatasetKey::Pb, 3_802, 0x996e_dc96_ce7d_8c93),
        (DatasetKey::Rd, 358_174, 0xb47a_eb55_18ec_7ff3),
    ];
    for (key, edges, hash) in pins {
        let graph = DatasetSpec::get(key)
            .instantiate(figure_scale(key, 0.05), FIGURE_SEED)
            .unwrap();
        pin(key.abbrev(), &graph, edges, hash);
    }
}

/// The full-scale graphs of the `campaign-sweep` benchmark (seed 1).
#[test]
fn campaign_sweep_datasets_are_pinned() {
    for (key, edges, hash) in [
        (DatasetKey::Cl, 1_446_010, 0x3745_1e59_ec19_d5da),
        (DatasetKey::Pb, 76_014, 0xcd65_8d1e_aeb7_469b),
    ] {
        let graph = DatasetSpec::get(key).instantiate(1.0, 1).unwrap();
        pin(key.abbrev(), &graph, edges, hash);
    }
}

/// R-MAT dedups through a bitset at an edge density of at least 1/128
/// and through an ordered set below it; both sides draw the same graph.
#[test]
fn rmat_is_pinned_on_both_sides_of_the_dedup_choice() {
    for (n, m, seed, dense, hash) in [
        (256usize, 300usize, 7, true, 0x1246_b747_3ab9_9d97),
        (1_000, 3_000, 11, false, 0x80a9_b6ea_a430_64c1),
    ] {
        assert_eq!(n * (n - 1) / 2 <= 128 * m, dense, "n = {n}, m = {m}");
        let graph = rmat(n, m, RmatParams::default(), seed).unwrap();
        pin(&format!("rmat({n}, {m})"), &graph, 2 * m, hash);
    }
}

/// CL@0.25 seed 7 asks for more pairs than its blocks can hold, so
/// `assembled_blocks` spills 98,577 of its 180,751 pairs as uniform
/// pairs over all vertices (more than the blocks place), some of them
/// repeating an in-block pair.
#[test]
fn assembled_blocks_with_a_spill_larger_than_the_blocks_is_pinned() {
    let graph = DatasetSpec::get(DatasetKey::Cl)
        .instantiate(0.25, 7)
        .unwrap();
    pin("CL@0.25 seed 7", &graph, 361_502, 0x6508_3bdd_8665_1328);
}

/// `rmat(64, 2_000)` asks for 2,000 of the 2,016 vertex pairs: the
/// R-MAT descent exhausts its retry budget and the uniform fallback
/// places the last pairs. `rmat(2_048, 20_000)` dedups through a bitset
/// whose high rows span up to 32 words.
#[test]
fn rmat_is_pinned_through_the_fallback_and_on_wide_rows() {
    for (n, m, seed, hash) in [
        (64usize, 2_000usize, 3, 0x2b2f_7009_ff17_a38e),
        (2_048, 20_000, 5, 0x2be2_6a02_2a9f_30f4),
    ] {
        assert!(n * (n - 1) / 2 <= 128 * m, "n = {n}, m = {m} is dense");
        let graph = rmat(n, m, RmatParams::default(), seed).unwrap();
        pin(&format!("rmat({n}, {m})"), &graph, 2 * m, hash);
    }
}
