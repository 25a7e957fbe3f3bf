//! Property-based tests for the memory substrate's invariants: byte
//! conservation, completion bounds, scheduler permutations, the address
//! decode's bounds and page locality, and per-channel counters that sum
//! to the folded totals and tile every request's bursts.

use hygcn_mem::address::MappingScheme;
use hygcn_mem::hbm::{Hbm, HbmConfig};
use hygcn_mem::request::{MemRequest, RequestKind};
use hygcn_mem::scheduler::{AccessScheduler, CoordinationMode};
use proptest::prelude::*;

fn arb_kind() -> impl Strategy<Value = RequestKind> {
    prop_oneof![
        Just(RequestKind::Edges),
        Just(RequestKind::InputFeatures),
        Just(RequestKind::Weights),
        Just(RequestKind::OutputFeatures),
    ]
}

fn arb_request() -> impl Strategy<Value = MemRequest> {
    (arb_kind(), 0u64..(1 << 24), 1u32..16384, any::<bool>()).prop_map(
        |(kind, addr, bytes, is_write)| MemRequest {
            kind,
            addr,
            bytes,
            is_write,
        },
    )
}

proptest! {
    /// Byte accounting is conserved regardless of scheduling.
    #[test]
    fn bytes_conserved(reqs in proptest::collection::vec(arb_request(), 1..40)) {
        let total: u64 = reqs.iter().map(|r| u64::from(r.bytes)).sum();
        for mode in [CoordinationMode::Fcfs, CoordinationMode::PriorityBatched] {
            let mut hbm = Hbm::new(HbmConfig::hbm1());
            let ordered = AccessScheduler::new(mode).order(reqs.clone());
            hbm.service_batch(&ordered, 0);
            prop_assert_eq!(hbm.stats().total_bytes(), total);
        }
    }

    /// Completion time is monotone in arrival time.
    #[test]
    fn completion_monotone_in_arrival(req in arb_request(), t in 0u64..10_000) {
        let mut a = Hbm::new(HbmConfig::hbm1());
        let mut b = Hbm::new(HbmConfig::hbm1());
        let t0 = a.access(&req, 0);
        let t1 = b.access(&req, t);
        prop_assert!(t1 >= t0);
        prop_assert!(t1 >= t);
    }

    /// A request's completion is bounded below by the pure transfer time
    /// of its bursts on one channel and above by a full serial worst case.
    #[test]
    fn completion_bounds(req in arb_request()) {
        let cfg = HbmConfig::hbm1();
        let mut hbm = Hbm::new(cfg);
        let done = hbm.access(&req, 0);
        let bursts = u64::from(req.bytes).div_ceil(cfg.burst_bytes);
        let rows = u64::from(req.bytes) / cfg.row_bytes + 2;
        let min = bursts / cfg.channels as u64;
        let max = bursts * cfg.t_burst + rows * cfg.t_row + cfg.t_cas + cfg.t_row;
        prop_assert!(done >= min, "done {done} < min {min}");
        prop_assert!(done <= max, "done {done} > max {max}");
    }

    /// Priority batching is a permutation: same multiset of requests.
    #[test]
    fn priority_order_is_permutation(reqs in proptest::collection::vec(arb_request(), 0..50)) {
        let ordered = AccessScheduler::new(CoordinationMode::PriorityBatched).order(reqs.clone());
        prop_assert_eq!(ordered.len(), reqs.len());
        let mut a: Vec<_> = reqs.iter().map(|r| (r.kind.priority(), r.addr, r.bytes)).collect();
        let mut b: Vec<_> = ordered.iter().map(|r| (r.kind.priority(), r.addr, r.bytes)).collect();
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
        // And priorities are non-decreasing.
        prop_assert!(ordered.windows(2).all(|w| w[0].kind.priority() <= w[1].kind.priority()));
    }

    /// FCFS interleaving splits but never loses bytes, and piece addresses
    /// exactly tile each original request.
    #[test]
    fn fcfs_interleave_tiles_requests(reqs in proptest::collection::vec(arb_request(), 1..10)) {
        let ordered = AccessScheduler::new(CoordinationMode::Fcfs).order(reqs.clone());
        let total: u64 = reqs.iter().map(|r| u64::from(r.bytes)).sum();
        let got: u64 = ordered.iter().map(|r| u64::from(r.bytes)).sum();
        prop_assert_eq!(total, got);
        // Pieces of each kind+origin are contiguous and ascending.
        for orig in &reqs {
            let mut covered = 0u64;
            for piece in ordered.iter().filter(|p| {
                p.kind == orig.kind
                    && p.addr >= orig.addr
                    && p.addr < orig.addr + u64::from(orig.bytes)
                    && p.is_write == orig.is_write
            }) {
                covered += u64::from(piece.bytes);
            }
            prop_assert!(covered >= u64::from(orig.bytes));
        }
    }

    /// Address decoding stays within geometry bounds for both schemes.
    #[test]
    fn decode_in_bounds(addr in 0u64..(1u64 << 40)) {
        for mapping in [MappingScheme::ChannelInterleaved, MappingScheme::RowInterleaved] {
            let cfg = HbmConfig { mapping, ..HbmConfig::hbm1() };
            let (channel, bank, _) = cfg.locate(addr);
            prop_assert!(channel < 8);
            prop_assert!(bank < 16);
        }
    }

    /// Same row-buffer page decodes to the same location (both schemes).
    #[test]
    fn page_locality_preserved(page in 0u64..(1 << 20), off in 0u64..2048) {
        for mapping in [MappingScheme::ChannelInterleaved, MappingScheme::RowInterleaved] {
            let cfg = HbmConfig { mapping, ..HbmConfig::hbm1() };
            prop_assert_eq!(cfg.locate(page * 2048), cfg.locate(page * 2048 + off));
        }
    }

    /// Row hit rate for a contiguous stream is high under the coordinated
    /// mapping: at most one miss per page touched.
    #[test]
    fn stream_misses_bounded_by_pages(bytes in 2048u32..(1 << 20)) {
        let mut hbm = Hbm::new(HbmConfig::hbm1());
        hbm.access(&MemRequest::read(RequestKind::InputFeatures, 0, bytes), 0);
        let pages = u64::from(bytes).div_ceil(2048);
        prop_assert!(hbm.stats().row_misses <= pages);
    }

    /// The per-channel counters sum consistently with the folded
    /// `HbmStats` totals, and the cycle accounting is self-consistent:
    /// `busy_cycles == bursts * t_burst` per channel, and every busy
    /// cycle fits before that channel's last completion.
    #[test]
    fn channel_cycles_sum_to_hbm_stats(reqs in collection::vec(arb_request(), 1..40), now in 0u64..5_000) {
        let cfg = HbmConfig::hbm1();
        let mut hbm = Hbm::new(cfg);
        let done = hbm.service_batch(&reqs, now);
        let full = hbm.hbm_stats();
        prop_assert!(full.consistent(), "per-channel fold diverged from totals");
        prop_assert_eq!(full.channels.len(), cfg.channels);
        let total_bursts: u64 = full.channels.iter().map(|c| c.bursts).sum();
        let expect_bursts: u64 = reqs
            .iter()
            .flat_map(|r| {
                let mut segs = Vec::new();
                let mut addr = r.addr;
                let end = r.addr + u64::from(r.bytes);
                while addr < end {
                    let seg_end = ((addr / 2048 + 1) * 2048).min(end);
                    segs.push((seg_end - addr).div_ceil(cfg.burst_bytes));
                    addr = seg_end;
                }
                segs
            })
            .sum();
        prop_assert_eq!(total_bursts, expect_bursts);
        for ch in &full.channels {
            prop_assert_eq!(ch.busy_cycles, ch.bursts * cfg.t_burst);
            if ch.bursts > 0 {
                prop_assert!(ch.busy_cycles <= ch.last_completion);
                prop_assert!(ch.last_completion <= done);
            }
        }
    }
}

/// Arbitrary geometry where every field is a power of two but
/// `burst_bytes` may exceed `row_bytes` — the combination
/// `HbmConfig::validate` must reject, since a burst streams out of one
/// open row.
fn arb_geometry() -> impl Strategy<Value = HbmConfig> {
    (
        prop_oneof![
            Just(MappingScheme::ChannelInterleaved),
            Just(MappingScheme::RowInterleaved),
        ],
        0u32..7,  // channels = 1..=64
        0u32..6,  // banks = 1..=32
        5u32..14, // row_bytes = 32..=8192
        3u32..16, // burst_bytes = 8..=32768 (can exceed row_bytes)
    )
        .prop_map(|(mapping, c, b, r, s)| HbmConfig {
            mapping,
            channels: 1 << c,
            banks: 1 << b,
            row_bytes: 1 << r,
            burst_bytes: 1 << s,
            ..HbmConfig::hbm1()
        })
}

proptest! {
    /// For arbitrary power-of-two geometry, validation rejects the
    /// geometry exactly when the burst exceeds the row; an accepted one
    /// decodes deterministically and in bounds, and every byte of a row
    /// page shares its (channel, bank, row).
    #[test]
    fn validate_rejects_or_decodes_consistently(
        cfg in arb_geometry(),
        addr in 0u64..(1 << 33),
    ) {
        match cfg.validate() {
            Err(e) => {
                prop_assert!(cfg.burst_bytes > cfg.row_bytes, "spurious rejection: {}", e);
            }
            Ok(()) => {
                prop_assert!(cfg.burst_bytes <= cfg.row_bytes);
                let (channel, bank, row) = cfg.locate(addr);
                prop_assert_eq!((channel, bank, row), cfg.locate(addr), "decode must be pure");
                prop_assert!(channel < cfg.channels);
                prop_assert!(bank < cfg.banks);
                let page_start = addr & !(cfg.row_bytes - 1);
                prop_assert_eq!(cfg.locate(page_start), cfg.locate(page_start + cfg.row_bytes - 1));
            }
        }
    }
}
