//! Physical address mapping schemes.
//!
//! The coordination optimization (paper §4.5.2) remaps addresses so that
//! "the channel and bank [are indexed] using low bits", spreading a
//! contiguous stream across channels and banks. The uncoordinated baseline
//! places the channel bits high, so a contiguous stream hammers one
//! channel serially. [`crate::hbm::HbmConfig::locate`] decodes an address
//! under either scheme, one row-buffer page at a time.

/// Where in the address the channel/bank bits sit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MappingScheme {
    /// `row : bank : channel : offset` — channel and bank in the low bits
    /// (above the page offset). Contiguous streams exploit channel- and
    /// bank-level parallelism. This is the coordinated mapping.
    ChannelInterleaved,
    /// `channel : row : bank : offset` — channel in the *high* bits
    /// (128 MB per channel span). A working set smaller than the channel
    /// span serializes on one channel, which is exactly the parallelism
    /// loss the paper's low-bit remap fixes (§4.5.2). Banks rotate per
    /// row, so single streams still overlap activates.
    RowInterleaved,
}

#[cfg(test)]
mod tests {
    use crate::hbm::HbmConfig;

    fn configs() -> (HbmConfig, HbmConfig) {
        (HbmConfig::hbm1(), HbmConfig::hbm1_uncoordinated())
    }

    #[test]
    fn channel_interleaved_spreads_consecutive_pages() {
        let (ci, _) = configs();
        let channels: Vec<usize> = (0..8).map(|i| ci.locate(i * 2048).0).collect();
        let mut sorted = channels.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn row_interleaved_serializes_on_one_channel() {
        let (_, ri) = configs();
        let first = ri.locate(0);
        // A multi-megabyte working set stays entirely on channel 0.
        for addr in (0..(32u64 << 20)).step_by(1 << 16) {
            assert_eq!(ri.locate(addr).0, first.0);
        }
        // Bursts within one 2 KB page share bank and row.
        for i in 1..64u64 {
            let (_, bank, row) = ri.locate(i * 32);
            assert_eq!((bank, row), (first.1, first.2));
        }
        // The next page rotates banks.
        assert_ne!(ri.locate(2048).1, first.1);
    }

    #[test]
    fn same_address_same_location() {
        let (ci, _) = configs();
        assert_eq!(ci.locate(12345), ci.locate(12345));
    }

    #[test]
    fn sub_page_offsets_share_location() {
        let (ci, _) = configs();
        assert_eq!(ci.locate(0), ci.locate(2047));
        assert_ne!(ci.locate(0), ci.locate(2048));
    }

    #[test]
    fn rejects_non_power_of_two() {
        let six = HbmConfig {
            channels: 6,
            ..HbmConfig::hbm1()
        };
        assert!(six.validate().unwrap_err().contains("power of two"));
    }

    #[test]
    fn rejects_burst_larger_than_row() {
        let (ci, ri) = configs();
        for cfg in [ci, ri] {
            let e = HbmConfig {
                burst_bytes: 4096,
                ..cfg
            }
            .validate()
            .unwrap_err();
            assert!(e.contains("burst_bytes"), "{e}");
        }
        // The boundary case (burst == row) is legal.
        let whole_row = HbmConfig {
            burst_bytes: 2048,
            ..ci
        };
        assert!(whole_row.validate().is_ok());
        assert_eq!(whole_row.locate(0).2, 0);
    }

    #[test]
    fn decode_within_geometry_bounds() {
        let (ci, ri) = configs();
        for addr in (0..1_000_000u64).step_by(4093) {
            for cfg in [&ci, &ri] {
                let (channel, bank, _) = cfg.locate(addr);
                assert!(channel < 8);
                assert!(bank < 16);
            }
        }
    }
}
