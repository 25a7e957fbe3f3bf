//! Off-chip access coordination (paper §4.5.2, Fig. 9).
//!
//! Four on-chip buffers issue concurrent request streams. Handling them in
//! arrival order interleaves discontinuous addresses and destroys DRAM
//! row-buffer locality. The coordinated mode reassembles each batch by the
//! fixed priority `edges > input features > weights > output features`,
//! draining batch-by-batch (so low-priority requests of the current batch
//! still run before high-priority requests of the *next* batch — the
//! paper is explicit that this is not a starvation-prone strict priority).

use crate::request::{MemRequest, RequestKind};

/// Bytes of one stream an uncoordinated controller serves before it
/// turns to the next stream (one 2 KB row buffer).
const FCFS_PIECE_BYTES: u32 = 2048;

/// Request ordering policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CoordinationMode {
    /// Service requests in arrival order (baseline, Fig. 9(a)).
    Fcfs,
    /// Stable-sort each batch by priority class, concatenating each
    /// class's requests into contiguous runs (Fig. 9(b)).
    #[default]
    PriorityBatched,
}

/// Batch scheduler implementing [`CoordinationMode`].
#[derive(Debug, Clone, Default)]
pub struct AccessScheduler {
    mode: CoordinationMode,
}

impl AccessScheduler {
    /// Creates a scheduler with the given mode.
    pub fn new(mode: CoordinationMode) -> Self {
        Self { mode }
    }

    /// The active mode.
    pub fn mode(&self) -> CoordinationMode {
        self.mode
    }

    /// Orders one batch of concurrent requests for service.
    ///
    /// FCFS models the uncoordinated arrival of Fig. 9(a): the four
    /// buffers' streams drain concurrently, so their requests reach the
    /// memory controller interleaved at row-buffer granularity — each
    /// request is split into row-sized pieces and the streams are
    /// round-robined. Priority batching (Fig. 9(b)) stable-sorts by
    /// [`crate::request::RequestKind::priority`], preserving address order
    /// within each class so each class becomes one long contiguous run.
    pub fn order(&self, mut batch: Vec<MemRequest>) -> Vec<MemRequest> {
        let mut scratch = Vec::new();
        self.order_in_place(&mut batch, &mut scratch);
        batch
    }

    /// Allocation-free variant of [`AccessScheduler::order`] for the
    /// simulator's hot loop: reorders `batch` in place, using `scratch`
    /// as reusable working storage. After the call `batch` holds the
    /// service order and `scratch` is cleared garbage that can be fed to
    /// the next call.
    pub fn order_in_place(&self, batch: &mut Vec<MemRequest>, scratch: &mut Vec<MemRequest>) {
        match self.mode {
            CoordinationMode::Fcfs => {
                interleave_into(batch, FCFS_PIECE_BYTES, scratch);
                std::mem::swap(batch, scratch);
            }
            CoordinationMode::PriorityBatched => {
                // Stable counting sort over the four priority classes:
                // one counting pass, one placement pass.
                let mut cursors = [0usize; 4];
                for r in batch.iter() {
                    cursors[r.kind.priority() as usize] += 1;
                }
                let mut base = 0usize;
                for c in cursors.iter_mut() {
                    let count = *c;
                    *c = base;
                    base += count;
                }
                scratch.clear();
                scratch.resize(batch.len(), MemRequest::read(RequestKind::Edges, 0, 1));
                for r in batch.iter() {
                    let slot = &mut cursors[r.kind.priority() as usize];
                    scratch[*slot] = *r;
                    *slot += 1;
                }
                std::mem::swap(batch, scratch);
            }
        }
    }
}

/// Splits every request into `granularity`-byte pieces and round-robins
/// across the original streams — the arrival order an uncoordinated
/// controller sees when multiple double-buffered engines drain
/// concurrently.
fn interleave_into(cursors: &mut [MemRequest], granularity: u32, out: &mut Vec<MemRequest>) {
    out.clear();
    let mut progressed = true;
    while progressed {
        progressed = false;
        for req in cursors.iter_mut() {
            if req.bytes == 0 {
                continue;
            }
            let take = req.bytes.min(granularity);
            out.push(MemRequest {
                bytes: take,
                ..*req
            });
            req.addr += u64::from(take);
            req.bytes -= take;
            progressed = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::RequestKind;

    fn batch() -> Vec<MemRequest> {
        vec![
            MemRequest::write(RequestKind::OutputFeatures, 300, 32),
            MemRequest::read(RequestKind::Weights, 200, 32),
            MemRequest::read(RequestKind::Edges, 0, 32),
            MemRequest::read(RequestKind::InputFeatures, 100, 32),
            MemRequest::read(RequestKind::Edges, 32, 32),
        ]
    }

    #[test]
    fn fcfs_preserves_stream_order() {
        let s = AccessScheduler::new(CoordinationMode::Fcfs);
        let out = s.order(batch());
        // Small requests are not split; arrival (round-robin) order holds.
        assert_eq!(out[0].kind, RequestKind::OutputFeatures);
        assert_eq!(out[4].kind, RequestKind::Edges);
        assert_eq!(out.len(), 5);
    }

    #[test]
    fn fcfs_interleaves_large_streams() {
        let s = AccessScheduler::new(CoordinationMode::Fcfs);
        let big = vec![
            MemRequest::read(RequestKind::InputFeatures, 0, 8192),
            MemRequest::read(RequestKind::Edges, 1 << 20, 8192),
        ];
        let out = s.order(big);
        // 2 KB pieces, alternating between the two streams.
        assert_eq!(out.len(), 8);
        assert_eq!(out[0].kind, RequestKind::InputFeatures);
        assert_eq!(out[1].kind, RequestKind::Edges);
        assert_eq!(out[2].kind, RequestKind::InputFeatures);
        assert_eq!(out[2].addr, 2048);
        let total: u32 = out.iter().map(|r| r.bytes).sum();
        assert_eq!(total, 16384);
    }

    #[test]
    fn priority_groups_by_kind() {
        let s = AccessScheduler::new(CoordinationMode::PriorityBatched);
        let out = s.order(batch());
        let kinds: Vec<_> = out.iter().map(|r| r.kind).collect();
        assert_eq!(
            kinds,
            vec![
                RequestKind::Edges,
                RequestKind::Edges,
                RequestKind::InputFeatures,
                RequestKind::Weights,
                RequestKind::OutputFeatures,
            ]
        );
    }

    #[test]
    fn priority_sort_is_stable_within_class() {
        let s = AccessScheduler::new(CoordinationMode::PriorityBatched);
        let out = s.order(batch());
        // The two edge requests keep their relative (address) order.
        assert_eq!(out[0].addr, 0);
        assert_eq!(out[1].addr, 32);
    }

    #[test]
    fn default_is_coordinated() {
        assert_eq!(
            AccessScheduler::default().mode(),
            CoordinationMode::PriorityBatched
        );
    }

    #[test]
    fn empty_batch_is_fine() {
        let s = AccessScheduler::default();
        assert!(s.order(Vec::new()).is_empty());
    }
}
