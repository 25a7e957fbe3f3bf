//! Memory request records.

/// Which on-chip buffer a request serves — also its coordination priority
/// class (paper Fig. 9: `edges > input features > weights > output
/// features`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RequestKind {
    /// Edge array reads for the Edge Buffer (highest priority).
    Edges,
    /// Source feature reads for the Input Buffer.
    InputFeatures,
    /// MLP parameter reads for the Weight Buffer.
    Weights,
    /// Final feature writes from the Output Buffer (lowest priority).
    OutputFeatures,
}

impl RequestKind {
    /// Coordination priority; lower is more urgent.
    pub fn priority(&self) -> u8 {
        match self {
            RequestKind::Edges => 0,
            RequestKind::InputFeatures => 1,
            RequestKind::Weights => 2,
            RequestKind::OutputFeatures => 3,
        }
    }

    /// All kinds in priority order.
    pub const ALL: [RequestKind; 4] = [
        RequestKind::Edges,
        RequestKind::InputFeatures,
        RequestKind::Weights,
        RequestKind::OutputFeatures,
    ];
}

/// One off-chip access: a contiguous byte range with a direction and a
/// priority class. The HBM model splits it into 32 B bursts internally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRequest {
    /// Priority/traffic class.
    pub kind: RequestKind,
    /// Starting physical byte address.
    pub addr: u64,
    /// Length in bytes (nonzero).
    pub bytes: u32,
    /// Write (true) or read (false).
    pub is_write: bool,
}

impl MemRequest {
    /// A read of `bytes` at `addr`.
    pub fn read(kind: RequestKind, addr: u64, bytes: u32) -> Self {
        Self {
            kind,
            addr,
            bytes,
            is_write: false,
        }
    }

    /// A write of `bytes` at `addr`.
    pub fn write(kind: RequestKind, addr: u64, bytes: u32) -> Self {
        Self {
            kind,
            addr,
            bytes,
            is_write: true,
        }
    }
}

/// Compact per-kind accounting of a group of requests: how many requests
/// and how many bytes of each [`RequestKind`], with writes totaled
/// separately.
///
/// The engines' per-chunk cost records carry one of these instead of a
/// `Vec<MemRequest>`, so energy/traffic accounting never walks (or
/// allocates) request lists; the actual address-level requests live in a
/// shared [`RequestArena`] and are only touched by the memory handler's
/// timing pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RequestSummary {
    counts: [u32; 4],
    bytes: [u64; 4],
    write_bytes: u64,
}

impl RequestSummary {
    /// Folds one request into the histogram.
    pub fn record(&mut self, req: &MemRequest) {
        let k = req.kind.priority() as usize;
        self.counts[k] += 1;
        self.bytes[k] += u64::from(req.bytes);
        if req.is_write {
            self.write_bytes += u64::from(req.bytes);
        }
    }

    /// Requests of `kind`.
    pub fn count(&self, kind: RequestKind) -> u32 {
        self.counts[kind.priority() as usize]
    }

    /// Bytes of `kind`.
    pub fn bytes(&self, kind: RequestKind) -> u64 {
        self.bytes[kind.priority() as usize]
    }

    /// Total requests across kinds.
    pub fn total_count(&self) -> u64 {
        self.counts.iter().map(|&c| u64::from(c)).sum()
    }

    /// Total bytes across kinds (reads + writes).
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }

    /// Total bytes written.
    pub fn write_bytes(&self) -> u64 {
        self.write_bytes
    }

    /// Merges another summary into this one.
    pub fn merge(&mut self, other: &RequestSummary) {
        for k in 0..4 {
            self.counts[k] += other.counts[k];
            self.bytes[k] += other.bytes[k];
        }
        self.write_bytes += other.write_bytes;
    }
}

/// A `[start, start+len)` slice of a [`RequestArena`] — the requests one
/// chunk record owns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RequestSpan {
    start: u32,
    len: u32,
}

impl RequestSpan {
    /// Number of requests in the span.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the span holds no requests.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// An append-only store of [`MemRequest`]s shared by all chunk records of
/// one simulation.
///
/// Engines push each chunk's requests between [`RequestArena::begin`] and
/// [`RequestArena::finish`] and keep only the returned [`RequestSpan`];
/// one arena allocation amortizes over every chunk, replacing the
/// per-chunk `Vec<MemRequest>` churn that dominated the simulator's heap
/// traffic.
#[derive(Debug, Clone, Default)]
pub struct RequestArena {
    reqs: Vec<MemRequest>,
}

impl RequestArena {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty arena with room for `cap` requests.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            reqs: Vec::with_capacity(cap),
        }
    }

    /// Number of requests stored.
    pub fn len(&self) -> usize {
        self.reqs.len()
    }

    /// Whether the arena is empty.
    pub fn is_empty(&self) -> bool {
        self.reqs.is_empty()
    }

    /// Drops all stored requests (invalidating outstanding spans) while
    /// keeping the allocation — for harnesses that reuse one arena
    /// across independent runs.
    pub fn clear(&mut self) {
        self.reqs.clear();
    }

    /// Marks the start of a chunk's requests.
    pub fn begin(&self) -> u32 {
        self.reqs.len() as u32
    }

    /// Appends one request.
    pub fn push(&mut self, req: MemRequest) {
        self.reqs.push(req);
    }

    /// Closes the span opened by [`RequestArena::begin`].
    pub fn finish(&self, start: u32) -> RequestSpan {
        RequestSpan {
            start,
            len: self.reqs.len() as u32 - start,
        }
    }

    /// The requests of `span`.
    pub fn slice(&self, span: RequestSpan) -> &[MemRequest] {
        &self.reqs[span.start as usize..(span.start + span.len) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_order_matches_figure9() {
        let ps: Vec<u8> = RequestKind::ALL.iter().map(|k| k.priority()).collect();
        assert_eq!(ps, vec![0, 1, 2, 3]);
        assert!(RequestKind::Edges.priority() < RequestKind::OutputFeatures.priority());
    }

    #[test]
    fn constructors_set_direction() {
        let r = MemRequest::read(RequestKind::Weights, 64, 256);
        assert!(!r.is_write);
        let w = MemRequest::write(RequestKind::OutputFeatures, 0, 32);
        assert!(w.is_write);
        assert_eq!(w.bytes, 32);
    }

    #[test]
    fn summary_accounts_per_kind() {
        let mut s = RequestSummary::default();
        s.record(&MemRequest::read(RequestKind::Edges, 0, 100));
        s.record(&MemRequest::read(RequestKind::Edges, 100, 28));
        s.record(&MemRequest::write(RequestKind::OutputFeatures, 0, 64));
        assert_eq!(s.count(RequestKind::Edges), 2);
        assert_eq!(s.bytes(RequestKind::Edges), 128);
        assert_eq!(s.count(RequestKind::Weights), 0);
        assert_eq!(s.total_count(), 3);
        assert_eq!(s.total_bytes(), 192);
        assert_eq!(s.write_bytes(), 64);
    }

    #[test]
    fn summary_merge_adds_histograms() {
        let mut a = RequestSummary::default();
        a.record(&MemRequest::read(RequestKind::InputFeatures, 0, 10));
        let mut b = RequestSummary::default();
        b.record(&MemRequest::read(RequestKind::InputFeatures, 0, 20));
        b.record(&MemRequest::write(RequestKind::OutputFeatures, 0, 5));
        a.merge(&b);
        assert_eq!(a.bytes(RequestKind::InputFeatures), 30);
        assert_eq!(a.total_count(), 3);
        assert_eq!(a.write_bytes(), 5);
    }

    #[test]
    fn arena_spans_round_trip() {
        let mut arena = RequestArena::new();
        let s0 = arena.begin();
        arena.push(MemRequest::read(RequestKind::Edges, 0, 32));
        arena.push(MemRequest::read(RequestKind::InputFeatures, 64, 32));
        let span0 = arena.finish(s0);
        let s1 = arena.begin();
        arena.push(MemRequest::write(RequestKind::OutputFeatures, 128, 32));
        let span1 = arena.finish(s1);
        assert_eq!(span0.len(), 2);
        assert_eq!(span1.len(), 1);
        assert_eq!(arena.slice(span0)[1].addr, 64);
        assert!(arena.slice(span1)[0].is_write);
    }

    #[test]
    fn empty_span_is_empty() {
        let arena = RequestArena::new();
        let span = arena.finish(arena.begin());
        assert!(span.is_empty());
        assert!(arena.slice(span).is_empty());
    }
}
