//! The four benchmark models of Table 5 and their layer configurations.

use std::sync::OnceLock;

use hygcn_graph::sampling::SamplePolicy;

use crate::aggregate::{Aggregator, SelfTerm};
use crate::combine::Combine;
use crate::GcnError;

/// GIN's learnable ε, fixed for reproducibility (inference only).
pub const GIN_EPSILON: f32 = 0.1;

/// Number of DiffPool clusters — the output width of `GCN_pool`
/// (`|a|–128` in Table 5).
pub const DIFFPOOL_CLUSTERS: usize = 128;

/// Hidden width of every Combine MLP in Table 5.
pub const HIDDEN_DIM: usize = 128;

/// Which of the four benchmark models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// GCN (Kipf & Welling), Eq. 4.
    Gcn,
    /// GraphSage with 25-neighbor uniform sampling and Max aggregation,
    /// Eq. 5 / Table 5.
    GraphSage,
    /// GINConv with `(1+ε)` self term and a two-layer MLP, Eq. 6.
    Gin,
    /// DiffPool: two internal GCNs (pool + embedding) and the coarsening
    /// matrix products, Eq. 8.
    DiffPool,
}

impl ModelKind {
    /// All four, in paper order.
    pub const ALL: [ModelKind; 4] = [
        ModelKind::Gcn,
        ModelKind::GraphSage,
        ModelKind::Gin,
        ModelKind::DiffPool,
    ];

    /// Paper abbreviation (GCN / GSC / GIN / DFP).
    pub fn abbrev(&self) -> &'static str {
        match self {
            ModelKind::Gcn => "GCN",
            ModelKind::GraphSage => "GSC",
            ModelKind::Gin => "GIN",
            ModelKind::DiffPool => "DFP",
        }
    }

    /// Resolves a kind from its paper abbreviation, case-insensitively
    /// (the inverse of [`Self::abbrev`]); `None` for unknown names.
    pub fn from_abbrev(name: &str) -> Option<Self> {
        Self::ALL
            .into_iter()
            .find(|m| m.abbrev().eq_ignore_ascii_case(name))
    }

    /// Phase order on CPU/GPU frameworks (§5.2): every model lowers
    /// Combination first — shrinking the feature length before the costly
    /// Aggregation — except GINConv, whose formulation aggregates the raw
    /// features first.
    pub fn phase_order(&self) -> PhaseOrder {
        match self {
            ModelKind::Gin => PhaseOrder::AggregateFirst,
            _ => PhaseOrder::CombineFirst,
        }
    }

    /// Neighbor sampling policy (Table 5: GraphSage samples 25).
    pub fn sample_policy(&self) -> SamplePolicy {
        match self {
            ModelKind::GraphSage => SamplePolicy::MaxNeighbors(25),
            _ => SamplePolicy::All,
        }
    }

    /// Element-wise aggregator (Table 5).
    pub fn aggregator(&self) -> Aggregator {
        match self {
            ModelKind::Gcn => Aggregator::NormalizedAdd,
            ModelKind::GraphSage => Aggregator::Max,
            ModelKind::Gin => Aggregator::Add,
            ModelKind::DiffPool => Aggregator::Min,
        }
    }

    /// Self-feature treatment.
    pub fn self_term(&self) -> SelfTerm {
        match self {
            ModelKind::Gcn | ModelKind::GraphSage => SelfTerm::Include,
            ModelKind::Gin => SelfTerm::Weighted(1.0 + GIN_EPSILON),
            ModelKind::DiffPool => SelfTerm::Include,
        }
    }

    /// Combine MLP dimension chain for input feature length `f`.
    pub fn mlp_dims(&self, feature_len: usize) -> Vec<usize> {
        match self {
            ModelKind::Gin => vec![feature_len, HIDDEN_DIM, HIDDEN_DIM],
            _ => vec![feature_len, HIDDEN_DIM],
        }
    }

    /// DiffPool's pool MLP dimension chain (`GCN_pool`, `f` to
    /// [`DIFFPOOL_CLUSTERS`]); `None` for the other models.
    pub(crate) fn pool_dims(&self, feature_len: usize) -> Option<Vec<usize>> {
        match self {
            ModelKind::DiffPool => Some(vec![feature_len, DIFFPOOL_CLUSTERS]),
            _ => None,
        }
    }
}

impl std::fmt::Display for ModelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.abbrev())
    }
}

/// Whether Combination runs before or after Aggregation within a layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseOrder {
    /// Transform features first (shrinks the aggregation width to 128).
    CombineFirst,
    /// Aggregate raw features first (GINConv).
    AggregateFirst,
}

/// A fully-instantiated benchmark model: configuration plus shared MLP
/// weights.
///
/// The weights are reproducible from `(kind, feature_len, seed)` and are
/// drawn on first read ([`GcnModel::combine`], [`GcnModel::pool_combine`]):
/// the timing backends read only the MLP dimensions, so a model they
/// evaluate, or one whose point fails validation, never allocates its
/// `feature_len x 128` weights. Equality compares that triple.
#[derive(Debug, Clone)]
pub struct GcnModel {
    kind: ModelKind,
    feature_len: usize,
    seed: u64,
    /// The (embedding) Combine stage, drawn from `seed`.
    combine: OnceLock<Combine>,
    /// DiffPool's second internal GCN (`GCN_pool`), producing the
    /// assignment matrix, drawn from `seed + 101`; never drawn for the
    /// other models.
    pool_combine: OnceLock<Combine>,
}

impl PartialEq for GcnModel {
    fn eq(&self, other: &Self) -> bool {
        (self.kind, self.feature_len, self.seed) == (other.kind, other.feature_len, other.seed)
    }
}

impl GcnModel {
    /// Instantiates `kind` for graphs with `feature_len`-long features,
    /// with reproducible random weights drawn on first use.
    ///
    /// # Errors
    ///
    /// Returns [`GcnError::InvalidModel`] if `feature_len == 0`.
    pub fn new(kind: ModelKind, feature_len: usize, seed: u64) -> Result<Self, GcnError> {
        if feature_len == 0 {
            return Err(GcnError::InvalidModel(
                "feature length must be nonzero".into(),
            ));
        }
        Ok(Self {
            kind,
            feature_len,
            seed,
            combine: OnceLock::new(),
            pool_combine: OnceLock::new(),
        })
    }

    /// Which model this is.
    pub fn kind(&self) -> ModelKind {
        self.kind
    }

    /// Expected input feature length.
    pub fn feature_len(&self) -> usize {
        self.feature_len
    }

    /// Output feature length after the layer.
    pub fn out_len(&self) -> usize {
        let dims = self.kind.mlp_dims(self.feature_len);
        dims[dims.len() - 1]
    }

    /// The (embedding) Combine stage, drawn on the first call.
    pub fn combine(&self) -> &Combine {
        self.combine
            .get_or_init(|| draw(&self.kind.mlp_dims(self.feature_len), self.seed))
    }

    /// DiffPool's pool Combine stage, if any, drawn on the first call.
    pub fn pool_combine(&self) -> Option<&Combine> {
        let dims = self.kind.pool_dims(self.feature_len)?;
        Some(
            self.pool_combine
                .get_or_init(|| draw(&dims, self.seed.wrapping_add(101))),
        )
    }

    /// Multiply-accumulates per vertex across all Combine stages, from
    /// the MLP dimensions alone (what [`Combine::macs_per_vertex`] counts
    /// on the drawn weights).
    pub fn combine_macs_per_vertex(&self) -> usize {
        self.stage_dims().map(|dims| mlp_macs(&dims)).sum()
    }

    /// Bytes of shared parameters across all Combine stages, from the
    /// MLP dimensions alone (what [`Combine::param_bytes`] counts on the
    /// drawn weights).
    pub fn param_bytes(&self) -> usize {
        self.stage_dims().map(|dims| mlp_param_bytes(&dims)).sum()
    }

    /// The dimension chains of the Combine stages: the embedding MLP,
    /// then DiffPool's pool MLP.
    fn stage_dims(&self) -> impl Iterator<Item = Vec<usize>> {
        let f = self.feature_len;
        std::iter::once(self.kind.mlp_dims(f)).chain(self.kind.pool_dims(f))
    }
}

/// A reproducible random Combine through `dims`, which names at least
/// two nonzero dimensions.
fn draw(dims: &[usize], seed: u64) -> Combine {
    // lint: allow(unwrap) -- mlp_dims and pool_dims name two or more dims, the only way Combine::random fails
    Combine::random(dims, seed).expect("an MLP through two or more dims")
}

/// MACs per forward pass of an MLP through `dims` (`in x out` per
/// layer).
fn mlp_macs(dims: &[usize]) -> usize {
    dims.windows(2).map(|d| d[0] * d[1]).sum()
}

/// Weight and bias bytes of an MLP through `dims`, at 4 B per element.
fn mlp_param_bytes(dims: &[usize]) -> usize {
    dims.windows(2).map(|d| (d[0] * d[1] + d[1]) * 4).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table5_configurations() {
        assert_eq!(ModelKind::Gcn.aggregator(), Aggregator::NormalizedAdd);
        assert_eq!(ModelKind::GraphSage.aggregator(), Aggregator::Max);
        assert_eq!(ModelKind::Gin.aggregator(), Aggregator::Add);
        assert_eq!(ModelKind::DiffPool.aggregator(), Aggregator::Min);

        assert_eq!(
            ModelKind::GraphSage.sample_policy(),
            SamplePolicy::MaxNeighbors(25)
        );
        assert_eq!(ModelKind::Gcn.sample_policy(), SamplePolicy::All);

        assert_eq!(ModelKind::Gin.mlp_dims(300), vec![300, 128, 128]);
        assert_eq!(ModelKind::Gcn.mlp_dims(300), vec![300, 128]);
    }

    #[test]
    fn gin_aggregates_first_others_combine_first() {
        assert_eq!(ModelKind::Gin.phase_order(), PhaseOrder::AggregateFirst);
        for k in [ModelKind::Gcn, ModelKind::GraphSage, ModelKind::DiffPool] {
            assert_eq!(k.phase_order(), PhaseOrder::CombineFirst);
        }
    }

    #[test]
    fn model_instantiation() {
        let m = GcnModel::new(ModelKind::Gcn, 64, 1).unwrap();
        assert_eq!(m.feature_len(), 64);
        assert_eq!(m.out_len(), 128);
        assert!(m.pool_combine().is_none());
    }

    #[test]
    fn diffpool_has_two_mlps() {
        let m = GcnModel::new(ModelKind::DiffPool, 64, 1).unwrap();
        assert!(m.pool_combine().is_some());
        assert_eq!(m.pool_combine().unwrap().out_dim(), DIFFPOOL_CLUSTERS);
        assert!(m.param_bytes() > m.combine().param_bytes());
    }

    #[test]
    fn zero_feature_len_rejected() {
        assert!(GcnModel::new(ModelKind::Gcn, 0, 1).is_err());
    }

    #[test]
    fn abbrevs() {
        let abbrevs: Vec<_> = ModelKind::ALL.iter().map(|m| m.abbrev()).collect();
        assert_eq!(abbrevs, vec!["GCN", "GSC", "GIN", "DFP"]);
    }

    #[test]
    fn self_terms() {
        assert_eq!(ModelKind::Gcn.self_term(), SelfTerm::Include);
        match ModelKind::Gin.self_term() {
            SelfTerm::Weighted(w) => assert!((w - 1.1).abs() < 1e-6),
            other => panic!("unexpected {other:?}"),
        }
    }
}
