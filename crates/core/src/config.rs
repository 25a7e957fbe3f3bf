//! HyGCN configuration (paper Table 6 defaults).

use hygcn_graph::sampling::SamplePolicy;
use hygcn_mem::hbm::HbmConfig;
use hygcn_mem::scheduler::CoordinationMode;

/// How the Aggregation Engine's eSched distributes edge work over the
/// SIMD cores (paper Fig. 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AggregationMode {
    /// Feature elements of each vertex spread across *all* cores; cores
    /// never idle and vertex latency is minimal (HyGCN's choice).
    #[default]
    VertexDisperse,
    /// Each vertex pinned to a single SIMD core; fast vertices wait for
    /// slow ones (ablation baseline).
    VertexConcentrated,
}

/// Inter-engine pipeline mode (paper §4.5.1, Fig. 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PipelineMode {
    /// Systolic modules independent; combination starts per small vertex
    /// group as soon as its aggregation lands (lowest vertex latency).
    #[default]
    LatencyAware,
    /// Systolic modules cooperate on large assembled groups; weights are
    /// reused aggressively (lowest energy).
    EnergyAware,
    /// Ablation: no inter-engine pipeline — aggregation results spill to
    /// DRAM and the Combination Engine reloads them phase-by-phase.
    None,
}

/// Full accelerator configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct HyGcnConfig {
    /// Clock frequency in GHz (1 GHz from synthesis, §5.1).
    pub clock_ghz: f64,
    /// Number of SIMD cores in the Aggregation Engine.
    pub simd_cores: usize,
    /// SIMD lanes per core.
    pub simd_width: usize,
    /// Number of systolic modules in the Combination Engine.
    pub systolic_modules: usize,
    /// PE rows per systolic module.
    pub module_rows: usize,
    /// PE columns per systolic module.
    pub module_cols: usize,
    /// Vertices a systolic module batches per independent-mode group.
    pub module_group_vertices: usize,
    /// Input Buffer capacity in bytes (double-buffered).
    pub input_buffer_bytes: usize,
    /// Edge Buffer capacity in bytes (double-buffered).
    ///
    /// Simplified on purpose: no model reads it, and nothing is bounded
    /// by it. It enters [`Self::canon`], so the `edgebuf-kb` campaign
    /// axis changes the cache key, but no report field. The engines'
    /// per-chunk `edge_buffer_bytes` is traffic, not this capacity.
    pub edge_buffer_bytes: usize,
    /// Weight Buffer capacity in bytes (double-buffered).
    pub weight_buffer_bytes: usize,
    /// Output Buffer capacity in bytes (double-buffered).
    ///
    /// Simplified on purpose, like [`Self::edge_buffer_bytes`]: no model
    /// reads it, so it changes [`Self::canon`] and the cache key, but no
    /// report field. The engines' per-chunk `output_buffer_bytes` is
    /// traffic, not this capacity.
    pub output_buffer_bytes: usize,
    /// Aggregation Buffer capacity in bytes (ping-pong halves).
    pub aggregation_buffer_bytes: usize,
    /// Off-chip memory model.
    pub hbm: HbmConfig,
    /// Off-chip access coordination mode.
    pub coordination: CoordinationMode,
    /// Inter-engine pipeline mode.
    pub pipeline: PipelineMode,
    /// Whether window sliding+shrinking sparsity elimination is enabled.
    pub sparsity_elimination: bool,
    /// SIMD work-distribution mode.
    pub aggregation_mode: AggregationMode,
    /// Seed for the runtime Sampler.
    pub sample_seed: u64,
    /// When set, overrides the model's sampling policy — used by the
    /// sampling-factor sweep of Fig. 18(a–c).
    pub sample_policy_override: Option<SamplePolicy>,
    /// Record a per-step [`crate::timeline::ChunkTrace`] in the report.
    pub record_timeline: bool,
    /// Evaluation fidelity in `(0, 1]`. `1.0` (the default) is a full-
    /// fidelity run. Successive-halving search rungs evaluate surviving
    /// design points with `fidelity < 1.0`: the campaign executor scales
    /// the workload down by this factor (a dataset at `scale * fidelity`)
    /// so early rungs are cheap. The simulator itself ignores the field;
    /// it exists so a low-fidelity evaluation carries a *distinct*
    /// canonical serialization — and therefore a distinct campaign cache
    /// key — letting every rung's results persist in (and resume from)
    /// the same `ResultStore` as full campaigns.
    pub fidelity: f64,
}

impl Default for HyGcnConfig {
    /// The Table 6 configuration: 1 GHz, 32 SIMD16 cores, 8 systolic
    /// modules of 4x128 PEs, 128 KB Input / 2 MB Edge / 2 MB Weight /
    /// 4 MB Output / 16 MB Aggregation buffers, HBM 1.0 at 256 GB/s,
    /// all optimizations on.
    fn default() -> Self {
        Self {
            clock_ghz: 1.0,
            simd_cores: 32,
            simd_width: 16,
            systolic_modules: 8,
            module_rows: 4,
            module_cols: 128,
            module_group_vertices: 16,
            input_buffer_bytes: 128 << 10,
            edge_buffer_bytes: 2 << 20,
            weight_buffer_bytes: 2 << 20,
            output_buffer_bytes: 4 << 20,
            aggregation_buffer_bytes: 16 << 20,
            hbm: HbmConfig::hbm1(),
            coordination: CoordinationMode::PriorityBatched,
            pipeline: PipelineMode::LatencyAware,
            sparsity_elimination: true,
            aggregation_mode: AggregationMode::VertexDisperse,
            sample_seed: 0x4759,
            sample_policy_override: None,
            record_timeline: false,
            fidelity: 1.0,
        }
    }
}

impl HyGcnConfig {
    /// Total SIMD lanes (`cores x width`).
    pub fn simd_lanes(&self) -> usize {
        self.simd_cores * self.simd_width
    }

    /// PEs per systolic module.
    pub fn module_pes(&self) -> usize {
        self.module_rows * self.module_cols
    }

    /// Total PEs in the Combination Engine.
    pub fn total_pes(&self) -> usize {
        self.systolic_modules * self.module_pes()
    }

    /// Source-feature rows that fit one working half of the Input Buffer —
    /// the window height for features of `feature_len`.
    pub fn window_height(&self, feature_len: usize) -> usize {
        ((self.input_buffer_bytes / 2) / (feature_len.max(1) * 4)).max(1)
    }

    /// Destination vertices whose `feature_len`-wide partial results fit
    /// one ping-pong half of the Aggregation Buffer — the chunk width.
    pub fn chunk_width(&self, feature_len: usize) -> usize {
        ((self.aggregation_buffer_bytes / 2) / (feature_len.max(1) * 4)).max(1)
    }

    /// Cycle count to seconds at the configured clock.
    pub fn cycles_to_seconds(&self, cycles: u64) -> f64 {
        cycles as f64 / (self.clock_ghz * 1e9)
    }

    /// Canonical, stable, human-readable serialization of every field —
    /// `key=value` pairs joined with `;`, in declaration order, with
    /// nested [`HbmConfig`] fields flattened under `hbm.`.
    ///
    /// This string — and therefore [`Self::stable_hash`] — is a pure
    /// function of the configuration values: floats print in shortest
    /// round-trip (`{:?}`) form and enums in their `Debug` form, so equal
    /// configs serialize identically **across processes and runs**. The
    /// DSE campaign store persists hashes of this form as its cache key.
    /// Both structs are destructured exhaustively (no `..`), so adding a
    /// field without extending this listing is a compile error, not a
    /// silent cache-key collision.
    pub fn canon(&self) -> String {
        let HyGcnConfig {
            clock_ghz,
            simd_cores,
            simd_width,
            systolic_modules,
            module_rows,
            module_cols,
            module_group_vertices,
            input_buffer_bytes,
            edge_buffer_bytes,
            weight_buffer_bytes,
            output_buffer_bytes,
            aggregation_buffer_bytes,
            hbm,
            coordination,
            pipeline,
            sparsity_elimination,
            aggregation_mode,
            sample_seed,
            sample_policy_override,
            record_timeline,
            fidelity,
        } = self;
        let HbmConfig {
            channels,
            banks,
            row_bytes,
            burst_bytes,
            t_burst,
            t_row,
            t_cas,
            mapping,
            controller,
        } = hbm;
        format!(
            "clock_ghz={clock_ghz:?};simd_cores={simd_cores};simd_width={simd_width};\
             systolic_modules={systolic_modules};module_rows={module_rows};\
             module_cols={module_cols};module_group_vertices={module_group_vertices};\
             input_buffer_bytes={input_buffer_bytes};edge_buffer_bytes={edge_buffer_bytes};\
             weight_buffer_bytes={weight_buffer_bytes};output_buffer_bytes={output_buffer_bytes};\
             aggregation_buffer_bytes={aggregation_buffer_bytes};\
             hbm.channels={channels};hbm.banks={banks};hbm.row_bytes={row_bytes};\
             hbm.burst_bytes={burst_bytes};hbm.t_burst={t_burst};hbm.t_row={t_row};\
             hbm.t_cas={t_cas};hbm.mapping={mapping:?};hbm.controller={controller:?};\
             coordination={coordination:?};pipeline={pipeline:?};\
             sparsity_elimination={sparsity_elimination};aggregation_mode={aggregation_mode:?};\
             sample_seed={sample_seed};sample_policy_override={sample_policy_override:?};\
             record_timeline={record_timeline};fidelity={fidelity:?}"
        )
    }

    /// The configuration's *decode class*: a copy with the six fields
    /// that bind after address decode reset to their defaults — the
    /// clock, timeline recording, and the HBM timing parameters and
    /// controller policy (`hbm.{t_burst, t_row, t_cas, controller}`).
    /// Every other field shapes the DRAM request stream or its decode,
    /// so two configs of one class share one span program (see
    /// [`crate::sim`]). Destructured exhaustively like [`Self::canon`],
    /// so a new field cannot compile until it is classed here.
    pub fn decode_class(&self) -> Self {
        let HyGcnConfig {
            clock_ghz: _,
            simd_cores,
            simd_width,
            systolic_modules,
            module_rows,
            module_cols,
            module_group_vertices,
            input_buffer_bytes,
            edge_buffer_bytes,
            weight_buffer_bytes,
            output_buffer_bytes,
            aggregation_buffer_bytes,
            hbm,
            coordination,
            pipeline,
            sparsity_elimination,
            aggregation_mode,
            sample_seed,
            sample_policy_override,
            record_timeline: _,
            fidelity,
        } = self.clone();
        let HbmConfig {
            channels,
            banks,
            row_bytes,
            burst_bytes,
            t_burst: _,
            t_row: _,
            t_cas: _,
            mapping,
            controller: _,
        } = hbm;
        let timing = Self::default();
        Self {
            clock_ghz: timing.clock_ghz,
            simd_cores,
            simd_width,
            systolic_modules,
            module_rows,
            module_cols,
            module_group_vertices,
            input_buffer_bytes,
            edge_buffer_bytes,
            weight_buffer_bytes,
            output_buffer_bytes,
            aggregation_buffer_bytes,
            hbm: HbmConfig {
                channels,
                banks,
                row_bytes,
                burst_bytes,
                t_burst: timing.hbm.t_burst,
                t_row: timing.hbm.t_row,
                t_cas: timing.hbm.t_cas,
                mapping,
                controller: timing.hbm.controller,
            },
            coordination,
            pipeline,
            sparsity_elimination,
            aggregation_mode,
            sample_seed,
            sample_policy_override,
            record_timeline: timing.record_timeline,
            fidelity,
        }
    }

    /// The configuration's *replay class*: its [`Self::decode_class`]
    /// with the controller policy kept. Configs of one class differ only
    /// in the clock, timeline recording and the HBM timing
    /// (`hbm.{t_burst, t_row, t_cas}`), so they replay one span program
    /// in one service order: FR-FCFS's schedule is memoized under this
    /// key. ([`crate::sim::Simulator::simulate_lanes`] shares lanes
    /// wider, across the replay classes of one decode class whose
    /// service orders agree.)
    pub fn replay_class(&self) -> Self {
        let mut class = self.decode_class();
        class.hbm.controller = self.hbm.controller;
        class
    }

    /// The largest engine dimension a config may set: SIMD cores, lanes
    /// per core, systolic modules, PE rows and columns per module, and
    /// vertices per module group, 2^16 each (Table 6 and Fig. 18 use at
    /// most 32 x 32 x 128). It keeps [`Self::simd_lanes`] at most 2^32,
    /// [`Self::total_pes`] at most 2^48 and a vertex latency's group
    /// assembly term (group vertices times step cycles) far from
    /// overflowing `u64`.
    pub const MAX_ENGINE_DIM: usize = 1 << 16;

    /// Validates the configuration's internal consistency — the HBM
    /// geometry ([`HbmConfig::validate`]), an engine geometry of nonzero
    /// dimensions of at most [`Self::MAX_ENGINE_DIM`], the clock and the
    /// fidelity range. Design-space enumeration calls this per point so
    /// that a campaign axis producing an impossible combination (for
    /// example `burst-bytes` larger than `row-bytes`) fails fast with a
    /// spec error instead of panicking mid-campaign.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        self.hbm.validate().map_err(|e| format!("hbm: {e}"))?;
        for (field, value, least) in [
            ("simd_cores", self.simd_cores, 1),
            ("simd_width", self.simd_width, 1),
            ("systolic_modules", self.systolic_modules, 1),
            ("module_rows", self.module_rows, 1),
            ("module_cols", self.module_cols, 1),
            ("module_group_vertices", self.module_group_vertices, 0),
        ] {
            if value < least {
                return Err(format!("{field} must be at least {least}"));
            }
            if value > Self::MAX_ENGINE_DIM {
                return Err(format!(
                    "{field} {value} exceeds the bound of {} (2^16)",
                    Self::MAX_ENGINE_DIM
                ));
            }
        }
        if !(self.clock_ghz.is_finite() && self.clock_ghz > 0.0) {
            return Err(format!(
                "clock_ghz {:?} must be a positive finite frequency",
                self.clock_ghz
            ));
        }
        if !(self.fidelity > 0.0 && self.fidelity <= 1.0) {
            return Err(format!("fidelity {:?} outside (0, 1]", self.fidelity));
        }
        Ok(())
    }

    /// A 64-bit FNV-1a hash of [`Self::canon`] — the configuration half
    /// of the DSE campaign cache key, stable across processes.
    pub fn stable_hash(&self) -> u64 {
        hygcn_graph::hashing::fnv1a_str(&self.canon())
    }

    /// The no-optimization ablation used as an internal baseline: FCFS
    /// memory handling, no sparsity elimination, no pipeline.
    pub fn ablated() -> Self {
        Self {
            hbm: HbmConfig::hbm1_uncoordinated(),
            coordination: CoordinationMode::Fcfs,
            pipeline: PipelineMode::None,
            sparsity_elimination: false,
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table6_defaults() {
        let c = HyGcnConfig::default();
        assert_eq!(c.simd_lanes(), 512);
        assert_eq!(c.total_pes(), 4096);
        assert_eq!(c.aggregation_buffer_bytes, 16 << 20);
        assert_eq!(c.hbm.channels, 8);
    }

    #[test]
    fn window_height_scales_inversely_with_feature_len() {
        let c = HyGcnConfig::default();
        // 64 KB working half / (1433 * 4 B) = 11 rows for Cora.
        assert_eq!(c.window_height(1433), 11);
        assert!(c.window_height(136) > c.window_height(1433));
        assert_eq!(c.window_height(0), c.window_height(1));
    }

    #[test]
    fn chunk_width_uses_half_buffer() {
        let c = HyGcnConfig::default();
        assert_eq!(c.chunk_width(128), (8 << 20) / (128 * 4));
    }

    #[test]
    fn cycle_conversion_at_1ghz() {
        let c = HyGcnConfig::default();
        assert!((c.cycles_to_seconds(1_000_000_000) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ablated_turns_everything_off() {
        let a = HyGcnConfig::ablated();
        assert!(!a.sparsity_elimination);
        assert_eq!(a.pipeline, PipelineMode::None);
    }

    #[test]
    fn canon_covers_every_field() {
        // 20 scalar fields on HyGcnConfig plus 9 flattened HbmConfig
        // fields. Coverage itself is enforced at compile time by the
        // exhaustive destructuring inside `canon()`; this pins the
        // key=value;... shape the store hash is computed over.
        let canon = HyGcnConfig::default().canon();
        assert_eq!(canon.split(';').count(), 29, "{canon}");
        for pair in canon.split(';') {
            assert!(pair.contains('='), "malformed pair '{pair}'");
        }
    }

    #[test]
    fn stable_hash_is_deterministic_and_discriminating() {
        let base = HyGcnConfig::default();
        assert_eq!(base.stable_hash(), HyGcnConfig::default().stable_hash());
        let variants = [
            HyGcnConfig {
                aggregation_buffer_bytes: 8 << 20,
                ..base.clone()
            },
            HyGcnConfig {
                pipeline: PipelineMode::EnergyAware,
                ..base.clone()
            },
            HyGcnConfig {
                sparsity_elimination: false,
                ..base.clone()
            },
            HyGcnConfig {
                hbm: HbmConfig::hbm1_uncoordinated(),
                ..base.clone()
            },
            HyGcnConfig {
                sample_policy_override: Some(SamplePolicy::Factor(4)),
                ..base.clone()
            },
        ];
        for v in &variants {
            assert_ne!(base.stable_hash(), v.stable_hash(), "{}", v.canon());
        }
    }

    #[test]
    fn validate_rejects_bad_timing_knobs() {
        // The knobs the clock-ghz / t-row campaign axes set must also be
        // guarded at the config level, so a bad *base* config fails at
        // enumeration exactly like a bad axis value.
        for bad_clock in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let cfg = HyGcnConfig {
                clock_ghz: bad_clock,
                ..HyGcnConfig::default()
            };
            assert!(cfg.validate().unwrap_err().contains("clock"), "{bad_clock}");
        }
        let zero_t_row = HyGcnConfig {
            hbm: HbmConfig {
                t_row: 0,
                ..HbmConfig::hbm1()
            },
            ..HyGcnConfig::default()
        };
        assert!(zero_t_row.validate().unwrap_err().contains("t_row"));
    }

    #[test]
    fn validate_rejects_impossible_geometry_and_fidelity() {
        assert_eq!(HyGcnConfig::default().validate(), Ok(()));
        let burst_over_row = HyGcnConfig {
            hbm: HbmConfig {
                burst_bytes: 4096,
                ..HbmConfig::hbm1()
            },
            ..HyGcnConfig::default()
        };
        assert!(burst_over_row.validate().unwrap_err().contains("burst"));
        let non_pow2 = HyGcnConfig {
            hbm: HbmConfig {
                channels: 6,
                ..HbmConfig::hbm1()
            },
            ..HyGcnConfig::default()
        };
        assert!(non_pow2.validate().is_err());
        let bound = HyGcnConfig::MAX_ENGINE_DIM;
        let at_bound = HyGcnConfig {
            simd_cores: bound,
            module_group_vertices: bound,
            ..HyGcnConfig::default()
        };
        assert_eq!(at_bound.validate(), Ok(()));
        for past in [bound + 1, usize::MAX] {
            let cfg = HyGcnConfig {
                module_cols: past,
                ..HyGcnConfig::default()
            };
            assert!(cfg.validate().unwrap_err().contains("module_cols"));
        }
        for bad in [0.0, -0.5, 1.5] {
            let cfg = HyGcnConfig {
                fidelity: bad,
                ..HyGcnConfig::default()
            };
            assert!(cfg.validate().unwrap_err().contains("fidelity"));
        }
    }

    #[test]
    fn decode_class_forgets_exactly_the_timing_fields() {
        use hygcn_mem::hbm::ControllerPolicy;
        let base = HyGcnConfig::default();
        assert_eq!(base.decode_class(), base);
        let timing = HyGcnConfig {
            clock_ghz: 2.0,
            record_timeline: true,
            hbm: HbmConfig {
                t_burst: 2,
                t_row: 56,
                t_cas: 7,
                controller: ControllerPolicy::FrFcfs { window: 32 },
                ..HbmConfig::hbm1()
            },
            ..base.clone()
        };
        assert_eq!(timing.decode_class(), base);
        let stream = HyGcnConfig {
            hbm: HbmConfig {
                row_bytes: 1024,
                ..HbmConfig::hbm1()
            },
            ..base.clone()
        };
        assert_ne!(stream.decode_class(), base.decode_class());
    }

    #[test]
    fn replay_class_keeps_the_controller_and_forgets_the_timing() {
        use hygcn_mem::hbm::ControllerPolicy;
        let base = HyGcnConfig::default();
        assert_eq!(base.replay_class(), base);
        let frfcfs = HyGcnConfig {
            hbm: HbmConfig {
                controller: ControllerPolicy::FrFcfs { window: 32 },
                ..HbmConfig::hbm1()
            },
            ..base.clone()
        };
        let retimed = HyGcnConfig {
            clock_ghz: 2.0,
            record_timeline: true,
            hbm: HbmConfig {
                t_burst: 2,
                t_row: 56,
                t_cas: 7,
                ..frfcfs.hbm
            },
            ..base.clone()
        };
        assert_eq!(retimed.replay_class(), frfcfs);
        assert_ne!(frfcfs.replay_class(), base.replay_class());
        // One decode class holds both controllers' replay classes.
        assert_eq!(frfcfs.replay_class().decode_class(), base.decode_class());
    }

    #[test]
    fn fidelity_discriminates_the_hash() {
        let base = HyGcnConfig::default();
        let half = HyGcnConfig {
            fidelity: 0.5,
            ..base.clone()
        };
        assert_ne!(base.stable_hash(), half.stable_hash());
        assert!(half.canon().ends_with("fidelity=0.5"));
    }

    #[test]
    fn stable_hash_pins_cross_process_value() {
        // The literal value pins the canonical serialization across
        // processes and releases: a persisted campaign store must remain
        // readable by future builds. Update it ONLY on an intentional
        // cache-format break (which invalidates stored campaign results).
        // Last break: the `fidelity` field joined the key (successive-
        // halving rung evaluations need distinct cache identities).
        let canon = HyGcnConfig::default().canon();
        assert_eq!(
            HyGcnConfig::default().stable_hash(),
            0x8ffd_4b5d_b7f4_c6e6,
            "canonical serialization drifted: {canon}"
        );
        assert!(canon.starts_with("clock_ghz=1.0;simd_cores=32;"));
        assert!(canon.ends_with("fidelity=1.0"));
    }
}
