//! Simulation result record.

use hygcn_mem::{ChannelStats, MemStats};

use crate::energy::EnergyBreakdown;
use crate::timeline::ChunkTrace;

/// Everything a simulated run produced; the benchmark harness derives the
/// paper's figures from these fields.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SimReport {
    /// End-to-end cycles at the accelerator clock.
    pub cycles: u64,
    /// End-to-end time in seconds.
    pub time_s: f64,
    /// Aggregation Engine busy cycles (compute only).
    pub agg_compute_cycles: u64,
    /// Combination Engine busy cycles (compute only).
    pub comb_compute_cycles: u64,
    /// Off-chip memory statistics.
    pub mem: MemStats,
    /// Per-channel decomposition of the timing walk, in channel order —
    /// the observability surface the per-channel HBM model exposes. Both
    /// simulation paths fill it identically (the counters fold by
    /// summation), so it participates in the bit-identity contract.
    pub mem_channels: Vec<ChannelStats>,
    /// Achieved fraction of peak HBM bandwidth, in `[0, 1]`.
    pub bandwidth_utilization: f64,
    /// Dynamic energy per component.
    pub energy: EnergyBreakdown,
    /// Average per-vertex latency in cycles (aggregation start to
    /// combination finish — the Fig. 16(c)/18(g) metric).
    pub avg_vertex_latency_cycles: f64,
    /// Fraction of redundant source-feature row loads eliminated by
    /// window sliding+shrinking (0 when disabled).
    pub sparsity_reduction: f64,
    /// Number of destination chunks processed.
    pub chunks: usize,
    /// SIMD element operations executed.
    pub elem_ops: u64,
    /// Systolic MACs executed.
    pub macs: u64,
    /// Per-step timeline (only when the config enables recording).
    pub timeline: Vec<ChunkTrace>,
    /// Provenance marker: which [`SimBackend`] produced this report.
    /// Empty for the cycle-accurate simulator and its seed reference —
    /// the two golden paths whose serialized form predates the backend
    /// abstraction and must stay bit-identical — and a backend id
    /// (`"analytical"`, `"cpu"`, `"gpu"`) for every model that fills
    /// only a comparable subset of the fields. [`Self::to_json`] emits
    /// the marker only when non-empty, so golden snapshots of the
    /// cycle-accurate path are unaffected.
    ///
    /// [`SimBackend`]: crate::backend::SimBackend
    pub provenance: &'static str,
    /// Backend-specific named measurements that no shared field holds
    /// (`cpu-trace` stores Table 2's per-op DRAM traffic, MPKI and sync
    /// ratio here). The producing backend owns the names. Empty for
    /// every other backend, and [`Self::to_json`] emits the list only
    /// when non-empty, so their serialized form is unchanged.
    pub metrics: Vec<(&'static str, f64)>,
}

impl SimReport {
    /// Total dynamic energy in joules.
    pub fn energy_j(&self) -> f64 {
        self.energy.total_j()
    }

    /// Total DRAM traffic in bytes.
    pub fn dram_bytes(&self) -> u64 {
        self.mem.total_bytes()
    }

    /// Serializes the report as stable, line-per-field JSON.
    ///
    /// Every scalar sits on its own line so snapshot mismatches diff at
    /// field granularity; floats print in shortest-round-trip form, so
    /// the text is exactly as bit-stable as the report itself. The
    /// golden-snapshot tests persist this form under `tests/golden/`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n");
        let mut field = |key: &str, value: String| {
            out.push_str(&format!("  \"{key}\": {value},\n"));
        };
        field("cycles", self.cycles.to_string());
        field("time_s", format!("{:?}", self.time_s));
        field("agg_compute_cycles", self.agg_compute_cycles.to_string());
        field("comb_compute_cycles", self.comb_compute_cycles.to_string());
        field("mem_bytes_read", self.mem.bytes_read.to_string());
        field("mem_bytes_written", self.mem.bytes_written.to_string());
        field("mem_row_hits", self.mem.row_hits.to_string());
        field("mem_row_misses", self.mem.row_misses.to_string());
        field("mem_requests", self.mem.requests.to_string());
        field("mem_last_completion", self.mem.last_completion.to_string());
        field(
            "bandwidth_utilization",
            format!("{:?}", self.bandwidth_utilization),
        );
        field(
            "energy_aggregation_j",
            format!("{:?}", self.energy.aggregation_j),
        );
        field(
            "energy_combination_j",
            format!("{:?}", self.energy.combination_j),
        );
        field(
            "energy_coordinator_j",
            format!("{:?}", self.energy.coordinator_j),
        );
        field("energy_hbm_j", format!("{:?}", self.energy.hbm_j));
        field("energy_static_j", format!("{:?}", self.energy.static_j));
        field(
            "avg_vertex_latency_cycles",
            format!("{:?}", self.avg_vertex_latency_cycles),
        );
        field(
            "sparsity_reduction",
            format!("{:?}", self.sparsity_reduction),
        );
        field("chunks", self.chunks.to_string());
        field("elem_ops", self.elem_ops.to_string());
        field("macs", self.macs.to_string());
        field("timeline_steps", self.timeline.len().to_string());
        if !self.provenance.is_empty() {
            field("backend", format!("\"{}\"", self.provenance));
        }
        for &(name, value) in &self.metrics {
            field(name, format!("{value:?}"));
        }
        for (c, ch) in self.mem_channels.iter().enumerate() {
            field(
                &format!("channel{c}"),
                format!(
                    "[{}, {}, {}, {}, {}]",
                    ch.row_hits, ch.row_misses, ch.bursts, ch.busy_cycles, ch.last_completion
                ),
            );
        }
        field("channels", self.mem_channels.len().to_string());
        // Swap the final comma for the closing brace.
        out.truncate(out.len() - 2);
        out.push_str("\n}\n");
        out
    }

    /// The [`Self::to_json`] form compacted onto a single line — the
    /// shape the DSE campaign store appends to `campaign.jsonl` (one
    /// record per line). Derived mechanically from `to_json()` so the two
    /// forms can never disagree on content: compacting the pretty form of
    /// a report always yields its stored form bit-for-bit.
    pub fn to_json_compact(&self) -> String {
        compact_json(&self.to_json())
    }
}

/// Collapses the line-per-field `to_json()` layout (`{\n  "k": v,\n...}`)
/// onto one line by dropping newlines and the two-space indent.
pub fn compact_json(pretty: &str) -> String {
    let mut out = String::with_capacity(pretty.len());
    for line in pretty.lines() {
        let trimmed = line.trim_start();
        if !trimmed.is_empty() {
            out.push_str(trimmed);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_metrics() {
        let r = SimReport {
            time_s: 0.002,
            mem: MemStats {
                bytes_read: 100,
                bytes_written: 50,
                ..Default::default()
            },
            ..Default::default()
        };
        assert_eq!(r.dram_bytes(), 150);
    }

    #[test]
    fn json_is_line_per_field_and_stable() {
        let mut r = SimReport {
            cycles: 42,
            time_s: 4.2e-8,
            ..Default::default()
        };
        r.mem_channels.push(ChannelStats {
            row_hits: 1,
            row_misses: 2,
            bursts: 3,
            busy_cycles: 3,
            last_completion: 40,
        });
        let json = r.to_json();
        assert_eq!(json, r.to_json(), "serialization must be deterministic");
        assert!(json.starts_with("{\n"));
        assert!(json.ends_with("\n}\n"));
        assert!(json.contains("\"cycles\": 42,"));
        assert!(json.contains("\"time_s\": 4.2e-8,"));
        assert!(json.contains("\"channel0\": [1, 2, 3, 3, 40],"));
        assert!(json.contains("\"channels\": 1"));
        // One field per line: every content line carries exactly one key.
        for line in json.lines().filter(|l| l.contains(':')) {
            assert_eq!(line.matches("\": ").count(), 1, "line {line}");
        }
    }

    #[test]
    fn provenance_marker_is_emitted_only_when_set() {
        let golden = SimReport::default();
        assert!(!golden.to_json().contains("\"backend\""));
        let marked = SimReport {
            provenance: "analytical",
            ..SimReport::default()
        };
        let json = marked.to_json();
        assert!(json.contains("\"backend\": \"analytical\","));
        // The two forms differ only by the marker line.
        let without: Vec<&str> = json
            .lines()
            .filter(|l| !l.contains("\"backend\""))
            .collect();
        assert_eq!(golden.to_json().lines().collect::<Vec<_>>(), without);

        // Named metrics follow the marker, one shortest-round-trip line
        // each; without them the report serializes as before.
        assert!(!json.contains("\"l2_mpki\""));
        let measured = SimReport {
            metrics: vec![("l2_mpki", 52.9), ("sync_ratio", 3.6e-7)],
            ..marked.clone()
        };
        let json = measured.to_json();
        assert!(json.contains(
            "\"backend\": \"analytical\",\n  \"l2_mpki\": 52.9,\n  \"sync_ratio\": 3.6e-7,\n"
        ));
        let without: Vec<&str> = json
            .lines()
            .filter(|l| !l.contains("_mpki\"") && !l.contains("sync_ratio"))
            .collect();
        assert_eq!(marked.to_json().lines().collect::<Vec<_>>(), without);
    }

    #[test]
    fn compact_form_is_single_line_with_same_content() {
        let r = SimReport {
            cycles: 7,
            time_s: 1.5e-6,
            ..Default::default()
        };
        let compact = r.to_json_compact();
        assert!(!compact.contains('\n'));
        assert!(compact.starts_with('{') && compact.ends_with('}'));
        assert!(compact.contains("\"cycles\": 7,"));
        // Mechanically equal to compacting the pretty form.
        assert_eq!(compact, compact_json(&r.to_json()));
    }
}
