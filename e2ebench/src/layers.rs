//! Per-crate attribution from outside the program.
//!
//! Two sources feed it: the benchmark's own spans around each call it
//! makes into a crate ([`Spans`]), and the phases the `hygcn-obs`
//! collector already records inside those calls. Both become
//! [`Interval`]s on one single-threaded timeline, nested by containment;
//! a layer's self time is its spans' time minus the time of their
//! children.

use std::collections::BTreeMap;
use std::time::Instant;

/// One timed interval, in microseconds since the trace epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Interval {
    /// Span or phase name.
    pub name: String,
    /// The crate it is attributed to; `None` folds its time into the
    /// enclosing interval.
    pub layer: Option<&'static str>,
    /// Start, µs since the epoch.
    pub start_us: u64,
    /// Duration, µs.
    pub dur_us: u64,
}

/// The benchmark's own span recorder.
pub struct Spans {
    epoch: Instant,
    events: Vec<Interval>,
}

impl Spans {
    /// An empty recorder whose epoch is now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            events: Vec::new(),
        }
    }

    /// Drops recorded spans and restarts the epoch. Called right after
    /// `hygcn_obs::enable()` fixes the collector's epoch, so both clocks
    /// agree to well under a microsecond (this one starts no earlier).
    pub fn restart(&mut self) {
        self.events.clear();
        self.epoch = Instant::now();
    }

    /// Runs `f` under a span attributed to `layer`; returns its result
    /// and its duration in seconds.
    pub fn time<T>(&mut self, layer: &'static str, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let us = |t: Instant| {
            u64::try_from(t.saturating_duration_since(self.epoch).as_micros()).unwrap_or(u64::MAX)
        };
        let start_us = us(start);
        self.events.push(Interval {
            name: name.to_string(),
            layer: Some(layer),
            start_us,
            dur_us: us(end).saturating_sub(start_us),
        });
        (out, end.duration_since(start).as_secs_f64())
    }

    /// Everything recorded since the last restart.
    pub fn events(&self) -> &[Interval] {
        &self.events
    }
}

/// The crate each collector phase sits in. Phases missing here (a phase
/// added after this table) fold into whichever span encloses them.
pub fn phase_layer(phase: &str) -> Option<&'static str> {
    match phase {
        "window_plan" | "schedule_build" | "aggregation" | "combination" | "backend_eval" => {
            Some("core")
        }
        "hbm_walk" | "span_walk" | "span_program_build" | "span_replay" => Some("mem"),
        "campaign_batch" | "store_open" | "store_append" | "store_compact" => Some("dse"),
        "workload_build" => Some("graph"),
        "figure_render" => Some("bench"),
        _ => None,
    }
}

/// Converts the collector's drained events into intervals.
pub fn obs_intervals(events: &[hygcn_obs::SpanEvent]) -> Vec<Interval> {
    events
        .iter()
        .map(|e| Interval {
            name: e.phase.name().to_string(),
            layer: phase_layer(e.phase.name()),
            start_us: e.ts_us,
            dur_us: e.dur_us,
        })
        .collect()
}

/// Layer times of one nested timeline.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Attribution {
    /// Self time per layer: its intervals minus their children, µs.
    pub self_us: BTreeMap<&'static str, u64>,
    /// Time per layer inside its outermost intervals (those with no
    /// ancestor of the same layer), children included, µs.
    pub inclusive_us: BTreeMap<&'static str, u64>,
    /// Time covered by top-level intervals, µs. Equals the sum of every
    /// layer's self time.
    pub covered_us: u64,
}

/// Nests `intervals` by containment and attributes their time.
///
/// The timeline is single-threaded, so intervals either nest or follow
/// each other; a child that overruns its parent by clock rounding is
/// clipped to it, which keeps every self time non-negative and the self
/// times summing to the covered time.
pub fn attribute(intervals: &[Interval]) -> Attribution {
    struct Open {
        layer: &'static str,
        end_us: u64,
        dur_us: u64,
        children_us: u64,
    }
    fn close(open: Open, out: &mut Attribution) {
        *out.self_us.entry(open.layer).or_default() += open.dur_us.saturating_sub(open.children_us);
    }

    let mut sorted: Vec<(&Interval, &'static str)> = intervals
        .iter()
        .filter_map(|iv| iv.layer.map(|layer| (iv, layer)))
        .collect();
    // Parents before the children that start with them.
    sorted.sort_by_key(|(iv, _)| (iv.start_us, std::cmp::Reverse(iv.dur_us)));

    let mut out = Attribution::default();
    let mut stack: Vec<Open> = Vec::new();
    for (iv, layer) in sorted {
        while stack.last().is_some_and(|top| top.end_us <= iv.start_us) {
            if let Some(done) = stack.pop() {
                close(done, &mut out);
            }
        }
        let mut end_us = iv.start_us.saturating_add(iv.dur_us);
        let nested_in_own_layer = stack.iter().any(|o| o.layer == layer);
        match stack.last_mut() {
            Some(parent) => {
                end_us = end_us.min(parent.end_us);
                parent.children_us += end_us - iv.start_us;
            }
            None => out.covered_us += end_us - iv.start_us,
        }
        if !nested_in_own_layer {
            *out.inclusive_us.entry(layer).or_default() += end_us - iv.start_us;
        }
        stack.push(Open {
            layer,
            end_us,
            dur_us: end_us - iv.start_us,
            children_us: 0,
        });
    }
    while let Some(done) = stack.pop() {
        close(done, &mut out);
    }
    out
}

/// Renders intervals as Chrome-trace JSON (loadable in Perfetto); the
/// category is the layer.
pub fn chrome_trace(intervals: &[Interval]) -> String {
    let mut sorted: Vec<&Interval> = intervals.iter().collect();
    sorted.sort_by_key(|iv| (iv.start_us, std::cmp::Reverse(iv.dur_us)));
    let events: Vec<String> = sorted
        .iter()
        .map(|iv| {
            format!(
                "{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"ts\": {}, \"dur\": {}, \"pid\": 1, \"tid\": 1}}",
                iv.name,
                iv.layer.unwrap_or("other"),
                iv.start_us,
                iv.dur_us.max(1)
            )
        })
        .collect();
    format!(
        "{{\"displayTimeUnit\": \"ms\", \"traceEvents\": [{}]}}\n",
        events.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(name: &str, layer: Option<&'static str>, start_us: u64, dur_us: u64) -> Interval {
        Interval {
            name: name.to_string(),
            layer,
            start_us,
            dur_us,
        }
    }

    fn total_self(a: &Attribution) -> u64 {
        a.self_us.values().sum()
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let a = attribute(&[
            iv("dse.campaign", Some("dse"), 0, 100),
            iv("backend_eval", Some("core"), 10, 50),
            iv("hbm_walk", Some("mem"), 20, 15),
            iv("store_append", Some("dse"), 70, 5),
        ]);
        assert_eq!(a.self_us["dse"], 100 - 50 - 5 + 5);
        assert_eq!(a.self_us["core"], 50 - 15);
        assert_eq!(a.self_us["mem"], 15);
        assert_eq!(
            a.inclusive_us["dse"], 100,
            "nested dse span is not re-counted"
        );
        assert_eq!(a.inclusive_us["core"], 50);
        assert_eq!(a.covered_us, 100);
        assert_eq!(total_self(&a), a.covered_us);
    }

    #[test]
    fn self_time_is_never_negative_under_rounding() {
        // Children that overrun the parent (clock rounding) or overlap
        // each other are clipped, never driving a self time below 0.
        let a = attribute(&[
            iv("core.simulate_stack", Some("core"), 0, 10),
            iv("aggregation", Some("core"), 0, 6),
            iv("combination", Some("core"), 5, 8),
            iv("hbm_walk", Some("mem"), 9, 4),
        ]);
        assert!(a.self_us.values().all(|&v| v <= a.covered_us));
        assert_eq!(total_self(&a), a.covered_us);
        assert_eq!(a.covered_us, 10);
    }

    #[test]
    fn unknown_phases_fold_into_their_parent() {
        let a = attribute(&[
            iv("graph.instantiate", Some("graph"), 0, 40),
            iv("some_new_phase", None, 5, 30),
        ]);
        assert_eq!(a.self_us["graph"], 40);
        assert_eq!(a.self_us.len(), 1);
    }

    #[test]
    fn siblings_and_gaps() {
        let a = attribute(&[
            iv("a", Some("bench"), 0, 10),
            iv("b", Some("bench"), 10, 10),
            iv("c", Some("graph"), 30, 5),
        ]);
        assert_eq!(a.covered_us, 25);
        assert_eq!(a.self_us["bench"], 20);
        assert_eq!(a.inclusive_us["bench"], 20);
        assert_eq!(total_self(&a), 25);
    }

    #[test]
    fn every_collector_phase_has_a_layer() {
        for p in hygcn_obs::Phase::all() {
            assert!(phase_layer(p.name()).is_some(), "{}", p.name());
        }
    }

    #[test]
    fn chrome_trace_lists_every_interval() {
        let t = chrome_trace(&[iv("x", Some("core"), 3, 0), iv("y", None, 1, 2)]);
        assert!(t.starts_with("{\"displayTimeUnit\": \"ms\", \"traceEvents\": ["));
        assert!(t.contains("\"name\": \"x\", \"cat\": \"core\""));
        assert!(t.contains("\"cat\": \"other\""));
        assert!(t.find("\"y\"") < t.find("\"x\""));
    }
}
