//! Aggregation and export of the span log: per-stage statistics,
//! derived cache rates, the stderr summary table, and metrics JSON.

use std::collections::BTreeMap;

use serde::Serialize;

use crate::collector::SpanEvent;
use crate::registry::Counter;

/// Aggregate statistics for one stage (all spans sharing a name).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct StageAgg {
    /// Number of spans recorded for this stage.
    pub count: u64,
    /// Sum of span durations, microseconds.
    pub total_us: u64,
    /// Shortest span, microseconds.
    pub min_us: u64,
    /// Longest span, microseconds.
    pub max_us: u64,
}

impl StageAgg {
    fn absorb(&mut self, dur_us: u64) {
        self.count += 1;
        self.total_us += dur_us;
        self.min_us = self.min_us.min(dur_us);
        self.max_us = self.max_us.max(dur_us);
    }
}

/// One row of the exported per-stage breakdown.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct StageSummary {
    /// Stage name (`"igp"`, `"exec"`, ...).
    pub name: String,
    /// Number of spans recorded for this stage.
    pub count: u64,
    /// Sum of span durations, microseconds.
    pub total_us: u64,
    /// Mean span duration, microseconds.
    pub mean_us: f64,
    /// Shortest span, microseconds.
    pub min_us: u64,
    /// Longest span, microseconds.
    pub max_us: u64,
}

/// The machine-readable digest of one run: per-stage timings, raw
/// counter/gauge totals, and derived rates. This is what `--metrics-out`
/// writes and what `RunStats` embeds for `--json` output.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TelemetrySummary {
    /// Per-stage timing rows, sorted by descending total time.
    pub stages: Vec<StageSummary>,
    /// Counter totals.
    pub counters: BTreeMap<String, u64>,
    /// Gauge high-water marks.
    pub gauges: BTreeMap<String, u64>,
    /// Rates computed from the counters (all in `[0, 1]`):
    /// `apply_cache_hit_rate` = hits / (hits + misses) of the MTBDD apply
    /// cache; `fused_cache_hit_rate` likewise for the fused ADD∘KREDUCE memo;
    /// `kreduce_reduction_ratio` = fraction of
    /// nodes *removed* by KREDUCE (`1 - after/before`). A rate is
    /// omitted when its inputs were never recorded.
    pub derived: BTreeMap<String, f64>,
}

/// One thread's span log: completed spans and counter/gauge totals.
/// Obtained from [`crate::snapshot`]; exported via the methods here.
#[derive(Debug, Clone, Default)]
pub struct TelemetryReport {
    /// Completed spans in completion order.
    pub spans: Vec<SpanEvent>,
    /// Monotonic counter totals.
    pub counters: BTreeMap<&'static str, u64>,
    /// High-water-mark gauges.
    pub gauges: BTreeMap<&'static str, u64>,
}

impl TelemetryReport {
    /// True when nothing was recorded (e.g. telemetry was disabled).
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty() && self.counters.is_empty() && self.gauges.is_empty()
    }

    /// Aggregates spans by stage name.
    pub fn stage_aggs(&self) -> BTreeMap<&'static str, StageAgg> {
        let mut aggs: BTreeMap<&'static str, StageAgg> = BTreeMap::new();
        for s in &self.spans {
            aggs.entry(s.name)
                .or_insert(StageAgg {
                    count: 0,
                    total_us: 0,
                    min_us: u64::MAX,
                    max_us: 0,
                })
                .absorb(s.dur_us);
        }
        aggs
    }

    /// Counter totals.
    pub fn counter_totals(&self) -> BTreeMap<String, u64> {
        self.counters
            .iter()
            .map(|(&k, &v)| (k.to_string(), v))
            .collect()
    }

    /// Gauge high-water marks.
    pub fn gauge_maxes(&self) -> BTreeMap<String, u64> {
        self.gauges
            .iter()
            .map(|(&k, &v)| (k.to_string(), v))
            .collect()
    }

    /// Builds the exportable digest: stages sorted by descending total
    /// time, counter/gauge totals, and derived cache rates.
    pub fn summary(&self) -> TelemetrySummary {
        let mut stages: Vec<StageSummary> = self
            .stage_aggs()
            .into_iter()
            .map(|(name, a)| StageSummary {
                name: name.to_string(),
                count: a.count,
                total_us: a.total_us,
                mean_us: a.total_us as f64 / a.count as f64,
                min_us: a.min_us,
                max_us: a.max_us,
            })
            .collect();
        stages.sort_by(|a, b| b.total_us.cmp(&a.total_us).then(a.name.cmp(&b.name)));
        let counters = self.counter_totals();
        let derived = derived_rates(&counters);
        TelemetrySummary {
            stages,
            counters,
            gauges: self.gauge_maxes(),
            derived,
        }
    }

    /// Renders the human-readable per-stage table that `yu verify -v`
    /// prints on stderr.
    pub fn summary_table(&self) -> String {
        let s = self.summary();
        let mut out = String::new();
        out.push_str(&format!(
            "{:<14} {:>7} {:>12} {:>12} {:>12} {:>12}\n",
            "stage", "count", "total", "mean", "min", "max"
        ));
        for row in &s.stages {
            out.push_str(&format!(
                "{:<14} {:>7} {:>12} {:>12} {:>12} {:>12}\n",
                row.name,
                row.count,
                fmt_us(row.total_us),
                fmt_us(row.mean_us as u64),
                fmt_us(row.min_us),
                fmt_us(row.max_us),
            ));
        }
        if !s.derived.is_empty() {
            out.push('\n');
            for (k, v) in &s.derived {
                out.push_str(&format!("{k:<28} {v:.4}\n"));
            }
        }
        if !s.counters.is_empty() {
            out.push('\n');
            for (k, v) in &s.counters {
                out.push_str(&format!("{k:<28} {v}\n"));
            }
        }
        if !s.gauges.is_empty() {
            out.push('\n');
            for (k, v) in &s.gauges {
                out.push_str(&format!("{k:<28} {v} (peak)\n"));
            }
        }
        out
    }

    /// Renders the machine-readable metrics JSON written by
    /// `yu verify --metrics-out FILE` (pretty-printed, stable key order).
    pub fn metrics_json(&self) -> String {
        let mut out = String::new();
        serde::write_json(&self.summary().to_value(), Some(2), 0, &mut out);
        out.push('\n');
        out
    }
}

/// Computes cache/reduction rates from raw counter totals; see
/// [`TelemetrySummary::derived`] for the definitions.
fn derived_rates(counters: &BTreeMap<String, u64>) -> BTreeMap<String, f64> {
    let get = |name: &str| counters.get(name).copied().unwrap_or(0);
    // The arena counters are twin rows of the instrument table: read
    // them under the span-log name the table gives them.
    let twin = |c: &Counter| c.twin().map_or(0, get);
    let r = crate::registry();
    let mut d = BTreeMap::new();
    let mut rate = |label: &str, hits: u64, misses: u64| {
        if hits + misses > 0 {
            d.insert(label.to_string(), hits as f64 / (hits + misses) as f64);
        }
    };
    rate(
        "apply_cache_hit_rate",
        twin(&r.mtbdd_apply_cache_hits_total),
        twin(&r.mtbdd_apply_cache_misses_total),
    );
    rate(
        "fused_cache_hit_rate",
        twin(&r.mtbdd_fused_cache_hits_total),
        twin(&r.mtbdd_fused_cache_misses_total),
    );
    let before = get("kreduce.nodes_before");
    let after = get("kreduce.nodes_after");
    if before > 0 {
        d.insert(
            "kreduce_reduction_ratio".to_string(),
            1.0 - after as f64 / before as f64,
        );
    }
    d
}

/// Formats microseconds with an adaptive unit (`µs`, `ms`, `s`): the one
/// wall-time format of the `-v` stage table and `yu profile`.
pub fn fmt_us(us: u64) -> String {
    if us >= 1_000_000 {
        format!("{:.2}s", us as f64 / 1e6)
    } else if us >= 1_000 {
        format!("{:.2}ms", us as f64 / 1e3)
    } else {
        format!("{us}µs")
    }
}
