//! Property and schema tests for the v2 metrics registry: histogram
//! quantiles against a reference sorted-vector implementation,
//! bucket-boundary edge cases, and the Prometheus text exposition
//! (parseable, typed, monotone across snapshots).
//!
//! Every test builds its own local [`MetricsRegistry`] / [`Histogram`]
//! — nothing here touches the process-global registry, and only one test
//! flips the span gate (recording into its own thread's log), so the
//! tests run concurrently without interference.

use proptest::prelude::*;
use yu_telemetry::{
    bucket_bounds, bucket_index, render_prometheus, Histogram, HistogramSnapshot, MetricKind,
    MetricsRegistry,
};

/// The reference implementation: exact nearest-rank quantile over the
/// raw samples, with the same rank rule the histogram uses
/// (`rank = ceil(q * count)`, clamped to `[1, count]`).
fn reference_quantile(samples: &[u64], q: f64) -> u64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn record_all(samples: &[u64]) -> HistogramSnapshot {
    let h = Histogram::default();
    for &v in samples {
        h.record(v);
    }
    h.snapshot()
}

proptest! {
    /// The histogram quantile answers with the upper bound of exactly
    /// the bucket that holds the reference quantile — identical rank
    /// rule, bucket-granular value.
    #[test]
    fn quantile_matches_reference_bucket(
        samples in proptest::collection::vec(0u64..=1u64 << 42, 1..200),
        q in 0.0f64..1.0,
    ) {
        let snap = record_all(&samples);
        prop_assert_eq!(snap.count(), samples.len() as u64);
        let reference = reference_quantile(&samples, q);
        let answer = snap.quantile(q);
        let top = *bucket_bounds().last().unwrap();
        if reference > top {
            // The rank falls in the +Inf bucket, which saturates to the
            // largest finite bound.
            prop_assert_eq!(answer, top);
        } else {
            prop_assert_eq!(
                bucket_index(answer),
                bucket_index(reference),
                "quantile {} answered {} for reference {}",
                q, answer, reference
            );
            // The answer is the upper bound of the reference's bucket,
            // so it never under-reports.
            prop_assert!(answer >= reference);
        }
    }

    /// Bucket semantics at the boundaries: a value equal to a bound
    /// lands in the bucket that bound closes (inclusive upper bound),
    /// and the next integer lands strictly later.
    #[test]
    fn bucket_bounds_are_inclusive_upper(raw_ix in 0usize..10_000) {
        let bounds = bucket_bounds();
        let ix = raw_ix % bounds.len();
        let b = bounds[ix];
        prop_assert_eq!(bucket_index(b), ix);
        prop_assert!(bucket_index(b + 1) > ix);
        if b > 1 {
            prop_assert!(bucket_index(b - 1) <= ix);
        }
    }
}

#[test]
fn quantile_extremes_use_the_clamped_rank() {
    let samples: Vec<u64> = (1..=100).collect();
    let snap = record_all(&samples);
    // q = 0 clamps to rank 1 (the minimum's bucket bound)...
    assert_eq!(snap.quantile(0.0), 1);
    // ...and q = 1 is rank = count (the maximum's bucket bound).
    assert_eq!(snap.quantile(1.0), snap.quantile(0.999999));
    assert_eq!(bucket_index(snap.quantile(1.0)), bucket_index(100));
}

#[test]
fn overflow_values_land_in_the_inf_bucket() {
    let bounds = bucket_bounds();
    let top = *bounds.last().unwrap();
    assert_eq!(bucket_index(top + 1), bounds.len());
    assert_eq!(bucket_index(u64::MAX), bounds.len());
    let h = Histogram::default();
    h.record(u64::MAX);
    let snap = h.snapshot();
    assert_eq!(snap.count(), 1);
    // The +Inf entry of the cumulative view carries the overflow.
    let cum = snap.cumulative();
    let (bound, total) = cum.last().unwrap();
    assert_eq!(*bound, None);
    assert_eq!(*total, 1);
}

/// One parsed exposition: `name -> value` for plain metrics, plus raw
/// `# TYPE` entries.
struct Parsed {
    types: Vec<(String, String)>,
    values: Vec<(String, f64)>,
}

fn parse_exposition(text: &str) -> Parsed {
    let mut types = Vec::new();
    let mut values = Vec::new();
    for line in text.lines() {
        assert!(!line.trim().is_empty(), "blank line in exposition");
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let name = it.next().expect("TYPE name").to_string();
            let kind = it.next().expect("TYPE kind").to_string();
            assert!(
                matches!(kind.as_str(), "counter" | "gauge" | "histogram"),
                "unknown TYPE {kind}"
            );
            types.push((name, kind));
        } else if line.starts_with('#') {
            assert!(line.starts_with("# HELP "), "unknown comment: {line}");
        } else {
            let mut it = line.split_whitespace();
            let name = it.next().expect("sample name").to_string();
            let value: f64 = it
                .next()
                .expect("sample value")
                .parse()
                .unwrap_or_else(|e| panic!("unparseable value in {line:?}: {e}"));
            assert!(it.next().is_none(), "trailing tokens in {line:?}");
            values.push((name, value));
        }
    }
    Parsed { types, values }
}

fn value_of(p: &Parsed, name: &str) -> f64 {
    p.values
        .iter()
        .find(|(n, _)| n == name)
        .unwrap_or_else(|| panic!("exposition missing {name}"))
        .1
}

#[test]
fn prometheus_schema_and_monotone_counters() {
    let reg = MetricsRegistry::default();
    reg.serve_requests_total.add(2);
    reg.verify_runs_total.inc();
    reg.serve_request_seconds.record(1_500);
    reg.serve_request_seconds.record(250_000);
    reg.mtbdd_live_nodes.set_u64(4096);

    let first = parse_exposition(&render_prometheus(&reg));

    // Every metric has exactly one TYPE line, in descriptor order.
    let descs = reg.descriptors();
    assert_eq!(first.types.len(), descs.len());
    for (d, (name, _)) in descs.iter().zip(&first.types) {
        assert_eq!(d.name, name);
    }

    // Histogram internal consistency: buckets cumulative and monotone
    // in le, +Inf bucket == _count, _sum present.
    let text = render_prometheus(&reg);
    let mut last_cum = -1.0;
    let mut inf_cum = None;
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("yu_serve_request_seconds_bucket{le=\"") {
            let (le, cum) = rest.split_once("\"} ").expect("bucket line shape");
            let cum: f64 = cum.parse().unwrap();
            assert!(cum >= last_cum, "bucket counts must be cumulative");
            last_cum = cum;
            if le == "+Inf" {
                inf_cum = Some(cum);
            } else {
                let le: f64 = le.parse().expect("le bound parses as f64");
                assert!(le > 0.0);
            }
        }
    }
    assert_eq!(
        inf_cum.expect("+Inf bucket present"),
        value_of(&first, "yu_serve_request_seconds_count")
    );
    assert_eq!(value_of(&first, "yu_serve_request_seconds_count"), 2.0);
    assert!(value_of(&first, "yu_serve_request_seconds_sum") > 0.0);

    // Record more; every counter and bucket count is monotone across
    // snapshots (counters never reset).
    reg.serve_requests_total.add(3);
    reg.serve_request_seconds.record(9_000_000);
    reg.mtbdd_live_nodes.set_u64(1); // gauges may go down
    let second = parse_exposition(&render_prometheus(&reg));
    for (name, v1) in &first.values {
        if name.contains("_total") || name.ends_with("_count") || name.contains("_bucket") {
            let v2 = value_of(&second, name);
            assert!(v2 >= *v1, "{name} went backwards: {v1} -> {v2}");
        }
    }
    assert_eq!(value_of(&second, "yu_serve_requests_total"), 5.0);
    assert_eq!(value_of(&second, "yu_mtbdd_live_nodes"), 1.0);
}

#[test]
fn snapshot_json_matches_live_values() {
    let reg = MetricsRegistry::default();
    reg.incremental_reused_reqs_total.add(7);
    reg.serve_group_reuse_ratio.set(0.75);
    reg.stage_check_seconds.record(2_000); // 2 ms
    let snap = reg.snapshot();
    assert_eq!(snap.counter("yu_incremental_reused_reqs_total"), 7);
    let h = snap
        .histogram("yu_stage_check_seconds")
        .expect("stage histogram present");
    assert_eq!(h.count(), 1);
    let json = snap.to_value().to_string();
    assert!(json.contains("\"yu_incremental_reused_reqs_total\":7"));
    assert!(json.contains("\"yu_serve_group_reuse_ratio\":0.75"));
}

/// The instrument table, as exported: `(name, kind, twin)` per row, in
/// exposition order. Adding, renaming or re-twinning an instrument is a
/// one-line diff here (and one row in DESIGN.md §9.7, which
/// `tests/observability.rs` checks against `descriptors()`).
const INSTRUMENTS: [(&str, &str, Option<&str>); 40] = [
    ("yu_verify_runs_total", "counter", None),
    ("yu_reqs_checked_total", "counter", None),
    ("yu_reqs_bound_decided_total", "counter", None),
    ("yu_flow_groups_executed_total", "counter", None),
    (
        "yu_route_igp_rounds_total",
        "counter",
        Some("igp.bf_rounds"),
    ),
    ("yu_route_bgp_rounds_total", "counter", Some("bgp.rounds")),
    ("yu_stage_route_seconds", "histogram", None),
    ("yu_stage_exec_seconds", "histogram", None),
    ("yu_stage_check_seconds", "histogram", None),
    ("yu_flow_exec_seconds", "histogram", None),
    ("yu_req_check_seconds", "histogram", None),
    ("yu_mtbdd_live_nodes", "gauge", None),
    ("yu_mtbdd_unique_table_load_factor", "gauge", None),
    ("yu_mtbdd_arena_bytes", "gauge", None),
    ("yu_mtbdd_live_nodes_hist", "histogram", None),
    (
        "yu_mtbdd_apply_cache_hits_total",
        "counter",
        Some("mtbdd.apply_cache_hits"),
    ),
    (
        "yu_mtbdd_apply_cache_misses_total",
        "counter",
        Some("mtbdd.apply_cache_misses"),
    ),
    (
        "yu_mtbdd_fused_cache_hits_total",
        "counter",
        Some("mtbdd.fused_cache_hits"),
    ),
    (
        "yu_mtbdd_fused_cache_misses_total",
        "counter",
        Some("mtbdd.fused_cache_misses"),
    ),
    ("yu_mtbdd_gc_runs_total", "counter", Some("mtbdd.gc_runs")),
    (
        "yu_mtbdd_gc_reclaimed_nodes_total",
        "counter",
        Some("mtbdd.gc_reclaimed_nodes"),
    ),
    ("yu_mtbdd_apply_cache_hit_rate", "gauge", None),
    ("yu_mtbdd_fused_cache_hit_rate", "gauge", None),
    (
        "yu_incremental_reused_groups_total",
        "counter",
        Some("delta.reused_groups"),
    ),
    (
        "yu_incremental_recomputed_groups_total",
        "counter",
        Some("delta.recomputed_groups"),
    ),
    (
        "yu_incremental_reused_reqs_total",
        "counter",
        Some("delta.reused_reqs"),
    ),
    (
        "yu_incremental_rechecked_reqs_total",
        "counter",
        Some("delta.rechecked_reqs"),
    ),
    (
        "yu_incremental_delta_loads_total",
        "counter",
        Some("delta.delta_loads"),
    ),
    (
        "yu_incremental_reused_loads_total",
        "counter",
        Some("delta.reused_loads"),
    ),
    ("yu_incremental_full_rebuilds_total", "counter", None),
    ("yu_incremental_reused_routes_total", "counter", None),
    ("yu_serve_requests_total", "counter", None),
    ("yu_serve_request_errors_total", "counter", None),
    ("yu_serve_slow_requests_total", "counter", None),
    ("yu_serve_verdict_flips_total", "counter", None),
    ("yu_serve_perf_regressions_total", "counter", None),
    ("yu_serve_request_seconds", "histogram", None),
    ("yu_serve_violations", "gauge", None),
    ("yu_serve_group_reuse_ratio", "gauge", None),
    ("yu_serve_req_reuse_ratio", "gauge", None),
];

/// `(name, kind, twin)` of every descriptor, in `descriptors()` order.
fn exported_rows(reg: &MetricsRegistry) -> Vec<(&'static str, &'static str, Option<&'static str>)> {
    reg.descriptors()
        .iter()
        .map(|d| match d.metric {
            MetricKind::Counter(c) => (d.name, "counter", c.twin()),
            MetricKind::Gauge(_) => (d.name, "gauge", None),
            MetricKind::Histogram(..) => (d.name, "histogram", None),
        })
        .collect()
}

#[test]
fn descriptors_are_the_golden_instrument_list_in_table_order() {
    assert_eq!(exported_rows(&MetricsRegistry::default()), INSTRUMENTS);
}

#[test]
fn instrument_names_follow_the_one_naming_scheme() {
    let rows = exported_rows(&MetricsRegistry::default());
    let mut names = std::collections::BTreeSet::new();
    let mut twins = std::collections::BTreeSet::new();
    for &(name, kind, twin) in &rows {
        assert!(names.insert(name), "duplicate metric name {name}");
        assert!(name.starts_with("yu_"), "{name} lacks the yu_ prefix");
        assert_eq!(
            kind == "counter",
            name.ends_with("_total"),
            "{name}: counters, and only counters, end in _total"
        );
        if let Some(twin) = twin {
            assert!(twins.insert(twin), "duplicate twin name {twin}");
            let (layer, quantity) = twin.split_once('.').expect("twin names are dotted");
            assert!(!layer.is_empty() && !quantity.is_empty(), "{twin}");
            assert!(!twin.starts_with("yu_"), "{twin} is a span-log name");
        }
    }
    assert_eq!(twins.len(), 14);
}

/// A twin row's one `add` lands in both sinks, each under its own gate;
/// a plain row's lands in the registry only.
#[test]
fn a_twin_counter_feeds_both_sinks_from_one_call() {
    let reg = MetricsRegistry::default();
    yu_telemetry::set_enabled(true);
    yu_telemetry::reset();
    reg.route_igp_rounds_total.add(5);
    reg.verify_runs_total.inc();
    let log = yu_telemetry::snapshot();
    yu_telemetry::reset();
    yu_telemetry::set_enabled(false);
    reg.route_igp_rounds_total.add(2);
    let quiet = yu_telemetry::snapshot();

    assert_eq!(reg.route_igp_rounds_total.get(), 7);
    assert_eq!(reg.verify_runs_total.get(), 1);
    assert_eq!(log.counters.get("igp.bf_rounds"), Some(&5));
    assert_eq!(log.counters.len(), 1, "a plain row has no span-log name");
    assert!(quiet.counters.is_empty(), "the span gate is its own gate");
}
