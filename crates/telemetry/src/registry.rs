//! The process-lifetime metrics registry: atomic counters, gauges, and
//! log-scale histograms for long-running deployments (`yu serve`).
//!
//! The PR 3 collector answers "where did *this run* spend its time" —
//! thread-local spans flushed into a one-shot report. A daemon needs the
//! complementary view: monotone process-lifetime totals, current-state
//! gauges, and latency distributions that survive across requests. That
//! is this registry. The metric set is **closed** — every metric is a
//! named field of [`MetricsRegistry`], created once at first use — so
//! the hot path is a direct atomic operation on a `&'static` field:
//! no registration lock, no name hashing, no allocation.
//!
//! Instrumented call sites go through [`with_registry`], which costs one
//! relaxed atomic load when recording is off (mirroring the span
//! collector's gate). Recording never touches verifier state, so
//! registry-on and registry-off runs produce bit-identical verdicts —
//! the same invariant PR 3 established for spans, enforced by
//! `tests/telemetry_differential.rs`.
//!
//! Export paths: [`MetricsRegistry::snapshot`] (plain data, JSON via
//! `to_value`) for the `yu serve` `metrics` request, and
//! [`crate::snapshot_prometheus`] for Prometheus text exposition.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Once, OnceLock};

use serde::{Map, Value};

use crate::histogram::{Histogram, HistogramSnapshot};

/// A monotone counter (relaxed atomic adds).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `delta`.
    #[inline]
    pub fn add(&self, delta: u64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current total.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins gauge holding an `f64` (stored as bits in an
/// atomic, so reads and writes are lock-free).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Sets the current value.
    #[inline]
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Sets from an integer (exact up to 2^53).
    #[inline]
    pub fn set_u64(&self, v: u64) {
        self.set(v as f64);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// What kind of metric a [`MetricDesc`] points at.
pub enum MetricKind<'a> {
    /// Monotone counter.
    Counter(&'a Counter),
    /// Point-in-time gauge.
    Gauge(&'a Gauge),
    /// Log-scale histogram; the `f64` scales raw recorded units into
    /// the exposition unit (e.g. `1e-6` for microseconds -> seconds).
    Histogram(&'a Histogram, f64),
}

/// One registry entry: name, help text, and the live metric.
pub struct MetricDesc<'a> {
    /// Prometheus-style metric name (`yu_*`, counters end `_total`).
    pub name: &'static str,
    /// One-line help text (the `# HELP` line).
    pub help: &'static str,
    /// The metric itself.
    pub metric: MetricKind<'a>,
}

/// The closed set of process-lifetime metrics. One instance per process
/// (see [`registry`]); every field is lock-free to record.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    // ---- pipeline totals ----
    /// Completed verification runs (batch, diff, or serve request).
    pub verify_runs_total: Counter,
    /// Requirements checked by the symbolic engine.
    pub reqs_checked_total: Counter,
    /// Requirements decided from per-flow terminal ranges, without
    /// building the aggregated load.
    pub reqs_bound_decided_total: Counter,
    /// Flow groups symbolically (re-)executed.
    pub flow_groups_executed_total: Counter,
    /// IGP Bellman-Ford rounds run by symbolic route simulation.
    pub route_igp_rounds_total: Counter,
    /// BGP propagation rounds run by symbolic route simulation.
    pub route_bgp_rounds_total: Counter,
    // ---- per-run stage latency distributions ----
    /// Route-simulation stage wall-clock per run (recorded in µs).
    pub stage_route_seconds: Histogram,
    /// Traffic-execution stage wall-clock per run (recorded in µs).
    pub stage_exec_seconds: Histogram,
    /// Check stage wall-clock per run (recorded in µs).
    pub stage_check_seconds: Histogram,
    // ---- per-entity attribution distributions ----
    /// Wall-clock of one flow group's symbolic execution (recorded in µs).
    pub flow_exec_seconds: Histogram,
    /// Wall-clock of one requirement's aggregate+check (recorded in µs).
    pub req_check_seconds: Histogram,
    // ---- MTBDD engine ----
    /// Live inner nodes in the main arena after the latest run.
    pub mtbdd_live_nodes: Gauge,
    /// Unique-table load factor (len / capacity) of the main arena.
    pub mtbdd_unique_table_load_factor: Gauge,
    /// Estimated bytes held by the main arena (nodes + tables).
    pub mtbdd_arena_bytes: Gauge,
    /// Distribution of live-node counts across runs.
    pub mtbdd_live_nodes_hist: Histogram,
    /// MTBDD apply-cache hits.
    pub mtbdd_apply_cache_hits_total: Counter,
    /// MTBDD apply-cache misses.
    pub mtbdd_apply_cache_misses_total: Counter,
    /// Fused ADD∘KREDUCE cache hits.
    pub mtbdd_fused_cache_hits_total: Counter,
    /// Fused ADD∘KREDUCE cache misses.
    pub mtbdd_fused_cache_misses_total: Counter,
    /// Garbage collections run.
    pub mtbdd_gc_runs_total: Counter,
    /// Inner nodes reclaimed by garbage collections.
    pub mtbdd_gc_reclaimed_nodes_total: Counter,
    /// Lifetime apply-cache hit rate (hits / lookups, in [0, 1]).
    pub mtbdd_apply_cache_hit_rate: Gauge,
    /// Lifetime fused-kernel cache hit rate (hits / lookups, in [0, 1]).
    pub mtbdd_fused_cache_hit_rate: Gauge,
    // ---- incremental engine ----
    /// Flow groups whose symbolic results were reused across updates.
    pub incremental_reused_groups_total: Counter,
    /// Flow groups re-executed by incremental updates.
    pub incremental_recomputed_groups_total: Counter,
    /// Requirements answered from the incremental verdict cache.
    pub incremental_reused_reqs_total: Counter,
    /// Requirements re-aggregated and re-checked incrementally.
    pub incremental_rechecked_reqs_total: Counter,
    /// Updates that forced a from-scratch rebuild (topology edits).
    pub incremental_full_rebuilds_total: Counter,
    // ---- serve loop ----
    /// Requests handled by `yu serve` (successful change-sets).
    pub serve_requests_total: Counter,
    /// Requests rejected (parse errors, bad requests).
    pub serve_request_errors_total: Counter,
    /// Requests slower than the configured threshold.
    pub serve_slow_requests_total: Counter,
    /// Requests whose verdict delta was non-empty.
    pub serve_verdict_flips_total: Counter,
    /// Requests that exceeded the rolling EWMA latency baseline of
    /// their request kind by the configured regression factor.
    pub serve_perf_regressions_total: Counter,
    /// End-to-end request latency (recorded in µs).
    pub serve_request_seconds: Histogram,
    /// Violations in the current (post-request) state.
    pub serve_violations: Gauge,
    /// Group reuse ratio of the latest request (reused / total).
    pub serve_group_reuse_ratio: Gauge,
    /// Requirement reuse ratio of the latest request (reused / total).
    pub serve_req_reuse_ratio: Gauge,
}

impl MetricsRegistry {
    /// Every metric with its name and help text, in stable exposition
    /// order. This is the single source of truth for both the
    /// Prometheus encoder and [`Self::snapshot`].
    pub fn descriptors(&self) -> Vec<MetricDesc<'_>> {
        use MetricKind::{Counter as C, Gauge as G, Histogram as H};
        vec![
            MetricDesc {
                name: "yu_verify_runs_total",
                help: "Completed verification runs (batch, diff, or serve request)",
                metric: C(&self.verify_runs_total),
            },
            MetricDesc {
                name: "yu_reqs_checked_total",
                help: "Requirements checked by the symbolic engine",
                metric: C(&self.reqs_checked_total),
            },
            MetricDesc {
                name: "yu_reqs_bound_decided_total",
                help:
                    "Requirements decided from per-flow terminal ranges, no aggregated load built",
                metric: C(&self.reqs_bound_decided_total),
            },
            MetricDesc {
                name: "yu_flow_groups_executed_total",
                help: "Flow groups symbolically (re-)executed",
                metric: C(&self.flow_groups_executed_total),
            },
            MetricDesc {
                name: "yu_route_igp_rounds_total",
                help: "IGP Bellman-Ford rounds run by symbolic route simulation",
                metric: C(&self.route_igp_rounds_total),
            },
            MetricDesc {
                name: "yu_route_bgp_rounds_total",
                help: "BGP propagation rounds run by symbolic route simulation",
                metric: C(&self.route_bgp_rounds_total),
            },
            MetricDesc {
                name: "yu_stage_route_seconds",
                help: "Route-simulation stage wall-clock per run",
                metric: H(&self.stage_route_seconds, 1e-6),
            },
            MetricDesc {
                name: "yu_stage_exec_seconds",
                help: "Traffic-execution stage wall-clock per run",
                metric: H(&self.stage_exec_seconds, 1e-6),
            },
            MetricDesc {
                name: "yu_stage_check_seconds",
                help: "Check stage wall-clock per run",
                metric: H(&self.stage_check_seconds, 1e-6),
            },
            MetricDesc {
                name: "yu_flow_exec_seconds",
                help: "Wall-clock of one flow group's symbolic execution",
                metric: H(&self.flow_exec_seconds, 1e-6),
            },
            MetricDesc {
                name: "yu_req_check_seconds",
                help: "Wall-clock of one requirement's aggregate+check",
                metric: H(&self.req_check_seconds, 1e-6),
            },
            MetricDesc {
                name: "yu_mtbdd_live_nodes",
                help: "Live inner nodes in the main arena after the latest run",
                metric: G(&self.mtbdd_live_nodes),
            },
            MetricDesc {
                name: "yu_mtbdd_unique_table_load_factor",
                help: "Unique-table load factor (len/capacity) of the main arena",
                metric: G(&self.mtbdd_unique_table_load_factor),
            },
            MetricDesc {
                name: "yu_mtbdd_arena_bytes",
                help: "Estimated bytes held by the main arena (nodes + tables)",
                metric: G(&self.mtbdd_arena_bytes),
            },
            MetricDesc {
                name: "yu_mtbdd_live_nodes_hist",
                help: "Distribution of live-node counts across runs",
                metric: H(&self.mtbdd_live_nodes_hist, 1.0),
            },
            MetricDesc {
                name: "yu_mtbdd_apply_cache_hits_total",
                help: "MTBDD apply-cache hits",
                metric: C(&self.mtbdd_apply_cache_hits_total),
            },
            MetricDesc {
                name: "yu_mtbdd_apply_cache_misses_total",
                help: "MTBDD apply-cache misses",
                metric: C(&self.mtbdd_apply_cache_misses_total),
            },
            MetricDesc {
                name: "yu_mtbdd_fused_cache_hits_total",
                help: "Fused ADD∘KREDUCE cache hits",
                metric: C(&self.mtbdd_fused_cache_hits_total),
            },
            MetricDesc {
                name: "yu_mtbdd_fused_cache_misses_total",
                help: "Fused ADD∘KREDUCE cache misses",
                metric: C(&self.mtbdd_fused_cache_misses_total),
            },
            MetricDesc {
                name: "yu_mtbdd_gc_runs_total",
                help: "Garbage collections run",
                metric: C(&self.mtbdd_gc_runs_total),
            },
            MetricDesc {
                name: "yu_mtbdd_gc_reclaimed_nodes_total",
                help: "Inner nodes reclaimed by garbage collections",
                metric: C(&self.mtbdd_gc_reclaimed_nodes_total),
            },
            MetricDesc {
                name: "yu_mtbdd_apply_cache_hit_rate",
                help: "Lifetime apply-cache hit rate (hits/lookups)",
                metric: G(&self.mtbdd_apply_cache_hit_rate),
            },
            MetricDesc {
                name: "yu_mtbdd_fused_cache_hit_rate",
                help: "Lifetime fused-kernel cache hit rate (hits/lookups)",
                metric: G(&self.mtbdd_fused_cache_hit_rate),
            },
            MetricDesc {
                name: "yu_incremental_reused_groups_total",
                help: "Flow groups whose symbolic results were reused across updates",
                metric: C(&self.incremental_reused_groups_total),
            },
            MetricDesc {
                name: "yu_incremental_recomputed_groups_total",
                help: "Flow groups re-executed by incremental updates",
                metric: C(&self.incremental_recomputed_groups_total),
            },
            MetricDesc {
                name: "yu_incremental_reused_reqs_total",
                help: "Requirements answered from the incremental verdict cache",
                metric: C(&self.incremental_reused_reqs_total),
            },
            MetricDesc {
                name: "yu_incremental_rechecked_reqs_total",
                help: "Requirements re-aggregated and re-checked incrementally",
                metric: C(&self.incremental_rechecked_reqs_total),
            },
            MetricDesc {
                name: "yu_incremental_full_rebuilds_total",
                help: "Updates that forced a from-scratch rebuild (topology edits)",
                metric: C(&self.incremental_full_rebuilds_total),
            },
            MetricDesc {
                name: "yu_serve_requests_total",
                help: "Requests handled by yu serve (successful change-sets)",
                metric: C(&self.serve_requests_total),
            },
            MetricDesc {
                name: "yu_serve_request_errors_total",
                help: "Requests rejected (parse errors, bad requests)",
                metric: C(&self.serve_request_errors_total),
            },
            MetricDesc {
                name: "yu_serve_slow_requests_total",
                help: "Requests slower than the configured threshold",
                metric: C(&self.serve_slow_requests_total),
            },
            MetricDesc {
                name: "yu_serve_verdict_flips_total",
                help: "Requests whose verdict delta was non-empty",
                metric: C(&self.serve_verdict_flips_total),
            },
            MetricDesc {
                name: "yu_serve_perf_regressions_total",
                help: "Requests exceeding their kind's EWMA latency baseline",
                metric: C(&self.serve_perf_regressions_total),
            },
            MetricDesc {
                name: "yu_serve_request_seconds",
                help: "End-to-end request latency",
                metric: H(&self.serve_request_seconds, 1e-6),
            },
            MetricDesc {
                name: "yu_serve_violations",
                help: "Violations in the current (post-request) state",
                metric: G(&self.serve_violations),
            },
            MetricDesc {
                name: "yu_serve_group_reuse_ratio",
                help: "Group reuse ratio of the latest request (reused/total)",
                metric: G(&self.serve_group_reuse_ratio),
            },
            MetricDesc {
                name: "yu_serve_req_reuse_ratio",
                help: "Requirement reuse ratio of the latest request (reused/total)",
                metric: G(&self.serve_req_reuse_ratio),
            },
        ]
    }

    /// A plain-data copy of every metric, for the `yu serve` `metrics`
    /// request and tests.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let mut counters = Vec::new();
        let mut gauges = Vec::new();
        let mut histograms = Vec::new();
        for d in self.descriptors() {
            match d.metric {
                MetricKind::Counter(c) => counters.push((d.name, c.get())),
                MetricKind::Gauge(g) => gauges.push((d.name, g.get())),
                MetricKind::Histogram(h, scale) => {
                    histograms.push((d.name, scale, h.snapshot()));
                }
            }
        }
        RegistrySnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

/// A point-in-time copy of the whole registry: plain data, JSON export.
#[derive(Debug, Clone)]
pub struct RegistrySnapshot {
    /// `(name, total)` per counter, in exposition order.
    pub counters: Vec<(&'static str, u64)>,
    /// `(name, value)` per gauge.
    pub gauges: Vec<(&'static str, f64)>,
    /// `(name, exposition scale, snapshot)` per histogram.
    pub histograms: Vec<(&'static str, f64, HistogramSnapshot)>,
}

impl RegistrySnapshot {
    /// The value of one counter by name (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |&(_, v)| v)
    }

    /// The snapshot of one histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|(_, _, h)| h)
    }

    /// JSON object: counters/gauges verbatim, histograms digested into
    /// `{count, sum, p50, p90, p95, p99}` in exposition units.
    pub fn to_value(&self) -> Value {
        let mut counters = Map::new();
        for &(name, v) in &self.counters {
            counters.insert(name, Value::Int(v as i128));
        }
        let mut gauges = Map::new();
        for &(name, v) in &self.gauges {
            gauges.insert(name, Value::Float(v));
        }
        let mut histograms = Map::new();
        for (name, scale, h) in &self.histograms {
            let mut m = Map::new();
            m.insert("count", Value::Int(h.count() as i128));
            m.insert("sum", Value::Float(h.sum as f64 * scale));
            for (label, q) in [("p50", 0.5), ("p90", 0.9), ("p95", 0.95), ("p99", 0.99)] {
                m.insert(label, Value::Float(h.quantile(q) as f64 * scale));
            }
            histograms.insert(*name, Value::Map(m));
        }
        let mut root = Map::new();
        root.insert("counters", Value::Map(counters));
        root.insert("gauges", Value::Map(gauges));
        root.insert("histograms", Value::Map(histograms));
        Value::Map(root)
    }
}

/// Whether registry recording is on: one relaxed load. On by default
/// (recording is a handful of atomic adds per *request*, not per node);
/// `YU_REGISTRY=0` or [`set_registry_enabled`]`(false)` turns it off —
/// what the serve bench's A/B overhead measurement does.
#[inline]
pub fn registry_enabled() -> bool {
    registry_env_init();
    REGISTRY_ENABLED.load(Ordering::Relaxed)
}

/// Turns registry recording on or off process-wide.
pub fn set_registry_enabled(on: bool) {
    registry_env_init();
    REGISTRY_ENABLED.store(on, Ordering::Relaxed);
}

static REGISTRY_ENABLED: AtomicBool = AtomicBool::new(true);
static REGISTRY_ENV: Once = Once::new();

fn registry_env_init() {
    REGISTRY_ENV.call_once(|| {
        if let Ok(v) = std::env::var("YU_REGISTRY") {
            if v == "0" || v.eq_ignore_ascii_case("false") {
                REGISTRY_ENABLED.store(false, Ordering::Relaxed);
            }
        }
    });
}

/// The process-wide registry. Always available; whether call sites
/// record into it is governed by [`registry_enabled`].
pub fn registry() -> &'static MetricsRegistry {
    static REGISTRY: OnceLock<MetricsRegistry> = OnceLock::new();
    REGISTRY.get_or_init(MetricsRegistry::default)
}

/// Runs `f` against the registry iff recording is enabled: the single
/// gate instrumented call sites pay (one relaxed load when off).
#[inline]
pub fn with_registry(f: impl FnOnce(&MetricsRegistry)) {
    if registry_enabled() {
        f(registry());
    }
}
