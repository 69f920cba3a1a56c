//! The instrument table and the process-lifetime metrics registry built
//! from it: atomic counters, gauges, and log-scale histograms for
//! long-running deployments (`yu serve`).
//!
//! The span collector answers "where did *this run* spend its time" —
//! the calling thread's spans and counters, copied out as a report. A
//! daemon needs the complementary view: monotone process-lifetime totals,
//! current-state gauges, and latency distributions that survive across
//! requests. That is this registry. The metric set is **closed** — the
//! `metrics!` table below is the one place an instrument is declared, and
//! the [`MetricsRegistry`] struct, its `Default` and
//! [`MetricsRegistry::descriptors`] are generated from it — so the hot
//! path is a direct atomic operation on a `&'static` field: no
//! registration lock, no name hashing, no allocation.
//!
//! A counter row may name a **twin**: the span-log counter that carries
//! the same quantity per measurement window. [`Counter::add`] on such a
//! row feeds both sinks, each under its own gate, so a call site names
//! the quantity once.
//!
//! Gauges and histograms are recorded through [`with_registry`], which
//! costs one relaxed atomic load when recording is off (mirroring the
//! span collector's gate); counters check the same gate themselves.
//! Recording never touches verifier state, so registry-on and
//! registry-off runs produce bit-identical verdicts — the invariant
//! `tests/telemetry_differential.rs` enforces for both sinks.
//!
//! Export paths: [`MetricsRegistry::snapshot`] (plain data, JSON via
//! `to_value`) for the `yu serve` `metrics` request, and
//! [`crate::snapshot_prometheus`] for Prometheus text exposition.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Once, OnceLock};

use serde::{Map, Value};

use crate::histogram::{Histogram, HistogramSnapshot};

/// A monotone counter (relaxed atomic adds), optionally twinned with a
/// span-log counter.
#[derive(Debug, Default)]
pub struct Counter {
    total: AtomicU64,
    twin: Option<&'static str>,
}

impl Counter {
    /// Adds `delta` to the process-lifetime total when the registry is
    /// recording, and to the twin span-log counter (if this row has one)
    /// when the span collector is.
    #[inline]
    pub fn add(&self, delta: u64) {
        if registry_enabled() {
            self.total.fetch_add(delta, Ordering::Relaxed);
        }
        if let Some(name) = self.twin {
            crate::counter(name, delta);
        }
    }

    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current total.
    pub fn get(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// The span-log counter fed by the same [`Counter::add`] calls, if
    /// this row has one.
    pub fn twin(&self) -> Option<&'static str> {
        self.twin
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

/// Declares the instrument set. One row per metric:
///
/// ```text
/// field: kind, "help text";
/// ```
///
/// `kind` is `counter`, `counter("span.log_name")` for a twin row,
/// `gauge`, or `histogram(scale)` — call sites record raw integers
/// (microseconds, node counts) and `scale` converts them to the
/// exposition unit. The exposition name is `yu_` + the field name, the
/// help text doubles as the field's doc comment, and row order is
/// exposition order.
macro_rules! metrics {
    (@type counter) => { Counter };
    (@type gauge) => { Gauge };
    (@type histogram) => { Histogram };
    (@new counter) => { Counter::default() };
    (@new counter $twin:literal) => {
        Counter { total: AtomicU64::new(0), twin: Some($twin) }
    };
    (@new gauge) => { Gauge::default() };
    (@new histogram $scale:literal) => { Histogram::default() };
    (@kind counter $metric:expr $(, $twin:literal)?) => { MetricKind::Counter($metric) };
    (@kind gauge $metric:expr) => { MetricKind::Gauge($metric) };
    (@kind histogram $metric:expr, $scale:literal) => { MetricKind::Histogram($metric, $scale) };
    ($($field:ident: $kind:ident $(($arg:literal))?, $help:literal;)*) => {
        /// The closed set of process-lifetime metrics. One instance per
        /// process (see [`registry`]); every field is lock-free to record.
        #[derive(Debug)]
        pub struct MetricsRegistry {
            $(#[doc = $help] pub $field: metrics!(@type $kind),)*
        }

        impl Default for MetricsRegistry {
            fn default() -> Self {
                MetricsRegistry {
                    $($field: metrics!(@new $kind $($arg)?),)*
                }
            }
        }

        impl MetricsRegistry {
            /// Every metric with its name and help text, in table order:
            /// what the Prometheus encoder, the Chrome-trace counter
            /// tracks and [`Self::snapshot`] iterate.
            pub fn descriptors(&self) -> Vec<MetricDesc<'_>> {
                vec![$(MetricDesc {
                    name: concat!("yu_", stringify!($field)),
                    help: $help,
                    metric: metrics!(@kind $kind &self.$field $(, $arg)?),
                },)*]
            }
        }
    };
}

metrics! {
    // ---- pipeline totals ----
    verify_runs_total: counter, "Completed verification runs (batch, diff, or serve request)";
    reqs_checked_total: counter, "Requirements checked by the symbolic engine";
    reqs_bound_decided_total: counter,
        "Requirements decided from per-flow terminal ranges, no aggregated load built";
    flow_groups_executed_total: counter, "Flow groups symbolically (re-)executed";
    route_igp_rounds_total: counter("igp.bf_rounds"),
        "IGP Bellman-Ford rounds run by symbolic route simulation";
    route_bgp_rounds_total: counter("bgp.rounds"),
        "BGP propagation rounds run by symbolic route simulation";
    // ---- per-run stage latency distributions ----
    stage_route_seconds: histogram(1e-6), "Route-simulation stage wall-clock per run";
    stage_exec_seconds: histogram(1e-6), "Traffic-execution stage wall-clock per run";
    stage_check_seconds: histogram(1e-6), "Check stage wall-clock per run";
    // ---- per-entity attribution distributions ----
    flow_exec_seconds: histogram(1e-6), "Wall-clock of one flow group's symbolic execution";
    req_check_seconds: histogram(1e-6), "Wall-clock of one requirement's aggregate+check";
    // ---- MTBDD engine ----
    mtbdd_live_nodes: gauge, "Live inner nodes in the main arena after the latest run";
    mtbdd_unique_table_load_factor: gauge,
        "Unique-table load factor (len/capacity) of the main arena";
    mtbdd_arena_bytes: gauge, "Estimated bytes held by the main arena (nodes + tables)";
    mtbdd_live_nodes_hist: histogram(1.0), "Distribution of live-node counts across runs";
    mtbdd_apply_cache_hits_total: counter("mtbdd.apply_cache_hits"), "MTBDD apply-cache hits";
    mtbdd_apply_cache_misses_total: counter("mtbdd.apply_cache_misses"),
        "MTBDD apply-cache misses";
    mtbdd_fused_cache_hits_total: counter("mtbdd.fused_cache_hits"),
        "Fused ADD∘KREDUCE cache hits";
    mtbdd_fused_cache_misses_total: counter("mtbdd.fused_cache_misses"),
        "Fused ADD∘KREDUCE cache misses";
    mtbdd_gc_runs_total: counter("mtbdd.gc_runs"), "Garbage collections run";
    mtbdd_gc_reclaimed_nodes_total: counter("mtbdd.gc_reclaimed_nodes"),
        "Inner nodes reclaimed by garbage collections";
    mtbdd_apply_cache_hit_rate: gauge, "Lifetime apply-cache hit rate (hits/lookups)";
    mtbdd_fused_cache_hit_rate: gauge, "Lifetime fused-kernel cache hit rate (hits/lookups)";
    // ---- incremental engine ----
    incremental_reused_groups_total: counter("delta.reused_groups"),
        "Flow groups whose symbolic results were reused across updates";
    incremental_recomputed_groups_total: counter("delta.recomputed_groups"),
        "Flow groups re-executed by incremental updates";
    incremental_reused_reqs_total: counter("delta.reused_reqs"),
        "Requirements answered from the incremental verdict cache";
    incremental_rechecked_reqs_total: counter("delta.rechecked_reqs"),
        "Requirements re-aggregated and re-checked incrementally";
    incremental_delta_loads_total: counter("delta.delta_loads"),
        "Cached loads moved by a signed delta instead of re-summed";
    incremental_reused_loads_total: counter("delta.reused_loads"),
        "Loads found by signature in the entry the current one replaced";
    incremental_full_rebuilds_total: counter,
        "Updates that forced a from-scratch rebuild (topology edits)";
    // ---- serve loop ----
    serve_requests_total: counter, "Requests handled by yu serve (successful change-sets)";
    serve_request_errors_total: counter, "Requests rejected (parse errors, bad requests)";
    serve_slow_requests_total: counter, "Requests slower than the configured threshold";
    serve_verdict_flips_total: counter, "Requests whose verdict delta was non-empty";
    serve_perf_regressions_total: counter,
        "Requests exceeding their kind's EWMA latency baseline";
    serve_request_seconds: histogram(1e-6), "End-to-end request latency";
    serve_violations: gauge, "Violations in the current (post-request) state";
    serve_group_reuse_ratio: gauge, "Group reuse ratio of the latest request (reused/total)";
    serve_req_reuse_ratio: gauge, "Requirement reuse ratio of the latest request (reused/total)";
}

impl MetricsRegistry {
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
/// `YU_REGISTRY=0` (or `false`, or empty) or
/// [`set_registry_enabled`]`(false)` turns it off.
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
        if crate::env_flag("YU_REGISTRY") == Some(false) {
            REGISTRY_ENABLED.store(false, Ordering::Relaxed);
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
