//! # yu-telemetry
//!
//! Instrumentation for the YU symbolic verification pipeline: two sinks
//! fed from one instrument table (DESIGN.md §9).
//!
//! ## The span log: where did *this run* spend its time
//!
//! Scoped RAII stage timers ([`span`]), monotonic [`counter`]s, and
//! high-water-mark [`gauge_max`]es land in the **calling thread's log**
//! (the verifier runs on one thread), so the hot path takes no lock.
//! [`snapshot`] returns a copy of that log as a [`TelemetryReport`] —
//! one measurement window ([`reset`] opens the next, which is what lets
//! tests assert exact counts) — exported three ways:
//!
//! * [`TelemetryReport::summary_table`] — human-readable per-stage table
//!   (what `yu verify -v` prints on stderr);
//! * [`TelemetryReport::metrics_json`] — machine-readable metrics with
//!   derived rates (apply- and fused-cache hit rates, KREDUCE reduction
//!   ratio) for `--metrics-out`;
//! * [`TelemetryReport::chrome_trace_json`] — Chrome trace-event JSON
//!   (one track, `main`) for `--trace-out`, loadable in
//!   `chrome://tracing` or [Perfetto](https://ui.perfetto.dev).
//!
//! Off by default; it turns on when `YU_TRACE` or `YU_METRICS` is set
//! ([`env_flag`]: empty, `0` and `false` are off) or programmatically via
//! [`set_enabled`] (what `yu verify --trace-out` does). Every recording
//! entry point starts with one relaxed atomic load: while disabled,
//! [`span`] never reads the clock and [`counter`] never touches
//! thread-local state, so instrumented code paths cost a branch.
//!
//! ## The registry: process-lifetime totals
//!
//! Long-running deployments (`yu serve`) need the continuous view:
//!
//! * [`registry`]/[`MetricsRegistry`] — atomic [`Counter`]s, [`Gauge`]s,
//!   and fixed-bucket log-scale [`Histogram`]s (lock-free record)
//!   accumulating over the whole process. The metric set is one
//!   table in `registry.rs`; [`MetricsRegistry::descriptors`] lists it;
//! * [`snapshot_prometheus`] — Prometheus text-format exposition of the
//!   registry (what `yu serve --prom-out` writes after each request);
//! * [`emit_event`] — a leveled, structured JSON event log
//!   (`--events-out`): request lifecycle, slow requests, GC runs,
//!   verdict flips, audit failures.
//!
//! On by default (a handful of atomic adds per request) and disabled
//! with `YU_REGISTRY=0` or [`set_registry_enabled`].
//!
//! ## One call per quantity
//!
//! Twelve quantities are wanted in both sinks (routing rounds, arena
//! cache and GC counters, incremental reuse counts). Their table rows
//! name a *twin* span-log counter ([`Counter::twin`]), and
//! [`Counter::add`] feeds both sinks, each under its own gate. Both sinks
//! are observers only: runs are bit-identical in verdicts with either on
//! or off (`tests/telemetry_differential.rs`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod collector;
mod events;
mod histogram;
mod profile;
mod prometheus;
mod registry;
mod report;
mod trace;

pub use collector::{
    counter, enabled, env_flag, gauge_max, reset, set_enabled, snapshot, span, span_detail, Span,
    SpanEvent,
};
pub use events::{
    close_event_sink, emit_event, events_enabled, set_event_sink_file, set_event_sink_memory,
    take_memory_events, EventLevel,
};
pub use histogram::{bucket_bounds, bucket_index, Histogram, HistogramSnapshot};
pub use profile::FrameRow;
pub use prometheus::{render_prometheus, snapshot_prometheus};
pub use registry::{
    registry, registry_enabled, set_registry_enabled, with_registry, Counter, Gauge, MetricDesc,
    MetricKind, MetricsRegistry, RegistrySnapshot,
};
pub use report::{fmt_us, StageAgg, StageSummary, TelemetryReport, TelemetrySummary};
