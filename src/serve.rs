//! The `yu serve` session: a long-running incremental re-verification
//! daemon speaking JSON-lines.
//!
//! Protocol: one request per line —
//!
//! ```json
//! {"id": 1, "changes": [{"SetLinkCost": {"from": "A", "to": "B", "cost": 10}}]}
//! ```
//!
//! — one response per line. A successful response carries the verdict,
//! the **verdict delta** against the previous state (violations that
//! appeared and violations that resolved), per-request reuse statistics,
//! and cumulative session totals:
//!
//! ```json
//! {"id": 1, "ok": true, "verified": false, "violations": [...],
//!  "new_violations": [...], "resolved_violations": [],
//!  "stats": {"reused_groups": 5, "recomputed_groups": 1, ...},
//!  "lifetime": {"requests": 12, "verdict_flips": 2, ...}}
//! ```
//!
//! A line of the form `{"id": 9, "metrics": true}` is a **metrics
//! request**: it does not touch verifier state and answers with a
//! snapshot of the process-lifetime metrics registry plus the session's
//! [`LifetimeStats`].
//!
//! Errors never crash the session and never mutate verifier state:
//! malformed JSON yields `{"ok": false, "error": {"kind": "parse", ...}}`,
//! an unknown change kind or bad request shape yields `kind":
//! "bad_request"`, and so does a change set that [`ChangeSet::apply`]
//! cannot apply (a nonexistent router, link, flow or requirement) or
//! whose result has an error under [`lint_errors`] — the rule by which
//! `yu verify` refuses a spec file; the message is the lint's own text
//! (`error YU015: flow 0 (…): negative volume -5`). A set is committed
//! only after both pass ([`apply_valid`]).
//!
//! ## Observability
//!
//! The session is fully instrumented (see DESIGN.md §9): per-request
//! end-to-end latency and stage histograms plus reuse-ratio gauges land
//! in the [`yu_telemetry`] metrics registry, and — when an event sink is
//! configured (`yu serve --events-out`) — the session emits structured
//! `request_start` / `request_finish` / `slow_request` / `verdict_flip`
//! / `serve_error` events. Both are observers only: instrumented and
//! uninstrumented sessions produce bit-identical responses.
//!
//! The session also detects **performance regressions**: it trains an
//! EWMA latency baseline per request kind ([`EwmaBaseline`], keyed by
//! the change-set's change kind) and, once a kind's baseline is armed,
//! a request slower than `--regress-factor` times it emits a
//! `perf_regression` event and bumps `yu_serve_perf_regressions_total`.
//! Because the signal depends on wall time, it never appears in
//! response lines — those stay bit-identical run to run.

use crate::spec::{lint_errors, VerifySpec};
use serde::{Deserialize, Map, Serialize, Value};
use std::time::{Duration, Instant};
use yu_core::{DeltaStats, IncrementalVerifier, VerificationOutcome, Violation, YuOptions};
use yu_net::{Change, ChangeSet};
use yu_telemetry::EventLevel;

/// One `yu serve` request: a change-set plus an optional client-chosen
/// correlation id (echoed back in the response).
#[derive(Debug, Clone, Deserialize)]
struct Request {
    #[serde(default)]
    id: Option<i128>,
    changes: Vec<Change>,
}

/// Tunables of a serve session that are about *observing* it, not about
/// verification semantics.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Requests at least this slow emit a `slow_request` event and count
    /// into `yu_serve_slow_requests_total` (CLI: `--slow-ms`, default 1s).
    pub slow_threshold: Duration,
    /// A request is a **performance regression** when its latency
    /// exceeds this multiple of its request kind's EWMA baseline (CLI:
    /// `--regress-factor`, default 3.0). Regressions emit a
    /// `perf_regression` event and count into
    /// `yu_serve_perf_regressions_total`; they never appear in response
    /// lines, which stay wall-clock-independent.
    pub regress_factor: f64,
    /// EWMA smoothing weight of the newest latency sample.
    pub regress_alpha: f64,
    /// Samples of a kind observed before its baseline arms. The slow
    /// first requests of a cold session train the baseline instead of
    /// tripping it.
    pub regress_min_samples: u64,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            slow_threshold: Duration::from_millis(1000),
            regress_factor: 3.0,
            regress_alpha: 0.2,
            regress_min_samples: 5,
        }
    }
}

/// An exponentially-weighted moving average of request latency for one
/// request kind — the baseline of the serve regression detector.
#[derive(Debug, Clone, Copy, Default)]
pub struct EwmaBaseline {
    /// Current baseline, microseconds. Seeded by the first sample.
    pub mean_us: f64,
    /// Samples folded in so far.
    pub samples: u64,
}

impl EwmaBaseline {
    /// Whether a new sample would count as a regression against the
    /// current (pre-update) baseline: armed and exceeded by `factor`.
    pub fn regressed(&self, elapsed_us: f64, factor: f64, min_samples: u64) -> bool {
        self.samples >= min_samples && self.mean_us > 0.0 && elapsed_us > factor * self.mean_us
    }

    /// Folds a sample into the baseline. The first sample seeds the
    /// mean; later samples move it by `alpha`. Called *after*
    /// [`EwmaBaseline::regressed`], so a spike is judged against the
    /// baseline it has not yet polluted (it still trains the baseline —
    /// a persistent slowdown alarms a bounded number of times, then
    /// becomes the new normal).
    pub fn observe(&mut self, elapsed_us: f64, alpha: f64) {
        self.mean_us = if self.samples == 0 {
            elapsed_us
        } else {
            alpha * elapsed_us + (1.0 - alpha) * self.mean_us
        };
        self.samples += 1;
    }
}

/// The baseline key of a request: the change kind for homogeneous
/// change-sets (`SetLinkCost`), `"mixed"` otherwise. Latency is
/// strongly bimodal by kind (a cost change recomputes routes; a rate
/// change reuses them), so one global baseline would either miss
/// regressions of the cheap kind or false-alarm on the expensive one.
fn request_kind(cs: &ChangeSet) -> String {
    let kind_of = |c: &Change| {
        let dbg = format!("{c:?}");
        dbg.split([' ', '(', '{'])
            .next()
            .unwrap_or("change")
            .to_string()
    };
    let mut kinds = cs.changes.iter().map(kind_of);
    let Some(first) = kinds.next() else {
        return "empty".to_string();
    };
    if kinds.all(|k| k == first) {
        first
    } else {
        "mixed".to_string()
    }
}

/// Cumulative totals over the whole session — the **lifetime view**
/// that complements the per-request [`DeltaStats`] deltas. PR 7's serve
/// loop conflated the two (reuse counters were only meaningful
/// per-request); now each response carries both, and the lifetime copy
/// never resets.
#[derive(Debug, Clone, Copy, Default)]
pub struct LifetimeStats {
    /// Change-set requests answered successfully.
    pub requests: u64,
    /// Requests rejected (parse / bad-request / semantic errors).
    pub errors: u64,
    /// Sum of per-request reused flow groups.
    pub reused_groups: u64,
    /// Sum of per-request recomputed flow groups.
    pub recomputed_groups: u64,
    /// Sum of per-request cache-answered requirements.
    pub reused_reqs: u64,
    /// Sum of per-request re-checked requirements.
    pub rechecked_reqs: u64,
    /// Requests that forced a from-scratch rebuild.
    pub full_rebuilds: u64,
    /// Requests whose verdict delta was non-empty.
    pub verdict_flips: u64,
    /// Requests at or over the slow threshold.
    pub slow_requests: u64,
}

impl LifetimeStats {
    /// The JSON object embedded in responses.
    pub fn to_value(&self) -> Value {
        let mut m = Map::new();
        m.insert("requests", Value::Int(self.requests as i128));
        m.insert("errors", Value::Int(self.errors as i128));
        m.insert("reused_groups", Value::Int(self.reused_groups as i128));
        m.insert(
            "recomputed_groups",
            Value::Int(self.recomputed_groups as i128),
        );
        m.insert("reused_reqs", Value::Int(self.reused_reqs as i128));
        m.insert("rechecked_reqs", Value::Int(self.rechecked_reqs as i128));
        m.insert("full_rebuilds", Value::Int(self.full_rebuilds as i128));
        m.insert("verdict_flips", Value::Int(self.verdict_flips as i128));
        m.insert("slow_requests", Value::Int(self.slow_requests as i128));
        Value::Map(m)
    }
}

/// A long-running incremental verification session.
pub struct ServeSession {
    inc: IncrementalVerifier,
    /// Violations of the current state (baseline of the next delta).
    violations: Vec<Violation>,
    config: ServeConfig,
    lifetime: LifetimeStats,
    /// Per-request-kind latency baselines of the regression detector.
    baselines: std::collections::BTreeMap<String, EwmaBaseline>,
}

impl ServeSession {
    /// Builds the session from a base spec: executes all flows, as a
    /// batch run does, and verifies once to establish the baseline
    /// verdict.
    pub fn new(spec: &VerifySpec, opts: YuOptions) -> ServeSession {
        ServeSession::with_config(spec, opts, ServeConfig::default())
    }

    /// [`ServeSession::new`] with explicit observability tunables.
    pub fn with_config(spec: &VerifySpec, opts: YuOptions, config: ServeConfig) -> ServeSession {
        let mut inc = IncrementalVerifier::new(
            spec.network.clone(),
            spec.flows.clone(),
            spec.tlp.clone(),
            opts,
        );
        let out = inc.verify();
        ServeSession {
            inc,
            violations: out.violations,
            config,
            lifetime: LifetimeStats::default(),
            baselines: std::collections::BTreeMap::new(),
        }
    }

    /// The incremental verifier (tests).
    pub fn verifier(&self) -> &IncrementalVerifier {
        &self.inc
    }

    /// Cumulative session totals so far.
    pub fn lifetime(&self) -> LifetimeStats {
        self.lifetime
    }

    /// The latency baseline trained for one request kind, if any
    /// request of that kind has been answered.
    pub fn baseline(&self, kind: &str) -> Option<EwmaBaseline> {
        self.baselines.get(kind).copied()
    }

    /// The banner printed when the session starts: a single JSON line
    /// announcing readiness and the baseline verdict.
    pub fn ready_line(&self) -> String {
        let net = self.inc.network();
        let mut m = Map::new();
        m.insert("ready", Value::Bool(true));
        m.insert("routers", Value::Int(net.topo.num_routers() as i128));
        m.insert("links", Value::Int(net.topo.num_ulinks() as i128));
        m.insert("flows", Value::Int(self.inc.flows().len() as i128));
        m.insert("reqs", Value::Int(self.inc.tlp().reqs.len() as i128));
        m.insert("verified", Value::Bool(self.violations.is_empty()));
        m.insert("violations", Value::Int(self.violations.len() as i128));
        Value::Map(m).to_string()
    }

    /// Handles one request line and returns one response line. Never
    /// panics on bad input; errors leave the verifier state untouched.
    pub fn handle_line(&mut self, line: &str) -> String {
        let t0 = Instant::now();
        let _req_span = yu_telemetry::span("serve.request");
        // Stage 1: is the line JSON at all?
        let value: Value = match serde_json::from_str(line) {
            Ok(v) => v,
            Err(e) => return self.request_error(Value::Null, "parse", &e.to_string()),
        };
        let id = value
            .as_object()
            .and_then(|m| m.get("id"))
            .cloned()
            .unwrap_or(Value::Null);
        // Metrics requests answer from the registry without touching
        // verifier state (and without counting as change requests).
        if value
            .as_object()
            .and_then(|m| m.get("metrics"))
            .is_some_and(|v| !matches!(v, Value::Bool(false) | Value::Null))
        {
            return metrics_line(id, &self.lifetime);
        }
        // Stage 2: does it have the request shape (known change kinds)?
        let req: Request = match serde_json::from_str(line) {
            Ok(r) => r,
            Err(e) => return self.request_error(id, "bad_request", &e.to_string()),
        };
        let id = req.id.map(Value::Int).unwrap_or(id);
        let cs = ChangeSet {
            changes: req.changes,
        };
        if yu_telemetry::events_enabled() {
            yu_telemetry::emit_event(
                EventLevel::Info,
                "request_start",
                vec![
                    ("id", id.clone()),
                    ("changes", Value::Int(cs.changes.len() as i128)),
                ],
            );
        }
        // Stage 3: apply atomically; a set naming what does not exist, or
        // whose result `yu lint` rejects, is refused before anything is
        // touched.
        let kind = request_kind(&cs);
        match apply_valid(&mut self.inc, &cs) {
            Ok(out) => {
                let delta = self.inc.delta_stats();
                let (new_v, resolved) = violation_delta(&self.violations, &out.violations);
                self.record_success(&id, &kind, &out, &new_v, &resolved, delta, t0.elapsed());
                let line = success_line(id, &out, &new_v, &resolved, delta, &self.lifetime);
                self.violations = out.violations;
                line
            }
            Err(message) => self.request_error(id, "bad_request", &message),
        }
    }

    /// Books a successful request into the lifetime totals, the metrics
    /// registry, and the event log. Pure observation: called after the
    /// outcome is computed, before the response is rendered.
    #[allow(clippy::too_many_arguments)]
    fn record_success(
        &mut self,
        id: &Value,
        kind: &str,
        out: &VerificationOutcome,
        new_v: &[Violation],
        resolved: &[Violation],
        delta: DeltaStats,
        elapsed: Duration,
    ) {
        let flipped = !new_v.is_empty() || !resolved.is_empty();
        let slow = elapsed >= self.config.slow_threshold;
        // Regression detection: judge against the pre-update baseline,
        // then train it. Wall-clock-dependent, so the signal goes only
        // to the registry and the event log — response lines stay
        // deterministic.
        let elapsed_us = elapsed.as_micros() as f64;
        let baseline = self.baselines.entry(kind.to_string()).or_default();
        let regressed = baseline.regressed(
            elapsed_us,
            self.config.regress_factor,
            self.config.regress_min_samples,
        );
        let baseline_us = baseline.mean_us;
        baseline.observe(elapsed_us, self.config.regress_alpha);
        if regressed {
            yu_telemetry::with_registry(|r| r.serve_perf_regressions_total.inc());
            if yu_telemetry::events_enabled() {
                yu_telemetry::emit_event(
                    EventLevel::Warn,
                    "perf_regression",
                    vec![
                        ("id", id.clone()),
                        ("kind", Value::Str(kind.to_string())),
                        ("elapsed_us", Value::Int(elapsed.as_micros() as i128)),
                        ("baseline_us", Value::Int(baseline_us as i128)),
                        ("factor", Value::Float(self.config.regress_factor)),
                    ],
                );
            }
        }
        let lt = &mut self.lifetime;
        lt.requests += 1;
        lt.reused_groups += delta.reused_groups as u64;
        lt.recomputed_groups += delta.recomputed_groups as u64;
        lt.reused_reqs += delta.reused_reqs as u64;
        lt.rechecked_reqs += delta.rechecked_reqs as u64;
        lt.full_rebuilds += u64::from(delta.full_rebuild);
        lt.verdict_flips += u64::from(flipped);
        lt.slow_requests += u64::from(slow);
        yu_telemetry::with_registry(|r| {
            r.serve_requests_total.inc();
            r.serve_request_seconds.record(elapsed.as_micros() as u64);
            if slow {
                r.serve_slow_requests_total.inc();
            }
            if flipped {
                r.serve_verdict_flips_total.inc();
            }
            r.serve_violations.set_u64(out.violations.len() as u64);
            let groups = delta.reused_groups + delta.recomputed_groups;
            if groups > 0 {
                r.serve_group_reuse_ratio
                    .set(delta.reused_groups as f64 / groups as f64);
            }
            let reqs = delta.reused_reqs + delta.rechecked_reqs;
            if reqs > 0 {
                r.serve_req_reuse_ratio
                    .set(delta.reused_reqs as f64 / reqs as f64);
            }
        });
        if yu_telemetry::events_enabled() {
            yu_telemetry::emit_event(
                EventLevel::Info,
                "request_finish",
                vec![
                    ("id", id.clone()),
                    ("verified", Value::Bool(out.verified())),
                    ("violations", Value::Int(out.violations.len() as i128)),
                    ("new_violations", Value::Int(new_v.len() as i128)),
                    ("resolved_violations", Value::Int(resolved.len() as i128)),
                    ("elapsed_us", Value::Int(elapsed.as_micros() as i128)),
                ],
            );
            if slow {
                yu_telemetry::emit_event(
                    EventLevel::Warn,
                    "slow_request",
                    vec![
                        ("id", id.clone()),
                        ("elapsed_us", Value::Int(elapsed.as_micros() as i128)),
                        (
                            "threshold_us",
                            Value::Int(self.config.slow_threshold.as_micros() as i128),
                        ),
                    ],
                );
            }
            if flipped {
                let topo = &self.inc.network().topo;
                let points = |vs: &[Violation]| {
                    Value::Seq(
                        vs.iter()
                            .map(|v| Value::Str(v.point.describe(topo)))
                            .collect(),
                    )
                };
                yu_telemetry::emit_event(
                    EventLevel::Warn,
                    "verdict_flip",
                    vec![
                        ("id", id.clone()),
                        ("new_points", points(new_v)),
                        ("resolved_points", points(resolved)),
                    ],
                );
            }
        }
    }

    /// Books a rejected request and renders the error response.
    fn request_error(&mut self, id: Value, kind: &'static str, message: &str) -> String {
        self.lifetime.errors += 1;
        yu_telemetry::with_registry(|r| r.serve_request_errors_total.inc());
        if yu_telemetry::events_enabled() {
            yu_telemetry::emit_event(
                EventLevel::Warn,
                "serve_error",
                vec![
                    ("id", id.clone()),
                    ("error_kind", Value::Str(kind.to_string())),
                    ("message", Value::Str(message.to_string())),
                ],
            );
        }
        error_line(id, kind, message)
    }
}

/// Commits a change set the way a session does: [`ChangeSet::apply`]
/// builds the new state, [`lint_errors`] refuses it if it has any error
/// (the message is the lint's own text, diagnostics joined by `; `), and
/// only then [`IncrementalVerifier::set_state`] commits it. A refused set
/// leaves `inc` untouched.
pub fn apply_valid(
    inc: &mut IncrementalVerifier,
    cs: &ChangeSet,
) -> Result<VerificationOutcome, String> {
    let (net, flows, tlp, _) = cs
        .apply(inc.network(), inc.flows(), inc.tlp())
        .map_err(|e| e.to_string())?;
    let opts = inc.verifier().options();
    let errors = lint_errors(&net, &flows, &tlp, opts.k, opts.mode);
    if !errors.is_empty() {
        let message: Vec<String> = errors.iter().map(ToString::to_string).collect();
        return Err(message.join("; "));
    }
    Ok(inc.set_state(net, flows, tlp, opts))
}

/// The structured error response (one line).
fn error_line(id: Value, kind: &str, message: &str) -> String {
    let mut err = Map::new();
    err.insert("kind", Value::Str(kind.to_string()));
    err.insert("message", Value::Str(message.to_string()));
    let mut root = Map::new();
    root.insert("id", id);
    root.insert("ok", Value::Bool(false));
    root.insert("error", Value::Map(err));
    Value::Map(root).to_string()
}

/// The metrics response: a registry snapshot plus session totals.
fn metrics_line(id: Value, lifetime: &LifetimeStats) -> String {
    let mut root = Map::new();
    root.insert("id", id);
    root.insert("ok", Value::Bool(true));
    root.insert("metrics", yu_telemetry::registry().snapshot().to_value());
    root.insert("lifetime", lifetime.to_value());
    Value::Map(root).to_string()
}

/// The success response (one line): verdict, verdict delta against the
/// previous state, per-request reuse statistics, and lifetime totals.
fn success_line(
    id: Value,
    out: &VerificationOutcome,
    new_v: &[Violation],
    resolved: &[Violation],
    delta: DeltaStats,
    lifetime: &LifetimeStats,
) -> String {
    let mut root = Map::new();
    root.insert("id", id);
    root.insert("ok", Value::Bool(true));
    root.insert("verified", Value::Bool(out.verified()));
    root.insert("violations", out.violations.to_value());
    root.insert("new_violations", new_v.to_value());
    root.insert("resolved_violations", resolved.to_value());
    root.insert("stats", stats_value(out, delta));
    root.insert("lifetime", lifetime.to_value());
    Value::Map(root).to_string()
}

/// Splits the verdict delta: violations present now but not before, and
/// violations present before but resolved now. Compared structurally
/// (point, scenario, load, bounds) — outcomes are bit-identical to
/// scratch runs, so equality is exact.
pub fn violation_delta(
    previous: &[Violation],
    current: &[Violation],
) -> (Vec<Violation>, Vec<Violation>) {
    let new_v = current
        .iter()
        .filter(|v| !previous.contains(v))
        .cloned()
        .collect();
    let resolved = previous
        .iter()
        .filter(|v| !current.contains(v))
        .cloned()
        .collect();
    (new_v, resolved)
}

/// The per-request statistics object: the run scalars
/// ([`yu_core::RunStats::scalars`]) plus the reuse counters.
pub fn stats_value(out: &VerificationOutcome, delta: DeltaStats) -> Value {
    let mut stats = out.stats.scalars();
    for (key, n) in [
        ("reused_groups", delta.reused_groups),
        ("recomputed_groups", delta.recomputed_groups),
        ("reused_reqs", delta.reused_reqs),
        ("rechecked_reqs", delta.rechecked_reqs),
        ("dirty_points", delta.dirty_points),
        ("delta_loads", delta.delta_loads),
        ("reused_loads", delta.reused_loads),
    ] {
        stats.insert(key, Value::Int(n as i128));
    }
    stats.insert("full_rebuild", Value::Bool(delta.full_rebuild));
    Value::Map(stats)
}

/// Shared by `yu diff` and `Change` consumers: a change-set parsed from a
/// JSON string (the line format of the serve protocol's `changes` field).
pub fn parse_changes(json: &str) -> Result<Vec<Change>, serde_json::Error> {
    serde_json::from_str(json)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ewma_baseline_arms_then_trips_then_retrains() {
        let (factor, alpha, min) = (3.0, 0.2, 5);
        let mut b = EwmaBaseline::default();
        // Training: the first `min` samples never trip, even wild ones.
        for us in [100.0, 5000.0, 120.0, 80.0, 110.0] {
            assert!(!b.regressed(us, factor, min));
            b.observe(us, alpha);
        }
        assert_eq!(b.samples, 5);
        // Armed: a sample within factor x baseline passes...
        assert!(!b.regressed(b.mean_us * 2.9, factor, min));
        // ...one beyond it trips.
        assert!(b.regressed(b.mean_us * 3.1, factor, min));
        // A persistent slowdown becomes the new normal: keep observing
        // the elevated latency and the alarm eventually clears.
        let slow = b.mean_us * 4.0;
        let mut alarms = 0;
        for _ in 0..40 {
            if b.regressed(slow, factor, min) {
                alarms += 1;
            }
            b.observe(slow, alpha);
        }
        assert!(alarms > 0, "the slowdown must alarm at first");
        assert!(
            !b.regressed(slow, factor, min),
            "after retraining the elevated latency is the baseline"
        );
        assert!(alarms < 40, "the alarm must not be permanent");
    }

    #[test]
    fn ewma_first_sample_seeds_the_mean() {
        let mut b = EwmaBaseline::default();
        b.observe(250.0, 0.2);
        assert_eq!(b.mean_us, 250.0);
        b.observe(350.0, 0.5);
        assert_eq!(b.mean_us, 300.0);
    }

    #[test]
    fn request_kind_keys_homogeneous_sets_by_change_kind() {
        let cost = |c: u64| Change::SetLinkCost {
            from: "A".into(),
            to: "B".into(),
            index: 0,
            cost: c,
        };
        let remove = Change::RemoveRouter { router: "A".into() };
        let kind = |changes: Vec<Change>| request_kind(&ChangeSet { changes });
        assert_eq!(kind(vec![]), "empty");
        assert_eq!(kind(vec![cost(5)]), "SetLinkCost");
        assert_eq!(kind(vec![cost(5), cost(7)]), "SetLinkCost");
        assert_eq!(kind(vec![cost(5), remove]), "mixed");
    }
}
