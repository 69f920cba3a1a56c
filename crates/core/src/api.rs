//! The high-level YU verifier API.
//!
//! ```text
//! let mut yu = YuVerifier::new(network, YuOptions { k: 2, ..Default::default() });
//! yu.add_flows(&flows);
//! let outcome = yu.verify(&tlp);
//! ```
//!
//! `YuVerifier` owns the MTBDD manager, the failure variables, the guarded
//! routing state, and the per-flow-group symbolic traffic fractions; it
//! implements the full pipeline of the paper's Fig. 2 — symbolic route
//! simulation, symbolic traffic execution with k-failure MTBDD reduction,
//! link-local flow-equivalence aggregation, and terminal-scan TLP checking
//! with counterexample extraction. The incremental engine
//! ([`crate::delta::IncrementalVerifier`]) keeps one verifier alive across
//! edits and re-executes its groups on the same arena.

use crate::attribution::{Attribution, PhaseAttribution};
use crate::check::LoadCache;
use crate::equivalence::{keyed_groups, without_keys, AggStats, FlowGroup};
use crate::exec::FlowStf;
use crate::verify::Violation;
use std::collections::HashMap;
use std::time::{Duration, Instant};
use yu_mtbdd::{Mtbdd, MtbddStats, NodeRef, Ratio, Term};
use yu_net::{FailureMode, FailureVars, Flow, LoadPoint, Network, Scenario, Tlp};
use yu_routing::SymbolicRoutes;

/// Configuration of a verification run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct YuOptions {
    /// Maximum number of simultaneous failures to verify against.
    pub k: u32,
    /// What can fail (links, routers, or both).
    pub mode: FailureMode,
    /// Apply KREDUCE throughout (disable only for the Fig. 15/16 ablation).
    pub use_kreduce: bool,
    /// Use link-local flow-equivalence aggregation (§5.3).
    pub use_link_local_equiv: bool,
    /// Group globally equivalent flows before execution (§6).
    pub use_global_equiv: bool,
    /// TTL bound of symbolic traffic execution.
    pub max_hops: usize,
    /// The floor of the check's garbage collections: a per-requirement
    /// checkpoint collects once the arena holds at least this many nodes
    /// and at least twice the live set of the last collection.
    /// Aggregating per-link loads creates large transient diagrams (the
    /// paper's Fig. 18 blow-up); collecting between links bounds the
    /// working set. The collections where route simulation and traffic
    /// execution end have no floor (they collect once the arena has
    /// doubled). 0 disables every collection, those included.
    pub gc_node_threshold: usize,
    /// Ignored. Flow groups always execute on the verifier's own arena
    /// (DESIGN.md §8): a sharded execution recomputed the routing state
    /// per worker and never paid. The field stays, set to 1 by `Default`,
    /// only because the benchmark package still writes it.
    pub workers: usize,
    /// Ignored. Requirements are always checked on the verifier's own
    /// arena, one after another (DESIGN.md §8): a sharded check paid for
    /// its speed-up, where it had one, with a per-worker copy of the
    /// arena. The field stays, set to 1 by `Default`, only because the
    /// benchmark package still writes it.
    pub check_workers: usize,
    /// Ignored, like [`YuOptions::check_workers`]; set to `false` by
    /// `Default` and kept only because the benchmark package still
    /// writes it.
    pub check_workers_auto: bool,
}

impl Default for YuOptions {
    fn default() -> Self {
        YuOptions {
            k: 1,
            mode: FailureMode::Links,
            use_kreduce: true,
            use_link_local_equiv: true,
            use_global_equiv: true,
            max_hops: yu_net::DEFAULT_MAX_HOPS,
            gc_node_threshold: 4_000_000,
            workers: 1,
            check_workers: 1,
            check_workers_auto: false,
        }
    }
}

/// Wall-clock and size statistics of a run.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// Time spent in symbolic route simulation.
    pub route_time: Duration,
    /// Time spent in symbolic traffic execution.
    pub exec_time: Duration,
    /// Time spent aggregating loads and checking TLPs.
    pub check_time: Duration,
    /// Flows added (before global grouping).
    pub flows_in: usize,
    /// Flow groups executed symbolically.
    pub flow_groups: usize,
    /// Requirements of this run the check stage decided from the terminal
    /// ranges of the flows at their load point, without building the
    /// aggregated load (see `check::bound_holds`). Requirements answered
    /// from an incremental verdict cache are not counted.
    pub reqs_bound_decided: usize,
    /// MTBDD manager statistics after the run.
    pub mtbdd: MtbddStats,
    /// Per-point aggregation statistics (flows vs equivalence classes) —
    /// the data behind Figs. 13 and 14.
    pub per_point: HashMap<LoadPoint, AggStats>,
    /// Telemetry digest of the run (stage timings, counters, derived
    /// cache rates). `None` unless telemetry was enabled (`YU_TRACE`,
    /// `YU_METRICS`, or `yu_telemetry::set_enabled`).
    pub telemetry: Option<yu_telemetry::TelemetrySummary>,
}

impl RunStats {
    /// The run scalars as the JSON map every front end embeds under
    /// `stats` (`yu verify`/`profile`/`diff --json`, serve responses):
    /// stage wall-clocks in seconds, then the flow, group and
    /// bound-decided counts. Front ends add their own entries (arena
    /// maps, reuse counters) next to these.
    pub fn scalars(&self) -> serde::Map {
        let mut m = serde::Map::new();
        for (key, t) in [
            ("route_secs", self.route_time),
            ("exec_secs", self.exec_time),
            ("check_secs", self.check_time),
        ] {
            m.insert(key, serde::Value::Float(t.as_secs_f64()));
        }
        for (key, n) in [
            ("flows_in", self.flows_in),
            ("flow_groups", self.flow_groups),
            ("reqs_bound_decided", self.reqs_bound_decided),
        ] {
            m.insert(key, serde::Value::Int(n as i128));
        }
        m
    }
}

/// Outcome of verifying one TLP.
#[derive(Debug, Clone)]
pub struct VerificationOutcome {
    /// Violations found (at most one per requirement; empty = verified).
    pub violations: Vec<Violation>,
    /// Statistics of this run.
    pub stats: RunStats,
}

impl VerificationOutcome {
    /// Whether the TLP holds under all `≤ k`-failure scenarios.
    pub fn verified(&self) -> bool {
        self.violations.is_empty()
    }
}

/// The YU verifier: symbolic state for one network plus executed flows.
pub struct YuVerifier {
    pub(crate) m: Mtbdd,
    pub(crate) net: Network,
    pub(crate) fv: FailureVars,
    pub(crate) routes: SymbolicRoutes,
    pub(crate) opts: YuOptions,
    pub(crate) groups: Vec<FlowGroup>,
    pub(crate) results: Vec<FlowStf>,
    pub(crate) flows_in: usize,
    pub(crate) route_time: Duration,
    pub(crate) exec_time: Duration,
    pub(crate) load_cache: LoadCache,
    live_after_gc: usize,
    /// Cumulative arena counters as of the last `verify`, so repeated
    /// calls forward deltas, not re-counts. One mark for both sinks: it
    /// advances whether or not either records.
    arena_reported: [u64; 6],
    /// Per-flow-group execution costs since the last
    /// `reset_run_counters`, accumulated across `add_flows` calls.
    pub(crate) exec_attr: PhaseAttribution,
    /// Per-requirement check costs of the last verify call.
    pub(crate) check_attr: PhaseAttribution,
    /// Inner nodes the symbolic route simulation created.
    route_nodes: u64,
}

impl YuVerifier {
    /// Builds the verifier: allocates failure variables and runs symbolic
    /// route simulation (guarded RIBs and SR policies), then collects what
    /// the simulation left unreachable from the routes.
    pub fn new(net: Network, opts: YuOptions) -> YuVerifier {
        let mut m = Mtbdd::new();
        let fv = FailureVars::allocate(&mut m, &net.topo, opts.mode);
        let t0 = Instant::now();
        let k = opts.use_kreduce.then_some(opts.k);
        let routes = {
            let _stage = yu_telemetry::span("route_sim");
            SymbolicRoutes::compute(&mut m, &net, &fv, k)
        };
        let route_nodes = m.nodes_created() as u64;
        let mut yu = YuVerifier {
            m,
            net,
            fv,
            routes,
            opts,
            groups: Vec::new(),
            results: Vec::new(),
            flows_in: 0,
            route_time: Duration::ZERO,
            exec_time: Duration::ZERO,
            load_cache: LoadCache::default(),
            live_after_gc: 0,
            arena_reported: [0; 6],
            exec_attr: PhaseAttribution::default(),
            check_attr: PhaseAttribution::default(),
            route_nodes,
        };
        // Route simulation leaves most of what it built unreachable from
        // the routes; collect it before execution builds on top.
        yu.maybe_gc(&mut [], 0);
        yu.route_time = t0.elapsed();
        yu.audit_checkpoint("after symbolic route simulation");
        yu
    }

    /// Audits the MTBDD manager against every live root this verifier
    /// holds (routing guards, flow STFs, cached per-point loads). Cheap
    /// enough for tests; see [`yu_mtbdd::AuditReport`].
    pub fn audit(&self) -> yu_mtbdd::AuditReport {
        self.m.audit(&self.live_roots(true))
    }

    /// Every live root this verifier holds: routing guards, flow STFs,
    /// and (when `include_load_cache`) the cached per-point loads. The
    /// root set of GC, auditing, and the arena level profile.
    pub(crate) fn live_roots(&self, include_load_cache: bool) -> Vec<NodeRef> {
        let mut roots = Vec::new();
        self.routes.gc_roots(&mut roots);
        for stf in &self.results {
            stf.gc_roots(&mut roots);
        }
        if include_load_cache {
            roots.extend(self.load_cache.loads().map(|(_, load)| load.tau));
        }
        roots
    }

    /// Runs [`Self::audit`] and panics on violations when auditing is
    /// enabled (`YU_AUDIT=1` or a `debug_assertions` build).
    pub(crate) fn audit_checkpoint(&self, context: &str) {
        if yu_mtbdd::audit_enabled() {
            let report = self.audit();
            if !report.ok() && yu_telemetry::events_enabled() {
                // Emit before assert_ok panics, so an operator tailing
                // the event log sees why the daemon died.
                yu_telemetry::emit_event(
                    yu_telemetry::EventLevel::Error,
                    "audit_failure",
                    vec![
                        ("context", serde::Value::Str(context.to_string())),
                        (
                            "violations",
                            serde::Value::Int(report.violations.len() as i128),
                        ),
                    ],
                );
            }
            report.assert_ok(context);
        }
    }

    /// Garbage-collects the MTBDD arena once it holds at least twice the
    /// live set of the last collection and at least `floor` nodes,
    /// remapping all long-lived state (routing guards, flow STFs) and
    /// `extra`. Cached per-point loads are dropped. The stage boundaries
    /// pass a floor of 0, the check's checkpoints
    /// [`YuOptions::gc_node_threshold`]; a threshold of 0 disables both.
    pub(crate) fn maybe_gc(&mut self, extra: &mut [NodeRef], floor: usize) {
        if self.opts.gc_node_threshold == 0 {
            return;
        }
        // Doubling keeps GC work amortized O(total allocation) instead of
        // thrashing when the live set is large.
        let before = self.m.live_nodes();
        if before < (self.live_after_gc * 2).max(floor) {
            return;
        }
        let mut roots = self.live_roots(false);
        roots.extend(extra.iter().copied());
        let t_gc = Instant::now();
        let remap = self.m.collect(&roots);
        self.routes.remap(&remap);
        for stf in &mut self.results {
            stf.remap(&remap);
        }
        for n in extra.iter_mut() {
            *n = remap.get(*n);
        }
        self.load_cache.clear();
        let live = self.m.live_nodes();
        if yu_telemetry::events_enabled() {
            yu_telemetry::emit_event(
                yu_telemetry::EventLevel::Info,
                "gc",
                vec![
                    ("nodes_before", serde::Value::Int(before as i128)),
                    ("nodes_after", serde::Value::Int(live as i128)),
                    (
                        "reclaimed",
                        serde::Value::Int(before.saturating_sub(live) as i128),
                    ),
                    (
                        "elapsed_us",
                        serde::Value::Int(t_gc.elapsed().as_micros() as i128),
                    ),
                ],
            );
        }
        self.live_after_gc = live;
    }

    /// The network being verified.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// The options of this run.
    pub fn options(&self) -> YuOptions {
        self.opts
    }

    /// The failure-variable allocation (for decoding scenarios).
    pub fn failure_vars(&self) -> &FailureVars {
        &self.fv
    }

    /// Current MTBDD manager statistics.
    pub fn mtbdd_stats(&self) -> MtbddStats {
        self.m.stats()
    }

    /// Adds flows and runs symbolic traffic execution for each (group of)
    /// them, then collects what execution left unreachable. May be called
    /// repeatedly; loads are re-aggregated lazily.
    pub fn add_flows(&mut self, flows: &[Flow]) {
        self.flows_in += flows.len();
        let groups = without_keys(keyed_groups(
            &self.routes.dst_classes,
            self.opts.use_global_equiv,
            flows,
        ));
        let t0 = Instant::now();
        let exec_span = yu_telemetry::span("exec");
        for g in groups {
            let stf = self.execute(&g);
            self.groups.push(g);
            self.results.push(stf);
        }
        self.load_cache.clear();
        // Only the STFs and the routes are read from here on.
        self.maybe_gc(&mut [], 0);
        drop(exec_span);
        self.book_exec_time(t0.elapsed());
        self.audit_checkpoint("after symbolic traffic execution");
    }

    /// Books wall-clock spent executing flow groups (batch or incremental).
    pub(crate) fn book_exec_time(&mut self, elapsed: Duration) {
        self.exec_attr.wall_us += elapsed.as_micros() as u64;
        self.exec_time += elapsed;
    }

    /// The aggregated symbolic traffic load at `point`
    /// (`τ = Σ V_f · ω_f`, cached).
    ///
    /// The returned handle is only valid until the next call that may
    /// trigger garbage collection (any other `load_*`, `add_flows` or
    /// `verify` call); evaluate or copy what you need before calling back
    /// in.
    pub fn load_mtbdd(&mut self, point: LoadPoint) -> NodeRef {
        let opts = self.opts;
        crate::check::load(self, &opts, point).0
    }

    /// The concrete load at `point` under `scenario`, evaluated from the
    /// symbolic load.
    pub fn load_at(&mut self, point: LoadPoint, scenario: &Scenario) -> Ratio {
        let tau = self.load_mtbdd(point);
        match self.m.eval(tau, self.fv.assignment(scenario)) {
            Term::Num(v) => v,
            Term::PosInf => unreachable!("traffic loads are finite"),
        }
    }

    /// Zeroes the per-run wall-clock and input counters (`route_time`,
    /// `exec_time`, `flows_in`). The incremental engine calls this at the
    /// start of every request so each [`RunStats`] reports that request's
    /// own work instead of accumulating across the daemon's lifetime.
    pub fn reset_run_counters(&mut self) {
        self.route_time = Duration::ZERO;
        self.exec_time = Duration::ZERO;
        self.flows_in = 0;
        self.exec_attr = PhaseAttribution::default();
    }

    /// Where the nodes and the time went (see [`crate::attribution`]):
    /// one cost per flow group executed since the last
    /// [`Self::reset_run_counters`], one per requirement the last
    /// verify call checked, and the arena's level and cache profiles
    /// over every root the verifier holds. Built on demand from what
    /// execution and the check record anyway; reading it changes
    /// nothing.
    pub fn attribution(&self) -> Attribution {
        Attribution {
            route_nodes: self.route_nodes,
            exec: self.exec_attr.clone(),
            check: self.check_attr.clone(),
            levels: self.m.level_profile(&self.live_roots(true)),
            caches: self.m.cache_profiles(),
        }
    }

    /// Verifies a TLP, returning violations (empty = property holds under
    /// every scenario with at most `k` failures) and run statistics.
    pub fn verify(&mut self, tlp: &Tlp) -> VerificationOutcome {
        self.verify_enumerated(tlp, 1)
    }

    /// Like [`Self::verify`], but collects up to `max_violations`
    /// distinct violating scenarios *per requirement* instead of just the
    /// first counterexample. The combined list is deduped on
    /// `(point, scenario)` and sorted by failure count, then point, then
    /// scenario, so the cheapest triggers lead and the output is stable.
    /// `max_violations <= 1` is exactly [`Self::verify`]: one
    /// counterexample per violated requirement, in requirement order.
    pub fn verify_enumerated(&mut self, tlp: &Tlp, max_violations: usize) -> VerificationOutcome {
        self.verify_with(tlp, max_violations, None)
    }

    /// Tail of [`Self::verify_with`]: audits, bridges telemetry, and
    /// assembles the outcome with run statistics.
    pub(crate) fn finish_outcome(
        &mut self,
        violations: Vec<Violation>,
        per_point: HashMap<LoadPoint, AggStats>,
        check_time: Duration,
        reqs_checked: usize,
        reqs_bound_decided: usize,
    ) -> VerificationOutcome {
        self.audit_checkpoint("after TLP check");
        let telemetry = self.bridge(check_time, reqs_checked, reqs_bound_decided);
        self.check_attr.wall_us = check_time.as_micros() as u64;
        VerificationOutcome {
            violations,
            stats: RunStats {
                route_time: self.route_time,
                exec_time: self.exec_time,
                check_time,
                flows_in: self.flows_in,
                flow_groups: self.groups.len(),
                reqs_bound_decided,
                mtbdd: self.m.stats(),
                per_point,
                telemetry,
            },
        }
    }

    /// Bridges per-run statistics into both observability sinks and
    /// returns the span digest (`None` when the span collector is off).
    /// Counters — run/requirement totals and the growth of the six
    /// cumulative arena counters since the last call — go through the
    /// instrument table, which feeds the registry and, for twin rows, the
    /// span log, each under its own gate; stage histograms and arena
    /// gauges go to the registry. Both sinks are observers only — nothing
    /// here feeds back into verification, so runs are bit-identical with
    /// either on or off.
    fn bridge(
        &mut self,
        check_time: Duration,
        reqs_checked: usize,
        reqs_bound_decided: usize,
    ) -> Option<yu_telemetry::TelemetrySummary> {
        let r = yu_telemetry::registry();
        r.verify_runs_total.inc();
        r.reqs_checked_total.add(reqs_checked as u64);
        r.reqs_bound_decided_total.add(reqs_bound_decided as u64);
        let now = self.m.stats();
        let arena = [
            (&r.mtbdd_apply_cache_hits_total, now.apply_cache_hits),
            (&r.mtbdd_apply_cache_misses_total, now.apply_cache_misses),
            (&r.mtbdd_fused_cache_hits_total, now.fused_cache_hits),
            (&r.mtbdd_fused_cache_misses_total, now.fused_cache_misses),
            (&r.mtbdd_gc_runs_total, now.gc_runs),
            (&r.mtbdd_gc_reclaimed_nodes_total, now.gc_reclaimed_nodes),
        ];
        for ((total, value), reported) in arena.into_iter().zip(&mut self.arena_reported) {
            total.add(value.saturating_sub(*reported));
            *reported = value;
        }
        yu_telemetry::with_registry(|r| {
            r.stage_route_seconds
                .record(self.route_time.as_micros() as u64);
            r.stage_exec_seconds
                .record(self.exec_time.as_micros() as u64);
            r.stage_check_seconds.record(check_time.as_micros() as u64);
            let live = self.m.live_nodes() as u64;
            r.mtbdd_live_nodes.set_u64(live);
            r.mtbdd_live_nodes_hist.record(live);
            r.mtbdd_unique_table_load_factor
                .set(self.m.unique_table_load_factor());
            r.mtbdd_arena_bytes.set_u64(self.m.arena_bytes() as u64);
            if let Some(rate) = now.apply_cache_hit_rate() {
                r.mtbdd_apply_cache_hit_rate.set(rate);
            }
            if let Some(rate) = now.fused_cache_hit_rate() {
                r.mtbdd_fused_cache_hit_rate.set(rate);
            }
        });
        yu_telemetry::gauge_max("mtbdd.unique_table_peak", now.unique_table_peak as u64);
        yu_telemetry::enabled().then(|| yu_telemetry::snapshot().summary())
    }

    /// Convenience: verifies "no directed link exceeds `fraction` of its
    /// capacity".
    pub fn verify_no_overload(&mut self, fraction: Ratio) -> VerificationOutcome {
        let tlp = Tlp::no_overload(&self.net.topo, fraction);
        self.verify(&tlp)
    }

    /// Direct access to the per-group symbolic results (for tests and the
    /// figure harness), in deterministic order: sorted by the
    /// representative flow's identity `(ingress, dst, dscp, src)`, not by
    /// insertion or hash order, so iteration is stable across `add_flows`
    /// batching and input permutations.
    pub fn flow_results(&self) -> impl Iterator<Item = (&FlowGroup, &FlowStf)> {
        let mut order: Vec<usize> = (0..self.groups.len()).collect();
        order.sort_by_key(|&i| {
            let f = &self.groups[i].rep;
            (f.ingress, f.dst, f.dscp, f.src)
        });
        order
            .into_iter()
            .map(move |i| (&self.groups[i], &self.results[i]))
    }

    /// Mutable access to the manager (tests and the figure harness only).
    pub fn manager_mut(&mut self) -> &mut Mtbdd {
        &mut self.m
    }

    /// Immutable access to the manager.
    pub fn manager(&self) -> &Mtbdd {
        &self.m
    }
}
