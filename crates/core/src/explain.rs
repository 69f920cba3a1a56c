//! Violation forensics: turning a bare counterexample into an
//! inspectable, self-verifying explanation.
//!
//! A [`crate::Violation`] names a `≤ k`-failure scenario and a load, but
//! not *which flows* produce that load, *how* they were rerouted, or any
//! independent evidence that the symbolic number is right. This module
//! produces an [`Explanation`] per violation with four parts:
//!
//! 1. **Per-flow blame** — every flow group's symbolic traffic fraction
//!    at the violating point is restricted to the counterexample
//!    scenario ([`yu_net::FailureVars::assignment`] + [`Mtbdd::eval`]).
//!    Because the aggregated load is `τ = Σ V_f · ω_f` and every KREDUCE
//!    along the way preserves values on scenarios with at most `k`
//!    failures (Lemma 1), while every counterexample path decodes to such
//!    a scenario (Lemma 2), the per-flow contributions sum *Ratio-exactly*
//!    to the violating load.
//! 2. **Rerouted-path reconstruction** — the flow's packet paths before
//!    vs. after the failures, listed by the independent concrete
//!    simulator ([`yu_routing::ConcreteRoutes::forward_paths`], the
//!    depth-first driver of the per-hop function behind its per-link
//!    fractions too), plus an added/removed link diff and an optional
//!    Graphviz overlay ([`explanation_dot`]).
//! 3. **Concrete replay cross-check** — the same simulator's routes for
//!    the counterexample scenario ([`yu_routing::ConcreteRoutes`], the
//!    engine behind the Jingubang baseline) recompute the load, compared
//!    bit-exactly, so every explanation doubles as a differential test of
//!    the symbolic pipeline.
//! 4. **Load envelope** — min/max reachable terminals of the reduced
//!    load ([`Mtbdd::terminal_range`]) plus the exact number of violating
//!    `≤ k` scenarios ([`Mtbdd::count_scenarios`]), showing how close the
//!    point sits to its bound.

use crate::api::YuVerifier;
use crate::verify::Violation;
use serde::Serialize;
use std::collections::BTreeSet;
use std::fmt::Write as _;
use yu_mtbdd::{Mtbdd, NodeRef, Ratio, Term};
use yu_net::{FailureVars, Flow, LinkId, LoadPoint, RouterId, Scenario, TlpReq, Topology};
use yu_routing::ConcreteRoutes;
pub use yu_routing::{PathOutcome, TracedPath, MAX_TRACED_PATHS};

/// One flow group's share of a violating load.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct FlowBlame {
    /// The group's representative flow.
    pub flow: Flow,
    /// Number of member flows in the group.
    pub members: usize,
    /// Total volume of the group (Gbps).
    pub volume: Ratio,
    /// Fraction of the group's traffic crossing the point under the
    /// counterexample scenario.
    pub fraction: Ratio,
    /// `fraction × volume`: the group's exact share of the violating
    /// load.
    pub contribution: Ratio,
    /// The group's share of the load with no failures.
    pub baseline: Ratio,
    /// `contribution − baseline`: how much the failures shifted onto
    /// (positive) or away from (negative) the point.
    pub delta: Ratio,
}

/// Before/after packet paths of one flow across the failure.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct FlowPathDiff {
    /// The flow whose forwarding is reconstructed.
    pub flow: Flow,
    /// Concrete paths with no failures.
    pub before: Vec<TracedPath>,
    /// Concrete paths under the counterexample scenario.
    pub after: Vec<TracedPath>,
    /// Links used after but not before (sorted).
    pub added_links: Vec<LinkId>,
    /// Links used before but not after (sorted).
    pub removed_links: Vec<LinkId>,
    /// Whether the forwarding changed at all (paths, splits, or
    /// outcomes).
    pub changed: bool,
}

/// Result of re-simulating the counterexample scenario with the
/// enumerative engine.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct ReplayCheck {
    /// `"match"` iff the concrete replay reproduces the symbolic load
    /// bit-exactly, else `"mismatch"`.
    pub status: String,
    /// The symbolic load being certified (the violation's load).
    pub symbolic: Ratio,
    /// The load the concrete simulator computed for the same scenario.
    pub replay: Ratio,
}

impl ReplayCheck {
    fn new(symbolic: Ratio, replay: Ratio) -> ReplayCheck {
        let status = if symbolic == replay {
            "match"
        } else {
            "mismatch"
        };
        ReplayCheck {
            status: status.into(),
            symbolic,
            replay,
        }
    }

    /// Whether the cross-check passed.
    pub fn matches(&self) -> bool {
        self.status == "match"
    }
}

/// The load envelope of one measurement point: the reachable extremes of
/// the reduced symbolic load and the exact violating-scenario count.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct PointEnvelope {
    /// The measurement point.
    pub point: LoadPoint,
    /// Minimum load over all `≤ k`-failure scenarios.
    pub min: Ratio,
    /// Maximum load over all `≤ k`-failure scenarios.
    pub max: Ratio,
    /// The requirement's lower bound, if any.
    pub req_min: Option<Ratio>,
    /// The requirement's upper bound, if any.
    pub req_max: Option<Ratio>,
    /// Exact number of `≤ k`-failure scenarios violating the bounds.
    pub violating_scenarios: u128,
}

impl PointEnvelope {
    /// Human-readable description.
    pub fn describe(&self, topo: &Topology) -> String {
        let bound = match (&self.req_min, &self.req_max) {
            (Some(lo), Some(hi)) => format!("bound [{lo}, {hi}]"),
            (Some(lo), None) => format!("bound >= {lo}"),
            (None, Some(hi)) => format!("bound <= {hi}"),
            (None, None) => "unbounded".into(),
        };
        format!(
            "{}: load in [{}, {}], {}, {} violating scenario(s)",
            self.point.describe(topo),
            self.min,
            self.max,
            bound,
            self.violating_scenarios
        )
    }
}

/// A self-verifying account of one TLP violation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Explanation {
    /// The violation being explained.
    pub violation: Violation,
    /// The load at the point with no failures.
    pub baseline_load: Ratio,
    /// Per-flow shares of the violating load, largest contribution
    /// first. Flows touching the point only in the baseline (rerouted
    /// away) appear with `contribution` 0 and a negative `delta`.
    pub blame: Vec<FlowBlame>,
    /// `Σ contribution` — equals the violating load Ratio-exactly.
    pub blame_total: Ratio,
    /// Before/after packet paths of every blamed flow.
    pub paths: Vec<FlowPathDiff>,
    /// The concrete replay cross-check.
    pub replay: ReplayCheck,
    /// The load envelope at the violated point.
    pub envelope: PointEnvelope,
}

impl Explanation {
    /// Human-readable multi-line report.
    pub fn describe(&self, topo: &Topology) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "{}", self.violation.describe(topo));
        let _ = writeln!(s, "  envelope: {}", self.envelope.describe(topo));
        let _ = writeln!(s, "  baseline (no failures): {}", self.baseline_load);
        let _ = writeln!(
            s,
            "  per-flow blame (fraction x volume = contribution; total {}):",
            self.blame_total
        );
        for b in &self.blame {
            let _ = writeln!(
                s,
                "    {}: {} x {} = {} (baseline {}, delta {}{})",
                flow_label(topo, &b.flow),
                b.fraction,
                b.volume,
                b.contribution,
                b.baseline,
                if b.delta >= Ratio::ZERO { "+" } else { "" },
                b.delta
            );
        }
        let changed: Vec<&FlowPathDiff> = self.paths.iter().filter(|d| d.changed).collect();
        if changed.is_empty() {
            let _ = writeln!(s, "  rerouted paths: none (forwarding unchanged)");
        } else {
            let _ = writeln!(s, "  rerouted paths:");
            for d in changed {
                let _ = writeln!(s, "    {}:", flow_label(topo, &d.flow));
                for p in &d.before {
                    let _ = writeln!(s, "      - {}", path_line(topo, p));
                }
                for p in &d.after {
                    let _ = writeln!(s, "      + {}", path_line(topo, p));
                }
                if !d.added_links.is_empty() {
                    let _ = writeln!(
                        s,
                        "      added links:   {}",
                        link_list(topo, &d.added_links)
                    );
                }
                if !d.removed_links.is_empty() {
                    let _ = writeln!(
                        s,
                        "      removed links: {}",
                        link_list(topo, &d.removed_links)
                    );
                }
            }
        }
        let _ = writeln!(
            s,
            "  replay: {} (symbolic {} vs enumerative {})",
            self.replay.status, self.replay.symbolic, self.replay.replay
        );
        s
    }
}

fn flow_label(topo: &Topology, f: &Flow) -> String {
    format!(
        "flow {}->{} dscp {} @ {}",
        f.src,
        f.dst,
        f.dscp,
        topo.router(f.ingress).name
    )
}

fn path_line(topo: &Topology, p: &TracedPath) -> String {
    let outcome = match p.outcome {
        PathOutcome::Delivered(r) => format!("delivered@{}", topo.router(r).name),
        PathOutcome::Dropped(r) => format!("dropped@{}", topo.router(r).name),
        PathOutcome::Truncated => "truncated".into(),
    };
    format!(
        "{} ({}) [{}]",
        topo.path_label(&p.hops),
        p.fraction,
        outcome
    )
}

fn link_list(topo: &Topology, links: &[LinkId]) -> String {
    links
        .iter()
        .map(|&l| topo.link_label(l))
        .collect::<Vec<_>>()
        .join(", ")
}

impl YuVerifier {
    /// Produces the full forensic explanation of one violation: per-flow
    /// blame, rerouted paths, concrete replay cross-check, and the load
    /// envelope at the violated point.
    pub fn explain(&mut self, v: &Violation) -> Explanation {
        let _stage = yu_telemetry::span("explain");
        // Envelope first: it may aggregate (and garbage-collect), which
        // remaps the per-flow STF handles the blame pass reads.
        let envelope = self.point_envelope(&TlpReq {
            point: v.point,
            min: v.min.clone(),
            max: v.max.clone(),
        });

        // Per-flow blame: restrict each group's STF at the point to the
        // counterexample scenario (and to no-failures for the baseline).
        let blame_span = yu_telemetry::span("explain.blame");
        let none = Scenario::none();
        let mut blame: Vec<FlowBlame> = Vec::new();
        let mut blame_total = Ratio::ZERO;
        let mut baseline_load = Ratio::ZERO;
        for (g, stf) in self.flow_results() {
            let h = stf.at(&self.m, v.point);
            let fraction = eval_ratio(&self.m, h, &self.fv, &v.scenario);
            let base_frac = eval_ratio(&self.m, h, &self.fv, &none);
            let contribution = fraction.clone() * g.volume.clone();
            let baseline = base_frac * g.volume.clone();
            blame_total += contribution.clone();
            baseline_load += baseline.clone();
            if contribution.is_zero() && baseline.is_zero() {
                continue;
            }
            let delta = contribution.clone() - baseline.clone();
            blame.push(FlowBlame {
                flow: g.rep.clone(),
                members: g.members,
                volume: g.volume.clone(),
                fraction,
                contribution,
                baseline,
                delta,
            });
        }
        // Largest contribution first; ties broken by flow identity so
        // the order is stable.
        blame.sort_by(|a, b| {
            b.contribution.cmp(&a.contribution).then_with(|| {
                (a.flow.ingress, a.flow.dst, a.flow.dscp, a.flow.src).cmp(&(
                    b.flow.ingress,
                    b.flow.dst,
                    b.flow.dscp,
                    b.flow.src,
                ))
            })
        });
        drop(blame_span);
        yu_telemetry::counter("explain.flows_blamed", blame.len() as u64);

        // Rerouted-path reconstruction for every blamed flow: the
        // concrete simulator lists its paths with no failures and under
        // the counterexample scenario.
        let paths_span = yu_telemetry::span("explain.paths");
        let max_hops = self.opts.max_hops;
        let before_routes = ConcreteRoutes::compute(&self.net, &none);
        let after_routes = ConcreteRoutes::compute(&self.net, &v.scenario);
        let mut paths = Vec::new();
        let mut traced = 0u64;
        for b in &blame {
            let before = before_routes.forward_paths(&b.flow, max_hops);
            let after = after_routes.forward_paths(&b.flow, max_hops);
            traced += (before.len() + after.len()) as u64;
            let before_links: BTreeSet<LinkId> = before
                .iter()
                .flat_map(|p| p.links.iter().copied())
                .collect();
            let after_links: BTreeSet<LinkId> =
                after.iter().flat_map(|p| p.links.iter().copied()).collect();
            let added_links: Vec<LinkId> = after_links.difference(&before_links).copied().collect();
            let removed_links: Vec<LinkId> =
                before_links.difference(&after_links).copied().collect();
            let changed = before != after;
            paths.push(FlowPathDiff {
                flow: b.flow.clone(),
                before,
                after,
                added_links,
                removed_links,
                changed,
            });
        }
        drop(paths_span);
        yu_telemetry::counter("explain.paths_traced", traced);

        // Concrete replay: forward every group through the scenario's
        // concrete routes and compare the load bit-exactly
        // (`Σ V_g · fraction_g`, the enumerative baseline's number).
        let replay_span = yu_telemetry::span("explain.replay");
        let mut replay_load = Ratio::ZERO;
        for (g, _) in self.flow_results() {
            let res = after_routes.forward_flow(&g.rep, max_hops);
            let frac = match v.point {
                LoadPoint::Link(l) => res.link_fraction.get(&l),
                LoadPoint::Delivered(r) => res.delivered.get(&r),
                LoadPoint::Dropped(r) => res.dropped.get(&r),
            };
            if let Some(frac) = frac {
                replay_load += frac.clone() * g.volume.clone();
            }
        }
        let replay = ReplayCheck::new(v.load.clone(), replay_load);
        drop(replay_span);
        if !replay.matches() {
            yu_telemetry::counter("explain.replay_mismatches", 1);
        }

        Explanation {
            violation: v.clone(),
            baseline_load,
            blame,
            blame_total,
            paths,
            replay,
            envelope,
        }
    }

    /// The load envelope of one requirement's point: min/max reachable
    /// load over all `≤ k`-failure scenarios and the exact count of
    /// violating scenarios.
    pub fn point_envelope(&mut self, req: &TlpReq) -> PointEnvelope {
        let tau = self.load_mtbdd(req.point);
        let k = self.options().k;
        let reduced = self.m.kreduce(tau, k);
        let (min, max) = self.m.terminal_range(reduced);
        let as_ratio = |t: NodeRef| match self.m.terminal_ref(t) {
            Term::Num(v) => v.clone(),
            Term::PosInf => unreachable!("traffic loads are finite"),
        };
        let req_min = req.min.clone();
        let req_max = req.max.clone();
        let (lo, hi) = (req_min.clone(), req_max.clone());
        let violating_scenarios = self
            .m
            .count_scenarios(reduced, self.m.num_vars(), k, move |t| match t {
                Term::Num(v) => {
                    lo.as_ref().is_some_and(|b| &v < b) || hi.as_ref().is_some_and(|b| &v > b)
                }
                Term::PosInf => true,
            });
        PointEnvelope {
            point: req.point,
            min: as_ratio(min),
            max: as_ratio(max),
            req_min,
            req_max,
            violating_scenarios,
        }
    }
}

/// Evaluates an STF handle to the concrete fraction under a scenario.
fn eval_ratio(m: &Mtbdd, f: NodeRef, fv: &FailureVars, scenario: &Scenario) -> Ratio {
    match m.eval(f, fv.assignment(scenario)) {
        Term::Num(v) => v,
        Term::PosInf => unreachable!("traffic fractions are finite"),
    }
}

/// Graphviz overlay of the subtopology an explanation touches: links
/// used only before the failure are dashed gray, links used only after
/// are bold red, links used in both are black, failed elements are
/// marked, and the violated point (when a link) is highlighted.
pub fn explanation_dot(topo: &Topology, ex: &Explanation) -> String {
    let mut before: BTreeSet<LinkId> = BTreeSet::new();
    let mut after: BTreeSet<LinkId> = BTreeSet::new();
    let mut routers: BTreeSet<RouterId> = BTreeSet::new();
    for d in &ex.paths {
        for p in &d.before {
            before.extend(p.links.iter().copied());
            routers.extend(p.hops.iter().copied());
        }
        for p in &d.after {
            after.extend(p.links.iter().copied());
            routers.extend(p.hops.iter().copied());
        }
    }
    for &u in &ex.violation.scenario.failed_links {
        let (fwd, _) = topo.directions(u);
        let lk = topo.link(fwd);
        routers.insert(lk.from);
        routers.insert(lk.to);
    }
    routers.extend(ex.violation.scenario.failed_routers.iter().copied());
    let mut s = String::new();
    let _ = writeln!(s, "digraph explanation {{");
    let _ = writeln!(s, "  rankdir=LR;");
    let _ = writeln!(
        s,
        "  label=\"{}\";",
        ex.violation.describe(topo).replace('"', "'")
    );
    for &r in &routers {
        let name = &topo.router(r).name;
        if ex.violation.scenario.failed_routers.contains(&r) {
            let _ = writeln!(
                s,
                "  \"{name}\" [style=filled, fillcolor=lightgray, label=\"{name}\\n(failed)\"];"
            );
        } else {
            let _ = writeln!(s, "  \"{name}\";");
        }
    }
    let highlight = match ex.violation.point {
        LoadPoint::Link(l) => Some(l),
        _ => None,
    };
    for &l in before.union(&after) {
        let lk = topo.link(l);
        let from = &topo.router(lk.from).name;
        let to = &topo.router(lk.to).name;
        let mut attrs: Vec<String> = Vec::new();
        match (before.contains(&l), after.contains(&l)) {
            (true, false) => {
                attrs.push("color=gray".into());
                attrs.push("style=dashed".into());
                attrs.push("label=\"was\"".into());
            }
            (false, true) => {
                attrs.push("color=red".into());
                attrs.push("penwidth=2".into());
                attrs.push("label=\"now\"".into());
            }
            _ => attrs.push("color=black".into()),
        }
        if highlight == Some(l) {
            attrs.push("penwidth=3".into());
        }
        let _ = writeln!(s, "  \"{from}\" -> \"{to}\" [{}];", attrs.join(", "));
    }
    for &u in &ex.violation.scenario.failed_links {
        let (fwd, _) = topo.directions(u);
        let lk = topo.link(fwd);
        let from = &topo.router(lk.from).name;
        let to = &topo.router(lk.to).name;
        let _ = writeln!(
            s,
            "  \"{from}\" -> \"{to}\" [dir=none, color=red, style=dotted, label=\"failed\"];"
        );
    }
    let _ = writeln!(s, "}}");
    s
}
