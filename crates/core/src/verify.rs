//! TLP verification over symbolic traffic loads (paper §4.5, Theorem 5.1).
//!
//! After KREDUCE, every root-to-terminal path of a symbolic traffic load
//! encodes a scenario with at most `k` failures (Lemma 2) and agrees with
//! the exact load on all such scenarios (Lemma 1). Verifying
//! `load ∈ [v1, v2]` therefore reduces to scanning the terminals of the
//! reduced diagram — no SMT solving — and a violating terminal's path *is*
//! the counterexample failure scenario.

use serde::Serialize;
use yu_mtbdd::{Mtbdd, NodeRef, Ratio, Term};
use yu_net::{FailureVars, LoadPoint, Scenario, TlpReq, Topology};

/// A verified TLP violation: a concrete `≤ k`-failure scenario under which
/// the load at a point leaves its required range.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Violation {
    /// Where the violation occurs.
    pub point: LoadPoint,
    /// The failure scenario (don't-care elements are alive).
    pub scenario: Scenario,
    /// The violating load.
    pub load: Ratio,
    /// The required lower bound, if any.
    pub min: Option<Ratio>,
    /// The required upper bound, if any.
    pub max: Option<Ratio>,
}

impl Violation {
    /// Human-readable description.
    pub fn describe(&self, topo: &Topology) -> String {
        let bound = match (&self.min, &self.max) {
            (Some(lo), Some(hi)) => format!("[{lo}, {hi}]"),
            (Some(lo), None) => format!(">= {lo}"),
            (None, Some(hi)) => format!("<= {hi}"),
            (None, None) => "(unbounded)".into(),
        };
        format!(
            "{}: load {} violates {} when {}",
            self.point.describe(topo),
            self.load,
            bound,
            self.scenario.describe(topo)
        )
    }
}

/// Checks one requirement against a symbolic traffic load under the
/// k-failure constraint. `tau` must already be the aggregated load at
/// `req.point`; it is KREDUCE-d here (idempotent if already reduced).
///
/// Returns the first (fewest-failure) violation found, if any.
pub fn check_requirement(
    m: &mut Mtbdd,
    fv: &FailureVars,
    tau: NodeRef,
    req: &TlpReq,
    k: u32,
) -> Option<Violation> {
    // node_count is O(|tau|): only pay for the before/after reduction
    // ratio when telemetry is recording.
    let count_nodes = yu_telemetry::enabled();
    if count_nodes {
        yu_telemetry::counter("kreduce.nodes_before", m.node_count(tau) as u64);
    }
    let reduced = {
        let _stage = yu_telemetry::span("kreduce");
        m.kreduce(tau, k)
    };
    if count_nodes {
        yu_telemetry::counter("kreduce.nodes_after", m.node_count(reduced) as u64);
    }
    let min = req.min.clone();
    let max = req.max.clone();
    let violates = move |t: Term| match t {
        Term::Num(v) => {
            min.as_ref().is_some_and(|lo| &v < lo) || max.as_ref().is_some_and(|hi| &v > hi)
        }
        Term::PosInf => true,
    };
    let path = m.find_path(reduced, violates)?;
    let load = match &path.value {
        Term::Num(v) => v.clone(),
        Term::PosInf => unreachable!("traffic loads are finite"),
    };
    Some(Violation {
        point: req.point,
        scenario: fv.scenario_of_path(&path),
        load,
        min: req.min.clone(),
        max: req.max.clone(),
    })
}

/// Enumerates *every* violating `≤ k`-failure scenario for one
/// requirement, up to `limit` (the reduced MTBDD's paths each encode at
/// most k failures by Lemma 2, so the enumeration is exact — one entry
/// per distinct decoded scenario whose don't-care variables are alive).
/// Results are deduped on the concrete scenario and sorted by failure
/// count, then by the scenario itself, so the fewest-failure triggers
/// come first and the order is stable across runs; `limit` truncates
/// *after* sorting. Operators use this to see the complete set of
/// triggers, not just the first counterexample.
pub fn enumerate_violations(
    m: &mut Mtbdd,
    fv: &FailureVars,
    tau: NodeRef,
    req: &TlpReq,
    k: u32,
    limit: usize,
) -> Vec<Violation> {
    let reduced = m.kreduce(tau, k);
    let mut out = Vec::new();
    for path in m.all_paths(reduced) {
        let load = match &path.value {
            Term::Num(v) => v.clone(),
            Term::PosInf => continue,
        };
        if !req.satisfied_by(load.clone()) {
            out.push(Violation {
                point: req.point,
                scenario: fv.scenario_of_path(&path),
                load,
                min: req.min.clone(),
                max: req.max.clone(),
            });
        }
    }
    // Distinct paths can decode to the same scenario set (don't-cares);
    // dedupe on the concrete scenario, then order fewest-failures-first.
    let mut seen = std::collections::HashSet::new();
    out.retain(|v| seen.insert(v.scenario.clone()));
    out.sort_by(|a, b| (a.scenario.count(), &a.scenario).cmp(&(b.scenario.count(), &b.scenario)));
    out.truncate(limit);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use yu_mtbdd::Term;
    use yu_net::{FailureMode, LinkId, Topology, ULinkId};

    fn topo2() -> Topology {
        let mut t = Topology::new();
        let a = t.add_router("A", yu_net::Ipv4::new(1, 0, 0, 1), 1);
        let b = t.add_router("B", yu_net::Ipv4::new(1, 0, 0, 2), 1);
        t.add_link(a, b, 1, Ratio::int(100));
        t.add_link(a, b, 1, Ratio::int(100));
        t
    }

    #[test]
    fn finds_overload_with_minimal_failure_set() {
        let t = topo2();
        let mut m = Mtbdd::new();
        let fv = FailureVars::allocate(&mut m, &t, FailureMode::Links);
        // Load on link 0: 60 + 40 more when ulink 1 failed.
        let v1 = fv.link_var(ULinkId(1)).unwrap();
        let shifted = m.nvar_guard(v1);
        let extra = m.scale(shifted, Term::int(40));
        let base = m.constant(Ratio::int(60));
        let tau = m.add(base, extra);
        let req = TlpReq::at_most(LoadPoint::Link(LinkId(0)), Ratio::int(95));
        let v = check_requirement(&mut m, &fv, tau, &req, 1).expect("violation");
        assert_eq!(v.load, Ratio::int(100));
        assert_eq!(v.scenario.failed_links.len(), 1);
        assert!(v.scenario.failed_links.contains(&ULinkId(1)));
        // k = 0 cannot fail anything: property holds.
        assert!(check_requirement(&mut m, &fv, tau, &req, 0).is_none());
    }

    #[test]
    fn finds_underdelivery() {
        let t = topo2();
        let mut m = Mtbdd::new();
        let fv = FailureVars::allocate(&mut m, &t, FailureMode::Links);
        let v0 = fv.link_var(ULinkId(0)).unwrap();
        let g = m.var_guard(v0);
        let tau = m.scale(g, Term::int(80)); // delivered only while u0 alive
        let req = TlpReq::at_least(LoadPoint::Delivered(yu_net::RouterId(1)), Ratio::int(70));
        let v = check_requirement(&mut m, &fv, tau, &req, 2).expect("violation");
        assert_eq!(v.load, Ratio::ZERO);
        assert_eq!(v.scenario.failed_links.len(), 1);
        let msg = v.describe(&t);
        assert!(msg.contains("delivered@B"), "{msg}");
        assert!(msg.contains(">= 70"), "{msg}");
    }
}

#[cfg(test)]
mod enumeration_tests {
    use super::*;
    use yu_mtbdd::Term;
    use yu_net::{FailureMode, LinkId, LoadPoint, Topology, ULinkId};

    #[test]
    fn enumerates_all_violating_scenarios() {
        // Load on link 0 is 100 when either of ulinks 1, 2 fails (and 150
        // when both do); threshold 95: three violating scenarios at k=2.
        let mut t = Topology::new();
        let a = t.add_router("A", yu_net::Ipv4::new(1, 0, 0, 1), 1);
        let b = t.add_router("B", yu_net::Ipv4::new(1, 0, 0, 2), 1);
        for _ in 0..3 {
            t.add_link(a, b, 1, Ratio::int(100));
        }
        let mut m = Mtbdd::new();
        let fv = FailureVars::allocate(&mut m, &t, FailureMode::Links);
        let v1 = fv.link_var(ULinkId(1)).unwrap();
        let v2 = fv.link_var(ULinkId(2)).unwrap();
        let n1 = m.nvar_guard(v1);
        let n2 = m.nvar_guard(v2);
        let e1 = m.scale(n1, Term::int(50));
        let e2 = m.scale(n2, Term::int(50));
        let base = m.constant(Ratio::int(50));
        let t0 = m.add(base, e1);
        let tau = m.add(t0, e2);
        let req = yu_net::TlpReq::at_most(LoadPoint::Link(LinkId(0)), Ratio::int(95));
        let all = enumerate_violations(&mut m, &fv, tau, &req, 2, 100);
        assert_eq!(all.len(), 3, "{all:?}");
        let loads: Vec<Option<i128>> = all.iter().map(|v| v.load.numer()).collect();
        assert!(loads.contains(&Some(150)));
        assert_eq!(loads.iter().filter(|&&l| l == Some(100)).count(), 2);
        // Sorted: fewest failures first, then by scenario.
        let counts: Vec<usize> = all.iter().map(|v| v.scenario.count()).collect();
        assert_eq!(counts, vec![1, 1, 2]);
        assert!(all[0].scenario < all[1].scenario);
        // At k = 1 only the two single-failure triggers remain.
        let single = enumerate_violations(&mut m, &fv, tau, &req, 1, 100);
        assert_eq!(single.len(), 2);
        // The limit caps output after sorting: the fewest-failure
        // trigger survives truncation, never the double failure.
        let capped = enumerate_violations(&mut m, &fv, tau, &req, 2, 1);
        assert_eq!(capped.len(), 1);
        assert_eq!(capped[0].scenario.count(), 1);
    }
}
