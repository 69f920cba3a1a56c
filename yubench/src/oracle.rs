//! The verdict oracle: every verdict the program reports is checked
//! against the concrete per-scenario simulator of `yu::baselines`, which
//! shares no symbolic code with the verifier.

use crate::gen::Request;
use crate::serve::serve_options;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize, Value};
use std::collections::{BTreeMap, BTreeSet};
use yu::baselines::{jingubang_verify, replay_scenario};
use yu::core::{YuOptions, YuVerifier};
use yu::gen::{fattree, wan, WanPreset};
use yu::mtbdd::Ratio;
use yu::net::{ChangeSet, FailureMode, LoadPoint, Scenario, Tlp, ULinkId, DEFAULT_MAX_HOPS};
use yu::spec::VerifySpec;

/// Random at-most-k scenarios replayed per run, besides the scenario of
/// every reported violation.
pub const RANDOM_SCENARIOS: usize = 24;

/// A violation as the program reports it (`yu::core::Violation` on the
/// wire).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Reported {
    /// Where the violation occurs.
    pub point: LoadPoint,
    /// The failure scenario.
    pub scenario: Scenario,
    /// The violating load.
    pub load: Ratio,
    /// The required lower bound, if any.
    pub min: Option<Ratio>,
    /// The required upper bound, if any.
    pub max: Option<Ratio>,
}

/// Parses a reported violation list.
pub fn reported(violations: &Value) -> Result<Vec<Reported>, String> {
    Vec::<Reported>::from_value(violations).map_err(|e| format!("bad violation list: {e}"))
}

/// Checks the verdicts of one batch run and returns the indices of the
/// requirements whose verdict the oracle rejects.
///
/// * A reported violation must name a requirement of the spec, stay
///   within the failure budget, and replay: the concrete load under its
///   scenario equals the reported load and breaks the bound.
/// * No requirement reported safe may be broken in any replayed scenario
///   — those of the violations plus `random` seeded ones.
pub fn check_batch(
    spec: &VerifySpec,
    violations: &[Reported],
    random: usize,
    seed: u64,
) -> BTreeSet<usize> {
    let reqs = &spec.tlp.reqs;
    let mut failed = BTreeSet::new();
    // Scenario -> (requirement, load claimed for it there).
    let mut by_scenario: BTreeMap<Scenario, Vec<(usize, &Ratio)>> = BTreeMap::new();
    let mut violated = BTreeSet::new();
    for v in violations {
        let req = reqs
            .iter()
            .position(|r| r.point == v.point && r.min == v.min && r.max == v.max);
        match req {
            Some(ix) if v.scenario.count() <= spec.k as usize && violated.insert(ix) => {
                let here = by_scenario.entry(v.scenario.clone()).or_default();
                here.push((ix, &v.load));
            }
            // Unknown requirement, duplicate verdict, or over budget.
            Some(ix) => drop(failed.insert(ix)),
            None => drop(failed.insert(reqs.len())),
        }
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0AC1E);
    let links: Vec<ULinkId> = spec.network.topo.ulinks().collect();
    for _ in 0..random {
        let mut failures = BTreeSet::new();
        for _ in 0..rng.random_range(0..=spec.k) {
            failures.insert(links[rng.random_range(0..links.len())]);
        }
        by_scenario.entry(Scenario::links(failures)).or_default();
    }
    for (scenario, reported_here) in &by_scenario {
        let loads = replay_scenario(&spec.network, &spec.flows, scenario, DEFAULT_MAX_HOPS);
        let load_at = |p: &LoadPoint| loads.get(p).cloned().unwrap_or(Ratio::ZERO);
        for &(ix, claim) in reported_here {
            let concrete = load_at(&reqs[ix].point);
            if &concrete != claim || reqs[ix].satisfied_by(concrete) {
                failed.insert(ix);
            }
        }
        for (ix, req) in reqs.iter().enumerate() {
            if !violated.contains(&ix) && !req.satisfied_by(load_at(&req.point)) {
                failed.insert(ix);
            }
        }
    }
    failed
}

/// Checks the responses of one pass over the serve script and returns the
/// indices of the requests the oracle rejects: any not answered
/// `"ok":true`; at every tenth request and at the last, a violation set
/// other than the one a from-scratch `YuVerifier` finds on the spec as
/// edited so far; and the last again if its violations do not replay.
pub fn check_serve(
    spec: &VerifySpec,
    script: &[Request],
    responses: &[String],
    seed: u64,
) -> BTreeSet<usize> {
    let mut failed: BTreeSet<usize> = (responses.len()..script.len()).collect();
    let mut now = spec.clone();
    for (i, (request, response)) in script.iter().zip(responses).enumerate() {
        let changes = ChangeSet {
            changes: request.changes.clone(),
        };
        let (network, flows, tlp, _) = changes
            .apply(&now.network, &now.flows, &now.tlp)
            .expect("the generated script applies");
        now = VerifySpec {
            network,
            flows,
            tlp,
            ..now
        };
        let answer: Option<Value> = serde_json::from_str(response).ok();
        let field = |name: &str| answer.as_ref()?.as_object()?.get(name).cloned();
        if field("ok") != Some(Value::Bool(true)) {
            failed.insert(i);
            continue;
        }
        let last = i + 1 == script.len();
        if (i + 1) % 10 != 0 && !last {
            continue;
        }
        let mut scratch = YuVerifier::new(now.network.clone(), serve_options(&now));
        scratch.add_flows(&now.flows);
        let expected = scratch.verify(&now.tlp).violations;
        let answered = field("violations").unwrap_or(Value::Null);
        let replays = || match reported(&answered) {
            Ok(vs) => check_batch(&now, &vs, RANDOM_SCENARIOS, seed).is_empty(),
            Err(_) => false,
        };
        if as_set(&answered) != as_set(&expected.to_value()) || (last && !replays()) {
            failed.insert(i);
        }
    }
    failed
}

/// A JSON list as a set of its rendered elements.
fn as_set(list: &Value) -> Option<BTreeSet<String>> {
    Some(list.as_array()?.iter().map(Value::to_string).collect())
}

/// Before anything is timed: the verifier and the enumerating baseline
/// must agree, requirement by requirement, on two instances small enough
/// to enumerate in full (N0 and fattree-m4 at k=2).
pub fn self_check() -> Result<(), String> {
    let n0 = wan(WanPreset::N0.params());
    let n0_flows = n0.flows(200, 0x5E1F);
    let ft = fattree(4);
    let ft_flows = ft.pairwise_flows(12, Ratio::int(5));
    // Load bounds low enough that each instance has violated and safe links.
    for (name, net, flows, fraction) in [
        ("N0", n0.net, n0_flows, Ratio::new(1, 40)),
        ("fattree-m4", ft.net, ft_flows, Ratio::new(1, 2)),
    ] {
        let tlp = Tlp::no_overload(&net.topo, fraction);
        let mode = FailureMode::Links;
        let mut v = YuVerifier::new(
            net.clone(),
            YuOptions {
                k: 2,
                mode,
                ..Default::default()
            },
        );
        v.add_flows(&flows);
        let ours = v.verify(&tlp).violations;
        let theirs = jingubang_verify(&net, &flows, &tlp, 2, mode, DEFAULT_MAX_HOPS, false);
        let points = |vs: &[yu::core::Violation]| -> BTreeSet<LoadPoint> {
            vs.iter().map(|v| v.point).collect()
        };
        if points(&ours) != points(&theirs.violations) {
            return Err(format!(
                "self-check on {name}: yu violates {} requirements, enumeration {}",
                points(&ours).len(),
                points(&theirs.violations).len()
            ));
        }
        if let Some(v) = ours.iter().find(|v| !theirs.violations.contains(v)) {
            return Err(format!(
                "self-check on {name}: enumeration does not confirm {}",
                v.describe(&net.topo)
            ));
        }
        if ours.is_empty() || ours.len() == tlp.reqs.len() {
            return Err(format!(
                "self-check on {name}: {} of {} requirements violated, want some of each",
                ours.len(),
                tlp.reqs.len()
            ));
        }
    }
    Ok(())
}
