//! Differential tests for violation forensics: every enumerated
//! violation must be confirmed bit-exactly by the enumerative baseline's
//! single-scenario replay, and every `Explanation` must be internally
//! consistent — blame sums Ratio-exactly to the violating load, path
//! diffs are non-empty whenever a blamed flow's routing changed, the
//! listed paths put exactly the blamed fractions on the violated point,
//! and the load envelope brackets the observed violation.

use yu::baselines::{jingubang_verify, replay_scenario};
use yu::core::{PathOutcome, TracedPath, YuOptions, YuVerifier};
use yu::mtbdd::Ratio;
use yu::net::{FailureMode, Flow, LoadPoint, Network, Scenario, Tlp, DEFAULT_MAX_HOPS};

/// All built-in incident examples as (name, network, flows, tlp) tuples.
fn examples() -> Vec<(&'static str, Network, Vec<Flow>, Tlp)> {
    let ex = yu::gen::motivating_example();
    let sr = yu::gen::sr_anycast_incident();
    let bh = yu::gen::static_blackhole_incident();
    vec![
        ("fig1/p1", ex.net.clone(), ex.flows.clone(), ex.p1),
        ("fig1/p2", ex.net, ex.flows, ex.p2),
        ("fig9", sr.net, sr.flows, sr.tlp),
        ("fig10", bh.net, bh.flows, bh.tlp),
    ]
}

/// The fraction of a flow that `paths` put on `point`: a link counts once
/// per crossing, a router counts the paths delivered or dropped there.
fn fraction_at(paths: &[TracedPath], point: LoadPoint) -> Ratio {
    let mut sum = Ratio::ZERO;
    for p in paths {
        let times = match point {
            LoadPoint::Link(l) => p.links.iter().filter(|&&x| x == l).count(),
            LoadPoint::Delivered(r) => usize::from(p.outcome == PathOutcome::Delivered(r)),
            LoadPoint::Dropped(r) => usize::from(p.outcome == PathOutcome::Dropped(r)),
        };
        sum += p.fraction.clone() * Ratio::int(times as i64);
    }
    sum
}

/// Runs the enumerated verification plus forensics for one case and
/// checks it against the enumerative baseline.
fn check_case(name: &str, net: &Network, flows: &[Flow], tlp: &Tlp, mode: FailureMode, k: u32) {
    let mut v = YuVerifier::new(
        net.clone(),
        YuOptions {
            k,
            mode,
            ..Default::default()
        },
    );
    v.add_flows(flows);
    let out = v.verify_enumerated(tlp, 1000);

    // The exhaustive per-scenario baseline must report exactly the same
    // (point, scenario, load) set.
    let jg = jingubang_verify(net, flows, tlp, k as usize, mode, DEFAULT_MAX_HOPS, false);
    assert_eq!(
        out.violations.len(),
        jg.violations.len(),
        "{name} ({mode:?}): enumeration disagrees with the baseline"
    );
    for vi in &out.violations {
        assert!(
            jg.violations
                .iter()
                .any(|jv| jv.point == vi.point && jv.scenario == vi.scenario && jv.load == vi.load),
            "{name} ({mode:?}): unconfirmed violation {}",
            vi.describe(&net.topo)
        );
    }

    for vi in &out.violations {
        // Direct single-scenario replay at the violated point.
        let loads = replay_scenario(net, flows, &vi.scenario, DEFAULT_MAX_HOPS);
        let replayed = loads.get(&vi.point).cloned().unwrap_or(Ratio::ZERO);
        assert_eq!(
            replayed,
            vi.load,
            "{name} ({mode:?}): replay diverges for {}",
            vi.describe(&net.topo)
        );

        // The explanation must be self-consistent.
        let ex = v.explain(vi);
        assert!(
            ex.replay.matches(),
            "{name} ({mode:?}): replay cross-check failed: {:?}",
            ex.replay
        );
        assert_eq!(
            ex.blame_total, vi.load,
            "{name} ({mode:?}): blame does not sum to the violating load"
        );
        let sum = ex
            .blame
            .iter()
            .fold(Ratio::ZERO, |acc, b| acc + b.contribution.clone());
        assert_eq!(sum, vi.load, "{name} ({mode:?}): contribution sum drifted");
        let base_sum = ex
            .blame
            .iter()
            .fold(Ratio::ZERO, |acc, b| acc + b.baseline.clone());
        assert_eq!(
            base_sum, ex.baseline_load,
            "{name} ({mode:?}): baseline sum drifted"
        );

        // Whenever a blamed flow's contribution moved relative to the
        // no-failure baseline, its forwarding changed, so its path diff
        // must be present and non-empty.
        for b in &ex.blame {
            if b.delta != Ratio::ZERO {
                let diff = ex.paths.iter().find(|d| d.flow == b.flow);
                let diff = diff.unwrap_or_else(|| {
                    panic!(
                        "{name} ({mode:?}): no path diff for rerouted flow {:?}",
                        b.flow
                    )
                });
                assert!(
                    diff.changed,
                    "{name} ({mode:?}): flow moved {} -> {} but path diff is empty",
                    b.baseline, b.contribution
                );
            }
        }

        // The listed paths put exactly the blamed fractions on the
        // violated point: after the failures `fraction`, before them
        // `baseline / volume`.
        for b in &ex.blame {
            let diff = ex.paths.iter().find(|d| d.flow == b.flow).unwrap();
            assert_eq!(
                fraction_at(&diff.after, vi.point),
                b.fraction,
                "{name} ({mode:?}): after-paths disagree with blame for {:?}",
                b.flow
            );
            assert_eq!(
                fraction_at(&diff.before, vi.point) * b.volume.clone(),
                b.baseline,
                "{name} ({mode:?}): before-paths disagree with blame for {:?}",
                b.flow
            );
        }

        // The envelope brackets the violating load and counts at least
        // this violation's scenario.
        assert!(
            ex.envelope.min <= vi.load && vi.load <= ex.envelope.max,
            "{name} ({mode:?}): envelope [{}, {}] misses load {}",
            ex.envelope.min,
            ex.envelope.max,
            vi.load
        );
        assert!(
            ex.envelope.violating_scenarios >= 1,
            "{name} ({mode:?}): envelope reports no violating scenarios"
        );
    }

    // Forensics under no failures must also be clean: the baseline run
    // (scenario = none) replays exactly.
    let none = Scenario::none();
    let base = replay_scenario(net, flows, &none, DEFAULT_MAX_HOPS);
    for req in &tlp.reqs {
        let sym = v.load_at(req.point, &none);
        let conc = base.get(&req.point).cloned().unwrap_or(Ratio::ZERO);
        assert_eq!(sym, conc, "{name} ({mode:?}): no-failure load diverges");
    }
}

#[test]
fn explanations_match_baseline_under_link_failures() {
    for (name, net, flows, tlp) in examples() {
        check_case(name, &net, &flows, &tlp, FailureMode::Links, 1);
    }
}

#[test]
fn explanations_match_baseline_under_router_failures() {
    for (name, net, flows, tlp) in examples() {
        check_case(name, &net, &flows, &tlp, FailureMode::Routers, 1);
    }
}

#[test]
fn fig1_blame_names_the_rerouted_flow() {
    // In the motivating example the D-E failure pushes B's 80 Gbps flow
    // entirely onto C->E: the top blame entry must be that flow, with a
    // positive delta over its no-failure share.
    let ex = yu::gen::motivating_example();
    let mut v = YuVerifier::new(
        ex.net.clone(),
        YuOptions {
            k: 1,
            mode: FailureMode::Links,
            ..Default::default()
        },
    );
    v.add_flows(&ex.flows);
    let out = v.verify_enumerated(&ex.p2, 10);
    assert!(!out.verified(), "fig1 p2 must be violated at k=1");
    // Pick a violation where the reroute adds new links (the C-E failure
    // detours B's traffic over C->D), so the overlay has "now" edges.
    let exp = out
        .violations
        .iter()
        .map(|vi| v.explain(vi))
        .find(|e| e.paths.iter().any(|d| !d.added_links.is_empty()))
        .expect("some fig1 violation must add rerouted links");
    let top = &exp.blame[0];
    assert!(
        top.delta > Ratio::ZERO,
        "top blamed flow should have gained load: {top:?}"
    );
    assert!(
        exp.paths.iter().any(|d| d.changed),
        "rerouting must show up in the path diff"
    );
    let report = exp.describe(&ex.net.topo);
    assert!(report.contains("per-flow blame"), "{report}");
    assert!(report.contains("replay: match"), "{report}");
    // The DOT overlay mentions the failed element and a rerouted edge.
    let dot = yu::core::explanation_dot(&ex.net.topo, &exp);
    assert!(dot.contains("digraph"), "{dot}");
    assert!(dot.contains("failed"), "{dot}");
    assert!(dot.contains("now"), "{dot}");
}
