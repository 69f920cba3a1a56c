//! The static analyzer against the engine on every built-in example, in
//! both failure modes: `yu::analysis::classify` (what `yu lint --deep`
//! reports) is an oracle *for* `verify`, not a stage inside it. Whatever
//! it proves safe, the check stage's interval test decides by itself —
//! exact per-class terminal ranges summed are never looser than per-flow
//! volume bounds summed — so verifying the `ProvenSafe` subset alone
//! builds no aggregated load and finds nothing, enumerating or not; and
//! every `ProvenViolated` requirement comes back with a counterexample.
//! Each safe verdict's certificate is re-validated by its independent
//! checker on the way.

use yu::analysis::{check_certificate, classify, PreflightConfig, ReqClass};
use yu::core::{YuOptions, YuVerifier};
use yu::gen::{
    fattree_with_flows, motivating_example, preflight_example, sr_anycast_incident,
    static_blackhole_incident, wan, WanParams,
};
use yu::mtbdd::Ratio;
use yu::net::{FailureMode, Flow, Network, Tlp, DEFAULT_MAX_HOPS};

fn cases() -> Vec<(&'static str, Network, Vec<Flow>, Tlp)> {
    let fig1 = motivating_example();
    let fig9 = sr_anycast_incident();
    let fig10 = static_blackhole_incident();
    let (ft4, ft4_flows) = fattree_with_flows(4, 16);
    let ft4_tlp = Tlp::no_overload(&ft4.net.topo, Ratio::new(95, 100));
    let pf = preflight_example();
    let w = wan(WanParams {
        core_routers: 5,
        stub_routers: 3,
        extra_core_links: 2,
        prefixes: 8,
        sr_policies: 1,
        seed: 7,
    });
    let wan_flows = w.flows(12, 0xBEEF);
    let wan_tlp = Tlp::no_overload(&w.net.topo, Ratio::new(95, 100));
    vec![
        ("fig1/p1", fig1.net.clone(), fig1.flows.clone(), fig1.p1),
        ("fig1/p2", fig1.net, fig1.flows, fig1.p2),
        ("fig9", fig9.net, fig9.flows, fig9.tlp),
        ("fig10", fig10.net, fig10.flows, fig10.tlp),
        ("ft4", ft4.net, ft4_flows, ft4_tlp),
        ("preflight", pf.net, pf.flows, pf.tlp),
        ("wan-small", w.net, wan_flows, wan_tlp),
    ]
}

/// The requirements of `tlp` the analyzer proves safe and the ones it
/// proves violated, each as a TLP, every certificate re-validated.
fn proven(net: &Network, flows: &[Flow], tlp: &Tlp, mode: FailureMode) -> (Tlp, Tlp) {
    let cfg = PreflightConfig {
        k: 1,
        mode,
        max_hops: DEFAULT_MAX_HOPS,
    };
    let (mut safe, mut violated) = (Tlp::new(), Tlp::new());
    for c in classify(net, flows, tlp, cfg) {
        let req = &tlp.reqs[c.req_ix];
        check_certificate(net, flows, req, cfg, &c)
            .unwrap_or_else(|e| panic!("certificate of requirement {}: {e}", c.req_ix));
        match c.class {
            ReqClass::ProvenSafe => safe.reqs.push(req.clone()),
            ReqClass::ProvenViolated => violated.reqs.push(req.clone()),
            ReqClass::NeedsSymbolic => {}
        }
    }
    (safe, violated)
}

fn verifier(net: &Network, flows: &[Flow], mode: FailureMode) -> YuVerifier {
    let opts = YuOptions {
        k: 1,
        mode,
        ..Default::default()
    };
    let mut v = YuVerifier::new(net.clone(), opts);
    v.add_flows(flows);
    v
}

#[test]
fn static_verdicts_hold_on_every_builtin() {
    let (mut safe_total, mut violated_total) = (0, 0);
    for (name, net, flows, tlp) in cases() {
        for mode in [FailureMode::Links, FailureMode::Routers] {
            let ctx = format!("{name} ({mode:?})");
            let mut v = verifier(&net, &flows, mode);
            let (safe, violated) = proven(&net, &flows, &tlp, mode);

            let nodes = v.mtbdd_stats().nodes_created;
            for out in [v.verify(&safe), v.verify_enumerated(&safe, 3)] {
                assert!(out.verified(), "{ctx}: {:?}", out.violations);
                assert_eq!(
                    out.stats.reqs_bound_decided,
                    safe.reqs.len(),
                    "{ctx}: a statically safe requirement the interval test left undecided"
                );
            }
            assert_eq!(v.mtbdd_stats().nodes_created, nodes, "{ctx}");

            // One counterexample per violated requirement, in order.
            let points: Vec<_> = violated.reqs.iter().map(|r| r.point).collect();
            let found = v.verify(&violated).violations;
            let found: Vec<_> = found.iter().map(|vi| vi.point).collect();
            assert_eq!(found, points, "{ctx}: statically violated requirements");

            safe_total += safe.reqs.len();
            violated_total += violated.reqs.len();
        }
    }
    assert!(
        safe_total > 0 && violated_total > 0,
        "both verdicts must be exercised: {safe_total} safe, {violated_total} violated"
    );
}

#[test]
fn preflight_example_actually_discharges_requirements() {
    let pf = preflight_example();
    let mode = FailureMode::Links;
    let (safe, _) = proven(&pf.net, &pf.flows, &pf.tlp, mode);
    assert_eq!(
        safe.reqs.len(),
        pf.expected_discharged,
        "the preflight example exists to exercise the analyzer"
    );
    // The whole TLP through the engine: those and more are decided by
    // bounds, and P1 and the P2 overload requirements still produce the
    // known Fig. 1 counterexamples.
    let out = verifier(&pf.net, &pf.flows, mode).verify(&pf.tlp);
    assert!(out.stats.reqs_bound_decided >= pf.expected_discharged);
    assert!(!out.verified());
}
