//! Differential testing: YU's symbolic loads, evaluated at any concrete
//! scenario, must equal the independent concrete simulator's loads
//! exactly — and the baselines must agree with YU's verdicts.

use yu::baselines::{jingubang_verify, qarc_verify};
use yu::core::{YuOptions, YuVerifier};
use yu::gen::{fattree, wan, WanParams};
use yu::mtbdd::Ratio;
use yu::net::{scenarios_up_to_k, FailureMode, Flow, LoadPoint, Network, Scenario, Tlp};
use yu::routing::{ConcreteFlowResult, ConcreteRoutes, PathOutcome, MAX_TRACED_PATHS};

/// Sums the concrete per-flow results into per-point loads.
fn concrete_loads(
    net: &Network,
    scenario: &Scenario,
    flows: &[Flow],
) -> std::collections::HashMap<LoadPoint, Ratio> {
    let routes = ConcreteRoutes::compute(net, scenario);
    assert!(routes.converged, "concrete BGP must converge");
    let mut loads: std::collections::HashMap<LoadPoint, Ratio> = Default::default();
    let mut add = |p: LoadPoint, v: Ratio| {
        let e = loads.entry(p).or_insert(Ratio::ZERO);
        *e = e.clone() + v;
    };
    for f in flows {
        let res = routes.forward_flow(f, yu::net::DEFAULT_MAX_HOPS);
        for (l, frac) in res.link_fraction {
            add(LoadPoint::Link(l), frac * f.volume.clone());
        }
        for (r, frac) in res.delivered {
            add(LoadPoint::Delivered(r), frac * f.volume.clone());
        }
        for (r, frac) in res.dropped {
            add(LoadPoint::Dropped(r), frac * f.volume.clone());
        }
    }
    loads
}

fn assert_symbolic_matches_concrete(
    net: &Network,
    flows: &[Flow],
    mode: FailureMode,
    k: u32,
    scenarios: impl Iterator<Item = Scenario>,
) {
    let mut v = YuVerifier::new(
        net.clone(),
        YuOptions {
            k,
            mode,
            ..Default::default()
        },
    );
    v.add_flows(flows);
    for s in scenarios {
        assert!(s.count() as u32 <= k);
        let expected = concrete_loads(net, &s, flows);
        for l in net.topo.links() {
            let sym = v.load_at(LoadPoint::Link(l), &s);
            let conc = expected
                .get(&LoadPoint::Link(l))
                .cloned()
                .unwrap_or(Ratio::ZERO);
            assert_eq!(
                sym,
                conc,
                "link {} under {}",
                net.topo.link_label(l),
                s.describe(&net.topo)
            );
        }
        for r in net.topo.routers() {
            for p in [LoadPoint::Delivered(r), LoadPoint::Dropped(r)] {
                let sym = v.load_at(p, &s);
                let conc = expected.get(&p).cloned().unwrap_or(Ratio::ZERO);
                assert_eq!(
                    sym,
                    conc,
                    "{} under {}",
                    p.describe(&net.topo),
                    s.describe(&net.topo)
                );
            }
        }
    }
}

#[test]
fn random_wans_match_concrete_under_link_failures() {
    for seed in [1u64, 2, 3] {
        let w = wan(WanParams {
            core_routers: 6,
            stub_routers: 3,
            extra_core_links: 4,
            prefixes: 12,
            sr_policies: 2,
            seed,
        });
        let flows = w.flows(40, seed + 100);
        let scenarios = scenarios_up_to_k(&w.net.topo, FailureMode::Links, 1);
        assert_symbolic_matches_concrete(&w.net, &flows, FailureMode::Links, 1, scenarios);
    }
}

#[test]
fn random_wan_matches_concrete_under_2_link_failures_sampled() {
    let w = wan(WanParams {
        core_routers: 5,
        stub_routers: 2,
        extra_core_links: 3,
        prefixes: 8,
        sr_policies: 1,
        seed: 7,
    });
    let flows = w.flows(25, 70);
    // Every second 2-failure scenario, to keep runtime sane.
    let scenarios = scenarios_up_to_k(&w.net.topo, FailureMode::Links, 2)
        .enumerate()
        .filter(|(i, _)| i % 2 == 0)
        .map(|(_, s)| s);
    assert_symbolic_matches_concrete(&w.net, &flows, FailureMode::Links, 2, scenarios);
}

#[test]
fn random_wan_matches_concrete_under_router_failures() {
    let w = wan(WanParams {
        core_routers: 6,
        stub_routers: 3,
        extra_core_links: 4,
        prefixes: 10,
        sr_policies: 2,
        seed: 11,
    });
    let flows = w.flows(30, 170);
    let scenarios = scenarios_up_to_k(&w.net.topo, FailureMode::Routers, 1);
    assert_symbolic_matches_concrete(&w.net, &flows, FailureMode::Routers, 1, scenarios);
}

#[test]
fn fattree_matches_concrete() {
    let ft = fattree(4);
    let flows = ft.pairwise_flows(10, Ratio::int(5));
    let scenarios = scenarios_up_to_k(&ft.net.topo, FailureMode::Links, 1);
    assert_symbolic_matches_concrete(&ft.net, &flows, FailureMode::Links, 1, scenarios);
}

#[test]
fn yu_and_jingubang_agree_on_verdicts() {
    let w = wan(WanParams {
        core_routers: 6,
        stub_routers: 3,
        extra_core_links: 4,
        prefixes: 12,
        sr_policies: 2,
        seed: 21,
    });
    let flows = w.flows(40, 121);
    for threshold in [Ratio::new(1, 2), Ratio::new(10, 100), Ratio::int(2)] {
        let tlp = Tlp::no_overload(&w.net.topo, threshold.clone());
        let mut v = YuVerifier::new(
            w.net.clone(),
            YuOptions {
                k: 1,
                ..Default::default()
            },
        );
        v.add_flows(&flows);
        let yu_out = v.verify(&tlp);
        let jg_out = jingubang_verify(&w.net, &flows, &tlp, 1, FailureMode::Links, 64, false);
        assert_eq!(
            yu_out.verified(),
            jg_out.verified(),
            "threshold {threshold}: YU={:?} JG={:?}",
            yu_out.violations.first().map(|x| x.describe(&w.net.topo)),
            jg_out.violations.first().map(|x| x.describe(&w.net.topo)),
        );
        // Every YU violation must be confirmed by the enumerator.
        for vi in &yu_out.violations {
            assert!(
                jg_out.violations.iter().any(|jv| jv.point == vi.point
                    && jv.scenario == vi.scenario
                    && jv.load == vi.load),
                "unconfirmed YU violation: {}",
                vi.describe(&w.net.topo)
            );
        }
    }
}

#[test]
fn yu_and_qarc_agree_on_fattrees_at_k1() {
    // At a single failure every surviving BGP path is also a shortest
    // path, so QARC's weighted-graph model coincides with the real
    // control plane and the two verifiers must agree.
    let ft = fattree(4);
    let flows = ft.pairwise_flows(9, Ratio::int(5));
    for threshold in [Ratio::new(30, 100), Ratio::new(90, 100)] {
        let tlp = Tlp::no_overload(&ft.net.topo, threshold.clone());
        let mut v = YuVerifier::new(
            ft.net.clone(),
            YuOptions {
                k: 1,
                ..Default::default()
            },
        );
        v.add_flows(&flows);
        let yu_out = v.verify(&tlp);
        let qa_out = qarc_verify(&ft.net, &flows, &tlp, 1, false);
        assert_eq!(
            yu_out.verified(),
            qa_out.verified(),
            "threshold {threshold}"
        );
    }
}

#[test]
fn qarc_model_diverges_from_bgp_under_double_failures() {
    // The paper's generality argument, demonstrated: fail edge0-agg0 and
    // edge1-agg1 in pod 0. BGP (AS-path loop prevention) leaves
    // edge0 -> edge1 traffic with no route — re-entering pod 0's AS is
    // rejected — while a pure shortest-path model happily routes the
    // "valley" path edge0-agg1-core-agg0-edge1. QARC therefore reports
    // different loads than the real control plane here.
    let ft = fattree(4);
    let e0 = ft.edges[0];
    let e1 = ft.edges[1];
    let flow = Flow::new(
        e0,
        "11.0.0.1".parse().unwrap(),
        "100.0.0.1".parse().unwrap(), // edge prefix 1... computed below
        0,
        Ratio::int(5),
    );
    let dst = {
        let p = ft.edge_prefix(1);
        yu::net::Ipv4(p.addr().0 | 1)
    };
    let flow = Flow { dst, ..flow };
    // Find the two intra-pod ulinks.
    let mut cut = Vec::new();
    for u in ft.net.topo.ulinks() {
        let (fwd, _) = ft.net.topo.directions(u);
        let lk = ft.net.topo.link(fwd);
        let names = [
            ft.net.topo.router(lk.from).name.clone(),
            ft.net.topo.router(lk.to).name.clone(),
        ];
        if names.contains(&"agg0_0".to_string()) && names.contains(&"edge0_0".to_string()) {
            cut.push(u);
        }
        if names.contains(&"agg0_1".to_string()) && names.contains(&"edge0_1".to_string()) {
            cut.push(u);
        }
    }
    assert_eq!(cut.len(), 2);
    let scenario = Scenario::links(cut);

    // Real control plane (concrete BGP simulation): the traffic is
    // dropped at the ingress.
    let loads = concrete_loads(&ft.net, &scenario, std::slice::from_ref(&flow));
    assert_eq!(
        loads.get(&LoadPoint::Delivered(e1)).cloned(),
        None,
        "BGP cannot deliver (valley path rejected)"
    );
    assert_eq!(
        loads.get(&LoadPoint::Dropped(e0)).cloned(),
        Some(Ratio::int(5))
    );

    // QARC's shortest-path model believes the valley path delivers in
    // this scenario, so its violation set misses it, while the
    // BGP-faithful enumerator reports it.
    let tlp = Tlp::new().with(yu::net::TlpReq::at_least(
        LoadPoint::Delivered(e1),
        Ratio::int(5),
    ));
    let qa_out = qarc_verify(&ft.net, std::slice::from_ref(&flow), &tlp, 2, false);
    assert!(
        !qa_out.violations.iter().any(|v| v.scenario == scenario),
        "the shortest-path model believes the valley path delivers here"
    );
    let jg_out = jingubang_verify(
        &ft.net,
        &[flow],
        &tlp,
        2,
        FailureMode::Links,
        yu::net::DEFAULT_MAX_HOPS,
        false,
    );
    assert!(
        jg_out.violations.iter().any(|v| v.scenario == scenario),
        "the real control plane drops the traffic here"
    );
}

#[test]
fn combined_links_and_routers_mode_matches_concrete() {
    let w = wan(WanParams {
        core_routers: 5,
        stub_routers: 2,
        extra_core_links: 3,
        prefixes: 8,
        sr_policies: 1,
        seed: 42,
    });
    let flows = w.flows(20, 4242);
    let scenarios = scenarios_up_to_k(&w.net.topo, FailureMode::LinksAndRouters, 1);
    assert_symbolic_matches_concrete(&w.net, &flows, FailureMode::LinksAndRouters, 1, scenarios);
}

#[test]
fn fig1_network_matches_concrete_under_router_failures() {
    use yu::gen::motivating_example;
    let ex = motivating_example();
    let scenarios = scenarios_up_to_k(&ex.net.topo, FailureMode::Routers, 2);
    assert_symbolic_matches_concrete(&ex.net, &ex.flows, FailureMode::Routers, 2, scenarios);
}

/// A preset as `yu export` writes it.
fn preset(which: &str) -> yu::spec::VerifySpec {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_yu"))
        .args(["export", which])
        .output()
        .expect("yu export runs");
    assert!(out.status.success(), "yu export {which} failed");
    let json = String::from_utf8(out.stdout).expect("the spec is UTF-8");
    yu::spec::VerifySpec::from_json(&json).expect("the exported spec parses")
}

#[test]
fn path_listing_agrees_with_per_link_forwarding() {
    // Both drivers of the concrete per-hop function: the paths
    // `forward_paths` lists, summed per link (a link crossed twice counts
    // twice), per delivering and per dropping router, must reproduce
    // `forward_flow`'s maps exactly.
    let mut pairs = 0;
    let cases = [
        ("fig1", 2),
        ("fig9", 2),
        ("fig10", 2),
        ("preflight", 2),
        ("ft4", 1),
        ("n0", 1),
    ];
    for (which, k) in cases {
        let spec = preset(which);
        let net = &spec.network;
        // Forwarding reads only the ingress, destination and DSCP.
        let mut flows = spec.flows.clone();
        flows.sort_by_key(|f| (f.ingress, f.dst, f.dscp));
        flows.dedup_by_key(|f| (f.ingress, f.dst, f.dscp));
        for mode in [FailureMode::Links, FailureMode::Routers] {
            for s in scenarios_up_to_k(&net.topo, mode, k) {
                let routes = ConcreteRoutes::compute(net, &s);
                for f in &flows {
                    let paths = routes.forward_paths(f, yu::net::DEFAULT_MAX_HOPS);
                    if paths.len() == MAX_TRACED_PATHS {
                        continue; // the list may be capped
                    }
                    let mut sums = ConcreteFlowResult::default();
                    for p in &paths {
                        for &l in &p.links {
                            *sums.link_fraction.entry(l).or_insert(Ratio::ZERO) +=
                                p.fraction.clone();
                        }
                        let sink = match p.outcome {
                            PathOutcome::Delivered(r) => sums.delivered.entry(r),
                            PathOutcome::Dropped(r) => sums.dropped.entry(r),
                            PathOutcome::Truncated => continue,
                        };
                        *sink.or_insert(Ratio::ZERO) += p.fraction.clone();
                    }
                    assert_eq!(
                        sums,
                        routes.forward_flow(f, yu::net::DEFAULT_MAX_HOPS),
                        "{which} {mode:?} {f:?} under {}",
                        s.describe(&net.topo)
                    );
                    pairs += 1;
                }
            }
        }
    }
    assert!(pairs > 0);
}
