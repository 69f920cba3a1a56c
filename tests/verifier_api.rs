//! API-level integration tests for `YuVerifier`: incremental flow
//! addition, option toggles, statistics, and router-failure mode.

use yu::core::{YuOptions, YuVerifier};
use yu::gen::{motivating_example, wan, WanParams};
use yu::mtbdd::Ratio;
use yu::net::{FailureMode, LoadPoint, Scenario, Tlp, TlpReq};

fn small_wan() -> (yu::net::Network, Vec<yu::net::Flow>) {
    let w = wan(WanParams {
        core_routers: 6,
        stub_routers: 3,
        extra_core_links: 4,
        prefixes: 12,
        sr_policies: 2,
        seed: 33,
    });
    let flows = w.flows(60, 133);
    (w.net, flows)
}

#[test]
fn incremental_add_flows_equals_batch() {
    let (net, flows) = small_wan();
    let opts = YuOptions {
        k: 1,
        ..Default::default()
    };
    let mut batch = YuVerifier::new(net.clone(), opts);
    batch.add_flows(&flows);
    let mut incremental = YuVerifier::new(net.clone(), opts);
    incremental.add_flows(&flows[..30]);
    incremental.add_flows(&flows[30..]);
    let s = Scenario::none();
    for l in net.topo.links() {
        assert_eq!(
            batch.load_at(LoadPoint::Link(l), &s),
            incremental.load_at(LoadPoint::Link(l), &s),
            "link {}",
            net.topo.link_label(l)
        );
    }
}

#[test]
fn disabling_global_equivalence_preserves_loads() {
    let (net, flows) = small_wan();
    let mut with_eq = YuVerifier::new(
        net.clone(),
        YuOptions {
            k: 1,
            ..Default::default()
        },
    );
    with_eq.add_flows(&flows);
    let mut without_eq = YuVerifier::new(
        net.clone(),
        YuOptions {
            k: 1,
            use_global_equiv: false,
            ..Default::default()
        },
    );
    without_eq.add_flows(&flows);
    assert!(
        without_eq.verify(&Tlp::new()).stats.flow_groups
            >= with_eq.verify(&Tlp::new()).stats.flow_groups
    );
    for u in net.topo.ulinks() {
        let s = Scenario::links([u]);
        for l in net.topo.links() {
            assert_eq!(
                with_eq.load_at(LoadPoint::Link(l), &s),
                without_eq.load_at(LoadPoint::Link(l), &s)
            );
        }
    }
}

#[test]
fn disabling_link_local_equivalence_preserves_verdicts() {
    let (net, flows) = small_wan();
    let tlp = Tlp::no_overload(&net.topo, Ratio::new(40, 100));
    let mut fast = YuVerifier::new(
        net.clone(),
        YuOptions {
            k: 1,
            ..Default::default()
        },
    );
    fast.add_flows(&flows);
    let mut slow = YuVerifier::new(
        net.clone(),
        YuOptions {
            k: 1,
            use_link_local_equiv: false,
            ..Default::default()
        },
    );
    slow.add_flows(&flows);
    let a = fast.verify(&tlp);
    let b = slow.verify(&tlp);
    assert_eq!(a.verified(), b.verified());
    assert_eq!(a.violations.len(), b.violations.len());
}

#[test]
fn per_point_stats_expose_equivalence_classes() {
    let (net, flows) = small_wan();
    let mut v = YuVerifier::new(
        net.clone(),
        YuOptions {
            k: 1,
            ..Default::default()
        },
    );
    v.add_flows(&flows);
    let tlp = Tlp::no_overload(&net.topo, Ratio::new(95, 100));
    let out = v.verify(&tlp);
    assert_eq!(out.stats.per_point.len(), tlp.reqs.len());
    // Classes never exceed flows at any point.
    for stats in out.stats.per_point.values() {
        assert!(stats.classes <= stats.flows);
    }
    // At least one loaded link has fewer classes than flows (the whole
    // point of Sec. 5.3).
    assert!(
        out.stats
            .per_point
            .values()
            .any(|s| s.flows > 0 && s.classes < s.flows),
        "link-local equivalence should collapse something"
    );
}

#[test]
fn router_mode_catches_router_outages() {
    let ex = motivating_example();
    let f = ex.routers[5];
    let mut v = YuVerifier::new(
        ex.net.clone(),
        YuOptions {
            k: 1,
            mode: FailureMode::Routers,
            ..Default::default()
        },
    );
    v.add_flows(&ex.flows);
    // Delivery requires F itself: any property demanding delivery > 0
    // must break when F fails.
    let tlp = Tlp::new().with(TlpReq::at_least(LoadPoint::Delivered(f), Ratio::int(1)));
    let out = v.verify(&tlp);
    assert!(!out.verified());
    assert!(
        out.violations[0].scenario.failed_routers.contains(&f)
            || !out.violations[0].scenario.failed_routers.is_empty()
    );
    // And the E-router failure severs everything too.
    let s = Scenario::routers([ex.routers[4]]);
    assert_eq!(v.load_at(LoadPoint::Delivered(f), &s), Ratio::ZERO);
}

#[test]
fn k0_equals_concrete_no_failure_loads() {
    let (net, flows) = small_wan();
    let mut v = YuVerifier::new(
        net.clone(),
        YuOptions {
            k: 0,
            ..Default::default()
        },
    );
    v.add_flows(&flows);
    use yu::routing::ConcreteRoutes;
    let routes = ConcreteRoutes::compute(&net, &Scenario::none());
    for f in &flows {
        let _ = routes.forward_flow(f, yu::net::DEFAULT_MAX_HOPS);
    }
    // Spot-check one aggregated value end to end at k = 0: total
    // delivered equals total volume minus total dropped.
    let mut delivered = Ratio::ZERO;
    let mut dropped = Ratio::ZERO;
    let s = Scenario::none();
    for r in net.topo.routers() {
        delivered += v.load_at(LoadPoint::Delivered(r), &s);
        dropped += v.load_at(LoadPoint::Dropped(r), &s);
    }
    let total: Ratio = flows
        .iter()
        .fold(Ratio::ZERO, |acc, f| acc + f.volume.clone());
    assert_eq!(delivered + dropped, total, "conservation of traffic");
}

#[test]
fn verify_no_overload_convenience() {
    let ex = motivating_example();
    let mut v = YuVerifier::new(
        ex.net,
        YuOptions {
            k: 1,
            ..Default::default()
        },
    );
    v.add_flows(&ex.flows);
    let out = v.verify_no_overload(Ratio::new(95, 100));
    assert!(!out.verified());
    // Very generous threshold verifies.
    let out = v.verify_no_overload(Ratio::int(100));
    assert!(out.verified());
}

#[test]
fn violations_are_minimal_in_failure_count() {
    // find_path prefers alive branches, so a violation reachable with
    // zero failures is reported with an empty scenario.
    let (net, flows) = small_wan();
    let mut v = YuVerifier::new(
        net.clone(),
        YuOptions {
            k: 2,
            ..Default::default()
        },
    );
    v.add_flows(&flows);
    // Absurdly low threshold: already violated with no failures.
    let tlp = Tlp::no_overload(&net.topo, Ratio::new(1, 1000));
    let out = v.verify(&tlp);
    assert!(!out.verified());
    assert!(
        out.violations.iter().any(|vi| vi.scenario.count() == 0),
        "a no-failure violation must be reported without failures"
    );
}

#[test]
fn flow_results_order_is_deterministic() {
    // flow_results() must iterate in a canonical order (sorted by flow
    // identity), independent of the order flows were added and of
    // batching — downstream consumers (figures, reports) rely on stable
    // iteration.
    let (net, flows) = small_wan();
    let key = |f: &yu::net::Flow| (f.ingress, f.dst, f.dscp, f.src);
    let mut forward = YuVerifier::new(
        net.clone(),
        YuOptions {
            k: 1,
            ..Default::default()
        },
    );
    forward.add_flows(&flows);
    let mut reversed_flows = flows.clone();
    reversed_flows.reverse();
    let mut backward = YuVerifier::new(
        net.clone(),
        YuOptions {
            k: 1,
            ..Default::default()
        },
    );
    // Reversed order AND split into two batches.
    let mid = reversed_flows.len() / 3;
    backward.add_flows(&reversed_flows[..mid]);
    backward.add_flows(&reversed_flows[mid..]);

    // Whatever the insertion order or batching, the iteration must come
    // out sorted by flow identity...
    for v in [&forward, &backward] {
        let keys: Vec<_> = v.flow_results().map(|(g, _)| key(&g.rep)).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted, "iteration must be sorted by flow id");
    }
    // ...and a second verifier over the same input (fresh hash seeds)
    // yields the same groups with the same load points, in the same order.
    let results = |v: &YuVerifier| -> Vec<_> {
        v.flow_results()
            .map(|(g, r)| {
                let mut pts: Vec<_> = r.loads.keys().copied().collect();
                pts.sort();
                (key(&g.rep), pts)
            })
            .collect()
    };
    let mut again = YuVerifier::new(
        net.clone(),
        YuOptions {
            k: 1,
            ..Default::default()
        },
    );
    again.add_flows(&flows);
    assert_eq!(
        results(&forward),
        results(&again),
        "groups or load points diverge"
    );
}

#[test]
fn forced_gc_does_not_change_results() {
    // A tiny GC threshold forces collections constantly (including inside
    // the per-link aggregation loop); every load and verdict must match a
    // GC-free run bit for bit.
    let (net, flows) = small_wan();
    let tlp = Tlp::no_overload(&net.topo, Ratio::new(60, 100));
    let mut no_gc = YuVerifier::new(
        net.clone(),
        YuOptions {
            k: 2,
            gc_node_threshold: 0,
            ..Default::default()
        },
    );
    no_gc.add_flows(&flows);
    let mut heavy_gc = YuVerifier::new(
        net.clone(),
        YuOptions {
            k: 2,
            gc_node_threshold: 1,
            ..Default::default()
        },
    );
    heavy_gc.add_flows(&flows);
    let a = no_gc.verify(&tlp);
    let b = heavy_gc.verify(&tlp);
    assert_eq!(a.verified(), b.verified());
    assert_eq!(a.violations.len(), b.violations.len());
    for (x, y) in a.violations.iter().zip(&b.violations) {
        assert_eq!(x.point, y.point);
        assert_eq!(x.load, y.load);
        assert_eq!(x.scenario, y.scenario);
    }
    // Loads match at random scenarios too.
    for u in net.topo.ulinks().take(6) {
        let s = Scenario::links([u]);
        for l in net.topo.links() {
            assert_eq!(
                no_gc.load_at(LoadPoint::Link(l), &s),
                heavy_gc.load_at(LoadPoint::Link(l), &s),
                "link {}",
                net.topo.link_label(l)
            );
        }
    }
    // The GC'd arena must be much smaller.
    assert!(heavy_gc.mtbdd_stats().live_nodes <= no_gc.mtbdd_stats().live_nodes);
}
