//! Metamorphic laws the paper's semantics imply, checked end to end.
//!
//! **Violations grow with the budget.** "Safe under every scenario of at
//! most `k` failures" quantifies over a set of scenarios that only grows
//! with `k`, so a requirement violated at budget `k` is violated at
//! `k + 1` too: the violated requirements at `k` are a subset of those
//! at `k + 1`. The law is checked at `k = 0, 1, 2` on the six built-in
//! presets in link and router failure mode, and on the random WANs of
//! `prop_differential.rs` with an overload bound drawn per case.

use proptest::prelude::*;
use std::collections::BTreeSet;
use yu::core::{YuOptions, YuVerifier};
use yu::gen::{wan, WanParams, WanPreset};
use yu::mtbdd::Ratio;
use yu::net::{FailureMode, Flow, Network, Tlp};

/// The six presets `yu export` prints: fig1, fig9, fig10, ft4, n0 and
/// preflight.
fn presets() -> Vec<(&'static str, Network, Vec<Flow>, Tlp)> {
    let fig1 = yu::gen::motivating_example();
    let fig9 = yu::gen::sr_anycast_incident();
    let fig10 = yu::gen::static_blackhole_incident();
    let (ft, ft_flows) = yu::gen::fattree_with_flows(4, 16);
    let ft_tlp = Tlp::no_overload(&ft.net.topo, Ratio::new(95, 100));
    let n0 = wan(WanPreset::N0.params());
    let n0_flows = n0.flows(2000, 0xF10F);
    let n0_tlp = Tlp::no_overload(&n0.net.topo, Ratio::new(95, 100));
    let pre = yu::gen::preflight_example();
    vec![
        ("fig1", fig1.net, fig1.flows, fig1.p2),
        ("fig9", fig9.net, fig9.flows, fig9.tlp),
        ("fig10", fig10.net, fig10.flows, fig10.tlp),
        ("ft4", ft.net, ft_flows, ft_tlp),
        ("n0", n0.net, n0_flows, n0_tlp),
        ("preflight", pre.net, pre.flows, pre.tlp),
    ]
}

/// The indices of the requirements of `tlp` violated at budget `k`.
fn violated(
    net: &Network,
    flows: &[Flow],
    tlp: &Tlp,
    mode: FailureMode,
    k: u32,
) -> BTreeSet<usize> {
    let mut v = YuVerifier::new(
        net.clone(),
        YuOptions {
            k,
            mode,
            ..Default::default()
        },
    );
    v.add_flows(flows);
    let out = v.verify(tlp);
    out.violations
        .iter()
        .map(|viol| {
            tlp.reqs
                .iter()
                .position(|r| r.point == viol.point && r.min == viol.min && r.max == viol.max)
                .expect("a violation names a requirement of the property")
        })
        .collect()
}

/// The violated sets at `k = 0, 1, 2`, each a subset of the next.
fn assert_monotone(
    what: &str,
    net: &Network,
    flows: &[Flow],
    tlp: &Tlp,
    mode: FailureMode,
) -> Vec<BTreeSet<usize>> {
    let sets: Vec<_> = (0..=2)
        .map(|k| violated(net, flows, tlp, mode, k))
        .collect();
    for k in 0..2 {
        assert!(
            sets[k].is_subset(&sets[k + 1]),
            "{what} ({mode:?}): violated at k={k} {:?} not within k={} {:?}",
            sets[k],
            k + 1,
            sets[k + 1]
        );
    }
    sets
}

#[test]
fn violations_at_k_are_violations_at_k_plus_one_on_the_presets() {
    let mut grew = vec![];
    for (name, net, flows, tlp) in presets() {
        for mode in [FailureMode::Links, FailureMode::Routers] {
            let sets = assert_monotone(name, &net, &flows, &tlp, mode);
            if sets[0].len() < sets[2].len() {
                grew.push((name, mode));
            }
        }
    }
    // Not vacuous: fig1's p2 holds with no failure and breaks under one
    // link failure (the paper's Fig. 1).
    assert!(
        grew.contains(&("fig1", FailureMode::Links)),
        "no preset's violations grew with k: {grew:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The same law on the random WANs of `prop_differential.rs`, with
    /// a link-overload bound between 1 % and 100 % of capacity so that
    /// cases fall on both sides of it.
    #[test]
    fn violations_grow_with_the_budget_on_random_wans(
        seed in 0u64..1000,
        flow_seed in 0u64..1000,
        percent in 1i64..=100,
        routers in any::<bool>(),
    ) {
        let w = wan(WanParams {
            core_routers: 5,
            stub_routers: 3,
            extra_core_links: 3,
            prefixes: 10,
            sr_policies: 1,
            seed,
        });
        let flows = w.flows(20, flow_seed);
        let tlp = Tlp::no_overload(&w.net.topo, Ratio::new(percent as i128, 100));
        let mode = if routers { FailureMode::Routers } else { FailureMode::Links };
        assert_monotone(&format!("wan seed {seed}, flows {flow_seed}, {percent} %"), &w.net, &flows, &tlp, mode);
    }
}
