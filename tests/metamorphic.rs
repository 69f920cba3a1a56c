//! Metamorphic laws the paper's semantics imply, checked end to end.
//!
//! **Violations grow with the budget.** "Safe under every scenario of at
//! most `k` failures" quantifies over a set of scenarios that only grows
//! with `k`, so a requirement violated at budget `k` is violated at
//! `k + 1` too: the violated requirements at `k` are a subset of those
//! at `k + 1`. The law is checked at `k = 0, 1, 2` on the six built-in
//! presets in link and router failure mode, and on the random WANs of
//! `prop_differential.rs` with an overload bound drawn per case.
//!
//! **Violations do not depend on how the flows are declared.** A load is
//! `Σ V_c·ω_c` over the flows, and addition commutes and distributes
//! over volume. So the violations — points, counterexample scenarios and
//! loads — are unchanged when the flow list is permuted, and when flows
//! are split into two halves with equal headers. Both rewrites reorder
//! the flow groups (and pick other representatives for them) and with
//! them the operand lists the aggregation sums, which the canonical
//! `βₖ(Σ)` must not see. Checked at the same budgets, presets, modes
//! and random WANs as the first law.

use proptest::prelude::*;
use std::collections::BTreeSet;
use yu::core::{Violation, YuOptions, YuVerifier};
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

/// The violations of `tlp` at budget `k`.
fn violations(
    net: &Network,
    flows: &[Flow],
    tlp: &Tlp,
    mode: FailureMode,
    k: u32,
) -> Vec<Violation> {
    let mut v = YuVerifier::new(
        net.clone(),
        YuOptions {
            k,
            mode,
            ..Default::default()
        },
    );
    v.add_flows(flows);
    v.verify(tlp).violations
}

/// The indices of the requirements of `tlp` violated at budget `k`.
fn violated(
    net: &Network,
    flows: &[Flow],
    tlp: &Tlp,
    mode: FailureMode,
    k: u32,
) -> BTreeSet<usize> {
    violations(net, flows, tlp, mode, k)
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

/// `flows` in the order of a seeded Fisher–Yates shuffle.
fn permuted(flows: &[Flow], seed: u64) -> Vec<Flow> {
    let mut out = flows.to_vec();
    let mut x = seed | 1;
    for i in (1..out.len()).rev() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        out.swap(i, (x % (i as u64 + 1)) as usize);
    }
    out
}

/// `flows` with every `step`-th flow split into two halves with its
/// headers: one half in its place, the other moved to the front of the
/// list, which moves its group to the front too.
fn split(flows: &[Flow], step: usize) -> Vec<Flow> {
    let mut rest = flows.to_vec();
    let mut out = Vec::new();
    for i in (0..flows.len()).step_by(step) {
        rest[i].volume = flows[i].volume.clone() * Ratio::new(1, 2);
        out.push(rest[i].clone());
    }
    out.reverse();
    out.extend(rest);
    out
}

/// The violations at `k = 0, 1, 2` are those of the permuted and of the
/// split flow list, element for element. Returns how many there are at
/// `k = 2`.
fn assert_declaration_invariant(
    what: &str,
    net: &Network,
    flows: &[Flow],
    tlp: &Tlp,
    mode: FailureMode,
    seed: u64,
) -> usize {
    let rewrites = [
        ("permuted", permuted(flows, seed)),
        ("split", split(flows, 1 + seed as usize % 3)),
    ];
    let mut base = Vec::new();
    for k in 0..=2 {
        base = violations(net, flows, tlp, mode, k);
        for (how, rewritten) in &rewrites {
            assert_eq!(
                base,
                violations(net, rewritten, tlp, mode, k),
                "{what} ({mode:?}, k={k}): the {how} flow list changed the violations"
            );
        }
    }
    base.len()
}

#[test]
fn violations_do_not_depend_on_flow_declaration_on_the_presets() {
    let mut violated = 0;
    for (name, net, flows, tlp) in presets() {
        for mode in [FailureMode::Links, FailureMode::Routers] {
            violated += assert_declaration_invariant(name, &net, &flows, &tlp, mode, 0x5eed);
        }
    }
    assert!(violated > 0, "no preset is violated: the law is vacuous");
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

    /// The declaration laws on the same random WANs, with a shuffle and
    /// a split stride drawn per case.
    #[test]
    fn violations_do_not_depend_on_flow_declaration_on_random_wans(
        seed in 0u64..1000,
        flow_seed in 0u64..1000,
        percent in 1i64..=100,
        routers in any::<bool>(),
        shuffle in any::<u64>(),
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
        let what = format!("wan seed {seed}, flows {flow_seed}, {percent} %");
        assert_declaration_invariant(&what, &w.net, &flows, &tlp, mode, shuffle);
    }
}
