//! Differential tests for the check stage and its callers: for every
//! built-in example and both failure modes, `verify`,
//! `verify_enumerated(_, 1)` and the incremental engine's first
//! verification report the same violations, aggregation statistics and
//! bound-decided count, and the per-flow ablation
//! (`use_global_equiv: false`) reports the violations of the
//! class-grouped run. The Fig. 13/15 ablation options violate the
//! points the default run violates. A budget past the link count, up to
//! `u32::MAX`, verifies like a budget of every link.

use std::collections::BTreeSet;
use yu::core::{IncrementalVerifier, VerificationOutcome, YuOptions, YuVerifier};
use yu::gen::{
    fattree_with_flows, motivating_example, sr_anycast_incident, static_blackhole_incident, wan,
    WanParams,
};
use yu::mtbdd::Ratio;
use yu::net::{FailureMode, Flow, LoadPoint, Network, Tlp};

struct Instance {
    name: &'static str,
    net: Network,
    flows: Vec<Flow>,
    tlp: Tlp,
    k: u32,
}

/// Every built-in `yu export` example (fig1, fig9, fig10, ft4) plus a
/// small random WAN.
fn instances() -> Vec<Instance> {
    let fig1 = motivating_example();
    let fig9 = sr_anycast_incident();
    let fig10 = static_blackhole_incident();
    let (ft, ft_flows) = fattree_with_flows(4, 16);
    let ft_tlp = Tlp::no_overload(&ft.net.topo, Ratio::new(95, 100));
    let w = wan(WanParams {
        core_routers: 5,
        stub_routers: 2,
        extra_core_links: 3,
        prefixes: 8,
        sr_policies: 1,
        seed: 7,
    });
    let w_flows = w.flows(25, 70);
    let w_tlp = Tlp::no_overload(&w.net.topo, Ratio::new(95, 100));
    vec![
        Instance {
            name: "fig1",
            net: fig1.net,
            flows: fig1.flows,
            tlp: fig1.p2,
            k: 1,
        },
        Instance {
            name: "fig9",
            net: fig9.net,
            flows: fig9.flows,
            tlp: fig9.tlp,
            k: 1,
        },
        Instance {
            name: "fig10",
            net: fig10.net,
            flows: fig10.flows,
            tlp: fig10.tlp,
            k: 1,
        },
        Instance {
            name: "ft4",
            net: ft.net,
            flows: ft_flows,
            tlp: ft_tlp,
            k: 2,
        },
        Instance {
            name: "wan-small",
            net: w.net,
            flows: w_flows,
            tlp: w_tlp,
            k: 1,
        },
    ]
}

fn run(inst: &Instance, mode: FailureMode, opts: YuOptions) -> YuVerifier {
    let mut v = YuVerifier::new(
        inst.net.clone(),
        YuOptions {
            k: inst.k,
            mode,
            ..opts
        },
    );
    v.add_flows(&inst.flows);
    v
}

/// The Fig. 13/15 ablation options change how a load is built, not what
/// it is: disabling link-local equivalence, KREDUCE or both violates the
/// same set of points as the default run.
#[test]
fn ablation_options_match_sequential() {
    let points = |out: &VerificationOutcome| -> BTreeSet<LoadPoint> {
        out.violations.iter().map(|v| v.point).collect()
    };
    for inst in &instances()[..3] {
        let default = run(inst, FailureMode::Links, YuOptions::default()).verify(&inst.tlp);
        assert!(!default.verified(), "{}: must violate", inst.name);
        for (lle, kred) in [(false, true), (true, false), (false, false)] {
            let opts = YuOptions {
                use_link_local_equiv: lle,
                use_kreduce: kred,
                ..Default::default()
            };
            let ablated = run(inst, FailureMode::Links, opts).verify(&inst.tlp);
            assert_eq!(
                points(&default),
                points(&ablated),
                "{} lle={lle} kreduce={kred}: violated points differ",
                inst.name
            );
        }
    }
}

/// Every caller of the check stage — `verify`, `verify_enumerated(_, 1)`
/// and `IncrementalVerifier::verify` — reports the same verdicts,
/// aggregation statistics and bound-decided count, and leaves the arena
/// the same size, to the node.
#[test]
fn every_caller_agrees_to_the_node() {
    for inst in &instances() {
        for mode in [FailureMode::Links, FailureMode::Routers] {
            let ctx = format!("{} mode={mode:?}", inst.name);
            let defaults = YuOptions::default();
            let plain = run(inst, mode, defaults).verify(&inst.tlp);
            let enumerated = run(inst, mode, defaults).verify_enumerated(&inst.tlp, 1);
            let incremental = IncrementalVerifier::new(
                inst.net.clone(),
                inst.flows.clone(),
                inst.tlp.clone(),
                YuOptions {
                    k: inst.k,
                    mode,
                    ..defaults
                },
            )
            .verify();
            // Executing every flow by itself finds what the class-grouped
            // run finds: a representative stands for its group.
            let per_flow = YuOptions {
                use_global_equiv: false,
                ..defaults
            };
            let per_flow = run(inst, mode, per_flow).verify(&inst.tlp);
            assert_eq!(
                plain.violations, per_flow.violations,
                "{ctx}: use_global_equiv: false"
            );
            for (caller, out) in [
                ("verify_enumerated(_, 1)", &enumerated),
                ("IncrementalVerifier::verify", &incremental),
            ] {
                assert_eq!(plain.violations, out.violations, "{ctx}: {caller}");
                assert_eq!(
                    plain.stats.per_point, out.stats.per_point,
                    "{ctx}: {caller}"
                );
                assert_eq!(
                    plain.stats.reqs_bound_decided, out.stats.reqs_bound_decided,
                    "{ctx}: {caller}"
                );
                // The incremental engine's first run is exactly the
                // batch's work.
                assert_eq!(
                    plain.stats.mtbdd.nodes_created, out.stats.mtbdd.nodes_created,
                    "{ctx}: nodes created, {caller}"
                );
            }
        }
    }
}

/// A budget of every link already admits every scenario, so `2^24` and
/// `u32::MAX` must report the same violations — without panicking on, or
/// aliasing, a memo key that has no room for such a budget.
#[test]
fn huge_budgets_verify_like_every_link_failing() {
    let mut fig1 = instances().swap_remove(0);
    fig1.k = fig1.net.topo.num_ulinks() as u32;
    let all = run(&fig1, FailureMode::Links, YuOptions::default()).verify(&fig1.tlp);
    assert!(!all.verified(), "fig1 is violated under any budget >= 1");
    for k in [1 << 24, u32::MAX] {
        fig1.k = k;
        let out = run(&fig1, FailureMode::Links, YuOptions::default()).verify(&fig1.tlp);
        assert_eq!(out.violations, all.violations, "k={k}");
    }
}
