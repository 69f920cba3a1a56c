//! The collections where route simulation and traffic execution end
//! (`YuVerifier::new` and `add_flows`) change nothing a run reports.
//!
//! A collection drops every memo entry and renumbers the surviving
//! nodes, so everything after it runs on other handles and a colder
//! memo; hash-consing makes the diagrams it rebuilds the same functions.
//! A default run must therefore report the violations, the per-point
//! aggregation statistics and the bound-decided count of a run with
//! `gc_node_threshold: 0`, which never collects. Checked at `k = 0, 1, 2`
//! on the six built-in presets in link and router failure mode, and on
//! the random WANs of `prop_differential.rs`.

use proptest::prelude::*;
use yu::core::{VerificationOutcome, YuOptions, YuVerifier};
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

/// One verification, with the flows added in `batches` calls.
fn run(
    net: &Network,
    flows: &[Flow],
    tlp: &Tlp,
    mode: FailureMode,
    k: u32,
    gc_node_threshold: usize,
    batches: usize,
) -> VerificationOutcome {
    let mut v = YuVerifier::new(
        net.clone(),
        YuOptions {
            k,
            mode,
            gc_node_threshold,
            ..Default::default()
        },
    );
    for chunk in flows.chunks(flows.len().div_ceil(batches).max(1)) {
        v.add_flows(chunk);
    }
    v.verify(tlp)
}

/// A default run and a run that never collects report the same
/// verdicts; the default run collected at both stage boundaries, and its
/// counters are ordered work done ≥ peak ≥ live.
fn assert_collections_change_nothing(
    what: &str,
    net: &Network,
    flows: &[Flow],
    tlp: &Tlp,
    mode: FailureMode,
    k: u32,
) {
    let ctx = format!("{what} ({mode:?}, k={k})");
    let default = YuOptions::default().gc_node_threshold;
    let plain = run(net, flows, tlp, mode, k, 0, 1);
    let collected = run(net, flows, tlp, mode, k, default, 1);
    assert_eq!(plain.violations, collected.violations, "{ctx}: violations");
    assert_eq!(
        plain.stats.per_point, collected.stats.per_point,
        "{ctx}: per_point"
    );
    assert_eq!(
        plain.stats.reqs_bound_decided, collected.stats.reqs_bound_decided,
        "{ctx}: reqs_bound_decided"
    );
    let (p, c) = (&plain.stats.mtbdd, &collected.stats.mtbdd);
    assert_eq!(
        p.gc_runs, 0,
        "{ctx}: a threshold of 0 disables every collection"
    );
    assert!(c.gc_runs >= 2, "{ctx}: {} collections", c.gc_runs);
    assert!(
        c.nodes_created >= c.unique_table_peak && c.unique_table_peak >= c.live_nodes,
        "{ctx}: created {} peak {} live {}",
        c.nodes_created,
        c.unique_table_peak,
        c.live_nodes
    );
    assert_eq!(
        c.nodes_created,
        c.live_nodes + c.gc_reclaimed_nodes as usize,
        "{ctx}: every node created is live or reclaimed"
    );
    assert_eq!(p.nodes_created, p.live_nodes, "{ctx}");
}

#[test]
fn boundary_collections_change_no_verdict_on_the_presets() {
    for (name, net, flows, tlp) in presets() {
        for mode in [FailureMode::Links, FailureMode::Routers] {
            for k in 0..=2 {
                assert_collections_change_nothing(name, &net, &flows, &tlp, mode, k);
            }
        }
    }
}

#[test]
fn flows_added_in_batches_collect_amortized() {
    // Each `add_flows` call ends at a boundary. The rule collects only
    // once the arena has doubled since the last collection, so 200
    // calls do not mean 200 collections, and the violations are those
    // of one call (the groups, and so `per_point`, are per call).
    let n0 = wan(WanPreset::N0.params());
    let flows = n0.flows(2000, 0xF10F);
    let tlp = Tlp::no_overload(&n0.net.topo, Ratio::new(95, 100));
    let default = YuOptions::default().gc_node_threshold;
    let one = run(&n0.net, &flows, &tlp, FailureMode::Links, 2, default, 1);
    let many = run(&n0.net, &flows, &tlp, FailureMode::Links, 2, default, 200);
    assert_eq!(one.violations, many.violations);
    let gcs = many.stats.mtbdd.gc_runs;
    assert!(
        (2..=20).contains(&gcs),
        "{gcs} collections over 200 batches"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The same comparison on the random WANs of `prop_differential.rs`,
    /// with a link-overload bound drawn per case so that cases fall on
    /// both sides of it.
    #[test]
    fn boundary_collections_change_no_verdict_on_random_wans(
        seed in 0u64..1000,
        flow_seed in 0u64..1000,
        percent in 1i64..=100,
        routers in any::<bool>(),
        k in 0u32..=2,
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
        assert_collections_change_nothing(&what, &w.net, &flows, &tlp, mode, k);
    }
}

#[test]
fn attribution_reconciles_across_collections() {
    // `nodes_created` is work done, so the phase deltas of a run that
    // collected still add up to it, and none of them is negative.
    for (name, net, flows, tlp) in presets() {
        let mut v = YuVerifier::new(
            net,
            YuOptions {
                k: 2,
                ..Default::default()
            },
        );
        v.add_flows(&flows);
        let out = v.verify(&tlp);
        let attr = v.attribution();
        assert!(out.stats.mtbdd.gc_runs >= 2, "{name}");
        assert!(attr.reconciles(), "{name}");
        assert_eq!(
            attr.route_nodes as i64 + attr.exec.nodes_delta + attr.check.nodes_delta,
            out.stats.mtbdd.nodes_created as i64,
            "{name}: phase deltas must telescope to the cumulative counter"
        );
        let entities = attr.exec.entities.iter().chain(&attr.check.entities);
        assert!(
            entities.map(|e| e.nodes_delta).all(|d| d >= 0),
            "{name}: a node delta is negative"
        );
    }
}
