//! The layer law behind Theorem 5.1, at handle level: the budgeted
//! pipeline is `βₖ ∘` the exact pipeline.
//!
//! Route simulation and traffic execution apply the failure budget inside
//! every binary step (`Mtbdd::apply_kreduce`) instead of reducing stored
//! results afterwards. Because ≈ₖ is a congruence under every pointwise
//! operator and `KREDUCE` is canonicalizing, each object the budgeted
//! layers store must be *the same node* as `kreduce(·, k)` of the object
//! the exact layers (`k = None`) store — for every IGP distance, every
//! `V^IGP` share and every per-point STF — and no path of it may take
//! more than `k` failed branches (Lemma 2). Both pipelines run in one
//! arena, so equality of functions is equality of handles.

use std::collections::{BTreeSet, HashMap};
use yu::core::{global_groups_classified, simulate_flow, ExecOptions};
use yu::gen::{
    fattree_with_flows, motivating_example, sr_anycast_incident, static_blackhole_incident, wan,
    WanPreset,
};
use yu::mtbdd::{Mtbdd, NodeRef};
use yu::net::{FailureMode, FailureVars, Flow, LinkId, LoadPoint, Network, DEFAULT_MAX_HOPS};
use yu::routing::SymbolicRoutes;

const K: u32 = 2;

/// fig1, the two incident replays (fig9, fig10), N0 and fattree-m4.
fn instances() -> Vec<(&'static str, Network, Vec<Flow>)> {
    let fig1 = motivating_example();
    let fig9 = sr_anycast_incident();
    let fig10 = static_blackhole_incident();
    let n0 = wan(WanPreset::N0.params());
    let n0_flows = n0.flows(400, 0xF10F);
    let (ft, ft_flows) = fattree_with_flows(4, 16);
    vec![
        ("fig1", fig1.net, fig1.flows),
        ("fig9", fig9.net, fig9.flows),
        ("fig10", fig10.net, fig10.flows),
        ("n0", n0.net, n0_flows),
        ("ft4", ft.net, ft_flows),
    ]
}

/// `budgeted` is the canonical `β_K` of `exact`, and obeys Lemma 2.
fn assert_law(m: &mut Mtbdd, exact: NodeRef, budgeted: NodeRef, what: &str) {
    assert_eq!(
        budgeted,
        m.kreduce(exact, K),
        "{what}: budgeted != β_{K}(exact)"
    );
    let mpf = m.max_path_failures(budgeted);
    assert!(mpf <= K, "{what}: {mpf} failures on one path");
}

fn check(name: &str, net: &Network, flows: &[Flow], mode: FailureMode) {
    let mut m = Mtbdd::new();
    let fv = FailureVars::allocate(&mut m, &net.topo, mode);
    let mut exact = SymbolicRoutes::compute(&mut m, net, &fv, None);
    let mut budgeted = SymbolicRoutes::compute(&mut m, net, &fv, Some(K));
    let zero = m.zero();

    for (asn, members) in net.ases() {
        for ip in net.igp_destinations(asn) {
            for &r in &members {
                let what = format!("{name} {mode:?}: dist(as{asn}, {ip:?}, r{})", r.0);
                let (e, b) = (
                    exact.igp.dist(&m, asn, ip, r),
                    budgeted.igp.dist(&m, asn, ip, r),
                );
                assert_law(&mut m, e, b, &what);

                // Shares that reduce to zero are dropped from the vector.
                let e: HashMap<LinkId, NodeRef> = exact
                    .vigp(&mut m, net, &fv, r, ip)
                    .iter()
                    .copied()
                    .collect();
                let b: HashMap<LinkId, NodeRef> = budgeted
                    .vigp(&mut m, net, &fv, r, ip)
                    .iter()
                    .copied()
                    .collect();
                let links: BTreeSet<LinkId> = e.keys().chain(b.keys()).copied().collect();
                for l in links {
                    let what = format!("{name} {mode:?}: vigp(r{}, {ip:?})[l{}]", r.0, l.0);
                    let at = |v: &HashMap<LinkId, NodeRef>| v.get(&l).copied().unwrap_or(zero);
                    assert_law(&mut m, at(&e), at(&b), &what);
                }
            }
        }
    }

    for g in global_groups_classified(net, flows) {
        let opts = |k| ExecOptions {
            k,
            max_hops: DEFAULT_MAX_HOPS,
        };
        let e = simulate_flow(&mut m, net, &fv, &mut exact, &g.rep, opts(None));
        let b = simulate_flow(&mut m, net, &fv, &mut budgeted, &g.rep, opts(Some(K)));
        let points: BTreeSet<LoadPoint> = e.loads.keys().chain(b.loads.keys()).copied().collect();
        for p in points {
            let what = format!(
                "{name} {mode:?}: STF of r{} -> {:?} at {p:?}",
                g.rep.ingress.0, g.rep.dst
            );
            let (ep, bp) = (e.at(&m, p), b.at(&m, p));
            assert_law(&mut m, ep, bp, &what);
        }
        // The TTL leftover is a plain sum of (reduced) frontier entries.
        let leftover = m.kreduce(b.truncated, K);
        assert_law(&mut m, e.truncated, leftover, &format!("{name}: truncated"));
    }
}

#[test]
fn budgeted_layers_store_the_reduction_of_what_exact_layers_store() {
    for (name, net, flows) in instances() {
        for mode in [FailureMode::Links, FailureMode::Routers] {
            check(name, &net, &flows, mode);
        }
    }
}
