//! Determinism of the flat-arena MTBDD engine: the index-based arena,
//! the open-addressed unique table, the direct-mapped memo caches and the
//! n-ary fused aggregation use no randomized hashing and no
//! address-dependent iteration, so re-running an instance reproduces its
//! exact `nodes_created` count, unique-table peak and violation list —
//! the property CI's deterministic node-count gates rely on. Covered
//! across the built-in examples × both failure modes.

use yu::core::{YuOptions, YuVerifier};
use yu::gen::{
    fattree_with_flows, motivating_example, sr_anycast_incident, static_blackhole_incident, wan,
    WanParams,
};
use yu::mtbdd::Ratio;
use yu::net::{FailureMode, Flow, Network, Tlp};

struct Instance {
    name: &'static str,
    net: Network,
    flows: Vec<Flow>,
    tlp: Tlp,
    k: u32,
}

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
        seed: 11,
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
            name: "wan",
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

/// The flat arena is a deterministic function of the operation sequence:
/// re-running an instance reproduces `nodes_created` exactly (no
/// randomized hashing, no address-dependent iteration anywhere in the
/// hot path). This is the invariant that lets CI gate on exact node
/// counts.
#[test]
fn node_counts_are_bit_deterministic_across_runs() {
    for inst in &instances() {
        for mode in [FailureMode::Links, FailureMode::Routers] {
            let trace = || {
                let mut v = run(inst, mode, YuOptions::default());
                let out = v.verify(&inst.tlp);
                // Node counts and the unique-table peak are exact
                // replay invariants (hash-consing makes them functions
                // of the set of functions built, not of operation
                // order); cache miss counters can legitimately wobble
                // with iteration order upstream, so they are not gated.
                (
                    out.stats.mtbdd.nodes_created,
                    out.stats.mtbdd.unique_table_peak,
                    format!("{:?}", out.violations),
                )
            };
            assert_eq!(
                trace(),
                trace(),
                "{} mode={mode:?}: runs must be bit-deterministic",
                inst.name
            );
        }
    }
}
