//! Soundness of destination classes (`yu::routing::DstClasses`), the
//! grouping key of global flow equivalence: two destinations of one class
//! must be forwarded identically from every ingress — *the same* symbolic
//! traffic fractions, as handles in one arena — or a group's
//! representative does not stand for its members and `verify` can report
//! a wrong *verified*.
//!
//! The instances are the built-in examples plus seeded random WANs
//! decorated so that every component of the forwarding signature decides
//! some class: drop the connected networks, the static routes, the BGP
//! chain or the loopback address from the signature and a test here fails.

use std::collections::BTreeMap;
use yu::core::{simulate_flow, ExecOptions, FlowStf};
use yu::gen::{
    fattree, motivating_example, sr_anycast_incident, static_blackhole_incident, wan, Wan,
    WanParams, WanPreset,
};
use yu::mtbdd::{Mtbdd, Ratio, Term};
use yu::net::{
    DenyExport, FailureMode, FailureVars, Flow, Ipv4, LoadPoint, Network, Prefix, PrefixTrie,
    RouterId, StaticNextHop, StaticRoute, DEFAULT_MAX_HOPS,
};
use yu::routing::{DstClasses, SymbolicRoutes};

fn prefix(s: &str) -> Prefix {
    s.parse().unwrap()
}

/// A small random WAN given what the generator never configures: a deny
/// filter, a nested `Null0` static, a redistributed covering aggregate
/// (the Fig. 10 pattern), anycast prefixes and unannounced connected
/// networks.
fn decorated_wan(seed: u64) -> Network {
    let Wan {
        mut net,
        cores,
        stubs,
        ..
    } = wan(WanParams {
        core_routers: 6,
        stub_routers: 4,
        extra_core_links: 4,
        prefixes: 24,
        sr_policies: 2,
        seed,
    });
    let (a, served) = stubs
        .iter()
        .max_by_key(|(_, served)| served.len())
        .expect("the WAN has stubs")
        .clone();
    let b = stubs.iter().map(|(r, _)| *r).find(|&r| r != a).unwrap();
    assert!(served.len() >= 4, "seed {seed}: {} prefixes", served.len());
    // `served[0]` is filtered from every advertisement of its origin: a
    // BGP class of its own, routed nowhere but under the aggregate below.
    let bgp = net.config_mut(a).bgp.as_mut().unwrap();
    bgp.deny_exports.push(DenyExport {
        peer: None,
        prefix: served[0],
    });
    // The upper half of `served[1]` is blackholed at one backbone router;
    // `served[2..]` and the lower half of `served[1]` stay one class.
    net.config_mut(cores[0]).static_routes.push(StaticRoute {
        prefix: Prefix::new(Ipv4(served[1].addr().0 | 128), 25),
        next_hop: StaticNextHop::Null0,
    });
    // A redistributed aggregate over every service prefix: the BGP chain
    // of each has two links.
    net.config_mut(cores[1]).static_routes.push(StaticRoute {
        prefix: prefix("60.0.0.0/8"),
        next_hop: StaticNextHop::Null0,
    });
    let bgp = net.config_mut(cores[1]).bgp.as_mut().unwrap();
    bgp.redistribute_static = true;
    // Two prefixes originated alike by two stubs.
    let anycast = [prefix("70.0.0.0/24"), prefix("70.0.1.0/24")];
    for r in [a, b] {
        net.config_mut(r).connected.extend(anycast);
        let bgp = net.config_mut(r).bgp.as_mut().unwrap();
        bgp.networks.extend(anycast);
    }
    // Connected and announced nowhere: known to their owner alone.
    net.config_mut(a).connected.push(prefix("71.0.0.0/24"));
    net.config_mut(cores[2])
        .connected
        .push(prefix("71.0.1.0/24"));
    assert!(net.validate().is_empty());
    net
}

fn instances() -> Vec<(String, Network)> {
    let mut out = vec![
        ("fig1".to_string(), motivating_example().net),
        ("fig9".to_string(), sr_anycast_incident().net),
        ("fig10".to_string(), static_blackhole_incident().net),
        ("n0".to_string(), wan(WanPreset::N0.params()).net),
        ("ft4".to_string(), fattree(4).net),
    ];
    for seed in [3, 11, 29] {
        out.push((format!("wan-decorated-{seed}"), decorated_wan(seed)));
    }
    out
}

/// An address whose longest match among the configured prefixes is
/// `member` itself, if more specific prefixes leave one.
fn address_in(lpm: &PrefixTrie<()>, member: Prefix) -> Option<Ipv4> {
    let size = 1u64 << (32 - member.len());
    [0, 1, 2, 5, size / 2 + 1, size.saturating_sub(2)]
        .into_iter()
        .filter(|&off| off < size)
        .map(|off| Ipv4(member.addr().0 | off as u32))
        .find(|&ip| lpm.longest_match(ip).map(|(p, _)| p) == Some(member))
}

/// The members of every class, by class name.
fn by_class(classes: &DstClasses) -> BTreeMap<Prefix, Vec<Prefix>> {
    let mut out: BTreeMap<Prefix, Vec<Prefix>> = BTreeMap::new();
    for (member, class) in classes.members() {
        out.entry(class).or_default().push(member);
    }
    out
}

fn same_stf(a: &FlowStf, b: &FlowStf) -> bool {
    a.loads == b.loads && a.truncated == b.truncated
}

/// One arena with the routing state of `net`, executing flows into it.
struct Bench<'a> {
    net: &'a Network,
    m: Mtbdd,
    fv: FailureVars,
    routes: SymbolicRoutes,
    k: Option<u32>,
}

impl<'a> Bench<'a> {
    fn new(net: &'a Network, mode: FailureMode, k: Option<u32>) -> Bench<'a> {
        let mut m = Mtbdd::new();
        let fv = FailureVars::allocate(&mut m, &net.topo, mode);
        let routes = SymbolicRoutes::compute(&mut m, net, &fv, k);
        Bench {
            net,
            m,
            fv,
            routes,
            k,
        }
    }

    fn stf(&mut self, ingress: RouterId, dst: Ipv4, dscp: u8) -> FlowStf {
        let flow = Flow::new(ingress, Ipv4::new(11, 0, 0, 1), dst, dscp, Ratio::ONE);
        let opts = ExecOptions {
            k: self.k,
            max_hops: DEFAULT_MAX_HOPS,
        };
        simulate_flow(
            &mut self.m,
            self.net,
            &self.fv,
            &mut self.routes,
            &flow,
            opts,
        )
    }
}

/// Destinations of one class get the same STFs from every ingress, with
/// and without SR steering — in every failure mode, budgeted or exact.
#[test]
fn members_of_a_class_are_forwarded_identically() {
    for (name, net) in instances() {
        let mut lpm = PrefixTrie::new();
        for p in net.all_prefixes() {
            lpm.insert(p, ());
        }
        let mut compared = 0usize;
        for mode in [FailureMode::Links, FailureMode::Routers] {
            for k in [None, Some(2)] {
                let mut bench = Bench::new(&net, mode, k);
                assert!(
                    bench.routes.dst_classes == DstClasses::of(&net),
                    "{name}: the routing state's classifier is not the network's"
                );
                for (class, members) in by_class(&bench.routes.dst_classes) {
                    let dsts: Vec<Ipv4> = members
                        .iter()
                        .filter_map(|&member| address_in(&lpm, member))
                        .collect();
                    let Some((&first, others)) = dsts.split_first() else {
                        continue;
                    };
                    // Equal signatures make members interchangeable: three
                    // of them, spread over the class, stand for the rest.
                    let others: Vec<Ipv4> = others
                        .iter()
                        .copied()
                        .step_by(others.len().div_ceil(3).max(1))
                        .collect();
                    for ingress in net.topo.routers() {
                        for dscp in [0, 5] {
                            let want = bench.stf(ingress, first, dscp);
                            for &dst in &others {
                                let got = bench.stf(ingress, dst, dscp);
                                assert!(
                                    same_stf(&want, &got),
                                    "{name} {mode:?} k={k:?} class {class}: r{} dscp {dscp} \
                                     forwards {first} and {dst} differently",
                                    ingress.0
                                );
                                compared += 1;
                            }
                        }
                    }
                }
            }
        }
        // fig1, fig9, fig10 and the fat-tree configure no two prefixes
        // alike; the WANs must actually exercise the comparison.
        if name == "n0" || name.starts_with("wan") {
            assert!(compared > 0, "{name}: no class has two members");
        }
    }
}

/// What the decoration is for: each decorated prefix lands where its
/// signature says, so the comparison above covers every component.
#[test]
fn decorated_wan_splits_and_merges_as_configured() {
    let net = decorated_wan(3);
    let classes = DstClasses::of(&net);
    let class = |s: &str| classes.class_of(s.parse().unwrap());
    // The two anycast prefixes are one class; the two unannounced
    // networks have different owners.
    assert_eq!(class("70.0.0.9"), Some(prefix("70.0.0.0/24")));
    assert_eq!(class("70.0.1.9"), Some(prefix("70.0.0.0/24")));
    assert_ne!(class("71.0.0.9"), class("71.0.1.9"));
    // The filtered prefix, the blackholed half and the rest of the stub's
    // prefixes: three classes, the rest with several members.
    let members = by_class(&classes);
    let nested = members
        .keys()
        .find(|p| p.len() == 25)
        .expect("the nested static names its own class");
    let sibling = Ipv4(nested.addr().0 & !128 | 1);
    let rest = classes.class_of(sibling).unwrap();
    assert_ne!(rest, *nested);
    assert!(members[&rest].len() >= 3, "{:?}", members[&rest]);
    let filtered = net
        .topo
        .routers()
        .filter_map(|r| net.bgp(r)?.deny_exports.first())
        .map(|d| d.prefix)
        .next()
        .unwrap();
    assert_eq!(members[&filtered], vec![filtered]);
    // Only the aggregate covers the rest of 60/8.
    assert_eq!(class("60.200.0.1"), Some(prefix("60.0.0.0/8")));
}

/// Fig. 10: the service address and an address only the aggregate covers
/// look alike to longest-prefix match at M1 once the /26 is withdrawn —
/// and are still different classes.
#[test]
fn fig10_service_and_aggregate_are_different_classes() {
    let net = static_blackhole_incident().net;
    let classes = DstClasses::of(&net);
    let service = classes.class_of("10.1.0.5".parse().unwrap());
    let aggregate = classes.class_of("10.9.9.9".parse().unwrap());
    assert_eq!(service, Some(prefix("10.1.0.0/26")));
    assert_eq!(aggregate, Some(prefix("10.0.0.0/8")));
}

/// A loopback is delivered at its owners and an IGP destination
/// everywhere else: never grouped with another address, whatever covers
/// it (Fig. 10's loopbacks sit under the 10/8 aggregate).
#[test]
fn every_loopback_is_a_singleton() {
    for (name, net) in instances() {
        let classes = DstClasses::of(&net);
        let members = by_class(&classes);
        for r in net.topo.routers() {
            let lo = net.topo.router(r).loopback;
            let host = Prefix::host(lo);
            assert_eq!(classes.class_of(lo), Some(host), "{name}: {lo}");
            assert_eq!(members[&host], vec![host], "{name}: {lo}");
        }
    }
}

/// Destinations no configured prefix covers are one class — no router has
/// a rule for any of them — and are dropped where they enter.
#[test]
fn uncovered_destinations_are_one_class_dropped_at_ingress() {
    for (name, net) in instances() {
        let (d1, d2) = (Ipv4::new(200, 0, 0, 1), Ipv4::new(201, 7, 7, 7));
        let classes = DstClasses::of(&net);
        assert_eq!(classes.class_of(d1), None, "{name}");
        assert_eq!(classes.class_of(d2), None, "{name}");
        let mut bench = Bench::new(&net, FailureMode::Links, Some(2));
        for ingress in net.topo.routers() {
            let (a, b) = (bench.stf(ingress, d1, 0), bench.stf(ingress, d2, 0));
            assert!(same_stf(&a, &b), "{name}: r{}", ingress.0);
            let points: Vec<LoadPoint> = a.loads.keys().copied().collect();
            assert_eq!(points, vec![LoadPoint::Dropped(ingress)], "{name}");
            let dropped = a.at(&bench.m, LoadPoint::Dropped(ingress));
            assert_eq!(bench.m.eval_all_alive(dropped), Term::ONE, "{name}");
        }
    }
}
