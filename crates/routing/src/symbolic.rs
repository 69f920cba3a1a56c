//! The symbolic route simulation facade: computes guarded IGP state,
//! guarded BGP RIBs, and guarded SR policies for a network, and serves
//! unified guarded FIB lookups to the traffic execution engine.

use crate::bgp::{BgpFrom, BgpState};
use crate::dst_class::DstClasses;
use crate::igp::{IgpShares, IgpState};
use crate::rib::{sort_rules, NextHop, Rule};
use crate::sr::{guarded_sr_policies, GuardedSrPolicy};
use std::collections::{HashMap, HashSet};
use std::rc::Rc;
use yu_mtbdd::{Mtbdd, NodeRef};
use yu_net::{FailureVars, Ipv4, Network, Prefix, Proto, RouterId, StaticNextHop};

/// All guarded routing state of a network.
pub struct SymbolicRoutes {
    /// Symbolic IGP distances (and the `V^IGP` cache).
    pub igp: IgpState,
    /// Guarded BGP RIBs by prefix class.
    pub bgp: BgpState,
    /// Guarded SR policies per router.
    pub sr: Vec<Vec<GuardedSrPolicy>>,
    /// Which destinations [`Self::fib_rules`] treats alike at every
    /// router (the grouping key of global flow equivalence).
    pub dst_classes: DstClasses,
    /// IGP destination lookup: `(asn, ip)` pairs the IGP can resolve.
    igp_dests: HashSet<(yu_net::AsNum, Ipv4)>,
    /// FIB lookup cache.
    fib_cache: HashMap<(RouterId, Ipv4), Rc<Vec<Rule>>>,
    k: Option<u32>,
}

impl SymbolicRoutes {
    /// Runs the full symbolic route simulation (IGP, then BGP — whose iBGP
    /// session guards need IGP reachability — then SR policy guards).
    ///
    /// `k` is the KREDUCE budget applied throughout (`None` disables the
    /// reduction, the ablation of Figs. 15–16).
    pub fn compute(
        m: &mut Mtbdd,
        net: &Network,
        fv: &FailureVars,
        k: Option<u32>,
    ) -> SymbolicRoutes {
        let mut igp = IgpState::compute(m, net, fv, k);
        let bgp = BgpState::compute(m, net, fv, &mut igp, k);
        let sr = guarded_sr_policies(m, net, &mut igp, k);
        let dst_classes = DstClasses::new(net, &bgp.prefix_class);
        let mut igp_dests = HashSet::new();
        for (asn, _) in net.ases() {
            for ip in net.igp_destinations(asn) {
                igp_dests.insert((asn, ip));
            }
        }
        SymbolicRoutes {
            igp,
            bgp,
            sr,
            dst_classes,
            igp_dests,
            fib_cache: HashMap::new(),
            k,
        }
    }

    /// The KREDUCE budget the state was computed with.
    pub fn k(&self) -> Option<u32> {
        self.k
    }

    /// The guarded FIB rules of `router` matching destination `dstip`,
    /// sorted into evaluation order (most specific prefix first, then by
    /// static preference). Cached per `(router, dstip)`.
    ///
    /// The rule set merges:
    /// * connected networks (`Receive`, distance 0) and the router's own
    ///   loopback;
    /// * static routes (distance 1), including `Null0` blackholes;
    /// * BGP routes from the guarded BGP RIB (eBGP 20 / iBGP 200);
    /// * IS-IS loopback host routes (distance 115) with shortest-path
    ///   guards.
    ///
    /// Whatever this reads of `dstip` must be a component of the
    /// forwarding signature in [`crate::dst_class`]: flows are grouped on
    /// the promise that equal signatures get equal rules here (up to the
    /// address of `Rule.prefix`).
    pub fn fib_rules(
        &mut self,
        m: &mut Mtbdd,
        net: &Network,
        fv: &FailureVars,
        router: RouterId,
        dstip: Ipv4,
    ) -> Rc<Vec<Rule>> {
        if let Some(rules) = self.fib_cache.get(&(router, dstip)) {
            return Rc::clone(rules);
        }
        let mut rules = Vec::new();
        let cfg = net.config(router);
        let alive = fv.router_alive(m, router);

        for p in &cfg.connected {
            if p.contains(dstip) {
                rules.push(Rule {
                    prefix: *p,
                    proto: Proto::Connected,
                    next_hop: NextHop::Receive,
                    local_pref: 0,
                    as_path_len: 0,
                    tie: 0,
                    guard: alive,
                });
            }
        }
        if net.topo.router(router).loopback == dstip {
            rules.push(Rule {
                prefix: Prefix::host(dstip),
                proto: Proto::Connected,
                next_hop: NextHop::Receive,
                local_pref: 0,
                as_path_len: 0,
                tie: 1,
                guard: alive,
            });
        }

        for (i, s) in cfg.static_routes.iter().enumerate() {
            if s.prefix.contains(dstip) {
                rules.push(Rule {
                    prefix: s.prefix,
                    proto: Proto::Static,
                    next_hop: match s.next_hop {
                        StaticNextHop::Null0 => NextHop::Null0,
                        StaticNextHop::Ip(ip) => NextHop::Ip(ip),
                    },
                    local_pref: 0,
                    as_path_len: 0,
                    tie: i as u32,
                    guard: alive,
                });
            }
        }

        if net.bgp(router).is_some() {
            for (prefix, class) in self.bgp.class_for(dstip) {
                for (i, cand) in self.bgp.candidates(router, class).iter().enumerate() {
                    let proto = match cand.from {
                        BgpFrom::Origin => continue, // shadowed by connected/static
                        BgpFrom::Ebgp { .. } => Proto::Ebgp,
                        BgpFrom::Ibgp { .. } => Proto::Ibgp,
                    };
                    rules.push(Rule {
                        prefix,
                        proto,
                        next_hop: cand.next_hop,
                        local_pref: cand.local_pref,
                        as_path_len: cand.as_path.len() as u32,
                        tie: i as u32,
                        guard: cand.guard,
                    });
                }
            }
        }

        let asn = net.asn(router);
        if self.igp_dests.contains(&(asn, dstip)) && !self.igp.owns(net, router, dstip) {
            rules.extend(self.igp.igp_rules(m, net, fv, router, dstip));
        }

        sort_rules(&mut rules);
        let rules = Rc::new(rules);
        self.fib_cache.insert((router, dstip), Rc::clone(&rules));
        rules
    }

    /// Route iteration (`V^IGP_nip`): ECMP shares per outgoing link for
    /// recursive next hop `nip` at `router`.
    pub fn vigp(
        &mut self,
        m: &mut Mtbdd,
        net: &Network,
        fv: &FailureVars,
        router: RouterId,
        nip: Ipv4,
    ) -> IgpShares {
        self.igp.vigp(m, net, fv, router, nip)
    }

    /// The guarded SR policy of `router` matching `(nip, dscp)`, if any.
    pub fn sr_policy(&self, router: RouterId, nip: Ipv4, dscp: u8) -> Option<&GuardedSrPolicy> {
        self.sr[router.0 as usize]
            .iter()
            .find(|p| p.matches(nip, dscp))
    }

    /// Whether `router` terminates traffic addressed to IGP destination
    /// `ip` (owns the loopback / anycast address).
    pub fn owns(&self, net: &Network, router: RouterId, ip: Ipv4) -> bool {
        self.igp.owns(net, router, ip)
    }

    /// Collects every long-lived MTBDD handle of the routing state (IGP
    /// distances, BGP guards, SR path guards) for garbage collection.
    /// Derived caches (FIB rules, `V^IGP` vectors) are *not* roots; they
    /// are dropped on [`SymbolicRoutes::remap`] and rebuilt lazily.
    pub fn gc_roots(&self, out: &mut Vec<NodeRef>) {
        self.igp.gc_roots(out);
        self.bgp.gc_roots(out);
        for pols in &self.sr {
            for pol in pols {
                out.extend(pol.paths.iter().map(|p| p.guard));
            }
        }
    }

    /// Translates handles after a collection and drops derived caches.
    pub fn remap(&mut self, remap: &yu_mtbdd::Remap) {
        self.igp.remap(remap);
        self.bgp.remap(remap);
        for pols in &mut self.sr {
            for pol in pols {
                for p in &mut pol.paths {
                    p.guard = remap.get(p.guard);
                }
            }
        }
        self.fib_cache.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yu_mtbdd::{Ratio, Term};
    use yu_net::{BgpConfig, FailureMode, Scenario, StaticRoute, Topology};

    /// Two-router network reproducing the Fig. 10 shape in miniature:
    /// M - D, D - W("the WAN"); D has static 10/8 -> Null0 redistributed
    /// into BGP, and learns 10.1/26 from W over eBGP.
    fn fig10_mini() -> (Network, [RouterId; 3]) {
        let mut t = Topology::new();
        let cap = Ratio::int(100);
        let mrt = t.add_router("M", Ipv4::new(10, 0, 0, 1), 65001);
        let d = t.add_router("D", Ipv4::new(10, 0, 0, 2), 65002);
        let w = t.add_router("W", Ipv4::new(10, 0, 0, 3), 65003);
        t.add_link(mrt, d, 10, cap.clone()); // u0
        t.add_link(d, w, 10, cap.clone()); // u1
        let mut net = Network::new(t);
        for r in [mrt, d, w] {
            net.config_mut(r).bgp = Some(BgpConfig::default());
        }
        net.config_mut(d).static_routes.push(StaticRoute {
            prefix: "10.0.0.0/8".parse().unwrap(),
            next_hop: StaticNextHop::Null0,
        });
        net.config_mut(d).bgp.as_mut().unwrap().redistribute_static = true;
        net.config_mut(w)
            .connected
            .push("10.1.0.0/26".parse().unwrap());
        net.config_mut(w).bgp.as_mut().unwrap().networks = vec!["10.1.0.0/26".parse().unwrap()];
        (net, [mrt, d, w])
    }

    #[test]
    fn fib_lpm_with_guards_reproduces_fig10_blackhole() {
        let (net, [mrt, d, _w]) = fig10_mini();
        let mut m = Mtbdd::new();
        let fv = FailureVars::allocate(&mut m, &net.topo, FailureMode::Links);
        let mut routes = SymbolicRoutes::compute(&mut m, &net, &fv, None);
        let dst: Ipv4 = "10.1.0.5".parse().unwrap();

        // D's FIB for 10.1.0.5: the /26 from W (eBGP, present iff D-W up)
        // then the /8 static Null0.
        let rules = routes.fib_rules(&mut m, &net, &fv, d, dst);
        assert_eq!(rules.len(), 2, "{rules:?}");
        assert_eq!(rules[0].prefix.len(), 26);
        assert_eq!(rules[0].proto, Proto::Ebgp);
        assert_eq!(rules[1].next_hop, NextHop::Null0);
        let s = Scenario::links([yu_net::ULinkId(1)]);
        assert_eq!(m.eval(rules[0].guard, fv.assignment(&s)), Term::ZERO);
        assert_eq!(m.eval(rules[1].guard, fv.assignment(&s)), Term::ONE);

        // M sees both the /26 and the redistributed /8 via D.
        let rules = routes.fib_rules(&mut m, &net, &fv, mrt, dst);
        assert_eq!(rules.len(), 2, "{rules:?}");
        assert_eq!(rules[0].prefix.len(), 26);
        assert_eq!(rules[1].prefix.len(), 8);
        // The /8 blackhole advert does NOT depend on the D-W link.
        assert_eq!(m.eval(rules[1].guard, fv.assignment(&s)), Term::ONE);
        // But the /26 at M does (it only exists while W exports it to D).
        assert_eq!(m.eval(rules[0].guard, fv.assignment(&s)), Term::ZERO);
    }

    #[test]
    fn fib_cache_returns_same_rc() {
        let (net, [mrt, _, _]) = fig10_mini();
        let mut m = Mtbdd::new();
        let fv = FailureVars::allocate(&mut m, &net.topo, FailureMode::Links);
        let mut routes = SymbolicRoutes::compute(&mut m, &net, &fv, None);
        let dst: Ipv4 = "10.1.0.5".parse().unwrap();
        let r1 = routes.fib_rules(&mut m, &net, &fv, mrt, dst);
        let r2 = routes.fib_rules(&mut m, &net, &fv, mrt, dst);
        assert!(Rc::ptr_eq(&r1, &r2));
    }

    #[test]
    fn own_loopback_is_received() {
        let (net, [mrt, _, _]) = fig10_mini();
        let mut m = Mtbdd::new();
        let fv = FailureVars::allocate(&mut m, &net.topo, FailureMode::Links);
        let mut routes = SymbolicRoutes::compute(&mut m, &net, &fv, None);
        let rules = routes.fib_rules(&mut m, &net, &fv, mrt, Ipv4::new(10, 0, 0, 1));
        assert!(rules
            .iter()
            .any(|r| r.next_hop == NextHop::Receive && r.prefix.len() == 32));
    }
}
