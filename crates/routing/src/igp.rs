//! Symbolic IGP (IS-IS) route simulation.
//!
//! For every AS and every IGP destination (the loopbacks of its IS-IS
//! routers, including anycast loopbacks owned by several routers), this
//! module computes a *symbolic distance* per router: an MTBDD mapping each
//! failure scenario to the shortest-path distance (`+∞` when unreachable).
//! Distances are computed by a guarded Bellman–Ford iteration
//!
//! ```text
//! dist_v ← min(dist_v, min over IS-IS links l = (v, u):
//!                        ite(usable(l), w_l + dist_u, +∞))
//! ```
//!
//! run to fixpoint. From distances we derive everything §4.1 and §4.4 of
//! the paper need:
//!
//! * `reach(v, ip)` guards (`dist_v` finite) — guarding iBGP sessions and
//!   SR tunnel establishment (Fig. 4);
//! * guarded IGP RIB rules — for each outgoing link `l = (v, u)`, the rule
//!   guard is `usable(l) ∧ dist_v = w_l + dist_u ∧ dist_v < ∞`, exactly the
//!   "route selection + ECMP" encoding of Fig. 7(a);
//! * the route-iteration vector `V^IGP_nip[l]` — the ECMP share per link
//!   (`c = s / Σ s'`).

use crate::rib::{NextHop, Rule};
use std::collections::HashMap;
use std::rc::Rc;
use yu_mtbdd::{Mtbdd, NodeRef, Op, Term};
use yu_net::{AsNum, FailureVars, Ipv4, LinkId, Network, Prefix, Proto, RouterId};

/// A route-iteration vector `V^IGP`: the non-zero ECMP share per outgoing
/// link, shared with the cache that produced it.
pub type IgpShares = Rc<[(LinkId, NodeRef)]>;

/// Symbolic IGP state: per-(AS, destination) distance vectors plus derived
/// caches.
pub struct IgpState {
    /// `dist[(asn, ip)][router] =` symbolic distance from `router` to the
    /// nearest alive owner of `ip` inside `asn`.
    dist: HashMap<(AsNum, Ipv4), Vec<NodeRef>>,
    /// Cached route-iteration vectors `V^IGP`.
    vigp_cache: HashMap<(RouterId, Ipv4), IgpShares>,
    /// KREDUCE budget fused into every apply (`None` = exact).
    k: Option<u32>,
}

impl IgpState {
    /// Runs symbolic IGP simulation for every AS of `net`.
    ///
    /// `k` is the failure budget every binary step applies while it
    /// computes ([`Mtbdd::apply_kreduce`]); pass `None` to keep exact
    /// diagrams (the ablation of Fig. 15/16).
    pub fn compute(m: &mut Mtbdd, net: &Network, fv: &FailureVars, k: Option<u32>) -> IgpState {
        let _stage = yu_telemetry::span("igp");
        let mut state = IgpState {
            dist: HashMap::new(),
            vigp_cache: HashMap::new(),
            k,
        };
        for (asn, routers) in net.ases() {
            let members: Vec<RouterId> = routers
                .iter()
                .copied()
                .filter(|&r| net.config(r).isis_enabled)
                .collect();
            if members.is_empty() {
                continue;
            }
            for ip in net.igp_destinations(asn) {
                let _dest = yu_telemetry::span_detail("igp.dest", || format!("as{asn:?} {ip:?}"));
                let d = compute_destination(m, net, fv, asn, &members, ip, k);
                state.dist.insert((asn, ip), d);
            }
        }
        state
    }

    /// Whether `ip` is an IGP destination of `asn`.
    pub fn knows(&self, asn: AsNum, ip: Ipv4) -> bool {
        self.dist.contains_key(&(asn, ip))
    }

    /// The symbolic distance from `r` to `ip` within `asn` (`+∞` constant
    /// when `ip` is not an IGP destination there).
    pub fn dist(&self, m: &Mtbdd, asn: AsNum, ip: Ipv4, r: RouterId) -> NodeRef {
        self.dist
            .get(&(asn, ip))
            .map(|v| v[r.0 as usize])
            .unwrap_or_else(|| m.pos_inf())
    }

    /// Reachability guard: 1 where `r` can reach `ip` via the IGP of `asn`.
    pub fn reach(&self, m: &mut Mtbdd, asn: AsNum, r: RouterId, ip: Ipv4) -> NodeRef {
        let d = self.dist(m, asn, ip, r);
        m.is_finite_guard(d)
    }

    /// The guarded IGP RIB rules of router `r` for destination `ip`:
    /// one rule per IS-IS link that lies on a shortest path in some
    /// scenario. Rules share one preference class; their guards make them
    /// mutually exclusive except for genuine ECMP.
    pub fn igp_rules(
        &self,
        m: &mut Mtbdd,
        net: &Network,
        fv: &FailureVars,
        r: RouterId,
        ip: Ipv4,
    ) -> Vec<Rule> {
        let asn = net.asn(r);
        let dist_r = self.dist(m, asn, ip, r);
        let finite = m.is_finite_guard(dist_r);
        let mut rules = Vec::new();
        for l in net.isis_links(r) {
            let u = net.topo.link(l).to;
            let w = net.topo.link(l).igp_cost;
            let dist_u = self.dist(m, asn, ip, u);
            let wc = m.term(Term::int(w as i64));
            let via = m.apply(Op::Add, wc, dist_u);
            let on_spf = m.apply_kreduce(Op::EqGuard, dist_r, via, self.k);
            let usable = fv.link_usable(m, &net.topo, l);
            let on_usable_spf = m.apply_kreduce(Op::And, usable, on_spf, self.k);
            let guard = m.apply_kreduce(Op::And, on_usable_spf, finite, self.k);
            if guard != m.zero() {
                rules.push(Rule {
                    prefix: Prefix::host(ip),
                    proto: Proto::Isis,
                    next_hop: NextHop::Direct(l),
                    local_pref: 0,
                    as_path_len: 0,
                    tie: l.0,
                    guard,
                });
            }
        }
        rules
    }

    /// The route-iteration vector `V^IGP_nip` of §4.4: for each outgoing
    /// link of `r`, the symbolic fraction of traffic to `nip` forwarded on
    /// it (`c_l = s_l / Σ s`). Cached per `(r, nip)`.
    pub fn vigp(
        &mut self,
        m: &mut Mtbdd,
        net: &Network,
        fv: &FailureVars,
        r: RouterId,
        nip: Ipv4,
    ) -> IgpShares {
        if let Some(v) = self.vigp_cache.get(&(r, nip)) {
            return Rc::clone(v);
        }
        let rules = self.igp_rules(m, net, fv, r, nip);
        let guards: Vec<NodeRef> = rules.iter().map(|r| r.guard).collect();
        let total = m.sum(&guards);
        let mut out = Vec::new();
        for rule in &rules {
            let c = m.apply_kreduce(Op::Div, rule.guard, total, self.k);
            if c != m.zero() {
                let NextHop::Direct(l) = rule.next_hop else {
                    unreachable!("IGP rules always have direct next hops")
                };
                out.push((l, c));
            }
        }
        let out: IgpShares = out.into();
        self.vigp_cache.insert((r, nip), Rc::clone(&out));
        out
    }

    /// Collects every long-lived MTBDD handle (for garbage collection).
    pub fn gc_roots(&self, out: &mut Vec<NodeRef>) {
        for v in self.dist.values() {
            out.extend(v.iter().copied());
        }
    }

    /// Translates handles after a collection; derived caches are dropped
    /// and rebuilt lazily.
    pub fn remap(&mut self, remap: &yu_mtbdd::Remap) {
        for v in self.dist.values_mut() {
            for n in v.iter_mut() {
                *n = remap.get(*n);
            }
        }
        self.vigp_cache.clear();
    }

    /// Frees the `V^IGP` cache; it is rebuilt lazily.
    pub(crate) fn drop_derived(&mut self) {
        self.vigp_cache = HashMap::new();
    }

    /// Whether router `r` terminates traffic for IGP destination `ip`
    /// (it owns the loopback — pops SR labels / receives nexthop traffic).
    pub fn owns(&self, net: &Network, r: RouterId, ip: Ipv4) -> bool {
        net.topo.router(r).loopback == ip && net.config(r).isis_enabled
    }
}

fn compute_destination(
    m: &mut Mtbdd,
    net: &Network,
    fv: &FailureVars,
    _asn: AsNum,
    members: &[RouterId],
    ip: Ipv4,
    k: Option<u32>,
) -> Vec<NodeRef> {
    let n = net.topo.num_routers();
    let mut dist: Vec<NodeRef> = vec![m.pos_inf(); n];
    for &r in members {
        if net.topo.router(r).loopback == ip {
            // Distance 0 when the owner is alive, +inf otherwise (anycast:
            // several owners each contribute a 0 entry point).
            let alive = fv.router_alive(m, r);
            let zero = m.zero();
            let inf = m.pos_inf();
            let own = m.ite(alive, zero, inf);
            // Relaxing the initial +∞ with the owner's empty path puts the
            // seed under the budget too (a member without IS-IS links
            // never enters the fold below).
            dist[r.0 as usize] = m.apply_kreduce(Op::Min, inf, own, k);
        }
    }
    // Guarded Bellman–Ford to fixpoint (bounded by |members| rounds).
    let mut rounds: u64 = 0;
    for _round in 0..members.len() {
        rounds += 1;
        let mut changed = false;
        let prev = dist.clone();
        for &r in members {
            let mut best = dist[r.0 as usize];
            for l in net.isis_links(r) {
                let u = net.topo.link(l).to;
                let w = net.topo.link(l).igp_cost;
                let wc = m.term(Term::int(w as i64));
                let via = m.apply(Op::Add, wc, prev[u.0 as usize]);
                let usable = fv.link_usable(m, &net.topo, l);
                let inf = m.pos_inf();
                let cand = m.ite(usable, via, inf);
                best = m.apply_kreduce(Op::Min, best, cand, k);
            }
            if best != dist[r.0 as usize] {
                dist[r.0 as usize] = best;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    yu_telemetry::registry().route_igp_rounds_total.add(rounds);
    yu_telemetry::counter("igp.destinations", 1);
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use yu_mtbdd::Ratio;
    use yu_net::{FailureMode, Scenario, Topology};

    /// Square topology: A-B, B-D, A-C, C-D, all cost 10, everything AS 300.
    fn square() -> (Network, [RouterId; 4]) {
        let mut t = Topology::new();
        let a = t.add_router("A", Ipv4::new(10, 0, 0, 1), 300);
        let b = t.add_router("B", Ipv4::new(10, 0, 0, 2), 300);
        let c = t.add_router("C", Ipv4::new(10, 0, 0, 3), 300);
        let d = t.add_router("D", Ipv4::new(10, 0, 0, 4), 300);
        t.add_link(a, b, 10, Ratio::int(100));
        t.add_link(b, d, 10, Ratio::int(100));
        t.add_link(a, c, 10, Ratio::int(100));
        t.add_link(c, d, 10, Ratio::int(100));
        let mut n = Network::new(t);
        for r in [a, b, c, d] {
            n.config_mut(r).isis_enabled = true;
        }
        (n, [a, b, c, d])
    }

    #[test]
    fn distances_no_failure() {
        let (net, [a, b, _, d]) = square();
        let mut m = Mtbdd::new();
        let fv = FailureVars::allocate(&mut m, &net.topo, FailureMode::Links);
        let igp = IgpState::compute(&mut m, &net, &fv, None);
        let dip = net.topo.router(d).loopback;
        let da = igp.dist(&m, 300, dip, a);
        assert_eq!(m.eval_all_alive(da), Term::int(20));
        let db = igp.dist(&m, 300, dip, b);
        assert_eq!(m.eval_all_alive(db), Term::int(10));
        assert_eq!(m.eval_all_alive(igp.dist(&m, 300, dip, d)), Term::int(0));
    }

    #[test]
    fn distances_under_failures() {
        let (net, [a, _, _, d]) = square();
        let mut m = Mtbdd::new();
        let fv = FailureVars::allocate(&mut m, &net.topo, FailureMode::Links);
        let igp = IgpState::compute(&mut m, &net, &fv, None);
        let dip = net.topo.router(d).loopback;
        let da = igp.dist(&m, 300, dip, a);
        // Fail B-D (ulink 1): A still reaches D via C at 20.
        let s = Scenario::links([yu_net::ULinkId(1)]);
        assert_eq!(m.eval(da, fv.assignment(&s)), Term::int(20));
        // Fail B-D and C-D: unreachable.
        let s = Scenario::links([yu_net::ULinkId(1), yu_net::ULinkId(3)]);
        assert_eq!(m.eval(da, fv.assignment(&s)), Term::PosInf);
        let reach = igp.reach(&mut m, 300, a, dip);
        assert_eq!(m.eval(reach, fv.assignment(&s)), Term::ZERO);
    }

    #[test]
    fn vigp_splits_ecmp_and_shifts_on_failure() {
        let (net, [a, _, _, d]) = square();
        let mut m = Mtbdd::new();
        let fv = FailureVars::allocate(&mut m, &net.topo, FailureMode::Links);
        let mut igp = IgpState::compute(&mut m, &net, &fv, None);
        let dip = net.topo.router(d).loopback;
        let v = igp.vigp(&mut m, &net, &fv, a, dip);
        assert_eq!(v.len(), 2, "two ECMP next hops from A to D");
        for (_, share) in v.iter() {
            assert_eq!(m.eval_all_alive(*share), Term::ratio(1, 2));
        }
        // Fail A-B (ulink 0): everything shifts to the A->C link.
        let s = Scenario::links([yu_net::ULinkId(0)]);
        let total: Vec<Term> = v
            .iter()
            .map(|(_, share)| m.eval(*share, fv.assignment(&s)))
            .collect();
        assert!(total.contains(&Term::ZERO));
        assert!(total.contains(&Term::ONE));
    }

    #[test]
    fn router_failures_cut_paths() {
        let (net, [a, b, c, d]) = square();
        let mut m = Mtbdd::new();
        let fv = FailureVars::allocate(&mut m, &net.topo, FailureMode::Routers);
        let igp = IgpState::compute(&mut m, &net, &fv, None);
        let dip = net.topo.router(d).loopback;
        let da = igp.dist(&m, 300, dip, a);
        let s = Scenario::routers([b]);
        assert_eq!(m.eval(da, fv.assignment(&s)), Term::int(20));
        let s = Scenario::routers([b, c]);
        assert_eq!(m.eval(da, fv.assignment(&s)), Term::PosInf);
        // The destination router failing makes it unreachable.
        let s = Scenario::routers([d]);
        assert_eq!(m.eval(da, fv.assignment(&s)), Term::PosInf);
        let _ = a;
    }

    #[test]
    fn anycast_takes_nearest_owner() {
        // A - B1(anycast) and A - C - B2(anycast): nearest is B1 at 10.
        let mut t = Topology::new();
        let any = Ipv4::new(1, 1, 1, 1);
        let a = t.add_router("A", Ipv4::new(10, 0, 0, 1), 300);
        let b1 = t.add_router("B1", any, 300);
        let c = t.add_router("C", Ipv4::new(10, 0, 0, 3), 300);
        let b2 = t.add_router("B2", any, 300);
        let u_ab1 = t.add_link(a, b1, 10, Ratio::int(100));
        t.add_link(a, c, 10, Ratio::int(100));
        t.add_link(c, b2, 10, Ratio::int(100));
        let mut net = Network::new(t);
        for r in [a, b1, c, b2] {
            net.config_mut(r).isis_enabled = true;
        }
        let mut m = Mtbdd::new();
        let fv = FailureVars::allocate(&mut m, &net.topo, FailureMode::Links);
        let igp = IgpState::compute(&mut m, &net, &fv, None);
        let da = igp.dist(&m, 300, any, a);
        assert_eq!(m.eval_all_alive(da), Term::int(10));
        // Losing the A-B1 link falls back to B2 at distance 20.
        let s = Scenario::links([u_ab1]);
        assert_eq!(m.eval(da, fv.assignment(&s)), Term::int(20));
        assert!(igp.owns(&net, b1, any));
        assert!(igp.owns(&net, b2, any));
        assert!(!igp.owns(&net, a, any));
    }

    #[test]
    fn kreduce_during_igp_preserves_k_scenarios() {
        let (net, [a, _, _, d]) = square();
        let mut m = Mtbdd::new();
        let fv = FailureVars::allocate(&mut m, &net.topo, FailureMode::Links);
        let exact = IgpState::compute(&mut m, &net, &fv, None);
        let reduced = IgpState::compute(&mut m, &net, &fv, Some(1));
        let dip = net.topo.router(d).loopback;
        let de = exact.dist(&m, 300, dip, a);
        let dr = reduced.dist(&m, 300, dip, a);
        // Equal on every <=1-failure scenario.
        for u in net.topo.ulinks() {
            let s = Scenario::links([u]);
            assert_eq!(m.eval(de, fv.assignment(&s)), m.eval(dr, fv.assignment(&s)));
        }
        assert_eq!(m.eval_all_alive(de), m.eval_all_alive(dr));
    }
}
