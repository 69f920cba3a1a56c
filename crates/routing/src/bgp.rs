//! Symbolic BGP route propagation (eBGP + iBGP), producing guarded BGP
//! RIBs in the style of the paper's Fig. 3 / Fig. 6.
//!
//! The simulation follows the Hoyan-style symbolic route simulation the
//! paper builds on: every route advertisement carries a guard — a 0/1
//! MTBDD over failure variables encoding the scenarios in which the
//! message is sent. Propagation runs in synchronous rounds to a fixpoint:
//!
//! 1. every router selects, per prefix class, among its guarded candidates
//!    (locally originated + learned last round) using the paper's
//!    `s_r = g_r ∧ ⋀_{r'≺r} ¬g_{r'}` encoding over static preference
//!    classes (local-pref desc, AS-path length asc, origin < eBGP < iBGP);
//! 2. selected routes are exported: over eBGP sessions (guard: the shared
//!    physical link is usable) with AS prepending and receiver-side AS-loop
//!    rejection, and over iBGP sessions (guard: the IGP connects the two
//!    loopbacks, both directions) with next-hop-self, no iBGP-to-iBGP
//!    re-advertisement (full mesh);
//! 3. exports with equal attributes merge by OR-ing guards — exactly how
//!    `m4 = ⟨100/24, B, [200,300], x2 ∨ x3⟩` arises in Fig. 6.
//!
//! **Prefix classes.** Millions of prefixes collapse into few equivalence
//! classes: prefixes originated by the same routers in the same way are
//! routed identically, so propagation runs once per class ("prefix
//! classification", mentioned in §4.4 as a caching key).

use crate::igp::IgpState;
use crate::rib::NextHop;
use std::collections::{BTreeMap, HashMap};
use yu_mtbdd::{Mtbdd, NodeRef, Op};
use yu_net::{AsNum, BgpSession, FailureVars, Network, Prefix, PrefixTrie, RouterId, ULinkId};

/// Identifier of a prefix equivalence class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClassId(pub u32);

/// How a prefix is originated at a router.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OriginKind {
    /// A `network` statement over a connected network.
    Network,
    /// Redistributed from a static route.
    Static,
}

/// The origination signature of a prefix class.
pub type OriginSig = Vec<(RouterId, OriginKind)>;

/// Received-route candidates merged by identical BGP attributes
/// (AS path, local pref, source, next hop), with OR-ed guards.
type MergedCandidates = BTreeMap<(Vec<AsNum>, u32, BgpFrom, NextHopKey), NodeRef>;

/// Full signature of a prefix class: origins plus the export filters
/// hitting it. Two prefixes with the same signature are routed
/// identically everywhere.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct ClassSig {
    /// Where and how prefixes of this class are originated.
    pub origins: OriginSig,
    /// Deny filters covering the class: `(filtering router, peer)` with
    /// `None` meaning all peers.
    pub denies: Vec<(RouterId, Option<RouterId>)>,
}

impl ClassSig {
    /// Whether `router` suppresses advertising this class to `peer`.
    pub fn denied(&self, router: RouterId, peer: RouterId) -> bool {
        self.denies
            .iter()
            .any(|&(r, p)| r == router && p.is_none_or(|p| p == peer))
    }
}

/// Where a BGP candidate was learned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BgpFrom {
    /// Originated locally.
    Origin,
    /// Learned over the eBGP session riding `ulink` from `peer`.
    Ebgp {
        /// The advertising peer.
        peer: RouterId,
        /// The physical link carrying the session.
        ulink: ULinkId,
    },
    /// Learned over iBGP from `peer`.
    Ibgp {
        /// The advertising peer.
        peer: RouterId,
    },
}

impl BgpFrom {
    fn source_rank(&self) -> u32 {
        match self {
            BgpFrom::Origin => 0,
            BgpFrom::Ebgp { .. } => 1,
            BgpFrom::Ibgp { .. } => 2,
        }
    }
}

/// A guarded BGP candidate route for one prefix class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BgpRoute {
    /// AS path (nearest AS first); empty for local originations.
    pub as_path: Vec<AsNum>,
    /// Local preference (import policy applied).
    pub local_pref: u32,
    /// Source of the candidate.
    pub from: BgpFrom,
    /// Next hop in the unified FIB model.
    pub next_hop: NextHop,
    /// Presence guard.
    pub guard: NodeRef,
}

impl BgpRoute {
    /// Static preference key (smaller = preferred):
    /// local-pref desc, AS-path length asc, origin < eBGP < iBGP.
    pub fn pref_key(&self) -> (std::cmp::Reverse<u32>, usize, u32) {
        (
            std::cmp::Reverse(self.local_pref),
            self.as_path.len(),
            self.from.source_rank(),
        )
    }

    /// Selection guards for a candidate set: `s_i = g_i ∧ ¬(any strictly
    /// preferred candidate present)`. Returns one guard per candidate, in
    /// input order.
    pub fn selection_guards(m: &mut Mtbdd, cands: &[BgpRoute]) -> Vec<NodeRef> {
        // Guard of "some candidate with key strictly better than k exists".
        let mut order: Vec<usize> = (0..cands.len()).collect();
        order.sort_by_key(|&i| cands[i].pref_key());
        let mut out = vec![m.zero(); cands.len()];
        let mut better = m.zero(); // presence of any strictly better class
        let mut i = 0;
        while i < order.len() {
            let mut j = i;
            let key = cands[order[i]].pref_key();
            let mut class_present = m.zero();
            while j < order.len() && cands[order[j]].pref_key() == key {
                let idx = order[j];
                let not_better = m.not(better);
                out[idx] = m.and(cands[idx].guard, not_better);
                class_present = m.or(class_present, cands[idx].guard);
                j += 1;
            }
            better = m.or(better, class_present);
            i = j;
        }
        out
    }
}

/// Groups all BGP-routed prefixes of `net` into origination-equivalence
/// classes: prefixes originated by the same routers in the same way are
/// routed identically, so route simulation runs once per class.
pub fn classify_prefixes(net: &Network) -> (Vec<ClassSig>, PrefixTrie<ClassId>) {
    let mut sig_of_prefix: BTreeMap<Prefix, ClassSig> = BTreeMap::new();
    for r in net.topo.routers() {
        let cfg = net.config(r);
        let Some(bgp) = &cfg.bgp else { continue };
        for p in &bgp.networks {
            sig_of_prefix
                .entry(*p)
                .or_default()
                .origins
                .push((r, OriginKind::Network));
        }
        if bgp.redistribute_static {
            for s in &cfg.static_routes {
                sig_of_prefix
                    .entry(s.prefix)
                    .or_default()
                    .origins
                    .push((r, OriginKind::Static));
            }
        }
    }
    // Attach the deny filters covering each prefix; they are part of the
    // signature because filtered and unfiltered prefixes route differently.
    let mut enriched: BTreeMap<Prefix, ClassSig> = BTreeMap::new();
    for (prefix, mut sig) in sig_of_prefix {
        for r in net.topo.routers() {
            let Some(bgp) = net.bgp(r) else { continue };
            for d in &bgp.deny_exports {
                if d.prefix.covers(&prefix) {
                    sig.denies.push((r, d.peer));
                }
            }
        }
        sig.origins.sort();
        sig.origins.dedup();
        sig.denies.sort();
        sig.denies.dedup();
        enriched.insert(prefix, sig);
    }
    let mut classes: Vec<ClassSig> = Vec::new();
    let mut class_of_sig: HashMap<ClassSig, ClassId> = HashMap::new();
    let mut prefix_class = PrefixTrie::new();
    for (prefix, sig) in enriched {
        let id = *class_of_sig.entry(sig.clone()).or_insert_with(|| {
            classes.push(sig.clone());
            ClassId(classes.len() as u32 - 1)
        });
        prefix_class.insert(prefix, id);
    }
    (classes, prefix_class)
}

/// A route advertisement (one round's export over one session type).
#[derive(Debug, Clone, PartialEq, Eq)]
struct Advert {
    class: ClassId,
    as_path: Vec<AsNum>,
    local_pref: u32,
    guard: NodeRef,
}

/// Result of symbolic BGP simulation.
pub struct BgpState {
    /// Signature per class.
    pub classes: Vec<ClassSig>,
    /// Prefix to class mapping.
    pub prefix_class: PrefixTrie<ClassId>,
    /// Final candidates per router per class (Adj-RIB-In plus origins).
    pub rib: Vec<HashMap<ClassId, Vec<BgpRoute>>>,
    /// Whether the fixpoint was reached within the round budget.
    pub converged: bool,
}

impl BgpState {
    /// Runs symbolic BGP propagation. `k` is the KREDUCE budget fused into
    /// every guard conjunction and merge ([`Mtbdd::apply_kreduce`];
    /// `None` = exact).
    pub fn compute(
        m: &mut Mtbdd,
        net: &Network,
        fv: &FailureVars,
        igp: &mut IgpState,
        k: Option<u32>,
    ) -> BgpState {
        let _stage = yu_telemetry::span("bgp");

        // --- Prefix classification -------------------------------------
        let (classes, prefix_class) = classify_prefixes(net);

        // --- Session guards --------------------------------------------
        // sessions[r] = (peer, session, guard). An eBGP guard is the raw
        // link guard: it only ever enters the budgeted conjunction with an
        // advertisement's guard below, which reduces the product.
        let nrouters = net.topo.num_routers();
        let mut sessions: Vec<Vec<(RouterId, BgpSession, NodeRef)>> = vec![Vec::new(); nrouters];
        for r in net.topo.routers() {
            for (peer, sess) in net.bgp_sessions(r) {
                let guard = match sess {
                    BgpSession::Ebgp { ulink } => {
                        let (fwd, _) = net.topo.directions(ulink);
                        fv.link_usable(m, &net.topo, fwd)
                    }
                    BgpSession::Ibgp => {
                        let asn = net.asn(r);
                        let lp_r = net.topo.router(r).loopback;
                        let lp_p = net.topo.router(peer).loopback;
                        let fwd = igp.reach(m, asn, r, lp_p);
                        let back = igp.reach(m, asn, peer, lp_r);
                        m.apply_kreduce(Op::And, fwd, back, k)
                    }
                };
                sessions[r.0 as usize].push((peer, sess, guard));
            }
        }

        // --- Origin candidates -----------------------------------------
        let mut origins: Vec<HashMap<ClassId, BgpRoute>> = vec![HashMap::new(); nrouters];
        for (cid, sig) in classes.iter().enumerate() {
            for &(r, _kind) in &sig.origins {
                let alive = fv.router_alive(m, r);
                origins[r.0 as usize].insert(
                    ClassId(cid as u32),
                    BgpRoute {
                        as_path: Vec::new(),
                        local_pref: 100,
                        from: BgpFrom::Origin,
                        next_hop: NextHop::Receive,
                        guard: alive,
                    },
                );
            }
        }

        // --- Synchronous propagation to fixpoint -----------------------
        let mut received: Vec<HashMap<ClassId, Vec<BgpRoute>>> = vec![HashMap::new(); nrouters];
        let num_ases = net.ases().len();
        let max_rounds = 2 * (num_ases + 2) + nrouters.min(64) + 8;
        let mut converged = false;
        let mut rounds: u64 = 0;

        for _round in 0..max_rounds {
            rounds += 1;
            // Exports of every router based on current candidates.
            let mut ebgp_out: Vec<Vec<Advert>> = vec![Vec::new(); nrouters];
            let mut ibgp_out: Vec<Vec<Advert>> = vec![Vec::new(); nrouters];
            for r in net.topo.routers() {
                if net.bgp(r).is_none() {
                    continue;
                }
                let mut class_ids: Vec<ClassId> = received[r.0 as usize].keys().copied().collect();
                class_ids.extend(origins[r.0 as usize].keys().copied());
                class_ids.sort();
                class_ids.dedup();
                for cid in class_ids {
                    let mut cands: Vec<BgpRoute> = Vec::new();
                    if let Some(o) = origins[r.0 as usize].get(&cid) {
                        cands.push(o.clone());
                    }
                    if let Some(learned) = received[r.0 as usize].get(&cid) {
                        cands.extend(learned.iter().cloned());
                    }
                    if cands.is_empty() {
                        continue;
                    }
                    let sel = BgpRoute::selection_guards(m, &cands);
                    // Group selected candidates by (as_path, local_pref),
                    // separately for each session type's export filter.
                    let mut groups_all: BTreeMap<(Vec<AsNum>, u32), NodeRef> = BTreeMap::new();
                    let mut groups_ibgp: BTreeMap<(Vec<AsNum>, u32), NodeRef> = BTreeMap::new();
                    for (cand, s) in cands.iter().zip(&sel) {
                        if *s == m.zero() {
                            continue;
                        }
                        let key = (cand.as_path.clone(), cand.local_pref);
                        let e = groups_all.entry(key.clone()).or_insert_with(|| m.zero());
                        *e = m.apply_kreduce(Op::Or, *e, *s, k);
                        if !matches!(cand.from, BgpFrom::Ibgp { .. }) {
                            let e = groups_ibgp.entry(key).or_insert_with(|| m.zero());
                            *e = m.apply_kreduce(Op::Or, *e, *s, k);
                        }
                    }
                    for ((as_path, local_pref), guard) in groups_all {
                        if guard != m.zero() {
                            ebgp_out[r.0 as usize].push(Advert {
                                class: cid,
                                as_path,
                                local_pref,
                                guard,
                            });
                        }
                    }
                    for ((as_path, local_pref), guard) in groups_ibgp {
                        if guard != m.zero() {
                            ibgp_out[r.0 as usize].push(Advert {
                                class: cid,
                                as_path,
                                local_pref,
                                guard,
                            });
                        }
                    }
                }
            }

            // Deliver exports.
            let mut next: Vec<HashMap<ClassId, Vec<BgpRoute>>> = vec![HashMap::new(); nrouters];
            for r in net.topo.routers() {
                let Some(bgp_cfg) = net.bgp(r) else { continue };
                // Merge candidates with identical attributes by OR-ing
                // guards (parallel sessions, multiple equal paths).
                let mut acc: HashMap<ClassId, MergedCandidates> = HashMap::new();
                for &(peer, sess, sguard) in &sessions[r.0 as usize] {
                    match sess {
                        BgpSession::Ebgp { ulink } => {
                            // The directed link from r towards peer.
                            let (fwd, rev) = net.topo.directions(ulink);
                            let to_peer = if net.topo.link(fwd).from == r {
                                fwd
                            } else {
                                rev
                            };
                            for adv in &ebgp_out[peer.0 as usize] {
                                if classes[adv.class.0 as usize].denied(peer, r) {
                                    continue; // outbound filter at the sender
                                }
                                let mut as_path = Vec::with_capacity(adv.as_path.len() + 1);
                                as_path.push(net.asn(peer));
                                as_path.extend_from_slice(&adv.as_path);
                                if as_path.contains(&net.asn(r)) {
                                    continue; // AS loop prevention
                                }
                                let guard = m.apply_kreduce(Op::And, adv.guard, sguard, k);
                                if guard == m.zero() {
                                    continue;
                                }
                                let lp = bgp_cfg.local_pref_for(peer);
                                let key = (
                                    as_path,
                                    lp,
                                    BgpFrom::Ebgp { peer, ulink },
                                    NextHopKey::Direct(to_peer.0),
                                );
                                let e = acc
                                    .entry(adv.class)
                                    .or_default()
                                    .entry(key)
                                    .or_insert_with(|| m.zero());
                                *e = m.apply_kreduce(Op::Or, *e, guard, k);
                            }
                        }
                        BgpSession::Ibgp => {
                            for adv in &ibgp_out[peer.0 as usize] {
                                if classes[adv.class.0 as usize].denied(peer, r) {
                                    continue;
                                }
                                if adv.as_path.contains(&net.asn(r)) {
                                    continue;
                                }
                                let guard = m.apply_kreduce(Op::And, adv.guard, sguard, k);
                                if guard == m.zero() {
                                    continue;
                                }
                                let key = (
                                    adv.as_path.clone(),
                                    adv.local_pref,
                                    BgpFrom::Ibgp { peer },
                                    NextHopKey::Ip(net.topo.router(peer).loopback),
                                );
                                let e = acc
                                    .entry(adv.class)
                                    .or_default()
                                    .entry(key)
                                    .or_insert_with(|| m.zero());
                                *e = m.apply_kreduce(Op::Or, *e, guard, k);
                            }
                        }
                    }
                }
                for (cid, routes) in acc {
                    let mut list: Vec<BgpRoute> = Vec::new();
                    for ((as_path, local_pref, from, nh), guard) in routes {
                        if guard != m.zero() {
                            list.push(BgpRoute {
                                as_path,
                                local_pref,
                                from,
                                next_hop: nh.into(),
                                guard,
                            });
                        }
                    }
                    if !list.is_empty() {
                        next[r.0 as usize].insert(cid, list);
                    }
                }
            }

            if next == received {
                converged = true;
                break;
            }
            received = next;
        }
        yu_telemetry::registry().route_bgp_rounds_total.add(rounds);

        // Final RIB = origins + received.
        let mut rib: Vec<HashMap<ClassId, Vec<BgpRoute>>> = received;
        for r in net.topo.routers() {
            for (cid, o) in &origins[r.0 as usize] {
                rib[r.0 as usize].entry(*cid).or_default().push(o.clone());
            }
            for routes in rib[r.0 as usize].values_mut() {
                routes.sort_by(|a, b| {
                    a.pref_key()
                        .cmp(&b.pref_key())
                        .then_with(|| a.from.cmp(&b.from))
                        .then_with(|| a.as_path.cmp(&b.as_path))
                });
            }
        }

        BgpState {
            classes,
            prefix_class,
            rib,
            converged,
        }
    }

    /// The class of the most specific BGP prefix covering `ip`, with the
    /// prefix itself.
    pub fn class_for(&self, ip: yu_net::Ipv4) -> Vec<(Prefix, ClassId)> {
        self.prefix_class
            .matches(ip)
            .into_iter()
            .map(|(p, c)| (p, *c))
            .collect()
    }

    /// Collects every guard handle (for garbage collection).
    pub fn gc_roots(&self, out: &mut Vec<NodeRef>) {
        for per_router in &self.rib {
            for routes in per_router.values() {
                out.extend(routes.iter().map(|r| r.guard));
            }
        }
    }

    /// Translates guard handles after a collection.
    pub fn remap(&mut self, remap: &yu_mtbdd::Remap) {
        for per_router in &mut self.rib {
            for routes in per_router.values_mut() {
                for r in routes.iter_mut() {
                    r.guard = remap.get(r.guard);
                }
            }
        }
    }

    /// The candidates of `router` for `class`.
    pub fn candidates(&self, router: RouterId, class: ClassId) -> &[BgpRoute] {
        self.rib[router.0 as usize]
            .get(&class)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }
}

/// Hashable stand-in for [`NextHop`] (which contains `LinkId`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum NextHopKey {
    Direct(u32),
    Ip(yu_net::Ipv4),
}

impl From<NextHopKey> for NextHop {
    fn from(k: NextHopKey) -> NextHop {
        match k {
            NextHopKey::Direct(l) => NextHop::Direct(yu_net::LinkId(l)),
            NextHopKey::Ip(ip) => NextHop::Ip(ip),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yu_mtbdd::{Ratio, Term};
    use yu_net::{BgpConfig, FailureMode, Ipv4, Scenario, Topology};

    /// The eBGP skeleton of the motivating example: A (AS 100), B (AS 200),
    /// C, D (AS 300, sharing IS-IS and iBGP with F which originates
    /// 100.0.0.0/24). Links: A-B, A-C, B-C, B-D, C-D, C-E, D-E, E-F x2.
    fn fig1_like() -> (Network, Vec<RouterId>) {
        let mut t = Topology::new();
        let cap = Ratio::int(100);
        let a = t.add_router("A", Ipv4::new(10, 0, 0, 1), 100);
        let b = t.add_router("B", Ipv4::new(10, 0, 0, 2), 200);
        let c = t.add_router("C", Ipv4::new(10, 0, 0, 3), 300);
        let d = t.add_router("D", Ipv4::new(10, 0, 0, 4), 300);
        let e = t.add_router("E", Ipv4::new(10, 0, 0, 5), 300);
        let f = t.add_router("F", Ipv4::new(10, 0, 0, 6), 300);
        t.add_link(a, b, 10000, cap.clone()); // u0
        t.add_link(a, c, 10000, cap.clone()); // u1
        t.add_link(b, c, 10000, cap.clone()); // u2
        t.add_link(b, d, 10000, cap.clone()); // u3
        t.add_link(c, d, 10000, cap.clone()); // u4
        t.add_link(c, e, 10000, cap.clone()); // u5
        t.add_link(d, e, 10000, cap.clone()); // u6
        t.add_link(e, f, 10000, cap.clone()); // u7
        t.add_link(e, f, 10000, cap.clone()); // u8
        let mut n = Network::new(t);
        for r in [a, b] {
            n.config_mut(r).bgp = Some(BgpConfig::default());
        }
        for r in [c, d, e, f] {
            n.config_mut(r).isis_enabled = true;
        }
        for r in [c, d, f] {
            n.config_mut(r).bgp = Some(BgpConfig::default());
        }
        n.config_mut(f)
            .connected
            .push("100.0.0.0/24".parse().unwrap());
        n.config_mut(f).bgp.as_mut().unwrap().networks = vec!["100.0.0.0/24".parse().unwrap()];
        (n, vec![a, b, c, d, e, f])
    }

    fn setup(net: &Network) -> (Mtbdd, FailureVars, IgpState) {
        let mut m = Mtbdd::new();
        let fv = FailureVars::allocate(&mut m, &net.topo, FailureMode::Links);
        let igp = IgpState::compute(&mut m, net, &fv, None);
        (m, fv, igp)
    }

    #[test]
    fn prefix_classification_and_convergence() {
        let (net, _) = fig1_like();
        let (mut m, fv, mut igp) = setup(&net);
        let st = BgpState::compute(&mut m, &net, &fv, &mut igp, None);
        assert!(st.converged, "BGP must reach a fixpoint");
        assert_eq!(st.classes.len(), 1);
        let cls = st.class_for("100.0.0.77".parse().unwrap());
        assert_eq!(cls.len(), 1);
        assert_eq!(cls[0].0, "100.0.0.0/24".parse().unwrap());
    }

    #[test]
    fn router_a_rib_matches_paper_figure3() {
        let (net, ids) = fig1_like();
        let (mut m, fv, mut igp) = setup(&net);
        let st = BgpState::compute(&mut m, &net, &fv, &mut igp, None);
        let a = ids[0];
        let cid = ClassId(0);
        let cands = st.candidates(a, cid);
        // Two candidates: via C (path [300]) preferred, via B (path
        // [200,300]).
        assert_eq!(cands.len(), 2, "{cands:?}");
        let via_c = cands.iter().find(|r| r.as_path == vec![300]).unwrap();
        let via_b = cands.iter().find(|r| r.as_path == vec![200, 300]).unwrap();
        // Guard of r1: link A-C alive (x1 in the paper's Fig. 3).
        let s_ac_fail = Scenario::links([yu_net::ULinkId(1)]);
        assert_eq!(m.eval(via_c.guard, fv.assignment(&s_ac_fail)), Term::ZERO);
        assert_eq!(m.eval_all_alive(via_c.guard), Term::ONE);
        // Guard of r2: x2 or x3 — B reaches AS 300 via B-C or B-D.
        assert_eq!(m.eval_all_alive(via_b.guard), Term::ONE);
        let s_both = Scenario::links([yu_net::ULinkId(2), yu_net::ULinkId(3)]);
        assert_eq!(m.eval(via_b.guard, fv.assignment(&s_both)), Term::ZERO);
        let s_one = Scenario::links([yu_net::ULinkId(2)]);
        assert_eq!(m.eval(via_b.guard, fv.assignment(&s_one)), Term::ONE);
    }

    #[test]
    fn ibgp_next_hop_is_originator_loopback() {
        let (net, ids) = fig1_like();
        let (mut m, fv, mut igp) = setup(&net);
        let st = BgpState::compute(&mut m, &net, &fv, &mut igp, None);
        let d = ids[3];
        let cands = st.candidates(d, ClassId(0));
        let ibgp: Vec<_> = cands
            .iter()
            .filter(|r| matches!(r.from, BgpFrom::Ibgp { .. }))
            .collect();
        assert!(!ibgp.is_empty());
        assert!(ibgp
            .iter()
            .any(|r| r.next_hop == NextHop::Ip(Ipv4::new(10, 0, 0, 6))));
    }

    #[test]
    fn selection_prefers_local_pref_then_as_path() {
        let mut m = Mtbdd::new();
        let v0 = m.fresh_var();
        let g0 = m.var_guard(v0);
        let one = m.one();
        let mk = |lp: u32, path: Vec<AsNum>, guard: NodeRef| BgpRoute {
            as_path: path,
            local_pref: lp,
            from: BgpFrom::Origin,
            next_hop: NextHop::Receive,
            guard,
        };
        let cands = vec![
            mk(100, vec![1], one),      // mid
            mk(200, vec![1, 2, 3], g0), // best when present
            mk(100, vec![1, 2], one),   // worst
        ];
        let sel = BgpRoute::selection_guards(&mut m, &cands);
        // Candidate 1 selected whenever present.
        assert_eq!(m.eval_all_alive(sel[1]), Term::ONE);
        // Candidate 0 selected only when candidate 1 absent.
        assert_eq!(m.eval_all_alive(sel[0]), Term::ZERO);
        assert_eq!(m.eval(sel[0], |_| false), Term::ONE);
        // Candidate 2 never selected (candidate 0 always present).
        assert_eq!(m.eval_all_alive(sel[2]), Term::ZERO);
        assert_eq!(m.eval(sel[2], |_| false), Term::ZERO);
    }

    #[test]
    fn ebgp_guard_includes_session_link() {
        let (net, ids) = fig1_like();
        let (mut m, fv, mut igp) = setup(&net);
        let st = BgpState::compute(&mut m, &net, &fv, &mut igp, None);
        let b = ids[1];
        let cands = st.candidates(b, ClassId(0));
        // B has learned via C (u2), via D (u3) and via A (u0, path
        // [100,300]).
        let direct: Vec<_> = cands.iter().filter(|r| r.as_path == vec![300]).collect();
        assert_eq!(direct.len(), 2, "{cands:?}");
        let via_a = cands
            .iter()
            .find(|r| r.as_path == vec![100, 300])
            .expect("backup route through A");
        // The backup only exists while A itself has a route (A-C alive,
        // since the A-B-C route would loop through B's AS and is rejected).
        let s = Scenario::links([yu_net::ULinkId(1)]);
        assert_eq!(m.eval(via_a.guard, fv.assignment(&s)), Term::ZERO);
        assert_eq!(m.eval_all_alive(via_a.guard), Term::ONE);
    }

    #[test]
    fn anycast_class_has_two_origins() {
        // Two routers originating the same prefix -> one class, signature
        // of two origins.
        let mut t = Topology::new();
        let a = t.add_router("A", Ipv4::new(10, 0, 0, 1), 100);
        let b1 = t.add_router("B1", Ipv4::new(10, 0, 0, 2), 200);
        let b2 = t.add_router("B2", Ipv4::new(10, 0, 0, 3), 300);
        t.add_link(a, b1, 10, Ratio::int(100));
        t.add_link(a, b2, 10, Ratio::int(100));
        let mut net = Network::new(t);
        let p: Prefix = "50.0.0.0/24".parse().unwrap();
        for r in [a, b1, b2] {
            net.config_mut(r).bgp = Some(BgpConfig::default());
        }
        for r in [b1, b2] {
            net.config_mut(r).connected.push(p);
            net.config_mut(r).bgp.as_mut().unwrap().networks = vec![p];
        }
        let (mut m, fv, mut igp) = setup(&net);
        let st = BgpState::compute(&mut m, &net, &fv, &mut igp, None);
        assert_eq!(st.classes.len(), 1);
        assert_eq!(st.classes[0].origins.len(), 2);
        // A multipaths across both eBGP routes.
        let cands = st.candidates(a, ClassId(0));
        assert_eq!(cands.len(), 2);
        assert!(cands.iter().all(|c| c.as_path.len() == 1));
    }
}
