//! A concrete (single-scenario) route and traffic simulator.
//!
//! This is an *independent* re-implementation of the forwarding semantics
//! under one fixed failure scenario: Dijkstra for IS-IS, round-based BGP
//! propagation, longest-prefix-match FIBs, ECMP, and SR steering with
//! label stacks. It serves three purposes:
//!
//! * it is the engine of the Jingubang-style baseline, which must
//!   enumerate and simulate every `≤ k`-failure scenario (the cost YU's
//!   symbolic execution avoids);
//! * it is the differential-testing oracle: for any scenario, evaluating
//!   YU's symbolic traffic loads at that scenario must give exactly the
//!   loads this simulator computes;
//! * it lists the concrete packet paths of a flow for violation
//!   forensics (`yu explain`'s before/after path diff).
//!
//! One per-hop function (`ConcreteRoutes::hop`) says what a router does
//! with an amount of a flow; [`ConcreteRoutes::forward_flow`] drives it
//! breadth-first to per-link fractions and
//! [`ConcreteRoutes::forward_paths`] drives it depth-first to paths.

use crate::bgp::{classify_prefixes, BgpFrom, ClassId, ClassSig};
use crate::rib::NextHop;
use serde::Serialize;
use std::cmp::Reverse;
use std::collections::{BTreeMap, HashMap};
use yu_mtbdd::Ratio;
use yu_net::{
    AsNum, BgpSession, Flow, Ipv4, LinkId, Network, Prefix, PrefixTrie, Proto, RouterId, Scenario,
    StaticNextHop,
};

/// A concrete FIB rule (present in the current scenario).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CRule {
    /// Matched prefix.
    pub prefix: Prefix,
    /// Protocol (administrative distance).
    pub proto: Proto,
    /// Next hop.
    pub next_hop: NextHop,
    /// BGP local preference.
    pub local_pref: u32,
    /// BGP AS-path length.
    pub as_path_len: u32,
    /// Deterministic tiebreak.
    pub tie: u32,
}

impl CRule {
    fn pref_key(&self) -> (u32, Reverse<u32>, u32) {
        (
            self.proto.admin_distance(),
            Reverse(self.local_pref),
            self.as_path_len,
        )
    }

    fn same_class(&self, other: &CRule) -> bool {
        self.prefix.len() == other.prefix.len() && self.pref_key() == other.pref_key()
    }
}

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct CBgpRoute {
    as_path: Vec<AsNum>,
    local_pref: u32,
    from: BgpFrom,
    next_hop: CNextHop,
}

/// Per-router outbound advertisements of one propagation round:
/// `(as_path, local_pref)` per prefix class.
type ExportQueues = Vec<BTreeMap<ClassId, Vec<(Vec<AsNum>, u32)>>>;

/// `Ord`-able next hop mirror.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum CNextHop {
    Direct(u32),
    Ip(Ipv4),
}

impl From<CNextHop> for NextHop {
    fn from(n: CNextHop) -> NextHop {
        match n {
            CNextHop::Direct(l) => NextHop::Direct(LinkId(l)),
            CNextHop::Ip(ip) => NextHop::Ip(ip),
        }
    }
}

impl CBgpRoute {
    fn pref_key(&self) -> (Reverse<u32>, usize, u32) {
        let rank = match self.from {
            BgpFrom::Origin => 0,
            BgpFrom::Ebgp { .. } => 1,
            BgpFrom::Ibgp { .. } => 2,
        };
        (Reverse(self.local_pref), self.as_path.len(), rank)
    }
}

/// Per-flow traffic result of the concrete simulator.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ConcreteFlowResult {
    /// Fraction of the flow on each directed link (summed over label
    /// stacks and hop counts).
    pub link_fraction: HashMap<LinkId, Ratio>,
    /// Fraction delivered per router.
    pub delivered: HashMap<RouterId, Ratio>,
    /// Fraction dropped per router (Null0, no route, unresolvable next
    /// hop, no valid SR path).
    pub dropped: HashMap<RouterId, Ratio>,
}

/// Cap on the number of concrete paths listed per flow and scenario
/// (ECMP fan-out is exponential in the worst case; forensics reports
/// stay readable).
pub const MAX_TRACED_PATHS: usize = 64;

/// Where one packet path ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum PathOutcome {
    /// Delivered locally at a router.
    Delivered(RouterId),
    /// Dropped at a router (Null0, no route, dead tunnels, ...).
    Dropped(RouterId),
    /// Still in flight at the TTL bound.
    Truncated,
}

/// One concrete packet path of a flow under a fixed scenario.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct TracedPath {
    /// Routers visited, ingress first.
    pub hops: Vec<RouterId>,
    /// Directed links traversed (one fewer than `hops`).
    pub links: Vec<LinkId>,
    /// Fraction of the flow on this path (ECMP/weighted splits).
    pub fraction: Ratio,
    /// How the path ends.
    pub outcome: PathOutcome,
}

/// What one router does with some amount of a flow.
enum HopEvent {
    /// Delivered locally.
    Deliver(Ratio),
    /// Sent across a link carrying a label stack.
    Emit(LinkId, Vec<Ipv4>, Ratio),
    /// Dropped (the residual nothing else took).
    Drop(Ratio),
}

impl HopEvent {
    fn amount(&self) -> &Ratio {
        match self {
            HopEvent::Deliver(q) | HopEvent::Emit(_, _, q) | HopEvent::Drop(q) => q,
        }
    }
}

/// Concrete routing state of a network under one failure scenario.
pub struct ConcreteRoutes<'n> {
    net: &'n Network,
    scenario: Scenario,
    /// Shortest distances per (AS, IGP destination), indexed by router.
    igp_dist: HashMap<(AsNum, Ipv4), Vec<Option<u64>>>,
    classes: Vec<ClassSig>,
    prefix_class: PrefixTrie<ClassId>,
    rib: Vec<BTreeMap<ClassId, Vec<CBgpRoute>>>,
    /// Whether BGP propagation reached its fixpoint.
    pub converged: bool,
}

impl<'n> ConcreteRoutes<'n> {
    /// Runs concrete IGP + BGP route simulation under `scenario`.
    pub fn compute(net: &'n Network, scenario: &Scenario) -> ConcreteRoutes<'n> {
        let mut igp_dist = HashMap::new();
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
                let d = concrete_igp(net, scenario, &members, ip);
                igp_dist.insert((asn, ip), d);
            }
        }
        let (classes, prefix_class) = classify_prefixes(net);
        let mut state = ConcreteRoutes {
            net,
            scenario: scenario.clone(),
            igp_dist,
            classes,
            prefix_class,
            rib: vec![BTreeMap::new(); net.topo.num_routers()],
            converged: false,
        };
        state.run_bgp();
        state
    }

    /// The shortest distance from `r` to `ip` in the IGP of `asn`.
    pub fn igp_distance(&self, asn: AsNum, ip: Ipv4, r: RouterId) -> Option<u64> {
        self.igp_dist.get(&(asn, ip)).and_then(|v| v[r.0 as usize])
    }

    fn reach(&self, asn: AsNum, r: RouterId, ip: Ipv4) -> bool {
        self.igp_distance(asn, ip, r).is_some()
    }

    fn run_bgp(&mut self) {
        let net = self.net;
        let n = net.topo.num_routers();
        // Origins.
        let mut origins: Vec<BTreeMap<ClassId, CBgpRoute>> = vec![BTreeMap::new(); n];
        for (cid, sig) in self.classes.iter().enumerate() {
            for &(r, _) in &sig.origins {
                if self.scenario.router_alive(r) {
                    origins[r.0 as usize].insert(
                        ClassId(cid as u32),
                        CBgpRoute {
                            as_path: Vec::new(),
                            local_pref: 100,
                            from: BgpFrom::Origin,
                            next_hop: CNextHop::Ip(net.topo.router(r).loopback),
                        },
                    );
                }
            }
        }
        // Session availability.
        let mut sessions: Vec<Vec<(RouterId, BgpSession)>> = vec![Vec::new(); n];
        for r in net.topo.routers() {
            for (peer, sess) in net.bgp_sessions(r) {
                let up = match sess {
                    BgpSession::Ebgp { ulink } => {
                        let (fwd, _) = net.topo.directions(ulink);
                        self.scenario.link_usable(&net.topo, fwd)
                    }
                    BgpSession::Ibgp => {
                        let asn = net.asn(r);
                        self.reach(asn, r, net.topo.router(peer).loopback)
                            && self.reach(asn, peer, net.topo.router(r).loopback)
                    }
                };
                if up {
                    sessions[r.0 as usize].push((peer, sess));
                }
            }
        }

        let mut received: Vec<BTreeMap<ClassId, Vec<CBgpRoute>>> = vec![BTreeMap::new(); n];
        let num_ases = net.ases().len();
        let max_rounds = 2 * (num_ases + 2) + n.min(64) + 8;
        for _ in 0..max_rounds {
            // Exports: selected best class per (router, class).
            let mut ebgp_out: ExportQueues = vec![BTreeMap::new(); n];
            let mut ibgp_out: ExportQueues = vec![BTreeMap::new(); n];
            for r in net.topo.routers() {
                if net.bgp(r).is_none() || !self.scenario.router_alive(r) {
                    continue;
                }
                let mut class_ids: Vec<ClassId> = received[r.0 as usize].keys().copied().collect();
                class_ids.extend(origins[r.0 as usize].keys().copied());
                class_ids.sort();
                class_ids.dedup();
                for cid in class_ids {
                    let mut cands: Vec<CBgpRoute> = Vec::new();
                    if let Some(o) = origins[r.0 as usize].get(&cid) {
                        cands.push(o.clone());
                    }
                    if let Some(l) = received[r.0 as usize].get(&cid) {
                        cands.extend(l.iter().cloned());
                    }
                    if cands.is_empty() {
                        continue;
                    }
                    let best = cands.iter().map(|c| c.pref_key()).min().unwrap();
                    let selected: Vec<&CBgpRoute> =
                        cands.iter().filter(|c| c.pref_key() == best).collect();
                    let mut all: Vec<(Vec<AsNum>, u32)> = selected
                        .iter()
                        .map(|c| (c.as_path.clone(), c.local_pref))
                        .collect();
                    all.sort();
                    all.dedup();
                    let mut not_ibgp: Vec<(Vec<AsNum>, u32)> = selected
                        .iter()
                        .filter(|c| !matches!(c.from, BgpFrom::Ibgp { .. }))
                        .map(|c| (c.as_path.clone(), c.local_pref))
                        .collect();
                    not_ibgp.sort();
                    not_ibgp.dedup();
                    if !all.is_empty() {
                        ebgp_out[r.0 as usize].insert(cid, all);
                    }
                    if !not_ibgp.is_empty() {
                        ibgp_out[r.0 as usize].insert(cid, not_ibgp);
                    }
                }
            }

            // Delivery.
            let mut next: Vec<BTreeMap<ClassId, Vec<CBgpRoute>>> = vec![BTreeMap::new(); n];
            for r in net.topo.routers() {
                let Some(bgp_cfg) = net.bgp(r) else { continue };
                if !self.scenario.router_alive(r) {
                    continue;
                }
                for &(peer, sess) in &sessions[r.0 as usize] {
                    match sess {
                        BgpSession::Ebgp { ulink } => {
                            let (fwd, rev) = net.topo.directions(ulink);
                            let to_peer = if net.topo.link(fwd).from == r {
                                fwd
                            } else {
                                rev
                            };
                            for (cid, advs) in &ebgp_out[peer.0 as usize] {
                                if self.classes[cid.0 as usize].denied(peer, r) {
                                    continue;
                                }
                                for (path, _lp) in advs {
                                    let mut as_path = Vec::with_capacity(path.len() + 1);
                                    as_path.push(net.asn(peer));
                                    as_path.extend_from_slice(path);
                                    if as_path.contains(&net.asn(r)) {
                                        continue;
                                    }
                                    next[r.0 as usize].entry(*cid).or_default().push(CBgpRoute {
                                        as_path,
                                        local_pref: bgp_cfg.local_pref_for(peer),
                                        from: BgpFrom::Ebgp { peer, ulink },
                                        next_hop: CNextHop::Direct(to_peer.0),
                                    });
                                }
                            }
                        }
                        BgpSession::Ibgp => {
                            for (cid, advs) in &ibgp_out[peer.0 as usize] {
                                if self.classes[cid.0 as usize].denied(peer, r) {
                                    continue;
                                }
                                for (path, lp) in advs {
                                    if path.contains(&net.asn(r)) {
                                        continue;
                                    }
                                    next[r.0 as usize].entry(*cid).or_default().push(CBgpRoute {
                                        as_path: path.clone(),
                                        local_pref: *lp,
                                        from: BgpFrom::Ibgp { peer },
                                        next_hop: CNextHop::Ip(net.topo.router(peer).loopback),
                                    });
                                }
                            }
                        }
                    }
                }
                for routes in next[r.0 as usize].values_mut() {
                    routes.sort();
                    routes.dedup();
                }
            }
            if next == received {
                self.converged = true;
                break;
            }
            received = next;
        }

        // Final RIB = origins + received, canonically sorted.
        for r in net.topo.routers() {
            let mut rib = std::mem::take(&mut received[r.0 as usize]);
            if let Some(os) = origins.get(r.0 as usize) {
                for (cid, o) in os {
                    rib.entry(*cid).or_default().push(o.clone());
                }
            }
            for routes in rib.values_mut() {
                routes.sort_by(|a, b| {
                    a.pref_key()
                        .cmp(&b.pref_key())
                        .then_with(|| a.from.cmp(&b.from))
                        .then_with(|| a.as_path.cmp(&b.as_path))
                });
            }
            self.rib[r.0 as usize] = rib;
        }
    }

    /// The concrete FIB rules of `router` matching `dstip`, most specific
    /// and most preferred first — the concrete mirror of
    /// `SymbolicRoutes::fib_rules`.
    pub fn fib_rules(&self, router: RouterId, dstip: Ipv4) -> Vec<CRule> {
        let net = self.net;
        let mut rules = Vec::new();
        if !self.scenario.router_alive(router) {
            return rules;
        }
        let cfg = net.config(router);
        for p in &cfg.connected {
            if p.contains(dstip) {
                rules.push(CRule {
                    prefix: *p,
                    proto: Proto::Connected,
                    next_hop: NextHop::Receive,
                    local_pref: 0,
                    as_path_len: 0,
                    tie: 0,
                });
            }
        }
        if net.topo.router(router).loopback == dstip {
            rules.push(CRule {
                prefix: Prefix::host(dstip),
                proto: Proto::Connected,
                next_hop: NextHop::Receive,
                local_pref: 0,
                as_path_len: 0,
                tie: 1,
            });
        }
        for (i, s) in cfg.static_routes.iter().enumerate() {
            if s.prefix.contains(dstip) {
                rules.push(CRule {
                    prefix: s.prefix,
                    proto: Proto::Static,
                    next_hop: match s.next_hop {
                        StaticNextHop::Null0 => NextHop::Null0,
                        StaticNextHop::Ip(ip) => NextHop::Ip(ip),
                    },
                    local_pref: 0,
                    as_path_len: 0,
                    tie: i as u32,
                });
            }
        }
        if net.bgp(router).is_some() {
            for (prefix, cid) in self.prefix_class.matches(dstip) {
                for (i, cand) in self.rib[router.0 as usize]
                    .get(cid)
                    .map(|v| v.as_slice())
                    .unwrap_or(&[])
                    .iter()
                    .enumerate()
                {
                    let proto = match cand.from {
                        BgpFrom::Origin => continue,
                        BgpFrom::Ebgp { .. } => Proto::Ebgp,
                        BgpFrom::Ibgp { .. } => Proto::Ibgp,
                    };
                    rules.push(CRule {
                        prefix,
                        proto,
                        next_hop: cand.next_hop.into(),
                        local_pref: cand.local_pref,
                        as_path_len: cand.as_path.len() as u32,
                        tie: i as u32,
                    });
                }
            }
        }
        // IS-IS loopback host routes (shortest-path links only).
        let asn = net.asn(router);
        let owner = net.topo.router(router).loopback == dstip && cfg.isis_enabled;
        if !owner {
            if let Some(dist) = self.igp_dist.get(&(asn, dstip)) {
                if let Some(dr) = dist[router.0 as usize] {
                    for l in net.isis_links(router) {
                        if !self.scenario.link_usable(&net.topo, l) {
                            continue;
                        }
                        let u = net.topo.link(l).to;
                        if let Some(du) = dist[u.0 as usize] {
                            if dr == net.topo.link(l).igp_cost + du {
                                rules.push(CRule {
                                    prefix: Prefix::host(dstip),
                                    proto: Proto::Isis,
                                    next_hop: NextHop::Direct(l),
                                    local_pref: 0,
                                    as_path_len: 0,
                                    tie: l.0,
                                });
                            }
                        }
                    }
                }
            }
        }
        rules.sort_by_key(|r| (Reverse(r.prefix.len()), r.pref_key(), r.tie));
        rules
    }

    /// ECMP shares toward IGP destination `ip` at `router`
    /// (concrete `V^IGP`).
    pub fn igp_shares(&self, router: RouterId, ip: Ipv4) -> Vec<(LinkId, Ratio)> {
        let net = self.net;
        let asn = net.asn(router);
        let Some(dist) = self.igp_dist.get(&(asn, ip)) else {
            return Vec::new();
        };
        let Some(dr) = dist[router.0 as usize] else {
            return Vec::new();
        };
        let mut links = Vec::new();
        for l in net.isis_links(router) {
            if !self.scenario.link_usable(&net.topo, l) {
                continue;
            }
            let u = net.topo.link(l).to;
            if let Some(du) = dist[u.0 as usize] {
                if dr == net.topo.link(l).igp_cost + du {
                    links.push(l);
                }
            }
        }
        let share = if links.is_empty() {
            Ratio::ZERO
        } else {
            Ratio::new(1, links.len() as i128)
        };
        links.into_iter().map(|l| (l, share.clone())).collect()
    }

    /// Whether the SR tunnel with `segments` can be established from
    /// `head` (concrete mirror of the guarded SR path computation).
    pub fn sr_path_valid(&self, head: RouterId, segments: &[Ipv4]) -> bool {
        let net = self.net;
        let asn = net.asn(head);
        let mut from = vec![head];
        for &seg in segments {
            if !self.igp_dist.contains_key(&(asn, seg)) {
                return false;
            }
            if !from.iter().any(|&f| self.reach(asn, f, seg)) {
                return false;
            }
            from = net.igp_owners(asn, seg);
            if from.is_empty() {
                return false;
            }
        }
        true
    }

    fn owns(&self, router: RouterId, ip: Ipv4) -> bool {
        self.net.topo.router(router).loopback == ip && self.net.config(router).isis_enabled
    }

    /// Forwards one flow, returning per-link fractions plus delivered and
    /// dropped fractions — the concrete mirror of symbolic traffic
    /// execution (Algorithms 1 and 2).
    pub fn forward_flow(&self, flow: &Flow, max_hops: usize) -> ConcreteFlowResult {
        let mut res = ConcreteFlowResult::default();
        let mut frontier: BTreeMap<(RouterId, Vec<Ipv4>), Ratio> = BTreeMap::new();
        if self.scenario.router_alive(flow.ingress) {
            frontier.insert((flow.ingress, Vec::new()), Ratio::ONE);
        }
        let mut events = Vec::new();
        for _hop in 0..max_hops {
            if frontier.is_empty() {
                break;
            }
            let mut next: BTreeMap<(RouterId, Vec<Ipv4>), Ratio> = BTreeMap::new();
            for ((router, stack), amount) in std::mem::take(&mut frontier) {
                self.hop(flow, router, &stack, amount, &mut events);
                for event in events.drain(..) {
                    match event {
                        HopEvent::Deliver(q) => {
                            *res.delivered.entry(router).or_insert(Ratio::ZERO) += q
                        }
                        HopEvent::Emit(l, stack, q) => {
                            *res.link_fraction.entry(l).or_insert(Ratio::ZERO) += q.clone();
                            let to = self.net.topo.link(l).to;
                            *next.entry((to, stack)).or_insert(Ratio::ZERO) += q;
                        }
                        HopEvent::Drop(q) => *res.dropped.entry(router).or_insert(Ratio::ZERO) += q,
                    }
                }
            }
            frontier = next;
        }
        res
    }

    /// Lists the packet paths of one flow, depth-first in forwarding
    /// order: at most [`MAX_TRACED_PATHS`], with identical paths (e.g.
    /// parallel SR paths over the same routers) merged by summing their
    /// fractions. Paths still in flight after `max_hops` links end
    /// [`PathOutcome::Truncated`].
    pub fn forward_paths(&self, flow: &Flow, max_hops: usize) -> Vec<TracedPath> {
        let mut paths = Vec::new();
        if self.scenario.router_alive(flow.ingress) {
            self.walk(flow, &[], Ratio::ONE, &mut Vec::new(), max_hops, &mut paths);
        }
        let mut merged: Vec<TracedPath> = Vec::new();
        for p in paths {
            // `hops` follows from `links`, so they need no comparison.
            match merged
                .iter_mut()
                .find(|q| q.links == p.links && q.outcome == p.outcome)
            {
                Some(q) => q.fraction += p.fraction,
                None => merged.push(p),
            }
        }
        merged
    }

    /// One step of [`Self::forward_paths`]: `fraction` of the flow has
    /// crossed `links` from its ingress and carries label `stack`.
    fn walk(
        &self,
        flow: &Flow,
        stack: &[Ipv4],
        fraction: Ratio,
        links: &mut Vec<LinkId>,
        max_hops: usize,
        out: &mut Vec<TracedPath>,
    ) {
        let topo = &self.net.topo;
        let router = links.last().map_or(flow.ingress, |&l| topo.link(l).to);
        let finish = |out: &mut Vec<TracedPath>, links: &[LinkId], fraction, outcome| {
            if fraction > Ratio::ZERO && out.len() < MAX_TRACED_PATHS {
                let hops = std::iter::once(flow.ingress)
                    .chain(links.iter().map(|&l| topo.link(l).to))
                    .collect();
                out.push(TracedPath {
                    hops,
                    links: links.to_vec(),
                    fraction,
                    outcome,
                });
            }
        };
        if links.len() == max_hops {
            finish(out, links, fraction, PathOutcome::Truncated);
            return;
        }
        let mut events = Vec::new();
        self.hop(flow, router, stack, fraction, &mut events);
        for event in events {
            match event {
                HopEvent::Deliver(q) => finish(out, links, q, PathOutcome::Delivered(router)),
                HopEvent::Drop(q) => finish(out, links, q, PathOutcome::Dropped(router)),
                HopEvent::Emit(l, stack, q) => {
                    if !q.is_zero() && out.len() < MAX_TRACED_PATHS {
                        links.push(l);
                        self.walk(flow, &stack, q, links, max_hops, out);
                        links.pop();
                    }
                }
            }
        }
    }

    /// What `router` does with `amount` of `flow` arriving with label
    /// `stack` (Algorithms 1 and 2 for one hop), appended to `out` in
    /// forwarding order: deliveries and link emissions, then the dropped
    /// residual last. An SR tunnel whose headend owns its first segment
    /// is processed in place, so its events (its own residual included)
    /// appear where the tunnel is taken.
    fn hop(
        &self,
        flow: &Flow,
        router: RouterId,
        stack: &[Ipv4],
        amount: Ratio,
        out: &mut Vec<HopEvent>,
    ) {
        // Pop segments owned by this router.
        let mut stack = stack;
        while let Some((&top, rest)) = stack.split_first() {
            if self.owns(router, top) {
                stack = rest;
            } else {
                break;
            }
        }
        let start = out.len();
        if let Some(&top) = stack.first() {
            // Labeled: forward toward the top segment via IGP.
            self.emit_igp(router, top, stack, &amount, out);
        } else {
            // Plain IP forwarding.
            let rules = self.fib_rules(router, flow.dst);
            // Selected = first (most preferred) class, honoring multipath.
            let selected: Vec<&CRule> = match rules.first() {
                None => Vec::new(),
                Some(first) => {
                    let class: Vec<&CRule> =
                        rules.iter().take_while(|r| r.same_class(first)).collect();
                    let multipath = matches!(first.proto, Proto::Ebgp | Proto::Ibgp)
                        .then(|| self.net.bgp(router).map(|b| b.multipath).unwrap_or(true))
                        .unwrap_or(true);
                    if multipath {
                        class
                    } else {
                        class.into_iter().take(1).collect()
                    }
                }
            };
            if !selected.is_empty() {
                let share = amount.clone() * Ratio::new(1, selected.len() as i128);
                for rule in selected {
                    match rule.next_hop {
                        NextHop::Receive => out.push(HopEvent::Deliver(share.clone())),
                        NextHop::Null0 => {} // falls into the dropped residual
                        NextHop::Direct(l) => {
                            out.push(HopEvent::Emit(l, Vec::new(), share.clone()))
                        }
                        // Concrete `resolveNhIp`: SR policy steering or
                        // plain IGP iteration.
                        NextHop::Ip(nip) => match self.net.sr_policy(router, nip, flow.dscp) {
                            None => self.emit_igp(router, nip, &[], &share, out),
                            Some(pol) => {
                                // No valid tunnel: dropped via the residual.
                                let valid: Vec<_> = pol
                                    .paths
                                    .iter()
                                    .filter(|p| self.sr_path_valid(router, &p.segments))
                                    .collect();
                                let total: u64 = valid.iter().map(|p| p.weight).sum();
                                for p in valid {
                                    let q =
                                        share.clone() * Ratio::new(p.weight as i128, total as i128);
                                    let first = p.segments[0];
                                    if self.owns(router, first) {
                                        // Degenerate: the headend owns the
                                        // first segment; process the stack here.
                                        self.hop(flow, router, &p.segments, q, out);
                                    } else {
                                        self.emit_igp(router, first, &p.segments, &q, out);
                                    }
                                }
                            }
                        },
                    }
                }
            }
        }
        // The dropped residual: what no event above took.
        let taken = out[start..]
            .iter()
            .fold(Ratio::ZERO, |acc, event| acc + event.amount().clone());
        let dropped = amount - taken;
        if !dropped.is_zero() {
            out.push(HopEvent::Drop(dropped));
        }
    }

    /// Emits `amount` from `router` over the ECMP links toward IGP
    /// destination `toward`, carrying `stack`.
    fn emit_igp(
        &self,
        router: RouterId,
        toward: Ipv4,
        stack: &[Ipv4],
        amount: &Ratio,
        out: &mut Vec<HopEvent>,
    ) {
        for (l, share) in self.igp_shares(router, toward) {
            let q = amount.clone() * share;
            if !q.is_zero() {
                out.push(HopEvent::Emit(l, stack.to_vec(), q));
            }
        }
    }
}

/// Dijkstra within one AS under a concrete scenario; `None` = unreachable.
fn concrete_igp(
    net: &Network,
    scenario: &Scenario,
    members: &[RouterId],
    ip: Ipv4,
) -> Vec<Option<u64>> {
    use std::collections::BinaryHeap;
    let n = net.topo.num_routers();
    let mut dist: Vec<Option<u64>> = vec![None; n];
    let mut heap: BinaryHeap<(Reverse<u64>, RouterId)> = BinaryHeap::new();
    for &r in members {
        if net.topo.router(r).loopback == ip && scenario.router_alive(r) {
            dist[r.0 as usize] = Some(0);
            heap.push((Reverse(0), r));
        }
    }
    // Dijkstra over *incoming* links: dist[v] is distance from v to the
    // destination, so we relax v -> u edges backwards from u.
    while let Some((Reverse(d), u)) = heap.pop() {
        if dist[u.0 as usize] != Some(d) {
            continue;
        }
        // Every IS-IS link v -> u lets v reach the destination through u.
        for &l in net.topo.in_links(u) {
            let v = net.topo.link(l).from;
            if !net.config(v).isis_enabled || net.asn(v) != net.asn(u) {
                continue;
            }
            if !scenario.link_usable(&net.topo, l) {
                continue;
            }
            let nd = d + net.topo.link(l).igp_cost;
            if dist[v.0 as usize].is_none_or(|old| nd < old) {
                dist[v.0 as usize] = Some(nd);
                heap.push((Reverse(nd), v));
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use yu_net::{BgpConfig, Topology, ULinkId};

    fn line_net() -> (Network, [RouterId; 3]) {
        let mut t = Topology::new();
        let cap = Ratio::int(100);
        let a = t.add_router("A", Ipv4::new(10, 0, 0, 1), 100);
        let b = t.add_router("B", Ipv4::new(10, 0, 0, 2), 300);
        let c = t.add_router("C", Ipv4::new(10, 0, 0, 3), 300);
        t.add_link(a, b, 10, cap.clone()); // u0
        t.add_link(b, c, 10, cap.clone()); // u1
        let mut net = Network::new(t);
        for r in [a, b, c] {
            net.config_mut(r).bgp = Some(BgpConfig::default());
        }
        for r in [b, c] {
            net.config_mut(r).isis_enabled = true;
        }
        net.config_mut(c)
            .connected
            .push("100.0.0.0/24".parse().unwrap());
        net.config_mut(c).bgp.as_mut().unwrap().networks = vec!["100.0.0.0/24".parse().unwrap()];
        (net, [a, b, c])
    }

    #[test]
    fn igp_distances() {
        let (net, [_, b, c]) = line_net();
        let routes = ConcreteRoutes::compute(&net, &Scenario::none());
        assert!(routes.converged);
        let cip = net.topo.router(c).loopback;
        assert_eq!(routes.igp_distance(300, cip, b), Some(10));
        assert_eq!(routes.igp_distance(300, cip, c), Some(0));
        let cut = Scenario::links([ULinkId(1)]);
        let routes = ConcreteRoutes::compute(&net, &cut);
        assert_eq!(routes.igp_distance(300, cip, b), None);
    }

    #[test]
    fn end_to_end_delivery() {
        let (net, [a, _, c]) = line_net();
        let routes = ConcreteRoutes::compute(&net, &Scenario::none());
        let flow = Flow::new(
            a,
            Ipv4::new(11, 0, 0, 1),
            "100.0.0.7".parse().unwrap(),
            0,
            Ratio::int(10),
        );
        let res = routes.forward_flow(&flow, 16);
        assert_eq!(res.delivered.get(&c), Some(&Ratio::ONE));
        assert!(res.dropped.is_empty());
        // A->B and B->C each carry the whole flow.
        assert_eq!(res.link_fraction.len(), 2);
        for v in res.link_fraction.values() {
            assert_eq!(*v, Ratio::ONE);
        }
    }

    #[test]
    fn failure_drops_traffic() {
        let (net, [a, b, c]) = line_net();
        let cut = Scenario::links([ULinkId(1)]);
        let routes = ConcreteRoutes::compute(&net, &cut);
        let flow = Flow::new(
            a,
            Ipv4::new(11, 0, 0, 1),
            "100.0.0.7".parse().unwrap(),
            0,
            Ratio::int(10),
        );
        let res = routes.forward_flow(&flow, 16);
        assert!(!res.delivered.contains_key(&c));
        // Either dropped at A (no route once withdrawal propagates) — in a
        // converged control plane A never hears the route, so the drop is
        // at A itself.
        let total_dropped: Ratio = res
            .dropped
            .values()
            .fold(Ratio::ZERO, |acc, v| acc + v.clone());
        assert_eq!(total_dropped, Ratio::ONE);
        let _ = b;
    }

    #[test]
    fn ingress_router_failure_means_no_traffic() {
        let (net, [a, _, _]) = line_net();
        let s = Scenario::routers([a]);
        let routes = ConcreteRoutes::compute(&net, &s);
        let flow = Flow::new(
            a,
            Ipv4::new(11, 0, 0, 1),
            "100.0.0.7".parse().unwrap(),
            0,
            Ratio::int(10),
        );
        let res = routes.forward_flow(&flow, 16);
        assert!(res.link_fraction.is_empty());
        assert!(res.delivered.is_empty());
        assert!(res.dropped.is_empty());
    }
}
