//! Declarative change sets over a verification state.
//!
//! A [`ChangeSet`] is an ordered list of edits to the triple the verifier
//! consumes — network, flows, and traffic load property. Changes name
//! routers by *name* (not id) so they survive serialization and can be sent
//! to a running `yu serve` daemon; link and flow edits address elements by
//! the same stable order the spec file lists them in.
//!
//! [`ChangeSet::apply`] is atomic: it works on clones and either returns the
//! fully-updated state or an error, never a partially-mutated one. It
//! checks structure only — every name and index must resolve, a router
//! name must be new, a link must join two routers — and nothing about
//! whether the result is a spec `yu verify` would accept: that is
//! `yu_analysis::lint_spec`'s one rule, which `yu serve` runs on the state
//! this returns before committing it. What the edit invalidates — the
//! [`Impact`] telling the incremental verifier which derived artifacts
//! (failure variables, symbolic routes, flow-group MTBDDs, requirement
//! verdicts) to recompute — is not declared per change kind: it is
//! [`diff_impact`] of the state before and after the whole set, the same
//! rule `yu diff` applies to two spec files.

use crate::addr::Ipv4;
use crate::flow::Flow;
use crate::network::Network;
use crate::tlp::{LoadPoint, Tlp, TlpReq};
use crate::topology::{AsNum, LinkId, RouterId, Topology, ULinkId};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use yu_mtbdd::Ratio;

/// A serializable reference to a [`LoadPoint`], by router names.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum PointRef {
    /// The directed link `from -> to`; `index` selects among parallel links
    /// with the same orientation (0 = first such link in spec order).
    Link {
        /// Source router name.
        from: String,
        /// Destination router name.
        to: String,
        /// Which parallel `from -> to` link (default 0).
        #[serde(default)]
        index: usize,
    },
    /// Traffic delivered locally at a router.
    Delivered {
        /// Router name.
        router: String,
    },
    /// Traffic dropped at a router.
    Dropped {
        /// Router name.
        router: String,
    },
}

impl PointRef {
    /// Resolves the reference against a topology.
    pub fn resolve(&self, topo: &Topology) -> Result<LoadPoint, ChangeError> {
        match self {
            PointRef::Link { from, to, index } => {
                Ok(LoadPoint::Link(resolve_link(topo, from, to, *index)?))
            }
            PointRef::Delivered { router } => {
                Ok(LoadPoint::Delivered(resolve_router(topo, router)?))
            }
            PointRef::Dropped { router } => Ok(LoadPoint::Dropped(resolve_router(topo, router)?)),
        }
    }

    /// The name-based reference of a concrete point.
    pub fn of(point: LoadPoint, topo: &Topology) -> PointRef {
        match point {
            LoadPoint::Link(l) => {
                let lk = topo.link(l);
                let from = topo.router(lk.from).name.clone();
                let to = topo.router(lk.to).name.clone();
                let index = topo
                    .links()
                    .filter(|&c| topo.link(c).from == lk.from && topo.link(c).to == lk.to)
                    .position(|c| c == l)
                    .unwrap_or(0);
                PointRef::Link { from, to, index }
            }
            LoadPoint::Delivered(r) => PointRef::Delivered {
                router: topo.router(r).name.clone(),
            },
            LoadPoint::Dropped(r) => PointRef::Dropped {
                router: topo.router(r).name.clone(),
            },
        }
    }
}

/// One edit to the verification state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Change {
    /// Sets the IGP cost of both directions of the undirected link picked
    /// by its `from -> to` orientation (`index` among parallel links).
    SetLinkCost {
        /// Source router name (of the orientation used to pick the link).
        from: String,
        /// Destination router name.
        to: String,
        /// Which parallel `from -> to` link (default 0).
        #[serde(default)]
        index: usize,
        /// New IGP cost for both directions.
        cost: u64,
    },
    /// Adds a router (no links, default config).
    AddRouter {
        /// Unique router name.
        name: String,
        /// Loopback address.
        loopback: Ipv4,
        /// AS number.
        asn: AsNum,
    },
    /// Removes a router, its incident links, flows entering at it, and
    /// requirements measured on any removed element.
    RemoveRouter {
        /// Router name.
        router: String,
    },
    /// Adds a symmetric undirected link.
    AddLink {
        /// One endpoint name.
        a: String,
        /// Other endpoint name.
        b: String,
        /// IGP cost (both directions).
        cost: u64,
        /// Capacity in Gbps.
        capacity: Ratio,
    },
    /// Removes the undirected link picked by its `from -> to` orientation;
    /// requirements measured on either direction are dropped.
    RemoveLink {
        /// Source router name of the picking orientation.
        from: String,
        /// Destination router name.
        to: String,
        /// Which parallel `from -> to` link (default 0).
        #[serde(default)]
        index: usize,
    },
    /// Replaces the volume of the `flow`-th flow (spec order).
    SetFlowVolume {
        /// Flow index in the spec's flow list.
        flow: usize,
        /// New volume in Gbps.
        volume: Ratio,
    },
    /// Appends a flow.
    AddFlow {
        /// Ingress router name.
        ingress: String,
        /// Source address.
        src: Ipv4,
        /// Destination address.
        dst: Ipv4,
        /// DSCP value (default 0).
        #[serde(default)]
        dscp: u8,
        /// Volume in Gbps.
        volume: Ratio,
    },
    /// Removes the `flow`-th flow (later flows shift down).
    RemoveFlow {
        /// Flow index in the spec's flow list.
        flow: usize,
    },
    /// Appends a requirement.
    AddReq {
        /// Where the load is measured.
        point: PointRef,
        /// Lower bound, if any.
        #[serde(default)]
        min: Option<Ratio>,
        /// Upper bound, if any.
        #[serde(default)]
        max: Option<Ratio>,
    },
    /// Removes the `req`-th requirement (later requirements shift down).
    RemoveReq {
        /// Requirement index in the TLP's list.
        req: usize,
    },
    /// Replaces the bounds of the `req`-th requirement.
    SetReqBounds {
        /// Requirement index in the TLP's list.
        req: usize,
        /// New lower bound, if any.
        #[serde(default)]
        min: Option<Ratio>,
        /// New upper bound, if any.
        #[serde(default)]
        max: Option<Ratio>,
    },
}

/// An ordered list of changes applied as one atomic transaction.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ChangeSet {
    /// The edits, applied in order.
    pub changes: Vec<Change>,
}

/// Why a change set could not be applied: a name or index that does not
/// resolve, or an edit that cannot be made at all. The original state is
/// untouched. A state that applies but that `yu lint` rejects (a negative
/// volume, say) is not a `ChangeError`; its caller lints it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChangeError {
    /// A change names a router the topology does not have.
    UnknownRouter(String),
    /// A change names a directed link the topology does not have.
    UnknownLink {
        /// Source router name.
        from: String,
        /// Destination router name.
        to: String,
        /// Parallel-link index requested.
        index: usize,
    },
    /// An index into the flow or requirement list is out of range.
    BadIndex {
        /// What the index addresses ("flow" or "req").
        what: &'static str,
        /// The index requested.
        index: usize,
        /// Current list length.
        len: usize,
    },
    /// `AddRouter` with a name that already exists.
    DuplicateRouter(String),
    /// `AddLink` with both endpoints the same router.
    SelfLoop(String),
}

impl fmt::Display for ChangeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChangeError::UnknownRouter(name) => write!(f, "unknown router `{name}`"),
            ChangeError::UnknownLink { from, to, index } => {
                write!(f, "no directed link `{from}->{to}` with index {index}")
            }
            ChangeError::BadIndex { what, index, len } => {
                write!(f, "{what} index {index} out of range (len {len})")
            }
            ChangeError::DuplicateRouter(name) => write!(f, "router `{name}` already exists"),
            ChangeError::SelfLoop(name) => write!(f, "self-loop link on `{name}`"),
        }
    }
}

impl std::error::Error for ChangeError {}

/// Which derived verifier artifacts an edit invalidates. Only
/// [`diff_impact`] makes one, from the old and the new state; `topology`
/// subsumes the rest (failure variables are renumbered, so every symbolic
/// artifact must be rebuilt).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Impact {
    /// Failure-variable universe changed (router/link set edited): full
    /// rebuild of routes, flow groups, and verdicts.
    pub topology: bool,
    /// The network changed (costs, configs, or the shape): recompute
    /// symbolic routes and re-execute the flow groups.
    pub routing: bool,
    /// The flow list changed: regroup, re-execute only new/changed groups.
    pub flows: bool,
    /// The property changed: recheck requirements (loads are reusable).
    pub tlp: bool,
}

impl fmt::Display for Impact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts = Vec::new();
        if self.topology {
            parts.push("topology");
        }
        if self.routing {
            parts.push("routing");
        }
        if self.flows {
            parts.push("flows");
        }
        if self.tlp {
            parts.push("tlp");
        }
        if parts.is_empty() {
            write!(f, "none")
        } else {
            write!(f, "{}", parts.join("+"))
        }
    }
}

fn resolve_router(topo: &Topology, name: &str) -> Result<RouterId, ChangeError> {
    topo.router_by_name(name)
        .ok_or_else(|| ChangeError::UnknownRouter(name.to_string()))
}

fn resolve_link(
    topo: &Topology,
    from: &str,
    to: &str,
    index: usize,
) -> Result<LinkId, ChangeError> {
    let (f, t) = (resolve_router(topo, from)?, resolve_router(topo, to)?);
    topo.links()
        .filter(|&l| topo.link(l).from == f && topo.link(l).to == t)
        .nth(index)
        .ok_or_else(|| ChangeError::UnknownLink {
            from: from.to_string(),
            to: to.to_string(),
            index,
        })
}

impl ChangeSet {
    /// A change set holding one change.
    pub fn single(change: Change) -> ChangeSet {
        ChangeSet {
            changes: vec![change],
        }
    }

    /// Applies every change in order to clones of the inputs, returning the
    /// new state and what it invalidates: [`diff_impact`] of the old and
    /// new state, so a set that changes nothing invalidates nothing. On
    /// error the inputs are untouched (the transaction never partially
    /// commits).
    pub fn apply(
        &self,
        net: &Network,
        flows: &[Flow],
        tlp: &Tlp,
    ) -> Result<(Network, Vec<Flow>, Tlp, Impact), ChangeError> {
        let mut new_net = net.clone();
        let mut new_flows = flows.to_vec();
        let mut new_tlp = tlp.clone();
        for change in &self.changes {
            apply_one(change, &mut new_net, &mut new_flows, &mut new_tlp)?;
        }
        let impact = diff_impact((net, flows, tlp), (&new_net, &new_flows, &new_tlp));
        Ok((new_net, new_flows, new_tlp, impact))
    }
}

fn apply_one(
    change: &Change,
    net: &mut Network,
    flows: &mut Vec<Flow>,
    tlp: &mut Tlp,
) -> Result<(), ChangeError> {
    match change {
        Change::SetLinkCost {
            from,
            to,
            index,
            cost,
        } => {
            let l = resolve_link(&net.topo, from, to, *index)?;
            let u = net.topo.link(l).ulink;
            net.topo.set_ulink_cost(u, *cost);
        }
        Change::AddRouter {
            name,
            loopback,
            asn,
        } => {
            if net.topo.router_by_name(name).is_some() {
                return Err(ChangeError::DuplicateRouter(name.clone()));
            }
            net.topo.add_router(name.clone(), *loopback, *asn);
            net.configs.push(Default::default());
        }
        Change::RemoveRouter { router } => {
            let r = resolve_router(&net.topo, router)?;
            rebuild_without(net, flows, tlp, Some(r), None);
        }
        Change::AddLink {
            a,
            b,
            cost,
            capacity,
        } => {
            let (ra, rb) = (resolve_router(&net.topo, a)?, resolve_router(&net.topo, b)?);
            if ra == rb {
                return Err(ChangeError::SelfLoop(a.clone()));
            }
            net.topo.add_link(ra, rb, *cost, capacity.clone());
        }
        Change::RemoveLink { from, to, index } => {
            let l = resolve_link(&net.topo, from, to, *index)?;
            let u = net.topo.link(l).ulink;
            rebuild_without(net, flows, tlp, None, Some(u));
        }
        Change::SetFlowVolume { flow, volume } => {
            let len = flows.len();
            let f = flows.get_mut(*flow).ok_or(ChangeError::BadIndex {
                what: "flow",
                index: *flow,
                len,
            })?;
            f.volume = volume.clone();
        }
        Change::AddFlow {
            ingress,
            src,
            dst,
            dscp,
            volume,
        } => {
            let r = resolve_router(&net.topo, ingress)?;
            flows.push(Flow::new(r, *src, *dst, *dscp, volume.clone()));
        }
        Change::RemoveFlow { flow } => {
            if *flow >= flows.len() {
                return Err(ChangeError::BadIndex {
                    what: "flow",
                    index: *flow,
                    len: flows.len(),
                });
            }
            flows.remove(*flow);
        }
        Change::AddReq { point, min, max } => {
            let point = point.resolve(&net.topo)?;
            tlp.reqs.push(TlpReq {
                point,
                min: min.clone(),
                max: max.clone(),
            });
        }
        Change::RemoveReq { req } => {
            if *req >= tlp.reqs.len() {
                return Err(ChangeError::BadIndex {
                    what: "req",
                    index: *req,
                    len: tlp.reqs.len(),
                });
            }
            tlp.reqs.remove(*req);
        }
        Change::SetReqBounds { req, min, max } => {
            let len = tlp.reqs.len();
            let r = tlp.reqs.get_mut(*req).ok_or(ChangeError::BadIndex {
                what: "req",
                index: *req,
                len,
            })?;
            r.min = min.clone();
            r.max = max.clone();
        }
    }
    Ok(())
}

/// Rebuilds the network without `drop_router` (and its incident links) and
/// without `drop_ulink`, remapping every id-bearing artifact: configs
/// (peer references), flows (ingress; flows entering at a removed router are
/// dropped), and requirements (points on removed elements are dropped).
fn rebuild_without(
    net: &mut Network,
    flows: &mut Vec<Flow>,
    tlp: &mut Tlp,
    drop_router: Option<RouterId>,
    drop_ulink: Option<ULinkId>,
) {
    let old = &net.topo;
    let mut topo = Topology::new();
    let mut router_map: HashMap<RouterId, RouterId> = HashMap::new();
    for r in old.routers() {
        if Some(r) == drop_router {
            continue;
        }
        let rt = old.router(r);
        router_map.insert(r, topo.add_router(rt.name.clone(), rt.loopback, rt.asn));
    }
    let mut link_map: HashMap<LinkId, LinkId> = HashMap::new();
    for u in old.ulinks() {
        if Some(u) == drop_ulink {
            continue;
        }
        let (fwd, rev) = old.directions(u);
        let lk = old.link(fwd);
        let (Some(&a), Some(&b)) = (router_map.get(&lk.from), router_map.get(&lk.to)) else {
            continue; // incident to the dropped router
        };
        let nu = topo.add_link(a, b, lk.igp_cost, lk.capacity.clone());
        let (nfwd, nrev) = topo.directions(nu);
        // add_link is symmetric; preserve an asymmetric reverse cost if the
        // old topology had one.
        topo.set_link_cost(nrev, old.link(rev).igp_cost);
        link_map.insert(fwd, nfwd);
        link_map.insert(rev, nrev);
    }
    let mut configs = Vec::with_capacity(topo.num_routers());
    for r in old.routers() {
        if Some(r) == drop_router {
            continue;
        }
        let mut cfg = net.configs[r.0 as usize].clone();
        if let Some(bgp) = cfg.bgp.as_mut() {
            bgp.peer_local_pref = bgp
                .peer_local_pref
                .iter()
                .filter_map(|&(p, lp)| router_map.get(&p).map(|&np| (np, lp)))
                .collect();
            // A filter scoped to a removed peer is vacuous; drop it.
            bgp.deny_exports.retain_mut(|d| match d.peer {
                None => true,
                Some(p) => match router_map.get(&p) {
                    Some(&np) => {
                        d.peer = Some(np);
                        true
                    }
                    None => false,
                },
            });
        }
        configs.push(cfg);
    }
    flows.retain_mut(|f| match router_map.get(&f.ingress) {
        Some(&nr) => {
            f.ingress = nr;
            true
        }
        None => false,
    });
    tlp.reqs.retain_mut(|req| {
        let mapped = match req.point {
            LoadPoint::Link(l) => link_map.get(&l).copied().map(LoadPoint::Link),
            LoadPoint::Delivered(r) => router_map.get(&r).copied().map(LoadPoint::Delivered),
            LoadPoint::Dropped(r) => router_map.get(&r).copied().map(LoadPoint::Dropped),
        };
        match mapped {
            Some(p) => {
                req.point = p;
                true
            }
            None => false,
        }
    });
    net.topo = topo;
    net.configs = configs;
}

/// What a change from `old` to `new` invalidates — the one rule both
/// `yu serve` and `yu diff` use. Conservative by construction: an input
/// that compares equal yields equal derived state. The same shape gives
/// the same failure variables, the same network the same routes, the same
/// flows the same groups, and the same property the same requirements.
pub fn diff_impact(old: (&Network, &[Flow], &Tlp), new: (&Network, &[Flow], &Tlp)) -> Impact {
    let (onet, oflows, otlp) = old;
    let (nnet, nflows, ntlp) = new;
    let (ot, nt) = (&onet.topo, &nnet.topo);
    let same_shape = ot.num_routers() == nt.num_routers()
        && ot.num_links() == nt.num_links()
        && ot.num_ulinks() == nt.num_ulinks()
        && ot.routers().all(|r| ot.router(r) == nt.router(r))
        && ot.links().all(|l| {
            let (a, b) = (ot.link(l), nt.link(l));
            a.from == b.from && a.to == b.to && a.ulink == b.ulink && a.capacity == b.capacity
        });
    Impact {
        topology: !same_shape,
        routing: onet != nnet,
        flows: oflows != nflows,
        tlp: otlp != ntlp,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BgpConfig;

    fn diamond() -> (Network, Vec<Flow>, Tlp) {
        let mut t = Topology::new();
        let a = t.add_router("A", Ipv4::new(10, 0, 0, 1), 100);
        let b = t.add_router("B", Ipv4::new(10, 0, 0, 2), 100);
        let c = t.add_router("C", Ipv4::new(10, 0, 0, 3), 100);
        let d = t.add_router("D", Ipv4::new(10, 0, 0, 4), 100);
        t.add_link(a, b, 10, Ratio::int(100));
        t.add_link(b, d, 10, Ratio::int(100));
        t.add_link(a, c, 10, Ratio::int(100));
        t.add_link(c, d, 10, Ratio::int(100));
        let mut net = Network::new(t);
        for r in [a, b, c, d] {
            net.config_mut(r).isis_enabled = true;
        }
        net.config_mut(d)
            .connected
            .push("100.0.0.0/24".parse().unwrap());
        let flows = vec![Flow::new(
            a,
            Ipv4::new(11, 0, 0, 1),
            Ipv4::new(100, 0, 0, 1),
            0,
            Ratio::int(20),
        )];
        let tlp = Tlp::new()
            .with(TlpReq::at_most(LoadPoint::Link(LinkId(0)), Ratio::int(95)))
            .with(TlpReq::at_least(LoadPoint::Delivered(d), Ratio::int(1)));
        (net, flows, tlp)
    }

    #[test]
    fn cost_edit_is_routing_only() {
        let (net, flows, tlp) = diamond();
        let cs = ChangeSet::single(Change::SetLinkCost {
            from: "A".into(),
            to: "B".into(),
            index: 0,
            cost: 99,
        });
        let (nnet, nflows, ntlp, imp) = cs.apply(&net, &flows, &tlp).unwrap();
        assert_eq!(
            imp,
            Impact {
                routing: true,
                ..Impact::default()
            }
        );
        assert_eq!(nnet.topo.link(LinkId(0)).igp_cost, 99);
        assert_eq!(nnet.topo.link(LinkId(1)).igp_cost, 99, "both directions");
        assert_eq!(nflows, flows);
        assert_eq!(ntlp, tlp);
        assert_eq!(
            diff_impact((&net, &flows, &tlp), (&nnet, &nflows, &ntlp)),
            imp
        );
    }

    #[test]
    fn remove_router_remaps_everything() {
        let (mut net, flows, tlp) = diamond();
        let b = net.topo.router_by_name("B").unwrap();
        let d = net.topo.router_by_name("D").unwrap();
        net.config_mut(d).bgp = Some(BgpConfig {
            peer_local_pref: vec![(b, 200), (RouterId(0), 150)],
            ..Default::default()
        });
        let cs = ChangeSet::single(Change::RemoveRouter { router: "B".into() });
        let (nnet, nflows, ntlp, imp) = cs.apply(&net, &flows, &tlp).unwrap();
        assert!(imp.topology);
        assert_eq!(nnet.topo.num_routers(), 3);
        assert_eq!(nnet.topo.num_ulinks(), 2, "A-B and B-D dropped");
        assert_eq!(nnet.configs.len(), 3);
        // The A->B link requirement is gone; the Delivered(D) one is remapped.
        assert_eq!(ntlp.reqs.len(), 1);
        let nd = nnet.topo.router_by_name("D").unwrap();
        assert_eq!(ntlp.reqs[0].point, LoadPoint::Delivered(nd));
        // Flow ingress A remapped (A keeps id 0 here) and retained.
        assert_eq!(nflows.len(), 1);
        assert_eq!(nnet.topo.router(nflows[0].ingress).name, "A");
        // Config peer references: B's entry dropped, A's remapped.
        let bgp = nnet.config(nd).bgp.as_ref().unwrap();
        assert_eq!(bgp.peer_local_pref, vec![(RouterId(0), 150)]);
        assert!(nnet.validate().is_empty());
    }

    #[test]
    fn remove_ingress_router_drops_flow() {
        let (net, flows, tlp) = diamond();
        let cs = ChangeSet::single(Change::RemoveRouter { router: "A".into() });
        let (_, nflows, _, _) = cs.apply(&net, &flows, &tlp).unwrap();
        assert!(nflows.is_empty());
    }

    #[test]
    fn errors_leave_state_untouched() {
        let (net, flows, tlp) = diamond();
        let cs = ChangeSet {
            changes: vec![
                Change::SetLinkCost {
                    from: "A".into(),
                    to: "B".into(),
                    index: 0,
                    cost: 77,
                },
                Change::RemoveRouter {
                    router: "NOPE".into(),
                },
            ],
        };
        let err = cs.apply(&net, &flows, &tlp).unwrap_err();
        assert_eq!(err, ChangeError::UnknownRouter("NOPE".into()));
        // The borrow-based API makes partial commits impossible; the
        // original cost is still visible.
        assert_eq!(net.topo.link(LinkId(0)).igp_cost, 10);

        // Only structure is checked: a state `yu lint` rejects (here a
        // negative volume, YU015) applies, and its caller lints it.
        let negative = ChangeSet::single(Change::SetFlowVolume {
            flow: 0,
            volume: Ratio::int(-5),
        });
        let (_, nflows, _, imp) = negative.apply(&net, &flows, &tlp).unwrap();
        assert_eq!(nflows[0].volume, Ratio::int(-5));
        assert!(imp.flows);
        assert_eq!(flows[0].volume, Ratio::int(20));
    }

    #[test]
    fn bad_indices_are_reported() {
        let (net, flows, tlp) = diamond();
        for change in [
            Change::RemoveFlow { flow: 5 },
            Change::SetFlowVolume {
                flow: 1,
                volume: Ratio::int(1),
            },
            Change::RemoveReq { req: 9 },
            Change::SetReqBounds {
                req: 2,
                min: None,
                max: None,
            },
        ] {
            let err = ChangeSet::single(change)
                .apply(&net, &flows, &tlp)
                .unwrap_err();
            assert!(matches!(err, ChangeError::BadIndex { .. }), "{err}");
        }
        let err = ChangeSet::single(Change::SetLinkCost {
            from: "A".into(),
            to: "B".into(),
            index: 1,
            cost: 1,
        })
        .apply(&net, &flows, &tlp)
        .unwrap_err();
        assert!(matches!(err, ChangeError::UnknownLink { index: 1, .. }));
    }

    #[test]
    fn point_ref_round_trip() {
        let (net, _, _) = diamond();
        for point in [
            LoadPoint::Link(LinkId(3)),
            LoadPoint::Delivered(RouterId(3)),
            LoadPoint::Dropped(RouterId(1)),
        ] {
            let r = PointRef::of(point, &net.topo);
            assert_eq!(r.resolve(&net.topo).unwrap(), point);
        }
    }

    #[test]
    fn change_set_json_round_trip() {
        let cs = ChangeSet {
            changes: vec![
                Change::SetLinkCost {
                    from: "A".into(),
                    to: "B".into(),
                    index: 0,
                    cost: 42,
                },
                Change::AddReq {
                    point: PointRef::Delivered { router: "D".into() },
                    min: Some(Ratio::new(1, 2)),
                    max: None,
                },
                Change::RemoveFlow { flow: 3 },
            ],
        };
        let json = serde_json::to_string(&cs).unwrap();
        let back: ChangeSet = serde_json::from_str(&json).unwrap();
        assert_eq!(back, cs);
    }

    #[test]
    fn diff_impact_classifies() {
        let (net, flows, tlp) = diamond();
        assert_eq!(
            diff_impact((&net, &flows, &tlp), (&net, &flows, &tlp)),
            Impact::default()
        );
        let mut costier = net.clone();
        costier.topo.set_ulink_cost(ULinkId(0), 5);
        let imp = diff_impact((&net, &flows, &tlp), (&costier, &flows, &tlp));
        assert!(imp.routing && !imp.topology);
        let mut bigger = net.clone();
        let e = bigger.topo.add_router("E", Ipv4::new(10, 0, 0, 5), 100);
        bigger.configs.push(Default::default());
        let _ = e;
        let imp = diff_impact((&net, &flows, &tlp), (&bigger, &flows, &tlp));
        assert!(imp.topology);
        let mut heavier = flows.clone();
        heavier[0].volume = Ratio::int(30);
        let imp = diff_impact((&net, &flows, &tlp), (&net, &heavier, &tlp));
        assert_eq!(
            imp,
            Impact {
                flows: true,
                ..Impact::default()
            }
        );
    }

    #[test]
    fn a_set_that_changes_nothing_invalidates_nothing() {
        let (net, flows, tlp) = diamond();
        let cs = ChangeSet {
            changes: vec![
                Change::SetLinkCost {
                    from: "A".into(),
                    to: "B".into(),
                    index: 0,
                    cost: 10,
                },
                Change::SetFlowVolume {
                    flow: 0,
                    volume: Ratio::int(20),
                },
                Change::AddFlow {
                    ingress: "B".into(),
                    src: Ipv4::new(11, 0, 0, 9),
                    dst: Ipv4::new(100, 0, 0, 9),
                    dscp: 0,
                    volume: Ratio::int(4),
                },
                Change::RemoveFlow { flow: 1 },
                Change::SetReqBounds {
                    req: 0,
                    min: None,
                    max: Some(Ratio::int(95)),
                },
            ],
        };
        let (nnet, nflows, ntlp, imp) = cs.apply(&net, &flows, &tlp).unwrap();
        assert_eq!(imp, Impact::default());
        assert_eq!((nnet, nflows, ntlp), (net, flows, tlp));
    }
}
