//! The complete network: topology plus per-router configuration, with the
//! derived views (BGP sessions, IGP areas, delivery points) that both the
//! symbolic and the concrete simulators consume.

use crate::addr::{Ipv4, Prefix};
use crate::config::{BgpConfig, RouterConfig, SrPolicy};
use crate::topology::{AsNum, LinkId, RouterId, Topology, ULinkId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A BGP session between two routers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BgpSession {
    /// External session riding a physical link (the directed link is the
    /// direction *towards the receiver*; routes learned over it resolve to
    /// that link's reverse as the direct next hop).
    Ebgp {
        /// Undirected link carrying the session.
        ulink: ULinkId,
    },
    /// Internal session between loopbacks; up when the IGP connects them.
    Ibgp,
}

/// A fully specified network.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Network {
    /// The graph.
    pub topo: Topology,
    /// Per-router configuration, indexed by `RouterId`.
    pub configs: Vec<RouterConfig>,
}

impl Network {
    /// Wraps a topology with default (empty) configurations.
    pub fn new(topo: Topology) -> Network {
        let configs = vec![RouterConfig::default(); topo.num_routers()];
        Network { topo, configs }
    }

    /// The configuration of router `r`.
    pub fn config(&self, r: RouterId) -> &RouterConfig {
        &self.configs[r.0 as usize]
    }

    /// Mutable configuration of router `r`.
    pub fn config_mut(&mut self, r: RouterId) -> &mut RouterConfig {
        &mut self.configs[r.0 as usize]
    }

    /// The BGP configuration of `r`, if BGP runs there.
    pub fn bgp(&self, r: RouterId) -> Option<&BgpConfig> {
        self.config(r).bgp.as_ref()
    }

    /// The AS of router `r`.
    pub fn asn(&self, r: RouterId) -> AsNum {
        self.topo.router(r).asn
    }

    /// Derived BGP sessions of router `r`: `(peer, session)` pairs.
    ///
    /// * eBGP: one session per physical link to a BGP router in another AS
    ///   (parallel links create parallel sessions, like real per-link eBGP).
    /// * iBGP: full mesh with every other BGP router of the same AS.
    pub fn bgp_sessions(&self, r: RouterId) -> Vec<(RouterId, BgpSession)> {
        if self.bgp(r).is_none() {
            return Vec::new();
        }
        let mut out = Vec::new();
        for &l in self.topo.out_links(r) {
            let peer = self.topo.link(l).to;
            if self.bgp(peer).is_some() && self.asn(peer) != self.asn(r) {
                out.push((
                    peer,
                    BgpSession::Ebgp {
                        ulink: self.topo.link(l).ulink,
                    },
                ));
            }
        }
        for peer in self.topo.routers() {
            if peer != r && self.asn(peer) == self.asn(r) && self.bgp(peer).is_some() {
                out.push((peer, BgpSession::Ibgp));
            }
        }
        out
    }

    /// Directed links on which an IS-IS adjacency forms: both endpoints run
    /// IS-IS and are in the same AS.
    pub fn isis_links(&self, r: RouterId) -> Vec<LinkId> {
        if !self.config(r).isis_enabled {
            return Vec::new();
        }
        self.topo
            .out_links(r)
            .iter()
            .copied()
            .filter(|&l| {
                let peer = self.topo.link(l).to;
                self.config(peer).isis_enabled && self.asn(peer) == self.asn(r)
            })
            .collect()
    }

    /// All destination addresses the IGP of `r`'s AS must resolve: the
    /// loopbacks of IS-IS routers in that AS (deduplicated — anycast
    /// loopbacks appear once).
    pub fn igp_destinations(&self, asn: AsNum) -> Vec<Ipv4> {
        let mut set = std::collections::BTreeSet::new();
        for r in self.topo.routers() {
            if self.asn(r) == asn && self.config(r).isis_enabled {
                set.insert(self.topo.router(r).loopback);
            }
        }
        set.into_iter().collect()
    }

    /// All ASes present, with their routers.
    pub fn ases(&self) -> BTreeMap<AsNum, Vec<RouterId>> {
        let mut m: BTreeMap<AsNum, Vec<RouterId>> = BTreeMap::new();
        for r in self.topo.routers() {
            m.entry(self.asn(r)).or_default().push(r);
        }
        m
    }

    /// Routers owning loopback `ip` *within* AS `asn` and running IS-IS
    /// (the owners an IGP lookup can terminate at).
    pub fn igp_owners(&self, asn: AsNum, ip: Ipv4) -> Vec<RouterId> {
        self.topo
            .loopback_owners(ip)
            .into_iter()
            .filter(|&r| self.asn(r) == asn && self.config(r).isis_enabled)
            .collect()
    }

    /// All prefixes appearing anywhere in the configuration (connected,
    /// static, BGP networks) plus loopback host routes — the universe used
    /// for prefix classification.
    pub fn all_prefixes(&self) -> Vec<Prefix> {
        let mut set = std::collections::BTreeSet::new();
        for r in self.topo.routers() {
            let c = self.config(r);
            set.extend(c.connected.iter().copied());
            set.extend(c.static_routes.iter().map(|s| s.prefix));
            if let Some(b) = &c.bgp {
                set.extend(b.networks.iter().copied());
            }
            set.insert(Prefix::host(self.topo.router(r).loopback));
        }
        set.into_iter().collect()
    }

    /// The SR policy of `r` matching `(nip, dscp)`, if any.
    pub fn sr_policy(&self, r: RouterId, nip: Ipv4, dscp: u8) -> Option<&SrPolicy> {
        self.config(r).sr_policy_for(nip, dscp)
    }

    /// Basic well-formedness checks; returns human-readable problems.
    pub fn validate(&self) -> Vec<String> {
        let mut problems = Vec::new();
        if self.configs.len() != self.topo.num_routers() {
            problems.push(format!(
                "config count {} != router count {}",
                self.configs.len(),
                self.topo.num_routers()
            ));
        }
        for r in self.topo.routers() {
            let cfg = self.config(r);
            for pol in &cfg.sr_policies {
                if pol.paths.is_empty() {
                    problems.push(format!(
                        "router {} has an SR policy for {} with no paths",
                        self.topo.router(r).name,
                        pol.endpoint
                    ));
                }
                for p in &pol.paths {
                    if p.segments.is_empty() {
                        problems.push(format!(
                            "router {} has an SR path with no segments",
                            self.topo.router(r).name
                        ));
                    }
                }
            }
            if let Some(b) = &cfg.bgp {
                for n in &b.networks {
                    let owned = cfg.connected.iter().any(|c| c == n)
                        || cfg.static_routes.iter().any(|s| s.prefix == *n);
                    if !owned {
                        problems.push(format!(
                            "router {} originates {} into BGP without a connected or static route",
                            self.topo.router(r).name,
                            n
                        ));
                    }
                }
            }
        }
        problems
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yu_mtbdd::Ratio;

    fn two_as_net() -> (Network, RouterId, RouterId, RouterId) {
        let mut t = Topology::new();
        let a = t.add_router("A", Ipv4::new(10, 0, 0, 1), 100);
        let c = t.add_router("C", Ipv4::new(10, 0, 0, 3), 300);
        let d = t.add_router("D", Ipv4::new(10, 0, 0, 4), 300);
        t.add_link(a, c, 10, Ratio::int(100));
        t.add_link(c, d, 10, Ratio::int(100));
        let mut n = Network::new(t);
        for r in [a, c, d] {
            n.config_mut(r).bgp = Some(BgpConfig::default());
            n.config_mut(r).isis_enabled = true;
        }
        (n, a, c, d)
    }

    #[test]
    fn session_derivation() {
        let (n, a, c, d) = two_as_net();
        let sa = n.bgp_sessions(a);
        assert_eq!(sa.len(), 1);
        assert!(matches!(sa[0], (p, BgpSession::Ebgp { .. }) if p == c));
        let sc = n.bgp_sessions(c);
        // eBGP to A, iBGP to D.
        assert_eq!(sc.len(), 2);
        assert!(sc
            .iter()
            .any(|(p, s)| *p == a && matches!(s, BgpSession::Ebgp { .. })));
        assert!(sc
            .iter()
            .any(|(p, s)| *p == d && matches!(s, BgpSession::Ibgp)));
    }

    #[test]
    fn isis_links_stay_within_as() {
        let (n, a, c, _) = two_as_net();
        // A-C crosses the AS boundary: no adjacency.
        assert!(n.isis_links(a).is_empty());
        let cl = n.isis_links(c);
        assert_eq!(cl.len(), 1);
        assert_eq!(n.topo.link(cl[0]).to.0, 2);
    }

    #[test]
    fn igp_destinations_dedup_anycast() {
        let mut t = Topology::new();
        let b1 = t.add_router("B1", Ipv4::new(1, 1, 1, 1), 300);
        let b2 = t.add_router("B2", Ipv4::new(1, 1, 1, 1), 300);
        t.add_link(b1, b2, 10, Ratio::int(100));
        let mut n = Network::new(t);
        n.config_mut(b1).isis_enabled = true;
        n.config_mut(b2).isis_enabled = true;
        assert_eq!(n.igp_destinations(300), vec![Ipv4::new(1, 1, 1, 1)]);
        assert_eq!(n.igp_owners(300, Ipv4::new(1, 1, 1, 1)), vec![b1, b2]);
    }

    #[test]
    fn validation_flags_unowned_networks() {
        let (mut n, a, _, _) = two_as_net();
        n.config_mut(a).bgp.as_mut().unwrap().networks = vec!["100.0.0.0/24".parse().unwrap()];
        let problems = n.validate();
        assert_eq!(problems.len(), 1);
        assert!(problems[0].contains("originates"));
        n.config_mut(a)
            .connected
            .push("100.0.0.0/24".parse().unwrap());
        assert!(n.validate().is_empty());
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use yu_mtbdd::Ratio;

    #[test]
    fn parallel_links_create_parallel_ebgp_sessions() {
        let mut t = Topology::new();
        let a = t.add_router("A", Ipv4::new(1, 0, 0, 1), 100);
        let b = t.add_router("B", Ipv4::new(1, 0, 0, 2), 200);
        t.add_link(a, b, 1, Ratio::int(100));
        t.add_link(a, b, 1, Ratio::int(100));
        let mut n = Network::new(t);
        n.config_mut(a).bgp = Some(BgpConfig::default());
        n.config_mut(b).bgp = Some(BgpConfig::default());
        let sessions = n.bgp_sessions(a);
        assert_eq!(sessions.len(), 2, "one eBGP session per physical link");
        let ulinks: std::collections::BTreeSet<_> = sessions
            .iter()
            .map(|(_, s)| match s {
                BgpSession::Ebgp { ulink } => *ulink,
                BgpSession::Ibgp => panic!("unexpected iBGP"),
            })
            .collect();
        assert_eq!(ulinks.len(), 2);
    }

    #[test]
    fn all_prefixes_collects_every_source() {
        let mut t = Topology::new();
        let a = t.add_router("A", Ipv4::new(1, 0, 0, 1), 100);
        let mut n = Network::new(t.clone());
        n.config_mut(a)
            .connected
            .push("20.0.0.0/24".parse().unwrap());
        n.config_mut(a)
            .static_routes
            .push(crate::config::StaticRoute {
                prefix: "30.0.0.0/8".parse().unwrap(),
                next_hop: crate::config::StaticNextHop::Null0,
            });
        n.config_mut(a).bgp = Some(BgpConfig {
            networks: vec!["20.0.0.0/24".parse().unwrap()],
            ..Default::default()
        });
        let ps = n.all_prefixes();
        assert!(ps.contains(&"20.0.0.0/24".parse().unwrap()));
        assert!(ps.contains(&"30.0.0.0/8".parse().unwrap()));
        assert!(
            ps.contains(&Prefix::host(Ipv4::new(1, 0, 0, 1))),
            "loopback host route"
        );
        assert_eq!(ps.len(), 3);
    }
}
