//! Destination forwarding-equivalence classes: the partition of the
//! address space behind global flow equivalence (paper §5.3/§6).
//!
//! [`crate::SymbolicRoutes::fib_rules`] reads a destination through the
//! configured prefixes that contain it and nothing else, and configured
//! prefixes containing one address are nested: they are the destination's
//! longest match `P` among [`Network::all_prefixes`] and the prefixes
//! covering `P`. What those prefixes contribute is `P`'s *forwarding
//! signature* — every component a FIB lookup can turn into a rule:
//!
//! * `(router, len)` of each connected network covering `P`,
//! * `(router, index)` of each static route covering `P` (the index fixes
//!   next hop and tiebreak),
//! * the `(len, ClassId)` chain of the BGP prefixes covering `P` (the
//!   class fixes the candidates at every router, [`classify_prefixes`]),
//! * the address itself when `P` is a loopback host route (delivered at
//!   its owners, an IGP destination everywhere else).
//!
//! Two destinations with equal signatures get FIB rules that differ at
//! most in the *address* of `Rule.prefix`, which neither rule ordering nor
//! ECMP classing reads (both read its length), so they are forwarded
//! identically at every router in every scenario. A class is an interned
//! signature, named by its smallest member prefix.

use crate::bgp::{classify_prefixes, ClassId};
use std::collections::{BTreeSet, HashMap};
use yu_net::{Ipv4, Network, Prefix, PrefixTrie, RouterId};

/// One component of a forwarding signature, filed under the configured
/// prefix it comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Covering {
    /// A connected network of this length at the router.
    Connected(RouterId, u8),
    /// The router's static route with this index.
    Static(RouterId, u32),
    /// A BGP prefix of this length, routed as the class.
    Bgp(u8, ClassId),
    /// A router loopback.
    Loopback(Ipv4),
}

/// The destination classifier of one network configuration.
#[derive(Debug, Clone)]
pub struct DstClasses {
    /// Every configured prefix, mapped to the name of its class.
    name: PrefixTrie<Prefix>,
}

impl DstClasses {
    /// Classifies every prefix of `net`; `bgp_prefixes` is the prefix
    /// classification of the same network ([`classify_prefixes`], kept by
    /// [`crate::BgpState::prefix_class`]).
    pub fn new(net: &Network, bgp_prefixes: &PrefixTrie<ClassId>) -> DstClasses {
        let mut parts: PrefixTrie<Vec<Covering>> = PrefixTrie::new();
        let mut file = |p: Prefix, c: Covering| parts.entry_or_insert_with(p, Vec::new).push(c);
        let mut loopbacks = BTreeSet::new();
        for r in net.topo.routers() {
            let cfg = net.config(r);
            for p in &cfg.connected {
                file(*p, Covering::Connected(r, p.len()));
            }
            for (i, s) in cfg.static_routes.iter().enumerate() {
                file(s.prefix, Covering::Static(r, i as u32));
            }
            loopbacks.insert(net.topo.router(r).loopback);
        }
        for (p, class) in bgp_prefixes.iter() {
            file(p, Covering::Bgp(p.len(), *class));
        }
        for lo in loopbacks {
            file(Prefix::host(lo), Covering::Loopback(lo));
        }
        let mut name = PrefixTrie::new();
        let mut interned: HashMap<Vec<Covering>, Prefix> = HashMap::new();
        // Ascending, so a signature is interned under its smallest prefix.
        for p in net.all_prefixes() {
            let signature = parts
                .matches(p.addr())
                .into_iter()
                .filter(|(q, _)| q.len() <= p.len())
                .flat_map(|(_, cs)| cs.iter().copied())
                .collect();
            name.insert(p, *interned.entry(signature).or_insert(p));
        }
        DstClasses { name }
    }

    /// [`Self::new`] for a caller without a routing state at hand.
    pub fn of(net: &Network) -> DstClasses {
        DstClasses::new(net, &classify_prefixes(net).1)
    }

    /// The class of `dst`, named by its smallest member prefix. `None` is
    /// the one class no configured prefix covers: no router has a rule
    /// for it, so it is dropped at ingress.
    pub fn class_of(&self, dst: Ipv4) -> Option<Prefix> {
        self.name.longest_match(dst).map(|(_, class)| *class)
    }

    /// Every configured prefix with the name of its class, in ascending
    /// prefix order.
    pub fn members(&self) -> impl Iterator<Item = (Prefix, Prefix)> + '_ {
        self.name.iter().map(|(p, class)| (p, *class))
    }
}

/// Two classifiers are equal when they map every address to the same
/// class name.
impl PartialEq for DstClasses {
    fn eq(&self, other: &DstClasses) -> bool {
        self.members().eq(other.members())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yu_mtbdd::Ratio;
    use yu_net::{BgpConfig, StaticNextHop, StaticRoute, Topology};

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    /// A stub originating two /24s the same way, a transit router with a
    /// covering static, and a third /24 only the static covers.
    fn net() -> Network {
        let mut t = Topology::new();
        let a = t.add_router("A", Ipv4::new(10, 0, 0, 1), 100);
        let b = t.add_router("B", Ipv4::new(10, 0, 0, 2), 200);
        t.add_link(a, b, 10, Ratio::int(100));
        let mut net = Network::new(t);
        for r in [a, b] {
            net.config_mut(r).bgp = Some(BgpConfig::default());
        }
        let served = [p("60.0.0.0/24"), p("60.0.1.0/24")];
        net.config_mut(b).connected.extend(served);
        net.config_mut(b).connected.push(p("61.0.0.0/24"));
        net.config_mut(b).bgp.as_mut().unwrap().networks = served.to_vec();
        net.config_mut(a).static_routes.push(StaticRoute {
            prefix: p("60.0.0.0/8"),
            next_hop: StaticNextHop::Null0,
        });
        net
    }

    #[test]
    fn equal_signatures_share_the_smallest_name() {
        let classes = DstClasses::of(&net());
        let first = classes.class_of(Ipv4::new(60, 0, 0, 9));
        assert_eq!(first, Some(p("60.0.0.0/24")));
        assert_eq!(classes.class_of(Ipv4::new(60, 0, 1, 200)), first);
        // Only the static covers it.
        assert_eq!(
            classes.class_of(Ipv4::new(60, 9, 9, 9)),
            Some(p("60.0.0.0/8"))
        );
        // Connected at B like the served prefixes, but not in BGP.
        assert_eq!(
            classes.class_of(Ipv4::new(61, 0, 0, 1)),
            Some(p("61.0.0.0/24"))
        );
        assert_eq!(classes.class_of(Ipv4::new(99, 0, 0, 1)), None);
        assert_eq!(classes.members().count(), 6);
    }

    #[test]
    fn a_more_specific_static_splits_its_class() {
        let old = net();
        let mut new = old.clone();
        new.config_mut(RouterId(0)).static_routes.push(StaticRoute {
            prefix: p("60.0.1.128/25"),
            next_hop: StaticNextHop::Null0,
        });
        let (before, after) = (DstClasses::of(&old), DstClasses::of(&new));
        assert!(before != after);
        let (low, high) = (Ipv4::new(60, 0, 1, 5), Ipv4::new(60, 0, 1, 200));
        assert_eq!(before.class_of(low), before.class_of(high));
        assert_eq!(after.class_of(low), Some(p("60.0.0.0/24")));
        assert_eq!(after.class_of(high), Some(p("60.0.1.128/25")));
        // A cost edit changes no signature.
        let mut costed = old.clone();
        costed.topo.set_ulink_cost(yu_net::ULinkId(0), 99);
        assert!(before == DstClasses::of(&costed));
    }
}
