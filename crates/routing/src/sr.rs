//! Guarded segment routing policies (paper §4.1, Fig. 4).
//!
//! The guard of an SR path is the conjunction of IGP reachability guards
//! along its segment list: the tunnel `[E, F]` configured on router D can
//! be established exactly when D reaches E *and* E reaches F via IS-IS
//! (`reach_{D,E} ∧ reach_{E,F}`). For anycast segments (several routers
//! own the segment address, the Fig. 9 configuration) the per-hop guard is
//! the disjunction over owners of the previous segment.

use crate::igp::IgpState;
use yu_mtbdd::{Mtbdd, NodeRef, Op};
use yu_net::{Ipv4, Network, RouterId};

/// One SR path with its establishment guard.
#[derive(Debug, Clone)]
pub struct GuardedSrPath {
    /// Segment list (first segment first).
    pub segments: Vec<Ipv4>,
    /// Load-balancing weight.
    pub weight: u64,
    /// 1 exactly where the tunnel can be established.
    pub guard: NodeRef,
}

/// One SR policy with guarded paths.
#[derive(Debug, Clone)]
pub struct GuardedSrPolicy {
    /// Next-hop address the policy applies to.
    pub endpoint: Ipv4,
    /// Optional DSCP match.
    pub match_dscp: Option<u8>,
    /// Guarded weighted paths.
    pub paths: Vec<GuardedSrPath>,
}

impl GuardedSrPolicy {
    /// Whether this policy applies to `(nip, dscp)`.
    pub fn matches(&self, nip: Ipv4, dscp: u8) -> bool {
        self.endpoint == nip && self.match_dscp.is_none_or(|d| d == dscp)
    }
}

/// Computes the guarded SR policies of every router.
///
/// Segment addresses must be IGP destinations of the policy router's AS;
/// paths referencing unknown segments get guard 0 (the tunnel can never be
/// established).
pub fn guarded_sr_policies(
    m: &mut Mtbdd,
    net: &Network,
    igp: &mut IgpState,
    k: Option<u32>,
) -> Vec<Vec<GuardedSrPolicy>> {
    let mut out = Vec::with_capacity(net.topo.num_routers());
    for r in net.topo.routers() {
        let asn = net.asn(r);
        let mut pols = Vec::new();
        for pol in &net.config(r).sr_policies {
            let mut paths = Vec::new();
            for path in &pol.paths {
                let guard = path_guard(m, net, igp, asn, r, &path.segments, k);
                paths.push(GuardedSrPath {
                    segments: path.segments.clone(),
                    weight: path.weight,
                    guard,
                });
            }
            pols.push(GuardedSrPolicy {
                endpoint: pol.endpoint,
                match_dscp: pol.match_dscp,
                paths,
            });
        }
        out.push(pols);
    }
    out
}

/// `reach(head, s1) ∧ reach(owners(s1), s2) ∧ …` — per-hop IGP
/// reachability along the segment list, every `∨`/`∧` under budget `k`.
fn path_guard(
    m: &mut Mtbdd,
    net: &Network,
    igp: &mut IgpState,
    asn: yu_net::AsNum,
    head: RouterId,
    segments: &[Ipv4],
    k: Option<u32>,
) -> NodeRef {
    let mut guard = m.one();
    // Reach from the headend to the first segment.
    let mut from: Vec<RouterId> = vec![head];
    for &seg in segments {
        if !igp.knows(asn, seg) {
            return m.zero();
        }
        let mut hop = m.zero();
        for &f in &from {
            let r = igp.reach(m, asn, f, seg);
            hop = m.apply_kreduce(Op::Or, hop, r, k);
        }
        guard = m.apply_kreduce(Op::And, guard, hop, k);
        from = net.igp_owners(asn, seg);
        if from.is_empty() {
            return m.zero();
        }
    }
    guard
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::igp::IgpState;
    use yu_mtbdd::{Ratio, Term};
    use yu_net::{FailureMode, FailureVars, Scenario, SrPath, SrPolicy, Topology};

    /// D - E - F and D - C - F (C also links to E), AS 300 everywhere.
    fn net_with_policy() -> (Network, RouterId) {
        let mut t = Topology::new();
        let cap = Ratio::int(100);
        let c = t.add_router("C", Ipv4::new(10, 0, 0, 3), 300);
        let d = t.add_router("D", Ipv4::new(10, 0, 0, 4), 300);
        let e = t.add_router("E", Ipv4::new(10, 0, 0, 5), 300);
        let f = t.add_router("F", Ipv4::new(10, 0, 0, 6), 300);
        t.add_link(d, e, 10, cap.clone()); // u0
        t.add_link(e, f, 10, cap.clone()); // u1
        t.add_link(d, c, 10, cap.clone()); // u2
        t.add_link(c, f, 10, cap.clone()); // u3
        t.add_link(c, e, 10, cap.clone()); // u4
        let mut net = Network::new(t);
        for r in [c, d, e, f] {
            net.config_mut(r).isis_enabled = true;
        }
        net.config_mut(d).sr_policies.push(SrPolicy {
            endpoint: Ipv4::new(10, 0, 0, 6),
            match_dscp: Some(5),
            paths: vec![
                SrPath {
                    segments: vec![Ipv4::new(10, 0, 0, 5), Ipv4::new(10, 0, 0, 6)],
                    weight: 75,
                },
                SrPath {
                    segments: vec![Ipv4::new(10, 0, 0, 3), Ipv4::new(10, 0, 0, 6)],
                    weight: 25,
                },
            ],
        });
        (net, d)
    }

    #[test]
    fn tunnel_guards_follow_reachability() {
        let (net, d) = net_with_policy();
        let mut m = Mtbdd::new();
        let fv = FailureVars::allocate(&mut m, &net.topo, FailureMode::Links);
        let mut igp = IgpState::compute(&mut m, &net, &fv, None);
        let sr = guarded_sr_policies(&mut m, &net, &mut igp, None);
        let pol = &sr[d.0 as usize][0];
        assert_eq!(pol.paths.len(), 2);
        // Both tunnels up with no failures.
        for p in &pol.paths {
            assert_eq!(m.eval_all_alive(p.guard), Term::ONE);
        }
        // Isolating E entirely (D-E, C-E, E-F) breaks p1 = [E, F] while
        // p2 = [C, F] stays up via D-C and C-F.
        let s = Scenario::links([yu_net::ULinkId(0), yu_net::ULinkId(4), yu_net::ULinkId(1)]);
        assert_eq!(m.eval(pol.paths[0].guard, fv.assignment(&s)), Term::ZERO);
        assert_eq!(m.eval(pol.paths[1].guard, fv.assignment(&s)), Term::ONE);
        // Isolating F (E-F and C-F down) breaks the final reach of both
        // paths even though all segments before F stay reachable.
        let s = Scenario::links([yu_net::ULinkId(1), yu_net::ULinkId(3)]);
        assert_eq!(m.eval(pol.paths[0].guard, fv.assignment(&s)), Term::ZERO);
        assert_eq!(m.eval(pol.paths[1].guard, fv.assignment(&s)), Term::ZERO);
    }

    #[test]
    fn unknown_segment_never_establishes() {
        let (mut net, d) = net_with_policy();
        net.config_mut(d).sr_policies[0].paths[0].segments = vec![Ipv4::new(9, 9, 9, 9)];
        let mut m = Mtbdd::new();
        let fv = FailureVars::allocate(&mut m, &net.topo, FailureMode::Links);
        let mut igp = IgpState::compute(&mut m, &net, &fv, None);
        let sr = guarded_sr_policies(&mut m, &net, &mut igp, None);
        assert_eq!(sr[d.0 as usize][0].paths[0].guard, m.zero());
    }

    #[test]
    fn policy_matching_respects_dscp() {
        let (net, d) = net_with_policy();
        let mut m = Mtbdd::new();
        let fv = FailureVars::allocate(&mut m, &net.topo, FailureMode::Links);
        let mut igp = IgpState::compute(&mut m, &net, &fv, None);
        let sr = guarded_sr_policies(&mut m, &net, &mut igp, None);
        let pol = &sr[d.0 as usize][0];
        assert!(pol.matches(Ipv4::new(10, 0, 0, 6), 5));
        assert!(!pol.matches(Ipv4::new(10, 0, 0, 6), 0));
    }
}
