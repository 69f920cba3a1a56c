//! Flow equivalence reductions (paper §5.3 and §6).
//!
//! * **Global flow equivalence**: flows with the same ingress router,
//!   destination, and DSCP are forwarded identically everywhere in every
//!   scenario, so symbolic execution runs once per group with summed
//!   volume.
//! * **Link-local flow equivalence**: even globally different flows often
//!   place the *same* symbolic traffic fraction on a given link. Because
//!   MTBDDs are hash-consed, that equivalence test is pointer equality, so
//!   aggregating a link's load needs one multiplication and one addition
//!   per *equivalence class* instead of per flow:
//!   `τ_l = Σ_i ω_i · (Σ_{f ∈ G_i} V_f)`.

use std::collections::HashMap;
use yu_mtbdd::Ratio;
use yu_net::{Flow, Network, Prefix, PrefixTrie};

/// A group of globally equivalent flows.
#[derive(Debug, Clone)]
pub struct FlowGroup {
    /// A representative flow (forwarding behavior of the whole group).
    pub rep: Flow,
    /// Total volume of the group.
    pub volume: Ratio,
    /// Number of member flows.
    pub members: usize,
}

/// Groups flows by their forwarding key `(ingress, dst, dscp)`.
pub fn global_groups(flows: &[Flow]) -> Vec<FlowGroup> {
    group_by_key(flows, |f| (f.ingress, Some(Prefix::host(f.dst)), f.dscp))
}

/// Groups flows by `(ingress, destination prefix class, dscp)`: since all
/// forwarding decisions (LPM, SR matching) are made against configured
/// prefixes, two destinations covered by exactly the same configured
/// prefixes are forwarded identically — the heavy lifting behind Fig. 12's
/// near-flat scaling in the flow count. The classifier is a trie over
/// every configured prefix; the class key is the longest match (configured
/// prefixes nest, so the longest match determines the whole matching set).
pub fn global_groups_classified(net: &Network, flows: &[Flow]) -> Vec<FlowGroup> {
    let mut trie = PrefixTrie::new();
    for p in net.all_prefixes() {
        trie.insert(p, ());
    }
    group_by_key(flows, |f| {
        let class: Option<Prefix> = trie.longest_match(f.dst).map(|(p, _)| p);
        (f.ingress, class, f.dscp)
    })
}

fn group_by_key(
    flows: &[Flow],
    key: impl Fn(&Flow) -> (yu_net::RouterId, Option<Prefix>, u8),
) -> Vec<FlowGroup> {
    let mut map: HashMap<(yu_net::RouterId, Option<Prefix>, u8), FlowGroup> = HashMap::new();
    for f in flows {
        map.entry(key(f))
            .and_modify(|g| {
                g.volume += &f.volume;
                g.members += 1;
            })
            .or_insert_with(|| FlowGroup {
                rep: f.clone(),
                volume: f.volume.clone(),
                members: 1,
            });
    }
    let mut out: Vec<(_, FlowGroup)> = map.into_iter().collect();
    out.sort_by_key(|(k, _)| *k);
    out.into_iter().map(|(_, g)| g).collect()
}

/// Statistics of one aggregation (feeds Figs. 13 and 14).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AggStats {
    /// Flows (groups) with a non-zero fraction at the point.
    pub flows: usize,
    /// Distinct STF equivalence classes among them.
    pub classes: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use yu_net::{Ipv4, RouterId};

    fn flow(ingress: u32, dst: [u8; 4], dscp: u8, vol: i64) -> Flow {
        Flow::new(
            RouterId(ingress),
            Ipv4::new(11, 0, 0, 1),
            Ipv4::new(dst[0], dst[1], dst[2], dst[3]),
            dscp,
            Ratio::int(vol),
        )
    }

    #[test]
    fn global_grouping_sums_volumes() {
        let flows = vec![
            flow(0, [100, 0, 0, 1], 0, 20),
            flow(0, [100, 0, 0, 1], 0, 30),
            flow(0, [100, 0, 0, 1], 5, 10),
            flow(1, [100, 0, 0, 1], 0, 40),
        ];
        let groups = global_groups(&flows);
        assert_eq!(groups.len(), 3);
        let g = groups
            .iter()
            .find(|g| g.rep.ingress == RouterId(0) && g.rep.dscp == 0)
            .unwrap();
        assert_eq!(g.volume, Ratio::int(50));
        assert_eq!(g.members, 2);
    }
}
