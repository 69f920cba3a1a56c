//! Flow equivalence reductions (paper §5.3 and §6).
//!
//! * **Global flow equivalence**: flows with the same ingress router and
//!   DSCP whose destinations are in one forwarding-equivalence class
//!   ([`DstClasses`]: every FIB lookup at every router treats them alike)
//!   are forwarded identically in every scenario, so symbolic execution
//!   runs once per group with summed volume. `keyed_groups` is the one
//!   definition of that grouping: `add_flows` and the incremental engine
//!   both call it, with the classifier of the routing state they hold.
//! * **Link-local flow equivalence**: even globally different flows often
//!   place the *same* symbolic traffic fraction on a given link. Because
//!   MTBDDs are hash-consed, that equivalence test is pointer equality, so
//!   aggregating a link's load needs one multiplication and one addition
//!   per *equivalence class* instead of per flow:
//!   `τ_l = Σ_i ω_i · (Σ_{f ∈ G_i} V_f)`.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::Hash;
use yu_mtbdd::Ratio;
use yu_net::{Flow, Ipv4, Network, Prefix, RouterId};
use yu_routing::DstClasses;

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

/// Folds `flows` into one group per key, in first-seen order; a group's
/// representative is its first flow.
fn fold_groups<K: Hash + Eq + Copy>(
    flows: &[Flow],
    mut key: impl FnMut(&Flow) -> K,
) -> Vec<(K, FlowGroup)> {
    let mut index: HashMap<K, usize> = HashMap::new();
    let mut out: Vec<(K, FlowGroup)> = Vec::new();
    for f in flows {
        let k = key(f);
        match index.entry(k) {
            Entry::Occupied(e) => {
                let g = &mut out[*e.get()].1;
                g.volume += &f.volume;
                g.members += 1;
            }
            Entry::Vacant(e) => {
                e.insert(out.len());
                let g = FlowGroup {
                    rep: f.clone(),
                    volume: f.volume.clone(),
                    members: 1,
                };
                out.push((k, g));
            }
        }
    }
    out
}

/// The groups of a keyed grouping, in its order.
pub(crate) fn without_keys<K>(keyed: Vec<(K, FlowGroup)>) -> Vec<FlowGroup> {
    keyed.into_iter().map(|(_, g)| g).collect()
}

/// Groups flows by their forwarding key `(ingress, dst, dscp)`, sorted by
/// it — the per-destination grouping the baselines use.
pub fn global_groups(flows: &[Flow]) -> Vec<FlowGroup> {
    let mut keyed = fold_groups(flows, |f| (f.ingress, f.dst, f.dscp));
    keyed.sort_by_key(|(k, _)| *k);
    without_keys(keyed)
}

/// Groups flows by `(ingress, destination class, dscp)`, sorted by
/// `(ingress, class name, dscp)`: the grouping [`crate::YuVerifier`]
/// executes — the heavy lifting behind Fig. 12's near-flat scaling in the
/// flow count. Classifies `net` itself; the verifier uses the classifier
/// its routing state already holds.
pub fn global_groups_classified(net: &Network, flows: &[Flow]) -> Vec<FlowGroup> {
    without_keys(keyed_groups(&DstClasses::of(net), true, flows))
}

/// What decides the group of a flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) enum GroupKey {
    /// Global equivalence: ingress, the destination's class (`None` = no
    /// configured prefix covers it), DSCP.
    Class(RouterId, Option<Prefix>, u8),
    /// The per-flow ablation: the flow's identity, plus an occurrence
    /// index that keeps duplicates apart.
    Identity(RouterId, Ipv4, Ipv4, u8, usize),
}

/// Derives [`GroupKey`]s, flow by flow in list order (the occurrence
/// index of an identity key counts the equal flows before it).
pub(crate) struct GroupKeys<'a> {
    classes: &'a DstClasses,
    global_equiv: bool,
    seen: HashMap<(RouterId, Ipv4, Ipv4, u8), usize>,
}

impl<'a> GroupKeys<'a> {
    pub(crate) fn new(classes: &'a DstClasses, global_equiv: bool) -> GroupKeys<'a> {
        GroupKeys {
            classes,
            global_equiv,
            seen: HashMap::new(),
        }
    }

    /// The key of `f`.
    pub(crate) fn key(&mut self, f: &Flow) -> GroupKey {
        if self.global_equiv {
            return GroupKey::Class(f.ingress, self.classes.class_of(f.dst), f.dscp);
        }
        let n = self
            .seen
            .entry((f.ingress, f.src, f.dst, f.dscp))
            .or_insert(0);
        *n += 1;
        GroupKey::Identity(f.ingress, f.src, f.dst, f.dscp, *n - 1)
    }
}

/// The flow groups of `flows` with the key of each, in execution order:
/// sorted by key under global equivalence, one group per flow in list
/// order without it.
pub(crate) fn keyed_groups(
    classes: &DstClasses,
    global_equiv: bool,
    flows: &[Flow],
) -> Vec<(GroupKey, FlowGroup)> {
    let mut keys = GroupKeys::new(classes, global_equiv);
    let mut keyed = fold_groups(flows, |f| keys.key(f));
    if global_equiv {
        keyed.sort_by_key(|(k, _)| *k);
    }
    keyed
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
