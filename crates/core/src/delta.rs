//! Incremental re-verification: the change-set engine behind `yu serve`
//! and `yu diff`.
//!
//! An [`IncrementalVerifier`] wraps a [`YuVerifier`] together with the
//! concrete flows and TLP it was built from, keeps its arena, routes,
//! per-group STFs and verdicts alive, and redoes what an update requires.
//! There is one update path: [`IncrementalVerifier::apply`] (`yu serve`)
//! turns a change set into a new state and hands it to the body of
//! [`IncrementalVerifier::set_state`] (`yu diff`). What an update
//! invalidates is derived from the old and new state by
//! [`yu_net::diff_impact`], never declared per change kind, so an edit
//! that changes nothing reuses everything:
//!
//! * **Shape, `k`, failure mode or an ablation switch changed** — the
//!   failure variables are renumbered or the scenario space differs, so
//!   everything is rebuilt from scratch (the only sound option, since
//!   every guard in the arena is indexed by them).
//! * **Network changed** (link costs, configurations) — the routing
//!   state being left is *parked*: its network, its guarded routes
//!   (without the derived FIB and `V^IGP` caches) and each group's STF
//!   keyed by `GroupKey`. If the new network equals a parked one, that
//!   state is swapped back: no route simulation, and every group whose
//!   key it holds takes the parked STF, so only groups new since parking
//!   execute. Otherwise the guarded routing state is recomputed *in the
//!   same arena* and every stored flow group is re-executed toward its
//!   current representative; the warm arena makes this cheap, since
//!   hash-consing dedupes everything that did not change and the memo
//!   caches still hold it. Either way a load point is dirtied iff its
//!   handle changed (in one arena handle equality is semantic equality).
//!   Parked handles are not roots, so every collection drops the parked
//!   states, and at most `PARKED_MAX` are kept, the least recently
//!   left evicted first. When the new configuration classifies
//!   destinations differently ([`yu_routing::DstClasses`] — a cost edit
//!   never does) the flows are then regrouped as below.
//! * **Flows changed** — regroup (`equivalence::keyed_groups`, the
//!   grouping of a scratch run) and key-match against the stored groups,
//!   each keyed by its current representative under the current
//!   classifier: a matched group keeps its STF (symbolic fractions are
//!   volume-independent; destinations of one class forward identically),
//!   only its volume/representative metadata is refreshed. At each point
//!   the changed groups touch, a cached load `τ` moves by the signed
//!   delta `Σ ΔV·ω` (a new group counts `+V`, a vanished one `−V`)
//!   instead of being re-summed; a revert finds its old load by
//!   signature.
//! * **TLP changed** — neither routes nor STFs are touched; the
//!   per-requirement verdict cache simply misses on new or re-bounded
//!   requirements.
//!
//! The rule is conservative by construction: an input that compares
//! equal has equal derived state (same shape and options, same failure
//! variables; same network, same routes; same flows, same groups).
//!
//! **The invariant.** After every update, each stored STF equals the
//! execution of its group's *current* representative under the current
//! routes. A routing edit re-establishes it by re-executing every group
//! toward its current representative, or, swapping a parked state back,
//! by handing a group the STF parked under its key, which is the
//! execution of a flow of the same key under the same routes (the same
//! argument as for a flow edit, next). A flow edit hands a stored STF
//! only to a new group whose key equals the stored group's key under the
//! same classifier: same ingress, same DSCP, and a destination of the
//! same class, whose execution is handle-identical
//! (`tests/dst_classes.rs`). So the STF a new group receives is its own
//! representative's execution. The unit test below checks the invariant
//! after every step of the example edit scripts.
//!
//! Per-point **epochs** track which aggregated loads a change dirtied:
//! a cached verdict is reused iff its load point's epoch is unchanged,
//! so untouched requirements cost a hash lookup. The verdict cache is
//! consulted by the one check stage every caller runs
//! ([`YuVerifier::verify`] without it); this module only decides what to
//! invalidate. Cached loads are not invalidated at all: each is stored
//! under the signature of the classes it was summed from, and the check
//! stage uses it only for a state with that signature.
//!
//! Soundness of all this reuse rests on the arena's canonicity: MTBDDs
//! are hash-consed with a fixed variable order and exact arithmetic, so
//! semantic equality is handle equality, τ-aggregation is independent of
//! association order, and a verdict is a pure function of
//! `(τ, requirement, k)`. The differential harnesses
//! (`tests/serve_differential.rs`, `tests/serve_prop.rs`) enforce
//! bit-identity against from-scratch runs for every change kind.

use crate::api::{VerificationOutcome, YuOptions, YuVerifier};
use crate::check::{classes, signature, CachedLoad, CheckCaches, Signature};
use crate::equivalence::{keyed_groups, GroupKey, GroupKeys};
use crate::exec::FlowStf;
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;
use yu_mtbdd::{NodeRef, Ratio, Term};
use yu_net::{ChangeError, ChangeSet, Flow, Impact, LoadPoint, Network, Tlp};
use yu_routing::SymbolicRoutes;

/// Reuse-vs-recompute statistics of one incremental request.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaStats {
    /// Flow groups this request did not execute: their stored STFs were
    /// kept as they were.
    pub reused_groups: usize,
    /// Flow groups this request executed symbolically — every group on a
    /// routing edit or a rebuild.
    pub recomputed_groups: usize,
    /// Requirements answered from the verdict cache.
    pub reused_reqs: usize,
    /// Requirements re-aggregated and re-checked.
    pub rechecked_reqs: usize,
    /// Load points dirtied by the change.
    pub dirty_points: usize,
    /// Whether the change forced a from-scratch rebuild (a new shape,
    /// `k`, failure mode or ablation switch).
    pub full_rebuild: bool,
    /// Cached loads a flow edit moved by `Σ ΔV·ω` instead of re-summing.
    pub delta_loads: usize,
    /// Loads found by signature in the entry a point's current load had
    /// replaced: a revert, which needs no arithmetic.
    pub reused_loads: usize,
    /// Whether a routing edit swapped back a parked routing state
    /// instead of simulating routes and re-executing every group.
    pub reused_routes: bool,
}

/// Routing states kept for a later routing edit to swap back, twice
/// what the seed-7 bench script cycles through. A session that cycles
/// through more answers its revisits by re-simulation, on a memo table
/// sized for single visits, and then runs slower than with no parking
/// and a 2^21 table (DESIGN.md §16.2).
const PARKED_MAX: usize = 16;

/// A routing state a routing edit left: the network, its guarded routes
/// without their derived caches, and the STF of each group it held,
/// keyed by the group's key under the routes' classifier.
pub(crate) struct ParkedRoutes {
    net: Network,
    routes: SymbolicRoutes,
    stfs: HashMap<GroupKey, FlowStf>,
}

/// A verifier that carries its inputs and re-verifies change-sets
/// incrementally, reusing the arena, caches, and every result the change
/// did not invalidate.
pub struct IncrementalVerifier {
    v: YuVerifier,
    flows: Vec<Flow>,
    tlp: Tlp,
    /// Generation counter; bumped once per incremental update, and
    /// restarted with the caches by a rebuild.
    gen: u64,
    /// Per-requirement verdicts, plus the per-point epochs that invalidate
    /// them.
    caches: CheckCaches,
    last_delta: DeltaStats,
}

impl IncrementalVerifier {
    /// Builds the verifier and executes `flows` exactly as a batch run
    /// does, keeping `tlp` as the property to re-verify after each change.
    /// An update that changes the failure universe starts over here.
    pub fn new(net: Network, flows: Vec<Flow>, tlp: Tlp, opts: YuOptions) -> IncrementalVerifier {
        let mut v = YuVerifier::new(net, opts);
        v.add_flows(&flows);
        let groups = v.groups.len();
        IncrementalVerifier {
            v,
            flows,
            tlp,
            gen: 0,
            caches: CheckCaches::default(),
            last_delta: DeltaStats {
                recomputed_groups: groups,
                full_rebuild: true,
                ..DeltaStats::default()
            },
        }
    }

    /// The wrapped batch verifier (read-only).
    pub fn verifier(&self) -> &YuVerifier {
        &self.v
    }

    /// The wrapped batch verifier (tests and the CLI).
    pub fn verifier_mut(&mut self) -> &mut YuVerifier {
        &mut self.v
    }

    /// The current network.
    pub fn network(&self) -> &Network {
        self.v.network()
    }

    /// The current flows.
    pub fn flows(&self) -> &[Flow] {
        &self.flows
    }

    /// The current TLP.
    pub fn tlp(&self) -> &Tlp {
        &self.tlp
    }

    /// Reuse statistics of the most recent update + verify.
    pub fn delta_stats(&self) -> DeltaStats {
        self.last_delta
    }

    /// Applies a change-set atomically and re-verifies: on error the
    /// state is untouched; on success only what the change invalidated
    /// is recomputed. Returns the new outcome (bit-identical to a
    /// from-scratch run on the updated inputs). Like [`ChangeSet::apply`]
    /// it checks structure only, not that the result lints clean: `yu
    /// serve` lints the state `ChangeSet::apply` builds and commits it
    /// with [`IncrementalVerifier::set_state`].
    pub fn apply(&mut self, cs: &ChangeSet) -> Result<VerificationOutcome, ChangeError> {
        let (net, flows, tlp, impact) = cs.apply(self.v.network(), &self.flows, &self.tlp)?;
        let opts = self.v.options();
        Ok(self.update(net, flows, tlp, opts, impact))
    }

    /// Replaces the inputs and options wholesale (the `yu diff` path),
    /// then re-verifies.
    pub fn set_state(
        &mut self,
        net: Network,
        flows: Vec<Flow>,
        tlp: Tlp,
        opts: YuOptions,
    ) -> VerificationOutcome {
        let impact = yu_net::diff_impact(
            (self.v.network(), &self.flows, &self.tlp),
            (&net, &flows, &tlp),
        );
        self.update(net, flows, tlp, opts, impact)
    }

    /// Recomputes what `impact` (the [`yu_net::diff_impact`] of the
    /// current and the new inputs) and a change of options invalidate,
    /// then re-verifies.
    fn update(
        &mut self,
        net: Network,
        flows: Vec<Flow>,
        tlp: Tlp,
        opts: YuOptions,
        impact: Impact,
    ) -> VerificationOutcome {
        if impact.topology || opts != self.v.options() {
            // A new shape, budget, mode or ablation switch changes the
            // failure universe every guard in the arena is built over.
            *self = IncrementalVerifier::new(net, flows, tlp, opts);
        } else {
            self.v.reset_run_counters();
            self.gen += 1;
            self.last_delta = DeltaStats::default();
            let inv = yu_telemetry::span_detail("delta.invalidate", || impact.to_string());
            let reclassified = impact.routing && self.apply_routing(net);
            if impact.flows || reclassified {
                self.regroup(flows);
            }
            self.tlp = tlp;
            drop(inv);
        }
        // Normalise the reuse counters over the *final* group set: a
        // group counts as recomputed if any stage of this update executed
        // it, and as reused otherwise. A routing edit executes every
        // stored group and the regroup after it every unmatched new one,
        // which together cover the final set; the clamp makes that "all
        // of them". So the two counters always partition the groups,
        // including TLP-only updates (everything reused).
        let total = self.v.groups.len();
        self.last_delta.recomputed_groups = self.last_delta.recomputed_groups.min(total);
        self.last_delta.reused_groups = total - self.last_delta.recomputed_groups;
        self.last_delta.dirty_points = self
            .caches
            .point_epoch
            .values()
            .filter(|&&e| e == self.gen)
            .count();
        let r = yu_telemetry::registry();
        r.incremental_reused_groups_total
            .add(self.last_delta.reused_groups as u64);
        r.incremental_recomputed_groups_total
            .add(self.last_delta.recomputed_groups as u64);
        r.incremental_delta_loads_total
            .add(self.last_delta.delta_loads as u64);
        if self.last_delta.full_rebuild {
            r.incremental_full_rebuilds_total.inc();
        }
        r.incremental_reused_routes_total
            .add(u64::from(self.last_delta.reused_routes));
        self.v.audit_checkpoint("after incremental invalidation");
        self.verify()
    }

    /// Marks one load point dirty: bump its epoch, invalidating cached
    /// verdicts. Its cached loads stay: each answers only the state its
    /// signature describes.
    fn mark_dirty(&mut self, p: LoadPoint) {
        self.caches.point_epoch.insert(p, self.gen);
    }

    /// Routing changed (same topology): swap back the parked state of
    /// `net` if there is one, else recompute the guarded routing state in
    /// the same arena; give every group the execution of its current
    /// representative (parked under its key, or executed now), dirty
    /// every load point whose handle changed, and park the state left.
    /// Returns whether the new state classifies destinations differently,
    /// in which case the stored groups may no longer be the groups of the
    /// flows.
    fn apply_routing(&mut self, net: Network) -> bool {
        let v = &mut self.v;
        let t0 = Instant::now();
        let parked = v.parked.iter().position(|p| p.net == net);
        let (routes, mut stfs) = match parked {
            Some(i) => {
                let p = v.parked.remove(i);
                (p.routes, p.stfs)
            }
            None => {
                let k = v.opts.use_kreduce.then_some(v.opts.k);
                let _stage = yu_telemetry::span("route_sim");
                let routes = SymbolicRoutes::compute(&mut v.m, &net, &v.fv, k);
                (routes, HashMap::new())
            }
        };
        self.last_delta.reused_routes = parked.is_some();
        let reclassified = routes.dst_classes != v.routes.dst_classes;
        let left_net = std::mem::replace(&mut v.net, net);
        let mut left_routes = std::mem::replace(&mut v.routes, routes);
        v.route_time += t0.elapsed();
        let global_equiv = v.opts.use_global_equiv;
        let group_keys = |classes| {
            let mut keys = GroupKeys::new(classes, global_equiv);
            v.groups
                .iter()
                .map(|g| keys.key(&g.rep))
                .collect::<Vec<_>>()
        };
        let (left_keys, keys) = (
            group_keys(&left_routes.dst_classes),
            group_keys(&v.routes.dst_classes),
        );
        let t1 = Instant::now();
        let mut left_stfs = HashMap::with_capacity(v.groups.len());
        let mut dirty: Vec<LoadPoint> = Vec::new();
        for (i, (left_key, key)) in left_keys.into_iter().zip(keys).enumerate() {
            let stf = stfs.remove(&key).unwrap_or_else(|| {
                let _stage = yu_telemetry::span_detail("delta.reexec", || {
                    format!("{:?}->{:?}", v.groups[i].rep.ingress, v.groups[i].rep.dst)
                });
                self.last_delta.recomputed_groups += 1;
                v.execute(&v.groups[i].clone())
            });
            let old = std::mem::replace(&mut v.results[i], stf);
            let new = &v.results[i];
            // Dirty every point where the group's fraction changed
            // (handle inequality is semantic inequality in one arena).
            for &p in old.loads.keys().chain(new.loads.keys()) {
                if old.at(&v.m, p) != new.at(&v.m, p) {
                    dirty.push(p);
                }
            }
            left_stfs.insert(left_key, old);
        }
        v.book_exec_time(t1.elapsed());
        left_routes.drop_derived();
        if v.parked.len() == PARKED_MAX {
            v.parked.remove(0);
        }
        v.parked.push(ParkedRoutes {
            net: left_net,
            routes: left_routes,
            stfs: left_stfs,
        });
        for p in dirty {
            self.mark_dirty(p);
        }
        reclassified
    }

    /// The flows or their classification changed: group `flows` exactly
    /// as a scratch run would and key-match against the stored groups,
    /// each keyed by its current representative under the current
    /// classifier. A new group with the same key keeps the stored STF
    /// (symbolic fractions do not depend on volume, and destinations of
    /// one class forward identically). Unmatched new groups are executed;
    /// points touched by changed volumes, new groups, or vanished groups
    /// are dirtied, and the cached load at each of them is moved by
    /// [`Self::derive_load`].
    fn regroup(&mut self, flows: Vec<Flow>) {
        let v = &self.v;
        let (classes, global_equiv) = (&v.routes.dst_classes, v.opts.use_global_equiv);
        let mut keys = GroupKeys::new(classes, global_equiv);
        let mut old_by_key: HashMap<GroupKey, usize> = HashMap::new();
        for (i, g) in v.groups.iter().enumerate() {
            old_by_key.entry(keys.key(&g.rep)).or_insert(i);
        }
        let new_grouped = keyed_groups(classes, global_equiv, &flows);
        let v = &mut self.v;
        v.flows_in += flows.len();
        // Keys of new groups are distinct, so a stored group is claimed at
        // most once: its results move into the new list, and whatever is
        // left afterwards has vanished.
        let mut stored: Vec<_> = std::mem::take(&mut v.groups)
            .into_iter()
            .zip(std::mem::take(&mut v.results))
            .map(Some)
            .collect();
        // Per point, how the contributions of the changed groups move: a
        // new group comes from volume zero, a vanished one goes to it.
        // Points are derived in sorted order, so the arena sees the same
        // sequence of operations on every run.
        let mut moved: BTreeMap<LoadPoint, Vec<Move>> = BTreeMap::new();
        let mut record = |stf: &FlowStf, from: &Ratio, to: &Ratio| {
            for (&p, &w) in &stf.loads {
                moved
                    .entry(p)
                    .or_default()
                    .push((w, from.clone(), to.clone()));
            }
        };
        let t0 = Instant::now();
        for (key, g) in new_grouped {
            let claimed = old_by_key.get(&key).and_then(|&i| stored[i].take());
            let stf = match claimed {
                Some((old, stf)) => {
                    if old.volume != g.volume {
                        record(&stf, &old.volume, &g.volume);
                    }
                    stf
                }
                None => {
                    let _stage = yu_telemetry::span_detail("delta.reexec", || {
                        format!("{:?}->{:?}", g.rep.ingress, g.rep.dst)
                    });
                    let stf = v.execute(&g);
                    record(&stf, &Ratio::ZERO, &g.volume);
                    self.last_delta.recomputed_groups += 1;
                    stf
                }
            };
            v.groups.push(g);
            v.results.push(stf);
        }
        for (vanished, stf) in stored.iter().flatten() {
            record(stf, &vanished.volume, &Ratio::ZERO);
        }
        v.book_exec_time(t0.elapsed());
        self.flows = flows;
        for (p, moves) in moved {
            self.derive_load(p, moves);
            self.mark_dirty(p);
        }
    }

    /// Moves the cached load at `p` by the changed groups' contributions:
    /// `τ' = βₖ(τ + Σ βₖ(ΔV·ω))` is the node a full re-sum builds (KREDUCE
    /// is canonical and `≈ₖ` a congruence under `+`), and it is stored
    /// under the point's new signature. That needs the cached `τ` to be
    /// the load before the update: its signature, moved by the changes,
    /// must be the new one. A point whose new signature is the
    /// superseded entry's swaps the two instead. A point with no cached
    /// `τ`, a stale one, or at least as many changed groups as classes is
    /// left to the check stage's full re-sum.
    fn derive_load(&mut self, p: LoadPoint, mut moves: Vec<Move>) {
        let v = &mut self.v;
        let Some(cached) = v.load_cache.current(p) else {
            return;
        };
        let zero = v.m.zero();
        moves.retain(|(w, ..)| *w != zero);
        let link_local = v.opts.use_link_local_equiv;
        let (moved, tau) = (moved_signature(&cached.sig, &moves, link_local), cached.tau);
        let (summed, _) = classes(&v.m, &v.results, &v.groups, p, link_local);
        let sig = signature(&v.m, &v.results, p, &summed);
        if v.load_cache.get(p, &sig).is_some()
            || moves.len() >= sig.len()
            || moved.as_ref() != Some(&sig)
        {
            return;
        }
        let _stage = yu_telemetry::span_detail("aggregate", || format!("{p:?} by delta"));
        let k = v.opts.use_kreduce.then_some(v.opts.k);
        let m = &mut v.m;
        // Fractions are finite, so a negative ΔV scales them soundly.
        let mut terms = vec![tau];
        for (w, from, to) in &moves {
            let dv = Term::Num(to.sub_ref(from));
            terms.push(match k {
                Some(k) => m.scale_kreduce(*w, dv, k),
                None => m.scale(*w, dv),
            });
        }
        let tau = match (k, terms.as_slice()) {
            (Some(k), &[tau, delta]) => m.add_kreduce(tau, delta, k),
            (Some(k), _) => m.sum_kreduce(&terms, k),
            (None, _) => m.sum(&terms),
        };
        v.load_cache.insert(p, CachedLoad { sig, tau });
        self.last_delta.delta_loads += 1;
    }

    /// Re-verifies the current TLP, answering unchanged requirements from
    /// the verdict cache and re-aggregating only dirtied load points. The
    /// outcome (violations, per-point statistics) is bit-identical to a
    /// from-scratch [`YuVerifier::verify`] on the same inputs.
    pub fn verify(&mut self) -> VerificationOutcome {
        let outcome = self.v.verify_with(&self.tlp, 1, Some(&mut self.caches));
        self.last_delta.reused_reqs = self.caches.reused_reqs;
        self.last_delta.rechecked_reqs = self.caches.rechecked_reqs;
        let reused = std::mem::take(&mut self.v.load_cache.reused);
        self.last_delta.reused_loads += reused;
        yu_telemetry::registry()
            .incremental_reused_loads_total
            .add(reused as u64);
        outcome
    }
}

/// A changed group's contribution at one point: its fraction there, and
/// its volume before and after the update.
type Move = (NodeRef, Ratio, Ratio);

/// `sig` with every contribution of `moves` moved from its old to its
/// new volume: under link-local equivalence the class of a fraction
/// holds the summed volume of its groups, otherwise each group with a
/// non-zero volume is a class of its own. `None` when `sig` lacks a
/// class a move takes out — it was not summed from the state before the
/// update.
fn moved_signature(sig: &Signature, moves: &[Move], link_local: bool) -> Option<Signature> {
    let mut sig = sig.clone();
    for (w, from, to) in moves {
        if link_local {
            let dv = to.sub_ref(from);
            match sig.iter().position(|(h, _)| h == w) {
                Some(i) => {
                    sig[i].1 = sig[i].1.add_ref(&dv);
                    if sig[i].1.is_zero() {
                        sig.swap_remove(i);
                    }
                }
                None if dv.is_zero() => {}
                None => sig.push((*w, dv)),
            }
        } else {
            if !from.is_zero() {
                let i = sig.iter().position(|(h, v)| h == w && v == from)?;
                sig.swap_remove(i);
            }
            if !to.is_zero() {
                sig.push((*w, to.clone()));
            }
        }
    }
    sig.sort_unstable();
    Some(sig)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use yu_gen::{
        fattree_with_flows, motivating_example, sr_anycast_incident, static_blackhole_incident,
    };
    use yu_net::{BgpConfig, Change, Ipv4, StaticNextHop, StaticRoute, TlpReq, Topology, ULinkId};

    /// Every stored STF is handle-identical to a fresh execution of its
    /// group's current representative on the current routes.
    fn assert_invariant(ctx: &str, inc: &mut IncrementalVerifier) {
        let v = &mut inc.v;
        for i in 0..v.groups.len() {
            let fresh = v.execute(&v.groups[i].clone());
            let stored = &v.results[i];
            assert!(
                stored.loads == fresh.loads && stored.truncated == fresh.truncated,
                "{ctx}: group {i} ({:?}) holds a stale STF",
                v.groups[i].rep
            );
        }
    }

    fn link_cost(net: &Network, u: ULinkId, cost: impl Fn(u64) -> u64) -> Change {
        let lk = net.topo.link(net.topo.directions(u).0);
        Change::SetLinkCost {
            from: net.topo.router(lk.from).name.clone(),
            to: net.topo.router(lk.to).name.clone(),
            index: 0,
            cost: cost(lk.igp_cost),
        }
    }

    /// Cost bumps and restores on the first and last links, a volume
    /// edit, a new flow toward an existing destination, and the removal
    /// of the first flow (so another member represents its group) —
    /// interleaved with sets that change nothing: a cost and a volume set
    /// to their current values, and a flow added and removed again.
    fn edit_script(net: &Network, flows: &[Flow]) -> Vec<ChangeSet> {
        let last = ULinkId((net.topo.num_ulinks() - 1) as u32);
        let last_router = net.topo.router(net.topo.routers().last().expect("routers"));
        let doubled = flows[0].volume.clone() * Ratio::int(2);
        let add_flow = |src: Ipv4| Change::AddFlow {
            ingress: last_router.name.clone(),
            src,
            dst: flows[0].dst,
            dscp: 0,
            volume: Ratio::int(3),
        };
        let set_volume = || Change::SetFlowVolume {
            flow: 0,
            volume: doubled.clone(),
        };
        let steps = vec![
            vec![link_cost(net, ULinkId(0), |c| c)],
            vec![link_cost(net, ULinkId(0), |c| c * 3 + 7)],
            vec![set_volume()],
            vec![set_volume()],
            vec![add_flow(Ipv4::new(11, 99, 0, 1))],
            vec![
                add_flow(Ipv4::new(11, 99, 0, 2)),
                Change::RemoveFlow {
                    flow: flows.len() + 1,
                },
            ],
            vec![link_cost(net, last, |c| c * 5 + 1)],
            vec![Change::RemoveFlow { flow: 0 }],
            vec![link_cost(net, ULinkId(0), |c| c)],
            vec![link_cost(net, last, |c| c)],
        ];
        steps
            .into_iter()
            .map(|changes| ChangeSet { changes })
            .collect()
    }

    fn run_script(name: &str, net: Network, flows: Vec<Flow>, tlp: Tlp, k: u32) {
        let script = edit_script(&net, &flows);
        let opts = YuOptions {
            k,
            ..YuOptions::default()
        };
        let mut inc = IncrementalVerifier::new(net, flows, tlp, opts);
        inc.verify();
        assert_invariant(&format!("{name} base"), &mut inc);
        for (step, cs) in script.iter().enumerate() {
            let ctx = format!("{name} step {step} ({:?})", cs.changes);
            let before = inputs(&inc);
            inc.apply(cs).unwrap_or_else(|e| panic!("{ctx}: {e}"));
            assert_invariant(&ctx, &mut inc);
            if before == inputs(&inc) {
                assert_reused_everything(&ctx, &inc);
            }
        }
    }

    /// A copy of the inputs the verifier holds.
    fn inputs(inc: &IncrementalVerifier) -> (Network, Vec<Flow>, Tlp) {
        (
            inc.network().clone(),
            inc.flows().to_vec(),
            inc.tlp().clone(),
        )
    }

    /// The last update re-executed nothing and dirtied nothing, and every
    /// requirement came from the verdict cache.
    fn assert_reused_everything(ctx: &str, inc: &IncrementalVerifier) {
        let d = inc.delta_stats();
        assert_eq!(
            (d.recomputed_groups, d.dirty_points, d.rechecked_reqs),
            (0, 0, 0),
            "{ctx}: {d:?}"
        );
        assert_eq!(d.reused_groups, inc.verifier().groups.len(), "{ctx}");
        assert_eq!(d.reused_reqs, inc.tlp().reqs.len(), "{ctx}");
        assert!(!d.full_rebuild, "{ctx}");
    }

    #[test]
    fn a_no_op_edit_reuses_everything() {
        let fig1 = motivating_example();
        let (net, flows) = (fig1.net, fig1.flows);
        let mut inc =
            IncrementalVerifier::new(net.clone(), flows.clone(), fig1.p2, YuOptions::default());
        let base = inc.verify();
        let noops = [
            vec![link_cost(&net, ULinkId(0), |c| c)],
            vec![Change::SetFlowVolume {
                flow: 0,
                volume: flows[0].volume.clone(),
            }],
            vec![
                Change::AddFlow {
                    ingress: net.topo.router(flows[0].ingress).name.clone(),
                    src: Ipv4::new(11, 99, 0, 1),
                    dst: flows[0].dst,
                    dscp: 0,
                    volume: Ratio::int(3),
                },
                Change::RemoveFlow { flow: flows.len() },
            ],
        ];
        for changes in noops {
            let ctx = format!("{changes:?}");
            let out = inc.apply(&ChangeSet { changes }).expect("applies");
            assert_reused_everything(&ctx, &inc);
            assert_eq!(out.violations, base.violations, "{ctx}");
        }
    }

    /// The cost of `u` in every parked state, least recently left first.
    fn parked_costs(inc: &IncrementalVerifier, u: ULinkId) -> Vec<u64> {
        inc.v
            .parked
            .iter()
            .map(|p| p.net.topo.link(p.net.topo.directions(u).0).igp_cost)
            .collect()
    }

    #[test]
    fn parked_states_are_evicted_least_recently_left_first() {
        let fig1 = motivating_example();
        let net = fig1.net;
        let u = ULinkId(0);
        let base = net.topo.link(net.topo.directions(u).0).igp_cost;
        let mut inc =
            IncrementalVerifier::new(net.clone(), fig1.flows, fig1.p2, YuOptions::default());
        // Past the cap, so the base state is evicted; back to the base;
        // then states from the middle and the front of the list.
        let mut costs: Vec<u64> = (1..=PARKED_MAX as u64 + 1).map(|i| base + i).collect();
        costs.extend([
            base,
            base + 3,
            base + 2,
            base + PARKED_MAX as u64 + 1,
            base + 3,
        ]);
        // The model: costs of the states left, least recently left first.
        let (mut model, mut current) = (Vec::new(), base);
        for cost in costs {
            let ctx = format!("cost {cost}, parked {model:?}");
            let found = model.iter().position(|&c| c == cost);
            inc.apply(&ChangeSet::single(link_cost(&net, u, |_| cost)))
                .expect(&ctx);
            assert_eq!(inc.delta_stats().reused_routes, found.is_some(), "{ctx}");
            if let Some(i) = found {
                model.remove(i);
            }
            model.push(current);
            if model.len() > PARKED_MAX {
                model.remove(0);
            }
            current = cost;
            assert_eq!(parked_costs(&inc, u), model, "{ctx}");
            assert_invariant(&ctx, &mut inc);
        }
        assert_eq!(model.len(), PARKED_MAX);
    }

    /// M - D - W, one AS each; W originates `10.1.0.0/26` and 30 enter at
    /// M toward each of `10.1.0.5` and `10.1.0.40`. Returns that network,
    /// the same with `10.1.0.32/27 -> Null0` at D (which splits the one
    /// destination class), and the flows.
    fn split_by_a_static() -> (Network, Network, Vec<Flow>) {
        let mut t = Topology::new();
        let m = t.add_router("M", Ipv4::new(10, 200, 0, 1), 65001);
        let d = t.add_router("D", Ipv4::new(10, 200, 0, 2), 65002);
        let w = t.add_router("W", Ipv4::new(10, 200, 0, 3), 65003);
        t.add_link(m, d, 10, Ratio::int(100));
        t.add_link(d, w, 10, Ratio::int(100));
        let mut old = Network::new(t);
        for r in [m, d, w] {
            old.config_mut(r).bgp = Some(BgpConfig::default());
        }
        let service = "10.1.0.0/26".parse().unwrap();
        old.config_mut(w).connected.push(service);
        old.config_mut(w).bgp.as_mut().unwrap().networks = vec![service];
        let mut new = old.clone();
        new.config_mut(d).static_routes.push(StaticRoute {
            prefix: "10.1.0.32/27".parse().unwrap(),
            next_hop: StaticNextHop::Null0,
        });
        let flow = |dst: &str| {
            let src = Ipv4::new(11, 0, 0, 1);
            Flow::new(m, src, dst.parse().unwrap(), 0, Ratio::int(30))
        };
        (old, new, vec![flow("10.1.0.5"), flow("10.1.0.40")])
    }

    #[test]
    fn stored_results_are_the_execution_of_the_current_representative() {
        let fig1 = motivating_example();
        run_script("fig1", fig1.net, fig1.flows, fig1.p2, 1);
        let fig9 = sr_anycast_incident();
        run_script("fig9", fig9.net, fig9.flows, fig9.tlp, 1);
        let fig10 = static_blackhole_incident();
        run_script("fig10", fig10.net, fig10.flows, fig10.tlp, 1);
        let (ft, ft_flows) = fattree_with_flows(4, 16);
        let ft_tlp = Tlp::no_overload(&ft.net.topo, Ratio::new(95, 100));
        run_script("ft4", ft.net, ft_flows, ft_tlp, 2);

        // The first flow leaves, so the second represents the one group
        // and holds the first one's STF; then a static splits the class
        // under the remaining flow, and removing it with the first flow
        // back merges the two again.
        let (old, new, flows) = split_by_a_static();
        let w = old.topo.routers().last().unwrap();
        let tlp = Tlp::new().with(TlpReq::at_least(LoadPoint::Delivered(w), Ratio::int(45)));
        let opts = YuOptions {
            k: 0,
            ..YuOptions::default()
        };
        let mut inc = IncrementalVerifier::new(old.clone(), flows.clone(), tlp.clone(), opts);
        inc.apply(&ChangeSet::single(Change::RemoveFlow { flow: 0 }))
            .expect("flow removal applies");
        assert_invariant("split: first flow removed", &mut inc);
        let remaining = inc.flows().to_vec();
        inc.set_state(new.clone(), remaining, tlp.clone(), opts);
        assert_invariant("split: static over the remaining flow", &mut inc);
        inc.set_state(new, flows.clone(), tlp.clone(), opts);
        assert_eq!(inc.verifier().groups.len(), 2);
        assert_invariant("split: first flow back, class split", &mut inc);
        inc.set_state(old, flows, tlp, opts);
        assert_eq!(inc.verifier().groups.len(), 1);
        assert_invariant("split: static removed, classes merge", &mut inc);
    }

    /// `βₖ(Σ V·ω)` over `(ω, V)` pairs, built afresh in `v`'s arena the
    /// way the check stage aggregates (exact without KREDUCE).
    fn fresh_sum(v: &mut YuVerifier, items: &[(NodeRef, Ratio)]) -> NodeRef {
        let k = v.opts.use_kreduce.then_some(v.opts.k);
        let scaled: Vec<NodeRef> = items
            .iter()
            .map(|(w, vol)| {
                let vol = Term::Num(vol.clone());
                match k {
                    Some(k) => v.m.scale_kreduce(*w, vol, k),
                    None => v.m.scale(*w, vol),
                }
            })
            .collect();
        match k {
            Some(k) => v.m.sum_kreduce(&scaled, k),
            None => v.m.sum(&scaled),
        }
    }

    /// Every cached load, current or superseded, is handle-identical to a
    /// fresh sum of the signature it is cached under; where that is the
    /// point's signature in the current state, to a fresh aggregate of
    /// the point's classes.
    fn assert_cached_loads_are_fresh(ctx: &str, inc: &mut IncrementalVerifier) {
        let v = &mut inc.v;
        let cached: Vec<(LoadPoint, Signature, NodeRef)> = v
            .load_cache
            .loads()
            .map(|(p, load)| (p, load.sig.clone(), load.tau))
            .collect();
        for (p, sig, tau) in cached {
            assert_eq!(tau, fresh_sum(v, &sig), "{ctx}: load at {p:?}");
            let link_local = v.opts.use_link_local_equiv;
            let (summed, _) = classes(&v.m, &v.results, &v.groups, p, link_local);
            if sig == signature(&v.m, &v.results, p, &summed) {
                let state: Vec<_> = summed
                    .iter()
                    .map(|(rep, vol)| (v.results[*rep].at(&v.m, p), vol.clone()))
                    .collect();
                assert_eq!(tau, fresh_sum(v, &state), "{ctx}: state load at {p:?}");
            }
        }
    }

    /// Materialises the load at every point a group touches, so that the
    /// next flow edit finds a cached `τ` wherever it moves one.
    fn cache_every_load(inc: &mut IncrementalVerifier) {
        let v = &mut inc.v;
        let points: BTreeSet<LoadPoint> = v
            .results
            .iter()
            .flat_map(|r| r.loads.keys().copied())
            .collect();
        for p in points {
            v.load_mtbdd(p);
        }
    }

    /// What a flow edit of the load script must do to the cached loads.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Expect {
        /// Move at least one by a delta.
        Delta,
        /// Find at least one in a superseded entry.
        Reused,
        /// Move none: every point takes the full re-sum.
        Fallback,
    }

    /// Flow edits on ft4 with every load cached before each: a volume up,
    /// down, back up (a revert), to zero and back (a revert), a flow that
    /// joins a group and one that forms a new group, the removal of a
    /// member, every volume doubled (more changed groups than classes at
    /// every point), and the removal of a group's last flow.
    fn load_script(opts: YuOptions) {
        let (ft, flows) = fattree_with_flows(4, 16);
        let tlp = Tlp::no_overload(&ft.net.topo, Ratio::new(95, 100));
        let mut inc = IncrementalVerifier::new(ft.net.clone(), flows.clone(), tlp, opts);
        // Flows join `a`'s group; `b` is alone in another.
        let mut keys = GroupKeys::new(&inc.v.routes.dst_classes, true);
        let keyed: Vec<GroupKey> = flows.iter().map(|f| keys.key(f)).collect();
        let a = 0;
        let b = (0..flows.len())
            .find(|&i| {
                keyed[i] != keyed[a] && keyed.iter().filter(|&&k| k == keyed[i]).count() == 1
            })
            .expect("a lone group");
        // An ingress that sends nothing to `a`'s destination class yet.
        let stranger = ft
            .net
            .topo
            .routers()
            .find(|&r| {
                let probe = Flow::new(r, flows[a].src, flows[a].dst, 0, Ratio::ONE);
                !keyed.contains(&keys.key(&probe))
            })
            .expect("a new ingress");
        let name = |r| ft.net.topo.router(r).name.clone();
        let (va, vb) = (flows[a].volume.clone(), flows[b].volume.clone());
        let volume = |flow, volume| Change::SetFlowVolume { flow, volume };
        let add = |ingress, src| Change::AddFlow {
            ingress,
            src,
            dst: flows[a].dst,
            dscp: 0,
            volume: Ratio::int(3),
        };
        let n = flows.len();
        let script = [
            (vec![volume(a, va.clone() * Ratio::int(3))], Expect::Delta),
            (vec![volume(a, va.clone() / Ratio::int(2))], Expect::Delta),
            (vec![volume(a, va.clone() * Ratio::int(3))], Expect::Reused),
            (vec![volume(b, Ratio::ZERO)], Expect::Delta),
            (vec![volume(b, vb)], Expect::Reused),
            (
                vec![add(name(flows[a].ingress), Ipv4::new(11, 99, 0, 1))],
                Expect::Delta,
            ),
            (
                vec![add(name(stranger), Ipv4::new(11, 99, 0, 2))],
                Expect::Delta,
            ),
            (vec![Change::RemoveFlow { flow: n }], Expect::Delta),
            (
                (0..=n)
                    .map(|i| {
                        volume(
                            i,
                            flows
                                .get(i)
                                .map_or(Ratio::int(6), |f| f.volume.clone() * Ratio::int(2)),
                        )
                    })
                    .collect(),
                Expect::Fallback,
            ),
            (vec![Change::RemoveFlow { flow: b }], Expect::Delta),
        ];
        for (step, (changes, expect)) in script.into_iter().enumerate() {
            let ctx = format!("kreduce={} step {step} ({changes:?})", opts.use_kreduce);
            cache_every_load(&mut inc);
            inc.apply(&ChangeSet { changes })
                .unwrap_or_else(|e| panic!("{ctx}: {e}"));
            let d = inc.delta_stats();
            match expect {
                Expect::Delta => assert!(d.delta_loads > 0, "{ctx}: {d:?}"),
                Expect::Reused => assert!(d.reused_loads > 0, "{ctx}: {d:?}"),
                Expect::Fallback => assert_eq!(d.delta_loads, 0, "{ctx}: {d:?}"),
            }
            assert_cached_loads_are_fresh(&ctx, &mut inc);
            cache_every_load(&mut inc);
            assert_cached_loads_are_fresh(&format!("{ctx}, all cached"), &mut inc);
        }
    }

    #[test]
    fn flow_edits_move_cached_loads_to_the_fresh_sum() {
        for use_kreduce in [true, false] {
            load_script(YuOptions {
                k: 1,
                use_kreduce,
                ..YuOptions::default()
            });
        }
    }
}
