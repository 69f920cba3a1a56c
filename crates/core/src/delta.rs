//! Incremental re-verification: the change-set engine behind `yu serve`
//! and `yu diff`.
//!
//! An [`IncrementalVerifier`] wraps a [`YuVerifier`] together with the
//! concrete flows and TLP it was built from, and re-executes **only what a
//! change invalidated**:
//!
//! * **Topology changes** (router/link add/remove) renumber the failure
//!   variables, so everything is rebuilt from scratch — the only sound
//!   option, since every guard in the arena is indexed by them.
//! * **Routing changes** (link costs, configurations) recompute the
//!   guarded routing state *in the same arena* (hash-consing dedupes
//!   everything that did not change), then replay every flow group's
//!   recorded [`crate::RouteTrace`] against the new state; only groups
//!   with a mismatched answer are re-executed. A reused group's symbolic
//!   traffic functions are bit-identical by construction
//!   (§ [`crate::trace`]). A trace vouches for the one destination it was
//!   recorded toward, so when the new configuration classifies
//!   destinations differently ([`yu_routing::DstClasses`] — a cost edit
//!   never does) the flows are regrouped as below.
//! * **Flow changes** regroup (`equivalence::keyed_groups`, the
//!   grouping of a scratch run) and key-match against the stored groups,
//!   each keyed by the flow *it was executed for* under the current
//!   classifier: a matched group keeps its STF (symbolic fractions are
//!   volume-independent; destinations of one class forward identically),
//!   only its volume/representative metadata is refreshed.
//! * **TLP changes** touch neither routes nor STFs; the per-requirement
//!   verdict cache simply misses on new or re-bounded requirements.
//!
//! Per-point **epochs** track which aggregated loads a change dirtied:
//! a cached verdict is reused iff its load point's epoch is unchanged,
//! so untouched requirements cost a hash lookup. The verdict cache is
//! consulted by the one check stage every caller runs
//! ([`YuVerifier::verify`] without it); this module only decides what to
//! invalidate.
//!
//! Soundness of all this reuse rests on the arena's canonicity: MTBDDs
//! are hash-consed with a fixed variable order and exact arithmetic, so
//! semantic equality is handle equality, τ-aggregation is independent of
//! association order, and a verdict is a pure function of
//! `(τ, requirement, k)`. The differential harnesses
//! (`tests/serve_differential.rs`, `tests/serve_prop.rs`) enforce
//! bit-identity against from-scratch runs for every change kind.

use crate::api::{VerificationOutcome, YuOptions, YuVerifier};
use crate::check::CheckCaches;
use crate::equivalence::{keyed_groups, GroupKey, GroupKeys};
use std::collections::HashMap;
use std::time::Instant;
use yu_net::{ChangeError, ChangeSet, Flow, Impact, LoadPoint, Network, Tlp};
use yu_routing::SymbolicRoutes;

/// Reuse-vs-recompute statistics of one incremental request.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaStats {
    /// Flow groups whose symbolic traffic functions were reused.
    pub reused_groups: usize,
    /// Flow groups (re-)executed symbolically.
    pub recomputed_groups: usize,
    /// Requirements answered from the verdict cache.
    pub reused_reqs: usize,
    /// Requirements re-aggregated and re-checked.
    pub rechecked_reqs: usize,
    /// Load points dirtied by the change.
    pub dirty_points: usize,
    /// Whether the change forced a from-scratch rebuild (topology edits).
    pub full_rebuild: bool,
}

/// A verifier that carries its inputs and re-verifies change-sets
/// incrementally, reusing the arena, caches, and every result the change
/// did not invalidate.
pub struct IncrementalVerifier {
    v: YuVerifier,
    flows: Vec<Flow>,
    tlp: Tlp,
    /// Monotone generation counter; bumped once per applied update.
    gen: u64,
    /// Per-requirement verdicts, plus the per-point epochs that invalidate
    /// them.
    caches: CheckCaches,
    last_delta: DeltaStats,
}

impl IncrementalVerifier {
    /// Builds the verifier and executes `flows` with route-dependency
    /// recording on (required for trace replay), keeping `tlp` as the
    /// property to re-verify after each change.
    pub fn new(
        net: Network,
        flows: Vec<Flow>,
        tlp: Tlp,
        mut opts: YuOptions,
    ) -> IncrementalVerifier {
        opts.record_route_deps = true;
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
    /// from-scratch run on the updated inputs).
    pub fn apply(&mut self, cs: &ChangeSet) -> Result<VerificationOutcome, ChangeError> {
        let (net, flows, tlp, impact) = cs.apply(self.v.network(), &self.flows, &self.tlp)?;
        self.v.reset_run_counters();
        self.update(net, flows, tlp, impact);
        Ok(self.verify())
    }

    /// Replaces the inputs wholesale (the `yu diff` path), inferring the
    /// impact from a field-by-field comparison, then re-verifies.
    pub fn set_state(&mut self, net: Network, flows: Vec<Flow>, tlp: Tlp) -> VerificationOutcome {
        let impact = yu_net::diff_impact(
            (self.v.network(), &self.flows, &self.tlp),
            (&net, &flows, &tlp),
        );
        self.v.reset_run_counters();
        self.update(net, flows, tlp, impact);
        self.verify()
    }

    /// Invalidates and recomputes state for already-validated new inputs.
    fn update(&mut self, net: Network, flows: Vec<Flow>, tlp: Tlp, impact: Impact) {
        self.gen += 1;
        self.last_delta = DeltaStats::default();
        if impact.topology {
            self.rebuild(net, flows, tlp);
        } else {
            let inv = yu_telemetry::span_detail("delta.invalidate", || impact.to_string());
            // The network can only differ when routing (or topology) is
            // impacted.
            let reclassified = impact.routing && self.apply_routing(net);
            if impact.flows || reclassified {
                self.regroup(flows);
            } else {
                self.flows = flows;
            }
            self.tlp = tlp;
            drop(inv);
        }
        // Normalise the reuse counters over the *final* group set: a
        // group counts as recomputed if any stage of this update
        // re-executed it (the flow regroup executes only groups the
        // routing replay never saw), and as reused otherwise — so the two
        // counters always partition the groups, including TLP-only
        // updates (everything reused) and full rebuilds (nothing).
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
        if self.last_delta.full_rebuild {
            r.incremental_full_rebuilds_total.inc();
        }
        self.v.audit_checkpoint("after incremental invalidation");
    }

    /// Topology edits renumber the failure variables, invalidating every
    /// guard: rebuild from scratch and drop all caches.
    fn rebuild(&mut self, net: Network, flows: Vec<Flow>, tlp: Tlp) {
        let opts = self.v.options();
        let mut v = YuVerifier::new(net, opts);
        v.add_flows(&flows);
        self.last_delta.recomputed_groups = v.groups.len();
        self.last_delta.full_rebuild = true;
        self.v = v;
        self.flows = flows;
        self.tlp = tlp;
        self.caches = CheckCaches::default();
    }

    /// Marks one load point dirty: bump its epoch (invalidating cached
    /// verdicts) and evict its cached aggregate.
    fn mark_dirty(&mut self, p: LoadPoint) {
        self.caches.point_epoch.insert(p, self.gen);
        self.v.load_cache.remove(&p);
    }

    /// Routing changed (same topology): recompute the guarded routing
    /// state in the same arena, then replay each group's route trace and
    /// re-execute only the groups whose answers changed. Returns whether
    /// the new state classifies destinations differently, in which case
    /// the stored groups may no longer be the groups of the flows.
    fn apply_routing(&mut self, net: Network) -> bool {
        let v = &mut self.v;
        v.net = net;
        let k = v.opts.use_kreduce.then_some(v.opts.k);
        let t0 = Instant::now();
        let routes = {
            let _stage = yu_telemetry::span("route_sim");
            SymbolicRoutes::compute(&mut v.m, &v.net, &v.fv, k)
        };
        let reclassified = routes.dst_classes != v.routes.dst_classes;
        v.routes = routes;
        v.route_time += t0.elapsed();
        let t1 = Instant::now();
        let mut dirty: Vec<LoadPoint> = Vec::new();
        for i in 0..v.groups.len() {
            let valid = match &v.traces[i] {
                Some(t) => t.still_valid(&mut v.m, &v.net, &v.fv, &mut v.routes),
                None => false,
            };
            if valid {
                self.last_delta.reused_groups += 1;
                continue;
            }
            let _stage = yu_telemetry::span_detail("delta.reexec", || {
                format!("{:?}->{:?}", v.groups[i].rep.ingress, v.groups[i].rep.dst)
            });
            let (stf, trace) = v.execute(&v.groups[i].clone());
            // Dirty every point where the group's fraction changed
            // (handle inequality is semantic inequality in one arena).
            for (&p, &n) in &v.results[i].loads {
                if stf.at(&v.m, p) != n {
                    dirty.push(p);
                }
            }
            for (&p, &n) in &stf.loads {
                if v.results[i].at(&v.m, p) != n {
                    dirty.push(p);
                }
            }
            v.results[i] = stf;
            v.traces[i] = trace;
            self.last_delta.recomputed_groups += 1;
        }
        v.book_exec_time(t1.elapsed());
        for p in dirty {
            self.mark_dirty(p);
        }
        reclassified
    }

    /// The flows or their classification changed: group `flows` exactly
    /// as a scratch run would and key-match against the stored groups. A
    /// stored group answers for the flow it was executed for — its
    /// representative, toward the destination its trace recorded — so it
    /// is keyed by that flow under the current classifier, and a new group
    /// with the same key keeps its STF (symbolic fractions do not depend
    /// on volume, and destinations of one class forward identically).
    /// Unmatched new groups are executed; points touched by changed
    /// volumes, new groups, or vanished groups are dirtied.
    fn regroup(&mut self, flows: Vec<Flow>) {
        let v = &self.v;
        let (classes, global_equiv) = (&v.routes.dst_classes, v.opts.use_global_equiv);
        let mut keys = GroupKeys::new(classes, global_equiv);
        let mut old_by_key: HashMap<GroupKey, usize> = HashMap::new();
        for (i, (g, trace)) in v.groups.iter().zip(&v.traces).enumerate() {
            let dst = trace.as_ref().and_then(|t| t.dst()).unwrap_or(g.rep.dst);
            old_by_key.entry(keys.key_toward(&g.rep, dst)).or_insert(i);
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
            .zip(std::mem::take(&mut v.traces))
            .map(Some)
            .collect();
        let mut dirty: Vec<LoadPoint> = Vec::new();
        let t0 = Instant::now();
        for (key, g) in new_grouped {
            let claimed = old_by_key.get(&key).and_then(|&i| stored[i].take());
            let (stf, trace) = match claimed {
                Some(((old, stf), trace)) => {
                    if old.volume != g.volume {
                        dirty.extend(stf.loads.keys().copied());
                    }
                    self.last_delta.reused_groups += 1;
                    (stf, trace)
                }
                None => {
                    let _stage = yu_telemetry::span_detail("delta.reexec", || {
                        format!("{:?}->{:?}", g.rep.ingress, g.rep.dst)
                    });
                    let (stf, trace) = v.execute(&g);
                    dirty.extend(stf.loads.keys().copied());
                    self.last_delta.recomputed_groups += 1;
                    (stf, trace)
                }
            };
            v.groups.push(g);
            v.results.push(stf);
            v.traces.push(trace);
        }
        for ((_, vanished), _) in stored.iter().flatten() {
            dirty.extend(vanished.loads.keys().copied());
        }
        v.book_exec_time(t0.elapsed());
        self.flows = flows;
        for p in dirty {
            self.mark_dirty(p);
        }
    }

    /// Re-verifies the current TLP, answering unchanged requirements from
    /// the verdict cache and re-aggregating only dirtied load points. The
    /// outcome (violations, per-point statistics) is bit-identical to a
    /// from-scratch [`YuVerifier::verify`] on the same inputs.
    pub fn verify(&mut self) -> VerificationOutcome {
        let outcome = self.v.verify_with(&self.tlp, 1, Some(&mut self.caches));
        self.last_delta.reused_reqs = self.caches.reused_reqs;
        self.last_delta.rechecked_reqs = self.caches.rechecked_reqs;
        outcome
    }
}
