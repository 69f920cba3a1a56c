//! The check stage — the last box of the paper's Fig. 2, implemented once
//! (DESIGN.md §17): decide a requirement from the terminal ranges of the
//! flows at its load point where they suffice, and otherwise aggregate the
//! symbolic traffic load `τ` there (§5.3) and scan its terminals
//! (Theorem 5.1).
//!
//! [`classes`] groups the flows at a point link-locally, [`bound_holds`]
//! is the interval test over them, [`load`] scales and sums the classes,
//! and [`check_reqs`] is the requirement loop around them. [`check_req`]
//! is the one place that decides which mechanism may call a requirement
//! safe. The stage runs on the verifier's own arena, one requirement
//! after another, and every aggregation step is a garbage-collection
//! checkpoint. Its callers differ only in what they hand it:
//! [`YuVerifier::verify`] / [`YuVerifier::verify_enumerated`] are
//! [`YuVerifier::verify_with`] without caches, and
//! [`crate::IncrementalVerifier::verify`] is `verify_with` with the
//! [`CheckCaches`] it carries across requests.

use crate::api::{VerificationOutcome, YuOptions, YuVerifier};
use crate::attribution::{req_label, EntityCost, PhaseAttribution};
use crate::equivalence::{AggStats, FlowGroup};
use crate::exec::FlowStf;
use crate::verify::{check_requirement, enumerate_violations, Violation};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::time::Instant;
use yu_mtbdd::{Mtbdd, NodeRef, Ratio, Term};
use yu_net::{FailureVars, LoadPoint, Tlp, TlpReq};

/// The exact key of an aggregated load: the `(fraction handle at the
/// point, class volume)` pairs of the classes summed into it, sorted. In
/// one arena, equal signatures have the same `τ = βₖ(Σ V·ω)` — a key
/// compared in full, never by hash alone (DESIGN.md §16.3).
pub(crate) type Signature = Vec<(NodeRef, Ratio)>;

/// The signature of what [`classes`] returned for `point`.
pub(crate) fn signature(
    m: &Mtbdd,
    results: &[FlowStf],
    point: LoadPoint,
    classes: &[(usize, Ratio)],
) -> Signature {
    let mut sig: Signature = classes
        .iter()
        .map(|(rep, vol)| (results[*rep].at(m, point), vol.clone()))
        .collect();
    sig.sort_unstable();
    sig
}

/// An aggregated load and the signature it was summed (or derived) from.
pub(crate) struct CachedLoad {
    pub sig: Signature,
    pub tau: NodeRef,
}

/// A point's current load and the one it replaced.
struct LoadSlot {
    current: CachedLoad,
    superseded: Option<CachedLoad>,
}

/// Aggregated loads by point, each under its signature, so an entry
/// validates itself: it answers only a state with that signature. Each
/// point keeps the entry the current one replaced, so a revert finds its
/// old load. Valid until the arena they live in is collected.
#[derive(Default)]
pub(crate) struct LoadCache {
    slots: HashMap<LoadPoint, LoadSlot>,
    /// Loads found in a superseded entry since the incremental engine
    /// last took the count.
    pub reused: usize,
}

impl LoadCache {
    /// The load of signature `sig` at `point`, if either entry has it; a
    /// superseded entry found this way becomes the current one again.
    pub fn get(&mut self, point: LoadPoint, sig: &Signature) -> Option<NodeRef> {
        let slot = self.slots.get_mut(&point)?;
        if slot.current.sig == *sig {
            return Some(slot.current.tau);
        }
        let old = slot.superseded.as_mut().filter(|old| old.sig == *sig)?;
        std::mem::swap(&mut slot.current, old);
        self.reused += 1;
        Some(slot.current.tau)
    }

    /// The current entry at `point`, whatever state it was summed from.
    pub fn current(&self, point: LoadPoint) -> Option<&CachedLoad> {
        self.slots.get(&point).map(|slot| &slot.current)
    }

    /// Makes `load` the current entry at `point`; the one it replaces
    /// becomes the superseded entry.
    pub fn insert(&mut self, point: LoadPoint, load: CachedLoad) {
        match self.slots.entry(point) {
            Entry::Occupied(mut e) => {
                let slot = e.get_mut();
                slot.superseded = Some(std::mem::replace(&mut slot.current, load));
            }
            Entry::Vacant(e) => {
                e.insert(LoadSlot {
                    current: load,
                    superseded: None,
                });
            }
        }
    }

    /// Every cached load, current and superseded, with its point.
    pub fn loads(&self) -> impl Iterator<Item = (LoadPoint, &CachedLoad)> {
        self.slots.iter().flat_map(|(&p, slot)| {
            std::iter::once(&slot.current)
                .chain(&slot.superseded)
                .map(move |load| (p, load))
        })
    }

    /// Drops every entry (a collection invalidates their handles).
    pub fn clear(&mut self) {
        self.slots.clear();
    }
}

/// Cache key of a requirement: its verdict is a pure function of the
/// (canonical) load at the point and the bounds.
type ReqKey = (LoadPoint, Option<Ratio>, Option<Ratio>);

fn req_key(req: &TlpReq) -> ReqKey {
    (req.point, req.min.clone(), req.max.clone())
}

/// An arena with the inputs the stage reads on it, borrowed from a
/// [`YuVerifier`] for one step of a run that may collect in between.
/// The unit tests build one around a hand-made arena, where it is a
/// [`CheckArena`] of its own that never collects.
pub(crate) struct Arena<'a> {
    /// The arena diagrams are built in.
    pub m: &'a mut Mtbdd,
    /// Loads already aggregated in `m`.
    pub loads: &'a mut LoadCache,
    /// Per-group symbolic traffic fractions (handles valid in `m`).
    pub results: &'a [FlowStf],
    /// The flow groups, parallel to `results`.
    pub groups: &'a [FlowGroup],
    /// Failure variables (for decoding violating paths into scenarios).
    pub fv: &'a FailureVars,
}

/// Where the check stage can run. In the program that is always the
/// [`YuVerifier`]; the trait stays as a test seam, so that the unit tests
/// below can drive the stage on hand-built diagrams no verifier produces
/// (`impl CheckArena for Arena` exists only under `cfg(test)`).
pub(crate) trait CheckArena {
    /// The arena and the inputs the stage reads.
    fn arena(&mut self) -> Arena<'_>;
    /// A point where the arena may be garbage-collected. Every handle the
    /// caller still needs is in `live` and is remapped in place; handles
    /// from `arena().results` must be re-derived afterwards.
    fn checkpoint(&mut self, live: &mut [NodeRef]);
}

impl CheckArena for YuVerifier {
    fn arena(&mut self) -> Arena<'_> {
        Arena {
            m: &mut self.m,
            loads: &mut self.load_cache,
            results: &self.results,
            groups: &self.groups,
            fv: &self.fv,
        }
    }

    fn checkpoint(&mut self, live: &mut [NodeRef]) {
        self.maybe_gc(live, self.opts.gc_node_threshold);
    }
}

#[cfg(test)]
impl CheckArena for Arena<'_> {
    fn arena(&mut self) -> Arena<'_> {
        Arena {
            m: self.m,
            loads: self.loads,
            ..*self
        }
    }

    fn checkpoint(&mut self, _live: &mut [NodeRef]) {}
}

/// Link-local flow equivalence at `point` (§5.3): the flow groups with a
/// non-zero fraction and volume there, grouped by pointer equality of
/// their fractions when `link_local` is set (one class per group
/// otherwise — the Fig. 13 ablation). Returns, in first-seen group order,
/// each class's representative *group index* — not the raw handle, so the
/// aggregator can collect mid-aggregation and re-derive fresh handles —
/// with the class's summed volume.
pub(crate) fn classes(
    m: &Mtbdd,
    results: &[FlowStf],
    groups: &[FlowGroup],
    point: LoadPoint,
    link_local: bool,
) -> (Vec<(usize, Ratio)>, AggStats) {
    let mut classes: Vec<(usize, Ratio)> = Vec::new();
    let mut flows = 0usize;
    let mut by_stf: HashMap<NodeRef, usize> = HashMap::new();
    for (ix, (stf, g)) in results.iter().zip(groups).enumerate() {
        let handle = stf.at(m, point);
        if handle == m.zero() || g.volume.is_zero() {
            continue;
        }
        flows += 1;
        if link_local {
            match by_stf.entry(handle) {
                Entry::Occupied(e) => classes[*e.get()].1 += &g.volume,
                Entry::Vacant(e) => {
                    e.insert(classes.len());
                    classes.push((ix, g.volume.clone()));
                }
            }
        } else {
            classes.push((ix, g.volume.clone()));
        }
    }
    let stats = AggStats {
        flows,
        classes: classes.len(),
    };
    (classes, stats)
}

/// The interval test: whether the terminal ranges of the classes at
/// `point` alone prove `req`. Every class fraction `ω_c` stays inside its
/// [`Mtbdd::terminal_range`] `[lo_c, hi_c]` in every scenario, so
/// `τ = Σ V_c·ω_c` stays inside `[Σ V_c·lo_c, Σ V_c·hi_c]` (a negative
/// `V_c` swaps the two ends), and a requirement whose bounds contain that
/// interval holds wherever `τ` is evaluated — in particular on every
/// terminal the materialised scan would visit. `false` means *not
/// decided*: the interval straddles a bound, or a range reaches `+∞`
/// (which the scan counts as a violation). It never means "violated".
pub(crate) fn bound_holds(
    m: &mut Mtbdd,
    results: &[FlowStf],
    point: LoadPoint,
    classes: &[(usize, Ratio)],
    req: &TlpReq,
) -> bool {
    let (mut lower, mut upper) = (Ratio::ZERO, Ratio::ZERO);
    for (rep, vol) in classes {
        let stf = results[*rep].at(m, point);
        let (min, max) = m.terminal_range(stf);
        let (Term::Num(min), Term::Num(max)) = (m.terminal_ref(min), m.terminal_ref(max)) else {
            return false;
        };
        let (lo, hi) = if vol.is_negative() {
            (max, min)
        } else {
            (min, max)
        };
        lower += &vol.mul_ref(lo);
        upper += &vol.mul_ref(hi);
    }
    req.min.as_ref().is_none_or(|b| &lower >= b) && req.max.as_ref().is_none_or(|b| &upper <= b)
}

/// Whether the requirement loop tries [`bound_holds`] before it
/// materialises `τ`: every run on budgeted diagrams, enumerating or not —
/// a requirement the bounds prove safe has no scenario to enumerate. The
/// `use_kreduce: false` ablation always builds the diagram it is asked
/// about.
fn interval_first(opts: &YuOptions) -> bool {
    opts.use_kreduce
}

/// The aggregated symbolic traffic load at `point`,
/// `τ = Σ_classes V_class · ω_class`, cached per arena under its
/// signature.
pub(crate) fn load<A: CheckArena>(
    a: &mut A,
    opts: &YuOptions,
    point: LoadPoint,
) -> (NodeRef, AggStats) {
    let p = a.arena();
    let (classes, stats) = classes(p.m, p.results, p.groups, point, opts.use_link_local_equiv);
    let sig = signature(p.m, p.results, point, &classes);
    let tau = match p.loads.get(point, &sig) {
        Some(tau) => tau,
        None => aggregate(a, opts, point, classes),
    };
    (tau, stats)
}

/// Scales and sums what [`classes`] returned for `point` into `τ` and
/// caches it. Class representatives are group indices, so the collection
/// checkpoints in here cannot invalidate them.
fn aggregate<A: CheckArena>(
    a: &mut A,
    opts: &YuOptions,
    point: LoadPoint,
    classes: Vec<(usize, Ratio)>,
) -> NodeRef {
    let _stage = yu_telemetry::span_detail("aggregate", || format!("{point:?}"));
    a.checkpoint(&mut []);
    let k = opts.use_kreduce.then_some(opts.k);
    let mut level: Vec<NodeRef> = Vec::with_capacity(classes.len());
    for (rep, vol) in &classes {
        let p = a.arena();
        let stf = p.results[*rep].at(p.m, point);
        // The fused kernels reduce during the apply, so the un-reduced
        // intermediates never hit the arena.
        level.push(match k {
            Some(k) => p.m.scale_kreduce(stf, Term::Num(vol.clone()), k),
            None => p.m.scale(stf, Term::Num(vol.clone())),
        });
        a.checkpoint(&mut level);
    }
    let tau = match k {
        // The n-ary fused kernel materializes βₖ(Σ) directly: the
        // pairwise partial sums (the transients of the paper's Fig. 18
        // blow-up) never hit the arena at all.
        Some(k) => a.arena().m.sum_kreduce(&level, k),
        None => {
            // Exact (un-reduced) aggregation: balanced pairwise
            // accumulation with GC checkpoints keeps most additions
            // between small diagrams and bounds the arena.
            while level.len() > 1 {
                let m = a.arena().m;
                level = level
                    .chunks(2)
                    .map(|pair| match pair {
                        &[f, g] => m.add(f, g),
                        _ => pair[0],
                    })
                    .collect();
                a.checkpoint(&mut level);
            }
            let zero = a.arena().m.zero();
            level.pop().unwrap_or(zero)
        }
    };
    // The signature is taken after the sum: a collection in between
    // would have remapped the handles it holds.
    let p = a.arena();
    let sig = signature(p.m, p.results, point, &classes);
    p.loads.insert(point, CachedLoad { sig, tau });
    tau
}

/// The verdict for one requirement, tagged with its index among the
/// requirements checked.
pub(crate) struct CheckUnit {
    /// Index of the requirement in the TLP.
    pub req_ix: usize,
    /// Violations found for it (at most one unless enumerating).
    pub violations: Vec<Violation>,
    /// Aggregation statistics of its load point (Figs. 13/14 data).
    pub agg: AggStats,
    /// Whether the verdict cache answered it; the costs below are zero
    /// then.
    pub cached: bool,
    /// Whether [`bound_holds`] decided it, so that `τ` was never built.
    pub bound_decided: bool,
    /// Wall-clock spent aggregating and scanning it, in microseconds.
    pub wall_us: u64,
    /// Inner nodes the arena created while processing it (a collection
    /// mid-requirement does not subtract).
    pub nodes_delta: i64,
}

/// What the incremental engine carries from one verification to the next.
/// All plain data — safe across garbage collections.
#[derive(Default)]
pub(crate) struct CheckCaches {
    /// The generation that last dirtied each load point (absent = never).
    pub point_epoch: HashMap<LoadPoint, u64>,
    /// First-counterexample verdict per requirement, valid while its load
    /// point's epoch is the one it was computed at.
    verdicts: HashMap<ReqKey, (u64, Vec<Violation>, AggStats)>,
    /// Requirements of the most recent verification answered from
    /// `verdicts`.
    pub reused_reqs: usize,
    /// Requirements of the most recent verification aggregated and
    /// scanned.
    pub rechecked_reqs: usize,
}

impl CheckCaches {
    fn epoch(&self, point: LoadPoint) -> u64 {
        self.point_epoch.get(&point).copied().unwrap_or(0)
    }

    fn verdict(&self, req: &TlpReq) -> Option<(Vec<Violation>, AggStats)> {
        let (epoch, violations, agg) = self.verdicts.get(&req_key(req))?;
        (*epoch == self.epoch(req.point)).then(|| (violations.clone(), *agg))
    }

    fn store(&mut self, req: &TlpReq, unit: &CheckUnit) {
        let verdict = (self.epoch(req.point), unit.violations.clone(), unit.agg);
        self.verdicts.insert(req_key(req), verdict);
    }
}

/// Checks one requirement on `a`, feeding the `yu_req_check_seconds`
/// histogram: the interval test over the classes at its point and, where
/// that does not decide it, aggregation and the terminal scan.
fn check_req<A: CheckArena>(
    a: &mut A,
    opts: &YuOptions,
    req_ix: usize,
    req: &TlpReq,
    max_violations: usize,
) -> CheckUnit {
    let t_req = Instant::now();
    let nodes_before = a.arena().m.nodes_created() as i64;
    // A collection point per requirement, decided or not: a serve session
    // whose re-checks the interval test all decides would otherwise never
    // collect what re-execution leaves behind.
    a.checkpoint(&mut []);
    let (summed, agg, bound_decided) = {
        let _stage = yu_telemetry::span_detail("bound", || format!("{:?}", req.point));
        let p = a.arena();
        let (summed, agg) = classes(
            p.m,
            p.results,
            p.groups,
            req.point,
            opts.use_link_local_equiv,
        );
        let decided = interval_first(opts) && bound_holds(p.m, p.results, req.point, &summed, req);
        (summed, agg, decided)
    };
    let violations = if bound_decided {
        yu_telemetry::counter("check.bound_decided", 1);
        Vec::new()
    } else {
        yu_telemetry::counter("check.materialised", 1);
        let p = a.arena();
        let sig = signature(p.m, p.results, req.point, &summed);
        let cached = p.loads.get(req.point, &sig);
        let tau = cached.unwrap_or_else(|| aggregate(a, opts, req.point, summed));
        let p = a.arena();
        if max_violations <= 1 {
            check_requirement(p.m, p.fv, tau, req, opts.k)
                .into_iter()
                .collect()
        } else {
            enumerate_violations(p.m, p.fv, tau, req, opts.k, max_violations)
        }
    };
    let wall_us = t_req.elapsed().as_micros() as u64;
    yu_telemetry::with_registry(|r| r.req_check_seconds.record(wall_us));
    CheckUnit {
        req_ix,
        violations,
        agg,
        cached: false,
        bound_decided,
        wall_us,
        nodes_delta: a.arena().m.nodes_created() as i64 - nodes_before,
    }
}

/// The requirement loop: every `(index, requirement)` of `reqs` in order,
/// answered from `verdicts` when it holds a current verdict and checked on
/// `a` otherwise. With `max_violations <= 1` each unit carries at most the
/// first (fewest-failure) violation; larger values enumerate up to that
/// many violating scenarios per requirement.
pub(crate) fn check_reqs<'r, A: CheckArena>(
    a: &mut A,
    opts: &YuOptions,
    reqs: impl Iterator<Item = (usize, &'r TlpReq)>,
    max_violations: usize,
    mut verdicts: Option<&mut CheckCaches>,
) -> Vec<CheckUnit> {
    reqs.map(
        |(req_ix, req)| match verdicts.as_deref().and_then(|c| c.verdict(req)) {
            Some((violations, agg)) => CheckUnit {
                req_ix,
                violations,
                agg,
                cached: true,
                bound_decided: false,
                wall_us: 0,
                nodes_delta: 0,
            },
            None => {
                let unit = check_req(a, opts, req_ix, req, max_violations);
                if let Some(c) = verdicts.as_deref_mut() {
                    c.store(req, &unit);
                }
                unit
            }
        },
    )
    .collect()
}

impl YuVerifier {
    /// The one verification entry point behind [`Self::verify`],
    /// [`Self::verify_enumerated`] and
    /// [`crate::IncrementalVerifier::verify`]: the requirement loop and
    /// the merge into a [`VerificationOutcome`]. `caches`, when given,
    /// answers unchanged requirements without touching the arena.
    pub(crate) fn verify_with(
        &mut self,
        tlp: &Tlp,
        max_violations: usize,
        mut caches: Option<&mut CheckCaches>,
    ) -> VerificationOutcome {
        let t0 = Instant::now();
        let verify_span = yu_telemetry::span("verify");
        let opts = self.opts;
        let reqs = tlp.reqs.iter().enumerate();
        let units = check_reqs(self, &opts, reqs, max_violations, caches.as_deref_mut());
        // Unit deltas are measured back-to-back, so they telescope to the
        // arena's growth over the stage.
        self.check_attr = PhaseAttribution::default();
        for u in units.iter().filter(|u| !u.cached) {
            self.check_attr.nodes_delta += u.nodes_delta;
            self.check_attr.entities.push(EntityCost {
                label: req_label(&self.net, &tlp.reqs[u.req_ix]),
                wall_us: u.wall_us,
                nodes_delta: u.nodes_delta,
            });
        }
        let checked = units.iter().filter(|u| !u.cached).count();
        if let Some(c) = caches {
            c.reused_reqs = units.len() - checked;
            c.rechecked_reqs = checked;
            let r = yu_telemetry::registry();
            r.incremental_reused_reqs_total.add(c.reused_reqs as u64);
            r.incremental_rechecked_reqs_total.add(checked as u64);
        }
        let bound_decided = units.iter().filter(|u| u.bound_decided).count();
        let mut violations = Vec::new();
        let mut per_point = HashMap::new();
        for u in units {
            per_point.insert(tlp.reqs[u.req_ix].point, u.agg);
            violations.extend(u.violations);
        }
        if max_violations > 1 {
            // Enumerated runs report distinct `(point, scenario)` pairs,
            // cheapest triggers first, in a stable order.
            let mut seen = HashSet::new();
            violations.retain(|v| seen.insert((v.point, v.scenario.clone())));
            violations.sort_by(|a, b| {
                (a.scenario.count(), a.point, &a.scenario).cmp(&(
                    b.scenario.count(),
                    b.point,
                    &b.scenario,
                ))
            });
        }
        drop(verify_span);
        self.finish_outcome(violations, per_point, t0.elapsed(), checked, bound_decided)
    }

    /// Kept only because the benchmark package calls it: the check stage
    /// always runs on the verifier's own arena, one requirement after
    /// another (DESIGN.md §8), so the answer is always `1`.
    pub fn auto_check_workers(&mut self, _reqs: &[TlpReq]) -> usize {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::tests::bundle_net;
    use proptest::prelude::*;
    use yu_net::{FailureMode, Flow, Ipv4, RouterId};

    const POINT: LoadPoint = LoadPoint::Delivered(RouterId(2));

    /// One flow group per hand-built `(fraction at POINT, volume)`
    /// contribution — the inputs an [`Arena`] reads.
    fn contributions(
        m: &Mtbdd,
        contributions: &[(NodeRef, Ratio)],
    ) -> (Vec<FlowStf>, Vec<FlowGroup>) {
        let ip = Ipv4::new(10, 0, 0, 1);
        contributions
            .iter()
            .map(|(stf, volume)| {
                let rep = Flow::new(RouterId(0), ip, ip, 0, volume.clone());
                let loads = HashMap::from([(POINT, *stf)]);
                let (truncated, volume) = (m.zero(), rep.volume.clone());
                let group = FlowGroup {
                    rep,
                    volume,
                    members: 1,
                };
                (FlowStf { loads, truncated }, group)
            })
            .unzip()
    }

    /// Aggregates hand-built `(fraction at POINT, volume)` contributions
    /// without KREDUCE, on an arena that never collects.
    fn aggregate(
        m: &mut Mtbdd,
        fv: &FailureVars,
        parts: &[(NodeRef, i64)],
        link_local: bool,
    ) -> (NodeRef, AggStats) {
        let parts: Vec<_> = parts.iter().map(|&(f, v)| (f, Ratio::int(v))).collect();
        let (results, groups) = contributions(m, &parts);
        let mut arena = Arena {
            m,
            loads: &mut LoadCache::default(),
            results: &results,
            groups: &groups,
            fv,
        };
        let opts = YuOptions {
            use_kreduce: false,
            use_link_local_equiv: link_local,
            ..Default::default()
        };
        load(&mut arena, &opts, POINT)
    }

    #[test]
    fn link_local_aggregation_matches_naive_and_ignores_zeros() {
        let mut m = Mtbdd::new();
        let fv = FailureVars::allocate(&mut m, &bundle_net().0.topo, FailureMode::Links);
        let (v1, v2) = (m.fresh_var(), m.fresh_var());
        let (g1, g2) = (m.var_guard(v1), m.var_guard(v2));
        // Three flows share STF g1; one has g2.
        let contributions = [(g1, 10), (g1, 20), (g1, 30), (g2, 5)];
        let (fast, s_fast) = aggregate(&mut m, &fv, &contributions, true);
        let (slow, s_slow) = aggregate(&mut m, &fv, &contributions, false);
        assert_eq!(fast, slow, "hash-consing must make both identical");
        assert_eq!((s_fast.flows, s_fast.classes), (4, 2));
        assert_eq!((s_slow.flows, s_slow.classes), (4, 4));
        assert_eq!(m.eval_all_alive(fast), Term::int(65));
        assert_eq!(m.eval(fast, |v| v == v2), Term::int(5));
        // A zero fraction or a zero volume contributes nothing.
        let (zero, one) = (m.zero(), m.one());
        let none = aggregate(&mut m, &fv, &[(zero, 10), (one, 0)], true);
        assert_eq!(none, (zero, AggStats::default()));
    }

    /// A requirement the interval test decides hash-conses nothing and
    /// stores no load; one it cannot decide is materialised, cached and
    /// scanned as before — whether it then holds or not.
    #[test]
    fn decided_requirement_builds_nothing() {
        let mut m = Mtbdd::new();
        let fv = FailureVars::allocate(&mut m, &bundle_net().0.topo, FailureMode::Links);
        let (g0, g1) = (m.var_guard(0), m.var_guard(1));
        // τ = 10·x0 + 5·x1 ∈ {0, 5, 10, 15}.
        let (results, groups) = contributions(&m, &[(g0, Ratio::int(10)), (g1, Ratio::int(5))]);
        let mut loads = LoadCache::default();
        let mut arena = Arena {
            m: &mut m,
            loads: &mut loads,
            results: &results,
            groups: &groups,
            fv: &fv,
        };
        let opts = YuOptions::default();
        let mut check = |req: &TlpReq, max_violations| {
            let unit = check_req(&mut arena, &opts, 0, req, max_violations);
            (unit, arena.loads.current(POINT).is_some())
        };
        let (safe, stored) = check(&TlpReq::at_most(POINT, Ratio::int(15)), 1);
        assert!(safe.bound_decided && safe.violations.is_empty());
        assert_eq!((safe.nodes_delta, stored), (0, false));
        assert_eq!((safe.agg.flows, safe.agg.classes), (2, 2));
        // Nothing to enumerate either: an enumerating run decides it the
        // same way.
        let (listed, stored) = check(&TlpReq::at_most(POINT, Ratio::int(15)), 8);
        assert!(listed.bound_decided && listed.violations.is_empty() && !stored);
        // 15 > 12 all-alive: never "safe", and the counterexample is the
        // scan's.
        let (over, _) = check(&TlpReq::at_most(POINT, Ratio::int(12)), 1);
        assert!(!over.bound_decided);
        assert_eq!(over.violations[0].load, Ratio::int(15));
        assert_eq!(over.violations[0].scenario.count(), 0);
        // The floor straddles the range [0, 15]: materialised, and k = 1
        // reaches 5.
        let (under, _) = check(&TlpReq::at_least(POINT, Ratio::int(6)), 1);
        assert!(!under.bound_decided);
        assert_eq!(under.violations[0].load, Ratio::int(5));
    }

    /// Terminals of the random operands: fractions, an integer above one
    /// and `+∞` (negative fractions appear through negative volumes).
    fn palette(i: usize) -> Term {
        match i {
            0 | 1 => Term::ZERO,
            2 => Term::ratio(1, 3),
            3 => Term::ratio(1, 2),
            4 => Term::ONE,
            5 => Term::int(2),
            _ => Term::PosInf,
        }
    }

    /// The diagram of an 8-row truth table over variables `var..3`.
    fn from_table(m: &mut Mtbdd, rows: &[usize], var: u32) -> NodeRef {
        if rows.len() == 1 {
            return m.term(palette(rows[0]));
        }
        let (lo, hi) = rows.split_at(rows.len() / 2);
        let (lo, hi) = (from_table(m, lo, var + 1), from_table(m, hi, var + 1));
        m.node(var, lo, hi)
    }

    proptest! {
        /// Soundness of the interval test — a wrong *verified* is the
        /// worst bug: whenever it calls a requirement safe, the scan of
        /// the materialised `τ` finds no violation, for `+∞` terminals,
        /// negative and zero volumes, floors, ceilings and ranges; and a
        /// requirement the all-alive load already breaks is never safe.
        #[test]
        fn bound_decided_implies_the_scan_finds_nothing(
            operands in proptest::collection::vec(
                (proptest::collection::vec(0usize..7, 8), -3i64..=5, 1i64..=3),
                0..5,
            ),
            bound in (-12i64..=24, 1i64..=2),
            width in 0i64..=12,
            kind in 0u8..3,
            k in 0u32..=3,
        ) {
            let mut m = Mtbdd::new();
            let fv = FailureVars::allocate(&mut m, &bundle_net().0.topo, FailureMode::Links);
            let parts: Vec<(NodeRef, Ratio)> = operands
                .iter()
                .map(|(rows, num, den)| {
                    let f = from_table(&mut m, rows, 0);
                    // Stored fractions are βₖ-reduced; `−v · ∞` is undefined.
                    let f = m.kreduce(f, k);
                    let num = if rows.contains(&6) { num.abs() } else { *num };
                    (f, Ratio::new(num as i128, *den as i128))
                })
                .collect();
            let (results, groups) = contributions(&m, &parts);
            let b = Ratio::new(bound.0 as i128, bound.1 as i128);
            let req = match kind {
                0 => TlpReq::at_most(POINT, b),
                1 => TlpReq::at_least(POINT, b),
                _ => TlpReq {
                    point: POINT,
                    max: Some(b.add_ref(&Ratio::int(width))),
                    min: Some(b),
                },
            };
            let opts = YuOptions { k, ..Default::default() };
            let mut arena = Arena {
                m: &mut m,
                loads: &mut LoadCache::default(),
                results: &results,
                groups: &groups,
                fv: &fv,
            };
            let (summed, _) = classes(arena.m, &results, &groups, POINT, true);
            let decided = bound_holds(arena.m, &results, POINT, &summed, &req);
            let (tau, _) = load(&mut arena, &opts, POINT);
            if decided {
                let found = check_requirement(arena.m, &fv, tau, &req, k);
                prop_assert!(found.is_none(), "called safe, yet {:?}", found);
            }
            let alive_ok = match arena.m.eval_all_alive(tau) {
                Term::Num(v) => req.satisfied_by(v),
                Term::PosInf => false,
            };
            prop_assert!(alive_ok || !decided, "an all-alive violation was called safe");
        }
    }

    /// The classes the aggregator sums are the ones a verification
    /// reports for the point (same classing function, same count as its
    /// `AggStats.classes`), and the requirements the interval test decides
    /// over them are the ones the run counts as bound-decided — a strict,
    /// non-empty subset here.
    #[test]
    fn reported_classes_and_bound_decisions_match_the_check_stage() {
        let (net, [a, _, _]) = bundle_net();
        // Three flows that stay separate groups (no global equivalence)
        // but place identical fractions on every link they cross.
        let flows: Vec<Flow> = (1..=3)
            .map(|i| {
                let dst = Ipv4::new(100, 0, 0, i);
                Flow::new(a, Ipv4::new(11, 0, 0, 1), dst, 0, Ratio::int(10 * i as i64))
            })
            .collect();
        // 60 in all: the links towards C can exceed half their capacity
        // but never all of it.
        let mut tlp = Tlp::no_overload(&net.topo, Ratio::new(50, 100));
        tlp.reqs
            .extend(Tlp::no_overload(&net.topo, Ratio::ONE).reqs);
        for link_local in [true, false] {
            let opts = YuOptions {
                use_global_equiv: false,
                use_link_local_equiv: link_local,
                ..Default::default()
            };
            let mut v = YuVerifier::new(net.clone(), opts);
            v.add_flows(&flows);
            let out = v.verify(&tlp);
            let per_point = out.stats.per_point;
            let (mut undecided, mut all, mut decided) = (0usize, 0usize, 0usize);
            for req in &tlp.reqs {
                let (summed, stats) = classes(&v.m, &v.results, &v.groups, req.point, link_local);
                assert_eq!(stats, per_point[&req.point]);
                assert_eq!(summed.len(), stats.classes);
                let sized: usize = summed
                    .iter()
                    .map(|(rep, _)| v.m.node_count(v.results[*rep].at(&v.m, req.point)))
                    .sum();
                all += sized;
                if bound_holds(&mut v.m, &v.results, req.point, &summed, req) {
                    decided += 1;
                } else {
                    undecided += sized;
                }
            }
            assert!(0 < undecided && undecided < all, "{undecided} of {all}");
            assert_eq!(out.stats.reqs_bound_decided, decided);
            let mut crossed = per_point.values().filter(|s| s.flows == 3).peekable();
            assert!(crossed.peek().is_some(), "the flows must cross some link");
            assert!(crossed.all(|s| s.classes == if link_local { 1 } else { 3 }));
        }
    }
}
