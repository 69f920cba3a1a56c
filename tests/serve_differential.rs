//! Differential tests for the incremental re-verification engine: every
//! built-in example is driven through a curated edit script (cost bump,
//! link removal, volume change, new requirement, combined edits), and
//! after **every** step the incremental verifier must be bit-identical
//! to a from-scratch run on the updated inputs — same verdict, same
//! violation set (including counterexample scenarios), same per-point
//! aggregation statistics, same flow-group results (volumes, members, and
//! symbolic load terminals), and the same concrete loads at sampled
//! scenarios.
//!
//! Under `YU_AUDIT=1` the reused arena additionally passes the
//! canonicity auditor after each invalidation (the engine's own
//! `audit_checkpoint`), and this harness re-audits explicitly after
//! every step regardless.

use yu::core::{IncrementalVerifier, VerificationOutcome, YuOptions, YuVerifier};
use yu::gen::{
    fattree_with_flows, motivating_example, sr_anycast_incident, static_blackhole_incident, wan,
    WanParams,
};
use yu::mtbdd::{Ratio, Term};
use yu::net::{
    scenarios_up_to_k, BgpConfig, Change, ChangeSet, FailureMode, Flow, Ipv4, LoadPoint, Network,
    PointRef, Scenario, StaticNextHop, StaticRoute, Tlp, TlpReq, Topology,
};

struct Instance {
    name: &'static str,
    net: Network,
    flows: Vec<Flow>,
    tlp: Tlp,
    k: u32,
}

/// Every built-in `yu export` example (fig1, fig9, fig10, ft4) plus the
/// small random WAN of the parallel differential suite (IGP + SR
/// routing, so cost edits actually invalidate routes).
fn instances() -> Vec<Instance> {
    let fig1 = motivating_example();
    let fig9 = sr_anycast_incident();
    let fig10 = static_blackhole_incident();
    let (ft, ft_flows) = fattree_with_flows(4, 16);
    let ft_tlp = Tlp::no_overload(&ft.net.topo, Ratio::new(95, 100));
    let w = wan(WanParams {
        core_routers: 5,
        stub_routers: 2,
        extra_core_links: 3,
        prefixes: 8,
        sr_policies: 1,
        seed: 7,
    });
    let w_flows = w.flows(25, 70);
    let w_tlp = Tlp::no_overload(&w.net.topo, Ratio::new(95, 100));
    vec![
        Instance {
            name: "fig1",
            net: fig1.net,
            flows: fig1.flows,
            tlp: fig1.p2,
            k: 1,
        },
        Instance {
            name: "fig9",
            net: fig9.net,
            flows: fig9.flows,
            tlp: fig9.tlp,
            k: 1,
        },
        Instance {
            name: "fig10",
            net: fig10.net,
            flows: fig10.flows,
            tlp: fig10.tlp,
            k: 1,
        },
        Instance {
            name: "ft4",
            net: ft.net,
            flows: ft_flows,
            tlp: ft_tlp,
            k: 2,
        },
        Instance {
            name: "wan-small",
            net: w.net,
            flows: w_flows,
            tlp: w_tlp,
            k: 1,
        },
    ]
}

/// The router names of directed link `l`.
fn link_names(net: &Network, l: yu::net::LinkId) -> (String, String) {
    let lk = net.topo.link(l);
    (
        net.topo.router(lk.from).name.clone(),
        net.topo.router(lk.to).name.clone(),
    )
}

/// The curated edit script: one change-set per step, applied
/// cumulatively. Built against the instance's *initial* state; steps
/// only reference elements that survive the earlier steps.
fn edit_script(inst: &Instance) -> Vec<(&'static str, ChangeSet)> {
    let topo = &inst.net.topo;
    let first_link = topo.links().next().expect("instances have links");
    let (from, to) = link_names(&inst.net, first_link);
    let last_ulink = yu::net::ULinkId((topo.num_ulinks() - 1) as u32);
    let (rm_fwd, _) = topo.directions(last_ulink);
    let (rm_from, rm_to) = link_names(&inst.net, rm_fwd);
    let last_router = topo
        .routers()
        .last()
        .map(|r| topo.router(r).name.clone())
        .expect("instances have routers");
    let mut script = vec![
        (
            "cost-bump",
            ChangeSet::single(Change::SetLinkCost {
                from: from.clone(),
                to: to.clone(),
                index: 0,
                cost: topo.link(first_link).igp_cost * 3 + 7,
            }),
        ),
        (
            "volume-change",
            ChangeSet::single(Change::SetFlowVolume {
                flow: 0,
                volume: inst.flows[0].volume.clone() * Ratio::int(2),
            }),
        ),
        (
            "new-req",
            ChangeSet::single(Change::AddReq {
                point: PointRef::Dropped {
                    router: last_router.clone(),
                },
                min: None,
                max: Some(Ratio::int(1_000_000)),
            }),
        ),
        (
            "combined",
            ChangeSet {
                changes: vec![
                    Change::SetLinkCost {
                        from,
                        to,
                        index: 0,
                        cost: topo.link(first_link).igp_cost,
                    },
                    Change::SetFlowVolume {
                        flow: 0,
                        volume: inst.flows[0].volume.clone(),
                    },
                ],
            },
        ),
        (
            "link-removal",
            ChangeSet::single(Change::RemoveLink {
                from: rm_from,
                to: rm_to,
                index: 0,
            }),
        ),
    ];
    // A new flow entering at the last router, toward an address an
    // existing flow already reaches.
    script.push((
        "new-flow",
        ChangeSet::single(Change::AddFlow {
            ingress: last_router,
            src: yu::net::Ipv4::new(11, 99, 0, 1),
            dst: inst.flows[0].dst,
            dscp: 0,
            volume: Ratio::int(3),
        }),
    ));
    script
}

fn options(inst: &Instance) -> YuOptions {
    YuOptions {
        k: inst.k,
        mode: FailureMode::Links,
        ..Default::default()
    }
}

/// A from-scratch run on the given state.
fn scratch(
    net: &Network,
    flows: &[Flow],
    tlp: &Tlp,
    opts: YuOptions,
) -> (YuVerifier, VerificationOutcome) {
    let mut v = YuVerifier::new(net.clone(), opts);
    v.add_flows(flows);
    let out = v.verify(tlp);
    (v, out)
}

/// The semantic signature of `flow_results()`: per group (in the
/// deterministic result order) the representative identity, volume,
/// member count, and per-point symbolic load terminals.
#[allow(clippy::type_complexity)]
fn flow_signature(
    v: &YuVerifier,
) -> Vec<(
    (yu::net::RouterId, yu::net::Ipv4, yu::net::Ipv4, u8),
    Ratio,
    usize,
    Vec<(LoadPoint, Vec<Term>)>,
)> {
    v.flow_results()
        .map(|(g, stf)| {
            let mut loads: Vec<(LoadPoint, Vec<Term>)> = stf
                .loads
                .iter()
                .map(|(&p, &n)| {
                    let mut t = v.manager().terminals(n);
                    t.sort();
                    (p, t)
                })
                .collect();
            loads.sort_by_key(|&(p, _)| p);
            (
                (g.rep.ingress, g.rep.src, g.rep.dst, g.rep.dscp),
                g.volume.clone(),
                g.members,
                loads,
            )
        })
        .collect()
}

/// Sampled `≤ k` scenarios (every scenario for small spaces).
fn sampled_scenarios(net: &Network, k: u32) -> Vec<Scenario> {
    let all: Vec<Scenario> = scenarios_up_to_k(&net.topo, FailureMode::Links, k as usize).collect();
    let step = if all.len() > 120 { 5 } else { 1 };
    all.into_iter().step_by(step).collect()
}

/// The full bit-identity assertion between an incremental state and a
/// scratch run on the same inputs.
fn assert_matches_scratch(ctx: &str, inc: &mut IncrementalVerifier, inc_out: &VerificationOutcome) {
    let opts = inc.verifier().options();
    let (mut fresh, fresh_out) = scratch(
        &inc.network().clone(),
        inc.flows(),
        &inc.tlp().clone(),
        opts,
    );
    assert_eq!(
        fresh_out.verified(),
        inc_out.verified(),
        "{ctx}: verdict differs"
    );
    assert_eq!(
        fresh_out.violations, inc_out.violations,
        "{ctx}: violation set differs"
    );
    assert_eq!(
        fresh_out.stats.flow_groups, inc_out.stats.flow_groups,
        "{ctx}: group count differs"
    );
    assert_eq!(
        fresh_out.stats.per_point, inc_out.stats.per_point,
        "{ctx}: per-point aggregation stats differ"
    );
    assert_eq!(
        flow_signature(&fresh),
        flow_signature(inc.verifier()),
        "{ctx}: flow_results differ"
    );
    // Concrete loads at every requirement point under sampled scenarios.
    let scenarios = sampled_scenarios(&inc.network().clone(), opts.k);
    let points: Vec<LoadPoint> = inc.tlp().reqs.iter().map(|r| r.point).collect();
    for p in points {
        for s in &scenarios {
            assert_eq!(
                fresh.load_at(p, s),
                inc.verifier_mut().load_at(p, s),
                "{ctx}: load differs at {p:?} under {s:?}"
            );
        }
    }
    // The reused arena stays canonical after every invalidation.
    inc.verifier().audit().assert_ok(ctx);
}

fn run_script(inst: &Instance) {
    run_script_with(inst, options(inst));
}

/// Returns the garbage collections the session's arena ran.
fn run_script_with(inst: &Instance, opts: YuOptions) -> u64 {
    let mut inc =
        IncrementalVerifier::new(inst.net.clone(), inst.flows.clone(), inst.tlp.clone(), opts);
    let base = inc.verify();
    assert_matches_scratch(&format!("{} base", inst.name), &mut inc, &base);
    for (step, cs) in edit_script(inst) {
        let ctx = format!("{} step={step}", inst.name);
        let out = inc
            .apply(&cs)
            .unwrap_or_else(|e| panic!("{ctx}: apply failed: {e}"));
        let delta = inc.delta_stats();
        // The change engine must account for every group, one way or the
        // other.
        assert_eq!(
            delta.reused_groups + delta.recomputed_groups,
            out.stats.flow_groups,
            "{ctx}: reuse counters do not partition the groups"
        );
        assert_matches_scratch(&ctx, &mut inc, &out);
    }
    inc.verifier().mtbdd_stats().gc_runs
}

#[test]
fn fig1_edit_script_matches_scratch() {
    let inst = &instances()[0];
    run_script(inst);
}

#[test]
fn fig9_edit_script_matches_scratch() {
    let inst = &instances()[1];
    run_script(inst);
}

#[test]
fn fig10_edit_script_matches_scratch() {
    let inst = &instances()[2];
    run_script(inst);
}

#[test]
fn ft4_edit_script_matches_scratch() {
    let inst = &instances()[3];
    run_script(inst);
}

#[test]
fn wan_edit_script_matches_scratch() {
    let inst = &instances()[4];
    run_script(inst);
}

/// The ft4 script with the arena collected whenever it has doubled (the
/// smaller instances never grow enough to collect twice): every cache
/// that holds handles — the check stage's range memo among them — is
/// dropped and rebuilt between requests and between requirements.
#[test]
fn ft4_edit_script_matches_scratch_across_collections() {
    let inst = &instances()[3];
    let opts = YuOptions {
        gc_node_threshold: 1,
        ..options(inst)
    };
    let gc_runs = run_script_with(inst, opts);
    assert!(gc_runs > 1, "the session must collect mid-way");
}

/// On a fattree m=8, a single link-cost edit re-executes every flow group
/// on the warm arena — the `delta.recomputed_groups` telemetry counter
/// says so too — and reuses work at the check stage: it dirties fewer
/// load points than the groups touch and re-checks fewer requirements
/// than the TLP has.
#[test]
fn fattree_m8_cost_edit_reuses_at_the_check_stage() {
    let (ft, flows) = fattree_with_flows(8, 1);
    let tlp = Tlp::no_overload(&ft.net.topo, Ratio::new(95, 100));
    let mut inc = IncrementalVerifier::new(
        ft.net.clone(),
        flows,
        tlp,
        YuOptions {
            k: 1,
            mode: FailureMode::Links,
            ..Default::default()
        },
    );
    let total = inc.verify().stats.flow_groups;
    assert!(total > 0);
    // The span log is this thread's own: one window, one `apply`.
    yu::telemetry::reset();
    yu::telemetry::set_enabled(true);
    let first = ft.net.topo.links().next().unwrap();
    let (from, to) = link_names(&ft.net, first);
    let cs = ChangeSet::single(Change::SetLinkCost {
        from,
        to,
        index: 0,
        cost: ft.net.topo.link(first).igp_cost * 7,
    });
    let out = inc.apply(&cs).expect("cost edit applies");
    yu::telemetry::set_enabled(false);
    let delta = inc.delta_stats();
    assert!(!delta.full_rebuild, "a cost edit must not rebuild");
    let points: std::collections::HashSet<LoadPoint> = inc
        .verifier()
        .flow_results()
        .flat_map(|(_, stf)| stf.loads.keys().copied())
        .collect();
    assert!(
        delta.dirty_points < points.len(),
        "the edit dirtied every point: {delta:?}"
    );
    assert!(
        delta.rechecked_reqs < inc.tlp().reqs.len(),
        "the edit re-checked every requirement: {delta:?}"
    );
    let counters = yu::telemetry::snapshot().counter_totals();
    yu::telemetry::reset();
    assert_eq!(delta.recomputed_groups, out.stats.flow_groups, "{delta:?}");
    assert_eq!(
        counters.get("delta.recomputed_groups").copied(),
        Some(delta.recomputed_groups as u64),
        "telemetry counter delta.recomputed_groups disagrees with {delta:?}"
    );
    // And the incremental verdict still matches scratch.
    assert_matches_scratch("fattree-m8 cost edit", &mut inc, &out);
}

/// A WAN cost edit must actually dirty something: the IGP/SR routing
/// there is cost-sensitive, so some core link's cost flip moves a flow's
/// fraction and changes a load point's handle — and then the verdicts
/// must match scratch. This guards against a vacuous handle comparison.
#[test]
fn wan_cost_edit_dirties_some_point() {
    let inst = &instances()[4];
    let mut inc = IncrementalVerifier::new(
        inst.net.clone(),
        inst.flows.clone(),
        inst.tlp.clone(),
        options(inst),
    );
    let _ = inc.verify();
    let mut any_dirtied = false;
    // Try every undirected link until one reroutes something.
    for u in inst.net.topo.ulinks() {
        let (fwd, _) = inst.net.topo.directions(u);
        let (from, to) = link_names(&inst.net, fwd);
        let cs = ChangeSet::single(Change::SetLinkCost {
            from,
            to,
            index: 0,
            cost: inst.net.topo.link(fwd).igp_cost * 100 + 13,
        });
        let out = inc.apply(&cs).expect("cost edit applies");
        if inc.delta_stats().dirty_points > 0 {
            any_dirtied = true;
            assert_matches_scratch("wan cost edit", &mut inc, &out);
            break;
        }
    }
    assert!(
        any_dirtied,
        "no cost edit on any WAN link dirtied a load point — \
         the handle comparison is likely vacuous"
    );
}

/// M - D - W, each its own AS with default BGP; W originates the
/// connected `10.1.0.0/26`, and 30 Gbps enter at M toward each of
/// `10.1.0.5` and `10.1.0.40`: one destination class, one flow group,
/// `Delivered(W) = 60`. Returns that network, the same network with
/// `10.1.0.32/27 -> Null0` at D (which splits the class and blackholes
/// the second flow), the flows and `Delivered(W) >= 45`.
fn split_by_a_static() -> (Network, Network, Vec<Flow>, Tlp) {
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
    let flows = vec![flow("10.1.0.5"), flow("10.1.0.40")];
    let tlp = Tlp::new().with(TlpReq::at_least(LoadPoint::Delivered(w), Ratio::int(45)));
    (old, new, flows, tlp)
}

fn k0() -> YuOptions {
    YuOptions {
        k: 0,
        ..Default::default()
    }
}

/// A routing-only `set_state` can change which destinations forward
/// alike. The more specific static splits the one flow group in two —
/// keeping it, with its still-valid representative, reports *verified*
/// where a scratch run finds the blackhole — and removing the static
/// merges the two groups again.
#[test]
fn set_state_regroups_when_a_static_splits_or_merges_a_class() {
    let (old, new, flows, tlp) = split_by_a_static();
    let mut inc = IncrementalVerifier::new(old.clone(), flows.clone(), tlp.clone(), k0());
    let base = inc.verify();
    assert!(base.verified());
    assert_eq!(base.stats.flow_groups, 1);
    let split = inc.set_state(new, flows.clone(), tlp.clone(), k0());
    assert!(!split.verified(), "the second flow dies at D's Null0");
    assert_eq!(split.stats.flow_groups, 2);
    assert!(!inc.delta_stats().full_rebuild);
    assert_matches_scratch("static splits the class", &mut inc, &split);
    let merged = inc.set_state(old, flows, tlp, k0());
    assert!(merged.verified());
    assert_eq!(merged.stats.flow_groups, 1);
    assert_matches_scratch("static removed, classes merge", &mut inc, &merged);
}

/// After the first flow is removed the group is represented by the
/// second but still holds the first one's fractions — the same handles,
/// since both destinations were one class. When the static arrives, the
/// routing edit re-executes the group toward the second flow, whose
/// class now blackholes.
#[test]
fn a_reused_group_is_keyed_by_the_destination_it_was_executed_toward() {
    let (old, new, flows, tlp) = split_by_a_static();
    let mut inc = IncrementalVerifier::new(old, flows, tlp.clone(), k0());
    let cs = ChangeSet::single(Change::RemoveFlow { flow: 0 });
    let out = inc.apply(&cs).expect("flow removal applies");
    assert_eq!(inc.delta_stats().recomputed_groups, 0, "the STF is reused");
    assert_matches_scratch("first flow removed", &mut inc, &out);
    let remaining = inc.flows().to_vec();
    let split = inc.set_state(new, remaining, tlp, k0());
    assert!(!split.verified());
    assert_matches_scratch("static over the remaining flow", &mut inc, &split);
}

/// A representative per flow group: `(ingress, src, dst, dscp)`.
type Rep = (yu::net::RouterId, Ipv4, Ipv4, u8);

fn reps(inc: &IncrementalVerifier) -> Vec<Rep> {
    inc.verifier()
        .flow_results()
        .map(|(g, _)| (g.rep.ingress, g.rep.src, g.rep.dst, g.rep.dscp))
        .collect()
}

/// On the small WAN: flip and restore the costs of three links, twice,
/// with a volume edit and a flow that forms a new group between the
/// rounds, and the removal of that flow in the second. Every response
/// must equal a from-scratch run. A routing edit back to a state the
/// session left since its last collection must swap it back and execute
/// only the groups that are new since that state was left; any other
/// routing edit executes every group. Returns how many revisits found
/// their state dropped by a collection.
fn revisit_script(opts_of: impl Fn(&Instance) -> YuOptions) -> usize {
    let inst = &instances()[4];
    let topo = &inst.net.topo;
    let flip = |u: u32, bump: bool| {
        let (fwd, _) = topo.directions(yu::net::ULinkId(u));
        let (from, to) = link_names(&inst.net, fwd);
        let cost = topo.link(fwd).igp_cost + if bump { 25 } else { 0 };
        Change::SetLinkCost {
            from,
            to,
            index: 0,
            cost,
        }
    };
    let added = inst.flows.len();
    let add_flow = Change::AddFlow {
        ingress: topo.router(topo.routers().next().unwrap()).name.clone(),
        src: Ipv4::new(11, 99, 0, 1),
        dst: inst.flows[0].dst,
        dscp: 0,
        volume: Ratio::int(3),
    };
    let volume = Change::SetFlowVolume {
        flow: 0,
        volume: inst.flows[0].volume.clone() * Ratio::int(2),
    };
    let mut script = Vec::new();
    for round in 0..2 {
        for u in 0..3 {
            script.push(flip(u, true));
            script.push(flip(u, false));
            if round == 1 && u == 1 {
                script.push(Change::RemoveFlow { flow: added });
            }
        }
        if round == 0 {
            script.extend([volume.clone(), add_flow.clone()]);
        }
    }
    let mut inc = IncrementalVerifier::new(
        inst.net.clone(),
        inst.flows.clone(),
        inst.tlp.clone(),
        opts_of(inst),
    );
    let base = inc.verify();
    assert_matches_scratch("revisits base", &mut inc, &base);
    // Each state the session left, with the collections run before it was
    // left and the groups it held. No script here leaves more states
    // than the parking cap.
    let mut left: Vec<(Network, u64, Vec<Rep>)> = Vec::new();
    let mut dropped = 0;
    for (step, change) in script.into_iter().enumerate() {
        let ctx = format!("revisits step {step} ({change:?})");
        let (net, gc_runs, groups) = (
            inc.network().clone(),
            inc.verifier().mtbdd_stats().gc_runs,
            reps(&inc),
        );
        let groups_before = groups.len();
        let out = inc.apply(&ChangeSet::single(change.clone())).expect(&ctx);
        let delta = inc.delta_stats();
        assert_matches_scratch(&ctx, &mut inc, &out);
        assert_eq!(
            delta.reused_groups + delta.recomputed_groups,
            out.stats.flow_groups,
            "{ctx}: {delta:?}"
        );
        if matches!(change, Change::AddFlow { .. }) {
            assert_eq!(
                out.stats.flow_groups,
                groups_before + 1,
                "{ctx}: a new group"
            );
        }
        if *inc.network() == net {
            assert!(!delta.reused_routes, "{ctx}: {delta:?}");
            continue;
        }
        let found = left.iter().position(|(n, ..)| n == inc.network());
        let parked = found.map(|i| left.remove(i));
        left.push((net, gc_runs, groups));
        match parked {
            Some((_, parked_gc, parked_groups)) if parked_gc == gc_runs => {
                assert!(delta.reused_routes, "{ctx}: {delta:?}");
                let new_since = reps(&inc)
                    .iter()
                    .filter(|r| !parked_groups.contains(r))
                    .count();
                assert_eq!(delta.recomputed_groups, new_since, "{ctx}: {delta:?}");
            }
            _ => {
                dropped += usize::from(parked.is_some());
                assert!(!delta.reused_routes, "{ctx}: {delta:?}");
                assert_eq!(delta.recomputed_groups, out.stats.flow_groups, "{ctx}");
            }
        }
    }
    dropped
}

/// A session that never collects swaps back every revisited state, and
/// a revisit in the second round executes the group added since.
#[test]
fn revisited_routing_states_are_swapped_back() {
    assert_eq!(revisit_script(options), 0);
}

/// Collected at every checkpoint, the session drops its parked states
/// with each collection: revisits re-simulate, and the answers stay
/// those of a scratch run.
#[test]
fn parked_routing_states_die_with_a_collection() {
    let dropped = revisit_script(|inst| YuOptions {
        gc_node_threshold: 1,
        ..options(inst)
    });
    assert!(dropped > 0, "no revisit followed a collection");
}

/// Two serve sessions in one process answer one script of cost flips,
/// restores and volume edits on the `n0` preset with the same engine
/// counters after every request.
/// Each `HashMap` gets its own iteration order, so this fails if a map's
/// order decides the order of arena work anywhere on the serve path.
#[test]
fn serve_sessions_repeat_engine_counters_exactly() {
    use yu::serve::ServeSession;
    let w = wan(yu::gen::WanPreset::N0.params());
    let flows = w.flows(2000, 0xF10F);
    let spec = yu::spec::VerifySpec {
        tlp: Tlp::no_overload(&w.net.topo, Ratio::new(95, 100)),
        network: w.net,
        flows,
        k: 2,
        mode: FailureMode::Links,
    };
    let topo = &spec.network.topo;
    let mut script = Vec::new();
    for (i, l) in topo.links().step_by(5).take(4).enumerate() {
        let (from, to) = link_names(&spec.network, l);
        let cost = topo.link(l).igp_cost;
        let flow = i * 29 % spec.flows.len();
        let volume = &spec.flows[flow].volume;
        script.extend([
            format!(
                r#"{{"changes":[{{"SetLinkCost":{{"from":"{from}","to":"{to}","cost":{}}}}}]}}"#,
                cost * 5 + 3
            ),
            format!(r#"{{"changes":[{{"SetFlowVolume":{{"flow":{flow},"volume":"40"}}}}]}}"#),
            format!(
                r#"{{"changes":[{{"SetLinkCost":{{"from":"{from}","to":"{to}","cost":{cost}}}}}]}}"#
            ),
            format!(r#"{{"changes":[{{"SetFlowVolume":{{"flow":{flow},"volume":"{volume}"}}}}]}}"#),
        ]);
    }
    let opts = YuOptions {
        k: spec.k,
        mode: spec.mode,
        ..Default::default()
    };
    let mut a = ServeSession::new(&spec, opts);
    let mut b = ServeSession::new(&spec, opts);
    let stats = |s: &ServeSession| s.verifier().verifier().mtbdd_stats();
    assert_eq!(stats(&a), stats(&b), "cold start");
    for line in &script {
        for response in [a.handle_line(line), b.handle_line(line)] {
            assert!(response.contains(r#""ok":true"#), "{line}: {response}");
        }
        assert_eq!(stats(&a), stats(&b), "{line}");
    }
}
