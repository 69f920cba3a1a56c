//! The attribution report's contracts (DESIGN.md §9.6):
//!
//! 1. **Reconciliation** — per-entity node deltas telescope to the
//!    phase totals, and with GC off the phase totals telescope further
//!    to the arena's own lifetime counter: `route_nodes +
//!    exec.nodes_delta + check.nodes_delta == stats.mtbdd.nodes_created`,
//!    exactly.
//! 2. **Read-only** — `YuVerifier::attribution` only reads what the run
//!    records anyway: calling it changes no verdict, violation or arena
//!    statistic.
//! 3. **Per request** — on the incremental engine, the report lists the
//!    groups and requirements the last request actually recomputed.

use yu::core::{IncrementalVerifier, YuOptions, YuVerifier};
use yu::gen::{fattree_with_flows, motivating_example};
use yu::mtbdd::Ratio;
use yu::net::{Change, ChangeSet, PointRef, Tlp};

#[test]
fn sequential_attribution_reconciles_exactly_with_the_arena() {
    // GC off: every node the run creates is measured by exactly one
    // contiguous per-entity window, so the telescoping sum must land on
    // the arena's lifetime counter to the node.
    let ex = motivating_example();
    let mut v = YuVerifier::new(
        ex.net.clone(),
        YuOptions {
            k: 1,
            gc_node_threshold: 0,
            ..Default::default()
        },
    );
    v.add_flows(&ex.flows);
    let out = v.verify(&ex.p2);
    let attr = v.attribution();
    assert!(attr.reconciles(), "entity deltas must telescope per phase");
    assert_eq!(
        attr.route_nodes as i64 + attr.exec.nodes_delta + attr.check.nodes_delta,
        out.stats.mtbdd.nodes_created as i64,
        "phase deltas must telescope to the arena lifetime counter"
    );

    // Entity coverage: one cost per flow group, one per checked
    // requirement.
    assert_eq!(attr.exec.entities.len(), out.stats.flow_groups);
    assert_eq!(attr.check.entities.len(), ex.p2.reqs.len());
    assert!(attr
        .exec
        .entities
        .iter()
        .all(|e| e.label.starts_with("flow ")));
    assert!(attr
        .check
        .entities
        .iter()
        .all(|e| e.label.starts_with("req ")));

    // Wall clocks: entities are sub-intervals of their phase, where
    // nothing overlaps.
    assert!(attr.exec.entity_wall_sum() <= attr.exec.wall_us);
    assert!(attr.check.entity_wall_sum() <= attr.check.wall_us);

    // The arena profiles rode along.
    assert!(attr.levels.inner_nodes > 0);
    assert_eq!(
        attr.levels.inner_nodes,
        attr.levels.levels.iter().map(|l| l.nodes).sum::<usize>()
    );
    assert_eq!(attr.caches.len(), 11);
    for walked in ["apply", "range"] {
        assert!(attr.caches.iter().any(|c| c.name == walked && c.misses > 0));
    }
    for table in ["computed", "terminals", "unique"] {
        assert!(attr.caches.iter().any(|c| c.name == table));
    }
}

#[test]
fn attribution_reconciles_per_phase_on_fattree_m8() {
    // The acceptance workload: an m=8 fat-tree. Routing, execution and
    // the check all grow the one arena, so with GC off the three phases
    // add up exactly to its lifetime counter.
    let (ft, flows) = fattree_with_flows(8, 24);
    let tlp = Tlp::no_overload(&ft.net.topo, Ratio::new(95, 100));
    let mut v = YuVerifier::new(
        ft.net.clone(),
        YuOptions {
            k: 1,
            gc_node_threshold: 0,
            ..Default::default()
        },
    );
    v.add_flows(&flows);
    let out = v.verify(&tlp);
    let attr = v.attribution();
    assert!(attr.reconciles());
    assert_eq!(
        attr.route_nodes as i64 + attr.exec.nodes_delta + attr.check.nodes_delta,
        out.stats.mtbdd.nodes_created as i64,
        "route + exec + check must be the arena's growth"
    );
    // One entity per flow group, one per requirement checked.
    assert_eq!(attr.exec.entities.len(), out.stats.flow_groups);
    assert!(attr
        .exec
        .entities
        .iter()
        .all(|e| e.label.starts_with("flow ")));
    assert_eq!(attr.check.entities.len(), tlp.reqs.len());
    // Per-level attribution rides along and self-reconciles.
    assert!(!attr.levels.levels.is_empty());
    assert_eq!(
        attr.levels.inner_nodes,
        attr.levels.levels.iter().map(|l| l.nodes).sum::<usize>()
    );
}

#[test]
fn profiling_is_an_observer() {
    // Two verify calls on one verifier, with and without reading the
    // report between them: the second call's violations and the arena
    // statistics after it are identical.
    let run = |read: bool| {
        let ex = motivating_example();
        let mut v = YuVerifier::new(ex.net.clone(), YuOptions::default());
        v.add_flows(&ex.flows);
        let first = v.verify(&ex.p2);
        if read {
            let attr = v.attribution();
            assert_eq!(attr.check.entities.len(), ex.p2.reqs.len());
        }
        let second = v.verify(&ex.p2);
        (first, second, v.mtbdd_stats())
    };
    let (plain_first, plain, plain_stats) = run(false);
    let (read_first, read, read_stats) = run(true);
    assert_eq!(plain_first.violations, read_first.violations);
    assert!(!plain.verified());
    assert_eq!(plain.violations, read.violations);
    assert_eq!(plain.stats.mtbdd, read.stats.mtbdd);
    assert_eq!(plain_stats, read_stats);
}

#[test]
fn serve_requests_attribute_what_they_recompute() {
    // The fig1 edits a serve session sees — a cost flip and its restore,
    // a volume edit, a new requirement, a new flow, a no-op and a link
    // removal (a full rebuild) — each report one exec entity per group
    // the request executed and one check entity per requirement it
    // re-checked.
    let ex = motivating_example();
    let mut inc = IncrementalVerifier::new(
        ex.net.clone(),
        ex.flows.clone(),
        ex.p2.clone(),
        YuOptions::default(),
    );
    inc.verify();
    let topo = &ex.net.topo;
    let name = |r| topo.router(r).name.clone();
    let lk = topo.link(topo.links().next().expect("fig1 has links"));
    let (from, to, cost) = (name(lk.from), name(lk.to), lk.igp_cost);
    let set_cost = |cost| Change::SetLinkCost {
        from: from.clone(),
        to: to.clone(),
        index: 0,
        cost,
    };
    let last = topo.routers().last().map(name).expect("fig1 has routers");
    let script = [
        ("cost-flip", vec![set_cost(cost * 3 + 7)]),
        ("cost-restore", vec![set_cost(cost)]),
        (
            "volume-edit",
            vec![Change::SetFlowVolume {
                flow: 0,
                volume: ex.flows[0].volume.clone() * Ratio::int(2),
            }],
        ),
        (
            "new-req",
            vec![Change::AddReq {
                point: PointRef::Dropped {
                    router: last.clone(),
                },
                min: None,
                max: Some(Ratio::int(1_000_000)),
            }],
        ),
        (
            "flow-churn",
            vec![Change::AddFlow {
                ingress: last,
                src: yu::net::Ipv4::new(11, 99, 0, 1),
                dst: ex.flows[0].dst,
                dscp: 0,
                volume: Ratio::int(3),
            }],
        ),
        ("noop", vec![]),
        (
            "link-removal",
            vec![Change::RemoveLink { from, to, index: 0 }],
        ),
    ];
    for (step, changes) in script {
        inc.apply(&ChangeSet { changes })
            .unwrap_or_else(|e| panic!("{step}: {e:?}"));
        let delta = inc.delta_stats();
        let attr = inc.verifier().attribution();
        assert_eq!(
            attr.exec.entities.len(),
            delta.recomputed_groups,
            "{step}: {delta:?}"
        );
        assert_eq!(
            attr.check.entities.len(),
            delta.rechecked_reqs,
            "{step}: {delta:?}"
        );
        assert!(attr.reconciles(), "{step}");
    }
}
