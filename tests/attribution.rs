//! The attribution profiler's two contracts (DESIGN.md §9.6):
//!
//! 1. **Reconciliation** — per-entity node deltas telescope to the
//!    phase totals, and with GC off the phase totals telescope further
//!    to the arena's own lifetime counter: `route_nodes +
//!    exec.nodes_delta + check.nodes_delta == stats.mtbdd.nodes_created`,
//!    exactly.
//! 2. **Observation only** — a profiled run is bit-identical to a plain
//!    run: same verdicts, same violations, same arena statistics.

use yu::core::{YuOptions, YuVerifier};
use yu::gen::{fattree_with_flows, motivating_example};
use yu::mtbdd::Ratio;
use yu::net::Tlp;

/// One profiled verification of the fig1 example.
fn run_fig1(opts: YuOptions) -> yu::core::VerificationOutcome {
    let ex = motivating_example();
    let mut v = YuVerifier::new(ex.net.clone(), opts);
    v.add_flows(&ex.flows);
    v.verify(&ex.p2)
}

#[test]
fn sequential_attribution_reconciles_exactly_with_the_arena() {
    // GC off: every node the run creates is measured by exactly one
    // contiguous per-entity window, so the telescoping sum must land on
    // the arena's lifetime counter to the node.
    let out = run_fig1(YuOptions {
        k: 1,
        profile: true,
        gc_node_threshold: 0,
        ..Default::default()
    });
    let attr = out.stats.attribution.as_ref().expect("profile run");
    assert!(attr.reconciles(), "entity deltas must telescope per phase");
    assert_eq!(
        attr.route_nodes as i64 + attr.exec.nodes_delta + attr.check.nodes_delta,
        out.stats.mtbdd.nodes_created as i64,
        "phase deltas must telescope to the arena lifetime counter"
    );

    // Entity coverage: one cost per flow group, one per checked
    // requirement.
    assert_eq!(attr.exec.entities.len(), out.stats.flow_groups);
    let ex = motivating_example();
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
    assert_eq!(attr.caches.len(), 9);
    for walked in ["apply", "range"] {
        assert!(attr.caches.iter().any(|c| c.name == walked && c.misses > 0));
    }
    assert!(attr.caches.iter().any(|c| c.name == "unique"));
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
            profile: true,
            gc_node_threshold: 0,
            ..Default::default()
        },
    );
    v.add_flows(&flows);
    let out = v.verify(&tlp);
    let attr = out.stats.attribution.as_ref().expect("profile run");
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
    let run = |profile: bool| {
        run_fig1(YuOptions {
            k: 1,
            profile,
            ..Default::default()
        })
    };
    let plain = run(false);
    let profiled = run(true);
    assert!(plain.stats.attribution.is_none());
    assert!(profiled.stats.attribution.is_some());
    assert_eq!(plain.verified(), profiled.verified());
    assert_eq!(
        format!("{:?}", plain.violations),
        format!("{:?}", profiled.violations)
    );
    assert_eq!(
        plain.stats.mtbdd.nodes_created,
        profiled.stats.mtbdd.nodes_created
    );
    assert_eq!(plain.stats.flow_groups, profiled.stats.flow_groups);
}
