//! Differential tests for the check stage and its callers: for every
//! built-in example and both failure modes, a run with
//! `check_workers > 1` (per-worker overlays on the frozen main arena,
//! running the same requirement loop) must be indistinguishable from the
//! sequential checker — same `VerificationOutcome`, bit-identical
//! violation list (including counterexample scenarios and violating
//! loads), same aggregation statistics, and the same concrete load at
//! every sampled scenario and load point. Enumerated verification
//! (`verify_enumerated`), the `early_stop`/ablation option combinations
//! and the incremental engine's first verification are covered too, and
//! the per-flow ablation (`use_global_equiv: false`) must report the
//! violations of the class-grouped run.

use yu::core::{IncrementalVerifier, YuOptions, YuVerifier};
use yu::gen::{
    fattree_with_flows, motivating_example, sr_anycast_incident, static_blackhole_incident, wan,
    WanParams,
};
use yu::mtbdd::Ratio;
use yu::net::{scenarios_up_to_k, FailureMode, Flow, LoadPoint, Network, Scenario, Tlp};

struct Instance {
    name: &'static str,
    net: Network,
    flows: Vec<Flow>,
    tlp: Tlp,
    k: u32,
}

/// Every built-in `yu export` example (fig1, fig9, fig10, ft4) plus a
/// small random WAN.
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

fn run(inst: &Instance, mode: FailureMode, opts: YuOptions) -> YuVerifier {
    let mut v = YuVerifier::new(
        inst.net.clone(),
        YuOptions {
            k: inst.k,
            mode,
            ..opts
        },
    );
    v.add_flows(&inst.flows);
    v
}

fn opts_with_check_workers(w: usize) -> YuOptions {
    YuOptions {
        check_workers: w,
        ..Default::default()
    }
}

/// All load points of a network (links plus per-router pseudo-sinks).
fn all_points(net: &Network) -> Vec<LoadPoint> {
    let mut pts: Vec<LoadPoint> = net.topo.links().map(LoadPoint::Link).collect();
    for r in net.topo.routers() {
        pts.push(LoadPoint::Delivered(r));
        pts.push(LoadPoint::Dropped(r));
    }
    pts
}

/// Sampled `≤ k` scenarios: every scenario for small spaces, every third
/// for larger ones.
fn sampled_scenarios(net: &Network, mode: FailureMode, k: u32) -> Vec<Scenario> {
    let all: Vec<Scenario> = scenarios_up_to_k(&net.topo, mode, k as usize).collect();
    let step = if all.len() > 200 { 3 } else { 1 };
    all.into_iter().step_by(step).collect()
}

/// The core differential assertion: `check_workers = 1` vs each entry of
/// `worker_counts` must agree on everything observable, for both plain
/// and enumerated verification.
fn assert_check_matches_sequential(inst: &Instance, mode: FailureMode, worker_counts: &[usize]) {
    let mut seq = run(inst, mode, YuOptions::default());
    let seq_out = seq.verify(&inst.tlp);
    let seq_enum = seq.verify_enumerated(&inst.tlp, 4);
    let points = all_points(&inst.net);
    let scenarios = sampled_scenarios(&inst.net, mode, inst.k);
    for &w in worker_counts {
        let ctx = format!("{} mode={mode:?} check_workers={w}", inst.name);
        let mut par = run(inst, mode, opts_with_check_workers(w));
        let par_out = par.verify(&inst.tlp);
        // A single requirement legitimately falls back to the sequential
        // checker, and a worker builds nothing for a requirement the
        // interval test decides; otherwise the sharded checker must
        // actually have run.
        let reqs = inst.tlp.reqs.len();
        if reqs > 1 && par_out.stats.reqs_bound_decided < reqs {
            assert!(
                par_out.stats.mtbdd_workers.nodes_created > 0,
                "{ctx}: parallel check must report worker arena stats"
            );
        }
        assert_eq!(
            seq_out.verified(),
            par_out.verified(),
            "{ctx}: verdict differs"
        );
        assert_eq!(
            seq_out.violations, par_out.violations,
            "{ctx}: violation list differs (must be bit-identical)"
        );
        for (point, stats) in &seq_out.stats.per_point {
            assert_eq!(
                Some(stats),
                par_out.stats.per_point.get(point),
                "{ctx}: aggregation stats differ at {point:?}"
            );
        }
        assert_eq!(
            seq_out.stats.per_point.len(),
            par_out.stats.per_point.len(),
            "{ctx}: per-point stats cover different requirement sets"
        );
        // Enumerated verification: full per-requirement violation sets,
        // deduped and sorted — must also match exactly.
        let par_enum = par.verify_enumerated(&inst.tlp, 4);
        assert_eq!(
            seq_enum.violations, par_enum.violations,
            "{ctx}: enumerated violation list differs"
        );
        // The main arena still serves loads after a parallel check; the
        // concrete loads must be unchanged.
        for &p in &points {
            for s in &scenarios {
                assert_eq!(
                    seq.load_at(p, s),
                    par.load_at(p, s),
                    "{ctx}: load differs at {p:?} under {s:?}"
                );
            }
        }
    }
}

#[test]
fn fig1_check_matches_sequential_both_modes() {
    let inst = &instances()[0];
    for mode in [FailureMode::Links, FailureMode::Routers] {
        assert_check_matches_sequential(inst, mode, &[4, 8]);
    }
}

#[test]
fn fig9_check_matches_sequential_both_modes() {
    let inst = &instances()[1];
    for mode in [FailureMode::Links, FailureMode::Routers] {
        assert_check_matches_sequential(inst, mode, &[4, 8]);
    }
}

#[test]
fn fig10_check_matches_sequential_both_modes() {
    let inst = &instances()[2];
    for mode in [FailureMode::Links, FailureMode::Routers] {
        assert_check_matches_sequential(inst, mode, &[4, 8]);
    }
}

#[test]
fn ft4_check_matches_sequential_both_modes() {
    let inst = &instances()[3];
    for mode in [FailureMode::Links, FailureMode::Routers] {
        assert_check_matches_sequential(inst, mode, &[4, 8]);
    }
}

#[test]
fn wan_check_matches_sequential_both_modes() {
    let inst = &instances()[4];
    for mode in [FailureMode::Links, FailureMode::Routers] {
        assert_check_matches_sequential(inst, mode, &[4, 8]);
    }
}

/// `early_stop` in parallel mode reproduces the sequential prefix: only
/// the first violating requirement is reported, and per-point statistics
/// stop at it.
#[test]
fn early_stop_truncates_to_sequential_prefix() {
    let inst = &instances()[3];
    let opts = YuOptions {
        early_stop: true,
        ..Default::default()
    };
    let mut seq = run(inst, FailureMode::Links, opts);
    let mut par = run(
        inst,
        FailureMode::Links,
        YuOptions {
            early_stop: true,
            check_workers: 4,
            ..Default::default()
        },
    );
    let so = seq.verify(&inst.tlp);
    let po = par.verify(&inst.tlp);
    assert_eq!(so.violations, po.violations);
    assert_eq!(so.stats.per_point.len(), po.stats.per_point.len());
}

/// The Fig. 13/15 ablation options flow through the parallel checker:
/// disabling link-local equivalence or KREDUCE must not change verdicts
/// between sequential and sharded checking.
#[test]
fn ablation_options_match_sequential() {
    let inst = &instances()[0];
    for (lle, kred) in [(false, true), (true, false), (false, false)] {
        let opts = YuOptions {
            use_link_local_equiv: lle,
            use_kreduce: kred,
            ..Default::default()
        };
        let mut seq = run(inst, FailureMode::Links, opts);
        let mut par = run(
            inst,
            FailureMode::Links,
            YuOptions {
                use_link_local_equiv: lle,
                use_kreduce: kred,
                check_workers: 4,
                ..Default::default()
            },
        );
        let so = seq.verify(&inst.tlp);
        let po = par.verify(&inst.tlp);
        assert_eq!(
            so.violations, po.violations,
            "lle={lle} kreduce={kred}: violations differ"
        );
        for (point, stats) in &so.stats.per_point {
            assert_eq!(Some(stats), po.stats.per_point.get(point));
        }
    }
}

/// `--check-workers 64` with fewer requirements than workers degrades
/// gracefully.
#[test]
fn more_check_workers_than_requirements() {
    let inst = &instances()[0];
    let mut seq = run(inst, FailureMode::Links, YuOptions::default());
    let mut par = run(inst, FailureMode::Links, opts_with_check_workers(64));
    assert_eq!(
        seq.verify(&inst.tlp).violations,
        par.verify(&inst.tlp).violations
    );
}

/// Every caller of the check stage — `verify`, `verify_enumerated(_, 1)`,
/// a sharded run, and `IncrementalVerifier::verify` — reports the same
/// verdicts, aggregation statistics and bound-decided count; the callers
/// that run on the main arena also leave it the same size, to the node.
#[test]
fn every_caller_agrees_to_the_node() {
    for inst in &instances() {
        for mode in [FailureMode::Links, FailureMode::Routers] {
            let ctx = format!("{} mode={mode:?}", inst.name);
            let sequential = opts_with_check_workers(1);
            let plain = run(inst, mode, sequential).verify(&inst.tlp);
            let enumerated = run(inst, mode, sequential).verify_enumerated(&inst.tlp, 1);
            let sharded = run(inst, mode, opts_with_check_workers(4)).verify(&inst.tlp);
            let incremental = IncrementalVerifier::new(
                inst.net.clone(),
                inst.flows.clone(),
                inst.tlp.clone(),
                YuOptions {
                    k: inst.k,
                    mode,
                    ..sequential
                },
            )
            .verify();
            // The incremental engine always records route dependencies.
            let traced = YuOptions {
                record_route_deps: true,
                ..sequential
            };
            let traced = run(inst, mode, traced).verify(&inst.tlp);
            // Executing every flow by itself finds what the class-grouped
            // run finds: a representative stands for its group.
            let per_flow = YuOptions {
                use_global_equiv: false,
                ..sequential
            };
            let per_flow = run(inst, mode, per_flow).verify(&inst.tlp);
            assert_eq!(
                plain.violations, per_flow.violations,
                "{ctx}: use_global_equiv: false"
            );
            for (caller, out) in [
                ("verify_enumerated(_, 1)", &enumerated),
                ("check_workers: 4", &sharded),
                ("IncrementalVerifier::verify", &incremental),
            ] {
                assert_eq!(plain.violations, out.violations, "{ctx}: {caller}");
                assert_eq!(
                    plain.stats.per_point, out.stats.per_point,
                    "{ctx}: {caller}"
                );
                assert_eq!(
                    plain.stats.reqs_bound_decided, out.stats.reqs_bound_decided,
                    "{ctx}: {caller}"
                );
            }
            assert_eq!(
                plain.stats.mtbdd.nodes_created, enumerated.stats.mtbdd.nodes_created,
                "{ctx}: verify vs verify_enumerated(_, 1)"
            );
            assert_eq!(
                traced.stats.mtbdd.nodes_created, incremental.stats.mtbdd.nodes_created,
                "{ctx}: batch (route deps recorded) vs IncrementalVerifier::verify"
            );
        }
    }
}
