//! Property test for the incremental re-verification engine: random
//! sequences of 1–10 change-sets applied to random WAN and fattree
//! specs, with every step's incremental verdict, violation list, and
//! `flow_results()` compared bit-for-bit against a from-scratch run on
//! the same inputs — across both failure modes and worker counts 1 / 4.
//!
//! After every random change-set come two deterministic ones: one that
//! re-weighs every flow of one group, so that cached loads move by a
//! delta where the group shares a point with other classes and take the
//! full re-sum where it does not; and one that changes nothing (a cost
//! or volume set to its current value, a flow added and removed again,
//! a requirement re-bounded to its bounds), which must reuse everything.
//!
//! The change generator draws only names and indices valid in the
//! *current* state, so most change-sets apply. Every set is committed the
//! way `yu serve` commits one ([`apply_valid`]): one that does not apply,
//! or whose result has a lint error `yu verify` would refuse, must be
//! rejected atomically — the post-error state must keep matching a
//! scratch run on the pre-error inputs.

use yu::core::{IncrementalVerifier, YuOptions, YuVerifier};
use yu::gen::{fattree_with_flows, wan, WanParams};
use yu::mtbdd::{Ratio, Term};
use yu::net::{Change, ChangeSet, FailureMode, Flow, Ipv4, LoadPoint, Network, PointRef, Tlp};
use yu::routing::DstClasses;
use yu::serve::apply_valid;

/// A splitmix-style deterministic generator (no external crates).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

fn router_name(net: &Network, rng: &mut Rng) -> String {
    let routers: Vec<_> = net.topo.routers().collect();
    let r = routers[rng.below(routers.len())];
    net.topo.router(r).name.clone()
}

/// One random change, valid against the current `(net, flows, tlp)`.
fn random_change(
    net: &Network,
    flows: &[Flow],
    tlp: &Tlp,
    rng: &mut Rng,
    fresh: &mut u32,
) -> Change {
    loop {
        match rng.below(10) {
            0 => {
                let links: Vec<_> = net.topo.links().collect();
                let l = links[rng.below(links.len())];
                let lk = net.topo.link(l);
                return Change::SetLinkCost {
                    from: net.topo.router(lk.from).name.clone(),
                    to: net.topo.router(lk.to).name.clone(),
                    index: 0,
                    cost: 1 + rng.below(100) as u64,
                };
            }
            1 if !flows.is_empty() => {
                return Change::SetFlowVolume {
                    flow: rng.below(flows.len()),
                    volume: Ratio::int(1 + rng.below(50) as i64),
                };
            }
            2 => {
                // A new flow toward an address some existing flow already
                // uses (so it usually routes), from a random ingress.
                let dst = if flows.is_empty() {
                    Ipv4::new(10, 0, 0, 1)
                } else {
                    flows[rng.below(flows.len())].dst
                };
                *fresh += 1;
                return Change::AddFlow {
                    ingress: router_name(net, rng),
                    src: Ipv4::new(172, 16, (*fresh >> 8) as u8, *fresh as u8),
                    dst,
                    dscp: 0,
                    volume: Ratio::int(1 + rng.below(20) as i64),
                };
            }
            3 if flows.len() > 1 => {
                return Change::RemoveFlow {
                    flow: rng.below(flows.len()),
                };
            }
            4 => {
                let point = match rng.below(3) {
                    0 => {
                        let links: Vec<_> = net.topo.links().collect();
                        let l = links[rng.below(links.len())];
                        PointRef::of(LoadPoint::Link(l), &net.topo)
                    }
                    1 => PointRef::Delivered {
                        router: router_name(net, rng),
                    },
                    _ => PointRef::Dropped {
                        router: router_name(net, rng),
                    },
                };
                return Change::AddReq {
                    point,
                    min: None,
                    max: Some(Ratio::int(1 + rng.below(500) as i64)),
                };
            }
            5 if tlp.reqs.len() > 1 => {
                return Change::RemoveReq {
                    req: rng.below(tlp.reqs.len()),
                };
            }
            6 if !tlp.reqs.is_empty() => {
                return Change::SetReqBounds {
                    req: rng.below(tlp.reqs.len()),
                    min: None,
                    max: Some(Ratio::int(1 + rng.below(500) as i64)),
                };
            }
            7 => {
                let a = router_name(net, rng);
                let b = router_name(net, rng);
                if a != b {
                    return Change::AddLink {
                        a,
                        b,
                        cost: 1 + rng.below(50) as u64,
                        capacity: Ratio::int(100),
                    };
                }
            }
            8 if net.topo.num_ulinks() > net.topo.num_routers() => {
                let ulinks: Vec<_> = net.topo.ulinks().collect();
                let u = ulinks[rng.below(ulinks.len())];
                let (fwd, _) = net.topo.directions(u);
                let lk = net.topo.link(fwd);
                return Change::RemoveLink {
                    from: net.topo.router(lk.from).name.clone(),
                    to: net.topo.router(lk.to).name.clone(),
                    index: 0,
                };
            }
            9 => {
                *fresh += 1;
                return Change::AddRouter {
                    name: format!("Z{fresh}"),
                    loopback: Ipv4::new(99, 99, (*fresh >> 8) as u8, *fresh as u8),
                    asn: 64_000 + *fresh,
                };
            }
            _ => {}
        }
    }
}

/// A change set that leaves `(net, flows, tlp)` as it is, one of four
/// shapes picked by `step`: a link cost set to its current value, a
/// volume set to its current value, a flow added and removed again, and
/// a requirement re-bounded to its current bounds. Draws nothing from the
/// generator, so the random sequences around it stay what they were.
fn noop_changes(net: &Network, flows: &[Flow], tlp: &Tlp, step: usize) -> Vec<Change> {
    match step % 4 {
        0 => {
            let lk = net
                .topo
                .link(yu::net::LinkId((step % net.topo.num_links()) as u32));
            vec![Change::SetLinkCost {
                from: net.topo.router(lk.from).name.clone(),
                to: net.topo.router(lk.to).name.clone(),
                index: 0,
                cost: lk.igp_cost,
            }]
        }
        1 if !flows.is_empty() => {
            let flow = step % flows.len();
            vec![Change::SetFlowVolume {
                flow,
                volume: flows[flow].volume.clone(),
            }]
        }
        3 if !tlp.reqs.is_empty() => {
            let req = step % tlp.reqs.len();
            vec![Change::SetReqBounds {
                req,
                min: tlp.reqs[req].min.clone(),
                max: tlp.reqs[req].max.clone(),
            }]
        }
        _ => {
            let ingress = net.topo.routers().next().expect("routers");
            vec![
                Change::AddFlow {
                    ingress: net.topo.router(ingress).name.clone(),
                    src: Ipv4::new(192, 0, 2, 1),
                    dst: Ipv4::new(10, 0, 0, 1),
                    dscp: 0,
                    volume: Ratio::int(7),
                },
                Change::RemoveFlow { flow: flows.len() },
            ]
        }
    }
}

/// Every flow of the group of flow `step % flows.len()` (same ingress,
/// destination class and DSCP), its volume doubled on even steps and
/// halved on odd ones. Draws nothing from the generator, so the random
/// sequences around it stay what they were.
fn group_volume_changes(net: &Network, flows: &[Flow], step: usize) -> Vec<Change> {
    if flows.is_empty() {
        return Vec::new();
    }
    let classes = DstClasses::of(net);
    let key = |f: &Flow| (f.ingress, classes.class_of(f.dst), f.dscp);
    let group = key(&flows[step % flows.len()]);
    let factor = if step.is_multiple_of(2) {
        Ratio::int(2)
    } else {
        Ratio::new(1, 2)
    };
    flows
        .iter()
        .enumerate()
        .filter(|(_, f)| key(f) == group)
        .map(|(flow, f)| Change::SetFlowVolume {
            flow,
            volume: f.volume.clone() * factor.clone(),
        })
        .collect()
}

/// A copy of the inputs the verifier holds.
fn inputs(inc: &IncrementalVerifier) -> (Network, Vec<Flow>, Tlp) {
    (
        inc.network().clone(),
        inc.flows().to_vec(),
        inc.tlp().clone(),
    )
}

/// The semantic signature of `flow_results()`.
#[allow(clippy::type_complexity)]
fn flow_signature(
    v: &YuVerifier,
) -> Vec<(
    (yu::net::RouterId, Ipv4, Ipv4, u8),
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

fn assert_matches_scratch(
    ctx: &str,
    inc: &IncrementalVerifier,
    inc_violations: &[yu::core::Violation],
) {
    let mut fresh = YuVerifier::new(inc.network().clone(), inc.verifier().options());
    fresh.add_flows(inc.flows());
    let fresh_out = fresh.verify(inc.tlp());
    assert_eq!(
        fresh_out.violations, inc_violations,
        "{ctx}: violation list differs from scratch"
    );
    assert_eq!(
        flow_signature(&fresh),
        flow_signature(inc.verifier()),
        "{ctx}: flow_results differ from scratch"
    );
}

fn run_sequence(seed: u64, net: Network, flows: Vec<Flow>, tlp: Tlp, mode: FailureMode) {
    let opts = YuOptions {
        k: 1,
        mode,
        ..Default::default()
    };
    run_sequence_with(seed, net, flows, tlp, opts);
}

/// Returns the garbage collections the session's arena ran.
fn run_sequence_with(seed: u64, net: Network, flows: Vec<Flow>, tlp: Tlp, opts: YuOptions) -> u64 {
    let mode = opts.mode;
    let mut rng = Rng(seed);
    let mut fresh_ids = 0u32;
    let mut inc = IncrementalVerifier::new(net, flows, tlp, opts);
    let out = inc.verify();
    assert_matches_scratch(
        &format!("seed={seed} mode={mode:?} base"),
        &inc,
        &out.violations,
    );
    let steps = 1 + rng.below(10);
    let mut last_violations = out.violations;
    for step in 0..steps {
        let n_changes = 1 + rng.below(3);
        let changes: Vec<Change> = {
            // Draw each change against the state the previous ones would
            // produce is overkill; drawing against the current committed
            // state keeps most sets valid, and invalid ones must be
            // rejected atomically anyway.
            (0..n_changes)
                .map(|_| {
                    random_change(
                        inc.network(),
                        inc.flows(),
                        inc.tlp(),
                        &mut rng,
                        &mut fresh_ids,
                    )
                })
                .collect()
        };
        let ctx = format!("seed={seed} mode={mode:?} step={step} changes={changes:?}");
        match apply_valid(&mut inc, &ChangeSet { changes }) {
            Ok(out) => {
                last_violations = out.violations;
                assert_matches_scratch(&ctx, &inc, &last_violations);
            }
            Err(_) => {
                // Rejected: the committed state must be untouched.
                assert_matches_scratch(&format!("{ctx} (rejected)"), &inc, &last_violations);
            }
        }
        let changes = group_volume_changes(inc.network(), inc.flows(), step);
        if !changes.is_empty() {
            let ctx = format!("seed={seed} mode={mode:?} step={step} group={changes:?}");
            let out = apply_valid(&mut inc, &ChangeSet { changes })
                .unwrap_or_else(|e| panic!("{ctx}: {e}"));
            assert_matches_scratch(&ctx, &inc, &out.violations);
            last_violations = out.violations;
        }
        // A set that changes nothing must answer like the state it keeps
        // and, when it indeed changed nothing, re-execute nothing.
        let changes = noop_changes(inc.network(), inc.flows(), inc.tlp(), step);
        let ctx = format!("seed={seed} mode={mode:?} step={step} no-op={changes:?}");
        let before = inputs(&inc);
        let out =
            apply_valid(&mut inc, &ChangeSet { changes }).unwrap_or_else(|e| panic!("{ctx}: {e}"));
        assert_matches_scratch(&ctx, &inc, &out.violations);
        if before == inputs(&inc) {
            let d = inc.delta_stats();
            assert_eq!((d.recomputed_groups, d.dirty_points), (0, 0), "{ctx}");
            assert_eq!(out.violations, last_violations, "{ctx}");
        }
        last_violations = out.violations;
    }
    inc.verifier().mtbdd_stats().gc_runs
}

fn wan_spec(seed: u64) -> (Network, Vec<Flow>, Tlp) {
    let w = wan(WanParams {
        core_routers: 4,
        stub_routers: 2,
        extra_core_links: 2,
        prefixes: 6,
        sr_policies: 1,
        seed,
    });
    let flows = w.flows(12, seed ^ 0x5a5a);
    let tlp = Tlp::no_overload(&w.net.topo, Ratio::new(95, 100));
    (w.net, flows, tlp)
}

fn fattree_spec() -> (Network, Vec<Flow>, Tlp) {
    let (ft, flows) = fattree_with_flows(4, 16);
    let tlp = Tlp::no_overload(&ft.net.topo, Ratio::new(95, 100));
    (ft.net, flows, tlp)
}

#[test]
fn wan_random_sequences_links_mode() {
    for seed in [11, 29] {
        let (net, flows, tlp) = wan_spec(seed);
        run_sequence(seed, net, flows, tlp, FailureMode::Links);
    }
}

/// The same law with the arena collected whenever it has doubled: the
/// check stage's range memo holds handles, and must not outlive them.
#[test]
fn fattree_random_sequences_across_collections() {
    // Two seeds whose sessions grow enough to collect a second time.
    for seed in [20, 34] {
        let (net, flows, tlp) = fattree_spec();
        let opts = YuOptions {
            k: 1,
            gc_node_threshold: 1,
            ..Default::default()
        };
        let gc_runs = run_sequence_with(seed, net, flows, tlp, opts);
        assert!(gc_runs > 1, "seed {seed}: the session must collect mid-way");
    }
}

#[test]
fn wan_random_sequences_routers_mode() {
    let (net, flows, tlp) = wan_spec(17);
    run_sequence(17, net, flows, tlp, FailureMode::Routers);
}

#[test]
fn wan_random_sequences_links_mode_seed_43() {
    let (net, flows, tlp) = wan_spec(43);
    run_sequence(43, net, flows, tlp, FailureMode::Links);
}

#[test]
fn fattree_random_sequences_links_mode() {
    let (net, flows, tlp) = fattree_spec();
    run_sequence(7, net, flows, tlp, FailureMode::Links);
}

/// The `_parallel` suffix is historical: a session executes and checks
/// sequentially.
#[test]
fn fattree_random_sequences_routers_mode_parallel() {
    let (net, flows, tlp) = fattree_spec();
    run_sequence(13, net, flows, tlp, FailureMode::Routers);
}
