//! One validity rule for every input: random change sets, hostile ones
//! included, on the built-in presets (`yu export`) in both failure modes.
//! For every set,
//!
//! * a `ServeSession` accepts it exactly when `ChangeSet::apply` builds a
//!   state and `lint_spec` finds no error on that state;
//! * `yu diff` from the session's state to that state (spec files, checked
//!   like `yu verify` checks them) refuses it with exit 2 and the same
//!   diagnostics exactly then, and otherwise reports the session's
//!   verdict;
//! * every accepted set is answered exactly as a second session answers
//!   it that never saw the refused sets, apart from the `*_secs` timings
//!   and the lifetime error count — in particular the first set after a
//!   refused one.

use serde::Value;
use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;
use yu::core::YuOptions;
use yu::mtbdd::Ratio;
use yu::net::{
    Change, ChangeSet, FailureMode, Flow, Ipv4, Network, PointRef, RouterId, StaticNextHop,
    StaticRoute, Tlp,
};
use yu::serve::ServeSession;
use yu::spec::VerifySpec;

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

fn yu(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_yu"))
        .args(args)
        .output()
        .expect("yu runs")
}

fn preset(name: &str) -> VerifySpec {
    let out = yu(&["export", name]);
    assert!(out.status.success(), "yu export {name}");
    VerifySpec::from_json(std::str::from_utf8(&out.stdout).unwrap()).unwrap()
}

fn router_name(net: &Network, rng: &mut Rng) -> String {
    let routers: Vec<_> = net.topo.routers().collect();
    net.topo
        .router(routers[rng.below(routers.len())])
        .name
        .clone()
}

/// A volume that is negative a third of the time and zero a sixth.
fn volume(rng: &mut Rng) -> Ratio {
    match rng.below(6) {
        0 => Ratio::int(-5),
        1 => Ratio::new(-1, 2),
        2 => Ratio::ZERO,
        _ => Ratio::int(1 + rng.below(50) as i64),
    }
}

/// One random change against the current state. Besides ordinary edits it
/// draws negative and zero volumes, zero and negative capacities, router
/// removals (SR segment owners and static next hops among them), anycast
/// copies of a loopback in the owner's AS or another one, lower bounds no
/// traffic can meet, and names or indices that do not exist.
fn random_change(
    net: &Network,
    flows: &[Flow],
    tlp: &Tlp,
    rng: &mut Rng,
    fresh: &mut u32,
) -> Change {
    let topo = &net.topo;
    loop {
        match rng.below(10) {
            0 if !flows.is_empty() => {
                return Change::SetFlowVolume {
                    flow: rng.below(flows.len()),
                    volume: volume(rng),
                }
            }
            1 if !flows.is_empty() => {
                return Change::AddFlow {
                    ingress: router_name(net, rng),
                    src: Ipv4::new(172, 16, 0, rng.below(250) as u8),
                    dst: flows[rng.below(flows.len())].dst,
                    dscp: 0,
                    volume: volume(rng),
                }
            }
            2 => {
                let (a, b) = (router_name(net, rng), router_name(net, rng));
                if a != b {
                    let capacity =
                        [Ratio::ZERO, Ratio::int(-40), Ratio::int(100)][rng.below(3)].clone();
                    return Change::AddLink {
                        a,
                        b,
                        cost: 1 + rng.below(50) as u64,
                        capacity,
                    };
                }
            }
            3 | 4 if topo.num_routers() > 2 => {
                return Change::RemoveRouter {
                    router: router_name(net, rng),
                }
            }
            5 => {
                let routers: Vec<_> = topo.routers().collect();
                let owner = topo.router(routers[rng.below(routers.len())]);
                *fresh += 1;
                return Change::AddRouter {
                    name: format!("Z{fresh}"),
                    loopback: owner.loopback,
                    asn: if rng.below(2) == 0 {
                        owner.asn
                    } else {
                        64_000 + *fresh
                    },
                };
            }
            6 if topo.num_links() > 0 => {
                let links: Vec<_> = topo.links().collect();
                let lk = topo.link(links[rng.below(links.len())]);
                return Change::SetLinkCost {
                    from: topo.router(lk.from).name.clone(),
                    to: topo.router(lk.to).name.clone(),
                    index: 0,
                    cost: 1 + rng.below(100) as u64,
                };
            }
            7 => {
                return Change::AddReq {
                    point: PointRef::Delivered {
                        router: router_name(net, rng),
                    },
                    min: Some(Ratio::int(rng.below(2000) as i64)),
                    max: None,
                }
            }
            8 if topo.num_ulinks() > topo.num_routers() => {
                let ulinks: Vec<_> = topo.ulinks().collect();
                let (fwd, _) = topo.directions(ulinks[rng.below(ulinks.len())]);
                let lk = topo.link(fwd);
                return Change::RemoveLink {
                    from: topo.router(lk.from).name.clone(),
                    to: topo.router(lk.to).name.clone(),
                    index: 0,
                };
            }
            9 => {
                return if rng.below(2) == 0 {
                    Change::RemoveRouter {
                        router: "NOPE".into(),
                    }
                } else {
                    Change::RemoveReq {
                        req: tlp.reqs.len(),
                    }
                }
            }
            _ => {}
        }
    }
}

/// A response without what differs between two sessions that answered the
/// same accepted sets: the `*_secs` timings and the lifetime error count.
fn timeless(v: &Value) -> Value {
    match v {
        Value::Map(m) => Value::Map(
            m.iter()
                .filter(|(k, _)| !k.ends_with("_secs") && k.as_str() != "errors")
                .map(|(k, v)| (k.clone(), timeless(v)))
                .collect(),
        ),
        Value::Seq(s) => Value::Seq(s.iter().map(timeless).collect()),
        v => v.clone(),
    }
}

fn field<'a>(v: &'a Value, name: &str) -> &'a Value {
    v.as_object()
        .and_then(|m| m.get(name))
        .unwrap_or_else(|| panic!("no {name:?} in {v}"))
}

fn write_spec(path: &Path, net: &Network, flows: &[Flow], tlp: &Tlp, k: u32, mode: FailureMode) {
    let spec = VerifySpec {
        network: net.clone(),
        flows: flows.to_vec(),
        tlp: tlp.clone(),
        k,
        mode,
    };
    std::fs::write(path, spec.to_json()).unwrap();
}

/// Runs `sets` random change sets on preset `name`; returns the lint codes
/// of the refusals.
fn run_preset(name: &str, mode: FailureMode, seed: u64, sets: usize) -> BTreeSet<String> {
    let mut spec = VerifySpec {
        mode,
        ..preset(name)
    };
    // A static route on the first router whose next hop is the last
    // router's loopback, so that removing that router is refused (YU011).
    let topo = &spec.network.topo;
    let (first, last) = (RouterId(0), RouterId(topo.num_routers() as u32 - 1));
    let next_hop = StaticNextHop::Ip(topo.router(last).loopback);
    spec.network
        .config_mut(first)
        .static_routes
        .push(StaticRoute {
            prefix: "203.0.113.0/24".parse().unwrap(),
            next_hop,
        });
    assert!(!spec.has_errors(), "{name}");
    let opts = YuOptions {
        k: spec.k,
        mode,
        ..Default::default()
    };
    // `every` sees every set; `accepted` only the sets `every` accepts.
    let mut every = ServeSession::new(&spec, opts);
    let mut accepted = ServeSession::new(&spec, opts);
    let dir = std::env::temp_dir();
    let tag = format!("yu-serve-validity-{}-{name}-{mode:?}", std::process::id());
    let (old_path, new_path) = (
        dir.join(format!("{tag}-old.json")),
        dir.join(format!("{tag}-new.json")),
    );
    let (old_arg, new_arg) = (old_path.to_str().unwrap(), new_path.to_str().unwrap());
    let mut rng = Rng(seed);
    let mut fresh = 0;
    let mut refused = 0;
    let mut codes = BTreeSet::new();
    for id in 0..sets {
        let inc = every.verifier();
        let (net, flows, tlp) = (
            inc.network().clone(),
            inc.flows().to_vec(),
            inc.tlp().clone(),
        );
        let mut cs = ChangeSet::default();
        for _ in 0..1 + rng.below(3) {
            let change = random_change(&net, &flows, &tlp, &mut rng, &mut fresh);
            // Half the anycast copies take the loopback over: the set
            // also removes its first owner.
            let taken = match &change {
                Change::AddRouter { loopback, .. } if rng.below(2) == 0 => {
                    Some(net.topo.loopback_owners(*loopback)[0])
                }
                _ => None,
            };
            cs.changes.push(change);
            if let Some(owner) = taken {
                cs.changes.push(Change::RemoveRouter {
                    router: net.topo.router(owner).name.clone(),
                });
            }
        }
        let ctx = format!("{name} {mode:?} set {id}: {:?}", cs.changes);
        let line = format!(
            r#"{{"id": {id}, "changes": {}}}"#,
            serde_json::to_string(&cs.changes).unwrap()
        );
        let response: Value = serde_json::from_str(&every.handle_line(&line)).unwrap();
        let ok = field(&response, "ok") == &Value::Bool(true);

        // The rule, evaluated here from its parts.
        let Ok((new_net, new_flows, new_tlp, _)) = cs.apply(&net, &flows, &tlp) else {
            assert!(!ok, "{ctx}: a set `ChangeSet::apply` refuses was accepted");
            refused += 1;
            continue;
        };
        let errors: Vec<String> =
            yu::analysis::lint_spec(&new_net, &new_flows, &new_tlp, spec.k, mode)
                .iter()
                .filter(|d| d.is_error())
                .map(ToString::to_string)
                .collect();
        assert_eq!(ok, errors.is_empty(), "{ctx}: {response} vs {errors:?}");

        // `yu diff` checks the new spec file by the same rule.
        write_spec(&old_path, &net, &flows, &tlp, spec.k, mode);
        write_spec(&new_path, &new_net, &new_flows, &new_tlp, spec.k, mode);
        let out = yu(&["diff", old_arg, new_arg, "--json"]);
        let stderr = String::from_utf8(out.stderr).unwrap();
        if ok {
            assert!(matches!(out.status.code(), Some(0 | 1)), "{ctx}: {stderr}");
            let diff: Value =
                serde_json::from_str(std::str::from_utf8(&out.stdout).unwrap()).unwrap();
            for key in ["verified", "violations"] {
                assert_eq!(field(&diff, key), field(&response, key), "{ctx}: {key}");
            }
        } else {
            assert_eq!(out.status.code(), Some(2), "{ctx}: {stderr}");
            for e in &errors {
                assert!(stderr.contains(e.as_str()), "{ctx}: {e} not in {stderr}");
            }
            let message = field(field(&response, "error"), "message");
            assert_eq!(message, &Value::Str(errors.join("; ")), "{ctx}");
            refused += 1;
            codes.extend(errors.iter().map(|e| e["error ".len()..][..5].to_string()));
            continue;
        }

        // A refused set left nothing behind: a session that never saw it
        // answers the next accepted one identically.
        let twin: Value = serde_json::from_str(&accepted.handle_line(&line)).unwrap();
        assert_eq!(timeless(&response), timeless(&twin), "{ctx}");
    }
    let lifetime = every.lifetime();
    assert_eq!(lifetime.errors, refused as u64, "{name} {mode:?}");
    assert_eq!(
        lifetime.requests,
        (sets - refused) as u64,
        "{name} {mode:?}"
    );
    assert!(
        refused > 0 && refused < sets,
        "{name} {mode:?}: {refused} of {sets} sets refused; the draw must exercise both sides"
    );
    let _ = std::fs::remove_file(&old_path);
    let _ = std::fs::remove_file(&new_path);
    codes
}

#[test]
fn serve_refuses_exactly_what_lint_refuses() {
    let mut codes = BTreeSet::new();
    let mut seed = 100;
    for mode in [FailureMode::Links, FailureMode::Routers] {
        for name in ["fig1", "fig9", "fig10", "ft4", "preflight"] {
            seed += 1;
            codes.extend(run_preset(name, mode, seed, 30));
        }
    }
    // Every lint rule `ChangeSet::apply` used to copy refuses some set.
    for code in ["YU003", "YU006", "YU007", "YU011", "YU015"] {
        assert!(
            codes.contains(code),
            "no set was refused by {code}: {codes:?}"
        );
    }
}
