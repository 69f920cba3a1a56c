//! End-to-end smoke tests of the `yu` CLI binary through its JSON spec
//! pipeline (export -> check -> verify round trip, without spawning a
//! process: the same code paths via the library API).

use yu::core::{YuOptions, YuVerifier};
use yu::spec::VerifySpec;

#[test]
fn exported_fig1_spec_verifies_like_the_library() {
    let ex = yu::gen::motivating_example();
    let spec = VerifySpec {
        network: ex.net.clone(),
        flows: ex.flows.clone(),
        tlp: ex.p2.clone(),
        k: 1,
        mode: yu::net::FailureMode::Links,
    };
    // Round-trip through JSON, then verify the deserialized network.
    let spec = VerifySpec::from_json(&spec.to_json()).unwrap();
    assert!(spec.validate().is_empty());
    let mut v = YuVerifier::new(
        spec.network,
        YuOptions {
            k: spec.k,
            mode: spec.mode,
            ..Default::default()
        },
    );
    v.add_flows(&spec.flows);
    let out = v.verify(&spec.tlp);
    assert!(!out.verified());
    // Violations serialize (the CLI's --json output).
    let json = serde_json::to_string(&out.violations).unwrap();
    assert!(json.contains("scenario"));
    assert!(json.contains("load"));
}

#[test]
fn fig10_spec_round_trips_filters_and_static_routes() {
    let inc = yu::gen::static_blackhole_incident();
    let spec = VerifySpec {
        network: inc.net,
        flows: inc.flows,
        tlp: inc.tlp,
        k: 1,
        mode: yu::net::FailureMode::Links,
    };
    let back = VerifySpec::from_json(&spec.to_json()).unwrap();
    // The deserialized network still exhibits the blackhole.
    let mut v = YuVerifier::new(
        back.network,
        YuOptions {
            k: 1,
            ..Default::default()
        },
    );
    v.add_flows(&back.flows);
    assert!(!v.verify(&back.tlp).verified());
}

#[test]
fn explain_report_serializes_for_the_cli() {
    // The `yu explain --json` payload: explanations must serialize with
    // the fields the CI smoke step validates (blame summing to the load,
    // replay status, envelope bounds).
    let ex = yu::gen::motivating_example();
    let spec = VerifySpec {
        network: ex.net,
        flows: ex.flows,
        tlp: ex.p2,
        k: 1,
        mode: yu::net::FailureMode::Links,
    };
    let spec = VerifySpec::from_json(&spec.to_json()).unwrap();
    let mut v = YuVerifier::new(
        spec.network,
        YuOptions {
            k: spec.k,
            mode: spec.mode,
            ..Default::default()
        },
    );
    v.add_flows(&spec.flows);
    let out = v.verify_enumerated(&spec.tlp, 4);
    assert!(!out.verified());
    let explanations: Vec<yu::core::Explanation> =
        out.violations.iter().map(|vi| v.explain(vi)).collect();
    let json = serde_json::to_string(&explanations).unwrap();
    for field in [
        "blame",
        "blame_total",
        "contribution",
        "replay",
        "\"match\"",
        "envelope",
        "violating_scenarios",
    ] {
        assert!(json.contains(field), "missing {field} in {json}");
    }
}

#[test]
fn lint_exit_policy_is_stable() {
    // The `yu lint` exit-code contract: errors always fail, warnings
    // fail only under --deny-warnings, notes never fail.
    use yu::analysis::Diagnostic;
    use yu::spec::lint_ok;

    let clean: Vec<Diagnostic> = vec![];
    assert!(lint_ok(&clean, false));
    assert!(lint_ok(&clean, true));

    let notes = vec![Diagnostic::note("YU023", "req 0", "discharged")];
    assert!(lint_ok(&notes, false));
    assert!(lint_ok(&notes, true));

    let warnings = vec![Diagnostic::warning("YU027", "link A-B", "bridge")];
    assert!(lint_ok(&warnings, false));
    assert!(!lint_ok(&warnings, true));

    let errors = vec![Diagnostic::error("YU029", "req 1", "contradictory bounds")];
    assert!(!lint_ok(&errors, false));
    assert!(!lint_ok(&errors, true));

    let mixed = vec![
        Diagnostic::note("YU032", "preflight", "summary"),
        Diagnostic::warning("YU030", "req 2", "duplicate point"),
    ];
    assert!(lint_ok(&mixed, false));
    assert!(!lint_ok(&mixed, true));
}

/// The fig1 spec used by the serve tests.
fn fig1_spec() -> VerifySpec {
    let ex = yu::gen::motivating_example();
    VerifySpec {
        network: ex.net,
        flows: ex.flows,
        tlp: ex.p2,
        k: 1,
        mode: yu::net::FailureMode::Links,
    }
}

/// A field of a one-line JSON response.
fn field<'a>(resp: &'a serde_json::Value, name: &str) -> &'a serde_json::Value {
    resp.as_object()
        .and_then(|m| m.get(name))
        .unwrap_or_else(|| panic!("response missing {name:?}: {resp:?}"))
}

#[test]
fn serve_session_handles_errors_without_mutating_state() {
    use serde_json::Value;
    use yu::serve::ServeSession;

    // fig1 plus a static route on A whose next hop is B's loopback.
    let mut spec = fig1_spec();
    let a = spec.network.topo.router_by_name("A").unwrap();
    spec.network
        .config_mut(a)
        .static_routes
        .push(yu::net::StaticRoute {
            prefix: "200.0.0.0/24".parse().unwrap(),
            next_hop: yu::net::StaticNextHop::Ip(yu::net::Ipv4::new(10, 0, 0, 2)),
        });
    let mut s = ServeSession::new(&spec, yu::core::YuOptions::default());
    let ready: Value = serde_json::from_str(&s.ready_line()).unwrap();
    assert_eq!(field(&ready, "ready"), &Value::Bool(true));
    let baseline = format!("{:?}", s.verifier().verifier().options());
    let base_flows = s.verifier().flows().to_vec();

    // Malformed JSON -> structured parse error.
    let r: Value = serde_json::from_str(&s.handle_line("{not json")).unwrap();
    assert_eq!(field(&r, "ok"), &Value::Bool(false));
    assert_eq!(
        field(field(&r, "error"), "kind"),
        &Value::Str("parse".into())
    );

    // Unknown change kind -> bad_request.
    let r: Value = serde_json::from_str(
        &s.handle_line(r#"{"id": 2, "changes": [{"FrobnicateRouter": {"name": "A"}}]}"#),
    )
    .unwrap();
    assert_eq!(field(&r, "ok"), &Value::Bool(false));
    assert_eq!(field(&r, "id"), &Value::Int(2));
    assert_eq!(
        field(field(&r, "error"), "kind"),
        &Value::Str("bad_request".into())
    );

    // Nonexistent router -> bad_request, rejected atomically.
    let r: Value = serde_json::from_str(&s.handle_line(
        r#"{"id": 3, "changes": [{"SetLinkCost": {"from": "NOPE", "to": "B", "cost": 5}}]}"#,
    ))
    .unwrap();
    assert_eq!(field(&r, "ok"), &Value::Bool(false));
    assert_eq!(
        field(field(&r, "error"), "kind"),
        &Value::Str("bad_request".into())
    );

    // Partially-valid change-set (valid volume edit + bogus removal) ->
    // rejected as a whole; no partial mutation.
    let r: Value = serde_json::from_str(&s.handle_line(
        r#"{"id": 4, "changes": [{"SetFlowVolume": {"flow": 0, "volume": "7"}}, {"RemoveFlow": {"flow": 9999}}]}"#,
    ))
    .unwrap();
    assert_eq!(field(&r, "ok"), &Value::Bool(false));
    assert_eq!(
        s.verifier().flows(),
        &base_flows[..],
        "state mutated by rejected set"
    );
    assert_eq!(format!("{:?}", s.verifier().verifier().options()), baseline);

    // A change set is refused exactly when its result has an error under
    // the rule `yu verify` applies to a spec file, and the message is the
    // lint's own text: a negative volume (YU015), a non-positive capacity
    // (YU003), removing E, whose loopback is a segment of D's SR policy
    // (YU006), leaving that loopback only to a router outside D's AS
    // (YU007), whether the set adds that router or it exists already, and
    // removing B, whose loopback is the next hop of A's static route
    // (YU011). Warnings do not refuse: a zero volume (YU016) and an
    // anycast loopback (YU012) apply, and so does removing E once a second
    // owner of its loopback sits in D's AS. A refused set commits nothing.
    for (line, refusal) in [
        (
            r#"{"id": 6, "changes": [{"SetFlowVolume": {"flow": 0, "volume": "-5"}}]}"#,
            Some("error YU015: flow 0 (11.0.0.1 -> 100.0.0.1): negative volume -5"),
        ),
        (
            r#"{"id": 7, "changes": [{"SetFlowVolume": {"flow": 0, "volume": "7"}}, {"AddFlow": {"ingress": "A", "src": 1, "dst": 2, "volume": "-1/2"}}]}"#,
            Some("error YU015"),
        ),
        (
            r#"{"id": 8, "changes": [{"AddLink": {"a": "A", "b": "F", "cost": 10, "capacity": "0"}}]}"#,
            Some("error YU003"),
        ),
        (
            r#"{"id": 9, "changes": [{"AddLink": {"a": "B", "b": "C", "cost": 10, "capacity": "-40"}}]}"#,
            Some("error YU003: link B-C: non-positive capacity -40"),
        ),
        (
            r#"{"id": 10, "changes": [{"SetFlowVolume": {"flow": 0, "volume": "7"}}, {"RemoveRouter": {"router": "E"}}]}"#,
            Some("error YU006"),
        ),
        (
            r#"{"id": 11, "changes": [{"AddRouter": {"name": "E2", "loopback": 167772165, "asn": 100}}, {"RemoveRouter": {"router": "E"}}]}"#,
            Some("error YU007"),
        ),
        (
            r#"{"id": 12, "changes": [{"RemoveRouter": {"router": "B"}}]}"#,
            Some(
                "error YU011: router A: static route 0 (200.0.0.0/24 via 10.0.0.2): next hop \
                 is not a router loopback and not covered by any connected network: traffic \
                 will blackhole",
            ),
        ),
        (
            r#"{"id": 13, "changes": [{"SetFlowVolume": {"flow": 0, "volume": "0"}}]}"#,
            None,
        ),
        (
            r#"{"id": 14, "changes": [{"AddRouter": {"name": "E2", "loopback": 167772165, "asn": 100}}]}"#,
            None,
        ),
        (
            r#"{"id": 15, "changes": [{"RemoveRouter": {"router": "E"}}]}"#,
            Some("error YU007"),
        ),
        (
            r#"{"id": 16, "changes": [{"AddRouter": {"name": "E3", "loopback": 167772165, "asn": 300}}, {"RemoveRouter": {"router": "E"}}]}"#,
            None,
        ),
    ] {
        let before = (
            s.verifier().network().clone(),
            s.verifier().flows().to_vec(),
            s.verifier().tlp().clone(),
        );
        let r: Value = serde_json::from_str(&s.handle_line(line)).unwrap();
        let Some(refusal) = refusal else {
            assert_eq!(field(&r, "ok"), &Value::Bool(true), "{line}: {r:?}");
            continue;
        };
        assert_eq!(field(&r, "ok"), &Value::Bool(false), "{line}");
        let error = field(&r, "error");
        assert_eq!(field(error, "kind"), &Value::Str("bad_request".into()));
        let Value::Str(message) = field(error, "message") else {
            panic!("no error message: {r:?}");
        };
        assert!(message.starts_with(refusal), "{message}");
        let after = (
            s.verifier().network().clone(),
            s.verifier().flows().to_vec(),
            s.verifier().tlp().clone(),
        );
        assert!(after == before, "{line}: a refused set changed the state");
    }
    let topo = &s.verifier().network().topo;
    assert!(topo.router_by_name("E").is_none() && topo.router_by_name("E3").is_some());

    // A connected network covering B's loopback resolves A's static next
    // hop without B, so removing B applies.
    let c = spec.network.topo.router_by_name("C").unwrap();
    spec.network
        .config_mut(c)
        .connected
        .push("10.0.0.0/30".parse().unwrap());
    let mut covered = ServeSession::new(&spec, yu::core::YuOptions::default());
    let r: Value = serde_json::from_str(
        &covered.handle_line(r#"{"id": 1, "changes": [{"RemoveRouter": {"router": "B"}}]}"#),
    )
    .unwrap();
    assert_eq!(field(&r, "ok"), &Value::Bool(true), "{r:?}");

    // The session still serves valid requests afterwards.
    let r: Value = serde_json::from_str(
        &s.handle_line(r#"{"id": 5, "changes": [{"SetFlowVolume": {"flow": 0, "volume": "7"}}]}"#),
    )
    .unwrap();
    assert_eq!(
        field(&r, "ok"),
        &Value::Bool(true),
        "valid request after errors: {r:?}"
    );
    assert_eq!(field(&r, "id"), &Value::Int(5));
    for key in [
        "verified",
        "violations",
        "new_violations",
        "resolved_violations",
        "stats",
    ] {
        assert!(
            r.as_object().unwrap().get(key).is_some(),
            "success response missing {key}"
        );
    }
}

#[test]
fn serve_stats_reset_between_requests() {
    use serde_json::Value;
    use yu::serve::ServeSession;

    let spec = fig1_spec();
    let mut s = ServeSession::new(&spec, yu::core::YuOptions::default());

    // Request 1 touches the flows stage: flows_in and exec time are
    // nonzero for THIS request.
    let r1: Value = serde_json::from_str(&s.handle_line(
        r#"{"id": 1, "changes": [{"AddFlow": {"ingress": "A", "src": 151587081, "dst": 1677721601, "volume": "5"}}]}"#,
    ))
    .unwrap();
    assert_eq!(field(&r1, "ok"), &Value::Bool(true), "{r1:?}");
    let flows_now = s.verifier().flows().len();

    // Request 2 is TLP-only: had the counters accumulated across
    // requests (the old RunStats reuse bug), route/exec times and group
    // recompute counts from request 1 would leak into this response.
    let r2: Value = serde_json::from_str(&s.handle_line(
        r#"{"id": 2, "changes": [{"AddReq": {"point": {"Delivered": {"router": "E"}}, "max": "1000000"}}]}"#,
    ))
    .unwrap();
    assert_eq!(field(&r2, "ok"), &Value::Bool(true), "{r2:?}");
    let stats2 = field(&r2, "stats");
    assert_eq!(
        field(stats2, "route_secs"),
        &Value::Float(0.0),
        "route time leaked across requests: {r2:?}"
    );
    assert_eq!(
        field(stats2, "exec_secs"),
        &Value::Float(0.0),
        "exec time leaked across requests: {r2:?}"
    );
    assert_eq!(field(stats2, "recomputed_groups"), &Value::Int(0));
    assert_eq!(field(stats2, "full_rebuild"), &Value::Bool(false));
    // The verifier itself still knows the true flow count.
    assert_eq!(s.verifier().flows().len(), flows_now);
}

#[test]
fn serve_over_a_pipe_end_to_end() {
    use serde_json::Value;
    use std::io::{BufRead, BufReader, Write};
    use std::process::{Command, Stdio};

    let spec = fig1_spec();
    let dir = std::env::temp_dir();
    let spec_path = dir.join("yu-serve-cli-test.json");
    std::fs::write(&spec_path, spec.to_json()).unwrap();

    let mut child = Command::new(env!("CARGO_BIN_EXE_yu"))
        .args(["serve", "--spec", spec_path.to_str().unwrap()])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn yu serve");
    let mut stdin = child.stdin.take().unwrap();
    let mut lines = BufReader::new(child.stdout.take().unwrap()).lines();
    let mut next = |input: Option<&str>| -> Value {
        if let Some(line) = input {
            writeln!(stdin, "{line}").unwrap();
            stdin.flush().unwrap();
        }
        let line = lines.next().expect("serve closed early").unwrap();
        serde_json::from_str(&line).unwrap_or_else(|e| panic!("bad response {line:?}: {e:?}"))
    };

    let ready = next(None);
    assert_eq!(field(&ready, "ready"), &Value::Bool(true));
    assert_eq!(field(&ready, "verified"), &Value::Bool(false)); // fig1 P2 is violated

    // A valid change-set: raising the C-E capacity-bound requirement
    // volume... keep it simple: double flow 0's volume.
    let ok = next(Some(
        r#"{"id": 1, "changes": [{"SetFlowVolume": {"flow": 0, "volume": "80"}}]}"#,
    ));
    assert_eq!(field(&ok, "ok"), &Value::Bool(true), "{ok:?}");
    assert_eq!(field(&ok, "id"), &Value::Int(1));
    assert!(field(&ok, "stats").as_object().is_some());

    // Malformed JSON, unknown kind, unknown router: structured errors,
    // daemon stays alive.
    let e1 = next(Some("this is not json"));
    assert_eq!(
        field(field(&e1, "error"), "kind"),
        &Value::Str("parse".into())
    );
    let e2 = next(Some(r#"{"id": 2, "changes": [{"Nonsense": {}}]}"#));
    assert_eq!(
        field(field(&e2, "error"), "kind"),
        &Value::Str("bad_request".into())
    );
    let e3 = next(Some(
        r#"{"id": 3, "changes": [{"SetLinkCost": {"from": "NOPE", "to": "B", "cost": 1}}]}"#,
    ));
    assert_eq!(
        field(field(&e3, "error"), "kind"),
        &Value::Str("bad_request".into())
    );

    // Still serving after three failures.
    let ok2 = next(Some(
        r#"{"id": 4, "changes": [{"SetFlowVolume": {"flow": 0, "volume": "70"}}]}"#,
    ));
    assert_eq!(field(&ok2, "ok"), &Value::Bool(true), "{ok2:?}");

    drop(stdin); // EOF ends the session cleanly
    let status = child.wait().unwrap();
    assert!(status.success(), "serve exited with {status:?}");
    let _ = std::fs::remove_file(&spec_path);
}

/// An argument that looks like a flag but is none the parser knows is a
/// usage error naming it — never ignored, and its value never mistaken for
/// a positional. `--no-static-prune`, `--workers`, `--check-workers`,
/// `--explain` and `--profile-out` were flags once; scripts that still
/// pass them must hear about it. A known flag given to a subcommand that
/// does not read it is a usage error too, naming the flag and the
/// subcommand.
#[test]
fn unknown_flags_are_rejected() {
    use std::process::Command;

    let spec_path = std::env::temp_dir().join("yu-unknown-flag-cli-test.json");
    std::fs::write(&spec_path, fig1_spec().to_json()).unwrap();
    let spec_path = spec_path.to_str().unwrap();
    let yu = |cmd: &str, args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_yu"))
            .args([cmd, spec_path])
            .args(args)
            .output()
            .expect("yu runs");
        let stderr = String::from_utf8(out.stderr).unwrap();
        (out.status.code(), out.stdout, stderr)
    };
    // fig1 P2 is violated: exit 1, with every known flag spelt right.
    let (code, _, stderr) = yu("verify", &["--max-violations", "5", "--json"]);
    assert_eq!(code, Some(1), "{stderr}");
    for (args, flag) in [
        (&["--no-such-flag"][..], "--no-such-flag"),
        (&["--max-violatons", "5"][..], "--max-violatons"),
        (&["--no-static-prune"][..], "--no-static-prune"),
        (&["--workers", "2"][..], "--workers"),
        (&["--check-workers", "2"][..], "--check-workers"),
        (&["--explain"][..], "--explain"),
        (&["--profile-out", "x"][..], "--profile-out"),
        (&["--json", "-x"][..], "-x"),
    ] {
        let (code, stdout, stderr) = yu("verify", args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stdout.is_empty(), "{args:?}: nothing may run");
        assert!(
            stderr.contains(&format!("unknown flag '{flag}'")),
            "{args:?}: {stderr}"
        );
    }
    let dir = std::env::temp_dir();
    let written = [
        dir.join("yu-misplaced-flag.dot"),
        dir.join("yu-misplaced-flag.folded"),
    ];
    for (cmd, args) in [
        ("verify", &["--top", "3"][..]),
        ("verify", &["--dot-out", written[0].to_str().unwrap()][..]),
        ("verify", &["--spec", spec_path][..]),
        ("lint", &["--folded-out", written[1].to_str().unwrap()][..]),
    ] {
        let (code, stdout, stderr) = yu(cmd, args);
        assert_eq!(code, Some(2), "{cmd} {args:?}: {stderr}");
        assert!(stdout.is_empty(), "{cmd} {args:?}: nothing may run");
        assert!(
            stderr.contains(&format!("flag '{}'", args[0]))
                && stderr.contains(&format!("'yu {cmd}'")),
            "{cmd} {args:?}: {stderr}"
        );
    }
    for path in &written {
        assert!(!path.exists(), "{path:?}: nothing may be written");
    }
    let _ = std::fs::remove_file(spec_path);
}

/// `yu verify` and `yu explain` run a spec through one path: with the
/// same `--max-violations`, their `--json` objects agree on the verdict,
/// the violations and the run statistics (timings aside); `explain` only
/// adds `explanations`.
#[test]
fn verify_and_explain_report_the_same_run() {
    use serde_json::Value;
    use std::process::Command;

    let examples = [
        ("fig1", fig1_spec()),
        ("fig9", {
            let inc = yu::gen::sr_anycast_incident();
            VerifySpec {
                network: inc.net,
                flows: inc.flows,
                tlp: inc.tlp,
                k: 1,
                mode: yu::net::FailureMode::Links,
            }
        }),
        ("fig10", {
            let inc = yu::gen::static_blackhole_incident();
            VerifySpec {
                network: inc.net,
                flows: inc.flows,
                tlp: inc.tlp,
                k: 1,
                mode: yu::net::FailureMode::Links,
            }
        }),
    ];
    for (name, spec) in examples {
        let path = std::env::temp_dir().join(format!("yu-one-run-path-{name}.json"));
        std::fs::write(&path, spec.to_json()).unwrap();
        let json = |cmd: &str| -> serde::Map {
            let out = Command::new(env!("CARGO_BIN_EXE_yu"))
                .args([
                    cmd,
                    path.to_str().unwrap(),
                    "--json",
                    "--max-violations",
                    "4",
                ])
                .output()
                .expect("yu runs");
            let text = String::from_utf8(out.stdout).unwrap();
            let v: Value = serde_json::from_str(&text).unwrap_or_else(|e| panic!("{text}: {e:?}"));
            v.as_object().expect("result object").clone()
        };
        let (verify, explain) = (json("verify"), json("explain"));
        let stats = |root: &serde::Map| -> Vec<(String, Value)> {
            let stats = root.get("stats").and_then(Value::as_object);
            let stats = stats.unwrap_or_else(|| panic!("{name}: no stats in {root:?}"));
            stats
                .iter()
                .filter(|(k, _)| !k.ends_with("_secs"))
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect()
        };
        for key in ["verified", "violations"] {
            assert_eq!(verify.get(key), explain.get(key), "{name}: {key}");
        }
        assert_eq!(stats(&verify), stats(&explain), "{name}: stats");
        assert!(explain.get("explanations").is_some(), "{name}");
        let _ = std::fs::remove_file(&path);
    }
}

/// A value flag whose value is missing, unparseable or out of range is a
/// usage error that says what the flag takes; nothing runs.
#[test]
fn value_flags_say_what_they_take() {
    use std::process::Command;

    let spec_path = std::env::temp_dir().join("yu-flag-value-cli-test.json");
    std::fs::write(&spec_path, fig1_spec().to_json()).unwrap();
    let spec_path = spec_path.to_str().unwrap();
    for (cmd, args, message) in [
        (
            "verify",
            &["--max-violations"][..],
            "--max-violations takes a positive integer",
        ),
        (
            "profile",
            &["--top", "-1"][..],
            "--top takes a non-negative integer (0 = all)",
        ),
        (
            "serve",
            &["--slow-ms", "soon"][..],
            "--slow-ms takes a non-negative integer (milliseconds)",
        ),
        (
            "serve",
            &["--regress-factor", "1.0"][..],
            "--regress-factor takes a number > 1.0",
        ),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_yu"))
            .args([cmd, spec_path])
            .args(args)
            .output()
            .expect("yu runs");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: nothing may run");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
    }
    let _ = std::fs::remove_file(spec_path);
}

/// Every subcommand that runs a spec refuses one `yu lint` rejects: a
/// flow whose ingress is no router (YU014) and a requirement on a link
/// that does not exist (YU017, with an upper and with a lower bound).
/// Exit 2 with the diagnostic on stderr, never a panic or a verdict.
#[test]
fn running_subcommands_refuse_specs_that_lint_rejects() {
    use std::process::{Command, Stdio};
    use yu::mtbdd::Ratio;
    use yu::net::{LinkId, LoadPoint, RouterId, TlpReq};

    let dir = std::env::temp_dir();
    let write = |name: &str, spec: &VerifySpec| {
        let path = dir.join(name);
        std::fs::write(&path, spec.to_json()).unwrap();
        path.to_str().unwrap().to_string()
    };
    let good = write("yu-lint-gate-good.json", &fig1_spec());
    let mut dangling_ingress = fig1_spec();
    dangling_ingress.flows[0].ingress = RouterId(99);
    let on_missing_link = |min: Option<i64>, max: Option<i64>| {
        let mut spec = fig1_spec();
        spec.tlp.reqs = vec![TlpReq {
            point: LoadPoint::Link(LinkId(999)),
            min: min.map(Ratio::int),
            max: max.map(Ratio::int),
        }];
        spec
    };
    let bad = [
        (write("yu-lint-gate-yu014.json", &dangling_ingress), "YU014"),
        (
            write(
                "yu-lint-gate-yu017-max.json",
                &on_missing_link(None, Some(95)),
            ),
            "YU017",
        ),
        (
            write(
                "yu-lint-gate-yu017-min.json",
                &on_missing_link(Some(1000), None),
            ),
            "YU017",
        ),
    ];
    for (bad, code) in &bad {
        let b = bad.as_str();
        for args in [
            &["verify", b][..],
            &["verify", b, "--json", "--max-violations", "4"],
            &["profile", b],
            &["explain", b],
            &["loads", b],
            &["scenarios", b],
            &["rib", b, "--router", "A", "--dst", "100.0.0.1"],
            &["diff", &good, b],
            &["diff", b, &good],
            &["serve", "--spec", b],
        ] {
            let out = Command::new(env!("CARGO_BIN_EXE_yu"))
                .args(args)
                .stdin(Stdio::null())
                .output()
                .expect("yu runs");
            let stderr = String::from_utf8(out.stderr).unwrap();
            assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
            assert!(stderr.contains(code), "{args:?}: {stderr}");
            assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
            assert!(out.stdout.is_empty(), "{args:?}: nothing may run");
        }
        let _ = std::fs::remove_file(bad);
    }
    let _ = std::fs::remove_file(&good);
}

/// The `YU_*` on/off gates share one truthiness rule: `false`, `0` and
/// the empty string are off.
#[test]
fn env_gates_read_false_as_off() {
    use std::process::Command;

    let dir = std::env::temp_dir();
    let spec_path = dir.join("yu-env-gate-cli-test.json");
    std::fs::write(&spec_path, fig1_spec().to_json()).unwrap();
    let profile = |value: &str| {
        let out = Command::new(env!("CARGO_BIN_EXE_yu"))
            .args(["profile", spec_path.to_str().unwrap(), "--json"])
            .env("YU_TRACE", value)
            .current_dir(&dir)
            .output()
            .expect("yu runs");
        assert_eq!(out.status.code(), Some(1), "fig1 P2 is violated");
    };
    let trace = dir.join("yu-trace.json");
    let _ = std::fs::remove_file(&trace);
    for off in ["false", "0", ""] {
        profile(off);
        assert!(!trace.exists(), "YU_TRACE={off:?} writes nothing");
    }
    profile("1");
    assert!(trace.exists(), "YU_TRACE=1 writes the default file");
    let _ = std::fs::remove_file(&trace);
    let _ = std::fs::remove_file(&spec_path);
}

fn preflight_spec() -> VerifySpec {
    let ex = yu::gen::preflight_example();
    VerifySpec {
        network: ex.net,
        flows: ex.flows,
        tlp: ex.tlp,
        k: 1,
        mode: yu::net::FailureMode::Links,
    }
}

/// Every response accounts for every requirement: answered from the
/// verdict cache or checked again, nothing discharged on the side.
#[test]
fn serve_accounts_for_every_requirement() {
    use serde_json::Value;
    use yu::serve::ServeSession;

    let spec = preflight_spec();
    let mut s = ServeSession::new(&spec, yu::core::YuOptions::default());
    let ready: Value = serde_json::from_str(&s.ready_line()).unwrap();
    let reqs = field(&ready, "reqs");
    assert_eq!(reqs, &Value::Int(spec.tlp.reqs.len() as i128));
    for (id, changes) in [
        r#"{"SetFlowVolume": {"flow": 0, "volume": "7"}}"#,
        r#"{"SetLinkCost": {"from": "B", "to": "C", "index": 0, "cost": 40}}"#,
        "",
        r#"{"SetFlowVolume": {"flow": 0, "volume": "20"}}"#,
    ]
    .iter()
    .enumerate()
    {
        let line = format!(r#"{{"id": {id}, "changes": [{changes}]}}"#);
        let r: Value = serde_json::from_str(&s.handle_line(&line)).unwrap();
        assert_eq!(field(&r, "ok"), &Value::Bool(true), "{r:?}");
        let stats = field(&r, "stats");
        let (Value::Int(reused), Value::Int(rechecked)) =
            (field(stats, "reused_reqs"), field(stats, "rechecked_reqs"))
        else {
            panic!("counters are integers: {stats:?}");
        };
        assert_eq!(
            &Value::Int(reused + rechecked),
            reqs,
            "request {id}: {stats:?}"
        );
    }
}

#[test]
fn deep_lint_on_the_preflight_example_reports_discharges() {
    let ex = yu::gen::preflight_example();
    let spec = preflight_spec();
    let spec = VerifySpec::from_json(&spec.to_json()).unwrap();
    // Shallow lint: clean except the intentional duplicate-point overlap
    // is a deep-only rule, so no errors either way.
    assert!(!spec.has_errors());
    let deep = spec.validate_deep();
    let discharged = deep.iter().filter(|d| d.code == "YU023").count();
    assert_eq!(discharged, ex.expected_discharged);
    assert!(deep.iter().any(|d| d.code == "YU032"));
    // Deep lint is a superset severity-wise: still no errors here.
    assert!(!deep.iter().any(|d| d.is_error()));
    assert!(yu::spec::lint_ok(&deep, false));
}

/// A volume with a zero denominator is a spec error, not a panic:
/// `yu verify` exits 2 naming it, and `yu serve` answers `bad_request`
/// and keeps serving the state it had.
#[test]
fn zero_denominators_are_refused_not_panics() {
    use serde_json::Value;
    use std::io::{BufRead, BufReader, Write};
    use std::process::{Command, Stdio};

    let spec = fig1_spec();
    let json = spec.to_json();
    // Flow 0's volume string becomes "5/0".
    let key = json.find("\"volume\"").expect("a flow volume");
    let open = key + json[key + 8..].find('"').unwrap() + 8;
    let close = open + 1 + json[open + 1..].find('"').unwrap();
    let bad_json = format!("{}\"5/0{}", &json[..open], &json[close..]);
    let dir = std::env::temp_dir();
    let (good, bad) = (
        dir.join("yu-zero-den-good.json"),
        dir.join("yu-zero-den-bad.json"),
    );
    std::fs::write(&good, &json).unwrap();
    std::fs::write(&bad, &bad_json).unwrap();

    let out = Command::new(env!("CARGO_BIN_EXE_yu"))
        .args(["verify", bad.to_str().unwrap()])
        .stdin(Stdio::null())
        .output()
        .expect("yu runs");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("zero denominator"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(out.stdout.is_empty());

    let mut child = Command::new(env!("CARGO_BIN_EXE_yu"))
        .args(["serve", "--spec", good.to_str().unwrap()])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn yu serve");
    let mut stdin = child.stdin.take().unwrap();
    let mut lines = BufReader::new(child.stdout.take().unwrap()).lines();
    let mut next = |input: Option<&str>| -> Value {
        if let Some(line) = input {
            writeln!(stdin, "{line}").unwrap();
            stdin.flush().unwrap();
        }
        let line = lines.next().expect("serve closed early").unwrap();
        serde_json::from_str(&line).unwrap_or_else(|e| panic!("bad response {line:?}: {e:?}"))
    };
    let verdict = |r: &Value| (field(r, "verified").clone(), field(r, "violations").clone());

    next(None);
    let before = next(Some(r#"{"id": 1, "changes": []}"#));
    assert_eq!(field(&before, "ok"), &Value::Bool(true), "{before:?}");
    let refused = next(Some(
        r#"{"id": 2, "changes": [{"SetFlowVolume": {"flow": 0, "volume": "5/0"}}]}"#,
    ));
    assert_eq!(
        field(field(&refused, "error"), "kind"),
        &Value::Str("bad_request".into()),
        "{refused:?}"
    );
    let after = next(Some(r#"{"id": 3, "changes": []}"#));
    assert_eq!(field(&after, "ok"), &Value::Bool(true), "{after:?}");
    assert_eq!(verdict(&after), verdict(&before));

    drop(stdin);
    let status = child.wait().unwrap();
    assert!(status.success(), "serve exited with {status:?}");
    let _ = std::fs::remove_file(&good);
    let _ = std::fs::remove_file(&bad);
}
