//! End-to-end checks of the harness at smoke scale (N0 / fattree-m4).

use serde::{Serialize, Value};
use std::process::Command;
use yubench::gen::{generate, Scale, SERVE};
use yubench::oracle::{check_batch, check_serve, reported, self_check, Reported};
use yubench::report::{parse_records, Schema};
use yubench::run::out_dir;
use yubench::serve::serve_options;

fn bench(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_yu-bench"))
        .args(args)
        .output()
        .expect("the runner starts");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

#[test]
fn smoke_emits_exactly_the_names_of_benchmark_json() {
    let schema = Schema::load();
    std::fs::create_dir_all(out_dir()).unwrap();
    let file = out_dir().join(format!("smoke-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&file);
    let (ok, stdout) = bench(&[
        "--smoke",
        "--seed",
        "11",
        "--seconds",
        "0.2",
        "--out",
        file.to_str().unwrap(),
    ]);
    assert!(ok, "{stdout}");
    let records = parse_records(&std::fs::read_to_string(&file).unwrap()).unwrap();
    std::fs::remove_file(&file).unwrap();

    let ran: Vec<(&str, bool)> = records
        .iter()
        .map(|r| (r.workload.as_str(), r.trace))
        .collect();
    let listed: Vec<(&str, bool)> = schema
        .workloads
        .iter()
        .flat_map(|w| [(w.name.as_str(), false), (w.name.as_str(), true)])
        .collect();
    assert_eq!(ran, listed);
    for r in &records {
        let want = if r.trace {
            &schema.per_layer
        } else {
            &schema.end_to_end
        };
        let got: Vec<(&str, &str)> = r
            .metrics
            .iter()
            .map(|(n, _, u)| (n.as_str(), u.as_str()))
            .collect();
        let want: Vec<(&str, &str)> = want
            .iter()
            .map(|m| (m.name.as_str(), m.unit.as_str()))
            .collect();
        assert_eq!(got, want, "{} trace={}", r.workload, r.trace);
        assert_eq!(r.failed, 0, "{}", r.workload);
        assert!(r.attempted >= 1);
        if !r.trace {
            assert!(r.metrics.iter().all(|(_, v, _)| *v > 0.0), "{r:?}");
        }
    }
    // The layers a workload does not enter read 0 there, and only there.
    let layer = |workload: &str, name: &str| {
        let r = records.iter().find(|r| r.trace && r.workload == workload);
        let m = r.unwrap().metrics.iter().find(|(n, _, _)| n == name);
        m.unwrap().1
    };
    assert_eq!(layer("fattree-m8-k2-overload", "delta.apply_s"), 0.0);
    assert_eq!(layer("fattree-m8-k2-overload", "routing.igp_rounds"), 0.0);
    assert!(layer(SERVE, "delta.apply_s") > 0.0);
    assert!(layer(SERVE, "serve.cost-flip_p50_ms") > 0.0);
    assert!(layer("wan-n2-k2-delivery", "core.violations") > 0.0);
}

#[test]
fn one_run_ends_with_the_contract_result_line() {
    let (ok, stdout) = bench(&[
        "--smoke",
        "--workload",
        "fattree-m8-k2-overload",
        "--seed",
        "3",
        "--seconds",
        "0.1",
        "--trace",
        "0",
    ]);
    assert!(ok, "{stdout}");
    let last: Value = serde_json::from_str(stdout.lines().last().unwrap()).unwrap();
    let keys: Vec<&str> = last
        .as_object()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert!(stdout.contains("nproc=") && stdout.contains("git=") && stdout.contains("seed=3"));

    let (ok, _) = bench(&["--workload", "no-such-workload"]);
    assert!(!ok);
    let (ok, _) = bench(&["--sed", "3"]);
    assert!(!ok, "a misspelt flag is refused, not ignored");
}

/// What the verifier reports on a smoke instance, in the wire format.
fn verdicts(workload: &str) -> (yu::spec::VerifySpec, Vec<Reported>) {
    let spec = generate(workload, 5, Scale::Smoke).unwrap().spec;
    let mut v = yu::core::YuVerifier::new(spec.network.clone(), serve_options(&spec));
    v.add_flows(&spec.flows);
    let violations = v.verify(&spec.tlp).violations;
    (spec, reported(&violations.to_value()).unwrap())
}

#[test]
fn a_flipped_verdict_is_a_failed_operation() {
    self_check().unwrap();
    let (spec, truth) = verdicts("wan-n2-k2-delivery");
    assert!(!truth.is_empty());
    assert!(check_batch(&spec, &truth, 8, 5).is_empty());

    // Safe reported as violated: the fabricated scenario does not replay.
    let (overload, none) = verdicts("wan-n2-k2-overload");
    assert!(none.is_empty() && check_batch(&overload, &none, 8, 5).is_empty());
    let req = &overload.tlp.reqs[0];
    let fabricated = Reported {
        point: req.point,
        scenario: yu::net::Scenario::none(),
        load: req.max.clone().unwrap() + yu::mtbdd::Ratio::int(1),
        min: req.min.clone(),
        max: req.max.clone(),
    };
    assert_eq!(
        check_batch(&overload, &[fabricated], 0, 5)
            .into_iter()
            .collect::<Vec<_>>(),
        [0]
    );

    // A violation with the wrong load, or beyond the failure budget.
    let mut wrong_load = truth.clone();
    wrong_load[0].load = wrong_load[0].load.clone() + yu::mtbdd::Ratio::new(1, 1000);
    assert_eq!(check_batch(&spec, &wrong_load, 0, 5).len(), 1);
    let mut over_budget = truth.clone();
    over_budget[0].scenario = yu::net::Scenario::links(spec.network.topo.ulinks().take(3));
    assert_eq!(check_batch(&spec, &over_budget, 0, 5).len(), 1);

    // Violated reported as safe: caught once a replayed scenario breaks
    // the requirement. A single-homed stub is cut off by one link, which
    // 400 seeded draws over N0's 25 links do not miss.
    let single = truth.iter().position(|v| v.scenario.count() == 1);
    let mut missed = truth.clone();
    missed.remove(single.expect("N0 has a single-homed stub"));
    assert_eq!(check_batch(&spec, &missed, 400, 5).len(), 1);
}

#[test]
fn a_wrong_serve_answer_is_a_failed_request() {
    let inst = generate(SERVE, 5, Scale::Smoke).unwrap();
    let mut session = yu::serve::ServeSession::new(&inst.spec, serve_options(&inst.spec));
    let lines: Vec<String> = inst
        .script
        .iter()
        .enumerate()
        .map(|(i, r)| session.handle_line(&r.line(i)))
        .collect();
    assert!(check_serve(&inst.spec, &inst.script, &lines, 5).is_empty());
    // The spike flips the verdict mid-script and the restore flips it back.
    let flips = session.lifetime().verdict_flips;
    assert!(flips >= 2, "{flips} verdict flips");

    // Request 10 is one the oracle re-verifies from scratch.
    let mut tampered = lines.clone();
    assert!(lines[9].contains("\"violations\":[]"), "{}", lines[9]);
    tampered[9] = lines[9].replacen("\"violations\":[]", "\"violations\":[{\"bogus\":1}]", 1);
    let failed = check_serve(&inst.spec, &inst.script, &tampered, 5);
    assert_eq!(failed.into_iter().collect::<Vec<_>>(), [9]);

    let mut refused = lines.clone();
    refused[3] = "{\"id\":3,\"ok\":false}".to_string();
    let failed = check_serve(&inst.spec, &inst.script, &refused, 5);
    assert_eq!(failed.into_iter().collect::<Vec<_>>(), [3]);

    // A response that never came counts as failed too.
    let failed = check_serve(&inst.spec, &inst.script, &lines[..18], 5);
    assert_eq!(failed.into_iter().collect::<Vec<_>>(), [18, 19]);
}
