//! Telemetry must be an observer, never a participant: running the same
//! verification with recording on and off has to produce bit-identical
//! verdicts, violations, flow grouping, and MTBDD statistics.
//!
//! Each test function drives both configurations back-to-back under a
//! shared lock, so the process-global enable flags (span collector,
//! metrics registry, event sink) are never toggled concurrently with
//! another test's run.

use std::sync::Mutex;
use std::time::Duration;
use yu::core::{IncrementalVerifier, RunStats, VerificationOutcome, YuOptions, YuVerifier};
use yu::gen::{motivating_example, sr_anycast_incident};
use yu::net::{Change, FailureMode, Flow, Network, Tlp};
use yu::serve::{ServeConfig, ServeSession};
use yu::spec::VerifySpec;

/// Serializes the tests in this binary against each other: they all
/// flip process-global observability switches.
static FLAG_LOCK: Mutex<()> = Mutex::new(());

fn lock_flags() -> std::sync::MutexGuard<'static, ()> {
    FLAG_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Verifies, then explains every violation; the forensic reports ride
/// along so the on/off comparison also covers the explain pipeline.
fn run(net: &Network, flows: &[Flow], tlp: &Tlp) -> (VerificationOutcome, Vec<String>) {
    let mut v = YuVerifier::new(
        net.clone(),
        YuOptions {
            k: 1,
            ..Default::default()
        },
    );
    v.add_flows(flows);
    let out = v.verify(tlp);
    let explanations = out
        .violations
        .iter()
        .map(|vi| format!("{:?}", v.explain(vi)))
        .collect();
    (out, explanations)
}

fn assert_same_modulo_timing(on: &VerificationOutcome, off: &VerificationOutcome) {
    assert_eq!(on.verified(), off.verified());
    assert_eq!(
        format!("{:?}", on.violations),
        format!("{:?}", off.violations)
    );
    let stats = |s: &RunStats| {
        (
            s.flows_in,
            s.flow_groups,
            s.reqs_bound_decided,
            s.mtbdd.nodes_created,
            s.mtbdd.terminals_created,
        )
    };
    assert_eq!(stats(&on.stats), stats(&off.stats));
    // The only permitted difference: the enabled run carries a summary.
    assert!(on.stats.telemetry.is_some());
    assert!(off.stats.telemetry.is_none());
}

#[test]
fn telemetry_on_off_runs_are_identical() {
    let _guard = lock_flags();
    let fig1 = motivating_example();
    let sr = sr_anycast_incident();
    let cases: Vec<(&Network, &[Flow], &Tlp)> = vec![
        (&fig1.net, &fig1.flows, &fig1.p1),
        (&fig1.net, &fig1.flows, &fig1.p2),
        (&sr.net, &sr.flows, &sr.tlp),
    ];
    for (net, flows, tlp) in cases {
        yu::telemetry::set_enabled(false);
        let (off, off_explanations) = run(net, flows, tlp);

        yu::telemetry::set_enabled(true);
        yu::telemetry::reset();
        let (on, on_explanations) = run(net, flows, tlp);
        let report = yu::telemetry::snapshot();
        yu::telemetry::reset();
        yu::telemetry::set_enabled(false);

        assert_same_modulo_timing(&on, &off);
        // The forensic reports must be bit-identical too — blame,
        // path diffs, replay results, envelopes.
        assert_eq!(on_explanations, off_explanations);
        // The instrumented run must actually have recorded the
        // pipeline stages it claims to cover.
        let aggs = report.stage_aggs();
        for stage in ["route_sim", "igp", "bgp", "exec", "verify", "bound"] {
            assert!(aggs.contains_key(stage), "missing stage span: {stage}");
        }
        let counters = report.counter_totals();
        // Every requirement is either decided by the interval test or
        // materialised and scanned (under the `kreduce` span).
        let count = |name: &str| counters.get(name).copied().unwrap_or(0);
        assert_eq!(
            count("check.bound_decided"),
            on.stats.reqs_bound_decided as u64
        );
        assert_eq!(
            count("check.bound_decided") + count("check.materialised"),
            tlp.reqs.len() as u64
        );
        assert_eq!(
            aggs.contains_key("kreduce"),
            count("check.materialised") > 0
        );
        assert!(
            counters
                .get("mtbdd.apply_cache_misses")
                .copied()
                .unwrap_or(0)
                > 0
        );
        // Every stage runs on the verifier's own thread: no span is a
        // worker's.
        assert!(
            aggs.keys().all(|name| !name.ends_with(".worker")),
            "worker span recorded: {:?}",
            aggs.keys().collect::<Vec<_>>()
        );
        // Forensics record their own spans and counters when any
        // violation was explained.
        if !on.violations.is_empty() {
            for stage in [
                "explain",
                "explain.blame",
                "explain.paths",
                "explain.replay",
            ] {
                assert!(aggs.contains_key(stage), "missing explain span: {stage}");
            }
            assert!(
                counters.get("explain.flows_blamed").copied().unwrap_or(0) > 0,
                "explain must count blamed flows"
            );
            assert_eq!(
                counters
                    .get("explain.replay_mismatches")
                    .copied()
                    .unwrap_or(0),
                0,
                "replay must agree with the symbolic verdicts"
            );
        }
    }
}

/// The fig1 base spec the incremental runs start from.
fn fig1_spec() -> VerifySpec {
    let ex = motivating_example();
    VerifySpec {
        network: ex.net,
        flows: ex.flows,
        tlp: ex.p2,
        k: 1,
        mode: FailureMode::Links,
    }
}

/// A serve request line with an explicit id.
fn request_line(id: u64, changes: &[Change]) -> String {
    format!(
        "{{\"id\":{},\"changes\":{}}}",
        id,
        serde_json::to_string(changes).expect("changes serialize")
    )
}

/// The scripted serve session: link-cost bump and restore, a flow-volume
/// edit, an empty change-set, plus a semantic error and a parse error —
/// every response path the protocol has (except `metrics`, whose payload
/// intentionally differs between instrumented and plain runs).
fn serve_script(spec: &VerifySpec) -> Vec<String> {
    let topo = &spec.network.topo;
    let u = topo.ulinks().next().expect("fig1 has links");
    let (fwd, _) = topo.directions(u);
    let lk = topo.link(fwd);
    let (from, to) = (
        topo.router(lk.from).name.clone(),
        topo.router(lk.to).name.clone(),
    );
    let cost = |c: u64| Change::SetLinkCost {
        from: from.clone(),
        to: to.clone(),
        index: 0,
        cost: c,
    };
    vec![
        request_line(1, &[cost(lk.igp_cost * 9 + 50)]),
        request_line(
            2,
            &[Change::SetFlowVolume {
                flow: 0,
                volume: yu::mtbdd::Ratio::new(40, 1),
            }],
        ),
        request_line(3, &[cost(lk.igp_cost)]),
        request_line(4, &[]),
        // Semantic error: unknown router, rejected atomically.
        request_line(
            5,
            &[Change::SetLinkCost {
                from: "no-such-router".into(),
                to: to.clone(),
                index: 0,
                cost: 1,
            }],
        ),
        // Parse error: not JSON at all.
        "{definitely not json".to_string(),
    ]
}

/// Strips the wall-clock fields from a response line so instrumented and
/// plain runs can be compared for bit-identity on everything else.
fn strip_timing(line: &str) -> String {
    use serde::Value;
    let mut v: Value = serde_json::from_str(line).expect("response line is JSON");
    if let Some(root) = v.as_object_mut() {
        if let Some(Value::Map(mut stats)) = root.remove("stats") {
            for key in ["route_secs", "exec_secs", "check_secs"] {
                stats.remove(key);
            }
            root.insert("stats", Value::Map(stats));
        }
    }
    v.to_string()
}

/// One full serve pass over the script; `observed` turns on the span
/// collector, the metrics registry, and an in-memory event sink.
fn run_serve(spec: &VerifySpec, script: &[String], observed: bool) -> (Vec<String>, Vec<String>) {
    yu::telemetry::set_enabled(observed);
    yu::telemetry::set_registry_enabled(observed);
    if observed {
        yu::telemetry::reset();
        yu::telemetry::set_event_sink_memory();
    }
    let opts = YuOptions {
        k: spec.k,
        mode: spec.mode,
        ..Default::default()
    };
    // A zero slow threshold keeps the slow-request path deterministic:
    // every successful request is "slow" in both configurations.
    let mut session = ServeSession::with_config(
        spec,
        opts,
        ServeConfig {
            slow_threshold: Duration::ZERO,
            ..Default::default()
        },
    );
    let responses = script
        .iter()
        .map(|l| strip_timing(&session.handle_line(l)))
        .collect();
    let events = if observed {
        yu::telemetry::take_memory_events()
    } else {
        Vec::new()
    };
    yu::telemetry::close_event_sink();
    yu::telemetry::set_enabled(false);
    yu::telemetry::set_registry_enabled(true);
    (responses, events)
}

/// The `yu diff` code path: baseline verify, then [`IncrementalVerifier::
/// set_state`] onto a changed spec. Returns a timing-free fingerprint.
fn run_diff(old: &VerifySpec, new: &VerifySpec, observed: bool) -> String {
    yu::telemetry::set_enabled(observed);
    yu::telemetry::set_registry_enabled(observed);
    if observed {
        yu::telemetry::reset();
    }
    let opts = YuOptions {
        k: old.k,
        mode: old.mode,
        ..Default::default()
    };
    let mut inc = IncrementalVerifier::new(
        old.network.clone(),
        old.flows.clone(),
        old.tlp.clone(),
        opts,
    );
    let base = inc.verify();
    let out = inc.set_state(
        new.network.clone(),
        new.flows.clone(),
        new.tlp.clone(),
        opts,
    );
    let fingerprint = format!(
        "base={} {:?} new={} {:?} delta={:?}",
        base.verified(),
        base.violations,
        out.verified(),
        out.violations,
        inc.delta_stats()
    );
    yu::telemetry::set_enabled(false);
    yu::telemetry::set_registry_enabled(true);
    fingerprint
}

/// The incremental paths (`yu serve` request loop and `yu diff`
/// re-verification) must also be bit-identical with the full
/// observability stack on — span collector, metrics registry, and event
/// log together. The only permitted difference is the stripped wall
/// clock.
#[test]
fn incremental_paths_are_identical_under_full_observability() {
    let _guard = lock_flags();
    let spec = fig1_spec();
    let script = serve_script(&spec);

    let (plain, no_events) = run_serve(&spec, &script, false);
    assert!(no_events.is_empty());

    let before = yu::telemetry::registry().snapshot();
    let (instrumented, events) = run_serve(&spec, &script, true);
    let after = yu::telemetry::registry().snapshot();

    assert_eq!(
        plain, instrumented,
        "serve responses must not depend on observability"
    );

    // The instrumented run actually observed: registry counters moved by
    // exactly the scripted request mix (4 ok, 2 rejected)...
    let delta = |name: &str| after.counter(name) - before.counter(name);
    assert_eq!(delta("yu_serve_requests_total"), 4);
    assert_eq!(delta("yu_serve_request_errors_total"), 2);
    assert_eq!(delta("yu_serve_slow_requests_total"), 4);
    // ...and the event log carries the whole taxonomy with the right
    // correlation ids.
    let kinds_with_id = |kind: &str| -> Vec<String> {
        events
            .iter()
            .filter(|e| e.contains(&format!("\"kind\":\"{kind}\"")))
            .cloned()
            .collect()
    };
    assert_eq!(kinds_with_id("request_start").len(), 5);
    assert_eq!(kinds_with_id("request_finish").len(), 4);
    assert_eq!(kinds_with_id("slow_request").len(), 4);
    assert_eq!(kinds_with_id("serve_error").len(), 2);
    assert!(kinds_with_id("slow_request")[0].contains("\"id\":1"));
    for e in &events {
        let v: serde::Value = serde_json::from_str(e).expect("event line is JSON");
        let obj = v.as_object().expect("event is an object");
        assert!(obj.get("ts_us").is_some());
        assert!(obj.get("level").is_some());
    }

    // The `yu diff` path: same spec transition, with and without the
    // stack.
    let mut new_spec = fig1_spec();
    new_spec.tlp = motivating_example().p1;
    new_spec.flows.pop();
    let plain_diff = run_diff(&spec, &new_spec, false);
    let observed_diff = run_diff(&spec, &new_spec, true);
    assert_eq!(
        plain_diff, observed_diff,
        "diff verdicts must not depend on observability"
    );
}

/// `yu_reqs_checked_total` counts what its help text says — requirements
/// the engine checked — not load points, and not verdict-cache answers.
#[test]
fn reqs_checked_counts_engine_work_not_points_or_cache_answers() {
    let _guard = lock_flags();
    yu::telemetry::set_registry_enabled(true);
    let growth = |run: &mut dyn FnMut()| {
        let before = yu::telemetry::registry().snapshot();
        run();
        let after = yu::telemetry::registry().snapshot();
        move |name: &str| after.counter(name) - before.counter(name)
    };

    // The ready run checks fig1's 18 requirements; two empty change-sets
    // answer all of them from the verdict cache.
    let spec = fig1_spec();
    let opts = YuOptions {
        k: spec.k,
        mode: spec.mode,
        ..Default::default()
    };
    let serve = growth(&mut || {
        let mut session = ServeSession::with_config(&spec, opts, ServeConfig::default());
        for id in 1..=2 {
            let resp = session.handle_line(&request_line(id, &[]));
            assert!(resp.contains("\"ok\":true"), "{resp}");
        }
    });
    assert_eq!(serve("yu_verify_runs_total"), 3);
    assert_eq!(serve("yu_reqs_checked_total"), 18);
    assert_eq!(serve("yu_incremental_rechecked_reqs_total"), 18);
    assert_eq!(serve("yu_incremental_reused_reqs_total"), 36);
    assert!(serve("yu_reqs_bound_decided_total") <= serve("yu_reqs_checked_total"));

    // Two requirements on one load point are two requirements checked.
    let mut two_on_one = spec.clone();
    let mut second = two_on_one.tlp.reqs[0].clone();
    second.max = second.max.map(|m| m + yu::mtbdd::Ratio::new(1, 1));
    two_on_one.tlp.reqs.push(second);
    assert_eq!(two_on_one.tlp.reqs.len(), 19);
    let batch = growth(&mut || {
        let mut v = YuVerifier::new(two_on_one.network.clone(), opts);
        v.add_flows(&two_on_one.flows);
        let out = v.verify(&two_on_one.tlp);
        assert_eq!(out.stats.per_point.len(), 18);
    });
    assert_eq!(batch("yu_reqs_checked_total"), 19);
    assert!(batch("yu_reqs_bound_decided_total") <= batch("yu_reqs_checked_total"));
}

/// Every twin row of the instrument table reports one quantity through
/// two sinks: after a fresh verify and a serve script with both sinks on,
/// the span-log total of each twin name equals the growth of its
/// registry counter.
#[test]
fn twin_counters_agree_across_both_sinks() {
    let _guard = lock_flags();
    let spec = fig1_spec();
    let script = serve_script(&spec);
    yu::telemetry::set_registry_enabled(true);
    yu::telemetry::set_enabled(true);
    yu::telemetry::reset();
    let before = yu::telemetry::registry().snapshot();

    run(&spec.network, &spec.flows, &spec.tlp);
    let opts = YuOptions {
        k: spec.k,
        mode: spec.mode,
        ..Default::default()
    };
    let mut session = ServeSession::with_config(&spec, opts, ServeConfig::default());
    for line in &script {
        session.handle_line(line);
    }
    // Removing a flow and adding it back re-executes its group.
    let flow = &spec.flows[1];
    let churn = [
        Change::RemoveFlow { flow: 1 },
        Change::AddFlow {
            ingress: spec.network.topo.router(flow.ingress).name.clone(),
            src: flow.src,
            dst: flow.dst,
            dscp: flow.dscp,
            volume: flow.volume.clone(),
        },
    ];
    for (id, change) in churn.into_iter().enumerate() {
        let resp = session.handle_line(&request_line(10 + id as u64, &[change]));
        assert!(resp.contains("\"ok\":true"), "{resp}");
    }

    let span_log = yu::telemetry::snapshot().counter_totals();
    let after = yu::telemetry::registry().snapshot();
    yu::telemetry::reset();
    yu::telemetry::set_enabled(false);

    let mut twins = 0;
    for d in yu::telemetry::registry().descriptors() {
        let yu::telemetry::MetricKind::Counter(c) = d.metric else {
            continue;
        };
        let Some(twin) = c.twin() else { continue };
        twins += 1;
        assert_eq!(
            span_log.get(twin).copied().unwrap_or(0),
            after.counter(d.name) - before.counter(d.name),
            "{twin} (span log) vs {} (registry)",
            d.name
        );
    }
    assert_eq!(twins, 14);
    // The script exercised the twins it can: routing rounds, arena
    // counters, and both reuse partitions.
    for twin in [
        "igp.bf_rounds",
        "bgp.rounds",
        "mtbdd.apply_cache_misses",
        "delta.reused_groups",
        "delta.recomputed_groups",
        "delta.reused_reqs",
        "delta.rechecked_reqs",
    ] {
        assert!(span_log.get(twin).copied().unwrap_or(0) > 0, "{twin} idle");
    }
}
