//! End-to-end observability of the `yu serve` loop: the structured
//! event log (slow-request detection with correlation ids, the
//! threshold tunable) and the in-band `metrics` request type.
//!
//! The event sink is process global, so the tests that use it
//! serialize on [`SINK_LOCK`]; this file is its own test binary, so
//! nothing outside it can race them.

use std::sync::Mutex;
use std::time::Duration;
use yu::core::YuOptions;
use yu::net::FailureMode;
use yu::serve::{ServeConfig, ServeSession};
use yu::spec::VerifySpec;

fn fig1_spec() -> VerifySpec {
    let ex = yu::gen::motivating_example();
    VerifySpec {
        network: ex.net,
        flows: ex.flows,
        tlp: ex.p2,
        k: 1,
        mode: FailureMode::Links,
    }
}

fn session(spec: &VerifySpec, slow_threshold: Duration) -> ServeSession {
    let opts = YuOptions {
        k: spec.k,
        mode: spec.mode,
        ..Default::default()
    };
    ServeSession::with_config(
        spec,
        opts,
        ServeConfig {
            slow_threshold,
            ..Default::default()
        },
    )
}

/// Serializes the tests against each other: both configure the
/// process-global in-memory event sink.
static SINK_LOCK: Mutex<()> = Mutex::new(());

fn events_of_kind(events: &[String], kind: &str) -> Vec<String> {
    events
        .iter()
        .filter(|e| e.contains(&format!("\"kind\":\"{kind}\"")))
        .cloned()
        .collect()
}

#[test]
fn serve_emits_slow_request_events_and_answers_metrics_requests() {
    let _guard = SINK_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let spec = fig1_spec();

    // A zero threshold marks every request slow: the event must fire and
    // carry the request's own correlation id plus the configured bound.
    yu::telemetry::set_event_sink_memory();
    let mut s = session(&spec, Duration::ZERO);
    let resp = s.handle_line("{\"id\":42,\"changes\":[]}");
    assert!(resp.contains("\"ok\":true"), "request rejected: {resp}");
    let events = yu::telemetry::take_memory_events();
    let slow = events_of_kind(&events, "slow_request");
    assert_eq!(slow.len(), 1, "exactly one slow event: {events:?}");
    assert!(slow[0].contains("\"id\":42"), "wrong id: {}", slow[0]);
    assert!(slow[0].contains("\"level\":\"warn\""));
    assert!(slow[0].contains("\"threshold_us\":0"));
    assert!(slow[0].contains("\"elapsed_us\":"));
    // The request lifecycle events carry the same id.
    assert!(events_of_kind(&events, "request_start")[0].contains("\"id\":42"));
    assert!(events_of_kind(&events, "request_finish")[0].contains("\"id\":42"));
    assert_eq!(s.lifetime().slow_requests, 1);

    // An unreachable threshold: same request shape, no slow event.
    let mut calm = session(&spec, Duration::from_secs(3600));
    let resp = calm.handle_line("{\"id\":43,\"changes\":[]}");
    assert!(resp.contains("\"ok\":true"));
    let events = yu::telemetry::take_memory_events();
    assert!(events_of_kind(&events, "slow_request").is_empty());
    assert_eq!(events_of_kind(&events, "request_finish").len(), 1);
    assert_eq!(calm.lifetime().slow_requests, 0);

    yu::telemetry::close_event_sink();

    // The in-band metrics request: answered from the registry without
    // touching verifier state or counting as a change request.
    let requests_before = s.lifetime().requests;
    let resp = s.handle_line("{\"id\":7,\"metrics\":true}");
    assert_eq!(s.lifetime().requests, requests_before);
    let v: serde::Value = serde_json::from_str(&resp).expect("metrics response is JSON");
    let root = v.as_object().expect("metrics response is an object");
    assert_eq!(root.get("id").and_then(|x| x.as_object()), None);
    assert!(resp.contains("\"id\":7"));
    assert!(resp.contains("\"ok\":true"));
    let metrics = root
        .get("metrics")
        .and_then(|m| m.as_object())
        .expect("metrics object");
    for section in ["counters", "gauges", "histograms"] {
        assert!(metrics.get(section).is_some(), "missing {section}");
    }
    let lifetime = root
        .get("lifetime")
        .and_then(|m| m.as_object())
        .expect("lifetime object");
    assert!(lifetime.get("requests").is_some());
    assert!(lifetime.get("verdict_flips").is_some());
    // The registry snapshot digests latency histograms to quantiles.
    assert!(resp.contains("\"yu_serve_request_seconds\""));
    assert!(resp.contains("\"p99\""));
}

/// The regression detector's serve wiring: baselines train per request
/// kind, an unarmed or unreachable baseline never alarms, and the
/// wall-clock-dependent signal stays out of the response lines. (The
/// trip/retrain behavior of the rule itself is unit-tested in
/// `yu::serve` where it can run on synthetic latencies.)
#[test]
fn serve_trains_latency_baselines_per_request_kind() {
    let _guard = SINK_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let spec = fig1_spec();
    let opts = YuOptions {
        k: spec.k,
        mode: spec.mode,
        ..Default::default()
    };
    // An unreachable factor makes "no alarm" deterministic even on a
    // noisy machine: a request would have to be a billion times slower
    // than its baseline.
    let config = ServeConfig {
        regress_factor: 1e9,
        ..Default::default()
    };
    yu::telemetry::set_event_sink_memory();
    let mut s = ServeSession::with_config(&spec, opts, config);
    assert!(s.baseline("empty").is_none(), "no samples yet");
    let mut names = spec
        .network
        .topo
        .routers()
        .map(|r| spec.network.topo.router(r).name.clone());
    let (from, to) = (
        names.next().expect("fig1 has routers"),
        names.next().expect("fig1 has two routers"),
    );
    for id in 0..3 {
        let resp = s.handle_line(&format!("{{\"id\":{id},\"changes\":[]}}"));
        assert!(resp.contains("\"ok\":true"));
        assert!(
            !resp.contains("regress"),
            "regression signals must stay out of response lines: {resp}"
        );
    }
    // Kinds train independently: three empty requests, one rejected
    // SetLinkCost (errors never train a baseline).
    let bad = format!(
        "{{\"id\":9,\"changes\":[{{\"SetLinkCost\":{{\"from\":\"{from}\",\"to\":\"{to}\",\
         \"index\":99,\"cost\":1}}}}]}}"
    );
    assert!(s.handle_line(&bad).contains("\"ok\":false"));
    let empty = s.baseline("empty").expect("empty-kind baseline trained");
    assert_eq!(empty.samples, 3);
    assert!(empty.mean_us >= 0.0);
    assert!(s.baseline("SetLinkCost").is_none());
    assert!(s.baseline("mixed").is_none());
    let events = yu::telemetry::take_memory_events();
    assert!(events_of_kind(&events, "perf_regression").is_empty());
    yu::telemetry::close_event_sink();
}

/// Registry readings of [`serve_feeds_the_per_requirement_and_per_group_histograms`].
struct Seen {
    req_checks: u64,
    flow_execs: u64,
    groups_executed: u64,
    rechecked_total: u64,
}

/// The serve path runs the same check stage and the same per-group exec
/// call as a batch run, so it feeds the same instruments: one
/// `yu_req_check_seconds` sample per requirement actually checked
/// (baseline verification included), and one `yu_flow_exec_seconds`
/// sample (and `yu_flow_groups_executed_total` tick) per group actually
/// executed.
#[test]
fn serve_feeds_the_per_requirement_and_per_group_histograms() {
    let _guard = SINK_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let spec = fig1_spec();
    let observe = || {
        let snap = yu::telemetry::registry().snapshot();
        let count = |name| snap.histogram(name).expect("registered").count();
        Seen {
            req_checks: count("yu_req_check_seconds"),
            flow_execs: count("yu_flow_exec_seconds"),
            groups_executed: snap.counter("yu_flow_groups_executed_total"),
            rechecked_total: snap.counter("yu_incremental_rechecked_reqs_total"),
        }
    };
    let start = observe();
    let mut s = session(&spec, Duration::from_secs(3600));
    let baseline = observe();
    let checked_at_baseline = s.verifier().delta_stats().rechecked_reqs as u64;
    assert!(checked_at_baseline > 0);
    assert_eq!(baseline.req_checks - start.req_checks, checked_at_baseline);
    assert_eq!(
        baseline.flow_execs - start.flow_execs,
        baseline.groups_executed - start.groups_executed
    );

    // Bump every link's cost in turn (some bump reroutes a flow), with a
    // volume edit in between.
    let topo = &spec.network.topo;
    let mut script: Vec<String> = topo
        .ulinks()
        .map(|u| {
            let fwd = topo.link(topo.directions(u).0);
            let (from, to) = (&topo.router(fwd.from).name, &topo.router(fwd.to).name);
            let cost = fwd.igp_cost * 100 + 13;
            format!(r#"{{"SetLinkCost":{{"from":"{from}","to":"{to}","index":0,"cost":{cost}}}}}"#)
        })
        .collect();
    script.insert(1, r#"{"SetFlowVolume":{"flow":0,"volume":"1"}}"#.into());
    script.push(r#"{"SetFlowVolume":{"flow":0,"volume":"20"}}"#.into());
    let (mut rechecked, mut reexecuted) = (0u64, 0u64);
    for (id, change) in script.iter().enumerate() {
        let resp = s.handle_line(&format!("{{\"id\":{id},\"changes\":[{change}]}}"));
        assert!(resp.contains("\"ok\":true"), "request rejected: {resp}");
        let delta = s.verifier().delta_stats();
        rechecked += delta.rechecked_reqs as u64;
        reexecuted += delta.recomputed_groups as u64;
    }
    let end = observe();

    assert!(rechecked > 0, "the edits must dirty some load point");
    assert!(reexecuted > 0, "the cost edits must re-execute some group");
    assert_eq!(end.req_checks - baseline.req_checks, rechecked);
    assert_eq!(
        end.req_checks - start.req_checks,
        end.rechecked_total - start.rechecked_total
    );
    assert_eq!(end.flow_execs - baseline.flow_execs, reexecuted);
    assert_eq!(end.groups_executed - baseline.groups_executed, reexecuted);
}

/// DESIGN.md §9.7 is the instrument table as prose: every metric in
/// `descriptors()` has a row there giving its name, kind, twin and help
/// text, and the section has no row for a metric that is gone.
#[test]
fn design_md_lists_every_instrument() {
    use yu::telemetry::MetricKind;

    let design = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/DESIGN.md"))
        .expect("DESIGN.md is readable");
    let rows: Vec<&str> = design.lines().filter(|l| l.starts_with("| `yu_")).collect();
    let descs = yu::telemetry::registry().descriptors();
    assert_eq!(rows.len(), descs.len(), "one row per instrument");
    for (d, row) in descs.iter().zip(rows) {
        let (kind, twin) = match d.metric {
            MetricKind::Counter(c) => ("counter", c.twin()),
            MetricKind::Gauge(_) => ("gauge", None),
            MetricKind::Histogram(..) => ("histogram", None),
        };
        let cells: Vec<&str> = row.split('|').map(str::trim).collect();
        // `| name | kind | unit | twin | layer | help |` splits into an
        // empty cell, the six columns, and a trailing empty cell.
        assert_eq!(cells.len(), 8, "{row}");
        assert_eq!(cells[1], format!("`{}`", d.name), "table order");
        assert_eq!(cells[2], kind, "{}", d.name);
        assert_eq!(
            cells[4],
            twin.map_or("—".to_string(), |t| format!("`{t}`")),
            "{}",
            d.name
        );
        assert_eq!(cells[6], d.help, "{}", d.name);
    }
}
