//! Property and schema tests for the telemetry collector and exporters.
//!
//! Tests that record through the collector use per-thread isolation
//! (`take_thread_log`) for their logs; only
//! `flush_snapshot_reset_lifecycle` touches the global flushed-log
//! registry. The enable flag is process-global all the same, so every
//! test that sets it — or records while relying on it — holds
//! [`enabled_flag`] for as long as it does.

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard};

use proptest::prelude::*;
use yu_telemetry::{
    counter, gauge_max, set_enabled, set_thread_track, span, take_thread_log, SpanEvent,
    TelemetryReport, ThreadLog,
};

/// Serialises the tests of this binary that flip the process-global
/// enable flag against the ones recording under it: the harness runs
/// them on parallel threads, and `disabled_records_nothing` turning the
/// flag off mid-recording loses a sibling's spans.
fn enabled_flag() -> MutexGuard<'static, ()> {
    static ENABLED_FLAG: Mutex<()> = Mutex::new(());
    // A failed sibling poisons the lock, not the flag.
    ENABLED_FLAG.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs a stack program of open (`true`) / close (`false`) ops with real
/// RAII spans, returning the recorded log plus the expected
/// (completion-order, depth) sequence.
fn run_stack_program(ops: &[bool]) -> (ThreadLog, Vec<u32>) {
    let _flag = enabled_flag();
    set_enabled(true);
    let _ = take_thread_log(); // drop any residue from this harness thread
    let mut stack: Vec<yu_telemetry::Span> = Vec::new();
    let mut expected_depths = Vec::new();
    for &open in ops {
        if open {
            if stack.len() < 8 {
                stack.push(span("stage"));
            }
        } else if !stack.is_empty() {
            expected_depths.push((stack.len() - 1) as u32);
            stack.pop();
        }
    }
    while let Some(_s) = stack.pop() {
        expected_depths.push(stack.len() as u32);
    }
    (take_thread_log(), expected_depths)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Span nesting: recorded depths match the stack discipline, and a
    /// span completing earlier but starting later is contained in time.
    #[test]
    fn span_nesting_matches_stack(ops in proptest::collection::vec(any::<bool>(), 0..40)) {
        let (log, expected_depths) = run_stack_program(&ops);
        let depths: Vec<u32> = log.spans.iter().map(|s| s.depth).collect();
        prop_assert_eq!(&depths, &expected_depths);
        for s in &log.spans {
            prop_assert!(s.name == "stage");
        }
        // Laminar containment: on one thread, if span i completed before
        // span j but started at-or-after it, i nests inside j.
        for (i, a) in log.spans.iter().enumerate() {
            for b in log.spans.iter().skip(i + 1) {
                if a.start_us >= b.start_us {
                    prop_assert!(
                        a.start_us + a.dur_us <= b.start_us + b.dur_us,
                        "inner span must end within its enclosing span"
                    );
                    // Timestamps tie at µs resolution, so a sibling that
                    // opened and closed within b's starting microsecond
                    // can share b's start; only a strictly later start
                    // proves true nesting.
                    if a.start_us > b.start_us {
                        prop_assert!(a.depth > b.depth);
                    }
                }
            }
        }
    }

    /// Counter/gauge merge across threads: totals are sums, gauges are
    /// maxima, regardless of how increments are split across threads.
    #[test]
    fn merge_sums_counters_and_maxes_gauges(
        incs in proptest::collection::vec((0u32..4, 0u64..1000), 0..60),
        nthreads in 1usize..5,
    ) {
        const NAMES: [&str; 4] = ["c.a", "c.b", "g.a", "g.b"];
        // Reference fold over all increments, ignoring thread split.
        let mut want_counters: BTreeMap<&str, u64> = BTreeMap::new();
        let mut want_gauges: BTreeMap<&str, u64> = BTreeMap::new();
        // Per-thread logs built the way worker threads build them.
        let mut threads: Vec<ThreadLog> = (0..nthreads)
            .map(|i| ThreadLog {
                track: format!("worker-{i}"),
                ..ThreadLog::default()
            })
            .collect();
        for (i, &(which, v)) in incs.iter().enumerate() {
            let name = NAMES[which as usize];
            let t = &mut threads[i % nthreads];
            if name.starts_with("c.") {
                *want_counters.entry(name).or_insert(0) += v;
                *t.counters.entry(name).or_insert(0) += v;
            } else {
                let w = want_gauges.entry(name).or_insert(0);
                *w = (*w).max(v);
                let g = t.gauges.entry(name).or_insert(0);
                *g = (*g).max(v);
            }
        }
        let report = TelemetryReport { threads };
        let got_counters = report.counter_totals();
        let got_gauges = report.gauge_maxes();
        for (k, v) in &want_counters {
            prop_assert_eq!(got_counters.get(*k).copied().unwrap_or(0), *v);
        }
        for (k, v) in &want_gauges {
            prop_assert_eq!(got_gauges.get(*k).copied().unwrap_or(0), *v);
        }
        prop_assert_eq!(got_counters.values().sum::<u64>(), want_counters.values().sum::<u64>());
    }

    /// Stage aggregation: count/total/min/max over synthetic spans match
    /// a direct fold.
    #[test]
    fn stage_aggs_match_reference(durs in proptest::collection::vec(0u64..10_000, 1..50)) {
        let spans: Vec<SpanEvent> = durs
            .iter()
            .enumerate()
            .map(|(i, &d)| SpanEvent {
                name: if i % 2 == 0 { "even" } else { "odd" },
                detail: None,
                start_us: i as u64 * 10_000,
                dur_us: d,
                depth: 0,
            })
            .collect();
        let report = TelemetryReport {
            threads: vec![ThreadLog { track: "main".into(), spans, ..ThreadLog::default() }],
        };
        let aggs = report.stage_aggs();
        for name in ["even", "odd"] {
            let want: Vec<u64> = durs
                .iter()
                .enumerate()
                .filter(|(i, _)| (i % 2 == 0) == (name == "even"))
                .map(|(_, &d)| d)
                .collect();
            match aggs.get(name) {
                None => prop_assert!(want.is_empty()),
                Some(a) => {
                    prop_assert_eq!(a.count, want.len() as u64);
                    prop_assert_eq!(a.total_us, want.iter().sum::<u64>());
                    prop_assert_eq!(a.min_us, want.iter().copied().min().unwrap());
                    prop_assert_eq!(a.max_us, want.iter().copied().max().unwrap());
                }
            }
        }
    }
}

/// Records on real spawned threads, exports Chrome trace JSON, and
/// validates the trace-event schema with the JSON parser.
#[test]
fn chrome_trace_schema_is_valid() {
    let _flag = enabled_flag();
    set_enabled(true);
    let mut threads: Vec<ThreadLog> = Vec::new();
    let handles: Vec<_> = (0..3)
        .map(|w| {
            std::thread::spawn(move || {
                set_thread_track(format!("worker-{w}"));
                {
                    let _outer = span("check.worker");
                    let _inner = span("aggregate");
                    counter("flows", 1 + w);
                    gauge_max("peak", 100 * (w + 1));
                }
                take_thread_log()
            })
        })
        .collect();
    for h in handles {
        threads.push(h.join().expect("worker panicked"));
    }
    let report = TelemetryReport { threads };
    let json = report.chrome_trace_json();

    let v: serde::Value = serde_json::from_str(&json).expect("trace output must be valid JSON");
    let root = v.as_object().expect("trace root is an object");
    let events = root
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .expect("traceEvents is an array");

    let mut tracks = std::collections::BTreeSet::new();
    let mut metadata_names = std::collections::BTreeSet::new();
    let mut complete_events = 0;
    for ev in events {
        let ev = ev.as_object().expect("every event is an object");
        let ph = ev.get("ph").and_then(|p| p.as_str()).expect("ph present");
        let tid = match ev.get("tid") {
            Some(serde::Value::Int(t)) => t,
            other => panic!("tid must be an integer, got {other:?}"),
        };
        assert!(ev.get("pid").is_some(), "pid present");
        tracks.insert(tid);
        match ph {
            "M" => {
                let kind = ev
                    .get("name")
                    .and_then(|n| n.as_str())
                    .expect("metadata kind");
                assert!(
                    kind == "thread_name" || kind == "process_name",
                    "unexpected metadata kind {kind:?}"
                );
                let label = ev
                    .get("args")
                    .and_then(|a| a.as_object())
                    .and_then(|a| a.get("name"))
                    .and_then(|n| n.as_str())
                    .expect("name metadata carries args.name");
                if kind == "thread_name" {
                    metadata_names.insert(label.to_string());
                } else {
                    assert_eq!(label, "yu");
                }
            }
            "X" => {
                complete_events += 1;
                assert!(ev.get("name").and_then(|n| n.as_str()).is_some());
                for field in ["ts", "dur"] {
                    match ev.get(field) {
                        Some(serde::Value::Int(n)) => assert!(*n >= 0),
                        other => panic!("{field} must be a non-negative integer, got {other:?}"),
                    }
                }
            }
            "C" => {
                // Registry histogram counter tracks: self-described args.
                let args = ev
                    .get("args")
                    .and_then(|a| a.as_object())
                    .expect("counter events carry args");
                assert!(args.get("count").is_some() && args.get("sum").is_some());
            }
            other => panic!("unexpected event phase {other:?}"),
        }
    }
    // tid 0 is the process/counter pseudo-track; workers are 1..=3.
    assert!(
        tracks.len() == 3 || tracks.len() == 4,
        "one track per worker thread (plus the process pseudo-track)"
    );
    assert_eq!(complete_events, 6, "two spans per worker");
    for w in 0..3 {
        assert!(
            metadata_names.contains(&format!("worker-{w}")),
            "missing thread_name metadata for worker-{w}"
        );
    }
}

/// Disabled telemetry records nothing, and re-enabling works.
#[test]
fn disabled_records_nothing() {
    let _flag = enabled_flag();
    set_enabled(false);
    let _ = take_thread_log();
    {
        let _s = span("ghost");
        counter("ghost", 7);
        gauge_max("ghost", 7);
    }
    let log = take_thread_log();
    assert!(log.spans.is_empty() && log.counters.is_empty() && log.gauges.is_empty());
    set_enabled(true);
    {
        let _s = span("real");
    }
    let log = take_thread_log();
    assert_eq!(log.spans.len(), 1);
    assert_eq!(log.spans[0].name, "real");
}

/// The one test allowed to touch the global registry: flush from a
/// worker, snapshot from the main thread, then reset.
#[test]
fn flush_snapshot_reset_lifecycle() {
    let _flag = enabled_flag();
    set_enabled(true);
    yu_telemetry::reset();
    std::thread::spawn(|| {
        set_thread_track("worker-0".to_string());
        let _s = span("check.worker");
        drop(_s);
        yu_telemetry::flush_thread();
    })
    .join()
    .expect("worker panicked");

    {
        let _s = span("verify");
    }
    let report = yu_telemetry::snapshot();
    let tracks: Vec<&str> = report.threads.iter().map(|t| t.track.as_str()).collect();
    assert!(tracks.contains(&"worker-0"), "tracks: {tracks:?}");
    assert!(report.stage_aggs().contains_key("check.worker"));
    assert!(report.stage_aggs().contains_key("verify"));

    // Summary table + metrics JSON render and carry derived rates,
    // computed from the span-log twins of the arena counters.
    let reg = yu_telemetry::MetricsRegistry::default();
    reg.mtbdd_apply_cache_hits_total.add(3);
    reg.mtbdd_apply_cache_misses_total.add(1);
    let report = yu_telemetry::snapshot();
    let summary = report.summary();
    assert!((summary.derived["apply_cache_hit_rate"] - 0.75).abs() < 1e-9);
    assert!(report.summary_table().contains("check.worker"));
    let metrics: serde::Value =
        serde_json::from_str(&report.metrics_json()).expect("metrics JSON parses");
    assert!(metrics
        .as_object()
        .and_then(|o| o.get("derived"))
        .and_then(|d| d.as_object())
        .and_then(|d| d.get("apply_cache_hit_rate"))
        .is_some());

    yu_telemetry::reset();
    assert!(yu_telemetry::snapshot().is_empty());
}
