//! Property and schema tests for the telemetry collector and exporters.
//!
//! The span log is the calling thread's own, so each test reads and
//! resets only what its harness thread recorded. The enable flag is
//! process-global all the same, so every test that sets it — or records
//! while relying on it — holds [`enabled_flag`] for as long as it does.

use std::sync::{Mutex, MutexGuard};

use proptest::prelude::*;
use yu_telemetry::{
    counter, gauge_max, reset, set_enabled, snapshot, span, SpanEvent, TelemetryReport,
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
fn run_stack_program(ops: &[bool]) -> (TelemetryReport, Vec<u32>) {
    let _flag = enabled_flag();
    set_enabled(true);
    reset(); // drop any residue from this harness thread
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
    (snapshot(), expected_depths)
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
        let report = TelemetryReport { spans, ..TelemetryReport::default() };
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

/// Records on the harness thread, exports Chrome trace JSON, and
/// validates the trace-event schema with the JSON parser: one named
/// track, `main`, carrying every span.
#[test]
fn chrome_trace_schema_is_valid() {
    let _flag = enabled_flag();
    set_enabled(true);
    reset();
    for w in 0..3 {
        let _outer = span("verify");
        let _inner = span("aggregate");
        counter("flows", 1 + w);
        gauge_max("peak", 100 * (w + 1));
    }
    let json = snapshot().chrome_trace_json();
    reset();

    let v: serde::Value = serde_json::from_str(&json).expect("trace output must be valid JSON");
    let root = v.as_object().expect("trace root is an object");
    let events = root
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .expect("traceEvents is an array");

    let mut thread_names = Vec::new();
    let mut span_tids = Vec::new();
    for ev in events {
        let ev = ev.as_object().expect("every event is an object");
        let ph = ev.get("ph").and_then(|p| p.as_str()).expect("ph present");
        let tid = match ev.get("tid") {
            Some(serde::Value::Int(t)) => *t,
            other => panic!("tid must be an integer, got {other:?}"),
        };
        assert!(ev.get("pid").is_some(), "pid present");
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
                    thread_names.push((tid, label.to_string()));
                } else {
                    assert_eq!(label, "yu");
                }
            }
            "X" => {
                span_tids.push(tid);
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
    // Exactly one named track, `main`; tid 0 is the process/counter
    // pseudo-track.
    assert_eq!(
        thread_names.len(),
        1,
        "one thread_name event: {thread_names:?}"
    );
    let (main_tid, name) = &thread_names[0];
    assert_eq!(name, "main");
    assert_eq!(span_tids.len(), 6, "two spans per iteration");
    assert!(
        span_tids.iter().all(|t| t == main_tid),
        "every span is on the main track: {span_tids:?}"
    );
}

/// Disabled telemetry records nothing, and re-enabling works.
#[test]
fn disabled_records_nothing() {
    let _flag = enabled_flag();
    set_enabled(false);
    reset();
    {
        let _s = span("ghost");
        counter("ghost", 7);
        gauge_max("ghost", 7);
    }
    assert!(snapshot().is_empty());
    set_enabled(true);
    {
        let _s = span("real");
    }
    let log = snapshot();
    reset();
    assert_eq!(log.spans.len(), 1);
    assert_eq!(log.spans[0].name, "real");
}

/// A snapshot is cumulative until `reset`, and the summary table and
/// metrics JSON render with derived rates.
#[test]
fn snapshot_reset_lifecycle() {
    let _flag = enabled_flag();
    set_enabled(true);
    reset();
    {
        let _s = span("exec");
    }
    assert!(snapshot().stage_aggs().contains_key("exec"));
    {
        let _s = span("verify");
    }
    let report = snapshot();
    assert!(report.stage_aggs().contains_key("exec"), "cumulative");
    assert!(report.stage_aggs().contains_key("verify"));

    // Summary table + metrics JSON render and carry derived rates,
    // computed from the span-log twins of the arena counters.
    let reg = yu_telemetry::MetricsRegistry::default();
    reg.mtbdd_apply_cache_hits_total.add(3);
    reg.mtbdd_apply_cache_misses_total.add(1);
    let report = snapshot();
    let summary = report.summary();
    assert!((summary.derived["apply_cache_hit_rate"] - 0.75).abs() < 1e-9);
    assert!(report.summary_table().contains("verify"));
    let metrics: serde::Value =
        serde_json::from_str(&report.metrics_json()).expect("metrics JSON parses");
    assert!(metrics
        .as_object()
        .and_then(|o| o.get("derived"))
        .and_then(|d| d.as_object())
        .and_then(|d| d.get("apply_cache_hit_rate"))
        .is_some());

    reset();
    assert!(snapshot().is_empty());
}

/// Each thread reads and resets only its own window: what a spawned
/// thread records never shows up in the caller's snapshot, and a reset
/// on either thread leaves the other's log intact.
#[test]
fn snapshot_is_the_calling_threads_window() {
    let _flag = enabled_flag();
    set_enabled(true);
    reset();
    {
        let _s = span("caller");
    }
    let (before, after) = std::thread::scope(|scope| {
        let (to_caller, from_spawned) = std::sync::mpsc::channel();
        let (to_spawned, from_caller) = std::sync::mpsc::channel();
        let spawned = scope.spawn(move || {
            {
                let _s = span("spawned");
            }
            counter("spawned.count", 3);
            to_caller.send(snapshot()).unwrap();
            from_caller.recv().unwrap();
            let after_caller_reset = snapshot();
            reset();
            after_caller_reset
        });
        let before = from_spawned.recv().unwrap();
        let mine = snapshot();
        assert!(mine.stage_aggs().contains_key("caller"));
        assert!(
            !mine.stage_aggs().contains_key("spawned") && mine.counter_totals().is_empty(),
            "the caller's window holds a spawned thread's records: {mine:?}"
        );
        reset();
        {
            let _s = span("caller.again");
        }
        to_spawned.send(()).unwrap();
        (before, spawned.join().expect("spawned thread panicked"))
    });
    // The spawned thread's window survived the caller's reset...
    for log in [&before, &after] {
        assert!(log.stage_aggs().contains_key("spawned"));
        assert!(!log.stage_aggs().contains_key("caller"));
        assert_eq!(log.counter_totals().get("spawned.count"), Some(&3));
    }
    // ...and the caller's survived the spawned thread's.
    let mine = snapshot();
    reset();
    let names: Vec<&str> = mine.stage_aggs().into_keys().collect();
    assert_eq!(names, ["caller.again"]);
}
