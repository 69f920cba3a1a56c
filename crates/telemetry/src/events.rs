//! The structured event log: leveled, machine-readable JSON-lines
//! events for the long-running verifier.
//!
//! Metrics answer "how much / how fast"; events answer "what happened
//! and when". An operator tailing `yu serve --events-out events.jsonl`
//! sees one JSON object per line:
//!
//! ```json
//! {"ts_us": 18234, "level": "info", "kind": "request_finish",
//!  "id": 7, "verified": true, "elapsed_us": 912}
//! ```
//!
//! The taxonomy (see DESIGN.md §9.4): `request_start` / `request_finish`
//! (info), `slow_request` (warn, over the configured threshold),
//! `perf_regression` (warn, a request slower than its kind's EWMA
//! baseline times the regression factor), `verdict_flip` (warn, with the
//! flipped requirement points), `gc` (info, reclaimed node counts),
//! `audit_failure` (error, emitted before the auditor panics so the
//! operator sees *why* the daemon died), and `serve_error` (warn,
//! malformed or rejected requests).
//!
//! Emission is gated on a configured sink only: every event reaches it,
//! whatever its level. With no sink the guard is one relaxed atomic
//! load, and call sites build their field lists only after checking
//! [`events_enabled`], so the disabled path allocates nothing. Event emission never touches
//! verifier state — the bit-identity differential covers events-on runs.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use serde::{Map, Value};

use crate::collector::now_us;

/// Event severity, ordered `Info < Warn < Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EventLevel {
    /// Routine lifecycle events (request start/finish, GC).
    Info,
    /// Operator attention (slow requests, verdict flips, bad requests).
    Warn,
    /// Failures (invariant-audit violations).
    Error,
}

impl EventLevel {
    /// The lowercase wire name (`"info"` / `"warn"` / `"error"`).
    pub fn as_str(self) -> &'static str {
        match self {
            EventLevel::Info => "info",
            EventLevel::Warn => "warn",
            EventLevel::Error => "error",
        }
    }
}

enum Sink {
    Off,
    File(BufWriter<File>),
    /// In-memory capture for tests.
    Memory(Vec<String>),
}

static SINK: Mutex<Sink> = Mutex::new(Sink::Off);
static SINK_ACTIVE: AtomicBool = AtomicBool::new(false);

/// Whether any event sink is configured: the one-relaxed-load guard
/// call sites check before building field lists.
#[inline]
pub fn events_enabled() -> bool {
    SINK_ACTIVE.load(Ordering::Relaxed)
}

/// Routes events to a JSON-lines file (created or truncated). Every
/// event is flushed on write so `tail -f` and crash post-mortems see
/// complete lines.
pub fn set_event_sink_file(path: &Path) -> std::io::Result<()> {
    let f = File::create(path)?;
    *SINK.lock().expect("event sink poisoned") = Sink::File(BufWriter::new(f));
    SINK_ACTIVE.store(true, Ordering::Relaxed);
    Ok(())
}

/// Routes events to an in-memory buffer (tests); drain with
/// [`take_memory_events`].
pub fn set_event_sink_memory() {
    *SINK.lock().expect("event sink poisoned") = Sink::Memory(Vec::new());
    SINK_ACTIVE.store(true, Ordering::Relaxed);
}

/// Disables event emission and drops the sink (flushing a file sink).
pub fn close_event_sink() {
    SINK_ACTIVE.store(false, Ordering::Relaxed);
    *SINK.lock().expect("event sink poisoned") = Sink::Off;
}

/// Drains the in-memory sink (empty unless [`set_event_sink_memory`]).
pub fn take_memory_events() -> Vec<String> {
    match &mut *SINK.lock().expect("event sink poisoned") {
        Sink::Memory(lines) => std::mem::take(lines),
        _ => Vec::new(),
    }
}

/// Emits one event: a JSON line with `ts_us` (microseconds since the
/// process telemetry epoch), `level`, `kind`, then `fields` in order.
/// A no-op without a sink.
pub fn emit_event(level: EventLevel, kind: &'static str, fields: Vec<(&'static str, Value)>) {
    if !events_enabled() {
        return;
    }
    let mut m = Map::new();
    m.insert("ts_us", Value::Int(now_us() as i128));
    m.insert("level", Value::Str(level.as_str().to_string()));
    m.insert("kind", Value::Str(kind.to_string()));
    for (k, v) in fields {
        m.insert(k, v);
    }
    let line = Value::Map(m).to_string();
    match &mut *SINK.lock().expect("event sink poisoned") {
        Sink::Off => {}
        Sink::File(w) => {
            // A full disk must not take the verifier down with it.
            let _ = writeln!(w, "{line}");
            let _ = w.flush();
        }
        Sink::Memory(lines) => lines.push(line),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_order_and_names() {
        assert!(EventLevel::Info < EventLevel::Warn);
        assert!(EventLevel::Warn < EventLevel::Error);
        assert_eq!(EventLevel::Warn.as_str(), "warn");
    }
}
