//! The collection substrate: global enable gate, the calling thread's
//! span log, RAII spans, counters, and gauges.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Once, OnceLock};
use std::time::Instant;

use crate::report::TelemetryReport;

/// Whether recording is currently on. Initialized once from the
/// environment (`YU_TRACE` / `YU_METRICS`), then controlled by
/// [`set_enabled`].
static ENABLED: AtomicBool = AtomicBool::new(false);
static ENV_INIT: Once = Once::new();

/// Reads a `YU_*` on/off variable: `None` when unset, `Some(false)` for
/// an empty value, `0` or `false`, `Some(true)` for anything else — the
/// one truthiness rule of every gate in this crate and in the CLI.
pub fn env_flag(var: &str) -> Option<bool> {
    let v = std::env::var(var).ok()?;
    Some(!(v.is_empty() || v == "0" || v.eq_ignore_ascii_case("false")))
}

fn init_from_env() {
    ENV_INIT.call_once(|| {
        if env_flag("YU_TRACE") == Some(true) || env_flag("YU_METRICS") == Some(true) {
            ENABLED.store(true, Ordering::Relaxed);
        }
    });
}

/// Whether telemetry recording is on. One relaxed atomic load — this is
/// the guard every instrumented call site pays when telemetry is off.
#[inline]
pub fn enabled() -> bool {
    init_from_env();
    ENABLED.load(Ordering::Relaxed)
}

/// Turns recording on or off process-wide (e.g. when the CLI sees
/// `--trace-out`). Spans already open keep recording to completion.
pub fn set_enabled(on: bool) {
    init_from_env();
    ENABLED.store(on, Ordering::Relaxed);
}

/// The time base: spans are stamped relative to one process epoch.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

pub(crate) fn now_us() -> u64 {
    epoch().elapsed().as_micros() as u64
}

/// One completed span: a named stage interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Stage name (`"igp"`, `"exec"`, ...). Static so recording never
    /// allocates.
    pub name: &'static str,
    /// Optional per-occurrence detail (flow id, load point, ...),
    /// rendered as `args.detail` in the Chrome trace.
    pub detail: Option<String>,
    /// Start offset from the process epoch, microseconds.
    pub start_us: u64,
    /// Duration, microseconds.
    pub dur_us: u64,
    /// Nesting depth at the time the span opened (0 = top level).
    pub depth: u32,
}

/// The calling thread's span log plus its open-span depth.
#[derive(Default)]
struct LocalBuf {
    log: TelemetryReport,
    depth: u32,
}

thread_local! {
    static LOCAL: RefCell<LocalBuf> = RefCell::new(LocalBuf::default());
}

/// RAII guard returned by [`span`]: records a [`SpanEvent`] covering its
/// own lifetime into the calling thread's log when dropped. Inert
/// (and clock-free) when telemetry is disabled.
#[must_use = "a span measures its own lifetime; bind it to a variable"]
pub struct Span {
    open: Option<OpenSpan>,
}

struct OpenSpan {
    name: &'static str,
    detail: Option<String>,
    start_us: u64,
    depth: u32,
}

impl Span {
    fn start(name: &'static str, detail: Option<String>) -> Span {
        if !enabled() {
            return Span { open: None };
        }
        let depth = LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            let d = l.depth;
            l.depth += 1;
            d
        });
        Span {
            open: Some(OpenSpan {
                name,
                detail,
                start_us: now_us(),
                depth,
            }),
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(open) = self.open.take() else { return };
        let end = now_us();
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            l.depth = l.depth.saturating_sub(1);
            l.log.spans.push(SpanEvent {
                name: open.name,
                detail: open.detail,
                start_us: open.start_us,
                dur_us: end.saturating_sub(open.start_us),
                depth: open.depth,
            });
        });
    }
}

/// Opens a scoped stage timer. The span closes (and is recorded) when
/// the returned guard drops.
#[inline]
pub fn span(name: &'static str) -> Span {
    Span::start(name, None)
}

/// Like [`span`], with a lazily built detail string; `detail` is only
/// invoked when telemetry is enabled, so hot paths pay no formatting
/// cost while disabled.
#[inline]
pub fn span_detail(name: &'static str, detail: impl FnOnce() -> String) -> Span {
    if !enabled() {
        return Span { open: None };
    }
    Span::start(name, Some(detail()))
}

/// Adds `delta` to the named monotonic counter.
#[inline]
pub fn counter(name: &'static str, delta: u64) {
    if !enabled() || delta == 0 {
        return;
    }
    LOCAL.with(|l| {
        *l.borrow_mut().log.counters.entry(name).or_insert(0) += delta;
    });
}

/// Raises the named high-water-mark gauge to at least `value`.
#[inline]
pub fn gauge_max(name: &'static str, value: u64) {
    if !enabled() {
        return;
    }
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let g = l.log.gauges.entry(name).or_insert(0);
        *g = (*g).max(value);
    });
}

/// A copy of the calling thread's log. Cumulative: later snapshots
/// include earlier stages; use [`reset`] to start a fresh measurement
/// window.
pub fn snapshot() -> TelemetryReport {
    LOCAL.with(|l| l.borrow().log.clone())
}

/// Clears the calling thread's log (spans still open keep their depth
/// and record when they close). Use between independent measurement
/// windows (e.g. bench runs).
pub fn reset() {
    LOCAL.with(|l| l.borrow_mut().log = TelemetryReport::default());
}
