//! Span-tree attribution: folds the span log into a per-call-path table
//! and a folded-stack export.
//!
//! The summary table ([`crate::TelemetryReport::summary`]) aggregates
//! spans by *name*, losing where a stage was called from — `aggregate`
//! under `verify` and `aggregate` under `explain` land in one row.
//! This module rebuilds the call tree from the recorded
//! `(start, duration, depth)` triples and attributes time to full call
//! *paths* instead:
//!
//! * [`crate::TelemetryReport::span_attribution`] — one [`FrameRow`] per
//!   distinct path with call count, total, and **self** time (total
//!   minus time spent in recorded children);
//! * [`crate::TelemetryReport::folded_stacks`] — the same data in the
//!   folded-stack text format consumed by `flamegraph.pl` and
//!   [inferno] (`frame;frame;frame value`, value = self-microseconds),
//!   written by `yu profile --folded-out`.
//!
//! [inferno]: https://github.com/jonhoo/inferno
//!
//! Reconstruction uses only what the collector already records: spans
//! sorted by start time nest by their recorded depth, so the enclosing
//! stack at any point is the chain of still-open spans. Every path is
//! rooted at [`ROOT`]; a span whose parent never closed (snapshot taken
//! mid-run) attaches to the root directly.

use std::collections::BTreeMap;

use serde::Serialize;

use crate::report::TelemetryReport;

/// The root frame of every call path: the name of the thread that
/// records (the `yu` binary's main thread).
pub(crate) const ROOT: &str = "main";

/// Attribution of one distinct call path.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct FrameRow {
    /// Semicolon-joined call path, rooted at `main`
    /// (`main;verify;aggregate`).
    pub stack: String,
    /// Number of spans recorded at this path.
    pub count: u64,
    /// Sum of span durations at this path, microseconds (includes
    /// child spans).
    pub total_us: u64,
    /// Time at this path not covered by recorded child spans,
    /// microseconds. Sums to total recorded time across all rows.
    pub self_us: u64,
}

/// A frame as used while rebuilding the call tree.
struct OpenFrame {
    path: String,
    dur_us: u64,
    depth: u32,
    child_us: u64,
}

/// Sanitizes a frame component for the folded-stack format: `;` is the
/// frame separator and the last space separates the count, so neither
/// may appear inside a frame.
fn frame_name(name: &str, detail: Option<&String>) -> String {
    let mut frame = match detail {
        Some(d) => format!("{name}({d})"),
        None => name.to_string(),
    };
    frame = frame.replace([';', ' '], "_");
    frame
}

/// Rebuilds the call tree and returns `(path, total, self)` per span,
/// in close order.
fn frames(report: &TelemetryReport) -> Vec<(String, u64, u64)> {
    let mut spans: Vec<_> = report.spans.iter().collect();
    // Start order visits parents before their children (a parent opens
    // no later than anything it encloses; ties break toward the
    // shallower span).
    spans.sort_by_key(|s| (s.start_us, s.depth));
    let mut out = Vec::new();
    let mut stack: Vec<OpenFrame> = Vec::new();
    let close = |stack: &mut Vec<OpenFrame>, out: &mut Vec<(String, u64, u64)>| {
        let top = stack.pop().expect("close on empty stack");
        let self_us = top.dur_us.saturating_sub(top.child_us);
        if let Some(parent) = stack.last_mut() {
            parent.child_us += top.dur_us;
        }
        out.push((top.path, top.dur_us, self_us));
    };
    for s in spans {
        // A span at depth d closes everything at depth >= d: the
        // collector only reuses a depth once the previous occupant has
        // dropped.
        while stack.last().is_some_and(|top| top.depth >= s.depth) {
            close(&mut stack, &mut out);
        }
        let frame = frame_name(s.name, s.detail.as_ref());
        let path = match stack.last() {
            Some(parent) => format!("{};{}", parent.path, frame),
            None => format!("{ROOT};{frame}"),
        };
        stack.push(OpenFrame {
            path,
            dur_us: s.dur_us,
            depth: s.depth,
            child_us: 0,
        });
    }
    while !stack.is_empty() {
        close(&mut stack, &mut out);
    }
    out
}

impl TelemetryReport {
    /// Attributes recorded time to full call paths: one [`FrameRow`]
    /// per distinct path, sorted by descending self
    /// time (ties on path). The self times of all rows sum to the total
    /// recorded span time, so the table is a complete attribution of
    /// where the run went.
    pub fn span_attribution(&self) -> Vec<FrameRow> {
        let mut agg: BTreeMap<String, (u64, u64, u64)> = BTreeMap::new();
        for (path, total, selfv) in frames(self) {
            let e = agg.entry(path).or_insert((0, 0, 0));
            e.0 += 1;
            e.1 += total;
            e.2 += selfv;
        }
        let mut rows: Vec<FrameRow> = agg
            .into_iter()
            .map(|(stack, (count, total_us, self_us))| FrameRow {
                stack,
                count,
                total_us,
                self_us,
            })
            .collect();
        rows.sort_by(|a, b| b.self_us.cmp(&a.self_us).then(a.stack.cmp(&b.stack)));
        rows
    }

    /// Renders the folded-stack text consumed by `flamegraph.pl` /
    /// inferno: one `frame;frame;frame self_us` line per distinct call
    /// path, in stable (lexicographic) order. Zero-weight paths are
    /// kept — they carry structure (a parent fully covered by its
    /// children) and cost the flamegraph nothing.
    pub fn folded_stacks(&self) -> String {
        let mut agg: BTreeMap<String, u64> = BTreeMap::new();
        for (path, _, selfv) in frames(self) {
            *agg.entry(path).or_insert(0) += selfv;
        }
        let mut out = String::new();
        for (path, selfv) in agg {
            out.push_str(&path);
            out.push(' ');
            out.push_str(&selfv.to_string());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::SpanEvent;

    fn ev(name: &'static str, start: u64, dur: u64, depth: u32) -> SpanEvent {
        SpanEvent {
            name,
            detail: None,
            start_us: start,
            dur_us: dur,
            depth,
        }
    }

    fn log(spans: Vec<SpanEvent>) -> TelemetryReport {
        TelemetryReport {
            spans,
            ..Default::default()
        }
    }

    #[test]
    fn nested_spans_fold_into_paths_with_self_time() {
        // verify [0,100) contains aggregate [10,40) and aggregate [50,90).
        let report = log(vec![
            ev("aggregate", 10, 30, 1),
            ev("aggregate", 50, 40, 1),
            ev("verify", 0, 100, 0),
        ]);
        let rows = report.span_attribution();
        let by_stack: BTreeMap<&str, &FrameRow> =
            rows.iter().map(|r| (r.stack.as_str(), r)).collect();
        let verify = by_stack["main;verify"];
        assert_eq!(
            (verify.count, verify.total_us, verify.self_us),
            (1, 100, 30)
        );
        let agg = by_stack["main;verify;aggregate"];
        assert_eq!((agg.count, agg.total_us, agg.self_us), (2, 70, 70));
        // Self times are a complete partition of recorded time.
        let self_sum: u64 = rows.iter().map(|r| r.self_us).sum();
        assert_eq!(self_sum, 100);
        // Rows are sorted by descending self time.
        assert!(rows.windows(2).all(|w| w[0].self_us >= w[1].self_us));
    }

    #[test]
    fn folded_output_is_flamegraph_shaped() {
        let report = log(vec![
            ev("exec", 0, 10, 0),
            ev("aggregate", 11, 5, 1),
            ev("verify", 10, 8, 0),
        ]);
        let folded = report.folded_stacks();
        let lines: Vec<&str> = folded.lines().collect();
        assert_eq!(
            lines,
            vec!["main;exec 10", "main;verify 3", "main;verify;aggregate 5"]
        );
        // Every line: frames then one numeric field after the last space.
        for l in lines {
            let (_, value) = l.rsplit_once(' ').expect("value field");
            value.parse::<u64>().expect("numeric self time");
        }
    }

    #[test]
    fn orphan_spans_attach_to_the_root() {
        // Depth-2 span whose ancestors never closed (mid-run snapshot).
        let report = log(vec![ev("aggregate", 5, 7, 2)]);
        let rows = report.span_attribution();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].stack, "main;aggregate");
        assert_eq!(rows[0].self_us, 7);
    }

    #[test]
    fn details_become_frame_qualifiers_and_are_sanitized() {
        let spans = vec![SpanEvent {
            name: "aggregate",
            detail: Some("Link(a b;c)".to_string()),
            start_us: 0,
            dur_us: 3,
            depth: 0,
        }];
        let folded = log(spans).folded_stacks();
        assert_eq!(folded, "main;aggregate(Link(a_b_c)) 3\n");
    }

    #[test]
    fn sibling_spans_at_equal_depth_do_not_nest() {
        let folded = log(vec![ev("a", 0, 4, 0), ev("b", 4, 6, 0)]).folded_stacks();
        assert_eq!(folded, "main;a 4\nmain;b 6\n");
    }
}
