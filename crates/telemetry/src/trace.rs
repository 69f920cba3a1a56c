//! Chrome trace-event exporter: renders a [`TelemetryReport`] as the
//! JSON object format understood by `chrome://tracing` and Perfetto.

use serde::{Map, Value};

use crate::profile::ROOT;
use crate::registry::MetricKind;
use crate::report::TelemetryReport;

impl TelemetryReport {
    /// Renders the report as Chrome trace-event JSON (the `traceEvents`
    /// object format): a process-name (`"M"`) metadata event, one
    /// thread-name (`"M"`) metadata event naming the one track `main`,
    /// one complete (`"X"`) event per span on that track, and — when the
    /// metrics registry is recording — one counter (`"C"`) event per
    /// non-empty registry histogram, so the latency distributions show
    /// up as self-described counter tracks alongside the spans in
    /// Perfetto. Timestamps/durations are microseconds from the process
    /// epoch. Written by
    /// `yu verify --trace-out FILE`.
    pub fn chrome_trace_json(&self) -> String {
        let mut events: Vec<Value> = Vec::new();
        let mut process = Map::new();
        process.insert("ph", Value::Str("M".into()));
        process.insert("name", Value::Str("process_name".into()));
        process.insert("pid", Value::Int(1));
        process.insert("tid", Value::Int(0));
        let mut args = Map::new();
        args.insert("name", Value::Str("yu".into()));
        process.insert("args", Value::Map(args));
        events.push(Value::Map(process));
        let mut meta = Map::new();
        meta.insert("ph", Value::Str("M".into()));
        meta.insert("name", Value::Str("thread_name".into()));
        meta.insert("pid", Value::Int(1));
        meta.insert("tid", Value::Int(1));
        let mut args = Map::new();
        args.insert("name", Value::Str(ROOT.into()));
        meta.insert("args", Value::Map(args));
        events.push(Value::Map(meta));
        for s in &self.spans {
            let mut ev = Map::new();
            ev.insert("ph", Value::Str("X".into()));
            ev.insert("name", Value::Str(s.name.to_string()));
            ev.insert("cat", Value::Str("yu".into()));
            ev.insert("pid", Value::Int(1));
            ev.insert("tid", Value::Int(1));
            ev.insert("ts", Value::Int(s.start_us as i128));
            ev.insert("dur", Value::Int(s.dur_us as i128));
            let mut args = Map::new();
            args.insert("depth", Value::Int(s.depth as i128));
            if let Some(detail) = &s.detail {
                args.insert("detail", Value::Str(detail.clone()));
            }
            ev.insert("args", Value::Map(args));
            events.push(Value::Map(ev));
        }
        // Registry histograms as counter tracks, stamped at the end of
        // the recorded timeline so they read as "state after the run".
        if crate::registry_enabled() {
            let end_ts = self
                .spans
                .iter()
                .map(|s| s.start_us + s.dur_us)
                .max()
                .unwrap_or(0);
            for d in crate::registry().descriptors() {
                let MetricKind::Histogram(h, scale) = d.metric else {
                    continue;
                };
                let snap = h.snapshot();
                if snap.count() == 0 {
                    continue;
                }
                let mut ev = Map::new();
                ev.insert("ph", Value::Str("C".into()));
                ev.insert("name", Value::Str(d.name.to_string()));
                ev.insert("pid", Value::Int(1));
                ev.insert("tid", Value::Int(0));
                ev.insert("ts", Value::Int(end_ts as i128));
                let mut args = Map::new();
                args.insert("count", Value::Int(snap.count() as i128));
                args.insert("sum", Value::Float(snap.sum as f64 * scale));
                args.insert("p99", Value::Float(snap.quantile(0.99) as f64 * scale));
                ev.insert("args", Value::Map(args));
                events.push(Value::Map(ev));
            }
        }
        let mut root = Map::new();
        root.insert("traceEvents", Value::Seq(events));
        root.insert("displayTimeUnit", Value::Str("ms".into()));
        let mut out = String::new();
        serde::write_json(&Value::Map(root), None, 0, &mut out);
        out.push('\n');
        out
    }
}
