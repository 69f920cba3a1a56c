//! The span recorder of the traced run.
//!
//! Spans are recorded from this package only, around the calls into each
//! layer's public functions; the program itself is not instrumented. They
//! are kept in memory and written once, at exit, as Chrome trace-event
//! JSON (open it in `chrome://tracing` or Perfetto).

use std::time::Instant;

/// One recorded span. Times are microseconds since the recorder started.
#[derive(Debug, Clone, PartialEq)]
struct Span {
    /// Layer-qualified name, `<module>.<what>`.
    name: String,
    /// Free-form detail (request kind, load point).
    detail: String,
    /// Start time.
    start_us: f64,
    /// End time.
    end_us: f64,
    /// Index of the span that caused this one.
    parent: Option<usize>,
    /// Identifier shared by the spans of one run.
    run: u32,
}

/// Records spans in call order; nesting follows `enter`/`exit` pairing.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    run: u32,
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder::new()
    }
}

impl Recorder {
    /// A recorder whose clock starts now.
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            run: 0,
        }
    }

    /// Starts a new run: later spans carry the next run identifier.
    pub fn next_run(&mut self) {
        self.run += 1;
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span under the innermost open one and returns its index.
    pub fn enter(&mut self, name: &str, detail: &str) -> usize {
        let start_us = self.now_us();
        self.spans.push(Span {
            name: name.to_string(),
            detail: detail.to_string(),
            start_us,
            end_us: start_us,
            parent: self.open.last().copied(),
            run: self.run,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: usize) {
        let end_us = self.now_us();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_us = end_us;
    }

    /// Records `f` as a leaf span and returns its result and its duration
    /// in seconds.
    pub fn time<T>(&mut self, name: &str, detail: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.enter(name, detail);
        let out = f();
        self.exit(id);
        (out, self.secs(id))
    }

    /// Duration of span `id` in seconds.
    pub fn secs(&self, id: usize) -> f64 {
        (self.spans[id].end_us - self.spans[id].start_us) / 1e6
    }

    /// Summed duration, in seconds, of every span called `name`.
    pub fn total(&self, name: &str) -> f64 {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self.secs(i))
            .sum()
    }

    /// Self time of span `id` in seconds: the part of it that no child
    /// span accounts for.
    pub fn self_secs(&self, id: usize) -> f64 {
        let children: f64 = (0..self.spans.len())
            .filter(|&i| self.spans[i].parent == Some(id))
            .map(|i| self.secs(i))
            .sum();
        self.secs(id) - children
    }

    /// The spans as Chrome trace-event JSON (`ph: "X"` complete events;
    /// `args` carries the span index, its parent and the run identifier).
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let mut detail = String::new();
            serde::write_json_escaped(&s.detail, &mut detail);
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{},\"parent\":{},\"run\":{},\"detail\":{}}}}}",
                s.name,
                s.run,
                s.start_us,
                s.end_us - s.start_us,
                i,
                parent,
                s.run,
                detail
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_us: f64, end_us: f64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            detail: String::new(),
            start_us,
            end_us,
            parent,
            run: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let mut rec = Recorder::new();
        rec.spans = vec![
            span("run", 0.0, 100e6, None),
            span("routing.total", 10e6, 30e6, Some(0)),
            span("core.exec", 30e6, 90e6, Some(0)),
            span("core.equivalence", 40e6, 50e6, Some(2)),
            span("core.exec", 95e6, 97e6, Some(0)),
        ];
        assert_eq!(rec.self_secs(0), 100.0 - 20.0 - 60.0 - 2.0);
        assert_eq!(rec.self_secs(1), 20.0);
        // A grandchild is charged to its parent only.
        assert_eq!(rec.self_secs(2), 60.0 - 10.0);
        assert_eq!(rec.self_secs(3), 10.0);
        let all: f64 = (0..5).map(|i| rec.self_secs(i)).sum();
        assert_eq!(all, 100.0, "self times partition the root");
        assert_eq!(rec.total("core.exec"), 62.0, "spans of one name add up");
    }

    #[test]
    fn recorder_nests_and_exports() {
        let mut rec = Recorder::new();
        let root = rec.enter("run", "");
        let (v, secs) = rec.time("core.check", "link \"a\"", || 7);
        rec.exit(root);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert_eq!(rec.spans[1].parent, Some(root));
        assert!(rec.secs(root) >= rec.total("core.check"));
        assert_eq!(rec.self_secs(root), rec.secs(root) - rec.secs(1));
        let json: serde::Value = serde_json::from_str(&rec.chrome_json()).unwrap();
        let events = json.as_object().unwrap().get("traceEvents").unwrap();
        assert_eq!(events.as_array().unwrap().len(), 2);
    }
}
