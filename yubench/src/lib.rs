//! # yubench
//!
//! The one benchmark of `yu`: four seeded workloads, end-to-end metrics
//! from untraced runs and per-layer metrics from a traced run, every
//! verdict checked against an independent oracle. `../BENCHMARK.json`
//! names the workloads and metrics; `README.md` explains them.
//!
//! The parent process ([`run`]) generates the inputs, starts children of
//! this same binary with every `YU_*` variable scrubbed — one per timed
//! repetition, one for a traced run ([`batch`], [`serve`]) — and checks
//! what they report ([`oracle`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod gen;
pub mod oracle;
pub mod report;
pub mod run;
pub mod serve;
pub mod spans;
pub mod stats;

use serde::{Map, Value};
use std::collections::BTreeMap;

/// Per-layer metric values by their `BENCHMARK.json` name.
pub type Layers = BTreeMap<String, f64>;

/// A JSON object from `(key, value)` pairs, in order.
pub fn obj<const N: usize>(entries: [(&str, Value); N]) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect::<Map>(),
    )
}

/// Peak resident set size of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM is reported in kB");
    kb * 1024.0 / 1e6
}
