//! `BENCHMARK.json` as the one definition of every metric, the result
//! record of a run, and `--compare`.

use crate::stats::median;
use crate::Layers;
use serde::{Deserialize, Map, Value};
use std::collections::{BTreeMap, BTreeSet};

/// `BENCHMARK.json`, compiled in: the runner prints exactly the metrics
/// it lists and `--compare` applies exactly its bounds.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Per-layer counts that two runs on the same inputs must agree on.
pub const EXACT_COUNTS: [&str; 3] = ["mtbdd.nodes_created", "mtbdd.peak_nodes", "core.violations"];

/// One metric of `BENCHMARK.json`.
#[derive(Debug, Clone, Deserialize)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit, printed beside every value.
    pub unit: String,
    /// `"lower"` or `"higher"`.
    pub better: String,
    /// Share of the baseline median by which the metric may worsen
    /// (end-to-end metrics only).
    #[serde(default)]
    pub bound: Option<f64>,
}

/// One workload of `BENCHMARK.json`.
#[derive(Debug, Clone, Deserialize)]
pub struct Workload {
    /// Workload name.
    pub name: String,
}

/// The parts of `BENCHMARK.json` the runner reads.
#[derive(Debug, Clone, Deserialize)]
pub struct Schema {
    /// Seconds one run measures.
    pub run_seconds: u64,
    /// The workloads.
    pub workloads: Vec<Workload>,
    /// Metrics of untraced runs.
    pub end_to_end: Vec<Metric>,
    /// Metrics of traced runs.
    pub per_layer: Vec<Metric>,
}

impl Schema {
    /// Parses the compiled-in `BENCHMARK.json`.
    pub fn load() -> Schema {
        serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json matches the schema")
    }
}

/// The result of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Whether this was the traced run.
    pub trace: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations the oracle rejected.
    pub failed: u64,
    /// `(name, value, unit)` of every metric of the run, in schema order.
    pub metrics: Vec<(String, f64, String)>,
}

impl Record {
    /// Builds the record of a run from the values measured, taking names
    /// and units from the schema. A listed metric without a value, or a
    /// value without a listing, is a bug in the runner.
    pub fn new(
        schema: &Schema,
        workload: &str,
        seed: u64,
        trace: bool,
        (attempted, failed): (u64, u64),
        values: &Layers,
    ) -> Result<Record, String> {
        let listed = if trace {
            &schema.per_layer
        } else {
            &schema.end_to_end
        };
        let names: BTreeSet<&str> = listed.iter().map(|m| m.name.as_str()).collect();
        if let Some(extra) = values.keys().find(|k| !names.contains(k.as_str())) {
            return Err(format!("metric '{extra}' is not in BENCHMARK.json"));
        }
        let metrics = listed
            .iter()
            .map(|m| {
                let value = values
                    .get(&m.name)
                    .ok_or_else(|| format!("metric '{}' was not measured", m.name))?;
                Ok((m.name.clone(), *value, m.unit.clone()))
            })
            .collect::<Result<_, String>>()?;
        Ok(Record {
            workload: workload.to_string(),
            seed,
            trace,
            attempted,
            failed,
            metrics,
        })
    }

    /// The result object of the driver's contract: `correct`, `attempted`,
    /// `failed`, `metrics`.
    pub fn result_json(&self) -> Value {
        let metrics: Map = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let entry = crate::obj([
                    ("value", Value::Float(*value)),
                    ("unit", Value::Str(unit.clone())),
                ]);
                (name.clone(), entry)
            })
            .collect();
        crate::obj([
            ("correct", Value::Bool(self.failed == 0)),
            ("attempted", Value::Int(self.attempted.into())),
            ("failed", Value::Int(self.failed.into())),
            ("metrics", Value::Map(metrics)),
        ])
    }

    /// One line of an `--out` file: the result object plus what was run.
    pub fn out_line(&self) -> String {
        let Value::Map(mut m) = self.result_json() else {
            unreachable!("the result is an object")
        };
        m.insert("workload", Value::Str(self.workload.clone()));
        m.insert("seed", Value::Int(self.seed.into()));
        m.insert("trace", Value::Bool(self.trace));
        Value::Map(m).to_string()
    }

    /// Parses a line written by [`Record::out_line`].
    pub fn parse(line: &str) -> Result<Record, String> {
        let v: Value = serde_json::from_str(line).map_err(|e| e.to_string())?;
        let m = v.as_object().ok_or("a record is an object")?;
        let int = |k: &str| match m.get(k) {
            Some(Value::Int(i)) => u64::try_from(*i).map_err(|e| e.to_string()),
            _ => Err(format!("record lacks '{k}'")),
        };
        let metrics = m
            .get("metrics")
            .and_then(Value::as_object)
            .ok_or("record lacks 'metrics'")?
            .iter()
            .map(|(name, entry)| {
                let entry = entry.as_object().ok_or("a metric is an object")?;
                let value = entry.get("value").map(f64::from_value);
                let unit = entry.get("unit").and_then(Value::as_str);
                match (value, unit) {
                    (Some(Ok(value)), Some(unit)) => Ok((name.clone(), value, unit.to_string())),
                    _ => Err(format!("metric '{name}' lacks value or unit")),
                }
            })
            .collect::<Result<_, String>>()?;
        Ok(Record {
            workload: m
                .get("workload")
                .and_then(Value::as_str)
                .ok_or("record lacks 'workload'")?
                .to_string(),
            seed: int("seed")?,
            trace: m.get("trace") == Some(&Value::Bool(true)),
            attempted: int("attempted")?,
            failed: int("failed")?,
            metrics,
        })
    }

    fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }
}

/// Parses an `--out` file: one record per line.
pub fn parse_records(text: &str) -> Result<Vec<Record>, String> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(Record::parse)
        .collect()
}

/// `--compare`: for every (end-to-end metric, workload), both medians,
/// the relative difference and the bound; for every (workload, seed) run
/// traced on both sides, the counts that must repeat. Returns the report
/// and whether `b` is within every bound of `a` with equal counts and no
/// more failures.
pub fn compare(schema: &Schema, a: &[Record], b: &[Record]) -> (String, bool) {
    let mut out = String::new();
    let mut ok = true;
    let median_of = |records: &[Record], workload: &str, metric: &str| {
        let values: Vec<f64> = records
            .iter()
            .filter(|r| !r.trace && r.workload == workload)
            .filter_map(|r| r.metric(metric))
            .collect();
        (!values.is_empty()).then(|| (median(&values), values.len()))
    };
    out.push_str(&format!(
        "{:<24} {:<12} {:>12} {:>12} {:>9} {:>7}\n",
        "workload", "metric", "a (median)", "b (median)", "b vs a", "bound"
    ));
    for w in &schema.workloads {
        for m in &schema.end_to_end {
            let (Some((va, na)), Some((vb, nb))) = (
                median_of(a, &w.name, &m.name),
                median_of(b, &w.name, &m.name),
            ) else {
                out.push_str(&format!(
                    "{:<24} {:<12} missing on one side\n",
                    w.name, m.name
                ));
                ok = false;
                continue;
            };
            // Positive means b is worse than a.
            let worse = if m.better == "higher" {
                (va - vb) / va
            } else {
                (vb - va) / va
            };
            let bound = m.bound.unwrap_or(0.0);
            let verdict = if worse > bound {
                ok = false;
                "  REGRESSION"
            } else {
                ""
            };
            out.push_str(&format!(
                "{:<24} {:<12} {:>12.4} {:>12.4} {:>+8.1}% {:>6.0}%  {} (n={na}/{nb}){verdict}\n",
                w.name,
                m.name,
                va,
                vb,
                worse * 100.0,
                bound * 100.0,
                m.unit
            ));
        }
    }
    let failures = |rs: &[Record]| rs.iter().map(|r| r.failed).sum::<u64>();
    if failures(b) > failures(a) {
        out.push_str(&format!(
            "failed operations: a {} b {}  DIFFERS\n",
            failures(a),
            failures(b)
        ));
        ok = false;
    }
    let traced = |rs: &[Record]| -> BTreeMap<(String, u64), Record> {
        rs.iter()
            .filter(|r| r.trace)
            .map(|r| ((r.workload.clone(), r.seed), r.clone()))
            .collect()
    };
    let (ta, tb) = (traced(a), traced(b));
    for (key, ra) in &ta {
        let Some(rb) = tb.get(key) else { continue };
        for count in EXACT_COUNTS {
            let (ca, cb) = (ra.metric(count), rb.metric(count));
            if ca != cb {
                out.push_str(&format!(
                    "{} seed {}: {count} a {ca:?} b {cb:?}  DIFFERS\n",
                    key.0, key.1
                ));
                ok = false;
            }
        }
    }
    out.push_str(if ok {
        "within every bound, counts equal\n"
    } else {
        "NOT within bounds\n"
    });
    (out, ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(workload: &str, seed: u64, trace: bool, metrics: &[(&str, f64)]) -> Record {
        Record {
            workload: workload.to_string(),
            seed,
            trace,
            attempted: 10,
            failed: 0,
            metrics: metrics
                .iter()
                .map(|(n, v)| (n.to_string(), *v, "s".to_string()))
                .collect(),
        }
    }

    fn full_set(schema: &Schema, scale: f64) -> Vec<Record> {
        let mut records = Vec::new();
        for w in &schema.workloads {
            let e2e: Vec<(&str, f64)> = schema
                .end_to_end
                .iter()
                .map(|m| (m.name.as_str(), 2.0 * scale))
                .collect();
            records.push(record(&w.name, 1, false, &e2e));
            let counts: Vec<(&str, f64)> = EXACT_COUNTS.iter().map(|c| (*c, 7.0)).collect();
            records.push(record(&w.name, 1, true, &counts));
        }
        records
    }

    #[test]
    fn records_round_trip_through_out_lines() {
        let r = record("w", 3, true, &[("a.b_s", 0.125), ("c", 4.0)]);
        assert_eq!(Record::parse(&r.out_line()).unwrap(), r);
    }

    #[test]
    fn compare_applies_the_bounds_of_benchmark_json() {
        let schema = Schema::load();
        let base = full_set(&schema, 1.0);
        assert!(compare(&schema, &base, &base).1);
        // Every bound is below 30 %, so 1.3x worse is a regression
        // and 1.3x better is not.
        assert!(!compare(&schema, &base, &full_set(&schema, 1.3)).1);
        assert!(compare(&schema, &full_set(&schema, 1.3), &base).1);
        // A count that differs fails the comparison whatever the times.
        let mut other = base.clone();
        other[1].metrics[0].1 += 1.0;
        let (report, ok) = compare(&schema, &base, &other);
        assert!(!ok && report.contains("DIFFERS"), "{report}");
        // So does a missing workload.
        assert!(!compare(&schema, &base, &base[2..]).1);
    }
}
