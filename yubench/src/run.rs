//! The parent side of one run: generate the inputs, run the child, check
//! its verdicts, assemble the record.

use crate::gen::{generate, Scale, SERVE};
use crate::oracle::{check_batch, check_serve, reported, RANDOM_SCENARIOS};
use crate::report::{Record, Schema};
use crate::stats::{describe, fastest, median, nearest_rank, tail_percentile};
use crate::{batch, Layers};
use serde::{Deserialize, Value};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// What to run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds to measure.
    pub seconds: f64,
    /// Traced (per-layer) or untraced (end-to-end) run.
    pub trace: bool,
    /// Instance size.
    pub scale: Scale,
}

/// Where generated inputs, responses and traces go: `out/` beside this
/// package's manifest, which the repository's `.gitignore` names.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Runs one workload once and returns its record plus report lines for
/// the human reader.
pub fn run(schema: &Schema, args: &RunArgs, exe: &Path) -> Result<(Record, Vec<String>), String> {
    let inst = generate(&args.workload, args.seed, args.scale)?;
    let serve = args.workload == SERVE;
    let dir = out_dir().join(format!(
        "{}-s{}-t{}-p{}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let write = |name: &str, text: String| {
        std::fs::write(dir.join(name), text).map_err(|e| format!("cannot write {name}: {e}"))
    };
    write("spec.json", inst.spec.to_json())?;
    let lines: Vec<String> = inst
        .script
        .iter()
        .enumerate()
        .map(|(i, r)| r.line(i))
        .collect();
    write("script.jsonl", lines.join("\n"))?;
    let trace_out = out_dir().join(format!("{}.trace.json", args.workload));

    let outcome = children(exe, &dir, &trace_out, args, serve);
    let responses = std::fs::read_to_string(dir.join("responses.jsonl")).unwrap_or_default();
    // Only the trace outlives the run.
    let _ = std::fs::remove_dir_all(&dir);
    let results = outcome?;

    let first = &results[0];
    let reps = results.len() as u64;
    let mut notes = Vec::new();
    let mut values = Layers::new();
    if args.trace {
        let layers = field(first, "layers")?;
        for (name, value) in layers.as_object().ok_or("layers is an object")?.iter() {
            let value = f64::from_value(value).map_err(|e| e.to_string())?;
            values.insert(name.clone(), value);
        }
        // Metrics of the layers a workload does not enter read 0.
        for m in &schema.per_layer {
            values.entry(m.name.clone()).or_insert(0.0);
        }
        notes.push(format!(
            "check workers: auto resolves to {} of {}; trace: {}",
            number(first, "check_workers")?,
            batch::nproc(),
            trace_out.display()
        ));
    } else {
        let mut setup = Vec::new();
        let (mut rep, mut rss) = (Vec::new(), Vec::new());
        for result in &results {
            setup.extend(floats(result, "setup_s")?);
            rep.push(number(result, "rep_s")?);
            rss.push(number(result, "peak_rss_mb")?);
        }
        // The latency of request i is its fastest time over the passes: the
        // script is deterministic, so request i does the same work in each.
        // A batch row has one request, the whole verification.
        let latency_ms: Vec<f64> = if serve {
            let passes = results
                .iter()
                .map(|r| floats(r, "latency_ms"))
                .collect::<Result<Vec<_>, _>>()?;
            (0..passes[0].len())
                .map(|i| fastest(&passes.iter().map(|p| p[i]).collect::<Vec<_>>()))
                .collect()
        } else {
            vec![fastest(&rep) * 1e3]
        };
        values.insert("setup_s".into(), fastest(&setup));
        values.insert("run_s".into(), fastest(&rep));
        values.insert("req_p50_ms".into(), nearest_rank(&latency_ms, 0.5));
        values.insert("req_p90_ms".into(), nearest_rank(&latency_ms, 0.9));
        values.insert("peak_rss_mb".into(), median(&rss));
        notes.push(format!("setup_s samples: {}", describe(&setup)));
        notes.push(format!("run_s samples: {}", describe(&rep)));
        notes.push(format!(
            "req_*_ms samples: {}; highest percentile with 10 samples beyond it: {}",
            describe(&latency_ms),
            tail_percentile(latency_ms.len()).map_or("none".to_string(), |p| format!("p{p}"))
        ));
    }

    let (operations, rejected) = if serve {
        let answered: Vec<String> = if args.trace {
            Vec::<String>::from_value(&field(first, "responses")?).map_err(|e| e.to_string())?
        } else {
            responses.lines().map(str::to_string).collect()
        };
        let failed = check_serve(&inst.spec, &inst.script, &answered, args.seed);
        (inst.script.len(), failed.len())
    } else {
        let violations = reported(&field(first, "violations")?)?;
        let failed = check_batch(&inst.spec, &violations, RANDOM_SCENARIOS, args.seed);
        notes.push(format!(
            "{} of {} requirements violated; oracle rejects {}",
            violations.len(),
            inst.spec.tlp.reqs.len(),
            failed.len()
        ));
        (inst.spec.tlp.reqs.len(), failed.len())
    };
    let counts = (operations as u64 * reps, rejected as u64 * reps);
    let record = Record::new(
        schema,
        &args.workload,
        args.seed,
        args.trace,
        counts,
        &values,
    )?;
    Ok((record, notes))
}

/// Fewest repetitions of an untraced run — whole verifications on a batch
/// row, passes over the script on the serve row — however long one takes.
fn min_reps(serve: bool) -> usize {
    if serve {
        2
    } else {
        3
    }
}

/// Runs one child for the traced run; for the untraced run, one child per
/// repetition until `seconds` have been measured. Every `yu verify` is a
/// process of its own, and so is every repetition here: a process that
/// lands in a slow phase of a shared machine then costs one sample, not
/// the run. What the children report must agree (their `fingerprint`).
fn children(
    exe: &Path,
    dir: &Path,
    trace_out: &Path,
    args: &RunArgs,
    serve: bool,
) -> Result<Vec<Value>, String> {
    if args.trace {
        return Ok(vec![child(exe, dir, trace_out, args, serve)?]);
    }
    let mut results: Vec<Value> = Vec::new();
    let mut measured = 0.0;
    while results.len() < min_reps(serve) || measured < args.seconds {
        let result = child(exe, dir, trace_out, args, serve)?;
        measured += number(&result, "rep_s")?;
        if let Some(reference) = results.first() {
            let (a, b) = (
                field(reference, "fingerprint")?,
                field(&result, "fingerprint")?,
            );
            let (a, b) = (a.as_object(), b.as_object());
            let differs = a
                .zip(b)
                .and_then(|(a, b)| a.iter().find(|(k, v)| b.get(k) != Some(v)));
            if let Some((metric, _)) = differs {
                return Err(format!("nondeterministic: {metric}"));
            }
        }
        results.push(result);
    }
    Ok(results)
}

/// Field `name` of a child's result object.
fn field(result: &Value, name: &str) -> Result<Value, String> {
    let v = result.as_object().and_then(|m| m.get(name)).cloned();
    v.ok_or_else(|| format!("the child reported no '{name}'"))
}

fn number(result: &Value, name: &str) -> Result<f64, String> {
    f64::from_value(&field(result, name)?).map_err(|e| format!("child field '{name}': {e}"))
}

fn floats(result: &Value, name: &str) -> Result<Vec<f64>, String> {
    Vec::<f64>::from_value(&field(result, name)?).map_err(|e| format!("child field '{name}': {e}"))
}

/// Runs the child — this same binary — with every `YU_*` variable
/// scrubbed, waits for it, and parses the one JSON line it prints.
fn child(
    exe: &Path,
    dir: &Path,
    trace_out: &Path,
    args: &RunArgs,
    serve: bool,
) -> Result<Value, String> {
    let mut cmd = Command::new(exe);
    cmd.arg("--child")
        .arg(if serve { "serve" } else { "batch" })
        .arg("--dir")
        .arg(dir)
        .arg("--trace-out")
        .arg(trace_out)
        .args(["--seed", &args.seed.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("YU_") {
            cmd.env_remove(key);
        }
    }
    // `output` waits for the child to end.
    let out = cmd
        .output()
        .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
    if !out.status.success() {
        return Err(format!(
            "the {} child failed: {}",
            args.workload, out.status
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    serde_json::from_str(last).map_err(|e| format!("the child's result does not parse: {e}"))
}

/// The child's side of [`child`]: runs the measurement and returns the
/// JSON line for the parent.
pub fn child_main(
    kind: &str,
    dir: &Path,
    trace_out: &Path,
    seed: u64,
    trace: bool,
) -> Result<Value, String> {
    let spec = dir.join("spec.json");
    let script = dir.join("script.jsonl");
    match (kind, trace) {
        ("batch", false) => batch::run_untraced(&spec),
        ("batch", true) => batch::run_traced(&spec, trace_out, seed),
        ("serve", false) => {
            crate::serve::run_untraced(&spec, &script, &dir.join("responses.jsonl"))
        }
        ("serve", true) => crate::serve::run_traced(&spec, &script, trace_out, seed),
        (other, _) => Err(format!("unknown child kind '{other}'")),
    }
}
