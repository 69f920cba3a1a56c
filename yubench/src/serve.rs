//! The serve child: one long-lived `ServeSession` answering the edit
//! script, closed loop, one client.

use crate::batch::{arena_layers, load_spec, trace_pipeline, trace_setup};
use crate::gen::KINDS;
use crate::obj;
use crate::spans::Recorder;
use crate::stats::median;
use serde::{Serialize, Value};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;
use yu::core::{IncrementalVerifier, YuOptions};
use yu::net::ChangeSet;
use yu::serve::{parse_changes, ServeSession};
use yu::spec::VerifySpec;

/// Cold starts timed per pass (the last one answers the script);
/// `setup_s` is the median over the run.
const COLD_STARTS: usize = 3;

/// The options `yu serve` runs with when given no flags: sequential
/// execution and a sequential check.
pub fn serve_options(spec: &VerifySpec) -> YuOptions {
    YuOptions {
        k: spec.k,
        mode: spec.mode,
        workers: 1,
        check_workers: 1,
        check_workers_auto: false,
        ..Default::default()
    }
}

fn read_script(path: &Path) -> Vec<String> {
    std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
        .lines()
        .map(str::to_string)
        .collect()
}

/// A response without the fields that depend on the wall clock (stage
/// timings and the slow-request count), which are the only part allowed
/// to differ between passes.
fn timeless(v: &Value) -> Value {
    match v {
        Value::Map(m) => Value::Map(
            m.iter()
                .filter(|(k, _)| !k.ends_with("_secs") && *k != "slow_requests")
                .map(|(k, v)| (k.clone(), timeless(v)))
                .collect(),
        ),
        Value::Seq(items) => Value::Seq(items.iter().map(timeless).collect()),
        other => other.clone(),
    }
}

fn parse(json: &str) -> Value {
    serde_json::from_str(json).expect("the session speaks JSON")
}

/// One pass of the untraced run, in a process of its own: cold starts,
/// then a fresh session answers the whole script. The `fingerprint` — the
/// responses without their wall-clock fields — must not change from one
/// pass to the next.
pub fn run_untraced(
    spec_path: &Path,
    script_path: &Path,
    responses_out: &Path,
) -> Result<Value, String> {
    let script = read_script(script_path);
    let mut setup_s = Vec::with_capacity(COLD_STARTS);
    let mut session = None;
    for _ in 0..COLD_STARTS {
        // Free the previous arena first, as a restarted daemon would have.
        drop(session.take());
        let t0 = Instant::now();
        let spec = load_spec(spec_path);
        session = Some(ServeSession::new(&spec, serve_options(&spec)));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut session = session.expect("at least one cold start");
    let mut latency_ms = Vec::with_capacity(script.len());
    let mut responses = Vec::with_capacity(script.len());
    let t_script = Instant::now();
    for line in &script {
        let t = Instant::now();
        let response = session.handle_line(line);
        latency_ms.push(t.elapsed().as_secs_f64() * 1e3);
        responses.push(response);
    }
    let pass_s = t_script.elapsed().as_secs_f64();
    std::fs::write(responses_out, responses.join("\n") + "\n")
        .map_err(|e| format!("cannot write {}: {e}", responses_out.display()))?;
    let timeless: Vec<Value> = responses.iter().map(|r| timeless(&parse(r))).collect();
    Ok(obj([
        ("setup_s", setup_s.to_value()),
        ("rep_s", Value::Float(pass_s)),
        ("latency_ms", latency_ms.to_value()),
        ("peak_rss_mb", Value::Float(crate::peak_rss_mb())),
        ("fingerprint", obj([("responses", Value::Seq(timeless))])),
    ]))
}

/// The traced run: the cold start driven layer by layer as on the batch
/// workloads, then one pass over the script with a span per request, and
/// the same change-sets applied to a bare `IncrementalVerifier` to split
/// each request into the delta engine and the session wrapped around it.
pub fn run_traced(
    spec_path: &Path,
    script_path: &Path,
    trace_out: &Path,
    seed: u64,
) -> Result<Value, String> {
    let script = read_script(script_path);
    let mut rec = Recorder::new();
    let (spec, mut layers) = trace_setup(&mut rec, spec_path);
    let (_, check_workers) = trace_pipeline(&mut rec, &spec, seed, &mut layers)?;

    // JSON in, `ChangeSet` out: the parsing the session does per request.
    let change_json: Vec<String> = script
        .iter()
        .map(|line| {
            let v = parse(line);
            let changes = v.as_object().and_then(|m| m.get("changes"));
            changes.expect("requests carry changes").to_string()
        })
        .collect();
    let mut change_sets = Vec::with_capacity(script.len());
    let t0 = Instant::now();
    for json in &change_json {
        let changes = parse_changes(black_box(json)).expect("the script parses");
        change_sets.push(ChangeSet { changes });
    }
    let parse_s = t0.elapsed().as_secs_f64();

    rec.next_run();
    let opts = serve_options(&spec);
    let (mut session, _) = rec.time("serve.cold_start", "", || ServeSession::new(&spec, opts));
    let mut inc = IncrementalVerifier::new(
        spec.network.clone(),
        spec.flows.clone(),
        spec.tlp.clone(),
        opts,
    );
    inc.verify();
    // Request by request, the session and the bare engine: the two do the
    // same symbolic work under the same memory conditions, so their
    // difference is the session wrapped around the engine.
    let root = rec.enter("serve.script", "");
    let mut by_kind: Vec<Vec<f64>> = vec![Vec::new(); KINDS.len()];
    let mut peak_live = 0;
    let mut responses = Vec::with_capacity(script.len());
    let (mut reused_groups, mut groups, mut reused_reqs, mut reqs, mut dirty) = (0, 0, 0, 0, 0);
    for (i, (line, cs)) in script.iter().zip(&change_sets).enumerate() {
        let kind = i % KINDS.len();
        // Whichever goes second finds the caches full of the other's
        // arena, so the order alternates.
        let mut serve = |rec: &mut Recorder| {
            rec.time("serve.request", KINDS[kind], || session.handle_line(line))
        };
        let mut apply = |rec: &mut Recorder| rec.time("delta.apply", KINDS[kind], || inc.apply(cs));
        let ((response, secs), (out, _)) = if i % 2 == 0 {
            let served = serve(&mut rec);
            (served, apply(&mut rec))
        } else {
            let applied = apply(&mut rec);
            (serve(&mut rec), applied)
        };
        by_kind[kind].push(secs * 1e3);
        peak_live = peak_live.max(session.verifier().verifier().manager().live_nodes());
        let out = out.map_err(|e| format!("request {i} was rejected: {e}"))?;
        let d = inc.delta_stats();
        reused_groups += d.reused_groups;
        groups += d.reused_groups + d.recomputed_groups;
        reused_reqs += d.reused_reqs;
        reqs += d.reused_reqs + d.rechecked_reqs;
        dirty += d.dirty_points;
        // The session must have answered what the bare engine answers.
        let answered = parse(&response);
        let answered = answered.as_object().and_then(|m| m.get("violations"));
        if answered != Some(&out.violations.to_value()) {
            return Err(format!(
                "request {i}: the session and the bare delta engine disagree"
            ));
        }
        responses.push(response);
    }
    rec.exit(root);
    let (handle_s, apply_s) = (rec.total("serve.request"), rec.total("delta.apply"));

    let arena = session.verifier().verifier().manager();
    let stats = session.verifier().verifier().mtbdd_stats();
    // On this workload the arena of interest is the long-lived one.
    arena_layers(
        &stats,
        arena.unique_probe_stats().mean(),
        arena.arena_bytes(),
        &mut layers,
    );
    let share = |part: usize, whole: usize| part as f64 / whole.max(1) as f64;
    for (name, value) in [
        ("delta.apply_s", apply_s),
        ("delta.group_reuse", share(reused_groups, groups)),
        ("delta.req_reuse", share(reused_reqs, reqs)),
        ("delta.dirty_points", dirty as f64),
        ("serve.wrap_s", handle_s - apply_s),
        ("serve.parse_s", parse_s),
        ("serve.peak_live_nodes", peak_live as f64),
        // Here the two describe the loop around the timed calls.
        (
            "trace.overhead",
            rec.secs(root) / (handle_s + apply_s) - 1.0,
        ),
        (
            "trace.unattributed_share",
            rec.self_secs(root) / rec.secs(root),
        ),
    ] {
        layers.insert(name.to_string(), value);
    }
    for (kind, samples) in KINDS.iter().zip(&by_kind) {
        layers.insert(format!("serve.{kind}_p50_ms"), median(samples));
    }
    std::fs::write(trace_out, rec.chrome_json())
        .map_err(|e| format!("cannot write {}: {e}", trace_out.display()))?;
    Ok(obj([
        ("layers", layers.to_value()),
        ("responses", responses.to_value()),
        ("check_workers", check_workers.to_value()),
    ]))
}
