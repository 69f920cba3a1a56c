//! The batch child: from-scratch verification of one spec file, timed end
//! to end (untraced) or layer by layer (traced).

use crate::spans::Recorder;
use crate::{obj, Layers};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Serialize, Value};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;
use yu::analysis::{classify, PreflightConfig, ReqClass};
use yu::core::{
    check_requirement, global_groups_classified, VerificationOutcome, Violation, YuOptions,
    YuVerifier,
};
use yu::mtbdd::{Mtbdd, MtbddStats};
use yu::net::{FailureVars, Flow, TlpReq, DEFAULT_MAX_HOPS};
use yu::routing::{classify_prefixes, guarded_sr_policies, BgpState, IgpState};
use yu::spec::VerifySpec;
use yu::telemetry::registry;

/// Set-ups timed per repetition.
const SETUPS: usize = 15;

/// Hardware threads, the cap of `--check-workers auto`.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The options `yu verify` runs with when given no flags: sequential
/// execution, check sharding left to the `auto` cost model.
pub fn verify_options(spec: &VerifySpec) -> YuOptions {
    YuOptions {
        k: spec.k,
        mode: spec.mode,
        workers: 1,
        check_workers: nproc(),
        check_workers_auto: true,
        ..Default::default()
    }
}

/// Set-up as a user of `yu verify` pays it: read the spec file, parse it,
/// lint it.
pub fn load_spec(path: &Path) -> VerifySpec {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let spec = VerifySpec::from_json(&text).expect("the generated spec parses");
    assert!(!spec.has_errors(), "the generated spec lints clean");
    spec
}

/// Spec in, verdicts out: what `yu verify` does between parsing and
/// printing.
fn verify(spec: &VerifySpec) -> (YuVerifier, VerificationOutcome) {
    let mut v = YuVerifier::new(spec.network.clone(), verify_options(spec));
    v.add_flows(&spec.flows);
    let out = v.verify(&spec.tlp);
    (v, out)
}

/// One repetition of the untraced run, in a process of its own as every
/// `yu verify` is: `setup_s` samples, then one whole verification. The
/// `fingerprint` is what must not change from one repetition to the next,
/// keyed by the metric it would show in.
pub fn run_untraced(spec_path: &Path) -> Result<Value, String> {
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut spec = None;
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        spec = Some(black_box(load_spec(spec_path)));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let spec = spec.expect("at least one set-up");
    let t0 = Instant::now();
    let (v, out) = verify(&spec);
    let rep_s = t0.elapsed().as_secs_f64();
    // Tearing the arena down is not part of "verdicts out".
    drop(v);
    let violations = out.violations.to_value();
    Ok(obj([
        ("setup_s", setup_s.to_value()),
        ("rep_s", Value::Float(rep_s)),
        ("peak_rss_mb", Value::Float(crate::peak_rss_mb())),
        ("violations", violations.clone()),
        (
            "fingerprint",
            obj([
                (
                    "mtbdd.nodes_created",
                    out.stats.mtbdd.nodes_created.to_value(),
                ),
                (
                    "mtbdd.peak_nodes",
                    out.stats.mtbdd.unique_table_peak.to_value(),
                ),
                ("core.group_ratio", out.stats.flow_groups.to_value()),
                ("core.violations", out.violations.len().to_value()),
                ("violation set", violations),
            ]),
        ),
    ]))
}

/// The traced run: one untraced verification for reference, then the same
/// pipeline driven call by call under the recorder.
pub fn run_traced(spec_path: &Path, trace_out: &Path, seed: u64) -> Result<Value, String> {
    let mut rec = Recorder::new();
    let (spec, mut layers) = trace_setup(&mut rec, spec_path);
    let (violations, check_workers) = trace_pipeline(&mut rec, &spec, seed, &mut layers)?;
    std::fs::write(trace_out, rec.chrome_json())
        .map_err(|e| format!("cannot write {}: {e}", trace_out.display()))?;
    Ok(obj([
        ("layers", layers.to_value()),
        ("violations", violations.to_value()),
        ("check_workers", check_workers.to_value()),
    ]))
}

/// Set-up under the recorder: `spec.parse_s` and `analysis.lint_s`.
pub fn trace_setup(rec: &mut Recorder, spec_path: &Path) -> (VerifySpec, Layers) {
    let text = std::fs::read_to_string(spec_path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", spec_path.display()));
    let mut layers = Layers::new();
    let (spec, parse_s) = rec.time("spec.parse", "", || {
        VerifySpec::from_json(&text).expect("the generated spec parses")
    });
    let (diags, lint_s) = rec.time("analysis.lint", "", || spec.validate());
    assert!(diags.iter().all(|d| !d.is_error()), "the spec lints clean");
    layers.insert("spec.parse_s".into(), parse_s);
    layers.insert("analysis.lint_s".into(), lint_s);
    (spec, layers)
}

/// Drives the calls `YuVerifier::verify` makes, in its order, each under
/// a span, and fills in every batch layer metric. The verdicts must equal
/// those of the untraced `verify`, so this mirror cannot drift from the
/// real pipeline unnoticed. Returns them with the check worker count the
/// `auto` cost model resolves to.
pub fn trace_pipeline(
    rec: &mut Recorder,
    spec: &VerifySpec,
    seed: u64,
    layers: &mut Layers,
) -> Result<(Vec<Violation>, usize), String> {
    let mut put = |name: &str, value: f64| {
        layers.insert(name.to_string(), value);
    };
    let t0 = Instant::now();
    let (reference_v, reference) = verify(spec);
    let untraced_s = t0.elapsed().as_secs_f64();
    drop(reference_v);

    rec.next_run();
    let opts = verify_options(spec);
    let root = rec.enter("run", "");
    let (mut v, routing_s) = rec.time("routing.total", "", || {
        YuVerifier::new(spec.network.clone(), opts)
    });
    let routing_nodes = v.mtbdd_stats().nodes_created;
    let (groups, equivalence_s) = rec.time("core.equivalence", "", || {
        global_groups_classified(&spec.network, &spec.flows)
    });
    // `add_flows` groups the flows again before executing them.
    let ((), add_flows_s) = rec.time("core.exec", "", || v.add_flows(&spec.flows));
    let exec_nodes = v.mtbdd_stats().nodes_created - routing_nodes;
    // Preflight classifies over the executed groups, as `verify` does.
    let group_flows: Vec<Flow> = groups
        .iter()
        .map(|g| Flow {
            volume: g.volume.clone(),
            ..g.rep.clone()
        })
        .collect();
    let (classes, preflight_s) = rec.time("analysis.preflight", "", || {
        let cfg = PreflightConfig {
            k: opts.k,
            mode: opts.mode,
            max_hops: DEFAULT_MAX_HOPS,
        };
        classify(&spec.network, &group_flows, &spec.tlp, cfg)
    });
    let kept: Vec<&TlpReq> = classes
        .iter()
        .filter(|c| c.class != ReqClass::ProvenSafe)
        .map(|c| &spec.tlp.reqs[c.req_ix])
        .collect();
    let kept_reqs: Vec<TlpReq> = kept.iter().map(|&r| r.clone()).collect();
    let check_workers = v.auto_check_workers(&kept_reqs);
    let fv: FailureVars = v.failure_vars().clone();
    let mut violations = Vec::new();
    let (mut aggregate_nodes, mut check_nodes) = (0usize, 0usize);
    let created = |v: &YuVerifier| v.mtbdd_stats().nodes_created;
    for req in &kept {
        let detail = req.point.describe(&spec.network.topo);
        let n0 = created(&v);
        let (tau, _) = rec.time("core.aggregate", &detail, || v.load_mtbdd(req.point));
        let n1 = created(&v);
        let (violation, _) = rec.time("core.check", &detail, || {
            check_requirement(v.manager_mut(), &fv, tau, req, opts.k)
        });
        // A collection in between resets the count; such a step adds 0.
        aggregate_nodes += n1.saturating_sub(n0);
        check_nodes += created(&v).saturating_sub(n1);
        violations.extend(violation);
    }
    rec.exit(root);
    if violations != reference.violations {
        return Err("the traced pipeline's verdicts differ from verify()'s".into());
    }

    let traced_s = rec.secs(root);
    let stats = v.mtbdd_stats();
    let probes = v.manager().unique_probe_stats();
    let reqs = spec.tlp.reqs.len().max(1) as f64;
    let (agg_flows, agg_classes) = reference
        .stats
        .per_point
        .values()
        .fold((0, 0), |(f, c), a| (f + a.flows, c + a.classes));
    put("analysis.preflight_s", preflight_s);
    put("analysis.pruned_share", 1.0 - kept.len() as f64 / reqs);
    put("net.failure_vars", fv.num_elements() as f64);
    put("routing.total_s", routing_s);
    put("routing.nodes", routing_nodes as f64);
    put("core.equivalence_s", equivalence_s);
    put(
        "core.group_ratio",
        groups.len() as f64 / spec.flows.len().max(1) as f64,
    );
    put("core.exec_s", add_flows_s - equivalence_s);
    put("core.exec_nodes", exec_nodes as f64);
    put("core.aggregate_s", rec.total("core.aggregate"));
    put("core.aggregate_nodes", aggregate_nodes as f64);
    put(
        "core.class_ratio",
        agg_classes as f64 / agg_flows.max(1) as f64,
    );
    put("core.check_s", rec.total("core.check"));
    put("core.check_nodes", check_nodes as f64);
    put("core.violations", violations.len() as f64);
    put("trace.overhead", traced_s / untraced_s - 1.0);
    put("trace.unattributed_share", rec.self_secs(root) / traced_s);
    arena_layers(&stats, probes.mean(), v.manager().arena_bytes(), layers);
    drop(v);
    routing_parts(rec, spec, layers);
    lpm(spec, seed, layers);
    Ok((violations, check_workers))
}

/// The `mtbdd.*` metrics of one arena.
pub fn arena_layers(s: &MtbddStats, probe_mean: f64, arena_bytes: usize, layers: &mut Layers) {
    let rate = |hits: u64, misses: u64| hits as f64 / (hits + misses).max(1) as f64;
    let evictions = s.apply_cache_evictions
        + s.fused_cache_evictions
        + s.apply1_cache_evictions
        + s.ite_cache_evictions
        + s.restrict_cache_evictions
        + s.kreduce_cache_evictions
        + s.alive_cache_evictions;
    for (name, value) in [
        ("mtbdd.nodes_created", s.nodes_created as f64),
        ("mtbdd.peak_nodes", s.unique_table_peak as f64),
        ("mtbdd.arena_mb", arena_bytes as f64 / 1e6),
        (
            "mtbdd.apply_hit_rate",
            rate(s.apply_cache_hits, s.apply_cache_misses),
        ),
        (
            "mtbdd.fused_hit_rate",
            rate(s.fused_cache_hits, s.fused_cache_misses),
        ),
        (
            "mtbdd.kreduce_hit_rate",
            rate(s.kreduce_cache_hits, s.kreduce_cache_misses),
        ),
        ("mtbdd.cache_evictions", evictions as f64),
        ("mtbdd.probe_mean", probe_mean),
        ("mtbdd.gc_runs", s.gc_runs as f64),
        ("mtbdd.gc_reclaimed", s.gc_reclaimed_nodes as f64),
    ] {
        layers.insert(name.to_string(), value);
    }
}

/// Splits `routing.total_s`: the three parts of the symbolic route
/// simulation, run once more on a scratch arena, with their round counts
/// read off the metrics registry.
fn routing_parts(rec: &mut Recorder, spec: &VerifySpec, layers: &mut Layers) {
    rec.next_run();
    let root = rec.enter("routing.parts", "scratch arena");
    let net = &spec.network;
    let k = Some(spec.k);
    let mut m = Mtbdd::new();
    let fv = FailureVars::allocate(&mut m, &net.topo, spec.mode);
    let rounds = || {
        (
            registry().route_igp_rounds_total.get(),
            registry().route_bgp_rounds_total.get(),
        )
    };
    let before = rounds();
    let (mut igp, igp_s) = rec.time("routing.igp", "", || IgpState::compute(&mut m, net, &fv, k));
    let (bgp, bgp_s) = rec.time("routing.bgp", "", || {
        BgpState::compute(&mut m, net, &fv, &mut igp, k)
    });
    let (sr, sr_s) = rec.time("routing.sr", "", || {
        guarded_sr_policies(&mut m, net, &mut igp, k)
    });
    let after = rounds();
    black_box((bgp, sr));
    rec.exit(root);
    for (name, value) in [
        ("routing.igp_s", igp_s),
        ("routing.bgp_s", bgp_s),
        ("routing.sr_s", sr_s),
        ("routing.igp_rounds", (after.0 - before.0) as f64),
        ("routing.bgp_rounds", (after.1 - before.1) as f64),
    ] {
        layers.insert(name.to_string(), value);
    }
}

/// `net.lpm_ns`: a million seeded longest-prefix matches on the trie the
/// routing layer classifies prefixes with, over the workload's own
/// destinations.
fn lpm(spec: &VerifySpec, seed: u64, layers: &mut Layers) {
    const LOOKUPS: usize = 1_000_000;
    let (_, trie) = classify_prefixes(&spec.network);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x1B3);
    let dsts: Vec<_> = (0..LOOKUPS)
        .map(|_| spec.flows[rng.random_range(0..spec.flows.len())].dst)
        .collect();
    let t0 = Instant::now();
    let matched = dsts
        .iter()
        .filter(|&&ip| black_box(trie.longest_match(black_box(ip))).is_some())
        .count();
    let ns = t0.elapsed().as_secs_f64() * 1e9 / LOOKUPS as f64;
    assert_eq!(matched, LOOKUPS, "every destination has a route");
    layers.insert("net.lpm_ns".to_string(), ns);
}
