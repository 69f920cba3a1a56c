//! The subcommands that run a spec through the verifier: `verify`,
//! `explain` and `profile`. All three go through [`run`].

use std::process::ExitCode;
use yu::core::{Explanation, VerificationOutcome, YuVerifier};
use yu::spec::VerifySpec;
use yu::telemetry::fmt_us;

use crate::{exit_code, mode_noun, spec_options};

/// The paper's Fig. 2 pipeline on `spec` — route simulation, exec,
/// aggregation, check — collecting up to `max_violations` violating
/// scenarios per requirement (1 = one counterexample each). Returns the
/// verifier too: `explain` and `profile` read it after the run.
fn run(spec: &VerifySpec, max_violations: usize) -> (YuVerifier, VerificationOutcome) {
    let mut v = YuVerifier::new(spec.network.clone(), spec_options(spec));
    v.add_flows(&spec.flows);
    let out = v.verify_enumerated(&spec.tlp, max_violations);
    (v, out)
}

/// The run statistics as JSON: durations in seconds, counts, and the
/// arena's `mtbdd` counters.
fn stats_map(out: &VerificationOutcome) -> serde::Map {
    use serde::Serialize;
    let mut stats = out.stats.scalars();
    stats.insert("mtbdd", out.stats.mtbdd.to_value());
    stats
}

/// The result object of `yu verify --json` and `yu explain --json`:
/// verdict, violations, one explanation per violation (`yu explain`
/// only), and the run statistics (`telemetry` only when recording).
fn result_json(out: &VerificationOutcome, explanations: Option<&[Explanation]>) -> String {
    use serde::{Map, Serialize, Value};
    let mut stats = stats_map(out);
    stats.insert("telemetry", out.stats.telemetry.to_value());
    let mut root = Map::new();
    root.insert("verified", Value::Bool(out.verified()));
    root.insert("violations", out.violations.to_value());
    if let Some(ex) = explanations {
        root.insert("explanations", ex.to_value());
    }
    root.insert("stats", Value::Map(stats));
    serde_json::to_string_pretty(&Value::Map(root)).expect("serializable")
}

pub fn verify(spec: &VerifySpec, json_output: bool, max_violations: usize) -> ExitCode {
    let (_, out) = run(spec, max_violations);
    if json_output {
        println!("{}", result_json(&out, None));
    } else if out.verified() {
        println!(
            "VERIFIED: the property holds under every scenario with <= {} {} failures",
            spec.k,
            mode_noun(spec.mode)
        );
    } else {
        println!("VIOLATED ({} findings):", out.violations.len());
        for vi in &out.violations {
            println!("  {}", vi.describe(&spec.network.topo));
        }
    }
    // With --json, stdout carries only the machine-readable result
    // object; the human stats line moves to stderr.
    let stats = format!(
        "({} flows -> {} groups; {} req(s) decided by bounds; \
         route {:?}, exec {:?}, check {:?})",
        out.stats.flows_in,
        out.stats.flow_groups,
        out.stats.reqs_bound_decided,
        out.stats.route_time,
        out.stats.exec_time,
        out.stats.check_time
    );
    if json_output {
        eprintln!("{stats}");
    } else {
        println!("{stats}");
    }
    exit_code(out.verified())
}

/// The `yu explain` subcommand: verify (enumerating up to
/// `max_violations` scenarios per requirement) and print a full forensic
/// report — per-flow blame, rerouted paths, concrete replay, load
/// envelope — for every violation found.
pub fn explain(
    spec: &VerifySpec,
    json_output: bool,
    max_violations: usize,
    dot_out: Option<&str>,
) -> ExitCode {
    let (mut v, out) = run(spec, max_violations);
    let explanations: Vec<Explanation> = out.violations.iter().map(|vi| v.explain(vi)).collect();
    if json_output {
        println!("{}", result_json(&out, Some(&explanations)));
    } else if out.verified() {
        println!(
            "VERIFIED: the property holds under every scenario with <= {} {} failures \
             -- nothing to explain",
            spec.k,
            mode_noun(spec.mode)
        );
    } else {
        println!("VIOLATED ({} findings):", out.violations.len());
        for (i, ex) in explanations.iter().enumerate() {
            if i > 0 {
                println!();
            }
            println!("{}", ex.describe(&spec.network.topo));
        }
    }
    if let Some(base) = dot_out {
        for (i, ex) in explanations.iter().enumerate() {
            let path = dot_path(base, i, explanations.len());
            match std::fs::write(&path, yu::core::explanation_dot(&spec.network.topo, ex)) {
                Ok(()) => eprintln!("dot overlay written to {path}"),
                Err(e) => eprintln!("error: cannot write dot to {path}: {e}"),
            }
        }
    }
    exit_code(out.verified())
}

/// Output path for the `i`-th dot overlay: the base path as-is for a
/// single explanation, otherwise `base.dot` -> `base.2.dot` etc.
fn dot_path(base: &str, i: usize, total: usize) -> String {
    if total <= 1 || i == 0 {
        return base.to_string();
    }
    match base.rsplit_once('.') {
        Some((stem, ext)) => format!("{stem}.{}.{ext}", i + 1),
        None => format!("{base}.{}", i + 1),
    }
}

/// The `yu profile` subcommand: run the same verification as
/// `yu verify`, then report where the wall time and the arena nodes
/// went — per flow group, per requirement, per variable level, per
/// operation cache, and per telemetry call path. `top` is the rows per
/// table (0 = all); `folded_out` gets flamegraph folded stacks.
pub fn profile(
    spec: &VerifySpec,
    json_output: bool,
    top: usize,
    folded_out: Option<&str>,
) -> ExitCode {
    let (v, out) = run(spec, 1);
    let attr = v.attribution();
    // Variable levels are failure variables; name them after the link or
    // router they model.
    let level_label = |var: u32| match v.failure_vars().element_of(var) {
        Some(yu::net::FailureElement::Link(u)) => spec.network.topo.ulink_label(u),
        Some(yu::net::FailureElement::Router(r)) => spec.network.topo.router(r).name.clone(),
        None => format!("var{var}"),
    };
    let report = yu::telemetry::snapshot();
    let paths = report.span_attribution();

    if json_output {
        use serde::{Map, Serialize, Value};
        let mut root = Map::new();
        root.insert("verified", Value::Bool(out.verified()));
        root.insert("reconciles", Value::Bool(attr.reconciles()));
        root.insert("attribution", attr.to_value());
        root.insert("span_attribution", paths.to_value());
        root.insert("stats", Value::Map(stats_map(&out)));
        println!(
            "{}",
            serde_json::to_string_pretty(&Value::Map(root)).expect("serializable")
        );
    } else {
        print_profile_tables(spec, &out, &attr, &paths, top, level_label);
    }

    if let Some(path) = folded_out {
        match std::fs::write(path, report.folded_stacks()) {
            Ok(()) => {
                eprintln!("folded stacks written to {path} (render with flamegraph.pl or inferno)")
            }
            Err(e) => eprintln!("error: cannot write folded stacks to {path}: {e}"),
        }
    }
    exit_code(out.verified())
}

/// Renders the human-readable attribution report of `yu profile`.
fn print_profile_tables(
    spec: &VerifySpec,
    out: &yu::core::VerificationOutcome,
    attr: &yu::core::Attribution,
    paths: &[yu::telemetry::FrameRow],
    top: usize,
    level_label: impl Fn(u32) -> String,
) {
    let verdict = if out.verified() {
        "VERIFIED".to_string()
    } else {
        format!("VIOLATED ({} findings)", out.violations.len())
    };
    println!(
        "{verdict} under <= {} {} failures; {} flows -> {} groups, {} requirement(s) \
         ({} decided by bounds)",
        spec.k,
        mode_noun(spec.mode),
        out.stats.flows_in,
        out.stats.flow_groups,
        spec.tlp.reqs.len(),
        out.stats.reqs_bound_decided,
    );
    println!();
    println!("phase         wall        arena nodes");
    println!(
        "  route     {:>9}   {} created by route simulation",
        fmt_us(out.stats.route_time.as_micros() as u64),
        attr.route_nodes,
    );
    for (name, phase) in [("exec", &attr.exec), ("check", &attr.check)] {
        println!(
            "  {:<8}  {:>9}   {:+} over {} entit{}",
            name,
            fmt_us(phase.wall_us),
            phase.nodes_delta,
            phase.entities.len(),
            if phase.entities.len() == 1 {
                "y"
            } else {
                "ies"
            },
        );
    }

    let entity_table = |title: &str, phase: &yu::core::PhaseAttribution| {
        if phase.entities.is_empty() {
            return;
        }
        println!();
        println!("{title}:");
        println!("       wall      Δnodes   entity");
        for e in phase.top_by_wall(top) {
            println!(
                "  {:>9}  {:>+9}   {}",
                fmt_us(e.wall_us),
                e.nodes_delta,
                e.label
            );
        }
        let shown = if top == 0 {
            phase.entities.len()
        } else {
            top.min(phase.entities.len())
        };
        if shown < phase.entities.len() {
            println!("  ... {} more (raise --top)", phase.entities.len() - shown);
        }
    };
    entity_table("top flow groups by exec wall time", &attr.exec);
    entity_table("top requirements by check wall time", &attr.check);

    println!();
    println!(
        "arena levels: {} live inner nodes over {} level(s), {} terminal(s)",
        attr.levels.inner_nodes,
        attr.levels.levels.len(),
        attr.levels.terminals,
    );
    let mut widest: Vec<_> = attr.levels.levels.clone();
    widest.sort_by(|a, b| b.nodes.cmp(&a.nodes).then(a.var.cmp(&b.var)));
    if top > 0 {
        widest.truncate(top);
    }
    for l in &widest {
        println!(
            "  {:>7} nodes   var {} ({})",
            l.nodes,
            l.var,
            level_label(l.var)
        );
    }

    println!();
    println!("operation caches:");
    for c in &attr.caches {
        let lookups = c.hits + c.misses;
        let rate = if lookups == 0 {
            0.0
        } else {
            c.hits as f64 / lookups as f64
        };
        // Only the unique table measures probe lengths: the computed
        // table probes one slot, and the terminal table is not
        // instrumented.
        let probe = if c.name == "unique" {
            format!("  probe mean {:.2} max {}", c.probe.mean, c.probe.max)
        } else {
            String::new()
        };
        // The interning tables index a pool (the nodes or the
        // terminals); the computed table keeps its growth rule's shadow.
        let pool = if c.pool_bytes > 0 {
            format!(" + {:.1} MB pool", c.pool_bytes as f64 / 1e6)
        } else {
            String::new()
        };
        println!(
            "  {:<9} {:>8} entries / {:>8} cap ({:>4.0}% load) {:>7.1} MB{pool}  {} hits / {} misses \
             ({:.1}% hit)  {} evicted{probe}",
            c.name,
            c.len,
            c.capacity,
            c.load_factor * 100.0,
            c.bytes as f64 / 1e6,
            c.hits,
            c.misses,
            rate * 100.0,
            c.evictions,
        );
        // Why the computed table is the size it is: the share of misses
        // a ceiling-sized table would have answered (DESIGN.md §16.2).
        if c.name == "computed" {
            let share = if c.sampled == 0 {
                0.0
            } else {
                c.shadow_hits as f64 / c.sampled as f64
            };
            println!(
                "            ceiling would have hit {:.1} % of {} sampled misses",
                share * 100.0,
                c.sampled
            );
        }
    }

    if !paths.is_empty() {
        println!();
        println!("call paths by self time:");
        println!("       self      total   calls   path");
        for p in paths.iter().take(if top == 0 { paths.len() } else { top }) {
            println!(
                "  {:>9}  {:>9}  {:>6}   {}",
                fmt_us(p.self_us),
                fmt_us(p.total_us),
                p.count,
                p.stack,
            );
        }
    }

    println!();
    println!(
        "attribution {}: per-entity node deltas telescope to the phase totals",
        if attr.reconciles() {
            "reconciles"
        } else {
            "DOES NOT RECONCILE"
        },
    );
}
