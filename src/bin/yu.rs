//! The `yu` command-line verifier.
//!
//! ```text
//! yu export <fig1|fig9|fig10|ft4|n0|preflight> > spec.json
//!                                                    write a built-in example spec
//! yu lint spec.json [--json] [--deep]                static lint (YU0xx diagnostics;
//!           [--deny-warnings]                        --deep adds the semantic rules
//!                                                    YU021-YU032: bridges, partitions,
//!                                                    bound-analysis verdicts)
//! yu check spec.json                                 lint + summarize the spec
//! yu verify spec.json [--json]                       verify the TLP under <= k failures
//!           [--explain] [--max-violations N]
//!           [-v] [--trace-out t.json]
//!           [--metrics-out m.json] [--profile-out p.json]
//! yu profile spec.json [--json] [--top N]            verify, then report per-entity
//!           [--folded-out stacks.folded]             attribution: which flows/requirements
//!                                                    cost the time and the arena nodes,
//!                                                    live nodes per variable level, cache
//!                                                    profiles, call-path self times;
//!                                                    --folded-out writes flamegraph
//!                                                    folded stacks (flamegraph.pl/inferno)
//! yu explain spec.json [--json] [--dot-out f.dot]    forensic report per violation:
//!           [--max-violations N]                     per-flow blame, rerouted paths,
//!                                                    concrete replay, load envelope
//! yu loads spec.json [--fail A-B,C-D]                per-link loads under a scenario
//! yu scenarios spec.json                             size of the scenario space
//! yu rib spec.json --router <name> --dst <ip>        symbolic FIB of one router
//! yu diff old.json new.json [--json]                 incremental re-verification: verdict
//!                                                    delta between two specs, recomputing
//!                                                    only what the change invalidated
//! yu serve --spec base.json                          JSON-lines daemon: one change-set
//!           [--prom-out m.prom]                      request per line, one verdict-delta
//!           [--events-out e.jsonl] [--slow-ms N]     response per line (see yu::serve).
//!           [--regress-factor X]                     --prom-out atomically rewrites a
//!                                                    Prometheus text exposition after
//!                                                    each request; --events-out appends
//!                                                    structured JSON events; --slow-ms
//!                                                    sets the slow-request threshold;
//!                                                    --regress-factor sets the EWMA
//!                                                    latency-regression multiple
//! ```
//!
//! Specs are self-contained JSON (network + flows + TLP + k); see
//! `yu::spec::VerifySpec` and `yu export` for the format. An argument
//! starting with `-` that is not one of the flags above is an error
//! (exit 2), whatever the subcommand. Every subcommand but `export`,
//! `lint` and `check` refuses a spec with a lint error (exit 2, the
//! error diagnostics on stderr) before running it.
//!
//! Forensics: `yu explain` (and `yu verify --explain`) re-verifies the
//! spec, then builds an [`yu::core::Explanation`] for each violation —
//! per-flow blame that sums exactly to the violating load, a before/after
//! rerouted-path diff, an independent concrete replay cross-check, and the
//! load envelope at the violated point. `--max-violations N` enumerates up
//! to `N` violating scenarios per requirement (fewest failures first)
//! instead of the default single counterexample; `--dot-out FILE` writes a
//! Graphviz overlay of the rerouted paths per explanation.
//!
//! Profiling: `yu profile` runs the same verification as `yu verify` and
//! reports where the wall time and the arena nodes went — per flow
//! group, per requirement, per variable level, per operation cache, and
//! per call path (self times reconstructed from the telemetry spans).
//! The verifier records the per-entity costs on every run; both
//! subcommands read them with [`yu::core::YuVerifier::attribution`]
//! right after `verify`. `yu verify --profile-out FILE` writes the same
//! attribution object as JSON without changing the human output.
//!
//! Telemetry: `--trace-out FILE` writes Chrome trace-event JSON (load it
//! in `chrome://tracing` or Perfetto), `--metrics-out FILE` writes the
//! per-stage metrics digest, and `-v`/`--verbose` prints the per-stage
//! time table on stderr. The `YU_TRACE`/`YU_METRICS`/`YU_VERBOSE`
//! environment variables are defaults for the same (mirroring
//! `YU_AUDIT`): `1`/`true` enables with the default output
//! name (`yu-trace.json`/`yu-metrics.json`), any other non-empty value
//! is used as the output path.

use std::process::ExitCode;
use yu::core::{YuOptions, YuVerifier};
use yu::mtbdd::Ratio;
use yu::net::{scenario_count, FailureMode, Flow, LoadPoint, Network, Scenario, Tlp};
use yu::spec::VerifySpec;
use yu::telemetry::fmt_us;

/// Every flag, declared once: its name and, for a flag that takes a
/// value, the placeholder the usage line shows for it (`None` = switch).
/// Drives positional-argument detection, the unknown-flag check and
/// [`usage`].
const FLAGS: [(&str, Option<&str>); 21] = [
    ("--json", None),
    ("--deep", None),
    ("--deny-warnings", None),
    ("--explain", None),
    ("--max-violations", Some("N")),
    ("--dot-out", Some("FILE")),
    ("--fail", Some("A-B,C-D")),
    ("--router", Some("<name>")),
    ("--dst", Some("<ip>")),
    ("--spec", Some("base.json")),
    ("-v", None),
    ("--verbose", None),
    ("--trace-out", Some("FILE")),
    ("--metrics-out", Some("FILE")),
    ("--profile-out", Some("FILE")),
    ("--top", Some("N")),
    ("--folded-out", Some("FILE")),
    ("--prom-out", Some("FILE")),
    ("--events-out", Some("FILE")),
    ("--slow-ms", Some("N")),
    ("--regress-factor", Some("X")),
];

/// The value following `flag`, if the flag is present and has one.
fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

/// The value of `flag` parsed as a `T` that `accept` admits, `None` when
/// the flag is absent. A missing, unparseable or rejected value is a
/// command-line error: says that `flag` takes `what`, exits with 2.
fn flag_parsed<T: std::str::FromStr>(
    args: &[String],
    flag: &str,
    what: &str,
    accept: impl Fn(&T) -> bool,
) -> Option<T> {
    if !args.iter().any(|a| a == flag) {
        return None;
    }
    let value = flag_value(args, flag).and_then(|v| v.parse().ok());
    Some(value.filter(accept).unwrap_or_else(|| {
        eprintln!("error: {flag} takes {what}");
        std::process::exit(2);
    }))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Positional arguments: everything that is neither a flag nor the
    // value of a value-taking flag.
    let takes_value = |a: &str| {
        let row = FLAGS.iter().find(|&&(flag, _)| flag == a);
        row.map(|&(_, value)| value.is_some())
    };
    let is_flag_value = |i: usize| i > 0 && takes_value(&args[i - 1]) == Some(true);
    let unknown = args
        .iter()
        .enumerate()
        .find(|&(i, a)| a.starts_with('-') && !is_flag_value(i) && takes_value(a).is_none());
    if let Some((_, flag)) = unknown {
        eprintln!("error: unknown flag '{flag}'");
        return usage();
    }
    let mut pos = args
        .iter()
        .enumerate()
        .filter_map(|(i, a)| (!a.starts_with('-') && !is_flag_value(i)).then_some(a));
    let cmd = pos.next().map(String::as_str).unwrap_or("help");
    let arg = pos.next().cloned();
    let arg2 = pos.next().cloned();
    let json_output = args.iter().any(|a| a == "--json");
    let flag_value = |flag: &str| flag_value(&args, flag);
    let fail_arg = flag_value("--fail");
    let max_violations = flag_parsed(
        &args,
        "--max-violations",
        "a positive integer",
        |&n: &usize| n >= 1,
    )
    .unwrap_or(1);
    let top = flag_parsed::<usize>(&args, "--top", "a non-negative integer (0 = all)", |_| true)
        .unwrap_or(10);
    let dot_out = flag_value("--dot-out");
    let explain_flag = args.iter().any(|a| a == "--explain");
    let deep = args.iter().any(|a| a == "--deep");
    let deny_warnings = args.iter().any(|a| a == "--deny-warnings");
    let telemetry = TelemetryArgs {
        trace_out: flag_value("--trace-out").or_else(|| env_out("YU_TRACE", "yu-trace.json")),
        metrics_out: flag_value("--metrics-out")
            .or_else(|| env_out("YU_METRICS", "yu-metrics.json")),
        verbose: args.iter().any(|a| a == "-v" || a == "--verbose")
            || env_out("YU_VERBOSE", "").is_some(),
    };
    match cmd {
        "export" => export(arg.as_deref().unwrap_or("fig1")),
        "lint" => lint(&load(&arg), json_output, deep, deny_warnings),
        "check" => check(&load(&arg)),
        "verify" => verify(
            &load_valid(&arg),
            json_output,
            &telemetry,
            VerifyFlags {
                explain: explain_flag,
                max_violations,
                profile_out: flag_value("--profile-out"),
            },
        ),
        "profile" => profile(
            &load_valid(&arg),
            json_output,
            &telemetry,
            ProfileArgs {
                top,
                folded_out: flag_value("--folded-out"),
            },
        ),
        "explain" => explain(
            &load_valid(&arg),
            json_output,
            &telemetry,
            max_violations,
            dot_out.as_deref(),
        ),
        "loads" => loads(&load_valid(&arg), fail_arg.as_deref()),
        "scenarios" => scenarios(&load_valid(&arg)),
        "rib" => rib(&load_valid(&arg), &args),
        "diff" => diff(
            &load_valid(&arg),
            &load_valid(&arg2),
            json_output,
            &telemetry,
        ),
        "serve" => {
            let slow_ms = flag_parsed::<u64>(
                &args,
                "--slow-ms",
                "a non-negative integer (milliseconds)",
                |_| true,
            )
            .unwrap_or(1000);
            let regress_factor =
                flag_parsed(&args, "--regress-factor", "a number > 1.0", |&f: &f64| {
                    f > 1.0
                })
                .unwrap_or_else(|| yu::serve::ServeConfig::default().regress_factor);
            serve(
                flag_value("--spec").or(arg),
                &telemetry,
                ServeObsArgs {
                    prom_out: flag_value("--prom-out"),
                    events_out: flag_value("--events-out"),
                    slow_ms,
                    regress_factor,
                },
            )
        }
        other => {
            if other != "help" {
                eprintln!("unknown command '{other}'");
            }
            usage()
        }
    }
}

/// Prints the usage line; returns the exit code of a command-line error.
fn usage() -> ExitCode {
    let flags: Vec<String> = FLAGS
        .iter()
        .map(|&(flag, value)| match value {
            Some(v) => format!("[{flag} {v}]"),
            None => format!("[{flag}]"),
        })
        .collect();
    eprintln!(
        "usage: yu <export|lint|check|verify|profile|explain|loads|scenarios|rib|diff\
         |serve> [spec.json] {}",
        flags.join(" ")
    );
    ExitCode::from(2)
}

/// The default options with the failure budget and mode of `spec`.
fn spec_options(spec: &VerifySpec) -> YuOptions {
    YuOptions {
        k: spec.k,
        mode: spec.mode,
        ..Default::default()
    }
}

/// Telemetry-related command-line state for `yu verify`.
struct TelemetryArgs {
    trace_out: Option<String>,
    metrics_out: Option<String>,
    verbose: bool,
}

impl TelemetryArgs {
    fn wants_recording(&self) -> bool {
        self.trace_out.is_some() || self.metrics_out.is_some() || self.verbose
    }
}

/// Resolves a `YU_TRACE`-style environment default: off by the shared
/// [`yu::telemetry::env_flag`] rule (unset, empty, `0`, `false`),
/// `1`/`true` = on with `default_name` as the output path, anything else
/// = on with the value as the output path.
fn env_out(var: &str, default_name: &str) -> Option<String> {
    if yu::telemetry::env_flag(var) != Some(true) {
        return None;
    }
    let v = std::env::var(var).ok()?;
    if v == "1" || v.eq_ignore_ascii_case("true") {
        Some(default_name.to_string())
    } else {
        Some(v)
    }
}

fn load(path: &Option<String>) -> VerifySpec {
    let path = path.as_deref().unwrap_or_else(|| {
        eprintln!("error: missing spec path");
        std::process::exit(2);
    });
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("error: cannot read {path}: {e}");
        std::process::exit(2);
    });
    VerifySpec::from_json(&text).unwrap_or_else(|e| {
        eprintln!("error: invalid spec: {e}");
        std::process::exit(2);
    })
}

/// [`load`] for the subcommands that run the spec: one that `yu lint`
/// rejects (a dangling router, link or flow reference, a malformed
/// volume or bound) would otherwise panic or verify wrongly, so its
/// error diagnostics go to stderr and the process exits with 2.
fn load_valid(path: &Option<String>) -> VerifySpec {
    let spec = load(path);
    let errors: Vec<_> = spec
        .validate()
        .into_iter()
        .filter(|d| d.is_error())
        .collect();
    if !errors.is_empty() {
        for d in &errors {
            eprintln!("{d}");
        }
        eprintln!("error: invalid spec (see `yu lint`)");
        std::process::exit(2);
    }
    spec
}

/// The built-in examples `yu export` prints: name, failure budget, and
/// the network, flows and property.
type Example = (&'static str, u32, fn() -> (Network, Vec<Flow>, Tlp));

const EXAMPLES: [Example; 6] = [
    ("fig1", 1, || {
        let ex = yu::gen::motivating_example();
        (ex.net, ex.flows, ex.p2)
    }),
    ("fig9", 1, || {
        let inc = yu::gen::sr_anycast_incident();
        (inc.net, inc.flows, inc.tlp)
    }),
    ("fig10", 1, || {
        let inc = yu::gen::static_blackhole_incident();
        (inc.net, inc.flows, inc.tlp)
    }),
    ("ft4", 2, || {
        let (ft, flows) = yu::gen::fattree_with_flows(4, 16);
        let tlp = Tlp::no_overload(&ft.net.topo, Ratio::new(95, 100));
        (ft.net, flows, tlp)
    }),
    ("n0", 2, || {
        let w = yu::gen::wan(yu::gen::WanPreset::N0.params());
        let flows = w.flows(2000, 0xF10F);
        let tlp = Tlp::no_overload(&w.net.topo, Ratio::new(95, 100));
        (w.net, flows, tlp)
    }),
    ("preflight", 1, || {
        let ex = yu::gen::preflight_example();
        (ex.net, ex.flows, ex.tlp)
    }),
];

fn export(which: &str) -> ExitCode {
    let Some(&(_, k, build)) = EXAMPLES.iter().find(|(name, ..)| *name == which) else {
        let names: Vec<_> = EXAMPLES.iter().map(|(name, ..)| *name).collect();
        eprintln!("unknown example '{which}' (try {})", names.join(", "));
        return ExitCode::from(2);
    };
    let (network, flows, tlp) = build();
    let spec = VerifySpec {
        network,
        flows,
        tlp,
        k,
        mode: FailureMode::Links,
    };
    println!("{}", spec.to_json());
    ExitCode::SUCCESS
}

fn lint(spec: &VerifySpec, json_output: bool, deep: bool, deny_warnings: bool) -> ExitCode {
    let diags = if deep {
        spec.validate_deep()
    } else {
        spec.validate()
    };
    let errors = diags.iter().filter(|d| d.is_error()).count();
    let warnings = diags.iter().filter(|d| d.is_warning()).count();
    if json_output {
        println!(
            "{}",
            serde_json::to_string_pretty(&diags).expect("diagnostics are serializable")
        );
    } else {
        for d in &diags {
            eprintln!("{d}");
        }
        eprintln!(
            "{} error(s), {} warning(s), {} note(s)",
            errors,
            warnings,
            diags.len() - errors - warnings
        );
    }
    if yu::spec::lint_ok(&diags, deny_warnings) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn check(spec: &VerifySpec) -> ExitCode {
    let diags = spec.validate();
    for d in &diags {
        eprintln!("{d}");
    }
    let errors = diags.iter().filter(|d| d.is_error()).count();
    if errors == 0 {
        println!(
            "ok: {} routers, {} links, {} flows, {} requirements, k={} ({:?})",
            spec.network.topo.num_routers(),
            spec.network.topo.num_ulinks(),
            spec.flows.len(),
            spec.tlp.reqs.len(),
            spec.k,
            spec.mode,
        );
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Behavior switches for `yu verify` beyond the worker counts.
struct VerifyFlags {
    explain: bool,
    max_violations: usize,
    /// `--profile-out FILE`: write the run's attribution to FILE as JSON
    /// (the same object `yu profile --json` embeds).
    profile_out: Option<String>,
}

fn verify(
    spec: &VerifySpec,
    json_output: bool,
    telemetry: &TelemetryArgs,
    flags: VerifyFlags,
) -> ExitCode {
    if telemetry.wants_recording() {
        yu::telemetry::set_enabled(true);
    }
    let mut v = YuVerifier::new(spec.network.clone(), spec_options(spec));
    v.add_flows(&spec.flows);
    let out = if flags.max_violations > 1 {
        v.verify_enumerated(&spec.tlp, flags.max_violations)
    } else {
        v.verify(&spec.tlp)
    };
    // Read before explaining, which grows the arena.
    let attr = flags.profile_out.is_some().then(|| v.attribution());
    let explanations: Vec<yu::core::Explanation> = if flags.explain {
        out.violations.iter().map(|vi| v.explain(vi)).collect()
    } else {
        Vec::new()
    };
    if json_output {
        println!(
            "{}",
            verify_json(
                &out,
                flags.explain.then_some(explanations.as_slice()),
                attr.as_ref()
            )
        );
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
        for ex in &explanations {
            println!();
            println!("{}", ex.describe(&spec.network.topo));
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
    if let (Some(path), Some(attr)) = (&flags.profile_out, &attr) {
        let json = serde_json::to_string_pretty(attr).expect("serializable");
        match std::fs::write(path, json + "\n") {
            Ok(()) => eprintln!("attribution written to {path}"),
            Err(e) => eprintln!("error: cannot write attribution to {path}: {e}"),
        }
    }
    export_telemetry(telemetry);
    if out.verified() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Presentation switches for `yu profile`.
struct ProfileArgs {
    /// Rows per table (`--top N`, 0 = all).
    top: usize,
    /// `--folded-out FILE`: write flamegraph folded stacks.
    folded_out: Option<String>,
}

/// The `yu profile` subcommand: run the same verification as
/// `yu verify`, then report where the wall
/// time and the arena nodes went — per flow group, per requirement, per
/// variable level, per operation cache, and per telemetry call path.
fn profile(
    spec: &VerifySpec,
    json_output: bool,
    telemetry: &TelemetryArgs,
    args: ProfileArgs,
) -> ExitCode {
    // Spans feed the call-path table and the folded-stack export, so a
    // profile run always records telemetry even without --trace-out.
    yu::telemetry::set_enabled(true);
    let mut v = YuVerifier::new(spec.network.clone(), spec_options(spec));
    v.add_flows(&spec.flows);
    let out = v.verify(&spec.tlp);
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
        let mut stats = out.stats.scalars();
        stats.insert("mtbdd", out.stats.mtbdd.to_value());
        let mut root = Map::new();
        root.insert("verified", Value::Bool(out.verified()));
        root.insert("reconciles", Value::Bool(attr.reconciles()));
        root.insert("attribution", attr.to_value());
        root.insert("span_attribution", paths.to_value());
        root.insert("stats", Value::Map(stats));
        println!(
            "{}",
            serde_json::to_string_pretty(&Value::Map(root)).expect("serializable")
        );
    } else {
        print_profile_tables(spec, &out, &attr, &paths, args.top, level_label);
    }

    if let Some(path) = &args.folded_out {
        match std::fs::write(path, report.folded_stacks()) {
            Ok(()) => {
                eprintln!("folded stacks written to {path} (render with flamegraph.pl or inferno)")
            }
            Err(e) => eprintln!("error: cannot write folded stacks to {path}: {e}"),
        }
    }
    export_telemetry(telemetry);
    if out.verified() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
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
        // Only the unique table measures probe lengths: a direct-mapped
        // cache probes one slot, and the memo maps are not instrumented.
        let probe = if c.name == "unique" {
            format!("  probe mean {:.2} max {}", c.probe.mean, c.probe.max)
        } else {
            String::new()
        };
        println!(
            "  {:<8} {:>8} entries / {:>8} cap ({:>4.0}% load) {:>7.1} MB  {} hits / {} misses \
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

/// The `yu diff` subcommand: verify `old`, switch the same incremental
/// verifier to `new`, and report the verdict delta plus what was reused.
fn diff(
    old: &VerifySpec,
    new: &VerifySpec,
    json_output: bool,
    telemetry: &TelemetryArgs,
) -> ExitCode {
    if telemetry.wants_recording() {
        yu::telemetry::set_enabled(true);
    }
    let mut inc = yu::core::IncrementalVerifier::new(
        old.network.clone(),
        old.flows.clone(),
        old.tlp.clone(),
        spec_options(old),
    );
    let before = inc.verify();
    let out = inc.set_state(
        new.network.clone(),
        new.flows.clone(),
        new.tlp.clone(),
        spec_options(new),
    );
    let delta = inc.delta_stats();
    let (new_v, resolved) = yu::serve::violation_delta(&before.violations, &out.violations);
    if json_output {
        use serde::{Map, Serialize, Value};
        let mut root = Map::new();
        root.insert("verified", Value::Bool(out.verified()));
        root.insert("violations", out.violations.to_value());
        root.insert("new_violations", new_v.to_value());
        root.insert("resolved_violations", resolved.to_value());
        root.insert("stats", yu::serve::stats_value(&out, delta));
        println!(
            "{}",
            serde_json::to_string_pretty(&Value::Map(root)).expect("serializable")
        );
    } else {
        if out.verified() {
            println!(
                "VERIFIED: the new spec holds under every scenario with <= {} {} failures",
                new.k,
                mode_noun(new.mode)
            );
        } else {
            println!("VIOLATED ({} findings):", out.violations.len());
            for vi in &out.violations {
                println!("  {}", vi.describe(&new.network.topo));
            }
        }
        println!(
            "delta: +{} -{} violation(s); {} group(s) reused, {} recomputed; \
             {} req(s) reused, {} rechecked{}",
            new_v.len(),
            resolved.len(),
            delta.reused_groups,
            delta.recomputed_groups,
            delta.reused_reqs,
            delta.rechecked_reqs,
            if delta.full_rebuild {
                " (full rebuild)"
            } else {
                ""
            }
        );
    }
    export_telemetry(telemetry);
    if out.verified() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Observability flags of `yu serve`: Prometheus exposition file,
/// structured event log, and the slow-request threshold.
struct ServeObsArgs {
    prom_out: Option<String>,
    events_out: Option<String>,
    slow_ms: u64,
    /// `--regress-factor X`: a request slower than X times its kind's
    /// EWMA baseline emits a `perf_regression` event.
    regress_factor: f64,
}

/// Atomically rewrites the Prometheus exposition file: write a sibling
/// temp file, then rename over the target, so a scraper (or the node
/// exporter's textfile collector) never reads a torn exposition.
fn write_prometheus(path: &str) {
    let text = yu::telemetry::snapshot_prometheus();
    let tmp = format!("{path}.tmp");
    if std::fs::write(&tmp, text).is_ok() {
        let _ = std::fs::rename(&tmp, path);
    }
}

/// The `yu serve` subcommand: read JSON-lines change-set requests from
/// stdin, write one verdict-delta response line each, until EOF.
fn serve(spec_path: Option<String>, telemetry: &TelemetryArgs, obs: ServeObsArgs) -> ExitCode {
    use std::io::{BufRead, Write};
    if telemetry.wants_recording() {
        yu::telemetry::set_enabled(true);
    }
    if let Some(path) = &obs.events_out {
        if let Err(e) = yu::telemetry::set_event_sink_file(std::path::Path::new(path)) {
            eprintln!("error: cannot open --events-out {path}: {e}");
            return ExitCode::from(2);
        }
    }
    let spec = load_valid(&spec_path);
    let config = yu::serve::ServeConfig {
        slow_threshold: std::time::Duration::from_millis(obs.slow_ms),
        regress_factor: obs.regress_factor,
        ..Default::default()
    };
    let mut session = yu::serve::ServeSession::with_config(&spec, spec_options(&spec), config);
    let stdout = std::io::stdout();
    {
        let mut out = stdout.lock();
        let _ = writeln!(out, "{}", session.ready_line());
        let _ = out.flush();
    }
    if let Some(path) = &obs.prom_out {
        write_prometheus(path);
    }
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        let resp = session.handle_line(&line);
        {
            let mut out = stdout.lock();
            if writeln!(out, "{resp}").is_err() {
                break;
            }
            let _ = out.flush();
        }
        if let Some(path) = &obs.prom_out {
            write_prometheus(path);
        }
    }
    if let Some(path) = &obs.prom_out {
        write_prometheus(path);
    }
    export_telemetry(telemetry);
    yu::telemetry::close_event_sink();
    ExitCode::SUCCESS
}

/// Failure-mode noun for human verdict lines.
fn mode_noun(mode: FailureMode) -> &'static str {
    match mode {
        FailureMode::Links => "link",
        FailureMode::Routers => "router",
        FailureMode::LinksAndRouters => "element",
    }
}

/// The `yu explain` subcommand: verify (enumerating up to
/// `max_violations` scenarios per requirement) and print a full forensic
/// report — per-flow blame, rerouted paths, concrete replay, load
/// envelope — for every violation found.
fn explain(
    spec: &VerifySpec,
    json_output: bool,
    telemetry: &TelemetryArgs,
    max_violations: usize,
    dot_out: Option<&str>,
) -> ExitCode {
    if telemetry.wants_recording() {
        yu::telemetry::set_enabled(true);
    }
    let mut v = YuVerifier::new(spec.network.clone(), spec_options(spec));
    v.add_flows(&spec.flows);
    let out = v.verify_enumerated(&spec.tlp, max_violations);
    let explanations: Vec<yu::core::Explanation> =
        out.violations.iter().map(|vi| v.explain(vi)).collect();
    if json_output {
        println!("{}", explain_json(&out, &explanations));
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
    export_telemetry(telemetry);
    if out.verified() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
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

/// The `yu explain --json` result object: verdict, violations, and one
/// explanation per violation (blame, path diffs, replay, envelope).
fn explain_json(
    out: &yu::core::VerificationOutcome,
    explanations: &[yu::core::Explanation],
) -> String {
    use serde::{Map, Serialize, Value};
    let mut root = Map::new();
    root.insert("verified", Value::Bool(out.verified()));
    root.insert("violations", out.violations.to_value());
    root.insert("explanations", explanations.to_value());
    serde_json::to_string_pretty(&Value::Map(root)).expect("serializable")
}

/// The `yu verify --json` result object: verdict, violations, and run
/// statistics (durations in seconds; `telemetry` only when enabled;
/// `explanations` only under `--explain`; `attribution` only under
/// `--profile-out`).
fn verify_json(
    out: &yu::core::VerificationOutcome,
    explanations: Option<&[yu::core::Explanation]>,
    attribution: Option<&yu::core::Attribution>,
) -> String {
    use serde::{Map, Serialize, Value};
    let mut stats = out.stats.scalars();
    stats.insert("mtbdd", out.stats.mtbdd.to_value());
    stats.insert("telemetry", out.stats.telemetry.to_value());
    if let Some(attr) = attribution {
        stats.insert("attribution", attr.to_value());
    }
    let mut root = Map::new();
    root.insert("verified", Value::Bool(out.verified()));
    root.insert("violations", out.violations.to_value());
    if let Some(ex) = explanations {
        root.insert("explanations", ex.to_value());
    }
    root.insert("stats", Value::Map(stats));
    serde_json::to_string_pretty(&Value::Map(root)).expect("serializable")
}

/// Writes the trace/metrics files and the `-v` stage table from whatever
/// the telemetry layer collected in this process.
fn export_telemetry(telemetry: &TelemetryArgs) {
    if !telemetry.wants_recording() {
        return;
    }
    let report = yu::telemetry::snapshot();
    if let Some(path) = &telemetry.trace_out {
        match std::fs::write(path, report.chrome_trace_json()) {
            Ok(()) => eprintln!("trace written to {path} (load in chrome://tracing or Perfetto)"),
            Err(e) => eprintln!("error: cannot write trace to {path}: {e}"),
        }
    }
    if let Some(path) = &telemetry.metrics_out {
        match std::fs::write(path, report.metrics_json()) {
            Ok(()) => eprintln!("metrics written to {path}"),
            Err(e) => eprintln!("error: cannot write metrics to {path}: {e}"),
        }
    }
    if telemetry.verbose {
        eprint!("{}", report.summary_table());
    }
}

fn rib(spec: &VerifySpec, args: &[String]) -> ExitCode {
    let get = |flag: &str| flag_value(args, flag);
    let Some(router_name) = get("--router") else {
        eprintln!("error: --router <name> required");
        return ExitCode::from(2);
    };
    let Some(dst) = get("--dst") else {
        eprintln!("error: --dst <ip> required");
        return ExitCode::from(2);
    };
    let Some(router) = spec.network.topo.router_by_name(&router_name) else {
        eprintln!("error: no router named '{router_name}'");
        return ExitCode::from(2);
    };
    let Ok(dst) = dst.parse() else {
        eprintln!("error: invalid destination '{dst}'");
        return ExitCode::from(2);
    };
    let mut m = yu::mtbdd::Mtbdd::new();
    let fv = yu::net::FailureVars::allocate(&mut m, &spec.network.topo, spec.mode);
    let mut routes = yu::routing::SymbolicRoutes::compute(&mut m, &spec.network, &fv, Some(spec.k));
    print!(
        "{}",
        yu::routing::format_fib(&mut m, &spec.network, &fv, &mut routes, router, dst)
    );
    print!(
        "{}",
        yu::routing::format_sr_policies(&m, &spec.network, &fv, &routes, router)
    );
    ExitCode::SUCCESS
}

fn parse_scenario(spec: &VerifySpec, fail: Option<&str>) -> Scenario {
    let mut s = Scenario::none();
    let Some(fail) = fail else { return s };
    for part in fail.split(',').filter(|p| !p.is_empty()) {
        let ulink = spec
            .network
            .topo
            .ulinks()
            .find(|&u| spec.network.topo.ulink_label(u) == part);
        if let Some(u) = ulink {
            s.failed_links.insert(u);
        } else if let Some(r) = spec.network.topo.router_by_name(part) {
            s.failed_routers.insert(r);
        } else {
            eprintln!("error: no link or router named '{part}'");
            std::process::exit(2);
        }
    }
    s
}

fn loads(spec: &VerifySpec, fail: Option<&str>) -> ExitCode {
    let scenario = parse_scenario(spec, fail);
    let mut v = YuVerifier::new(
        spec.network.clone(),
        YuOptions {
            k: spec.k.max(scenario.count() as u32),
            mode: if scenario.failed_routers.is_empty() {
                spec.mode
            } else {
                FailureMode::LinksAndRouters
            },
            ..Default::default()
        },
    );
    v.add_flows(&spec.flows);
    println!("loads under {}:", scenario.describe(&spec.network.topo));
    for l in spec.network.topo.links() {
        let load = v.load_at(LoadPoint::Link(l), &scenario);
        if !load.is_zero() {
            let cap = &spec.network.topo.link(l).capacity;
            println!(
                "  {:<16} {:>12} / {} Gbps",
                spec.network.topo.link_label(l),
                load.to_string(),
                cap
            );
        }
    }
    for r in spec.network.topo.routers() {
        for (point, label) in [
            (LoadPoint::Delivered(r), "delivered"),
            (LoadPoint::Dropped(r), "dropped"),
        ] {
            let load = v.load_at(point, &scenario);
            if !load.is_zero() {
                println!(
                    "  {label}@{:<10} {:>12} Gbps",
                    spec.network.topo.router(r).name,
                    load.to_string()
                );
            }
        }
    }
    ExitCode::SUCCESS
}

fn scenarios(spec: &VerifySpec) -> ExitCode {
    let n = match spec.mode {
        FailureMode::Links => spec.network.topo.num_ulinks(),
        FailureMode::Routers => spec.network.topo.num_routers(),
        FailureMode::LinksAndRouters => {
            spec.network.topo.num_ulinks() + spec.network.topo.num_routers()
        }
    };
    println!(
        "{} scenarios with <= {} failures out of {} elements \
         (what a per-scenario verifier must enumerate; YU runs once)",
        scenario_count(n, spec.k as usize),
        spec.k,
        n
    );
    ExitCode::SUCCESS
}
