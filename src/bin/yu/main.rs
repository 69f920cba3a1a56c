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
//!           [--max-violations N]
//!           [-v] [--trace-out t.json]
//!           [--metrics-out m.json]
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
//! `profile`, `explain`, `diff` and `serve` also take the telemetry flags
//! of `verify` (`-v`, `--trace-out`, `--metrics-out`).
//!
//! Specs are self-contained JSON (network + flows + TLP + k); see
//! `yu::spec::VerifySpec` and `yu export` for the format. An argument
//! starting with `-` that is not one of the flags above is an error
//! (exit 2), whatever the subcommand, and so is a flag the subcommand
//! does not read. Every subcommand but `export`, `lint` and `check`
//! refuses a spec with a lint error (exit 2, the error diagnostics on
//! stderr) before running it.
//!
//! `verify`, `explain` and `profile` run the spec the same way
//! (`run::run`) and differ only in what they report. `yu explain`
//! builds an [`yu::core::Explanation`] for each violation — per-flow
//! blame that sums exactly to the violating load, a before/after
//! rerouted-path diff, an independent concrete replay cross-check, and
//! the load envelope at the violated point; its `--json` object is that
//! of `yu verify --json` plus `explanations`. `--max-violations N`
//! enumerates up to `N` violating scenarios per requirement (fewest
//! failures first) instead of the default single counterexample;
//! `--dot-out FILE` writes a Graphviz overlay of the rerouted paths per
//! explanation. `yu profile` reports where the wall time and the arena
//! nodes went — per flow group, per requirement, per variable level, per
//! operation cache, and per call path (self times reconstructed from the
//! telemetry spans); the verifier records the per-entity costs on every
//! run and `profile` reads them with
//! [`yu::core::YuVerifier::attribution`].
//!
//! Telemetry: `--trace-out FILE` writes Chrome trace-event JSON (load it
//! in `chrome://tracing` or Perfetto), `--metrics-out FILE` writes the
//! per-stage metrics digest, and `-v`/`--verbose` prints the per-stage
//! time table on stderr. The `YU_TRACE`/`YU_METRICS`/`YU_VERBOSE`
//! environment variables are defaults for the same (mirroring
//! `YU_AUDIT`): `1`/`true` enables with the default output
//! name (`yu-trace.json`/`yu-metrics.json`), any other non-empty value
//! is used as the output path.

mod incremental;
mod inspect;
mod run;

use std::process::ExitCode;
use yu::core::YuOptions;
use yu::net::FailureMode;
use yu::spec::VerifySpec;

/// The subcommands, in the order the usage line lists them.
const COMMANDS: [&str; 11] = [
    "export",
    "lint",
    "check",
    "verify",
    "profile",
    "explain",
    "loads",
    "scenarios",
    "rib",
    "diff",
    "serve",
];

/// The subcommands that run a spec and so read the telemetry flags.
const RUNS: &[&str] = &["verify", "profile", "explain", "diff", "serve"];

/// Every flag, declared once: its name; for a flag that takes a value,
/// the placeholder the usage line shows for it (`None` = switch); and
/// the subcommands that read it. Drives positional-argument detection,
/// the unknown- and misplaced-flag checks and [`usage`].
const FLAGS: [(&str, Option<&str>, &[&str]); 19] = [
    (
        "--json",
        None,
        &["lint", "verify", "profile", "explain", "diff"],
    ),
    ("--deep", None, &["lint"]),
    ("--deny-warnings", None, &["lint"]),
    ("--max-violations", Some("N"), &["verify", "explain"]),
    ("--dot-out", Some("FILE"), &["explain"]),
    ("--fail", Some("A-B,C-D"), &["loads"]),
    ("--router", Some("<name>"), &["rib"]),
    ("--dst", Some("<ip>"), &["rib"]),
    ("--spec", Some("base.json"), &["serve"]),
    ("-v", None, RUNS),
    ("--verbose", None, RUNS),
    ("--trace-out", Some("FILE"), RUNS),
    ("--metrics-out", Some("FILE"), RUNS),
    ("--top", Some("N"), &["profile"]),
    ("--folded-out", Some("FILE"), &["profile"]),
    ("--prom-out", Some("FILE"), &["serve"]),
    ("--events-out", Some("FILE"), &["serve"]),
    ("--slow-ms", Some("N"), &["serve"]),
    ("--regress-factor", Some("X"), &["serve"]),
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
    let row = |a: &str| FLAGS.iter().find(|&&(flag, ..)| flag == a);
    // Positional arguments: everything that is neither a flag nor the
    // value of a value-taking flag.
    let is_flag_value = |i: usize| i > 0 && row(&args[i - 1]).is_some_and(|r| r.1.is_some());
    let flags: Vec<&String> = (0..args.len())
        .filter(|&i| args[i].starts_with('-') && !is_flag_value(i))
        .map(|i| &args[i])
        .collect();
    // Every flag is checked before anything runs: an unknown one is an
    // error whatever the subcommand.
    if let Some(flag) = flags.iter().find(|a| row(a).is_none()) {
        eprintln!("error: unknown flag '{flag}'");
        return usage();
    }
    let mut pos = args
        .iter()
        .enumerate()
        .filter_map(|(i, a)| (!a.starts_with('-') && !is_flag_value(i)).then_some(a));
    let cmd = pos.next().map(String::as_str).unwrap_or("help");
    // So is a known flag the subcommand does not read (an unknown
    // subcommand gets the usage line below).
    if COMMANDS.contains(&cmd) {
        if let Some(flag) = flags
            .iter()
            .find(|a| !row(a).is_some_and(|r| r.2.contains(&cmd)))
        {
            eprintln!("error: flag '{flag}' does not apply to 'yu {cmd}'");
            return usage();
        }
    }
    let arg = pos.next().cloned();
    let arg2 = pos.next().cloned();
    let json_output = args.iter().any(|a| a == "--json");
    let flag_value = |flag: &str| flag_value(&args, flag);
    let max_violations = flag_parsed(
        &args,
        "--max-violations",
        "a positive integer",
        |&n: &usize| n >= 1,
    )
    .unwrap_or(1);
    let top = flag_parsed::<usize>(&args, "--top", "a non-negative integer (0 = all)", |_| true)
        .unwrap_or(10);
    let telemetry = TelemetryArgs {
        trace_out: flag_value("--trace-out").or_else(|| env_out("YU_TRACE", "yu-trace.json")),
        metrics_out: flag_value("--metrics-out")
            .or_else(|| env_out("YU_METRICS", "yu-metrics.json")),
        verbose: args.iter().any(|a| a == "-v" || a == "--verbose")
            || env_out("YU_VERBOSE", "").is_some(),
    };
    match cmd {
        "export" => inspect::export(arg.as_deref().unwrap_or("fig1")),
        "lint" => inspect::lint(
            &load(&arg),
            json_output,
            args.iter().any(|a| a == "--deep"),
            args.iter().any(|a| a == "--deny-warnings"),
        ),
        "check" => inspect::check(&load(&arg)),
        "verify" => {
            let spec = load_valid(&arg);
            telemetry.record(false, || run::verify(&spec, json_output, max_violations))
        }
        // Spans feed the call-path table and the folded-stack export, so
        // a profile run always records telemetry even without --trace-out.
        "profile" => {
            let spec = load_valid(&arg);
            let folded_out = flag_value("--folded-out");
            telemetry.record(true, || {
                run::profile(&spec, json_output, top, folded_out.as_deref())
            })
        }
        "explain" => {
            let spec = load_valid(&arg);
            let dot_out = flag_value("--dot-out");
            telemetry.record(false, || {
                run::explain(&spec, json_output, max_violations, dot_out.as_deref())
            })
        }
        "loads" => inspect::loads(&load_valid(&arg), flag_value("--fail").as_deref()),
        "scenarios" => inspect::scenarios(&load_valid(&arg)),
        "rib" => inspect::rib(
            &load_valid(&arg),
            flag_value("--router"),
            flag_value("--dst"),
        ),
        "diff" => {
            let (old, new) = (load_valid(&arg), load_valid(&arg2));
            telemetry.record(false, || incremental::diff(&old, &new, json_output))
        }
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
            if let Some(path) = flag_value("--events-out") {
                if let Err(e) = yu::telemetry::set_event_sink_file(std::path::Path::new(&path)) {
                    eprintln!("error: cannot open --events-out {path}: {e}");
                    return ExitCode::from(2);
                }
            }
            let prom_out = flag_value("--prom-out");
            let config = yu::serve::ServeConfig {
                slow_threshold: std::time::Duration::from_millis(slow_ms),
                regress_factor,
                ..Default::default()
            };
            let spec = load_valid(&flag_value("--spec").or(arg));
            telemetry.record(false, || {
                incremental::serve(&spec, config, prom_out.as_deref())
            })
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
        .map(|&(flag, value, _)| match value {
            Some(v) => format!("[{flag} {v}]"),
            None => format!("[{flag}]"),
        })
        .collect();
    eprintln!(
        "usage: yu <{}> [spec.json] {}",
        COMMANDS.join("|"),
        flags.join(" ")
    );
    ExitCode::from(2)
}

/// The exit code of a run: success when the property holds (or the spec
/// passes lint), 1 otherwise.
fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The default options with the failure budget and mode of `spec`.
fn spec_options(spec: &VerifySpec) -> YuOptions {
    YuOptions {
        k: spec.k,
        mode: spec.mode,
        ..Default::default()
    }
}

/// Failure-mode noun for human verdict lines.
fn mode_noun(mode: FailureMode) -> &'static str {
    match mode {
        FailureMode::Links => "link",
        FailureMode::Routers => "router",
        FailureMode::LinksAndRouters => "element",
    }
}

/// The telemetry flags of the subcommands that run a spec.
struct TelemetryArgs {
    trace_out: Option<String>,
    metrics_out: Option<String>,
    verbose: bool,
}

impl TelemetryArgs {
    fn wants_recording(&self) -> bool {
        self.trace_out.is_some() || self.metrics_out.is_some() || self.verbose
    }

    /// Runs a subcommand with the telemetry layer recording when an
    /// output asks for it (or `always`), then writes the trace and
    /// metrics files and the `-v` stage table from what it collected.
    fn record(&self, always: bool, subcommand: impl FnOnce() -> ExitCode) -> ExitCode {
        if always || self.wants_recording() {
            yu::telemetry::set_enabled(true);
        }
        let code = subcommand();
        if !self.wants_recording() {
            return code;
        }
        let report = yu::telemetry::snapshot();
        if let Some(path) = &self.trace_out {
            match std::fs::write(path, report.chrome_trace_json()) {
                Ok(()) => {
                    eprintln!("trace written to {path} (load in chrome://tracing or Perfetto)")
                }
                Err(e) => eprintln!("error: cannot write trace to {path}: {e}"),
            }
        }
        if let Some(path) = &self.metrics_out {
            match std::fs::write(path, report.metrics_json()) {
                Ok(()) => eprintln!("metrics written to {path}"),
                Err(e) => eprintln!("error: cannot write metrics to {path}: {e}"),
            }
        }
        if self.verbose {
            eprint!("{}", report.summary_table());
        }
        code
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
    let errors = spec.errors();
    if !errors.is_empty() {
        for d in &errors {
            eprintln!("{d}");
        }
        eprintln!("error: invalid spec (see `yu lint`)");
        std::process::exit(2);
    }
    spec
}
