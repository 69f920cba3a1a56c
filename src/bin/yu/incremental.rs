//! The incremental subcommands: `diff` re-verifies a second spec on the
//! first one's warm verifier, `serve` answers change-set requests on one
//! long-lived session.

use std::process::ExitCode;
use yu::spec::VerifySpec;

use crate::{exit_code, mode_noun, spec_options};

/// The `yu diff` subcommand: verify `old`, switch the same incremental
/// verifier to `new`, and report the verdict delta plus what was reused.
pub fn diff(old: &VerifySpec, new: &VerifySpec, json_output: bool) -> ExitCode {
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
    exit_code(out.verified())
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
/// `prom_out` gets a Prometheus exposition after every request.
pub fn serve(
    spec: &VerifySpec,
    config: yu::serve::ServeConfig,
    prom_out: Option<&str>,
) -> ExitCode {
    use std::io::{BufRead, Write};
    let mut session = yu::serve::ServeSession::with_config(spec, spec_options(spec), config);
    let stdout = std::io::stdout();
    {
        let mut out = stdout.lock();
        let _ = writeln!(out, "{}", session.ready_line());
        let _ = out.flush();
    }
    if let Some(path) = prom_out {
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
        if let Some(path) = prom_out {
            write_prometheus(path);
        }
    }
    if let Some(path) = prom_out {
        write_prometheus(path);
    }
    yu::telemetry::close_event_sink();
    ExitCode::SUCCESS
}
