//! `yu-bench`: the benchmark runner named by `../BENCHMARK.json`.
//!
//! ```text
//! yu-bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! yu-bench [--seed <n>] [--smoke] [--out runs.jsonl]    every workload, both runs
//! yu-bench --compare a.jsonl b.jsonl
//! ```
//!
//! The last line of standard output is the result object of the (last)
//! run: `correct`, `attempted`, `failed`, `metrics`.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use yubench::gen::Scale;
use yubench::report::{compare, parse_records, Schema};
use yubench::run::{child_main, run, RunArgs};
use yubench::{batch, oracle};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match real_main(&args) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("yu-bench: {message}");
            ExitCode::FAILURE
        }
    }
}

/// The value following `flag`, if the flag is present.
fn value<'a>(args: &'a [String], flag: &str) -> Result<Option<&'a str>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => match args.get(i + 1) {
            Some(v) => Ok(Some(v)),
            None => Err(format!("{flag} takes a value")),
        },
    }
}

fn parsed<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<Option<T>, String> {
    value(args, flag)?
        .map(|v| v.parse().map_err(|_| format!("{flag}: cannot read '{v}'")))
        .transpose()
}

fn trace_flag(args: &[String]) -> Result<Option<bool>, String> {
    match value(args, "--trace")? {
        None => Ok(None),
        Some("0") => Ok(Some(false)),
        Some("1") => Ok(Some(true)),
        Some(other) => Err(format!("--trace takes 0 or 1, not '{other}'")),
    }
}

fn real_main(args: &[String]) -> Result<ExitCode, String> {
    const FLAGS: [&str; 10] = [
        "--workload",
        "--seed",
        "--seconds",
        "--trace",
        "--out",
        "--smoke",
        "--compare",
        "--child",
        "--dir",
        "--trace-out",
    ];
    if let Some(unknown) = args
        .iter()
        .find(|a| a.starts_with("--") && !FLAGS.contains(&a.as_str()))
    {
        return Err(format!(
            "unknown flag {unknown} (known: {})",
            FLAGS.join(" ")
        ));
    }
    let schema = Schema::load();
    let seed = parsed::<u64>(args, "--seed")?.unwrap_or(1);
    let seconds = parsed::<f64>(args, "--seconds")?.unwrap_or(schema.run_seconds as f64);

    if let Some(kind) = value(args, "--child")? {
        let dir = value(args, "--dir")?.ok_or("--child needs --dir")?;
        let trace_out = value(args, "--trace-out")?.ok_or("--child needs --trace-out")?;
        let trace = trace_flag(args)?.unwrap_or(false);
        let line = child_main(kind, Path::new(dir), Path::new(trace_out), seed, trace)?;
        println!("{line}");
        return Ok(ExitCode::SUCCESS);
    }

    if let Some(i) = args.iter().position(|a| a == "--compare") {
        let (Some(a), Some(b)) = (args.get(i + 1), args.get(i + 2)) else {
            return Err("--compare takes two files written with --out".into());
        };
        let read = |p: &String| {
            let text = std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"))?;
            parse_records(&text).map_err(|e| format!("{p}: {e}"))
        };
        let (report, ok) = compare(&schema, &read(a)?, &read(b)?);
        print!("{report}");
        return Ok(exit_code(ok));
    }

    let workloads: Vec<String> = match value(args, "--workload")? {
        Some(w) => vec![w.to_string()],
        None => schema.workloads.iter().map(|w| w.name.clone()).collect(),
    };
    let traces = match trace_flag(args)? {
        Some(t) => vec![t],
        None => vec![false, true],
    };
    let scale = if args.iter().any(|a| a == "--smoke") {
        Scale::Smoke
    } else {
        Scale::Full
    };
    let out = value(args, "--out")?.map(PathBuf::from);
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;

    println!(
        "# yu-bench seed={seed} seconds={seconds} nproc={} exec_workers=1 \
         check_workers=auto(verify)/1(serve) git={}",
        batch::nproc(),
        git_head()
    );
    // Before anything is timed: the verifier and full enumeration agree.
    oracle::self_check()?;
    println!("# self-check: yu agrees with full enumeration on N0 and fattree-m4 at k=2");
    let mut all_correct = true;
    for workload in &workloads {
        for &trace in &traces {
            let run_args = RunArgs {
                workload: workload.clone(),
                seed,
                seconds,
                trace,
                scale,
            };
            let (record, notes) = run(&schema, &run_args, &exe)?;
            println!("## {workload} trace={}", u8::from(trace));
            for note in notes {
                println!("#  {note}");
            }
            for (name, value, unit) in &record.metrics {
                println!("{name:<28} {value:>16.6} {unit}");
            }
            if let Some(path) = &out {
                let mut file = std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)
                    .map_err(|e| format!("cannot open {}: {e}", path.display()))?;
                writeln!(file, "{}", record.out_line())
                    .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            }
            all_correct &= record.failed == 0;
            println!("{}", record.result_json());
        }
    }
    Ok(exit_code(all_correct))
}

fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `git rev-parse HEAD` of the checkout, or `unknown` outside a
/// repository (the driver's checkout is not one).
fn git_head() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}
