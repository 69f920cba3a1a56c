//! The subcommands that inspect a spec without verifying its TLP:
//! `export`, `lint`, `check`, `loads`, `scenarios` and `rib`.

use std::process::ExitCode;
use yu::core::{YuOptions, YuVerifier};
use yu::mtbdd::Ratio;
use yu::net::{scenario_count, FailureMode, Flow, LoadPoint, Network, Scenario, Tlp};
use yu::spec::VerifySpec;

use crate::exit_code;

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

pub fn export(which: &str) -> ExitCode {
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

pub fn lint(spec: &VerifySpec, json_output: bool, deep: bool, deny_warnings: bool) -> ExitCode {
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
    exit_code(yu::spec::lint_ok(&diags, deny_warnings))
}

pub fn check(spec: &VerifySpec) -> ExitCode {
    let diags = spec.validate();
    for d in &diags {
        eprintln!("{d}");
    }
    let ok = !diags.iter().any(|d| d.is_error());
    if ok {
        println!(
            "ok: {} routers, {} links, {} flows, {} requirements, k={} ({:?})",
            spec.network.topo.num_routers(),
            spec.network.topo.num_ulinks(),
            spec.flows.len(),
            spec.tlp.reqs.len(),
            spec.k,
            spec.mode,
        );
    }
    exit_code(ok)
}

pub fn rib(spec: &VerifySpec, router: Option<String>, dst: Option<String>) -> ExitCode {
    let Some(router_name) = router else {
        eprintln!("error: --router <name> required");
        return ExitCode::from(2);
    };
    let Some(dst) = dst else {
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

pub fn loads(spec: &VerifySpec, fail: Option<&str>) -> ExitCode {
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

pub fn scenarios(spec: &VerifySpec) -> ExitCode {
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
