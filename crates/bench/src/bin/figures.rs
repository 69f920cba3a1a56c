//! Regenerates every table and figure of the paper's evaluation (§7 and
//! the appendix) on the scaled-down substitutes documented in DESIGN.md /
//! EXPERIMENTS.md.
//!
//! ```sh
//! cargo run -p yu-bench --release --bin figures -- all
//! cargo run -p yu-bench --release --bin figures -- fig11 fig12
//! cargo run -p yu-bench --release --bin figures -- --quick all
//! ```
//!
//! `--quick` shrinks workloads for smoke runs. Baseline cells whose full
//! enumeration would exceed the per-cell budget are measured on a prefix
//! of the scenario space and extrapolated (marked `~`), mirroring the
//! paper's own `> 3600` entries.

use std::time::{Duration, Instant};
use yu_baselines::{jingubang_verify, qarc_verify};
use yu_bench::{cdf_summary, overload_tlp, preset_instance, run_yu, secs};
use yu_core::{check_requirement, YuOptions, YuVerifier};
use yu_gen::{fattree_with_flows, motivating_example, WanPreset};
use yu_mtbdd::{Mtbdd, Ratio, Term};
use yu_net::{scenario_count, FailureMode, Flow, LoadPoint, Network, Scenario, Tlp};

struct Opts {
    quick: bool,
    budget: Duration,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let opts = Opts {
        quick,
        budget: if quick {
            Duration::from_secs(10)
        } else {
            Duration::from_secs(90)
        },
    };
    let mut targets: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(|a| a.as_str())
        .collect();
    if targets.is_empty() || targets.contains(&"all") {
        // fig13/fig14 and fig15/fig16 are produced together.
        targets = vec![
            "fig1", "table3", "fig11", "fig12", "fig13", "fig15", "fig17", "fig18", "table4",
        ];
    }
    for t in targets {
        match t {
            "fig1" => fig1(),
            "table3" => table3(),
            "fig11" => fig11_17(&opts, FailureMode::Links),
            "fig17" => fig11_17(&opts, FailureMode::Routers),
            "fig12" => fig12(&opts),
            "fig13" | "fig14" => fig13_14(&opts),
            "fig15" | "fig16" => fig15_16(&opts),
            "fig18" => fig18(),
            "table4" => table4(&opts),
            other => eprintln!("unknown target: {other}"),
        }
    }
}

fn header(title: &str) {
    println!("\n=== {title} ===");
}

/// Fig. 1 sanity: the motivating example's loads and verdicts.
fn fig1() {
    header("Fig. 1 (motivating example: loads and P1/P2 verdicts)");
    let ex = motivating_example();
    let topo = ex.net.topo.clone();
    let mut v = YuVerifier::new(
        ex.net,
        YuOptions {
            k: 1,
            ..Default::default()
        },
    );
    v.add_flows(&ex.flows);
    let s0 = Scenario::none();
    println!("scenario (a), no failures:");
    for l in topo.links() {
        let load = v.load_at(LoadPoint::Link(l), &s0);
        if !load.is_zero() {
            println!("  {:<8} {}", topo.link_label(l), load);
        }
    }
    let p1 = v.verify(&ex.p1);
    let p2 = v.verify(&ex.p2);
    println!("P1 under 1 failure: {}", verdict(p1.verified()));
    println!("P2 under 1 failure: {}", verdict(p2.verified()));
    for vi in p2.violations.iter().take(3) {
        println!("  {}", vi.describe(&topo));
    }
}

/// Table 3: network characteristics of the synthetic presets (paper's
/// production numbers alongside).
fn table3() {
    header("Table 3 (network characteristics; paper originals in parens)");
    println!(
        "{:<6} {:>9} {:>9} {:>10} {:>12}",
        "net", "routers", "links", "prefixes", "flows"
    );
    let paper = [
        ("N0", "100", "200", "3e3", "5e7"),
        ("N1", "200", "500", "2e6", "2e8"),
        ("N2", "500", "2500", "2e6", "2e9"),
        ("WAN", "1000", "4000", "2e6", "2e9"),
    ];
    for (i, preset) in [WanPreset::N0, WanPreset::N1, WanPreset::N2, WanPreset::Wan]
        .into_iter()
        .enumerate()
    {
        let (w, flows) = preset_instance(preset);
        let (pn, pr, pl, pp, pf) = (paper[i].0, paper[i].1, paper[i].2, paper[i].3, paper[i].4);
        let _ = pn;
        println!(
            "{:<6} {:>4} ({:>4}) {:>4} ({:>4}) {:>4} ({:>4}) {:>6} ({:>4})",
            preset.name(),
            w.net.topo.num_routers(),
            pr,
            w.net.topo.num_ulinks(),
            pl,
            w.params.prefixes,
            pp,
            flows.len(),
            pf,
        );
    }
}

/// Figs. 11 / 17: verification time across presets and k, vs Jingubang
/// (N0 only, as in the paper).
fn fig11_17(opts: &Opts, mode: FailureMode) {
    let what = match mode {
        FailureMode::Links => "Fig. 11 (k-link failures)",
        FailureMode::Routers => "Fig. 17 (k-router failures)",
        _ => unreachable!(),
    };
    header(what);
    println!(
        "{:<6} {:>2} {:>12} {:>16} {:>10}",
        "net", "k", "YU (s)", "Jingubang (s)", "verdict"
    );
    let plan: &[(WanPreset, &[u32])] = if opts.quick {
        &[(WanPreset::N0, &[1, 2])]
    } else {
        &[
            (WanPreset::N0, &[1, 2, 3, 4]),
            (WanPreset::N1, &[1, 2, 3]),
            (WanPreset::N2, &[1, 2]),
            (WanPreset::Wan, &[1, 2]),
        ]
    };
    for &(preset, ks) in plan {
        let (w, flows) = preset_instance(preset);
        let tlp = overload_tlp(&w.net);
        for &k in ks {
            let run = run_yu(&w.net, &flows, &tlp, k, mode, true, true);
            // Jingubang only on the small network, like the paper.
            let jg = if preset == WanPreset::N0 && k <= 2 {
                measure_jingubang(&w.net, &flows, &tlp, k as usize, mode, opts.budget)
            } else {
                "-".into()
            };
            println!(
                "{:<6} {:>2} {:>12} {:>16} {:>10}",
                preset.name(),
                k,
                secs(run.total),
                jg,
                verdict(run.verified)
            );
        }
    }
}

/// Fig. 12: WAN verification time vs flow count, k in {1,2}, link and
/// router failures.
fn fig12(opts: &Opts) {
    header("Fig. 12 (WAN verification time vs flow count)");
    let preset = if opts.quick {
        WanPreset::N0
    } else {
        WanPreset::Wan
    };
    let (w, all_flows) = preset_instance(preset);
    let tlp = overload_tlp(&w.net);
    let total = all_flows.len();
    let counts = [total / 6, total / 3, (2 * total) / 3, total];
    println!(
        "{:<8} {:>10} {:>14} {:>14} {:>14} {:>14}",
        "net", "flows", "k=1 link (s)", "k=2 link (s)", "k=1 rtr (s)", "k=2 rtr (s)"
    );
    for &n in &counts {
        let fl = &all_flows[..n];
        let t11 = run_yu(&w.net, fl, &tlp, 1, FailureMode::Links, true, true).total;
        let t12 = run_yu(&w.net, fl, &tlp, 2, FailureMode::Links, true, true).total;
        let t21 = run_yu(&w.net, fl, &tlp, 1, FailureMode::Routers, true, true).total;
        let t22 = run_yu(&w.net, fl, &tlp, 2, FailureMode::Routers, true, true).total;
        println!(
            "{:<8} {:>10} {:>14} {:>14} {:>14} {:>14}",
            preset.name(),
            n,
            secs(t11),
            secs(t12),
            secs(t21),
            secs(t22)
        );
    }
}

/// Figs. 13 / 14: CDFs of per-link TLP check time and per-link flow
/// counts, with and without link-local equivalence (k = 1).
fn fig13_14(opts: &Opts) {
    header("Figs. 13/14 (link-local equivalence: per-link check time and flow counts)");
    let preset = if opts.quick {
        WanPreset::N0
    } else {
        WanPreset::Wan
    };
    let (w, flows) = preset_instance(preset);
    // The aggregator that ships, with and without link-local classing.
    // `load_mtbdd` caches per point; every sampled link is a first visit.
    let verifier = |use_link_local_equiv| {
        let mut v = YuVerifier::new(
            w.net.clone(),
            YuOptions {
                k: 1,
                use_link_local_equiv,
                ..Default::default()
            },
        );
        v.add_flows(&flows);
        v
    };
    let mut with = verifier(true);
    let mut without = verifier(false);
    let fv = with.failure_vars().clone();
    // Sample 100 links deterministically (the overload TLP has one
    // requirement per link, in link order).
    let tlp = overload_tlp(&w.net);
    let nlinks = tlp.reqs.len();
    let sample = Tlp {
        reqs: tlp
            .reqs
            .into_iter()
            .step_by((nlinks / 100).max(1))
            .take(100)
            .collect(),
    };
    let mut with_eq = Vec::new();
    let mut without_eq = Vec::new();
    for req in &sample.reqs {
        for (v, times) in [(&mut with, &mut with_eq), (&mut without, &mut without_eq)] {
            let t0 = Instant::now();
            let tau = v.load_mtbdd(req.point);
            let _ = check_requirement(v.manager_mut(), &fv, tau, req, 1);
            times.push(t0.elapsed().as_secs_f64());
        }
    }
    // Fig. 14's counts are the aggregator's own statistics for the same
    // links: flows reaching the link vs the classes it summed.
    let per_point = with.verify(&sample).stats.per_point;
    let flows_raw: Vec<f64> = per_point.values().map(|s| s.flows as f64).collect();
    let flows_classes: Vec<f64> = per_point.values().map(|s| s.classes as f64).collect();
    let (_, p90_w, max_w) = cdf_summary(with_eq.clone());
    let (_, p90_wo, max_wo) = cdf_summary(without_eq.clone());
    println!(
        "Fig. 13 per-link TLP check time over {} links:",
        sample.reqs.len()
    );
    println!(
        "  with equivalence:    p90 {:.4}s  max {:.4}s",
        p90_w, max_w
    );
    println!(
        "  without equivalence: p90 {:.4}s  max {:.4}s",
        p90_wo, max_wo
    );
    println!(
        "  paper: 12.51s -> 0.79s at p90 (16x); measured speedup at p90: {:.1}x",
        p90_wo / p90_w.max(1e-9)
    );
    let (_, p90_f, max_f) = cdf_summary(flows_raw);
    let (_, p90_c, max_c) = cdf_summary(flows_classes);
    println!("Fig. 14 per-link distinct flows over the same links:");
    println!(
        "  flows (no equivalence):   p90 {:.0}  max {:.0}",
        p90_f, max_f
    );
    println!(
        "  classes (with equivalence): p90 {:.0}  max {:.0}",
        p90_c, max_c
    );
    println!(
        "  paper: ~1.7e4 -> ~500 at p90 (33x); measured reduction at p90: {:.1}x",
        p90_f / p90_c.max(1.0)
    );
}

/// Figs. 15 / 16: FT-4 runtime and MTBDD node counts vs flow count, with
/// and without KREDUCE, against QARC (k = 2).
///
/// The paper's headline KREDUCE claim — "without KREDUCE, YU is unable to
/// complete verification for any of our production networks within an
/// hour, even with just a single input flow" — reproduces on our scaled
/// presets too: disabling KREDUCE on the N1 preset (29 routers, 54
/// links) with one flow exhausts memory (exact MTBDDs over 54 failure
/// variables). That run is deliberately not part of the harness; see
/// EXPERIMENTS.md.
fn fig15_16(opts: &Opts) {
    header("Figs. 15/16 (FT-4, k=2: YU w/ and w/o KREDUCE vs QARC; MTBDD nodes)");
    let (ft, _) = fattree_with_flows(4, 100);
    let tlp = Tlp::no_overload(&ft.net.topo, Ratio::new(95, 100));
    println!(
        "{:<7} {:>12} {:>14} {:>12} {:>12} {:>14}",
        "flows", "YU (s)", "YU w/o KR (s)", "QARC (s)", "nodes", "nodes w/o KR"
    );
    let counts: &[usize] = if opts.quick {
        &[1, 9]
    } else {
        &[1, 5, 9, 13, 17, 21]
    };
    for &n in counts {
        let flows = ft.pairwise_flows(n, Ratio::int(5));
        let with_kr = run_yu(&ft.net, &flows, &tlp, 2, FailureMode::Links, true, true);
        let without_kr = run_yu(&ft.net, &flows, &tlp, 2, FailureMode::Links, false, true);
        let qa = qarc_verify(&ft.net, &flows, &tlp, 2, false);
        println!(
            "{:<7} {:>12} {:>14} {:>12} {:>12} {:>14}",
            n,
            secs(with_kr.total),
            secs(without_kr.total),
            secs(qa.elapsed),
            with_kr.nodes,
            without_kr.nodes
        );
    }
}

/// Fig. 18 (appendix C): summation of two small MTBDDs explodes in size.
fn fig18() {
    header("Fig. 18 (appendix: MTBDD addition size blow-up)");
    let mut m = Mtbdd::new();
    let vars: Vec<_> = (0..5).map(|_| m.fresh_var()).collect();
    // T_x: tests x1, x3, x5 -> terminals {10, 5, 0}.
    let t10 = m.term(Term::int(10));
    let t5 = m.term(Term::int(5));
    let zero = m.zero();
    let x3_node = m.node(vars[2], t5, t10);
    let x5_node = m.node(vars[4], zero, t5);
    let tx = m.node(vars[0], x5_node, x3_node);
    // T_y: tests x2, x4 -> terminals {25, 50, 0}.
    let t25 = m.term(Term::int(25));
    let t50 = m.term(Term::int(50));
    let x4_node = m.node(vars[3], t25, t50);
    let ty = m.node(vars[1], zero, x4_node);
    let sum = m.add(tx, ty);
    println!("|T_x| = {} nodes", m.node_count(tx));
    println!("|T_y| = {} nodes", m.node_count(ty));
    println!(
        "|T_x + T_y| = {} nodes (the blow-up motivating Sec. 5.3)",
        m.node_count(sum)
    );
}

/// Table 4: FT-4/8/12 x flow fractions, YU vs QARC vs Jingubang (2-link
/// failures).
fn table4(opts: &Opts) {
    header("Table 4 (FatTrees, 2-link failures: YU vs QARC vs Jingubang, seconds)");
    println!(
        "{:<7} {:>6} {:>7} {:>12} {:>14} {:>16}",
        "net", "pct", "flows", "YU (s)", "QARC (s)", "Jingubang (s)"
    );
    let pods: &[usize] = if opts.quick { &[4] } else { &[4, 8, 12] };
    for &m in pods {
        for pct in [4usize, 8, 12, 16] {
            let (ft, flows) = fattree_with_flows(m, pct);
            let tlp = Tlp::no_overload(&ft.net.topo, Ratio::new(95, 100));
            let yu = run_yu(&ft.net, &flows, &tlp, 2, FailureMode::Links, true, true);
            let qa = measure_qarc(&ft.net, &flows, &tlp, 2, opts.budget);
            let jg = measure_jingubang(&ft.net, &flows, &tlp, 2, FailureMode::Links, opts.budget);
            println!(
                "FT-{:<4} {:>5}% {:>7} {:>12} {:>14} {:>16}",
                m,
                pct,
                flows.len(),
                secs(yu.total),
                qa,
                jg
            );
        }
    }
}

fn verdict(ok: bool) -> &'static str {
    if ok {
        "verified"
    } else {
        "violated"
    }
}

/// Times the Jingubang baseline, extrapolating (marked `~`) when the full
/// enumeration exceeds the budget.
fn measure_jingubang(
    net: &Network,
    flows: &[Flow],
    tlp: &Tlp,
    k: usize,
    mode: FailureMode,
    budget: Duration,
) -> String {
    let total = scenario_count(
        match mode {
            FailureMode::Links => net.topo.num_ulinks(),
            FailureMode::Routers => net.topo.num_routers(),
            FailureMode::LinksAndRouters => net.topo.num_ulinks() + net.topo.num_routers(),
        },
        k,
    );
    let probe_n = 32u128.min(total) as usize;
    let t0 = Instant::now();
    let _ = yu_baselines::jingubang_verify_bounded(
        net,
        flows,
        tlp,
        k,
        mode,
        yu_net::DEFAULT_MAX_HOPS,
        false,
        Some(probe_n),
    );
    let per = t0.elapsed().as_secs_f64() / probe_n as f64;
    let est = per * total as f64;
    if est < budget.as_secs_f64() {
        let out = jingubang_verify(net, flows, tlp, k, mode, yu_net::DEFAULT_MAX_HOPS, false);
        secs(out.elapsed)
    } else {
        format!("~{est:.0}")
    }
}

/// Times the QARC baseline, extrapolating when over budget.
fn measure_qarc(net: &Network, flows: &[Flow], tlp: &Tlp, k: usize, budget: Duration) -> String {
    let total = scenario_count(net.topo.num_ulinks(), k);
    let probe_n = 64u128.min(total) as usize;
    let t0 = Instant::now();
    let _ = yu_baselines::qarc_verify_bounded(net, flows, tlp, k, false, Some(probe_n));
    let per = t0.elapsed().as_secs_f64() / probe_n as f64;
    let est = per * total as f64;
    if est < budget.as_secs_f64() {
        let out = qarc_verify(net, flows, tlp, k, false);
        secs(out.elapsed)
    } else {
        format!("~{est:.0}")
    }
}
