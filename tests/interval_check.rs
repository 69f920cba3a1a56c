//! Interval-first checking against the materialising API, with no knob in
//! between: `verify()` decides most requirements from per-flow terminal
//! ranges and never builds their aggregated load; driving the public
//! `load_mtbdd` + `check_requirement` pair builds and scans every one.
//! Both must report the same violations, counterexample for
//! counterexample, and the same per-point aggregation statistics — on
//! every preset `yu export` knows, in both failure modes, at k = 1 and 2.

use std::process::Command;
use yu::core::{check_requirement, YuOptions, YuVerifier};
use yu::net::FailureMode;
use yu::spec::VerifySpec;

const PRESETS: [&str; 6] = ["fig1", "fig9", "fig10", "ft4", "n0", "preflight"];

/// The preset as the CLI exports it.
fn preset(which: &str) -> VerifySpec {
    let out = Command::new(env!("CARGO_BIN_EXE_yu"))
        .args(["export", which])
        .output()
        .expect("yu export runs");
    assert!(out.status.success(), "yu export {which} failed");
    let json = String::from_utf8(out.stdout).expect("the spec is UTF-8");
    VerifySpec::from_json(&json).expect("the exported spec parses")
}

fn verifier(spec: &VerifySpec, mode: FailureMode, k: u32) -> YuVerifier {
    let opts = YuOptions {
        k,
        mode,
        ..Default::default()
    };
    let mut v = YuVerifier::new(spec.network.clone(), opts);
    v.add_flows(&spec.flows);
    v
}

#[test]
fn verify_matches_the_materialising_api_on_every_preset() {
    let (mut decided, mut checked) = (0, 0);
    for which in PRESETS {
        let spec = preset(which);
        for mode in [FailureMode::Links, FailureMode::Routers] {
            for k in [1, 2] {
                let ctx = format!("{which} mode={mode:?} k={k}");
                let mut interval_first = verifier(&spec, mode, k);
                let out = interval_first.verify(&spec.tlp);

                // Requirement by requirement through the public API.
                let mut materialising = verifier(&spec, mode, k);
                let fv = materialising.failure_vars().clone();
                let mut violations = Vec::new();
                for req in &spec.tlp.reqs {
                    let tau = materialising.load_mtbdd(req.point);
                    let m = materialising.manager_mut();
                    violations.extend(check_requirement(m, &fv, tau, req, k));
                }
                assert_eq!(out.violations, violations, "{ctx}: violation list");

                // The enumerating entry point runs the same stage: a
                // requirement the bounds prove safe has no scenario to
                // list, so it decides the same ones without building them.
                let listed = materialising.verify_enumerated(&spec.tlp, 2);
                assert_eq!(
                    out.stats.per_point, listed.stats.per_point,
                    "{ctx}: per_point"
                );
                assert_eq!(
                    out.stats.reqs_bound_decided, listed.stats.reqs_bound_decided,
                    "{ctx}: enumerating"
                );

                // Every requirement the test decides holds, and every
                // violated one was left to the scan.
                let reqs = spec.tlp.reqs.len();
                assert!(
                    out.stats.reqs_bound_decided + out.violations.len() <= reqs,
                    "{ctx}: {} decided + {} violated of {reqs}",
                    out.stats.reqs_bound_decided,
                    out.violations.len()
                );
                assert!(
                    interval_first.mtbdd_stats().nodes_created
                        <= materialising.mtbdd_stats().nodes_created,
                    "{ctx}: deciding by bounds must not build more"
                );
                if (which, mode, k) == ("preflight", FailureMode::Links, spec.k) {
                    // As `yu verify` runs it. The seven requirements the
                    // static analyzer proves safe (`yu lint --deep`) are
                    // among the 24: no second mechanism is needed to
                    // discharge them.
                    let nodes = interval_first.mtbdd_stats().nodes_created;
                    let (decided, violated) = (out.stats.reqs_bound_decided, out.violations.len());
                    assert_eq!((reqs, decided, violated, nodes), (26, 24, 2, 281), "{ctx}");
                }
                decided += out.stats.reqs_bound_decided;
                checked += reqs;
            }
        }
    }
    assert!(
        0 < decided && decided < checked,
        "both paths must be exercised: {decided} of {checked} decided"
    );
}
