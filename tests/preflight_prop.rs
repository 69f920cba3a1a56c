//! The static analyzer (`yu lint --deep`) as an independent oracle for the
//! symbolic engine, on random instances:
//!
//! * a min-cut the analyzer claims disconnects a measurement point from
//!   every traffic source must actually zero out the symbolic load there;
//! * a requirement the analyzer classifies `ProvenSafe` must verify
//!   symbolically — and the engine's own interval test must be what
//!   decides it, which is why `verify` runs no static pass of its own —
//!   and one classified `ProvenViolated` must not.

use proptest::prelude::*;
use std::collections::BTreeSet;
use yu::analysis::{
    classify, min_disconnecting_failures, Certificate, CutTarget, PreflightConfig, ReqClass,
};
use yu::core::{YuOptions, YuVerifier};
use yu::gen::{wan, WanParams};
use yu::mtbdd::Ratio;
use yu::net::{FailureMode, LoadPoint, RouterId, Tlp, TlpReq, DEFAULT_MAX_HOPS};

fn small_wan(seed: u64, n_flows: usize) -> (yu::net::Network, Vec<yu::net::Flow>) {
    let w = wan(WanParams {
        core_routers: 4,
        stub_routers: 3,
        extra_core_links: 2,
        prefixes: 8,
        sr_policies: 1,
        seed,
    });
    let flows = w.flows(n_flows, seed.wrapping_mul(0x9E3779B9));
    (w.net, flows)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// If the analyzer finds a disconnecting failure set within the
    /// budget, replaying that exact scenario through the symbolic engine
    /// yields zero delivered and zero dropped traffic at the target.
    #[test]
    fn min_cut_zeroes_the_symbolic_load(
        seed in 0u64..500,
        target_sel in 0usize..16,
        mode_sel in 0usize..3,
    ) {
        let (net, flows) = small_wan(seed, 10);
        let mode = [FailureMode::Links, FailureMode::Routers, FailureMode::LinksAndRouters][mode_sel];
        let target = RouterId((target_sel % net.topo.num_routers()) as u32);
        let sources: Vec<RouterId> = flows
            .iter()
            .filter(|f| !f.volume.is_zero())
            .map(|f| f.ingress)
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        let Some(cut) =
            min_disconnecting_failures(&net.topo, mode, &sources, CutTarget::Router(target))
        else {
            return Ok(()); // unseverable (e.g. source == target in Links mode)
        };
        let k = (cut.count() as u32).max(1);
        let mut v = YuVerifier::new(net.clone(), YuOptions { k, mode, ..Default::default() });
        v.add_flows(&flows);
        for point in [LoadPoint::Delivered(target), LoadPoint::Dropped(target)] {
            let load = v.load_at(point, &cut);
            prop_assert!(
                load.is_zero(),
                "{} under claimed cut {} is {} (seed {seed})",
                point.describe(&net.topo),
                cut.describe(&net.topo),
                load
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Static verdicts agree with the symbolic engine, and the engine
    /// needs no help from them: every requirement classified ProvenSafe
    /// verifies *and is decided by the interval test* (exact per-class
    /// ranges summed are never looser than per-flow volume bounds summed),
    /// every ProvenViolated one fails. NeedsSymbolic makes no claim, so
    /// nothing is asserted for it.
    #[test]
    fn static_verdicts_match_symbolic_verdicts(
        seed in 0u64..500,
        k in 1u32..3,
        mode_sel in 0usize..2,
        point_sel in 0usize..8,
        flows_sel in 0usize..4,
        min_sel in 0u64..260,
        max_sel in 0u64..260,
    ) {
        // A quarter of the instances carry no traffic at all.
        let (net, flows) = small_wan(seed, if flows_sel == 0 { 0 } else { 10 });
        let mode = [FailureMode::Links, FailureMode::Routers][mode_sel];
        let r = RouterId((point_sel % net.topo.num_routers()) as u32);
        let point = match point_sel % 3 {
            0 => LoadPoint::Delivered(r),
            1 => LoadPoint::Dropped(r),
            _ => {
                let links: Vec<_> = net.topo.links().collect();
                LoadPoint::Link(links[point_sel % links.len()])
            }
        };
        // Selectors >= 200 encode "no bound" so one-sided requirements
        // are exercised too; a fifth of the floors are ones no load can
        // break.
        let req = TlpReq {
            point,
            min: (min_sel < 200).then(|| Ratio::int(min_sel as i64 - 40)),
            max: (max_sel < 200).then(|| Ratio::int(max_sel as i64)),
        };
        if req.min.is_none() && req.max.is_none() {
            return Ok(());
        }
        let tlp = Tlp::new().with(req.clone());
        let cfg = PreflightConfig { k, mode, max_hops: DEFAULT_MAX_HOPS };
        let classes = classify(&net, &flows, &tlp, cfg);
        prop_assert_eq!(classes.len(), 1);
        // The draw reaches every certificate a safe verdict can carry,
        // not only `UpperBound`.
        let cert = classes[0].certificate.as_ref();
        if req.min.as_ref().is_none_or(|m| m <= &Ratio::ZERO) {
            if req.max.is_none() {
                prop_assert_eq!(cert, Some(&Certificate::TrivialBounds));
            } else if flows.is_empty() {
                prop_assert_eq!(cert, Some(&Certificate::Unreachable));
            }
        }

        let mut v = YuVerifier::new(net.clone(), YuOptions { k, mode, ..Default::default() });
        v.add_flows(&flows);
        let out = v.verify(&tlp);
        match classes[0].class {
            ReqClass::ProvenSafe => {
                prop_assert!(
                    out.verified(),
                    "ProvenSafe req {} failed symbolically (seed {seed}, cert {cert:?})",
                    req.point.describe(&net.topo),
                );
                prop_assert!(
                    out.stats.reqs_bound_decided == 1,
                    "ProvenSafe req {} left undecided by the interval test \
                     (seed {seed}, cert {cert:?})",
                    req.point.describe(&net.topo),
                );
            }
            ReqClass::ProvenViolated => prop_assert!(
                !out.verified(),
                "ProvenViolated req {} verified symbolically (seed {seed}, cert {cert:?})",
                req.point.describe(&net.topo),
            ),
            ReqClass::NeedsSymbolic => {}
        }
    }
}
