//! # yu-bench
//!
//! Shared harness helpers for regenerating the paper's evaluation
//! (`src/bin/figures.rs` prints every table and figure). The performance
//! benchmark is the separate `yubench/` package (see `BENCHMARK.json`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::{Duration, Instant};
use yu_core::{YuOptions, YuVerifier};
use yu_gen::{wan, Wan, WanPreset};
use yu_mtbdd::Ratio;
use yu_net::{FailureMode, Flow, Tlp};

/// Flow counts used for each preset in the figure harness (scaled from
/// the paper's one-hour windows; see EXPERIMENTS.md).
pub fn preset_flow_count(preset: WanPreset) -> usize {
    match preset {
        WanPreset::N0 => 2_000,
        WanPreset::N1 => 5_000,
        WanPreset::N2 => 10_000,
        WanPreset::Wan => 20_000,
    }
}

/// Builds a preset WAN together with its harness workload.
pub fn preset_instance(preset: WanPreset) -> (Wan, Vec<Flow>) {
    let w = wan(preset.params());
    let flows = w.flows(preset_flow_count(preset), 0xF10F);
    (w, flows)
}

/// The overload TLP used throughout the harness (95% of capacity).
pub fn overload_tlp(net: &yu_net::Network) -> Tlp {
    Tlp::no_overload(&net.topo, Ratio::new(95, 100))
}

/// Result of one timed YU verification.
pub struct YuRun {
    /// Total wall-clock time (route sim + exec + check).
    pub total: Duration,
    /// Symbolic route simulation time.
    pub route: Duration,
    /// Symbolic traffic execution time.
    pub exec: Duration,
    /// TLP checking time.
    pub check: Duration,
    /// Whether the TLP held.
    pub verified: bool,
    /// Number of violations found.
    pub violations: usize,
    /// Flow groups executed.
    pub groups: usize,
    /// MTBDD nodes created.
    pub nodes: usize,
}

/// Runs YU end to end on one instance and reports timings.
pub fn run_yu(
    net: &yu_net::Network,
    flows: &[Flow],
    tlp: &Tlp,
    k: u32,
    mode: FailureMode,
    use_kreduce: bool,
    use_link_local: bool,
) -> YuRun {
    let t0 = Instant::now();
    let mut v = YuVerifier::new(
        net.clone(),
        YuOptions {
            k,
            mode,
            use_kreduce,
            use_link_local_equiv: use_link_local,
            ..Default::default()
        },
    );
    v.add_flows(flows);
    let out = v.verify(tlp);
    YuRun {
        total: t0.elapsed(),
        route: out.stats.route_time,
        exec: out.stats.exec_time,
        check: out.stats.check_time,
        verified: out.verified(),
        violations: out.violations.len(),
        groups: out.stats.flow_groups,
        nodes: out.stats.mtbdd.nodes_created,
    }
}

/// Formats a duration in seconds with 3 decimals (the paper's unit).
pub fn secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

/// Simple text CDF: returns `(value at each decile, p90, max)` of sorted
/// samples.
pub fn cdf_summary(mut samples: Vec<f64>) -> (Vec<f64>, f64, f64) {
    assert!(!samples.is_empty());
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let pick = |q: f64| {
        let ix = ((samples.len() as f64 - 1.0) * q).round() as usize;
        samples[ix]
    };
    let deciles = (0..=10).map(|i| pick(i as f64 / 10.0)).collect();
    (deciles, pick(0.9), *samples.last().unwrap())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_summary_deciles() {
        let (dec, p90, max) = cdf_summary((1..=100).map(|i| i as f64).collect());
        assert_eq!(dec.len(), 11);
        assert_eq!(dec[0], 1.0);
        assert_eq!(max, 100.0);
        assert!((p90 - 90.0).abs() <= 1.0);
    }

    #[test]
    fn run_yu_on_tiny_preset() {
        let (w, flows) = preset_instance(WanPreset::N0);
        let tlp = overload_tlp(&w.net);
        let run = run_yu(
            &w.net,
            &flows[..200],
            &tlp,
            1,
            FailureMode::Links,
            true,
            true,
        );
        assert!(run.groups > 0);
        assert!(run.nodes > 0);
        assert!(run.total >= run.check);
    }
}
