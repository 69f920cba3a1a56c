//! JSON verification specs: a self-contained description of a network,
//! its flows, the property to check, and the failure budget — the
//! interchange format of the `yu` CLI.

use serde::{Deserialize, Serialize};
use yu_analysis::Diagnostic;
use yu_net::{FailureMode, Flow, Network, Tlp};

/// A complete verification job.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VerifySpec {
    /// The network: topology plus per-router configuration.
    pub network: Network,
    /// The traffic matrix.
    pub flows: Vec<Flow>,
    /// The property to verify.
    pub tlp: Tlp,
    /// Failure budget.
    pub k: u32,
    /// What can fail.
    #[serde(default = "default_mode")]
    pub mode: FailureMode,
}

fn default_mode() -> FailureMode {
    FailureMode::Links
}

impl VerifySpec {
    /// Parses a spec from JSON.
    pub fn from_json(s: &str) -> Result<VerifySpec, serde_json::Error> {
        serde_json::from_str(s)
    }

    /// Serializes the spec as pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("specs are always serializable")
    }

    /// Runs the full preflight lint over the spec — the network rules
    /// plus flow, TLP, and failure-budget checks — returning structured
    /// diagnostics with stable `YU0xx` codes (see `yu_analysis`). This
    /// is the single diagnostics path shared by `yu check`, `yu lint`,
    /// and library callers.
    pub fn validate(&self) -> Vec<Diagnostic> {
        yu_analysis::lint_spec(&self.network, &self.flows, &self.tlp, self.k, self.mode)
    }

    /// The error-severity diagnostics of [`Self::validate`]: why `yu
    /// verify` and the other running subcommands refuse the spec.
    pub fn errors(&self) -> Vec<Diagnostic> {
        lint_errors(&self.network, &self.flows, &self.tlp, self.k, self.mode)
    }

    /// Whether [`Self::validate`] reports any error-severity diagnostic.
    pub fn has_errors(&self) -> bool {
        !self.errors().is_empty()
    }

    /// Runs the deep (semantic) lint: everything [`Self::validate`]
    /// reports, plus the graph-theoretic rules `YU021`–`YU032` —
    /// bridges, partitions within the failure budget, capacity-infeasible
    /// ingress volume, and bound-analysis verdicts (statically
    /// discharged, infeasible, or contradictory requirements). This is
    /// what `yu lint --deep` prints.
    pub fn validate_deep(&self) -> Vec<Diagnostic> {
        yu_analysis::lint_deep(&self.network, &self.flows, &self.tlp, self.k, self.mode)
    }
}

/// The one validity rule: the error-severity diagnostics `yu lint`
/// reports on a state. A spec file with any is refused by every
/// subcommand that runs it, and a `yu serve` change set whose result has
/// any is refused before it is committed.
pub fn lint_errors(
    net: &Network,
    flows: &[Flow],
    tlp: &Tlp,
    k: u32,
    mode: FailureMode,
) -> Vec<Diagnostic> {
    let mut diags = yu_analysis::lint_spec(net, flows, tlp, k, mode);
    diags.retain(Diagnostic::is_error);
    diags
}

/// Exit-code policy for `yu lint`: errors always fail; warnings fail
/// only under `--deny-warnings`; notes never fail.
pub fn lint_ok(diags: &[Diagnostic], deny_warnings: bool) -> bool {
    let errors = diags.iter().filter(|d| d.is_error()).count();
    let warnings = diags.iter().filter(|d| d.is_warning()).count();
    errors == 0 && !(deny_warnings && warnings > 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use yu_gen::motivating_example;

    #[test]
    fn spec_roundtrips_through_json() {
        let ex = motivating_example();
        let spec = VerifySpec {
            network: ex.net,
            flows: ex.flows,
            tlp: ex.p2,
            k: 1,
            mode: FailureMode::Links,
        };
        let json = spec.to_json();
        let back = VerifySpec::from_json(&json).unwrap();
        assert_eq!(back.k, 1);
        assert_eq!(back.flows.len(), 2);
        assert_eq!(back.network.topo.num_routers(), 6);
        assert_eq!(back.tlp, spec.tlp);
        assert!(!back.has_errors());
    }

    #[test]
    fn mode_defaults_to_links() {
        let ex = motivating_example();
        let spec = VerifySpec {
            network: ex.net,
            flows: vec![],
            tlp: Tlp::new(),
            k: 2,
            mode: FailureMode::Links,
        };
        let mut v: serde_json::Value = serde_json::from_str(&spec.to_json()).unwrap();
        v.as_object_mut().unwrap().remove("mode");
        let back = VerifySpec::from_json(&v.to_string()).unwrap();
        assert_eq!(back.mode, FailureMode::Links);
    }

    #[test]
    fn validation_catches_bad_flows() {
        let ex = motivating_example();
        let mut spec = VerifySpec {
            network: ex.net,
            flows: ex.flows,
            tlp: Tlp::new(),
            k: 1,
            mode: FailureMode::Links,
        };
        spec.flows[0].ingress = yu_net::RouterId(99);
        let problems = spec.validate();
        let errors: Vec<_> = problems.iter().filter(|d| d.is_error()).collect();
        assert_eq!(errors.len(), 1);
        assert_eq!(errors[0].code, "YU014");
        assert!(errors[0].message.contains("ingress"));
    }
}
