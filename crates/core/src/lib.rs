//! # yu-core
//!
//! The YU algorithm (SIGCOMM 2024): verification of traffic load
//! properties under arbitrary `k` failures via **symbolic traffic
//! execution** over guarded routing state, with **k-failure-equivalence
//! MTBDD reduction** and **link-local flow-equivalence** aggregation.
//!
//! Pipeline (paper Fig. 2):
//!
//! 1. `yu-routing` computes guarded RIBs and SR policies (symbolic route
//!    simulation);
//! 2. [`exec::simulate_flow`] symbolically executes each flow's
//!    forwarding, producing a symbolic traffic fraction MTBDD per link
//!    (plus delivered/dropped pseudo-sinks), KREDUCE-d at every step;
//! 3. the check stage sums flow fractions into a per-point symbolic
//!    traffic load ([`YuVerifier::load_mtbdd`]), collapsing link-local
//!    equivalent flows and reducing during the sum (`Σ∘KREDUCE`);
//! 4. [`verify::check_requirement`] scans the reduced load's terminals
//!    (Theorem 5.1) and extracts a concrete counterexample scenario from
//!    the violating path.
//!
//! [`YuVerifier`] wires the pipeline together behind one API; steps 3–4
//! are one stage, on the verifier's one arena, that the batch and
//! incremental ([`IncrementalVerifier`]) paths both run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod attribution;
mod check;
pub mod delta;
pub mod equivalence;
pub mod exec;
pub mod explain;
pub mod verify;

pub use api::{RunStats, VerificationOutcome, YuOptions, YuVerifier};
pub use attribution::{Attribution, EntityCost, PhaseAttribution};
pub use delta::{DeltaStats, IncrementalVerifier};
pub use equivalence::{global_groups, global_groups_classified, AggStats, FlowGroup};
pub use exec::{simulate_flow, ExecOptions, FlowStf};
pub use explain::{
    explanation_dot, Explanation, FlowBlame, FlowPathDiff, PathOutcome, PointEnvelope, ReplayCheck,
    TracedPath, MAX_TRACED_PATHS,
};
pub use verify::{check_requirement, enumerate_violations, Violation};
