//! Per-entity performance attribution: which flow, which requirement,
//! which variable level the nodes and the milliseconds actually go to.
//!
//! The stage timings in [`crate::RunStats`] say *that* execution took
//! 4 s; the ROADMAP's engine-overhaul work needs to know *which flow*
//! took them, and whether the arena growth came from execution or
//! aggregation. The verifier always records an [`EntityCost`] for every
//! unit of work — one per flow group at `exec.flow`, one per requirement
//! at aggregate+check — from the wall clock and node delta it measures
//! there anyway, and [`crate::YuVerifier::attribution`] assembles them,
//! with the arena's level and cache profiles, into an [`Attribution`]
//! when asked.
//!
//! **Reconciliation invariant.** Within a phase, the per-entity node
//! deltas are measured back-to-back in the same arena, so they
//! telescope: their sum equals the phase-wide delta *exactly*. They read
//! the arena's cumulative `nodes_created`, which a collection does not
//! lower, so no delta is negative and the phase deltas reconcile with
//! the final arena statistics, GC or not: `route_nodes +
//! exec.nodes_delta + check.nodes_delta = stats.mtbdd.nodes_created`.
//! This identity is asserted by `tests/attribution.rs` and the CI
//! profile smoke step.
//!
//! Capture reads only wall clocks and already-maintained node counters,
//! and building the report only walks the arena, so a run is
//! bit-identical whether or not anyone reads it (`tests/attribution.rs`).

use serde::Serialize;
use yu_mtbdd::{CacheProfile, LevelProfile};

/// The cost attributed to one spec entity (a flow group or a
/// requirement).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct EntityCost {
    /// Human-readable entity label (`flow A->10.0.0.1/dscp0`,
    /// `req link A-B`).
    pub label: String,
    /// Wall-clock spent on this entity, in microseconds.
    pub wall_us: u64,
    /// Inner nodes the arena created while this entity was processed
    /// (work done: a collection mid-entity does not subtract).
    pub nodes_delta: i64,
}

/// Every [`EntityCost`] of one pipeline phase plus the phase-wide
/// totals the entities must reconcile with.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct PhaseAttribution {
    /// Per-entity costs, in processing order.
    pub entities: Vec<EntityCost>,
    /// Phase wall-clock, in microseconds.
    pub wall_us: u64,
    /// Inner nodes created in the phase (the sum of the per-entity
    /// deltas).
    pub nodes_delta: i64,
}

impl PhaseAttribution {
    /// Sum of the per-entity node deltas (must equal
    /// [`PhaseAttribution::nodes_delta`]).
    pub fn entity_nodes_sum(&self) -> i64 {
        self.entities.iter().map(|e| e.nodes_delta).sum()
    }

    /// Sum of the per-entity wall clocks, in microseconds.
    pub fn entity_wall_sum(&self) -> u64 {
        self.entities.iter().map(|e| e.wall_us).sum()
    }

    /// The entities sorted by wall-clock, most expensive first,
    /// truncated to `top` (0 = all).
    pub fn top_by_wall(&self, top: usize) -> Vec<&EntityCost> {
        let mut sorted: Vec<&EntityCost> = self.entities.iter().collect();
        sorted.sort_by(|a, b| b.wall_us.cmp(&a.wall_us).then(a.label.cmp(&b.label)));
        if top > 0 {
            sorted.truncate(top);
        }
        sorted
    }
}

/// The full attribution of one verification run, from
/// [`crate::YuVerifier::attribution`].
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct Attribution {
    /// Inner nodes the symbolic route simulation created (the pre-exec
    /// baseline of the reconciliation identity).
    pub route_nodes: u64,
    /// Per-flow-group symbolic execution costs.
    pub exec: PhaseAttribution,
    /// Per-requirement aggregate+check costs.
    pub check: PhaseAttribution,
    /// Live-node histogram per variable level, over every root the
    /// verifier holds after the run (routing state, flow STFs, cached
    /// loads).
    pub levels: LevelProfile,
    /// Apply/fused operation-cache profiles of the arena.
    pub caches: Vec<CacheProfile>,
}

impl Attribution {
    /// Whether every phase's entity deltas telescope to its phase
    /// total — the invariant the capture sites guarantee.
    pub fn reconciles(&self) -> bool {
        [&self.exec, &self.check]
            .iter()
            .all(|p| p.entity_nodes_sum() == p.nodes_delta)
    }
}

/// Label helper: one flow group.
pub(crate) fn flow_label(net: &yu_net::Network, f: &yu_net::Flow, members: usize) -> String {
    let ingress = &net.topo.router(f.ingress).name;
    if members > 1 {
        format!("flow {}->{}/dscp{} (x{})", ingress, f.dst, f.dscp, members)
    } else {
        format!("flow {}->{}/dscp{}", ingress, f.dst, f.dscp)
    }
}

/// Label helper: one requirement.
pub(crate) fn req_label(net: &yu_net::Network, req: &yu_net::TlpReq) -> String {
    format!("req {}", req.point.describe(&net.topo))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cost(label: &str, wall_us: u64, nodes_delta: i64) -> EntityCost {
        EntityCost {
            label: label.into(),
            wall_us,
            nodes_delta,
        }
    }

    #[test]
    fn phase_sums_and_top() {
        let phase = PhaseAttribution {
            entities: vec![cost("a", 5, 10), cost("b", 9, -3), cost("c", 9, 4)],
            wall_us: 30,
            nodes_delta: 11,
        };
        assert_eq!(phase.entity_nodes_sum(), 11);
        assert_eq!(phase.entity_wall_sum(), 23);
        let top = phase.top_by_wall(2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].label, "b", "ties break on label");
        assert_eq!(top[1].label, "c");
        assert_eq!(phase.top_by_wall(0).len(), 3);
    }

    #[test]
    fn reconciliation_checks_every_phase() {
        let good = Attribution {
            exec: PhaseAttribution {
                entities: vec![cost("a", 1, 7)],
                nodes_delta: 7,
                ..Default::default()
            },
            ..Default::default()
        };
        assert!(good.reconciles());
        let mut bad = good.clone();
        bad.check.nodes_delta = 1; // no entities sum to 1
        assert!(!bad.reconciles());
    }
}
