//! Invariant auditing for the hash-consed MTBDD manager.
//!
//! YU's soundness rests on structural invariants of the diagram — the
//! fixed variable order, canonicity (`mk` elides redundant tests), the
//! unique tables that make function equality pointer equality, and the
//! `KREDUCE` postcondition of Lemma 2 (every root-to-terminal path of
//! `βₖ(f)` takes at most `k` failed edges). A silently broken invariant
//! produces a wrong verdict, not an error, so this module provides
//! [`Mtbdd::audit`]: a structured pass over the arena returning an
//! [`AuditReport`] instead of asserting piecemeal.
//!
//! Auditing is also wired into the manager itself at choke points —
//! after every public [`Mtbdd::kreduce`] (postcondition check), after
//! GC (full audit of the fresh arena), and as a sampled re-evaluation
//! of apply-cache entries on cache hits/inserts (to catch cache
//! poisoning, e.g. from a stale handle surviving a collection). The
//! hooks are active when the `YU_AUDIT` environment variable is `1`,
//! or by default in builds with `debug_assertions` (set `YU_AUDIT=0`
//! to force them off).

use crate::manager::{Mtbdd, Op};
use crate::node::NodeRef;
use crate::table::Tag;
use std::fmt;
use std::sync::OnceLock;

/// Which invariant an [`AuditViolation`] refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditCheck {
    /// Variable indices must strictly increase along every edge.
    VariableOrder,
    /// No inner node may have `lo == hi` (canonicity of `mk`).
    Canonicity,
    /// The unique table must map exactly the arena's nodes: no two live
    /// `NodeRef`s with identical `(var, lo, hi)`.
    UniqueTable,
    /// The terminal table must map exactly the arena's terminals.
    TerminalDedup,
    /// A guard MTBDD must be 0/1-valued.
    GuardBoolean,
    /// `max_path_failures(βₖ(f)) ≤ k` (Lemma 2).
    KreducePostcondition,
    /// A memoized apply result must re-evaluate consistently.
    ApplyCache,
}

impl fmt::Display for AuditCheck {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            AuditCheck::VariableOrder => "variable-order",
            AuditCheck::Canonicity => "canonicity",
            AuditCheck::UniqueTable => "unique-table",
            AuditCheck::TerminalDedup => "terminal-dedup",
            AuditCheck::GuardBoolean => "guard-boolean",
            AuditCheck::KreducePostcondition => "kreduce-postcondition",
            AuditCheck::ApplyCache => "apply-cache",
        };
        f.write_str(name)
    }
}

/// One broken invariant found by an audit pass.
#[derive(Debug, Clone)]
pub struct AuditViolation {
    /// The invariant that failed.
    pub check: AuditCheck,
    /// The offending node, when the violation is attributable to one.
    pub node: Option<NodeRef>,
    /// Details of the failure.
    pub message: String,
}

impl fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.node {
            Some(n) => write!(f, "[{}] node {:?}: {}", self.check, n, self.message),
            None => write!(f, "[{}] {}", self.check, self.message),
        }
    }
}

/// The result of an audit pass. Empty `violations` means every checked
/// invariant holds.
#[derive(Debug, Default)]
pub struct AuditReport {
    /// All invariant violations found (empty when the manager is sound).
    pub violations: Vec<AuditViolation>,
    /// Inner nodes visited by reachability checks.
    pub nodes_checked: usize,
    /// Apply-cache entries re-evaluated.
    pub cache_entries_checked: usize,
}

impl AuditReport {
    /// True when no violation was found.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Panics with every violation when the report is not clean.
    ///
    /// Used by the internal choke-point hooks: a broken MTBDD invariant
    /// means any verdict computed from here on is untrustworthy, so
    /// aborting loudly beats continuing silently.
    pub fn assert_ok(&self, context: &str) {
        if !self.ok() {
            let mut msg = format!(
                "MTBDD audit failed ({context}): {} violation(s)\n",
                self.violations.len()
            );
            for v in &self.violations {
                msg.push_str(&format!("  {v}\n"));
            }
            panic!("{msg}");
        }
    }

    fn push(&mut self, check: AuditCheck, node: Option<NodeRef>, message: String) {
        self.violations.push(AuditViolation {
            check,
            node,
            message,
        });
    }
}

/// Reads a `YU_*` on/off variable: `None` when unset, `Some(false)` for
/// an empty value, `0` or `false`, `Some(true)` for anything else — the
/// rule `yu-telemetry` applies to its gates, restated here because the
/// two leaf crates do not depend on each other.
pub(crate) fn env_flag(var: &str) -> Option<bool> {
    let v = std::env::var(var).ok()?;
    Some(!(v.is_empty() || v == "0" || v.eq_ignore_ascii_case("false")))
}

/// Whether audit hooks are globally enabled: `YU_AUDIT=1` forces on,
/// `YU_AUDIT=0` (or `false`, or empty) forces off, unset defaults to
/// `cfg!(debug_assertions)`.
pub fn audit_enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| env_flag("YU_AUDIT").unwrap_or(cfg!(debug_assertions)))
}

/// How many apply operations between sampled cache re-validations.
const APPLY_SAMPLE_PERIOD: u64 = 1024;

/// Cache entries re-evaluated by a full [`Mtbdd::audit`] pass.
const FULL_AUDIT_CACHE_SAMPLES: usize = 64;

impl Mtbdd {
    /// Audits the structural invariants of this manager.
    ///
    /// Reachability checks (variable order, canonicity) walk the
    /// sub-diagrams of `roots`; table-consistency checks (unique table,
    /// terminal dedup) cover the whole arena; and a bounded sample of
    /// apply/apply1 cache entries is re-evaluated against fresh
    /// pointwise evaluation. Runs in `O(arena + reachable + samples)`.
    pub fn audit(&self, roots: &[NodeRef]) -> AuditReport {
        let mut report = AuditReport::default();
        self.audit_tables(&mut report);
        self.audit_reachable(roots, &mut report);
        self.audit_cache_sample(&mut report);
        report
    }

    /// Audits `f` as a guard: structural checks plus 0/1-valuedness of
    /// every reachable terminal.
    pub fn audit_guard(&self, f: NodeRef) -> AuditReport {
        let mut report = self.audit(&[f]);
        let mut stack = vec![f];
        let mut seen = std::collections::HashSet::new();
        while let Some(r) = stack.pop() {
            if !seen.insert(r) {
                continue;
            }
            if r.is_terminal() {
                if self.audit_terminal_index_ok(r) {
                    let t = self.terminal_value(r);
                    if !t.is_zero() && !t.is_one() {
                        report.push(
                            AuditCheck::GuardBoolean,
                            Some(r),
                            format!("guard reaches non-boolean terminal {t}"),
                        );
                    }
                }
            } else if self.audit_node_index_ok(r) {
                let n = self.node_at(r);
                stack.push(n.lo);
                stack.push(n.hi);
            }
        }
        report
    }

    /// Audits the `KREDUCE` postcondition for a reduced diagram: every
    /// root-to-terminal path of `f` takes at most `k` failed edges
    /// (Lemma 2), on top of the structural checks.
    pub fn audit_kreduced(&self, f: NodeRef, k: u32) -> AuditReport {
        let mut report = self.audit(&[f]);
        let mpf = self.max_path_failures(f);
        if mpf > k {
            report.push(
                AuditCheck::KreducePostcondition,
                Some(f),
                format!("max_path_failures = {mpf} exceeds budget k = {k}"),
            );
        }
        report
    }

    fn audit_node_index_ok(&self, r: NodeRef) -> bool {
        !r.is_terminal() && r.index() < self.raw_nodes().len()
    }

    fn audit_terminal_index_ok(&self, r: NodeRef) -> bool {
        r.is_terminal() && r.index() < self.raw_terms().len()
    }

    /// Table-consistency audit over the whole arena: every stored node
    /// and terminal is the one its table resolves it to.
    fn audit_tables(&self, report: &mut AuditReport) {
        let nodes = self.raw_nodes();
        if self.unique_table_len() != nodes.len() {
            report.push(
                AuditCheck::UniqueTable,
                None,
                format!(
                    "unique table has {} entries but arena has {} nodes",
                    self.unique_table_len(),
                    nodes.len()
                ),
            );
        }
        for (ix, node) in nodes.iter().enumerate() {
            let r = NodeRef::inner(ix);
            match self.unique_lookup_for_audit(node) {
                Some(mapped) if mapped == r => {}
                Some(mapped) => report.push(
                    AuditCheck::UniqueTable,
                    Some(r),
                    format!(
                        "two live NodeRefs for (var {}, lo {:?}, hi {:?}): {:?} and {:?}",
                        node.var, node.lo, node.hi, mapped, r
                    ),
                ),
                None => report.push(
                    AuditCheck::UniqueTable,
                    Some(r),
                    format!(
                        "arena node (var {}, lo {:?}, hi {:?}) missing from unique table",
                        node.var, node.lo, node.hi
                    ),
                ),
            }
        }
        let terms = self.raw_terms();
        let interned = self.terminal_table_len();
        if interned != terms.len() {
            report.push(
                AuditCheck::TerminalDedup,
                None,
                format!(
                    "terminal table has {interned} entries but arena has {} terminals",
                    terms.len()
                ),
            );
        }
        for (ix, term) in terms.iter().enumerate() {
            let r = NodeRef::terminal(ix);
            match self.terminal_lookup_for_audit(term) {
                Some(mapped) if mapped == r => {}
                Some(mapped) => report.push(
                    AuditCheck::TerminalDedup,
                    Some(r),
                    format!("duplicate terminal {term}: mapped to {mapped:?} but stored at {r:?}"),
                ),
                None => report.push(
                    AuditCheck::TerminalDedup,
                    Some(r),
                    format!("terminal {term} missing from terminal table"),
                ),
            }
        }
    }

    fn audit_reachable(&self, roots: &[NodeRef], report: &mut AuditReport) {
        let mut seen = std::collections::HashSet::new();
        let mut stack: Vec<NodeRef> = roots.to_vec();
        while let Some(r) = stack.pop() {
            if !seen.insert(r) {
                continue;
            }
            if r.is_terminal() {
                if !self.audit_terminal_index_ok(r) {
                    report.push(
                        AuditCheck::TerminalDedup,
                        Some(r),
                        format!(
                            "dangling terminal reference (index {} of {})",
                            r.index(),
                            self.raw_terms().len()
                        ),
                    );
                }
                continue;
            }
            if !self.audit_node_index_ok(r) {
                report.push(
                    AuditCheck::UniqueTable,
                    Some(r),
                    format!(
                        "dangling node reference (index {} of {})",
                        r.index(),
                        self.raw_nodes().len()
                    ),
                );
                continue;
            }
            report.nodes_checked += 1;
            let n = self.node_at(r);
            if n.var >= self.num_vars() {
                report.push(
                    AuditCheck::VariableOrder,
                    Some(r),
                    format!(
                        "tests unallocated variable {} (num_vars {})",
                        n.var,
                        self.num_vars()
                    ),
                );
            }
            if n.lo == n.hi {
                report.push(
                    AuditCheck::Canonicity,
                    Some(r),
                    format!("redundant test on var {}: lo == hi == {:?}", n.var, n.lo),
                );
            }
            for child in [n.lo, n.hi] {
                if !child.is_terminal() && self.audit_node_index_ok(child) {
                    let cv = self.node_at(child).var;
                    if cv <= n.var {
                        report.push(
                            AuditCheck::VariableOrder,
                            Some(r),
                            format!(
                                "edge to {child:?} does not increase the level: var {} -> var {cv}",
                                n.var
                            ),
                        );
                    }
                }
                stack.push(child);
            }
        }
    }

    /// Re-evaluates a deterministic sample of apply/apply1 cache entries
    /// under a handful of assignments, comparing the cached diagram
    /// against pointwise recombination of the operands.
    fn audit_cache_sample(&self, report: &mut AuditReport) {
        let resident = |tag| self.computed.stats(tag).resident;
        let step = (resident(Tag::Apply) / FULL_AUDIT_CACHE_SAMPLES).max(1);
        for (i, (w0, w1, raw)) in self.computed.iter(Tag::Apply).enumerate() {
            if i % step != 0 || report.cache_entries_checked >= FULL_AUDIT_CACHE_SAMPLES {
                break;
            }
            report.cache_entries_checked += 1;
            let (op, f, g) = crate::manager::unpack_apply_key(w0, w1);
            self.audit_check_apply_entry(op, f, g, NodeRef(raw), i as u64, report);
        }
        let step1 = (resident(Tag::Apply1) / FULL_AUDIT_CACHE_SAMPLES).max(1);
        let mut checked1 = 0usize;
        for (i, (w0, w1, raw)) in self.computed.iter(Tag::Apply1).enumerate() {
            if i % step1 != 0 || checked1 >= FULL_AUDIT_CACHE_SAMPLES {
                break;
            }
            checked1 += 1;
            let (op, f) = crate::manager::unpack_apply1_key(w0, w1);
            let r = NodeRef(raw);
            for assign in sample_assignments(i as u64, self.num_vars()) {
                let fa = self.eval(f, &assign);
                let ra = self.eval(r, &assign);
                let want = op.combine(&fa);
                if ra != want {
                    report.push(
                        AuditCheck::ApplyCache,
                        Some(r),
                        format!(
                            "apply1 cache entry ({op:?}, {f:?}) -> {r:?} evaluates to {ra}, expected {want}"
                        ),
                    );
                    break;
                }
            }
        }
        report.cache_entries_checked += checked1;
    }

    fn audit_check_apply_entry(
        &self,
        op: Op,
        f: NodeRef,
        g: NodeRef,
        r: NodeRef,
        salt: u64,
        report: &mut AuditReport,
    ) {
        for assign in sample_assignments(salt, self.num_vars()) {
            let fa = self.eval(f, &assign);
            let ga = self.eval(g, &assign);
            let ra = self.eval(r, &assign);
            let want = op.combine(&fa, &ga);
            if ra != want {
                report.push(
                    AuditCheck::ApplyCache,
                    Some(r),
                    format!(
                        "apply cache entry ({op:?}, {f:?}, {g:?}) -> {r:?} evaluates to {ra} \
                         under a sampled assignment, expected {fa} {op:?} {ga} = {want}"
                    ),
                );
                return;
            }
        }
    }

    /// Sampled apply-result validation, called from `apply` on cache hits
    /// and inserts when auditing is enabled. Every [`APPLY_SAMPLE_PERIOD`]th
    /// operation re-evaluates the entry it just touched; a mismatch there
    /// means the memo table is poisoned (e.g. a handle survived GC) and
    /// panics immediately.
    pub(crate) fn audit_apply_tick(&mut self, op: Op, f: NodeRef, g: NodeRef, r: NodeRef) {
        let ops = self.audit_ops_bump();
        if !ops.is_multiple_of(APPLY_SAMPLE_PERIOD) {
            return;
        }
        let mut report = AuditReport::default();
        self.audit_check_apply_entry(op, f, g, r, ops, &mut report);
        report.assert_ok("sampled apply-cache validation");
    }
}

/// A few deterministic assignments: all-alive, all-failed, and two
/// pseudo-random ones derived from `salt`.
fn sample_assignments(salt: u64, num_vars: u32) -> Vec<impl Fn(u32) -> bool> {
    fn mix(mut z: u64) -> u64 {
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    let _ = num_vars;
    let seeds = [
        u64::MAX,
        0,
        mix(salt.wrapping_add(1)),
        mix(salt.wrapping_add(2)),
    ];
    seeds
        .into_iter()
        .map(|word| move |v: u32| word >> (v % 64) & 1 == 1)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Ratio, Term};

    #[test]
    fn clean_manager_audits_clean() {
        let mut m = Mtbdd::new();
        let (x1, x2, x3) = (m.fresh_var(), m.fresh_var(), m.fresh_var());
        let g1 = m.var_guard(x1);
        let g2 = m.var_guard(x2);
        let g3 = m.nvar_guard(x3);
        let a = m.add(g1, g2);
        let b = m.mul(a, g3);
        let c = m.kreduce(b, 1);
        let report = m.audit(&[a, b, c]);
        assert!(
            report.ok(),
            "unexpected violations: {:?}",
            report.violations
        );
        assert!(report.nodes_checked > 0);
    }

    #[test]
    fn guard_audit_flags_non_boolean_terminals() {
        let mut m = Mtbdd::new();
        let x1 = m.fresh_var();
        let g = m.var_guard(x1);
        let five = m.constant(Ratio::new(5, 1));
        let f = m.mul(g, five); // 0 or 5: not a guard
        assert!(m.audit_guard(g).ok());
        let report = m.audit_guard(f);
        assert!(!report.ok());
        assert!(report
            .violations
            .iter()
            .all(|v| v.check == AuditCheck::GuardBoolean));
    }

    #[test]
    fn kreduce_audit_accepts_reduced_and_flags_unreduced() {
        let mut m = Mtbdd::new();
        let (x1, x2) = (m.fresh_var(), m.fresh_var());
        let ng1 = m.nvar_guard(x1);
        let ng2 = m.nvar_guard(x2);
        let both_failed = m.mul(ng1, ng2); // needs 2 lo edges
        let reduced = m.kreduce(both_failed, 1);
        assert!(m.audit_kreduced(reduced, 1).ok());
        let report = m.audit_kreduced(both_failed, 1);
        assert!(report
            .violations
            .iter()
            .any(|v| v.check == AuditCheck::KreducePostcondition));
    }

    #[test]
    fn audit_survives_gc() {
        let mut m = Mtbdd::new();
        let (x1, x2) = (m.fresh_var(), m.fresh_var());
        let g1 = m.var_guard(x1);
        let g2 = m.var_guard(x2);
        let f = m.add(g1, g2);
        for i in 0..20 {
            let s = m.scale(g2, Term::int(i));
            let _ = m.add(s, g1); // garbage
        }
        let remap = m.collect(&[f]);
        let f = remap.get(f);
        let report = m.audit(&[f]);
        assert!(
            report.ok(),
            "unexpected violations: {:?}",
            report.violations
        );
    }

    #[test]
    fn audit_checks_apply_cache_entries() {
        let mut m = Mtbdd::new();
        let vars: Vec<_> = (0..6).map(|_| m.fresh_var()).collect();
        let mut f = m.zero();
        for (i, &v) in vars.iter().enumerate() {
            let g = m.var_guard(v);
            let s = m.scale(g, Term::int(i as i64 + 1));
            f = m.add(f, s);
        }
        let report = m.audit(&[f]);
        assert!(report.ok());
        assert!(report.cache_entries_checked > 0);
    }

    #[test]
    fn report_formats_violations() {
        let v = AuditViolation {
            check: AuditCheck::Canonicity,
            node: Some(NodeRef(3)),
            message: "broken".into(),
        };
        let text = v.to_string();
        assert!(text.contains("canonicity") && text.contains("broken"));
    }
}
