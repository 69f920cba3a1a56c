//! Path and terminal enumeration: the machinery behind Theorem 5.1's
//! verification step ("checking the values of all terminal nodes") and
//! counterexample extraction.

use crate::manager::{pack_range_key, Mtbdd};
use crate::node::{NodeRef, Var};
use crate::terminal::Term;

/// A partial assignment along one root-to-terminal path. Variables not
/// mentioned are don't-cares (for failure scenarios: assumed alive).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Path {
    /// `(variable, value)` pairs in root-to-leaf order.
    pub assignment: Vec<(Var, bool)>,
    /// The terminal value reached.
    pub value: Term,
}

impl Path {
    /// The failed elements along this path (variables assigned `false`).
    pub fn failed_vars(&self) -> Vec<Var> {
        self.assignment
            .iter()
            .filter(|(_, alive)| !alive)
            .map(|(v, _)| *v)
            .collect()
    }
}

impl Mtbdd {
    /// All distinct terminal values reachable from `f`, ascending (an
    /// unmemoised walk: the reference [`Mtbdd::terminal_range`] is tested
    /// against).
    pub fn terminals(&self, f: NodeRef) -> Vec<Term> {
        let mut seen = std::collections::HashSet::new();
        let mut out = std::collections::BTreeSet::new();
        let mut stack = vec![f];
        while let Some(r) = stack.pop() {
            if !seen.insert(r) {
                continue;
            }
            if r.is_terminal() {
                out.insert(self.terminal_value(r));
            } else {
                let n = self.node_at(r);
                stack.push(n.lo);
                stack.push(n.hi);
            }
        }
        out.into_iter().collect()
    }

    /// The smallest and largest terminal reachable from `f`, as terminal
    /// handles `(min, max)` (read them with [`Mtbdd::terminal_ref`]).
    ///
    /// Memoised per inner node in the computed table, one entry for each
    /// end, so ranging many diagrams that share sub-diagrams walks each
    /// node once while its entries stay resident (an evicted node is
    /// re-walked down to the first resident entries below it). The key
    /// is the node alone: which terminals sit below a node
    /// does not depend on a failure budget. For a `βₖ`-reduced diagram
    /// every path takes at most `k` failed edges (Lemma 2), so both ends
    /// of the range are values the function takes in some `≤ k`-failure
    /// scenario.
    pub fn terminal_range(&mut self, f: NodeRef) -> (NodeRef, NodeRef) {
        if f.is_terminal() {
            return (f, f);
        }
        let (min_key, max_key) = (pack_range_key(f, false), pack_range_key(f, true));
        if let Some((min, max)) = self.computed.get_pair(min_key, max_key) {
            return (NodeRef(min), NodeRef(max));
        }
        let n = self.node_at(f);
        let (lo_min, lo_max) = self.terminal_range(n.lo);
        let (hi_min, hi_max) = self.terminal_range(n.hi);
        let min = if self.terminal_ref(lo_min) <= self.terminal_ref(hi_min) {
            lo_min
        } else {
            hi_min
        };
        let max = if self.terminal_ref(lo_max) >= self.terminal_ref(hi_max) {
            lo_max
        } else {
            hi_max
        };
        self.computed.insert(min_key.0, min_key.1, min.0);
        self.computed.insert(max_key.0, max_key.1, max.0);
        (min, max)
    }

    /// Depth-first search for a path to a terminal satisfying `pred`,
    /// preferring paths with few failures (hi edges first), which yields
    /// minimal-looking counterexamples.
    pub fn find_path(&self, f: NodeRef, pred: impl Fn(Term) -> bool) -> Option<Path> {
        // Pre-compute which nodes can reach a satisfying terminal.
        let mut can_reach = std::collections::HashMap::new();
        fn mark(
            m: &Mtbdd,
            f: NodeRef,
            pred: &impl Fn(Term) -> bool,
            memo: &mut std::collections::HashMap<NodeRef, bool>,
        ) -> bool {
            if let Some(&v) = memo.get(&f) {
                return v;
            }
            let v = if f.is_terminal() {
                pred(m.terminal_value(f))
            } else {
                let n = m.node_at(f);
                // Evaluate both branches (no short-circuit) so the memo is
                // complete for the descent below.
                let hi = mark(m, n.hi, pred, memo);
                let lo = mark(m, n.lo, pred, memo);
                hi || lo
            };
            memo.insert(f, v);
            v
        }
        if !mark(self, f, &pred, &mut can_reach) {
            return None;
        }
        let mut assignment = Vec::new();
        let mut cur = f;
        while !cur.is_terminal() {
            let n = self.node_at(cur);
            if can_reach[&n.hi] {
                assignment.push((n.var, true));
                cur = n.hi;
            } else {
                assignment.push((n.var, false));
                cur = n.lo;
            }
        }
        Some(Path {
            assignment,
            value: self.terminal_value(cur),
        })
    }

    /// All root-to-terminal paths of `f` (exponential in the worst case;
    /// intended for tests and small diagrams).
    pub fn all_paths(&self, f: NodeRef) -> Vec<Path> {
        let mut out = Vec::new();
        let mut prefix = Vec::new();
        self.walk_paths(f, &mut prefix, &mut out);
        out
    }

    /// Counts the complete assignments over variables `0..num_vars` with
    /// at most `budget` variables set to 0 (failed) that reach a terminal
    /// satisfying `pred` — i.e. the number of distinct `≤ budget`-failure
    /// scenarios on which the diagram takes a matching value. Variables a
    /// path skips (don't-cares) are expanded combinatorially, not counted
    /// as single paths, so the result is a scenario count, not a path
    /// count. Saturates at `u128::MAX`.
    pub fn count_scenarios(
        &self,
        f: NodeRef,
        num_vars: Var,
        budget: u32,
        pred: impl Fn(Term) -> bool,
    ) -> u128 {
        let mut memo: std::collections::HashMap<(NodeRef, u32), u128> =
            std::collections::HashMap::new();
        self.count_from(f, 0, num_vars, budget, &pred, &mut memo)
    }

    /// Scenario count from `level` with `budget` failures remaining;
    /// memoized per `(node, budget)` (the free-variable prefix between
    /// `level` and the node's own variable is handled combinatorially
    /// before the memo lookup, so the memo key needs no level).
    fn count_from(
        &self,
        f: NodeRef,
        level: Var,
        num_vars: Var,
        budget: u32,
        pred: &impl Fn(Term) -> bool,
        memo: &mut std::collections::HashMap<(NodeRef, u32), u128>,
    ) -> u128 {
        if f.is_terminal() {
            if !pred(self.terminal_value(f)) {
                return 0;
            }
            return scenarios_over_free(num_vars.saturating_sub(level), budget);
        }
        let n = self.node_at(f);
        debug_assert!(n.var >= level && n.var < num_vars);
        // Free variables between `level` and the node: choose j of them
        // to fail, spending j of the budget before entering the node.
        let gap = n.var - level;
        let mut total: u128 = 0;
        for j in 0..=gap.min(budget) {
            let ways = binomial(gap, j);
            if ways == 0 {
                continue;
            }
            let rest = budget - j;
            let at_node = if let Some(&v) = memo.get(&(f, rest)) {
                v
            } else {
                let hi = self.count_from(n.hi, n.var + 1, num_vars, rest, pred, memo);
                let lo = if rest > 0 {
                    self.count_from(n.lo, n.var + 1, num_vars, rest - 1, pred, memo)
                } else {
                    0
                };
                let v = hi.saturating_add(lo);
                memo.insert((f, rest), v);
                v
            };
            total = total.saturating_add(ways.saturating_mul(at_node));
        }
        total
    }

    fn walk_paths(&self, f: NodeRef, prefix: &mut Vec<(Var, bool)>, out: &mut Vec<Path>) {
        if f.is_terminal() {
            out.push(Path {
                assignment: prefix.clone(),
                value: self.terminal_value(f),
            });
            return;
        }
        let n = self.node_at(f);
        prefix.push((n.var, false));
        self.walk_paths(n.lo, prefix, out);
        prefix.pop();
        prefix.push((n.var, true));
        self.walk_paths(n.hi, prefix, out);
        prefix.pop();
    }
}

/// The number of `≤ budget`-failure assignments of `free` unconstrained
/// variables: `Σ_{j≤budget} C(free, j)`, saturating.
fn scenarios_over_free(free: Var, budget: u32) -> u128 {
    let mut total: u128 = 0;
    for j in 0..=budget.min(free) {
        total = total.saturating_add(binomial(free, j));
    }
    total
}

/// Binomial coefficient `C(n, k)`, saturating at `u128::MAX`.
fn binomial(n: u32, k: u32) -> u128 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut c: u128 = 1;
    for i in 0..k {
        c = match c.checked_mul((n - i) as u128) {
            Some(v) => v / (i + 1) as u128,
            None => return u128::MAX,
        };
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Ratio;

    #[test]
    fn terminals_and_range() {
        let mut m = Mtbdd::new();
        let (x1, x2) = (m.fresh_var(), m.fresh_var());
        let g1 = m.var_guard(x1);
        let g2 = m.var_guard(x2);
        let s40 = m.scale(g1, Term::int(40));
        let s60 = m.scale(g2, Term::int(60));
        let f = m.add(s40, s60);
        assert_eq!(
            m.terminals(f),
            vec![Term::int(0), Term::int(40), Term::int(60), Term::int(100)]
        );
        let (min, max) = m.terminal_range(f);
        assert_eq!(
            (m.terminal_ref(min), m.terminal_ref(max)),
            (&Term::int(0), &Term::int(100))
        );
    }

    #[test]
    fn find_path_prefers_fewer_failures() {
        let mut m = Mtbdd::new();
        let (x1, x2) = (m.fresh_var(), m.fresh_var());
        // load = 100 when x1 failed, else 50 + 50*x2
        let g1 = m.var_guard(x1);
        let g2 = m.var_guard(x2);
        let t100 = m.constant(Ratio::int(100));
        let s50 = m.scale(g2, Term::int(50));
        let fifty = m.constant(Ratio::int(50));
        let alive_val = m.add(fifty, s50);
        let f = m.ite(g1, alive_val, t100);
        // Looking for >= 95: reachable both via x1 failure (100) and via
        // all-alive (100). The all-alive path must be preferred.
        let p = m.find_path(f, |t| t >= Term::int(95)).unwrap();
        assert!(p.failed_vars().is_empty(), "expected no failures: {p:?}");
        assert_eq!(p.value, Term::int(100));
        // Looking for < 60 requires x2 failed.
        let p = m.find_path(f, |t| t < Term::int(60)).unwrap();
        assert_eq!(p.failed_vars(), vec![x2]);
        // Nothing below 0.
        assert!(m.find_path(f, |t| t < Term::ZERO).is_none());
    }

    #[test]
    fn count_scenarios_matches_brute_force() {
        let mut m = Mtbdd::new();
        let vars: Vec<_> = (0..4).map(|_| m.fresh_var()).collect();
        // load = 50 + 30·(x1 failed) + 30·(x3 failed)
        let n1 = m.nvar_guard(vars[1]);
        let n3 = m.nvar_guard(vars[3]);
        let e1 = m.scale(n1, Term::int(30));
        let e3 = m.scale(n3, Term::int(30));
        let base = m.constant(Ratio::int(50));
        let t = m.add(base, e1);
        let f = m.add(t, e3);
        for budget in 0..=4u32 {
            // Brute force over all 2^4 assignments within the budget.
            let mut want = 0u128;
            for bits in 0..16u32 {
                let failed = (0..4).filter(|i| bits & (1 << i) != 0).count() as u32;
                if failed > budget {
                    continue;
                }
                let val = m.eval(f, |v| bits & (1 << v) == 0);
                if val > Term::int(60) {
                    want += 1;
                }
            }
            let got = m.count_scenarios(f, 4, budget, |t| t > Term::int(60));
            assert_eq!(got, want, "budget {budget}");
        }
        // A terminal-only diagram counts every scenario in budget.
        let c = m.constant(Ratio::int(99));
        assert_eq!(m.count_scenarios(c, 4, 1, |t| t > Term::ZERO), 5); // C(4,0)+C(4,1)
        assert_eq!(m.count_scenarios(c, 4, 1, |t| t > Term::int(100)), 0);
    }

    #[test]
    fn all_paths_cover_the_function() {
        let mut m = Mtbdd::new();
        let (x1, x2) = (m.fresh_var(), m.fresh_var());
        let g1 = m.var_guard(x1);
        let g2 = m.var_guard(x2);
        let f = m.add(g1, g2);
        let paths = m.all_paths(f);
        // Each path's assignment must evaluate to its recorded value.
        for p in &paths {
            let val = m.eval(f, |v| {
                p.assignment
                    .iter()
                    .find(|(pv, _)| *pv == v)
                    .map(|(_, b)| *b)
                    .unwrap_or(true)
            });
            assert_eq!(val, p.value);
        }
        assert!(paths.len() >= 3);
    }
}
