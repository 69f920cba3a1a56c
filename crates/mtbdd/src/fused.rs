//! Fused `⊕∘KREDUCE`: applying the Definition 5.2 failure budget
//! *during* the apply, so the un-reduced result is never materialized.
//!
//! Aggregating a link's load sums many per-flow STFs; the paper's Fig. 18
//! shows that the transient of a single un-reduced `F + G` can blow up
//! combinatorially even though its reduction `βₖ(F + G)` is tiny. The
//! classic pipeline (`apply(op)` then `kreduce`) pays for that transient
//! in full — every node of the result is hash-consed before the reduction
//! throws most of them away. [`Mtbdd::apply_kreduce`] fuses the two
//! recursions into one, memoized on `(op, f, g, k)`:
//!
//! * with no budget left (`k = 0`) only the all-alive branch matters, so
//!   the result is the terminal `f(1…1) ⊕ g(1…1)` — no product structure
//!   is ever built. Every node carries its all-alive terminal, so the
//!   collapse first replaces the operands by that terminal pair and then
//!   shares one memo entry, under `k = 0`, with every other operand pair
//!   that collapses to it; the n-ary kernel goes further and carries
//!   `β₀(Σ operands)` down its recursion (see [`Mtbdd::sum_kreduce`]);
//! * at a decision node over `x = min(top(f), top(g))`, the Definition
//!   5.2 recursion applies directly to the (virtual) result: if
//!   `β_{k-1}(f|x=1 ⊕ g|x=1) = β_{k-1}(f|x=0 ⊕ g|x=0)` the variable test
//!   is dropped, otherwise the failed branch spends one budget unit.
//!
//! By induction on the operand pair, the fused result is **node-for-node
//! identical** to `kreduce(apply(op, f, g), k)` — both are canonical
//! diagrams of the same function in the same arena — which the proptest
//! suite asserts on random diagrams. Only the transient footprint
//! changes: the fused recursion materializes reduced sub-results only,
//! so the arena never holds the Fig. 18 blow-up.
//!
//! The kernel fuses **every** [`Op`]. Nothing in the argument above looks
//! at what `⊕` computes: the virtual node's cofactors are
//! `f|x=b ⊕ g|x=b` for any pointwise operator, so ≈ₖ (agreement on all
//! scenarios with at most `k` failures) is a congruence under all ten —
//! `Sub`, `Div` (with its `0/0 = 0` convention), `Or`, `And` and the
//! `EqGuard`/`LtGuard` comparisons as much as `Add`/`Mul`/`Min`/`Max`.
//! Route simulation and traffic execution therefore run all their binary
//! steps through it (aggregation's `Add` and the volume-scaling `Mul` of
//! [`Mtbdd::scale_kreduce`] were the first users). Operand pairs are
//! canonically ordered before the cache lookup only when the operator
//! commutes, like the plain apply cache; `Sub`/`Div`/`LtGuard` keep
//! their operand order in the key and down the recursion.

use crate::manager::{Mtbdd, Op};
use crate::node::NodeRef;
use crate::terminal::Term;

/// Operand-list cap for the n-ary fused recursion: a longer list is cut
/// into balanced chunks of at most this many operands, and the chunk
/// results are summed by the same recursion (see [`Mtbdd::sum_kreduce`]).
/// Bounds the per-level cofactor arrays and the memo's operand runs,
/// whose per-call work is linear in the list. The tree is invisible in
/// the result because `KREDUCE` is canonicalizing. 16 materialized the
/// fewest headline nodes of the sizes measured (DESIGN.md §16.3).
const MAX_SUM_ARITY: usize = 16;

/// A stack-allocated operand list for the n-ary recursion: sorted,
/// zero-free, at most [`MAX_SUM_ARITY`] entries. `Copy` — passing one
/// down the recursion costs a memcpy of 64 bytes, not a heap clone.
#[derive(Clone, Copy)]
struct SumOps {
    arr: [NodeRef; MAX_SUM_ARITY],
    len: usize,
}

impl SumOps {
    fn new() -> Self {
        Self {
            arr: [NodeRef(0); MAX_SUM_ARITY],
            len: 0,
        }
    }

    /// Appends a non-zero operand (zeros are the additive identity and
    /// must be filtered by the caller).
    fn push(&mut self, r: NodeRef) {
        self.arr[self.len] = r;
        self.len += 1;
    }

    fn ops(&self) -> &[NodeRef] {
        &self.arr[..self.len]
    }

    fn sort(&mut self) {
        self.arr[..self.len].sort_unstable();
    }
}

impl Mtbdd {
    /// Fused `βₖ(f ⊕ g)` for any [`Op`], under the optional budget the
    /// routing and execution layers carry: `Some(k)` is node-for-node
    /// identical to `self.kreduce(self.apply(op, f, g), k)` without ever
    /// materializing `f ⊕ g`; `None` is the plain, exact
    /// [`Mtbdd::apply`] (the Fig. 15/16 ablation). Budgets beyond
    /// [`Mtbdd::num_vars`] act as `num_vars` (see [`Mtbdd::kreduce`]).
    pub fn apply_kreduce(&mut self, op: Op, f: NodeRef, g: NodeRef, k: Option<u32>) -> NodeRef {
        let Some(k) = k else {
            return self.apply(op, f, g);
        };
        let k = self.clamp_budget(k);
        let r = self.fused_rec(op, f, g, k);
        if self.audit_on() {
            self.audit_fused(r, k, &format!("apply_kreduce({op:?})"));
        }
        r
    }

    /// Fused `βₖ(f + g)`: [`Mtbdd::apply_kreduce`] on `Op::Add` with the
    /// budget always on (load aggregation).
    pub fn add_kreduce(&mut self, f: NodeRef, g: NodeRef, k: u32) -> NodeRef {
        self.apply_kreduce(Op::Add, f, g, Some(k))
    }

    /// Fused `βₖ(f · c)` for a constant factor `c` (the volume-scaling
    /// step of load aggregation). Node-for-node identical to
    /// `self.kreduce(self.scale(f, c), k)`.
    pub fn scale_kreduce(&mut self, f: NodeRef, c: Term, k: u32) -> NodeRef {
        let c = self.term(c);
        self.apply_kreduce(Op::Mul, f, c, Some(k))
    }

    /// N-ary fused `βₖ(Σ items)`: applies the failure budget once across
    /// the whole aggregation, never materializing any reduced *partial*
    /// sum — the next win beyond [`Mtbdd::add_kreduce`], whose left fold
    /// still hash-conses `βₖ(f₁+f₂)`, `βₖ(f₁+f₂+f₃)`, … as real nodes.
    ///
    /// Node-for-node identical to folding `add_kreduce` over `items`
    /// (asserted by proptest): every partial fold equals `βₖ` of the
    /// partial exact sum because ≈ₖ is a congruence under pointwise `+`
    /// and `KREDUCE` is canonicalizing, so both pipelines end at
    /// `βₖ(Σ items)` — the unique canonical diagram in this arena.
    ///
    /// Memoized on the sorted operand list and `k` in the computed table,
    /// which keeps the list as an operand run in a side arena and
    /// compares it element by element, so a hit is never a hash match
    /// alone. Operand lists longer than [`MAX_SUM_ARITY`] are summed
    /// through a shallow n-ary tree of chunk sums;
    /// `βₖ(Σᵢ βₖ(Σ chunkᵢ)) = βₖ(Σ)` by the same congruence argument, so
    /// the tree is invisible in the result.
    pub fn sum_kreduce(&mut self, items: &[NodeRef], k: u32) -> NodeRef {
        let k = self.clamp_budget(k);
        // Zeros are additive identity: dropping them leaves the exact
        // sum — and therefore its reduction — unchanged.
        let zero = self.zero();
        let ops: Vec<NodeRef> = items.iter().copied().filter(|&f| f != zero).collect();
        let r = self.sum_kreduce_split(ops, k);
        if self.audit_on() {
            self.audit_fused(r, k, "sum_kreduce");
        }
        r
    }

    /// Shallow n-ary tree over a zero-free operand list. A list of at
    /// most [`MAX_SUM_ARITY`] operands drops into the stack-array
    /// recursion. A longer one is sorted by `(top variable, handle)`,
    /// terminals first, and cut into `⌈n / MAX_SUM_ARITY⌉` balanced
    /// chunks, so operands that test the same variables share a chunk.
    /// Each chunk is summed by the n-ary recursion, and the chunk results
    /// are summed the same way, one more level while more than
    /// [`MAX_SUM_ARITY`] remain. Besides the result, only each level's
    /// chunk sums are materialized, never a pairwise partial sum of them.
    fn sum_kreduce_split(&mut self, mut ops: Vec<NodeRef>, k: u32) -> NodeRef {
        if ops.len() <= MAX_SUM_ARITY {
            return self.sum_kreduce_leaf(&mut ops, k);
        }
        ops.sort_by_key(|&f| (self.top_var(f), f));
        let chunks = ops.len().div_ceil(MAX_SUM_ARITY);
        let (base, extra) = (ops.len() / chunks, ops.len() % chunks);
        let zero = self.zero();
        let mut sums = Vec::with_capacity(chunks);
        let mut rest = &mut ops[..];
        for i in 0..chunks {
            let (chunk, tail) = rest.split_at_mut(base + usize::from(i < extra));
            let r = self.sum_kreduce_leaf(chunk, k);
            if r != zero {
                sums.push(r);
            }
            rest = tail;
        }
        self.sum_kreduce_split(sums, k)
    }

    /// One call of the stack-array recursion on at most
    /// [`MAX_SUM_ARITY`] zero-free operands, sorted here by handle (the
    /// memo key's order).
    fn sum_kreduce_leaf(&mut self, ops: &mut [NodeRef], k: u32) -> NodeRef {
        ops.sort_unstable();
        let mut so = SumOps::new();
        for &f in &*ops {
            so.push(f);
        }
        let b0 = self.alive_sum(ops);
        self.sum_kreduce_rec(so, &b0, k)
    }

    /// `β₀(Σ ops)` by direct summation of the operands' all-alive
    /// terminals: the seed of the carried value, and its fallback.
    fn alive_sum(&self, ops: &[NodeRef]) -> Term {
        ops.iter().fold(Term::ZERO, |acc, &f| {
            acc.add_ref(self.terminal_ref(self.all_alive_ref(f)))
        })
    }

    /// Recursion over a pre-sorted, zero-free, stack-allocated operand
    /// list. A cache probe or a recursive call allocates nothing; a miss
    /// copies the list into the computed table's run arena.
    ///
    /// `b0` is `β₀(Σ ops)`, carried down instead of re-summed at every
    /// leaf: the alive branch keeps every operand's hi-spine and so
    /// inherits it unchanged, the failed branch moves it by
    /// `alive(lo) − alive(f)` over just the operands that test the
    /// variable.
    fn sum_kreduce_rec(&mut self, ops: SumOps, b0: &Term, k: u32) -> NodeRef {
        match ops.len {
            0 => return self.zero(),
            1 => return self.kreduce_rec(ops.arr[0], k),
            _ => {}
        }
        // β₀ and the all-terminal case collapse to one terminal without
        // building any structure.
        if k == 0 || ops.ops().iter().all(|f| f.is_terminal()) {
            return self.term(b0.clone());
        }
        if ops.len == 2 {
            return self.fused_rec(Op::Add, ops.arr[0], ops.arr[1], k);
        }
        if let Some(raw) = self.computed.get_run(ops.ops(), k) {
            return NodeRef(raw);
        }
        let var = ops
            .ops()
            .iter()
            .filter_map(|&f| self.top_var(f))
            .min()
            .expect("non-terminal operand exists");
        // Cofactor lists, dropping zero cofactors as they appear (the
        // additive identity contributes nothing to either branch, and
        // zero-free lists canonicalize the memo key and shrink the
        // sub-recursions).
        let zero = self.zero();
        let mut los = SumOps::new();
        let mut his = SumOps::new();
        // A `+∞` total hides the finite part the delta would have to
        // update; the failed branch then re-sums its own operands.
        let carried = b0.is_finite();
        let mut lo_b0 = b0.clone();
        for &f in ops.ops() {
            let (lo, hi) = if self.top_var(f) == Some(var) {
                let n = self.node_at(f);
                let lo_alive = self.all_alive_ref(n.lo);
                if carried && lo_alive != n.alive {
                    lo_b0 = lo_b0
                        .add_ref(self.terminal_ref(lo_alive))
                        .sub_ref(self.terminal_ref(n.alive));
                }
                (n.lo, n.hi)
            } else {
                (f, f)
            };
            if lo != zero {
                los.push(lo);
            }
            if hi != zero {
                his.push(hi);
            }
        }
        los.sort();
        his.sort();
        if !carried {
            lo_b0 = self.alive_sum(los.ops());
        }
        // Definition 5.2 on the virtual node (var, Σ los, Σ his).
        let hi_km1 = self.sum_kreduce_rec(his, b0, k - 1);
        let lo_km1 = self.sum_kreduce_rec(los, &lo_b0, k - 1);
        let r = if hi_km1 == lo_km1 {
            self.sum_kreduce_rec(his, b0, k)
        } else {
            let hi_k = self.sum_kreduce_rec(his, b0, k);
            self.node(var, lo_km1, hi_k)
        };
        self.computed.insert_run(ops.ops(), k, r.0);
        r
    }

    /// Lemma 2 postcondition of every fused public entry point, active
    /// under `YU_AUDIT=1` / debug builds (mirrors `kreduce`'s hook).
    fn audit_fused(&self, r: NodeRef, k: u32, what: &str) {
        let mpf = self.max_path_failures(r);
        assert!(
            mpf <= k,
            "fused kernel postcondition violated (Lemma 2): \
             max_path_failures({what} result) = {mpf} > k = {k}"
        );
    }

    fn fused_rec(&mut self, op: Op, f: NodeRef, g: NodeRef, k: u32) -> NodeRef {
        // Apply's terminal shortcuts return a node equal to the exact
        // (un-reduced) result, so reducing it finishes the job without
        // touching the computed table.
        if let Some(r) = self.shortcut(op, f, g) {
            return self.kreduce_rec(r, k);
        }
        // Budget exhausted: the whole (virtual) result collapses to its
        // all-alive terminal (`β₀`), covering the both-terminal case too.
        // The collapse depends on the operands' all-alive terminals only,
        // so it is memoized on that pair, under `k = 0`.
        let collapse = k == 0 || (f.is_terminal() && g.is_terminal());
        let (f, g, k) = if collapse {
            let (f, g) = (self.all_alive_ref(f), self.all_alive_ref(g));
            if let Some(r) = self.shortcut(op, f, g) {
                return r;
            }
            (f, g, 0)
        } else {
            (f, g, k)
        };
        let (f, g) = if op.commutative() && g < f {
            (g, f)
        } else {
            (f, g)
        };
        let (w0, w1) = crate::manager::pack_fused_key(op, f, g, k);
        if let Some(raw) = self.computed.get(w0, w1) {
            return NodeRef(raw);
        }
        let r = if collapse {
            let t = op.combine(self.terminal_ref(f), self.terminal_ref(g));
            self.term(t)
        } else {
            let vf = self.top_var(f).unwrap_or(u32::MAX);
            let vg = self.top_var(g).unwrap_or(u32::MAX);
            let var = vf.min(vg);
            let (f0, f1) = if vf == var { self.cofactors(f) } else { (f, f) };
            let (g0, g1) = if vg == var { self.cofactors(g) } else { (g, g) };
            // Definition 5.2 on the virtual node (var, f0⊕g0, f1⊕g1).
            let hi_km1 = self.fused_rec(op, f1, g1, k - 1);
            let lo_km1 = self.fused_rec(op, f0, g0, k - 1);
            if hi_km1 == lo_km1 {
                self.fused_rec(op, f1, g1, k)
            } else {
                let hi_k = self.fused_rec(op, f1, g1, k);
                self.node(var, lo_km1, hi_k)
            }
        };
        self.computed.insert(w0, w1, r.0);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Ratio;

    fn setup(n: u32) -> Mtbdd {
        let mut m = Mtbdd::new();
        m.fresh_vars(n);
        m
    }

    /// A small Fig. 18-shaped family: flow i contributes volume
    /// `1/(i+1)` along a 2-link path guard, rerouting onto a backup pair
    /// when its first link fails.
    fn flow_stf(m: &mut Mtbdd, i: usize, nvars: u32) -> NodeRef {
        let p0 = (2 * i) as u32 % nvars;
        let p1 = (2 * i + 1) as u32 % nvars;
        let b0 = (2 * i + 3) as u32 % nvars;
        let g0 = m.var_guard(p0);
        let g1 = m.var_guard(p1);
        let primary = m.mul(g0, g1);
        let n0 = m.nvar_guard(p0);
        let gb = m.var_guard(b0);
        let backup = m.mul(n0, gb);
        let path = m.add(primary, backup);
        m.scale(path, Term::Num(Ratio::new(1, i as i128 + 1)))
    }

    #[test]
    fn fused_equals_unfused_node_for_node() {
        let mut m = setup(10);
        for k in 0..=3u32 {
            for i in 0..6 {
                let f = flow_stf(&mut m, i, 10);
                let g = flow_stf(&mut m, i + 3, 10);
                let fused = m.add_kreduce(f, g, k);
                let sum = m.add(f, g);
                let unfused = m.kreduce(sum, k);
                assert_eq!(fused, unfused, "i={i} k={k}");
            }
        }
    }

    #[test]
    fn scale_variant_equals_unfused() {
        let mut m = setup(8);
        for k in 0..=2u32 {
            for i in 0..5 {
                let f = flow_stf(&mut m, i, 8);
                let c = Term::Num(Ratio::new(3, i as i128 + 2));
                let fused = m.scale_kreduce(f, c.clone(), k);
                let scaled = m.scale(f, c);
                let unfused = m.kreduce(scaled, k);
                assert_eq!(fused, unfused, "i={i} k={k}");
            }
        }
    }

    #[test]
    fn zero_and_terminal_shortcuts() {
        let mut m = setup(4);
        let f = flow_stf(&mut m, 0, 4);
        let z = m.zero();
        let reduced = m.kreduce(f, 1);
        assert_eq!(m.add_kreduce(f, z, 1), reduced);
        assert_eq!(m.add_kreduce(z, f, 1), reduced);
        assert_eq!(m.scale_kreduce(f, Term::ONE, 1), reduced);
        assert_eq!(m.scale_kreduce(f, Term::ZERO, 3), m.zero());
        // k = 0 collapses to the all-alive sum without building anything.
        let g = flow_stf(&mut m, 1, 4);
        let r = m.add_kreduce(f, g, 0);
        assert!(r.is_terminal());
        let fa = m.eval_all_alive(f);
        let ga = m.eval_all_alive(g);
        assert_eq!(m.terminal_value(r), fa.add(ga));
    }

    #[test]
    fn fused_cache_is_canonicalized_and_counted() {
        let mut m = setup(10);
        let f = flow_stf(&mut m, 0, 10);
        let g = flow_stf(&mut m, 2, 10);
        let before = m.stats();
        assert_eq!(before.fused_cache_hits, 0);
        let r1 = m.add_kreduce(f, g, 2);
        let mid = m.stats();
        assert!(mid.fused_cache_misses > 0);
        assert!(mid.fused_cache_len > 0);
        // Swapped operands share the canonical entry: a pure root hit.
        let r2 = m.add_kreduce(g, f, 2);
        let after = m.stats();
        assert_eq!(r1, r2);
        assert_eq!(after.fused_cache_misses, mid.fused_cache_misses);
        assert_eq!(after.fused_cache_hits, mid.fused_cache_hits + 1);
        // A non-commutative pair keeps its operand order in the key: the
        // swapped call is a different function, so its root misses and
        // the result differs, while a repeat of either order is a hit.
        let d1 = m.apply_kreduce(Op::Sub, f, g, Some(2));
        let sub = m.stats();
        assert!(sub.fused_cache_misses > after.fused_cache_misses);
        let d2 = m.apply_kreduce(Op::Sub, g, f, Some(2));
        let swapped = m.stats();
        assert_ne!(d1, d2);
        assert!(swapped.fused_cache_misses > sub.fused_cache_misses);
        assert_eq!(m.apply_kreduce(Op::Sub, f, g, Some(2)), d1);
        assert_eq!(m.apply_kreduce(Op::Sub, g, f, Some(2)), d2);
        let after = m.stats();
        assert_eq!(after.fused_cache_misses, swapped.fused_cache_misses);
        assert_eq!(after.fused_cache_hits, swapped.fused_cache_hits + 2);
        // The k = 0 collapse is keyed on the operands' all-alive
        // terminals. The k = 2 recursion above already collapsed this
        // pair down its hi-spine, so the root collapse is a hit — and so
        // is a different pair of diagrams with the same two terminals
        // (a guard is 1 all-alive).
        let r0 = m.add_kreduce(f, g, 0);
        let first = m.stats();
        assert_eq!(first.fused_cache_misses, after.fused_cache_misses);
        assert_eq!(first.fused_cache_hits, after.fused_cache_hits + 1);
        let x9 = m.var_guard(9);
        let (f2, g2) = (m.mul(f, x9), m.mul(g, x9));
        assert!(f2 != f && g2 != g);
        assert_eq!(m.add_kreduce(f2, g2, 0), r0);
        let second = m.stats();
        assert_eq!(second.fused_cache_misses, first.fused_cache_misses);
        assert_eq!(second.fused_cache_hits, first.fused_cache_hits + 1);
        assert_eq!(second.fused_cache_len, first.fused_cache_len);
    }

    #[test]
    fn fused_avoids_the_unreduced_transient() {
        // Aggregate the whole flow family pairwise both ways in fresh
        // arenas: the fused kernel must materialize strictly fewer inner
        // nodes than add-then-kreduce (it never builds the blow-up).
        let nvars = 20;
        let nflows = 14;
        let k = 2;
        let aggregate = |m: &mut Mtbdd, fused: bool| -> (usize, NodeRef) {
            let mut level: Vec<NodeRef> = (0..nflows)
                .map(|i| {
                    let f = flow_stf(m, i, nvars);
                    m.kreduce(f, k)
                })
                .collect();
            let base = m.stats().nodes_created;
            while level.len() > 1 {
                let mut next = Vec::new();
                for pair in level.chunks(2) {
                    next.push(if pair.len() == 2 {
                        if fused {
                            m.add_kreduce(pair[0], pair[1], k)
                        } else {
                            let s = m.add(pair[0], pair[1]);
                            m.kreduce(s, k)
                        }
                    } else {
                        pair[0]
                    });
                }
                level = next;
            }
            (m.stats().nodes_created - base, level[0])
        };
        let (unfused_nodes, _) = aggregate(&mut setup(nvars), false);
        let mut m = setup(nvars);
        let (fused_nodes, r_fused) = aggregate(&mut m, true);
        assert!(
            fused_nodes < unfused_nodes,
            "fused must materialize fewer transient nodes ({fused_nodes} vs {unfused_nodes})"
        );
        // Same function either way: rebuilt in the fused arena, the
        // unfused pipeline hash-conses to the same root.
        let (_, r_unfused) = aggregate(&mut m, false);
        assert_eq!(r_unfused, r_fused);
    }

    #[test]
    fn every_op_equals_unfused_in_both_operand_orders() {
        let mut m = setup(10);
        for k in 0..=2u32 {
            for i in 0..5 {
                let (mut f, mut g) = (flow_stf(&mut m, i, 10), flow_stf(&mut m, i + 2, 10));
                for op in Op::ALL {
                    if matches!(op, Op::Or | Op::And) {
                        // Boolean operators take 0/1 guards.
                        let z = m.zero();
                        f = m.lt_guard(z, f);
                        g = m.lt_guard(z, g);
                    }
                    for (a, mut b) in [(f, g), (g, f)] {
                        if op == Op::Div {
                            // x/0 is defined for x = 0 only.
                            let one = m.one();
                            b = m.add(b, one);
                        }
                        let fused = m.apply_kreduce(op, a, b, Some(k));
                        let plain = m.apply(op, a, b);
                        assert_eq!(fused, m.kreduce(plain, k), "{op:?} i={i} k={k}");
                        assert_eq!(m.apply_kreduce(op, a, b, None), plain, "{op:?} exact");
                    }
                }
            }
        }
    }

    #[test]
    fn sum_kreduce_equals_folded_add_kreduce() {
        let mut m = setup(12);
        for k in 0..=3u32 {
            for n in 0..=7usize {
                let items: Vec<NodeRef> = (0..n).map(|i| flow_stf(&mut m, i, 12)).collect();
                let nary = m.sum_kreduce(&items, k);
                let folded = items
                    .iter()
                    .fold(m.zero(), |acc, &f| m.add_kreduce(acc, f, k));
                assert_eq!(nary, folded, "n={n} k={k}");
                // And both equal the reduction of the exact sum.
                let exact = m.sum(&items);
                assert_eq!(nary, m.kreduce(exact, k), "vs exact, n={n} k={k}");
            }
        }
    }

    #[test]
    fn sum_kreduce_handles_zeros_terminals_and_large_arity() {
        let mut m = setup(16);
        let z = m.zero();
        let c3 = m.constant(Ratio::int(3));
        let c5 = m.constant(Ratio::new(5, 2));
        // All-terminal list collapses without structure.
        let r = m.sum_kreduce(&[c3, z, c5, c3], 4);
        assert!(r.is_terminal());
        assert_eq!(m.terminal_value(r), Term::ratio(17, 2));
        // Empty and singleton lists.
        assert_eq!(m.sum_kreduce(&[], 2), z);
        let f = flow_stf(&mut m, 0, 16);
        let kf = m.kreduce(f, 1);
        assert_eq!(m.sum_kreduce(&[f], 1), kf);
        assert_eq!(m.sum_kreduce(&[f, z, z], 1), kf);
        // Arity above MAX_SUM_ARITY is summed in chunks, with an identical
        // result.
        let k = 2;
        let items: Vec<NodeRef> = (0..(MAX_SUM_ARITY + 7))
            .map(|i| flow_stf(&mut m, i, 16))
            .collect();
        let nary = m.sum_kreduce(&items, k);
        let exact = m.sum(&items);
        assert_eq!(nary, m.kreduce(exact, k));
    }

    #[test]
    fn sum_memo_answers_across_run_arena_restarts() {
        // Unit tests run the `sum` operand-run arena at 64 handles, so
        // these lists restart it many times, and the memo entries they
        // fill grow the computed table in between: entries whose runs are
        // gone must miss, never answer for the runs now at their offsets.
        let nvars = 16;
        let k = 3;
        let mut m = setup(nvars);
        let mut lists: Vec<Vec<NodeRef>> = (0..48)
            .map(|i| {
                (0..3 + i % 5)
                    .map(|j| flow_stf(&mut m, 3 * i + j, nvars))
                    .collect()
            })
            .collect();
        let check = |m: &mut Mtbdd, lists: &[Vec<NodeRef>]| {
            for items in lists {
                let nary = m.sum_kreduce(items, k);
                let folded = items
                    .iter()
                    .fold(m.zero(), |acc, &f| m.add_kreduce(acc, f, k));
                assert_eq!(nary, folded, "{items:?}");
                let exact = m.sum(items);
                assert_eq!(nary, m.kreduce(exact, k), "{items:?}");
            }
        };
        check(&mut m, &lists);
        assert!(m.computed.runs_base() > 0, "the run arena never restarted");
        let hits = m.stats().sum_cache_hits;
        check(&mut m, &lists);
        assert!(m.stats().sum_cache_hits > hits, "the second pass must hit");
        m.clear_caches();
        check(&mut m, &lists);
        let roots: Vec<NodeRef> = lists.iter().flatten().copied().collect();
        let remap = m.collect(&roots);
        for items in &mut lists {
            for f in items.iter_mut() {
                *f = remap.get(*f);
            }
        }
        check(&mut m, &lists);
        check(&mut m, &lists);
    }

    #[test]
    fn sum_kreduce_materializes_fewer_nodes_than_folding() {
        // The n-ary kernel's whole point: the left fold hash-conses every
        // reduced partial sum; the n-ary recursion skips them. 70 and 300
        // operands take one and two levels of chunk sums.
        let nvars = 20;
        let k = 2;
        let build = |nflows: usize, nary: bool| -> usize {
            let mut m = setup(nvars);
            let items: Vec<NodeRef> = (0..nflows).map(|i| flow_stf(&mut m, i, nvars)).collect();
            let base = m.stats().nodes_created;
            let _ = if nary {
                m.sum_kreduce(&items, k)
            } else {
                items
                    .iter()
                    .fold(m.zero(), |acc, &f| m.add_kreduce(acc, f, k))
            };
            m.stats().nodes_created - base
        };
        // The left fold audits every partial sum in debug builds, which is
        // too slow for the long lists under Miri.
        let sizes: &[usize] = if cfg!(miri) { &[14] } else { &[14, 70, 300] };
        for &nflows in sizes {
            let folded = build(nflows, false);
            let nary = build(nflows, true);
            assert!(
                nary <= folded,
                "{nflows} operands: n-ary must not materialize more nodes than folding \
                 ({nary} vs {folded})"
            );
        }
    }

    #[test]
    fn clear_caches_drops_fused_entries() {
        let mut m = setup(8);
        let f = flow_stf(&mut m, 0, 8);
        let g = flow_stf(&mut m, 1, 8);
        let _ = m.add_kreduce(f, g, 2);
        assert!(m.stats().fused_cache_len > 0);
        m.clear_caches();
        assert_eq!(m.stats().fused_cache_len, 0);
        // Counters are cumulative and survive the clear.
        assert!(m.stats().fused_cache_misses > 0);
    }
}
