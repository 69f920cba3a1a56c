//! Property-based tests for the MTBDD engine: random diagrams, random
//! assignments, and the two KREDUCE lemmas of the paper's Appendix A.

use proptest::prelude::*;
use yu_mtbdd::{Mtbdd, NodeRef, Op, Ratio, Term, Var};

const NVARS: u32 = 6;

/// A little expression language for building random pseudo-boolean
/// functions both as MTBDDs and as evaluable closures.
#[derive(Debug, Clone)]
enum Expr {
    Const(i64),
    Var(u8),
    NotVar(u8),
    Add(Box<Expr>, Box<Expr>),
    Mul(Box<Expr>, Box<Expr>),
    Min(Box<Expr>, Box<Expr>),
    Max(Box<Expr>, Box<Expr>),
    Ite(u8, Box<Expr>, Box<Expr>),
}

fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (-20i64..=20).prop_map(Expr::Const),
        (0u8..NVARS as u8).prop_map(Expr::Var),
        (0u8..NVARS as u8).prop_map(Expr::NotVar),
    ];
    leaf.prop_recursive(4, 40, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Add(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Mul(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Min(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Max(Box::new(a), Box::new(b))),
            (0u8..NVARS as u8, inner.clone(), inner).prop_map(|(v, a, b)| Expr::Ite(
                v,
                Box::new(a),
                Box::new(b)
            )),
        ]
    })
}

fn build(m: &mut Mtbdd, e: &Expr) -> NodeRef {
    match e {
        Expr::Const(c) => m.constant(Ratio::int(*c)),
        Expr::Var(v) => m.var_guard(*v as Var),
        Expr::NotVar(v) => m.nvar_guard(*v as Var),
        Expr::Add(a, b) => {
            let (a, b) = (build(m, a), build(m, b));
            m.apply(Op::Add, a, b)
        }
        Expr::Mul(a, b) => {
            let (a, b) = (build(m, a), build(m, b));
            m.apply(Op::Mul, a, b)
        }
        Expr::Min(a, b) => {
            let (a, b) = (build(m, a), build(m, b));
            m.apply(Op::Min, a, b)
        }
        Expr::Max(a, b) => {
            let (a, b) = (build(m, a), build(m, b));
            m.apply(Op::Max, a, b)
        }
        Expr::Ite(v, a, b) => {
            let g = m.var_guard(*v as Var);
            let (a, b) = (build(m, a), build(m, b));
            m.ite(g, a, b)
        }
    }
}

fn eval_expr(e: &Expr, bits: u32) -> i64 {
    let val = |v: u8| (bits >> v & 1) as i64;
    match e {
        Expr::Const(c) => *c,
        Expr::Var(v) => val(*v),
        Expr::NotVar(v) => 1 - val(*v),
        Expr::Add(a, b) => eval_expr(a, bits) + eval_expr(b, bits),
        Expr::Mul(a, b) => eval_expr(a, bits) * eval_expr(b, bits),
        Expr::Min(a, b) => eval_expr(a, bits).min(eval_expr(b, bits)),
        Expr::Max(a, b) => eval_expr(a, bits).max(eval_expr(b, bits)),
        Expr::Ite(v, a, b) => {
            if val(*v) == 1 {
                eval_expr(a, bits)
            } else {
                eval_expr(b, bits)
            }
        }
    }
}

fn manager() -> Mtbdd {
    let mut m = Mtbdd::new();
    for _ in 0..NVARS {
        m.fresh_var();
    }
    m
}

/// Every node reachable from `roots` must carry its own all-alive
/// terminal: the O(1) `all_alive_ref` against the hi-chain walk.
fn check_alive_fields(m: &mut Mtbdd, roots: &[NodeRef]) -> Result<(), TestCaseError> {
    let mut seen = std::collections::HashSet::new();
    let mut stack = roots.to_vec();
    while let Some(f) = stack.pop() {
        if !seen.insert(f) {
            continue;
        }
        let walked = m.eval_all_alive(f);
        prop_assert_eq!(m.all_alive_ref(f), m.term(walked), "node {:?}", f);
        if !f.is_terminal() {
            let (lo, hi) = m.cofactors(f);
            stack.push(lo);
            stack.push(hi);
        }
    }
    Ok(())
}

/// Every node reachable from `roots` must range over exactly its extreme
/// terminals: the memoised `terminal_range` against the unmemoised
/// `terminals` walk.
fn check_ranges(m: &mut Mtbdd, roots: &[NodeRef]) -> Result<(), TestCaseError> {
    let mut seen = std::collections::HashSet::new();
    let mut stack = roots.to_vec();
    while let Some(f) = stack.pop() {
        if !seen.insert(f) {
            continue;
        }
        let walked = m.terminals(f);
        let (min, max) = m.terminal_range(f);
        prop_assert_eq!(walked.first(), Some(m.terminal_ref(min)), "min of {:?}", f);
        prop_assert_eq!(walked.last(), Some(m.terminal_ref(max)), "max of {:?}", f);
        if !f.is_terminal() {
            let (lo, hi) = m.cofactors(f);
            stack.push(lo);
            stack.push(hi);
        }
    }
    Ok(())
}

/// `e`, or `e` with `+∞` on one side of a variable test (`Mul` cannot
/// take `+∞` next to the negative constants `arb_expr` produces).
fn build_with_inf(m: &mut Mtbdd, e: &Expr, inf: Option<(u8, bool)>) -> NodeRef {
    let f = build(m, e);
    match inf {
        None => f,
        Some((v, alive_side)) => {
            let g = m.var_guard(v as Var);
            let inf = m.pos_inf();
            if alive_side {
                m.ite(g, inf, f)
            } else {
                m.ite(g, f, inf)
            }
        }
    }
}

/// Variables of the table-built operands of the all-operators fused
/// test (16-row truth tables; `k = 3` is the last real budget).
const TABLE_VARS: u32 = 4;

/// The terminals those tables draw from: the values at which the
/// partial operators change behaviour (`0/0 = 0`, `0·∞ = 0`, `∞ − x`),
/// plus a negative, two fractions and an integer.
fn palette(i: usize) -> Term {
    match i {
        0 => Term::ZERO,
        1 => Term::ONE,
        2 => Term::int(-2),
        3 => Term::ratio(1, 2),
        4 => Term::int(3),
        5 => Term::PosInf,
        6 => Term::ratio(7, 3),
        _ => Term::ratio(-1, 3),
    }
}
const PALETTE_LEN: usize = 8;

/// The diagram of a truth table by Shannon expansion, row index bit
/// `TABLE_VARS - 1 - v` being the value of variable `v`.
fn from_table(m: &mut Mtbdd, rows: &[Term], var: Var) -> NodeRef {
    if var == TABLE_VARS {
        return m.term(rows[0].clone());
    }
    let (lo, hi) = rows.split_at(rows.len() / 2);
    let (lo, hi) = (from_table(m, lo, var + 1), from_table(m, hi, var + 1));
    m.node(var, lo, hi)
}

/// Whether the terminal `a ⊕ b` is defined (`Term`'s arithmetic panics
/// outside these domains).
fn defined(op: Op, a: &Term, b: &Term) -> bool {
    let negative = |t: &Term| matches!(t, Term::Num(r) if r.is_negative());
    match op {
        Op::Sub => b.is_finite(),
        Op::Mul => (a.is_finite() || !negative(b)) && (b.is_finite() || !negative(a)),
        Op::Div => match (a, b) {
            (Term::Num(a), Term::Num(b)) => a.is_zero() || !b.is_zero(),
            (Term::Num(_), Term::PosInf) => true,
            (Term::PosInf, b) => b.is_finite() && !b.is_zero() && !negative(b),
        },
        _ => true,
    }
}

/// Moves a pair of tables into `op`'s domain, row by row: `Or`/`And`
/// take 0/1 guards; a row where `a ⊕ b` (and, with `both_orders`,
/// `b ⊕ a`) is undefined is replaced by one where it is.
fn into_domain(op: Op, a: &mut [Term], b: &mut [Term], both_orders: bool) {
    for (x, y) in a.iter_mut().zip(b.iter_mut()) {
        if matches!(op, Op::Or | Op::And) {
            for t in [&mut *x, &mut *y] {
                *t = if t.is_zero() { Term::ZERO } else { Term::ONE };
            }
        }
        if both_orders && !(defined(op, x, y) && defined(op, y, x)) {
            (*x, *y) = (Term::ratio(1, 2), Term::int(3));
        } else if !defined(op, x, y) {
            // `x − 1`, `x · 0` and `x / 3` are defined for every `x`.
            *y = match op {
                Op::Sub => Term::ONE,
                Op::Mul => Term::ZERO,
                _ => Term::int(3),
            };
        }
    }
}

/// The operand pair two palette-index tables stand for under `op`.
fn table_operands(
    m: &mut Mtbdd,
    op: Op,
    fa: &[usize],
    ga: &[usize],
    both_orders: bool,
) -> (NodeRef, NodeRef) {
    let mut a: Vec<Term> = fa.iter().map(|&i| palette(i)).collect();
    let mut b: Vec<Term> = ga.iter().map(|&i| palette(i)).collect();
    into_domain(op, &mut a, &mut b, both_orders);
    (from_table(m, &a, 0), from_table(m, &b, 0))
}

proptest! {
    /// The in-node `β₀`: after a build (apply, ite and the fused kernels
    /// all go through `node`), after `collect` remapped it, and on nodes
    /// built in the collected arena next to the remapped ones.
    #[test]
    fn nodes_carry_their_all_alive_terminal(
        ef in arb_expr(),
        eg in arb_expr(),
        k in 0u32..=NVARS,
    ) {
        let mut m = manager();
        let f = build(&mut m, &ef);
        let g = build(&mut m, &eg);
        let r = m.add_kreduce(f, g, k);
        check_alive_fields(&mut m, &[f, g, r])?;

        // `g` and every intermediate are garbage for this collection.
        let remap = m.collect(&[f, r]);
        let (f, r) = (remap.get(f), remap.get(r));
        check_alive_fields(&mut m, &[f, r])?;

        let g = build(&mut m, &eg);
        let third = m.scale(g, Term::ratio(1, 3));
        let s = m.add_kreduce(r, third, k);
        check_alive_fields(&mut m, &[f, r, g, third, s])?;
    }

    /// The memoised terminal range, `+∞` included: after a build, after
    /// `collect` dropped the memo and renumbered the terminals it pointed
    /// at, and over remapped nodes and nodes built after the collection
    /// alike.
    #[test]
    fn terminal_range_is_the_extreme_terminals(
        ef in arb_expr(),
        eg in arb_expr(),
        inf in prop_oneof![
            Just(None),
            (0u8..NVARS as u8, any::<bool>()).prop_map(Some),
        ],
        k in 0u32..=NVARS,
    ) {
        let mut m = manager();
        let f = build_with_inf(&mut m, &ef, inf);
        let g = build(&mut m, &eg);
        let r = m.add_kreduce(f, g, k);
        check_ranges(&mut m, &[f, g, r])?;

        // `g` is garbage for this collection; so is every memo entry.
        let remap = m.collect(&[f, r]);
        let (f, r) = (remap.get(f), remap.get(r));
        check_ranges(&mut m, &[f, r])?;

        let g = build(&mut m, &eg);
        let third = m.scale(g, Term::ratio(1, 3));
        let s = m.add_kreduce(r, third, k);
        check_ranges(&mut m, &[f, r, third, s])?;
    }

    /// The carried `β₀` of the n-ary kernel: with negative terminals the
    /// delta subtracts below zero, and an operand that is `+∞` all-alive
    /// makes the delta undefined (the failed branch re-sums instead).
    /// Either way `sum_kreduce` stays `kreduce(sum(..), k)`.
    #[test]
    fn sum_kreduce_carries_beta0_past_infinity_and_negatives(
        es in proptest::collection::vec(
            (
                arb_expr(),
                prop_oneof![
                    Just(None),
                    (0u8..NVARS as u8, any::<bool>()).prop_map(Some),
                ],
            ),
            3..7,
        ),
        k in 0u32..=NVARS,
    ) {
        let mut m = manager();
        let items: Vec<NodeRef> = es
            .iter()
            .map(|(e, inf)| build_with_inf(&mut m, e, *inf))
            .collect();
        let nary = m.sum_kreduce(&items, k);
        let exact = m.sum(&items);
        prop_assert_eq!(nary, m.kreduce(exact, k));
        let folded = items
            .iter()
            .fold(m.zero(), |acc, &f| m.add_kreduce(acc, f, k));
        prop_assert_eq!(nary, folded);
    }

    /// Every apply/ite composition agrees with direct evaluation on every
    /// assignment.
    #[test]
    fn mtbdd_matches_pointwise_semantics(e in arb_expr()) {
        let mut m = manager();
        let f = build(&mut m, &e);
        for bits in 0..(1u32 << NVARS) {
            let got = m.eval(f, |v| bits >> v & 1 == 1);
            prop_assert_eq!(got, Term::int(eval_expr(&e, bits)));
        }
    }

    /// Lemma 1: KREDUCE(F, k) agrees with F on every assignment with at
    /// most k zeros.
    #[test]
    fn kreduce_is_k_equivalent(e in arb_expr(), k in 0u32..=NVARS) {
        let mut m = manager();
        let f = build(&mut m, &e);
        let r = m.kreduce(f, k);
        for bits in 0..(1u32 << NVARS) {
            let zeros = NVARS - bits.count_ones();
            if zeros > k {
                continue;
            }
            let a = m.eval(f, |v| bits >> v & 1 == 1);
            let b = m.eval(r, |v| bits >> v & 1 == 1);
            prop_assert_eq!(a, b, "bits {:b}, k {}", bits, k);
        }
    }

    /// Lemma 2: every path of KREDUCE(F, k) takes at most k failed (lo)
    /// edges.
    #[test]
    fn kreduce_bounds_path_failures(e in arb_expr(), k in 0u32..=NVARS) {
        let mut m = manager();
        let f = build(&mut m, &e);
        let r = m.kreduce(f, k);
        prop_assert!(m.max_path_failures(r) <= k);
    }

    /// KREDUCE expands a diagram by at most a factor of (k + 1): every
    /// result node is some beta_j(n) for an original node n and a budget
    /// j <= k. (It can grow slightly — merging by (k-1)-equivalence may
    /// break sharing — but never beyond this bound; in practice it
    /// shrinks dramatically, which Figs. 15/16 measure.)
    #[test]
    fn kreduce_growth_is_bounded(e in arb_expr(), k in 0u32..=NVARS) {
        let mut m = manager();
        let f = build(&mut m, &e);
        let before = m.node_count(f);
        let r = m.kreduce(f, k);
        prop_assert!(m.node_count(r) <= before * (k as usize + 1));
    }

    /// KREDUCE is idempotent and monotone in structure: reducing at k then
    /// at k again is stable.
    #[test]
    fn kreduce_idempotent(e in arb_expr(), k in 0u32..=NVARS) {
        let mut m = manager();
        let f = build(&mut m, &e);
        let once = m.kreduce(f, k);
        let twice = m.kreduce(once, k);
        prop_assert_eq!(once, twice);
    }

    /// With the full budget, KREDUCE is the identity semantically.
    #[test]
    fn kreduce_full_budget_exact(e in arb_expr()) {
        let mut m = manager();
        let f = build(&mut m, &e);
        let r = m.kreduce(f, NVARS);
        for bits in 0..(1u32 << NVARS) {
            let a = m.eval(f, |v| bits >> v & 1 == 1);
            let b = m.eval(r, |v| bits >> v & 1 == 1);
            prop_assert_eq!(a, b);
        }
    }

    /// find_path returns a correct witness whenever one exists.
    #[test]
    fn find_path_is_sound_and_complete(e in arb_expr(), threshold in -10i64..=10) {
        let mut m = manager();
        let f = build(&mut m, &e);
        let t = Term::int(threshold);
        let found = m.find_path(f, |v| v > t.clone());
        let exists = (0..(1u32 << NVARS))
            .any(|bits| m.eval(f, |v| bits >> v & 1 == 1) > t);
        prop_assert_eq!(found.is_some(), exists);
        if let Some(p) = found {
            // The witness assignment actually reaches the claimed value.
            let val = m.eval(f, |v| {
                p.assignment
                    .iter()
                    .find(|(pv, _)| *pv == v)
                    .map(|(_, b)| *b)
                    .unwrap_or(true)
            });
            prop_assert_eq!(val, p.value);
        }
    }

    /// The fused kernel is node-for-node identical to the classic
    /// pipeline: add_kreduce(f, g, k) == kreduce(add(f, g), k) as handles
    /// (both are canonical diagrams in the same arena, so pointer
    /// equality is function equality).
    #[test]
    fn fused_add_kreduce_matches_pipeline(
        ef in arb_expr(),
        eg in arb_expr(),
        k in 0u32..=NVARS,
    ) {
        let mut m = manager();
        let f = build(&mut m, &ef);
        let g = build(&mut m, &eg);
        let fused = m.add_kreduce(f, g, k);
        let sum = m.add(f, g);
        let unfused = m.kreduce(sum, k);
        prop_assert_eq!(fused, unfused);
        // And Lemma 2 holds for the fused result directly.
        prop_assert!(m.max_path_failures(fused) <= k);
    }

    /// Same for the constant-scaling variant.
    #[test]
    fn fused_scale_kreduce_matches_pipeline(
        e in arb_expr(),
        cn in -20i128..=20, cd in 1i128..=12,
        k in 0u32..=NVARS,
    ) {
        let mut m = manager();
        let f = build(&mut m, &e);
        let c = Term::Num(Ratio::new(cn, cd));
        let fused = m.scale_kreduce(f, c.clone(), k);
        let scaled = m.scale(f, c);
        let unfused = m.kreduce(scaled, k);
        prop_assert_eq!(fused, unfused);
    }

    /// The one kernel behind every budgeted operator: for all ten `Op`s,
    /// `apply_kreduce(op, f, g, Some(k)) == kreduce(apply(op, f, g), k)`
    /// as handles, on operands whose terminals include `0`, `1`, a
    /// negative, fractions and `+∞`; with no budget it is `apply`.
    #[test]
    fn fused_kernel_matches_pipeline_for_every_op(
        fa in proptest::collection::vec(0usize..PALETTE_LEN, 1 << TABLE_VARS),
        ga in proptest::collection::vec(0usize..PALETTE_LEN, 1 << TABLE_VARS),
        k in 0u32..=3,
    ) {
        let mut m = manager();
        for op in Op::ALL {
            let (f, g) = table_operands(&mut m, op, &fa, &ga, false);
            let fused = m.apply_kreduce(op, f, g, Some(k));
            let plain = m.apply(op, f, g);
            prop_assert_eq!(fused, m.kreduce(plain, k), "{:?} k={}", op, k);
            prop_assert!(m.max_path_failures(fused) <= k);
            prop_assert_eq!(m.apply_kreduce(op, f, g, None), plain, "{:?} exact", op);
        }
    }

    /// Non-commutative operators keep their operand order in the memo
    /// key and down the recursion: `f ⊕ g` and `g ⊕ f`, each asked twice
    /// and interleaved in one arena, never answer for each other.
    #[test]
    fn fused_kernel_never_swaps_non_commutative_operands(
        fa in proptest::collection::vec(0usize..PALETTE_LEN, 1 << TABLE_VARS),
        ga in proptest::collection::vec(0usize..PALETTE_LEN, 1 << TABLE_VARS),
        k in 0u32..=3,
    ) {
        let mut m = manager();
        for op in [Op::Sub, Op::Div, Op::LtGuard] {
            let (f, g) = table_operands(&mut m, op, &fa, &ga, true);
            for (x, y) in [(f, g), (g, f), (f, g), (g, f)] {
                let fused = m.apply_kreduce(op, x, y, Some(k));
                let plain = m.apply(op, x, y);
                prop_assert_eq!(fused, m.kreduce(plain, k), "{:?} k={}", op, k);
            }
        }
    }

    /// The n-ary fused aggregate is handle-identical to the left-folded
    /// binary pipeline: sum_kreduce([f1..fn], k) ==
    /// fold(add_kreduce)(f1..fn, k) == kreduce(f1 + .. + fn, k). This is
    /// what lets the sharded checker and the sequential checker produce
    /// bit-identical violating loads regardless of how operands are
    /// grouped.
    #[test]
    fn sum_kreduce_matches_folded_pipeline(
        es in proptest::collection::vec(arb_expr(), 0..6),
        k in 0u32..=NVARS,
    ) {
        let mut m = manager();
        let items: Vec<NodeRef> = es.iter().map(|e| build(&mut m, e)).collect();
        let nary = m.sum_kreduce(&items, k);
        // Left fold with the binary fused kernel.
        let folded = match items.split_first() {
            None => {
                let z = m.zero();
                m.kreduce(z, k)
            }
            Some((&first, rest)) => {
                let head = m.kreduce(first, k);
                rest.iter().fold(head, |acc, &f| m.add_kreduce(acc, f, k))
            }
        };
        prop_assert_eq!(nary, folded);
        // And against the classic unfused pipeline.
        let sum = items
            .iter()
            .fold(m.zero(), |acc, &f| m.apply(Op::Add, acc, f));
        let unfused = m.kreduce(sum, k);
        prop_assert_eq!(nary, unfused);
        prop_assert!(m.max_path_failures(nary) <= k);
    }

    /// Restriction fixes a variable: restrict(f, v, b) equals f evaluated
    /// with v := b.
    #[test]
    fn restrict_matches_eval(e in arb_expr(), v in 0u32..NVARS, b in any::<bool>()) {
        let mut m = manager();
        let f = build(&mut m, &e);
        let r = m.restrict(f, v, b);
        for bits in 0..(1u32 << NVARS) {
            let got = m.eval(r, |x| bits >> x & 1 == 1);
            let want = m.eval(f, |x| if x == v { b } else { bits >> x & 1 == 1 });
            prop_assert_eq!(got, want);
        }
        prop_assert!(!m.support(r).contains(&v));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Long operand lists, drawn with repeats from a small pool of random
    /// diagrams, zero and two constants. The lengths cross both the
    /// n-ary cap (16 operands per call) and its square (256), where the
    /// chunk results need a second level of chunking. For every budget
    /// `k ≤ 3`, `sum_kreduce` is the left fold of `add_kreduce` and
    /// `kreduce` of the exact sum, node for node, and a shuffled list
    /// gives the same handle.
    #[test]
    fn sum_kreduce_of_long_lists_matches_folding_and_shuffling(
        pool in proptest::collection::vec(arb_expr(), 1..6),
        picks in proptest::collection::vec(0usize..64, 0..=300),
        shuffle in any::<u64>(),
    ) {
        let mut m = manager();
        let mut built: Vec<NodeRef> = pool.iter().map(|e| build(&mut m, e)).collect();
        built.push(m.zero());
        built.push(m.constant(Ratio::int(7)));
        built.push(m.constant(Ratio::new(-3, 2)));
        let items: Vec<NodeRef> = picks.iter().map(|&i| built[i % built.len()]).collect();
        let mut shuffled = items.clone();
        let mut x = shuffle | 1;
        for i in (1..shuffled.len()).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            shuffled.swap(i, (x % (i as u64 + 1)) as usize);
        }
        let exact = m.sum(&items);
        for k in 0..=3u32 {
            let nary = m.sum_kreduce(&items, k);
            let folded = items
                .iter()
                .fold(m.zero(), |acc, &f| m.add_kreduce(acc, f, k));
            prop_assert_eq!(nary, folded, "fold, n={} k={}", items.len(), k);
            prop_assert_eq!(nary, m.kreduce(exact, k), "exact, n={} k={}", items.len(), k);
            prop_assert_eq!(m.sum_kreduce(&shuffled, k), nary, "shuffled, n={} k={}", items.len(), k);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Exact rational arithmetic is a field on random small fractions.
    #[test]
    fn ratio_field_laws(
        an in -50i128..=50, ad in 1i128..=20,
        bn in -50i128..=50, bd in 1i128..=20,
        cn in -50i128..=50, cd in 1i128..=20,
    ) {
        let a = Ratio::new(an, ad);
        let b = Ratio::new(bn, bd);
        let c = Ratio::new(cn, cd);
        // Commutativity and associativity.
        prop_assert_eq!(a.clone() + b.clone(), b.clone() + a.clone());
        prop_assert_eq!(a.clone() * b.clone(), b.clone() * a.clone());
        prop_assert_eq!(
            (a.clone() + b.clone()) + c.clone(),
            a.clone() + (b.clone() + c.clone())
        );
        prop_assert_eq!(
            (a.clone() * b.clone()) * c.clone(),
            a.clone() * (b.clone() * c.clone())
        );
        // Distributivity.
        prop_assert_eq!(
            a.clone() * (b.clone() + c.clone()),
            a.clone() * b.clone() + a.clone() * c.clone()
        );
        // Inverses.
        prop_assert_eq!(a.clone() - a.clone(), Ratio::ZERO);
        if !b.is_zero() {
            prop_assert_eq!(b.clone() / b.clone(), Ratio::ONE);
        }
    }

    /// Big-integer spill arithmetic stays exact: scaling up and back down
    /// is the identity.
    #[test]
    fn ratio_big_roundtrip(n in 1i128..=1000, shift in 100u32..=140) {
        let huge = Ratio::new(n, 1) * pow2(shift);
        let back = huge.clone() / pow2(shift);
        prop_assert_eq!(back, Ratio::new(n, 1));
        let tiny = Ratio::new(n, 1) / pow2(shift);
        prop_assert!(tiny.clone() * pow2(shift) == Ratio::new(n, 1));
        prop_assert!(tiny > Ratio::ZERO);
    }
}

fn pow2(e: u32) -> Ratio {
    let mut r = Ratio::ONE;
    let two = Ratio::int(2);
    for _ in 0..e {
        r = r * two.clone();
    }
    r
}
