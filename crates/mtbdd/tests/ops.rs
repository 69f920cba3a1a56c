//! Additional operator coverage: cache clearing, unary ops, comparison
//! guards against infinity, DOT export, and statistics.

use yu_mtbdd::{Mtbdd, Op, Op1, Ratio, Term};

#[test]
fn clear_caches_preserves_results() {
    let mut m = Mtbdd::new();
    let (x1, x2) = (m.fresh_var(), m.fresh_var());
    let g1 = m.var_guard(x1);
    let g2 = m.var_guard(x2);
    let before = m.add(g1, g2);
    m.clear_caches();
    let after = m.add(g1, g2);
    assert_eq!(before, after, "hash-consing survives cache clearing");
    assert!(m.stats().apply_cache_len >= 1);
}

#[test]
fn sub_and_neg() {
    let mut m = Mtbdd::new();
    let x = m.fresh_var();
    let g = m.var_guard(x);
    let one = m.one();
    let not_g = m.apply(Op::Sub, one, g);
    assert_eq!(not_g, m.not(g));
    let neg = m.apply1(Op1::Neg, g);
    assert_eq!(m.eval_all_alive(neg), Term::int(-1));
    assert_eq!(m.eval(neg, |_| false), Term::ZERO);
}

#[test]
fn comparison_guards_with_infinity() {
    let mut m = Mtbdd::new();
    let x = m.fresh_var();
    let g = m.var_guard(x);
    let ten = m.constant(Ratio::int(10));
    let inf = m.pos_inf();
    let dist = m.ite(g, ten, inf);
    // lt: dist < inf exactly when alive.
    let lt = m.lt_guard(dist, inf);
    assert_eq!(m.eval_all_alive(lt), Term::ONE);
    assert_eq!(m.eval(lt, |_| false), Term::ZERO);
    // eq against inf.
    let eq = m.eq_guard(dist, inf);
    assert_eq!(m.eval(eq, |_| false), Term::ONE);
    // max with inf is absorbing.
    let mx = m.apply(Op::Max, dist, ten);
    assert_eq!(m.eval(mx, |_| false), Term::PosInf);
}

#[test]
fn division_by_terminal_sum() {
    // The full ECMP pipeline on three guards: shares sum to 1 where any
    // guard holds, 0 otherwise.
    let mut m = Mtbdd::new();
    let vars: Vec<_> = (0..3).map(|_| m.fresh_var()).collect();
    let guards: Vec<_> = vars.iter().map(|&v| m.var_guard(v)).collect();
    let total = m.sum(&guards);
    let shares: Vec<_> = guards.iter().map(|&g| m.apply(Op::Div, g, total)).collect();
    let share_sum = m.sum(&shares);
    for bits in 0..8u32 {
        let got = m.eval(share_sum, |v| bits >> v & 1 == 1);
        let want = if bits == 0 { Term::ZERO } else { Term::ONE };
        assert_eq!(got, want, "bits {bits:b}");
    }
    // Each share is 1/#alive.
    let s0 = m.eval(shares[0], |v| v <= 1); // vars 0,1 alive
    assert_eq!(s0, Term::ratio(1, 2));
}

#[test]
fn dot_export_shape() {
    let mut m = Mtbdd::new();
    let (x1, x2) = (m.fresh_var(), m.fresh_var());
    let g1 = m.var_guard(x1);
    let g2 = m.var_guard(x2);
    let f0 = m.scale(g2, Term::ratio(1, 2));
    let f = m.add(g1, f0);
    let dot = m.to_dot(f, |v| format!("link{v}"));
    assert!(dot.contains("link0"));
    assert!(dot.contains("link1"));
    assert!(dot.contains("1/2"));
    assert!(dot.contains("3/2"));
    assert_eq!(dot.matches("shape=circle").count(), m.node_count(f));
}

#[test]
fn stats_monotone_until_collect() {
    let mut m = Mtbdd::new();
    let x = m.fresh_var();
    let s0 = m.stats().nodes_created;
    let g = m.var_guard(x);
    let s1 = m.stats().nodes_created;
    assert!(s1 > s0);
    let _ = m.scale(g, Term::int(7));
    assert!(m.stats().nodes_created >= s1);
    let created = m.stats().nodes_created;
    let remap = m.collect(&[g]);
    assert_eq!(m.stats().live_nodes, 1, "only the root survives");
    assert_eq!(
        m.stats().nodes_created,
        created,
        "work done survives a collection"
    );
    let g = remap.get(g);
    assert_eq!(m.eval_all_alive(g), Term::ONE);
}

#[test]
fn sum_is_order_insensitive() {
    let mut m = Mtbdd::new();
    let vars: Vec<_> = (0..5).map(|_| m.fresh_var()).collect();
    let mut items: Vec<_> = vars
        .iter()
        .enumerate()
        .map(|(i, &v)| {
            let g = m.var_guard(v);
            m.scale(g, Term::int(i as i64 + 1))
        })
        .collect();
    let a = m.sum(&items);
    items.reverse();
    let b = m.sum(&items);
    assert_eq!(a, b, "exact arithmetic makes summation order irrelevant");
}
