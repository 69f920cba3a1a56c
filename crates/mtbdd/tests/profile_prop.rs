//! Property-based tests for the read-only profiler (`profile.rs`):
//! on random MTBDDs the per-level histogram must total exactly the
//! reachable node count, the walk must be side-effect free, and the
//! cache profiles must stay consistent with `MtbddStats`.

use proptest::prelude::*;
use yu_mtbdd::{Mtbdd, NodeRef, Op, Ratio, Var};

const NVARS: u32 = 6;

/// Random pseudo-boolean functions (same family as `prop.rs`).
#[derive(Debug, Clone)]
enum Expr {
    Const(i64),
    Var(u8),
    NotVar(u8),
    Add(Box<Expr>, Box<Expr>),
    Mul(Box<Expr>, Box<Expr>),
    Min(Box<Expr>, Box<Expr>),
    Max(Box<Expr>, Box<Expr>),
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
            (inner.clone(), inner).prop_map(|(a, b)| Expr::Max(Box::new(a), Box::new(b))),
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
    }
}

fn manager() -> Mtbdd {
    let mut m = Mtbdd::new();
    for _ in 0..NVARS {
        m.fresh_var();
    }
    m
}

proptest! {
    /// The level histogram of a single root totals exactly
    /// `node_count(root)`, every level is within the allocated variable
    /// range, and levels come out sorted top-of-diagram first.
    #[test]
    fn level_profile_totals_match_node_count(e in arb_expr()) {
        let mut m = manager();
        let f = build(&mut m, &e);
        let p = m.level_profile(&[f]);
        prop_assert_eq!(p.inner_nodes, m.node_count(f));
        prop_assert_eq!(p.inner_nodes, p.levels.iter().map(|l| l.nodes).sum::<usize>());
        for w in p.levels.windows(2) {
            prop_assert!(w[0].var < w[1].var, "levels must be sorted and unique");
        }
        for l in &p.levels {
            prop_assert!(l.var < NVARS);
            prop_assert!(l.nodes > 0, "empty levels must be omitted");
        }
        // The support of f is exactly the set of non-empty levels.
        let support = m.support(f);
        let levels: std::collections::BTreeSet<Var> =
            p.levels.iter().map(|l| l.var).collect();
        prop_assert_eq!(support, levels);
    }

    /// Multi-root profiles count the *union* of the sub-diagrams: total
    /// is bounded by the per-root sum (shared nodes counted once) and
    /// at least the largest single root.
    #[test]
    fn level_profile_of_roots_is_a_union(a in arb_expr(), b in arb_expr()) {
        let mut m = manager();
        let f = build(&mut m, &a);
        let g = build(&mut m, &b);
        let pf = m.node_count(f);
        let pg = m.node_count(g);
        let both = m.level_profile(&[f, g]);
        prop_assert!(both.inner_nodes <= pf + pg);
        prop_assert!(both.inner_nodes >= pf.max(pg));
        if f == g {
            prop_assert_eq!(both.inner_nodes, pf);
        }
    }

    /// Profiling is read-only: the walk and the cache profiles leave the
    /// arena, its caches, and its statistics bit-identical.
    #[test]
    fn profiling_is_side_effect_free(e in arb_expr()) {
        let mut m = manager();
        let f = build(&mut m, &e);
        let reduced = m.kreduce(f, 2);
        // Touch every other kernel too, so each row has counts to compare.
        let zero = m.zero();
        let guard = m.lt_guard(zero, f);
        let _ = (m.not(guard), m.ite(guard, f, reduced), m.restrict(f, 0, false));
        let _ = (m.add_kreduce(f, reduced, 1), m.sum_kreduce(&[f, reduced, guard], 1));
        let _ = m.terminal_range(f);
        let before = m.stats();
        let _ = m.level_profile(&[f, reduced]);
        let caches = m.cache_profiles();
        let after = m.stats();
        prop_assert_eq!(before, after, "profiling must not perturb the manager");
        // Every kernel row of the computed table agrees with the stats
        // fields of that kernel.
        let row = |name: &str| {
            let c = caches.iter().find(|c| c.name == name).expect("kernel row");
            (c.hits, c.misses, c.evictions)
        };
        let s = after;
        prop_assert_eq!(row("apply"), (s.apply_cache_hits, s.apply_cache_misses, s.apply_cache_evictions));
        prop_assert_eq!(row("fused"), (s.fused_cache_hits, s.fused_cache_misses, s.fused_cache_evictions));
        prop_assert_eq!(row("apply1"), (s.apply1_cache_hits, s.apply1_cache_misses, s.apply1_cache_evictions));
        prop_assert_eq!(row("ite"), (s.ite_cache_hits, s.ite_cache_misses, s.ite_cache_evictions));
        prop_assert_eq!(
            row("restrict"),
            (s.restrict_cache_hits, s.restrict_cache_misses, s.restrict_cache_evictions)
        );
        prop_assert_eq!(
            row("kreduce"),
            (s.kreduce_cache_hits, s.kreduce_cache_misses, s.kreduce_cache_evictions)
        );
        prop_assert_eq!((row("sum").0, row("sum").1), (s.sum_cache_hits, s.sum_cache_misses));
        prop_assert_eq!(caches[0].len, s.apply_cache_len);
        prop_assert_eq!(caches[1].len, s.fused_cache_len);
        let terminals = caches.iter().find(|c| c.name == "terminals").expect("terminals row");
        prop_assert_eq!(terminals.len, s.live_terminals);
        // The shadow of the computed table: its sampled misses are misses
        // of the table, the ceiling answers at most all of them, and its
        // 2^14 fingerprints are the row's pool once the table holds
        // anything. No other row samples.
        let computed = caches.iter().find(|c| c.name == "computed").expect("computed row");
        prop_assert!(computed.shadow_hits <= computed.sampled);
        prop_assert!(computed.sampled <= computed.misses);
        let shadow_bytes = if computed.capacity > 0 { 4 << 14 } else { 0 };
        prop_assert_eq!(computed.pool_bytes, shadow_bytes);
        for c in caches.iter().filter(|c| c.name != "computed") {
            prop_assert_eq!((c.sampled, c.shadow_hits), (0, 0), "{}", c.name);
        }
        // Rebuilding the same expression is pure cache/unique-table hits:
        // node-for-node the same handle.
        let f2 = build(&mut m, &e);
        prop_assert_eq!(f, f2);
        // The counters are cumulative and the shadow keeps its memory
        // across a clear.
        let computed = m
            .cache_profiles()
            .into_iter()
            .find(|c| c.name == "computed")
            .expect("computed row");
        m.clear_caches();
        let cleared = m.cache_profiles();
        let after_clear = cleared.iter().find(|c| c.name == "computed").expect("computed row");
        prop_assert_eq!(
            (after_clear.sampled, after_clear.shadow_hits, after_clear.pool_bytes),
            (computed.sampled, computed.shadow_hits, computed.pool_bytes)
        );
        // A rebuild on the emptied table is pure unique-table hits.
        let f3 = build(&mut m, &e);
        prop_assert_eq!(f, f3);
    }

    /// The shadow's counters are a function of the operation sequence:
    /// two managers that build the same expressions report the same
    /// computed row.
    #[test]
    fn shadow_counters_are_deterministic(a in arb_expr(), b in arb_expr()) {
        let row = || {
            let mut m = manager();
            let (f, g) = (build(&mut m, &a), build(&mut m, &b));
            let _ = m.sum_kreduce(&[f, g], 1);
            let _ = m.terminal_range(f);
            let c = m.cache_profiles().into_iter().find(|c| c.name == "computed").unwrap();
            (c.capacity, c.misses, c.sampled, c.shadow_hits)
        };
        prop_assert_eq!(row(), row());
    }
}
