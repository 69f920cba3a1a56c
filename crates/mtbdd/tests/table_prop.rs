//! Model-checking the flat hash structures behind the arena manager
//! (`yu_mtbdd::table`, exported `#[doc(hidden)]` for exactly this test):
//!
//! * [`SlotTable`] — the open-addressed unique table — against a
//!   `HashMap` reference model: after any interleaving of lookups and
//!   inserts of arbitrary keys, membership and the stored index must
//!   agree with the map, the load factor must stay at or below 7/8, and
//!   a rebuilt table over the same keys must give the same answers.
//! * [`ComputedTable`] — the direct-mapped memo table every kernel
//!   shares — for *soundness* against a `HashMap` of everything ever
//!   inserted, under every tag and for operand runs: a lookup may miss
//!   (eviction is allowed), but it must never return a value that
//!   differs from the last insert for that key, and the per-tag
//!   counters must reconcile with the operation count.
//! * The kernels on one manager, sharing that table: random
//!   interleavings of every kernel must give the handle each gives when
//!   recomputed on an empty table.

use proptest::prelude::*;
use std::collections::HashMap;
use yu_mtbdd::hasher::fx_hash_word;
use yu_mtbdd::table::{tagged, ComputedTable, SlotTable, Tag};
use yu_mtbdd::{Mtbdd, NodeRef, Op, Op1, Ratio, Var};

/// Keys of the computed-table model: two words, or an operand run.
#[derive(Clone, PartialEq, Eq, Hash)]
enum Key {
    Words(u64, u32),
    Run(Vec<NodeRef>, u32),
}

/// One step of the kernel interleaving: which kernel, on which pool
/// entries, with which operator, variable and budget.
#[derive(Debug, Clone)]
struct Step {
    kernel: u8,
    operands: [usize; 4],
    op: usize,
    var: Var,
    k: u32,
}

const NVARS: u32 = 6;

/// Runs one step on `m` over `pool` and returns every handle it yields.
fn run_step(m: &mut Mtbdd, pool: &[NodeRef], s: &Step) -> Vec<NodeRef> {
    let pick = |i: usize| pool[s.operands[i] % pool.len()];
    let (f, g, h) = (pick(0), pick(1), pick(2));
    let zero = m.zero();
    match s.kernel % 8 {
        0 => {
            let ops = [
                Op::Add,
                Op::Sub,
                Op::Mul,
                Op::Min,
                Op::Max,
                Op::EqGuard,
                Op::LtGuard,
            ];
            vec![m.apply(ops[s.op % ops.len()], f, g)]
        }
        1 => {
            let guard = m.lt_guard(zero, f);
            let op = [Op1::IsFiniteGuard, Op1::Neg][s.op % 2];
            vec![m.apply1(op, g), m.not(guard)]
        }
        2 => {
            let guard = m.lt_guard(zero, f);
            vec![m.ite(guard, g, h)]
        }
        3 => vec![m.restrict(f, s.var, s.k.is_multiple_of(2))],
        4 => vec![m.kreduce(f, s.k)],
        5 => {
            let ops = [Op::Add, Op::Sub, Op::Mul, Op::Min, Op::LtGuard];
            vec![m.apply_kreduce(ops[s.op % ops.len()], f, g, Some(s.k))]
        }
        6 => {
            let items = [f, g, h, pick(3)];
            vec![m.sum_kreduce(&items[..2 + s.op % 3], s.k)]
        }
        _ => {
            let (min, max) = m.terminal_range(f);
            vec![min, max]
        }
    }
}

fn arb_step() -> impl Strategy<Value = Step> {
    let operands = (
        any::<usize>(),
        any::<usize>(),
        any::<usize>(),
        any::<usize>(),
    );
    (any::<u8>(), operands, any::<usize>(), 0..NVARS, 0u32..=3).prop_map(
        |(kernel, (a, b, c, d), op, var, k)| Step {
            kernel,
            operands: [a, b, c, d],
            op,
            var,
            k,
        },
    )
}

/// One step of the SlotTable driver: look a key up, inserting it when
/// absent (exactly the manager's hash-consing discipline).
fn run_slot_table(keys: &[u64]) -> (SlotTable, Vec<u64>, HashMap<u64, u32>) {
    let mut t = SlotTable::new();
    // The "arena": the table stores indices into this vector only.
    let mut arena: Vec<u64> = Vec::new();
    let mut model: HashMap<u64, u32> = HashMap::new();
    for &k in keys {
        if t.needs_grow() {
            let arena = &arena;
            t.grow(|v| fx_hash_word(arena[v as usize]));
        }
        let p = t.probe(fx_hash_word(k), |v| arena[v as usize] == k);
        match (p.found, model.get(&k)) {
            (Some(ix), Some(&mix)) => assert_eq!(ix, mix, "found wrong index for {k}"),
            (None, None) => {
                let ix = arena.len() as u32;
                arena.push(k);
                t.insert_at(p.slot, ix);
                model.insert(k, ix);
            }
            (got, want) => panic!("membership diverges for {k}: table={got:?} model={want:?}"),
        }
    }
    (t, arena, model)
}

proptest! {
    /// SlotTable agrees with a HashMap on membership and stored indices
    /// under arbitrary insert/lookup interleavings (duplicates included),
    /// and respects its structural invariants.
    #[test]
    fn slot_table_matches_hashmap_model(
        keys in proptest::collection::vec(any::<u64>(), 0..400),
    ) {
        let (t, arena, model) = run_slot_table(&keys);
        prop_assert_eq!(t.len(), model.len());
        // Every model key resolves; probe lengths are finite and the
        // table never exceeds its 7/8 load-factor contract.
        for (&k, &ix) in &model {
            let p = t.probe(fx_hash_word(k), |v| arena[v as usize] == k);
            prop_assert_eq!(p.found, Some(ix));
            prop_assert!((p.steps as usize) < t.capacity().max(1));
        }
        if t.capacity() > 0 {
            prop_assert!(t.capacity().is_power_of_two());
            prop_assert!(t.len() * 8 <= t.capacity() * 7);
        }
        // Negative lookups: keys never inserted must not be found.
        for &k in keys.iter().take(32) {
            let probe_key = k.wrapping_add(0x9e37_79b9_7f4a_7c15);
            if model.contains_key(&probe_key) {
                continue;
            }
            let p = t.probe(fx_hash_word(probe_key), |v| arena[v as usize] == probe_key);
            prop_assert!(p.found.is_none());
        }
    }

    /// Rebuilding over the same key sequence is bit-deterministic:
    /// capacity and every probe's step count match run for run (the
    /// property CI's probe-length gates rely on).
    #[test]
    fn slot_table_is_deterministic(
        keys in proptest::collection::vec(any::<u64>(), 0..300),
    ) {
        let trace = |keys: &[u64]| {
            let (t, arena, model) = run_slot_table(keys);
            let mut sorted: Vec<u64> = model.keys().copied().collect();
            sorted.sort_unstable();
            let steps: Vec<u32> = sorted
                .iter()
                .map(|&k| t.probe(fx_hash_word(k), |v| arena[v as usize] == k).steps)
                .collect();
            (t.capacity(), t.len(), steps)
        };
        prop_assert_eq!(trace(&keys), trace(&keys));
    }

    /// ComputedTable soundness: a hit always returns the most recent
    /// value inserted for that exact key (misses are allowed — it is a
    /// cache — but wrong values never), whatever the tag, and the per-tag
    /// counters reconcile with the operation log. Key words mix a small
    /// domain with their full range, so that repeats, cross-tag twins and
    /// collisions happen; runs are drawn from a small pool of handles.
    #[test]
    fn computed_table_never_returns_a_stale_or_foreign_value(
        ops in proptest::collection::vec(
            (
                any::<bool>(),
                0usize..8,
                prop_oneof![0u64..64, any::<u64>()],
                prop_oneof![0u32..64, 0u32..(1 << 27)],
                0u32..1000,
            ),
            0..400,
        ),
    ) {
        let mut m = Mtbdd::new();
        let handles: Vec<NodeRef> = (0..8).map(|i| m.constant(Ratio::int(i))).collect();
        let mut c = ComputedTable::new();
        let mut model: HashMap<Key, u32> = HashMap::new();
        let mut lookups = 0u64;
        for (is_insert, tag, w0, payload, val) in ops {
            let key = match Tag::ALL[tag] {
                Tag::Sum => {
                    let len = 1 + (w0 % 5) as usize;
                    let run = (0..len).map(|i| handles[(w0 as usize >> (3 * i)) % 8]).collect();
                    Key::Run(run, payload % 4)
                }
                Tag::Ite => Key::Words(w0, payload),
                t => Key::Words(w0, tagged(t, payload)),
            };
            if is_insert {
                match &key {
                    Key::Words(w0, w1) => c.insert(*w0, *w1, val),
                    Key::Run(run, k) => c.insert_run(run, *k, val),
                }
                model.insert(key, val);
            } else {
                lookups += 1;
                let got = match &key {
                    Key::Words(w0, w1) => c.get(*w0, *w1),
                    Key::Run(run, k) => c.get_run(run, *k),
                };
                // An eviction may have dropped the entry, but a resident
                // value must be exactly the last insert.
                if let Some(got) = got {
                    prop_assert_eq!(Some(&got), model.get(&key));
                }
            }
        }
        let stats = Tag::ALL.map(|t| c.stats(t));
        prop_assert_eq!(stats.iter().map(|s| s.hits + s.misses).sum::<u64>(), lookups);
        prop_assert_eq!(stats.iter().map(|s| s.resident).sum::<usize>(), c.len());
        prop_assert!(c.len() <= model.len());
        prop_assert!(c.len() <= c.capacity());
    }

    /// Every kernel shares the one table: on random interleavings of all
    /// of them on one manager, each result is the handle the same call
    /// returns after `clear_caches` on an empty table.
    #[test]
    fn interleaved_kernels_recompute_to_the_same_handle(
        consts in proptest::collection::vec(-4i64..=4, 2..5),
        steps in proptest::collection::vec(arb_step(), 1..40),
    ) {
        let mut m = Mtbdd::new();
        m.fresh_vars(NVARS);
        let mut pool: Vec<NodeRef> = (0..NVARS).map(|v| m.var_guard(v)).collect();
        pool.extend(consts.iter().map(|&c| m.constant(Ratio::int(c))));
        for step in &steps {
            let first = run_step(&mut m, &pool, step);
            m.clear_caches();
            let again = run_step(&mut m, &pool, step);
            prop_assert_eq!(&first, &again, "{:?}", step);
            pool.extend(first);
        }
    }
}
