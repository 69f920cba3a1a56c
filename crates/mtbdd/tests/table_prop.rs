//! Model-checking the flat hash structures behind the arena manager
//! (`yu_mtbdd::table`, exported `#[doc(hidden)]` for exactly this test):
//!
//! * [`SlotTable`] — the open-addressed unique table — against a
//!   `HashMap` reference model: after any interleaving of lookups and
//!   inserts of arbitrary keys, membership and the stored index must
//!   agree with the map, the load factor must stay at or below 7/8, and
//!   a rebuilt table over the same keys must give the same answers.
//! * [`DirectCache`] — the direct-mapped memo cache — for *soundness*
//!   against a `HashMap` of everything ever inserted: `get` may miss
//!   (eviction is allowed), but it must never return a value that
//!   differs from the last insert for that key, and the
//!   hits/misses/evictions counters must reconcile with the operation
//!   count.

use proptest::prelude::*;
use std::collections::HashMap;
use yu_mtbdd::hasher::fx_hash_word;
use yu_mtbdd::table::{DirectCache, SlotTable};

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

    /// DirectCache soundness: a hit always returns the most recent value
    /// inserted for that exact key (misses are allowed — it is a cache —
    /// but wrong values never), and its internal counters reconcile with
    /// the operation log. Key words span their full `u64` / `u32` range,
    /// mixed with a small domain so that repeats and collisions happen.
    #[test]
    fn direct_cache_never_returns_a_stale_or_foreign_value(
        ops in proptest::collection::vec(
            (
                any::<bool>(),
                prop_oneof![0u64..64, any::<u64>()],
                prop_oneof![0u32..64, any::<u32>()],
                0u32..1000,
            ),
            0..300,
        ),
    ) {
        let mut c = DirectCache::new();
        let mut model: HashMap<(u64, u32), u32> = HashMap::new();
        let mut lookups = 0u64;
        for (is_insert, w0, w1, val) in ops {
            if is_insert {
                c.insert(w0, w1, val);
                model.insert((w0, w1), val);
            } else {
                lookups += 1;
                match c.get(w0, w1) {
                    // An eviction may have dropped the entry, but a
                    // resident value must be exactly the last insert.
                    Some(got) => prop_assert_eq!(Some(&got), model.get(&(w0, w1))),
                    None => {}
                }
            }
        }
        prop_assert_eq!(c.hits() + c.misses(), lookups);
        prop_assert!(c.len() <= model.len());
        prop_assert!(c.len() <= c.capacity());
    }
}
