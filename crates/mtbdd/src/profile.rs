//! Read-only engine introspection for performance attribution.
//!
//! The ROADMAP's MTBDD work (variable ordering, cache sizing) needs to
//! know *where* an arena's nodes and memory actually go. This module
//! answers two questions without perturbing the engine:
//!
//! * **Where do the nodes live?** [`Mtbdd::level_profile`] walks the
//!   sub-diagrams reachable from a root set and histograms live inner
//!   nodes per variable level — the raw input to any variable-ordering
//!   decision. The walk is a read-only DFS over existing handles; it
//!   allocates nothing in the arena and therefore cannot change any
//!   verdict.
//! * **How do the operation caches behave?** [`Mtbdd::cache_profiles`]
//!   reports, for each direct-mapped operation cache (`apply`, `fused`,
//!   `apply1`, `ite`, `restrict`, `kreduce`), for the two hash-map memos
//!   (`sum`, the n-ary aggregate; `range`, the per-node terminal range)
//!   and for the open-addressed unique table,
//!   the current size, load factor, heap bytes, and cumulative
//!   hit/miss/eviction counters. The unique table additionally exposes
//!   its *measured* linear-probe distribution (see [`ProbeStats`]) —
//!   real counters from the hot path, not a simulation; direct-mapped
//!   caches probe exactly one slot by construction.
//!
//! Both are reads of state the engine keeps anyway, so nothing here
//! needs a switch: no kernel pays for them until they are called.

use crate::hasher::FxHashMap;
use crate::manager::Mtbdd;
use crate::node::{NodeRef, Var};
use crate::table::DirectCache;

/// Live inner nodes at one variable level (see [`Mtbdd::level_profile`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub struct LevelCount {
    /// The variable tested at this level.
    pub var: Var,
    /// Inner nodes testing `var` reachable from the root set.
    pub nodes: usize,
}

/// A live-node histogram per variable level, from [`Mtbdd::level_profile`].
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize)]
pub struct LevelProfile {
    /// Non-empty levels in variable order (top of the diagram first).
    pub levels: Vec<LevelCount>,
    /// Total inner nodes reachable from the roots (equals the sum of
    /// `levels[..].nodes`; proptested against [`Mtbdd::node_count`]).
    pub inner_nodes: usize,
    /// Distinct terminals reachable from the roots.
    pub terminals: usize,
}

impl LevelProfile {
    /// The level with the most live nodes, if any.
    pub fn widest(&self) -> Option<LevelCount> {
        self.levels.iter().copied().max_by_key(|l| l.nodes)
    }
}

/// Probe-length distribution of a table.
///
/// For the open-addressed unique table these are *measured* counters
/// from the hot path: the probe length of a lookup is the number of
/// occupied slots inspected beyond the home slot (0 = direct hit).
/// Direct-mapped operation caches inspect exactly one slot by
/// construction, so they report a mean of 0 and a `direct_fraction`
/// of 1 whenever any entries are resident.
#[derive(Debug, Clone, Copy, Default, PartialEq, serde::Serialize)]
pub struct ProbeStats {
    /// Mean probe length over all lookups (keys for direct caches).
    pub mean: f64,
    /// Worst probe length observed.
    pub max: usize,
    /// Fraction of lookups resolved with zero displacement.
    pub direct_fraction: f64,
}

/// A profile of one operation cache, from [`Mtbdd::cache_profiles`].
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct CacheProfile {
    /// Which table: `"apply"`, `"fused"`, `"apply1"`, `"ite"`,
    /// `"restrict"`, `"kreduce"`, `"sum"`, `"range"`, or `"unique"`.
    pub name: &'static str,
    /// Entries resident right now.
    pub len: usize,
    /// Allocated capacity of the real table.
    pub capacity: usize,
    /// `len / capacity` (0 for an unallocated table).
    pub load_factor: f64,
    /// Heap bytes the table holds, from its allocated size (see
    /// [`Mtbdd::arena_bytes`], which sums these rows).
    pub bytes: usize,
    /// Cumulative lookup hits (survives GC).
    pub hits: u64,
    /// Cumulative lookup misses (survives GC).
    pub misses: u64,
    /// Cumulative entries dropped: per-slot overwrites in the
    /// direct-mapped caches plus wholesale invalidations by
    /// [`Mtbdd::clear_caches`] and GC. For the unique table this is the
    /// cumulative node count reclaimed by GC.
    pub evictions: u64,
    /// Probe-length distribution (measured for the unique table;
    /// trivially direct for the direct-mapped caches; not measured —
    /// all zero — for the `"sum"` and `"range"` hash maps).
    pub probe: ProbeStats,
}

/// `len / capacity`, 0 for an unallocated table.
pub(crate) fn load_factor(len: usize, cap: usize) -> f64 {
    if cap == 0 {
        0.0
    } else {
        len as f64 / cap as f64
    }
}

/// Heap bytes of a hash map: hashbrown allocates `capacity · 8/7`
/// buckets (`capacity + 1` below eight), each holding a `(K, V)` pair and
/// one control byte.
pub(crate) fn map_bytes<K, V>(map: &FxHashMap<K, V>) -> usize {
    let cap = map.capacity();
    let buckets = match cap {
        0 => 0,
        1..=7 => cap + 1,
        _ => cap / 7 * 8,
    };
    buckets * (std::mem::size_of::<(K, V)>() + 1)
}

/// Profile of a direct-mapped cache: one slot per key, so the probe
/// distribution is degenerate (mean 0, everything direct).
fn direct_profile(name: &'static str, c: &DirectCache) -> CacheProfile {
    let (len, cap) = (c.len(), c.capacity());
    CacheProfile {
        name,
        len,
        capacity: cap,
        load_factor: load_factor(len, cap),
        bytes: c.heap_bytes(),
        hits: c.hits(),
        misses: c.misses(),
        evictions: c.evictions(),
        probe: ProbeStats {
            mean: 0.0,
            max: 0,
            direct_fraction: if len > 0 { 1.0 } else { 0.0 },
        },
    }
}

/// Profile of a hash-map memo with its cumulative
/// `[hits, misses, evictions]`; probe lengths are not measured.
fn map_profile<K, V>(
    name: &'static str,
    map: &FxHashMap<K, V>,
    [hits, misses, evictions]: [u64; 3],
) -> CacheProfile {
    CacheProfile {
        name,
        len: map.len(),
        capacity: map.capacity(),
        load_factor: load_factor(map.len(), map.capacity()),
        bytes: map_bytes(map),
        hits,
        misses,
        evictions,
        probe: ProbeStats::default(),
    }
}

impl Mtbdd {
    /// Histograms the live inner nodes reachable from `roots` per
    /// variable level. Read-only: allocates nothing in the arena.
    ///
    /// The sum of the per-level counts equals the size of the union of
    /// the root sub-diagrams (node-for-node what [`Mtbdd::node_count`]
    /// reports for a single root), which the proptest suite asserts.
    pub fn level_profile(&self, roots: &[NodeRef]) -> LevelProfile {
        let mut seen = std::collections::HashSet::new();
        let mut per_var: std::collections::BTreeMap<Var, usize> = std::collections::BTreeMap::new();
        let mut terminals = std::collections::HashSet::new();
        let mut stack: Vec<NodeRef> = roots.to_vec();
        let mut inner_nodes = 0usize;
        while let Some(r) = stack.pop() {
            if r.is_terminal() {
                terminals.insert(r);
                continue;
            }
            if !seen.insert(r) {
                continue;
            }
            inner_nodes += 1;
            let n = self.node_at(r);
            *per_var.entry(n.var).or_insert(0) += 1;
            stack.push(n.lo);
            stack.push(n.hi);
        }
        LevelProfile {
            levels: per_var
                .into_iter()
                .map(|(var, nodes)| LevelCount { var, nodes })
                .collect(),
            inner_nodes,
            terminals: terminals.len(),
        }
    }

    /// Profiles the six direct-mapped operation caches, the two hash-map
    /// memos (`"sum"`, the n-ary aggregate, and `"range"`, the per-node
    /// terminal range: entries leave them only through
    /// [`Mtbdd::clear_caches`]/GC) and the open-addressed unique table:
    /// sizes, cumulative hit/miss/eviction counters, and the probe-length
    /// distribution (measured on the hot path for the unique table,
    /// degenerate for the direct-mapped caches, absent for the maps).
    /// Read-only and deterministic. The first two entries are always
    /// `"apply"` and `"fused"`.
    pub fn cache_profiles(&self) -> Vec<CacheProfile> {
        let ups = self.unique_probe_stats();
        vec![
            direct_profile("apply", &self.apply_cache),
            direct_profile("fused", &self.fused_cache),
            direct_profile("apply1", &self.apply1_cache),
            direct_profile("ite", &self.ite_cache),
            direct_profile("restrict", &self.restrict_cache),
            direct_profile("kreduce", &self.kreduce_cache),
            map_profile(
                "sum",
                &self.sum_cache,
                [self.sum_hits, self.sum_misses, self.sum_evictions],
            ),
            map_profile(
                "range",
                &self.range_cache,
                [self.range_hits, self.range_misses, self.range_evictions],
            ),
            CacheProfile {
                name: "unique",
                len: self.unique_table_len(),
                capacity: self.unique.capacity(),
                load_factor: self.unique_table_load_factor(),
                bytes: self.unique.capacity() * std::mem::size_of::<u32>(),
                hits: ups.hits,
                misses: ups.lookups - ups.hits,
                evictions: self.gc_reclaimed,
                probe: ProbeStats {
                    mean: ups.mean(),
                    max: ups.max_steps as usize,
                    direct_fraction: if ups.lookups == 0 {
                        0.0
                    } else {
                        ups.direct as f64 / ups.lookups as f64
                    },
                },
            },
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Ratio, Term};

    #[test]
    fn level_profile_counts_union_of_roots() {
        let mut m = Mtbdd::new();
        let (x1, x2, x3) = (m.fresh_var(), m.fresh_var(), m.fresh_var());
        let g1 = m.var_guard(x1);
        let g2 = m.var_guard(x2);
        let g3 = m.var_guard(x3);
        let a = m.add(g1, g2); // tests x1 and x2
        let b = m.add(g2, g3); // tests x2 and x3
        let p = m.level_profile(&[a, b]);
        assert_eq!(p.inner_nodes, p.levels.iter().map(|l| l.nodes).sum());
        let at = |v: Var| p.levels.iter().find(|l| l.var == v).map(|l| l.nodes);
        assert_eq!(at(x1), Some(1));
        assert!(
            at(x2).unwrap() >= 2,
            "both roots test x2 with distinct children"
        );
        // Levels come out in variable order.
        let vars: Vec<Var> = p.levels.iter().map(|l| l.var).collect();
        let mut sorted = vars.clone();
        sorted.sort_unstable();
        assert_eq!(vars, sorted);
    }

    #[test]
    fn level_profile_single_root_matches_node_count() {
        let mut m = Mtbdd::new();
        let vars: Vec<_> = (0..5).map(|_| m.fresh_var()).collect();
        let mut f = m.zero();
        for (i, &v) in vars.iter().enumerate() {
            let g = m.var_guard(v);
            let s = m.scale(g, Term::Num(Ratio::new(1, i as i128 + 1)));
            f = m.add(f, s);
        }
        let p = m.level_profile(&[f]);
        assert_eq!(p.inner_nodes, m.node_count(f));
        assert!(p.terminals > 0);
        assert_eq!(
            p.widest().unwrap().nodes,
            p.levels.iter().map(|l| l.nodes).max().unwrap()
        );
    }

    #[test]
    fn level_profile_of_terminal_is_empty() {
        let mut m = Mtbdd::new();
        let c = m.constant(Ratio::int(7));
        let p = m.level_profile(&[c]);
        assert_eq!(p.inner_nodes, 0);
        assert!(p.levels.is_empty());
        assert_eq!(p.terminals, 1);
        assert_eq!(m.level_profile(&[]), LevelProfile::default());
    }

    #[test]
    fn cache_profiles_report_occupancy_and_evictions() {
        let mut m = Mtbdd::new();
        let (x1, x2) = (m.fresh_var(), m.fresh_var());
        let g1 = m.var_guard(x1);
        let g2 = m.var_guard(x2);
        let s = m.add(g1, g2);
        let _ = m.add_kreduce(s, g1, 1);
        let ng2 = m.nvar_guard(x2);
        let _ = m.sum_kreduce(&[s, g1, ng2], 1);
        let _ = m.sum_kreduce(&[ng2, s, g1], 1);
        let _ = (m.terminal_range(s), m.terminal_range(s));
        let profiles = m.cache_profiles();
        assert_eq!(profiles.len(), 9);
        let names: Vec<&str> = profiles.iter().map(|p| p.name).collect();
        assert_eq!(
            names,
            ["apply", "fused", "apply1", "ite", "restrict", "kreduce", "sum", "range", "unique"]
        );
        let apply = &profiles[0];
        assert_eq!(apply.name, "apply");
        assert!(apply.len > 0 && apply.capacity >= apply.len);
        assert!(apply.load_factor > 0.0 && apply.load_factor <= 1.0);
        assert!(apply.misses > 0);
        assert!(apply.probe.mean >= 0.0 && apply.probe.direct_fraction > 0.0);
        let fused = &profiles[1];
        assert_eq!(fused.name, "fused");
        assert!(fused.len > 0);
        // The n-ary memo: the reordered list is the same sorted key.
        let sum = &profiles[6];
        assert!(sum.len > 0 && sum.capacity >= sum.len);
        assert!(sum.misses > 0);
        assert_eq!(sum.hits, 1);
        let stats = m.stats();
        assert_eq!(
            (sum.hits, sum.misses),
            (stats.sum_cache_hits, stats.sum_cache_misses)
        );
        // The range memo: one entry per inner node of `s`, the second
        // call answered at the root.
        let range = &profiles[7];
        assert_eq!((range.len, range.misses), (m.node_count(s), 3));
        assert_eq!(range.hits, 1);
        let _ = m.var_guard(x1); // re-create an existing node: a unique-table hit
        let profiles = m.cache_profiles();
        let unique = &profiles[8];
        assert!(unique.len > 0, "arena nodes live in the unique table");
        assert!(unique.hits > 0, "hash-consing must have deduped something");
        assert!(unique.probe.direct_fraction > 0.0);
        assert_eq!(unique.bytes, 4 * unique.capacity);
        // Bytes: 16 per direct-mapped slot, every map bucket (more of them
        // than the map's capacity) one `(K, V)` pair plus a control byte,
        // and the rows sum to no more than the whole arena.
        for p in &profiles[..6] {
            assert_eq!(p.bytes, 16 * p.capacity, "{}", p.name);
        }
        let sum_entry = std::mem::size_of::<(crate::fused::SumKey, NodeRef)>() + 1;
        assert!(profiles[6].bytes > sum_entry * profiles[6].capacity);
        let total: usize = profiles.iter().map(|p| p.bytes).sum();
        assert!(total > 0 && total <= m.arena_bytes());
        // Dropping the caches books every resident entry as an eviction.
        let (apply_before, fused_before) = (apply.evictions, fused.evictions);
        let (apply_len, fused_len) = (apply.len as u64, fused.len as u64);
        m.clear_caches();
        let after = m.cache_profiles();
        assert_eq!(after[0].len, 0);
        assert_eq!(after[0].evictions, apply_before + apply_len);
        assert_eq!(after[1].evictions, fused_before + fused_len);
        assert_eq!((after[6].len, after[6].evictions), (0, sum.len as u64));
        assert_eq!((after[7].len, after[7].evictions), (0, range.len as u64));
        // Cumulative counters survive the clear.
        assert!(after[0].misses > 0);
    }

    #[test]
    fn direct_caches_probe_exactly_one_slot() {
        let mut m = Mtbdd::new();
        let (x1, x2) = (m.fresh_var(), m.fresh_var());
        let g1 = m.var_guard(x1);
        let g2 = m.var_guard(x2);
        let _ = m.add(g1, g2);
        for p in &m.cache_profiles()[..6] {
            assert_eq!(p.probe.mean, 0.0, "{} is direct-mapped", p.name);
            assert_eq!(p.probe.max, 0);
            if p.len > 0 {
                assert_eq!(p.probe.direct_fraction, 1.0);
            }
        }
    }
}
