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
//! * **How do the tables behave?** [`Mtbdd::cache_profiles`] reports
//!   one row per kernel of the computed table (`apply`, `fused`,
//!   `apply1`, `ite`, `restrict`, `kreduce`, `sum`, `range`), one for
//!   the computed table as a whole, one for the terminal table and one
//!   for the unique table: resident entries, capacity, load factor, heap
//!   bytes, and cumulative hit/miss/eviction counters. The unique table
//!   additionally exposes its *measured* linear-probe distribution (see
//!   [`ProbeStats`]) — real counters from the hot path, not a
//!   simulation; the direct-mapped computed table probes exactly one
//!   slot by construction.
//!
//! Both are reads of state the engine keeps anyway, so nothing here
//! needs a switch: no kernel pays for them until they are called.

use crate::manager::Mtbdd;
use crate::node::{Node, NodeRef, Var};
use crate::table::{Tag, TagStats};
use crate::terminal::Term;

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
/// The direct-mapped computed table inspects exactly one slot by
/// construction, so its rows report a mean of 0 and a
/// `direct_fraction` of 1 whenever any entries are resident.
#[derive(Debug, Clone, Copy, Default, PartialEq, serde::Serialize)]
pub struct ProbeStats {
    /// Mean probe length over all lookups (keys for direct caches).
    pub mean: f64,
    /// Worst probe length observed.
    pub max: usize,
    /// Fraction of lookups resolved with zero displacement.
    pub direct_fraction: f64,
}

/// A profile of one table, from [`Mtbdd::cache_profiles`].
///
/// The eight kernel rows (`"apply"`, `"fused"`, `"apply1"`, `"ite"`,
/// `"restrict"`, `"kreduce"`, `"sum"`, `"range"`) share the computed
/// table: `len` is the kernel's resident entries and `capacity` the
/// shared table's, so `load_factor` is the kernel's share of it. The
/// `"computed"` row is the table itself, `"terminals"` the terminal
/// table and `"unique"` the unique table.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct CacheProfile {
    /// Which row: a kernel name, `"computed"`, `"terminals"` or
    /// `"unique"`.
    pub name: &'static str,
    /// Entries resident right now (terminals or inner nodes for the two
    /// interning tables).
    pub len: usize,
    /// Allocated capacity of the table.
    pub capacity: usize,
    /// `len / capacity` (0 for an unallocated table).
    pub load_factor: f64,
    /// Heap bytes the table holds, from its allocated size: 16 per entry
    /// on `"computed"`, 4 per slot on `"terminals"` and `"unique"`, the
    /// operand-run arena on `"sum"`, 0 on the other kernel rows.
    pub bytes: usize,
    /// Heap bytes of the pool the table indexes or keeps beside it: the
    /// terminal values on `"terminals"`, the node arena on `"unique"`,
    /// the growth rule's shadow on `"computed"`, 0 elsewhere.
    /// [`Mtbdd::arena_bytes`] is the sum of `bytes + pool_bytes` over
    /// every row.
    pub pool_bytes: usize,
    /// Cumulative lookup hits (survives GC; the total of the kernel rows
    /// on `"computed"`).
    pub hits: u64,
    /// Cumulative lookup misses (survives GC). On `"terminals"` and
    /// `"unique"` a miss creates the terminal or node.
    pub misses: u64,
    /// Cumulative entries dropped: collision overwrites in the computed
    /// table plus wholesale invalidations by [`Mtbdd::clear_caches`] and
    /// GC. For the two interning tables this is the cumulative count GC
    /// reclaimed.
    pub evictions: u64,
    /// Probe-length distribution (measured for the unique table;
    /// trivially direct for the computed table; not measured — all zero
    /// — for the terminal table).
    pub probe: ProbeStats,
    /// Cumulative misses on keys the computed table's shadow samples (1
    /// in 16 of a ceiling-sized table's slots). On `"computed"` only, 0
    /// elsewhere.
    pub sampled: u64,
    /// Of `sampled`, the misses a ceiling-sized table would have
    /// answered: the share the growth rule reads. On `"computed"` only.
    pub shadow_hits: u64,
}

/// `len / capacity`, 0 for an unallocated table.
pub(crate) fn load_factor(len: usize, cap: usize) -> f64 {
    if cap == 0 {
        0.0
    } else {
        len as f64 / cap as f64
    }
}

/// Probe stats of a direct-mapped table: one slot per key, so the
/// distribution is degenerate (mean 0, everything direct).
fn direct_probe(len: usize) -> ProbeStats {
    ProbeStats {
        mean: 0.0,
        max: 0,
        direct_fraction: if len > 0 { 1.0 } else { 0.0 },
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

    /// Profiles the computed table per kernel tag and as a whole, the
    /// terminal table and the unique table: sizes, cumulative
    /// hit/miss/eviction counters, bytes, and the probe-length
    /// distribution (measured on the hot path for the unique table,
    /// degenerate for the direct-mapped computed table). Read-only and
    /// deterministic. The rows come in the order `"apply"`, `"fused"`,
    /// `"apply1"`, `"ite"`, `"restrict"`, `"kreduce"`, `"sum"`,
    /// `"range"`, `"computed"`, `"terminals"`, `"unique"`.
    pub fn cache_profiles(&self) -> Vec<CacheProfile> {
        let table = &self.computed;
        let cap = table.capacity();
        let row = |name, s: TagStats, bytes| CacheProfile {
            name,
            len: s.resident,
            capacity: cap,
            load_factor: load_factor(s.resident, cap),
            bytes,
            pool_bytes: 0,
            hits: s.hits,
            misses: s.misses,
            evictions: s.evictions,
            probe: direct_probe(s.resident),
            sampled: 0,
            shadow_hits: 0,
        };
        let mut rows: Vec<CacheProfile> = Tag::ALL
            .iter()
            .map(|&tag| {
                let bytes = if tag == Tag::Sum {
                    table.run_bytes()
                } else {
                    0
                };
                row(tag.name(), table.stats(tag), bytes)
            })
            .collect();
        let total = rows.iter().fold(TagStats::default(), |t, r| TagStats {
            hits: t.hits + r.hits,
            misses: t.misses + r.misses,
            evictions: t.evictions + r.evictions,
            resident: t.resident + r.len,
        });
        let (sampled, shadow_hits) = table.shadow_stats();
        rows.push(CacheProfile {
            pool_bytes: table.shadow_bytes(),
            sampled,
            shadow_hits,
            ..row("computed", total, table.heap_bytes())
        });
        let ups = self.unique_probe_stats();
        let slots = |cap: usize| cap * std::mem::size_of::<u32>();
        rows.push(CacheProfile {
            name: "terminals",
            len: self.terms.len(),
            capacity: self.term_ids.capacity(),
            load_factor: load_factor(self.terms.len(), self.term_ids.capacity()),
            bytes: slots(self.term_ids.capacity()),
            pool_bytes: self.terms.capacity() * std::mem::size_of::<Term>(),
            hits: self.term_hits,
            misses: self.terms.len() as u64 + self.terms_reclaimed,
            evictions: self.terms_reclaimed,
            probe: ProbeStats::default(),
            sampled: 0,
            shadow_hits: 0,
        });
        rows.push(CacheProfile {
            name: "unique",
            len: self.unique_table_len(),
            capacity: self.unique.capacity(),
            load_factor: self.unique_table_load_factor(),
            bytes: slots(self.unique.capacity()),
            pool_bytes: self.nodes.capacity() * std::mem::size_of::<Node>(),
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
            sampled: 0,
            shadow_hits: 0,
        });
        rows
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
        let names: Vec<&str> = profiles.iter().map(|p| p.name).collect();
        assert_eq!(
            names,
            [
                "apply",
                "fused",
                "apply1",
                "ite",
                "restrict",
                "kreduce",
                "sum",
                "range",
                "computed",
                "terminals",
                "unique"
            ]
        );
        let row = |name: &str| profiles.iter().find(|p| p.name == name).unwrap();
        let (apply, fused, computed) = (row("apply"), row("fused"), row("computed"));
        assert!(apply.len > 0 && apply.capacity >= apply.len);
        assert!(apply.load_factor > 0.0 && apply.load_factor <= 1.0);
        assert!(apply.misses > 0);
        assert!(apply.probe.mean >= 0.0 && apply.probe.direct_fraction > 0.0);
        assert!(fused.len > 0);
        // The kernel rows partition the one table.
        let kernels = &profiles[..8];
        assert!(kernels.iter().all(|p| p.capacity == computed.capacity));
        assert_eq!(kernels.iter().map(|p| p.len).sum::<usize>(), computed.len);
        assert_eq!(kernels.iter().map(|p| p.hits).sum::<u64>(), computed.hits);
        assert_eq!(computed.bytes, 16 * computed.capacity);
        // The n-ary memo: the reordered list is the same sorted key.
        let sum = row("sum");
        assert!(sum.len > 0 && sum.misses > 0);
        assert_eq!(sum.hits, 1);
        assert!(sum.bytes > 0, "the operand runs live in the run arena");
        let stats = m.stats();
        assert_eq!(
            (sum.hits, sum.misses),
            (stats.sum_cache_hits, stats.sum_cache_misses)
        );
        // The range memo: two entries (min, max) per inner node of `s`,
        // the second call answered at the root.
        let range = row("range");
        assert_eq!((range.len, range.misses), (2 * m.node_count(s), 3));
        assert_eq!(range.hits, 1);
        // Terminals: 0, 1 and +∞ from the start, then the sums; with no
        // collection, every terminal ever created is still there.
        let terminals = row("terminals");
        assert!(terminals.len > 3);
        assert_eq!(terminals.misses, terminals.len as u64);
        assert!(terminals.hits > 0, "results that are 0 or 1 re-intern them");
        assert_eq!(terminals.bytes, 4 * terminals.capacity);
        assert_eq!(terminals.pool_bytes % std::mem::size_of::<Term>(), 0);
        assert!(terminals.pool_bytes >= 4 * std::mem::size_of::<Term>());
        let _ = m.var_guard(x1); // re-create an existing node: a unique-table hit
        let profiles = m.cache_profiles();
        let unique = &profiles[10];
        assert_eq!(unique.name, "unique");
        assert!(unique.len > 0, "arena nodes live in the unique table");
        assert!(unique.hits > 0, "hash-consing must have deduped something");
        assert!(unique.probe.direct_fraction > 0.0);
        assert_eq!(unique.bytes, 4 * unique.capacity);
        assert!(unique.pool_bytes >= 16 * unique.len, "16-byte nodes");
        // The rows are the whole arena.
        let total: usize = profiles.iter().map(|p| p.bytes + p.pool_bytes).sum();
        assert_eq!(total, m.arena_bytes());
        // Dropping the caches books every resident entry as an eviction.
        let (apply_before, fused_before) = (apply.evictions, fused.evictions);
        let (apply_len, fused_len) = (apply.len as u64, fused.len as u64);
        m.clear_caches();
        let after = m.cache_profiles();
        assert_eq!(after[0].len, 0);
        assert_eq!(after[0].evictions, apply_before + apply_len);
        assert_eq!(after[1].evictions, fused_before + fused_len);
        assert_eq!((after[6].len, after[6].evictions), (0, sum.len as u64));
        // ...and frees nothing: the run arena and the entry array stay.
        assert_eq!(
            (after[6].bytes, after[8].bytes),
            (sum.bytes, computed.bytes)
        );
        assert_eq!((after[7].len, after[7].evictions), (0, range.len as u64));
        // Cumulative counters survive the clear.
        assert!(after[0].misses > 0);
    }

    #[test]
    fn computed_rows_probe_exactly_one_slot() {
        let mut m = Mtbdd::new();
        let (x1, x2) = (m.fresh_var(), m.fresh_var());
        let g1 = m.var_guard(x1);
        let g2 = m.var_guard(x2);
        let _ = m.add(g1, g2);
        for p in &m.cache_profiles()[..9] {
            assert_eq!(p.probe.mean, 0.0, "{} is direct-mapped", p.name);
            assert_eq!(p.probe.max, 0);
            if p.len > 0 {
                assert_eq!(p.probe.direct_fraction, 1.0);
            }
        }
    }
}
