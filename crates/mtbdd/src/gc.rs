//! Garbage collection: mark-compact over the flat node arena.
//!
//! Verifying a TLP aggregates per-link symbolic loads whose intermediate
//! diagrams are dead the moment the link's terminals have been scanned —
//! but a hash-consing arena never frees nodes. [`Mtbdd::collect`] marks
//! the sub-diagrams reachable from a set of roots, slides the survivors
//! down in place, rebuilds the unique and terminal tables in place from
//! the compacted pools, and drops everything else (including every memo
//! entry of the computed table, whose capacity it keeps), returning the
//! old-to-new handle mapping so long-lived holders (guarded RIBs, flow
//! STFs) can remap. On production-sized runs this is the difference
//! between a bounded working set and memory exhaustion.
//!
//! The compaction slides ascending in one pass: the bump-allocated arena
//! guarantees every node's children have strictly lower indices, so by
//! the time a node is moved its children's new indices are already known.

use crate::hasher::fx_hash;
use crate::manager::{hash_node, Mtbdd};
use crate::node::NodeRef;
use crate::table::SlotTable;

/// The old-to-new handle mapping returned by [`Mtbdd::collect`].
///
/// Backed by two dense index tables (one for inner nodes, one for
/// terminals); handles that were not reachable from the collection roots
/// are not mapped and are invalid after the collection.
pub struct Remap {
    nodes: Vec<u32>,
    terms: Vec<u32>,
}

const DEAD: u32 = u32::MAX;

/// A reachable handle whose new index compaction has not yet written.
/// Bit 30 of a real handle is clear (`node.rs`), so neither sentinel is
/// ever a handle.
const MARKED: u32 = u32::MAX - 1;

impl Remap {
    /// Translates an old handle.
    ///
    /// # Panics
    /// Panics if `old` was not reachable from the collection roots.
    pub fn get(&self, old: NodeRef) -> NodeRef {
        self.try_get(old)
            .expect("NodeRef was not registered as a GC root")
    }

    /// Translates an old handle if it was live.
    pub fn try_get(&self, old: NodeRef) -> Option<NodeRef> {
        let table = if old.is_terminal() {
            &self.terms
        } else {
            &self.nodes
        };
        match table.get(old.index()) {
            Some(&raw) if raw != DEAD => Some(NodeRef(raw)),
            _ => None,
        }
    }
}

impl Mtbdd {
    /// Compacts the arena down to the sub-diagrams reachable from
    /// `roots`, freeing all other nodes and every memo entry.
    /// Returns the handle remapping; all previously held [`NodeRef`]s
    /// must be translated through it (or dropped). The singleton
    /// constants (`0`, `1`, `+∞`) always survive in place, but are only
    /// present in the remapping when reachable from a root.
    pub fn collect(&mut self, roots: &[NodeRef]) -> Remap {
        let before_nodes = self.nodes.len();

        // Mark phase: flag every node and terminal reachable from roots in
        // the remap vectors themselves, which compaction then overwrites
        // with the new handles — one vector per pool.
        let mut node_new = vec![DEAD; self.nodes.len()];
        let mut term_new = vec![DEAD; self.terms.len()];
        let mut stack: Vec<NodeRef> = roots.to_vec();
        while let Some(r) = stack.pop() {
            if r.is_terminal() {
                term_new[r.index()] = MARKED;
                continue;
            }
            if node_new[r.index()] == MARKED {
                continue;
            }
            node_new[r.index()] = MARKED;
            let n = self.nodes[r.index()];
            stack.push(n.lo);
            stack.push(n.hi);
        }

        // Compact terminals. The singleton constants are kept alive even
        // when unmarked — the manager hands out their handles without
        // going through the remap — but only marked terminals enter it.
        let constants = [self.zero(), self.one(), self.pos_inf()];
        let unmarked = constants.map(|c| term_new[c.index()] == DEAD);
        for c in constants {
            term_new[c.index()] = MARKED;
        }
        // Survivors slide down in place, as the nodes do below.
        let mut write = 0usize;
        for (ix, slot) in term_new.iter_mut().enumerate() {
            if *slot == MARKED {
                *slot = NodeRef::terminal(write).0;
                self.terms.swap(write, ix);
                write += 1;
            }
        }
        debug_assert_eq!(NodeRef(term_new[self.zero().index()]), self.zero());
        debug_assert_eq!(NodeRef(term_new[self.one().index()]), self.one());
        debug_assert_eq!(NodeRef(term_new[self.pos_inf().index()]), self.pos_inf());
        // The constants stay where they were; those no root reached leave
        // the remap.
        for (c, unmarked) in constants.iter().zip(unmarked) {
            if unmarked {
                term_new[c.index()] = DEAD;
            }
        }
        self.terms_reclaimed += (self.terms.len() - write) as u64;
        self.terms.truncate(write);
        let terms = &self.terms;
        rebuild(&mut self.term_ids, terms.iter().map(fx_hash), |ix| {
            fx_hash(&terms[ix as usize])
        });

        // Compact nodes, sliding survivors down in ascending order. Bump
        // allocation guarantees children precede parents, so child
        // remappings are always resolved before they are read.
        let mut write = 0usize;
        for ix in 0..self.nodes.len() {
            if node_new[ix] != MARKED {
                continue;
            }
            let n = self.nodes[ix];
            let remap_child = |r: NodeRef| {
                if r.is_terminal() {
                    NodeRef(term_new[r.index()])
                } else {
                    NodeRef(node_new[r.index()])
                }
            };
            let (lo, hi) = (remap_child(n.lo), remap_child(n.hi));
            debug_assert!(lo.0 != DEAD && hi.0 != DEAD, "live node with dead child");
            // The all-alive terminal ends the hi-spine, so it was marked
            // with the node.
            let alive = remap_child(n.alive);
            debug_assert!(alive.0 != DEAD, "live node with dead all-alive terminal");
            self.nodes[write] = crate::node::Node {
                var: n.var,
                lo,
                hi,
                alive,
            };
            node_new[ix] = NodeRef::inner(write).0;
            write += 1;
        }
        self.nodes.truncate(write);

        let nodes = &self.nodes;
        rebuild(&mut self.unique, nodes.iter().map(hash_node), |ix| {
            hash_node(&nodes[ix as usize])
        });

        // Every resident memo entry refers to pre-compaction handles:
        // drop them all (each is booked as an eviction of its kernel).
        self.clear_caches();

        // Cumulative counters survive in place; fold in this collection.
        self.unique_peak = self.unique_peak.max(before_nodes);
        self.gc_runs += 1;
        self.gc_reclaimed += (before_nodes - write) as u64;

        let remap = Remap {
            nodes: node_new,
            terms: term_new,
        };
        if self.audit_on() {
            let live: Vec<NodeRef> = roots.iter().map(|&r| remap.get(r)).collect();
            self.audit(&live).assert_ok("post-GC arena");
        }
        remap
    }
}

/// Empties `table` in place and re-inserts a compacted pool, whose
/// entries hash to `hashes` in index order. The slot array is reused, not
/// grown afresh beside the old one: the survivors are at most what it
/// held.
fn rebuild(table: &mut SlotTable, hashes: impl Iterator<Item = u64>, hash_of: impl Fn(u32) -> u64) {
    table.clear();
    for (i, hash) in hashes.enumerate() {
        table.insert_new(hash, i as u32, &hash_of);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Ratio, Term};

    #[test]
    fn collect_preserves_live_semantics_and_frees_garbage() {
        let mut m = Mtbdd::new();
        let (x1, x2, x3) = (m.fresh_var(), m.fresh_var(), m.fresh_var());
        let g1 = m.var_guard(x1);
        let g2 = m.var_guard(x2);
        let live0 = m.scale(g1, Term::int(40));
        let live = m.add(live0, g2);
        // Garbage: a bunch of unrelated diagrams.
        for i in 0..50 {
            let g3 = m.var_guard(x3);
            let s = m.scale(g3, Term::int(i));
            let _ = m.add(s, g1);
        }
        let before = m.stats().live_nodes;
        let remap = m.collect(&[live]);
        let live2 = remap.get(live);
        let after = m.stats().live_nodes;
        assert!(
            after < before,
            "GC must shrink the arena ({after} vs {before})"
        );
        for bits in 0..8u32 {
            let assign = |v: u32| bits >> v & 1 == 1;
            let want = Ratio::int(40 * (bits & 1) as i64) + Ratio::int((bits >> 1 & 1) as i64);
            assert_eq!(m.eval(live2, assign), Term::Num(want));
        }
    }

    #[test]
    fn collect_tracks_gc_counters_and_peak() {
        let mut m = Mtbdd::new();
        let (x1, x2) = (m.fresh_var(), m.fresh_var());
        let g1 = m.var_guard(x1);
        let g2 = m.var_guard(x2);
        let live = m.add(g1, g2);
        for i in 0..20 {
            let s = m.scale(g2, Term::int(i));
            let _ = m.add(s, g1);
        }
        let before = m.stats();
        assert_eq!(before.gc_runs, 0);
        let _remap = m.collect(&[live]);
        let after = m.stats();
        assert_eq!(after.gc_runs, 1);
        assert!(after.gc_reclaimed_nodes > 0);
        assert_eq!(
            after.gc_reclaimed_nodes as usize,
            before.live_nodes - after.live_nodes
        );
        assert!(
            after.unique_table_peak >= before.live_nodes,
            "peak must remember the pre-GC table size"
        );
        // Work done is cumulative; only the gauges drop.
        assert_eq!(after.nodes_created, before.nodes_created);
        assert_eq!(after.terminals_created, before.terminals_created);
        assert!(after.live_terminals < before.live_terminals);
        // Hit/miss counters are cumulative across the collection.
        assert_eq!(after.apply_cache_misses, before.apply_cache_misses);
        assert_eq!(after.apply_cache_hits, before.apply_cache_hits);
        // A second collection keeps accumulating.
        let live2 = m.var_guard(x1);
        let _ = m.collect(&[live2]);
        assert_eq!(m.stats().gc_runs, 2);
    }

    #[test]
    fn collect_keeps_hash_consing_identities() {
        let mut m = Mtbdd::new();
        let x1 = m.fresh_var();
        let a = m.var_guard(x1);
        let b = m.nvar_guard(x1);
        let remap = m.collect(&[a, b]);
        let (a2, b2) = (remap.get(a), remap.get(b));
        assert_ne!(a2, b2);
        // Rebuilding the same functions reuses the copied nodes.
        assert_eq!(m.var_guard(x1), a2);
        assert_eq!(m.nvar_guard(x1), b2);
        // Dead handles are reported as such.
        assert!(remap.try_get(NodeRef(9999)).is_none());
    }

    #[test]
    fn collect_constants_survive() {
        let mut m = Mtbdd::new();
        let _ = m.fresh_var();
        let z = m.zero();
        let remap = m.collect(&[]);
        assert!(remap.try_get(z).is_none()); // not a root, so not mapped...
                                             // ...but the singleton constants of the fresh arena are intact.
        assert_eq!(m.eval_all_alive(m.zero()), Term::ZERO);
        assert_eq!(m.eval_all_alive(m.one()), Term::ONE);
    }

    #[test]
    fn ops_work_after_collection() {
        let mut m = Mtbdd::new();
        let (x1, x2) = (m.fresh_var(), m.fresh_var());
        let g1 = m.var_guard(x1);
        let g2 = m.var_guard(x2);
        let f = m.add(g1, g2);
        let remap = m.collect(&[f]);
        let f = remap.get(f);
        let g = m.var_guard(x1);
        let sum = m.add(f, g);
        assert_eq!(m.eval_all_alive(sum), Term::int(3));
        let r = m.kreduce(sum, 1);
        assert_eq!(m.eval_all_alive(r), Term::int(3));
    }

    #[test]
    fn collect_rebuilds_both_tables_in_place() {
        let mut m = Mtbdd::new();
        let (x1, x2, x3) = (m.fresh_var(), m.fresh_var(), m.fresh_var());
        let g1 = m.var_guard(x1);
        let mut live = vec![];
        for i in 0..400 {
            let g = m.var_guard(if i % 2 == 0 { x2 } else { x3 });
            let s = m.scale(g, Term::int(i + 2));
            let f = m.add(s, g1);
            if i % 7 == 0 {
                live.push(f);
            }
        }
        let (unique_cap, term_cap) = (m.unique.capacity(), m.term_ids.capacity());
        let computed_cap = m.computed.capacity();
        let remap = m.collect(&live);
        assert_eq!(
            (m.unique.capacity(), m.term_ids.capacity()),
            (unique_cap, term_cap),
            "the slot arrays are reused, not grown afresh"
        );
        assert_eq!(m.computed.capacity(), computed_cap);
        assert_eq!(m.unique.len(), m.live_nodes());
        assert_eq!(m.term_ids.len(), m.terms.len());
        // Every survivor is found where hash-consing looks for it.
        for ix in 0..m.live_nodes() {
            let n = m.nodes[ix];
            assert_eq!(m.node(n.var, n.lo, n.hi), NodeRef::inner(ix));
        }
        for ix in 0..m.terms.len() {
            let t = m.terms[ix].clone();
            assert_eq!(m.term(t), NodeRef::terminal(ix));
        }
        assert_eq!(m.live_nodes(), m.unique.len(), "no lookup created a node");
        for (i, f) in live.iter().enumerate() {
            let f = remap.get(*f);
            let want = Term::int(3 + 7 * i as i64);
            assert_eq!(m.eval_all_alive(f), want);
        }
    }

    #[test]
    fn collect_compacts_in_place_and_reuses_low_indices() {
        let mut m = Mtbdd::new();
        let (x1, x2) = (m.fresh_var(), m.fresh_var());
        // Garbage first, so live nodes start at high indices.
        for i in 0..30 {
            let g = m.var_guard(x2);
            let _ = m.scale(g, Term::int(i + 5));
        }
        let g1 = m.var_guard(x1);
        let g2 = m.var_guard(x2);
        let live = m.add(g1, g2);
        let old_index = live.index();
        let remap = m.collect(&[live]);
        let live2 = remap.get(live);
        assert!(
            live2.index() < old_index,
            "survivors must slide down ({} -> {})",
            old_index,
            live2.index()
        );
        assert!(live2.index() < m.live_nodes());
        assert_eq!(m.eval_all_alive(live2), Term::int(2));
    }
}
