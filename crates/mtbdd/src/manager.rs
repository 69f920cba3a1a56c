//! The MTBDD manager: hash-consed node storage, the generic `apply`
//! operation, ITE, restriction, and evaluation.
//!
//! A [`Mtbdd`] owns every node; user code holds [`NodeRef`] handles. Thanks
//! to hash-consing, structural equality of functions is pointer equality of
//! handles — the property that makes both `KREDUCE`'s sub-graph merging
//! (§5.2 of the paper) and link-local flow equivalence (§5.3) O(1) checks.

use crate::hasher::{fx_hash, fx_hash_words};
use crate::node::{Node, NodeRef, Var};
use crate::table::{tagged, ComputedTable, SlotTable, Tag, BUDGET_BITS};
use crate::terminal::Term;
use crate::Ratio;

/// Binary operations supported by [`Mtbdd::apply`].
///
/// The comparison variants produce 0/1 guard MTBDDs; `Or`/`And` expect 0/1
/// operands (checked in debug builds).
///
/// Discriminants are explicit because the computed table packs `Op` into
/// its key words; [`Op::from_index`] must invert `as u8`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Op {
    /// Pointwise addition.
    Add = 0,
    /// Pointwise subtraction.
    Sub = 1,
    /// Pointwise multiplication (`0 * inf = 0`).
    Mul = 2,
    /// Division with the `0/0 = 0` convention of the ECMP encoding.
    Div = 3,
    /// Pointwise minimum.
    Min = 4,
    /// Pointwise maximum.
    Max = 5,
    /// Boolean disjunction of 0/1 guards.
    Or = 6,
    /// Boolean conjunction of 0/1 guards (same as `Mul` on 0/1 operands).
    And = 7,
    /// `1` where the operands are equal, else `0`.
    EqGuard = 8,
    /// `1` where the left operand is strictly smaller, else `0`.
    LtGuard = 9,
}

impl Op {
    /// Every operator, in discriminant order (`ALL[op as usize] == op`).
    pub const ALL: [Op; 10] = [
        Op::Add,
        Op::Sub,
        Op::Mul,
        Op::Div,
        Op::Min,
        Op::Max,
        Op::Or,
        Op::And,
        Op::EqGuard,
        Op::LtGuard,
    ];

    /// Inverse of `as u8`, used to decode packed cache keys (audit
    /// sampling). Panics on an index no variant carries.
    pub(crate) fn from_index(i: u8) -> Op {
        *Op::ALL
            .get(i as usize)
            .unwrap_or_else(|| panic!("invalid Op index {i}"))
    }

    pub(crate) fn commutative(self) -> bool {
        matches!(
            self,
            Op::Add | Op::Mul | Op::Min | Op::Max | Op::Or | Op::And | Op::EqGuard
        )
    }

    /// The terminal `a ⊕ b`, on operands borrowed from the arena's pool.
    pub(crate) fn combine(self, a: &Term, b: &Term) -> Term {
        let guard = |holds: bool| if holds { Term::ONE } else { Term::ZERO };
        match self {
            Op::Add => a.add_ref(b),
            Op::Sub => a.sub_ref(b),
            Op::Mul | Op::And => a.mul_ref(b),
            Op::Div => a.clone().div(b.clone()),
            Op::Min => std::cmp::min(a, b).clone(),
            Op::Max => std::cmp::max(a, b).clone(),
            Op::Or => {
                debug_assert!(a.is_zero() || a.is_one(), "Or on non-boolean terminal {a}");
                debug_assert!(b.is_zero() || b.is_one(), "Or on non-boolean terminal {b}");
                std::cmp::max(a, b).clone()
            }
            Op::EqGuard => guard(a == b),
            Op::LtGuard => guard(a < b),
        }
    }
}

/// Unary operations supported by [`Mtbdd::apply1`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Op1 {
    /// `1` on finite terminals, `0` on `+∞` — the reachability guard of a
    /// symbolic IGP distance.
    IsFiniteGuard = 0,
    /// Boolean negation of a 0/1 guard.
    Not = 1,
    /// Negation of finite terminals.
    Neg = 2,
}

impl Op1 {
    /// Inverse of `as u8` (see [`Op::from_index`]).
    pub(crate) fn from_index(i: u8) -> Op1 {
        match i {
            0 => Op1::IsFiniteGuard,
            1 => Op1::Not,
            2 => Op1::Neg,
            _ => panic!("invalid Op1 index {i}"),
        }
    }

    pub(crate) fn combine(self, a: &Term) -> Term {
        match self {
            Op1::IsFiniteGuard => {
                if a.is_finite() {
                    Term::ONE
                } else {
                    Term::ZERO
                }
            }
            Op1::Not => {
                debug_assert!(a.is_zero() || a.is_one(), "Not on non-boolean terminal {a}");
                if a.is_zero() {
                    Term::ONE
                } else {
                    Term::ZERO
                }
            }
            Op1::Neg => match a {
                Term::Num(r) => Term::Num(-r.clone()),
                Term::PosInf => panic!("cannot negate +inf"),
            },
        }
    }
}

/// Statistics of a manager, used by the Fig. 16 experiment (MTBDD node
/// counts with and without `KREDUCE`) and surfaced through the telemetry
/// layer. Creation and hit/miss counts are cumulative (they survive
/// [`Mtbdd::collect`]); `live_*` and `*_cache_len` are *current* sizes.
/// Each `<kernel>_cache_*` field counts that kernel's tag in the one
/// computed table (`table.rs`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct MtbddStats {
    /// Inner nodes ever created: unique-table misses since the arena was
    /// made, across collections (work done, not what is held).
    pub nodes_created: usize,
    /// Terminals ever interned: terminal-table misses, across
    /// collections.
    pub terminals_created: usize,
    /// Inner nodes in the arena right now (a gauge: it drops after a
    /// collection).
    pub live_nodes: usize,
    /// Terminals in the pool right now (a gauge).
    pub live_terminals: usize,
    /// Binary apply cache entries right now (a size, not a counter).
    pub apply_cache_len: usize,
    /// Cumulative binary apply cache hits.
    pub apply_cache_hits: u64,
    /// Cumulative binary apply cache misses (memoized recursions).
    pub apply_cache_misses: u64,
    /// Cumulative binary apply cache evictions (direct-mapped collision
    /// overwrites plus entries dropped by [`Mtbdd::clear_caches`]/GC).
    pub apply_cache_evictions: u64,
    /// Fused `op∘KREDUCE` cache entries right now (a size, not a counter).
    pub fused_cache_len: usize,
    /// Cumulative fused-kernel cache hits (see [`Mtbdd::add_kreduce`]).
    pub fused_cache_hits: u64,
    /// Cumulative fused-kernel cache misses (memoized recursions).
    pub fused_cache_misses: u64,
    /// Cumulative fused-kernel cache evictions.
    pub fused_cache_evictions: u64,
    /// Cumulative unary apply cache hits.
    pub apply1_cache_hits: u64,
    /// Cumulative unary apply cache misses.
    pub apply1_cache_misses: u64,
    /// Cumulative unary apply cache evictions.
    pub apply1_cache_evictions: u64,
    /// Cumulative ITE cache hits.
    pub ite_cache_hits: u64,
    /// Cumulative ITE cache misses.
    pub ite_cache_misses: u64,
    /// Cumulative ITE cache evictions.
    pub ite_cache_evictions: u64,
    /// Cumulative restrict cache hits.
    pub restrict_cache_hits: u64,
    /// Cumulative restrict cache misses.
    pub restrict_cache_misses: u64,
    /// Cumulative restrict cache evictions.
    pub restrict_cache_evictions: u64,
    /// Cumulative `KREDUCE` cache hits.
    pub kreduce_cache_hits: u64,
    /// Cumulative `KREDUCE` cache misses.
    pub kreduce_cache_misses: u64,
    /// Cumulative `KREDUCE` cache evictions.
    pub kreduce_cache_evictions: u64,
    /// Cumulative n-ary aggregate memo hits (see [`Mtbdd::sum_kreduce`]).
    pub sum_cache_hits: u64,
    /// Cumulative n-ary aggregate memo misses (memoized recursions).
    pub sum_cache_misses: u64,
    /// Always 0: the all-alive (`β₀`) cache it counted is gone — every
    /// node carries its all-alive terminal. The field stays only because
    /// `yubench/` reads it; a later benchmark change drops both.
    pub alive_cache_evictions: u64,
    /// High-water mark of the unique (inner-node) table, across
    /// collections.
    pub unique_table_peak: usize,
    /// Number of garbage collections run.
    pub gc_runs: u64,
    /// Total inner nodes reclaimed by garbage collections.
    pub gc_reclaimed_nodes: u64,
}

impl MtbddStats {
    /// Apply-cache hit rate in `[0, 1]`, or `None` before any lookups.
    pub fn apply_cache_hit_rate(&self) -> Option<f64> {
        let total = self.apply_cache_hits + self.apply_cache_misses;
        (total > 0).then(|| self.apply_cache_hits as f64 / total as f64)
    }

    /// Fused-kernel cache hit rate in `[0, 1]`, or `None` before any
    /// lookups (mirrors [`MtbddStats::apply_cache_hit_rate`]).
    pub fn fused_cache_hit_rate(&self) -> Option<f64> {
        let total = self.fused_cache_hits + self.fused_cache_misses;
        (total > 0).then(|| self.fused_cache_hits as f64 / total as f64)
    }
}

/// Probe-length statistics of the open-addressed unique table,
/// accumulated over every node lookup since the arena was created (GC
/// preserves them). Deterministic for a fixed operation sequence: the
/// table uses a fixed hash, linear probing, and deterministic growth, so
/// these numbers are machine-independent and CI can gate on them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct UniqueProbeStats {
    /// Unique-table lookups (node constructor calls that reached the
    /// table, i.e. not elided by `lo == hi`).
    pub lookups: u64,
    /// Total occupied slots stepped over across all lookups.
    pub total_steps: u64,
    /// Worst single-lookup probe length.
    pub max_steps: u32,
    /// Lookups resolved at the home slot (zero steps).
    pub direct: u64,
    /// Lookups that found an existing node (hash-consing hits).
    pub hits: u64,
}

impl UniqueProbeStats {
    /// Mean probe length per lookup (0 before any lookups).
    pub fn mean(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.total_steps as f64 / self.lookups as f64
        }
    }
}

/// Packs an inner node's identity into the two key words hashed by the
/// unique table.
#[inline]
pub(crate) fn hash_key(var: Var, lo: NodeRef, hi: NodeRef) -> u64 {
    fx_hash_words((lo.0 as u64) | ((hi.0 as u64) << 32), var as u64)
}

/// [`hash_key`] of a stored node.
#[inline]
pub(crate) fn hash_node(n: &Node) -> u64 {
    hash_key(n.var, n.lo, n.hi)
}

// Key packings for the computed table. Each key fits a `u64` and a `u32`
// word (its 16-byte entry), and every `w1` but `ite`'s carries the
// kernel's `Tag` (`table::tagged`); the audit sampler inverts
// `pack_apply_key`/`pack_apply1_key` to re-validate resident entries, so
// keep pack/unpack in sync.

/// Largest failure budget a key can carry: `k` shares the `u32` key word
/// with the `Op` and the tag. The public kernel entries clamp `k` to
/// [`Mtbdd::num_vars`], which [`Mtbdd::fresh_vars`] keeps below this.
pub(crate) const MAX_KEY_BUDGET: u32 = (1 << BUDGET_BITS) - 1;

#[inline]
pub(crate) fn pack_apply_key(op: Op, f: NodeRef, g: NodeRef) -> (u64, u32) {
    (
        (f.0 as u64) | ((g.0 as u64) << 32),
        tagged(Tag::Apply, op as u32),
    )
}

pub(crate) fn unpack_apply_key(w0: u64, w1: u32) -> (Op, NodeRef, NodeRef) {
    (
        Op::from_index(w1 as u8),
        NodeRef(w0 as u32),
        NodeRef((w0 >> 32) as u32),
    )
}

#[inline]
pub(crate) fn pack_apply1_key(op: Op1, f: NodeRef) -> (u64, u32) {
    (f.0 as u64, tagged(Tag::Apply1, op as u32))
}

pub(crate) fn unpack_apply1_key(w0: u64, w1: u32) -> (Op1, NodeRef) {
    (Op1::from_index(w1 as u8), NodeRef(w0 as u32))
}

/// The one untagged key: the raw `else` handle fills `w1`, which never
/// carries the tagged keys' bit 30 (see `table::tagged`).
#[inline]
pub(crate) fn pack_ite_key(c: NodeRef, t: NodeRef, e: NodeRef) -> (u64, u32) {
    ((c.0 as u64) | ((t.0 as u64) << 32), e.0)
}

#[inline]
pub(crate) fn pack_restrict_key(f: NodeRef, var: Var, val: bool) -> (u64, u32) {
    (
        (f.0 as u64) | ((var as u64) << 32),
        tagged(Tag::Restrict, val as u32),
    )
}

#[inline]
pub(crate) fn pack_kreduce_key(f: NodeRef, k: u32) -> (u64, u32) {
    ((f.0 as u64) | ((k as u64) << 32), tagged(Tag::Kreduce, 0))
}

#[inline]
pub(crate) fn pack_fused_key(op: Op, f: NodeRef, g: NodeRef, k: u32) -> (u64, u32) {
    debug_assert!(k <= MAX_KEY_BUDGET, "fused budget {k} does not fit the key");
    (
        (f.0 as u64) | ((g.0 as u64) << 32),
        tagged(Tag::Fused, (op as u32) | (k << 4)),
    )
}

/// One of the two `range` entries of an inner node: its smallest
/// (`max == false`) or its largest terminal.
#[inline]
pub(crate) fn pack_range_key(f: NodeRef, max: bool) -> (u64, u32) {
    (f.0 as u64, tagged(Tag::Range, max as u32))
}

/// A multi-terminal binary decision diagram manager.
///
/// Variables are `u32` levels with variable 0 on top; by the failure
/// convention `1` means "alive" and `0` means "failed", so the number of
/// failures along a path is the number of `lo` edges taken.
///
/// Storage is a flat arena: inner nodes live in a bump-allocated
/// `Vec<Node>` addressed by `u32` index, terminals in a `Vec<Term>` pool,
/// both interned through open-addressed [`SlotTable`]s of indices, and
/// every kernel memoises into the one direct-mapped [`ComputedTable`].
pub struct Mtbdd {
    pub(crate) nodes: Vec<Node>,
    pub(crate) unique: SlotTable,
    pub(crate) terms: Vec<Term>,
    /// Interns terminals: indices into `terms`, probed by the Fx hash of
    /// the value and compared against the pool, so each terminal is
    /// stored once.
    pub(crate) term_ids: SlotTable,
    /// Interning lookups that found their terminal, and terminals
    /// reclaimed by GC (cumulative).
    pub(crate) term_hits: u64,
    pub(crate) terms_reclaimed: u64,
    /// The memo of every kernel (`apply`, `apply1`, `ite`, `restrict`,
    /// `kreduce`, `fused`, `sum`, `range`), with per-kernel counters.
    pub(crate) computed: ComputedTable,
    num_vars: u32,
    zero: NodeRef,
    one: NodeRef,
    pos_inf: NodeRef,
    /// Whether invariant auditing (see `audit.rs`) is active for this
    /// manager; latched from `YU_AUDIT`/debug_assertions at construction.
    audit_enabled: bool,
    /// Operation counter driving sampled apply-cache re-validation.
    audit_ops: u64,
    /// Cumulative counters surfaced via [`MtbddStats`]; `gc.rs` preserves
    /// them across collections. (Per-kernel hit/miss/eviction counters
    /// live inside the [`ComputedTable`].)
    pub(crate) unique_peak: usize,
    pub(crate) gc_runs: u64,
    pub(crate) gc_reclaimed: u64,
    /// Unique-table probe instrumentation: lookups, total probe steps,
    /// worst probe, zero-step (home-slot) resolutions, and lookups that
    /// found an existing node (hash-consing hits).
    pub(crate) unique_lookups: u64,
    pub(crate) unique_probe_steps: u64,
    pub(crate) unique_probe_max: u32,
    pub(crate) unique_direct: u64,
    pub(crate) unique_hits: u64,
}

impl Default for Mtbdd {
    fn default() -> Self {
        Self::new()
    }
}

impl Mtbdd {
    /// Creates an empty manager with no variables allocated.
    pub fn new() -> Mtbdd {
        let mut m = Mtbdd {
            nodes: Vec::new(),
            unique: SlotTable::new(),
            terms: Vec::new(),
            term_ids: SlotTable::new(),
            term_hits: 0,
            terms_reclaimed: 0,
            computed: ComputedTable::new(),
            num_vars: 0,
            zero: NodeRef(0),
            one: NodeRef(0),
            pos_inf: NodeRef(0),
            audit_enabled: crate::audit::audit_enabled(),
            audit_ops: 0,
            unique_peak: 0,
            gc_runs: 0,
            gc_reclaimed: 0,
            unique_lookups: 0,
            unique_probe_steps: 0,
            unique_probe_max: 0,
            unique_direct: 0,
            unique_hits: 0,
        };
        m.zero = m.term(Term::ZERO);
        m.one = m.term(Term::ONE);
        m.pos_inf = m.term(Term::PosInf);
        m
    }

    /// Allocates a fresh boolean failure variable (appended at the bottom of
    /// the current order).
    pub fn fresh_var(&mut self) -> Var {
        self.fresh_vars(1)
    }

    /// Allocates `n` fresh variables and returns the first. The order
    /// holds fewer than 2^21 variables, so a budget clamped to
    /// [`Mtbdd::num_vars`] fits a computed-table key.
    pub fn fresh_vars(&mut self, n: u32) -> Var {
        let first = self.num_vars;
        self.num_vars = first
            .checked_add(n)
            .filter(|&total| total <= MAX_KEY_BUDGET)
            .expect("MTBDD variable order limited to 2^21 - 1 variables");
        first
    }

    /// Number of variables allocated so far.
    pub fn num_vars(&self) -> u32 {
        self.num_vars
    }

    /// `k` clamped to the variable count. A path tests each variable at
    /// most once, so once `k` reaches [`Mtbdd::num_vars`] no path can
    /// exhaust the budget and `βₖ` is the identity: the clamp changes no
    /// result, and it keeps every budget a cache key sees below 2^21.
    pub(crate) fn clamp_budget(&self, k: u32) -> u32 {
        k.min(self.num_vars)
    }

    /// The constant 0 MTBDD.
    pub fn zero(&self) -> NodeRef {
        self.zero
    }

    /// The constant 1 MTBDD.
    pub fn one(&self) -> NodeRef {
        self.one
    }

    /// The constant `+∞` MTBDD.
    pub fn pos_inf(&self) -> NodeRef {
        self.pos_inf
    }

    /// The constant MTBDD with terminal `t`.
    pub fn term(&mut self, t: Term) -> NodeRef {
        let hash = fx_hash(&t);
        if self.term_ids.needs_grow() {
            let terms = &self.terms;
            self.term_ids.grow(|ix| fx_hash(&terms[ix as usize]));
        }
        let terms = &self.terms;
        let p = self.term_ids.probe(hash, |ix| terms[ix as usize] == t);
        if let Some(ix) = p.found {
            self.term_hits += 1;
            return NodeRef::terminal(ix as usize);
        }
        let r = NodeRef::terminal(self.terms.len());
        self.terms.push(t);
        self.term_ids.insert_at(p.slot, r.index() as u32);
        r
    }

    /// Constant MTBDD from a rational.
    pub fn constant(&mut self, r: Ratio) -> NodeRef {
        self.term(Term::Num(r))
    }

    /// The terminal value of a terminal reference.
    ///
    /// # Panics
    /// Panics if `f` is not a terminal.
    pub fn terminal_value(&self, f: NodeRef) -> Term {
        self.terminal_ref(f).clone()
    }

    /// [`Mtbdd::terminal_value`] borrowed from the terminal pool — what
    /// the kernels use, so combining two terminals copies neither.
    ///
    /// # Panics
    /// Panics if `f` is not a terminal.
    pub fn terminal_ref(&self, f: NodeRef) -> &Term {
        assert!(f.is_terminal(), "terminal_value on inner node");
        &self.terms[f.index()]
    }

    pub(crate) fn node_at(&self, f: NodeRef) -> Node {
        debug_assert!(!f.is_terminal());
        self.nodes[f.index()]
    }

    /// Top variable of `f`, if it is an inner node.
    pub fn top_var(&self, f: NodeRef) -> Option<Var> {
        if f.is_terminal() {
            None
        } else {
            Some(self.node_at(f).var)
        }
    }

    /// The two cofactors of `f` (children if `f` tests a variable, `f`
    /// itself otherwise).
    pub fn cofactors(&self, f: NodeRef) -> (NodeRef, NodeRef) {
        if f.is_terminal() {
            (f, f)
        } else {
            let n = self.node_at(f);
            (n.lo, n.hi)
        }
    }

    /// Canonical node constructor (the classic `mk`).
    pub fn node(&mut self, var: Var, lo: NodeRef, hi: NodeRef) -> NodeRef {
        debug_assert!(var < self.num_vars, "variable {var} not allocated");
        if lo == hi {
            return lo;
        }
        debug_assert!(
            self.top_var(lo).is_none_or(|v| v > var) && self.top_var(hi).is_none_or(|v| v > var),
            "variable order violation at var {var}"
        );
        let hash = hash_key(var, lo, hi);
        if self.unique.needs_grow() {
            let nodes = &self.nodes;
            self.unique.grow(|ix| hash_node(&nodes[ix as usize]));
        }
        let nodes = &self.nodes;
        let p = self
            .unique
            .probe(hash, |ix| nodes[ix as usize].is(var, lo, hi));
        if let Some(ix) = p.found {
            self.book_unique_probe(p.steps, true);
            return NodeRef::inner(ix as usize);
        }
        self.book_unique_probe(p.steps, false);
        let r = NodeRef::inner(self.nodes.len());
        // The hi-spine shares one all-alive terminal: inherit it.
        let alive = self.all_alive_ref(hi);
        self.nodes.push(Node { var, lo, hi, alive });
        self.unique.insert_at(p.slot, r.0);
        r
    }

    #[inline]
    fn book_unique_probe(&mut self, steps: u32, hit: bool) {
        self.unique_lookups += 1;
        self.unique_probe_steps += steps as u64;
        self.unique_probe_max = self.unique_probe_max.max(steps);
        if steps == 0 {
            self.unique_direct += 1;
        }
        if hit {
            self.unique_hits += 1;
        }
    }

    /// The guard MTBDD of a single variable: `1` where `var = 1` (alive),
    /// `0` where it failed.
    pub fn var_guard(&mut self, var: Var) -> NodeRef {
        let (zero, one) = (self.zero, self.one);
        self.node(var, zero, one)
    }

    /// The guard MTBDD `1` where `var = 0` (failed).
    pub fn nvar_guard(&mut self, var: Var) -> NodeRef {
        let (zero, one) = (self.zero, self.one);
        self.node(var, one, zero)
    }

    /// Generic binary apply with memoization.
    pub fn apply(&mut self, op: Op, f: NodeRef, g: NodeRef) -> NodeRef {
        // Terminal short-circuits that don't require recursion.
        if let Some(r) = self.shortcut(op, f, g) {
            return r;
        }
        let (f, g) = if op.commutative() && g < f {
            (g, f)
        } else {
            (f, g)
        };
        let (w0, w1) = pack_apply_key(op, f, g);
        if let Some(raw) = self.computed.get(w0, w1) {
            let r = NodeRef(raw);
            if self.audit_enabled {
                self.audit_apply_tick(op, f, g, r);
            }
            return r;
        }
        let r = if f.is_terminal() && g.is_terminal() {
            let t = op.combine(self.terminal_ref(f), self.terminal_ref(g));
            self.term(t)
        } else {
            let vf = self.top_var(f).unwrap_or(u32::MAX);
            let vg = self.top_var(g).unwrap_or(u32::MAX);
            let var = vf.min(vg);
            let (f0, f1) = if vf == var { self.cofactors(f) } else { (f, f) };
            let (g0, g1) = if vg == var { self.cofactors(g) } else { (g, g) };
            let lo = self.apply(op, f0, g0);
            let hi = self.apply(op, f1, g1);
            self.node(var, lo, hi)
        };
        self.computed.insert(w0, w1, r.0);
        if self.audit_enabled {
            self.audit_apply_tick(op, f, g, r);
        }
        r
    }

    /// Results that need no recursion. Terminals are hash-consed, so
    /// "`f` is the constant 0" is a handle comparison — no terminal is
    /// read, let alone copied.
    pub(crate) fn shortcut(&self, op: Op, f: NodeRef, g: NodeRef) -> Option<NodeRef> {
        let (zero, one, inf) = (self.zero, self.one, self.pos_inf);
        match op {
            Op::Add => {
                if f == zero {
                    return Some(g);
                }
                if g == zero {
                    return Some(f);
                }
            }
            Op::Sub => {
                if g == zero {
                    return Some(f);
                }
            }
            Op::Mul | Op::And => {
                if f == zero || g == zero {
                    return Some(zero);
                }
                if f == one {
                    return Some(g);
                }
                if g == one {
                    return Some(f);
                }
            }
            Op::Div => {
                if f == zero {
                    return Some(zero);
                }
                if g == one {
                    return Some(f);
                }
            }
            Op::Min => {
                if f == g || f == inf {
                    return Some(g);
                }
                if g == inf {
                    return Some(f);
                }
            }
            Op::Max => {
                if f == g {
                    return Some(f);
                }
                if f == inf || g == inf {
                    return Some(inf);
                }
            }
            Op::Or => {
                if f == g || f == zero {
                    return Some(g);
                }
                if g == zero {
                    return Some(f);
                }
                if f == one || g == one {
                    return Some(one);
                }
            }
            Op::EqGuard => {
                if f == g {
                    return Some(one);
                }
            }
            Op::LtGuard => {
                if f == g {
                    return Some(zero);
                }
            }
        }
        None
    }

    /// Generic unary apply with memoization.
    pub fn apply1(&mut self, op: Op1, f: NodeRef) -> NodeRef {
        let (w0, w1) = pack_apply1_key(op, f);
        if let Some(raw) = self.computed.get(w0, w1) {
            return NodeRef(raw);
        }
        let r = if f.is_terminal() {
            let t = op.combine(self.terminal_ref(f));
            self.term(t)
        } else {
            let n = self.node_at(f);
            let lo = self.apply1(op, n.lo);
            let hi = self.apply1(op, n.hi);
            self.node(n.var, lo, hi)
        };
        self.computed.insert(w0, w1, r.0);
        r
    }

    /// If-then-else over a 0/1 guard `c`: the function equal to `t` where
    /// `c = 1` and `e` where `c = 0`.
    pub fn ite(&mut self, c: NodeRef, t: NodeRef, e: NodeRef) -> NodeRef {
        if c.is_terminal() {
            debug_assert!(c == self.zero || c == self.one, "ite condition not boolean");
            return if c == self.one { t } else { e };
        }
        if t == e {
            return t;
        }
        let (w0, w1) = pack_ite_key(c, t, e);
        if let Some(raw) = self.computed.get(w0, w1) {
            return NodeRef(raw);
        }
        let vc = self.node_at(c).var;
        let vt = self.top_var(t).unwrap_or(u32::MAX);
        let ve = self.top_var(e).unwrap_or(u32::MAX);
        let var = vc.min(vt).min(ve);
        let (c0, c1) = if vc == var { self.cofactors(c) } else { (c, c) };
        let (t0, t1) = if vt == var { self.cofactors(t) } else { (t, t) };
        let (e0, e1) = if ve == var { self.cofactors(e) } else { (e, e) };
        let lo = self.ite(c0, t0, e0);
        let hi = self.ite(c1, t1, e1);
        let r = self.node(var, lo, hi);
        self.computed.insert(w0, w1, r.0);
        r
    }

    /// Convenience: `f + g`.
    pub fn add(&mut self, f: NodeRef, g: NodeRef) -> NodeRef {
        self.apply(Op::Add, f, g)
    }

    /// Convenience: `f * g`.
    pub fn mul(&mut self, f: NodeRef, g: NodeRef) -> NodeRef {
        self.apply(Op::Mul, f, g)
    }

    /// Convenience: `f * c` for a scalar.
    pub fn scale(&mut self, f: NodeRef, c: Term) -> NodeRef {
        let c = self.term(c);
        self.apply(Op::Mul, f, c)
    }

    /// Boolean conjunction of 0/1 guards.
    pub fn and(&mut self, f: NodeRef, g: NodeRef) -> NodeRef {
        self.apply(Op::And, f, g)
    }

    /// Boolean disjunction of 0/1 guards.
    pub fn or(&mut self, f: NodeRef, g: NodeRef) -> NodeRef {
        self.apply(Op::Or, f, g)
    }

    /// Boolean negation of a 0/1 guard.
    pub fn not(&mut self, f: NodeRef) -> NodeRef {
        self.apply1(Op1::Not, f)
    }

    /// 0/1 guard that is `1` exactly where `f = g`.
    pub fn eq_guard(&mut self, f: NodeRef, g: NodeRef) -> NodeRef {
        self.apply(Op::EqGuard, f, g)
    }

    /// 0/1 guard that is `1` exactly where `f < g`.
    pub fn lt_guard(&mut self, f: NodeRef, g: NodeRef) -> NodeRef {
        self.apply(Op::LtGuard, f, g)
    }

    /// 0/1 guard that is `1` where `f` is finite (reachability of a distance).
    pub fn is_finite_guard(&mut self, f: NodeRef) -> NodeRef {
        self.apply1(Op1::IsFiniteGuard, f)
    }

    /// Balanced n-ary sum, keeping intermediate diagrams small.
    pub fn sum(&mut self, items: &[NodeRef]) -> NodeRef {
        match items.len() {
            0 => self.zero,
            1 => items[0],
            n => {
                let (a, b) = items.split_at(n / 2);
                let (sa, sb) = (self.sum(a), self.sum(b));
                self.add(sa, sb)
            }
        }
    }

    /// Restricts `f` by fixing `var := val`.
    pub fn restrict(&mut self, f: NodeRef, var: Var, val: bool) -> NodeRef {
        if f.is_terminal() || self.node_at(f).var > var {
            return f;
        }
        let (w0, w1) = pack_restrict_key(f, var, val);
        if let Some(raw) = self.computed.get(w0, w1) {
            return NodeRef(raw);
        }
        let n = self.node_at(f);
        let r = if n.var == var {
            if val {
                n.hi
            } else {
                n.lo
            }
        } else {
            let lo = self.restrict(n.lo, var, val);
            let hi = self.restrict(n.hi, var, val);
            self.node(n.var, lo, hi)
        };
        self.computed.insert(w0, w1, r.0);
        r
    }

    /// Evaluates `f` under a complete assignment (`assign(v)` is the value
    /// of variable `v`; `true` = alive).
    pub fn eval(&self, f: NodeRef, assign: impl Fn(Var) -> bool) -> Term {
        let mut cur = f;
        while !cur.is_terminal() {
            let n = self.node_at(cur);
            cur = if assign(n.var) { n.hi } else { n.lo };
        }
        self.terminal_value(cur)
    }

    /// Evaluates `f` with every variable alive (the no-failure scenario).
    pub fn eval_all_alive(&self, f: NodeRef) -> Term {
        self.eval(f, |_| true)
    }

    /// The terminal *handle* of the all-alive (`β₀`) evaluation —
    /// interchangeable with `term(eval_all_alive(f))` because terminals
    /// are hash-consed, but a field read: every node carries the terminal
    /// at the end of its hi-spine (filled by [`Mtbdd::node`], remapped by
    /// [`Mtbdd::collect`]), so the `β₀` collapses that terminate the
    /// `KREDUCE`/fused/n-ary recursions walk nothing and cache nothing.
    #[inline]
    pub fn all_alive_ref(&self, f: NodeRef) -> NodeRef {
        if f.is_terminal() {
            f
        } else {
            self.node_at(f).alive
        }
    }

    /// Number of inner nodes reachable from `f`.
    pub fn node_count(&self, f: NodeRef) -> usize {
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![f];
        let mut count = 0;
        while let Some(r) = stack.pop() {
            if r.is_terminal() || !seen.insert(r) {
                continue;
            }
            count += 1;
            let n = self.node_at(r);
            stack.push(n.lo);
            stack.push(n.hi);
        }
        count
    }

    /// The set of variables `f` depends on.
    pub fn support(&self, f: NodeRef) -> std::collections::BTreeSet<Var> {
        let mut seen = std::collections::HashSet::new();
        let mut vars = std::collections::BTreeSet::new();
        let mut stack = vec![f];
        while let Some(r) = stack.pop() {
            if r.is_terminal() || !seen.insert(r) {
                continue;
            }
            let n = self.node_at(r);
            vars.insert(n.var);
            stack.push(n.lo);
            stack.push(n.hi);
        }
        vars
    }

    /// Current sizes plus cumulative creation, hit/miss and GC counters
    /// (the counters survive [`Mtbdd::collect`]; the sizes drop with
    /// it).
    pub fn stats(&self) -> MtbddStats {
        let [apply, fused, apply1, ite, restrict, kreduce, sum, _] =
            Tag::ALL.map(|tag| self.computed.stats(tag));
        MtbddStats {
            nodes_created: self.nodes_created(),
            terminals_created: self.terms.len() + self.terms_reclaimed as usize,
            live_nodes: self.nodes.len(),
            live_terminals: self.terms.len(),
            apply_cache_len: apply.resident,
            apply_cache_hits: apply.hits,
            apply_cache_misses: apply.misses,
            apply_cache_evictions: apply.evictions,
            fused_cache_len: fused.resident,
            fused_cache_hits: fused.hits,
            fused_cache_misses: fused.misses,
            fused_cache_evictions: fused.evictions,
            apply1_cache_hits: apply1.hits,
            apply1_cache_misses: apply1.misses,
            apply1_cache_evictions: apply1.evictions,
            ite_cache_hits: ite.hits,
            ite_cache_misses: ite.misses,
            ite_cache_evictions: ite.evictions,
            restrict_cache_hits: restrict.hits,
            restrict_cache_misses: restrict.misses,
            restrict_cache_evictions: restrict.evictions,
            kreduce_cache_hits: kreduce.hits,
            kreduce_cache_misses: kreduce.misses,
            kreduce_cache_evictions: kreduce.evictions,
            sum_cache_hits: sum.hits,
            sum_cache_misses: sum.misses,
            alive_cache_evictions: 0,
            unique_table_peak: self.unique_peak.max(self.nodes.len()),
            gc_runs: self.gc_runs,
            gc_reclaimed_nodes: self.gc_reclaimed,
        }
    }

    /// Inner nodes currently in the arena. Unlike the cumulative
    /// counters in [`MtbddStats`], this is a point-in-time gauge: it
    /// drops after [`Mtbdd::collect`].
    pub fn live_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// [`MtbddStats::nodes_created`] alone, for the per-class and
    /// per-requirement checkpoints that read nothing else: every node
    /// ever created is either live or was reclaimed by a collection.
    pub fn nodes_created(&self) -> usize {
        self.nodes.len() + self.gc_reclaimed as usize
    }

    /// Probe-length statistics of the open-addressed unique table.
    pub fn unique_probe_stats(&self) -> UniqueProbeStats {
        UniqueProbeStats {
            lookups: self.unique_lookups,
            total_steps: self.unique_probe_steps,
            max_steps: self.unique_probe_max,
            direct: self.unique_direct,
            hits: self.unique_hits,
        }
    }

    /// Load factor of the inner-node unique table (`len / capacity`, 0
    /// for an empty arena). An observability gauge: values near the
    /// open-addressed table's growth threshold (3/4) predict an imminent
    /// rebuild pause.
    pub fn unique_table_load_factor(&self) -> f64 {
        crate::profile::load_factor(self.unique.len(), self.unique.capacity())
    }

    /// Estimated resident bytes of the arena: the `bytes` and
    /// `pool_bytes` of every [`Mtbdd::cache_profiles`] row. That is the
    /// node arena and the unique table's slots, the terminal pool and the
    /// terminal table's slots (4 bytes each), and the computed table with
    /// its `sum` run arena. All are computed from *capacities* (what the
    /// allocator actually holds, not what is in use). Terminal payloads
    /// are counted shallowly — `Term` heap allocations (rational bignums)
    /// are not chased — so this is a lower bound suitable for trend
    /// monitoring, not an exact RSS.
    pub fn arena_bytes(&self) -> usize {
        self.cache_profiles()
            .iter()
            .map(|c| c.bytes + c.pool_bytes)
            .sum()
    }

    /// Drops every memo entry (the unique and terminal tables are kept,
    /// so handles stay valid). The computed table keeps its capacity, so
    /// this frees no memory: it is what [`Mtbdd::collect`] does to the
    /// memo. Every resident entry is booked as an eviction of its kernel
    /// (see `profile.rs`).
    pub fn clear_caches(&mut self) {
        self.computed.clear();
    }

    // ---- crate-internal access for the invariant auditor (audit.rs) ----

    /// Probes the unique table for `n` without booking stats (audit
    /// re-validation of the table invariant).
    pub(crate) fn unique_lookup_for_audit(&self, n: &Node) -> Option<NodeRef> {
        let p = self.unique.probe(hash_node(n), |ix| {
            self.nodes[ix as usize].is(n.var, n.lo, n.hi)
        });
        p.found.map(|ix| NodeRef::inner(ix as usize))
    }

    pub(crate) fn unique_table_len(&self) -> usize {
        self.unique.len()
    }

    pub(crate) fn raw_nodes(&self) -> &[Node] {
        &self.nodes
    }

    pub(crate) fn raw_terms(&self) -> &[Term] {
        &self.terms
    }

    /// Probes the terminal table for `t` (audit re-validation of
    /// terminal interning).
    pub(crate) fn terminal_lookup_for_audit(&self, t: &Term) -> Option<NodeRef> {
        let p = self
            .term_ids
            .probe(fx_hash(t), |ix| self.terms[ix as usize] == *t);
        p.found.map(|ix| NodeRef::terminal(ix as usize))
    }

    pub(crate) fn terminal_table_len(&self) -> usize {
        self.term_ids.len()
    }

    pub(crate) fn audit_on(&self) -> bool {
        self.audit_enabled
    }

    pub(crate) fn audit_ops_bump(&mut self) -> u64 {
        self.audit_ops += 1;
        self.audit_ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Mtbdd, Var, Var, Var) {
        let mut m = Mtbdd::new();
        let x1 = m.fresh_var();
        let x2 = m.fresh_var();
        let x3 = m.fresh_var();
        (m, x1, x2, x3)
    }

    #[test]
    fn hash_consing_gives_pointer_equality() {
        let (mut m, x1, _, _) = setup();
        let a = m.var_guard(x1);
        let b = m.var_guard(x1);
        assert_eq!(a, b);
        let na = m.not(a);
        let nb = m.nvar_guard(x1);
        assert_eq!(na, nb);
    }

    #[test]
    fn node_elides_redundant_tests() {
        let (mut m, x1, _, _) = setup();
        let c = m.one();
        let r = m.node(x1, c, c);
        assert_eq!(r, c);
    }

    #[test]
    fn add_and_mul_match_pointwise_eval() {
        let (mut m, x1, x2, _) = setup();
        let g1 = m.var_guard(x1);
        let g2 = m.var_guard(x2);
        let half = m.constant(Ratio::new(1, 2));
        let f = m.mul(g1, half); // x1/2
        let s = m.add(f, g2); // x1/2 + x2
        for (a1, a2) in [(false, false), (false, true), (true, false), (true, true)] {
            let expect = (a1 as i64, a2 as i64);
            let want = Ratio::new(expect.0 as i128, 2) + Ratio::int(expect.1);
            let got = m.eval(s, |v| if v == x1 { a1 } else { a2 });
            assert_eq!(got, Term::Num(want), "assignment {a1}/{a2}");
        }
    }

    #[test]
    fn or_and_not_are_boolean() {
        let (mut m, x1, x2, _) = setup();
        let g1 = m.var_guard(x1);
        let g2 = m.var_guard(x2);
        let disj = m.or(g1, g2);
        let conj = m.and(g1, g2);
        let neg = m.not(g1);
        for (a1, a2) in [(false, false), (false, true), (true, false), (true, true)] {
            let ev = |f| m.eval(f, |v| if v == x1 { a1 } else { a2 }).is_one();
            assert_eq!(ev(disj), a1 || a2);
            assert_eq!(ev(conj), a1 && a2);
            assert_eq!(ev(neg), !a1);
        }
    }

    #[test]
    fn ite_selects_branches() {
        let (mut m, x1, _, _) = setup();
        let c = m.var_guard(x1);
        let five = m.constant(Ratio::int(5));
        let inf = m.pos_inf();
        let f = m.ite(c, five, inf);
        assert_eq!(m.eval(f, |_| true), Term::int(5));
        assert_eq!(m.eval(f, |_| false), Term::PosInf);
    }

    #[test]
    fn min_with_infinity() {
        let (mut m, x1, _, _) = setup();
        let c = m.var_guard(x1);
        let ten = m.constant(Ratio::int(10));
        let inf = m.pos_inf();
        let d1 = m.ite(c, ten, inf);
        let twenty = m.constant(Ratio::int(20));
        let best = m.apply(Op::Min, d1, twenty);
        assert_eq!(m.eval(best, |_| true), Term::int(10));
        assert_eq!(m.eval(best, |_| false), Term::int(20));
    }

    #[test]
    fn eq_and_lt_guards() {
        let (mut m, x1, _, _) = setup();
        let c = m.var_guard(x1);
        let ten = m.constant(Ratio::int(10));
        let inf = m.pos_inf();
        let d = m.ite(c, ten, inf);
        let eq = m.eq_guard(d, ten);
        assert_eq!(m.eval(eq, |_| true), Term::ONE);
        assert_eq!(m.eval(eq, |_| false), Term::ZERO);
        let lt = m.lt_guard(ten, d);
        assert_eq!(m.eval(lt, |_| false), Term::ONE); // 10 < inf
        assert_eq!(m.eval(lt, |_| true), Term::ZERO);
        let fin = m.is_finite_guard(d);
        assert_eq!(m.eval(fin, |_| false), Term::ZERO);
    }

    #[test]
    fn division_zero_over_zero() {
        let (mut m, x1, _, _) = setup();
        let s = m.var_guard(x1); // selected iff alive
        let total = s; // only rule
        let c = m.apply(Op::Div, s, total);
        // Alive: 1/1 = 1. Failed: 0/0 = 0.
        assert_eq!(m.eval(c, |_| true), Term::ONE);
        assert_eq!(m.eval(c, |_| false), Term::ZERO);
    }

    #[test]
    fn restrict_fixes_variables() {
        let (mut m, x1, x2, _) = setup();
        let g1 = m.var_guard(x1);
        let g2 = m.var_guard(x2);
        let s = m.add(g1, g2);
        let r1 = m.restrict(s, x1, true);
        assert_eq!(m.eval(r1, |_| false), Term::ONE);
        let r0 = m.restrict(s, x1, false);
        assert_eq!(m.eval(r0, |_| false), Term::ZERO);
    }

    #[test]
    fn sum_balanced() {
        let (mut m, x1, x2, x3) = setup();
        let gs: Vec<_> = [x1, x2, x3].iter().map(|&v| m.var_guard(v)).collect();
        let s = m.sum(&gs);
        assert_eq!(m.eval_all_alive(s), Term::int(3));
        assert_eq!(m.eval(s, |v| v == x2), Term::int(1));
        assert_eq!(m.sum(&[]), m.zero());
    }

    #[test]
    fn op_indices_roundtrip() {
        for op in [
            Op::Add,
            Op::Sub,
            Op::Mul,
            Op::Div,
            Op::Min,
            Op::Max,
            Op::Or,
            Op::And,
            Op::EqGuard,
            Op::LtGuard,
        ] {
            assert_eq!(Op::from_index(op as u8), op);
        }
        for op in [Op1::IsFiniteGuard, Op1::Not, Op1::Neg] {
            assert_eq!(Op1::from_index(op as u8), op);
        }
    }

    #[test]
    fn apply_keys_unpack_to_what_was_packed() {
        let handles = [
            NodeRef::inner(0),
            NodeRef::inner(12_345),
            NodeRef::inner((1 << 30) - 1),
            NodeRef::terminal(0),
            NodeRef::terminal(7),
            NodeRef::terminal((1 << 30) - 1),
        ];
        for &f in &handles {
            for &g in &handles {
                for op in Op::ALL {
                    let (w0, w1) = pack_apply_key(op, f, g);
                    assert_eq!(unpack_apply_key(w0, w1), (op, f, g));
                }
            }
            for op in [Op1::IsFiniteGuard, Op1::Not, Op1::Neg] {
                let (w0, w1) = pack_apply1_key(op, f);
                assert_eq!(unpack_apply1_key(w0, w1), (op, f));
            }
        }
    }

    #[test]
    fn kernel_keys_with_the_same_operand_words_miss_each_other() {
        // Pairs of kernels whose packings put the same raw words in both
        // key words but for the tag: each stores a key, and the other's
        // key must miss on it.
        let (f, g) = (NodeRef::inner(5), NodeRef::inner(0));
        let e = NodeRef(Op::Min as u32 | 3 << 4);
        let pairs = [
            // `restrict` at `val = 0` against `kreduce` on `k = var`.
            (pack_restrict_key(f, 3, false), pack_kreduce_key(f, 3)),
            // `apply` against `apply1` with equal op indices (`g` is
            // handle 0, so `w0` is `f` alone in both).
            (pack_apply_key(Op::Sub, f, g), pack_apply1_key(Op1::Neg, f)),
            (
                pack_apply_key(Op::Add, f, g),
                pack_apply1_key(Op1::IsFiniteGuard, f),
            ),
            // `ite` against `fused`, the `else` handle spelling the fused
            // payload `(op, k)`.
            (pack_ite_key(f, g, e), pack_fused_key(Op::Min, f, g, 3)),
            // `range` against `apply1` and `restrict` against `range`.
            (
                pack_range_key(f, false),
                pack_apply1_key(Op1::IsFiniteGuard, f),
            ),
            (pack_range_key(f, true), pack_restrict_key(f, 0, true)),
        ];
        for (a, b) in pairs {
            assert_eq!(a.0, b.0, "the pair must share its operand word");
            for (stored, probed) in [(a, b), (b, a)] {
                let mut t = ComputedTable::new();
                t.insert(stored.0, stored.1, 1);
                assert_eq!(
                    t.get(probed.0, probed.1),
                    None,
                    "{stored:x?} answered {probed:x?}"
                );
                assert_eq!(t.get(stored.0, stored.1), Some(1));
            }
        }
    }

    #[test]
    fn unique_probe_stats_track_lookups() {
        let (mut m, x1, x2, _) = setup();
        let g1 = m.var_guard(x1);
        let g2 = m.var_guard(x2);
        let _ = m.add(g1, g2);
        assert_eq!(m.var_guard(x1), g1, "re-created guard must hash-cons");
        let s = m.unique_probe_stats();
        assert!(s.lookups > 0);
        assert!(s.hits > 0, "re-creating var guards must hash-cons");
        assert!(s.direct <= s.lookups);
        assert!(s.mean() >= 0.0);
        // Deterministic: an identical build sequence books identical stats.
        let (mut n, y1, y2, _) = setup();
        let h1 = n.var_guard(y1);
        let h2 = n.var_guard(y2);
        let _ = n.add(h1, h2);
        let _ = n.var_guard(y1);
        assert_eq!(n.unique_probe_stats(), s);
    }

    #[test]
    fn apply_cache_hit_and_miss_counters() {
        let (mut m, x1, x2, _) = setup();
        let g1 = m.var_guard(x1);
        let g2 = m.var_guard(x2);
        assert_eq!(m.stats().apply_cache_hits, 0);
        assert_eq!(m.stats().apply_cache_hit_rate(), None);
        let s1 = m.add(g1, g2);
        let first = m.stats();
        assert!(first.apply_cache_misses > 0);
        let s2 = m.add(g1, g2);
        assert_eq!(s1, s2);
        let second = m.stats();
        assert_eq!(second.apply_cache_hits, first.apply_cache_hits + 1);
        assert_eq!(second.apply_cache_misses, first.apply_cache_misses);
        assert!(second.apply_cache_hit_rate().unwrap() > 0.0);
    }

    #[test]
    fn commutative_apply_cache_canonicalizes_operand_order() {
        // `add(f, g)` and `add(g, f)` must share one cache entry: the
        // swapped application is a pure hit (no new memoized recursions),
        // so the hit rate strictly improves.
        let (mut m, x1, x2, x3) = setup();
        let g1 = m.var_guard(x1);
        let g2 = m.var_guard(x2);
        let g3 = m.var_guard(x3);
        let half = m.constant(Ratio::new(1, 2));
        let f = m.mul(g1, half); // inner, != g
        let g = m.add(g2, g3); // inner, != f
        let before = m.stats();
        let r1 = m.add(f, g);
        let mid = m.stats();
        assert!(mid.apply_cache_misses > before.apply_cache_misses);
        let r2 = m.add(g, f);
        let after = m.stats();
        assert_eq!(r1, r2, "addition is commutative");
        assert_eq!(
            after.apply_cache_misses, mid.apply_cache_misses,
            "swapped operands must not re-recurse"
        );
        assert_eq!(
            after.apply_cache_hits,
            mid.apply_cache_hits + 1,
            "swapped operands are one canonical cache hit"
        );
        assert!(
            after.apply_cache_hit_rate().unwrap() > mid.apply_cache_hit_rate().unwrap(),
            "hit rate must improve on the symmetric application"
        );
        // Non-commutative operations stay order-sensitive.
        let s1 = m.apply(Op::Sub, f, g);
        let s2 = m.apply(Op::Sub, g, f);
        assert_ne!(s1, s2);
    }

    #[test]
    fn support_and_node_count() {
        let (mut m, x1, _, x3) = setup();
        let g1 = m.var_guard(x1);
        let g3 = m.var_guard(x3);
        let f = m.add(g1, g3);
        let sup = m.support(f);
        assert!(sup.contains(&x1) && sup.contains(&x3) && sup.len() == 2);
        assert!(m.node_count(f) >= 2);
        assert_eq!(m.node_count(m.zero()), 0);
    }
}
