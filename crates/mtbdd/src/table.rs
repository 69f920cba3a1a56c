//! Flat, cache-friendly hash structures for the MTBDD manager hot path.
//!
//! Two structures live here, both keyed by machine words rather than by
//! `Hash`-trait walks over boxed tuples:
//!
//! * [`SlotTable`] — an open-addressed table that stores only `u32`
//!   indices into a pool the caller owns. The manager keeps two: the
//!   unique table over the node arena, and the terminal table over the
//!   terminal pool. A probe touches one contiguous `u32` array plus (on a
//!   candidate match) one pool slot. Linear probing, power-of-two
//!   capacity, no tombstones: deletion happens only via mark-compact GC,
//!   which empties both tables in place and re-inserts the compacted
//!   pools.
//! * [`ComputedTable`] — the one direct-mapped memo table every kernel
//!   shares: `apply`, `apply1`, `ite`, `restrict`, `kreduce`, `fused`,
//!   the n-ary `sum` and the terminal `range`. A key is a `u64` and a
//!   `u32` word that carry a [`Tag`]; a lookup is one multiply-hash and
//!   one 16-byte entry read (four entries per cache line). The table
//!   grows only when a sampled shadow of its ceiling-sized self shows
//!   that a bigger table would have answered the misses it takes: a
//!   run whose misses are one-shot work stays small, a run that reuses
//!   entries written long ago grows to the ceiling.
//!
//! Both structures are deterministic functions of their operation
//! sequence (no randomized hashing, no address-dependent state), which
//! is what lets CI gate on exact probe-length and nodes-created numbers
//! across machines.
//!
//! This module is `#[doc(hidden)] pub` so the crate's property tests can
//! model-check both structures against `HashMap` references.

use crate::hasher::{fx_hash, fx_hash_words};
use crate::node::NodeRef;

/// Sentinel for an empty [`SlotTable`] slot.
pub const EMPTY_SLOT: u32 = u32::MAX;

/// Sentinel value marking an unoccupied [`ComputedTable`] entry. Valid
/// cached values are node handles, whose raw form never reaches
/// `u32::MAX` (handle indices stay below 2^30).
const NO_VAL: u32 = u32::MAX;

/// Initial capacity of a [`SlotTable`] (slots).
const TABLE_INITIAL: usize = 64;

/// Initial capacity of the [`ComputedTable`] (entries), allocated lazily
/// on the first insert: 2^14 × 16 B = 256 KiB.
const COMPUTED_INITIAL: usize = 1 << 14;

/// The one ceiling of the [`ComputedTable`]: 2^21 entries, 32 MiB. It is
/// not an option, and a run reaches it only when the shadow of a table
/// this size shows that it would answer misses the current table takes.
/// `yu serve` needs this much: with a 2^18 ceiling its p90 request went
/// from 32 to 50 ms. A 2^22 ceiling saved 1 % of the batch misses and
/// made exec slower (DESIGN.md §16.2).
pub const COMPUTED_MAX: usize = 1 << 21;

/// The shadow tracks 1 of every 16 slots of a [`COMPUTED_MAX`] table:
/// 2^17 fingerprints, 512 KiB. Sampling whole sets keeps each shadow
/// slot exact (it holds what that slot of the ceiling table would hold),
/// and 1 in 16 still gives a window of `capacity / 16` sampled misses,
/// 1 024 at the initial size, for the share below to be read from.
const SHADOW_SAMPLE: usize = 16;

/// Fingerprints in the shadow.
const SHADOW_SLOTS: usize = COMPUTED_MAX / SHADOW_SAMPLE;

/// The table grows when the ceiling would have answered at least 1 in 8
/// of a window's sampled misses. The batch bench rows read 5–8 % over a
/// run (their misses are one-shot work) and `yu serve` reads 50 % while
/// its routing edits climb to the ceiling, so the line sits between them
/// (DESIGN.md §16.2).
const GROW_SHARE: u64 = 8;

/// Hash bits that pick a slot of the ceiling table.
const CEILING_BITS: u32 = COMPUTED_MAX.trailing_zeros();

/// Handles the `sum` operand-run arena holds before it restarts (512 KiB).
/// Most `sum` entries are evicted from the computed table long before
/// their run would leave a larger arena: 2^20 handles answer 0.4 % more
/// hits on the headline check and hold 4.2 MB more (DESIGN.md §16.3).
/// Unit tests use a small arena so that ordinary kernel tests cross
/// restarts.
const RUN_ARENA_MAX: usize = if cfg!(test) { 64 } else { 1 << 17 };

/// Result of probing a [`SlotTable`].
pub struct Probe {
    /// The stored index whose key matched, if any.
    pub found: Option<u32>,
    /// Slot where the match was found, or the first empty slot where an
    /// insert for this key must go.
    pub slot: usize,
    /// Number of occupied slots stepped over before terminating (0 = the
    /// home slot resolved the probe).
    pub steps: u32,
}

/// Open-addressed, linear-probed table of `u32` arena indices.
///
/// The table never stores keys; callers supply the key hash and an
/// equality predicate that inspects the arena. Load factor is kept at or
/// below 3/4; growth rebuilds the table by re-probing every resident
/// index with a caller-supplied hash function.
#[derive(Clone, Default)]
pub struct SlotTable {
    slots: Vec<u32>,
    len: usize,
}

impl SlotTable {
    /// Creates an empty table (no allocation until the first grow).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of resident indices.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no indices are resident.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Current slot count (0 before the first grow).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// True when one more insert would push the load factor above 3/4.
    /// Callers must [`grow`](Self::grow) before probing for an insert so
    /// the returned slot stays valid. (Linear probing degrades sharply
    /// past ~3/4: at 7/8 the expected unsuccessful probe is ~32 slots,
    /// at 3/4 it is ~8 — and every hash-consing miss is an unsuccessful
    /// probe.)
    pub fn needs_grow(&self) -> bool {
        self.slots.is_empty() || (self.len + 1) * 4 > self.slots.len() * 3
    }

    /// Home slot for a hash: the **top** log₂(cap) bits. The Fx hash
    /// finishes with a multiply, which mixes every input bit into the
    /// high bits but leaves the low bits a function of the low input
    /// bits only — masking low bits clusters sequential arena indices
    /// into runs, which linear probing turns into long chains.
    #[inline]
    fn home(hash: u64, cap: usize) -> usize {
        debug_assert!(cap.is_power_of_two());
        (hash >> (64 - cap.trailing_zeros())) as usize
    }

    /// Probes for `hash`, using `eq` to test candidate indices against
    /// the caller's arena. Returns the match or the insertion slot,
    /// along with the probe length for instrumentation.
    pub fn probe(&self, hash: u64, mut eq: impl FnMut(u32) -> bool) -> Probe {
        if self.slots.is_empty() {
            return Probe {
                found: None,
                slot: 0,
                steps: 0,
            };
        }
        let mask = self.slots.len() - 1;
        let mut slot = Self::home(hash, self.slots.len());
        let mut steps = 0u32;
        loop {
            let v = self.slots[slot];
            if v == EMPTY_SLOT {
                return Probe {
                    found: None,
                    slot,
                    steps,
                };
            }
            if eq(v) {
                return Probe {
                    found: Some(v),
                    slot,
                    steps,
                };
            }
            steps += 1;
            slot = (slot + 1) & mask;
        }
    }

    /// Inserts `val` at a slot previously returned by
    /// [`probe`](Self::probe) with `found == None`. The table must not
    /// have been grown in between.
    pub fn insert_at(&mut self, slot: usize, val: u32) {
        debug_assert!(!self.slots.is_empty(), "insert into ungrown table");
        debug_assert_eq!(self.slots[slot], EMPTY_SLOT, "insert over occupied slot");
        self.slots[slot] = val;
        self.len += 1;
    }

    /// Doubles capacity and re-places every resident index using
    /// `hash_of` to recompute its key hash from the arena.
    pub fn grow(&mut self, hash_of: impl Fn(u32) -> u64) {
        let new_cap = (self.slots.len() * 2).max(TABLE_INITIAL);
        let old = std::mem::replace(&mut self.slots, vec![EMPTY_SLOT; new_cap]);
        let mask = new_cap - 1;
        for v in old {
            if v == EMPTY_SLOT {
                continue;
            }
            let mut slot = Self::home(hash_of(v), new_cap);
            while self.slots[slot] != EMPTY_SLOT {
                slot = (slot + 1) & mask;
            }
            self.slots[slot] = v;
        }
    }

    /// Empties every slot in place, keeping the capacity: GC re-inserts
    /// the survivors into the array it already holds instead of growing
    /// a second one beside it.
    pub fn clear(&mut self) {
        self.slots.fill(EMPTY_SLOT);
        self.len = 0;
    }

    /// Convenience for bulk rebuilds (GC): insert an index known to be
    /// absent, growing first when needed.
    pub fn insert_new(&mut self, hash: u64, val: u32, hash_of: impl Fn(u32) -> u64) {
        if self.needs_grow() {
            self.grow(&hash_of);
        }
        let p = self.probe(hash, |_| false);
        self.insert_at(p.slot, val);
    }
}

/// One direct-mapped slot: the packed key and the cached handle, two
/// words with no padding.
#[derive(Clone, Copy)]
struct CacheEntry {
    w0: u64,
    w1: u32,
    val: u32,
}

const EMPTY_ENTRY: CacheEntry = CacheEntry {
    w0: 0,
    w1: 0,
    val: NO_VAL,
};

/// Which kernel a [`ComputedTable`] entry memoises. Hits, misses,
/// evictions and resident entries are booked per tag, so every kernel
/// keeps its own counters in the one table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Tag {
    /// Binary `Mtbdd::apply` on `(op, f, g)`.
    Apply = 0,
    /// Fused `op∘KREDUCE` (`Mtbdd::apply_kreduce`) on `(op, f, g, k)`.
    Fused = 1,
    /// Unary `Mtbdd::apply1` on `(op, f)`.
    Apply1 = 2,
    /// `Mtbdd::ite` on `(c, t, e)`: the one untagged key (see [`tagged`]).
    Ite = 3,
    /// `Mtbdd::restrict` on `(f, var, val)`.
    Restrict = 4,
    /// `KREDUCE` on `(f, k)`.
    Kreduce = 5,
    /// The n-ary aggregate `Mtbdd::sum_kreduce` on an operand run and `k`
    /// (see [`ComputedTable::get_run`]).
    Sum = 6,
    /// `Mtbdd::terminal_range`: two entries per node, its smallest and
    /// its largest terminal.
    Range = 7,
}

impl Tag {
    /// Every tag, in discriminant order (`ALL[tag as usize] == tag`),
    /// which is the order `Mtbdd::cache_profiles` reports them in.
    pub const ALL: [Tag; 8] = [
        Tag::Apply,
        Tag::Fused,
        Tag::Apply1,
        Tag::Ite,
        Tag::Restrict,
        Tag::Kreduce,
        Tag::Sum,
        Tag::Range,
    ];

    /// The tag's row name in `Mtbdd::cache_profiles` and `yu profile`.
    pub fn name(self) -> &'static str {
        match self {
            Tag::Apply => "apply",
            Tag::Fused => "fused",
            Tag::Apply1 => "apply1",
            Tag::Ite => "ite",
            Tag::Restrict => "restrict",
            Tag::Kreduce => "kreduce",
            Tag::Sum => "sum",
            Tag::Range => "range",
        }
    }
}

/// Bit 30 of `w1`, set on every key but `ite`'s. An `ite` key spends all
/// 96 key bits on its three handles, `w1` being the raw `else` handle.
/// Handle indices stay below 2^30 (`NodeRef::inner`/`terminal` assert
/// it), so a raw handle never carries this bit and an `ite` key can never
/// equal a tagged one.
const TAGGED: u32 = 1 << 30;

/// The tag of a tagged key sits in bits 27–29 of `w1`.
const TAG_SHIFT: u32 = 27;

/// Failure budgets take the low 21 bits of a `w1` payload (`fused` puts
/// its `Op` below them, `sum` its run length above them), so the
/// manager keeps every budget a key sees below `2^21`.
pub const BUDGET_BITS: u32 = 21;

/// The `w1` word of a key under `tag`: bit 30 set, the tag in bits
/// 27–29 and `payload` below them.
#[inline]
pub fn tagged(tag: Tag, payload: u32) -> u32 {
    debug_assert!(tag != Tag::Ite, "ite keys are untagged");
    debug_assert!(
        payload < 1 << TAG_SHIFT,
        "payload {payload} overlaps the tag"
    );
    TAGGED | (tag as u32) << TAG_SHIFT | payload
}

/// The tag a key's `w1` word carries.
#[inline]
fn tag_of(w1: u32) -> Tag {
    if w1 & TAGGED == 0 {
        Tag::Ite
    } else {
        Tag::ALL[(w1 >> TAG_SHIFT & 7) as usize]
    }
}

/// The `w1` word of a `sum` entry: the budget, the run length above it.
#[inline]
fn run_key(len: usize, k: u32) -> u32 {
    debug_assert!(k < 1 << BUDGET_BITS, "budget {k} does not fit the key");
    debug_assert!(
        len < 1 << (TAG_SHIFT - BUDGET_BITS),
        "run of {len} operands"
    );
    tagged(Tag::Sum, k | (len as u32) << BUDGET_BITS)
}

/// The run length a `sum` entry's `w1` word carries.
#[inline]
fn run_len(w1: u32) -> usize {
    ((w1 & ((1 << TAG_SHIFT) - 1)) >> BUDGET_BITS) as usize
}

#[inline]
fn key_hash(w0: u64, w1: u32) -> u64 {
    fx_hash_words(w0, w1 as u64)
}

/// A `sum` entry's slot hash: over the operands and the `w1` word, so it
/// is the same whether taken from a probe's operands or from the run in
/// the arena.
#[inline]
fn run_hash(ops: &[NodeRef], w1: u32) -> u64 {
    fx_hash(&(ops, w1))
}

/// Where a key sits in the shadow, if its slot in a [`COMPUTED_MAX`]
/// table is sampled: its index (the top 17 hash bits) and its
/// fingerprint (the 32 hash bits below the ceiling slot, never 0, which
/// marks an empty shadow slot). The slot is the top bits of the same
/// hash the table uses, so a sampled key is one whose ceiling slot is
/// `0 mod 16`.
#[inline]
fn shadow_key(hash: u64) -> Option<(usize, u32)> {
    let slot = (hash >> (64 - CEILING_BITS)) as usize;
    slot.is_multiple_of(SHADOW_SAMPLE).then(|| {
        let fp = (hash >> (64 - CEILING_BITS - 32)) as u32;
        (slot / SHADOW_SAMPLE, fp.max(1))
    })
}

/// Counters of one [`Tag`] in the [`ComputedTable`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TagStats {
    /// Cumulative lookups that hit.
    pub hits: u64,
    /// Cumulative lookups that missed.
    pub misses: u64,
    /// Cumulative entries of this tag dropped: overwritten by a
    /// colliding key of any tag, lost while the table grew, or cleared.
    pub evictions: u64,
    /// Entries of this tag resident now.
    pub resident: usize,
}

/// The manager's one memo table: direct-mapped 16-byte entries that every
/// kernel shares, with one growth rule and one ceiling, [`COMPUTED_MAX`].
///
/// The growth rule reads the reuse distance of the keys, which the table
/// sees in its own traffic. A shadow holds the fingerprints that the
/// sampled slots of a ceiling-sized table would hold: every store of a
/// sampled key writes its fingerprint. A miss on a sampled key is booked
/// as a sampled miss, and as a shadow hit when the shadow holds it,
/// which is a miss the ceiling table would have answered. The table
/// grows ×4 (clamped to the ceiling) at the first store at which the
/// shadow hits reach 1/8 of a window of `capacity / 16` sampled misses;
/// a window that fills without that starts a new one. Growth does not
/// reset the shadow, which models the ceiling and not the current size;
/// [`clear`](Self::clear) does, because handles change under GC. The
/// capacity sequence is therefore a function of the operation sequence.
///
/// A key is two words compared in full, never a hash alone, and the
/// [`Tag`] in the key keeps the kernels apart. A lookup is one multiply
/// hash and one entry read; a colliding insert overwrites. That is safe
/// for memo entries because hash-consing makes recomputation idempotent:
/// the same inputs rebuild the same canonical node, so an eviction costs
/// time, never correctness.
///
/// `sum` keys are operand runs of any length up to 16. A run is copied
/// into a side arena of handles when its entry is stored, and the entry
/// holds the run's *absolute* offset, its length and the budget. A probe
/// hits only if the run is still in the arena and equal to the probe's
/// operands element by element. The arena restarts when it would pass
/// `RUN_ARENA_MAX` handles and when the table is cleared: the base of the
/// next generation is the end of the last, so offsets never repeat and an
/// entry whose run is gone can only miss.
#[derive(Clone, Default)]
pub struct ComputedTable {
    entries: Vec<CacheEntry>,
    len: usize,
    stats: [TagStats; 8],
    /// Fingerprints of the sampled slots of a ceiling-sized table (0 =
    /// empty), allocated with the first entries.
    shadow: Vec<u32>,
    /// Cumulative misses on sampled keys, and those the shadow held.
    sampled: u64,
    shadow_hits: u64,
    /// `(sampled, shadow_hits)` when the current window started.
    window_start: (u64, u64),
    /// The operand runs of `sum` entries, starting at absolute offset
    /// `runs_base`.
    runs: Vec<NodeRef>,
    runs_base: u64,
}

impl ComputedTable {
    /// Creates an empty table (no allocation until the first insert).
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn slot(&self, hash: u64) -> usize {
        debug_assert!(self.entries.len().is_power_of_two());
        // Top bits, for the same reason as `SlotTable::home`.
        (hash >> (64 - self.entries.len().trailing_zeros())) as usize
    }

    /// The slot an entry belongs in, or `None` for a `sum` entry whose
    /// run has left the arena.
    fn home(&self, e: &CacheEntry) -> Option<usize> {
        let hash = if tag_of(e.w1) == Tag::Sum {
            run_hash(self.run_at(e.w0, e.w1)?, e.w1)
        } else {
            key_hash(e.w0, e.w1)
        };
        Some(self.slot(hash))
    }

    /// Looks up a key by its hash without booking the lookup.
    #[inline]
    fn peek(&self, hash: u64, w0: u64, w1: u32) -> Option<u32> {
        debug_assert!(tag_of(w1) != Tag::Sum, "sum keys go through get_run");
        if self.entries.is_empty() {
            return None;
        }
        let e = self.entries[self.slot(hash)];
        (e.val != NO_VAL && e.w0 == w0 && e.w1 == w1).then_some(e.val)
    }

    /// Books one lookup of `tag` as a hit, or as a miss of the key with
    /// slot hash `hash`, which the shadow samples.
    #[inline]
    fn book(&mut self, tag: Tag, hash: u64, hit: bool) {
        let s = &mut self.stats[tag as usize];
        if hit {
            s.hits += 1;
            return;
        }
        s.misses += 1;
        if let Some((i, fp)) = shadow_key(hash) {
            self.sampled += 1;
            if self.shadow.get(i) == Some(&fp) {
                self.shadow_hits += 1;
            }
        }
    }

    /// Looks up a key, booking a hit or a miss under its tag.
    #[inline]
    pub fn get(&mut self, w0: u64, w1: u32) -> Option<u32> {
        let hash = key_hash(w0, w1);
        let r = self.peek(hash, w0, w1);
        self.book(tag_of(w1), hash, r.is_some());
        r
    }

    /// Looks up the two entries of a pair stored together (the two ends
    /// of a `range`) as one lookup, booked under `a`'s tag: a hit needs
    /// both. A miss is sampled by the first key that is absent.
    pub fn get_pair(&mut self, a: (u64, u32), b: (u64, u32)) -> Option<(u32, u32)> {
        let ha = key_hash(a.0, a.1);
        let Some(va) = self.peek(ha, a.0, a.1) else {
            self.book(tag_of(a.1), ha, false);
            return None;
        };
        let hb = key_hash(b.0, b.1);
        let vb = self.peek(hb, b.0, b.1);
        self.book(tag_of(a.1), hb, vb.is_some());
        vb.map(|vb| (va, vb))
    }

    /// Stores `val` under a key, evicting any colliding entry.
    pub fn insert(&mut self, w0: u64, w1: u32, val: u32) {
        debug_assert!(tag_of(w1) != Tag::Sum, "sum keys go through insert_run");
        self.store(key_hash(w0, w1), CacheEntry { w0, w1, val });
    }

    /// Looks up the `sum` entry for the operand run `ops` under budget
    /// `k`, booking a hit or a miss.
    pub fn get_run(&mut self, ops: &[NodeRef], k: u32) -> Option<u32> {
        let w1 = run_key(ops.len(), k);
        let hash = run_hash(ops, w1);
        let hit = if self.entries.is_empty() {
            None
        } else {
            let e = self.entries[self.slot(hash)];
            (e.val != NO_VAL && e.w1 == w1 && self.run_at(e.w0, w1) == Some(ops)).then_some(e.val)
        };
        self.book(Tag::Sum, hash, hit.is_some());
        hit
    }

    /// Stores `val` as the `sum` result for `ops` under budget `k`,
    /// copying the run into the arena (restarting it first when the run
    /// would not fit).
    pub fn insert_run(&mut self, ops: &[NodeRef], k: u32, val: u32) {
        if self.runs.len() + ops.len() > RUN_ARENA_MAX {
            self.runs_base += self.runs.len() as u64;
            self.runs.clear();
        }
        // Doubling, clamped to the restart bound: no handle past
        // `RUN_ARENA_MAX` is ever written, so none is allocated.
        let need = self.runs.len() + ops.len();
        if need > self.runs.capacity() {
            let cap = (2 * self.runs.capacity()).max(need).min(RUN_ARENA_MAX);
            self.runs.reserve_exact(cap - self.runs.len());
        }
        let w0 = self.runs_base + self.runs.len() as u64;
        self.runs.extend_from_slice(ops);
        let w1 = run_key(ops.len(), k);
        self.store(run_hash(ops, w1), CacheEntry { w0, w1, val });
    }

    /// The run a `sum` entry points at, if it is still in the arena.
    fn run_at(&self, w0: u64, w1: u32) -> Option<&[NodeRef]> {
        let start = usize::try_from(w0.checked_sub(self.runs_base)?).ok()?;
        self.runs.get(start..start + run_len(w1))
    }

    /// Stores an entry, first applying the growth rule (see the type's
    /// doc): grow ×4 as soon as the window's shadow hits reach
    /// 1/[`GROW_SHARE`] of the window, else start a new window once
    /// `capacity / 16` sampled misses fill it.
    fn store(&mut self, hash: u64, e: CacheEntry) {
        debug_assert_ne!(e.val, NO_VAL, "cache value collides with empty sentinel");
        if self.entries.is_empty() {
            self.entries = vec![EMPTY_ENTRY; COMPUTED_INITIAL];
            if self.shadow.is_empty() {
                self.shadow = vec![0; SHADOW_SLOTS];
            }
        } else if self.entries.len() < COMPUTED_MAX {
            let window = (self.entries.len() / SHADOW_SAMPLE) as u64;
            let misses = self.sampled - self.window_start.0;
            let hits = self.shadow_hits - self.window_start.1;
            if hits * GROW_SHARE >= window {
                self.grow();
                self.window_start = (self.sampled, self.shadow_hits);
            } else if misses >= window {
                self.window_start = (self.sampled, self.shadow_hits);
            }
        }
        if let Some((i, fp)) = shadow_key(hash) {
            self.shadow[i] = fp;
        }
        let s = self.slot(hash);
        self.place(s, e);
    }

    /// Writes `e` into slot `s`, booking the entry it overwrites.
    fn place(&mut self, s: usize, e: CacheEntry) {
        let old = std::mem::replace(&mut self.entries[s], e);
        if old.val == NO_VAL {
            self.len += 1;
        } else {
            let victim = &mut self.stats[tag_of(old.w1) as usize];
            victim.resident -= 1;
            if (old.w0, old.w1) != (e.w0, e.w1) {
                victim.evictions += 1;
            }
        }
        self.stats[tag_of(e.w1) as usize].resident += 1;
    }

    /// Re-places every entry into a table four times the size (at most
    /// [`COMPUTED_MAX`]). A `sum` entry is re-placed by its run's content
    /// hash; one whose run has left the arena is dropped.
    fn grow(&mut self) {
        let cap = (self.entries.len() * 4).min(COMPUTED_MAX);
        let old = std::mem::replace(&mut self.entries, vec![EMPTY_ENTRY; cap]);
        self.len = 0;
        for s in &mut self.stats {
            s.resident = 0;
        }
        for e in old.into_iter().filter(|e| e.val != NO_VAL) {
            match self.home(&e) {
                Some(s) => self.place(s, e),
                None => self.stats[Tag::Sum as usize].evictions += 1,
            }
        }
    }

    /// Empties every entry and the run arena in place, booking each
    /// resident entry as an eviction of its tag, and empties the shadow
    /// and starts a new window: the handles in the old keys may name
    /// other nodes after a GC. Nothing is freed: the capacity the growth
    /// rule reached, and the run arena's, are kept, so a run that needed
    /// a large table before a collection does not climb to it again.
    /// Cumulative counters survive.
    pub fn clear(&mut self) {
        for s in &mut self.stats {
            s.evictions += s.resident as u64;
            s.resident = 0;
        }
        self.len = 0;
        self.shadow.fill(0);
        self.window_start = (self.sampled, self.shadow_hits);
        self.entries.fill(EMPTY_ENTRY);
        self.runs_base += self.runs.len() as u64;
        self.runs.clear();
    }

    /// Resident entries, all tags.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Allocated entry count (0 before the first insert).
    pub fn capacity(&self) -> usize {
        self.entries.len()
    }

    /// The counters of one tag.
    pub fn stats(&self, tag: Tag) -> TagStats {
        self.stats[tag as usize]
    }

    /// Heap bytes of the entry array: 16 per entry.
    pub fn heap_bytes(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<CacheEntry>()
    }

    /// Heap bytes of the shadow: 4 per fingerprint once allocated.
    pub fn shadow_bytes(&self) -> usize {
        self.shadow.capacity() * std::mem::size_of::<u32>()
    }

    /// Cumulative misses on keys the shadow samples, and how many of
    /// them a ceiling-sized table would have answered.
    pub fn shadow_stats(&self) -> (u64, u64) {
        (self.sampled, self.shadow_hits)
    }

    /// Heap bytes of the `sum` operand-run arena.
    pub fn run_bytes(&self) -> usize {
        self.runs.capacity() * std::mem::size_of::<NodeRef>()
    }

    /// Absolute offset of the run arena's first handle: how many handles
    /// earlier generations of the arena held.
    #[cfg(test)]
    pub(crate) fn runs_base(&self) -> u64 {
        self.runs_base
    }

    /// Iterates the resident `(w0, w1, val)` entries of one tag (audit
    /// sampling).
    pub fn iter(&self, tag: Tag) -> impl Iterator<Item = (u64, u32, u32)> + '_ {
        self.entries
            .iter()
            .filter(move |e| e.val != NO_VAL && tag_of(e.w1) == tag)
            .map(|e| (e.w0, e.w1, e.val))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hasher::fx_hash_word;

    #[test]
    fn slot_table_insert_and_find() {
        let mut t = SlotTable::new();
        let keys: Vec<u64> = (0..500u64).map(|i| i * 3 + 7).collect();
        for (ix, &k) in keys.iter().enumerate() {
            if t.needs_grow() {
                let keys = &keys;
                t.grow(|v| fx_hash_word(keys[v as usize]));
            }
            let p = t.probe(fx_hash_word(k), |v| keys[v as usize] == k);
            assert!(p.found.is_none());
            t.insert_at(p.slot, ix as u32);
        }
        assert_eq!(t.len(), keys.len());
        for (ix, &k) in keys.iter().enumerate() {
            let p = t.probe(fx_hash_word(k), |v| keys[v as usize] == k);
            assert_eq!(p.found, Some(ix as u32));
        }
        let p = t.probe(fx_hash_word(999_999), |v| keys[v as usize] == 999_999);
        assert!(p.found.is_none());
        assert!(t.capacity().is_power_of_two());
        assert!(t.len() * 4 <= t.capacity() * 3);
    }

    #[test]
    fn slot_table_probe_is_deterministic() {
        let build = || {
            let mut t = SlotTable::new();
            let keys: Vec<u64> = (0..200u64).map(|i| i.wrapping_mul(0x9e37_79b9)).collect();
            let mut total_steps = 0u64;
            for (ix, &k) in keys.iter().enumerate() {
                if t.needs_grow() {
                    let keys = &keys;
                    t.grow(|v| fx_hash_word(keys[v as usize]));
                }
                let p = t.probe(fx_hash_word(k), |v| keys[v as usize] == k);
                total_steps += p.steps as u64;
                t.insert_at(p.slot, ix as u32);
            }
            (t.capacity(), total_steps)
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn cache_entry_is_two_words() {
        assert_eq!(std::mem::size_of::<CacheEntry>(), 16);
    }

    fn apply_key(w0: u64) -> (u64, u32) {
        (w0, tagged(Tag::Apply, 0))
    }

    #[test]
    fn computed_table_hit_miss_evict() {
        let mut c = ComputedTable::new();
        let (w0, w1) = apply_key(1);
        assert_eq!(c.get(w0, w1), None);
        assert_eq!(c.stats(Tag::Apply).misses, 1);
        c.insert(w0, w1, 42);
        assert_eq!(c.get(w0, w1), Some(42));
        assert_eq!(c.stats(Tag::Apply).hits, 1);
        assert_eq!(c.len(), 1);
        // Force a collision: scan for another key with the same home slot.
        let target = c.slot(key_hash(w0, w1));
        let mut other = 2u64;
        while c.slot(key_hash(other, w1)) != target {
            other += 1;
        }
        // The newcomer is booked under its own tag, the eviction under
        // the victim's.
        let kreduce = tagged(Tag::Kreduce, 0);
        while c.slot(key_hash(other, kreduce)) != target {
            other += 1;
        }
        c.insert(other, kreduce, 7);
        assert_eq!(c.stats(Tag::Apply).evictions, 1);
        assert_eq!(c.stats(Tag::Apply).resident, 0);
        assert_eq!(c.stats(Tag::Kreduce).resident, 1);
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(w0, w1), None);
        assert_eq!(c.get(other, kreduce), Some(7));
    }

    #[test]
    fn computed_table_clear_books_evictions() {
        let mut c = ComputedTable::new();
        for i in 0..10u64 {
            let (w0, w1) = apply_key(i);
            c.insert(w0, w1, i as u32);
        }
        c.insert_run(&[NodeRef(1), NodeRef(2), NodeRef(3)], 2, 9);
        let apply = c.stats(Tag::Apply);
        assert_eq!(apply.resident + 1, c.len());
        c.clear();
        assert_eq!(
            c.stats(Tag::Apply).evictions,
            apply.evictions + apply.resident as u64
        );
        assert_eq!(c.stats(Tag::Sum).evictions, 1);
        assert_eq!(c.len(), 0);
        assert_eq!(c.get(3, tagged(Tag::Apply, 0)), None);
        assert_eq!(c.get_run(&[NodeRef(1), NodeRef(2), NodeRef(3)], 2), None);
    }

    #[test]
    fn clear_keeps_the_capacity_and_every_probe_misses() {
        // A cycle that grows the table past its initial size, then a
        // clear: the entry array and the run arena keep what they hold,
        // nothing stays resident, and every key stored before misses.
        let period = 1u64 << 17;
        let mut c = ComputedTable::new();
        capacities(&mut c, (0..3 * period).map(|i| i % period));
        let run = [NodeRef(1), NodeRef(2), NodeRef(3)];
        c.insert_run(&run, 2, 9);
        let (cap, run_bytes) = (c.capacity(), c.run_bytes());
        assert!(cap > COMPUTED_INITIAL, "the cycle grows the table to {cap}");
        c.clear();
        assert_eq!((c.capacity(), c.run_bytes()), (cap, run_bytes));
        assert_eq!(c.len(), 0);
        assert!(Tag::ALL.iter().all(|&t| c.stats(t).resident == 0));
        assert!(c.entries.iter().all(|e| e.val == NO_VAL));
        for i in 0..period {
            let (w0, w1) = apply_key(i);
            assert_eq!(c.get(w0, w1), None, "key {i}");
        }
        assert_eq!(c.get_run(&run, 2), None);
        // The kept table takes new entries where it stands.
        memo(&mut c, 5);
        assert_eq!((c.capacity(), c.len()), (cap, 1));
    }

    #[test]
    fn run_arena_never_allocates_past_its_restart_bound() {
        // Runs of 11 handles: plain doubling from the first run would
        // reach 88 handles, past the 64 the arena restarts at.
        let mut c = ComputedTable::new();
        for i in 0..40u32 {
            let run: Vec<NodeRef> = (0..11).map(|j| NodeRef(i * 11 + j)).collect();
            c.insert_run(&run, 1, i);
            assert!(c.runs.capacity() <= RUN_ARENA_MAX, "{}", c.runs.capacity());
        }
        assert!(c.runs_base() > 0, "the arena restarted");
        c.clear();
        assert!(c.runs.capacity() <= RUN_ARENA_MAX);
    }

    /// Looks key `i` up and stores it on a miss, the way a kernel
    /// memoises.
    fn memo(c: &mut ComputedTable, i: u64) {
        let (w0, w1) = apply_key(i);
        if c.get(w0, w1).is_none() {
            c.insert(w0, w1, 1);
        }
    }

    /// Memoises `keys` in order and returns every capacity the table
    /// takes, asserting at each step that it stays under the ceiling.
    fn capacities(c: &mut ComputedTable, keys: impl Iterator<Item = u64>) -> Vec<usize> {
        let mut seen = vec![];
        for i in keys {
            memo(c, i);
            if seen.last() != Some(&c.capacity()) {
                assert!(c.capacity() <= COMPUTED_MAX, "grew to {}", c.capacity());
                seen.push(c.capacity());
            }
        }
        seen
    }

    /// A key the shadow samples, from `from` on.
    fn sampled_key(from: u64) -> u64 {
        (from..)
            .find(|&i| {
                let (w0, w1) = apply_key(i);
                shadow_key(key_hash(w0, w1)).is_some()
            })
            .unwrap()
    }

    #[test]
    fn one_shot_keys_never_grow_the_table() {
        // Sixteen times the initial capacity of distinct keys: every miss
        // is one-shot work that no bigger table would answer.
        let mut c = ComputedTable::new();
        let seen = capacities(&mut c, 0..(COMPUTED_INITIAL as u64 * 16));
        assert_eq!(seen, [COMPUTED_INITIAL]);
        let (sampled, hits) = c.shadow_stats();
        assert!(sampled > 0);
        assert_eq!(hits, 0);
        assert_eq!(c.shadow_bytes(), 4 * SHADOW_SLOTS);
        let resident: usize = Tag::ALL.iter().map(|&t| c.stats(t).resident).sum();
        assert_eq!(resident, c.len());
    }

    #[test]
    fn reused_keys_grow_it_to_the_ceiling() {
        // A cycle of 2^19 keys: longer than every size below the ceiling
        // can hold, short enough for the ceiling to answer most of its
        // misses. ×4 steps from 2^14 pass 2^20; the next must stop at
        // 2^21, not overshoot to 2^22.
        let period = 1u64 << 19;
        let mut c = ComputedTable::new();
        let seen = capacities(&mut c, (0..4 * period).map(|i| i % period));
        assert_eq!(seen, [1 << 14, 1 << 16, 1 << 18, 1 << 20, COMPUTED_MAX]);
        assert_eq!(c.heap_bytes(), 16 * COMPUTED_MAX);
        let (sampled, hits) = c.shadow_stats();
        assert!(hits * GROW_SHARE >= (1 << 14) / SHADOW_SAMPLE as u64 && hits <= sampled);
    }

    #[test]
    fn a_cleared_shadow_answers_nothing_stored_before_the_clear() {
        let mut c = ComputedTable::new();
        let k = sampled_key(0);
        let (w0, w1) = apply_key(k);
        c.insert(w0, w1, 1);
        // Evicted by a key that shares its slot here but not in the
        // ceiling table, `k` is a miss the shadow answers.
        let target = c.slot(key_hash(w0, w1));
        let other = (k + 1..)
            .find(|&i| {
                let h = key_hash(apply_key(i).0, w1);
                c.slot(h) == target
                    && h >> (64 - CEILING_BITS) != key_hash(w0, w1) >> (64 - CEILING_BITS)
            })
            .unwrap();
        c.insert(other, w1, 2);
        assert_eq!(c.get(w0, w1), None);
        assert_eq!(c.shadow_stats(), (1, 1));
        // After a clear, the same lookup is a sampled miss the shadow
        // does not answer.
        c.insert(w0, w1, 1);
        c.clear();
        assert_eq!(c.get(w0, w1), None);
        assert_eq!(c.shadow_stats(), (2, 1));
    }

    #[test]
    fn capacity_sequence_is_a_function_of_the_operations() {
        let ops = || {
            let period = 1u64 << 17;
            // One-shot keys, then a cycle the table cannot hold, then one
            // clear and the cycle again.
            let mut c = ComputedTable::new();
            let mut seen = capacities(&mut c, 1 << 40..(1 << 40) + period);
            seen.extend(capacities(&mut c, (0..3 * period).map(|i| i % period)));
            c.clear();
            seen.extend(capacities(&mut c, (0..3 * period).map(|i| i % period)));
            (seen, c.shadow_stats(), c.capacity())
        };
        let first = ops();
        assert!(
            first.0.iter().any(|&cap| cap > COMPUTED_INITIAL),
            "the cycle grows the table: {:?}",
            first.0
        );
        assert_eq!(first, ops());
    }

    #[test]
    fn keys_stay_exact_under_every_pair_of_tags() {
        // The same raw words under two tags are two keys: whatever one
        // stores, the other misses. `ite` takes the payload as its `w1`
        // word (an `else` handle). The words are those of the first `sum`
        // entry of a table (offset 0, two operands, budget `k`).
        let (run, k) = ([NodeRef(5), NodeRef(7)], 0x123);
        let (w0, payload) = (0u64, k | 2 << BUDGET_BITS);
        assert_eq!(run_key(run.len(), k), tagged(Tag::Sum, payload));
        let key = |tag: Tag| match tag {
            Tag::Ite => (w0, payload),
            _ => (w0, tagged(tag, payload)),
        };
        let lookup = |c: &mut ComputedTable, tag: Tag| match tag {
            Tag::Sum => c.get_run(&run, k),
            _ => {
                let (w0, w1) = key(tag);
                c.get(w0, w1)
            }
        };
        for stored in Tag::ALL {
            let mut c = ComputedTable::new();
            match stored {
                Tag::Sum => c.insert_run(&run, k, 11),
                _ => {
                    let (w0, w1) = key(stored);
                    c.insert(w0, w1, 11);
                }
            }
            for probe in Tag::ALL {
                let want = (probe == stored).then_some(11);
                assert_eq!(
                    lookup(&mut c, probe),
                    want,
                    "{stored:?} probed as {probe:?}"
                );
            }
        }
    }

    #[test]
    fn run_entries_miss_once_their_run_is_gone() {
        let mut c = ComputedTable::new();
        let run = [NodeRef(3), NodeRef(4), NodeRef(9)];
        c.insert_run(&run, 1, 5);
        assert_eq!(c.get_run(&run, 1), Some(5));
        // Same operands, other budget or a prefix: other keys.
        assert_eq!(c.get_run(&run, 2), None);
        assert_eq!(c.get_run(&run[..2], 1), None);
        // Fill the arena until it restarts: the entry's run is gone, and
        // the new runs that reuse its positions do not answer for it.
        let mut i = 0u32;
        while c.runs_base == 0 {
            c.insert_run(
                &[NodeRef(100 + i), NodeRef(200 + i), NodeRef(300 + i)],
                1,
                i,
            );
            i += 1;
        }
        assert_eq!(c.get_run(&run, 1), None);
        // A run stored after the restart hits, also after a growth
        // re-places it by content.
        let fresh = [NodeRef(1), NodeRef(2)];
        c.insert_run(&fresh, 1, 8);
        c.grow();
        assert_eq!(c.get_run(&fresh, 1), Some(8));
    }
}
