//! Flat, cache-friendly hash structures for the MTBDD manager hot path.
//!
//! Two structures live here, both keyed by machine words rather than by
//! `Hash`-trait walks over boxed tuples:
//!
//! * [`SlotTable`] — the open-addressed unique table. It stores only
//!   `u32` arena indices; the node payload stays in the manager's flat
//!   `Vec<Node>`, so a probe touches one contiguous `u32` array plus (on
//!   a candidate match) one arena slot. Linear probing, power-of-two
//!   capacity, no tombstones: deletion happens only via mark-compact GC,
//!   which rebuilds the table from the compacted arena.
//! * [`DirectCache`] — a fixed-size direct-mapped memoization cache for
//!   the `apply`/`apply1`/`ite`/`restrict`/`kreduce`/`fused` operation
//!   caches. Keys are packed into a `u64` and a `u32` word up front; a
//!   lookup is one multiply-hash and one 16-byte entry read (four entries
//!   per cache line). Collisions evict the
//!   previous entry — safe for memo caches because hash-consing makes
//!   recomputation idempotent (same inputs always rebuild the same
//!   canonical node), so evictions cost time, never correctness.
//!
//! Both structures are deterministic functions of their operation
//! sequence (no randomized hashing, no address-dependent state), which
//! is what lets CI gate on exact probe-length and nodes-created numbers
//! across machines.
//!
//! This module is `#[doc(hidden)] pub` so the crate's property tests can
//! model-check `SlotTable` membership against a `HashMap` reference.

/// Sentinel for an empty [`SlotTable`] slot.
pub const EMPTY_SLOT: u32 = u32::MAX;

/// Sentinel value marking an unoccupied [`DirectCache`] entry. Valid
/// cached values are node handles whose raw form never reaches
/// `u32::MAX` (that would require an arena of 2^31 terminals).
const NO_VAL: u32 = u32::MAX;

/// Initial capacity of a [`SlotTable`] (slots).
const TABLE_INITIAL: usize = 64;

/// Initial capacity of a [`DirectCache`] (entries), allocated lazily on
/// first insert: 2^14 × 16 B = 256 KiB per cache.
const CACHE_INITIAL: usize = 1 << 14;

/// Direct-mapped caches grow ×4 (up to this cap) under eviction or
/// residency pressure (see [`DirectCache::insert`]).
const CACHE_MAX: usize = 1 << 20;

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

/// Direct-mapped memoization cache keyed by a packed `u64` and `u32`.
///
/// Hit/miss/eviction counters live inside the cache so per-cache stats
/// cannot be conflated (each manager cache owns exactly its own
/// counters). An eviction is a hash collision overwriting a live entry;
/// sustained eviction pressure grows the cache ×4 up to [`CACHE_MAX`].
#[derive(Clone, Default)]
pub struct DirectCache {
    entries: Vec<CacheEntry>,
    len: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
    evictions_since_grow: u64,
}

impl DirectCache {
    /// Creates an empty cache (no allocation until the first insert).
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn slot(&self, w0: u64, w1: u32) -> usize {
        debug_assert!(self.entries.len().is_power_of_two());
        // Top bits, for the same reason as `SlotTable::home`.
        (crate::hasher::fx_hash_words(w0, w1 as u64) >> (64 - self.entries.len().trailing_zeros()))
            as usize
    }

    /// Looks up the packed key, booking a hit or miss.
    #[inline]
    pub fn get(&mut self, w0: u64, w1: u32) -> Option<u32> {
        if !self.entries.is_empty() {
            let e = self.entries[self.slot(w0, w1)];
            if e.val != NO_VAL && e.w0 == w0 && e.w1 == w1 {
                self.hits += 1;
                return Some(e.val);
            }
        }
        self.misses += 1;
        None
    }

    /// Stores `val` under the packed key, evicting any colliding entry.
    ///
    /// Growth policy: ×4 (up to [`CACHE_MAX`]) when either collisions
    /// since the last growth reach 1/8 of capacity (conflict pressure —
    /// an eviction is a future recomputation, which costs far more than
    /// the rehash) or residency reaches 3/4 of capacity (the next
    /// conflicts are imminent). Both triggers are relative to capacity,
    /// so a workload that outgrows the cache reaches [`CACHE_MAX`]
    /// after a bounded number of early evictions instead of paying
    /// O(capacity) evictions per step as resident-count-relative
    /// triggers do.
    pub fn insert(&mut self, w0: u64, w1: u32, val: u32) {
        debug_assert_ne!(val, NO_VAL, "cache value collides with empty sentinel");
        if self.entries.is_empty() {
            self.entries = vec![EMPTY_ENTRY; CACHE_INITIAL];
        } else if self.entries.len() < CACHE_MAX
            && (self.evictions_since_grow * 8 >= self.entries.len() as u64
                || self.len * 4 >= self.entries.len() * 3)
        {
            self.grow();
        }
        let s = self.slot(w0, w1);
        let e = &mut self.entries[s];
        if e.val == NO_VAL {
            self.len += 1;
        } else if e.w0 != w0 || e.w1 != w1 {
            self.evictions += 1;
            self.evictions_since_grow += 1;
        }
        *e = CacheEntry { w0, w1, val };
    }

    fn grow(&mut self) {
        let new_cap = self.entries.len() * 4;
        let old = std::mem::replace(&mut self.entries, vec![EMPTY_ENTRY; new_cap]);
        self.len = 0;
        self.evictions_since_grow = 0;
        for e in old {
            if e.val == NO_VAL {
                continue;
            }
            let s = self.slot(e.w0, e.w1);
            if self.entries[s].val == NO_VAL {
                self.len += 1;
            }
            self.entries[s] = e;
        }
    }

    /// Drops all entries, booking each resident entry as an eviction
    /// (mirrors the old map caches, whose `clear_caches` counted dropped
    /// entries as evictions). Counters other than eviction survive.
    pub fn clear(&mut self) {
        self.evictions += self.len as u64;
        self.len = 0;
        self.evictions_since_grow = 0;
        self.entries = Vec::new();
    }

    /// Resident entry count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Allocated entry count (0 before first insert).
    pub fn capacity(&self) -> usize {
        self.entries.len()
    }

    /// Cumulative lookup hits.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cumulative lookup misses.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Cumulative evictions (collision overwrites plus cleared entries).
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Heap bytes held by the entry array.
    pub fn heap_bytes(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<CacheEntry>()
    }

    /// Iterates resident `(w0, w1, val)` entries (audit sampling).
    pub fn iter(&self) -> impl Iterator<Item = (u64, u32, u32)> + '_ {
        self.entries
            .iter()
            .filter(|e| e.val != NO_VAL)
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

    #[test]
    fn direct_cache_hit_miss_evict() {
        let mut c = DirectCache::new();
        assert_eq!(c.get(1, 2), None);
        assert_eq!(c.misses(), 1);
        c.insert(1, 2, 42);
        assert_eq!(c.get(1, 2), Some(42));
        assert_eq!(c.hits(), 1);
        assert_eq!(c.len(), 1);
        // Same slot, different key (identical hash inputs impossible; force
        // a collision by inserting a key that maps to the same slot).
        let shift = 64 - c.capacity().trailing_zeros();
        // fx_hash_words is injective-ish; find a colliding w0 by scan.
        let target = (crate::hasher::fx_hash_words(1, 2) >> shift) as usize;
        let mut w0 = 2u64;
        while ((crate::hasher::fx_hash_words(w0, 2) >> shift) as usize) != target {
            w0 += 1;
        }
        c.insert(w0, 2, 7);
        assert_eq!(c.evictions(), 1);
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(1, 2), None);
        assert_eq!(c.get(w0, 2), Some(7));
    }

    #[test]
    fn direct_cache_clear_books_evictions() {
        let mut c = DirectCache::new();
        for i in 0..10u64 {
            c.insert(i, 0, i as u32);
        }
        let resident = c.len() as u64;
        let before = c.evictions();
        c.clear();
        assert_eq!(c.evictions(), before + resident);
        assert_eq!(c.len(), 0);
        assert_eq!(c.capacity(), 0);
        assert_eq!(c.get(3, 0), None);
    }

    #[test]
    fn direct_cache_grows_under_eviction_pressure() {
        let mut c = DirectCache::new();
        // Insert far more distinct keys than the initial capacity; the
        // cache must grow at least once and retain recent entries.
        for i in 0..(CACHE_INITIAL as u64 * 3) {
            c.insert(i, i as u32 ^ 0xdead, (i & 0xffff) as u32);
        }
        assert!(c.capacity() > CACHE_INITIAL);
        assert!(c.capacity() <= CACHE_MAX);
        assert!(c.len() > 0);
    }
}
