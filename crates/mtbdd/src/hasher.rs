//! A fast, non-cryptographic hasher for the hot tables of the MTBDD
//! manager (unique table, terminal table, computed table).
//!
//! The manager performs millions of small-key lookups per verification run;
//! SipHash's per-call overhead dominates with the default hasher. This is
//! the well-known Fx (Firefox/rustc) multiply-xor scheme, which is more than
//! adequate for in-process tables keyed by small integers.

use std::hash::{Hash, Hasher};

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Multiply-xor hasher (the rustc/Firefox "Fx" hash).
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

/// Hashes one pre-packed 64-bit key word with the Fx mixing step.
///
/// Used by the flat-arena unique table and the direct-mapped computed
/// table (`table.rs`), whose keys are packed into machine words up
/// front — hashing is then two multiplies instead of a `Hash`-trait
/// walk over a boxed tuple.
#[inline]
pub fn fx_hash_word(w0: u64) -> u64 {
    (w0.rotate_left(5)).wrapping_mul(SEED)
}

/// Hashes two pre-packed 64-bit key words with the Fx mixing sequence
/// (identical to feeding both words through [`FxHasher`]).
#[inline]
pub fn fx_hash_words(w0: u64, w1: u64) -> u64 {
    let h = (w0.rotate_left(5)).wrapping_mul(SEED);
    (h.rotate_left(5) ^ w1).wrapping_mul(SEED)
}

/// Hashes any `Hash` value with [`FxHasher`]: how the terminal table
/// hashes a terminal and the computed table an operand run.
#[inline]
pub fn fx_hash<T: Hash + ?Sized>(t: &T) -> u64 {
    let mut h = FxHasher::default();
    t.hash(&mut h);
    h.finish()
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_u128(&mut self, n: u128) {
        self.add(n as u64);
        self.add((n >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_keys_hash_differently() {
        let mut h1 = FxHasher::default();
        h1.write_u64(1);
        let mut h2 = FxHasher::default();
        h2.write_u64(2);
        assert_ne!(h1.finish(), h2.finish());
    }
}
