//! Exact rational arithmetic for MTBDD terminals.
//!
//! Symbolic traffic fractions are products and sums of ECMP shares such as
//! `1/3` or `75/100`. Floating point would make `1/3 + 1/3 + 1/3 != 1`,
//! which breaks the pointer-equality equivalence checks that both `KREDUCE`
//! and link-local flow equivalence depend on, so terminals are exact
//! rationals, and results stay exact at any size: deep transient
//! forwarding loops can multiply ECMP split factors for dozens of hops.
//!
//! A [`Ratio`] is two words. A value whose numerator fits `i64` and whose
//! denominator is at most `i64::MAX` — every terminal of the benchmark
//! workloads — is stored inline as that pair; any other value is boxed
//! as two [`Int`]s, each an `i128` that spills into a heap-allocated big
//! integer. The form is canonical (a value is inline iff it fits), so
//! equality and hashing, which the terminal table interns by, compare
//! representations; every constructor and operator ends in the one
//! function that picks the form.
//!
//! Arithmetic has three tiers. Two inline operands take the *word path*,
//! which reads the pairs directly: native `u64` gcd and division,
//! products that cannot overflow `i128`, no cross-gcd when a denominator
//! is 1 or the denominators are equal, and a post-add reduction by
//! `gcd(n, g)` (`g` the gcd of the denominators) rather than `gcd(n, d)`.
//! Wider `i128` operands use checked `i128` arithmetic, and only an
//! overflow there reaches the big-integer tier. No call that stays below
//! the spill constructs a `BigUint`.

use crate::bigint::BigUint;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;
use std::num::NonZeroU64;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub};

/// A signed integer with an `i128` fast path and arbitrary-precision
/// fallback. Canonical: the `Big` variant is only used for values outside
/// the `Small` range, so derived `PartialEq`/`Hash` are sound.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Int {
    Small(i128),
    Big { neg: bool, mag: BigUint },
}

impl Int {
    const ZERO: Int = Int::Small(0);
    const ONE: Int = Int::Small(1);

    fn from_big(neg: bool, mag: BigUint) -> Int {
        match mag.to_u128() {
            Some(m) if m <= i128::MAX as u128 => {
                let v = m as i128;
                Int::Small(if neg { -v } else { v })
            }
            Some(m) if neg && m == 1 << 127 => Int::Small(i128::MIN),
            _ => {
                if mag.is_zero() {
                    Int::Small(0)
                } else {
                    Int::Big { neg, mag }
                }
            }
        }
    }

    fn mag(&self) -> BigUint {
        match self {
            Int::Small(v) => BigUint::from_u128(v.unsigned_abs()),
            Int::Big { mag, .. } => mag.clone(),
        }
    }

    fn is_neg(&self) -> bool {
        match self {
            Int::Small(v) => *v < 0,
            Int::Big { neg, .. } => *neg,
        }
    }

    fn is_zero(&self) -> bool {
        matches!(self, Int::Small(0))
    }

    fn neg(&self) -> Int {
        match self {
            Int::Small(v) => match v.checked_neg() {
                Some(n) => Int::Small(n),
                None => Int::Big {
                    neg: false,
                    mag: BigUint::from_u128(1u128 << 127),
                },
            },
            Int::Big { neg, mag } => Int::Big {
                neg: !neg,
                mag: mag.clone(),
            },
        }
    }

    fn add(&self, other: &Int) -> Int {
        if let (Int::Small(a), Int::Small(b)) = (self, other) {
            if let Some(s) = a.checked_add(*b) {
                return Int::Small(s);
            }
        }
        let (an, am) = (self.is_neg(), self.mag());
        let (bn, bm) = (other.is_neg(), other.mag());
        if an == bn {
            Int::from_big(an, am.add(&bm))
        } else {
            match am.cmp_mag(&bm) {
                Ordering::Equal => Int::ZERO,
                Ordering::Greater => Int::from_big(an, am.sub(&bm)),
                Ordering::Less => Int::from_big(bn, bm.sub(&am)),
            }
        }
    }

    fn mul(&self, other: &Int) -> Int {
        if let (Int::Small(a), Int::Small(b)) = (self, other) {
            if let Some(p) = a.checked_mul(*b) {
                return Int::Small(p);
            }
        }
        if self.is_zero() || other.is_zero() {
            return Int::ZERO;
        }
        Int::from_big(
            self.is_neg() != other.is_neg(),
            self.mag().mul(&other.mag()),
        )
    }

    /// Exact division (used only by gcd-normalized paths).
    fn div_exact(&self, other: &Int) -> Int {
        if let (Int::Small(a), Int::Small(b)) = (self, other) {
            debug_assert!(*b != 0 && a % b == 0);
            return Int::Small(a / b);
        }
        let (q, r) = self.mag().divmod(&other.mag());
        debug_assert!(r.is_zero(), "div_exact with remainder");
        Int::from_big(self.is_neg() != other.is_neg(), q)
    }

    fn gcd(&self, other: &Int) -> Int {
        if let (Int::Small(a), Int::Small(b)) = (self, other) {
            // 2¹²⁷ (both operands `i128::MIN`, or one with a zero) is the
            // only gcd of two `Small`s that is not itself `Small`.
            let g = gcd_u128(a.unsigned_abs(), b.unsigned_abs());
            return match i128::try_from(g) {
                Ok(g) => Int::Small(g),
                Err(_) => Int::from_big(false, BigUint::from_u128(g)),
            };
        }
        Int::from_big(false, BigUint::gcd(self.mag(), other.mag()))
    }

    fn cmp(&self, other: &Int) -> Ordering {
        match (self.is_neg(), other.is_neg()) {
            (false, true) => return Ordering::Greater,
            (true, false) => return Ordering::Less,
            _ => {}
        }
        if let (Int::Small(a), Int::Small(b)) = (self, other) {
            return a.cmp(b);
        }
        let mag_cmp = self.mag().cmp_mag(&other.mag());
        if self.is_neg() {
            mag_cmp.reverse()
        } else {
            mag_cmp
        }
    }

    fn to_f64(&self) -> f64 {
        match self {
            Int::Small(v) => *v as f64,
            Int::Big { neg, mag } => {
                let m = mag.to_f64();
                if *neg {
                    -m
                } else {
                    m
                }
            }
        }
    }
}

impl fmt::Display for Int {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Int::Small(v) => write!(f, "{v}"),
            Int::Big { neg, mag } => {
                write!(f, "{}{}", if *neg { "-" } else { "" }, mag.to_decimal())
            }
        }
    }
}

/// An exact rational number `num / den` with `den > 0` and
/// `gcd(num, den) = 1`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Ratio(Repr);

/// The two forms of a [`Ratio`]. Canonical, so derived `PartialEq`/`Hash`
/// are sound: a value is a `Word` iff its numerator fits `i64` and its
/// denominator is at most `i64::MAX`, and `Wide` holds every other value
/// (an `i128` or big component), boxed so that a `Ratio` is two words.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Repr {
    Word { num: i64, den: NonZeroU64 },
    Wide(Box<[Int; 2]>),
}

impl Ratio {
    /// The rational 0.
    pub const ZERO: Ratio = Ratio::word(0, 1);
    /// The rational 1.
    pub const ONE: Ratio = Ratio::word(1, 1);

    /// The word form of the reduced `num / den`, `1 ≤ den ≤ i64::MAX`.
    const fn word(num: i64, den: u64) -> Ratio {
        match NonZeroU64::new(den) {
            Some(den) => Ratio(Repr::Word { num, den }),
            None => panic!("Ratio denominator must be nonzero"),
        }
    }

    /// The canonical form of the reduced `num / den`, `den > 0`.
    #[inline]
    fn from_reduced(num: i128, den: i128) -> Ratio {
        match (i64::try_from(num), i64::try_from(den)) {
            (Ok(n), Ok(d)) => Ratio::word(n, d as u64),
            _ => Ratio(Repr::Wide(Box::new([Int::Small(num), Int::Small(den)]))),
        }
    }

    /// [`Ratio::from_reduced`] for components of any size.
    fn from_ints(num: Int, den: Int) -> Ratio {
        match (&num, &den) {
            (Int::Small(n), Int::Small(d)) => Ratio::from_reduced(*n, *d),
            _ => Ratio(Repr::Wide(Box::new([num, den]))),
        }
    }

    /// The numerator as an [`Int`], borrowed from the wide form.
    fn num(&self) -> Cow<'_, Int> {
        match &self.0 {
            Repr::Word { num, .. } => Cow::Owned(Int::Small(*num as i128)),
            Repr::Wide(p) => Cow::Borrowed(&p[0]),
        }
    }

    /// The denominator as an [`Int`], borrowed from the wide form.
    fn den(&self) -> Cow<'_, Int> {
        match &self.0 {
            Repr::Word { den, .. } => Cow::Owned(Int::Small(den.get() as i128)),
            Repr::Wide(p) => Cow::Borrowed(&p[1]),
        }
    }

    /// Builds `num / den`, normalizing sign and reducing by the gcd.
    ///
    /// # Panics
    /// Panics if `den == 0`.
    pub fn new(num: i128, den: i128) -> Ratio {
        Ratio::make(Int::Small(num), Int::Small(den))
    }

    fn make(num: Int, den: Int) -> Ratio {
        assert!(!den.is_zero(), "Ratio denominator must be nonzero");
        if let (Int::Small(n), Int::Small(d)) = (&num, &den) {
            if let Some(r) = Ratio::make_small(*n, *d) {
                return r;
            }
        }
        Ratio::make_big(num, den)
    }

    /// `n / d` reduced in machine integers: native `u64` gcd and division
    /// when both fit `i64`, `u128` otherwise. `None` only when a reduced
    /// magnitude is 2¹²⁷ (an `i128::MIN` operand that did not reduce).
    fn make_small(n: i128, d: i128) -> Option<Ratio> {
        if n == 0 {
            return Some(Ratio::ZERO);
        }
        let neg = (n < 0) != (d < 0);
        let (nm, dm) = match (i64::try_from(n), i64::try_from(d)) {
            (Ok(n), Ok(d)) => {
                let (n, d) = (n.unsigned_abs(), d.unsigned_abs());
                let g = gcd_u64(n, d);
                ((n / g) as u128, (d / g) as u128)
            }
            _ => {
                let (n, d) = (n.unsigned_abs(), d.unsigned_abs());
                let g = gcd_u128(n, d);
                (n / g, d / g)
            }
        };
        let (nm, dm) = (i128::try_from(nm).ok()?, i128::try_from(dm).ok()?);
        Some(Ratio::from_reduced(if neg { -nm } else { nm }, dm))
    }

    /// `make` at any size, through [`Int`].
    fn make_big(num: Int, den: Int) -> Ratio {
        if num.is_zero() {
            return Ratio::ZERO;
        }
        let g = num.gcd(&den);
        let mut num = num.div_exact(&g);
        let mut den = den.div_exact(&g);
        if den.is_neg() {
            num = num.neg();
            den = den.neg();
        }
        Ratio::from_ints(num, den)
    }

    /// Numerator and denominator of the word form — the operands of the
    /// word path.
    #[inline]
    fn words(&self) -> Option<(i64, u64)> {
        match self.0 {
            Repr::Word { num, den } => Some((num, den.get())),
            Repr::Wide(_) => None,
        }
    }

    /// The integer `n` as a rational.
    pub const fn int(n: i64) -> Ratio {
        Ratio::word(n, 1)
    }

    /// Numerator of the reduced form, or `None` when it has spilled
    /// beyond `i128` (use `to_f64`/`Display` then).
    pub fn numer(&self) -> Option<i128> {
        match *self.num() {
            Int::Small(v) => Some(v),
            Int::Big { .. } => None,
        }
    }

    /// Denominator of the reduced form (always positive), or `None` when
    /// it has spilled beyond `i128`.
    pub fn denom(&self) -> Option<i128> {
        match *self.den() {
            Int::Small(v) => Some(v),
            Int::Big { .. } => None,
        }
    }

    /// Whether either component has spilled beyond `i128`.
    pub fn is_big(&self) -> bool {
        match &self.0 {
            Repr::Word { .. } => false,
            Repr::Wide(p) => p.iter().any(|i| matches!(i, Int::Big { .. })),
        }
    }

    /// Whether the value is 0.
    pub fn is_zero(&self) -> bool {
        matches!(self.0, Repr::Word { num: 0, .. })
    }

    /// Whether the value is 1.
    pub fn is_one(&self) -> bool {
        *self == Ratio::ONE
    }

    /// Whether the value has denominator 1.
    pub fn is_integer(&self) -> bool {
        *self.den() == Int::ONE
    }

    /// Whether the value is strictly negative.
    pub fn is_negative(&self) -> bool {
        match &self.0 {
            Repr::Word { num, .. } => *num < 0,
            Repr::Wide(p) => p[0].is_neg(),
        }
    }

    /// Lossy conversion for reporting and plotting.
    pub fn to_f64(&self) -> f64 {
        self.num().to_f64() / self.den().to_f64()
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    /// Panics when `self` is zero.
    pub fn recip(&self) -> Ratio {
        assert!(!self.is_zero(), "division by zero Ratio");
        Ratio::make(self.den().into_owned(), self.num().into_owned())
    }

    /// Absolute value.
    pub fn abs(&self) -> Ratio {
        if self.is_negative() {
            -self.clone()
        } else {
            self.clone()
        }
    }

    /// The smaller of `self` and `other`.
    pub fn min(self, other: Ratio) -> Ratio {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// The larger of `self` and `other`.
    pub fn max(self, other: Ratio) -> Ratio {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// `self + rhs` without consuming either operand: no heap data is
    /// copied, which is what the aggregation hot loop wants (`acc +=
    /// &volume` instead of two clones per flow).
    pub fn add_ref(&self, rhs: &Ratio) -> Ratio {
        self.add_signed(rhs, false)
    }

    /// `self - rhs` without consuming either operand.
    pub fn sub_ref(&self, rhs: &Ratio) -> Ratio {
        self.add_signed(rhs, true)
    }

    /// `self * rhs` without consuming either operand.
    pub fn mul_ref(&self, rhs: &Ratio) -> Ratio {
        match (self.words(), rhs.words()) {
            (Some((a, b)), Some((c, d))) => mul_words(a, b, c, d),
            _ => self.mul_wide(rhs),
        }
    }

    /// `self ± rhs`.
    fn add_signed(&self, rhs: &Ratio, negate: bool) -> Ratio {
        match (self.words(), rhs.words()) {
            (Some((a, b)), Some((c, d))) => {
                let c = if negate { -(c as i128) } else { c as i128 };
                add_words(a as i128, b, c, d)
            }
            _ => self.add_wide(rhs, negate),
        }
    }

    /// `self ± rhs` for operands of any size: checked `i128` arithmetic
    /// with cross-reduction, then [`Int`].
    fn add_wide(&self, rhs: &Ratio, negate: bool) -> Ratio {
        let (an, ad, bn, bd) = (self.num(), self.den(), rhs.num(), rhs.den());
        if let (Int::Small(an), Int::Small(ad), Int::Small(bn), Int::Small(bd)) =
            (&*an, &*ad, &*bn, &*bd)
        {
            let g = gcd_u128(ad.unsigned_abs(), bd.unsigned_abs()) as i128;
            let (da, db) = (ad / g, bd / g);
            let bn = if negate { bn.checked_neg() } else { Some(*bn) };
            if let (Some(l), Some(r), Some(d)) = (
                an.checked_mul(db),
                bn.and_then(|bn| bn.checked_mul(da)),
                ad.checked_mul(db),
            ) {
                if let Some(n) = l.checked_add(r) {
                    return Ratio::new(n, d);
                }
            }
        }
        let n1 = an.mul(&bd);
        let n2 = bn.mul(&ad);
        let n2 = if negate { n2.neg() } else { n2 };
        Ratio::make(n1.add(&n2), ad.mul(&bd))
    }

    /// `self * rhs` for operands of any size (see [`Ratio::add_wide`]).
    fn mul_wide(&self, rhs: &Ratio) -> Ratio {
        let (a, b, c, d) = (self.num(), self.den(), rhs.num(), rhs.den());
        // Cross-reduction: (a/b)(c/d), g1 = gcd(a, d), g2 = gcd(c, b).
        if let (Int::Small(a), Int::Small(b), Int::Small(c), Int::Small(d)) = (&*a, &*b, &*c, &*d) {
            if *a == 0 || *c == 0 {
                return Ratio::ZERO;
            }
            let g1 = gcd_u128(a.unsigned_abs(), d.unsigned_abs()) as i128;
            let g2 = gcd_u128(c.unsigned_abs(), b.unsigned_abs()) as i128;
            let (a, d) = (a / g1, d / g1);
            let (c, b) = (c / g2, b / g2);
            if let (Some(n), Some(dd)) = (a.checked_mul(c), b.checked_mul(d)) {
                return Ratio::new(n, dd);
            }
        }
        Ratio::make(a.mul(&c), b.mul(&d))
    }
}

/// Word path of `a/b + c/d`: `|a|, |c| ≤ 2⁶³` and `b, d < 2⁶³`, both
/// fractions reduced, so no product or sum below can overflow `i128`.
fn add_words(a: i128, b: u64, c: i128, d: u64) -> Ratio {
    let (t, g, den) = if b == d {
        (a + c, b, 1)
    } else {
        let g = if b == 1 || d == 1 { 1 } else { gcd_u64(b, d) };
        let (bg, dg) = (b / g, d / g);
        (a * dg as i128 + c * bg as i128, g, bg as i128 * dg as i128)
    };
    if t == 0 {
        return Ratio::ZERO;
    }
    // gcd(t, lcm(b, d)) divides g, because a/b and c/d are reduced: only
    // the part of the denominator the two fractions share can cancel.
    let g2 = if g == 1 {
        1
    } else {
        gcd_u64(g, rem_word(t, g))
    };
    let (num, g) = if g2 == 1 {
        (t, g)
    } else {
        (div_word(t, g2), g / g2)
    };
    Ratio::from_reduced(num, den * g as i128)
}

/// Word path of `(a/b)(c/d)`: cross-reduced factors multiply to a reduced
/// result, and no product can overflow `i128`.
fn mul_words(a: i64, b: u64, c: i64, d: u64) -> Ratio {
    if a == 0 || c == 0 {
        return Ratio::ZERO;
    }
    let g1 = if d == 1 {
        1
    } else {
        gcd_u64(a.unsigned_abs(), d)
    };
    let g2 = if b == 1 {
        1
    } else {
        gcd_u64(c.unsigned_abs(), b)
    };
    // g1 ≤ d and g2 ≤ b, both below 2⁶³, so the casts are lossless.
    let n = (a / g1 as i64) as i128 * (c / g2 as i64) as i128;
    let den = (b / g2) as i128 * (d / g1) as i128;
    Ratio::from_reduced(n, den)
}

/// `|t| mod g` with a native division whenever `t` fits a word.
#[inline]
fn rem_word(t: i128, g: u64) -> u64 {
    let m = t.unsigned_abs();
    match u64::try_from(m) {
        Ok(m) => m % g,
        Err(_) => (m % g as u128) as u64,
    }
}

/// `t / g` (exact) with a native division whenever `t` fits a word;
/// `g < 2⁶³`.
#[inline]
fn div_word(t: i128, g: u64) -> i128 {
    match i64::try_from(t) {
        Ok(t) => (t / g as i64) as i128,
        Err(_) => t / g as i128,
    }
}

impl Add for Ratio {
    type Output = Ratio;
    fn add(self, rhs: Ratio) -> Ratio {
        self.add_ref(&rhs)
    }
}

impl AddAssign<&Ratio> for Ratio {
    fn add_assign(&mut self, rhs: &Ratio) {
        *self = self.add_ref(rhs);
    }
}

impl AddAssign for Ratio {
    fn add_assign(&mut self, rhs: Ratio) {
        *self = self.add_ref(&rhs);
    }
}

impl Sub for Ratio {
    type Output = Ratio;
    fn sub(self, rhs: Ratio) -> Ratio {
        self.sub_ref(&rhs)
    }
}

impl Neg for Ratio {
    type Output = Ratio;
    fn neg(self) -> Ratio {
        match self.0 {
            Repr::Word { num, den } => match num.checked_neg() {
                Some(num) => Ratio(Repr::Word { num, den }),
                None => Ratio::from_reduced(-(num as i128), den.get() as i128),
            },
            Repr::Wide(p) => {
                let [num, den] = *p;
                Ratio::from_ints(num.neg(), den)
            }
        }
    }
}

impl Mul for Ratio {
    type Output = Ratio;
    fn mul(self, rhs: Ratio) -> Ratio {
        self.mul_ref(&rhs)
    }
}

impl Div for Ratio {
    type Output = Ratio;
    // Division by reciprocal multiplication is intended here.
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn div(self, rhs: Ratio) -> Ratio {
        self * rhs.recip()
    }
}

fn gcd_u64(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

fn gcd_u128(a: u128, b: u128) -> u128 {
    if let (Ok(a), Ok(b)) = (u64::try_from(a), u64::try_from(b)) {
        return gcd_u64(a, b) as u128;
    }
    let (mut a, mut b) = (a, b);
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

impl PartialOrd for Ratio {
    fn partial_cmp(&self, other: &Ratio) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ratio {
    fn cmp(&self, other: &Ratio) -> Ordering {
        // a/b ? c/d  <=>  a*d ? c*b (b, d > 0); exact at any size.
        if let (Some((a, b)), Some((c, d))) = (self.words(), other.words()) {
            return (a as i128 * d as i128).cmp(&(c as i128 * b as i128));
        }
        let l = self.num().mul(&other.den());
        let r = other.num().mul(&self.den());
        l.cmp(&r)
    }
}

impl From<i64> for Ratio {
    fn from(n: i64) -> Ratio {
        Ratio::int(n)
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_integer() {
            write!(f, "{}", self.num())
        } else {
            write!(f, "{}/{}", self.num(), self.den())
        }
    }
}

impl Serialize for Ratio {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.to_string())
    }
}

impl Deserialize for Ratio {
    fn from_value(v: &serde::Value) -> Result<Ratio, serde::Error> {
        let s = String::from_value(v)?;
        let (n, d) = match s.split_once('/') {
            Some((n, d)) => (n, d),
            None => (s.as_str(), "1"),
        };
        let n: i128 = n.parse().map_err(serde::de::Error::custom)?;
        let d: i128 = d.parse().map_err(serde::de::Error::custom)?;
        if d == 0 {
            return Err(serde::de::Error::custom(format!(
                "ratio \"{s}\" has a zero denominator"
            )));
        }
        Ok(Ratio::new(n, d))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hasher::fx_hash;
    use crate::Term;
    use proptest::prelude::*;

    #[test]
    fn normalization() {
        assert_eq!(Ratio::new(2, 4), Ratio::new(1, 2));
        assert_eq!(Ratio::new(-2, -4), Ratio::new(1, 2));
        assert_eq!(Ratio::new(2, -4), Ratio::new(-1, 2));
        assert_eq!(Ratio::new(0, 7), Ratio::ZERO);
    }

    #[test]
    fn ecmp_thirds_sum_exactly() {
        let third = Ratio::new(1, 3);
        assert_eq!(third.clone() + third.clone() + third, Ratio::ONE);
    }

    #[test]
    fn arithmetic() {
        let a = Ratio::new(3, 4);
        let b = Ratio::new(1, 4);
        assert_eq!(a.clone() + b.clone(), Ratio::ONE);
        assert_eq!(a.clone() - b.clone(), Ratio::new(1, 2));
        assert_eq!(a.clone() * b.clone(), Ratio::new(3, 16));
        assert_eq!(a.clone() / b, Ratio::int(3));
        assert_eq!(-a, Ratio::new(-3, 4));
    }

    #[test]
    fn ordering() {
        assert!(Ratio::new(1, 3) < Ratio::new(1, 2));
        assert!(Ratio::new(-1, 2) < Ratio::ZERO);
        assert_eq!(Ratio::new(2, 6).cmp(&Ratio::new(1, 3)), Ordering::Equal);
    }

    #[test]
    fn display() {
        assert_eq!(Ratio::new(3, 4).to_string(), "3/4");
        assert_eq!(Ratio::int(5).to_string(), "5");
        assert_eq!(Ratio::new(-1, 2).to_string(), "-1/2");
    }

    #[test]
    fn min_max_recip() {
        let a = Ratio::new(1, 3);
        let b = Ratio::new(1, 2);
        assert_eq!(a.clone().min(b.clone()), a);
        assert_eq!(a.max(b.clone()), b);
        assert_eq!(b.recip(), Ratio::int(2));
    }

    #[test]
    fn spills_to_big_and_back() {
        // 1/2^126 squared overflows i128 denominators.
        let tiny = Ratio::new(1, 1 << 126);
        let tinier = tiny.clone() * tiny.clone();
        assert!(tinier.is_big());
        assert!(tinier > Ratio::ZERO);
        assert!(tinier < Ratio::new(1, i128::MAX));
        // Multiplying back up restores the small representation.
        let back = tinier.clone() * Ratio::new(1 << 126, 1);
        assert!(!back.is_big());
        assert_eq!(back, tiny);
        // Exact summation still works: x + x = 2x.
        let double = tinier.clone() + tinier.clone();
        assert_eq!(double, tinier * Ratio::int(2));
    }

    #[test]
    fn big_display_and_f64() {
        let tiny = Ratio::new(1, 1 << 126);
        let tinier = tiny.clone() * tiny; // 1 / 2^252
        let s = tinier.to_string();
        assert!(s.starts_with("1/"));
        assert!(s.len() > 40, "{s}");
        let f = tinier.to_f64();
        assert!((f - 2f64.powi(-252)).abs() < 1e-300);
    }

    #[test]
    fn big_deep_loop_simulation() {
        // Mimic 60 hops of alternating 1/2 and 1/3 splits plus an
        // accumulator — the workload that overflowed plain i128.
        let mut acc = Ratio::ZERO;
        let mut frac = Ratio::ONE;
        for i in 0..60 {
            let split = if i % 2 == 0 {
                Ratio::new(1, 2)
            } else {
                Ratio::new(1, 3)
            };
            frac = frac * split;
            acc += frac.clone();
        }
        assert!(acc > Ratio::ZERO && acc < Ratio::ONE);
        // The geometric-ish series must still be exact: multiply by the
        // final denominator and obtain an integer.
        let denom = frac.recip();
        assert!((acc * denom).is_integer());
    }

    #[test]
    fn add_assign_matches_add() {
        // Small fast path.
        let mut acc = Ratio::ZERO;
        let third = Ratio::new(1, 3);
        for _ in 0..3 {
            acc += &third;
        }
        assert_eq!(acc, Ratio::ONE);
        // By-value form.
        let mut acc2 = Ratio::new(1, 4);
        acc2 += Ratio::new(3, 4);
        assert_eq!(acc2, Ratio::ONE);
        // Big-int spill path stays exact through +=.
        let tiny = Ratio::new(1, 1 << 126);
        let tinier = tiny.clone() * tiny;
        let mut big_acc = Ratio::ZERO;
        for _ in 0..4 {
            big_acc += &tinier;
        }
        assert_eq!(big_acc, tinier * Ratio::int(4));
    }

    /// Integers on and around the tier boundaries: what fits a word,
    /// what only fits `i128`, and the extremes whose negation spills.
    fn arb_edge() -> impl Strategy<Value = i128> {
        let anchor = prop_oneof![
            Just(0i128),
            Just(1 << 31),
            Just(i64::MAX as i128),
            Just(i64::MIN as i128),
            Just(u64::MAX as i128),
            Just(1 << 100),
            Just(i128::MAX),
            Just(i128::MIN),
            // Smooth numbers, so operands share factors to cancel.
            Just(2 * 3 * 5 * 7 * 11 * 13),
            Just(-(1i128 << 62) * 3),
            Just((1i128 << 62) * 9),
        ];
        (anchor, -6i128..=6).prop_map(|(a, d)| a.saturating_add(d))
    }

    /// Edge over edge, or an ECMP-sized fraction (denominators that share
    /// factors, so every reduction in the word path has work to do).
    fn arb_ratio() -> impl Strategy<Value = Ratio> {
        prop_oneof![
            (arb_edge(), arb_edge()).prop_map(|(n, d)| Ratio::new(n, if d == 0 { 1 } else { d })),
            (-200i128..=200, 1i128..=48).prop_map(|(n, d)| Ratio::new(n, d)),
        ]
    }

    /// The definition, in big integers only: no machine-word shortcut.
    fn big_add(a: &Ratio, b: &Ratio) -> Ratio {
        let n = a.num().mul(&b.den()).add(&b.num().mul(&a.den()));
        Ratio::make_big(n, a.den().mul(&b.den()))
    }

    fn big_mul(a: &Ratio, b: &Ratio) -> Ratio {
        Ratio::make_big(a.num().mul(&b.num()), a.den().mul(&b.den()))
    }

    /// Canonical form, checked with the big-integer gcd alone.
    fn assert_canonical(r: &Ratio) {
        let (num, den) = (r.num(), r.den());
        assert!(!den.is_neg() && !den.is_zero(), "{r:?}");
        let g = BigUint::gcd(num.mag(), den.mag());
        assert_eq!(g.to_u128(), Some(1), "{r:?} is not reduced");
        let fits_word = matches!((&*num, &*den), (Int::Small(n), Int::Small(d))
            if i64::try_from(*n).is_ok() && *d <= i64::MAX as i128);
        assert_eq!(r.words().is_some(), fits_word, "{r:?} is in the wrong form");
        for part in [&*num, &*den] {
            if let Int::Big { neg, mag } = part {
                let fits = mag
                    .to_u128()
                    .is_some_and(|m| m <= i128::MAX as u128 || (*neg && m == 1 << 127));
                assert!(!fits, "{r:?} holds a small value in the big form");
            }
        }
    }

    proptest! {
        /// `make`: the machine-integer reduction against the big one, and
        /// the value itself against `n / d` by cross-multiplication.
        #[test]
        fn make_word_path_matches_big_path(n in arb_edge(), d in arb_edge()) {
            let d = if d == 0 { -1 } else { d };
            let r = Ratio::new(n, d);
            prop_assert_eq!(&r, &Ratio::make_big(Int::Small(n), Int::Small(d)));
            assert_canonical(&r);
            prop_assert_eq!(r.num().mul(&Int::Small(d)), Int::Small(n).mul(&r.den()));
        }

        /// `+`, `-`, `*`: whichever tier the operands select agrees with
        /// the checked-`i128` tier and with the big-integer definition.
        #[test]
        fn arithmetic_word_path_matches_big_path(a in arb_ratio(), b in arb_ratio()) {
            let sum = a.add_ref(&b);
            prop_assert_eq!(&sum, &big_add(&a, &b));
            prop_assert_eq!(&sum, &a.add_wide(&b, false));
            assert_canonical(&sum);
            let diff = a.sub_ref(&b);
            prop_assert_eq!(&diff, &big_add(&a, &-b.clone()));
            prop_assert_eq!(&diff, &a.add_wide(&b, true));
            assert_canonical(&diff);
            let prod = a.mul_ref(&b);
            prop_assert_eq!(&prod, &big_mul(&a, &b));
            prop_assert_eq!(&prod, &a.mul_wide(&b));
            assert_canonical(&prod);
        }
    }

    proptest! {
        /// A value that reaches word range through the checked-`i128` or
        /// the big-integer tier is the word-built value, hash included:
        /// the terminal table would otherwise intern one value twice.
        #[test]
        fn wide_and_big_results_in_word_range_are_words(
            n in any::<i64>(),
            d in 1..=i64::MAX,
            x in arb_ratio(),
        ) {
            let word = Ratio::new(n as i128, d as i128);
            prop_assert!(word.words().is_some());
            let big = Int::from_big(false, BigUint::from_u128(1 << 100).mul(&BigUint::from_u128(3)));
            let mut built = vec![
                word.add_ref(&x).sub_ref(&x),
                Ratio::make_big(Int::Small(n as i128).mul(&big), Int::Small(d as i128).mul(&big)),
                Ratio::new(n as i128 * 6, d as i128 * 6),
                -(-word.clone()),
            ];
            if !x.is_zero() {
                built.push(word.mul_ref(&x).mul_ref(&x.recip()));
            }
            for r in built {
                assert_canonical(&r);
                prop_assert_eq!(&r, &word);
                prop_assert_eq!(fx_hash(&r), fx_hash(&word));
                prop_assert_eq!(fx_hash(&Term::Num(r)), fx_hash(&Term::Num(word.clone())));
            }
        }
    }

    #[test]
    fn ratio_is_two_words() {
        assert_eq!(std::mem::size_of::<Ratio>(), 16);
    }

    #[test]
    fn serde_roundtrips_at_the_word_boundary() {
        let max = i64::MAX as i128;
        for (n, d, word) in [
            (max, 1, true),
            (max + 1, 1, false),
            (i64::MIN as i128, 1, true),
            (-max - 2, 1, false),
            (1, max, true),
            (-1, max + 1, false),
            (max, max + 1, false),
        ] {
            let r = Ratio::new(n, d);
            assert_eq!(r.words().is_some(), word, "{n}/{d}");
            assert_canonical(&r);
            // Negation crosses the boundary at i64::MIN and back.
            assert_canonical(&-r.clone());
            assert_eq!(-(-r.clone()), r);
            let s = serde_json::to_string(&r).unwrap();
            let want = if d == 1 {
                format!("\"{n}\"")
            } else {
                format!("\"{n}/{d}\"")
            };
            assert_eq!(s, want);
            let back: Ratio = serde_json::from_str(&s).unwrap();
            assert_eq!(back, r);
            assert_eq!(fx_hash(&back), fx_hash(&r));
        }
    }

    #[test]
    fn zero_denominator_is_a_deserialize_error() {
        for s in ["\"5/0\"", "\"0/0\"", "\"-1/-0\""] {
            let err = serde_json::from_str::<Ratio>(s).unwrap_err();
            assert!(err.to_string().contains("zero denominator"), "{s}: {err}");
        }
    }

    #[test]
    fn accessors_report_a_spill_instead_of_panicking() {
        let half = Ratio::new(-1, 2);
        assert_eq!((half.numer(), half.denom()), (Some(-1), Some(2)));
        let tiny = Ratio::new(1, 1 << 126);
        let tinier = tiny.clone() * tiny;
        assert_eq!((tinier.numer(), tinier.denom()), (Some(1), None));
        assert_eq!(tinier.recip().numer(), None);
    }

    #[test]
    fn serde_roundtrip() {
        let r = Ratio::new(-7, 3);
        let s = serde_json::to_string(&r).unwrap();
        assert_eq!(s, "\"-7/3\"");
        let back: Ratio = serde_json::from_str(&s).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    #[should_panic(expected = "denominator")]
    fn zero_denominator_panics() {
        let _ = Ratio::new(1, 0);
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn zero_recip_panics() {
        let _ = Ratio::ZERO.recip();
    }
}
