//! Terminal values of MTBDDs.
//!
//! A terminal is either a finite rational (a traffic fraction, a traffic
//! load in Gbps, an IGP distance, or a 0/1 boolean) or `+∞`, which the
//! symbolic IGP uses as the distance of unreachable routers. Arithmetic on
//! `+∞` follows the conventions needed by guarded Bellman–Ford and by the
//! ITE-style compositions in symbolic traffic execution:
//!
//! * `∞ + x = ∞`, `min(∞, x) = x`, `max(∞, x) = ∞`
//! * `0 · ∞ = 0` (so that `guard · value` annihilates under a false guard)
//! * comparisons treat `∞` as larger than every finite value.

// The checked `add`/`sub`/`mul`/`div` below intentionally shadow the
// operator names: they are the Op::combine entry points and must stay
// ordinary methods (operator traits would hide the ∞ conventions).
#![allow(clippy::should_implement_trait)]

use crate::ratio::Ratio;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;

/// A terminal value: a finite exact rational or positive infinity.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Term {
    /// A finite exact rational value.
    Num(Ratio),
    /// Positive infinity (the distance of an unreachable router).
    PosInf,
}

impl Term {
    /// The terminal 0.
    pub const ZERO: Term = Term::Num(Ratio::ZERO);
    /// The terminal 1.
    pub const ONE: Term = Term::Num(Ratio::ONE);

    /// The integer `n` as a finite terminal.
    pub fn int(n: i64) -> Term {
        Term::Num(Ratio::int(n))
    }

    /// The rational `num/den` as a finite terminal.
    pub fn ratio(num: i128, den: i128) -> Term {
        Term::Num(Ratio::new(num, den))
    }

    /// Whether the terminal is the finite value 0.
    pub fn is_zero(&self) -> bool {
        matches!(self, Term::Num(r) if r.is_zero())
    }

    /// Whether the terminal is the finite value 1.
    pub fn is_one(&self) -> bool {
        matches!(self, Term::Num(r) if r.is_one())
    }

    /// Whether the terminal is finite (not `+inf`).
    pub fn is_finite(&self) -> bool {
        matches!(self, Term::Num(_))
    }

    /// The finite value, if any.
    pub fn finite(&self) -> Option<Ratio> {
        match self {
            Term::Num(r) => Some(r.clone()),
            Term::PosInf => None,
        }
    }

    /// Lossy conversion for reporting; `+∞` maps to `f64::INFINITY`.
    pub fn to_f64(&self) -> f64 {
        match self {
            Term::Num(r) => r.to_f64(),
            Term::PosInf => f64::INFINITY,
        }
    }

    /// Addition; `inf + x = inf`.
    pub fn add(self, rhs: Term) -> Term {
        self.add_ref(&rhs)
    }

    /// [`Term::add`] on borrowed operands (the kernels combine terminals
    /// straight out of the arena's pool).
    pub fn add_ref(&self, rhs: &Term) -> Term {
        match (self, rhs) {
            (Term::Num(a), Term::Num(b)) => Term::Num(a.add_ref(b)),
            _ => Term::PosInf,
        }
    }

    /// Subtraction; defined when the right operand is finite.
    pub fn sub(self, rhs: Term) -> Term {
        self.sub_ref(&rhs)
    }

    /// [`Term::sub`] on borrowed operands.
    pub fn sub_ref(&self, rhs: &Term) -> Term {
        match (self, rhs) {
            (Term::Num(a), Term::Num(b)) => Term::Num(a.sub_ref(b)),
            (Term::PosInf, Term::Num(_)) => Term::PosInf,
            _ => panic!("Term subtraction with infinite right operand"),
        }
    }

    /// Multiplication with the `0 * inf = 0` guard convention.
    pub fn mul(self, rhs: Term) -> Term {
        self.mul_ref(&rhs)
    }

    /// [`Term::mul`] on borrowed operands.
    pub fn mul_ref(&self, rhs: &Term) -> Term {
        match (self, rhs) {
            (Term::Num(a), Term::Num(b)) => Term::Num(a.mul_ref(b)),
            // 0 * inf = 0 so that `guard * value` annihilates correctly.
            (Term::Num(a), Term::PosInf) | (Term::PosInf, Term::Num(a)) if a.is_zero() => {
                Term::ZERO
            }
            (Term::Num(a), Term::PosInf) | (Term::PosInf, Term::Num(a)) if a.is_negative() => {
                panic!("Term multiplication of negative value with +inf")
            }
            _ => Term::PosInf,
        }
    }

    /// Division with the `0 / 0 = 0` convention used by the ECMP encoding
    /// `c_r = s_r / Σ s_{r'}`: where no rule is selected both numerator and
    /// denominator are zero and the share is zero.
    pub fn div(self, rhs: Term) -> Term {
        match (self, rhs) {
            (Term::Num(a), Term::Num(b)) => {
                if b.is_zero() {
                    assert!(a.is_zero(), "Term division {a}/0 with nonzero numerator");
                    Term::ZERO
                } else {
                    Term::Num(a / b)
                }
            }
            (Term::Num(_), Term::PosInf) => Term::ZERO,
            (Term::PosInf, Term::Num(b)) if !b.is_zero() && !b.is_negative() => Term::PosInf,
            _ => panic!("unsupported Term division involving +inf"),
        }
    }

    /// The smaller terminal (`inf` is the identity).
    pub fn min(self, rhs: Term) -> Term {
        if self <= rhs {
            self
        } else {
            rhs
        }
    }

    /// The larger terminal (`inf` is absorbing).
    pub fn max(self, rhs: Term) -> Term {
        if self >= rhs {
            self
        } else {
            rhs
        }
    }
}

impl PartialOrd for Term {
    fn partial_cmp(&self, other: &Term) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Term {
    fn cmp(&self, other: &Term) -> Ordering {
        match (self, other) {
            (Term::Num(a), Term::Num(b)) => a.cmp(b),
            (Term::Num(_), Term::PosInf) => Ordering::Less,
            (Term::PosInf, Term::Num(_)) => Ordering::Greater,
            (Term::PosInf, Term::PosInf) => Ordering::Equal,
        }
    }
}

impl From<Ratio> for Term {
    fn from(r: Ratio) -> Term {
        Term::Num(r)
    }
}

impl From<i64> for Term {
    fn from(n: i64) -> Term {
        Term::int(n)
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Num(r) => write!(f, "{r}"),
            Term::PosInf => write!(f, "+inf"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn infinity_arithmetic() {
        assert_eq!(Term::PosInf.add(Term::int(5)), Term::PosInf);
        assert_eq!(Term::int(5).add(Term::PosInf), Term::PosInf);
        assert_eq!(Term::PosInf.min(Term::int(5)), Term::int(5));
        assert_eq!(Term::PosInf.max(Term::int(5)), Term::PosInf);
        assert_eq!(Term::ZERO.mul(Term::PosInf), Term::ZERO);
        assert_eq!(Term::PosInf.mul(Term::int(3)), Term::PosInf);
    }

    #[test]
    fn zero_over_zero_is_zero() {
        assert_eq!(Term::ZERO.div(Term::ZERO), Term::ZERO);
        assert_eq!(Term::int(3).div(Term::int(4)), Term::ratio(3, 4));
    }

    #[test]
    fn ordering_puts_infinity_last() {
        assert!(Term::int(1_000_000) < Term::PosInf);
        assert_eq!(Term::PosInf.cmp(&Term::PosInf), Ordering::Equal);
    }

    /// A two-word [`Ratio`] leaves no niche for `PosInf`, so the tag
    /// takes a third word (DESIGN.md §16.1).
    #[test]
    fn term_is_three_words() {
        assert_eq!(std::mem::size_of::<Term>(), 24);
    }

    #[test]
    #[should_panic(expected = "nonzero numerator")]
    fn nonzero_over_zero_panics() {
        let _ = Term::int(1).div(Term::ZERO);
    }
}
