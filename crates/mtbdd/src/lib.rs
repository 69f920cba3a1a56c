//! # yu-mtbdd
//!
//! Multi-terminal binary decision diagrams (MTBDDs) specialized for
//! k-failure network verification, as used by the YU system (SIGCOMM 2024,
//! "A General and Efficient Approach to Verifying Traffic Load Properties
//! under Arbitrary k Failures").
//!
//! An MTBDD here represents a *pseudo-boolean function* `{0,1}ⁿ → ℚ ∪ {+∞}`
//! mapping a failure scenario (one boolean per link/router; `1` = alive) to
//! a number: a traffic fraction, a traffic load, or an IGP distance. The
//! crate provides:
//!
//! * a hash-consing [`Mtbdd`] manager where function equality is pointer
//!   equality of [`NodeRef`]s;
//! * exact rational terminals ([`Ratio`]/[`Term`]) so ECMP fractions like
//!   `1/3` sum exactly;
//! * the generic memoized [`Mtbdd::apply`] (add, sub, mul, div with the
//!   `0/0 = 0` ECMP convention, min, max, boolean and comparison guards),
//!   [`Mtbdd::ite`], restriction and evaluation;
//! * [`Mtbdd::kreduce`] — the paper's novel k-failure-equivalence reduction
//!   (§5.2) that keeps diagrams `O(n^k)`-shaped instead of `O(2ⁿ)`;
//! * path/terminal enumeration for Theorem 5.1-style verification and
//!   counterexample extraction.
//!
//! ## Example
//!
//! ```
//! use yu_mtbdd::{Mtbdd, Term};
//!
//! let mut m = Mtbdd::new();
//! let x1 = m.fresh_var(); // link A-C
//! let x2 = m.fresh_var(); // link B-C
//!
//! // Traffic load = 60*x1 + 40*x2 (each link carries its flow when alive).
//! let g1 = m.var_guard(x1);
//! let g2 = m.var_guard(x2);
//! let l1 = m.scale(g1, Term::int(60));
//! let l2 = m.scale(g2, Term::int(40));
//! let load = m.add(l1, l2);
//!
//! // Verify "load stays >= 50 under any single failure".
//! let reduced = m.kreduce(load, 1);
//! let violation = m.find_path(reduced, |t| t < Term::int(50));
//! assert!(violation.is_some()); // failing x1 leaves only 40
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod audit;
mod bigint;
mod dot;
mod fused;
mod gc;
pub mod hasher;
mod kreduce;
mod manager;
mod node;
mod paths;
pub mod profile;
mod ratio;
#[doc(hidden)]
pub mod table;
mod terminal;

pub use audit::{audit_enabled, AuditCheck, AuditReport, AuditViolation};
pub use gc::Remap;
pub use manager::{Mtbdd, MtbddStats, Op, Op1, UniqueProbeStats};
pub use node::{NodeRef, Var};
pub use paths::Path;
pub use profile::{CacheProfile, LevelCount, LevelProfile, ProbeStats};
pub use ratio::Ratio;
pub use terminal::Term;
