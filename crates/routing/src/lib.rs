//! # yu-routing
//!
//! Symbolic route simulation — the substrate the YU paper builds on
//! (Hoyan-style guarded RIBs, §4.1) — plus a concrete per-scenario
//! simulator used by the baselines and as a differential-testing oracle.
//!
//! * [`IgpState`]: guarded Bellman–Ford IS-IS distances, reachability
//!   guards, guarded IGP RIB rules, and the `V^IGP` route-iteration
//!   vectors of §4.4.
//! * [`BgpState`]: round-based symbolic eBGP/iBGP propagation with guard
//!   merging (Fig. 6), AS-path loop prevention, local preference, and
//!   prefix classification.
//! * [`DstClasses`]: destination forwarding-equivalence classes — which
//!   addresses every FIB lookup treats alike (global flow equivalence).
//! * [`guarded_sr_policies`]: SR tunnel establishment guards (Fig. 4).
//! * [`SymbolicRoutes`]: the facade serving unified guarded FIB lookups
//!   (symbolic longest-prefix match across connected/static/BGP/IS-IS).
//! * [`ConcreteRoutes`]: Dijkstra + concrete BGP + concrete traffic
//!   forwarding under a single failure scenario.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bgp;
pub mod concrete;
pub mod display;
pub mod dst_class;
pub mod igp;
pub mod rib;
pub mod sr;
pub mod symbolic;

pub use bgp::{
    classify_prefixes, BgpFrom, BgpRoute, BgpState, ClassId, ClassSig, OriginKind, OriginSig,
};
pub use concrete::{
    CRule, ConcreteFlowResult, ConcreteRoutes, PathOutcome, TracedPath, MAX_TRACED_PATHS,
};
pub use display::{format_fib, format_guard, format_sr_policies};
pub use dst_class::DstClasses;
pub use igp::{IgpShares, IgpState};
pub use rib::{class_partition, sort_rules, NextHop, Rule};
pub use sr::{guarded_sr_policies, GuardedSrPath, GuardedSrPolicy};
pub use symbolic::SymbolicRoutes;
