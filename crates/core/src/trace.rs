//! Route-dependency traces for incremental re-verification.
//!
//! Symbolic execution of one flow consults the routing state through five
//! query kinds: guarded FIB lookups, IGP route iteration (`V^IGP`), SR
//! policy matching, segment ownership, and ingress liveness. A
//! [`RouteTrace`] records every *distinct* query a flow's execution issued
//! together with the answer it received. Because execution is a
//! deterministic function of those answers, replaying the queries against a
//! *new* routing state and getting identical answers proves the flow's
//! symbolic traffic fractions are unchanged — bit-for-bit, since answers
//! are compared by `NodeRef` (canonical-handle) equality inside one arena.
//!
//! This is the dependency tracker behind `yu serve` / `yu diff`: after a
//! routing-affecting change, each flow group's trace is replayed and only
//! groups with a mismatching answer are re-executed.

use std::collections::HashSet;
use std::rc::Rc;
use yu_mtbdd::{Mtbdd, NodeRef, Remap};
use yu_net::{FailureVars, Ipv4, LinkId, Network, RouterId};
use yu_routing::{Rule, SymbolicRoutes};

/// A routing-state query issued during symbolic execution, keyed by every
/// input that can change the answer.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum TraceQuery {
    /// Guarded FIB lookup: `(router, dstip)` (plus the router's multipath
    /// setting, folded into the answer).
    Fib(RouterId, Ipv4),
    /// IGP route iteration toward `nip` at `router`.
    Vigp(RouterId, Ipv4),
    /// SR policy matching `(nip, dscp)` at `router`.
    Sr(RouterId, Ipv4, u8),
    /// Whether `router` owns (terminates) IGP destination `ip`.
    Owns(RouterId, Ipv4),
    /// The ingress-liveness guard of `router`.
    Alive(RouterId),
}

/// The recorded answer to a [`TraceQuery`]. Guarded answers hold `NodeRef`s
/// into the arena the trace lives in; they are GC roots.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceAnswer {
    /// FIB rules (sorted, with guards) and the router's multipath setting.
    Fib {
        /// The guarded rules, in selection order.
        rules: Vec<Rule>,
        /// Whether ECMP across equally-preferred BGP routes is enabled.
        multipath: bool,
    },
    /// ECMP shares per outgoing link.
    Vigp(Vec<(LinkId, NodeRef)>),
    /// The matching policy's weighted guarded paths (`None` = no policy).
    /// Endpoint and DSCP match are part of the query key.
    Sr(Option<Vec<(Vec<Ipv4>, u64, NodeRef)>>),
    /// Ownership verdict.
    Owns(bool),
    /// Liveness guard.
    Alive(NodeRef),
}

/// The set of routing queries one flow's execution depended on.
#[derive(Debug, Clone, Default)]
pub struct RouteTrace {
    entries: Vec<(TraceQuery, TraceAnswer)>,
    seen: HashSet<TraceQuery>,
}

impl RouteTrace {
    /// Empty trace.
    pub fn new() -> RouteTrace {
        RouteTrace::default()
    }

    /// Number of distinct queries recorded.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no query was recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The destination the traced execution ran toward: every FIB lookup
    /// of one execution is keyed by its flow's destination, and nothing
    /// else in the trace depends on it. `None` when no FIB was consulted
    /// (the result is then the same for every destination).
    pub fn dst(&self) -> Option<Ipv4> {
        self.entries.iter().find_map(|(q, _)| match q {
            TraceQuery::Fib(_, dst) => Some(*dst),
            _ => None,
        })
    }

    /// Records the first occurrence of `query`; repeats are dropped
    /// (queries are deterministic per key within one execution).
    pub fn record(&mut self, query: TraceQuery, answer: impl FnOnce() -> TraceAnswer) {
        if self.seen.insert(query.clone()) {
            self.entries.push((query, answer()));
        }
    }

    /// Replays every recorded query against a (possibly new) routing state
    /// in the *same arena* and checks the answers are identical. `true`
    /// means the flow's execution would produce bit-identical STFs;
    /// `false` means it must be re-executed. Conservative by construction:
    /// any mismatch, including one that would not change the outcome,
    /// forces re-execution.
    pub fn still_valid(
        &self,
        m: &mut Mtbdd,
        net: &Network,
        fv: &FailureVars,
        routes: &mut SymbolicRoutes,
    ) -> bool {
        self.entries.iter().all(|(q, a)| match (q, a) {
            (TraceQuery::Fib(r, dst), TraceAnswer::Fib { rules, multipath }) => {
                let now = routes.fib_rules(m, net, fv, *r, *dst);
                let mp = net.bgp(*r).map(|b| b.multipath).unwrap_or(true);
                mp == *multipath && *now == *rules
            }
            (TraceQuery::Vigp(r, nip), TraceAnswer::Vigp(shares)) => {
                *routes.vigp(m, net, fv, *r, *nip) == **shares
            }
            (TraceQuery::Sr(r, nip, dscp), TraceAnswer::Sr(paths)) => {
                snapshot_sr(routes, *r, *nip, *dscp) == *paths
            }
            (TraceQuery::Owns(r, ip), TraceAnswer::Owns(owned)) => {
                routes.owns(net, *r, *ip) == *owned
            }
            (TraceQuery::Alive(r), TraceAnswer::Alive(g)) => fv.router_alive(m, *r) == *g,
            _ => false,
        })
    }

    /// Collects every recorded guard handle (GC roots).
    pub fn gc_roots(&self, out: &mut Vec<NodeRef>) {
        for (_, a) in &self.entries {
            match a {
                TraceAnswer::Fib { rules, .. } => out.extend(rules.iter().map(|r| r.guard)),
                TraceAnswer::Vigp(shares) => out.extend(shares.iter().map(|(_, g)| *g)),
                TraceAnswer::Sr(Some(paths)) => out.extend(paths.iter().map(|(_, _, g)| *g)),
                TraceAnswer::Sr(None) | TraceAnswer::Owns(_) => {}
                TraceAnswer::Alive(g) => out.push(*g),
            }
        }
    }

    /// Translates every guard handle after a collection.
    pub fn remap(&mut self, remap: &Remap) {
        let f = |g: &mut NodeRef| *g = remap.get(*g);
        for (_, a) in &mut self.entries {
            match a {
                TraceAnswer::Fib { rules, .. } => {
                    for r in rules {
                        f(&mut r.guard);
                    }
                }
                TraceAnswer::Vigp(shares) => {
                    for (_, g) in shares {
                        f(g);
                    }
                }
                TraceAnswer::Sr(Some(paths)) => {
                    for (_, _, g) in paths {
                        f(g);
                    }
                }
                TraceAnswer::Sr(None) | TraceAnswer::Owns(_) => {}
                TraceAnswer::Alive(g) => f(g),
            }
        }
    }
}

/// The comparable snapshot of the SR policy matching `(nip, dscp)` at
/// `router`: segment lists, weights, and tunnel guards.
pub(crate) fn snapshot_sr(
    routes: &SymbolicRoutes,
    router: RouterId,
    nip: Ipv4,
    dscp: u8,
) -> Option<Vec<(Vec<Ipv4>, u64, NodeRef)>> {
    routes.sr_policy(router, nip, dscp).map(|pol| {
        pol.paths
            .iter()
            .map(|p| (p.segments.clone(), p.weight, p.guard))
            .collect()
    })
}

/// Records a FIB answer (shared helper for the recording wrappers in
/// `exec`).
pub(crate) fn fib_answer(rules: &Rc<Vec<Rule>>, multipath: bool) -> TraceAnswer {
    TraceAnswer::Fib {
        rules: (**rules).clone(),
        multipath,
    }
}
