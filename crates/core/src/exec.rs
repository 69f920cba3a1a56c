//! Symbolic traffic execution (paper §4, Algorithms 1 and 2).
//!
//! The forwarding of one flow is treated as a program whose input is the
//! failure state of every link/router. Execution maintains a frontier
//! matrix `M[(router, label stack)] → STF` (symbolic traffic fraction, an
//! MTBDD) and iterates hop by hop:
//!
//! * plain IP traffic looks up the guarded FIB, applies the route
//!   selection encoding `s_r = g_r ∧ ⋀_{r'≺r} ¬g_{r'}` and the ECMP
//!   encoding `c_r = s_r / Σ s_{r'}` (§4.4), and follows each rule;
//! * recursive next hops run route iteration: either a matching SR policy
//!   (weighted split `c_p = g_p·w_p / Σ g_{p'}·w_{p'}` and a label stack
//!   push) or the IGP vector `V^IGP`;
//! * labeled traffic pops segments owned by the current router and is
//!   otherwise forwarded toward the top segment via `V^IGP` (Fig. 7).
//!
//! The per-link symbolic traffic fraction is the sum of the frontier
//! contributions across hops (a link can be crossed at different hop
//! counts by ECMP paths of unequal length). Execution ends when no traffic
//! propagates or at the TTL bound. Traffic that is blackholed, has no
//! route, or loses its SR tunnels accumulates in per-router `Dropped`
//! pseudo-sinks; locally delivered traffic in `Delivered` — both are
//! ordinary [`LoadPoint`]s so "delivered load must not drop" (P1) is just
//! another TLP.
//!
//! With `k = Some(budget)` every binary step of the execution — share
//! division, `amount × share`, accumulation into a load point or the next
//! frontier, the `amount − emitted` drop residual — is computed as
//! `βₖ(f ⊕ g)` by [`Mtbdd::apply_kreduce`], so every frontier entry and
//! every load is the canonical reduced diagram and the un-reduced product
//! or sum is never built (§5.2; Theorem 5.1 guarantees verification
//! results are unaffected). Only the selection guards and the share
//! denominators `Σ s_r` are plain applies: they are operands, never
//! stored.
//!
//! Execution is a pure function of the flow and the routing state, and
//! the arena is hash-consed: re-running a group on the same arena after a
//! routing edit returns the same handle at every load point the edit did
//! not affect. The incremental engine ([`crate::delta`]) relies on exactly
//! that to find what an edit dirtied.

use crate::api::YuVerifier;
use crate::attribution::{flow_label, EntityCost};
use crate::equivalence::FlowGroup;
use std::collections::HashMap;
use std::time::Instant;
use yu_mtbdd::{Mtbdd, NodeRef, Op};
use yu_net::Proto;
use yu_net::{FailureVars, Flow, Ipv4, LinkId, LoadPoint, Network, RouterId};
use yu_routing::{class_partition, NextHop, Rule, SymbolicRoutes};

/// Options for symbolic traffic execution.
#[derive(Debug, Clone, Copy)]
pub struct ExecOptions {
    /// KREDUCE budget (`None` disables the reduction — the Fig. 15/16
    /// ablation).
    pub k: Option<u32>,
    /// Maximum hop count (the TTL bound of Algorithm 1).
    pub max_hops: usize,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            k: None,
            max_hops: yu_net::DEFAULT_MAX_HOPS,
        }
    }
}

/// The symbolic traffic fractions of one flow: an MTBDD per load point,
/// plus the fraction still in flight when the TTL bound was hit
/// (non-zero only under transient forwarding loops).
#[derive(Debug, Clone)]
pub struct FlowStf {
    /// STF per load point (links crossed, delivered, dropped).
    pub loads: HashMap<LoadPoint, NodeRef>,
    /// Traffic still propagating at the TTL bound.
    pub truncated: NodeRef,
}

impl FlowStf {
    /// The STF at `point` (zero if the flow never touches it).
    pub fn at(&self, m: &Mtbdd, point: LoadPoint) -> NodeRef {
        self.loads.get(&point).copied().unwrap_or_else(|| m.zero())
    }

    /// Collects the handles of every per-point STF (for GC).
    pub fn gc_roots(&self, out: &mut Vec<NodeRef>) {
        out.extend(self.loads.values().copied());
        out.push(self.truncated);
    }

    /// Translates handles after a collection.
    pub fn remap(&mut self, remap: &yu_mtbdd::Remap) {
        for v in self.loads.values_mut() {
            *v = remap.get(*v);
        }
        self.truncated = remap.get(self.truncated);
    }
}

/// Interned label stacks (the paper bounds their number by the total SR
/// path length, so interning keeps the frontier keys cheap).
#[derive(Default)]
struct StackTable {
    stacks: Vec<Vec<Ipv4>>,
    ids: HashMap<Vec<Ipv4>, u32>,
}

/// The empty label stack: [`StackTable::new`] interns it first.
const EMPTY_STACK: u32 = 0;

impl StackTable {
    fn new() -> StackTable {
        let mut t = StackTable::default();
        t.intern(&[]);
        t
    }

    /// The id of `stack`; copies it only the first time it is seen.
    fn intern(&mut self, stack: &[Ipv4]) -> u32 {
        if let Some(&id) = self.ids.get(stack) {
            return id;
        }
        let id = self.stacks.len() as u32;
        self.ids.insert(stack.to_vec(), id);
        self.stacks.push(stack.to_vec());
        id
    }

    fn top(&self, id: u32) -> Option<Ipv4> {
        self.stacks[id as usize].first().copied()
    }

    /// The id of stack `id` without its top segment.
    fn pop(&mut self, id: u32) -> u32 {
        let rest = self.stacks[id as usize][1..].to_vec();
        self.intern(&rest)
    }
}

/// Runs symbolic traffic execution for one flow (Algorithm 1).
pub fn simulate_flow(
    m: &mut Mtbdd,
    net: &Network,
    fv: &FailureVars,
    routes: &mut SymbolicRoutes,
    flow: &Flow,
    opts: ExecOptions,
) -> FlowStf {
    let _stage = yu_telemetry::span_detail("exec.flow", || {
        format!("ingress r{} -> {:?}", flow.ingress.0, flow.dst)
    });
    Exec {
        m,
        net,
        fv,
        routes,
        flow,
        opts,
        stacks: StackTable::new(),
        loads: HashMap::new(),
    }
    .run()
}

impl YuVerifier {
    /// Executes one flow group on the verifier's arena — a batch
    /// `add_flows`, or the incremental engine re-executing after a change.
    /// Every execution goes through here, one group after another on the
    /// arena that holds the routing state (DESIGN.md §8 says why nothing
    /// runs in parallel). The one place a group execution is timed: it
    /// feeds the `yu_flow_exec_seconds` / `yu_flow_groups_executed_total`
    /// registry instruments and the group's attribution entry — whose
    /// node delta is added to the phase total in the same step, so the
    /// phase telescopes by construction.
    pub(crate) fn execute(&mut self, g: &FlowGroup) -> FlowStf {
        let opts = ExecOptions {
            k: self.opts.use_kreduce.then_some(self.opts.k),
            max_hops: self.opts.max_hops,
        };
        let t_flow = Instant::now();
        let nodes_before = self.m.nodes_created() as i64;
        let (m, routes) = (&mut self.m, &mut self.routes);
        let stf = simulate_flow(m, &self.net, &self.fv, routes, &g.rep, opts);
        let wall_us = t_flow.elapsed().as_micros() as u64;
        yu_telemetry::with_registry(|r| {
            r.flow_exec_seconds.record(wall_us);
            r.flow_groups_executed_total.inc();
        });
        let nodes_delta = self.m.nodes_created() as i64 - nodes_before;
        self.exec_attr.nodes_delta += nodes_delta;
        self.exec_attr.entities.push(EntityCost {
            label: flow_label(&self.net, &g.rep, g.members),
            wall_us,
            nodes_delta,
        });
        stf
    }
}

struct Exec<'a> {
    m: &'a mut Mtbdd,
    net: &'a Network,
    fv: &'a FailureVars,
    routes: &'a mut SymbolicRoutes,
    flow: &'a Flow,
    opts: ExecOptions,
    stacks: StackTable,
    loads: HashMap<LoadPoint, NodeRef>,
}

impl<'a> Exec<'a> {
    /// `βₖ(f ⊕ g)` under the execution's budget (exact when it has none).
    fn op(&mut self, op: Op, f: NodeRef, g: NodeRef) -> NodeRef {
        self.m.apply_kreduce(op, f, g, self.opts.k)
    }

    fn accumulate(&mut self, point: LoadPoint, amount: NodeRef) {
        if amount == self.m.zero() {
            return;
        }
        let cur = self
            .loads
            .get(&point)
            .copied()
            .unwrap_or_else(|| self.m.zero());
        let sum = self.op(Op::Add, cur, amount);
        self.loads.insert(point, sum);
    }

    fn run(&mut self) -> FlowStf {
        let mut frontier: HashMap<(RouterId, u32), NodeRef> = HashMap::new();
        let ingress_alive = self.fv.router_alive(self.m, self.flow.ingress);
        if ingress_alive != self.m.zero() {
            frontier.insert((self.flow.ingress, EMPTY_STACK), ingress_alive);
        }
        for _hop in 0..self.opts.max_hops {
            if frontier.is_empty() {
                break;
            }
            let mut next: HashMap<(RouterId, u32), NodeRef> = HashMap::new();
            // Deterministic processing order for reproducible runs.
            let mut work: Vec<((RouterId, u32), NodeRef)> = frontier.drain().collect();
            work.sort_by_key(|(k, _)| *k);
            for ((router, stack), amount) in work {
                self.step(router, stack, amount, &mut next);
            }
            frontier = next;
        }
        // Summed in key order too: the sum's intermediates depend on it.
        let mut leftovers: Vec<_> = frontier.into_iter().collect();
        leftovers.sort_by_key(|&(k, _)| k);
        let leftovers: Vec<NodeRef> = leftovers.into_iter().map(|(_, f)| f).collect();
        let truncated = self.m.sum(&leftovers);
        FlowStf {
            loads: std::mem::take(&mut self.loads),
            truncated,
        }
    }

    /// Forwards `amount` of the flow at `router` carrying the interned
    /// label stack `stack` (the paper's `forward` / `forwardSr` /
    /// `forwardIp`).
    fn step(
        &mut self,
        router: RouterId,
        mut stack: u32,
        amount: NodeRef,
        next: &mut HashMap<(RouterId, u32), NodeRef>,
    ) {
        // Pop every leading segment owned by this router (forwardSr line
        // 17-18).
        let mut top = self.stacks.top(stack);
        while let Some(seg) = top {
            if !self.routes.owns(self.net, router, seg) {
                break;
            }
            stack = self.stacks.pop(stack);
            top = self.stacks.top(stack);
        }
        let emitted = match top {
            // Labeled traffic: toward the top segment via V^IGP.
            Some(seg) => self.forward_igp(router, seg, stack, amount, next),
            None => self.forward_ip(router, amount, next),
        };
        // Residual accounting: whatever was neither forwarded nor
        // delivered is dropped here (Null0, no route, dead tunnels, ...).
        let dropped = self.op(Op::Sub, amount, emitted);
        self.accumulate(LoadPoint::Dropped(router), dropped);
    }

    /// Splits `amount` over the `V^IGP` shares of `router` toward `nip`,
    /// emitting each part with label stack `stack`. Returns the emitted
    /// fraction.
    fn forward_igp(
        &mut self,
        router: RouterId,
        nip: Ipv4,
        stack: u32,
        amount: NodeRef,
        next: &mut HashMap<(RouterId, u32), NodeRef>,
    ) -> NodeRef {
        let mut emitted = self.m.zero();
        let shares = self.routes.vigp(self.m, self.net, self.fv, router, nip);
        for &(l, share) in shares.iter() {
            let q = self.op(Op::Mul, amount, share);
            self.emit(l, stack, q, next);
            emitted = self.op(Op::Add, emitted, q);
        }
        emitted
    }

    /// `forwardIp` (Algorithm 2): guarded FIB lookup, route selection,
    /// ECMP, per-rule forwarding. Returns the consumed fraction
    /// (delivered + emitted on links).
    fn forward_ip(
        &mut self,
        router: RouterId,
        amount: NodeRef,
        next: &mut HashMap<(RouterId, u32), NodeRef>,
    ) -> NodeRef {
        let rules = self
            .routes
            .fib_rules(self.m, self.net, self.fv, router, self.flow.dst);
        let multipath = self.net.bgp(router).map(|b| b.multipath).unwrap_or(true);
        let sel = selection_guards(self.m, &rules, multipath);
        let total = self.m.sum(&sel);
        let mut consumed = self.m.zero();
        for (rule, s) in rules.iter().zip(&sel) {
            if *s == self.m.zero() {
                continue;
            }
            // ECMP share c_r = s_r / Σ s_{r'} (the denominator counts the
            // selected rules of the active class in each scenario).
            let c = self.op(Op::Div, *s, total);
            let share = self.op(Op::Mul, amount, c);
            if share == self.m.zero() {
                continue;
            }
            match rule.next_hop {
                NextHop::Receive => {
                    self.accumulate(LoadPoint::Delivered(router), share);
                    consumed = self.op(Op::Add, consumed, share);
                }
                NextHop::Null0 => {
                    // Falls into the dropped residual of `step`.
                }
                NextHop::Direct(l) => {
                    self.emit(l, EMPTY_STACK, share, next);
                    consumed = self.op(Op::Add, consumed, share);
                }
                NextHop::Ip(nip) => {
                    let done = self.resolve_nh(router, nip, share, next);
                    consumed = self.op(Op::Add, consumed, done);
                }
            }
        }
        consumed
    }

    /// `resolveNhIp` (Algorithm 2): SR policy steering or IGP route
    /// iteration. Returns the fraction successfully forwarded.
    fn resolve_nh(
        &mut self,
        router: RouterId,
        nip: Ipv4,
        amount: NodeRef,
        next: &mut HashMap<(RouterId, u32), NodeRef>,
    ) -> NodeRef {
        let Some(pol) = self.routes.sr_policy(router, nip, self.flow.dscp).cloned() else {
            return self.forward_igp(router, nip, EMPTY_STACK, amount, next);
        };
        let mut emitted = self.m.zero();
        // c_p = g_p * w_p / Σ g_{p'} * w_{p'}
        let weighted: Vec<NodeRef> = pol
            .paths
            .iter()
            .map(|p| self.m.scale(p.guard, yu_mtbdd::Term::int(p.weight as i64)))
            .collect();
        let total = self.m.sum(&weighted);
        for (p, wg) in pol.paths.iter().zip(&weighted) {
            let c = self.op(Op::Div, *wg, total);
            let share = self.op(Op::Mul, amount, c);
            if share == self.m.zero() {
                continue;
            }
            let first = p.segments[0];
            let stack = self.stacks.intern(&p.segments);
            let done = if self.routes.owns(self.net, router, first) {
                // Degenerate headend-owns-first-segment case: process
                // the stack immediately at this router.
                self.step(router, stack, share, next);
                share
            } else {
                self.forward_igp(router, first, stack, share, next)
            };
            emitted = self.op(Op::Add, emitted, done);
        }
        emitted
    }

    fn emit(
        &mut self,
        l: LinkId,
        stack: u32,
        q: NodeRef,
        next: &mut HashMap<(RouterId, u32), NodeRef>,
    ) {
        if q == self.m.zero() {
            return;
        }
        self.accumulate(LoadPoint::Link(l), q);
        let to = self.net.topo.link(l).to;
        let cur = next
            .get(&(to, stack))
            .copied()
            .unwrap_or_else(|| self.m.zero());
        let sum = self.op(Op::Add, cur, q);
        next.insert((to, stack), sum);
    }
}

/// Route selection guards over a pre-sorted rule list (paper §4.4):
/// `s_r = g_r ∧ ¬(any rule of a strictly preferred class present)`.
/// With `multipath` disabled, BGP rules within one class additionally
/// block lower-tie rules.
pub(crate) fn selection_guards(m: &mut Mtbdd, rules: &[Rule], multipath: bool) -> Vec<NodeRef> {
    let mut out = vec![m.zero(); rules.len()];
    let mut better = m.zero();
    for class in class_partition(rules) {
        let is_bgp = matches!(rules[class.start].proto, Proto::Ebgp | Proto::Ibgp);
        let mut class_present = m.zero();
        let mut within = m.zero(); // earlier-tie presence, for no-multipath
        for i in class.clone() {
            let g = rules[i].guard;
            let mut blocked = better;
            if is_bgp && !multipath {
                blocked = m.or(blocked, within);
                within = m.or(within, g);
            }
            let not_blocked = m.not(blocked);
            out[i] = m.and(g, not_blocked);
            class_present = m.or(class_present, g);
        }
        better = m.or(better, class_present);
    }
    out
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use yu_mtbdd::{Ratio, Term};
    use yu_net::{BgpConfig, FailureMode, Prefix, Scenario, Topology, ULinkId};

    /// A(AS100) -- B(AS300) == C(AS300, dest): B-C is a 2-link bundle; B
    /// and C run IS-IS + iBGP, C originates 100.0.0.0/24.
    pub(crate) fn bundle_net() -> (Network, [RouterId; 3]) {
        let mut t = Topology::new();
        let cap = Ratio::int(100);
        let a = t.add_router("A", Ipv4::new(10, 0, 0, 1), 100);
        let b = t.add_router("B", Ipv4::new(10, 0, 0, 2), 300);
        let c = t.add_router("C", Ipv4::new(10, 0, 0, 3), 300);
        t.add_link(a, b, 10, cap.clone()); // u0
        t.add_link(b, c, 10, cap.clone()); // u1
        t.add_link(b, c, 10, cap.clone()); // u2
        let mut net = Network::new(t);
        for r in [a, b, c] {
            net.config_mut(r).bgp = Some(BgpConfig::default());
        }
        for r in [b, c] {
            net.config_mut(r).isis_enabled = true;
        }
        let p: Prefix = "100.0.0.0/24".parse().unwrap();
        net.config_mut(c).connected.push(p);
        net.config_mut(c).bgp.as_mut().unwrap().networks = vec![p];
        (net, [a, b, c])
    }

    fn setup(net: &Network) -> (Mtbdd, FailureVars, SymbolicRoutes) {
        let mut m = Mtbdd::new();
        let fv = FailureVars::allocate(&mut m, &net.topo, FailureMode::Links);
        let routes = SymbolicRoutes::compute(&mut m, net, &fv, None);
        (m, fv, routes)
    }

    #[test]
    fn ecmp_over_parallel_links_and_failover() {
        let (net, [a, _b, c]) = bundle_net();
        let (mut m, fv, mut routes) = setup(&net);
        let flow = Flow::new(
            a,
            Ipv4::new(11, 0, 0, 1),
            "100.0.0.9".parse().unwrap(),
            0,
            Ratio::int(80),
        );
        let stf = simulate_flow(
            &mut m,
            &net,
            &fv,
            &mut routes,
            &flow,
            ExecOptions::default(),
        );

        // Delivered fully at C with no failures.
        let d = stf.at(&m, LoadPoint::Delivered(c));
        assert_eq!(m.eval_all_alive(d), Term::ONE);

        // Each bundle member carries 1/2 via iBGP nexthop resolution.
        let (l1, _) = net.topo.directions(ULinkId(1));
        let (l2, _) = net.topo.directions(ULinkId(2));
        let f1 = stf.at(&m, LoadPoint::Link(l1));
        let f2 = stf.at(&m, LoadPoint::Link(l2));
        assert_eq!(m.eval_all_alive(f1), Term::ratio(1, 2));
        assert_eq!(m.eval_all_alive(f2), Term::ratio(1, 2));

        // One bundle link down: the survivor carries 100%.
        let s = Scenario::links([ULinkId(1)]);
        assert_eq!(m.eval(f1, fv.assignment(&s)), Term::ZERO);
        assert_eq!(m.eval(f2, fv.assignment(&s)), Term::ONE);
        assert_eq!(m.eval(d, fv.assignment(&s)), Term::ONE);

        // Both down: dropped at B (no route once BGP withdraws)... A-B
        // still delivers traffic to B? No: B's iBGP route from C needs IGP
        // reachability; both links down => session down => B has no route,
        // so A never learns one either: traffic dies at A.
        let s = Scenario::links([ULinkId(1), ULinkId(2)]);
        assert_eq!(m.eval(d, fv.assignment(&s)), Term::ZERO);
        let dropped_a = stf.at(&m, LoadPoint::Dropped(a));
        assert_eq!(m.eval(dropped_a, fv.assignment(&s)), Term::ONE);
        assert_eq!(m.eval_all_alive(dropped_a), Term::ZERO);
        assert_eq!(m.eval_all_alive(stf.truncated), Term::ZERO);
    }

    #[test]
    fn kreduce_execution_matches_exact_on_small_scenarios() {
        let (net, [a, _, c]) = bundle_net();
        let (mut m, fv, mut routes) = setup(&net);
        let flow = Flow::new(
            a,
            Ipv4::new(11, 0, 0, 1),
            "100.0.0.9".parse().unwrap(),
            0,
            Ratio::int(80),
        );
        let exact = simulate_flow(
            &mut m,
            &net,
            &fv,
            &mut routes,
            &flow,
            ExecOptions::default(),
        );
        let mut routes2 = SymbolicRoutes::compute(&mut m, &net, &fv, Some(1));
        let reduced = simulate_flow(
            &mut m,
            &net,
            &fv,
            &mut routes2,
            &flow,
            ExecOptions {
                k: Some(1),
                max_hops: 64,
            },
        );
        for u in net.topo.ulinks() {
            let s = Scenario::links([u]);
            let de = m.eval(exact.at(&m, LoadPoint::Delivered(c)), fv.assignment(&s));
            let dr = m.eval(reduced.at(&m, LoadPoint::Delivered(c)), fv.assignment(&s));
            assert_eq!(de, dr, "delivered mismatch under {s:?}");
            for l in net.topo.links() {
                let fe = m.eval(exact.at(&m, LoadPoint::Link(l)), fv.assignment(&s));
                let fr = m.eval(reduced.at(&m, LoadPoint::Link(l)), fv.assignment(&s));
                assert_eq!(fe, fr, "link {l:?} mismatch under {s:?}");
            }
        }
    }

    #[test]
    fn selection_guards_respect_class_order() {
        let mut m = Mtbdd::new();
        let v = m.fresh_var();
        let g = m.var_guard(v);
        let one = m.one();
        let mk = |proto: Proto, tie: u32, guard: NodeRef| Rule {
            prefix: "10.0.0.0/8".parse().unwrap(),
            proto,
            next_hop: NextHop::Null0,
            local_pref: if matches!(proto, Proto::Ebgp | Proto::Ibgp) {
                100
            } else {
                0
            },
            as_path_len: 0,
            tie,
            guard,
        };
        let mut rules = vec![mk(Proto::Static, 0, g), mk(Proto::Ebgp, 1, one)];
        yu_routing::sort_rules(&mut rules);
        let sel = selection_guards(&mut m, &rules, true);
        // Static (admin 1) blocks eBGP when present.
        assert_eq!(m.eval_all_alive(sel[0]), Term::ONE);
        assert_eq!(m.eval_all_alive(sel[1]), Term::ZERO);
        assert_eq!(m.eval(sel[1], |_| false), Term::ONE);
    }

    #[test]
    fn no_multipath_blocks_within_class() {
        let mut m = Mtbdd::new();
        let v = m.fresh_var();
        let g = m.var_guard(v);
        let one = m.one();
        let mk = |tie: u32, guard: NodeRef| Rule {
            prefix: "10.0.0.0/8".parse().unwrap(),
            proto: Proto::Ebgp,
            next_hop: NextHop::Null0,
            local_pref: 100,
            as_path_len: 1,
            tie,
            guard,
        };
        let rules = vec![mk(0, g), mk(1, one)];
        let sel = selection_guards(&mut m, &rules, false);
        // Lowest tie wins when present; the other is used as fallback.
        assert_eq!(m.eval_all_alive(sel[0]), Term::ONE);
        assert_eq!(m.eval_all_alive(sel[1]), Term::ZERO);
        assert_eq!(m.eval(sel[1], |_| false), Term::ONE);
        // With multipath both are selected where both present.
        let sel = selection_guards(&mut m, &rules, true);
        assert_eq!(m.eval_all_alive(sel[0]), Term::ONE);
        assert_eq!(m.eval_all_alive(sel[1]), Term::ONE);
    }
}
