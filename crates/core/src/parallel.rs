//! Sharded parallel symbolic execution and property checking.
//!
//! Two stages of the pipeline are embarrassingly parallel and share the
//! worker-pool plumbing here:
//!
//! * **Execution** (§5): every flow group's symbolic traffic function is
//!   built independently before loads are summed per link, so flow groups
//!   are dealt round-robin across a pool of OS threads
//!   ([`execute_sharded`]).
//! * **Checking** (§4.5/§5.3): every requirement's load point is
//!   aggregated and scanned independently, so requirements are dealt the
//!   same way ([`check_sharded`]).
//!
//! Neither stage takes a lock or shares a unique table or apply cache
//! between workers, but they get there differently. An **execution
//! worker owns a private [`Mtbdd`] arena**: it allocates its own failure
//! variables (deterministically identical to the main arena's, because
//! [`FailureVars::allocate`] is a pure function of topology and mode),
//! recomputes the guarded routing state locally, executes its share of
//! the flows with per-worker `KREDUCE`, and hands back its arena plus
//! per-flow STFs; the caller imports the results into the main arena with
//! [`yu_mtbdd::Mtbdd::import`] in *flow order*, so the merged state is
//! independent of thread scheduling.
//!
//! A **check worker shares the main arena**: it is **frozen** once
//! ([`yu_mtbdd::Mtbdd::freeze`]) and every worker opens a zero-copy
//! overlay on it ([`Mtbdd::with_base`]). Main-arena handles stay valid
//! inside the overlay, so workers use the class representatives
//! *directly* and allocate only their private result nodes while running
//! the same requirement loop as the sequential checker
//! ([`crate::check::check_reqs`]). Hash-consed MTBDDs with a fixed
//! variable order are canonical and `KREDUCE` is canonicalizing, so the
//! diagram a worker scans denotes exactly the function the sequential
//! checker builds and the returned violations are **bit-identical** to a
//! sequential run — independent of worker count and scheduling.
//!
//! Per-worker `KREDUCE` before any merge is sound in both stages:
//! k-failure equivalence is a congruence under pointwise `+`, `min`, and
//! `max` (Lemma 2 / Theorem 5.1 of the paper), and `KREDUCE` is
//! canonicalizing for `≈ₖ`, so reducing early and reducing late yield the
//! same final diagrams.

use crate::api::YuVerifier;
use crate::attribution::{EntityCost, PhaseAttribution};
use crate::check::{check_reqs, Arena, CheckUnit, LoadCache};
use crate::equivalence::FlowGroup;
use crate::exec::{execute_group, ExecOptions, FlowStf};
use crate::trace::RouteTrace;
use std::time::Instant;
use yu_mtbdd::{Mtbdd, MtbddStats};
use yu_net::{FailureMode, FailureVars, Network, TlpReq};
use yu_routing::SymbolicRoutes;

/// Runs `job(w)` for `w in 0..workers` on scoped OS threads, each with
/// its own telemetry track (named by `track`) and a `span_name` stage
/// span, flushing the thread-local telemetry buffer before joining.
///
/// # Panics
/// Propagates panics from worker threads (including audit failures when
/// `YU_AUDIT=1`).
fn run_worker_pool<T: Send>(
    workers: usize,
    track: impl Fn(usize) -> String + Sync,
    span_name: &'static str,
    job: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let (track, job) = (&track, &job);
                scope.spawn(move || {
                    // Each worker records into its own thread-local
                    // telemetry buffer (its own trace track); the flush
                    // before returning makes the buffer visible to the
                    // main thread's snapshot without any contention
                    // during execution.
                    yu_telemetry::set_thread_track(track(w));
                    let out = {
                        let _stage = yu_telemetry::span(span_name);
                        job(w)
                    };
                    yu_telemetry::flush_thread();
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect()
    })
}

/// The result of one execution worker: its private arena and the symbolic
/// traffic functions it produced, tagged with the global flow-group index.
pub(crate) struct Shard {
    /// The worker's private arena. All [`FlowStf`] handles in
    /// [`Shard::stfs`] live here until imported.
    pub arena: Mtbdd,
    /// `(global group index, STF, route trace)` triples, in this worker's
    /// execution order (ascending group index by construction). The trace
    /// is `Some` iff the shard ran with `record_traces` and holds handles
    /// of this shard's arena until imported.
    pub stfs: Vec<(usize, FlowStf, Option<RouteTrace>)>,
    /// Per-entity costs of this worker (its local route recompute plus
    /// one entry per flow group), measured against the private arena.
    /// Empty unless the shard ran with `profile`. The entity node deltas
    /// telescope from an empty arena, so they sum exactly to
    /// `arena.nodes_created()`.
    pub costs: PhaseAttribution,
}

/// Executes `groups` across `workers` threads, each with a private arena
/// and locally recomputed routing state.
///
/// Sharding is deterministic (round-robin by group index), and so is
/// each shard's content; only wall-clock interleaving varies between
/// runs. Returns one [`Shard`] per worker, indexed by worker id.
///
/// # Panics
/// Propagates panics from worker threads (including audit failures when
/// `YU_AUDIT=1`).
#[allow(clippy::too_many_arguments)]
pub(crate) fn execute_sharded(
    net: &Network,
    mode: FailureMode,
    routes_k: Option<u32>,
    groups: &[FlowGroup],
    opts: ExecOptions,
    workers: usize,
    record_traces: bool,
    profile: bool,
) -> Vec<Shard> {
    let workers = workers.clamp(1, groups.len().max(1));
    run_worker_pool(
        workers,
        |w| format!("worker-{w}"),
        "exec.worker",
        move |w| {
            let mut costs = PhaseAttribution::default();
            let t_routes = Instant::now();
            let mut m = Mtbdd::new();
            let fv = FailureVars::allocate(&mut m, &net.topo, mode);
            let mut routes = SymbolicRoutes::compute(&mut m, net, &fv, routes_k);
            if profile {
                let nodes_delta = m.nodes_created() as i64;
                costs.nodes_delta += nodes_delta;
                costs.entities.push(EntityCost {
                    label: format!("worker-{w} route_sim"),
                    wall_us: t_routes.elapsed().as_micros() as u64,
                    nodes_delta,
                });
            }
            let mut stfs = Vec::new();
            for (ix, g) in groups.iter().enumerate().skip(w).step_by(workers) {
                let (stf, trace) = execute_group(
                    &mut m,
                    net,
                    &fv,
                    &mut routes,
                    g,
                    opts,
                    record_traces,
                    profile.then_some(&mut costs),
                );
                stfs.push((ix, stf, trace));
            }
            Shard {
                arena: m,
                stfs,
                costs,
            }
        },
    )
}

/// Checks `reqs` across `workers` threads (round-robin by requirement
/// index). The verifier's main arena is frozen once; each worker opens an
/// overlay on the shared frozen base and runs the requirement loop on it. Returns every unit the workers produced, in requirement order, with
/// the merged statistics of the overlay arenas (the arenas themselves are
/// dropped — verdicts are plain data, no handles escape).
///
/// # Panics
/// Propagates panics from worker threads (including audit failures when
/// `YU_AUDIT=1`).
pub(crate) fn check_sharded(
    v: &YuVerifier,
    reqs: &[TlpReq],
    max_violations: usize,
    workers: usize,
) -> (Vec<CheckUnit>, MtbddStats) {
    let workers = workers.clamp(1, reqs.len().max(1));
    let t_freeze = Instant::now();
    let frozen = v.m.freeze();
    yu_telemetry::counter("check.freeze_us", t_freeze.elapsed().as_micros() as u64);
    // The routing state holds `Rc`s, so workers borrow only what the check
    // stage reads.
    let (frozen, opts) = (&frozen, v.opts);
    let (results, groups, fv) = (&v.results[..], &v.groups[..], &v.fv);
    let shards = run_worker_pool(
        workers,
        |w| format!("check-worker-{w}"),
        "check.worker",
        move |w| {
            let (mut m, mut loads) = (Mtbdd::with_base(frozen), LoadCache::new());
            let mut overlay = Arena {
                m: &mut m,
                loads: &mut loads,
                results,
                groups,
                fv,
            };
            let share = reqs.iter().enumerate().skip(w).step_by(workers);
            let units = check_reqs(&mut overlay, &opts, share, max_violations, None);
            (units, m.stats())
        },
    );
    let mut units = Vec::with_capacity(reqs.len());
    let mut stats = MtbddStats::default();
    for (shard_units, shard_stats) in shards {
        units.extend(shard_units);
        stats.merge(&shard_stats);
    }
    units.sort_by_key(|u| u.req_ix);
    (units, stats)
}
