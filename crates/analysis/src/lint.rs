//! Preflight lint rules for networks and verification jobs.
//!
//! Each rule has a stable `YU0xx` code (see the table in `DESIGN.md`;
//! codes are append-only). Rules are purely static — they inspect the
//! [`Network`], flows, TLP, and failure budget without running any
//! simulation — and catch the misconfigurations that would otherwise
//! surface as confusing verification results: traffic silently dropped
//! because a static next hop resolves nowhere, an SR policy that can
//! never establish its tunnels, a TLP bound no traffic matrix could
//! ever violate or satisfy.

use crate::diagnostic::Diagnostic;
use yu_mtbdd::Ratio;
use yu_net::{FailureMode, Flow, LoadPoint, Network, Tlp};

/// Lints a network configuration (codes `YU001`–`YU013`).
pub fn lint_network(net: &Network) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let topo = &net.topo;

    // YU001: the per-router config vector must match the topology.
    if net.configs.len() != topo.num_routers() {
        out.push(Diagnostic::error(
            "YU001",
            "network",
            format!(
                "config count {} does not match router count {}",
                net.configs.len(),
                topo.num_routers()
            ),
        ));
        // Every per-router rule below indexes configs by RouterId; bail
        // out rather than panic on the mismatch we just reported.
        return out;
    }

    // YU002: duplicate router names break name-based lookups (CLI
    // `--fail`/`--router`, violation descriptions).
    let mut names = std::collections::HashMap::new();
    for r in topo.routers() {
        if let Some(prev) = names.insert(&topo.router(r).name, r) {
            out.push(Diagnostic::error(
                "YU002",
                format!("router {}", topo.router(r).name),
                format!("duplicate router name (also used by {prev})"),
            ));
        }
    }

    // YU003: zero or negative link capacity.
    for u in topo.ulinks() {
        let (fwd, _) = topo.directions(u);
        let cap = &topo.link(fwd).capacity;
        if cap <= &Ratio::ZERO {
            out.push(Diagnostic::error(
                "YU003",
                format!("link {}", topo.ulink_label(u)),
                format!("non-positive capacity {cap}"),
            ));
        }
    }

    for r in topo.routers() {
        let cfg = net.config(r);
        let name = &topo.router(r).name;
        let loc = |what: String| format!("router {name}: {what}");

        for (pi, pol) in cfg.sr_policies.iter().enumerate() {
            let ploc = loc(format!("SR policy {pi} (endpoint {})", pol.endpoint));
            // YU004: a policy with no candidate paths steers matching
            // traffic nowhere.
            if pol.paths.is_empty() {
                out.push(Diagnostic::error(
                    "YU004",
                    ploc.clone(),
                    "SR policy has no paths",
                ));
            }
            for (qi, path) in pol.paths.iter().enumerate() {
                // YU005: an explicit path needs at least one segment.
                if path.segments.is_empty() {
                    out.push(Diagnostic::error(
                        "YU005",
                        format!("{ploc}, path {qi}"),
                        "SR path has no segments",
                    ));
                    continue;
                }
                // YU006/YU007: every segment must name a router loopback,
                // and each tunnel hop must stay inside one IGP (same AS as
                // the previous hop) or it can never be established.
                let mut prev_ases: Vec<u32> = vec![net.asn(r)];
                for (si, seg) in path.segments.iter().enumerate() {
                    let owners = topo.loopback_owners(*seg);
                    if owners.is_empty() {
                        out.push(Diagnostic::error(
                            "YU006",
                            format!("{ploc}, path {qi}, segment {si}"),
                            format!("segment {seg} is not the loopback of any router"),
                        ));
                        break;
                    }
                    let owner_ases: Vec<u32> = owners.iter().map(|&o| net.asn(o)).collect();
                    if !owner_ases.iter().any(|a| prev_ases.contains(a)) {
                        out.push(Diagnostic::error(
                            "YU007",
                            format!("{ploc}, path {qi}, segment {si}"),
                            format!(
                                "no owner of segment {seg} shares an AS with the previous \
                                 hop: the IGP tunnel can never be established"
                            ),
                        ));
                        break;
                    }
                    prev_ases = owner_ases;
                }
            }
        }

        if let Some(bgp) = &cfg.bgp {
            // YU008: a `network` statement only originates (and delivers)
            // when a connected or static route backs it.
            for n in &bgp.networks {
                let owned = cfg.connected.iter().any(|c| c == n)
                    || cfg.static_routes.iter().any(|s| s.prefix == *n);
                if !owned {
                    out.push(Diagnostic::error(
                        "YU008",
                        loc(format!("BGP network {n}")),
                        "originated into BGP without a connected or static route",
                    ));
                }
            }
            // YU009/YU010: per-peer settings must reference real routers
            // with an actual derived session.
            let sessions: Vec<_> = net.bgp_sessions(r).iter().map(|&(p, _)| p).collect();
            let peer_refs = bgp
                .peer_local_pref
                .iter()
                .map(|&(p, _)| (p, "local-pref"))
                .chain(
                    bgp.deny_exports
                        .iter()
                        .filter_map(|d| d.peer.map(|p| (p, "deny-export"))),
                );
            for (peer, what) in peer_refs {
                if peer.0 as usize >= topo.num_routers() {
                    out.push(Diagnostic::error(
                        "YU009",
                        loc(format!("BGP {what} for {peer}")),
                        "references a router that does not exist",
                    ));
                } else if !sessions.contains(&peer) {
                    out.push(Diagnostic::warning(
                        "YU010",
                        loc(format!("BGP {what} for {}", topo.router(peer).name)),
                        "no BGP session with this router is derived \
                         (not a neighbor in another AS, or BGP is not enabled there)",
                    ));
                }
            }
        }

        // YU011: a recursive static next hop must resolve somewhere — a
        // router loopback (IGP or SR) or an address inside a connected
        // network. `Null0` drops by design and is always fine.
        for (si, sr) in cfg.static_routes.iter().enumerate() {
            if let yu_net::StaticNextHop::Ip(nh) = sr.next_hop {
                let resolvable = !topo.loopback_owners(nh).is_empty()
                    || net
                        .configs
                        .iter()
                        .any(|c| c.connected.iter().any(|p| p.contains(nh)));
                if !resolvable {
                    out.push(Diagnostic::error(
                        "YU011",
                        loc(format!("static route {si} ({} via {nh})", sr.prefix)),
                        "next hop is not a router loopback and not covered by \
                         any connected network: traffic will blackhole",
                    ));
                }
            }
        }
    }

    // YU012: anycast loopbacks are legal (Fig. 9) but worth surfacing —
    // they change IGP resolution semantics.
    let mut by_loopback: std::collections::BTreeMap<_, Vec<_>> = std::collections::BTreeMap::new();
    for r in topo.routers() {
        by_loopback
            .entry(topo.router(r).loopback)
            .or_default()
            .push(r);
    }
    for (ip, owners) in &by_loopback {
        if owners.len() > 1 {
            let names: Vec<_> = owners
                .iter()
                .map(|&o| topo.router(o).name.as_str())
                .collect();
            out.push(Diagnostic::warning(
                "YU012",
                format!("loopback {ip}"),
                format!("anycast: shared by {}", names.join(", ")),
            ));
        }
    }

    // YU013: the same prefix attached to several routers (anycast
    // delivery or a likely copy-paste mistake).
    let mut by_prefix: std::collections::BTreeMap<_, Vec<_>> = std::collections::BTreeMap::new();
    for r in topo.routers() {
        for p in &net.config(r).connected {
            by_prefix.entry(*p).or_default().push(r);
        }
    }
    for (p, owners) in &by_prefix {
        if owners.len() > 1 {
            let names: Vec<_> = owners
                .iter()
                .map(|&o| topo.router(o).name.as_str())
                .collect();
            out.push(Diagnostic::warning(
                "YU013",
                format!("prefix {p}"),
                format!("attached to multiple routers: {}", names.join(", ")),
            ));
        }
    }

    out
}

/// Lints a complete verification job: the network plus the traffic
/// matrix, the property, and the failure budget (codes `YU014`–`YU020`
/// on top of every [`lint_network`] rule).
pub fn lint_spec(
    net: &Network,
    flows: &[Flow],
    tlp: &Tlp,
    k: u32,
    mode: FailureMode,
) -> Vec<Diagnostic> {
    let mut out = lint_network(net);
    let topo = &net.topo;

    // YU018 is the only reader of the total volume; most properties have
    // no lower bound, and summing thousands of rationals for nothing is
    // most of this function's cost on a `yu serve` request.
    let needs_total = tlp.reqs.iter().any(|r| r.min.is_some());
    let mut total_volume = Ratio::ZERO;
    for (i, f) in flows.iter().enumerate() {
        // YU014: the ingress must exist.
        if f.ingress.0 as usize >= topo.num_routers() {
            out.push(Diagnostic::error(
                "YU014",
                format!("flow {i} ({} -> {})", f.src, f.dst),
                format!("ingress {:?} does not exist", f.ingress),
            ));
        }
        // YU015/YU016: volumes must be positive to mean anything.
        if f.volume.is_negative() {
            out.push(Diagnostic::error(
                "YU015",
                format!("flow {i} ({} -> {})", f.src, f.dst),
                format!("negative volume {}", f.volume),
            ));
        } else if f.volume.is_zero() {
            out.push(Diagnostic::warning(
                "YU016",
                format!("flow {i} ({} -> {})", f.src, f.dst),
                "zero volume: the flow contributes no load anywhere",
            ));
        } else if needs_total {
            total_volume += f.volume.clone();
        }
    }

    for (i, req) in tlp.reqs.iter().enumerate() {
        // YU017: the measurement point must exist.
        let in_range = match req.point {
            LoadPoint::Link(l) => (l.0 as usize) < topo.num_links(),
            LoadPoint::Delivered(r) | LoadPoint::Dropped(r) => (r.0 as usize) < topo.num_routers(),
        };
        if !in_range {
            out.push(Diagnostic::error(
                "YU017",
                format!("requirement {i}"),
                format!("load point {:?} does not exist in the topology", req.point),
            ));
            continue;
        }
        // YU018: a lower bound above the whole traffic matrix can never
        // be satisfied — every scenario is a counterexample.
        if let Some(min) = &req.min {
            if min > &total_volume {
                out.push(Diagnostic::warning(
                    "YU018",
                    format!("requirement {i} ({})", req.point.describe(topo)),
                    format!(
                        "minimum load {min} exceeds the total flow volume {total_volume}: \
                         the requirement cannot be satisfied"
                    ),
                ));
            }
        }
        // YU019: an upper bound above the link's capacity tolerates
        // physically overloaded links — usually a misplaced threshold.
        if let (LoadPoint::Link(l), Some(max)) = (req.point, &req.max) {
            let cap = &topo.link(l).capacity;
            if max > cap {
                out.push(Diagnostic::warning(
                    "YU019",
                    format!("requirement {i} (link {})", topo.link_label(l)),
                    format!("maximum load {max} exceeds the link capacity {cap}"),
                ));
            }
        }
    }

    // YU020: a failure budget at or above the element count makes the
    // "≤ k failures" restriction vacuous (and KREDUCE a no-op).
    let elements = match mode {
        FailureMode::Links => topo.num_ulinks(),
        FailureMode::Routers => topo.num_routers(),
        FailureMode::LinksAndRouters => topo.num_ulinks() + topo.num_routers(),
    };
    if k as usize >= elements && elements > 0 {
        out.push(Diagnostic::warning(
            "YU020",
            "spec",
            format!(
                "failure budget k = {k} is not below the number of failure \
                 elements ({elements}): every scenario is within budget"
            ),
        ));
    }

    out
}
