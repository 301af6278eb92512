//! Property tests pinning the incremental context derivation to a fresh
//! build: a context advanced through a chain of online
//! `FaultPattern::extend` events with `with_pattern` (which rebuilds the
//! f-rings incrementally, reusing the walk of every surviving region)
//! must answer every geometry query, and make every algorithm route,
//! exactly like `RoutingContext::new` on the final pattern.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::sync::Arc;
use wormsim_fault::FaultPattern;
use wormsim_routing::{build_algorithm, greedy_trace, AlgorithmKind, RoutingContext, VcConfig};
use wormsim_topology::{Mesh, NodeId};

/// A base pattern plus a chain of online extension events, all derived
/// deterministically from `seed`. Returns the chained context (built
/// fresh, then advanced with `with_pattern` once per event) and a context
/// built fresh from the final pattern.
fn chained_and_fresh(
    mesh: &Mesh,
    seed: u64,
    faults: usize,
    events: usize,
) -> Option<(Arc<RoutingContext>, Arc<RoutingContext>)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut pattern = if faults == 0 {
        FaultPattern::fault_free(mesh)
    } else {
        wormsim_fault::random_pattern(mesh, faults, &mut rng).ok()?
    };
    let mut ctx = RoutingContext::new(mesh.clone(), pattern.clone());
    for _ in 0..events {
        let healthy: Vec<NodeId> = pattern.healthy_nodes(mesh).collect();
        let Some(&n) = healthy.choose(&mut rng) else {
            break;
        };
        let Ok(ext) = pattern.extend(mesh, [mesh.coord(n)]) else {
            continue; // event would disconnect the mesh — skip it
        };
        ctx = ctx.with_pattern(ext.clone());
        pattern = ext;
    }
    let fresh = RoutingContext::new(mesh.clone(), pattern);
    Some((Arc::new(ctx), Arc::new(fresh)))
}

fn healthy_nodes(ctx: &RoutingContext) -> Vec<NodeId> {
    ctx.pattern().healthy_nodes(ctx.mesh()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every geometry query agrees between the chained and the fresh
    /// context.
    #[test]
    fn chained_queries_match_fresh(
        seed in any::<u64>(),
        side in 6u16..=8,
        faults in 0usize..=6,
        events in 0usize..=3,
    ) {
        let mesh = Mesh::square(side);
        let Some((chained, fresh)) = chained_and_fresh(&mesh, seed, faults, events) else {
            return Ok(());
        };
        for node in mesh.nodes() {
            for dest in mesh.nodes() {
                prop_assert_eq!(
                    chained.minimal_direction_tiers(node, dest),
                    fresh.minimal_direction_tiers(node, dest),
                    "minimal_direction_tiers({:?},{:?})",
                    node,
                    dest
                );
                prop_assert_eq!(
                    chained.blocked_ring_entry(node, dest),
                    fresh.blocked_ring_entry(node, dest),
                    "blocked_ring_entry({:?},{:?})",
                    node,
                    dest
                );
            }
        }
    }

    /// Every roster algorithm returns identical candidate sets for the
    /// first decision of every healthy pair, and its greedy walk ends the
    /// same way (same hop count or same error), on both contexts.
    #[test]
    fn chained_route_matches_fresh_for_all_algorithms(
        seed in any::<u64>(),
        faults in 0usize..=6,
        events in 0usize..=2,
    ) {
        let mesh = Mesh::square(6);
        let Some((chained, fresh)) = chained_and_fresh(&mesh, seed, faults, events) else {
            return Ok(());
        };
        let healthy = healthy_nodes(&fresh);
        for kind in AlgorithmKind::ALL {
            let a = build_algorithm(kind, chained.clone(), VcConfig::paper());
            let b = build_algorithm(kind, fresh.clone(), VcConfig::paper());
            for &src in &healthy {
                for &dest in &healthy {
                    if src == dest {
                        continue;
                    }
                    let mut sa = a.init_message(src, dest);
                    let mut sb = b.init_message(src, dest);
                    prop_assert_eq!(
                        a.route(src, &mut sa),
                        b.route(src, &mut sb),
                        "{:?}: candidates diverge at {:?}->{:?}",
                        kind,
                        src,
                        dest
                    );
                    prop_assert_eq!(sa.ring, sb.ring, "{:?}: ring state diverges", kind);
                    prop_assert_eq!(
                        greedy_trace(a.as_ref(), src, dest, 400),
                        greedy_trace(b.as_ref(), src, dest, 400),
                        "{:?}: greedy walk diverges for {:?}->{:?}",
                        kind,
                        src,
                        dest
                    );
                }
            }
        }
    }

    /// Lockstep greedy walks through the chained and fresh contexts take
    /// the same path hop for hop (exercises on-ring traversal state, not
    /// just the first decision).
    #[test]
    fn chained_greedy_walks_match_fresh(
        seed in any::<u64>(),
        faults in 1usize..=6,
        events in 0usize..=2,
        a in 0usize..10_000,
        b in 0usize..10_000,
    ) {
        let mesh = Mesh::square(8);
        let Some((chained, fresh)) = chained_and_fresh(&mesh, seed, faults, events) else {
            return Ok(());
        };
        let healthy = healthy_nodes(&fresh);
        let src = healthy[a % healthy.len()];
        let dest = healthy[b % healthy.len()];
        if src == dest {
            return Ok(());
        }
        for kind in AlgorithmKind::ALL {
            let ta = build_algorithm(kind, chained.clone(), VcConfig::paper());
            let tb = build_algorithm(kind, fresh.clone(), VcConfig::paper());
            let mut sa = ta.init_message(src, dest);
            let mut sb = tb.init_message(src, dest);
            let mut cur = src;
            let mut hops = 0u32;
            while cur != dest && hops <= 400 {
                let ca = ta.route(cur, &mut sa);
                let cb = tb.route(cur, &mut sb);
                prop_assert_eq!(&ca, &cb, "{:?}: walk diverges at {:?}", kind, cur);
                let Some(hop) = ca.iter().next() else { break };
                let mask = if hop.preferred.is_empty() {
                    hop.fallback
                } else {
                    hop.preferred
                };
                let vc = mask.iter().next().unwrap_or(0);
                let Some(next) = mesh.neighbor(cur, hop.dir) else { break };
                ta.on_hop(cur, next, hop.dir, vc, &mut sa);
                tb.on_hop(cur, next, hop.dir, vc, &mut sb);
                cur = next;
                hops += 1;
            }
        }
    }
}
