//! Route geometry: the quantities a routing decision needs that are a
//! pure function of *(node, dest, fault pattern)*:
//!
//! - the healthy-minimal direction set and the blocked-by-fault flag;
//! - for blocked pairs, the complete Boppana–Chalasani ring-entry state
//!   ([`RingState`]: blocking region, ring position, traversal
//!   orientation, message type, entry distance);
//! - the Boura–Das preference tiers: the healthy-minimal set split by the
//!   next node's safe label.
//!
//! [`RoutingContext`] answers every geometry query by calling these
//! functions directly — routing as a function of (current, dest), with no
//! per-context cache. The fault-free and unblocked cases exit after a
//! handful of neighbor checks; only ring entry walks the f-ring, and a
//! message enters ring mode once per blocked episode.
//!
//! What stays in the algorithms is the *dynamic* part — VC-class mask
//! arithmetic (PHop/NHop ladders, bonus cards, Duato tiers) and the
//! misroute-patience widening — which depends on per-message state and is
//! pure integer arithmetic.
//!
//! [`RoutingContext`]: crate::RoutingContext

use crate::state::{MessageType, RingState};
use wormsim_fault::{FRingSet, FaultPattern, NodeLabeling, Orientation};
use wormsim_topology::{Coord, Direction, DirectionSet, Mesh, NodeId, Rect, ALL_DIRECTIONS};

/// Calls `visit(dir, neighbor)` for every minimal direction from `node`
/// toward `dest`. Steps from `node`'s coordinate, so a query pays for one
/// id → coordinate division, not one per direction, and loops over
/// `ALL_DIRECTIONS` rather than chaining iterator adaptors, which compiled
/// to about twice the cost per call on the routing hot path.
#[inline]
fn for_each_minimal_neighbor(
    mesh: &Mesh,
    node: NodeId,
    dest: NodeId,
    mut visit: impl FnMut(Direction, NodeId),
) {
    let c = mesh.coord(node);
    let minimal = c.minimal_directions(mesh.coord(dest));
    for dir in ALL_DIRECTIONS {
        if minimal.contains(dir) {
            if let Some(v) = c.step(dir).and_then(|n| mesh.try_node_at(n)) {
                visit(dir, v);
            }
        }
    }
}

/// Minimal directions from `node` toward `dest` whose next node is
/// fault-free.
pub(crate) fn compute_healthy_minimal(
    mesh: &Mesh,
    pattern: &FaultPattern,
    node: NodeId,
    dest: NodeId,
) -> DirectionSet {
    let mut healthy = DirectionSet::empty();
    for_each_minimal_neighbor(mesh, node, dest, |dir, v| {
        if !pattern.is_faulty(v) {
            healthy.insert(dir);
        }
    });
    healthy
}

/// The minimal directions from `node` toward `dest` in the Boura–Das
/// preference tiers, `(safe, healthy)`: `healthy` is
/// [`compute_healthy_minimal`], and `safe ⊆ healthy` keeps the directions
/// whose next node is also safe-labeled.
pub(crate) fn compute_minimal_tiers(
    mesh: &Mesh,
    pattern: &FaultPattern,
    labeling: &NodeLabeling,
    node: NodeId,
    dest: NodeId,
) -> (DirectionSet, DirectionSet) {
    let (mut safe, mut healthy) = (DirectionSet::empty(), DirectionSet::empty());
    for_each_minimal_neighbor(mesh, node, dest, |dir, v| {
        if !pattern.is_faulty(v) {
            healthy.insert(dir);
            if labeling.is_safe(v) {
                safe.insert(dir);
            }
        }
    });
    (safe, healthy)
}

/// Whether a message at `node` heading to `dest` is blocked by faults.
pub(crate) fn compute_blocked(
    mesh: &Mesh,
    pattern: &FaultPattern,
    node: NodeId,
    dest: NodeId,
) -> bool {
    node != dest
        && !mesh.minimal_directions(node, dest).is_empty()
        && compute_healthy_minimal(mesh, pattern, node, dest).is_empty()
}

/// Which side of a fault region the BC detour should pass.
#[derive(Clone, Copy)]
enum Side {
    North,
    South,
    East,
    West,
}

#[inline]
fn on_side(c: Coord, rect: &Rect, side: Side) -> bool {
    match side {
        Side::North => c.y > rect.max.y,
        Side::South => c.y < rect.min.y,
        Side::East => c.x > rect.max.x,
        Side::West => c.x < rect.min.x,
    }
}

/// Whether a ring node offers an exit for a message to `dest` that entered
/// the ring at `entry_distance`: the destination itself, or strictly closer
/// than the entry point with healthy minimal progress available.
fn compute_is_exit(
    mesh: &Mesh,
    pattern: &FaultPattern,
    node: NodeId,
    dest: NodeId,
    entry_distance: u32,
) -> bool {
    node == dest
        || (mesh.distance(node, dest) < entry_distance
            && !compute_healthy_minimal(mesh, pattern, node, dest).is_empty())
}

/// The complete BC ring-entry state for a message blocked at `node` bound
/// for `dest`: the blocking region, the node's position on its f-ring, the
/// message type, the entry distance, and the traversal orientation chosen
/// by the geometric side rule (nearer side in ring steps, clockwise on
/// ties, nearest-usable-exit fallback on boundary chains). `None` when the
/// pair is not actually blocked or the node is not on the blocking ring
/// (never the case for reachable simulation states).
pub(crate) fn compute_ring_entry(
    mesh: &Mesh,
    pattern: &FaultPattern,
    rings: &FRingSet,
    node: NodeId,
    dest: NodeId,
) -> Option<RingState> {
    if !compute_blocked(mesh, pattern, node, dest) {
        return None;
    }
    // The blocking region: any minimal direction leads into a fault.
    let blocking = mesh.minimal_directions(node, dest).iter().find_map(|d| {
        let v = mesh.neighbor(node, d)?;
        pattern.is_faulty(v).then(|| pattern.region_of(v))?
    })?;
    let pos = rings.position_on(node, blocking)?;
    let (c, d) = (mesh.coord(node), mesh.coord(dest));
    let mtype = MessageType::classify((c.x, c.y), (d.x, d.y));
    let entry_distance = mesh.distance(node, dest);
    let orient = choose_orientation(
        mesh,
        pattern,
        rings,
        blocking,
        pos.pos,
        dest,
        entry_distance,
        mtype,
        c,
        d,
    );
    Some(RingState {
        ring: blocking,
        pos: pos.pos,
        orient,
        mtype,
        entry_distance,
    })
}

/// Pick the traversal orientation per the BC geometric rule: a row message
/// (WE/EW) goes around the side of the region its destination row lies on
/// (north/south), a column message around the east/west side its
/// destination column lies on. The choice depends only on geometry — never
/// on congestion — so all same-type messages bound for the same side rotate
/// the same way and their ring arcs stay within disjoint halves; this is
/// what keeps the single shared per-type BC VC deadlock-free (head-on
/// cycles cannot form).
#[allow(clippy::too_many_arguments)]
fn choose_orientation(
    mesh: &Mesh,
    pattern: &FaultPattern,
    rings: &FRingSet,
    ring_id: usize,
    pos: u16,
    dest: NodeId,
    entry_distance: u32,
    mtype: MessageType,
    c: Coord,
    d: Coord,
) -> Orientation {
    let rect = pattern.regions()[ring_id];
    // Which side of the region should the detour pass?
    let side = match mtype {
        MessageType::WE | MessageType::EW => {
            if d.y >= c.y {
                Side::North
            } else {
                Side::South
            }
        }
        MessageType::SN | MessageType::NS => {
            if d.x >= c.x {
                Side::East
            } else {
                Side::West
            }
        }
    };
    let ring = rings.ring(ring_id);
    // Steps to reach the wanted side in each rotation (chain ends make a
    // rotation unusable).
    let cost = |orient: Orientation| -> u32 {
        let mut p = pos;
        for step in 1..=ring.len() as u32 {
            match ring.next(p, orient) {
                None => return u32::MAX,
                Some((n, np)) => {
                    if on_side(mesh.coord(n), &rect, side) {
                        return step;
                    }
                    p = np;
                }
            }
        }
        u32::MAX
    };
    let (cw, ccw) = (
        cost(Orientation::Clockwise),
        cost(Orientation::Counterclockwise),
    );
    if cw != ccw {
        return if ccw < cw {
            Orientation::Counterclockwise
        } else {
            Orientation::Clockwise
        };
    }
    if cw != u32::MAX {
        return Orientation::Clockwise;
    }
    // Wanted side unreachable in either rotation (boundary chain): fall
    // back to the nearer usable exit.
    let exit_cost = |orient: Orientation| -> u32 {
        let mut p = pos;
        for step in 1..=ring.len() as u32 {
            match ring.next(p, orient) {
                None => return u32::MAX,
                Some((n, np)) => {
                    if compute_is_exit(mesh, pattern, n, dest, entry_distance) {
                        return step;
                    }
                    p = np;
                }
            }
        }
        u32::MAX
    };
    if exit_cost(Orientation::Counterclockwise) < exit_cost(Orientation::Clockwise) {
        Orientation::Counterclockwise
    } else {
        Orientation::Clockwise
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RoutingContext;

    fn ctx(pattern_coords: &[Coord]) -> RoutingContext {
        let mesh = Mesh::square(10);
        let pattern = FaultPattern::from_faulty_coords(&mesh, pattern_coords.iter().copied())
            .expect("connected pattern");
        RoutingContext::new(mesh, pattern)
    }

    #[test]
    fn blocked_ring_entry_agrees_with_components() {
        let ctx = ctx(&[Coord::new(4, 4), Coord::new(4, 5), Coord::new(8, 1)]);
        let mesh = ctx.mesh();
        let mut blocked_pairs = 0;
        for node in mesh.nodes() {
            for dest in mesh.nodes() {
                let (blocked, entry) = ctx.blocked_ring_entry(node, dest);
                assert_eq!(blocked, ctx.blocked_by_fault(node, dest));
                assert_eq!(entry, ctx.ring_entry(node, dest));
                assert_eq!(entry.is_some(), blocked && !ctx.pattern().is_faulty(node));
                blocked_pairs += usize::from(blocked);
            }
        }
        assert!(blocked_pairs > 0, "the pattern must block some pairs");
    }

    #[test]
    fn blocked_pairs_have_ring_entries() {
        let ctx = ctx(&[Coord::new(5, 5)]);
        let mesh = ctx.mesh();
        let (node, dest) = (mesh.node(4, 5), mesh.node(9, 5));
        assert!(ctx.blocked_by_fault(node, dest));
        let rs = ctx.ring_entry(node, dest).unwrap();
        assert_eq!(rs.mtype, MessageType::WE);
        assert_eq!(rs.entry_distance, 5);
        assert_eq!(
            ctx.rings().ring(rs.ring).nodes()[rs.pos as usize],
            node,
            "stored ring position must locate the node"
        );
        // Unblocked pair → no entry.
        assert!(ctx.ring_entry(mesh.node(0, 0), dest).is_none());
    }

    #[test]
    fn healthy_and_safe_dirs() {
        // Two blocks two columns apart: the node between them has two
        // faulty neighbors and is labeled unsafe (Boura–Das).
        let ctx = ctx(&[Coord::new(4, 4), Coord::new(6, 4)]);
        let mesh = ctx.mesh();
        let between = mesh.node(5, 4);
        assert!(!ctx.labeling().is_safe(between));
        let mut unsafe_only = 0;
        for node in mesh.nodes() {
            for dest in mesh.nodes() {
                let (safe, healthy) = ctx.minimal_direction_tiers(node, dest);
                assert_eq!(healthy, ctx.healthy_minimal_directions(node, dest));
                assert_eq!(safe.intersect(healthy), safe, "safe ⊆ healthy");
                for dir in healthy.iter() {
                    let next = ctx.healthy_step(node, dir).expect("healthy step");
                    assert_eq!(safe.contains(dir), ctx.labeling().is_safe(next));
                    unsafe_only += usize::from(!safe.contains(dir));
                }
            }
        }
        assert!(
            unsafe_only > 0,
            "some healthy step must lead to the unsafe node"
        );
        // West of the left block, bound east along its row: the only
        // minimal link is blocked, so both tiers are empty.
        let (safe, healthy) = ctx.minimal_direction_tiers(mesh.node(3, 4), mesh.node(9, 4));
        assert!(safe.is_empty() && healthy.is_empty());
        // One step below the unsafe node, bound north-east: north leads
        // to the unsafe node (healthy only), east stays safe.
        let (safe, healthy) = ctx.minimal_direction_tiers(mesh.node(5, 3), mesh.node(9, 9));
        assert!(healthy.contains(Direction::North) && !safe.contains(Direction::North));
        assert!(safe.contains(Direction::East));
    }
}
