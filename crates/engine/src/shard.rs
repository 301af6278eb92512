//! Intra-run sharding: the flit-movement phase split across workers.
//!
//! `SimConfig.shards > 1` partitions one cycle's movement pass over the
//! persistent [`WorkerPool`](crate::pool::WorkerPool), with the
//! single-threaded engine as the oracle: reports are byte-identical for
//! every shard count.
//!
//! ## Why this is exact, not approximate
//!
//! The movement phase (`Simulator::move_flits`, phase 5 of `step`) is the
//! only per-cycle work whose cost scales with the flit population, and it
//! draws no randomness. Its writes fall into three classes:
//!
//! 1. **Message-local** — the message's own path entries, counters, and
//!    its struct-of-arrays hot flags (`alive`/`alloc`/`stalled`/
//!    `last_progress` slots, all indexed by the message id). Trivially
//!    parallel.
//! 2. **Footprint-local** — per-channel link budgets (`link_used`,
//!    `occ_mask`, `slots`), per-node ejection budgets (`eject_used`) and
//!    node-load arrival counters (settled when a VC is released). Two
//!    messages race on these only when their *footprints* (held channels
//!    plus the downstream nodes of those channels) intersect. The
//!    budgets are first-come-first-served in service-rank order, so
//!    messages with intersecting footprints must be processed
//!    sequentially, in rank order.
//! 3. **Global accumulators** — latency/throughput records (f64 sums,
//!    order-sensitive), the slab free list, recovery records, VC release
//!    counts, and wake-ups of blocked headers. These are *deferred*: each
//!    shard records them as `(service rank, payload)` and the caller
//!    replays them in global rank order at the cycle boundary, exactly
//!    the sequence the sequential loop would have produced. (Wake-ups
//!    are additionally order-insensitive — movement never reads the
//!    allocation phase they set, and setting `Contend` is idempotent —
//!    but the rank-ordered replay makes that argument unnecessary.)
//!
//! So byte-identity reduces to one invariant: **messages whose footprints
//! ever intersect are assigned to the same shard**. That is maintained
//! with a union-find over channel and node keys:
//!
//! - When a header claims a VC (`try_allocate` success — the only place a
//!   footprint grows), the new channel is unioned with its downstream
//!   node and with the previous head channel. All keys of a message's
//!   footprint therefore always share one union-find root, and two
//!   messages sharing any channel or node share a root.
//! - Releases never split clusters. Stale merges are *conservative*: an
//!   over-coarse partition only reduces parallelism, never correctness.
//!   To recover parallelism, the structure is rebuilt from the live
//!   message paths — not on a fixed cycle period, but when the release
//!   volume since the last rebuild says enough slack has accumulated to
//!   be worth reclaiming (see [`ShardRuntime::should_rebuild`]).
//! - A cluster's shard is dealt from its root key by contiguous key-space
//!   ranges: `shard = root * shards / num_keys`. Key space is channels
//!   (index-ordered, hence spatially ordered) then nodes, so contiguous
//!   ranges approximate spatial bands without any per-key assignment
//!   table or per-rebuild banding pass. When incremental unions merge two
//!   clusters between rebuilds, the smaller-key root wins and the merged
//!   cluster deterministically lands on that root's range; *which* shard
//!   a cluster lands on affects only load balance, never results, because
//!   different clusters have disjoint write footprints by construction.
//!
//! The injection-port slot (`injecting[src]`) needs no clustering: during
//! movement only the message holding the port writes it (engine invariant
//! 4), and nothing reads it until the next cycle's promotion phase.

use crate::message::{AllocPhase, Msg};
use crate::pool::SyncPtr;
use wormsim_topology::Mesh;

/// Partition passes between forced rebuilds. The release-volume trigger
/// is the primary one, but several release paths (inline sequential
/// cycles on an idle pool, kills, aborts) can under-feed it; this caps
/// how long a stale, fully-merged partition can linger regardless.
const REBUILD_PARTITION_CAP: u32 = 64;

/// Deferred global effects of one shard's movement pass, replayed by the
/// caller at the cycle boundary. `rank` is the message's index in the
/// cycle's service order — the k-way merge key that reconstructs the
/// sequential processing sequence.
#[derive(Default)]
pub(crate) struct ShardScratch {
    /// `(rank, slot key)` freed this cycle (tail drains and completions,
    /// in sequential-equivalent order per message); their wake lists
    /// drain in rank order at the merge.
    pub freed: Vec<(u32, u32)>,
    /// `(rank, msg id)` of messages fully delivered this cycle; their
    /// stats bookkeeping (f64 latency records, free-list push, recovery
    /// records) replays in rank order at the merge.
    pub completions: Vec<(u32, u32)>,
    /// VC slots released per VC index (order-insensitive counts).
    pub vc_released: Vec<u64>,
    /// Flits ejected at destinations by this shard.
    pub delivered: u32,
}

impl ShardScratch {
    fn reset(&mut self, num_vcs: u8) {
        self.freed.clear();
        self.completions.clear();
        self.vc_released.resize(num_vcs as usize, 0);
        self.vc_released.iter_mut().for_each(|v| *v = 0);
        self.delivered = 0;
    }
}

/// Raw views of the simulator state one cycle's parallel movement pass
/// writes. All pointers are into `Simulator`-owned vectors; shards write
/// provably disjoint index sets (see the module docs), and the pool's
/// completion handshake orders every write before the caller's merge.
pub(crate) struct MoveArena {
    pub msgs: SyncPtr<Msg>,
    // Struct-of-arrays hot flags, indexed by message id (message-local:
    // each worker touches only its own shard's ids).
    pub alive: SyncPtr<bool>,
    pub alloc: SyncPtr<AllocPhase>,
    pub stalled: SyncPtr<bool>,
    pub last_progress: SyncPtr<u64>,
    pub slots: SyncPtr<Option<u32>>,
    pub occ_mask: SyncPtr<u32>,
    pub link_used: SyncPtr<u64>,
    pub eject_used: SyncPtr<u64>,
    /// Node-load arrival counters, indexed by node. Written only when a
    /// VC is released inside the measurement window (its unsettled
    /// arrivals; see `PathEntry::base`), at its downstream node — a node
    /// in the releasing message's footprint.
    pub arrivals: SyncPtr<u64>,
    pub injecting: SyncPtr<Option<u32>>,
    pub num_vcs: u8,
    pub depth: u8,
    pub stamp: u64,
    pub cycle: u64,
    pub measuring: bool,
}

/// The sharded engine's persistent state: the footprint union-find, the
/// per-shard work lists and deferred-effect scratches, the rank-merge
/// batch buffer, and the rebuild-trigger accounting (all
/// allocation-reusing across cycles and `reset`s).
pub(crate) struct ShardRuntime {
    shards: u16,
    num_vcs: u8,
    /// Channel keys are `0..num_channel_slots`, node keys follow.
    num_channel_slots: usize,
    /// Total key count (channels + nodes); the shard-dealing divisor.
    num_keys: usize,
    /// Whether this host has more than one core. Sampled once at
    /// construction: on a single core the pooled path is pure overhead,
    /// so the movement phase takes the plain sequential loop instead
    /// (unless a test forces the pooled path).
    multicore: bool,
    /// Union-find parent per key.
    parent: Vec<u32>,
    /// Live path entries (held VCs) across all messages, maintained
    /// incrementally from acquire/release events and recounted exactly at
    /// each rebuild. The yardstick the release trigger measures against.
    live_entries: u64,
    /// VC releases observed since the last rebuild (movement tail drains,
    /// completions, kills, aborts, watchdog recoveries). Each release is
    /// potential cluster-splitting slack the incremental unions can never
    /// reclaim.
    releases_since_rebuild: u64,
    /// Partition passes since the last rebuild (the fallback trigger).
    partitions_since_rebuild: u32,
    /// Per-shard `(service rank, msg id)` movement lists for this cycle.
    pub lists: Vec<Vec<(u32, u32)>>,
    /// Per-shard deferred effects for this cycle.
    pub scratch: Vec<ShardScratch>,
    /// Rank-merged payloads of one deferred-effect kind (most recent
    /// [`ShardRuntime::merge_ranked`] call), in global service order.
    pub merged: Vec<u32>,
    /// K-way merge cursors (reused across cycles).
    cursors: Vec<usize>,
}

impl ShardRuntime {
    pub fn new(mesh: &Mesh, shards: u16, num_vcs: u8) -> Box<ShardRuntime> {
        let multicore = std::thread::available_parallelism().is_ok_and(|n| n.get() > 1);
        let mut rt = Box::new(ShardRuntime {
            shards,
            num_vcs,
            num_channel_slots: 0,
            num_keys: 0,
            multicore,
            parent: Vec::new(),
            live_entries: 0,
            releases_since_rebuild: 0,
            partitions_since_rebuild: 0,
            lists: Vec::new(),
            scratch: Vec::new(),
            merged: Vec::new(),
            cursors: Vec::new(),
        });
        rt.reconfigure(mesh, shards, num_vcs);
        rt
    }

    /// Re-shape for a (possibly different) mesh, shard count, and VC
    /// count, reusing existing allocations — the sharded counterpart of
    /// `Simulator::reset`.
    pub fn reconfigure(&mut self, mesh: &Mesh, shards: u16, num_vcs: u8) {
        debug_assert!(shards >= 1);
        self.shards = shards;
        self.num_vcs = num_vcs;
        self.num_channel_slots = mesh.num_channel_slots();
        self.num_keys = self.num_channel_slots + mesh.num_nodes();
        self.parent.resize(self.num_keys, 0);
        self.lists.resize_with(shards as usize, Vec::new);
        self.lists.truncate(shards as usize);
        self.scratch
            .resize_with(shards as usize, ShardScratch::default);
        self.scratch.truncate(shards as usize);
        // Identity partition: every key its own cluster (a rebuild with
        // no live messages).
        self.rebuild(&[], &[], &[]);
    }

    /// Whether the pooled movement path can possibly pay for itself here.
    #[inline]
    pub fn multicore(&self) -> bool {
        self.multicore
    }

    /// Pre-size the per-cycle buffers for `max_active` concurrent
    /// messages so the pooled path performs no allocation inside the
    /// measurement window. Worst case puts every message in one shard, so
    /// each list reserves the full population; the freed/merged buffers
    /// get headroom for multi-key releases.
    pub fn prewarm(&mut self, max_active: usize) {
        for l in &mut self.lists {
            l.reserve(max_active.saturating_sub(l.capacity()));
        }
        for s in &mut self.scratch {
            s.completions
                .reserve(max_active.saturating_sub(s.completions.capacity()));
            s.freed
                .reserve((2 * max_active).saturating_sub(s.freed.capacity()));
        }
        self.merged
            .reserve((2 * max_active).saturating_sub(self.merged.capacity()));
    }

    #[inline]
    fn node_key(&self, node: usize) -> u32 {
        (self.num_channel_slots + node) as u32
    }

    /// Union-find root with path halving.
    fn find(&mut self, mut k: u32) -> u32 {
        loop {
            let p = self.parent[k as usize];
            if p == k {
                return k;
            }
            let gp = self.parent[p as usize];
            self.parent[k as usize] = gp;
            k = gp;
        }
    }

    /// Merge two clusters; the smaller-key root wins, so the merged
    /// cluster deterministically inherits the winner's key-range shard.
    fn union(&mut self, a: u32, b: u32) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return;
        }
        let (winner, loser) = if ra < rb { (ra, rb) } else { (rb, ra) };
        self.parent[loser as usize] = winner;
    }

    /// Footprint growth hook, called from `try_allocate` on every
    /// successful VC claim: the new channel joins the claiming message's
    /// cluster (via the previous head channel) and pulls in its
    /// downstream node (ejection budget + arrival counter).
    #[inline]
    pub fn note_allocation(&mut self, ch: u32, dest_node: usize, prev_ch: Option<u32>) {
        self.live_entries += 1;
        let nk = self.node_key(dest_node);
        self.union(ch, nk);
        if let Some(p) = prev_ch {
            self.union(ch, p);
        }
    }

    /// Footprint shrink hook: `n` VC slots released (tail drains,
    /// completions, kills, chaos aborts, watchdog recoveries). Feeds the
    /// release-volume rebuild trigger — releases are exactly the events
    /// whose cluster-splitting effect the incremental unions cannot
    /// express.
    #[inline]
    pub fn note_releases(&mut self, n: u64) {
        self.releases_since_rebuild += n;
        self.live_entries = self.live_entries.saturating_sub(n);
    }

    /// Whether enough release slack has accumulated since the last
    /// rebuild to be worth a reclaim pass. Triggered when the churn
    /// rivals a quarter of the live footprint (small floor so light
    /// traffic still rebuilds eventually), with a partition-count cap as
    /// a fallback for under-counted release paths.
    #[inline]
    pub fn should_rebuild(&self) -> bool {
        self.releases_since_rebuild >= (self.live_entries / 4).max(64)
            || self.partitions_since_rebuild >= REBUILD_PARTITION_CAP
    }

    /// Recompute the union-find from the live message paths, shedding
    /// every stale merge, and recount `live_entries` exactly. Purely
    /// performance state: rebuild timing affects which clusters exist,
    /// never any simulation result.
    pub fn rebuild(&mut self, active: &[u32], msgs: &[Msg], alive: &[bool]) {
        for (k, p) in self.parent.iter_mut().enumerate() {
            *p = k as u32;
        }
        let mut live = 0u64;
        for &id in active {
            if !alive[id as usize] {
                continue;
            }
            let m = &msgs[id as usize];
            if m.path.is_empty() {
                continue;
            }
            let mut prev: Option<u32> = None;
            for e in m.path.iter() {
                live += 1;
                let nk = self.node_key(e.dest.index());
                self.union(e.ch, nk);
                if let Some(p) = prev {
                    self.union(e.ch, p);
                }
                prev = Some(e.ch);
            }
        }
        self.live_entries = live;
        self.releases_since_rebuild = 0;
        self.partitions_since_rebuild = 0;
    }

    /// Split the cycle's service order into per-shard `(rank, id)` lists
    /// and reset the per-shard scratches. A message's shard is dealt from
    /// its cluster root by contiguous key ranges — no per-key assignment
    /// table, no banding pass at rebuild time.
    pub fn partition(&mut self, order: &[u32], msgs: &[Msg], alive: &[bool]) {
        self.partitions_since_rebuild += 1;
        for l in &mut self.lists {
            l.clear();
        }
        let num_vcs = self.num_vcs;
        for s in &mut self.scratch {
            s.reset(num_vcs);
        }
        let shards = self.shards as u64;
        let num_keys = self.num_keys as u64;
        for (i, &id) in order.iter().enumerate() {
            if !alive[id as usize] {
                continue;
            }
            let m = &msgs[id as usize];
            if m.path.is_empty() {
                continue;
            }
            let ch = m.path[0].ch;
            let root = self.find(ch);
            let shard = (root as u64 * shards / num_keys) as usize;
            self.lists[shard].push((i as u32, id));
        }
    }

    /// Merge one deferred-effect kind into [`ShardRuntime::merged`] in
    /// global rank order. Run-copying k-way merge: pick the shard with
    /// the smallest head rank, then bulk-copy its items up to the next
    /// competing shard's head rank. Ranks are disjoint across shards (a
    /// message lives in exactly one shard's list), so whole per-message
    /// runs copy in one inner loop — a memcpy-like pass when effects
    /// cluster, instead of an every-shard scan per item.
    pub fn merge_ranked(&mut self, pick: impl Fn(&ShardScratch) -> &[(u32, u32)]) {
        self.merged.clear();
        self.cursors.clear();
        self.cursors.resize(self.scratch.len(), 0);
        loop {
            let mut best: Option<(u32, usize)> = None;
            let mut limit = u32::MAX;
            for (si, s) in self.scratch.iter().enumerate() {
                if let Some(&(rank, _)) = pick(s).get(self.cursors[si]) {
                    match best {
                        Some((br, _)) if rank >= br => limit = limit.min(rank),
                        _ => {
                            if let Some((br, _)) = best {
                                limit = limit.min(br);
                            }
                            best = Some((rank, si));
                        }
                    }
                }
            }
            let Some((_, si)) = best else { break };
            let items = pick(&self.scratch[si]);
            let mut c = self.cursors[si];
            while let Some(&(rank, payload)) = items.get(c) {
                if rank >= limit {
                    break;
                }
                self.merged.push(payload);
                c += 1;
            }
            self.cursors[si] = c;
        }
    }
}

/// One message's movement pass — the sharded mirror of
/// `Simulator::move_flits`, kept line-for-line parallel with it (the
/// shard-equivalence test matrix pins them together). Differences: writes
/// go through the arena's raw views (including the struct-of-arrays hot
/// flags, indexed by the message id), and the global accumulators of the
/// sequential version (`delivered_this_cycle`, `vc_usage`, wake-ups,
/// completion stats) are deferred into `scratch` instead.
///
/// # Safety
///
/// Caller must guarantee that (a) `arena`'s pointers are live and sized
/// for every index this message's footprint can touch, and (b) no other
/// thread concurrently touches this message or any channel/node in its
/// footprint — the union-find partition establishes exactly this.
pub(crate) unsafe fn move_one(arena: &MoveArena, rank: u32, id: u32, scratch: &mut ShardScratch) {
    let i = id as usize;
    let m = &mut *arena.msgs.at(i);
    if !*arena.alive.at(i) || m.path.is_empty() {
        return;
    }
    if *arena.stalled.at(i) {
        return;
    }
    let depth = arena.depth;
    let stamp = arena.stamp;
    let path = m.path.as_mut_slice();
    let length = m.length;

    // Ejection at the destination (head entry only). As in the sequential
    // pass, each movement predicate is or-ed into `movable` before its
    // budget check.
    let head_idx = path.len() - 1;
    let head_entry = path[head_idx];
    let head_node = head_entry.dest;
    let mut movable = head_node == m.dest && head_entry.occ > 0;
    let mut progressed = false;
    if movable {
        let eject = &mut *arena.eject_used.at(head_node.index());
        if *eject != stamp {
            *eject = stamp;
            path[head_idx].occ -= 1;
            m.delivered += 1;
            scratch.delivered += 1;
            progressed = true;
        }
    }

    // Pipeline shifts, head side first, branchless; the stall predicate
    // folds into the same pass.
    for j in (1..path.len()).rev() {
        let cur = path[j];
        let prev_occ = path[j - 1].occ;
        let could = (prev_occ > 0) & (cur.occ < depth) & (cur.entered < length);
        let lu = &mut *arena.link_used.at(cur.ch as usize);
        let can = could & (*lu != stamp);
        *lu = std::hint::select_unpredictable(can, stamp, *lu);
        let d = can as u8;
        path[j - 1].occ = prev_occ - d;
        path[j].occ = cur.occ + d;
        path[j].entered = cur.entered + d as u32;
        movable |= could;
        progressed |= can;
    }
    if head_entry.entered == 0 && path[head_idx].entered == 1 && head_idx >= 1 {
        // Header arrival at the head VC.
        *arena.alloc.at(i) = if head_node == m.dest {
            AllocPhase::Moving
        } else {
            AllocPhase::Contend
        };
    }

    // Source injection into the first held VC.
    if m.at_source > 0 {
        let first = path[0];
        let could = first.occ < depth && first.entered < length;
        movable |= could;
        let lu = &mut *arena.link_used.at(first.ch as usize);
        if could && *lu != stamp {
            *lu = stamp;
            path[0].occ += 1;
            path[0].entered += 1;
            m.at_source -= 1;
            progressed = true;
            if head_idx == 0 && path[0].entered == 1 {
                *arena.alloc.at(i) = if first.dest == m.dest {
                    AllocPhase::Moving
                } else {
                    AllocPhase::Contend
                };
            }
            if m.first_injected.is_none() {
                m.first_injected = Some(arena.cycle);
            }
            if m.at_source == 0 {
                // The tail left the source: free the injection port.
                // Unique writer — only the port holder reaches here.
                *arena.injecting.at(m.src.index()) = None;
            }
        }
    }

    if progressed {
        *arena.last_progress.at(i) = arena.cycle;
    } else {
        // Stall detection, identical to the sequential path: the movement
        // predicates read only this message's own state, so a fully
        // immobile message stays immobile until its own state changes.
        *arena.stalled.at(i) = !movable;
    }

    // Release drained tail VCs.
    while m.path.len() > 1 {
        let front = m.path[0];
        if front.entered == length && front.occ == 0 {
            let key = front.key(arena.num_vcs);
            *arena.slots.at(key as usize) = None;
            *arena.occ_mask.at(front.ch as usize) &= !(1 << front.vc);
            scratch.vc_released[front.vc as usize] += 1;
            if arena.measuring {
                *arena.arrivals.at(front.dest.index()) += front.unsettled();
            }
            scratch.freed.push((rank, key));
            m.path.pop_front();
        } else {
            break;
        }
    }

    // Completion: release everything here (footprint-local), defer the
    // stats/free-list bookkeeping to the caller's rank-ordered merge.
    if m.is_complete() {
        for e in &m.path {
            let key = e.key(arena.num_vcs);
            *arena.slots.at(key as usize) = None;
            *arena.occ_mask.at(e.ch as usize) &= !(1 << e.vc);
            scratch.vc_released[e.vc as usize] += 1;
            if arena.measuring {
                *arena.arrivals.at(e.dest.index()) += e.unsettled();
            }
            scratch.freed.push((rank, key));
        }
        m.path.clear();
        *arena.alive.at(i) = false;
        scratch.completions.push((rank, id));
    }
}
