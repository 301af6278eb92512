//! In-flight message bookkeeping.

use wormsim_routing::MessageState;
use wormsim_topology::NodeId;

/// Opaque handle to a message within a simulator (slab index; reused after
/// delivery).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct MsgId(pub(crate) u32);

/// One virtual channel held by a message: its channel and VC index, how
/// many flits have entered its downstream buffer so far, how many are
/// buffered there now, and how many of those arrivals per-node load has
/// already counted.
///
/// Kept at 16 bytes (asserted below): the pipeline loop streams these
/// every cycle. The VC-slot table key `ch * num_vcs + vc` is therefore
/// not stored but recomputed ([`PathEntry::key`]) at the rare release
/// sites.
#[derive(Clone, Copy, Debug)]
pub(crate) struct PathEntry {
    /// The physical channel. The per-cycle pipeline loop needs it for
    /// link arbitration.
    pub ch: u32,
    /// The VC index on `ch`.
    pub vc: u8,
    /// The channel's downstream node (`mesh.channel_dest(ch)`), known at
    /// allocation time. Held channels always have a destination.
    pub dest: NodeId,
    /// Flits that have entered this VC (cumulative; the header is flit 0).
    pub entered: u32,
    /// `entered` as of the last node-load settlement. Per-node load counts
    /// arrivals lazily: while the measurement window is open,
    /// `entered - base` are arrivals at `dest` not yet added to the
    /// statistics; they are added when the entry is released, when the
    /// window closes, or (without settling) when a report is taken. The
    /// window's opening sets `base = entered` on every live entry; entries
    /// allocated later start at 0 = `entered`.
    pub base: u32,
    /// Flits currently in the downstream buffer.
    pub occ: u8,
}

const _: () = assert!(std::mem::size_of::<PathEntry>() == 16);

impl PathEntry {
    /// A freshly allocated, empty VC.
    #[inline]
    pub fn new(ch: u32, vc: u8, dest: NodeId) -> Self {
        PathEntry {
            ch,
            vc,
            dest,
            entered: 0,
            base: 0,
            occ: 0,
        }
    }

    /// Index into the VC-slot table: `ch * num_vcs + vc`.
    #[inline]
    pub fn key(&self, num_vcs: u8) -> u32 {
        self.ch * num_vcs as u32 + self.vc as u32
    }

    /// Arrivals at `dest` since the last node-load settlement.
    #[inline]
    pub fn unsettled(&self) -> u64 {
        u64::from(self.entered - self.base)
    }
}

/// The VCs a message holds, oldest (source side) first: a grow-only
/// vector plus a front offset. The per-cycle pipeline loop wants a plain
/// contiguous slice (a `VecDeque` needs `make_contiguous` and pays
/// ring-buffer arithmetic on every index), and a wormhole only ever
/// appends at the head side and drains at the tail, so `pop_front` is a
/// cursor bump. The buffer resets whenever the path empties; its length
/// is bounded by the hops of one traversal, so slab reuse keeps both the
/// capacity and the zero-allocation steady state.
#[derive(Debug, Default)]
pub(crate) struct PathBuf {
    buf: Vec<PathEntry>,
    front: usize,
}

impl PathBuf {
    #[inline]
    pub fn len(&self) -> usize {
        self.buf.len() - self.front
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.front == self.buf.len()
    }

    #[inline]
    pub fn push_back(&mut self, e: PathEntry) {
        self.buf.push(e);
    }

    /// Drop the oldest entry. O(1): the drained prefix is left in place
    /// and reclaimed wholesale when the path empties.
    #[inline]
    pub fn pop_front(&mut self) {
        debug_assert!(!self.is_empty());
        self.front += 1;
        if self.front == self.buf.len() {
            self.clear();
        }
    }

    #[inline]
    pub fn clear(&mut self) {
        self.buf.clear();
        self.front = 0;
    }

    /// Reserve room for `additional` more entries (prewarm support: a
    /// path buffer sized to the longest possible traversal up front
    /// never reallocates mid-run).
    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
    }

    #[inline]
    pub fn front(&self) -> Option<&PathEntry> {
        self.buf.get(self.front)
    }

    #[inline]
    pub fn back(&self) -> Option<&PathEntry> {
        self.buf.last()
    }

    #[cfg(test)]
    pub fn back_mut(&mut self) -> Option<&mut PathEntry> {
        self.buf.last_mut()
    }

    #[inline]
    pub fn iter(&self) -> std::slice::Iter<'_, PathEntry> {
        self.buf[self.front..].iter()
    }

    #[inline]
    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, PathEntry> {
        self.buf[self.front..].iter_mut()
    }

    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [PathEntry] {
        &mut self.buf[self.front..]
    }
}

impl std::ops::Index<usize> for PathBuf {
    type Output = PathEntry;

    #[inline]
    fn index(&self, i: usize) -> &PathEntry {
        &self.buf[self.front + i]
    }
}

impl<'a> IntoIterator for &'a PathBuf {
    type Item = &'a PathEntry;
    type IntoIter = std::slice::Iter<'a, PathEntry>;

    #[inline]
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Where a message stands in the header-allocation pipeline. The
/// allocator only runs `route()` for [`AllocPhase::Contend`] messages;
/// the other two phases are skipped outright, which is what makes the
/// cycle loop cheap under congestion (a blocked header re-arbitrates only
/// when a VC it registered for frees, not every cycle).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum AllocPhase {
    /// Header in transit to the head VC's buffer (or the message is
    /// ejecting at its destination): nothing to allocate.
    Moving,
    /// Header routable; must attempt routing + VC allocation this cycle.
    Contend,
    /// Allocation attempted and failed; asleep on the wake lists of every
    /// busy candidate VC slot until one frees (or the algorithm's
    /// `recheck_wait` threshold forces a widened re-route).
    Blocked,
}

/// A message in flight. Its flits are never materialized: each held VC
/// tracks only counts, which fully determines wormhole pipeline behavior.
///
/// The per-cycle scan flags — liveness, [`AllocPhase`], the movement
/// stall bit, and the watchdog's last-progress stamp — live in the
/// simulator's id-indexed struct-of-arrays buffers
/// (`Simulator::{alive, alloc, stalled, last_progress}`), not here: the
/// service-order, watchdog, and retain passes read exactly one of those
/// per message, and packing them densely turns each pass into a linear
/// scan instead of striding through 100+-byte `Msg` records.
#[derive(Debug)]
pub(crate) struct Msg {
    // --- hot: touched every cycle for every active message ---
    /// VCs currently held, oldest (source side) first.
    pub path: PathBuf,
    /// Flits still waiting at the source (not yet entered `path[0]`).
    pub at_source: u32,
    /// Flits consumed at the destination.
    pub delivered: u32,
    pub length: u32,
    pub dest: NodeId,
    pub src: NodeId,
    // --- cold: read on routing decisions, delivery, or recovery only ---
    pub created: u64,
    /// Cycle the first flit entered the network (None while still queued at
    /// the source). Network latency = delivery − this; total latency =
    /// delivery − `created` (includes source queueing).
    pub first_injected: Option<u64>,
    pub state: MessageState,
    /// Times this message was dropped and re-injected by the watchdog.
    pub recoveries: u32,
    /// Times this message was aborted by an online fault event (drives the
    /// exponential re-injection backoff).
    pub chaos_aborts: u32,
    /// `(recovery event index, abort cycle)` of the most recent chaos
    /// abort; consumed at delivery to record the recovery latency.
    pub abort_tag: Option<(u32, u64)>,
}

impl Msg {
    pub fn new(src: NodeId, dest: NodeId, length: u32, created: u64, state: MessageState) -> Self {
        Msg {
            src,
            dest,
            length,
            created,
            first_injected: None,
            state,
            path: PathBuf::default(),
            at_source: length,
            delivered: 0,
            recoveries: 0,
            chaos_aborts: 0,
            abort_tag: None,
        }
    }

    /// Reinitialize a recycled slab slot for a fresh message. Unlike
    /// overwriting with [`Msg::new`], the `path` buffer keeps its
    /// allocated capacity, so steady-state slab reuse performs no heap
    /// allocation.
    pub fn reset(
        &mut self,
        src: NodeId,
        dest: NodeId,
        length: u32,
        created: u64,
        state: MessageState,
    ) {
        debug_assert!(self.path.is_empty(), "recycled message still holds VCs");
        self.src = src;
        self.dest = dest;
        self.length = length;
        self.created = created;
        self.first_injected = None;
        self.state = state;
        self.path.clear();
        self.at_source = length;
        self.delivered = 0;
        self.recoveries = 0;
        self.chaos_aborts = 0;
        self.abort_tag = None;
    }

    /// Whether the header flit is sitting in the buffer of the last held VC
    /// (routable) — true once it has entered and before it moves on.
    pub fn header_at_head(&self) -> bool {
        self.path.back().is_some_and(|e| e.entered >= 1)
    }

    /// Whether every flit has been consumed at the destination.
    pub fn is_complete(&self) -> bool {
        self.delivered == self.length
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_message() {
        let st = MessageState::new(NodeId(0), NodeId(5));
        let m = Msg::new(NodeId(0), NodeId(5), 100, 42, st);
        assert_eq!(m.at_source, 100);
        assert!(!m.header_at_head());
        assert!(!m.is_complete());
    }

    #[test]
    fn header_presence() {
        let st = MessageState::new(NodeId(0), NodeId(5));
        let mut m = Msg::new(NodeId(0), NodeId(5), 10, 0, st);
        m.path.push_back(PathEntry::new(0, 3, NodeId(1)));
        assert!(!m.header_at_head(), "allocated but header not yet arrived");
        m.path.back_mut().unwrap().entered = 1;
        m.path.back_mut().unwrap().occ = 1;
        assert!(m.header_at_head());
    }
}
