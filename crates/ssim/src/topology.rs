//! The mutable overlay topology: an undirected graph over node identifiers
//! with sorted adjacency lists and O(log deg) edge queries.
//!
//! Storage is **slot-based**: every node occupies a stable [`NodeSlot`] for
//! its whole lifetime, and slots freed by [`Topology::remove_node`] are
//! recycled (LIFO) by later [`Topology::add_node`] calls. Nothing ever
//! shifts, so membership changes cost O(deg) — no id renumbering, no index
//! rebuild — and slot-parallel storage elsewhere (the runtime's programs,
//! RNGs and mailboxes) stays aligned for free. The id → slot map is
//! consulted only at the membership boundary and for id-keyed queries;
//! round-hot paths address storage by slot.
//!
//! Edge count, maximum degree and the degree histogram are tracked
//! incrementally, so the per-round metric reads are O(1) instead of a full
//! adjacency scan ([`Topology::check_invariants`] re-verifies the counters
//! against a ground-truth scan).
//!
//! Every slot also carries an adjacency *stamp* ([`Topology::stamp_at`]):
//! a value that is replaced whenever the slot's neighbor list may have
//! changed, so a settled host can confirm an unchanged neighborhood without
//! re-reading the list (see [`crate::program::NeighborBaseline`]).

use crate::runtime::splitmix64;
use crate::snapshot::{Persist, Reader, SnapshotError, Writer};
use crate::NodeId;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};

/// The source of every adjacency stamp, shared by all topologies in the
/// process. A stamp value is handed out once, so it names one list of one
/// slot of one topology: a program carried into another runtime or another
/// slot can never find its own stamp there. (A cloned topology shares its
/// stamps with the original, and rightly: the lists they name are equal.)
/// Zero is never issued, so it can mean "not confirmed".
static NEXT_STAMP: AtomicU64 = AtomicU64::new(1);

/// Reserve `k` consecutive fresh stamps and return the first. One atomic
/// add per mutation, however many slots it touches.
fn fresh_stamps(k: usize) -> u64 {
    NEXT_STAMP.fetch_add(k as u64, Ordering::Relaxed)
}

/// The id → slot index. Its hasher has fixed keys: a per-process random
/// one would make the table's capacity after removals — and with it
/// [`Topology::heap_bytes`] — depend on the hash keys, not the seed. (The
/// keys are the simulation's own ids, so collision flooding is moot.)
type SlotIndex = HashMap<NodeId, NodeSlot, BuildHasherDefault<IdHasher>>;

/// The slot index's hasher: the id, folded in by a multiply with a fixed
/// odd key, then the full 64-bit SplitMix64 finalizer. The table takes its
/// bucket from the low bits and its tag from the high ones; the finalizer
/// spreads every id bit into both, so ids that share low bits (hosts on a
/// stride of the id space) do not cluster. The index is never iterated, so
/// the hash never reaches an order the simulation observes.
#[derive(Debug, Default, Clone, Copy)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.write_u64(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    #[inline]
    fn finish(&self) -> u64 {
        splitmix64(self.0)
    }
}

/// A stable storage slot for one node. Assigned at insertion, fixed for the
/// node's lifetime, recycled (most-recently-freed first) after removal.
///
/// Slots are the engine's dense index space: the runtime's per-node storage
/// (programs, RNGs, inboxes, action scratch) is addressed by slot, and only
/// the membership boundary translates ids to slots. Slots are also the
/// currency of the scheduler subsystem: a [`crate::sched::Scheduler`]
/// selects slots to activate, the runtime's dirty set is a set of slots,
/// and a round applies the selection's actions in selection order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeSlot(u32);

impl NodeSlot {
    /// Build a slot from a dense index.
    #[inline]
    pub(crate) fn new(i: usize) -> Self {
        Self(i as u32)
    }

    /// The dense index this slot addresses in slot-parallel storage.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Per-slot adjacency storage on a single size-class segment arena.
///
/// A `Vec<Vec<NodeId>>` costs every node a 24-byte header plus its own
/// allocation — at 10⁶ hosts that is a million small allocations whose
/// capacity doubling leaves ~50% slack. Here all lists live in one shared
/// `Vec<NodeId>`: each slot owns a power-of-two block addressed by a 12-byte
/// span, blocks freed by churn are recycled through per-class free lists,
/// and `list()` still hands back a real contiguous `&[NodeId]` (the
/// engine's hot-path contract). All mutation happens at membership/edge
/// events, in canonical order, so block placement is deterministic.
#[derive(Debug, Clone, Default)]
struct AdjStore {
    /// The shared backing storage for every block.
    data: Vec<NodeId>,
    /// Per-slot block descriptor.
    spans: Vec<Span>,
    /// `free[c]` = offsets of recycled blocks of capacity `1 << c`.
    free: Vec<Vec<u32>>,
}

/// One slot's block in the [`AdjStore`]: `cap = 1 << class` items starting
/// at `off`, of which the first `len` are live. `class == Span::NONE` marks
/// a slot that owns no block (degree 0).
#[derive(Debug, Clone, Copy)]
struct Span {
    off: u32,
    len: u32,
    class: u8,
}

impl Span {
    const NONE: u8 = u8::MAX;
    const EMPTY: Span = Span {
        off: 0,
        len: 0,
        class: Span::NONE,
    };

    fn cap(self) -> usize {
        if self.class == Self::NONE {
            0
        } else {
            1usize << self.class
        }
    }
}

/// Smallest block class handed out (capacity 4): overlay degrees are
/// Ω(log n) in every interesting state, so smaller blocks only add churn.
const MIN_CLASS: u8 = 2;

impl AdjStore {
    /// Append storage for one more slot (degree 0, no block).
    fn push_slot(&mut self) {
        self.spans.push(Span::EMPTY);
    }

    /// The slot's sorted neighbor list as a contiguous slice.
    fn list(&self, slot: usize) -> &[NodeId] {
        let s = self.spans[slot];
        &self.data[s.off as usize..(s.off + s.len) as usize]
    }

    fn len(&self, slot: usize) -> usize {
        self.spans[slot].len as usize
    }

    /// Allocate a block of `1 << class` items, recycling a freed block of
    /// the same class when one exists.
    fn alloc_block(&mut self, class: u8) -> u32 {
        if let Some(list) = self.free.get_mut(class as usize) {
            if let Some(off) = list.pop() {
                return off;
            }
        }
        let off = self.data.len() as u32;
        self.data.resize(self.data.len() + (1usize << class), 0);
        off
    }

    fn free_block(&mut self, off: u32, class: u8) {
        if class == Span::NONE {
            return;
        }
        if self.free.len() <= class as usize {
            self.free.resize(class as usize + 1, Vec::new());
        }
        self.free[class as usize].push(off);
    }

    /// Move `slot`'s items into a block of `class`, leaving a hole of one
    /// item at `pos` when `hole` is set; frees the old block.
    fn rehome(&mut self, slot: usize, class: u8, pos: usize, hole: bool) {
        let s = self.spans[slot];
        let new_off = self.alloc_block(class) as usize;
        let old = s.off as usize;
        let len = s.len as usize;
        if hole {
            self.data.copy_within(old..old + pos, new_off);
            self.data
                .copy_within(old + pos..old + len, new_off + pos + 1);
        } else {
            self.data.copy_within(old..old + len, new_off);
        }
        self.free_block(s.off, s.class);
        self.spans[slot] = Span {
            off: new_off as u32,
            len: s.len,
            class,
        };
    }

    /// Insert `v` at sorted position `pos` of `slot`'s list.
    fn insert_at(&mut self, slot: usize, pos: usize, v: NodeId) {
        let s = self.spans[slot];
        if (s.len as usize) < s.cap() {
            let off = s.off as usize;
            self.data
                .copy_within(off + pos..off + s.len as usize, off + pos + 1);
            self.data[off + pos] = v;
        } else {
            // Full (or no block yet): rehome into the next class with a
            // hole already opened at `pos`.
            let class = if s.class == Span::NONE {
                MIN_CLASS
            } else {
                s.class + 1
            };
            self.rehome(slot, class, pos, true);
            let s = self.spans[slot];
            self.data[s.off as usize + pos] = v;
        }
        self.spans[slot].len += 1;
    }

    /// Remove the item at position `pos` of `slot`'s list. Blocks shrink to
    /// a quarter-full class (half the grow threshold — hysteresis against
    /// churn thrash) and are freed outright at degree 0.
    fn remove_at(&mut self, slot: usize, pos: usize) {
        let s = self.spans[slot];
        let off = s.off as usize;
        self.data
            .copy_within(off + pos + 1..off + s.len as usize, off + pos);
        self.spans[slot].len -= 1;
        let s = self.spans[slot];
        if s.len == 0 {
            self.free_block(s.off, s.class);
            self.spans[slot] = Span::EMPTY;
        } else if s.class > MIN_CLASS && (s.len as usize) <= s.cap() / 4 {
            self.rehome(slot, s.class - 1, 0, false);
        }
    }

    /// Copy out `slot`'s list and release its block (node removal).
    fn take(&mut self, slot: usize) -> Vec<NodeId> {
        let out = self.list(slot).to_vec();
        let s = self.spans[slot];
        self.free_block(s.off, s.class);
        self.spans[slot] = Span::EMPTY;
        out
    }

    /// The class of the block a list of `len > 0` items is laid out in
    /// when it is built whole: the smallest that holds it.
    fn class_for(len: usize) -> u8 {
        (len.next_power_of_two().trailing_zeros() as u8).max(MIN_CLASS)
    }

    /// An arena for slots of the given degrees, each given the block
    /// [`AdjStore::load_list`] gives it, in slot order, with every list
    /// empty: [`AdjStore::push`] fills them. The same layout a restore of
    /// the filled lists builds.
    fn with_degrees(degrees: &[u32]) -> Self {
        let mut spans = Vec::with_capacity(degrees.len());
        let mut total = 0u32;
        for &len in degrees {
            spans.push(if len == 0 {
                Span::EMPTY
            } else {
                let class = Self::class_for(len as usize);
                total += 1 << class;
                Span {
                    off: total - (1 << class),
                    len: 0,
                    class,
                }
            });
        }
        Self {
            data: vec![0; total as usize],
            spans,
            free: Vec::new(),
        }
    }

    /// Append `v` to `slot`'s list, inside the block it already owns.
    fn push(&mut self, slot: usize, v: NodeId) {
        let s = &mut self.spans[slot];
        self.data[(s.off + s.len) as usize] = v;
        s.len += 1;
    }

    /// Decode the next slot's list (a length, then the items) straight
    /// into a block of its own (snapshot restore).
    fn load_list(&mut self, r: &mut Reader<'_>) -> Result<(), SnapshotError> {
        let len = r.seq()?;
        if len == 0 {
            self.spans.push(Span::EMPTY);
            return Ok(());
        }
        let class = Self::class_for(len);
        let off = self.alloc_block(class);
        for v in &mut self.data[off as usize..off as usize + len] {
            *v = r.u32()?;
        }
        self.spans.push(Span {
            off,
            len: len as u32,
            class,
        });
        Ok(())
    }

    /// Bytes on the heap: backing storage, spans, and free lists.
    fn heap_bytes(&self) -> usize {
        self.data.capacity() * std::mem::size_of::<NodeId>()
            + self.spans.capacity() * std::mem::size_of::<Span>()
            + self.free.capacity() * std::mem::size_of::<Vec<u32>>()
            + self
                .free
                .iter()
                .map(|l| l.capacity() * std::mem::size_of::<u32>())
                .sum::<usize>()
    }
}

/// Undirected graph over sparse node identifiers. Edges are symmetric by
/// construction; self-loops are forbidden.
#[derive(Debug, Clone, Default)]
pub struct Topology {
    /// Per-slot occupant id; `None` marks a free slot.
    slots: Vec<Option<NodeId>>,
    /// Per-slot sorted neighbor identifiers (empty for free slots), packed
    /// on a segment arena.
    adj: AdjStore,
    /// id → slot; the membership boundary only.
    index: SlotIndex,
    /// Freed slots awaiting reuse, most recently freed last (LIFO).
    free: Vec<NodeSlot>,
    /// Dense mirror of the live ids, in unspecified (but deterministic)
    /// order, so `ids()` stays a cheap slice.
    dense: Vec<NodeId>,
    /// Slot of each `dense` entry (parallel array), so live-node iteration
    /// is O(live nodes) — not O(allocated slots) — with no hashing.
    dense_slot: Vec<u32>,
    /// Per-slot position of the occupant in `dense` (stale for free slots).
    dense_pos: Vec<u32>,
    /// Incrementally tracked number of undirected edges.
    edge_count: usize,
    /// `degree_hist[d]` = number of live nodes with degree `d`.
    degree_hist: Vec<usize>,
    /// Incrementally tracked maximum degree over live nodes.
    max_degree: usize,
    /// Per-slot adjacency stamp (see [`Topology::stamp_at`]); derived
    /// state, never saved.
    stamps: Vec<u64>,
}

impl Topology {
    /// Build a topology over `ids` with the given initial undirected edges.
    /// Slots are assigned in iteration order (node *k* gets slot *k*).
    /// An edge may come in either orientation and more than once.
    ///
    /// Built in bulk, not edge by edge: the edges are put in one canonical
    /// sorted list (the sort is skipped when they come sorted), each slot's
    /// degree is counted, each slot gets the one block a restore of its
    /// list would give it, and the blocks fill in edge order — which is
    /// ascending on both ends, so every list comes out sorted. The result
    /// equals the one `add_node` and `add_edge` build, and its storage is
    /// laid out as its `save_state` / `restore_state` twin's.
    ///
    /// # Panics
    /// Panics on duplicate ids, unknown edge endpoints, or self-loops.
    pub fn new(
        ids: impl IntoIterator<Item = NodeId>,
        edges: impl IntoIterator<Item = (NodeId, NodeId)>,
    ) -> Self {
        let mut dense: Vec<NodeId> = ids.into_iter().collect();
        dense.shrink_to_fit();
        let n = dense.len();
        let mut index = SlotIndex::with_capacity_and_hasher(n, Default::default());
        for (k, &v) in dense.iter().enumerate() {
            assert!(
                index.insert(v, NodeSlot::new(k)).is_none(),
                "duplicate node id {v}"
            );
        }
        let mut edges: Vec<(NodeId, NodeId)> = edges
            .into_iter()
            .map(|(a, b)| {
                assert!(a != b, "self-loop at {a}");
                (a.min(b), a.max(b))
            })
            .collect();
        if !edges.is_sorted() {
            edges.sort_unstable();
        }
        edges.dedup();
        let slot = |v: NodeId| match index.get(&v) {
            Some(s) => s.index() as u32,
            None => panic!("unknown node {v}"),
        };
        let ends: Vec<[u32; 2]> = edges.iter().map(|&(a, b)| [slot(a), slot(b)]).collect();
        let mut degrees = vec![0u32; n];
        for &[sa, sb] in &ends {
            degrees[sa as usize] += 1;
            degrees[sb as usize] += 1;
        }
        let mut adj = AdjStore::with_degrees(&degrees);
        for (&(a, b), &[sa, sb]) in edges.iter().zip(&ends) {
            adj.push(sa as usize, b);
            adj.push(sb as usize, a);
        }
        let c =
            Counters::tally(degrees.iter().map(|&d| d as usize)).expect("every edge has two ends");
        let first = fresh_stamps(n);
        Self {
            slots: dense.iter().map(|&v| Some(v)).collect(),
            adj,
            index,
            free: Vec::new(),
            dense_slot: (0..n as u32).collect(),
            dense_pos: (0..n as u32).collect(),
            dense,
            edge_count: c.edge_count,
            degree_hist: c.degree_hist,
            max_degree: c.max_degree,
            stamps: (first..first + n as u64).collect(),
        }
    }

    /// The live node identifiers, in unspecified (but deterministic) order.
    /// The order is stable across identical runs — it changes only at
    /// membership events — but is *not* insertion order once nodes have been
    /// removed; sort a copy when a canonical order matters.
    pub fn ids(&self) -> &[NodeId] {
        &self.dense
    }

    /// Number of live nodes.
    pub fn node_count(&self) -> usize {
        self.dense.len()
    }

    /// Number of slots ever allocated (live + free). Slot-parallel storage
    /// must be at least this long.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Number of undirected edges — O(1), tracked incrementally.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// The slot of node `v`, if present.
    pub fn slot_of(&self, v: NodeId) -> Option<NodeSlot> {
        self.index.get(&v).copied()
    }

    /// The occupant of `slot`, or `None` for a free (or out-of-range) slot.
    pub fn id_at(&self, slot: NodeSlot) -> Option<NodeId> {
        self.slots.get(slot.index()).copied().flatten()
    }

    /// True iff `slot` currently holds a live node — the liveness probe the
    /// runtime's scheduler machinery uses to filter stale dirty-set entries
    /// and sanitize selections (a freed slot may linger in those structures
    /// until the next round's purge).
    pub fn is_live(&self, slot: NodeSlot) -> bool {
        self.id_at(slot).is_some()
    }

    /// The occupant's position in the canonical member order (the order
    /// [`Topology::ids`] returns and the synchronous daemon activates in),
    /// or `None` for a free slot. This — not ascending slot order — is the
    /// engine's determinism order: schedulers that claim equivalence with
    /// the synchronous daemon must order their selections by it, because
    /// apply order decides the relative order of same-round messages in a
    /// shared recipient's inbox.
    pub fn member_rank(&self, slot: NodeSlot) -> Option<usize> {
        self.id_at(slot)
            .map(|_| self.dense_pos[slot.index()] as usize)
    }

    /// Iterate the live `(slot, id)` pairs, in the same unspecified (but
    /// deterministic) order as [`Topology::ids`]. O(live nodes), not
    /// O(allocated slots).
    pub fn live_slots(&self) -> impl Iterator<Item = (NodeSlot, NodeId)> + '_ {
        self.dense_slot
            .iter()
            .zip(self.dense.iter())
            .map(|(&s, &v)| (NodeSlot::new(s as usize), v))
    }

    /// The `k`-th live `(id, slot)` pair in [`Topology::ids`] order — O(1)
    /// indexed access for callers that must interleave iteration with edge
    /// mutation (membership must not change while `k` is reused).
    ///
    /// # Panics
    /// `k` must be below `node_count()`.
    pub fn live_entry(&self, k: usize) -> (NodeId, NodeSlot) {
        (self.dense[k], NodeSlot::new(self.dense_slot[k] as usize))
    }

    /// True iff `v` is a node of the topology.
    pub fn contains(&self, v: NodeId) -> bool {
        self.index.contains_key(&v)
    }

    /// Sorted neighbor identifiers of node `v`.
    ///
    /// # Panics
    /// `v` must be a node.
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        self.adj.list(self.index[&v].index())
    }

    /// Sorted neighbor identifiers by slot (the runtime's hot path — no id
    /// lookup). Empty for free slots. Contiguity survives the arena layout:
    /// every list is one span of the shared backing storage.
    pub fn neighbors_at(&self, slot: NodeSlot) -> &[NodeId] {
        self.adj.list(slot.index())
    }

    /// The adjacency stamp of `slot`: equal stamps read at two moments
    /// mean the slot's neighbor list was not touched in between. Every
    /// mutator replaces the stamps of the slots whose lists it changed —
    /// both ends of an added or removed edge, a departing node and each of
    /// its former neighbors, a slot a node is added into — and a restore
    /// replaces them all. A moved stamp says only "maybe changed" (an edge
    /// removed and re-added leaves an equal list under a new stamp).
    /// Stamps come from a process-wide counter, so they are not simulated
    /// state: they differ between runs and are never saved.
    ///
    /// # Panics
    /// `slot` must have been allocated.
    #[inline]
    pub fn stamp_at(&self, slot: NodeSlot) -> u64 {
        self.stamps[slot.index()]
    }

    /// Degree of node `v`.
    pub fn degree(&self, v: NodeId) -> usize {
        self.neighbors(v).len()
    }

    /// Maximum degree over all nodes — O(1), tracked incrementally.
    pub fn max_degree(&self) -> usize {
        self.max_degree
    }

    /// True iff the edge `(a, b)` exists.
    pub fn has_edge(&self, a: NodeId, b: NodeId) -> bool {
        match self.index.get(&a) {
            Some(&s) => self.adj.list(s.index()).binary_search(&b).is_ok(),
            None => false,
        }
    }

    /// Record that a node moved from degree `old` to degree `new`.
    fn degree_changed(&mut self, old: usize, new: usize) {
        self.degree_hist[old] -= 1;
        if new >= self.degree_hist.len() {
            self.degree_hist.resize(new + 1, 0);
        }
        self.degree_hist[new] += 1;
        if new > self.max_degree {
            self.max_degree = new;
        } else {
            // Amortized O(1): the walk down is paid for by earlier walks up.
            while self.max_degree > 0 && self.degree_hist[self.max_degree] == 0 {
                self.max_degree -= 1;
            }
        }
    }

    /// Add a node with no incident edges, recycling a freed slot when one is
    /// available. Returns false if `v` already exists. Part of the
    /// dynamic-membership surface: hosts may join a running network.
    pub fn add_node(&mut self, v: NodeId) -> bool {
        if self.index.contains_key(&v) {
            return false;
        }
        let stamp = fresh_stamps(1);
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s.index()] = Some(v);
                self.stamps[s.index()] = stamp;
                s
            }
            None => {
                let s = NodeSlot::new(self.slots.len());
                self.slots.push(Some(v));
                self.adj.push_slot();
                self.dense_pos.push(0);
                self.stamps.push(stamp);
                s
            }
        };
        self.index.insert(v, slot);
        self.dense_pos[slot.index()] = self.dense.len() as u32;
        self.dense.push(v);
        self.dense_slot.push(slot.index() as u32);
        if self.degree_hist.is_empty() {
            self.degree_hist.push(0);
        }
        self.degree_hist[0] += 1;
        true
    }

    /// Remove a node and all its incident edges; its slot goes onto the free
    /// list for reuse. Returns false if `v` is not a node. O(deg): no other
    /// node's slot changes.
    pub fn remove_node(&mut self, v: NodeId) -> bool {
        let Some(&slot) = self.index.get(&v) else {
            return false;
        };
        // Drop the back-edges from v's neighbors.
        let neighbors = self.adj.take(slot.index());
        let stamp = fresh_stamps(neighbors.len() + 1);
        self.stamps[slot.index()] = stamp;
        for (b, k) in neighbors.iter().zip(1..) {
            let sb = self.index[b].index();
            self.stamps[sb] = stamp + k;
            let pb = self.adj.list(sb).binary_search(&v).unwrap();
            let deg = self.adj.len(sb);
            self.adj.remove_at(sb, pb);
            self.degree_changed(deg, deg - 1);
        }
        self.edge_count -= neighbors.len();
        self.degree_changed(neighbors.len(), 0);
        self.degree_hist[0] -= 1;
        // Unhook from the dense mirror (swap-remove; order is unspecified).
        let pos = self.dense_pos[slot.index()] as usize;
        self.dense.swap_remove(pos);
        self.dense_slot.swap_remove(pos);
        if let Some(&moved_slot) = self.dense_slot.get(pos) {
            self.dense_pos[moved_slot as usize] = pos as u32;
        }
        self.slots[slot.index()] = None;
        self.index.remove(&v);
        self.free.push(slot);
        true
    }

    /// Insert the undirected edge `(a, b)`. Returns true if it was new.
    ///
    /// # Panics
    /// Panics on self-loops or unknown endpoints.
    pub fn add_edge(&mut self, a: NodeId, b: NodeId) -> bool {
        assert!(a != b, "self-loop at {a}");
        let [sa, sb] = [a, b].map(|v| {
            let slot = self.index.get(&v);
            slot.unwrap_or_else(|| panic!("unknown node {v}")).index()
        });
        match self.adj.list(sa).binary_search(&b) {
            Ok(_) => false,
            Err(pa) => {
                self.adj.insert_at(sa, pa, b);
                let pb = self.adj.list(sb).binary_search(&a).unwrap_err();
                self.adj.insert_at(sb, pb, a);
                self.stamp_pair(sa, sb);
                self.edge_count += 1;
                self.degree_changed(self.adj.len(sa) - 1, self.adj.len(sa));
                self.degree_changed(self.adj.len(sb) - 1, self.adj.len(sb));
                true
            }
        }
    }

    /// Remove the undirected edge `(a, b)`. Returns true if it existed.
    pub fn remove_edge(&mut self, a: NodeId, b: NodeId) -> bool {
        let (Some(&sa), Some(&sb)) = (self.index.get(&a), self.index.get(&b)) else {
            return false;
        };
        let (sa, sb) = (sa.index(), sb.index());
        match self.adj.list(sa).binary_search(&b) {
            Ok(pa) => {
                self.adj.remove_at(sa, pa);
                let pb = self.adj.list(sb).binary_search(&a).unwrap();
                self.adj.remove_at(sb, pb);
                self.stamp_pair(sa, sb);
                self.edge_count -= 1;
                self.degree_changed(self.adj.len(sa) + 1, self.adj.len(sa));
                self.degree_changed(self.adj.len(sb) + 1, self.adj.len(sb));
                true
            }
            Err(_) => false,
        }
    }

    /// New stamps for both ends of an edited edge.
    fn stamp_pair(&mut self, sa: usize, sb: usize) {
        let stamp = fresh_stamps(2);
        self.stamps[sa] = stamp;
        self.stamps[sb] = stamp + 1;
    }

    /// The undirected edge list, sorted, each edge once as `(a, b)` with
    /// `a < b`.
    pub fn edges(&self) -> Vec<(NodeId, NodeId)> {
        let mut out = Vec::with_capacity(self.edge_count);
        for (slot, a) in self.live_slots() {
            for &b in self.adj.list(slot.index()) {
                if a < b {
                    out.push((a, b));
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// True iff the graph is weakly connected (trivially true for ≤ 1 node).
    pub fn is_connected(&self) -> bool {
        self.connected_without(&[])
    }

    /// True iff the nodes left after removing `gone` (and their edges) form
    /// a connected graph — trivially true when at most one is left. Ids in
    /// `gone` that are not nodes are ignored, and repeats count once. One
    /// BFS with `gone` pre-marked as visited; the topology is not copied.
    pub fn connected_without(&self, gone: &[NodeId]) -> bool {
        let mut seen = vec![false; self.slots.len()];
        let mut left = self.dense.len();
        for s in gone.iter().filter_map(|v| self.index.get(v)) {
            left -= !std::mem::replace(&mut seen[s.index()], true) as usize;
        }
        let Some(s0) = self
            .dense_slot
            .iter()
            .map(|&s| s as usize)
            .find(|&s| !seen[s])
        else {
            return true;
        };
        let mut queue = std::collections::VecDeque::from([s0]);
        seen[s0] = true;
        let mut count = 1usize;
        while let Some(s) = queue.pop_front() {
            for w in self.adj.list(s) {
                let ws = self.index[w].index();
                if !seen[ws] {
                    seen[ws] = true;
                    count += 1;
                    queue.push_back(ws);
                }
            }
        }
        count == left
    }

    /// Verify the internal invariants — adjacency symmetry and sortedness,
    /// slot/index/dense-mirror consistency, a free list that holds exactly
    /// the free slots, and the incremental edge/degree counters against a
    /// ground-truth scan. Exposed for property tests.
    pub fn check_invariants(&self) -> bool {
        // Histograms are equal up to trailing zero entries.
        let used = |h: &[usize]| h.iter().rposition(|&k| k > 0).map_or(0, |d| d + 1);
        self.scan().is_ok_and(|c| {
            c.edge_count == self.edge_count
                && c.max_degree == self.max_degree
                && c.degree_hist[..used(&c.degree_hist)]
                    == self.degree_hist[..used(&self.degree_hist)]
        })
    }

    /// The one validation pass behind [`Topology::check_invariants`] and
    /// snapshot restore: checks every structural invariant and returns the
    /// counters a ground-truth scan derives, or what is wrong.
    ///
    /// Symmetry takes one look per edge, not a lookup and a binary search
    /// per edge end: walking the live nodes in ascending id order, each
    /// node `a` matches every neighbor `b > a` against the next unmatched
    /// entry of `b`'s sorted list, which must be `a`; by the time `b`
    /// itself is walked, its entries below `b` must all have been matched.
    /// An entry without a back-edge stalls its owner's cursor and fails
    /// one of the two checks.
    fn scan(&self) -> Result<Counters, String> {
        let n = self.slots.len();
        let mut free = vec![false; n];
        for s in &self.free {
            let i = s.index();
            if self.slots.get(i).is_none_or(Option::is_some) {
                return Err(format!("free list names slot {i}, which is not free"));
            }
            if std::mem::replace(&mut free[i], true) {
                return Err(format!("free list names slot {i} twice"));
            }
        }
        let mut live = Vec::with_capacity(self.dense.len());
        for (i, occupant) in self.slots.iter().enumerate() {
            let l = self.adj.list(i);
            let Some(a) = *occupant else {
                if !l.is_empty() || !free[i] {
                    return Err(format!("free slot {i} has edges or is off the free list"));
                }
                continue;
            };
            // id → slot → id round-trip and dense-mirror consistency.
            let pos = self.dense_pos[i] as usize;
            if self.index.get(&a) != Some(&NodeSlot::new(i))
                || self.dense.get(pos) != Some(&a)
                || self.dense_slot.get(pos) != Some(&(i as u32))
            {
                return Err(format!(
                    "slot {i} (id {a}) disagrees with the index or dense order"
                ));
            }
            if l.windows(2).any(|w| w[0] >= w[1]) {
                return Err(format!("adjacency of {a} is not strictly ascending"));
            }
            live.push((a, i as u32));
        }
        if live.len() != self.dense.len()
            || self.dense_slot.len() != self.dense.len()
            || self.index.len() != live.len()
            || self.stamps.len() != n
        {
            return Err("membership counts disagree".into());
        }
        let c = Counters::tally(live.iter().map(|&(_, i)| self.adj.len(i as usize)))?;
        live.sort_unstable();
        let mut matched = vec![0u32; n];
        for &(a, sa) in &live {
            let l = self.adj.list(sa as usize);
            let below = l.partition_point(|&b| b < a);
            if matched[sa as usize] as usize != below {
                return Err(format!("an edge below {a} has no back-edge"));
            }
            if l.get(below) == Some(&a) {
                return Err(format!("self-loop at {a}"));
            }
            for &b in &l[below..] {
                let Some(sb) = self.index.get(&b).map(|s| s.index()) else {
                    return Err(format!("{a} lists unknown neighbor {b}"));
                };
                let k = &mut matched[sb];
                if self.adj.list(sb).get(*k as usize) != Some(&a) {
                    return Err(format!("edge {a} -> {b} has no back-edge"));
                }
                *k += 1;
            }
        }
        Ok(c)
    }

    /// Approximate heap footprint of the topology in bytes: the adjacency
    /// arena plus the slot, index, free-list and dense-mirror arrays. Feeds
    /// [`crate::Runtime::mem_footprint`].
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.adj.heap_bytes()
            + self.slots.capacity() * size_of::<Option<NodeId>>()
            + self.index.capacity() * (size_of::<NodeId>() + size_of::<NodeSlot>() + 8)
            + self.free.capacity() * size_of::<NodeSlot>()
            + self.dense.capacity() * size_of::<NodeId>()
            + self.dense_slot.capacity() * size_of::<u32>()
            + self.dense_pos.capacity() * size_of::<u32>()
            + self.degree_hist.capacity() * size_of::<usize>()
            + self.stamps.capacity() * size_of::<u64>()
    }

    /// Serialize the topology for a snapshot. The slot array (occupants and
    /// adjacency), the exact free-list order (LIFO recycling makes it part
    /// of the deterministic state: it decides which slot the next join
    /// takes), and the exact dense order (the member-rank determinism
    /// order) are written verbatim; the id → slot index, the dense
    /// back-pointers and the incremental counters are derived on restore.
    pub(crate) fn save_state(&self, w: &mut Writer) {
        w.seq(self.slots.len());
        for (slot, occupant) in self.slots.iter().enumerate() {
            occupant.save(w);
            // Same bytes `Vec<NodeId>::save` produced before the arena
            // layout: length then items.
            let l = self.adj.list(slot);
            w.seq(l.len());
            for v in l {
                w.u32(*v);
            }
        }
        w.seq(self.free.len());
        for s in &self.free {
            w.u32(s.index() as u32);
        }
        self.dense.save(w);
    }

    /// Rebuild a topology from [`Topology::save_state`] bytes, re-deriving
    /// every index and counter; the counters come from the scan behind
    /// [`Topology::check_invariants`], which verifies the result in the
    /// same pass — corrupt-but-well-framed payloads fail loudly instead of
    /// producing an inconsistent graph.
    pub(crate) fn restore_state(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let corrupt = |what: String| Err(SnapshotError::Corrupt(what));
        let n_slots = r.seq()?;
        let mut slots = Vec::with_capacity(n_slots);
        let mut adj = AdjStore::default();
        adj.spans.reserve_exact(n_slots);
        for _ in 0..n_slots {
            slots.push(Option::<NodeId>::load(r)?);
            adj.load_list(r)?;
        }
        // The blocks were appended one by one, so the backing storage
        // carries whatever doubling slack its last growth left: a function
        // of the exact block total, which varies with the seed.
        adj.data.shrink_to_fit();
        let n_free = r.seq()?;
        let mut free = Vec::with_capacity(n_free);
        for _ in 0..n_free {
            let i = r.u32()? as usize;
            if i >= n_slots {
                return corrupt(format!("free slot {i} out of range"));
            }
            free.push(NodeSlot::new(i));
        }
        let dense = Vec::<NodeId>::load(r)?;

        // Derive the id → slot map and dense back-pointers (one linear pass
        // over the slot array, then one over the dense order — O(n), which
        // matters at the 64k–1M host scales snapshots exist to unlock).
        let mut index = SlotIndex::with_capacity_and_hasher(dense.len(), Default::default());
        for (slot, occupant) in slots.iter().enumerate() {
            if let Some(v) = *occupant {
                if index.insert(v, NodeSlot::new(slot)).is_some() {
                    return corrupt(format!("id {v} occupies two slots"));
                }
            }
        }
        let mut dense_pos = vec![0u32; n_slots];
        let mut dense_slot = Vec::with_capacity(dense.len());
        let mut seen = vec![false; n_slots];
        for (pos, &v) in dense.iter().enumerate() {
            let Some(slot) = index.get(&v).map(|s| s.index()) else {
                return corrupt(format!("dense id {v} has no slot"));
            };
            if std::mem::replace(&mut seen[slot], true) {
                return corrupt(format!("duplicate dense id {v}"));
            }
            dense_pos[slot] = pos as u32;
            dense_slot.push(slot as u32);
        }
        // Every list is new to this process: none keeps an old stamp.
        let first = fresh_stamps(n_slots);
        let mut t = Self {
            slots,
            adj,
            index,
            free,
            dense,
            dense_slot,
            dense_pos,
            stamps: (first..first + n_slots as u64).collect(),
            ..Self::default()
        };
        // The counters are derived by the same scan that validates.
        let c = t.scan().map_err(|why| {
            SnapshotError::Corrupt(format!("topology invariants violated: {why}"))
        })?;
        t.edge_count = c.edge_count;
        t.degree_hist = c.degree_hist;
        t.max_degree = c.max_degree;
        Ok(t)
    }
}

/// The edge and degree counters a [`Topology::scan`] derives.
struct Counters {
    edge_count: usize,
    degree_hist: Vec<usize>,
    max_degree: usize,
}

impl Counters {
    /// The counters of live nodes of the given degrees, taken in slot
    /// order. The histogram grows as larger degrees come, so its capacity
    /// is a function of that order: a built topology and its restored twin
    /// tally the same sequence and account the same bytes.
    fn tally(degrees: impl Iterator<Item = usize>) -> Result<Self, String> {
        let mut degree_hist = vec![0; 1];
        let mut ends = 0;
        for d in degrees {
            ends += d;
            if d >= degree_hist.len() {
                degree_hist.resize(d + 1, 0);
            }
            degree_hist[d] += 1;
        }
        if !ends.is_multiple_of(2) {
            return Err("odd adjacency end count".into());
        }
        let max_degree = degree_hist.iter().rposition(|&k| k > 0).unwrap_or(0);
        Ok(Self {
            edge_count: ends / 2,
            degree_hist,
            max_degree,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_remove_roundtrip() {
        let mut t = Topology::new([1u32, 5, 9], [(1, 5)]);
        assert!(t.has_edge(5, 1));
        assert!(!t.add_edge(5, 1), "duplicate add is a no-op");
        assert!(t.add_edge(5, 9));
        assert_eq!(t.edge_count(), 2);
        assert!(t.remove_edge(1, 5));
        assert!(!t.remove_edge(1, 5));
        assert_eq!(t.neighbors(5), &[9]);
        assert!(t.check_invariants());
    }

    #[test]
    #[should_panic]
    fn self_loop_rejected() {
        Topology::new([1u32], [(1, 1)]);
    }

    #[test]
    fn connectivity() {
        let t = Topology::new(0..4u32, [(0, 1), (1, 2), (2, 3)]);
        assert!(t.is_connected());
        let t = Topology::new(0..4u32, [(0, 1), (2, 3)]);
        assert!(!t.is_connected());
    }

    /// `connected_without` against the reference it replaced in the fault
    /// guard: clone, remove each of `gone`, ask `is_connected`. Every shape
    /// (line, star, lollipop and two-cliques have cut vertices and bridges)
    /// and random connected graphs, over sparse ids and recycled slots;
    /// `gone` is empty, each single node, each pair, all nodes but one, and
    /// random picks with non-members and repeats.
    #[test]
    fn connected_without_matches_clone_and_remove() {
        use crate::init::{random_connected, random_ids, Shape};
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let reference = |t: &Topology, gone: &[NodeId]| {
            let mut c = t.clone();
            gone.iter().for_each(|&v| _ = c.remove_node(v));
            c.is_connected()
        };
        let mut rng = SmallRng::seed_from_u64(34);
        let mut checked = [0usize; 2];
        for n in 2..=12usize {
            for shape in Shape::ALL {
                let ids = random_ids(n, 1 << 12, &mut rng);
                let mut t = Topology::new(ids.iter().copied(), shape.edges(&ids, &mut rng));
                if n > 2 && rng.gen_bool(0.5) {
                    // Free a slot and refill it, so slot order ≠ member order.
                    let v = ids[rng.gen_range(0..n)];
                    let nbrs = t.neighbors(v).to_vec();
                    t.remove_node(v);
                    t.add_node(v);
                    nbrs.iter().for_each(|&b| _ = t.add_edge(v, b));
                }
                let mut gones: Vec<Vec<NodeId>> = vec![vec![], ids[1..].to_vec()];
                gones.extend(ids.iter().map(|&v| vec![v]));
                gones.extend(
                    ids.iter()
                        .flat_map(|&a| ids.iter().map(move |&b| vec![a, b])),
                );
                for _ in 0..8 {
                    let k = rng.gen_range(0..=n + 2);
                    let pick = |r: &mut SmallRng| match r.gen_range(0..4) {
                        0 => r.gen_range(1 << 12..1 << 13), // not a node
                        _ => ids[r.gen_range(0..n)],
                    };
                    gones.push((0..k).map(|_| pick(&mut rng)).collect());
                }
                for gone in &gones {
                    let want = reference(&t, gone);
                    assert_eq!(
                        t.connected_without(gone),
                        want,
                        "{shape:?} n={n} gone={gone:?}"
                    );
                    checked[want as usize] += 1;
                }
            }
        }
        for extra in [0, 3, 12] {
            for seed in 0..20u64 {
                let mut rng = SmallRng::seed_from_u64(seed);
                let ids = random_ids(16, 1 << 10, &mut rng);
                let t = Topology::new(ids.iter().copied(), random_connected(&ids, extra, &mut rng));
                for gone in ids.iter().map(|&v| vec![v]).chain([ids[..8].to_vec()]) {
                    let want = reference(&t, &gone);
                    assert_eq!(
                        t.connected_without(&gone),
                        want,
                        "extra={extra} seed={seed}"
                    );
                    checked[want as usize] += 1;
                }
            }
        }
        assert!(
            checked.iter().all(|&k| k > 100),
            "both answers exercised: {checked:?}"
        );
    }

    #[test]
    fn degree_and_max_degree() {
        let t = Topology::new(0..4u32, [(0, 1), (0, 2), (0, 3)]);
        assert_eq!(t.degree(0), 3);
        assert_eq!(t.degree(2), 1);
        assert_eq!(t.max_degree(), 3);
        let degrees: Vec<usize> = (0..4).map(|v| t.degree(v)).collect();
        assert_eq!(degrees, [3, 1, 1, 1]);
    }

    #[test]
    fn max_degree_tracks_removals() {
        let mut t = Topology::new(0..4u32, [(0, 1), (0, 2), (0, 3), (1, 2)]);
        assert_eq!(t.max_degree(), 3);
        t.remove_edge(0, 3);
        assert_eq!(t.max_degree(), 2);
        t.remove_node(0);
        assert_eq!(t.max_degree(), 1, "only (1,2) left");
        t.remove_edge(1, 2);
        assert_eq!(t.max_degree(), 0);
        assert_eq!(t.edge_count(), 0);
        assert!(t.check_invariants());
    }

    #[test]
    fn add_and_remove_nodes() {
        let mut t = Topology::new([1u32, 5, 9], [(1, 5), (5, 9), (1, 9)]);
        assert!(t.add_node(7));
        assert!(!t.add_node(7), "duplicate add_node is a no-op");
        assert_eq!(t.node_count(), 4);
        assert_eq!(t.degree(7), 0);
        t.add_edge(7, 5);
        assert!(t.remove_node(5), "remove hub node");
        assert!(!t.remove_node(5));
        assert!(!t.contains(5));
        assert_eq!(t.edge_count(), 1, "only (1,9) survives");
        assert_eq!(t.neighbors(7), &[] as &[NodeId]);
        assert!(t.check_invariants());
        // Survivors keep their slots; nothing shifted.
        assert_eq!(t.slot_of(9), Some(NodeSlot::new(2)));
        assert_eq!(t.slot_of(7), Some(NodeSlot::new(3)));
        assert_eq!(t.id_at(NodeSlot::new(1)), None, "5's slot is free");
    }

    #[test]
    fn slots_are_recycled_lifo() {
        let mut t = Topology::new(0..4u32, [(0, 1), (1, 2), (2, 3)]);
        t.remove_node(1); // frees slot 1
        t.remove_node(3); // frees slot 3
        assert_eq!(t.slot_count(), 4);
        t.add_node(100);
        assert_eq!(t.slot_of(100), Some(NodeSlot::new(3)), "most recent first");
        t.add_node(101);
        assert_eq!(t.slot_of(101), Some(NodeSlot::new(1)));
        t.add_node(102);
        assert_eq!(t.slot_of(102), Some(NodeSlot::new(4)), "free list drained");
        assert_eq!(t.slot_count(), 5);
        assert!(t.check_invariants());
    }

    #[test]
    fn ids_track_membership_as_a_set() {
        let mut t = Topology::new(0..5u32, [(0, 1)]);
        t.remove_node(0);
        t.add_node(9);
        let mut ids = t.ids().to_vec();
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 2, 3, 4, 9]);
        assert_eq!(t.node_count(), 5);
    }

    #[test]
    fn edges_sorted_unique() {
        let t = Topology::new([7u32, 3, 5], [(7, 3), (3, 5)]);
        assert_eq!(t.edges(), vec![(3, 5), (3, 7)]);
    }

    #[test]
    fn snapshot_roundtrip_preserves_slots_free_list_and_dense_order() {
        let mut t = Topology::new(0..8u32, (0..8u32).map(|i| (i, (i + 1) % 8)));
        t.remove_node(2); // frees slot 2, permutes the dense mirror
        t.remove_node(6); // frees slot 6
        t.add_node(100); // recycles slot 6 (LIFO)
        t.add_edge(100, 5);

        let mut w = Writer::new();
        t.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let mut back = Topology::restore_state(&mut r).unwrap();
        r.finish().unwrap();

        assert_eq!(back.ids(), t.ids(), "dense order is exact, not just a set");
        assert_eq!(back.edges(), t.edges());
        assert_eq!(back.free, t.free, "free-list order decides future joins");
        for (slot, id) in t.live_slots() {
            assert_eq!(back.slot_of(id), Some(slot));
            assert_eq!(back.member_rank(slot), t.member_rank(slot));
        }
        assert_eq!(back.max_degree(), t.max_degree());
        assert_eq!(back.edge_count(), t.edge_count());
        // The next join recycles the same slot on both sides.
        t.add_node(200);
        back.add_node(200);
        assert_eq!(back.slot_of(200), t.slot_of(200));
        assert!(back.check_invariants());
    }

    /// The topology `add_node` and `add_edge` build one edit at a time —
    /// what `Topology::new` did before it built in bulk.
    fn built_by_edits(ids: &[NodeId], edges: &[(NodeId, NodeId)]) -> Topology {
        let mut t = Topology::default();
        for &v in ids {
            assert!(t.add_node(v));
        }
        for &(a, b) in edges {
            t.add_edge(a, b);
        }
        t
    }

    fn restored(t: &Topology) -> Topology {
        let mut w = Writer::new();
        t.save_state(&mut w);
        Topology::restore_state(&mut Reader::new(&w.into_bytes())).unwrap()
    }

    proptest::proptest! {
        /// The bulk build equals the edit-by-edit one on shuffled, reversed
        /// and repeated edge lists — every list, the member order, the
        /// counters — and is laid out as its restored twin.
        #[test]
        fn bulk_build_matches_edits_and_its_restored_twin(
            seed in 0u64..u64::MAX,
            n in 1usize..40,
            density in 0u32..100,
        ) {
            use rand::{seq::SliceRandom, Rng, SeedableRng};
            let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
            let mut ids: Vec<NodeId> = (0..4 * n as u32).collect();
            ids.shuffle(&mut rng);
            ids.truncate(n);
            let mut edges = Vec::new();
            for (i, &a) in ids.iter().enumerate() {
                for &b in &ids[i + 1..] {
                    if rng.gen_range(0..100u32) < density {
                        edges.push((a, b));
                    }
                }
            }
            edges.sort_unstable();
            let mut shuffled = edges.clone();
            shuffled.shuffle(&mut rng);
            let reversed: Vec<_> = edges.iter().rev().map(|&(a, b)| (b, a)).collect();
            let mut repeated: Vec<_> = edges.iter().flat_map(|&(a, b)| [(a, b), (b, a)]).collect();
            repeated.extend(edges.iter().copied());
            let edited = built_by_edits(&ids, &shuffled);
            for list in [&edges, &shuffled, &reversed, &repeated] {
                let t = Topology::new(ids.iter().copied(), list.iter().copied());
                proptest::prop_assert!(t.check_invariants());
                proptest::prop_assert_eq!(t.ids(), edited.ids());
                proptest::prop_assert_eq!(t.edges(), edited.edges());
                for &v in &ids {
                    proptest::prop_assert_eq!(t.slot_of(v), edited.slot_of(v));
                    proptest::prop_assert_eq!(t.neighbors(v), edited.neighbors(v));
                }
                let used = |h: &[usize]| h.iter().rposition(|&k| k > 0).map_or(0, |d| d + 1);
                proptest::prop_assert_eq!(
                    &t.degree_hist[..used(&t.degree_hist)],
                    &edited.degree_hist[..used(&edited.degree_hist)]
                );
                proptest::prop_assert_eq!(t.max_degree(), edited.max_degree());
                proptest::prop_assert_eq!(t.edge_count(), edited.edge_count());
                let twin = restored(&t);
                proptest::prop_assert_eq!(t.heap_bytes(), twin.heap_bytes());
                proptest::prop_assert_eq!(&t.adj.data, &twin.adj.data);
            }
        }
    }

    #[test]
    #[should_panic(expected = "duplicate node id 3")]
    fn bulk_build_rejects_a_duplicate_id() {
        Topology::new([1u32, 3, 3], []);
    }

    #[test]
    #[should_panic(expected = "unknown node 7")]
    fn bulk_build_rejects_an_unknown_endpoint() {
        Topology::new([1u32, 3], [(1, 3), (3, 7)]);
    }

    /// A restore sizes the adjacency storage exactly: no doubling slack
    /// from the block-by-block load, so a second save and restore reads
    /// the same footprint.
    #[test]
    fn restore_sizes_the_adjacency_storage_exactly() {
        // Five blocks of 4: 20 items, which the load grows to 32.
        let t = Topology::new(0..5u32, (0..5u32).map(|i| (i, (i + 1) % 5)));
        let round_trip = |t: &Topology| {
            let mut w = Writer::new();
            t.save_state(&mut w);
            Topology::restore_state(&mut Reader::new(&w.into_bytes())).unwrap()
        };
        let back = round_trip(&t);
        assert_eq!(back.adj.data.len(), 20);
        assert_eq!(back.adj.data.capacity(), back.adj.data.len());
        assert_eq!(back.adj.spans.capacity(), back.adj.spans.len());
        let again = round_trip(&back);
        assert_eq!(again.heap_bytes(), back.heap_bytes());
        assert_eq!(again.edges(), t.edges());
    }

    #[test]
    fn snapshot_restore_rejects_corrupt_payload() {
        let t = Topology::new(0..4u32, [(0, 1), (1, 2)]);
        let mut w = Writer::new();
        t.save_state(&mut w);
        let bytes = w.into_bytes();
        // Truncation fails loudly.
        let mut r = Reader::new(&bytes[..bytes.len() - 2]);
        assert!(Topology::restore_state(&mut r).is_err());
        // A payload wiring an edge to a missing back-edge fails the
        // invariant check rather than loading an inconsistent graph.
        let mut broken = Topology::new(0..4u32, [(0, 1)]);
        broken.adj.insert_at(0, 1, 3); // asymmetric edge, counters now stale
        let mut w = Writer::new();
        broken.save_state(&mut w);
        let bytes = w.into_bytes();
        let err = Topology::restore_state(&mut Reader::new(&bytes)).unwrap_err();
        assert!(matches!(err, SnapshotError::Corrupt(_)), "{err}");
        // Adjacency the scan must reject, each with an even end count so
        // the parity check alone cannot: a ring of up-edges whose targets
        // do not list back, two down-edges nobody lists from the other
        // side, self-loops, neighbors that are not members, and a list out
        // of order. Entries are `(slot, position, neighbor)`.
        for (what, entries) in [
            (
                "one-way up-edges",
                [(0, 0, 2), (2, 0, 1), (1, 0, 3), (3, 0, 0)].as_slice(),
            ),
            ("one-way down-edges", [(2, 0, 0), (3, 0, 1)].as_slice()),
            ("self-loops", [(0, 0, 0), (1, 0, 1)].as_slice()),
            ("unknown neighbors", [(0, 0, 8), (1, 0, 9)].as_slice()),
            (
                "unsorted list",
                [(0, 0, 2), (0, 1, 1), (1, 0, 0), (2, 0, 0)].as_slice(),
            ),
        ] {
            let mut broken = Topology::new(0..4u32, []);
            for &(slot, pos, v) in entries {
                broken.adj.insert_at(slot, pos, v);
            }
            assert!(broken.scan().is_err(), "{what}");
            let mut w = Writer::new();
            broken.save_state(&mut w);
            let bytes = w.into_bytes();
            let err = Topology::restore_state(&mut Reader::new(&bytes)).unwrap_err();
            assert!(matches!(err, SnapshotError::Corrupt(_)), "{what}: {err}");
        }
        // A free list must be exactly the free slots: `add_node` pops it
        // and would overwrite a live occupant (or hand one slot out twice).
        let mut churned = Topology::new(0..4u32, [(0, 1), (1, 2)]);
        churned.remove_node(3);
        for (what, free) in [
            ("repeated free slot", vec![3, 3]),
            ("live slot on the free list", vec![3, 1]),
        ] {
            let mut broken = churned.clone();
            broken.free = free.into_iter().map(NodeSlot::new).collect();
            assert!(!broken.check_invariants(), "{what}");
            let mut w = Writer::new();
            broken.save_state(&mut w);
            let bytes = w.into_bytes();
            let err = Topology::restore_state(&mut Reader::new(&bytes)).unwrap_err();
            assert!(matches!(err, SnapshotError::Corrupt(_)), "{what}: {err}");
        }
    }

    #[test]
    fn adj_arena_recycles_blocks_under_churn() {
        // A star center repeatedly grows to degree 32 and back to 0. Every
        // growth path allocates the same class sequence, so after the first
        // cycle the free lists must satisfy all further allocations: the
        // backing storage stops growing.
        let mut t = Topology::new(0..33u32, []);
        for i in 1..=32u32 {
            t.add_edge(0, i);
        }
        for i in 1..=32u32 {
            t.remove_edge(0, i);
        }
        let settled = t.adj.data.len();
        for _ in 0..16 {
            for i in 1..=32u32 {
                t.add_edge(0, i);
            }
            for i in 1..=32u32 {
                t.remove_edge(0, i);
            }
        }
        assert_eq!(
            t.adj.data.len(),
            settled,
            "block churn must be served from the free lists"
        );
        assert!(t.check_invariants());
    }

    #[test]
    fn adj_lists_stay_contiguous_and_sorted_across_classes() {
        // Walk one node through every class boundary and verify the slice
        // contract plus sortedness after each mutation.
        let mut t = Topology::new(0..70u32, []);
        let mut expect: Vec<NodeId> = Vec::new();
        // Insert in a scrambled order to exercise mid-list holes.
        for i in (1..70u32).rev().step_by(2).chain((2..70u32).step_by(2)) {
            t.add_edge(0, i);
            expect.push(i);
            expect.sort_unstable();
            assert_eq!(t.neighbors(0), &expect[..]);
        }
        // Remove from the middle outward; shrink path must keep the slice.
        while let Some(&v) = expect.get(expect.len() / 2) {
            t.remove_edge(0, v);
            expect.remove(expect.len() / 2);
            assert_eq!(t.neighbors(0), &expect[..]);
            if expect.is_empty() {
                break;
            }
        }
        assert!(t.check_invariants());
    }

    /// Ids on a power-of-two stride share all their low bits; the index's
    /// hasher must still spread them over the table's buckets (low bits)
    /// and tags (top seven bits) about as a random function would.
    #[test]
    fn id_hasher_spreads_strided_ids() {
        use std::hash::BuildHasher;
        let build = BuildHasherDefault::<IdHasher>::default();
        for stride in [1u32 << 10, 1 << 16] {
            let hashes: Vec<u64> = (0..1024u32).map(|k| build.hash_one(k * stride)).collect();
            let buckets: std::collections::HashSet<u64> = hashes.iter().map(|h| h & 1023).collect();
            let tags: std::collections::HashSet<u64> = hashes.iter().map(|h| h >> 57).collect();
            // A random function fills ~647 of 1,024 buckets and all 128 tags.
            assert!(
                buckets.len() > 550,
                "stride {stride}: {} buckets",
                buckets.len()
            );
            assert!(tags.len() > 120, "stride {stride}: {} tags", tags.len());
        }
    }

    /// The footprint is a function of the operations alone: the same churn
    /// applied to fresh topologies must report one byte count (the id
    /// index's capacity after removals must not depend on hash keys).
    #[test]
    fn heap_bytes_is_a_function_of_the_churn() {
        let churned = || {
            let mut t = Topology::new(0..64u32, (0..64u32).map(|i| (i, (i + 1) % 64)));
            for k in 0..400u32 {
                let v = 64 + k;
                t.remove_node((k * 37) % v);
                t.add_node(v);
                let u = t.ids()[(k as usize * 7) % t.node_count()];
                if u != v {
                    t.add_edge(u, v);
                }
            }
            t.heap_bytes()
        };
        let first = churned();
        for _ in 0..16 {
            assert_eq!(churned(), first);
        }
    }

    /// Apply `f` and return the slots whose stamp moved, in slot order.
    fn bumped(t: &mut Topology, f: impl FnOnce(&mut Topology)) -> Vec<usize> {
        let before = t.stamps.clone();
        f(t);
        (0..t.slot_count())
            .filter(|&i| before.get(i) != Some(&t.stamps[i]))
            .collect()
    }

    /// Each mutator moves the stamps of exactly the slots whose lists it
    /// changed — the ones a settled host would otherwise miss — and no
    /// stamp is ever handed out twice, to any slot of any topology.
    #[test]
    fn each_mutator_bumps_exactly_the_slots_it_touched() {
        // Slots 0..6 hold ids 10..16: a path 10-11-12-13 plus 14, 15.
        let mut t = Topology::new(10..16u32, [(10, 11), (11, 12), (12, 13)]);
        assert_eq!(bumped(&mut t, |t| assert!(t.add_edge(14, 11))), [1, 4]);
        assert_eq!(bumped(&mut t, |t| assert!(!t.add_edge(11, 14))), [0; 0]);
        assert_eq!(bumped(&mut t, |t| assert!(t.remove_edge(12, 13))), [2, 3]);
        assert_eq!(bumped(&mut t, |t| assert!(!t.remove_edge(12, 13))), [0; 0]);
        assert_eq!(bumped(&mut t, |t| assert!(!t.remove_edge(12, 99))), [0; 0]);
        // A departure: the leaver and every former neighbor.
        assert_eq!(bumped(&mut t, |t| assert!(t.remove_node(11))), [0, 1, 2, 4]);
        assert_eq!(bumped(&mut t, |t| assert!(!t.remove_node(11))), [0; 0]);
        // A join into the recycled slot, then into a fresh one.
        assert_eq!(bumped(&mut t, |t| assert!(t.add_node(20))), [1]);
        assert_eq!(bumped(&mut t, |t| assert!(t.add_node(21))), [6]);
        assert_eq!(bumped(&mut t, |t| assert!(!t.add_node(21))), [0; 0]);
        // A restore stamps every slot afresh.
        let mut w = Writer::new();
        t.save_state(&mut w);
        let bytes = w.into_bytes();
        let back = Topology::restore_state(&mut Reader::new(&bytes)).unwrap();
        let clone = t.clone();
        assert_eq!(clone.stamps, t.stamps, "a clone names the same lists");
        let mut seen = std::collections::HashSet::new();
        for s in t.stamps.iter().chain(&back.stamps) {
            assert!(*s != 0 && seen.insert(*s), "stamp {s} issued twice");
        }
    }

    /// The stamp array is slot-parallel and counted: 8 bytes a slot.
    #[test]
    fn stamps_cover_every_slot_and_count_in_heap_bytes() {
        let mut t = Topology::new(0..64u32, (0..64u32).map(|i| (i, (i + 1) % 64)));
        assert_eq!(t.stamps.len(), t.slot_count());
        let (bytes, cap) = (t.heap_bytes(), t.stamps.capacity());
        t.stamps.reserve_exact(cap + 100);
        assert_eq!(t.heap_bytes() - bytes, (t.stamps.capacity() - cap) * 8);
        t.stamps.pop();
        assert!(!t.check_invariants(), "a short stamp array fails the scan");
    }

    #[test]
    fn counters_survive_churn_storm() {
        let mut t = Topology::new(0..8u32, (0..8u32).map(|i| (i, (i + 1) % 8)));
        for round in 0..20u32 {
            let victim = round % 8;
            if t.contains(victim) {
                t.remove_node(victim);
            } else {
                t.add_node(victim);
                for other in 0..8u32 {
                    if other != victim && t.contains(other) && (other + round) % 3 == 0 {
                        t.add_edge(victim, other);
                    }
                }
            }
            assert!(t.check_invariants(), "round {round}");
        }
    }
}
