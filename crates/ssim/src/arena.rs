//! Paged slab arena for per-slot message inboxes.
//!
//! The engine's original inbox layout was two position-aligned
//! `Vec<Vec<…>>`s — one `(sender id, message)` list plus one sender-*slot*
//! mirror per [`NodeSlot`]. That shape has two
//! memory pathologies at scale:
//!
//! * **Per-slot headers**: a million slots cost two `Vec` headers each
//!   (48 bytes/slot) before a single message exists.
//! * **Unbounded capacity retention**: `Vec::clear` keeps capacity, so one
//!   burst round leaves every slot holding its *peak* buffer forever. The
//!   retained footprint is the sum of per-slot peaks, not the concurrent
//!   peak.
//!
//! [`InboxArena`] replaces both with a **paged slab**: messages live in
//! fixed-capacity [`PAGE_CAP`] pages drawn from one shared free list, and a
//! slot's inbox is a singly-linked chain of pages (12 bytes of chain state
//! per slot). Because pages are shared, the arena's footprint tracks the
//! *concurrent* message peak, and a bounded shrink policy
//! ([`InboxArena::maybe_shrink`]) releases cold page buffers so a
//! peak-then-idle run returns near its baseline footprint (the capacity
//! retention fix this module exists for).
//!
//! A page stores its messages and its sender-slot mirror as two parallel
//! arrays, so the common single-page inbox hands the emit phase a borrowed
//! `&[(NodeId, M)]` slice with zero copying; only multi-page inboxes gather
//! into a caller-provided scratch buffer.
//!
//! **Determinism**: the arena changes where bytes live, never what order
//! they are observed in. Every append happens on the driving thread, in
//! the order of the delivery walk, and iteration walks chains front to
//! back, so snapshots and program-visible inbox slices are byte-identical
//! to the flat layout at any thread count.

use crate::program::Outgoing;
use crate::sched::Agenda;
use crate::snapshot::{Persist, Reader, SnapshotError, Writer};
use crate::topology::{NodeSlot, Topology};
use crate::NodeId;

/// Messages per page. Sized so one page covers the overwhelming majority
/// of per-round inboxes (overlay degrees are O(log² n) by design) while a
/// page of 16-byte entries stays comfortably inside one or two cache
/// lines' worth of header traffic.
pub const PAGE_CAP: usize = 32;

/// Sentinel "no page" / "no chain" index.
const NONE: u32 = u32::MAX;

/// One fixed-capacity inbox page: parallel message / sender-slot arrays
/// plus the intra-chain link.
struct Page<M> {
    /// `(sender id, message)` in delivery order.
    msgs: Vec<(NodeId, M)>,
    /// Sender *slot* of `msgs[k]`, for `sent_to` release without id→slot
    /// hashing (mirrors the old `inbox_senders` array).
    senders: Vec<u32>,
    /// Next page in this chain, or [`NONE`].
    next: u32,
}

impl<M> Page<M> {
    fn with_buffers() -> Self {
        Page {
            msgs: Vec::with_capacity(PAGE_CAP),
            senders: Vec::with_capacity(PAGE_CAP),
            next: NONE,
        }
    }
}

/// Per-slot chain descriptor: 12 bytes replacing two 24-byte `Vec` headers.
#[derive(Clone, Copy)]
struct Chain {
    head: u32,
    tail: u32,
    len: u32,
}

const EMPTY_CHAIN: Chain = Chain {
    head: NONE,
    tail: NONE,
    len: 0,
};

/// Paged slab arena holding every slot's inbox (see the module docs).
///
/// The type parameter `M` is the protocol message type; the runtime
/// instantiates one arena per [`Runtime`](crate::Runtime).
pub struct InboxArena<M> {
    /// Page slab; indices are stable for the arena's lifetime.
    pages: Vec<Page<M>>,
    /// Free pages that kept their buffers (hot reuse path).
    warm: Vec<u32>,
    /// Free pages whose buffers were released by [`Self::maybe_shrink`].
    cold: Vec<u32>,
    /// Per-slot chain state, indexed by slot.
    chains: Vec<Chain>,
    /// Total messages across all chains (the runtime's `inflight` mirror).
    total: usize,
}

impl<M> InboxArena<M> {
    /// An arena with `slots` empty chains.
    pub fn new(slots: usize) -> Self {
        InboxArena {
            pages: Vec::new(),
            warm: Vec::new(),
            cold: Vec::new(),
            chains: vec![EMPTY_CHAIN; slots],
            total: 0,
        }
    }

    /// Number of slots the arena covers.
    pub fn slot_count(&self) -> usize {
        self.chains.len()
    }

    /// Grow to cover at least `slots` slots (never shrinks the slot space —
    /// slot indices are stable engine-wide).
    pub fn ensure_slots(&mut self, slots: usize) {
        if slots > self.chains.len() {
            self.chains.resize(slots, EMPTY_CHAIN);
        }
    }

    /// Messages pending in `slot`'s inbox.
    pub fn len(&self, slot: usize) -> usize {
        self.chains[slot].len as usize
    }

    /// True iff `slot`'s inbox holds no messages.
    pub fn is_empty(&self, slot: usize) -> bool {
        self.chains[slot].len == 0
    }

    /// Total messages across every inbox (tracked incrementally, O(1)).
    pub fn total_len(&self) -> usize {
        self.total
    }

    /// Pop a free page (warm first, then cold with buffers re-reserved,
    /// then a fresh slab entry) and return its index.
    fn alloc_page(&mut self) -> u32 {
        if let Some(pi) = self.warm.pop() {
            let pg = &mut self.pages[pi as usize];
            debug_assert!(pg.msgs.is_empty() && pg.senders.is_empty());
            pg.next = NONE;
            return pi;
        }
        if let Some(pi) = self.cold.pop() {
            let pg = &mut self.pages[pi as usize];
            pg.msgs.reserve_exact(PAGE_CAP);
            pg.senders.reserve_exact(PAGE_CAP);
            pg.next = NONE;
            return pi;
        }
        let pi = self.pages.len() as u32;
        assert!(pi != NONE, "inbox arena page index space exhausted");
        self.pages.push(Page::with_buffers());
        pi
    }

    /// Link a free page at `chain`'s tail and return its index.
    fn grow(&mut self, chain: &mut Chain) -> u32 {
        let pi = self.alloc_page();
        if chain.tail == NONE {
            chain.head = pi;
        } else {
            self.pages[chain.tail as usize].next = pi;
        }
        chain.tail = pi;
        pi
    }

    /// Append one message to `slot`'s inbox (sequential delivery path).
    pub fn push(&mut self, slot: usize, from: NodeId, from_slot: u32, msg: M) {
        let mut chain = self.chains[slot];
        let tail_full =
            chain.tail == NONE || self.pages[chain.tail as usize].msgs.len() == PAGE_CAP;
        if tail_full {
            self.grow(&mut chain);
        }
        let pg = &mut self.pages[chain.tail as usize];
        pg.msgs.push((from, msg));
        pg.senders.push(from_slot);
        chain.len += 1;
        self.chains[slot] = chain;
        self.total += 1;
    }

    /// Borrow `slot`'s inbox as one contiguous slice. Single-page chains
    /// (the overwhelmingly common case) borrow straight from the page;
    /// longer chains gather into `buf` (cleared first, capacity reused
    /// across rounds).
    pub fn view<'a>(&'a self, slot: usize, buf: &'a mut Vec<(NodeId, M)>) -> &'a [(NodeId, M)]
    where
        M: Clone,
    {
        let chain = self.chains[slot];
        if chain.head == NONE {
            return &[];
        }
        let first = &self.pages[chain.head as usize];
        if first.next == NONE {
            return &first.msgs;
        }
        buf.clear();
        let mut pi = chain.head;
        while pi != NONE {
            let pg = &self.pages[pi as usize];
            buf.extend_from_slice(&pg.msgs);
            pi = pg.next;
        }
        buf
    }

    /// Iterate `slot`'s sender slots in delivery order (the old
    /// `inbox_senders` walk, for `sent_to` release on consumption).
    pub fn senders(&self, slot: usize) -> impl Iterator<Item = u32> + '_ {
        self.page_indices(slot)
            .flat_map(|pi| self.pages[pi as usize].senders.iter().copied())
    }

    /// Iterate `slot`'s `(sender id, message)` entries in delivery order
    /// (snapshot serialization walk).
    pub fn entries(&self, slot: usize) -> impl Iterator<Item = &(NodeId, M)> + '_ {
        self.page_indices(slot)
            .flat_map(|pi| self.pages[pi as usize].msgs.iter())
    }

    fn page_indices(&self, slot: usize) -> PageIndices<'_, M> {
        PageIndices {
            pages: &self.pages,
            cur: self.chains[slot].head,
        }
    }

    /// Drop every message in `slot`'s inbox, return its pages to the free
    /// list, and report how many messages were consumed.
    pub fn clear_slot(&mut self, slot: usize) -> usize {
        let chain = self.chains[slot];
        let mut pi = chain.head;
        while pi != NONE {
            let pg = &mut self.pages[pi as usize];
            pg.msgs.clear();
            pg.senders.clear();
            let next = pg.next;
            pg.next = NONE;
            self.warm.push(pi);
            pi = next;
        }
        self.chains[slot] = EMPTY_CHAIN;
        self.total -= chain.len as usize;
        chain.len as usize
    }

    /// Remove every message in `slot`'s inbox whose sender slot is
    /// `sender` (channel-died purge on membership departure), preserving
    /// the relative order of survivors. Returns the number removed.
    ///
    /// The chain is drained into a rebuild buffer, keeping survivors in
    /// order, and re-appended: O(inbox len) — the bound of a flat
    /// compaction — and membership events are rare relative to rounds.
    pub fn purge_sender(&mut self, slot: usize, sender: u32) -> usize {
        let mut kept = Vec::with_capacity(self.len(slot));
        let mut pi = self.chains[slot].head;
        while pi != NONE {
            let pg = &mut self.pages[pi as usize];
            for ((from, msg), fs) in pg.msgs.drain(..).zip(pg.senders.drain(..)) {
                if fs != sender {
                    kept.push((from, fs, msg));
                }
            }
            pi = pg.next;
        }
        let removed = self.clear_slot(slot) - kept.len();
        for (from, fs, msg) in kept {
            self.push(slot, from, fs, msg);
        }
        removed
    }

    /// Bounded capacity release: keep at most `max(64, pages in use)`
    /// warm free pages and strip the buffers of the rest (they rejoin the
    /// cold list and re-reserve on demand). Cheap enough to call every
    /// round — O(pages released) with an O(1) fast path — this is what
    /// bounds the arena's footprint to a constant factor of the *current*
    /// load after a peak (the capacity-retention fix).
    pub fn maybe_shrink(&mut self) {
        let in_use = self.pages.len() - self.warm.len() - self.cold.len();
        let watermark = in_use.max(64);
        while self.warm.len() > watermark {
            let pi = self.warm.pop().expect("len checked");
            let pg = &mut self.pages[pi as usize];
            pg.msgs = Vec::new();
            pg.senders = Vec::new();
            self.cold.push(pi);
        }
    }

    /// Bytes of heap owned by the arena's own structures: the page slab,
    /// page buffers, chain table and free lists. Heap owned by the
    /// messages themselves (e.g. boxed payload variants) is invisible to
    /// the arena and not counted.
    pub fn heap_bytes(&self) -> usize {
        let page_bufs: usize = self
            .pages
            .iter()
            .map(|p| {
                p.msgs.capacity() * std::mem::size_of::<(NodeId, M)>()
                    + p.senders.capacity() * std::mem::size_of::<u32>()
            })
            .sum();
        self.pages.capacity() * std::mem::size_of::<Page<M>>()
            + page_bufs
            + self.chains.capacity() * std::mem::size_of::<Chain>()
            + (self.warm.capacity() + self.cold.capacity()) * std::mem::size_of::<u32>()
    }
}

/// Forward walk over one chain's page indices.
struct PageIndices<'a, M> {
    pages: &'a [Page<M>],
    cur: u32,
}

impl<M> Iterator for PageIndices<'_, M> {
    type Item = u32;
    fn next(&mut self) -> Option<u32> {
        if self.cur == NONE {
            return None;
        }
        let pi = self.cur;
        self.cur = self.pages[pi as usize].next;
        Some(pi)
    }
}

/// The mailboxes: every slot's pending messages plus the ledger of who
/// still has messages pending where.
///
/// Delivered sends accumulate in the arena and are consumed (cleared) when
/// the slot is activated. Under the synchronous daemon every inbox is
/// consumed every round, so a message sent in round `i` is read in round
/// `i + 1` and never later; under partial daemons messages wait for their
/// recipient's next activation.
pub(crate) struct Mailboxes<M> {
    inboxes: InboxArena<M>,
    /// Per-slot target slots holding *unconsumed* messages from this slot
    /// (one entry per pending message) — lets a departure purge its
    /// in-flight messages in O(pending) instead of scanning every inbox.
    /// Entries are added at delivery and removed when the recipient
    /// consumes.
    sent_to: Vec<Vec<u32>>,
}

impl<M> Mailboxes<M> {
    pub(crate) fn new(slots: usize) -> Self {
        Self {
            inboxes: InboxArena::new(slots),
            sent_to: std::iter::repeat_with(Vec::new).take(slots).collect(),
        }
    }

    pub(crate) fn inboxes(&self) -> &InboxArena<M> {
        &self.inboxes
    }

    pub(crate) fn push_slot(&mut self) {
        self.inboxes.ensure_slots(self.sent_to.len() + 1);
        self.sent_to.push(Vec::new());
    }

    /// Deliver one message: it becomes readable at the recipient's *next*
    /// activation, and — a pending message being a wake-up condition — the
    /// recipient is marked dirty.
    pub(crate) fn push(&mut self, agenda: &mut Agenda, o: Outgoing<M>) {
        self.inboxes
            .push(o.to_slot as usize, o.from, o.from_slot, o.msg);
        self.sent_to[o.from_slot as usize].push(o.to_slot);
        agenda.mark(o.to_slot as usize);
    }

    /// Consume `slot`'s mailbox: each message releases its ledger entry —
    /// by recorded sender *slot*, no id → slot hashing here. The release is
    /// a linear scan of the sender's pending list, O(pending of that
    /// sender) per message: quadratic in degree for a hub broadcasting to d
    /// neighbors every round. Overlay protocols keep degrees at O(log² n)
    /// by design (degree expansion is the paper's other cost metric), so
    /// the scan beats the alternatives measured here — hashing per message,
    /// or giving up an exact ledger and purging departures via a scan of
    /// all pending inboxes (which would make the benchmarked burst-churn
    /// path O(total pending) per leave instead of O(pending of the leaver)).
    pub(crate) fn consume(&mut self, slot: usize) {
        if self.inboxes.is_empty(slot) {
            return;
        }
        for fs in self.inboxes.senders(slot) {
            let sent = &mut self.sent_to[fs as usize];
            if let Some(p) = sent.iter().position(|&t| t as usize == slot) {
                sent.swap_remove(p);
            }
        }
        self.inboxes.clear_slot(slot);
    }

    /// A departure: `slot`'s own mailbox is consumed, and every message it
    /// sent that is still pending dies in its target's mailbox. The ledger
    /// names exactly the slots holding such messages, so the purge is
    /// O(pending traffic of the host), not a scan of every inbox (the arena
    /// purge preserves message order).
    pub(crate) fn retire(&mut self, slot: usize) {
        self.consume(slot);
        for k in 0..self.sent_to[slot].len() {
            let t = self.sent_to[slot][k] as usize;
            self.inboxes.purge_sender(t, slot as u32);
        }
        self.sent_to[slot].clear();
    }

    /// Bounded capacity release after a burst (see
    /// [`InboxArena::maybe_shrink`]).
    pub(crate) fn maybe_shrink(&mut self) {
        self.inboxes.maybe_shrink();
    }

    /// Capacity-based heap bytes of the pending-sends ledger.
    pub(crate) fn ledger_bytes(&self) -> usize {
        use std::mem::size_of;
        self.sent_to
            .iter()
            .map(|l| size_of::<Vec<u32>>() + l.capacity() * size_of::<u32>())
            .sum()
    }
}

impl<M: Persist> Mailboxes<M> {
    /// Serialize `slot`'s pending messages. The entries alone suffice: the
    /// sender-slot mirror and the ledger are exactly derivable from them (a
    /// departed sender's pending messages are always purged, so every
    /// pending sender is a live member) and are rebuilt on restore. Chain
    /// iteration is delivery order.
    pub(crate) fn save_slot(&self, slot: usize, w: &mut Writer) {
        w.seq(self.inboxes.len(slot));
        for e in self.inboxes.entries(slot) {
            e.save(w);
        }
    }

    /// Restore what [`Self::save_slot`] wrote, re-deriving the sender-slot
    /// mirror and the ledger from the sender ids against the restored
    /// membership.
    pub(crate) fn load_slot(
        &mut self,
        slot: usize,
        r: &mut Reader<'_>,
        topo: &Topology,
    ) -> Result<(), SnapshotError> {
        for _ in 0..r.seq()? {
            let (from, msg) = <(NodeId, M)>::load(r)?;
            let fs = topo.slot_of(from).ok_or_else(|| {
                SnapshotError::Corrupt(format!("pending message from non-member {from}"))
            })?;
            self.inboxes.push(slot, from, fs.index() as u32, msg);
            self.sent_to[fs.index()].push(slot as u32);
        }
        Ok(())
    }

    /// Cross-check restored mailboxes against the restored membership.
    pub(crate) fn validate(&self, topo: &Topology) -> Result<(), SnapshotError> {
        match (0..self.sent_to.len())
            .find(|&i| !topo.is_live(NodeSlot::new(i)) && !self.inboxes.is_empty(i))
        {
            Some(i) => Err(SnapshotError::Corrupt(format!(
                "slot {i}: free slot holds pending messages"
            ))),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_view(a: &InboxArena<u64>, slot: usize) -> Vec<(NodeId, u64)> {
        let mut buf = Vec::new();
        a.view(slot, &mut buf).to_vec()
    }

    #[test]
    fn push_view_preserves_order_across_pages() {
        let mut a = InboxArena::<u64>::new(2);
        let n = PAGE_CAP * 3 + 5;
        for k in 0..n {
            a.push(0, k as NodeId, (k % 7) as u32, k as u64 * 10);
        }
        assert_eq!(a.len(0), n);
        assert_eq!(a.total_len(), n);
        assert!(a.is_empty(1));
        let got = drain_view(&a, 0);
        let want: Vec<(NodeId, u64)> = (0..n).map(|k| (k as NodeId, k as u64 * 10)).collect();
        assert_eq!(got, want);
        let senders: Vec<u32> = a.senders(0).collect();
        let want_s: Vec<u32> = (0..n).map(|k| (k % 7) as u32).collect();
        assert_eq!(senders, want_s);
    }

    #[test]
    fn single_page_view_borrows_without_gather() {
        let mut a = InboxArena::<u64>::new(1);
        a.push(0, 9, 0, 99);
        let mut buf = Vec::new();
        let v = a.view(0, &mut buf);
        assert_eq!(v, &[(9, 99)]);
        // The gather buffer is untouched on the single-page path.
        assert!(buf.is_empty());
    }

    #[test]
    fn clear_recycles_pages_through_the_free_list() {
        let mut a = InboxArena::<u64>::new(4);
        for slot in 0..4 {
            for k in 0..PAGE_CAP * 2 {
                a.push(slot, k as NodeId, 0, 0);
            }
        }
        let slab_pages = a.pages.len();
        assert_eq!(slab_pages, 8);
        for slot in 0..4 {
            assert_eq!(a.clear_slot(slot), PAGE_CAP * 2);
        }
        assert_eq!(a.total_len(), 0);
        // Refill: reuses freed pages, slab does not grow.
        for slot in 0..4 {
            for k in 0..PAGE_CAP * 2 {
                a.push(slot, k as NodeId, 0, 0);
            }
        }
        assert_eq!(a.pages.len(), slab_pages);
    }

    #[test]
    fn purge_sender_filters_in_order_single_and_multi_page() {
        for n in [PAGE_CAP / 2, PAGE_CAP * 4 + 3] {
            let mut a = InboxArena::<u64>::new(1);
            for k in 0..n {
                a.push(0, k as NodeId, (k % 3) as u32, k as u64);
            }
            let removed = a.purge_sender(0, 1);
            let expect_removed = (0..n).filter(|k| k % 3 == 1).count();
            assert_eq!(removed, expect_removed, "n={n}");
            let got = drain_view(&a, 0);
            let want: Vec<(NodeId, u64)> = (0..n)
                .filter(|k| k % 3 != 1)
                .map(|k| (k as NodeId, k as u64))
                .collect();
            assert_eq!(got, want, "n={n}");
            assert_eq!(a.total_len(), n - expect_removed);
            let senders: Vec<u32> = a.senders(0).collect();
            assert!(senders.iter().all(|&s| s != 1));
        }
    }

    #[test]
    fn purge_to_empty_frees_the_chain() {
        let mut a = InboxArena::<u64>::new(1);
        for k in 0..5 {
            a.push(0, k, 7, 0);
        }
        assert_eq!(a.purge_sender(0, 7), 5);
        assert!(a.is_empty(0));
        assert_eq!(a.total_len(), 0);
        assert!(drain_view(&a, 0).is_empty());
    }

    #[test]
    fn maybe_shrink_bounds_retained_capacity() {
        let mut a = InboxArena::<u64>::new(1024);
        // Peak: fill every slot with two pages' worth.
        for slot in 0..1024 {
            for k in 0..PAGE_CAP * 2 {
                a.push(slot, k as NodeId, 0, 0);
            }
        }
        let peak = a.heap_bytes();
        for slot in 0..1024 {
            a.clear_slot(slot);
        }
        // Idle: capacity is retained until the shrink policy runs…
        assert!(a.heap_bytes() > peak / 2);
        a.maybe_shrink();
        let idle = a.heap_bytes();
        // …then only the watermark's worth of warm pages keeps buffers.
        assert!(
            idle < peak / 4,
            "idle {idle} should be well under peak {peak}"
        );
        assert!(a.warm.len() <= 64);
        // Cold pages re-reserve transparently on demand.
        a.push(3, 1, 2, 42);
        assert_eq!(drain_view(&a, 3), vec![(1, 42)]);
    }

    #[test]
    fn ensure_slots_grows_and_keeps_existing_chains() {
        let mut a = InboxArena::<u64>::new(2);
        a.push(1, 4, 0, 44);
        a.ensure_slots(10);
        assert_eq!(a.slot_count(), 10);
        assert!(a.is_empty(9));
        assert_eq!(drain_view(&a, 1), vec![(4, 44)]);
    }
}
