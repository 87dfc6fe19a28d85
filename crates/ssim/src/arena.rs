//! Paged slab arena for per-slot message inboxes — the one place a pending
//! message lives.
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
//! per slot and table). Because pages are shared, the arena's footprint
//! tracks the *concurrent* message peak, and a bounded shrink policy
//! ([`InboxArena::maybe_shrink`]) releases cold page buffers so a
//! peak-then-idle run returns near its baseline footprint (the capacity
//! retention fix this module exists for).
//!
//! A page stores its `(sender id, message)` entries in one array, and the
//! arena keeps **two chain tables** over the one slab: the round-start
//! chains (the mail a step reads) and the incoming chains (mail sent or
//! landed this round, which nobody reads until the next one). Both draw
//! pages from the same free lists.
//!
//! **Lifecycle.** A message is written once, into a page of its
//! recipient's incoming chain: [`crate::Ctx::send`] pushes it there as the
//! sender steps, after the wire's decision, and a due transit arrival
//! lands there before the round's first step. Before a selected host
//! steps, its round-start chain is *taken* out of the arena
//! (`InboxArena::take`): a single-page chain lends the page's buffer
//! itself, a longer one is moved into one gather buffer, and the step
//! reads that owned buffer while other steps push into other pages. The
//! buffer goes back as a warm page after the step (`InboxArena::give_back`),
//! so the pages a round's inboxes held are reused by the sends of its
//! later steps. (Due arrivals land before any inbox is taken, so under a
//! delaying wire a round's arrivals and its round-start inboxes are paged
//! at the same time.) At the end of the round each touched incoming chain
//! is spliced onto its round-start chain (`InboxArena::splice`): O(1) per
//! slot, no copy, carried mail first, then due arrivals, then this round's
//! sends. A host activated later in the round than a sender therefore
//! still reads only its round-start inbox: under the synchronous daemon a
//! message sent in round `i` is read in round `i + 1` and never later;
//! under partial daemons messages wait for their recipient's next
//! activation. A departure drops every pending message its host sent (the
//! channels died with it). Delivery keeps no record of who sent where: the
//! round's apply walk marks each recipient dirty, and only the activation
//! that takes the inbox clears the mark, so at every round boundary
//! **every non-empty inbox belongs to a dirty slot** and every incoming
//! chain is empty. `InboxArena::retire` therefore purges through the
//! agenda's dirty list, and `InboxArena::validate` holds restored
//! snapshots to the same invariant. A burst of departures between two
//! deliveries shares one scan: the second departure indexes the pending
//! messages by sender, and the next append drops the index.
//!
//! **Determinism**: the arena changes where bytes live, never what order
//! they are observed in. Every append happens in emission order, which is
//! the order of the apply walk, and iteration walks chains front to back,
//! so snapshots and program-visible inbox slices are byte-identical to the
//! flat layout.

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

/// One fixed-capacity inbox page: its messages plus the intra-chain link.
struct Page<M> {
    /// `(sender id, message)` in delivery order.
    msgs: Vec<(NodeId, M)>,
    /// Next page in this chain, or [`NONE`].
    next: u32,
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
    /// Per-slot round-start chains — the mail a step reads — indexed by
    /// slot.
    chains: Vec<Chain>,
    /// Per-slot chains of this round's new mail, spliced onto `chains` at
    /// the end of the round (empty at every round boundary). Sized to the
    /// slot space at the first delivery after it grew, so a run that sends
    /// nothing keeps no table.
    incoming: Vec<Chain>,
    /// Total messages across the round-start chains (the runtime's
    /// `inflight` mirror).
    total: usize,
    /// Total messages across the incoming chains.
    fresh: usize,
    /// Where a multi-page inbox is gathered for the step that reads it
    /// (capacity reused across rounds; see [`Self::take`]).
    gather: Vec<(NodeId, M)>,
    /// Departure batching (see [`Self::retire`]): `None` until a departure
    /// follows the last append; then empty, until a second departure fills
    /// it with the sorted `(sender id, recipient slot)` pairs of every
    /// pending message. Any append drops it.
    departures: Option<Vec<(NodeId, u32)>>,
}

/// One slot's round-start inbox, taken out of the arena for the step that
/// reads it ([`InboxArena::take`]) and handed back after it
/// ([`InboxArena::give_back`]).
pub(crate) enum Taken<M> {
    /// Nothing was pending.
    Empty,
    /// A single-page chain: the page, lent out with its own buffer.
    Page(u32, Vec<(NodeId, M)>),
    /// A longer chain, moved into the arena's gather buffer.
    Gathered(Vec<(NodeId, M)>),
}

impl<M> Taken<M> {
    /// The inbox, in delivery order.
    pub(crate) fn msgs(&self) -> &[(NodeId, M)] {
        match self {
            Taken::Empty => &[],
            Taken::Page(_, msgs) | Taken::Gathered(msgs) => msgs,
        }
    }
}

impl<M> InboxArena<M> {
    /// An arena with `slots` empty chains.
    pub fn new(slots: usize) -> Self {
        InboxArena {
            pages: Vec::new(),
            warm: Vec::new(),
            cold: Vec::new(),
            chains: vec![EMPTY_CHAIN; slots],
            incoming: Vec::new(),
            total: 0,
            fresh: 0,
            gather: Vec::new(),
            departures: None,
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
    /// Mail sent in the current round is not counted until the round ends.
    pub fn total_len(&self) -> usize {
        self.total
    }

    /// Pop a free page (warm first, then cold with its buffer re-reserved,
    /// then a fresh slab entry) and return its index.
    fn alloc_page(&mut self) -> u32 {
        if let Some(pi) = self.warm.pop() {
            let pg = &mut self.pages[pi as usize];
            debug_assert!(pg.msgs.is_empty());
            pg.next = NONE;
            return pi;
        }
        if let Some(pi) = self.cold.pop() {
            let pg = &mut self.pages[pi as usize];
            pg.msgs.reserve_exact(PAGE_CAP);
            pg.next = NONE;
            return pi;
        }
        let pi = self.pages.len() as u32;
        assert!(pi != NONE, "inbox arena page index space exhausted");
        self.pages.push(Page {
            msgs: Vec::with_capacity(PAGE_CAP),
            next: NONE,
        });
        pi
    }

    /// Append one entry to `chain`, linking a free page at its tail when
    /// the tail is full (or there is none), and return the grown chain.
    fn append(&mut self, mut chain: Chain, entry: (NodeId, M)) -> Chain {
        if chain.tail == NONE || self.pages[chain.tail as usize].msgs.len() == PAGE_CAP {
            let pi = self.alloc_page();
            if chain.tail == NONE {
                chain.head = pi;
            } else {
                self.pages[chain.tail as usize].next = pi;
            }
            chain.tail = pi;
        }
        self.pages[chain.tail as usize].msgs.push(entry);
        chain.len += 1;
        self.departures = None;
        chain
    }

    /// Append one message to `slot`'s inbox.
    pub fn push(&mut self, slot: usize, from: NodeId, msg: M) {
        self.chains[slot] = self.append(self.chains[slot], (from, msg));
        self.total += 1;
    }

    /// Deliver one message sent (or landed) this round: it joins `slot`'s
    /// incoming chain, readable from the recipient's *next* activation
    /// once [`Self::splice`] has run. The caller logs the recipient, whom
    /// the round's apply walk marks dirty.
    pub(crate) fn post(&mut self, slot: usize, from: NodeId, msg: M) {
        if slot >= self.incoming.len() {
            self.incoming.resize(self.chains.len(), EMPTY_CHAIN);
        }
        self.incoming[slot] = self.append(self.incoming[slot], (from, msg));
        self.fresh += 1;
    }

    /// Take `slot`'s round-start inbox out of the arena for the step that
    /// reads it, leaving the slot's chain empty: a single-page chain lends
    /// its page's buffer (no copy), a longer one is moved into the gather
    /// buffer and its pages go straight back to the free list. While the
    /// inbox is out, [`Self::post`] may push into any other page.
    pub(crate) fn take(&mut self, slot: usize) -> Taken<M> {
        let chain = self.chains[slot];
        if chain.len == 0 {
            return Taken::Empty;
        }
        self.chains[slot] = EMPTY_CHAIN;
        self.total -= chain.len as usize;
        let head = &mut self.pages[chain.head as usize];
        if head.next == NONE {
            return Taken::Page(chain.head, std::mem::take(&mut head.msgs));
        }
        let mut msgs = std::mem::take(&mut self.gather);
        msgs.reserve_exact(chain.len as usize);
        let mut pi = chain.head;
        while pi != NONE {
            let pg = &mut self.pages[pi as usize];
            msgs.append(&mut pg.msgs);
            self.warm.push(pi);
            pi = std::mem::replace(&mut pg.next, NONE);
        }
        Taken::Gathered(msgs)
    }

    /// Return what [`Self::take`] lent out, its messages dropped: a lent
    /// page rejoins the warm free list with its buffer, a gather buffer
    /// keeps its capacity for the next multi-page inbox.
    pub(crate) fn give_back(&mut self, taken: Taken<M>) {
        match taken {
            Taken::Empty => {}
            Taken::Page(pi, mut msgs) => {
                msgs.clear();
                self.pages[pi as usize].msgs = msgs;
                self.warm.push(pi);
            }
            Taken::Gathered(mut msgs) => {
                msgs.clear();
                self.gather = msgs;
            }
        }
    }

    /// End the round's delivery: splice the incoming chain of every slot
    /// in `touched` (each slot that received mail, in any order, repeats
    /// allowed) onto its round-start chain. O(1) per slot: the chains are
    /// relinked, no message moves, and what was pending stays first.
    pub(crate) fn splice(&mut self, touched: &[u32]) {
        for &t in touched {
            let t = t as usize;
            let inc = std::mem::replace(&mut self.incoming[t], EMPTY_CHAIN);
            if inc.len == 0 {
                continue;
            }
            let chain = &mut self.chains[t];
            if chain.tail == NONE {
                *chain = inc;
            } else {
                self.pages[chain.tail as usize].next = inc.head;
                chain.tail = inc.tail;
                chain.len += inc.len;
            }
            self.total += inc.len as usize;
            self.fresh -= inc.len as usize;
        }
        debug_assert_eq!(self.fresh, 0, "a recipient was not logged");
    }

    /// Iterate `slot`'s `(sender id, message)` entries in delivery order.
    pub fn entries(&self, slot: usize) -> impl Iterator<Item = &(NodeId, M)> + '_ {
        let linked = |pi: &u32| *pi != NONE;
        std::iter::successors(Some(self.chains[slot].head).filter(linked), move |&pi| {
            Some(self.pages[pi as usize].next).filter(linked)
        })
        .flat_map(|pi| self.pages[pi as usize].msgs.iter())
    }

    /// Consume `slot`'s inbox: drop every message, return its pages to the
    /// free list, and report how many messages were consumed. O(pages of
    /// the chain) — an empty inbox returns at once, writing nothing — with
    /// no per-message bookkeeping: nothing outside the chain records where
    /// a message waits. Departures pay instead (`retire`): one scan of the
    /// dirty slots' inboxes, O(dirty slots + messages pending in them),
    /// shared by every departure until the next delivery.
    pub fn consume(&mut self, slot: usize) -> usize {
        let chain = self.chains[slot];
        if chain.len == 0 {
            return 0;
        }
        let mut pi = chain.head;
        while pi != NONE {
            let pg = &mut self.pages[pi as usize];
            pg.msgs.clear();
            let next = pg.next;
            pg.next = NONE;
            self.warm.push(pi);
            pi = next;
        }
        self.chains[slot] = EMPTY_CHAIN;
        self.total -= chain.len as usize;
        chain.len as usize
    }

    /// Remove every message in `slot`'s inbox sent by `sender` (the
    /// channel-died purge of a departure), preserving the relative order of
    /// survivors. Returns the number removed.
    ///
    /// An inbox holding nothing from `sender` is only scanned and never
    /// allocates. Otherwise the chain is drained into a rebuild buffer,
    /// keeping survivors in order, and re-appended: O(inbox len), the bound
    /// of a flat compaction.
    pub fn purge_sender(&mut self, slot: usize, sender: NodeId) -> usize {
        if !self.entries(slot).any(|&(from, _)| from == sender) {
            return 0;
        }
        let mut kept = Vec::with_capacity(self.len(slot));
        let mut pi = self.chains[slot].head;
        while pi != NONE {
            let pg = &mut self.pages[pi as usize];
            kept.extend(pg.msgs.drain(..).filter(|&(from, _)| from != sender));
            pi = pg.next;
        }
        let removed = self.consume(slot) - kept.len();
        for (from, msg) in kept {
            self.push(slot, from, msg);
        }
        removed
    }

    /// A departure of host `id` from `slot`: its own inbox is consumed, and
    /// every message it sent that is still pending dies in its recipient's
    /// inbox. Only a dirty slot can hold mail (see the module docs), so
    /// `dirty` — the agenda's dirty list — names every inbox the purge must
    /// visit.
    ///
    /// The first departure since the last append scans those inboxes and
    /// allocates only for one holding a message from `id`. Departures come
    /// in bursts (a crash wave, a churn epoch), so the second one indexes
    /// every pending message by sender in the same scan, and it and the
    /// rest of the burst purge just their recipients: k departures cost
    /// O(pending · log pending + their own messages), not O(k · pending).
    /// Between appends the index can only over-approximate (purges and
    /// consumption remove messages, joins add none), and `purge_sender`
    /// checks each inbox it is pointed at.
    pub(crate) fn retire(&mut self, slot: usize, id: NodeId, dirty: &[u32]) {
        debug_assert_eq!(self.fresh, 0, "a departure inside a round");
        self.consume(slot);
        if self.total == 0 {
            return;
        }
        let Some(mut index) = self.departures.take() else {
            for &t in dirty {
                self.purge_sender(t as usize, id);
            }
            self.departures = Some(Vec::new());
            return;
        };
        if index.is_empty() {
            for &t in dirty {
                index.extend(self.entries(t as usize).map(|&(from, _)| (from, t)));
            }
            index.sort_unstable();
            index.dedup();
        }
        let first = index.partition_point(|&(from, _)| from < id);
        for &(_, t) in index[first..].iter().take_while(|&&(from, _)| from == id) {
            self.purge_sender(t as usize, id);
        }
        self.departures = Some(index);
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
            self.pages[pi as usize].msgs = Vec::new();
            self.cold.push(pi);
        }
    }

    /// Bytes of heap owned by the arena's own structures: the page slab,
    /// page buffers, both chain tables, the gather buffer and the free
    /// lists. Heap owned by the
    /// messages themselves (e.g. boxed payload variants) is invisible to
    /// the arena and not counted.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let page_bufs: usize = self
            .pages
            .iter()
            .map(|p| p.msgs.capacity() * size_of::<(NodeId, M)>())
            .sum();
        let index = self.departures.as_ref().map_or(0, Vec::capacity);
        self.pages.capacity() * size_of::<Page<M>>()
            + page_bufs
            + (self.chains.capacity() + self.incoming.capacity()) * size_of::<Chain>()
            + self.gather.capacity() * size_of::<(NodeId, M)>()
            + (self.warm.capacity() + self.cold.capacity()) * size_of::<u32>()
            + index * size_of::<(NodeId, u32)>()
    }

    /// Cross-check the inboxes against the membership and the dirty set: a
    /// free slot holds no mail, a slot with mail is dirty — the invariant
    /// [`Self::retire`] relies on, so a snapshot that breaks it must not
    /// restore into a runtime whose departures would leave ghost messages
    /// behind — and every sender is a member (a departure purged the rest).
    pub(crate) fn validate(&self, topo: &Topology, agenda: &Agenda) -> Result<(), SnapshotError> {
        for i in (0..self.chains.len()).filter(|&i| !self.is_empty(i)) {
            let why = if !topo.is_live(NodeSlot::new(i)) {
                "free slot holds pending messages"
            } else if !agenda.is_dirty(i) {
                "pending messages but the slot is not dirty"
            } else if self.entries(i).any(|&(from, _)| !topo.contains(from)) {
                "pending message from a non-member"
            } else {
                continue;
            };
            return Err(SnapshotError::Corrupt(format!("slot {i}: {why}")));
        }
        Ok(())
    }
}

impl<M: Persist> InboxArena<M> {
    /// Serialize `slot`'s pending messages. The entries alone suffice:
    /// chain iteration is delivery order.
    pub(crate) fn save_slot(&self, slot: usize, w: &mut Writer) {
        w.seq(self.len(slot));
        for e in self.entries(slot) {
            e.save(w);
        }
    }

    /// Restore what [`Self::save_slot`] wrote ([`Self::validate`] checks
    /// it against the membership once every section is read).
    pub(crate) fn load_slot(
        &mut self,
        slot: usize,
        r: &mut Reader<'_>,
    ) -> Result<(), SnapshotError> {
        for _ in 0..r.seq()? {
            let (from, msg) = <(NodeId, M)>::load(r)?;
            self.push(slot, from, msg);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_view(a: &InboxArena<u64>, slot: usize) -> Vec<(NodeId, u64)> {
        a.entries(slot).copied().collect()
    }

    #[test]
    fn push_view_preserves_order_across_pages() {
        let mut a = InboxArena::<u64>::new(2);
        let n = PAGE_CAP * 3 + 5;
        for k in 0..n {
            a.push(0, k as NodeId, k as u64 * 10);
        }
        assert_eq!(a.len(0), n);
        assert_eq!(a.total_len(), n);
        assert!(a.is_empty(1));
        let want: Vec<(NodeId, u64)> = (0..n).map(|k| (k as NodeId, k as u64 * 10)).collect();
        assert_eq!(drain_view(&a, 0), want);
        let taken = a.take(0);
        assert_eq!(taken.msgs(), &want[..]);
        assert!(matches!(taken, Taken::Gathered(_)));
        assert_eq!((a.total_len(), a.warm.len()), (0, 4), "pages freed at once");
        a.give_back(taken);
        assert_eq!(a.gather.capacity(), n, "the gather buffer keeps its room");
    }

    /// A single-page inbox is lent out whole: its page leaves the free
    /// lists while the step runs, another slot's mail goes elsewhere, and
    /// the page comes back warm with its buffer.
    #[test]
    fn take_lends_a_single_page_and_gets_it_back() {
        let mut a = InboxArena::<u64>::new(2);
        a.push(0, 9, 99);
        let taken = a.take(0);
        assert!(matches!(taken, Taken::Page(0, _)));
        assert_eq!(taken.msgs(), &[(9, 99)]);
        assert!(a.is_empty(0) && a.warm.is_empty());
        a.post(1, 9, 100);
        assert_eq!(a.pages.len(), 2, "the lent page is not reused");
        a.give_back(taken);
        assert_eq!(a.warm, vec![0]);
        assert_eq!(a.pages[0].msgs.capacity(), PAGE_CAP);
        assert!(
            a.gather.capacity() == 0,
            "no gather on the single-page path"
        );
        assert!(matches!(a.take(0), Taken::Empty));
    }

    /// New mail is invisible until the splice, which puts it behind what
    /// was already pending, across page boundaries on both sides.
    #[test]
    fn splice_appends_new_mail_behind_carried_mail() {
        let mut a = InboxArena::<u64>::new(3);
        let carried = PAGE_CAP + 3;
        for k in 0..carried {
            a.push(0, 1, k as u64);
        }
        for k in 0..PAGE_CAP * 2 {
            a.post(0, 2, 1000 + k as u64);
            a.post(1, 2, k as u64);
        }
        assert_eq!((a.len(0), a.total_len()), (carried, carried));
        a.splice(&[1, 0, 1, 2]);
        assert_eq!(a.total_len(), carried + PAGE_CAP * 4);
        let got = drain_view(&a, 0);
        assert_eq!(got.len(), carried + PAGE_CAP * 2);
        assert!(got[..carried].iter().all(|&(from, _)| from == 1));
        assert!(got[carried..]
            .iter()
            .map(|&(_, m)| m)
            .eq(1000..1000 + PAGE_CAP as u64 * 2));
        // The spliced chain stays appendable.
        a.push(0, 3, 7);
        assert_eq!(drain_view(&a, 0).last(), Some(&(3, 7)));
        assert!(a.is_empty(2));
    }

    #[test]
    fn consume_recycles_pages_through_the_free_list() {
        let mut a = InboxArena::<u64>::new(4);
        for slot in 0..4 {
            for k in 0..PAGE_CAP * 2 {
                a.push(slot, k as NodeId, 0);
            }
        }
        let slab_pages = a.pages.len();
        assert_eq!(slab_pages, 8);
        for slot in 0..4 {
            assert_eq!(a.consume(slot), PAGE_CAP * 2);
        }
        assert_eq!(a.total_len(), 0);
        // Refill: reuses freed pages, slab does not grow.
        for slot in 0..4 {
            for k in 0..PAGE_CAP * 2 {
                a.push(slot, k as NodeId, 0);
            }
        }
        assert_eq!(a.pages.len(), slab_pages);
    }

    #[test]
    fn consuming_an_empty_inbox_touches_no_page() {
        let mut a = InboxArena::<u64>::new(2);
        a.push(1, 7, 70);
        assert_eq!(a.consume(1), 1);
        assert_eq!(a.warm, vec![0]);
        assert_eq!(a.consume(0), 0);
        assert_eq!(a.consume(1), 0);
        assert_eq!((a.warm.len(), a.total_len()), (1, 0));
        a.push(0, 8, 80);
        assert_eq!(drain_view(&a, 0), vec![(8, 80)]);
    }

    #[test]
    fn purge_sender_filters_in_order_single_and_multi_page() {
        for n in [PAGE_CAP / 2, PAGE_CAP * 4 + 3] {
            let mut a = InboxArena::<u64>::new(1);
            for k in 0..n {
                a.push(0, (k % 3) as NodeId, k as u64);
            }
            let removed = a.purge_sender(0, 1);
            let expect_removed = (0..n).filter(|k| k % 3 == 1).count();
            assert_eq!(removed, expect_removed, "n={n}");
            let got = drain_view(&a, 0);
            let want: Vec<(NodeId, u64)> = (0..n)
                .filter(|k| k % 3 != 1)
                .map(|k| ((k % 3) as NodeId, k as u64))
                .collect();
            assert_eq!(got, want, "n={n}");
            assert_eq!(a.total_len(), n - expect_removed);
            // A sender with nothing pending leaves the inbox as it was.
            assert_eq!(a.purge_sender(0, 1), 0);
            assert_eq!(drain_view(&a, 0), want, "n={n}");
        }
    }

    #[test]
    fn purge_to_empty_frees_the_chain() {
        let mut a = InboxArena::<u64>::new(1);
        for k in 0..5 {
            a.push(0, 7, k);
        }
        assert_eq!(a.purge_sender(0, 7), 5);
        assert!(a.is_empty(0));
        assert_eq!(a.total_len(), 0);
        assert!(drain_view(&a, 0).is_empty());
    }

    /// `retire` visits exactly the slots it is handed — the runtime hands
    /// it the dirty list, which is why delivery must mark the recipient.
    #[test]
    fn retire_purges_the_listed_inboxes_only() {
        let mut a = InboxArena::<u64>::new(4);
        a.push(0, 3, 30);
        for slot in [1, 2] {
            a.push(slot, 5, 50);
            a.push(slot, 3, 31);
        }
        a.retire(3, 3, &[1, 3]);
        assert_eq!(drain_view(&a, 0), vec![(3, 30)], "slot 0 was not listed");
        assert_eq!(drain_view(&a, 1), vec![(5, 50)]);
        assert_eq!(drain_view(&a, 2), vec![(5, 50), (3, 31)], "not listed");
        assert_eq!(a.total_len(), 4);
    }

    /// A burst of departures shares one sender index, and an append drops
    /// it: a message appended after the index was built is still purged.
    #[test]
    fn departure_bursts_share_one_index_that_an_append_drops() {
        let mut a = InboxArena::<u64>::new(5);
        let dirty = [0, 1, 2, 3];
        for slot in 0..3 {
            for from in [10, 11, 12] {
                a.push(slot, from, u64::from(from));
            }
        }
        a.retire(4, 10, &dirty); // the first of the burst: a plain scan
        assert_eq!(a.departures.as_deref(), Some(&[][..]));
        a.retire(4, 11, &dirty); // the second indexes what is pending
        assert_eq!(a.departures.as_ref().map(Vec::len), Some(6));
        for slot in 0..3 {
            assert_eq!(drain_view(&a, slot), vec![(12, 12)]);
        }
        a.push(3, 13, 13);
        assert!(a.departures.is_none(), "an append drops the index");
        a.retire(4, 12, &dirty);
        a.retire(4, 13, &dirty);
        assert_eq!(a.total_len(), 0);
    }

    #[test]
    fn maybe_shrink_bounds_retained_capacity() {
        let mut a = InboxArena::<u64>::new(1024);
        // Peak: fill every slot with two pages' worth.
        for slot in 0..1024 {
            for k in 0..PAGE_CAP * 2 {
                a.push(slot, k as NodeId, 0);
            }
        }
        let peak = a.heap_bytes();
        for slot in 0..1024 {
            a.consume(slot);
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
        a.push(3, 1, 42);
        assert_eq!(drain_view(&a, 3), vec![(1, 42)]);
    }

    #[test]
    fn ensure_slots_grows_and_keeps_existing_chains() {
        let mut a = InboxArena::<u64>::new(2);
        a.push(1, 4, 44);
        a.ensure_slots(10);
        assert_eq!(a.slot_count(), 10);
        assert!(a.is_empty(9));
        assert_eq!(drain_view(&a, 1), vec![(4, 44)]);
    }
}
