//! Node programs, the per-round execution context, and the emit stage that
//! runs one against the other.

use crate::arena::InboxArena;
use crate::snapshot::{Persist, Reader, SnapshotError, Writer};
use crate::topology::{NodeSlot, Topology};
use crate::NodeId;
use rand::rngs::SmallRng;

/// A distributed node program. All nodes run the same program type (the
/// paper's uniform-program assumption); per-node behavior derives from the
/// node's identifier and state.
pub trait Program {
    /// Message type exchanged by the protocol.
    type Msg: Clone + std::fmt::Debug;

    /// Execute one synchronous round: read the inbox and the neighbor
    /// snapshot from `ctx`, update local state, and emit sends / topology
    /// actions through `ctx`.
    fn step(&mut self, ctx: &mut Ctx<'_, Self::Msg>);

    /// Whether the node has no pending work of its own — the **quiescence
    /// contract** of the scheduler subsystem (see [`crate::sched`]).
    ///
    /// Returning `true` is a promise: *given an empty inbox and an unchanged
    /// neighborhood, my next `step` is a no-op* — no sends, no links or
    /// unlinks, no PRNG draws, no wake-up requests, and `is_quiescent`
    /// stays `true`. The runtime acts on this: the
    /// [`crate::sched::ActivityDriven`] scheduler skips quiescent nodes
    /// that nothing external has touched, and the per-round quiescent count
    /// is recorded in [`crate::RoundMetrics`] under every scheduler
    /// (including the default [`crate::sched::Synchronous`], where it is
    /// purely observational). Legality is still judged by an external
    /// goal predicate ([`crate::monitor`]), as in the paper's global
    /// legal-configuration predicate — quiescence is about *activity*, not correctness.
    ///
    /// A program with periodic work (beacons, timeouts) must either return
    /// `false` while that work is pending or request re-activation with
    /// [`Ctx::wake_me_in`]. Violations of the contract are caught in debug
    /// runs by the runtime's shadow-step check
    /// ([`crate::Runtime::enable_shadow_check`]).
    fn is_quiescent(&self) -> bool {
        false
    }

    /// Bytes of per-node state the program keeps out of line, behind a
    /// pointer in its slot: [`crate::Runtime::mem_footprint`] counts them
    /// once per live node beside the inline `size_of`. A program whose
    /// state is all inline keeps the default 0.
    const RECORD_BYTES: usize = 0;
}

/// One message leaving the emit phase, with everything the later stages
/// need precomputed at emission: the recipient *slot* (the id → slot hash
/// lookup happens in [`Ctx::send`], against the round-start member map —
/// membership never changes mid-step) and the sender id the recipient's
/// inbox records.
pub(crate) struct Outgoing<M> {
    pub(crate) to_slot: u32,
    /// The sender's slot: read only by the transit wheel, whose snapshot
    /// layout and id-at-slot arrival guard record both endpoints' slots.
    pub(crate) from_slot: u32,
    pub(crate) from: NodeId,
    pub(crate) msg: M,
}

/// Record of one activation with an effect, in the [`EmitSink`]: which
/// slot ran, and how far its outputs extend into the sink's flat
/// `sends`/`unlinks` arrays (cumulative end offsets — record `k`'s sends
/// are `sends[slots[k-1].sends_end..slots[k].sends_end]`). Links carry
/// both endpoints explicitly, so the flat `links` array needs no per-slot
/// attribution. An activation without an effect (see
/// [`EmitSink::activate`]) emitted nothing, so skipping its record moves
/// no offset.
#[derive(Clone, Copy)]
pub(crate) struct SlotRec {
    pub(crate) slot: u32,
    pub(crate) id: NodeId,
    pub(crate) sends_end: u32,
    pub(crate) unlinks_end: u32,
    /// Model violations the node attempted (lenient mode only; strict mode
    /// panics at the attempt).
    pub(crate) violations: u64,
    /// Smallest delay requested via [`Ctx::wake_me_in`], if any.
    pub(crate) wake_in: Option<u64>,
    /// [`Program::is_quiescent`] right after the step.
    pub(crate) quiescent: bool,
}

/// The emit stage: runs the selected programs against the round-start
/// snapshot, in selection order, and holds what they emit. [`Ctx`] appends
/// straight into these arrays, validated at emit time against the
/// round-start snapshot — illegal actions are never enqueued — and the
/// apply stages then walk them once, in the same order. All buffers are
/// recycled across rounds.
pub(crate) struct EmitSink<M> {
    /// One record per activation with an effect, in selection order.
    pub(crate) slots: Vec<SlotRec>,
    /// Messages to send; recipients are validated round-start neighbors.
    pub(crate) sends: Vec<Outgoing<M>>,
    /// Introductions `(a, b)`, both in the acting node's closed
    /// neighborhood (the overlay-model edge creation rule).
    pub(crate) links: Vec<(NodeId, NodeId)>,
    /// Deletions of incident edges `(acting node, v)`.
    pub(crate) unlinks: Vec<NodeId>,
    /// Gather scratch for multi-page inboxes (see [`crate::arena::InboxArena::view`]);
    /// the single-page common case borrows the page directly and never
    /// touches this.
    inbox_buf: Vec<(NodeId, M)>,
}

impl<M> Default for EmitSink<M> {
    fn default() -> Self {
        Self {
            slots: Vec::new(),
            sends: Vec::new(),
            links: Vec::new(),
            unlinks: Vec::new(),
            inbox_buf: Vec::new(),
        }
    }
}

/// What every activation of a round reads and nothing writes until the
/// emit stage is over: the round-start snapshot.
pub(crate) struct RoundStart<'a, M> {
    pub(crate) round: u64,
    pub(crate) strict: bool,
    pub(crate) topo: &'a Topology,
    pub(crate) inboxes: &'a InboxArena<M>,
    /// The agenda's per-slot quiescence flags, which only the apply walk
    /// after the emit writes.
    pub(crate) quiescent: &'a [bool],
}

impl<M: Clone> EmitSink<M> {
    /// Run the selected programs, in selection order, into the emptied
    /// sink. `selection` holds distinct live slots (the agenda's sanitizer
    /// establishes this).
    pub(crate) fn run<P: Program<Msg = M>>(
        &mut self,
        at: &RoundStart<'_, M>,
        selection: &[NodeSlot],
        programs: &mut [Option<P>],
        rngs: &mut [SmallRng],
    ) {
        self.slots.clear();
        self.sends.clear();
        self.links.clear();
        self.unlinks.clear();
        for &s in selection {
            let i = s.index();
            let prog = programs[i].as_mut().expect("selected slot is live");
            self.activate(at, i, prog, &mut rngs[i]);
        }
    }

    /// Run one activation of the live slot `i` against the round-start
    /// snapshot, appending what it emits and, if it had an effect, its
    /// [`SlotRec`]. An activation has none when it sent, linked and
    /// unlinked nothing, made no violation, asked for no wake-up, and ended
    /// quiescent in a slot the agenda already flags quiescent: its record's
    /// settle, unlink walk and violation count would all be no-ops, which
    /// is the whole cost of a silent host's round.
    fn activate<P: Program<Msg = M>>(
        &mut self,
        at: &RoundStart<'_, M>,
        i: usize,
        prog: &mut P,
        rng: &mut SmallRng,
    ) {
        let emitted = (self.sends.len(), self.links.len(), self.unlinks.len());
        let rec = self.step(at, i, prog, rng);
        let silent = emitted == (self.sends.len(), self.links.len(), self.unlinks.len())
            && rec.violations == 0
            && rec.wake_in.is_none()
            && rec.quiescent
            && at.quiescent[i];
        if !silent {
            self.slots.push(rec);
        }
    }

    /// Step the live slot `i` against the round-start snapshot, appending
    /// what it emits, and return its record whatever it did (the
    /// shadow-step check audits every record).
    pub(crate) fn step<P: Program<Msg = M>>(
        &mut self,
        at: &RoundStart<'_, M>,
        i: usize,
        prog: &mut P,
        rng: &mut SmallRng,
    ) -> SlotRec {
        let slot = NodeSlot::new(i);
        let id = at.topo.id_at(slot).expect("selected slot is live");
        let mut ctx = Ctx {
            id,
            round: at.round,
            strict: at.strict,
            slot: i as u32,
            topo: at.topo,
            neighbors: at.topo.neighbors_at(slot),
            inbox: at.inboxes.view(i, &mut self.inbox_buf),
            rng,
            sends: &mut self.sends,
            links: &mut self.links,
            unlinks: &mut self.unlinks,
            violations: 0,
            wake_in: None,
        };
        prog.step(&mut ctx);
        let (violations, wake_in) = (ctx.violations, ctx.wake_in);
        SlotRec {
            slot: i as u32,
            id,
            sends_end: self.sends.len() as u32,
            unlinks_end: self.unlinks.len() as u32,
            violations,
            wake_in,
            quiescent: prog.is_quiescent(),
        }
    }

    pub(crate) fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.slots.capacity() * size_of::<SlotRec>()
            + self.sends.capacity() * size_of::<Outgoing<M>>()
            + self.links.capacity() * size_of::<(NodeId, NodeId)>()
            + self.unlinks.capacity() * size_of::<NodeId>()
            + self.inbox_buf.capacity() * size_of::<(NodeId, M)>()
    }
}

/// Per-round execution context handed to [`Program::step`]. Emitted actions
/// land directly in the round's emit sink; nothing is staged. The
/// [`Ctx::inbox`] and [`Ctx::neighbors`] slices borrow the round-start
/// snapshot for `'a`, not the context, so a program holds them across its
/// own sends and links without copying: nothing an activation emits can
/// move them, because emission only appends to the emit sink.
pub struct Ctx<'a, M> {
    /// This node's identifier.
    pub id: NodeId,
    /// The current round number (starts at 0).
    pub round: u64,
    strict: bool,
    slot: u32,
    topo: &'a Topology,
    neighbors: &'a [NodeId],
    inbox: &'a [(NodeId, M)],
    rng: &'a mut SmallRng,
    sends: &'a mut Vec<Outgoing<M>>,
    links: &'a mut Vec<(NodeId, NodeId)>,
    unlinks: &'a mut Vec<NodeId>,
    violations: u64,
    wake_in: Option<u64>,
}

impl<'a, M> Ctx<'a, M> {
    /// Sorted neighbor identifiers at the start of this round.
    pub fn neighbors(&self) -> &'a [NodeId] {
        self.neighbors
    }

    /// The adjacency stamp of this node's slot at the start of this round
    /// ([`Topology::stamp_at`]): unmoved since an earlier round means
    /// [`Ctx::neighbors`] is the list that round saw. The cheap half of
    /// [`NeighborBaseline::watch`].
    #[inline]
    pub fn neighbors_stamp(&self) -> u64 {
        self.topo.stamp_at(NodeSlot::new(self.slot as usize))
    }

    /// True iff `v` was a neighbor at the start of this round.
    pub fn is_neighbor(&self, v: NodeId) -> bool {
        self.neighbors.binary_search(&v).is_ok()
    }

    /// Every message delivered to this node since its last activation, as
    /// `(sender, payload)` pairs in delivery order. Under the synchronous
    /// daemon on the ideal network that is exactly what the neighbors sent
    /// last round; a partial daemon or a delaying [`crate::NetModel`] may
    /// have queued several rounds' worth, some from senders that are no
    /// longer neighbors (messages from departed hosts are purged).
    pub fn inbox(&self) -> &'a [(NodeId, M)] {
        self.inbox
    }

    /// The node's private deterministic PRNG.
    pub fn rng(&mut self) -> &mut SmallRng {
        self.rng
    }

    /// Send `msg` to neighbor `to`. It lands in `to`'s inbox at the end of
    /// this round on the ideal network, or after the [`crate::NetModel`]'s
    /// delay (or never, when lost); `to` reads it at its next activation
    /// after that. Sending to a
    /// non-neighbor is a protocol bug: it panics in strict mode and is
    /// dropped (and counted) in lenient mode. Validation is against the
    /// round-start snapshot, so it fuses into emission — the runtime applies
    /// enqueued sends without re-checking.
    pub fn send(&mut self, to: NodeId, msg: M) {
        if !self.is_neighbor(to) {
            if self.strict {
                panic!(
                    "round {}: node {} sent to non-neighbor {to}",
                    self.round, self.id
                );
            }
            self.violations += 1;
            return;
        }
        let to_slot = self
            .topo
            .slot_of(to)
            .expect("round-start neighbor is a member");
        self.sends.push(Outgoing {
            to_slot: to_slot.index() as u32,
            from_slot: self.slot,
            from: self.id,
            msg,
        });
    }

    /// Introduce `a` and `b`: create the edge `(a, b)`. Both must be in this
    /// node's closed neighborhood `N(self) ∪ {self}` at round start — the
    /// overlay-model edge-creation rule. An illegal introduction panics in
    /// strict mode and is dropped (and counted) in lenient mode.
    pub fn link(&mut self, a: NodeId, b: NodeId) {
        let in_closed = |v: NodeId| v == self.id || self.neighbors.binary_search(&v).is_ok();
        if a == b || !in_closed(a) || !in_closed(b) {
            if self.strict {
                panic!(
                    "round {}: node {} attempted illegal link ({a}, {b}) \
                     outside its closed neighborhood",
                    self.round, self.id
                );
            }
            self.violations += 1;
            return;
        }
        self.links.push((a, b));
    }

    /// Delete the incident edge `(self, v)` (unilateral, per the model).
    pub fn unlink(&mut self, v: NodeId) {
        self.unlinks.push(v);
    }

    /// Request re-activation after `rounds` rounds even if nothing else
    /// (messages, topology changes) touches this node in the meantime —
    /// the timer half of the quiescence contract (see
    /// [`Program::is_quiescent`]). `0` is treated as `1` (the next round);
    /// repeated calls keep the smallest delay. Under the default
    /// [`crate::sched::Synchronous`] scheduler every node runs every round
    /// anyway, so the request is a no-op there; under
    /// [`crate::sched::ActivityDriven`] it is the only way for a quiescent
    /// node to schedule future work.
    pub fn wake_me_in(&mut self, rounds: u64) {
        let d = rounds.max(1);
        self.wake_in = Some(self.wake_in.map_or(d, |w| w.min(d)));
    }
}

/// The neighbor list a settled host watches: any change to it is the
/// host's wake-up. Checking it every round is the whole per-round cost of
/// a silent overlay, so the list carries the [`Ctx::neighbors_stamp`] at
/// which it was last found equal to the live list: while that stamp has
/// not moved the list is known unchanged without reading either copy;
/// once it has, the full compare decides and, on equality, re-confirms
/// the new stamp. The verdict is always the full compare's.
///
/// The stamp is not simulated state: writing a new list resets it, it is
/// never saved, and a loaded baseline starts unconfirmed, so the bytes are
/// exactly those of an `Option<Vec<NodeId>>` and the first step after a
/// restore compares in full. `Debug` shows the list alone.
#[derive(Clone, Default)]
pub struct NeighborBaseline {
    list: Option<Box<[NodeId]>>,
    /// The stamp `list` was last confirmed at; 0 (never issued) when not
    /// confirmed.
    stamp: u64,
}

impl NeighborBaseline {
    /// True iff a list is set.
    pub fn is_set(&self) -> bool {
        self.list.is_some()
    }

    /// The list, if set.
    pub fn list(&self) -> Option<&[NodeId]> {
        self.list.as_deref()
    }

    /// Forget the list.
    pub fn clear(&mut self) {
        *self = Self::default();
    }

    /// Set the list, unconfirmed: the next [`NeighborBaseline::watch`]
    /// compares in full.
    pub fn set(&mut self, neighbors: &[NodeId]) {
        self.list = Some(neighbors.into());
        self.stamp = 0;
    }

    /// This round's check, what a settled host does each round: true iff
    /// the list equals [`Ctx::neighbors`]. An unset list is taken from this
    /// round (and reads unchanged). An unmoved stamp answers without a
    /// compare; debug builds compare anyway and panic on a disagreement, so
    /// every debug run also checks the topology's stamps.
    pub fn watch<M>(&mut self, io: &Ctx<'_, M>) -> bool {
        let Some(list) = &self.list else {
            self.set(io.neighbors());
            return true;
        };
        let stamp = io.neighbors_stamp();
        if self.stamp == stamp {
            debug_assert!(
                **list == *io.neighbors(),
                "node {}: adjacency stamp {stamp} unmoved, but the neighbor list changed",
                io.id
            );
            return true;
        }
        let same = **list == *io.neighbors();
        if same {
            self.stamp = stamp;
        }
        same
    }
}

impl std::fmt::Debug for NeighborBaseline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.list.fmt(f)
    }
}

/// The bytes of the `Option<Vec<NodeId>>` the baseline replaced.
impl Persist for NeighborBaseline {
    fn save(&self, w: &mut Writer) {
        w.bool(self.list.is_some());
        if let Some(list) = &self.list {
            w.seq(list.len());
            for &v in list.iter() {
                w.u32(v);
            }
        }
    }

    fn load(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok(Self {
            list: Option::<Vec<NodeId>>::load(r)?.map(Vec::into_boxed_slice),
            stamp: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::persist_struct;
    use crate::{Checkpoint, Config, Runtime};

    /// A settled host reduced to its watch. Each step records whether the
    /// stamp alone could answer and what the watch decided, checks that
    /// verdict against the full compare the stamp replaced, and re-takes
    /// the baseline after a change.
    #[derive(Clone, Debug, Default)]
    struct Watcher {
        base: NeighborBaseline,
        /// `(answered by the stamp, unchanged)` at the last step.
        last: Option<(bool, bool)>,
    }

    impl Program for Watcher {
        type Msg = ();
        fn step(&mut self, io: &mut Ctx<'_, ()>) {
            let fast = self.base.is_set() && self.base.stamp == io.neighbors_stamp();
            let reference = self
                .base
                .list
                .as_deref()
                .is_none_or(|l| l == io.neighbors());
            let unchanged = self.base.watch(io);
            assert_eq!(
                unchanged, reference,
                "node {}: the stamp changed a verdict",
                io.id
            );
            if !unchanged {
                self.base.set(io.neighbors());
            }
            self.last = Some((fast, unchanged));
        }
    }

    persist_struct!(Watcher { base, last });

    /// A 5-node ring with the chord (0, 2); every node's baseline is set,
    /// then confirmed, so from here on every step reads the stamp.
    fn settled(seed: u64) -> Runtime<Watcher> {
        let edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)];
        let mut rt = Runtime::new(
            Config::seeded(seed),
            (0..5).map(|v| (v, Watcher::default())),
            edges,
        );
        rt.run(2);
        rt
    }

    fn last(rt: &Runtime<Watcher>, v: NodeId) -> (bool, bool) {
        rt.program(v).last.expect("stepped")
    }

    #[test]
    fn baseline_is_24_bytes_and_saves_as_an_option_vec() {
        assert_eq!(std::mem::size_of::<NeighborBaseline>(), 24);
        assert_eq!(
            std::mem::size_of::<NeighborBaseline>(),
            std::mem::size_of::<Option<Vec<NodeId>>>()
        );
        for list in [None, Some(vec![]), Some(vec![3, 30, 41])] {
            let mut base = NeighborBaseline::default();
            if let Some(l) = &list {
                base.set(l);
            }
            base.stamp = 77; // never travels
            let (mut a, mut b) = (Writer::new(), Writer::new());
            base.save(&mut a);
            list.save(&mut b);
            let bytes = a.into_bytes();
            assert_eq!(bytes, b.into_bytes());
            let back = NeighborBaseline::load(&mut Reader::new(&bytes)).unwrap();
            assert_eq!(back.list.as_deref(), list.as_deref());
            assert_eq!(back.stamp, 0, "a loaded baseline starts unconfirmed");
        }
    }

    #[test]
    fn stamp_answers_only_after_a_confirming_compare() {
        let mut rt = Runtime::new(
            Config::seeded(1),
            (0..3).map(|v| (v, Watcher::default())),
            [(0, 1), (1, 2)],
        );
        rt.step();
        assert_eq!(last(&rt, 1), (false, true), "baseline taken");
        rt.step();
        assert_eq!(last(&rt, 1), (false, true), "a new list is compared once");
        rt.step();
        assert_eq!(last(&rt, 1), (true, true));
    }

    /// An edge removed and re-added leaves an equal list under a new
    /// stamp: both ends take the full compare, find no change, and answer
    /// from the stamp again the round after.
    #[test]
    fn edge_flap_takes_the_full_compare() {
        let mut rt = settled(2);
        rt.run(1);
        assert!((0..5).all(|v| last(&rt, v) == (true, true)));
        assert!(rt.adversarial_remove_edge(0, 2));
        assert!(rt.adversarial_add_edge(2, 0));
        rt.step();
        for v in 0..5 {
            let touched = v == 0 || v == 2;
            assert_eq!(last(&rt, v), (!touched, true), "node {v}");
        }
        rt.step();
        assert!((0..5).all(|v| last(&rt, v) == (true, true)));
        // A real change is reported to exactly its two ends.
        assert!(rt.adversarial_remove_edge(0, 2));
        rt.step();
        for v in 0..5 {
            let touched = v == 0 || v == 2;
            assert_eq!(last(&rt, v), (!touched, !touched), "node {v}");
        }
    }

    /// A program carried into another runtime or another slot meets a
    /// stamp it was never confirmed at, so it compares in full — whether
    /// the list there happens to be equal or not.
    #[test]
    fn clones_never_read_unchanged_from_the_stamp() {
        let a = settled(3);
        let mut b = settled(3);
        for v in 0..5 {
            let p = a.program(v).clone();
            b.corrupt_node(v, move |q| *q = p);
        }
        b.step();
        assert!(
            (0..5).all(|v| last(&b, v) == (false, true)),
            "equal lists, compared"
        );
        // Same runtime, another slot: node 0's baseline moved to node 3.
        let p = b.program(0).clone();
        b.corrupt_node(3, move |q| *q = p);
        b.step();
        assert_eq!(last(&b, 3), (false, false));
        assert_eq!(last(&b, 0), (true, true));
    }

    /// A rollback installs programs decoded from the checkpoint and a
    /// restore decodes them all; either way the next step compares.
    #[test]
    fn rollback_and_restore_compare_on_the_next_step() {
        let mut rt = settled(4);
        let ck = Checkpoint::capture(&rt);
        rt.run(1);
        assert_eq!(ck.rollback(&mut rt, &[1, 4]), 2);
        rt.step();
        for v in 0..5 {
            let rolled = v == 1 || v == 4;
            assert_eq!(last(&rt, v), (!rolled, true), "node {v}");
        }
        let mut back: Runtime<Watcher> =
            Runtime::restore_snapshot(&rt.save_snapshot(), Config::seeded(4)).unwrap();
        back.step();
        assert!((0..5).all(|v| last(&back, v) == (false, true)));
        back.step();
        assert!((0..5).all(|v| last(&back, v) == (true, true)));
    }
}
