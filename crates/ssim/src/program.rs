//! Node programs, the per-round execution context, and the emit stage that
//! runs one against the other.

use crate::arena::InboxArena;
use crate::metrics::PerfCounters;
use crate::par::{self, ThreadPool};
use crate::sched::ChunkPlan;
use crate::topology::{NodeSlot, Topology};
use crate::NodeId;
use rand::rngs::SmallRng;

/// A distributed node program. All nodes run the same program type (the
/// paper's uniform-program assumption); per-node behavior derives from the
/// node's identifier and state.
pub trait Program: Send {
    /// Message type exchanged by the protocol.
    type Msg: Clone + Send + Sync + std::fmt::Debug;

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
    /// purely observational). Legality is still judged by external
    /// [`crate::monitor`]s, as in the paper's global legal-configuration
    /// predicate — quiescence is about *activity*, not correctness.
    ///
    /// A program with periodic work (beacons, timeouts) must either return
    /// `false` while that work is pending or request re-activation with
    /// [`Ctx::wake_me_in`]. Violations of the contract are caught in debug
    /// runs by the runtime's shadow-step check
    /// ([`crate::Runtime::enable_shadow_check`]).
    fn is_quiescent(&self) -> bool {
        false
    }
}

/// One message leaving the emit phase, with everything the later stages
/// need precomputed on the emitting worker: the recipient *slot* (the
/// id → slot hash lookup happens in [`Ctx::send`], in parallel, against the
/// round-start member map — membership never changes mid-step) and the
/// sender id the recipient's inbox records.
pub(crate) struct Outgoing<M> {
    pub(crate) to_slot: u32,
    /// The sender's slot: read only by the transit wheel, whose snapshot
    /// layout and id-at-slot arrival guard record both endpoints' slots.
    pub(crate) from_slot: u32,
    pub(crate) from: NodeId,
    pub(crate) msg: M,
}

/// Per-activation record in a [`ChunkSink`]: which slot ran, and how far
/// its outputs extend into the sink's flat `sends`/`unlinks` arrays
/// (cumulative end offsets — activation `k`'s sends are
/// `sends[slots[k-1].sends_end..slots[k].sends_end]`). Links carry both
/// endpoints explicitly, so the flat `links` array needs no per-slot
/// attribution.
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

/// Where one chunk of the selection writes its emit-phase output: [`Ctx`]
/// appends straight into these arrays, validated at emit time against the
/// round-start snapshot — illegal actions are never enqueued. The executing
/// worker owns the sink exclusively for the chunk's duration (see
/// [`par::for_each_selected_chunks_mut2`]); the driver then walks sinks in
/// chunk order, which — chunks being ascending selection ranges —
/// reproduces the exact selection-order apply a sequential run performs.
/// All buffers are recycled across rounds.
pub(crate) struct ChunkSink<M> {
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

impl<M> Default for ChunkSink<M> {
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
}

impl<M: Clone> ChunkSink<M> {
    /// Empty the sink for the next round, keeping every allocation.
    fn reset(&mut self) {
        self.slots.clear();
        self.sends.clear();
        self.links.clear();
        self.unlinks.clear();
    }

    /// Run one activation of the live slot `i` against the round-start
    /// snapshot, appending what it emits and its [`SlotRec`].
    pub(crate) fn activate<P: Program<Msg = M>>(
        &mut self,
        at: &RoundStart<'_, M>,
        i: usize,
        prog: &mut P,
        rng: &mut SmallRng,
    ) {
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
        self.slots.push(SlotRec {
            slot: i as u32,
            id,
            sends_end: self.sends.len() as u32,
            unlinks_end: self.unlinks.len() as u32,
            violations,
            wake_in,
            quiescent: prog.is_quiescent(),
        });
    }

    fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.slots.capacity() * size_of::<SlotRec>()
            + self.sends.capacity() * size_of::<Outgoing<M>>()
            + self.links.capacity() * size_of::<(NodeId, NodeId)>()
            + self.unlinks.capacity() * size_of::<NodeId>()
            + self.inbox_buf.capacity() * size_of::<(NodeId, M)>()
    }
}

/// Parallelism break-even: rounds whose estimated emit cost
/// (`selection × EWMA ns/activation`) falls below this run on the driving
/// thread. A pool wake-up costs low-tens of microseconds, and splitting
/// work that barely covers the wake cost gains nothing even on real
/// cores — so the threshold sits well above break-even: small-network
/// rounds (e.g. 256-node gossip, ~25 µs) stay sequential, protocol-weight
/// rounds (hundreds of ns per activation) parallelize.
const PAR_THRESHOLD_NS: f64 = 50_000.0;

/// The emit stage: runs the selected programs against the round-start
/// snapshot, each chunk of the selection writing its own [`ChunkSink`],
/// and owns what decides *where* that runs — the persistent pool (created
/// once per [`crate::Config`], so parallel rounds spawn no threads) and the
/// auto-sequential heuristic. Neither is ever observable in results: both
/// paths fill bit-identical sinks.
pub(crate) struct Emitter<M> {
    /// Recycled per-chunk sinks (reset each round, capacity kept); only the
    /// first [`ChunkPlan::chunks`] are active in a given round.
    sinks: Vec<ChunkSink<M>>,
    /// The selection→chunk plan of the current round (recycled).
    plan: ChunkPlan,
    /// `None` runs every round on the driving thread.
    pool: Option<ThreadPool>,
    /// [`crate::Config::force_parallel`]: skip the heuristic.
    force_parallel: bool,
    /// EWMA of measured emit cost per activation (`0.0` until the first
    /// non-empty round).
    est_ns_per_act: f64,
    /// Rounds whose emit ran on the pool / stayed on the driving thread.
    par_rounds: u64,
    seq_rounds: u64,
}

impl<M: Clone + Send + Sync> Emitter<M> {
    /// `threads == 1` means no pool.
    pub(crate) fn new(threads: usize, force_parallel: bool) -> Self {
        Self {
            sinks: Vec::new(),
            plan: ChunkPlan::default(),
            pool: (threads > 1).then(|| ThreadPool::new(threads)),
            force_parallel,
            est_ns_per_act: 0.0,
            par_rounds: 0,
            seq_rounds: 0,
        }
    }

    pub(crate) fn threads(&self) -> usize {
        self.pool.as_ref().map_or(1, ThreadPool::threads)
    }

    /// The auto-sequential heuristic: is a round of `activations` expected
    /// to pay for a pool generation?
    fn worth_pool(&self, activations: usize) -> bool {
        self.pool.is_some()
            && (self.force_parallel || activations as f64 * self.est_ns_per_act > PAR_THRESHOLD_NS)
    }

    /// Run the selected programs. The selection is cut into contiguous
    /// chunks (see [`ChunkPlan`] — sized by activation count, so sparse
    /// post-convergence rounds build few chunks) and each chunk's output
    /// lands in its own sink, indexed by **chunk**, not thread: the sink
    /// contents are therefore independent of which worker ran the chunk,
    /// or whether a pool ran at all. The cost per activation is measured
    /// (EWMA) to drive the heuristic — rounds cheaper than a pool
    /// generation stay on this thread.
    ///
    /// `selection` must hold distinct live slots (the agenda's sanitizer
    /// establishes this), which is what lets the pool hand out `&mut`
    /// chunks.
    pub(crate) fn run<P: Program<Msg = M>>(
        &mut self,
        at: &RoundStart<'_, M>,
        selection: &[NodeSlot],
        programs: &mut [Option<P>],
        rngs: &mut [SmallRng],
    ) {
        self.plan.rebuild(selection.len(), self.threads());
        let nchunks = self.plan.chunks();
        if self.sinks.len() < nchunks {
            self.sinks.resize_with(nchunks, ChunkSink::default);
        }
        for sink in &mut self.sinks[..nchunks] {
            sink.reset();
        }
        let used_pool = !selection.is_empty() && self.worth_pool(selection.len());
        let start = std::time::Instant::now();
        let emit_one =
            |i: usize, prog: &mut Option<P>, rng: &mut SmallRng, sink: &mut ChunkSink<M>| {
                sink.activate(at, i, prog.as_mut().expect("selected slot is live"), rng);
            };
        match &self.pool {
            // Chunks are claimed atomically (work stealing, for selections
            // with skewed per-slot costs); reads go only to the shared
            // round-start snapshot, writes go only to the claimed chunk's
            // slots and sink (slots distinct by the sanitizer, sinks
            // distinct by chunk index), so every thread schedule produces
            // the same sink contents.
            Some(pool) if used_pool => par::for_each_selected_chunks_mut2(
                pool,
                selection,
                self.plan.bounds(),
                &mut self.sinks[..nchunks],
                programs,
                rngs,
                emit_one,
            ),
            _ => {
                for (c, sink) in self.sinks[..nchunks].iter_mut().enumerate() {
                    for &s in &selection[self.plan.range(c)] {
                        let i = s.index();
                        emit_one(i, &mut programs[i], &mut rngs[i], sink);
                    }
                }
            }
        }
        if !selection.is_empty() {
            let obs = start.elapsed().as_nanos() as f64 / selection.len() as f64;
            self.est_ns_per_act = if self.est_ns_per_act == 0.0 {
                obs
            } else {
                0.75 * self.est_ns_per_act + 0.25 * obs
            };
            if used_pool {
                self.par_rounds += 1;
            } else {
                self.seq_rounds += 1;
            }
        }
    }

    /// This round's sinks, in chunk order — chunks are ascending contiguous
    /// selection ranges, so chunk-order concatenation IS selection order,
    /// whatever the chunk count.
    pub(crate) fn sinks(&self) -> &[ChunkSink<M>] {
        &self.sinks[..self.plan.chunks()]
    }

    pub(crate) fn total_sends(&self) -> usize {
        self.sinks().iter().map(|s| s.sends.len()).sum()
    }

    /// Each chunk's activation records beside its sends, moving the sends
    /// out.
    pub(crate) fn drain_chunks(
        &mut self,
    ) -> impl Iterator<Item = (&[SlotRec], std::vec::Drain<'_, Outgoing<M>>)> {
        let nchunks = self.plan.chunks();
        self.sinks[..nchunks].iter_mut().map(|s| {
            let ChunkSink { slots, sends, .. } = s;
            (&slots[..], sends.drain(..))
        })
    }

    /// Pool wake-ups and par/seq round totals since construction (`syncs`
    /// is zero when sequential).
    pub(crate) fn perf_counters(&self) -> PerfCounters {
        PerfCounters {
            syncs: self.pool.as_ref().map_or(0, ThreadPool::syncs),
            par_rounds: self.par_rounds,
            seq_rounds: self.seq_rounds,
        }
    }

    pub(crate) fn heap_bytes(&self) -> usize {
        self.sinks.iter().map(ChunkSink::heap_bytes).sum()
    }
}

/// Per-round execution context handed to [`Program::step`]. Emitted actions
/// land directly in the executing chunk's sink; nothing is staged. The
/// [`Ctx::inbox`] and [`Ctx::neighbors`] slices borrow the round-start
/// snapshot for `'a`, not the context, so a program holds them across its
/// own sends and links without copying: nothing an activation emits can
/// move them, because emission only appends to the chunk sink.
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
