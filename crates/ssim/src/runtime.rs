//! The synchronous round engine, including the dynamic-membership surface:
//! hosts can [`Runtime::join`], [`Runtime::leave`], or [`Runtime::crash`]
//! mid-run, so churn is a first-class schedulable perturbation (see
//! [`crate::fault`] and [`crate::scenario`]) instead of something examples
//! fake with edge rewires.
//!
//! Storage is slot-based (see [`crate::topology::NodeSlot`]): every host
//! occupies a stable slot in the per-node arrays (program, RNG, inboxes)
//! for its whole lifetime, and departures free the slot for reuse.
//! Membership events therefore cost O(deg) — no id shifting, no index
//! rebuild — and steady-state rounds are allocation-free: inboxes are
//! recycled (cleared at consumption, never dropped), emit output lands in
//! recycled per-chunk sinks (reset each round, capacity kept), and
//! model-rule validation is fused into action emission against the
//! round-start snapshot.
//!
//! Which nodes actually step each round is decided by a pluggable
//! [`Scheduler`] (see [`crate::sched`]): the default [`sched::Synchronous`]
//! daemon reproduces the paper's model exactly, while
//! [`sched::ActivityDriven`] steps only the runtime's *dirty set* — nodes
//! with pending messages, changed neighborhoods, armed timers, or
//! self-reported pending work — making post-convergence rounds O(activity)
//! instead of O(n). Messages to nodes a daemon skips stay queued in their
//! inboxes until the node is next activated; delivery is delayed, never
//! dropped.

use crate::arena::InboxArena;
use crate::metrics::{PerfCounters, RoundMetrics, RunMetrics};
use crate::monitor::{Monitor, MonitorOutcome, RunVerdict, Verdict};
use crate::net::NetModel;
use crate::par::{self, ThreadPool};
use crate::program::{Actions, Ctx, Program};
use crate::sched::{self, SchedView, Scheduler};
use crate::snapshot::{self, Persist, Reader, SnapshotError, Writer};
use crate::topology::{NodeSlot, Topology};
use crate::workload::{
    Key, Request, RequestOutcome, RouteStep, Router, Workload, WorkloadConfig, WorkloadView,
};
use crate::NodeId;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

/// Runtime configuration: model strictness, determinism seed, metrics
/// granularity, and the parallel execution switch.
///
/// A `Config` is plain data (`Copy`); build one with [`Config::default`] or
/// [`Config::seeded`] and refine it with the builder methods. The doctest on
/// [`Config::threads`] shows the `--threads N`-style parallel setup.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Panic on model violations (illegal links, sends to non-neighbors).
    /// When false, violations are dropped and counted in the metrics.
    pub strict: bool,
    /// Execute the emit phase of each round on a [`crate::par::ThreadPool`]
    /// owned by the runtime. Results are **bit-identical** to sequential
    /// execution at any thread count: programs read only the round-start
    /// snapshot and write only their own slot's scratch, and actions are
    /// applied in slot order on the driving thread either way.
    pub parallel: bool,
    /// Worker threads for parallel execution; `0` means "use
    /// [`std::thread::available_parallelism`]". Ignored unless
    /// [`Config::parallel`] is set. See [`Config::effective_threads`].
    pub threads: usize,
    /// Skip the auto-sequential heuristic: when a pool exists, every
    /// non-empty round's emit phase runs on it, however cheap the round.
    /// By default the runtime estimates the per-activation cost (an EWMA
    /// of measured emit time) and keeps rounds below a parallelism
    /// break-even threshold on the driving thread — tiny networks are
    /// faster sequentially than a pool wakeup. Either choice produces
    /// bit-identical results; this flag (like `threads`) only moves
    /// wall-clock time, which is why snapshots don't save it. Benchmarks
    /// that *measure* the parallel path set it.
    pub force_parallel: bool,
    /// Rounds per pool **hot window** in the batched run drivers
    /// ([`Runtime::run`], [`Runtime::run_monitored`]): the pool spins instead of parking
    /// between the rounds of a window, amortizing the condvar wake/barrier
    /// cost across the window (see [`crate::par`]). Monitors and legality
    /// checks still run on the driving thread at every round boundary.
    /// Single [`Runtime::step`] calls are unaffected. `0` behaves as `1`.
    pub batch_rounds: u32,
    /// Seed for all node PRNGs (node `v` gets `seed ⊕ splitmix(v)`).
    pub seed: u64,
    /// Record per-round metric rows (otherwise only aggregates are kept).
    pub record_rounds: bool,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            strict: true,
            parallel: false,
            threads: 0,
            force_parallel: false,
            batch_rounds: 16,
            seed: 0xC0FFEE,
            record_rounds: true,
        }
    }
}

impl Config {
    /// Default config with a given seed.
    pub fn seeded(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }

    /// Enable parallel round execution with the default thread count
    /// (available parallelism). Worth it from roughly 1k nodes; tiny
    /// networks are faster sequentially because a round is cheaper than a
    /// pool wakeup.
    pub fn parallel(mut self) -> Self {
        self.parallel = true;
        self
    }

    /// Set the thread count for parallel execution, enabling it when
    /// `n != 1` (`n == 0` means "available parallelism", `n == 1` is plain
    /// sequential execution). The choice never changes results — only
    /// wall-clock time — so experiments may sweep it freely.
    ///
    /// ```
    /// use ssim::{Config, Ctx, Program, Runtime};
    ///
    /// struct Gossip;
    /// impl Program for Gossip {
    ///     type Msg = u32;
    ///     fn step(&mut self, ctx: &mut Ctx<'_, u32>) {
    ///         for k in 0..ctx.neighbors().len() {
    ///             let v = ctx.neighbors()[k];
    ///             ctx.send(v, 1);
    ///         }
    ///     }
    /// }
    ///
    /// let ring = |cfg: Config| {
    ///     let mut rt = Runtime::new(
    ///         cfg,
    ///         (0..32u32).map(|i| (i, Gossip)),
    ///         (0..32u32).map(|i| (i, (i + 1) % 32)),
    ///     );
    ///     rt.run(8);
    ///     rt.metrics().total_messages
    /// };
    ///
    /// // `--threads 2`-style setup: a two-thread pool per runtime …
    /// let parallel = ring(Config::seeded(7).threads(2));
    /// // … is bit-identical to the sequential run.
    /// assert_eq!(parallel, ring(Config::seeded(7)));
    /// ```
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n;
        self.parallel = n != 1;
        self
    }

    /// Builder-style [`Config::force_parallel`]: always use the pool (skip
    /// the auto-sequential heuristic). Never changes results, only where
    /// the emit phase runs.
    pub fn always_parallel(mut self) -> Self {
        self.force_parallel = true;
        self
    }

    /// Builder-style [`Config::batch_rounds`]: rounds per pool hot window
    /// in the batched run drivers (`0` behaves as `1`).
    pub fn batch_rounds(mut self, k: u32) -> Self {
        self.batch_rounds = k;
        self
    }

    /// The thread count a runtime built from this config will actually use:
    /// `1` when parallel execution is off, the detected available
    /// parallelism when [`Config::threads`] is `0`, the configured count
    /// otherwise.
    pub fn effective_threads(&self) -> usize {
        if !self.parallel {
            1
        } else if self.threads == 0 {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        } else {
            self.threads
        }
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// Audits one skipped node: returns `Some(reason)` if its `step` would
/// *not* have been a no-op. Built by [`Runtime::enable_shadow_check`] (the
/// closure captures the `P: Clone` capability so `step` itself needs no
/// extra bounds).
type ShadowFn<P> = Box<
    dyn Fn(
            &P,
            NodeId,
            u64,
            &[NodeId],
            &[(NodeId, <P as Program>::Msg)],
            &SmallRng,
        ) -> Option<String>
        + Send,
>;

/// Mark slot `i` dirty: flag it and enqueue it exactly once.
#[inline]
fn mark(dirty: &mut [bool], list: &mut Vec<u32>, i: usize) {
    if !dirty[i] {
        dirty[i] = true;
        list.push(i as u32);
    }
}

/// The erased routing capability of the attached workload: captures the
/// `P: Router` bound at [`Runtime::attach_workload`] time so `step` itself
/// needs no extra bounds (same trick as [`ShadowFn`]).
type RouteFn<P> = Box<dyn Fn(&P, Key, &[NodeId]) -> RouteStep + Send>;

/// Parallelism break-even: rounds whose estimated emit cost
/// (`selection × EWMA ns/activation`) falls below this run on the driving
/// thread. A pool generation costs single-digit microseconds even hot and
/// low-tens cold, and splitting work that barely covers the wake cost
/// gains nothing even on real cores — so the threshold sits well above
/// break-even: small-network rounds (e.g. 256-node gossip, ~25 µs) stay
/// sequential, protocol-weight rounds (hundreds of ns per activation)
/// parallelize.
const PAR_THRESHOLD_NS: f64 = 50_000.0;

/// Minimum sends in a round before inbox delivery is worth a second pool
/// generation (the sharded scatter pass); below it the driver delivers
/// inline during the bookkeeping walk.
const PAR_DELIVERY_MIN: usize = 256;

/// One message leaving the emit phase, with everything the apply phase
/// needs precomputed on the worker: recipient and sender *slots* (the
/// id → slot hash lookups happen in parallel, not on the driver) and the
/// sender id the recipient's inbox records.
struct Outgoing<M> {
    to_slot: u32,
    from_slot: u32,
    from: NodeId,
    msg: M,
}

/// Per-subsystem heap bytes reported by [`Runtime::mem_footprint`].
///
/// Capacity-based: each figure counts allocated storage, so a subsystem
/// that balloons at a churn peak and never gives the memory back is
/// visible here even when its *occupied* state is small again.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemFootprint {
    /// Graph storage: the adjacency segment arena plus the slot, index and
    /// dense-mirror arrays.
    pub topology: usize,
    /// The slot-parallel program array (inline `size_of`-based; heap owned
    /// by protocol state is not visible to the engine).
    pub programs: usize,
    /// The paged inbox arena: pages, chains, cursors and free lists.
    pub inboxes: usize,
    /// The in-transit wheel: parked messages, bucket slack, and the
    /// recycled-bucket pool.
    pub transit: usize,
    /// Attached workload state: per-slot request queues and holder index.
    pub workload: usize,
    /// Engine bookkeeping: RNGs, dirty set, selection scratch, timers,
    /// per-chunk sinks, bandwidth pacing.
    pub engine: usize,
}

impl MemFootprint {
    /// Sum over every subsystem.
    pub fn total(&self) -> usize {
        self.topology + self.programs + self.inboxes + self.transit + self.workload + self.engine
    }
}

/// One delayed message parked in the runtime's in-transit buffer (see
/// [`crate::net`]), scheduled for a future round's delivery. Both endpoint
/// *ids* ride along with the slots: departures purge the buffer eagerly,
/// and delivery re-checks id-at-slot anyway (the same guard the timer heap
/// uses), so a recycled slot can never receive a ghost message.
struct Transit<M> {
    to_slot: u32,
    from_slot: u32,
    from: NodeId,
    to: NodeId,
    msg: M,
}

/// Per-activation record in a [`ChunkSink`]: which slot ran, and how far
/// its outputs extend into the sink's flat `sends`/`unlinks` arrays
/// (cumulative end offsets — activation `k`'s sends are
/// `sends[slots[k-1].sends_end..slots[k].sends_end]`). Links carry both
/// endpoints explicitly, so the flat `links` array needs no per-slot
/// attribution.
#[derive(Clone, Copy)]
struct SlotRec {
    slot: u32,
    id: NodeId,
    sends_end: u32,
    unlinks_end: u32,
    violations: u64,
    wake_in: Option<u64>,
    quiescent: bool,
}

/// Where one chunk of the selection writes its emit-phase output. The
/// executing worker owns the sink exclusively for the chunk's duration
/// (see [`par::for_each_selected_chunks_mut2`]); the driver then walks
/// sinks in chunk order, which — chunks being ascending selection ranges —
/// reproduces the exact selection-order apply a sequential run performs.
/// All buffers are recycled across rounds.
struct ChunkSink<M> {
    /// Per-activation [`Actions`] staging for [`Ctx`] (cleared per slot,
    /// capacity kept); its contents are flattened into the arrays below
    /// right after each `step` returns.
    scratch: Actions<M>,
    slots: Vec<SlotRec>,
    sends: Vec<Outgoing<M>>,
    links: Vec<(NodeId, NodeId)>,
    unlinks: Vec<NodeId>,
    /// Gather scratch for multi-page inboxes (see [`InboxArena::view`]);
    /// the single-page common case borrows the page directly and never
    /// touches this.
    inbox_buf: Vec<(NodeId, M)>,
}

impl<M> Default for ChunkSink<M> {
    fn default() -> Self {
        Self {
            scratch: Actions::default(),
            slots: Vec::new(),
            sends: Vec::new(),
            links: Vec::new(),
            unlinks: Vec::new(),
            inbox_buf: Vec::new(),
        }
    }
}

impl<M> ChunkSink<M> {
    /// Empty the sink for the next round, keeping every allocation.
    fn reset(&mut self) {
        self.scratch.clear();
        self.slots.clear();
        self.sends.clear();
        self.links.clear();
        self.unlinks.clear();
    }
}

/// Runtime-side state of an attached [`Workload`] (see [`crate::workload`]):
/// the generator, the erased router, and the per-slot request queues —
/// slot-parallel with the runtime's other per-node arrays.
struct Traffic<P: Program> {
    gen: Box<dyn Workload>,
    cfg: WorkloadConfig,
    route: RouteFn<P>,
    /// The workload's private deterministic RNG (seeded from the run seed).
    rng: SmallRng,
    /// Per-slot requests currently held at that host.
    queues: Vec<Vec<Request>>,
    next_id: u64,
    /// Recycled injection buffer.
    inject_buf: Vec<(NodeId, Key)>,
    /// Per-slot "this queue is non-empty" flag, kept exactly in sync with
    /// `queues` at every round boundary; `has_req[i]` ⟺ `i ∈ holders`.
    has_req: Vec<bool>,
    /// Unordered index of slots with non-empty queues — request
    /// advancement iterates this instead of re-scanning every selected
    /// slot's queue, so serving cost scales with the in-flight count, not
    /// the host count.
    holders: Vec<u32>,
    /// Recycled per-round "holders to serve" buffer.
    holder_scratch: Vec<u32>,
}

impl<P: Program> Traffic<P> {
    /// Rebuild the holder index from the queues (used when attaching over
    /// restored queues, which may arrive non-empty).
    fn rebuild_holders(&mut self) {
        self.has_req.clear();
        self.has_req.resize(self.queues.len(), false);
        self.holders.clear();
        for (i, q) in self.queues.iter().enumerate() {
            if !q.is_empty() {
                self.has_req[i] = true;
                self.holders.push(i as u32);
            }
        }
    }
}

/// Traffic state restored from a snapshot, parked until the caller
/// re-attaches a workload: the generator and router are closures/trait
/// objects and cannot be serialized, so [`Runtime::restore_snapshot`]
/// stashes the serializable part here and the next
/// [`Runtime::attach_workload`] call marries it to a freshly constructed
/// generator of the same type.
struct PendingTraffic {
    wcfg: WorkloadConfig,
    rng: SmallRng,
    next_id: u64,
    queues: Vec<Vec<Request>>,
    /// `Workload::name()` of the generator that was attached at save time —
    /// re-attachment with a different generator type is a loud panic, not a
    /// silent divergence.
    gen_name: String,
    /// Opaque [`Workload::save_state`] bytes for [`Workload::load_state`].
    gen_bytes: Vec<u8>,
}

/// The simulator: a set of node programs, the overlay topology, and mailboxes.
///
/// All per-node state lives in slot-parallel arrays addressed by the
/// topology's [`NodeSlot`] assignment; the id → slot map is consulted only
/// at the membership boundary (join/leave/crash, id-keyed accessors) and at
/// message delivery.
///
/// Each round, the installed [`Scheduler`] (default:
/// [`sched::Synchronous`]; see [`Runtime::set_scheduler`]) selects the
/// nodes to activate; only those run the emit phase and have their actions
/// applied. The runtime maintains the dirty set the
/// [`sched::ActivityDriven`] daemon feeds on under *every* scheduler, so
/// schedulers can be swapped mid-run (e.g. by a scenario event).
///
/// With [`Config::parallel`], the runtime owns a persistent
/// [`crate::par::ThreadPool`] (created once, reused every round) that
/// executes the emit phase of each [`Runtime::step`] over work-stealing
/// chunks of the selection, each chunk writing into its own sink, and —
/// on send-heavy rounds — shards inbox delivery over the same pool by
/// recipient range. Everything whose *order* is observable (edge
/// mutation, dirty marking, timers, metrics) runs on the driving thread
/// by walking the sinks in canonical selection order, so results are
/// bit-identical to sequential execution at any thread count.
pub struct Runtime<P: Program> {
    cfg: Config,
    topo: Topology,
    /// Per-slot program; `None` for free slots.
    programs: Vec<Option<P>>,
    /// Per-slot PRNG (stale for free slots; reseeded from `(seed, id)` at
    /// join, so a re-joining host replays its private stream).
    rngs: Vec<SmallRng>,
    /// Per-slot pending messages: delivered sends accumulate here and are
    /// consumed (cleared) when the slot is activated. Under the synchronous
    /// daemon every inbox is consumed every round, so a message sent in
    /// round `i` is read in round `i + 1` and never later; under partial
    /// daemons messages wait for their recipient's next activation. Storage is a paged slab
    /// shared by every slot (see [`crate::arena`]) — each page carries the
    /// sender-*slot* mirror alongside the messages, so consumption
    /// releases `sent_to` entries without id → slot hashing and idle slots
    /// hold no buffers at all.
    inboxes: InboxArena<P::Msg>,
    /// Per-chunk recycled emit sinks (reset each round, capacity kept);
    /// only the first [`sched::ChunkPlan::chunks`] entries are active in a
    /// given round. See [`ChunkSink`].
    sinks: Vec<ChunkSink<P::Msg>>,
    /// The selection→chunk plan of the current round (recycled).
    plan: sched::ChunkPlan,
    /// EWMA of measured emit cost per activation, feeding the
    /// auto-sequential heuristic (`0.0` until the first non-empty round).
    /// Never observable in results — it only picks *where* the emit phase
    /// runs, and both paths are bit-identical.
    est_ns_per_act: f64,
    /// Rounds whose emit phase ran on the pool / stayed sequential (see
    /// [`Runtime::perf_counters`]).
    par_rounds: u64,
    seq_rounds: u64,
    /// Recycled recipient-range bounds for the sharded delivery pass.
    delivery_cuts: Vec<usize>,
    /// Per-slot target slots holding *unconsumed* messages from this slot
    /// (one entry per pending message) — lets a departure purge its
    /// in-flight messages in O(pending) instead of scanning every inbox.
    /// Entries are added at send and removed when the recipient consumes.
    sent_to: Vec<Vec<u32>>,
    /// Messages currently pending (sitting in `inboxes`).
    inflight: u64,
    round: u64,
    metrics: RunMetrics,
    /// Builds programs for hosts that join mid-run (registered by protocol
    /// runtime builders; required for spawning joins from faults/scenarios).
    spawner: Option<Box<dyn FnMut(NodeId) -> P + Send>>,
    /// The persistent worker pool for parallel rounds; `None` runs
    /// sequentially. Created once at construction (per [`Config`]) and
    /// reused by every `step`, so parallel rounds spawn no threads.
    pool: Option<ThreadPool>,
    /// The installed daemon (see [`crate::sched`]).
    sched: Box<dyn Scheduler>,
    /// Per-slot dirty flag; `dirty[i]` ⟺ slot `i` appears in `dirty_list`
    /// exactly once. Flags are cleared only when the slot is activated (or
    /// found dead during the per-round purge), so wake-ups survive daemons
    /// that skip dirty nodes.
    dirty: Vec<bool>,
    /// Queue of dirty slots (unordered; sorted into `dirty_sorted` each
    /// round for the scheduler view).
    dirty_list: Vec<u32>,
    /// Recycled sorted snapshot handed to [`Scheduler::select`].
    dirty_sorted: Vec<NodeSlot>,
    /// Recycled selection buffer.
    selection: Vec<NodeSlot>,
    /// Per-slot "selected this round" scratch (doubles as the dedup filter
    /// for sloppy schedulers and the skip detector for the shadow check).
    selected: Vec<bool>,
    /// Per-slot quiescence flag (mirrors `Program::is_quiescent`, updated
    /// when the node steps, joins, or is corrupted).
    quiescent: Vec<bool>,
    /// Live nodes currently flagged quiescent — O(1) quiescence reads.
    quiescent_count: usize,
    /// Armed [`Ctx::wake_me_in`] timers: `(due_round, slot, id)` min-heap.
    /// The id guards against slot recycling (a timer of a departed host
    /// must not wake the slot's next occupant).
    timers: BinaryHeap<Reverse<(u64, u32, NodeId)>>,
    /// The installed network-conditions model (see [`crate::net`]);
    /// [`NetModel::ideal`] — the paper's reliable synchronous channel, and
    /// a zero-overhead fast path — unless [`Runtime::set_net_model`] says
    /// otherwise.
    net: NetModel,
    /// The network layer's dedicated RNG. Drawn from **only on the driving
    /// thread, in canonical sink-merge order**, so loss/delay/duplication
    /// schedules are byte-identical at any thread count; its position is
    /// snapshot-covered.
    net_rng: SmallRng,
    /// In-transit buffer: delivery round → parked messages, appended in
    /// decision order. A `BTreeMap` so iteration (and thus drain and
    /// snapshot order) is canonical.
    transit: BTreeMap<u64, Vec<Transit<P::Msg>>>,
    /// Messages currently parked in `transit` — O(1) [`Runtime::is_silent`].
    transit_count: u64,
    /// Recycled transit buckets. Under a latency/jitter model every round
    /// drains one or more wheel buckets and opens new ones; without a pool
    /// that is one heap allocation per bucket per round, forever. Drained
    /// (and purge-emptied) buckets park here, capacity intact, and the next
    /// `net_deliver` reuses them.
    transit_pool: Vec<Vec<Transit<P::Msg>>>,
    /// Active partition: the sorted ids of one side of the cut. Channels
    /// crossing the cut drop their messages; edges and membership are
    /// untouched (contrast [`crate::fault::Fault::Crash`]).
    partition: Option<Vec<NodeId>>,
    /// Per-directed-channel bandwidth pacing state:
    /// `(from, to) → (next delivery round, deliveries scheduled in it)`.
    /// Only consulted when the model caps bandwidth; purged on departure.
    bw_state: BTreeMap<(NodeId, NodeId), (u64, u32)>,
    /// Debug-mode shadow-step auditor (see [`Runtime::enable_shadow_check`]).
    shadow: Option<ShadowFn<P>>,
    /// The attached request workload, if any (see
    /// [`Runtime::attach_workload`] and [`crate::workload`]).
    traffic: Option<Traffic<P>>,
    /// Request counters `(issued, completed, failed)` as of the last
    /// recorded round row — rows report deltas against this, so requests
    /// finished *between* rounds (a departure purge, a manual injection)
    /// are attributed to the next executed round and the per-row
    /// conservation law stays exact.
    req_reported: (u64, u64, u64),
    /// Traffic state restored from a snapshot, awaiting re-attachment (see
    /// [`Runtime::restore_snapshot`]). [`Runtime::step`] refuses to run
    /// while this is pending — continuing without the workload would
    /// silently diverge from the saved run.
    pending_traffic: Option<PendingTraffic>,
}

impl<P: Program> Runtime<P> {
    /// Create a runtime over `(id, program)` pairs and initial edges.
    ///
    /// # Panics
    /// Panics on duplicate ids or invalid edges.
    pub fn new(
        cfg: Config,
        nodes: impl IntoIterator<Item = (NodeId, P)>,
        edges: impl IntoIterator<Item = (NodeId, NodeId)>,
    ) -> Self {
        let (ids, programs): (Vec<NodeId>, Vec<P>) = nodes.into_iter().unzip();
        let topo = Topology::new(ids.iter().copied(), edges);
        let rngs = ids
            .iter()
            .map(|&v| SmallRng::seed_from_u64(cfg.seed ^ splitmix64(v as u64 + 1)))
            .collect();
        let n = ids.len();
        let metrics = RunMetrics::new(topo.max_degree());
        let threads = cfg.effective_threads();
        let pool = (threads > 1).then(|| ThreadPool::new(threads));
        // Every node starts dirty ("just spawned"): self-stabilization makes
        // no assumption about the initial state, so every program must run
        // at least once under any equivalence-claiming daemon.
        let quiescent: Vec<bool> = programs.iter().map(Program::is_quiescent).collect();
        let quiescent_count = quiescent.iter().filter(|&&q| q).count();
        Self {
            cfg,
            topo,
            programs: programs.into_iter().map(Some).collect(),
            rngs,
            inboxes: InboxArena::new(n),
            sinks: Vec::new(),
            plan: sched::ChunkPlan::default(),
            est_ns_per_act: 0.0,
            par_rounds: 0,
            seq_rounds: 0,
            delivery_cuts: Vec::new(),
            sent_to: std::iter::repeat_with(Vec::new).take(n).collect(),
            inflight: 0,
            round: 0,
            metrics,
            spawner: None,
            pool,
            sched: Box::new(sched::Synchronous),
            dirty: vec![true; n],
            dirty_list: (0..n as u32).collect(),
            dirty_sorted: Vec::with_capacity(n),
            selection: Vec::with_capacity(n),
            selected: vec![false; n],
            quiescent,
            quiescent_count,
            timers: BinaryHeap::new(),
            net: NetModel::ideal(),
            net_rng: SmallRng::seed_from_u64(cfg.seed ^ splitmix64(0x6E45_07ED)),
            transit: BTreeMap::new(),
            transit_count: 0,
            transit_pool: Vec::new(),
            partition: None,
            bw_state: BTreeMap::new(),
            shadow: None,
            traffic: None,
            req_reported: (0, 0, 0),
            pending_traffic: None,
        }
    }

    /// Number of threads executing each round's emit phase (`1` when
    /// sequential).
    pub fn threads(&self) -> usize {
        self.pool.as_ref().map_or(1, ThreadPool::threads)
    }

    /// Install a daemon (see [`crate::sched`]); the default is
    /// [`sched::Synchronous`]. Safe at any point of a run: the dirty set is
    /// maintained under every scheduler, so every live non-quiescent node
    /// (and every pending message or armed timer) survives the swap.
    pub fn set_scheduler(&mut self, s: Box<dyn Scheduler>) {
        self.sched = s;
    }

    /// Builder-style [`Runtime::set_scheduler`].
    #[must_use]
    pub fn with_scheduler(mut self, s: Box<dyn Scheduler>) -> Self {
        self.set_scheduler(s);
        self
    }

    /// Name of the installed scheduler (for reports).
    pub fn scheduler_name(&self) -> &str {
        self.sched.name()
    }

    /// Live nodes currently reporting [`Program::is_quiescent`] — O(1),
    /// tracked incrementally (updated when a node steps, joins, departs, or
    /// is corrupted).
    pub fn quiescent_nodes(&self) -> usize {
        self.quiescent_count
    }

    /// True iff every live node is quiescent — O(1). Combined with
    /// [`Runtime::is_silent`] this is the paper's silent-network condition;
    /// see [`crate::monitor::quiescence`].
    pub fn all_quiescent(&self) -> bool {
        self.quiescent_count == self.topo.node_count()
    }

    /// Slots currently queued for activation (dirty set plus armed timers)
    /// — the work the [`sched::ActivityDriven`] daemon would perform.
    pub fn pending_activations(&self) -> usize {
        self.dirty_list.len() + self.timers.len()
    }

    // ---- network conditions ------------------------------------------------

    /// Install a network-conditions model (see [`crate::net`]) from the
    /// next round on. Messages already in transit keep the delivery rounds
    /// they were scheduled with; only new sends see the new model. Safe at
    /// any point of a run and under any scheduler — all net decisions
    /// happen on the driving thread in canonical order, so results stay
    /// byte-identical at any thread count.
    ///
    /// # Panics
    /// Panics if the model's probabilities are outside `[0, 1]`.
    pub fn set_net_model(&mut self, m: NetModel) {
        if let Err(e) = m.validate() {
            panic!("set_net_model: {e}");
        }
        self.net = m;
    }

    /// Builder-style [`Runtime::set_net_model`].
    #[must_use]
    pub fn with_net_model(mut self, m: NetModel) -> Self {
        self.set_net_model(m);
        self
    }

    /// The installed network-conditions model.
    pub fn net_model(&self) -> NetModel {
        self.net
    }

    /// The network layer's message accounting — shorthand for
    /// `self.metrics().net`. The conservation law
    /// `sent + duplicated == delivered + dropped + in_transit` holds at
    /// every round boundary (debug-asserted by [`Runtime::step`]).
    pub fn net_stats(&self) -> crate::net::NetStats {
        self.metrics.net
    }

    /// Messages currently parked in the in-transit buffer (sent, not yet
    /// delivered to an inbox). O(1).
    pub fn in_transit(&self) -> u64 {
        self.transit_count
    }

    /// Per-subsystem heap accounting of the engine's resident state — the
    /// observable the memory-layout work optimizes (bytes/host at scale).
    ///
    /// Numbers are capacity-based (allocated, not merely occupied) so
    /// retention pathologies show up, and inline-state approximations
    /// (`size_of`-based for programs; protocol-private heap such as a
    /// boxed zipper payload is invisible from here) keep the walk O(state)
    /// with no per-node virtual calls.
    pub fn mem_footprint(&self) -> MemFootprint {
        use std::mem::size_of;
        let vec_bytes = |cap: usize, item: usize| cap * item;
        let transit_entry_overhead = size_of::<u64>() + size_of::<Vec<Transit<P::Msg>>>();
        let transit = self
            .transit
            .values()
            .map(|b| transit_entry_overhead + b.capacity() * size_of::<Transit<P::Msg>>())
            .sum::<usize>()
            + self
                .transit_pool
                .iter()
                .map(|b| b.capacity() * size_of::<Transit<P::Msg>>())
                .sum::<usize>();
        let workload = self.traffic.as_ref().map_or(0, |t| {
            t.queues
                .iter()
                .map(|q| size_of::<Vec<Request>>() + q.capacity() * size_of::<Request>())
                .sum::<usize>()
                + vec_bytes(t.has_req.capacity(), size_of::<bool>())
                + vec_bytes(t.holders.capacity(), size_of::<u32>())
                + vec_bytes(t.holder_scratch.capacity(), size_of::<u32>())
                + vec_bytes(t.inject_buf.capacity(), size_of::<(NodeId, Key)>())
        });
        let sinks = self
            .sinks
            .iter()
            .map(|s| {
                vec_bytes(s.slots.capacity(), size_of::<SlotRec>())
                    + vec_bytes(s.sends.capacity(), size_of::<Outgoing<P::Msg>>())
                    + vec_bytes(s.links.capacity(), size_of::<(NodeId, NodeId)>())
                    + vec_bytes(s.unlinks.capacity(), size_of::<NodeId>())
                    + vec_bytes(s.inbox_buf.capacity(), size_of::<(NodeId, P::Msg)>())
            })
            .sum::<usize>();
        let engine = vec_bytes(self.rngs.capacity(), size_of::<SmallRng>())
            + self
                .sent_to
                .iter()
                .map(|l| size_of::<Vec<u32>>() + l.capacity() * size_of::<u32>())
                .sum::<usize>()
            + vec_bytes(self.dirty.capacity(), size_of::<bool>())
            + vec_bytes(self.dirty_list.capacity(), size_of::<u32>())
            + vec_bytes(self.dirty_sorted.capacity(), size_of::<u32>())
            + vec_bytes(self.selection.capacity(), size_of::<NodeSlot>())
            + vec_bytes(self.selected.capacity(), size_of::<bool>())
            + vec_bytes(self.quiescent.capacity(), size_of::<bool>())
            + self.timers.len() * size_of::<Reverse<(u64, u32, NodeId)>>()
            + self.bw_state.len() * (size_of::<(NodeId, NodeId)>() + size_of::<(u64, u32)>())
            + sinks;
        MemFootprint {
            topology: self.topo.heap_bytes(),
            programs: self.programs.capacity() * size_of::<Option<P>>(),
            inboxes: self.inboxes.heap_bytes(),
            transit,
            workload,
            engine,
        }
    }

    /// Cut the network along a node bisection: `side` (deduplicated,
    /// membership not required) versus everyone else, and return how many
    /// *live* members the cut covers. A side with no live member cuts
    /// nothing and is a no-op (returns 0, any active cut stays). From now
    /// until [`Runtime::heal`], every message whose channel crosses the cut
    /// is dropped at the send decision, and messages already in transit
    /// across the cut are purged immediately — both counted in
    /// [`crate::net::NetStats::dropped_partition`]. Edges and membership
    /// are untouched (contrast [`crate::fault::Fault::Crash`]: a partition
    /// is a *communication* failure, not a topology change), so a legal
    /// overlay stays legal; what a partition breaks is progress that needs
    /// cross-cut messages — which also makes it the per-region isolation
    /// hook: quarantine a suspect zone, repair it, heal. Hosts with a
    /// cross-cut edge are marked dirty (their environment changed — a
    /// wake-up condition, like a neighborhood change). Calling again
    /// replaces the active cut.
    pub fn partition(&mut self, side: impl IntoIterator<Item = NodeId>) -> usize {
        let mut side: Vec<NodeId> = side.into_iter().collect();
        side.sort_unstable();
        side.dedup();
        let live = side.iter().filter(|&&v| self.topo.contains(v)).count();
        if live == 0 {
            return 0;
        }
        let mut purged = 0u64;
        let pool = &mut self.transit_pool;
        self.transit.retain(|_, bucket| {
            bucket.retain(|t| {
                let cut = side.binary_search(&t.from).is_ok() != side.binary_search(&t.to).is_ok();
                if cut {
                    purged += 1;
                }
                !cut
            });
            if bucket.is_empty() {
                Self::recycle_bucket(pool, std::mem::take(bucket));
                return false;
            }
            true
        });
        self.transit_count -= purged;
        self.metrics.net.dropped_partition += purged;
        self.metrics.net.in_transit = self.transit_count;
        self.mark_cut_endpoints(&side);
        self.partition = Some(side);
        live
    }

    /// Remove the active partition and return whether there was one. Hosts
    /// with a formerly-cross-cut edge are marked dirty so stabilization
    /// traffic resumes promptly under activity-driven daemons.
    pub fn heal(&mut self) -> bool {
        let Some(side) = self.partition.take() else {
            return false;
        };
        self.mark_cut_endpoints(&side);
        true
    }

    /// True iff a partition cut is active.
    pub fn partitioned(&self) -> bool {
        self.partition.is_some()
    }

    /// True iff the channel `a ↔ b` crosses the active partition cut.
    fn crosses_cut(&self, a: NodeId, b: NodeId) -> bool {
        match &self.partition {
            None => false,
            Some(side) => side.binary_search(&a).is_ok() != side.binary_search(&b).is_ok(),
        }
    }

    /// Mark every live host with an edge crossing `side`'s cut dirty.
    fn mark_cut_endpoints(&mut self, side: &[NodeId]) {
        for k in 0..self.topo.node_count() {
            let (id, slot) = self.topo.live_entry(k);
            let on_side = side.binary_search(&id).is_ok();
            if self
                .topo
                .neighbors_at(slot)
                .iter()
                .any(|&v| side.binary_search(&v).is_ok() != on_side)
            {
                mark(&mut self.dirty, &mut self.dirty_list, slot.index());
            }
        }
    }

    /// Bandwidth pacing: final delivery delay for a message on channel
    /// `from → to` that wants to arrive `delay` rounds out. With a cap of
    /// `c` messages/round/channel, excess deliveries slide to the
    /// channel's next free round — paced FIFO, never dropped (a capped
    /// channel therefore never reorders, whatever the jitter draws).
    fn pace(&mut self, from: NodeId, to: NodeId, round: u64, delay: u64) -> u64 {
        let cap = self.net.bandwidth;
        if cap == 0 {
            return delay;
        }
        let e = self.bw_state.entry((from, to)).or_insert((0, 0));
        let t = (round + delay).max(e.0);
        if t > e.0 {
            *e = (t, 0);
        }
        e.1 += 1;
        if e.1 >= cap {
            *e = (t + 1, 0);
        }
        t - round
    }

    /// Deliver a message now (extra delay 0: the classic next-round inbox
    /// path) or park it in the in-transit buffer for `round + delay`.
    fn net_deliver(&mut self, t: Transit<P::Msg>, delay: u64, round: u64, row: &mut RoundMetrics) {
        if delay == 0 {
            let ts = t.to_slot as usize;
            self.inboxes.push(ts, t.from, t.from_slot, t.msg);
            self.sent_to[t.from_slot as usize].push(t.to_slot);
            mark(&mut self.dirty, &mut self.dirty_list, ts);
            row.messages += 1;
            self.metrics.net.delivered += 1;
        } else {
            let pool = &mut self.transit_pool;
            self.transit
                .entry(round + delay)
                .or_insert_with(|| pool.pop().unwrap_or_default())
                .push(t);
            self.transit_count += 1;
        }
    }

    /// Park an emptied transit bucket for reuse, bounding both the pool
    /// depth and the capacity any parked bucket may pin (a burst bucket is
    /// dropped rather than kept hot — the capacity-retention policy the
    /// inbox arena applies to its cold pages).
    fn recycle_bucket(pool: &mut Vec<Vec<Transit<P::Msg>>>, mut bucket: Vec<Transit<P::Msg>>) {
        const POOL_DEPTH: usize = 32;
        const MAX_KEPT_CAP: usize = 4096;
        if pool.len() < POOL_DEPTH && bucket.capacity() <= MAX_KEPT_CAP {
            bucket.clear();
            pool.push(bucket);
        }
    }

    /// Arm the debug-mode **shadow-step check**: whenever the installed
    /// scheduler claims equivalence with the synchronous daemon (see
    /// [`Scheduler::claims_equivalence`]), every live node it *skips* is
    /// audited by running `step()` on a throwaway clone with its actual
    /// inbox and neighbor snapshot. The step must emit nothing (no sends,
    /// links, unlinks, violations, or wake-up requests), draw nothing from
    /// the PRNG, and leave the program quiescent; otherwise the round
    /// panics, naming the offending node — the program broke the
    /// [`Program::is_quiescent`] contract. Compiled out of release builds
    /// (`debug_assertions` only); protocol runtime builders arm it
    /// automatically in debug builds so the equivalence claim is
    /// continuously tested.
    pub fn enable_shadow_check(&mut self)
    where
        P: Clone,
    {
        self.shadow = Some(Box::new(|prog, id, round, neighbors, inbox, rng| {
            let mut clone = prog.clone();
            let mut rng2 = rng.clone();
            let mut acts = Actions::default();
            let mut ctx = Ctx::new(id, round, false, neighbors, inbox, &mut rng2, &mut acts);
            clone.step(&mut ctx);
            if !acts.sends.is_empty()
                || !acts.links.is_empty()
                || !acts.unlinks.is_empty()
                || acts.violations != 0
                || acts.wake_in.is_some()
            {
                return Some(format!(
                    "emitted {} send(s), {} link(s), {} unlink(s), {} violation(s), wake={:?}",
                    acts.sends.len(),
                    acts.links.len(),
                    acts.unlinks.len(),
                    acts.violations,
                    acts.wake_in
                ));
            }
            if rng2 != *rng {
                return Some("consumed PRNG draws".into());
            }
            if !clone.is_quiescent() {
                return Some("became non-quiescent".into());
            }
            None
        }));
    }

    /// Attach a request [`Workload`] (see [`crate::workload`]): from the
    /// next round on, the generator injects application requests that are
    /// routed hop-by-hop over the live topology by the program's
    /// [`Router`] implementation. Request accounting lands in
    /// [`RunMetrics::requests`] and the per-round rows; the conservation
    /// law `issued == completed + failed + in_flight` is debug-asserted
    /// every round.
    ///
    /// The workload's RNG is derived from the run seed, injection and
    /// routing happen on the driving thread, and request-carrying hosts
    /// are marked dirty — so results stay byte-identical across thread
    /// counts and [`sched::ActivityDriven`] keeps serving traffic exactly
    /// like the synchronous daemon.
    ///
    /// Attaching replaces any previously attached workload **and its
    /// in-flight requests** (panics if requests are pending — drain first).
    ///
    /// On a runtime restored from a snapshot that had a workload attached,
    /// this call instead **resumes** the saved traffic: the generator must
    /// be of the same type as at save time (checked by [`Workload::name`]);
    /// its mutable state, the workload RNG position, the in-flight request
    /// queues, and the saved [`WorkloadConfig`] are restored — the `wcfg`
    /// argument is ignored in that case, because continuing with different
    /// TTL/hop budgets would diverge from the uninterrupted run.
    pub fn attach_workload(&mut self, gen: impl Workload + 'static, wcfg: WorkloadConfig)
    where
        P: Router,
    {
        let mut gen: Box<dyn Workload> = Box::new(gen);
        let (wcfg, rng, queues, next_id) = match self.pending_traffic.take() {
            Some(p) => {
                assert_eq!(
                    gen.name(),
                    p.gen_name,
                    "attach_workload: the snapshot was saved with workload `{}`; \
                     resuming with `{}` would diverge",
                    p.gen_name,
                    gen.name()
                );
                let mut r = Reader::new(&p.gen_bytes);
                gen.load_state(&mut r)
                    .and_then(|()| r.finish())
                    .expect("attach_workload: restored workload state does not fit the generator");
                (p.wcfg, p.rng, p.queues, p.next_id)
            }
            None => {
                assert_eq!(
                    self.metrics.requests.in_flight, 0,
                    "attach_workload: requests from a previous workload are still in flight"
                );
                (
                    wcfg,
                    SmallRng::seed_from_u64(self.cfg.seed ^ splitmix64(0x770A_D10A)),
                    std::iter::repeat_with(Vec::new)
                        .take(self.programs.len())
                        .collect(),
                    // Continue the id sequence across re-attached workloads
                    // so request ids stay monotone per run (every issued
                    // request, under any workload, bumped the counter).
                    self.metrics.requests.issued,
                )
            }
        };
        let mut tr = Traffic {
            gen,
            cfg: wcfg,
            route: Box::new(|p: &P, key, neighbors| p.route(key, neighbors)),
            rng,
            queues,
            next_id,
            inject_buf: Vec::new(),
            has_req: Vec::new(),
            holders: Vec::new(),
            holder_scratch: Vec::new(),
        };
        // Restored queues may arrive non-empty; freshly attached ones are
        // all empty and the rebuild is a cheap scan either way.
        tr.rebuild_holders();
        self.traffic = Some(tr);
    }

    /// True iff a workload is attached.
    pub fn has_workload(&self) -> bool {
        self.traffic.is_some()
    }

    /// Name of the attached workload generator (for reports).
    pub fn workload_name(&self) -> Option<&str> {
        self.traffic.as_ref().map(|t| t.gen.name())
    }

    /// Request accounting so far — shorthand for
    /// `self.metrics().requests` (all zero when no workload is attached).
    pub fn request_stats(&self) -> &crate::workload::RequestStats {
        &self.metrics.requests
    }

    /// Manually inject one request for `key` at host `origin` — it starts
    /// routing in the next executed round, exactly like generator-injected
    /// traffic. Returns the request id.
    ///
    /// # Panics
    /// Panics if no workload is attached (attach [`crate::workload::Silent`]
    /// for purely manual traffic) or `origin` is not a member.
    pub fn inject_request(&mut self, origin: NodeId, key: Key) -> u64 {
        assert!(
            self.topo.contains(origin),
            "inject_request: origin {origin} is not a member"
        );
        let mut tr = self
            .traffic
            .take()
            .expect("inject_request: no workload attached (Runtime::attach_workload)");
        // The request becomes ready at the next executed round (injection
        // happens between rounds here, at round start for generators).
        let id = self.push_request(&mut tr, origin, key, self.round, self.round);
        self.traffic = Some(tr);
        id
    }

    /// Enqueue a request at `origin`'s slot, account it, and wake the host.
    fn push_request(
        &mut self,
        tr: &mut Traffic<P>,
        origin: NodeId,
        key: Key,
        issued_round: u64,
        ready_round: u64,
    ) -> u64 {
        let slot = self
            .topo
            .slot_of(origin)
            .expect("push_request: origin is a member")
            .index();
        let id = tr.next_id;
        tr.next_id += 1;
        tr.queues[slot].push(Request {
            id,
            key,
            origin,
            issued_round,
            hops: 0,
            retries: 0,
            ready_round,
        });
        if !tr.has_req[slot] {
            tr.has_req[slot] = true;
            tr.holders.push(slot as u32);
        }
        self.metrics.requests.issued += 1;
        self.metrics.requests.in_flight += 1;
        // A held request is pending work: the holder must be activated
        // under every equivalence-claiming daemon.
        mark(&mut self.dirty, &mut self.dirty_list, slot);
        id
    }

    /// Round-start injection: ask the generator for this round's requests.
    fn inject_workload(&mut self, round: u64) {
        if self.traffic.is_none() {
            return;
        }
        let mut tr = self.traffic.take().expect("checked above");
        let mut buf = std::mem::take(&mut tr.inject_buf);
        buf.clear();
        tr.gen.inject(
            &WorkloadView {
                round,
                ids: self.topo.ids(),
                stats: &self.metrics.requests,
            },
            &mut tr.rng,
            &mut buf,
        );
        for &(origin, key) in &buf {
            debug_assert!(
                self.topo.contains(origin),
                "workload injected at non-member {origin}"
            );
            if self.topo.contains(origin) {
                self.push_request(&mut tr, origin, key, round, round);
            }
        }
        tr.inject_buf = buf;
        self.traffic = Some(tr);
    }

    /// Advance every request held by an activated host one hop, against the
    /// **post-apply** topology (the current host links) and the holder's
    /// current program state. Runs on the driving thread in selection
    /// order, so traffic is deterministic at any thread count and
    /// activity-driven execution (which always selects request holders —
    /// they are dirty) reproduces the synchronous execution exactly.
    ///
    /// Cost scales with the **in-flight count**, not the host count: the
    /// slots to serve come from the maintained holder index
    /// (`Traffic::holders`) whenever the scheduler activates in canonical
    /// member order ([`Scheduler::selects_in_member_order`]) — sorting the
    /// selected holders by member rank then reproduces the selection-scan
    /// order exactly. Only order-bending schedulers (scripts) fall back to
    /// scanning the selection. Equivalence with the selection scan: a
    /// selected slot with an empty round-start queue is visited by the
    /// scan only if an earlier-served holder forwarded to it this round,
    /// and such a visit is a no-op — the forwarded requests carry
    /// `ready_round = round + 1` (kept untouched) and the slot was already
    /// marked dirty at forward time.
    fn advance_requests(&mut self, tr: &mut Traffic<P>, selection: &[NodeSlot], round: u64) {
        let record = tr.cfg.record_requests;
        let mut hs = std::mem::take(&mut tr.holder_scratch);
        hs.clear();
        if self.sched.selects_in_member_order() {
            for &i in &tr.holders {
                if self.selected[i as usize] && !tr.queues[i as usize].is_empty() {
                    hs.push(i);
                }
            }
            let topo = &self.topo;
            hs.sort_unstable_by_key(|&i| {
                topo.member_rank(NodeSlot::new(i as usize))
                    .expect("request holder is live")
            });
        } else {
            hs.extend(
                selection
                    .iter()
                    .map(|s| s.index() as u32)
                    .filter(|&i| !tr.queues[i as usize].is_empty()),
            );
        }
        for &hi in &hs {
            let i = hi as usize;
            let slot = NodeSlot::new(i);
            if tr.queues[i].is_empty() {
                continue;
            }
            let me = self.topo.id_at(slot).expect("selected slot is live");
            let mut q = std::mem::take(&mut tr.queues[i]);
            let mut keep = 0;
            for k in 0..q.len() {
                let mut req = q[k];
                // Requests forwarded here this round by an earlier-selected
                // host wait for the next round (one hop per round).
                if req.ready_round > round {
                    q[keep] = req;
                    keep += 1;
                    continue;
                }
                if round - req.issued_round >= tr.cfg.ttl {
                    self.metrics
                        .requests
                        .fail(&req, RequestOutcome::Expired, round, record);
                    continue;
                }
                let neighbors = self.topo.neighbors_at(slot);
                let decision = (tr.route)(
                    self.programs[i].as_ref().expect("selected slot is live"),
                    req.key,
                    neighbors,
                );
                match decision {
                    RouteStep::Deliver => {
                        self.metrics.requests.complete(&req, me, round, record);
                    }
                    // A hop crossing an active partition cut behaves like a
                    // vanished neighbor (the channel is dead): retry in
                    // place below, bounded by the TTL. Requests are
                    // app-level traffic with retransmission — they pay the
                    // network's deterministic base latency per hop, but are
                    // never randomly lost or duplicated.
                    RouteStep::Forward(v)
                        if v != me
                            && neighbors.binary_search(&v).is_ok()
                            && !self.crosses_cut(me, v) =>
                    {
                        if req.hops + 1 > tr.cfg.max_hops {
                            self.metrics.requests.fail(
                                &req,
                                RequestOutcome::HopBudget,
                                round,
                                record,
                            );
                            continue;
                        }
                        req.hops += 1;
                        req.ready_round = round + 1 + self.net.delay;
                        self.metrics.requests.forwards += 1;
                        let ts = self
                            .topo
                            .slot_of(v)
                            .expect("current neighbor is a member")
                            .index();
                        tr.queues[ts].push(req);
                        if !tr.has_req[ts] {
                            tr.has_req[ts] = true;
                            tr.holders.push(ts as u32);
                        }
                        mark(&mut self.dirty, &mut self.dirty_list, ts);
                    }
                    // The chosen next hop is gone (stabilization rewired
                    // the overlay, the neighbor departed) or the router has
                    // no useful hop right now: retry in place, bounded by
                    // the TTL. Never teleported.
                    RouteStep::Forward(_) | RouteStep::Unroutable => {
                        req.retries += 1;
                        req.ready_round = round + 1;
                        self.metrics.requests.retries += 1;
                        q[keep] = req;
                        keep += 1;
                    }
                }
            }
            q.truncate(keep);
            if !q.is_empty() {
                // Still holding work (retries or same-round arrivals):
                // stay scheduled.
                mark(&mut self.dirty, &mut self.dirty_list, i);
            }
            tr.queues[i] = q;
        }
        // Drop drained slots from the holder index (serving is the only
        // way a queue shrinks, so this sweep restores `has_req[i]` ⟺
        // "queue i non-empty" exactly). O(holders), order irrelevant —
        // service order is re-derived per round above.
        let queues = &tr.queues;
        let has_req = &mut tr.has_req;
        tr.holders.retain(|&i| {
            let keep = !queues[i as usize].is_empty();
            if !keep {
                has_req[i as usize] = false;
            }
            keep
        });
        tr.holder_scratch = hs;
    }

    /// Register the factory that builds programs for hosts joining mid-run
    /// (used by [`Runtime::join_spawned`], membership faults, and scenario
    /// joins). Protocol crates' runtime builders register one automatically.
    pub fn set_spawner(&mut self, f: impl FnMut(NodeId) -> P + Send + 'static) {
        self.spawner = Some(Box::new(f));
    }

    /// Builder-style [`Runtime::set_spawner`].
    #[must_use]
    pub fn with_spawner(mut self, f: impl FnMut(NodeId) -> P + Send + 'static) -> Self {
        self.set_spawner(f);
        self
    }

    /// True iff a join spawner is registered.
    pub fn has_spawner(&self) -> bool {
        self.spawner.is_some()
    }

    /// Current round number (number of completed rounds).
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The runtime's configuration (restore helpers read the seed from it
    /// to rebuild spawners and shadow checks).
    pub fn config(&self) -> Config {
        self.cfg
    }

    /// True iff this runtime was restored from a snapshot that had a
    /// workload attached and the workload has not been re-attached yet
    /// ([`Runtime::step`] refuses to run until it is).
    pub fn pending_workload(&self) -> bool {
        self.pending_traffic.is_some()
    }

    /// The current topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Run-wide metrics collected so far.
    pub fn metrics(&self) -> &RunMetrics {
        &self.metrics
    }

    /// The live node identifiers, in unspecified (but deterministic) order —
    /// insertion order until the first departure; sort a copy when a
    /// canonical order matters.
    pub fn ids(&self) -> &[NodeId] {
        self.topo.ids()
    }

    /// Immutable access to a node's program.
    ///
    /// # Panics
    /// `v` must be a node.
    pub fn program(&self, v: NodeId) -> &P {
        let slot = self
            .topo
            .slot_of(v)
            .unwrap_or_else(|| panic!("node {v} is not a member"));
        self.programs[slot.index()].as_ref().expect("live slot")
    }

    /// Iterate `(id, program)` pairs in slot order.
    pub fn programs(&self) -> impl Iterator<Item = (NodeId, &P)> + '_ {
        self.topo
            .live_slots()
            .map(|(s, id)| (id, self.programs[s.index()].as_ref().expect("live slot")))
    }

    /// Mutate a node's program out-of-band — **adversarial state corruption**
    /// for fault-injection experiments; not part of the protocol. The victim
    /// is marked dirty (corruption is a wake-up condition) and its
    /// quiescence flag is re-evaluated.
    pub fn corrupt_node(&mut self, v: NodeId, f: impl FnOnce(&mut P)) {
        let slot = self
            .topo
            .slot_of(v)
            .unwrap_or_else(|| panic!("node {v} is not a member"));
        let i = slot.index();
        let prog = self.programs[i].as_mut().expect("live slot");
        f(prog);
        let q = prog.is_quiescent();
        self.set_quiescent(i, q);
        mark(&mut self.dirty, &mut self.dirty_list, i);
    }

    /// Update the per-slot quiescence flag and its counter.
    #[inline]
    fn set_quiescent(&mut self, i: usize, q: bool) {
        if self.quiescent[i] != q {
            self.quiescent[i] = q;
            if q {
                self.quiescent_count += 1;
            } else {
                self.quiescent_count -= 1;
            }
        }
    }

    /// Mark both endpoints of a (changed) edge dirty: their neighborhoods
    /// changed, which is a wake-up condition.
    fn mark_edge(&mut self, a: NodeId, b: NodeId) {
        for v in [a, b] {
            if let Some(s) = self.topo.slot_of(v) {
                mark(&mut self.dirty, &mut self.dirty_list, s.index());
            }
        }
    }

    /// Adversarially insert an edge, bypassing the introduction rule
    /// (transient fault). Counted as a perturbation in the metrics. Both
    /// endpoints are marked dirty when the edge is new.
    pub fn adversarial_add_edge(&mut self, a: NodeId, b: NodeId) -> bool {
        let changed = self.topo.add_edge(a, b);
        if changed {
            self.mark_edge(a, b);
        }
        changed
    }

    /// Adversarially delete an edge (transient fault). Both endpoints are
    /// marked dirty when the edge existed.
    pub fn adversarial_remove_edge(&mut self, a: NodeId, b: NodeId) -> bool {
        let changed = self.topo.remove_edge(a, b);
        if changed {
            self.mark_edge(a, b);
        }
        changed
    }

    /// Execute one round: the scheduler selects the activation set, the
    /// selected programs run the emit phase against the round-start
    /// snapshot, and their actions are applied in selection order.
    ///
    /// Steady-state rounds perform no heap allocation: the per-chunk emit
    /// sinks, inbox buffers, and the selection/dirty buffers are all
    /// recycled, and validation happens at emit time against the
    /// round-start snapshot (no intermediate validity tables). In parallel
    /// mode the emit phase runs work-stealing-chunked over the selection on
    /// the runtime's persistent pool (still allocation- and spawn-free —
    /// workers are woken, not created), and heavy rounds shard inbox
    /// delivery over the same pool by recipient range; all ordering-
    /// observable bookkeeping stays on this thread in canonical selection
    /// order, which is why results never depend on the thread count.
    pub fn step(&mut self) {
        assert!(
            self.pending_traffic.is_none(),
            "step: this runtime was restored from a snapshot with in-flight traffic; \
             attach the saved workload first (Runtime::attach_workload)"
        );
        let round = self.round;
        let strict = self.cfg.strict;

        // ---- Workload: inject this round's application requests before
        // selection, so origins are dirty in time to be activated this very
        // round under every equivalence-claiming daemon.
        self.inject_workload(round);

        // ---- Timers: move due wake-ups into the dirty set. The id guard
        // discards timers of departed hosts (their slot may have been
        // recycled by an unrelated joiner).
        while let Some(&Reverse((due, slot, id))) = self.timers.peek() {
            if due > round {
                break;
            }
            self.timers.pop();
            if self.topo.id_at(NodeSlot::new(slot as usize)) == Some(id) {
                mark(&mut self.dirty, &mut self.dirty_list, slot as usize);
            }
        }

        // ---- Selection: hand the scheduler a sorted snapshot of the dirty
        // set and let it pick. Selection happens on the driving thread, so
        // scheduler randomness is thread-count invariant by construction.
        // The view is sorted by **canonical member order** — the order the
        // synchronous daemon activates in — not by slot: apply order
        // decides the relative order of same-round messages in a shared
        // recipient's inbox, so an equivalence-claiming daemon activating
        // a subset in any other order would produce different inbox
        // contents than the synchronous execution (member order diverges
        // from slot order after the first departure). The sorted view is
        // built only for schedulers that read it — full-activation daemons
        // skip the O(dirty log dirty) sort.
        let mut dirty_sorted = std::mem::take(&mut self.dirty_sorted);
        dirty_sorted.clear();
        if self.sched.uses_dirty_set() {
            dirty_sorted.extend(
                self.dirty_list
                    .iter()
                    .filter(|&&i| self.topo.is_live(NodeSlot::new(i as usize)))
                    .map(|&i| NodeSlot::new(i as usize)),
            );
            let topo = &self.topo;
            dirty_sorted
                .sort_unstable_by_key(|&s| topo.member_rank(s).expect("filtered to live slots"));
        }
        let mut selection = std::mem::take(&mut self.selection);
        selection.clear();
        self.sched.select(
            &SchedView {
                round,
                topo: &self.topo,
                dirty: &dirty_sorted,
            },
            &mut selection,
        );
        self.dirty_sorted = dirty_sorted;

        // Sanitize: drop duplicates and non-live slots so a sloppy
        // scheduler cannot alias `&mut` chunks in the parallel emit. The
        // `selected` scratch doubles as the shadow check's skip detector.
        // Activated slots consume their dirtiness in the same pass;
        // unselected dirty slots stay queued (wake-ups are never lost
        // under partial daemons).
        selection.retain(|&s| {
            let i = s.index();
            let ok = !self.selected[i] && self.topo.is_live(s);
            if ok {
                self.selected[i] = true;
                self.dirty[i] = false;
            }
            ok
        });

        // Flags of dead slots are purged here, so a recycled slot starts
        // clean.
        let topo = &self.topo;
        self.dirty_list.retain(|&i| {
            let s = NodeSlot::new(i as usize);
            self.dirty[i as usize] && {
                let live = topo.is_live(s);
                if !live {
                    self.dirty[i as usize] = false;
                }
                live
            }
        });

        // ---- Shadow-step check (debug builds, equivalence-claiming
        // schedulers only): audit every skipped live node.
        #[cfg(debug_assertions)]
        if self.sched.claims_equivalence() {
            if let Some(shadow) = &self.shadow {
                let mut shadow_buf = Vec::new();
                for k in 0..self.topo.node_count() {
                    let (id, slot) = self.topo.live_entry(k);
                    let i = slot.index();
                    if self.selected[i] {
                        continue;
                    }
                    let prog = self.programs[i].as_ref().expect("live slot");
                    if let Some(why) = shadow(
                        prog,
                        id,
                        round,
                        self.topo.neighbors_at(slot),
                        self.inboxes.view(i, &mut shadow_buf),
                        &self.rngs[i],
                    ) {
                        panic!(
                            "round {round}: scheduler `{}` skipped node {id} whose step \
                             is not a no-op ({why}) — the program violates the \
                             Program::is_quiescent contract",
                            self.sched.name()
                        );
                    }
                }
            }
        }

        // ---- Phase 1 (emit): run the selected programs against the
        // round-start topology snapshot. Illegal sends/links are rejected
        // at emission (see `Ctx`), so everything enqueued below is valid.
        //
        // The selection is cut into contiguous chunks (see
        // [`sched::ChunkPlan`] — sized by activation count, so sparse
        // post-convergence rounds build few chunks) and each chunk's output
        // lands in its own [`ChunkSink`], indexed by **chunk**, not thread:
        // the sink contents are therefore independent of which worker ran
        // the chunk, or whether a pool ran at all. The emit cost per
        // activation is measured (EWMA) to drive the auto-sequential
        // heuristic — rounds cheaper than a pool generation stay on this
        // thread; either path produces bit-identical sinks.
        let threads = self.threads();
        self.plan.rebuild(selection.len(), threads);
        let nchunks = self.plan.chunks();
        if self.sinks.len() < nchunks {
            self.sinks.resize_with(nchunks, ChunkSink::default);
        }
        for sink in &mut self.sinks[..nchunks] {
            sink.reset();
        }
        let use_pool = self.pool.is_some()
            && !selection.is_empty()
            && (self.cfg.force_parallel
                || selection.len() as f64 * self.est_ns_per_act > PAR_THRESHOLD_NS);
        let emit_start = std::time::Instant::now();
        {
            let topo = &self.topo;
            let inboxes = &self.inboxes;
            let emit_one = |i: usize,
                            prog: &mut Option<P>,
                            rng: &mut SmallRng,
                            sink: &mut ChunkSink<P::Msg>| {
                let prog = prog.as_mut().expect("selected slot is live");
                let slot = NodeSlot::new(i);
                let id = topo.id_at(slot).expect("selected slot is live");
                let ChunkSink {
                    scratch,
                    slots,
                    sends,
                    links,
                    unlinks,
                    inbox_buf,
                } = sink;
                scratch.clear();
                {
                    let mut ctx = Ctx::new(
                        id,
                        round,
                        strict,
                        topo.neighbors_at(slot),
                        inboxes.view(i, inbox_buf),
                        rng,
                        scratch,
                    );
                    prog.step(&mut ctx);
                }
                // Flatten the staged actions into the sink's chunk-flat
                // arrays. The id → slot lookups for sends happen here, on
                // the emitting worker, against the round-start member map
                // (membership never changes mid-step), not on the driver.
                for (to, msg) in scratch.sends.drain(..) {
                    let ts = topo
                        .slot_of(to)
                        .expect("round-start neighbor is a member")
                        .index() as u32;
                    sends.push(Outgoing {
                        to_slot: ts,
                        from_slot: i as u32,
                        from: id,
                        msg,
                    });
                }
                links.append(&mut scratch.links);
                unlinks.append(&mut scratch.unlinks);
                slots.push(SlotRec {
                    slot: i as u32,
                    id,
                    sends_end: sends.len() as u32,
                    unlinks_end: unlinks.len() as u32,
                    violations: scratch.violations,
                    wake_in: scratch.wake_in,
                    quiescent: prog.is_quiescent(),
                });
            };

            if use_pool {
                // Chunks are claimed atomically (work stealing, for
                // selections with skewed per-slot costs); reads go only to
                // the shared round-start snapshot (`topo`, `inboxes`),
                // writes go only to the claimed chunk's slots and sink
                // (slots distinct by the sanitization above, sinks
                // distinct by chunk index), so every thread schedule
                // produces the same sink contents.
                let pool = self.pool.as_ref().expect("use_pool implies a pool");
                par::for_each_selected_chunks_mut2(
                    pool,
                    &selection,
                    self.plan.bounds(),
                    &mut self.sinks[..nchunks],
                    &mut self.programs,
                    &mut self.rngs,
                    emit_one,
                );
            } else {
                for c in 0..nchunks {
                    let sink = &mut self.sinks[c];
                    for &s in &selection[self.plan.range(c)] {
                        let i = s.index();
                        emit_one(i, &mut self.programs[i], &mut self.rngs[i], sink);
                    }
                }
            }
        }
        if !selection.is_empty() {
            let obs = emit_start.elapsed().as_nanos() as f64 / selection.len() as f64;
            self.est_ns_per_act = if self.est_ns_per_act == 0.0 {
                obs
            } else {
                0.75 * self.est_ns_per_act + 0.25 * obs
            };
            if use_pool {
                self.par_rounds += 1;
            } else {
                self.seq_rounds += 1;
            }
        }

        // ---- Phase 2 (apply): walk the sinks in chunk order — chunks are
        // ascending contiguous selection ranges, so chunk-order
        // concatenation IS selection order, whatever the chunk count —
        // applying with round-start snapshot semantics. Unlinks first,
        // then links (an edge both removed and introduced in the same
        // round ends up present), then inbox consumption, then sends
        // (already validated against round-START adjacency at emission).
        // Every pass walks the selection's output only, so a quiet network
        // does not pay for its size. Edge changes and deliveries mark the
        // affected slots dirty for the next round; all marking happens on
        // this thread in canonical order, so the raw-serialized dirty list
        // stays thread-count invariant.
        let mut row = RoundMetrics {
            round,
            active_nodes: selection.len() as u64,
            ..RoundMetrics::default()
        };
        let mut sinks = std::mem::take(&mut self.sinks);
        for sink in &sinks[..nchunks] {
            let mut ucur = 0usize;
            for rec in &sink.slots {
                row.violations += rec.violations;
                let me = rec.id;
                while ucur < rec.unlinks_end as usize {
                    let v = sink.unlinks[ucur];
                    ucur += 1;
                    if self.topo.remove_edge(me, v) {
                        row.links_removed += 1;
                        self.mark_edge(me, v);
                    }
                }
            }
        }
        for sink in &sinks[..nchunks] {
            // No per-slot state needed: the flat chunk array already holds
            // the links in selection-then-emission order.
            for &(x, y) in &sink.links {
                if self.topo.add_edge(x, y) {
                    row.links_added += 1;
                    self.mark_edge(x, y);
                }
            }
        }
        // Consume the activated inboxes (their contents were read by this
        // round's emit) before enqueueing this round's sends. Each consumed
        // message releases its `sent_to` bookkeeping entry — by recorded
        // sender *slot* (`inbox_senders`), no id → slot hashing here. The
        // release is a linear scan of the sender's pending list, O(pending
        // of that sender) per message: quadratic in degree for a hub
        // broadcasting to d neighbors every round. Overlay protocols keep
        // degrees at O(log² n) by design (degree expansion is the paper's
        // other cost metric), so the scan beats the alternatives measured
        // here — hashing per message, or giving up exact `sent_to` and
        // purging departures via a scan of all pending inboxes (which
        // would make the benchmarked burst-churn path O(total pending)
        // per leave instead of O(pending of the leaver)).
        for &slot in &selection {
            let i = slot.index();
            if self.inboxes.is_empty(i) {
                continue;
            }
            for fs in self.inboxes.senders(i) {
                let fs = fs as usize;
                if let Some(p) = self.sent_to[fs].iter().position(|&t| t as usize == i) {
                    self.sent_to[fs].swap_remove(p);
                }
            }
            self.inflight -= self.inboxes.clear_slot(i) as u64;
        }
        // ---- Transit arrivals: messages whose delivery round has come
        // move from the in-transit buffer into their recipients' inboxes —
        // after consumption (they become readable at the *next*
        // activation, exactly like fresh sends) and before this round's
        // new sends (an older message never queues behind a younger one in
        // a shared inbox). Arrival is where the recipient is marked dirty
        // (dirty-set soundness: a delayed message is a wake-up condition
        // on its **delivery** round) and where `sent_to` bookkeeping
        // starts. Departures purge the buffer eagerly, so the endpoints
        // are live; the id-at-slot guard below (the timer heap's guard) is
        // defense in depth — a recycled slot must never receive a ghost
        // message, even if the purge ever regressed.
        while let Some((&due, _)) = self.transit.first_key_value() {
            if due > round {
                break;
            }
            let mut bucket = self.transit.pop_first().expect("peeked above").1;
            for t in bucket.drain(..) {
                self.transit_count -= 1;
                if self.topo.id_at(NodeSlot::new(t.to_slot as usize)) != Some(t.to)
                    || self.topo.id_at(NodeSlot::new(t.from_slot as usize)) != Some(t.from)
                {
                    self.metrics.net.dropped_departed += 1;
                    continue;
                }
                let ts = t.to_slot as usize;
                self.inboxes.push(ts, t.from, t.from_slot, t.msg);
                self.sent_to[t.from_slot as usize].push(t.to_slot);
                mark(&mut self.dirty, &mut self.dirty_list, ts);
                row.messages += 1;
                self.metrics.net.delivered += 1;
            }
            Self::recycle_bucket(&mut self.transit_pool, bucket);
        }
        // Wake-up requests, quiescence bookkeeping, `sent_to`/dirty
        // maintenance, and message delivery. A node that stepped and is
        // still non-quiescent re-marks itself (it has work of its own),
        // which is what keeps the dirty set a superset of the
        // non-quiescent live nodes under every scheduler. The bookkeeping
        // always runs here in canonical order (the mark order is
        // observable: snapshots serialize the dirty list raw); the inbox
        // appends themselves are sharded across the pool by
        // recipient-slot range when the round's send volume pays for a
        // second pool generation — each shard owns a disjoint recipient
        // range and scans the sinks in chunk order, so every inbox
        // receives exactly the sequential append order.
        let total_sends: usize = sinks[..nchunks].iter().map(|s| s.sends.len()).sum();
        // With WAN conditions or an active partition, every send needs a
        // driver-side decision (loss/delay/duplication draws happen in
        // canonical sink-merge order — the determinism argument), so the
        // sharded scatter is off: delivery runs sequentially below. The
        // ideal network keeps today's two-path engine bit-for-bit.
        let net_active = !self.net.is_ideal() || self.partition.is_some();
        let par_delivery = use_pool && !net_active && total_sends >= PAR_DELIVERY_MIN;
        if par_delivery {
            // D1: driver-side bookkeeping, canonical order.
            for sink in &sinks[..nchunks] {
                let mut scur = 0usize;
                for rec in &sink.slots {
                    let i = rec.slot as usize;
                    if let Some(d) = rec.wake_in {
                        if d <= 1 {
                            mark(&mut self.dirty, &mut self.dirty_list, i);
                        } else {
                            self.timers.push(Reverse((round + d, rec.slot, rec.id)));
                        }
                    }
                    let q = rec.quiescent;
                    self.set_quiescent(i, q);
                    if !q {
                        mark(&mut self.dirty, &mut self.dirty_list, i);
                    }
                    while scur < rec.sends_end as usize {
                        let ts = sink.sends[scur].to_slot as usize;
                        scur += 1;
                        self.sent_to[i].push(ts as u32);
                        self.inboxes.note_incoming(ts);
                        mark(&mut self.dirty, &mut self.dirty_list, ts);
                        row.messages += 1;
                    }
                }
            }
            // D2: sharded delivery — shard t owns recipient slots
            // [cuts[t], cuts[t+1]). The D1 walk above announced every
            // send to the arena (`note_incoming`), so page chains are
            // pre-reserved on this thread and the workers only write.
            let n = self.inboxes.slot_count();
            let mut cuts = std::mem::take(&mut self.delivery_cuts);
            cuts.clear();
            cuts.extend((0..=threads).map(|t| t * n / threads));
            let pool = self.pool.as_ref().expect("par_delivery implies a pool");
            self.inboxes.scatter(
                pool,
                &mut sinks[..nchunks],
                |s| &mut s.sends,
                &cuts,
                |o| o.to_slot as usize,
                |o| (o.from, o.from_slot, o.msg),
            );
            self.delivery_cuts = cuts;
            self.metrics.net.sent += total_sends as u64;
            self.metrics.net.delivered += total_sends as u64;
        } else if !net_active {
            for sink in &mut sinks[..nchunks] {
                let ChunkSink { slots, sends, .. } = sink;
                let mut drain = sends.drain(..);
                let mut scur = 0usize;
                for rec in slots.iter() {
                    let i = rec.slot as usize;
                    if let Some(d) = rec.wake_in {
                        if d <= 1 {
                            mark(&mut self.dirty, &mut self.dirty_list, i);
                        } else {
                            self.timers.push(Reverse((round + d, rec.slot, rec.id)));
                        }
                    }
                    let q = rec.quiescent;
                    self.set_quiescent(i, q);
                    if !q {
                        mark(&mut self.dirty, &mut self.dirty_list, i);
                    }
                    while scur < rec.sends_end as usize {
                        let o = drain.next().expect("send cursor within chunk");
                        scur += 1;
                        let ts = o.to_slot as usize;
                        self.inboxes.push(ts, o.from, o.from_slot, o.msg);
                        self.sent_to[i].push(o.to_slot);
                        mark(&mut self.dirty, &mut self.dirty_list, ts);
                        row.messages += 1;
                    }
                }
            }
            self.metrics.net.sent += total_sends as u64;
            self.metrics.net.delivered += total_sends as u64;
        } else {
            // ---- Net-active delivery: same canonical walk, but every
            // send passes through the network layer on this thread.
            // Decision order per message — partition (no draw), loss,
            // delay, duplication, bandwidth pacing — so the RNG stream is
            // a pure function of the send stream and the model, never of
            // the thread count or batch window.
            let model = self.net;
            for sink in &mut sinks[..nchunks] {
                let ChunkSink { slots, sends, .. } = sink;
                let mut drain = sends.drain(..);
                let mut scur = 0usize;
                for rec in slots.iter() {
                    let i = rec.slot as usize;
                    if let Some(d) = rec.wake_in {
                        if d <= 1 {
                            mark(&mut self.dirty, &mut self.dirty_list, i);
                        } else {
                            self.timers.push(Reverse((round + d, rec.slot, rec.id)));
                        }
                    }
                    let q = rec.quiescent;
                    self.set_quiescent(i, q);
                    if !q {
                        mark(&mut self.dirty, &mut self.dirty_list, i);
                    }
                    while scur < rec.sends_end as usize {
                        let o = drain.next().expect("send cursor within chunk");
                        scur += 1;
                        self.metrics.net.sent += 1;
                        let to = self
                            .topo
                            .id_at(NodeSlot::new(o.to_slot as usize))
                            .expect("round-start recipient is a member");
                        if self.crosses_cut(o.from, to) {
                            self.metrics.net.dropped_partition += 1;
                            continue;
                        }
                        if model.loss > 0.0 && self.net_rng.gen_bool(model.loss_rate(o.from, to)) {
                            self.metrics.net.dropped_loss += 1;
                            continue;
                        }
                        let delay = model.draw_delay(&mut self.net_rng);
                        let dup = model.dup > 0.0 && self.net_rng.gen_bool(model.dup);
                        // The duplicate draws its own delay *before* either
                        // copy is paced, so the RNG stream never depends on
                        // pacing state.
                        let dup_delay = dup.then(|| model.draw_delay(&mut self.net_rng));
                        let delay = self.pace(o.from, to, round, delay);
                        let t = Transit {
                            to_slot: o.to_slot,
                            from_slot: o.from_slot,
                            from: o.from,
                            to,
                            msg: o.msg,
                        };
                        if let Some(dd) = dup_delay {
                            self.metrics.net.duplicated += 1;
                            let dd = self.pace(o.from, to, round, dd);
                            let copy = Transit {
                                msg: t.msg.clone(),
                                ..t
                            };
                            self.net_deliver(copy, delay.min(dd), round, &mut row);
                            self.net_deliver(t, delay.max(dd), round, &mut row);
                        } else {
                            self.net_deliver(t, delay, round, &mut row);
                        }
                    }
                }
            }
        }
        self.inflight += row.messages;
        self.sinks = sinks;

        // ---- Phase 3 (traffic): advance held requests one hop over the
        // post-apply topology, in selection order on this thread.
        if self.traffic.is_some() {
            let mut tr = self.traffic.take().expect("checked above");
            self.advance_requests(&mut tr, &selection, round);
            self.traffic = Some(tr);
        }
        // Reset the per-slot "selected" scratch for the next round — after
        // Phase 3, because the workload's holder fast path reads it.
        for &slot in &selection {
            self.selected[slot.index()] = false;
        }
        let r = &self.metrics.requests;
        row.requests_issued = r.issued - self.req_reported.0;
        row.requests_completed = r.completed - self.req_reported.1;
        row.requests_failed = r.failed - self.req_reported.2;
        row.requests_in_flight = r.in_flight;
        self.req_reported = (r.issued, r.completed, r.failed);

        self.round += 1;
        row.max_degree = self.topo.max_degree();
        row.total_edges = self.topo.edge_count();
        row.quiescent_nodes = self.quiescent_count as u64;
        self.metrics.net.in_transit = self.transit_count;
        self.metrics.absorb(row, self.cfg.record_rounds);
        self.selection = selection;
        // Bounded capacity release: after a burst subsides, surplus free
        // inbox pages drop their buffers so the arena footprint tracks the
        // *current* load, not the historical peak. O(1) when nothing is
        // over the watermark.
        self.inboxes.maybe_shrink();
        debug_assert!(self.topo.check_invariants());
        debug_assert_eq!(self.inflight as usize, self.inboxes.total_len());
        // The message conservation law, at every round boundary (see
        // [`crate::net::NetStats`]).
        debug_assert_eq!(
            self.transit_count as usize,
            self.transit.values().map(Vec::len).sum::<usize>()
        );
        debug_assert!(
            self.metrics.net.conserved(),
            "message conservation law violated: {:?}",
            self.metrics.net
        );
        // The request conservation law, at every round boundary.
        #[cfg(debug_assertions)]
        if let Some(tr) = &self.traffic {
            let queued: u64 = tr.queues.iter().map(|q| q.len() as u64).sum();
            let r = &self.metrics.requests;
            debug_assert_eq!(r.in_flight, queued, "in-flight counter vs queues");
            debug_assert_eq!(
                r.issued,
                r.completed + r.failed + r.in_flight,
                "request conservation law violated"
            );
        }
    }

    /// A pool **hot window** guard for the batched run drivers: when the
    /// coming rounds are expected to use the pool, keep the workers
    /// spinning between rounds instead of parking them (see
    /// [`crate::par::ThreadPool::hot_window`]) — this is what amortizes the
    /// condvar wake cost across a [`Config::batch_rounds`] window. The
    /// expectation mirrors the auto-sequential heuristic on the *last*
    /// round's selection size; a wrong guess costs only wall-clock time
    /// (spinning workers, or one cold wake), never correctness.
    fn hot_guard(&self) -> Option<par::HotWindow> {
        let pool = self.pool.as_ref()?;
        let expect_par = self.cfg.force_parallel
            || self.selection.len() as f64 * self.est_ns_per_act > PAR_THRESHOLD_NS;
        expect_par.then(|| pool.hot_window())
    }

    /// Execution-machinery counters: pool synchronization, work-stealing,
    /// and par/seq round totals since construction (pool counters are zero
    /// when sequential). Deliberately not part of [`Runtime::metrics`] —
    /// see [`PerfCounters`] for the boundary argument.
    pub fn perf_counters(&self) -> PerfCounters {
        let (syncs, generations, steals) =
            self.pool.as_ref().map_or((0, 0, 0), ThreadPool::counters);
        PerfCounters {
            syncs,
            generations,
            steals,
            par_rounds: self.par_rounds,
            seq_rounds: self.seq_rounds,
        }
    }

    /// Run a fixed number of rounds, in pool hot windows of
    /// [`Config::batch_rounds`] rounds.
    pub fn run(&mut self, rounds: u64) {
        let k = u64::from(self.cfg.batch_rounds.max(1));
        let mut left = rounds;
        while left > 0 {
            let window = left.min(k);
            let _hot = self.hot_guard();
            for _ in 0..window {
                self.step();
            }
            left -= window;
        }
    }

    /// Run until `monitor` is satisfied or violated, or `max_rounds` elapse.
    /// The monitor observes the runtime *before* the first round (a runtime
    /// that already satisfies it executes 0 rounds) and after every round.
    ///
    /// Rounds execute in pool hot windows of [`Config::batch_rounds`]; the
    /// monitor still observes on this thread at every round boundary,
    /// exactly as in the unbatched driver.
    ///
    /// This is the one run-to-verdict driver, shared by every protocol
    /// crate; a plain predicate drives it as [`crate::monitor::goal`], and
    /// [`MonitorOutcome::rounds_if_satisfied`] gives the `Option<u64>`
    /// shape. See [`crate::monitor`] for composition. (Runs that also apply
    /// scheduled events go through [`crate::Scenario::run`].)
    pub fn run_monitored(
        &mut self,
        monitor: &mut (impl Monitor<P> + ?Sized),
        max_rounds: u64,
    ) -> MonitorOutcome {
        let start = self.round;
        let k = u64::from(self.cfg.batch_rounds.max(1));
        loop {
            let _hot = self.hot_guard();
            for _ in 0..k {
                let executed = self.round - start;
                match monitor.observe(self) {
                    Verdict::Satisfied => {
                        return MonitorOutcome {
                            rounds: executed,
                            verdict: RunVerdict::Satisfied,
                            reason: None,
                        }
                    }
                    Verdict::Violated(why) => {
                        return MonitorOutcome {
                            rounds: executed,
                            verdict: RunVerdict::Violated,
                            reason: Some(why),
                        }
                    }
                    Verdict::Pending => {}
                }
                if executed == max_rounds {
                    return MonitorOutcome {
                        rounds: executed,
                        verdict: RunVerdict::Timeout,
                        reason: None,
                    };
                }
                self.step();
            }
        }
    }

    // ---- dynamic membership ------------------------------------------------

    /// A new host joins the running network, attached to the existing hosts
    /// in `attach_to` (its bootstrap contacts). The attachment edges bypass
    /// the introduction rule — joining is an environment action, like a
    /// transient fault, not a protocol step. Unknown attach targets are
    /// skipped (they may have left in an earlier event); a join whose
    /// targets all vanished enters isolated, which monitors may then flag.
    ///
    /// The joiner lands in a recycled slot when one is free (O(deg): no
    /// existing member's slot changes). Its PRNG is seeded exactly as at
    /// construction (`seed ⊕ splitmix(id)`), so runs containing joins stay
    /// deterministic, and a host that leaves and re-joins replays the same
    /// private stream.
    ///
    /// # Panics
    /// Panics if `id` is already a member.
    pub fn join(&mut self, id: NodeId, program: P, attach_to: &[NodeId]) {
        assert!(
            !self.topo.contains(id),
            "join: node {id} is already a member"
        );
        self.topo.add_node(id);
        let slot = self.topo.slot_of(id).expect("just added").index();
        let rng = SmallRng::seed_from_u64(self.cfg.seed ^ splitmix64(id as u64 + 1));
        let q = program.is_quiescent();
        if slot == self.programs.len() {
            // Fresh slot: grow the slot-parallel arrays in lockstep.
            self.programs.push(Some(program));
            self.rngs.push(rng);
            self.inboxes.ensure_slots(slot + 1);
            self.sent_to.push(Vec::new());
            self.dirty.push(false);
            self.selected.push(false);
            self.quiescent.push(false);
            if let Some(tr) = &mut self.traffic {
                tr.queues.push(Vec::new());
                tr.has_req.push(false);
            }
        } else {
            // Recycled slot: the departure left the buffers empty.
            debug_assert!(self.programs[slot].is_none());
            debug_assert!(self.inboxes.is_empty(slot));
            debug_assert!(!self.quiescent[slot]);
            debug_assert!(self
                .traffic
                .as_ref()
                .is_none_or(|t| t.queues[slot].is_empty()));
            self.programs[slot] = Some(program);
            self.rngs[slot] = rng;
        }
        if q {
            self.quiescent[slot] = true;
            self.quiescent_count += 1;
        }
        // A joiner is "just spawned" — a wake-up condition in itself — and
        // its attachments change the contacts' neighborhoods.
        mark(&mut self.dirty, &mut self.dirty_list, slot);
        for &v in attach_to {
            if v != id && self.topo.contains(v) && self.topo.add_edge(id, v) {
                self.mark_edge(id, v);
            }
        }
        self.metrics.joins += 1;
        self.metrics.peak_degree = self.metrics.peak_degree.max(self.topo.max_degree());
        debug_assert!(self.topo.check_invariants());
    }

    /// Like [`Runtime::join`], but the program comes from the registered
    /// spawner — the form used by membership faults and scenario events.
    ///
    /// # Panics
    /// Panics if no spawner is registered (see [`Runtime::set_spawner`]) or
    /// `id` is already a member.
    pub fn join_spawned(&mut self, id: NodeId, attach_to: &[NodeId]) {
        let mut spawner = self
            .spawner
            .take()
            .expect("join_spawned: no spawner registered (Runtime::set_spawner)");
        let program = spawner(id);
        self.spawner = Some(spawner);
        self.join(id, program, attach_to);
    }

    /// A host leaves the network gracefully: it and its incident edges are
    /// removed, undelivered messages to *and from* it are dropped (in the
    /// synchronous model a message is received only if its channel — the
    /// edge — still exists, and the channels died with the host). The final
    /// program state is returned to the caller ("retired").
    ///
    /// O(deg + in-flight traffic of the host): the slot is pushed on the
    /// free list, nothing shifts, no index is rebuilt.
    ///
    /// Returns `None` if `id` is not a member.
    pub fn leave(&mut self, id: NodeId) -> Option<P> {
        let p = self.remove_member(id)?;
        self.metrics.leaves += 1;
        Some(p)
    }

    /// A host crashes: topologically identical to [`Runtime::leave`] today
    /// (edges gone, in-flight messages in both directions lost), but counted
    /// separately — scenarios distinguish polite departure from failure, and
    /// protocols with departure hand-off would only see it on `leave`.
    ///
    /// Returns the crashed program state (for post-mortem inspection), or
    /// `None` if `id` is not a member.
    pub fn crash(&mut self, id: NodeId) -> Option<P> {
        let p = self.remove_member(id)?;
        self.metrics.crashes += 1;
        Some(p)
    }

    fn remove_member(&mut self, id: NodeId) -> Option<P> {
        let slot_t = self.topo.slot_of(id)?;
        let slot = slot_t.index();
        // The survivors' neighborhoods are about to change: wake them.
        for k in 0..self.topo.neighbors_at(slot_t).len() {
            let v = self.topo.neighbors_at(slot_t)[k];
            let vs = self.topo.slot_of(v).expect("neighbor is a member").index();
            mark(&mut self.dirty, &mut self.dirty_list, vs);
        }
        self.topo.remove_node(id);
        let program = self.programs[slot].take().expect("live slot");
        // Requests resident on the departed host die with it — never
        // teleported to a survivor.
        if self.traffic.is_some() {
            let mut tr = self.traffic.take().expect("checked above");
            let record = tr.cfg.record_requests;
            for req in std::mem::take(&mut tr.queues[slot]) {
                self.metrics
                    .requests
                    .fail(&req, RequestOutcome::HostDeparted, self.round, record);
            }
            if tr.has_req[slot] {
                tr.has_req[slot] = false;
                tr.holders.retain(|&i| i as usize != slot);
            }
            self.traffic = Some(tr);
        }
        // The departed host's own messages: consume the mailbox (releasing
        // the senders' `sent_to` entries by recorded sender slot) …
        for fs in self.inboxes.senders(slot) {
            let fs = fs as usize;
            if let Some(p) = self.sent_to[fs].iter().position(|&t| t as usize == slot) {
                self.sent_to[fs].swap_remove(p);
            }
        }
        self.inflight -= self.inboxes.clear_slot(slot) as u64;
        // …and every message it sent that is still pending dies in its
        // target's mailbox. `sent_to` names exactly the slots holding such
        // messages, so the purge is O(pending traffic of the host), not a
        // scan of every inbox (the arena purge preserves message order).
        for k in 0..self.sent_to[slot].len() {
            let t = self.sent_to[slot][k] as usize;
            self.inflight -= self.inboxes.purge_sender(t, slot as u32) as u64;
        }
        self.sent_to[slot].clear();
        // …and so do its messages still in the network: in-transit entries
        // with a departed endpoint are purged eagerly (same channel-died
        // semantics as the inbox purge above), which is what keeps every
        // parked endpoint live — a delayed message can never be delivered
        // to the departed host's recycled slot. Bandwidth pacing state of
        // its channels goes with it.
        if self.transit_count > 0 {
            let mut purged = 0u64;
            let pool = &mut self.transit_pool;
            self.transit.retain(|_, bucket| {
                bucket.retain(|t| {
                    let dead = t.from == id || t.to == id;
                    if dead {
                        purged += 1;
                    }
                    !dead
                });
                if bucket.is_empty() {
                    Self::recycle_bucket(pool, std::mem::take(bucket));
                    return false;
                }
                true
            });
            self.transit_count -= purged;
            self.metrics.net.dropped_departed += purged;
            self.metrics.net.in_transit = self.transit_count;
        }
        if !self.bw_state.is_empty() {
            self.bw_state.retain(|&(a, b), _| a != id && b != id);
        }
        if self.quiescent[slot] {
            self.quiescent[slot] = false;
            self.quiescent_count -= 1;
        }
        debug_assert!(self.topo.check_invariants());
        debug_assert_eq!(self.inflight as usize, self.inboxes.total_len());
        Some(program)
    }

    /// True iff no messages are pending in any mailbox **or in transit**
    /// (no present or future round would deliver anything). O(1): both
    /// counts are tracked incrementally. Under the synchronous daemon on
    /// the ideal network every message is consumed the round after it is
    /// sent, so this coincides with the old "next round delivers nothing";
    /// under partial daemons it also covers messages waiting for a skipped
    /// recipient, and under WAN conditions it covers messages the network
    /// is still holding — a lossy quiet round must **not** read as
    /// converged while deliveries are still due (see
    /// [`crate::monitor::silence`]).
    pub fn is_silent(&self) -> bool {
        self.inflight == 0 && self.transit_count == 0
    }
}

/// Checkpoint/restore (see [`crate::snapshot`]): available when the program
/// and its message type opt in via [`Persist`].
impl<P: Program + Persist> Runtime<P>
where
    P::Msg: Persist,
{
    /// Serialize the full runtime state into a sealed snapshot container
    /// (see [`crate::snapshot`] for the framing; versioned, length-prefixed,
    /// content-hashed).
    ///
    /// The payload captures everything a future [`Runtime::step`] can
    /// observe: the determinism-relevant config (seed, strictness, metrics
    /// granularity), the topology with its exact free-list and member
    /// order, every slot's RNG position and program state, the pending
    /// inboxes, the round counter, the accumulated metrics, the dirty set,
    /// armed timers, and — when a workload is attached — the traffic
    /// subsystem's queues, RNG, and generator state. Not captured (because
    /// they are closures or caller policy): the spawner, the shadow check,
    /// the scheduler, the thread pool, and the workload's generator/router
    /// *code* — [`Runtime::restore_snapshot`] documents how each is
    /// re-attached.
    ///
    /// The bytes are deterministic: two identical runtimes serialize
    /// identically, so snapshot size is a meaningful, exactly reproducible
    /// metric (the E14 experiment records bytes/host from it).
    pub fn save_snapshot(&self) -> Vec<u8> {
        let mut w = Writer::new();
        // Determinism-relevant config. `parallel`/`threads` are deliberately
        // NOT saved: thread count never changes results, so it stays a
        // restore-time choice.
        w.u64(self.cfg.seed);
        w.bool(self.cfg.strict);
        w.bool(self.cfg.record_rounds);
        self.topo.save_state(&mut w);
        let n = self.topo.slot_count();
        w.seq(n);
        for i in 0..n {
            for s in self.rngs[i].state() {
                w.raw64(s);
            }
            self.programs[i].save(&mut w);
            // The inbox entries alone suffice: the sender-slot mirror and
            // `sent_to` are exactly derivable from them (a departed
            // sender's pending messages are always purged, so every
            // pending sender is a live member) and are rebuilt on restore.
            // Chain iteration is delivery order, so the bytes match what
            // the old flat `Vec` layout produced.
            w.seq(self.inboxes.len(i));
            for e in self.inboxes.entries(i) {
                e.save(&mut w);
            }
        }
        w.u64(self.round);
        self.metrics.save(&mut w);
        self.dirty_list.save(&mut w);
        // The timer heap's internal order is unspecified; serialize sorted
        // so identical states produce identical bytes.
        let mut timers: Vec<(u64, u32, NodeId)> = self.timers.iter().map(|&Reverse(t)| t).collect();
        timers.sort_unstable();
        timers.save(&mut w);
        w.u64(self.req_reported.0);
        w.u64(self.req_reported.1);
        w.u64(self.req_reported.2);
        // Traffic: from the live subsystem, or — on a restored-but-not-yet-
        // re-attached runtime — passed through verbatim from the stash, so
        // save∘restore is the identity even mid-handoff.
        match (&self.traffic, &self.pending_traffic) {
            (Some(tr), _) => {
                w.bool(true);
                w.u64(tr.cfg.ttl);
                w.u32(tr.cfg.max_hops);
                w.bool(tr.cfg.record_requests);
                for s in tr.rng.state() {
                    w.raw64(s);
                }
                w.u64(tr.next_id);
                tr.queues.save(&mut w);
                w.str(tr.gen.name());
                let mut gw = Writer::new();
                tr.gen.save_state(&mut gw);
                w.bytes(&gw.into_bytes());
            }
            (None, Some(p)) => {
                w.bool(true);
                w.u64(p.wcfg.ttl);
                w.u32(p.wcfg.max_hops);
                w.bool(p.wcfg.record_requests);
                for s in p.rng.state() {
                    w.raw64(s);
                }
                w.u64(p.next_id);
                p.queues.save(&mut w);
                w.str(&p.gen_name);
                w.bytes(&p.gen_bytes);
            }
            (None, None) => w.bool(false),
        }
        // Network conditions (see `crate::net`): the model, the net RNG
        // position, the active partition, the in-transit buffer, and the
        // bandwidth pacing state. `BTreeMap` iteration is already
        // canonical, and bucket entries are kept in decision order, so
        // identical states serialize identically.
        self.net.save(&mut w);
        for s in self.net_rng.state() {
            w.raw64(s);
        }
        self.partition.save(&mut w);
        w.seq(self.transit.len());
        for (&due, bucket) in &self.transit {
            w.u64(due);
            w.seq(bucket.len());
            for t in bucket {
                w.u32(t.to_slot);
                w.u32(t.from_slot);
                w.u32(t.from);
                w.u32(t.to);
                t.msg.save(&mut w);
            }
        }
        w.seq(self.bw_state.len());
        for (&(a, b), &(next, used)) in &self.bw_state {
            w.u32(a);
            w.u32(b);
            w.u64(next);
            w.u32(used);
        }
        snapshot::seal(w.into_bytes())
    }

    /// [`Runtime::save_snapshot`] straight to a file (written atomically:
    /// temp file + rename, so a concurrent reader never sees a torn
    /// snapshot).
    pub fn save_snapshot_to(&self, path: impl AsRef<std::path::Path>) -> Result<(), SnapshotError> {
        snapshot::write_file(path.as_ref(), &self.save_snapshot())
    }

    /// Restore a runtime from [`Runtime::save_snapshot`] bytes. The
    /// container is verified (magic, version, length, content hash) before
    /// any payload byte is interpreted; decoded state is cross-checked
    /// (topology invariants, slot-array alignment, inbox senders must be
    /// live members) so a corrupt-but-well-framed payload fails loudly
    /// instead of building an inconsistent runtime.
    ///
    /// `cfg` supplies only the execution policy: `parallel` and `threads`
    /// are honored (restore at any thread count — results are identical by
    /// the engine's determinism argument), while `seed`, `strict`, and
    /// `record_rounds` are pinned from the snapshot (changing them would
    /// diverge from the uninterrupted run).
    ///
    /// What the caller re-attaches, because it is code, not data:
    ///
    /// * **Scheduler** — restored runtimes start on the synchronous daemon;
    ///   install another via [`Runtime::set_scheduler`]. Safe for any
    ///   equivalence-claiming scheduler: they are stateless and the dirty
    ///   set round-trips exactly.
    /// * **Spawner / shadow check** — re-register via
    ///   [`Runtime::set_spawner`] / [`Runtime::enable_shadow_check`]
    ///   (protocol crates' restore helpers do this).
    /// * **Workload** — if the snapshot had traffic attached,
    ///   [`Runtime::step`] panics until [`Runtime::attach_workload`] is
    ///   called with a generator of the saved type; the saved queues, RNG
    ///   and generator state resume exactly (see
    ///   [`Runtime::pending_workload`]).
    pub fn restore_snapshot(bytes: &[u8], cfg: Config) -> Result<Self, SnapshotError> {
        let payload = snapshot::unseal(bytes)?;
        let mut r = Reader::new(payload);
        let cfg = Config {
            seed: r.u64()?,
            strict: r.bool()?,
            record_rounds: r.bool()?,
            ..cfg
        };
        let topo = Topology::restore_state(&mut r)?;
        let n = r.seq()?;
        if n != topo.slot_count() {
            return Err(SnapshotError::Corrupt(format!(
                "slot arrays ({n}) misaligned with topology ({})",
                topo.slot_count()
            )));
        }
        let mut rngs = Vec::with_capacity(n);
        let mut programs: Vec<Option<P>> = Vec::with_capacity(n);
        let mut inboxes: InboxArena<P::Msg> = InboxArena::new(n);
        let mut sent_to: Vec<Vec<u32>> = std::iter::repeat_with(Vec::new).take(n).collect();
        for i in 0..n {
            let mut st = [0u64; 4];
            for s in &mut st {
                *s = r.raw64()?;
            }
            rngs.push(SmallRng::from_state(st));
            programs.push(Option::load(&mut r)?);
            // Pending messages land straight in the arena; the sender-slot
            // mirror and `sent_to` are re-derived from the sender ids
            // against the restored membership as we go.
            let pending = r.seq()?;
            for _ in 0..pending {
                let (from, msg) = <(NodeId, P::Msg)>::load(&mut r)?;
                let fs = topo.slot_of(from).ok_or_else(|| {
                    SnapshotError::Corrupt(format!("pending message from non-member {from}"))
                })?;
                inboxes.push(i, from, fs.index() as u32, msg);
                sent_to[fs.index()].push(i as u32);
            }
        }
        let round = r.u64()?;
        let metrics = RunMetrics::load(&mut r)?;
        let dirty_list = Vec::<u32>::load(&mut r)?;
        let timer_list = Vec::<(u64, u32, NodeId)>::load(&mut r)?;
        let req_reported = (r.u64()?, r.u64()?, r.u64()?);
        let pending_traffic = if r.bool()? {
            let wcfg = WorkloadConfig {
                ttl: r.u64()?,
                max_hops: r.u32()?,
                record_requests: r.bool()?,
            };
            let mut st = [0u64; 4];
            for s in &mut st {
                *s = r.raw64()?;
            }
            let next_id = r.u64()?;
            let queues = Vec::<Vec<Request>>::load(&mut r)?;
            if queues.len() != n {
                return Err(SnapshotError::Corrupt(format!(
                    "traffic queues ({}) misaligned with slots ({n})",
                    queues.len()
                )));
            }
            Some(PendingTraffic {
                wcfg,
                rng: SmallRng::from_state(st),
                next_id,
                queues,
                gen_name: r.str()?,
                gen_bytes: r.bytes()?.to_vec(),
            })
        } else {
            None
        };
        let net = NetModel::load(&mut r)?;
        let mut nst = [0u64; 4];
        for s in &mut nst {
            *s = r.raw64()?;
        }
        let net_rng = SmallRng::from_state(nst);
        let partition = Option::<Vec<NodeId>>::load(&mut r)?;
        let nbuckets = r.seq()?;
        let mut transit: BTreeMap<u64, Vec<Transit<P::Msg>>> = BTreeMap::new();
        let mut transit_count = 0u64;
        for _ in 0..nbuckets {
            let due = r.u64()?;
            let len = r.seq()?;
            let mut bucket = Vec::with_capacity(len.min(1024));
            for _ in 0..len {
                bucket.push(Transit {
                    to_slot: r.u32()?,
                    from_slot: r.u32()?,
                    from: r.u32()?,
                    to: r.u32()?,
                    msg: <P::Msg as Persist>::load(&mut r)?,
                });
            }
            transit_count += bucket.len() as u64;
            if transit.insert(due, bucket).is_some() {
                return Err(SnapshotError::Corrupt(format!(
                    "duplicate in-transit bucket for round {due}"
                )));
            }
        }
        let nbw = r.seq()?;
        let mut bw_state: BTreeMap<(NodeId, NodeId), (u64, u32)> = BTreeMap::new();
        for _ in 0..nbw {
            let a = r.u32()?;
            let b = r.u32()?;
            let state = (r.u64()?, r.u32()?);
            if bw_state.insert((a, b), state).is_some() {
                return Err(SnapshotError::Corrupt(format!(
                    "duplicate bandwidth state for channel {a} -> {b}"
                )));
            }
        }
        r.finish()?;

        // ---- Cross-checks and derived state.
        for (i, program) in programs.iter().enumerate() {
            let live = topo.is_live(NodeSlot::new(i));
            if live != program.is_some() {
                return Err(SnapshotError::Corrupt(format!(
                    "slot {i}: program presence disagrees with topology liveness"
                )));
            }
            if !live && !inboxes.is_empty(i) {
                return Err(SnapshotError::Corrupt(format!(
                    "slot {i}: free slot holds pending messages"
                )));
            }
        }
        let inflight = inboxes.total_len() as u64;
        let mut dirty = vec![false; n];
        for &i in &dirty_list {
            let i = i as usize;
            if i >= n {
                return Err(SnapshotError::Corrupt(format!(
                    "dirty slot {i} out of range"
                )));
            }
            if std::mem::replace(&mut dirty[i], true) {
                return Err(SnapshotError::Corrupt(format!(
                    "dirty slot {i} listed twice"
                )));
            }
        }
        let mut timers = BinaryHeap::with_capacity(timer_list.len());
        for (due, slot, id) in timer_list {
            if slot as usize >= n {
                return Err(SnapshotError::Corrupt(format!(
                    "timer slot {slot} out of range"
                )));
            }
            timers.push(Reverse((due, slot, id)));
        }
        if let Some(p) = &pending_traffic {
            for (i, q) in p.queues.iter().enumerate() {
                if !q.is_empty() && !topo.is_live(NodeSlot::new(i)) {
                    return Err(SnapshotError::Corrupt(format!(
                        "slot {i}: free slot holds in-flight requests"
                    )));
                }
            }
        }
        for (&due, bucket) in &transit {
            if due < round {
                return Err(SnapshotError::Corrupt(format!(
                    "in-transit bucket due round {due} is before current round {round}"
                )));
            }
            for t in bucket {
                let fs = topo.slot_of(t.from).map(|s| s.index() as u32);
                let ts = topo.slot_of(t.to).map(|s| s.index() as u32);
                if fs != Some(t.from_slot) || ts != Some(t.to_slot) {
                    return Err(SnapshotError::Corrupt(format!(
                        "in-transit message {} -> {} disagrees with membership",
                        t.from, t.to
                    )));
                }
            }
        }
        if metrics.net.in_transit != transit_count {
            return Err(SnapshotError::Corrupt(format!(
                "metrics claim {} in-transit messages but the delay queue holds {}",
                metrics.net.in_transit, transit_count
            )));
        }
        // Quiescence flags are a pure function of the program states (the
        // runtime syncs them at every step/join/corruption), so recompute
        // rather than trust the payload.
        let quiescent: Vec<bool> = programs
            .iter()
            .map(|p| p.as_ref().is_some_and(Program::is_quiescent))
            .collect();
        let quiescent_count = quiescent.iter().filter(|&&q| q).count();

        let threads = cfg.effective_threads();
        Ok(Self {
            cfg,
            topo,
            programs,
            rngs,
            inboxes,
            sinks: Vec::new(),
            plan: sched::ChunkPlan::default(),
            est_ns_per_act: 0.0,
            par_rounds: 0,
            seq_rounds: 0,
            delivery_cuts: Vec::new(),
            sent_to,
            inflight,
            round,
            metrics,
            spawner: None,
            pool: (threads > 1).then(|| ThreadPool::new(threads)),
            sched: Box::new(sched::Synchronous),
            dirty,
            dirty_list,
            dirty_sorted: Vec::with_capacity(n),
            selection: Vec::with_capacity(n),
            selected: vec![false; n],
            quiescent,
            quiescent_count,
            timers,
            shadow: None,
            traffic: None,
            req_reported,
            pending_traffic,
            net,
            net_rng,
            transit,
            transit_count,
            transit_pool: Vec::new(),
            partition,
            bw_state,
        })
    }

    /// [`Runtime::restore_snapshot`] from a file.
    pub fn restore_snapshot_from(
        path: impl AsRef<std::path::Path>,
        cfg: Config,
    ) -> Result<Self, SnapshotError> {
        Self::restore_snapshot(&snapshot::read_file(path.as_ref())?, cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Flooding program: forward a token to all neighbors once.
    #[derive(Default, Clone)]
    struct Flood {
        has: bool,
        announced: bool,
    }

    impl Program for Flood {
        type Msg = ();

        fn step(&mut self, ctx: &mut Ctx<'_, ()>) {
            if !ctx.inbox().is_empty() {
                self.has = true;
            }
            if self.has && !self.announced {
                self.announced = true;
                for &v in &Vec::from(ctx.neighbors()) {
                    ctx.send(v, ());
                }
            }
        }

        fn is_quiescent(&self) -> bool {
            self.has
        }
    }

    fn line_runtime(n: u32) -> Runtime<Flood> {
        let nodes = (0..n).map(|i| {
            (
                i,
                Flood {
                    has: i == 0,
                    announced: false,
                },
            )
        });
        Runtime::new(Config::default(), nodes, (0..n - 1).map(|i| (i, i + 1)))
    }

    impl Persist for Flood {
        fn save(&self, w: &mut Writer) {
            w.bool(self.has);
            w.bool(self.announced);
        }
        fn load(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
            Ok(Self {
                has: r.bool()?,
                announced: r.bool()?,
            })
        }
    }

    /// Burst program: floods 256 copies to every neighbor on its first
    /// activation, then goes quiescent — a one-round memory spike.
    #[derive(Default, Clone)]
    struct Burst {
        fired: bool,
    }

    impl Program for Burst {
        type Msg = ();

        fn step(&mut self, ctx: &mut Ctx<'_, ()>) {
            if !self.fired {
                self.fired = true;
                for &v in &Vec::from(ctx.neighbors()) {
                    for _ in 0..256 {
                        ctx.send(v, ());
                    }
                }
            }
        }

        fn is_quiescent(&self) -> bool {
            self.fired
        }
    }

    #[test]
    fn inbox_memory_returns_near_baseline_after_burst() {
        // Capacity-retention regression (the pre-arena engine kept every
        // inbox Vec at its high-water capacity forever): a one-round burst
        // inflates the arena, then idle rounds must hand the slack back
        // down to the shrink policy's warm watermark.
        let n = 32u32;
        let mut rt = Runtime::<Burst>::new(
            Config::default(),
            (0..n).map(|i| (i, Burst::default())),
            (0..n - 1).map(|i| (i, i + 1)),
        );
        let baseline = rt.mem_footprint().inboxes;
        rt.run(1); // every node fires: ~15k messages land at once
        let peak = rt.mem_footprint().inboxes;
        assert!(
            peak > baseline.max(1) * 4,
            "burst must inflate the arena: {baseline} -> {peak}"
        );
        // Consume the burst, then idle: maybe_shrink strips cold buffers.
        rt.run(8);
        assert!(rt.is_silent(), "burst must have drained");
        let idle = rt.mem_footprint().inboxes;
        assert!(
            idle * 2 <= peak,
            "idle arena retains {idle} of peak {peak} bytes"
        );
    }

    #[test]
    fn mem_footprint_accounts_every_subsystem() {
        let mut rt = line_runtime(24);
        let fresh = rt.mem_footprint();
        assert!(fresh.topology > 0, "adjacency storage is allocated");
        assert!(fresh.programs > 0);
        assert_eq!(fresh.workload, 0, "no workload attached");
        rt.run(5);
        let warm = rt.mem_footprint();
        assert!(warm.inboxes > 0, "flood traffic paged the arena");
        assert_eq!(
            warm.total(),
            warm.topology
                + warm.programs
                + warm.inboxes
                + warm.transit
                + warm.workload
                + warm.engine
        );
    }

    #[test]
    fn snapshot_mid_flood_continues_byte_identically() {
        // Interrupt a flood mid-propagation (messages in flight, dirty set
        // populated) and check the restored run finishes with metrics
        // byte-identical to the uninterrupted one — including a restore
        // into a different thread count.
        let mut full = line_runtime(24);
        full.run(30);
        let full_json = serde_json::to_string(full.metrics()).unwrap();

        let mut a = line_runtime(24);
        a.run(7); // mid-flood: the token is still traveling
        let snap = a.save_snapshot();
        assert_eq!(snap, a.save_snapshot(), "snapshot bytes are deterministic");
        for threads in [1usize, 3] {
            let mut b =
                Runtime::<Flood>::restore_snapshot(&snap, Config::default().threads(threads))
                    .unwrap();
            assert_eq!(b.round(), 7);
            assert_eq!(b.threads(), threads);
            b.run(23);
            let b_json = serde_json::to_string(b.metrics()).unwrap();
            assert_eq!(b_json, full_json, "threads={threads}");
        }
        // save ∘ restore is the identity on the bytes.
        let b = Runtime::<Flood>::restore_snapshot(&snap, Config::default()).unwrap();
        assert_eq!(b.save_snapshot(), snap);
    }

    #[test]
    fn snapshot_roundtrips_membership_churn_and_timers() {
        let mut a = line_runtime(16);
        a.run(3);
        a.leave(5);
        a.crash(11);
        a.join(100, Flood::default(), &[4, 6]);
        a.run(2);
        let snap = a.save_snapshot();
        let mut b = Runtime::<Flood>::restore_snapshot(&snap, Config::default()).unwrap();
        // Continue both: the free-list order must make future joins land in
        // the same slots, and metrics must stay in lockstep.
        for rt in [&mut a, &mut b] {
            rt.join(101, Flood::default(), &[100]);
            rt.run(10);
        }
        assert_eq!(
            serde_json::to_string(a.metrics()).unwrap(),
            serde_json::to_string(b.metrics()).unwrap()
        );
        assert_eq!(a.ids(), b.ids());
    }

    #[test]
    fn snapshot_rejects_tampering() {
        let mut rt = line_runtime(8);
        rt.run(3);
        let snap = rt.save_snapshot();
        // Flip one payload byte: hash check fires.
        let mut bad = snap.clone();
        let mid = snap.len() / 2;
        bad[mid] ^= 0x40;
        assert!(matches!(
            Runtime::<Flood>::restore_snapshot(&bad, Config::default()),
            Err(SnapshotError::HashMismatch { .. })
        ));
        // Truncate: length check fires.
        assert!(matches!(
            Runtime::<Flood>::restore_snapshot(&snap[..snap.len() - 5], Config::default()),
            Err(SnapshotError::Truncated)
        ));
    }

    /// `run_monitored` on a plain predicate, in the `Option<u64>` shape.
    fn run_to(
        rt: &mut Runtime<Flood>,
        pred: impl FnMut(&Runtime<Flood>) -> bool,
        max_rounds: u64,
    ) -> Option<u64> {
        rt.run_monitored(&mut crate::monitor::goal("until", pred), max_rounds)
            .rounds_if_satisfied()
    }

    #[test]
    fn flood_takes_diameter_rounds() {
        let mut rt = line_runtime(10);
        let done = run_to(
            &mut rt,
            |r| r.programs().all(|(_, p)| p.is_quiescent()),
            100,
        );
        // Token starts at node 0 and is sent in round 0; 9 message hops mean
        // node 9 receives during round 9, i.e. after the 10th step.
        assert_eq!(done, Some(10));
    }

    /// Regression pin for the `run_monitored` contract: the monitor observes
    /// *before* the first round (a satisfied start executes 0 rounds) and
    /// after every round (`max_rounds + 1` observations on timeout), and a
    /// timeout executes exactly `max_rounds` steps.
    #[test]
    fn run_monitored_observes_before_each_round_and_steps_exactly_max() {
        let mut rt = line_runtime(4);
        assert_eq!(run_to(&mut rt, |_| true, 10), Some(0));
        assert_eq!(rt.round(), 0);

        let mut checks = 0u64;
        let out = run_to(
            &mut rt,
            |_| {
                checks += 1;
                false
            },
            3,
        );
        assert_eq!(out, None);
        assert_eq!(rt.round(), 3, "timeout executes exactly max_rounds steps");
        assert_eq!(checks, 4, "observed before round 0 and after each round");

        // Satisfaction at the deadline still counts (no off-by-one).
        let mut rt = line_runtime(4);
        assert_eq!(run_to(&mut rt, |r| r.round() >= 2, 2), Some(2));
    }

    /// Program that introduces its two smallest neighbors each round.
    struct Introducer;

    impl Program for Introducer {
        type Msg = ();

        fn step(&mut self, ctx: &mut Ctx<'_, ()>) {
            let nb = ctx.neighbors();
            if nb.len() >= 2 {
                let (a, b) = (nb[0], nb[1]);
                ctx.link(a, b);
            }
        }
    }

    #[test]
    fn introductions_triangulate_a_path() {
        let nodes = (0..3u32).map(|i| (i, Introducer));
        let mut rt = Runtime::new(Config::default(), nodes, [(0, 1), (1, 2)]);
        rt.step();
        assert!(rt.topology().has_edge(0, 2), "node 1 introduced 0 and 2");
        assert_eq!(rt.metrics().total_links_added, 1);
    }

    /// Program that tries an illegal link (to a node two hops away).
    struct Cheater;

    impl Program for Cheater {
        type Msg = ();

        fn step(&mut self, ctx: &mut Ctx<'_, ()>) {
            if ctx.id == 0 {
                ctx.link(0, 2); // 2 is not a neighbor of 0 on a path 0-1-2
            }
        }
    }

    #[test]
    #[should_panic(expected = "illegal link")]
    fn illegal_link_panics_in_strict_mode() {
        let nodes = (0..3u32).map(|i| (i, Cheater));
        let mut rt = Runtime::new(Config::default(), nodes, [(0, 1), (1, 2)]);
        rt.step();
    }

    #[test]
    fn illegal_link_counted_in_lenient_mode() {
        let cfg = Config {
            strict: false,
            ..Config::default()
        };
        let nodes = (0..3u32).map(|i| (i, Cheater));
        let mut rt = Runtime::new(cfg, nodes, [(0, 1), (1, 2)]);
        rt.step();
        assert!(!rt.topology().has_edge(0, 2));
        assert_eq!(rt.metrics().total_violations, 1);
    }

    #[test]
    fn parallel_matches_sequential() {
        let run = |threads: usize| {
            let cfg = Config::default().threads(threads);
            let nodes = (0..64u32).map(|i| {
                (
                    i,
                    Flood {
                        has: i == 0,
                        announced: false,
                    },
                )
            });
            let mut rt = Runtime::new(cfg, nodes, (0..63u32).map(|i| (i, i + 1)));
            assert_eq!(rt.threads(), threads);
            rt.run(70);
            (rt.metrics().total_messages, rt.topology().edges())
        };
        assert_eq!(run(1), run(2));
        assert_eq!(run(1), run(4));
    }

    /// A strict-mode violation on a pool worker must surface on the driving
    /// thread with its original message, exactly like in sequential mode.
    #[test]
    #[should_panic(expected = "illegal link")]
    fn illegal_link_panics_identically_in_parallel_mode() {
        let nodes = (0..8u32).map(|i| (i, Cheater));
        let cfg = Config::default().threads(4);
        let mut rt = Runtime::new(cfg, nodes, (0..7u32).map(|i| (i, i + 1)));
        rt.step();
    }

    #[test]
    fn unlink_then_link_same_round_keeps_edge() {
        struct Churner;
        impl Program for Churner {
            type Msg = ();
            fn step(&mut self, ctx: &mut Ctx<'_, ()>) {
                if ctx.id == 1 {
                    // Remove (1,0) but also re-introduce it: link wins.
                    ctx.unlink(0);
                    ctx.link(1, 0);
                }
            }
        }
        let nodes = (0..2u32).map(|i| (i, Churner));
        let mut rt = Runtime::new(Config::default(), nodes, [(0, 1)]);
        rt.step();
        assert!(rt.topology().has_edge(0, 1));
    }

    #[test]
    fn determinism_across_runs() {
        let go = || {
            let mut rt = line_runtime(16);
            rt.run(20);
            rt.metrics().total_messages
        };
        assert_eq!(go(), go());
    }

    #[test]
    fn join_grows_network_and_flood_reaches_newcomer() {
        let mut rt = line_runtime(4);
        rt.run(2);
        rt.join(
            9,
            Flood {
                has: false,
                announced: false,
            },
            &[3],
        );
        assert_eq!(rt.ids().len(), 5);
        assert!(rt.topology().has_edge(3, 9));
        assert_eq!(rt.metrics().joins, 1);
        rt.run(10);
        assert!(rt.program(9).has, "flood token must reach the joiner");
    }

    #[test]
    #[should_panic(expected = "already a member")]
    fn duplicate_join_panics() {
        let mut rt = line_runtime(3);
        rt.join(1, Flood::default(), &[0]);
    }

    #[test]
    fn join_skips_vanished_attach_targets() {
        let mut rt = line_runtime(3);
        rt.leave(2);
        rt.join(7, Flood::default(), &[2, 1]);
        assert!(!rt.topology().contains(2));
        assert!(rt.topology().has_edge(7, 1), "surviving target attached");
    }

    #[test]
    fn leave_removes_node_edges_and_in_flight_messages() {
        let mut rt = line_runtime(4);
        rt.step(); // node 0 announces to 1; message (0 -> 1) in flight
        assert!(!rt.is_silent());
        let gone = rt.leave(0).expect("member leaves");
        assert!(gone.has);
        let mut ids = rt.ids().to_vec();
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 2, 3]);
        assert!(rt.is_silent(), "messages from the leaver die with it");
        assert_eq!(rt.metrics().leaves, 1);
        rt.run(5); // survivors keep stepping against the shrunk network
        assert!(rt.topology().check_invariants());
        assert!(!rt.program(1).has, "token left with node 0");
    }

    #[test]
    fn leaver_inbox_messages_are_dropped_too() {
        let mut rt = line_runtime(4);
        rt.step(); // (0 -> 1) in flight
        assert!(!rt.is_silent());
        rt.leave(1).expect("receiver leaves");
        assert!(rt.is_silent(), "messages to the leaver die in its mailbox");
    }

    #[test]
    fn crash_counts_separately() {
        let mut rt = line_runtime(3);
        assert!(rt.crash(1).is_some());
        assert!(rt.crash(1).is_none(), "double crash is a no-op");
        assert_eq!(rt.metrics().crashes, 1);
        assert_eq!(rt.metrics().leaves, 0);
        // Node 1 was the middle of the line: survivors are disconnected but
        // the runtime stays well-formed and steppable.
        assert!(!rt.topology().is_connected());
        rt.run(3);
        assert!(rt.topology().check_invariants());
    }

    #[test]
    fn join_spawned_uses_registered_factory() {
        let mut rt = line_runtime(3).with_spawner(|_id| Flood {
            has: true,
            announced: false,
        });
        assert!(rt.has_spawner());
        rt.join_spawned(11, &[2]);
        assert!(rt.program(11).has);
        assert_eq!(rt.metrics().joins, 1);
    }

    #[test]
    fn rejoin_lands_in_the_recycled_slot() {
        let mut rt = line_runtime(6);
        let old = rt.topology().slot_of(2).expect("member");
        rt.leave(2);
        rt.join(2, Flood::default(), &[1, 3]);
        assert_eq!(
            rt.topology().slot_of(2),
            Some(old),
            "freed slot is recycled (LIFO), nothing shifts"
        );
        // Fresh joiners drain the free list before growing storage.
        rt.leave(4);
        rt.join(100, Flood::default(), &[3]);
        assert_eq!(rt.topology().slot_count(), 6, "no storage growth");
    }

    #[test]
    fn rejoin_replays_same_rng_stream() {
        // Two fresh runtimes: one leaves+rejoins node 2 before stepping, one
        // doesn't. Same seeds => same message totals.
        let go = |churn: bool| {
            let mut rt = line_runtime(8);
            if churn {
                rt.leave(2);
                rt.join(2, Flood::default(), &[1, 3]);
            }
            rt.run(20);
            rt.metrics().total_messages
        };
        assert_eq!(go(false), go(true));
    }

    /// A well-behaved Flood (quiescent steps are no-ops) must behave
    /// identically under ActivityDriven and Synchronous — and spend far
    /// fewer activations once the flood has passed.
    #[test]
    fn activity_driven_matches_synchronous_on_flood() {
        let run = |activity: bool, threads: usize| {
            let nodes = (0..32u32).map(|i| {
                (
                    i,
                    Flood {
                        has: i == 0,
                        announced: false,
                    },
                )
            });
            let mut rt = Runtime::new(
                Config::default().threads(threads),
                nodes,
                (0..31u32).map(|i| (i, i + 1)),
            );
            if activity {
                rt.set_scheduler(Box::new(crate::sched::ActivityDriven));
            }
            rt.enable_shadow_check();
            rt.run(60);
            (
                rt.metrics().total_messages,
                rt.topology().edges(),
                rt.metrics().total_activations,
            )
        };
        let (sync_msgs, sync_edges, sync_acts) = run(false, 1);
        let (act_msgs, act_edges, act_acts) = run(true, 1);
        assert_eq!(sync_msgs, act_msgs);
        assert_eq!(sync_edges, act_edges);
        assert_eq!(sync_acts, 32 * 60, "synchronous: everyone, every round");
        // Waiting nodes are non-quiescent (has == false) and legitimately
        // step every round until the token arrives (Σ_v dist(0, v) ≈ 500
        // activations); the saving is the settled tail being free.
        assert!(
            act_acts < sync_acts / 2,
            "activity-driven must beat synchronous (got {act_acts} vs {sync_acts})"
        );
        // Parallel emit over a sparse selection is still bit-identical.
        let (par_msgs, par_edges, par_acts) = run(true, 4);
        assert_eq!(
            (par_msgs, par_edges, par_acts),
            (act_msgs, act_edges, act_acts)
        );
    }

    /// A program that claims quiescence while still having round-triggered
    /// work (the classic "silent beacon" bug) is caught by the debug
    /// shadow-step check the first time the scheduler skips it.
    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "shadow check is debug-only")]
    #[should_panic(expected = "is not a no-op")]
    fn shadow_check_catches_quiescence_liars() {
        /// Claims quiescence but fires a round-scheduled broadcast.
        #[derive(Clone)]
        struct Liar;
        impl Program for Liar {
            type Msg = ();
            fn step(&mut self, ctx: &mut Ctx<'_, ()>) {
                if ctx.round % 3 == 2 {
                    for k in 0..ctx.neighbors().len() {
                        let v = ctx.neighbors()[k];
                        ctx.send(v, ());
                    }
                }
            }
            fn is_quiescent(&self) -> bool {
                true // a lie: round 3k+2 steps send without any wake_me_in
            }
        }
        let mut rt = Runtime::new(Config::default(), (0..2u32).map(|i| (i, Liar)), [(0, 1)]);
        rt.set_scheduler(Box::new(crate::sched::ActivityDriven));
        rt.enable_shadow_check();
        // Round 0: both step (spawned-dirty), do nothing, claim quiescent.
        // Round 1: both skipped, shadow no-op — fine. Round 2: both
        // skipped, but their shadow step emits the broadcast — panic.
        rt.run(3);
    }

    /// Regression: the activity-driven selection must follow *member*
    /// order, not slot order. After a leave + rejoin the two orders
    /// diverge (`dense.swap_remove` permutes the member order), and an
    /// inbox-order-sensitive program would see same-round messages from
    /// two senders in different relative order — divergent final
    /// topologies — if the dirty set were applied by ascending slot.
    #[test]
    fn activity_driven_preserves_member_apply_order_after_churn() {
        /// Unlinks the first sender in its inbox; fires one send when armed.
        #[derive(Clone, Default)]
        struct FirstSenderUnlinker {
            fire: bool,
        }
        impl Program for FirstSenderUnlinker {
            type Msg = ();
            fn step(&mut self, ctx: &mut Ctx<'_, ()>) {
                if self.fire {
                    self.fire = false;
                    if let Some(&v) = ctx.neighbors().first() {
                        ctx.send(v, ());
                    }
                }
                if let Some(&(from, _)) = ctx.inbox().first() {
                    ctx.unlink(from);
                }
            }
            fn is_quiescent(&self) -> bool {
                !self.fire // honest: un-armed steps with empty inboxes no-op
            }
        }
        let run = |activity: bool| {
            let mut rt = Runtime::new(
                Config::default(),
                (0..5u32).map(|i| (i, FirstSenderUnlinker::default())),
                [(0, 1), (2, 1), (3, 4), (1, 3)],
            );
            if activity {
                rt.set_scheduler(Box::new(crate::sched::ActivityDriven));
            }
            rt.enable_shadow_check();
            rt.run(2); // settle the spawn wave
                       // Permute member order away from slot order: node 0 leaves
                       // (swap_remove moves the last member into its dense position)
                       // and rejoins into its recycled slot.
            rt.leave(0);
            rt.join(0, FirstSenderUnlinker::default(), &[1]);
            rt.run(2);
            // Arm 0 and 2: both send to node 1 in the same round; node 1
            // unlinks whichever sender its inbox lists first — which is
            // decided purely by apply order.
            rt.corrupt_node(0, |p| p.fire = true);
            rt.corrupt_node(2, |p| p.fire = true);
            rt.run(3);
            rt.topology().edges()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn wake_me_in_reactivates_quiescent_nodes() {
        /// Sends one pulse every 5 rounds via the timer API; quiescent in
        /// between.
        struct Periodic {
            pulses: u32,
        }
        impl Program for Periodic {
            type Msg = ();
            fn step(&mut self, ctx: &mut Ctx<'_, ()>) {
                if ctx.round.is_multiple_of(5) {
                    for k in 0..ctx.neighbors().len() {
                        let v = ctx.neighbors()[k];
                        ctx.send(v, ());
                    }
                    self.pulses += 1;
                }
                ctx.wake_me_in(5 - ctx.round % 5);
            }
            fn is_quiescent(&self) -> bool {
                true // no self-work beyond the armed timer
            }
        }
        let run = |activity: bool| {
            let mut rt = Runtime::new(
                Config::default(),
                (0..4u32).map(|i| (i, Periodic { pulses: 0 })),
                (0..3u32).map(|i| (i, i + 1)),
            );
            if activity {
                rt.set_scheduler(Box::new(crate::sched::ActivityDriven));
            }
            rt.run(21);
            (
                rt.programs().map(|(_, p)| p.pulses).collect::<Vec<_>>(),
                rt.metrics().total_messages,
            )
        };
        let sync = run(false);
        let act = run(true);
        assert_eq!(sync, act, "timer wake-ups reproduce the periodic work");
        assert_eq!(act.0, vec![5, 5, 5, 5], "rounds 0,5,10,15,20 pulse");
    }

    #[test]
    fn wake_timers_do_not_leak_across_slot_recycling() {
        /// Arms a far-future timer once, then stays quiet.
        struct Sleeper;
        impl Program for Sleeper {
            type Msg = ();
            fn step(&mut self, ctx: &mut Ctx<'_, ()>) {
                if ctx.round == 0 {
                    ctx.wake_me_in(10);
                }
            }
            fn is_quiescent(&self) -> bool {
                true
            }
        }
        let mut rt = Runtime::new(
            Config::default(),
            (0..3u32).map(|i| (i, Sleeper)),
            [(0, 1), (1, 2)],
        );
        rt.set_scheduler(Box::new(crate::sched::ActivityDriven));
        rt.step(); // everyone arms a timer for round 10
        rt.leave(1);
        rt.join(7, Sleeper, &[0]); // recycles node 1's slot
        rt.run(12); // node 1's timer must not activate node 7 spuriously…
        assert!(rt.topology().check_invariants());
        // …which is observable via the activation count: round 0 activates
        // all 3; round 1 activates {0, 2} (woken by the leave) and {7}
        // (woken by its join); round 10 activates only the two surviving
        // timer holders 0 and 2 — node 7 sits in the recycled slot of
        // node 1's timer and must not fire.
        let acts = rt.metrics().total_activations;
        assert_eq!(acts, 3 + 3 + 2, "stale timer fired: {acts} activations");
    }

    #[test]
    fn random_subset_delays_but_never_drops_messages() {
        let mut rt = Runtime::new(
            Config::default(),
            (0..2u32).map(|i| {
                (
                    i,
                    Flood {
                        has: i == 0,
                        announced: false,
                    },
                )
            }),
            [(0, 1)],
        );
        rt.set_scheduler(Box::new(crate::sched::RandomSubset::new(0.3, 77)));
        rt.run(60);
        // With p = 0.3 over 60 rounds both nodes were activated plenty
        // (P[never] ≈ 1e-9): the token must have traversed the edge.
        assert!(rt.program(1).has, "message reached node 1 eventually");
        assert!(rt.is_silent());
        assert!(rt.metrics().total_activations < 2 * 60);
    }

    #[test]
    fn quiescent_count_tracks_steps_joins_leaves_and_corruption() {
        let mut rt = line_runtime(4); // Flood: quiescent == has
        assert_eq!(rt.quiescent_nodes(), 1, "node 0 holds the token already");
        rt.run(5); // flood reaches everyone
        assert_eq!(rt.quiescent_nodes(), 4);
        assert!(rt.all_quiescent());
        rt.corrupt_node(2, |p| p.has = false);
        assert_eq!(rt.quiescent_nodes(), 3, "corruption re-evaluates");
        rt.leave(2);
        assert_eq!(rt.quiescent_nodes(), 3, "departed host was non-quiescent");
        rt.join(9, Flood::default(), &[1]);
        assert_eq!(rt.quiescent_nodes(), 3, "fresh joiner not quiescent");
        // Re-arm node 1's announcement so the token reaches the joiner.
        rt.corrupt_node(1, |p| p.announced = false);
        rt.run(3);
        assert!(rt.all_quiescent(), "flood re-covers the joiner");
    }

    #[test]
    fn per_round_metrics_record_activity_and_quiescence() {
        let mut rt = line_runtime(4);
        rt.set_scheduler(Box::new(crate::sched::ActivityDriven));
        rt.run(30);
        let rows = &rt.metrics().per_round;
        assert_eq!(rows[0].active_nodes, 4, "round 0: everyone spawned-dirty");
        assert_eq!(rows.last().unwrap().active_nodes, 0, "settled network");
        assert_eq!(rows.last().unwrap().quiescent_nodes, 4);
        assert_eq!(
            rt.metrics().total_activations,
            rows.iter().map(|r| r.active_nodes).sum::<u64>()
        );
    }

    #[test]
    fn scenario_free_scheduler_swap_mid_run() {
        let mut rt = line_runtime(8);
        rt.run(3);
        rt.set_scheduler(Box::new(crate::sched::ActivityDriven));
        assert_eq!(rt.scheduler_name(), "activity-driven");
        rt.run(20);
        assert!(rt.all_quiescent() && rt.is_silent());
        let settled = rt.metrics().total_activations;
        rt.set_scheduler(Box::new(crate::sched::Synchronous));
        rt.run(2);
        assert_eq!(
            rt.metrics().total_activations,
            settled + 16,
            "synchronous resumes stepping everyone"
        );
    }

    #[test]
    fn membership_preserves_parallel_equivalence() {
        let run = |threads: usize| {
            let cfg = Config::default().threads(threads);
            let nodes = (0..16u32).map(|i| {
                (
                    i,
                    Flood {
                        has: i == 0,
                        announced: false,
                    },
                )
            });
            let mut rt = Runtime::new(cfg, nodes, (0..15u32).map(|i| (i, i + 1)));
            rt.run(3);
            rt.leave(5);
            rt.join(20, Flood::default(), &[4, 6]);
            rt.run(30);
            (rt.metrics().total_messages, rt.topology().edges())
        };
        assert_eq!(run(1), run(2));
        assert_eq!(run(1), run(3));
    }
}
