//! The synchronous round engine, including the dynamic-membership surface:
//! hosts can [`Runtime::join`], [`Runtime::leave`], or [`Runtime::crash`]
//! mid-run, so churn is a first-class schedulable perturbation (see
//! [`crate::fault`] and [`crate::scenario`]) instead of something examples
//! fake with edge rewires.
//!
//! [`Runtime::step`] is orchestration: each stage of the round is owned by
//! the type that holds its state — `sched::Agenda` (dirty set, timers,
//! selection), `program::EmitSink` (the emit output), `arena::InboxArena`
//! (pending messages), `net::Wire` (network conditions, in-transit
//! buffer), `workload::Traffic` — and the runtime sequences them (see
//! ARCHITECTURE.md, "Execution model", for the stage table). The crate
//! docs describe the slot-based storage and the pluggable daemons.

use crate::arena::InboxArena;
use crate::metrics::{PerfCounters, RoundMetrics, RunMetrics};
use crate::monitor::{MonitorOutcome, RunVerdict};
use crate::net::{self, NetModel, Wire};
use crate::program::{EmitSink, Program, RoundStart, SlotRec};
use crate::sched::{self, Agenda, Scheduler};
use crate::snapshot::{self, Persist, Reader, SnapshotError, Writer};
use crate::topology::{NodeSlot, Topology};
use crate::workload::{Key, RouteStep, Router, Traffic, Workload, WorkloadConfig};
use crate::NodeId;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Runtime configuration: model strictness, determinism seed and metrics
/// granularity.
///
/// A `Config` is plain data (`Copy`); build one with [`Config::default`] or
/// [`Config::seeded`] and refine it with the builder methods. Every round
/// runs on the calling thread (ARCHITECTURE.md, "One execution thread").
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Panic on model violations (illegal links, sends to non-neighbors).
    /// When false, violations are dropped and counted in the metrics.
    pub strict: bool,
    /// Seed for all node PRNGs (node `v` gets `seed ⊕ splitmix(v)`).
    pub seed: u64,
    /// Record per-round metric rows (otherwise only aggregates are kept).
    pub record_rounds: bool,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            strict: true,
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

    /// Returns `self` unchanged: every round runs on the calling thread,
    /// whatever `n` is. Kept for `crates/bench/src/bin/benchmark`, which
    /// still passes a thread count; ROADMAP item 4(a) removes it.
    #[doc(hidden)]
    #[must_use]
    pub fn threads(self, _n: usize) -> Self {
        self
    }

    /// The run's private RNG stream number `tag`: every stream is derived
    /// from the one seed, so a run is a pure function of it. Node `v` draws
    /// from stream `v + 1` (at construction and at every join, so a
    /// re-joining host replays its stream); the wire and the workload have
    /// fixed tags of their own.
    pub(crate) fn stream(&self, tag: u64) -> SmallRng {
        SmallRng::seed_from_u64(self.seed ^ splitmix64(tag))
    }
}

/// The SplitMix64 finalizer: the one 64-bit mixer of the workspace.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// Audits one skipped node (by slot): returns `Some(reason)` if its `step`
/// would *not* have been a no-op. Built by [`Runtime::enable_shadow_check`]
/// (the closure captures the `P: Clone` capability so `step` itself needs
/// no extra bounds).
type ShadowFn<P> =
    Box<dyn Fn(&RoundStart<'_, <P as Program>::Msg>, usize, &P, &SmallRng) -> Option<String>>;

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
    /// Program state: the slot-parallel array (`size_of::<Option<P>>()`
    /// per slot of capacity) plus [`Program::RECORD_BYTES`] per live node,
    /// the record a program keeps out of line. Any other heap owned by
    /// protocol state (maps, lists, boxed payloads) is not visible to the
    /// engine.
    pub programs: usize,
    /// The paged inbox arena: pages, chains and free lists.
    pub inboxes: usize,
    /// The in-transit wheel: parked messages, bucket slack, and the
    /// recycled-bucket pool.
    pub transit: usize,
    /// Attached workload state: per-slot request queues and holder flags.
    pub workload: usize,
    /// Engine bookkeeping: RNGs, dirty set, selection scratch, timers,
    /// the emit sink.
    pub engine: usize,
}

impl MemFootprint {
    /// Sum over every subsystem.
    pub fn total(&self) -> usize {
        self.topology + self.programs + self.inboxes + self.transit + self.workload + self.engine
    }
}

/// The simulator: a set of node programs, the overlay topology, and inboxes.
///
/// All per-node state lives in slot-parallel arrays addressed by the
/// topology's [`NodeSlot`] assignment; the id → slot map is consulted only
/// at the membership boundary (join/leave/crash, id-keyed accessors) and at
/// message emission.
///
/// Each round, the installed [`Scheduler`] (default:
/// [`sched::Synchronous`]; see [`Runtime::set_scheduler`]) selects the
/// nodes to activate; only those run the emit phase and have their actions
/// applied. The runtime maintains the dirty set the
/// [`sched::ActivityDriven`] daemon feeds on under *every* scheduler, so
/// schedulers can be swapped mid-run (e.g. by a scenario event).
pub struct Runtime<P: Program> {
    cfg: Config,
    topo: Topology,
    /// Per-slot program; `None` for free slots.
    programs: Vec<Option<P>>,
    /// Per-slot PRNG (stale for free slots; reseeded from `(seed, id)` at
    /// join, so a re-joining host replays its private stream).
    rngs: Vec<SmallRng>,
    /// Who must run, who is at rest, who runs this round.
    agenda: Agenda,
    /// The emit stage's output, walked by the apply stages.
    emit: EmitSink<P::Msg>,
    /// Per-slot pending messages.
    inboxes: InboxArena<P::Msg>,
    /// Network conditions between emit and delivery (see [`crate::net`]).
    wire: Wire<P::Msg>,
    /// The request workload, if any (see [`Runtime::attach_workload`]).
    traffic: Option<Traffic>,
    /// The program's [`Router::route`], armed by
    /// [`Runtime::attach_workload`]: code, so never saved — a restored
    /// runtime holds its traffic without it until re-attached.
    route: Option<RouteOf<P>>,
    /// Request counters as of the last recorded round row (see
    /// [`crate::workload::RequestStats::report`]).
    req_reported: (u64, u64, u64),
    round: u64,
    metrics: RunMetrics,
    /// The installed daemon (see [`crate::sched`]).
    sched: Box<dyn Scheduler>,
    /// Builds programs for hosts that join mid-run (registered by protocol
    /// runtime builders; required for spawning joins from faults/scenarios).
    spawner: Option<Box<dyn FnMut(NodeId) -> P>>,
    /// Debug-mode shadow-step auditor (see [`Runtime::enable_shadow_check`]).
    shadow: Option<ShadowFn<P>>,
}

/// How a program of type `P` routes a request: [`Router::route`], as a
/// plain function the runtime can hold without the `P: Router` bound.
type RouteOf<P> = fn(&P, Key, &[NodeId]) -> RouteStep;

/// The one canonical walk over a round's emit output: every activation with
/// an effect, in selection order, first settles its own bookkeeping —
/// wake-up request, quiescence report — and then hands each of its sends,
/// in emission order, to `send`. The order of the marks it makes is
/// observable; what `send` does with a message is the only thing the
/// delivery paths differ in.
fn walk_emitted<T>(
    agenda: &mut Agenda,
    round: u64,
    slots: &[SlotRec],
    mut sends: impl Iterator<Item = T>,
    mut send: impl FnMut(&mut Agenda, T),
) {
    let mut cur = 0;
    for rec in slots {
        agenda.settle(round, rec.slot, rec.id, rec.wake_in, rec.quiescent);
        while cur < rec.sends_end {
            cur += 1;
            send(agenda, sends.next().expect("send cursor within the sink"));
        }
    }
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
        Self {
            cfg,
            rngs: ids.iter().map(|&v| cfg.stream(v as u64 + 1)).collect(),
            agenda: Agenda::new(programs.iter().map(Program::is_quiescent).collect()),
            emit: EmitSink::default(),
            inboxes: InboxArena::new(ids.len()),
            wire: Wire::new(cfg.stream(0x6E45_07ED)),
            traffic: None,
            route: None,
            req_reported: (0, 0, 0),
            round: 0,
            metrics: RunMetrics::new(topo.max_degree()),
            sched: Box::new(sched::Synchronous),
            spawner: None,
            shadow: None,
            programs: programs.into_iter().map(Some).collect(),
            topo,
        }
    }

    /// Install a daemon (see [`crate::sched`]); the default is
    /// [`sched::Synchronous`]. Safe at any point of a run: the dirty set is
    /// maintained under every scheduler, so every live non-quiescent node
    /// (and every pending message or armed timer) survives the swap.
    pub fn set_scheduler(&mut self, s: Box<dyn Scheduler>) {
        self.sched = s;
    }

    /// Name of the installed scheduler (for reports).
    pub fn scheduler_name(&self) -> &str {
        self.sched.name()
    }

    /// Live nodes currently reporting [`Program::is_quiescent`] — O(1),
    /// tracked incrementally (updated when a node steps, joins, departs, or
    /// is corrupted).
    pub fn quiescent_nodes(&self) -> usize {
        self.agenda.quiescent_count()
    }

    /// True iff every live node is quiescent — O(1). Combined with
    /// [`Runtime::is_silent`] this is the paper's silent-network condition.
    pub fn all_quiescent(&self) -> bool {
        self.agenda.quiescent_count() == self.topo.node_count()
    }

    /// Slots currently queued for activation (dirty set plus armed timers)
    /// — the work the [`sched::ActivityDriven`] daemon would perform.
    pub fn pending_activations(&self) -> usize {
        self.agenda.pending()
    }

    // ---- network conditions ------------------------------------------------

    /// Install a network-conditions model (see [`crate::net`]) from the
    /// next round on. Messages already in transit keep the delivery rounds
    /// they were scheduled with; only new sends see the new model. Safe at
    /// any point of a run and under any scheduler — all net decisions
    /// happen in canonical order, so results stay byte-identical under any
    /// equivalence-claiming scheduler.
    ///
    /// # Panics
    /// Panics if the model fails [`NetModel::validate`] (a probability
    /// outside `[0, 1]`, or a delivery bound that does not fit `u32`).
    pub fn set_net_model(&mut self, m: NetModel) {
        if let Err(e) = m.validate() {
            panic!("set_net_model: {e}");
        }
        self.wire.set_model(m);
    }

    /// Builder-style [`Runtime::set_net_model`].
    #[must_use]
    pub fn with_net_model(mut self, m: NetModel) -> Self {
        self.set_net_model(m);
        self
    }

    /// The installed network-conditions model.
    pub fn net_model(&self) -> NetModel {
        self.wire.model()
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
        self.metrics.net.in_transit
    }

    /// Per-subsystem heap accounting of the engine's resident state — the
    /// observable the memory-layout work optimizes (bytes/host at scale).
    /// Each stage's owner reports its own buffers.
    ///
    /// Numbers are capacity-based (allocated, not merely occupied) so
    /// retention pathologies show up, and inline-state approximations
    /// (`size_of`-based for programs plus their declared out-of-line
    /// record; other protocol-private heap such as a boxed zipper payload
    /// is invisible from here) keep the walk O(state) with no per-node
    /// virtual calls.
    pub fn mem_footprint(&self) -> MemFootprint {
        use std::mem::size_of;
        MemFootprint {
            topology: self.topo.heap_bytes(),
            programs: self.programs.capacity() * size_of::<Option<P>>()
                + self.topo.node_count() * P::RECORD_BYTES,
            inboxes: self.inboxes.heap_bytes(),
            transit: self.wire.transit_bytes(),
            workload: self.traffic.as_ref().map_or(0, Traffic::heap_bytes),
            engine: self.rngs.capacity() * size_of::<SmallRng>()
                + self.agenda.heap_bytes()
                + self.emit.heap_bytes(),
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
        self.mark_cut_endpoints(&side);
        self.wire.cut(&mut self.metrics.net, side);
        live
    }

    /// Remove the active partition and return whether there was one. Hosts
    /// with a formerly-cross-cut edge are marked dirty so stabilization
    /// traffic resumes promptly under activity-driven daemons.
    pub fn heal(&mut self) -> bool {
        let Some(side) = self.wire.heal() else {
            return false;
        };
        self.mark_cut_endpoints(&side);
        true
    }

    /// True iff a partition cut is active.
    pub fn partitioned(&self) -> bool {
        self.wire.partitioned()
    }

    /// Mark every live host with an edge crossing `side`'s cut dirty.
    fn mark_cut_endpoints(&mut self, side: &[NodeId]) {
        for k in 0..self.topo.node_count() {
            let (id, slot) = self.topo.live_entry(k);
            let nbrs = self.topo.neighbors_at(slot);
            if nbrs.iter().any(|&v| net::crosses(side, id, v)) {
                self.agenda.mark(slot.index());
            }
        }
    }

    /// Arm the debug-mode **shadow-step check**: whenever the installed
    /// scheduler claims equivalence with the synchronous daemon (see
    /// [`Scheduler::claims_equivalence`]), every live node it *skips* is
    /// audited by running `step()` on a throwaway clone with its actual
    /// inbox and neighbor snapshot, into a throwaway sink. The step must
    /// emit nothing (no sends, links, unlinks, violations, or wake-up
    /// requests), draw nothing from the PRNG, and leave the program
    /// quiescent; otherwise the round panics, naming the offending node —
    /// the program broke the [`Program::is_quiescent`] contract. Compiled
    /// out of release builds (`debug_assertions` only); protocol runtime
    /// builders arm it automatically in debug builds so the equivalence
    /// claim is continuously tested.
    pub fn enable_shadow_check(&mut self)
    where
        P: Clone,
    {
        self.shadow = Some(Box::new(|at, i, prog, rng| {
            let (mut clone, mut rng2) = (prog.clone(), rng.clone());
            let mut sink = EmitSink::default();
            let lenient = RoundStart {
                strict: false,
                ..*at
            };
            let SlotRec {
                violations,
                wake_in,
                quiescent,
                ..
            } = sink.step(&lenient, i, &mut clone, &mut rng2);
            let (sends, links, unlinks) = (sink.sends.len(), sink.links.len(), sink.unlinks.len());
            if sends + links + unlinks != 0 || violations != 0 || wake_in.is_some() {
                return Some(format!(
                    "emitted {sends} send(s), {links} link(s), {unlinks} unlink(s), \
                     {violations} violation(s), wake={wake_in:?}"
                ));
            }
            if rng2 != *rng {
                return Some("consumed PRNG draws".into());
            }
            if !quiescent {
                return Some("became non-quiescent".into());
            }
            None
        }));
    }

    /// The shadow-step check: audit every live node the scheduler skipped.
    #[cfg(debug_assertions)]
    fn audit_skipped(&self, at: &RoundStart<'_, P::Msg>) {
        let Some(shadow) = self
            .shadow
            .as_ref()
            .filter(|_| self.sched.claims_equivalence())
        else {
            return;
        };
        for k in 0..self.topo.node_count() {
            let (id, slot) = self.topo.live_entry(k);
            let i = slot.index();
            if self.agenda.is_selected(i) {
                continue;
            }
            let prog = self.programs[i].as_ref().expect("live slot");
            if let Some(why) = shadow(at, i, prog, &self.rngs[i]) {
                panic!(
                    "round {}: scheduler `{}` skipped node {id} whose step \
                     is not a no-op ({why}) — the program violates the \
                     Program::is_quiescent contract",
                    at.round,
                    self.sched.name()
                );
            }
        }
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
    /// routing happen in canonical order, and request-carrying hosts are
    /// marked dirty — so [`sched::ActivityDriven`] keeps serving traffic
    /// exactly like the synchronous daemon.
    ///
    /// On a live runtime, attaching replaces any previously attached
    /// workload **and its in-flight requests**. On a restored runtime that
    /// holds traffic ([`Runtime::pending_workload`]), it arms the router
    /// and **resumes** the saved workload; the `wcfg` argument is ignored,
    /// because continuing with different TTL/hop budgets would diverge from
    /// the uninterrupted run.
    ///
    /// # Panics
    /// Panics on a live runtime with requests in flight (drain first), and
    /// on a restored one unless `gen` is the saved generator as
    /// constructed: the same kind, rate and key space.
    pub fn attach_workload(&mut self, gen: impl Into<Workload>, wcfg: WorkloadConfig)
    where
        P: Router,
    {
        let gen = gen.into();
        match &self.traffic {
            Some(tr) if self.route.is_none() => tr.resume(&gen),
            _ => {
                assert_eq!(
                    self.metrics.requests.in_flight, 0,
                    "attach_workload: requests from a previous workload are still in flight"
                );
                // Continue the id sequence across re-attached workloads so
                // request ids stay monotone per run (every issued request,
                // under any workload, bumped the counter).
                let next_id = self.metrics.requests.issued;
                let rng = self.cfg.stream(0x770A_D10A);
                let slots = self.programs.len();
                self.traffic = Some(Traffic::new(wcfg, gen, rng, slots, next_id));
            }
        }
        self.route = Some(P::route);
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
    /// Panics if no workload is attached (attach [`Workload::Silent`]
    /// for purely manual traffic) or `origin` is not a member.
    pub fn inject_request(&mut self, origin: NodeId, key: Key) -> u64 {
        assert!(
            self.topo.contains(origin),
            "inject_request: origin {origin} is not a member"
        );
        let tr = self
            .traffic
            .as_mut()
            .expect("inject_request: no workload attached (Runtime::attach_workload)");
        // The request becomes ready at the next executed round (injection
        // happens between rounds here, at round start for generators).
        let (stats, agenda) = (&mut self.metrics.requests, &mut self.agenda);
        tr.issue(&self.topo, origin, key, self.round, stats, agenda)
    }

    /// Register the factory that builds programs for hosts joining mid-run
    /// (used by [`Runtime::join_spawned`], membership faults, and scenario
    /// joins). Protocol crates' runtime builders register one automatically.
    pub fn set_spawner(&mut self, f: impl FnMut(NodeId) -> P + 'static) {
        self.spawner = Some(Box::new(f));
    }

    /// Builder-style [`Runtime::set_spawner`].
    #[must_use]
    pub fn with_spawner(mut self, f: impl FnMut(NodeId) -> P + 'static) -> Self {
        self.set_spawner(f);
        self
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

    /// True iff this runtime holds traffic but no router: it was restored
    /// from a snapshot that had a workload attached, which has not been
    /// re-attached yet. Its requests are live state, but [`Runtime::step`]
    /// refuses to run until [`Runtime::attach_workload`] arms the router,
    /// which is code no snapshot byte can carry.
    pub fn pending_workload(&self) -> bool {
        self.traffic.is_some() && self.route.is_none()
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
        self.programs[self.member_slot(v)]
            .as_ref()
            .expect("live slot")
    }

    fn member_slot(&self, v: NodeId) -> usize {
        let slot = self.topo.slot_of(v);
        slot.unwrap_or_else(|| panic!("node {v} is not a member"))
            .index()
    }

    /// Iterate `(id, program)` pairs in member order, the order of
    /// [`Runtime::ids`].
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
        let i = self.member_slot(v);
        let prog = self.programs[i].as_mut().expect("live slot");
        f(prog);
        self.agenda.set_quiescent(i, prog.is_quiescent());
        self.agenda.mark(i);
    }

    /// Adversarially insert an edge, bypassing the introduction rule
    /// (transient fault). Counted as a perturbation in the metrics. Both
    /// endpoints are marked dirty when the edge is new.
    pub fn adversarial_add_edge(&mut self, a: NodeId, b: NodeId) -> bool {
        let changed = self.topo.add_edge(a, b);
        if changed {
            self.agenda.mark_edge(&self.topo, a, b);
        }
        changed
    }

    /// Adversarially delete an edge (transient fault). Both endpoints are
    /// marked dirty when the edge existed.
    pub fn adversarial_remove_edge(&mut self, a: NodeId, b: NodeId) -> bool {
        let changed = self.topo.remove_edge(a, b);
        if changed {
            self.agenda.mark_edge(&self.topo, a, b);
        }
        changed
    }

    /// Execute one round: *inject → wake timers → select → emit → apply
    /// edges → consume → arrivals → deliver → traffic → metrics*. Each
    /// stage is a call on the type that owns its state; the order below is
    /// the model.
    ///
    /// Steady-state rounds perform no heap allocation — every stage
    /// recycles its buffers — and all ordering-observable bookkeeping
    /// happens in canonical selection order.
    pub fn step(&mut self) {
        assert!(
            !self.pending_workload(),
            "step: this runtime was restored from a snapshot with in-flight traffic; \
             attach the saved workload first (Runtime::attach_workload)"
        );
        let round = self.round;

        // Inject this round's application requests before selection, so
        // origins are dirty in time to be activated this very round.
        if let Some(tr) = &mut self.traffic {
            tr.inject(
                round,
                &self.topo,
                &mut self.metrics.requests,
                &mut self.agenda,
            );
        }
        self.agenda.wake_due(round, &self.topo);
        self.agenda.select(self.sched.as_mut(), round, &self.topo);

        // Emit: the selected programs run against the round-start
        // snapshot. Illegal sends/links are rejected at emission (see
        // `Ctx`), so everything the sink holds below is valid.
        let at = RoundStart {
            round,
            strict: self.cfg.strict,
            topo: &self.topo,
            inboxes: &self.inboxes,
            quiescent: self.agenda.quiescent_flags(),
        };
        #[cfg(debug_assertions)]
        self.audit_skipped(&at);
        let selection = self.agenda.selection();
        self.emit
            .run(&at, selection, &mut self.programs, &mut self.rngs);
        let mut row = RoundMetrics {
            round,
            active_nodes: selection.len() as u64,
            ..RoundMetrics::default()
        };

        // Apply, with round-start snapshot semantics, walking only the
        // selection's output (a quiet network does not pay for its size):
        // edges first; then the activated inboxes are consumed (their
        // contents were read by this round's emit) before anything new
        // lands in them — due transit arrivals, then this round's sends.
        // With no message pending anywhere there is nothing to consume.
        self.apply_edges(&mut row);
        if self.inboxes.total_len() > 0 {
            for &slot in self.agenda.selection() {
                self.inboxes.consume(slot.index());
            }
        }
        let carried = self.inboxes.total_len();
        self.land_arrivals(round);
        self.deliver(round);
        row.messages = (self.inboxes.total_len() - carried) as u64;
        self.metrics.net.delivered += row.messages;

        // Traffic: advance held requests one hop over the post-apply
        // topology, in selection order.
        if let (Some(tr), Some(route)) = (&mut self.traffic, self.route) {
            let host = |i: usize| self.programs[i].as_ref().expect("selected slot is live");
            let route = |i, key, nb: &[NodeId]| route(host(i), key, nb);
            let (agenda, stats) = (&mut self.agenda, &mut self.metrics.requests);
            tr.serve(route, round, &self.topo, &self.wire, agenda, stats);
        }
        self.agenda.end_round();

        // Metrics.
        self.metrics
            .requests
            .report(&mut self.req_reported, &mut row);
        row.max_degree = self.topo.max_degree();
        row.total_edges = self.topo.edge_count();
        row.quiescent_nodes = self.agenda.quiescent_count() as u64;
        self.metrics.absorb(row, self.cfg.record_rounds);
        self.round += 1;
        // Bounded capacity release: after a burst subsides, surplus free
        // inbox pages drop their buffers so the arena footprint tracks the
        // *current* load, not the historical peak. O(1) when nothing is
        // over the watermark.
        self.inboxes.maybe_shrink();

        debug_assert!(self.topo.check_invariants());
        // Every pending message sits in a dirty slot (what departures purge
        // through) and has a member for its sender (they purged the rest).
        #[cfg(debug_assertions)]
        if let Err(e) = self.inboxes.validate(&self.topo, &self.agenda) {
            panic!("{e}");
        }
        // The message conservation law, at every round boundary (see
        // [`crate::net::NetStats`]).
        debug_assert!(self.wire.count_is_exact(&self.metrics.net));
        debug_assert!(
            self.metrics.net.conserved(),
            "message conservation law violated: {:?}",
            self.metrics.net
        );
        // The request conservation law, at every round boundary.
        if let Some(tr) = &self.traffic {
            let r = &self.metrics.requests;
            debug_assert_eq!(r.in_flight, tr.queued(), "in-flight counter vs queues");
            debug_assert!(tr.has_req_matches_queues(), "holder flags vs queues");
            debug_assert_eq!(
                r.issued,
                r.completed + r.failed + r.in_flight,
                "request conservation law violated"
            );
        }
    }

    /// Apply the emitted edge actions: all unlinks, then all links (an edge
    /// both removed and introduced in the same round ends up present).
    /// Every change marks both endpoints dirty for the next round.
    fn apply_edges(&mut self, row: &mut RoundMetrics) {
        let sink = &self.emit;
        let mut cur = 0;
        for rec in &sink.slots {
            row.violations += rec.violations;
            let end = rec.unlinks_end as usize;
            for &v in &sink.unlinks[cur..end] {
                if self.topo.remove_edge(rec.id, v) {
                    row.links_removed += 1;
                    self.agenda.mark_edge(&self.topo, rec.id, v);
                }
            }
            cur = end;
        }
        // The flat array already holds the links in selection-then-emission
        // order.
        for &(x, y) in &sink.links {
            if self.topo.add_edge(x, y) {
                row.links_added += 1;
                self.agenda.mark_edge(&self.topo, x, y);
            }
        }
    }

    /// Move the wire's due messages into their recipients' inboxes (see
    /// [`Wire::arrivals`] for why here and not later).
    fn land_arrivals(&mut self, round: u64) {
        let land = |o| self.inboxes.deliver(&mut self.agenda, o);
        self.wire
            .arrivals(&mut self.metrics.net, round, &self.topo, land);
    }

    /// Deliver this round's sends: one [`walk_emitted`], two per-send
    /// steps. Through an active wire every send needs a decision;
    /// otherwise each message is pushed inline.
    fn deliver(&mut self, round: u64) {
        let (agenda, stats) = (&mut self.agenda, &mut self.metrics.net);
        let EmitSink { slots, sends, .. } = &mut self.emit;
        stats.sent += sends.len() as u64;
        if self.wire.is_active() {
            walk_emitted(agenda, round, slots, sends.drain(..), |agenda, o| {
                let to = self.topo.id_at(NodeSlot::new(o.to_slot as usize));
                let to = to.expect("round-start recipient is a member");
                let land = |o| self.inboxes.deliver(agenda, o);
                self.wire.send(stats, round, to, o, land);
            });
        } else {
            walk_emitted(agenda, round, slots, sends.drain(..), |agenda, o| {
                self.inboxes.deliver(agenda, o);
            });
        }
    }

    /// Execution-machinery counters. Every round runs on the calling
    /// thread, so they read `{ syncs: 0, par_rounds: 0, seq_rounds:
    /// round }`. Kept for `crates/bench/src/bin/benchmark`, which still
    /// reads them; ROADMAP item 4(a) removes them with [`PerfCounters`].
    pub fn perf_counters(&self) -> PerfCounters {
        PerfCounters {
            syncs: 0,
            par_rounds: 0,
            seq_rounds: self.round,
        }
    }

    /// Run a fixed number of rounds.
    pub fn run(&mut self, rounds: u64) {
        for _ in 0..rounds {
            self.step();
        }
    }

    /// Run until `goal` holds or `max_rounds` elapse. The goal is evaluated
    /// *before* the first round (a runtime that already satisfies it
    /// executes 0 rounds) and after every round.
    ///
    /// This is the one run-to-goal driver, shared by every protocol crate;
    /// [`MonitorOutcome::rounds_if_satisfied`] gives the `Option<u64>`
    /// shape. (Runs that also apply scheduled events go through
    /// [`crate::Scenario::run`].)
    pub fn run_monitored(
        &mut self,
        mut goal: impl FnMut(&Runtime<P>) -> bool,
        max_rounds: u64,
    ) -> MonitorOutcome {
        let start = self.round;
        loop {
            let rounds = self.round - start;
            let verdict = if goal(self) {
                RunVerdict::Satisfied
            } else if rounds == max_rounds {
                RunVerdict::Timeout
            } else {
                self.step();
                continue;
            };
            return MonitorOutcome { rounds, verdict };
        }
    }

    // ---- dynamic membership ------------------------------------------------

    /// A new host joins the running network, attached to the existing hosts
    /// in `attach_to` (its bootstrap contacts). The attachment edges bypass
    /// the introduction rule — joining is an environment action, like a
    /// transient fault, not a protocol step. Unknown attach targets are
    /// skipped (they may have left in an earlier event); a join whose
    /// targets all vanished enters isolated, which the detector bank may then flag.
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
        let rng = self.cfg.stream(id as u64 + 1);
        let q = program.is_quiescent();
        if slot == self.programs.len() {
            // Fresh slot: grow the slot-parallel arrays in lockstep.
            self.programs.push(Some(program));
            self.rngs.push(rng);
            self.inboxes.ensure_slots(slot + 1);
            self.agenda.push_slot();
            if let Some(tr) = &mut self.traffic {
                tr.push_slot();
            }
        } else {
            // Recycled slot: the departure left the buffers empty.
            debug_assert!(self.programs[slot].is_none());
            debug_assert!(self.inboxes.is_empty(slot));
            debug_assert!(!self.agenda.is_quiescent(slot));
            debug_assert!(self.traffic.as_ref().is_none_or(|t| t.is_idle(slot)));
            self.programs[slot] = Some(program);
            self.rngs[slot] = rng;
        }
        self.agenda.set_quiescent(slot, q);
        // A joiner is "just spawned" — a wake-up condition in itself — and
        // its attachments change the contacts' neighborhoods.
        self.agenda.mark(slot);
        for &v in attach_to {
            if v != id && self.topo.contains(v) && self.topo.add_edge(id, v) {
                self.agenda.mark_edge(&self.topo, id, v);
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
        let spawner = self
            .spawner
            .as_mut()
            .expect("join_spawned: no spawner registered (Runtime::set_spawner)");
        let program = spawner(id);
        self.join(id, program, attach_to);
    }

    /// A host leaves the network gracefully: it and its incident edges are
    /// removed, undelivered messages to *and from* it are dropped (in the
    /// synchronous model a message is received only if its channel — the
    /// edge — still exists, and the channels died with the host). The final
    /// program state is returned to the caller ("retired").
    ///
    /// O(deg) membership work — the slot is pushed on the free list,
    /// nothing shifts, no index is rebuilt — plus the message purge: a scan
    /// of the dirty slots' inboxes (the only ones that can hold mail), which
    /// a burst of departures between two rounds shares (see
    /// [`crate::arena`]), and of the in-transit wheel.
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

    /// The departure shared by leave and crash: each owner drops what the
    /// host had with it — its requests, its inbox and the messages it sent
    /// (same channel-died semantics in the inboxes, found through the dirty
    /// list, and on the wire), its quiescence flag.
    fn remove_member(&mut self, id: NodeId) -> Option<P> {
        let slot_t = self.topo.slot_of(id)?;
        let slot = slot_t.index();
        // The survivors' neighborhoods are about to change: wake them.
        for &v in self.topo.neighbors_at(slot_t) {
            let vs = self.topo.slot_of(v).expect("neighbor is a member");
            self.agenda.mark(vs.index());
        }
        self.topo.remove_node(id);
        let program = self.programs[slot].take().expect("live slot");
        if let Some(tr) = &mut self.traffic {
            tr.drop_host(slot, self.round, &mut self.metrics.requests);
        }
        self.inboxes.retire(slot, id, self.agenda.dirty_list());
        self.wire.forget(&mut self.metrics.net, id);
        self.agenda.set_quiescent(slot, false);
        debug_assert!(self.topo.check_invariants());
        Some(program)
    }

    /// True iff no messages are pending in any inbox **or in transit**
    /// (no present or future round would deliver anything). O(1): both
    /// counts are tracked incrementally. Under the synchronous daemon on
    /// the ideal network every message is consumed the round after it is
    /// sent, so this coincides with the old "next round delivers nothing";
    /// under partial daemons it also covers messages waiting for a skipped
    /// recipient, and under WAN conditions it covers messages the network
    /// is still holding — a lossy quiet round must **not** read as
    /// converged while deliveries are still due.
    pub fn is_silent(&self) -> bool {
        self.inboxes.total_len() == 0 && self.metrics.net.in_transit == 0
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
    /// observe (see [`crate::snapshot`] for the inventory); each owner
    /// writes its own section, in a fixed order — the attached workload
    /// whole, generator included. Not captured (because they are code or
    /// caller policy): the spawner, the shadow check, the scheduler and the
    /// router — [`Runtime::restore_snapshot`] documents how each is
    /// re-attached.
    ///
    /// The bytes are deterministic: two identical runtimes serialize
    /// identically, so snapshot size is a meaningful, exactly reproducible
    /// metric (the E14b experiment records bytes/host from it).
    pub fn save_snapshot(&self) -> Vec<u8> {
        let mut w = Writer::new();
        // The whole config.
        w.u64(self.cfg.seed);
        w.bool(self.cfg.strict);
        w.bool(self.cfg.record_rounds);
        self.topo.save_state(&mut w);
        let n = self.topo.slot_count();
        w.seq(n);
        for i in 0..n {
            self.rngs[i].save(&mut w);
            self.programs[i].save(&mut w);
            self.inboxes.save_slot(i, &mut w);
        }
        w.u64(self.round);
        self.metrics.save(&mut w);
        self.agenda.save(&mut w);
        self.req_reported.save(&mut w);
        self.traffic.save(&mut w);
        self.wire.save(&mut w);
        w.seal()
    }

    /// [`Runtime::save_snapshot`] straight to a file (written atomically:
    /// temp file + rename, so a concurrent reader never sees a torn
    /// snapshot).
    pub fn save_snapshot_to(&self, path: impl AsRef<std::path::Path>) -> Result<(), SnapshotError> {
        snapshot::write_file(path.as_ref(), &self.save_snapshot())
    }

    /// Restore a runtime from [`Runtime::save_snapshot`] bytes. The
    /// container is verified (magic, version, length, content hash) before
    /// any payload byte is interpreted; decoded state is cross-checked by
    /// each owner's `validate` (topology invariants, slot-array alignment,
    /// live message endpoints, pending mail only in dirty slots,
    /// probabilities in range, counters that agree with each other) so a
    /// corrupt-but-well-framed payload — the content hash is not a MAC —
    /// fails loudly instead of building a runtime that a later `step`
    /// panics on or silently misreads.
    ///
    /// `cfg` is not read: every setting — `seed`, `strict` and
    /// `record_rounds` — comes from the snapshot (changing one would
    /// diverge from the uninterrupted run). The parameter is kept for
    /// `crates/bench/src/bin/benchmark`, which still passes one; ROADMAP
    /// item 4(a) removes it.
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
    /// * **Router** — if the snapshot had traffic attached, the restored
    ///   runtime holds it whole (generator, RNG, queues, config) as live
    ///   state, but [`Runtime::step`] panics until
    ///   [`Runtime::attach_workload`] re-supplies the saved generator as
    ///   constructed and so arms the router (see
    ///   [`Runtime::pending_workload`]).
    pub fn restore_snapshot(bytes: &[u8], _cfg: Config) -> Result<Self, SnapshotError> {
        let corrupt = |what: String| Err(SnapshotError::Corrupt(what));
        let mut r = Reader::new(snapshot::unseal(bytes)?);
        let cfg = Config {
            seed: r.u64()?,
            strict: r.bool()?,
            record_rounds: r.bool()?,
        };
        let topo = Topology::restore_state(&mut r)?;
        let n = r.seq()?;
        if n != topo.slot_count() {
            return corrupt(format!(
                "slot arrays ({n}) misaligned with topology ({})",
                topo.slot_count()
            ));
        }
        let mut rngs = Vec::with_capacity(n);
        let mut programs: Vec<Option<P>> = Vec::with_capacity(n);
        let mut inboxes = InboxArena::new(n);
        for i in 0..n {
            rngs.push(SmallRng::load(&mut r)?);
            programs.push(Option::load(&mut r)?);
            inboxes.load_slot(i, &mut r)?;
        }
        let round = r.u64()?;
        let metrics = RunMetrics::load(&mut r)?;
        let at_rest = |p: &Option<P>| p.as_ref().is_some_and(Program::is_quiescent);
        let agenda = Agenda::load(&mut r, programs.iter().map(at_rest).collect())?;
        let req_reported = Persist::load(&mut r)?;
        let traffic: Option<Traffic> = Persist::load(&mut r)?;
        let wire = Wire::load(&mut r)?;
        r.finish()?;

        if let Some(i) = (0..n).find(|&i| topo.is_live(NodeSlot::new(i)) != programs[i].is_some()) {
            return corrupt(format!(
                "slot {i}: program presence disagrees with topology liveness"
            ));
        }
        inboxes.validate(&topo, &agenda)?;
        metrics.requests.validate_reported(req_reported)?;
        if let Some(tr) = &traffic {
            tr.validate(&topo, round)?;
        }
        wire.validate(&topo, round, &metrics.net)?;
        Ok(Self {
            cfg,
            topo,
            programs,
            rngs,
            agenda,
            emit: EmitSink::default(),
            inboxes,
            wire,
            traffic,
            route: None,
            req_reported,
            round,
            metrics,
            sched: Box::new(sched::Synchronous),
            spawner: None,
            shadow: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::NetStats;
    use crate::workload::Request;
    use crate::{Ctx, RouteStep};

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

    /// Ring relay: folds its inbox into an accumulator, gossips it every
    /// third round off a `wake_me_in` timer, and routes requests clockwise —
    /// one small program that exercises timers, traffic and the wire.
    #[derive(Clone)]
    struct Relay {
        id: NodeId,
        acc: u32,
    }

    impl Program for Relay {
        type Msg = u32;

        fn step(&mut self, ctx: &mut Ctx<'_, u32>) {
            for &(from, m) in ctx.inbox() {
                self.acc = self.acc.wrapping_mul(31).wrapping_add(m ^ from);
            }
            if ctx.round.is_multiple_of(3) {
                for k in 0..ctx.neighbors().len() {
                    let v = ctx.neighbors()[k];
                    ctx.send(v, self.acc.wrapping_add(v));
                }
            }
            ctx.wake_me_in(3 - ctx.round % 3);
        }

        fn is_quiescent(&self) -> bool {
            true // all periodic work rides the armed timer
        }
    }

    impl Router for Relay {
        fn route(&self, key: Key, neighbors: &[NodeId]) -> RouteStep {
            if key == self.id {
                return RouteStep::Deliver;
            }
            let next = neighbors.iter().find(|&&v| v > self.id);
            next.or(neighbors.first())
                .map_or(RouteStep::Unroutable, |&v| RouteStep::Forward(v))
        }
    }

    impl Persist for Relay {
        fn save(&self, w: &mut Writer) {
            w.u32(self.id);
            w.u32(self.acc);
        }
        fn load(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
            Ok(Self {
                id: r.u32()?,
                acc: r.u32()?,
            })
        }
    }

    /// The side of the cut [`busy_runtime`] installs (members and
    /// non-members; distinctive so a test can find it in the payload).
    const BUSY_CUT: [NodeId; 5] = [2, 3, 101, 105, 109];
    const BUSY_LOSS: f64 = 0.0625;
    /// `content_hash` of [`busy_runtime`]'s sealed snapshot, captured when
    /// format version 6 saved the workload whole.
    const GOLDEN_HASH: u64 = 4_634_871_301_716_401_879;
    const BUSY_WCFG: WorkloadConfig = WorkloadConfig {
        ttl: 99,
        max_hops: 77,
        record_requests: true,
    };

    /// A 16-host relay ring mid-everything: a WAN model with delay, jitter,
    /// loss and duplication, an active partition, armed timers,
    /// an open-loop workload with requests in flight, one leave and one
    /// re-join — every snapshot section is populated.
    fn busy_runtime() -> Runtime<Relay> {
        let relay = |id| Relay { id, acc: 0 };
        let mut rt = Runtime::new(
            Config::seeded(11),
            (0..16u32).map(|i| (i, relay(i))),
            (0..16u32).map(|i| (i, (i + 1) % 16)),
        );
        rt.set_scheduler(Box::new(crate::sched::ActivityDriven));
        rt.set_net_model(NetModel {
            delay: 1,
            jitter: 2,
            loss: BUSY_LOSS,
            dup: 0.25,
        });
        rt.attach_workload(crate::workload::OpenLoop::new(1.5, 32), BUSY_WCFG);
        rt.run(4);
        rt.leave(5);
        rt.run(2);
        rt.join(5, relay(5), &[4, 6]);
        assert_eq!(rt.partition(BUSY_CUT), 2);
        rt.run(3);
        assert!(rt.in_transit() > 0 && !rt.is_silent() && rt.partitioned());
        assert!(rt.request_stats().in_flight > 0 && rt.pending_activations() > 0);
        assert!(rt.net_stats().duplicated > 0 && rt.net_stats().dropped_partition > 0);
        rt
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

    /// A program whose state lives behind a pointer, declared to the
    /// footprint through `RECORD_BYTES`.
    struct OutOfLine(Box<[u64; 8]>);

    impl Program for OutOfLine {
        type Msg = ();
        fn step(&mut self, _: &mut Ctx<'_, ()>) {
            self.0[0] += 1;
        }
        const RECORD_BYTES: usize = std::mem::size_of::<[u64; 8]>();
    }

    #[test]
    fn program_bytes_count_slots_by_capacity_and_records_by_live_node() {
        use std::mem::size_of;
        let n = 10u32;
        let nodes = (0..n).map(|i| (i, OutOfLine(Box::new([0; 8]))));
        let mut rt = Runtime::new(Config::default(), nodes, (0..n - 1).map(|i| (i, i + 1)));
        let pinned = |rt: &Runtime<OutOfLine>| {
            rt.programs.capacity() * size_of::<Option<OutOfLine>>()
                + rt.topology().node_count() * OutOfLine::RECORD_BYTES
        };
        assert_eq!(size_of::<Option<OutOfLine>>(), size_of::<usize>());
        assert_eq!(rt.mem_footprint().programs, pinned(&rt));
        let cap = rt.programs.capacity();
        assert!(rt.leave(3).is_some() && rt.leave(7).is_some());
        rt.run(2);
        assert_eq!(rt.programs.capacity(), cap, "a departure keeps its slot");
        assert_eq!(rt.topology().node_count(), n as usize - 2);
        assert_eq!(rt.mem_footprint().programs, pinned(&rt));
        assert_eq!(
            rt.mem_footprint().programs,
            cap * size_of::<usize>() + (n as usize - 2) * 64
        );
    }

    #[test]
    fn snapshot_mid_flood_continues_byte_identically() {
        // Interrupt a flood mid-propagation (messages in flight, dirty set
        // populated) and check the restored run finishes with metrics
        // byte-identical to the uninterrupted one.
        let mut full = line_runtime(24);
        full.run(30);
        let full_json = serde_json::to_string(full.metrics()).unwrap();

        let mut a = line_runtime(24);
        a.run(7); // mid-flood: the token is still traveling
        let snap = a.save_snapshot();
        assert_eq!(snap, a.save_snapshot(), "snapshot bytes are deterministic");
        let mut b = Runtime::<Flood>::restore_snapshot(&snap, Config::default()).unwrap();
        // save ∘ restore is the identity on the bytes.
        assert_eq!(b.save_snapshot(), snap);
        assert_eq!(b.round(), 7);
        b.run(23);
        let b_json = serde_json::to_string(b.metrics()).unwrap();
        assert_eq!(b_json, full_json);
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

        // The format itself is pinned: a run that populates every section
        // (wire, partition, timers, traffic, churned slots) seals to the
        // bytes the engine has always written, and restore → save is the
        // identity on them.
        let snap = busy_runtime().save_snapshot();
        assert_eq!(
            snapshot::content_hash(&snap),
            GOLDEN_HASH,
            "the sealed snapshot bytes changed"
        );
        let back = Runtime::<Relay>::restore_snapshot(&snap, Config::default()).unwrap();
        assert!(back.pending_workload());
        assert_eq!(back.save_snapshot(), snap);
    }

    /// A restored runtime holds its traffic as live state before the
    /// workload is re-attached: a join into a fresh slot grows the request
    /// queues with every other slot array, so the resumed run matches one
    /// that was never saved, and the memory account counts the queues.
    #[test]
    fn restored_traffic_admits_a_fresh_slot_join_before_reattach() {
        let mut live = busy_runtime();
        let snap = live.save_snapshot();
        let mut back = Runtime::<Relay>::restore_snapshot(&snap, Config::default()).unwrap();
        assert!(back.pending_workload() && back.request_stats().in_flight > 0);
        assert!(
            back.mem_footprint().workload > 0,
            "the restored queues count"
        );
        let slots = back.topology().slot_count();
        for rt in [&mut live, &mut back] {
            rt.join(16, Relay { id: 16, acc: 0 }, &[15, 0]);
            assert_eq!(rt.topology().slot_count(), slots + 1, "a fresh slot");
        }
        back.set_scheduler(Box::new(crate::sched::ActivityDriven));
        back.attach_workload(crate::workload::OpenLoop::new(1.5, 32), BUSY_WCFG);
        for rt in [&mut live, &mut back] {
            rt.run(8);
        }
        assert_eq!(
            serde_json::to_string(back.metrics()).unwrap(),
            serde_json::to_string(live.metrics()).unwrap()
        );
    }

    /// A holder that departs from a restored runtime before the workload
    /// is re-attached takes its requests with it, counted as
    /// `failed_departed`, and the rest drain within the TTL.
    #[test]
    fn restored_traffic_fails_a_departed_holders_requests() {
        let relay = |id| Relay { id, acc: 0 };
        let mut rt = Runtime::new(
            Config::seeded(11),
            (0..16u32).map(|i| (i, relay(i))),
            (0..16u32).map(|i| (i, (i + 1) % 16)),
        );
        rt.attach_workload(crate::workload::Silent, BUSY_WCFG);
        rt.run(2);
        for (holder, key) in [(3, 9), (3, 20), (7, 12)] {
            rt.inject_request(holder, key);
        }
        let snap = rt.save_snapshot();
        let mut back = Runtime::<Relay>::restore_snapshot(&snap, Config::default()).unwrap();
        back.leave(3);
        let s = back.request_stats();
        assert_eq!((s.failed_departed, s.in_flight), (2, 1));
        back.attach_workload(crate::workload::Silent, BUSY_WCFG);
        back.run(BUSY_WCFG.ttl);
        let s = back.request_stats();
        assert_eq!((s.completed, s.failed, s.in_flight), (1, 2, 0));
    }

    /// Re-attaching after a restore resumes the saved generator, so it must
    /// be that generator as constructed: another rate would diverge.
    #[test]
    #[should_panic(expected = "would diverge")]
    fn reattach_with_another_rate_panics() {
        let snap = busy_runtime().save_snapshot();
        let mut back = Runtime::<Relay>::restore_snapshot(&snap, Config::default()).unwrap();
        back.attach_workload(crate::workload::OpenLoop::new(2.0, 32), BUSY_WCFG);
    }

    /// A well-framed, re-sealed payload is outside input (the content hash
    /// is not a MAC): values `step` would later panic on, or silently
    /// misread, must fail the restore instead.
    #[test]
    fn restore_rejects_resealed_payloads_step_would_choke_on() {
        let rt = busy_runtime();
        let snap = rt.save_snapshot();
        let enc = |f: &dyn Fn(&mut Writer)| {
            let mut w = Writer::new();
            f(&mut w);
            w.into_bytes()
        };
        let r = rt.request_stats();
        let (issued, completed, failed) = (r.issued, r.completed, r.failed);
        // The reported-requests triple sits right before the traffic
        // section, which opens with the workload config.
        let reported = |issued: u64| {
            enc(&|w| {
                for v in [issued, completed, failed] {
                    w.u64(v);
                }
                w.bool(true);
                w.u64(BUSY_WCFG.ttl);
                w.u32(BUSY_WCFG.max_hops);
            })
        };
        let mut unsorted = BUSY_CUT;
        unsorted.swap(0, 2);
        // A queued request issued after the saved round would underflow
        // `serve`'s age computation.
        let req = *rt.traffic.as_ref().unwrap().held().next().unwrap();
        let request = |issued_round| {
            enc(&|w| {
                Request {
                    issued_round,
                    ..req
                }
                .save(w)
            })
        };
        // The in-transit count lives in the metrics alone; the wire's
        // buffer must hold exactly that many messages, and the counters
        // must balance.
        let net = rt.net_stats();
        let net_stats = |s: NetStats| enc(&|w| s.save(w));
        let cases = [
            (
                "loss probability outside [0, 1]",
                enc(&|w| w.f64(BUSY_LOSS)),
                enc(&|w| w.f64(1.5)),
            ),
            (
                "unsorted partition side",
                enc(&|w| Some(BUSY_CUT.to_vec()).save(w)),
                enc(&|w| Some(unsorted.to_vec()).save(w)),
            ),
            (
                "more requests reported than issued",
                reported(issued),
                reported(issued + 1),
            ),
            (
                "request issued after the saved round",
                request(req.issued_round),
                request(rt.round() + 5),
            ),
            (
                "in-transit count above the wire's",
                net_stats(net),
                net_stats(NetStats {
                    in_transit: net.in_transit + 1,
                    ..net
                }),
            ),
            (
                "sent count that breaks the conservation law",
                net_stats(net),
                net_stats(NetStats {
                    sent: net.sent + 1,
                    ..net
                }),
            ),
        ];
        for (what, find, put) in cases {
            assert_eq!(find.len(), put.len(), "{what}: patch keeps the framing");
            let mut payload = snapshot::unseal(&snap).unwrap().to_vec();
            let hits: Vec<usize> = (0..=payload.len() - find.len())
                .filter(|&i| payload[i..i + find.len()] == find[..])
                .collect();
            assert_eq!(hits.len(), 1, "{what}: pattern must be unique");
            payload[hits[0]..hits[0] + put.len()].copy_from_slice(&put);
            let out =
                Runtime::<Relay>::restore_snapshot(&snapshot::seal(payload), Config::default());
            assert!(
                matches!(out, Err(SnapshotError::Corrupt(_))),
                "{what}: restore must fail, got {:?}",
                out.as_ref().map(|_| "Ok").map_err(ToString::to_string)
            );
        }
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
        rt.run_monitored(pred, max_rounds).rounds_if_satisfied()
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

    /// Both per-send steps agree: 512 relays send 1024 messages every
    /// third round, pushed inline or sent through the wire step — forced by
    /// a cut nothing crosses, so the model stays ideal and the net RNG is
    /// never drawn from.
    #[test]
    fn inline_and_wire_delivery_agree() {
        let relays = |cut: bool| {
            let n = 512u32;
            let mut rt = Runtime::new(
                Config::seeded(5),
                (0..n).map(|id| (id, Relay { id, acc: 0 })),
                (0..n).map(|i| (i, (i + 1) % n)),
            );
            if cut {
                assert_eq!(rt.partition(0..n), n as usize);
            }
            rt.run(9);
            let json = serde_json::to_string(rt.metrics()).unwrap();
            assert_eq!(rt.heal(), cut);
            (json, rt.save_snapshot())
        };
        let (inline, wired) = (relays(false), relays(true));
        assert_eq!(inline.0, wired.0);
        assert!(inline.1 == wired.1, "snapshot bytes");
    }

    /// The shims kept for the benchmark package change nothing: any thread
    /// count builds the same runtime, and the counters report every round
    /// on the calling thread.
    #[test]
    fn thread_count_shim_changes_nothing() {
        let ring = |cfg: Config| {
            let mut rt = Runtime::new(
                cfg,
                (0..32u32).map(|id| (id, Relay { id, acc: 0 })),
                (0..32u32).map(|i| (i, (i + 1) % 32)),
            );
            rt.run(12);
            let pc = rt.perf_counters();
            assert_eq!((pc.syncs, pc.par_rounds, pc.seq_rounds), (0, 0, 12));
            let json = serde_json::to_string(rt.metrics()).unwrap();
            (json, rt.save_snapshot())
        };
        let one = ring(Config::seeded(7));
        for n in [0, 1, 4] {
            assert!(ring(Config::seeded(7).threads(n)) == one, "threads({n})");
        }
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
        assert!(rt.is_silent(), "messages to the leaver die in its inbox");
    }

    /// A departure purges messages to *former* neighbors too: the sender
    /// unlinked its recipient in the round it sent, and the recipient sat
    /// unactivated for rounds before the sender left.
    #[test]
    fn departure_purges_mail_left_with_a_former_neighbor() {
        /// Records every sender it hears from; when armed, sends to its
        /// target and unlinks it in the same round.
        #[derive(Default)]
        struct Pinger {
            target: Option<NodeId>,
            heard: Vec<NodeId>,
        }
        impl Program for Pinger {
            type Msg = ();
            fn step(&mut self, ctx: &mut Ctx<'_, ()>) {
                self.heard
                    .extend(ctx.inbox().iter().map(|&(from, ())| from));
                if let Some(v) = self.target.take() {
                    ctx.send(v, ());
                    ctx.unlink(v);
                }
            }
        }
        let script = |s: Vec<Vec<NodeId>>| Box::new(crate::sched::Adversarial::script(s));
        let (a, b, c) = (0, 1, 2);
        let mut rt = Runtime::new(
            Config::default(),
            (0..3u32).map(|i| (i, Pinger::default())),
            [(a, b), (b, c), (a, c)],
        );
        rt.corrupt_node(a, |p| p.target = Some(b));
        // A sends and unlinks in round 0; B is skipped for three rounds.
        rt.set_scheduler(script(vec![vec![a], vec![c], vec![c], vec![c]]));
        rt.run(4);
        assert!(
            !rt.topology().has_edge(a, b),
            "A and B are no longer neighbors"
        );
        assert!(!rt.is_silent(), "A's message still waits for B");
        rt.leave(a);
        assert!(rt.is_silent(), "the departure purged A's pending message");
        rt.set_scheduler(script(vec![vec![b]]));
        rt.step();
        assert!(
            rt.program(b).heard.is_empty(),
            "B heard from a departed host"
        );
        rt.join(a, Pinger::default(), &[b, c]);
        assert!(rt.is_silent(), "a rejoin brings nothing back");
        rt.set_scheduler(Box::new(crate::sched::Synchronous));
        rt.step();
        assert!(rt.program(b).heard.is_empty());
    }

    /// Departures find pending mail through the dirty set, so restore holds
    /// a snapshot to it: a slot with pending mail that is not dirty is
    /// corrupt.
    #[test]
    fn restore_rejects_pending_mail_outside_the_dirty_set() {
        let mut rt = line_runtime(4);
        rt.step(); // node 0 announces: (0 -> 1) pending, node 1 dirty
        assert!(!rt.is_silent());
        let ok = Runtime::<Flood>::restore_snapshot(&rt.save_snapshot(), Config::default());
        assert!(ok.is_ok());
        // Selecting node 1 through the private agenda clears its mark, and
        // nothing consumes its inbox.
        let mut only_1 = crate::sched::Adversarial::script(vec![vec![1]]);
        rt.agenda.select(&mut only_1, rt.round, &rt.topo);
        rt.agenda.end_round();
        let out = Runtime::<Flood>::restore_snapshot(&rt.save_snapshot(), Config::default());
        assert!(
            matches!(out, Err(SnapshotError::Corrupt(_))),
            "restore must fail, got {:?}",
            out.as_ref().map(|_| "Ok").map_err(ToString::to_string)
        );
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
        let run = |activity: bool| {
            let nodes = (0..32u32).map(|i| {
                (
                    i,
                    Flood {
                        has: i == 0,
                        announced: false,
                    },
                )
            });
            let mut rt = Runtime::new(Config::default(), nodes, (0..31u32).map(|i| (i, i + 1)));
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
        let (sync_msgs, sync_edges, sync_acts) = run(false);
        let (act_msgs, act_edges, act_acts) = run(true);
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

    /// What a [`Toy`] host does at one round of its plan.
    #[derive(Clone, Copy)]
    enum Act {
        /// End the step non-quiescent.
        Busy,
        /// Start a relay: send a token good for this many more hops.
        Relay(u32),
        Wake(u64),
        /// Drop the edge to the first neighbor.
        Unlink,
        /// Introduce the first two neighbors to each other.
        Link,
        /// Send to itself, a non-neighbor: a violation in lenient mode.
        Violate,
    }

    /// A host of a relay ring with a plan: each round it forwards every
    /// token it received with hops left to a neighbor other than the
    /// sender, then runs the acts its plan lists for the round. It notes
    /// whether the step had an effect in the engine's sense: it emitted,
    /// asked for a wake-up, or was or is non-quiescent.
    #[derive(Clone)]
    struct Toy {
        plan: Vec<(u64, Act)>,
        busy: bool,
        /// `(round, had an effect)` of the last step.
        last: Option<(u64, bool)>,
    }

    impl Program for Toy {
        type Msg = u32;

        fn step(&mut self, ctx: &mut Ctx<'_, u32>) {
            let mut effect = std::mem::take(&mut self.busy);
            let nbrs = ctx.neighbors();
            for &(from, hops) in ctx.inbox() {
                let next = nbrs.iter().find(|&&v| v != from);
                if let Some(&v) = next.filter(|_| hops > 0) {
                    ctx.send(v, hops - 1);
                    effect = true;
                }
            }
            let round = ctx.round;
            for &(_, act) in self.plan.iter().filter(|&&(r, _)| r == round) {
                effect = true;
                match act {
                    Act::Busy => self.busy = true,
                    Act::Relay(hops) => ctx.send(nbrs[0], hops),
                    Act::Wake(d) => ctx.wake_me_in(d),
                    Act::Unlink => ctx.unlink(nbrs[0]),
                    Act::Link => ctx.link(nbrs[0], nbrs[1]),
                    Act::Violate => ctx.send(ctx.id, 0),
                }
            }
            self.last = Some((ctx.round, effect));
        }

        fn is_quiescent(&self) -> bool {
            !self.busy
        }
    }

    /// The toy ring's plans, by id: quiescent and silent throughout (3
    /// after its unlink, and whoever a spent token reaches); quiescent to
    /// non-quiescent and back (1, 6, and 7, which starts busy);
    /// `wake_me_in(0 | 1 | 5)` (2, 7); unlink only (3); link only (5); a
    /// lenient-mode violation (4, 5); a relay whose token dies after five
    /// hops (0).
    fn toy_plans() -> Vec<Vec<(u64, Act)>> {
        vec![
            vec![(1, Act::Relay(5))],
            vec![(2, Act::Busy)],
            vec![(1, Act::Wake(0)), (3, Act::Wake(1)), (4, Act::Wake(5))],
            vec![(5, Act::Unlink)],
            vec![(6, Act::Violate)],
            vec![(6, Act::Violate), (7, Act::Link)],
            vec![(2, Act::Busy), (3, Act::Busy), (4, Act::Busy)],
            vec![(8, Act::Wake(5))],
        ]
    }

    /// The engine's records of this round's activations, by slot.
    fn recorded_slots<P: Program>(rt: &Runtime<P>) -> Vec<u32> {
        let mut slots: Vec<u32> = rt.emit.slots.iter().map(|r| r.slot).collect();
        slots.sort_unstable();
        slots
    }

    /// Only an activation with an effect leaves a record, and the records
    /// the engine skips change nothing: after every round of the toy ring
    /// the quiescence count and the dirty set agree with the programs, the
    /// armed timers and the violation count with the plans, and the sink
    /// holds exactly the activations the programs say had an effect.
    #[test]
    fn silent_activations_leave_no_record_and_change_nothing() {
        let cfg = Config {
            strict: false,
            ..Config::seeded(5)
        };
        let plans = toy_plans();
        let toy = |v: usize| Toy {
            plan: plans[v].clone(),
            busy: v == 7,
            last: None,
        };
        let toys = (0..8).map(|v| (v as NodeId, toy(v)));
        let mut rt = Runtime::new(cfg, toys, (0..8).map(|v| (v, (v + 1) % 8)));
        for round in 0..16 {
            rt.step();
            let slot = |v: NodeId| rt.topology().slot_of(v).unwrap().index();
            let quiescent = rt.programs().filter(|(_, p)| p.is_quiescent()).count();
            assert_eq!(rt.quiescent_nodes(), quiescent, "round {round}");
            for (v, p) in rt.programs() {
                assert!(p.is_quiescent() || rt.agenda.is_dirty(slot(v)), "{v}");
            }
            let (mut timers, mut violations) = (Vec::new(), 0);
            for (v, plan) in (0..).zip(&plans) {
                for &(r, act) in plan {
                    match act {
                        Act::Wake(d) if d > 1 && r <= round && round < r + d => {
                            timers.push((r + d, slot(v) as u32, v));
                        }
                        Act::Violate if r == round => violations += 1,
                        _ => {}
                    }
                }
            }
            timers.sort_unstable();
            assert_eq!(rt.agenda.armed_timers(), timers, "round {round}");
            let row = rt.metrics().per_round.last().unwrap();
            assert_eq!(row.violations, violations, "round {round}");
            let effect = rt.programs().filter(|(_, p)| p.last == Some((round, true)));
            let mut want: Vec<u32> = effect.map(|(v, _)| slot(v) as u32).collect();
            want.sort_unstable();
            assert_eq!(recorded_slots(&rt), want, "round {round}");
        }
        // Every plan has run out and the token is spent: a silent
        // synchronous round steps all eight hosts and records none.
        assert!(rt.all_quiescent() && rt.is_silent());
        assert_eq!(rt.metrics().total_messages, 6, "the token's six hops");
        assert_eq!(
            rt.topology().edge_count(),
            8 - 1 + 1,
            "one unlink, one link"
        );
        rt.step();
        assert_eq!(rt.metrics().per_round.last().unwrap().active_nodes, 8);
        assert_eq!(recorded_slots(&rt), Vec::<u32>::new());
    }
}
