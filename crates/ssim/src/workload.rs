//! Live application traffic over the evolving overlay: request workloads,
//! protocol-provided routing, and per-request accounting.
//!
//! The overlays this engine stabilizes exist to *serve requests*: a legal
//! Avatar(Chord) guarantees `O(log N)` greedy lookups. Checking that on a
//! static ideal graph after the fact says nothing about what users
//! experience *during* stabilization and churn, so this module makes
//! traffic a first-class engine concept:
//!
//! * A [`Workload`] injects application requests each round (open-loop
//!   [`OpenLoop`], or none: [`Workload::Silent`] leaves them to manual
//!   [`crate::Runtime::inject_request`]), deterministically from the run
//!   seed. A workload is data: a snapshot saves it whole with the request
//!   queues, so a restored runtime holds its traffic as live state and
//!   only the router — code — is supplied again, by
//!   [`crate::Runtime::attach_workload`].
//! * Requests travel **hop-by-hop over the current host topology**: each
//!   round, every host holding requests asks its program — via the
//!   protocol-provided [`Router`] — for the next hop toward the key, and
//!   the runtime moves the request across that edge *only if the edge
//!   still exists*. A request whose next hop vanished (stabilization
//!   rewired the overlay, the neighbor left) is retried in place or
//!   failed; it is never teleported. A request resident on a departing
//!   host dies with it.
//! * The runtime keeps the **conservation law** `issued == completed +
//!   failed + in-flight` at every round boundary (checked by a debug
//!   assertion each step) and records hop and round-latency histograms in
//!   [`RequestStats`], which is part of [`crate::RunMetrics`] — so the
//!   engine's determinism guarantees (byte-identical metrics per `(seed,
//!   scheduler)`) extend to traffic.
//! * Request-carrying hosts are marked **dirty**, so the
//!   [`crate::sched::ActivityDriven`] daemon keeps serving traffic exactly
//!   like the synchronous daemon: a quiescent protocol step may be a
//!   no-op, but a held request is pending work and forces activation.
//!
//! Timing model: one hop per round. A request injected at its responsible
//! host completes in the same round with latency 0; each forward costs one
//! round (the request moves at message speed over live links). Under
//! partial daemons ([`crate::sched::RandomSubset`], round-robin) requests
//! wait for their holder's next activation — like protocol messages,
//! delivery is delayed rather than silently lost; unlike messages, the
//! TTL keeps ticking while a request waits, so a long-unscheduled request
//! expires into `failed_expired` (an unfair daemon's user-visible cost is
//! recorded, never leaked).
//!
//! "Completed" means the request reached a host whose *current* claimed
//! responsible range covers the key. During churn the responsible host is
//! whatever the (eventually-consistent) protocol currently believes — the
//! honest application-level semantics of serving traffic mid-stabilization.
//!
//! Under network conditions ([`crate::net`]), requests ride a reliable
//! transport: a forward pays the model's *base* latency (`1 + delay`
//! rounds per hop, with TTL ticking) but is never lost, duplicated, or
//! jittered — loss and reordering are properties of the protocol's
//! datagram channel, not of the request abstraction, so the request
//! conservation law is unchanged. A forward whose edge crosses an active
//! [`crate::Runtime::partition`] cut is retried in place, exactly like a
//! vanished edge, until the TTL expires or the partition heals.

use crate::metrics::RoundMetrics;
use crate::net::Wire;
use crate::program::Program;
use crate::sched::Agenda;
use crate::snapshot::{persist_enum, persist_struct, Persist, Reader, SnapshotError, Writer};
use crate::topology::{NodeSlot, Topology};
use crate::NodeId;
use rand::rngs::SmallRng;
use rand::Rng;
use serde::Serialize;

/// An application-level key in the guest space `[0, N)`.
pub type Key = u32;

/// One routing decision of a [`Router`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteStep {
    /// This host is responsible for the key: the request completes here.
    Deliver,
    /// Forward to this neighbor (must be a *current* neighbor; the runtime
    /// re-validates against the live adjacency and retries in place if the
    /// edge is gone).
    Forward(NodeId),
    /// No useful next hop is known right now (stale views, mid-merge
    /// cluster state). The runtime retries next round — stabilization may
    /// repair the route — until the request's TTL expires.
    Unroutable,
}

/// Protocol-provided forwarding: how a node program routes an application
/// request one hop toward its key.
///
/// Implementations must be **read-only and deterministic**: the decision
/// may depend only on the program's state and the given round-start
/// neighbor list (sorted). The runtime calls this during the apply phase,
/// after the emit phase, in selection order.
pub trait Router: Program {
    /// The next hop for `key` at this node, given the node's current
    /// (sorted) neighbor list.
    fn route(&self, key: Key, neighbors: &[NodeId]) -> RouteStep;
}

/// Tuning knobs for the request subsystem (see
/// [`crate::Runtime::attach_workload`]).
#[derive(Debug, Clone, Copy)]
pub struct WorkloadConfig {
    /// Rounds a request may stay in flight before it is failed as expired.
    /// The budget races stabilization: a temporarily unroutable request
    /// retries until either the overlay heals or the TTL runs out.
    pub ttl: u64,
    /// Maximum hops (edge traversals) before the request is failed.
    pub max_hops: u32,
    /// Keep a per-request [`RequestRecord`] log in
    /// [`RequestStats::records`] (unbounded — examples and small
    /// experiments only).
    pub record_requests: bool,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        Self {
            ttl: 128,
            max_hops: 64,
            record_requests: false,
        }
    }
}

/// A request in flight (runtime-internal queue entry).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Request {
    pub(crate) id: u64,
    pub(crate) key: Key,
    pub(crate) origin: NodeId,
    pub(crate) issued_round: u64,
    pub(crate) hops: u32,
    pub(crate) retries: u32,
    /// First round this request may take its next hop (forwarded requests
    /// arrive "next round", like messages; injected requests are ready
    /// immediately).
    pub(crate) ready_round: u64,
}

/// How a finished request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum RequestOutcome {
    /// Reached a host whose responsible range covers the key.
    Completed,
    /// TTL (rounds in flight) exhausted.
    Expired,
    /// Hop budget exhausted.
    HopBudget,
    /// The host holding the request left or crashed.
    HostDeparted,
}

/// A finished request (kept only under
/// [`WorkloadConfig::record_requests`]).
#[derive(Debug, Clone, Copy, Serialize)]
pub struct RequestRecord {
    /// Monotone per-run request identifier (issue order).
    pub id: u64,
    /// The looked-up key.
    pub key: Key,
    /// Host the request was injected at.
    pub origin: NodeId,
    /// Host that completed the request (`None` for failures).
    pub dest: Option<NodeId>,
    /// Round the request was issued.
    pub issued_round: u64,
    /// Round the request finished.
    pub done_round: u64,
    /// Edge traversals taken.
    pub hops: u32,
    /// In-place retries (unroutable rounds, vanished next hops).
    pub retries: u32,
    /// How it ended.
    pub outcome: RequestOutcome,
}

/// Aggregate request accounting, part of [`crate::RunMetrics`]. The
/// conservation law `issued == completed + failed + in_flight` holds at
/// every round boundary.
#[derive(Debug, Clone, Default, Serialize)]
pub struct RequestStats {
    /// Requests injected.
    pub issued: u64,
    /// Requests that reached a responsible host.
    pub completed: u64,
    /// Requests that failed (sum of the three breakdowns below).
    pub failed: u64,
    /// Failures: TTL exhausted.
    pub failed_expired: u64,
    /// Failures: hop budget exhausted.
    pub failed_hops: u64,
    /// Failures: the holding host departed.
    pub failed_departed: u64,
    /// In-place retries across all requests.
    pub retries: u64,
    /// Total edge traversals across all requests.
    pub forwards: u64,
    /// Requests currently in flight.
    pub in_flight: u64,
    /// `hop_histogram[h]` = completed requests that took exactly `h` hops.
    pub hop_histogram: Vec<u64>,
    /// `latency_histogram[l]` = completed requests that spent exactly `l`
    /// rounds in flight.
    pub latency_histogram: Vec<u64>,
    /// Per-request log (only under [`WorkloadConfig::record_requests`]).
    pub records: Vec<RequestRecord>,
}

fn bump(hist: &mut Vec<u64>, bucket: usize) {
    if hist.len() <= bucket {
        hist.resize(bucket + 1, 0);
    }
    hist[bucket] += 1;
}

impl RequestStats {
    /// Requests with a final outcome.
    pub fn decided(&self) -> u64 {
        self.completed + self.failed
    }

    /// Fraction of decided requests that completed (`1.0` when nothing has
    /// been decided yet).
    pub fn success_rate(&self) -> f64 {
        let d = self.decided();
        if d == 0 {
            1.0
        } else {
            self.completed as f64 / d as f64
        }
    }

    /// Largest hop count among completed requests.
    pub fn max_hops_seen(&self) -> usize {
        self.hop_histogram.len().saturating_sub(1)
    }

    /// Largest round latency among completed requests.
    pub fn max_latency_seen(&self) -> u64 {
        self.latency_histogram.len().saturating_sub(1) as u64
    }

    /// Mean hop count over completed requests.
    pub fn mean_hops(&self) -> f64 {
        self.mean_bucket(&self.hop_histogram)
    }

    /// Mean round latency over completed requests.
    pub fn mean_latency(&self) -> f64 {
        self.mean_bucket(&self.latency_histogram)
    }

    /// Mean bucket index of a per-completed-request histogram.
    fn mean_bucket(&self, hist: &[u64]) -> f64 {
        let total: u64 = hist.iter().enumerate().map(|(b, &c)| b as u64 * c).sum();
        total as f64 / self.completed.max(1) as f64
    }

    /// Fill `row`'s request columns with the deltas against `reported` —
    /// the counters `(issued, completed, failed)` as of the last recorded
    /// row — and advance it. Requests finished *between* rounds (a
    /// departure purge, a manual injection) are thereby attributed to the
    /// next executed round and the per-row conservation law stays exact.
    pub(crate) fn report(&self, reported: &mut (u64, u64, u64), row: &mut RoundMetrics) {
        row.requests_issued = self.issued - reported.0;
        row.requests_completed = self.completed - reported.1;
        row.requests_failed = self.failed - reported.2;
        row.requests_in_flight = self.in_flight;
        *reported = (self.issued, self.completed, self.failed);
    }

    /// Check a restored `reported` triple (see [`RequestStats::report`])
    /// against the restored counters it must trail.
    pub(crate) fn validate_reported(&self, reported: (u64, u64, u64)) -> Result<(), SnapshotError> {
        let now = (self.issued, self.completed, self.failed);
        if reported.0 > now.0 || reported.1 > now.1 || reported.2 > now.2 {
            return Err(SnapshotError::Corrupt(format!(
                "reported request counters {reported:?} are ahead of the metrics {now:?}"
            )));
        }
        Ok(())
    }

    pub(crate) fn complete(&mut self, req: &Request, dest: NodeId, round: u64, record: bool) {
        self.completed += 1;
        self.in_flight -= 1;
        bump(&mut self.hop_histogram, req.hops as usize);
        bump(
            &mut self.latency_histogram,
            (round - req.issued_round) as usize,
        );
        if record {
            let done = req.done(Some(dest), round, RequestOutcome::Completed);
            self.records.push(done);
        }
    }

    pub(crate) fn fail(
        &mut self,
        req: &Request,
        outcome: RequestOutcome,
        round: u64,
        record: bool,
    ) {
        self.failed += 1;
        self.in_flight -= 1;
        match outcome {
            RequestOutcome::Expired => self.failed_expired += 1,
            RequestOutcome::HopBudget => self.failed_hops += 1,
            RequestOutcome::HostDeparted => self.failed_departed += 1,
            RequestOutcome::Completed => unreachable!("fail() with Completed outcome"),
        }
        if record {
            self.records.push(req.done(None, round, outcome));
        }
    }
}

impl Request {
    /// The log entry of this request finishing in `round`.
    fn done(&self, dest: Option<NodeId>, round: u64, outcome: RequestOutcome) -> RequestRecord {
        RequestRecord {
            id: self.id,
            key: self.key,
            origin: self.origin,
            dest,
            issued_round: self.issued_round,
            done_round: round,
            hops: self.hops,
            retries: self.retries,
            outcome,
        }
    }
}

persist_struct!(Request {
    id,
    key,
    origin,
    issued_round,
    hops,
    retries,
    ready_round,
});

persist_enum!(RequestOutcome {
    0 => Completed,
    1 => Expired,
    2 => HopBudget,
    3 => HostDeparted,
});

persist_struct!(RequestRecord {
    id,
    key,
    origin,
    dest,
    issued_round,
    done_round,
    hops,
    retries,
    outcome,
});

persist_struct!(RequestStats {
    issued,
    completed,
    failed,
    failed_expired,
    failed_hops,
    failed_departed,
    retries,
    forwards,
    in_flight,
    hop_histogram,
    latency_histogram,
    records,
});

/// A request generator, saved whole: its parameters and its progress are
/// data, so a snapshot carries them and a restored runtime issues the same
/// request sequence as the uninterrupted run. Asked at the start of every
/// round for `(origin host, key)` pairs, drawn from the runtime's
/// seed-derived workload RNG, so injection is deterministic.
#[derive(Debug, Clone)]
pub enum Workload {
    /// Injects nothing by itself: attach it when requests are driven
    /// manually through [`crate::Runtime::inject_request`] (as the
    /// `kv_lookup` example does).
    Silent,
    /// A fixed expected number of requests per round (see [`OpenLoop`]).
    OpenLoop(OpenLoop),
}

pub use Workload::Silent;

impl From<OpenLoop> for Workload {
    fn from(gen: OpenLoop) -> Self {
        Self::OpenLoop(gen)
    }
}

persist_enum!(Workload {
    0 => Silent,
    1 => OpenLoop(gen),
});

impl Workload {
    /// Append this round's requests at the members `ids` to `out`.
    fn inject(&mut self, ids: &[NodeId], rng: &mut SmallRng, out: &mut Vec<(NodeId, Key)>) {
        let Self::OpenLoop(gen) = self else { return };
        if ids.is_empty() {
            return;
        }
        gen.acc += gen.rate;
        while gen.acc >= 1.0 {
            gen.acc -= 1.0;
            if let Some(rem) = &mut gen.remaining {
                if *rem == 0 {
                    gen.acc = 0.0;
                    return;
                }
                *rem -= 1;
            }
            let origin = ids[rng.gen_range(0..ids.len())];
            let key = rng.gen_range(0..gen.keys);
            out.push((origin, key));
        }
    }
}

/// Open-loop generator: a fixed expected number of requests per round
/// (fractional rates accumulate), origins uniform over live hosts, keys
/// uniform over `[0, keys)`.
#[derive(Debug, Clone)]
pub struct OpenLoop {
    rate: f64,
    keys: u32,
    acc: f64,
    /// Requests left to issue (`None` = unlimited).
    remaining: Option<u64>,
}

impl OpenLoop {
    /// `rate` requests per round (a negative rate issues none) into a key
    /// space of `keys` (at least 1).
    ///
    /// # Panics
    /// Panics if `rate` is not finite: an unlimited generator would never
    /// finish a round's injection.
    pub fn new(rate: f64, keys: u32) -> Self {
        assert!(rate.is_finite(), "OpenLoop::new: rate {rate} is not finite");
        Self {
            rate: rate.max(0.0),
            keys: keys.max(1),
            acc: 0.0,
            remaining: None,
        }
    }

    /// Stop after issuing `total` requests — lets an experiment drain the
    /// in-flight tail by just running more rounds.
    #[must_use]
    pub fn limited(mut self, total: u64) -> Self {
        self.remaining = Some(total);
        self
    }
}

/// Hand-written to reject what no `OpenLoop` holds: a negative or
/// non-finite rate (an unlimited `inject` would never return), an empty key
/// space (`inject` would panic drawing a key) and an accumulator outside
/// `[0, 1)`, NaN included (`inject` never leaves one behind, and an
/// unlimited generator would spin on it).
impl Persist for OpenLoop {
    fn save(&self, w: &mut Writer) {
        w.f64(self.rate);
        w.u32(self.keys);
        w.f64(self.acc);
        self.remaining.save(w);
    }

    fn load(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let gen = Self {
            rate: r.f64()?,
            keys: r.u32()?,
            acc: r.f64()?,
            remaining: Option::load(r)?,
        };
        let rate_ok = gen.rate.is_finite() && gen.rate >= 0.0;
        if !rate_ok || gen.keys == 0 || !(0.0..1.0).contains(&gen.acc) {
            return Err(SnapshotError::Corrupt(format!(
                "open-loop generator {gen:?}: no generator holds these values"
            )));
        }
        Ok(gen)
    }
}

/// The traffic subsystem's state: everything a snapshot saves of it.
struct TrafficState {
    cfg: WorkloadConfig,
    gen: Workload,
    /// The workload's private deterministic RNG (seeded from the run seed).
    rng: SmallRng,
    next_id: u64,
    /// Per-slot requests currently held at that host — slot-parallel with
    /// the runtime's other per-node arrays.
    queues: Vec<Vec<Request>>,
}

persist_struct!(WorkloadConfig {
    ttl,
    max_hops,
    record_requests,
});
persist_struct!(TrafficState {
    cfg,
    gen,
    rng,
    next_id,
    queues,
});

/// Runtime-side state of the attached [`Workload`]: the generator, the
/// request queues and who holds any. The router is code, not state: the
/// runtime keeps it beside this (see [`crate::Runtime::attach_workload`]).
pub(crate) struct Traffic {
    state: TrafficState,
    /// Recycled injection buffer.
    inject_buf: Vec<(NodeId, Key)>,
    /// Per-slot "this queue is non-empty" flag, exactly in sync with the
    /// queues at every round boundary (debug-checked by
    /// [`Traffic::has_req_matches_queues`]): one byte per host, so the
    /// line-up filters the selection without touching a queue.
    has_req: Vec<bool>,
    /// This round's holders to serve, in service order (recycled).
    lineup: Vec<u32>,
}

/// The holder flags and the recycled buffers are derived, so a restore
/// rebuilds them from the saved queues.
impl Persist for Traffic {
    fn save(&self, w: &mut Writer) {
        self.state.save(w);
    }

    fn load(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        TrafficState::load(r).map(Self::from_state)
    }
}

impl Traffic {
    /// Fresh traffic over `slots` empty queues, numbering requests from
    /// `next_id`.
    pub(crate) fn new(
        cfg: WorkloadConfig,
        gen: Workload,
        rng: SmallRng,
        slots: usize,
        next_id: u64,
    ) -> Self {
        let queues = std::iter::repeat_with(Vec::new).take(slots).collect();
        Self::from_state(TrafficState {
            cfg,
            gen,
            rng,
            next_id,
            queues,
        })
    }

    fn from_state(state: TrafficState) -> Self {
        let has_req = state.queues.iter().map(|q| !q.is_empty()).collect();
        Self {
            state,
            inject_buf: Vec::new(),
            has_req,
            lineup: Vec::new(),
        }
    }

    /// Check that `gen`, re-supplied after a restore, is the saved
    /// generator as constructed — the same kind, rate and key space — which
    /// goes on from its saved progress (accumulator, quota left).
    ///
    /// # Panics
    /// Panics if it is not: resuming with another kind, rate or key space
    /// would diverge from the uninterrupted run.
    pub(crate) fn resume(&self, gen: &Workload) {
        let saved = &self.state.gen;
        let same = match (saved, gen) {
            (Workload::Silent, Workload::Silent) => true,
            (Workload::OpenLoop(a), Workload::OpenLoop(b)) => a.rate == b.rate && a.keys == b.keys,
            _ => false,
        };
        assert!(
            same,
            "attach_workload: the snapshot was saved with {saved:?}; resuming with {gen:?} \
             would diverge"
        );
    }

    /// Cross-check restored traffic against the restored membership and
    /// round: one queue per slot, only live slots hold requests, and every
    /// request was issued at or before `round` (`serve` measures its age as
    /// `round - issued_round`).
    pub(crate) fn validate(&self, topo: &Topology, round: u64) -> Result<(), SnapshotError> {
        let queues = &self.state.queues;
        if queues.len() != topo.slot_count() {
            return Err(SnapshotError::Corrupt(format!(
                "traffic queues ({}) misaligned with slots ({})",
                queues.len(),
                topo.slot_count()
            )));
        }
        for (i, q) in queues.iter().enumerate() {
            if !q.is_empty() && !topo.is_live(NodeSlot::new(i)) {
                return Err(SnapshotError::Corrupt(format!(
                    "slot {i}: free slot holds in-flight requests"
                )));
            }
            if let Some(req) = q.iter().find(|req| req.issued_round > round) {
                return Err(SnapshotError::Corrupt(format!(
                    "slot {i}: request {} issued in round {} after the saved round {round}",
                    req.id, req.issued_round
                )));
            }
        }
        Ok(())
    }

    pub(crate) fn push_slot(&mut self) {
        self.state.queues.push(Vec::new());
        self.has_req.push(false);
    }

    pub(crate) fn is_idle(&self, slot: usize) -> bool {
        self.state.queues[slot].is_empty()
    }

    /// Requests queued across all hosts (the conservation law's ground
    /// truth; O(slots)).
    pub(crate) fn queued(&self) -> u64 {
        self.state.queues.iter().map(|q| q.len() as u64).sum()
    }

    /// True iff `has_req[i]` ⟺ "queue `i` is non-empty" for every slot —
    /// the invariant the line-up relies on (O(slots)).
    pub(crate) fn has_req_matches_queues(&self) -> bool {
        let queues = &self.state.queues;
        queues.len() == self.has_req.len()
            && queues
                .iter()
                .zip(&self.has_req)
                .all(|(q, &h)| h != q.is_empty())
    }

    /// Record that `slot` holds a request, and wake it: a held request is
    /// pending work, so the holder must be activated under every
    /// equivalence-claiming daemon.
    fn hold(&mut self, slot: usize, agenda: &mut Agenda) {
        self.has_req[slot] = true;
        agenda.mark(slot);
    }

    /// Enqueue a request issued in `round` at member `origin` (ready
    /// immediately) and account it. Returns the request id.
    pub(crate) fn issue(
        &mut self,
        topo: &Topology,
        origin: NodeId,
        key: Key,
        round: u64,
        stats: &mut RequestStats,
        agenda: &mut Agenda,
    ) -> u64 {
        let slot = topo
            .slot_of(origin)
            .expect("issue: origin is a member")
            .index();
        let id = self.state.next_id;
        self.state.next_id += 1;
        self.state.queues[slot].push(Request {
            id,
            key,
            origin,
            issued_round: round,
            hops: 0,
            retries: 0,
            ready_round: round,
        });
        stats.issued += 1;
        stats.in_flight += 1;
        self.hold(slot, agenda);
        id
    }

    /// Round-start injection: ask the generator for this round's requests.
    /// Runs before selection, so origins are dirty in time to be activated
    /// this very round under every equivalence-claiming daemon.
    pub(crate) fn inject(
        &mut self,
        round: u64,
        topo: &Topology,
        stats: &mut RequestStats,
        agenda: &mut Agenda,
    ) {
        let mut buf = std::mem::take(&mut self.inject_buf);
        buf.clear();
        let state = &mut self.state;
        state.gen.inject(topo.ids(), &mut state.rng, &mut buf);
        for &(origin, key) in &buf {
            debug_assert!(
                topo.contains(origin),
                "workload injected at non-member {origin}"
            );
            if topo.contains(origin) {
                self.issue(topo, origin, key, round, stats, agenda);
            }
        }
        self.inject_buf = buf;
    }

    /// Requests resident on a departed host die with it — never teleported
    /// to a survivor.
    pub(crate) fn drop_host(&mut self, slot: usize, round: u64, stats: &mut RequestStats) {
        let record = self.state.cfg.record_requests;
        for req in std::mem::take(&mut self.state.queues[slot]) {
            stats.fail(&req, RequestOutcome::HostDeparted, round, record);
        }
        self.has_req[slot] = false;
    }

    /// Decide which holders this round serves, and in what order: the
    /// selection, in selection order, filtered by the holder flags — whatever
    /// order the daemon chose (a script may bend member order) is the
    /// service order. Only holders at line-up time are served: a selected
    /// slot that an earlier-served holder forwards to this round would have
    /// nothing to do anyway, since forwarded requests carry `ready_round >
    /// round` and the slot was marked dirty at forward time.
    fn line_up(&mut self, agenda: &Agenda) {
        let has_req = &self.has_req;
        self.lineup.clear();
        self.lineup.extend(
            agenda
                .selection()
                .iter()
                .map(|s| s.index() as u32)
                .filter(|&i| has_req[i as usize]),
        );
    }

    /// Advance every request held by a [lined-up](Traffic::line_up) host
    /// one hop, against the **post-apply** topology (the current host
    /// links) and the holder's current program state: `route(slot, key,
    /// neighbors)` asks the program at `slot` for the next hop.
    /// Runs in selection order, so traffic is deterministic and
    /// activity-driven execution
    /// (which always selects request holders — they are dirty) reproduces
    /// the synchronous execution exactly.
    pub(crate) fn serve<M>(
        &mut self,
        route: impl Fn(usize, Key, &[NodeId]) -> RouteStep,
        round: u64,
        topo: &Topology,
        wire: &Wire<M>,
        agenda: &mut Agenda,
        stats: &mut RequestStats,
    ) {
        self.line_up(agenda);
        let cfg = self.state.cfg;
        let record = cfg.record_requests;
        for h in 0..self.lineup.len() {
            let i = self.lineup[h] as usize;
            let slot = NodeSlot::new(i);
            let me = topo.id_at(slot).expect("selected slot is live");
            let neighbors = topo.neighbors_at(slot);
            let mut q = std::mem::take(&mut self.state.queues[i]);
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
                if round - req.issued_round >= cfg.ttl {
                    stats.fail(&req, RequestOutcome::Expired, round, record);
                    continue;
                }
                match route(i, req.key, neighbors) {
                    RouteStep::Deliver => stats.complete(&req, me, round, record),
                    // A hop crossing an active partition cut behaves like a
                    // vanished neighbor (the channel is dead): retry in
                    // place below, bounded by the TTL. Requests are
                    // app-level traffic with retransmission — they pay the
                    // network's deterministic base latency per hop, but are
                    // never randomly lost or duplicated.
                    RouteStep::Forward(v)
                        if v != me
                            && neighbors.binary_search(&v).is_ok()
                            && !wire.crosses_cut(me, v) =>
                    {
                        if req.hops + 1 > cfg.max_hops {
                            stats.fail(&req, RequestOutcome::HopBudget, round, record);
                            continue;
                        }
                        req.hops += 1;
                        req.ready_round = round + 1 + wire.model().delay;
                        stats.forwards += 1;
                        let ts = topo
                            .slot_of(v)
                            .expect("current neighbor is a member")
                            .index();
                        self.state.queues[ts].push(req);
                        self.hold(ts, agenda);
                    }
                    // The chosen next hop is gone (stabilization rewired
                    // the overlay, the neighbor departed) or the router has
                    // no useful hop right now: retry in place, bounded by
                    // the TTL. Never teleported.
                    RouteStep::Forward(_) | RouteStep::Unroutable => {
                        req.retries += 1;
                        req.ready_round = round + 1;
                        stats.retries += 1;
                        q[keep] = req;
                        keep += 1;
                    }
                }
            }
            q.truncate(keep);
            if q.is_empty() {
                // Drained. No request can arrive here later this round
                // while the queue is away (a host never forwards to itself),
                // and one arriving after it is back sets the flag again.
                self.has_req[i] = false;
            } else {
                // Still holding work (retries or same-round arrivals):
                // stay scheduled.
                agenda.mark(i);
            }
            self.state.queues[i] = q;
        }
    }

    /// Capacity-based heap bytes of the queues, the holder flags and the
    /// recycled buffers.
    pub(crate) fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.state
            .queues
            .iter()
            .map(|q| size_of::<Vec<Request>>() + q.capacity() * size_of::<Request>())
            .sum::<usize>()
            + self.has_req.capacity() * size_of::<bool>()
            + self.lineup.capacity() * size_of::<u32>()
            + self.inject_buf.capacity() * size_of::<(NodeId, Key)>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    impl Traffic {
        /// Every queued request, slot by slot.
        pub(crate) fn held(&self) -> impl Iterator<Item = &Request> {
            self.state.queues.iter().flatten()
        }
    }

    #[test]
    fn open_loop_accumulates_fractional_rates() {
        let ids = [1u32, 2, 3];
        let mut w = Workload::from(OpenLoop::new(0.5, 16));
        let mut rng = SmallRng::seed_from_u64(1);
        let mut total = 0;
        for _ in 0..10 {
            let mut out = Vec::new();
            w.inject(&ids, &mut rng, &mut out);
            total += out.len();
        }
        assert_eq!(total, 5, "rate 0.5 over 10 rounds issues exactly 5");
    }

    /// A restored generator holds only what a constructed one can reach;
    /// anything else is corrupt: an unknown kind, a negative or non-finite
    /// rate (an unlimited `inject` would never return), an empty key space
    /// (drawing a key would panic), and an accumulator outside `[0, 1)` or
    /// NaN (an unlimited generator would spin on `acc >= 1` and queue
    /// requests until memory runs out).
    #[test]
    fn open_loop_rejects_accumulators_inject_never_leaves() {
        let open_loop = |tag: u8, rate: f64, keys: u32, acc: f64| {
            let mut w = Writer::new();
            w.u8(tag);
            w.f64(rate);
            w.u32(keys);
            w.f64(acc);
            Option::<u64>::None.save(&mut w);
            w.into_bytes()
        };
        let cases = [
            (open_loop(1, 1.0, 16, f64::INFINITY), false),
            (open_loop(1, 1.0, 16, f64::NAN), false),
            (open_loop(1, 1.0, 16, 1e300), false),
            (open_loop(1, 1.0, 16, -0.5), false),
            (open_loop(1, 1.0, 16, 1.0), false),
            (open_loop(1, f64::INFINITY, 16, 0.25), false),
            (open_loop(1, f64::NAN, 16, 0.25), false),
            (open_loop(1, -1.0, 16, 0.25), false),
            (open_loop(1, 1.0, 0, 0.25), false),
            (open_loop(2, 1.0, 16, 0.25), false),
            (open_loop(1, 1.0, 16, 0.25), true),
            (open_loop(1, 0.0, 1, 0.0), true),
            (vec![0], true),
        ];
        for (bytes, ok) in cases {
            let mut r = Reader::new(&bytes);
            match Workload::load(&mut r).and_then(|w| r.finish().map(|()| w)) {
                Ok(w) => assert!(ok, "{bytes:?} restored as {w:?}"),
                Err(SnapshotError::Corrupt(_)) => assert!(!ok, "{bytes:?} rejected"),
                Err(e) => panic!("{bytes:?}: {e}"),
            }
        }
    }

    /// A constructed generator never holds a non-finite rate.
    #[test]
    #[should_panic(expected = "not finite")]
    fn open_loop_refuses_a_non_finite_rate() {
        let _ = OpenLoop::new(f64::INFINITY, 16);
    }

    #[test]
    fn stats_histograms_and_rates() {
        let mut s = RequestStats::default();
        let req = Request {
            id: 0,
            key: 3,
            origin: 1,
            issued_round: 2,
            hops: 4,
            retries: 0,
            ready_round: 0,
        };
        s.issued = 2;
        s.in_flight = 2;
        s.complete(&req, 9, 8, true);
        s.fail(&req, RequestOutcome::Expired, 9, true);
        assert_eq!(s.decided(), 2);
        assert!((s.success_rate() - 0.5).abs() < 1e-12);
        assert_eq!(s.max_hops_seen(), 4);
        assert_eq!(s.max_latency_seen(), 6);
        assert_eq!(s.hop_histogram[4], 1);
        assert_eq!(s.latency_histogram[6], 1);
        assert_eq!(s.failed_expired, 1);
        assert_eq!(s.records.len(), 2);
        assert_eq!(s.records[0].dest, Some(9));
        assert_eq!(s.records[1].outcome, RequestOutcome::Expired);
        assert_eq!(s.issued, s.completed + s.failed + s.in_flight);
    }
}
