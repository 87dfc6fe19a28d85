//! Node programs and the per-round execution context.

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

/// Staging buffer behind [`Ctx`]: what one activation emitted. The runtime
/// keeps one per emit chunk, clears it before every `step` (capacity kept,
/// so steady-state rounds do not allocate) and flattens it into the chunk's
/// sink right after. Model-rule validation happens at emit time in [`Ctx`]
/// against the round-start neighbor snapshot — illegal actions are never
/// enqueued; in lenient mode they are counted in `violations`.
#[derive(Debug)]
pub(crate) struct Actions<M> {
    /// Messages to send: `(recipient, payload)`. Recipients are validated
    /// round-start neighbors.
    pub(crate) sends: Vec<(NodeId, M)>,
    /// Introductions: create edge `(a, b)` where both `a` and `b` are in the
    /// acting node's closed neighborhood (the overlay-model edge creation
    /// rule, validated at emit time).
    pub(crate) links: Vec<(NodeId, NodeId)>,
    /// Deletions of incident edges: remove edge `(self, v)`.
    pub(crate) unlinks: Vec<NodeId>,
    /// Model violations the node attempted this round (lenient mode only;
    /// strict mode panics at the attempt).
    pub(crate) violations: u64,
    /// Smallest wake-up delay requested via [`Ctx::wake_me_in`] this round,
    /// if any. Consumed by the runtime's timer wheel: the node is
    /// re-activated (under any scheduler that honors the dirty set) after
    /// that many rounds even if nothing else touches it.
    pub(crate) wake_in: Option<u64>,
    /// Whether the program reported itself quiescent immediately after this
    /// step (recorded by the runtime for the dirty set and the per-round
    /// quiescent count; not program-writable).
    pub(crate) quiescent: bool,
}

impl<M> Default for Actions<M> {
    fn default() -> Self {
        Self {
            sends: Vec::new(),
            links: Vec::new(),
            unlinks: Vec::new(),
            violations: 0,
            wake_in: None,
            quiescent: false,
        }
    }
}

impl<M> Actions<M> {
    /// Empty the buffers for reuse, keeping their capacity.
    pub(crate) fn clear(&mut self) {
        self.sends.clear();
        self.links.clear();
        self.unlinks.clear();
        self.violations = 0;
        self.wake_in = None;
        self.quiescent = false;
    }
}

/// Per-round execution context handed to [`Program::step`].
pub struct Ctx<'a, M> {
    /// This node's identifier.
    pub id: NodeId,
    /// The current round number (starts at 0).
    pub round: u64,
    strict: bool,
    neighbors: &'a [NodeId],
    inbox: &'a [(NodeId, M)],
    rng: &'a mut SmallRng,
    actions: &'a mut Actions<M>,
}

impl<'a, M> Ctx<'a, M> {
    pub(crate) fn new(
        id: NodeId,
        round: u64,
        strict: bool,
        neighbors: &'a [NodeId],
        inbox: &'a [(NodeId, M)],
        rng: &'a mut SmallRng,
        actions: &'a mut Actions<M>,
    ) -> Self {
        Self {
            id,
            round,
            strict,
            neighbors,
            inbox,
            rng,
            actions,
        }
    }

    /// Sorted neighbor identifiers at the start of this round.
    pub fn neighbors(&self) -> &[NodeId] {
        self.neighbors
    }

    /// True iff `v` was a neighbor at the start of this round.
    pub fn is_neighbor(&self, v: NodeId) -> bool {
        self.neighbors.binary_search(&v).is_ok()
    }

    /// Messages received this round (sent by neighbors in the previous round),
    /// as `(sender, payload)` pairs in a deterministic sender order.
    pub fn inbox(&self) -> &[(NodeId, M)] {
        self.inbox
    }

    /// The node's private deterministic PRNG.
    pub fn rng(&mut self) -> &mut SmallRng {
        self.rng
    }

    /// Send `msg` to neighbor `to` (delivered next round). Sending to a
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
            self.actions.violations += 1;
            return;
        }
        self.actions.sends.push((to, msg));
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
            self.actions.violations += 1;
            return;
        }
        self.actions.links.push((a, b));
    }

    /// Delete the incident edge `(self, v)` (unilateral, per the model).
    pub fn unlink(&mut self, v: NodeId) {
        self.actions.unlinks.push(v);
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
        self.actions.wake_in = Some(self.actions.wake_in.map_or(d, |w| w.min(d)));
    }
}
