//! Pluggable daemons: which nodes step in a round, and in what order.
//!
//! The paper states its results against the **fully synchronous daemon** —
//! every round, every node steps — but self-stabilization results are
//! routinely quoted against weaker daemons (unfair, randomized,
//! adversarial activation), and a converged network paying `n` `step()`
//! calls per round forever is pure waste. A [`Scheduler`] abstracts the
//! daemon: each round the runtime asks it to *select* the set of
//! [`NodeSlot`]s to activate; only those nodes run the emit phase (the
//! apply phase processes exactly their actions, in selection order).
//!
//! Four daemons ship with the engine:
//!
//! * [`Synchronous`] — the paper's model and the default. Selects every
//!   live node, in the engine's canonical member order, and reproduces the
//!   pre-scheduler engine bit for bit.
//! * [`RandomSubset`] — a seeded randomized daemon: each live node is
//!   activated independently with probability `p` per round. Deterministic
//!   for a fixed seed. A stress daemon: it delays both computation and
//!   message consumption arbitrarily, so protocols proven only for the
//!   synchronous daemon may legitimately behave differently under it.
//! * [`Adversarial`] — scripted or round-robin subsets, for worst-case
//!   activation schedules (scenarios can install one mid-run via
//!   [`crate::scenario::Event::SetScheduler`]).
//! * [`ActivityDriven`] — the performance daemon: selects exactly the
//!   runtime's **dirty set**. See below.
//!
//! # The dirty set
//!
//! The runtime maintains, under *every* scheduler, the set of slots that
//! must be activated next round. A node is marked dirty when
//!
//! * a message is delivered to it (its inbox is non-empty) — including a
//!   *delayed* delivery surfacing from the [`crate::net`] in-transit
//!   buffer: the recipient is marked on the **delivery** round, not the
//!   send round, so latency models stay sound under partial daemons,
//! * an incident edge is added or removed — by protocol action,
//!   adversarial fault, or a neighbor's departure,
//! * it joins the network (or is present at construction),
//! * its state is corrupted out-of-band ([`crate::Runtime::corrupt_node`]),
//! * a [`crate::Ctx::wake_me_in`] timer it armed comes due, or
//! * it stepped and still reports `is_quiescent() == false`.
//!
//! A slot's flag is cleared only when the node is actually activated, so
//! wake-ups are never lost under daemons that skip dirty nodes, and the
//! invariant *every live non-quiescent node is dirty* holds at every round
//! boundary regardless of scheduler — which is what makes swapping
//! schedulers mid-run sound.
//!
//! # Equivalence of `ActivityDriven` and `Synchronous`
//!
//! For **well-behaved** programs — those honoring the
//! [`crate::Program::is_quiescent`] contract ("quiescent + empty inbox +
//! unchanged neighborhood ⟹ `step()` is a no-op, including no PRNG
//! draws") — an activity-driven execution is *identical* to the
//! synchronous execution, not merely convergent to the same result: every
//! skipped step would have been a no-op, every non-no-op step is selected
//! (the dirty set covers precisely the no-op-breaking conditions), and
//! per-node PRNG streams advance identically. Debug runs can enforce this
//! with the shadow-step check ([`crate::Runtime::enable_shadow_check`]):
//! each skipped node's `step` is run against a throwaway clone and must
//! emit nothing, draw nothing, and stay quiescent. `RandomSubset` and
//! `Adversarial` make no such claim (skipping a node with pending messages
//! is their purpose), so the shadow check does not apply to them — see
//! [`Scheduler::claims_equivalence`].
//!
//! # Schedulers across snapshots
//!
//! A [`crate::Runtime::restore_snapshot`] runtime starts on [`Synchronous`]
//! and the caller re-installs its daemon (schedulers are code, and
//! [`Synchronous`]/[`ActivityDriven`] carry no mutable state, so there is
//! nothing to serialize). This is restore-safe for every
//! equivalence-claiming daemon: the dirty set round-trips through the
//! snapshot exactly, so `ActivityDriven` selects the same slots after a
//! restore as it would have in the uninterrupted run — which is why the
//! snapshot tests can pin byte-identical metrics across `{sync, activity}`.
//! Stateful daemons (`RandomSubset`'s RNG position, `Adversarial`'s script
//! cursor) are *not* captured; re-installing one after a restore restarts
//! its private sequence, exactly like installing it mid-run.

use crate::snapshot::{Persist, Reader, SnapshotError, Writer};
use crate::topology::{NodeSlot, Topology};
use crate::NodeId;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The per-round view a [`Scheduler`] selects from: the current round
/// number, the live topology, and the runtime's dirty set.
pub struct SchedView<'a> {
    /// Round about to execute.
    pub round: u64,
    /// The round-start topology (live membership, adjacency, slots).
    pub topo: &'a Topology,
    /// Slots the runtime has marked dirty (see the module docs), sorted by
    /// **canonical member order** ([`Topology::member_rank`]) — the same
    /// order [`Synchronous`] activates in, so selecting the dirty set
    /// verbatim preserves the synchronous execution's apply order (and
    /// with it the relative order of same-round messages in a shared
    /// recipient's inbox). Every live non-quiescent node is in here; so is
    /// every node with a non-empty inbox or a recently changed
    /// neighborhood. Populated only for schedulers whose
    /// [`Scheduler::draws`] is [`Draws::DirtySet`].
    pub dirty: &'a [NodeSlot],
}

/// What a daemon's selection is drawn from ([`Scheduler::draws`]). It
/// decides what the runtime prepares for [`Scheduler::select`], and
/// whether it calls it at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Draws {
    /// Every live slot, in canonical member order, every round. The
    /// runtime fills the selection itself from [`Topology::live_slots`]
    /// and does not call [`Scheduler::select`]; the selection is distinct
    /// live slots by construction, so it skips the sanitizer too.
    EveryLive,
    /// [`SchedView::dirty`]: the runtime sorts the dirty set into the view
    /// each round.
    DirtySet,
    /// A choice of the daemon's own, without the dirty set: the view's
    /// `dirty` is left empty, which spares full-activation rounds the
    /// O(dirty log dirty) sort.
    Own,
}

/// A daemon: selects the slots to activate each round.
///
/// Implementations must be deterministic functions of their own state and
/// the [`SchedView`]. The runtime sanitizes
/// the selection — duplicates and non-live slots are dropped — so a sloppy
/// scheduler cannot corrupt the engine, but a correct one should not rely
/// on that. (A [`Draws::EveryLive`] daemon is not asked: the runtime
/// fills that selection itself.) Selection order is the apply order: actions of earlier-selected
/// nodes are applied (and their messages enqueued) first.
pub trait Scheduler {
    /// Append this round's activation set to `out` (passed in empty).
    fn select(&mut self, view: &SchedView<'_>, out: &mut Vec<NodeSlot>);

    /// Short label for reports and experiment tables.
    fn name(&self) -> &str {
        "scheduler"
    }

    /// True iff this scheduler promises to activate every node whose step
    /// might not be a no-op — i.e. it claims execution-equivalence with
    /// [`Synchronous`] for well-behaved programs. The runtime's debug
    /// shadow-step check only audits schedulers that return true.
    fn claims_equivalence(&self) -> bool {
        false
    }

    /// What [`Scheduler::select`] draws from (see [`Draws`]). Defaults to
    /// [`Draws::DirtySet`] (a correct-but-slower view beats a silently
    /// empty one); a daemon that selects without the dirty set should say
    /// [`Draws::Own`], and one that selects every live slot in member
    /// order [`Draws::EveryLive`].
    fn draws(&self) -> Draws {
        Draws::DirtySet
    }
}

/// The paper's fully synchronous daemon (the default): every live node
/// steps every round, in the engine's canonical member order. Bit-for-bit
/// identical to the pre-scheduler engine. It draws [`Draws::EveryLive`],
/// so the runtime never calls its `select`, which states the same
/// selection for direct callers.
#[derive(Debug, Clone, Copy, Default)]
pub struct Synchronous;

impl Scheduler for Synchronous {
    fn select(&mut self, view: &SchedView<'_>, out: &mut Vec<NodeSlot>) {
        out.extend(view.topo.live_slots().map(|(s, _)| s));
    }

    fn name(&self) -> &str {
        "synchronous"
    }

    fn claims_equivalence(&self) -> bool {
        true // trivially: nothing is ever skipped
    }

    fn draws(&self) -> Draws {
        Draws::EveryLive
    }
}

/// Seeded randomized daemon: each live node is activated independently
/// with probability `p` each round. Messages to skipped nodes stay queued
/// in their inboxes until the node is eventually activated (the engine
/// delays delivery, it never drops it).
#[derive(Debug, Clone)]
pub struct RandomSubset {
    p: f64,
    rng: SmallRng,
}

impl RandomSubset {
    /// Activate each node with probability `p` (clamped to `[0, 1]`),
    /// drawing from a private RNG seeded with `seed`.
    pub fn new(p: f64, seed: u64) -> Self {
        Self {
            p: p.clamp(0.0, 1.0),
            rng: SmallRng::seed_from_u64(seed ^ 0x5E_ED_DA_E0_0F_u64),
        }
    }
}

impl Scheduler for RandomSubset {
    fn select(&mut self, view: &SchedView<'_>, out: &mut Vec<NodeSlot>) {
        // One draw per live node, in canonical member order, so the draw
        // sequence is a deterministic function of (seed, membership history).
        for (slot, _) in view.topo.live_slots() {
            if self.rng.gen_bool(self.p) {
                out.push(slot);
            }
        }
    }

    fn name(&self) -> &str {
        "random-subset"
    }

    fn draws(&self) -> Draws {
        Draws::Own
    }
}

/// How an [`Adversarial`] daemon picks its subsets.
#[derive(Debug, Clone)]
enum Plan {
    /// Partition the live members into this many classes by member order
    /// and activate class `round % groups` — a maximally
    /// unfair-but-starvation-free daemon (for static membership, every node
    /// steps once per `groups` rounds).
    RoundRobin(u64),
    /// Explicit per-round activation scripts (by node id), cycled: entry
    /// `round % len` is used.
    Script(Vec<Vec<NodeId>>),
}

/// Scripted / round-robin adversarial daemon. Node ids in scripts that are
/// not currently members are skipped (they may have left); script order is
/// activation (and thus apply) order, so the adversary also controls
/// intra-round sequencing.
#[derive(Debug, Clone)]
pub struct Adversarial {
    plan: Plan,
}

impl Adversarial {
    /// Round-robin over `groups` classes of the live member order
    /// (`groups == 0` is treated as 1, i.e. synchronous).
    pub fn round_robin(groups: u64) -> Self {
        Self {
            plan: Plan::RoundRobin(groups.max(1)),
        }
    }

    /// Explicit activation script: round `r` activates `rounds[r % len]`.
    /// An empty script activates nobody, ever.
    pub fn script(rounds: Vec<Vec<NodeId>>) -> Self {
        Self {
            plan: Plan::Script(rounds),
        }
    }
}

impl Scheduler for Adversarial {
    fn select(&mut self, view: &SchedView<'_>, out: &mut Vec<NodeSlot>) {
        match &self.plan {
            Plan::RoundRobin(groups) => {
                let class = view.round % groups;
                for (k, (slot, _)) in view.topo.live_slots().enumerate() {
                    if k as u64 % groups == class {
                        out.push(slot);
                    }
                }
            }
            Plan::Script(rounds) => {
                if rounds.is_empty() {
                    return;
                }
                let step = &rounds[(view.round % rounds.len() as u64) as usize];
                out.extend(step.iter().filter_map(|&v| view.topo.slot_of(v)));
            }
        }
    }

    fn name(&self) -> &str {
        match self.plan {
            Plan::RoundRobin(_) => "adversarial-rr",
            Plan::Script(_) => "adversarial-script",
        }
    }

    fn draws(&self) -> Draws {
        Draws::Own
    }
}

/// The activity-driven daemon: activates exactly the runtime's dirty set
/// (in canonical member order — the synchronous daemon's activation order
/// restricted to the dirty subset, which is what keeps same-round message
/// interleavings identical). After a well-behaved protocol converges and
/// quiesces, rounds cost O(dirty) ≈ 0 instead of O(n) — the
/// post-convergence speedup the scheduler subsystem exists for — while
/// remaining execution-equivalent to [`Synchronous`] (see the module docs
/// for the argument, and [`crate::Runtime::enable_shadow_check`] for the
/// debug-mode proof obligation).
#[derive(Debug, Clone, Copy, Default)]
pub struct ActivityDriven;

impl Scheduler for ActivityDriven {
    fn select(&mut self, view: &SchedView<'_>, out: &mut Vec<NodeSlot>) {
        out.extend_from_slice(view.dirty);
    }

    fn name(&self) -> &str {
        "activity-driven"
    }

    fn claims_equivalence(&self) -> bool {
        true
    }
}

/// The runtime's activation agenda: the dirty set (see the module docs)
/// and armed timers, the quiescence flags, and the selection the installed
/// daemon drew from them this round. All marking happens in canonical
/// order — the order is observable, because snapshots serialize the dirty
/// list raw.
pub(crate) struct Agenda {
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
    /// This round's sanitized selection (recycled).
    selection: Vec<NodeSlot>,
    /// Per-slot "selected this round" scratch (doubles as the dedup filter
    /// for sloppy schedulers and the skip detector for the shadow check).
    /// Not written on a [`Draws::EveryLive`] round.
    selected: Vec<bool>,
    /// This round's selection is every live slot ([`Draws::EveryLive`]).
    every_live: bool,
    /// Per-slot quiescence flag (mirrors `Program::is_quiescent`, updated
    /// when the node steps, joins, or is corrupted).
    quiescent: Vec<bool>,
    /// Live nodes currently flagged quiescent — O(1) quiescence reads.
    quiescent_count: usize,
    /// Armed [`crate::Ctx::wake_me_in`] timers: `(due_round, slot, id)`
    /// min-heap. The id guards against slot recycling (a timer of a
    /// departed host must not wake the slot's next occupant).
    timers: BinaryHeap<Reverse<(u64, u32, NodeId)>>,
}

impl Agenda {
    /// An agenda over slots with the given quiescence flags. Every slot
    /// starts dirty ("just spawned"): self-stabilization makes no
    /// assumption about the initial state, so every program must run at
    /// least once under any equivalence-claiming daemon.
    pub(crate) fn new(quiescent: Vec<bool>) -> Self {
        let n = quiescent.len();
        Self {
            dirty: vec![true; n],
            dirty_list: (0..n as u32).collect(),
            dirty_sorted: Vec::with_capacity(n),
            selection: Vec::with_capacity(n),
            selected: vec![false; n],
            every_live: false,
            quiescent_count: quiescent.iter().filter(|&&q| q).count(),
            quiescent,
            timers: BinaryHeap::new(),
        }
    }

    pub(crate) fn push_slot(&mut self) {
        self.dirty.push(false);
        self.selected.push(false);
        self.quiescent.push(false);
    }

    /// Mark slot `i` dirty: flag it and enqueue it exactly once.
    #[inline]
    pub(crate) fn mark(&mut self, i: usize) {
        if !self.dirty[i] {
            self.dirty[i] = true;
            self.dirty_list.push(i as u32);
        }
    }

    pub(crate) fn is_dirty(&self, i: usize) -> bool {
        self.dirty[i]
    }

    /// The dirty slots, unordered — at a round boundary a superset of the
    /// slots holding pending messages (see [`crate::arena`]).
    pub(crate) fn dirty_list(&self) -> &[u32] {
        &self.dirty_list
    }

    /// Mark both endpoints of a (changed) edge dirty: their neighborhoods
    /// changed, which is a wake-up condition.
    pub(crate) fn mark_edge(&mut self, topo: &Topology, a: NodeId, b: NodeId) {
        for v in [a, b] {
            if let Some(s) = topo.slot_of(v) {
                self.mark(s.index());
            }
        }
    }

    /// Update slot `i`'s quiescence flag and the live count.
    #[inline]
    pub(crate) fn set_quiescent(&mut self, i: usize, q: bool) {
        if self.quiescent[i] != q {
            self.quiescent[i] = q;
            if q {
                self.quiescent_count += 1;
            } else {
                self.quiescent_count -= 1;
            }
        }
    }

    pub(crate) fn is_quiescent(&self, i: usize) -> bool {
        self.quiescent[i]
    }

    /// Every slot's quiescence flag, for the emit stage to read.
    pub(crate) fn quiescent_flags(&self) -> &[bool] {
        &self.quiescent
    }

    pub(crate) fn quiescent_count(&self) -> usize {
        self.quiescent_count
    }

    /// The armed timers `(due round, slot, id)`, sorted (the heap's own
    /// order is unspecified).
    pub(crate) fn armed_timers(&self) -> Vec<(u64, u32, NodeId)> {
        let mut timers: Vec<_> = self.timers.iter().map(|&Reverse(t)| t).collect();
        timers.sort_unstable();
        timers
    }

    /// Slots queued for activation: the dirty set plus armed timers.
    pub(crate) fn pending(&self) -> usize {
        self.dirty_list.len() + self.timers.len()
    }

    /// Move due wake-ups into the dirty set. The id guard discards timers
    /// of departed hosts (their slot may have been recycled by an unrelated
    /// joiner).
    pub(crate) fn wake_due(&mut self, round: u64, topo: &Topology) {
        while let Some(&Reverse((due, slot, id))) = self.timers.peek() {
            if due > round {
                break;
            }
            self.timers.pop();
            if topo.id_at(NodeSlot::new(slot as usize)) == Some(id) {
                self.mark(slot as usize);
            }
        }
    }

    /// Let `sched` pick this round's activation set.
    ///
    /// The dirty view is sorted by **canonical member order** — the order
    /// the synchronous daemon activates in — not by slot: apply order
    /// decides the relative order of same-round messages in a shared
    /// recipient's inbox, so an equivalence-claiming daemon activating a
    /// subset in any other order would produce different inbox contents
    /// than the synchronous execution (member order diverges from slot
    /// order after the first departure). The sorted view is built only for
    /// schedulers that read it — full-activation daemons skip the
    /// O(dirty log dirty) sort.
    ///
    /// A [`Draws::EveryLive`] daemon is not asked: its selection is the
    /// live slots in member order, distinct and live by construction, so
    /// it skips the sanitizer. Every live dirty slot is activated and
    /// every dead one purged, so the dirty set empties, touching only the
    /// slots on its list.
    pub(crate) fn select(&mut self, sched: &mut dyn Scheduler, round: u64, topo: &Topology) {
        self.selection.clear();
        let draws = sched.draws();
        self.every_live = draws == Draws::EveryLive;
        if self.every_live {
            self.selection.extend(topo.live_slots().map(|(s, _)| s));
            for &i in &self.dirty_list {
                self.dirty[i as usize] = false;
            }
            self.dirty_list.clear();
            return;
        }
        self.dirty_sorted.clear();
        if draws == Draws::DirtySet {
            self.dirty_sorted.extend(
                self.dirty_list
                    .iter()
                    .map(|&i| NodeSlot::new(i as usize))
                    .filter(|&s| topo.is_live(s)),
            );
            self.dirty_sorted
                .sort_unstable_by_key(|&s| topo.member_rank(s).expect("filtered to live slots"));
        }
        let view = SchedView {
            round,
            topo,
            dirty: &self.dirty_sorted,
        };
        sched.select(&view, &mut self.selection);

        // Sanitize: drop duplicates and non-live slots so a sloppy
        // scheduler cannot step a node twice in a round, or a free slot.
        // Activated slots consume their dirtiness in the same pass;
        // unselected dirty slots stay queued (wake-ups are never lost
        // under partial daemons).
        let (selected, dirty) = (&mut self.selected, &mut self.dirty);
        self.selection.retain(|&s| {
            let i = s.index();
            let ok = !selected[i] && topo.is_live(s);
            if ok {
                selected[i] = true;
                dirty[i] = false;
            }
            ok
        });
        // Flags of dead slots are purged here, so a recycled slot starts
        // clean.
        self.dirty_list.retain(|&i| {
            let i = i as usize;
            dirty[i] && {
                dirty[i] = topo.is_live(NodeSlot::new(i));
                dirty[i]
            }
        });
    }

    /// Distinct live slots, in apply order.
    pub(crate) fn selection(&self) -> &[NodeSlot] {
        &self.selection
    }

    /// True iff the live slot `i` is in this round's selection (the
    /// shadow-step check's skip detector): always, on an every-live round.
    #[cfg(debug_assertions)]
    pub(crate) fn is_selected(&self, i: usize) -> bool {
        self.every_live || self.selected[i]
    }

    /// Bookkeeping for one activation that just stepped: its wake-up
    /// request and its quiescence report. A node that stepped and is still
    /// non-quiescent re-marks itself (it has work of its own), which is
    /// what keeps the dirty set a superset of the non-quiescent live nodes
    /// under every scheduler.
    pub(crate) fn settle(
        &mut self,
        round: u64,
        slot: u32,
        id: NodeId,
        wake_in: Option<u64>,
        quiescent: bool,
    ) {
        let i = slot as usize;
        match wake_in {
            Some(d) if d <= 1 => self.mark(i),
            Some(d) => self.timers.push(Reverse((round + d, slot, id))),
            None => {}
        }
        self.set_quiescent(i, quiescent);
        if !quiescent {
            self.mark(i);
        }
    }

    /// Reset the per-slot "selected" scratch for the next round (an
    /// every-live round wrote none).
    pub(crate) fn end_round(&mut self) {
        if self.every_live {
            return;
        }
        for s in &self.selection {
            self.selected[s.index()] = false;
        }
    }

    /// Capacity-based heap bytes (the timer heap by occupancy).
    pub(crate) fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        (self.dirty.capacity() + self.selected.capacity() + self.quiescent.capacity())
            * size_of::<bool>()
            + (self.dirty_list.capacity() + self.dirty_sorted.capacity()) * size_of::<u32>()
            + self.selection.capacity() * size_of::<NodeSlot>()
            + self.timers.len() * size_of::<Reverse<(u64, u32, NodeId)>>()
    }

    /// Serialize the dirty list (raw order) and the armed timers, sorted
    /// so identical states produce identical bytes.
    pub(crate) fn save(&self, w: &mut Writer) {
        self.dirty_list.save(w);
        self.armed_timers().save(w);
    }

    /// Restore what [`Agenda::save`] wrote, over slots with the given
    /// quiescence flags — those are a pure function of the program states
    /// (the runtime syncs them at every step/join/corruption), so the
    /// caller recomputes them rather than trusting a payload.
    pub(crate) fn load(r: &mut Reader<'_>, quiescent: Vec<bool>) -> Result<Self, SnapshotError> {
        let n = quiescent.len();
        let corrupt = |what: String| Err(SnapshotError::Corrupt(what));
        let mut agenda = Self::new(quiescent);
        agenda.dirty_list = Vec::load(r)?;
        agenda.dirty.fill(false);
        for &i in &agenda.dirty_list {
            let i = i as usize;
            if i >= n {
                return corrupt(format!("dirty slot {i} out of range"));
            }
            if std::mem::replace(&mut agenda.dirty[i], true) {
                return corrupt(format!("dirty slot {i} listed twice"));
            }
        }
        for (due, slot, id) in Vec::<(u64, u32, NodeId)>::load(r)? {
            if slot as usize >= n {
                return corrupt(format!("timer slot {slot} out of range"));
            }
            agenda.timers.push(Reverse((due, slot, id)));
        }
        Ok(agenda)
    }
}

/// Parse a scheduler from a CLI-style spec: `sync`, `activity`,
/// `random:<p>` with `p` in `[0, 1]` (seeded with `seed`), or `rr:<k>` with
/// `k ≥ 1`. Returns `None` for an unrecognized or out-of-range spec (a NaN
/// `p` included) — callers should report the valid forms.
pub fn from_spec(spec: &str, seed: u64) -> Option<Box<dyn Scheduler>> {
    Some(match spec {
        "sync" | "synchronous" => Box::new(Synchronous),
        "activity" | "activity-driven" => Box::new(ActivityDriven),
        _ => match spec.split_once(':')? {
            ("random", p) => {
                let p: f64 = p.parse().ok().filter(|p| (0.0..=1.0).contains(p))?;
                Box::new(RandomSubset::new(p, seed))
            }
            ("rr", k) => Box::new(Adversarial::round_robin(k.parse().ok().filter(|&k| k > 0)?)),
            _ => return None,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view_fixture() -> Topology {
        Topology::new(0..6u32, (0..5u32).map(|i| (i, i + 1)))
    }

    fn select(s: &mut dyn Scheduler, topo: &Topology, round: u64, dirty: &[NodeSlot]) -> Vec<u32> {
        let mut out = Vec::new();
        s.select(&SchedView { round, topo, dirty }, &mut out);
        out.iter().map(|s| s.index() as u32).collect()
    }

    #[test]
    fn synchronous_selects_all_live_in_member_order() {
        let topo = view_fixture();
        let got = select(&mut Synchronous, &topo, 0, &[]);
        assert_eq!(got, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn activity_driven_selects_exactly_the_dirty_set() {
        let topo = view_fixture();
        let dirty = [NodeSlot::new(1), NodeSlot::new(4)];
        assert_eq!(select(&mut ActivityDriven, &topo, 7, &dirty), vec![1, 4]);
        assert_eq!(
            select(&mut ActivityDriven, &topo, 8, &[]),
            Vec::<u32>::new()
        );
    }

    #[test]
    fn random_subset_is_seed_deterministic_and_p_bounded() {
        let topo = view_fixture();
        let runs = |seed| {
            let mut s = RandomSubset::new(0.5, seed);
            (0..20)
                .map(|r| select(&mut s, &topo, r, &[]))
                .collect::<Vec<_>>()
        };
        assert_eq!(runs(9), runs(9));
        assert_ne!(runs(9), runs(10), "different seeds differ");
        let mut all = RandomSubset::new(1.0, 1);
        assert_eq!(select(&mut all, &topo, 0, &[]).len(), 6);
        let mut none = RandomSubset::new(0.0, 1);
        assert!(select(&mut none, &topo, 0, &[]).is_empty());
    }

    #[test]
    fn round_robin_partitions_and_covers() {
        let topo = view_fixture();
        let mut s = Adversarial::round_robin(3);
        let mut seen: Vec<u32> = Vec::new();
        for r in 0..3 {
            seen.extend(select(&mut s, &topo, r, &[]));
        }
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3, 4, 5], "3 rounds cover everyone");
        assert_eq!(select(&mut s, &topo, 0, &[]), vec![0, 3]);
    }

    #[test]
    fn script_resolves_ids_and_cycles() {
        let topo = view_fixture();
        let mut s = Adversarial::script(vec![vec![5, 0], vec![2, 99]]);
        assert_eq!(select(&mut s, &topo, 0, &[]), vec![5, 0], "script order");
        assert_eq!(select(&mut s, &topo, 1, &[]), vec![2], "unknown id skipped");
        assert_eq!(select(&mut s, &topo, 2, &[]), vec![5, 0], "cycles");
    }

    #[test]
    fn spec_parsing() {
        assert_eq!(from_spec("sync", 0).unwrap().name(), "synchronous");
        assert_eq!(from_spec("activity", 0).unwrap().name(), "activity-driven");
        assert_eq!(from_spec("random:0.25", 7).unwrap().name(), "random-subset");
        assert_eq!(from_spec("rr:4", 0).unwrap().name(), "adversarial-rr");
        assert_eq!(from_spec("random:0", 7).unwrap().name(), "random-subset");
        assert_eq!(from_spec("random:1", 7).unwrap().name(), "random-subset");
        for bad in [
            "bogus",
            "random:x",
            "random:nan",
            "random:NaN",
            "random:1.5",
            "random:-1",
            "random:inf",
            "rr:0",
            "rr:-1",
            "rr:x",
        ] {
            assert!(from_spec(bad, 0).is_none(), "{bad} must be rejected");
        }
    }

    /// The every-live fill and the sanitizer, given the same slots, leave
    /// the agenda in the same state: every live slot selected in member
    /// order, the dirty set empty, the dead slot's mark purged.
    #[test]
    fn every_live_fill_matches_the_sanitizer() {
        let mut topo = view_fixture();
        topo.remove_node(1);
        let run = |sched: &mut dyn Scheduler| {
            let mut agenda = Agenda::new(vec![false; 6]);
            agenda.mark(1);
            agenda.select(sched, 3, &topo);
            // The shadow check asks only about live slots.
            #[cfg(debug_assertions)]
            assert!(topo
                .live_slots()
                .all(|(s, _)| agenda.is_selected(s.index())));
            let state = (agenda.selection().to_vec(), agenda.dirty.clone());
            agenda.end_round();
            assert!(agenda.dirty_list().is_empty() && !agenda.selected.contains(&true));
            state
        };
        let (sel, dirty) = run(&mut Synchronous);
        let live: Vec<_> = topo.live_slots().map(|(s, _)| s).collect();
        assert_eq!((&sel, &dirty), (&live, &vec![false; 6]));
        assert_eq!(run(&mut Adversarial::round_robin(1)), (sel, dirty));
    }

    #[test]
    fn equivalence_claims() {
        assert!(Synchronous.claims_equivalence());
        assert!(ActivityDriven.claims_equivalence());
        assert!(!RandomSubset::new(0.5, 1).claims_equivalence());
        assert!(!Adversarial::round_robin(2).claims_equivalence());
        assert_eq!(Synchronous.draws(), Draws::EveryLive);
        assert_eq!(ActivityDriven.draws(), Draws::DirtySet);
        assert_eq!(RandomSubset::new(0.5, 1).draws(), Draws::Own);
        assert_eq!(Adversarial::round_robin(2).draws(), Draws::Own);
    }
}
