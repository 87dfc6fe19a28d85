//! [`ssim::Program`] wrapper for the combined scaffolding protocol.

use crate::msg::ScafMsg;
use crate::protocol::ScaffoldCore;
use crate::target::{ChordTarget, InductiveTarget};
use ssim::snapshot::{persist_struct, Persist, Reader, SnapshotError, Writer};
use ssim::workload::{RouteStep, Router};
use ssim::{Ctx, NodeId, Program};
use std::ops::{Deref, DerefMut};

/// A host running the self-stabilizing Avatar(target) protocol. The default
/// target is [`ChordTarget`], the paper's Avatar(Chord).
#[derive(Debug, Clone)]
pub struct ScaffoldProgram<T: InductiveTarget = ChordTarget> {
    /// The protocol state, kept out of line behind its settled stamp.
    pub core: Settled<ScaffoldCore<T>>,
}

/// A program record kept out of line, plus the one word a settled host's
/// activation reads: the adjacency stamp ([`Ctx::neighbors_stamp`]) at
/// which the record last ended a step settled, 0 when unknown. The word
/// answers [`Program::idle_at`], which the engine asks before it builds a
/// [`Ctx`] and the step asks first, so a silent round reads the word and
/// never the record. The slot array then holds 16 bytes per host, so a
/// silent round walks a dense array instead of faulting in every record.
///
/// The word is a cache, never state. Every mutable borrow of the record
/// ([`DerefMut`]) clears it, so an edit from outside the step (fault
/// injection, fixture installs) is never skipped over; a clone and a loaded
/// record start cold; [`Persist`] writes the record alone, so snapshot
/// bytes do not depend on it; `Debug` shows the record alone.
pub struct Settled<C> {
    record: Box<C>,
    stamp: u64,
}

impl<C> Settled<C> {
    /// Box `record`, cold.
    pub(crate) fn new(record: C) -> Self {
        Self {
            record: Box::new(record),
            stamp: 0,
        }
    }

    /// The record, unboxed.
    pub(crate) fn into_inner(self) -> C {
        *self.record
    }
}

impl<C> Deref for Settled<C> {
    type Target = C;
    fn deref(&self) -> &C {
        &self.record
    }
}

impl<C> DerefMut for Settled<C> {
    /// Goes cold: the record may change behind the step's back.
    fn deref_mut(&mut self) -> &mut C {
        self.stamp = 0;
        &mut self.record
    }
}

impl<C: Clone> Clone for Settled<C> {
    fn clone(&self) -> Self {
        Self::new((*self.record).clone())
    }
}

impl<C: std::fmt::Debug> std::fmt::Debug for Settled<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.record.fmt(f)
    }
}

impl<C: Persist> Persist for Settled<C> {
    fn save(&self, w: &mut Writer) {
        self.record.save(w);
    }

    fn load(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        C::load(r).map(Self::new)
    }
}

impl<T: InductiveTarget> ScaffoldProgram<T> {
    /// A host starting in the CBT phase as a singleton cluster.
    pub fn new(id: NodeId, target: T, nonce: u64) -> Self {
        Self {
            core: Settled::new(ScaffoldCore::new(id, target, nonce)),
        }
    }

    /// Re-budget the host for a network-conditions model
    /// (see [`ScaffoldCore::with_net`]); the identity on the ideal network.
    #[must_use]
    pub fn with_net(self, model: ssim::NetModel) -> Self {
        Self {
            core: Settled::new(self.core.into_inner().with_net(model)),
        }
    }
}

impl<T: InductiveTarget> Program for ScaffoldProgram<T> {
    type Msg = ScafMsg;

    /// A record idle at this round's adjacency stamp ([`Program::idle_at`]),
    /// with nothing in the inbox, would take the full step as a no-op
    /// ([`ScaffoldCore::is_settled`]): the step returns without reading
    /// the record. Debug builds check that answer against the record.
    fn step(&mut self, ctx: &mut Ctx<'_, ScafMsg>) {
        let stamp = ctx.neighbors_stamp();
        if ctx.inbox().is_empty() && self.idle_at(stamp) {
            debug_assert!(
                self.core.settled_on(ctx.neighbors()),
                "node {}: settled at stamp {stamp}, but the record is not settled on {:?}",
                ctx.id,
                ctx.neighbors()
            );
            return;
        }
        let Settled {
            record,
            stamp: word,
        } = &mut self.core;
        record.step(ctx);
        *word = if record.is_settled() { stamp } else { 0 };
    }

    /// True iff the record ended its last step settled at `stamp`: the
    /// settled word alone answers, and 0 (cold) never matches.
    fn idle_at(&self, stamp: u64) -> bool {
        self.core.stamp != 0 && self.core.stamp == stamp
    }

    /// The engine's quiescence contract: only a *settled* DONE host (grace
    /// drained, neighbor baseline cached) has a guaranteed-no-op next step;
    /// see [`ScaffoldCore::is_settled`]. A set settled stamp answers alone.
    fn is_quiescent(&self) -> bool {
        self.core.stamp != 0 || self.core.is_settled()
    }

    const RECORD_BYTES: usize = std::mem::size_of::<ScaffoldCore<T>>();
}

persist_struct!(ScaffoldProgram<T: InductiveTarget + Persist> { core });

impl<T: InductiveTarget> Router for ScaffoldProgram<T> {
    /// Greedy guest-space Chord lookup over live host links — see
    /// [`ScaffoldCore::route_request`].
    fn route(&self, key: u32, neighbors: &[NodeId]) -> RouteStep {
        self.core.route_request(key, neighbors)
    }
}

impl<T: InductiveTarget> ssim::Sabotage for ScaffoldProgram<T> {
    fn age_observations(&mut self, rounds: u64) {
        self.core.cbt.view.age(rounds);
    }

    /// Skews the embedded cluster identity and forces the host out of its
    /// settled phase ([`ScaffoldCore::force_revert`]) so the lie is
    /// actively beaconed instead of sitting inert in a silent DONE host.
    fn skew_identity(&mut self, salt: u64) {
        self.core.cbt.skew_identity(salt);
        self.core.force_revert();
    }

    fn plant_observation(&mut self, about: NodeId, salt: u64) -> bool {
        self.core.cbt.plant_observation(about, salt)
    }
}

impl<T: InductiveTarget> ssim::Introspect for ScaffoldProgram<T> {
    fn observation_ages(&self, now: u64) -> Vec<(NodeId, u64)> {
        self.core.cbt.view.ages(now)
    }

    fn identity_digest(&self) -> u64 {
        self.core.cbt.core.digest()
    }

    fn recorded_digest(&self, about: NodeId) -> Option<u64> {
        self.core.cbt.view.latest(about).map(|b| b.digest())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{legality, runtime, ChordTarget};
    use ssim::Runtime;

    /// Whether `v`'s program is idle at its slot's current stamp.
    fn idle(rt: &Runtime<ScaffoldProgram>, v: NodeId) -> bool {
        let t = rt.topology();
        rt.program(v)
            .idle_at(t.stamp_at(t.slot_of(v).expect("member")))
    }

    /// The settled word answers `idle_at` only after a settled step at the
    /// stamp it is asked about: any mutable borrow of the record, a load,
    /// a clone and a moved stamp all leave it cold, and stamp 0 (never
    /// issued) never matches.
    #[test]
    fn idle_only_after_a_settled_step_at_an_unchanged_stamp() {
        let ids = [5, 11, 18, 23, 30];
        let edges = vec![(5, 18), (5, 23), (5, 30), (11, 18), (11, 30)];
        let mut rt = runtime(
            ChordTarget::classic(32),
            &ids,
            edges,
            ssim::Config::seeded(1),
        );
        let legal = rt.run_monitored(legality(), 81 * (8 * 3 + 16));
        assert!(legal.rounds_if_satisfied().is_some(), "stabilizes");
        // The DONE grace window drains within 20 rounds here.
        rt.run(32);
        assert!(
            ids.iter().all(|&v| idle(&rt, v)),
            "settled at unmoved stamps"
        );

        let (t, p) = (rt.topology(), rt.program(ids[0]));
        let stamp = t.stamp_at(t.slot_of(ids[0]).expect("member"));
        assert!(p.idle_at(stamp) && !p.idle_at(0) && !p.idle_at(stamp + 1));
        let mut w = Writer::new();
        p.save(&mut w);
        let bytes = w.into_bytes();
        let loaded =
            ScaffoldProgram::<ChordTarget>::load(&mut Reader::new(&bytes)).expect("own bytes");
        assert!(!loaded.idle_at(stamp), "a loaded record starts cold");
        assert!(!p.clone().idle_at(stamp), "a clone starts cold");

        // A mutable borrow that changes nothing still goes cold.
        rt.corrupt_node(ids[1], |p| {
            DerefMut::deref_mut(&mut p.core);
        });
        assert!(!idle(&rt, ids[1]));
        // An edge removed and re-added: equal lists under new stamps.
        let (a, b) = (ids[2], rt.topology().neighbors(ids[2])[0]);
        assert!(rt.adversarial_remove_edge(a, b) && rt.adversarial_add_edge(a, b));
        assert!(!idle(&rt, a) && !idle(&rt, b));
        let touched = [ids[1], a, b];
        let untouched = ids.iter().filter(|v| !touched.contains(v));
        assert!(untouched.copied().all(|v| idle(&rt, v)));

        // One settled step at the unchanged stamps re-arms every word.
        rt.step();
        assert!(ids.iter().all(|&v| idle(&rt, v)));
    }
}
