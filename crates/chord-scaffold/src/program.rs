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
/// step reads: the adjacency stamp ([`Ctx::neighbors_stamp`]) at which the
/// record last ended a step settled, 0 when unknown. The slot array then
/// holds 16 bytes per host, so a silent round walks a dense array instead
/// of faulting in every record.
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

    /// A record that ended a step settled at this round's adjacency stamp,
    /// with nothing in the inbox, would take the full step as a no-op
    /// ([`ScaffoldCore::is_settled`]): the step returns without reading
    /// the record. Debug builds check that answer against the record.
    fn step(&mut self, ctx: &mut Ctx<'_, ScafMsg>) {
        let stamp = ctx.neighbors_stamp();
        let Settled {
            record,
            stamp: word,
        } = &mut self.core;
        if *word == stamp && ctx.inbox().is_empty() {
            debug_assert!(
                record.settled_on(ctx.neighbors()),
                "node {}: settled at stamp {stamp}, but the record is not settled on {:?}",
                ctx.id,
                ctx.neighbors()
            );
            return;
        }
        record.step(ctx);
        *word = if record.is_settled() { stamp } else { 0 };
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
