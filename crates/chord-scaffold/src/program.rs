//! [`ssim::Program`] wrapper for the combined scaffolding protocol.

use crate::msg::ScafMsg;
use crate::protocol::ScaffoldCore;
use crate::target::{ChordTarget, InductiveTarget};
use ssim::snapshot::{persist_struct, Persist};
use ssim::workload::{RouteStep, Router};
use ssim::{Ctx, NodeId, Program};

/// A host running the self-stabilizing Avatar(target) protocol. The default
/// target is [`ChordTarget`], the paper's Avatar(Chord).
#[derive(Debug, Clone)]
pub struct ScaffoldProgram<T: InductiveTarget = ChordTarget> {
    /// The protocol state.
    pub core: ScaffoldCore<T>,
}

impl<T: InductiveTarget> ScaffoldProgram<T> {
    /// A host starting in the CBT phase as a singleton cluster.
    pub fn new(id: NodeId, target: T, nonce: u64) -> Self {
        Self {
            core: ScaffoldCore::new(id, target, nonce),
        }
    }

    /// Re-budget the host for a network-conditions model
    /// (see [`ScaffoldCore::with_net`]); the identity on the ideal network.
    #[must_use]
    pub fn with_net(mut self, model: ssim::NetModel) -> Self {
        self.core = self.core.with_net(model);
        self
    }
}

impl<T: InductiveTarget> Program for ScaffoldProgram<T> {
    type Msg = ScafMsg;

    fn step(&mut self, ctx: &mut Ctx<'_, ScafMsg>) {
        self.core.step(ctx);
    }

    /// The engine's quiescence contract: only a *settled* DONE host (grace
    /// drained, neighbor baseline cached) has a guaranteed-no-op next step;
    /// see [`ScaffoldCore::is_settled`].
    fn is_quiescent(&self) -> bool {
        self.core.is_settled()
    }
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
