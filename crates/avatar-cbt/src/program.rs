//! [`ssim::Program`] wrapper around the protocol core, for running the
//! Avatar(CBT) algorithm standalone.

use crate::msg::CbtMsg;
use crate::protocol::{CbtCore, StepEvents};
use ssim::snapshot::persist_struct;
use ssim::workload::{RouteStep, Router};
use ssim::{Ctx, NodeId, Program};

/// A host node running the self-stabilizing Avatar(CBT) algorithm.
#[derive(Debug, Clone)]
pub struct CbtProgram {
    /// The protocol state.
    pub core: CbtCore,
    /// Events from the most recent round.
    pub last_events: StepEvents,
}

impl CbtProgram {
    /// A host starting as a singleton cluster. Standalone hosts opt into
    /// the quiesce wave ([`CbtCore::sleep_on_clean`]): once the root
    /// observes the network clean, the whole (legal) network goes dormant
    /// and costs nothing under activity-driven scheduling.
    pub fn new(id: NodeId, n: u32, nonce: u64) -> Self {
        let mut core = CbtCore::new(id, n, nonce);
        core.sleep_on_clean = true;
        Self {
            core,
            last_events: StepEvents::default(),
        }
    }

    /// Re-budget the host for a network-conditions model
    /// (see [`CbtCore::with_net`]); the identity on the ideal network.
    #[must_use]
    pub fn with_net(mut self, model: ssim::NetModel) -> Self {
        self.core = self.core.with_net(model);
        self
    }
}

impl Program for CbtProgram {
    type Msg = CbtMsg;

    fn step(&mut self, ctx: &mut Ctx<'_, CbtMsg>) {
        self.last_events = self.core.step(ctx);
    }

    /// The engine's quiescence contract: only a *dormant* host (asleep via
    /// the quiesce wave, grace drained, neighbor baseline cached) has a
    /// guaranteed-no-op next step. An awake host beacons every round even
    /// when its cluster looks clean, so it must keep being scheduled.
    fn is_quiescent(&self) -> bool {
        self.core.is_dormant()
    }
}

persist_struct!(CbtProgram { core, last_events });

impl Router for CbtProgram {
    /// Host-tree routing over live links — see [`CbtCore::route_request`].
    fn route(&self, key: u32, neighbors: &[NodeId]) -> RouteStep {
        self.core.route_request(key, neighbors)
    }
}

impl ssim::Sabotage for CbtProgram {
    fn age_observations(&mut self, rounds: u64) {
        self.core.view.age(rounds);
    }

    fn skew_identity(&mut self, salt: u64) {
        self.core.skew_identity(salt);
    }

    fn plant_observation(&mut self, about: NodeId, salt: u64) -> bool {
        self.core.plant_observation(about, salt)
    }
}

impl ssim::Introspect for CbtProgram {
    fn observation_ages(&self, now: u64) -> Vec<(NodeId, u64)> {
        self.core.view.ages(now)
    }

    fn identity_digest(&self) -> u64 {
        self.core.core.digest()
    }

    fn recorded_digest(&self, about: NodeId) -> Option<u64> {
        self.core.view.latest(about).map(|b| b.digest())
    }
}
