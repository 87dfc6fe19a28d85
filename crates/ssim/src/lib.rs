//! # ssim — synchronous overlay-network simulator
//!
//! Implements the model of computation of Section 2 of Berns, *"Network
//! Scaffolding for Efficient Stabilization of the Chord Overlay Network"*
//! (SPAA 2021):
//!
//! * **Synchronous message passing**: computation proceeds in rounds; a
//!   message is received in round `i` iff it was sent in round `i − 1` by a
//!   then-neighbor. Channels are reliable.
//! * **Overlay model**: logical edges are node state. In a round, a node may
//!   *delete* any incident edge, and may *connect two of its neighbors* to one
//!   another ("introduction"): node `w` may create edge `(u, v)` only when
//!   `(u, w)` and `(w, v)` both exist at the start of the round. The runtime
//!   **enforces** this rule — a protocol that attempts an illegal link is a
//!   bug and panics under [`Config::strict`] (the default).
//! * **Metrics**: per-round maximum degree, message counts and edge churn are
//!   recorded to compute *convergence time* and *degree expansion*, the two
//!   performance measures of Section 2.2.
//! * **Dynamic membership**: hosts can join, leave, or crash mid-run
//!   ([`Runtime::join`] / [`Runtime::leave`] / [`Runtime::crash`]), so the
//!   "fragile environment" churn the paper motivates is a first-class,
//!   schedulable perturbation.
//! * **Drivers**: a run is driven to a goal — a predicate over the
//!   runtime, typically a protocol's legality — by
//!   [`Runtime::run_monitored`], which counts the rounds to convergence
//!   (see [`monitor`]). Perturbations
//!   have one vocabulary — [`Fault`] for the node and edge set, the other
//!   [`Event`]s for state, daemon and network — and one loop that applies
//!   them, [`Scenario::run`], producing JSON-serializable reports; an
//!   [`Adversary`] is a seeded generator of events for it.
//! * **Daemons**: which nodes step each round is a pluggable [`sched`]
//!   scheduler — the paper's synchronous daemon by default, plus
//!   randomized and adversarial activation for weaker-daemon stress, and
//!   the dirty-set-driven [`sched::ActivityDriven`] daemon that makes
//!   post-convergence rounds O(activity) instead of O(n).
//! * **Snapshots**: a full runtime serializes to a versioned,
//!   hash-verified binary [`snapshot`] and restores into a runtime that
//!   continues byte-identically under any equivalence-claiming scheduler. Programs opt in via [`Persist`].
//! * **Traffic**: application request [`workload`]s are injected each
//!   round and routed hop-by-hop over the *live* host links by the
//!   protocol's [`workload::Router`], racing stabilization and churn
//!   honestly, with per-request accounting.
//! * **Network conditions**: a seeded [`net::NetModel`] relaxes the
//!   reliable synchronous channel (latency, jitter, loss, duplication),
//!   and [`Runtime::partition`] / [`Runtime::heal`] cut and splice the
//!   network without touching edges; see [`net`].
//!
//! Node programs implement [`Program`]. A round runs on the calling
//! thread and is a pure function of the seed: every node owns a PRNG
//! seeded from `(run seed, node id)`, the emit phase reads only the
//! round-start snapshot, and action application is sequenced in selection
//! order (see [`Runtime::step`] for the stages of a round).
//!
//! The engine core is **slot-based**: every member occupies a stable
//! [`NodeSlot`] in the per-node storage for its whole lifetime, freed slots
//! are recycled through a free list, and the id → slot map is consulted
//! only at the membership boundary. Membership events are therefore O(deg)
//! — no renumbering, no index rebuilds — and steady-state rounds allocate
//! nothing: inboxes are pages of a shared [`arena`] recycled at
//! consumption, the emit sink is recycled, and edge/degree aggregates are
//! tracked incrementally.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The round is only readable while every stage fits in a reviewer's head:
// the `lint` CI job turns this into an error past the threshold in the
// workspace's `clippy.toml`.
#![warn(clippy::too_many_lines)]

pub mod adversary;
pub mod arena;
pub mod compact;
pub mod fault;
pub mod init;
pub mod metrics;
pub mod monitor;
pub mod net;
pub mod program;
pub mod runtime;
pub mod scenario;
pub mod sched;
pub mod snapshot;
pub mod topology;
pub mod workload;

pub use adversary::{
    run_gauntlet, Adversary, Checkpoint, GauntletOutcome, Introspect, Recovery, Sabotage,
};
pub use compact::{CompactMap, CompactSet};
pub use fault::Fault;
pub use metrics::{PerfCounters, RoundMetrics, RunMetrics};
pub use monitor::{DetectorSuite, FaultClass, MonitorOutcome, RunVerdict, Severity};
pub use net::{NetModel, NetStats};
pub use program::{Ctx, NeighborBaseline, Program};
pub use runtime::{Config, MemFootprint, Runtime};
pub use scenario::{Event, Scenario, ScenarioReport};
pub use sched::{
    ActivityDriven, Adversarial, Draws, RandomSubset, SchedView, Scheduler, Synchronous,
};
pub use snapshot::{Persist, SnapshotError};
pub use topology::{NodeSlot, Topology};
pub use workload::{
    Key, OpenLoop, RequestOutcome, RequestRecord, RequestStats, RouteStep, Router, Silent,
    Workload, WorkloadConfig,
};

/// Identifier of a (host) node. Drawn from `[0, N)` for guest capacity `N`.
pub type NodeId = u32;
