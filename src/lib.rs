//! # chord-scaffolding — facade crate
//!
//! Reproduction of Berns, *"Network Scaffolding for Efficient Stabilization
//! of the Chord Overlay Network"* (SPAA 2021). Re-exports the workspace
//! crates under one roof for the examples and downstream users:
//!
//! * [`sim`] — the synchronous overlay-network simulator (model of §2),
//!   including **dynamic membership** (hosts join/leave/crash mid-run), the
//!   run-to-goal driver ([`sim::monitor`]), declarative [`sim::scenario`]
//!   perturbation schedules, pluggable [`sim::sched`] **daemons**
//!   (synchronous, randomized, adversarial, and the activity-driven daemon
//!   that makes post-convergence rounds O(activity) instead of O(n)), and
//!   live **traffic**: [`sim::workload`] request generators routed
//!   hop-by-hop over the evolving host links by the protocols' own
//!   [`sim::workload::Router`] implementations, with per-request
//!   accounting.
//! * [`topology`] — `Chord(N)`, `Cbt(N)`, the Avatar embedding, routing.
//! * [`scaffold`] — the self-stabilizing `Avatar(Cbt)` substrate (§3).
//! * [`chord`] — the paper's contribution: self-stabilizing `Avatar(Chord)`
//!   via PIF finger waves and phase selection (§4–§5), plus the generalized
//!   scaffolding pattern (§6).
//! * [`baseline`] — TCF and the linear-scaffold comparison algorithms.
//!
//! The three driver-facing layers compose as **Program → goal →
//! Scenario** (see `ARCHITECTURE.md`): a [`sim::Program`] defines one
//! node's round behavior, a goal — a predicate over the global
//! configuration, such as [`chord::legality`] — says when the run has
//! converged, and a [`sim::Scenario`] schedules perturbations — faults
//! *and true membership churn* — against a running network.
//!
//! ## Quickstart: stabilize, then survive churn
//!
//! ```
//! use chord_scaffolding::chord::{self, ChordTarget};
//! use chord_scaffolding::sim::fault::Fault;
//! use chord_scaffolding::sim::scenario::Scenario;
//! use chord_scaffolding::sim::{init::Shape, Config};
//!
//! // 8 hosts with random ids in a guest space of 64, starting from a line.
//! let target = ChordTarget::classic(64);
//! let mut rt = chord::runtime_from_shape(target, 8, Shape::Line, Config::seeded(7));
//!
//! // Drive to the legal configuration: the legality goal.
//! let out = rt.run_monitored(chord::legality(), 50_000);
//! println!("stabilized in {} rounds", out.rounds);
//! assert!(chord::runtime_is_legal(&rt));
//!
//! // Now the fragile-environment workload: a host joins (the node set
//! // really grows), another leaves, and the overlay must re-stabilize.
//! let newcomer = (0..64).find(|v| !rt.ids().contains(v)).unwrap();
//! let veteran = rt.ids()[3];
//! let scenario = Scenario::new("churn")
//!     .fault(0, Fault::Join { id: newcomer, attach: 2 })
//!     .leave(5, veteran);
//! let report = scenario.run(&mut rt, chord::legality(), 50_000);
//! assert!(report.converged(), "overlay healed around the churn");
//! assert_eq!(report.nodes_final, 8, "8 - 1 + 1 hosts remain");
//! println!("{}", report.to_json());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use avatar_cbt as scaffold;
pub use baselines as baseline;
pub use chord_scaffold as chord;
pub use overlay as topology;
pub use ssim as sim;
