//! # chord-scaffold — self-stabilizing Avatar(Chord) via network scaffolding
//!
//! The paper's primary contribution (Berns, SPAA 2021): the first time- and
//! space-efficient self-stabilizing algorithm for a robust overlay topology.
//! From **any** weakly-connected initial configuration, the protocol
//!
//! 1. builds the `Avatar(Cbt(N))` **scaffold** with the embedded
//!    self-stabilizing algorithm (`avatar-cbt` crate) — expected `O(log² N)`
//!    rounds;
//! 2. grows the `Chord(N)` fingers on top with `log N` **PIF waves**
//!    (Algorithm 1, [`protocol`]): wave 0 realizes the base ring (its edges
//!    pre-exist in the embedding except the ring closure, which is walked up
//!    the tree to the root), and wave `k` adds the k-th finger of every guest
//!    in one introduction per host pair — `O(log² N)` rounds;
//! 3. falls **silent** ([`msg::Phase::Done`]): in a legal configuration no
//!    messages flow; any perturbation wakes the affected hosts back into the
//!    CBT phase.
//!
//! Phase selection (Section 4.4) is local: the `scaffolded` predicate of
//! Definition 3 is checked every round during the CHORD phase, and any
//! violation — including the adversarial "false Chord" states of Lemma 4 —
//! reverts the host to the CBT phase within `O(log N)` rounds, having added
//! at most one edge per host (degree at most doubles, Lemma 4).
//!
//! The [`target`] module generalizes the construction into the paper's
//! **network scaffolding** design pattern (Section 6): any
//! *triangle-inductive* target topology can be plugged in.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// No handler a reviewer cannot hold in their head: the `lint` CI job turns
// this into an error past the threshold in the workspace's `clippy.toml`.
#![warn(clippy::too_many_lines)]

pub mod legal;
pub mod msg;
pub mod program;
pub mod protocol;
pub mod target;

pub use legal::{
    expected_edges, is_legal, legality, legality_for, restore_runtime, runtime, runtime_from_shape,
    runtime_is_legal, runtime_with_net,
};
pub use msg::{Phase, PhaseInfo, ScafMsg};
pub use program::ScaffoldProgram;
pub use protocol::ScaffoldCore;
pub use target::{ChordTarget, InductiveTarget, TruncatedChordTarget};
