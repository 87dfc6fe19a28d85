//! # baselines — comparison algorithms from the paper's related work
//!
//! Two self-stabilizing overlay constructions the paper positions itself
//! against (Sections 1, 4.1, 6), implemented on the same simulator so
//! experiment E7 can compare rounds, peak degree and messages directly:
//!
//! * [`tcf`] — the **Transitive Closure Framework** (SSS 2011): detect →
//!   clique → prune. Converges in `O(log n)` rounds but drives node degrees
//!   to `Θ(n)` — the *space* cost scaffolding avoids.
//! * [`linear_scaffold`] — a **Re-Chord-style** builder (SPAA 2011):
//!   linearize into the sorted list, then walk fingers along it. Degrees
//!   stay low but the list's `Θ(n)` diameter costs `Θ(n)` rounds — the
//!   *time* cost scaffolding avoids.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod linear_scaffold;
pub mod tcf;

pub use linear_scaffold::{LinMsg, LinearProgram};
pub use tcf::{chord_over_ids_target, TcfProgram};

use ssim::Runtime;

/// Completion goal for a TCF run, for [`Runtime::run_monitored`]: every
/// node has pruned down to its target neighborhood.
pub fn tcf_done() -> impl FnMut(&Runtime<TcfProgram>) -> bool {
    |rt: &Runtime<TcfProgram>| rt.programs().all(|(_, p)| p.is_done())
}

/// Completion goal for a linear-scaffold run, for
/// [`Runtime::run_monitored`]: every node's finger walk finished.
pub fn linear_done() -> impl FnMut(&Runtime<LinearProgram>) -> bool {
    |rt: &Runtime<LinearProgram>| rt.programs().all(|(_, p)| p.walk_done)
}
