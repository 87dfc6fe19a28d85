//! # avatar-cbt — the self-stabilizing Avatar(CBT) scaffold network
//!
//! Reproduction of the substrate the paper builds on: Berns' *Avatar* overlay
//! framework instantiated with the complete-binary-search-tree guest network
//! (`Avatar(Cbt(N))`, SSS 2015), summarized in Section 3 of the scaffolding
//! paper. The algorithm stabilizes from any weakly-connected initial
//! configuration in `O(log² N)` expected rounds with `O(log² N)` expected
//! degree expansion, via three mechanisms:
//!
//! 1. **Clustering** ([`detector`]): each host continuously checks its local
//!    state against its neighbors' beacons; any inconsistency resets it to a
//!    *singleton cluster* hosting the entire guest space. Detection
//!    propagates because a reset invalidates its neighbors' checks.
//! 2. **Matching** ([`protocol`]): in globally aligned `Θ(log N)`-round
//!    epochs, each cluster root flips a leader/follower coin and polls its
//!    members over the host tree; follower clusters nominate one contact
//!    member adjacent to a leader cluster, leader roots collect contact edges
//!    via introduction walks and pair them (matching non-adjacent clusters,
//!    the key to constant merge probability per epoch).
//! 3. **Merging** ([`merge`]): matched cluster pairs "zipper" down the guest
//!    tree level by level, locally deciding the merged responsible ranges and
//!    creating exactly the host edges the merged embedding requires, then
//!    commit and prune.
//!
//! ## Faithfulness notes
//!
//! The original Avatar paper gives the algorithm as prose + proofs; this
//! implementation makes three documented engineering choices: globally
//! aligned epochs from the shared synchronous round counter, random cluster
//! nonces (so adversarially planted duplicate cluster ids are broken by the
//! first reset), and clock-scheduled commit/prune with detector grace
//! windows. Each preserves the complexity claims the scaffolding paper
//! depends on, which the experiment harness verifies empirically.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// No handler a reviewer cannot hold in their head: the `lint` CI job turns
// this into an error past the threshold in the workspace's `clippy.toml`.
#![warn(clippy::too_many_lines)]

pub mod detector;
pub mod hosttree;
pub mod legal;
pub mod merge;
pub mod msg;
pub mod program;
pub mod protocol;
pub mod schedule;
pub mod scratch;
pub mod state;

pub use legal::{
    is_legal_cbt, legality, restore_runtime, runtime, runtime_from_shape, runtime_is_legal,
    runtime_with_net,
};
pub use msg::{Beacon, Carrier, CbtMsg, ZipChildInfo, ZipExpect, ZipMeet};
pub use program::CbtProgram;
pub use protocol::{CbtCore, StepEvents};
pub use schedule::Schedule;
pub use state::{ClusterCore, Role};
