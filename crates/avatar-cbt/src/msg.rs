//! Protocol messages of the self-stabilizing Avatar(CBT) algorithm.

use crate::state::Role;
use ssim::snapshot::{persist_enum, persist_struct};
use ssim::NodeId;

/// The per-round state beacon every host shares with its neighbors while the
/// scaffold is under construction (the model's "nodes exchange their local
/// state" step, realized as an explicit message).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Beacon {
    /// Cluster identifier (random nonce; equal across cluster members).
    pub cid: u64,
    /// Responsible range `[lo, hi)` in guest-id space.
    pub range: (u32, u32),
    /// The minimum host identifier of the cluster.
    pub cluster_min: NodeId,
    /// This epoch's cluster role, once learned via the poll wave.
    pub role: Option<Role>,
    /// Epoch the role belongs to.
    pub epoch: u64,
}

impl Beacon {
    /// Digest of the cluster identity this beacon carries (see
    /// [`crate::state::identity_digest`]): comparable against
    /// [`crate::state::ClusterCore::digest`] of the sender.
    pub fn digest(&self) -> u64 {
        crate::state::identity_digest(self.cid, self.range, self.cluster_min)
    }
}

/// Which edge-walk a [`CbtMsg::WalkUp`] step belongs to. Only the contact
/// pull carries a remote cluster's identity: the leader root files the
/// follower as a contact under it. The match walks carry none — their
/// roots learn the partner's identity from its [`CbtMsg::MergeHello`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalkKind {
    /// Leader-side pull of a follower contact edge up to the leader root.
    ContactPull {
        /// The follower's cluster id.
        fcid: u64,
        /// The follower's cluster minimum host.
        fmin: NodeId,
    },
    /// First follower-side walk: pulls the match edge up to the first
    /// follower's root.
    MatchW1,
    /// Second follower-side walk: pulls the anchored root edge up to the
    /// second follower's root.
    MatchW2,
}

/// Messages of the Avatar(CBT) protocol.
#[derive(Debug, Clone)]
pub enum CbtMsg {
    /// Per-round state exchange.
    Beacon(Beacon),
    /// Quiesce wave (standalone Avatar(CBT) runs only, see
    /// [`crate::protocol::CbtCore::sleep_on_clean`]): the cluster root
    /// observed a fully clean feedback wave — the scaffold is built — and
    /// orders its subtree to stop beaconing and go dormant until a message
    /// or a neighborhood change wakes it.
    Sleep,
    /// Role poll, propagated root-to-leaves down the host tree.
    Poll {
        /// Epoch of the poll.
        epoch: u64,
        /// The cluster's role this epoch.
        role: Role,
    },
    /// Feedback wave: aggregated subtree report, child-to-parent.
    Report {
        /// Epoch of the report.
        epoch: u64,
        /// Subtree contains a member with an external leader-cluster
        /// neighbor (a nomination candidate).
        candidate: bool,
        /// Subtree members see no external edges and no inconsistencies —
        /// the cluster-clean signal driving the CBT→target phase switch.
        clean: bool,
    },
    /// Nomination token routed from the root down to the chosen contact.
    Nominate {
        /// Epoch of the nomination.
        epoch: u64,
    },
    /// A nominated follower member asks an adjacent leader-cluster member
    /// for a merge partner.
    MergeReq {
        /// Epoch of the request.
        epoch: u64,
        /// The follower's cluster id.
        fcid: u64,
        /// The follower's cluster minimum host.
        fmin: NodeId,
    },
    /// One step of an edge walk: the receiver now holds an edge to
    /// `endpoint` and should continue the walk toward its root.
    WalkUp {
        /// Epoch of the walk.
        epoch: u64,
        /// Which walk this step belongs to.
        kind: WalkKind,
        /// The remote endpoint being carried.
        endpoint: NodeId,
    },
    /// The leader root informs a follower contact of its merge partner.
    MatchMade {
        /// Epoch of the match.
        epoch: u64,
        /// The partner endpoint the contact now has an edge to: the other
        /// contact of its pair, or the leader root itself for the odd
        /// contact. Either way the contact walks the edge up its own tree.
        partner: NodeId,
    },
    /// W1 finished: the sender (first follower's root) anchors the match
    /// edge; the receiving contact starts W2 carrying the sender.
    AnchorDone {
        /// Epoch of the walk.
        epoch: u64,
    },
    /// Root-to-root handshake before the zipper merge. The root that ends
    /// the second match walk sends it; the receiving root primes its merge
    /// from the sender's cid and answers once, and the sender primes from
    /// the answer. A root primes only from a Hello, so each names its
    /// partner by the partner's own cid.
    MergeHello {
        /// Epoch of the merge.
        epoch: u64,
        /// Sender's cluster id.
        cid: u64,
        /// Sender's cluster minimum host.
        cluster_min: NodeId,
    },
    /// Zipper meet at a level: counterpart hosts exchange ranges and decide
    /// guest ownership in their range intersection. Boxed: zipper traffic
    /// flows only during the few merge rounds per epoch, and inlining its
    /// payload would widen *every* in-flight message (see [`ZipMeet`]).
    ZipMeet(Box<ZipMeet>),
    /// After a meet: each side names its hosts for the children guests so
    /// the partner can complete the child introductions. Boxed (rare-large;
    /// carries a `Vec`).
    ZipChildInfo(Box<ZipChildInfo>),
    /// Instructs a same-cluster child host to expect a zipper meet with
    /// `counterpart` at `level`. Boxed (rare-large).
    ZipExpect(Box<ZipExpect>),
}

/// A wire message type that can carry Avatar(CBT) traffic: [`CbtMsg`]
/// itself in standalone runs, or the message type of a protocol that embeds
/// [`crate::CbtCore`] beside traffic of its own. This is the whole seam
/// between the scaffold and what is built on it — the core runs on the
/// embedding protocol's [`ssim::Ctx`], wrapping what it sends and peeling
/// what it receives by reference. A carrier is `Clone`, as every message
/// of a [`ssim::Program`] is: [`ssim::Ctx::send`] hands it to a wire that
/// may duplicate it.
pub trait Carrier: Clone {
    /// Embed a CBT message for sending.
    fn wrap(msg: CbtMsg) -> Self;
    /// The CBT message inside, if this is one.
    fn peel(&self) -> Option<&CbtMsg>;
}

impl Carrier for CbtMsg {
    fn wrap(msg: CbtMsg) -> Self {
        msg
    }
    fn peel(&self) -> Option<&CbtMsg> {
        Some(self)
    }
}

/// Payload of [`CbtMsg::ZipMeet`].
///
/// The three zipper payloads are the widest messages of the protocol but
/// account for a vanishing share of traffic (a handful per host per epoch,
/// vs. a beacon per neighbor per round). Keeping them behind a `Box` caps
/// `size_of::<CbtMsg>()` at the beacon variant, which sizes every inbox
/// arena page and transit-wheel entry of the engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ZipMeet {
    /// Epoch of the merge.
    pub epoch: u64,
    /// Tree level being processed.
    pub level: u32,
    /// Sender's responsible range.
    pub range: (u32, u32),
    /// Sender's (pre-merge) cluster id.
    pub cid: u64,
    /// Sender's (pre-merge) cluster minimum host.
    pub cluster_min: NodeId,
    /// Agreed post-merge cluster id.
    pub new_cid: u64,
    /// Agreed post-merge cluster minimum host.
    pub new_min: NodeId,
}

/// Payload of [`CbtMsg::ZipChildInfo`] (see [`ZipMeet`] for why it is boxed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ZipChildInfo {
    /// Epoch of the merge.
    pub epoch: u64,
    /// Level of the *children* (parent level + 1).
    pub level: u32,
    /// `(child_guest, host_on_my_side)` entries.
    pub entries: Vec<(u32, NodeId)>,
    /// Post-merge cluster id (propagated).
    pub new_cid: u64,
    /// Post-merge cluster minimum (propagated).
    pub new_min: NodeId,
    /// Sender's pre-merge cluster id.
    pub cid: u64,
}

/// Payload of [`CbtMsg::ZipExpect`] (see [`ZipMeet`] for why it is boxed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ZipExpect {
    /// Epoch of the merge.
    pub epoch: u64,
    /// Level of the expected meet.
    pub level: u32,
    /// The other cluster's host to meet.
    pub counterpart: NodeId,
    /// The other cluster's id.
    pub partner_cid: u64,
    /// Post-merge cluster id (propagated).
    pub new_cid: u64,
    /// Post-merge cluster minimum (propagated).
    pub new_min: NodeId,
}

persist_struct!(Beacon {
    cid,
    range,
    cluster_min,
    role,
    epoch,
});
persist_enum!(WalkKind {
    0 => ContactPull { fcid, fmin },
    1 => MatchW1,
    2 => MatchW2,
});
persist_struct!(ZipMeet {
    epoch,
    level,
    range,
    cid,
    cluster_min,
    new_cid,
    new_min,
});
persist_struct!(ZipChildInfo {
    epoch,
    level,
    entries,
    new_cid,
    new_min,
    cid,
});
persist_struct!(ZipExpect {
    epoch,
    level,
    counterpart,
    partner_cid,
    new_cid,
    new_min,
});
persist_enum!(CbtMsg {
    0 => Beacon(b),
    1 => Sleep,
    2 => Poll { epoch, role },
    3 => Report { epoch, candidate, clean },
    4 => Nominate { epoch },
    5 => MergeReq { epoch, fcid, fmin },
    6 => WalkUp { epoch, kind, endpoint },
    7 => MatchMade { epoch, partner },
    8 => AnchorDone { epoch },
    9 => MergeHello { epoch, cid, cluster_min },
    10 => ZipMeet(z),
    11 => ZipChildInfo(z),
    12 => ZipExpect(z),
});

#[cfg(test)]
mod tests {
    use super::*;

    /// The message enum sizes every inbox-arena page and transit-wheel slot
    /// of the engine; boxing the zipper payloads is what keeps it at the
    /// beacon variant's width. Pin the layout so an innocent new field
    /// cannot silently re-inflate per-message memory.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn message_layout_stays_compact() {
        use std::mem::size_of;
        assert_eq!(size_of::<Beacon>(), 32);
        assert_eq!(size_of::<CbtMsg>(), 40, "widest inline variant is Beacon");
        // The boxed payloads themselves may grow; only the enum is pinned.
        assert_eq!(size_of::<Box<ZipMeet>>(), 8);
    }

    /// Per-node durable/scratch state pins: these multiply by the host count
    /// in the slot-parallel program array.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn node_state_layout_stays_compact() {
        use std::mem::size_of;
        assert_eq!(size_of::<crate::state::NeighborView>(), 32);
        assert!(
            size_of::<crate::scratch::Scratch>() <= 216,
            "Scratch grew past its pinned bound: {}",
            size_of::<crate::scratch::Scratch>()
        );
        assert!(
            size_of::<crate::protocol::CbtCore>() <= 360,
            "CbtCore grew past its pinned bound: {}",
            size_of::<crate::protocol::CbtCore>()
        );
    }
}
