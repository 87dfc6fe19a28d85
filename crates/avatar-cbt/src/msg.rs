//! Protocol messages of the self-stabilizing Avatar(CBT) algorithm.

use crate::state::Role;
use ssim::snapshot::{Persist, Reader, SnapshotError, Writer};
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

/// Which edge-walk a [`CbtMsg::WalkUp`] step belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalkKind {
    /// Leader-side pull of a follower contact edge up to the leader root.
    ContactPull,
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
        /// Cluster id of the remote endpoint's cluster.
        remote_cid: u64,
        /// Cluster minimum of the remote endpoint's cluster.
        remote_min: NodeId,
    },
    /// The leader root informs a follower contact of its merge partner.
    MatchMade {
        /// Epoch of the match.
        epoch: u64,
        /// The partner endpoint the contact now has an edge to.
        partner: NodeId,
        /// Partner cluster id.
        partner_cid: u64,
        /// True iff this contact's cluster performs the first walk (W1).
        walk_first: bool,
        /// True iff the partner is the leader cluster itself (odd contact
        /// count): the partner endpoint is the leader root.
        self_match: bool,
    },
    /// W1 finished: the sender (first follower's root) anchors the match
    /// edge; the receiving contact starts W2 carrying the sender.
    AnchorDone {
        /// Epoch of the walk.
        epoch: u64,
    },
    /// Root-to-root handshake before the zipper merge; sent by whichever
    /// root learns the partnership first, answered symmetrically.
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
/// what it receives by reference.
pub trait Carrier: Sized {
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

impl Persist for Role {
    fn save(&self, w: &mut Writer) {
        w.u8(match self {
            Self::Leader => 0,
            Self::Follower => 1,
        });
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok(match r.u8()? {
            0 => Self::Leader,
            1 => Self::Follower,
            t => return Err(SnapshotError::Corrupt(format!("Role tag {t}"))),
        })
    }
}

impl Persist for Beacon {
    fn save(&self, w: &mut Writer) {
        w.u64(self.cid);
        w.u32(self.range.0);
        w.u32(self.range.1);
        w.u32(self.cluster_min);
        self.role.save(w);
        w.u64(self.epoch);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok(Self {
            cid: r.u64()?,
            range: (r.u32()?, r.u32()?),
            cluster_min: r.u32()?,
            role: Option::load(r)?,
            epoch: r.u64()?,
        })
    }
}

impl Persist for WalkKind {
    fn save(&self, w: &mut Writer) {
        w.u8(match self {
            Self::ContactPull => 0,
            Self::MatchW1 => 1,
            Self::MatchW2 => 2,
        });
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok(match r.u8()? {
            0 => Self::ContactPull,
            1 => Self::MatchW1,
            2 => Self::MatchW2,
            t => return Err(SnapshotError::Corrupt(format!("WalkKind tag {t}"))),
        })
    }
}

impl Persist for CbtMsg {
    fn save(&self, w: &mut Writer) {
        match self {
            Self::Beacon(b) => {
                w.u8(0);
                b.save(w);
            }
            Self::Sleep => w.u8(1),
            Self::Poll { epoch, role } => {
                w.u8(2);
                w.u64(*epoch);
                role.save(w);
            }
            Self::Report {
                epoch,
                candidate,
                clean,
            } => {
                w.u8(3);
                w.u64(*epoch);
                w.bool(*candidate);
                w.bool(*clean);
            }
            Self::Nominate { epoch } => {
                w.u8(4);
                w.u64(*epoch);
            }
            Self::MergeReq { epoch, fcid, fmin } => {
                w.u8(5);
                w.u64(*epoch);
                w.u64(*fcid);
                w.u32(*fmin);
            }
            Self::WalkUp {
                epoch,
                kind,
                endpoint,
                remote_cid,
                remote_min,
            } => {
                w.u8(6);
                w.u64(*epoch);
                kind.save(w);
                w.u32(*endpoint);
                w.u64(*remote_cid);
                w.u32(*remote_min);
            }
            Self::MatchMade {
                epoch,
                partner,
                partner_cid,
                walk_first,
                self_match,
            } => {
                w.u8(7);
                w.u64(*epoch);
                w.u32(*partner);
                w.u64(*partner_cid);
                w.bool(*walk_first);
                w.bool(*self_match);
            }
            Self::AnchorDone { epoch } => {
                w.u8(8);
                w.u64(*epoch);
            }
            Self::MergeHello {
                epoch,
                cid,
                cluster_min,
            } => {
                w.u8(9);
                w.u64(*epoch);
                w.u64(*cid);
                w.u32(*cluster_min);
            }
            Self::ZipMeet(z) => {
                w.u8(10);
                w.u64(z.epoch);
                w.u32(z.level);
                w.u32(z.range.0);
                w.u32(z.range.1);
                w.u64(z.cid);
                w.u32(z.cluster_min);
                w.u64(z.new_cid);
                w.u32(z.new_min);
            }
            Self::ZipChildInfo(z) => {
                w.u8(11);
                w.u64(z.epoch);
                w.u32(z.level);
                z.entries.save(w);
                w.u64(z.new_cid);
                w.u32(z.new_min);
                w.u64(z.cid);
            }
            Self::ZipExpect(z) => {
                w.u8(12);
                w.u64(z.epoch);
                w.u32(z.level);
                w.u32(z.counterpart);
                w.u64(z.partner_cid);
                w.u64(z.new_cid);
                w.u32(z.new_min);
            }
        }
    }

    fn load(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok(match r.u8()? {
            0 => Self::Beacon(Beacon::load(r)?),
            1 => Self::Sleep,
            2 => Self::Poll {
                epoch: r.u64()?,
                role: Role::load(r)?,
            },
            3 => Self::Report {
                epoch: r.u64()?,
                candidate: r.bool()?,
                clean: r.bool()?,
            },
            4 => Self::Nominate { epoch: r.u64()? },
            5 => Self::MergeReq {
                epoch: r.u64()?,
                fcid: r.u64()?,
                fmin: r.u32()?,
            },
            6 => Self::WalkUp {
                epoch: r.u64()?,
                kind: WalkKind::load(r)?,
                endpoint: r.u32()?,
                remote_cid: r.u64()?,
                remote_min: r.u32()?,
            },
            7 => Self::MatchMade {
                epoch: r.u64()?,
                partner: r.u32()?,
                partner_cid: r.u64()?,
                walk_first: r.bool()?,
                self_match: r.bool()?,
            },
            8 => Self::AnchorDone { epoch: r.u64()? },
            9 => Self::MergeHello {
                epoch: r.u64()?,
                cid: r.u64()?,
                cluster_min: r.u32()?,
            },
            10 => Self::ZipMeet(Box::new(ZipMeet {
                epoch: r.u64()?,
                level: r.u32()?,
                range: (r.u32()?, r.u32()?),
                cid: r.u64()?,
                cluster_min: r.u32()?,
                new_cid: r.u64()?,
                new_min: r.u32()?,
            })),
            11 => Self::ZipChildInfo(Box::new(ZipChildInfo {
                epoch: r.u64()?,
                level: r.u32()?,
                entries: Vec::load(r)?,
                new_cid: r.u64()?,
                new_min: r.u32()?,
                cid: r.u64()?,
            })),
            12 => Self::ZipExpect(Box::new(ZipExpect {
                epoch: r.u64()?,
                level: r.u32()?,
                counterpart: r.u32()?,
                partner_cid: r.u64()?,
                new_cid: r.u64()?,
                new_min: r.u32()?,
            })),
            t => return Err(SnapshotError::Corrupt(format!("CbtMsg tag {t}"))),
        })
    }
}

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

    /// Boxing changed the in-memory representation only: the wire encoding
    /// of every zipper message must round-trip unchanged.
    #[test]
    fn zip_messages_roundtrip() {
        use ssim::snapshot::{Persist, Reader, Writer};
        let msgs = vec![
            CbtMsg::ZipMeet(Box::new(ZipMeet {
                epoch: 7,
                level: 2,
                range: (3, 9),
                cid: 0xdead,
                cluster_min: 1,
                new_cid: 0xbeef,
                new_min: 4,
            })),
            CbtMsg::ZipChildInfo(Box::new(ZipChildInfo {
                epoch: 7,
                level: 3,
                entries: vec![(5, 2), (6, 8)],
                new_cid: 0xbeef,
                new_min: 4,
                cid: 0xdead,
            })),
            CbtMsg::ZipExpect(Box::new(ZipExpect {
                epoch: 7,
                level: 3,
                counterpart: 9,
                partner_cid: 0xdead,
                new_cid: 0xbeef,
                new_min: 4,
            })),
        ];
        for m in msgs {
            let mut w = Writer::new();
            m.save(&mut w);
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes);
            let back = CbtMsg::load(&mut r).unwrap();
            let mut w2 = Writer::new();
            back.save(&mut w2);
            assert_eq!(bytes, w2.into_bytes());
        }
    }
}
