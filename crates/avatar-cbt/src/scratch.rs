//! Per-epoch scratch state: everything that is wiped at each epoch boundary.

use crate::state::Role;
use ssim::snapshot::persist_struct;
use ssim::{CompactMap, CompactSet, NodeId};

/// A follower contact collected by a leader root.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Contact {
    /// The follower member the root now holds an edge to.
    pub endpoint: NodeId,
    /// The follower's cluster id.
    pub fcid: u64,
    /// The follower's cluster minimum host.
    pub fmin: NodeId,
}

/// State of an in-progress zipper merge on one host.
#[derive(Debug, Clone, Default)]
pub struct Merge {
    /// The other cluster's (pre-merge) id.
    pub partner_cid: u64,
    /// Agreed post-merge cluster id.
    pub new_cid: u64,
    /// Agreed post-merge cluster minimum host.
    pub new_min: NodeId,
    /// Scheduled meets: `(level, counterpart)`.
    pub pending: Vec<(u32, NodeId)>,
    /// Meets sent last meet-round, awaiting the counterpart's `ZipMeet`.
    pub awaiting: Vec<(u32, NodeId)>,
    /// Counterparts whose range intersection has been decided. Sorted
    /// inline ([`CompactSet`]): a handful of entries, canonical snapshot
    /// order for free.
    pub decided: CompactSet<NodeId>,
    /// Guest intervals this host won.
    pub won: Vec<(u32, u32)>,
    /// Set when any expected meet failed; the merge aborts at commit time.
    pub failed: bool,
}

/// Per-epoch scratch.
#[derive(Debug, Clone, Default)]
pub struct Scratch {
    /// Epoch this scratch belongs to.
    pub epoch: u64,
    /// This epoch's cluster role, once known.
    pub role: Option<Role>,
    /// Host-tree children snapshot taken when the report window opens.
    pub report_children: Option<Vec<NodeId>>,
    /// Reports received from children: child → (candidate, clean). Sorted
    /// inline ([`CompactMap`]): tree arity is small and the snapshot wants
    /// ascending keys anyway.
    pub reports: CompactMap<NodeId, (bool, bool)>,
    /// Whether this host already sent its report upward.
    pub report_sent: bool,
    /// Whether this host itself can serve as the nomination contact.
    pub self_candidate: bool,
    /// The child whose subtree supplied the candidate (None = self).
    pub cand_child: Option<NodeId>,
    /// This host has been nominated as the cluster's contact.
    pub nominated: bool,
    /// The nominated contact already sent its `MergeReq`.
    pub merge_req_sent: bool,
    /// Leader root: collected follower contacts.
    pub contacts: Vec<Contact>,
    /// Leader root: matches dispatched.
    pub matched: bool,
    /// In-progress merge, if any.
    pub merge: Option<Merge>,
    /// Committed a merge this epoch (prune scheduled).
    pub committed: bool,
    /// The cluster root observed a fully clean feedback wave this epoch.
    pub observed_clean: bool,
}

impl Scratch {
    /// Fresh scratch for an epoch.
    pub fn new(epoch: u64) -> Self {
        Self {
            epoch,
            ..Self::default()
        }
    }
}

/// Maximum follower contacts a leader root accepts per epoch; bounds the
/// root's transient degree during matching (constant, per the degree
/// expansion analysis).
pub const MAX_CONTACTS: usize = 8;

persist_struct!(Contact {
    endpoint,
    fcid,
    fmin,
});
// The compact set and map iterate sorted, so equal states encode to equal
// bytes.
persist_struct!(Merge {
    partner_cid,
    new_cid,
    new_min,
    pending,
    awaiting,
    decided,
    won,
    failed,
});
persist_struct!(Scratch {
    epoch,
    role,
    report_children,
    reports,
    report_sent,
    self_candidate,
    cand_child,
    nominated,
    merge_req_sent,
    contacts,
    matched,
    merge,
    committed,
    observed_clean,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_scratch_is_empty() {
        let s = Scratch::new(3);
        assert_eq!(s.epoch, 3);
        assert!(s.role.is_none());
        assert!(s.merge.is_none());
        assert!(!s.report_sent);
    }

    #[test]
    fn merge_default_is_clean() {
        let m = Merge::default();
        assert!(!m.failed);
        assert!(m.pending.is_empty());
        assert!(m.won.is_empty());
    }
}
