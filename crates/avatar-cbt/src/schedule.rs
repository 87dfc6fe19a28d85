//! The epoch schedule: fixed per-epoch round offsets for each stage of the
//! matching-and-merging machinery.
//!
//! The synchronous model gives all nodes a common round counter, so epochs of
//! fixed length `E = Θ(log N)` are globally aligned without coordination:
//! `epoch = round / E`, `offset = round % E`. Cluster-internal waves (poll,
//! report, nominate), the edge walks, and the zipper merge each get a window
//! whose length covers the host-tree depth `≤ H + 1` plus slack. This is the
//! clock discipline behind the paper's "a cluster has a constant probability
//! of being matched and merged with another cluster in O(log N) rounds".
//!
//! # Delivery bound `Δ`
//!
//! Every window above is budgeted in *message hops*: the classic offsets
//! assume the fully synchronous channel where a hop costs exactly one
//! round. Under a network-conditions model ([`ssim::NetModel`]) a message
//! may take up to `Δ = 1 + delay + jitter` rounds
//! ([`ssim::NetModel::delivery_bound`]), so [`Schedule::with_delta`]
//! scales every offset by `Δ`: each stage keeps its hop budget, each hop
//! gets `Δ` rounds, and the epoch is uniformly `Δ×` longer. With `Δ = 1`
//! this is bit-for-bit the classic schedule. Loss needs no window change —
//! a lost message fails that epoch's merge and the next epoch retries
//! (the paper's constant-probability argument degrades gracefully) — but a
//! *deterministic* delay would otherwise miss every fixed window forever.

/// Per-epoch round offsets. All values are `Θ(H · Δ)` where
/// `H = height(Cbt(N))` and `Δ` is the per-hop delivery bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Schedule {
    // Narrow on purpose: `H ≤ 31` and `Δ` is a handful of rounds, and every
    // host carries one (see `node_state_layout_stays_compact`).
    h: u32,
    delta: u32,
}

impl Schedule {
    /// Schedule for a guest capacity `n ≥ 1` on the classic synchronous
    /// channel (delivery bound 1).
    pub fn new(n: u32) -> Self {
        let h = 31 - n.max(1).leading_zeros();
        Self { h, delta: 1 }
    }

    /// The same schedule re-budgeted for a per-hop delivery bound of
    /// `delta` rounds (clamped to `1..=u32::MAX`). `with_delta(1)` is the
    /// identity.
    #[must_use]
    pub fn with_delta(mut self, delta: u64) -> Self {
        self.delta = delta.clamp(1, u32::MAX as u64) as u32;
        self
    }

    /// Tree height `H` the schedule was built for.
    pub fn height(&self) -> u64 {
        self.h as u64
    }

    /// Per-hop delivery bound `Δ` the windows are budgeted for.
    pub fn delta(&self) -> u64 {
        self.delta as u64
    }

    /// Epoch start: scratch reset; roots flip roles and send the poll.
    pub fn t_poll(&self) -> u64 {
        0
    }

    /// Deadline by which the poll has reached every member and beacons carry
    /// roles (poll descent `H + 1` plus beacon refresh).
    pub fn t_roles_known(&self) -> u64 {
        self.delta() * (self.height() + 4)
    }

    /// Feedback reports may start flowing upward.
    pub fn t_report_start(&self) -> u64 {
        self.delta() * (self.height() + 5)
    }

    /// Deadline for reports to reach the root.
    pub fn t_report_deadline(&self) -> u64 {
        self.delta() * (2 * self.height() + 8)
    }

    /// Root dispatches the nomination token (follower clusters).
    pub fn t_nominate(&self) -> u64 {
        self.delta() * (2 * self.height() + 9)
    }

    /// Deadline for contact pulls to deliver contacts to leader roots.
    pub fn t_match_deadline(&self) -> u64 {
        self.delta() * (4 * self.height() + 15)
    }

    /// Leader roots pair their contacts and send `MatchMade`.
    pub fn t_match(&self) -> u64 {
        self.delta() * (4 * self.height() + 16)
    }

    /// First round of the zipper merge: root-level `ZipMeet` exchange.
    pub fn t_zip(&self) -> u64 {
        self.delta() * (6 * self.height() + 26)
    }

    /// The meet round for tree level `level` (3 hops per level: meet,
    /// child-info, expect — `3Δ` rounds each).
    pub fn t_zip_level(&self, level: u32) -> u64 {
        self.t_zip() + 3 * self.delta() * level as u64
    }

    /// Commit round: merge participants atomically adopt their new ranges
    /// and cluster id.
    pub fn t_commit(&self) -> u64 {
        self.t_zip_level(self.h) + 4 * self.delta()
    }

    /// Prune round: post-commit removal of intra-cluster edges not required
    /// by the embedding.
    pub fn t_prune(&self) -> u64 {
        self.t_commit() + 3 * self.delta()
    }

    /// Epoch length `E`.
    pub fn epoch_len(&self) -> u64 {
        self.t_prune() + 3 * self.delta()
    }

    /// `(epoch, offset)` of an absolute round.
    pub fn locate(&self, round: u64) -> (u64, u64) {
        let e = self.epoch_len();
        (round / e, round % e)
    }

    /// The zip level whose meet happens at this offset, if any.
    pub fn zip_level_at(&self, offset: u64) -> Option<u32> {
        if offset < self.t_zip() {
            return None;
        }
        let d = offset - self.t_zip();
        let step = 3 * self.delta();
        if d.is_multiple_of(step) && d / step <= self.height() {
            Some((d / step) as u32)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offsets_are_ordered() {
        for n in [4u32, 16, 1024, 1 << 20] {
            for delta in [1u64, 2, 4] {
                let s = Schedule::new(n).with_delta(delta);
                let seq = [
                    s.t_poll(),
                    s.t_roles_known(),
                    s.t_report_start(),
                    s.t_report_deadline(),
                    s.t_nominate(),
                    s.t_match_deadline(),
                    s.t_match(),
                    s.t_zip(),
                    s.t_commit(),
                    s.t_prune(),
                    s.epoch_len(),
                ];
                assert!(
                    seq.windows(2).all(|w| w[0] < w[1]),
                    "n={n} Δ={delta}: {seq:?}"
                );
            }
        }
    }

    #[test]
    fn epoch_is_logarithmic() {
        let s = Schedule::new(1024);
        assert!(s.epoch_len() < 200, "E = {}", s.epoch_len());
        let s = Schedule::new(1 << 20);
        assert!(s.epoch_len() < 350);
    }

    #[test]
    fn locate_splits_rounds() {
        let s = Schedule::new(64);
        let e = s.epoch_len();
        assert_eq!(s.locate(0), (0, 0));
        assert_eq!(s.locate(e - 1), (0, e - 1));
        assert_eq!(s.locate(e), (1, 0));
        assert_eq!(s.locate(3 * e + 7), (3, 7));
    }

    #[test]
    fn zip_levels_every_three_rounds() {
        let s = Schedule::new(64); // H = 6
        assert_eq!(s.zip_level_at(s.t_zip()), Some(0));
        assert_eq!(s.zip_level_at(s.t_zip() + 1), None);
        assert_eq!(s.zip_level_at(s.t_zip() + 3), Some(1));
        assert_eq!(s.zip_level_at(s.t_zip() + 18), Some(6));
        assert_eq!(s.zip_level_at(s.t_zip() + 21), None, "past height");
        assert_eq!(s.zip_level_at(0), None);
    }

    #[test]
    fn delta_one_is_the_classic_schedule() {
        let a = Schedule::new(64);
        let b = Schedule::new(64).with_delta(1);
        assert_eq!(a, b);
        assert_eq!(Schedule::new(64).with_delta(0), a, "delta clamps to 1");
    }

    #[test]
    fn delta_scales_every_offset_uniformly() {
        let s1 = Schedule::new(64);
        let s3 = Schedule::new(64).with_delta(3);
        assert_eq!(s3.epoch_len(), 3 * s1.epoch_len());
        assert_eq!(s3.t_zip(), 3 * s1.t_zip());
        assert_eq!(s3.t_commit(), 3 * s1.t_commit());
        // Zip meets land every 3Δ rounds.
        assert_eq!(s3.zip_level_at(s3.t_zip()), Some(0));
        assert_eq!(s3.zip_level_at(s3.t_zip() + 3), None);
        assert_eq!(s3.zip_level_at(s3.t_zip() + 9), Some(1));
    }
}
