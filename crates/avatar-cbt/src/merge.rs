//! The zipper merge: two matched clusters combine into one legal cluster in
//! `O(log N)` rounds, level by level down the guest tree (Section 3.2,
//! "Merging").
//!
//! At tree level `ℓ`, every *counterpart pair* — one host from each cluster,
//! both responsible for a common guest at that level — exchanges a `ZipMeet`.
//! The pair decides ownership of every guest in its range intersection with
//! the locally-evaluable successor rule (below), then introduces the hosts
//! responsible for the children guests so the next level can meet three
//! rounds later. After the last level, every host commits its accumulated
//! new range and the agreed cluster id, then prunes intra-cluster edges the
//! merged embedding no longer requires.
//!
//! **Ownership rule.** In the merged cluster, guest `g` belongs to the host
//! with the largest id `≤ g` (the union's minimum host takes the wrap-around
//! guests). For a counterpart pair `(a, b)` this is locally decidable: on
//! their intersection, `max(a, b)` wins every guest `g ≥ max(a, b)` and
//! `min(a, b)` wins the rest — any union host between them would contradict
//! the pair sharing those guests, and the wrap-around case only arises for
//! the pair formed by the two cluster minima, where `min(a, b)` is the
//! union's minimum.

use crate::msg::{Carrier, CbtMsg, ZipChildInfo, ZipExpect, ZipMeet};
use crate::protocol::CbtCore;
use crate::scratch::Merge;
use crate::state::ClusterCore;
use ssim::{Ctx, NodeId};

/// Sub-intervals of `inter` won by host `a` against counterpart `b` under
/// the merged-cluster ownership rule.
pub fn won_by(a: NodeId, b: NodeId, inter: (u32, u32)) -> Vec<(u32, u32)> {
    assert!(a != b, "counterparts must differ");
    let (lo, hi) = inter;
    if lo >= hi {
        return Vec::new();
    }
    let split = a.max(b); // max(a,b) wins [split, hi); min(a,b) wins [lo, split)
    let mut out = Vec::new();
    if a < b {
        let cut = split.min(hi).max(lo);
        if lo < cut {
            out.push((lo, cut));
        }
    } else {
        let cut = split.max(lo).min(hi);
        if cut < hi {
            out.push((cut, hi));
        }
    }
    out
}

/// Intersection of two half-open intervals.
fn intersect(a: (u32, u32), b: (u32, u32)) -> (u32, u32) {
    (a.0.max(b.0), a.1.min(b.1))
}

impl CbtCore {
    /// Join the merge a zipper message of this epoch belongs to, priming
    /// the scratch from the message when the host has no merge in flight
    /// (root partners prime via the Hello and late joiners via `ZipExpect`,
    /// but a bare meet can still prime us — robustness). `None` when the
    /// message belongs to a different merge than the one in flight.
    fn join_merge(
        &mut self,
        partner_cid: u64,
        new_cid: u64,
        new_min: NodeId,
    ) -> Option<&mut Merge> {
        let merge = self.scratch.merge.get_or_insert_with(|| Merge {
            partner_cid,
            new_cid,
            new_min,
            ..Merge::default()
        });
        (merge.partner_cid == partner_cid).then_some(merge)
    }

    /// A counterpart met us at `z.level`: decide ownership of the range
    /// intersection and introduce the hosts of the children guests.
    pub(crate) fn on_zip_meet(
        &mut self,
        io: &mut Ctx<'_, impl Carrier>,
        from: NodeId,
        z: &ZipMeet,
    ) {
        let (me, my_range, my_cid) = (self.id, self.core.range, self.core.cid);
        let Some(merge) = self.join_merge(z.cid, z.new_cid, z.new_min) else {
            return; // stale
        };
        if my_cid == z.cid {
            return; // self-talk
        }
        merge
            .awaiting
            .retain(|&(l, c)| !(l == z.level && c == from));

        // Decide ownership of the whole intersection on first meet.
        let inter = intersect(my_range, z.range);
        if inter.0 >= inter.1 {
            return;
        }
        if !merge.decided.contains(&from) {
            merge.won.extend(won_by(me, from, inter));
            merge.decided.insert(from);
        }
        let (new_cid, new_min) = (merge.new_cid, merge.new_min);

        // Child introductions for the next level.
        let mut entries: Vec<(u32, NodeId)> = Vec::new();
        for c in self.cbt.level_children_in(z.level, inter.0, inter.1) {
            match self.host_for(io.round, io.neighbors(), c) {
                Some(h) => {
                    if h != me && io.is_neighbor(from) && io.is_neighbor(h) {
                        io.link(h, from);
                    }
                    entries.push((c, h));
                }
                // View inconsistency: the merge cannot complete coherently
                // on this host.
                None => self.fail_merge(),
            }
        }
        if !entries.is_empty() {
            self.send_critical(
                io,
                from,
                CbtMsg::ZipChildInfo(Box::new(ZipChildInfo {
                    epoch: z.epoch,
                    level: z.level + 1,
                    entries,
                    new_cid,
                    new_min,
                    cid: my_cid,
                })),
            );
        }
    }

    /// The counterpart named its hosts for the children guests: meet them
    /// ourselves, or hand each to the member of ours covering that guest.
    pub(crate) fn on_zip_child_info(&mut self, io: &mut Ctx<'_, impl Carrier>, z: &ZipChildInfo) {
        let me = self.id;
        let Some(partner_cid) = self.scratch.merge.as_ref().map(|m| m.partner_cid) else {
            return;
        };
        if partner_cid != z.cid {
            return;
        }
        for &(c, their_host) in &z.entries {
            let Some(mine) = self.host_for(io.round, io.neighbors(), c) else {
                continue;
            };
            if mine == me {
                self.expect_meet(z.level, their_host);
            } else if !(io.is_neighbor(their_host) && io.is_neighbor(mine)) {
                // The partner's promised introduction never materialized
                // (adversarial state): abort.
                self.fail_merge();
            } else {
                io.link(mine, their_host);
                self.send_critical(
                    io,
                    mine,
                    CbtMsg::ZipExpect(Box::new(ZipExpect {
                        epoch: z.epoch,
                        level: z.level,
                        counterpart: their_host,
                        partner_cid,
                        new_cid: z.new_cid,
                        new_min: z.new_min,
                    })),
                );
            }
        }
    }

    /// A same-cluster parent told us to expect a meet with `z.counterpart`.
    pub(crate) fn on_zip_expect(&mut self, z: &ZipExpect) {
        if z.counterpart != self.id
            && self
                .join_merge(z.partner_cid, z.new_cid, z.new_min)
                .is_some()
        {
            self.expect_meet(z.level, z.counterpart);
        }
    }

    /// Queue the meet with `counterpart` at `level` (idempotent; a merge is
    /// in flight at every call site).
    fn expect_meet(&mut self, level: u32, counterpart: NodeId) {
        if let Some(merge) = self.scratch.merge.as_mut() {
            if !merge.pending.contains(&(level, counterpart)) {
                merge.pending.push((level, counterpart));
            }
        }
    }

    fn fail_merge(&mut self) {
        if let Some(merge) = self.scratch.merge.as_mut() {
            merge.failed = true;
        }
    }

    /// Clock-driven merge actions: send the scheduled meets, commit, prune.
    pub(crate) fn merge_tick(&mut self, io: &mut Ctx<'_, impl Carrier>, offset: u64) {
        let epoch = self.scratch.epoch;
        // Scheduled level meets.
        if let Some(level) = self.sched.zip_level_at(offset) {
            if let Some(merge) = self.scratch.merge.as_mut() {
                // Any meet we sent earlier that was never answered is a
                // failure; the merge aborts at commit.
                if !merge.awaiting.is_empty() {
                    merge.failed = true;
                    merge.awaiting.clear();
                }
                let due: Vec<(u32, NodeId)> = merge
                    .pending
                    .iter()
                    .copied()
                    .filter(|&(l, _)| l == level)
                    .collect();
                merge.pending.retain(|&(l, _)| l != level);
                let (new_cid, new_min) = (merge.new_cid, merge.new_min);
                for &(l, cp) in &due {
                    merge.awaiting.push((l, cp));
                }
                let (range, cid, cluster_min) =
                    (self.core.range, self.core.cid, self.core.cluster_min);
                for (l, cp) in due {
                    if io.is_neighbor(cp) {
                        self.send_critical(
                            io,
                            cp,
                            CbtMsg::ZipMeet(Box::new(ZipMeet {
                                epoch,
                                level: l,
                                range,
                                cid,
                                cluster_min,
                                new_cid,
                                new_min,
                            })),
                        );
                    }
                }
            }
        }

        if offset == self.sched.t_commit() {
            self.commit_merge();
        }
        if offset == self.sched.t_prune() {
            self.prune(io);
        }
    }

    /// Atomically adopt the merged cluster state, or abort on any anomaly.
    fn commit_merge(&mut self) {
        let Some(mut merge) = self.scratch.merge.take() else {
            return;
        };
        // Replies to the last level's meets arrived two rounds before the
        // commit offset; anything still awaited was never answered.
        if merge.failed || !merge.awaiting.is_empty() || merge.won.is_empty() {
            self.grace = self.grace_hops(3);
            return;
        }
        merge.won.sort_unstable();
        let lo = merge.won[0].0;
        let mut hi = merge.won[0].1;
        for &(a, b) in &merge.won[1..] {
            if a != hi {
                // Non-contiguous wins: incoherent merge; abort.
                self.grace = self.grace_hops(3);
                return;
            }
            hi = b;
        }
        let range = (lo, hi);
        // Sanity: the new range must be the host's legal shape.
        let ok = range.0 < range.1
            && range.1 <= self.n
            && self.id < range.1
            && (range.0 == self.id || (range.0 == 0 && merge.new_min == self.id));
        if !ok {
            self.grace = self.grace_hops(3);
            return;
        }
        self.core = ClusterCore {
            cid: merge.new_cid,
            range,
            cluster_min: merge.new_min,
        };
        self.merges += 1;
        self.scratch.committed = true;
        // Suppress the unexplained-edge rule (the only one `tolerate_extra`
        // gates in `CbtCore::fault`) until beacons refresh and the prune
        // pass has run; the missing-cover rules stay armed.
        self.grace = (self.sched.t_prune() - self.sched.t_commit() + 3 * self.sched.delta())
            .min(u8::MAX as u64) as u8;
    }

    /// Drop intra-cluster edges the merged embedding does not require.
    fn prune(&mut self, io: &mut Ctx<'_, impl Carrier>) {
        if !self.scratch.committed {
            return;
        }
        for (v, b) in self.view.fresh(io.round, io.neighbors()) {
            if b.cid == self.core.cid && !self.requires_edge_to(b.range) {
                io.unlink(v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn winner_rule_basic() {
        // Pair (3, 6) over [0, 10): 3 wins [0,6), 6 wins [6,10).
        assert_eq!(won_by(3, 6, (0, 10)), vec![(0, 6)]);
        assert_eq!(won_by(6, 3, (0, 10)), vec![(6, 10)]);
    }

    #[test]
    fn winner_rule_disjoint_high() {
        // Pair (10, 6) over [10, 32): 10 wins everything.
        assert_eq!(won_by(10, 6, (10, 32)), vec![(10, 32)]);
        assert_eq!(won_by(6, 10, (10, 32)), Vec::<(u32, u32)>::new());
    }

    #[test]
    fn winner_rule_wraparound_fallback() {
        // Both ids above the guests: min wins (it is the union minimum).
        assert_eq!(won_by(5, 9, (0, 5)), vec![(0, 5)]);
        assert_eq!(won_by(9, 5, (0, 5)), Vec::<(u32, u32)>::new());
    }

    #[test]
    fn winner_rule_partitions_intersection() {
        for a in 0..16u32 {
            for b in 0..16u32 {
                if a == b {
                    continue;
                }
                for lo in 0..8u32 {
                    for hi in lo..16u32 {
                        let wa: Vec<u32> = won_by(a, b, (lo, hi))
                            .iter()
                            .flat_map(|&(x, y)| x..y)
                            .collect();
                        let wb: Vec<u32> = won_by(b, a, (lo, hi))
                            .iter()
                            .flat_map(|&(x, y)| x..y)
                            .collect();
                        let mut all = wa.clone();
                        all.extend(&wb);
                        all.sort_unstable();
                        let expect: Vec<u32> = (lo..hi).collect();
                        assert_eq!(all, expect, "a={a} b={b} [{lo},{hi})");
                        assert!(wa.iter().all(|g| !wb.contains(g)));
                    }
                }
            }
        }
    }

    #[test]
    fn winner_agrees_with_global_rule() {
        // Simulate: hosts A = {3, 10}, B = {6}; guest space 32. The merged
        // assignment must equal the Avatar assignment of the union.
        let union = overlay::Avatar::new(32, [3u32, 6, 10]);
        let a_hosts = overlay::Avatar::new(32, [3u32, 10]);
        let b_hosts = overlay::Avatar::new(32, [6u32]);
        for g in 0..32u32 {
            let ha = a_hosts.host_of(g);
            let hb = b_hosts.host_of(g);
            let expect = union.host_of(g);
            let winner = if won_by(ha, hb, (g, g + 1)).is_empty() {
                hb
            } else {
                ha
            };
            assert_eq!(winner, expect, "guest {g}");
        }
    }
}
