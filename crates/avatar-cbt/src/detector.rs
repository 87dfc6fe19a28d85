//! The local fault detector: the per-round consistency check every host runs
//! over its own state and its neighbors' beacons. Avatar's local checkability
//! (Section 3.1) means any faulty configuration is detected by at least one
//! host, which resets to a singleton cluster; detection then propagates.

use crate::protocol::CbtCore;
use ssim::NodeId;

/// Why the detector fired (for diagnostics and tests).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultKind {
    /// The host's own responsible range is malformed.
    BadRange,
    /// A guest-tree crossing edge of the range has no covering same-cluster
    /// neighbor.
    MissingCover {
        /// The guest on the far side of the uncovered crossing edge.
        guest: u32,
    },
    /// A same-cluster neighbor's range overlaps ours.
    Overlap {
        /// The offending neighbor.
        neighbor: NodeId,
    },
    /// A same-cluster neighbor disagrees on the cluster minimum.
    MinMismatch {
        /// The offending neighbor.
        neighbor: NodeId,
    },
    /// An edge to a same-cluster host that the embedding does not require
    /// (and no merge is in progress to explain it).
    UnexplainedEdge {
        /// The offending neighbor.
        neighbor: NodeId,
    },
}

impl CbtCore {
    /// Check the host's cluster state against its view. Returns the first
    /// fault found, or `None` when locally consistent.
    ///
    /// `tolerate_extra` suppresses the unexplained-edge check during the
    /// post-commit grace window (merge transients are pruned on a schedule).
    ///
    /// `stale_ok` makes the beacon lookups stale-tolerant: a neighbor's last
    /// beacon is trusted regardless of age. Sound only when cluster state is
    /// frozen for the caller's phase (the CHORD phase: any state change
    /// implies a phase reversion, which resumes fresh beaconing — quiescent
    /// neighbors there are hosts that have armed for DONE) or shortly after a
    /// wake-up, while still-sleeping neighbors' last beacons describe frozen
    /// state.
    pub fn fault(
        &self,
        now: u64,
        neighbors: &[NodeId],
        tolerate_extra: bool,
        stale_ok: bool,
    ) -> Option<FaultKind> {
        let (id, n, core, view) = (self.id, self.n, &self.core, &self.view);
        let (lo, hi) = core.range;
        // 1. Range sanity: non-min hosts own [id, hi); the min host owns [0, hi)
        //    and must itself be the cluster minimum.
        let range_ok = lo < hi
            && hi <= n
            && id < hi
            && (lo == id || (lo == 0 && core.cluster_min == id))
            && core.cluster_min <= id;
        if !range_ok {
            return Some(FaultKind::BadRange);
        }

        self.with_geometry(|geom| {
            // One merge-join over the neighbor list and the view: every
            // rule below reads the fresh same-cluster beacons only (an edge
            // to another cluster is always tolerated), in neighbor order.
            geom.peers.clear();
            geom.peers.extend(
                view.along(now, neighbors, stale_ok)
                    .filter(|(_, b)| b.cid == core.cid)
                    .map(|(v, b)| (v, b.range, b.cluster_min)),
            );
            let peers = &geom.peers[..];

            // 2. Every guest-tree edge crossing out of my range must be
            //    realized: some peer covers the outside endpoint. The host
            //    successor line is required too (wave 0 of the target-building
            //    phase relies on it): a peer's range must start at my `hi` and
            //    one must end at my `lo` (when those are interior).
            let covered = |g: u32| peers.iter().any(|&(_, r, _)| r.0 <= g && g < r.1);
            if let Some(&guest) = geom.outs.iter().find(|&&g| !covered(g)) {
                return Some(FaultKind::MissingCover { guest });
            }
            if hi < n && !peers.iter().any(|&(_, r, _)| r.0 == hi) {
                return Some(FaultKind::MissingCover { guest: hi });
            }
            if lo > 0 && !peers.iter().any(|&(_, r, _)| r.1 == lo) {
                return Some(FaultKind::MissingCover { guest: lo - 1 });
            }

            // 3. Peers must be consistent with me.
            for &(v, r, min) in peers {
                if r.0 < hi && lo < r.1 {
                    return Some(FaultKind::Overlap { neighbor: v });
                }
                if min != core.cluster_min {
                    return Some(FaultKind::MinMismatch { neighbor: v });
                }
                if !tolerate_extra && !geom.requires(r) {
                    return Some(FaultKind::UnexplainedEdge { neighbor: v });
                }
            }
            // 4. Peers must also be mutually disjoint. This catches
            //    adversarially planted duplicate clusters (two components with
            //    the same cluster id, each covering the guest space): a bridge
            //    endpoint sees two claimants for the same guests and resets.
            overlap_among(peers)
        })
    }
}

/// A detector peer: `(neighbor, range, cluster_min)` from a fresh
/// same-cluster beacon.
type Peer = (NodeId, (u32, u32), NodeId);

/// Rule 4 of [`CbtCore::fault`]: the first peer whose range overlaps a
/// later peer's, or `None` when the ranges are pairwise disjoint.
///
/// Peers come in id order, and so do the ranges of a consistent cluster,
/// so one pass ([`ranges_ascend`]) settles the common case. Only otherwise
/// does the pairwise scan run, which names the same first offender it
/// always has. The scan alone is quadratic in the peers, and a merge hub
/// has many: on the E2 runs at seed 2000, the largest peer list held 1,023
/// hosts at 1,024 hosts and 2,303 at 4,096, and over each run the scan
/// compares 66 M and 543 M pairs where the pass visits 13 M and 88 M
/// peers. On a 2-vCPU VM that took rule 4 from ~7–8 % of the detector's time
/// to ~2–3 % there; on `stabilize-scratch` (at most 63 peers) from ~5 % to
/// ~4 %.
fn overlap_among(peers: &[Peer]) -> Option<FaultKind> {
    if ranges_ascend(peers) {
        return None;
    }
    for (i, &(v, r, _)) in peers.iter().enumerate() {
        if peers[i + 1..]
            .iter()
            .any(|&(_, r2, _)| r.0 < r2.1 && r2.0 < r.1)
        {
            return Some(FaultKind::Overlap { neighbor: v });
        }
    }
    None
}

/// True iff every range is non-empty and ends at or before the next one
/// starts, so that no two of them overlap.
fn ranges_ascend(peers: &[Peer]) -> bool {
    peers.iter().all(|&(_, r, _)| r.0 < r.1) && peers.windows(2).all(|w| w[0].1 .1 <= w[1].1 .0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hosttree::required_edge;
    use crate::msg::Beacon;
    use crate::state::{ClusterCore, NeighborView};

    /// The detector as first written — crossing edges re-derived per call,
    /// the two-sided [`required_edge`], a beacon lookup per rule — kept as
    /// the oracle [`CbtCore::fault`] is property-tested against.
    impl CbtCore {
        fn fault_reference(
            &self,
            now: u64,
            neighbors: &[NodeId],
            tolerate_extra: bool,
            stale_ok: bool,
        ) -> Option<FaultKind> {
            let (id, n, cbt, core, view) = (self.id, self.n, &self.cbt, &self.core, &self.view);
            let beacon_of = |v: NodeId| {
                if stale_ok {
                    view.latest(v)
                } else {
                    view.get(now, v)
                }
            };
            let fresh = || {
                neighbors
                    .iter()
                    .filter_map(|&v| beacon_of(v).map(|b| (v, b)))
            };
            let (lo, hi) = core.range;
            // 1. Range sanity: non-min hosts own [id, hi); the min host owns [0, hi)
            //    and must itself be the cluster minimum.
            let range_ok = lo < hi
                && hi <= n
                && id < hi
                && (lo == id || (lo == 0 && core.cluster_min == id))
                && core.cluster_min <= id;
            if !range_ok {
                return Some(FaultKind::BadRange);
            }

            // 2. Every guest-tree edge crossing out of my range must be realized:
            //    some fresh same-cluster beacon covers the outside endpoint. The
            //    host successor line is required too (wave 0 of the target-building
            //    phase relies on it): a same-cluster neighbor's range must start at
            //    my `hi` and one must end at my `lo` (when those are interior).
            for (_, out) in cbt.crossing_edges(lo, hi) {
                let covered =
                    fresh().any(|(_, b)| b.cid == core.cid && b.range.0 <= out && out < b.range.1);
                if !covered {
                    return Some(FaultKind::MissingCover { guest: out });
                }
            }
            if hi < n && !fresh().any(|(_, b)| b.cid == core.cid && b.range.0 == hi) {
                return Some(FaultKind::MissingCover { guest: hi });
            }
            if lo > 0 && !fresh().any(|(_, b)| b.cid == core.cid && b.range.1 == lo) {
                return Some(FaultKind::MissingCover { guest: lo - 1 });
            }

            // 3. Same-cluster neighbors must be mutually consistent.
            let mut same_cluster: Vec<(NodeId, (u32, u32))> = Vec::new();
            for (v, b) in fresh() {
                if b.cid != core.cid {
                    continue; // external edge: always tolerated
                }
                let overlap = b.range.0 < hi && lo < b.range.1;
                if overlap {
                    return Some(FaultKind::Overlap { neighbor: v });
                }
                if b.cluster_min != core.cluster_min {
                    return Some(FaultKind::MinMismatch { neighbor: v });
                }
                if !tolerate_extra && !required_edge(cbt, core.range, b.range) {
                    return Some(FaultKind::UnexplainedEdge { neighbor: v });
                }
                same_cluster.push((v, b.range));
            }
            // 4. Same-cluster neighbors must also be mutually disjoint. This catches
            //    adversarially planted duplicate clusters (two components with the
            //    same cluster id, each covering the guest space): a bridge endpoint
            //    sees two claimants for the same guests and resets.
            for (i, &(v, r)) in same_cluster.iter().enumerate() {
                for &(_, r2) in &same_cluster[i + 1..] {
                    if r.0 < r2.1 && r2.0 < r.1 {
                        return Some(FaultKind::Overlap { neighbor: v });
                    }
                }
            }
            None
        }
    }

    /// Host `id` of `Cbt(n)` in cluster state `core`, holding `view`.
    fn host(id: NodeId, n: u32, core: ClusterCore, view: &NeighborView) -> CbtCore {
        let mut c = CbtCore::new(id, n, 0);
        (c.core, c.view) = (core, view.clone());
        c
    }

    fn beacon(cid: u64, range: (u32, u32), min: NodeId) -> Beacon {
        Beacon {
            cid,
            range,
            cluster_min: min,
            role: None,
            epoch: 0,
        }
    }

    #[test]
    fn singleton_is_consistent() {
        let core = ClusterCore::singleton(9, 32, 1);
        let view = NeighborView::default();
        assert_eq!(host(9, 32, core, &view).fault(5, &[], false, false), None);
    }

    #[test]
    fn singleton_tolerates_external_neighbors() {
        let core = ClusterCore::singleton(9, 32, 1);
        let mut view = NeighborView::default();
        view.record(4, 5, beacon(999, (0, 32), 4));
        assert_eq!(host(9, 32, core, &view).fault(5, &[4], false, false), None);
    }

    #[test]
    fn bad_range_detected() {
        let view = NeighborView::default();
        // Range not starting at own id (and not the min host pattern).
        let core = ClusterCore {
            cid: 1,
            range: (3, 12),
            cluster_min: 3,
        };
        assert_eq!(
            host(9, 32, core, &view).fault(5, &[], false, false),
            Some(FaultKind::BadRange)
        );
        // Empty range.
        let core = ClusterCore {
            cid: 1,
            range: (9, 9),
            cluster_min: 9,
        };
        assert_eq!(
            host(9, 32, core, &view).fault(5, &[], false, false),
            Some(FaultKind::BadRange)
        );
    }

    #[test]
    fn missing_cover_detected() {
        // Host 9 owns [9, 20): crossing edges exist; with no neighbors at
        // all, covers are missing.
        let core = ClusterCore {
            cid: 1,
            range: (9, 20),
            cluster_min: 2,
        };
        let view = NeighborView::default();
        assert!(matches!(
            host(9, 32, core, &view).fault(5, &[], false, false),
            Some(FaultKind::MissingCover { .. })
        ));
    }

    #[test]
    fn two_member_cluster_consistent() {
        // Hosts 0 and 16 of Cbt(32): 0 owns [0,16), 16 owns [16,32).
        let c0 = ClusterCore {
            cid: 1,
            range: (0, 16),
            cluster_min: 0,
        };
        let mut view = NeighborView::default();
        view.record(16, 5, beacon(1, (16, 32), 0));
        assert_eq!(host(0, 32, c0, &view).fault(5, &[16], false, false), None);
    }

    #[test]
    fn overlap_detected() {
        let core = ClusterCore::singleton(9, 32, 9);
        let mut view = NeighborView::default();
        // Same cid, overlapping full range.
        view.record(4, 5, beacon(core.cid, (0, 32), 4));
        assert!(matches!(
            host(9, 32, core, &view).fault(5, &[4], false, false),
            Some(FaultKind::Overlap { neighbor: 4 })
        ));
    }

    #[test]
    fn unexplained_same_cluster_edge_detected_and_tolerated_in_grace() {
        let cbt = overlay::cbt::Cbt::new(64);
        // Hosts 0 ([0,32)) and 32 ([32,64)) are adjacent (required). Host 40
        // with range [40,64) would overlap 32; instead craft hosts 0 and a
        // far host with a non-adjacent range: 0 owns [0,2) and 50 owns
        // [50,64): no guest tree edge between [0,2) and [50,64)?
        let c0 = ClusterCore {
            cid: 1,
            range: (0, 2),
            cluster_min: 0,
        };
        let mut view = NeighborView::default();
        view.record(50, 5, beacon(1, (50, 64), 0));
        if !required_edge(&cbt, (0, 2), (50, 64)) {
            let got = host(0, 64, c0, &view).fault(5, &[50], false, false);
            // MissingCover may fire first (host 0's other crossing edges are
            // uncovered); restrict the view check by tolerating covers:
            // instead assert the unexplained edge fires when it is the only
            // issue, by checking the specific helper.
            assert!(got.is_some());
            // In grace mode the unexplained-edge rule is off; the remaining
            // fault (missing cover) still fires, which is correct.
            let got = host(0, 64, c0, &view).fault(5, &[50], true, false);
            assert!(matches!(got, Some(FaultKind::MissingCover { .. })));
        }
    }

    /// A fresh same-cluster beacon whose range reaches past `N` (own
    /// `[0,16)`, neighbors `[16,32)` and `[32,70)` at `N = 64`): arbitrary
    /// state is the model, and under a WAN model a corrupted host beacons
    /// such a range for Δ rounds before its own `BadRange` reset. The
    /// neighbor's range is only ever compared, never decomposed.
    #[test]
    fn lying_beacon_past_n_does_not_panic() {
        let c0 = ClusterCore {
            cid: 1,
            range: (0, 16),
            cluster_min: 0,
        };
        let mut view = NeighborView::default();
        view.record(16, 5, beacon(1, (16, 32), 0));
        view.record(32, 5, beacon(1, (32, 70), 0));
        // Guest 32 is the root and 16 its left child: host 0's only way up
        // is through host 16, so its edge to the liar is an unexplained extra
        // and nothing more.
        let h = host(0, 64, c0, &view);
        assert_eq!(
            h.fault(5, &[16, 32], false, false),
            Some(FaultKind::UnexplainedEdge { neighbor: 32 })
        );
        assert_eq!(h.fault(5, &[16, 32], true, false), None);
        assert_eq!(h.parent(5, &[16, 32]), Some(16));
        assert_eq!(h.children(5, &[16, 32]).count(), 0);
        assert!(!h.requires_edge_to((32, 70)), "both prunes drop the edge");
        // Host 16 hangs below the liar: the edge is required and kept, the
        // liar is its host-tree parent, and only host 0 is its child.
        let c16 = ClusterCore {
            cid: 1,
            range: (16, 32),
            cluster_min: 0,
        };
        let mut view = NeighborView::default();
        view.record(0, 5, beacon(1, (0, 16), 0));
        view.record(32, 5, beacon(1, (32, 70), 0));
        let h = host(16, 64, c16, &view);
        assert_eq!(h.fault(5, &[0, 32], false, false), None);
        assert_eq!(h.parent(5, &[0, 32]), Some(32));
        assert_eq!(h.children(5, &[0, 32]).collect::<Vec<_>>(), [0]);
        assert!(h.requires_edge_to((32, 70)), "both prunes keep the edge");
    }

    /// Rule 4's ordered pass trusts a chain of ranges only when none is
    /// inverted: `(0, 5)`, `(5, 2)`, `(2, 8)` each end where the next one
    /// starts, yet the first and the last overlap. Host 32 of `Cbt(64)`
    /// owns `[32, 64)`, and host 16 covers its crossing edge and its
    /// predecessor line, so rules 1–3 pass (extra edges tolerated).
    #[test]
    fn rule4_sees_past_an_inverted_range() {
        let core = ClusterCore {
            cid: 1,
            range: (32, 64),
            cluster_min: 0,
        };
        let mut view = NeighborView::default();
        for (v, range) in [(1, (0, 5)), (2, (5, 2)), (3, (2, 8)), (16, (16, 32))] {
            view.record(v, 5, beacon(1, range, 0));
        }
        let h = host(32, 64, core, &view);
        let neighbors = [1, 2, 3, 16];
        assert_eq!(
            h.fault(5, &neighbors, true, false),
            Some(FaultKind::Overlap { neighbor: 1 })
        );
        assert_eq!(
            h.fault(5, &neighbors, true, false),
            h.fault_reference(5, &neighbors, true, false)
        );
    }

    /// One random detector input: a host of `Cbt(n)` with its view and
    /// neighbor list. Half the inputs start from a legal embedding and are
    /// perturbed a little (so the late rules are reached), half are noise.
    fn random_input(rng: &mut rand::rngs::SmallRng) -> (CbtCore, Vec<NodeId>) {
        use rand::Rng;
        let n = rng.gen_range(1..=4096u32);
        let cid = rng.gen_range(1..=3u64);
        let mut ids: Vec<NodeId> = (0..rng.gen_range(1..=13))
            .map(|_| rng.gen_range(0..n))
            .collect();
        ids.sort_unstable();
        ids.dedup();
        let av = overlay::Avatar::new(n, ids.iter().copied());
        let me = ids[rng.gen_range(0..ids.len())];
        let min = ids[0];
        let legal = rng.gen_bool(0.5);
        let wild = |rng: &mut rand::rngs::SmallRng| (rng.gen_range(0..=n), rng.gen_range(0..=n));
        let mut c = CbtCore::new(me, n, cid);
        let r = av.range_of(me);
        c.core = ClusterCore {
            cid,
            range: if legal || rng.gen_bool(0.5) {
                (r.lo, r.hi)
            } else {
                wild(rng)
            },
            cluster_min: if rng.gen_bool(0.9) {
                min
            } else {
                rng.gen_range(0..n)
            },
        };
        let mut neighbors = Vec::new();
        for &v in ids.iter().filter(|&&v| v != me) {
            let rv = av.range_of(v);
            let required = required_edge(&c.cbt, (r.lo, r.hi), (rv.lo, rv.hi));
            // Legal inputs keep the required edges and rarely an extra one.
            if rng.gen_bool(if !legal {
                0.7
            } else if required {
                0.97
            } else {
                0.05
            }) {
                neighbors.push(v);
            }
            let noisy = rng.gen_bool(if legal { 0.04 } else { 0.5 });
            let b = Beacon {
                cid: if noisy && rng.gen_bool(0.5) {
                    rng.gen_range(1..=3)
                } else {
                    cid
                },
                range: match rng.gen_range(0..if noisy { 6 } else { 1 }) {
                    // Stretched into a neighboring range, someone else's
                    // range (a duplicate claimant), or anything at all.
                    3 => (
                        rv.lo.saturating_sub(rng.gen_range(0..3u32)),
                        (rv.hi + rng.gen_range(0..3u32)).min(n),
                    ),
                    4 => {
                        let ru = av.range_of(ids[rng.gen_range(0..ids.len())]);
                        (ru.lo, ru.hi)
                    }
                    5 => wild(rng),
                    _ => (rv.lo, rv.hi),
                },
                cluster_min: if noisy && rng.gen_bool(0.3) {
                    rng.gen_range(0..n)
                } else {
                    min
                },
                role: None,
                epoch: 0,
            };
            if rng.gen_bool(0.95) {
                let age = if rng.gen_bool(0.9) {
                    0
                } else {
                    rng.gen_range(0..6)
                };
                c.view.record(v, 10 - age, b);
            }
        }
        // Phantom same-cluster neighbors take no cover away, so the overlap,
        // minimum, extra-edge and pairwise rules get their turn.
        for _ in 0..rng.gen_range(0..3) {
            let v = rng.gen_range(0..n + 8);
            if v != me && !neighbors.contains(&v) {
                let lo = rng.gen_range(0..n);
                let range = (lo, (lo + rng.gen_range(1..=4u32)).min(n));
                c.view.record(v, 10, beacon(cid, range, min));
                neighbors.push(v);
            }
        }
        neighbors.sort_unstable();
        (c, neighbors)
    }

    /// Rule 4 answers random detector inputs both ways: by the ordered
    /// pass and by the pairwise scan. An input whose verdict is `None` got
    /// through rule 4; the peers it left in the detector's buffer tell
    /// which path answered. Each such verdict is the oracle's.
    #[test]
    fn random_inputs_reach_both_rule4_paths() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(4);
        let (mut scans, mut passes) = (0, 0);
        for _ in 0..4096 {
            let (c, neighbors) = random_input(&mut rng);
            if c.fault(10, &neighbors, true, true).is_none() {
                assert_eq!(c.fault_reference(10, &neighbors, true, true), None);
                if c.with_geometry(|g| ranges_ascend(&g.peers)) {
                    passes += 1;
                } else {
                    scans += 1;
                }
            }
        }
        assert!(
            scans > 0 && passes > 0,
            "rule 4 paths: {scans} scans, {passes} ordered passes"
        );
    }

    proptest::proptest! {
        /// The memoized, buffer-based detector returns the oracle's verdict —
        /// the same first fault, not merely the same `is_some()` — on every
        /// input, for both settings of both flags.
        #[test]
        fn fault_matches_reference(seed in 0u64..u64::MAX) {
            use rand::SeedableRng;
            let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
            for _ in 0..64 {
                let (c, neighbors) = random_input(&mut rng);
                for (tolerate_extra, stale_ok) in [(false, false), (false, true), (true, false), (true, true)] {
                    proptest::prop_assert_eq!(
                        c.fault(10, &neighbors, tolerate_extra, stale_ok),
                        c.fault_reference(10, &neighbors, tolerate_extra, stale_ok),
                        "core {:?} view {:?} neighbors {:?}", c.core, c.view, neighbors
                    );
                }
            }
        }

        /// `requires_edge_to` is `required_edge` seen from one side, for
        /// every pair of disjoint ranges.
        #[test]
        fn requires_edge_to_matches_required_edge(
            n in 1u32..4097,
            cuts in (0u32..4097, 0u32..4097, 0u32..4097, 0u32..4097),
        ) {
            let mut cuts = [cuts.0 % (n + 1), cuts.1 % (n + 1), cuts.2 % (n + 1), cuts.3 % (n + 1)];
            cuts.sort_unstable();
            let (a, b) = ((cuts[0], cuts[1]), (cuts[2], cuts[3]));
            let mut c = CbtCore::new(0, n, 1);
            for (own, other) in [(a, b), (b, a)] {
                c.core.range = own;
                proptest::prop_assert_eq!(
                    c.requires_edge_to(other),
                    required_edge(&c.cbt, own, other),
                    "n {} own {:?} other {:?}", n, own, other
                );
            }
        }
    }

    /// Every way the own range can change — a direct write to the `pub`
    /// field, `skew_identity`, a snapshot round trip, and (in a live run)
    /// resets and merge commits — leaves the verdict equal to that of a core
    /// that never had a memo (`clone` drops it).
    #[test]
    fn memo_never_outlives_the_range_it_was_derived_for() {
        use ssim::snapshot::{Persist, Reader, Writer};
        let c0 = ClusterCore {
            cid: 1,
            range: (0, 16),
            cluster_min: 0,
        };
        let mut view = NeighborView::default();
        view.record(16, 5, beacon(1, (16, 32), 0));
        let mut h = host(0, 32, c0, &view);
        let fresh = |h: &CbtCore| h.clone().fault(5, &[16], false, false);
        assert_eq!(h.fault(5, &[16], false, false), None);
        h.core.range = (0, 9);
        assert!(matches!(
            h.fault(5, &[16], false, false),
            Some(FaultKind::MissingCover { .. })
        ));
        assert_eq!(h.fault(5, &[16], false, false), fresh(&h));
        h.core.range = (0, 16);
        assert_eq!(h.fault(5, &[16], false, false), None);
        h.skew_identity(4); // salt % 3 == 1: shrinks the range
        assert_ne!(h.core.range, (0, 16));
        assert_eq!(h.fault(5, &[16], false, false), fresh(&h));
        let mut w = Writer::new();
        h.save(&mut w);
        let bytes = w.into_bytes();
        let loaded = CbtCore::load(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(loaded.fault(5, &[16], false, false), fresh(&h));

        // Resets and commits, as the protocol itself performs them.
        let mut rt =
            crate::runtime_from_shape(64, 12, ssim::init::Shape::Line, ssim::Config::seeded(3));
        for round in 0..600 {
            if round == 300 {
                rt.corrupt_node(rt.ids()[5], |p| p.core.core.range = (9, 3));
            }
            rt.step();
            for (v, p) in rt.programs() {
                let neighbors = rt.topology().neighbors(v);
                assert_eq!(
                    p.core.fault(rt.round(), neighbors, false, false),
                    p.core.clone().fault(rt.round(), neighbors, false, false),
                );
            }
        }
        let (resets, merges) = rt.programs().fold((0, 0), |(r, m), (_, p)| {
            (r + p.core.resets, m + p.core.merges)
        });
        assert!(resets > 0 && merges > 0, "{resets} resets, {merges} merges");
    }
}
