//! Host-local cluster state.

use crate::msg::Beacon;
use ssim::snapshot::{persist_enum, persist_struct, Persist, Reader, SnapshotError, Writer};
use ssim::{CompactMap, NodeId};

/// The per-epoch cluster role of the matching phase (Section 3.2): leaders
/// match their adjacent followers for merging.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Finds followers among neighboring clusters and pairs them.
    Leader,
    /// Seeks a leader-cluster neighbor that can assign a merge partner.
    Follower,
}

/// The durable cluster membership state of a host: everything that survives
/// across epochs. A *cluster* is a set of hosts that together form a legal
/// `Avatar(Cbt(N))` network over the full guest space `[0, N)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterCore {
    /// Cluster identifier: a random nonce shared by all members. Random
    /// (rather than derived from host ids) so that adversarially planted
    /// duplicate identifiers are broken by the first reset — this is one
    /// source of the "in expectation" in the paper's theorems.
    pub cid: u64,
    /// This host's responsible range `[lo, hi)`.
    pub range: (u32, u32),
    /// The minimum host identifier in the cluster.
    pub cluster_min: NodeId,
}

impl ClusterCore {
    /// A freshly reset singleton cluster: this host alone hosts the entire
    /// guest space.
    pub fn singleton(id: NodeId, n: u32, nonce: u64) -> Self {
        Self {
            cid: nonce,
            range: (0, n),
            cluster_min: id,
        }
    }

    /// True iff the guest `g` is in this host's responsible range.
    pub fn covers(&self, g: u32) -> bool {
        self.range.0 <= g && g < self.range.1
    }

    /// Digest of the identity this state advertises (see
    /// [`identity_digest`]): what a truthful beacon would carry.
    pub fn digest(&self) -> u64 {
        identity_digest(self.cid, self.range, self.cluster_min)
    }

    /// **Adversarial**: corrupt the identity as a deterministic function of
    /// `salt` — always the cluster id (so the advertised digest provably
    /// changes), plus, depending on the salt, a well-formed-but-wrong
    /// responsible range or a shifted cluster minimum. Targeted field
    /// corruption, not scrambling: the result still parses, routes and
    /// beacons — it is just *false*.
    pub fn skew(&mut self, salt: u64) {
        self.cid ^= salt | 1;
        match salt % 3 {
            1 => {
                let (lo, hi) = self.range;
                let span = hi.saturating_sub(lo);
                if span > 1 {
                    self.range = (lo, lo + 1 + ((salt >> 8) as u32 % (span - 1)));
                }
            }
            2 => {
                self.cluster_min = self.cluster_min.wrapping_add(((salt >> 8) as u32) | 1);
            }
            _ => {}
        }
    }
}

/// FNV-1a digest of the cluster-identity triple a beacon advertises. The
/// view-divergence detector compares the digest a node's state would beacon
/// ([`ClusterCore::digest`]) against the digest a neighbor has recorded
/// ([`Beacon::digest`]); equality over `(cid, range, cluster_min)` is
/// exactly the "are we telling everyone the same thing" predicate — role
/// and epoch are legitimately in flux and excluded.
pub fn identity_digest(cid: u64, range: (u32, u32), cluster_min: NodeId) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for word in [cid, range.0 as u64, range.1 as u64, cluster_min as u64] {
        for b in word.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x100000001b3);
        }
    }
    h
}

/// The most recent beacon received from each neighbor, with receipt round.
///
/// Stored as a sorted inline [`CompactMap`]: a node tracks O(log² n)
/// neighbors, where sorted inline entries beat hashing on footprint (one
/// allocation, no per-entry overhead), on snapshot encoding (iteration order
/// is already canonical) and on reads — every per-neighbor pass
/// ([`NeighborView::fresh`], [`NeighborView::latest_along`],
/// [`NeighborView::retain_neighbors`]) is one merge-join against the sorted
/// neighbor list.
#[derive(Debug, Clone)]
pub struct NeighborView {
    beacons: CompactMap<NodeId, (u64, Beacon)>,
    /// Staleness horizon in rounds. `BEACON_TTL` on the classic channel;
    /// scaled by the delivery bound `Δ` under a latency/jitter model, where
    /// arrival gaps of up to `1 + jitter` rounds are legitimate
    /// (see [`crate::Schedule::with_delta`]).
    ttl: u64,
}

impl Default for NeighborView {
    fn default() -> Self {
        Self {
            beacons: CompactMap::new(),
            ttl: BEACON_TTL,
        }
    }
}

/// Beacons older than this many rounds are considered stale (per delivery
/// bound unit; a view under delivery bound `Δ` uses `Δ × BEACON_TTL`).
pub const BEACON_TTL: u64 = 3;

/// The merge-join step: advance the sorted cursor `rest` past every element
/// whose id is below `v`, and return its head if that is `v`. The head is
/// kept on a match, so a repeated `v` matches again.
fn seek<'a, T>(rest: &mut &'a [T], id: impl Fn(&T) -> NodeId, v: NodeId) -> Option<&'a T> {
    while let [head, tail @ ..] = *rest {
        if id(head) >= v {
            return (id(head) == v).then_some(head);
        }
        *rest = tail;
    }
    None
}

impl NeighborView {
    /// Record a beacon received from `from` at `round`.
    pub fn record(&mut self, from: NodeId, round: u64, b: Beacon) {
        self.beacons.insert(from, (round, b));
    }

    /// Re-budget the staleness horizon for a per-hop delivery bound of
    /// `delta` rounds: beacons stay fresh for `Δ × BEACON_TTL` rounds.
    pub fn set_delta(&mut self, delta: u64) {
        self.ttl = delta.max(1) * BEACON_TTL;
    }

    /// The staleness horizon currently in force.
    pub fn ttl(&self) -> u64 {
        self.ttl
    }

    /// The fresh beacon of `v`, if any.
    pub fn get(&self, now: u64, v: NodeId) -> Option<&Beacon> {
        self.beacons
            .get(&v)
            .filter(|(r, _)| now.saturating_sub(*r) < self.ttl)
            .map(|(_, b)| b)
    }

    /// The most recent beacon of `v` regardless of age. Safe only when the
    /// caller knows the sender's state is frozen (e.g. during the CHORD
    /// phase, where cluster state cannot change without a phase reversion).
    pub fn latest(&self, v: NodeId) -> Option<&Beacon> {
        self.beacons.get(&v).map(|(_, b)| b)
    }

    /// The one read path over the view: `(neighbor, beacon)` along the
    /// sorted `neighbors`, in their order — the fresh beacons only, or, with
    /// `stale_ok`, every recorded one (see [`NeighborView::latest`] for when
    /// that is sound). Both sides are sorted by id, so this is a single
    /// merge-join: one forward pass over each, no per-neighbor search.
    pub(crate) fn along<'a>(
        &'a self,
        now: u64,
        neighbors: &'a [NodeId],
        stale_ok: bool,
    ) -> impl Iterator<Item = (NodeId, &'a Beacon)> + 'a {
        let mut rest = self.beacons.as_slice();
        neighbors.iter().filter_map(move |&v| {
            let (_, (r, b)) = seek(&mut rest, |e| e.0, v)?;
            (stale_ok || now.saturating_sub(*r) < self.ttl).then_some((v, b))
        })
    }

    /// Iterate fresh `(neighbor, beacon)` pairs restricted to the current
    /// (sorted) neighbor set, in neighbor order.
    pub fn fresh<'a>(
        &'a self,
        now: u64,
        neighbors: &'a [NodeId],
    ) -> impl Iterator<Item = (NodeId, &'a Beacon)> + 'a {
        self.along(now, neighbors, false)
    }

    /// Iterate the most recent `(neighbor, beacon)` pairs regardless of age
    /// ([`NeighborView::latest`] for every neighbor that has one), in
    /// (sorted) neighbor order.
    pub fn latest_along<'a>(
        &'a self,
        neighbors: &'a [NodeId],
    ) -> impl Iterator<Item = (NodeId, &'a Beacon)> + 'a {
        self.along(0, neighbors, true)
    }

    /// Drop beacons of nodes no longer adjacent (housekeeping): the same
    /// merge-join, walked from the view's side.
    pub fn retain_neighbors(&mut self, neighbors: &[NodeId]) {
        let mut rest = neighbors;
        self.beacons
            .retain(|&v, _| seek(&mut rest, |&u| u, v).is_some());
    }

    /// `(neighbor, age)` for every recorded beacon, ascending by neighbor
    /// id, with `age` in rounds relative to `now` (floored at zero — receipt
    /// rounds are unsigned). The inspection surface of the
    /// beacon-staleness and view-divergence detectors.
    pub fn ages(&self, now: u64) -> Vec<(NodeId, u64)> {
        self.beacons
            .iter()
            .map(|(&v, &(r, _))| (v, now.saturating_sub(r)))
            .collect()
    }

    /// **Adversarial**: make every recorded beacon `rounds` older than it
    /// really is (receipt rounds floor at zero). Payloads are untouched —
    /// this is freshness-metadata corruption, the stale-beacon attack.
    pub fn age(&mut self, rounds: u64) {
        for (r, _) in self.beacons.values_mut() {
            *r = r.saturating_sub(rounds);
        }
    }

    /// Re-stamp every recorded beacon as received at `now` (fixture
    /// warming: installed-legal runtimes record their views at round 0,
    /// which leaves adversarial aging nowhere to go).
    pub fn restamp(&mut self, now: u64) {
        for (r, _) in self.beacons.values_mut() {
            *r = now;
        }
    }

    /// **Adversarial**: mutate the recorded beacon of `v` in place,
    /// preserving its receipt round (the equivocation attack fabricates
    /// payloads without touching freshness). Returns `false` when no beacon
    /// of `v` is recorded.
    pub fn tamper(&mut self, v: NodeId, f: impl FnOnce(&mut Beacon)) -> bool {
        match self.beacons.get_mut(&v) {
            Some((_, b)) => {
                f(b);
                true
            }
            None => false,
        }
    }
}

persist_enum!(Role {
    0 => Leader,
    1 => Follower,
});
persist_struct!(ClusterCore {
    cid,
    range,
    cluster_min,
});

impl Persist for NeighborView {
    fn save(&self, w: &mut Writer) {
        // The compact map iterates in ascending neighbor id — exactly the
        // canonical encoding the old sorted-HashMap path produced, with no
        // collect-and-sort step.
        self.beacons.save(w);
        w.u64(self.ttl);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        // The map load rejects out-of-order or duplicate neighbor ids.
        let beacons = CompactMap::load(r)?;
        let ttl = r.u64()?;
        if ttl == 0 {
            return Err(SnapshotError::Corrupt("zero beacon ttl".into()));
        }
        Ok(Self { beacons, ttl })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn beacon(cid: u64) -> Beacon {
        Beacon {
            cid,
            range: (0, 8),
            cluster_min: 1,
            role: None,
            epoch: 0,
        }
    }

    #[test]
    fn singleton_covers_everything() {
        let c = ClusterCore::singleton(5, 32, 99);
        assert!(c.covers(0));
        assert!(c.covers(31));
        assert!(!c.covers(32));
        assert_eq!(c.cluster_min, 5);
    }

    #[test]
    fn view_staleness() {
        let mut v = NeighborView::default();
        v.record(3, 10, beacon(1));
        assert!(v.get(10, 3).is_some());
        assert!(v.get(12, 3).is_some());
        assert!(v.get(13, 3).is_none(), "stale after TTL");
        assert!(v.get(10, 4).is_none(), "unknown neighbor");
    }

    #[test]
    fn fresh_filters_by_neighbor_set() {
        let mut v = NeighborView::default();
        v.record(3, 10, beacon(1));
        v.record(5, 10, beacon(2));
        let fresh: Vec<NodeId> = v.fresh(11, &[3]).map(|(v, _)| v).collect();
        assert_eq!(fresh, vec![3]);
    }

    #[test]
    fn retain_drops_departed() {
        let mut v = NeighborView::default();
        v.record(3, 10, beacon(1));
        v.record(5, 10, beacon(2));
        v.retain_neighbors(&[5]);
        assert!(v.get(10, 3).is_none());
        assert!(v.get(10, 5).is_some());
    }

    /// The view as first read — one binary search per neighbor — kept as
    /// the oracle the merge-join is property-tested against.
    impl NeighborView {
        fn fresh_reference(&self, now: u64, neighbors: &[NodeId]) -> Vec<(NodeId, Beacon)> {
            neighbors
                .iter()
                .filter_map(|&v| self.get(now, v).map(|b| (v, *b)))
                .collect()
        }

        fn latest_reference(&self, neighbors: &[NodeId]) -> Vec<(NodeId, Beacon)> {
            neighbors
                .iter()
                .filter_map(|&v| self.latest(v).map(|b| (v, *b)))
                .collect()
        }

        fn retain_reference(&mut self, neighbors: &[NodeId]) {
            self.beacons
                .retain(|v, _| neighbors.binary_search(v).is_ok());
        }
    }

    /// A random view and sorted neighbor list over ids `0..u`: beacons of
    /// non-neighbors, neighbors without a beacon, empty sides, stale
    /// entries (and a Δ-scaled horizon), malformed and past-`N` ranges.
    fn random_view(rng: &mut rand::rngs::SmallRng) -> (NeighborView, Vec<NodeId>, u64) {
        use rand::Rng;
        let u = rng.gen_range(1..=48u32);
        let now = rng.gen_range(0..12u64);
        let mut view = NeighborView::default();
        view.set_delta(rng.gen_range(1..=2));
        let p_beacon = rng.gen_range(0..=8u32) as f64 / 8.0;
        for v in 0..u {
            if rng.gen_bool(p_beacon) {
                let lo = rng.gen_range(0..=u + 4);
                let b = Beacon {
                    cid: rng.gen_range(1..=3),
                    range: (lo, rng.gen_range(0..=u + 8)),
                    cluster_min: rng.gen_range(0..u),
                    role: None,
                    epoch: 0,
                };
                view.record(v, rng.gen_range(0..=now), b);
            }
        }
        let p_neighbor = rng.gen_range(0..=8u32) as f64 / 8.0;
        let neighbors = (0..u).filter(|_| rng.gen_bool(p_neighbor)).collect();
        (view, neighbors, now)
    }

    proptest::proptest! {
        /// `fresh`, `latest_along` and `retain_neighbors` — one merge-join —
        /// agree with the per-neighbor lookups on every random view: same
        /// pairs, same (neighbor) order, same surviving entries.
        #[test]
        fn merge_join_matches_per_neighbor_lookups(seed in 0u64..u64::MAX) {
            use rand::SeedableRng;
            let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
            for _ in 0..64 {
                let (view, neighbors, now) = random_view(&mut rng);
                let fresh: Vec<_> = view.fresh(now, &neighbors).map(|(v, b)| (v, *b)).collect();
                proptest::prop_assert_eq!(fresh, view.fresh_reference(now, &neighbors));
                let latest: Vec<_> = view.latest_along(&neighbors).map(|(v, b)| (v, *b)).collect();
                proptest::prop_assert_eq!(latest, view.latest_reference(&neighbors));
                let (mut got, mut want) = (view.clone(), view);
                got.retain_neighbors(&neighbors);
                want.retain_reference(&neighbors);
                proptest::prop_assert_eq!(got.beacons, want.beacons);
            }
        }
    }
}
