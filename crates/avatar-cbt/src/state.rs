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
///
/// The view also certifies its own ring order, which routing searches
/// instead of scanning ([`NeighborView::nearest`]). It counts the
/// *order violations* among its entries, taken in id order: an entry whose
/// range is empty or inverted (`lo >= hi`), and an adjacent pair whose
/// ranges overlap or run backwards (`hi_i > lo_{i+1}`). At zero every range
/// is non-empty and each starts at or after the previous one's end, so the
/// ranges — and the positions `hi - 1` they end at — strictly increase
/// with the ids, as in every legal Avatar view. A range ending past the
/// guest count `N` is no violation (the view does not know `N`): at zero
/// such ranges form a suffix, which the search reads past locally.
/// [`NeighborView::record`] keeps the count in O(1) from the entries
/// beside the one it wrote; `retain_neighbors`, `tamper` and `load`
/// recount it.
#[derive(Debug, Clone)]
pub struct NeighborView {
    beacons: CompactMap<NodeId, (u64, Beacon)>,
    /// The delivery bound `Δ` the staleness horizon is budgeted for:
    /// beacons stay fresh for `Δ × BEACON_TTL` rounds. 1 on the classic
    /// channel; larger under a latency/jitter model, where arrival gaps of
    /// up to `1 + jitter` rounds are legitimate (see
    /// [`crate::Schedule::with_delta`]). `u32` like the bound itself
    /// ([`ssim::NetModel::validate`]), which keeps the view at 32 bytes.
    delta: u32,
    /// Order violations among the entries; 0 certifies the ring order.
    disorder: u32,
}

impl Default for NeighborView {
    fn default() -> Self {
        Self {
            beacons: CompactMap::new(),
            delta: 1,
            disorder: 0,
        }
    }
}

/// Beacons older than this many rounds are considered stale (per delivery
/// bound unit; a view under delivery bound `Δ` uses `Δ × BEACON_TTL`).
pub const BEACON_TTL: u64 = 3;

/// One recorded beacon, as the view stores it: `(sender, (round, beacon))`.
type Entry = (NodeId, (u64, Beacon));

fn range(e: &Entry) -> (u32, u32) {
    e.1 .1.range
}

/// The order violation a range is on its own: empty or inverted.
fn inverted(r: (u32, u32)) -> u32 {
    u32::from(r.0 >= r.1)
}

/// The order violation of an adjacent pair: `b` starts before `a` ends.
fn crossed(a: (u32, u32), b: (u32, u32)) -> u32 {
    u32::from(a.1 > b.0)
}

/// The two-way ring distance from a responsible range to `key < n`: 0
/// when the range covers `key`, else the shorter way round — clockwise
/// from its last guest, or counter-clockwise from its first. `None` for a
/// range no legal host holds (empty, inverted, or ending past `n`): the
/// router does not visit it.
pub fn ring_dist(range: (u32, u32), key: u32, n: u32) -> Option<u32> {
    (range.0 < range.1 && range.1 <= n).then(|| span_dist(range, key, n))
}

/// [`ring_dist`] of a range known to be non-empty and to end at or below
/// `n`.
fn span_dist((lo, hi): (u32, u32), key: u32, n: u32) -> u32 {
    if key < lo {
        (lo - key).min(n - (hi - 1 - key))
    } else if key < hi {
        0
    } else {
        (key - (hi - 1)).min(n - (key - lo))
    }
}

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
    /// Record a beacon received from `from` at `round`. The order count
    /// changes only through the written entry and its two neighbours in
    /// the view, and not at all when a sender re-beacons the same range.
    pub fn record(&mut self, from: NodeId, round: u64, b: Beacon) {
        let (i, old) = self.beacons.insert_full(from, (round, b));
        let old = old.map(|(_, o)| o.range);
        if old == Some(b.range) {
            return;
        }
        let entries = self.beacons.as_slice();
        let prev = i.checked_sub(1).map(|j| range(&entries[j]));
        let next = entries.get(i + 1).map(range);
        let around =
            |r| inverted(r) + prev.map_or(0, |p| crossed(p, r)) + next.map_or(0, |x| crossed(r, x));
        let lost = match (old, prev, next) {
            (Some(r), ..) => around(r),
            (None, Some(p), Some(x)) => crossed(p, x),
            (None, ..) => 0,
        };
        self.disorder = self.disorder - lost + around(b.range);
    }

    /// The order count from scratch.
    fn recount(&mut self) {
        let entries = self.beacons.as_slice();
        let singles = entries.iter().map(|e| inverted(range(e)));
        let pairs = entries
            .windows(2)
            .map(|w| crossed(range(&w[0]), range(&w[1])));
        self.disorder = singles.chain(pairs).sum();
    }

    /// Re-budget the staleness horizon for a per-hop delivery bound of
    /// `delta` rounds: beacons stay fresh for `Δ × BEACON_TTL` rounds. A
    /// bound past `u32::MAX` (which no validated `NetModel` has) saturates.
    pub fn set_delta(&mut self, delta: u64) {
        self.delta = u32::try_from(delta.max(1)).unwrap_or(u32::MAX);
    }

    /// The staleness horizon currently in force.
    pub fn ttl(&self) -> u64 {
        u64::from(self.delta) * BEACON_TTL
    }

    /// The fresh beacon of `v`, if any.
    pub fn get(&self, now: u64, v: NodeId) -> Option<&Beacon> {
        self.beacons
            .get(&v)
            .filter(|(r, _)| now.saturating_sub(*r) < self.ttl())
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
        let ttl = self.ttl();
        neighbors.iter().filter_map(move |&v| {
            let (_, (r, b)) = seek(&mut rest, |e| e.0, v)?;
            (stale_ok || now.saturating_sub(*r) < ttl).then_some((v, b))
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

    /// On a certified view, the neighbor entry nearest `key < n` by
    /// [`ring_dist`] and its distance — the first strict minimum a scan of
    /// [`NeighborView::latest_along`] would find. `None` when the view does
    /// not certify its order (the caller scans); `Some(None)` when no
    /// neighbor has an entry whose range a legal host could hold.
    ///
    /// The ranges strictly increase along a certified view, and those that
    /// end past `n` form a suffix, so only two entries can be nearest: the
    /// last neighbor entry starting at or before `key` (nearest clockwise:
    /// it covers `key` or ends closest below it) and the first starting
    /// after it (nearest counter-clockwise), each wrapping round 0/`N` when
    /// its side is empty. The nearer wins, the lower id on a tie. The
    /// search starts from the ids: in a legal Avatar a host's range starts
    /// at its id (the minimum host's at 0) and the view holds exactly the
    /// neighbors, so the last neighbor with id `<= key` sits at the same
    /// index in the view as the first candidate, and the second is its
    /// successor (or the wrap). Reading those two entries confirms the
    /// boundary; otherwise a binary search over the view finds it. Every
    /// search also reads the first entry, before the ids (see the body).
    pub fn nearest(&self, key: u32, n: u32, neighbors: &[NodeId]) -> Option<Option<(NodeId, u32)>> {
        if self.disorder != 0 {
            return None;
        }
        let entries = self.beacons.as_slice();
        // The first range ending past `n` means every one does. Read it
        // before the neighbor search: the load starts the walk into the
        // view's block while the search runs, which the boundary entries
        // would otherwise wait for.
        if entries.first().is_none_or(|e| range(e).1 > n) {
            return Some(None);
        }
        let starts_by = |e: &Entry| range(e).0 <= key;
        // An entry at the same index as its neighbor id, with a range no
        // later than `n`.
        let aligned = |j: usize| {
            entries
                .get(j)
                .filter(|e| neighbors.get(j) == Some(&e.0) && range(e).1 <= n)
        };
        let i = neighbors.partition_point(|&v| v <= key).saturating_sub(1);
        let pair = match aligned(i) {
            Some(a) if starts_by(a) => {
                let j = if i + 1 == entries.len() { 0 } else { i + 1 };
                aligned(j)
                    .filter(|b| j == 0 || !starts_by(b))
                    .map(|b| (a, b))
            }
            // Every entry starts after the key: wrap to the last one.
            Some(b) if i == 0 => aligned(entries.len() - 1).map(|a| (a, b)),
            _ => None,
        };
        let (a, b) = match pair {
            Some(pair) => pair,
            None => {
                let ok = &entries[..entries.partition_point(|e| range(e).1 <= n)];
                let (by, after) = ok.split_at(ok.partition_point(starts_by));
                let adjacent = |e: &&Entry| neighbors.binary_search(&e.0).is_ok();
                // An empty side wraps round 0/`N` to the far end of the other.
                let a = by.iter().rev().chain(after.iter().rev()).find(adjacent);
                let b = after.iter().chain(by).find(adjacent);
                let (Some(a), Some(b)) = (a, b) else {
                    return Some(None);
                };
                (a, b)
            }
        };
        let (da, db) = (span_dist(range(a), key, n), span_dist(range(b), key, n));
        Some(Some(if (db, b.0) < (da, a.0) {
            (b.0, db)
        } else {
            (a.0, da)
        }))
    }

    /// Drop beacons of nodes no longer adjacent (housekeeping): the same
    /// merge-join, walked from the view's side.
    pub fn retain_neighbors(&mut self, neighbors: &[NodeId]) {
        let mut rest = neighbors;
        let len = self.beacons.len();
        self.beacons
            .retain(|&v, _| seek(&mut rest, |&u| u, v).is_some());
        if self.beacons.len() != len {
            self.recount();
        }
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
                self.recount();
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

/// What the first entry of a saved view is coded against: zeros.
const ZERO_ENTRY: (u64, Beacon) = (
    0,
    Beacon {
        cid: 0,
        range: (0, 0),
        cluster_min: 0,
        role: None,
        epoch: 0,
    },
);

/// The signed difference `b - a` of two `u32`s, zigzag-written.
fn u32_delta(w: &mut Writer, a: u32, b: u32) {
    w.i64(i64::from(b) - i64::from(a));
}

/// `a` plus a [`u32_delta`]; a sum outside `u32` is corruption.
fn u32_undelta(r: &mut Reader<'_>, a: u32, what: &str) -> Result<u32, SnapshotError> {
    let d = r.i64()?;
    i64::from(a)
        .checked_add(d)
        .and_then(|v| u32::try_from(v).ok())
        .ok_or_else(|| SnapshotError::Corrupt(format!("beacon {what} {a} {d:+}")))
}

/// The view is `seq(len)`, then each entry coded against the one before it
/// (the first against zeros), then the `u64` horizon `Δ × BEACON_TTL`. Per
/// entry, in the beacon's field order:
///
/// - the sender id as its gap past the previous id plus one, so ids
///   ascend by construction;
/// - the receipt round as a zigzag wrapping difference;
/// - `cid` XORed with the previous entry's (one byte within a cluster);
/// - `range.0` as zigzag `range.0 − id`, `range.1` as zigzag
///   `range.1 − range.0` (0 and the span in a legal Avatar);
/// - `cluster_min` XORed with the previous entry's;
/// - `role` as is, and `epoch` as a zigzag wrapping difference.
///
/// Every in-memory view encodes, and decodes back exactly; a decoded id or
/// range outside `u32` is [`SnapshotError::Corrupt`].
impl Persist for NeighborView {
    fn save(&self, w: &mut Writer) {
        let entries = self.beacons.as_slice();
        w.seq(entries.len());
        let (mut next, mut prev) = (0u64, ZERO_ENTRY);
        for &(id, (round, b)) in entries {
            let (round0, b0) = prev;
            w.u64(u64::from(id) - next);
            w.i64(round.wrapping_sub(round0) as i64);
            w.u64(b.cid ^ b0.cid);
            u32_delta(w, id, b.range.0);
            u32_delta(w, b.range.0, b.range.1);
            w.u32(b.cluster_min ^ b0.cluster_min);
            b.role.save(w);
            w.i64(b.epoch.wrapping_sub(b0.epoch) as i64);
            next = u64::from(id) + 1;
            prev = (round, b);
        }
        w.u64(self.ttl());
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let n = r.seq()?;
        let mut entries = Vec::with_capacity(n);
        let (mut next, mut prev) = (0u64, ZERO_ENTRY);
        for _ in 0..n {
            let (round0, b0) = prev;
            let gap = r.u64()?;
            let id = next
                .checked_add(gap)
                .and_then(|id| NodeId::try_from(id).ok())
                .ok_or_else(|| SnapshotError::Corrupt(format!("beacon id {next} + {gap}")))?;
            let round = round0.wrapping_add(r.i64()? as u64);
            let cid = b0.cid ^ r.u64()?;
            let lo = u32_undelta(r, id, "range start")?;
            let hi = u32_undelta(r, lo, "range end")?;
            let b = Beacon {
                cid,
                range: (lo, hi),
                cluster_min: b0.cluster_min ^ r.u32()?,
                role: Persist::load(r)?,
                epoch: b0.epoch.wrapping_add(r.i64()? as u64),
            };
            entries.push((id, (round, b)));
            next = u64::from(id) + 1;
            prev = (round, b);
        }
        let beacons = CompactMap::from_sorted(entries)
            .ok_or_else(|| SnapshotError::Corrupt("beacon ids not ascending".into()))?;
        let ttl = r.u64()?;
        // Only `Δ × BEACON_TTL` for a `Δ` in `1..=u32::MAX` is ever saved.
        let delta = Some(ttl / BEACON_TTL)
            .filter(|&d| d > 0 && ttl % BEACON_TTL == 0)
            .and_then(|d| u32::try_from(d).ok())
            .ok_or_else(|| SnapshotError::Corrupt(format!("beacon ttl {ttl}")))?;
        let mut view = Self {
            beacons,
            delta,
            disorder: 0,
        };
        view.recount();
        Ok(view)
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

    /// The order count as defined, from scratch: each entry with
    /// `lo >= hi`, each adjacent pair with `hi_i > lo_{i+1}`.
    fn recount_reference(view: &NeighborView) -> u32 {
        let ranges: Vec<(u32, u32)> = view.beacons.iter().map(|(_, (_, b))| b.range).collect();
        let mut count = 0u32;
        for (i, &(lo, hi)) in ranges.iter().enumerate() {
            count += u32::from(lo >= hi);
            if let Some(&(next_lo, _)) = ranges.get(i + 1) {
                count += u32::from(hi > next_lo);
            }
        }
        count
    }

    fn save_bytes(view: &NeighborView) -> Vec<u8> {
        let mut w = Writer::new();
        view.save(&mut w);
        w.into_bytes()
    }

    fn load_view(bytes: &[u8]) -> Result<NeighborView, SnapshotError> {
        let mut r = Reader::new(bytes);
        let view = NeighborView::load(&mut r)?;
        r.finish()?;
        Ok(view)
    }

    /// A range for sender `v` over the guest space `[0, 4u)`, where the
    /// legal layout gives `v` the slot `[4v, 4v + 4)`: mostly that slot,
    /// otherwise one overlapping a neighbouring slot, empty, inverted or
    /// ending past `N`.
    fn random_range(rng: &mut rand::rngs::SmallRng, v: u32, u: u32) -> (u32, u32) {
        use rand::Rng;
        let (lo, hi) = (4 * v, 4 * v + 4);
        match rng.gen_range(0..16) {
            0..=10 => (lo, hi),
            11 => (lo.saturating_sub(rng.gen_range(1..=4u32)), hi),
            12 => (lo, hi + rng.gen_range(1..=4u32)),
            13 => (lo + 2, lo + 2),
            14 => (hi, lo),
            _ => (lo, 4 * u + rng.gen_range(1..=8u32)),
        }
    }

    /// The order count `record` maintains in O(1) equals a recount from
    /// scratch after every operation, over random sequences of `record`
    /// (legal, overlapping, empty, inverted and past-`N` ranges; new
    /// senders, and replacements that keep or change a range),
    /// `retain_neighbors`, `tamper`, `age`, `restamp` and save→load. Both
    /// certified and uncertified views are visited. Seeded, so a failure
    /// replays.
    #[test]
    fn order_count_matches_a_recount_after_every_operation() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(0x0DE4);
        let (mut certified, mut uncertified) = (0u32, 0u32);
        for case in 0..256 {
            let u = rng.gen_range(1..=24u32);
            let mut view = NeighborView::default();
            for step in 0..64 {
                let v = rng.gen_range(0..u);
                let op = rng.gen_range(0..10);
                match op {
                    0..=3 => {
                        let b = Beacon {
                            range: random_range(&mut rng, v, u),
                            ..beacon(rng.gen_range(1..=3))
                        };
                        view.record(v, rng.gen_range(0..=20), b);
                    }
                    4 => {
                        // A re-beacon: same range, new payload and round.
                        if let Some(&b) = view.latest(v) {
                            let again = Beacon {
                                cid: b.cid ^ 1,
                                epoch: b.epoch + 1,
                                ..b
                            };
                            view.record(v, rng.gen_range(0..=20), again);
                        }
                    }
                    5 => {
                        let kept: Vec<NodeId> = (0..u).filter(|_| rng.gen_bool(0.8)).collect();
                        view.retain_neighbors(&kept);
                    }
                    6 => {
                        let r = random_range(&mut rng, v, u);
                        view.tamper(v, |b| b.range = r);
                    }
                    7 => view.age(rng.gen_range(0..=5)),
                    8 => view.restamp(rng.gen_range(0..=20)),
                    _ => {
                        let bytes = save_bytes(&view);
                        view = load_view(&bytes).unwrap();
                        assert_eq!(save_bytes(&view), bytes, "case {case} step {step}");
                    }
                }
                assert_eq!(
                    view.disorder,
                    recount_reference(&view),
                    "case {case} step {step} op {op}: {view:?}"
                );
                if view.disorder == 0 {
                    certified += 1;
                } else {
                    uncertified += 1;
                }
            }
        }
        assert!(
            certified >= 4096 && uncertified >= 4096,
            "certified {certified}, uncertified {uncertified} of 16384 states"
        );
    }

    /// The snapshot still writes the `u64` horizon `Δ × BEACON_TTL` after
    /// the view keeps `Δ` as a `u32`: `save ∘ load ∘ save` is byte identity
    /// for every `Δ` a view can hold, and a horizon no code path writes —
    /// zero, not a multiple of `BEACON_TTL`, or past
    /// `BEACON_TTL × u32::MAX` — loads as `Err`, never a panic.
    #[test]
    fn ttl_saves_as_u64_and_rejects_what_no_view_writes() {
        let max = u64::from(u32::MAX);
        // The entries as a view under `Δ = 1` writes them, whose horizon
        // `BEACON_TTL` is the last byte, then `ttl` as a `u64` varint.
        let encode = |view: &NeighborView, ttl: u64| {
            let mut unit = view.clone();
            unit.set_delta(1);
            let mut bytes = save_bytes(&unit);
            assert_eq!(
                bytes.pop(),
                Some(BEACON_TTL as u8),
                "the horizon ends the view"
            );
            let mut w = Writer::new();
            w.u64(ttl);
            bytes.extend(w.into_bytes());
            bytes
        };
        for delta in [1, 2, 7, max - 1, max] {
            let mut view = NeighborView::default();
            view.set_delta(delta);
            view.record(3, 5, beacon(1));
            assert_eq!(view.ttl(), delta * BEACON_TTL);
            let bytes = save_bytes(&view);
            assert_eq!(bytes, encode(&view, delta * BEACON_TTL), "delta {delta}");
            let back = load_view(&bytes).unwrap();
            assert_eq!(back.ttl(), delta * BEACON_TTL);
            assert_eq!(save_bytes(&back), bytes, "delta {delta}");
        }
        let mut view = NeighborView::default();
        view.set_delta(0);
        assert_eq!(view.ttl(), BEACON_TTL, "a zero bound reads as 1");
        view.set_delta(u64::MAX);
        assert_eq!(
            view.ttl(),
            max * BEACON_TTL,
            "an unvalidated bound saturates"
        );
        let empty = NeighborView::default();
        for ttl in [
            0,
            1,
            2,
            4,
            BEACON_TTL * max + 1,
            BEACON_TTL * (max + 1),
            u64::MAX,
        ] {
            assert!(
                matches!(
                    load_view(&encode(&empty, ttl)),
                    Err(SnapshotError::Corrupt(_))
                ),
                "ttl {ttl}"
            );
        }
    }

    /// Two views hold the same entries, horizon and order count.
    fn assert_same(a: &NeighborView, b: &NeighborView, label: &str) {
        assert_eq!(a.beacons, b.beacons, "{label}: entries");
        assert_eq!((a.delta, a.disorder), (b.delta, b.disorder), "{label}");
    }

    /// The view layout, pinned byte for byte on a view that takes every
    /// path: a first entry against zeros, a settled cluster neighbour (one
    /// byte a field), then a stranger with another cluster, an inverted
    /// range, a lower round and epoch, and the leader role. Every prefix
    /// is `Err`.
    #[test]
    fn view_layout_is_pinned() {
        let mut view = NeighborView::default();
        view.set_delta(2);
        let b = |cid, range, cluster_min, role, epoch| Beacon {
            cid,
            range,
            cluster_min,
            role,
            epoch,
        };
        view.record(3, 40, b(0xC1D, (8, 16), 3, Some(Role::Follower), 300));
        view.record(5, 40, b(0xC1D, (16, 24), 3, None, 300));
        view.record(9, 39, b(0xBEEF, (40, 20), 2, Some(Role::Leader), 299));
        let bytes = save_bytes(&view);
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        let pinned = concat!(
            "03",                          // three entries
            "0350_9d18_0a10_03_0101_d804", // id 3, round 40, cid, 8 - 3, 8, min, role, epoch
            "0100_00_1610_00_00_00",       // id 5: settled, one byte a field
            "0301_f2e502_3e27_01_0100_01", // id 9: another cid, 40 - 9, -20, min, leader, -1
            "06",                          // Δ × BEACON_TTL
        );
        assert_eq!(hex, pinned.replace('_', ""));
        let back = load_view(&bytes).unwrap();
        assert_same(&back, &view, "pinned view");
        assert_eq!(save_bytes(&back), bytes, "save ∘ load ∘ save");
        for cut in 0..bytes.len() {
            assert!(
                load_view(&bytes[..cut]).is_err(),
                "a {cut}-byte prefix loaded"
            );
        }
    }

    /// A value biased toward the edges of its type.
    fn edgy(rng: &mut rand::rngs::SmallRng, max: u64) -> u64 {
        use rand::Rng;
        match rng.gen_range(0..6) {
            0 => 0,
            1 => max,
            2 => max - 1,
            3 => rng.gen_range(0..=16),
            _ => rng.gen_range(0..=max),
        }
    }

    proptest::proptest! {
        /// Every view round-trips exactly and re-encodes to the same
        /// bytes: inverted and empty ranges, `u32::MAX` ids and range
        /// ends, `u64::MAX` rounds, epochs and cids, both roles and none,
        /// and cids that change from entry to entry.
        #[test]
        fn view_encoding_is_total(seed in 0u64..u64::MAX) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
            let m32 = u64::from(u32::MAX);
            for _ in 0..32 {
                let mut view = NeighborView::default();
                view.set_delta(edgy(&mut rng, m32));
                for _ in 0..rng.gen_range(0..=12) {
                    let b = Beacon {
                        cid: edgy(&mut rng, u64::MAX),
                        range: (edgy(&mut rng, m32) as u32, edgy(&mut rng, m32) as u32),
                        cluster_min: edgy(&mut rng, m32) as u32,
                        role: [None, Some(Role::Leader), Some(Role::Follower)][rng.gen_range(0..3usize)],
                        epoch: edgy(&mut rng, u64::MAX),
                    };
                    view.record(edgy(&mut rng, m32) as u32, edgy(&mut rng, u64::MAX), b);
                }
                let bytes = save_bytes(&view);
                let back = load_view(&bytes).unwrap();
                assert_same(&back, &view, &format!("{view:?}"));
                proptest::prop_assert_eq!(save_bytes(&back), bytes);
            }
        }
    }

    /// Hand-written payloads whose ids or ranges leave `u32` load as
    /// `Corrupt`: an id gap past `u32::MAX`, a second id after `u32::MAX`,
    /// a gap that overflows `u64`, and ranges that start or end below 0 or
    /// past `u32::MAX`.
    #[test]
    fn ids_and_ranges_outside_u32_are_corrupt() {
        let max = i64::from(u32::MAX);
        // One entry: id gap, then range deltas; the other fields zero.
        let entry = |w: &mut Writer, gap: u64, lo: i64, span: i64| {
            w.u64(gap);
            w.i64(0);
            w.u64(0);
            w.i64(lo);
            w.i64(span);
            w.u32(0);
            w.bool(false);
            w.i64(0);
        };
        let view = |entries: &[(u64, i64, i64)]| {
            let mut w = Writer::new();
            w.seq(entries.len());
            for &(gap, lo, span) in entries {
                entry(&mut w, gap, lo, span);
            }
            w.u64(BEACON_TTL);
            w.into_bytes()
        };
        assert!(load_view(&view(&[(7, -7, max)])).is_ok(), "control");
        for (label, entries) in [
            ("gap past u32", vec![(max as u64 + 1, 0, 1)]),
            ("id after u32::MAX", vec![(max as u64, 0, 0), (0, 0, 0)]),
            ("gap past u64", vec![(0, 0, 1), (u64::MAX, 0, 1)]),
            ("start below 0", vec![(7, -8, 1)]),
            ("start past u32", vec![(7, max - 6, 0)]),
            ("start at i64::MAX", vec![(7, i64::MAX, 0)]),
            ("end below 0", vec![(7, -7, -1)]),
            ("end past u32", vec![(7, 0, max - 6)]),
            ("end at i64::MIN", vec![(7, 0, i64::MIN)]),
        ] {
            assert!(
                matches!(load_view(&view(&entries)), Err(SnapshotError::Corrupt(_))),
                "{label}"
            );
        }
    }

    /// `nearest` answers only for a certified view, is `Some(None)` without
    /// a neighbor entry, and never answers with a range past `n`.
    #[test]
    fn nearest_needs_the_certificate() {
        let slot = |v: u32, range| (v, Beacon { range, ..beacon(1) });
        let mut view = NeighborView::default();
        for (v, b) in [slot(2, (0, 4)), slot(4, (4, 8)), slot(8, (8, 16))] {
            view.record(v, 0, b);
        }
        let check = |key, n, nb: &[NodeId], want: Option<(NodeId, u32)>, label: &str| {
            assert_eq!(view.nearest(key, n, nb), Some(want), "{label}");
        };
        check(5, 16, &[2, 4, 8], Some((4, 0)), "cover");
        check(5, 16, &[2, 8], Some((2, 2)), "below");
        check(6, 16, &[2, 8], Some((8, 2)), "above");
        check(1, 16, &[4, 8], Some((8, 2)), "wrap at N");
        check(14, 16, &[2, 4], Some((2, 2)), "wrap at 0");
        check(9, 16, &[2], Some((2, 6)), "one entry");
        check(5, 16, &[3, 9], None, "no neighbor entry");
        check(5, 15, &[2, 4, 8], Some((4, 0)), "past n");
        check(14, 15, &[2, 4, 8], Some((2, 1)), "skip past n");
        check(6, 8, &[8], None, "only past n");
        let mut beyond = NeighborView::default();
        assert_eq!(beyond.nearest(3, 8, &[8]), Some(None), "empty");
        beyond.record(8, 0, slot(8, (8, 16)).1);
        assert_eq!(beyond.nearest(3, 8, &[8]), Some(None), "first past n");
        // Ties go to the lower id, on either side of the key.
        let mut gaps = NeighborView::default();
        gaps.record(2, 0, slot(2, (2, 4)).1);
        gaps.record(8, 0, slot(8, (9, 15)).1);
        assert_eq!(
            gaps.nearest(6, 16, &[2, 8]),
            Some(Some((2, 3))),
            "tie below"
        );
        assert_eq!(
            gaps.nearest(0, 16, &[2, 8]),
            Some(Some((2, 2))),
            "tie across N"
        );
        let pick = |view: &NeighborView| view.nearest(5, 16, &[2, 4, 8]);
        view.record(8, 1, slot(8, (7, 16)).1);
        assert_ne!(view.disorder, 0);
        assert_eq!(pick(&view), None, "overlap");
        view.record(8, 2, slot(8, (8, 16)).1);
        assert_eq!(pick(&view), Some(Some((4, 0))), "repaired");
    }
}
