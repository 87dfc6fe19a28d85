//! The host-level tree induced by the guest CBT and the responsible ranges.
//!
//! The guests of a responsible range `[lo, hi)` have a unique minimum-level
//! member — the *range root*. A host's **tree parent** is the (same-cluster)
//! host responsible for the parent guest of its range root; this relation
//! makes the cluster's hosts a tree of depth `≤ H + 1` rooted at the host
//! covering the guest root. All cluster waves (poll, report, nominate) and
//! edge walks run on this host tree; everything below is computed from the
//! host's own range and its neighbors' beacons — no global state.
//!
//! The guest-tree edges crossing a range are a pure function of `(N, range)`
//! and a range changes a handful of times per stabilization, while the
//! detector asks about them every round, so each host memoizes them (see
//! [`CbtCore::requires_edge_to`]).

use crate::protocol::CbtCore;
use overlay::cbt::Cbt;
use ssim::NodeId;
use std::cell::Cell;

/// What a host knows about the shape of its own responsible range, derived
/// once per `(N, range)`, plus the detector's reusable neighbor buffer.
#[derive(Debug, Default)]
pub(crate) struct Geometry {
    /// The `(N, range)` the crossing edges were derived for; `N = 0` (no
    /// such tree) marks a memo that was never built.
    key: (u32, (u32, u32)),
    /// Outside endpoints of the guest-tree edges crossing the range, in
    /// [`Cbt::crossing_edges`] order — the order in which the detector
    /// reports the first uncovered one. Empty for a malformed range.
    pub(crate) outs: Vec<u32>,
    /// The fresh same-cluster beacons of the detector's current call (kept
    /// here so a round allocates nothing): `(neighbor, range, cluster_min)`.
    pub(crate) peers: Vec<(NodeId, (u32, u32), NodeId)>,
}

impl Geometry {
    /// [`CbtCore::requires_edge_to`] for the memoized range. Only ever
    /// *compares* against `b`, so a lying beacon's range is harmless.
    pub(crate) fn requires(&self, b: (u32, u32)) -> bool {
        ranges_consecutive(self.key.1, b) || self.outs.iter().any(|&g| b.0 <= g && g < b.1)
    }
}

/// Outside endpoints of the guest-tree edges crossing `[lo, hi)`; none for
/// a malformed range (arbitrary state is the model).
fn crossing_outs(cbt: &Cbt, (lo, hi): (u32, u32)) -> Vec<u32> {
    if lo >= hi || hi > cbt.n() {
        return Vec::new();
    }
    let edges = cbt.crossing_edges(lo, hi);
    edges.into_iter().map(|(_, out)| out).collect()
}

/// The per-host slot of the [`Geometry`] memo: private to the crate, not
/// persisted (a restored or cloned core starts without one), and validated
/// against `(N, core.range)` on every use, so no write to the `pub` state —
/// a reset, a merge commit, a test fixture, sabotage — can leave a stale
/// entry readable. One pointer wide.
#[derive(Default)]
pub(crate) struct GeometryMemo(Cell<Option<Box<Geometry>>>);

impl Clone for GeometryMemo {
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl std::fmt::Debug for GeometryMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("GeometryMemo")
    }
}

impl CbtCore {
    /// Run `f` over the geometry of this host's current range, rebuilding
    /// the memo first when `(N, range)` moved since it was derived.
    pub(crate) fn with_geometry<R>(&self, f: impl FnOnce(&mut Geometry) -> R) -> R {
        let key = (self.cbt.n(), self.core.range);
        let mut geom = self.geometry.0.take().unwrap_or_default();
        if geom.key != key {
            geom.key = key;
            geom.outs = crossing_outs(&self.cbt, self.core.range);
        }
        debug_assert_eq!(geom.outs, crossing_outs(&self.cbt, self.core.range));
        let out = f(&mut geom);
        self.geometry.0.set(Some(geom));
        out
    }

    /// True iff legal `Avatar(Cbt)` *requires* the host edge from this host
    /// to a same-cluster host responsible for `b`: the successor line, or a
    /// guest-tree edge crossing out of this host's range into `b`. Agrees
    /// with [`required_edge`] on every `b` disjoint from the own range (the
    /// detector's overlap rule owns the rest). `O(log N)`, no allocation.
    pub fn requires_edge_to(&self, b: (u32, u32)) -> bool {
        self.with_geometry(|geom| geom.requires(b))
    }

    /// True iff this host is its cluster's root host (covers the guest root).
    pub fn is_root(&self) -> bool {
        self.core.covers(self.cbt.root())
    }

    /// The guest whose parent lies outside this host's range (the range
    /// root). `None` when the host covers the guest root — and when its own
    /// range is malformed: arbitrary state is the model, the detector's
    /// `BadRange` reset may still be a patience window away, and every
    /// caller already reads `None` as "no way up from here".
    pub fn up_guest(&self) -> Option<u32> {
        let (lo, hi) = self.core.range;
        (!self.is_root() && lo < hi && hi <= self.n).then(|| self.cbt.range_root(lo, hi))
    }

    /// The host-tree parent: the same-cluster neighbor whose range covers
    /// the parent of this host's range root. `None` for the cluster root
    /// host or when the view lacks a covering neighbor (inconsistent state).
    pub fn parent(&self, now: u64, neighbors: &[NodeId]) -> Option<NodeId> {
        let pg = self.cbt.parent(self.up_guest()?)?;
        self.covering_neighbor(now, neighbors, pg)
    }

    /// The same-cluster neighbor whose (freshly beaconed) range covers
    /// guest `g`.
    fn covering_neighbor(&self, now: u64, neighbors: &[NodeId], g: u32) -> Option<NodeId> {
        self.view
            .fresh(now, neighbors)
            .find(|(_, b)| b.cid == self.core.cid && b.range.0 <= g && g < b.range.1)
            .map(|(v, _)| v)
    }

    /// The host responsible for guest `g` as seen from this host: itself
    /// when `g` is in range, otherwise the covering same-cluster neighbor
    /// from the beacon view.
    pub fn host_for(&self, now: u64, neighbors: &[NodeId], g: u32) -> Option<NodeId> {
        if self.core.covers(g) {
            Some(self.id)
        } else {
            self.covering_neighbor(now, neighbors, g)
        }
    }

    /// The host-tree children: same-cluster neighbors whose range root's
    /// parent falls in this host's range. A beacon whose range is malformed
    /// (empty, or reaching past `N`) names no child.
    pub fn children<'a>(
        &'a self,
        now: u64,
        neighbors: &'a [NodeId],
    ) -> impl Iterator<Item = NodeId> + 'a {
        self.view
            .fresh(now, neighbors)
            .filter(|(_, b)| {
                let (lo, hi) = b.range;
                b.cid == self.core.cid && lo < hi && hi <= self.n && {
                    let rr = self.cbt.range_root(lo, hi);
                    match self.cbt.parent(rr) {
                        Some(pg) => self.core.covers(pg) && !(lo <= pg && pg < hi),
                        None => false,
                    }
                }
            })
            .map(|(v, _)| v)
    }
}

/// True iff two responsible ranges are joined by at least one guest tree
/// edge — i.e. the corresponding host edge is required by the dilation-1
/// embedding of the tree. `O(log N)`.
pub fn ranges_adjacent(cbt: &Cbt, a: (u32, u32), b: (u32, u32)) -> bool {
    if a.0 >= a.1 || b.0 >= b.1 {
        return false;
    }
    let covered = |r: (u32, u32), g: u32| r.0 <= g && g < r.1;
    cbt.crossing_up(a.0, a.1)
        .iter()
        .any(|&(_, p)| covered(b, p))
        || cbt
            .crossing_up(b.0, b.1)
            .iter()
            .any(|&(_, p)| covered(a, p))
}

/// True iff two responsible ranges are consecutive (successor relation).
/// Legal `Avatar(Cbt)` additionally keeps the host successor line — the
/// paper's wave 0 relies on host-successor edges already existing ("the edge
/// in the host network realizing this guest edge already exists").
pub fn ranges_consecutive(a: (u32, u32), b: (u32, u32)) -> bool {
    a.1 == b.0 || b.1 == a.0
}

/// True iff the host edge between two responsible ranges is *required* by
/// legal `Avatar(Cbt)`: a guest-tree crossing edge or the successor line.
/// The two-sided definition, for judging a topology from outside; a host
/// asks [`CbtCore::requires_edge_to`] about its own range instead.
pub fn required_edge(cbt: &Cbt, a: (u32, u32), b: (u32, u32)) -> bool {
    ranges_consecutive(a, b) || ranges_adjacent(cbt, a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::Beacon;
    use crate::state::ClusterCore;
    use overlay::Avatar;

    /// One core per host of a legal embedding, each with a fully-informed
    /// view (every host's beacon, its own included, recorded at round 10).
    fn legal_cluster(n: u32, hosts: &[NodeId]) -> Vec<CbtCore> {
        let av = Avatar::new(n, hosts.iter().copied());
        let min = *hosts.iter().min().unwrap();
        let range = |u| {
            let r = av.range_of(u);
            (r.lo, r.hi)
        };
        hosts
            .iter()
            .map(|&u| {
                let mut c = CbtCore::new(u, n, 7);
                c.core = ClusterCore {
                    cid: 7,
                    range: range(u),
                    cluster_min: min,
                };
                for &v in hosts {
                    c.view.record(
                        v,
                        10,
                        Beacon {
                            cid: 7,
                            range: range(v),
                            cluster_min: min,
                            role: None,
                            epoch: 0,
                        },
                    );
                }
                c
            })
            .collect()
    }

    #[test]
    fn exactly_one_root_host() {
        let cores = legal_cluster(64, &[3, 17, 30, 41, 55]);
        let roots: Vec<NodeId> = cores.iter().filter(|c| c.is_root()).map(|c| c.id).collect();
        assert_eq!(roots.len(), 1);
        // Guest root of Cbt(64) is 32 -> host 30 covers [30, 41).
        assert_eq!(roots[0], 30);
    }

    #[test]
    fn parent_relation_forms_a_tree() {
        let hosts = [3u32, 17, 30, 41, 55];
        let cores = legal_cluster(64, &hosts);
        let mut parent_of = std::collections::HashMap::new();
        for c in &cores {
            // Every host may consult every other host's beacon here (the
            // legal embedding's required edges make them neighbors).
            let p = c.parent(10, &hosts);
            if c.is_root() {
                assert_eq!(p, None);
            } else {
                let p = p.expect("non-root host must find a parent");
                parent_of.insert(c.id, p);
            }
        }
        // Walk each host to the root; depth bounded by H + 1.
        for &u in &hosts {
            let mut cur = u;
            let mut steps = 0;
            while let Some(&p) = parent_of.get(&cur) {
                cur = p;
                steps += 1;
                assert!(
                    steps <= cores[0].cbt.height() + 1,
                    "cycle or too deep from {u}"
                );
            }
            assert_eq!(cur, 30, "all paths lead to the root host");
        }
    }

    #[test]
    fn children_inverts_parent() {
        let hosts = [3u32, 17, 30, 41, 55];
        let cores = legal_cluster(64, &hosts);
        for c in &cores {
            for child in c.children(10, &hosts) {
                let cc = cores.iter().find(|x| x.id == child).unwrap();
                assert_eq!(cc.parent(10, &hosts), Some(c.id));
            }
        }
    }

    #[test]
    fn singleton_is_its_own_root() {
        let core = CbtCore::new(9, 32, 1);
        assert!(core.is_root());
        assert_eq!(core.up_guest(), None);
    }

    #[test]
    fn ranges_adjacent_matches_projection() {
        let n = 64u32;
        let hosts = [3u32, 17, 30, 41, 55];
        let av = Avatar::new(n, hosts);
        let cbt = Cbt::new(n);
        let projected: std::collections::HashSet<(NodeId, NodeId)> =
            av.project_edges(cbt.edges()).into_iter().collect();
        for &a in &hosts {
            for &b in &hosts {
                if a >= b {
                    continue;
                }
                let ra = av.range_of(a);
                let rb = av.range_of(b);
                let adj = ranges_adjacent(&cbt, (ra.lo, ra.hi), (rb.lo, rb.hi));
                assert_eq!(
                    adj,
                    projected.contains(&(a, b)),
                    "hosts {a},{b} ranges {ra:?} {rb:?}"
                );
            }
        }
    }
}
