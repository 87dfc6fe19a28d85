//! The Avatar framework (Section 3.1): a dilation-1 embedding of an `N`-node
//! *guest* network onto `n ≤ N` *host* nodes.
//!
//! Every host `u` (identifiers drawn from `[0, N)`) *hosts* the guests in its
//! **responsible range** `[u.id, succ(u).id)`, where `succ(u)` is the host with
//! the smallest identifier greater than `u.id`. The host with the smallest
//! identifier additionally covers `[0, u.id)` (its range is `[0, succ)`), and
//! the host with the largest identifier covers up to `N`.
//!
//! A guest edge `(a, b)` is realized either inside a single host or by the
//! host edge `(host(a), host(b))` — the *dilation-1* condition. Because the
//! guest network is a fixed function of `N`, any `Avatar(Guest(N))` topology is
//! **locally checkable**: a host can verify from its own state and its
//! neighbors' states whether the embedding around it is correct.

use crate::Id;

/// Half-open interval `[lo, hi)` of guest identifiers a host is responsible
/// for. `lo ≤ hi` always; the interval never wraps (the minimum host's range
/// starts at 0 by construction).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct ResponsibleRange {
    /// Inclusive lower bound.
    pub lo: Id,
    /// Exclusive upper bound.
    pub hi: Id,
}

impl ResponsibleRange {
    /// Create a range; panics if `lo > hi`.
    pub fn new(lo: Id, hi: Id) -> Self {
        assert!(lo <= hi, "invalid range [{lo}, {hi})");
        Self { lo, hi }
    }

    /// True iff the guest `g` belongs to the range.
    pub fn contains(&self, g: Id) -> bool {
        self.lo <= g && g < self.hi
    }

    /// Number of guests in the range.
    pub fn len(&self) -> u32 {
        self.hi - self.lo
    }

    /// True iff the range holds no guests.
    pub fn is_empty(&self) -> bool {
        self.lo == self.hi
    }

    /// Iterate the guests of the range in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = Id> {
        self.lo..self.hi
    }
}

/// An Avatar embedding: the guest capacity `N` plus the sorted host set.
///
/// Beside the hosts it keeps a dense guest → host-index table, built once
/// in `O(N)` by [`Avatar::new`], so [`Avatar::host_of`],
/// [`Avatar::range_of`], [`Avatar::succ`], [`Avatar::pred`] and each
/// endpoint of [`Avatar::project_edges`] are `O(1)`. The table costs four
/// bytes per guest; it is derived from the hosts, so equality and `Debug`
/// read the hosts alone.
#[derive(Clone)]
pub struct Avatar {
    n_cap: u32,
    hosts: Vec<Id>,
    /// `owner[g]` = the index in `hosts` of the host responsible for `g`.
    owner: Vec<u32>,
}

impl PartialEq for Avatar {
    fn eq(&self, other: &Self) -> bool {
        self.n_cap == other.n_cap && self.hosts == other.hosts
    }
}

impl Eq for Avatar {}

impl std::fmt::Debug for Avatar {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Avatar")
            .field("n_cap", &self.n_cap)
            .field("hosts", &self.hosts)
            .finish_non_exhaustive()
    }
}

impl Avatar {
    /// Build an embedding of guest space `[0, n_cap)` onto the given hosts.
    ///
    /// Host identifiers must be unique and in `[0, n_cap)`; they are sorted
    /// internally. `O(n log n + N)`: the sort, then one fill of the
    /// guest → host table.
    ///
    /// # Panics
    /// Panics on an empty host set, duplicate identifiers, or identifiers out
    /// of range.
    pub fn new(n_cap: u32, hosts: impl IntoIterator<Item = Id>) -> Self {
        let mut hosts: Vec<Id> = hosts.into_iter().collect();
        assert!(!hosts.is_empty(), "Avatar needs at least one host");
        hosts.sort_unstable();
        for w in hosts.windows(2) {
            assert!(w[0] != w[1], "duplicate host id {}", w[0]);
        }
        assert!(
            *hosts.last().unwrap() < n_cap,
            "host id {} out of guest range [0, {n_cap})",
            hosts.last().unwrap()
        );
        let mut owner = Vec::with_capacity(n_cap as usize);
        for i in 0..hosts.len() {
            let hi = hosts.get(i + 1).copied().unwrap_or(n_cap);
            owner.resize(hi as usize, i as u32);
        }
        Self {
            n_cap,
            hosts,
            owner,
        }
    }

    /// The guest capacity `N`.
    pub fn n_cap(&self) -> u32 {
        self.n_cap
    }

    /// The hosts, sorted ascending.
    pub fn hosts(&self) -> &[Id] {
        &self.hosts
    }

    /// The index of host `u` in [`Avatar::hosts`].
    ///
    /// # Panics
    /// `u` must be a host.
    fn index_of(&self, u: Id) -> usize {
        match self.owner.get(u as usize) {
            Some(&i) if self.hosts[i as usize] == u => i as usize,
            _ => panic!("{u} is not a host"),
        }
    }

    /// The responsible range of the `i`-th host (see [`Avatar::range_of`]).
    fn range_at(&self, i: usize) -> ResponsibleRange {
        let lo = if i == 0 { 0 } else { self.hosts[i] };
        let hi = self.hosts.get(i + 1).copied().unwrap_or(self.n_cap);
        ResponsibleRange::new(lo, hi)
    }

    /// The host responsible for guest `g`: the largest host id `≤ g`, or the
    /// minimum host if `g` precedes all hosts.
    ///
    /// # Panics
    /// `g` must be in `[0, N)`.
    pub fn host_of(&self, g: Id) -> Id {
        assert!(g < self.n_cap, "guest {g} out of range [0, {})", self.n_cap);
        self.hosts[self.owner[g as usize] as usize]
    }

    /// The successor of host `u`: the smallest host id greater than `u`.
    /// Returns `None` for the maximum host.
    ///
    /// # Panics
    /// `u` must be a host.
    pub fn succ(&self, u: Id) -> Option<Id> {
        self.hosts.get(self.index_of(u) + 1).copied()
    }

    /// The predecessor of host `u` (the largest host id smaller than `u`), or
    /// `None` for the minimum host.
    pub fn pred(&self, u: Id) -> Option<Id> {
        let i = self.index_of(u);
        i.checked_sub(1).map(|j| self.hosts[j])
    }

    /// The responsible range of host `u` per Section 3.1: `[u, succ)` in
    /// general, `[0, succ)` for the minimum host and `[u, N)` for the maximum.
    pub fn range_of(&self, u: Id) -> ResponsibleRange {
        self.range_at(self.index_of(u))
    }

    /// The guests of host `u`, in increasing order.
    pub fn guests_of(&self, u: Id) -> impl Iterator<Item = Id> {
        self.range_of(u).iter()
    }

    /// Verify that the responsible ranges of all hosts partition `[0, N)`.
    /// True by construction — exposed as an invariant for property tests.
    pub fn ranges_partition_guest_space(&self) -> bool {
        let mut next = 0u32;
        for &u in &self.hosts {
            let r = self.range_of(u);
            if r.lo != next {
                return false;
            }
            next = r.hi;
        }
        next == self.n_cap
    }

    /// Project a guest edge set onto the host network: the dilation-1 host
    /// edges `{(host(a), host(b)) : (a,b) guest edge, host(a) ≠ host(b)}`,
    /// each once as `(x, y)` with `x < y`, sorted.
    pub fn project_edges(&self, guest_edges: impl IntoIterator<Item = (Id, Id)>) -> Vec<(Id, Id)> {
        let mut out: Vec<(Id, Id)> = guest_edges
            .into_iter()
            .filter_map(|(a, b)| {
                let (x, y) = (self.host_of(a), self.host_of(b));
                (x != y).then(|| (x.min(y), x.max(y)))
            })
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// [`Avatar::project_edges`] of the *circulant* guest graph with the
    /// given offsets — guest edges `(g, (g + d) mod N)` for every guest `g`
    /// and offset `d` — computed from the hosts' ranges, with no guest-level
    /// edge list: the same sorted, deduplicated host edges.
    ///
    /// Host `u`'s neighbors are the hosts its range lands on when shifted by
    /// `+d` or `−d`. With the shifts `e` taken in ascending order from the
    /// symmetric set `{d, N − d}`, each shifted range `[lo + e, hi + e)`
    /// starts and ends no earlier than the one before, so the runs of hosts
    /// they cover come out in ascending host order and merge in one pass.
    /// Only the part before the wrap past `N` can reach a host above `u`
    /// (a wrapped guest lies below `u`'s own range), so emitting the hosts
    /// above `u` from that part gives each edge once, in sorted order.
    /// `O(n·|offsets| + E)` for `n` hosts and `E` host edges, on top of the
    /// `O(N)` table [`Avatar::new`] built.
    ///
    /// # Panics
    /// Every offset must be in `[1, N)`.
    pub fn project_circulant(&self, offsets: &[u32]) -> Vec<(Id, Id)> {
        let n_cap = self.n_cap as usize;
        let mut shifts: Vec<usize> = offsets
            .iter()
            .flat_map(|&d| {
                assert!(
                    0 < d && d < self.n_cap,
                    "offset {d} out of range [1, {n_cap})"
                );
                [d as usize, n_cap - d as usize]
            })
            .collect();
        shifts.sort_unstable();
        shifts.dedup();
        let n = self.hosts.len();
        let mut out = Vec::new();
        for (i, &u) in self.hosts.iter().enumerate() {
            let r = self.range_at(i);
            let (lo, last) = (r.lo as usize, r.hi as usize - 1);
            // The lowest host index not emitted yet.
            let mut next = i + 1;
            for &e in &shifts {
                if lo + e >= n_cap || next >= n {
                    break;
                }
                let first = (self.owner[lo + e] as usize).max(next);
                let end = self.owner.get(last + e).map_or(n - 1, |&j| j as usize);
                if first <= end {
                    out.extend(self.hosts[first..=end].iter().map(|&v| (u, v)));
                    next = end + 1;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cbt::Cbt;

    fn demo() -> Avatar {
        Avatar::new(16, [3u32, 7, 10, 14])
    }

    #[test]
    fn host_of_follows_ranges() {
        let a = demo();
        // min host 3 covers [0,7), then [7,10), [10,14), [14,16)
        for g in 0..7 {
            assert_eq!(a.host_of(g), 3, "g={g}");
        }
        for g in 7..10 {
            assert_eq!(a.host_of(g), 7);
        }
        for g in 10..14 {
            assert_eq!(a.host_of(g), 10);
        }
        for g in 14..16 {
            assert_eq!(a.host_of(g), 14);
        }
    }

    #[test]
    fn ranges_partition() {
        let a = demo();
        assert!(a.ranges_partition_guest_space());
        assert_eq!(a.range_of(3), ResponsibleRange::new(0, 7));
        assert_eq!(a.range_of(14), ResponsibleRange::new(14, 16));
    }

    #[test]
    fn single_host_covers_everything() {
        let a = Avatar::new(32, [11u32]);
        assert_eq!(a.range_of(11), ResponsibleRange::new(0, 32));
        for g in 0..32 {
            assert_eq!(a.host_of(g), 11);
        }
        assert!(a.ranges_partition_guest_space());
    }

    #[test]
    fn succ_and_pred() {
        let a = demo();
        assert_eq!(a.succ(3), Some(7));
        assert_eq!(a.succ(14), None);
        assert_eq!(a.pred(3), None);
        assert_eq!(a.pred(10), Some(7));
    }

    #[test]
    #[should_panic]
    fn duplicate_hosts_rejected() {
        Avatar::new(8, [1u32, 1]);
    }

    #[test]
    fn projection_skips_internal_edges() {
        let a = demo();
        // guests 4 and 5 are both hosted by 3 -> no host edge
        let es = a.project_edges([(4u32, 5u32), (5, 8)]);
        assert_eq!(es, vec![(3, 7)]);
    }

    #[test]
    fn projected_cbt_is_connected_and_small() {
        let a = Avatar::new(64, [0u32, 9, 17, 23, 31, 40, 52, 60]);
        let t = Cbt::new(64);
        let es = a.project_edges(t.edges());
        // All hosts appear (every host owns at least one guest with an
        // external tree neighbor here).
        let mut seen: Vec<Id> = es.iter().flat_map(|&(x, y)| [x, y]).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen, a.hosts());
        // Dilation-1: each projected edge joins two distinct hosts.
        for &(x, y) in &es {
            assert!(x < y);
        }
    }

    /// The host table answers what a binary search over the sorted hosts
    /// answers, for every guest, and `range_of` of that host contains it.
    #[test]
    fn host_table_matches_binary_search() {
        let placements: [(u32, &[Id]); 5] = [
            (16, &[3, 7, 10, 14]),
            (32, &[11]),
            (32, &[0, 31]),
            (8, &[0, 1, 2, 3, 4, 5, 6, 7]),
            (1024, &[1, 2, 100, 511, 512, 513, 1000, 1023]),
        ];
        for (n, hosts) in placements {
            let a = Avatar::new(n, hosts.iter().copied());
            for g in 0..n {
                let by_search = match hosts.binary_search(&g) {
                    Ok(i) => hosts[i],
                    Err(0) => hosts[0],
                    Err(i) => hosts[i - 1],
                };
                assert_eq!(a.host_of(g), by_search, "n={n} g={g}");
                assert!(a.range_of(by_search).contains(g), "n={n} g={g}");
            }
            for (i, &u) in hosts.iter().enumerate() {
                let lo = if i == 0 { 0 } else { u };
                let hi = hosts.get(i + 1).copied().unwrap_or(n);
                assert_eq!(a.range_of(u), ResponsibleRange::new(lo, hi));
            }
        }
    }

    #[test]
    #[should_panic(expected = "5 is not a host")]
    fn range_of_a_non_host_panics() {
        demo().range_of(5);
    }

    #[test]
    #[should_panic(expected = "99 is not a host")]
    fn succ_of_an_id_past_n_panics() {
        demo().succ(99);
    }

    /// `Debug` names the hosts, never the per-guest table.
    #[test]
    fn debug_omits_the_table() {
        let a = Avatar::new(1 << 12, [5u32, 9]);
        let s = format!("{a:?}");
        assert_eq!(s, "Avatar { n_cap: 4096, hosts: [5, 9], .. }");
    }

    /// The range projection of a circulant graph equals the guest-level
    /// projection, for offsets that are not Chord's too.
    #[test]
    fn project_circulant_matches_guest_projection() {
        let offsets: [&[u32]; 4] = [&[1], &[1, 2, 4, 8], &[3, 5], &[7, 9, 16]];
        let placements: [&[Id]; 5] = [
            &[0],
            &[31],
            &[0, 31],
            &[3, 7, 10, 14, 15, 22, 30],
            &[1, 2, 3, 4, 5, 6, 17, 18],
        ];
        for d in offsets {
            let guest: Vec<(Id, Id)> = (0..32u32)
                .flat_map(|g| d.iter().map(move |&d| (g, (g + d) % 32)))
                .collect();
            for hosts in placements {
                let a = Avatar::new(32, hosts.iter().copied());
                assert_eq!(
                    a.project_circulant(d),
                    a.project_edges(guest.iter().copied()),
                    "offsets {d:?} hosts {hosts:?}"
                );
            }
        }
        let all = Avatar::new(32, 0..32);
        assert_eq!(all.project_circulant(&[1]).len(), 32);
    }

    #[test]
    #[should_panic(expected = "offset 0 out of range")]
    fn project_circulant_rejects_a_zero_offset() {
        demo().project_circulant(&[0]);
    }
}
