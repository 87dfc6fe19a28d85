//! The `Cbt(N)` guest network: a *complete binary search tree* over `[0, N)`.
//!
//! `Cbt(N)` is the scaffold topology of the paper (Section 3.2): Berns' Avatar
//! work gives a self-stabilizing algorithm building `Avatar(Cbt)` in expected
//! `O(log² N)` rounds with `O(log² N)` degree expansion, and the present paper
//! grows Chord fingers on top of it.
//!
//! A *complete* binary search tree over the sorted keys `0..N` is the unique
//! BST whose shape is the complete binary tree on `N` nodes (every level full
//! except possibly the last, which is filled left to right). All structural
//! queries (`parent`, `children`, `level`, subtree intervals) are answered in
//! `O(log N)` by descending the implicit interval decomposition — no `O(N)`
//! tables are materialized, matching the paper's requirement that guest
//! structure be computable from node-local state.

use crate::Id;

/// Static description of a `Cbt(N)` guest network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cbt {
    n: u32,
}

/// One piece of a canonical interval decomposition (see [`Cbt::decompose`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Piece {
    /// The guest at the top of the piece.
    pub root: Id,
    /// The keys covered by the piece: the full subtree interval for `full`
    /// pieces, `[root, root + 1)` for singletons.
    pub interval: (Id, Id),
    /// True iff the piece is a maximal full subtree (otherwise a descent-path
    /// singleton).
    pub full: bool,
}

/// Result of locating a guest in the tree: its parent (if any), its level
/// (root = 0) and the half-open key interval of its subtree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Locus {
    /// Parent guest id, `None` for the root.
    pub parent: Option<Id>,
    /// Depth of the guest below the root (root has level 0).
    pub level: u32,
    /// Keys of the subtree rooted at the guest: `[lo, hi)`.
    pub subtree: (Id, Id),
}

/// Number of keys in the left subtree of a complete binary tree on `n` nodes.
fn complete_left_size(n: u32) -> u32 {
    if n <= 1 {
        return 0;
    }
    // Height h = floor(log2(n)); the tree has levels 0..=h.
    let h = 31 - n.leading_zeros();
    let full_above_last = (1u32 << h) - 1;
    let last = n - full_above_last;
    let half_last_cap = 1u32 << (h - 1);
    let left_last = last.min(half_last_cap);
    (1u32 << (h - 1)) - 1 + left_last
}

/// The children of guest `g` whose subtree holds the keys `[lo, hi)`: the
/// roots of the complete subtrees on `[lo, g)` and `[g + 1, hi)`.
fn children_within(g: Id, lo: Id, hi: Id) -> (Option<Id>, Option<Id>) {
    let left = (g > lo).then(|| lo + complete_left_size(g - lo));
    let right = (g + 1 < hi).then(|| g + 1 + complete_left_size(hi - g - 1));
    (left, right)
}

impl Cbt {
    /// A complete binary search tree over guests `[0, n)`.
    ///
    /// # Panics
    /// `n` must be at least 1.
    pub fn new(n: u32) -> Self {
        assert!(n >= 1, "Cbt(N) needs N ≥ 1");
        Self { n }
    }

    /// Number of guest nodes `N`.
    pub fn n(&self) -> u32 {
        self.n
    }

    /// The root guest of the tree.
    pub fn root(&self) -> Id {
        complete_left_size(self.n)
    }

    /// Height of the tree: the maximum level (root = level 0).
    pub fn height(&self) -> u32 {
        31 - self.n.leading_zeros()
    }

    /// Locate a guest: parent, level and subtree interval, in `O(log N)`.
    ///
    /// # Panics
    /// `g` must be in `[0, N)`.
    pub fn locate(&self, g: Id) -> Locus {
        assert!(g < self.n, "guest {g} out of range [0, {})", self.n);
        let (mut lo, mut hi) = (0u32, self.n);
        let mut parent = None;
        let mut level = 0u32;
        loop {
            let root = lo + complete_left_size(hi - lo);
            if root == g {
                return Locus {
                    parent,
                    level,
                    subtree: (lo, hi),
                };
            }
            parent = Some(root);
            level += 1;
            if g < root {
                hi = root;
            } else {
                lo = root + 1;
            }
        }
    }

    /// Parent of guest `g`, `None` for the root.
    pub fn parent(&self, g: Id) -> Option<Id> {
        self.locate(g).parent
    }

    /// The left and right children of guest `g`.
    pub fn children(&self, g: Id) -> (Option<Id>, Option<Id>) {
        let Locus {
            subtree: (lo, hi), ..
        } = self.locate(g);
        children_within(g, lo, hi)
    }

    /// Level (depth) of guest `g`; the root has level 0.
    pub fn level(&self, g: Id) -> u32 {
        self.locate(g).level
    }

    /// All guests at `level` whose keys lie in `[lo, hi)`, in increasing key
    /// order. Pruned descent: `O(output + log N)`.
    pub fn level_nodes_in(&self, level: u32, lo: Id, hi: Id) -> Vec<Id> {
        let mut out = Vec::new();
        self.level_subtrees_in(level, lo, hi, |g, _, _| out.push(g));
        out
    }

    /// The children of the guests [`Cbt::level_nodes_in`] yields, in the
    /// same order, each guest's left child before its right: equal to
    /// calling [`Cbt::children`] on every one of them, without locating
    /// each guest from the root again — the descent already knows its
    /// subtree. Same-level subtrees are disjoint and ordered, so the
    /// children come out in increasing key order. `O(output + log N)`.
    pub fn level_children_in(&self, level: u32, lo: Id, hi: Id) -> Vec<Id> {
        let mut out = Vec::new();
        self.level_subtrees_in(level, lo, hi, |g, a, b| {
            let (l, r) = children_within(g, a, b);
            out.extend(l);
            out.extend(r);
        });
        out
    }

    /// Visit every guest `g` at `level` with key in `[lo, hi)` as
    /// `visit(g, subtree_lo, subtree_hi)`, in increasing key order: a
    /// pruned descent that enters a subtree only when it can hold such a
    /// guest, left before right.
    fn level_subtrees_in(&self, level: u32, lo: Id, hi: Id, mut visit: impl FnMut(Id, Id, Id)) {
        // Stack of (interval, depth of its local root); the right half is
        // pushed first so the left half pops first.
        let mut stack = vec![(0u32, self.n, 0u32)];
        while let Some((a, b, d)) = stack.pop() {
            if a >= b || b <= lo || a >= hi || d > level {
                continue;
            }
            let root = a + complete_left_size(b - a);
            if d == level {
                if lo <= root && root < hi {
                    visit(root, a, b);
                }
                continue;
            }
            stack.push((root + 1, b, d + 1));
            stack.push((a, root, d + 1));
        }
    }

    /// The undirected tree neighborhood of guest `g` (parent plus children).
    pub fn neighborhood(&self, g: Id) -> Vec<Id> {
        let mut out = Vec::with_capacity(3);
        if let Some(p) = self.parent(g) {
            out.push(p);
        }
        let (l, r) = self.children(g);
        out.extend(l);
        out.extend(r);
        out.sort_unstable();
        out
    }

    /// The complete undirected edge set, each edge once with `(a, b)`, `a < b`.
    pub fn edges(&self) -> Vec<(Id, Id)> {
        let mut es = Vec::with_capacity(self.n.saturating_sub(1) as usize);
        self.for_each_edge(|g, p| es.push((g.min(p), g.max(p))));
        es.sort_unstable();
        es
    }

    /// Visit every tree edge once as `visit(child, parent)`, in no
    /// particular order: one descent over the subtree intervals, `O(N)`,
    /// with no edge list and no per-guest [`Cbt::locate`].
    pub fn for_each_edge(&self, mut visit: impl FnMut(Id, Id)) {
        // Stack of (interval, parent of its local root).
        let mut stack = vec![(0u32, self.n, None)];
        while let Some((a, b, parent)) = stack.pop() {
            if a >= b {
                continue;
            }
            let root = a + complete_left_size(b - a);
            if let Some(p) = parent {
                visit(root, p);
            }
            stack.push((root + 1, b, Some(root)));
            stack.push((a, root, Some(root)));
        }
    }

    /// The *range root* of a non-empty key interval `[lo, hi)`: the unique
    /// guest of minimum level whose key lies in the interval (the point where
    /// the root-descent first enters the interval).
    ///
    /// # Panics
    /// The interval must be non-empty and within `[0, N)`.
    pub fn range_root(&self, lo: Id, hi: Id) -> Id {
        assert!(lo < hi && hi <= self.n, "bad interval [{lo}, {hi})");
        let (mut a, mut b) = (0u32, self.n);
        loop {
            let root = a + complete_left_size(b - a);
            if root < lo {
                a = root + 1;
            } else if root >= hi {
                b = root;
            } else {
                return root;
            }
        }
    }

    /// Canonical decomposition of `[lo, hi)` into `O(log N)` pieces: maximal
    /// *full subtrees* contained in the interval, plus *singleton* guests on
    /// the two descent paths. The pieces disjointly tile the interval.
    ///
    /// Every tree edge leaving the interval has a piece root as its inside
    /// endpoint — the key fact behind the `O(log N)`-size local checks of the
    /// Avatar embedding.
    pub fn decompose(&self, lo: Id, hi: Id) -> Vec<Piece> {
        assert!(lo <= hi && hi <= self.n, "bad interval [{lo}, {hi})");
        let mut out = Vec::new();
        let mut stack = vec![(0u32, self.n)];
        while let Some((a, b)) = stack.pop() {
            if a >= b || b <= lo || a >= hi {
                continue;
            }
            let root = a + complete_left_size(b - a);
            if lo <= a && b <= hi {
                // Entire subtree inside the interval: one full piece.
                out.push(Piece {
                    root,
                    interval: (a, b),
                    full: true,
                });
                continue;
            }
            // Partial overlap: the local root (if inside) is a singleton
            // piece; recurse into the child subtrees.
            if lo <= root && root < hi {
                out.push(Piece {
                    root,
                    interval: (root, root + 1),
                    full: false,
                });
            }
            stack.push((a, root));
            stack.push((root + 1, b));
        }
        out.sort_unstable_by_key(|p| p.interval.0);
        out
    }

    /// The roots of the canonical decomposition of `[lo, hi)`, in increasing
    /// covered-interval order. See [`Cbt::decompose`].
    pub fn canonical_roots(&self, lo: Id, hi: Id) -> Vec<Id> {
        self.decompose(lo, hi).into_iter().map(|p| p.root).collect()
    }

    /// The **upward** tree edges crossing out of the interval `[lo, hi)`:
    /// `(inside_guest, outside_parent)` pairs. At most `O(log N)` of them —
    /// only canonical subtree roots can have a parent outside the interval.
    pub fn crossing_up(&self, lo: Id, hi: Id) -> Vec<(Id, Id)> {
        if lo >= hi {
            return Vec::new();
        }
        self.canonical_roots(lo, hi)
            .into_iter()
            .filter_map(|g| {
                self.parent(g)
                    .and_then(|p| (!(lo <= p && p < hi)).then_some((g, p)))
            })
            .collect()
    }

    /// The **downward** tree edges crossing out of `[lo, hi)`:
    /// `(inside_guest, outside_child)` pairs. These are the upward crossing
    /// edges of the complement intervals `[0, lo)` and `[hi, N)` whose parent
    /// lands inside `[lo, hi)`. At most `O(log N)` of them.
    pub fn crossing_down(&self, lo: Id, hi: Id) -> Vec<(Id, Id)> {
        let mut out = Vec::new();
        for (a, b) in [(0, lo), (hi, self.n)] {
            for (child, parent) in self.crossing_up(a, b) {
                if lo <= parent && parent < hi {
                    out.push((parent, child));
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// All tree edges with exactly one endpoint in `[lo, hi)`, as
    /// `(inside_guest, outside_guest)` pairs. `O(log N)` of them.
    pub fn crossing_edges(&self, lo: Id, hi: Id) -> Vec<(Id, Id)> {
        let mut out = self.crossing_up(lo, hi);
        out.extend(self.crossing_down(lo, hi));
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference construction: explicit recursive build returning a parent map.
    fn reference_parents(n: u32) -> Vec<Option<Id>> {
        fn build(lo: u32, hi: u32, parent: Option<Id>, out: &mut Vec<Option<Id>>) {
            if lo >= hi {
                return;
            }
            let root = lo + complete_left_size(hi - lo);
            out[root as usize] = parent;
            build(lo, root, Some(root), out);
            build(root + 1, hi, Some(root), out);
        }
        let mut out = vec![None; n as usize];
        build(0, n, None, &mut out);
        out
    }

    #[test]
    fn left_sizes_for_small_n() {
        assert_eq!(complete_left_size(0), 0);
        assert_eq!(complete_left_size(1), 0);
        assert_eq!(complete_left_size(2), 1);
        assert_eq!(complete_left_size(3), 1);
        assert_eq!(complete_left_size(4), 2);
        assert_eq!(complete_left_size(5), 3);
        assert_eq!(complete_left_size(6), 3);
        assert_eq!(complete_left_size(7), 3);
        assert_eq!(complete_left_size(8), 4);
    }

    #[test]
    fn parents_match_reference_up_to_128() {
        for n in 1..=128u32 {
            let t = Cbt::new(n);
            let reference = reference_parents(n);
            for g in 0..n {
                assert_eq!(t.parent(g), reference[g as usize], "n={n} g={g}");
            }
        }
    }

    #[test]
    fn children_invert_parent() {
        for n in [1u32, 2, 3, 7, 8, 16, 31, 32, 33, 100, 128] {
            let t = Cbt::new(n);
            for g in 0..n {
                let (l, r) = t.children(g);
                for c in [l, r].into_iter().flatten() {
                    assert_eq!(t.parent(c), Some(g), "n={n} child {c} of {g}");
                }
            }
        }
    }

    #[test]
    fn bst_property_holds() {
        for n in [2u32, 8, 17, 64] {
            let t = Cbt::new(n);
            for g in 0..n {
                let (l, r) = t.children(g);
                if let Some(l) = l {
                    assert!(l < g);
                }
                if let Some(r) = r {
                    assert!(r > g);
                }
            }
        }
    }

    #[test]
    fn tree_is_complete() {
        // Every level except the last is full; the height is floor(log2 n).
        for n in [1u32, 5, 8, 16, 100, 128, 1024] {
            let t = Cbt::new(n);
            let h = t.height();
            let mut count = 0;
            for lvl in 0..=h {
                let nodes = t.level_nodes_in(lvl, 0, n);
                if lvl < h {
                    assert_eq!(nodes.len() as u32, 1 << lvl, "n={n} level {lvl} full");
                }
                count += nodes.len() as u32;
            }
            assert_eq!(count, n, "n={n} total node count");
        }
    }

    /// The descent visits each non-root guest once, with its parent.
    #[test]
    fn for_each_edge_matches_parent() {
        for n in [1u32, 2, 3, 9, 64, 100, 1000] {
            let t = Cbt::new(n);
            let mut seen = Vec::new();
            t.for_each_edge(|g, p| seen.push((g, p)));
            seen.sort_unstable();
            let expect: Vec<(Id, Id)> =
                (0..n).filter_map(|g| t.parent(g).map(|p| (g, p))).collect();
            assert_eq!(seen, expect, "n={n}");
        }
    }

    #[test]
    fn edges_form_a_tree() {
        for n in [1u32, 2, 9, 64, 100] {
            let t = Cbt::new(n);
            let es = t.edges();
            assert_eq!(es.len() as u32, n - 1);
            // Connectivity via union-find.
            let mut uf: Vec<u32> = (0..n).collect();
            fn find(uf: &mut Vec<u32>, x: u32) -> u32 {
                if uf[x as usize] != x {
                    let r = find(uf, uf[x as usize]);
                    uf[x as usize] = r;
                }
                uf[x as usize]
            }
            for &(a, b) in &es {
                let (ra, rb) = (find(&mut uf, a), find(&mut uf, b));
                uf[ra as usize] = rb;
            }
            let r0 = find(&mut uf, 0);
            for x in 0..n {
                assert_eq!(find(&mut uf, x), r0);
            }
        }
    }

    #[test]
    fn height_is_logarithmic() {
        assert_eq!(Cbt::new(1).height(), 0);
        assert_eq!(Cbt::new(2).height(), 1);
        assert_eq!(Cbt::new(8).height(), 3);
        assert_eq!(Cbt::new(1024).height(), 10);
    }

    #[test]
    fn level_nodes_in_matches_filter() {
        for n in [8u32, 21, 64] {
            let t = Cbt::new(n);
            for level in 0..=t.height() {
                for (lo, hi) in [(0, n), (1, n / 2), (n / 3, 2 * n / 3)] {
                    let expect: Vec<Id> = (lo..hi).filter(|&g| t.level(g) == level).collect();
                    assert_eq!(t.level_nodes_in(level, lo, hi), expect, "n={n} l={level}");
                }
            }
        }
    }

    /// The one-descent child listing equals `level_nodes_in` followed by
    /// `children` on each guest — same children, same order — for every
    /// tree up to 64 guests, every level and every interval.
    #[test]
    fn level_children_in_matches_children_of_level_nodes() {
        for n in 1..=64u32 {
            let t = Cbt::new(n);
            for level in 0..=t.height() + 1 {
                for lo in 0..=n {
                    for hi in lo..=n {
                        let expect: Vec<Id> = t
                            .level_nodes_in(level, lo, hi)
                            .into_iter()
                            .flat_map(|g| {
                                let (l, r) = t.children(g);
                                l.into_iter().chain(r)
                            })
                            .collect();
                        assert_eq!(
                            t.level_children_in(level, lo, hi),
                            expect,
                            "n={n} l={level} [{lo},{hi})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn range_root_is_min_level_guest() {
        for n in [8u32, 13, 64] {
            let t = Cbt::new(n);
            for lo in 0..n {
                for hi in lo + 1..=n {
                    let rr = t.range_root(lo, hi);
                    assert!(lo <= rr && rr < hi);
                    let min_level = (lo..hi).map(|g| t.level(g)).min().unwrap();
                    assert_eq!(t.level(rr), min_level, "n={n} [{lo},{hi})");
                }
            }
        }
    }

    #[test]
    fn decomposition_tiles_interval() {
        for n in [8u32, 21, 64] {
            let t = Cbt::new(n);
            for lo in 0..n {
                for hi in lo..=n {
                    let pieces = t.decompose(lo, hi);
                    let mut covered: Vec<Id> = Vec::new();
                    for p in &pieces {
                        covered.extend(p.interval.0..p.interval.1);
                        if p.full {
                            assert_eq!(t.locate(p.root).subtree, p.interval);
                        } else {
                            assert_eq!(p.interval, (p.root, p.root + 1));
                        }
                    }
                    covered.sort_unstable();
                    let expect: Vec<Id> = (lo..hi).collect();
                    assert_eq!(covered, expect, "n={n} [{lo},{hi})");
                }
            }
        }
    }

    #[test]
    fn canonical_roots_are_logarithmically_few() {
        let t = Cbt::new(1024);
        // At most ~4 pieces per descent level (one singleton plus full
        // subtrees on each side), i.e. O(log N) in total.
        let cap = 4 * (t.height() as usize + 1);
        for (lo, hi) in [(0u32, 1024u32), (1, 1023), (317, 700), (512, 513)] {
            let k = t.canonical_roots(lo, hi).len();
            assert!(k <= cap, "[{lo},{hi}) produced {k} pieces > {cap}");
        }
    }

    #[test]
    fn crossing_edges_match_bruteforce() {
        for n in [8u32, 21, 64] {
            let t = Cbt::new(n);
            for lo in 0..n {
                for hi in lo + 1..=n {
                    let mut expect: Vec<(Id, Id)> = Vec::new();
                    for g in lo..hi {
                        for nb in t.neighborhood(g) {
                            if !(lo <= nb && nb < hi) {
                                expect.push((g, nb));
                            }
                        }
                    }
                    expect.sort_unstable();
                    assert_eq!(t.crossing_edges(lo, hi), expect, "n={n} [{lo},{hi})");
                }
            }
        }
    }

    #[test]
    fn crossing_up_parents_are_outside() {
        let t = Cbt::new(100);
        for (g, p) in t.crossing_up(20, 60) {
            assert!((20..60).contains(&g));
            assert!(!(20..60).contains(&p));
            assert_eq!(t.parent(g), Some(p));
        }
    }

    #[test]
    fn subtree_intervals_nest() {
        let t = Cbt::new(37);
        for g in 0..37 {
            let loc = t.locate(g);
            assert!(loc.subtree.0 <= g && g < loc.subtree.1);
            if let Some(p) = loc.parent {
                let ploc = t.locate(p);
                assert!(ploc.subtree.0 <= loc.subtree.0 && loc.subtree.1 <= ploc.subtree.1);
                assert_eq!(ploc.level + 1, loc.level);
            }
        }
    }
}
