//! Initial-configuration generators: node-id sampling and the weakly
//! connected starting topologies used by the experiments (the paper requires
//! convergence from *any* weakly-connected initial configuration; the
//! experiments sweep a family of adversarial shapes).

use crate::NodeId;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// A named family of initial topologies, used by experiment E10.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize)]
pub enum Shape {
    /// Sorted path `v0 − v1 − … − v_{n−1}`.
    Line,
    /// Cycle through the sorted ids.
    Ring,
    /// All nodes attached to the minimum id.
    Star,
    /// Complete graph (the TCF worst case / best case).
    Clique,
    /// Uniform random spanning tree plus `extra` random edges.
    Random,
    /// Balanced binary tree over the sorted ids (heap layout).
    BinaryTree,
    /// Clique on the first half, path on the second, bridged.
    Lollipop,
    /// Two cliques joined by a single bridge edge.
    TwoCliques,
}

impl Shape {
    /// All shapes, for sweeps.
    pub const ALL: [Shape; 8] = [
        Shape::Line,
        Shape::Ring,
        Shape::Star,
        Shape::Clique,
        Shape::Random,
        Shape::BinaryTree,
        Shape::Lollipop,
        Shape::TwoCliques,
    ];

    /// Short label for table output.
    pub fn label(&self) -> &'static str {
        match self {
            Shape::Line => "line",
            Shape::Ring => "ring",
            Shape::Star => "star",
            Shape::Clique => "clique",
            Shape::Random => "random",
            Shape::BinaryTree => "bintree",
            Shape::Lollipop => "lollipop",
            Shape::TwoCliques => "2cliques",
        }
    }

    /// Build this shape's edge set over the given ids.
    pub fn edges(&self, ids: &[NodeId], rng: &mut impl Rng) -> Vec<(NodeId, NodeId)> {
        match self {
            Shape::Line => line(ids),
            Shape::Ring => ring(ids),
            Shape::Star => star(ids),
            Shape::Clique => clique(ids),
            Shape::Random => random_connected(ids, ids.len() / 2, rng),
            Shape::BinaryTree => binary_tree(ids),
            Shape::Lollipop => lollipop(ids),
            Shape::TwoCliques => two_cliques(ids),
        }
    }
}

/// The seeded host placement every harness fixture shares: `count`
/// distinct ids in `[0, n_cap)` drawn by [`random_ids`] from an RNG seeded
/// with `seed` xor a fixed salt. The RNG comes back so [`Shape::edges`]
/// continues the same stream, which is how a seed fixes both the ids and
/// the initial edges of a run.
pub fn place_hosts(count: usize, n_cap: u32, seed: u64) -> (Vec<NodeId>, SmallRng) {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xA5A5_5A5A);
    let ids = random_ids(count, n_cap, &mut rng);
    (ids, rng)
}

/// Sample `n` distinct node identifiers from `[0, n_cap)`.
///
/// # Panics
/// `n` must be at most `n_cap`.
pub fn random_ids(n: usize, n_cap: u32, rng: &mut impl Rng) -> Vec<NodeId> {
    assert!(
        n as u32 <= n_cap,
        "cannot draw {n} distinct ids from [0, {n_cap})"
    );
    // Partial Fisher–Yates over the id space for small n; rejection sampling
    // would also do but this is exact and allocation-bounded.
    if n_cap as usize <= 4 * n {
        let mut pool: Vec<NodeId> = (0..n_cap).collect();
        pool.shuffle(rng);
        pool.truncate(n);
        pool.sort_unstable();
        pool
    } else {
        let mut set = std::collections::BTreeSet::new();
        while set.len() < n {
            set.insert(rng.gen_range(0..n_cap));
        }
        set.into_iter().collect()
    }
}

fn sorted(ids: &[NodeId]) -> Vec<NodeId> {
    let mut v = ids.to_vec();
    v.sort_unstable();
    v
}

/// Path through the ids in sorted order.
pub fn line(ids: &[NodeId]) -> Vec<(NodeId, NodeId)> {
    let s = sorted(ids);
    s.windows(2).map(|w| (w[0], w[1])).collect()
}

/// Cycle through the ids in sorted order.
pub fn ring(ids: &[NodeId]) -> Vec<(NodeId, NodeId)> {
    let s = sorted(ids);
    let mut es = line(&s);
    if s.len() > 2 {
        es.push((s[0], *s.last().unwrap()));
    }
    es
}

/// Star centered on the minimum id.
pub fn star(ids: &[NodeId]) -> Vec<(NodeId, NodeId)> {
    let s = sorted(ids);
    s[1..].iter().map(|&v| (s[0], v)).collect()
}

/// Complete graph.
pub fn clique(ids: &[NodeId]) -> Vec<(NodeId, NodeId)> {
    let s = sorted(ids);
    let mut es = Vec::with_capacity(s.len() * (s.len() - 1) / 2);
    for i in 0..s.len() {
        for j in i + 1..s.len() {
            es.push((s[i], s[j]));
        }
    }
    es
}

/// Balanced binary tree over the sorted ids (heap indexing).
pub fn binary_tree(ids: &[NodeId]) -> Vec<(NodeId, NodeId)> {
    let s = sorted(ids);
    (1..s.len()).map(|i| (s[(i - 1) / 2], s[i])).collect()
}

/// Uniform random spanning tree (random attachment order) plus `extra`
/// uniformly random non-tree edges, in the order they were accepted — a
/// function of the RNG stream alone, so equal seeds give equal `Vec`s.
pub fn random_connected(ids: &[NodeId], extra: usize, rng: &mut impl Rng) -> Vec<(NodeId, NodeId)> {
    let mut order = ids.to_vec();
    order.shuffle(rng);
    let mut es: Vec<(NodeId, NodeId)> = Vec::with_capacity(order.len() - 1 + extra);
    for i in 1..order.len() {
        let j = rng.gen_range(0..i);
        let (a, b) = (order[i].min(order[j]), order[i].max(order[j]));
        es.push((a, b));
    }
    let want = es.len() + extra;
    let mut set: std::collections::HashSet<(NodeId, NodeId)> = es.iter().copied().collect();
    let mut attempts = 0;
    while es.len() < want && attempts < 20 * extra + 100 {
        attempts += 1;
        let a = *order.choose(rng).unwrap();
        let b = *order.choose(rng).unwrap();
        if a != b && set.insert((a.min(b), a.max(b))) {
            es.push((a.min(b), a.max(b)));
        }
    }
    es
}

/// Clique on the first half of the sorted ids, a path on the rest, bridged.
pub fn lollipop(ids: &[NodeId]) -> Vec<(NodeId, NodeId)> {
    let s = sorted(ids);
    let half = s.len() / 2;
    let mut es = clique(&s[..half.max(1)]);
    es.extend(line(&s[half.saturating_sub(1)..]));
    es.sort_unstable();
    es.dedup();
    es
}

/// Two cliques on each half of the sorted ids joined by one bridge edge.
pub fn two_cliques(ids: &[NodeId]) -> Vec<(NodeId, NodeId)> {
    let s = sorted(ids);
    let half = s.len() / 2;
    let mut es = clique(&s[..half.max(1)]);
    es.extend(clique(&s[half.max(1)..]));
    if half >= 1 && half < s.len() {
        es.push((s[half - 1], s[half]));
    }
    es.sort_unstable();
    es.dedup();
    es
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn check_connected(ids: &[NodeId], edges: Vec<(NodeId, NodeId)>) {
        let t = Topology::new(ids.iter().copied(), edges);
        assert!(t.is_connected(), "shape must be connected");
        assert!(t.check_invariants());
    }

    #[test]
    fn all_shapes_connected() {
        let mut rng = SmallRng::seed_from_u64(42);
        let ids = random_ids(33, 256, &mut rng);
        for shape in Shape::ALL {
            let es = shape.edges(&ids, &mut rng);
            check_connected(&ids, es);
        }
    }

    #[test]
    fn random_ids_distinct_and_sorted() {
        let mut rng = SmallRng::seed_from_u64(1);
        for (n, cap) in [(10usize, 16u32), (100, 1024), (16, 16)] {
            let ids = random_ids(n, cap, &mut rng);
            assert_eq!(ids.len(), n);
            assert!(ids.windows(2).all(|w| w[0] < w[1]));
            assert!(ids.iter().all(|&v| v < cap));
        }
    }

    #[test]
    fn clique_edge_count() {
        let es = clique(&[1, 2, 3, 4, 5]);
        assert_eq!(es.len(), 10);
    }

    #[test]
    fn star_degrees() {
        let ids = [4u32, 9, 2, 7];
        let t = Topology::new(ids, star(&ids));
        assert_eq!(t.degree(2), 3);
        assert_eq!(t.degree(9), 1);
    }

    #[test]
    fn ring_has_n_edges() {
        let ids: Vec<NodeId> = (0..10).collect();
        assert_eq!(ring(&ids).len(), 10);
    }

    #[test]
    fn random_connected_has_extra_edges() {
        let mut rng = SmallRng::seed_from_u64(5);
        let ids: Vec<NodeId> = (0..50).collect();
        let es = random_connected(&ids, 25, &mut rng);
        assert!(es.len() >= 49, "spanning tree at minimum");
        assert!(es.len() <= 74);
        check_connected(&ids, es);
    }

    /// The edge list is a function of the seed, order included: the
    /// topology's block layout — and so its byte count — follows it.
    #[test]
    fn random_connected_is_a_function_of_the_seed() {
        let ids: Vec<NodeId> = (0..64).collect();
        let draw = || random_connected(&ids, 32, &mut SmallRng::seed_from_u64(3));
        assert_eq!(draw(), draw());
    }

    #[test]
    fn two_cliques_is_barbell() {
        let ids: Vec<NodeId> = (0..8).collect();
        let t = Topology::new(ids.iter().copied(), two_cliques(&ids));
        assert!(t.is_connected());
        assert_eq!(t.degree(0), 3);
        assert_eq!(t.degree(3), 4); // bridge endpoint
    }
}
