//! The `Chord(N)` guest network (Definition 1 of the paper).
//!
//! > For any `N ∈ ℕ`, let `Chord(N)` be a graph with nodes `[N]` and edge set
//! > defined as follows. For every node `i`, `0 ≤ i < N`, add to the edge set
//! > `(i, j)`, where `j = (i + 2^k) mod N`. When `j = (i + 2^k) mod N`, we say
//! > that `j` is the *k-th finger* of `i`.
//!
//! The paper's Definition 1 bounds `k < log N − 1` while Algorithm 1 executes
//! waves `k = 1 .. log N − 1` after the 0th wave, i.e. `log N` waves in total.
//! Both variants are provided: [`Chord::paper`] follows Definition 1 verbatim
//! (`log N − 1` fingers) and [`Chord::classic`] uses the conventional Chord
//! table of `log N` fingers (top finger `N/2`). The experiment harness reports
//! which variant it used; the asymptotic claims are identical for both.

use crate::{log2_exact, Id};

/// Static description of a `Chord(N)` guest network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Chord {
    n: u32,
    fingers: u32,
}

impl Chord {
    /// `Chord(N)` with the finger count of Definition 1: `log N − 1` fingers
    /// (`k ∈ [0, log N − 1)`).
    ///
    /// # Panics
    /// `n` must be a power of two with `n ≥ 4`.
    pub fn paper(n: u32) -> Self {
        assert!(n >= 4, "Chord(N) needs N ≥ 4, got {n}");
        let m = log2_exact(n);
        Self { n, fingers: m - 1 }
    }

    /// `Chord(N)` with the conventional `log N` fingers (top finger `N/2`).
    ///
    /// # Panics
    /// `n` must be a power of two with `n ≥ 4`.
    pub fn classic(n: u32) -> Self {
        assert!(n >= 4, "Chord(N) needs N ≥ 4, got {n}");
        let m = log2_exact(n);
        Self { n, fingers: m }
    }

    /// `Chord(N)` with an explicit finger count `1 ≤ fingers ≤ log N`.
    pub fn with_fingers(n: u32, fingers: u32) -> Self {
        assert!(n >= 4);
        let m = log2_exact(n);
        assert!(
            (1..=m).contains(&fingers),
            "finger count {fingers} out of range 1..={m}"
        );
        Self { n, fingers }
    }

    /// Number of guest nodes `N`.
    pub fn n(&self) -> u32 {
        self.n
    }

    /// Number of fingers per node (`log N` classic, `log N − 1` per Def. 1).
    pub fn finger_count(&self) -> u32 {
        self.fingers
    }

    /// The finger offsets `2^k`, `k < finger_count()`: `Chord(N)` is the
    /// circulant graph on `[0, N)` with these offsets.
    pub fn offsets(&self) -> Vec<u32> {
        (0..self.fingers).map(|k| 1u32 << k).collect()
    }

    /// The *k-th finger* of node `i`: `(i + 2^k) mod N`.
    ///
    /// # Panics
    /// `k` must be below [`Chord::finger_count`] and `i < N`.
    pub fn finger(&self, i: Id, k: u32) -> Id {
        assert!(i < self.n, "guest {i} out of range [0, {})", self.n);
        assert!(k < self.fingers, "finger index {k} out of range");
        (i + (1u32 << k)) % self.n
    }

    /// The node whose k-th finger is `j`, i.e. `(j − 2^k) mod N`.
    pub fn finger_source(&self, j: Id, k: u32) -> Id {
        assert!(j < self.n);
        assert!(k < self.fingers);
        (j + self.n - ((1u32 << k) % self.n)) % self.n
    }

    /// The ideal *undirected* neighborhood of guest `i` in `Chord(N)`:
    /// out-fingers `i + 2^k` plus in-fingers `i − 2^k` (mod `N`), deduplicated
    /// and sorted.
    pub fn neighborhood(&self, i: Id) -> Vec<Id> {
        let mut out: Vec<Id> = Vec::with_capacity(2 * self.fingers as usize);
        for k in 0..self.fingers {
            out.push(self.finger(i, k));
            out.push(self.finger_source(i, k));
        }
        out.sort_unstable();
        out.dedup();
        out.retain(|&j| j != i);
        out
    }

    /// The complete undirected edge set of `Chord(N)`, each edge once with
    /// `(a, b)`, `a < b`, sorted lexicographically.
    pub fn edges(&self) -> Vec<(Id, Id)> {
        let mut es = Vec::with_capacity((self.n as usize) * self.fingers as usize);
        for i in 0..self.n {
            for k in 0..self.fingers {
                let j = self.finger(i, k);
                if j != i {
                    es.push((i.min(j), i.max(j)));
                }
            }
        }
        es.sort_unstable();
        es.dedup();
        es
    }

    /// Degree of guest `i` in the undirected `Chord(N)` graph.
    pub fn degree(&self, i: Id) -> usize {
        self.neighborhood(i).len()
    }

    /// Clockwise (increasing-id) distance from `a` to `b` on the ring.
    pub fn ring_distance(&self, a: Id, b: Id) -> u32 {
        (b + self.n - a) % self.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finger_arithmetic_small() {
        let c = Chord::classic(8); // fingers 1, 2, 4
        assert_eq!(c.finger_count(), 3);
        assert_eq!(c.finger(0, 0), 1);
        assert_eq!(c.finger(0, 1), 2);
        assert_eq!(c.finger(0, 2), 4);
        assert_eq!(c.finger(6, 1), 0); // wraparound
        assert_eq!(c.finger(7, 0), 0);
    }

    #[test]
    fn paper_variant_has_one_fewer_finger() {
        let c = Chord::paper(8);
        assert_eq!(c.finger_count(), 2);
        let c = Chord::paper(1024);
        assert_eq!(c.finger_count(), 9);
    }

    #[test]
    fn finger_source_inverts_finger() {
        let c = Chord::classic(64);
        for i in 0..64 {
            for k in 0..c.finger_count() {
                let j = c.finger(i, k);
                assert_eq!(c.finger_source(j, k), i);
            }
        }
    }

    #[test]
    fn neighborhood_is_symmetric() {
        let c = Chord::classic(32);
        for i in 0..32 {
            for &j in &c.neighborhood(i) {
                assert!(
                    c.neighborhood(j).contains(&i),
                    "asymmetry: {j} not listing {i}"
                );
            }
        }
    }

    #[test]
    fn edge_count_matches_formula() {
        // For N ≥ 4 with classic fingers, the edge (i, i + N/2) is shared by the
        // top finger of both endpoints, so |E| = N·log N − N/2.
        let c = Chord::classic(16);
        assert_eq!(c.edges().len(), 16 * 4 - 8);
        let c = Chord::classic(64);
        assert_eq!(c.edges().len(), 64 * 6 - 32);
    }

    #[test]
    fn paper_edge_count_matches_formula() {
        // With k < log N − 1 no finger is its own inverse, so |E| = N·(log N − 1).
        let c = Chord::paper(16);
        assert_eq!(c.edges().len(), 16 * 3);
    }

    #[test]
    fn ring_distance_wraps() {
        let c = Chord::classic(16);
        assert_eq!(c.ring_distance(14, 2), 4);
        assert_eq!(c.ring_distance(2, 14), 12);
        assert_eq!(c.ring_distance(5, 5), 0);
    }

    #[test]
    fn degree_is_2logn_minus_overlap() {
        let c = Chord::classic(32); // 5 fingers; in+out = 10, overlap at ±1? none; antipode shared
        for i in 0..32 {
            // out fingers 5, in fingers 5, antipode i+16 counted twice -> 9
            assert_eq!(c.degree(i), 9, "degree of {i}");
        }
    }
}
