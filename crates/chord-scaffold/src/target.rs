//! The generalized **network scaffolding** pattern (Section 6).
//!
//! A target topology pluggable into the scaffolding protocol must be
//! *triangle-inductive* over the scaffold: every new guest edge `(x, y)` of
//! wave `k` must have a *witness* guest `a` already adjacent to both `x` and
//! `y` (via scaffold edges or earlier waves), because the overlay model only
//! permits a node to connect two of its existing neighbors. Chord is the
//! paper's instance: with fingers `0..k` present, the `k+1` finger of `c0` is
//! created by `b` where `b` is the k-finger of `c0` and `c1` the k-finger of
//! `b` (Section 4.3).
//!
//! The trait packages exactly the components Section 6 lists for the target
//! side of the pattern: the wave count, the per-guest feedback action, and
//! the final edge set (for the local/global checks).

use overlay::chord::Chord;
use overlay::Id;
use ssim::snapshot::{Persist, Reader, SnapshotError, Writer};

/// A target guest topology buildable from the CBT scaffold by inductive PIF
/// waves (the paper's Algorithm 1 generalized).
pub trait InductiveTarget: Clone + 'static {
    /// Short name for logs and tables.
    fn name(&self) -> &'static str;

    /// Guest capacity `N`.
    fn n(&self) -> u32;

    /// Number of PIF waves (Chord: `log N` — wave 0 builds the base ring,
    /// wave `k` the k-th fingers).
    fn waves(&self) -> u32;

    /// True iff wave 0 must close the guest ring by forwarding edges to
    /// guests `0` and `N − 1` up the tree (Algorithm 1 lines 6–7).
    fn closes_ring(&self) -> bool;

    /// The guest edge created by the feedback action of wave `k` witnessed
    /// by guest `a` (both endpoints are already guest-adjacent to `a`).
    /// `None` when the wave adds no edge at `a` (e.g. Chord's wave 0, whose
    /// edges pre-exist in the scaffold embedding).
    fn feedback_edge(&self, a: Id, k: u32) -> Option<(Id, Id)>;

    /// The complete guest edge set of the target (for legality checking).
    fn target_edges(&self) -> Vec<(Id, Id)>;

    /// The target neighborhood of guest `a` (both edge directions), used to
    /// decide which host edges the final embedding requires.
    fn guest_neighbors(&self, a: Id) -> Vec<Id>;
}

/// The paper's target: `Chord(N)` (Definition 1 / Section 4.2).
#[derive(Debug, Clone, Copy)]
pub struct ChordTarget {
    chord: Chord,
}

impl ChordTarget {
    /// Chord with the conventional `log N` fingers.
    pub fn classic(n: u32) -> Self {
        Self {
            chord: Chord::classic(n),
        }
    }

    /// Chord with Definition 1's `log N − 1` fingers.
    pub fn paper(n: u32) -> Self {
        Self {
            chord: Chord::paper(n),
        }
    }

    /// The underlying finger table description.
    pub fn chord(&self) -> &Chord {
        &self.chord
    }
}

impl InductiveTarget for ChordTarget {
    fn name(&self) -> &'static str {
        "chord"
    }

    fn n(&self) -> u32 {
        self.chord.n()
    }

    fn waves(&self) -> u32 {
        self.chord.finger_count()
    }

    fn closes_ring(&self) -> bool {
        true
    }

    fn feedback_edge(&self, a: Id, k: u32) -> Option<(Id, Id)> {
        if k == 0 {
            // 0th fingers pre-exist in the scaffold (same host or successor
            // host); only the ring closure is new, handled by the wave walk.
            return None;
        }
        let n = self.chord.n();
        let step = 1u32 << (k - 1);
        // b0's (k−1)-finger is a; a's (k−1)-finger is b1. The new edge
        // (b0, b1) is b0's k-th finger.
        let b0 = (a + n - step % n) % n;
        let b1 = (a + step) % n;
        Some((b0, b1))
    }

    fn target_edges(&self) -> Vec<(Id, Id)> {
        self.chord.edges()
    }

    fn guest_neighbors(&self, a: Id) -> Vec<Id> {
        self.chord.neighborhood(a)
    }
}

/// A truncated Chord: only the first `fingers` finger levels. Demonstrates
/// the pattern's pluggability (Section 6's "other target topologies") and
/// provides the ablation target for the finger-count experiments.
#[derive(Debug, Clone, Copy)]
pub struct TruncatedChordTarget {
    chord: Chord,
}

impl TruncatedChordTarget {
    /// `Chord(N)` truncated to `fingers` fingers (`1 ≤ fingers ≤ log N`).
    pub fn new(n: u32, fingers: u32) -> Self {
        Self {
            chord: Chord::with_fingers(n, fingers),
        }
    }
}

impl InductiveTarget for TruncatedChordTarget {
    fn name(&self) -> &'static str {
        "chord-truncated"
    }

    fn n(&self) -> u32 {
        self.chord.n()
    }

    fn waves(&self) -> u32 {
        self.chord.finger_count()
    }

    fn closes_ring(&self) -> bool {
        true
    }

    fn feedback_edge(&self, a: Id, k: u32) -> Option<(Id, Id)> {
        if k == 0 {
            return None;
        }
        let n = self.chord.n();
        let step = 1u32 << (k - 1);
        Some(((a + n - step % n) % n, (a + step) % n))
    }

    fn target_edges(&self) -> Vec<(Id, Id)> {
        self.chord.edges()
    }

    fn guest_neighbors(&self, a: Id) -> Vec<Id> {
        self.chord.neighborhood(a)
    }
}

/// Both chord targets persist as `(n, fingers)`, read back with the
/// validation `Chord::with_fingers` asserts turned into
/// [`SnapshotError::Corrupt`] instead of a panic.
macro_rules! persist_chord_target {
    ($($ty:ident),+) => {$(
        impl Persist for $ty {
            fn save(&self, w: &mut Writer) {
                w.u32(self.chord.n());
                w.u32(self.chord.finger_count());
            }
            fn load(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
                let n = r.u32()?;
                let fingers = r.u32()?;
                if n < 4 || !n.is_power_of_two() {
                    return Err(SnapshotError::Corrupt(format!("Chord n = {n}")));
                }
                let m = n.trailing_zeros();
                if !(1..=m).contains(&fingers) {
                    return Err(SnapshotError::Corrupt(format!(
                        "Chord finger count {fingers} out of range 1..={m}"
                    )));
                }
                Ok(Self {
                    chord: Chord::with_fingers(n, fingers),
                })
            }
        }
    )+};
}
persist_chord_target!(ChordTarget, TruncatedChordTarget);

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// The inductive waves must generate exactly the target edge set: the
    /// scaffold-provided ring (wave 0) plus every feedback edge.
    #[test]
    fn chord_waves_generate_target() {
        for n in [8u32, 32, 256] {
            let t = ChordTarget::classic(n);
            let mut built: HashSet<(Id, Id)> = HashSet::new();
            // Wave 0 output: the base ring.
            for i in 0..n {
                let j = (i + 1) % n;
                built.insert((i.min(j), i.max(j)));
            }
            for k in 1..t.waves() {
                for a in 0..n {
                    if let Some((x, y)) = t.feedback_edge(a, k) {
                        assert_ne!(x, y);
                        built.insert((x.min(y), x.max(y)));
                    }
                }
            }
            let expect: HashSet<(Id, Id)> = t.target_edges().into_iter().collect();
            assert_eq!(built, expect, "n={n}");
        }
    }

    /// Witness property: the endpoints of each wave-k feedback edge are both
    /// guest-adjacent to the witness via fingers strictly below k.
    #[test]
    fn feedback_edges_have_valid_witness() {
        let n = 64u32;
        let t = ChordTarget::classic(n);
        for k in 1..t.waves() {
            let step = 1u32 << (k - 1);
            for a in 0..n {
                let (b0, b1) = t.feedback_edge(a, k).unwrap();
                // (b0, a) is b0's (k−1)-finger, (a, b1) is a's (k−1)-finger.
                assert_eq!((b0 + step) % n, a);
                assert_eq!((a + step) % n, b1);
            }
        }
    }

    #[test]
    fn truncated_chord_has_fewer_waves() {
        let t = TruncatedChordTarget::new(256, 3);
        assert_eq!(t.waves(), 3);
        let full = ChordTarget::classic(256);
        assert!(t.target_edges().len() < full.target_edges().len());
    }
}
