//! Sorted inline maps and sets for small, per-node protocol state.
//!
//! The protocol crates keep O(log N)-sized views per node: neighbor beacon
//! tables, phase views, report bitmaps, merge decision sets. At that size a
//! `HashMap`/`HashSet` pays for itself three times over — a heap-heavy
//! layout (one allocation per table plus per-entry hashing scatter), ~48
//! bytes of per-entry overhead, and *non-canonical iteration order* that
//! forces every snapshot [`Persist`] impl to collect-and-sort before
//! writing. A million hosts hold a million of these tables.
//!
//! [`CompactMap`] and [`CompactSet`] store entries in a single sorted
//! `Vec`: lookups are O(log n) binary searches, inserts/removes are O(n)
//! memmoves (cheap at n ≤ a few dozen, the protocol regime), iteration is
//! always in ascending key order — which is exactly the canonical order
//! snapshots need, so `Persist` falls out for free, byte-identical to the
//! old sorted-HashMap encodings — and the whole table is one contiguous
//! allocation that prefetches well during the emit phase.
//!
//! The API mirrors the `std` map/set surface the protocols actually use
//! (`insert`, `remove`, `get`, `retain`, iteration); behavioral equivalence
//! with `BTreeMap`/`BTreeSet` is pinned by a model-based randomized test
//! below.

use crate::snapshot::{Persist, Reader, SnapshotError, Writer};

/// A map stored as a single sorted `Vec<(K, V)>`. See the module docs for
/// when (and why) this beats hashing. Iteration is always in ascending key
/// order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompactMap<K, V> {
    entries: Vec<(K, V)>,
}

impl<K, V> Default for CompactMap<K, V> {
    fn default() -> Self {
        Self {
            entries: Vec::new(),
        }
    }
}

impl<K: Ord, V> CompactMap<K, V> {
    /// An empty map (no allocation until the first insert).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True iff the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Position of `k`'s entry, or where it would be inserted.
    fn find(&self, k: &K) -> Result<usize, usize> {
        self.entries.binary_search_by(|(e, _)| e.cmp(k))
    }

    /// Insert `k → v`, returning the previous value of `k` if any.
    pub fn insert(&mut self, k: K, v: V) -> Option<V> {
        match self.find(&k) {
            Ok(i) => Some(std::mem::replace(&mut self.entries[i].1, v)),
            Err(i) => {
                self.entries.insert(i, (k, v));
                None
            }
        }
    }

    /// [`CompactMap::insert`] that also reports where `k`'s entry now sits
    /// in [`CompactMap::as_slice`] — one search, for callers that maintain
    /// a summary over neighbouring entries.
    pub fn insert_full(&mut self, k: K, v: V) -> (usize, Option<V>) {
        match self.find(&k) {
            Ok(i) => (i, Some(std::mem::replace(&mut self.entries[i].1, v))),
            Err(i) => {
                self.entries.insert(i, (k, v));
                (i, None)
            }
        }
    }

    /// Remove `k`, returning its value if it was present.
    pub fn remove(&mut self, k: &K) -> Option<V> {
        self.find(k).ok().map(|i| self.entries.remove(i).1)
    }

    /// The value of `k`, if present.
    pub fn get(&self, k: &K) -> Option<&V> {
        self.find(k).ok().map(|i| &self.entries[i].1)
    }

    /// Mutable access to the value of `k`, if present.
    pub fn get_mut(&mut self, k: &K) -> Option<&mut V> {
        self.find(k).ok().map(|i| &mut self.entries[i].1)
    }

    /// True iff `k` has an entry.
    pub fn contains_key(&self, k: &K) -> bool {
        self.find(k).is_ok()
    }

    /// Iterate `(key, value)` pairs in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }

    /// The entries as one slice, in ascending key order — for callers that
    /// merge-join the map against another sorted sequence instead of
    /// binary-searching it key by key.
    pub fn as_slice(&self) -> &[(K, V)] {
        &self.entries
    }

    /// Iterate values mutably, in ascending key order.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.entries.iter_mut().map(|(_, v)| v)
    }

    /// Keep only the entries for which `pred` holds.
    pub fn retain(&mut self, mut pred: impl FnMut(&K, &mut V) -> bool) {
        self.entries.retain_mut(|(k, v)| pred(k, v));
    }

    /// Drop all entries, keeping the allocation.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Merge `other` into `self`: entries of `other` win on key collision
    /// (the `extend` convention).
    pub fn merge(&mut self, other: Self) {
        for (k, v) in other.entries {
            self.insert(k, v);
        }
    }

    /// Heap bytes held by the backing storage (capacity, not length) — the
    /// `mem_footprint` accounting hook.
    pub fn heap_bytes(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<(K, V)>()
    }

    /// The map over `entries` as they are, allocation and capacity
    /// included, or `None` unless their keys strictly ascend (a decoder
    /// builds its map this way).
    pub fn from_sorted(entries: Vec<(K, V)>) -> Option<Self> {
        let ascending = entries.windows(2).all(|w| w[0].0 < w[1].0);
        ascending.then_some(Self { entries })
    }
}

impl<K: Ord, V> std::ops::Index<&K> for CompactMap<K, V> {
    type Output = V;
    /// Panics when `k` has no entry (the `HashMap` indexing convention).
    fn index(&self, k: &K) -> &V {
        self.get(k).expect("no entry found for key")
    }
}

impl<K: Ord, V> FromIterator<(K, V)> for CompactMap<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        let mut m = Self::new();
        for (k, v) in iter {
            m.insert(k, v);
        }
        m
    }
}

impl<K: Ord + Persist, V: Persist> Persist for CompactMap<K, V> {
    #[inline]
    fn save(&self, w: &mut Writer) {
        // Already in ascending key order: the canonical snapshot encoding
        // with no collect-and-sort step.
        self.entries.save(w);
    }
    #[inline]
    fn load(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Self::from_sorted(Vec::<(K, V)>::load(r)?)
            .ok_or_else(|| SnapshotError::Corrupt("compact map keys not strictly ascending".into()))
    }
}

/// A set stored as a single sorted `Vec<T>` — [`CompactMap`] without
/// values. Iteration is always in ascending order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CompactSet<T> {
    items: Vec<T>,
}

impl<T: Ord> CompactSet<T> {
    /// An empty set (no allocation until the first insert).
    pub fn new() -> Self {
        Self { items: Vec::new() }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True iff the set is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Insert `v`; returns true iff it was not already present.
    pub fn insert(&mut self, v: T) -> bool {
        match self.items.binary_search(&v) {
            Ok(_) => false,
            Err(i) => {
                self.items.insert(i, v);
                true
            }
        }
    }

    /// Remove `v`; returns true iff it was present.
    pub fn remove(&mut self, v: &T) -> bool {
        match self.items.binary_search(v) {
            Ok(i) => {
                self.items.remove(i);
                true
            }
            Err(_) => false,
        }
    }

    /// True iff `v` is in the set.
    pub fn contains(&self, v: &T) -> bool {
        self.items.binary_search(v).is_ok()
    }

    /// Iterate elements in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.items.iter()
    }

    /// Keep only the elements for which `pred` holds.
    pub fn retain(&mut self, pred: impl FnMut(&T) -> bool) {
        self.items.retain(pred);
    }

    /// Drop all elements, keeping the allocation.
    pub fn clear(&mut self) {
        self.items.clear();
    }

    /// Merge `other` into `self` (set union).
    pub fn merge(&mut self, other: Self) {
        for v in other.items {
            self.insert(v);
        }
    }

    /// Heap bytes held by the backing storage (capacity, not length).
    pub fn heap_bytes(&self) -> usize {
        self.items.capacity() * std::mem::size_of::<T>()
    }
}

impl<T: Ord> FromIterator<T> for CompactSet<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut s = Self::new();
        for v in iter {
            s.insert(v);
        }
        s
    }
}

impl<T: Ord + Persist> Persist for CompactSet<T> {
    #[inline]
    fn save(&self, w: &mut Writer) {
        self.items.save(w);
    }
    #[inline]
    fn load(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let items = Vec::<T>::load(r)?;
        if !items.windows(2).all(|w| w[0] < w[1]) {
            return Err(SnapshotError::Corrupt(
                "compact set items not strictly ascending".into(),
            ));
        }
        Ok(Self { items })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::collections::{BTreeMap, BTreeSet};

    /// Model-based equivalence: drive a [`CompactMap`] and the `BTreeMap`
    /// reference through identical random op sequences (insert, remove,
    /// get, retain, merge) and demand identical return values, lengths, and
    /// iteration order after every op. Seeded, so a failure replays.
    #[test]
    fn map_matches_btreemap_model_under_random_ops() {
        for seed in 0..8u64 {
            let mut rng = SmallRng::seed_from_u64(0xC0FFEE ^ seed);
            let mut sut: CompactMap<u32, u64> = CompactMap::new();
            let mut model: BTreeMap<u32, u64> = BTreeMap::new();
            for step in 0..600 {
                let k = rng.gen_range(0..48u32);
                let v = rng.gen::<u64>() >> 32;
                match rng.gen_range(0..11u32) {
                    0..=3 => assert_eq!(sut.insert(k, v), model.insert(k, v), "step {step}"),
                    10 => {
                        let (i, old) = sut.insert_full(k, v);
                        assert_eq!(old, model.insert(k, v), "step {step}");
                        assert_eq!(sut.as_slice()[i], (k, v), "step {step}");
                    }
                    4..=5 => assert_eq!(sut.remove(&k), model.remove(&k), "step {step}"),
                    6 => {
                        assert_eq!(sut.get(&k), model.get(&k), "step {step}");
                        assert_eq!(sut.contains_key(&k), model.contains_key(&k));
                    }
                    7 => {
                        if let (Some(a), Some(b)) = (sut.get_mut(&k), model.get_mut(&k)) {
                            *a ^= 0x55;
                            *b ^= 0x55;
                        }
                    }
                    8 => {
                        let bit = rng.gen_range(0..4u64);
                        sut.retain(|k, v| !(*k as u64 + *v + bit).is_multiple_of(3));
                        model.retain(|k, v| !(*k as u64 + *v + bit).is_multiple_of(3));
                    }
                    _ => {
                        let other: Vec<(u32, u64)> = (0..rng.gen_range(0..6))
                            .map(|_| (rng.gen_range(0..48), v))
                            .collect();
                        sut.merge(other.iter().copied().collect());
                        model.extend(other.iter().copied());
                    }
                }
                assert_eq!(sut.len(), model.len(), "step {step}");
                assert!(
                    sut.iter()
                        .map(|(k, v)| (*k, *v))
                        .eq(model.iter().map(|(k, v)| (*k, *v))),
                    "iteration order diverged from the sorted reference at step {step}"
                );
            }
        }
    }

    /// The same model equivalence for [`CompactSet`] against `BTreeSet`.
    #[test]
    fn set_matches_btreeset_model_under_random_ops() {
        for seed in 0..8u64 {
            let mut rng = SmallRng::seed_from_u64(0xBEEF ^ seed);
            let mut sut: CompactSet<u32> = CompactSet::new();
            let mut model: BTreeSet<u32> = BTreeSet::new();
            for step in 0..600 {
                let v = rng.gen_range(0..48u32);
                match rng.gen_range(0..8u32) {
                    0..=3 => assert_eq!(sut.insert(v), model.insert(v), "step {step}"),
                    4..=5 => assert_eq!(sut.remove(&v), model.remove(&v), "step {step}"),
                    6 => {
                        sut.retain(|x| x % 5 != v % 5);
                        model.retain(|x| x % 5 != v % 5);
                    }
                    _ => {
                        let other: Vec<u32> = (0..rng.gen_range(0..6))
                            .map(|_| rng.gen_range(0..48))
                            .collect();
                        sut.merge(other.iter().copied().collect());
                        model.extend(other.iter().copied());
                    }
                }
                assert_eq!(sut.contains(&v), model.contains(&v));
                assert_eq!(sut.len(), model.len(), "step {step}");
                assert!(
                    sut.iter().copied().eq(model.iter().copied()),
                    "iteration order diverged at step {step}"
                );
            }
        }
    }

    /// Persist round-trips byte-identically (save → load → save), and loads
    /// reject out-of-order or duplicate keys (a corrupt payload must not
    /// build a map whose binary searches silently fail).
    #[test]
    fn persist_roundtrip_and_order_rejection() {
        let m: CompactMap<u32, u64> = [(9u32, 1u64), (3, 2), (7, 3)].into_iter().collect();
        let mut w = Writer::new();
        m.save(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let back = CompactMap::<u32, u64>::load(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back, m);
        let mut w2 = Writer::new();
        back.save(&mut w2);
        assert_eq!(w2.into_bytes(), bytes, "save∘load∘save is byte-stable");

        // Duplicate key in the payload → Corrupt.
        let mut w = Writer::new();
        w.seq(2);
        w.u32(5);
        w.u64(0);
        w.u32(5);
        w.u64(1);
        let bytes = w.into_bytes();
        assert!(matches!(
            CompactMap::<u32, u64>::load(&mut Reader::new(&bytes)),
            Err(SnapshotError::Corrupt(_))
        ));

        let s: CompactSet<u32> = [4u32, 1, 8].into_iter().collect();
        let mut w = Writer::new();
        s.save(&mut w);
        let bytes = w.into_bytes();
        let back = CompactSet::<u32>::load(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(back, s);
        // Descending items in the payload → Corrupt.
        let mut w = Writer::new();
        w.seq(2);
        w.u32(8);
        w.u32(4);
        let bytes = w.into_bytes();
        assert!(matches!(
            CompactSet::<u32>::load(&mut Reader::new(&bytes)),
            Err(SnapshotError::Corrupt(_))
        ));
    }
}
