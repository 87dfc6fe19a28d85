//! Global legality for `Avatar(Chord)` (and generic targets), plus runtime
//! builders and the stabilization driver used by tests and experiments.

use crate::msg::Phase;
use crate::program::ScaffoldProgram;
use crate::target::{ChordTarget, InductiveTarget};
use avatar_cbt::legal::{boot, join_nonce, reboot};
use overlay::Avatar;
use ssim::{init::Shape, Config, NetModel, NodeId, Persist, Runtime, SnapshotError, Topology};

/// The exact host edge set of the legal `Avatar(target)`: the scaffold edges
/// (tree projection + successor line — "we maintain the scaffold edges after
/// the target network is built", Section 6) plus the projected target edges,
/// sorted and deduplicated.
///
/// Built from the hosts' ranges: the target's offsets are projected by
/// [`Avatar::project_circulant`], which emits its host edges sorted, and
/// merged with the sorted scaffold edges of
/// [`avatar_cbt::legal::scaffold_edges`]. No guest-level edge list is
/// built and the `E` host edges are never sorted as a whole:
/// `O(N + n·|offsets| + E)` for `n` hosts, plus the sort of the scaffold's
/// own few host edges per host. The `O(N)` is the host table of
/// [`Avatar::new`] and the scaffold's one tree descent.
pub fn expected_edges<T: InductiveTarget>(target: &T, ids: &[NodeId]) -> Vec<(NodeId, NodeId)> {
    legal_edges(target, &Avatar::new(target.n(), ids.iter().copied()))
}

/// [`expected_edges`] over an embedding already built.
fn legal_edges<T: InductiveTarget>(target: &T, av: &Avatar) -> Vec<(NodeId, NodeId)> {
    let scaffold = avatar_cbt::legal::scaffold_edges(av);
    let fingers = av.project_circulant(&target.offsets());
    // Merge the two sorted, duplicate-free lists.
    let mut out = Vec::with_capacity(scaffold.len() + fingers.len());
    let (mut a, mut b) = (scaffold.iter().peekable(), fingers.iter().peekable());
    while let (Some(&&x), Some(&&y)) = (a.peek(), b.peek()) {
        out.push(x.min(y));
        if x <= y {
            a.next();
        }
        if y <= x {
            b.next();
        }
    }
    out.extend(a.chain(b));
    out
}

/// True iff the topology and host states form the legal, silent
/// `Avatar(target)` network: every host in phase DONE with the final wave
/// completed, and the topology exactly the expected edge set.
pub fn is_legal<'a, T: InductiveTarget>(
    target: &T,
    topo: &Topology,
    hosts: impl Iterator<Item = &'a ScaffoldProgram<T>>,
) -> bool {
    // A run-to-legal asks every round and almost every answer is "some host
    // is not DONE yet": settle that before anything is sorted or allocated.
    let mut settled = Vec::new();
    for p in hosts {
        if p.core.phase != Phase::Done || p.core.last_wave != target.waves() as i64 - 1 {
            return false;
        }
        settled.push(p);
    }
    if settled.is_empty() {
        return false;
    }
    let av = Avatar::new(target.n(), settled.iter().map(|p| p.core.id()));
    for p in &settled {
        let r = av.range_of(p.core.id());
        if p.core.cbt.core.range != (r.lo, r.hi) {
            return false;
        }
    }
    topo.edges() == legal_edges(target, &av)
}

/// Runtime-level legality, judged against the target the hosts themselves
/// store.
pub fn runtime_is_legal<T: InductiveTarget>(rt: &Runtime<ScaffoldProgram<T>>) -> bool {
    let Some(&first) = rt.ids().first() else {
        return false; // all hosts departed: nothing legal to speak of
    };
    let target = &rt.program(first).core.target;
    is_legal(target, rt.topology(), rt.programs().map(|(_, p)| p))
}

/// The Avatar(Chord) legality goal — [`runtime_is_legal`] as the predicate
/// [`Runtime::run_monitored`] and scenario runs drive to.
pub fn legality() -> impl FnMut(&Runtime<ScaffoldProgram<ChordTarget>>) -> bool {
    runtime_is_legal
}

/// Legality goal for an arbitrary [`InductiveTarget`] instance (the
/// generalized scaffolding pattern of Section 6).
pub fn legality_for<T: InductiveTarget>(
    target: T,
) -> impl FnMut(&Runtime<ScaffoldProgram<T>>) -> bool {
    move |rt: &Runtime<ScaffoldProgram<T>>| {
        is_legal(&target, rt.topology(), rt.programs().map(|(_, p)| p))
    }
}

/// Build a scaffolding runtime for any [`InductiveTarget`] over the given
/// hosts and initial edges.
pub fn runtime<T: InductiveTarget>(
    target: T,
    ids: &[NodeId],
    edges: Vec<(NodeId, NodeId)>,
    cfg: Config,
) -> Runtime<ScaffoldProgram<T>> {
    runtime_with_net(target, ids, edges, cfg, NetModel::ideal())
}

/// [`runtime`] under a network-conditions model, through the one
/// construction recipe of both protocol crates ([`avatar_cbt::legal::boot`]):
/// besides the embedded CBT core's windows, the CHORD-phase switch/wave
/// timeouts scale with the model's delivery bound too. With
/// [`NetModel::ideal`] this is exactly [`runtime`].
pub fn runtime_with_net<T: InductiveTarget>(
    target: T,
    ids: &[NodeId],
    edges: Vec<(NodeId, NodeId)>,
    cfg: Config,
    model: NetModel,
) -> Runtime<ScaffoldProgram<T>> {
    boot(ids, edges, cfg, model, spawner(target, cfg.seed, model))
}

/// How a host boots — at construction, and when it joins mid-run or after
/// a restore: CBT phase, singleton cluster, seed-derived nonce, budgeted
/// for `model` ([`avatar_cbt::CbtCore::with_net`]).
fn spawner<T: InductiveTarget>(
    target: T,
    seed: u64,
    model: NetModel,
) -> impl Fn(NodeId) -> ScaffoldProgram<T> {
    move |v| ScaffoldProgram::new(v, target.clone(), join_nonce(seed, v)).with_net(model)
}

/// Restore a scaffolding runtime through the one restore recipe
/// ([`avatar_cbt::legal::reboot`]); joiners boot for the restored hosts'
/// target. `cfg` is not read: every setting comes from the snapshot. It is
/// kept for `crates/bench/src/bin/benchmark`, which still passes one;
/// ROADMAP item 5(b) removes it.
pub fn restore_runtime<T: InductiveTarget + Persist>(
    bytes: &[u8],
    cfg: Config,
) -> Result<Runtime<ScaffoldProgram<T>>, SnapshotError> {
    reboot(bytes, cfg, |p: &ScaffoldProgram<T>, seed, model| {
        spawner(p.core.target.clone(), seed, model)
    })
}

/// Build a scaffolding runtime from a named initial shape with `count`
/// hosts placed by [`ssim::init::place_hosts`].
pub fn runtime_from_shape<T: InductiveTarget>(
    target: T,
    count: usize,
    shape: Shape,
    cfg: Config,
) -> Runtime<ScaffoldProgram<T>> {
    let (ids, mut rng) = ssim::init::place_hosts(count, target.n(), cfg.seed);
    let edges = shape.edges(&ids, &mut rng);
    runtime(target, &ids, edges, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expected_edges_superset_of_scaffold() {
        let t = ChordTarget::classic(64);
        let ids = [3u32, 17, 30, 41, 55];
        let scaffold = avatar_cbt::legal::expected_edges(64, &ids);
        let full = expected_edges(&t, &ids);
        for e in &scaffold {
            assert!(full.contains(e), "missing scaffold edge {e:?}");
        }
        assert!(full.len() > scaffold.len(), "fingers add edges");
    }

    /// The legal edge set as first written: every guest edge of the
    /// scaffold tree and of the target projected through the embedding,
    /// plus the successor line, then one global sort.
    fn expected_edges_reference<T: InductiveTarget>(
        target: &T,
        ids: &[NodeId],
    ) -> Vec<(NodeId, NodeId)> {
        let av = Avatar::new(target.n(), ids.iter().copied());
        let mut edges = av.project_edges(overlay::Cbt::new(target.n()).edges());
        edges.extend(av.hosts().windows(2).map(|w| (w[0], w[1])));
        edges.extend(av.project_edges(target.target_edges()));
        edges.sort_unstable();
        edges.dedup();
        edges
    }

    proptest::proptest! {
        /// The range projection equals the guest-level one, for every
        /// chord target at N from 4 to 2^10 over one host, every guest as
        /// a host, and sets that hold the ends 0 and N − 1 or not.
        #[test]
        fn expected_edges_match_the_guest_projection(
            n_exp in 2u32..=10,
            kind in 0u8..3,
            fingers in 1u32..=10,
            hosts in 0u8..4,
            picks in proptest::collection::btree_set(0u32..1024, 1..48),
        ) {
            let n = 1u32 << n_exp;
            let mut ids: Vec<NodeId> = match hosts {
                0 => vec![picks.first().unwrap() % n],
                1 => (0..n).collect(),
                _ => picks.iter().map(|&v| v % n).collect(),
            };
            if hosts == 2 {
                ids.extend([0, n - 1]);
            }
            ids.sort_unstable();
            ids.dedup();
            fn both<T: InductiveTarget>(t: &T, ids: &[NodeId]) -> [Vec<(NodeId, NodeId)>; 2] {
                [expected_edges(t, ids), expected_edges_reference(t, ids)]
            }
            let [got, want] = match kind {
                0 => both(&ChordTarget::classic(n), &ids),
                1 => both(&ChordTarget::paper(n), &ids),
                _ => both(&crate::TruncatedChordTarget::new(n, 1 + (fingers - 1) % n_exp), &ids),
            };
            proptest::prop_assert_eq!(got, want, "n {} kind {} ids {:?}", n, kind, ids);
        }
    }

    /// The offsets restate the finger tables the targets had: the derived
    /// edge set and neighborhoods equal `Chord`'s own.
    #[test]
    fn offsets_restate_the_finger_table() {
        for n in [4u32, 8, 64, 1024] {
            let m = n.trailing_zeros();
            for fingers in 1..=m {
                let t = crate::TruncatedChordTarget::new(n, fingers);
                let chord = overlay::Chord::with_fingers(n, fingers);
                assert_eq!(t.target_edges(), chord.edges(), "n {n} fingers {fingers}");
                for a in 0..n {
                    assert_eq!(t.guest_neighbors(a), chord.neighborhood(a));
                }
            }
            assert_eq!(ChordTarget::classic(n).offsets().len(), m as usize);
        }
    }

    /// Both protocol crates place hosts and draw the initial shape the way
    /// they always have (pinned from the per-crate placement code that
    /// `ssim::init::place_hosts` replaced).
    #[test]
    fn runtime_from_shape_placement_is_pinned() {
        let cfg = Config::seeded(5);
        let ids = [1, 6, 16, 32, 39, 41, 58, 60];
        let edges = [
            (1, 6),
            (1, 16),
            (1, 32),
            (1, 39),
            (1, 58),
            (6, 58),
            (32, 41),
            (32, 60),
            (39, 60),
            (41, 60),
            (58, 60),
        ];
        let cbt = avatar_cbt::runtime_from_shape(64, 8, Shape::Random, cfg);
        let chord = runtime_from_shape(ChordTarget::classic(64), 8, Shape::Random, cfg);
        for topo in [cbt.topology(), chord.topology()] {
            assert_eq!(topo.ids(), ids);
            assert_eq!(topo.edges(), edges);
        }
    }

    #[test]
    fn fresh_runtime_is_not_legal() {
        let t = ChordTarget::classic(16);
        let rt = runtime(t, &[3, 9], vec![(3, 9)], Config::seeded(5));
        assert!(!runtime_is_legal(&rt));
    }

    /// A DONE host whose `last_wave` was corrupted to the extreme is simply
    /// not legal — the final-wave check must not overflow.
    #[test]
    fn done_host_with_extreme_wave_is_not_legal() {
        let t = ChordTarget::classic(16);
        let rt = runtime(t, &[3, 9], vec![(3, 9)], Config::seeded(5));
        let mut p = rt.program(3).clone();
        p.core.install_done(&[9]);
        p.core.last_wave = i64::MAX;
        assert!(!is_legal(&t, rt.topology(), std::iter::once(&p)));
    }

    /// The smallest clean start that used to reset the scaffold: five
    /// hosts in N = 32, every one a singleton cluster. Host 23, the root
    /// of {23, 30}, ended a second match walk and primed its merge with a
    /// placeholder partner cid of 0; it then rejected every meet of its
    /// partner as stale and aborted, while host 5 committed alone and
    /// reset at `t_commit + 1` (epochs 4 and 5: two resets per run, legal
    /// at rounds 872 and 808). A root now primes only from its partner's
    /// `MergeHello`, which carries the real cid, so both merges commit on
    /// both sides and neither protocol resets.
    #[test]
    fn five_host_reset_witness() {
        let ids = [5, 11, 18, 23, 30];
        let edges = vec![(5, 18), (5, 23), (5, 30), (11, 18), (11, 30)];
        let budget = 81 * (8 * 3 + 16);
        let cfg = Config::seeded(1);
        let mut chord = runtime(ChordTarget::classic(32), &ids, edges.clone(), cfg);
        let legal = chord.run_monitored(legality(), budget);
        assert_eq!(legal.rounds_if_satisfied(), Some(548));
        let resets: u64 = chord.programs().map(|(_, p)| p.core.cbt.resets).sum();
        assert_eq!(resets, 0, "Avatar(Chord) resets");
        let mut cbt = avatar_cbt::legal::runtime(32, &ids, edges, cfg);
        let legal = cbt.run_monitored(avatar_cbt::legal::legality(), budget);
        assert_eq!(legal.rounds_if_satisfied(), Some(484));
        let resets: u64 = cbt.programs().map(|(_, p)| p.core.resets).sum();
        assert_eq!(resets, 0, "Avatar(CBT) resets");
    }
}
