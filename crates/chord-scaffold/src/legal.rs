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
/// the target network is built", Section 6) plus the projected target edges.
pub fn expected_edges<T: InductiveTarget>(target: &T, ids: &[NodeId]) -> Vec<(NodeId, NodeId)> {
    let n = target.n();
    let av = Avatar::new(n, ids.iter().copied());
    let mut edges = avatar_cbt::legal::expected_edges(n, ids);
    edges.extend(av.project_edges(target.target_edges()));
    edges.sort_unstable();
    edges.dedup();
    edges
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
    let ids: Vec<NodeId> = settled.iter().map(|p| p.core.id()).collect();
    let av = Avatar::new(target.n(), ids.iter().copied());
    for p in &settled {
        let r = av.range_of(p.core.id());
        if p.core.cbt.core.range != (r.lo, r.hi) {
            return false;
        }
    }
    topo.edges() == expected_edges(target, &ids)
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
