//! The global legal-configuration predicate for `Avatar(Cbt(N))` and
//! convenience constructors for experiment runtimes.
//!
//! Legality is a *global* predicate evaluated by the test/experiment harness
//! (the protocol itself only ever uses local information): one cluster, the
//! correct responsible ranges, and the host topology equal to the dilation-1
//! projection of the guest tree.

use crate::program::CbtProgram;
use crate::protocol::CbtCore;
use overlay::{Avatar, Cbt};
use ssim::{
    init::Shape, Config, NetModel, NodeId, Persist, Program, Runtime, SnapshotError, Topology,
};

/// The exact edge set of a legal `Avatar(Cbt(N))` over the given host set:
/// the dilation-1 projection of the guest tree plus the host successor line
/// (which wave 0 of the target-building phase relies on).
pub fn expected_edges(n: u32, ids: &[NodeId]) -> Vec<(NodeId, NodeId)> {
    scaffold_edges(&Avatar::new(n, ids.iter().copied()))
}

/// [`expected_edges`] over an embedding already built, sorted and
/// deduplicated: one descent of the guest tree projects each tree edge
/// through the host table as it is visited, so only host edges are ever
/// stored and sorted. `O(N + E log E)` for `E` host edges.
pub fn scaffold_edges(av: &Avatar) -> Vec<(NodeId, NodeId)> {
    let mut edges = Vec::new();
    Cbt::new(av.n_cap()).for_each_edge(|g, p| {
        let (x, y) = (av.host_of(g), av.host_of(p));
        if x != y {
            edges.push((x.min(y), x.max(y)));
        }
    });
    edges.extend(av.hosts().windows(2).map(|w| (w[0], w[1])));
    edges.sort_unstable();
    edges.dedup();
    edges
}

/// True iff the host states and topology form the legal `Avatar(Cbt(N))`.
pub fn is_legal_cbt<'a>(n: u32, topo: &Topology, cores: impl Iterator<Item = &'a CbtCore>) -> bool {
    let cores: Vec<&CbtCore> = cores.collect();
    if cores.is_empty() {
        return false;
    }
    let av = Avatar::new(n, cores.iter().map(|c| c.id));
    let cid = cores[0].core.cid;
    let min = av.hosts()[0];
    for c in &cores {
        if c.core.cid != cid || c.core.cluster_min != min {
            return false;
        }
        let r = av.range_of(c.id);
        if c.core.range != (r.lo, r.hi) {
            return false;
        }
    }
    topo.edges() == scaffold_edges(&av)
}

/// Runtime-level legality check for a standalone CBT run.
pub fn runtime_is_legal(rt: &Runtime<CbtProgram>) -> bool {
    let Some(&first) = rt.ids().first() else {
        return false; // all hosts departed: nothing legal to speak of
    };
    is_legal_cbt(
        rt.program(first).core.n,
        rt.topology(),
        rt.programs().map(|(_, p)| &p.core),
    )
}

/// The Avatar(CBT) legality goal — [`runtime_is_legal`] as the predicate
/// [`Runtime::run_monitored`] and scenario runs drive to.
pub fn legality() -> impl FnMut(&Runtime<CbtProgram>) -> bool {
    runtime_is_legal
}

/// Build a CBT runtime over the given host ids and initial edges. Every host
/// starts as a singleton cluster with a seed-derived nonce (the arbitrary
/// initial *state* of the self-stabilization model is produced separately by
/// corruption helpers / faults).
pub fn runtime(
    n: u32,
    ids: &[NodeId],
    edges: Vec<(NodeId, NodeId)>,
    cfg: Config,
) -> Runtime<CbtProgram> {
    runtime_with_net(n, ids, edges, cfg, NetModel::ideal())
}

/// [`runtime`] under a network-conditions model, through [`boot`]. With
/// [`NetModel::ideal`] this is exactly [`runtime`] (`Δ = 1` is the
/// identity).
pub fn runtime_with_net(
    n: u32,
    ids: &[NodeId],
    edges: Vec<(NodeId, NodeId)>,
    cfg: Config,
    model: NetModel,
) -> Runtime<CbtProgram> {
    boot(ids, edges, cfg, model, spawner(n, cfg.seed, model))
}

/// The one construction recipe of both protocol crates: every host boots
/// from `mk`, which also becomes the join spawner — so mid-run joiners
/// inherit the founders' budgets — over `model`, whose per-hop delivery
/// bound `Δ = 1 + delay + jitter` ([`NetModel::delivery_bound`]) `mk` must
/// have budgeted the hosts for ([`crate::CbtCore::with_net`] re-derives the
/// epoch schedule, beacon staleness horizon, grace windows, detector
/// patience and merge-message redundancy from it).
///
/// Debug builds continuously audit the quiescence contract: if an
/// equivalence-claiming scheduler ever skips a host whose step is not a
/// no-op, the run panics (see [`Runtime::enable_shadow_check`]).
pub fn boot<P: Program + Clone>(
    ids: &[NodeId],
    edges: Vec<(NodeId, NodeId)>,
    cfg: Config,
    model: NetModel,
    mk: impl Fn(NodeId) -> P + 'static,
) -> Runtime<P> {
    let mut rt = Runtime::new(cfg, ids.iter().map(|&v| (v, mk(v))), edges)
        .with_spawner(mk)
        .with_net_model(model);
    if cfg!(debug_assertions) {
        rt.enable_shadow_check();
    }
    rt
}

/// The one restore recipe, from snapshot bytes produced by
/// [`Runtime::save_snapshot`]: re-registers the non-serializable hooks a
/// [`boot`]-built instance carries. `respawn` rebuilds the join spawner from
/// a restored host (which knows the protocol's parameters), the snapshot's
/// seed and its network model — so mid-run joins behave exactly as in the
/// original run — and debug builds re-arm the shadow quiescence check.
/// `cfg` is not read: every setting comes from the snapshot (see
/// [`Runtime::restore_snapshot`]).
pub fn reboot<P, F>(
    bytes: &[u8],
    cfg: Config,
    respawn: impl FnOnce(&P, u64, NetModel) -> F,
) -> Result<Runtime<P>, SnapshotError>
where
    P: Program + Persist + Clone,
    P::Msg: Persist,
    F: Fn(NodeId) -> P + 'static,
{
    let mut rt = Runtime::<P>::restore_snapshot(bytes, cfg)?;
    let Some(&first) = rt.ids().first() else {
        return Err(SnapshotError::Corrupt(
            "restore: no live hosts, cannot infer the protocol parameters".into(),
        ));
    };
    let mk = respawn(rt.program(first), rt.config().seed, rt.net_model());
    rt.set_spawner(mk);
    if cfg!(debug_assertions) {
        rt.enable_shadow_check();
    }
    Ok(rt)
}

/// How a host boots — at construction, and when it joins mid-run or after
/// a restore: a fresh singleton cluster with the seed-derived nonce,
/// budgeted for `model` ([`crate::CbtCore::with_net`]).
fn spawner(n: u32, seed: u64, model: NetModel) -> impl Fn(NodeId) -> CbtProgram {
    move |v| CbtProgram::new(v, n, join_nonce(seed, v)).with_net(model)
}

/// The nonce a host `v` boots with in a run seeded `seed` (shared with
/// `chord_scaffold`, whose hosts embed this protocol).
pub fn join_nonce(seed: u64, v: NodeId) -> u64 {
    seed ^ (v as u64 + 7).wrapping_mul(0x9E3779B97F4A7C15)
}

/// Restore a CBT runtime through [`reboot`]. `cfg` is not read: every
/// setting comes from the snapshot. It is kept for
/// `crates/bench/src/bin/benchmark`, which still passes one; ROADMAP item
/// 5(b) removes it.
pub fn restore_runtime(bytes: &[u8], cfg: Config) -> Result<Runtime<CbtProgram>, SnapshotError> {
    reboot(bytes, cfg, |p: &CbtProgram, seed, model| {
        spawner(p.core.n, seed, model)
    })
}

/// Build a CBT runtime from a named initial shape with `count` hosts placed
/// by [`ssim::init::place_hosts`].
pub fn runtime_from_shape(n: u32, count: usize, shape: Shape, cfg: Config) -> Runtime<CbtProgram> {
    let (ids, mut rng) = ssim::init::place_hosts(count, n, cfg.seed);
    let edges = shape.edges(&ids, &mut rng);
    runtime(n, &ids, edges, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn legal_predicate_accepts_constructed_network() {
        let n = 32u32;
        let ids = [3u32, 9, 17, 26];
        let av = Avatar::new(n, ids);
        let edges = expected_edges(n, &ids);
        let mut rt = runtime(n, &ids, edges, Config::default());
        // Install the legal state directly.
        for &v in &ids {
            let r = av.range_of(v);
            rt.corrupt_node(v, |p| {
                p.core.core.cid = 42;
                p.core.core.range = (r.lo, r.hi);
                p.core.core.cluster_min = 3;
            });
        }
        assert!(runtime_is_legal(&rt));
    }

    #[test]
    fn legal_predicate_rejects_singletons() {
        let rt = runtime(32, &[3, 9], vec![(3, 9)], Config::default());
        assert!(!runtime_is_legal(&rt));
    }

    #[test]
    fn legal_predicate_rejects_wrong_topology() {
        let n = 32u32;
        let ids = [3u32, 9];
        let av = Avatar::new(n, ids);
        let edges = Vec::new(); // no edges at all
        let mut rt = runtime(n, &ids, edges, Config::default());
        for &v in &ids {
            let r = av.range_of(v);
            rt.corrupt_node(v, |p| {
                p.core.core.cid = 42;
                p.core.core.range = (r.lo, r.hi);
                p.core.core.cluster_min = 3;
            });
        }
        assert!(!runtime_is_legal(&rt));
    }
}
