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
use ssim::monitor::{self, Goal};
use ssim::{init::Shape, Config, NodeId, Runtime, Topology};

/// The exact edge set of a legal `Avatar(Cbt(N))` over the given host set:
/// the dilation-1 projection of the guest tree plus the host successor line
/// (which wave 0 of the target-building phase relies on).
pub fn expected_edges(n: u32, ids: &[NodeId]) -> Vec<(NodeId, NodeId)> {
    let av = Avatar::new(n, ids.iter().copied());
    let cbt = Cbt::new(n);
    let mut edges = av.project_edges(cbt.edges());
    let mut sorted = ids.to_vec();
    sorted.sort_unstable();
    for w in sorted.windows(2) {
        edges.push((w[0], w[1]));
    }
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
    let ids: Vec<NodeId> = cores.iter().map(|c| c.id).collect();
    let av = Avatar::new(n, ids.iter().copied());
    let cid = cores[0].core.cid;
    let min = *ids.iter().min().unwrap();
    for c in &cores {
        if c.core.cid != cid || c.core.cluster_min != min {
            return false;
        }
        let r = av.range_of(c.id);
        if c.core.range != (r.lo, r.hi) {
            return false;
        }
    }
    topo.edges() == expected_edges(n, &ids)
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

/// The Avatar(CBT) legality goal as a composable [`ssim::Monitor`] — the
/// driver form of [`runtime_is_legal`], for [`Runtime::run_monitored`] and
/// scenario runs.
pub fn legality() -> Goal<impl FnMut(&Runtime<CbtProgram>) -> bool> {
    monitor::goal("avatar-cbt-legal", runtime_is_legal)
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
    runtime_with_net(n, ids, edges, cfg, ssim::NetModel::ideal())
}

/// [`runtime`] under a network-conditions model: every host's epoch
/// schedule, beacon staleness horizon, and grace windows are re-budgeted
/// for the model's per-hop delivery bound `Δ = 1 + delay + jitter`
/// ([`ssim::NetModel::delivery_bound`]), and mid-run joiners inherit the
/// same budget from the spawner. With [`ssim::NetModel::ideal`] this is
/// exactly [`runtime`] (`Δ = 1` is the identity).
pub fn runtime_with_net(
    n: u32,
    ids: &[NodeId],
    edges: Vec<(NodeId, NodeId)>,
    cfg: Config,
    model: ssim::NetModel,
) -> Runtime<CbtProgram> {
    let mk = spawner(n, cfg.seed, model);
    let nodes = ids.iter().map(|&v| (v, mk(v)));
    let mut rt = Runtime::new(cfg, nodes, edges)
        .with_spawner(mk)
        .with_net_model(model);
    // Debug builds continuously audit the quiescence contract: if an
    // equivalence-claiming scheduler ever skips a host whose step is not a
    // no-op, the run panics (see `Runtime::enable_shadow_check`).
    if cfg!(debug_assertions) {
        rt.enable_shadow_check();
    }
    rt
}

/// How a host boots — at construction, and when it joins mid-run or after
/// a restore: a fresh singleton cluster with the seed-derived nonce,
/// budgeted for `model` ([`crate::CbtCore::with_net`]).
fn spawner(n: u32, seed: u64, model: ssim::NetModel) -> impl Fn(NodeId) -> CbtProgram + Copy {
    move |v| CbtProgram::new(v, n, join_nonce(seed, v)).with_net(model)
}

/// The nonce a host `v` boots with in a run seeded `seed` (shared with
/// `chord_scaffold`, whose hosts embed this protocol).
pub fn join_nonce(seed: u64, v: NodeId) -> u64 {
    seed ^ (v as u64 + 7).wrapping_mul(0x9E3779B97F4A7C15)
}

/// Restore a CBT runtime from snapshot bytes produced by
/// [`ssim::Runtime::save_snapshot`], re-registering the non-serializable
/// hooks a [`runtime`]-built instance carries: the join spawner (nonces
/// derived from the snapshot's seed and budgets from its network model, so
/// mid-run joins behave exactly as in the original run) and, in debug
/// builds, the shadow quiescence check.
pub fn restore_runtime(
    bytes: &[u8],
    cfg: Config,
) -> Result<Runtime<CbtProgram>, ssim::SnapshotError> {
    let mut rt = Runtime::<CbtProgram>::restore_snapshot(bytes, cfg)?;
    let Some(&first) = rt.ids().first() else {
        return Err(ssim::SnapshotError::Corrupt(
            "avatar-cbt restore: no live hosts, cannot infer guest-space size N".into(),
        ));
    };
    let n = rt.program(first).core.n;
    rt.set_spawner(spawner(n, rt.config().seed, rt.net_model()));
    if cfg!(debug_assertions) {
        rt.enable_shadow_check();
    }
    Ok(rt)
}

/// Build a CBT runtime from a named initial shape with `count` random hosts.
pub fn runtime_from_shape(n: u32, count: usize, shape: Shape, cfg: Config) -> Runtime<CbtProgram> {
    use rand::SeedableRng;
    let mut rng = rand::rngs::SmallRng::seed_from_u64(cfg.seed ^ 0xA5A5_5A5A);
    let ids = ssim::init::random_ids(count, n, &mut rng);
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
