//! The Transitive Closure Framework (Berns–Ghosh–Pemmaraju, SSS 2011) — the
//! paper's space baseline.
//!
//! TCF can build **any** locally-checkable topology: detect a fault, form a
//! clique (every node repeatedly introduces all pairs of its neighbors, so
//! neighborhoods square each round), then each node locally computes the
//! correct topology over the now globally-known id set and deletes every
//! edge it does not require. It converges in `O(log n)` rounds — but drives
//! every node's degree to `Θ(n)` during convergence, which is exactly the
//! cost the scaffolding approach avoids (Sections 1, 4.1 and 6).
//!
//! Targets are pluggable so experiment E7 builds the *same* final topology
//! the scaffolding algorithm builds.

use ssim::{Ctx, NodeId, Program};

/// Final-topology oracle: given the full sorted id set, which neighbors must
/// node `v` keep?
pub type TargetFn = std::sync::Arc<dyn Fn(&[NodeId], NodeId) -> Vec<NodeId> + Send + Sync>;

/// A node running TCF.
pub struct TcfProgram {
    target: TargetFn,
    /// Rounds the closed neighborhood has been unchanged.
    stable_rounds: u32,
    prev_degree: usize,
    done: bool,
}

/// Rounds of neighborhood stability before a node declares the clique
/// complete. Two rounds suffice in the synchronous model (one round with no
/// growth anywhere implies closure); three adds slack.
pub const STABLE_THRESHOLD: u32 = 3;

impl TcfProgram {
    /// TCF building the given target topology.
    pub fn new(target: TargetFn) -> Self {
        Self {
            target,
            stable_rounds: 0,
            prev_degree: usize::MAX,
            done: false,
        }
    }

    /// Whether this node has pruned down to its target neighborhood.
    pub fn is_done(&self) -> bool {
        self.done
    }
}

impl Program for TcfProgram {
    type Msg = ();

    fn step(&mut self, ctx: &mut Ctx<'_, ()>) {
        if self.done {
            return;
        }
        let neighbors = ctx.neighbors();
        if neighbors.len() == self.prev_degree {
            self.stable_rounds += 1;
        } else {
            self.stable_rounds = 0;
            self.prev_degree = neighbors.len();
        }

        if self.stable_rounds >= STABLE_THRESHOLD {
            // Clique assumed complete: the closed neighborhood is the whole
            // node set. Compute the target and prune.
            let mut all: Vec<NodeId> = neighbors.to_vec();
            all.push(ctx.id);
            all.sort_unstable();
            let keep = (self.target)(&all, ctx.id);
            for &v in neighbors {
                if !keep.contains(&v) {
                    ctx.unlink(v);
                }
            }
            self.done = true;
            return;
        }

        // Transitive closure step: make my neighborhood a clique.
        for (i, &a) in neighbors.iter().enumerate() {
            for &b in &neighbors[i + 1..] {
                ctx.link(a, b);
            }
        }
    }

    fn is_quiescent(&self) -> bool {
        self.done
    }
}

/// Target oracle for the ideal `Chord` over the actual node set (ring of
/// sorted ids plus classic fingers by rank).
pub fn chord_over_ids_target() -> TargetFn {
    std::sync::Arc::new(|all: &[NodeId], v: NodeId| {
        let n = all.len();
        let rank = all.binary_search(&v).expect("v in id set");
        let m = (usize::BITS - n.leading_zeros()) as usize; // ceil-ish log2
        let mut out: Vec<NodeId> = Vec::new();
        for k in 0..m {
            let d = 1usize << k;
            if d >= n {
                break;
            }
            out.push(all[(rank + d) % n]);
            out.push(all[(rank + n - d) % n]);
        }
        out.sort_unstable();
        out.dedup();
        out.retain(|&u| u != v);
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssim::{Config, Runtime};

    fn run_tcf(ids: &[NodeId], edges: Vec<(NodeId, NodeId)>) -> Runtime<TcfProgram> {
        let target = chord_over_ids_target();
        let nodes = ids.iter().map(|&v| (v, TcfProgram::new(target.clone())));
        let mut rt = Runtime::new(Config::seeded(1), nodes, edges);
        rt.run_monitored(crate::tcf_done(), 200)
            .rounds_if_satisfied()
            .expect("TCF must converge");
        rt
    }

    #[test]
    fn tcf_builds_chord_from_a_line() {
        let ids: Vec<NodeId> = (0..16).map(|i| i * 3).collect();
        let edges = ssim::init::line(&ids);
        let rt = run_tcf(&ids, edges);
        let target = chord_over_ids_target();
        for &v in &ids {
            let mut got = rt.topology().neighbors(v).to_vec();
            got.sort_unstable();
            assert_eq!(got, target(&ids, v), "node {v}");
        }
    }

    #[test]
    fn tcf_peak_degree_is_linear() {
        let ids: Vec<NodeId> = (0..32).collect();
        let edges = ssim::init::line(&ids);
        let rt = run_tcf(&ids, edges);
        // The whole point of E7: TCF's transient degree hits n − 1.
        assert_eq!(rt.metrics().peak_degree, 31);
    }

    #[test]
    fn tcf_converges_fast_from_clique() {
        let ids: Vec<NodeId> = (0..12).collect();
        let edges = ssim::init::clique(&ids);
        let target = chord_over_ids_target();
        let nodes = ids.iter().map(|&v| (v, TcfProgram::new(target.clone())));
        let mut rt = Runtime::new(Config::seeded(2), nodes, edges);
        let rounds = rt
            .run_monitored(crate::tcf_done(), 50)
            .rounds_if_satisfied()
            .unwrap();
        assert!(rounds <= (STABLE_THRESHOLD as u64) + 3, "took {rounds}");
    }

    #[test]
    fn final_topology_connected() {
        let ids: Vec<NodeId> = (0..20).map(|i| i * 5 + 1).collect();
        let edges = ssim::init::star(&ids);
        let rt = run_tcf(&ids, edges);
        assert!(rt.topology().is_connected());
    }
}
