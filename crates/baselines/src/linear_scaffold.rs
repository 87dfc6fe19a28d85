//! The linear-scaffold Chord builder, in the style of Re-Chord
//! (Kniesburges–Koutsopoulos–Scheideler, SPAA 2011) — the paper's *time*
//! baseline.
//!
//! Phase 1 **linearizes** the node set into the sorted list with the classic
//! Onus–Richa–Scheideler rule: a node orders its neighbors around itself and
//! introduces consecutive same-side pairs, keeping only its closest neighbor
//! per side. Phase 2 grows Chord fingers by **walking** along the list: a
//! node's finger walk extends one hop per round (each hop is an introduction
//! by the walk's current endpoint), dropping a finger edge whenever the
//! walked distance hits a power of two.
//!
//! The list's `Θ(n)` diameter makes phase 2 cost `Θ(n)` rounds — the
//! comparison the paper draws in Section 6: "a previous work, Re-Chord, used
//! a 'scaffold' of the Linear network, whose O(n) diameter contributed to
//! the O(n log n) convergence time of their algorithm."

use ssim::{Ctx, NodeId, Program};

/// Messages of the linear-scaffold protocol.
#[derive(Debug, Clone)]
pub enum LinMsg {
    /// "You are now adjacent to `origin`, whose walk has covered `dist`
    /// hops; please extend it through me."
    Walk {
        /// The node growing its finger table.
        origin: NodeId,
        /// Hops covered so far.
        dist: u32,
        /// Total hops the walk needs (the top finger distance).
        reach: u32,
    },
    /// Linearization heartbeat carrying the sender's current (pred, succ).
    Beat {
        /// Sender's closest smaller neighbor.
        pred: Option<NodeId>,
        /// Sender's closest larger neighbor.
        succ: Option<NodeId>,
    },
}

/// A node of the linear-scaffold baseline.
pub struct LinearProgram {
    /// Total fingers to build (walk length `2^(fingers−1)`).
    fingers: u32,
    /// Rounds my (pred, succ) pair has been stable.
    stable: u32,
    prev_ps: (Option<NodeId>, Option<NodeId>),
    /// Round the walk was launched (progress is one hop per round).
    walk_launch: u64,
    walk_started: bool,
    /// Whether my own finger walk completed.
    pub walk_done: bool,
}

/// Rounds of (pred, succ) stability before launching the finger walk.
const LINEAR_STABLE: u32 = 4;

impl LinearProgram {
    /// A baseline node building `fingers` finger levels.
    pub fn new(fingers: u32) -> Self {
        Self {
            fingers,
            stable: 0,
            prev_ps: (None, None),
            walk_launch: 0,
            walk_started: false,
            walk_done: false,
        }
    }

    fn pred_succ(me: NodeId, neighbors: &[NodeId]) -> (Option<NodeId>, Option<NodeId>) {
        let pred = neighbors.iter().copied().filter(|&v| v < me).max();
        let succ = neighbors.iter().copied().filter(|&v| v > me).min();
        (pred, succ)
    }
}

impl Program for LinearProgram {
    type Msg = LinMsg;

    fn step(&mut self, ctx: &mut Ctx<'_, LinMsg>) {
        // Quiescence contract: a host whose own walk is finished has no
        // round-scheduled work left — with an empty inbox its step is a
        // strict no-op (it only ever acts again to extend someone else's
        // walk, which arrives as a message and re-activates it).
        if self.walk_done && ctx.inbox().is_empty() {
            return;
        }
        let me = ctx.id;
        let neighbors = ctx.neighbors();
        let (pred, succ) = Self::pred_succ(me, neighbors);

        // ---- Linearization (Onus–Richa–Scheideler): while not yet in
        // sorted-list position, delegate far same-side neighbors toward
        // their place: for left neighbors l1 < l2 < me, introduce (l1, l2)
        // and drop (l1, me). Once the walk phase starts the rule is off —
        // finger edges are far same-side neighbors by design (this is the
        // conflict Re-Chord resolves with virtual nodes; the baseline
        // resolves it by phasing, which only helps its measured time).
        if !self.walk_started {
            let mut left: Vec<NodeId> = neighbors.iter().copied().filter(|&v| v < me).collect();
            let mut right: Vec<NodeId> = neighbors.iter().copied().filter(|&v| v > me).collect();
            left.sort_unstable();
            right.sort_unstable();
            for w in left.windows(2) {
                ctx.link(w[0], w[1]);
                ctx.unlink(w[0]);
            }
            for w in right.windows(2) {
                ctx.link(w[0], w[1]);
                ctx.unlink(w[1]);
            }
        }

        // ---- Walk extension service: a Walk message means its origin was
        // introduced to me last round; extend the walk through my successor.
        for (_, m) in ctx.inbox() {
            if let LinMsg::Walk {
                origin,
                dist,
                reach,
            } = m
            {
                if ctx.is_neighbor(*origin) {
                    if dist < reach {
                        if let Some(s) = succ {
                            ctx.link(*origin, s);
                            ctx.send(
                                s,
                                LinMsg::Walk {
                                    origin: *origin,
                                    dist: dist + 1,
                                    reach: *reach,
                                },
                            );
                        }
                    }
                    // My edge to the origin is its distance-`dist` edge:
                    // keep it iff `dist` is a power of two (a finger),
                    // otherwise it was only the walk's stepping stone.
                    if !dist.is_power_of_two() {
                        ctx.unlink(*origin);
                    }
                }
            }
        }

        // ---- Stability tracking and walk launch.
        if (pred, succ) == self.prev_ps {
            self.stable += 1;
        } else {
            self.stable = 0;
            self.prev_ps = (pred, succ);
        }
        if self.stable >= LINEAR_STABLE && !self.walk_started {
            self.walk_started = true;
            self.walk_launch = ctx.round;
            if succ.is_none() {
                self.walk_done = true; // I am the maximum: nothing to build
            } else if let Some(s) = succ {
                let reach = 1u32 << (self.fingers - 1);
                ctx.send(
                    s,
                    LinMsg::Walk {
                        origin: me,
                        dist: 1,
                        reach,
                    },
                );
            }
        }
        // The walk advances one hop per round deterministically: the holder
        // at distance d processes at round launch + d, and the top-finger
        // edge lands at round launch + reach.
        if self.walk_started && !self.walk_done {
            let reach = 1u64 << (self.fingers - 1);
            if ctx.round >= self.walk_launch + reach {
                self.walk_done = true;
            }
        }
    }

    fn is_quiescent(&self) -> bool {
        self.walk_done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssim::{Config, Runtime};

    #[test]
    fn linearization_sorts_a_random_graph() {
        use rand::SeedableRng;
        let ids: Vec<NodeId> = (0..24).map(|i| i * 2 + 1).collect();
        let mut rng = rand::rngs::SmallRng::seed_from_u64(3);
        let edges = ssim::init::random_connected(&ids, 10, &mut rng);
        let nodes = ids.iter().map(|&v| (v, LinearProgram::new(4)));
        let mut rt = Runtime::new(Config::seeded(4), nodes, edges);
        rt.run(200);
        // Every consecutive pair must be adjacent.
        for w in ids.windows(2) {
            assert!(
                rt.topology().has_edge(w[0], w[1]),
                "list edge ({}, {}) missing",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn walks_build_finger_edges() {
        let ids: Vec<NodeId> = (0..32).collect();
        let edges = ssim::init::line(&ids);
        let fingers = 5; // reach 16
        let nodes = ids.iter().map(|&v| (v, LinearProgram::new(fingers)));
        let mut rt = Runtime::new(Config::seeded(5), nodes, edges);
        rt.run_monitored(crate::linear_done(), 400)
            .rounds_if_satisfied()
            .expect("walks must finish");
        // Node 0's fingers by rank: 1, 2, 4, 8, 16.
        for d in [1u32, 2, 4, 8, 16] {
            assert!(rt.topology().has_edge(0, d), "finger to {d} missing");
        }
    }

    #[test]
    fn walk_time_is_linear_in_reach() {
        // The whole point of E7: walking distance 2^(m−1) costs ≥ 2^(m−1)
        // rounds on the list.
        let run = |n: u32, fingers: u32| {
            let ids: Vec<NodeId> = (0..n).collect();
            let edges = ssim::init::line(&ids);
            let nodes = ids.iter().map(|&v| (v, LinearProgram::new(fingers)));
            let mut rt = Runtime::new(Config::seeded(6), nodes, edges);
            rt.run_monitored(crate::linear_done(), 4000)
                .rounds_if_satisfied()
                .expect("walks must finish")
        };
        let small = run(16, 4); // reach 8
        let large = run(64, 6); // reach 32
        assert!(
            large >= small + 16,
            "reach growth must show up in rounds: {small} vs {large}"
        );
    }
}
