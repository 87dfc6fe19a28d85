//! Transient-fault injection: adversarial perturbations applied between
//! rounds. Self-stabilization promises recovery from *any* transient fault
//! that leaves the network weakly connected; these helpers produce such
//! faults reproducibly for the experiments and the failure-injection tests.
//!
//! [`Fault`] is the one perturbation vocabulary for topology and
//! membership: edge churn, and joins / leaves / crashes of random or named
//! hosts (joins require a spawner, see [`Runtime::set_spawner`]). A
//! [`crate::Scenario`] schedules faults as [`crate::Event::Fault`] and adds
//! only what is not a change to the node or edge set (state corruption,
//! daemon and network swaps, partitions).

use crate::program::Program;
use crate::runtime::Runtime;
use crate::NodeId;
use rand::seq::SliceRandom;
use rand::Rng;

/// A transient fault to inject into a running simulation.
#[derive(Debug, Clone)]
pub enum Fault {
    /// Add `count` uniformly random edges (bypassing the introduction rule —
    /// this is an adversarial perturbation, not a protocol action).
    AddRandomEdges {
        /// Number of edges to add.
        count: usize,
    },
    /// Remove up to `count` random edges; when `keep_connected`, removals
    /// that would disconnect the network are skipped (the paper's guarantee
    /// only covers connected configurations).
    RemoveRandomEdges {
        /// Number of removal attempts.
        count: usize,
        /// Skip removals that disconnect the network.
        keep_connected: bool,
    },
    /// Rewire: remove `count` random edges (connectivity-preserving) and add
    /// the same number of random edges.
    Rewire {
        /// Number of edges to rewire.
        count: usize,
    },
    /// A new host with identifier `id` joins, attached to `attach` distinct
    /// random existing hosts. Requires a registered spawner. Skipped (0
    /// changes) if `id` is already a member.
    Join {
        /// Identifier of the joining host.
        id: NodeId,
        /// Number of random bootstrap contacts (at least 1 is used when the
        /// network is non-empty).
        attach: usize,
    },
    /// A new host with identifier `id` joins, attached to exactly the hosts
    /// in `contacts` (unknown ones are skipped) — the deterministic form of
    /// [`Fault::Join`]; draws nothing from the RNG. Requires a registered
    /// spawner. Skipped (0 changes) if `id` is already a member.
    JoinAt {
        /// Identifier of the joining host.
        id: NodeId,
        /// Bootstrap contacts.
        contacts: Vec<NodeId>,
    },
    /// A uniformly random host (or `id`, when given) leaves gracefully.
    /// When `keep_connected`, victims whose departure would disconnect the
    /// survivors are skipped (another victim is tried).
    Leave {
        /// Specific victim, or `None` for a uniformly random member.
        id: Option<NodeId>,
        /// Only depart hosts whose removal keeps the survivors connected.
        keep_connected: bool,
    },
    /// Like [`Fault::Leave`] but counted as a crash.
    Crash {
        /// Specific victim, or `None` for a uniformly random member.
        id: Option<NodeId>,
        /// Only crash hosts whose removal keeps the survivors connected.
        keep_connected: bool,
    },
}

/// Apply a fault to the runtime. Returns the number of changes made
/// (edges touched, or members joined/departed).
pub fn inject<P: Program>(rt: &mut Runtime<P>, fault: &Fault, rng: &mut impl Rng) -> usize {
    inject_traced(rt, fault, rng, &mut Vec::new())
}

/// [`inject`], additionally appending the identifiers of every node the
/// fault touched (edge endpoints, the joiner and its contacts, the departed
/// host) to `touched` — the per-node record scenario reports surface (every
/// touched node is marked dirty by the runtime operation itself).
/// Identifiers may repeat when several changes hit the same node.
pub(crate) fn inject_traced<P: Program>(
    rt: &mut Runtime<P>,
    fault: &Fault,
    rng: &mut impl Rng,
    touched: &mut Vec<NodeId>,
) -> usize {
    match *fault {
        Fault::AddRandomEdges { count } => add_random_edges(rt, count, rng, touched),
        Fault::RemoveRandomEdges {
            count,
            keep_connected,
        } => remove_random_edges(rt, count, keep_connected, rng, touched),
        Fault::Rewire { count } => {
            let removed = remove_random_edges(rt, count, true, rng, touched);
            let added = add_random_edges(rt, count, rng, touched);
            removed + added
        }
        Fault::Join { id, attach } => {
            if rt.topology().contains(id) {
                return 0;
            }
            // Sample `attach` distinct contacts by rejection instead of
            // cloning and shuffling the whole id list: O(attach) for the
            // typical attach ≪ n, so join faults stay cheap at scale. Dense
            // requests (a sizable fraction of the membership) fall back to
            // the shuffle, where rejection would degrade to coupon
            // collecting.
            let pool = rt.ids();
            let want = attach.max(usize::from(!pool.is_empty())).min(pool.len());
            let picks: Vec<NodeId> = if want * 4 >= pool.len() {
                let mut pool = pool.to_vec();
                pool.shuffle(rng);
                pool.truncate(want);
                pool
            } else {
                let mut picks: Vec<NodeId> = Vec::with_capacity(want);
                while picks.len() < want {
                    let v = pool[rng.gen_range(0..pool.len())];
                    if !picks.contains(&v) {
                        picks.push(v);
                    }
                }
                picks
            };
            rt.join_spawned(id, &picks);
            touched.push(id);
            touched.extend_from_slice(&picks);
            1
        }
        Fault::JoinAt { id, ref contacts } => {
            if rt.topology().contains(id) {
                return 0;
            }
            rt.join_spawned(id, contacts);
            touched.push(id);
            touched.extend(contacts.iter().filter(|v| rt.topology().contains(**v)));
            1
        }
        Fault::Leave { id, keep_connected } => depart(rt, id, keep_connected, rng, false, touched),
        Fault::Crash { id, keep_connected } => depart(rt, id, keep_connected, rng, true, touched),
    }
}

fn depart<P: Program>(
    rt: &mut Runtime<P>,
    id: Option<NodeId>,
    keep_connected: bool,
    rng: &mut impl Rng,
    crash: bool,
    touched: &mut Vec<NodeId>,
) -> usize {
    let victim = match id {
        Some(v) => Some(v).filter(|&v| !keep_connected || survivors_connected(rt, v)),
        // Unguarded random victim: one O(1) draw, no id-list copy/shuffle.
        None if !keep_connected => {
            let ids = rt.ids();
            (!ids.is_empty()).then(|| ids[rng.gen_range(0..ids.len())])
        }
        // Connectivity-guarded random victim: candidates are tried in a
        // random order until one's departure keeps the survivors connected
        // (the guard itself is O(n + m) per probe — inherent to the check).
        None => {
            let mut candidates = rt.ids().to_vec();
            candidates.shuffle(rng);
            candidates.into_iter().find(|&v| survivors_connected(rt, v))
        }
    };
    let Some(v) = victim else {
        return 0;
    };
    let removed = if crash { rt.crash(v) } else { rt.leave(v) };
    if removed.is_none() {
        return 0;
    }
    touched.push(v);
    1
}

/// Would the network remain connected if `v` departed?
fn survivors_connected<P: Program>(rt: &Runtime<P>, v: NodeId) -> bool {
    rt.topology().connected_without(&[v])
}

fn add_random_edges<P: Program>(
    rt: &mut Runtime<P>,
    count: usize,
    rng: &mut impl Rng,
    touched: &mut Vec<NodeId>,
) -> usize {
    let ids = rt.ids().to_vec();
    if ids.len() < 2 {
        return 0;
    }
    let mut done = 0;
    let mut attempts = 0;
    while done < count && attempts < 20 * count + 100 {
        attempts += 1;
        let a = *ids.choose(rng).unwrap();
        let b = *ids.choose(rng).unwrap();
        if a != b && rt.adversarial_add_edge(a, b) {
            touched.push(a);
            touched.push(b);
            done += 1;
        }
    }
    done
}

/// Remove up to `count` random edges. The candidate list is collected and
/// shuffled **once per pass** instead of once per removal (the old
/// implementation was quadratic in the edge count); a pass that makes no
/// progress ends the attempt, which preserves the old guarantee that we only
/// give up when no single removable edge exists.
fn remove_random_edges<P: Program>(
    rt: &mut Runtime<P>,
    count: usize,
    keep_connected: bool,
    rng: &mut impl Rng,
    touched: &mut Vec<NodeId>,
) -> usize {
    let mut done = 0;
    while done < count {
        let mut edges = rt.topology().edges();
        if edges.is_empty() {
            break;
        }
        edges.shuffle(rng);
        let before_pass = done;
        for (a, b) in edges {
            if done >= count {
                break;
            }
            rt.adversarial_remove_edge(a, b);
            if keep_connected && !rt.topology().is_connected() {
                rt.adversarial_add_edge(a, b);
                continue;
            }
            touched.push(a);
            touched.push(b);
            done += 1;
        }
        if done == before_pass {
            break; // no edge in a full pass was removable
        }
    }
    done
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{Ctx, Program};
    use crate::runtime::Config;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    struct Idle;
    impl Program for Idle {
        type Msg = ();
        fn step(&mut self, _ctx: &mut Ctx<'_, ()>) {}
    }

    fn ring_runtime(n: u32) -> Runtime<Idle> {
        let edges: Vec<_> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        Runtime::new(Config::default(), (0..n).map(|i| (i, Idle)), edges).with_spawner(|_| Idle)
    }

    #[test]
    fn add_edges_increases_count() {
        let mut rt = ring_runtime(16);
        let mut rng = SmallRng::seed_from_u64(3);
        let added = inject(&mut rt, &Fault::AddRandomEdges { count: 5 }, &mut rng);
        assert_eq!(added, 5);
        assert_eq!(rt.topology().edge_count(), 21);
    }

    #[test]
    fn remove_preserving_connectivity() {
        let mut rt = ring_runtime(16);
        let mut rng = SmallRng::seed_from_u64(4);
        // A 16-ring tolerates exactly 1 edge removal while staying connected.
        let removed = inject(
            &mut rt,
            &Fault::RemoveRandomEdges {
                count: 3,
                keep_connected: true,
            },
            &mut rng,
        );
        assert_eq!(removed, 1, "ring minus 2 edges would disconnect");
        assert!(rt.topology().is_connected());
    }

    #[test]
    fn remove_without_connectivity_guard_takes_all() {
        let mut rt = ring_runtime(8);
        let mut rng = SmallRng::seed_from_u64(11);
        let removed = inject(
            &mut rt,
            &Fault::RemoveRandomEdges {
                count: 100,
                keep_connected: false,
            },
            &mut rng,
        );
        assert_eq!(removed, 8, "every ring edge removable without the guard");
        assert_eq!(rt.topology().edge_count(), 0);
    }

    #[test]
    fn rewire_keeps_connectivity() {
        let mut rt = ring_runtime(32);
        let mut rng = SmallRng::seed_from_u64(5);
        inject(&mut rt, &Fault::Rewire { count: 6 }, &mut rng);
        assert!(rt.topology().is_connected());
    }

    #[test]
    fn join_fault_attaches_to_random_members() {
        let mut rt = ring_runtime(8);
        let mut rng = SmallRng::seed_from_u64(6);
        let changed = inject(&mut rt, &Fault::Join { id: 100, attach: 2 }, &mut rng);
        assert_eq!(changed, 1);
        assert_eq!(rt.ids().len(), 9);
        assert_eq!(rt.topology().degree(100), 2);
        // Joining an existing id is a no-op.
        assert_eq!(
            inject(&mut rt, &Fault::Join { id: 100, attach: 2 }, &mut rng),
            0
        );
    }

    #[test]
    fn leave_fault_respects_connectivity_guard() {
        // A star: only leaves (never the hub) keep the survivors connected.
        let edges: Vec<_> = (1..8u32).map(|i| (0, i)).collect();
        let mut rt = Runtime::new(Config::default(), (0..8u32).map(|i| (i, Idle)), edges);
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..5 {
            assert_eq!(
                inject(
                    &mut rt,
                    &Fault::Leave {
                        id: None,
                        keep_connected: true
                    },
                    &mut rng
                ),
                1
            );
            assert!(rt.topology().contains(0), "hub must never be chosen");
            assert!(rt.topology().is_connected());
        }
        assert_eq!(rt.metrics().leaves, 5);
    }

    #[test]
    fn traced_injection_reports_touched_nodes() {
        let mut rt = ring_runtime(8);
        let mut rng = SmallRng::seed_from_u64(21);
        let mut touched = Vec::new();
        let n = inject_traced(
            &mut rt,
            &Fault::AddRandomEdges { count: 3 },
            &mut rng,
            &mut touched,
        );
        assert_eq!(n, 3);
        assert_eq!(touched.len(), 6, "two endpoints per added edge");
        assert!(touched.iter().all(|v| rt.topology().contains(*v)));

        touched.clear();
        inject_traced(
            &mut rt,
            &Fault::Join { id: 50, attach: 2 },
            &mut rng,
            &mut touched,
        );
        assert_eq!(touched[0], 50, "joiner first, then its contacts");
        assert_eq!(touched.len(), 3);

        touched.clear();
        inject_traced(
            &mut rt,
            &Fault::Crash {
                id: Some(3),
                keep_connected: false,
            },
            &mut rng,
            &mut touched,
        );
        assert_eq!(touched, vec![3]);
    }

    #[test]
    fn crash_fault_targets_specific_member() {
        let mut rt = ring_runtime(6);
        let mut rng = SmallRng::seed_from_u64(8);
        let changed = inject(
            &mut rt,
            &Fault::Crash {
                id: Some(3),
                keep_connected: false,
            },
            &mut rng,
        );
        assert_eq!(changed, 1);
        assert!(!rt.topology().contains(3));
        assert_eq!(rt.metrics().crashes, 1);
    }
    /// Golden pin of the RNG draw sequence of the membership faults (the
    /// benchmark and every committed churn table replay it): fixed seed →
    /// fixed joiner contacts and victims, over sparse and dense contact
    /// sampling and guarded and unguarded departures. Values captured at the
    /// commit before `Fault` became the only perturbation vocabulary.
    #[test]
    fn membership_fault_draws_are_pinned() {
        let mut rt = ring_runtime(32);
        let mut rng = SmallRng::seed_from_u64(0xD1CE);
        let departs = |crash: bool, keep_connected: bool| {
            let id = None;
            if crash {
                Fault::Crash { id, keep_connected }
            } else {
                Fault::Leave { id, keep_connected }
            }
        };
        let schedule: [(Fault, &[NodeId]); 7] = [
            (Fault::Join { id: 100, attach: 2 }, &[100, 8, 22]),
            (
                Fault::Join {
                    id: 101,
                    attach: 12,
                },
                &[101, 11, 25, 30, 8, 22, 9, 16, 0, 24, 14, 1, 31],
            ),
            (departs(false, false), &[10]),
            (departs(false, true), &[25]),
            (departs(true, false), &[7]),
            (departs(true, true), &[20]),
            (departs(false, true), &[19]),
        ];
        for (fault, expect) in &schedule {
            let mut touched = Vec::new();
            assert_eq!(inject_traced(&mut rt, fault, &mut rng, &mut touched), 1);
            assert_eq!(&touched, expect, "{fault:?}");
        }
        assert_eq!(rng.gen::<u64>(), 12053436523329737144, "stream position");
    }

    #[test]
    fn join_at_attaches_to_the_named_live_contacts_without_drawing() {
        let mut rt = ring_runtime(8);
        let mut rng = SmallRng::seed_from_u64(6);
        let before = rng.clone().gen::<u64>();
        let fault = Fault::JoinAt {
            id: 100,
            contacts: vec![0, 3, 99],
        };
        let mut touched = Vec::new();
        assert_eq!(inject_traced(&mut rt, &fault, &mut rng, &mut touched), 1);
        assert_eq!(touched, [100, 0, 3], "joiner, then its live contacts");
        assert_eq!(rt.topology().neighbors(100), [0, 3]);
        assert_eq!(inject(&mut rt, &fault, &mut rng), 0, "already a member");
        assert_eq!(rng.gen::<u64>(), before, "no draw");
    }
}
