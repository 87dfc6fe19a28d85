//! Simulator integration tests: model-rule enforcement, metrics, and fault
//! interplay over multi-round protocols.

use ssim::fault::{inject, Fault};
use ssim::{Config, Ctx, NodeId, Program, Runtime};

/// Echo protocol: answer every received message once.
struct Echo {
    received: u64,
}

impl Program for Echo {
    type Msg = u32;

    fn step(&mut self, ctx: &mut Ctx<'_, u32>) {
        for &(from, v) in ctx.inbox() {
            self.received += 1;
            if v > 0 {
                ctx.send(from, v - 1);
            }
        }
        if ctx.round == 0 {
            for &v in ctx.neighbors() {
                ctx.send(v, 4);
            }
        }
    }
}

#[test]
fn ping_pong_terminates_and_counts() {
    let mut rt = Runtime::new(
        Config::seeded(1),
        (0..2u32).map(|i| (i, Echo { received: 0 })),
        [(0, 1)],
    );
    rt.run(12);
    // Round 0: both send 4. Then 4,3,2,1,0 bounce back and forth: each node
    // receives values 4,3,2,1,0 = 5 messages.
    assert!(rt.is_silent());
    for (_, p) in rt.programs() {
        assert_eq!(p.received, 5);
    }
    assert_eq!(rt.metrics().total_messages, 10);
}

#[test]
fn per_round_metrics_recorded_when_enabled() {
    let cfg = Config::seeded(2); // record_rounds defaults to true
    let mut rt = Runtime::new(cfg, (0..2u32).map(|i| (i, Echo { received: 0 })), [(0, 1)]);
    rt.run(3);
    assert_eq!(rt.metrics().per_round.len(), 3);
    assert_eq!(rt.metrics().per_round[0].messages, 2);
}

#[test]
fn per_round_metrics_skipped_when_disabled() {
    let mut cfg = Config::seeded(2);
    cfg.record_rounds = false;
    let mut rt = Runtime::new(cfg, (0..2u32).map(|i| (i, Echo { received: 0 })), [(0, 1)]);
    rt.run(3);
    assert!(rt.metrics().per_round.is_empty());
    assert_eq!(rt.metrics().rounds_executed, 3);
}

#[test]
fn faults_between_rounds_change_topology_only() {
    use rand::SeedableRng;
    let ids: Vec<NodeId> = (0..10).collect();
    let edges: Vec<_> = (0..10).map(|i| (i, (i + 1) % 10)).collect();
    let mut rt = Runtime::new(
        Config::seeded(3),
        ids.iter().map(|&i| (i, Echo { received: 0 })),
        edges,
    );
    rt.run(2);
    let mut rng = rand::rngs::SmallRng::seed_from_u64(4);
    let before = rt.topology().edge_count();
    inject(&mut rt, &Fault::AddRandomEdges { count: 3 }, &mut rng);
    assert_eq!(rt.topology().edge_count(), before + 3);
    rt.run(2); // protocol keeps running against the perturbed topology
    assert!(rt.topology().check_invariants());
}

/// A program whose sends target a node that unlinked us the same round:
/// the message must still be delivered (round-start adjacency rules).
struct UnlinkRace;

impl Program for UnlinkRace {
    type Msg = ();

    fn step(&mut self, ctx: &mut Ctx<'_, ()>) {
        if ctx.round == 0 {
            if ctx.id == 0 {
                ctx.unlink(1);
                ctx.send(1, ());
            } else {
                ctx.send(0, ());
            }
        }
    }
}

#[test]
fn sends_use_round_start_adjacency() {
    let mut rt = Runtime::new(
        Config::seeded(5),
        (0..2u32).map(|i| (i, UnlinkRace)),
        [(0, 1)],
    );
    rt.step();
    // Both sends were legal (adjacent at round start) even though the edge
    // is gone afterwards.
    assert_eq!(rt.metrics().total_messages, 2);
    assert!(!rt.topology().has_edge(0, 1));
}

#[test]
fn node_rngs_are_per_node_streams() {
    use rand::Rng;
    struct Roller {
        value: u64,
    }
    impl Program for Roller {
        type Msg = ();
        fn step(&mut self, ctx: &mut Ctx<'_, ()>) {
            self.value = ctx.rng().gen();
        }
    }
    let run = || {
        let cfg = Config::seeded(6);
        let mut rt = Runtime::new(cfg, (0..8u32).map(|i| (i, Roller { value: 0 })), [(0, 1)]);
        rt.step();
        rt.programs().map(|(_, p)| p.value).collect::<Vec<_>>()
    };
    let seq = run();
    assert_eq!(seq, run(), "rng draws are a function of the seed");
    // All distinct (per-node streams).
    let set: std::collections::HashSet<_> = seq.iter().collect();
    assert_eq!(set.len(), seq.len());
}
