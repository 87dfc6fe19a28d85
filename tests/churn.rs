//! Dynamic-membership properties: re-stabilization under scripted churn,
//! determinism of scenario runs, and runtime well-formedness when leaves
//! disconnect the network (cut vertices).

use chord_scaffolding::chord::{self, ChordTarget};
use chord_scaffolding::sim::fault::Fault;
use chord_scaffolding::sim::scenario::Scenario;
use chord_scaffolding::sim::{init::Shape, Config};
use scaffold_bench::budget;

/// (a) A stabilized Avatar(Chord) re-stabilizes to the legal configuration
/// of the *changed* host set after scripted joins, a leave, and a crash —
/// across several seeds.
#[test]
fn stabilized_chord_restabilizes_after_scripted_churn() {
    let n = 64u32;
    let hosts = 8usize;
    let target = ChordTarget::classic(n);
    for seed in 0..3u64 {
        let mut rt =
            chord::runtime_from_shape(target, hosts, Shape::Random, Config::seeded(900 + seed));
        rt.run_monitored(chord::legality(), budget(n, hosts));
        assert!(chord::runtime_is_legal(&rt), "seed {seed}: initial");

        let taken: std::collections::HashSet<u32> = rt.ids().iter().copied().collect();
        let mut fresh = (0..n).filter(|v| !taken.contains(v));
        let (a, b) = (fresh.next().unwrap(), fresh.next().unwrap());
        let gap = chord_scaffolding::scaffold::Schedule::new(n).epoch_len();

        let scenario = Scenario::new(format!("churn-{seed}"))
            .seeded(seed)
            .fault(0, Fault::Join { id: a, attach: 2 })
            .fault(
                gap,
                Fault::Leave {
                    id: None,
                    keep_connected: true,
                },
            )
            .fault(2 * gap, Fault::Join { id: b, attach: 1 })
            .fault(
                3 * gap,
                Fault::Crash {
                    id: None,
                    keep_connected: true,
                },
            );
        let report = scenario.run(&mut rt, chord::legality(), 4 * gap + 2 * budget(n, hosts));
        assert!(
            report.converged(),
            "seed {seed}: {:?} after {} rounds",
            report.verdict,
            report.rounds
        );
        assert_eq!(report.nodes_final, hosts, "+2 joins, -1 leave, -1 crash");
        assert_eq!((report.joins, report.leaves, report.crashes), (2, 1, 1));
        assert!(
            chord::runtime_is_legal(&rt),
            "seed {seed}: legality of the new host set"
        );
    }
}

/// (b) Scenario runs are deterministic: identical runtimes + identical
/// schedules produce bit-identical reports and final topologies.
#[test]
fn scenario_runs_are_deterministic() {
    let n = 64u32;
    let hosts = 8usize;
    let target = ChordTarget::classic(n);
    let gap = chord_scaffolding::scaffold::Schedule::new(n).epoch_len();
    let run = || {
        let mut rt =
            chord::runtime_from_shape(target, hosts, Shape::Lollipop, Config::seeded(0xFACE));
        rt.run_monitored(chord::legality(), budget(n, hosts));
        let scenario = Scenario::new("determinism")
            .seeded(31337)
            .fault(0, Fault::Rewire { count: 2 })
            .fault(
                gap / 2,
                Fault::Leave {
                    id: None,
                    keep_connected: true,
                },
            )
            .fault(gap, Fault::Join { id: 2, attach: 2 })
            .fault(
                2 * gap,
                Fault::Crash {
                    id: None,
                    keep_connected: true,
                },
            );
        let report = scenario.run(&mut rt, chord::legality(), 3 * gap + budget(n, hosts));
        (
            report.to_json(),
            rt.topology().edges(),
            rt.metrics().total_messages,
            rt.ids().to_vec(),
        )
    };
    assert_eq!(run(), run());
}

/// (c) Leaving a cut vertex disconnects the network but keeps the runtime
/// well-formed: invariants hold, the survivors keep stepping, and hosts can
/// re-join and re-attach across the fragments.
#[test]
fn leave_of_cut_vertex_keeps_runtime_well_formed() {
    use chord_scaffolding::sim::{Ctx, Program, Runtime};

    /// Chatters with all neighbors every round.
    struct Chatter;
    impl Program for Chatter {
        type Msg = u8;
        fn step(&mut self, ctx: &mut Ctx<'_, u8>) {
            for &v in ctx.neighbors() {
                ctx.send(v, 1);
            }
        }
    }

    // A line 0-1-…-9: every interior node is a cut vertex.
    let mut rt = Runtime::new(
        Config::seeded(5),
        (0..10u32).map(|i| (i, Chatter)),
        (0..9u32).map(|i| (i, i + 1)),
    )
    .with_spawner(|_| Chatter);
    rt.run(3);

    assert!(rt.leave(5).is_some(), "interior node leaves");
    assert!(!rt.topology().is_connected(), "5 was a cut vertex");
    assert!(rt.topology().check_invariants());
    assert_eq!(rt.ids().len(), 9);

    // Both fragments keep executing rounds (no panics, sends validated
    // against the shrunk adjacency), under the strict default config.
    rt.run(5);
    assert!(rt.topology().check_invariants());

    // A re-join bridging the fragments reconnects the network.
    rt.join_spawned(5, &[4, 6]);
    assert!(rt.topology().is_connected(), "rejoin bridges the cut");
    rt.run(5);
    assert!(rt.topology().check_invariants());
    assert_eq!(rt.metrics().leaves, 1);
    assert_eq!(rt.metrics().joins, 1);
}

/// (c'） Property form over random trees: removing any interior node of a
/// random spanning tree leaves a well-formed, steppable runtime.
#[test]
fn random_tree_cut_vertex_leaves_are_well_formed() {
    use chord_scaffolding::sim::{init, Ctx, Program, Runtime};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    struct Quiet;
    impl Program for Quiet {
        type Msg = ();
        fn step(&mut self, ctx: &mut Ctx<'_, ()>) {
            // Talk to the first neighbor only (exercises send validation).
            if let Some(&v) = ctx.neighbors().first() {
                ctx.send(v, ());
            }
        }
    }

    for seed in 0..25u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let ids = init::random_ids(12, 64, &mut rng);
        let edges = init::random_connected(&ids, 0, &mut rng); // spanning tree
        let mut rt = Runtime::new(Config::seeded(seed), ids.iter().map(|&v| (v, Quiet)), edges);
        rt.run(2);
        // Leave the highest-degree node: in a tree with n ≥ 3 it is
        // guaranteed to be interior, i.e. a cut vertex.
        let hub = *ids
            .iter()
            .max_by_key(|&&v| rt.topology().degree(v))
            .unwrap();
        assert!(rt.topology().degree(hub) >= 2, "seed {seed}: hub interior");
        rt.leave(hub).unwrap();
        assert!(!rt.topology().is_connected(), "seed {seed}: tree split");
        assert!(rt.topology().check_invariants(), "seed {seed}");
        rt.run(4);
        assert!(rt.topology().check_invariants(), "seed {seed}");
        assert_eq!(rt.ids().len(), 11, "seed {seed}");
        assert!(rt.is_silent() || rt.metrics().total_messages > 0);
    }
}
