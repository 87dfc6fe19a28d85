//! Determinism and parallel-equivalence of the full protocol stack:
//! thread-pool round execution (`Config::threads`) must be bit-identical to
//! sequential execution at every thread count, identical seeds must
//! reproduce identical runs, and a restore must continue a run unchanged.
//! The byte-identity cases run on the equivalence harness (`harness`).

mod harness;

use chord_scaffolding::chord::{self, ChordTarget};
use chord_scaffolding::sim::{init::Shape, Config};
use harness::{Case, ACTIVITY, SYNC};

#[test]
fn parallel_execution_matches_sequential() {
    // With threads > 1 every round of the 12-host fixture runs on the pool,
    // so this compares the pooled emit with the sequential one.
    Case::new("parallel", Config::seeded(0xD00D), |cfg| {
        chord::runtime_from_shape(ChordTarget::classic(128), 12, Shape::Random, cfg)
    })
    .threads(&[1, 2, 4, 8])
    .run(|arm| arm.run(1500));
}

/// With a request workload attached, the determinism guarantees extend to
/// traffic: identical seeds reproduce identical request streams (the last
/// run re-runs the first), and the serialized metrics — request accounting
/// and histograms included — are byte-identical across thread counts.
#[test]
fn workload_runs_are_thread_and_seed_deterministic() {
    use chord_scaffolding::sim::{OpenLoop, WorkloadConfig};
    let out = Case::new("traffic", Config::seeded(0xBEA7), |cfg| {
        chord::runtime_from_shape(ChordTarget::classic(128), 12, Shape::Random, cfg)
    })
    .workload(|rt| rt.attach_workload(OpenLoop::new(1.0, 128), WorkloadConfig::default()))
    .threads(&[1, 2, 4, 8, 1])
    .run(|arm| {
        arm.run(1200);
        let r = arm.rt().request_stats();
        assert_eq!(
            r.issued,
            r.completed + r.failed + r.in_flight,
            "conservation law"
        );
    });
    assert!(out.metrics.contains("\"latency_histogram\""));
}

#[test]
fn same_seed_reproduces_run() {
    // The thread axis at {1, 1}: its one run is the straight run's re-run.
    Case::new("lollipop", Config::seeded(0xFACE), |cfg| {
        chord::runtime_from_shape(ChordTarget::classic(64), 8, Shape::Lollipop, cfg)
    })
    .threads(&[1, 1])
    .run(|arm| arm.run(900));
}

#[test]
fn different_seeds_differ() {
    let run = |seed| {
        let target = ChordTarget::classic(64);
        let mut rt = chord::runtime_from_shape(target, 8, Shape::Random, Config::seeded(seed));
        rt.run(400);
        rt.metrics().total_messages
    };
    // Different seeds give different initial graphs and coin flips; the
    // message trace will differ (with overwhelming probability).
    assert_ne!(run(1), run(2));
}

#[test]
fn paper_finger_variant_also_stabilizes() {
    use chord_scaffolding::sim::init;
    use rand::SeedableRng;
    let n = 64u32;
    let target = ChordTarget::paper(n);
    let mut rng = rand::rngs::SmallRng::seed_from_u64(77);
    let ids = init::random_ids(8, n, &mut rng);
    let mut rt = chord::runtime(target, &ids, init::ring(&ids), Config::seeded(99));
    let out = rt.run_monitored(chord::legality(), 100_000);
    assert!(
        out.rounds_if_satisfied().is_some(),
        "Definition 1 variant failed to stabilize"
    );
}

/// A non-Chord instance of the Section-6 pattern goes through the same one
/// recipe as Chord: built, snapshotted mid-run, restored, continued
/// byte-identically, and joined after the restore by a host budgeted for
/// the restored network model.
#[test]
fn truncated_target_stabilizes() {
    use chord_scaffolding::chord::{legality_for, TruncatedChordTarget};
    use chord_scaffolding::sim::{init, Fault, NetModel};
    use rand::SeedableRng;
    let n = 64u32;
    let target = TruncatedChordTarget::new(n, 2);
    let mut rng = rand::rngs::SmallRng::seed_from_u64(78);
    let ids = init::random_ids(6, n, &mut rng);
    let mut rt = chord::runtime(target, &ids, init::line(&ids), Config::seeded(98));
    let out = rt.run_monitored(legality_for(target), 100_000);
    assert!(
        out.rounds_if_satisfied().is_some(),
        "truncated target failed to stabilize"
    );

    // The restore-and-join half: split at round 150 (the restore pins seed
    // and network model from the payload), then a host joins, budgeted for
    // the restored network model.
    let slow = NetModel {
        delay: 2,
        ..NetModel::ideal()
    };
    let fresh = (0..n).find(|v| !ids.contains(v)).expect("a free id");
    Case::new("truncated", Config::seeded(98), |cfg| {
        chord::runtime_with_net(target, &ids, init::line(&ids), cfg, slow)
    })
    .threads(&[1, 2])
    .split(chord::restore_runtime, &[150])
    .run(|arm| {
        arm.run(150);
        let contacts = vec![ids[0]];
        assert_eq!(
            arm.fault(Fault::JoinAt {
                id: fresh,
                contacts
            }),
            1,
            "the join applies"
        );
        let rt = arm.rt();
        let (host, joiner) = (&rt.program(ids[0]).core.cbt, &rt.program(fresh).core.cbt);
        assert_eq!(joiner.sched.delta(), slow.delivery_bound());
        assert_eq!(joiner.sched.delta(), host.sched.delta());
        arm.run(150);
    });
}

/// A settled host's step answers from one cached word (its settled stamp)
/// instead of its record; a restore, a clone and every out-of-band edit
/// start that cache cold. So a run that saves and restores after every
/// round steps every host in full, and must still match the straight run
/// byte for byte. The script exercises both ways the cache could lie: a
/// removed edge starts a revert wave whose messages reach settled hosts
/// with unmoved stamps (only the inbox says "wake up"), and a corrupted
/// settled host must be stepped in full although its neighborhood is
/// unchanged.
#[test]
fn settled_cache_matches_a_cold_restore_every_round() {
    use chord_scaffolding::chord::{Phase, ScaffoldProgram};
    use chord_scaffolding::sim::{Event, NetModel, OpenLoop, WorkloadConfig};
    use std::sync::Arc;
    let (n, hosts, seed) = (1024u32, 256usize, 0xC01D_5EED);
    for daemon in [SYNC, ACTIVITY] {
        let out = Case::new("settled cache", Config::seeded(seed), |cfg| {
            scaffold_bench::legal_chord_runtime(n, hosts, cfg, NetModel::ideal())
        })
        .daemons(&[daemon])
        .workload(|rt| rt.attach_workload(OpenLoop::new(4.0, n), WorkloadConfig::default()))
        .split(chord::restore_runtime, &(0..=48).collect::<Vec<_>>())
        .run(|arm| {
            // Remove the edge of the first host to its lowest neighbor at
            // round 4, then corrupt the first host neither endpoint talks to.
            let ids = arm.rt().ids().to_vec();
            let (a, b) = (ids[0], arm.rt().topology().neighbors(ids[0])[0]);
            arm.run(4);
            assert!(arm.rt().adversarial_remove_edge(a, b));
            arm.run(1);
            let rt = arm.rt();
            let quiet = |v: &&u32| {
                let far = |u: &u32| ![a, b].contains(u);
                rt.program(**v).core.is_settled()
                    && far(v)
                    && rt.topology().neighbors(**v).iter().all(far)
            };
            let id = *ids.iter().find(quiet).expect("a quiet host");
            let mutate = Arc::new(|p: &mut ScaffoldProgram| p.core.phase = Phase::Chord);
            let label = "phase".into();
            assert_eq!(arm.event(Event::Corrupt { id, label, mutate }), 1);
            arm.run(43);
        });
        assert!(out.metrics.contains("\"latency_histogram\""), "lookups ran");
    }
}
