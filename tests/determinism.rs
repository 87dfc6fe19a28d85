//! Determinism and parallel-equivalence of the full protocol stack:
//! thread-pool round execution (`ssim::par`) must be bit-identical to
//! sequential execution at every thread count, and identical seeds must
//! reproduce identical runs.

use chord_scaffolding::chord::{self, ChordTarget};
use chord_scaffolding::sim::{init::Shape, Config};

fn fingerprint(
    rt: &chord_scaffolding::sim::Runtime<chord::ScaffoldProgram>,
) -> (Vec<(u32, u32)>, u64, usize) {
    (
        rt.topology().edges(),
        rt.metrics().total_messages,
        rt.metrics().peak_degree,
    )
}

#[test]
fn parallel_execution_matches_sequential() {
    let n = 128u32;
    let hosts = 12usize;
    // `always_parallel` pins the pool path: without it the auto-sequential
    // heuristic would keep a 12-host fixture off the pool entirely and the
    // test would only re-check the sequential path against itself.
    let run = |threads: usize| {
        let target = ChordTarget::classic(n);
        let mut cfg = Config::seeded(0xD00D).threads(threads).always_parallel();
        cfg.record_rounds = false;
        let mut rt = chord::runtime_from_shape(target, hosts, Shape::Random, cfg);
        rt.run(1500);
        fingerprint(&rt)
    };
    let sequential = run(1);
    for threads in [2usize, 4, 8] {
        assert_eq!(sequential, run(threads), "{threads} threads");
    }
}

/// With a request workload attached, the determinism guarantees extend to
/// traffic: identical seeds reproduce identical request streams, and the
/// serialized metrics — request accounting and histograms included — are
/// byte-identical across thread counts.
#[test]
fn workload_runs_are_thread_and_seed_deterministic() {
    use chord_scaffolding::sim::{OpenLoop, WorkloadConfig};
    let run = |threads: usize| {
        let target = ChordTarget::classic(128);
        let mut cfg = Config::seeded(0xBEA7).threads(threads).always_parallel();
        cfg.record_rounds = false;
        let mut rt = chord::runtime_from_shape(target, 12, Shape::Random, cfg);
        rt.attach_workload(OpenLoop::new(1.0, 128), WorkloadConfig::default());
        rt.run(1200);
        assert_eq!(
            rt.metrics().requests.issued,
            rt.metrics().requests.completed
                + rt.metrics().requests.failed
                + rt.metrics().requests.in_flight,
            "conservation law"
        );
        serde_json::to_string(rt.metrics()).expect("metrics serialize")
    };
    let sequential = run(1);
    assert!(sequential.contains("\"latency_histogram\""));
    assert_eq!(sequential, run(2));
    assert_eq!(sequential, run(4));
    assert_eq!(sequential, run(8));
    assert_eq!(sequential, run(1), "same seed reproduces the traffic");
}

#[test]
fn same_seed_reproduces_run() {
    let run = || {
        let target = ChordTarget::classic(64);
        let mut rt = chord::runtime_from_shape(target, 8, Shape::Lollipop, Config::seeded(0xFACE));
        rt.run(900);
        fingerprint(&rt)
    };
    assert_eq!(run(), run());
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
    let out = rt.run_monitored(&mut chord::legality(), 100_000);
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
    use chord_scaffolding::sim::{fault, init, Fault, NetModel};
    use rand::SeedableRng;
    let n = 64u32;
    let target = TruncatedChordTarget::new(n, 2);
    let mut rng = rand::rngs::SmallRng::seed_from_u64(78);
    let ids = init::random_ids(6, n, &mut rng);
    let mut rt = chord::runtime(target, &ids, init::line(&ids), Config::seeded(98));
    let out = rt.run_monitored(&mut legality_for(target), 100_000);
    assert!(
        out.rounds_if_satisfied().is_some(),
        "truncated target failed to stabilize"
    );

    let slow = NetModel {
        delay: 2,
        ..NetModel::ideal()
    };
    let fresh = (0..n).find(|v| !ids.contains(v)).expect("a free id");
    let join = Fault::JoinAt {
        id: fresh,
        contacts: vec![ids[0]],
    };
    let build =
        || chord::runtime_with_net(target, &ids, init::line(&ids), Config::seeded(98), slow);
    let metrics = |rt: &chord_scaffolding::sim::Runtime<_>| {
        serde_json::to_string(rt.metrics()).expect("metrics serialize")
    };

    let mut full = build();
    full.run(150);
    let mut head = build();
    head.run(150);
    // The restore pins seed and network model from the payload.
    let mut tail = chord::restore_runtime::<TruncatedChordTarget>(
        &head.save_snapshot(),
        Config::seeded(0).threads(2).always_parallel(),
    )
    .expect("own snapshot restores");
    for rt in [&mut full, &mut tail] {
        assert_eq!(fault::inject(rt, &join, &mut rng), 1, "the join applies");
        let (host, joiner) = (&rt.program(ids[0]).core.cbt, &rt.program(fresh).core.cbt);
        assert_eq!(joiner.sched.delta(), slow.delivery_bound());
        assert_eq!(joiner.sched.delta(), host.sched.delta());
        rt.run(150);
    }
    assert_eq!(metrics(&full), metrics(&tail));
    assert_eq!(full.save_snapshot(), tail.save_snapshot());
}
