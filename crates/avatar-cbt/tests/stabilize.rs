//! End-to-end stabilization tests for the Avatar(CBT) algorithm, driven
//! through the generic `Runtime::run_monitored` / `avatar_cbt::legality()`
//! observer API.

use avatar_cbt::legal::{legality, runtime, runtime_is_legal};
use ssim::monitor::{MonitorExt, PeakDegree, RunVerdict};
use ssim::Config;

/// Generous round budget: c · E · log n epochs' worth.
fn budget(n: u32, hosts: usize) -> u64 {
    let e = avatar_cbt::Schedule::new(n).epoch_len();
    let logn = (usize::BITS - hosts.leading_zeros()) as u64;
    e * (6 * logn + 12)
}

#[test]
fn two_singletons_merge() {
    let n = 16u32;
    let ids = [3u32, 9];
    let mut rt = runtime(n, &ids, vec![(3, 9)], Config::seeded(1));
    let out = rt.run_monitored(&mut legality(), budget(n, 2));
    assert_eq!(
        out.verdict,
        RunVerdict::Satisfied,
        "two hosts failed to merge"
    );
    assert!(runtime_is_legal(&rt));
}

#[test]
fn three_hosts_line() {
    let n = 16u32;
    let ids = [2u32, 7, 12];
    let mut rt = runtime(n, &ids, vec![(2, 7), (7, 12)], Config::seeded(2));
    let out = rt.run_monitored(&mut legality(), budget(n, 3));
    assert_eq!(out.verdict, RunVerdict::Satisfied, "three hosts failed");
}

#[test]
fn eight_hosts_ring() {
    let n = 64u32;
    let ids: Vec<u32> = vec![1, 9, 17, 25, 33, 41, 49, 57];
    let edges = ssim::init::ring(&ids);
    let mut rt = runtime(n, &ids, edges, Config::seeded(3));
    let out = rt.run_monitored(&mut legality(), budget(n, 8));
    assert_eq!(out.verdict, RunVerdict::Satisfied, "eight hosts failed");
    assert!(runtime_is_legal(&rt));
}

#[test]
fn thirty_two_hosts_from_all_shapes() {
    use avatar_cbt::legal::runtime_from_shape;
    use ssim::init::Shape;
    let n = 256u32;
    for (i, shape) in Shape::ALL.into_iter().enumerate() {
        let mut rt = runtime_from_shape(n, 32, shape, Config::seeded(100 + i as u64));
        let out = rt.run_monitored(&mut legality(), budget(n, 32));
        assert_eq!(
            out.verdict,
            RunVerdict::Satisfied,
            "shape {} failed to stabilize",
            shape.label()
        );
    }
}

#[test]
fn restabilizes_after_edge_faults() {
    use ssim::fault::{inject, Fault};
    let n = 64u32;
    let ids: Vec<u32> = vec![1, 9, 17, 25, 33, 41, 49, 57];
    let edges = ssim::init::ring(&ids);
    let mut rt = runtime(n, &ids, edges, Config::seeded(7));
    let out = rt.run_monitored(&mut legality(), budget(n, 8));
    assert_eq!(out.verdict, RunVerdict::Satisfied, "initial stabilization");

    // Transient fault: rewire a few edges, keeping connectivity.
    use rand::SeedableRng;
    let mut rng = rand::rngs::SmallRng::seed_from_u64(99);
    inject(&mut rt, &Fault::Rewire { count: 3 }, &mut rng);
    assert!(!runtime_is_legal(&rt), "fault should break legality");

    let out = rt.run_monitored(&mut legality(), budget(n, 8));
    assert_eq!(out.verdict, RunVerdict::Satisfied, "failed to re-stabilize");
}

#[test]
fn restabilizes_after_state_corruption() {
    let n = 64u32;
    let ids: Vec<u32> = vec![1, 9, 17, 25, 33, 41, 49, 57];
    let edges = ssim::init::ring(&ids);
    let mut rt = runtime(n, &ids, edges, Config::seeded(8));
    rt.run_monitored(&mut legality(), budget(n, 8));
    assert!(runtime_is_legal(&rt), "initial stabilization");

    // Corrupt three hosts' cluster state arbitrarily.
    for (v, cid, range) in [
        (9u32, 77u64, (0u32, 64u32)),
        (25, 78, (3, 9)),
        (41, 77, (40, 64)),
    ] {
        rt.corrupt_node(v, |p| {
            p.core.core.cid = cid;
            p.core.core.range = range;
            p.core.core.cluster_min = 0;
        });
    }
    let out = rt.run_monitored(&mut legality(), budget(n, 8));
    assert_eq!(
        out.verdict,
        RunVerdict::Satisfied,
        "failed after corruption"
    );
    assert!(runtime_is_legal(&rt));
}

#[test]
fn single_host_is_immediately_legal() {
    let mut rt = runtime(16, &[5], vec![], Config::seeded(9));
    let out = rt.run_monitored(&mut legality(), 10);
    assert_eq!(out.rounds_if_satisfied(), Some(0), "a singleton is legal");
}

#[test]
fn stays_legal_once_stabilized() {
    let n = 64u32;
    let ids: Vec<u32> = vec![1, 9, 17, 25, 33, 41, 49, 57];
    let edges = ssim::init::ring(&ids);
    let mut rt = runtime(n, &ids, edges, Config::seeded(10));
    let out = rt.run_monitored(&mut legality(), budget(n, 8));
    assert_eq!(out.verdict, RunVerdict::Satisfied, "stabilization");
    for _ in 0..2 * avatar_cbt::Schedule::new(n).epoch_len() {
        rt.step();
        assert!(runtime_is_legal(&rt), "legality must be closed under steps");
    }
}

#[test]
fn composed_monitor_enforces_degree_budget_while_stabilizing() {
    // The degree-expansion guarantee as an inline invariant: legality AND a
    // generous peak-degree ceiling, one driver call.
    let n = 64u32;
    let ids: Vec<u32> = vec![1, 9, 17, 25, 33, 41, 49, 57];
    let edges = ssim::init::ring(&ids);
    let mut rt = runtime(n, &ids, edges, Config::seeded(11));
    let mut monitor = legality().and(PeakDegree::at_most(ids.len() - 1));
    let out = rt.run_monitored(&mut monitor, budget(n, 8));
    assert_eq!(out.verdict, RunVerdict::Satisfied, "{:?}", out.reason);
}

#[test]
fn rounds_if_satisfied_gives_the_classic_option_shape() {
    let mut rt = runtime(16, &[3, 9], vec![(3, 9)], Config::seeded(1));
    let rounds = rt
        .run_monitored(&mut legality(), budget(16, 2))
        .rounds_if_satisfied();
    assert!(rounds.is_some());
}

/// CBT stabilization through the monitored driver is byte-identical at
/// every thread count: `runtime` arms the debug shadow-step check, so the
/// pooled emit also runs under the quiescence auditor the whole way.
#[test]
fn stabilization_is_thread_invariant() {
    let n = 64u32;
    let ids: Vec<u32> = vec![1, 9, 17, 25, 33, 41, 49, 57];
    let run = |threads: usize| {
        let cfg = Config::seeded(21).threads(threads).always_parallel();
        let mut rt = runtime(n, &ids, ssim::init::ring(&ids), cfg);
        let out = rt.run_monitored(&mut legality(), budget(n, ids.len()));
        assert_eq!(out.verdict, RunVerdict::Satisfied, "{threads} threads");
        (
            out.rounds,
            serde_json::to_string(rt.metrics()).expect("metrics serialize"),
        )
    };
    let sequential = run(1);
    for threads in [2usize, 4, 8] {
        assert_eq!(sequential, run(threads), "{threads} threads diverged");
    }
}
