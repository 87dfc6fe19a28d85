//! End-to-end: arbitrary connected start → silent legal Avatar(Chord),
//! driven through the `Runtime::run_monitored` / `legality()` observer API.

use chord_scaffold::{legality, runtime, runtime_from_shape, runtime_is_legal, ChordTarget};
use ssim::monitor::RunVerdict;
use ssim::Config;

fn budget(n: u32, hosts: usize) -> u64 {
    let e = avatar_cbt::Schedule::new(n).epoch_len();
    let logn = (usize::BITS - hosts.leading_zeros()) as u64;
    e * (6 * logn + 12)
}

#[test]
fn single_host_builds_chord_alone() {
    let t = ChordTarget::classic(16);
    let mut rt = runtime(t, &[5], vec![], Config::seeded(1));
    let out = rt.run_monitored(legality(), budget(16, 1));
    assert_eq!(
        out.verdict,
        RunVerdict::Satisfied,
        "single host failed: {:?}",
        rt.topology().edges()
    );
}

#[test]
fn two_hosts_build_chord() {
    let t = ChordTarget::classic(16);
    let mut rt = runtime(t, &[3, 9], vec![(3, 9)], Config::seeded(2));
    let out = rt.run_monitored(legality(), budget(16, 2));
    assert_eq!(out.verdict, RunVerdict::Satisfied, "two hosts failed");
}

#[test]
fn eight_hosts_ring_build_chord() {
    let t = ChordTarget::classic(64);
    let ids: Vec<u32> = vec![1, 9, 17, 25, 33, 41, 49, 57];
    let edges = ssim::init::ring(&ids);
    let mut rt = runtime(t, &ids, edges, Config::seeded(3));
    let out = rt.run_monitored(legality(), budget(64, 8));
    assert_eq!(out.verdict, RunVerdict::Satisfied, "eight hosts failed");
    assert!(runtime_is_legal(&rt));
}

#[test]
fn silent_after_stabilization() {
    let t = ChordTarget::classic(64);
    let ids: Vec<u32> = vec![1, 9, 17, 25, 33, 41, 49, 57];
    let edges = ssim::init::ring(&ids);
    let mut rt = runtime(t, &ids, edges, Config::seeded(4));
    let out = rt.run_monitored(legality(), budget(64, 8));
    assert_eq!(out.verdict, RunVerdict::Satisfied, "stabilization");
    // Let in-flight traffic drain, then require absolute silence: the
    // combined goal legality ∧ silence is one predicate.
    let out = rt.run_monitored(|rt| runtime_is_legal(rt) && rt.is_silent(), 10);
    assert_eq!(out.verdict, RunVerdict::Satisfied, "must drain to silence");
    let before = rt.metrics().total_messages;
    for _ in 0..50 {
        rt.step();
        assert!(runtime_is_legal(&rt), "must remain legal while silent");
    }
    assert_eq!(
        rt.metrics().total_messages,
        before,
        "a legal Avatar(Chord) network must be silent"
    );
}

#[test]
fn sixteen_hosts_random_shape() {
    let t = ChordTarget::classic(128);
    let mut rt = runtime_from_shape(t, 16, ssim::init::Shape::Random, Config::seeded(5));
    let out = rt.run_monitored(legality(), budget(128, 16));
    assert_eq!(
        out.verdict,
        RunVerdict::Satisfied,
        "16 hosts (random) failed"
    );
}

#[test]
fn wakes_and_rebuilds_after_perturbation() {
    let t = ChordTarget::classic(64);
    let ids: Vec<u32> = vec![1, 9, 17, 25, 33, 41, 49, 57];
    let edges = ssim::init::ring(&ids);
    let mut rt = runtime(t, &ids, edges, Config::seeded(6));
    let out = rt.run_monitored(legality(), budget(64, 8));
    assert_eq!(out.verdict, RunVerdict::Satisfied, "initial stabilization");
    for _ in 0..5 {
        rt.step();
    }
    // Adversarially delete a required edge (the 1–9 successor edge): the
    // silent DONE network must notice via its neighbor cache and rebuild.
    // The network stays connected through the finger edges.
    assert!(rt.adversarial_remove_edge(1, 9));
    assert!(rt.topology().is_connected());
    assert!(!runtime_is_legal(&rt));
    let out = rt.run_monitored(legality(), budget(64, 8));
    assert_eq!(out.verdict, RunVerdict::Satisfied, "failed to recover");
}

#[test]
fn rounds_if_satisfied_gives_the_classic_option_shape() {
    let t = ChordTarget::classic(16);
    let mut rt = runtime(t, &[3, 9], vec![(3, 9)], Config::seeded(2));
    let rounds = rt
        .run_monitored(legality(), budget(16, 2))
        .rounds_if_satisfied();
    assert!(rounds.is_some());
}

/// The full CBT → Chord build through the monitored driver reaches
/// legality and replays byte-identically from the same seed; `runtime`
/// arms the debug shadow-step check, so it runs under the quiescence
/// auditor for the whole stabilization.
#[test]
fn stabilization_replays_identically() {
    let t = ChordTarget::classic(64);
    let ids: Vec<u32> = vec![1, 9, 17, 25, 33, 41, 49, 57];
    let run = || {
        let cfg = Config::seeded(22);
        let mut rt = runtime(t, &ids, ssim::init::ring(&ids), cfg);
        let out = rt.run_monitored(legality(), budget(64, ids.len()));
        assert_eq!(out.verdict, RunVerdict::Satisfied);
        assert!(runtime_is_legal(&rt));
        (
            out.rounds,
            serde_json::to_string(rt.metrics()).expect("metrics serialize"),
        )
    };
    assert_eq!(run(), run(), "the same seed replays");
}
