//! End-to-end stabilization tests for the Avatar(CBT) algorithm, driven
//! through the generic `Runtime::run_monitored` / `avatar_cbt::legality()`
//! observer API.

use avatar_cbt::legal::{legality, runtime, runtime_is_legal};
use ssim::monitor::RunVerdict;
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
    let out = rt.run_monitored(legality(), budget(n, 2));
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
    let out = rt.run_monitored(legality(), budget(n, 3));
    assert_eq!(out.verdict, RunVerdict::Satisfied, "three hosts failed");
}

#[test]
fn eight_hosts_ring() {
    let n = 64u32;
    let ids: Vec<u32> = vec![1, 9, 17, 25, 33, 41, 49, 57];
    let edges = ssim::init::ring(&ids);
    let mut rt = runtime(n, &ids, edges, Config::seeded(3));
    let out = rt.run_monitored(legality(), budget(n, 8));
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
        let out = rt.run_monitored(legality(), budget(n, 32));
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
    let out = rt.run_monitored(legality(), budget(n, 8));
    assert_eq!(out.verdict, RunVerdict::Satisfied, "initial stabilization");

    // Transient fault: rewire a few edges, keeping connectivity.
    use rand::SeedableRng;
    let mut rng = rand::rngs::SmallRng::seed_from_u64(99);
    inject(&mut rt, &Fault::Rewire { count: 3 }, &mut rng);
    assert!(!runtime_is_legal(&rt), "fault should break legality");

    let out = rt.run_monitored(legality(), budget(n, 8));
    assert_eq!(out.verdict, RunVerdict::Satisfied, "failed to re-stabilize");
}

#[test]
fn restabilizes_after_state_corruption() {
    let n = 64u32;
    let ids: Vec<u32> = vec![1, 9, 17, 25, 33, 41, 49, 57];
    let edges = ssim::init::ring(&ids);
    let mut rt = runtime(n, &ids, edges, Config::seeded(8));
    rt.run_monitored(legality(), budget(n, 8));
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
    let out = rt.run_monitored(legality(), budget(n, 8));
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
    let out = rt.run_monitored(legality(), 10);
    assert_eq!(out.rounds_if_satisfied(), Some(0), "a singleton is legal");
}

#[test]
fn stays_legal_once_stabilized() {
    let n = 64u32;
    let ids: Vec<u32> = vec![1, 9, 17, 25, 33, 41, 49, 57];
    let edges = ssim::init::ring(&ids);
    let mut rt = runtime(n, &ids, edges, Config::seeded(10));
    let out = rt.run_monitored(legality(), budget(n, 8));
    assert_eq!(out.verdict, RunVerdict::Satisfied, "stabilization");
    for _ in 0..2 * avatar_cbt::Schedule::new(n).epoch_len() {
        rt.step();
        assert!(runtime_is_legal(&rt), "legality must be closed under steps");
    }
}

#[test]
fn stabilization_keeps_peak_degree_under_its_ceiling() {
    // The degree-expansion guarantee: the peak degree over the whole run to
    // legality stays within a generous ceiling.
    let n = 64u32;
    let ids: Vec<u32> = vec![1, 9, 17, 25, 33, 41, 49, 57];
    let edges = ssim::init::ring(&ids);
    let mut rt = runtime(n, &ids, edges, Config::seeded(11));
    let out = rt.run_monitored(legality(), budget(n, 8));
    assert_eq!(out.verdict, RunVerdict::Satisfied);
    let peak = rt.metrics().peak_degree;
    assert!(peak < ids.len(), "peak degree {peak} over the budget");
}

#[test]
fn rounds_if_satisfied_gives_the_classic_option_shape() {
    let mut rt = runtime(16, &[3, 9], vec![(3, 9)], Config::seeded(1));
    let rounds = rt
        .run_monitored(legality(), budget(16, 2))
        .rounds_if_satisfied();
    assert!(rounds.is_some());
}

/// CBT stabilization through the monitored driver reaches legality and
/// replays byte-identically from the same seed; `runtime` arms the debug
/// shadow-step check, so it runs under the quiescence auditor the whole
/// way.
#[test]
fn stabilization_replays_identically() {
    let n = 64u32;
    let ids: Vec<u32> = vec![1, 9, 17, 25, 33, 41, 49, 57];
    let run = || {
        let cfg = Config::seeded(21);
        let mut rt = runtime(n, &ids, ssim::init::ring(&ids), cfg);
        let out = rt.run_monitored(legality(), budget(n, ids.len()));
        assert_eq!(out.verdict, RunVerdict::Satisfied);
        (
            out.rounds,
            serde_json::to_string(rt.metrics()).expect("metrics serialize"),
        )
    };
    assert_eq!(run(), run(), "the same seed replays");
}

/// A stabilized standalone network, run on until the quiesce wave has put
/// every host to sleep.
fn dormant_network(seed: u64) -> ssim::Runtime<avatar_cbt::CbtProgram> {
    use avatar_cbt::legal::runtime_from_shape;
    let n = 64u32;
    let mut rt = runtime_from_shape(n, 8, ssim::init::Shape::Random, Config::seeded(seed));
    let out = rt.run_monitored(legality(), budget(n, 8));
    assert_eq!(out.verdict, RunVerdict::Satisfied);
    let epoch = avatar_cbt::Schedule::new(n).epoch_len();
    for _ in 0..64 {
        if rt.programs().all(|(_, p)| p.core.is_dormant()) {
            return rt;
        }
        rt.run(epoch);
    }
    panic!("network failed to go dormant");
}

/// Every host still dormant after `rounds` more rounds, and not a message
/// sent meanwhile.
fn stays_dormant(rt: &mut ssim::Runtime<avatar_cbt::CbtProgram>, rounds: u64, what: &str) {
    let sent = rt.metrics().total_messages;
    rt.run(rounds);
    assert!(rt.programs().all(|(_, p)| p.core.is_dormant()), "{what}");
    assert_eq!(rt.metrics().total_messages, sent, "{what}: traffic");
}

/// The dormant watch under both daemons the shadow check audits: an edge
/// flap that restores every list keeps the network asleep, as do a rollback
/// and a restore (whose hosts compare their lists afresh); a real edge
/// change wakes its two ends, and so does a program carried to a host with
/// another neighborhood. Debug builds also check every verdict the
/// adjacency stamp gives against the list itself.
#[test]
fn dormant_hosts_watch_their_neighbors_under_both_daemons() {
    use avatar_cbt::legal::restore_runtime;
    use ssim::{sched, Checkpoint};
    for (k, spec) in ["sync", "activity"].into_iter().enumerate() {
        let seed = 0x5EE9 + k as u64;
        let daemon = || sched::from_spec(spec, seed).expect("known spec");
        let mut rt = dormant_network(seed);
        rt.set_scheduler(daemon());
        let ck = Checkpoint::capture(&rt);
        let (a, b) = rt.topology().edges()[0];
        assert!(rt.adversarial_remove_edge(a, b));
        assert!(rt.adversarial_add_edge(a, b));
        stays_dormant(&mut rt, 8, &format!("{spec}: edge flap"));
        let ids = rt.ids().to_vec();
        assert_eq!(ck.rollback(&mut rt, &ids), ids.len());
        stays_dormant(&mut rt, 8, &format!("{spec}: rollback"));

        let mut back = restore_runtime(&rt.save_snapshot(), Config::seeded(seed)).unwrap();
        back.set_scheduler(daemon());
        stays_dormant(&mut back, 8, &format!("{spec}: restore"));
        // Host `a`'s program carried to a host whose list differs.
        let c = *ids
            .iter()
            .find(|&&v| rt.topology().neighbors(v) != rt.topology().neighbors(a))
            .expect("two neighborhoods differ");
        let p = back.program(a).clone();
        back.corrupt_node(c, move |q| *q = p);
        back.step();
        assert!(!back.program(c).core.asleep, "{spec}: carried program woke");

        assert!(rt.adversarial_remove_edge(a, b));
        rt.step();
        for v in ids {
            let touched = v == a || v == b;
            assert_eq!(!rt.program(v).core.asleep, touched, "{spec}: node {v}");
        }
    }
}
