//! Live-traffic properties over the full Avatar(Chord) stack: request
//! conservation (`issued == completed + failed + in_flight` at every round
//! boundary), byte-identical metrics — hop and latency histograms included
//! — across thread counts, and sync ≡ activity execution equivalence with
//! traffic attached, all while lookups race real stabilization and churn.

use chord_scaffolding::chord::{self, ChordTarget};
use chord_scaffolding::sim::fault::Fault;
use chord_scaffolding::sim::sched::ActivityDriven;
use chord_scaffolding::sim::{init::Shape, Config, OpenLoop, WorkloadConfig};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Drive a chord network from a random shape with an open-loop lookup
/// workload attached the whole time, interleaving a churn storm; assert
/// the conservation law from the per-round rows; fingerprint the metrics.
fn traffic_run(seed: u64, hosts: usize, storm: usize, threads: usize, activity: bool) -> String {
    let n = 64u32;
    // record_rounds: true; with threads > 1 every round runs the chunked
    // emit on the pool.
    let cfg = Config::seeded(seed).threads(threads);
    let mut rt = chord::runtime_from_shape(ChordTarget::classic(n), hosts, Shape::Random, cfg);
    if activity {
        rt.set_scheduler(Box::new(ActivityDriven));
    }
    rt.attach_workload(OpenLoop::new(0.5, n), WorkloadConfig::default());
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x007A_FF1C);
    rt.run(150); // traffic racing stabilization from round 0
    for e in 0..storm {
        let fault = if e % 2 == 0 {
            Fault::Leave {
                id: None,
                keep_connected: true,
            }
        } else {
            let id = (0..n)
                .find(|v| !rt.topology().contains(*v))
                .expect("free guest id");
            Fault::Join { id, attach: 2 }
        };
        chord_scaffolding::sim::fault::inject(&mut rt, &fault, &mut rng);
        rt.run(120);
    }
    rt.run(150);

    // Conservation at every round boundary, reconstructed from the rows.
    let m = rt.metrics();
    let (mut issued, mut completed, mut failed) = (0u64, 0u64, 0u64);
    for row in &m.per_round {
        issued += row.requests_issued;
        completed += row.requests_completed;
        failed += row.requests_failed;
        assert_eq!(
            issued,
            completed + failed + row.requests_in_flight,
            "conservation broken at round {} (seed {seed}, storm {storm}, \
             threads {threads}, activity {activity})",
            row.round
        );
    }
    assert_eq!(issued, m.requests.issued);
    assert_eq!(completed, m.requests.completed);
    assert_eq!(failed, m.requests.failed);
    assert_eq!(m.requests.in_flight, issued - completed - failed);
    serde_json::to_string(m).expect("metrics serialize")
}

/// Strip the scheduler-dependent activity columns (activations legitimately
/// differ between daemons; every request metric must not).
fn activity_blind(metrics_json: &str) -> String {
    chord_scaffolding::sim::metrics::blank_json_fields(
        metrics_json,
        &["total_activations", "active_nodes"],
    )
}

/// Deterministic pin of the headline claims: a churny traffic run is
/// byte-identical across thread counts {1, 2, 4} (hop and latency
/// histograms included — they are part of the serialized metrics), and the
/// activity-driven daemon reproduces it exactly modulo activation counts.
#[test]
fn churny_traffic_is_thread_invariant_and_scheduler_equivalent() {
    let base = traffic_run(42, 8, 2, 1, false);
    assert!(base.contains("\"hop_histogram\""), "histograms serialized");
    assert_eq!(base, traffic_run(42, 8, 2, 2, false), "2 threads");
    assert_eq!(base, traffic_run(42, 8, 2, 4, false), "4 threads");
    assert_eq!(base, traffic_run(42, 8, 2, 8, false), "8 threads");
    let act = traffic_run(42, 8, 2, 1, true);
    assert_eq!(
        activity_blind(&base),
        activity_blind(&act),
        "activity ≡ sync with live traffic"
    );
}

/// Lookups on the converged overlay route in O(log N) host hops — the
/// end-to-end payoff, measured on live links rather than the ideal table.
#[test]
fn converged_overlay_serves_lookups_with_logarithmic_hops() {
    let n = 64u32;
    let hosts = 8usize;
    let mut rt = chord::runtime_from_shape(
        ChordTarget::classic(n),
        hosts,
        Shape::Random,
        Config::seeded(7),
    );
    let out = rt.run_monitored(chord::legality(), 50_000);
    assert!(out.rounds_if_satisfied().is_some(), "must stabilize");
    rt.attach_workload(
        OpenLoop::new(4.0, n).limited(400),
        WorkloadConfig::default(),
    );
    rt.run(400 / 4 + 64);
    let s = rt.request_stats();
    assert_eq!(s.issued, 400);
    assert_eq!(s.completed, 400, "all lookups land on the legal overlay");
    assert!(
        s.max_hops_seen() <= 14,
        "host hops bounded by ~2·log2(64): got {}",
        s.max_hops_seen()
    );
    assert!(
        chord::runtime_is_legal(&rt),
        "traffic never perturbs legality"
    );
}

proptest! {
    /// Property form over (seed, churn storm, scheduler, threads): the
    /// conservation law holds at every round boundary (asserted inside
    /// `traffic_run`), and the serialized metrics — latency histograms
    /// included — are byte-identical between sequential and multi-threaded
    /// execution of the same (seed, scheduler). (The vendored proptest
    /// harness runs a fixed fan of seeded cases.)
    #[test]
    fn traffic_conservation_and_thread_identity(
        seed in 0u64..100_000,
        hosts in 5usize..8,
        storm in 0usize..3,
        threads in 2usize..9,
        sched in 0u32..2,
    ) {
        let activity = sched == 1;
        let sequential = traffic_run(seed, hosts, storm, 1, activity);
        let parallel = traffic_run(seed, hosts, storm, threads, activity);
        prop_assert_eq!(
            sequential, parallel,
            "threads {} diverged (seed {}, storm {}, activity {})",
            threads, seed, storm, activity
        );
    }
}
