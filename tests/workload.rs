//! Live-traffic properties over the full Avatar(Chord) stack: request
//! conservation (`issued == completed + failed + in_flight` at every round
//! boundary), byte-identical metrics — hop and latency histograms included
//! — across thread counts, and sync ≡ activity execution equivalence with
//! traffic attached, all while lookups race real stabilization and churn.
//! The byte-identity cases run on the equivalence harness (`harness`).

mod harness;

use chord_scaffolding::chord::{self, ChordTarget};
use chord_scaffolding::sim::fault::Fault;
use chord_scaffolding::sim::{init::Shape, Config, OpenLoop, RunMetrics, WorkloadConfig};
use harness::{Case, Daemon, ACTIVITY, LEAVE, SYNC};
use proptest::prelude::*;

/// Drive a chord network from a random shape with an open-loop lookup
/// workload attached the whole time, interleaving a churn storm, under the
/// given daemons and thread counts; every run checks the conservation law
/// from its per-round rows. Returns the straight run's metrics JSON.
fn traffic_run(
    seed: u64,
    hosts: usize,
    storm: usize,
    daemons: &[Daemon],
    threads: &[usize],
) -> String {
    let n = 64u32;
    let build = |cfg| chord::runtime_from_shape(ChordTarget::classic(n), hosts, Shape::Random, cfg);
    Case::new(
        format!("seed {seed}, storm {storm}"),
        Config::seeded(seed),
        build,
    )
    .workload(|rt| rt.attach_workload(OpenLoop::new(0.5, n), WorkloadConfig::default()))
    .daemons(daemons)
    .threads(threads)
    .run(|arm| {
        arm.run(150); // traffic racing stabilization from round 0
        for e in 0..storm {
            let rt = arm.rt();
            let fault = if e % 2 == 0 {
                LEAVE
            } else {
                let id = (0..n).find(|v| !rt.topology().contains(*v));
                let id = id.expect("free guest id");
                Fault::Join { id, attach: 2 }
            };
            arm.fault(fault);
            arm.run(120);
        }
        arm.run(150);
        conserved(arm.rt().metrics(), &format!("seed {seed}, storm {storm}"));
    })
    .metrics
}

/// Conservation at every round boundary, reconstructed from the rows.
fn conserved(m: &RunMetrics, run: &str) {
    let (mut issued, mut completed, mut failed) = (0u64, 0u64, 0u64);
    for row in &m.per_round {
        issued += row.requests_issued;
        completed += row.requests_completed;
        failed += row.requests_failed;
        assert_eq!(
            issued,
            completed + failed + row.requests_in_flight,
            "conservation broken at round {} ({run})",
            row.round
        );
    }
    assert_eq!(issued, m.requests.issued);
    assert_eq!(completed, m.requests.completed);
    assert_eq!(failed, m.requests.failed);
    assert_eq!(m.requests.in_flight, issued - completed - failed);
}

/// Deterministic pin of the headline claims: a churny traffic run is
/// byte-identical across thread counts {1, 2, 4, 8} (hop and latency
/// histograms included — they are part of the serialized metrics), and the
/// activity-driven daemon reproduces it exactly modulo activation counts.
#[test]
fn churny_traffic_is_thread_invariant_and_scheduler_equivalent() {
    let base = traffic_run(42, 8, 2, &[SYNC, ACTIVITY], &[1, 2, 4, 8]);
    assert!(base.contains("\"hop_histogram\""), "histograms serialized");
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
    /// conservation law holds at every round boundary (the case's check),
    /// and the serialized metrics — latency histograms included — and the
    /// final snapshots are byte-identical between sequential and
    /// multi-threaded execution of the same (seed, scheduler). (The
    /// vendored proptest harness runs a fixed fan of seeded cases.)
    #[test]
    fn traffic_conservation_and_thread_identity(
        seed in 0u64..100_000,
        hosts in 5usize..8,
        storm in 0usize..3,
        threads in 2usize..9,
        sched in 0u32..2,
    ) {
        let daemon = [SYNC, ACTIVITY][sched as usize];
        traffic_run(seed, hosts, storm, &[daemon], &[1, threads]);
    }
}
