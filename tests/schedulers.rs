//! Scheduler-subsystem properties over the full protocol stack:
//!
//! * **Equivalence** — for well-behaved programs (avatar-cbt with its
//!   quiesce wave, chord-scaffold with its settled DONE phase), the
//!   activity-driven daemon reproduces the synchronous daemon's execution
//!   *exactly* — identical final topologies, identical message totals,
//!   identical legality verdicts — on clean runs and through random churn
//!   storms. Debug builds run the shadow-step check throughout (armed by
//!   the protocol runtime builders), so any skipped non-no-op step panics.
//! * **Determinism** — for every scheduler, identical `(seed, scheduler)`
//!   runs produce byte-identical metrics JSON across thread counts
//!   {1, 2, 4}.
//! * **Savings** — after convergence, the activity-driven daemon performs
//!   (almost) no activations while the synchronous daemon keeps paying
//!   `n` per round.

use chord_scaffolding::chord::{self, ChordTarget};
use chord_scaffolding::scaffold;
use chord_scaffolding::sim::fault::Fault;
use chord_scaffolding::sim::sched::{ActivityDriven, RandomSubset, Scheduler, Synchronous};
use chord_scaffolding::sim::{init::Shape, Config};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn budget(n: u32, hosts: usize) -> u64 {
    let e = scaffold::Schedule::new(n).epoch_len();
    let logn = (usize::BITS - hosts.leading_zeros()) as u64;
    e * (8 * logn + 16)
}

/// Drive an avatar-cbt network to legality (and beyond) under the given
/// scheduler, sprinkling `storm` churn events from a seeded RNG, and
/// fingerprint the outcome (the last field: rounds that activated someone
/// but did not run their emit on the pool).
fn cbt_run(
    seed: u64,
    hosts: usize,
    storm: usize,
    threads: usize,
    make: impl Fn() -> Box<dyn Scheduler>,
) -> (bool, Vec<(u32, u32)>, u64, String, u64) {
    let n = 64u32;
    let cfg = Config::seeded(seed).threads(threads);
    let mut rt = scaffold::runtime_from_shape(n, hosts, Shape::Random, cfg);
    rt.set_scheduler(make());
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x57_0B_13);
    let mut fresh = n; // ids ≥ n would be invalid hosts; draw below n instead
    let gap = scaffold::Schedule::new(n).epoch_len();
    // Converge once, then interleave churn events with re-convergence.
    let out = rt.run_monitored(scaffold::legality(), budget(n, hosts));
    let converged = out.rounds_if_satisfied().is_some();
    for _ in 0..storm {
        let fault = match rng.gen_range(0..4u32) {
            0 => {
                // A fresh host id not currently a member.
                let id = loop {
                    fresh = (fresh + 7) % n;
                    if !rt.topology().contains(fresh) {
                        break fresh;
                    }
                };
                Fault::Join { id, attach: 2 }
            }
            1 => Fault::Leave {
                id: None,
                keep_connected: true,
            },
            2 => Fault::AddRandomEdges { count: 1 },
            _ => Fault::Rewire { count: 1 },
        };
        chord_scaffolding::sim::fault::inject(&mut rt, &fault, &mut rng);
        rt.run(gap);
    }
    let healed = rt
        .run_monitored(scaffold::legality(), 2 * budget(n, hosts))
        .rounds_if_satisfied()
        .is_some();
    let rows = &rt.metrics().per_round;
    let busy = rows.iter().filter(|r| r.active_nodes > 0).count() as u64;
    (
        converged && healed,
        rt.topology().edges(),
        rt.metrics().total_messages,
        serde_json::to_string(rt.metrics()).expect("metrics serialize"),
        busy - rt.perf_counters().par_rounds,
    )
}

/// Same harness for the full Avatar(Chord) stack.
fn chord_run(
    seed: u64,
    hosts: usize,
    churn: bool,
    threads: usize,
    make: impl Fn() -> Box<dyn Scheduler>,
) -> (bool, Vec<(u32, u32)>, u64, String) {
    let n = 64u32;
    let target = ChordTarget::classic(n);
    let cfg = Config::seeded(seed).threads(threads);
    let mut rt = chord::runtime_from_shape(target, hosts, Shape::Random, cfg);
    rt.set_scheduler(make());
    let out = rt.run_monitored(chord::legality(), budget(n, hosts));
    let converged = out.rounds_if_satisfied().is_some();
    if churn {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xC4_42);
        let gap = scaffold::Schedule::new(n).epoch_len();
        chord_scaffolding::sim::fault::inject(
            &mut rt,
            &Fault::Leave {
                id: None,
                keep_connected: true,
            },
            &mut rng,
        );
        rt.run(gap);
        let id = (0..n).find(|v| !rt.topology().contains(*v)).unwrap();
        chord_scaffolding::sim::fault::inject(&mut rt, &Fault::Join { id, attach: 2 }, &mut rng);
    }
    let healed = rt
        .run_monitored(chord::legality(), 2 * budget(n, hosts))
        .rounds_if_satisfied()
        .is_some();
    (
        converged && healed,
        rt.topology().edges(),
        rt.metrics().total_messages,
        serde_json::to_string(rt.metrics()).expect("metrics serialize"),
    )
}

/// Strip the per-scheduler activity columns from a metrics fingerprint so
/// executions can be compared across *daemons* (activations legitimately
/// differ; everything else must not).
fn activity_blind(metrics_json: &str) -> String {
    chord_scaffolding::sim::metrics::blank_json_fields(
        metrics_json,
        &["total_activations", "active_nodes"],
    )
}

/// ActivityDriven reproduces Synchronous *exactly* for avatar-cbt — same
/// final topology, same legality verdict, same message totals, even the
/// same per-round metric rows (modulo the activation columns) — across
/// several seeds and through churn storms, with the debug shadow check
/// auditing every skip.
#[test]
fn cbt_activity_driven_is_execution_equivalent_to_synchronous() {
    for seed in [3u64, 11, 42] {
        let sync = cbt_run(seed, 8, 3, 1, || Box::new(Synchronous));
        let act = cbt_run(seed, 8, 3, 1, || Box::new(ActivityDriven));
        assert!(sync.0, "seed {seed}: synchronous run must converge & heal");
        assert_eq!(sync.0, act.0, "seed {seed}: legality verdicts");
        assert_eq!(sync.1, act.1, "seed {seed}: final topologies");
        assert_eq!(sync.2, act.2, "seed {seed}: message totals");
        assert_eq!(
            activity_blind(&sync.3),
            activity_blind(&act.3),
            "seed {seed}: full metric traces (activity columns aside)"
        );
    }
}

#[test]
fn chord_activity_driven_is_execution_equivalent_to_synchronous() {
    for seed in [5u64, 23] {
        let sync = chord_run(seed, 8, true, 1, || Box::new(Synchronous));
        let act = chord_run(seed, 8, true, 1, || Box::new(ActivityDriven));
        assert!(sync.0, "seed {seed}: synchronous run must converge & heal");
        assert_eq!(sync.0, act.0, "seed {seed}: legality verdicts");
        assert_eq!(sync.1, act.1, "seed {seed}: final topologies");
        assert_eq!(
            activity_blind(&sync.3),
            activity_blind(&act.3),
            "seed {seed}: full metric traces (activity columns aside)"
        );
    }
}

/// Byte-identical metrics JSON for the same (seed, scheduler) across
/// thread counts {1, 2, 4} — for every scheduler, over a churny avatar-cbt
/// run.
#[test]
fn scheduler_runs_are_thread_count_invariant() {
    type Make = fn() -> Box<dyn Scheduler>;
    let schedulers: [(&str, Make); 4] = [
        ("sync", || Box::new(Synchronous)),
        ("activity", || Box::new(ActivityDriven)),
        ("random", || Box::new(RandomSubset::new(0.5, 1234))),
        ("rr", || {
            Box::new(chord_scaffolding::sim::sched::Adversarial::round_robin(3))
        }),
    ];
    for (name, make) in schedulers {
        let baseline = cbt_run(77, 6, 2, 1, make);
        for threads in [2usize, 4] {
            let parallel = cbt_run(77, 6, 2, threads, make);
            assert_eq!(
                baseline.3, parallel.3,
                "{name}: {threads}-thread run diverged from sequential"
            );
            assert_eq!(
                parallel.4, 0,
                "{name}: {threads}-thread rounds that activated someone ran off the pool"
            );
        }
    }
}

/// The headline saving: after an avatar-cbt network converges and the
/// quiesce wave drains, activity-driven rounds are (nearly) free while
/// synchronous rounds keep paying `hosts` activations each.
#[test]
fn activity_driven_idles_after_cbt_convergence() {
    let n = 64u32;
    let hosts = 12usize;
    let post = 400u64;
    let run = |make: Box<dyn Scheduler>| {
        let mut rt = scaffold::runtime_from_shape(n, hosts, Shape::Random, Config::seeded(9));
        rt.set_scheduler(make);
        let out = rt.run_monitored(scaffold::legality(), budget(n, hosts));
        assert!(out.rounds_if_satisfied().is_some(), "must converge");
        let at_legal = rt.metrics().total_activations;
        rt.run(post);
        rt.metrics().total_activations - at_legal
    };
    let sync_tail = run(Box::new(Synchronous));
    let act_tail = run(Box::new(ActivityDriven));
    assert_eq!(sync_tail, hosts as u64 * post);
    assert!(
        act_tail * 5 <= sync_tail,
        "post-convergence: expected ≥5× fewer activations, got {act_tail} vs {sync_tail}"
    );
}

proptest! {
    /// Property form over random seeds and sizes: ActivityDriven and
    /// Synchronous reach identical final topologies and legality verdicts
    /// on random churn storms of the scaffold protocol. (The vendored
    /// proptest harness runs a fixed fan of seeded cases; the storm,
    /// churn-count, and host-count all derive from the case RNG.)
    #[test]
    fn cbt_churn_storms_preserve_scheduler_equivalence(
        seed in 0u64..100_000,
        hosts in 4usize..7,
    ) {
        let sync = cbt_run(seed, hosts, 1, 1, || Box::new(Synchronous));
        let act = cbt_run(seed, hosts, 1, 1, || Box::new(ActivityDriven));
        prop_assert_eq!(sync.0, act.0, "legality verdicts (seed {})", seed);
        prop_assert_eq!(sync.1, act.1, "final topologies (seed {})", seed);
        prop_assert_eq!(sync.2, act.2, "message totals (seed {})", seed);
    }

    /// Same property for the full Avatar(Chord) stack (leave + join churn).
    #[test]
    fn chord_churn_storms_preserve_scheduler_equivalence(seed in 0u64..100_000) {
        let sync = chord_run(seed, 6, true, 1, || Box::new(Synchronous));
        let act = chord_run(seed, 6, true, 1, || Box::new(ActivityDriven));
        prop_assert_eq!(sync.0, act.0, "legality verdicts (seed {})", seed);
        prop_assert_eq!(sync.1, act.1, "final topologies (seed {})", seed);
    }
}
