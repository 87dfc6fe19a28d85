//! Scheduler-subsystem properties over the full protocol stack:
//!
//! * **Equivalence** — for well-behaved programs (avatar-cbt with its
//!   quiesce wave, chord-scaffold with its settled DONE phase), the
//!   activity-driven daemon reproduces the synchronous daemon's execution
//!   *exactly* — identical final topologies, identical legality verdicts,
//!   identical metric traces (activity columns aside) — on clean runs and
//!   through random churn storms. Debug builds run the shadow-step check
//!   throughout (armed by the protocol runtime builders), so any skipped
//!   non-no-op step panics.
//! * **Determinism** — for every scheduler, identical `(seed, scheduler)`
//!   runs produce byte-identical metrics JSON and snapshots across thread
//!   counts {1, 2, 4}.
//! * **Savings** — after convergence, the activity-driven daemon performs
//!   (almost) no activations while the synchronous daemon keeps paying
//!   `n` per round.
//!
//! The equivalence and determinism cases run on the equivalence harness
//! (`harness`): converge, churn an epoch apart, heal.

mod harness;

use chord_scaffolding::chord::{self, ChordTarget};
use chord_scaffolding::scaffold;
use chord_scaffolding::sim::sched::{Adversarial, RandomSubset, Scheduler, Synchronous};
use chord_scaffolding::sim::{fault::Fault, init::Shape, ActivityDriven, Config};
use harness::{Case, Daemon, ACTIVITY, LEAVE, SYNC};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use scaffold_bench::budget;

const N: u32 = 64;

/// Drive an avatar-cbt network to legality under each daemon and thread
/// count, then `storm` churn events an epoch apart (kinds from a seeded
/// RNG), then back to legality; returns the two goal verdicts.
fn cbt_run(
    seed: u64,
    hosts: usize,
    storm: usize,
    daemons: &[Daemon],
    threads: &[usize],
) -> (bool, bool) {
    let build = |cfg| scaffold::runtime_from_shape(N, hosts, Shape::Random, cfg);
    let case = Case::new(format!("cbt seed {seed}"), Config::seeded(seed), build);
    case.daemons(daemons)
        .threads(threads)
        .run(|arm| {
            let legal = scaffold::runtime_is_legal;
            let converged = arm.goal(legal, budget(N, hosts));
            let mut kinds = SmallRng::seed_from_u64(seed ^ 0x57_0B_13);
            let mut fresh = N; // ids ≥ N would be invalid hosts; draw below N instead
            for _ in 0..storm {
                let fault = match kinds.gen_range(0..4u32) {
                    0 => {
                        // A fresh host id not currently a member.
                        let rt = arm.rt();
                        fresh = (fresh + 7) % N;
                        while rt.topology().contains(fresh) {
                            fresh = (fresh + 7) % N;
                        }
                        Fault::Join {
                            id: fresh,
                            attach: 2,
                        }
                    }
                    1 => LEAVE,
                    2 => Fault::AddRandomEdges { count: 1 },
                    _ => Fault::Rewire { count: 1 },
                };
                arm.fault(fault);
                arm.run(scaffold::Schedule::new(N).epoch_len());
            }
            (converged, arm.goal(legal, 2 * budget(N, hosts)))
        })
        .out
}

/// Same run for the full Avatar(Chord) stack: a leave, an epoch later the
/// join of the first free id.
fn chord_run(seed: u64, hosts: usize, daemons: &[Daemon]) -> (bool, bool) {
    let build = |cfg| chord::runtime_from_shape(ChordTarget::classic(N), hosts, Shape::Random, cfg);
    let case = Case::new(format!("chord seed {seed}"), Config::seeded(seed), build);
    case.daemons(daemons)
        .run(|arm| {
            let legal = chord::runtime_is_legal::<ChordTarget>;
            let converged = arm.goal(legal, budget(N, hosts));
            arm.fault(LEAVE);
            arm.run(scaffold::Schedule::new(N).epoch_len());
            let rt = arm.rt();
            let id = (0..N).find(|v| !rt.topology().contains(*v)).unwrap();
            arm.fault(Fault::Join { id, attach: 2 });
            (converged, arm.goal(legal, 2 * budget(N, hosts)))
        })
        .out
}

/// ActivityDriven reproduces Synchronous *exactly* for avatar-cbt — same
/// final topology, same legality verdicts, the same per-round metric rows
/// (modulo the activation columns) — across several seeds and through
/// churn storms, with the debug shadow check auditing every skip.
#[test]
fn cbt_activity_driven_is_execution_equivalent_to_synchronous() {
    for seed in [3u64, 11, 42] {
        let verdicts = cbt_run(seed, 8, 3, &[SYNC, ACTIVITY], &[1]);
        assert_eq!(verdicts, (true, true), "seed {seed}: must converge & heal");
    }
}

#[test]
fn chord_activity_driven_is_execution_equivalent_to_synchronous() {
    for seed in [5u64, 23] {
        let verdicts = chord_run(seed, 8, &[SYNC, ACTIVITY]);
        assert_eq!(verdicts, (true, true), "seed {seed}: must converge & heal");
    }
}

/// Byte-identical metrics JSON and snapshots for the same (seed,
/// scheduler) across thread counts {1, 2, 4} — for every scheduler, over a
/// churny avatar-cbt run.
#[test]
fn scheduler_runs_are_thread_count_invariant() {
    let daemons: [Daemon; 4] = [
        SYNC,
        ACTIVITY,
        || Box::new(RandomSubset::new(0.5, 1234)),
        || Box::new(Adversarial::round_robin(3)),
    ];
    for daemon in daemons {
        cbt_run(77, 6, 2, &[daemon], &[1, 2, 4]);
    }
}

/// The headline saving: after an avatar-cbt network converges and the
/// quiesce wave drains, activity-driven rounds are (nearly) free while
/// synchronous rounds keep paying `hosts` activations each.
#[test]
fn activity_driven_idles_after_cbt_convergence() {
    let n = N;
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
    /// Synchronous reach identical final topologies, metric traces and
    /// legality verdicts on random churn storms of the scaffold protocol.
    /// (The vendored proptest harness runs a fixed fan of seeded cases.)
    #[test]
    fn cbt_churn_storms_preserve_scheduler_equivalence(
        seed in 0u64..100_000,
        hosts in 4usize..7,
    ) {
        cbt_run(seed, hosts, 1, &[SYNC, ACTIVITY], &[1]);
    }

    /// Same property for the full Avatar(Chord) stack (leave + join churn).
    #[test]
    fn chord_churn_storms_preserve_scheduler_equivalence(seed in 0u64..100_000) {
        chord_run(seed, 6, &[SYNC, ACTIVITY]);
    }
}
