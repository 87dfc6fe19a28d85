//! Churn stress properties for the slot-based engine core: hundreds of
//! interleaved join/leave/crash/fault events across seeds must leave the
//! runtime deterministic (bit-identical metrics), recycle slots correctly
//! (a re-joining host lands in a freed slot and replays the same RNG
//! stream), and keep the topology invariants — including the incremental
//! edge/degree counters — true after every single event.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use ssim::fault::{inject, Fault};
use ssim::sched::{ActivityDriven, Adversarial, RandomSubset, Scheduler};
use ssim::{Config, Ctx, NodeId, Program, Runtime};

/// A protocol that exercises every engine surface: it draws from its
/// private RNG each round (so RNG-stream replay is observable), gossips to
/// a random neighbor, and occasionally unlinks/introduces — enough traffic
/// that stale state after a membership bug would change the metrics.
#[derive(Default)]
struct Mixer {
    sum: u64,
}

impl Program for Mixer {
    type Msg = u64;

    fn step(&mut self, ctx: &mut Ctx<'_, u64>) {
        for &(_, v) in ctx.inbox() {
            self.sum = self.sum.wrapping_add(v);
        }
        let draw: u64 = ctx.rng().gen();
        let nb = ctx.neighbors();
        if !nb.is_empty() {
            let pick = nb[(draw % nb.len() as u64) as usize];
            ctx.send(pick, draw);
            if nb.len() >= 2 && draw.is_multiple_of(7) {
                ctx.link(nb[0], nb[1]);
            }
        }
    }
}

fn ring_runtime(n: u32, seed: u64) -> Runtime<Mixer> {
    let edges: Vec<_> = (0..n).map(|i| (i, (i + 1) % n)).collect();
    Runtime::new(
        Config::seeded(seed),
        (0..n).map(|i| (i, Mixer::default())),
        edges,
    )
    .with_spawner(|_| Mixer::default())
}

/// Drive `events` interleaved churn events (with a step between each) from
/// one seeded RNG, checking topology invariants after every event. Returns
/// the run's metrics as JSON (bit-identical across replays).
fn churn_storm(n: u32, events: usize, seed: u64, check_each: bool) -> String {
    churn_storm_sched(n, events, seed, check_each, None)
}

/// [`churn_storm`] under an explicit daemon (`None` = the default
/// synchronous scheduler). Partial daemons leave messages queued across
/// membership events, so this also stresses the pending-inbox purge paths.
fn churn_storm_sched(
    n: u32,
    events: usize,
    seed: u64,
    check_each: bool,
    sched: Option<Box<dyn Scheduler>>,
) -> String {
    let mut rt = ring_runtime(n, seed);
    if let Some(s) = sched {
        rt.set_scheduler(s);
    }
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xD1CE);
    let mut next_fresh = n; // ids ≥ n are fresh joiners
    for e in 0..events {
        let fault = match rng.gen_range(0..6u32) {
            0 => {
                next_fresh += 1;
                Fault::Join {
                    id: next_fresh - 1,
                    attach: 2,
                }
            }
            1 => Fault::Leave {
                id: None,
                keep_connected: false,
            },
            2 => Fault::Crash {
                id: None,
                keep_connected: false,
            },
            3 => Fault::AddRandomEdges { count: 2 },
            4 => Fault::RemoveRandomEdges {
                count: 1,
                keep_connected: false,
            },
            _ => Fault::Rewire { count: 1 },
        };
        // Never let the network die out completely.
        let fault =
            if rt.ids().len() <= 2 && matches!(fault, Fault::Leave { .. } | Fault::Crash { .. }) {
                next_fresh += 1;
                Fault::Join {
                    id: next_fresh - 1,
                    attach: 2,
                }
            } else {
                fault
            };
        inject(&mut rt, &fault, &mut rng);
        if check_each {
            assert!(
                rt.topology().check_invariants(),
                "seed {seed}: invariants broken after event {e} ({fault:?})"
            );
        }
        rt.step();
    }
    rt.run(5);
    serde_json::to_string(rt.metrics()).expect("metrics serialize")
}

/// Deterministic storm: several hundred interleaved events, invariants
/// checked after every one, across a spread of seeds.
#[test]
fn hundreds_of_events_keep_invariants_and_stay_deterministic() {
    for seed in [1u64, 7, 42, 1337] {
        let a = churn_storm(24, 300, seed, true);
        let b = churn_storm(24, 300, seed, false);
        assert_eq!(a, b, "seed {seed}: metrics must be bit-identical");
    }
}

/// The same storms under every shipped daemon: identical (seed, scheduler)
/// runs must produce byte-identical metrics JSON, with invariants holding
/// after every event. RandomSubset and the round-robin adversary leave
/// messages queued across joins/leaves/crashes, so this also pins the
/// engine's pending-inbox handling under churn: departure purges, through
/// the dirty set, of messages that have waited several rounds for their
/// recipient.
#[test]
fn storms_under_every_scheduler_replay_identically() {
    type Make = fn(u64) -> Box<dyn Scheduler>;
    let schedulers: [(&str, Make); 3] = [
        ("activity", |_| Box::new(ActivityDriven)),
        ("random", |seed| Box::new(RandomSubset::new(0.4, seed))),
        ("rr", |_| Box::new(Adversarial::round_robin(3))),
    ];
    for (name, make) in schedulers {
        for seed in [5u64, 99] {
            let baseline = churn_storm_sched(20, 200, seed, true, Some(make(seed)));
            let replay = churn_storm_sched(20, 200, seed, false, Some(make(seed)));
            assert_eq!(baseline, replay, "{name}, seed {seed}: the replay diverged");
        }
    }
}

proptest! {
    /// Property form: any seeded interleaving of join/leave/crash/edge
    /// faults replays to bit-identical metrics, with invariants (including
    /// the incremental counters) holding after every event.
    #[test]
    fn churn_interleavings_are_deterministic(seed in 0u64..5000, n in 8u32..32) {
        let a = churn_storm(n, 60, seed, true);
        let b = churn_storm(n, 60, seed, false);
        prop_assert_eq!(a, b);
    }

    /// Slot recycling: after a leave, a re-join of the same host lands in
    /// the recycled slot (LIFO free list) and — because node RNGs are
    /// derived from `(run seed, id)` — the run is indistinguishable from
    /// one that never churned.
    #[test]
    fn rejoin_recycles_slot_and_replays_rng(seed in 0u64..1000, victim in 0u32..12) {
        // Churn before any round runs (no in-flight messages), so the
        // leave+rejoin restores the membership and edges exactly and the
        // only legitimate difference is the join/leave counters.
        let go = |churn: bool| {
            let mut rt = ring_runtime(12, seed);
            if churn {
                let slot = rt.topology().slot_of(victim).expect("member");
                let nb: Vec<NodeId> = rt.topology().neighbors(victim).to_vec();
                rt.leave(victim);
                prop_assert!(rt.topology().slot_of(victim).is_none());
                rt.join(victim, Mixer::default(), &nb);
                prop_assert_eq!(
                    rt.topology().slot_of(victim),
                    Some(slot),
                    "rejoin must land in the freed slot"
                );
            }
            rt.run(13);
            Ok(serde_json::to_string(rt.metrics()).expect("metrics serialize"))
        };
        // With slot recycling and (seed, id) RNG derivation, the churn is
        // invisible to every metric except the join/leave counters.
        let with = go(true)?;
        let without = go(false)?;
        let strip = |s: &str| {
            s.replace("\"joins\":1", "\"joins\":0")
                .replace("\"leaves\":1", "\"leaves\":0")
        };
        prop_assert_eq!(strip(&with), without);
    }
}
