//! The `ssim::net` network-conditions subsystem over the full protocol
//! stack:
//!
//! * **Determinism** — WAN conditions with churn produce identical metrics
//!   JSON, modulo the activity columns, across daemons (delayed arrivals
//!   must mark the recipient dirty on the *delivery* round, or the
//!   activity daemon would sleep through them).
//! * **Conservation** — `sent + duplicated == delivered + dropped +
//!   in_transit` holds after *every* round under loss, duplication,
//!   latency, churn, and partitions (property test).
//! * **Re-stabilization** — a partition plus churn during the cut heals
//!   back to the legal configuration for both protocol crates, under a
//!   latency model that keeps messages in transit across the cut.
//! * **Snapshots** — a snapshot taken with messages still in transit
//!   restores byte-identically and continues in lockstep.
//! * **Departure guard** — a message delayed across its recipient's
//!   leave → rejoin is purged, never delivered to the recycled slot.
//!
//! The determinism and snapshot cases run on the equivalence harness
//! (`harness`).

mod harness;

use chord_scaffolding::chord::{self, ChordTarget};
use chord_scaffolding::scaffold;
use chord_scaffolding::sim::fault::Fault;
use chord_scaffolding::sim::monitor::RunVerdict;
use chord_scaffolding::sim::{init, Config, NetModel};
use harness::{Case, Daemon, ACTIVITY, LEAVE, SYNC};
use proptest::prelude::*;

/// Convergence budget in rounds under per-hop delivery bound `delta`.
fn budget(n: u32, hosts: usize, delta: u64) -> u64 {
    let e = scaffold::Schedule::new(n).with_delta(delta).epoch_len();
    let logn = (usize::BITS - hosts.leading_zeros()) as u64;
    e * (6 * logn + 12)
}

/// Eight hosts whose legal Avatar(Cbt(64)) topology stays connected when
/// 17 and 33 leave (9 and 41 are cut vertices there — see the protocol
/// crates' own net suites).
fn ring_ids() -> Vec<u32> {
    vec![1, 9, 17, 25, 33, 41, 49, 57]
}

/// An avatar-cbt case on the ring under `model`.
fn ring_case(seed: u64, model: NetModel) -> Case<'static, scaffold::CbtProgram> {
    let ids = ring_ids();
    Case::new(format!("seed {seed}"), Config::seeded(seed), move |cfg| {
        scaffold::runtime_with_net(64, &ids, init::ring(&ids), cfg, model)
    })
}

/// The WAN storm: converge for a full budget, then `storm` times a leave,
/// an epoch, the join of the first free id, an epoch.
fn wan_run(seed: u64, storm: usize, daemons: &[Daemon]) {
    let delta = NetModel::wan().delivery_bound();
    let gap = scaffold::Schedule::new(64).with_delta(delta).epoch_len();
    let wan = ring_case(seed, NetModel::wan());
    wan.daemons(daemons).run(|arm| {
        arm.run(budget(64, 8, delta));
        for _ in 0..storm {
            arm.fault(LEAVE);
            arm.run(gap);
            let rt = arm.rt();
            let id = (0..64).find(|v| !rt.topology().contains(*v)).unwrap();
            arm.fault(Fault::Join { id, attach: 2 });
            arm.run(gap);
        }
        let s = arm.rt().net_stats();
        assert!(s.conserved(), "{s:?}");
    });
}

/// The activity-driven daemon reproduces the synchronous daemon under WAN
/// conditions (activity columns aside): a delayed delivery marks its
/// recipient dirty on the delivery round, so no arrival is slept through.
#[test]
fn wan_activity_daemon_matches_synchronous() {
    wan_run(0xD1A7, 1, &[SYNC, ACTIVITY]);
}

proptest! {
    /// The conservation law holds after **every** round, not just at the
    /// end — under loss, duplication, latency, a mid-run leave, and a
    /// partition window (each drop class is accounted the round it
    /// happens).
    #[test]
    fn conservation_law_holds_every_round(
        seed in 0u64..1_000,
        delay in 0u64..3,
        jitter in 0u64..3,
        loss_i in 1usize..3,
        dup_i in 0usize..2,
    ) {
        let model = NetModel {
            delay,
            jitter,
            loss: [0.0, 0.05, 0.15][loss_i],
            dup: [0.005, 0.05][dup_i],
        };
        let ids = ring_ids();
        let mut cfg = Config::seeded(seed);
        cfg.record_rounds = false;
        let mut rt = scaffold::runtime_with_net(64, &ids, init::ring(&ids), cfg, model);
        for round in 0..160u64 {
            match round {
                40 => {
                    rt.leave(17);
                }
                80 => {
                    rt.partition([1u32, 9, 25]);
                }
                120 => {
                    rt.heal();
                }
                _ => {}
            }
            rt.step();
            let s = rt.net_stats();
            prop_assert!(s.conserved(), "round {}: {:?}", round, s);
        }
        let s = rt.net_stats();
        prop_assert!(s.dropped_loss > 0, "lossy model never dropped: {:?}", s);
        prop_assert!(s.duplicated > 0, "duplicating model never duplicated: {:?}", s);
    }
}

/// Partition + churn during the cut, then heal: both protocol crates
/// re-stabilize to the legal configuration of the shrunk host set — under
/// a latency model, so the cut lands while messages are in transit and
/// the transit purge is exercised alongside the send-time drop.
#[test]
fn partition_heal_restabilizes_both_protocols_under_latency() {
    let model = NetModel {
        delay: 1,
        ..NetModel::ideal()
    };
    let delta = model.delivery_bound();
    let ids = ring_ids();

    // Avatar(CBT): 17 and 33 leave (the graph stays connected).
    let mut rt = scaffold::runtime_with_net(64, &ids, init::ring(&ids), Config::seeded(41), model);
    let out = rt.run_monitored(scaffold::legality(), budget(64, 8, delta));
    assert_eq!(
        out.verdict,
        RunVerdict::Satisfied,
        "cbt initial convergence"
    );
    rt.partition([1u32, 9, 17, 25]);
    rt.leave(17);
    rt.leave(33);
    rt.run(20);
    assert!(rt.partitioned());
    rt.heal();
    let out = rt.run_monitored(scaffold::legality(), 4 * budget(64, 8, delta));
    assert_eq!(out.verdict, RunVerdict::Satisfied, "cbt re-stabilization");
    let s = rt.net_stats();
    assert!(s.conserved(), "{s:?}");
    assert!(s.dropped_partition > 0, "the cut must drop traffic: {s:?}");

    // Avatar(Chord): fingers keep the survivors connected even when the
    // scaffold cut vertices 9 and 41 leave.
    let t = ChordTarget::classic(64);
    let mut rt = chord::runtime_with_net(t, &ids, init::ring(&ids), Config::seeded(42), model);
    let out = rt.run_monitored(chord::legality(), budget(64, 8, delta));
    assert_eq!(
        out.verdict,
        RunVerdict::Satisfied,
        "chord initial convergence"
    );
    rt.partition([1u32, 9, 17, 25]);
    rt.leave(9);
    rt.leave(41);
    rt.run(20);
    assert!(!chord::runtime_is_legal(&rt), "churn during the cut");
    rt.heal();
    let out = rt.run_monitored(chord::legality(), 4 * budget(64, 8, delta));
    assert_eq!(out.verdict, RunVerdict::Satisfied, "chord re-stabilization");
    assert!(rt.net_stats().conserved(), "{:?}", rt.net_stats());
}

/// A snapshot taken while messages sit in the in-transit buffer restores
/// them — delivery rounds, payloads, endpoint guards, and the net books
/// (the harness checks both at the split) — and the restored run continues
/// in lockstep with the original: byte-identical metrics and snapshots.
#[test]
fn snapshot_roundtrip_with_messages_in_transit() {
    let (t, ids) = (ChordTarget::classic(64), ring_ids());
    let build = |cfg| {
        let mut rt = chord::runtime_with_net(t, &ids, init::ring(&ids), cfg, NetModel::wan());
        // Step into the run until the delay queue is demonstrably non-empty.
        while rt.in_transit() == 0 {
            rt.step();
            assert!(
                rt.round() < 100,
                "WAN run never parked a message in transit"
            );
        }
        rt.run(50);
        assert!(
            rt.in_transit() > 0,
            "snapshot point must have transit state"
        );
        rt
    };
    Case::new("in transit", Config::seeded(0x5AFE), build)
        .split(chord::restore_runtime, &[0])
        .run(|arm| {
            arm.run(500);
            assert!(arm.rt().net_stats().conserved());
        });
}

/// Regression: a message delayed across its recipient's leave → rejoin
/// must be purged with the departure, not delivered to the recycled slot.
/// Every host chats 1 byte per neighbor per round under a 5-round delay;
/// host 2 leaves with messages addressed to it in transit and immediately
/// rejoins the same id.
#[test]
fn delayed_message_across_leave_rejoin_is_purged() {
    use chord_scaffolding::sim::{Ctx, Program, Runtime};

    #[derive(Default)]
    struct Chatter {
        got: u64,
    }
    impl Program for Chatter {
        type Msg = u8;
        fn step(&mut self, ctx: &mut Ctx<'_, u8>) {
            self.got += ctx.inbox().len() as u64;
            for &v in ctx.neighbors() {
                ctx.send(v, 1);
            }
        }
    }

    let model = NetModel {
        delay: 5,
        ..NetModel::ideal()
    };
    let mut rt = Runtime::new(
        Config::seeded(9),
        [(1u32, Chatter::default()), (2u32, Chatter::default())],
        vec![(1, 2)],
    )
    .with_spawner(|_| Chatter::default())
    .with_net_model(model);

    // Rounds 0..2: sends 1 → 2 parked for delivery rounds 6 and 7.
    rt.run(2);
    assert!(rt.in_transit() > 0);
    rt.leave(2).expect("host 2 leaves");
    let s = rt.net_stats();
    assert!(
        s.dropped_departed >= 2,
        "transit to the leaver purged: {s:?}"
    );
    assert!(s.conserved(), "{s:?}");

    // Same id rejoins into the (recycled) slot before the old messages'
    // delivery rounds pass.
    rt.join_spawned(2, &[1]);
    // Through round 7: every pre-leave message would have arrived by now;
    // the earliest post-rejoin send (round 2) arrives at round 8.
    while rt.round() <= 7 {
        rt.step();
    }
    assert_eq!(
        rt.program(2).got,
        0,
        "a purged message reached the recycled slot"
    );

    // The rejoined channel works: post-rejoin traffic flows normally.
    rt.run(10);
    assert!(rt.program(2).got > 0, "rejoined host receives new traffic");
    assert!(rt.net_stats().conserved(), "{:?}", rt.net_stats());
}
