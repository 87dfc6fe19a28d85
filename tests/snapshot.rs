//! Snapshot/restore over the full protocol stack: a run split by a
//! checkpoint at an *arbitrary* round must continue **byte-identically**
//! with the uninterrupted run — same serialized metrics, at any thread
//! count and under any equivalence-claiming scheduler, through churn and
//! live traffic — and a tampered snapshot must be rejected loudly rather
//! than ever loading garbage.

use chord_scaffolding::chord::{self, ChordTarget};
use chord_scaffolding::scaffold;
use chord_scaffolding::sim::{
    init::Shape, sched, Config, OpenLoop, Persist, Program, SnapshotError, WorkloadConfig,
};
use proptest::prelude::*;

type ChordRt = chord_scaffolding::sim::Runtime<chord::ScaffoldProgram>;

fn metrics_json<P: Program>(rt: &chord_scaffolding::sim::Runtime<P>) -> String {
    serde_json::to_string(rt.metrics()).expect("metrics serialize")
}

/// Advance `rounds` rounds, optionally injecting a deterministic churn
/// storm keyed on the **absolute** round counter — so driving the run in
/// one piece or as head + restored tail produces the same event sequence
/// regardless of where the snapshot split it.
fn drive(rt: &mut ChordRt, rounds: u64, churn: bool) {
    for _ in 0..rounds {
        let r = rt.round();
        if churn && r % 19 == 11 && rt.ids().len() > 4 {
            let victim = rt.ids()[r as usize % rt.ids().len()];
            rt.leave(victim);
        }
        if churn && r % 31 == 17 {
            if let Some(fresh) = (0..64).find(|&v| !rt.topology().contains(v)) {
                let contacts: Vec<u32> = rt.ids().iter().take(2).copied().collect();
                rt.join_spawned(fresh, &contacts);
            }
        }
        rt.step();
    }
}

proptest! {
    /// The tentpole contract: snapshot at any round, restore at any thread
    /// count under either daemon, continue — the metrics JSON equals the
    /// uninterrupted run byte for byte, churn storms included.
    #[test]
    fn restore_continues_byte_identically(
        seed in 0u64..1_000_000,
        split in 1u64..160,
        churn_bit in 0u8..2,
        sched_bit in 0u8..2,
        thread_ix in 0usize..4,
    ) {
        let total = 160u64;
        let churn = churn_bit == 1;
        let spec = if sched_bit == 1 { "activity" } else { "sync" };
        let threads = [1usize, 2, 4, 8][thread_ix];
        let build = || {
            let target = ChordTarget::classic(64);
            let mut cfg = Config::seeded(seed);
            cfg.record_rounds = false;
            chord::runtime_from_shape(target, 8, Shape::Random, cfg)
        };

        let mut full = build();
        full.set_scheduler(sched::from_spec(spec, seed).expect("known spec"));
        drive(&mut full, total, churn);
        let expect = metrics_json(&full);

        let mut head = build();
        head.set_scheduler(sched::from_spec(spec, seed).expect("known spec"));
        drive(&mut head, split, churn);
        let bytes = head.save_snapshot();

        // seed / strict / record_rounds are pinned from the payload — pass
        // a deliberately wrong seed to prove it — while the caller picks
        // the execution strategy (thread count). `always_parallel` pins the
        // pool path on the tail, so a sequential head must continue
        // byte-identically on the chunked parallel apply.
        let tail_cfg = Config::seeded(!seed).threads(threads).always_parallel();
        let mut tail = chord::restore_runtime(&bytes, tail_cfg).expect("snapshot restores");
        prop_assert_eq!(tail.config().seed, seed, "restore pins the snapshot's seed");
        tail.set_scheduler(sched::from_spec(spec, seed).expect("known spec"));
        drive(&mut tail, total - split, churn);
        prop_assert_eq!(expect, metrics_json(&tail));
    }
}

/// `save ∘ restore ∘ save` is the identity on the bytes for the full
/// protocol stack: the compacted protocol states (the CBT view and
/// scratch's sorted inline maps, the scaffold's phase-view tables, the
/// paged inboxes, the adjacency arena) must re-encode to exactly the
/// bytes they loaded from — at a stale mid-stabilization round, mid-merge,
/// and near convergence.
#[test]
fn protocol_snapshot_save_load_save_is_byte_identity() {
    let target = ChordTarget::classic(64);
    let mut cfg = Config::seeded(23);
    cfg.record_rounds = false;
    let mut rt = chord::runtime_from_shape(target, 8, Shape::Random, cfg);
    for rounds in [13u64, 27, 50] {
        rt.run(rounds);
        let bytes = rt.save_snapshot();
        let back = chord::restore_runtime::<ChordTarget>(&bytes, cfg).expect("snapshot restores");
        assert_eq!(
            back.save_snapshot(),
            bytes,
            "re-encode diverged at round {}",
            rt.round()
        );
    }

    // The bytes themselves, not just their round trip: sealed-snapshot hash
    // and metrics JSON hash after a fixed number of mid-stabilization rounds,
    // captured at the commit before the protocol cores moved onto `Ctx` —
    // message contents, send order and RNG draw order all feed these.
    fn golden<P>(mut rt: chord_scaffolding::sim::Runtime<P>, rounds: u64) -> (u64, u64)
    where
        P: Program + Persist,
        P::Msg: Persist,
    {
        use chord_scaffolding::sim::snapshot::content_hash;
        rt.run(rounds);
        (
            content_hash(&rt.save_snapshot()),
            content_hash(metrics_json(&rt).as_bytes()),
        )
    }
    let (ids, edges) = {
        let probe = chord::runtime_from_shape(target, 12, Shape::Random, cfg);
        (probe.ids().to_vec(), probe.topology().edges())
    };
    let wan = chord_scaffolding::sim::NetModel::wan();
    assert_eq!(
        golden(
            scaffold::runtime_from_shape(64, 12, Shape::Random, cfg),
            700
        ),
        (3344020841443380519, 12836523662176495526),
        "standalone Avatar(CBT), 34 merges in"
    );
    assert_eq!(
        golden(
            chord::runtime_from_shape(target, 12, Shape::Random, cfg),
            800
        ),
        (11669943735842969417, 9059824783328707857),
        "Avatar(Chord) on the ideal network, finger waves 3-4 in flight"
    );
    assert_eq!(
        golden(chord::runtime_with_net(target, &ids, edges, cfg, wan), 1100),
        (10794115007586105789, 10757396847489437221),
        "Avatar(Chord) under the wan preset, 21 merges in"
    );
}

/// Every way a snapshot can be damaged maps to a distinct loud error;
/// none of them ever yields a runtime.
#[test]
fn corrupted_snapshots_are_rejected() {
    let target = ChordTarget::classic(64);
    let mut cfg = Config::seeded(7);
    cfg.record_rounds = false;
    let mut rt = chord::runtime_from_shape(target, 6, Shape::Random, cfg);
    rt.run(40);
    let good = rt.save_snapshot();
    assert!(chord::restore_runtime::<ChordTarget>(&good, cfg).is_ok());

    let restore_err = |bytes: &[u8]| match chord::restore_runtime::<ChordTarget>(bytes, cfg) {
        Err(e) => e,
        Ok(_) => panic!("a damaged snapshot must never restore"),
    };

    let err = restore_err(&good[..good.len() - 3]);
    assert!(
        matches!(err, SnapshotError::Truncated),
        "truncated file: {err:?}"
    );

    let mut flipped = good.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x40;
    let err = restore_err(&flipped);
    assert!(
        matches!(err, SnapshotError::HashMismatch { .. }),
        "flipped payload byte: {err:?}"
    );

    let mut vers = good.clone();
    vers[8] = 0xEE; // the version u32 sits right after the 8-byte magic
    let err = restore_err(&vers);
    assert!(
        matches!(err, SnapshotError::Version { found: 0xEE, .. }),
        "future version: {err:?}"
    );

    let mut magic = good.clone();
    magic[0] ^= 0xFF;
    let err = restore_err(&magic);
    assert!(
        matches!(err, SnapshotError::BadMagic),
        "wrong magic: {err:?}"
    );
}

/// A converged, legal Avatar(Chord) checkpoint restores legal, stays
/// silent, and continues identically at every thread count and under both
/// daemons — the property the E14b memory sweep and the bench fixture cache
/// stand on.
#[test]
fn converged_legal_snapshot_restores_legal_and_identical() {
    let target = ChordTarget::classic(64);
    let mut cfg = Config::seeded(0xC0FFEE);
    cfg.record_rounds = false;
    let mut rt = chord::runtime_from_shape(target, 8, Shape::Random, cfg);
    let out = rt.run_monitored(&mut chord::legality(), 60_000);
    assert!(
        out.rounds_if_satisfied().is_some(),
        "overlay converges within budget: {out:?}"
    );
    let bytes = rt.save_snapshot();
    rt.run(64);
    let expect = metrics_json(&rt);
    let expect_blind = chord_scaffolding::sim::metrics::blank_json_fields(
        &expect,
        &["total_activations", "active_nodes"],
    );

    for threads in [1usize, 2, 4, 8] {
        for spec in ["sync", "activity"] {
            let mut r2 = chord::restore_runtime::<ChordTarget>(
                &bytes,
                cfg.threads(threads).always_parallel(),
            )
            .expect("converged snapshot restores");
            assert!(
                chord::runtime_is_legal(&r2),
                "restored state is still legal ({spec}, {threads} threads)"
            );
            r2.set_scheduler(sched::from_spec(spec, cfg.seed).expect("known spec"));
            let silent_before = r2.metrics().total_messages;
            r2.run(64);
            assert_eq!(
                r2.metrics().total_messages,
                silent_before,
                "a legal overlay stays silent after restore ({spec})"
            );
            let got = metrics_json(&r2);
            if spec == "sync" {
                assert_eq!(
                    expect, got,
                    "sync continuation diverged at {threads} threads"
                );
            } else {
                // Activation counts legitimately differ between daemons;
                // everything else must not.
                let got_blind = chord_scaffolding::sim::metrics::blank_json_fields(
                    &got,
                    &["total_activations", "active_nodes"],
                );
                assert_eq!(
                    expect_blind, got_blind,
                    "activity continuation diverged at {threads} threads"
                );
            }
        }
    }
}

/// The standalone Avatar(CBT) network goes fully dormant via the quiesce
/// wave; a snapshot taken while dormant must round-trip that state — the
/// restored network is still quiescent, stays silent under the activity
/// daemon, and continues identically.
#[test]
fn dormant_cbt_snapshot_restores_dormant() {
    let n = 64u32;
    let mut cfg = Config::seeded(0xCB7);
    cfg.record_rounds = false;
    let mut rt = scaffold::runtime_from_shape(n, 8, Shape::Random, cfg);
    let out = rt.run_monitored(&mut scaffold::legality(), 60_000);
    assert!(
        out.rounds_if_satisfied().is_some(),
        "CBT converges within budget: {out:?}"
    );
    // Let the quiesce wave drain until every host reports dormant.
    let epoch = scaffold::Schedule::new(n).epoch_len();
    let mut waited = 0u64;
    while !rt.programs().all(|(_, p)| p.is_quiescent()) {
        rt.run(epoch);
        waited += epoch;
        assert!(waited < 64 * epoch, "network failed to go dormant");
    }
    let bytes = rt.save_snapshot();
    rt.run(128);
    let expect_blind = chord_scaffolding::sim::metrics::blank_json_fields(
        &metrics_json(&rt),
        &["total_activations", "active_nodes"],
    );

    let mut r2 = scaffold::restore_runtime(&bytes, cfg).expect("dormant snapshot restores");
    assert!(
        r2.programs().all(|(_, p)| p.is_quiescent()),
        "dormancy survives the roundtrip"
    );
    r2.set_scheduler(sched::from_spec("activity", cfg.seed).expect("known spec"));
    let silent_before = r2.metrics().total_messages;
    r2.run(128);
    assert_eq!(
        r2.metrics().total_messages,
        silent_before,
        "the dormant network costs nothing under the activity daemon"
    );
    let got_blind = chord_scaffolding::sim::metrics::blank_json_fields(
        &metrics_json(&r2),
        &["total_activations", "active_nodes"],
    );
    assert_eq!(expect_blind, got_blind);
}

/// A snapshot taken mid-traffic carries the generator state, workload RNG,
/// in-flight queues, and the saved `WorkloadConfig`. Restoring stashes
/// them until `attach_workload` re-supplies a same-typed generator; the
/// resumed run then matches the uninterrupted one byte for byte.
#[test]
fn midtraffic_snapshot_resumes_after_reattach() {
    let build = || {
        let target = ChordTarget::classic(64);
        let mut cfg = Config::seeded(0x7AFF1C);
        cfg.record_rounds = false;
        let mut rt = chord::runtime_from_shape(target, 8, Shape::Random, cfg);
        rt.attach_workload(OpenLoop::new(2.0, 64), WorkloadConfig::default());
        rt
    };

    let mut full = build();
    full.run(300);
    let expect = metrics_json(&full);

    let mut head = build();
    head.run(120);
    let bytes = head.save_snapshot();

    let cfg = Config::seeded(0x7AFF1C);
    let mut tail =
        chord::restore_runtime::<ChordTarget>(&bytes, cfg).expect("mid-traffic snapshot restores");
    assert!(
        tail.pending_workload(),
        "restored runtime stashes the saved traffic until re-attach"
    );
    // The snapshot carries only the generator's *mutable state*; the caller
    // must re-supply the same constructor parameters (rate, key space).
    // The WorkloadConfig argument is ignored on resume — the saved one wins.
    tail.attach_workload(OpenLoop::new(2.0, 64), WorkloadConfig::default());
    assert!(!tail.pending_workload());
    tail.run(180);
    assert_eq!(expect, metrics_json(&tail));
}
