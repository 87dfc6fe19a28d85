//! Snapshot/restore over the full protocol stack: a run split by a
//! checkpoint at an *arbitrary* round must continue **byte-identically**
//! with the uninterrupted run — same serialized metrics and snapshot bytes,
//! under any equivalence-claiming scheduler,
//! through churn and live traffic — and a tampered snapshot must be
//! rejected loudly rather than ever loading garbage. The split cases run on
//! the equivalence harness (`harness`).

mod harness;

use chord_scaffolding::chord::{self, ChordTarget};
use chord_scaffolding::scaffold;
use chord_scaffolding::sim::{
    fault::Fault, init::Shape, Config, OpenLoop, Persist, Program, SnapshotError, WorkloadConfig,
};
use harness::{Case, ACTIVITY, SYNC};
use proptest::prelude::*;

proptest! {
    /// The tentpole contract: snapshot at any round, restore under either
    /// daemon, continue: the metrics JSON and the final
    /// snapshot equal the uninterrupted run's byte for byte, churn storms
    /// keyed on the **absolute** round counter included (so the run in one
    /// piece and the split one see the same event sequence).
    #[test]
    fn restore_continues_byte_identically(
        seed in 0u64..1_000_000,
        split in 1u64..160,
        churn_bit in 0u8..2,
        sched_bit in 0u8..2,
    ) {
        let total = 160u64;
        let churn = churn_bit == 1;
        let build = |cfg| {
            chord::runtime_from_shape(ChordTarget::classic(64), 8, Shape::Random, cfg)
        };
        Case::new(format!("seed {seed}"), Config::seeded(seed), build)
            .daemons(&[[SYNC, ACTIVITY][sched_bit as usize]])
            .split(chord::restore_runtime, &[split])
            .run(|arm| {
                for _ in 0..total {
                    let rt = arm.rt();
                    let (r, ids) = (rt.round(), rt.ids().to_vec());
                    if churn && r % 19 == 11 && ids.len() > 4 {
                        let id = Some(ids[r as usize % ids.len()]);
                        arm.fault(Fault::Leave { id, keep_connected: false });
                    }
                    let rt = arm.rt();
                    if churn && r % 31 == 17 {
                        let free = (0..64).find(|&v| !rt.topology().contains(v));
                        if let Some(id) = free {
                            let contacts = rt.ids().iter().take(2).copied().collect();
                            arm.fault(Fault::JoinAt { id, contacts });
                        }
                    }
                    arm.run(1);
                }
            });
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
    // message contents, send order and RNG draw order all feed these. The
    // snapshot halves were recaptured for format version 6 (none of these
    // runtimes has a workload, so only the version in the header moved
    // them). All three were recaptured once more when a second-walk root
    // stopped priming its merge with a placeholder partner cid (format
    // version 7): the two ideal-network runs now commit merges that both
    // sides accept — different epochs, so both halves moved — while the
    // wan run's trajectory is unchanged to round 1100 and only its
    // snapshot half moved, with the format. Its metrics half is still the
    // original. The three snapshot halves were recaptured again for format
    // version 8, which changed the version word and dropped three unread
    // fields from the match notice; no trajectory moved, so every metrics
    // half is unchanged.
    fn golden<P>(mut rt: chord_scaffolding::sim::Runtime<P>, rounds: u64) -> (u64, u64)
    where
        P: Program + Persist,
        P::Msg: Persist,
    {
        use chord_scaffolding::sim::snapshot::content_hash;
        rt.run(rounds);
        (
            content_hash(&rt.save_snapshot()),
            content_hash(serde_json::to_string(rt.metrics()).unwrap().as_bytes()),
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
        (4606660821787377901, 10413335143241111576),
        "standalone Avatar(CBT), 34 merges in"
    );
    assert_eq!(
        golden(
            chord::runtime_from_shape(target, 12, Shape::Random, cfg),
            800
        ),
        (10192656930961654035, 3563248787411804897),
        "Avatar(Chord) on the ideal network, finger waves 3-4 in flight"
    );
    assert_eq!(
        golden(chord::runtime_with_net(target, &ids, edges, cfg, wan), 1100),
        (16553942467232937944, 10757396847489437221),
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

/// Every single-bit flip of a sealed snapshot, header and hash included,
/// is refused by the container checks before a payload byte is decoded.
#[test]
fn every_single_bit_flip_is_rejected() {
    let mut cfg = Config::seeded(7);
    cfg.record_rounds = false;
    let mut rt = chord::runtime_from_shape(ChordTarget::classic(64), 6, Shape::Random, cfg);
    rt.run(40);
    let good = rt.save_snapshot();
    for bit in 0..8 * good.len() {
        let mut bad = good.clone();
        bad[bit / 8] ^= 1 << (bit % 8);
        match chord::restore_runtime::<ChordTarget>(&bad, cfg) {
            Err(
                SnapshotError::BadMagic
                | SnapshotError::Version { .. }
                | SnapshotError::Truncated
                | SnapshotError::TrailingBytes
                | SnapshotError::HashMismatch { .. },
            ) => {}
            Err(e) => panic!("bit {bit}: refused past the container checks: {e}"),
            Ok(_) => panic!("bit {bit}: a flipped snapshot restored"),
        }
    }
}

/// Single-byte mutations of a re-sealed payload (the content hash is not a
/// MAC, so a re-sealed payload is outside input): every payload byte of a
/// mid-stabilization runtime XORed with `0x01`, `0x80` and `0x7f`. Each
/// case either fails to restore, or restores to a runtime whose topology
/// passes its invariant check and that runs 30 rounds without panicking —
/// in a debug build, with the engine's and the protocol's debug
/// assertions armed.
#[test]
fn resealed_single_byte_mutations_restore_or_fail_cleanly() {
    use chord_scaffolding::sim::snapshot::{seal, unseal};
    let target = ChordTarget::classic(64);
    let mut cfg = Config::seeded(7);
    cfg.record_rounds = false;
    let mut rt = chord::runtime_from_shape(target, 6, Shape::Random, cfg);
    rt.run(40);
    let payload = unseal(&rt.save_snapshot())
        .expect("a fresh snapshot unseals")
        .to_vec();
    let mut failures = Vec::new();
    for i in 0..payload.len() {
        for mask in [0x01u8, 0x80, 0x7f] {
            let mut bytes = payload.clone();
            bytes[i] ^= mask;
            let sealed = seal(bytes);
            let outcome = std::panic::catch_unwind(|| {
                match chord::restore_runtime::<ChordTarget>(&sealed, cfg) {
                    Err(_) => true,
                    Ok(mut back) => {
                        let sound = back.topology().check_invariants();
                        back.run(30);
                        sound
                    }
                }
            });
            match outcome {
                Ok(true) => {}
                Ok(false) => failures.push(format!("byte {i} ^ {mask:#04x}: broken topology")),
                Err(e) => {
                    let why = e
                        .downcast_ref::<String>()
                        .cloned()
                        .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
                        .unwrap_or_default();
                    failures.push(format!("byte {i} ^ {mask:#04x}: panicked: {why}"));
                }
            }
        }
    }
    assert!(
        failures.is_empty(),
        "{} of {} mutations misbehaved:\n{}",
        failures.len(),
        3 * payload.len(),
        failures.join("\n")
    );
}

/// A converged, legal Avatar(Chord) checkpoint restores legal, stays
/// silent, and continues identically under both daemons — the property the E14b memory sweep and the bench fixture
/// stand on.
#[test]
fn converged_legal_snapshot_restores_legal_and_identical() {
    let build = |cfg| {
        let mut rt = chord::runtime_from_shape(ChordTarget::classic(64), 8, Shape::Random, cfg);
        let out = rt.run_monitored(chord::legality(), 60_000);
        assert!(out.rounds_if_satisfied().is_some(), "converges: {out:?}");
        rt
    };
    // The split runs under the first daemon.
    for daemons in [[SYNC, ACTIVITY], [ACTIVITY, SYNC]] {
        Case::new("converged", Config::seeded(0xC0FFEE), build)
            .daemons(&daemons)
            .split(chord::restore_runtime, &[0])
            .run(|arm| {
                assert!(
                    chord::runtime_is_legal(arm.rt()),
                    "restored state is still legal"
                );
                let silent = arm.rt().metrics().total_messages;
                arm.run(64);
                let messages = arm.rt().metrics().total_messages;
                assert_eq!(
                    messages, silent,
                    "a legal overlay stays silent after restore"
                );
            });
    }
}

/// The standalone Avatar(CBT) network goes fully dormant via the quiesce
/// wave; a snapshot taken while dormant must round-trip that state — the
/// restored network is still quiescent, stays silent under the activity
/// daemon, and continues identically (and as the synchronous daemon would).
#[test]
fn dormant_cbt_snapshot_restores_dormant() {
    let n = 64u32;
    let build = |cfg| {
        let mut rt = scaffold::runtime_from_shape(n, 8, Shape::Random, cfg);
        let out = rt.run_monitored(scaffold::legality(), 60_000);
        assert!(out.rounds_if_satisfied().is_some(), "converges: {out:?}");
        // Let the quiesce wave drain until every host reports dormant.
        let epoch = scaffold::Schedule::new(n).epoch_len();
        let mut waited = 0u64;
        while !rt.programs().all(|(_, p)| p.is_quiescent()) {
            rt.run(epoch);
            waited += epoch;
            assert!(waited < 64 * epoch, "network failed to go dormant");
        }
        rt
    };
    Case::new("dormant", Config::seeded(0xCB7), build)
        .daemons(&[ACTIVITY, SYNC])
        .split(scaffold::restore_runtime, &[0])
        .run(|arm| {
            let rt = arm.rt();
            assert!(
                rt.programs().all(|(_, p)| p.is_quiescent()),
                "dormancy survives the roundtrip"
            );
            let silent = rt.metrics().total_messages;
            arm.run(128);
            assert_eq!(
                arm.rt().metrics().total_messages,
                silent,
                "the dormant network sends nothing"
            );
        });
}

/// A snapshot taken mid-traffic carries the whole workload: the generator
/// (kind, rate, key space, accumulator, quota left), the workload RNG, the
/// in-flight queues and the saved `WorkloadConfig`. The restored runtime
/// holds them as live state but cannot step until `attach_workload`
/// re-supplies the generator as constructed and so arms the router, which
/// is code (the harness checks both states); the resumed run then matches
/// the uninterrupted one byte for byte, split before the first step and
/// after the last one included. The saved progress and `WorkloadConfig`
/// win over the arguments.
#[test]
fn midtraffic_snapshot_resumes_after_reattach() {
    Case::new("mid-traffic", Config::seeded(0x7AFF1C), |cfg| {
        chord::runtime_from_shape(ChordTarget::classic(64), 8, Shape::Random, cfg)
    })
    .workload(|rt| rt.attach_workload(OpenLoop::new(2.0, 64), WorkloadConfig::default()))
    .split(chord::restore_runtime, &[0, 120, 300])
    .run(|arm| arm.run(300));
}
